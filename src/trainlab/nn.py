"""Dense MLP with explicit forward/backward passes.

All gradients are computed by hand (no autodiff framework): the batch
gradient comes from one reverse sweep.  The metric probe's gradient noise
comes from the same sweep in factored form (``probe_grads``): a dense
layer's per-sample gradient is the outer product of its output gradient and
its input, so each layer's per-sample variance needs only those B rows,
never a B x n_params tensor.  Materialized per-sample gradients
(``per_sample_grads``, ``mean_params``) are kept as test oracles for it and
are not on the run path.

Conventions:
  - weights are stored ``(out, in)``; a layer computes ``x @ W.T + b``;
  - the configured activation is applied after every layer except the last;
  - loss is mean softmax cross-entropy (log-sum-exp stabilized) plus the
    configured regularizer penalty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, NumericError

ACTIVATION_KINDS = ("relu", "leaky_relu", "crelu", "linear")
REGULARIZER_KINDS = ("none", "l2", "wasserstein")


# ---------------------------------------------------------------------------
# parameter containers

GLOBAL_SCOPE = "global"  # the scope of all parameters, as opposed to one layer's id


@dataclass
class Layer:
    layer_id: str
    weights: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)


class ParamSet:
    """Per-layer weights and biases stored in one flat float64 vector.

    Each layer owns one contiguous segment of ``vector``: its weights
    row-major, then its bias.  ``layers[i].weights`` and ``.bias`` are views
    into that segment, so an in-place write through either shows in the
    other (rebinding the attribute to a new array breaks the link).  Also
    used as the container for anything parameter-shaped: gradients,
    optimizer moments, probe directions.
    """

    def __init__(self, layers: Sequence[Layer], vector: np.ndarray | None = None):
        ids = [lay.layer_id for lay in layers]
        if len(set(ids)) != len(ids):
            raise ConfigError(f"duplicate layer ids: {ids}")
        self._shapes = [(lay.layer_id, lay.weights.shape, lay.bias.shape) for lay in layers]
        self._segments: dict[str, slice] = {}
        k = 0
        for lay in layers:
            size = lay.weights.size + lay.bias.size
            self._segments[lay.layer_id] = slice(k, k + size)
            k += size
        if vector is None:
            vector = np.zeros(k)
            for lay, dst in zip(layers, self.layer_views(vector)):
                dst.weights[...] = lay.weights
                dst.bias[...] = lay.bias
        elif vector.shape != (k,):
            raise ConfigError(f"vector shape {vector.shape} != ({k},)")
        self.vector = vector
        self.layers = self.layer_views(vector)

    def layer_views(self, buf: np.ndarray) -> list[Layer]:
        """Layers viewing ``buf``, whose last axis holds this set's flat layout.

        Leading axes of ``buf`` lead every weight and bias view, so a
        ``(B, n_params)`` buffer gives ``(B, out, in)`` weights.
        """
        lead = buf.shape[:-1]
        out = []
        for lid, w_shape, b_shape in self._shapes:
            seg = self._segments[lid]
            w_end = seg.start + math.prod(w_shape)
            weights = buf[..., seg.start : w_end].reshape(lead + w_shape)
            out.append(Layer(lid, weights, buf[..., w_end : seg.stop].reshape(lead + b_shape)))
        return out

    def layer_ids(self) -> list[str]:
        return list(self._segments)

    def segment(self, scope: str = GLOBAL_SCOPE) -> np.ndarray:
        """The whole vector, or one layer's segment of it (a view either way)."""
        if scope == GLOBAL_SCOPE:
            return self.vector
        if scope not in self._segments:
            raise ConfigError(f"unknown layer id {scope!r}")
        return self.vector[self._segments[scope]]

    def per_entry(self, values: Mapping[str, float], scope: str = GLOBAL_SCOPE) -> np.ndarray:
        """Each layer's entry of ``values`` repeated over its scoped parameters."""
        ids = self.layer_ids() if scope == GLOBAL_SCOPE else [scope]
        sizes = [self.segment(lid).size for lid in ids]
        return np.repeat([float(values[lid]) for lid in ids], sizes)

    def arrays(self):
        for lay in self.layers:
            yield lay.weights
            yield lay.bias

    @property
    def n_params(self) -> int:
        return self.vector.size

    def like(self, vector: np.ndarray) -> "ParamSet":
        """A ParamSet with this one's layout over ``vector`` (not copied)."""
        return ParamSet(self.layers, vector)

    def copy(self) -> "ParamSet":
        return self.like(self.vector.copy())

    def to_vector(self) -> np.ndarray:
        return self.vector.copy()

    def from_vector(self, vec: np.ndarray) -> "ParamSet":
        """A new ParamSet with this one's layout filled from a copy of ``vec``."""
        if vec.size != self.n_params:
            raise ConfigError(f"vector size {vec.size} != parameter count {self.n_params}")
        return self.like(np.array(vec, dtype=np.float64).reshape(-1))


def zeros_like(ps: ParamSet) -> ParamSet:
    return ps.like(np.zeros_like(ps.vector))


def add_scaled(a: ParamSet, b: ParamSet, scale: float) -> ParamSet:
    """a + scale * b, as a new ParamSet (layout taken from ``a``)."""
    return a.like(a.vector + scale * b.vector)


def param_dot(a: ParamSet, b: ParamSet) -> float:
    return float(np.vdot(a.vector, b.vector))


def param_norm(ps: ParamSet) -> float:
    return float(np.linalg.norm(ps.vector))


def mean_params(grads: Sequence[ParamSet]) -> ParamSet:
    """Arithmetic mean of a list of ParamSet-shaped values."""
    if not grads:
        raise ValueError("empty gradient list")
    out = zeros_like(grads[0])
    for g in grads:
        out.vector += g.vector
    out.vector *= 1.0 / len(grads)
    return out


# ---------------------------------------------------------------------------
# activations


@dataclass(frozen=True)
class Activation:
    kind: str
    slope: float = 0.0  # leaky_relu negative-side slope

    def __post_init__(self):
        if self.kind not in ACTIVATION_KINDS:
            raise ConfigError(f"unknown activation {self.kind!r}")
        if self.kind == "leaky_relu" and not 0.0 <= self.slope <= 1.0:
            raise ConfigError(f"leaky_relu slope must be in [0, 1], got {self.slope}")


def crelu_apply(x: np.ndarray) -> np.ndarray:
    """Concatenate the positive and negative halves: [max(x,0), max(-x,0)].

    Output width is exactly twice the input width; the positive half minus
    the negative half reconstructs the input.
    """
    x = np.asarray(x)
    return np.concatenate([np.maximum(x, 0.0), np.maximum(-x, 0.0)], axis=-1)


def activation_width(act: Activation, width: int) -> int:
    return 2 * width if act.kind == "crelu" else width


def _act_forward(act: Activation, z: np.ndarray) -> np.ndarray:
    if act.kind == "relu":
        return np.maximum(z, 0.0)
    if act.kind == "leaky_relu":
        return np.where(z > 0.0, z, act.slope * z)
    if act.kind == "crelu":
        return crelu_apply(z)
    return z  # linear


def _act_backward(act: Activation, z: np.ndarray, dh: np.ndarray) -> np.ndarray:
    if act.kind == "relu":
        return dh * (z > 0.0)
    if act.kind == "leaky_relu":
        return dh * np.where(z > 0.0, 1.0, act.slope)
    if act.kind == "crelu":
        n = z.shape[-1]
        return dh[..., :n] * (z > 0.0) - dh[..., n:] * (z < 0.0)
    return dh


def _act_tangent(act: Activation, z: np.ndarray, dz: np.ndarray) -> np.ndarray:
    """The activation's directional derivative at ``z`` along ``dz`` (phi'(z) dz).

    Every activation is piecewise linear, so this is exact away from the
    kinks and ``phi''`` is zero there.
    """
    if act.kind == "relu":
        return dz * (z > 0.0)
    if act.kind == "leaky_relu":
        return dz * np.where(z > 0.0, 1.0, act.slope)
    if act.kind == "crelu":
        return np.concatenate([dz * (z > 0.0), -dz * (z < 0.0)], axis=-1)
    return dz


# ---------------------------------------------------------------------------
# regularizers


@dataclass
class Regularizer:
    kind: str = "none"
    lam: float = 0.0
    init_snapshot: ParamSet | None = None

    def __post_init__(self):
        if self.kind not in REGULARIZER_KINDS:
            raise ConfigError(f"unknown regularizer {self.kind!r}")
        if self.lam < 0.0:
            raise ConfigError(f"regularizer coefficient must be >= 0, got {self.lam}")
        if self.kind == "wasserstein":
            if self.init_snapshot is None:
                raise ConfigError("wasserstein regularizer requires an init snapshot")
            # each layer's snapshot weights sorted once: the snapshot is fixed
            self._sorted_init = [_sorted_entries(lay.weights) for lay in self.init_snapshot.layers]


def _sorted_entries(a: np.ndarray) -> np.ndarray:
    return np.sort(a.ravel(), kind="stable")


def wasserstein_penalty(current: np.ndarray, init: np.ndarray) -> tuple[float, np.ndarray]:
    """Squared 1-D Wasserstein-2 distance between the entries of two arrays.

    value = (1/n) * sum_k (sort(current)_k - sort(init)_k)^2, gradient routed
    back through the sorting permutation of ``current``.  Zero iff the two
    multisets of entries coincide.
    """
    if current.shape != init.shape:
        raise ConfigError(f"shape mismatch {current.shape} vs {init.shape}")
    return _wasserstein_to_sorted(current, _sorted_entries(init))


def _wasserstein_to_sorted(current: np.ndarray, init_sorted: np.ndarray):
    flat = current.ravel()
    n = flat.size
    order = np.argsort(flat, kind="stable")
    diffs = flat[order] - init_sorted
    value = float(np.mean(diffs**2))
    grad_flat = np.zeros_like(flat)
    grad_flat[order] = (2.0 / n) * diffs
    return value, grad_flat.reshape(current.shape)


def regularizer_penalty(params: ParamSet, reg: Regularizer) -> tuple[float, ParamSet]:
    """Penalty value and its exact gradient (weights only; biases unpenalized)."""
    grads = zeros_like(params)
    if reg.kind == "none" or reg.lam == 0.0:
        return 0.0, grads
    value = 0.0
    if reg.kind == "l2":
        for lay, g in zip(params.layers, grads.layers):
            value += reg.lam * float(np.sum(lay.weights**2))
            g.weights += 2.0 * reg.lam * lay.weights
        return value, grads
    # wasserstein
    snap = reg.init_snapshot
    if snap.layer_ids() != params.layer_ids():
        raise ConfigError("wasserstein snapshot layers do not match current parameters")
    for lay, ref, ref_sorted, g in zip(params.layers, snap.layers, reg._sorted_init, grads.layers):
        if lay.weights.shape != ref.weights.shape:
            raise ConfigError(f"shape mismatch {lay.weights.shape} vs {ref.weights.shape}")
        v, gw = _wasserstein_to_sorted(lay.weights, ref_sorted)
        value += reg.lam * v
        g.weights += reg.lam * gw
    return value, grads


# ---------------------------------------------------------------------------
# data batches


@dataclass
class Batch:
    inputs: np.ndarray  # (B, d)
    labels: np.ndarray  # (B,) integer class indices

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.labels = np.asarray(self.labels)
        if self.inputs.ndim != 2:
            raise ConfigError(f"batch inputs must be 2-D, got shape {self.inputs.shape}")
        if self.labels.shape != (self.inputs.shape[0],):
            raise ConfigError("labels must be one class index per input row")
        if self.inputs.shape[0] < 1:
            raise ConfigError("batch must contain at least one sample")

    @property
    def size(self) -> int:
        return self.inputs.shape[0]


# ---------------------------------------------------------------------------
# initialization


def init_mlp(
    in_dim: int,
    hidden_widths: list[int],
    n_classes: int,
    act: Activation,
    rng: np.random.Generator,
) -> ParamSet:
    """Kaiming-uniform fan-in weights, zero biases.

    Layers fed by a CReLU see a doubled input width; the init bound uses the
    pre-concatenation fan-in.
    """
    layers = []
    in_actual = in_dim
    fan_in = in_dim
    widths = list(hidden_widths) + [n_classes]
    for i, width in enumerate(widths):
        bound = np.sqrt(6.0 / fan_in)
        w = rng.uniform(-bound, bound, size=(width, in_actual))
        layers.append(Layer(f"fc{i + 1}", w, np.zeros(width)))
        if i < len(hidden_widths):
            in_actual = activation_width(act, width)
            fan_in = width
    return ParamSet(layers)


# ---------------------------------------------------------------------------
# forward / loss / gradients


@dataclass
class ForwardResult:
    logits: np.ndarray  # (B, C)
    hidden_preacts: list[np.ndarray]  # one (B, width) per hidden layer


def _check_shapes(params: ParamSet, act: Activation, in_dim: int) -> None:
    expect = in_dim
    for i, lay in enumerate(params.layers):
        out, inp = lay.weights.shape
        if inp != expect:
            raise ConfigError(
                f"layer {lay.layer_id!r} expects input width {inp}, got {expect}"
            )
        if lay.bias.shape != (out,):
            raise ConfigError(f"layer {lay.layer_id!r} bias shape {lay.bias.shape} != ({out},)")
        expect = out if i == len(params.layers) - 1 else activation_width(act, out)


def _forward(params: ParamSet, act: Activation, inputs: np.ndarray):
    """Returns (logits, hidden preacts, per-layer inputs) for backprop reuse."""
    _check_shapes(params, act, inputs.shape[1])
    x = inputs
    preacts: list[np.ndarray] = []
    layer_inputs: list[np.ndarray] = []
    last = len(params.layers) - 1
    for i, lay in enumerate(params.layers):
        layer_inputs.append(x)
        z = x @ lay.weights.T + lay.bias
        if i == last:
            return z, preacts, layer_inputs
        preacts.append(z)
        x = _act_forward(act, z)
    raise ConfigError("network has no layers")


def forward(params: ParamSet, act: Activation, batch: Batch) -> ForwardResult:
    logits, preacts, _ = _forward(params, act, batch.inputs)
    return ForwardResult(logits, preacts)


def _softmax_stats(logits: np.ndarray, labels: np.ndarray):
    """Per-sample cross-entropy and softmax probabilities, max-shifted."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    expz = np.exp(shifted)
    denom = expz.sum(axis=1, keepdims=True)
    log_denom = np.log(denom[:, 0])
    rows = np.arange(logits.shape[0])
    losses = log_denom - shifted[rows, labels]
    return losses, expz / denom


def _first_nonfinite_layer(params: ParamSet, preacts, logits) -> str:
    for lay, z in zip(params.layers, preacts):
        if not np.all(np.isfinite(z)):
            return lay.layer_id
    return params.layers[-1].layer_id


@dataclass
class LossGrad:
    loss: float
    grads: ParamSet
    logits: np.ndarray


def _backward(
    params: ParamSet, act: Activation, preacts, layer_inputs, dlogits, layer_stat=None
) -> ParamSet:
    """The batch gradient of the data loss (no penalty) from ``dlogits``.

    One reverse sweep, last layer first.  ``layer_stat(i, d)``, when given,
    is called once per layer with ``d`` the (B, out) gradient at layer
    ``i``'s output.
    """
    grads = zeros_like(params)
    d = dlogits
    for i in range(len(params.layers) - 1, -1, -1):
        lay = params.layers[i]
        g = grads.layers[i]
        g.weights += d.T @ layer_inputs[i]
        g.bias += d.sum(axis=0)
        if layer_stat is not None:
            layer_stat(i, d)
        if i > 0:
            dx = d @ lay.weights
            d = _act_backward(act, preacts[i - 1], dx)
    return grads


def _loss_and_dlogits(params: ParamSet, act: Activation, batch: Batch, reg: Regularizer):
    """Forward pass, loss and ``dL/dlogits`` of the mean cross-entropy.

    Returns (loss, logits, hidden preacts, per-layer inputs, dlogits, penalty
    gradient); raises NumericError on a non-finite loss.
    """
    logits, preacts, layer_inputs = _forward(params, act, batch.inputs)
    losses, probs = _softmax_stats(logits, batch.labels)
    reg_value, reg_grads = regularizer_penalty(params, reg)
    loss = float(np.mean(losses)) + reg_value
    if not np.isfinite(loss):
        raise NumericError(
            f"non-finite loss {loss}", layer_id=_first_nonfinite_layer(params, preacts, logits)
        )
    return loss, logits, preacts, layer_inputs, _mean_ce_slope(probs, batch.labels), reg_grads


def _mean_ce_slope(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """``dL/dlogits`` of the mean cross-entropy: (softmax - one-hot) / B."""
    B = labels.shape[0]
    dlogits = probs.copy()
    dlogits[np.arange(B), labels] -= 1.0
    dlogits /= B
    return dlogits


def loss_grad(params: ParamSet, act: Activation, batch: Batch, reg: Regularizer) -> LossGrad:
    """Mean cross-entropy plus regularizer penalty, with its exact gradient."""
    loss, logits, preacts, layer_inputs, dlogits, reg_grads = _loss_and_dlogits(
        params, act, batch, reg
    )
    grads = _backward(params, act, preacts, layer_inputs, dlogits)
    grads.vector += reg_grads.vector
    return LossGrad(loss, grads, logits)


@dataclass
class ProbeGrads:
    grads: ParamSet  # the batch gradient, penalty included, as loss_grad gives it
    sigma_sq: dict[str, float]  # per layer: (1/B) sum_i ||g_i - g_bar||^2
    hidden_preacts: list[np.ndarray]  # one (B, width) per hidden layer


def probe_grads(params: ParamSet, act: Activation, batch: Batch, reg: Regularizer) -> ProbeGrads:
    """Batch gradient, each layer's per-sample gradient variance and the hidden
    pre-activations, from one forward pass and one reverse sweep.

    Sample i's gradient of a dense layer is ``d_i x_i^T`` for the weights and
    ``d_i`` for the bias (``d_i`` its output gradient, ``x_i`` its input), so
    ``||g_i||^2 = ||d_i||^2 (||x_i||^2 + 1)`` and the layer's variance is
    ``(1/B) sum_i ||g_i||^2 - ||g_bar||^2``.  The penalty adds the same vector
    to every ``g_i`` and cancels from the variance; ``g_bar`` in that formula
    is the data part alone.  This equals ``minibatch_grad_variance`` over
    ``per_sample_grads`` up to a relative rounding error of about
    eps * (1 + alpha_g* / B).  A single sample gives exactly 0, and a
    negative rounding result is clamped to 0.  Memory is O(B * width).
    """
    _, _, preacts, layer_inputs, dlogits, reg_grads = _loss_and_dlogits(params, act, batch, reg)
    B = batch.size
    mean_sq = {}  # per layer: (1/B) sum_i ||g_i||^2

    def sample_sq_norms(i, d):
        # d holds d_i / B, so (1/B) sum_i ||g_i||^2 = B * sum_i ||d||^2 (||x_i||^2 + 1)
        x = layer_inputs[i]
        x_sq = np.einsum("bi,bi->b", x, x) + 1.0
        mean_sq[params.layers[i].layer_id] = B * float(np.einsum("bo,bo->b", d, d) @ x_sq)

    grads = _backward(params, act, preacts, layer_inputs, dlogits, sample_sq_norms)
    sigma_sq = {}
    for lid in params.layer_ids():
        g = grads.segment(lid)
        sigma_sq[lid] = 0.0 if B == 1 else max(mean_sq[lid] - float(np.vdot(g, g)), 0.0)
    grads.vector += reg_grads.vector
    return ProbeGrads(grads, sigma_sq, preacts)


def per_sample_grads(
    params: ParamSet, act: Activation, batch: Batch, reg: Regularizer
) -> list[ParamSet]:
    """Gradient of each sample's own loss, in sample order.

    The full regularizer gradient is added to every per-sample gradient (the
    penalty is deterministic, so splitting it would corrupt spread-based
    noise estimates).  The mean over the list equals the batch gradient up to
    floating accumulation order.  Memory is O(B * n_params).
    """
    logits, preacts, layer_inputs = _forward(params, act, batch.inputs)
    losses, probs = _softmax_stats(logits, batch.labels)
    reg_value, reg_grads = regularizer_penalty(params, reg)
    if not np.isfinite(float(np.mean(losses)) + reg_value):
        raise NumericError(
            "non-finite loss", layer_id=_first_nonfinite_layer(params, preacts, logits)
        )
    B = batch.size
    d = probs.copy()
    d[np.arange(B), batch.labels] -= 1.0  # per-sample dlogits, no 1/B

    flat = np.empty((B, params.n_params))  # row s: sample s's gradient
    rows = params.layer_views(flat)
    for i in range(len(params.layers) - 1, -1, -1):
        np.einsum("bo,bi->boi", d, layer_inputs[i], out=rows[i].weights)
        rows[i].bias[...] = d
        if i > 0:
            dx = d @ params.layers[i].weights
            d = _act_backward(act, preacts[i - 1], dx)
    flat += reg_grads.vector
    return [params.like(row) for row in flat]
