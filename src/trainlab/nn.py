"""Dense MLP with explicit forward/backward passes.

All gradients are computed by hand (no autodiff framework).  ``loss_grad``
is the one pass and ``Sweep`` its one result: the forward pass, each
layer's output gradient (last layer first) and the batch gradient, each
layer's ``d^T x`` written straight into one buffer and the penalty's
gradient then added in place, with the loss's finite check.  The training
step reads its loss, gradient and logits; the probe's per-layer gradient
noise (``probe_grads``) and every R-op Hessian-vector product
(``curvature.hvp``) read the rest, so a probe runs the pass once.  The
noise is in factored form: a dense layer's per-sample gradient is the
outer product of its output gradient and its input, so each layer's
per-sample variance needs only those B rows, never a B x n_params tensor.
Materialized per-sample gradients (``per_sample_grads``: one ``loss_grad``
pass per sample, and ``mean_params``) are kept as test oracles for it and
are not on the run path; ``_reverse_sweep`` is the one backward pass.

A worker (an executor with one thread) takes half of the training step's
wide matmuls off its thread, to the inline path's bits, through
``hand_off``, which carries the caller's numpy error state; ``runner``
hands it a seed's whole probes instead where no matmul is wide.  Every
penalty is made inline after the sweep: one float sort finds the
Wasserstein penalty's permutation (see ``wasserstein_penalty``).  A wide
matmul is ``split``: for a layer whose weights hold at least
``WIDE`` = 2^16 entries, the worker makes the rows of its ``x @ W.T`` and
its ``d^T x`` from a multiple of 64 on (``optim.adam_step`` splits the
same way).  Below that width a matmul takes about as long as the
hand-off: splitting every pass made the desk stream (width 64) 21% slower
in one run, and ``WIDE`` = 0 under the row rules of ``split`` and
``_matmul`` 3% and 8% slower in two.  Narrow layers never split, also
because a split of the 10-wide read-out's rows (a 128-row batch at 64/64)
changed bits.  With no free core the two parts run one after the other,
and a split costs its hand-off on top of the whole product: pinned to one
core, a 784-256-10 run was as fast as unsplit.  Nor does a split pay
where BLAS runs threads of its own, which take the free core first, so
``runner`` gives the split passes its worker only at one BLAS thread.
``probe_grads``, like every product of ``curvature``, takes no worker: a
probe runs whole on whichever thread calls it.

Conventions:
  - weights are stored ``(out, in)``; a layer computes ``x @ W.T + b``;
  - the configured activation is applied after every layer except the last;
  - loss is mean softmax cross-entropy (log-sum-exp stabilized) plus the
    configured regularizer penalty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, NumericError

ACTIVATION_KINDS = ("relu", "leaky_relu", "crelu", "linear")
REGULARIZER_KINDS = ("none", "l2", "wasserstein")

# A pass splits across the worker from WIDE entries in its weight-shaped
# operand, into two parts of whole multiples of SPLIT_ROWS rows (see split).
WIDE = 2**16
SPLIT_ROWS = 64


# ---------------------------------------------------------------------------
# the hand-off to a worker thread


def hand_off(worker, fn, *args):
    """``worker.submit(fn, *args)``, the job run under the caller's numpy
    error state, read here (a worker thread starts from numpy's default one;
    the state is a context variable from numpy 2.0 on and per thread
    before).  A job on the worker never hands off again: the worker has one
    thread, which would wait on itself."""
    return worker.submit(_under_errstate, np.geterr(), np.geterrcall(), fn, *args)


def _under_errstate(err: dict, call, fn, *args):
    with np.errstate(call=call, **err):
        return fn(*args)


def split(worker, size: int, rows: int, part) -> None:
    """``part(0, rows)``, made as ``part(0, cut)`` here and ``part(cut,
    rows)`` on ``worker`` meanwhile when there is a worker, ``size`` (the
    entries of the weight-shaped operand) is at least ``WIDE`` and ``rows``
    at least ``2 * SPLIT_ROWS``; else whole, here.  ``cut`` is the multiple
    of ``SPLIT_ROWS`` nearest ``rows / 2``, so each part holds at least 64
    rows (a product of 1 to 4 rows takes other BLAS paths, with other bits).
    A part here that raises waits for the worker's first, and its error wins.
    """
    if worker is None or size < WIDE or rows < 2 * SPLIT_ROWS:
        part(0, rows)
        return
    cut = (rows + SPLIT_ROWS) // (2 * SPLIT_ROWS) * SPLIT_ROWS
    pending = hand_off(worker, part, cut, rows)
    try:
        part(0, cut)
    except BaseException:
        pending.exception()
        raise
    pending.result()


def _matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray, size: int, worker) -> np.ndarray:
    """``np.matmul(a, b, out=out)`` with its rows ``split`` by ``size``, the
    entries of the layer's weight-shaped operand, to the whole product's
    bits.  A product whose rows do not hold a multiple of 8 entries runs
    whole: OpenBLAS gives some of its rows other bits when they are made
    apart (a 256 x 300 product split at row 128 did, at one BLAS thread and
    at two)."""
    if out.shape[1] % 8:
        worker = None
    split(worker, size, a.shape[0], lambda lo, hi: np.matmul(a[lo:hi], b, out=out[lo:hi]))
    return out


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
        """Layers viewing the flat vector ``buf``, laid out as this set is."""
        out = []
        for lid, w_shape, b_shape in self._shapes:
            seg = self._segments[lid]
            w_end = seg.start + math.prod(w_shape)
            weights = buf[seg.start : w_end].reshape(w_shape)
            out.append(Layer(lid, weights, buf[w_end : seg.stop].reshape(b_shape)))
        return out

    def layer_ids(self) -> list[str]:
        return list(self._segments)

    def slices(self) -> dict[str, slice]:
        """Each layer id with the slice of the flat layout that its layer owns."""
        return dict(self._segments)

    def segment(self, scope: str = GLOBAL_SCOPE) -> np.ndarray:
        """The whole vector, or one layer's segment of it (a view either way)."""
        if scope == GLOBAL_SCOPE:
            return self.vector
        if scope not in self._segments:
            raise ConfigError(f"unknown layer id {scope!r}")
        return self.vector[self._segments[scope]]

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


def check_finite(ps: ParamSet, message: str) -> None:
    """Raise NumericError(message) naming the first layer of ``ps`` that holds
    a non-finite entry.

    One dot product clears the common case: ``v . v`` is finite whenever
    every entry is, and only when it is not (a non-finite entry, or finite
    entries large enough to overflow it) are the layers scanned.
    """
    v = ps.vector
    if np.isfinite(np.dot(v, v)):
        return
    for lid in ps.layer_ids():
        if not np.all(np.isfinite(ps.segment(lid))):
            raise NumericError(message, layer_id=lid)


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
        if self.kind == "leaky_relu" and not 0.0 < self.slope <= 1.0:
            raise ConfigError(f"leaky_relu slope must be in (0, 1], got {self.slope}")


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


def _act_mask(act: Activation, z: np.ndarray):
    """What the activation's Jacobian at ``z`` reads of ``z``: the mask ``z >
    0`` (ReLU), the slope ``phi'(z)`` (leaky ReLU), the masks ``z > 0`` and
    ``z < 0`` (CReLU), or None (linear)."""
    if act.kind == "relu":
        return z > 0.0
    if act.kind == "leaky_relu":
        return np.where(z > 0.0, 1.0, act.slope)
    if act.kind == "crelu":
        return z > 0.0, z < 0.0
    return None


def _act_backward(act: Activation, mask, dh: np.ndarray) -> np.ndarray:
    """The backward pass through the activation whose ``_act_mask`` is ``mask``."""
    if act.kind == "crelu":
        pos, neg = mask
        n = pos.shape[-1]
        return dh[..., :n] * pos - dh[..., n:] * neg
    if mask is None:
        return dh
    return dh * mask


def _act_tangent(act: Activation, mask, dz: np.ndarray) -> np.ndarray:
    """The activation's directional derivative along ``dz`` (phi'(z) dz) at
    the ``z`` whose ``_act_mask`` is ``mask``.

    Every activation is piecewise linear, so this is exact away from the
    kinks and ``phi''`` is zero there.  Only CReLU's Jacobian is not square;
    every other one is diagonal, so its tangent is its backward pass.
    """
    if act.kind == "crelu":
        pos, neg = mask
        return np.concatenate([dz * pos, -dz * neg], axis=-1)
    return _act_backward(act, mask, dz)


# ---------------------------------------------------------------------------
# regularizers


def check_regularizer(kind: str, lam: float) -> None:
    """Raise ConfigError unless ``kind`` is a known penalty and ``lam`` is finite and >= 0."""
    if kind not in REGULARIZER_KINDS:
        raise ConfigError(f"unknown regularizer {kind!r}")
    if not 0.0 <= lam < math.inf:
        raise ConfigError(f"regularizer coefficient must be finite and >= 0, got {lam}")


@dataclass
class Regularizer:
    kind: str = "none"
    lam: float = 0.0
    init_snapshot: ParamSet | None = None

    def __post_init__(self):
        check_regularizer(self.kind, self.lam)
        if self.kind == "wasserstein":
            if self.init_snapshot is None:
                raise ConfigError("wasserstein regularizer requires an init snapshot")
            # each layer's snapshot weights sorted once: the snapshot is fixed
            self._sorted_init = [np.sort(w.weights, axis=None, kind="stable") for w in self.init_snapshot.layers]


def wasserstein_penalty(current: np.ndarray, init_sorted: np.ndarray) -> tuple[float, np.ndarray]:
    """Squared 1-D Wasserstein-2 distance between the entries of ``current``
    and a reference's entries, sorted once (``init_sorted``).

    value = (1/n) * sum_k (sort(current)_k - init_sorted_k)^2, gradient routed
    back through the sorting permutation of ``current``.  Zero iff the two
    multisets coincide.  ConfigError unless both hold n entries.

    Tie policy: entries of ``current`` that compare equal (``inf`` pairs and
    ``-0.0``/``0.0`` included) keep their index order in the permutation, as
    a stable sort leaves them.  Without ties the sorting permutation is
    unique, so it is found by one float sort: each entry's low
    ``(n-1).bit_length()`` mantissa bits are overwritten with its index, the
    keys sorted as float64 (numpy's SIMD sort, faster than ``argsort``) and
    the indices read back from the low bits.  That order is kept when it
    sorts ``current`` strictly; a tie, a NaN, an infinity whose key became a
    NaN, or two entries that agree in every bit above the index's fall back
    to the default ``argsort``, and a stable one when that finds a tie.
    """
    flat = current.ravel()
    n = flat.size
    if init_sorted.size != n:
        raise ConfigError(f"size mismatch: {n} entries vs {init_sorted.size} sorted reference entries")
    low = (1 << (n - 1).bit_length()) - 1
    keys = flat.view(np.int64) & ~low
    keys |= np.arange(n)
    keys.view(np.float64).sort()
    order = np.bitwise_and(keys, low, out=keys)  # the indices, in sorted order
    ranked = flat[order]
    if not np.all(ranked[1:] > ranked[:-1]):  # not the order of a tie-free sort
        order = np.argsort(flat)
        ranked = flat[order]
        if not np.all(ranked[1:] > ranked[:-1]):  # a tie (or a NaN): order it by index
            order = np.argsort(flat, kind="stable")
            ranked = flat[order]
    diffs = ranked - init_sorted
    value = float(np.mean(diffs**2))
    grad_flat = np.empty_like(flat)  # every entry is written: order is a permutation
    grad_flat[order] = (2.0 / n) * diffs
    return value, grad_flat.reshape(current.shape)


def regularizer_penalty(
    params: ParamSet, reg: Regularizer, out: ParamSet | None = None
) -> tuple[float, ParamSet]:
    """Penalty value and its exact gradient (weights only; biases unpenalized).

    The gradient is added in place into ``out`` (a fresh zero ParamSet when
    not given), which is returned.
    """
    grads = zeros_like(params) if out is None else out
    if reg.kind == "none" or reg.lam == 0.0:
        return 0.0, grads
    value = 0.0
    if reg.kind == "l2":
        for lay, g in zip(params.layers, grads.layers):
            value += reg.lam * float(np.sum(lay.weights**2))
            g.weights += 2.0 * reg.lam * lay.weights
        return value, grads
    # wasserstein
    if reg.init_snapshot.layer_ids() != params.layer_ids():
        raise ConfigError("wasserstein snapshot layers do not match current parameters")
    for lay, ref_sorted, g in zip(params.layers, reg._sorted_init, grads.layers):
        v, gw = wasserstein_penalty(lay.weights, ref_sorted)
        value += reg.lam * v
        g.weights += reg.lam * gw
    return value, grads


def _penalty_curvature(reg: Regularizer, lay: Layer) -> float:
    """The penalty's Hessian on a layer's weights, a multiple of the identity: ``2 lam``
    for L2, ``2 lam / n`` for the Wasserstein penalty of n entries (its sort is locally fixed)."""
    if reg.kind == "l2":
        return 2.0 * reg.lam
    if reg.kind == "wasserstein":
        return 2.0 * reg.lam / lay.weights.size
    return 0.0


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


def _forward(params: ParamSet, act: Activation, inputs: np.ndarray, worker=None):
    """Returns (logits, hidden preacts, per-layer inputs) for backprop reuse;
    a wide layer's ``x @ W.T`` is ``split`` across ``worker``."""
    _check_shapes(params, act, inputs.shape[1])
    x = inputs
    preacts: list[np.ndarray] = []
    layer_inputs: list[np.ndarray] = []
    last = len(params.layers) - 1
    for i, lay in enumerate(params.layers):
        layer_inputs.append(x)
        w = lay.weights
        z = _matmul(x, w.T, np.empty((x.shape[0], w.shape[0])), w.size, worker)
        z += lay.bias
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


def _first_nonfinite_layer(params: ParamSet, preacts) -> str:
    for lay, z in zip(params.layers, preacts):
        if not np.all(np.isfinite(z)):
            return lay.layer_id
    return params.layers[-1].layer_id


@dataclass
class Sweep:
    """What ``loss_grad`` gives: one forward pass and one reverse sweep at a
    parameter point, which the gradient, the per-layer noise and every
    Hessian-vector product there share."""

    loss: float  # mean cross-entropy plus penalty
    logits: np.ndarray  # (B, C)
    probs: np.ndarray  # (B, C) softmax of the logits
    layer_inputs: list[np.ndarray]  # (B, in) per layer
    preacts: list[np.ndarray]  # (B, width) per hidden layer
    masks: list  # per hidden layer: its activation's _act_mask, made once for every pass
    out_grads: list[np.ndarray]  # (B, out) per layer: dL/d(its output), 1/B included
    grads: ParamSet  # the batch gradient, penalty included


def _reverse_sweep(params: ParamSet, act: Activation, batch: Batch, worker=None) -> Sweep:
    """The forward pass, each layer's output gradient (last layer first) and
    the data loss's batch gradient, ``d^T x`` written straight into one
    buffer.  A wide layer's ``x @ W.T`` and ``d^T x`` are ``split`` across
    ``worker``.  The penalty is not in ``loss`` or ``grads`` yet."""
    logits, preacts, layer_inputs = _forward(params, act, batch.inputs, worker)
    losses, probs = _softmax_stats(logits, batch.labels)
    B = batch.size
    d = probs.copy()  # the mean cross-entropy's slope (softmax - one-hot) / B
    d[np.arange(B), batch.labels] -= 1.0
    d /= B
    masks = [_act_mask(act, z) for z in preacts]
    out_grads = [d]
    for i in range(len(params.layers) - 1, 0, -1):
        d = _act_backward(act, masks[i - 1], d @ params.layers[i].weights)
        out_grads.insert(0, d)
    grads = params.like(np.empty(params.n_params))
    for x, d, g in zip(layer_inputs, out_grads, grads.layers):
        _matmul(d.T, x, g.weights, g.weights.size, worker)
        np.sum(d, axis=0, out=g.bias)
    return Sweep(float(np.mean(losses)), logits, probs, layer_inputs, preacts, masks, out_grads, grads)


def _add_penalty(params: ParamSet, reg: Regularizer, sw: Sweep) -> None:
    """Adds the penalty to ``sw.loss`` and its gradient to ``sw.grads`` in
    place; raises NumericError on a non-finite loss."""
    reg_value, _ = regularizer_penalty(params, reg, out=sw.grads)
    sw.loss += reg_value
    if not np.isfinite(sw.loss):
        layer_id = _first_nonfinite_layer(params, sw.preacts)
        raise NumericError(f"non-finite loss {sw.loss}", layer_id=layer_id)


# A pass that overflows ends in its loss's finite check, which raises
# NumericError; numpy's overflow and invalid-value warnings would only repeat it.
@np.errstate(over="ignore", invalid="ignore")
def loss_grad(
    params: ParamSet, act: Activation, batch: Batch, reg: Regularizer, worker=None
) -> Sweep:
    """Mean cross-entropy plus regularizer penalty, with its exact gradient,
    and everything the pass made on the way (see ``Sweep``).

    ``worker``, an executor with one thread, takes half of each wide matmul
    of the sweep (see ``split``); the result is the same to the bit.  The
    penalty is made after the sweep, on the caller's thread.  Raises
    NumericError on a non-finite loss.
    """
    sw = _reverse_sweep(params, act, batch, worker)
    _add_penalty(params, reg, sw)
    return sw


@dataclass
class ProbeGrads:
    sigma_sq: dict[str, float]  # per layer: (1/B) sum_i ||g_i - g_bar||^2
    sweep: Sweep  # the loss_grad pass it is read from: grads, diagnostics, eigensolve base


@np.errstate(over="ignore", invalid="ignore")
def probe_grads(params: ParamSet, act: Activation, batch: Batch, reg: Regularizer) -> ProbeGrads:
    """Each layer's per-sample gradient variance and the ``loss_grad`` pass it
    is read from, which the probe's eigensolve and diagnostics then reuse.

    Sample i's gradient of a dense layer is ``d_i x_i^T`` for the weights and
    ``d_i`` for the bias (``d_i`` its output gradient, ``x_i`` its input), so
    ``||g_i||^2 = ||d_i||^2 (||x_i||^2 + 1)`` and the layer's variance is
    ``(1/B) sum_i ||g_i||^2 - ||g_bar||^2``.  The penalty adds the same vector
    to every ``g_i`` and cancels from the variance; ``g_bar`` in that formula
    is the data part alone, read before the penalty is added.  This equals
    ``minibatch_grad_variance`` over ``per_sample_grads`` up to a relative
    rounding error of about eps * (1 + alpha_g* / B).  A single sample gives
    exactly 0, and a negative rounding result is clamped to 0.  Memory is
    O(B * width).
    """
    sw = _reverse_sweep(params, act, batch)
    B = batch.size
    sigma_sq = {}
    for lid, x, d in zip(params.layer_ids(), sw.layer_inputs, sw.out_grads):
        # d holds d_i / B, so (1/B) sum_i ||g_i||^2 = B * sum_i ||d||^2 (||x_i||^2 + 1)
        x_sq = np.einsum("bi,bi->b", x, x) + 1.0
        mean_sq = B * float(np.einsum("bo,bo->b", d, d) @ x_sq)
        g = sw.grads.segment(lid)
        sigma_sq[lid] = 0.0 if B == 1 else max(mean_sq - float(np.vdot(g, g)), 0.0)
    _add_penalty(params, reg, sw)
    return ProbeGrads(sigma_sq, sw)


def per_sample_grads(
    params: ParamSet, act: Activation, batch: Batch, reg: Regularizer
) -> list[ParamSet]:
    """Gradient of each sample's own loss, in sample order: one ``loss_grad``
    pass per sample, so it shares no sum over the batch with ``probe_grads``.

    The full regularizer gradient is in every per-sample gradient (the
    penalty is deterministic, so splitting it would corrupt spread-based
    noise estimates).  The mean over the list equals the batch gradient up to
    floating accumulation order.  Raises NumericError as ``loss_grad`` does.
    Memory is O(B * n_params).
    """
    samples = (Batch(batch.inputs[i : i + 1], batch.labels[i : i + 1]) for i in range(batch.size))
    return [loss_grad(params, act, one, reg).grads for one in samples]
