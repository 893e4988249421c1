"""Trainability laboratory: diagnostics and per-layer LR control for continual learning."""

__version__ = "0.1.0"

from .curvature import CurvatureProbe, effective_rank, exact_hessian, hvp, top_eigenvalue
from .errors import (
    CapacityError,
    ConfigError,
    DegenerateDataError,
    FormatError,
    NumericError,
    StateError,
    TrainlabError,
)
from .metrics import (
    BoundConfig,
    ThresholdReport,
    WindowStats,
    alpha_g_star,
    alpha_vol_star,
    cantelli_cap,
    combined_bound,
    diagnostics,
    minibatch_grad_variance,
    normalized_sharpness,
    predict_lot,
    push_and_stats,
)
from .nn import (
    Activation,
    Batch,
    Layer,
    ParamSet,
    Regularizer,
    crelu_apply,
    forward,
    init_mlp,
    loss_grad,
    per_sample_grads,
    probe_grads,
    wasserstein_penalty,
)
from .optim import AdamState, adam_step, agg_step, effective_step, init_adam, reset
from .runner import (
    MetricRecord,
    ModelConfig,
    OptimConfig,
    RunConfig,
    RunResult,
    SeedResult,
    run,
    run_seed,
    summarize,
)
from .scheduler import ControllerConfig, decide
from .tasks import (
    MnistSource,
    StreamConfig,
    SyntheticSource,
    TaskView,
    batches,
    load_idx,
    prepare,
    task_labels,
)

__all__ = [name for name in dir() if not name.startswith("_")]
