"""Continual task streams: data ingestion, relabeling, batch iteration.

The base dataset is loaded (MNIST IDX files or a synthetic Gaussian-cluster
source), subsampled once, and normalized once; tasks then share the exact
same input storage and differ only by reseeded label randomization.  All
randomness flows through named streams keyed off the config's base seed, so
the subsample, every task's labels, and every epoch's batch order replay
bit-identically.
"""

from __future__ import annotations

import gzip
import math
import struct
import zlib
from dataclasses import dataclass
from typing import Iterator, Union

import numpy as np

from .errors import ConfigError, FormatError
from .nn import Batch
from .rng import stream

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
IDX_CLASSES = 10


@dataclass(frozen=True)
class MnistSource:
    images: str
    labels: str


@dataclass(frozen=True)
class SyntheticSource:
    n: int = 2000
    d: int = 64
    classes: int = 10
    seed: int = 0
    separation: float = 3.0

    def __post_init__(self):
        if self.n < 1 or self.d < 1 or self.classes < 2:
            raise ConfigError("synthetic source needs n >= 1, d >= 1, classes >= 2")
        if not 0.0 <= self.separation < math.inf:
            raise ConfigError(f"separation must be finite and >= 0, got {self.separation}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class StreamConfig:
    source: Union[MnistSource, SyntheticSource]
    subsample_n: int = 21000
    tasks: int = 40
    epochs_per_task: int = 250
    batch_size: int = 256
    randomize_frac: float = 1.0  # fraction of labels redrawn each task
    base_seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.randomize_frac <= 1.0:
            raise ConfigError(f"randomize_frac must be in [0, 1], got {self.randomize_frac}")
        if self.subsample_n < 1 or self.tasks < 1 or self.epochs_per_task < 1:
            raise ConfigError("subsample_n, tasks, epochs_per_task must be >= 1")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.base_seed < 0:
            raise ConfigError(f"base_seed must be >= 0, got {self.base_seed}")


@dataclass
class RawDataset:
    images: np.ndarray  # (N, d)
    labels: np.ndarray  # (N,)
    n_classes: int


@dataclass
class BaseDataset:
    inputs: np.ndarray  # (n, d) normalized, shared across tasks
    labels: np.ndarray  # (n,) original labels
    n_classes: int
    mean: float
    std: float


# ---------------------------------------------------------------------------
# IDX ingestion


def _read_file(path: str) -> bytes:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:2] == b"\x1f\x8b":  # gzip-compressed IDX
        try:
            data = gzip.decompress(data)
        except (EOFError, gzip.BadGzipFile, zlib.error) as err:
            raise FormatError(f"{path}: corrupt gzip data ({err})") from None
    return data


def _read_idx(path: str, magic: int, kind: str, dims: tuple[str, ...]) -> np.ndarray:
    """One IDX file's items, a view of its bytes: a row per item, or a byte per
    item when ``dims`` (the names of the sizes after the item count) is empty."""
    data = _read_file(path)
    head, size = 8 + 4 * len(dims), len(data)
    if size < head:
        raise FormatError(f"{path}: truncated IDX header ({size} bytes)", offset=size)
    found, n, *sizes = struct.unpack(f">{2 + len(dims)}I", data[:head])
    if found != magic:
        raise FormatError(f"{path}: bad {kind} magic 0x{found:08x}", offset=0)
    for offset, name, dim in zip(range(8, head, 4), dims, sizes):
        if dim == 0:
            raise FormatError(f"{path}: {kind} {name} count is 0", offset=offset)
    expected = head + n * math.prod(sizes)
    if size != expected:
        raise FormatError(f"{path}: expected {expected} bytes, found {size}", offset=min(size, expected))
    items = np.frombuffer(data, dtype=np.uint8, offset=head)
    return items.reshape(n, math.prod(sizes)) if dims else items


def load_idx(images_path: str, labels_path: str) -> RawDataset:
    """Parse big-endian IDX image/label files into a raw dataset.

    Validates the magic numbers (0x00000803 images, 0x00000801 labels), the
    dimension records (an image has at least one row and one column), exact
    byte counts and that every label is a class in [0, 10); failures carry
    the offending byte offset.
    """
    images = _read_idx(images_path, IDX_IMAGES_MAGIC, "image", ("row", "column"))
    labels = _read_idx(labels_path, IDX_LABELS_MAGIC, "label", ())
    if labels.size != images.shape[0]:
        raise FormatError(f"image count {images.shape[0]} != label count {labels.size}", offset=4)
    bad = np.flatnonzero(labels >= IDX_CLASSES)
    if bad.size:
        i = int(bad[0])
        msg = f"{labels_path}: label {labels[i]} at index {i} is not below {IDX_CLASSES}"
        raise FormatError(msg, offset=8 + i)
    return RawDataset(images, labels, IDX_CLASSES)


# ---------------------------------------------------------------------------
# synthetic source


def synthesize(src: SyntheticSource) -> RawDataset:
    """Class-conditional Gaussian clusters.

    Cluster means are drawn once at scale separation / sqrt(d), so the
    expected distance between two class means is about separation * sqrt(2);
    the within-class noise is isotropic with unit variance.
    """
    rng = stream(src.seed, "synthetic")
    means = rng.normal(0.0, src.separation / math.sqrt(src.d), size=(src.classes, src.d))
    labels = rng.integers(0, src.classes, size=src.n)
    images = means[labels] + rng.normal(0.0, 1.0, size=(src.n, src.d))
    return RawDataset(images, labels, src.classes)


def load_source(cfg: StreamConfig) -> RawDataset:
    if isinstance(cfg.source, MnistSource):
        return load_idx(cfg.source.images, cfg.source.labels)
    return synthesize(cfg.source)


# ---------------------------------------------------------------------------
# preparation, task labels and batches


def prepare(raw: RawDataset, cfg: StreamConfig) -> BaseDataset:
    """Subsample once, then normalize by the scalar pixel mean/std.

    The subsample is fixed by the base seed; every task reuses the resulting
    input matrix unchanged.
    """
    n_total = raw.images.shape[0]
    if n_total == 0:
        raise ConfigError("raw dataset is empty")
    if cfg.subsample_n > n_total:
        raise ConfigError(f"subsample_n {cfg.subsample_n} exceeds dataset size {n_total}")
    rng = stream(cfg.base_seed, "subsample")
    indices = rng.choice(n_total, size=cfg.subsample_n, replace=False)
    x = raw.images[indices].astype(np.float64, copy=False)  # one copy, normalized in place
    mean = float(np.mean(x))
    std = float(np.std(x))
    if std == 0.0:
        raise ConfigError("zero pixel standard deviation; cannot normalize")
    x -= mean
    x /= std
    labels = raw.labels[indices].astype(np.int64)
    return BaseDataset(x, labels, raw.n_classes, mean, std)


def task_labels(base: BaseDataset, task_index: int, cfg: StreamConfig) -> np.ndarray:
    """Labels for one task: a seeded fraction of positions redrawn uniformly.

    Positions come from a permutation seeded by (base_seed, task_index); at
    randomize_frac = 1.0 the whole label vector is redrawn.
    """
    if task_index >= cfg.tasks:
        raise ValueError(f"task_index {task_index} out of range [0, {cfg.tasks})")
    n = base.labels.shape[0]
    rng = stream(cfg.base_seed, "labels", task_index)
    k = int(round(cfg.randomize_frac * n))
    positions = rng.permutation(n)[:k]
    labels = base.labels.copy()
    labels[positions] = rng.integers(0, base.n_classes, size=k)
    return labels


def steps_per_epoch(n: int, batch_size: int) -> int:
    return math.ceil(n / batch_size)


def batches(
    inputs: np.ndarray, labels: np.ndarray, task_index: int, epoch: int, cfg: StreamConfig
) -> Iterator[Batch]:
    """One task epoch's shuffled minibatches over the shared input matrix;
    the order is seeded by (base_seed, task_index, epoch) and the final
    partial batch is kept."""
    n = inputs.shape[0]
    order = stream(cfg.base_seed, "batches", task_index, epoch).permutation(n)
    for start in range(0, n, cfg.batch_size):
        sel = order[start : start + cfg.batch_size]
        yield Batch(inputs[sel], labels[sel])
