"""The benchmark's workloads: trainlab configs and the inputs they read.

Each workload is a key=value config, the same text a ``trainlab run
--config`` file holds, filled in from the seed the benchmark is given.  The
desk workloads copy ``configs/desk_l2.txt`` and the IDX workload copies
``configs/mnist_l2.txt``, shortened to a round of 2 tasks of a few seconds
so that one run times several rounds.  The values are kept here, not read
from ``configs/``, so that a change to a shipped config does not silently
change the benchmark.
"""

from __future__ import annotations

import gzip
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

IDX_IMAGES = "train-images-idx3-ubyte.gz"
IDX_LABELS = "train-labels-idx1-ubyte.gz"
IDX_N = 60000  # rows in the generated IDX files, as in the MNIST training set
IDX_SIDE = 28
IDX_CLASSES = 10

# Probe-heavy: configs/desk_l2.txt in scheduled mode.  The controller
# decides every 20 steps and each decision runs a full probe (per-sample
# noise and power iteration).  A round runs two seeds, because the cost of a
# probe depends on whether power iteration converges (5 HVPs) or runs out its
# 50-HVP budget, and two trajectories average that out better than one.
DESK_L2_SCHEDULED = """
mode=scheduled
seeds={seed},{seed_b}
stream.source=synthetic
stream.synthetic.n=2000
stream.synthetic.d=512
stream.synthetic.classes=100
stream.synthetic.seed={seed}
stream.subsample_n=2000
stream.tasks=2
stream.epochs_per_task=8
stream.batch_size=256
stream.randomize_frac=1.0
stream.base_seed={seed}
model.hidden_width=64
model.activation=relu
model.regularizer=l2
model.reg_lambda=1e-3
optimizer.eta=1e-3
optimizer.beta1=0.9
optimizer.beta2=0.999
log_interval=40
power_iters=50
controller.gamma=0.8
controller.cool=0.99
controller.warm=1.01
controller.window=30
controller.interval_k=20
"""

# Train-heavy: the same stream in vanilla mode with CReLU and the
# Wasserstein regularizer, one probe at the end of each task (15 epochs x 8
# steps).  The training step writes the parameters, while the probes only
# read them.  The probe's power-iteration budget is 10 instead of 50, so
# that whether it converges does not swing the round time by seed.
DESK_CRELU_W2_TRAIN = """
mode=vanilla
seeds={seed}
stream.source=synthetic
stream.synthetic.n=2000
stream.synthetic.d=512
stream.synthetic.classes=100
stream.synthetic.seed={seed}
stream.subsample_n=2000
stream.tasks=2
stream.epochs_per_task=15
stream.batch_size=256
stream.randomize_frac=1.0
stream.base_seed={seed}
model.hidden_width=64
model.activation=crelu
model.regularizer=wasserstein
model.reg_lambda=1e-3
optimizer.eta=1e-3
optimizer.beta1=0.9
optimizer.beta2=0.999
log_interval=120
power_iters=10
"""

# Memory-heavy: configs/mnist_l2.txt on gzip IDX files the benchmark writes.
# Width 256 on 784 inputs gives 203,530 parameters, and the probe
# materializes B x n_params float64 per-sample gradients (417 MB).  Two
# tasks of 5 epochs over 1024 samples are 40 steps, so a round holds exactly
# one probe; power iteration uses its whole 100-HVP budget on every seed.
IDX_WIDE_SCHEDULED = """
mode=scheduled
seeds={seed}
stream.source=mnist_idx
stream.mnist.images={data}/""" + IDX_IMAGES + """
stream.mnist.labels={data}/""" + IDX_LABELS + """
stream.subsample_n=1024
stream.tasks=2
stream.epochs_per_task=5
stream.batch_size=256
stream.randomize_frac=1.0
stream.base_seed={seed}
model.hidden_width=256
model.activation=relu
model.regularizer=l2
model.reg_lambda=1e-3
optimizer.eta=1e-3
log_interval=40
power_iters=100
controller.gamma=0.8
controller.cool=0.99
controller.warm=1.01
controller.window=30
controller.interval_k=40
"""

SECOND_SEED_OFFSET = 1_000_000  # {seed_b}: a second training seed on the same data


@dataclass(frozen=True)
class Workload:
    name: str
    config: str  # key=value text with {seed}, {seed_b} and {data} fields
    idx_inputs: bool = False  # the config reads IDX files the benchmark writes

    def config_text(self, seed: int, data_dir: Path) -> str:
        return self.config.format(seed=seed, seed_b=seed + SECOND_SEED_OFFSET, data=data_dir)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("desk_l2_scheduled", DESK_L2_SCHEDULED),
        Workload("desk_crelu_w2_train", DESK_CRELU_W2_TRAIN),
        Workload("idx_wide_scheduled", IDX_WIDE_SCHEDULED, idx_inputs=True),
    )
}


def idx_arrays(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """MNIST-shaped uint8 images and labels, fixed by ``seed``.

    Each class has a sparse mask over 30% of the pixels; an image lights a
    random 60% of its class's mask with intensities in [64, 255].  The pixel
    statistics come near MNIST's: mean 29 and std 66 of 255 with 82% of the
    pixels 0, against 33, 79 and 81%.
    """
    rng = np.random.default_rng([seed, 0x1D8])
    masks = rng.random((IDX_CLASSES, IDX_SIDE * IDX_SIDE)) < 0.3
    labels = rng.integers(0, IDX_CLASSES, size=IDX_N).astype(np.uint8)
    images = np.empty((IDX_N, IDX_SIDE * IDX_SIDE), dtype=np.uint8)
    chunk = 5000  # bounds the float temporaries to a few tens of MB
    for start in range(0, IDX_N, chunk):
        lab = labels[start : start + chunk]
        lit = masks[lab] & (rng.random((lab.size, masks.shape[1])) < 0.6)
        values = rng.integers(64, 256, size=lit.shape, dtype=np.uint8)
        images[start : start + chunk] = np.where(lit, values, 0)
    return images, labels


def write_idx(seed: int, data_dir: Path) -> None:
    """Write the seed's images and labels as gzip IDX files."""
    images, labels = idx_arrays(seed)
    data_dir.mkdir(parents=True, exist_ok=True)
    head = struct.pack(">IIII", 0x00000803, IDX_N, IDX_SIDE, IDX_SIDE)
    with gzip.open(data_dir / IDX_IMAGES, "wb", compresslevel=1) as fh:
        fh.write(head)
        fh.write(images.tobytes())
    with gzip.open(data_dir / IDX_LABELS, "wb", compresslevel=1) as fh:
        fh.write(struct.pack(">II", 0x00000801, IDX_N))
        fh.write(labels.tobytes())
