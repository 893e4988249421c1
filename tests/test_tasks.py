import gzip
import re
import struct

import numpy as np
import pytest

from trainlab.errors import ConfigError, DegenerateDataError, FormatError
from trainlab.rng import stream
from trainlab.tasks import (
    MnistSource,
    RawDataset,
    StreamConfig,
    SyntheticSource,
    batches,
    load_idx,
    prepare,
    steps_per_epoch,
    synthesize,
    task_labels,
)


def idx_images_bytes(n=2, rows=28, cols=28, fill=None):
    header = struct.pack(">IIII", 0x00000803, n, rows, cols)
    if fill is None:
        rng = np.random.default_rng(0)
        pixels = rng.integers(0, 256, size=n * rows * cols, dtype=np.uint8).tobytes()
    else:
        pixels = bytes([fill]) * (n * rows * cols)
    return header + pixels


def idx_labels_bytes(labels):
    return struct.pack(">II", 0x00000801, len(labels)) + bytes(labels)


@pytest.fixture
def idx_pair(tmp_path):
    def write(img_bytes, lab_bytes):
        ip = tmp_path / "images.idx"
        lp = tmp_path / "labels.idx"
        ip.write_bytes(img_bytes)
        lp.write_bytes(lab_bytes)
        return str(ip), str(lp)

    return write


def synth_cfg(**kw):
    src = SyntheticSource(n=kw.pop("n", 60), d=kw.pop("d", 5), classes=kw.pop("classes", 4), seed=0)
    defaults = dict(subsample_n=40, tasks=3, epochs_per_task=2, batch_size=16, base_seed=7)
    defaults.update(kw)
    return StreamConfig(source=src, **defaults)


# ---------------------------------------------------------------------------
# IDX parsing


def test_load_idx_fixture_roundtrip(idx_pair):
    ip, lp = idx_pair(idx_images_bytes(n=2), idx_labels_bytes([3, 9]))
    raw = load_idx(ip, lp)
    assert raw.images.shape == (2, 784)
    assert raw.images.dtype == np.uint8
    np.testing.assert_array_equal(raw.labels, [3, 9])
    assert raw.n_classes == 10


def test_load_idx_gzip_transparent(idx_pair, tmp_path):
    ip = tmp_path / "images.idx.gz"
    lp = tmp_path / "labels.idx.gz"
    ip.write_bytes(gzip.compress(idx_images_bytes(n=3)))
    lp.write_bytes(gzip.compress(idx_labels_bytes([0, 1, 2])))
    raw = load_idx(str(ip), str(lp))
    assert raw.images.shape == (3, 784)


@pytest.mark.parametrize("damage", ["truncated", "flipped_byte", "bad_crc"])
def test_load_idx_corrupt_gzip_names_the_file(idx_pair, tmp_path, damage):
    _, lp = idx_pair(idx_images_bytes(n=3), idx_labels_bytes([0, 1, 2]))
    data = bytearray(gzip.compress(idx_images_bytes(n=3)))
    if damage == "truncated":
        data = data[: len(data) // 2]
    elif damage == "flipped_byte":
        data[len(data) // 2] ^= 0xFF  # inside the deflate stream
    else:
        data[-8] ^= 0x01  # the CRC-32 trailer
    bad = tmp_path / "images.gz"
    bad.write_bytes(bytes(data))
    with pytest.raises(FormatError, match=re.escape(f"{bad}: corrupt gzip data")):
        load_idx(str(bad), lp)


def test_load_idx_wrong_magic(idx_pair):
    # labels file carrying the image magic must be rejected
    bad_labels = struct.pack(">II", 0x00000803, 2) + bytes([1, 2])
    ip, lp = idx_pair(idx_images_bytes(n=2), bad_labels)
    with pytest.raises(FormatError) as exc:
        load_idx(ip, lp)
    assert exc.value.offset == 0


def test_load_idx_empty_file(idx_pair):
    ip, lp = idx_pair(b"", idx_labels_bytes([1]))
    with pytest.raises(FormatError) as exc:
        load_idx(ip, lp)
    assert exc.value.offset == 0


def test_load_idx_truncated_pixels(idx_pair):
    img = idx_images_bytes(n=2)[:-10]
    ip, lp = idx_pair(img, idx_labels_bytes([1, 2]))
    with pytest.raises(FormatError):
        load_idx(ip, lp)


def test_load_idx_count_mismatch(idx_pair):
    ip, lp = idx_pair(idx_images_bytes(n=2), idx_labels_bytes([1, 2, 3]))
    with pytest.raises(FormatError):
        load_idx(ip, lp)


def test_load_idx_bad_image_magic(idx_pair):
    img = struct.pack(">IIII", 0x00000801, 2, 28, 28) + bytes(2 * 784)
    ip, lp = idx_pair(img, idx_labels_bytes([1, 2]))
    with pytest.raises(FormatError, match="bad image magic") as exc:
        load_idx(ip, lp)
    assert exc.value.offset == 0


@pytest.mark.parametrize("rows, cols, offset", [(0, 28, 8), (28, 0, 12)], ids=["rows", "cols"])
def test_load_idx_zero_image_dimension(idx_pair, rows, cols, offset):
    """A zero row or column count is rejected at its dimension record, not
    loaded as images without pixels."""
    img = struct.pack(">IIII", 0x00000803, 300, rows, cols)
    ip, lp = idx_pair(img, idx_labels_bytes([1] * 300))
    with pytest.raises(FormatError, match="count is 0") as exc:
        load_idx(ip, lp)
    assert exc.value.offset == offset


def test_load_idx_truncated_label_header(idx_pair):
    ip, lp = idx_pair(idx_images_bytes(n=2), idx_labels_bytes([1, 2])[:5])
    with pytest.raises(FormatError, match="truncated IDX header") as exc:
        load_idx(ip, lp)
    assert exc.value.offset == 5


def test_load_idx_label_byte_count_mismatch(idx_pair):
    # the header declares 2 labels; 1 byte follows it
    ip, lp = idx_pair(idx_images_bytes(n=2), idx_labels_bytes([1, 2])[:-1])
    with pytest.raises(FormatError, match="expected 10 bytes, found 9") as exc:
        load_idx(ip, lp)
    assert exc.value.offset == 9


def test_load_idx_rejects_labels_outside_the_ten_classes(idx_pair):
    ip, lp = idx_pair(idx_images_bytes(n=4), idx_labels_bytes([9, 0, 12, 10]))
    with pytest.raises(FormatError, match="label 12 at index 2") as exc:
        load_idx(ip, lp)
    assert exc.value.offset == 8 + 2


# ---------------------------------------------------------------------------
# prepare


def test_prepare_constant_pixels_degenerate(idx_pair):
    ip, lp = idx_pair(idx_images_bytes(n=3, fill=7), idx_labels_bytes([0, 1, 2]))
    raw = load_idx(ip, lp)
    cfg = StreamConfig(source=MnistSource(ip, lp), subsample_n=3, tasks=1, epochs_per_task=1)
    with pytest.raises(DegenerateDataError):
        prepare(raw, cfg)


def test_prepare_normalizes_to_unit_stats():
    cfg = synth_cfg()
    base = prepare(synthesize(cfg.source), cfg)
    assert base.inputs.shape == (40, 5)
    assert abs(float(base.inputs.mean())) < 1e-6
    assert abs(float(base.inputs.std()) - 1.0) < 1e-6


def test_prepare_subsample_deterministic():
    cfg = synth_cfg()
    raw = synthesize(cfg.source)
    a = prepare(raw, cfg)
    b = prepare(raw, cfg)
    np.testing.assert_array_equal(a.inputs, b.inputs)


class _MadeArrays(np.ndarray):
    """An ndarray that records the shape and dtype of every array made from it."""

    made: list = []

    def __array_finalize__(self, obj):
        _MadeArrays.made.append((self.shape, self.dtype))


@pytest.mark.parametrize("dtype", [np.uint8, np.float64])
def test_prepare_normalizes_one_copy_in_place(dtype):
    """prepare makes one float64 copy of the subsample and normalizes it in
    place: the only other n x d float64 array is np.std's temporary.  The
    bits are those of (x - mean) / std."""
    src = SyntheticSource(n=300, d=5, classes=3, seed=2)
    cfg = StreamConfig(source=src, subsample_n=200, tasks=1, epochs_per_task=1)
    raw = synthesize(src)
    images = np.clip(raw.images * 20 + 128, 0, 255).astype(dtype)
    _MadeArrays.made = []
    base = prepare(RawDataset(images.view(_MadeArrays), raw.labels, raw.n_classes), cfg)
    assert _MadeArrays.made.count(((200, 5), np.dtype(np.float64))) == 2, _MadeArrays.made
    rows = stream(cfg.base_seed, "subsample").choice(src.n, cfg.subsample_n, replace=False)
    x = images[rows].astype(np.float64)
    assert np.array_equal(base.inputs, (x - base.mean) / base.std)


def test_prepare_subsample_too_large():
    cfg = synth_cfg(subsample_n=61)
    with pytest.raises(ConfigError):
        prepare(synthesize(cfg.source), cfg)


def test_prepare_rejects_an_idx_pair_of_no_images(idx_pair):
    """A well-formed IDX pair may declare 0 images; it loads as a (0, 784)
    array, and prepare refuses it."""
    ip, lp = idx_pair(idx_images_bytes(n=0), idx_labels_bytes([]))
    raw = load_idx(ip, lp)
    assert raw.images.shape == (0, 784)
    cfg = StreamConfig(source=MnistSource(ip, lp), subsample_n=1, tasks=1, epochs_per_task=1)
    with pytest.raises(ConfigError, match="empty"):
        prepare(raw, cfg)


# ---------------------------------------------------------------------------
# task labels


def test_task_labels_identity_at_zero_fraction():
    cfg = synth_cfg(randomize_frac=0.0)
    base = prepare(synthesize(cfg.source), cfg)
    np.testing.assert_array_equal(task_labels(base, 0, cfg), base.labels)


def test_task_labels_full_randomization_deterministic_and_distinct():
    cfg = synth_cfg(randomize_frac=1.0)
    base = prepare(synthesize(cfg.source), cfg)
    t0a = task_labels(base, 0, cfg)
    t0b = task_labels(base, 0, cfg)
    t1 = task_labels(base, 1, cfg)
    np.testing.assert_array_equal(t0a, t0b)
    assert np.any(t0a != t1)
    assert t0a.min() >= 0 and t0a.max() < base.n_classes


def test_task_labels_partial_fraction():
    cfg = synth_cfg(randomize_frac=0.5)
    base = prepare(synthesize(cfg.source), cfg)
    t0 = task_labels(base, 0, cfg)
    changed = np.sum(t0 != base.labels)
    # exactly half the positions were redrawn; some redraws may repeat the old label
    assert changed <= 20
    assert changed >= 10  # overwhelmingly likely with 4 classes


def test_task_labels_uniform_histogram():
    src = SyntheticSource(n=21000, d=3, classes=10, seed=1)
    cfg = StreamConfig(source=src, subsample_n=21000, tasks=2, epochs_per_task=1)
    base = prepare(synthesize(src), cfg)
    labels = task_labels(base, 0, cfg)
    counts = np.bincount(labels, minlength=10)
    n, p = 21000, 0.1
    sigma = np.sqrt(n * p * (1 - p))
    assert np.all(np.abs(counts - n * p) <= 4 * sigma)


def test_task_index_out_of_range():
    cfg = synth_cfg()
    base = prepare(synthesize(cfg.source), cfg)
    with pytest.raises(ValueError):
        task_labels(base, cfg.tasks, cfg)


# ---------------------------------------------------------------------------
# batches


def test_batches_partial_final_batch():
    cfg = synth_cfg(subsample_n=5, batch_size=2)
    base = prepare(synthesize(cfg.source), cfg)
    labels = task_labels(base, 0, cfg)
    sizes = [b.size for b in batches(base.inputs, labels, 0, 0, cfg)]
    assert sizes == [2, 2, 1]
    assert steps_per_epoch(5, 2) == 3


def test_batches_deterministic_replay():
    cfg = synth_cfg()
    base = prepare(synthesize(cfg.source), cfg)
    labels = task_labels(base, 1, cfg)
    a = [b.inputs.copy() for b in batches(base.inputs, labels, 1, 3, cfg)]
    b = [b.inputs for b in batches(base.inputs, labels, 1, 3, cfg)]
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)


def test_batches_partition_exact():
    cfg = synth_cfg(subsample_n=33, batch_size=8)
    base = prepare(synthesize(cfg.source), cfg)
    base_rows = {tuple(row) for row in base.inputs}
    seen = []
    for b in batches(base.inputs, task_labels(base, 0, cfg), 0, 0, cfg):
        seen.extend(tuple(row) for row in b.inputs)
    assert len(seen) == 33
    assert set(seen) == base_rows


def test_batches_differ_across_epochs_and_tasks():
    cfg = synth_cfg()
    base = prepare(synthesize(cfg.source), cfg)
    l0, l1 = task_labels(base, 0, cfg), task_labels(base, 1, cfg)
    e0 = next(batches(base.inputs, l0, 0, 0, cfg)).inputs
    e1 = next(batches(base.inputs, l0, 0, 1, cfg)).inputs
    t1 = next(batches(base.inputs, l1, 1, 0, cfg)).inputs
    assert not np.array_equal(e0, e1)
    assert not np.array_equal(e0, t1)


# ---------------------------------------------------------------------------
# stream invariants


def test_inputs_shared_across_tasks():
    cfg = synth_cfg()
    base = prepare(synthesize(cfg.source), cfg)
    before = base.inputs.copy()
    rows = {tuple(row) for row in before}
    for t in range(cfg.tasks):  # every task's batches are rows of the one input matrix
        for b in batches(base.inputs, task_labels(base, t, cfg), t, 0, cfg):
            assert {tuple(row) for row in b.inputs} <= rows
    np.testing.assert_array_equal(base.inputs, before)  # and no task writes to it


def test_synthetic_deterministic():
    a = synthesize(SyntheticSource(n=10, d=4, classes=3, seed=5))
    b = synthesize(SyntheticSource(n=10, d=4, classes=3, seed=5))
    np.testing.assert_array_equal(a.images, b.images)
    np.testing.assert_array_equal(a.labels, b.labels)
    c = synthesize(SyntheticSource(n=10, d=4, classes=3, seed=6))
    assert not np.array_equal(a.images, c.images)


def test_synthetic_separation_scales_cluster_distance():
    near = synthesize(SyntheticSource(n=400, d=8, classes=2, seed=3, separation=0.1))
    far = synthesize(SyntheticSource(n=400, d=8, classes=2, seed=3, separation=30.0))

    def cluster_gap(raw):
        m0 = raw.images[raw.labels == 0].mean(axis=0)
        m1 = raw.images[raw.labels == 1].mean(axis=0)
        return np.linalg.norm(m0 - m1)

    assert cluster_gap(far) > 10 * cluster_gap(near)


@pytest.mark.parametrize("separation", [-1.0, -1e-12, float("nan"), float("inf")])
def test_synthetic_separation_must_be_nonnegative(separation):
    with pytest.raises(ConfigError, match="separation"):
        SyntheticSource(separation=separation)
    assert synthesize(SyntheticSource(n=4, d=2, classes=2, separation=0.0)).images.shape == (4, 2)


def test_streams_of_large_seeds_are_not_aliased():
    """A seed is drawn from as it is: 2**63 is not seed 0."""
    assert not np.array_equal(stream(0, "init").random(4), stream(2**63, "init").random(4))


def test_negative_seeds_rejected():
    with pytest.raises(ConfigError, match="base_seed"):
        synth_cfg(base_seed=-1)
    with pytest.raises(ConfigError, match="seed"):
        SyntheticSource(seed=-1)


def test_stream_config_validation():
    with pytest.raises(ConfigError):
        synth_cfg(randomize_frac=1.5)
    with pytest.raises(ConfigError):
        synth_cfg(batch_size=0)
    with pytest.raises(ConfigError):
        SyntheticSource(n=5, d=2, classes=1)
