import re
import struct
import tracemalloc

import numpy as np
import pytest

from growbench.arch import ArchSpec, StageSpec
from growbench.data import (
    IDX_IMAGES_MAGIC,
    IDX_LABELS_MAGIC,
    Dataset,
    IdxCountMismatchError,
    IdxError,
    IdxMagicError,
    IdxTruncatedError,
    Standardizer,
    gen_gaussians,
    load_csv,
    load_idx,
    split,
    write_idx,
)
from growbench.harness import DataConfig, build_datasets
from growbench.netcore import accuracy_and_loss, build_network, loss_grads_logits, sgd_step
from growbench.rng import substream


# --- gen_gaussians ------------------------------------------------------------

def test_generator_deterministic_per_seed():
    a = gen_gaussians(3, 6, 50, sep=4.0, label_noise=0.1, seed=11)
    b = gen_gaussians(3, 6, 50, sep=4.0, label_noise=0.1, seed=11)
    assert a.features.tobytes() == b.features.tobytes()
    assert a.labels.tobytes() == b.labels.tobytes()


def test_generator_class_balance_before_noise():
    ds = gen_gaussians(4, 8, 25, sep=3.0, label_noise=0.0, seed=0)
    counts = np.bincount(ds.labels, minlength=4)
    assert counts.tolist() == [25, 25, 25, 25]


def test_generator_simplex_distances():
    ds = gen_gaussians(3, 6, 2000, sep=5.0, label_noise=0.0, seed=3)
    means = np.stack([ds.features[ds.labels == k].mean(axis=0) for k in range(3)])
    for i in range(3):
        for j in range(i + 1, 3):
            assert np.linalg.norm(means[i] - means[j]) == pytest.approx(5.0, abs=0.25)


def test_label_noise_resamples_exact_fraction():
    clean = gen_gaussians(5, 8, 200, sep=4.0, label_noise=0.0, seed=7)
    noisy = gen_gaussians(5, 8, 200, sep=4.0, label_noise=0.2, seed=7)
    # noise draws from a separate stream: features are untouched
    assert clean.features.tobytes() == noisy.features.tobytes()
    k = round(0.2 * 1000)
    changed = int((clean.labels != noisy.labels).sum())
    # resampling is uniform over all classes, so ~ (K-1)/K of k actually move
    assert changed <= k
    assert changed >= int(0.6 * k * (5 - 1) / 5)


def test_generator_rejects_bad_args():
    with pytest.raises(ValueError):
        gen_gaussians(1, 8, 10, 1.0, 0.0, 0)
    with pytest.raises(ValueError):
        gen_gaussians(5, 3, 10, 1.0, 0.0, 0)  # dim < classes
    with pytest.raises(ValueError):
        gen_gaussians(3, 8, 10, 1.0, 0.5, 0)


def test_separable_task_is_learnable_quickly():
    # wide separation, 2 classes: a width-8 seed net hits >99% train
    # accuracy within 50 full-batch epochs
    ds = gen_gaussians(2, 8, 100, sep=10.0, label_noise=0.0, seed=5)
    arch = ArchSpec("res", (StageSpec(8, 1),), input_dim=8, num_classes=2)
    net = build_network(arch, 5)
    for _ in range(50):
        loss_grads_logits(net, ds.features, ds.labels)
        sgd_step(net, lr=0.05, momentum=0.9, weight_decay=0.0)
    assert accuracy_and_loss(net, ds.features, ds.labels)[0] > 99.0


# --- split ----------------------------------------------------------------------

def test_split_counts_50000_to_500():
    ds = gen_gaussians(2, 4, 25_000, sep=3.0, label_noise=0.0, seed=1)
    train, val = split(ds, val_fraction=0.01, seed=0)
    assert len(val) == 500
    assert len(train) == 49_500


def test_split_minimum_one_point():
    ds = gen_gaussians(2, 4, 50, sep=3.0, label_noise=0.0, seed=1)
    train, val = split(ds, val_fraction=0.01, seed=0)
    assert len(val) == 1
    assert len(train) == 99


def test_split_partition_is_exact():
    ds = gen_gaussians(3, 4, 40, sep=3.0, label_noise=0.0, seed=2)
    train, val = split(ds, val_fraction=0.1, seed=9)
    merged = np.vstack([train.features, val.features])
    assert len(merged) == len(ds)
    # row-level partition: every original row appears exactly once
    orig = {row.tobytes() for row in ds.features}
    got = [row.tobytes() for row in merged]
    assert len(set(got)) == len(got)
    assert set(got) == orig


def test_split_deterministic():
    ds = gen_gaussians(3, 4, 40, sep=3.0, label_noise=0.0, seed=2)
    t1, v1 = split(ds, 0.05, seed=4)
    t2, v2 = split(ds, 0.05, seed=4)
    assert v1.features.tobytes() == v2.features.tobytes()
    t3, v3 = split(ds, 0.05, seed=5)
    assert v1.features.tobytes() != v3.features.tobytes()


@pytest.mark.parametrize("fraction", [0.0, 1.0, -0.1, float("nan")])
def test_split_rejects_val_fraction_outside_unit_interval(fraction):
    ds = gen_gaussians(2, 4, 10, sep=3.0, label_noise=0.0, seed=1)
    with pytest.raises(ValueError, match=r"val_fraction must be in \(0, 1\)"):
        split(ds, fraction, seed=0)


def test_standardizer_centers_train_split():
    ds = gen_gaussians(3, 6, 300, sep=5.0, label_noise=0.0, seed=8)
    tf = Standardizer.fit(ds)
    out = tf.apply(ds)
    np.testing.assert_allclose(out.features.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(out.features.std(axis=0), 1.0, atol=1e-12)


def test_standardizer_apply_bytes_and_input_untouched():
    ds = gen_gaussians(3, 6, 300, sep=5.0, label_noise=0.0, seed=8)
    before = ds.features.tobytes()
    tf = Standardizer.fit(ds)
    out = tf.apply(ds)
    assert out.features.tobytes() == ((ds.features - tf.mean) / tf.std).tobytes()
    assert ds.features.tobytes() == before


# --- IDX ------------------------------------------------------------------------

def _u8_dataset(n=10, rows=4, cols=3, classes=4, seed=0):
    rng = np.random.default_rng(seed)
    pixels = rng.integers(0, 256, size=(n, rows * cols), dtype=np.uint8)
    labels = rng.integers(0, classes, size=n).astype(np.int64)
    labels[0] = classes - 1  # pin num_classes
    return Dataset(pixels.astype(np.float64) / 255.0, labels, classes), pixels


def test_idx_round_trip_bit_exact(tmp_path):
    ds, pixels = _u8_dataset()
    ip, lp = str(tmp_path / "img.idx"), str(tmp_path / "lab.idx")
    write_idx(ds, ip, lp, rows=4, cols=3)
    back = load_idx(ip, lp)
    assert back.features.tobytes() == (pixels.astype(np.float64) / 255.0).tobytes()
    assert back.labels.tolist() == ds.labels.tolist()
    # write the reload: files must be byte-identical
    ip2, lp2 = str(tmp_path / "img2.idx"), str(tmp_path / "lab2.idx")
    write_idx(back, ip2, lp2, rows=4, cols=3)
    assert open(ip, "rb").read() == open(ip2, "rb").read()
    assert open(lp, "rb").read() == open(lp2, "rb").read()


def test_idx_shapes_from_header(tmp_path):
    ds, _ = _u8_dataset(n=10, rows=28, cols=28)
    ip, lp = str(tmp_path / "i"), str(tmp_path / "l")
    write_idx(ds, ip, lp, rows=28, cols=28)
    back = load_idx(ip, lp)
    assert len(back) == 10
    assert back.dim == 784


def test_idx_zero_image_row(tmp_path):
    ds, pixels = _u8_dataset(n=4)
    feats = ds.features.copy()
    feats[2] = 0.0
    ds0 = Dataset(feats, ds.labels, ds.num_classes)
    ip, lp = str(tmp_path / "i"), str(tmp_path / "l")
    write_idx(ds0, ip, lp, rows=4, cols=3)
    back = load_idx(ip, lp)
    assert not back.features[2].any()


def test_idx_bad_magic(tmp_path):
    ds, _ = _u8_dataset()
    ip, lp = str(tmp_path / "i"), str(tmp_path / "l")
    write_idx(ds, ip, lp, rows=4, cols=3)
    blob = bytearray(open(ip, "rb").read())
    blob[3] = 0x05
    open(ip, "wb").write(bytes(blob))
    with pytest.raises(IdxMagicError):
        load_idx(ip, lp)


def test_idx_truncated(tmp_path):
    ds, _ = _u8_dataset()
    ip, lp = str(tmp_path / "i"), str(tmp_path / "l")
    write_idx(ds, ip, lp, rows=4, cols=3)
    blob = open(ip, "rb").read()
    open(ip, "wb").write(blob[:-5])
    with pytest.raises(IdxTruncatedError):
        load_idx(ip, lp)


def test_idx_count_mismatch(tmp_path):
    ds, _ = _u8_dataset(n=10)
    smaller, _ = _u8_dataset(n=6)
    ip, lp = str(tmp_path / "i"), str(tmp_path / "l")
    ip2, lp2 = str(tmp_path / "i2"), str(tmp_path / "l2")
    write_idx(ds, ip, lp, rows=4, cols=3)
    write_idx(smaller, ip2, lp2, rows=4, cols=3)
    with pytest.raises(IdxCountMismatchError):
        load_idx(ip, lp2)


@pytest.mark.parametrize("count, rows, cols", [(0, 4, 3), (2, 0, 3)])
def test_idx_without_data_names_the_image_file(tmp_path, count, rows, cols):
    ip, lp = tmp_path / "i", tmp_path / "l"
    ip.write_bytes(struct.pack(">iiii", IDX_IMAGES_MAGIC, count, rows, cols))
    lp.write_bytes(struct.pack(">ii", IDX_LABELS_MAGIC, count) + bytes(count))
    with pytest.raises(IdxError, match=f"^{re.escape(str(ip))}: {count} images of "
                                       f"{rows}x{cols} pixels hold no data$"):
        load_idx(str(ip), str(lp))


# --- CSV ------------------------------------------------------------------------

def test_csv_loader(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("f0,f1,label\n0.5,1.5,0\n-1.0,2.0,2\n0.0,0.0,1\n")
    ds = load_csv(str(p))
    assert ds.num_classes == 3
    assert ds.features.shape == (3, 2)
    assert ds.labels.tolist() == [0, 2, 1]
    empty = tmp_path / "e.csv"
    empty.write_text("f0,label\n")
    with pytest.raises(ValueError):
        load_csv(str(empty))


# --- Dataset validation -----------------------------------------------------------

def test_dataset_rejects_nan_and_bad_labels():
    with pytest.raises(ValueError, match="features contain NaN"):
        Dataset(np.array([[np.nan, 0.0]]), np.array([0]), 2)
    with pytest.raises(ValueError, match="features contain NaN"):
        Dataset(np.array([[0.0, -np.inf], [1.0, np.nan]]), np.array([0, 1]), 2)
    with pytest.raises(ValueError, match=r"labels outside \[0, 2\)"):
        Dataset(np.zeros((2, 2)), np.array([0, 5]), 2)
    with pytest.raises(ValueError, match="non-empty N x D"):
        Dataset(np.zeros((0, 2)), np.zeros(0, dtype=np.int64), 2)
    with pytest.raises(ValueError, match="non-empty N x D"):
        Dataset(np.zeros((2, 0)), np.array([0, 1]), 2)


def test_splits_are_read_only_views_of_the_callers_arrays():
    feats = np.arange(12, dtype=np.float64).reshape(6, 2)
    labels = np.array([0, 1, 0, 1, 0, 1])
    ds = Dataset(feats, labels, 2)
    assert np.shares_memory(ds.features, feats) and np.shares_memory(ds.labels, labels)
    tf = Standardizer.fit(ds)
    for out in (ds, ds.take(np.array([0, 3])), tf.apply(ds), *split(ds, 0.5, seed=0)):
        with pytest.raises(ValueError, match="read-only"):
            out.features[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            out.labels[0] = 1
    assert feats.flags.writeable and labels.flags.writeable
    feats[0, 0] = -1.0
    assert ds.features[0, 0] == -1.0


# --- build_datasets: same bytes as split, fit, apply; bounded set-up memory ------

def _write_u8_idx(tmp_path, name, n, dim, classes, seed):
    rng = np.random.default_rng(seed)
    pixels = rng.integers(0, 256, size=(n, dim), dtype=np.uint8)
    labels = rng.integers(0, classes, size=n).astype(np.int64)
    labels[0] = classes - 1
    ds = Dataset(pixels.astype(np.float64) / 255.0, labels, classes)
    ip, lp = str(tmp_path / f"{name}-images"), str(tmp_path / f"{name}-labels")
    write_idx(ds, ip, lp, rows=dim, cols=1)
    return ip, lp, ds


def _split_fit_apply(pool, test, cfg):
    """Reference order: split the pool, fit on train, standardize every split."""
    train, val = split(pool, cfg.val_fraction, cfg.data_seed)
    mean, std = train.features.mean(axis=0), train.features.std(axis=0)
    std = np.where(std == 0.0, 1.0, std)
    return [((ds.features - mean) / std, ds.labels) for ds in (train, val, test)]


def _assert_same_bytes(got, want):
    for ds, (features, labels) in zip(got, want, strict=True):
        assert ds.features.tobytes() == features.tobytes()
        assert ds.labels.tobytes() == labels.tobytes()


def test_build_datasets_idx_bytes_match_split_fit_apply(tmp_path):
    ti, tl, pool = _write_u8_idx(tmp_path, "train", 300, 12, 4, seed=1)
    vi, vl, test = _write_u8_idx(tmp_path, "test", 80, 12, 4, seed=2)
    cfg = DataConfig(source="idx", train_images=ti, train_labels=tl, test_images=vi,
                     test_labels=vl, val_fraction=0.1, data_seed=5)
    _assert_same_bytes(build_datasets(cfg), _split_fit_apply(pool, test, cfg))


def test_build_datasets_gaussians_bytes_match_split_fit_apply():
    cfg = DataConfig(classes=3, dim=8, per_class=100, test_per_class=40, sep=4.0,
                     label_noise=0.1, data_seed=99, val_fraction=0.05)
    pool = gen_gaussians(3, 8, 100, 4.0, 0.1, 99)
    test_seed = int(substream(99, "test-pool-seed").integers(0, 2**63))
    test = gen_gaussians(3, 8, 40, 4.0, 0.1, test_seed)
    _assert_same_bytes(build_datasets(cfg), _split_fit_apply(pool, test, cfg))


def test_build_datasets_peak_memory_is_bounded(tmp_path):
    # MNIST-shaped rows: the pool, its train copy and the returned splits
    # dominate. Holding them all at once, as a naive set-up does, peaks
    # above 3x the returned bytes.
    ti, tl, _ = _write_u8_idx(tmp_path, "train", 2000, 784, 10, seed=1)
    vi, vl, _ = _write_u8_idx(tmp_path, "test", 500, 784, 10, seed=2)
    cfg = DataConfig(source="idx", train_images=ti, train_labels=tl, test_images=vi,
                     test_labels=vl, val_fraction=0.05)
    tracemalloc.start()
    try:
        out = build_datasets(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    returned = sum(ds.features.nbytes + ds.labels.nbytes for ds in out)
    assert peak <= 1.75 * returned, f"peak {peak / returned:.2f}x the returned bytes"


@pytest.mark.parametrize("body, line, message", [
    ("0.5,1.5,0\n0.5,oops,1\n", 3, "could not convert"),
    ("0.5,1.5,0\n0.5,1.5,1.0\n", 3, "invalid literal"),
    ("0.5,1.5,0\n0.5,1.5\n", 3, "2 cells, the header has 3"),
    ("0.5,1.5,0,7\n", 2, "4 cells, the header has 3"),
    ("0.5,1.5,0\n\n", 3, "0 cells, the header has 3"),
    ("0.5,1.5,0\n0.5,1.5,-1\n", 3, "negative label -1"),
])
def test_csv_loader_names_path_and_line(tmp_path, body, line, message):
    p = tmp_path / "bad.csv"
    p.write_text("f0,f1,label\n" + body)
    with pytest.raises(ValueError, match=f"^{re.escape(str(p))}:{line}: .*{message}"):
        load_csv(str(p))
