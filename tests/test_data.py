import hashlib
import re
import struct
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from growbench import data
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
    _mean_std,
    _split_indices,
    gaussian_arrays,
    read_csv,
    read_idx,
    split_standardized,
    write_idx,
)
from growbench.harness import DataConfig, build_datasets
from growbench.netcore import accuracy_and_loss, build_network, loss_grads_logits, sgd_step
from growbench.presets import preset_config
from growbench.rng import substream


# --- gaussian_arrays ----------------------------------------------------------

def test_generator_deterministic_per_seed():
    a = Dataset(*gaussian_arrays(3, 6, 50, sep=4.0, label_noise=0.1, seed=11), 3)
    b = Dataset(*gaussian_arrays(3, 6, 50, sep=4.0, label_noise=0.1, seed=11), 3)
    assert a.features.tobytes() == b.features.tobytes()
    assert a.labels.tobytes() == b.labels.tobytes()


def test_generator_class_balance_before_noise():
    ds = Dataset(*gaussian_arrays(4, 8, 25, sep=3.0, label_noise=0.0, seed=0), 4)
    counts = np.bincount(ds.labels, minlength=4)
    assert counts.tolist() == [25, 25, 25, 25]


def test_generator_simplex_distances():
    ds = Dataset(*gaussian_arrays(3, 6, 2000, sep=5.0, label_noise=0.0, seed=3), 3)
    means = np.stack([ds.features[ds.labels == k].mean(axis=0) for k in range(3)])
    for i in range(3):
        for j in range(i + 1, 3):
            assert np.linalg.norm(means[i] - means[j]) == pytest.approx(5.0, abs=0.25)


def test_label_noise_resamples_exact_fraction():
    clean = Dataset(*gaussian_arrays(5, 8, 200, sep=4.0, label_noise=0.0, seed=7), 5)
    noisy = Dataset(*gaussian_arrays(5, 8, 200, sep=4.0, label_noise=0.2, seed=7), 5)
    # noise draws from a separate stream: features are untouched
    assert clean.features.tobytes() == noisy.features.tobytes()
    k = round(0.2 * 1000)
    changed = int((clean.labels != noisy.labels).sum())
    # resampling is uniform over all classes, so ~ (K-1)/K of k actually move
    assert changed <= k
    assert changed >= int(0.6 * k * (5 - 1) / 5)


def test_generator_rejects_bad_args():
    with pytest.raises(ValueError):
        gaussian_arrays(1, 8, 10, 1.0, 0.0, 0)
    with pytest.raises(ValueError):
        gaussian_arrays(5, 3, 10, 1.0, 0.0, 0)  # dim < classes
    with pytest.raises(ValueError):
        gaussian_arrays(3, 8, 10, 1.0, 0.5, 0)


def test_separable_task_is_learnable_quickly():
    # wide separation, 2 classes: a width-8 seed net hits >99% train
    # accuracy within 50 full-batch epochs
    ds = Dataset(*gaussian_arrays(2, 8, 100, sep=10.0, label_noise=0.0, seed=5), 2)
    arch = ArchSpec("res", (StageSpec(8, 1),), input_dim=8, num_classes=2)
    net = build_network(arch, 5)
    for _ in range(50):
        loss_grads_logits(net, ds.features, ds.labels)
        sgd_step(net, lr=0.05, momentum=0.9, weight_decay=0.0)
    assert accuracy_and_loss(net, ds.features, ds.labels)[0] > 99.0


# --- split and standardization --------------------------------------------------

def test_split_counts_50000_to_500():
    train, val = _split_indices(50_000, val_fraction=0.01, seed=0)
    assert len(val) == 500
    assert len(train) == 49_500


def test_split_minimum_one_point():
    train, val = _split_indices(100, val_fraction=0.01, seed=0)
    assert len(val) == 1
    assert len(train) == 99


def test_split_partition_is_exact():
    train, val = _split_indices(120, val_fraction=0.1, seed=9)
    merged = np.concatenate([train, val])
    assert len(merged) == 120
    # every row index appears exactly once, and each part is sorted
    assert np.sort(merged).tolist() == list(range(120))
    assert (np.diff(train) > 0).all() and (np.diff(val) > 0).all()


def test_split_deterministic():
    t1, v1 = _split_indices(120, 0.05, seed=4)
    t2, v2 = _split_indices(120, 0.05, seed=4)
    assert v1.tobytes() == v2.tobytes()
    assert t1.tobytes() == t2.tobytes()
    t3, v3 = _split_indices(120, 0.05, seed=5)
    assert v1.tobytes() != v3.tobytes()


@pytest.mark.parametrize("fraction", [0.0, 1.0, -0.1, float("nan")])
def test_split_rejects_val_fraction_outside_unit_interval(fraction):
    with pytest.raises(ValueError, match=r"val_fraction must be in \(0, 1\)"):
        _split_indices(20, fraction, seed=0)


def test_mean_std_is_numpys_and_leaves_its_input_untouched():
    feats, _ = gaussian_arrays(3, 6, 300, sep=5.0, label_noise=0.1, seed=8)
    feats[:, 2] = 4.0  # a constant column: std 0 -> 1
    before = feats.tobytes()
    (mean, std), (mean2, std2) = _mean_std(feats), _mean_std(feats)
    assert feats.tobytes() == before
    assert mean.tobytes() == mean2.tobytes() == feats.mean(axis=0).tobytes()
    assert std.tobytes() == std2.tobytes()
    assert std.tobytes() == np.where(feats.std(axis=0) == 0.0, 1.0, feats.std(axis=0)).tobytes()
    assert std[2] == 1.0


def test_standardizer_centers_train_split():
    features, labels = gaussian_arrays(3, 6, 300, sep=5.0, label_noise=0.0, seed=8)
    train, *_ = split_standardized(features, labels, 0.1, seed=8)
    np.testing.assert_allclose(train.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(train.std(axis=0), 1.0, atol=1e-12)


def test_standardizer_apply_in_place_bytes():
    features, _ = gaussian_arrays(3, 6, 300, sep=5.0, label_noise=0.0, seed=8)
    tf = Standardizer(*_mean_std(features))
    out = features.copy()
    tf.apply_in_place(out)
    assert out.tobytes() == ((features - tf.mean) / tf.std).tobytes()


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
    back = Dataset(*read_idx(ip, lp), ds.num_classes)
    assert back.features.tobytes() == (pixels.astype(np.float64) / 255.0).tobytes()
    assert back.labels.tolist() == ds.labels.tolist()
    # write the reload: files must be byte-identical
    ip2, lp2 = str(tmp_path / "img2.idx"), str(tmp_path / "lab2.idx")
    write_idx(back, ip2, lp2, rows=4, cols=3)
    assert Path(ip).read_bytes() == Path(ip2).read_bytes()
    assert Path(lp).read_bytes() == Path(lp2).read_bytes()


def test_idx_shapes_from_header(tmp_path):
    ds, _ = _u8_dataset(n=10, rows=28, cols=28)
    ip, lp = str(tmp_path / "i"), str(tmp_path / "l")
    write_idx(ds, ip, lp, rows=28, cols=28)
    back = Dataset(*read_idx(ip, lp), ds.num_classes)
    assert len(back) == 10
    assert back.dim == 784


def test_idx_zero_image_row(tmp_path):
    ds, pixels = _u8_dataset(n=4)
    feats = ds.features.copy()
    feats[2] = 0.0
    ds0 = Dataset(feats, ds.labels, ds.num_classes)
    ip, lp = str(tmp_path / "i"), str(tmp_path / "l")
    write_idx(ds0, ip, lp, rows=4, cols=3)
    features, _ = read_idx(ip, lp)
    assert not features[2].any()


def test_idx_bad_magic(tmp_path):
    ds, _ = _u8_dataset()
    ip, lp = str(tmp_path / "i"), str(tmp_path / "l")
    write_idx(ds, ip, lp, rows=4, cols=3)
    blob = bytearray(Path(ip).read_bytes())
    blob[3] = 0x05
    Path(ip).write_bytes(bytes(blob))
    with pytest.raises(IdxMagicError):
        read_idx(ip, lp)


def test_idx_truncated(tmp_path):
    ds, _ = _u8_dataset()
    ip, lp = str(tmp_path / "i"), str(tmp_path / "l")
    write_idx(ds, ip, lp, rows=4, cols=3)
    blob = Path(ip).read_bytes()
    Path(ip).write_bytes(blob[:-5])
    with pytest.raises(IdxTruncatedError):
        read_idx(ip, lp)


def test_idx_count_mismatch(tmp_path):
    ds, _ = _u8_dataset(n=10)
    smaller, _ = _u8_dataset(n=6)
    ip, lp = str(tmp_path / "i"), str(tmp_path / "l")
    ip2, lp2 = str(tmp_path / "i2"), str(tmp_path / "l2")
    write_idx(ds, ip, lp, rows=4, cols=3)
    write_idx(smaller, ip2, lp2, rows=4, cols=3)
    with pytest.raises(IdxCountMismatchError):
        read_idx(ip, lp2)


@pytest.mark.parametrize("count, rows, cols, field", [
    (-1, 4, 3, "image count -1"), (2, -4, 3, "rows -4"), (2, 4, -3, "cols -3"),
    (-28, -28, -28, "image count -28"), (1, -28, -28, "rows -28"),
])
def test_idx_negative_header_field_names_the_image_file(tmp_path, count, rows, cols, field):
    ip, lp = tmp_path / "i", tmp_path / "l"
    ip.write_bytes(struct.pack(">iiii", IDX_IMAGES_MAGIC, count, rows, cols) + bytes(784))
    lp.write_bytes(struct.pack(">ii", IDX_LABELS_MAGIC, 2) + bytes(2))
    with pytest.raises(IdxError, match=f"^{re.escape(str(ip))}: negative {field} in the header$"):
        read_idx(str(ip), str(lp))


def test_idx_negative_label_count_names_the_label_file(tmp_path):
    ip, lp = tmp_path / "i", tmp_path / "l"
    ip.write_bytes(struct.pack(">iiii", IDX_IMAGES_MAGIC, 1, 2, 2) + bytes(4))
    lp.write_bytes(struct.pack(">ii", IDX_LABELS_MAGIC, -1) + bytes(1))
    with pytest.raises(IdxError, match=f"^{re.escape(str(lp))}: negative label count -1 in the header$"):
        read_idx(str(ip), str(lp))


@pytest.mark.parametrize("count, rows, cols", [(0, 4, 3), (2, 0, 3)])
def test_idx_without_data_names_the_image_file(tmp_path, count, rows, cols):
    ip, lp = tmp_path / "i", tmp_path / "l"
    ip.write_bytes(struct.pack(">iiii", IDX_IMAGES_MAGIC, count, rows, cols))
    lp.write_bytes(struct.pack(">ii", IDX_LABELS_MAGIC, count) + bytes(count))
    with pytest.raises(IdxError, match=f"^{re.escape(str(ip))}: {count} images of "
                                       f"{rows}x{cols} pixels hold no data$"):
        read_idx(str(ip), str(lp))


# --- CSV ------------------------------------------------------------------------

def test_csv_loader(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("f0,f1,label\n0.5,1.5,0\n-1.0,2.0,2\n0.0,0.0,1\n")
    features, labels = read_csv(str(p))
    assert features.shape == (3, 2)
    assert labels.tolist() == [0, 2, 1]
    # set-up takes the class count from the largest label
    cfg = DataConfig(source="csv", train_csv=str(p), test_csv=str(p), val_fraction=0.34)
    assert [ds.num_classes for ds in build_datasets(cfg)] == [3, 3, 3]
    empty = tmp_path / "e.csv"
    empty.write_text("f0,label\n")
    with pytest.raises(ValueError):
        read_csv(str(empty))


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
    cfg = DataConfig(classes=2, dim=2, per_class=6, test_per_class=2)
    for out in (ds, *build_datasets(cfg)):
        with pytest.raises(ValueError, match="read-only"):
            out.features[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            out.labels[0] = 1
    assert feats.flags.writeable and labels.flags.writeable
    feats[0, 0] = -1.0
    assert ds.features[0, 0] == -1.0


# --- build_datasets: the reference's bytes; bounded set-up memory ----------------

def _write_idx_pool(directory, name, pixels, labels, cols=1):
    ds = Dataset(pixels.astype(np.float64) / 255.0, labels, int(labels.max()) + 1)
    ip, lp = f"{directory}/{name}-images", f"{directory}/{name}-labels"
    write_idx(ds, ip, lp, rows=pixels.shape[1] // cols, cols=cols)
    return ip, lp, ds


def _write_u8_idx(tmp_path, name, n, dim, classes, seed):
    rng = np.random.default_rng(seed)
    pixels = rng.integers(0, 256, size=(n, dim), dtype=np.uint8)
    labels = rng.integers(0, classes, size=n).astype(np.int64)
    labels[0] = classes - 1
    return _write_idx_pool(tmp_path, name, pixels, labels)


def _split_fit_apply(pool, test, cfg):
    """Reference order, in numpy: split the pool, fit on train, standardize every split."""
    train_idx, val_idx = _split_indices(len(pool), cfg.val_fraction, cfg.data_seed)
    splits = [(pool.features[idx], pool.labels[idx]) for idx in (train_idx, val_idx)]
    mean, std = splits[0][0].mean(axis=0), splits[0][0].std(axis=0)
    std = np.where(std == 0.0, 1.0, std)
    return [((x - mean) / std, y) for x, y in (*splits, (test.features, test.labels))]


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
    pool = Dataset(*gaussian_arrays(3, 8, 100, 4.0, 0.1, 99), 3)
    test_seed = int(substream(99, "test-pool-seed").integers(0, 2**63))
    test = Dataset(*gaussian_arrays(3, 8, 40, 4.0, 0.1, test_seed), 3)
    _assert_same_bytes(build_datasets(cfg), _split_fit_apply(pool, test, cfg))


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


@st.composite
def _build_cases(draw):
    """A data source and a train row count one below, at or one above a multiple of `rows`."""
    source = draw(st.sampled_from(["gaussians", "idx"]))
    n_val = draw(st.sampled_from([1, 2, 5]))
    if source == "gaussians":
        classes = draw(st.integers(2, 4))
        case = dict(classes=classes, dim=draw(st.integers(classes, 10)),
                    per_class=draw(st.integers(2, 30)), test_per_class=draw(st.integers(1, 5)),
                    label_noise=draw(st.sampled_from([0.0, 0.2])), sep=4.0)
        n = classes * case["per_class"]
    else:
        n = draw(st.integers(n_val + 1, 80))
        case = dict(dim=draw(st.integers(1, 12)), classes=draw(st.integers(1, 4)),
                    const=draw(st.integers(0, 255)), n=n, n_test=draw(st.integers(1, 8)))
    n_val = min(n_val, n - 1)
    target = n - n_val - draw(st.sampled_from([-1, 0, 1]))
    rows = draw(st.sampled_from(_divisors(target))) if target >= 1 else 1
    return source, case, (n_val + 0.5) / n, draw(st.integers(0, 2**31)), rows


@settings(max_examples=60, deadline=None)
@given(_build_cases())
@example(("idx", dict(dim=1, classes=2, const=3, n=40, n_test=3), 1.5 / 40, 0, 13))
@example(("gaussians", dict(classes=3, dim=3, per_class=20, test_per_class=2, label_noise=0.0,
                            sep=4.0), 1.5 / 60, 1, 59))
def test_property_build_datasets_equals_split_fit_apply(case):
    source, params, val_fraction, seed, rows = case
    with mock.patch.object(data, "CHUNK_BYTES", rows * 8 * params["dim"]):
        _check_build_datasets(source, params, val_fraction, seed)


def _check_build_datasets(source, params, val_fraction, seed):
    if source == "gaussians":
        cfg = DataConfig(val_fraction=val_fraction, data_seed=seed, **params)
        pool = Dataset(*gaussian_arrays(cfg.classes, cfg.dim, cfg.per_class, cfg.sep,
                                        cfg.label_noise, seed), cfg.classes)
        test_seed = int(substream(seed, "test-pool-seed").integers(0, 2**63))
        test = Dataset(*gaussian_arrays(cfg.classes, cfg.dim, cfg.test_per_class, cfg.sep,
                                        cfg.label_noise, test_seed), cfg.classes)
        _assert_same_bytes(build_datasets(cfg), _split_fit_apply(pool, test, cfg))
        return
    rng = np.random.default_rng(seed)
    pixels = rng.integers(0, 256, size=(params["n"] + params["n_test"], params["dim"]),
                          dtype=np.uint8)
    if params["dim"] > 1:
        pixels[:, 0] = params["const"]  # a constant column: std 0 -> 1
    labels = rng.integers(0, params["classes"], size=len(pixels)).astype(np.int64)
    labels[0] = params["classes"] - 1
    with tempfile.TemporaryDirectory() as tmp:
        ti, tl, pool = _write_idx_pool(tmp, "train", pixels[:params["n"]], labels[:params["n"]])
        vi, vl, test = _write_idx_pool(tmp, "test", pixels[params["n"]:], labels[params["n"]:])
        cfg = DataConfig(source="idx", train_images=ti, train_labels=tl, test_images=vi,
                         test_labels=vl, val_fraction=val_fraction, data_seed=seed)
        _assert_same_bytes(build_datasets(cfg), _split_fit_apply(pool, test, cfg))


def _split_pins(splits):
    return [hashlib.sha256(ds.features.tobytes() + ds.labels.tobytes()).hexdigest()[:16]
            for ds in splits]


# First 16 hex digits of the sha256 of each split's feature then label bytes.
SPLITS_PINNED = {
    "underfit": ["d9103ef92d1b56ea", "dd1964471d5cf937", "d056ce8899b8e4c2"],
    "overfit": ["69bc96f6e237ecff", "5426f43b27a3b25e", "126a3269b6fe8471"],
    "mnist_idx": ["ff760c9be400017e", "34c9bd42b5fa4dd1", "b7d63966877cccde"],
}


@pytest.mark.parametrize("preset", ["underfit", "overfit"])
def test_preset_split_bytes_are_pinned(preset):
    assert _split_pins(build_datasets(preset_config(preset).data)) == SPLITS_PINNED[preset]


def test_mnist_shaped_idx_split_bytes_are_pinned(tmp_path):
    rng = np.random.default_rng(28)
    pixels = rng.integers(0, 256, size=(1300, 784), dtype=np.uint8)
    pixels[:, :28] = 0  # a blank top row: constant columns
    labels = rng.integers(0, 10, size=1300).astype(np.int64)
    ti, tl, _ = _write_idx_pool(tmp_path, "train", pixels[:1000], labels[:1000], cols=28)
    vi, vl, _ = _write_idx_pool(tmp_path, "test", pixels[1000:], labels[1000:], cols=28)
    cfg = DataConfig(source="idx", train_images=ti, train_labels=tl, test_images=vi,
                     test_labels=vl, val_fraction=0.05, data_seed=7)
    assert _split_pins(build_datasets(cfg)) == SPLITS_PINNED["mnist_idx"]


def test_build_datasets_peak_memory_is_bounded(tmp_path):
    # MNIST-shaped rows: the pool and the returned splits dominate. Set-up
    # keeps the train rows in the pool's array and standardizes in place,
    # so it peaks near 1.07x the returned bytes; a copy of the train rows
    # peaks near 1.5x, and holding every copy at once above 3x.
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
    assert peak <= 1.25 * returned, f"peak {peak / returned:.2f}x the returned bytes"


@pytest.mark.parametrize("body, line, message", [
    ("0.5,1.5,0\n0.5,oops,1\n", 3, "could not convert"),
    ("0.5,1.5,0\n0.5,1.5,1.0\n", 3, "invalid literal"),
    ("0.5,1.5,0\n0.5,1.5\n", 3, "2 cells, the header has 3"),
    ("0.5,1.5,0,7\n", 2, "4 cells, the header has 3"),
    ("0.5,1.5,0\n\n", 3, "0 cells, the header has 3"),
    ("0.5,1.5,0\n0.5,1.5,-1\n", 3, "negative label -1"),
    ("0.5,1.5,0\n0.5,inf,1\n", 3, "non-finite value 'inf'"),
    ("0.5,1.5,0\nnan,1.5,1\n", 3, "non-finite value 'nan'"),
    ("label\n0\n1\n", 1, "the header needs a feature column before the label"),
])
def test_csv_loader_names_path_and_line(tmp_path, body, line, message):
    p = tmp_path / "bad.csv"
    # a case that fails at the header, line 1, brings its own
    p.write_text(body if line == 1 else "f0,f1,label\n" + body)
    with pytest.raises(ValueError, match=f"^{re.escape(str(p))}:{line}: .*{message}"):
        read_csv(str(p))
