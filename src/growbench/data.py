"""Dataset provisioning: synthetic Gaussian tasks, IDX files, CSV, splits.

Datasets are immutable after creation: float64 feature matrices plus
int64 class labels, held as read-only views (the caller's arrays stay
writable). The Gaussian generator places class means on the corners of a
scaled simplex, which gives direct control over how hard the task is
(separation) and how much label noise there is to memorize.

The readers return fresh (features, labels) arrays, and set-up keeps one
float64 array per split and no full-size temporary:
`split_standardized` moves the train rows forward inside the pool array,
takes numpy's mean and std bytes through one buffer of `CHUNK_BYTES`, and
standardizes in place. A `harness.build_datasets` call peaks at about
1.07x the bytes of the splits it returns (traced, on MNIST-shaped IDX
data and on both presets).
"""

from __future__ import annotations

import csv as _csv
import math
import struct
from dataclasses import dataclass

import numpy as np

from .rng import substream

# Byte size of the one buffer that set-up's chunked passes go through.
CHUNK_BYTES = 1 << 18

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


class IdxError(ValueError):
    """Base class for IDX format problems."""


class IdxMagicError(IdxError):
    """File does not start with the expected IDX magic number."""


class IdxTruncatedError(IdxError):
    """File ends before the payload announced in its header."""


class IdxCountMismatchError(IdxError):
    """Image and label files disagree on the number of items."""


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray  # (N, D) float64
    labels: np.ndarray  # (N,) int64
    num_classes: int

    def __post_init__(self) -> None:
        if self.features.ndim != 2 or 0 in self.features.shape:
            raise ValueError("features must be a non-empty N x D matrix")
        if len(self.labels) != len(self.features):
            raise ValueError("labels and features disagree on N")
        if np.isnan(self.features.min()):  # min is NaN iff some entry is; no N x D mask
            raise ValueError("features contain NaN")
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ValueError(f"labels outside [0, {self.num_classes})")
        for name in ("features", "labels"):
            view = getattr(self, name).view()  # the caller's array stays writable
            view.flags.writeable = False
            object.__setattr__(self, name, view)

    def __len__(self) -> int:
        return len(self.features)

    @property
    def dim(self) -> int:
        return self.features.shape[1]


def gaussian_arrays(num_classes: int, dim: int, per_class: int, sep: float,
                    label_noise: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(features, labels) of isotropic Gaussian classes with means on a scaled simplex.

    Means sit at (sep / sqrt(2)) * e_k, so every pair of class means is
    exactly `sep` apart (requires dim >= num_classes). Features add unit
    Gaussian noise. A `label_noise` fraction of points (rounded) gets its
    label resampled uniformly over all classes, which leaves about
    label_noise * (K-1)/K of the points mislabeled.

    Deterministic per seed; the noise draw uses its own substream, so
    changing label_noise never perturbs the features.
    """
    if num_classes < 2:
        raise ValueError("need at least 2 classes")
    if dim < num_classes:
        raise ValueError(f"simplex means need dim >= num_classes ({dim} < {num_classes})")
    if per_class < 1:
        raise ValueError("per_class must be positive")
    if not 0.0 <= label_noise < 0.5:
        raise ValueError(f"label_noise must be in [0, 0.5), got {label_noise}")

    n = num_classes * per_class
    scale = sep / math.sqrt(2.0)
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), per_class)
    feat_rng = substream(seed, "gaussian-features")
    features = feat_rng.normal(0.0, 1.0, size=(n, dim))
    features[np.arange(n), labels] += scale

    if label_noise > 0.0:
        noise_rng = substream(seed, "gaussian-labelnoise")
        k = int(round(label_noise * n))
        idx = noise_rng.choice(n, size=k, replace=False)
        labels = labels.copy()
        labels[idx] = noise_rng.integers(0, num_classes, size=k)
    return features, labels


def _split_indices(n: int, val_fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted (train, val) row indices of a deterministic shuffled split, drawn from `seed`.

    val takes max(1, floor(val_fraction * n)) rows; the two parts are
    disjoint and together cover range(n) exactly.
    """
    if not 0.0 < val_fraction < 1.0:
        raise ValueError(f"val_fraction must be in (0, 1), got {val_fraction}")
    if n < 2:
        raise ValueError("need at least 2 points to split")
    perm = substream(seed, "split").permutation(n)
    n_val = max(1, math.floor(val_fraction * n))
    return np.sort(perm[n_val:]), np.sort(perm[:n_val])


def _chunk_rows(dim: int) -> int:
    return max(1, CHUNK_BYTES // (8 * max(dim, 1)))


def split_standardized(features: np.ndarray, labels: np.ndarray, val_fraction: float,
                       seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray,
                                           Standardizer]:
    """Split a pool, fit the standardization on train and apply it to both, in place.

    Consumes `features`, a C-contiguous N x D array the caller made and
    reads no more. The val rows are copied out; the sorted train rows then
    move forward inside it, chunk by chunk (train_idx[i] >= i, so no row is
    overwritten before it is read). Returns train features (a view of
    `features`) and labels, val features and labels, and the Standardizer.
    """
    train_idx, val_idx = _split_indices(len(labels), val_fraction, seed)
    val = features[val_idx]
    rows = _chunk_rows(features.shape[1])
    for lo in range(0, len(train_idx), rows):
        idx = train_idx[lo:lo + rows]
        features[lo:lo + len(idx)] = features[idx]
    train = features[:len(train_idx)]
    tf = Standardizer(*_mean_std(train))
    tf.apply_in_place(train)
    tf.apply_in_place(val)
    return train, labels[train_idx], val, labels[val_idx], tf


def _mean_std(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x.mean(axis=0) and x.std(axis=0), with std 0 -> 1, through one chunk buffer.

    `x` is C-contiguous, and numpy sums such a matrix down axis 0 row after
    row, so chaining each chunk's column sums with the running sum as the
    chunk's first row gives numpy's own bytes. A single column, which numpy
    sums pairwise, goes to numpy whole.
    """
    n, dim = x.shape
    if dim == 1:
        mean, std = x.mean(axis=0), x.std(axis=0)
    else:
        rows = _chunk_rows(dim)
        buf = np.empty((min(rows, n) + 1, dim))
        mean = _column_sums(x, buf, rows, np.copyto)
        mean /= n
        std = _column_sums(x, buf, rows, lambda out, chunk: np.square(
            np.subtract(chunk, mean, out=out), out=out))
        std /= n
        np.sqrt(std, out=std)
    return mean, np.where(std == 0.0, 1.0, std)


def _column_sums(x: np.ndarray, buf: np.ndarray, rows: int, fill) -> np.ndarray:
    """Column sums of fill(x) in numpy's row order, `rows` rows at a time.

    fill(out, chunk) writes each chunk's transform into buf[1:], and buf[0]
    carries the running sum from the second chunk on.
    """
    first = 1
    for lo in range(0, len(x), rows):
        m = min(rows, len(x) - lo)
        fill(buf[1:m + 1], x[lo:lo + m])
        buf[0] = buf[first:m + 1].sum(axis=0)
        first = 0
    return buf[0].copy()


@dataclass(frozen=True)
class Standardizer:
    """Per-dimension affine transform fitted on the training split."""

    mean: np.ndarray
    std: np.ndarray

    def apply_in_place(self, features: np.ndarray) -> None:
        """The bytes of (features - mean) / std, written over `features`, the caller's own."""
        features -= self.mean
        features /= self.std


def _read_exact(f, count: int, path: str, what: str) -> bytes:
    data = f.read(count)
    if len(data) != count:
        raise IdxTruncatedError(f"{path}: truncated while reading {what}")
    return data


def read_idx(images_path: str, labels_path: str) -> tuple[np.ndarray, np.ndarray]:
    """(features, labels) of an IDX image/label pair (big-endian, u8 pixels).

    Pixels are scaled to [0, 1] and flattened row-major, so D = rows*cols.
    A header whose count, rows or cols is negative, or that announces no
    pixels, raises an IdxError naming the file.
    """
    with open(images_path, "rb") as f:
        magic, count, rows, cols = struct.unpack(">iiii", _read_exact(f, 16, images_path, "header"))
        if magic != IDX_IMAGES_MAGIC:
            raise IdxMagicError(f"{images_path}: bad magic 0x{magic:08x}, expected 0x{IDX_IMAGES_MAGIC:08x}")
        for name, value in (("image count", count), ("rows", rows), ("cols", cols)):
            if value < 0:
                raise IdxError(f"{images_path}: negative {name} {value} in the header")
        raw = _read_exact(f, count * rows * cols, images_path, "pixel data")
        pixels = np.frombuffer(raw, dtype=np.uint8).reshape(count, rows * cols)
    with open(labels_path, "rb") as f:
        magic, label_count = struct.unpack(">ii", _read_exact(f, 8, labels_path, "header"))
        if magic != IDX_LABELS_MAGIC:
            raise IdxMagicError(f"{labels_path}: bad magic 0x{magic:08x}, expected 0x{IDX_LABELS_MAGIC:08x}")
        if label_count < 0:
            raise IdxError(f"{labels_path}: negative label count {label_count} in the header")
        raw = _read_exact(f, label_count, labels_path, "label data")
        labels = np.frombuffer(raw, dtype=np.uint8).astype(np.int64)
    if count != label_count:
        raise IdxCountMismatchError(
            f"{images_path} has {count} images but {labels_path} has {label_count} labels"
        )
    if pixels.size == 0:
        raise IdxError(f"{images_path}: {count} images of {rows}x{cols} pixels hold no data")
    # one pass, one N x D array: the same bytes as astype(float64) / 255
    return np.divide(pixels, 255.0, dtype=np.float64), labels


def write_idx(dataset: Dataset, images_path: str, labels_path: str,
              rows: int, cols: int) -> None:
    """Write a dataset whose features live on the u8/255 grid back to IDX.

    Exists for tests and tooling; round-trips IDX-loaded data bit-exactly.
    """
    if rows * cols != dataset.dim:
        raise ValueError(f"rows*cols = {rows * cols} does not match dim {dataset.dim}")
    pixels = np.rint(dataset.features * 255.0)
    if pixels.min() < 0 or pixels.max() > 255:
        raise ValueError("features outside [0, 1]; not representable as u8 pixels")
    with open(images_path, "wb") as f:
        f.write(struct.pack(">iiii", IDX_IMAGES_MAGIC, len(dataset), rows, cols))
        f.write(pixels.astype(np.uint8).tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">ii", IDX_LABELS_MAGIC, len(dataset)))
        f.write(dataset.labels.astype(np.uint8).tobytes())


def read_csv(path: str) -> tuple[np.ndarray, np.ndarray]:
    """(features, labels) of a CSV file with a header row; the final column is the label.

    A header with no feature column, a row of the wrong width, a cell that
    is no finite number or a negative label names `path:line`.
    """
    features, labels = [], []
    with open(path, newline="") as f:
        reader = _csv.reader(f)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty CSV")
        if len(header) < 2:
            raise ValueError(f"{path}:1: the header needs a feature column before the label")
        for row in reader:
            where = f"{path}:{reader.line_num}"
            if len(row) != len(header):
                raise ValueError(f"{where}: {len(row)} cells, the header has {len(header)}")
            try:
                features.append([float(v) for v in row[:-1]])
                labels.append(int(row[-1]))
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from exc
            if not all(map(math.isfinite, features[-1])):
                cell = next(v for v, x in zip(row, features[-1]) if not math.isfinite(x))
                raise ValueError(f"{where}: non-finite value {cell.strip()!r}")
            if labels[-1] < 0:
                raise ValueError(f"{where}: negative label {labels[-1]}")
    if not labels:
        raise ValueError(f"{path}: no data rows")
    return np.array(features, dtype=np.float64), np.array(labels, dtype=np.int64)
