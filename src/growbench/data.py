"""Dataset provisioning: synthetic Gaussian tasks, IDX files, CSV, splits.

Datasets are immutable after creation: float64 feature matrices plus
int64 class labels, held as read-only views (the caller's arrays stay
writable). The Gaussian generator places class means on the corners of a
scaled simplex, which gives direct control over how hard the task is
(separation) and how much label noise there is to memorize.

The readers return fresh (features, labels) arrays, and set-up keeps one
float64 array per split and no full-size temporary:
`split_standardized` moves the train rows forward inside the pool array,
centers them in place on numpy's mean, sums their squares for numpy's std
in one `einsum` pass with no temporary (a single column goes to numpy's own
sum) and divides in place, and `standardize` applies that mean and std to
val and test. A `harness.build_datasets` call peaks near 1.07x the bytes
it returns: the pool's val rows stay allocated under the train view, and
a file's u8 bytes sit next to its float64 array. A first call in a process
also imports numpy modules, 0.6-1.1 MB traced (1.09-1.14x on IDX data).
"""

from __future__ import annotations

import csv as _csv
import math
import struct
from dataclasses import dataclass

import numpy as np

from .rng import substream

# Byte size of each chunk of train rows that set-up moves forward in place.
CHUNK_BYTES = 1 << 18

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


class IdxError(ValueError):
    """An IDX file or image/label pair that `read_idx` refuses; the message names the file."""


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray  # (N, D) float64
    labels: np.ndarray  # (N,) int64
    num_classes: int

    def __post_init__(self) -> None:
        if self.features.ndim != 2 or 0 in self.features.shape:
            raise ValueError("features must be a non-empty N x D matrix")
        if self.labels.shape != (len(self),):
            raise ValueError(f"labels have shape {self.labels.shape}, expected ({len(self)},)")
        if self.features.dtype != np.float64:
            raise ValueError(f"features have dtype {self.features.dtype}, expected float64")
        if np.isnan(self.features.min()):  # min is NaN iff some entry is; no N x D mask
            raise ValueError("features contain NaN")
        if not np.issubdtype(self.labels.dtype, np.integer):
            raise ValueError(f"labels have dtype {self.labels.dtype}, expected an integer dtype")
        if self.labels.min() < 0 or self.labels.max() >= self.num_classes:
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


def split_standardized(features: np.ndarray, labels: np.ndarray, val_fraction: float,
                       seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray,
                                           tuple[np.ndarray, np.ndarray]]:
    """Split a pool, fit the standardization on train and apply it to both, in place.

    Consumes `features`, a C-contiguous N x D array the caller made and
    reads no more. The val rows are copied out; the sorted train rows then
    move forward inside it, chunk by chunk (train_idx[i] >= i, so no row is
    overwritten before it is read), and are centered on numpy's mean and
    divided by numpy's std (0 -> 1). Returns train features (a view of
    `features`) and labels, val features and labels, and train's (mean, std).
    """
    train_idx, val_idx = _split_indices(len(labels), val_fraction, seed)
    val = features[val_idx]
    rows = max(1, CHUNK_BYTES // (8 * max(features.shape[1], 1)))
    for lo in range(0, len(train_idx), rows):
        idx = train_idx[lo:lo + rows]
        features[lo:lo + len(idx)] = features[idx]
    train = features[:len(train_idx)]
    mean = train.mean(axis=0)
    train -= mean
    # numpy sums a C-contiguous matrix down axis 0 one row after another, and einsum does the
    # same; numpy sums a single column pairwise, so that case stays numpy's own
    std = np.einsum("ij,ij->j", train, train) if train.shape[1] > 1 else np.square(train).sum(axis=0)
    std /= len(train)
    np.sqrt(std, out=std)
    std[std == 0.0] = 1.0
    train /= std
    standardize(val, mean, std)
    return train, labels[train_idx], val, labels[val_idx], (mean, std)


def standardize(x: np.ndarray, mean: np.ndarray, std: np.ndarray) -> None:
    """Write the bytes of (x - mean) / std over `x`, the caller's own."""
    x -= mean
    x /= std


def _idx_payload(path: str, magic: int,
                 size_names: tuple[str, ...]) -> tuple[list[int], np.ndarray]:
    """(sizes, u8 view of the data) of an IDX file, read once. The bytes after the header
    must number the product of the sizes, which is checked before any array is made."""
    with open(path, "rb") as f:
        blob = f.read()
    head = 4 * (1 + len(size_names))
    if len(blob) < head:
        raise IdxError(f"{path}: truncated: {len(blob)} bytes, the header needs {head}")
    got, *sizes = struct.unpack_from(f">I{len(size_names)}i", blob)
    if got != magic:
        raise IdxError(f"{path}: bad magic 0x{got:08x}, expected 0x{magic:08x}")
    for name, value in zip(size_names, sizes):
        if value < 0:
            raise IdxError(f"{path}: negative {name} {value} in the header")
    size = math.prod(sizes)
    if size != len(blob) - head:
        raise IdxError(f"{path}: {size} data bytes announced, {len(blob) - head} held")
    return sizes, np.frombuffer(blob, dtype=np.uint8, count=size, offset=head)


def read_idx(images_path: str, labels_path: str) -> tuple[np.ndarray, np.ndarray]:
    """(features, labels) of an IDX image/label pair (big-endian, u8 pixels).

    Pixels are scaled to [0, 1] and flattened row-major, so D = rows*cols.
    A header shorter than its fields, a wrong magic, a negative size, data
    shorter or longer than the header announces, image and label counts
    that differ, or images with no pixels raise an IdxError naming the file.
    """
    (count, rows, cols), pixels = _idx_payload(images_path, IDX_IMAGES_MAGIC,
                                               ("image count", "rows", "cols"))
    (label_count,), labels = _idx_payload(labels_path, IDX_LABELS_MAGIC, ("label count",))
    if count != label_count:
        raise IdxError(f"{images_path} has {count} images but {labels_path} has "
                       f"{label_count} labels")
    if pixels.size == 0:
        raise IdxError(f"{images_path}: {count} images of {rows}x{cols} pixels hold no data")
    # one pass, one N x D array: the same bytes as astype(float64) / 255
    return np.divide(pixels.reshape(count, -1), 255.0, dtype=np.float64), labels.astype(np.int64)


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
    if dataset.labels.max() > 255:
        raise ValueError(f"label {dataset.labels.max()} outside [0, 255]; not representable "
                         "as a u8 label")
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
