"""Dataset provisioning: synthetic Gaussian tasks, IDX files, CSV, splits.

Datasets are immutable after creation: float64 feature matrices plus
int64 class labels, held as read-only views (the caller's arrays stay
writable). The Gaussian generator places class means on the corners of a
scaled simplex, which gives direct control over how hard the task is
(separation) and how much label noise there is to memorize.

Set-up makes one float64 array per split: `load_idx` and
`Standardizer.apply` work in place on the one array they allocate, and
`harness.build_datasets` drops the pool once it is split, so set-up holds
at most the pool and its train copy (a traced peak of about 1.5x the
bytes of the splits it returns).
"""

from __future__ import annotations

import csv as _csv
import math
import struct
from dataclasses import dataclass

import numpy as np

from .rng import substream

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

    def take(self, idx: np.ndarray) -> "Dataset":
        return Dataset(self.features[idx], self.labels[idx], self.num_classes)


def gen_gaussians(num_classes: int, dim: int, per_class: int, sep: float,
                  label_noise: float, seed: int) -> Dataset:
    """Isotropic Gaussian classes with means on a scaled simplex.

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

    return Dataset(features, labels, num_classes)


def split(dataset: Dataset, val_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Deterministic shuffled (train, val) split, drawn from `seed`.

    val takes max(1, floor(val_fraction * N)) points; the two parts are
    disjoint and together cover the input exactly.
    """
    if not 0.0 < val_fraction < 1.0:
        raise ValueError(f"val_fraction must be in (0, 1), got {val_fraction}")
    n = len(dataset)
    if n < 2:
        raise ValueError("need at least 2 points to split")
    perm = substream(seed, "split").permutation(n)
    n_val = max(1, math.floor(val_fraction * n))
    val_idx = np.sort(perm[:n_val])
    train_idx = np.sort(perm[n_val:])
    return dataset.take(train_idx), dataset.take(val_idx)


@dataclass(frozen=True)
class Standardizer:
    """Per-dimension affine transform fitted on the training split."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, dataset: Dataset) -> "Standardizer":
        mean = dataset.features.mean(axis=0)
        std = dataset.features.std(axis=0)
        std = np.where(std == 0.0, 1.0, std)
        return cls(mean, std)

    def apply(self, dataset: Dataset) -> Dataset:
        feats = dataset.features - self.mean
        feats /= self.std  # in place: the same bytes as (x - mean) / std, one N x D array
        return Dataset(feats, dataset.labels, dataset.num_classes)


def _read_exact(f, count: int, path: str, what: str) -> bytes:
    data = f.read(count)
    if len(data) != count:
        raise IdxTruncatedError(f"{path}: truncated while reading {what}")
    return data


def load_idx(images_path: str, labels_path: str) -> Dataset:
    """Load an IDX image/label pair (big-endian, u8 pixels).

    Pixels are scaled to [0, 1] and flattened row-major, so D = rows*cols.
    """
    with open(images_path, "rb") as f:
        magic, count, rows, cols = struct.unpack(">iiii", _read_exact(f, 16, images_path, "header"))
        if magic != IDX_IMAGES_MAGIC:
            raise IdxMagicError(f"{images_path}: bad magic 0x{magic:08x}, expected 0x{IDX_IMAGES_MAGIC:08x}")
        raw = _read_exact(f, count * rows * cols, images_path, "pixel data")
        pixels = np.frombuffer(raw, dtype=np.uint8).reshape(count, rows * cols)
    with open(labels_path, "rb") as f:
        magic, label_count = struct.unpack(">ii", _read_exact(f, 8, labels_path, "header"))
        if magic != IDX_LABELS_MAGIC:
            raise IdxMagicError(f"{labels_path}: bad magic 0x{magic:08x}, expected 0x{IDX_LABELS_MAGIC:08x}")
        raw = _read_exact(f, label_count, labels_path, "label data")
        labels = np.frombuffer(raw, dtype=np.uint8).astype(np.int64)
    if count != label_count:
        raise IdxCountMismatchError(
            f"{images_path} has {count} images but {labels_path} has {label_count} labels"
        )
    if pixels.size == 0:
        raise IdxError(f"{images_path}: {count} images of {rows}x{cols} pixels hold no data")
    features = pixels.astype(np.float64)
    features /= 255.0  # in place: the same bytes as astype(...) / 255, one N x D array
    return Dataset(features, labels, int(labels.max()) + 1)


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


def load_csv(path: str) -> Dataset:
    """CSV with a header row; the final column is the integer class label.

    A row of the wrong width, a cell that is no number or a negative label
    names `path:line`.
    """
    features, labels = [], []
    with open(path, newline="") as f:
        reader = _csv.reader(f)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty CSV")
        for row in reader:
            where = f"{path}:{reader.line_num}"
            if len(row) != len(header):
                raise ValueError(f"{where}: {len(row)} cells, the header has {len(header)}")
            try:
                features.append([float(v) for v in row[:-1]])
                labels.append(int(row[-1]))
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from exc
            if labels[-1] < 0:
                raise ValueError(f"{where}: negative label {labels[-1]}")
    if not labels:
        raise ValueError(f"{path}: no data rows")
    labels = np.array(labels, dtype=np.int64)
    return Dataset(np.array(features, dtype=np.float64), labels, int(labels.max()) + 1)
