"""Staged feed-forward network engine with exact manual backpropagation.

Everything runs in float64; results are bit-identical for a fixed seed.
Importing this module runs numpy's OpenBLAS on one thread unless
OPENBLAS_NUM_THREADS is set, so only an explicit thread count can change
the bytes of a wide-input (K=784) matrix product. A network is a
sequence of stages; each stage is a run of blocks sharing one width.
Block kinds:

    plain:      y = relu(W x + b)            (in_width == out_width)
    residual:   y = x + relu(W x + b)        (in_width == out_width)
    downsample: y = relu(W x + b)            (first block of a stage whose
                                              width differs from the input)

A linear classifier maps the last stage's width to class logits.

A `Network` is its `ArchSpec` plus two contiguous float64 vectors:
parameters and SGD momentum. Each holds every block's weight then bias in
forward order, then the classifier's; `layers` derives each block's kind
and shape from the ArchSpec, and `Network.views` cuts the (weight, bias)
views of a vector from it.

Training takes a `Stack` only: S networks of one shape whose vectors are
the rows of (S, P) stores, with (S, out, in) weight views. The Stack also
owns the per-step scratch: the gradient store, block outputs and masks.
Every product is a batched `matmul`, which hands each (B, in) slice to the
same BLAS call as the 2-D product, and every other op acts per element or
along one row's axis, so row s computes exactly what network s would alone
and a NaN in one row cannot reach another. A lone network trains as a
stack of one, `stack_networks([net])`.
Training and evaluation share one forward pass, which writes block outputs
(and, for training, z > 0 as 1.0 / 0.0 masks) in place into workspace views.
Evaluation scores a `data.Dataset`, checked when it was made, so it checks
only that the split fits the network, and writes its logits into one buffer.

The optimizer is SGD with momentum and weight decay folded into the
momentum buffer, v <- mu*v + g + wd*theta; theta <- theta - lr*v, applied
as one chain of in-place ufuncs over the whole store. It is elementwise,
so it rounds exactly as a per-block update would.
"""

from __future__ import annotations

import ctypes
import enum
import functools
import glob
import math
import os
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from .arch import ArchSpec, StageSpec
from .data import Dataset
from .rng import substream

# OpenBLAS thread setters, newest naming first: scipy-openblas (numpy >= 2),
# then the ILP64 and LP64 names of older numpy wheels.
_BLAS_THREAD_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)


def _one_blas_thread() -> None:
    """Set the OpenBLAS bundled with numpy to one thread, unless OPENBLAS_NUM_THREADS is set.

    The matrices here are small, so a second thread only spins, and one
    fixed count gives the same bytes on any core count. Does nothing when
    numpy ships no OpenBLAS.
    """
    if "OPENBLAS_NUM_THREADS" in os.environ:
        return
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for name in _BLAS_THREAD_SETTERS:
            setter = getattr(lib, name, None)
            if setter is not None:
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                setter(1)
                return


_one_blas_thread()

# The SGD recipe and evaluation's rows per forward pass; every preset and experiment uses these.
MOMENTUM = 0.9
WEIGHT_DECAY = 1e-4
EVAL_CHUNK = 4096


class BlockKind(enum.Enum):
    PLAIN = "plain"
    RESIDUAL = "residual"
    DOWNSAMPLE = "downsample"


def layers(arch: ArchSpec) -> list[tuple[BlockKind | None, tuple[int, int]]]:
    """(kind, (out, in) weight shape) of each block in forward order, then the classifier's.

    The classifier's kind is None. A stage's first block downsamples when
    the stage's width differs from its input's.
    """
    square = BlockKind.RESIDUAL if arch.family == "res" else BlockKind.PLAIN
    out, prev = [], arch.input_dim
    for spec in arch.stages:
        for b in range(spec.blocks):
            in_w = prev if b == 0 else spec.width
            out.append((BlockKind.DOWNSAMPLE if in_w != spec.width else square, (spec.width, in_w)))
        prev = spec.width
    return out + [(None, (arch.num_classes, prev))]


def _size(shape: tuple[int, int]) -> int:
    """Weight plus bias entries of a layer."""
    return shape[0] * (shape[1] + 1)


@dataclass(eq=False)
class Network:
    """An architecture plus its parameter and momentum vectors, cut up by `views`."""

    arch: ArchSpec
    params: np.ndarray
    momentum: np.ndarray

    def views(self, flat: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """(weight, bias) views of a vector laid out like `params`, in `layers` order.

        A store of such vectors along its last axis gives views with its leading axes.
        """
        out, off = [], 0
        for _, shape in layers(self.arch):
            n = shape[0] * shape[1]
            w = flat[..., off : off + n].reshape(flat.shape[:-1] + shape)
            out.append((w, flat[..., off + n : off + _size(shape)]))
            off += _size(shape)
        return out

    def block(self, stage: int, index: int = -1) -> tuple[BlockKind, slice]:
        """Kind and weight-then-bias slice of `params` of `stage`'s block `index` (-1: its last)."""
        return _block(self.arch, stage, index)

    def insert_block(self, stage: int, weight: np.ndarray, bias: np.ndarray) -> None:
        """Append a square block with these values to `stage` and its vectors; its momentum is 0."""
        spec = self.arch.stages[stage]
        if weight.shape != (spec.width, spec.width) or bias.shape != (spec.width,):
            raise ValueError(f"block of shapes {weight.shape} and {bias.shape} does not fit "
                             f"stage {stage} of width {spec.width}")
        off = self.block(stage)[1].stop
        new = np.concatenate((weight.ravel(), bias))
        self.params = np.concatenate((self.params[:off], new, self.params[off:]))
        self.momentum = np.concatenate((self.momentum[:off], np.zeros_like(new),
                                        self.momentum[off:]))
        stages = list(self.arch.stages)
        stages[stage] = StageSpec(spec.width, spec.blocks + 1)
        self.arch = replace(self.arch, stages=tuple(stages))

    def copy(self) -> "Network":
        """An independent network with this one's vectors."""
        return Network(self.arch, self.params.copy(), self.momentum.copy())


@functools.cache  # an EMA looks its block up on every optimizer step
def _block(arch: ArchSpec, stage: int, index: int) -> tuple[BlockKind, slice]:
    counts = arch.blocks_per_stage
    k = sum(counts[:stage]) + index % counts[stage]
    shapes = layers(arch)
    off = sum(_size(shape) for _, shape in shapes[:k])
    kind, shape = shapes[k]
    return kind, slice(off, off + _size(shape))


def he_weight(rng: np.random.Generator, out_width: int, in_width: int) -> np.ndarray:
    """He-normal weight draw: std = sqrt(2 / in_width)."""
    std = math.sqrt(2.0 / in_width)
    return rng.normal(0.0, std, size=(out_width, in_width))


def build_network(arch: ArchSpec, rng_seed: int) -> Network:
    """Construct a network per `arch` with He-normal weights and zero biases.

    Deterministic for a fixed seed: parameters are drawn in stage order,
    block order, classifier last, from the "init" substream of the seed.
    """
    rng = substream(rng_seed, "init")
    params = np.concatenate([a for _, (out_w, in_w) in layers(arch)
                             for a in (he_weight(rng, out_w, in_w).ravel(), np.zeros(out_w))])
    return Network(arch, params, np.zeros_like(params))


@dataclass(eq=False)
class Stack:
    """S networks of one shape, trained as one.

    Row s of the (S, P) `params` and `momentum` stores is network s's
    vector, and row s of `grads` its last step's gradients, which the stack
    alone holds; `stack_networks` builds one. `weights` holds each block's
    and the classifier's (S, out, in) weight view, `biases` the matching
    (S, 1, out) bias views and `layer_grads` the gradients' (S, out, in) and
    (S, out) views, all in `Network.views` order.
    """

    nets: list[Network]
    params: np.ndarray
    grads: np.ndarray
    momentum: np.ndarray

    def __post_init__(self) -> None:
        net = self.nets[0]
        self.kinds = [kind for kind, _ in layers(net.arch)[:-1]]
        views = net.views(self.params)
        self.weights = [w for w, _ in views]
        self.biases = [b[:, None] for _, b in views]
        self.layer_grads = net.views(self.grads)
        self._capacity = 0

    def workspace(self, n: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Block outputs and masks for batches of up to `n` rows, kept while n fits."""
        if n > self._capacity:
            count = len(self.kinds)
            self._outs = _workspace(self, n, count)
            self._masks = _workspace(self, n, count)
            self._capacity = n
        return self._outs, self._masks


def stack_networks(nets: list[Network]) -> Stack:
    """A Stack over networks of one architecture, with a new zeroed gradient store.

    A lone network's own vectors are its row, not copied. Two or more are
    copied into new (S, P) stores, and each network's vectors become its
    rows, so an EMA reading one of its blocks and `accuracy_and_loss` read
    the values the stack trains. `insert_block` and `copy` give a network
    vectors of its own again.
    """
    if any(net.arch != nets[0].arch for net in nets[1:]):
        raise ValueError("stacked networks must share one shape")
    if len(nets) == 1:
        params, momentum = nets[0].params[None], nets[0].momentum[None]
    else:
        params = np.stack([net.params for net in nets])
        momentum = np.stack([net.momentum for net in nets])
        for net, p, v in zip(nets, params, momentum):
            net.params, net.momentum = p, v
    return Stack(nets, params, np.zeros_like(params), momentum)


def _check_batch(st: Stack, batch: np.ndarray) -> np.ndarray:
    shape = (len(st.nets), st.nets[0].arch.input_dim)
    if batch.ndim != 3 or (batch.shape[0], batch.shape[2]) != shape:
        raise ValueError(f"batch has shape {batch.shape}, expected ({shape[0]}, B, {shape[1]})")
    return np.asarray(batch, dtype=np.float64)


def _workspace(st: Stack, n: int, count: int) -> list[np.ndarray]:
    """One float64 (S, n, width) view per block, cut from one np.empty; block k uses slab k % count."""
    widths = [w.shape[1] for w in st.weights[:-1]]
    slabs = np.empty((count, len(st.nets), n * max(widths)))
    return [slabs[k % count, :, : n * w].reshape(len(st.nets), n, w) for k, w in enumerate(widths)]


def _forward(st: Stack, x: np.ndarray, outs: list[np.ndarray],
             masks: list[np.ndarray] | None = None,
             logits: np.ndarray | None = None) -> np.ndarray:
    """(S, n, C) logits of a checked batch; block k writes outs[k][:, :n] and z > 0 into masks[k].

    The logits go into `logits` when given, a new array otherwise.
    """
    n = x.shape[1]
    for k, kind in enumerate(st.kinds):
        y = outs[k][:, :n]
        np.matmul(x, st.weights[k].mT, out=y)
        y += st.biases[k]
        if masks is not None:
            np.greater(y, 0.0, out=masks[k][:, :n])
        np.maximum(y, 0.0, out=y)
        if kind is BlockKind.RESIDUAL:
            y += x
        x = y
    logits = np.matmul(x, st.weights[-1].mT, out=logits)
    logits += st.biases[-1]
    return logits


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def loss_grads_logits(st: Stack, batch: np.ndarray,
                      labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(S,) mean cross-entropy losses and the (S, B, C) logits; exact gradients go into `st.grads`.

    `batch` is (S, B, K) and `labels` (S, B): row s is network s's batch.
    The backward pass mirrors the forward block structure and stops at the
    first block's parameter gradients. The ReLU subgradient at 0 is 0.
    """
    labels, num_classes = np.asarray(labels), st.nets[0].arch.num_classes
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(f"labels outside [0, {num_classes})")
    x = _check_batch(st, batch)
    s, n = x.shape[:2]
    if labels.shape != (s, n):
        raise ValueError(f"labels have shape {labels.shape}, expected {(s, n)}")
    outs, masks = st.workspace(n)
    logits = _forward(st, x, outs, masks)

    ls = _log_softmax(logits)
    picked = np.arange(0, ls.size, ls.shape[-1]) + labels.ravel()  # flat index of each label
    losses = -ls.ravel()[picked].reshape(s, n).mean(axis=1)

    dlogits = np.exp(ls)
    dlogits.ravel()[picked] -= 1.0
    dlogits /= n

    gw, gb = st.layer_grads[-1]
    np.matmul(dlogits.mT, outs[-1][:, :n], out=gw)
    dlogits.sum(axis=1, out=gb)
    dx = dlogits @ st.weights[-1]

    for k in reversed(range(len(st.kinds))):
        gw, gb = st.layer_grads[k]
        dz = dx * masks[k][:, :n]
        np.matmul(dz.mT, outs[k - 1][:, :n] if k else x, out=gw)
        dz.sum(axis=1, out=gb)
        if k == 0:
            break
        dx = dx + dz @ st.weights[k] if st.kinds[k] is BlockKind.RESIDUAL else dz @ st.weights[k]
    return losses, logits


def sgd_step(st: Stack, lr: np.ndarray) -> None:
    """v <- MOMENTUM*v + g + WEIGHT_DECAY*theta; theta <- theta - lr*v, in place over the store.

    `lr` is an (S, 1) column, one learning rate per row; a scalar serves every row.
    """
    v = st.momentum
    v *= MOMENTUM
    v += st.grads + WEIGHT_DECAY * st.params
    st.params -= lr * v


def lr_at(lr_base: float, epoch: int, growth_done_epoch: int | None, total_epochs: int) -> float:
    """Two-phase schedule: constant while growing, cosine decay to 0 after.

    `growth_done_epoch` is the number of epochs completed when the network
    reached target size (None while still growing). The decay spans the
    remaining epochs without restart; lr_at(growth_done_epoch) == lr_base.
    """
    if growth_done_epoch is None or epoch < growth_done_epoch:
        return lr_base
    span = total_epochs - growth_done_epoch
    if span <= 0:
        return lr_base
    frac = (epoch - growth_done_epoch) / span
    return lr_base * 0.5 * (1.0 + math.cos(math.pi * frac))


def _eval_chunks(net: Network, ds: Dataset) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(logits, labels) of each EVAL_CHUNK-row chunk; one workspace and logits buffer serve all.

    EVAL_CHUNK is part of the bytes: OpenBLAS can round a row differently
    at another row count.
    """
    if ds.num_classes > net.arch.num_classes:
        raise ValueError(f"dataset has {ds.num_classes} classes, the net {net.arch.num_classes}")
    st = stack_networks([net])
    features = _check_batch(st, ds.features[None])
    rows = min(EVAL_CHUNK, len(ds))
    outs = _workspace(st, rows, 2)
    buffer = np.empty((1, rows, net.arch.num_classes))
    for i in range(0, len(ds), EVAL_CHUNK):
        x, y = features[:, i : i + EVAL_CHUNK], ds.labels[i : i + EVAL_CHUNK]
        yield _forward(st, x, outs, logits=buffer[:, : len(y)])[0], y


def accuracy(net: Network, ds: Dataset) -> float:
    """Full-pass accuracy %; argmax ties go to the lowest class."""
    correct = sum(int((np.argmax(logits, axis=1) == y).sum())
                  for logits, y in _eval_chunks(net, ds))
    return 100.0 * correct / len(ds)


def accuracy_and_loss(net: Network, ds: Dataset) -> tuple[float, float]:
    """Full-pass (accuracy %, mean cross-entropy); argmax ties go to the lowest class.

    A row's loss is log(sum(exp(shifted))) - shifted[label], with the
    logits shifted by the row max in place: the same exact subtraction as
    -_log_softmax(logits)[label] with its sign flipped, so the same bits,
    without a (rows, C) log-softmax.
    """
    correct = 0
    loss_sum = 0.0
    for logits, y in _eval_chunks(net, ds):
        rows = np.arange(len(y))
        top = np.argmax(logits, axis=1)
        correct += int((top == y).sum())
        logits -= logits[rows, top][:, None]  # the row max, as max() returns it
        picked = logits[rows, y]
        np.exp(logits, out=logits)
        loss_sum += float((np.log(logits.sum(axis=1)) - picked).sum())
    return 100.0 * correct / len(ds), loss_sum / len(ds)
