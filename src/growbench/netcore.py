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

Parameters, gradients and SGD momentum are one contiguous float64 vector
each, laid out in `iter_params` order; block weights and biases, the
classifier's and `Network.grad_views` are reshaped views into them.

Training runs on a `Stack`: S networks of one shape whose vectors are the
rows of (S, P) stores, with (S, out, in) weight views. Every product is a
batched `matmul`, which hands each (B, in) slice to the same BLAS call as
the 2-D product, and every other op acts per element or along one row's
axis, so row s computes exactly what network s would alone and a NaN in
one row cannot reach another. A lone network is a stack of one.
Training and evaluation share one forward pass, which writes block outputs
(and, for training, z > 0 as 1.0 / 0.0 masks) in place into workspace views.

The optimizer is SGD with momentum and weight decay folded into the
momentum buffer, v <- mu*v + g + wd*theta; theta <- theta - lr*v, applied
as one chain of in-place ufuncs over the whole store. It is elementwise,
so it rounds exactly as a per-block update would.
"""

from __future__ import annotations

import ctypes
import enum
import glob
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .arch import ArchSpec
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


class BlockKind(enum.Enum):
    PLAIN = "plain"
    RESIDUAL = "residual"
    DOWNSAMPLE = "downsample"


@dataclass(eq=False)
class Block:
    kind: BlockKind
    weight: np.ndarray  # (out_width, in_width)
    bias: np.ndarray  # (out_width,)
    # In a Network: this block's slice of Network.params, of which weight
    # and bias are views. None until the block is inserted.
    params: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.weight.ndim != 2 or self.bias.ndim != 1:
            raise ValueError("block weight must be 2-d and bias 1-d")
        if self.weight.shape[0] != self.bias.shape[0]:
            raise ValueError("bias length must match weight rows")
        if self.kind is not BlockKind.DOWNSAMPLE and self.weight.shape[0] != self.weight.shape[1]:
            raise ValueError(f"{self.kind.value} block must be square, got {self.weight.shape}")


@dataclass
class Stage:
    width: int
    blocks: list[Block]


def _split(flat: np.ndarray, shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """(weight, bias) views of one weight-then-bias slice of `flat`'s last axis."""
    n = shape[0] * shape[1]
    return flat[..., :n].reshape(flat.shape[:-1] + shape), flat[..., n:]


@dataclass(eq=False)
class Network:
    family: str  # "plain" | "res"
    input_dim: int
    num_classes: int
    stages: list[Stage]
    clf_weight: np.ndarray  # (num_classes, last_width)
    clf_bias: np.ndarray  # (num_classes,)
    params: np.ndarray = field(init=False, repr=False)
    grads: np.ndarray = field(init=False, repr=False)
    momentum: np.ndarray = field(init=False, repr=False)
    grad_views: list[tuple[np.ndarray, np.ndarray]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        """Copy the given arrays into one flat vector; grads and momentum start at 0."""
        params = np.concatenate([a.ravel() for _, w, b in self.iter_params() for a in (w, b)])
        self._bind(params, np.zeros_like(params), np.zeros_like(params))

    def _bind(self, params: np.ndarray, grads: np.ndarray, momentum: np.ndarray) -> None:
        """Make these the network's vectors and re-point every view at them."""
        self.params, self.grads, self.momentum = params, grads, momentum
        self.grad_views = self.views(grads)
        off = 0
        for blk in self.blocks():
            blk.params = params[off : off + blk.weight.size + blk.bias.size]
            blk.weight, blk.bias = _split(blk.params, blk.weight.shape)
            off += blk.params.size
        self.clf_weight, self.clf_bias = _split(params[off:], self.clf_weight.shape)

    def insert_block(self, stage: int, block: Block) -> None:
        """Reallocate with `block`'s values after `stage`'s last block; its momentum is 0."""
        off = sum(b.params.size for st in self.stages[: stage + 1] for b in st.blocks)
        new = np.concatenate((block.weight.ravel(), block.bias))
        params = np.concatenate((self.params[:off], new, self.params[off:]))
        momentum = np.concatenate((self.momentum[:off], np.zeros_like(new), self.momentum[off:]))
        self.stages[stage].blocks.append(block)
        self._bind(params, np.zeros_like(params), momentum)

    def copy(self) -> "Network":
        """An independent network with this one's parameters and momentum."""
        stages = [Stage(st.width, [Block(b.kind, b.weight, b.bias) for b in st.blocks])
                  for st in self.stages]
        net = Network(self.family, self.input_dim, self.num_classes, stages,
                      self.clf_weight, self.clf_bias)
        net.momentum[:] = self.momentum
        return net

    def blocks(self) -> list[Block]:
        """Every block in forward order."""
        return [blk for st in self.stages for blk in st.blocks]

    def views(self, flat: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """(weight, bias) views of a vector laid out like `params`, in iter_params order.

        A store of such vectors along its last axis gives views with its leading axes.
        """
        out, off = [], 0
        for _, w, b in self.iter_params():
            n = w.size + b.size
            out.append(_split(flat[..., off : off + n], w.shape))
            off += n
        return out

    def blocks_per_stage(self) -> tuple[int, ...]:
        return tuple(len(st.blocks) for st in self.stages)

    def iter_params(self):
        """Yield ((stage, block) | ("clf",), weight, bias) in canonical order."""
        for s, st in enumerate(self.stages):
            for b, blk in enumerate(st.blocks):
                yield (s, b), blk.weight, blk.bias
        yield ("clf",), self.clf_weight, self.clf_bias


def he_weight(rng: np.random.Generator, out_width: int, in_width: int) -> np.ndarray:
    """He-normal weight draw: std = sqrt(2 / in_width)."""
    std = math.sqrt(2.0 / in_width)
    return rng.normal(0.0, std, size=(out_width, in_width))


def _block_kind(family: str, is_downsample: bool) -> BlockKind:
    if is_downsample:
        return BlockKind.DOWNSAMPLE
    return BlockKind.RESIDUAL if family == "res" else BlockKind.PLAIN


def build_network(arch: ArchSpec, rng_seed: int) -> Network:
    """Construct a network per `arch` with He-normal weights and zero biases.

    Deterministic for a fixed seed: parameters are drawn in stage order,
    block order, classifier last, from the "init" substream of the seed.
    """
    rng = substream(rng_seed, "init")
    stages: list[Stage] = []
    prev_width = arch.input_dim
    for spec in arch.stages:
        blocks: list[Block] = []
        for b in range(spec.blocks):
            in_w = prev_width if b == 0 else spec.width
            is_down = b == 0 and in_w != spec.width
            kind = _block_kind(arch.family, is_down)
            w = he_weight(rng, spec.width, in_w)
            blocks.append(Block(kind, w, np.zeros(spec.width)))
        stages.append(Stage(spec.width, blocks))
        prev_width = spec.width
    clf_w = he_weight(rng, arch.num_classes, prev_width)
    clf_b = np.zeros(arch.num_classes)
    return Network(arch.family, arch.input_dim, arch.num_classes, stages, clf_w, clf_b)


@dataclass(eq=False)
class Stack:
    """S networks of one shape, trained as one.

    Row s of the (S, P) `params`, `grads` and `momentum` stores is network
    s's vector; `stack_networks` builds one. `weights` holds each block's
    and the classifier's (S, out, in) weight view, `biases` the matching
    (S, 1, out) bias views and `grad_views` the gradients' (S, out, in) and
    (S, out) views, all in `iter_params` order.
    """

    nets: list[Network]
    params: np.ndarray
    grads: np.ndarray
    momentum: np.ndarray

    def __post_init__(self) -> None:
        net = self.nets[0]
        self.kinds = [blk.kind for blk in net.blocks()]
        views = net.views(self.params)
        self.weights = [w for w, _ in views]
        self.biases = [b[:, None] for _, b in views]
        self.grad_views = net.views(self.grads)
        self._capacity = 0

    def workspace(self, n: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Block outputs and masks for batches of up to `n` rows, kept while n fits."""
        if n > self._capacity:
            count = len(self.kinds)
            self._outs = _workspace(self, n, count, np.float64)
            self._masks = _workspace(self, n, count, np.float64)
            self._capacity = n
        return self._outs, self._masks


def _layout(net: Network) -> tuple:
    return tuple((blk.kind, blk.weight.shape) for blk in net.blocks()) + (net.clf_weight.shape,)


def stack_networks(nets: list[Network]) -> Stack:
    """A Stack over same-shape networks; a lone network's own vectors are its row.

    Two or more are copied into new (S, P) stores, and each network is
    rebound to its row, so its block views, an EMA tracking one of its
    blocks and `accuracy_and_loss` read the values the stack trains.
    `insert_block` and `copy` give a network vectors of its own again.
    """
    layout = _layout(nets[0])
    if any(_layout(net) != layout for net in nets[1:]):
        raise ValueError("stacked networks must share one shape")
    if len(nets) == 1:
        net = nets[0]
        return Stack(nets, net.params[None], net.grads[None], net.momentum[None])
    params = np.stack([net.params for net in nets])
    grads = np.zeros_like(params)
    momentum = np.stack([net.momentum for net in nets])
    for net, p, g, v in zip(nets, params, grads, momentum):
        net._bind(p, g, v)
    return Stack(nets, params, grads, momentum)


def _check_batch(st: Stack, batch: np.ndarray) -> np.ndarray:
    shape = (len(st.nets), st.nets[0].input_dim)
    if batch.ndim != 3 or (batch.shape[0], batch.shape[2]) != shape:
        raise ValueError(f"batch has shape {batch.shape}, expected ({shape[0]}, B, {shape[1]})")
    return np.asarray(batch, dtype=np.float64)


def _workspace(st: Stack, n: int, count: int, dtype: type) -> list[np.ndarray]:
    """One (S x n x width) view per block, cut from one np.empty; block k uses slab k % count."""
    widths = [w.shape[1] for w in st.weights[:-1]]
    slabs = np.empty((count, len(st.nets), n * max(widths)), dtype)
    return [slabs[k % count, :, : n * w].reshape(len(st.nets), n, w) for k, w in enumerate(widths)]


def _forward(st: Stack, x: np.ndarray, outs: list[np.ndarray],
             masks: list[np.ndarray] | None = None) -> np.ndarray:
    """(S, n, C) logits of a checked batch; block k writes outs[k][:, :n] and z > 0 into masks[k]."""
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
    return x @ st.weights[-1].mT + st.biases[-1]


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _check_labels(labels: np.ndarray, num_classes: int) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(f"labels outside [0, {num_classes})")
    return labels


def loss_grads_logits(net: Network | Stack, batch: np.ndarray,
                      labels: np.ndarray) -> tuple[float | np.ndarray, np.ndarray]:
    """Mean cross-entropy loss and the logits; exact gradients go into `net.grads`.

    Given a Stack, `batch` is (S, B, K) and `labels` (S, B): row s is
    network s's batch, and the losses are an (S,) array. A Network is a
    stack of one, with a (B, K) batch and a float loss.
    The backward pass mirrors the forward block structure and stops at the
    first block's parameter gradients. The ReLU subgradient at 0 is 0.
    """
    if isinstance(net, Network):
        losses, logits = loss_grads_logits(stack_networks([net]), np.asarray(batch)[None],
                                           np.asarray(labels)[None])
        return float(losses[0]), logits[0]
    st = net
    labels = _check_labels(labels, st.nets[0].num_classes)
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

    gw, gb = st.grad_views[-1]
    np.matmul(dlogits.mT, outs[-1][:, :n], out=gw)
    dlogits.sum(axis=1, out=gb)
    dx = dlogits @ st.weights[-1]

    for k in reversed(range(len(st.kinds))):
        gw, gb = st.grad_views[k]
        dz = dx * masks[k][:, :n]
        np.matmul(dz.mT, outs[k - 1][:, :n] if k else x, out=gw)
        dz.sum(axis=1, out=gb)
        if k == 0:
            break
        dx = dx + dz @ st.weights[k] if st.kinds[k] is BlockKind.RESIDUAL else dz @ st.weights[k]
    return losses, logits


def sgd_step(net: Network | Stack, lr: float | np.ndarray, momentum: float,
             weight_decay: float) -> None:
    """v <- mu*v + g + wd*theta; theta <- theta - lr*v, in place over the whole store.

    For a Stack, `lr` may be an (S, 1) column: one learning rate per row.
    """
    v = net.momentum
    v *= momentum
    v += net.grads + weight_decay * net.params
    net.params -= lr * v


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


def accuracy_and_loss(net: Network, features: np.ndarray, labels: np.ndarray,
                      chunk: int = 4096) -> tuple[float, float]:
    """Full-pass (accuracy %, mean cross-entropy); argmax ties go to the lowest class."""
    if len(features) == 0:
        raise ValueError("evaluation of an empty dataset is undefined")
    labels = _check_labels(labels, net.num_classes)
    st = stack_networks([net])
    features = _check_batch(st, np.asarray(features)[None])
    outs = _workspace(st, min(chunk, features.shape[1]), 2, np.float64)
    correct = 0
    loss_sum = 0.0
    for i in range(0, features.shape[1], chunk):
        y = labels[i : i + chunk]
        logits = _forward(st, features[:, i : i + chunk], outs)[0]
        correct += int((np.argmax(logits, axis=1) == y).sum())
        ls = _log_softmax(logits)
        loss_sum += float(-ls[np.arange(len(y)), y].sum())
    n = features.shape[1]
    return 100.0 * correct / n, loss_sum / n
