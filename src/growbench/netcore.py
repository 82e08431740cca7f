"""Staged feed-forward network engine with exact manual backpropagation.

Everything runs in float64; results are bit-identical for a fixed seed
and BLAS thread count (matrix products with a wide inner dimension can
round differently at another thread count). A network is a sequence of
stages; each stage is a run of blocks sharing one width. Block kinds:

    plain:      y = relu(W x + b)            (in_width == out_width)
    residual:   y = x + relu(W x + b)        (in_width == out_width)
    downsample: y = relu(W x + b)            (first block of a stage whose
                                              width differs from the input)

A linear classifier maps the last stage's width to class logits. The
optimizer is SGD with momentum and weight decay folded into the momentum
buffer: v <- mu*v + g + wd*theta; theta <- theta - lr*v.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .arch import ArchSpec
from .rng import substream


class BlockKind(enum.Enum):
    PLAIN = "plain"
    RESIDUAL = "residual"
    DOWNSAMPLE = "downsample"


@dataclass
class Block:
    kind: BlockKind
    weight: np.ndarray  # (out_width, in_width)
    bias: np.ndarray  # (out_width,)

    def __post_init__(self) -> None:
        if self.weight.ndim != 2 or self.bias.ndim != 1:
            raise ValueError("block weight must be 2-d and bias 1-d")
        if self.weight.shape[0] != self.bias.shape[0]:
            raise ValueError("bias length must match weight rows")
        if self.kind is not BlockKind.DOWNSAMPLE and self.weight.shape[0] != self.weight.shape[1]:
            raise ValueError(f"{self.kind.value} block must be square, got {self.weight.shape}")

    @property
    def in_width(self) -> int:
        return self.weight.shape[1]

    @property
    def out_width(self) -> int:
        return self.weight.shape[0]


@dataclass
class Stage:
    width: int
    blocks: list[Block]


@dataclass
class ParamPair:
    """A (weight, bias) pair of arrays; used for gradients and momentum."""

    weight: np.ndarray
    bias: np.ndarray

    @classmethod
    def zeros_like(cls, weight: np.ndarray, bias: np.ndarray) -> "ParamPair":
        return cls(np.zeros_like(weight), np.zeros_like(bias))


@dataclass
class GradSet:
    stages: list[list[ParamPair]]
    classifier: ParamPair


@dataclass
class Network:
    family: str  # "plain" | "res"
    input_dim: int
    num_classes: int
    stages: list[Stage]
    clf_weight: np.ndarray  # (num_classes, last_width)
    clf_bias: np.ndarray  # (num_classes,)

    def blocks_per_stage(self) -> tuple[int, ...]:
        return tuple(len(st.blocks) for st in self.stages)

    def arch_spec(self) -> ArchSpec:
        """Reconstruct the static descriptor of the live network."""
        from .arch import StageSpec

        stages = tuple(StageSpec(st.width, len(st.blocks)) for st in self.stages)
        return ArchSpec(self.family, stages, self.input_dim, self.num_classes)

    def iter_params(self):
        """Yield ((stage, block) | ("clf",), weight, bias) in canonical order."""
        for s, st in enumerate(self.stages):
            for b, blk in enumerate(st.blocks):
                yield (s, b), blk.weight, blk.bias
            # classifier last
        yield ("clf",), self.clf_weight, self.clf_bias


@dataclass
class OptState:
    """SGD-with-momentum state mirroring the network's parameter tree."""

    momentum: float
    weight_decay: float
    stages: list[list[ParamPair]] = field(default_factory=list)
    classifier: ParamPair | None = None

    @classmethod
    def for_network(cls, net: Network, momentum: float = 0.9, weight_decay: float = 0.0) -> "OptState":
        stages = [
            [ParamPair.zeros_like(blk.weight, blk.bias) for blk in st.blocks]
            for st in net.stages
        ]
        clf = ParamPair.zeros_like(net.clf_weight, net.clf_bias)
        return cls(momentum=momentum, weight_decay=weight_decay, stages=stages, classifier=clf)


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


def _block_forward(blk: Block, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return (output, pre-activation) for one block on a B x in_width batch."""
    z = x @ blk.weight.T + blk.bias
    a = np.maximum(z, 0.0)
    if blk.kind is BlockKind.RESIDUAL:
        return x + a, z
    return a, z


def _forward_cached(net: Network, batch: np.ndarray):
    """Forward pass keeping per-block inputs and pre-activations."""
    if batch.ndim != 2 or batch.shape[1] != net.input_dim:
        raise ValueError(
            f"batch has shape {batch.shape}, expected (B, {net.input_dim})"
        )
    x = np.asarray(batch, dtype=np.float64)
    caches = []  # (block, input, pre-activation) in forward order
    for st in net.stages:
        for blk in st.blocks:
            y, z = _block_forward(blk, x)
            caches.append((blk, x, z))
            x = y
    logits = x @ net.clf_weight.T + net.clf_bias
    return logits, x, caches


def forward(net: Network, batch: np.ndarray) -> np.ndarray:
    """Logits (B x num_classes) for a batch; pure function of (net, batch)."""
    logits, _, _ = _forward_cached(net, batch)
    return logits


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _check_labels(labels: np.ndarray, num_classes: int) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(f"labels outside [0, {num_classes})")
    return labels


def loss_and_grads(net: Network, batch: np.ndarray, labels: np.ndarray) -> tuple[float, GradSet]:
    """Mean cross-entropy loss and exact analytic gradients.

    The backward pass mirrors the forward block structure; the ReLU
    subgradient at exactly 0 is taken as 0.
    """
    loss, grads, _ = loss_grads_logits(net, batch, labels)
    return loss, grads


def loss_grads_logits(net: Network, batch: np.ndarray,
                      labels: np.ndarray) -> tuple[float, GradSet, np.ndarray]:
    """loss_and_grads plus the forward logits."""
    labels = _check_labels(labels, net.num_classes)
    logits, feats, caches = _forward_cached(net, batch)
    n = logits.shape[0]

    ls = _log_softmax(logits)
    loss = float(-ls[np.arange(n), labels].mean())

    dlogits = np.exp(ls)
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n

    clf_grad = ParamPair(dlogits.T @ feats, dlogits.sum(axis=0))
    dx = dlogits @ net.clf_weight

    flat_grads: list[ParamPair] = []
    for blk, x_in, z in reversed(caches):
        dz = dx * (z > 0.0)
        g = ParamPair(dz.T @ x_in, dz.sum(axis=0))
        if blk.kind is BlockKind.RESIDUAL:
            dx = dx + dz @ blk.weight
        else:
            dx = dz @ blk.weight
        flat_grads.append(g)
    flat_grads.reverse()

    stages: list[list[ParamPair]] = []
    i = 0
    for st in net.stages:
        stages.append(flat_grads[i : i + len(st.blocks)])
        i += len(st.blocks)
    return loss, GradSet(stages=stages, classifier=clf_grad), logits


def _step_pair(w: np.ndarray, b: np.ndarray, g: ParamPair, v: ParamPair,
               lr: float, mu: float, wd: float) -> None:
    if g.weight.shape != w.shape or v.weight.shape != w.shape:
        raise ValueError(
            f"shape mismatch in sgd_step: param {w.shape}, grad {g.weight.shape}, "
            f"buffer {v.weight.shape} (missed buffer resize after growth?)"
        )
    v.weight *= mu
    v.weight += g.weight + wd * w
    w -= lr * v.weight
    v.bias *= mu
    v.bias += g.bias + wd * b
    b -= lr * v.bias


def sgd_step(net: Network, grads: GradSet, opt: OptState, lr: float) -> None:
    """One in-place SGD step: v <- mu*v + g + wd*theta; theta <- theta - lr*v."""
    mu, wd = opt.momentum, opt.weight_decay
    for st, gst, vst in zip(net.stages, grads.stages, opt.stages):
        if len(st.blocks) != len(gst) or len(st.blocks) != len(vst):
            raise ValueError("block count mismatch between net, grads and optimizer state")
        for blk, g, v in zip(st.blocks, gst, vst):
            _step_pair(blk.weight, blk.bias, g, v, lr, mu, wd)
    assert opt.classifier is not None
    _step_pair(net.clf_weight, net.clf_bias, grads.classifier, opt.classifier, lr, mu, wd)


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
    correct = 0
    loss_sum = 0.0
    for i in range(0, len(features), chunk):
        f = features[i : i + chunk]
        y = labels[i : i + chunk]
        logits = forward(net, f)
        correct += int((np.argmax(logits, axis=1) == y).sum())
        ls = _log_softmax(logits)
        loss_sum += float(-ls[np.arange(len(y)), y].sum())
    n = len(features)
    return 100.0 * correct / n, loss_sum / n
