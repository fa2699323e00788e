"""MetaFormer-style backbone with interchangeable token mixers.

Four stages of residual blocks; each block is

    x = x + ls1 * mixer(norm1(x))
    x = x + ls2 * mlp(norm2(x))

where the mixer is one of: valid-count average pooling minus its input,
a per-channel affine scale-and-shift minus its input, or identity (which
under the minus-input convention is exactly zero, so the first sub-block
is skipped). Patch embeddings use edge-replicate padding so that a
spatially constant input stays constant through every stage; this keeps
the "pooling mixer vanishes on constant input" property exact at borders.
"""
from __future__ import annotations

import copy
import types
import typing
from dataclasses import MISSING, dataclass, field, fields, asdict
from typing import Callable, Iterator, Optional

import numpy as np

from . import tensor as T
from .tensor import Tensor

MIXER_KINDS = ("pooling", "affine", "identity")
# what a profiled forward charges its kernels to (see _mark), in forward order
COMPONENTS = ("embedding", "norm", "mixer", "mlp", "head")


def _fits(value, hint) -> bool:
    """Whether a config value fits a type hint; an int fits a float, a bool
    only a bool, and a list a list or tuple hint if all its items fit."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        return any(_fits(value, a) for a in args)
    if origin in (list, tuple):
        return (isinstance(value, (list, tuple))
                and all(_fits(v, args[0]) for v in value))
    if isinstance(value, bool) or hint is bool:
        return isinstance(value, bool) and hint is bool
    if hint is float:
        return isinstance(value, (int, float))
    return isinstance(value, hint)


def _from_dict(cls, d, build: Optional[Callable] = None):
    """`build(**d)` (by default `cls(**d)`) for the config dataclass `cls`,
    after rejecting a `d` that is not a dict, has unknown keys, lacks a field
    without default (when `build` is `cls`), or has a value that does not fit
    its field's type."""
    if not isinstance(d, dict):
        raise ValueError(f"{cls.__name__} config must be an object, "
                         f"got {type(d).__name__}")
    unknown = sorted(set(d) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {cls.__name__} key(s): {', '.join(unknown)}")
    missing = [f.name for f in fields(cls) if build is None and f.name not in d
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ValueError(f"missing {cls.__name__} key(s): {', '.join(missing)}")
    hints = typing.get_type_hints(cls)
    for key, value in d.items():
        hint = hints[key]
        if not _fits(value, hint):
            want = (hint.__name__ if isinstance(hint, type)
                    else str(hint).replace("typing.", ""))
            raise ValueError(f"{cls.__name__}.{key} must be {want}, "
                             f"got {value!r}")
    return (build or cls)(**d)


@dataclass
class StageSpec:
    depth: int
    dim: int
    patch_size: int
    stride: int
    mlp_ratio: float = 4.0

    def validate(self) -> None:
        if self.depth < 1 or self.dim < 1:
            raise ValueError(f"depth and dim must be >= 1, got {self.depth}, {self.dim}")
        if self.mlp_ratio <= 0:
            raise ValueError("mlp_ratio must be positive")
        if self.patch_size < 1 or self.stride < 1:
            raise ValueError("patch_size and stride must be >= 1")

    @property
    def padding(self) -> int:
        return (self.patch_size - self.stride + 1) // 2


@dataclass
class ModelSpec:
    stages: list[StageSpec]
    mixer_kind: str = "identity"
    pool_size: int = 3
    num_classes: int = 8
    layer_scale_init: float = 1e-5
    drop_path_rate: float = 0.0
    input_resolution: int = 64
    in_channels: int = 3

    def validate(self) -> None:
        if len(self.stages) != 4:
            raise ValueError(f"exactly 4 stages required, got {len(self.stages)}")
        for s in self.stages:
            s.validate()
        if self.mixer_kind not in MIXER_KINDS:
            raise ValueError(f"unknown mixer_kind {self.mixer_kind!r}")
        if self.mixer_kind == "pooling" and self.pool_size % 2 == 0:
            raise ValueError("pool_size must be odd")
        if not (0.0 <= self.drop_path_rate < 1.0):
            raise ValueError("drop_path_rate must be in [0, 1)")
        if self.num_classes < 1:
            raise ValueError("num_classes must be >= 1")

    @property
    def total_blocks(self) -> int:
        return sum(s.depth for s in self.stages)

    @property
    def total_stride(self) -> int:
        return int(np.prod([s.stride for s in self.stages]))

    def block_stage(self, index: int) -> tuple[int, int]:
        """Map a global block index to (stage, block-within-stage)."""
        off = index
        for si, s in enumerate(self.stages):
            if off < s.depth:
                return si, off
            off -= s.depth
        raise IndexError(f"block index {index} out of range")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelSpec":
        if isinstance(d, dict) and isinstance(d.get("stages"), list):
            d = dict(d, stages=[_from_dict(StageSpec, s) for s in d["stages"]])
        spec = _from_dict(cls, d)
        spec.validate()
        return spec

    @classmethod
    def nano(cls, mixer_kind: str = "identity", num_classes: int = 8,
             **overrides) -> "ModelSpec":
        """Desk-scale default: depths [1,1,3,1], dims [16,32,64,128] at 64^2."""
        stages = [
            StageSpec(depth=1, dim=16, patch_size=7, stride=4),
            StageSpec(depth=1, dim=32, patch_size=3, stride=2),
            StageSpec(depth=3, dim=64, patch_size=3, stride=2),
            StageSpec(depth=1, dim=128, patch_size=3, stride=2),
        ]
        spec = cls(stages=stages, mixer_kind=mixer_kind, num_classes=num_classes,
                   **overrides)
        spec.validate()
        return spec


@dataclass
class BlockWeights:
    """Parameter bundle for one block. In deploy form, norm1 holds the fused
    gamma'*ls1/beta'*ls1, and the affine coefficients and ls1 are None."""
    norm1_gamma: Tensor
    norm1_beta: Tensor
    norm2_gamma: Tensor
    norm2_beta: Tensor
    mlp_w1: Tensor
    mlp_b1: Tensor
    mlp_w2: Tensor
    mlp_b2: Tensor
    layer_scale_1: Optional[Tensor]
    layer_scale_2: Tensor
    affine_s: Optional[Tensor] = None
    affine_t: Optional[Tensor] = None


@dataclass
class CaptureSet:
    """Passive per-block activation records for distillation and analysis."""
    layers: frozenset[int] = frozenset()
    ln_out: dict[int, Tensor] = field(default_factory=dict)
    mixer_out: dict[int, Tensor] = field(default_factory=dict)
    block_out: dict[int, Tensor] = field(default_factory=dict)
    stage_out: dict[int, Tensor] = field(default_factory=dict)

    @classmethod
    def for_layers(cls, layers) -> "CaptureSet":
        return cls(layers=frozenset(layers))


@dataclass(eq=False, repr=False)
class ModelWeights:
    """Concrete weights for a ModelSpec, train or deploy form."""
    spec: ModelSpec
    embeds: list[tuple[Tensor, Tensor]]
    blocks: list[list[BlockWeights]]
    final_gamma: Tensor
    final_beta: Tensor
    head_w: Tensor
    head_b: Tensor

    @property
    def deploy(self) -> bool:
        """Whether this is the fused form, whose blocks carry no layer_scale_1."""
        return all(bw.layer_scale_1 is None for st in self.blocks for bw in st)

    def named_parameters(self) -> Iterator[tuple[str, Tensor]]:
        for si, (w, b) in enumerate(self.embeds):
            yield f"embed.{si}.weight", w
            yield f"embed.{si}.bias", b
        for si, stage_blocks in enumerate(self.blocks):
            for bi, bw in enumerate(stage_blocks):
                p = f"stage.{si}.block.{bi}"
                norm1 = "norm1" if bw.layer_scale_1 is not None else "norm_reparam"
                yield f"{p}.{norm1}.gamma", bw.norm1_gamma
                yield f"{p}.{norm1}.beta", bw.norm1_beta
                if bw.affine_s is not None:
                    yield f"{p}.mixer.s", bw.affine_s
                    yield f"{p}.mixer.t", bw.affine_t
                yield f"{p}.norm2.gamma", bw.norm2_gamma
                yield f"{p}.norm2.beta", bw.norm2_beta
                yield f"{p}.mlp.w1", bw.mlp_w1
                yield f"{p}.mlp.b1", bw.mlp_b1
                yield f"{p}.mlp.w2", bw.mlp_w2
                yield f"{p}.mlp.b2", bw.mlp_b2
                if bw.layer_scale_1 is not None:
                    yield f"{p}.layer_scale_1", bw.layer_scale_1
                yield f"{p}.layer_scale_2", bw.layer_scale_2
        yield "final_norm.gamma", self.final_gamma
        yield "final_norm.beta", self.final_beta
        yield "head.weight", self.head_w
        yield "head.bias", self.head_b

    def num_params(self) -> int:
        return sum(p.size for _, p in self.named_parameters())

    def clone(self) -> "ModelWeights":
        return copy.deepcopy(self)


def build_model(spec: ModelSpec, seed: int) -> ModelWeights:
    """Deterministic initialization; affine starts at s=1, t=0 so the model
    is forward-identical to the identity-mixer model of the same seed."""
    spec.validate()
    rng = np.random.default_rng(seed)

    def normal(*shape):
        return Tensor(rng.normal(0.0, 0.02, size=shape).astype(np.float32),
                      requires_grad=True)

    def zeros(*shape):
        return Tensor(np.zeros(shape, np.float32), requires_grad=True)

    def const(value, *shape):
        return Tensor(np.full(shape, value, np.float32), requires_grad=True)

    embeds: list[tuple[Tensor, Tensor]] = []
    blocks: list[list[BlockWeights]] = []
    in_ch = spec.in_channels
    for st in spec.stages:
        embeds.append((normal(st.dim, in_ch, st.patch_size, st.patch_size),
                       zeros(st.dim)))
        in_ch = st.dim
        stage_blocks = []
        hidden = int(st.dim * st.mlp_ratio)
        for _ in range(st.depth):
            bw = BlockWeights(
                norm1_gamma=const(1.0, st.dim), norm1_beta=zeros(st.dim),
                norm2_gamma=const(1.0, st.dim), norm2_beta=zeros(st.dim),
                mlp_w1=normal(hidden, st.dim), mlp_b1=zeros(hidden),
                mlp_w2=normal(st.dim, hidden), mlp_b2=zeros(st.dim),
                layer_scale_1=const(spec.layer_scale_init, st.dim),
                layer_scale_2=const(spec.layer_scale_init, st.dim),
            )
            if spec.mixer_kind == "affine":
                bw.affine_s = const(1.0, st.dim)
                bw.affine_t = zeros(st.dim)
            stage_blocks.append(bw)
        blocks.append(stage_blocks)

    last = spec.stages[-1].dim
    return ModelWeights(
        spec=spec, embeds=embeds, blocks=blocks,
        final_gamma=const(1.0, last), final_beta=zeros(last),
        head_w=normal(spec.num_classes, last), head_b=zeros(spec.num_classes),
    )


def affine_mixer(m: Tensor, s: Tensor, t: Tensor) -> Tensor:
    """Per-channel scale-and-shift minus its own input: s*m + t - m."""
    c = m.shape[1]
    if s.shape != (c,) or t.shape != (c,):
        raise T.ShapeError(f"affine coefficients must have shape ({c},)")
    s4 = T.reshape(s, (1, c, 1, 1))
    t4 = T.reshape(t, (1, c, 1, 1))
    return T.sub(T.add(T.mul(m, s4), t4), m)


def pooling_mixer(m: Tensor, k: int) -> Tensor:
    """Average pooling minus its input (PoolFormer convention)."""
    return T.sub(T.avg_pool_same(m, k), m)


def _mark(component: str) -> None:
    """Charge the kernels that follow to `component` while a profile runs."""
    if T._PROFILE is not None:
        T._PROFILE.component = component


def _mlp(x: Tensor, bw: BlockWeights) -> Tensor:
    h = T.channel_linear(x, bw.mlp_w1, bw.mlp_b1)
    h = T.gelu(h)
    return T.channel_linear(h, bw.mlp_w2, bw.mlp_b2)


def _scale(x: Tensor, ls: Tensor) -> Tensor:
    return T.mul(x, T.reshape(ls, (1, ls.shape[0], 1, 1)))


def block_forward(x: Tensor, bw: BlockWeights, spec: ModelSpec, *,
                  training: bool = False,
                  rng: Optional[np.random.Generator] = None,
                  capture: Optional[CaptureSet] = None,
                  index: int = -1,
                  eps: float = 1e-5) -> Tensor:
    grab = capture is not None and index in capture.layers

    def maybe_drop(branch: Tensor) -> Tensor:
        if training and spec.drop_path_rate > 0.0:
            if rng is None:
                raise ValueError("training with drop_path requires an rng")
            return T.drop_path(branch, spec.drop_path_rate, rng)
        return branch

    _mark("norm")
    h = T.group_norm_1(x, bw.norm1_gamma, bw.norm1_beta, eps)
    if grab:
        capture.ln_out[index] = h
    if bw.affine_s is not None:
        _mark("mixer")
        branch = affine_mixer(h, bw.affine_s, bw.affine_t)
    elif spec.mixer_kind == "pooling":
        _mark("mixer")
        branch = pooling_mixer(h, spec.pool_size)
    elif spec.mixer_kind == "affine":  # fused: norm1 is the scaled branch
        branch = h
    else:  # identity: mixer output is exactly zero, sub-block is a no-op
        branch = None
    if grab:
        capture.mixer_out[index] = (branch if branch is not None
                                    else Tensor(np.zeros_like(h.data)))
    if branch is not None:
        if bw.layer_scale_1 is not None:
            branch = _scale(branch, bw.layer_scale_1)
        x = T.add(x, maybe_drop(branch))

    _mark("norm")
    h2 = T.group_norm_1(x, bw.norm2_gamma, bw.norm2_beta, eps)
    _mark("mlp")
    x = T.add(x, maybe_drop(_scale(_mlp(h2, bw), bw.layer_scale_2)))
    if grab:
        capture.block_out[index] = x
    return x


def forward_features(model: ModelWeights, x: Tensor, *,
                     training: bool = False,
                     rng: Optional[np.random.Generator] = None,
                     capture: Optional[CaptureSet] = None) -> Tensor:
    """Run the backbone up to (excluding) the classifier head."""
    spec = model.spec
    n, c, h, w = x.shape
    if c != spec.in_channels:
        raise T.ShapeError(f"expected {spec.in_channels} input channels, got {c}")
    if h != w or h % spec.total_stride != 0:
        raise T.ShapeError(
            f"input resolution {h}x{w} incompatible with total stride "
            f"{spec.total_stride}")
    gi = 0
    for si, st in enumerate(spec.stages):
        ew, eb = model.embeds[si]
        _mark("embedding")
        x = T.conv2d(x, ew, eb, st.stride, st.padding)
        for bw in model.blocks[si]:
            x = block_forward(x, bw, spec, training=training, rng=rng,
                              capture=capture, index=gi)
            gi += 1
        if capture is not None:
            capture.stage_out[si + 1] = x
    return x


def forward(model: ModelWeights, x: Tensor, *,
            training: bool = False,
            rng: Optional[np.random.Generator] = None,
            capture: Optional[CaptureSet] = None) -> Tensor:
    """Full forward pass to logits of shape (N, num_classes)."""
    feats = forward_features(model, x, training=training, rng=rng,
                             capture=capture)
    _mark("head")
    feats = T.group_norm_1(feats, model.final_gamma, model.final_beta)
    pooled = T.global_spatial_mean(feats)
    return T.linear(pooled, model.head_w, model.head_b)
