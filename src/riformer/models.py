"""MetaFormer-style backbone with interchangeable token mixers.

Four stages of residual blocks; each block is

    x = x + ls1 * mixer(norm1(x))
    x = x + ls2 * mlp(norm2(x))

where the mixer is one of: valid-count average pooling minus its input,
a per-channel affine scale-and-shift minus its input, or identity (which
under the minus-input convention is exactly zero, so the first sub-block
is skipped). The fused deploy form of an affine model has no mixer and no
layer scales, and runs each block as one `deploy_block` kernel,
x + norm1(x) followed by the MLP sub-block, with ls1 folded into norm1
and ls2 into the MLP. Patch embeddings use edge-replicate padding so that a
spatially constant input stays constant through every stage; this keeps
the "pooling mixer vanishes on constant input" property exact at borders.
"""
from __future__ import annotations

import copy
import math
import re
import sys
import types
import typing
from dataclasses import (MISSING, dataclass, field, fields, is_dataclass,
                         make_dataclass)
from typing import Iterator, Optional

import numpy as np

from . import tensor as T
from .tensor import Tensor

MIXER_KINDS = ("pooling", "affine", "identity")
# what a profiled forward charges its kernels to (see _mark), in forward order
COMPONENTS = ("embedding", "norm", "mixer", "mlp", "head")


def _fits(value, hint) -> bool:
    """Whether a config value fits a type hint; an int fits a float, a bool
    only a bool, a dict a dataclass, and a list a list or tuple hint if all
    its items fit. No int past the float64 range fits, so the checks can mix
    ints and floats."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        return any(_fits(value, a) for a in args)
    if origin in (list, tuple):
        return (isinstance(value, (list, tuple))
                and all(_fits(v, args[0]) for v in value))
    if is_dataclass(hint):
        return isinstance(value, (dict, hint))
    if isinstance(value, bool) or hint is bool:
        return isinstance(value, bool) and hint is bool
    if isinstance(value, int) and abs(value) > sys.float_info.max:
        return False
    if hint is float:
        return isinstance(value, (int, float))
    return isinstance(value, hint)


def _read(value, hint):
    """`value`, which fits `hint`, as that field holds it: a dict under a
    dataclass hint is read by `_from_dict`, and so is each item of a list
    of them; a list under a tuple hint becomes a tuple."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        return _read(value, next(a for a in args if _fits(value, a)))
    if origin in (list, tuple):
        return origin(_read(v, args[0]) for v in value)
    if is_dataclass(hint) and isinstance(value, dict):
        return _from_dict(hint, value)
    return value


def _from_dict(cls, d):
    """`cls(**d)` for the config dataclass `cls`, checked by its `validate()`
    when it has one, after rejecting a `d` that is not a dict, has unknown
    keys, lacks a field without default, or has a value that does not fit
    its field's type. Nested dataclass fields are read the same way."""
    if not isinstance(d, dict):
        raise ValueError(f"{cls.__name__} config must be an object, "
                         f"got {type(d).__name__}")
    unknown = sorted(set(d) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {cls.__name__} key(s): "
                         f"{', '.join(map(repr, unknown))}")
    missing = [f.name for f in fields(cls) if f.name not in d
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ValueError(f"missing {cls.__name__} key(s): {', '.join(missing)}")
    hints = typing.get_type_hints(cls)
    for key, value in d.items():
        hint = hints[key]
        if not _fits(value, hint):
            # the hint's class names without their module paths
            want = (hint.__name__ if isinstance(hint, type)
                    else re.sub(r"\b(\w+\.)+", "", str(hint)))
            raise ValueError(f"{cls.__name__}.{key} must be {want}, "
                             f"got {value!r}")
    obj = cls(**{key: _read(value, hints[key]) for key, value in d.items()})
    if hasattr(obj, "validate"):
        obj.validate()
    return obj


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
        hidden = self.dim * self.mlp_ratio
        if not (self.mlp_ratio > 0 and math.isfinite(hidden)) or int(hidden) < 1:
            raise ValueError(f"mlp_ratio must give a finite MLP width >= 1, "
                             f"got {self.mlp_ratio} at dim {self.dim}")
        if self.patch_size < 1 or self.stride < 1:
            raise ValueError("patch_size and stride must be >= 1")
        if self.padding < 0:
            raise ValueError(f"patch_size must be >= stride - 1 (the embedding "
                             f"pads by (patch_size - stride + 1) // 2), got "
                             f"patch_size {self.patch_size}, stride {self.stride}")

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
    input_resolution: int = 64
    in_channels: int = 3

    def validate(self) -> None:
        if len(self.stages) != 4:
            raise ValueError(f"exactly 4 stages required, got {len(self.stages)}")
        for s in self.stages:
            s.validate()
        if self.mixer_kind not in MIXER_KINDS:
            raise ValueError(f"unknown mixer_kind {self.mixer_kind!r}")
        if self.mixer_kind == "pooling" and not (self.pool_size > 0
                                                 and self.pool_size % 2):
            raise ValueError(f"pool_size must be odd and >= 1, got {self.pool_size}")
        with np.errstate(over="ignore"):  # 1e39 rounds to inf
            finite = np.isfinite(np.float32(self.layer_scale_init))
        if not finite:
            raise ValueError(f"layer_scale_init must be finite in float32, "
                             f"got {self.layer_scale_init}")
        if self.num_classes < 1 or self.in_channels < 1:
            raise ValueError(f"num_classes and in_channels must be >= 1, got "
                             f"{self.num_classes}, {self.in_channels}")
        if self.input_resolution < 1 or self.input_resolution % self.total_stride:
            raise ValueError(f"input_resolution must be a positive multiple of "
                             f"{self.total_stride}, got {self.input_resolution}")

    @property
    def total_blocks(self) -> int:
        return sum(s.depth for s in self.stages)

    @property
    def total_stride(self) -> int:
        return math.prod(s.stride for s in self.stages)

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


_ALL = (*MIXER_KINDS, "deploy")
# A block's parameters in checkpoint order: BlockWeights field, name under
# "stage.{si}.block.{bi}.", shape (hidden = int(dim * mlp_ratio)), init
# ("normal" is N(0, 0.02), "ls" the spec's layer_scale_init) and the forms
# that carry it: train mixer kinds, or "deploy", whose norm1 and MLP output
# projection hold the layer scales.
_BLOCK_PARAMS = (
    ("norm1_gamma", "norm1.gamma", ("dim",), 1.0, MIXER_KINDS),
    ("norm1_beta", "norm1.beta", ("dim",), 0.0, MIXER_KINDS),
    ("norm1_gamma", "norm_reparam.gamma", ("dim",), 0.0, ("deploy",)),
    ("norm1_beta", "norm_reparam.beta", ("dim",), 0.0, ("deploy",)),
    ("affine_s", "mixer.s", ("dim",), 1.0, ("affine",)),
    ("affine_t", "mixer.t", ("dim",), 0.0, ("affine",)),
    ("norm2_gamma", "norm2.gamma", ("dim",), 1.0, _ALL),
    ("norm2_beta", "norm2.beta", ("dim",), 0.0, _ALL),
    ("mlp_w1", "mlp.w1", ("hidden", "dim"), "normal", _ALL),
    ("mlp_b1", "mlp.b1", ("hidden",), 0.0, _ALL),
    ("mlp_w2", "mlp.w2", ("dim", "hidden"), "normal", _ALL),
    ("mlp_b2", "mlp.b2", ("dim",), 0.0, _ALL),
    ("layer_scale_1", "layer_scale_1", ("dim",), "ls", MIXER_KINDS),
    ("layer_scale_2", "layer_scale_2", ("dim",), "ls", MIXER_KINDS),
)
BlockWeights = make_dataclass("BlockWeights", [  # a field its form lacks is None
    (key, Optional[Tensor], None) for key in dict.fromkeys(
        row[0] for row in _BLOCK_PARAMS)], namespace={"__module__": __name__})


def _layout(spec: ModelSpec, deploy: bool):
    """param_layout's entries, each with the view it fills: (si, bi, field)
    of a block, (si, None, 0 or 1) of an embedding pair, or (len(stages),
    None, attribute) of the model. Its stage orders build_model's draws."""
    form = "deploy" if deploy else spec.mixer_kind
    in_ch = spec.in_channels
    for si, st in enumerate(spec.stages):
        yield (f"embed.{si}.weight", (st.dim, in_ch, st.patch_size,
                                      st.patch_size), "normal", (si, None, 0))
        yield f"embed.{si}.bias", (st.dim,), 0.0, (si, None, 1)
        in_ch = st.dim
    for si, st in enumerate(spec.stages):
        sizes = {"dim": st.dim, "hidden": int(st.dim * st.mlp_ratio)}
        for bi in range(st.depth):
            for key, name, shape, init, forms in _BLOCK_PARAMS:
                if form in forms:
                    yield (f"stage.{si}.block.{bi}.{name}",
                           tuple(sizes[k] for k in shape),
                           spec.layer_scale_init if init == "ls" else init,
                           (si, bi, key))
    tail, last, k = len(spec.stages), spec.stages[-1].dim, spec.num_classes
    yield "final_norm.gamma", (last,), 1.0, (tail, None, "final_gamma")
    yield "final_norm.beta", (last,), 0.0, (tail, None, "final_beta")
    yield "head.weight", (k, last), "normal", (tail, None, "head_w")
    yield "head.bias", (k,), 0.0, (tail, None, "head_b")


def param_layout(spec: ModelSpec, deploy: bool = False) -> Iterator[tuple]:
    """(name, shape, init) of each parameter of the spec's train or deploy
    form, in checkpoint order: the one place names and shapes are spelled.
    Lazy, so a caller can stop at its first mismatch whatever the sizes."""
    return (entry[:3] for entry in _layout(spec, deploy))


@dataclass
class CaptureSet:
    """Passive per-block activation records for distillation and analysis."""
    layers: frozenset[int] = frozenset()
    mixer_out: dict[int, Tensor] = field(default_factory=dict)
    block_out: dict[int, Tensor] = field(default_factory=dict)
    stage_out: dict[int, Tensor] = field(default_factory=dict)

    @classmethod
    def for_layers(cls, layers) -> "CaptureSet":
        return cls(layers=frozenset(layers))


class ModelWeights:
    """Concrete weights for a ModelSpec, train or deploy form: `params` maps
    the names of `param_layout(spec, deploy)` to tensors, in that order, and
    `embeds`, `blocks`, `final_*` and `head_*` are views of them."""

    def __init__(self, spec: ModelSpec, params: dict[str, Tensor],
                 deploy: bool = False):
        self.spec, self.params, self._deploy = spec, params, deploy
        self.embeds = [[None, None] for _ in spec.stages]
        self.blocks = [[BlockWeights() for _ in range(st.depth)]
                       for st in spec.stages]
        for name, _, _, (si, bi, key) in _layout(spec, deploy):
            if bi is not None:
                setattr(self.blocks[si][bi], key, params[name])
            elif si < len(spec.stages):
                self.embeds[si][key] = params[name]
            else:
                setattr(self, key, params[name])

    @property
    def deploy(self) -> bool:
        """Whether this is the fused form, whose blocks carry no affine
        coefficients and no layer scales: layer_scale_1 is folded into the
        norm, layer_scale_2 into mlp.w2 and mlp.b2."""
        return self._deploy

    def named_parameters(self) -> Iterator[tuple[str, Tensor]]:
        yield from self.params.items()

    def clone(self) -> "ModelWeights":
        return copy.deepcopy(self)


def build_model(spec: ModelSpec, seed: int) -> ModelWeights:
    """Deterministic initialization; affine starts at s=1, t=0 so the model
    is forward-identical to the identity-mixer model of the same seed. The
    draws go stage by stage (its embedding, then its blocks), head last."""
    spec.validate()
    rng = np.random.default_rng(seed)
    layout = list(_layout(spec, deploy=False))
    drawn = {name: Tensor(rng.normal(0.0, 0.02, size=shape) if init == "normal"
                          else np.full(shape, init, np.float32),
                          requires_grad=True)
             for name, shape, init, _ in sorted(layout, key=lambda e: e[3][0])}
    return ModelWeights(spec, {name: drawn[name] for name, *_ in layout})


def affine_mixer(m: Tensor, s: Tensor, t: Tensor) -> Tensor:
    """Per-channel scale-and-shift minus its own input: s*m + t - m."""
    return T.sub(T.channel_affine(m, s, t), m)


def pooling_mixer(m: Tensor, k: int) -> Tensor:
    """Average pooling minus its input (PoolFormer convention)."""
    return T.sub(T.avg_pool_same(m, k), m)


def _mark(component: str) -> None:
    """Charge the kernels that follow to `component` while a profile runs."""
    if T._PROFILE is not None:
        T._PROFILE.component = component


def block_forward(x: Tensor, bw: BlockWeights, spec: ModelSpec, *,
                  capture: Optional[CaptureSet] = None,
                  index: int = -1) -> Tensor:
    """One block of a train form (`deploy_block_forward` runs the fused
    form's); capture records its mixer branch and output."""
    grab = capture is not None and index in capture.layers
    # an identity block's first sub-block adds exactly zero and runs no
    # kernel
    _mark("norm")
    if spec.mixer_kind == "identity":
        if grab:
            capture.mixer_out[index] = Tensor(np.zeros_like(x.data))
    else:
        branch = T.group_norm_1(x, bw.norm1_gamma, bw.norm1_beta)
        _mark("mixer")
        branch = (affine_mixer(branch, bw.affine_s, bw.affine_t)
                  if spec.mixer_kind == "affine"
                  else pooling_mixer(branch, spec.pool_size))
        if grab:
            capture.mixer_out[index] = branch
        x = T.add(x, T.channel_affine(branch, bw.layer_scale_1))
    _mark("norm")
    h = T.group_norm_1(x, bw.norm2_gamma, bw.norm2_beta)
    _mark("mlp")
    h = T.gelu(T.channel_linear(h, bw.mlp_w1, bw.mlp_b1))
    h = T.channel_linear(h, bw.mlp_w2, bw.mlp_b2)
    x = T.add(x, T.channel_affine(h, bw.layer_scale_2))
    if grab:
        capture.block_out[index] = x
    return x


def deploy_block_forward(x: Tensor, bw: BlockWeights, *,
                         capture: Optional[CaptureSet] = None,
                         index: int = -1) -> Tensor:
    """One block of the fused deploy form, whose layer scales are folded
    into its weights: the whole block is one `deploy_block` kernel,
    captured or not, so verify_equivalence certifies the kernel that
    inference runs. It has no mixer branch, and capture records only its
    output."""
    _mark("mlp")
    x = T.deploy_block(x, bw.norm1_gamma, bw.norm1_beta, bw.norm2_gamma,
                       bw.norm2_beta, bw.mlp_w1, bw.mlp_b1, bw.mlp_w2,
                       bw.mlp_b2)
    if capture is not None and index in capture.layers:
        capture.block_out[index] = x
    return x


def forward_features(model: ModelWeights, x: Tensor, *,
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
            x = (deploy_block_forward(x, bw, capture=capture, index=gi)
                 if model.deploy
                 else block_forward(x, bw, spec, capture=capture, index=gi))
            gi += 1
        if capture is not None:
            capture.stage_out[si + 1] = x
    return x


def forward(model: ModelWeights, x: Tensor, *,
            capture: Optional[CaptureSet] = None) -> Tensor:
    """Full forward pass to logits of shape (N, num_classes)."""
    feats = forward_features(model, x, capture=capture)
    _mark("head")
    feats = T.group_norm_1(feats, model.final_gamma, model.final_beta)
    pooled = T.global_spatial_mean(feats)
    return T.linear(pooled, model.head_w, model.head_b)
