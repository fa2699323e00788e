"""Bit-exact named-tensor checkpoint format.

Layout:  8-byte magic | u32 little-endian header length | JSON header |
float32 little-endian payload.  The header carries the model spec echo,
free-form metadata, the deploy flag, and a manifest of (name, shape, offset)
entries that lists the spec's parameters in `models.param_layout` order;
offsets are byte positions into the payload. Loading checks the manifest
against the spec before it allocates any tensor. There is deliberately no
checksum: integrity is verified functionally by the equivalence tools.
"""
from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass
from itertools import pairwise
from typing import Optional

import numpy as np

from . import models
from .models import ModelSpec, ModelWeights, _from_dict
from .tensor import NumericsError, Tensor

MAGIC = b"RIFCKPT1"


class CheckpointError(ValueError):
    """Corrupt or inconsistent checkpoint file."""


@dataclass
class ManifestEntry:
    name: str
    shape: list[int]
    offset: int


@dataclass
class CheckpointHeader:
    spec: ModelSpec
    deploy: bool
    meta: dict
    manifest: list[ManifestEntry]


def save_checkpoint(model: ModelWeights, path: str,
                    meta: Optional[dict] = None) -> None:
    manifest = []
    payload = bytearray()
    for name, p in model.named_parameters():
        arr = np.ascontiguousarray(p.data, dtype="<f4")
        manifest.append(ManifestEntry(name, list(arr.shape), len(payload)))
        payload += arr.tobytes()
    header = json.dumps(asdict(CheckpointHeader(
        model.spec, model.deploy, meta or {}, manifest))).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", len(header)))
        f.write(header)
        f.write(bytes(payload))


def _read_header(f) -> CheckpointHeader:
    """Read and check the header of an open checkpoint; `f` is left at the
    payload."""
    magic = f.read(len(MAGIC))
    if magic != MAGIC:
        raise CheckpointError(f"bad magic {magic!r}")
    size = f.read(4)
    if len(size) < 4:
        raise CheckpointError("truncated header length")
    (hlen,) = struct.unpack("<I", size)
    drop_path_rate = 0
    try:
        # a cut header is never a whole JSON object, so it fails here too
        header = json.loads(f.read(hlen).decode("utf-8"))
        # headers written while the spec had stochastic depth echo its rate
        if isinstance(header, dict) and isinstance(header.get("spec"), dict):
            drop_path_rate = header["spec"].pop("drop_path_rate", 0)
        header = _from_dict(CheckpointHeader, header)
    except ValueError as e:  # JSON and UTF-8 errors are ValueErrors too
        raise CheckpointError(f"corrupt header: {e}") from None
    if drop_path_rate != 0:
        raise CheckpointError(f"spec has drop_path_rate {drop_path_rate!r}; "
                              f"only a rate of 0 loads, as stochastic depth "
                              f"is gone")
    if header.deploy and header.spec.mixer_kind != "affine":
        raise CheckpointError(f"deploy header on a "
                              f"{header.spec.mixer_kind!r} spec")
    for entry in header.manifest:
        scale = entry.name.rsplit(".", 1)[-1]
        if header.deploy and scale in ("layer_scale_1", "layer_scale_2"):
            raise CheckpointError(f"old deploy layout with {scale}; re-fuse "
                                  f"it from its train checkpoint")
    return header


def read_header(path: str) -> dict:
    """The checked header as a dict, its spec echo with defaults filled in."""
    with open(path, "rb") as f:
        return asdict(_read_header(f))


def load_checkpoint(path: str) -> tuple[ModelWeights, dict]:
    """Rebuild the model; returns (model, meta). Round-trips bit-exactly. The
    first manifest entry that is not the spec's layout entry fails the load.
    A train model's parameters require gradients and a deploy model's do
    not, as `switch_to_deploy` builds them."""
    with open(path, "rb") as f:
        header = _read_header(f)
        payload = f.read()

    manifest = header.manifest
    layout = models.param_layout(header.spec, header.deploy)
    spans = []
    for entry, (name, shape, _) in zip(manifest, layout):
        if (entry.name, tuple(entry.shape)) != (name, shape):
            raise CheckpointError(f"manifest entry {len(spans)}, {entry.name} "
                                  f"{tuple(entry.shape)}, is not the spec's "
                                  f"{name} {shape}")
        start, end = entry.offset, entry.offset + 4 * math.prod(shape)
        if start < 0 or end > len(payload):
            raise CheckpointError(f"{name}: offset out of bounds")
        spans.append((start, end, name, shape))
    if len(spans) < len(manifest) or next(layout, None) is not None:
        raise CheckpointError(f"manifest/spec mismatch: the spec's layout "
                              f"does not have {len(manifest)} entries")
    for (_, e0, n0, _), (s1, _, n1, _) in pairwise(sorted(spans)):
        if s1 < e0:
            raise CheckpointError(f"overlapping payload spans for {n0} and {n1}")

    params = {}
    for start, end, name, shape in spans:
        arr = np.frombuffer(payload, "<f4", (end - start) // 4, start)
        try:
            params[name] = Tensor(arr.reshape(shape).copy(),
                                  requires_grad=not header.deploy)
        except NumericsError:
            raise CheckpointError(f"{name}: non-finite payload") from None
    return ModelWeights(header.spec, params, header.deploy), header.meta
