"""Bit-exact named-tensor checkpoint format.

Layout:  8-byte magic | u32 little-endian header length | JSON header |
float32 little-endian payload.  The header carries the model spec echo,
free-form metadata, the deploy flag, and a manifest of (name, shape, offset)
entries; offsets are byte positions into the payload. There is deliberately
no checksum: integrity is verified functionally by the equivalence tools.
"""
from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .models import ModelSpec, ModelWeights, _from_dict, build_model
from .reparam import switch_to_deploy

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
    spec: dict
    deploy: bool
    meta: dict
    manifest: list[dict]


def save_checkpoint(model: ModelWeights, path: str,
                    meta: Optional[dict] = None) -> None:
    manifest = []
    payload = bytearray()
    for name, p in model.named_parameters():
        arr = np.ascontiguousarray(p.data, dtype="<f4")
        manifest.append(asdict(ManifestEntry(name, list(arr.shape),
                                             len(payload))))
        payload += arr.tobytes()
    header = json.dumps(asdict(CheckpointHeader(
        model.spec.to_dict(), model.deploy, meta or {}, manifest))).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", len(header)))
        f.write(header)
        f.write(bytes(payload))


def _read_header(f) -> tuple[dict, ModelSpec]:
    """Read and check the header of an open checkpoint; `f` is left at the
    payload. Returns the header and its parsed spec."""
    magic = f.read(len(MAGIC))
    if magic != MAGIC:
        raise CheckpointError(f"bad magic {magic!r}")
    size = f.read(4)
    if len(size) < 4:
        raise CheckpointError("truncated header length")
    (hlen,) = struct.unpack("<I", size)
    try:
        # a cut header is never a whole JSON object, so it fails here too
        header = json.loads(f.read(hlen).decode("utf-8"))
        _from_dict(CheckpointHeader, header)
        for entry in header["manifest"]:
            _from_dict(ManifestEntry, entry)
        spec = ModelSpec.from_dict(header["spec"])
    except ValueError as e:  # JSON and UTF-8 errors are ValueErrors too
        raise CheckpointError(f"corrupt header: {e}") from None
    if header["deploy"] and spec.mixer_kind != "affine":
        raise CheckpointError(f"deploy header on a {spec.mixer_kind!r} spec")
    if header["deploy"] and any(e["name"].endswith(".layer_scale_1")
                                for e in header["manifest"]):
        raise CheckpointError("old deploy layout with layer_scale_1; re-fuse "
                              "it from its train checkpoint")
    return header, spec


def read_header(path: str) -> dict:
    with open(path, "rb") as f:
        return _read_header(f)[0]


def load_checkpoint(path: str) -> tuple[ModelWeights, dict]:
    """Rebuild the model; returns (model, meta). Round-trips bit-exactly."""
    with open(path, "rb") as f:
        header, spec = _read_header(f)
        payload = f.read()

    model = build_model(spec, seed=0)
    if header["deploy"]:  # the fused form's parameter set
        model = switch_to_deploy(model)
    params = dict(model.named_parameters())

    manifest = header["manifest"]
    names = {e["name"] for e in manifest}
    if names != set(params):
        raise CheckpointError(f"manifest/spec mismatch: missing "
                              f"{sorted(set(params) - names)}, "
                              f"unexpected {sorted(names - set(params))}")
    spans = []
    for entry in manifest:
        shape = tuple(entry["shape"])
        want = params[entry["name"]].shape
        if shape != want:
            raise CheckpointError(f"{entry['name']}: manifest shape {shape} "
                                  f"does not match spec shape {want}")
        nbytes = 4 * params[entry["name"]].size
        off = entry["offset"]
        if off < 0 or off + nbytes > len(payload):
            raise CheckpointError(f"{entry['name']}: offset out of bounds")
        spans.append((off, off + nbytes, entry["name"]))
    spans.sort()
    for (s0, e0, n0), (s1, e1, n1) in zip(spans, spans[1:]):
        if s1 < e0:
            raise CheckpointError(f"overlapping payload spans for {n0} and {n1}")

    for start, end, name in spans:
        arr = np.frombuffer(payload[start:end], dtype="<f4")
        params[name].data = arr.reshape(params[name].shape).copy()
    return model, header["meta"]
