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
from typing import Optional

import numpy as np

from .models import ModelSpec, ModelWeights, build_model

MAGIC = b"RIFCKPT1"


class CheckpointError(ValueError):
    """Corrupt or inconsistent checkpoint file."""


def save_checkpoint(model: ModelWeights, path: str,
                    meta: Optional[dict] = None) -> None:
    manifest = []
    payload = bytearray()
    for name, p in model.named_parameters():
        arr = np.ascontiguousarray(p.data, dtype="<f4")
        manifest.append({"name": name, "shape": list(arr.shape),
                         "offset": len(payload)})
        payload += arr.tobytes()
    header = json.dumps({
        "spec": model.spec.to_dict(),
        "deploy": model.deploy,
        "meta": meta or {},
        "manifest": manifest,
    }).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", len(header)))
        f.write(header)
        f.write(bytes(payload))


def _read_header(f) -> dict:
    """Read the header of an open checkpoint; `f` is left at the payload."""
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
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"corrupt header: {e}") from None
    if not isinstance(header, dict):
        raise CheckpointError("header is not a JSON object")
    for key in ("spec", "deploy", "meta", "manifest"):
        if key not in header:
            raise CheckpointError(f"header missing {key!r}")
    return header


def read_header(path: str) -> dict:
    with open(path, "rb") as f:
        return _read_header(f)


def load_checkpoint(path: str) -> tuple[ModelWeights, dict]:
    """Rebuild the model; returns (model, meta). Round-trips bit-exactly."""
    with open(path, "rb") as f:
        header = _read_header(f)
        payload = f.read()

    spec = ModelSpec.from_dict(header["spec"])
    model = build_model(spec, seed=0)
    if header["deploy"]:  # the fused form has no affine coefficients
        model.deploy = True
        for bw in (bw for stage in model.blocks for bw in stage):
            bw.affine_s = bw.affine_t = None
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
        off = int(entry["offset"])
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
