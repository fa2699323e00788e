"""Desk-scale datasets: a deterministic synthetic image set and a loader for
the CIFAR-10 binary format (3073-byte records: label byte + 3x32x32 pixels)."""
from __future__ import annotations

import math
import os
import zlib
from dataclasses import dataclass
from typing import Iterator

import numpy as np

CIFAR_RECORD_BYTES = 3073
CIFAR_MEAN = (0.4914, 0.4822, 0.4465)
CIFAR_STD = (0.2470, 0.2435, 0.2616)


@dataclass
class Dataset:
    images: np.ndarray  # (N, 3, H, W) float32
    labels: np.ndarray  # (N,) int64

    def __post_init__(self):
        if len(self.images) != len(self.labels):
            raise ValueError("images and labels disagree on sample count")

    def __len__(self) -> int:
        return len(self.labels)

    def batches(self, batch_size: int,
                rng: np.random.Generator | None = None
                ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """One pass as (images, labels, indices) batches, shuffled by `rng`.

        `indices` are the batch's positions in the dataset, so per-sample
        results computed once can be looked up again in later passes.
        """
        idx = np.arange(len(self))
        if rng is not None:
            rng.shuffle(idx)
        for start in range(0, len(self), batch_size):
            sel = idx[start:start + batch_size]
            yield self.images[sel], self.labels[sel], sel


@dataclass
class SynthSpec:
    """Classes are separable both by a global blob layout and by a local stripe
    texture, so that spatial aggregation genuinely matters."""
    seed: int = 0
    num_classes: int = 8
    samples_per_class: int = 24
    resolution: int = 64
    noise_std: float = 0.35
    max_shift: int = 6
    stream: str = "train"

    def validate(self) -> None:
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.num_classes < 2:
            raise ValueError("need at least 2 classes")
        if self.samples_per_class < 1:
            raise ValueError("samples_per_class must be >= 1")
        if self.resolution < 8:
            raise ValueError("resolution too small")
        # written so that a NaN fails the range
        if not 0 <= self.noise_std < math.inf:
            raise ValueError(f"noise_std must be >= 0 and finite, "
                             f"got {self.noise_std}")
        if self.max_shift < 0:
            raise ValueError(f"max_shift must be >= 0, got {self.max_shift}")


def _class_prototype(seed: int, cls: int, res: int):
    rng = np.random.default_rng([seed, 9151, cls])
    n_blobs = 3
    centers = rng.uniform(0.18, 0.82, size=(n_blobs, 2)) * res
    signs = rng.choice([-1.0, 1.0], size=n_blobs)
    theta = rng.uniform(0.0, np.pi)
    freq = rng.uniform(3.0, 6.0)
    return centers, signs, theta, freq


def _render(spec: SynthSpec, cls: int, index: int) -> np.ndarray:
    res = spec.resolution
    centers, signs, theta, freq = _class_prototype(spec.seed, cls, res)
    stream_key = zlib.crc32(spec.stream.encode("utf-8"))
    rng = np.random.default_rng([spec.seed, stream_key, cls, index])
    yy, xx = np.mgrid[0:res, 0:res].astype(np.float64)
    sigma = res / 8.0
    canvas = np.zeros((res, res))
    for (cy, cx), sign in zip(centers, signs):
        jitter = rng.normal(0.0, res * 0.02, size=2)
        canvas += sign * np.exp(-(((yy - cy - jitter[0]) ** 2)
                                  + ((xx - cx - jitter[1]) ** 2)) / (2 * sigma ** 2))
    phase = rng.uniform(0.0, 2 * np.pi)
    axis = (np.cos(theta) * xx + np.sin(theta) * yy) / res
    stripes = np.sin(2 * np.pi * freq * axis + phase)
    amp = rng.uniform(0.8, 1.2)
    img = np.stack([
        amp * (canvas + 0.4 * stripes),
        amp * (0.6 * canvas + 0.6 * stripes),
        amp * (0.8 * canvas - 0.4 * stripes),
    ])
    shift = rng.integers(-spec.max_shift, spec.max_shift + 1, size=2)
    img = np.roll(img, tuple(shift), axis=(1, 2))
    img += rng.normal(0.0, spec.noise_std, size=img.shape)
    return img.astype(np.float32)


def synth_dataset(spec: SynthSpec) -> Dataset:
    """Deterministic from (seed, stream); class-balanced by construction."""
    spec.validate()
    images = []
    labels = []
    for cls in range(spec.num_classes):
        for i in range(spec.samples_per_class):
            images.append(_render(spec, cls, i))
            labels.append(cls)
    return Dataset(images=np.stack(images),
                   labels=np.asarray(labels, dtype=np.int64))


def load_cifar10_binary(path: str, split: str = "train") -> Dataset:
    """Load CIFAR-10 binary batches from a file or a directory, normalized
    per channel by `CIFAR_MEAN` and `CIFAR_STD`.

    A directory is resolved to the conventional batch files for `split`;
    a file path is loaded as-is.
    """
    if os.path.isdir(path):
        if split == "train":
            files = [os.path.join(path, f"data_batch_{i}.bin") for i in range(1, 6)]
        elif split == "test":
            files = [os.path.join(path, "test_batch.bin")]
        else:
            raise ValueError(f"unknown split {split!r}")
    else:
        files = [path]

    images = []
    labels = []
    for fn in files:
        raw = np.fromfile(fn, dtype=np.uint8)
        if raw.size == 0 or raw.size % CIFAR_RECORD_BYTES != 0:
            raise ValueError(f"{fn}: length {raw.size} is not a multiple of "
                             f"{CIFAR_RECORD_BYTES}")
        records = raw.reshape(-1, CIFAR_RECORD_BYTES)
        lab = records[:, 0].astype(np.int64)
        if lab.max() > 9:
            raise ValueError(f"{fn}: label byte exceeds 9")
        pix = records[:, 1:].reshape(-1, 3, 32, 32).astype(np.float32) / 255.0
        images.append(pix)
        labels.append(lab)
    images = np.concatenate(images)
    labels = np.concatenate(labels)
    m = np.asarray(CIFAR_MEAN, np.float32)[None, :, None, None]
    s = np.asarray(CIFAR_STD, np.float32)[None, :, None, None]
    return Dataset(images=(images - m) / s, labels=labels)
