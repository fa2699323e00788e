"""Effective-receptive-field maps, feature histograms, and coefficient dumps."""
from __future__ import annotations

from typing import Callable

import numpy as np

from . import tensor as T
from .models import CaptureSet, ModelWeights, forward_features
from .tensor import Tape, Tensor


def erf_map(model_or_fn, images: np.ndarray) -> np.ndarray:
    """Aggregated input-gradient magnitude of the central output feature.

    The channel sum at the central spatial position of the final feature map is
    differentiated with respect to the input; absolute gradients are summed
    over channels and batch and normalized to a maximum of 1. Accepts either a
    model (features = backbone output) or any Tensor -> Tensor feature callable.
    A model runs on constant views of its weights, so no weight gradient is
    computed and no parameter's `.grad` changes.
    """
    if isinstance(model_or_fn, ModelWeights):
        frozen = model_or_fn.views(requires_grad=False)
        fn: Callable[[Tensor], Tensor] = lambda t: forward_features(frozen, t)
    else:
        fn = model_or_fn
    if len(images) == 0:
        raise ValueError("empty probe set")
    x = Tensor(np.asarray(images, np.float32), requires_grad=True)
    with Tape() as tape:
        feats = fn(x)
        if feats.ndim != 4:
            raise T.ShapeError(f"feature map must be 4-D, got {feats.shape}")
        _, c, h, w = feats.shape
        mask = np.zeros(feats.shape, np.float32)
        mask[:, :, h // 2, w // 2] = 1.0
        center = T.tsum(T.mul(feats, Tensor(mask)))
        tape.backward(center)
    grad = np.abs(x.grad).sum(axis=(0, 1))
    peak = grad.max()
    if peak > 0:
        grad = grad / peak
    return grad.astype(np.float64)


def erf_active_area(erf: np.ndarray, threshold: float = 0.01) -> int:
    """Number of input pixels whose normalized contribution exceeds threshold."""
    return int((erf > threshold).sum())


def stage_activations(model: ModelWeights, images: np.ndarray,
                      stage: int) -> np.ndarray:
    if not (1 <= stage <= 4):
        raise ValueError("stage must be in 1..4")
    if len(images) == 0:
        raise ValueError("empty probe set")
    cap = CaptureSet()
    forward_features(model, Tensor(np.asarray(images, np.float32)), capture=cap)
    return cap.stage_out[stage].data


def _stage_bins(models: list[ModelWeights], images: np.ndarray, stage: int,
                bins: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """`bins` equal float64 bins spanning the models' stage activations on
    `images`, and each model's counts on them."""
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    acts = [stage_activations(m, images, stage) for m in models]
    lo = min(float(a.min()) for a in acts)
    hi = max(float(a.max()) for a in acts)
    if lo == hi:
        hi = lo + 1e-6
    edges = np.linspace(lo, hi, bins + 1)
    return edges, [np.histogram(a, bins=edges)[0] for a in acts]


def feature_histogram(model: ModelWeights, images: np.ndarray, stage: int,
                      bins: int = 101) -> tuple[np.ndarray, np.ndarray]:
    """Histogram of a stage's output activations over the probe batch, on
    `bins` equal bins spanning their range."""
    edges, (counts,) = _stage_bins([model], images, stage, bins)
    return edges, counts


def wasserstein_binned(counts_a: np.ndarray, counts_b: np.ndarray,
                       edges: np.ndarray) -> float:
    """1-Wasserstein distance between two histograms on shared bin edges."""
    pa = counts_a / counts_a.sum()
    pb = counts_b / counts_b.sum()
    width = np.diff(edges)
    return float(np.sum(np.abs(np.cumsum(pa - pb)) * width))


def feature_distance(model_a: ModelWeights, model_b: ModelWeights,
                     images: np.ndarray, stage: int, bins: int = 101) -> float:
    """Binned 1-Wasserstein distance between two models' stage activations."""
    edges, (ca, cb) = _stage_bins([model_a, model_b], images, stage, bins)
    return wasserstein_binned(ca, cb, edges)


def dump_affine_coefficients(model: ModelWeights) -> list[dict]:
    """Rows of (stage, block, channel, s, t) for every affine mixer."""
    if model.spec.mixer_kind != "affine" or model.deploy:
        raise ValueError("coefficient dump requires a train-form affine model "
                         "(fusion absorbs the parameters)")
    rows = []
    for si, stage_blocks in enumerate(model.blocks):
        for bi, bw in enumerate(stage_blocks):
            for ci in range(bw.affine_s.size):
                rows.append({"stage": si, "block": bi, "channel": ci,
                             "s": float(bw.affine_s.data[ci]),
                             "t": float(bw.affine_t.data[ci])})
    return rows
