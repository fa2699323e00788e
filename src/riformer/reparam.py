"""Fuse the affine branch into its preceding normalization layer.

The training-time first sub-block computes

    Affine(LN(x; gamma, beta); s, t) - LN(x; gamma, beta)

which, because the affine map is per-channel and per-location, equals a single
normalization with modified parameters:

    gamma'_i = gamma_i * (s_i - 1)
    beta'_i  = beta_i  * (s_i - 1) + t_i

`switch_to_deploy` applies this block-wise, folds the first layer scale in
as gamma'*ls1 and beta'*ls1 and the second into the MLP's output projection
as ls2[:, None]*w2 and ls2*b2, and drops the affine coefficients and both
layer scales; `verify_equivalence` certifies the transformation numerically
on random probes.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import inf

import numpy as np

from . import tensor as T
from .models import CaptureSet, ModelWeights, forward, param_layout
from .tensor import Tensor

# probes per forward in verify_equivalence; larger chunks raise peak memory
VERIFY_CHUNK = 16


@dataclass
class EquivalenceReport:
    samples: int
    max_abs_diff: float
    mean_abs_diff: float
    tolerance: float
    passed: bool


def fuse_affine(gamma, beta, s, t) -> tuple[np.ndarray, np.ndarray]:
    """The fused norm's (gamma', beta') as float32 vectors."""
    gamma, beta, s, t = (np.asarray(v, dtype=np.float32) for v in (gamma, beta, s, t))
    if not (gamma.shape == beta.shape == s.shape == t.shape) or gamma.ndim != 1:
        raise T.ShapeError("fuse_affine expects equal-length per-channel vectors")
    return gamma * (s - 1.0), beta * (s - 1.0) + t


def switch_to_deploy(model: ModelWeights) -> ModelWeights:
    """Return the deploy-form model; the source model is left untouched.

    Deploy weights are for inference and input gradients only (an ERF map
    differentiates the input), so none requires a gradient: `train()`
    rejects a deploy model, and its blocks' kernel raises TapeError on a
    weight that asks for one while a tape records."""
    if model.spec.mixer_kind != "affine":
        raise ValueError(f"only affine models can be fused, "
                         f"got {model.spec.mixer_kind!r}")
    if model.deploy:
        raise ValueError("model is already in deploy form")
    out = ModelWeights(model.spec, {
        name: Tensor(model.params[name].data.copy() if name in model.params
                     else np.zeros(shape, np.float32))
        for name, shape, _ in param_layout(model.spec, deploy=True)}, True)
    for tb, db in zip(chain(*model.blocks), chain(*out.blocks)):
        gamma_prime, beta_prime = fuse_affine(
            tb.norm1_gamma.data, tb.norm1_beta.data,
            tb.affine_s.data, tb.affine_t.data)
        db.norm1_gamma.data = gamma_prime * tb.layer_scale_1.data
        db.norm1_beta.data = beta_prime * tb.layer_scale_1.data
        ls2 = tb.layer_scale_2.data
        db.mlp_w2.data = ls2[:, None] * tb.mlp_w2.data
        db.mlp_b2.data = ls2 * tb.mlp_b2.data
    return out


def verify_equivalence(train_model: ModelWeights, deploy_model: ModelWeights,
                       n_probes: int = 100, tol: float = 1e-5,
                       seed: int = 0) -> EquivalenceReport:
    """Compare logits and every block output on `n_probes` random inputs,
    run through both models in chunks of VERIFY_CHUNK."""
    if n_probes < 1:
        raise ValueError(f"need at least one probe, got {n_probes}")
    # written so that a NaN fails the range; an infinite tol passes anything
    if not 0 <= tol < inf:
        raise ValueError(f"tol must be >= 0 and finite, got {tol}")
    if train_model.deploy:
        raise ValueError("train_model is in deploy form; pass the unfused model")
    if not deploy_model.deploy:
        raise ValueError("deploy_model is not in deploy form; fuse it first")
    if train_model.spec != deploy_model.spec:
        raise ValueError("models must share a spec")
    rng = np.random.default_rng(seed)
    res = train_model.spec.input_resolution
    all_layers = frozenset(range(train_model.spec.total_blocks))
    max_diff = 0.0
    sum_diff = 0.0
    count = 0
    for start in range(0, n_probes, VERIFY_CHUNK):
        # one draw of k probes gives the same values as k single draws
        k = min(VERIFY_CHUNK, n_probes - start)
        x = Tensor(rng.normal(0.0, 1.0,
                              (k, train_model.spec.in_channels, res, res)
                              ).astype(np.float32))
        cap_a = CaptureSet.for_layers(all_layers)
        cap_b = CaptureSet.for_layers(all_layers)
        la = forward(train_model, x, capture=cap_a)
        lb = forward(deploy_model, x, capture=cap_b)
        diffs = [np.abs(la.data - lb.data)]
        for i in all_layers:
            diffs.append(np.abs(cap_a.block_out[i].data - cap_b.block_out[i].data))
        for d in diffs:
            max_diff = max(max_diff, float(d.max()))
            sum_diff += float(d.sum())
            count += d.size
    mean_diff = sum_diff / count
    return EquivalenceReport(samples=n_probes, max_abs_diff=max_diff,
                             mean_abs_diff=mean_diff, tolerance=tol,
                             passed=max_diff <= tol)
