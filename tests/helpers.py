"""Shared test utilities: finite-difference gradient checking, tiny specs,
control and observation of the backward worker, and a reference for
gelu's derivative."""
import threading
from contextlib import contextmanager

import numpy as np

import riformer.tensor as T
from riformer import Tape, Tensor, bench
from riformer.models import ModelSpec, StageSpec


def tiny_spec(mixer_kind="affine", **overrides):
    """A 5-block model small enough for per-test training and forwards."""
    stages = [
        StageSpec(depth=1, dim=4, patch_size=7, stride=4),
        StageSpec(depth=1, dim=8, patch_size=3, stride=2),
        StageSpec(depth=2, dim=8, patch_size=3, stride=2),
        StageSpec(depth=1, dim=8, patch_size=3, stride=2),
    ]
    overrides.setdefault("num_classes", 4)
    overrides.setdefault("input_resolution", 32)
    spec = ModelSpec(stages=stages, mixer_kind=mixer_kind, **overrides)
    spec.validate()
    return spec


@contextmanager
def blas_threads(n):
    """numpy's bundled OpenBLAS at n threads for the body, then back."""
    blas = bench._openblas()  # numpy's wheels bundle OpenBLAS
    before = blas.get_threads()
    blas.set_threads(n)
    try:
        assert blas.get_threads() == n
        yield
    finally:
        blas.set_threads(before)  # later tests time forwards at this count


def spy_gradients(monkeypatch):
    """A list that receives (thread name, dtype) for each gradient a
    backward closure returns from here on; a job's entry comes from the
    thread that ran it. The process counts as able to run on two CPUs, so
    whether the worker runs turns on the BLAS thread count alone."""
    seen = []
    record = Tape._record

    def note(gi):
        seen.append((threading.current_thread().name, gi.dtype))
        return gi

    def spy(self, out, inputs, backward_fn):
        def noted(g):
            return tuple(gi if gi is None
                         else (lambda job=gi: note(job())) if callable(gi)
                         else note(gi) for gi in backward_fn(g))
        record(self, out, inputs, noted)

    monkeypatch.setattr(Tape, "_record", spy)
    monkeypatch.setattr(T, "_cpus", lambda: 2)
    return seen


def on_worker(seen):
    """How many of `spy_gradients`' entries the worker thread made."""
    return sum(name.startswith("riformer-worker") for name, _ in seen)


def gelu_phi(x):
    """Phi(x) by gelu's forward operations, in one pass over the whole
    float32 array x rather than in gelu's blocks."""
    u = x.clip(-T._GELU_CLIP, T._GELU_CLIP)
    s = np.square(u)
    h = s * T._GELU_H[0]
    for c in T._GELU_H[1:-1]:
        h += c
        h *= s
    h += T._GELU_H[-1]
    h *= u
    np.tanh(h, out=h)
    phi = h * np.float32(0.5)
    phi += np.float32(0.5)
    return phi


def gelu_grad_reference(x, phi, g):
    """g * (Phi(x) + x pdf(x)), gelu's adjoint at x from a Phi formed apart
    (`gelu_phi`), in one buffer over the whole array: the reference for
    the derivative that gelu's forward forms block by block."""
    t = x.clip(-T._GELU_PDF_CLIP, T._GELU_PDF_CLIP)
    t *= t
    t *= np.float32(-0.5)
    np.exp(t, out=t)
    t *= np.float32(T._INV_SQRT_2PI)
    t *= x
    t += phi.reshape(t.shape)
    t *= g
    return t


def check_gradients(make_loss, params, rng, h=1e-3, tol=1e-3, samples=6,
                    wseed=None):
    """Compare analytic gradients against central finite differences.

    Two calling modes:
      * `wseed is None`: `make_loss` returns a scalar loss Tensor directly.
      * `wseed` given: `make_loss` returns an output Tensor; the loss is a
        fixed random-weighted sum of (output - baseline output). Centering on
        the baseline keeps every finite-difference evaluation at h-scale
        magnitude, so float32 rounding of the scalar does not swamp the
        difference quotient.

    Probes the largest-gradient coordinates of each parameter (best
    signal-to-noise) plus a random sample of the rest, and compares the
    probed gradient vectors at relative L2 error `tol`.
    """
    if wseed is not None:
        make_out = make_loss
        center = Tensor(make_out().data.copy())
        w = Tensor(np.random.default_rng(wseed)
                   .normal(0.0, 1.0, center.shape).astype(np.float32))

        def make_loss():
            return T.tsum(T.mul(T.sub(make_out(), center), w))

    for p in params:
        p.zero_grad()
    with Tape() as tape:
        loss = make_loss()
        tape.backward(loss)

    for p in params:
        assert p.grad is not None, "parameter received no gradient"
        flat = p.data.reshape(-1)
        gflat = p.grad.reshape(-1)
        n = min(samples, flat.size)
        top = np.argsort(-np.abs(gflat))[:max(n // 2, 1)]
        rest = np.setdiff1d(np.arange(flat.size), top)
        extra = rng.choice(rest, size=min(n - top.size, rest.size),
                           replace=False) if rest.size else []
        coords = np.concatenate([top, np.asarray(extra, dtype=top.dtype)])
        n = coords.size
        analytic = np.empty(n)
        numeric = np.empty(n)
        for j, i in enumerate(coords):
            orig = flat[i]
            flat[i] = orig + h
            lp = make_loss().item()
            flat[i] = orig - h
            lm = make_loss().item()
            flat[i] = orig
            numeric[j] = (lp - lm) / (2.0 * h)
            analytic[j] = gflat[i]
        denom = max(np.linalg.norm(analytic), np.linalg.norm(numeric))
        assert denom > 0, "all probed gradient entries were exactly zero"
        rel = np.linalg.norm(analytic - numeric) / denom
        assert rel <= tol, (f"gradient mismatch over {n} probed coordinates: "
                            f"relative error {rel:.3g} (analytic {analytic}, "
                            f"numeric {numeric})")
