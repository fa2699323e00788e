"""Autodiff core: finite-difference gradient checks, hand-derived values,
tape semantics, determinism, and the kernel set."""
import ast
import contextvars
import inspect
import math
import os
import signal
import sys
import threading
import time
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from hypothesis import given, settings
from hypothesis import strategies as st

import riformer.tensor as T
from riformer import (ModelSpec, NumericsError, ShapeError, Tape, TapeError,
                      Tensor, bench, build_model, forward)
from helpers import (blas_threads, check_gradients, gelu_grad_reference,
                     gelu_phi, on_worker, spy_gradients, tiny_spec)

SEEDS = list(range(10))

# (name, input shape, output channels, kernel, stride, pad): the backbone's
# embeds (7x7/4 at 64^2 and at the 128^2 used by the ERF, 3x3/2), a
# non-square input, no padding, an input whose last window ends in the
# far-side padding, batch 1, a 1x1 map, a 1x1 kernel that reaches no
# far-side padding, batch 3, and the nano's first embed at batch 4, whose
# GEMM is past 100^3 multiply-adds
CONV_GEOMETRIES = [
    ("k3s2p1-8x8", (2, 2, 8, 8), 3, 3, 2, 1),
    ("k7s4p2-64x64", (1, 3, 64, 64), 2, 7, 4, 2),
    ("k7s4p2-128x128", (1, 3, 128, 128), 2, 7, 4, 2),
    ("k3s2p1-9x6", (2, 2, 9, 6), 3, 3, 2, 1),
    ("k3s2p0-8x8", (2, 2, 8, 8), 3, 3, 2, 0),
    ("k3s2p1-7x7", (2, 2, 7, 7), 3, 3, 2, 1),
    ("k3s2p1-8x8-b1", (1, 2, 8, 8), 3, 3, 2, 1),
    ("k3s2p1-1x1", (2, 2, 1, 1), 3, 3, 2, 1),
    ("k1s2p0-8x8", (2, 2, 8, 8), 3, 1, 2, 0),
    ("k7s4p2-16x16-b3", (3, 3, 16, 16), 4, 7, 4, 2),
    ("k7s4p2-64x64-b4", (4, 3, 64, 64), 16, 7, 4, 2),
]


def param(rng, *shape, scale=1.0, offset=0.0):
    return Tensor(offset + scale * rng.normal(0.0, 1.0, shape).astype(np.float32),
                  requires_grad=True)


# ---------------------------------------------------------------------------
# Finite-difference gradient suite, 10 seeds per kernel

@pytest.mark.parametrize("seed", SEEDS)
def test_grad_elementwise(seed):
    rng = np.random.default_rng(seed)
    a = param(rng, 3, 4)
    b = param(rng, 3, 4, offset=3.0)
    check_gradients(lambda: T.add(a, b), [a, b], rng, wseed=seed)
    check_gradients(lambda: T.sub(a, b), [a, b], rng, wseed=seed)
    check_gradients(lambda: T.mul(a, b), [a, b], rng, wseed=seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_unary(seed):
    rng = np.random.default_rng(seed)
    x = param(rng, 2, 5)
    check_gradients(lambda: T.gelu(x), [x], rng, wseed=seed)
    # |x| in [4, 7], where Phi saturates and the clip at 6 starts to act:
    # normal inputs rarely reach it
    mag = rng.uniform(4.0, 7.0, (2, 5))
    seam = Tensor((rng.choice([-1.0, 1.0], mag.shape) * mag)
                  .astype(np.float32), requires_grad=True)
    check_gradients(lambda: T.gelu(seam), [seam], rng, wseed=seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_channel_affine(seed):
    rng = np.random.default_rng(seed)
    x = param(rng, 2, 3, 4, 4)
    s = param(rng, 3, offset=1.0)
    t = param(rng, 3)
    wseed = seed + 1
    check_gradients(lambda: T.channel_affine(x, s, t), [x, s, t], rng,
                    wseed=wseed)
    check_gradients(lambda: T.channel_affine(x, s), [x, s], rng, wseed=wseed)


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_reductions(seed):
    rng = np.random.default_rng(seed)
    a = param(rng, 3, 5)
    b = param(rng, 3, 5)
    wseed = seed + 1
    check_gradients(lambda: T.tsum(a), [a], rng, wseed=wseed)
    check_gradients(lambda: T.mse(a, b), [a, b], rng)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("shape", [(2, 3, 2, 4), (2, 6, 1, 3)],
                         ids=["gram_side", "relation_side"])
def test_grad_relation_mse(seed, shape):
    # (N, C, H, W) with C < HW runs through the C x C Grams, C > HW through
    # the HW x HW difference; the tokens are normalized inside the kernel
    rng = np.random.default_rng(seed)
    a = param(rng, *shape, scale=0.5)
    b = param(rng, *shape, scale=0.5)
    check_gradients(lambda: T.relation_mse(a, b), [a, b], rng, wseed=seed + 1)


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_matmul_linear(seed):
    rng = np.random.default_rng(seed)
    x = param(rng, 3, 5)
    w = param(rng, 2, 5)
    bias = param(rng, 2)
    check_gradients(lambda: T.linear(x, w, bias), [x, w, bias], rng,
                    wseed=seed + 1)


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_channel_linear(seed):
    rng = np.random.default_rng(seed)
    x = param(rng, 2, 3, 4, 4)
    w = param(rng, 5, 3)
    b = param(rng, 5)
    wseed = seed + 1
    check_gradients(lambda: T.channel_linear(x, w, b), [x, w, b], rng, wseed=wseed)


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_group_norm(seed):
    rng = np.random.default_rng(seed)
    x = param(rng, 2, 3, 4, 4)
    g = param(rng, 3, scale=0.2, offset=1.0)
    b = param(rng, 3, scale=0.2)
    wseed = seed + 1
    check_gradients(lambda: T.group_norm_1(x, g, b), [x, g, b], rng, wseed=wseed)


def _deploy_weights(rng, c, hidden):
    """A deploy block's eight weights, as constants: norm1's and norm2's
    gamma and beta, w1, b1, w2, b2."""
    shapes = [(c,)] * 4 + [(hidden, c), (hidden,), (c, hidden), (c,)]
    scales = [1.0, 0.5, 1.0, 0.5, c ** -0.5, 0.5, hidden ** -0.5, 0.5]
    return [Tensor(rng.normal(0.0, sc, sh).astype(np.float32))
            for sh, sc in zip(shapes, scales)]


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_deploy_block(seed):
    # only the input gets a gradient; the 1x1 map normalizes 3 elements
    rng = np.random.default_rng(seed)
    for shape in [(2, 3, 4, 4), (2, 3, 1, 1)]:
        x = param(rng, *shape, offset=0.5)
        ws = _deploy_weights(rng, shape[1], 5)
        check_gradients(lambda: T.deploy_block(x, *ws), [x], rng,
                        wseed=seed + 1)


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_avg_pool(seed):
    rng = np.random.default_rng(seed)
    wseed = seed + 1
    for shape, k in [((2, 2, 5, 5), 3), ((2, 2, 4, 7), 5)]:
        x = param(rng, *shape)
        check_gradients(lambda: T.avg_pool_same(x, k), [x], rng, wseed=wseed)


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_conv2d(seed):
    rng = np.random.default_rng(seed)
    for name, shape, cout, k, stride, pad in CONV_GEOMETRIES:
        x = param(rng, *shape)
        w = param(rng, cout, shape[1], k, k, scale=0.5)
        b = param(rng, cout, scale=0.5)
        try:
            check_gradients(lambda: T.conv2d(x, w, b, stride, pad), [x, w, b],
                            rng, wseed=seed + 1)
        except AssertionError as e:
            raise AssertionError(f"geometry {name}: {e}") from None


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_softmax_family(seed):
    rng = np.random.default_rng(seed)
    a = param(rng, 3, 5)
    b = param(rng, 3, 5)
    wseed = seed + 1
    check_gradients(lambda: T.log_softmax(a), [a], rng, wseed=wseed)
    check_gradients(
        lambda: T.kl_div(T.log_softmax(Tensor(b.data)), T.log_softmax(a)),
        [a], rng)


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_spatial_mean(seed):
    rng = np.random.default_rng(seed)
    x = param(rng, 8, 2, 4, 4)
    wseed = seed + 1
    check_gradients(lambda: T.global_spatial_mean(x), [x], rng, wseed=wseed)


# ---------------------------------------------------------------------------
# Hand-derived values

def test_group_norm_hand_case():
    # statistics over all 4 elements of the sample: mean 2.5, var 1.25
    x = Tensor(np.array([1.0, 2.0, 3.0, 4.0], np.float32).reshape(1, 2, 1, 2))
    out = T.group_norm_1(x, Tensor(np.ones(2, np.float32)),
                         Tensor(np.zeros(2, np.float32)))
    expected = np.array([-1.3416, -0.4472, 0.4472, 1.3416])
    np.testing.assert_allclose(out.data.reshape(-1), expected, atol=1e-4)


def test_group_norm_constant_input_outputs_beta():
    x = Tensor(np.full((2, 3, 4, 4), 2.5, np.float32))
    out = T.group_norm_1(x, Tensor(np.ones(3, np.float32)),
                         Tensor(np.full(3, 5.0, np.float32)))
    np.testing.assert_allclose(out.data, 5.0, atol=1e-4)


def test_group_norm_normalizes_per_sample():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(2.0, 3.0, (4, 3, 5, 5)).astype(np.float32))
    out = T.group_norm_1(x, Tensor(np.ones(3, np.float32)),
                         Tensor(np.zeros(3, np.float32)))
    means = out.data.mean(axis=(1, 2, 3))
    stds = out.data.std(axis=(1, 2, 3))
    np.testing.assert_allclose(means, 0.0, atol=1e-5)
    np.testing.assert_allclose(stds, 1.0, atol=1e-3)


def test_gelu_matches_float64_reference():
    # a dense float32 grid, many GELU blocks long, against x * Phi(x) in
    # float64, Phi(x) = erfc(-x / sqrt 2) / 2 from the math module; the
    # bound is the one gelu's docstring states
    x = np.linspace(-10.0, 10.0, 2_000_001, dtype=np.float32)
    out = T.gelu(Tensor(x)).data.astype(np.float64)
    x64 = x.astype(np.float64)
    phi = 0.5 * np.array([math.erfc(v) for v in (-x64 / math.sqrt(2)).tolist()])
    err = np.abs(out - x64 * phi) / np.maximum(1.0, np.abs(x64))
    assert err.max() <= 3e-7, f"max scaled error {err.max():.3g}"


# a dense grid over three GELU blocks and a partial one
GELU_GRID = np.linspace(-10.0, 10.0, 3 * T._GELU_BLOCK + 7, dtype=np.float32)


def test_gelu_gradient_matches_float64_reference_across_blocks():
    # the backward reads the derivative kept from every forward block:
    # d/dx x Phi(x) = Phi(x) + x pdf(x) over several blocks
    x = GELU_GRID
    xt = Tensor(x, requires_grad=True)
    with Tape() as tape:
        tape.backward(T.tsum(T.gelu(xt)))
    x64 = x.astype(np.float64)
    phi = 0.5 * np.array([math.erfc(v) for v in (-x64 / math.sqrt(2)).tolist()])
    ref = phi + x64 * np.exp(-0.5 * x64 ** 2) / math.sqrt(2 * math.pi)
    assert np.abs(xt.grad - ref).max() <= 1e-6


def test_gelu_gradient_bytes_match_the_one_pass_reference():
    # the derivative formed block by block in the forward, times g, gives
    # the bytes of Phi and the pdf term formed over the whole array
    x = GELU_GRID
    g = np.random.default_rng(0).normal(0, 1, x.shape).astype(np.float32)
    phi = gelu_phi(x)
    assert np.array_equal(T.gelu(Tensor(x)).data, x * phi)
    xt = Tensor(x, requires_grad=True)
    with Tape() as tape:
        tape.backward(T.tsum(T.mul(T.gelu(xt), Tensor(g))))
    assert xt.grad.tobytes() == gelu_grad_reference(x, phi, g).tobytes()


def test_recorded_gelu_backward_is_pure():
    # the closure multiplies the kept derivative out of place, so a second
    # call reads the same array and returns the same bytes
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(0, 3, (2, 3, 5, 5)).astype(np.float32),
               requires_grad=True)
    g = rng.normal(0, 1, x.shape).astype(np.float32)
    with Tape() as tape:
        T.gelu(x)
        bwd, _ = tape._nodes[-1]
    first, = bwd(g)
    second, = bwd(g)
    assert first is not second and first.tobytes() == second.tobytes()
    assert first.tobytes() == gelu_grad_reference(
        x.data, gelu_phi(x.data), g).tobytes()


def test_gelu_tails_are_exact_and_sign_correct():
    zero_and_below = -np.concatenate([
        np.linspace(0.0, 10.0, 100_001),
        np.geomspace(np.finfo(np.float32).smallest_subnormal, 3.4e38, 10_001),
    ]).astype(np.float32)
    assert (T.gelu(Tensor(zero_and_below)).data <= 0).all()
    far = np.geomspace(6.0, 3.4e38, 100_001).astype(np.float32)
    assert (np.abs(T.gelu(Tensor(-far)).data) <= 3e-7).all()
    assert np.array_equal(T.gelu(Tensor(far)).data, far)


def test_gelu_no_input_warns():
    tiny = np.finfo(np.float32).smallest_subnormal
    x = np.array([0.0, tiny, 1e-40, 1e19, 1e30, 3.4e38], np.float32)
    x = np.concatenate([x, -x])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = T.gelu(Tensor(x)).data
    assert np.isfinite(out).all()


def test_gelu_backward_no_input_warns():
    # x^2 overflows float32 beyond about 1.8e19; the gradient is Phi(x) +
    # x pdf(x), exactly 1 on the far right and 0 on the far left
    x = np.array([1e20, 3.4e38], np.float32)
    x = Tensor(np.concatenate([x, -x]), requires_grad=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with Tape() as tape:
            tape.backward(T.tsum(T.gelu(x)))
    np.testing.assert_array_equal(x.grad, [1.0, 1.0, 0.0, 0.0])


def test_gelu_polynomial_is_positive_on_the_clip_range():
    # h > 0 on [0, clip^2] gives u h(u^2) the sign of x; evaluated in
    # float64 from the shipped float32 coefficients, on a grid and by its
    # real roots
    h = np.array(T._GELU_H, np.float64)
    clip2 = float(T._GELU_CLIP) ** 2
    assert np.polyval(h, np.linspace(0.0, clip2, 100_001)).min() > 0
    roots = np.roots(h)
    real = roots[np.abs(roots.imag) < 1e-9].real
    assert not ((real >= 0) & (real <= clip2)).any()


def test_group_norm_matches_four_pass_reference():
    # the one multiply-add output against gamma * (x - mu) * istd + beta,
    # evaluated in float64 from the same float32 inputs
    rng = np.random.default_rng(3)
    for shape in [(2, 3, 4, 4), (4, 16, 16, 16), (3, 128, 2, 2)]:
        x = rng.normal(0.5, 2.0, shape).astype(np.float32)
        g = rng.normal(1.0, 0.3, shape[1]).astype(np.float32)
        b = rng.normal(0.0, 0.3, shape[1]).astype(np.float32)
        x64 = x.astype(np.float64)
        mu = x64.mean(axis=(1, 2, 3), keepdims=True)
        var = x64.var(axis=(1, 2, 3), keepdims=True)
        ref = (g[None, :, None, None] * (x64 - mu) / np.sqrt(var + 1e-5)
               + b[None, :, None, None])
        out = T.group_norm_1(Tensor(x), Tensor(g), Tensor(b)).data
        np.testing.assert_allclose(out, ref, rtol=1e-6, atol=1e-6)


def test_avg_pool_valid_count_boundaries():
    # windows clipped to the image: [1,2]/2, [1,2,3]/3, [2,3]/2
    x = Tensor(np.array([1.0, 2.0, 3.0], np.float32).reshape(1, 1, 1, 3))
    out = T.avg_pool_same(x, 3)
    np.testing.assert_allclose(out.data.reshape(-1), [1.5, 2.0, 2.5], atol=1e-6)


def test_avg_pool_brute_force_oracle():
    # the float64 mean of each clipped window, rounded once to float32
    rng = np.random.default_rng(3)
    for h, w in [(6, 7), (16, 16), (8, 8), (4, 4), (2, 2), (5, 9), (9, 5),
                 (1, 7)]:
        x = rng.normal(0, 1, (2, 3, h, w)).astype(np.float32)
        for k in (1, 3, 5, 7, 21):
            p = k // 2
            out = T.avg_pool_same(Tensor(x), k).data
            expect = np.zeros(x.shape)
            for i in range(h):
                for j in range(w):
                    r = x[:, :, max(i - p, 0):i + p + 1, max(j - p, 0):j + p + 1]
                    expect[:, :, i, j] = r.astype(np.float64).mean(axis=(2, 3))
            np.testing.assert_array_max_ulp(out, expect.astype(np.float32),
                                            maxulp=1)


def test_avg_pool_k1_identity_and_even_k_rejected():
    x = Tensor(np.arange(8, dtype=np.float32).reshape(1, 2, 2, 2))
    np.testing.assert_array_equal(T.avg_pool_same(x, 1).data, x.data)
    with pytest.raises(ValueError):
        T.avg_pool_same(x, 2)


def test_conv2d_matches_brute_force():
    rng = np.random.default_rng(1)
    for name, shape, cout, k, s, p in CONV_GEOMETRIES:
        x = rng.normal(0, 1, shape).astype(np.float32)
        w = rng.normal(0, 1, (cout, shape[1], k, k)).astype(np.float32)
        b = rng.normal(0, 1, cout).astype(np.float32)
        out = T.conv2d(Tensor(x), Tensor(w), Tensor(b), s, p).data
        # brute force with edge-replicate padding
        xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)), mode="edge")
        oh = (shape[2] + 2 * p - k) // s + 1
        ow = (shape[3] + 2 * p - k) // s + 1
        expect = np.zeros((shape[0], cout, oh, ow))
        for i in range(oh):
            for j in range(ow):
                patch = xp[:, :, s * i:s * i + k, s * j:s * j + k]
                expect[:, :, i, j] = np.einsum("ncij,dcij->nd", patch, w) + b
        np.testing.assert_allclose(out, expect, atol=1e-4, err_msg=name)


def _plain_im2col_conv2d(x, w, b, s, p):
    """conv2d as a plain im2col: np.pad, then a sliding-window gather into
    row-major columns, a row per (output position, sample). Returns the
    output and the columns."""
    n, cin, h, wd = x.shape
    cout, _, k, _ = w.shape
    oh = (h + 2 * p - k) // s + 1
    ow = (wd + 2 * p - k) // s + 1
    ph = max((oh - 1) * s + k - p - h, 0)
    pw = max((ow - 1) * s + k - p - wd, 0)
    xp = np.pad(x, ((0, 0), (0, 0), (p, ph), (p, pw)), mode="edge")
    win = sliding_window_view(xp, (k, k), axis=(2, 3))
    win = win[:, :, :(oh - 1) * s + 1:s, :(ow - 1) * s + 1:s]
    cols = win.transpose(2, 3, 0, 1, 4, 5).reshape(oh * ow * n, cin * k * k)
    out = cols @ w.reshape(cout, -1).T
    out += b
    return out.reshape(oh, ow, n, cout).transpose(2, 3, 0, 1), cols


def test_conv2d_matches_plain_im2col():
    # the edge-padded grid and the slab-copied column buffer move values
    # only. A GEMM past 100^3 multiply-adds packs its operands, so there the
    # output and the weight gradient, the two GEMMs that read the columns,
    # keep the plain im2col's bytes; a smaller one may sum the transposed
    # columns in another order and differ in the last bits
    rng = np.random.default_rng(2)
    for name, shape, cout, k, s, p in CONV_GEOMETRIES:
        x = rng.normal(0, 1, shape).astype(np.float32)
        w = Tensor(rng.normal(0, 1, (cout, shape[1], k, k)), requires_grad=True)
        b = rng.normal(0, 1, cout).astype(np.float32)
        with Tape() as tape:
            out = T.conv2d(Tensor(x), w, Tensor(b), s, p)
            g = rng.normal(0, 1, out.shape).astype(np.float32)
            tape.backward(T.tsum(T.mul(out, Tensor(g))))
        expect, cols = _plain_im2col_conv2d(x, w.data, b, s, p)
        gw = (g.transpose(1, 2, 3, 0).reshape(cout, -1) @ cols).reshape(w.shape)
        for got, ref in ((out.data, expect), (w.grad, gw)):
            if cols.size * cout > 100 ** 3:
                assert np.array_equal(got, ref), name
            else:
                np.testing.assert_allclose(got, ref, rtol=0, err_msg=name,
                                           atol=1e-5 * np.abs(ref).max())


@pytest.mark.parametrize("stride,pad", [(2, -1), (0, 1), (-1, 0)])
def test_conv2d_rejects_negative_pad_and_stride_below_one(stride, pad):
    x = Tensor(np.zeros((1, 2, 8, 8), np.float32))
    w = Tensor(np.zeros((3, 2, 3, 3), np.float32))
    with pytest.raises(ShapeError, match="pad >= 0 and stride >= 1"):
        T.conv2d(x, w, Tensor(np.zeros(3, np.float32)), stride, pad)


def test_conv2d_rejects_a_window_larger_than_the_padded_input():
    x = Tensor(np.zeros((1, 2, 2, 2), np.float32))
    w = Tensor(np.zeros((3, 2, 5, 5), np.float32))
    with pytest.raises(ShapeError, match="does not fit"):
        T.conv2d(x, w, Tensor(np.zeros(3, np.float32)), 1, 1)


# (kernel, input shapes); each input is trained alone and together with the
# others, and must get the same gradient bytes either way
MASKED_KERNELS = {
    "conv2d": (lambda a: T.conv2d(*a, 4, 2), [(2, 3, 16, 16), (4, 3, 7, 7), (4,)]),
    "channel_linear": (lambda a: T.channel_linear(*a), [(2, 3, 4, 4), (5, 3), (5,)]),
    "channel_affine": (lambda a: T.channel_affine(*a), [(2, 3, 4, 4), (3,), (3,)]),
    "mul": (lambda a: T.mul(*a), [(3, 4), (3, 4)]),
    "linear": (lambda a: T.linear(*a), [(3, 5), (2, 5), (2,)]),
    "mse": (lambda a: T.mse(*a), [(3, 4), (3, 4)]),
    "relation_mse": (lambda a: T.relation_mse(*a),
                     [(2, 3, 2, 3), (2, 3, 2, 3)]),
    "relation_mse_p_le_c": (lambda a: T.relation_mse(*a),
                            [(2, 5, 1, 3), (2, 5, 1, 3)]),
    # deploy weights are constants, so only x is listed
    "deploy_block": (lambda a: T.deploy_block(
        *a, *_deploy_weights(np.random.default_rng(4), 3, 5)), [(2, 3, 4, 4)]),
}


@pytest.mark.parametrize("kernel", sorted(MASKED_KERNELS))
def test_needs_grad_mask_is_exact(kernel, monkeypatch):
    seen = spy_gradients(monkeypatch)
    fn, shapes = MASKED_KERNELS[kernel]
    rng = np.random.default_rng(0)
    arrays = [rng.normal(0, 1, s).astype(np.float32) for s in shapes]
    weight = rng.normal(0, 1, fn([Tensor(a) for a in arrays]).shape)

    def grads(trained, threads):
        ts = [Tensor(a, requires_grad=i in trained) for i, a in enumerate(arrays)]
        with blas_threads(threads), Tape() as tape:
            out = fn(ts)
            # the kernel's node, taken before the backward drops it
            kernel_bwd, _ = tape._nodes[0]
            tape.backward(T.tsum(T.mul(out, Tensor(weight))))
        # the kernel's own backward skips the constants, listed or not, and
        # a job it returns for the others yields the input's shape
        got = [g() if callable(g) else g
               for g in kernel_bwd(np.ones_like(weight))]
        assert [g is None for g in got] == [i not in trained
                                            for i in range(len(got))]
        assert all(g.shape == a.shape
                   for g, a in zip(got, arrays) if g is not None)
        return [t.grad for t in ts]

    # jobs run inline at 2 BLAS threads and on the worker at 1
    every = grads(set(range(len(arrays))), 2)
    for threads in (2, 1):
        for i in range(len(arrays)):
            alone = grads({i}, threads)
            assert np.array_equal(alone[i], every[i]), f"input {i}"
            assert all(g is None for j, g in enumerate(alone) if j != i)
    assert (on_worker(seen) > 0) == (
        kernel in ("conv2d", "channel_linear", "channel_affine"))


def test_constant_operand_keeps_gradient_positions():
    # a plain-array constant ahead of a Tensor must not shift which input
    # each backward output is credited to
    x = Tensor(np.array([2.0, 3.0], np.float32), requires_grad=True)
    with Tape() as tape:
        tape.backward(T.tsum(T.sub(2.0, x)))
    np.testing.assert_array_equal(x.grad, [-1.0, -1.0])

    rng = np.random.default_rng(5)
    image = rng.normal(0, 1, (2, 3, 8, 8)).astype(np.float32)
    w = param(rng, 4, 3, 3, 3)
    b = param(rng, 4)
    grads = []
    for x in (image, Tensor(image)):
        w.zero_grad()
        b.zero_grad()
        with Tape() as tape:
            tape.backward(T.tsum(T.conv2d(x, w, b, 2, 1)))
        grads.append((w.grad, b.grad))
    for got, want in zip(*grads):
        assert np.array_equal(got, want)


def test_softmax_log_softmax_consistent():
    rng = np.random.default_rng(2)
    x = rng.normal(0, 3, (4, 6)).astype(np.float32)
    e = np.exp(x.astype(np.float64) - x.max(axis=-1, keepdims=True))
    softmax = e / e.sum(axis=-1, keepdims=True)
    np.testing.assert_allclose(np.exp(T.log_softmax(Tensor(x)).data), softmax,
                               atol=1e-6)


def test_kl_div_brute_force():
    p_logits = np.array([[1.0, 0.0]], np.float32)
    q_logits = np.array([[0.0, 1.0]], np.float32)
    lp = T.log_softmax(Tensor(p_logits))
    lq = T.log_softmax(Tensor(q_logits))
    p = np.exp(lp.data.astype(np.float64))
    expect = (p * (lp.data - lq.data)).sum()
    assert abs(T.kl_div(lp, lq).item() - expect) < 1e-7


def test_mse_double_loop_oracle():
    rng = np.random.default_rng(4)
    a = rng.normal(0, 1, (3, 4)).astype(np.float32)
    b = rng.normal(0, 1, (3, 4)).astype(np.float32)
    acc = 0.0
    for i in range(3):
        for j in range(4):
            acc += (float(a[i, j]) - float(b[i, j])) ** 2
    assert abs(T.mse(Tensor(a), Tensor(b)).item() - acc / 12) < 1e-6


def _relation_mse_brute_force(a, b):
    """The relation MSE of two (N, C, H, W) float64 arrays, one token and one
    relation entry at a time: each token divided by its guarded norm
    sqrt(sum x^2 + 1e-24) + 1e-12, then every P x P entry formed."""
    n, c = a.shape[:2]
    units = []
    for x in (a, b):
        t = x.reshape(n, c, -1)
        u = np.empty_like(t)
        for k, i in np.ndindex(n, t.shape[2]):
            u[k, :, i] = t[k, :, i] / (math.sqrt(t[k, :, i] @ t[k, :, i]
                                                 + 1e-24) + 1e-12)
        units.append(u)
    ua, ub = units
    p = ua.shape[2]
    acc = 0.0
    for k, i, j in np.ndindex(n, p, p):
        acc += (ua[k, :, i] @ ua[k, :, j] - ub[k, :, i] @ ub[k, :, j]) ** 2
    return acc / (n * p * p)


@pytest.mark.parametrize("shape,zero_token",
                         [((2, 3, 2, 5), False), ((2, 7, 3, 1), False),
                          ((3, 4, 2, 2), False), ((2, 5, 1, 1), False),
                          ((2, 3, 2, 3), True)],
                         ids=["c_lt_p", "c_gt_p", "c_eq_p", "p_1",
                              "zero_token"])
def test_relation_mse_brute_force_oracle(shape, zero_token):
    # b close to a, so the Gram-side terms nearly cancel
    rng = np.random.default_rng(6)
    a = rng.normal(0, 1, shape).astype(np.float32)
    b = (a + rng.normal(0, 0.01, shape)).astype(np.float32)
    # the guard's region: FD steps there would cross the 1e-12 scale on
    # which the normalization bends, so no coordinate of it is probed
    guarded = np.zeros(shape, bool)
    if zero_token:
        a[0, :, 0, 0] = 0.0
        guarded[0, :, 0, 0] = True
    inputs = [a.astype(np.float64), b.astype(np.float64)]
    ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
    with Tape() as tape:
        loss = T.relation_mse(ta, tb)
        tape.backward(loss)
    # evaluated in float64 and rounded once: within one float32 rounding
    assert loss.item() == pytest.approx(_relation_mse_brute_force(*inputs),
                                        rel=2 ** -23)
    # the gradients against float64 central differences of the brute force
    h = 1e-6
    for x, t, skip in ((inputs[0], ta, guarded),
                       (inputs[1], tb, np.zeros(shape, bool))):
        assert np.isfinite(t.grad).all()
        coords = rng.choice(np.flatnonzero(~skip), size=6, replace=False)
        flat = x.reshape(-1)
        numeric = []
        for i in coords:
            orig = flat[i]
            flat[i] = orig + h
            lp = _relation_mse_brute_force(*inputs)
            flat[i] = orig - h
            lm = _relation_mse_brute_force(*inputs)
            flat[i] = orig
            numeric.append((lp - lm) / (2 * h))
        err = np.linalg.norm(t.grad.reshape(-1)[coords] - numeric)
        assert err <= 1e-5 * np.linalg.norm(numeric) + 1e-12
    assert T.relation_mse(Tensor(a), Tensor(a.copy())).item() == 0.0


def _norm64(v, gamma, beta):
    """group_norm_1 in float64, and its per-(n, c) scale and shift."""
    mu = v.mean(axis=(1, 2, 3))
    a = gamma / np.sqrt(v.var(axis=(1, 2, 3)) + 1e-5)[:, None]
    shift = beta - mu[:, None] * a
    return v * a[:, :, None, None] + shift[:, :, None, None], a, shift


def _gelu64(v):
    phi = [math.erfc(t) / 2 for t in (-v.ravel() / math.sqrt(2)).tolist()]
    return v * np.reshape(phi, v.shape)


def _deploy_block_reference(x, g1, be1, g2, be2, w1, b1, w2, b2):
    """The six kernels a deploy block ran before it was one kernel (the
    residual norm, the norm, both linear maps, GELU and the add), in
    float64; and the magnitude of what float32 sums into each output: the
    terms of the norm2 scale-and-shift x (A a2) + (c1 a2 + c2) of the
    first map's input, through both maps' absolute weights, plus those
    of the residual x A + c1 + b2."""
    x, g1, be1, g2, be2, w1, b1, w2, b2 = (
        v.astype(np.float64) for v in (x, g1, be1, g2, be2, w1, b1, w2, b2))
    norm1, a1, c1 = _norm64(x, g1, be1)
    y = x + norm1
    z, a2, c2 = _norm64(y, g2, be2)
    pre = np.einsum("kc,nchw->nkhw", w1, z) + b1[:, None, None]
    out = y + np.einsum("ck,nkhw->nchw", w2, _gelu64(pre)) + b2[:, None, None]
    big_a = 1.0 + a1

    def col(v):
        return v[:, :, None, None]

    zmag = np.abs(x * col(big_a * a2)) + np.abs(col(c1 * a2 + c2))
    hmag = np.einsum("kc,nchw->nkhw", np.abs(w1), zmag) + np.abs(b1)[:, None, None]
    omag = (np.einsum("ck,nkhw->nchw", np.abs(w2), hmag)
            + np.abs(x * col(big_a)) + np.abs(col(c1) + b2[:, None, None]))
    return out, omag


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 6),
       st.sampled_from([(1, 1), (2, 2), (1, 3), (4, 4)]), st.integers(1, 8),
       st.floats(0.0, 1e3), st.integers(0, 2 ** 31 - 1))
def test_deploy_block_matches_six_kernel_float64_reference(n, c, hw, hidden,
                                                           offset, seed):
    # per-sample means up to 1e3 and spreads from 0.01 to 10, where
    # cancellation in E[y^2] - mu^2 would show. The bound is a few float32
    # roundings of the magnitudes summed into each output
    rng = np.random.default_rng(seed)
    spread = np.exp(rng.uniform(np.log(0.01), np.log(10.0), (n, 1, 1, 1)))
    x = (rng.uniform(-offset, offset, (n, 1, 1, 1))
         + spread * rng.normal(0.0, 1.0, (n, c, *hw))).astype(np.float32)
    ws = _deploy_weights(rng, c, hidden)
    out = T.deploy_block(Tensor(x), *ws).data
    ref, omag = _deploy_block_reference(x, *(w.data for w in ws))
    err = np.abs(out - ref) / (1.0 + omag)
    assert err.max() <= 1e-6, f"scaled error {err.max():.3g}"


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.sampled_from([3, 8, 16]),
       st.sampled_from([(1, 1), (2, 2), (4, 4), (8, 8)]), st.booleans(),
       st.integers(0, 2 ** 31 - 1))
def test_deploy_block_is_batch_invariant(n, c, hw, huge_mate, seed):
    # no statistic mixes samples: each row of a batch's output holds the
    # bytes of deploy_block on that sample alone, also beside a batch mate
    # scaled by 1e30
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 1.0, (n, c, *hw)).astype(np.float32)
    if huge_mate:
        x[rng.integers(n)] *= np.float32(1e30)
    ws = _deploy_weights(rng, c, 4 * c)
    out = T.deploy_block(Tensor(x), *ws).data
    for i in range(n):
        alone = T.deploy_block(Tensor(x[i:i + 1]), *ws).data
        assert out[i:i + 1].tobytes() == alone.tobytes(), f"row {i}"


def _extreme_magnitude_samples():
    # a sample holding +-2^64, whose float32 squares would overflow, one
    # scaled to 1e30, and one with mean 1e3 and spread 0.01, where float32
    # squares would cancel
    rng = np.random.default_rng(0)
    x = rng.normal(0.0, 1.0, (3, 3, 4, 4))
    x[0, 2, 1, 0], x[0, 0, 3, 2] = -2.0 ** 64, 2.0 ** 64
    x[1] *= 1e30
    x[2] = 1e3 + 0.01 * x[2]
    return x.astype(np.float32), _deploy_weights(rng, 3, 4)


def test_group_norm_statistics_match_float64_at_extreme_magnitudes():
    # group_norm_1 takes a sample's statistics from exact float64 squares:
    # it does not warn, and the bound is the deploy reference test's, a few
    # float32 roundings of the magnitudes summed into each output
    x, ws = _extreme_magnitude_samples()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = T.group_norm_1(Tensor(x), *ws[:2]).data
    x64 = x.astype(np.float64)
    ref, a, shift = _norm64(x64, *(w.data.astype(np.float64)
                                   for w in ws[:2]))
    mag = np.abs(x64 * a[:, :, None, None]) + np.abs(shift[:, :, None, None])
    err = np.abs(out - ref) / (1.0 + mag)
    assert err.max() <= 1e-6, f"scaled error {err.max():.3g}"


def test_deploy_block_statistics_match_float64_at_extreme_magnitudes():
    # deploy_block on the same samples, against its float64 reference
    x, ws = _extreme_magnitude_samples()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = T.deploy_block(Tensor(x), *ws).data
    ref, mag = _deploy_block_reference(x, *(w.data for w in ws))
    err = np.abs(out - ref) / (1.0 + mag)
    assert err.max() <= 1e-6, f"scaled error {err.max():.3g}"


def test_deploy_block_overflowing_hidden_activation_raises():
    # a w1 that sends the hidden activation past float32: inf and NaN run
    # through GELU and the second map, and the output check catches them
    rng = np.random.default_rng(1)
    ws = _deploy_weights(rng, 3, 4)
    ws[4] = Tensor(np.full((4, 3), 3e38, np.float32))
    x = Tensor(rng.normal(0, 1, (2, 3, 4, 4)).astype(np.float32))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NumericsError, match="kernel output"):
        T.deploy_block(x, *ws)


def test_deploy_block_weights_take_no_gradient():
    # a deploy weight that asks for a gradient under a tape is an error, not
    # a gradient of None; outside a tape it is only read
    rng = np.random.default_rng(2)
    x = Tensor(rng.normal(0, 1, (1, 3, 2, 2)).astype(np.float32),
               requires_grad=True)
    for i in range(8):
        ws = _deploy_weights(rng, 3, 4)
        ws[i].requires_grad = True
        T.deploy_block(x, *ws)
        with Tape(), pytest.raises(TapeError, match="no gradient"):
            T.deploy_block(x, *ws)


def test_deploy_block_shapes_checked():
    rng = np.random.default_rng(3)
    x = Tensor(np.zeros((1, 3, 2, 2), np.float32))
    ws = _deploy_weights(rng, 3, 4)
    for i, shape in enumerate([(4,), (2,), (1,), (3, 1), (4, 2), (3,),
                               (4, 4), (4,)]):
        bad = list(ws)
        bad[i] = Tensor(np.zeros(shape, np.float32))
        with pytest.raises(ShapeError):
            T.deploy_block(x, *bad)
    with pytest.raises(ShapeError):
        T.deploy_block(Tensor(np.zeros((3, 2, 2), np.float32)), *ws)


# ---------------------------------------------------------------------------
# Tape semantics

def test_sum_gradient_is_ones():
    x = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3), requires_grad=True)
    with Tape() as tape:
        loss = T.tsum(x)
        tape.backward(loss)
    np.testing.assert_array_equal(x.grad, np.ones((2, 3), np.float32))


def test_mse_at_minimum_gradient_zero():
    x = Tensor(np.ones((2, 2), np.float32), requires_grad=True)
    with Tape() as tape:
        loss = T.mse(x, Tensor(np.ones((2, 2), np.float32)))
        tape.backward(loss)
    np.testing.assert_array_equal(x.grad, np.zeros((2, 2), np.float32))


def test_reused_leaf_accumulates_once_per_backward():
    x = Tensor(np.array([2.0], np.float32), requires_grad=True)
    with Tape() as tape:
        y = T.mul(x, x)  # dy/dx = 2x = 4
        loss = T.tsum(y)
        tape.backward(loss)
    np.testing.assert_allclose(x.grad, [4.0])


def test_double_backward_rejected():
    # a tape records one backward pass
    x = Tensor(np.ones(3, np.float32), requires_grad=True)
    with Tape() as tape:
        loss = T.tsum(x)
        tape.backward(loss)
        with pytest.raises(TapeError, match="already consumed"):
            tape.backward(loss)


def test_backward_on_unrecorded_tensor_rejected():
    x = Tensor(np.ones(1, np.float32), requires_grad=True)
    with Tape() as tape:
        with pytest.raises(TapeError):
            tape.backward(x)


def test_loss_made_under_another_tape_rejected():
    # the other tape's loss sits at a node index this tape also has
    x = Tensor(np.ones(3, np.float32), requires_grad=True)
    with Tape() as first:
        other = T.tsum(x)
    with Tape() as tape:
        loss = T.tsum(T.mul(x, 2.0))
        with pytest.raises(TapeError, match="not produced under this tape"):
            tape.backward(other)
        tape.backward(loss)
    with pytest.raises(TapeError, match="not produced under this tape"):
        first.backward(loss)
    np.testing.assert_array_equal(x.grad, [2.0, 2.0, 2.0])


@pytest.mark.parametrize("mixer,kernel", [("pooling", "avg_pool_same"),
                                          ("affine", "channel_affine")])
def test_outputs_no_closure_reads_are_freed_during_the_forward(
        mixer, kernel, monkeypatch):
    # the pooled map feeds only pooling_mixer's sub, and each channel_affine
    # result (the affine mixer's, the layer scales') only a sub or an add,
    # whose backward closures keep nothing: the tape keeps none of them
    refs = []
    real = getattr(T, kernel)

    def spy(*args):
        out = real(*args)
        refs.append(weakref.ref(out.data))
        return out

    monkeypatch.setattr(T, kernel, spy)
    model = build_model(tiny_spec(mixer), seed=0)
    x = Tensor(np.random.default_rng(0).normal(0, 1, (2, 3, 32, 32)))
    with Tape() as tape:
        loss = T.tsum(forward(model, x))
        assert len(refs) >= 5 and all(r() is None for r in refs)
        tape.backward(loss)
    assert all(p.grad is not None for _, p in model.named_parameters())


def test_recorded_gelu_input_is_freed_once_dropped():
    x = Tensor(np.linspace(-4.0, 4.0, 24, dtype=np.float32),
               requires_grad=True)
    with Tape() as tape:
        h = T.mul(x, 2.0)
        ref = weakref.ref(h.data)
        y = T.gelu(h)
        del h
        assert ref() is None
        tape.backward(T.tsum(y))
    x2 = 2.0 * x.data
    assert x.grad.tobytes() == (gelu_grad_reference(
        x2, gelu_phi(x2), np.float32(1.0)) * np.float32(2.0)).tobytes()


def test_backward_drops_every_node():
    x = Tensor(np.linspace(-4.0, 4.0, 24, dtype=np.float32),
               requires_grad=True)
    with Tape() as tape:
        loss = T.tsum(T.gelu(T.mul(x, 2.0)))
        closures = [weakref.ref(fn) for fn, _ in tape._nodes]
        tape.backward(loss)
    assert not tape._nodes
    assert len(closures) == 3 and all(r() is None for r in closures)
    # also when a closure raises with nodes still to run
    with Tape() as tape:
        bad = T._apply(x.data, (T.mul(x, 2.0),), lambda g: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            tape.backward(T.tsum(bad))
    assert not tape._nodes


def test_backward_frees_each_node_before_the_next_runs():
    # the second node's closure keeps `saved`; by the time the first node's
    # closure runs, the second node and its arrays are gone
    x = Tensor(np.ones(3, np.float32), requires_grad=True)
    saved = np.full(3, 2.0, np.float32)
    ref, alive = weakref.ref(saved), []
    with Tape() as tape:
        a = T._apply(x.data * 1.0, (x,),
                     lambda g: (alive.append(ref() is not None) or g,))
        b = T._apply(a.data * saved, (a,), lambda g, s=saved: (g * s,))
        del saved
        tape.backward(T.tsum(b))
    assert alive == [False]
    np.testing.assert_array_equal(x.grad, [2.0, 2.0, 2.0])


def test_an_output_does_not_keep_its_tape_alive():
    x = Tensor(np.ones(3, np.float32), requires_grad=True)
    with Tape() as tape:
        y = T.mul(x, 2.0)
    ref = weakref.ref(tape)
    del tape
    assert ref() is None
    # y's stamp names node 0 of a dead tape, not node 0 of the next one:
    # there y is a leaf
    with Tape() as again:
        again.backward(T.tsum(T.mul(y, 3.0)))
    np.testing.assert_array_equal(y.grad, [3.0, 3.0, 3.0])
    assert x.grad is None


def test_non_scalar_backward_rejected():
    x = Tensor(np.ones(3, np.float32), requires_grad=True)
    with Tape() as tape:
        y = T.mul(x, 2.0)
        with pytest.raises(ShapeError):
            tape.backward(y)


def test_no_tape_means_constant_outputs():
    x = Tensor(np.ones(3, np.float32), requires_grad=True)
    y = T.mul(x, 2.0)
    assert not y.requires_grad


def test_weight_gradients_produced_on_the_tape(monkeypatch):
    # weight-position inputs computed by kernels: the node that produced one
    # reads its gradient mid-chain, and a weight used twice sums two jobs
    seen = spy_gradients(monkeypatch)
    rng = np.random.default_rng(3)
    x = param(rng, 2, 4, 8, 8)
    w, b = param(rng, 4, 4, 3, 3, scale=0.3), param(rng, 4)
    lw, lb = param(rng, 4, 4, scale=0.5), param(rng, 4)
    s, t = param(rng, 4, offset=1.0), param(rng, 4)

    def make():
        h = T.conv2d(x, T.mul(w, 0.5), T.add(b, b), 2, 1)
        half = T.mul(lw, 0.5)
        h = T.channel_linear(T.channel_linear(h, half, lb), half, lb)
        return T.channel_affine(h, T.mul(s, 2.0), T.sub(t, 0.5))

    with blas_threads(1):
        check_gradients(make, [x, w, b, lw, lb, s, t], rng, wseed=3)
    assert on_worker(seen) >= 8


def test_a_failing_job_raises_from_backward_after_every_job_ends(monkeypatch):
    monkeypatch.setattr(T, "_cpus", lambda: 2)
    ran = []

    def failing():
        raise RuntimeError("job failed")

    def slow():
        time.sleep(0.2)
        ran.append(threading.current_thread().name)
        return np.ones(3, np.float32)

    a, b = (Tensor(np.ones(3, np.float32), requires_grad=True) for _ in "ab")
    with blas_threads(1), Tape() as tape:
        # a's gradient fails at once, while b's is still being computed
        out = T._apply(a.data + b.data, (a, b), lambda g: (failing, slow))
        with pytest.raises(RuntimeError, match="job failed"):
            tape.backward(T.tsum(out))
    assert len(ran) == 1 and ran[0].startswith("riformer-worker")
    assert a.grad is None and b.grad is None
    assert not tape._nodes


def test_jobs_run_in_the_callers_numpy_error_state(monkeypatch):
    # the scale's gradient, 16 * 3e38, overflows on the worker
    seen = spy_gradients(monkeypatch)
    x = Tensor(np.full((1, 1, 4, 4), 3e38, np.float32))
    s = Tensor(np.full(1, 1e-30, np.float32), requires_grad=True)
    with blas_threads(1), warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="ignore"), Tape() as tape:
            tape.backward(T.tsum(T.channel_affine(x, s)))
    assert on_worker(seen) == 1
    assert s.grad[0] == np.inf


def _linear_backward(seed=0):
    rng = np.random.default_rng(seed)
    x, w, b = param(rng, 2, 3, 4, 4), param(rng, 5, 3), param(rng, 5)
    with Tape() as tape:
        tape.backward(T.tsum(T.channel_linear(x, w, b)))
    return w.grad


def test_jobs_run_inline_at_two_blas_threads_or_on_one_cpu(monkeypatch):
    seen = spy_gradients(monkeypatch)
    with blas_threads(1):
        want = _linear_backward()
        assert T._worker() is not None and on_worker(seen) == 2
        for target, name, value in ((T, "_cpus", lambda: 1),
                                    (bench, "_openblas", lambda: None)):
            with monkeypatch.context() as m:
                m.setattr(target, name, value)
                assert T._worker() is None
                seen.clear()
                assert np.array_equal(_linear_backward(), want)
                assert len(seen) == 4 and on_worker(seen) == 0
    with blas_threads(2):
        assert T._worker() is None
        seen.clear()
        assert np.array_equal(_linear_backward(), want)
        assert len(seen) == 4 and on_worker(seen) == 0


def test_worker_gradients_match_inline_under_fast_thread_switching(
        monkeypatch):
    # the worker and the main thread read the same arrays; switching
    # threads every microsecond must not change a byte
    seen = spy_gradients(monkeypatch)
    model = build_model(ModelSpec.nano("affine"), seed=0)
    x = np.random.default_rng(0).normal(0, 1, (2, 3, 64, 64))

    def grads():
        for _, p in model.named_parameters():
            p.zero_grad()
        with Tape() as tape:
            tape.backward(T.tsum(forward(model, Tensor(x))))
        return [p.grad for _, p in model.named_parameters()]

    with blas_threads(2):
        want = grads()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with blas_threads(1):
            runs = [grads() for _ in range(5)]
    finally:
        sys.setswitchinterval(interval)
    assert on_worker(seen) > 0
    for got in runs:
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_backward_in_a_forked_child_finishes(monkeypatch):
    # a forked child inherits the parent's worker without its thread
    seen = spy_gradients(monkeypatch)
    with blas_threads(1):
        want = _linear_backward()
        assert on_worker(seen) == 2  # the parent's worker exists
        pid = os.fork()
        if pid == 0:  # exits 0 only if its jobs ran on a worker of its own
            code = 1
            try:
                seen.clear()
                code = 0 if (np.array_equal(_linear_backward(), want)
                             and on_worker(seen) == 2) else 2
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60
        while ((done := os.waitpid(pid, os.WNOHANG))[0] == 0
               and time.monotonic() < deadline):
            time.sleep(0.05)
        if done[0] == 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    assert done[0] == pid, "the child's backward did not finish in 60 s"
    assert os.waitstatus_to_exitcode(done[1]) == 0


def test_a_forward_on_the_worker_leaves_the_callers_tape_and_profile(
        monkeypatch):
    # the tape stack and the profile are per thread: the worker's context
    # is a copy of the caller's, yet its forward records and charges nothing
    monkeypatch.setattr(T, "_cpus", lambda: 2)
    model = build_model(ModelSpec.nano("pooling"), seed=0)
    x = Tensor(np.random.default_rng(0).normal(0, 1, (2, 3, 64, 64)))
    with blas_threads(1), Tape() as tape, T._Profile() as profile:
        worker = T._worker()
        assert worker is not None
        out = worker.submit(contextvars.copy_context().run,
                            forward, model, x).result()
        assert not tape._nodes
        assert profile.flops == {} and profile.seconds == {}
        assert T._tape() is tape and T._profile() is profile
    assert not out.requires_grad and out._node is None


def test_non_finite_input_rejected():
    with pytest.raises(NumericsError):
        Tensor(np.array([np.nan], np.float32))
    # a kernel whose float32 output overflows
    with np.errstate(over="ignore"), pytest.raises(NumericsError):
        T.mul(Tensor(np.array([3e38], np.float32)), 10.0)
    # a float64 kernel result finite in float64 but past float32's range
    with np.errstate(over="ignore"), pytest.raises(
            NumericsError, match="non-finite values in kernel output"):
        T.log_softmax(Tensor([[3e38, -3e38]]))


def test_shape_mismatch_rejected():
    # elementwise kernels take one shape or a plain scalar, and broadcast
    # nothing else: not even a pair numpy would broadcast
    for sa, sb in [((2, 3), (4, 5)), ((2, 3), (1, 3)), ((2, 3, 4, 4), (3,)),
                   ((1,), (2, 3))]:
        for kernel in (T.add, T.sub, T.mul):
            for a, b in ((sa, sb), (sb, sa)):
                with pytest.raises(ShapeError):
                    kernel(Tensor(np.ones(a)), Tensor(np.ones(b)))
    x = Tensor(np.ones((2, 3, 4, 4)))
    for s, t in [((2,), None), ((3,), (2,)), ((1, 3, 1, 1), None)]:
        with pytest.raises(ShapeError):
            T.channel_affine(x, Tensor(np.ones(s)),
                             None if t is None else Tensor(np.ones(t)))
    with pytest.raises(ShapeError):
        T.channel_affine(Tensor(np.ones((3, 4, 4))), Tensor(np.ones(3)))
    with pytest.raises(ShapeError):
        T.mse(Tensor(np.ones(3)), Tensor(np.ones(4)))


def test_determinism_same_seed_bitexact():
    def run():
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(0, 1, (2, 3, 8, 8)).astype(np.float32),
                   requires_grad=True)
        g = Tensor(np.ones(3, np.float32), requires_grad=True)
        b = Tensor(np.zeros(3, np.float32), requires_grad=True)
        with Tape() as tape:
            y = T.group_norm_1(x, g, b)
            loss = T.tsum(T.mul(y, y))
            tape.backward(loss)
        return loss.data.copy(), x.grad.copy()

    l1, g1 = run()
    l2, g2 = run()
    assert np.array_equal(l1, l2)
    assert np.array_equal(g1, g2)


# ---------------------------------------------------------------------------
# Property-based checks

@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=12),
       st.floats(-5, 5, allow_nan=False))
def test_add_commutes_and_scalar_broadcast(values, c):
    a = Tensor(np.array(values, np.float32))
    np.testing.assert_array_equal(T.add(a, c).data, T.add(c, a).data)


@settings(max_examples=20, deadline=None)
@given(st.floats(-3, 3, allow_nan=False), st.integers(1, 3).map(lambda k: 2 * k + 1),
       st.integers(2, 6))
def test_pool_constant_input_is_constant(value, k, n):
    x = Tensor(np.full((1, 1, n, n), value, np.float32))
    out = T.avg_pool_same(x, min(k, n if n % 2 == 1 else n - 1)).data
    np.testing.assert_allclose(out, value, atol=1e-5)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_group_norm_zero_mean_unit_var(seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(0, 2, (1, 2, 3, 3)).astype(np.float32))
    out = T.group_norm_1(x, Tensor(np.ones(2, np.float32)),
                         Tensor(np.zeros(2, np.float32))).data
    assert abs(out.mean()) < 1e-4
    assert abs(out.var() - 1.0) < 1e-2


def _profiled_flops(fn) -> int:
    with T._Profile() as profile:
        fn()
    return sum(profile.flops.values())


def test_kernel_flop_counts():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(2, 3, 9, 9)))
    w = Tensor(rng.normal(size=(4, 3, 3, 3)))
    b = Tensor(np.zeros(4))
    # 9x9 -> 5x5 at k3/s2/p1: 2*4*25 outputs, each 27 multiply-adds + bias
    assert _profiled_flops(lambda: T.conv2d(x, w, b, 2, 1)) \
        == 2 * 4 * 25 * (2 * 27 + 1)
    x = Tensor(rng.normal(size=(2, 3, 4, 5)))
    w = Tensor(rng.normal(size=(6, 3)))
    b = Tensor(np.zeros(6))
    # 2*6*20 outputs, each 3 multiply-adds plus the bias add
    assert _profiled_flops(lambda: T.channel_linear(x, w, b)) \
        == 2 * 6 * 20 * (2 * 3 + 1)
    # C < P: three 3x3 Grams over 5 tokens, each entry squared and summed,
    # and both sides' 30 elements normalized
    a = Tensor(rng.normal(size=(2, 3, 1, 5)))
    assert _profiled_flops(lambda: T.relation_mse(a, a)) \
        == 2 * 3 * 9 * (2 * 5 + 2) + 6 * 30
    # P <= C: two 3x3 relation products over 5 channels, then subtract,
    # square and sum each entry
    a = Tensor(rng.normal(size=(2, 5, 1, 3)))
    assert _profiled_flops(lambda: T.relation_mse(a, a)) \
        == 2 * 9 * (2 * 2 * 5 + 3) + 6 * 30
    # a per-channel scale is 1 FLOP per element, 2 with the shift; a
    # profile outside a model charges ""
    s = Tensor(rng.normal(size=3))
    with T._Profile() as profile:
        T.channel_affine(x, s)
    assert profile.flops == {"": 120}
    assert _profiled_flops(lambda: T.channel_affine(x, s, s)) == 240
    # a deploy block as the kernels it replaces count it, one norm for both
    # and 2 per element for its residual: 2*3*20 elements, 5 hidden
    ws = _deploy_weights(rng, 3, 5)
    assert _profiled_flops(lambda: T.deploy_block(x, *ws)) \
        == 2 * 20 * (5 * (2 * 3 + 1) + 6 * 5 + 3 * (2 * 5 + 1)) + 10 * 120


# ---------------------------------------------------------------------------
# The kernel set

def test_every_public_kernel_has_a_library_caller():
    # a kernel that only the tests call is dead code: every public function
    # of riformer.tensor is named by another module of the package, as
    # T.<name> or in a `from .tensor import`
    public = {name for name, fn in vars(T).items()
              if inspect.isfunction(fn) and fn.__module__ == T.__name__
              and not name.startswith("_")}
    named = set()
    for path in Path(T.__file__).parent.glob("*.py"):
        if path.name == "tensor.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "T"):
                named.add(node.attr)
            elif (isinstance(node, ast.ImportFrom) and node.level == 1
                  and node.module == "tensor"):
                named.update(alias.name for alias in node.names)
    dead = sorted(public - named)
    assert not dead, f"kernels with no library caller: {dead}"
