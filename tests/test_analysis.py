"""Receptive-field maps, feature histograms, and coefficient dumps."""
import numpy as np
import pytest

import riformer.tensor as T
from riformer import (Tensor, build_model, dump_affine_coefficients,
                      forward_features,
                      erf_active_area, erf_map, feature_distance,
                      feature_histogram, switch_to_deploy)
from riformer.analysis import stage_activations, wasserstein_binned
from helpers import gelu_grad_reference, gelu_phi, tiny_spec


def probe_images(n=2, res=32, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(0, 1, (n, 3, res, res)).astype(np.float32)


# ---------------------------------------------------------------------------
# Receptive-field maps

def test_identity_features_give_single_center_pixel():
    erf = erf_map(lambda t: t, probe_images(res=9))
    assert erf.shape == (9, 9)
    assert erf[4, 4] == 1.0
    assert erf.sum() == 1.0


def test_single_average_pool_gives_uniform_patch():
    k = 3
    erf = erf_map(lambda t: T.avg_pool_same(t, k), probe_images(res=9))
    inside = erf[3:6, 3:6]
    np.testing.assert_allclose(inside, 1.0, atol=1e-6)
    assert erf.sum() == pytest.approx(k * k)


def test_erf_normalized_to_unit_peak():
    model = build_model(tiny_spec("pooling"), seed=0)
    erf = erf_map(model, probe_images())
    assert erf.max() == pytest.approx(1.0)
    assert erf.min() >= 0.0


def test_erf_matches_between_train_and_deploy_forms():
    model = build_model(tiny_spec("affine"), seed=1)
    deploy = switch_to_deploy(model)
    imgs = probe_images(seed=3)
    a = erf_map(model, imgs)
    b = erf_map(deploy, imgs)
    np.testing.assert_allclose(a, b, atol=1e-4)


@pytest.mark.parametrize("mixer", ["pooling", "affine", "deploy"])
def test_erf_of_a_model_leaves_its_weights_without_gradients(mixer):
    model = build_model(tiny_spec("pooling" if mixer == "pooling"
                                  else "affine"), seed=2)
    if mixer == "deploy":
        model = switch_to_deploy(model)
    imgs = probe_images(seed=4)
    erf = erf_map(model, imgs)
    assert all(p.grad is None for _, p in model.named_parameters())
    assert np.array_equal(erf, erf_map(lambda t: forward_features(model, t),
                                       imgs))


@pytest.mark.parametrize("mixer", ["pooling", "affine", "deploy"])
def test_erf_bytes_match_a_backward_on_the_one_pass_gelu_reference(
        mixer, monkeypatch):
    # each GELU's backward (inside deploy_block for the deploy form) reads
    # the derivative its forward kept block by block; the map must be the
    # bytes a backward on the one-pass reference derivative gives
    model = build_model(tiny_spec("pooling" if mixer == "pooling"
                                  else "affine"), seed=5)
    if mixer == "deploy":
        model = switch_to_deploy(model)
    imgs = probe_images(seed=6)
    got = erf_map(model, imgs)
    real, kept = T._gelu_into, []

    def one_pass(flat, out, keep_deriv):
        real(flat, out, False)
        kept.append(keep_deriv)
        return (gelu_grad_reference(flat, gelu_phi(flat), np.float32(1.0))
                if keep_deriv else None)

    monkeypatch.setattr(T, "_gelu_into", one_pass)
    want = erf_map(model, imgs)
    assert len(kept) == 5 and all(kept)
    assert got.tobytes() == want.tobytes()


def test_erf_active_area_threshold():
    erf = np.zeros((5, 5))
    erf[2, 2] = 1.0
    erf[0, 0] = 0.005
    assert erf_active_area(erf) == 1
    assert erf_active_area(erf, threshold=0.001) == 2


def test_erf_rejects_non_feature_output():
    with pytest.raises(T.ShapeError):
        erf_map(lambda t: T.tsum(t), probe_images())


def test_erf_rejects_empty_probe_set():
    model = build_model(tiny_spec("pooling"), seed=0)
    with pytest.raises(ValueError, match="empty probe set"):
        erf_map(model, probe_images(n=0))


# ---------------------------------------------------------------------------
# Feature distributions

def test_histogram_conserves_count():
    model = build_model(tiny_spec("pooling"), seed=0)
    imgs = probe_images(n=3)
    for stage in range(1, 5):
        edges, counts = feature_histogram(model, imgs, stage)
        acts = stage_activations(model, imgs, stage)
        assert counts.sum() == acts.size


def test_histogram_invalid_stage_rejected():
    model = build_model(tiny_spec("pooling"), seed=0)
    with pytest.raises(ValueError):
        feature_histogram(model, probe_images(), 0)
    with pytest.raises(ValueError):
        feature_histogram(model, probe_images(), 5)


@pytest.mark.parametrize("bins", [0, -1])
def test_histogram_needs_a_bin(bins):
    model = build_model(tiny_spec("pooling"), seed=0)
    with pytest.raises(ValueError, match="bins"):
        feature_histogram(model, probe_images(), 2, bins=bins)
    with pytest.raises(ValueError, match="bins"):
        feature_distance(model, model, probe_images(), 2, bins=bins)


def test_wasserstein_hand_case():
    # mass 1 at bin [0,1) vs mass 1 at bin [1,2): distance 1
    edges = np.array([0.0, 1.0, 2.0])
    a = np.array([4, 0])
    b = np.array([0, 4])
    assert wasserstein_binned(a, b, edges) == pytest.approx(1.0)
    assert wasserstein_binned(a, a, edges) == 0.0


def test_wasserstein_scales_with_bin_width():
    edges = np.array([0.0, 2.0, 4.0])
    a = np.array([1, 0])
    b = np.array([0, 1])
    assert wasserstein_binned(a, b, edges) == pytest.approx(2.0)


def test_feature_distance_zero_for_same_model():
    model = build_model(tiny_spec("pooling"), seed=0)
    imgs = probe_images()
    assert feature_distance(model, model, imgs, stage=2) == 0.0


def test_feature_distance_positive_for_different_models():
    a = build_model(tiny_spec("pooling"), seed=0)
    b = build_model(tiny_spec("pooling"), seed=1)
    assert feature_distance(a, b, probe_images(), stage=4) > 0.0


def test_feature_distance_bins_on_float64_edges():
    # the float32 activations' range spans float64 edges, as in
    # feature_histogram, not edges rounded to float32
    a = build_model(tiny_spec("pooling"), seed=0)
    b = build_model(tiny_spec("pooling"), seed=1)
    imgs, bins = probe_images(), 101
    for stage in range(1, 5):
        acts_a = stage_activations(a, imgs, stage)
        acts_b = stage_activations(b, imgs, stage)
        lo = min(acts_a.min(), acts_b.min())
        hi = max(acts_a.max(), acts_b.max())
        edges = np.linspace(float(lo), float(hi), bins + 1)
        expect = wasserstein_binned(np.histogram(acts_a, bins=edges)[0],
                                    np.histogram(acts_b, bins=edges)[0], edges)
        assert feature_distance(a, b, imgs, stage, bins=bins) == expect


# ---------------------------------------------------------------------------
# Coefficient dumps

def test_dump_rows_identity_at_init():
    model = build_model(tiny_spec("affine"), seed=0)
    rows = dump_affine_coefficients(model)
    expect = sum(st.depth * st.dim for st in model.spec.stages)
    assert len(rows) == expect
    assert all(r["s"] == 1.0 and r["t"] == 0.0 for r in rows)
    assert rows[0] == {"stage": 0, "block": 0, "channel": 0, "s": 1.0, "t": 0.0}


def test_dump_rejects_pooling_and_deploy():
    with pytest.raises(ValueError):
        dump_affine_coefficients(build_model(tiny_spec("pooling"), seed=0))
    deploy = switch_to_deploy(build_model(tiny_spec("affine"), seed=0))
    with pytest.raises(ValueError):
        dump_affine_coefficients(deploy)
