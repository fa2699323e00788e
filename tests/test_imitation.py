"""Distillation losses: identities, hand cases, phase gating, teacher loading."""
import json
from dataclasses import asdict

import numpy as np
import pytest

import riformer.tensor as T
from riformer import (CaptureSet, ImitationConfig, Tape, Tensor, build_model,
                      forward, load_from_teacher, loss_in_prime, loss_out,
                      loss_rel, loss_soft, relation_matrix, select_layers,
                      total_loss)
from riformer.models import ModelSpec, _from_dict
from helpers import check_gradients, tiny_spec


def rand4(shape, seed=0):
    return Tensor(np.random.default_rng(seed).normal(0, 1, shape).astype(np.float32))


# ---------------------------------------------------------------------------
# Loss identities and oracles

def test_all_losses_zero_on_identical_inputs():
    # C < HW and C > HW: loss_rel's two evaluation orders
    for shape in [(2, 3, 4, 4), (2, 6, 2, 1)]:
        a = rand4(shape)
        b = Tensor(a.data.copy())
        assert loss_in_prime(a, b).item() == 0.0
        assert loss_out(a, b).item() == 0.0
        assert loss_rel(a, b).item() == 0.0
    logits = rand4((2, 5), seed=1)
    logits2 = Tensor(logits.data.copy())
    assert loss_soft(logits, logits2).item() == 0.0


def test_feature_losses_match_double_loop_oracle():
    rng = np.random.default_rng(2)
    a = rng.normal(0, 1, (2, 2, 2, 2)).astype(np.float32)
    b = rng.normal(0, 1, (2, 2, 2, 2)).astype(np.float32)
    acc = 0.0
    for idx in np.ndindex(a.shape):
        acc += (float(a[idx]) - float(b[idx])) ** 2
    expect = acc / a.size
    assert abs(loss_in_prime(Tensor(a), Tensor(b)).item() - expect) < 1e-7
    assert abs(loss_out(Tensor(a), Tensor(b)).item() - expect) < 1e-7


def test_constant_difference_gives_d_squared():
    a = Tensor(np.zeros((1, 2, 3, 3), np.float32))
    b = Tensor(np.full((1, 2, 3, 3), 0.5, np.float32))
    assert abs(loss_in_prime(a, b).item() - 0.25) < 1e-7
    assert abs(loss_out(a, b).item() - 0.25) < 1e-7


def test_relation_matrix_single_token():
    t = Tensor(np.array([1.0, 2.0], np.float32).reshape(1, 2, 1, 1))
    r = relation_matrix(t)
    assert r.shape == (1, 1, 1)
    assert abs(r.item() - 1.0) < 1e-5


def test_relation_matrix_orthogonal_tokens():
    # tokens (1,0) and (0,1) across a 1x2 spatial grid
    t = Tensor(np.array([[[[1.0, 0.0]], [[0.0, 1.0]]]], np.float32))
    r = relation_matrix(t).data[0]
    np.testing.assert_allclose(r, np.eye(2), atol=1e-5)


def test_relation_matrix_hand_case_inv_sqrt2():
    # tokens [1,0] and [1,1]: normalized dot = 1/sqrt(2)
    t = np.zeros((1, 2, 1, 2), np.float32)
    t[0, :, 0, 0] = [1.0, 0.0]
    t[0, :, 0, 1] = [1.0, 1.0]
    r = relation_matrix(Tensor(t)).data[0]
    expect = np.array([[1.0, 0.70711], [0.70711, 1.0]])
    np.testing.assert_allclose(r, expect, atol=1e-5)


def test_loss_rel_hand_case():
    # relation matrices identity vs all-ones (HW=2, N=1): diff^2 sums to 2,
    # scaled by 1/(N*(HW)^2) = 1/4
    a = np.zeros((1, 2, 1, 2), np.float32)
    a[0, :, 0, 0] = [1.0, 0.0]
    a[0, :, 0, 1] = [0.0, 1.0]
    b = np.zeros((1, 2, 1, 2), np.float32)
    b[0, :, 0, 0] = [1.0, 1.0]
    b[0, :, 0, 1] = [1.0, 1.0]
    assert abs(loss_rel(Tensor(a), Tensor(b)).item() - 0.5) < 1e-5


def test_loss_rel_scale_invariance():
    rng = np.random.default_rng(3)
    for shape in [(2, 4, 3, 3), (2, 12, 2, 2)]:  # C < HW, C > HW
        x = rng.normal(0, 1, shape).astype(np.float32)
        y = rng.normal(0, 1, shape).astype(np.float32)
        base = loss_rel(Tensor(x), Tensor(y)).item()
        scaled = loss_rel(Tensor(37.0 * x), Tensor(y)).item()
        assert abs(base - scaled) < 1e-6


@pytest.mark.parametrize("shape", [(2, 4, 4, 4), (3, 16, 2, 2), (2, 4, 2, 2),
                                   (2, 5, 1, 1)],
                         ids=["c_lt_hw", "c_gt_hw", "c_eq_hw", "hw_1"])
def test_loss_rel_matches_relation_matrix_mse(shape):
    # the one kernel against the P x P relation matrices it avoids; its
    # gradient on both sides against finite differences
    rng = np.random.default_rng(7)
    x = rng.normal(0, 1, shape).astype(np.float32)
    y = (x + rng.normal(0, 0.3, shape)).astype(np.float32)
    s, t = Tensor(x, requires_grad=True), Tensor(y, requires_grad=True)
    want = T.mse(relation_matrix(s), relation_matrix(t)).item()
    assert loss_rel(s, t).item() == pytest.approx(want, rel=1e-6, abs=1e-12)
    if shape[2] * shape[3] > 1:
        check_gradients(lambda: loss_rel(s, t), [s, t], rng)
        return
    # one token per sample: every relation matrix is [[1]], so the true
    # gradient is 0
    with Tape() as tape:
        tape.backward(loss_rel(s, t))
    assert max(np.abs(s.grad).max(), np.abs(t.grad).max()) <= 1e-12


def test_loss_soft_brute_force_oracle():
    tl = Tensor(np.array([[1.0, 0.0]], np.float32))
    sl = Tensor(np.array([[0.0, 1.0]], np.float32))
    p = np.exp(tl.data) / np.exp(tl.data).sum()
    q = np.exp(sl.data) / np.exp(sl.data).sum()
    expect = float((p * np.log(p / q)).sum())
    assert abs(loss_soft(sl, tl, tau=1.0).item() - expect) < 1e-6


def test_high_temperature_flattens_distributions():
    # the tau^2 factor keeps the scaled loss finite by design, so the
    # flattening shows up in the raw KL (scaled loss divided by tau^2)
    tl = Tensor(np.array([[3.0, -3.0]], np.float32))
    sl = Tensor(np.array([[-3.0, 3.0]], np.float32))
    kl_hot = loss_soft(sl, tl, tau=100.0).item() / 100.0 ** 2
    kl_cold = loss_soft(sl, tl, tau=1.0).item()
    assert kl_hot < 1e-2 < kl_cold


# ---------------------------------------------------------------------------
# Config and phase schedule

def test_phase_gating_matches_published_pattern():
    cfg = ImitationConfig(feat_epochs=80, rel_epochs=20, total_epochs=120)
    assert cfg.active_terms(0) == frozenset({"soft", "in_prime", "out"})
    assert cfg.active_terms(79) == frozenset({"soft", "in_prime", "out"})
    assert cfg.active_terms(90) == frozenset({"soft", "rel"})
    assert cfg.active_terms(110) == frozenset({"soft"})
    with pytest.raises(ValueError):
        cfg.active_terms(120)


def test_config_validation():
    with pytest.raises(ValueError):
        ImitationConfig(feat_epochs=50, rel_epochs=20, total_epochs=60).validate()
    # a weight must be finite and non-negative; NaN fails too
    for weight in ("lambda1_x_batch", "lambda2_x_batch", "lambda3_x_batch"):
        for bad in (-1e-3, float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match=f"^{weight} must be >= 0"):
                ImitationConfig(**{weight: bad}).validate()
        ImitationConfig(**{weight: 0.0}).validate()
    ImitationConfig().validate()


def test_config_dict_roundtrip():
    # through JSON, as a config file gives it: `layers` comes back a list
    cfg = ImitationConfig(layers=(0, 3), lambda1_x_batch=2.0)
    again = _from_dict(ImitationConfig, json.loads(json.dumps(asdict(cfg))))
    assert again == cfg


def test_total_loss_reduces_to_soft_when_lambdas_zero():
    cfg = ImitationConfig(lambda1_x_batch=0.0, lambda2_x_batch=0.0,
                          lambda3_x_batch=0.0, layers=(0,))
    soft = Tensor(np.array([0.75], np.float32))
    junk = {0: {"in_prime": Tensor(np.array([5.0], np.float32)),
                "out": Tensor(np.array([5.0], np.float32)),
                "rel": Tensor(np.array([5.0], np.float32))}}
    for epoch in (0, 45, 59):
        total, report = total_loss(soft, junk, epoch, cfg, batch_size=8)
        assert total.item() == soft.item()
        assert report.total == report.soft


def test_total_loss_applies_per_batch_lambda():
    # every term over two layers, each term weighted by its own lambda / batch
    cfg = ImitationConfig(lambda1_x_batch=0.8, lambda2_x_batch=0.4,
                          lambda3_x_batch=2.0, layers=(0, 1), feat_epochs=1,
                          rel_epochs=1, total_epochs=3)
    soft = Tensor(np.array([1.0], np.float32))
    values = {0: {"in_prime": 2.0, "out": 0.5, "rel": 0.25},
              1: {"in_prime": 3.0, "out": 1.5, "rel": 0.75}}
    per_layer = {m: {k: Tensor(np.array([v], np.float32))
                     for k, v in terms.items()}
                 for m, terms in values.items()}
    sums = {k: values[0][k] + values[1][k] for k in values[0]}
    feat, rel = (0, {"in_prime": 0.8, "out": 0.4}), (1, {"rel": 2.0})
    for epoch, lambdas in (feat, rel):
        total, report = total_loss(soft, per_layer, epoch, cfg, batch_size=4)
        expect = 1.0 + sum(lam / 4 * sums[k] for k, lam in lambdas.items())
        assert abs(total.item() - expect) < 1e-6
        assert report.total == total.item()
        assert report.soft == 1.0
        for k in ("in_prime", "out", "rel"):
            assert abs(getattr(report, k) - (sums[k] if k in lambdas
                                             else 0.0)) < 1e-6, (epoch, k)


# ---------------------------------------------------------------------------
# Layer selection

def test_select_layers_nano_last_of_stage():
    assert select_layers(ModelSpec.nano(), 4) == (0, 1, 4, 5)


def test_select_layers_all_and_one():
    spec = ModelSpec.nano()
    assert select_layers(spec, 6) == (0, 1, 2, 3, 4, 5)
    assert select_layers(spec, 1) == (5,)


def test_select_layers_bounds():
    with pytest.raises(ValueError):
        select_layers(ModelSpec.nano(), 7)
    with pytest.raises(ValueError):
        select_layers(ModelSpec.nano(), 0)


# ---------------------------------------------------------------------------
# Teacher loading and gradient mechanics

def test_load_from_teacher_copies_all_but_mixer():
    teacher = build_model(tiny_spec("pooling"), seed=10)
    student = build_model(tiny_spec("affine"), seed=11)
    s_before = student.blocks[0][0].affine_s.data.copy()
    load_from_teacher(student, teacher)
    t_params = dict(teacher.named_parameters())
    for name, p in student.named_parameters():
        if ".mixer." in name:
            continue
        assert np.array_equal(p.data, t_params[name].data), name
    assert np.array_equal(student.blocks[0][0].affine_s.data, s_before)


def test_load_from_teacher_constant_probe_exact_logit_match():
    teacher = build_model(tiny_spec("pooling"), seed=10)
    student = load_from_teacher(build_model(tiny_spec("affine"), seed=11),
                                teacher)
    x = Tensor(np.full((2, 3, 32, 32), 0.6, np.float32))
    assert np.array_equal(forward(student, x).data, forward(teacher, x).data)


def test_load_from_teacher_wrong_kinds_rejected():
    with pytest.raises(ValueError):
        load_from_teacher(build_model(tiny_spec("identity"), seed=0),
                          build_model(tiny_spec("pooling"), seed=0))
    with pytest.raises(ValueError):
        load_from_teacher(build_model(tiny_spec("affine"), seed=0),
                          build_model(tiny_spec("affine"), seed=0))
    with pytest.raises(ValueError):
        load_from_teacher(build_model(tiny_spec("affine"), seed=0),
                          build_model(tiny_spec("pooling", num_classes=7), seed=0))


def test_affine_coefficients_receive_gradient_through_loss_out():
    spec = tiny_spec("affine")
    student = build_model(spec, seed=0)
    teacher = build_model(tiny_spec("pooling"), seed=1)
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(0, 1, (2, 3, 32, 32)).astype(np.float32))

    t_cap = CaptureSet.for_layers([0])
    forward(teacher, x, capture=t_cap)  # outside tape: frozen
    with Tape() as tape:
        s_cap = CaptureSet.for_layers([0])
        forward(student, x, capture=s_cap)
        loss = loss_out(s_cap.mixer_out[0], t_cap.mixer_out[0])
        tape.backward(loss)
    bw = student.blocks[0][0]
    assert bw.affine_s.grad is not None and np.abs(bw.affine_s.grad).max() > 0
    assert bw.affine_t.grad is not None and np.abs(bw.affine_t.grad).max() > 0


def test_teacher_receives_no_gradient():
    teacher = build_model(tiny_spec("pooling"), seed=1)
    student = build_model(tiny_spec("affine"), seed=0)
    x = rand4((1, 3, 32, 32), seed=6)
    t_logits = forward(teacher, x)
    with Tape() as tape:
        s_logits = forward(student, x)
        loss = loss_soft(s_logits, t_logits)
        tape.backward(loss)
    for _, p in teacher.named_parameters():
        assert p.grad is None
