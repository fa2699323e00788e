"""Branch fusion: symbolic identity, end-to-end equivalence, error contracts."""
import sys
from collections import Counter

import numpy as np
import pytest

import riformer.tensor as T
from riformer import (Tensor, build_model, forward, fuse_affine,
                      switch_to_deploy, verify_equivalence)
from riformer.models import (CaptureSet, affine_mixer, block_forward,
                             deploy_block_forward)
from helpers import tiny_spec


def test_fuse_tabulated_values():
    gamma_prime, beta_prime = fuse_affine([2.0], [0.5], [3.0], [0.1])
    assert gamma_prime[0] == pytest.approx(4.0, abs=0)
    assert beta_prime[0] == pytest.approx(1.1, abs=1e-7)


def test_fuse_identity_init_gives_zero_branch():
    gamma_prime, beta_prime = fuse_affine([1.0, 1.0], [0.0, 0.0], [1.0, 1.0],
                                          [0.0, 0.0])
    np.testing.assert_array_equal(gamma_prime, [0.0, 0.0])
    np.testing.assert_array_equal(beta_prime, [0.0, 0.0])


def test_fuse_s_zero_negates_norm():
    gamma_prime, beta_prime = fuse_affine([1.0], [0.0], [0.0], [0.0])
    np.testing.assert_array_equal(gamma_prime, [-1.0])
    np.testing.assert_array_equal(beta_prime, [0.0])


def test_fuse_shape_mismatch_rejected():
    with pytest.raises(T.ShapeError):
        fuse_affine([1.0, 2.0], [0.0], [1.0], [0.0])


@pytest.mark.parametrize("seed", range(5))
def test_symbolic_identity_on_random_vectors(seed):
    # Affine(gamma*xhat+beta; s,t) - (gamma*xhat+beta) == gamma'*xhat + beta'
    rng = np.random.default_rng(seed)
    c = 6
    xhat = rng.normal(0, 1, (1, c, 3, 3)).astype(np.float32)
    gamma = rng.normal(1, 0.3, c).astype(np.float32)
    beta = rng.normal(0, 0.3, c).astype(np.float32)
    s = rng.normal(1, 0.5, c).astype(np.float32)
    t = rng.normal(0, 0.5, c).astype(np.float32)

    normed = gamma[None, :, None, None] * xhat + beta[None, :, None, None]
    branch = affine_mixer(Tensor(normed), Tensor(s), Tensor(t)).data
    gamma_prime, beta_prime = fuse_affine(gamma, beta, s, t)
    expect = (gamma_prime[None, :, None, None] * xhat
              + beta_prime[None, :, None, None])
    np.testing.assert_allclose(branch, expect, atol=1e-5)


def randomized_affine_model(seed):
    model = build_model(tiny_spec("affine"), seed=seed)
    rng = np.random.default_rng(seed + 1000)
    for stage_blocks in model.blocks:
        for bw in stage_blocks:
            c = bw.affine_s.size
            bw.affine_s.data = rng.normal(1, 0.5, c).astype(np.float32)
            bw.affine_t.data = rng.normal(0, 0.5, c).astype(np.float32)
            bw.norm1_gamma.data = rng.normal(1, 0.3, c).astype(np.float32)
            bw.norm1_beta.data = rng.normal(0, 0.3, c).astype(np.float32)
            # O(1) layer scales so the fused branch contributes visibly
            bw.layer_scale_1.data = rng.normal(0.5, 0.2, c).astype(np.float32)
            bw.layer_scale_2.data = rng.normal(0.5, 0.2, c).astype(np.float32)
    return model


def test_end_to_end_equivalence():
    model = randomized_affine_model(0)
    deploy = switch_to_deploy(model)
    report = verify_equivalence(model, deploy, n_probes=20, tol=1e-5, seed=0)
    assert report.passed, f"max diff {report.max_abs_diff}"


def test_fusion_is_parameter_local():
    model = randomized_affine_model(1)
    deploy = switch_to_deploy(model)
    train_params = dict(model.named_parameters())
    for name, p in deploy.named_parameters():
        if "norm_reparam" in name or name.endswith((".mlp.w2", ".mlp.b2")):
            continue
        assert np.array_equal(p.data, train_params[name].data), name


def test_deploy_param_count_drops_by_four_dim_per_block():
    # the affine s and t, layer_scale_1 folded into the norm and
    # layer_scale_2 into the MLP's output projection: dim each
    model = build_model(tiny_spec("affine"), seed=0)
    deploy = switch_to_deploy(model)
    expect = sum(st.depth * 4 * st.dim for st in model.spec.stages)
    assert (sum(p.size for p in model.params.values())
            - sum(p.size for p in deploy.params.values())) == expect


def test_deploy_norm_folds_layer_scale_bitwise():
    model = randomized_affine_model(5)
    deploy = switch_to_deploy(model)
    assert deploy.deploy and not model.deploy
    for train_stage, deploy_stage in zip(model.blocks, deploy.blocks):
        for tb, db in zip(train_stage, deploy_stage):
            gamma_prime, beta_prime = fuse_affine(
                tb.norm1_gamma.data, tb.norm1_beta.data,
                tb.affine_s.data, tb.affine_t.data)
            ls1 = tb.layer_scale_1.data
            assert (db.norm1_gamma.data.tobytes()
                    == (gamma_prime * ls1).tobytes())
            assert (db.norm1_beta.data.tobytes()
                    == (beta_prime * ls1).tobytes())
            ls2 = tb.layer_scale_2.data
            assert (db.mlp_w2.data.tobytes()
                    == (ls2[:, None] * tb.mlp_w2.data).tobytes())
            assert db.mlp_b2.data.tobytes() == (ls2 * tb.mlp_b2.data).tobytes()
            assert db.layer_scale_1 is None and db.affine_s is None
            assert db.layer_scale_2 is None
    assert not any("layer_scale" in name
                   for name, _ in deploy.named_parameters())
    with pytest.raises(AttributeError):
        deploy.deploy = False


def test_deploy_weights_require_no_gradient():
    # deploy weights serve inference and input gradients only; a weight
    # that asks for a gradient anyway fails the forward under a tape
    # instead of getting none
    model = randomized_affine_model(6)
    deploy = switch_to_deploy(model)
    assert all(p.requires_grad for _, p in model.named_parameters())
    assert not any(p.requires_grad for _, p in deploy.named_parameters())
    x = Tensor(np.ones((1, 3, 32, 32), np.float32), requires_grad=True)
    with T.Tape():
        forward(deploy, x)
    deploy.blocks[1][0].mlp_w1.requires_grad = True
    forward(deploy, x)
    with T.Tape(), pytest.raises(T.TapeError, match="no gradient"):
        forward(deploy, x)


@pytest.fixture
def kernel_names(monkeypatch):
    """The name of every kernel run while the test runs, in order."""
    names = []
    apply = T._apply

    def counted(*args, **kwargs):
        # every kernel ends in _apply; record the kernel's function name
        names.append(sys._getframe(1).f_code.co_name)
        return apply(*args, **kwargs)

    monkeypatch.setattr(T, "_apply", counted)
    return names


def test_deploy_first_subblock_is_one_kernel_captured_or_not(kernel_names):
    # a deploy block, its first sub-block included, is one deploy_block
    # kernel, captured or not, so verify certifies the kernel that
    # inference runs; the identity form's first sub-block runs no kernel and
    # its second sub-block the train form's six
    spec = tiny_spec("affine")
    deploy = switch_to_deploy(build_model(spec, seed=0))
    identity = build_model(tiny_spec("identity"), seed=0)
    x = Tensor(np.ones((1, 3, 32, 32), np.float32))

    def kernels(model, capture=None):
        kernel_names.clear()
        forward(model, x, capture=capture)
        return list(kernel_names)

    n = spec.total_blocks
    for capture in (None, CaptureSet.for_layers(range(n))):
        ran = Counter(kernels(deploy, capture))
        base = Counter(kernels(identity, capture))
        assert ran - base == Counter(deploy_block=n)
        assert base - ran == Counter(group_norm_1=n, channel_linear=2 * n,
                                     gelu=n, channel_affine=n, add=n)


def test_block_kernel_sequence_per_form(kernel_names):
    # each per-channel vector (affine s and t, the layer scales) is one
    # channel_affine kernel, with no reshape or broadcasting around it; the
    # deploy block, which holds its layer scales in its norm and MLP
    # weights, is one kernel
    mlp = ["group_norm_1", "channel_linear", "gelu", "channel_linear",
           "channel_affine", "add"]
    expect = {
        "deploy": ["deploy_block"],
        "affine": ["group_norm_1", "channel_affine", "sub", "channel_affine",
                   "add"] + mlp,
        "pooling": ["group_norm_1", "avg_pool_same", "sub", "channel_affine",
                    "add"] + mlp,
        "identity": mlp,
    }
    x = Tensor(np.ones((1, 8, 4, 4), np.float32))
    for form, names in expect.items():
        model = build_model(tiny_spec("affine" if form == "deploy" else form),
                            seed=0)
        kernel_names.clear()
        if form == "deploy":
            deploy_block_forward(x, switch_to_deploy(model).blocks[2][0])
        else:
            block_forward(x, model.blocks[2][0], model.spec)
        assert kernel_names == names, form


def test_source_model_untouched_by_fusion():
    model = randomized_affine_model(2)
    before = {n: p.data.copy() for n, p in model.named_parameters()}
    switch_to_deploy(model)
    for name, p in model.named_parameters():
        assert np.array_equal(p.data, before[name])
    assert not model.deploy


def test_double_fuse_rejected():
    deploy = switch_to_deploy(build_model(tiny_spec("affine"), seed=0))
    with pytest.raises(ValueError):
        switch_to_deploy(deploy)


def test_non_affine_fuse_rejected():
    with pytest.raises(ValueError):
        switch_to_deploy(build_model(tiny_spec("pooling"), seed=0))


def test_perturbed_fusion_fails_verification():
    model = randomized_affine_model(3)
    deploy = switch_to_deploy(model)
    deploy.blocks[0][0].norm1_beta.data[0] += 1e-3
    report = verify_equivalence(model, deploy, n_probes=5, tol=1e-5, seed=0)
    assert not report.passed


def test_equivalence_requires_matching_spec():
    a = build_model(tiny_spec("affine"), seed=0)
    b = switch_to_deploy(build_model(tiny_spec("affine", num_classes=5), seed=0))
    with pytest.raises(ValueError):
        verify_equivalence(a, b, n_probes=1)


def test_equivalence_rejects_vacuous_or_unfused_runs():
    model = build_model(tiny_spec("affine"), seed=0)
    deploy = switch_to_deploy(model)
    with pytest.raises(ValueError, match="probe"):
        verify_equivalence(model, deploy, n_probes=0)
    with pytest.raises(ValueError, match="deploy_model"):
        verify_equivalence(model, model, n_probes=1)
    with pytest.raises(ValueError, match="train_model"):
        verify_equivalence(deploy, deploy, n_probes=1)


def test_scalar_case_exact_at_tol_zero():
    # one channel, one spatial cell: both forms reduce to the same two
    # float32 multiply-adds, so even tol=0 passes
    rng = np.random.default_rng(0)
    xhat = rng.normal(0, 1, (1, 1, 1, 1)).astype(np.float32)
    gamma, beta, s, t = (np.array([v], np.float32)
                         for v in (1.25, 0.5, 2.0, 0.25))
    normed = gamma * xhat + beta
    branch = (s * normed + t) - normed
    gamma_prime, beta_prime = fuse_affine(gamma, beta, s, t)
    expect = gamma_prime * xhat + beta_prime
    assert float(np.abs(branch - expect).max()) == 0.0


def test_batched_verify_matches_per_probe_reference(monkeypatch):
    # 17 probes: one full chunk of 16 and a partial chunk of 1
    import importlib
    reparam = importlib.import_module("riformer.reparam")
    model = randomized_affine_model(4)
    deploy = switch_to_deploy(model)
    spec = model.spec
    layers = range(spec.total_blocks)
    seen = []  # (model, probes, logits, capture) of every verify forward

    def recorded(m, x, **kw):
        out = forward(m, x, **kw)
        seen.append((m, x.data, out.data, kw.get("capture")))
        return out

    monkeypatch.setattr(reparam, "forward", recorded)
    report = verify_equivalence(model, deploy, n_probes=17, tol=1e-5, seed=3)
    # the probes are the seed's 17 single draws, each chunk run through
    # both forms once
    rng = np.random.default_rng(3)
    probes = np.concatenate([
        rng.normal(0.0, 1.0, (1, spec.in_channels, spec.input_resolution,
                              spec.input_resolution)).astype(np.float32)
        for _ in range(17)])
    assert [(m is deploy, len(x)) for m, x, _, _ in seen] == [
        (False, 16), (True, 16), (False, 1), (True, 1)]
    assert all(np.array_equal(x, probes[sl]) for (_, x, _, _), sl in
               zip(seen, [slice(0, 16)] * 2 + [slice(16, 17)] * 2))
    # max and mean run over the logits and every block output of both forms
    def abs_diffs(a, b):
        (_, _, la, ca), (_, _, lb, cb) = a, b
        return [np.abs(la - lb).ravel()] + [
            np.abs(ca.block_out[i].data - cb.block_out[i].data).ravel()
            for i in layers]

    diffs = np.concatenate([d for a, b in zip(seen[::2], seen[1::2])
                            for d in abs_diffs(a, b)])
    assert report.samples == 17
    assert report.max_abs_diff == float(diffs.max()) > 0.0
    assert report.mean_abs_diff == pytest.approx(diffs.mean(dtype=np.float64),
                                                 rel=1e-5)
    # a probe-by-probe run agrees within 1e-6; not to the bit, since a
    # single GEMM may sum in another order for another batch size
    seen.clear()
    for i in range(17):
        for m in (model, deploy):
            recorded(m, Tensor(probes[i:i + 1]),
                     capture=CaptureSet.for_layers(layers))
    single = np.concatenate([d for a, b in zip(seen[::2], seen[1::2])
                             for d in abs_diffs(a, b)])
    assert abs(report.max_abs_diff - single.max()) <= 1e-6
    assert abs(report.mean_abs_diff - single.mean(dtype=np.float64)) <= 1e-6
