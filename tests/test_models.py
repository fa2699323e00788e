"""Backbone structure: mixers, block wiring, capture transparency, counts."""
import hashlib
import pickle
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import riformer.tensor as T
from riformer import (CaptureSet, ModelSpec, ShapeError, Tensor, build_model,
                      forward, switch_to_deploy)
from riformer.models import (MIXER_KINDS, StageSpec, _from_dict, affine_mixer,
                             forward_features, param_layout, pooling_mixer)
from helpers import tiny_spec


def rand_input(spec, n=2, seed=0):
    rng = np.random.default_rng(seed)
    r = spec.input_resolution
    return Tensor(rng.normal(0, 1, (n, spec.in_channels, r, r)).astype(np.float32))


# ---------------------------------------------------------------------------
# Spec validation

def test_spec_requires_four_stages():
    with pytest.raises(ValueError):
        ModelSpec(stages=[StageSpec(1, 8, 3, 2)]).validate()


def test_spec_rejects_even_pool_and_bad_mixer():
    spec = tiny_spec("pooling")
    spec.pool_size = 4
    with pytest.raises(ValueError):
        spec.validate()
    spec = tiny_spec()
    spec.mixer_kind = "attention"
    with pytest.raises(ValueError):
        spec.validate()
    # sizes no parameter layout can use
    for mixer, overrides in [("pooling", {"pool_size": -1}),
                             ("affine", {"in_channels": 0}),
                             ("affine", {"input_resolution": 0}),
                             ("affine", {"input_resolution": -16}),
                             ("affine", {"input_resolution": 48}),
                             ("affine", {"layer_scale_init": float("nan")}),
                             ("affine", {"layer_scale_init": float("inf")}),
                             ("affine", {"layer_scale_init": -float("inf")})]:
        with pytest.raises(ValueError):
            tiny_spec(mixer, **overrides)
    for dim, ratio in [(1, 0.5), (4, float("inf")), (4, float("nan")),
                       (4, 1e308)]:
        spec = tiny_spec()
        spec.stages[0] = StageSpec(depth=1, dim=dim, patch_size=7, stride=4,
                                   mlp_ratio=ratio)
        with pytest.raises(ValueError, match="MLP width"):
            spec.validate()


def test_spec_rejects_patch_below_stride():
    # (patch_size - stride + 1) // 2 < 0 would pad the embedding negatively
    for patch, stride in [(1, 3), (1, 4), (2, 4), (3, 5)]:
        model = asdict(tiny_spec())
        model["stages"][1].update(patch_size=patch, stride=stride)
        with pytest.raises(ValueError, match=f"patch_size {patch}, "
                                             f"stride {stride}"):
            _from_dict(ModelSpec, model)
    for patch, stride in [(2, 3), (1, 2), (3, 4), (1, 1)]:
        assert StageSpec(1, 4, patch, stride).padding == 0


_STAGES = st.lists(st.fixed_dictionaries({
    "depth": st.integers(1, 2), "dim": st.integers(1, 8),
    "patch_size": st.integers(1, 9), "stride": st.integers(1, 4),
    "mlp_ratio": st.sampled_from([0.25, 0.5, 1.0, 4.0])}),
    min_size=4, max_size=4)


@settings(max_examples=60, deadline=None)
@given(stages=_STAGES, mixer=st.sampled_from(MIXER_KINDS))
def test_random_stages_are_rejected_or_run(stages, mixer):
    # at the smallest valid resolution, the total stride
    resolution = int(np.prod([s["stride"] for s in stages]))
    d = {"stages": stages, "mixer_kind": mixer, "num_classes": 3,
         "input_resolution": resolution}
    invalid = any(s["patch_size"] < s["stride"] - 1
                  or int(s["dim"] * s["mlp_ratio"]) < 1 for s in stages)
    if invalid:
        with pytest.raises(ValueError):
            _from_dict(ModelSpec, d)
        return
    spec = _from_dict(ModelSpec, d)
    logits = forward(build_model(spec, seed=0), rand_input(spec, n=1))
    assert logits.shape == (1, 3)
    assert np.all(np.isfinite(logits.data))


def test_spec_roundtrips_through_dict():
    spec = tiny_spec("pooling")
    again = _from_dict(ModelSpec, asdict(spec))
    assert again == spec


def test_nano_layout():
    spec = ModelSpec.nano()
    assert [s.depth for s in spec.stages] == [1, 1, 3, 1]
    assert [s.dim for s in spec.stages] == [16, 32, 64, 128]
    assert spec.total_blocks == 6
    assert spec.total_stride == 32


# ---------------------------------------------------------------------------
# Mixers

def test_affine_mixer_identity_init_is_zero():
    m = Tensor(np.random.default_rng(0).normal(0, 1, (1, 3, 4, 4)).astype(np.float32))
    out = affine_mixer(m, Tensor(np.ones(3, np.float32)),
                       Tensor(np.zeros(3, np.float32)))
    np.testing.assert_array_equal(out.data, np.zeros_like(m.data))


def test_affine_mixer_scalar_case():
    # single channel value 3 with s=2, t=0.5: 6 + 0.5 - 3 = 3.5
    m = Tensor(np.full((1, 1, 1, 1), 3.0, np.float32))
    out = affine_mixer(m, Tensor(np.array([2.0], np.float32)),
                       Tensor(np.array([0.5], np.float32)))
    assert abs(out.item() - 3.5) < 1e-6


def test_affine_mixer_s_zero_negates():
    m = Tensor(np.random.default_rng(1).normal(0, 1, (1, 2, 3, 3)).astype(np.float32))
    out = affine_mixer(m, Tensor(np.zeros(2, np.float32)),
                       Tensor(np.zeros(2, np.float32)))
    np.testing.assert_allclose(out.data, -m.data, atol=1e-6)


def test_pooling_mixer_zero_on_constant_input():
    # per-channel constants pool to themselves bit for bit at any k and shape
    values = np.array([1.7, -0.3, 123.456], np.float32)[None, :, None, None]
    for h, w in [(2, 2), (4, 4), (8, 8), (16, 16), (5, 9), (9, 5), (1, 7)]:
        m = Tensor(np.broadcast_to(values, (2, 3, h, w)))
        for k in (3, 5, 7):
            out = pooling_mixer(m, k)
            np.testing.assert_array_equal(out.data, np.zeros_like(m.data))


def test_pooling_mixer_hand_case():
    m = Tensor(np.array([1.0, 2.0, 3.0], np.float32).reshape(1, 1, 1, 3))
    out = pooling_mixer(m, 3)
    np.testing.assert_allclose(out.data.reshape(-1), [0.5, 0.0, -0.5], atol=1e-6)


def test_pooling_mixer_k1_is_zero():
    m = Tensor(np.arange(8, dtype=np.float32).reshape(1, 2, 2, 2))
    np.testing.assert_array_equal(pooling_mixer(m, 1).data, np.zeros_like(m.data))


# ---------------------------------------------------------------------------
# Forward pass

def test_build_same_seed_bit_identical():
    a = build_model(tiny_spec("pooling"), seed=3)
    b = build_model(tiny_spec("pooling"), seed=3)
    for (na, pa), (nb, pb) in zip(a.named_parameters(), b.named_parameters()):
        assert na == nb
        assert np.array_equal(pa.data, pb.data)


@pytest.mark.parametrize("mixer,digest", [
    ("identity", "73e40d35b2b99113c17eb673384399e2e3157f27e1d166b330c720e7adbd0963"),
    ("affine", "d2a346219eb44740ca0b9642e9b5875eb4ae1a80989c6693e61e5b3ba58ff2e2"),
    ("pooling", "73e40d35b2b99113c17eb673384399e2e3157f27e1d166b330c720e7adbd0963"),
])
def test_build_model_bytes_pinned(mixer, digest):
    # names and values in order; a changed RNG draw order changes the digest
    h = hashlib.sha256()
    for name, p in build_model(ModelSpec.nano(mixer), seed=0).named_parameters():
        h.update(name.encode())
        h.update(p.data.tobytes())
    assert h.hexdigest() == digest


@pytest.mark.parametrize("mixer,deploy", [("identity", False), ("affine", False),
                                          ("pooling", False), ("affine", True)])
def test_param_layout_matches_named_parameters(mixer, deploy):
    spec = tiny_spec(mixer)
    model = build_model(spec, seed=0)
    if deploy:
        model = switch_to_deploy(model)
    assert ([(name, shape) for name, shape, _ in param_layout(spec, deploy)]
            == [(name, p.shape) for name, p in model.named_parameters()])


def test_model_pickles_with_shared_views():
    model = pickle.loads(pickle.dumps(build_model(tiny_spec("affine"), seed=0)))
    model.blocks[0][0].affine_s.data[0] = 2.0
    assert model.params["stage.0.block.0.mixer.s"].data[0] == 2.0


def test_affine_at_init_equals_identity_model():
    spec_a = tiny_spec("affine")
    spec_i = tiny_spec("identity")
    ma = build_model(spec_a, seed=5)
    mi = build_model(spec_i, seed=5)
    x = rand_input(spec_a)
    la = forward(ma, x)
    li = forward(mi, x)
    assert np.array_equal(la.data, li.data)


def test_affine_param_surplus_is_two_dim_per_block():
    spec = tiny_spec("affine")
    affine = build_model(spec, seed=0)
    ident = build_model(tiny_spec("identity"), seed=0)
    surplus = (sum(p.size for p in affine.params.values())
               - sum(p.size for p in ident.params.values()))
    expect = sum(st.depth * 2 * st.dim for st in spec.stages)
    assert surplus == expect


def test_logits_shape():
    spec = tiny_spec("identity")
    model = build_model(spec, seed=0)
    out = forward(model, rand_input(spec, n=3))
    assert out.shape == (3, spec.num_classes)


def test_wrong_resolution_rejected():
    spec = tiny_spec("identity")
    model = build_model(spec, seed=0)
    bad = Tensor(np.zeros((1, 3, 48, 48), np.float32))
    with pytest.raises(ShapeError):
        forward(model, bad)


@pytest.mark.parametrize("form", [*MIXER_KINDS, "deploy"])
def test_capture_is_observationally_transparent(form):
    spec = tiny_spec("affine" if form == "deploy" else form)
    model = build_model(spec, seed=1)
    rng = np.random.default_rng(1)
    for bw in (bw for stage in model.blocks for bw in stage):
        # layer scales and affine coefficients away from their init, so
        # every first sub-block adds a branch the logits can tell
        for key in ("layer_scale_1", "affine_s", "affine_t"):
            p = getattr(bw, key)
            if p is not None:
                p.data = rng.normal(0.5, 0.3, p.shape).astype(np.float32)
    if form == "deploy":
        model = switch_to_deploy(model)
    x = rand_input(spec, n=3)
    blocks = set(range(spec.total_blocks))
    cap = CaptureSet.for_layers(blocks)
    with_cap = forward(model, x, capture=cap)
    without = forward(model, x)
    assert with_cap.data.tobytes() == without.data.tobytes()
    assert set(cap.block_out) == blocks
    # a deploy block has no branch before a layer scale to record
    assert set(cap.mixer_out) == (set() if form == "deploy" else blocks)
    assert set(cap.stage_out) == {1, 2, 3, 4}


def test_batch_equals_concatenated_singles():
    spec = tiny_spec("pooling")
    model = build_model(spec, seed=2)
    x = rand_input(spec, n=2)
    both = forward(model, x).data
    one = forward(model, Tensor(x.data[:1])).data
    two = forward(model, Tensor(x.data[1:])).data
    # per-sample normalization means no cross-sample coupling at all
    np.testing.assert_allclose(both, np.concatenate([one, two]), atol=1e-5)


def test_identity_mixer_first_subblock_is_noop():
    spec = tiny_spec("identity")
    model = build_model(spec, seed=0)
    cap = CaptureSet.for_layers([0])
    forward(model, rand_input(spec), capture=cap)
    np.testing.assert_array_equal(cap.mixer_out[0].data,
                                  np.zeros_like(cap.mixer_out[0].data))


def test_constant_input_stays_constant_through_stages():
    # edge-replicate padding plus valid-count pooling keep per-channel
    # constancy exact, which the teacher-loading equality relies on
    spec = tiny_spec("pooling")
    model = build_model(spec, seed=4)
    x = Tensor(np.full((1, 3, 32, 32), 0.37, np.float32))
    cap = CaptureSet()
    forward_features(model, x, capture=cap)
    for si in (1, 2, 3, 4):
        so = cap.stage_out[si].data
        per_channel_spread = so.max(axis=(0, 2, 3)) - so.min(axis=(0, 2, 3))
        np.testing.assert_array_equal(per_channel_spread,
                                      np.zeros_like(per_channel_spread))

