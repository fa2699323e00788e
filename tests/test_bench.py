"""Benchmark reduction arithmetic, protocol validation, op-count audit,
profiled per-component breakdown."""
import time

import numpy as np
import pytest

import riformer.bench as bench
import riformer.tensor as T
from riformer import (BenchProtocol, Tensor, build_model, forward,
                      latency_breakdown, op_count, switch_to_deploy,
                      thread_count, throughput)
from riformer.bench import reduce_timings
from riformer.models import COMPONENTS, ModelSpec
from helpers import tiny_spec


def test_reduce_timings_hand_case():
    # per-repeat means 10, 12, 11 ms -> median 11 ms -> 32/0.011 img/s
    raw = [[0.010] * 3, [0.012] * 3, [0.011] * 3]
    means, median, ips = reduce_timings(raw, batch_size=32)
    assert means == pytest.approx([10.0, 12.0, 11.0])
    assert median == pytest.approx(11.0)
    assert ips == pytest.approx(32 / 0.011)


def test_reduce_timings_means_within_repeat():
    raw = [[0.001, 0.003]]
    means, median, ips = reduce_timings(raw, batch_size=4)
    assert means == pytest.approx([2.0])
    assert median == pytest.approx(2.0)
    assert ips == pytest.approx(2000.0)


def test_report_is_re_reducible_from_raw():
    model = build_model(tiny_spec("identity"), seed=0)
    protocol = BenchProtocol(batch_size=2, warmup_runs=1, timed_runs=2,
                             repeats=3)
    report = throughput(model, protocol, model_id="tiny")
    means, median, ips = reduce_timings(report.raw_timings, protocol.batch_size)
    assert report.ms_per_batch == pytest.approx(means)
    assert report.median_ms == pytest.approx(median)
    assert report.images_per_second == pytest.approx(ips)
    assert len(report.raw_timings) == 3
    assert all(len(r) == 2 for r in report.raw_timings)


def test_report_names_the_blas(monkeypatch):
    model = build_model(tiny_spec("identity"), seed=0)
    protocol = BenchProtocol(batch_size=1, warmup_runs=0, timed_runs=1,
                             repeats=1)
    # numpy's wheels bundle OpenBLAS, whose build string starts with its
    # name and version
    blas = throughput(model, protocol).blas
    assert blas == bench._openblas().config
    assert blas.startswith("OpenBLAS ")
    monkeypatch.setattr(bench, "_openblas", lambda: None)
    assert throughput(model, protocol).blas is None


def test_even_repeats_rejected():
    with pytest.raises(ValueError):
        BenchProtocol(repeats=2).validate()
    with pytest.raises(ValueError):
        BenchProtocol(timed_runs=0).validate()
    with pytest.raises(ValueError):
        BenchProtocol(batch_size=0).validate()


def test_thread_count_env_override(monkeypatch):
    # without a bundled OpenBLAS the count is 1
    monkeypatch.setattr(bench, "_openblas", lambda: None)
    assert thread_count() == 1


def test_op_count_deploy_strictly_below_train_affine():
    spec = ModelSpec.nano(mixer_kind="affine")
    train_ops = op_count(spec, batch_size=1, deploy=False)
    deploy_ops = op_count(spec, batch_size=1, deploy=True)
    assert deploy_ops < train_ops


def test_op_count_deploy_below_pooling_teacher():
    affine = ModelSpec.nano(mixer_kind="affine")
    pooling = ModelSpec.nano(mixer_kind="pooling")
    assert op_count(affine, deploy=True) < op_count(pooling, deploy=False)


def test_op_count_scales_linearly_with_batch():
    spec = tiny_spec("affine")
    assert op_count(spec, batch_size=4, deploy=False) \
        == 4 * op_count(spec, batch_size=1, deploy=False)


def test_op_count_reads_deploy_flag_from_model():
    model = build_model(tiny_spec("affine"), seed=0)
    deploy = switch_to_deploy(model)
    assert op_count(deploy) == op_count(model.spec, deploy=True)
    assert op_count(model) == op_count(model.spec, deploy=False)


def test_op_count_nano_pinned():
    # the uncaptured identity form runs no norm1, whose output nobody reads
    assert op_count(ModelSpec.nano("identity")) == 9_658_888
    assert op_count(ModelSpec.nano("affine")) == 9_785_352


def test_op_count_deploy_and_pooling_pinned():
    # the deploy form folds layer_scale_1 into its norm and layer_scale_2
    # into its MLP at fuse time, so its count has no per-call term and is
    # exactly linear in batch; each block is one deploy_block kernel, which
    # counts both norms as one at 8 FLOPs per element and its residual at 2
    deploy = op_count(ModelSpec.nano("affine"), deploy=True)
    assert deploy == 9_658_888
    assert op_count(ModelSpec.nano("affine"), batch_size=4,
                    deploy=True) == 4 * deploy
    assert op_count(ModelSpec.nano("pooling")) == 9_824_264


def test_op_count_rejects_forms_it_cannot_count():
    with pytest.raises(ValueError):
        op_count(ModelSpec.nano("pooling"), deploy=True)
    deploy = switch_to_deploy(build_model(tiny_spec("affine"), seed=0))
    with pytest.raises(ValueError):
        op_count(deploy, deploy=False)


@pytest.mark.parametrize("form", ["identity", "affine", "pooling", "deploy"])
def test_breakdown_rows_cover_the_forward(form):
    model = build_model(tiny_spec("affine" if form == "deploy" else form),
                        seed=0)
    if form == "deploy":
        model = switch_to_deploy(model)
    protocol = BenchProtocol(batch_size=2, warmup_runs=1, timed_runs=2,
                             repeats=3)
    rows = latency_breakdown(model, protocol)
    assert [r.component for r in rows] == list(COMPONENTS)
    assert all(r.ms >= 0.0 for r in rows)
    assert sum(r.flops for r in rows) == op_count(model, batch_size=2)
    mixer = next(r for r in rows if r.component == "mixer")
    has_mixer = form in ("affine", "pooling")
    assert (mixer.flops > 0) == has_mixer
    if not has_mixer:
        assert mixer.ms == 0.0


def test_profiled_components_sum_to_wall_time():
    model = build_model(ModelSpec.nano("affine"), seed=0)
    x = Tensor(np.zeros((4, 3, 64, 64), np.float32))
    forward(model, x)
    t0 = time.perf_counter()
    with T._Profile() as profile:
        forward(model, x)
    wall = time.perf_counter() - t0
    assert set(profile.seconds) == set(COMPONENTS)
    assert min(profile.seconds.values()) > 0.0
    assert sum(profile.seconds.values()) == pytest.approx(wall, rel=0.05)
