"""End-to-end acceptance gate: eleven checks at their stated tolerances.

Every trained artifact here is reproducible from a checked-in JSON config in
configs/ plus a seed. Trained models are cached at module scope so the
distillation-ordering, convergence, receptive-field, and feature-distribution
checks share one set of runs.
"""
import json
import os
import statistics
import time

import numpy as np
import pytest

import riformer.tensor as T
from riformer import (ModelSpec, Tensor, build_model, erf_active_area,
                      erf_map, feature_distance, forward, fuse_affine,
                      load_cifar10_binary, load_checkpoint, load_from_teacher,
                      loss_in_prime, loss_out, loss_rel, loss_soft, op_count,
                      relation_matrix, save_checkpoint, switch_to_deploy,
                      train, verify_equivalence)
from riformer.cli import parse_config
from helpers import check_gradients

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
SEEDS = (0, 1, 2)


def load_config(name):
    with open(os.path.join(CONFIG_DIR, name)) as f:
        return json.load(f)


def config_datasets(cfg):
    return parse_config(cfg).datasets()


def config_train(cfg, seed, teacher=None):
    # the commands' parser, with seed as --seed would give it
    conf = parse_config(cfg, seed=seed)
    model = build_model(conf.model, seed=seed)
    tr, va = conf.datasets()
    return train(model, tr, va, conf.train, teacher=teacher)


class _Runs:
    """Lazy per-session cache of the trained teacher and student models."""

    def __init__(self):
        self._teacher = None
        self._students = {}
        self.elapsed = 0.0

    def teacher(self):
        if self._teacher is None:
            t0 = time.time()
            cfg = load_config("teacher_pooling_ce.json")
            self._teacher = config_train(cfg, seed=0).model
            self.elapsed += time.time() - t0
        return self._teacher

    def student(self, config_name, seed):
        key = (config_name, seed)
        if key not in self._students:
            t0 = time.time()
            cfg = load_config(config_name)
            teacher = (self.teacher()
                       if cfg["train"]["recipe"] != "ce"
                       or cfg["train"].get("init_from_teacher") else None)
            self._students[key] = config_train(cfg, seed, teacher=teacher)
            self.elapsed += time.time() - t0
        return self._students[key]

    def median_final(self, config_name):
        return statistics.median(
            self.student(config_name, s).final_val_top1 for s in SEEDS)


RUNS = _Runs()


@pytest.fixture(scope="module")
def runs():
    return RUNS


@pytest.fixture(scope="module")
def val_probes():
    _, va = config_datasets(load_config("guideline1_ce.json"))
    return va.images[:64]


@pytest.fixture(scope="module")
def erf_probes():
    rng = np.random.default_rng(0)
    return rng.normal(0, 1, (8, 3, 128, 128)).astype(np.float32)


def randomized_nano(seed):
    model = build_model(ModelSpec.nano("affine"), seed=seed)
    rng = np.random.default_rng(seed + 5000)
    for stage_blocks in model.blocks:
        for bw in stage_blocks:
            c = bw.affine_s.size
            bw.affine_s.data = rng.normal(1, 0.5, c).astype(np.float32)
            bw.affine_t.data = rng.normal(0, 0.5, c).astype(np.float32)
            bw.norm1_gamma.data = rng.normal(1, 0.3, c).astype(np.float32)
            bw.norm1_beta.data = rng.normal(0, 0.3, c).astype(np.float32)
            bw.layer_scale_1.data = rng.normal(0.5, 0.2, c).astype(np.float32)
            bw.layer_scale_2.data = rng.normal(0.5, 0.2, c).astype(np.float32)
    return model


def test_criterion_01_fusion_equivalence_100_random_models():
    t0 = time.time()
    worst = 0.0
    for i in range(100):
        model = randomized_nano(i)
        deploy = switch_to_deploy(model)
        report = verify_equivalence(model, deploy, n_probes=1, tol=1e-5,
                                    seed=i)
        worst = max(worst, report.max_abs_diff)
        assert report.passed, (f"model {i}: max abs diff "
                               f"{report.max_abs_diff:.3e} over tol 1e-5")
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"equivalence sweep took {elapsed:.1f}s (limit 60s)"


def test_criterion_02_symbolic_fusion_tabulated_values():
    gamma_prime, beta_prime = fuse_affine([2.0], [0.5], [3.0], [0.1])
    assert float(gamma_prime[0]) == 4.0
    assert abs(float(beta_prime[0]) - 1.1) < 1e-7
    ident_gamma, ident_beta = fuse_affine([1.0], [0.0], [1.0], [0.0])
    assert float(ident_gamma[0]) == 0.0
    assert float(ident_beta[0]) == 0.0


def test_criterion_03_gradient_suite_10_seeds():
    t0 = time.time()

    def p(rng, *shape, scale=1.0, offset=0.0):
        return Tensor(offset
                      + scale * rng.normal(0, 1, shape).astype(np.float32),
                      requires_grad=True)

    for seed in range(10):
        rng = np.random.default_rng(seed)
        ws = seed + 1
        a, b = p(rng, 3, 4), p(rng, 3, 4, offset=3.0)
        check_gradients(lambda: T.add(a, b), [a, b], rng, wseed=ws)
        check_gradients(lambda: T.sub(a, b), [a, b], rng, wseed=ws)
        check_gradients(lambda: T.mul(a, b), [a, b], rng, wseed=ws)
        check_gradients(lambda: T.gelu(a), [a], rng, wseed=ws)
        check_gradients(lambda: T.tsum(a), [a], rng, wseed=ws)
        check_gradients(lambda: T.mse(a, b), [a, b], rng)
        check_gradients(lambda: T.log_softmax(a), [a], rng, wseed=ws)
        check_gradients(
            lambda: T.kl_div(T.log_softmax(Tensor(b.data)), T.log_softmax(a)),
            [a], rng)

        x, w, bias = p(rng, 3, 5), p(rng, 2, 5), p(rng, 2)
        check_gradients(lambda: T.linear(x, w, bias), [x, w, bias], rng,
                        wseed=ws)
        xc, wc, bc = p(rng, 2, 3, 4, 4), p(rng, 5, 3), p(rng, 5)
        check_gradients(lambda: T.channel_linear(xc, wc, bc), [xc, wc, bc],
                        rng, wseed=ws)
        g, be = p(rng, 3, scale=0.2, offset=1.0), p(rng, 3, scale=0.2)
        check_gradients(lambda: T.group_norm_1(xc, g, be), [xc, g, be], rng,
                        wseed=ws)
        check_gradients(lambda: T.channel_affine(xc, g, be), [xc, g, be],
                        rng, wseed=ws)
        check_gradients(lambda: T.avg_pool_same(xc, 3), [xc], rng, wseed=ws)
        xi = p(rng, 2, 2, 8, 8)
        wk, bk = p(rng, 3, 2, 3, 3, scale=0.5), p(rng, 3, scale=0.5)
        check_gradients(lambda: T.conv2d(xi, wk, bk, 2, 1), [xi, wk, bk], rng,
                        wseed=ws)
        xb = p(rng, 8, 2, 4, 4)
        check_gradients(lambda: T.global_spatial_mean(xb), [xb], rng, wseed=ws)
    elapsed = time.time() - t0
    assert elapsed < 120.0, f"gradient suite took {elapsed:.1f}s (limit 120s)"


def test_criterion_04_loss_identities_and_hand_cases():
    rng = np.random.default_rng(0)
    a = Tensor(rng.normal(0, 1, (2, 4, 3, 3)).astype(np.float32))
    same = Tensor(a.data.copy())
    logits = Tensor(rng.normal(0, 1, (2, 5)).astype(np.float32))
    logits2 = Tensor(logits.data.copy())
    assert loss_in_prime(a, same).item() == 0.0
    assert loss_out(a, same).item() == 0.0
    assert loss_rel(a, same).item() == 0.0
    assert loss_soft(logits, logits2).item() == 0.0

    other = Tensor(rng.normal(0, 1, (2, 4, 3, 3)).astype(np.float32))
    base = loss_rel(a, other).item()
    scaled = loss_rel(Tensor(37.0 * a.data), other).item()
    assert abs(base - scaled) < 1e-6

    t = np.zeros((1, 2, 1, 2), np.float32)
    t[0, :, 0, 0] = [1.0, 0.0]
    t[0, :, 0, 1] = [1.0, 1.0]
    r = relation_matrix(Tensor(t)).data[0]
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    assert abs(r[0, 1] - inv_sqrt2) < 1e-5
    assert abs(r[1, 0] - inv_sqrt2) < 1e-5


def test_criterion_05_identity_equivalences_at_init():
    affine = build_model(ModelSpec.nano("affine"), seed=3)
    ident = build_model(ModelSpec.nano("identity"), seed=3)
    x = Tensor(np.random.default_rng(0)
               .normal(0, 1, (2, 3, 64, 64)).astype(np.float32))
    assert np.array_equal(forward(affine, x).data, forward(ident, x).data)

    const = Tensor(np.full((1, 2, 5, 5), 0.7, np.float32))
    from riformer.models import pooling_mixer
    assert np.abs(pooling_mixer(const, 3).data).max() == 0.0

    teacher = build_model(ModelSpec.nano("pooling"), seed=4)
    student = load_from_teacher(build_model(ModelSpec.nano("affine"), seed=5),
                                teacher)
    probe = Tensor(np.full((2, 3, 64, 64), 0.25, np.float32))
    assert np.array_equal(forward(student, probe).data,
                          forward(teacher, probe).data)


def test_criterion_06_guideline_ordering_with_gaps(runs):
    t0 = time.time()
    ce = runs.median_final("guideline1_ce.json")
    soft = runs.median_final("guideline2_affine_noMI.json")
    mi = runs.median_final("guideline3_MI.json")
    detail = []
    for name in ("guideline1_ce.json", "guideline2_affine_noMI.json",
                 "guideline3_MI.json"):
        for s in SEEDS:
            r = runs.student(name, s)
            detail.append(f"{name} seed{s}: top1 {r.final_val_top1:.3f} "
                          f"last-epoch losses {r.log[-1]}")
    diagnosis = "\n".join(detail)
    assert soft - ce >= 0.01, (
        f"soft-KD {soft:.3f} does not beat CE {ce:.3f} by 1 point\n{diagnosis}")
    assert mi - soft >= 0.01, (
        f"MI {mi:.3f} does not beat soft-KD {soft:.3f} by 1 point\n{diagnosis}")
    assert runs.elapsed + time.time() - t0 < 45 * 60


def test_criterion_07_teacher_init_converges_early(runs):
    target = runs.median_final("guideline2_affine_noMI.json")
    epochs = load_config("guideline5_init.json")["train"]["epochs"]
    firsts = []
    for s in SEEDS:
        log = runs.student("guideline5_init.json", s).log
        first = next((row["epoch"] + 1 for row in log
                      if row["val_top1"] >= target), epochs + 1)
        firsts.append(first)
    median_first = statistics.median(firsts)
    assert median_first <= 0.6 * epochs, (
        f"median first epoch reaching {target:.3f} is {median_first}, "
        f"limit {0.6 * epochs:.0f} (per-seed {firsts})")


def _round_seconds(models, rounds=60, warmup=5):
    """Seconds of one batch-32 forward at 64^2 of each model, per round. A
    round runs one forward of every model back to back, the first model
    rotating from round to round, so a slow spell of the shared machine
    lands on both sides of the round's ratios."""
    x = Tensor(np.random.default_rng(0).normal(0, 1, (32, 3, 64, 64))
               .astype(np.float32))
    keys = list(models)
    for _ in range(warmup):
        for model in models.values():
            forward(model, x)
    seconds = {key: [] for key in keys}
    for r in range(rounds):
        for key in keys[r % len(keys):] + keys[:r % len(keys)]:
            t0 = time.perf_counter()
            forward(models[key], x)
            seconds[key].append(time.perf_counter() - t0)
    return seconds


def _speedup(seconds, slow, fast):
    """The median over rounds of slow's seconds over fast's: how many times
    faster `fast` ran, paired within each round."""
    return statistics.median(s / f for s, f in zip(seconds[slow],
                                                    seconds[fast]))


def test_criterion_08_deploy_throughput_and_op_audit():
    # 60 interleaved rounds, so 60 timed forwards per form
    affine = build_model(ModelSpec.nano("affine"), seed=0)
    seconds = _round_seconds({
        "train": affine, "deploy": switch_to_deploy(affine),
        "pooling": build_model(ModelSpec.nano("pooling"), seed=0)})
    for other in ("train", "pooling"):
        speedup = _speedup(seconds, other, "deploy")
        assert speedup >= 1.02, (
            f"deploy only {speedup:.3f}x as fast as {other} (median of 60 "
            f"per-round ratios; median ms deploy "
            f"{1e3 * statistics.median(seconds['deploy']):.1f}, {other} "
            f"{1e3 * statistics.median(seconds[other]):.1f})")
    spec = ModelSpec.nano("affine")
    assert op_count(spec, deploy=True) < op_count(spec, deploy=False)
    assert op_count(spec, deploy=True) < op_count(
        ModelSpec.nano("pooling"), deploy=False)


def test_criterion_08_statistic_reads_one_on_identical_sides():
    # A/A: one model timed as both sides of every round reads 1.00 up to
    # noise (0.99-1.03 measured), so the paired median carries no bias
    # that could stand in for criterion 08's margin
    deploy = switch_to_deploy(build_model(ModelSpec.nano("affine"), seed=0))
    speedup = _speedup(_round_seconds({"a": deploy, "b": deploy}), "a", "b")
    assert abs(speedup - 1.0) <= 0.05, f"A/A speedup {speedup:.3f}"


def test_criterion_09_erf_direction(runs, erf_probes):
    ce_areas = [erf_active_area(erf_map(
        runs.student("guideline1_ce.json", s).model, erf_probes))
        for s in SEEDS]
    mi_areas = [erf_active_area(erf_map(
        runs.student("guideline3_MI.json", s).model, erf_probes))
        for s in SEEDS]
    ce_med = statistics.median(ce_areas)
    mi_med = statistics.median(mi_areas)
    assert mi_med > ce_med, (f"MI ERF area {mi_med} (per-seed {mi_areas}) not "
                             f"above CE {ce_med} (per-seed {ce_areas})")


def test_criterion_10_feature_distribution_direction(runs, val_probes):
    teacher = runs.teacher()
    wins = 0
    lines = []
    for stage in (1, 2, 3, 4):
        ce_d = statistics.median(feature_distance(
            runs.student("guideline1_ce.json", s).model, teacher,
            val_probes, stage) for s in SEEDS)
        mi_d = statistics.median(feature_distance(
            runs.student("guideline3_MI.json", s).model, teacher,
            val_probes, stage) for s in SEEDS)
        wins += mi_d < ce_d
        lines.append(f"stage {stage}: ce {ce_d:.4f} mi {mi_d:.4f}")
    assert wins >= 3, ("MI closer to teacher in only "
                       f"{wins}/4 stages\n" + "\n".join(lines))


def test_criterion_11_checkpoint_and_cifar_fixture(tmp_path):
    model = build_model(ModelSpec.nano("affine"), seed=9)
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(model, path, meta={"seed": 9})
    loaded, meta = load_checkpoint(path)
    orig = dict(model.named_parameters())
    for name, p in loaded.named_parameters():
        assert p.data.tobytes() == orig[name].data.tobytes(), name
    assert meta == {"seed": 9}

    rng = np.random.default_rng(0)
    n = 20
    labels = rng.integers(0, 10, n).astype(np.uint8)
    pixels = rng.integers(0, 256, (n, 3072)).astype(np.uint8)
    fixture = str(tmp_path / "batch.bin")
    np.concatenate([labels[:, None], pixels], axis=1).tofile(fixture)
    assert os.path.getsize(fixture) == n * 3073
    ds = load_cifar10_binary(fixture)
    assert ds.images.shape == (n, 3, 32, 32)
    np.testing.assert_array_equal(ds.labels, labels.astype(np.int64))
