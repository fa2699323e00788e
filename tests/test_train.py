"""Training loop: determinism, logging schema, recipes, evaluation."""
import csv
import importlib
import os
import signal
import threading
import time
import warnings

import numpy as np
import pytest

import riformer.tensor as T
from riformer import (LOG_COLUMNS, ImitationConfig, ModelSpec, NumericsError,
                      SynthSpec, Tensor, TrainConfig, build_model, evaluate,
                      forward, save_checkpoint, switch_to_deploy,
                      synth_dataset, train)
from riformer.data import Dataset
from riformer.train import write_log
from helpers import blas_threads, on_worker, spy_gradients, tiny_spec


def small_data(seed=0, per_class=4, classes=4):
    spec = SynthSpec(seed=seed, num_classes=classes, samples_per_class=per_class,
                     resolution=32, stream="train")
    vspec = SynthSpec(seed=seed, num_classes=classes, samples_per_class=per_class,
                      resolution=32, stream="val")
    return synth_dataset(spec), synth_dataset(vspec)


def quick_cfg(recipe="ce", epochs=2, **kw):
    kw.setdefault("batch_size", 8)
    kw.setdefault("lr", 1e-3)
    kw.setdefault("warmup_epochs", 1)
    return TrainConfig(recipe=recipe, epochs=epochs, **kw)


def test_labels_outside_the_model_classes_rejected():
    # tiny_spec has 4 classes
    images = np.zeros((2, 3, 32, 32), np.float32)
    good = Dataset(images, np.array([0, 3]))
    for labels in ([0, 4], [-1, 0]):
        bad = Dataset(images, np.array(labels))
        for split, data in (("train", (bad, good)), ("val", (good, bad))):
            with pytest.raises(ValueError, match=rf"^{split} labels must lie "
                                                 rf"in \[0, 4\)"):
                train(build_model(tiny_spec(), seed=0), *data,
                      quick_cfg(epochs=1))


@pytest.mark.parametrize("layers", [(99,), (-1,), (0, 5)])
def test_imitation_layers_outside_the_model_rejected_before_a_forward(
        layers, monkeypatch):
    # tiny_spec has 5 blocks; the check runs before the teacher's first
    # forward, not as a KeyError in the first MI step
    train_mod = importlib.import_module("riformer.train")

    def never(*args, **kwargs):
        raise AssertionError("a forward ran before the layers were checked")

    monkeypatch.setattr(train_mod, "forward", never)
    tr, va = small_data()
    cfg = quick_cfg("soft_kd_mi", epochs=1,
                    imitation=ImitationConfig(layers=layers, feat_epochs=1,
                                              rel_epochs=0, total_epochs=1))
    with pytest.raises(ValueError, match=r"^imitation.layers must lie in "
                                         r"\[0, 4\]"):
        train(build_model(tiny_spec(), seed=0), tr, va, cfg,
              teacher=build_model(tiny_spec("pooling"), seed=3))


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(recipe="mse").validate()
    with pytest.raises(ValueError):
        TrainConfig(recipe="soft_kd_mi").validate()
    with pytest.raises(ValueError):
        TrainConfig(epochs=0).validate()
    # train() would fail at its first epoch past the phase schedule
    mi = ImitationConfig(feat_epochs=1, rel_epochs=1, total_epochs=2)
    TrainConfig(recipe="soft_kd_mi", epochs=2, imitation=mi).validate()
    with pytest.raises(ValueError, match=r"^epochs 3 exceeds "
                                         r"imitation\.total_epochs 2$"):
        TrainConfig(recipe="soft_kd_mi", epochs=3, imitation=mi).validate()


@pytest.mark.parametrize("kw,message", [
    ({"lr": 0.0}, "lr must be positive"),
    ({"lr": -1.0}, "lr must be positive"),
    ({"lr": float("inf")}, "lr must be positive"),
    ({"lr": float("nan")}, "lr must be positive"),
    ({"weight_decay": -0.01}, "weight_decay must be >= 0"),
    ({"weight_decay": float("nan")}, "weight_decay must be >= 0"),
    ({"label_smoothing": -0.1}, r"label_smoothing must be in \[0, 1\)"),
    ({"label_smoothing": 1.0}, r"label_smoothing must be in \[0, 1\)"),
    ({"label_smoothing": 2.0}, r"label_smoothing must be in \[0, 1\)"),
    ({"tau": 0.0}, "tau must be positive"),
    ({"tau": -2.0}, "tau must be positive"),
    ({"tau": float("nan")}, "tau must be positive"),
    ({"warmup_epochs": -3}, "warmup_epochs must be >= 0"),
    ({"seed": -1}, "seed must be >= 0"),
], ids=["lr_zero", "lr_negative", "lr_inf", "lr_nan", "weight_decay_negative",
        "weight_decay_nan", "smoothing_negative", "smoothing_one",
        "smoothing_two", "tau_zero", "tau_negative", "tau_nan",
        "warmup_negative", "seed_negative"])
def test_config_rejects_values_out_of_range(kw, message):
    # each would otherwise train (to NaN, or with negative targets), or fail
    # only once training starts
    with pytest.raises(ValueError, match=f"^{message}"):
        TrainConfig(**kw).validate()


def test_config_accepts_range_edges():
    for kw in ({"lr": None}, {"lr": 1e-9}, {"weight_decay": 0.0},
               {"label_smoothing": 0.0}, {"label_smoothing": 0.999},
               {"tau": 1e-3}, {"warmup_epochs": 0}):
        TrainConfig(**kw).validate()


def test_lr_rule_default():
    assert TrainConfig(batch_size=1024).base_lr == pytest.approx(1e-3)
    assert TrainConfig(batch_size=512).base_lr == pytest.approx(5e-4)
    assert TrainConfig(batch_size=32, lr=0.01).base_lr == 0.01


def test_lr_schedule_warmup_then_cosine():
    cfg = TrainConfig(epochs=10, warmup_epochs=2, lr=1.0)
    assert cfg.lr_at(0) == pytest.approx(0.5)
    assert cfg.lr_at(1) == pytest.approx(1.0)
    assert cfg.lr_at(2) == pytest.approx(1.0)
    assert cfg.lr_at(9) > 0.0
    assert cfg.lr_at(9) < cfg.lr_at(5) < cfg.lr_at(2)


def test_missing_teacher_rejected():
    model = build_model(tiny_spec("affine"), seed=0)
    tr, va = small_data()
    with pytest.raises(ValueError):
        train(model, tr, va, quick_cfg("soft_kd"))


def test_deploy_model_rejected():
    # the deploy form has no mixer branch to imitate or drop
    deploy = switch_to_deploy(build_model(tiny_spec("affine"), seed=0))
    tr, va = small_data()
    with pytest.raises(ValueError, match="train form"):
        train(deploy, tr, va, quick_cfg("ce"))


def test_ce_log_has_only_ce_columns(tmp_path):
    # hard_kd is cross-entropy on the teacher's labels: no soft term either
    tr, va = small_data()
    teacher = build_model(tiny_spec("pooling"), seed=3)
    for recipe in ("ce", "hard_kd"):
        model = build_model(tiny_spec("identity"), seed=0)
        log = str(tmp_path / f"{recipe}.csv")
        train(model, tr, va, quick_cfg(recipe, epochs=1), log_path=log,
              teacher=teacher if recipe == "hard_kd" else None)
        rows = list(csv.DictReader(open(log)))
        assert list(rows[0].keys()) == list(LOG_COLUMNS)
        assert rows[0]["loss_total"] != ""
        assert rows[0]["loss_soft"] == ""
        assert rows[0]["loss_rel"] == ""
        assert rows[0]["val_top1"] != ""


def test_determinism_identical_checkpoints(tmp_path):
    tr, va = small_data()

    def run(path):
        model = build_model(tiny_spec("identity"), seed=7)
        result = train(model, tr, va, quick_cfg("ce", epochs=2, seed=7))
        save_checkpoint(result.model, path)

    run(str(tmp_path / "a.ckpt"))
    run(str(tmp_path / "b.ckpt"))
    assert (open(tmp_path / "a.ckpt", "rb").read()
            == open(tmp_path / "b.ckpt", "rb").read())


def test_checkpoint_bytes_do_not_depend_on_blas_threads(tmp_path, monkeypatch):
    # at 1 BLAS thread the weight gradients run on the backward worker, at 2
    # inline; the bytes are the same either way
    seen = spy_gradients(monkeypatch)
    tr, va = small_data()
    ckpts, worker_jobs = [], []
    for threads in (1, 2):
        seen.clear()
        with blas_threads(threads):
            model = build_model(tiny_spec("affine"), seed=7)
            result = train(model, tr, va, quick_cfg("ce", epochs=2, seed=7))
        path = tmp_path / f"threads{threads}.ckpt"
        save_checkpoint(result.model, str(path))
        ckpts.append(path.read_bytes())
        worker_jobs.append(on_worker(seen))
    assert worker_jobs[0] > 0 and worker_jobs[1] == 0
    assert ckpts[0] == ckpts[1]


def test_gradients_left_on_the_model_do_not_move_training():
    tr, va = small_data()

    def trained(stale):
        model = build_model(tiny_spec("affine"), seed=7)
        if stale:
            rng = np.random.default_rng(1)
            for _, p in model.named_parameters():
                p.grad = rng.normal(0, 1, p.shape).astype(np.float32)
        train(model, tr, va, quick_cfg("ce", epochs=1, seed=7))
        return [p.data for _, p in model.named_parameters()]

    clean, stale = trained(False), trained(True)
    assert all(np.array_equal(a, b) for a, b in zip(clean, stale))


def test_loss_decreases_over_training():
    model = build_model(tiny_spec("identity"), seed=0)
    tr, va = small_data(per_class=6)
    result = train(model, tr, va, quick_cfg("ce", epochs=4, lr=2e-3))
    first, last = result.log[0]["loss_total"], result.log[-1]["loss_total"]
    assert last < first


def test_teacher_unchanged_by_distillation():
    teacher = build_model(tiny_spec("pooling"), seed=3)
    before = {n: p.data.copy() for n, p in teacher.named_parameters()}
    student = build_model(tiny_spec("affine"), seed=4)
    tr, va = small_data()
    train(student, tr, va, quick_cfg("soft_kd"), teacher=teacher)
    for name, p in teacher.named_parameters():
        assert np.array_equal(p.data, before[name]), name


def test_soft_kd_mi_populates_all_loss_columns():
    from riformer import ImitationConfig
    teacher = build_model(tiny_spec("pooling"), seed=3)
    student = build_model(tiny_spec("affine"), seed=4)
    tr, va = small_data()
    mi = ImitationConfig(feat_epochs=1, rel_epochs=1, total_epochs=2,
                         lambda1_x_batch=0.01, lambda2_x_batch=0.1,
                         lambda3_x_batch=1.0)
    cfg = quick_cfg("soft_kd_mi", epochs=2, imitation=mi)
    result = train(student, tr, va, cfg, teacher=teacher)
    feat_row, rel_row = result.log[0], result.log[1]
    assert feat_row["loss_in_prime"] > 0.0
    assert feat_row["loss_out"] > 0.0
    assert feat_row["loss_rel"] == 0.0
    assert rel_row["loss_rel"] > 0.0


@pytest.mark.parametrize("recipe", ["soft_kd", "soft_kd_mi"])
def test_soft_recipes_use_train_tau(recipe, monkeypatch):
    train_mod = importlib.import_module("riformer.train")
    taus = []

    def recorded(student_logits, teacher_logits, tau=1.0):
        taus.append(tau)
        return loss_soft(student_logits, teacher_logits, tau)

    loss_soft = train_mod.loss_soft
    monkeypatch.setattr(train_mod, "loss_soft", recorded)
    tr, va = small_data()
    mi = ImitationConfig(feat_epochs=1, rel_epochs=0, total_epochs=1,
                         layers=(0,))
    train(build_model(tiny_spec("affine"), seed=4), tr, va,
          quick_cfg(recipe, epochs=1, tau=3.0, imitation=mi),
          teacher=build_model(tiny_spec("pooling"), seed=3))
    assert taus and set(taus) == {3.0}


def test_init_from_teacher_starts_at_teacher_function():
    teacher = build_model(tiny_spec("pooling"), seed=5)
    student = build_model(tiny_spec("affine"), seed=6)
    tr, va = small_data()
    from riformer import load_from_teacher, forward
    load_from_teacher(student, teacher)
    x = Tensor(np.full((1, 3, 32, 32), 0.25, np.float32))
    assert np.array_equal(forward(student, x).data, forward(teacher, x).data)


# ---------------------------------------------------------------------------
# Evaluation

def test_evaluate_perfect_and_constant_models():
    class Recorder:
        pass

    # brute-force oracle comparison on a real model
    model = build_model(tiny_spec("identity"), seed=0)
    _, va = small_data()
    acc = evaluate(model, va)
    correct = 0
    for i in range(len(va)):
        logits = forward(model, Tensor(va.images[i:i + 1])).data[0]
        if int(np.argmax(logits)) == va.labels[i]:
            correct += 1
    assert acc == pytest.approx(correct / len(va))


def test_evaluate_tie_breaks_to_lower_index():
    # all-zero head: constant equal logits, argmax picks class 0
    model = build_model(tiny_spec("identity"), seed=0)
    model.head_w.data[:] = 0.0
    model.head_b.data[:] = 0.0
    _, va = small_data()
    freq0 = float((va.labels == 0).mean())
    assert evaluate(model, va) == pytest.approx(freq0)


def test_empty_splits_rejected_before_the_first_step(monkeypatch):
    def no_step(*args):
        raise AssertionError("train() took a step")

    monkeypatch.setattr(importlib.import_module("riformer.train"), "_step",
                        no_step)
    tr, va = small_data()
    empty = Dataset(images=np.zeros((0, 3, 32, 32), np.float32),
                    labels=np.zeros(0, np.int64))
    for split, data in (("train", (empty, va)), ("val", (tr, empty))):
        with pytest.raises(ValueError, match=rf"^the {split} set is empty$"):
            train(build_model(tiny_spec(), seed=0), *data, quick_cfg())


def test_evaluate_empty_dataset_rejected():
    model = build_model(tiny_spec("identity"), seed=0)
    empty = Dataset(images=np.zeros((0, 3, 32, 32), np.float32),
                    labels=np.zeros(0, np.int64))
    with pytest.raises(ValueError):
        evaluate(model, empty)


def _spy_halves(monkeypatch, fail=None):
    """A list that receives (thread name, batch size, outcome) as each
    evaluation forward ends. `fail` maps "main" or "worker" to the
    (delay in s, exception or None) a forward on that thread meets
    before it runs."""
    train_mod = importlib.import_module("riformer.train")
    real = train_mod.forward
    ended = []

    def spied(model, x, **kw):
        name = threading.current_thread().name
        outcome = "ok"
        try:
            side = "worker" if name.startswith("riformer-worker") else "main"
            delay, error = (fail or {}).get(side, (0.0, None))
            time.sleep(delay)
            if error is not None:
                raise error
            return real(model, x, **kw)
        except Exception as e:
            outcome = type(e).__name__
            raise
        finally:
            ended.append((name, x.shape[0], outcome))

    monkeypatch.setattr(train_mod, "forward", spied)
    monkeypatch.setattr(T, "_cpus", lambda: 2)
    return ended


def _worker_sizes(ended):
    return [n for name, n, _ in ended if name.startswith("riformer-worker")]


def _nano(kind):
    model = build_model(ModelSpec.nano("affine" if kind == "deploy" else kind),
                        seed=0)
    return switch_to_deploy(model) if kind == "deploy" else model


@pytest.mark.parametrize("kind", ["pooling", "affine", "deploy"])
def test_evaluate_on_the_worker_matches_inline(kind, monkeypatch):
    # a third of the labels miss the inline prediction, so a sample dropped,
    # counted twice or paired with another's label changes the result
    model = _nano(kind)
    rng = np.random.default_rng(1)
    images = rng.normal(0, 1, (200, 3, 64, 64)).astype(np.float32)
    pred = np.concatenate([
        np.argmax(forward(model, Tensor(images[i:i + 64])).data, axis=1)
        for i in range(0, 200, 64)])
    classes = model.spec.num_classes
    labels = np.where(np.arange(200) % 3 == 0, (pred + 1) % classes, pred)
    ended = _spy_halves(monkeypatch)
    # halves of batches: none for 1; 1 + 2; 32 + 32, then 1 alone; 32 + 32
    # three times, then 4 + 4
    for n, worker_sizes in ((1, []), (3, [2]), (65, [32]),
                            (200, [32, 32, 32, 4])):
        data = Dataset(images[:n], labels[:n])
        want = (np.arange(n) % 3 != 0).sum() / n
        with blas_threads(2):
            assert evaluate(model, data) == want
        assert _worker_sizes(ended) == []
        with blas_threads(1):
            assert evaluate(model, data) == want
        assert _worker_sizes(ended) == worker_sizes
        assert sum(size for _, size, _ in ended) == 2 * n
        ended.clear()


def test_evaluate_raises_a_failure_of_the_workers_half(monkeypatch):
    # the first block's w1 overflows every nonzero hidden input; the zero
    # images of the first half keep their hidden inputs zero
    model = build_model(ModelSpec.nano("pooling"), seed=0)
    model.blocks[0][0].mlp_w1.data[:] = 3e38
    images = np.zeros((4, 3, 64, 64), np.float32)
    images[2:] = np.random.default_rng(0).normal(0, 1, (2, 3, 64, 64))
    data = Dataset(images, np.zeros(4, np.int64))
    ended = _spy_halves(monkeypatch)
    # the worker runs in the caller's numpy error state: an overflow warning
    # there would raise RuntimeWarning, not NumericsError
    with blas_threads(1), warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="ignore"), pytest.raises(NumericsError):
            evaluate(model, data)
    assert sorted((name.startswith("riformer-worker"), outcome)
                  for name, _, outcome in ended) == [
        (False, "ok"), (True, "NumericsError")]


@pytest.mark.parametrize("worker_error", [None, RuntimeError("worker half")])
def test_evaluate_raises_only_after_both_halves_end(worker_error, monkeypatch):
    # the main thread's half fails at once while the worker's takes 0.2 s;
    # the main thread's error wins whether or not the worker's half fails
    ended = _spy_halves(monkeypatch, fail={
        "main": (0.0, RuntimeError("main half")),
        "worker": (0.2, worker_error)})
    _, va = small_data()
    with blas_threads(1), pytest.raises(RuntimeError, match="^main half$"):
        evaluate(build_model(tiny_spec("identity"), seed=0), va)
    assert len(ended) == 2 and len(_worker_sizes(ended)) == 1
    assert {outcome for *_, outcome in ended} == {"RuntimeError", (
        "ok" if worker_error is None else "RuntimeError")}


def test_evaluate_in_a_forked_child_finishes(monkeypatch):
    # a forked child inherits the parent's worker without its thread
    _, va = small_data()
    model = build_model(tiny_spec("pooling"), seed=0)
    ended = _spy_halves(monkeypatch)
    with blas_threads(1):
        want = evaluate(model, va)
        assert _worker_sizes(ended)  # the parent's worker exists
        pid = os.fork()
        if pid == 0:  # exits 0 only if a worker of its own ran a half
            code = 1
            try:
                ended.clear()
                code = 0 if (evaluate(model, va) == want
                             and _worker_sizes(ended)) else 2
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60
        while ((done := os.waitpid(pid, os.WNOHANG))[0] == 0
               and time.monotonic() < deadline):
            time.sleep(0.05)
        if done[0] == 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    assert done[0] == pid, "the child's evaluate did not finish in 60 s"
    assert os.waitstatus_to_exitcode(done[1]) == 0


def test_write_log_schema(tmp_path):
    path = str(tmp_path / "log.csv")
    write_log([{"epoch": 0, "lr": 0.1, "loss_total": 1.0, "val_top1": 0.5}],
              path)
    rows = list(csv.DictReader(open(path)))
    assert list(rows[0].keys()) == list(LOG_COLUMNS)
    assert rows[0]["loss_soft"] == ""


# ---------------------------------------------------------------------------
# Teacher cache and gradient precision

def _mi_config(feat_epochs, rel_epochs, total_epochs):
    return ImitationConfig(feat_epochs=feat_epochs, rel_epochs=rel_epochs,
                           total_epochs=total_epochs, lambda1_x_batch=0.01,
                           lambda2_x_batch=0.1, lambda3_x_batch=1.0)


@pytest.mark.parametrize("recipe", ["soft_kd_mi", "soft_kd", "hard_kd"])
def test_teacher_cache_is_exact(recipe, monkeypatch):
    # 20 samples at batch 8: the last batch of every epoch is partial, and
    # the soft_kd_mi run has two feat epochs (block and mixer outputs kept),
    # two rel epochs (block outputs only) and a soft epoch (logits only)
    # (the package's `train` attribute is the function, hence importlib)
    train_mod = importlib.import_module("riformer.train")
    cache_cls = train_mod._TeacherCache
    teacher = build_model(tiny_spec("pooling"), seed=3)
    tr, va = small_data(per_class=5)
    epochs = 5 if recipe == "soft_kd_mi" else 3
    cfg = quick_cfg(recipe, epochs=epochs, seed=5,
                    imitation=_mi_config(2, 2, epochs)
                    if recipe == "soft_kd_mi" else None)
    live_forward, store, gather = (train_mod.forward, cache_cls.store,
                                   cache_cls.gather)
    calls, stored, gathered = [], {}, []

    def counted(model, x, **kw):
        if model is teacher:
            calls.append(len(x.data))
        return live_forward(model, x, **kw)

    def stored_rows(self, idx, logits, cap):
        # copies of what the first epoch's live forwards gave, per sample
        for i, k in enumerate(idx):
            stored[k] = (logits.data[i].copy(), None if cap is None else
                         {(f, m): t.data[i].copy() for f in self.fields
                          for m, t in getattr(cap, f).items()})
        store(self, idx, logits, cap)

    def gathered_rows(self, idx, layers, fields):
        logits, cap = gather(self, idx, layers, fields)
        gathered.append(fields)
        for i, k in enumerate(idx):
            row_logits, row_acts = stored[k]
            assert np.array_equal(logits.data[i], row_logits)
            for f in fields:
                assert getattr(cap, f).keys() == set(layers)
                for m, t in getattr(cap, f).items():
                    assert np.array_equal(t.data[i], row_acts[f, m])
        return logits, cap

    monkeypatch.setattr(train_mod, "forward", counted)
    monkeypatch.setattr(cache_cls, "store", stored_rows)
    monkeypatch.setattr(cache_cls, "gather", gathered_rows)

    def run(budget):
        monkeypatch.setattr(train_mod, "TEACHER_CACHE_BYTES", budget)
        calls.clear()
        gathered.clear()
        student = build_model(tiny_spec("affine"), seed=4)
        train(student, tr, va, cfg, teacher=teacher)
        return dict(student.named_parameters()), sum(calls), list(gathered)

    cached, cached_samples, cached_fields = run(train_mod.TEACHER_CACHE_BYTES)
    again, _, _ = run(train_mod.TEACHER_CACHE_BYTES)
    live, live_samples, live_fields = run(0)
    # every gathered row holds the bytes the first epoch stored, each later
    # step gathers exactly the MI fields its epoch reads, and the same
    # config and seed give the same bytes twice
    assert cached_samples == len(tr)
    steps = -(-len(tr) // cfg.batch_size)
    phases = ([{"block_out", "mixer_out"}, {"block_out"}, {"block_out"},
               set()] if recipe == "soft_kd_mi" else [set()] * (epochs - 1))
    assert cached_fields == [f for f in phases for _ in range(steps)]
    assert all(np.array_equal(cached[k].data, again[k].data) for k in cached)
    # at budget 0 the teacher runs live on every step; it then sees other
    # batch mates, so it agrees with the cached run to float32 rounding
    assert live_samples == epochs * len(tr) and live_fields == []
    for k in cached:
        np.testing.assert_allclose(cached[k].data, live[k].data,
                                   rtol=1e-4, atol=1e-6, err_msg=k)


def test_single_epoch_keeps_no_teacher_cache(monkeypatch):
    # with one epoch no later step could read a cached row
    train_mod = importlib.import_module("riformer.train")
    built = []
    cache_init = train_mod._TeacherCache.__init__

    def counted(self, *args):
        built.append(args)
        cache_init(self, *args)

    monkeypatch.setattr(train_mod._TeacherCache, "__init__", counted)
    teacher = build_model(tiny_spec("pooling"), seed=3)
    tr, va = small_data()
    student = build_model(tiny_spec("affine"), seed=4)
    train(student, tr, va, quick_cfg("soft_kd", epochs=1), teacher=teacher)
    assert built == []
    train(student, tr, va, quick_cfg("soft_kd", epochs=2), teacher=teacher)
    assert len(built) == 1


def test_backward_is_float32(monkeypatch):
    seen = spy_gradients(monkeypatch)
    tr, va = small_data()
    # at 1 BLAS thread jobs run on the worker, at 2 inline
    for threads in (1, 2):
        seen.clear()
        # one step per epoch: a ce step, then a feat and a rel soft_kd_mi step
        student = build_model(tiny_spec("affine"), seed=4)
        teacher = build_model(tiny_spec("pooling"), seed=3)
        with blas_threads(threads):
            train(student, tr, va, quick_cfg("ce", epochs=1,
                                             batch_size=len(tr)))
            train(student, tr, va, quick_cfg("soft_kd_mi", epochs=2,
                                             imitation=_mi_config(1, 1, 2),
                                             batch_size=len(tr)),
                  teacher=teacher)
        assert len(seen) > 100
        assert (on_worker(seen) > 0) == (threads == 1)
        assert {dtype for _, dtype in seen} == {np.dtype(np.float32)}
        assert all(p.grad is None or p.grad.dtype == np.float32
                   for _, p in student.named_parameters())


def test_imitation_losses_are_looked_up_when_called(monkeypatch):
    # a benchmark tracer replaces the loss functions on riformer.imitation
    # after train.py is imported; train() must call the replacements, layer
    # by layer and in table order within a layer
    imitation_mod = importlib.import_module("riformer.imitation")
    calls = []
    for name in ("in_prime", "out", "rel"):
        original = getattr(imitation_mod, f"loss_{name}")

        def replaced(*args, name=name, original=original):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(imitation_mod, f"loss_{name}", replaced)
    teacher = build_model(tiny_spec("pooling"), seed=3)
    student = build_model(tiny_spec("affine"), seed=4)
    tr, va = small_data()
    cfg = quick_cfg("soft_kd_mi", epochs=2, imitation=_mi_config(1, 1, 2))
    train(student, tr, va, cfg, teacher=teacher)
    steps_x_layers = -(-len(tr) // cfg.batch_size) * 4  # 4 MI layers
    assert calls == (["in_prime", "out"] * steps_x_layers
                     + ["rel"] * steps_x_layers)
