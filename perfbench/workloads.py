"""The benchmark's workloads: infer, teacher and distill.

Each workload builds everything from the seed in `setup`, then `unit` runs one
unit of work; the runner repeats units in one closed loop (one caller, the
next unit starts when the previous one ends). Library calls go through
`Run.op`, which times the call, counts it as attempted, and counts a
NumericsError, a TrainingDiverged or a failed output check as failed.
Inputs are synthetic: `synth_dataset` images or seeded normal probes.
"""
from __future__ import annotations

import hashlib
import os
import statistics
from collections import defaultdict
from time import perf_counter

import numpy as np

import riformer as rf

BATCH = 32
RES = 64
# Layer scale 0.1 instead of 1e-5 and perturbed affine coefficients, so the
# mixer branch moves the logits and the fusion check compares two genuinely
# different computations.
LAYER_SCALE = 0.1


def median(values) -> float:
    """Median; 0 for an empty series (every operation of its kind failed)."""
    return float(statistics.median(values)) if values else 0.0


def tail(values) -> tuple[float, float, int]:
    """(value, percentile, samples) of the highest percentile with at least
    ten samples beyond it: the eleventh largest sample."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return (float(xs[-1]) if xs else 0.0), 100.0, n
    return float(xs[n - 11]), 100.0 * (n - 10) / n, n


class Run:
    """Attempted and failed operation counts of one benchmark process, and
    the speed probe that runs between its operations (None when tracing)."""

    def __init__(self, probe=None):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.probe = probe

    def maybe_probe(self) -> None:
        if self.probe is not None:
            self.probe.maybe()

    def op(self, what: str, fn, check=None):
        """Call `fn` once. Returns (result, (start, end)); result is None when
        the call raised a numerics error or `check(result)` named a problem."""
        self.attempted += 1
        self.maybe_probe()
        t0 = perf_counter()
        try:
            out = fn()
        except (rf.NumericsError, rf.TrainingDiverged) as e:
            self._fail(what, f"{type(e).__name__}: {e}")
            return None, (t0, perf_counter())
        span = (t0, perf_counter())
        self.maybe_probe()
        problem = check(out) if check is not None else None
        if problem:
            self._fail(what, problem)
            return None, span
        return out, span

    def _fail(self, what: str, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{what}: {why}")


class TimedDataset(rf.Dataset):
    """A Dataset whose `batches()` timestamps `train()` from outside.

    The time from a yield to the caller's next request is one training step
    (or one evaluation batch); a pass is timed from its first request to
    exhaustion. The pass counter, reset before each `train()` call, is the
    epoch. Between steps, outside both, `run.maybe_probe()` may time the speed
    probe. Under tracing, batch fetches become `data.batch_wait` spans and
    each step records the span indices it covers.
    """

    def __post_init__(self):
        super().__post_init__()
        self.tracer = None
        self.run = None
        self.reset()

    def reset(self) -> None:
        self.passes = 0
        self.steps: list[tuple[int, tuple[float, float], int, int]] = []
        self.pass_spans: list[tuple[float, float]] = []

    def batches(self, batch_size, rng=None):
        epoch = self.passes
        self.passes += 1
        tracer = self.tracer
        inner = super().batches(batch_size, rng)
        start = perf_counter()
        while True:
            t0 = perf_counter()
            try:
                item = next(inner)
            except StopIteration:
                break
            if tracer is not None:
                tracer.add_span("data.batch_wait", t0, perf_counter())
            first = len(tracer.spans) if tracer is not None else 0
            t_yield = perf_counter()
            yield item
            span = (t_yield, perf_counter())
            end = len(tracer.spans) if tracer is not None else 0
            self.steps.append((epoch, span, first, end))
            if self.run is not None:
                self.run.maybe_probe()
        self.pass_spans.append((start, perf_counter()))


def _timed(data: rf.Dataset) -> TimedDataset:
    return TimedDataset(images=data.images, labels=data.labels)


def _datasets(seed: int, batches: int) -> tuple[TimedDataset, TimedDataset]:
    """Train set of `batches` whole batches of 32 and a 200-image val set."""
    train = rf.synth_dataset(rf.SynthSpec(seed=seed,
                                          samples_per_class=batches * BATCH // 8,
                                          resolution=RES, stream="train"))
    val = rf.synth_dataset(rf.SynthSpec(seed=seed, samples_per_class=25,
                                        resolution=RES, stream="val"))
    return _timed(train), _timed(val)


def _spec(mixer: str) -> rf.ModelSpec:
    return rf.ModelSpec.nano(mixer, layer_scale_init=LAYER_SCALE)


def _perturb_affine(model: rf.ModelWeights, rng: np.random.Generator) -> None:
    for name, p in model.named_parameters():
        if name.endswith(".mixer.s"):
            p.data = (1.0 + rng.normal(0.0, 0.5, p.shape)).astype(np.float32)
        elif name.endswith(".mixer.t"):
            p.data = rng.normal(0.0, 0.5, p.shape).astype(np.float32)


def _probes(rng: np.random.Generator, n: int, res: int) -> np.ndarray:
    return rng.normal(0.0, 1.0, (n, 3, res, res)).astype(np.float32)


def _finite_logits(out) -> str | None:
    return None if np.isfinite(out.data).all() else "non-finite logits"


def _phase_of(cfg: rf.TrainConfig, epoch: int) -> str:
    if cfg.imitation is None:
        return cfg.recipe
    terms = cfg.imitation.active_terms(epoch)
    return "feat" if "in_prime" in terms else "rel" if "rel" in terms else "soft"


class Workload:
    """`series` holds the (start, end) of every timed sample; `metrics(scale)`
    reduces them with `scale(start, end)` giving the seconds to report."""
    name = ""
    min_units = 1

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.series: dict[str, list[tuple[float, float]]] = defaultdict(list)
        self.unit_steps: list[tuple[str, int, int]] = []
        self.datasets: tuple[TimedDataset, ...] = ()

    def set_tracer(self, tracer) -> None:
        for ds in self.datasets:
            ds.tracer = tracer

    def _train(self, run: Run, model, cfg, teacher=None):
        """One `train()` call; its step and evaluation times go to `series`."""
        train_ds, val_ds = self.datasets
        for ds in self.datasets:
            ds.reset()
        train_ds.run = run
        res, _ = run.op("train", lambda: rf.train(model, train_ds, val_ds, cfg,
                                                  teacher=teacher),
                        lambda r: None if np.isfinite(r.final_val_top1)
                        else "non-finite validation accuracy")
        if res is None:
            return None
        for epoch, span, first, end in train_ds.steps:
            phase = _phase_of(cfg, epoch)
            self.series["step"].append(span)
            self.series[f"step.{phase}"].append(span)
            self.unit_steps.append((phase, first, end))
        self.series["eval"] += val_ds.pass_spans
        return res

    def _step_report(self, scale) -> dict:
        steps = [scale(*span) for span in self.series["step"]]
        value, pct, n = tail(steps)
        images = len(self.datasets[1])
        evals = [images / scale(*span) for span in self.series["eval"]]
        return {"step_ms_p50": (median(steps) * 1e3, "ms"),
                "step_ms_tail": (value * 1e3, "ms"),
                "step_ms_tail_pct": (pct, "percentile"),
                "step_samples": (n, "count"),
                "eval_ips": (median(evals), "img/s")}

    def _median_s(self, key: str, scale) -> float:
        return median([scale(*span) for span in self.series[key]])


class Infer(Workload):
    """Forward-only inference. Per round, the pooling, affine and deploy forms
    each run one batch of 32 (round-robin, the starting form rotating), then
    the deploy form runs B1 batch-1 forwards; each unit ends with a fusion
    check on VERIFY_PROBES probes."""
    name = "infer"
    ROUNDS = 6
    # Few batch-1 forwards per round keep the series near 300 samples, so its
    # tail (the eleventh largest) sits near p96 rather than in rare hiccups.
    B1 = 2
    VERIFY_PROBES = 20
    FORMS = ("pooling", "affine", "deploy")

    def setup(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 11])
        pooling = rf.build_model(_spec("pooling"), seed=seed)
        affine = rf.build_model(_spec("affine"), seed=seed + 1)
        _perturb_affine(affine, rng)
        deploy = rf.switch_to_deploy(affine)
        self.seed = seed
        self.models = {"pooling": pooling, "affine": affine, "deploy": deploy}
        self.batches = [rf.Tensor(_probes(rng, BATCH, RES)) for _ in range(4)]
        self.singles = [rf.Tensor(_probes(rng, 1, RES)) for _ in range(8)]
        for model in self.models.values():
            rf.forward(model, self.batches[0])
        rf.forward(deploy, self.singles[0])
        self.ratios: dict[str, list[float]] = defaultdict(list)

    def unit(self, run: Run, k: int) -> None:
        deploy = self.models["deploy"]
        for r in range(self.ROUNDS):
            i = k * self.ROUNDS + r
            x = self.batches[i % len(self.batches)]
            order = self.FORMS[i % 3:] + self.FORMS[:i % 3]
            took = {}
            for form in order:
                model = self.models[form]
                out, span = run.op(f"forward.{form}",
                                   lambda: rf.forward(model, x), _finite_logits)
                if out is not None:
                    took[form] = span[1] - span[0]
                    self.series[f"fwd.{form}"].append(span)
            if len(took) == 3:
                self.ratios["affine"].append(took["affine"] / took["deploy"])
                self.ratios["pooling"].append(took["pooling"] / took["deploy"])
            for j in range(self.B1):
                x1 = self.singles[j % len(self.singles)]
                out, span = run.op("forward.deploy.b1",
                                   lambda: rf.forward(deploy, x1),
                                   _finite_logits)
                if out is not None:
                    self.series["b1"].append(span)
        out, span = run.op(
            "verify_equivalence",
            lambda: rf.verify_equivalence(self.models["affine"], deploy,
                                          n_probes=self.VERIFY_PROBES,
                                          tol=1e-5, seed=self.seed + k),
            lambda rep: None if rep.passed
            else f"max |deploy - affine| = {rep.max_abs_diff}")
        if out is not None:
            self.series["verify"].append(span)

    def metrics(self, scale) -> tuple[dict, dict]:
        ips = {f: BATCH / self._median_s(f"fwd.{f}", scale) for f in self.FORMS}
        b1 = [scale(*span) for span in self.series["b1"]]
        b1_tail, pct, n = tail(b1)
        b1_p50 = median(b1)
        verify_s = self._median_s("verify", scale)
        e2e = {"op_ms_p50": b1_p50 * 1e3, "op_ms_tail": b1_tail * 1e3,
               "fwd_ips": ips["deploy"], "post_call_s": verify_s}
        report = {f"fwd_ips.{f}": (ips[f], "img/s") for f in self.FORMS}
        report.update({
            "b1_ms_p50": (b1_p50 * 1e3, "ms"),
            "b1_ms_tail": (b1_tail * 1e3, "ms"),
            "b1_ms_tail_pct": (pct, "percentile"),
            "b1_samples": (n, "count"),
            "fwd_samples_per_form": (len(self.series["fwd.deploy"]), "count"),
            "ratio.deploy_over_affine": (median(self.ratios["affine"]), "x"),
            "ratio.deploy_over_pooling": (median(self.ratios["pooling"]), "x"),
            "verify_s": (verify_s, "s"),
        })
        return e2e, report


class Teacher(Workload):
    """`train()` with recipe ce on the pooling teacher (2 epochs of 8 steps,
    validation every epoch), then `erf_map` on 8 probes at 128x128."""
    name = "teacher"

    def setup(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 12])
        self.model = rf.build_model(_spec("pooling"), seed=seed)
        self.datasets = _datasets(seed, batches=8)
        self.probes = _probes(rng, 8, 2 * RES)
        self.cfg = rf.TrainConfig(epochs=2, batch_size=BATCH, recipe="ce",
                                  seed=seed, warmup_epochs=1)
        rf.forward(self.model, rf.Tensor(self.datasets[0].images[:BATCH]))

    def unit(self, run: Run, k: int) -> None:
        res = self._train(run, self.model.clone(), self.cfg)
        if res is None:
            return
        erf, span = run.op(
            "erf_map", lambda: rf.erf_map(res.model, self.probes),
            lambda e: None if np.isfinite(e).all() and e.max() == 1.0
            else f"ERF map not finite or peak {e.max()} != 1")
        if erf is not None:
            self.series["erf"].append(span)

    def metrics(self, scale) -> tuple[dict, dict]:
        report = self._step_report(scale)
        erf_s = self._median_s("erf", scale)
        report["erf_s"] = (erf_s, "s")
        e2e = {"op_ms_p50": report["step_ms_p50"][0],
               "op_ms_tail": report["step_ms_tail"][0],
               "fwd_ips": report["eval_ips"][0], "post_call_s": erf_s}
        return e2e, report


class Distill(Workload):
    """`train()` with recipe soft_kd_mi: a seed-built pooling teacher feeds an
    affine student over three epochs of 4 steps, one epoch per phase (feature
    terms, relation term, soft loss only), validation every epoch. The
    student is then fused, checked on 100 probes and round-tripped through a
    checkpoint; every deploy in the run must produce the same checkpoint
    bytes."""
    name = "distill"
    min_units = 2
    VERIFY_PROBES = 100
    # Each trained student is deployed twice: twice the deploy_s samples, and
    # fusion itself must be repeatable byte for byte.
    DEPLOYS = 2

    def setup(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 13])
        self.seed = seed
        self.teacher = rf.build_model(_spec("pooling"), seed=seed)
        self.student = rf.build_model(_spec("affine"), seed=seed + 1)
        _perturb_affine(self.student, rng)
        self.datasets = _datasets(seed, batches=4)
        mi = rf.ImitationConfig(feat_epochs=1, rel_epochs=1, total_epochs=3)
        self.cfg = rf.TrainConfig(epochs=3, batch_size=BATCH,
                                  recipe="soft_kd_mi", imitation=mi,
                                  seed=seed, warmup_epochs=1)
        self.path = os.path.join(self.workdir, "deploy.ckpt")
        self.digests: list[str] = []
        x = rf.Tensor(self.datasets[0].images[:BATCH])
        rf.forward(self.teacher, x)
        rf.forward(self.student, x)

    def _deploy(self, model):
        deploy = rf.switch_to_deploy(model)
        report = rf.verify_equivalence(model, deploy,
                                       n_probes=self.VERIFY_PROBES, tol=1e-5,
                                       seed=self.seed)
        rf.save_checkpoint(deploy, self.path)
        loaded, _ = rf.load_checkpoint(self.path)
        return deploy, report, loaded

    def _check_deploy(self, result) -> str | None:
        deploy, report, loaded = result
        if not report.passed:
            return f"max |deploy - student| = {report.max_abs_diff}"
        a, b = dict(deploy.named_parameters()), dict(loaded.named_parameters())
        if a.keys() != b.keys() or not all(
                np.array_equal(a[n].data, b[n].data) for n in a):
            return "checkpoint round trip changed the weights"
        with open(self.path, "rb") as f:
            digest = hashlib.sha256(f.read()).hexdigest()
        self.digests.append(digest)
        if digest != self.digests[0]:
            return f"checkpoint sha256 {digest} != first unit's {self.digests[0]}"
        return None

    def unit(self, run: Run, k: int) -> None:
        res = self._train(run, self.student.clone(), self.cfg,
                          teacher=self.teacher)
        if res is None:
            return
        for _ in range(self.DEPLOYS):
            out, span = run.op("deploy", lambda: self._deploy(res.model),
                               self._check_deploy)
            if out is not None:
                self.series["deploy"].append(span)

    def metrics(self, scale) -> tuple[dict, dict]:
        report = self._step_report(scale)
        for phase in ("feat", "rel", "soft"):
            report[f"step_ms_p50.{phase}"] = (
                self._median_s(f"step.{phase}", scale) * 1e3, "ms")
        deploy_s = self._median_s("deploy", scale)
        report["deploy_s"] = (deploy_s, "s")
        report["checkpoint_sha256"] = (self.digests[0] if self.digests else None,
                                       "hex")
        e2e = {"op_ms_p50": report["step_ms_p50"][0],
               "op_ms_tail": report["step_ms_tail"][0],
               "fwd_ips": report["eval_ips"][0], "post_call_s": deploy_s}
        return e2e, report


WORKLOADS = {w.name: w for w in (Infer, Teacher, Distill)}
