"""Benchmark of the riformer library: the infer, teacher and distill workloads.

Run from the repository root:

    python3 perfbench/run.py --workload infer --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all     # the three workloads in turn

The benchmark imports the library from `src/` of the checkout it sits in,
pins BLAS to one thread before numpy is first imported and reads the thread
count back from OpenBLAS. It prints one report line (every metric under its
own name with its unit, derived ratios, sample counts and the environment
fingerprint) and, as the last line, a JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics of END_TO_END
with `--trace 0`, the per-layer metrics of `tracing.PER_LAYER` with
`--trace 1`. See README.md in this directory for what each metric means.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
THREADS = 1
SETUP_REPS = 3
WORKLOAD_NAMES = ("infer", "teacher", "distill")

# (name, unit): the gated metrics, reported by every workload.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("fwd_ips", "img/s"),
    ("post_call_s", "s"),
)


def pin_threads() -> None:
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the thread pin")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = str(THREADS)


def _openblas_readback() -> tuple[int | None, str | None]:
    """(threads, config) from the OpenBLAS that numpy bundles."""
    import ctypes
    import glob

    import numpy as np
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                          "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                               ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if get is None:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            text = None
            if config is not None:
                config.argtypes, config.restype = [], ctypes.c_char_p
                text = config().decode("utf-8", "replace")
            return int(get()), text
    return None, None


def _git_revision() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def fingerprint() -> dict:
    import platform

    import numpy as np
    import scipy
    threads, config = _openblas_readback()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": config,
        "blas_threads": threads,
        "blas_threads_pinned": THREADS,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_revision": _git_revision(),
    }


def _numbers(report: dict) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in report.items()}


def measure_untraced(wl, run, seed: int, seconds: float) -> tuple[dict, dict]:
    """Set up SETUP_REPS times, then repeat units for `seconds`. Timings are
    scaled to the probe's nominal speed; the raw ones go to the report."""
    import resource

    import speed
    from workloads import median
    probe = run.probe
    setup = []
    for _ in range(SETUP_REPS):
        probe.maybe()
        t0 = perf_counter()
        wl.setup(seed)
        setup.append((t0, perf_counter()))
        probe.maybe()
    deadline = perf_counter() + seconds
    k = 0
    while k < wl.min_units or perf_counter() < deadline:
        wl.unit(run, k)
        k += 1
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def reduce(scale) -> tuple[dict, dict]:
        e2e, report = wl.metrics(scale)
        e2e["setup_s"] = median([scale(*span) for span in setup])
        e2e["peak_rss_mb"] = rss_mb
        return e2e, _numbers({"setup_s": (e2e["setup_s"], "s"),
                              "peak_rss_mb": (rss_mb, "MB"), **report})

    e2e, report = reduce(lambda t0, t1: (t1 - t0) * probe.factor(t0, t1))
    _, raw_report = reduce(lambda t0, t1: t1 - t0)
    metrics = {name: {"value": e2e[name], "unit": unit}
               for name, unit in END_TO_END}
    return metrics, {"metrics": report, "raw_metrics": raw_report,
                     "units": k,
                     "speed_probe": {"median_ms": probe.median_s() * 1e3,
                                     "nominal_ms": speed.NOMINAL_S * 1e3,
                                     "probes": len(probe.seconds)}}


def measure_traced(wl, run, seed: int, seconds: float) -> tuple[dict, dict]:
    """Alternate untraced and traced units; per-layer metrics are medians over
    the traced units, and the overhead is traced minus untraced unit wall."""
    import riformer as rf
    import tracing
    from workloads import median
    tracer = tracing.Tracer()
    wl.setup(seed)
    with tracer.installed():
        t0 = perf_counter()
        wl.setup(seed)
        setup_layers, _ = tracing.fold(tracer.spans, perf_counter() - t0)
    tracer.reset()
    plain, folded, table, inexact = [], [], {}, set()
    deadline = perf_counter() + seconds
    k = 0
    while k < max(wl.min_units, 2) or perf_counter() < deadline:
        wl.unit_steps = []
        if k % 2 == 0:
            t0 = perf_counter()
            wl.unit(run, k)
            plain.append(perf_counter() - t0)
        else:
            wl.set_tracer(tracer)
            with tracer.installed():
                tracer.reset()
                t0 = perf_counter()
                wl.unit(run, k)
                wall = perf_counter() - t0
            wl.set_tracer(None)
            layers, table = tracing.fold(tracer.spans, wall, wl.unit_steps,
                                         tracer.teacher_inputs)
            folded.append(layers)
            inexact.update(table["inexact"])
            tracer.reset()
        k += 1
    values = {}
    for name, unit, _ in tracing.PER_LAYER:
        seen = [layers.get(name, 0.0) for layers in folded]
        if name in tracing.EXACT and len(set(seen)) > 1:
            inexact.add(name)
        values[name] = seen[0] if name in tracing.EXACT else median(seen)
    values["data.synth_ms"] = setup_layers.get("data.synth_ms", 0.0)
    for form, mixer, deploy in (("pooling", "pooling", False),
                                ("affine", "affine", False),
                                ("deploy", "affine", True)):
        values[f"models.op_count.{form}"] = rf.op_count(
            rf.ModelSpec.nano(mixer), batch_size=1, deploy=deploy)
    traced_wall = median([layers["trace.wall_ms"] for layers in folded])
    values["trace.wall_ms"] = traced_wall
    values["trace.overhead_ms"] = traced_wall - median(plain) * 1e3
    units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units}
    top = sorted(table["self_ms"].items(), key=lambda kv: -kv[1])
    report = {
        "traced_units": len(folded), "untraced_units": len(plain),
        "untraced_unit_ms": median(plain) * 1e3,
        "overhead_share": values["trace.overhead_ms"] / (median(plain) * 1e3),
        "inexact_counts": sorted(inexact),
        "self_ms_by_span": {name: ms for name, ms in top[:30]},
        "calls_by_span": {name: table["calls"][name] for name, _ in top[:30]},
    }
    return metrics, report


def run_workload(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "riformer", "__init__.py")):
        print(f"perfbench: no riformer sources under {SRC}", file=sys.stderr)
        return 2
    pin_threads()
    sys.path.insert(0, SRC)
    env = fingerprint()
    if env["blas_threads"] != THREADS:
        print(f"perfbench: OpenBLAS reports {env['blas_threads']} threads, "
              f"pinned {THREADS}", file=sys.stderr)
        return 3
    import riformer
    if not os.path.abspath(riformer.__file__).startswith(SRC + os.sep):
        print(f"perfbench: riformer imported from {riformer.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import speed
    import workloads

    scratch = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=scratch)
    try:
        wl = workloads.WORKLOADS[args.workload](workdir)
        run = workloads.Run(None if args.trace else speed.SpeedProbe())
        measure = measure_traced if args.trace else measure_untraced
        metrics, report = measure(wl, run, args.seed, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass
    correct = run.failed == 0
    print(json.dumps({"report": {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "env": env,
        "failures": run.failures, **report}}))
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, then one summary line."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        print(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
