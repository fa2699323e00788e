"""Throughput and per-component latency measurement.

Protocol: warm up, then for each repeat average the wall time of `timed_runs`
batch inferences; the median repeat is the statistic. Reports are pure
functions of the collected raw timings, which can be re-reduced at any time.
Per-component latency and the operation audit (the deploy form must execute
strictly fewer floating-point operations than its train form) both read
profiled forwards, in which each kernel reports its own FLOPs and time.
"""
from __future__ import annotations

import ctypes
import functools
import glob
import os
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import tensor as T
from .models import COMPONENTS, ModelWeights, build_model, forward
from .reparam import switch_to_deploy
from .tensor import Tensor


@dataclass
class BenchProtocol:
    batch_size: int = 32
    warmup_runs: int = 10
    timed_runs: int = 30
    repeats: int = 3

    def validate(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.warmup_runs < 0:
            raise ValueError("warmup_runs must be >= 0")
        if self.timed_runs < 1:
            raise ValueError("timed_runs must be >= 1")
        if self.repeats < 1 or self.repeats % 2 == 0:
            raise ValueError("repeats must be odd so the median is well-defined")


@dataclass
class BenchReport:
    model_id: str
    images_per_second: float
    ms_per_batch: list[float]  # mean per repeat
    median_ms: float
    thread_count: int
    blas: Optional[str]  # numpy's OpenBLAS build string, None without one
    notes: str = ""
    raw_timings: list[list[float]] = field(default_factory=list)


@dataclass
class BreakdownRow:
    component: str
    ms: float  # per forward, median over repeats
    flops: int  # per forward


class _OpenBLAS(NamedTuple):
    get_threads: Callable[[], int]
    set_threads: Callable[[int], None]
    config: Optional[str]  # build string: name, version, target


@functools.cache
def _openblas() -> Optional[_OpenBLAS]:
    """The thread-count getter and setter of the OpenBLAS that numpy
    bundles, which act on the live library, and its build string; None
    when numpy bundles no OpenBLAS."""
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                          "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                               ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if config is not None:
                    config.argtypes, config.restype = [], ctypes.c_char_p
                    config = config().decode("utf-8", "replace").strip()
                return _OpenBLAS(get, put, config)
    return None


def blas_config() -> Optional[str]:
    """The build string of numpy's bundled OpenBLAS (name, version,
    target); None without one."""
    blas = _openblas()
    return None if blas is None else blas.config


def thread_count() -> int:
    """The live thread count of numpy's bundled OpenBLAS, which
    OPENBLAS_NUM_THREADS sets before the process starts; 1 without one."""
    blas = _openblas()
    return 1 if blas is None else blas.get_threads()


def reduce_timings(raw: list[list[float]], batch_size: int
                   ) -> tuple[list[float], float, float]:
    """(per-repeat mean ms, median ms, images/s) from raw per-run seconds."""
    means_ms = [1e3 * sum(r) / len(r) for r in raw]
    median_ms = statistics.median(means_ms)
    return means_ms, median_ms, batch_size / (median_ms / 1e3)


def _measure(model: ModelWeights, protocol: BenchProtocol, run: Callable,
             seed: int) -> list[list]:
    """`repeats` lists of `timed_runs` results of `run(x)`, after
    `warmup_runs` calls, where x is a seeded normal probe of
    `batch_size` images at the spec's `input_resolution`."""
    protocol.validate()
    spec = model.spec
    res = spec.input_resolution
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(0, 1, (protocol.batch_size, spec.in_channels,
                                 res, res)).astype(np.float32))
    for _ in range(protocol.warmup_runs):
        run(x)
    return [[run(x) for _ in range(protocol.timed_runs)]
            for _ in range(protocol.repeats)]


def _profiled_forward(model: ModelWeights, x: Tensor) -> T._Profile:
    with T._Profile() as profile:
        forward(model, x)
    return profile


def throughput(model: ModelWeights, protocol: BenchProtocol,
               model_id: str = "model", seed: int = 0) -> BenchReport:
    def timed_forward(x: Tensor) -> float:
        t0 = time.perf_counter()
        forward(model, x)
        return time.perf_counter() - t0

    raw = _measure(model, protocol, timed_forward, seed)
    means_ms, median_ms, ips = reduce_timings(raw, protocol.batch_size)
    return BenchReport(model_id=model_id, images_per_second=ips,
                       ms_per_batch=means_ms, median_ms=median_ms,
                       thread_count=thread_count(), blas=blas_config(),
                       notes=f"mixer={model.spec.mixer_kind} "
                             f"deploy={model.deploy}",
                       raw_timings=raw)


def latency_breakdown(model: ModelWeights, protocol: BenchProtocol,
                      seed: int = 0) -> list[BreakdownRow]:
    """Each component's profiled forward ms (the mean over `timed_runs`
    forwards, median over repeats) and FLOPs. Every kernel's time goes to
    exactly one component, so no row is negative and the rows of one
    forward sum to its wall time."""
    profiles = _measure(model, protocol,
                        lambda x: _profiled_forward(model, x), seed)
    return [BreakdownRow(
        component=c,
        ms=statistics.median([1e3 * sum(p.seconds.get(c, 0.0) for p in runs)
                              / len(runs) for runs in profiles]),
        flops=profiles[-1][-1].flops.get(c, 0)) for c in COMPONENTS]


def op_count(model_or_spec, batch_size: int = 1,
             deploy: bool | None = None) -> int:
    """Scalar floating-point operations of one forward pass at the spec's
    `input_resolution`, as the kernels count them. `deploy=True` counts the
    fused form of an affine train model or spec; other mixers, and
    `deploy=False` on a deploy model, raise ValueError."""
    if isinstance(model_or_spec, ModelWeights):
        model = model_or_spec
    else:
        model = build_model(model_or_spec, seed=0)
    if deploy and not model.deploy:
        model = switch_to_deploy(model)
    elif deploy is False and model.deploy:
        raise ValueError("a deploy model has no train form to count")
    spec = model.spec
    res = spec.input_resolution
    x = Tensor(np.zeros((batch_size, spec.in_channels, res, res), np.float32))
    return sum(_profiled_forward(model, x).flops.values())
