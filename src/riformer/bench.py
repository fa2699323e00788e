"""Throughput and per-component latency measurement.

Protocol: warm up, then for each repeat average the wall time of `timed_runs`
batch inferences; the median repeat is the statistic. Reports are pure
functions of the collected raw timings, which can be re-reduced at any time.
A static operation-count audit complements the wall clock: the deploy form
must execute strictly fewer floating-point operations than its train form.
"""
from __future__ import annotations

import os
import statistics
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from .models import ModelSpec, ModelWeights, forward, forward_features
from .tensor import Tensor

COMPONENT_SETS = (
    ("embedding", ()),
    ("norm", ("norm",)),
    ("mixer", ("norm", "mixer")),
    ("mlp", ("norm", "mixer", "mlp")),
)


@dataclass
class BenchProtocol:
    batch_size: int = 32
    resolution: int = 64
    warmup_runs: int = 10
    timed_runs: int = 30
    repeats: int = 3

    def validate(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.resolution < 1:
            raise ValueError("resolution must be >= 1")
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
    notes: str = ""
    raw_timings: list[list[float]] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class BreakdownRow:
    component: str
    cumulative_ms: float
    delta_ms: float
    delta_std_ms: float
    noise_flagged: bool


def thread_count() -> int:
    env = os.environ.get("RIFORMER_THREADS")
    if env:
        return int(env)
    return os.cpu_count() or 1


def reduce_timings(raw: list[list[float]], batch_size: int
                   ) -> tuple[list[float], float, float]:
    """(per-repeat mean ms, median ms, images/s) from raw per-run seconds."""
    means_ms = [1e3 * sum(r) / len(r) for r in raw]
    median_ms = statistics.median(means_ms)
    return means_ms, median_ms, batch_size / (median_ms / 1e3)


def _time_callable(fn, protocol: BenchProtocol) -> list[list[float]]:
    for _ in range(protocol.warmup_runs):
        fn()
    raw = []
    for _ in range(protocol.repeats):
        runs = []
        for _ in range(protocol.timed_runs):
            t0 = time.perf_counter()
            fn()
            runs.append(time.perf_counter() - t0)
        raw.append(runs)
    return raw


def throughput(model: ModelWeights, protocol: BenchProtocol,
               model_id: str = "model", seed: int = 0) -> BenchReport:
    protocol.validate()
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(0, 1, (protocol.batch_size, model.spec.in_channels,
                                 protocol.resolution, protocol.resolution)
                          ).astype(np.float32))
    raw = _time_callable(lambda: forward(model, x), protocol)
    means_ms, median_ms, ips = reduce_timings(raw, protocol.batch_size)
    return BenchReport(model_id=model_id, images_per_second=ips,
                       ms_per_batch=means_ms, median_ms=median_ms,
                       thread_count=thread_count(),
                       notes=f"mixer={model.spec.mixer_kind} "
                             f"deploy={model.deploy}",
                       raw_timings=raw)


def latency_breakdown(model: ModelWeights, protocol: BenchProtocol,
                      seed: int = 0) -> list[BreakdownRow]:
    """Latency attributed to each block component as the delta between
    consecutive cumulative models. Negative deltas are flagged, not clamped."""
    protocol.validate()
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(0, 1, (protocol.batch_size, model.spec.in_channels,
                                 protocol.resolution, protocol.resolution)
                          ).astype(np.float32))
    rows: list[BreakdownRow] = []
    prev_ms = 0.0
    prev_std = 0.0
    for name, components in COMPONENT_SETS:
        raw = _time_callable(
            lambda c=components: forward_features(model, x, components=c),
            protocol)
        means_ms, median_ms, _ = reduce_timings(raw, protocol.batch_size)
        std = statistics.pstdev(means_ms) if len(means_ms) > 1 else 0.0
        delta = median_ms - prev_ms
        rows.append(BreakdownRow(
            component=name, cumulative_ms=median_ms, delta_ms=delta,
            delta_std_ms=(std ** 2 + prev_std ** 2) ** 0.5,
            noise_flagged=delta < 0.0))
        prev_ms = median_ms
        prev_std = std
    return rows


# ---------------------------------------------------------------------------
# Static floating-point operation audit (exact counting, no wall clock)

def _gn_ops(numel: int) -> int:
    return 8 * numel


def op_count(model_or_spec, batch_size: int = 1,
             deploy: bool | None = None) -> int:
    """Count scalar floating-point operations of one forward pass."""
    if isinstance(model_or_spec, ModelWeights):
        spec = model_or_spec.spec
        deploy = model_or_spec.deploy if deploy is None else deploy
    else:
        spec = model_or_spec
        deploy = bool(deploy)
    n = batch_size
    res = spec.input_resolution
    total = 0
    in_ch = spec.in_channels
    for st in spec.stages:
        res = res // st.stride
        numel = n * st.dim * res * res
        # patch embedding
        total += numel * (2 * in_ch * st.patch_size ** 2 + 1)
        in_ch = st.dim
        hidden = int(st.dim * st.mlp_ratio)
        numel_h = n * hidden * res * res
        for _ in range(st.depth):
            if deploy:
                # fused norm (layer scale folded into its affine) + residual
                total += _gn_ops(numel) + numel
            else:
                total += _gn_ops(numel)
                if spec.mixer_kind == "affine":
                    total += 3 * numel + 2 * numel
                elif spec.mixer_kind == "pooling":
                    total += 8 * numel + 2 * numel
                # identity mixer: first sub-block is skipped after the norm
            # second sub-block: norm2 + mlp + layer scale + residual
            total += _gn_ops(numel)
            total += numel_h * (2 * st.dim + 1)      # 1x1 conv up
            total += 6 * numel_h                      # gelu
            total += numel * (2 * hidden + 1)         # 1x1 conv down
            total += 2 * numel
    # head: final norm, global mean, linear
    last_numel = n * spec.stages[-1].dim * res * res
    total += _gn_ops(last_numel) + last_numel
    total += n * spec.num_classes * (2 * spec.stages[-1].dim + 1)
    return total
