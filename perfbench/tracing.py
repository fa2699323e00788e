"""In-memory span tracing of the riformer library layers (`--trace 1` runs).

`Tracer.installed()` wraps every public function of the nine library modules,
plus `Tape.backward` and `AdamW.step`, so that each call records a span
`[name, start, end, parent, meta]`. Spans stay in memory; `fold` turns the
spans of one unit of work into the per-layer metrics named in `PER_LAYER`.
The wrappers are installed from outside: no library file is changed.
"""
from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import os
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("tensor", "models", "reparam", "imitation", "optim", "train",
          "data", "checkpoint", "analysis")
METHODS = (("tensor", "Tape", "backward"), ("optim", "AdamW", "step"))

# Kernel groups of `tensor`; every other public tensor function is "other".
KERNEL_GROUPS = {
    "conv2d": ("conv2d",),
    "channel_linear": ("channel_linear",),
    "gelu": ("gelu",),
    "group_norm_1": ("group_norm_1",),
    "avg_pool_same": ("avg_pool_same",),
    "elementwise": ("add", "sub", "mul", "div", "reshape"),
    "head": ("global_spatial_mean", "linear"),
    "loss_kernels": ("log_softmax", "kl_div", "mse", "matmul"),
}
GROUP_OF = {f"tensor.{fn}": g for g, fns in KERNEL_GROUPS.items() for fn in fns}
KERNEL_KEYS = tuple(KERNEL_GROUPS) + ("other",)
NOT_KERNELS = ("tensor.backward", "tensor.Tape.backward")
FORMS = ("pooling", "affine", "deploy")
PHASES = ("ce", "feat", "rel", "soft")
FORWARD_KINDS = ("student", "teacher", "eval", "direct")
LOSSES = ("soft", "in_prime", "out", "rel")

# Inclusive-time metrics: metric name -> span name.
INCLUSIVE = {
    "tensor.tape_backward_ms": "tensor.Tape.backward",
    **{f"imitation.loss_{t}_ms": f"imitation.loss_{t}" for t in LOSSES},
    "imitation.total_loss_ms": "imitation.total_loss",
    "optim.step_ms": "optim.AdamW.step",
    "data.batch_wait_ms": "data.batch_wait",
    "reparam.fuse_ms": "reparam.switch_to_deploy",
    "reparam.verify_ms": "reparam.verify_equivalence",
    "checkpoint.save_ms": "checkpoint.save_checkpoint",
    "checkpoint.load_ms": "checkpoint.load_checkpoint",
    "analysis.erf_ms": "analysis.erf_map",
    "data.synth_ms": "data.synth_dataset",
}


def _metric_table() -> list[tuple[str, str, str]]:
    rows = []
    for k in KERNEL_KEYS:
        rows += [(f"tensor.{k}.fwd_ms", "ms", "lower"),
                 (f"tensor.{k}.calls", "count", "lower"),
                 (f"tensor.{k}.bytes", "bytes", "lower")]
    rows += [(f"tensor.calls_per_forward.{f}", "count", "lower") for f in FORMS]
    rows += [(f"tensor.calls_per_step.{p}", "count", "lower") for p in PHASES]
    rows += [(f"models.{part}_ms", "ms", "lower")
             for part in ("embed", "subblock1", "subblock2", "head")]
    rows += [(f"models.op_count.{f}", "count", "lower") for f in FORMS]
    rows += [(f"models.forward_ms.{k}", "ms", "lower") for k in FORWARD_KINDS]
    rows += [("train.teacher_samples", "count", "lower"),
             ("train.teacher_repeat_share", "share", "lower")]
    rows += [(name, "ms", "lower") for name in INCLUSIVE]
    rows += [("checkpoint.bytes", "bytes", "lower")]
    rows += [(f"{layer}.self_ms", "ms", "lower") for layer in LAYERS]
    rows += [("trace.wall_ms", "ms", "lower"),
             ("trace.overhead_ms", "ms", "lower"),
             ("trace.coverage", "ratio", "higher")]
    return rows


PER_LAYER = _metric_table()
# Metrics that must repeat exactly between runs and between units of work.
EXACT = frozenset(name for name, unit, _ in PER_LAYER
                  if unit in ("count", "bytes", "share"))


def _nbytes(v) -> int:
    data = getattr(v, "data", v)
    if hasattr(data, "nbytes"):
        return int(data.nbytes)
    if isinstance(v, (list, tuple)):
        return sum(_nbytes(x) for x in v)
    return 0


def _kernel_meta(tracer, rec, args, kwargs, out) -> int:
    return (sum(_nbytes(a) for a in args)
            + sum(_nbytes(a) for a in kwargs.values()) + _nbytes(out))


def _forward_meta(tracer, rec, args, kwargs, out):
    model, x = args[0], args[1]
    form = "deploy" if model.deploy else model.spec.mixer_kind
    training = bool(kwargs.get("training", False))
    parent = tracer.spans[rec[3]][0] if rec[3] >= 0 else None
    if parent == "train.evaluate":
        kind = "eval"
    elif training:
        kind = "student"
    elif parent == "train.train":
        kind = "teacher"
        tracer.teacher_inputs.append(x.data)  # hashed after the unit, untimed
    elif parent is None:
        kind = "direct"
    else:
        kind = "other"
    return form, kind, kwargs.get("capture") is not None


def _save_meta(tracer, rec, args, kwargs, out) -> int:
    return os.path.getsize(args[1])


class Tracer:
    """Owns the span list of the unit in progress and the wrappers."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.teacher_inputs: list = []
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = []
        self.stack = []
        self.teacher_inputs = []

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record a span measured by the caller (data waits)."""
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, start, end, parent, None])

    def _wrap(self, name: str, fn, meta=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if meta is not None:
                rec[4] = meta(tracer, rec, args, kwargs, out)
            return out

        return traced

    @contextmanager
    def installed(self):
        """Wrap the library while the block runs; restore it afterwards."""
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"riformer.{layer}")
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                meta = None
                if layer == "tensor" and name not in NOT_KERNELS:
                    meta = _kernel_meta
                elif name == "models.forward":
                    meta = _forward_meta
                elif name == "checkpoint.save_checkpoint":
                    meta = _save_meta
                wrappers[id(obj)] = (obj, self._wrap(name, obj, meta))
        try:
            for mod in [m for key, m in sys.modules.items()
                        if key == "riformer" or key.startswith("riformer.")]:
                for attr, obj in list(vars(mod).items()):
                    if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                        self._patch(mod, attr, wrappers[id(obj)][1])
            for layer, cls_name, meth in METHODS:
                cls = getattr(importlib.import_module(f"riformer.{layer}"),
                              cls_name)
                fn = vars(cls)[meth]
                self._patch(cls, meth,
                            self._wrap(f"{layer}.{cls_name}.{meth}", fn))
            yield self
        finally:
            for owner, attr, original in reversed(self._patches):
                setattr(owner, attr, original)
            self._patches.clear()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)


def _ancestor(spans, i: int, name: str) -> int:
    p = spans[i][3]
    while p >= 0 and spans[p][0] != name:
        p = spans[p][3]
    return p


def fold(spans: list[list], wall_s: float,
         steps: list[tuple[str, int, int]] = (),
         teacher_inputs=()) -> tuple[dict, dict]:
    """Per-layer metrics of one traced unit of work, plus the self-time table.

    `steps` holds (phase, first span index, end span index) per training step;
    `teacher_inputs` the input batches of the teacher's forwards in `train()`,
    whose samples are hashed to find the share the teacher had seen before.
    Count metrics with more than one observed value are reported in the
    second return value's "inexact" list instead of silently picking one.
    """
    n = len(spans)
    child = [0.0] * n
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    m: dict[str, float] = defaultdict(float)
    table: dict[str, list] = defaultdict(lambda: [0.0, 0])
    inclusive = {span: metric for metric, span in INCLUSIVE.items()}
    kernel_prefix = [0] * (n + 1)
    blocks: dict[int, list[tuple[str, float]]] = defaultdict(list)
    fwd_calls: dict[int, int] = defaultdict(int)
    covered = 0.0
    for i, (name, t0, t1, parent, meta) in enumerate(spans):
        dur = t1 - t0
        self_ms = (dur - child[i]) * 1e3
        layer = name.split(".", 1)[0]
        m[f"{layer}.self_ms"] += self_ms
        table[name][0] += self_ms
        table[name][1] += 1
        if parent < 0:
            covered += dur
        if name in inclusive:
            m[inclusive[name]] += dur * 1e3
        is_kernel = layer == "tensor" and name not in NOT_KERNELS
        kernel_prefix[i + 1] = kernel_prefix[i] + is_kernel
        if is_kernel:
            group = GROUP_OF.get(name, "other")
            m[f"tensor.{group}.fwd_ms"] += self_ms
            m[f"tensor.{group}.calls"] += 1
            m[f"tensor.{group}.bytes"] += meta or 0
            pname = spans[parent][0] if parent >= 0 else None
            if pname == "models.forward":
                m["models.head_ms"] += dur * 1e3
            elif pname == "models.forward_features" and name == "tensor.conv2d":
                m["models.embed_ms"] += dur * 1e3
            else:
                b = _ancestor(spans, i, "models.block_forward")
                if b >= 0:
                    blocks[b].append((name, dur))
            f = _ancestor(spans, i, "models.forward")
            if f >= 0:
                fwd_calls[f] += 1
        elif name == "models.forward":
            m[f"models.forward_ms.{meta[1]}"] += dur * 1e3
        elif name == "checkpoint.save_checkpoint":
            m["checkpoint.bytes"] += meta
    for kernels in blocks.values():
        names = [k for k, _ in kernels]
        split = len(names) - 1 - names[::-1].index("tensor.group_norm_1")
        m["models.subblock1_ms"] += sum(d for _, d in kernels[:split]) * 1e3
        m["models.subblock2_ms"] += sum(d for _, d in kernels[split:]) * 1e3

    observed: dict[str, set] = defaultdict(set)
    for i, count in fwd_calls.items():
        form, kind, captured = spans[i][4]
        if not captured and kind != "student":
            observed[f"tensor.calls_per_forward.{form}"].add(count)
    for phase, first, end in steps:
        observed[f"tensor.calls_per_step.{phase}"].add(
            kernel_prefix[end] - kernel_prefix[first])
    inexact = sorted(k for k, v in observed.items() if len(v) > 1)
    for key, values in observed.items():
        m[key] = max(values)
    hashes = [hashlib.blake2b(sample.tobytes(), digest_size=16).digest()
              for batch in teacher_inputs for sample in batch]
    if hashes:
        m["train.teacher_samples"] = len(hashes)
        m["train.teacher_repeat_share"] = 1.0 - len(set(hashes)) / len(hashes)
    m["trace.wall_ms"] = wall_s * 1e3
    m["trace.coverage"] = covered / wall_s if wall_s > 0 else 0.0
    return dict(m), {"self_ms": {k: v[0] for k, v in table.items()},
                     "calls": {k: v[1] for k, v in table.items()},
                     "inexact": inexact}
