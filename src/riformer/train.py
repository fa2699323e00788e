"""Training loops for the guideline recipes, evaluation, and CSV logging.

Recipes:
  ce          cross-entropy on ground-truth labels with label smoothing
  hard_kd     cross-entropy against the frozen teacher's argmax labels
  soft_kd     temperature-softened KL against teacher logits, no labels
  soft_kd_mi  soft_kd plus the phase-gated module-imitation terms
"""
from __future__ import annotations

import contextvars
import csv
from concurrent.futures import wait
from dataclasses import dataclass, field
from math import cos, inf, pi
from typing import Optional

import numpy as np

from . import imitation
from . import tensor as T
from .data import Dataset
from .imitation import (MI_TERMS, ImitationConfig, LossReport,
                        imitation_layers, load_from_teacher, loss_soft,
                        total_loss)
from .models import CaptureSet, ModelWeights, forward
from .optim import AdamW
from .tensor import NumericsError, Tape, Tensor

RECIPES = ("ce", "hard_kd", "soft_kd", "soft_kd_mi")
LOG_COLUMNS = ("epoch", "lr", "loss_total", "loss_soft",
               *(f"loss_{name}" for name, *_ in MI_TERMS), "val_top1")
# Bytes of teacher outputs one train() call may keep by sample index. When
# the logits and later-read MI activations of the whole train set exceed it,
# nothing is kept and the teacher runs live on every step.
TEACHER_CACHE_BYTES = 256 * 2**20
EVAL_BATCH = 64  # images per evaluate() batch


class TrainingDiverged(RuntimeError):
    """Loss became non-finite; carries the last per-term values."""


@dataclass
class TrainConfig:
    epochs: int = 40
    batch_size: int = 32
    lr: Optional[float] = None  # None -> batch_size / 1024 * 1e-3
    weight_decay: float = 0.05
    seed: int = 0
    label_smoothing: float = 0.1
    tau: float = 1.0
    recipe: str = "ce"
    imitation: Optional[ImitationConfig] = None
    init_from_teacher: bool = False
    warmup_epochs: int = 2

    def validate(self) -> None:
        if self.recipe not in RECIPES:
            raise ValueError(f"unknown recipe {self.recipe!r}")
        if self.recipe == "soft_kd_mi" and self.imitation is None:
            raise ValueError("recipe soft_kd_mi requires an imitation config")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        # written so that a NaN fails each range
        if self.lr is not None and not 0 < self.lr < inf:
            raise ValueError(f"lr must be positive and finite, got {self.lr}")
        if not 0 <= self.weight_decay < inf:
            raise ValueError(f"weight_decay must be >= 0 and finite, "
                             f"got {self.weight_decay}")
        if not 0 <= self.label_smoothing < 1:
            raise ValueError(f"label_smoothing must be in [0, 1), "
                             f"got {self.label_smoothing}")
        if not 0 < self.tau < inf:
            raise ValueError(f"tau must be positive and finite, got {self.tau}")
        if self.warmup_epochs < 0:
            raise ValueError(f"warmup_epochs must be >= 0, "
                             f"got {self.warmup_epochs}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.imitation is not None:
            self.imitation.validate()
        if (self.recipe == "soft_kd_mi"
                and self.epochs > self.imitation.total_epochs):
            raise ValueError(f"epochs {self.epochs} exceeds "
                             f"imitation.total_epochs "
                             f"{self.imitation.total_epochs}")

    @property
    def needs_teacher(self) -> bool:
        return self.recipe != "ce" or self.init_from_teacher

    @property
    def base_lr(self) -> float:
        return self.lr if self.lr is not None else self.batch_size / 1024 * 1e-3

    def lr_at(self, epoch: int) -> float:
        base = self.base_lr
        if epoch < self.warmup_epochs:
            return base * (epoch + 1) / self.warmup_epochs
        span = max(self.epochs - self.warmup_epochs, 1)
        frac = (epoch - self.warmup_epochs) / span
        return base * (0.01 + 0.99 * 0.5 * (1.0 + cos(pi * frac)))


@dataclass
class TrainResult:
    model: ModelWeights
    log: list[dict] = field(default_factory=list)
    final_val_top1: float = 0.0


def _hits(model: ModelWeights, xb: np.ndarray, yb: np.ndarray) -> int:
    logits = forward(model, Tensor(xb))
    return int((np.argmax(logits.data, axis=1) == yb).sum())


def evaluate(model: ModelWeights, data: Dataset) -> float:
    """Top-1 accuracy; argmax ties resolve to the lower class index.

    When the worker thread is on (`tensor._worker`), each batch of 2 or
    more samples runs as two forwards: the worker takes the second half, in
    a copy of the caller's context, while this thread takes the first. Both
    end before the next batch is drawn, and before a failure of either
    raises; this thread's failure wins when both fail. As with a short
    trailing batch, a small half's logits may differ from the whole batch's
    in the last bits (BLAS may sum a small product in another order), which
    moves only an argmax that ties within rounding.
    """
    if len(data) == 0:
        raise ValueError("empty dataset")
    worker = T._worker()
    correct = 0
    for xb, yb, _ in data.batches(EVAL_BATCH):
        if worker is None or len(yb) < 2:
            correct += _hits(model, xb, yb)
            continue
        h = len(yb) // 2
        half = worker.submit(contextvars.copy_context().run,
                             _hits, model, xb[h:], yb[h:])
        try:
            correct += _hits(model, xb[:h], yb[:h])
        finally:
            wait([half])
        correct += half.result()
    return correct / len(data)


def _smoothed_targets(labels: np.ndarray, num_classes: int,
                      eps: float) -> np.ndarray:
    q = np.full((len(labels), num_classes), eps / num_classes, np.float32)
    q[np.arange(len(labels)), labels] += 1.0 - eps
    return q


def _cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    log_probs = T.log_softmax(logits)
    n = logits.shape[0]
    return T.mul(T.tsum(T.mul(Tensor(targets), log_probs)), -1.0 / n)


def train(model: ModelWeights, train_data: Dataset, val_data: Dataset,
          cfg: TrainConfig, teacher: Optional[ModelWeights] = None,
          log_path: Optional[str] = None) -> TrainResult:
    cfg.validate()
    if model.deploy:
        raise ValueError("train needs the train form; fuse after training")
    if cfg.needs_teacher and teacher is None:
        raise ValueError(f"recipe {cfg.recipe!r} requires a teacher model")
    k = model.spec.num_classes
    for split, data in (("train", train_data), ("val", val_data)):
        if len(data) == 0:
            raise ValueError(f"the {split} set is empty")
        if np.any((data.labels < 0) | (data.labels >= k)):
            raise ValueError(f"{split} labels must lie in [0, {k}) "
                             f"(model.num_classes), got {data.labels.min()} "
                             f"to {data.labels.max()}")
    mi_layers = (imitation_layers(model.spec, cfg.imitation)
                 if cfg.recipe == "soft_kd_mi" else ())
    if cfg.init_from_teacher:
        load_from_teacher(model, teacher)

    opt = AdamW(list(model.named_parameters()), weight_decay=cfg.weight_decay)
    shuffle_rng = np.random.default_rng([cfg.seed, 101])

    cache = None
    if cfg.recipe != "ce" and cfg.epochs > 1:
        cache = _TeacherCache(len(train_data),
                              _mi_fields(cfg, range(1, cfg.epochs)))

    # the LossReport fields this recipe logs, each as loss_{name}
    logged = ["total"]
    if cfg.recipe in ("soft_kd", "soft_kd_mi"):
        logged.append("soft")
    if cfg.recipe == "soft_kd_mi":
        logged += [name for name, *_ in MI_TERMS]
    log_rows: list[dict] = []
    opt.zero_grad()  # a .grad left by an earlier backward is not this run's
    for epoch in range(cfg.epochs):
        lr = cfg.lr_at(epoch)
        if cache is not None:
            # drop the activations no epoch from here on reads
            cache.retain(_mi_fields(cfg, range(epoch, cfg.epochs)))
        sums = dict.fromkeys(logged, 0.0)
        steps = 0
        for xb, yb, idx in train_data.batches(cfg.batch_size, shuffle_rng):
            report = _step(model, teacher, cache, xb, yb, idx, cfg, mi_layers,
                           epoch, opt, lr)
            for key in sums:
                sums[key] += getattr(report, key)
            steps += 1
        row = {"epoch": epoch, "lr": lr}
        row.update((f"loss_{key}", s / steps) for key, s in sums.items())
        row["val_top1"] = evaluate(model, val_data)
        log_rows.append(row)

    if log_path:
        write_log(log_rows, log_path)
    return TrainResult(model=model, log=log_rows,
                       final_val_top1=log_rows[-1]["val_top1"])


class _TeacherCache:
    """The frozen teacher's outputs within one `train()` call, by sample index.

    The teacher runs outside the tape, and `Dataset.batches`
    serves stored samples without augmentation, so a sample's logits and MI
    activations do not depend on the epoch. The first epoch's live forwards
    fill one array per output; later epochs gather from them, so a gathered
    row holds the bytes the first epoch's forward gave. A live forward of a
    later epoch would agree to float32 rounding only: its GEMMs see other
    batch mates and row counts, and BLAS may sum in another order.
    """

    def __init__(self, size: int, fields: set[str]):
        self.size = size
        self.fields = fields  # the capture fields a later epoch reads
        self.logits: Optional[np.ndarray] = None
        # capture field -> block index -> (size, C, H, W) activations
        self.acts: dict[str, dict[int, np.ndarray]] = {}
        self._allocated = False

    @property
    def kept(self) -> bool:
        return self.logits is not None

    def retain(self, fields: set[str]) -> None:
        self.acts = {f: arrs for f, arrs in self.acts.items() if f in fields}

    def store(self, idx: np.ndarray, logits: Tensor,
              cap: Optional[CaptureSet]) -> None:
        if not self._allocated:
            self._allocate(logits, cap)
        if not self.kept:
            return
        self.logits[idx] = logits.data
        for f, arrs in self.acts.items():
            for m, arr in arrs.items():
                arr[idx] = getattr(cap, f)[m].data

    def _allocate(self, logits: Tensor, cap: Optional[CaptureSet]) -> None:
        # sized from the first batch; over TEACHER_CACHE_BYTES nothing is kept
        self._allocated = True
        acts = {f: getattr(cap, f) for f in sorted(self.fields)}
        row = logits.data[0].nbytes + sum(
            t.data[0].nbytes for ts in acts.values() for t in ts.values())
        if self.size * row > TEACHER_CACHE_BYTES:
            return
        self.logits = np.empty((self.size,) + logits.shape[1:], np.float32)
        self.acts = {f: {m: np.empty((self.size,) + t.shape[1:], np.float32)
                         for m, t in ts.items()}
                     for f, ts in acts.items()}

    def gather(self, idx: np.ndarray, layers: tuple[int, ...],
               fields: set[str]) -> tuple[Tensor, Optional[CaptureSet]]:
        logits = Tensor(self.logits[idx])
        if not fields:
            return logits, None
        cap = CaptureSet.for_layers(layers)
        for f in fields:
            getattr(cap, f).update({m: Tensor(arr[idx])
                                    for m, arr in self.acts[f].items()})
        return logits, cap


def _mi_fields(cfg: TrainConfig, epochs) -> set[str]:
    """The teacher capture fields the MI terms read in any of `epochs`."""
    if cfg.recipe != "soft_kd_mi":
        return set()
    active = set().union(*map(cfg.imitation.active_terms, epochs))
    return {cap_field for name, cap_field, *_ in MI_TERMS if name in active}


def _teacher_outputs(teacher: ModelWeights, cache: Optional[_TeacherCache],
                     epoch: int, xb: np.ndarray, idx: np.ndarray,
                     mi_layers: tuple[int, ...], fields: set[str]
                     ) -> tuple[Tensor, Optional[CaptureSet]]:
    """Teacher logits, plus its MI capture when the epoch reads `fields`:
    gathered from `cache` after the first epoch when it kept them, else a
    live forward."""
    if cache is not None and epoch > 0 and cache.kept:
        return cache.gather(idx, mi_layers, fields)
    # Outside any tape: teacher activations come out as constants, so the
    # teacher receives no gradient and its weights are untouched.
    cap = CaptureSet.for_layers(mi_layers) if fields else None
    logits = forward(teacher, Tensor(xb), capture=cap)
    if cache is not None and epoch == 0:
        cache.store(idx, logits, cap)
    return logits, cap


def _step(model, teacher, cache: Optional[_TeacherCache], xb, yb, idx,
          cfg: TrainConfig, mi_layers: tuple[int, ...], epoch: int,
          opt: AdamW, lr: float) -> LossReport:
    fields = _mi_fields(cfg, (epoch,))
    teacher_logits = teacher_cap = None
    if cfg.recipe != "ce":
        teacher_logits, teacher_cap = _teacher_outputs(
            teacher, cache, epoch, xb, idx, mi_layers, fields)

    try:
        with Tape() as tape:
            student_cap = CaptureSet.for_layers(mi_layers) if fields else None
            logits = forward(model, Tensor(xb), capture=student_cap)
            if cfg.recipe == "ce":
                targets = _smoothed_targets(yb, model.spec.num_classes,
                                            cfg.label_smoothing)
                loss = _cross_entropy(logits, targets)
                report = LossReport(total=loss.item())
            elif cfg.recipe == "hard_kd":
                hard = np.argmax(teacher_logits.data, axis=1)
                targets = _smoothed_targets(hard, model.spec.num_classes, 0.0)
                loss = _cross_entropy(logits, targets)
                report = LossReport(total=loss.item())
            elif cfg.recipe == "soft_kd":
                loss = loss_soft(logits, teacher_logits, cfg.tau)
                report = LossReport(soft=loss.item(), total=loss.item())
            else:  # soft_kd_mi
                soft = loss_soft(logits, teacher_logits, cfg.tau)
                active = cfg.imitation.active_terms(epoch)
                # layer-major, terms in table order: the tape's order; each
                # loss is looked up when called, so a patched one is used
                per_layer = {m: {name: getattr(imitation, f"loss_{name}")(
                                     getattr(student_cap, cap_field)[m],
                                     getattr(teacher_cap, cap_field)[m])
                                 for name, cap_field, *_ in MI_TERMS
                                 if name in active}
                             for m in mi_layers}
                loss, report = total_loss(soft, per_layer, epoch,
                                          cfg.imitation, len(yb))
            tape.backward(loss)
    except NumericsError as e:
        raise TrainingDiverged(
            f"non-finite loss at epoch {epoch} (recipe {cfg.recipe}): {e}"
        ) from e
    opt.step(lr)
    opt.zero_grad()
    return report


def write_log(rows: list[dict], path: str) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=LOG_COLUMNS, restval="")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
