"""Block-wise distillation losses between an affine student and its teacher.

A frozen pooling-mixer teacher and the affine student run side by side on the
same batch; on a selected set of blocks the student's first sub-block is
supervised to mimic the teacher's token mixer through three terms (block-output
MSE, mixer-output MSE, relation-matrix MSE) on top of soft logit distillation.
The three terms are phase-gated over the training schedule: the feature terms
run first, the relation term second, and only the soft loss afterwards.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import ceil, inf

import numpy as np

from . import tensor as T
from .models import ModelSpec, ModelWeights
from .tensor import Tensor

# The module-imitation terms, in the order a step records them: name (the
# term is `loss_{name}` of the student's and the teacher's capture, reported
# as `LossReport.{name}`), the CaptureSet field it compares, the
# ImitationConfig field that weights it, and the phase whose epochs run it.
MI_TERMS = (
    ("in_prime", "block_out", "lambda1_x_batch", "feat"),
    ("out", "mixer_out", "lambda2_x_batch", "feat"),
    ("rel", "block_out", "lambda3_x_batch", "rel"),
)


@dataclass
class ImitationConfig:
    """Loss weights are stored as lambda*batch_size products and divided by the
    batch size at use, so one config transfers across batch sizes."""
    lambda1_x_batch: float = 0.0001
    lambda2_x_batch: float = 0.001
    lambda3_x_batch: float = 1.0
    layer_count: int = 4
    layers: tuple[int, ...] | None = None
    feat_epochs: int = 40
    rel_epochs: int = 10
    total_epochs: int = 60

    def validate(self) -> None:
        for _, _, weight, _ in MI_TERMS:
            # written so that a NaN fails the range
            if not 0 <= getattr(self, weight) < inf:
                raise ValueError(f"{weight} must be >= 0 and finite, "
                                 f"got {getattr(self, weight)}")
        if self.feat_epochs < 0 or self.rel_epochs < 0:
            raise ValueError("phase epoch counts must be non-negative")
        if self.feat_epochs + self.rel_epochs > self.total_epochs:
            raise ValueError("feat_epochs + rel_epochs must not exceed total_epochs")
        any_lambda = any(getattr(self, weight) for _, _, weight, _ in MI_TERMS)
        if any_lambda and self.layer_count < 1 and not self.layers:
            raise ValueError("an intermediate layer set is required when any "
                             "loss weight is nonzero")

    def active_terms(self, epoch: int) -> frozenset[str]:
        if not (0 <= epoch < self.total_epochs):
            raise ValueError(f"epoch {epoch} outside [0, {self.total_epochs})")
        phase = ("feat" if epoch < self.feat_epochs else
                 "rel" if epoch < self.feat_epochs + self.rel_epochs else None)
        return frozenset(["soft"] + [name for name, _, _, p in MI_TERMS
                                     if p == phase])


@dataclass
class LossReport:
    soft: float = 0.0
    in_prime: float = 0.0
    out: float = 0.0
    rel: float = 0.0
    total: float = 0.0


def _check_4d_pair(a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape:
        raise T.ShapeError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.ndim != 4:
        raise T.ShapeError(f"expected 4-D activations, got {a.shape}")


def loss_in_prime(student_block_out: Tensor, teacher_block_out: Tensor) -> Tensor:
    """MSE between block outputs (the next block's inputs)."""
    _check_4d_pair(student_block_out, teacher_block_out)
    return T.mse(student_block_out, teacher_block_out)


def loss_out(student_mixer_out: Tensor, teacher_mixer_out: Tensor) -> Tensor:
    """MSE between the mixer outputs themselves; this is the only term that
    supervises the affine coefficients directly."""
    _check_4d_pair(student_mixer_out, teacher_mixer_out)
    return T.mse(student_mixer_out, teacher_mixer_out)


def relation_matrix(t: Tensor) -> Tensor:
    """Token-by-token Gram matrix of row-normalized features, as a constant.

    (N, C, H, W) is read as HW tokens of C channels; each token is
    L2-normalized over channels by the normalization `loss_rel` applies
    (with a small guard against zero rows), and the per-sample (HW x HW)
    inner-product matrix is returned.
    """
    if t.ndim != 4:
        raise T.ShapeError(f"expected 4-D input, got {t.shape}")
    u, _ = T._normalize_tokens(t.data)
    return Tensor(np.swapaxes(u, 1, 2) @ u)


def loss_rel(student_out: Tensor, teacher_out: Tensor) -> Tensor:
    """Squared Frobenius distance of relation matrices, scaled by 1/(N*(HW)^2).

    One `relation_mse` call: it normalizes the tokens and works through the
    C x C Grams when C < HW, so the relation matrices are never formed.
    """
    _check_4d_pair(student_out, teacher_out)
    return T.relation_mse(student_out, teacher_out)


def loss_soft(student_logits: Tensor, teacher_logits: Tensor,
              tau: float = 1.0) -> Tensor:
    """Temperature-softened KL from teacher to student, scaled by tau^2 and
    averaged over the batch. No ground-truth labels are involved."""
    if student_logits.shape != teacher_logits.shape:
        raise T.ShapeError(f"logit shape mismatch: {student_logits.shape} vs "
                           f"{teacher_logits.shape}")
    if tau <= 0:
        raise ValueError("tau must be positive")
    log_q = T.log_softmax(T.mul(student_logits, 1.0 / tau))
    log_p = T.log_softmax(T.mul(teacher_logits, 1.0 / tau))
    return T.mul(T.kl_div(log_p, log_q), tau * tau)


def total_loss(soft: Tensor, per_layer: dict[int, dict[str, Tensor]],
               epoch: int, cfg: ImitationConfig,
               batch_size: int) -> tuple[Tensor, LossReport]:
    """Combine the per-layer imitation terms with the soft loss for one step.

    `per_layer` maps block index -> {term name: scalar tensor} over the
    names of MI_TERMS; terms outside the epoch's active phase are ignored.
    """
    active = cfg.active_terms(epoch)
    total = soft
    report = LossReport(soft=soft.item())
    for name, _, weight, _ in MI_TERMS:
        lam = getattr(cfg, weight) / batch_size
        terms = [layer[name] for layer in per_layer.values() if name in layer]
        if name not in active or not terms or lam == 0.0:
            continue
        contrib = T.mul(reduce(T.add, terms), lam)
        setattr(report, name, contrib.item() / lam)
        total = T.add(total, contrib)
    report.total = total.item()
    return total, report


def select_layers(spec: ModelSpec, count: int) -> tuple[int, ...]:
    """Choose `count` block indices for imitation.

    With count equal to the stage count the last block of each stage is used;
    otherwise blocks are evenly spaced over the cumulative index, ties going
    to the later block.
    """
    total = spec.total_blocks
    if not (1 <= count <= total):
        raise ValueError(f"imitation.layer_count must be in [1, {total}], "
                         f"got {count}")
    if count == len(spec.stages):
        picks = []
        offset = 0
        for st in spec.stages:
            offset += st.depth
            picks.append(offset - 1)
        return tuple(picks)
    return tuple(ceil((j + 1) * total / count) - 1 for j in range(count))


def imitation_layers(spec: ModelSpec, mi: ImitationConfig) -> tuple[int, ...]:
    """The blocks `mi` imitates on `spec`: its `layers`, checked to lie in the
    model, else `select_layers(spec, mi.layer_count)`."""
    if not mi.layers:
        return select_layers(spec, mi.layer_count)
    total = spec.total_blocks
    if not all(0 <= i < total for i in mi.layers):
        raise ValueError(f"imitation.layers must lie in [0, {total - 1}], "
                         f"got {list(mi.layers)}")
    return tuple(mi.layers)


def load_from_teacher(student: ModelWeights, teacher: ModelWeights) -> ModelWeights:
    """Copy every teacher weight except the token mixer into the student.

    The student's affine coefficients are left at their initialization, so on a
    spatially constant probe both models still produce identical logits (both
    mixers vanish there).
    """
    s_spec, t_spec = student.spec, teacher.spec
    if t_spec.mixer_kind != "pooling":
        raise ValueError("teacher must use the pooling mixer")
    if s_spec.mixer_kind != "affine":
        raise ValueError("student must use the affine mixer")
    if student.deploy:
        raise ValueError("the student must be in train form")
    if s_spec.stages != t_spec.stages or s_spec.num_classes != t_spec.num_classes:
        raise ValueError("student and teacher specs are not isomorphic")
    for name, p in teacher.named_parameters():  # all but the student's mixer
        student.params[name].data = p.data.copy()
    return student
