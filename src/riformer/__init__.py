"""Token-mixer-free vision backbones: training, structural
re-parameterization, module-imitation distillation, and benchmarking on a
small numpy autodiff core."""

from .tensor import Tape, Tensor, NumericsError, ShapeError, TapeError
from .models import (ModelSpec, StageSpec, ModelWeights, CaptureSet,
                     build_model, forward, forward_features)
from .optim import AdamW
from .reparam import (EquivalenceReport, fuse_affine, switch_to_deploy,
                      verify_equivalence)
from .imitation import (ImitationConfig, LossReport, loss_in_prime, loss_out,
                        loss_rel, loss_soft, relation_matrix, select_layers,
                        load_from_teacher, total_loss)
from .data import (Dataset, SynthSpec, synth_dataset, load_cifar10_binary)
from .checkpoint import (CheckpointError, save_checkpoint, load_checkpoint,
                         read_header)
from .train import (TrainConfig, TrainResult, TrainingDiverged, RECIPES,
                    LOG_COLUMNS, train, evaluate)
from .bench import (BenchProtocol, BenchReport, BreakdownRow, throughput,
                    latency_breakdown, op_count, thread_count)
from .analysis import (erf_map, erf_active_area, feature_histogram,
                       feature_distance, dump_affine_coefficients)

__version__ = "0.1.0"

__all__ = [
    "Tape", "Tensor", "NumericsError", "ShapeError", "TapeError",
    "ModelSpec", "StageSpec", "ModelWeights", "CaptureSet", "build_model",
    "forward", "forward_features", "AdamW", "EquivalenceReport",
    "fuse_affine", "switch_to_deploy", "verify_equivalence",
    "ImitationConfig", "LossReport", "loss_in_prime", "loss_out",
    "loss_rel", "loss_soft", "relation_matrix", "select_layers",
    "load_from_teacher", "total_loss", "Dataset", "SynthSpec",
    "synth_dataset", "load_cifar10_binary", "CheckpointError",
    "save_checkpoint", "load_checkpoint", "read_header", "TrainConfig",
    "TrainResult", "TrainingDiverged", "RECIPES", "LOG_COLUMNS", "train",
    "evaluate", "BenchProtocol", "BenchReport", "BreakdownRow",
    "throughput", "latency_breakdown", "op_count", "thread_count",
    "erf_map", "erf_active_area", "feature_histogram", "feature_distance",
    "dump_affine_coefficients",
]
