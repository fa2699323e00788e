"""Single executable exposing the full workflow.

Subcommands map 1:1 onto the library: train, distill, fuse, verify, bench,
breakdown, erf, featdist, dump-affine, inspect-ckpt, gen-data. Every command
accepts --config <json> plus targeted flag overrides; flags win over config
values with a notice on stderr. Exit codes: 0 success, 1 usage error,
2 validation failure, 3 runtime error.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import analysis, bench, reparam
from .checkpoint import load_checkpoint, read_header, save_checkpoint
from .data import Dataset, SynthSpec, load_cifar10_binary, synth_dataset
from .models import ModelSpec, _from_dict, build_model
from .tensor import NumericsError
from .train import TrainConfig, train


class ValidationFailure(Exception):
    """A check ran to completion and failed (exit code 2)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"{self.prog}: error: {_one_line(message)}", file=sys.stderr)
        raise SystemExit(1)


def _notice(msg: str) -> None:
    print(f"notice: {msg}", file=sys.stderr)


def _load_config(path: Optional[str]) -> dict:
    if not path:
        return {}
    with open(path) as f:
        cfg = json.load(f)
    if not isinstance(cfg, dict):
        raise ValueError(f"config root must be a JSON object, "
                         f"got {type(cfg).__name__}")
    for key in ("model", "data", "train", "imitation", "bench"):
        if key in cfg and not isinstance(cfg[key], dict):
            raise ValueError(f"config block {key!r} must be an object, "
                             f"got {type(cfg[key]).__name__}")
    return cfg


@contextmanager
def _csv_writer(path: Optional[str]):
    """A csv writer on the file at `path`, or on stdout without one."""
    with open(path, "w", newline="") if path else nullcontext(sys.stdout) as f:
        yield csv.writer(f)


def _override(block: dict, key: str, flag_value, flag_name: str):
    if flag_value is None:
        return
    if key in block and block[key] != flag_value:
        _notice(f"--{flag_name}={flag_value} overrides config "
                f"{key}={block[key]}")
    block[key] = flag_value


def _model_spec(cfg: dict) -> ModelSpec:
    block = dict(cfg.get("model", {}))
    if "stages" in block:
        return ModelSpec.from_dict(block)
    preset = block.pop("preset", "nano")
    if preset != "nano":
        raise ValueError(f"model.preset must be 'nano', got {preset!r}")
    return _from_dict(ModelSpec, block, ModelSpec.nano)


@dataclass
class Cifar10Binary:
    """The keys of a `cifar10_binary` data block besides `source`."""
    path: str


def _datasets(cfg: dict, seed: int) -> tuple[Dataset, Dataset]:
    block = dict(cfg.get("data", {}))
    source = block.pop("source", "synthetic")
    if source == "cifar10_binary":
        path = _from_dict(Cifar10Binary, block).path
        return (load_cifar10_binary(path, "train"),
                load_cifar10_binary(path, "test"))
    if source != "synthetic":
        raise ValueError(f"data.source must be 'synthetic' or "
                         f"'cifar10_binary', got {source!r}")
    if "stream" in block:
        raise ValueError("unknown data key 'stream': the train and val "
                         "streams are fixed")
    val_per_class = block.pop("val_per_class", 25)
    block.setdefault("seed", seed)
    train_spec = _from_dict(SynthSpec, dict(block, stream="train"))
    val_spec = _from_dict(SynthSpec, dict(block, stream="val",
                                          samples_per_class=val_per_class))
    return synth_dataset(train_spec), synth_dataset(val_spec)


def _train_like(args, default_recipe: Optional[str] = None) -> int:
    cfg = _load_config(args.config)
    tblock = dict(cfg.get("train", {}))
    teacher_ckpt = tblock.pop("teacher_ckpt", None)
    if not isinstance(teacher_ckpt, (str, type(None))):
        raise ValueError(f"train.teacher_ckpt must be str, got {teacher_ckpt!r}")
    if args.teacher:
        teacher_ckpt = args.teacher
    _override(tblock, "seed", args.seed, "seed")
    _override(tblock, "epochs", args.epochs, "epochs")
    _override(tblock, "batch_size", args.batch, "batch")
    if default_recipe and "recipe" not in tblock:
        tblock["recipe"] = default_recipe
    if cfg.get("imitation") and "imitation" not in tblock:
        tblock["imitation"] = cfg["imitation"]
    tc = TrainConfig.from_dict(tblock)

    spec = _model_spec(cfg)
    model = build_model(spec, seed=tc.seed)
    teacher = None
    if teacher_ckpt:
        teacher, _ = load_checkpoint(teacher_ckpt)
    train_ds, val_ds = _datasets(cfg, tc.seed)
    result = train(model, train_ds, val_ds, tc, teacher=teacher,
                   log_path=args.log)
    if args.out:
        save_checkpoint(result.model, args.out,
                        meta={"seed": tc.seed, "recipe": tc.recipe,
                              "epoch": tc.epochs})
    print(f"final val top-1: {result.final_val_top1:.4f}")
    return 0


def _cmd_train(args) -> int:
    return _train_like(args)


def _cmd_distill(args) -> int:
    return _train_like(args, default_recipe="soft_kd_mi")


def _cmd_fuse(args) -> int:
    model, meta = load_checkpoint(args.infile)
    deploy = reparam.switch_to_deploy(model)
    save_checkpoint(deploy, args.out, meta=dict(meta, fused=True))
    print(f"wrote deploy checkpoint to {args.out}")
    return 0


def _cmd_verify(args) -> int:
    train_model, _ = load_checkpoint(args.train)
    deploy_model, _ = load_checkpoint(args.deploy)
    report = reparam.verify_equivalence(train_model, deploy_model,
                                        n_probes=args.probes, tol=args.tol,
                                        seed=args.seed or 0)
    text = report.to_json()
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
    print(text)
    if not report.passed:
        raise ValidationFailure(
            f"max abs diff {report.max_abs_diff:.3e} exceeds tol {report.tolerance:.3e}")
    return 0


def _limit_threads() -> None:
    """Set numpy's bundled OpenBLAS to RIFORMER_THREADS threads, if both
    exist; a malformed value is an error either way."""
    threads, blas = bench._env_threads(), bench._openblas()
    if threads is not None and blas is not None:
        blas.set_threads(threads)


def _bench_model(args, cfg: dict):
    if args.ckpt:
        model, _ = load_checkpoint(args.ckpt)
    else:
        model = build_model(_model_spec(cfg), seed=args.seed or 0)
    return model


def _protocol(args, cfg: dict) -> bench.BenchProtocol:
    block = dict(cfg.get("bench", {}))
    _override(block, "batch_size", args.batch, "batch")
    proto = _from_dict(bench.BenchProtocol, block)
    proto.validate()
    return proto


def _cmd_bench(args) -> int:
    _limit_threads()
    cfg = _load_config(args.config)
    model = _bench_model(args, cfg)
    proto = _protocol(args, cfg)
    report = bench.throughput(model, proto,
                              model_id=args.ckpt or "from-config",
                              seed=args.seed or 0)
    d = report.to_dict()
    if not args.raw:
        d.pop("raw_timings")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(d, f, indent=2)
    print(json.dumps({k: v for k, v in d.items() if k != "raw_timings"},
                     indent=2))
    return 0


def _cmd_breakdown(args) -> int:
    _limit_threads()
    cfg = _load_config(args.config)
    model = _bench_model(args, cfg)
    proto = _protocol(args, cfg)
    rows = bench.latency_breakdown(model, proto, seed=args.seed or 0)
    blas = bench.blas_config() or ""
    with _csv_writer(args.out) as writer:
        writer.writerow(["component", "ms", "flops", "thread_count", "blas"])
        for r in rows:
            writer.writerow([r.component, f"{r.ms:.4f}", r.flops,
                             bench.thread_count(), blas])
    return 0


def _probe_images(args, cfg: dict, spec: ModelSpec) -> np.ndarray:
    if args.probes < 1:
        raise ValueError(f"--probes must be >= 1, got {args.probes}")
    if cfg.get("data"):
        _, val = _datasets(cfg, args.seed or 0)
        return val.images[:args.probes]
    rng = np.random.default_rng(args.seed or 0)
    return rng.normal(0, 1, (args.probes, spec.in_channels,
                             spec.input_resolution, spec.input_resolution)
                      ).astype(np.float32)


def _cmd_erf(args) -> int:
    cfg = _load_config(args.config)
    model, _ = load_checkpoint(args.ckpt)
    images = _probe_images(args, cfg, model.spec)
    erf = analysis.erf_map(model, images)
    with _csv_writer(args.out) as writer:
        for row in erf:
            writer.writerow([f"{v:.6g}" for v in row])
    return 0


def _cmd_featdist(args) -> int:
    cfg = _load_config(args.config)
    model, _ = load_checkpoint(args.ckpt)
    images = _probe_images(args, cfg, model.spec)
    edges, counts = analysis.feature_histogram(model, images, args.stage,
                                               bins=args.bins)
    with _csv_writer(args.out) as writer:
        writer.writerow(["bin_left", "bin_right", "count"])
        for left, right, c in zip(edges[:-1], edges[1:], counts):
            writer.writerow([f"{left:.6g}", f"{right:.6g}", int(c)])
    return 0


def _cmd_dump_affine(args) -> int:
    model, _ = load_checkpoint(args.ckpt)
    rows = analysis.dump_affine_coefficients(model)
    columns = ["stage", "block", "channel", "s", "t"]
    with _csv_writer(args.out) as writer:
        writer.writerow(columns)
        writer.writerows([r[k] for k in columns] for r in rows)
    return 0


def _cmd_inspect_ckpt(args) -> int:
    header = read_header(args.ckpt)
    summary = {
        "deploy": header["deploy"],
        "meta": header["meta"],
        "mixer_kind": ModelSpec.from_dict(header["spec"]).mixer_kind,
        "num_tensors": len(header["manifest"]),
        "total_params": sum(math.prod(e["shape"]) for e in header["manifest"]),
    }
    print(json.dumps(summary, indent=2))
    if args.manifest:
        for e in header["manifest"]:
            print(f"{e['offset']:>12}  {str(e['shape']):>20}  {e['name']}")
    return 0


def _cmd_gen_data(args) -> int:
    cfg = _load_config(args.config)
    train_ds, val_ds = _datasets(cfg, args.seed or 0)
    np.savez(args.out, train_images=train_ds.images, train_labels=train_ds.labels,
             val_images=val_ds.images, val_labels=val_ds.labels)
    print(f"wrote {len(train_ds)} train / {len(val_ds)} val samples to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="riformer",
                     description="Token-mixer-free backbone toolkit: training, "
                                 "re-parameterization, distillation, "
                                 "benchmarking, analysis.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="override config seed")
        p.add_argument("--out", help="output file path")

    p = sub.add_parser("train", help="train a model with any recipe")
    common(p)
    p.add_argument("--epochs", type=int, help="override config epochs")
    p.add_argument("--batch", type=int, help="override config batch size")
    p.add_argument("--teacher", help="teacher checkpoint for KD recipes")
    p.add_argument("--log", help="CSV training log path")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("distill", help="train with the module-imitation recipe")
    common(p)
    p.add_argument("--epochs", type=int, help="override config epochs")
    p.add_argument("--batch", type=int, help="override config batch size")
    p.add_argument("--teacher", help="teacher checkpoint (required recipes)")
    p.add_argument("--log", help="CSV training log path")
    p.set_defaults(fn=_cmd_distill)

    p = sub.add_parser("fuse", help="fuse affine branches into the norm layer")
    p.add_argument("--in", dest="infile", required=True,
                   help="train-form checkpoint")
    p.add_argument("--out", required=True, help="deploy checkpoint path")
    p.set_defaults(fn=_cmd_fuse)

    p = sub.add_parser("verify", help="certify train/deploy equivalence")
    p.add_argument("--train", required=True, help="train-form checkpoint")
    p.add_argument("--deploy", required=True, help="deploy-form checkpoint")
    p.add_argument("--probes", type=int, default=100,
                   help="number of random probe inputs")
    p.add_argument("--tol", type=float, default=1e-5,
                   help="max-abs difference tolerance")
    p.add_argument("--seed", type=int, help="probe RNG seed")
    p.add_argument("--out", help="JSON report path")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("bench", help="measure inference throughput")
    common(p)
    p.add_argument("--ckpt", help="model checkpoint (else built from config)")
    p.add_argument("--batch", type=int, help="override protocol batch size")
    p.add_argument("--raw", action="store_true",
                   help="include raw timings in the JSON report")
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser("breakdown", help="per-component latency attribution")
    common(p)
    p.add_argument("--ckpt", help="model checkpoint (else built from config)")
    p.add_argument("--batch", type=int, help="override protocol batch size")
    p.set_defaults(fn=_cmd_breakdown)

    p = sub.add_parser("erf", help="effective receptive field map as CSV grid")
    common(p)
    p.add_argument("--ckpt", required=True, help="model checkpoint")
    p.add_argument("--probes", type=int, default=8, help="probe image count")
    p.set_defaults(fn=_cmd_erf)

    p = sub.add_parser("featdist", help="stage activation histogram as CSV")
    common(p)
    p.add_argument("--ckpt", required=True, help="model checkpoint")
    p.add_argument("--stage", type=int, required=True, choices=[1, 2, 3, 4],
                   help="stage whose output is histogrammed")
    p.add_argument("--bins", type=int, default=101, help="histogram bin count")
    p.add_argument("--probes", type=int, default=8, help="probe image count")
    p.set_defaults(fn=_cmd_featdist)

    p = sub.add_parser("dump-affine", help="per-block affine (s, t) table")
    p.add_argument("--ckpt", required=True, help="train-form affine checkpoint")
    p.add_argument("--out", help="CSV output path")
    p.set_defaults(fn=_cmd_dump_affine)

    p = sub.add_parser("inspect-ckpt", help="print checkpoint header summary")
    p.add_argument("--ckpt", required=True, help="checkpoint path")
    p.add_argument("--manifest", action="store_true",
                   help="also list every tensor")
    p.set_defaults(fn=_cmd_inspect_ckpt)

    p = sub.add_parser("gen-data", help="generate the synthetic dataset (npz)")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--seed", type=int, help="override config seed")
    p.add_argument("--out", required=True, help="npz output path")
    p.set_defaults(fn=_cmd_gen_data)

    return parser


def _one_line(e: object) -> str:
    """The message of `e` (an exception or a string) with its line breaks
    shown as spaces."""
    return " ".join(str(e).splitlines())


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        # every kernel checks its output, so an overflow ends in one
        # NumericsError line below rather than numpy's warning
        with np.errstate(over="ignore"):
            return args.fn(args)
    except ValidationFailure as e:
        print(f"validation failure: {_one_line(e)}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0
    except (ValueError, OSError, RuntimeError, KeyError, MemoryError,
            NumericsError) as e:
        print(f"error: {_one_line(e)}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
