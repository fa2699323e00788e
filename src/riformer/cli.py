"""Single executable exposing the full workflow.

Subcommands map 1:1 onto the library: train, distill, fuse, verify, bench,
breakdown, erf, featdist, dump-affine, inspect-ckpt, gen-data. A command that
takes --config <json> checks the whole file with `parse_config` before it
opens any other file; flags win over config values with a notice on stderr.
Exit codes: 0 success, 1 usage error, 2 validation failure, 3 runtime error.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from . import analysis, bench, reparam
from .checkpoint import load_checkpoint, read_header, save_checkpoint
from .data import Dataset, SynthSpec, load_cifar10_binary, synth_dataset
from .imitation import imitation_layers
from .models import ModelSpec, _from_dict, build_model
from .tensor import NumericsError
from .train import TrainConfig, train


class ValidationFailure(Exception):
    """A check ran to completion and failed (exit code 2)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"{self.prog}: error: {_one_line(message)}", file=sys.stderr)
        raise SystemExit(1)


@contextmanager
def _csv_writer(path: Optional[str]):
    """A csv writer on the file at `path`, or on stdout without one."""
    with open(path, "w", newline="") if path else nullcontext(sys.stdout) as f:
        yield csv.writer(f)


def _override(block: dict, key: str, flag_value, flag_name: str):
    if flag_value is None:
        return
    if key in block and block[key] != flag_value:
        print(f"notice: --{flag_name}={flag_value} overrides config "
              f"{key}={block[key]}", file=sys.stderr)
    block[key] = flag_value


@dataclass
class Cifar10Binary:
    """The keys of a `cifar10_binary` data block besides `source`."""
    path: str


@dataclass
class Config:
    """A whole config file, checked: everything any command reads of it."""
    model: ModelSpec
    data: tuple[SynthSpec, SynthSpec] | Cifar10Binary
    data_given: bool  # whether the file has a non-empty data block
    train: TrainConfig
    teacher_ckpt: Optional[str]
    bench: bench.BenchProtocol

    def datasets(self) -> tuple[Dataset, Dataset]:
        """The train and val sets: built, or read from the CIFAR files."""
        if isinstance(self.data, Cifar10Binary):
            return (load_cifar10_binary(self.data.path, "train"),
                    load_cifar10_binary(self.data.path, "test"))
        return synth_dataset(self.data[0]), synth_dataset(self.data[1])


def parse_config(cfg, *, recipe=None, seed=None, epochs=None, batch=None,
                 bench_batch=None) -> Config:
    """Check the root and all five blocks of a loaded config file, whatever a
    command reads of it, and open no file. `recipe` is the default for
    `train.recipe`; `seed`, `epochs` and `batch` override `train.seed`,
    `train.epochs` and `train.batch_size`, and `bench_batch` overrides
    `bench.batch_size`, with a notice when they change a value. The resolved
    `train.seed` is the default `data.seed`."""
    if not isinstance(cfg, dict):
        raise ValueError(f"config root must be a JSON object, "
                         f"got {type(cfg).__name__}")
    unknown = sorted(set(cfg) - {"model", "data", "train", "imitation",
                                 "bench"})
    if unknown:
        raise ValueError(f"unknown config block(s): "
                         f"{', '.join(map(repr, unknown))}")
    for key, block in cfg.items():
        if not isinstance(block, dict):
            raise ValueError(f"config block {key!r} must be an object, "
                             f"got {type(block).__name__}")
    mblock, dblock, tblock, bblock = (dict(cfg.get(key, {})) for key in
                                      ("model", "data", "train", "bench"))

    if "stages" not in mblock:
        preset = mblock.pop("preset", "nano")
        if preset != "nano":
            raise ValueError(f"model.preset must be 'nano', got {preset!r}")
        mblock["stages"] = ModelSpec.nano().stages
    spec = _from_dict(ModelSpec, mblock)

    if "imitation" in cfg:
        if "imitation" in tblock:
            raise ValueError("config sets both 'imitation' and "
                             "'train.imitation'")
        tblock["imitation"] = cfg["imitation"]
    teacher_ckpt = tblock.pop("teacher_ckpt", None)
    if not isinstance(teacher_ckpt, (str, type(None))):
        raise ValueError(f"train.teacher_ckpt must be str, got {teacher_ckpt!r}")
    _override(tblock, "seed", seed, "seed")
    _override(tblock, "epochs", epochs, "epochs")
    _override(tblock, "batch_size", batch, "batch")
    if recipe:
        tblock.setdefault("recipe", recipe)
    tc = _from_dict(TrainConfig, tblock)
    if tc.init_from_teacher and spec.mixer_kind != "affine":
        raise ValueError(f"train.init_from_teacher needs an affine model, "
                         f"got mixer_kind {spec.mixer_kind!r}")
    mi = tc.imitation
    if mi is not None and (mi.layers or tc.recipe == "soft_kd_mi"):
        imitation_layers(spec, mi)

    source = dblock.pop("source", "synthetic")
    if source == "cifar10_binary":
        data = _from_dict(Cifar10Binary, dblock)
        # CIFAR-10 images are 3x32x32, in 10 classes
        if spec.in_channels != 3:
            raise ValueError(f"cifar10_binary images have 3 channels, got "
                             f"model.in_channels {spec.in_channels}")
        if 32 % spec.total_stride:
            raise ValueError(f"cifar10_binary images are 32x32, not a "
                             f"multiple of the model's total stride "
                             f"{spec.total_stride}")
        if spec.num_classes < 10:
            raise ValueError(f"cifar10_binary has 10 classes, more than "
                             f"model.num_classes {spec.num_classes}")
    elif source != "synthetic":
        raise ValueError(f"data.source must be 'synthetic' or "
                         f"'cifar10_binary', got {source!r}")
    elif "stream" in dblock:
        raise ValueError("unknown data key 'stream': the train and val "
                         "streams are fixed")
    else:
        val_per_class = dblock.pop("val_per_class", 25)
        dblock.setdefault("seed", tc.seed)
        data = (_from_dict(SynthSpec, dict(dblock, stream="train")),
                _from_dict(SynthSpec, dict(dblock, stream="val",
                                           samples_per_class=val_per_class)))
        synth = data[0]
        if synth.num_classes > spec.num_classes:
            raise ValueError(f"data.num_classes {synth.num_classes} exceeds "
                             f"model.num_classes {spec.num_classes}")
        if synth.resolution % spec.total_stride:
            raise ValueError(f"data.resolution must be a multiple of the "
                             f"model's total stride {spec.total_stride}, "
                             f"got {synth.resolution}")

    _override(bblock, "batch_size", bench_batch, "batch")
    proto = _from_dict(bench.BenchProtocol, bblock)
    return Config(spec, data, bool(cfg.get("data")), tc, teacher_ckpt, proto)


def _config(args) -> Config:
    """The command's `--config` file, checked whole, with its flags applied."""
    cfg = {}
    if args.config:
        with open(args.config) as f:
            cfg = json.load(f)
    return parse_config(cfg, **{key: getattr(args, key, None) for key in
                                ("recipe", "seed", "epochs", "batch",
                                 "bench_batch")})


def _cmd_train(args) -> int:
    conf = _config(args)
    tc = conf.train
    teacher_ckpt = args.teacher or conf.teacher_ckpt
    if tc.needs_teacher and not teacher_ckpt:
        raise ValueError(f"recipe {tc.recipe!r} requires a teacher: set "
                         f"train.teacher_ckpt or --teacher")
    model = build_model(conf.model, seed=tc.seed)
    teacher = load_checkpoint(teacher_ckpt)[0] if teacher_ckpt else None
    train_ds, val_ds = conf.datasets()
    result = train(model, train_ds, val_ds, tc, teacher=teacher,
                   log_path=args.log)
    if args.out:
        save_checkpoint(result.model, args.out,
                        meta={"seed": tc.seed, "recipe": tc.recipe,
                              "epoch": tc.epochs})
    print(f"final val top-1: {result.final_val_top1:.4f}")
    return 0


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
    text = json.dumps(asdict(report), indent=2)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
    print(text)
    if not report.passed:
        raise ValidationFailure(
            f"max abs diff {report.max_abs_diff:.3e} exceeds tol {report.tolerance:.3e}")
    return 0


def _bench_model(args, conf: Config):
    if args.ckpt:
        return load_checkpoint(args.ckpt)[0]
    return build_model(conf.model, seed=conf.train.seed)


def _cmd_bench(args) -> int:
    conf = _config(args)
    model = _bench_model(args, conf)
    report = bench.throughput(model, conf.bench,
                              model_id=args.ckpt or "from-config",
                              seed=conf.train.seed)
    d = asdict(report)
    if not args.raw:
        d.pop("raw_timings")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(d, f, indent=2)
    print(json.dumps({k: v for k, v in d.items() if k != "raw_timings"},
                     indent=2))
    return 0


def _cmd_breakdown(args) -> int:
    conf = _config(args)
    rows = bench.latency_breakdown(_bench_model(args, conf), conf.bench,
                                   seed=conf.train.seed)
    blas = bench.blas_config() or ""
    with _csv_writer(args.out) as writer:
        writer.writerow(["component", "ms", "flops", "thread_count", "blas"])
        for r in rows:
            writer.writerow([r.component, f"{r.ms:.4f}", r.flops,
                             bench.thread_count(), blas])
    return 0


def _probe_images(args, conf: Config, spec: ModelSpec) -> np.ndarray:
    if args.probes < 1:
        raise ValueError(f"--probes must be >= 1, got {args.probes}")
    if conf.data_given:
        return conf.datasets()[1].images[:args.probes]
    rng = np.random.default_rng(conf.train.seed)
    return rng.normal(0, 1, (args.probes, spec.in_channels,
                             spec.input_resolution, spec.input_resolution)
                      ).astype(np.float32)


def _cmd_erf(args) -> int:
    conf = _config(args)
    model, _ = load_checkpoint(args.ckpt)
    images = _probe_images(args, conf, model.spec)
    erf = analysis.erf_map(model, images)
    with _csv_writer(args.out) as writer:
        for row in erf:
            writer.writerow([f"{v:.6g}" for v in row])
    return 0


def _cmd_featdist(args) -> int:
    conf = _config(args)
    model, _ = load_checkpoint(args.ckpt)
    images = _probe_images(args, conf, model.spec)
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
        "mixer_kind": header["spec"]["mixer_kind"],
        "num_tensors": len(header["manifest"]),
        "total_params": sum(math.prod(e["shape"]) for e in header["manifest"]),
    }
    print(json.dumps(summary, indent=2))
    if args.manifest:
        for e in header["manifest"]:
            print(f"{e['offset']:>12}  {str(e['shape']):>20}  {e['name']}")
    return 0


def _cmd_gen_data(args) -> int:
    train_ds, val_ds = _config(args).datasets()
    with open(args.out, "wb") as f:  # a path given to savez gains ".npz"
        np.savez(f, train_images=train_ds.images, train_labels=train_ds.labels,
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

    # distill is train with soft_kd_mi as the default recipe
    for name, text, recipe in (
            ("train", "train a model with any recipe", None),
            ("distill", "train with the module-imitation recipe", "soft_kd_mi")):
        p = sub.add_parser(name, help=text)
        common(p)
        p.add_argument("--epochs", type=int, help="override config epochs")
        p.add_argument("--batch", type=int, help="override config batch size")
        p.add_argument("--teacher", help="teacher checkpoint for KD recipes")
        p.add_argument("--log", help="CSV training log path")
        p.set_defaults(fn=_cmd_train, recipe=recipe)

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
    p.add_argument("--batch", type=int, dest="bench_batch",
                   help="override protocol batch size")
    p.add_argument("--raw", action="store_true",
                   help="include raw timings in the JSON report")
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser("breakdown", help="per-component latency attribution")
    common(p)
    p.add_argument("--ckpt", help="model checkpoint (else built from config)")
    p.add_argument("--batch", type=int, dest="bench_batch",
                   help="override protocol batch size")
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
        # every kernel checks its output, so a value past the float32
        # maximum (a weight of 3e38, say) ends in one NumericsError line
        # below rather than numpy's overflow warning
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
