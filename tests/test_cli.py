"""Command-line interface: exit codes, help coverage, end-to-end flows."""
import csv
import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import riformer.tensor as T
from riformer.cli import build_parser, main, parse_config
from helpers import tiny_spec

EXPECTED_FLAGS = {
    "train": ["--config", "--seed", "--out", "--epochs", "--batch",
              "--teacher", "--log"],
    "distill": ["--config", "--seed", "--out", "--epochs", "--batch",
                "--teacher", "--log"],
    "fuse": ["--in", "--out"],
    "verify": ["--train", "--deploy", "--probes", "--tol", "--seed", "--out"],
    "bench": ["--config", "--seed", "--out", "--ckpt", "--batch", "--raw"],
    "breakdown": ["--config", "--seed", "--out", "--ckpt", "--batch"],
    "erf": ["--config", "--seed", "--out", "--ckpt", "--probes"],
    "featdist": ["--config", "--seed", "--out", "--ckpt", "--stage", "--bins",
                 "--probes"],
    "dump-affine": ["--ckpt", "--out"],
    "inspect-ckpt": ["--ckpt", "--manifest"],
    "gen-data": ["--config", "--seed", "--out"],
}


@pytest.fixture
def tiny_config(tmp_path):
    cfg = {
        "model": asdict(tiny_spec("affine")),
        "data": {"num_classes": 4, "samples_per_class": 2, "val_per_class": 2,
                 "resolution": 32, "seed": 0},
        "train": {"recipe": "ce", "epochs": 1, "batch_size": 8, "lr": 0.001,
                  "warmup_epochs": 1, "seed": 0},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_help_enumerates_every_flag(capsys):
    parser = build_parser()
    sub_actions = next(a for a in parser._actions
                       if isinstance(a, type(parser._subparsers._group_actions[0])))
    for name, flags in EXPECTED_FLAGS.items():
        help_text = sub_actions.choices[name].format_help()
        for flag in flags:
            assert flag in help_text, f"{name} help is missing {flag}"


def test_top_level_help_lists_all_subcommands():
    text = build_parser().format_help()
    for name in EXPECTED_FLAGS:
        assert name in text


def _usage_error_line(capsys, prog: str) -> str:
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"{prog}: error: ") and out.err.count("\n") == 1
    return out.err


def test_missing_command_is_usage_error(capsys):
    assert main([]) == 1
    _usage_error_line(capsys, "riformer")


def test_unknown_flag_is_usage_error(capsys):
    assert main(["train", "--no-such-flag"]) == 1
    assert "--no-such-flag" in _usage_error_line(capsys, "riformer")


def test_missing_required_flag_is_usage_error(capsys):
    assert main(["fuse", "--out", "x.ckpt"]) == 1
    assert "--in" in _usage_error_line(capsys, "riformer fuse")


def test_bad_flag_value_is_usage_error(capsys):
    assert main(["bench", "--batch", "x"]) == 1
    assert "--batch" in _usage_error_line(capsys, "riformer bench")


def test_missing_config_file_is_runtime_error(capsys):
    assert main(["train", "--config", "/no/such/file.json"]) == 3


def test_train_same_seed_byte_identical(tiny_config, tmp_path, capsys):
    a, b = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
    assert main(["train", "--config", tiny_config, "--out", a]) == 0
    assert main(["train", "--config", tiny_config, "--out", b]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()


def test_flag_override_prints_notice(tiny_config, tmp_path, capsys):
    out = str(tmp_path / "m.ckpt")
    assert main(["train", "--config", tiny_config, "--out", out,
                 "--epochs", "2"]) == 0
    err = capsys.readouterr().err
    assert "overrides config" in err


def test_fuse_verify_round_trip(tiny_config, tmp_path, capsys):
    train_ckpt = str(tmp_path / "train.ckpt")
    deploy_ckpt = str(tmp_path / "deploy.ckpt")
    assert main(["train", "--config", tiny_config, "--out", train_ckpt]) == 0
    assert main(["fuse", "--in", train_ckpt, "--out", deploy_ckpt]) == 0
    capsys.readouterr()
    assert main(["verify", "--train", train_ckpt, "--deploy", deploy_ckpt,
                 "--probes", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True


def test_verify_prints_the_report_bytes(tmp_path, capsys):
    # the report as indented JSON in field order, on stdout and in --out
    from riformer import (build_model, save_checkpoint, switch_to_deploy,
                          verify_equivalence)
    model = build_model(tiny_spec("affine"), seed=3)
    deploy = switch_to_deploy(model)
    train_ckpt, deploy_ckpt = tmp_path / "train.ckpt", tmp_path / "deploy.ckpt"
    save_checkpoint(model, str(train_ckpt))
    save_checkpoint(deploy, str(deploy_ckpt))
    out = tmp_path / "report.json"
    assert main(["verify", "--train", str(train_ckpt), "--deploy",
                 str(deploy_ckpt), "--probes", "3", "--out", str(out)]) == 0
    report = verify_equivalence(model, deploy, n_probes=3)
    expected = ('{\n'
                '  "samples": 3,\n'
                f'  "max_abs_diff": {report.max_abs_diff!r},\n'
                f'  "mean_abs_diff": {report.mean_abs_diff!r},\n'
                '  "tolerance": 1e-05,\n'
                '  "passed": true\n'
                '}\n')
    assert capsys.readouterr().out == expected
    assert out.read_text() == expected


def test_verify_perturbed_deploy_fails_with_exit_2(tiny_config, tmp_path,
                                                   capsys):
    from riformer import load_checkpoint, save_checkpoint
    train_ckpt = str(tmp_path / "train.ckpt")
    deploy_ckpt = str(tmp_path / "deploy.ckpt")
    main(["train", "--config", tiny_config, "--out", train_ckpt])
    main(["fuse", "--in", train_ckpt, "--out", deploy_ckpt])
    deploy, meta = load_checkpoint(deploy_ckpt)
    deploy.head_b.data[0] += 0.01
    save_checkpoint(deploy, deploy_ckpt, meta=meta)
    assert main(["verify", "--train", train_ckpt, "--deploy", deploy_ckpt,
                 "--probes", "3"]) == 2


# an infinite tol would pass any pair of models, and no value passes
# against a NaN tol or a negative one
VACUOUS_VERIFY = {
    "probes0": ["--probes", "0"],
    "train_as_deploy": ["--probes", "1"],
    "tol_inf": ["--tol", "inf"],
    "tol_nan": ["--tol", "nan"],
    "tol_negative": ["--tol", "-1"],
}


@pytest.mark.parametrize("form", list(VACUOUS_VERIFY))
def test_verify_vacuous_or_unfused_is_runtime_error(tiny_config, tmp_path,
                                                    capsys, form):
    train_ckpt = str(tmp_path / "train.ckpt")
    deploy_ckpt = str(tmp_path / "deploy.ckpt")
    main(["train", "--config", tiny_config, "--out", train_ckpt])
    main(["fuse", "--in", train_ckpt, "--out", deploy_ckpt])
    capsys.readouterr()
    deploy = train_ckpt if form == "train_as_deploy" else deploy_ckpt
    assert main(["verify", "--train", train_ckpt, "--deploy", deploy]
                + VACUOUS_VERIFY[form]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1
    if form.startswith("tol"):
        assert "tol must be >= 0 and finite" in out.err


def test_inspect_ckpt_summary(tiny_config, tmp_path, capsys):
    ckpt = str(tmp_path / "m.ckpt")
    main(["train", "--config", tiny_config, "--out", ckpt])
    capsys.readouterr()
    assert main(["inspect-ckpt", "--ckpt", ckpt]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["deploy"] is False
    assert summary["mixer_kind"] == "affine"
    assert summary["num_tensors"] > 0


def test_dump_affine_csv(tiny_config, tmp_path, capsys):
    ckpt = str(tmp_path / "m.ckpt")
    out = str(tmp_path / "coeffs.csv")
    main(["train", "--config", tiny_config, "--out", ckpt])
    assert main(["dump-affine", "--ckpt", ckpt, "--out", out]) == 0
    lines = open(out).read().strip().splitlines()
    assert lines[0] == "stage,block,channel,s,t"
    expect = sum(st.depth * st.dim for st in tiny_spec().stages)
    assert len(lines) == expect + 1


def test_erf_and_featdist_outputs(tiny_config, tmp_path, capsys):
    ckpt = str(tmp_path / "m.ckpt")
    main(["train", "--config", tiny_config, "--out", ckpt])
    erf_out = str(tmp_path / "erf.csv")
    assert main(["erf", "--ckpt", ckpt, "--probes", "2",
                 "--out", erf_out]) == 0
    grid = np.loadtxt(erf_out, delimiter=",")
    assert grid.shape == (32, 32)
    assert grid.max() == pytest.approx(1.0)

    fd_out = str(tmp_path / "hist.csv")
    assert main(["featdist", "--ckpt", ckpt, "--stage", "2", "--probes", "2",
                 "--bins", "11", "--out", fd_out]) == 0
    lines = open(fd_out).read().strip().splitlines()
    assert lines[0] == "bin_left,bin_right,count"
    assert len(lines) == 12


@pytest.mark.parametrize("argv", [
    ["erf", "--probes", "0"],
    ["erf", "--probes", "-1"],
    ["featdist", "--stage", "2", "--bins", "0"],
    ["featdist", "--stage", "2", "--bins", "-3"],
    ["featdist", "--stage", "2", "--probes", "0"],
], ids=["erf_probes_0", "erf_probes_neg", "featdist_bins_0",
        "featdist_bins_neg", "featdist_probes_0"])
def test_empty_analysis_is_runtime_error(argv, tiny_config, tmp_path, capsys):
    ckpt = str(tmp_path / "m.ckpt")
    assert main(["train", "--config", tiny_config, "--out", ckpt]) == 0
    capsys.readouterr()
    out = str(tmp_path / "out.csv")
    assert main(argv + ["--ckpt", ckpt, "--out", out]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert ("--probes" if "--probes" in argv else "bins") in err
    assert not os.path.exists(out)


def test_gen_data_writes_npz(tiny_config, tmp_path, capsys):
    # the file is --out exactly, with or without the .npz suffix
    for i, name in enumerate(("data.npz", "data")):
        (tmp_path / str(i)).mkdir()
        out = str(tmp_path / str(i) / name)
        assert main(["gen-data", "--config", tiny_config, "--out", out]) == 0
        assert capsys.readouterr().out.rstrip().endswith(f" to {out}")
        assert not os.path.exists(out + ".npz")
        blob = np.load(out)
        assert blob["train_images"].shape == (8, 3, 32, 32)
        assert blob["val_images"].shape == (8, 3, 32, 32)


def test_bench_json_report(tiny_config, tmp_path, capsys):
    with open(tiny_config) as f:
        cfg = json.load(f)
    cfg["bench"] = {"batch_size": 2, "warmup_runs": 1, "timed_runs": 2,
                    "repeats": 3}
    path = tmp_path / "bench_cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["bench", "--config", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["images_per_second"] > 0
    assert "raw_timings" not in report
    assert report["blas"].startswith("OpenBLAS ")  # numpy's bundled BLAS


def _run_at_threads(threads, args):
    """`python *args` in a new process whose OpenBLAS starts at `threads`."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, *args], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    return done.stdout


def test_openblas_variable_sets_the_thread_count(tiny_config, tmp_path):
    # OPENBLAS_NUM_THREADS, read as numpy loads OpenBLAS, is the one setting
    with open(tiny_config) as f:
        cfg = json.load(f)
    cfg["bench"] = {"batch_size": 1, "warmup_runs": 0, "timed_runs": 1,
                    "repeats": 1}
    path = tmp_path / "bench_cfg.json"
    path.write_text(json.dumps(cfg))
    for threads in (1, 2):
        out = _run_at_threads(threads, ["-m", "riformer.cli", "bench",
                                        "--config", str(path)])
        assert json.loads(out)["thread_count"] == min(threads, T._cpus())
    # at one BLAS thread on two CPUs or more, the worker runs
    out = _run_at_threads(1, ["-c", "import riformer.tensor as T; "
                                    "print(T._cpus(), T._worker() is not None)"])
    cpus, on = out.split()
    assert on == str(int(cpus) >= 2)


def test_bench_zero_batch_is_runtime_error(tiny_config, capsys):
    assert main(["bench", "--config", tiny_config, "--batch", "0"]) == 3
    err = capsys.readouterr().err
    assert "error: batch_size must be >= 1" in err


@pytest.mark.parametrize("cfg", [
    {"train": {"bogus": 3}},
    {"train": {"cosine": False}},
    {"model": {"depths": 2}},
    {"model": {"stages": [{"depth": 1, "dims": 4}] * 4}},
    {"imitation": {"bogus": 1}},
    {"imitation": {"tau": 4.0}},
    {"data": {"bogus": 1}},
    {"bench": {"bogus": 1}},
    # the probe is drawn at model.input_resolution, so bench sets none
    {"bench": {"resolution": 32, "batch_size": 1, "warmup_runs": 0,
               "timed_runs": 1, "repeats": 1}},
    {"model": {"\n": 1}},
    {"train": {"a\r\nb": 1}},
    {"model": {"drop_path_rate": 0.0}},
], ids=["train", "train_cosine", "model", "stage", "imitation",
        "imitation_tau", "data", "bench", "bench_resolution", "model_newline",
        "train_crlf", "model_drop_path_rate"])
def test_unknown_config_key_is_runtime_error(cfg, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    cmd = "bench" if "bench" in cfg else "train"
    assert main([cmd, "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: unknown ")
    assert out.err.count("\n") == 1
    # the key is named quoted, so a line break in it stays on the line
    assert any(repr(key) in out.err for key in ("bogus", "cosine", "depths",
                                                "dims", "tau", "\n", "a\r\nb",
                                                "drop_path_rate", "resolution"))


def test_config_teacher_ckpt_is_used(tiny_config, tmp_path, capsys):
    # train.teacher_ckpt names the teacher; it is not a TrainConfig field
    teacher = str(tmp_path / "teacher.ckpt")
    assert main(["train", "--config", tiny_config, "--out", teacher]) == 0
    with open(tiny_config) as f:
        cfg = json.load(f)
    cfg["train"].update(recipe="soft_kd", teacher_ckpt=teacher)
    path = tmp_path / "kd.json"
    path.write_text(json.dumps(cfg))
    assert main(["train", "--config", str(path),
                 "--out", str(tmp_path / "student.ckpt")]) == 0
    cfg["train"]["teacher_ckpt"] = str(tmp_path / "missing.ckpt")
    path.write_text(json.dumps(cfg))
    assert main(["train", "--config", str(path)]) == 3


def test_inspect_truncated_ckpt_is_runtime_error(tmp_path, capsys):
    path = tmp_path / "cut.ckpt"
    path.write_bytes(b"RIFCKPT1" + b"\x01")
    assert main(["inspect-ckpt", "--ckpt", str(path)]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: truncated ")
    assert out.err.count("\n") == 1


@pytest.mark.parametrize("cmd,cfg", [
    ("train", {"train": 3}),
    ("breakdown", {"train": 3}),
    ("train", {"data": 3}),
    ("breakdown", {"bench": [1]}),
    ("train", {"model": []}),
    ("train", {"train": {"epochs": "x"}}),
    ("train", {"train": {"epochs": True}}),
    ("train", {"train": {"imitation": 3}}),
    ("train", {"model": {"num_classes": "8"}}),
    ("train", {"model": {"stages": [{"depth": 1}] * 4}}),
    ("breakdown", {"bench": {"repeats": 1.5}}),
    ("train", {"model": {"input_resolution": 48}}),
    ("bench", {"model": {"layer_scale_init": 10 ** 400}}),
    ("breakdown", {"bench": {"warmup_runs": -1}}),
], ids=["train_block", "train_block_breakdown", "data_block", "bench_block",
        "model_block", "str_for_int", "bool_for_int", "imitation_block",
        "str_for_model_int", "stage_missing_keys", "float_for_int",
        "resolution_off_stride", "int_past_float_range",
        "negative_warmup_runs"])
def test_malformed_config_is_runtime_error(cmd, cfg, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main([cmd, "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ")
    assert out.err.count("\n") == 1


def test_config_scalars_accept_their_types(tiny_config, tmp_path, capsys):
    # an int where a float is expected, and None for an Optional field
    with open(tiny_config) as f:
        cfg = json.load(f)
    cfg["train"].update(lr=None, weight_decay=0, label_smoothing=0)
    cfg["model"]["stages"][0]["mlp_ratio"] = 4
    path = tmp_path / "ok.json"
    path.write_text(json.dumps(cfg))
    assert main(["train", "--config", str(path)]) == 0


def test_shipped_presets_load():
    presets = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
    names = sorted(os.listdir(presets))
    assert names
    for name in names:
        with open(os.path.join(presets, name)) as f:
            parse_config(json.load(f)).datasets()


def test_breakdown_csv(tiny_config, tmp_path, capsys, monkeypatch):
    from riformer import bench, build_model, op_count
    with open(tiny_config) as f:
        cfg = json.load(f)
    cfg["bench"] = {"batch_size": 2, "warmup_runs": 1, "timed_runs": 2,
                    "repeats": 3}
    path = tmp_path / "bench_cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["breakdown", "--config", str(path)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "component,ms,flops,thread_count,blas"
    rows = list(csv.reader(lines[1:]))
    assert [r[0] for r in rows] == ["embedding", "norm", "mixer", "mlp", "head"]
    assert all(float(r[1]) >= 0.0 for r in rows)
    model = build_model(tiny_spec("affine"), seed=0)
    assert sum(int(r[2]) for r in rows) == op_count(model, batch_size=2)
    # the OpenBLAS build string, empty without one
    assert {r[4] for r in rows} == {bench.blas_config() or ""}
    monkeypatch.setattr(bench, "_openblas", lambda: None)
    assert main(["breakdown", "--config", str(path)]) == 0
    rows = list(csv.reader(capsys.readouterr().out.strip().splitlines()[1:]))
    assert [r[4] for r in rows] == [""] * 5


def test_breakdown_ckpt_probes_at_its_own_resolution(tmp_path, capsys):
    # the config's model is the 64x64 nano; a 32x32 checkpoint is profiled
    # at its header spec's 32x32
    from riformer import build_model, op_count, save_checkpoint
    model = build_model(tiny_spec("pooling"), seed=0)
    ckpt = str(tmp_path / "tiny.ckpt")
    save_checkpoint(model, ckpt)
    path = tmp_path / "bench_cfg.json"
    path.write_text(json.dumps({"bench": {"batch_size": 2, "warmup_runs": 0,
                                          "timed_runs": 1, "repeats": 1}}))
    assert main(["breakdown", "--config", str(path), "--ckpt", ckpt]) == 0
    rows = list(csv.reader(capsys.readouterr().out.strip().splitlines()[1:]))
    assert sum(int(r[2]) for r in rows) == op_count(model, batch_size=2)


def _huge_mlp_ratio_model() -> dict:
    model = asdict(tiny_spec())
    model["stages"][0]["mlp_ratio"] = 1e308  # an MLP width past float range
    return model


def _patch_below_stride_model() -> dict:
    model = asdict(tiny_spec())
    # (patch_size - stride + 1) // 2 = -1: the embedding would pad by -1
    model["stages"][0].update(patch_size=1, stride=4)
    return model


@pytest.mark.parametrize("cmd,cfg,key", [
    ("train", {"train": {"teacher_ckpt": 3, "recipe": "soft_kd",
                         "epochs": 1}}, "teacher_ckpt"),
    ("train", {"train": {"teacher_ckpt": ["t.ckpt"], "recipe": "soft_kd",
                         "epochs": 1}}, "teacher_ckpt"),
    ("gen-data", {"data": {"source": "cifar10_binary", "path": "cif",
                           "bogus": 1}}, "bogus"),
    ("gen-data", {"data": {"source": "cifar10_binary"}}, "path"),
    ("gen-data", {"data": {"source": "cifar10_binary", "path": 3}}, "path"),
    ("bench", {"model": {"mixer_kind": "affine",
                         "layer_scale_init": float("nan")}}, "layer_scale_init"),
    ("bench", {"model": {"mixer_kind": "affine",
                         "layer_scale_init": float("inf")}}, "layer_scale_init"),
    ("bench", {"model": {"mixer_kind": "affine",
                         "layer_scale_init": 1e39}}, "layer_scale_init"),
    ("bench", {"model": _huge_mlp_ratio_model()}, "mlp_ratio"),
    ("bench", {"model": _patch_below_stride_model()}, "patch_size 1, stride 4"),
    ("bench", {"model": {"preset": "s12", "mixer_kind": "affine"}}, "preset"),
    ("bench", {"model": {"preset": 7}}, "preset"),
    ("gen-data", {"data": {"stream": "val"}}, "stream"),
    ("gen-data", {"data": {"source": "imagenet"}}, "data.source"),
    ("gen-data", {"data": {"source": 3}}, "data.source"),
    ("bench", [{"model": {}}], "config root"),
    ("train", {"train": {"recipe": "soft_kd", "epochs": 1,
                         "teacher_ckpt": "nope.ckpt"},
               "data": {"source": "imagenet"}}, "data.source"),
    ("bench", {"data": {"stream": "val"}}, "stream"),
    ("erf --ckpt m.ckpt", {"model": {"preset": "s12"}}, "preset"),
    ("gen-data", {"train": {"recipe": "bogus"}}, "recipe"),
    ("bench", {"modle": {"mixer_kind": "affine"}}, "'modle'"),
    ("train", {"train": {"imitation": {}}, "imitation": {"bogus": 1}},
     "train.imitation"),
    ("distill", {"train": {"teacher_ckpt": "t.ckpt"},
                 "imitation": {"layers": [99]}}, "imitation.layers"),
    ("train", {"train": {"teacher_ckpt": "t.ckpt", "recipe": "soft_kd"},
               "data": {"seed": -1}}, "seed must be >= 0"),
    ("train", {"train": {"recipe": "soft_kd"}, "model": {"num_classes": 10},
               "data": {"source": "cifar10_binary", "path": "cif"}},
     "requires a teacher"),
    ("train", {"model": {"num_classes": 4}, "data": {"num_classes": 8}},
     "data.num_classes 8 exceeds model.num_classes 4"),
    ("bench", {"model": {"num_classes": 4}, "data": {"num_classes": 8}},
     "data.num_classes 8 exceeds model.num_classes 4"),
    ("bench", {"data": {"resolution": 48}}, "data.resolution"),
    ("train", {"train": {"init_from_teacher": True, "teacher_ckpt": "t.ckpt"},
               "model": {"mixer_kind": "pooling"}}, "init_from_teacher"),
    ("gen-data", {"data": {"noise_std": -1}}, "noise_std"),
    ("gen-data", {"data": {"noise_std": float("nan")}}, "noise_std"),
    ("bench", {"data": {"noise_std": float("inf")}}, "noise_std"),
    ("gen-data", {"data": {"max_shift": -1}}, "max_shift"),
], ids=["teacher_ckpt_int", "teacher_ckpt_list", "cifar_unknown_key",
        "cifar_missing_path", "cifar_int_path", "layer_scale_nan",
        "layer_scale_inf", "layer_scale_above_float32", "mlp_ratio_huge",
        "patch_below_stride", "preset_unknown", "preset_int", "data_stream",
        "source_unknown",
        "source_int", "root_not_object", "train_source_before_teacher",
        "bench_data_stream", "erf_preset", "gen_data_recipe", "root_typo",
        "two_imitation_blocks", "layers_out_of_range", "data_seed_negative",
        "teacher_missing", "classes_above_model", "bench_classes_above_model",
        "data_resolution_off_stride", "init_from_teacher_pooling",
        "noise_std_negative", "noise_std_nan", "noise_std_inf",
        "max_shift_negative"])
def test_bad_config_value_named_before_any_file_is_read(cmd, cfg, key,
                                                        tmp_path, capsys,
                                                        monkeypatch):
    # every command that takes --config checks the whole file, whichever
    # blocks it reads, before it opens a checkpoint or a CIFAR file
    import riformer.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("a file was read before the config was checked")

    monkeypatch.setattr(cli, "load_checkpoint", never)
    monkeypatch.setattr(cli, "load_cifar10_binary", never)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main(cmd.split() + ["--config", str(path),
                               "--out", str(tmp_path / "out")]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1
    assert key in out.err


def test_synthetic_data_defaults_to_the_models_resolution():
    conf = parse_config({"model": {"input_resolution": 32}})
    assert conf.model.input_resolution == 32
    assert [s.resolution for s in conf.data] == [32, 32]
    assert [s.resolution for s in parse_config({}).data] == [64, 64]


def test_synthetic_data_at_another_resolution_is_refused():
    # even at a multiple of the total stride, which the model could run
    with pytest.raises(ValueError) as info:
        parse_config({"data": {"resolution": 128}})
    assert str(info.value) == ("data.resolution 128 differs from "
                               "model.input_resolution 64")


def _strided_model(stride: int) -> dict:
    model = asdict(tiny_spec(num_classes=10, input_resolution=64))
    model["stages"][0].update(stride=stride, patch_size=stride)
    return model


@pytest.mark.parametrize("cmd", ["train", "bench"])
@pytest.mark.parametrize("model,message", [
    ({}, "cifar10_binary has 10 classes, more than model.num_classes 8"),
    ({"num_classes": 10, "in_channels": 1},
     "cifar10_binary images have 3 channels, got model.in_channels 1"),
    (_strided_model(8), "cifar10_binary images are 32x32, not a multiple of "
                        "the model's total stride 64"),
], ids=["num_classes", "in_channels", "total_stride"])
def test_cifar_block_checked_against_the_model_before_any_file_is_read(
        cmd, model, message, tmp_path, capsys):
    # CIFAR-10 images are 3x32x32 in 10 classes; the data path does not
    # exist, so a command that read it would fail with another message
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "model": model, "train": {"epochs": 1, "batch_size": 2},
        "data": {"source": "cifar10_binary",
                 "path": str(tmp_path / "missing.bin")}}))
    assert main([cmd, "--config", str(cfg)]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: {message}\n"


def test_gen_data_writes_the_data_train_reads(tmp_path, capsys, monkeypatch):
    # the resolved train.seed is the default data.seed of every command
    import riformer.cli as cli
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "model": asdict(tiny_spec("affine")),
        "data": {"num_classes": 4, "samples_per_class": 2, "val_per_class": 2,
                 "resolution": 32},
        "train": {"epochs": 1, "batch_size": 8, "warmup_epochs": 1,
                  "seed": 5}}))
    seen = {}

    def record(model, train_ds, val_ds, cfg, **kwargs):
        seen.update(train=train_ds, val=val_ds, seed=cfg.seed)
        raise RuntimeError("stop after the data is built")

    monkeypatch.setattr(cli, "train", record)
    assert main(["train", "--config", str(path)]) == 3
    npz = str(tmp_path / "data.npz")
    assert main(["gen-data", "--config", str(path), "--out", npz]) == 0
    blob = np.load(npz)
    assert seen["seed"] == 5
    for split in ("train", "val"):
        np.testing.assert_array_equal(blob[f"{split}_images"],
                                      seen[split].images)
        np.testing.assert_array_equal(blob[f"{split}_labels"],
                                      seen[split].labels)
    # and --seed overrides train.seed for both
    assert main(["gen-data", "--config", str(path), "--seed", "0",
                 "--out", npz]) == 0
    assert not np.array_equal(np.load(npz)["train_images"],
                              seen["train"].images)


_JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 9),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(2 ** 62, 10 ** 400), st.sampled_from(["", "x", "s12"]),
    st.lists(st.integers(-1, 9), max_size=4),
    st.dictionaries(st.sampled_from(["depth", "bogus"]), st.integers(-1, 4),
                    max_size=2))
_STAGE = st.fixed_dictionaries({
    "depth": st.integers(0, 2), "dim": st.integers(0, 8),
    "patch_size": st.integers(1, 7), "stride": st.integers(1, 4)},
    optional={"mlp_ratio": st.floats(0.0, 4.0)})
# each block's keys, a few undefined ones among them, with values that
# mostly have the right type and lie near the edges of their ranges
_KEYS = {
    "model": {
        "preset": st.just("nano"), "mixer_kind": st.sampled_from(
            ["pooling", "affine", "identity", "mlp"]),
        "pool_size": st.integers(-1, 5), "num_classes": st.integers(0, 9),
        "layer_scale_init": st.floats(-1.0, 1.0),
        "drop_path_rate": st.floats(-0.5, 1.5),
        "input_resolution": st.sampled_from([0, 32, 48, 64]),
        "in_channels": st.integers(0, 3),
        "stages": st.lists(_STAGE, min_size=3, max_size=5), "depths": _JUNK},
    "data": {
        "source": st.sampled_from(["synthetic", "cifar10_binary", "x"]),
        "path": st.text(max_size=3), "seed": st.integers(0, 5),
        "num_classes": st.integers(0, 9),
        "samples_per_class": st.integers(0, 9),
        "val_per_class": st.integers(0, 9), "resolution": st.integers(0, 64),
        "noise_std": st.floats(0.0, 2.0), "max_shift": st.integers(0, 8),
        "stream": st.just("val")},
    "train": {
        "epochs": st.integers(0, 80), "batch_size": st.integers(0, 64),
        "lr": st.one_of(st.none(), st.floats(-0.01, 0.01)),
        "weight_decay": st.floats(-0.1, 0.1), "seed": st.integers(0, 5),
        "label_smoothing": st.floats(-0.5, 1.5), "tau": st.floats(-1.0, 5.0),
        "recipe": st.sampled_from(["ce", "hard_kd", "soft_kd", "soft_kd_mi",
                                   "mse"]),
        "init_from_teacher": st.booleans(),
        "warmup_epochs": st.integers(-2, 3), "cosine": st.booleans(),
        "teacher_ckpt": st.text(max_size=3)},
    "imitation": {
        **dict.fromkeys(["lambda1_x_batch", "lambda2_x_batch",
                         "lambda3_x_batch"], st.one_of(
            st.floats(-1.0, 300.0),
            st.sampled_from([float("nan"), float("inf"), -float("inf")]))),
        "tau": st.floats(-1.0, 5.0), "layer_count": st.integers(0, 8),
        "layers": st.one_of(st.none(), st.lists(st.integers(-1, 8),
                                                max_size=4)),
        **dict.fromkeys(["feat_epochs", "rel_epochs", "total_epochs"],
                        st.integers(-1, 80))},
    "bench": {
        "batch_size": st.integers(0, 64), "warmup_runs": st.integers(-2, 9),
        "timed_runs": st.integers(0, 9), "repeats": st.integers(0, 5),
        "bogus": _JUNK},
}


@st.composite
def _block(draw, block):
    keys = draw(st.lists(st.sampled_from(sorted(_KEYS[block])), unique=True,
                         max_size=5))
    # one value in ten is of any type
    return {key: draw(_JUNK if draw(st.integers(0, 9)) == 5
                      else _KEYS[block][key]) for key in keys}


@st.composite
def _configs(draw):
    """Whole config dicts: any blocks, rarely a misspelt one or a root that
    is not an object, and sometimes `imitation` inside `train` as well."""
    if draw(st.integers(0, 29)) == 13:
        return draw(_JUNK)
    cfg = {block: draw(_block(block)) for block in
           draw(st.lists(st.sampled_from(sorted(_KEYS)), unique=True))}
    if draw(st.integers(0, 4)) == 2:
        cfg.setdefault("train", {})["imitation"] = draw(_block("imitation"))
    if draw(st.integers(0, 29)) == 13:
        cfg["modle"] = {}
    return cfg


@settings(max_examples=400, deadline=None)
@given(cfg=_configs())
def test_random_configs_parse_or_are_rejected_in_one_line(cfg):
    # the parser only checks; no case builds a model or a dataset
    try:
        conf = parse_config(cfg)
    except ValueError as e:
        assert str(e) and "\n" not in str(e) and "\r" not in str(e)
        return
    conf.model.validate()
    conf.train.validate()
    conf.bench.validate()
    assert conf.data_given == bool(cfg.get("data"))


def test_oversized_config_is_runtime_error(tmp_path, capsys):
    # a 2**40-class head is 1 PiB of float64 draws, which numpy refuses
    # before allocating anything
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"model": {"mixer_kind": "affine",
                                          "num_classes": 2 ** 40}}))
    assert main(["bench", "--config", str(path)]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1


def test_overflowing_activations_are_runtime_error(tmp_path, capsys):
    # a first MLP weight of 3e38 sends the hidden activation past float32;
    # the kernel's output check raises, and main turns that into one line
    from riformer import build_model, save_checkpoint
    model = build_model(tiny_spec("affine"), seed=0)
    w1 = model.blocks[0][0].mlp_w1
    w1.data = np.full_like(w1.data, 3e38)
    ckpt = str(tmp_path / "huge_w1.ckpt")
    save_checkpoint(model, ckpt)
    assert main(["bench", "--ckpt", ckpt]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: non-finite values in kernel output\n"


def test_inspect_ckpt_total_params_exact(tiny_config, tmp_path, capsys):
    ckpt = str(tmp_path / "m.ckpt")
    assert main(["train", "--config", tiny_config, "--out", ckpt]) == 0
    raw = open(ckpt, "rb").read()
    hlen = int.from_bytes(raw[8:12], "little")
    header = json.loads(raw[12:12 + hlen])
    entry = header["manifest"][0]
    total = 2 ** 80 - int(np.prod(entry["shape"]))
    total += sum(int(np.prod(e["shape"])) for e in header["manifest"])
    entry["shape"] = [2 ** 40, 2 ** 40]
    new = json.dumps(header).encode()
    open(ckpt, "wb").write(raw[:8] + len(new).to_bytes(4, "little") + new
                           + raw[12 + hlen:])
    capsys.readouterr()
    assert main(["inspect-ckpt", "--ckpt", ckpt]) == 0
    assert json.loads(capsys.readouterr().out)["total_params"] == total
