"""Command-line interface: exit codes, help coverage, end-to-end flows."""
import csv
import json
import os

import numpy as np
import pytest

from riformer.cli import build_parser, main
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
        "model": tiny_spec("affine").to_dict(),
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


@pytest.mark.parametrize("threads", ["0", "x"])
def test_bad_thread_variable_is_runtime_error(threads, capsys, monkeypatch):
    monkeypatch.setenv("RIFORMER_THREADS", threads)
    assert main(["bench"]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1
    assert "RIFORMER_THREADS" in out.err


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


@pytest.mark.parametrize("form", ["probes0", "train_as_deploy"])
def test_verify_vacuous_or_unfused_is_runtime_error(tiny_config, tmp_path,
                                                    capsys, form):
    train_ckpt = str(tmp_path / "train.ckpt")
    deploy_ckpt = str(tmp_path / "deploy.ckpt")
    main(["train", "--config", tiny_config, "--out", train_ckpt])
    main(["fuse", "--in", train_ckpt, "--out", deploy_ckpt])
    capsys.readouterr()
    argv = (["--deploy", deploy_ckpt, "--probes", "0"] if form == "probes0"
            else ["--deploy", train_ckpt, "--probes", "1"])
    assert main(["verify", "--train", train_ckpt] + argv) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1


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
    out = str(tmp_path / "data.npz")
    assert main(["gen-data", "--config", tiny_config, "--out", out]) == 0
    blob = np.load(out)
    assert blob["train_images"].shape == (8, 3, 32, 32)
    assert blob["val_images"].shape == (8, 3, 32, 32)


def test_bench_json_report(tiny_config, tmp_path, capsys):
    cfg = json.loads(open(tiny_config).read())
    cfg["bench"] = {"batch_size": 2, "resolution": 32, "warmup_runs": 1,
                    "timed_runs": 2, "repeats": 3}
    path = tmp_path / "bench_cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["bench", "--config", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["images_per_second"] > 0
    assert "raw_timings" not in report
    assert report["blas"].startswith("OpenBLAS ")  # numpy's bundled BLAS


def test_bench_zero_batch_is_runtime_error(tiny_config, capsys):
    assert main(["bench", "--config", tiny_config, "--batch", "0"]) == 3
    err = capsys.readouterr().err
    assert "error: batch_size must be >= 1" in err


@pytest.mark.parametrize("cfg", [
    {"train": {"bogus": 3}},
    {"model": {"depths": 2}},
    {"model": {"stages": [{"depth": 1, "dims": 4}] * 4}},
    {"imitation": {"bogus": 1}},
    {"data": {"bogus": 1}},
    {"bench": {"bogus": 1}},
    {"model": {"\n": 1}},
    {"train": {"a\r\nb": 1}},
], ids=["train", "model", "stage", "imitation", "data", "bench",
        "model_newline", "train_crlf"])
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
    assert any(repr(key) in out.err
               for key in ("bogus", "depths", "dims", "\n", "a\r\nb"))


def test_config_teacher_ckpt_is_used(tiny_config, tmp_path, capsys):
    # train.teacher_ckpt names the teacher; it is not a TrainConfig field
    teacher = str(tmp_path / "teacher.ckpt")
    assert main(["train", "--config", tiny_config, "--out", teacher]) == 0
    cfg = json.loads(open(tiny_config).read())
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
], ids=["train_block", "train_block_breakdown", "data_block", "bench_block",
        "model_block", "str_for_int", "bool_for_int", "imitation_block",
        "str_for_model_int", "stage_missing_keys", "float_for_int",
        "resolution_off_stride"])
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
    cfg = json.loads(open(tiny_config).read())
    cfg["train"].update(lr=None, weight_decay=0, label_smoothing=0)
    cfg["model"]["stages"][0]["mlp_ratio"] = 4
    path = tmp_path / "ok.json"
    path.write_text(json.dumps(cfg))
    assert main(["train", "--config", str(path)]) == 0


def test_shipped_presets_load():
    from riformer.cli import _datasets, _load_config, _model_spec
    from riformer.train import TrainConfig
    presets = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
    names = sorted(os.listdir(presets))
    assert names
    for name in names:
        cfg = _load_config(os.path.join(presets, name))
        _model_spec(cfg)
        block = dict(cfg["train"], imitation=cfg.get("imitation"))
        block.pop("teacher_ckpt", None)
        TrainConfig.from_dict(block)
        _datasets(cfg, 0)


def test_breakdown_csv(tiny_config, tmp_path, capsys, monkeypatch):
    from riformer import bench, build_model, op_count
    cfg = json.loads(open(tiny_config).read())
    cfg["bench"] = {"batch_size": 2, "resolution": 32, "warmup_runs": 1,
                    "timed_runs": 2, "repeats": 3}
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


def _huge_mlp_ratio_model() -> dict:
    model = tiny_spec().to_dict()
    model["stages"][0]["mlp_ratio"] = 1e308  # an MLP width past float range
    return model


def _patch_below_stride_model() -> dict:
    model = tiny_spec().to_dict()
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
    ("bench", {"model": _huge_mlp_ratio_model()}, "mlp_ratio"),
    ("bench", {"model": _patch_below_stride_model()}, "patch_size 1, stride 4"),
    ("bench", {"model": {"preset": "s12", "mixer_kind": "affine"}}, "preset"),
    ("bench", {"model": {"preset": 7}}, "preset"),
    ("gen-data", {"data": {"stream": "val"}}, "stream"),
    ("gen-data", {"data": {"source": "imagenet"}}, "data.source"),
    ("gen-data", {"data": {"source": 3}}, "data.source"),
    ("bench", [{"model": {}}], "config root"),
], ids=["teacher_ckpt_int", "teacher_ckpt_list", "cifar_unknown_key",
        "cifar_missing_path", "cifar_int_path", "layer_scale_nan",
        "layer_scale_inf", "mlp_ratio_huge", "patch_below_stride",
        "preset_unknown", "preset_int", "data_stream", "source_unknown",
        "source_int", "root_not_object"])
def test_bad_config_value_named_before_any_file_is_read(cmd, cfg, key,
                                                        tmp_path, capsys,
                                                        monkeypatch):
    import riformer.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("a file was read before the config was checked")

    monkeypatch.setattr(cli, "load_checkpoint", never)
    monkeypatch.setattr(cli, "load_cifar10_binary", never)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main([cmd, "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1
    assert key in out.err


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
    # layer scale 1e20 makes the next norm's float32 squares overflow; the
    # norm must raise instead of returning its beta
    path = tmp_path / "huge_scale.json"
    path.write_text(json.dumps({"model": {"mixer_kind": "affine",
                                          "layer_scale_init": 1e20}}))
    assert main(["bench", "--config", str(path)]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1
    assert "non-finite" in out.err


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
