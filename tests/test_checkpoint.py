"""Checkpoint format: bit-exact round trips and corruption handling."""
import contextlib
import hashlib
import io
import json
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from riformer import (CheckpointError, ModelSpec, build_model,
                      load_checkpoint, read_header, save_checkpoint,
                      switch_to_deploy)
from riformer.checkpoint import MAGIC
from helpers import tiny_spec


def test_round_trip_bit_exact(tmp_path):
    model = build_model(tiny_spec("affine"), seed=4)
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(model, path, meta={"seed": 4})
    loaded, meta = load_checkpoint(path)
    assert meta == {"seed": 4}
    orig = dict(model.named_parameters())
    for name, p in loaded.named_parameters():
        assert p.data.tobytes() == orig[name].data.tobytes(), name


def test_deploy_round_trip(tmp_path):
    deploy = switch_to_deploy(build_model(tiny_spec("affine"), seed=0))
    path = str(tmp_path / "d.ckpt")
    save_checkpoint(deploy, path)
    loaded, _ = load_checkpoint(path)
    assert loaded.deploy
    assert loaded.blocks[0][0].affine_s is None
    orig = dict(deploy.named_parameters())
    for name, p in loaded.named_parameters():
        assert np.array_equal(p.data, orig[name].data)


def test_loaded_deploy_weights_require_no_gradient(tmp_path):
    # as switch_to_deploy builds them; a train checkpoint's parameters
    # still do, and neither flag is in the bytes
    model = build_model(tiny_spec("affine"), seed=0)
    for m in (model, switch_to_deploy(model)):
        path = tmp_path / "m.ckpt"
        save_checkpoint(m, str(path))
        loaded, _ = load_checkpoint(str(path))
        assert {p.requires_grad for _, p in loaded.named_parameters()} \
            == {not m.deploy}
        again = tmp_path / "again.ckpt"
        save_checkpoint(loaded, str(again))
        assert again.read_bytes() == path.read_bytes()


# sha256 of the saved nano affine model at seed 0, without meta, in train
# and deploy form: the header's JSON and the payload are both pinned
NANO_SHA256 = {
    "train": "e2a3b7aa49dfc7fc04845c2ac379b70985d40ff79ca75f00f4319cf3f7bff87a",
    "deploy": "9fdad4a77c5e495eeb17c5852a20076ea3e4d1a7dac682c90f8b7b4493baa720",
}


def test_nano_checkpoint_bytes_are_pinned(tmp_path):
    model = build_model(ModelSpec.nano("affine"), seed=0)
    for form, m in (("train", model), ("deploy", switch_to_deploy(model))):
        path = tmp_path / f"{form}.ckpt"
        save_checkpoint(m, str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() \
            == NANO_SHA256[form], form


def test_save_is_deterministic(tmp_path):
    model = build_model(tiny_spec("pooling"), seed=1)
    p1, p2 = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
    save_checkpoint(model, p1)
    save_checkpoint(model, p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 64)
    with pytest.raises(CheckpointError):
        read_header(str(path))


def test_corrupt_header_rejected(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(MAGIC + struct.pack("<I", 8) + b"notjson!")
    with pytest.raises(CheckpointError):
        read_header(str(path))


def _rewrite_header(path, mutate):
    raw = open(path, "rb").read()
    (hlen,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12:12 + hlen])
    mutate(header)
    new = json.dumps(header).encode()
    with open(path, "wb") as f:
        f.write(raw[:8] + struct.pack("<I", len(new)) + new + raw[12 + hlen:])


def test_edited_manifest_shape_rejected(tmp_path):
    model = build_model(tiny_spec("affine"), seed=0)
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(model, path)
    _rewrite_header(path, lambda h: h["manifest"][0].update(shape=[1, 2, 3]))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_missing_tensor_rejected(tmp_path):
    model = build_model(tiny_spec("affine"), seed=0)
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(model, path)
    _rewrite_header(path, lambda h: h["manifest"].pop())
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_overlapping_offsets_rejected(tmp_path):
    model = build_model(tiny_spec("affine"), seed=0)
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(model, path)
    _rewrite_header(path, lambda h: h["manifest"][1].update(
        offset=h["manifest"][0]["offset"]))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_out_of_bounds_offset_rejected(tmp_path):
    model = build_model(tiny_spec("affine"), seed=0)
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(model, path)
    _rewrite_header(path, lambda h: h["manifest"][-1].update(offset=10 ** 9))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_flipped_payload_byte_loads_but_differs(tmp_path):
    # no checksum by design: a payload flip loads fine and is caught
    # functionally (here: the weights simply differ)
    model = build_model(tiny_spec("affine"), seed=0)
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(model, path)
    raw = bytearray(open(path, "rb").read())
    (hlen,) = struct.unpack("<I", raw[8:12])
    flip_at = 12 + hlen + 100
    raw[flip_at] ^= 0x01
    open(path, "wb").write(bytes(raw))
    try:
        loaded, _ = load_checkpoint(path)
    except Exception as e:  # a flip can produce a non-finite float
        pytest.skip(f"flip produced invalid float: {e}")
    orig = dict(model.named_parameters())
    same = all(np.array_equal(p.data, orig[n].data)
               for n, p in loaded.named_parameters())
    assert not same


def test_truncated_header_rejected(tmp_path):
    model = build_model(tiny_spec("affine"), seed=0)
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(model, path)
    raw = open(path, "rb").read()
    (hlen,) = struct.unpack("<I", raw[8:12])
    cut = str(tmp_path / "cut.ckpt")
    for n in range(len(MAGIC) + 4 + hlen):
        open(cut, "wb").write(raw[:n])
        with pytest.raises(CheckpointError):
            read_header(cut)
        with pytest.raises(CheckpointError):
            load_checkpoint(cut)


def _old_deploy_layout(model, path, drop=(".mixer.",)):
    """Write `model` (train form, affine) as a deploy checkpoint of an old
    layout: by default the one that kept both layer scales next to the fused
    norm; with ".layer_scale_1" in `drop`, the one that kept layer_scale_2."""
    save_checkpoint(model, path)

    def mutate(h):
        h["deploy"] = True
        h["manifest"] = [dict(e, name=e["name"].replace(".norm1.",
                                                        ".norm_reparam."))
                         for e in h["manifest"]
                         if not any(d in e["name"] for d in drop)]
    _rewrite_header(path, mutate)


def test_old_deploy_layout_rejected(tmp_path, capsys):
    from riformer.cli import main
    path = str(tmp_path / "old.ckpt")
    _old_deploy_layout(build_model(tiny_spec("affine"), seed=0), path)
    for read in (read_header, load_checkpoint):
        with pytest.raises(CheckpointError, match="layer_scale_1"):
            read(path)
    for argv in (["inspect-ckpt", "--ckpt", path],
                 ["dump-affine", "--ckpt", path]):
        assert main(argv) == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: ") and out.err.count("\n") == 1
        assert "re-fuse" in out.err


def test_old_deploy_layout_with_layer_scale_2_rejected(tmp_path, capsys):
    # the layout that folded layer_scale_1 into the norm but kept
    # layer_scale_2 next to the MLP
    from riformer.cli import main
    model = build_model(tiny_spec("affine"), seed=0)
    train = str(tmp_path / "train.ckpt")
    save_checkpoint(model, train)
    path = str(tmp_path / "old.ckpt")
    _old_deploy_layout(model, path, drop=(".mixer.", ".layer_scale_1"))
    raw = open(path, "rb").read()
    (hlen,) = struct.unpack("<I", raw[8:12])
    names = [e["name"] for e in json.loads(raw[12:12 + hlen])["manifest"]]
    assert any(n.endswith(".layer_scale_2") for n in names)
    assert not any(n.endswith(".layer_scale_1") for n in names)
    for read in (read_header, load_checkpoint):
        with pytest.raises(CheckpointError,
                           match="old deploy layout with layer_scale_2; "
                                 "re-fuse it from its train checkpoint"):
            read(path)
    for argv in (["inspect-ckpt", "--ckpt", path],
                 ["verify", "--train", train, "--deploy", path,
                  "--probes", "1"]):
        assert main(argv) == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: ") and out.err.count("\n") == 1
        assert "re-fuse" in out.err


def _legacy_drop_path_checkpoint(tmp_path, rate):
    # headers written while the spec had stochastic depth echo its rate
    model = build_model(tiny_spec("affine"), seed=0)
    path = str(tmp_path / "legacy.ckpt")
    save_checkpoint(model, path, meta={"seed": 0})
    _rewrite_header(path, lambda h: h["spec"].update(drop_path_rate=rate))
    return model, path


def test_legacy_zero_drop_path_rate_loads(tmp_path, capsys):
    from riformer.cli import main
    model, path = _legacy_drop_path_checkpoint(tmp_path, 0.0)
    loaded, meta = load_checkpoint(path)
    assert meta == {"seed": 0}
    assert loaded.spec == model.spec
    orig = dict(model.named_parameters())
    for name, p in loaded.named_parameters():
        assert p.data.tobytes() == orig[name].data.tobytes(), name
    assert main(["inspect-ckpt", "--ckpt", path]) == 0
    assert json.loads(capsys.readouterr().out)["mixer_kind"] == "affine"
    deploy = str(tmp_path / "deploy.ckpt")
    assert main(["fuse", "--in", path, "--out", deploy]) == 0
    assert main(["verify", "--train", path, "--deploy", deploy,
                 "--probes", "2"]) == 0


def test_read_header_fills_spec_defaults(tmp_path, capsys):
    # inspect-ckpt reads the checked header, so a spec echo that leaves a
    # field to its default reports the default
    from riformer.cli import main
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(build_model(tiny_spec("identity"), seed=0), path)
    _rewrite_header(path, lambda h: h["spec"].pop("mixer_kind"))
    assert read_header(path)["spec"]["mixer_kind"] == "identity"
    assert main(["inspect-ckpt", "--ckpt", path]) == 0
    assert json.loads(capsys.readouterr().out)["mixer_kind"] == "identity"


@pytest.mark.parametrize("rate", [0.1, "x"])
def test_legacy_nonzero_drop_path_rate_rejected(tmp_path, capsys, rate):
    from riformer.cli import main
    _, path = _legacy_drop_path_checkpoint(tmp_path, rate)
    for read in (read_header, load_checkpoint):
        with pytest.raises(CheckpointError, match="drop_path_rate"):
            read(path)
    for argv in (["inspect-ckpt", "--ckpt", path],
                 ["dump-affine", "--ckpt", path]):
        assert main(argv) == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: ") and out.err.count("\n") == 1
        assert "drop_path_rate" in out.err


@pytest.mark.parametrize("mutate", [
    lambda h: h.update(manifest=[1]),
    lambda h: h.update(manifest="x"),
    lambda h: h.update(spec=[]),
    lambda h: h["manifest"][0].update(shape=5),
    lambda h: h["manifest"][0].update(offset="0"),
    lambda h: h["manifest"][0].update(name=None),
    lambda h: h["manifest"][0].pop("offset"),
    lambda h: h.update(deploy=1),
    lambda h: h.update(meta=[]),
    lambda h: h.update(extra=0),
    lambda h: h["spec"].update(mixer_kind="pooling", deploy=True),
    lambda h: h.update(deploy=True, spec=dict(h["spec"],
                                              mixer_kind="pooling")),
    # keys with line breaks, named quoted on the one line
    lambda h: h.update({"\n": 0}),
    lambda h: h["spec"].update({"\n": 0}),
    lambda h: h["spec"]["stages"][0].update({"a\nb": 0}),
    lambda h: h["manifest"][0].update({"a\r\nb": 0}),
    # an MLP width past float range
    lambda h: h["spec"]["stages"][0].update(mlp_ratio=1e308),
], ids=["manifest_list_of_int", "manifest_str", "spec_list", "shape_int",
        "offset_str", "name_null", "offset_missing", "deploy_int",
        "meta_list", "unknown_key", "spec_unknown_key", "deploy_pooling",
        "newline_key", "spec_newline_key", "stage_newline_key",
        "entry_crlf_key", "stage_huge_mlp_ratio"])
def test_ill_typed_header_rejected(tmp_path, capsys, mutate):
    from riformer.cli import main
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(build_model(tiny_spec("affine"), seed=0), path)
    _rewrite_header(path, mutate)
    for read in (read_header, load_checkpoint):
        with pytest.raises(CheckpointError):
            read(path)
    for argv in (["inspect-ckpt", "--ckpt", path, "--manifest"],
                 ["dump-affine", "--ckpt", path]):
        assert main(argv) == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: ") and out.err.count("\n") == 1


_json = st.recursive(
    st.none() | st.booleans() | st.integers(-2 ** 40, 2 ** 40)
    | st.floats() | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=6)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_header_loads_or_fails_cleanly(tmp_path, data):
    from riformer.cli import main
    path = str(tmp_path / "fuzz.ckpt")
    save_checkpoint(build_model(tiny_spec("affine"), seed=0), path,
                    meta={"seed": 0})
    n = len(read_header(path)["manifest"])
    # replace or drop a header value, or a field of one manifest entry
    where = data.draw(st.sampled_from(
        ["spec", "deploy", "meta", "manifest", "entry", "name", "shape",
         "offset"]))
    drop = data.draw(st.booleans())
    value = data.draw(_json)
    index = data.draw(st.integers(0, n - 1))

    def mutate(h):
        if where == "entry":
            h["manifest"][index] = value
            return
        target = h if where in h else h["manifest"][index]
        if drop:
            del target[where]
        else:
            target[where] = value
    _rewrite_header(path, mutate)
    raw = open(path, "rb").read()
    (hlen,) = struct.unpack("<I", raw[8:12])
    if data.draw(st.booleans()):  # and cut it short inside the header
        open(path, "wb").write(raw[:data.draw(st.integers(0, 12 + hlen))])
    try:
        load_checkpoint(path)
    except CheckpointError:
        pass
    for argv in (["inspect-ckpt", "--ckpt", path, "--manifest"],
                 ["dump-affine", "--ckpt", path]):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 3), err.getvalue()
        assert err.getvalue().count("\n") == (code == 3), err.getvalue()


def test_oversized_num_classes_header_fails_without_allocating(tmp_path,
                                                               capsys):
    # the spec would need a 2**40-row head; the manifest says 4 rows
    from riformer.cli import main
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(build_model(tiny_spec("affine"), seed=0), path)
    _rewrite_header(path, lambda h: h["spec"].update(num_classes=2 ** 40))
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointError, match="head.weight"):
            load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2 ** 20
    assert main(["dump-affine", "--ckpt", path]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1


def test_huge_depth_header_fails_within_the_manifest(tmp_path, monkeypatch):
    import riformer.models as models
    draws = []
    real = models.param_layout

    def spy(spec, deploy=False):
        for entry in real(spec, deploy):
            draws.append(entry[0])
            yield entry

    monkeypatch.setattr(models, "param_layout", spy)
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(build_model(tiny_spec("affine"), seed=0), path)
    n = len(read_header(path)["manifest"])
    _rewrite_header(path,
                    lambda h: h["spec"]["stages"][0].update(depth=10 ** 9))
    with pytest.raises(CheckpointError, match="stage.0.block.1"):
        load_checkpoint(path)
    assert 0 < len(draws) <= n + 1


def test_reordered_manifest_rejected(tmp_path):
    # every saved manifest is in layout order; a hand-made permutation is not
    model = build_model(tiny_spec("affine"), seed=0)
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(model, path)
    _rewrite_header(path, lambda h: h["manifest"].reverse())
    with pytest.raises(CheckpointError, match="manifest entry 0"):
        load_checkpoint(path)


def test_non_finite_payload_rejected(tmp_path):
    model = build_model(tiny_spec("affine"), seed=0)
    model.head_b.data[0] = np.inf  # bypasses the Tensor constructor's check
    path = str(tmp_path / "m.ckpt")
    save_checkpoint(model, path)
    with pytest.raises(CheckpointError, match="head.bias"):
        load_checkpoint(path)
