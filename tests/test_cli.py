import json
import hashlib
import os
import shutil

import numpy as np
import pytest

from scanseg.cli import THREAD_VARS, main


def run(args):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A synthesized dataset plus a briefly trained checkpoint."""
    root = tmp_path_factory.mktemp("cliws")
    ds = root / "ds"
    ckpt = root / "run" / "model.ckpt"
    assert run(["synth", "--out", ds, "--count", 5, "--kappa", "0.5",
                "--seed", 3, "--resolution", "32x32"]) == 0
    assert run(["train", "--data", ds, "--steps", 3, "--lr", "1e-3",
                "--batch", 2, "--seed", 1, "--out", ckpt]) == 0
    return {"root": root, "ds": ds, "ckpt": ckpt}


def test_synth_writes_layout_and_manifest(workspace):
    ds = workspace["ds"]
    for sub in ("rgb", "x", "mask"):
        names = sorted(os.listdir(ds / sub))
        assert len(names) == 5
    manifest = json.load(open(ds / "manifest.json"))
    assert manifest["subcommand"] == "synth"
    assert manifest["seed"] == 3
    assert manifest["config"]["resolution"] == [32, 32]
    assert manifest["version"]
    assert len(manifest["artifacts"]) == 5
    assert manifest["status"] == "ok" and manifest["exit_code"] == 0


def test_train_outputs(workspace):
    ckpt = workspace["ckpt"]
    assert os.path.exists(ckpt)
    assert os.path.exists(f"{ckpt}.config.json")
    loss_lines = open(f"{ckpt}.loss.csv").read().strip().split("\n")
    assert loss_lines[0] == "step,loss,bce,iou_loss"
    assert len(loss_lines) == 4
    manifest = json.load(open(os.path.dirname(str(ckpt)) + "/manifest.json"))
    assert manifest["subcommand"] == "train"


def test_eval_outputs(workspace, tmp_path):
    out = tmp_path / "evalout"
    assert run(["eval", "--ckpt", workspace["ckpt"], "--data",
                workspace["ds"], "--out-dir", out]) == 0
    per_image = open(out / "per_image.csv").read().strip().split("\n")
    assert per_image[0] == "id,s_alpha,e_phi,f_beta_w,iou"
    assert len(per_image) == 6
    agg = open(out / "aggregate.txt").read()
    assert "s_alpha" in agg
    assert json.load(open(out / "manifest.json"))["subcommand"] == "eval"


def test_infer_roundtrip_and_determinism(workspace, tmp_path):
    from scanseg.netpbm import read_pgm
    ds, ckpt = workspace["ds"], workspace["ckpt"]
    out1 = tmp_path / "a.pgm"
    out2 = tmp_path / "b.pgm"
    args = ["infer", "--ckpt", ckpt, "--rgb", ds / "rgb" / "00000.ppm",
            "--x", ds / "x" / "00000.pgm"]
    assert run(args + ["--out", out1]) == 0
    assert run(args + ["--out", out2]) == 0
    h1 = hashlib.sha256(open(out1, "rb").read()).hexdigest()
    h2 = hashlib.sha256(open(out2, "rb").read()).hexdigest()
    assert h1 == h2
    mask = read_pgm(str(out1))
    assert mask.shape == (32, 32)


def test_infer_self_fusion_noted_in_manifest(workspace, tmp_path):
    ds, ckpt = workspace["ds"], workspace["ckpt"]
    out = tmp_path / "self.pgm"
    assert run(["infer", "--ckpt", ckpt, "--rgb", ds / "rgb" / "00001.ppm",
                "--out", out]) == 0
    manifest = json.load(open(tmp_path / "manifest.json"))
    assert manifest["config"]["self_fusion"] is True


def test_infer_resolution_mismatch_exit_1(workspace, tmp_path, capsys):
    from scanseg.netpbm import write_ppm
    big = tmp_path / "big.ppm"
    write_ppm(str(big), np.zeros((3, 64, 64)))
    rc = run(["infer", "--ckpt", workspace["ckpt"], "--rgb", big,
              "--out", tmp_path / "o.pgm"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "64x64" in err and "32x32" in err


def test_missing_checkpoint_exit_2(workspace, tmp_path):
    assert run(["eval", "--ckpt", tmp_path / "nope.ckpt",
                "--data", workspace["ds"], "--out-dir", tmp_path]) == 2


def test_corrupt_image_exit_2(workspace, tmp_path):
    bad = tmp_path / "bad.ppm"
    open(bad, "wb").write(b"P6\n2 2\n255\n\x00")
    assert run(["infer", "--ckpt", workspace["ckpt"], "--rgb", bad,
                "--out", tmp_path / "o.pgm"]) == 2


def test_infer_16bit_xmod_exit_0_truncated_exit_2(workspace, tmp_path,
                                                  capsys):
    from scanseg.netpbm import read_pgm, write_pgm
    ds = workspace["ds"]
    x16 = tmp_path / "x16.pgm"
    write_pgm(str(x16), read_pgm(str(ds / "x" / "00000.pgm")), maxval=65535)
    args = ["infer", "--ckpt", workspace["ckpt"],
            "--rgb", ds / "rgb" / "00000.ppm", "--out", tmp_path / "o.pgm"]
    assert run(args + ["--x", x16]) == 0
    capsys.readouterr()
    cut = tmp_path / "cut.pgm"
    cut.write_bytes(x16.read_bytes()[:-7])
    assert run(args + ["--x", cut]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("i/o error: payload truncated")


def test_missing_model_config_exit_2_naming_it(workspace, tmp_path, capsys):
    ckpt = tmp_path / "m.ckpt"
    shutil.copy(workspace["ckpt"], ckpt)
    assert run(["infer", "--ckpt", ckpt, "--rgb",
                workspace["ds"] / "rgb" / "00000.ppm",
                "--out", tmp_path / "o.pgm"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("i/o error: ") and f"{ckpt}.config.json" in err


def test_unexpected_exception_exit_4_with_traceback(tmp_path, capsys,
                                                    monkeypatch):
    from scanseg import cli

    def boom(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_synth", boom)
    out = tmp_path / "s"
    assert run(["synth", "--out", out, "--count", 1]) == 4
    line = "internal error: RuntimeError: boom"
    err = capsys.readouterr().err
    assert err.startswith(line + "\nTraceback (most recent call last):")
    assert err.rstrip().endswith("RuntimeError: boom")
    manifest = json.load(open(out / "manifest.json"))
    assert manifest["status"] == "error" and manifest["exit_code"] == 4
    assert manifest["error"] == line
    assert manifest["traceback"] == err[len(line) + 1:]


def test_validation_errors_exit_1(tmp_path):
    assert run(["synth", "--out", tmp_path / "x", "--count", 2,
                "--kappa", "1.5"]) == 1
    assert run(["gradcheck", "--scope", "nonsense",
                "--out-dir", tmp_path]) == 1


def test_usage_error_exit_1_with_one_line(tmp_path, capsys):
    assert run(["train", "--data", tmp_path]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "usage error" in err and "--out" in err
    with pytest.raises(SystemExit) as e:
        run(["train", "--help"])
    assert e.value.code == 0


@pytest.mark.parametrize("args", [
    ["synth", "--out", "d", "--count", "1", "--resolution", "abc"],
    ["synth", "--out", "d", "--count", "1", "--resolution", "32"],
    ["train", "--data", "d", "--out", "m.ckpt", "--depths", "2,x"],
    ["train", "--data", "d", "--out", "m.ckpt", "--channels", "16,"],
    ["scan-bench", "--lengths", "8,z"],
])
def test_malformed_list_flags_exit_1_with_one_line(args, tmp_path, capsys,
                                                   monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(args) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("usage error") and args[-2] in err
    assert os.listdir(tmp_path) == []


def test_train_mixed_resolution_dataset_exit_1(tmp_path, capsys):
    from scanseg.data import save_pair
    from scanseg.synth import SceneConfig, generate_scene
    ds = tmp_path / "mixed"
    for i, res in enumerate([(32, 32), (32, 32), (64, 64)]):
        save_pair(str(ds), generate_scene(SceneConfig(resolution=res, seed=4), i))
    assert run(["train", "--data", ds, "--steps", 1, "--out",
                tmp_path / "m.ckpt"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "2 stems at 32x32" in err and "00002 (64x64)" in err
    assert not os.path.exists(tmp_path / "m.ckpt")


def test_failed_train_writes_manifest_saying_why(tmp_path, capsys):
    from scanseg.data import save_pair
    from scanseg.synth import SceneConfig, generate_scene
    ds = tmp_path / "mixed"
    for i, res in enumerate([(32, 32), (64, 64)]):
        save_pair(str(ds), generate_scene(SceneConfig(resolution=res, seed=4), i))
    out = tmp_path / "run"
    assert run(["train", "--data", ds, "--steps", 1, "--seed", 7,
                "--out", out / "m.ckpt"]) == 1
    err = capsys.readouterr().err
    manifest = json.load(open(out / "manifest.json"))
    assert manifest["subcommand"] == "train"
    assert manifest["status"] == "error" and manifest["exit_code"] == 1
    assert manifest["error"] == err.strip()
    assert "00001 (64x64)" in manifest["error"]
    assert manifest["seed"] == 7 and manifest["artifacts"] == []
    assert os.listdir(out) == ["manifest.json"]


def test_eval_without_samples_exit_1_with_manifest(workspace, tmp_path,
                                                  capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    out = tmp_path / "out"
    assert run(["eval", "--ckpt", workspace["ckpt"], "--data", empty,
                "--out-dir", out]) == 1
    err = capsys.readouterr().err
    assert err == f"error: no complete samples found in {empty}\n"
    manifest = json.load(open(out / "manifest.json"))
    assert manifest["status"] == "error" and manifest["error"] == err.strip()


def test_eval_nan_weight_exit_3_with_manifest(workspace, tmp_path, capsys):
    # A checkpoint holding NaN does not load (exit 2, below); finite weights
    # whose products overflow give the NaN prediction here: the patch
    # embedding sums to inf, and its norm makes inf - inf.
    from scanseg.model import Model
    model = Model.from_checkpoint(str(workspace["ckpt"]))
    params = dict(model.named_parameters())
    params["encoder.embed.proj.weight"].data[...] = 1e308
    ckpt = tmp_path / "nan.ckpt"
    model.save_checkpoint(str(ckpt))
    out = tmp_path / "out"
    assert run(["eval", "--ckpt", ckpt, "--data", workspace["ds"],
                "--out-dir", out]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("numerical failure: prediction holds ")
    manifest = json.load(open(out / "manifest.json"))
    assert manifest["status"] == "error" and manifest["exit_code"] == 3
    assert manifest["error"] == err.strip()
    assert os.listdir(out) == ["manifest.json"]


def _infer_checkpoint(workspace, tmp_path, capsys, raw):
    """Exit code and stderr of ``infer`` on a checkpoint of bytes ``raw``
    with the workspace's model config."""
    ckpt = tmp_path / "bad.ckpt"
    ckpt.write_bytes(bytes(raw))
    shutil.copy(f"{workspace['ckpt']}.config.json", f"{ckpt}.config.json")
    rc = run(["infer", "--ckpt", ckpt, "--rgb",
              workspace["ds"] / "rgb" / "00000.ppm",
              "--out", tmp_path / "o.pgm"])
    return rc, capsys.readouterr().err


# The first manifest entry's name starts after the magic, the version and
# count, and its u16 length.
NAME_AT = 8 + 8 + 2


@pytest.mark.parametrize("byte, start", [
    (0xFF, "i/o error: checkpoint parameter name b'\\xff"),
    (0x0A, "i/o error: checkpoint names unknown parameter '\\n"),
])
def test_infer_checkpoint_bad_name_byte_exit_2_one_line(workspace, tmp_path,
                                                        capsys, byte, start):
    # A byte that is not UTF-8, or a newline, in a parameter name: one line
    # quoting the name, exit 2, never a traceback.
    raw = bytearray(open(workspace["ckpt"], "rb").read())
    raw[NAME_AT] = byte
    rc, err = _infer_checkpoint(workspace, tmp_path, capsys, raw)
    assert rc == 2, err
    assert err.count("\n") == 1 and err.startswith(start), err


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_infer_checkpoint_non_finite_value_exit_2(workspace, tmp_path, capsys,
                                                  value):
    # A NaN or infinite parameter is a corrupt checkpoint: exit 2 naming
    # it, not a prediction of zeros.
    from scanseg.model import Model
    model = Model.from_checkpoint(str(workspace["ckpt"]))
    params = dict(model.named_parameters())
    params["decoder.head.proj.bias"].data[...] = value
    model.save_checkpoint(str(tmp_path / "v.ckpt"))
    rc, err = _infer_checkpoint(workspace, tmp_path, capsys,
                                open(tmp_path / "v.ckpt", "rb").read())
    assert rc == 2, err
    assert err == ("i/o error: parameter 'decoder.head.proj.bias' holds 1 "
                   "NaN or infinite values\n")
    assert not os.path.exists(tmp_path / "o.pgm")


def test_eval_stem_size_mismatch_exit_1(workspace, tmp_path, capsys):
    from scanseg.data import save_pair
    from scanseg.netpbm import write_pgm
    from scanseg.synth import SceneConfig, generate_scene
    ds = tmp_path / "torn"
    save_pair(str(ds), generate_scene(SceneConfig(resolution=(32, 32)), 0))
    write_pgm(str(ds / "mask" / "00000.pgm"), np.zeros((16, 16)))
    assert run(["eval", "--ckpt", workspace["ckpt"], "--data", ds,
                "--out-dir", tmp_path / "out"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "00000 (rgb 32x32, x 32x32, mask 16x16)" in err


def test_gradcheck_scope_runs_only_that_suite(tmp_path):
    assert run(["gradcheck", "--scope", "ssm-scan", "--out-dir", tmp_path]) == 0
    report = open(tmp_path / "gradcheck_report.txt").read()
    assert "selective-scan" in report
    assert "encoder-block" not in report
    assert json.load(open(tmp_path / "manifest.json"))["subcommand"] == "gradcheck"


def test_gradcheck_negative_control_names_the_op():
    # Inject a wrong-sign backward into silu and confirm the report blames it.
    import scanseg.autodiff as ad
    from scanseg.gradcheck import run_scope
    real = ad.silu

    def sabotaged(x):
        y = real(x)
        orig = y._backward_fn
        if orig is not None:
            y._backward_fn = lambda g: tuple(-gg for gg in orig(g))
        return y

    ad.silu = sabotaged
    try:
        results = {r.name: r for r in run_scope("ops")}
    finally:
        ad.silu = real
    assert not results["silu"].passed
    assert results["matmul"].passed


def test_scan_bench_outputs_and_single_point(tmp_path):
    out = tmp_path / "bench"
    assert run(["scan-bench", "--lengths", "256,512", "--state-dim", 2,
                "--channels", 2, "--out-dir", out]) == 0
    table = open(out / "scan_bench.txt").read()
    assert "time ~ L^" in table
    csv = open(out / "scan_bench.csv").read().strip().split("\n")
    assert csv[0] == "L,N,D,impl,wall_time_s,elements_per_sec,max_rel_err"
    assert len(csv) == 5
    # The op at every shape the benchmark's workloads run, forward and
    # forward plus backward, each with the source of its B, C and delta
    # and its elements per step, both ways'.  Every call scans both ways,
    # as the model's do, and x's lead ends in its way axis.  SS2D's rows,
    # whose lead holds its 2 sequences, pass projections of x, one per
    # sequence and way; fusion's pass arrays that both ways share.
    from scanseg.bench import MODEL_SHAPES, _model_case
    shape_table = table.split("selective_scan at model shapes")[1].strip()
    assert shape_table.split("\n")[0].split()[:5] == ["lead", "L", "N",
                                                      "D", "source"]
    shape_rows = [line.split() for line in shape_table.split("\n")[2:]]
    expect = [["x".join(map(str, lead)) or "()", str(length), "4", str(d),
               source, mode, str(2 * int(np.prod(lead)) * 4 * d)]
              for lead, length, d, source in MODEL_SHAPES
              for mode in ("fwd", "fwd+bwd")]
    assert [r[:7] for r in shape_rows] == expect
    assert all(float(r[7]) > 0 for r in shape_rows)
    # The last column, alloc[MiB], is what one warm call allocates beyond
    # y and the gradients: at the first (train-32) shape, the warm
    # workspace leaves less than one (T, ..., W, N, D) block array.
    assert shape_table.split("\n")[0].split()[-1] == "alloc[MiB]"
    assert all(len(r) == 10 and 0 <= float(r[9]) < 1e3 for r in shape_rows)
    (lead, length, d, _), block = MODEL_SHAPES[0], 2**-20 * 8
    block *= min(length, 128) * 2 * int(np.prod(lead)) * 4 * d
    assert float(shape_rows[1][9]) < block, (shape_rows[1], block)
    sources = {lead: {s for ld, *_, s in MODEL_SHAPES if ld == lead}
               for lead in ((4, 2, 1), (2, 1), (1,))}
    assert sources == {(4, 2, 1): {"proj"}, (2, 1): {"proj"},
                       (1,): {"given"}}
    for lead, length, d, source in MODEL_SHAPES:
        x, a, *bcd = _model_case(lead, length, d, source, seed=0)
        assert x.shape == lead + (length, d) and lead[-1] == 1
        if source == "proj":
            # (w_B,), (w_C,), (w_delta, delta_bias) and A per sequence and
            # way, A at rank x.ndim + 1, from which traced runs read N.
            ways = lead[-2:-1] + (2,)
            assert [len(v) for v in bcd] == [1, 1, 2]
            assert [v[0].shape for v in bcd] == [ways + (d, m)
                                                 for m in (4, 4, d)]
            assert a.shape == (1,) * (len(lead) - 2) + ways + (1, d, 4)
        else:
            assert [v.shape for v in bcd] == [lead + (length, m)
                                              for m in (4, 4, d)]
            assert a.shape == (1, length, d, 4)

    out2 = tmp_path / "bench1"
    assert run(["scan-bench", "--lengths", "256", "--out-dir", out2]) == 0
    assert "time ~ L^" not in open(out2 / "scan_bench.txt").read()


def test_fit_exponent_needs_two_distinct_lengths():
    # Repeated lengths give no slope: no exponent and no fit warning.
    import warnings
    from scanseg.bench import BenchRow, fit_exponent

    def rows(*points):
        return [BenchRow(L=length, N=2, D=2, impl="op", wall_time=t,
                         elements_per_sec=1.0, max_rel_err=0.0)
                for length, t in points]

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert fit_exponent(rows((64, 1e-3), (64, 2e-3)), "op") is None
        assert fit_exponent(rows((64, 1e-3)), "op") is None
        slope = fit_exponent(rows((64, 1e-3), (64, 1e-3), (256, 4e-3)), "op")
    assert abs(slope - 1.0) < 1e-12
    assert fit_exponent(rows((64, 1e-3), (256, 4e-3)), "sequential") is None


def test_chunked_bench_error_column_small(tmp_path):
    # The op row's error column, against the oracle on the same inputs.
    out = tmp_path / "bench_err"
    assert run(["scan-bench", "--lengths", "512", "--out-dir", out]) == 0
    rows = open(out / "scan_bench.csv").read().strip().split("\n")[1:]
    op = [r.split(",") for r in rows if r.split(",")[3] == "op"]
    assert len(op) == 1 and float(op[0][-1]) < 1e-10


def test_threads_flag_accepted(tmp_path):
    assert run(["--threads", "1", "synth", "--out", tmp_path / "t",
                "--count", 1, "--seed", 0]) == 0


def test_threads_flag_both_forms_set_env_and_manifest(tmp_path, monkeypatch):
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                   "MKL_NUM_THREADS")
    for i, flag in enumerate((["--threads=3"], ["--threads", "3"])):
        for var in thread_vars:
            monkeypatch.delenv(var, raising=False)
        out = tmp_path / f"t{i}"
        assert run(flag + ["synth", "--out", out, "--count", 1,
                           "--resolution", "32x32"]) == 0
        assert [os.environ.get(var) for var in thread_vars] == ["3"] * 3
        manifest = json.load(open(out / "manifest.json"))
        assert manifest["config"]["threads"] == 3
        # The same fields and formats as perfbench's environment header.
        assert manifest["threads"] == {var: "3" for var in thread_vars}
        assert manifest["numpy"] == np.__version__
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert manifest["blas"] == f"{blas['name']} {blas['version']}"


@pytest.mark.parametrize("value", ["-1", "0"])
def test_threads_non_positive_exit_1(value, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for var in THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    assert run(["--threads", value, "synth", "--out", "e", "--count", 1,
                "--resolution", "16x16"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("usage error") and "--threads" in err
    assert [os.environ.get(var) for var in THREAD_VARS] == [None] * 3
    assert os.listdir(tmp_path) == []


def _drop_depths(cfg):
    del cfg["stages"]["depths"]
    return json.dumps(cfg)


@pytest.mark.parametrize("edit, code, start", [
    (lambda cfg: json.dumps(cfg)[:-5], 2,
     "i/o error: malformed model config {path}: JSONDecodeError"),
    (_drop_depths, 2, "i/o error: malformed model config {path}: KeyError"),
    (lambda cfg: json.dumps(dict(cfg, state="x")), 2,
     "i/o error: malformed model config {path}: TypeError"),
    # A value the config itself rejects stays a validation failure.
    (lambda cfg: json.dumps(dict(cfg, task="x")), 1,
     "error: task must be one of"),
], ids=["invalid-json", "missing-depths", "string-state", "bad-task"])
def test_malformed_model_config_one_line(workspace, tmp_path, capsys, edit,
                                         code, start):
    ckpt = tmp_path / "m.ckpt"
    shutil.copy(workspace["ckpt"], ckpt)
    cfg = json.load(open(f"{workspace['ckpt']}.config.json"))
    with open(f"{ckpt}.config.json", "w") as fh:
        fh.write(edit(cfg))
    rgb = workspace["ds"] / "rgb" / "00000.ppm"
    for args in (["eval", "--ckpt", ckpt, "--data", workspace["ds"],
                  "--out-dir", tmp_path / "ev"],
                 ["infer", "--ckpt", ckpt, "--rgb", rgb,
                  "--out", tmp_path / "o.pgm"]):
        assert run(args) == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(start.format(path=f"{ckpt}.config.json"))


@pytest.mark.parametrize("key, value, named", [
    ("resolution", [32], "resolution must be two positive ints"),
    ("state", 2.5, "state must be a positive int, got 2.5"),
    ("num_classes", True, "num_classes must be a positive int, got True"),
], ids=["one-extent-resolution", "float-state", "bool-num-classes"])
def test_model_config_bad_value_exit_1_naming_field(workspace, tmp_path, capsys,
                                                    key, value, named):
    ckpt = tmp_path / "m.ckpt"
    shutil.copy(workspace["ckpt"], ckpt)
    cfg = json.load(open(f"{workspace['ckpt']}.config.json"))
    with open(f"{ckpt}.config.json", "w") as fh:
        json.dump(dict(cfg, **{key: value}), fh)
    assert run(["infer", "--ckpt", ckpt, "--rgb",
                workspace["ds"] / "rgb" / "00000.ppm",
                "--out", tmp_path / "o.pgm"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"error: {named}")


def test_semantic_task_end_to_end(tmp_path):
    ds = tmp_path / "sem"
    ckpt = tmp_path / "sem.ckpt"
    assert run(["synth", "--out", ds, "--count", 4, "--kappa", "0.3",
                "--seed", 5, "--resolution", "32x32"]) == 0
    assert run(["train", "--data", ds, "--task", "semantic",
                "--num-classes", 2, "--steps", 2, "--lr", "1e-3",
                "--batch", 2, "--seed", 2, "--out", ckpt]) == 0
    lines = open(f"{ckpt}.loss.csv").read().strip().split("\n")
    assert lines[0] == "step,loss,ce"
    out = tmp_path / "sem_eval"
    assert run(["eval", "--ckpt", ckpt, "--data", ds, "--out-dir", out]) == 0
    agg = open(out / "aggregate.txt").read()
    assert "miou" in agg and "macc" in agg
    pred = tmp_path / "sem_pred.pgm"
    assert run(["infer", "--ckpt", ckpt, "--rgb", ds / "rgb" / "00000.ppm",
                "--x", ds / "x" / "00000.pgm", "--out", pred]) == 0


def _one_error_line_and_manifest(capsys, out_dir, start):
    """The failed command printed one line and left only its manifest."""
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(start), err
    manifest = json.load(open(out_dir / "manifest.json"))
    assert manifest["status"] == "error" and manifest["exit_code"] == 1
    assert manifest["error"] == err.strip()
    assert os.listdir(out_dir) == ["manifest.json"]


def test_semantic_one_class_exit_1_with_manifest(tmp_path, capsys):
    ds = tmp_path / "d"
    assert run(["synth", "--out", ds, "--count", 2,
                "--resolution", "32x32"]) == 0
    capsys.readouterr()
    out = tmp_path / "ck"
    assert run(["train", "--data", ds, "--task", "semantic", "--steps", 1,
                "--batch", 2, "--out", out / "m.ckpt"]) == 1
    _one_error_line_and_manifest(
        capsys, out, "error: the semantic task needs num_classes >= 2, got 1")


def test_saliency_several_classes_exit_1_with_manifest(tmp_path, capsys,
                                                      monkeypatch):
    from scanseg.model import Model
    ds = tmp_path / "d"
    assert run(["synth", "--out", ds, "--count", 2,
                "--resolution", "32x32"]) == 0
    capsys.readouterr()
    # The config is rejected before any model is built.
    monkeypatch.setattr(Model, "__init__",
                        lambda *a, **k: pytest.fail("model built"))
    out = tmp_path / "ck"
    assert run(["train", "--data", ds, "--num-classes", 2, "--steps", 1,
                "--batch", 2, "--out", out / "m.ckpt"]) == 1
    _one_error_line_and_manifest(
        capsys, out, "error: the saliency task needs num_classes == 1, got 2")


@pytest.mark.parametrize("flags, start", [
    (["--lengths", "0"], "error: L must be a positive int, got 0"),
    (["--lengths", "-5"], "error: L must be a positive int, got -5"),
    (["--lengths", "256,0"], "error: L must be a positive int, got 0"),
    (["--channels", "0"], "error: D must be a positive int, got 0"),
    (["--state-dim", "0"], "error: N must be a positive int, got 0"),
], ids=["zero-length", "negative-length", "one-zero-length", "zero-channels",
        "zero-state-dim"])
def test_scan_bench_non_positive_size_exit_1(tmp_path, capsys, flags, start):
    out = tmp_path / "bench"
    assert run(["scan-bench", "--lengths", "256", "--out-dir", out]
               + flags) == 1
    _one_error_line_and_manifest(capsys, out, start)


@pytest.mark.parametrize("flags, start", [
    (["--count", "-1"], "error: count must be a positive int, got -1"),
    (["--count", "0"], "error: count must be a positive int, got 0"),
    (["--noise", "nan"], "error: noise_sigma must be finite"),
    (["--xmod-strength", "nan"], "error: xmod_strength must be finite"),
    (["--occluder-density", "nan"], "error: occluder_density must be finite"),
    (["--noise", "inf"], "error: noise_sigma must be finite"),
], ids=["negative-count", "zero-count", "nan-noise", "nan-xmod-strength",
        "nan-occluder-density", "inf-noise"])
def test_synth_bad_numeric_flag_exit_1(tmp_path, capsys, flags, start):
    out = tmp_path / "d"
    args = ["synth", "--out", out, "--count", 1, "--resolution", "16x16"]
    assert run(args + flags) == 1
    _one_error_line_and_manifest(capsys, out, start)


@pytest.mark.parametrize("flags", [
    ["--lr", "nan"], ["--lr", "inf"], ["--wd", "nan"],
], ids=["nan-lr", "inf-lr", "nan-wd"])
def test_train_non_finite_flag_exit_1(workspace, tmp_path, capsys, flags):
    out = tmp_path / "run"
    assert run(["train", "--data", workspace["ds"], "--steps", 1,
                "--batch", 2, "--out", out / "m.ckpt"] + flags) == 1
    _one_error_line_and_manifest(capsys, out, "error: bad hyperparameter")
