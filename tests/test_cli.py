import json
import hashlib
import os
import shutil

import numpy as np
import pytest

from scanseg.cli import main


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

    out2 = tmp_path / "bench1"
    assert run(["scan-bench", "--lengths", "256", "--out-dir", out2]) == 0
    assert "time ~ L^" not in open(out2 / "scan_bench.txt").read()


def test_chunked_bench_error_column_small(tmp_path):
    out = tmp_path / "bench_err"
    assert run(["scan-bench", "--lengths", "512", "--impls", "chunked",
                "--chunk", 32, "--out-dir", out]) == 0
    row = open(out / "scan_bench.csv").read().strip().split("\n")[1]
    assert float(row.split(",")[-1]) < 1e-10


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
