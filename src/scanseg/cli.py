"""Command line: synth, train, eval, infer, gradcheck, scan-bench.

Every run writes exactly one JSON manifest next to its outputs recording
the subcommand, the resolved configuration, the seed, the artifact paths,
the wall time, the package version, and the numpy version, BLAS library
and thread environment it ran with.  Exit codes: 0 success,
1 validation failure (usage errors included), 2 I/O error, 3 numerical
failure, 4 internal error (any other exception; its traceback goes to
stderr and the manifest).

Heavy imports happen inside the command handlers so that ``--threads``,
applied after parsing, can cap BLAS pools before numpy loads.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_NUMERIC = 3
EXIT_INTERNAL = 4

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class _UsageError(Exception):
    """A command-line usage error; reported as a validation failure."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _clean_config(config: dict) -> dict:
    out = {}
    for key, value in config.items():
        if key in ("func", "command"):
            continue
        if isinstance(value, tuple):  # parsed list flags
            value = list(value)
        out[key] = value if isinstance(
            value, (str, int, float, bool, type(None), list)) else str(value)
    return out


def _write_manifest(out_dir: str, subcommand: str, config: dict, seed,
                    artifacts: list[str], wall_time: float,
                    exit_code: int = 0, error: str | None = None,
                    trace: str | None = None) -> str:
    import numpy as np

    from . import __version__
    try:  # mode= arrived in numpy 1.25; the package allows 1.24
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:
        blas = {}
    manifest = {
        "subcommand": subcommand,
        "config": _clean_config(config),
        "seed": seed,
        "artifacts": sorted(artifacts),
        "wall_time_s": wall_time,
        "version": __version__,
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "status": "ok" if exit_code == EXIT_OK else "error",
        "exit_code": exit_code,
    }
    if error is not None:
        manifest["error"] = error
    if trace is not None:
        manifest["traceback"] = trace
    os.makedirs(out_dir or ".", exist_ok=True)
    path = os.path.join(out_dir or ".", "manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return path


def resolution(text: str) -> tuple[int, int]:
    """``HxW`` flag value; argparse names this type in its error message."""
    h, _, w = text.partition("x")
    return (int(h), int(w))


def positive_int(text: str) -> int:
    """Integer flag value of at least 1."""
    if int(text) < 1:
        raise ValueError(text)
    return int(text)


def int_list(text: str) -> tuple[int, ...]:
    """Comma-separated integer flag value such as ``2,2``."""
    return tuple(int(v) for v in text.split(","))


# ------------------------------------------------------------------ commands

def cmd_synth(args) -> int:
    from .blocks import check_extent
    from .data import save_pair
    from .synth import SceneConfig, generate_scene
    t0 = time.perf_counter()
    check_extent("count", args.count)
    cfg = SceneConfig(resolution=args.resolution,
                      kappa=args.kappa, xmod_strength=args.xmod_strength,
                      occluder_density=args.occluder_density,
                      noise_sigma=args.noise, seed=args.seed)
    artifacts = []
    for i in range(args.count):
        pair = generate_scene(cfg, i)
        save_pair(args.out, pair, depth_16bit=args.depth_16bit)
        artifacts.append(os.path.join(args.out, "rgb", f"{pair.id}.ppm"))
    _write_manifest(args.out, "synth", vars(args) | {"resolved": str(cfg)},
                    args.seed, artifacts, time.perf_counter() - t0)
    print(f"wrote {args.count} scenes to {args.out}")
    return EXIT_OK


def _model_config_for(args, resolution):
    from .blocks import StageConfig
    from .model import ModelConfig
    return ModelConfig(
        stages=StageConfig(patch=args.patch, depths=args.depths,
                           channels=args.channels),
        state=args.state_dim, num_classes=args.num_classes, task=args.task,
        resolution=resolution)


def cmd_train(args) -> int:
    from .data import load_dataset
    from .errors import ConfigError
    from .model import Model, config_path
    from .train import TrainConfig, train_loop
    t0 = time.perf_counter()
    cfg = TrainConfig(lr=args.lr, weight_decay=args.wd, batch=args.batch,
                      steps=args.steps, seed=args.seed,
                      augment=args.augment, use_xmod=not args.rgb_only)
    pairs, report = load_dataset(args.data)
    for line in report.errors:
        print(f"load: {line}", file=sys.stderr)
    if not pairs:
        raise ConfigError(f"no complete samples found in {args.data}")
    resolution = pairs[0].rgb.shape[-2:]
    model = Model(_model_config_for(args, resolution), seed=args.seed)
    result = train_loop(model, pairs, cfg)
    out_parent = os.path.dirname(os.path.abspath(args.out))
    os.makedirs(out_parent, exist_ok=True)
    model.save_checkpoint(args.out)
    loss_csv = f"{args.out}.loss.csv"
    with open(loss_csv, "w") as fh:
        fh.write(result.csv())
    _write_manifest(_manifest_dir(args), "train", vars(args), args.seed,
                    [args.out, config_path(args.out), loss_csv],
                    time.perf_counter() - t0)
    print(f"trained {cfg.steps} steps; final loss "
          f"{result.rows[-1][1]:.6f}; checkpoint {args.out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    import numpy as np
    from .data import load_dataset
    from .errors import ConfigError
    from .metrics import SaliencyPair, evaluate_saliency, evaluate_semantic
    from .model import Model
    from .train import predict_logits, predict_prob
    t0 = time.perf_counter()
    model = Model.from_checkpoint(args.ckpt)
    pairs, report = load_dataset(args.data)
    for line in report.errors:
        print(f"load: {line}", file=sys.stderr)
    if not pairs:
        raise ConfigError(f"no complete samples found in {args.data}")

    ids = [p.id for p in pairs]
    if model.cfg.task == "saliency":
        preds = [predict_prob(model, p, use_xmod=not args.rgb_only)
                 for p in pairs]
        rep = evaluate_saliency(
            [SaliencyPair(pred, p.mask) for pred, p in zip(preds, pairs)],
            ids=ids)
    else:
        maps = []
        for p in pairs:
            logits = predict_logits(model, p.rgb,
                                    None if args.rgb_only else p.xmod)
            maps.append(np.argmax(logits.data, axis=-3))
        rep = evaluate_semantic(maps, [p.mask.astype(np.int64) for p in pairs],
                                num_classes=model.cfg.num_classes, ids=ids)

    os.makedirs(args.out_dir, exist_ok=True)
    csv_path = os.path.join(args.out_dir, "per_image.csv")
    keys = [k for k in rep.per_image[0] if k != "id"]
    with open(csv_path, "w") as fh:
        fh.write("id," + ",".join(keys) + "\n")
        for row in rep.per_image:
            fh.write(row["id"] + ","
                     + ",".join(f"{row[k]:.9g}" for k in keys) + "\n")
    table_path = os.path.join(args.out_dir, "aggregate.txt")
    with open(table_path, "w") as fh:
        fh.write(rep.table() + "\n")
        if rep.empty_gt_images:
            fh.write(f"empty-GT images (weighted F defined 0): "
                     f"{','.join(rep.empty_gt_images)}\n")
    _write_manifest(args.out_dir, "eval", vars(args), None,
                    [csv_path, table_path], time.perf_counter() - t0)
    print(rep.table())
    return EXIT_OK


def cmd_infer(args) -> int:
    import numpy as np
    from .autodiff import sigmoid
    from .model import Model
    from .netpbm import read_pgm, read_ppm, write_pgm
    from .train import predict_logits
    t0 = time.perf_counter()
    model = Model.from_checkpoint(args.ckpt)
    rgb = read_ppm(args.rgb)
    xmod = read_pgm(args.x)[None] if args.x else None
    out_parent = os.path.dirname(os.path.abspath(args.out))
    os.makedirs(out_parent, exist_ok=True)
    logits = predict_logits(model, rgb, xmod)
    if model.cfg.task == "saliency":
        prob = sigmoid(logits).data[0]
        write_pgm(args.out, prob)
        fraction = float((prob >= 0.5).mean())
    else:
        labels = np.argmax(logits.data, axis=0)
        write_pgm(args.out, labels / 255.0)
        fraction = float((labels > 0).mean())
    h, w = rgb.shape[-2:]
    _write_manifest(_manifest_dir(args), "infer",
                    vars(args) | {"self_fusion": args.x is None}, None,
                    [args.out], time.perf_counter() - t0)
    print(f"resolution {h}x{w}; foreground fraction {fraction:.4f}; "
          f"mask {args.out}" + ("" if args.x else " (self-fusion)"))
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    from .gradcheck import run_scope
    t0 = time.perf_counter()
    results = run_scope(args.scope)
    lines = [r.line() for r in results]
    os.makedirs(args.out_dir, exist_ok=True)
    report_path = os.path.join(args.out_dir, "gradcheck_report.txt")
    with open(report_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    failed = [r for r in results if not r.passed]
    code = EXIT_VALIDATION if failed else EXIT_OK
    error = f"{len(failed)} gradient check(s) failed" if failed else None
    _write_manifest(args.out_dir, "gradcheck", vars(args), None,
                    [report_path], time.perf_counter() - t0, code, error)
    print("\n".join(lines))
    if failed:
        print(error, file=sys.stderr)
    return code


def cmd_scan_bench(args) -> int:
    from .bench import (IMPLS, fit_exponent, format_shape_table,
                        format_table, run_bench, run_model_shapes, to_csv)
    t0 = time.perf_counter()
    rows = run_bench(args.lengths, n=args.state_dim, d=args.channels,
                     seed=args.seed)
    exponents = {impl: fit_exponent(rows, impl) for impl in IMPLS}
    table = (format_table(rows, exponents) + "\n\n"
             + format_shape_table(run_model_shapes(seed=args.seed)))
    os.makedirs(args.out_dir, exist_ok=True)
    csv_path = os.path.join(args.out_dir, "scan_bench.csv")
    txt_path = os.path.join(args.out_dir, "scan_bench.txt")
    with open(csv_path, "w") as fh:
        fh.write(to_csv(rows))
    with open(txt_path, "w") as fh:
        fh.write(table + "\n")
    _write_manifest(args.out_dir, "scan-bench", vars(args), args.seed,
                    [csv_path, txt_path], time.perf_counter() - t0)
    print(table)
    return EXIT_OK


# ------------------------------------------------------------------ wiring

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="scanseg",
        description="selective-scan multimodal segmentation toolkit")
    parser.add_argument("--threads", type=positive_int, default=None,
                        help="cap internal math-library thread pools")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic paired dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--kappa", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--resolution", type=resolution, default="64x64")
    p.add_argument("--xmod-strength", type=float, default=0.4)
    p.add_argument("--occluder-density", type=float, default=0.3)
    p.add_argument("--noise", type=float, default=0.02)
    p.add_argument("--depth-16bit", action="store_true")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a model on a dataset directory")
    p.add_argument("--data", required=True)
    p.add_argument("--task", choices=("saliency", "semantic"),
                   default="saliency")
    p.add_argument("--steps", type=int, default=500)
    p.add_argument("--lr", type=float, default=6e-5)
    p.add_argument("--wd", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--batch", type=int, default=4)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--augment", action="store_true")
    p.add_argument("--rgb-only", action="store_true",
                   help="self-fusion ablation: ignore the X modality")
    p.add_argument("--patch", type=int, default=4)
    p.add_argument("--depths", type=int_list, default="2,2")
    p.add_argument("--channels", type=int_list, default="16,32")
    p.add_argument("--state-dim", type=int, default=4)
    p.add_argument("--num-classes", type=int, default=1)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out-dir", default="eval_out")
    p.add_argument("--rgb-only", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("infer", help="run one image pair through a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--rgb", required=True)
    p.add_argument("--x", default=None)
    p.add_argument("--out", required=True, help="output mask PGM path")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suites")
    p.add_argument("--scope", default="all",
                   help="ops | ssm-scan | blocks | model | all")
    p.add_argument("--out-dir", default="gradcheck_out")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("scan-bench",
                       help="time the scan oracle and the selective-scan op, "
                            "also at the model's shapes")
    p.add_argument("--lengths", type=int_list,
                   default="1024,2048,4096,8192,16384")
    p.add_argument("--state-dim", type=int, default=4)
    p.add_argument("--channels", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default="bench_out")
    p.set_defaults(func=cmd_scan_bench)

    return parser


def _manifest_dir(args) -> str:
    """The directory a command writes its outputs and manifest to."""
    if args.command in ("train", "infer"):
        return os.path.dirname(os.path.abspath(args.out))
    return args.out if args.command == "synth" else args.out_dir


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    if args.threads is not None:
        # Handlers import numpy lazily, so the cap lands before its pools start.
        for var in THREAD_VARS:
            os.environ[var] = str(args.threads)

    from .errors import (CheckpointError, ConfigError, DimensionError,
                         DomainError, GraphError, NetpbmError, NumericalError)
    t0 = time.perf_counter()
    trace = None
    try:
        return args.func(args)
    except (ConfigError, DimensionError, DomainError, GraphError) as exc:
        code, line = EXIT_VALIDATION, f"error: {exc}"
    except NumericalError as exc:
        code, line = EXIT_NUMERIC, f"numerical failure: {exc}"
    except (OSError, NetpbmError, CheckpointError) as exc:
        code, line = EXIT_IO, f"i/o error: {exc}"
    except Exception as exc:
        code = EXIT_INTERNAL
        line = f"internal error: {type(exc).__name__}: {exc}"
        trace = traceback.format_exc()
    print(line, file=sys.stderr)
    if trace is not None:
        print(trace, file=sys.stderr, end="")
    try:
        _write_manifest(_manifest_dir(args), args.command, vars(args),
                        getattr(args, "seed", None), [],
                        time.perf_counter() - t0, code, line, trace)
    except OSError:
        pass  # the output directory is what failed; the line above says so
    return code


if __name__ == "__main__":
    sys.exit(main())
