"""The benchmark's own tests.

    python3 perfbench/selftest.py

Run from the root of a checkout.  They check that the correctness check
catches a perturbed output (negative control), that every per-layer metric
fires on the workloads that run its layer and reads zero where the
workload bypasses it, that a removed span site is reported rather than
fatal, that the metric names and units agree with ``BENCHMARK.json``, and
that a directory without the scanseg source gets no result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest

import run

for _var in run.THREAD_VARS:
    os.environ[_var] = run.THREADS
if run.import_package() is None:
    sys.exit("selftest: no scanseg source under src/")

import spans  # noqa: E402
import workloads as wl  # noqa: E402

WORK = run.ROOT / ".perfbench_work" / f"selftest-{os.getpid()}"

# Layers each workload bypasses: their metrics must read exactly zero.
ZERO = {
    "train": {"metrics.weighted_fbeta_s", "metrics.s_measure_s",
              "metrics.e_measure_s", "metrics.iou_s"},
    "eval": {"autodiff.backward_s", "scan.bwd_s", "losses.loss_s",
             "optim.step_s"},
}


def tearDownModule():
    shutil.rmtree(WORK, ignore_errors=True)


class CorrectnessCheck(unittest.TestCase):
    """Negative controls: a perturbed output or a perturbed model fails."""

    def _prepared(self, name, seed=5):
        w = wl.WORKLOADS[name]
        return w, wl.setup(w, seed, str(WORK / f"check-{name}"))

    def test_train_outputs_match_and_perturbations_are_caught(self):
        w, prep = self._prepared("train-32")
        reference = wl.load_reference(w)
        outputs = wl.run_train(prep, 0.0).outputs
        self.assertEqual(wl.mismatches(w, prep.seed, outputs, reference), [])
        loss, norms, proj = outputs[0]
        for bad in ((loss * (1 + 1e-9), norms, proj),
                    (loss, norms * (1 + 1e-7), proj),
                    (loss, norms, proj + 1e-7 * norms),
                    (float("nan"), norms, proj), None):
            self.assertEqual(wl.mismatches(w, prep.seed, [bad], reference), [0])
        # A different input set's reference does not fit these outputs.
        self.assertEqual(wl.mismatches(w, prep.seed + 1, outputs, reference), [0])

    def test_perturbed_model_fails_the_check(self):
        w, prep = self._prepared("train-32")
        model = wl.model_mod.Model.from_checkpoint(prep.checkpoint)
        name, p = next(iter(model.named_parameters()))
        p.data = p.data * (1 + 1e-6)
        model.save_checkpoint(prep.checkpoint)
        outputs = wl.run_train(prep, 0.0).outputs
        self.assertEqual(wl.mismatches(w, prep.seed, outputs,
                                       wl.load_reference(w)), [0], name)

    def test_eval_outputs_match_and_perturbations_are_caught(self):
        w, prep = self._prepared("eval-256")
        reference = wl.load_reference(w)
        outputs = wl.run_eval(prep, 0.0).outputs
        self.assertEqual(wl.mismatches(w, prep.seed, outputs, reference), [])
        pid, values = outputs[0]
        for key in wl.METRIC_KEYS:
            bad = (pid, dict(values, **{key: values[key] + 1e-9}))
            self.assertEqual(wl.mismatches(w, prep.seed, [bad], reference), [0],
                             key)


class SpanCoverage(unittest.TestCase):
    """On a short seeded run every layer metric fires where its layer runs
    and reads zero where the workload bypasses it, so a missed patch does
    not silently read 0."""

    def test_every_layer_metric_fires_where_its_layer_runs(self):
        for name, w in wl.WORKLOADS.items():
            with self.subTest(workload=name):
                run_ = wl.traced_run(w, 3, str(WORK / f"cover-{name}"), 0.0, 1.0)
                self.assertEqual(run_.absent, [])
                self.assertEqual(set(run_.layers), set(wl.PER_LAYER))
                self.assertEqual(
                    wl.mismatches(w, 3, run_.log.outputs, wl.load_reference(w)),
                    [])
                zero = ZERO[w.kind]
                for metric, value in run_.layers.items():
                    if metric == "tracing.overhead_frac":
                        continue
                    if metric in zero:
                        self.assertEqual(value, 0, metric)
                    else:
                        self.assertGreater(value, 0, metric)
                # Every op runs the same scans; a fraction would mean calls
                # outside the op window were counted.
                self.assertTrue(run_.scan_shapes)
                for shape, per_op in run_.scan_shapes.items():
                    self.assertTrue(float(per_op).is_integer(), shape)

    def test_self_time_subtracts_direct_children(self):
        tracer = spans.Tracer()
        tracer.spans[:] = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0],
                           ["c", 2.0, 3.0, 1], ["b", 5.0, 6.0, 0]]
        incl, own = tracer.totals()
        self.assertEqual(incl["b"], 4.0)
        self.assertEqual(own, {"a": 6.0, "b": 3.0, "c": 1.0})

    def test_removed_site_is_reported_absent(self):
        saved = spans.SITES
        spans.SITES = saved + (("gone", "scanseg.model", "Model.gone"),
                               ("gone", "scanseg.nosuchmodule", "f"))
        tracer = spans.Tracer()
        try:
            tracer.install()
        finally:
            tracer.uninstall()
            spans.SITES = saved
        self.assertEqual(tracer.absent, ["scanseg.model.Model.gone",
                                         "scanseg.nosuchmodule.f"])
        self.assertFalse(hasattr(wl.model_mod.Model.__call__, "perfbench_span"))


class Contract(unittest.TestCase):
    def test_metric_names_and_units_match_benchmark_json(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         {m: wl.UNITS[m] for m in wl.PER_LAYER})
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(wl.WORKLOADS))


class BareDirectory(unittest.TestCase):
    def test_no_result_without_the_package(self):
        bare = WORK / "bare"
        shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "train-32",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60, check=False)
        self.assertNotEqual(proc.returncode, 0)
        for line in proc.stdout.splitlines():
            with self.assertRaises(ValueError):
                json.loads(line)


if __name__ == "__main__":
    unittest.main()
