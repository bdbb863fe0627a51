"""Self-tests of the benchmark (not part of the library's test suite).

    python3 perfbench/selftest.py

Checks that the correctness gate catches a perturbed reference and a flipped
verdict, that every metric and workload name is well formed and matches
BENCHMARK.json, that tracing patches every binding and restores it, and that
the printed report lists every end-to-end metric with its unit.
"""

from __future__ import annotations

import copy
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "tests"))

import checks  # noqa: E402
import tracing  # noqa: E402
from run import END_TO_END, REPORT_ONLY  # noqa: E402
from worker import run_command, run_pass  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SMALL = "sweep process-matching --n 2..8"


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


class CorrectnessGate(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        from steinpoisson import cli

        cls.cli = cli
        cls.reference = checks.load_reference()
        cls.argv = shlex.split(SMALL)
        cls.want = cls.reference["commands"][SMALL]

    def fail_frac(self, want: dict) -> float:
        failures: list[str] = []
        result = run_pass(self.cli, [(SMALL, self.argv)], {SMALL: want}, failures)
        return result["failed"] / result["attempted"]

    def test_reference_passes(self):
        self.assertEqual(self.fail_frac(self.want), 0.0)

    def test_perturbed_exact_tv_fails(self):
        want = copy.deepcopy(self.want)
        want["rows"][3]["exact_tv"] = repr(float(want["rows"][3]["exact_tv"]) + 1e-8)
        self.assertGreater(self.fail_frac(want), 0.0)

    def test_tolerance_admits_reordered_sums(self):
        want = copy.deepcopy(self.want)
        want["rows"][3]["exact_tv"] = repr(float(want["rows"][3]["exact_tv"]) + 1e-12)
        self.assertEqual(self.fail_frac(want), 0.0)

    def test_flipped_reference_verdict_fails(self):
        want = copy.deepcopy(self.want)
        want["rows"][0]["verdict"] = "fail"
        self.assertGreater(self.fail_frac(want), 0.0)

    def test_flipped_program_verdict_fails(self):
        rc, out, _ = run_command(self.cli, self.argv)
        flipped = out.replace(",pass,", ",fail,", 1)
        self.assertNotEqual(flipped, out)
        ops, bad = checks.check_output(self.argv, rc, flipped, self.want)
        self.assertEqual(len(bad), 1)

    def test_nonzero_exit_fails_every_record(self):
        ops, bad = checks.check_output(self.argv, 1, "", self.want)
        self.assertEqual(len(bad), ops)

    def test_seeded_poisson_binomial_reference_matches_oracle(self):
        import oracles

        rows = checks.poisson_binomial_rows(5, 40, 12, False)
        for (_, p), row in zip(checks.random_p_vectors(5, 40, 12), rows):
            law = oracles.enumerate_poisson_binomial(p)
            lam = float(row["lambda"])
            poi = oracles.poisson_series(lam, len(law) + 40)
            tv = oracles.tv_arrays(law, poi) + 0.5 * (1.0 - sum(poi))
            self.assertAlmostEqual(tv, float(row["exact_tv"]), delta=1e-9)


class Names(unittest.TestCase):
    def test_names_well_formed_and_match_benchmark_json(self):
        bench = load_benchmark()
        names = [w["name"] for w in bench["workloads"]]
        self.assertEqual(names, list(WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in bench["end_to_end"]], list(END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in bench["per_layer"]],
                         list(tracing.PER_LAYER))
        metrics = [m for m, _ in END_TO_END + tuple(tracing.PER_LAYER)]
        self.assertEqual(len(metrics), len(set(metrics)))
        for name in names + metrics + [m for m, _ in REPORT_ONLY]:
            self.assertTrue(NAME.fullmatch(name), name)

    def test_benchmark_json_shape(self):
        bench = load_benchmark()
        self.assertEqual(set(bench), {"command", "paths", "run_seconds", "workloads",
                                      "end_to_end", "per_layer"})
        for w in bench["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertEqual(w["why"], WORKLOADS[w["name"]].why)
            self.assertLessEqual(len(w["why"]), 200)
        for m in bench["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in bench["end_to_end"]))
        for m in bench["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})

    def test_declared_spans_exist(self):
        known = set(tracing.SELF_SECONDS.values()) | {
            f"pair_models.mc_verify.{fam}" for fam in tracing.MC_FAMILIES}
        for name, workload in WORKLOADS.items():
            self.assertLessEqual(set(workload.spans), known, name)


class Tracing(unittest.TestCase):
    def test_every_binding_patched_and_restored(self):
        from steinpoisson import cli, multivariate, pair_models, stein_core

        originals = {
            (cli, "poisson_pmf"): stein_core.poisson_pmf,
            (cli, "tv_distance"): stein_core.tv_distance,
            (pair_models, "tv_distance"): stein_core.tv_distance,
            (multivariate, "poisson_pmf"): stein_core.poisson_pmf,
            (stein_core, "poisson_pmf"): stein_core.poisson_pmf,
        }
        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            for (mod, attr), fn in originals.items():
                self.assertIsNot(getattr(mod, attr), fn, f"{mod.__name__}.{attr}")
            run_command(cli, shlex.split("exact-tv matching --n 5"))
        finally:
            tracer.uninstall()
        for (mod, attr), fn in originals.items():
            self.assertIs(getattr(mod, attr), fn)
        fired = tracing.fired(tracer)
        self.assertTrue({"stein_core.poisson_pmf", "stein_core.tv_distance",
                         "exact_laws.rencontres", "bounds", "cli.record"} <= fired, fired)


class Report(unittest.TestCase):
    def test_report_lists_end_to_end_metrics_with_units(self):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", "pair-verify",
             "--seed", "2", "--seconds", "1", "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=180, check=True).stdout
        lines = out.splitlines()
        for metric, unit in END_TO_END + REPORT_ONLY:
            self.assertTrue(any(line.split()[:1] == [metric] and line.split()[2] == unit
                                for line in lines if line.split()), metric)
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual({m: v["unit"] for m, v in result["metrics"].items()}, dict(END_TO_END))

    def test_refuses_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "many-small",
                                   "--seed", "1", "--seconds", "1", "--trace", "0"],
                                  cwd=tmp, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
