"""Self-tests of the benchmark.

    python3 perfbench/selftest.py

Each check in oracle.py must accept a real report and reject a corrupted
one; the tiny mode of run.py must run every workload end to end, traced
and untraced; two traced runs with one seed must count the same calls;
and run.py must refuse, without a result, where there is no program.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
from sympquot import WeightMatrix, largeness_report, shell_diagnostics  # noqa: E402
from sympquot.pipeline import parse_request, run  # noqa: E402


def report(req):
    return run(parse_request(req)).to_dict()


class TorusQuotientCheck(unittest.TestCase):
    rows = [[3, -3, -1, -1], [-1, -2, 1, 2]]

    @classmethod
    def setUpClass(cls):
        cls.body = report({"kind": "torus", "weights": cls.rows})

    def corrupted(self):
        return copy.deepcopy(self.body)

    def test_accepts_the_report(self):
        self.assertEqual(oracle.check_torus_quotient(self.rows, self.body), [])

    def test_rejects_one_numerator_coefficient_changed(self):
        body = self.corrupted()
        body["quotient"]["series"]["numerator"][3] += 1
        self.assertTrue(oracle.check_torus_quotient(self.rows, body))

    def test_rejects_a_wrong_gorenstein_flag(self):
        body = self.corrupted()
        body["quotient"]["verdict"]["graded_gorenstein"] = False
        self.assertTrue(oracle.check_torus_quotient(self.rows, body))

    def test_rejects_one_truncation_coefficient_changed(self):
        body = self.corrupted()
        body["quotient"]["truncation"][4] += 1
        self.assertTrue(oracle.check_torus_quotient(self.rows, body))

    def test_rejects_a_wrong_dimension(self):
        body = self.corrupted()
        body["quotient"]["verdict"]["dimension"] += 2
        self.assertTrue(oracle.check_torus_quotient(self.rows, body))

    def test_weight_zero_count_by_hand(self):
        # A = (1, -1): generators z1 w1, z2 w2, z1 z2, w1 w2 in degree 2; in
        # degree 4 their 10 products, less (z1 w1)(z2 w2) = (z1 z2)(w1 w2)
        self.assertEqual(oracle.weight_zero_counts([[1, -1]], 4), [1, 0, 4, 0, 9])


class Sl2QuotientCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.r2r1 = report({"kind": "sl2", "irreps": [2, 1], "degree": 40})
        cls.r7 = report({"kind": "sl2", "irreps": [7], "degree": 40})
        cls.r1 = report({"kind": "sl2", "irreps": [1], "degree": 40})

    def test_accepts_the_reports(self):
        self.assertEqual(oracle.check_sl2_quotient([2, 1], self.r2r1), [])
        self.assertEqual(oracle.check_sl2_quotient([1], self.r1), [])

    def test_accepts_a_failed_request_with_the_right_truncation(self):
        self.assertIn("error", self.r7["quotient"])
        self.assertEqual(oracle.check_sl2_quotient([7], self.r7), [])

    def test_rejects_one_numerator_coefficient_changed(self):
        body = copy.deepcopy(self.r2r1)
        body["quotient"]["series"]["numerator"][2] += 1
        self.assertTrue(oracle.check_sl2_quotient([2, 1], body))

    def test_rejects_a_wrong_gorenstein_flag(self):
        body = copy.deepcopy(self.r2r1)
        body["quotient"]["verdict"]["graded_gorenstein"] = False
        self.assertTrue(oracle.check_sl2_quotient([2, 1], body))

    def test_rejects_a_wrong_a_invariant(self):
        body = copy.deepcopy(self.r2r1)
        body["quotient"]["verdict"]["a_invariant"] = -6
        self.assertTrue(oracle.check_sl2_quotient([2, 1], body))

    def test_rejects_a_wrong_truncation_of_a_failed_request(self):
        body = copy.deepcopy(self.r7)
        body["quotient"]["truncation"][8] += 1
        self.assertTrue(oracle.check_sl2_quotient([7], body))

    def test_rejects_a_series_where_the_gate_must_refuse(self):
        body = copy.deepcopy(self.r1)
        body["quotient"] = self.r2r1["quotient"]
        self.assertTrue(oracle.check_sl2_quotient([1], body))

    def test_published_forms_are_one_rational_function_each(self):
        # R2+R1 is published over (1-t^2)^2 (1-t^3)^2 as well
        self.assertTrue(
            oracle.same_rational_function(
                [1, 0, 2, 2, 2, 0, 1], [2, 2, 3, 3], *oracle.SL2_PUBLISHED[(2, 1)]
            )
        )


class LargenessCheck(unittest.TestCase):
    rows = [[1, -2, 3, 0, 1, -1, 2, 2, -3, 1], [0, 1, -1, 2, 3, -3, 1, 0, 2, -2]]

    def output(self):
        A = WeightMatrix(self.rows)
        return {
            "max_k_modular": largeness_report(A).max_k_modular,
            "shell_dim": shell_diagnostics(A).shell_dim,
        }

    def test_accepts_the_program_output(self):
        self.assertEqual(oracle.check_largeness(self.rows, self.output()), [])

    def test_rejects_wrong_values(self):
        for field, delta in (("max_k_modular", 1), ("shell_dim", -1)):
            out = self.output()
            out[field] += delta
            self.assertTrue(oracle.check_largeness(self.rows, out), field)

    def test_support_ranks_against_rational_elimination(self):
        rows = [[2, 0, 4, -1, 3, 0], [1, 0, 2, 3, -3, 1], [3, 0, 6, 2, 0, 1]]

        def rank(cols):
            m = [[Fraction(c[i]) for c in cols] for i in range(len(rows))]
            r = 0
            for j in range(len(cols)):
                piv = next((i for i in range(r, len(m)) if m[i][j]), None)
                if piv is None:
                    continue
                m[r], m[piv] = m[piv], m[r]
                for i in range(len(m)):
                    if i != r and m[i][j]:
                        f = m[i][j] / m[r][j]
                        m[i] = [a - f * b for a, b in zip(m[i], m[r])]
                r += 1
            return r

        cols = [[r[j] for r in rows] for j in range(6)]
        got = oracle.support_ranks(rows)
        for mask in range(64):
            sub = [cols[j] for j in range(6) if mask >> j & 1]
            self.assertEqual(got[mask], rank(sub) if sub else 0, mask)


class CliCheck(unittest.TestCase):
    body = report({"kind": "sl2", "irreps": [3]})

    def test_accepts_identical_calls(self):
        out = json.dumps(self.body)
        self.assertEqual(oracle.check_cli_call(0, out, out, [out, out]), [])

    def test_rejects_one_byte_changed(self):
        out = json.dumps(self.body)
        bad = out[:10] + chr(ord(out[10]) ^ 1) + out[11:]
        self.assertTrue(oracle.check_cli_call(0, bad, out, [bad]))
        self.assertTrue(oracle.check_cli_call(0, out, out, [out, bad]))

    def test_rejects_a_nonzero_exit(self):
        out = json.dumps(self.body)
        self.assertTrue(oracle.check_cli_call(3, out, out, [out]))


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


class TinyRuns(unittest.TestCase):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    def result(self, workload, trace, seed=3):
        p = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                  "--trace", str(trace), "--tiny")
        self.assertEqual(p.returncode, 0, p.stderr)
        return json.loads(p.stdout.strip().splitlines()[-1])

    def test_every_workload_end_to_end(self):
        for w in self.spec["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    res = self.result(w["name"], trace)
                    self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(res["correct"])
                    self.assertGreaterEqual(res["attempted"], 1)
                    self.assertEqual(set(res["metrics"]), {m["name"] for m in self.spec[key]})

    def test_traced_calls_repeat(self):
        for workload in ("torus-quotient", "sl2-quotient"):
            first, second = (self.result(workload, 1)["metrics"] for _ in range(2))
            counts = [k for k in first if k.endswith(".calls") or k.endswith("kernel_solves")]
            self.assertEqual(
                {k: first[k] for k in counts}, {k: second[k] for k in counts}, workload
            )

    def test_fallback_route_is_reached(self):
        metrics = self.result("torus-quotient", 1)["metrics"]
        self.assertGreater(metrics["series.minimal_rational_form.calls"]["value"], 0)

    def test_refuses_without_the_program(self):
        bare = HERE / "out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            p = bench("--workload", "cli-cold", "--seed", "1", "--seconds", "1", "--trace", "0",
                      cwd=bare)
            self.assertNotEqual(p.returncode, 0)
            self.assertEqual(p.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
