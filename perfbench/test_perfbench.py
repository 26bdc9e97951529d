"""Tests of the benchmark itself: the correctness gate, the fault generator,
the workload plans and the trace summaries.

    python3 perfbench/test_perfbench.py
"""

from __future__ import annotations

import itertools
import json
import random
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import faults  # noqa: E402
import micro  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from gate import SECTION_HEADERS, SECTIONS, Golden, Line, parse_text, render  # noqa: E402

GOLDEN = Golden(run.GOLDEN)


def _json_report(lines: list[Line]) -> str:
    checks = [{"id": f"c{i}", "section": "s", "label": l.label, "status": l.status, "detail": None}
              for i, l in enumerate(lines)]
    ok = sum(l.status == "OK" for l in lines)
    fail = sum(l.status == "FAIL" for l in lines)
    summary = {"ok": ok, "fail": fail, "skipped": len(lines) - ok - fail}
    return json.dumps({"checks": checks, "summary": summary})


def _flip(lines: list[Line], index: int, status: str) -> list[Line]:
    flipped = list(lines)
    flipped[index] = Line(lines[index].header, lines[index].label, status)
    return flipped


class GateTest(unittest.TestCase):
    def test_golden_round_trips_and_sections_cover_it(self):
        self.assertEqual(render(GOLDEN.lines), GOLDEN.text)
        by_section = [line for s in SECTIONS for line in parse_text(GOLDEN.section(s))]
        self.assertEqual(by_section, GOLDEN.lines)
        headers = {line.header for line in GOLDEN.lines}
        self.assertEqual(headers, {h for s in SECTIONS for h in SECTION_HEADERS[s]})

    def test_right_outputs_pass(self):
        self.assertIsNone(GOLDEN.check_text(GOLDEN.text, 0))
        self.assertIsNone(GOLDEN.check_json(_json_report(GOLDEN.lines), 0))
        ids = "".join(f"id{i}\n" for i in range(len(GOLDEN.lines)))
        self.assertEqual(GOLDEN.check_list(ids, 0)[0], None)
        self.assertIsNone(GOLDEN.check_text(GOLDEN.single(3), 0, GOLDEN.single(3)))
        self.assertIsNone(GOLDEN.check_fault(render(_flip(GOLDEN.lines, 0, "FAIL")), 1))

    def test_wrong_outputs_fail(self):
        wrong = render(_flip(GOLDEN.lines, 5, "FAIL"))
        self.assertIsNotNone(GOLDEN.check_text(wrong, 0))
        self.assertIsNotNone(GOLDEN.check_text(GOLDEN.text, 1))
        self.assertIsNotNone(GOLDEN.check_json(_json_report(_flip(GOLDEN.lines, 5, "FAIL")), 0))
        self.assertIsNotNone(GOLDEN.check_json("not json", 0))
        short = "".join(f"id{i}\n" for i in range(len(GOLDEN.lines) - 1))
        self.assertIsNotNone(GOLDEN.check_list(short, 0)[0])
        duplicate = "".join("same\n" for _ in GOLDEN.lines)
        self.assertIsNotNone(GOLDEN.check_list(duplicate, 0)[0])
        self.assertIsNotNone(GOLDEN.check_text(GOLDEN.single(3), 0, GOLDEN.single(4)))
        # a fault that is not detected, or that changes the set of checks
        self.assertIsNotNone(GOLDEN.check_fault(GOLDEN.text, 0))
        self.assertIsNotNone(GOLDEN.check_fault(GOLDEN.text, 1))
        self.assertIsNotNone(GOLDEN.check_fault(render(_flip(GOLDEN.lines, 0, "FAIL")[1:]), 1))
        bad_summary = GOLDEN.text.replace("Summary: 92 OK", "Summary: 91 OK")
        self.assertIsNotNone(GOLDEN.check_text(bad_summary, 0))


class ClientTest(unittest.TestCase):
    """A wrong output from a real child process is counted as failed."""

    def setUp(self):
        run.WORK.mkdir(exist_ok=True)

    def _client(self):
        return run.Client(GOLDEN, run.child_env())

    def test_wrong_output_counts_as_failed(self):
        client = self._client()
        sample = client.run(run.Spec("text"), ["-c", "print('Summary: wrong')"])
        self.assertEqual(sample.code, 0)
        self.assertEqual((client.attempted, client.failed), (1, 1))
        self.assertIn("text", client.reasons[0])

    def test_golden_output_passes_and_crash_fails(self):
        client = self._client()
        echo = f"import sys; sys.stdout.write(open({str(run.GOLDEN)!r}).read())"
        client.run(run.Spec("text"), ["-c", echo])
        self.assertEqual((client.attempted, client.failed), (1, 0))
        client.run(run.Spec("text"), ["-c", "raise RuntimeError('boom')"])
        self.assertEqual((client.attempted, client.failed), (2, 1))
        self.assertIn("RuntimeError: boom", client.reasons[0])

    def test_check_without_id_list_counts_as_failed(self):
        client = self._client()
        self.assertIsNone(client.run(run.Spec("check", 0), ["-c", "pass"]))
        self.assertEqual((client.attempted, client.failed), (1, 1))


class FaultGeneratorTest(unittest.TestCase):
    def test_every_fault_is_a_valid_change(self):
        for fault in faults.SPACES["dictionary"]:
            self.assertIn(fault["entry"], faults.DICTIONARY_ENTRIES)
            self.assertNotEqual(fault["delta"] % faults.MODULI[fault["index"]], 0)
        for fault in faults.SPACES["matrix"]:
            self.assertNotEqual(fault["delta"] % faults.MODULI[fault["row"]], 0)
            if fault["col"] == 5 and fault["row"] < 5:
                self.assertEqual(fault["delta"] % 2, 0)
        for fault in faults.SPACES["certificate"]:
            degree = faults.CERTIFICATE_FORMS[(fault["certificate"], fault["part"])]
            self.assertEqual(sum(fault["monomial"]), degree)
            self.assertTrue(all(e >= 0 for e in fault["monomial"]))
            self.assertNotEqual(fault["delta"], 0)

    def test_faults_load_in_the_cli(self):
        sys.path.insert(0, str(run.SRC))
        from quartic_twist.checks import load_fault

        run.WORK.mkdir(exist_ok=True)
        path = run.WORK / "test-fault.json"
        for space in faults.SPACES.values():
            for fault in space:
                path.write_text(json.dumps(fault), encoding="utf-8")
                self.assertEqual(load_fault(str(path)).target, fault["target"])
        path.unlink()

    def test_dictionary_faults_are_exactly_the_well_defined_ones(self):
        """The dictionary rule excludes exactly the corruptions whose derived
        sigma_3 or sigma_5 matrix is not a map on M."""
        sys.path.insert(0, str(run.SRC))
        from quartic_twist import SIGMA3, SIGMA5, cusp_permutation, derive_action_matrix
        from quartic_twist.mordell_weil import perturbed_dictionary

        def well_defined(entry, index, delta):
            dictionary = perturbed_dictionary(entry, index, delta)
            try:
                for sigma in (SIGMA3, SIGMA5):
                    derive_action_matrix(cusp_permutation(sigma), dictionary)
            except ValueError:
                return False
            return True

        emitted = {(f["entry"], f["index"], f["delta"]) for f in faults.SPACES["dictionary"]}
        for entry, (index, modulus) in itertools.product(
            faults.DICTIONARY_ENTRIES, enumerate(faults.MODULI)
        ):
            for delta in range(1, modulus):
                key = (entry, index, delta)
                self.assertEqual(key in emitted, well_defined(*key), key)

    def test_draws_are_seeded(self):
        first = [faults.draw(random.Random(7), t) for t in faults.TARGETS]
        again = [faults.draw(random.Random(7), t) for t in faults.TARGETS]
        self.assertEqual(first, again)


class PlanTest(unittest.TestCase):
    def _take(self, workload, seed, n):
        run.WORK.joinpath("faults").mkdir(parents=True, exist_ok=True)
        return list(itertools.islice(run.plan(workload, seed, len(GOLDEN.lines)), n))

    def test_same_seed_same_inputs(self):
        for workload in ("verify", "query"):
            self.assertEqual(self._take(workload, 3, 40), self._take(workload, 3, 40))
        self.assertNotEqual(self._take("query", 3, 40), self._take("query", 4, 40))

    def test_query_blocks_have_fixed_proportions(self):
        block = 1 + run.QUERY_SECTIONS_PER_BLOCK + run.QUERY_CHECKS_PER_BLOCK
        specs = self._take("query", 5, len(SECTIONS) * block)
        self.assertEqual(specs[0].kind, "list")
        kinds = [s.kind for s in specs[:block]]
        self.assertEqual(kinds.count("section"), run.QUERY_SECTIONS_PER_BLOCK)
        self.assertEqual(kinds.count("check"), run.QUERY_CHECKS_PER_BLOCK)
        sections = {s.arg for s in specs if s.kind == "section"}
        self.assertEqual(sections, set(SECTIONS))

    def test_fault_blocks_have_fixed_proportions(self):
        block = 1 + len(faults.TARGETS)
        specs = self._take("faults", 5, len(run.FIXTURE_NAMES) * block)
        paths = [s.arg for s in specs]
        fixtures = [p.name for p in paths if p.parent == run.FIXTURES]
        self.assertEqual(sorted(fixtures), sorted(run.FIXTURE_NAMES))
        for start in range(0, len(paths), block):
            chunk = paths[start:start + block]
            self.assertEqual(sum(p.parent == run.FIXTURES for p in chunk), 1)
            drawn = [json.loads(p.read_text(encoding="utf-8"))["target"] for p in chunk
                     if p.parent != run.FIXTURES]
            self.assertEqual(sorted(drawn), sorted(faults.TARGETS))

    def test_verify_alternates_formats_in_pairs(self):
        specs = self._take("verify", 9, 20)
        for i in range(0, 20, 2):
            self.assertEqual({specs[i].kind, specs[i + 1].kind}, {"text", "json"})


class TraceSummaryTest(unittest.TestCase):
    def _record(self, present=None):
        # cli.main [0, 100] > checks.build_report [10, 90] > theorems.x [20, 60]
        #   > mordell_weil.fixed_submodule [30, 50]
        spans = [
            ["cli.main", -1, 0, 100],
            ["checks.build_report", 0, 10, 90],
            ["theorems.verify_odd_degree_torsors", 1, 20, 60],
            ["mordell_weil.fixed_submodule", 2, 30, 50],
        ]
        names = {s[0] for s in spans} | {"cyclotomic.CycNum.__mul__"}
        return {"import_s": 0.5, "spans": spans, "counts": {"cyclotomic.CycNum.__mul__": 7},
                "present": sorted(present if present is not None else names)}

    def test_self_and_inclusive_time(self):
        summary = tracer.summarise(self._record())
        self.assertEqual(summary["incl"]["cli.main"], 100e-9)
        self.assertEqual(summary["self"]["checks"], 40e-9)
        self.assertEqual(summary["self"]["theorems"], 20e-9)
        self.assertEqual(summary["total"]["theorems"], 40e-9)
        self.assertEqual(summary["calls"]["cyclotomic.CycNum.__mul__"], 7)

    def test_absent_or_unreached_targets_are_missing_not_zero(self):
        metrics, missing = tracer.per_layer([self._record()])
        self.assertEqual(metrics["cyclotomic.mul_calls"], (7, "count"))
        self.assertIn("valuations.valuation_s", missing)  # never reached
        self.assertNotIn("valuations.valuation_s", metrics)
        metrics, missing = tracer.per_layer([self._record(present=["cli.main"])])
        self.assertIn("cyclotomic.mul_calls", missing)  # target absent
        self.assertIn("cli.main_s", metrics)


class BenchmarkJsonTest(unittest.TestCase):
    """BENCHMARK.json declares exactly the metrics that the runs report."""

    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}

    def test_declared_names_and_units(self):
        self.assertEqual(self.end_to_end, run.END_TO_END_UNITS)
        expected = {name: unit for name, (unit, _, _) in tracer.PER_LAYER.items()}
        expected.update({name: unit for name, (unit, _) in micro.MICRO.items()})
        expected.update({"valuations.expand_cache_hit_ratio": "ratio",
                         "trace.overhead_ratio": "ratio"})
        self.assertEqual(self.per_layer, expected)
        self.assertEqual(tuple(w["name"] for w in self.bench["workloads"]), run.WORKLOADS)

    def _run(self, workload, trace):
        command = [sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
                   "--seed", "11", "--seconds", "1", "--trace", str(trace)]
        done = subprocess.run(command, capture_output=True, text=True, timeout=170, check=True)
        return json.loads(done.stdout.strip().split("\n")[-1])

    def test_short_runs_report_every_declared_metric(self):
        result = self._run("verify", 0)
        self.assertTrue(result["correct"])
        self.assertEqual({n: m["unit"] for n, m in result["metrics"].items()}, self.end_to_end)
        result = self._run("faults", 1)
        self.assertTrue(result["correct"])
        self.assertEqual({n: m["unit"] for n, m in result["metrics"].items()}, self.per_layer)


if __name__ == "__main__":
    unittest.main()
