"""Tests of the benchmark's own checker and trace arithmetic.

    python3 perfbench/selftest.py

Kept out of the package's test suite (the file name does not match
pytest's test_*.py pattern) and independent of polysieve.
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import END_TO_END, _layer_unit  # noqa: E402

from checker import check_counts, check_fourier_rows, compare_report  # noqa: E402
from tracing import cpu_self_times, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference"

CSV = """\
# generated: 2026-01-01T00:00:00+00:00
# version: polysieve 0.1.0
# config: n=3 p=5,7 out=/tmp/a.csv seed=0
p,n,mode,rule,zero_phase,max_abs,argmax_phase,normalized_ratio,scan_kind
5,3,monic,mobius-half,0.5,0.125,1:2:0,0.25,exhaustive
7,3,monic,mobius-half,0.5,0.0625,3:0:1,0.1875,exhaustive
"""


def _phase_table(text):
    """A fake transform: |psi_hat| of each reported argmax and of its negation
    is the row's max_abs; anything else is 0."""
    from checker import parse_csv

    table = {}
    for row in parse_csv(text)["rows"]:
        p = row["p"]
        phase = tuple(int(c) for c in row["argmax_phase"].split(":"))
        for u in (phase, tuple(-c % p for c in phase)):
            table[(p, row["n"], row["mode"], u)] = row["max_abs"]
    return lambda p, n, mode, rule, u: table.get((p, n, mode, tuple(u)), 0.0)


class CheckerTest(unittest.TestCase):
    def test_identical_and_volatile_fields(self):
        other = CSV.replace("2026-01-01T00:00:00", "2027-05-05T12:00:00")
        other = other.replace("/tmp/a.csv", "/tmp/b.csv")
        self.assertEqual(compare_report(other, CSV, "csv"), [])

    def test_row_and_config_permutation_accepted(self):
        lines = CSV.splitlines()
        permuted = "\n".join(lines[:2] + ["# config: n=3 p=7,5 out=x seed=0", lines[3],
                                          lines[5], lines[4]]) + "\n"
        self.assertEqual(compare_report(permuted, CSV, "csv"), [])

    def test_count_off_by_one_rejected(self):
        bad = CSV.replace("7,3,monic", "7,4,monic")
        self.assertNotEqual(compare_report(bad, CSV, "csv"), [])

    def test_float_off_by_1e6_rejected(self):
        bad = CSV.replace("0.0625", repr(0.0625 * (1 + 1e-6)))
        self.assertNotEqual(compare_report(bad, CSV, "csv"), [])

    def test_float_within_tolerance_accepted(self):
        ok = CSV.replace("0.0625", repr(0.0625 * (1 + 1e-12)))
        self.assertEqual(compare_report(ok, CSV, "csv"), [])

    def test_argmax_negated_accepted(self):
        table = _phase_table(CSV)
        negated = CSV.replace("1:2:0", "4:3:0").replace("3:0:1", "4:0:6")
        self.assertEqual(compare_report(negated, CSV, "csv"), [])
        self.assertEqual(check_fourier_rows(negated, table), [])

    def test_wrong_argmax_rejected(self):
        table = _phase_table(CSV)
        self.assertEqual(check_fourier_rows(CSV, table), [])
        self.assertNotEqual(check_fourier_rows(CSV.replace("1:2:0", "1:1:0"), table), [])
        self.assertNotEqual(check_fourier_rows(CSV.replace("1:2:0", "0:0:0"), table), [])

    def test_sampled_scan_rejected(self):
        sampled = CSV.replace("0.1875,exhaustive", "0.1875,sampled")
        self.assertNotEqual(check_fourier_rows(sampled, _phase_table(CSV)), [])

    def test_json_report(self):
        ref = (REFERENCE / "sieve-monic.json").read_text()
        doc = json.loads(ref)
        doc["generated_at"] = "later"
        doc["results"].reverse()
        doc["config"]["H"].reverse()
        for row in doc["results"]:
            row["wall_time"] *= 3
        self.assertEqual(compare_report(json.dumps(doc), ref, "json"), [])
        doc["results"][0]["radius"] += 1
        self.assertNotEqual(compare_report(json.dumps(doc), ref, "json"), [])
        doc = json.loads(ref)
        doc["results"][1]["rhs"] *= 1 + 1e-6
        self.assertNotEqual(compare_report(json.dumps(doc), ref, "json"), [])

    def test_references_accept_themselves(self):
        for path in REFERENCE.iterdir():
            if path.suffix in (".csv", ".json") and path.name != "counts.json":
                text = path.read_text()
                self.assertEqual(compare_report(text, text, path.suffix[1:]), [], path)

    def test_counts(self):
        self.assertEqual(check_counts({"a": 3, "b": 4}, {"a": 3}), [])
        self.assertNotEqual(check_counts({"a": 4}, {"a": 3}), [])
        self.assertNotEqual(check_counts({}, {"a": 3}), [])


def _span(name, start, end, parent, thread, cpu):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "thread": thread, "cpu_start": 0.0, "cpu_end": cpu}


class SelfTimeTest(unittest.TestCase):
    # Thread 1 runs the root [0, 10] and a child A [1, 3] with grandchild
    # A1 [1.5, 2.5]; thread 2 runs B [2, 8] (a child of the root, started by
    # its pool) with child B1 [3, 4].  B overlaps A in wall-clock time.
    SPANS = [
        _span("cli.main", 0.0, 10.0, None, 1, 3.5),
        _span("charsum.a", 1.0, 3.0, 0, 1, 1.5),
        _span("fppoly.a1", 1.5, 2.5, 1, 1, 0.75),
        _span("sieve.cell", 2.0, 8.0, 0, 2, 4.0),
        _span("zpoly.b1", 3.0, 4.0, 3, 2, 1.0),
    ]

    def test_cpu_self_times(self):
        # the root only loses its same-thread child A; B's CPU is thread 2's
        self.assertEqual(cpu_self_times(self.SPANS), [2.0, 0.75, 0.75, 3.0, 1.0])

    def test_layer_metrics(self):
        m = layer_metrics(self.SPANS, {})
        self.assertEqual(m["cli.self_s"], 2.0)
        self.assertEqual(m["sieve.cell_busy_s"], 4.0)
        self.assertEqual(m["sieve.cell_overlap"], 4.0 / 6.0)
        self.assertEqual(m["sieve.busy_share"], 3.0 / 7.5)
        self.assertAlmostEqual(sum(v for k, v in m.items() if k.endswith("busy_share")), 1.0)


class BenchmarkFileTest(unittest.TestCase):
    def test_benchmark_json_lists_what_run_reports(self):
        bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([(w["name"], w["why"]) for w in bench["workloads"]],
                         [(w.name, w.why) for w in WORKLOADS.values()])
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]}, END_TO_END)
        layers = [*layer_metrics([], {}), "trace.overhead_frac"]
        self.assertEqual([(m["name"], m["unit"]) for m in bench["per_layer"]],
                         [(k, _layer_unit(k)) for k in layers])


if __name__ == "__main__":
    unittest.main()
