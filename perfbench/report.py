"""Print every benchmark metric by name, with its unit, for each workload.

    python3 perfbench/report.py [--runs N] [--trace] [--out FILE]

Runs perfbench/run.py N times per workload (seeds 0..N-1, each for the
run_seconds of BENCHMARK.json; every run also checks the outputs), pools
the per-iteration samples and prints, per end-to-end metric, the median,
the highest percentile with at least ten samples beyond it, and the sample
count, plus fail_frac, the share of iterations that failed (non-zero exit,
budget refusal, or a failed output check).  With --trace it also runs one
traced run per workload and prints every per-layer metric and the layer
holding the most busy time; it exits 1 when that is not the layer the
workload is meant to exercise.  --out writes all of it, with the machine
facts, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import END_TO_END  # noqa: E402
from tracing import dominant_layer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RUN_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

PERCENTILES = (99, 95, 90, 75, 50)


def high_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest of PERCENTILES with at least ten samples above it."""
    n = len(values)
    for q in PERCENTILES:
        if n * (100 - q) / 100 >= 10:
            return q, statistics.quantiles(values, n=100)[q - 1]
    return None


def bench_run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(RUN_SECONDS), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True)
    out = {"exit_code": proc.returncode, "comments": {}, "problems": []}
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        key, _, val = line[2:].partition(": ")
        if key == "problem":
            out["problems"].append(val)
        elif line.startswith("# "):
            out["comments"][key] = json.loads(val)
    if proc.returncode == 0 and lines:
        out["result"] = json.loads(lines[-1])
    else:
        out["problems"].append(proc.stderr.strip() or f"run.py exited {proc.returncode}")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()

    report = {"workloads": {}}
    all_ok = True
    for name in WORKLOADS:
        runs = [bench_run(name, seed, 0) for seed in range(args.runs)]
        samples = {k: [] for k in END_TO_END}
        attempted = failed = 0
        for r in runs:
            res = r.get("result", {"attempted": 1, "failed": 1})
            attempted += res["attempted"]
            failed += res["failed"]
            for key, vals in r["comments"].get("samples", {}).items():
                samples[key] += vals
            for problem in r["problems"]:
                print(f"{name}: problem: {problem}")
            report.setdefault("machine", r["comments"].get("machine"))
        entry = {"config": runs[0]["comments"].get("config"), "metrics": {},
                 "fail_frac": {"value": failed / attempted, "unit": "ratio",
                               "attempted": attempted}}
        print(f"\n{name}  ({args.runs} runs of {RUN_SECONDS} s)")
        for key, unit in END_TO_END.items():
            vals = samples[key]
            if not vals:
                continue
            hi = high_percentile(vals)
            entry["metrics"][key] = {"median": statistics.median(vals), "unit": unit,
                                     "n": len(vals),
                                     "p_hi": {"q": hi[0], "value": hi[1]} if hi else None}
            hi_text = f"p{hi[0]}={hi[1]:.4g}" if hi else "p_hi=n/a (n<20)"
            print(f"  {key:<12} {statistics.median(vals):>10.4g} {unit:<5} "
                  f"{hi_text:<16} n={len(vals)}")
        print(f"  {'fail_frac':<12} {failed / attempted:>10.4g} ratio "
              f"{'':<16} n={attempted}")
        all_ok &= failed == 0
        if args.trace:
            traced = bench_run(name, 0, 1)
            res = traced.get("result")
            if res is None:
                print(f"  traced run failed: {traced['problems']}")
                all_ok = False
            else:
                all_ok &= res["correct"]
                layers = res["metrics"]
                entry["layers"] = layers
                top = dominant_layer({k: m["value"] for k, m in layers.items()})
                expected = WORKLOADS[name].layer
                print(f"  dominant layer: {top} "
                      f"({layers[f'{top}.busy_share']['value']:.1%} of busy time; "
                      f"expected {expected})")
                if top != expected:
                    print(f"{name}: problem: dominant layer is {top}, not {expected}")
                    all_ok = False
                for key, m in layers.items():
                    print(f"    {key:<32} {m['value']:>14.6g} {m['unit']}")
        report["workloads"][name] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
