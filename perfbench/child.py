"""One benchmark iteration in a fresh interpreter.

    python3 perfbench/child.py --workload NAME --seed N --out FILE
        [--trace] [--record]
    python3 perfbench/child.py --setup-only

Imports polysieve from the checkout's src/ (PYTHONPATH is set by run.py),
runs the workload once, checks its report, and prints one JSON line:
the perf_counter reading right after `import polysieve` (run.py subtracts
its own reading taken before the spawn; both are CLOCK_MONOTONIC), the
wall and CPU time from the first call into polysieve until the report is
written, the peak RSS, the exit code and the problems the check found.
With --trace the workload runs under the tracer, the per-layer metrics
are added and the spans are written to .bench_tmp/spans-<workload>.jsonl.
--record stores the report and the exact counters as the new reference
instead of checking them.
"""

from __future__ import annotations

import time

import polysieve  # timed: interpreter start plus this import

T_IMPORTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference"
COUNTS = REFERENCE / "counts.json"
SPANS_DIR = HERE.parent / ".bench_tmp"


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _run_library(out: str, config: dict) -> int:
    from polysieve import almostprime
    from workloads import HISTOGRAM_H, HISTOGRAM_N

    seq = almostprime.build_disc_sequence(HISTOGRAM_N, HISTOGRAM_H)
    rows = [almostprime.density_remainder(seq, d) for d in config["d"]]
    doc = {"n": HISTOGRAM_N, "H": HISTOGRAM_H, "radius": seq.radius,
           "config": config,
           "remainders": [{"d": r.d, "divisor_mass": r.divisor_mass,
                           "main": r.main, "remainder": r.remainder} for r in rows]}
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")
    return 0


def _dft_abs(p, n, mode, rule, phase):
    from polysieve import charsum

    return abs(charsum.dft_point_direct(p, n, mode, rule, phase))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()

    src = Path(os.environ.get("PYTHONPATH", "")).resolve()
    if not Path(polysieve.__file__).resolve().is_relative_to(src):
        print(f"polysieve imported from {polysieve.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"t_imported": T_IMPORTED}))
        return 0

    import numpy
    from polysieve import cli
    from checker import check_counts, check_fourier_rows, compare_report
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    cpu0, t0 = _cpu_s(), time.perf_counter()
    if wl.library:
        code = _run_library(args.out, wl.config(args.seed))
    else:
        code = cli.main(wl.argv(args.seed) + ["--out", args.out])
    t1, cpu1 = time.perf_counter(), _cpu_s()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {"t_imported": T_IMPORTED, "exit_code": code, "wall_s": t1 - t0,
              "cpu_s": cpu1 - cpu0, "peak_rss_mb": peak_rss_mb,
              "numpy": numpy.__version__, "problems": []}
    problems = result["problems"]
    if code != 0:
        problems.append(f"exit code {code}")
    if tracer is not None:
        from tracing import layer_metrics

        tracer.uninstall()
        spans = tracer.export()
        tracer.write(SPANS_DIR / f"spans-{wl.name}.jsonl", spans)
        result["layers"] = layer_metrics(spans, tracer.counts)

    ref_path = REFERENCE / f"{wl.name}.{wl.report}"
    text = Path(args.out).read_text(encoding="utf-8") if code == 0 else ""
    if args.record:
        if code != 0 or tracer is None:
            print("--record needs a traced run that exits 0", file=sys.stderr)
            return 2
        ref_path.write_text(text, encoding="utf-8")
        counts = json.loads(COUNTS.read_text()) if COUNTS.exists() else {}
        counts[wl.name] = {k: result["layers"][k] for k in wl.exact_counts}
        COUNTS.write_text(json.dumps(counts, indent=2, sort_keys=True) + "\n")
    elif code == 0:
        problems += compare_report(text, ref_path.read_text(encoding="utf-8"), wl.report)
        if wl.name == "fourier-both":
            problems += check_fourier_rows(text, _dft_abs)
        if tracer is not None:
            want = json.loads(COUNTS.read_text())[wl.name]
            problems += check_counts(result["layers"], want)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
