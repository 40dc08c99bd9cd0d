"""polysieve benchmark: one workload, measured in fresh interpreters.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds src/polysieve.  Each iteration
is a new `python3 perfbench/child.py` process that imports polysieve, runs
the workload once and checks the report against perfbench/reference/.

--trace 0 runs iterations until S seconds are used and reports the
end-to-end metrics as medians over the iterations:
  wall_s       first call into polysieve until the report is written
  setup_s      interpreter start plus `import polysieve` (numpy included),
               from every iteration and import-only processes between them
  cpu_s        user plus system CPU of the process over the wall_s span
  peak_rss_mb  ru_maxrss of the process
--trace 1 alternates untraced and traced iterations and reports the
per-layer metrics of the traced ones (medians; each traced iteration's
exact counters must match perfbench/reference/counts.json), plus
trace.overhead_frac, traced over untraced wall_s minus 1.

Comment lines (`# ...`) before the result give the machine facts, the
resolved config and every sample; the last line is the JSON result.
Exits 2 without a result when the checkout has no polysieve sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import HISTOGRAM_H, HISTOGRAM_N, WORKLOADS  # noqa: E402

SETUP_PER_ITERATION = 4     # import-only processes before each iteration
CHILD_TIMEOUT_S = 150
END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8", errors="replace")
    except OSError:
        return ""


def machine_facts() -> dict:
    cpuinfo = _read("/proc/cpuinfo")
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        level = _read(index / "level").strip()
        kind = _read(index / "type").strip()
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(index / "size").strip()
    mem_kb = next((int(line.split()[1]) for line in _read("/proc/meminfo").splitlines()
                   if line.startswith("MemTotal:")), 0)
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "cache": caches,
        "mem_total_gb": round(mem_kb / 2 ** 20, 2),
        "python": platform.python_version(),
        "git_commit": git_commit(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    head = _read(git / "HEAD").strip()
    if not head.startswith("ref: "):
        return head or None
    ref = head[5:]
    loose = _read(git / ref).strip()
    if loose:
        return loose
    for line in _read(git / "packed-refs").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


class Runner:
    def __init__(self, workload: str, seed: int, tmp: Path):
        self.wl = WORKLOADS[workload]
        self.seed = seed
        self.tmp = tmp
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.numpy = None

    def spawn(self, args: list[str]) -> tuple[dict | None, float]:
        """Run child.py; return its JSON line (None on failure) and its
        setup time."""
        t_spawn = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, str(HERE / "child.py"), *args],
                                  cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.problems.append(f"child timed out after {CHILD_TIMEOUT_S} s")
            return None, 0.0
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            self.problems.append(f"child exited {proc.returncode}")
            return None, 0.0
        try:
            doc = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            self.problems.append("child printed no result")
            return None, 0.0
        return doc, doc["t_imported"] - t_spawn

    def setup(self) -> float | None:
        doc, setup_s = self.spawn(["--setup-only"])
        return setup_s if doc else None

    def iteration(self, trace: bool) -> dict | None:
        """One workload run.  A run that fails its output check still counts
        as failed but returns its measurements; None when the workload did
        not complete."""
        self.attempted += 1
        n = self.attempted
        args = ["--workload", self.wl.name, "--seed", str(self.seed),
                "--out", str(self.tmp / f"out-{n}.{self.wl.report}")]
        if trace:
            args.append("--trace")
        doc, setup_s = self.spawn(args)
        if doc is None:
            self.failed += 1
            return None
        if doc["problems"]:
            self.failed += 1
            self.problems += doc["problems"]
        if doc["exit_code"] != 0:
            return None
        doc["setup_s"] = setup_s
        self.numpy = doc["numpy"]
        return doc


def _layer_unit(name: str) -> str:
    key = name.split(".", 1)[1]
    if key.endswith("_s"):
        return "s"
    for unit in ("us", "ms"):
        if f"{unit}_per_" in key:
            return unit
    if key in ("busy_share", "cell_overlap", "overhead_frac"):
        return "ratio"
    return "count"


def measure(runner: Runner, seconds: float) -> tuple[dict, dict]:
    samples = {k: [] for k in END_TO_END}
    runner.setup()  # warm-up: compiles bytecode and fills the page cache
    deadline = time.perf_counter() + seconds
    last = 0.0
    while runner.attempted == 0 or time.perf_counter() + last <= deadline:
        t = time.perf_counter()
        for _ in range(SETUP_PER_ITERATION):
            setup_s = runner.setup()
            if setup_s is not None:
                samples["setup_s"].append(setup_s)
        doc = runner.iteration(trace=False)
        last = time.perf_counter() - t
        if doc:
            for key in END_TO_END:
                samples[key].append(doc[key])
    if not samples["wall_s"]:
        return {}, samples
    metrics = {key: {"value": statistics.median(samples[key]), "unit": unit}
               for key, unit in END_TO_END.items()}
    return metrics, samples


def measure_traced(runner: Runner, seconds: float) -> tuple[dict, dict]:
    walls = {"untraced": [], "traced": []}
    layers: dict[str, list[float]] = {}
    deadline = time.perf_counter() + seconds
    last = 0.0
    while runner.attempted == 0 or time.perf_counter() + last <= deadline:
        t = time.perf_counter()
        plain = runner.iteration(trace=False)
        traced = runner.iteration(trace=True)
        last = time.perf_counter() - t
        if plain and traced:
            walls["untraced"].append(plain["wall_s"])
            walls["traced"].append(traced["wall_s"])
            for key, val in traced["layers"].items():
                layers.setdefault(key, []).append(val)
    if not walls["traced"]:
        return {}, walls
    metrics = {key: {"value": statistics.median(vals), "unit": _layer_unit(key)}
               for key, vals in layers.items()}
    overhead = statistics.median(walls["traced"]) / statistics.median(walls["untraced"]) - 1
    metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
    return metrics, walls


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "polysieve" / "__init__.py").is_file():
        print(f"no polysieve sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    tmp = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    runner = Runner(args.workload, args.seed, tmp)
    try:
        if args.trace:
            metrics, samples = measure_traced(runner, args.seconds)
        else:
            metrics, samples = measure(runner, args.seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for problem in runner.problems:
        print(f"# problem: {problem}")
    if not metrics:
        print("no iteration completed; nothing to report", file=sys.stderr)
        return 1

    facts = machine_facts()
    facts["numpy"] = runner.numpy
    print("# machine: " + json.dumps(facts))
    config = ["polysieve", *runner.wl.argv(args.seed)] if not runner.wl.library else \
        {"n": HISTOGRAM_N, "H": HISTOGRAM_H, **runner.wl.config(args.seed)}
    print("# config: " + json.dumps({"workload": args.workload, "seed": args.seed,
                                     "trace": args.trace, "resolved": config}))
    print("# samples: " + json.dumps(samples))
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
