"""Rewrite perfbench/reference/ from the current program.

    python3 perfbench/record_reference.py [workload ...]

Runs each workload once, traced, with seed 0, and stores its report body
and its exact counters.  Only for a change that alters the reports or the
counted work on purpose; say why in that change.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    names = sys.argv[1:] or list(WORKLOADS)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=tmp_root) as tmp:
        for name in names:
            out = Path(tmp) / f"{name}.{WORKLOADS[name].report}"
            proc = subprocess.run([sys.executable, str(HERE / "child.py"),
                                   "--workload", name, "--out", str(out),
                                   "--trace", "--record"], cwd=ROOT, env=env)
            if proc.returncode != 0:
                print(f"{name}: recording failed", file=sys.stderr)
                return 1
            print(f"{name}: recorded")
    return 0


if __name__ == "__main__":
    sys.exit(main())
