"""The benchmark's workloads: one fixed config each, led by a different
polysieve module.

A workload is either a CLI invocation (run through `polysieve.cli.main`,
the same path as `python -m polysieve`) or a library call sequence.  The
seed only permutes the order of the list-valued arguments; seed 0 keeps
the order written here.  Reports are compared as sets of rows, so every
seed has the same expected output.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    layer: str                  # module expected to hold most busy time
    report: str                 # "csv" or "json"
    command: tuple[str, ...] = ()          # CLI subcommand and fixed flags
    lists: dict[str, tuple[int, ...]] = field(default_factory=dict)
    exact_counts: tuple[str, ...] = ()     # traced counters that must repeat

    @property
    def library(self) -> bool:
        return not self.command

    def config(self, seed: int) -> dict[str, list[int]]:
        """List-valued arguments in the order the seed gives them."""
        rng = random.Random(seed)
        out = {}
        for key, values in self.lists.items():
            values = list(values)
            if seed:
                rng.shuffle(values)
            out[key] = values
        return out

    def argv(self, seed: int) -> list[str]:
        """CLI arguments for this seed (without --out)."""
        args = list(self.command)
        for key, values in self.config(seed).items():
            args += [key, ",".join(str(v) for v in values)]
        return args


WORKLOADS = {w.name: w for w in (
    Workload(
        name="fourier-both",
        why="F_p weight-table builds (fppoly DDF via charsum.weight_table) are "
            "~96% of busy time; the FFT phase scan is most of the rest, every cell exhaustive",
        layer="fppoly",
        report="csv",
        command=("fourier-scan", "--mode", "both", "--rule", "mobius-half",
                 "--budget", "1000000000000"),
        lists={"--p": (3, 5, 7, 11), "--n": (3, 4)},
        exact_counts=("fppoly.polys_classified", "charsum.weight_table_builds"),
    ),
    Workload(
        name="sieve-monic",
        why="charsum.lattice_weight_sum is ~85% of busy time (table builds ~11%); "
            "four cells run on the CLI thread pool, so CPU exceeds wall",
        layer="charsum",
        report="json",
        command=("sieve-verify", "--n", "3", "--mode", "monic"),
        lists={"--H": (8, 12), "--D": (12, 16)},
        exact_counts=("charsum.lattice_sum_calls", "charsum.lattice_modulus_total"),
    ),
    Workload(
        name="almost-prime",
        why="_ints.omega_batch factoring of cubic discriminants is ~99% of busy "
            "time; the zpoly closed form is under 1% and charsum/fppoly are never called",
        layer="ints",
        report="csv",
        command=("count", "--kind", "almost-prime", "--n", "3", "--r", "3"),
        lists={"--H": (20, 30)},
        exact_counts=("ints.omega_values",),
    ),
    Workload(
        name="disc-histogram",
        why="build_disc_sequence(3, 30) then density_remainder for d in {2,3,5,6,10}: "
            "~96% histogram aggregation, no factoring; the peak_rss_mb stressor",
        layer="almostprime",
        report="json",
        lists={"d": (2, 3, 5, 6, 10)},
        exact_counts=("almostprime.lattice_points", "almostprime.histogram_entries"),
    ),
    Workload(
        name="quartic-count",
        why="per-polynomial Bareiss zpoly.discriminant is ~90% of busy time, box "
            "enumeration the rest: the only n != 3 path; _ints is under 1%",
        layer="zpoly",
        report="csv",
        command=("count", "--kind", "an-count", "--n", "4", "--mode", "monic"),
        lists={"--H": (3, 5, 7)},
        exact_counts=("zpoly.disc_calls",),
    ),
)}

# The library workload's fixed arguments.
HISTOGRAM_N = 3
HISTOGRAM_H = 30
