"""Traced runs: spans around the public functions of each polysieve module.

The tracer wraps functions from outside, by rebinding module attributes,
so the package itself carries no instrumentation.  Every alias a module
imported under its own name is rebound too; internals that look a name up
as a module global then reach the wrapper.  Spans are kept in memory as
[name, start, end, parent, thread, cpu_start, cpu_end] and turned into
per-layer metrics (and optionally written out) when the traced workload
ends.

A span's layer is the part of its name before the first dot.  Each span
records wall-clock and thread-CPU readings at both ends.  Children normally
run on the parent's thread; a span opened on a worker thread with an empty
stack is a child of the open root span (the CLI entry point, whose pool
started the worker).  Layer costs are CPU self times: a span's thread CPU
minus that of its children on the same thread.  Under the CLI thread pool,
threads wait on each other for the interpreter lock, which inflates
wall-clock spans but not thread CPU.
"""

from __future__ import annotations

import inspect
import json
import threading
from collections import defaultdict
from time import perf_counter, thread_time

import numpy as np

LAYERS = ("cli", "fppoly", "charsum", "zpoly", "ints", "sieve", "almostprime")

NAME, START, END, PARENT, THREAD, CPU_START, CPU_END = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._local = threading.local()
        self._root: list | None = None
        self._saved: list[tuple[object, str, object]] = []
        self._omega_inputs: list[np.ndarray] = []
        self._table_cache_info = None
        self._table_misses0 = 0

    # -- span recording ----------------------------------------------------

    def wrap(self, fn, name: str, hook=None):
        """Wrapper that records a span per call; hook(bound_args, result)
        updates counters after the call returns."""
        local = self._local
        spans = self.spans
        sig = inspect.signature(fn) if hook else None

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if stack:
                parent = stack[-1]
            else:
                parent = self._root
            rec = [name, perf_counter(), 0.0, parent, threading.get_ident(),
                   thread_time(), 0.0]
            spans.append(rec)
            stack.append(rec)
            if parent is None:
                self._root = rec
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[CPU_END] = thread_time()
                rec[END] = perf_counter()
                stack.pop()
                if self._root is rec:
                    self._root = None
            if hook:
                hook(sig.bind(*args, **kwargs).arguments, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _rebind(self, modules, attr: str, name: str, hook=None):
        original = getattr(modules[0], attr)
        wrapper = self.wrap(original, name, hook)
        for module in modules:
            if getattr(module, attr) is not original:
                raise RuntimeError(f"{module.__name__}.{attr} is not the same function")
            self._saved.append((module, attr, original))
            setattr(module, attr, wrapper)

    # -- installation --------------------------------------------------------

    def install(self):
        from polysieve import _ints, almostprime, charsum, cli, sieve, zpoly

        counts = self.counts

        def on_phase_scan(a, _res):
            counts["charsum.phase_scan_entries"] += a["w"].size

        def on_lattice_sum(a, _res):
            counts["charsum.lattice_sum_calls"] += 1
            counts["charsum.lattice_modulus_total"] += a["d"]

        def on_omega(a, _res):
            vals = np.abs(np.asarray(a["values"], dtype=np.int64)).ravel()
            counts["ints.omega_values"] += vals.size
            self._omega_inputs.append(vals)

        def on_histogram(_a, seq):
            counts["almostprime.lattice_points"] += (2 * seq.radius + 1) ** seq.n
            counts["almostprime.histogram_entries"] += int(seq.ms.size)

        def on_closed_form(_a, res):
            counts["zpoly.closed_form_points"] += int(np.size(res))

        def on_scan(a, res):
            width = 2 * a["R"] + 1
            box = width ** a["n"] if a["monic"] else width ** a["n"] * 2 * a["R"]
            counts["zpoly.scan_points"] += box
            counts["zpoly.scan_survivors"] += len(res[0])

        self._table_misses0 = charsum.weight_table.cache_info().misses
        self._table_cache_info = charsum.weight_table.cache_info
        self._rebind([cli], "main", "cli.main")
        self._rebind([charsum], "weight_table", "charsum.weight_table")
        self._rebind([charsum], "_mobius", "fppoly.classify")
        self._rebind([charsum], "_is_squarefree", "fppoly.classify")
        self._rebind([charsum], "max_nonzero_phase", "charsum.phase_scan", on_phase_scan)
        self._rebind([charsum, sieve], "lattice_weight_sum", "charsum.lattice_sum",
                     on_lattice_sum)
        self._rebind([sieve], "verify_modified_selberg", "sieve.cell")
        self._rebind([sieve], "selberg_weights", "sieve.weights")
        self._rebind([sieve], "count_an_box", "sieve.an_box")
        self._rebind([_ints], "omega_batch", "ints.omega", on_omega)
        self._rebind([almostprime], "build_disc_sequence", "almostprime.histogram",
                     on_histogram)
        self._rebind([almostprime], "count_almost_prime", "almostprime.count")
        self._rebind([almostprime], "density_remainder", "almostprime.density")
        self._rebind([zpoly, almostprime], "discriminant", "zpoly.disc")
        self._rebind([zpoly, almostprime], "disc_values_monic3", "zpoly.closed_form",
                     on_closed_form)
        self._rebind([zpoly, sieve], "square_disc_scan", "zpoly.scan", on_scan)

    def uninstall(self):
        misses = self._table_cache_info().misses
        self.counts["charsum.weight_table_builds"] += misses - self._table_misses0
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        if self._omega_inputs:
            distinct = np.unique(np.concatenate(self._omega_inputs)).size
            self.counts["ints.omega_distinct"] = int(distinct)
            self._omega_inputs.clear()

    # -- output --------------------------------------------------------------

    def export(self) -> list[dict]:
        """Spans as dicts with integer ids; parent is an id or None."""
        ids = {id(rec): i for i, rec in enumerate(self.spans)}
        return [{"name": rec[NAME], "start": rec[START], "end": rec[END],
                 "parent": ids[id(rec[PARENT])] if rec[PARENT] is not None else None,
                 "thread": rec[THREAD], "cpu_start": rec[CPU_START],
                 "cpu_end": rec[CPU_END]}
                for rec in self.spans]

    def write(self, path, spans: list[dict]):
        with open(path, "w", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")


def cpu_self_times(spans: list[dict]) -> list[float]:
    """CPU self time per span: its thread CPU minus that of its children on
    the same thread (a child on another thread uses another thread's CPU)."""
    out = [span["cpu_end"] - span["cpu_start"] for span in spans]
    for span in spans:
        parent = span["parent"]
        if parent is not None and spans[parent]["thread"] == span["thread"]:
            out[parent] -= span["cpu_end"] - span["cpu_start"]
    return out


def layer_metrics(spans: list[dict], counts: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics of one traced workload run.  Times are thread CPU
    seconds (busy time); sieve.cell_overlap is cell CPU over the wall-clock
    extent of the cells, i.e. how many cores the pool kept busy."""
    cpu_self = cpu_self_times(spans)
    busy = defaultdict(float)    # CPU self time by span name
    cpu = defaultdict(float)     # CPU time of outermost spans by name
    calls = defaultdict(int)
    cells = []
    for span, own in zip(spans, cpu_self):
        name = span["name"]
        calls[name] += 1
        busy[name] += own
        parent = span["parent"]
        if parent is None or spans[parent]["name"] != name:
            cpu[name] += span["cpu_end"] - span["cpu_start"]
        if name == "sieve.cell":
            cells.append((span["start"], span["end"]))

    def per(total, n, scale=1.0):
        return total * scale / n if n else 0.0

    layer_busy = defaultdict(float)
    for name, own in busy.items():
        layer_busy[name.split(".", 1)[0]] += own
    total_busy = sum(layer_busy.values())
    cell_wall = (max(e for _, e in cells) - min(s for s, _ in cells)) if cells else 0.0
    c = defaultdict(int, counts)
    m = {
        "fppoly.polys_classified": calls["fppoly.classify"],
        "fppoly.us_per_poly": per(cpu["fppoly.classify"], calls["fppoly.classify"], 1e6),
        "charsum.weight_table_builds": c["charsum.weight_table_builds"],
        "charsum.weight_table_s": cpu["charsum.weight_table"],
        "charsum.phase_scan_s": cpu["charsum.phase_scan"],
        "charsum.phase_scan_entries": c["charsum.phase_scan_entries"],
        "charsum.lattice_sum_calls": c["charsum.lattice_sum_calls"],
        "charsum.lattice_modulus_total": c["charsum.lattice_modulus_total"],
        "charsum.lattice_sum_s": cpu["charsum.lattice_sum"],
        "charsum.lattice_ms_per_call": per(cpu["charsum.lattice_sum"],
                                           c["charsum.lattice_sum_calls"], 1e3),
        "sieve.cells": calls["sieve.cell"],
        "sieve.cell_busy_s": cpu["sieve.cell"],
        "sieve.cell_overlap": per(cpu["sieve.cell"], cell_wall),
        "sieve.weights_s": cpu["sieve.weights"],
        "ints.omega_values": c["ints.omega_values"],
        "ints.omega_distinct": c["ints.omega_distinct"],
        "ints.omega_s": cpu["ints.omega"],
        "ints.us_per_omega_value": per(cpu["ints.omega"], c["ints.omega_values"], 1e6),
        "almostprime.lattice_points": c["almostprime.lattice_points"],
        "almostprime.histogram_entries": c["almostprime.histogram_entries"],
        "almostprime.histogram_self_s": busy["almostprime.histogram"],
        "almostprime.count_self_s": busy["almostprime.count"],
        "zpoly.disc_calls": calls["zpoly.disc"],
        "zpoly.us_per_disc": per(cpu["zpoly.disc"], calls["zpoly.disc"], 1e6),
        "zpoly.closed_form_points": c["zpoly.closed_form_points"],
        "zpoly.closed_form_s": cpu["zpoly.closed_form"],
        "zpoly.scan_points": c["zpoly.scan_points"],
        "zpoly.scan_survivors": c["zpoly.scan_survivors"],
        "zpoly.scan_s": cpu["zpoly.scan"],
        "cli.self_s": busy["cli.main"],
    }
    for layer in LAYERS:
        m[f"{layer}.busy_share"] = per(layer_busy[layer], total_busy)
    return m


def dominant_layer(metrics: dict[str, float]) -> str:
    return max(LAYERS, key=lambda layer: metrics[f"{layer}.busy_share"])
