"""The benchmark's tracer rebinds polysieve functions by name from outside
the package (perfbench/tracing.py).  Installing it here checks that every
name it rebinds still exists and is one function across its aliases, and
that each monic table polynomial is classified by exactly one call through
the rebound `charsum` globals, which the exact counter
`fppoly.polys_classified` counts, and that every hook still finds the
arguments and result fields it reads by name."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from polysieve import _ints, almostprime, charsum, sieve, zpoly

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def new_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


@pytest.fixture
def tracer():
    t = new_tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def test_install_rebinds_and_uninstall_restores():
    originals = {(m, a): getattr(m, a) for m, a in [
        (charsum, "_mobius"), (charsum, "_is_squarefree"), (charsum, "weight_table"),
        (charsum, "lattice_weight_sum"), (sieve, "lattice_weight_sum"),
        (almostprime, "discriminant"), (almostprime, "disc_values_monic3"),
        (zpoly, "discriminant"), (sieve, "square_disc_scan")]}
    t = new_tracer()
    t.install()
    try:
        for (m, a), fn in originals.items():
            assert getattr(m, a).__wrapped__ is fn, f"{m.__name__}.{a}"
    finally:
        t.uninstall()
    for (m, a), fn in originals.items():
        assert getattr(m, a) is fn, f"{m.__name__}.{a}"


@pytest.mark.parametrize("p,n,rule", [(3, 3, "mobius-half"), (2, 4, "mobius-half"),
                                      (5, 2, "squarefree-complement")])
def test_one_classify_span_per_table_polynomial(tracer, p, n, rule):
    charsum._monic_table(p, n, rule)
    assert sum(s[0] == "fppoly.classify" for s in tracer.spans) == p ** n


def test_hooks_fill_their_counters():
    # each hook reads arguments (omega_batch's `values`, square_disc_scan's
    # `n`, `R` and `monic`, lattice_weight_sum's `d`, max_nonzero_phase's
    # `w`) or result fields (the DiscSequence's `radius`, `n` and `ms`) by
    # name: one call each on a tiny input fills exact counters
    t = new_tracer()
    t.install()
    try:
        _ints.omega_batch(np.array([6, 10, -15, 6]))
        survivors = zpoly.square_disc_scan(3, 1, True)[0]
        charsum.lattice_weight_sum(5, 3, charsum.MONIC, "mobius-half",
                                   charsum.SmoothWeight(), 2.0)
        charsum.max_nonzero_phase(charsum.weight_table(3, 3, charsum.MONIC, "mobius-half"))
        seq = almostprime.build_disc_sequence(3, 1, radius=1)
    finally:
        t.uninstall()
    assert (seq.n, seq.radius) == (3, 1) and len(survivors) > 0
    counts = dict(t.counts)
    counts.pop("charsum.weight_table_builds")  # depends on what is cached
    assert counts == {
        "ints.omega_values": 4,
        "ints.omega_distinct": 3,
        "zpoly.scan_points": 27,
        "zpoly.scan_survivors": len(survivors),
        "charsum.lattice_sum_calls": 1,
        "charsum.lattice_modulus_total": 5,
        "charsum.phase_scan_entries": 27,
        "almostprime.lattice_points": 27,
        "almostprime.histogram_entries": seq.ms.size,
        "zpoly.closed_form_points": 27 + 18,  # the scan's box, the half box
    }
