"""The benchmark's tracer rebinds polysieve functions by name from outside
the package (perfbench/tracing.py).  Installing it here checks that every
name it rebinds still exists and is one function across its aliases, and
that each monic table polynomial is classified by exactly one call through
the rebound `charsum` globals, which the exact counter
`fppoly.polys_classified` counts."""

import importlib.util
from pathlib import Path

import pytest

from polysieve import almostprime, charsum, sieve, zpoly

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
