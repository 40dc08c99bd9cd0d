"""Tests for the generated closed-form discriminants of degrees 2 to 6.

Oracles: the Sylvester/Bareiss route `_disc_sylvester`, which shares no
code with the generated module, the module's own term table evaluated
term by term, and the generator script, which must reproduce the
committed module exactly.
"""

import importlib.util
import random
from itertools import product
from pathlib import Path

import pytest

from polysieve import _discforms, zpoly
from polysieve.zpoly import _disc_sylvester, discriminant

GENERATOR = Path(__file__).resolve().parents[1] / "tools" / "gen_discforms.py"
DEGREES = range(2, 7)


def terms(n):
    """TERMS[n] as (coefficient, exponents of a_0..a_n) pairs."""
    return [(c, e) for c, *e in (map(int, row.split()) for row in _discforms.TERMS[n])]


def by_terms(n, coeffs):
    total = 0
    for c, exps in terms(n):
        term = c
        for a, e in zip(coeffs, exps):
            term *= a ** e
        total += term
    return total


def test_term_counts():
    assert {n: len(t) for n, t in _discforms.TERMS.items()} == {
        2: 2, 3: 5, 4: 16, 5: 59, 6: 246}
    assert sorted(_discforms.DISC) == list(DEGREES)
    for n in DEGREES:
        # distinct monomials, each of degree 2n - 2 and of weight n(n - 1)
        # with a_i weighted by i: Disc is homogeneous and isobaric
        exps = [tuple(e) for _c, e in terms(n)]
        assert len(set(exps)) == len(exps)
        assert {(sum(e), sum(i * k for i, k in enumerate(e))) for e in exps} == {
            (2 * n - 2, n * (n - 1))}


@pytest.mark.parametrize("n", DEGREES)
@pytest.mark.parametrize("height", [50, 10 ** 30])
def test_forms_match_sylvester(n, height):
    # general and monic points, negative and non-unit leading coefficients,
    # values far beyond int64 at the larger height
    rng = random.Random(1000 * n + len(str(height)))
    leads = [1, -1, 2, -3, height, -height]
    for i in range(300 if height == 50 else 40):
        coeffs = [rng.randint(-height, height) for _ in range(n)]
        coeffs.append(leads[i % len(leads)] if i < 60 else
                      rng.choice([-1, 1]) * rng.randint(1, height))
        want = _disc_sylvester(coeffs)
        assert _discforms.DISC[n](*coeffs) == want, coeffs
        assert by_terms(n, coeffs) == want, coeffs


@pytest.mark.parametrize("n", DEGREES)
def test_forms_match_sylvester_exhaustive(n):
    # every point of a small general box: a_n in {-2, -1, 1, 2}, the other
    # coefficients in [-R, R] with R = 2 up to cubics and 1 beyond
    span = range(-2, 3) if n <= 3 else range(-1, 2)
    for lead in (-2, -1, 1, 2):
        for vec in product(span, repeat=n):
            coeffs = vec + (lead,)
            assert _discforms.DISC[n](*coeffs) == _disc_sylvester(coeffs), coeffs


def test_dispatch_by_degree(monkeypatch):
    # n <= 6 never reaches the Sylvester route; n = 1 and n >= 7 do
    calls = []

    def sylvester(coeffs):
        calls.append(len(coeffs) - 1)
        return _disc_sylvester(coeffs)

    monkeypatch.setattr(zpoly, "_disc_sylvester", sylvester)
    for n in range(1, 9):
        discriminant(list(range(-n, 0)) + [2])
    assert calls == [1, 7, 8]


@pytest.mark.parametrize("n", [7, 8])
def test_sylvester_route_beyond_six(n):
    # x^n - 1 has Disc = (-1)^((n-1)(n-2)/2) n^n
    f = [-1] + [0] * (n - 1) + [1]
    assert discriminant(f) == (-1) ** ((n - 1) * (n - 2) // 2) * n ** n


def test_generated_module_is_current():
    pytest.importorskip("sympy")
    spec = importlib.util.spec_from_file_location("gen_discforms", GENERATOR)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    assert gen.render() == Path(_discforms.__file__).read_text(encoding="utf-8")
