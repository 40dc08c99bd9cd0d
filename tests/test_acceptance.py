"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Expected values follow the conventions established in
the library docs; every nontrivial constant here was either derived from an
independent oracle in this file or cross-checked exactly.
"""

import itertools
import math
import time
from decimal import Decimal, getcontext
from fractions import Fraction

import numpy as np
import pytest

from polysieve import _ints
from polysieve.charsum import (
    GENERAL,
    MONIC,
    SmoothWeight,
    dft_point,
    dft_point_direct,
    max_nonzero_phase,
    poisson_check,
    weight_table,
)
from polysieve.fppoly import FpPoly, is_odd_poly, mobius_pn
from polysieve.almostprime import (
    build_disc_sequence,
    count_almost_prime,
    delta_r,
    density_remainder,
    field_exponent,
    min_admissible_r,
)
from polysieve.sieve import (
    LocalMatrix,
    count_an_box,
    diagonalization_sum,
    hit_exponent,
    nu_weight,
    qf_value,
    selberg_weights,
    verify_modified_selberg,
)
from polysieve.zpoly import square_disc_scan, tau_mu_sqfree


def report(num: int, message: str, started: float, limit: float | None = None):
    elapsed = time.perf_counter() - started
    print(f"[acceptance] criterion {num:2d} PASS ({elapsed:6.1f}s): {message}")
    if limit is not None:
        assert elapsed < limit, f"criterion {num} exceeded its {limit}s runtime budget"


def test_criterion_01_parity_law():
    started = time.perf_counter()
    for p in (2, 3, 5):
        for n in (2, 3, 4):
            target = (-1) ** (n + 1)
            for lead in range(1, p):
                for vec in itertools.product(range(p), repeat=n):
                    f = FpPoly(p, vec + (lead,))
                    assert is_odd_poly(f) == (mobius_pn(f, n) == target)
    report(1, "parity <-> Mobius sign law, exhaustive p in {2,3,5}, n in {2,3,4}",
           started, limit=10)


ZERO_PHASE_GRID = [(p, n) for p in (3, 5, 7, 11) for n in (3, 4)]


def test_criterion_02_zero_phase_exactness():
    started = time.perf_counter()
    for p, n in ZERO_PHASE_GRID:
        for mode in (GENERAL, MONIC):
            w = weight_table(p, n, mode, "mobius-half")
            assert abs(w.dft()[(0,) * w.dim] - 0.5) < 1e-10
        ws = weight_table(p, n, MONIC, "squarefree-complement")
        assert abs(ws.dft()[(0,) * n] - 1 / p) < 1e-10
    report(2, "zero phase = 1/2 (mobius-half) and 1/p (squarefree complement)",
           started, limit=120)


SQUAREFREE_SCANS = [(p, n) for n in (3, 4) for p in (3, 5, 7, 11, 13)]


def test_criterion_03_squarefree_decay():
    started = time.perf_counter()
    for p, n in SQUAREFREE_SCANS:
        w = weight_table(p, n, MONIC, "squarefree-complement")
        scan = max_nonzero_phase(w)
        assert scan.max_abs <= 3.5 / p ** 2, (p, n, scan)
    report(3, "squarefree-complement decay max |psi_hat| <= 3.5 p^-2 over all phases",
           started, limit=600)


def test_criterion_04_mobius_decay_trend():
    started = time.perf_counter()
    n = 3
    ratios = {}
    for p in (3, 5, 7):
        w = weight_table(p, n, GENERAL, "mobius-half")
        scan = max_nonzero_phase(w)
        ratios[p] = scan.max_abs * p ** ((n - 1) / 4)
    assert ratios[7] <= 2 * ratios[3], ratios
    report(4, f"mobius-half normalized decay C(7)={ratios[7]:.3f} "
              f"<= 2*C(3)={2 * ratios[3]:.3f}", started, limit=120)


def test_criterion_05_crt_and_parseval():
    started = time.perf_counter()
    rng = np.random.default_rng(20240810)
    for d in (6, 10, 15):
        for _ in range(20):
            u = tuple(rng.integers(0, d, size=3).tolist())
            got = dft_point(d, 3, MONIC, "mobius-half", u)
            want = dft_point_direct(d, 3, MONIC, "mobius-half", u)
            assert abs(got - want) < 1e-10
    # Parseval on every full transform used by criteria 2-4
    tables = [weight_table(p, n, mode, "mobius-half")
              for p, n in ZERO_PHASE_GRID for mode in (GENERAL, MONIC)]
    tables += [weight_table(p, n, MONIC, "squarefree-complement")
               for p, n in SQUAREFREE_SCANS]
    tables += [weight_table(p, 3, GENERAL, "mobius-half") for p in (3, 5, 7)]
    for w in tables:
        lhs = float((np.abs(w.dft()) ** 2).sum())
        rhs = float((np.abs(w.values) ** 2).sum()) / w.size
        assert abs(lhs - rhs) < 1e-10
    report(5, f"CRT product = direct summation (60 phases) and Parseval on "
              f"{len(tables)} tables", started)


def test_criterion_06_poisson_identity():
    started = time.perf_counter()
    for rule in ("mobius-half", "squarefree"):
        for d in (1, 5, 6):
            for H in (4, 6):
                rep = poisson_check(3, MONIC, d, H, rule)
                assert rep.rel_diff < 1e-6, (rule, d, H, rep)
    report(6, "lattice sum = dual sum to 1e-6 relative, 12 configurations",
           started, limit=60)


def test_criterion_07_modified_selberg_inequality():
    started = time.perf_counter()
    margins = []
    for mode in (MONIC, GENERAL):
        for H in (3, 5, 8):
            for D in (4, 6, 10):
                rep = verify_modified_selberg(3, H, D, mode)
                margins.append(rep.margin)
                assert rep.margin >= -1e-9, rep
    report(7, f"sieve inequality on 18 configurations, min margin "
              f"{min(margins):.3e}", started, limit=600)


def test_criterion_08_qf_certificate():
    started = time.perf_counter()
    from polysieve.zpoly import ZPoly

    survivors, _ = square_disc_scan(3, 6, monic=True)
    assert survivors
    weights = {D: selberg_weights(D) for D in (4, 8)}
    for coeffs, disc in survivors:
        f = ZPoly.from_coeffs(coeffs)
        bound = Fraction(1, 2 ** _ints.omega(disc))
        for D, w in weights.items():
            q = qf_value(f, w, 3)
            assert q >= bound - Fraction(1, 10 ** 9)
            assert q >= bound  # exact rational arithmetic: no slack needed
        for p in _ints.primes_up_to(8):
            assert LocalMatrix.from_nu(p, nu_weight(f, p, 3)).is_psd()
    report(8, f"Q_f >= 2^-omega(disc) on {len(survivors)} square-discriminant "
              f"polynomials, D in {{4, 8}}; local blocks PSD", started)


def test_criterion_09_sieve_weight_identities():
    started = time.perf_counter()
    for D in range(1, 51):
        w = selberg_weights(D)
        assert w.lam[1] == 1
        assert sum(_ints.mobius(e) * xi for e, xi in w.xi.items()) == 1
        assert diagonalization_sum(w) == Fraction(1, w.C)
    for d1 in _ints.squarefree_up_to(200):
        for d2 in _ints.squarefree_up_to(200):
            rec = tau_mu_sqfree(d1, d2)
            assert rec.lhs == rec.rhs
    report(9, "lambda_1 = 1, sum mu(e) xi_e = 1, diagonalization = 1/C for "
              "D <= 50, divisor identity for all squarefree pairs <= 200", started)


def test_criterion_10_slope_sanity():
    started = time.perf_counter()
    hs = [10, 20, 40]
    counts = [count_an_box(3, H, monic=True).count for H in hs]
    assert all(c > 0 for c in counts)
    logs_h = np.log(hs)
    logs_c = np.log(counts)
    slope = float(np.polyfit(logs_h, logs_c, 1)[0])
    theory = float(hit_exponent(3, True))
    assert slope <= theory + 0.3, (counts, slope)
    report(10, f"square-disc monic cubic counts {counts}, fitted slope "
               f"{slope:.3f} <= {theory} + 0.3", started, limit=300)


def test_criterion_11_linear_sieve_density():
    started = time.perf_counter()
    seq = build_disc_sequence(3, 50)
    worst = 0.0
    for d in (2, 3, 5, 6, 10):
        rep = density_remainder(seq, d)
        rel = abs(rep.remainder) / rep.main
        worst = max(worst, rel)
        assert rel < 0.01, (d, rel)
    report(11, f"divisor-mass main terms H^n phi_hat(0)/d accurate to "
               f"{worst:.2%} (< 1%) for d in {{2,3,5,6,10}}", started, limit=300)


def test_criterion_12_admissibility_arithmetic():
    started = time.perf_counter()
    # at r = 1 the formula gives exactly 1 (equality, not strict): the strict
    # upper bracket starts at r = 2
    assert delta_r(1) == 1.0
    assert 1 - 0.27 < delta_r(1) <= 1
    for r in range(2, 51):
        d = delta_r(r)
        assert r - 0.27 < d < r
    for n in range(3, 13):
        assert min_admissible_r(n) <= 2 * n - 3
    getcontext().prec = 40
    d3 = 3 + (Decimal(3) / 4 * (1 + Decimal(3) ** -3)).ln() / Decimal(3).ln()
    assert abs(delta_r(3) - float(d3)) < 1e-3
    assert abs(delta_r(3) - 2.7712) < 1e-3
    report(12, "level-exponent bracket on [1, 50] (equality at r = 1), "
               "min admissible r <= 2n-3 for n in [3, 12], delta_3 = 2.7712",
           started)


def test_criterion_13_almost_prime_stability():
    started = time.perf_counter()
    ratios = {}
    for H in (30, 60):
        c = count_almost_prime(3, H, 3)
        assert c > 0
        ratios[H] = c / (H ** 3 / math.log(H))
    big, small = max(ratios.values()), min(ratios.values())
    assert big / small < 2, ratios
    report(13, f"almost-prime count ratios to H^3/log H: "
               f"{ratios[30]:.2f} vs {ratios[60]:.2f} (factor "
               f"{big / small:.3f} < 2)", started, limit=300)


def test_criterion_14_exponent_calculators():
    started = time.perf_counter()
    assert hit_exponent(3, True) == Fraction(5, 2)
    assert hit_exponent(3, False) == Fraction(7, 2)
    assert field_exponent(3, 1)[0] == Fraction(3, 5)
    report(14, "hit exponents 5/2 and 7/2, field-count exponent 3/5, exact",
           started)
