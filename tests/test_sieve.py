"""Tests for the sieve weights, the quadratic form, and the verified
upper-bound inequality.

Oracles: a second, independent evaluation of the weight formulas in exact
rationals; hand enumeration of the 9-polynomial quadratic box; eigenvalue
checks of assembled Gram matrices.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from polysieve._ints import mobius, omega, prime_factors, squarefree_up_to, tau
from polysieve.charsum import (
    GENERAL,
    MONIC,
    SmoothWeight,
    contraction_cost,
    table_build_cost,
    weight_table,
)
from polysieve.errors import BudgetExceededError
from polysieve.sieve import (
    AnBoxCount,
    LocalMatrix,
    SieveWeights,
    count_an_box,
    diagonalization_sum,
    hit_exponent,
    nu_weight,
    optimal_d,
    pair_weights,
    qf_gram,
    qf_value,
    selberg_weights,
    verify_modified_selberg,
)
from polysieve.zpoly import ZPoly, discriminant, gal_in_an, ldisc


def formula_lambda(d: int, D: int) -> Fraction:
    # independent evaluation of the inversion formula, term by term
    sq = squarefree_up_to(D)
    C = len(sq)
    total = Fraction(0)
    for e in sq:
        if e % d == 0:
            total += Fraction(mobius(e) * mobius(e), C)
    return mobius(d) * tau(d) * total


class TestSelbergWeights:
    def test_level_one(self):
        w = selberg_weights(1)
        assert w.lam == {1: Fraction(1)} and w.C == 1

    def test_level_three_frozen(self):
        w = selberg_weights(3)
        assert w.C == 3
        assert w.lam[2] == formula_lambda(2, 3) == Fraction(-2, 3)
        assert w.lam[3] == Fraction(-2, 3)

    def test_xi_normalization(self):
        for D in (1, 2, 3, 10, 37, 60):
            w = selberg_weights(D)
            assert sum(mobius(e) * x for e, x in w.xi.items()) == 1

    def test_matches_formula(self):
        for D in (2, 5, 12, 30):
            w = selberg_weights(D)
            for d in w.lam:
                assert w.lam[d] == formula_lambda(d, D)

    def test_lambda_bounds(self):
        w = selberg_weights(200)
        for d, l in w.lam.items():
            assert abs(l) <= tau(d)

    def test_diagonalization_identity(self):
        for D in (1, 4, 17, 50):
            w = selberg_weights(D)
            assert diagonalization_sum(w) == Fraction(1, w.C)

    def test_lambda_one_forced(self):
        with pytest.raises(ValueError):
            SieveWeights(2, 2, {1: Fraction(2)}, {})


class TestNuWeight:
    def test_sign_table_cubic(self):
        # x^3 - 3x + 1 has square discriminant 81; away from 3 its nu is 0 or 1/2
        f = ZPoly.from_coeffs([1, -3, 0, 1])
        assert discriminant(f) == 81
        for p in (2, 5, 7, 11):
            assert nu_weight(f, p, 3) in (Fraction(0), Fraction(1, 2))

    def test_dividing_ldisc_gives_half(self):
        f = ZPoly.from_coeffs([1, -3, 0, 1])
        assert ldisc(f) % 3 == 0
        assert nu_weight(f, 3, 3) == Fraction(1, 2)

    def test_odd_reduction_gives_one(self):
        from polysieve.fppoly import is_odd_poly
        from polysieve.zpoly import enumerate_box, reduce_mod

        for f in enumerate_box(3, 2, monic=True):
            red = reduce_mod(f, 3)
            expected = Fraction(1) if (red.degree == 3 and is_odd_poly(red)) else None
            if expected is not None:
                assert nu_weight(f, 3, 3) == expected


class TestLocalMatrix:
    def test_three_forms_psd_and_eigenvalues(self):
        cases = {
            Fraction(1): [2.0, 0.0],
            Fraction(0): [1.0, 0.0],
            Fraction(1, 2): [(3 + math.sqrt(5)) / 4, (3 - math.sqrt(5)) / 4],
        }
        for nu, eigs in cases.items():
            m = LocalMatrix.from_nu(2, nu)
            assert m.is_psd()
            arr = np.array([[float(x) for x in row] for row in m.entries])
            got = sorted(np.linalg.eigvalsh(arr), reverse=True)
            assert np.allclose(got, sorted(eigs, reverse=True))

    def test_not_psd_outside_unit_interval(self):
        assert not LocalMatrix.from_nu(2, Fraction(3, 2)).is_psd()


class TestQf:
    def test_level_one(self):
        f = ZPoly.from_coeffs([1, -3, 0, 1])
        assert qf_value(f, selberg_weights(1), 3) == 1

    def test_certificate_small_box(self):
        w4 = selberg_weights(4)
        found = 0
        from polysieve.zpoly import enumerate_box

        for f in enumerate_box(3, 3, monic=True):
            if not gal_in_an(f):
                continue
            found += 1
            bound = Fraction(1, 2 ** omega(discriminant(f)))
            assert qf_value(f, w4, 3) >= bound
        assert found > 0

    def test_matches_double_loop(self):
        # the lcm-aggregated form against the defining double sum over
        # (d1, d2), exactly
        rng = random.Random(7)
        for D in (1, 4, 6, 10):
            w = selberg_weights(D)
            for _ in range(5):
                f = ZPoly.from_coeffs([rng.randint(-9, 9) for _ in range(3)] + [1])
                want = Fraction(0)
                for d1, l1 in w.lam.items():
                    for d2, l2 in w.lam.items():
                        term = l1 * l2
                        for p in set(prime_factors(d1)) | set(prime_factors(d2)):
                            term *= nu_weight(f, p, 3)
                        want += term
                assert qf_value(f, w, 3) == want

    def test_pair_weights_keys_and_total(self):
        # keys are the lcms of the support, ascending; the weights add up
        # to (sum_d lambda_d)^2
        w = selberg_weights(10)
        pw = pair_weights(w)
        assert list(pw) == sorted({math.lcm(a, b) for a in w.lam for b in w.lam})
        assert sum(pw.values()) == sum(w.lam.values()) ** 2

    def test_gram_psd_random(self):
        rng = random.Random(99)
        for _ in range(50):
            coeffs = [rng.randint(-10, 10) for _ in range(3)] + [1]
            f = ZPoly.from_coeffs(coeffs)
            ds, g = qf_gram(f, rng.choice([4, 6, 10]), 3)
            assert np.linalg.eigvalsh(g).min() >= -1e-9
            lam = np.array([rng.uniform(-2, 2) for _ in ds])
            assert lam @ g @ lam >= -1e-9


class TestVerify:
    def test_level_one_smoke(self):
        rep = verify_modified_selberg(3, 3, 1, MONIC)
        assert rep.margin >= -1e-9
        assert rep.lhs > 0

    def test_monic_small(self):
        rep = verify_modified_selberg(3, 3, 4, MONIC)
        assert rep.margin >= -1e-9
        assert rep.rhs > rep.lhs > 0

    def test_general_small(self):
        rep = verify_modified_selberg(3, 3, 4, GENERAL)
        assert rep.margin >= -1e-9

    def test_budget_charges_contractions_tables_and_box(self):
        # (3, 3, 4) monic: a CRT-split contraction per pair modulus, the
        # p = 2, 3 table builds and the left side's box
        phi = SmoothWeight.box_calibrated(3)
        moduli = pair_weights(selberg_weights(4))
        est = (sum(contraction_cost(m, 3) for m in moduli)
               + table_build_cost(2, 3) + table_build_cost(3, 3)
               + (2 * phi.lattice_radius(3, 1e-16) + 1) ** 3)
        verify_modified_selberg(3, 3, 4, MONIC, phi=phi, budget=est)
        with pytest.raises(BudgetExceededError):
            verify_modified_selberg(3, 3, 4, MONIC, phi=phi, budget=est - 1)

    def test_budget_refused_before_tables(self):
        weight_table.cache_clear()
        started = time.perf_counter()
        with pytest.raises(BudgetExceededError):
            verify_modified_selberg(3, 20, 30, MONIC, budget=10 ** 7)
        assert time.perf_counter() - started < 1.0
        assert weight_table.cache_info().misses == 0

    def test_rhs_independent_of_engine_small(self):
        # brute-force recomputation of the right side over an explicit box
        n, H, D, mode = 3, 2, 3, MONIC
        phi = SmoothWeight.box_calibrated(3)
        rep = verify_modified_selberg(n, H, D, mode, phi=phi)
        w = selberg_weights(D)
        R = phi.lattice_radius(H, 1e-16)
        from polysieve.sieve import lcm, nu_weight

        rhs = 0.0
        span = range(-R, R + 1)
        from itertools import product as iproduct

        for d1, l1 in w.lam.items():
            for d2, l2 in w.lam.items():
                m = lcm(d1, d2)
                primes = [p for p in (2, 3) if m % p == 0]
                inner = 0.0
                for vec in iproduct(span, repeat=3):
                    f = ZPoly.from_coeffs(list(vec) + [1])
                    val = phi.value([v / H for v in vec])
                    for p in primes:
                        val *= float(nu_weight(f, p, n))
                    inner += val
                rhs += float(l1 * l2) * inner
        assert abs(rhs - rep.rhs) < 1e-6 * abs(rep.rhs)

    @pytest.mark.parametrize("mode", [MONIC, GENERAL])
    def test_lhs_matches_direct_sum(self, mode):
        # left side against phi(f/H) / 2^omega(LDisc f) summed pointwise
        n, H = 3, 1
        phi = SmoothWeight.box_calibrated(4 if mode == GENERAL else 3)
        rep = verify_modified_selberg(n, H, 1, mode, phi=phi)
        from polysieve.zpoly import enumerate_box

        direct = 0.0
        for f in enumerate_box(n, rep.radius, monic=mode == MONIC):
            d = discriminant(f)
            if d > 0 and math.isqrt(d) ** 2 == d:
                free = f.coeffs if mode == GENERAL else f.coeffs[:n]
                direct += phi.value([c / H for c in free]) / 2 ** omega(abs(ldisc(f)))
        assert abs(rep.lhs - direct) <= 1e-12 * direct

    def test_strict_mode_raises_on_fabricated_violation(self):
        # a weight vector that breaks lambda_1 = 1 cannot be built at all
        with pytest.raises(ValueError):
            SieveWeights(4, 3, {1: Fraction(0), 2: Fraction(1)}, {})


class TestExponents:
    def test_cubic_values(self):
        assert hit_exponent(3, True) == Fraction(5, 2)
        assert hit_exponent(3, False) == Fraction(7, 2)

    def test_degree_eight_monic(self):
        assert hit_exponent(8, True) == Fraction(8) - Fraction(2, 3) + Fraction(2, 27)

    def test_requires_n_three(self):
        with pytest.raises(ValueError):
            hit_exponent(2, True)

    def test_optimal_d_floor_clamp(self):
        assert optimal_d(3, 2, True) >= 1

    def test_optimal_d_frozen_value(self):
        # 100^(1/2) * (log 100)^(-1/3) = 6.01... -> 6
        assert optimal_d(3, 100, True) == math.floor(10 * math.log(100) ** (-1 / 3)) == 6

    def test_optimal_d_monotone(self):
        for monic in (True, False):
            vals = [optimal_d(3, H, monic) for H in (10, 100, 1000)]
            assert vals == sorted(vals)


class TestCountAnBox:
    def test_hand_enumerated_quadratics(self):
        # all nine monic x^2 + bx + c with |b|, |c| <= 1: square nonzero
        # discriminants are b^2 - 4c in {1, 4, 1} at (b,c) = (-1,0), (0,-1), (1,0)
        table = {}
        for b in (-1, 0, 1):
            for c in (-1, 0, 1):
                table[(b, c)] = b * b - 4 * c
        expect = sum(1 for v in table.values() if v > 0 and math.isqrt(v) ** 2 == v)
        assert expect == 3
        res = count_an_box(2, 1, monic=True)
        assert res.count == 3
        assert res.degenerate == 1  # x^2 alone
        assert count_an_box(2, 1, monic=True, include_degenerate=True).count == 4

    def test_weighted_below_count(self):
        res = count_an_box(3, 6, monic=True)
        assert 0 < float(res.weighted) <= res.count

    @pytest.mark.parametrize("n,H,monic", [(3, 2, False), (4, 1, False), (3, 3, True)])
    def test_weighted_matches_ldisc_oracle(self, n, H, monic):
        from polysieve.zpoly import enumerate_box

        want = Fraction(0)
        for f in enumerate_box(n, H, monic):
            if gal_in_an(f):
                want += Fraction(1, 2 ** omega(abs(ldisc(f))))
        assert count_an_box(n, H, monic).weighted == want

    def test_matches_direct_scan(self):
        from polysieve.zpoly import enumerate_box

        res = count_an_box(3, 4, monic=True)
        direct = sum(1 for f in enumerate_box(3, 4, monic=True) if gal_in_an(f))
        assert res.count == direct
