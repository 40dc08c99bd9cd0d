"""Tests for the sieve weights, the quadratic form, and the verified
upper-bound inequality.

Oracles: a second, independent evaluation of the weight formulas in exact
rationals; the local factor nu_p by the distinct-degree split of f mod p
(`ddf_nu`), which shares no code with the discriminant rule of
`nu_weight` or of the weight tables; hand enumeration of the
9-polynomial quadratic box; eigenvalue checks of assembled Gram matrices.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from ddf_oracle import fp_normalize, is_odd_poly, mobius_pn
from polysieve._ints import mobius, omega, prime_factors, squarefree_up_to, tau
from polysieve.charsum import (
    GENERAL,
    MONIC,
    SmoothWeight,
    contraction_cost,
    table_build_cost,
    weight_table,
)
from polysieve import charsum, sieve
from polysieve.errors import BudgetExceededError
from polysieve.sieve import (
    AnBoxCount,
    SieveWeights,
    _an_weighted_lattice_sum,
    count_an_box,
    diagonalization_sum,
    hit_exponent,
    nu_weight,
    optimal_d,
    qf_value,
    selberg_weights,
    verify_modified_selberg,
)
from polysieve.zpoly import discriminant, enumerate_box, gal_in_an, ldisc


def ddf_nu(f, p: int, n: int) -> Fraction:
    """nu_p(f) = (1 + (-1)^(n+1) mu_{p,n}(f mod p)) / 2 by the
    distinct-degree split."""
    return Fraction(1 + (-1) ** (n + 1) * mobius_pn(fp_normalize(f, p), n), 2)


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
        f = (1, -3, 0, 1)
        assert discriminant(f) == 81
        for p in (2, 5, 7, 11):
            assert nu_weight(f, p, 3) in (Fraction(0), Fraction(1, 2))

    def test_dividing_ldisc_gives_half(self):
        f = (1, -3, 0, 1)
        assert ldisc(f) % 3 == 0
        assert nu_weight(f, 3, 3) == Fraction(1, 2)

    def test_odd_reduction_gives_one(self):
        for f in enumerate_box(3, 2, monic=True):
            red = fp_normalize(f, 3)
            expected = Fraction(1) if (red.degree == 3 and is_odd_poly(red)) else None
            if expected is not None:
                assert nu_weight(f, 3, 3) == expected

    def test_matches_ddf_oracle_grid(self):
        # general boxes of degree 2-5 against every target degree n in
        # {deg-1, deg, deg+1}: degree drops (p | a_n), vanishing and
        # non-residue discriminants, and p = 2 all occur
        seen = {"p | a_n": 0, "disc 0": 0, "n != deg": 0}
        values = {Fraction(0): 0, Fraction(1, 2): 0, Fraction(1): 0}
        cases = 0
        for deg, H in ((2, 4), (3, 2), (4, 1), (5, 1)):
            for f in enumerate_box(deg, H):
                disc = discriminant(f)
                for p in (2, 3, 5, 7, 11):
                    for n in (deg - 1, deg, deg + 1):
                        nu = nu_weight(f, p, n)
                        assert nu == ddf_nu(f, p, n), (f, p, n)
                        values[nu] += 1
                        seen["p | a_n"] += n == deg and f[-1] % p == 0
                        seen["disc 0"] += n == deg and disc == 0
                        seen["n != deg"] += n != deg
                        cases += 1
        assert cases == 26_940
        assert all(seen.values()) and all(values.values()), (seen, values)

    def test_rejects_bad_prime_or_degree(self):
        f = (1, -3, 0, 1)
        for p, n in ((4, 3), (1, 3), (3, 0)):
            with pytest.raises(ValueError):
                nu_weight(f, p, n)


def local_block(nu: Fraction) -> np.ndarray:
    """The 2x2 block [[1, nu], [nu, nu]] that one prime adds to the Gram
    matrix of Q_f, in floats for the eigenvalues."""
    return np.array([[1.0, float(nu)], [float(nu), float(nu)]])


class TestLocalMatrix:
    def test_three_forms_psd_and_eigenvalues(self):
        cases = {
            Fraction(1): [2.0, 0.0],
            Fraction(0): [1.0, 0.0],
            Fraction(1, 2): [(3 + math.sqrt(5)) / 4, (3 - math.sqrt(5)) / 4],
        }
        for nu, eigs in cases.items():
            # PSD exactly: diagonal 1 and nu, determinant nu - nu^2
            assert nu >= 0 and nu - nu * nu >= 0
            got = sorted(np.linalg.eigvalsh(local_block(nu)), reverse=True)
            assert np.allclose(got, sorted(eigs, reverse=True))

    def test_not_psd_outside_unit_interval(self):
        nu = Fraction(3, 2)
        assert nu - nu * nu < 0
        assert np.linalg.eigvalsh(local_block(nu)).min() < 0


class TestQf:
    def test_level_one(self):
        f = (1, -3, 0, 1)
        assert qf_value(f, selberg_weights(1), 3) == 1

    def test_certificate_small_box(self):
        w4 = selberg_weights(4)
        found = 0
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
                f = [rng.randint(-9, 9) for _ in range(3)] + [1]
                want = Fraction(0)
                for d1, l1 in w.lam.items():
                    for d2, l2 in w.lam.items():
                        term = l1 * l2
                        for p in set(prime_factors(d1)) | set(prime_factors(d2)):
                            term *= ddf_nu(f, p, 3)
                        want += term
                assert qf_value(f, w, 3) == want

    def test_pair_weights_keys_and_total(self):
        # keys are the lcms of the support, ascending; the weights add up
        # to (sum_d lambda_d)^2
        w = selberg_weights(10)
        pw = w.pair_weights
        assert list(pw) == sorted({math.lcm(a, b) for a in w.lam for b in w.lam})
        assert sum(pw.values()) == sum(w.lam.values()) ** 2

    def test_pair_weights_built_once(self):
        # one read-only mapping per SieveWeights, shared by every Q_f
        w = selberg_weights(10)
        pw = w.pair_weights
        assert w.pair_weights is pw
        with pytest.raises(TypeError):
            pw[1] = Fraction(0)
        assert dict(pw) == dict(selberg_weights(10).pair_weights)

    def test_gram_psd_random(self):
        # the Gram matrix of Q_f over squarefree d <= D, entries
        # prod_{p | [d1,d2]} nu_p(f), is PSD
        rng = random.Random(99)
        for _ in range(50):
            f = [rng.randint(-10, 10) for _ in range(3)] + [1]
            ds = squarefree_up_to(rng.choice([4, 6, 10]))
            g = np.array([[float(math.prod(nu_weight(f, p, 3) for p in
                                           set(prime_factors(d1)) | set(prime_factors(d2))))
                           for d2 in ds] for d1 in ds])
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
        moduli = selberg_weights(4).pair_weights
        est = (sum(contraction_cost(m, 3) for m in moduli)
               + table_build_cost(2, 3) + table_build_cost(3, 3)
               + (2 * phi.lattice_radius(3, 1e-16) + 1) ** 3)
        verify_modified_selberg(3, 3, 4, MONIC, phi=phi, budget=est)
        # the accepted call has cached the box and the tables; the refusal
        # still charges both, so it does not depend on what ran before
        with pytest.raises(BudgetExceededError):
            verify_modified_selberg(3, 3, 4, MONIC, phi=phi, budget=est - 1)

    def test_budget_refused_before_tables(self):
        weight_table.cache_clear()
        started = time.perf_counter()
        with pytest.raises(BudgetExceededError):
            verify_modified_selberg(3, 20, 30, MONIC, budget=10 ** 7)
        assert time.perf_counter() - started < 1.0
        assert weight_table.cache_info().misses == 0

    def test_box_refused_before_tables(self):
        # (4, 3, 6) monic charges 31,656 for its contractions, 131,392 for
        # the p = 2, 3, 5 tables and 25^4 * 16 = 6,250,000 for the quartic
        # box (R = 12) at the closed form's 16 terms per point: one unit
        # less is refused.  The degree-11 box may leave int64.  Both refuse
        # before the right side builds any table.
        phi = SmoothWeight.box_calibrated(4)
        est = (sum(contraction_cost(m, 4) for m in selberg_weights(6).pair_weights)
               + sum(table_build_cost(p, 4) for p in (2, 3, 5)))
        assert (est, phi.lattice_radius(3, 1e-16)) == (163_048, 12)
        est += 25 ** 4 * 16
        for args, budget, match in (((4, 3, 6), est - 1, "budget"),
                                    ((11, 1, 2), None, "int64")):
            weight_table.cache_clear()
            with pytest.raises(BudgetExceededError, match=match):
                verify_modified_selberg(*args, MONIC, budget=budget)
            assert weight_table.cache_info().misses == 0

    @pytest.mark.parametrize("n, mode", [(4, MONIC), (3, GENERAL)])
    def test_prime_above_table_cap_refused_before_tables(self, monkeypatch, n, mode):
        # p = 89 is over 84, the dim-4 table bound: monic quartics once ran
        # 496 s and built 23 tables before lattice_weight_sum refused it
        def no_table(*_a, **_k):
            raise AssertionError("a weight table was built")

        monkeypatch.setattr(charsum, "weight_table", no_table)
        started = time.perf_counter()
        with pytest.raises(BudgetExceededError, match="prime factor above 84"):
            verify_modified_selberg(n, 1, 89, mode, budget=None)
        assert time.perf_counter() - started < 1.0

    def test_rhs_independent_of_engine_small(self):
        # brute-force recomputation of the right side over an explicit box
        n, H, D, mode = 3, 2, 3, MONIC
        phi = SmoothWeight.box_calibrated(3)
        rep = verify_modified_selberg(n, H, D, mode, phi=phi)
        w = selberg_weights(D)
        R = phi.lattice_radius(H, 1e-16)
        from itertools import product as iproduct

        span = range(-R, R + 1)
        nu = {vec: {p: float(ddf_nu(vec + (1,), p, n))
                    for p in (2, 3)}
              for vec in iproduct(span, repeat=3)}
        rhs = 0.0
        for d1, l1 in w.lam.items():
            for d2, l2 in w.lam.items():
                m = math.lcm(d1, d2)
                primes = [p for p in (2, 3) if m % p == 0]
                inner = 0.0
                for vec, nu_f in nu.items():
                    val = phi.value([v / H for v in vec])
                    for p in primes:
                        val *= nu_f[p]
                    inner += val
                rhs += float(l1 * l2) * inner
        assert abs(rhs - rep.rhs) < 1e-6 * abs(rep.rhs)

    @pytest.mark.parametrize("mode", [MONIC, GENERAL])
    def test_lhs_matches_direct_sum(self, mode):
        # left side against phi(f/H) / 2^omega(LDisc f) summed pointwise
        n, H = 3, 1
        phi = SmoothWeight.box_calibrated(4 if mode == GENERAL else 3)
        rep = verify_modified_selberg(n, H, 1, mode, phi=phi)
        direct = 0.0
        for f in enumerate_box(n, rep.radius, monic=mode == MONIC):
            d = discriminant(f)
            if d > 0 and math.isqrt(d) ** 2 == d:
                free = f if mode == GENERAL else f[:n]
                direct += phi.value([c / H for c in free]) / 2 ** omega(abs(ldisc(f)))
        assert abs(rep.lhs - direct) <= 1e-12 * direct

    def test_left_side_scanned_once_per_box(self, monkeypatch):
        # the left side does not depend on D: a 2 H x 2 D run scans each
        # box once, and every report equals the one computed uncached
        scans = []
        real = sieve.square_disc_scan

        def counting(*args, **kwargs):
            scans.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(sieve, "square_disc_scan", counting)
        _an_weighted_lattice_sum.cache_clear()
        cells = [(H, D) for H in (3, 4) for D in (2, 4)]
        cached = [verify_modified_selberg(3, H, D, MONIC) for H, D in cells]
        assert len(scans) == 2
        for (H, D), rep in zip(cells, cached):
            _an_weighted_lattice_sum.cache_clear()
            fresh = verify_modified_selberg(3, H, D, MONIC)
            assert ((rep.lhs, rep.rhs, rep.margin, rep.radius)
                    == (fresh.lhs, fresh.rhs, fresh.margin, fresh.radius))
        assert len(scans) == 6

    def test_strict_mode_raises_on_fabricated_violation(self):
        # a fabricated weight vector that breaks lambda_1 = 1 cannot be built,
        # so no report with it can reach the margin check
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

    def test_weighted_below_count(self):
        res = count_an_box(3, 6, monic=True)
        assert 0 < float(res.weighted) <= res.count

    @pytest.mark.parametrize("n,H,monic", [(3, 2, False), (4, 1, False), (3, 3, True)])
    def test_weighted_matches_ldisc_oracle(self, n, H, monic):
        want = Fraction(0)
        for f in enumerate_box(n, H, monic):
            if gal_in_an(f):
                want += Fraction(1, 2 ** omega(abs(ldisc(f))))
        assert count_an_box(n, H, monic).weighted == want

    def test_matches_direct_scan(self):
        res = count_an_box(3, 4, monic=True)
        direct = sum(1 for f in enumerate_box(3, 4, monic=True) if gal_in_an(f))
        assert res.count == direct
