"""Tests for integer-polynomial discriminants, reductions, and the
multiplicative-function helpers.

Independent oracles: classical closed-form discriminants for degrees 2-4,
the root-product formula evaluated with numpy roots, and hand enumeration
for the small boxes.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polysieve import zpoly
from polysieve._ints import mobius, omega, tau
from polysieve.errors import BudgetExceededError
from polysieve.fppoly import is_squarefree_fp, mobius_pn
from polysieve.zpoly import (
    DiscReport,
    ZPoly,
    disc_report,
    discriminant,
    enumerate_box,
    gal_in_an,
    ldisc,
    reduce_mod,
    square_disc_scan,
    tau_mu_sqfree,
)


def zp(*coeffs):
    return ZPoly.from_coeffs(coeffs)


def disc2(a, b, c):
    return b * b - 4 * a * c


def disc3(a, b, c, d):
    # a x^3 + b x^2 + c x + d
    return 18 * a * b * c * d - 4 * b ** 3 * d + b ** 2 * c ** 2 - 4 * a * c ** 3 - 27 * a ** 2 * d ** 2


def disc4(a, b, c, d, e):
    # a x^4 + b x^3 + c x^2 + d x + e
    d0 = c * c - 3 * b * d + 12 * a * e
    d1 = 2 * c ** 3 - 9 * b * c * d + 27 * b * b * e + 27 * a * d * d - 72 * a * c * e
    val, rem = divmod(4 * d0 ** 3 - d1 ** 2, 27)
    assert rem == 0
    return val


def roots_disc(f: ZPoly) -> float:
    roots = np.roots(f.coeffs[::-1])
    prod = 1.0 + 0.0j
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            prod *= (roots[i] - roots[j]) ** 2
    return (f.leading ** (2 * f.n - 2) * prod).real


class TestDiscriminant:
    def test_quadratic(self):
        assert discriminant(zp(2, 3, 1)) == disc2(1, 3, 2) == 1

    def test_depressed_cubic(self):
        # x^3 - x
        f = zp(0, -1, 0, 1)
        assert disc3(1, 0, -1, 0) == 4
        assert discriminant(f) == 4

    def test_repeated_root(self):
        # (x-1)^2 (x+2) = x^3 - 3x + 2
        assert discriminant(zp(2, -3, 0, 1)) == 0

    def test_linear_is_unit(self):
        assert discriminant(zp(7, 3)) == 1

    def test_degenerate_leading_rejected(self):
        with pytest.raises(ValueError):
            discriminant(ZPoly((1, 2, 0), 2))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-30, 30), min_size=3, max_size=5))
    def test_matches_closed_forms(self, coeffs):
        if coeffs[-1] == 0:
            coeffs[-1] = 1
        f = ZPoly.from_coeffs(coeffs)
        oracle = {2: disc2, 3: disc3, 4: disc4}[f.n]
        assert discriminant(f) == oracle(*coeffs[::-1])

    def test_against_root_products(self):
        rng = random.Random(20240811)
        checked = 0
        while checked < 100:
            coeffs = [rng.randint(-10, 10) for _ in range(3)] + [1]
            f = ZPoly.from_coeffs(coeffs)
            d = discriminant(f)
            if d == 0:
                continue
            approx = roots_disc(f)
            assert abs(approx - d) < 1e-6 * max(1.0, abs(d))
            checked += 1

    def test_quintic_sylvester(self):
        # degree-5 case exercises the generic Bareiss route; compare with
        # the root-product oracle numerically
        f = zp(2, -1, 0, 3, 0, 1)
        d = discriminant(f)
        assert abs(roots_disc(f) - d) < 1e-6 * abs(d)


class TestLdisc:
    def test_monic_equals_disc(self):
        f = zp(1, 2, 3, 1)
        assert ldisc(f) == discriminant(f)

    def test_scaled_quadratic(self):
        f = zp(2, 2, 2)
        assert discriminant(f) == -12
        assert ldisc(f) == -24

    def test_repeated_root_zero(self):
        assert ldisc(zp(2, -3, 0, 1)) == 0

    def test_disc_report(self):
        rep = disc_report(zp(2, 2, 2))
        assert rep == DiscReport(-12, -24, 2)
        assert disc_report(zp(2, -3, 0, 1)).omega_ldisc is None


class TestReduceMod:
    def test_degree_drop(self):
        f = zp(1, 1, 0, 3)
        assert reduce_mod(f, 3).coeffs == (1, 1)

    def test_constant_kill(self):
        assert reduce_mod(zp(5, 0, 1), 5).coeffs == (0, 0, 1)

    def test_mobius_vanishing_iff_ldisc_divisible(self):
        rng = random.Random(7)
        for _ in range(200):
            coeffs = [rng.randint(-20, 20) for _ in range(3)]
            lead = 0
            while lead == 0:
                lead = rng.randint(-20, 20)
            f = ZPoly.from_coeffs(coeffs + [lead])
            ld = ldisc(f)
            for p in (2, 3, 5, 7):
                vanished = mobius_pn(reduce_mod(f, p), 3) == 0
                assert vanished == (ld % p == 0)


class TestGalInAn:
    def test_cyclic_cubic(self):
        f = zp(1, -3, 0, 1)
        assert discriminant(f) == 81
        assert gal_in_an(f)

    def test_generic_cubic(self):
        f = zp(1, -1, 0, 1)
        assert discriminant(f) == -23
        assert not gal_in_an(f)

    def test_split_quadratic(self):
        f = zp(-1, 0, 1)
        assert discriminant(f) == 4
        assert gal_in_an(f)

    def test_zero_disc_excluded(self):
        assert not gal_in_an(zp(2, -3, 0, 1))


class TestReductionCriterion:
    def test_exhaustive_cubic_box(self):
        # p | Disc <-> repeated factors mod p, whenever p does not divide a_n
        for f in enumerate_box(3, 5, monic=False):
            d = discriminant(f)
            for p in (2, 3, 5, 7):
                if f.leading % p == 0:
                    continue
                assert (d % p == 0) == (not is_squarefree_fp(reduce_mod(f, p)))


class TestAnObstruction:
    def test_square_disc_never_odd_reduction(self):
        survivors, _ = square_disc_scan(3, 8, monic=True)
        assert survivors, "expected some square discriminants in the box"
        from polysieve._ints import primes_up_to

        for coeffs, _d in survivors:
            f = ZPoly.from_coeffs(coeffs)
            for p in primes_up_to(50):
                assert mobius_pn(reduce_mod(f, p), 3) != 1  # (-1)^(n+1) = +1 at n=3


class TestEnumerateBox:
    def test_monic_count(self):
        assert sum(1 for _ in enumerate_box(2, 1, monic=True)) == 9

    def test_general_count(self):
        polys = list(enumerate_box(2, 1, monic=False))
        assert len(polys) == 18
        assert all(f.leading != 0 for f in polys)

    def test_monic_cubic_count(self):
        assert sum(1 for _ in enumerate_box(3, 2, monic=True)) == 125

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            list(enumerate_box(3, 50, monic=True, budget=1000))


class TestSquareDiscScan:
    def test_cubic_fastpath_matches_generic(self):
        fast, zeros_fast = square_disc_scan(3, 4, monic=True)
        slow_survivors = []
        slow_zeros = 0
        for f in enumerate_box(3, 4, monic=True):
            d = discriminant(f)
            if d == 0:
                slow_zeros += 1
            elif d > 0 and math.isqrt(d) ** 2 == d:
                slow_survivors.append((f.coeffs, d))
        assert fast == slow_survivors
        assert zeros_fast == slow_zeros

    def test_general_fastpath_matches_generic(self):
        fast, zeros_fast = square_disc_scan(3, 2, monic=False)
        slow = [(f.coeffs, discriminant(f)) for f in enumerate_box(3, 2, monic=False)]
        slow_survivors = [(c, d) for c, d in slow if d > 0 and math.isqrt(d) ** 2 == d]
        assert fast == slow_survivors
        assert zeros_fast == sum(1 for _, d in slow if d == 0)

    @pytest.mark.parametrize("block", [None, 7])
    @pytest.mark.parametrize("n,R,monic", [(2, 2, True), (4, 2, True),
                                           (2, 1, False), (4, 1, False)])
    def test_bareiss_blocks_match_enumeration(self, monkeypatch, n, R, monic, block):
        if block:  # many small blocks: order must survive the block seams
            monkeypatch.setattr(zpoly, "_BLOCK", block)
        got, zeros = square_disc_scan(n, R, monic)
        want = []
        want_zeros = 0
        for f in enumerate_box(n, R, monic):
            d = discriminant(f)
            if d == 0:
                want_zeros += 1
            elif d > 0 and math.isqrt(d) ** 2 == d:
                want.append((f.coeffs, d))
        assert got == want
        assert zeros == want_zeros


class TestDiscDomain:
    def test_degree_ten_height_one_admitted(self, monkeypatch):
        # ||f||^2 = 11 and ||f'||^2 = 385 in both modes: |LDisc| <= 4.1e17
        for monic in (True, False):
            assert zpoly._ldisc_bound_sq(10, 1, monic) == 11 ** 9 * 385 ** 10
            assert zpoly._ldisc_bound_sq(10, 1, monic) < 2 ** 126
        monkeypatch.setattr(zpoly, "_BLOCK", 16)
        for monic in (True, False):
            coeffs, discs = next(zpoly._disc_blocks(10, 1, monic, None))
            first = [f for f, _ in zip(enumerate_box(10, 1, monic), range(16))]
            dim = 10 if monic else 11  # a_10 is free only in the general box
            assert coeffs.tolist() == [list(f.coeffs[:dim]) for f in first]
            assert discs.tolist() == [discriminant(f) for f in first]

    def test_degree_eleven_refused_before_work(self, monkeypatch):
        def no_work(*_a, **_k):
            raise AssertionError("the box was enumerated")

        monkeypatch.setattr(zpoly, "enumerate_box", no_work)
        monkeypatch.setattr(zpoly, "discriminant", no_work)
        with pytest.raises(BudgetExceededError, match="int64"):
            square_disc_scan(11, 1, True, budget=None)

    @pytest.mark.parametrize("n,R,monic", [(4, 2, True), (3, 2, False)])
    def test_bound_dominates_box_maximum(self, n, R, monic):
        top = max(abs(ldisc(f)) for f in enumerate_box(n, R, monic))
        assert 0 < top ** 2 <= zpoly._ldisc_bound_sq(n, R, monic)


class TestMultiplicative:
    def test_omega_values(self):
        assert omega(12) == 2
        assert omega(1) == 0
        assert omega(-24) == 2

    def test_omega_zero_rejected(self):
        with pytest.raises(ValueError):
            omega(0)

    def test_tau_mu_identity_examples(self):
        rec = tau_mu_sqfree(6, 10)
        assert rec.lhs == rec.rhs == 8
        rec = tau_mu_sqfree(1, 1)
        assert rec.lhs == rec.rhs == 1
        rec = tau_mu_sqfree(7, 7)
        assert rec.lhs == rec.rhs == 2

    def test_tau_mu_rejects_square(self):
        with pytest.raises(ValueError):
            tau_mu_sqfree(4, 3)

    def test_identity_range(self):
        from polysieve._ints import squarefree_up_to

        for d1 in squarefree_up_to(60):
            for d2 in squarefree_up_to(60):
                rec = tau_mu_sqfree(d1, d2)
                assert rec.lhs == rec.rhs

    def test_mobius_tau_basics(self):
        assert [mobius(k) for k in (1, 2, 4, 6, 30)] == [1, -1, 0, 1, -1]
        assert [tau(k) for k in (1, 6, 12)] == [1, 4, 6]
