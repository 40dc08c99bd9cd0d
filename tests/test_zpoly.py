"""Tests for integer-polynomial discriminants, the reduction criterion mod
p, and the multiplicative-function helpers.

Independent oracles: classical closed-form discriminants for degrees 2-4,
the root-product formula evaluated with numpy roots, the Sylvester route
`_disc_sylvester` for every box scan, and hand enumeration for the small
boxes.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddf_oracle import fp_normalize, is_squarefree_fp, mobius_pn
from polysieve import zpoly
from polysieve._discforms import TERMS
from polysieve._ints import is_squarefree, mobius, omega, prime_factors, square_mask, tau
from polysieve.errors import BudgetExceededError
from polysieve.zpoly import (
    _disc_sylvester,
    discriminant,
    enumerate_box,
    gal_in_an,
    ldisc,
    square_disc_scan,
)


def scan_pairs(n, R, monic):
    """`square_disc_scan` as [(row, disc)] with each row a tuple of Python
    ints, after checking the arrays' types and shapes."""
    coeffs, discs, zeros = square_disc_scan(n, R, monic)
    assert coeffs.dtype == discs.dtype == np.int64
    assert coeffs.shape == (len(discs), n + 1)
    return [(tuple(row), d) for row, d in zip(coeffs.tolist(), discs.tolist())], zeros


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


def roots_disc(f) -> float:
    roots = np.roots(f[::-1])
    prod = 1.0 + 0.0j
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            prod *= (roots[i] - roots[j]) ** 2
    return (f[-1] ** (2 * len(f) - 4) * prod).real


class TestDiscriminant:
    def test_quadratic(self):
        assert discriminant((2, 3, 1)) == disc2(1, 3, 2) == 1

    def test_depressed_cubic(self):
        # x^3 - x
        f = (0, -1, 0, 1)
        assert disc3(1, 0, -1, 0) == 4
        assert discriminant(f) == 4

    def test_repeated_root(self):
        # (x-1)^2 (x+2) = x^3 - 3x + 2
        assert discriminant((2, -3, 0, 1)) == 0

    def test_linear_is_unit(self):
        assert discriminant((7, 3)) == 1

    def test_degenerate_leading_rejected(self):
        with pytest.raises(ValueError):
            discriminant((1, 2, 0))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-30, 30), min_size=3, max_size=5))
    def test_matches_closed_forms(self, coeffs):
        if coeffs[-1] == 0:
            coeffs[-1] = 1
        oracle = {2: disc2, 3: disc3, 4: disc4}[len(coeffs) - 1]
        assert discriminant(coeffs) == oracle(*coeffs[::-1])

    def test_against_root_products(self):
        rng = random.Random(20240811)
        checked = 0
        while checked < 100:
            f = [rng.randint(-10, 10) for _ in range(3)] + [1]
            d = discriminant(f)
            if d == 0:
                continue
            approx = roots_disc(f)
            assert abs(approx - d) < 1e-6 * max(1.0, abs(d))
            checked += 1

    def test_quintic_sylvester(self):
        # degree 5: the closed form and the Sylvester route agree with each
        # other and, numerically, with the root-product oracle
        f = (2, -1, 0, 3, 0, 1)
        d = discriminant(f)
        assert d == _disc_sylvester(f)
        assert abs(roots_disc(f) - d) < 1e-6 * abs(d)


class TestLdisc:
    def test_monic_equals_disc(self):
        f = (1, 2, 3, 1)
        assert ldisc(f) == discriminant(f)

    def test_scaled_quadratic(self):
        f = (2, 2, 2)
        assert discriminant(f) == -12
        assert ldisc(f) == -24

    def test_repeated_root_zero(self):
        assert ldisc((2, -3, 0, 1)) == 0


class TestCoefficientInput:
    """Polynomials are plain coefficient sequences: any integer type is
    widened to a Python int before exact arithmetic, anything else is
    refused."""

    # (x - a)(x - b)(x - c) with a, b, c near 10^6: coefficients fit int64,
    # the discriminant ((a-b)(a-c)(b-c))^2 does not
    A, B, C = 2_000_000, -1_000_003, 1_500_001
    SPLIT = (-A * B * C, A * B + A * C + B * C, -(A + B + C), 1)
    CASES = [(3 ** 20, 5 ** 19, -7 ** 18, 1), (3 ** 20, 5 ** 19, -7 ** 18, 11 ** 17),
             SPLIT, (1, -3, 0, 1), (2, -3, 0, 1), (5, 3), (-4, 0, 3),
             (7, -2, 9, 0, -5, 3), (1, 1, -1, 2, 0, -3, 4), (3, 0, 0, 0, 0, 0, 0, 2)]

    @pytest.mark.parametrize("coeffs", CASES)
    def test_int64_input_matches_python_ints(self, coeffs):
        from polysieve.sieve import nu_weight, qf_value, selberg_weights

        wide = tuple(np.array(coeffs, dtype=np.int64))
        assert all(type(c) is np.int64 for c in wide)
        n = len(coeffs) - 1
        d = discriminant(coeffs)
        assert discriminant(wide) == d == _disc_sylvester(coeffs)
        assert ldisc(wide) == ldisc(coeffs) == coeffs[-1] * d
        assert gal_in_an(wide) == gal_in_an(coeffs)
        for p in (2, 3, 5, 7, 11, 13):
            assert nu_weight(wide, p, n) == nu_weight(coeffs, p, n)
        w = selberg_weights(12)
        assert qf_value(wide, w, n) == qf_value(coeffs, w, n)
        assert qf_value(list(wide), w, n) == qf_value(coeffs, w, n)

    def test_exact_beyond_int64(self):
        a, b, c = self.A, self.B, self.C
        root_gaps = ((a - b) * (a - c) * (b - c)) ** 2
        assert root_gaps > 2 ** 63
        assert discriminant(tuple(np.array(self.SPLIT))) == root_gaps
        assert gal_in_an(np.array(self.SPLIT))
        assert discriminant(np.array([3 ** 20, 5 ** 19, -7 ** 18, 1])) == (
            1024919399996195112030733124664329336745771697973708337044)

    def test_non_integer_refused(self):
        from polysieve.sieve import nu_weight, qf_value, selberg_weights

        for bad in [(1.0, 0, 1), (1, 0, 1.5), (1, 2, np.float64(1.0)), ("1", 0, 1)]:
            for call in (discriminant, ldisc, gal_in_an,
                         lambda f: nu_weight(f, 3, 2),
                         lambda f: qf_value(f, selberg_weights(6), 2)):
                with pytest.raises(TypeError):
                    call(bad)


class TestReduceMod:
    def test_mobius_vanishing_iff_ldisc_divisible(self):
        rng = random.Random(7)
        for _ in range(200):
            coeffs = [rng.randint(-20, 20) for _ in range(3)]
            lead = 0
            while lead == 0:
                lead = rng.randint(-20, 20)
            f = coeffs + [lead]
            ld = ldisc(f)
            for p in (2, 3, 5, 7):
                vanished = mobius_pn(fp_normalize(f, p), 3) == 0
                assert vanished == (ld % p == 0)


class TestGalInAn:
    def test_cyclic_cubic(self):
        f = (1, -3, 0, 1)
        assert discriminant(f) == 81
        assert gal_in_an(f)

    def test_generic_cubic(self):
        f = (1, -1, 0, 1)
        assert discriminant(f) == -23
        assert not gal_in_an(f)

    def test_split_quadratic(self):
        f = (-1, 0, 1)
        assert discriminant(f) == 4
        assert gal_in_an(f)

    def test_zero_disc_excluded(self):
        assert not gal_in_an((2, -3, 0, 1))


class TestReductionCriterion:
    def test_exhaustive_cubic_box(self):
        # p | Disc <-> repeated factors mod p, whenever p does not divide a_n
        for f in enumerate_box(3, 5, monic=False):
            d = discriminant(f)
            for p in (2, 3, 5, 7):
                if f[-1] % p == 0:
                    continue
                assert (d % p == 0) == (not is_squarefree_fp(fp_normalize(f, p)))


class TestAnObstruction:
    def test_square_disc_never_odd_reduction(self):
        rows, _discs, _ = square_disc_scan(3, 8, monic=True)
        assert len(rows), "expected some square discriminants in the box"
        from polysieve._ints import primes_up_to

        for coeffs in rows.tolist():
            for p in primes_up_to(50):
                assert mobius_pn(fp_normalize(coeffs, p), 3) != 1  # (-1)^(n+1) = +1 at n=3


class TestEnumerateBox:
    def test_monic_count(self):
        assert sum(1 for _ in enumerate_box(2, 1, monic=True)) == 9

    def test_general_count(self):
        polys = list(enumerate_box(2, 1, monic=False))
        assert len(polys) == 18
        assert all(f[-1] != 0 for f in polys)

    def test_monic_cubic_count(self):
        assert sum(1 for _ in enumerate_box(3, 2, monic=True)) == 125

    @pytest.mark.parametrize("monic", [True, False])
    def test_yields_python_int_tuples(self, monic):
        polys = list(enumerate_box(3, 2, monic))
        assert len(set(polys)) == len(polys) == (125 if monic else 500)
        assert all(type(f) is tuple and len(f) == 4 for f in polys)
        assert all(type(c) is int for f in polys for c in f)
        assert all(max(map(abs, f)) <= 2 for f in polys)

    def test_budget(self, monkeypatch):
        # the walker has no cap of its own: a scan charges the (3, 50) monic
        # box through box_cost and refuses it before any block
        def no_work(*_a, **_k):
            raise AssertionError("a block was computed")

        monkeypatch.setattr(zpoly, "_cubic_blocks", no_work)
        with pytest.raises(BudgetExceededError, match="over budget 1000"):
            square_disc_scan(3, 50, True, budget=1000)


class TestSquareDiscScan:
    def test_cubic_fastpath_matches_generic(self):
        fast, zeros_fast = scan_pairs(3, 4, monic=True)
        slow_survivors = []
        slow_zeros = 0
        for f in enumerate_box(3, 4, monic=True):
            d = _disc_sylvester(f)
            if d == 0:
                slow_zeros += 1
            elif d > 0 and math.isqrt(d) ** 2 == d:
                slow_survivors.append((f, d))
        assert fast == slow_survivors
        assert zeros_fast == slow_zeros

    def test_general_fastpath_matches_generic(self):
        fast, zeros_fast = scan_pairs(3, 2, monic=False)
        slow = [(f, _disc_sylvester(f)) for f in enumerate_box(3, 2, monic=False)]
        slow_survivors = [(c, d) for c, d in slow if d > 0 and math.isqrt(d) ** 2 == d]
        assert fast == slow_survivors
        assert zeros_fast == sum(1 for _, d in slow if d == 0)

    @pytest.mark.parametrize("block", [None, 7])
    @pytest.mark.parametrize("n,R,monic", [(2, 2, True), (4, 2, True),
                                           (2, 1, False), (4, 1, False),
                                           (5, 1, True), (6, 1, True),
                                           (5, 1, False), (6, 1, False)])
    def test_bareiss_blocks_match_enumeration(self, monkeypatch, n, R, monic, block):
        if block:  # many small blocks: order must survive the block seams
            monkeypatch.setattr(zpoly, "_BLOCK", block)
        got, zeros = scan_pairs(n, R, monic)
        want = []
        want_zeros = 0
        for f in enumerate_box(n, R, monic):
            d = _disc_sylvester(f)
            if d == 0:
                want_zeros += 1
            elif d > 0 and math.isqrt(d) ** 2 == d:
                want.append((f, d))
        assert got == want
        assert zeros == want_zeros

    @pytest.mark.parametrize("block", [None, 7])
    @pytest.mark.parametrize("n,R", [(2, 2), (3, 3), (4, 2), (5, 1)])
    def test_half_box_is_the_tail_of_the_box(self, monkeypatch, n, R, block):
        # the half box is the box's points from the slab a_{n-1} = 0 on,
        # in the same order, and its charge is the full box's
        if block:
            monkeypatch.setattr(zpoly, "_BLOCK", block)

        def rows(**half):
            blocks = list(zpoly._disc_blocks(n, R, True, None, **half))
            return (np.concatenate([c for c, _ in blocks]),
                    np.concatenate([d for _, d in blocks]))

        full_coeffs, full_discs = rows()
        coeffs, discs = rows(half=True)
        start = R * (2 * R + 1) ** (n - 1)
        assert np.array_equal(coeffs, full_coeffs[start:])
        assert np.array_equal(discs, full_discs[start:])
        cost = zpoly.box_cost(n, R, True)[1]
        zpoly._disc_blocks(n, R, True, cost, half=True)
        with pytest.raises(BudgetExceededError):
            zpoly._disc_blocks(n, R, True, cost - 1, half=True)


    @pytest.mark.parametrize("block", [None, 3, 7])
    @pytest.mark.parametrize("half", [False, True])
    @pytest.mark.parametrize("monic", [True, False])
    @pytest.mark.parametrize("n,R", [(2, 1), (2, 2), (4, 1), (5, 1)])
    def test_point_blocks_cut_the_walk(self, monkeypatch, n, R, monic, half, block):
        # blocks of _BLOCK points in walk order, the last one closed by the
        # walk's end and never empty (block 3 divides every R = 1 box here)
        if block:
            monkeypatch.setattr(zpoly, "_BLOCK", block)
        size = zpoly._BLOCK
        walk = list(zpoly._box_tuples(n, R, monic, half))
        blocks = list(zpoly._disc_blocks(n, R, monic, None, half=half))
        assert [len(discs) for _c, discs in blocks] == \
            [min(size, len(walk) - i) for i in range(0, len(walk), size)]
        dim = n if monic else n + 1
        for k, (coeffs, discs) in enumerate(blocks):
            chunk = walk[k * size:(k + 1) * size]
            assert coeffs.tolist() == [list(f[:dim]) for f in chunk]
            assert discs.tolist() == [_disc_sylvester(f) for f in chunk]


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
            assert coeffs.tolist() == [list(f[:dim]) for f in first]
            assert discs.tolist() == [_disc_sylvester(f) for f in first]

    def test_degree_eleven_refused_before_work(self, monkeypatch):
        def no_work(*_a, **_k):
            raise AssertionError("the box was enumerated")

        monkeypatch.setattr(zpoly, "_box_tuples", no_work)
        monkeypatch.setattr(zpoly, "discriminant", no_work)
        with pytest.raises(BudgetExceededError, match="int64"):
            square_disc_scan(11, 1, True, budget=None)

    @pytest.mark.parametrize("n,R,monic", [(4, 2, True), (3, 2, False)])
    def test_bound_dominates_box_maximum(self, n, R, monic):
        top = max(abs(f[-1] * _disc_sylvester(f))
                  for f in enumerate_box(n, R, monic))
        assert 0 < top ** 2 <= zpoly._ldisc_bound_sq(n, R, monic)

    @pytest.mark.parametrize("monic", [True, False])
    @pytest.mark.parametrize("n,R", [(2, 5), (3, 3), (4, 2), (5, 1), (6, 1)])
    def test_term_bound_dominates_box_maximum(self, n, R, monic):
        # the term-sum bound the int64 domain reads covers the exhaustive
        # maximum of |a_n Disc| on the Sylvester route
        top = max(abs(f[-1] * _disc_sylvester(f))
                  for f in enumerate_box(n, R, monic))
        assert 0 < top <= zpoly._ldisc_abs_bound(n, R, monic)

    @pytest.mark.parametrize("monic", [True, False])
    def test_term_bound_within_hadamard(self, monic):
        # for 2 <= n <= 6 the term sum replaces Hadamard's bound and is
        # below it, so no box that Hadamard admits is refused; other
        # degrees take it, rounded up
        for n in range(2, 7):
            for R in list(range(1, 200)) + [10 ** k for k in range(3, 8)]:
                assert zpoly._ldisc_abs_bound(n, R, monic) ** 2 <= zpoly._ldisc_bound_sq(
                    n, R, monic), (n, R)
        assert zpoly._ldisc_abs_bound(10, 1, monic) == math.isqrt(11 ** 9 * 385 ** 10) + 1

    @pytest.mark.parametrize("monic", [True, False])
    def test_cubic_horner_within_hadamard(self, monic):
        # every intermediate of the cubic Horner nest is at most
        # sum |c| R^deg over its terms (a_3 = 1 when monic), which stays
        # under Hadamard's bound
        rows = [[int(v) for v in row.split()] for row in TERMS[3]]  # c e_0 .. e_3
        for R in range(1, 2000):
            terms = sum(abs(c) * R ** sum(e[:3] if monic else e) for c, *e in rows)
            assert terms ** 2 <= zpoly._ldisc_bound_sq(3, R, monic), R

    def test_point_cost(self):
        # 1 on the cubic slabs, the closed form's terms up to n = 6, a
        # (2n-1)^3 Bareiss determinant beyond
        assert [zpoly._point_cost(n) for n in range(1, 9)] == [
            1, 2, 1, 16, 59, 246, 13 ** 3, 15 ** 3]
        assert zpoly.box_cost(4, 53, True) == (107 ** 4, 107 ** 4 * 16)
        assert zpoly.box_cost(7, 1, False) == (3 ** 7 * 2, 3 ** 7 * 2 * 13 ** 3)


def tau_omega_sides(d1, d2):
    """Both sides of 2^omega([d1,d2]) = tau(d1) tau(d2) / tau((d1,d2)) for
    squarefree d1, d2; the right side's division must be exact."""
    num, den = tau(d1) * tau(d2), tau(math.gcd(d1, d2))
    assert num % den == 0, (d1, d2)
    return 2 ** omega(math.lcm(d1, d2)), num // den


class TestSquareMask:
    ROOT_MAX = 3_037_000_499  # isqrt(2^63 - 1)

    def test_int64_edge(self):
        # near 2^63 the float root rounds up to ROOT_MAX + 1, whose square
        # once wrapped to a negative int64
        top = self.ROOT_MAX
        assert math.isqrt(2 ** 63 - 1) == top
        vals = ([2 ** 63 - 1 - k for k in range(64)]
                + [top * top + k for k in range(-64, 65)]
                + [(top - 1) ** 2 + k for k in (-1, 0, 1)]
                + [-(2 ** 63), -1, 0, 1, 2, 4])
        got = square_mask(np.array(vals, dtype=np.int64))
        assert got.tolist() == [v > 0 and math.isqrt(v) ** 2 == v for v in vals]
        assert got[vals.index(top * top)] and not got[0]

    def test_random_squares_and_neighbours(self):
        rng = random.Random(7)
        roots = [rng.randrange(1, self.ROOT_MAX + 1) for _ in range(500)]
        vals = [r * r + k for r in roots for k in (-1, 0, 1) if 0 < r * r + k < 2 ** 63]
        got = square_mask(np.array(vals, dtype=np.int64))
        assert got.tolist() == [math.isqrt(v) ** 2 == v for v in vals]


class TestMultiplicative:
    def test_omega_values(self):
        assert omega(12) == 2
        assert omega(1) == 0
        assert omega(-24) == 2

    def test_omega_zero_rejected(self):
        with pytest.raises(ValueError):
            omega(0)

    def test_tau_mu_identity_examples(self):
        assert tau_omega_sides(6, 10) == (8, 8)
        assert tau_omega_sides(1, 1) == (1, 1)
        assert tau_omega_sides(7, 7) == (2, 2)

    def test_identity_range(self):
        from polysieve._ints import squarefree_up_to

        for d1 in squarefree_up_to(60):
            for d2 in squarefree_up_to(60):
                lhs, rhs = tau_omega_sides(d1, d2)
                assert lhs == rhs

    def test_mobius_tau_basics(self):
        assert [mobius(k) for k in (1, 2, 4, 6, 30)] == [1, -1, 0, 1, -1]
        assert [tau(k) for k in (1, 6, 12)] == [1, 4, 6]

    def test_scalar_helpers_match_naive_definitions(self):
        # oracles: trial division by every integer >= 2, divisors counted by
        # a direct loop, and mu on the range from sum_{d | m} mu(d) = [m = 1]
        limit = 5000
        mu = [0, 1] + [0] * (limit - 1)
        for d in range(1, limit + 1):
            for k in range(2 * d, limit + 1, d):
                mu[k] -= mu[d]

        def naive_factor(m):
            out, q = {}, 2
            while q * q <= m:
                while m % q == 0:
                    out[q] = out.get(q, 0) + 1
                    m //= q
                q += 1
            if m > 1:
                out[m] = out.get(m, 0) + 1
            return out

        def naive_tau(m):
            r = math.isqrt(m)
            return sum(2 for i in range(1, r + 1) if m % i == 0) - (r * r == m)

        large = [2 ** 31 - 1, 46327 * 46337, 7 ** 5 * 11, 121 * 13 ** 3, 10 ** 12 + 39]
        for m in list(range(1, limit + 1)) + large:
            fac = naive_factor(m)
            sqfree = all(e == 1 for e in fac.values())
            expected_mu = mu[m] if m <= limit else (
                (-1) ** len(fac) if sqfree else 0)
            assert prime_factors(m) == prime_factors(-m) == tuple(sorted(fac)), m
            assert omega(m) == omega(-m) == len(fac), m
            assert mobius(m) == expected_mu, m
            assert tau(m) == tau(-m) == naive_tau(m), m
            assert is_squarefree(m) == is_squarefree(-m) == sqfree, m
        for f in (prime_factors, omega, tau, mobius):
            with pytest.raises(ValueError):
                f(0)
        with pytest.raises(ValueError):
            mobius(-6)
        assert not is_squarefree(0)
