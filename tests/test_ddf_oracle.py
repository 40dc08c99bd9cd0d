"""Unit tests for the distinct-degree-split oracle `ddf_oracle`: F_p[x]
arithmetic, Mobius values, and parity.

Brute-force oracles used here:
  * divisor-search gcd (enumerate all monic divisors of both inputs)
  * exhaustive squarefreeness (search for a repeated monic factor)
  * exhaustive irreducibility (search for any nontrivial monic factor)
"""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ddf_oracle import (
    FpPoly,
    distinct_degree_split,
    enumerate_fp,
    factorization_type,
    fp_gcd,
    fp_normalize,
    is_odd_poly,
    is_squarefree_fp,
    mobius_fp,
    mobius_pn,
    _mul,
)
from polysieve.errors import BudgetExceededError


def poly(coeffs, p):
    return fp_normalize(coeffs, p)


def all_monic(p, max_deg):
    out = []
    for d in range(max_deg + 1):
        for vec in itertools.product(range(p), repeat=d):
            out.append(FpPoly(p, vec + (1,)))
    return out


def divides(g: FpPoly, f: FpPoly) -> bool:
    from ddf_oracle import _divmod

    if g.is_zero:
        return f.is_zero
    return _divmod(f.coeffs, g.coeffs, f.p)[1] == ()


def brute_gcd(f: FpPoly, g: FpPoly) -> FpPoly:
    # largest-degree monic divisor of both, by exhaustive search
    cap = min(d for d in (f.degree, g.degree) if d is not None)
    best = FpPoly(f.p, (1,))
    for cand in all_monic(f.p, cap):
        if divides(cand, f) and divides(cand, g):
            if cand.degree > best.degree:
                best = cand
    return best


def brute_squarefree(f: FpPoly) -> bool:
    for g in all_monic(f.p, f.degree // 2):
        if g.degree >= 1 and divides(FpPoly(f.p, _mul(g.coeffs, g.coeffs, f.p)), f):
            return False
    return True


def brute_irreducible(f: FpPoly) -> bool:
    return f.degree >= 1 and not any(
        1 <= g.degree < f.degree and divides(g, f) for g in all_monic(f.p, f.degree - 1)
    )


class TestNormalize:
    def test_reduction(self):
        f = fp_normalize([5, 3, 7], 3)
        assert f.coeffs == (2, 0, 1)
        assert f.degree == 2

    def test_zero(self):
        f = fp_normalize([0, 0], 5)
        assert f.is_zero and f.degree is None

    def test_degree_drop(self):
        # p | a_n: the reduction of an integer cubic has degree 1
        assert fp_normalize([1, 1, 0, 3], 3).coeffs == (1, 1)

    def test_constant_kill(self):
        assert fp_normalize([5, 0, 1], 5).coeffs == (0, 0, 1)

    def test_trailing_trim(self):
        f = fp_normalize([1, 0, 0, 4, 0], 7)
        assert f.coeffs == (1, 0, 0, 4)
        assert f.degree == 3

    def test_nonprime_rejected(self):
        with pytest.raises(ValueError):
            fp_normalize([1], 6)

    @given(st.lists(st.integers(-50, 50), max_size=6), st.sampled_from([2, 3, 5, 7]))
    def test_canonical_and_idempotent(self, raw, p):
        f = fp_normalize(raw, p)
        assert all(0 <= c < p for c in f.coeffs)
        assert not f.coeffs or f.coeffs[-1] != 0
        assert fp_normalize(f.coeffs, p) == f


class TestGcd:
    def test_shared_root(self):
        # (x^2 - 1, x - 1) over F_5: common factor x - 1 = x + 4
        f = poly([-1, 0, 1], 5)
        g = poly([-1, 1], 5)
        assert fp_gcd(f, g) == poly([4, 1], 5)

    def test_unit(self):
        f = poly([2, 1, 1], 7)
        assert fp_gcd(f, poly([1], 7)) == poly([1], 7)

    def test_against_divisor_search(self):
        # x^3 + x and x^2 + 1 over F_3: oracle finds x^2 + 1
        f = poly([0, 1, 0, 1], 3)
        g = poly([1, 0, 1], 3)
        expected = brute_gcd(f, g)
        assert expected == poly([1, 0, 1], 3)
        assert fp_gcd(f, g) == expected

    def test_both_zero_rejected(self):
        z = poly([0], 3)
        with pytest.raises(ValueError):
            fp_gcd(z, z)

    def test_exhaustive_small(self):
        for f in all_monic(3, 3):
            for g in all_monic(3, 2):
                if f.is_zero and g.is_zero:
                    continue
                assert fp_gcd(f, g) == brute_gcd(f, g)


class TestSquarefree:
    def test_irreducible_quadratic(self):
        f = poly([1, 0, 1], 3)
        assert brute_squarefree(f)
        assert is_squarefree_fp(f)

    def test_visible_square(self):
        f = poly([1, 2, 1], 5)  # (x+1)^2
        assert not is_squarefree_fp(f)

    def test_pth_power(self):
        f = poly([0, 0, 1], 2)  # x^2 = (x)^2, derivative vanishes
        assert not is_squarefree_fp(f)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            is_squarefree_fp(poly([0], 3))

    def test_exhaustive_vs_oracle(self):
        for p in (2, 3):
            for f in all_monic(p, 4):
                if f.degree >= 1:
                    assert is_squarefree_fp(f) == brute_squarefree(f)


class TestDistinctDegreeSplit:
    def test_irreducible_quadratic(self):
        f = poly([1, 0, 1], 3)
        assert brute_irreducible(f)
        assert distinct_degree_split(f) == [(2, f)]

    def test_split_linears(self):
        f = poly([0, 1, 1], 2)  # x(x+1)
        assert distinct_degree_split(f) == [(1, f)]

    def test_irreducible_cubic(self):
        f = poly([1, 1, 0, 1], 2)
        assert brute_irreducible(f)
        assert distinct_degree_split(f) == [(3, f)]

    def test_rejects_non_squarefree(self):
        with pytest.raises(ValueError):
            distinct_degree_split(poly([1, 2, 1], 3))

    def test_reconstruction_property(self):
        for p in (2, 3, 5):
            for f in all_monic(p, 4):
                if f.degree is None or f.degree < 1 or not is_squarefree_fp(f):
                    continue
                split = distinct_degree_split(f)
                assert sum(g.degree for _, g in split) == f.degree
                prod = (1,)
                for _, g in split:
                    prod = _mul(prod, g.coeffs, p)
                assert prod == f.coeffs


class TestFactorizationType:
    def brute_factor_degrees(self, f):
        from ddf_oracle import _divmod

        p = f.p
        c = f.coeffs
        inv = pow(c[-1], -1, p)
        c = tuple(x * inv % p for x in c)
        degs = []
        while len(c) > 1:
            # the smallest-degree monic divisor is irreducible
            g = next(
                vec + (1,)
                for d in range(1, len(c))
                for vec in itertools.product(range(p), repeat=d)
                if _divmod(c, vec + (1,), p)[1] == ()
            )
            degs.append(len(g) - 1)
            c = _divmod(c, g, p)[0]
        return tuple(sorted(degs))

    def test_high_degree_against_divisor_search(self):
        import random

        rng = random.Random(1)
        checked = 0
        for p in (2, 3):
            for deg in (5, 6):
                for _ in range(25):
                    f = FpPoly(p, tuple(rng.randrange(p) for _ in range(deg)) + (1,))
                    if not is_squarefree_fp(f):
                        continue
                    assert factorization_type(f) == self.brute_factor_degrees(f)
                    checked += 1
        assert checked > 40

    def test_two_linears(self):
        assert factorization_type(poly([0, 1, 1], 2)) == (1, 1)

    def test_one_quadratic(self):
        assert factorization_type(poly([1, 0, 1], 3)) == (2,)

    def test_mixed(self):
        # x * (x^2 + 1) over F_3, both factors verified irreducible
        f = poly(_mul((0, 1), (1, 0, 1), 3), 3)
        assert brute_irreducible(poly([1, 0, 1], 3))
        assert factorization_type(f) == (1, 2)


class TestMobius:
    def test_single_linear(self):
        assert mobius_fp(poly([0, 1], 5)) == -1

    def test_square(self):
        assert mobius_fp(poly([1, 2, 1], 3)) == 0

    def test_two_factors(self):
        assert mobius_fp(poly([0, 1, 1], 2)) == 1

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            mobius_fp(poly([0], 3))

    def test_degree_gate(self):
        assert mobius_pn(poly([0, 1, 1], 2), 2) == 1
        assert mobius_pn(poly([1, 1], 3), 2) == 0
        assert mobius_pn(poly([0], 5), 3) == 0

    def test_multiplicative_on_coprime_pairs(self):
        # exhaustive over pairs of nonzero polynomials of degree <= 3
        for p in (2, 3):
            polys = [f for f in (FpPoly(p, t) for d in range(4)
                                 for t in ((v + (c,)) for v in itertools.product(range(p), repeat=d)
                                           for c in range(1, p)))]
            mu = {f.coeffs: mobius_fp(f) for f in polys}
            for f in polys:
                for g in polys:
                    if len(fp_gcd(f, g).coeffs) != 1:
                        continue
                    h = _mul(f.coeffs, g.coeffs, p)
                    assert mobius_fp(FpPoly(p, h)) == mu[f.coeffs] * mu[g.coeffs]

    def test_multiplicative_exhaustive_f5(self):
        from ddf_oracle import _gcd, _mobius, _monic

        p = 5
        polys = [vec + (c,) for d in range(4)
                 for vec in itertools.product(range(p), repeat=d)
                 for c in range(1, p)]
        mu = {f: _mobius(f, p) for f in polys}
        # gcd(c f, d g) is the gcd of the monic parts: one gcd per monic pair
        monic = {f: _monic(f, p) for f in polys}
        coprime: dict = {}
        prod_mu: dict = {}
        pairs = 0
        for f in polys:
            muf = mu[f]
            for g in polys:
                key = (monic[f], monic[g])
                ok = coprime.get(key)
                if ok is None:
                    ok = coprime[key] = len(_gcd(*key, p)) == 1
                if not ok:
                    continue
                h = _mul(f, g, p)
                m = prod_mu.get(h)
                if m is None:
                    m = prod_mu[h] = _mobius(h, p)
                assert m == muf * mu[g]
                pairs += 1
        assert (len(polys), len(coprime), pairs) == (624, 156 ** 2, 312_496)


class TestOddPoly:
    def test_one_even_factor(self):
        assert is_odd_poly(poly([1, 0, 1], 3))

    def test_no_even_factor(self):
        assert not is_odd_poly(poly([0, 1, 1], 2))

    def test_not_squarefree(self):
        assert not is_odd_poly(poly([1, 2, 1], 3))

    def test_parity_law_small(self):
        # parity <-> Mobius sign, exhaustively at (p, n) = (3, 3)
        p, n = 3, 3
        for lead in range(1, p):
            for vec in itertools.product(range(p), repeat=n):
                f = FpPoly(p, vec + (lead,))
                assert is_odd_poly(f) == (mobius_pn(f, n) == (-1) ** (n + 1))


class TestEnumerate:
    def test_monic_counts(self):
        assert len(list(enumerate_fp(2, 2, monic=True))) == 4
        assert len(list(enumerate_fp(3, 3, monic=True))) == 27

    def test_general_count_and_uniqueness(self):
        polys = list(enumerate_fp(3, 2))
        assert len(polys) == 27
        assert len(set(polys)) == 27
        assert all(f.degree is None or f.degree <= 2 for f in polys)

    def test_monic_all_degree_n(self):
        polys = list(enumerate_fp(5, 2, monic=True))
        assert len(set(polys)) == 25
        assert all(f.degree == 2 and f.is_monic for f in polys)

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            list(enumerate_fp(5, 4, budget=100))

    def test_constant_term_fastest(self):
        first = list(itertools.islice(enumerate_fp(3, 1, monic=True), 3))
        assert [f.coeffs for f in first] == [(0, 1), (1, 1), (2, 1)]


class TestClassicalSums:
    def test_mobius_sum_vanishes(self):
        for p in (2, 3, 5, 7):
            for n in (2, 3, 4):
                total = sum(mobius_fp(f) for f in enumerate_fp(p, n, monic=True))
                assert total == 0

    def test_squarefree_count(self):
        for p in (2, 3, 5, 7):
            for n in (2, 3, 4):
                count = sum(1 for f in enumerate_fp(p, n, monic=True) if is_squarefree_fp(f))
                assert count == p ** n - p ** (n - 1)
