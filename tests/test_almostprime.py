"""Tests for the discriminant histogram, linear-sieve density, admissibility
arithmetic, and almost-prime counting.

Oracles: hand enumeration of the 9-point quadratic box, a Decimal
high-precision evaluation of the level exponent, scalar omega cross-checks
for the batch factoring, and the closed-form main terms.
"""

import math
from decimal import Decimal, getcontext
from fractions import Fraction

import numpy as np
import pytest

from polysieve._ints import INT64_MR_LIMIT, is_squarefree, omega, omega_batch
from polysieve.charsum import SmoothWeight
from polysieve.errors import BudgetExceededError
from polysieve import zpoly
from polysieve.almostprime import (
    _disc_abs_bound,
    admissibility,
    build_disc_sequence,
    count_almost_prime,
    delta_r,
    density_remainder,
    field_exponent,
    min_admissible_r,
    multiplicity_bound,
)
from polysieve.zpoly import (
    DEFAULT_BOX_BUDGET,
    _disc_blocks,
    discriminant,
    enumerate_box,
    square_disc_scan,
)


class TestDiscSequence:
    def test_hand_enumerated_quadratic_box(self):
        # x^2 + bx + c, |b|, |c| <= 1: discriminants b^2 - 4c
        table = {(b, c): b * b - 4 * c for b in (-1, 0, 1) for c in (-1, 0, 1)}
        expected = {}
        phi = SmoothWeight()
        for (b, c), d in table.items():
            if d == 0:
                continue
            expected[abs(d)] = expected.get(abs(d), 0.0) + phi.value((b, c))
        assert sorted(expected) == [1, 3, 4, 5]
        negatives = [d for d in table.values() if d < 0]
        assert len(negatives) == 3 and sorted(set(negatives)) == [-4, -3]

        seq = build_disc_sequence(2, 1, phi, radius=1)
        assert sorted(seq.ms.tolist()) == [1, 3, 4, 5]
        for m, mass in expected.items():
            assert abs(seq.mass_of(m) - mass) < 1e-12
        assert abs(seq.zero_mass - phi.value((0, 0))) < 1e-12

    def test_mass_conservation(self):
        phi = SmoothWeight()
        seq = build_disc_sequence(3, 4, phi)
        R = seq.radius
        direct = 0.0
        zero_direct = 0.0
        for f in enumerate_box(3, R, monic=True, budget=None):
            w = phi.value([c / 4 for c in f.coeffs[:3]])
            if discriminant(f) == 0:
                zero_direct += w
            else:
                direct += w
        assert abs(seq.total_mass - direct) < 1e-9 * max(1.0, direct)
        assert abs(seq.zero_mass - zero_direct) < 1e-12

    def test_support_bound(self, seq):
        # |Disc| <= 5R^4 + 22R^3 + 27R^2 over the truncated box (H = 20),
        # and R <= 3.5 sigma H + 2
        assert seq.max_m <= _disc_abs_bound(3, seq.radius)
        assert seq.radius <= 3.5 * 20 + 2

    def test_cubic_term_bound_covers_box(self):
        # the sum of the closed form's |terms| bounds the exhaustive maximum
        for R in range(9):
            top = max((abs(discriminant(f)) for f in enumerate_box(3, R, True, None)),
                      default=0)
            assert top <= _disc_abs_bound(3, R), R
        # R = 104, the H = 30 box
        top = max(int(np.abs(discs).max()) for _c, discs in _disc_blocks(3, 104, True, None))
        assert (top, _disc_abs_bound(3, 104)) == (609_384_256, 609_968_320)

    @pytest.mark.parametrize("n, radius, budget", [(3, 287, None), (9, 1, None),
                                                   (9, 1, DEFAULT_BOX_BUDGET)])
    def test_sort_key_domain_refused(self, monkeypatch, n, radius, budget):
        # |Disc| << shift | slot must fit in int64: max |Disc| < 2^(63 - shift).
        # The degree-9 box of height 1 is inside the default budget but not
        # inside this domain.  Both boxes are refused before any
        # discriminant or allocation.
        def fail(*_a, **_k):
            raise AssertionError("work started before the domain check")

        monkeypatch.setattr(zpoly, "discriminant", fail)
        monkeypatch.setattr(np, "empty", fail)
        with pytest.raises(BudgetExceededError, match="int64"):
            build_disc_sequence(n, 1, radius=radius, budget=budget)

    def test_sort_key_domain_edge(self):
        # R = 286 is the last monic cubic box inside the domain: 573^3 slots
        # take 28 bits
        assert (573 ** 3 - 1).bit_length() == 28
        assert _disc_abs_bound(3, 286) < 2 ** 35 <= _disc_abs_bound(3, 287)

    @pytest.mark.parametrize("n, H, radius", [(3, 4, None), (3, 2, 3), (4, 1, 2), (2, 1, 1)])
    def test_matches_stable_argsort_oracle(self, n, H, radius):
        # the histogram as one stable argsort over plain |Disc| builds it,
        # with the row-product weights: equal |Disc| add up in enumeration
        # order, so the packed-key sort must agree bit for bit
        phi = SmoothWeight()
        seq = build_disc_sequence(n, H, phi, radius=radius)
        R = seq.radius
        profile = phi.coord_profile(np.arange(-R, R + 1) / H)
        vals, masses, zero_mass = [], [], 0.0
        for coeffs, discs in _disc_blocks(n, R, True, None):
            w = phi.amplitude * profile[coeffs + R].prod(axis=1)
            live = discs != 0
            zero_mass += float(w[~live].sum())
            vals.append(np.abs(discs[live]))
            masses.append(w[live])
        vals, masses = np.concatenate(vals), np.concatenate(masses)
        order = np.argsort(vals, kind="stable")
        vals, masses = vals[order], masses[order]
        starts = np.flatnonzero(np.concatenate(([True], vals[1:] != vals[:-1])))
        assert np.array_equal(seq.ms, vals[starts])
        assert np.array_equal(seq.masses, np.add.reduceat(masses, starts))
        assert seq.zero_mass == zero_mass

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            build_disc_sequence(3, 100, budget=1000)

    def test_budget_refused_before_allocation(self):
        # 68,493^3 = 3.2e14 box points: the refusal comes before the
        # histogram's per-point arrays are allocated
        with pytest.raises(BudgetExceededError):
            build_disc_sequence(3, 10 ** 4, budget=10 ** 6)

    def test_budget_charges_per_point_cost(self):
        # cubic closed form: 1 per point; other degrees: 7^3 per quartic,
        # the Bareiss cost on the 7x7 Sylvester matrix
        build_disc_sequence(3, 1, radius=1, budget=27)
        build_disc_sequence(4, 1, radius=1, budget=81 * 343)
        with pytest.raises(BudgetExceededError):
            build_disc_sequence(3, 1, radius=1, budget=26)
        with pytest.raises(BudgetExceededError):
            build_disc_sequence(4, 1, radius=1, budget=81 * 343 - 1)
        with pytest.raises(BudgetExceededError):
            count_almost_prime(4, 1, 3, budget=81 * 343 - 1)
        # the square-discriminant scan shares the cost model; a general box
        # has 2R leading coefficients
        square_disc_scan(3, 1, True, budget=27)
        square_disc_scan(4, 1, True, budget=81 * 343)
        square_disc_scan(3, 1, False, budget=54)
        with pytest.raises(BudgetExceededError):
            square_disc_scan(3, 1, True, budget=26)
        with pytest.raises(BudgetExceededError):
            square_disc_scan(4, 1, True, budget=81 * 343 - 1)
        with pytest.raises(BudgetExceededError):
            square_disc_scan(3, 1, False, budget=53)

    def test_int64_domain_refused(self):
        # Hadamard's bound sqrt(91^9 * 2665^10) on |LDisc| exceeds 2^63: refused
        # before enumeration
        with pytest.raises(BudgetExceededError, match="int64"):
            build_disc_sequence(10, 3, radius=3, budget=None)
        with pytest.raises(BudgetExceededError, match="int64"):
            count_almost_prime(10, 3, 3, budget=None)

    def test_cubic_entries_match_oracle(self):
        # every histogram entry of a cubic box against a pointwise sum over
        # enumerate_box, with Bareiss discriminants
        phi = SmoothWeight()
        seq = build_disc_sequence(3, 2, phi, radius=3)
        direct = {}
        for f in enumerate_box(3, 3, monic=True, budget=None):
            d = discriminant(f)
            if d:
                w = phi.value([c / 2 for c in f.coeffs[:3]])
                direct[abs(d)] = direct.get(abs(d), 0.0) + w
        assert np.all(np.diff(seq.ms) > 0)
        assert seq.ms.tolist() == sorted(direct)
        for m, mass in zip(seq.ms.tolist(), seq.masses.tolist()):
            assert abs(mass - direct[m]) <= 1e-12 * direct[m], m

    def test_empty_histogram(self):
        # the radius-0 quadratic box is x^2 alone, whose discriminant is 0
        phi = SmoothWeight()
        seq = build_disc_sequence(2, 1, phi, radius=0)
        assert seq.ms.size == 0 and seq.masses.size == 0
        assert seq.total_mass == 0.0
        assert seq.max_m == 0
        assert seq.zero_mass == phi.amplitude

    def test_quartic_generic_path(self):
        seq = build_disc_sequence(4, 1, radius=1)
        direct = {}
        for f in enumerate_box(4, 1, monic=True):
            d = discriminant(f)
            if d:
                key = abs(d)
                direct[key] = direct.get(key, 0.0) + SmoothWeight().value(f.coeffs[:4])
        assert set(seq.ms.tolist()) == set(direct)
        for m, mass in direct.items():
            assert abs(seq.mass_of(m) - mass) < 1e-12


@pytest.fixture(scope="module")
def seq():
    return build_disc_sequence(3, 20)


class TestDensityRemainder:

    def test_trivial_divisor(self, seq):
        rep = density_remainder(seq, 1)
        assert abs(rep.remainder) < 0.02 * rep.main

    def test_small_divisors(self, seq):
        # the systematic part of the remainder is the zero-discriminant mass
        # (every d divides 0), so relative error grows like d * zero/main;
        # at H = 20 that reaches 5.5% at d = 10
        for d in (2, 3, 5, 6, 10):
            rep = density_remainder(seq, d)
            assert abs(rep.remainder) < 0.06 * rep.main
            assert abs(rep.remainder) <= 1.05 * seq.zero_mass

    def test_main_term_multiplicative(self, seq):
        total = density_remainder(seq, 1).main
        for d1, d2 in ((2, 3), (2, 5), (3, 5)):
            m1 = density_remainder(seq, d1).main
            m2 = density_remainder(seq, d2).main
            m12 = density_remainder(seq, d1 * d2).main
            assert abs(m12 - m1 * m2 / total) < 1e-9 * m12

    def test_non_squarefree_rejected(self, seq):
        with pytest.raises(ValueError):
            density_remainder(seq, 4)

    def test_remainder_scan_envelope(self, seq):
        # measured envelope over squarefree d <= 30: report-style check that
        # remainders stay far below the main terms; with a Gaussian weight
        # the small-d remainders sit at the zero-mass floor rather than on a
        # d^(n-2) profile
        rows = []
        for d in (2, 3, 5, 6, 10, 15, 21, 30):
            rep = density_remainder(seq, d)
            rows.append((d, abs(rep.remainder) / rep.main))
        assert all(rel < 0.15 for _, rel in rows)
        # the absolute remainder never exceeds the zero-mass floor here
        assert all(abs(density_remainder(seq, d).remainder) <= 1.05 * seq.zero_mass
                   for d, _ in rows)


class TestDeltaR:
    def test_value_at_one_is_exact(self):
        # (3/4)(1 + 1/3) = 1, so the level exponent equals r exactly at r = 1
        assert delta_r(1) == 1.0

    def test_high_precision_delta_three(self):
        getcontext().prec = 40
        d3 = 3 + (Decimal(3) / 4 * (1 + Decimal(3) ** -3)).ln() / Decimal(3).ln()
        assert abs(delta_r(3) - float(d3)) < 1e-12
        assert abs(delta_r(3) - 2.7712) < 1e-3

    def test_limit(self):
        target = math.log(3 / 4) / math.log(3)
        assert abs((delta_r(500) - 500) - target) < 1e-12
        assert abs(target + 0.2619) < 1e-4

    def test_bracket(self):
        for r in range(2, 51):
            assert r - 0.27 < delta_r(r) < r
        assert 1 - 0.27 < delta_r(1) <= 1.0


class TestAdmissibility:
    def test_min_r_cubic(self):
        assert min_admissible_r(3) == 3

    def test_min_r_quartic(self):
        assert min_admissible_r(4) == 5

    def test_closed_form_range(self):
        for n in range(3, 13):
            assert min_admissible_r(n) == 2 * n - 3

    def test_record(self):
        rec = admissibility(3, 3)
        assert rec.admissible
        assert rec.density_exponent == Fraction(3, 8)
        assert not admissibility(3, 2).admissible

    def test_requires_cubic(self):
        with pytest.raises(ValueError):
            min_admissible_r(2)


class TestCountAlmostPrime:
    def test_vacuous_budget(self):
        all_nonzero = count_almost_prime(3, 3, 100)
        direct = sum(1 for f in enumerate_box(3, 3, monic=True) if discriminant(f) != 0)
        assert all_nonzero == direct

    def test_unit_discriminants(self):
        got = count_almost_prime(3, 3, 0)
        direct = sum(1 for f in enumerate_box(3, 3, monic=True)
                     if abs(discriminant(f)) == 1)
        assert got == direct

    def test_matches_scalar_omega(self):
        got = count_almost_prime(3, 4, 2)
        direct = 0
        for f in enumerate_box(3, 4, monic=True):
            d = discriminant(f)
            if d != 0 and omega(d) <= 2:
                direct += 1
        assert got == direct

    def test_squarefree_filter(self):
        got = count_almost_prime(3, 3, 3, squarefree_only=True)
        direct = 0
        for f in enumerate_box(3, 3, monic=True):
            d = discriminant(f)
            if d != 0 and omega(d) <= 3 and is_squarefree(d):
                direct += 1
        assert got == direct
        assert got <= count_almost_prime(3, 3, 3)

    def test_oracle_h12(self):
        # |Disc| reaches ~10^6, so cofactors above the trial-division bound
        # go through the int64 Miller-Rabin; oracle: Bareiss + scalar omega.
        scalar = [(omega(d), is_squarefree(d))
                  for d in map(discriminant, enumerate_box(3, 12, monic=True))
                  if d != 0]
        for r in range(5):
            for squarefree_only in (False, True):
                want = sum(1 for o, sf in scalar
                           if o <= r and (sf or not squarefree_only))
                assert count_almost_prime(3, 12, r, squarefree_only) == want

    def test_stability_small(self):
        c1 = count_almost_prime(3, 15, 3)
        c2 = count_almost_prime(3, 30, 3)
        r1 = c1 / (15 ** 3 / math.log(15))
        r2 = c2 / (30 ** 3 / math.log(30))
        assert r1 > 0 and r2 > 0
        assert max(r1, r2) / min(r1, r2) < 2


def assert_matches_scalar(values):
    vals = np.asarray(values, dtype=np.int64)
    om, flags = omega_batch(vals, track_squarefree=True)
    assert om.shape == flags.shape == vals.shape
    assert np.array_equal(omega_batch(vals), om)
    flat = [int(v) for v in vals.ravel()]
    assert om.ravel().tolist() == [omega(v) for v in flat]
    assert flags.ravel().tolist() == [is_squarefree(v) for v in flat]


# Strong pseudoprimes to base 2 (25326001 also to 3 and 5) whose factors
# 23 * 89 and 2251 * 11251 both exceed cbrt(v), so v is its own cofactor.
SPSP = (2047, 25326001)
# 48781 * 97561: strong pseudoprime to 2, 7 and 61 at once, above
# INT64_MR_LIMIT, so only the scalar test may see it.
SPSP_2_7_61 = 4759123141
# 46327 * 46337 below 2^31 and 46337 * 46349 above it.
STRADDLE = (2146654199, 2147673613)
# The primes 2^31 - 1 and 2^31 + 11.
PRIMES_AT_LIMIT = (2 ** 31 - 1, 2 ** 31 + 11)


class TestOmegaBatch:
    def test_strong_pseudoprimes(self):
        for v in SPSP + (SPSP_2_7_61,):
            assert_matches_scalar([v])
            assert omega_batch(np.array([v]))[0] == 2
        assert_matches_scalar(SPSP + (SPSP_2_7_61,))

    def test_limit_straddle(self):
        assert STRADDLE[0] < INT64_MR_LIMIT < STRADDLE[1]
        assert PRIMES_AT_LIMIT[0] < INT64_MR_LIMIT < PRIMES_AT_LIMIT[1]
        for v in STRADDLE + PRIMES_AT_LIMIT:
            assert_matches_scalar([v])
        assert omega_batch(np.array(STRADDLE)).tolist() == [2, 2]
        assert omega_batch(np.array(PRIMES_AT_LIMIT)).tolist() == [1, 1]

    def test_witness_cofactor(self):
        # 61 alone is a cofactor that one of the bases 2, 7, 61 is divisible by
        assert_matches_scalar([61])
        assert omega_batch(np.array([61]))[0] == 1

    def test_prime_squares_above_cbrt(self):
        squares = [101 ** 2, 46337 ** 2, 65537 ** 2, 3 * 1009 ** 2]
        for v in squares:
            assert_matches_scalar([v])
        assert_matches_scalar(squares)
        om, flags = omega_batch(np.array(squares), track_squarefree=True)
        assert om.tolist() == [1, 1, 1, 2] and not flags.any()

    def test_repeats_negatives_and_shape(self):
        row = [2047, -2047, 1, -1, -12, -SPSP_2_7_61, 46337 ** 2,
               STRADDLE[0], -STRADDLE[0], -STRADDLE[1]]
        grid = np.array(row + row[::-1], dtype=np.int64).reshape(4, 5)
        assert_matches_scalar(grid)
        assert omega_batch(np.zeros((0, 3), dtype=np.int64)).shape == (0, 3)

    def test_matches_scalar(self):
        rng = np.random.default_rng(3)
        vals = rng.integers(1, 10 ** 9, size=300)
        got = omega_batch(vals)
        for v, o in zip(vals.tolist(), got.tolist()):
            assert o == omega(v)

    def test_squarefree_flags(self):
        vals = np.arange(1, 500, dtype=np.int64)
        _, flags = omega_batch(vals, track_squarefree=True)
        for v, f in zip(vals.tolist(), flags.tolist()):
            assert f == is_squarefree(v)


class TestFieldExponent:
    def test_cubic_baseline(self):
        count_exp, cutoff_exp = field_exponent(3, 1)
        assert count_exp == Fraction(3, 5)
        assert cutoff_exp == Fraction(12, 5)

    def test_limit_half(self):
        count_exp, _ = field_exponent(3, 10 ** 9)
        assert abs(float(count_exp) - 0.5) < 1e-8

    def test_degree_six(self):
        count_exp, _ = field_exponent(6, 2)
        assert count_exp == Fraction(1, 2) + Fraction(1, 118)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            field_exponent(3, Fraction(1, 7))


class TestMultiplicityBound:
    def test_unit_disc(self):
        assert multiplicity_bound(3, 50, 1) == 50 * math.log(50) ** 2

    def test_monotone_in_disc(self):
        vals = [multiplicity_bound(3, 100, d) for d in (10, 100, 10 ** 4, 10 ** 6)]
        assert vals == sorted(vals, reverse=True)

    def test_frozen_value(self):
        assert abs(multiplicity_bound(3, 100, 10 ** 6)
                   - 100 * math.log(100) ** 2 * 0.1) < 1e-9

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            multiplicity_bound(3, 10, 0)
