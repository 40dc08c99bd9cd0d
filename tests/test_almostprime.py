"""Tests for the discriminant histogram, linear-sieve density, admissibility
arithmetic, and almost-prime counting.

Oracles: hand enumeration of the 9-point quadratic box, a Decimal
high-precision evaluation of the level exponent, scalar omega cross-checks
for the batch factoring, and the closed-form main terms.
"""

import math
import time
import tracemalloc
from decimal import Decimal, getcontext
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from polysieve import _ints, almostprime
from polysieve._ints import (INT64_MR_LIMIT, is_prime, is_squarefree, mobius, omega,
                             omega_batch)
from polysieve.charsum import SmoothWeight
from polysieve.errors import BudgetExceededError
from polysieve import zpoly
from polysieve.almostprime import (
    admissibility,
    build_disc_sequence,
    count_almost_prime,
    delta_r,
    density_remainder,
    field_exponent,
    min_admissible_r,
    multiplicity_bound,
)
from polysieve._discforms import TERMS
from polysieve.zpoly import (
    DEFAULT_BOX_BUDGET,
    _disc_blocks,
    _disc_sylvester,
    _ldisc_abs_bound,
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
            assert abs(seq.masses[np.searchsorted(seq.ms, m)] - mass) < 1e-12
        assert abs(seq.zero_mass - phi.value((0, 0))) < 1e-12

    def test_mass_conservation(self):
        phi = SmoothWeight()
        seq = build_disc_sequence(3, 4, phi)
        R = seq.radius
        direct = 0.0
        zero_direct = 0.0
        for f in enumerate_box(3, R, monic=True):
            w = phi.value([c / 4 for c in f[:3]])
            if discriminant(f) == 0:
                zero_direct += w
            else:
                direct += w
        assert abs(seq.total_mass - direct) < 1e-9 * max(1.0, direct)
        assert abs(seq.zero_mass - zero_direct) < 1e-12

    def test_support_bound(self, seq):
        # |Disc| <= 5R^4 + 22R^3 + 27R^2 over the truncated box (H = 20),
        # and R <= 3.5 sigma H + 2
        assert seq.ms[-1] <= _ldisc_abs_bound(3, seq.radius, True)
        assert seq.radius <= 3.5 * 20 + 2

    def test_cubic_term_bound_covers_box(self):
        # the sum of the closed form's |terms| bounds the exhaustive maximum
        # of the Sylvester route, independent of the closed form
        for R in range(9):
            top = max((abs(_disc_sylvester(f))
                       for f in enumerate_box(3, R, True)), default=0)
            assert top <= _ldisc_abs_bound(3, R, True), R
        # R = 104, the H = 30 box
        top = max(int(np.abs(discs).max()) for _c, discs in _disc_blocks(3, 104, True, None))
        assert (top, _ldisc_abs_bound(3, 104, True)) == (609_384_256, 609_968_320)

    def test_cubic_bound_is_the_term_table_sum(self):
        # sum |c| R^deg over the generated n = 3 terms at a_3 = 1 bounds
        # every intermediate of the Horner nest, so the int64 domain of the
        # cubic slabs is exactly the one `_ldisc_abs_bound` checks
        rows = [[int(v) for v in row.split()] for row in TERMS[3]]  # c e_0 .. e_3
        for R in range(300):
            table = sum(abs(c) * R ** (e0 + e1 + e2) for c, e0, e1, e2, _e3 in rows)
            assert table == _ldisc_abs_bound(3, R, True), R

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
        assert _ldisc_abs_bound(3, 286, True) < 2 ** 35 <= _ldisc_abs_bound(3, 287, True)

    @pytest.mark.parametrize("n, H, radius", [(3, 4, None), (3, 2, 3), (4, 1, 2), (2, 1, 1),
                                              (3, 10, 33), (4, 2, 3), (2, 1, 0)])
    def test_matches_stable_argsort_oracle(self, n, H, radius):
        # the radius-33 cubic box has more keys than one post-sort pass, so
        # groups meet the pass edges; the quartics read digits above the low
        # table; the radius-0 quadratic is one zero group and nothing else
        seq = build_disc_sequence(n, H, SmoothWeight(), radius=radius)
        ms, masses, zero_mass = stable_argsort_histogram(n, H, seq.radius)
        assert np.array_equal(seq.ms, ms)
        assert np.array_equal(seq.masses, masses)
        assert seq.zero_mass == zero_mass

    @pytest.mark.parametrize("chunk", [1, 2, 3])
    @pytest.mark.parametrize("n, H, radius", [(3, 10, 33), (4, 2, 3)])
    def test_pass_edges_match_oracle(self, monkeypatch, chunk, n, H, radius):
        # passes of 1, 2 or 3 keys before each edge moves to its group's
        # end: groups of equal |Disc| (the zero group among them) cross
        # several pass marks and must still count and sum whole, and each
        # pass writes its |Disc| over keys the next pass no longer reads
        monkeypatch.setattr(almostprime, "_PASS", chunk)
        seq = build_disc_sequence(n, H, SmoothWeight(), radius=radius)
        ms, masses, zero_mass = stable_argsort_histogram(n, H, radius)
        assert np.array_equal(seq.ms, ms)
        assert np.array_equal(seq.masses, masses)
        assert seq.zero_mass == zero_mass

    @pytest.mark.parametrize("n, H, radius, fixed_only", [
        (2, 1, 1, [4]),                    # x^2 - 4c: x^2 + c alone gives 4|c|
        (3, 2, 2, [4, 32]),                # x^3 + cx alone gives 4|c|^3
        (3, 1.5, 3, []),
        (4, 1, 2, [256, 1024, 1568, 2592, 4608]),
        (5, 1, 1, [256]),
    ])
    def test_half_box_matches_full_box(self, n, H, radius, fixed_only):
        # a pointwise sum over the full box, with Sylvester discriminants:
        # the half box with multiplicities must give the same histogram.
        # fixed_only lists the |Disc| that only fixed points of x -> -x
        # (all of a_{n-1}, a_{n-3}, ... zero) reach, which the half box
        # counts once.
        phi = SmoothWeight()
        seq = build_disc_sequence(n, H, phi, radius=radius)
        direct, moved, zero_mass = {}, set(), 0.0
        for f in enumerate_box(n, radius, monic=True):
            w = phi.value([c / H for c in f[:n]])
            d = abs(_disc_sylvester(f))
            if d == 0:
                zero_mass += w
                continue
            direct[d] = direct.get(d, 0.0) + w
            if any(f[j] for j in range(n - 1, -1, -2)):
                moved.add(d)
        assert sorted(set(direct) - moved) == fixed_only
        assert seq.ms.tolist() == sorted(direct)
        for m, mass in zip(seq.ms.tolist(), seq.masses.tolist()):
            assert abs(mass - direct[m]) <= 1e-12 * direct[m], m
        assert abs(seq.zero_mass - zero_mass) <= 1e-12 * zero_mass

    @pytest.mark.parametrize("sigma, H, R", [(1.0, 30, 104), (0.7, 2.7, 9), (1.3, 1e-3, 5)])
    def test_coord_profile_is_even(self, sigma, H, R):
        # the half box gives f and (-1)^n f(-x) one weight: that needs the
        # profile to be even bit for bit on the box's coordinates
        profile = SmoothWeight(sigma).coord_profile(np.arange(-R, R + 1) / H)
        assert np.array_equal(profile, profile[::-1])

    @pytest.mark.parametrize("H", [0, -2, math.inf, -math.inf, math.nan])
    def test_bad_height_refused_before_allocation(self, monkeypatch, H):
        def fail(*_a, **_k):
            raise AssertionError("work started before the argument check")

        monkeypatch.setattr(np, "empty", fail)
        monkeypatch.setattr(zpoly, "box_cost", fail)
        with pytest.raises(ValueError, match="H must be a finite positive number"):
            build_disc_sequence(3, H)
        with pytest.raises(ValueError, match="H must be a finite positive number"):
            build_disc_sequence(3, H, radius=2)

    def test_negative_radius_refused_before_allocation(self, monkeypatch):
        def fail(*_a, **_k):
            raise AssertionError("work started before the argument check")

        monkeypatch.setattr(np, "empty", fail)
        monkeypatch.setattr(zpoly, "box_cost", fail)
        with pytest.raises(ValueError, match="radius must be >= 0"):
            build_disc_sequence(3, 2, radius=-1)

    @pytest.mark.parametrize("args, kwargs, name", [
        ((3.0, 2), {}, "n"),
        ((3, 2), {"radius": 2.5}, "radius"),
        ((3, 2), {"radius": 2.0}, "radius"),
    ])
    def test_non_integer_refused_before_allocation(self, monkeypatch, args, kwargs, name):
        def fail(*_a, **_k):
            raise AssertionError("work started before the argument check")

        monkeypatch.setattr(np, "empty", fail)
        monkeypatch.setattr(zpoly, "box_cost", fail)
        with pytest.raises(TypeError, match=f"^{name} must be an integer"):
            build_disc_sequence(*args, **kwargs)

    def test_memory_is_one_key_per_point(self):
        # one int64 key per point of the half box, 61 * 121^2, one float64
        # mass per distinct |Disc| (the |Disc| themselves overwrite the
        # front of the keys) and a fixed allowance for the per-block and
        # per-pass temporaries (2.2 MiB measured); a key array over the
        # full box, 121^3, would add 6.7 MiB and break the bound, and so
        # would a float mass array beside the keys, an int64 per distinct
        # |Disc| beside the keys (values or group starts, 3.6 MiB) or a
        # bool per key (0.9 MiB) beside the outputs
        tracemalloc.start()
        try:
            seq = build_disc_sequence(3, 20, radius=60)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        points = 61 * 121 ** 2
        assert peak < 8 * points + 8 * seq.ms.size + 3 * 2 ** 20

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            build_disc_sequence(3, 100, budget=1000)

    def test_budget_refused_before_allocation(self):
        # 68,493^3 = 3.2e14 box points: the refusal comes before the
        # histogram's per-point arrays are allocated
        with pytest.raises(BudgetExceededError):
            build_disc_sequence(3, 10 ** 4, budget=10 ** 6)

    def test_budget_charges_per_point_cost(self):
        # cubic slabs: 1 per point; quartics: the 16 terms of the closed
        # form; degree 7: 13^3, the Bareiss cost on the 13x13 Sylvester matrix
        build_disc_sequence(3, 1, radius=1, budget=27)
        build_disc_sequence(4, 1, radius=1, budget=81 * 16)
        with pytest.raises(BudgetExceededError):
            build_disc_sequence(3, 1, radius=1, budget=26)
        with pytest.raises(BudgetExceededError):
            build_disc_sequence(4, 1, radius=1, budget=81 * 16 - 1)
        with pytest.raises(BudgetExceededError):
            count_almost_prime(4, 1, budget=81 * 16 - 1)
        with pytest.raises(BudgetExceededError):
            count_almost_prime(7, 1, budget=3 ** 7 * 13 ** 3 - 1)
        # the square-discriminant scan shares the cost model; a general box
        # has 2R leading coefficients
        square_disc_scan(3, 1, True, budget=27)
        square_disc_scan(4, 1, True, budget=81 * 16)
        square_disc_scan(5, 1, False, budget=486 * 59)
        square_disc_scan(3, 1, False, budget=54)
        with pytest.raises(BudgetExceededError):
            square_disc_scan(3, 1, True, budget=26)
        with pytest.raises(BudgetExceededError):
            square_disc_scan(4, 1, True, budget=81 * 16 - 1)
        with pytest.raises(BudgetExceededError):
            square_disc_scan(5, 1, False, budget=486 * 59 - 1)
        with pytest.raises(BudgetExceededError):
            square_disc_scan(3, 1, False, budget=53)

    def test_int64_domain_refused(self):
        # Hadamard's bound sqrt(91^9 * 2665^10) on |LDisc| exceeds 2^63: refused
        # before enumeration
        with pytest.raises(BudgetExceededError, match="int64"):
            build_disc_sequence(10, 3, radius=3, budget=None)
        with pytest.raises(BudgetExceededError, match="int64"):
            count_almost_prime(10, 3, budget=None)

    def test_cubic_entries_match_oracle(self):
        # every histogram entry of a cubic box against a pointwise sum over
        # enumerate_box, with Bareiss discriminants
        phi = SmoothWeight()
        seq = build_disc_sequence(3, 2, phi, radius=3)
        direct = {}
        for f in enumerate_box(3, 3, monic=True):
            d = discriminant(f)
            if d:
                w = phi.value([c / 2 for c in f[:3]])
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
        assert seq.zero_mass == phi.amplitude
        for d in (1, 2, 97):
            assert seq.divisible_mass(d) == 0.0

    def test_quartic_generic_path(self):
        seq = build_disc_sequence(4, 1, radius=1)
        direct = {}
        for f in enumerate_box(4, 1, monic=True):
            d = discriminant(f)
            if d:
                key = abs(d)
                direct[key] = direct.get(key, 0.0) + SmoothWeight().value(f[:4])
        assert set(seq.ms.tolist()) == set(direct)
        for m, mass in direct.items():
            assert abs(seq.masses[np.searchsorted(seq.ms, m)] - mass) < 1e-12


@pytest.fixture(scope="module")
def seq():
    return build_disc_sequence(3, 20)


class TestDensityRemainder:

    def test_divisible_mass_is_the_masked_sum(self, seq):
        # bit for bit the sum of the masses of the |Disc| that d divides,
        # in ascending order; d above the largest |Disc| divides none
        top = int(seq.ms.max())
        for d in (1, 2, 3, 6, 10, 30, 97, top + 1):
            want = float(seq.masses[seq.ms % d == 0].sum())
            assert seq.divisible_mass(d) == want, d
        assert seq.divisible_mass(top + 1) == 0.0

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

    def test_float_and_int64_overflowing_moduli(self):
        # a float d was once echoed back as d=2.0, and a squarefree d past
        # the int64 range died with OverflowError in divisible_mass
        small = build_disc_sequence(3, 2, radius=3)
        with pytest.raises(TypeError, match="^d must be an integer"):
            density_remainder(small, 2.0)
        d = 3 * 2 ** 62 + 1  # 13 * 211 * 5295463 * 952469857
        assert d >= 2 ** 63 and is_squarefree(d)
        rep = density_remainder(small, d)
        assert rep.d == d and rep.divisor_mass == 0.0
        assert rep.remainder == -rep.main

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

    def test_matches_stepwise_search(self):
        # the search starts at floor(2(n-1)^2 / n): the same r as stepping
        # up from r = 1
        for n in range(3, 301):
            threshold = n / (2 * (n - 1) ** 2)
            r = 1
            while 1 / delta_r(r) >= threshold:
                r += 1
            assert min_admissible_r(n) == r == 2 * n - 3, n

    def test_large_degree_is_fast(self):
        # stepping up from r = 1 took 1.85 s at n = 10^6
        started = time.perf_counter()
        assert min_admissible_r(10 ** 9) == 2 * 10 ** 9 - 3
        assert time.perf_counter() - started < 1.0

    @pytest.mark.parametrize("n", [10 ** 16, 10 ** 17])
    def test_closed_form_past_float_precision(self, n):
        # the float comparison of 1/Delta_r once gave 2n - 2 at 10^16 and
        # 2n + 17 at 10^17
        assert min_admissible_r(n) == 2 * n - 3

    @pytest.mark.parametrize("n", [1, 0, -3])
    def test_degree_below_two_refused(self, n):
        # n / (2(n-1)^2) once divided by zero at n = 1
        with pytest.raises(ValueError, match="n >= 2"):
            admissibility(n, 1)


class TestCountAlmostPrime:
    def test_vacuous_budget(self):
        # every r >= 15 admits the whole table: all nonzero discriminants
        table = count_almost_prime(3, 3)
        assert table.shape == (16, 2) and table.dtype == np.int64
        direct = sum(1 for f in enumerate_box(3, 3, monic=True) if discriminant(f) != 0)
        assert int(table.sum()) == direct

    def test_unit_discriminants(self):
        got = int(count_almost_prime(3, 3)[:1].sum())
        direct = sum(1 for f in enumerate_box(3, 3, monic=True)
                     if abs(discriminant(f)) == 1)
        assert got == direct

    def test_matches_scalar_omega(self):
        # every cell of the table, which holds every r <= 2 among them
        table = count_almost_prime(3, 4)
        assert np.array_equal(table, omega_table(cubic_omegas(4)))
        direct = 0
        for f in enumerate_box(3, 4, monic=True):
            d = discriminant(f)
            if d != 0 and omega(d) <= 2:
                direct += 1
        assert int(table[:3].sum()) == direct

    def test_squarefree_filter(self):
        table = count_almost_prime(3, 3)
        got = int(table[:4, 1].sum())
        direct = 0
        for f in enumerate_box(3, 3, monic=True):
            d = discriminant(f)
            if d != 0 and omega(d) <= 3 and mobius(abs(d)) != 0:
                direct += 1
        assert got == direct
        assert got <= int(table[:4].sum())

    @pytest.mark.parametrize("args, name", [
        ((3, "2"), "H"),
        ((3, 2.5), "H"),
        ((3.0, 2), "n"),
        ((3, 2.0), "H"),
    ])
    def test_non_integer_refused_before_allocation(self, monkeypatch, args, name):
        def fail(*_a, **_k):
            raise AssertionError("work started before the argument check")

        monkeypatch.setattr(np, "empty", fail)
        monkeypatch.setattr(zpoly, "box_cost", fail)
        with pytest.raises(TypeError, match=f"^{name} must be an integer"):
            count_almost_prime(*args)

    def test_integer_types_accepted(self):
        assert np.array_equal(count_almost_prime(np.int64(3), np.int32(4)),
                              count_almost_prime(3, 4))

    def test_budget_refused_before_allocation(self, monkeypatch):
        # the one int64 per box point is allocated after the box is charged
        def fail(*_a, **_k):
            raise AssertionError("allocated before the budget check")

        monkeypatch.setattr(np, "empty", fail)
        with pytest.raises(BudgetExceededError):
            count_almost_prime(3, 10 ** 4, budget=10 ** 6)

    def test_oracle_h12(self):
        # |Disc| reaches ~10^6, so cofactors above the trial-division bound
        # go through the int64 Miller-Rabin; oracle: Bareiss + scalar omega.
        # The whole box (15,625 points) is one omega_batch group.
        assert_counts_match_h12_oracle()

    @pytest.mark.parametrize("group", [1, 700])
    def test_oracle_h12_small_groups(self, monkeypatch, group):
        # 1: every call is one run of equal |Disc|; 700: 9 of the 22 cuts
        # fall inside a run and move to its end
        monkeypatch.setattr(almostprime, "_PASS", group)
        assert_counts_match_h12_oracle()

    @pytest.mark.parametrize("H, nonzero", [(20, 68_808), (30, 226_808)])
    def test_every_nonzero_disc_factored_once(self, monkeypatch, H, nonzero):
        # the inputs of omega_batch, recorded as perfbench's tracer records
        # ints.omega_values (295,616 on the almost-prime workload) and
        # ints.omega_distinct (58,047)
        calls = []

        def recording(vals):
            calls.append(np.array(vals))
            return omega_batch(vals)

        monkeypatch.setattr(_ints, "omega_batch", recording)
        count_almost_prime(3, H)
        sizes = [c.size for c in calls]
        assert sum(sizes) == nonzero
        assert nonzero == sum(int(np.count_nonzero(d))
                              for _c, d in _disc_blocks(3, H, True, None))
        assert min(sizes[:-1]) >= almostprime._PASS
        # each call is an ascending value range above the previous one, so
        # no distinct |Disc| reaches two calls: each is factored once
        for c in calls:
            assert np.all(c[1:] >= c[:-1])
        for prev, c in zip(calls, calls[1:]):
            assert c[0] > prev[-1]
        assert sum(np.unique(c).size for c in calls) == {20: 17_353, 30: 58_047}[H]

    def test_stability_small(self):
        c1 = int(count_almost_prime(3, 15)[:4].sum())
        c2 = int(count_almost_prime(3, 30)[:4].sum())
        r1 = c1 / (15 ** 3 / math.log(15))
        r2 = c2 / (30 ** 3 / math.log(30))
        assert r1 > 0 and r2 > 0
        assert max(r1, r2) / min(r1, r2) < 2


@lru_cache(maxsize=None)
def stable_argsort_histogram(n, H, R):
    """(ms, masses, zero_mass) of the radius-R half box by one stable
    argsort over plain |Disc|, zero included: the row-product weights times
    the multiplicity 1 + sign of the first nonzero of a_{n-1}, a_{n-3}, ...,
    and equal |Disc| added up in enumeration order by one `reduceat`, whose
    group 0 is the Disc = 0 mass when there is one.  The packed-key sort
    must agree with it bit for bit."""
    phi = SmoothWeight()
    profile = phi.coord_profile(np.arange(-R, R + 1) / H)
    vals, masses = [], []
    for coeffs, discs in _disc_blocks(n, R, True, None, half=True):
        flipped = coeffs[:, n - 1::-2]
        first = flipped[np.arange(len(flipped)), np.argmax(flipped != 0, axis=1)]
        mult = 1 + np.sign(first)
        w = mult * (phi.amplitude * profile[coeffs + R].prod(axis=1))
        vals.append(np.abs(discs[mult > 0]))
        masses.append(w[mult > 0])
    vals, masses = np.concatenate(vals), np.concatenate(masses)
    order = np.argsort(vals, kind="stable")
    vals, masses = vals[order], masses[order]
    starts = np.flatnonzero(np.concatenate(([True], vals[1:] != vals[:-1])))
    ms, masses = vals[starts], np.add.reduceat(masses, starts)
    if ms[0] != 0:
        return ms, masses, 0.0
    return ms[1:], masses[1:], float(masses[0])


@lru_cache(maxsize=None)
def cubic_omegas(H):
    """(omega, squarefree) of every nonzero Disc in the monic cubic box of
    height H, by Bareiss and scalar trial division."""
    return [(omega(d), mobius(abs(d)) != 0)
            for d in map(discriminant, enumerate_box(3, H, monic=True))
            if d != 0]


def omega_table(omegas):
    """counts[omega, squarefree] of (omega, squarefree) pairs."""
    counts = np.zeros((16, 2), dtype=np.int64)
    for o, sf in omegas:
        counts[o, int(sf)] += 1
    return counts


def assert_counts_match_h12_oracle():
    # all ten (r, squarefree_only) counts, and every cell, from one pass
    table = count_almost_prime(3, 12)
    for r in range(5):
        for squarefree_only in (False, True):
            want = sum(1 for o, sf in cubic_omegas(12)
                       if o <= r and (sf or not squarefree_only))
            got = table[:r + 1, 1].sum() if squarefree_only else table[:r + 1].sum()
            assert int(got) == want, (r, squarefree_only)
    assert np.array_equal(table, omega_table(cubic_omegas(12)))


def assert_matches_scalar(values):
    vals = np.asarray(values, dtype=np.int64)
    om, flags = omega_batch(vals)
    assert om.shape == flags.shape == vals.shape
    flat = [int(v) for v in vals.ravel()]
    assert om.ravel().tolist() == [omega(v) for v in flat]
    assert flags.ravel().tolist() == [mobius(abs(v)) != 0 for v in flat]


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


def sorted_keys(size, values, shift, seed):
    """size sorted int64 keys value << shift | low, values drawn from
    range(values) so that runs repeat, low bits at random."""
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, values, size) << shift | rng.integers(0, 1 << shift, size)
    keys.sort()
    return keys


class TestSortedRuns:
    @pytest.mark.parametrize("keys, shift", [
        (np.array([], dtype=np.int64), 0),
        (np.array([7], dtype=np.int64), 0),
        (np.full(9, 5, dtype=np.int64), 0),                   # one run
        (np.array([1, 1, 2, 3, 3, 3, 4, 9, 9, 9, 9, 10]), 0),
        (sorted_keys(300, 40, 0, 1), 0),
        (sorted_keys(300, 40, 5, 2), 5),                      # packed keys
        (np.array([5 << 3 | 1, 5 << 3 | 6, 6 << 3, 6 << 3 | 7]), 3),
    ])
    @pytest.mark.parametrize("size", [1, 2, 3, 7, 64, 1000])
    def test_matches_unique(self, keys, shift, size):
        # run starts are np.unique's first indices of keys >> shift; passes
        # tile the array, each of at least size entries (the last one may
        # be shorter), and a cut that falls inside a run moves to its end
        keys = np.asarray(keys, dtype=np.int64)
        vals = keys >> shift
        passes = list(_ints._sorted_runs(keys, size, shift))
        edges = [0] + [hi for _lo, hi, _new in passes]
        assert [lo for lo, _hi, _new in passes] == edges[:-1]
        assert edges[-1] == keys.size
        starts = [lo + int(s) for lo, _hi, new in passes for s in np.flatnonzero(new)]
        assert starts == np.unique(vals, return_index=True)[1].tolist()
        for lo, hi, new in passes:
            assert new.dtype == bool and new.size == hi - lo and new[0]
            if hi < keys.size:
                assert hi - lo >= size
                # the pass ends with the run holding its size-th entry
                assert vals[hi - 1] == vals[lo + size - 1] != vals[hi]

    def test_cut_moves_inside_a_run(self):
        # size 2 falls in the middle of the run of 3s: the pass takes the
        # whole run and the next pass starts at 4
        passes = list(_ints._sorted_runs(np.array([3, 3, 3, 4, 4, 5]), 2))
        assert [(lo, hi, new.tolist()) for lo, hi, new in passes] == \
            [(0, 3, [True, False, False]), (3, 5, [True, False]), (5, 6, [True])]

    @pytest.mark.parametrize("keys, shift", [
        (np.full(9, 5, dtype=np.int64), 0),
        (np.array([1, 1, 2, 3, 3, 3, 4, 9, 9, 9, 9, 10]), 0),
        (sorted_keys(300, 40, 0, 3), 0),
        (sorted_keys(300, 40, 5, 4), 5),
        (sorted_keys(300, 3, 5, 5), 5),                       # long runs
    ])
    @pytest.mark.parametrize("size", [1, 2, 7, 64])
    @pytest.mark.parametrize("fill", [0, -1, 2 ** 62])
    def test_overwriting_behind_the_pass(self, keys, shift, size, fill):
        # the histogram writes over everything behind the pass it was just
        # given: the cuts and masks must equal those of an untouched copy
        keys = np.asarray(keys, dtype=np.int64)
        want = [(lo, hi, new.copy()) for lo, hi, new in _ints._sorted_runs(keys, size, shift)]
        work, got = keys.copy(), []
        for lo, hi, new in _ints._sorted_runs(work, size, shift):
            got.append((lo, hi, new.copy()))
            work[:hi] = fill
        assert [(lo, hi) for lo, hi, _new in got] == [(lo, hi) for lo, hi, _new in want]
        for (_lo, _hi, a), (_lo2, _hi2, b) in zip(got, want):
            assert np.array_equal(a, b)


class TestOmegaBatch:
    def test_strong_pseudoprimes(self):
        for v in SPSP + (SPSP_2_7_61,):
            assert_matches_scalar([v])
            assert omega_batch(np.array([v]))[0][0] == 2
        assert_matches_scalar(SPSP + (SPSP_2_7_61,))

    def test_limit_straddle(self):
        assert STRADDLE[0] < INT64_MR_LIMIT < STRADDLE[1]
        assert PRIMES_AT_LIMIT[0] < INT64_MR_LIMIT < PRIMES_AT_LIMIT[1]
        for v in STRADDLE + PRIMES_AT_LIMIT:
            assert_matches_scalar([v])
        assert omega_batch(np.array(STRADDLE))[0].tolist() == [2, 2]
        assert omega_batch(np.array(PRIMES_AT_LIMIT))[0].tolist() == [1, 1]

    def test_witness_cofactor(self):
        # 61 alone is a cofactor that one of the bases 2, 7, 61 is divisible by
        assert_matches_scalar([61])
        assert omega_batch(np.array([61]))[0][0] == 1

    def test_prime_squares_above_cbrt(self):
        squares = [101 ** 2, 46337 ** 2, 65537 ** 2, 3 * 1009 ** 2]
        for v in squares:
            assert_matches_scalar([v])
        assert_matches_scalar(squares)
        om, flags = omega_batch(np.array(squares))
        assert om.tolist() == [1, 1, 1, 2] and not flags.any()

    def test_repeats_negatives_and_shape(self):
        row = [2047, -2047, 1, -1, -12, -SPSP_2_7_61, 46337 ** 2,
               STRADDLE[0], -STRADDLE[0], -STRADDLE[1]]
        grid = np.array(row + row[::-1], dtype=np.int64).reshape(4, 5)
        assert_matches_scalar(grid)
        om, flags = omega_batch(np.zeros((0, 3), dtype=np.int64))
        assert om.shape == flags.shape == (0, 3)

    def test_high_prime_powers_and_mixed_exponents(self):
        # each p is divided out to its full exponent, and only from the
        # values it divides, with all of them in one call
        powers = [2 ** 62, 3 ** 39, 5 ** 27, 7 ** 22]
        mixed = [2 ** 31 * 3 ** 19, 2 * 3 ** 38]
        # p^2 q^k next to squarefree values
        near = [3 ** 2 * 5, 30, 5 ** 2 * 7 ** 9, 5 * 7 * 11, 2 ** 2 * 3 ** 17,
                2 * 3 * 5 * 7 * 11 * 13, 11 ** 2 * 13 ** 5, 11 * 13 * 17 * 19,
                7 ** 2 * 2 ** 40, 2 ** 40 - 87]
        vals = powers + mixed + near
        vals += [-v for v in vals]
        assert_matches_scalar(vals)
        om, flags = omega_batch(np.array(vals, dtype=np.int64))
        assert om[:6].tolist() == [1, 1, 1, 1, 2, 2]
        assert not flags[:6].any()
        assert flags[7] and flags[9] and not flags[10]

    def test_matches_scalar(self):
        rng = np.random.default_rng(3)
        vals = rng.integers(1, 10 ** 9, size=300)
        got, _ = omega_batch(vals)
        for v, o in zip(vals.tolist(), got.tolist()):
            assert o == omega(v)

    def test_sorted_input_matches_shuffled(self):
        # ascending input skips the argsort and the scatter back: results
        # must equal those of a shuffled copy, entry for entry
        rng = np.random.default_rng(5)
        vals = np.sort(rng.integers(1, 10 ** 9, size=2000))
        vals[100:140] = vals[100]  # runs of equal values
        vals = np.sort(np.concatenate((vals, [SPSP_2_7_61, *STRADDLE])))
        perm = rng.permutation(vals.size)
        om, flags = omega_batch(vals)
        om_s, flags_s = omega_batch(vals[perm])
        assert np.array_equal(om[perm], om_s)
        assert np.array_equal(flags[perm], flags_s)
        sample = vals[::7].tolist()
        assert om[::7].tolist() == [omega(v) for v in sample]
        assert flags[::7].tolist() == [mobius(v) != 0 for v in sample]

    def test_squarefree_flags(self):
        vals = np.arange(1, 500, dtype=np.int64)
        _, flags = omega_batch(vals)
        for v, f in zip(vals.tolist(), flags.tolist()):
            assert f == (mobius(v) != 0)


class TestIsSquarefree:
    def test_matches_mobius(self):
        # `mobius` trial-divides to sqrt(m), independent of the cube-root rule
        assert all(is_squarefree(m) == (mobius(m) != 0) for m in range(1, 10 ** 5 + 1))
        assert not is_squarefree(0)
        primes = [p for p in range(10 ** 4, 10 ** 4 + 200) if is_prime(p)][:3]
        assert len(primes) == 3
        p, q, s = primes
        for m in (p * p, p * p * q, p * q, p * q * s, q * q * s):
            assert is_squarefree(m) == is_squarefree(-m) == (mobius(m) != 0), m

    def test_large_prime_is_fast(self):
        # sqrt trial division of 2^61 - 1 would take about a minute
        started = time.perf_counter()
        assert is_squarefree(2 ** 61 - 1)
        assert not is_squarefree((2 ** 31 - 1) ** 2)
        assert time.perf_counter() - started < 1.0


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
