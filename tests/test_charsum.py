"""Tests for the finite-group transforms, scans, and Poisson verification.

The direct-summation evaluator `dft_point_direct` is the oracle for the
CRT product formula; classical one-dimensional Poisson summation for the
Gaussian anchors the lattice checks.
"""

import itertools
import math

import numpy as np
import pytest

from polysieve.charsum import (
    GENERAL,
    MONIC,
    Phase,
    SmoothWeight,
    WeightTable,
    dft_full,
    dft_point,
    dft_point_direct,
    lattice_weight_sum,
    max_nonzero_phase,
    mobius_half_weight,
    pair,
    poisson_check,
    product_weight_values,
    squarefree_complement_weight,
    weight_table,
)
from polysieve.errors import BudgetExceededError
from polysieve.fppoly import enumerate_fp, is_odd_poly, is_squarefree_fp, mobius_pn


def parseval_gap(w):
    ft = w.dft()
    lhs = float((np.abs(ft) ** 2).sum())
    rhs = float((np.abs(w.values) ** 2).sum()) / w.size
    return abs(lhs - rhs)


class TestPair:
    def test_coefficient_sum(self):
        assert pair([1, 2, 1], Phase.of(5, (1, 1, 1))) == 4

    def test_zero_phase(self):
        assert pair([3, 1, 4], Phase.of(7, (0, 0, 0))) == 0

    def test_monic_drops_leading(self):
        # x^3 paired against a length-3 phase: only lower coefficients count
        assert pair([0, 0, 0, 1], Phase.of(7, (4, 4, 4))) == 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pair([1, 2, 3, 4, 5], Phase.of(5, (1, 1, 1)))
        with pytest.raises(ValueError):
            pair([1, 2, 3, 2], Phase.of(5, (1, 1, 1)))  # degree-3, not monic


class TestWeightTables:
    def test_mobius_half_value_set(self):
        w = mobius_half_weight(3, 3, GENERAL)
        assert set(np.unique(w.values)) <= {0.0, 0.5, 1.0}

    def test_degree_drop_gives_half(self):
        w = mobius_half_weight(5, 3, GENERAL)
        assert np.all(w.values[..., 0] == 0.5)

    def test_general_matches_pointwise_definition(self):
        p, n = 3, 3
        w = mobius_half_weight(p, n, GENERAL)
        for f in enumerate_fp(p, n):
            vec = f.coeffs + (0,) * (n + 1 - len(f.coeffs))
            expected = (1 + (-1) ** (n + 1) * mobius_pn(f, n)) / 2
            assert w.values[vec] == expected

    def test_value_one_iff_odd(self):
        # at odd n the weight is 1 exactly on odd degree-n polynomials
        p, n = 3, 3
        w = mobius_half_weight(p, n, MONIC)
        for f in enumerate_fp(p, n, monic=True):
            vec = f.coeffs[:n]
            assert (w.values[vec] == 1.0) == is_odd_poly(f)

    def test_squarefree_complement_ones_count(self):
        w = squarefree_complement_weight(3, 3)
        assert int(w.values.sum()) == 9  # p^(n-1)

    def test_squarefree_complement_pointwise(self):
        w = squarefree_complement_weight(3, 3)
        for f in enumerate_fp(3, 3, monic=True):
            assert w.values[f.coeffs[:3]] == (0.0 if is_squarefree_fp(f) else 1.0)

    def test_squarefree_general_rejected(self):
        with pytest.raises(ValueError):
            weight_table(3, 3, GENERAL, "squarefree-complement")

    def test_small_n_warns(self):
        weight_table.cache_clear()
        with pytest.warns(UserWarning):
            mobius_half_weight(3, 2, MONIC)
        weight_table.cache_clear()

    def test_table_size_cap(self):
        # 61^5 = 8.4e8 entries: refused before the monic table is built
        with pytest.raises(BudgetExceededError):
            weight_table(61, 4, GENERAL, "mobius-half")

    def test_product_rule_reproduces_pointwise(self):
        vals = product_weight_values(6, 3, MONIC, "mobius-half")
        t2 = weight_table(2, 3, MONIC, "mobius-half").values
        t3 = weight_table(3, 3, MONIC, "mobius-half").values
        for idx in np.ndindex(*vals.shape):
            i2 = tuple(c % 2 for c in idx)
            i3 = tuple(c % 3 for c in idx)
            assert vals[idx] == t2[i2] * t3[i3]


class TestDft:
    def test_constant_weight_orthogonality(self):
        w = WeightTable(5, 3, MONIC, "custom", np.ones((5, 5, 5)))
        ft = dft_full(w)
        assert abs(ft[0, 0, 0] - 1.0) < 1e-12
        rest = np.abs(ft).copy()
        rest[0, 0, 0] = 0.0
        assert rest.max() < 1e-12

    @pytest.mark.parametrize("p,n", [(3, 3), (5, 3), (3, 4)])
    def test_mobius_half_zero_phase(self, p, n):
        for mode in (GENERAL, MONIC):
            w = mobius_half_weight(p, n, mode)
            assert abs(w.dft()[(0,) * w.dim] - 0.5) < 1e-12

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_squarefree_zero_phase(self, p):
        w = squarefree_complement_weight(p, 3)
        assert abs(w.dft()[(0,) * 3] - 1 / p) < 1e-12

    def test_budget(self):
        w = mobius_half_weight(5, 3, MONIC)
        with pytest.raises(BudgetExceededError):
            dft_full(w, budget=100)

    def test_parseval(self):
        for w in (mobius_half_weight(5, 3, GENERAL),
                  mobius_half_weight(3, 4, MONIC),
                  squarefree_complement_weight(7, 3)):
            assert parseval_gap(w) < 1e-10

    def test_fft_matches_direct_at_prime(self):
        p, n = 5, 3
        w = mobius_half_weight(p, n, MONIC)
        rng = np.random.default_rng(1)
        for _ in range(10):
            u = tuple(rng.integers(0, p, size=3).tolist())
            direct = dft_point_direct(p, n, MONIC, "mobius-half", u)
            assert abs(w.dft()[u] - direct) < 1e-12


class TestCrtProduct:
    def test_prime_reduces_to_table(self):
        w = mobius_half_weight(5, 3, MONIC)
        u = (1, 2, 3)
        assert abs(dft_point(5, 3, MONIC, "mobius-half", u) - w.dft()[u]) < 1e-14

    @pytest.mark.parametrize("d", [6, 10, 15])
    def test_matches_direct_summation(self, d):
        rng = np.random.default_rng(42)
        for _ in range(10):
            u = tuple(rng.integers(0, d, size=3).tolist())
            got = dft_point(d, 3, MONIC, "mobius-half", u)
            want = dft_point_direct(d, 3, MONIC, "mobius-half", u)
            assert abs(got - want) < 1e-10

    def test_general_mode_direct(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            u = tuple(rng.integers(0, 6, size=4).tolist())
            got = dft_point(6, 3, GENERAL, "mobius-half", u)
            want = dft_point_direct(6, 3, GENERAL, "mobius-half", u)
            assert abs(got - want) < 1e-10

    def test_zero_phase_product(self):
        got = dft_point(15, 3, MONIC, "mobius-half", (0, 0, 0))
        assert abs(got - 0.25) < 1e-12  # (1/2)^omega(15)

    def test_phase_vanishing_mod_one_prime(self):
        # phases that are 0 mod exactly one prime factor pick up that
        # prime's zero-phase value in the product
        for u in ((3, 0, 6), (5, 10, 0)):
            got = dft_point(15, 3, MONIC, "mobius-half", u)
            want = dft_point_direct(15, 3, MONIC, "mobius-half", u)
            assert abs(got - want) < 1e-12

    def test_non_squarefree_rejected(self):
        with pytest.raises(ValueError):
            dft_point(12, 3, MONIC, "mobius-half", (0, 0, 0))


class TestAffineRelation:
    @pytest.mark.parametrize("p", [3, 5])
    def test_general_from_monic_at_zero_leading_dual(self, p):
        n = 3
        wg = mobius_half_weight(p, n, GENERAL).dft()
        wm = mobius_half_weight(p, n, MONIC).dft()
        for u in np.ndindex(*(p,) * n):
            if all(c == 0 for c in u):
                continue
            full = u + (0,)
            expected = sum(wm[tuple((c * ui) % p for ui in u)] for c in range(1, p)) / p
            assert abs(wg[full] - expected) < 1e-12


class TestMaxNonzeroPhase:
    def test_constant_weight(self):
        w = WeightTable(3, 3, MONIC, "custom", np.ones((3, 3, 3)))
        scan = max_nonzero_phase(w)
        assert scan.max_abs < 1e-12
        assert scan.argmax == (0, 0, 1)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_squarefree_decay_bound(self, p):
        scan = max_nonzero_phase(squarefree_complement_weight(p, 3))
        assert scan.max_abs <= 3.5 / p ** 2

    def test_matches_direct_oracle(self):
        # every nonzero phase by direct summation; ties go to the first
        # maximal phase in C order
        for p, n, mode, rule in ((5, 3, MONIC, "mobius-half"),
                                 (3, 3, GENERAL, "mobius-half"),
                                 (7, 3, MONIC, "squarefree-complement")):
            w = weight_table(p, n, mode, rule)
            mags = {u: abs(dft_point_direct(p, n, mode, rule, u))
                    for u in np.ndindex(*w.values.shape) if any(u)}
            top = max(mags.values())
            first = next(u for u, m in mags.items() if m >= top - 1e-12)
            scan = max_nonzero_phase(w)
            assert abs(scan.max_abs - top) < 1e-12, (p, n, mode, rule)
            assert scan.argmax == first, (p, n, mode, rule)

    def test_sampled_mode_deterministic(self):
        # repeated scans agree, and no randomly sampled phase beats the scan
        w = squarefree_complement_weight(7, 3)
        a = max_nonzero_phase(w)
        assert a == max_nonzero_phase(w)
        ft = w.dft()
        rng = np.random.default_rng(5)
        for _ in range(50):
            u = tuple(int(x) for x in rng.integers(0, 7, size=3))
            if any(u):
                assert abs(ft[u]) <= a.max_abs + 1e-15

    def test_sampled_values_match_table(self):
        # the reported max is the cached transform at the reported argmax,
        # and sampled table entries agree with direct summation
        w = mobius_half_weight(5, 3, MONIC)
        scan = max_nonzero_phase(w)
        ft = w.dft()
        assert abs(scan.max_abs - abs(ft[scan.argmax])) < 1e-12
        rng = np.random.default_rng(3)
        for _ in range(20):
            u = tuple(int(x) for x in rng.integers(0, 5, size=3))
            direct = dft_point_direct(5, 3, MONIC, "mobius-half", u)
            assert abs(ft[u] - direct) < 1e-12


class TestSmoothWeight:
    def test_box_calibration(self):
        phi = SmoothWeight.box_calibrated(3)
        assert abs(phi.value((1.0, 1.0, 1.0)) - 1.0) < 1e-12
        assert phi.value((0.0, 0.0, 0.0)) > 1.0

    def test_fourier_zero(self):
        phi = SmoothWeight(sigma=2.0, amplitude=3.0)
        assert abs(phi.fourier((0.0, 0.0)) - 3.0 * 4.0) < 1e-12

    def test_classical_poisson_1d(self):
        # sum exp(-pi a^2) = sum exp(-pi u^2) via the package machinery at d=1
        phi = SmoothWeight()
        lhs = lattice_weight_sum(1, 1, MONIC, "mobius-half", phi, 1.0)
        theta = sum(math.exp(-math.pi * k * k) for k in range(-20, 21))
        assert abs(lhs - theta) < 1e-12

    @pytest.mark.filterwarnings("ignore:mobius-half weight is intended")
    @pytest.mark.parametrize("d", [1, 5, 6])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_lattice_sum_matches_direct_box(self, d, n):
        # sum phi(f/H) psi_d(f) over an explicit box wide enough that the
        # Gaussian tail is below 1e-18, psi_d read from the dense product table;
        # monic n = 1 has psi_d = 0 for d > 1 (every x + a has mu = -1)
        phi = SmoothWeight()
        H = 2.0
        R = phi.lattice_radius(H, 1e-18)
        rules = ["mobius-half"] + (["squarefree"] if n >= 2 else [])
        for rule in rules:
            vals = product_weight_values(d, n, MONIC, rule)
            coords = np.array(list(itertools.product(range(-R, R + 1), repeat=n)))
            weight = phi.amplitude * np.exp(-math.pi * ((coords / H) ** 2).sum(axis=1)
                                            / phi.sigma ** 2)
            direct = float((weight * vals[tuple((coords % d).T)]).sum())
            lhs = lattice_weight_sum(d, n, MONIC, rule, phi, H)
            assert abs(lhs - direct) <= 1e-12 * abs(direct), (rule, lhs, direct)


class TestPoisson:
    def test_trivial_modulus(self):
        rep = poisson_check(3, MONIC, 1, 4.0, "mobius-half")
        assert rep.abs_diff < 1e-8 * abs(rep.lhs)

    def test_mobius_half_composite(self):
        rep = poisson_check(3, MONIC, 6, 4.0, "mobius-half")
        assert rep.abs_diff < 1e-6 * abs(rep.lhs)

    def test_squarefree_main_term(self):
        rep = poisson_check(3, MONIC, 5, 6.0, "squarefree")
        phi = SmoothWeight()
        main = 6.0 ** 3 * phi.fourier_zero(3) / 5
        assert rep.abs_diff < 1e-6 * abs(rep.lhs)
        assert abs(rep.rhs - main) < 0.05 * abs(main)

    def test_general_mode(self):
        rep = poisson_check(3, GENERAL, 5, 3.0, "mobius-half")
        assert rep.abs_diff < 1e-6 * abs(rep.lhs)

    def test_non_squarefree_rejected(self):
        with pytest.raises(ValueError):
            poisson_check(3, MONIC, 4, 4.0, "mobius-half")
