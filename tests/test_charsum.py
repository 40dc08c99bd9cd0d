"""Tests for the finite-group transforms, scans, and Poisson verification.

The direct-summation evaluator `dft_point_direct` is the oracle for the
CRT product formula; classical one-dimensional Poisson summation for the
Gaussian anchors the lattice checks, a sum over an explicit box checks the
lattice side, a per-phase loop over `dft_point` checks the dual side, and a
plain residue-by-residue loop checks the CRT-split contraction both share.
"""

import itertools
import math
import time

import numpy as np
import pytest

from polysieve.charsum import (
    GENERAL,
    MONIC,
    Phase,
    SmoothWeight,
    WeightTable,
    _crt_split,
    _twisted_dfts,
    _wrapped_contraction,
    contraction_cost,
    dft_point,
    dft_point_direct,
    lattice_weight_sum,
    max_nonzero_phase,
    pair,
    poisson_check,
    product_weight_values,
    space_dim,
    weight_table,
)
from polysieve._ints import is_squarefree, prime_factors
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
        w = weight_table(3, 3, GENERAL, "mobius-half")
        assert set(np.unique(w.values)) <= {0.0, 0.5, 1.0}

    def test_degree_drop_gives_half(self):
        w = weight_table(5, 3, GENERAL, "mobius-half")
        assert np.all(w.values[..., 0] == 0.5)

    def test_general_matches_pointwise_definition(self):
        p, n = 3, 3
        w = weight_table(p, n, GENERAL, "mobius-half")
        for f in enumerate_fp(p, n):
            vec = f.coeffs + (0,) * (n + 1 - len(f.coeffs))
            expected = (1 + (-1) ** (n + 1) * mobius_pn(f, n)) / 2
            assert w.values[vec] == expected

    def test_value_one_iff_odd(self):
        # at odd n the weight is 1 exactly on odd degree-n polynomials
        p, n = 3, 3
        w = weight_table(p, n, MONIC, "mobius-half")
        for f in enumerate_fp(p, n, monic=True):
            vec = f.coeffs[:n]
            assert (w.values[vec] == 1.0) == is_odd_poly(f)

    def test_squarefree_complement_ones_count(self):
        w = weight_table(3, 3, MONIC, "squarefree-complement")
        assert int(w.values.sum()) == 9  # p^(n-1)

    def test_squarefree_complement_pointwise(self):
        w = weight_table(3, 3, MONIC, "squarefree-complement")
        for f in enumerate_fp(3, 3, monic=True):
            assert w.values[f.coeffs[:3]] == (0.0 if is_squarefree_fp(f) else 1.0)

    def test_squarefree_general_rejected(self):
        with pytest.raises(ValueError):
            weight_table(3, 3, GENERAL, "squarefree-complement")

    def test_small_n_warns(self):
        weight_table.cache_clear()
        with pytest.warns(UserWarning):
            weight_table(3, 2, MONIC, "mobius-half")
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
        ft = w.dft()
        assert abs(ft[0, 0, 0] - 1.0) < 1e-12
        rest = np.abs(ft).copy()
        rest[0, 0, 0] = 0.0
        assert rest.max() < 1e-12

    @pytest.mark.parametrize("p,n", [(3, 3), (5, 3), (3, 4)])
    def test_mobius_half_zero_phase(self, p, n):
        for mode in (GENERAL, MONIC):
            w = weight_table(p, n, mode, "mobius-half")
            assert abs(w.dft()[(0,) * w.dim] - 0.5) < 1e-12

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_squarefree_zero_phase(self, p):
        w = weight_table(p, 3, MONIC, "squarefree-complement")
        assert abs(w.dft()[(0,) * 3] - 1 / p) < 1e-12

    def test_parseval(self):
        for w in (weight_table(5, 3, GENERAL, "mobius-half"),
                  weight_table(3, 4, MONIC, "mobius-half"),
                  weight_table(7, 3, MONIC, "squarefree-complement")):
            assert parseval_gap(w) < 1e-10

    def test_fft_matches_direct_at_prime(self):
        p, n = 5, 3
        w = weight_table(p, n, MONIC, "mobius-half")
        rng = np.random.default_rng(1)
        for _ in range(10):
            u = tuple(rng.integers(0, p, size=3).tolist())
            direct = dft_point_direct(p, n, MONIC, "mobius-half", u)
            assert abs(w.dft()[u] - direct) < 1e-12


class TestCrtProduct:
    def test_prime_reduces_to_table(self):
        w = weight_table(5, 3, MONIC, "mobius-half")
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
        wg = weight_table(p, n, GENERAL, "mobius-half").dft()
        wm = weight_table(p, n, MONIC, "mobius-half").dft()
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
        scan = max_nonzero_phase(weight_table(p, 3, MONIC, "squarefree-complement"))
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

    def test_repeated_scan_deterministic(self):
        # repeated scans agree, and no randomly sampled phase beats the scan
        w = weight_table(7, 3, MONIC, "squarefree-complement")
        a = max_nonzero_phase(w)
        assert a == max_nonzero_phase(w)
        ft = w.dft()
        rng = np.random.default_rng(5)
        for _ in range(50):
            u = tuple(int(x) for x in rng.integers(0, 7, size=3))
            if any(u):
                assert abs(ft[u]) <= a.max_abs + 1e-15

    def test_scan_values_match_table(self):
        # the reported max is the cached transform at the reported argmax,
        # and sampled table entries agree with direct summation
        w = weight_table(5, 3, MONIC, "mobius-half")
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

    def test_box_calibration_overflow_refused(self):
        # exp(x) is finite up to x = log(float max) = 709.7827...: a sigma
        # whose pi*dim/sigma^2 sits just below it is taken, one just above
        # it (or one whose square underflows) is a ValueError, not an
        # OverflowError or an infinite amplitude
        dim = 3
        phi = SmoothWeight.box_calibrated(dim, math.sqrt(math.pi * dim / 709.78))
        assert 1e308 < phi.amplitude < math.inf
        for sigma in (math.sqrt(math.pi * dim / 709.79), 0.01, 1e-160, 1e-200):
            with pytest.raises(ValueError, match="overflows"):
                SmoothWeight.box_calibrated(dim, sigma)

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


def dual_sum_oracle(n, mode, d, H, rule, phi):
    """H^dim * sum_u phi_hat(u H / d) psi_hat_d(u), one phase at a time over
    the same window |u_i| <= U that `poisson_check` truncates to, with
    psi_hat_d from the CRT point evaluator (memoized by u mod d)."""
    dim = space_dim(n, mode)
    U = max(1, math.ceil((d / (phi.sigma * H)) * math.sqrt(math.log(1e18) / math.pi)) + 1)
    psi_hat = {}
    total = 0j
    for u in itertools.product(range(-U, U + 1), repeat=dim):
        r = tuple(c % d for c in u)
        if r not in psi_hat:
            psi_hat[r] = dft_point(d, n, mode, rule, r)
        total += phi.fourier(tuple(c * H / d for c in u)) * psi_hat[r]
    return (H ** dim * total).real


def contraction_oracle(d, dim, theta, tables):
    """sum_{r in (Z/d)^dim} prod_i theta[r_i] * prod_p T_p[r mod p], one
    residue vector at a time, each table entry read by index."""
    theta = theta.tolist()
    tables = [(p, vals.tolist()) for p, vals in tables]
    total = 0
    for r in itertools.product(range(d), repeat=dim):
        term = 1
        for ri in r:
            term *= theta[ri]
        for p, vals in tables:
            entry = vals
            for ri in r:
                entry = entry[ri % p]
            term *= entry
        total += term
    return total


def assert_contraction_matches(d, dim, theta, tables):
    got = _wrapped_contraction(d, dim, theta, tables)
    want = contraction_oracle(d, dim, theta, tables)
    assert abs(got - want) <= 1e-12 * abs(want), (d, dim, got, want)


class TestWrappedContraction:
    @pytest.mark.filterwarnings("ignore:mobius-half weight is intended")
    @pytest.mark.parametrize("d", [1, 2, 5, 6, 30, 35])
    @pytest.mark.parametrize("mode,rule", [(MONIC, "mobius-half"),
                                           (MONIC, "squarefree"),
                                           (GENERAL, "mobius-half")])
    def test_weight_tables_match_oracle(self, mode, rule, d):
        # the psi_p tables of the primal side and the twisted psi_hat_p
        # tables of the dual side, against a positive wrapped profile
        # general n = 3 at d = 30, 35 would loop over ~10^6 residues; n = 2
        # keeps the oracle at d^3
        n = 2 if mode == GENERAL and d ** 4 > 10 ** 5 else 3
        dim = space_dim(n, mode)
        theta = np.random.default_rng(d).uniform(0.1, 1.0, size=d)
        real = [(p, weight_table(p, n, mode, rule).values) for p in prime_factors(d)]
        assert_contraction_matches(d, dim, theta, real)
        assert_contraction_matches(d, dim, theta, _twisted_dfts(d, n, mode, rule))

    @pytest.mark.parametrize("dim", [3, 4])
    def test_every_small_modulus_matches_oracle(self, dim):
        # every squarefree d with d^dim <= 10^5 (monic and general n = 3),
        # with random real and complex tables so that every split is hit
        rng = np.random.default_rng(dim)
        d = 1
        while d ** dim <= 10 ** 5:
            if is_squarefree(d):
                theta = rng.uniform(-1.0, 1.0, size=d)
                real = [(p, rng.uniform(-1.0, 1.0, size=(p,) * dim))
                        for p in prime_factors(d)]
                cplx = [(p, vals + 1j * rng.uniform(-1.0, 1.0, size=vals.shape))
                        for p, vals in real]
                assert_contraction_matches(d, dim, theta, real)
                assert_contraction_matches(d, dim, theta, cplx)
            d += 1

    def test_split_is_a_coprime_factorization(self):
        for d in range(1, 211):
            if not is_squarefree(d):
                continue
            for dim in range(1, 7):
                a_side, b_side = _crt_split(d, dim)
                A, B = math.prod(a_side), math.prod(b_side)
                assert A * B == d and math.gcd(A, B) == 1, (d, dim)
                assert sorted(a_side + b_side) == list(prime_factors(d))

    def test_oversized_split_refused(self):
        # d = 2*3*...*23 splits as 15,015 * 14,858: a 15,015^4 table is
        # refused before theta or any table is read
        d = math.prod([2, 3, 5, 7, 11, 13, 17, 19, 23])
        with pytest.raises(BudgetExceededError):
            _wrapped_contraction(d, 4, np.ones(1), [])

    def test_cost_beats_the_full_slab(self):
        for d in range(2, 211):
            if is_squarefree(d) and len(prime_factors(d)) >= 2:
                for dim in range(3, 7):
                    assert contraction_cost(d, dim) < d ** dim, (d, dim)


class TestPoisson:
    @pytest.mark.parametrize("H", [3.0, 4.0])
    @pytest.mark.parametrize("d", [1, 5, 6, 10])
    @pytest.mark.parametrize("mode,rule", [(MONIC, "mobius-half"),
                                           (MONIC, "squarefree"),
                                           (GENERAL, "mobius-half")])
    def test_dual_matches_per_phase_oracle(self, mode, rule, d, H):
        phi = SmoothWeight(sigma=1.2, amplitude=2.0)
        rep = poisson_check(3, mode, d, H, rule, phi)
        want = dual_sum_oracle(3, mode, d, H, rule, phi)
        assert abs(rep.rhs - want) <= 1e-12 * abs(want), (rep.rhs, want)

    @pytest.mark.parametrize("n,mode", [(3, GENERAL), (4, MONIC)])
    def test_modulus_30_sides_agree(self, n, mode):
        rep = poisson_check(n, mode, 30, 4.0, "mobius-half")
        assert rep.rel_diff <= 1e-12, rep

    def test_modulus_210_general(self):
        # four primes, 210^4 residues: split as 15 * 14
        rep = poisson_check(3, GENERAL, 210, 8.0, "mobius-half")
        assert rep.rel_diff <= 1e-12, rep

    def test_budget_refused_before_tables(self):
        # d = 2*3*5*...*23: two contractions of ~3.0e21 over a 1e9 budget,
        # refused at once
        d = math.prod([2, 3, 5, 7, 11, 13, 17, 19, 23])
        assert contraction_cost(d, 4) > 10 ** 9
        weight_table.cache_clear()
        started = time.perf_counter()
        with pytest.raises(BudgetExceededError):
            poisson_check(3, GENERAL, d, 8.0, "mobius-half", budget=10 ** 9)
        assert time.perf_counter() - started < 1.0
        assert weight_table.cache_info().misses == 0

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
