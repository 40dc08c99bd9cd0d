"""Tests for the finite-group transforms, scans, and Poisson verification.

The distinct-degree split of the test-only `ddf_oracle` module and the
Bareiss discriminant in `zpoly` are the oracles for the Stickelberger
classifier behind every weight table (`charsum._chi`, `_mobius`,
`_is_squarefree`), on both sides of its degree crossover: the generated
closed form for n <= 5 (and at p = 2), `charsum._disc_mod_p` for odd p
and n >= 6; the dense FFT of the product table and the direct-summation
evaluator `dft_point_direct`, neither of which twists by CRT, are the
oracles for the CRT product of `_twisted_dfts`; classical one-dimensional
Poisson summation for the Gaussian anchors the lattice checks, a sum over
an explicit box checks the lattice side, a per-phase loop over that CRT
product checks the dual side, and a plain residue-by-residue loop checks
the CRT-split contraction both share.
"""

import itertools
import math
import time
import warnings
from functools import lru_cache

import numpy as np
import pytest

import ddf_oracle
from ddf_oracle import enumerate_fp, is_odd_poly, is_squarefree_fp, mobius_pn
from polysieve import charsum
from polysieve.charsum import (
    GENERAL,
    MONIC,
    SmoothWeight,
    _crt_split,
    _table_dft,
    _twisted_dfts,
    _wrapped_contraction,
    contraction_cost,
    dft_point_direct,
    lattice_weight_sum,
    max_nonzero_phase,
    poisson_check,
    product_weight_values,
    space_dim,
    weight_table,
)
from polysieve._ints import is_squarefree, prime_factors
from polysieve.errors import BudgetExceededError
from polysieve.zpoly import _disc_sylvester


def parseval_gap(p, n, mode, rule):
    w = weight_table(p, n, mode, rule)
    lhs = float((np.abs(_table_dft(p, n, mode, rule)) ** 2).sum())
    rhs = float((np.abs(w) ** 2).sum()) / w.size
    return abs(lhs - rhs)


class TestWeightTables:
    def test_mobius_half_value_set(self):
        w = weight_table(3, 3, GENERAL, "mobius-half")
        assert set(np.unique(w)) <= {0.0, 0.5, 1.0}

    def test_degree_drop_gives_half(self):
        w = weight_table(5, 3, GENERAL, "mobius-half")
        assert np.all(w[..., 0] == 0.5)

    def test_general_matches_pointwise_definition(self):
        p, n = 3, 3
        w = weight_table(p, n, GENERAL, "mobius-half")
        for f in enumerate_fp(p, n):
            vec = f.coeffs + (0,) * (n + 1 - len(f.coeffs))
            expected = (1 + (-1) ** (n + 1) * mobius_pn(f, n)) / 2
            assert w[vec] == expected

    def test_value_one_iff_odd(self):
        # at odd n the weight is 1 exactly on odd degree-n polynomials
        p, n = 3, 3
        w = weight_table(p, n, MONIC, "mobius-half")
        for f in enumerate_fp(p, n, monic=True):
            vec = f.coeffs[:n]
            assert (w[vec] == 1.0) == is_odd_poly(f)

    def test_squarefree_complement_ones_count(self):
        w = weight_table(3, 3, MONIC, "squarefree-complement")
        assert int(w.sum()) == 9  # p^(n-1)

    def test_squarefree_complement_pointwise(self):
        w = weight_table(3, 3, MONIC, "squarefree-complement")
        for f in enumerate_fp(3, 3, monic=True):
            assert w[f.coeffs[:3]] == (0.0 if is_squarefree_fp(f) else 1.0)

    def test_squarefree_general_rejected(self):
        with pytest.raises(ValueError):
            weight_table(3, 3, GENERAL, "squarefree-complement")

    def test_small_n_warns(self):
        weight_table.cache_clear()
        with pytest.warns(UserWarning):
            weight_table(3, 2, MONIC, "mobius-half")
        weight_table.cache_clear()

    def test_cached_tables_are_read_only(self):
        # weight_table and _table_dft are cached and shared: a write into a
        # table or its transform raises instead of changing every later
        # table and sum
        oracles = {MONIC: ddf_monic_table(3, 3, "mobius-half"),
                   GENERAL: ddf_general_table(3, 3)}
        for mode, oracle in oracles.items():
            key = (3, 3, mode, "mobius-half")
            for arr in (weight_table(*key), _table_dft(*key)):
                with pytest.raises(ValueError):
                    arr[(0,) * arr.ndim] = 7
            assert np.array_equal(weight_table(*key), oracle)
            assert np.array_equal(_table_dft(*key), np.fft.ifftn(weight_table(*key)))
        # a caller's array stays the caller's: scanning it leaves it
        # writable and unchanged
        own = np.zeros((3,) * 3)
        own[1, 2, 0] = 1.0
        before = own.copy()
        max_nonzero_phase(own)
        assert own.flags.writeable and np.array_equal(own, before)

    @pytest.mark.parametrize("n", [0, -1])
    def test_degree_below_one_refused_before_build(self, monkeypatch, n):
        # refused on n alone: before the prime, size and rule checks and
        # before any polynomial is classified
        def no_build(*_a, **_k):
            raise AssertionError("a table build started")

        monkeypatch.setattr(charsum, "_monic_table", no_build)
        monkeypatch.setattr(charsum, "is_prime", no_build)
        for mode, rule in ((MONIC, "mobius-half"), (GENERAL, "mobius-half"),
                           (MONIC, "squarefree-complement")):
            with pytest.raises(ValueError, match=f"n={n}"):
                weight_table(3, n, mode, rule)

    def test_table_size_cap(self):
        # 61^5 = 8.4e8 entries: refused before the monic table is built
        with pytest.raises(BudgetExceededError):
            weight_table(61, 4, GENERAL, "mobius-half")

    def test_rule_checked_before_size(self):
        # 373^4 entries would be over the cap, but the rule is monic-only
        with pytest.raises(ValueError, match="monic-only"):
            weight_table(373, 3, GENERAL, "squarefree")

    def test_product_rule_reproduces_pointwise(self):
        vals = product_weight_values(6, 3, MONIC, "mobius-half")
        t2 = weight_table(2, 3, MONIC, "mobius-half")
        t3 = weight_table(3, 3, MONIC, "mobius-half")
        for idx in np.ndindex(*vals.shape):
            i2 = tuple(c % 2 for c in idx)
            i3 = tuple(c % 3 for c in idx)
            assert vals[idx] == t2[i2] * t3[i3]


# every monic polynomial of these (p, n) is classified both ways; the grid
# holds the derivative-drop cases p | n: (2, even n), (3, 3), (3, 6) and
# (5, 5), and odd p on both sides of the n = 5 / 6 crossover between the
# closed-form and the Euclidean discriminant
CLASSIFIER_GRID = ([(2, n) for n in range(1, 9)]
                   + [(p, n) for p in (3, 5) for n in range(1, 6)]
                   + [(3, 6), (3, 7)]
                   + [(7, n) for n in range(1, 5)]
                   + [(p, n) for p in (11, 13) for n in range(1, 4)])
TABLE_GRID = [(p, n) for p in (2, 3, 5, 7, 11, 13) for n in range(1, 5)]
# (p, n) whose tables the closed form builds alone, with no resultant
CLOSED_FORM_GRID = ([(2, n) for n in range(1, 9)]
                    + [(p, n) for p in (3, 5, 7) for n in range(1, 5)]
                    + [(3, 5), (5, 5)])


def monic_polys(p, n):
    return [v + (1,) for v in itertools.product(range(p), repeat=n)]


@lru_cache(maxsize=None)
def ddf_mobius_table(p, n):
    """mu(f) from the distinct-degree split for every monic f of degree
    n; the oracle's mu is 0 exactly when its own squarefree test fails,
    so one split per polynomial serves both rules."""
    mu = np.empty((p,) * n, dtype=np.int8)
    for idx in np.ndindex(*mu.shape):
        mu[idx] = ddf_oracle._mobius(idx + (1,), p)
    return mu


def ddf_monic_table(p, n, rule):
    """The monic weight table built from the distinct-degree split."""
    mu = ddf_mobius_table(p, n)
    if rule == "mobius-half":
        return (1 + (-1) ** (n + 1) * mu) / 2
    return (mu == 0).astype(np.float64)


def ddf_general_table(p, n):
    """General mode from the DDF monic table: a degree drop gives 1/2 and
    any other f takes the value of its monic multiple."""
    mon = ddf_monic_table(p, n, "mobius-half")
    vals = np.empty((p,) * (n + 1))
    for idx in np.ndindex(*vals.shape):
        vals[idx] = 0.5 if idx[-1] == 0 else mon[ddf_oracle._monic(idx, p)[:n]]
    return vals


def built_table(p, n, mode, rule):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # mobius-half warns below n = 3
        return weight_table(p, n, mode, rule)


class TestStickelbergerClassifier:
    @pytest.mark.parametrize("p,n", CLASSIFIER_GRID)
    def test_matches_distinct_degree_split(self, p, n):
        for a in monic_polys(p, n):
            assert charsum._mobius(a, p) == ddf_oracle._mobius(a, p), a
            assert charsum._is_squarefree(a, p) == ddf_oracle._is_squarefree(a, p), a

    @pytest.mark.parametrize("p,n", CLASSIFIER_GRID)
    def test_disc_mod_p_matches_bareiss(self, p, n):
        for a in monic_polys(p, n):
            assert charsum._disc_mod_p(a, p) == _disc_sylvester(a) % p, a

    @pytest.mark.parametrize("p,n", TABLE_GRID)
    def test_tables_match_ddf(self, p, n):
        assert np.array_equal(built_table(p, n, MONIC, "mobius-half"),
                              ddf_monic_table(p, n, "mobius-half"))
        assert np.array_equal(built_table(p, n, GENERAL, "mobius-half"),
                              ddf_general_table(p, n))
        if n >= 2:
            assert np.array_equal(built_table(p, n, MONIC, "squarefree-complement"),
                                  ddf_monic_table(p, n, "squarefree-complement"))

    @pytest.mark.parametrize("rule", ["mobius-half", "squarefree-complement"])
    def test_table_discriminant_by_degree(self, monkeypatch, rule):
        # `_monic_table` directly, since `weight_table` is cached: below the
        # crossover (and at p = 2) no resultant runs, above it no closed form
        def refuse(*args):
            raise AssertionError("wrong discriminant route")

        with monkeypatch.context() as m:
            m.setattr(charsum, "_disc_mod_p", refuse)
            for p, n in CLOSED_FORM_GRID:
                assert np.array_equal(charsum._monic_table(p, n, rule),
                                      ddf_monic_table(p, n, rule)), (p, n)
        monkeypatch.setattr(charsum, "_disc", refuse)
        assert np.array_equal(charsum._monic_table(3, 6, rule), ddf_monic_table(3, 6, rule))

    @pytest.mark.parametrize("p,n", [(p, n) for p, n in TABLE_GRID if n >= 2])
    def test_build_invariants(self, p, n):
        # Carlitz: p^n - p^(n-1) squarefree monic polynomials of degree n
        sqf = built_table(p, n, MONIC, "squarefree-complement")
        assert int((sqf == 0.0).sum()) == p ** n - p ** (n - 1)
        # sum of mu over monic degree n vanishes: mu = (-1)^(n+1) (2 psi - 1)
        psi = built_table(p, n, MONIC, "mobius-half")
        assert int((2 * psi - 1).sum()) == 0
        assert int((psi == 0.5).sum()) == p ** (n - 1)

    @pytest.mark.parametrize("p", [0, 1, 4, 9])
    def test_non_prime_modulus_refused(self, p):
        with pytest.raises(ValueError, match=f"p={p}"):
            weight_table(p, 3, MONIC, "mobius-half")


class TestDft:
    def test_constant_weight_orthogonality(self):
        ft = np.fft.ifftn(np.ones((5, 5, 5)))
        assert abs(ft[0, 0, 0] - 1.0) < 1e-12
        rest = np.abs(ft).copy()
        rest[0, 0, 0] = 0.0
        assert rest.max() < 1e-12

    @pytest.mark.parametrize("p,n", [(3, 3), (5, 3), (3, 4)])
    def test_mobius_half_zero_phase(self, p, n):
        for mode in (GENERAL, MONIC):
            ft = _table_dft(p, n, mode, "mobius-half")
            assert abs(ft[(0,) * ft.ndim] - 0.5) < 1e-12

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_squarefree_zero_phase(self, p):
        ft = _table_dft(p, 3, MONIC, "squarefree-complement")
        assert abs(ft[(0,) * 3] - 1 / p) < 1e-12

    def test_parseval(self):
        for key in ((5, 3, GENERAL, "mobius-half"),
                    (3, 4, MONIC, "mobius-half"),
                    (7, 3, MONIC, "squarefree-complement")):
            assert parseval_gap(*key) < 1e-10

    def test_fft_matches_direct_at_prime(self):
        p, n = 5, 3
        ft = _table_dft(p, n, MONIC, "mobius-half")
        rng = np.random.default_rng(1)
        for _ in range(10):
            u = tuple(rng.integers(0, p, size=3).tolist())
            direct = dft_point_direct(p, n, MONIC, "mobius-half", u)
            assert abs(ft[u] - direct) < 1e-12


def crt_product(d, n, mode, rule):
    """psi_hat_d(u) = prod_p T_p[u mod p] at every phase u in (Z/d)^dim,
    from the twisted p-table transforms of `_twisted_dfts`."""
    dim = space_dim(n, mode)
    residues = np.arange(d)
    out = np.ones((d,) * dim, dtype=complex)
    for p, t in _twisted_dfts(d, n, mode, rule):
        out = out * t[np.ix_(*([residues % p] * dim))]
    return out


def assert_crt_matches(d, n, mode, phases, tol):
    """The CRT product against the dense FFT of the product table at every
    phase, and against direct summation at the given phases."""
    got = crt_product(d, n, mode, "mobius-half")
    dense = np.fft.ifftn(product_weight_values(d, n, mode, "mobius-half"))
    assert np.abs(got - dense).max() < tol
    for u in phases:
        assert abs(got[u] - dft_point_direct(d, n, mode, "mobius-half", u)) < tol, u


class TestCrtProduct:
    def test_prime_reduces_to_table(self):
        ft = _table_dft(5, 3, MONIC, "mobius-half")
        assert np.abs(crt_product(5, 3, MONIC, "mobius-half") - ft).max() < 1e-14

    @pytest.mark.parametrize("d", [6, 10, 15])
    def test_matches_direct_summation(self, d):
        rng = np.random.default_rng(42)
        phases = [tuple(rng.integers(0, d, size=3).tolist()) for _ in range(10)]
        assert_crt_matches(d, 3, MONIC, phases, 1e-10)

    def test_general_mode_direct(self):
        rng = np.random.default_rng(7)
        phases = [tuple(rng.integers(0, 6, size=4).tolist()) for _ in range(5)]
        assert_crt_matches(6, 3, GENERAL, phases, 1e-10)

    def test_zero_phase_product(self):
        got = crt_product(15, 3, MONIC, "mobius-half")[0, 0, 0]
        assert abs(got - 0.25) < 1e-12  # (1/2)^omega(15)

    def test_phase_vanishing_mod_one_prime(self):
        # phases that are 0 mod exactly one prime factor pick up that
        # prime's zero-phase value in the product
        assert_crt_matches(15, 3, MONIC, [(3, 0, 6), (5, 10, 0)], 1e-12)


class TestAffineRelation:
    @pytest.mark.parametrize("p", [3, 5])
    def test_general_from_monic_at_zero_leading_dual(self, p):
        n = 3
        wg = _table_dft(p, n, GENERAL, "mobius-half")
        wm = _table_dft(p, n, MONIC, "mobius-half")
        for u in np.ndindex(*(p,) * n):
            if all(c == 0 for c in u):
                continue
            full = u + (0,)
            expected = sum(wm[tuple((c * ui) % p for ui in u)] for c in range(1, p)) / p
            assert abs(wg[full] - expected) < 1e-12


class TestMaxNonzeroPhase:
    def test_constant_weight(self):
        scan = max_nonzero_phase(np.ones((3, 3, 3)))
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
                    for u in np.ndindex(*w.shape) if any(u)}
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
        ft = _table_dft(7, 3, MONIC, "squarefree-complement")
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
        ft = _table_dft(5, 3, MONIC, "mobius-half")
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

    @pytest.mark.parametrize("sigma", [0.3, 1.0, 7.5, 1e10, 1e154, 1.3407807929942596e154])
    def test_box_calibration_bit_for_bit(self, sigma):
        # every sigma whose square is finite keeps its amplitude exactly
        assert SmoothWeight.box_calibrated(3, sigma).amplitude == \
            math.exp(math.pi * 3 / sigma ** 2)

    @pytest.mark.parametrize("sigma", [1.35e154, 1e160, 1e300, 1e308, 1.7976931348623157e308])
    def test_box_calibration_of_a_large_sigma(self, sigma):
        # sigma^2 overflows, so exp(pi*dim/sigma^2) is exp(0) = 1.0; the
        # overflow was once read as sigma^2 underflowing, "sigma too small"
        assert SmoothWeight.box_calibrated(3, sigma).amplitude == 1.0

    @pytest.mark.parametrize("dim", [1, 3, 5])
    @pytest.mark.parametrize("sigma, amplitude, refusal", [
        (1e-200, None, "overflows"),   # sigma^2 underflows to 0
        (1e-155, None, "overflows"),   # pi*dim/sigma^2 is inf, without raising
        (0.01, None, "overflows"),     # exp raises
        (1.0, "exp", None), (1e154, 1.0, None),
        (1e200, 1.0, None), (math.inf, 1.0, None),  # sigma^2 overflows: exp(0)
        (math.nan, None, "positive"), (0.0, None, "positive"), (-1.0, None, "positive")])
    def test_box_calibration_grid(self, dim, sigma, amplitude, refusal):
        if refusal:
            with pytest.raises(ValueError, match=refusal):
                SmoothWeight.box_calibrated(dim, sigma)
            return
        want = math.exp(math.pi * dim) if amplitude == "exp" else amplitude
        assert SmoothWeight.box_calibrated(dim, sigma).amplitude == want

    @pytest.mark.parametrize("sigma, scale", [(1e308, 4.0), (1.0, math.inf), (1e200, 1e200)])
    def test_infinite_lattice_radius_refused(self, sigma, scale):
        # math.ceil of an infinite radius was an OverflowError
        with pytest.raises(BudgetExceededError, match="not finite"):
            SmoothWeight(sigma).lattice_radius(scale)

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

    @pytest.mark.parametrize("d, H", [(4, 2.0), (12, 2.0), (2, 0), (2, -2), (0, 2.0)])
    def test_lattice_sum_outside_domain_refused(self, monkeypatch, d, H):
        # these once returned 0.0728, 0.0047, nan, 0.0 and an IndexError: at
        # d = 4 the CRT split covers only 2, and Theta lost half of theta
        def no_table(*_a, **_k):
            raise AssertionError("a weight table was built")

        monkeypatch.setattr(charsum, "weight_table", no_table)
        match = "H must be" if H <= 0 else "squarefree positive integer"
        with pytest.raises(ValueError, match=match):
            lattice_weight_sum(d, 3, MONIC, "mobius-half", SmoothWeight(), H)

    @pytest.mark.parametrize("d, match", [
        (3 * 373, "prime factor above 368"),    # once built the p = 3 table first
        (43 * 47 * 53, "contraction at d="),    # once built all three tables
    ])
    def test_lattice_sum_modulus_refused_before_tables(self, d, match):
        weight_table.cache_clear()
        with pytest.raises(BudgetExceededError, match=match):
            lattice_weight_sum(d, 3, MONIC, "mobius-half", SmoothWeight(), 4.0)
        assert weight_table.cache_info().currsize == 0


def dual_sum_oracle(n, mode, d, H, rule, phi):
    """H^dim * sum_u phi_hat(u H / d) psi_hat_d(u), one phase at a time over
    the same window |u_i| <= U that `poisson_check` truncates to, with
    psi_hat_d read from the CRT product at u mod d."""
    dim = space_dim(n, mode)
    U = max(1, math.ceil((d / (phi.sigma * H)) * math.sqrt(math.log(1e18) / math.pi)) + 1)
    psi_hat = crt_product(d, n, mode, rule)
    total = 0j
    for u in itertools.product(range(-U, U + 1), repeat=dim):
        r = tuple(c % d for c in u)
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
        real = [(p, weight_table(p, n, mode, rule)) for p in prime_factors(d)]
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

    def test_many_primes_refused_before_splits(self, monkeypatch):
        # the first 18 primes: _crt_split once listed all 2^18 splits (1.6 s)
        # only to be refused, though every split has a side >= sqrt(d)
        def fail(*_a, **_k):
            raise AssertionError("a split or table was built")

        monkeypatch.setattr(charsum, "weight_table", fail)
        monkeypatch.setattr(charsum, "_crt_split", fail)
        d = math.prod(p for p in range(2, 62) if prime_factors(p) == (p,))
        assert len(prime_factors(d)) == 18
        started = time.perf_counter()
        with pytest.raises(BudgetExceededError, match="every CRT split"):
            poisson_check(3, MONIC, d, 4.0, "mobius-half", budget=10 ** 9)
        assert time.perf_counter() - started < 0.1

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

    def test_non_squarefree_refused_before_tables(self, monkeypatch):
        def no_table(*_a, **_k):
            raise AssertionError("a weight table was built")

        monkeypatch.setattr(charsum, "weight_table", no_table)
        with pytest.raises(ValueError, match="squarefree"):
            poisson_check(3, MONIC, 12, 4, "mobius-half")

    @pytest.mark.parametrize("n, mode, d", [
        (3, MONIC, 2 ** 63 + 29),          # a prime: full trial division hung
        (3, MONIC, 373),                   # the first prime above 368 = cap^(1/3)
        (3, MONIC, 373 ** 2),              # non-squarefree, repeated prime above 368
        (4, MONIC, 89 * 6),                # 84 = cap^(1/4)
        (3, GENERAL, 89),
    ])
    def test_prime_above_table_cap_refused_before_tables(self, monkeypatch, n, mode, d):
        # every p | d needs a p^dim table of at most _TABLE_SIZE_CAP entries
        def no_table(*_a, **_k):
            raise AssertionError("a weight table was built")

        monkeypatch.setattr(charsum, "weight_table", no_table)
        started = time.perf_counter()
        with pytest.raises(BudgetExceededError, match="prime factor above"):
            poisson_check(n, mode, d, 4.0, "mobius-half", budget=None)
        assert time.perf_counter() - started < 1.0

    @pytest.mark.parametrize("d, budget", [(210, None), (210, 10), (30030, None)])
    def test_rule_outside_mode_refused_first(self, monkeypatch, d, budget):
        # once a ValueError at d = 210 only after its tables were built, and a
        # budget refusal under budget 10 or at d = 30030
        def no_table(*_a, **_k):
            raise AssertionError("a weight table was built")

        monkeypatch.setattr(charsum, "weight_table", no_table)
        with pytest.raises(ValueError, match="monic-only"):
            poisson_check(3, GENERAL, d, 4.0, "squarefree", budget=budget)

    @pytest.mark.parametrize("d", [2 ** 63 + 29, 2251799813685119])
    def test_degree_one_prime_refused_fast(self, d):
        # two primes: trial division once ran to the dim-1 table bound of
        # 5e7 (2.25 s and 2.03 s), though d > 2.5e7 has a profile over the cap
        started = time.perf_counter()
        with pytest.raises(BudgetExceededError, match="lattice profile"):
            poisson_check(1, MONIC, d, 4.0, "mobius-half", budget=None)
        assert time.perf_counter() - started < 0.3

    def test_table_cap_primes_pass_the_modulus_check(self):
        # 367 and 83 are the largest primes of a table under the cap at
        # dim 3 and 4: the modulus check lets them through to the budget
        assert 367 ** 3 <= charsum._TABLE_SIZE_CAP < 373 ** 3
        assert 83 ** 4 <= charsum._TABLE_SIZE_CAP < 89 ** 4
        for n, d in ((3, 367), (4, 83)):
            with pytest.raises(BudgetExceededError, match="over budget"):
                poisson_check(n, MONIC, d, 4.0, "mobius-half", budget=1)

    def test_repeated_small_prime_is_value_error(self):
        # a repeated prime below the bound is found before the large cofactor
        with pytest.raises(ValueError, match="squarefree"):
            poisson_check(3, MONIC, 4 * (2 ** 61 - 1), 4.0, "mobius-half")

    @pytest.mark.parametrize("sigma", [1e12, 1e300, 1e308, 5e-324])
    def test_long_profile_refused_before_tables(self, monkeypatch, sigma):
        # 2R + 2d + 1 lattice entries (1e12: 211 TiB, once a MemoryError;
        # 1e300: numpy's size error), an infinite radius (1e308) or an
        # infinite dual window (5e-324), once OverflowErrors
        def fail(*_a, **_k):
            raise AssertionError("a table or profile was built")

        monkeypatch.setattr(charsum, "weight_table", fail)
        monkeypatch.setattr(SmoothWeight, "coord_profile", fail)
        with pytest.raises(BudgetExceededError):
            poisson_check(3, MONIC, 5, 4.0, "mobius-half", SmoothWeight(sigma))

    @pytest.mark.parametrize("H", [0, -2, 0.0, math.inf, -math.inf, math.nan])
    def test_bad_height_refused_before_tables(self, monkeypatch, H):
        # H = 0 once reached the dual side's u H / d and divided by zero
        def no_table(*_a, **_k):
            raise AssertionError("a weight table was built")

        monkeypatch.setattr(charsum, "weight_table", no_table)
        with pytest.raises(ValueError, match="H must be a finite positive number"):
            poisson_check(3, MONIC, 6, H, "mobius-half")


class TestModulusPrimes:
    @pytest.mark.parametrize("dim, bound", [(1, 50_000_000), (2, 7071), (3, 368), (4, 84)])
    def test_small_moduli(self, dim, bound):
        # every d <= 3000: a ValueError exactly when d is not squarefree, a
        # refusal exactly when a prime of d is over the table bound or the
        # split that `_wrapped_contraction` takes has a side table over the
        # cap (only at dim 4 here), else the primes of d
        assert bound ** dim <= charsum._TABLE_SIZE_CAP < (bound + 1) ** dim
        for d in range(1, 3001):
            if not is_squarefree(d):
                with pytest.raises(ValueError, match="squarefree"):
                    charsum._modulus_primes(d, dim)
            elif max(prime_factors(d), default=1) > bound:
                with pytest.raises(BudgetExceededError, match="prime factor above"):
                    charsum._modulus_primes(d, dim)
            elif max(map(math.prod, _crt_split(d, dim))) ** dim > charsum._TABLE_SIZE_CAP:
                assert dim == 4, d
                with pytest.raises(BudgetExceededError, match="contraction at"):
                    charsum._modulus_primes(d, dim)
            else:
                assert charsum._modulus_primes(d, dim) == prime_factors(d), (d, dim)

    def test_profile_bound_at_low_dimension(self):
        # trial division stops at 5,000 = sqrt(cap / 2) at dim 1 and 2: the
        # largest prime below 2.5e7 and the primes around the dim-2 bound
        # are decided exactly, a larger cofactor by the lattice profile
        assert charsum._modulus_primes(24_999_983, 1) == (24_999_983,)
        assert charsum._modulus_primes(2 * 24_999_983, 1) == (2, 24_999_983)
        assert charsum._modulus_primes(3 * 7069, 2) == (3, 7069)
        with pytest.raises(BudgetExceededError, match="prime factor above 7071"):
            charsum._modulus_primes(7079, 2)
        for d, dim in ((5003 * 5009, 1), (5003 * 5009, 2), (7001 ** 2, 2)):
            with pytest.raises(BudgetExceededError, match="lattice profile"):
                charsum._modulus_primes(d, dim)

