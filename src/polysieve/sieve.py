"""Modified Selberg sieve over polynomial boxes.

The sieve weights lambda_d come from the diagonalized coordinates
xi_e = mu(e)/C with C the number of squarefree integers up to the level D;
Mobius inversion gives lambda_d = mu(d) tau(d) sum_{d | e <= D} mu(e) xi_e,
normalized so lambda_1 = 1.  All weight arithmetic is exact rational.

A lattice polynomial f is its coefficient sequence (a_0, ..., a_n), low
to high, widened to Python ints by `zpoly._coeffs`.  Its local factor
at p is nu_p(f) = (1 + (-1)^(n+1) mu_{p,n}(f mod p)) / 2 in {0, 1/2, 1}.  By
Stickelberger's theorem it is read off the exact discriminant: 1/2 unless
f mod p has degree exactly n, else (1 - chi_p(Disc f)) / 2 with chi_p the
quadratic character of `charsum._chi` (the one the weight tables use).  The
quadratic form Q_f contracts lambda against the products of nu_p over the
primes of lcm(d1, d2).  Q_f is positive semidefinite because its extended
Gram matrix is a tensor product of 2x2 blocks [[1, nu], [nu, nu]], each PSD;
when the discriminant of f is a nonzero square the blocks force
Q_f >= 2^(-omega(LDisc f)).

`verify_modified_selberg` checks the resulting upper bound with both sides
summed over the coefficient lattice: the left side scans the box for
square-discriminant polynomials directly, the right side contracts the
local-weight tables against wrapped Gaussians, so the two routes share no
code path.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from . import _ints
from .charsum import (MONIC, SmoothWeight, _chi, _modulus_primes, _weight_job,
                      contraction_cost, lattice_weight_sum, table_build_cost)
from .errors import DEFAULT_BUDGET, charge
from .zpoly import _coeffs, _disc, box_cost, square_disc_scan

MARGIN_TOLERANCE = 1e-9


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SieveWeights:
    D: int
    C: int
    lam: dict[int, Fraction]
    xi: dict[int, Fraction]

    def __post_init__(self):
        if self.lam.get(1) != 1:
            raise ValueError("lambda_1 must equal 1")

    @cached_property
    def pair_weights(self) -> Mapping[int, Fraction]:
        """w_m = sum_{[d1,d2] = m} lambda_{d1} lambda_{d2}, keyed by m
        ascending and read-only: every sum of lambda_{d1} lambda_{d2}
        g([d1,d2]) is sum_m w_m g(m).  Built once per weights."""
        out: dict[int, Fraction] = defaultdict(Fraction)
        for d1, l1 in self.lam.items():
            for d2, l2 in self.lam.items():
                out[math.lcm(d1, d2)] += l1 * l2
        return MappingProxyType(dict(sorted(out.items())))


def selberg_weights(D: int) -> SieveWeights:
    """Sieve weights at level D: xi_e = mu(e)/C, lambda_d by inversion."""
    if D < 1:
        raise ValueError("sieve level must be >= 1")
    sq = _ints.squarefree_up_to(D)
    C = len(sq)
    xi = {e: Fraction(_ints.mobius(e), C) for e in sq}
    lam = {}
    for d in sq:
        multiples = sum(1 for e in sq if e % d == 0)
        lam[d] = Fraction(_ints.mobius(d) * _ints.tau(d) * multiples, C)
    return SieveWeights(D, C, lam, xi)


def diagonalization_sum(weights: SieveWeights) -> Fraction:
    """sum_{d1,d2} lambda_{d1} lambda_{d2} tau((d1,d2)) / (tau(d1) tau(d2)),
    which must equal sum_e xi_e^2 = 1/C exactly."""
    total = Fraction(0)
    for d1, l1 in weights.lam.items():
        for d2, l2 in weights.lam.items():
            total += l1 * l2 * Fraction(_ints.tau(math.gcd(d1, d2)),
                                        _ints.tau(d1) * _ints.tau(d2))
    return total


def nu_weight(f: Sequence[int], p: int, n: int) -> Fraction:
    """Local factor (1 + (-1)^(n+1) mu_{p,n}(f mod p)) / 2 for a prime p and
    coefficients f = (a_0, a_1, ...): 1/2 unless f mod p has degree exactly
    n, else (1 - chi_p(Disc g)) / 2 with g = a_0 + ... + a_n x^n, the same
    polynomial mod p.  The symbol is that of Disc, not LDisc: the two
    differ when a_n is a non-residue."""
    if n < 1 or not _ints.is_prime(p):
        raise ValueError(f"need a target degree n >= 1 and a prime p, got n={n}, p={p}")
    c = _coeffs(f)
    if len(c) <= n or c[n] % p == 0 or any(a % p for a in c[n + 1:]):
        return Fraction(1, 2)
    return Fraction(1 - _chi(_disc(c[:n + 1]), p), 2)


def qf_value(f: Sequence[int], weights: SieveWeights, n: int) -> Fraction:
    """Q_f = sum_{d1,d2} lambda_{d1} lambda_{d2} prod_{p | [d1,d2]} nu_p(f)
    = sum_m w_m prod_{p | m} nu_p(f)."""
    c = _coeffs(f)
    nu = {p: nu_weight(c, p, n) for p in _ints.primes_up_to(weights.D)}
    total = Fraction(0)
    for m, w in weights.pair_weights.items():
        for p in _ints.prime_factors(m):
            w *= nu[p]
        total += w
    return total


# ---------------------------------------------------------------------------
# the inequality
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerifyReport:
    n: int
    H: int
    D: int
    mode: str
    lhs: float
    rhs: float
    margin: float
    radius: int
    wall_time: float


def _an_survivors(n: int, R: int, monic: bool,
                  budget: int | None) -> tuple[np.ndarray, np.ndarray, int]:
    """(free, om, zero_count) over the height-R box: the free coordinates
    and omega(|LDisc f|) of each square-discriminant f, in enumeration
    order, and the number of vanishing discriminants."""
    coeffs, discs, zero_count = square_disc_scan(n, R, monic, budget=budget)
    # rows end with a_n (1 when monic), so this is |LDisc| in both modes
    om, _sqfree = _ints.omega_batch(np.abs(coeffs[:, -1] * discs))
    return (coeffs[:, :n] if monic else coeffs), om, zero_count


@lru_cache(maxsize=None)
def _an_weighted_lattice_sum(n: int, mode: str, phi: SmoothWeight, H: int,
                             R: int) -> float:
    """Left side: sum over the square-discriminant polynomials of the
    height-R box, charged by the caller, of phi(f/H) / 2^omega(LDisc f);
    past R the Gaussian is below machine precision (the discarded terms are
    nonnegative).  Independent of the sieve level, so cached: the cells of
    one H and several D scan their box once (equal weights share an entry)."""
    free, om, _zero = _an_survivors(n, R, mode == MONIC, None)
    gauss = phi.amplitude * phi.coord_profile(free / H).prod(axis=1)
    return float((gauss * 0.5 ** om).sum())


def verify_modified_selberg(n: int, H: int, D: int, mode: str = MONIC,
                            phi: SmoothWeight | None = None,
                            budget: int | None = DEFAULT_BUDGET) -> VerifyReport:
    """Brute-force both sides of the sieve upper bound

        sum_{f square disc, LDisc != 0} phi(f/H) / 2^omega(LDisc f)
            <=  sum_{d1,d2 <= D} lambda_{d1} lambda_{d2}
                sum_f phi(f/H) prod_{p | [d1,d2]} nu_p(f)

    over the coefficient lattice.  The right side runs over the whole
    lattice (degree drops included); the left side carries the degree-n
    and nonzero-discriminant conditions, so truncating both to the same
    Gaussian support preserves the inequality term by term.

    The report is the verdict: the inequality holds when its margin
    rhs - lhs is at least -MARGIN_TOLERANCE.

    Each contraction, table build and the left side's box is charged as if
    nothing were cached, so a refusal never depends on which cells ran before.
    """
    dim = _weight_job(n, mode, "mobius-half")[0]
    if D < 1 or H < 1:
        raise ValueError("need H >= 1, D >= 1")
    phi = phi if phi is not None else SmoothWeight.box_calibrated(dim)
    start = time.perf_counter()
    pair_weight = selberg_weights(D).pair_weights
    for m in pair_weight:  # a prime or split over the table cap: refused before any table
        _modulus_primes(m, dim)
    # the left side's box: refused here, before any weight table, when its
    # discriminants could leave the int64 range
    radius = phi.lattice_radius(H, 1e-16)
    box = box_cost(n, radius, mode == MONIC)[1]
    tables = sum(table_build_cost(p, n) for p in _ints.primes_up_to(D))
    charge(sum(contraction_cost(m, dim) for m in pair_weight) + tables + box, budget,
           f"sieve check at n={n}, H={H}, D={D} ({mode}: contractions, tables and box)")
    rhs = 0.0
    for m, w in pair_weight.items():
        rhs += float(w) * lattice_weight_sum(m, n, mode, "mobius-half", phi, H)
    lhs = _an_weighted_lattice_sum(n, mode, phi, H, radius)
    return VerifyReport(n, H, D, mode, lhs, rhs, rhs - lhs, radius,
                        time.perf_counter() - start)


# ---------------------------------------------------------------------------
# exponents, levels, and box counts
# ---------------------------------------------------------------------------

def hit_exponent(n: int, monic: bool) -> Fraction:
    """Upper-bound exponent for the count of height-H degree-n polynomials
    with square discriminant: n - 2/3 + 2/(3n+3) in the monic family,
    n + 1/3 + 8/(9n+21) in the general family."""
    if n < 3:
        raise ValueError("the exponent formulas require n >= 3")
    if monic:
        return Fraction(n) - Fraction(2, 3) + Fraction(2, 3 * n + 3)
    return Fraction(n) + Fraction(1, 3) + Fraction(8, 9 * n + 21)


def optimal_d(n: int, H: float, monic: bool) -> int:
    """Sieve level balancing main and error terms, floored to an int >= 1:
    H^(2n/(3n+3)) (log H)^(-4/(3n+3)) monic,
    H^((2n+2)/(3n+7)) (log H)^(-4/(3n+7)) general."""
    if n < 1 or H < 2:
        raise ValueError("need n >= 1 and H >= 2")
    if monic:
        expo, logexp = Fraction(2 * n, 3 * n + 3), Fraction(-4, 3 * n + 3)
    else:
        expo, logexp = Fraction(2 * n + 2, 3 * n + 7), Fraction(-4, 3 * n + 7)
    val = H ** float(expo) * math.log(H) ** float(logexp)
    return max(1, math.floor(val))


@dataclass(frozen=True)
class AnBoxCount:
    count: int
    weighted: Fraction
    degenerate: int  # polynomials with vanishing discriminant in the box


def count_an_box(n: int, H: int, monic: bool,
                 budget: int | None = DEFAULT_BUDGET) -> AnBoxCount:
    """Count height-H polynomials with square nonzero discriminant, plus the
    companion weighted sum of 2^(-omega(LDisc)) and the number of vanishing
    discriminants."""
    _free, om, zero_count = _an_survivors(n, H, monic, budget)
    # sum 2^(-omega) as one fraction over 2^top; omega <= 15 below 2^63
    top = int(om.max(initial=0))
    weighted = Fraction(int((1 << (top - om)).sum()), 1 << top)
    return AnBoxCount(len(om), weighted, zero_count)
