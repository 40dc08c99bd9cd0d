"""Modified Selberg sieve over polynomial boxes.

The sieve weights lambda_d come from the diagonalized coordinates
xi_e = mu(e)/C with C the number of squarefree integers up to the level D;
Mobius inversion gives lambda_d = mu(d) tau(d) sum_{d | e <= D} mu(e) xi_e,
normalized so lambda_1 = 1.  All weight arithmetic is exact rational.

For a lattice polynomial f the local factor at p is
nu_p(f) = (1 + (-1)^(n+1) mu_{p,n}(f mod p)) / 2 in {0, 1/2, 1}, and the
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

import numpy as np

from . import _ints
from .charsum import (MONIC, SmoothWeight, contraction_cost, lattice_weight_sum, space_dim,
                      table_build_cost)
from .errors import BudgetExceededError, SieveInequalityError
from .fppoly import mobius_pn
from .zpoly import ZPoly, reduce_mod, square_disc_scan

MARGIN_TOLERANCE = 1e-9
DEFAULT_VERIFY_BUDGET = 500_000_000

lcm = math.lcm


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

    @property
    def support(self) -> list[int]:
        return sorted(self.lam)


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


def nu_weight(f: ZPoly, p: int, n: int) -> Fraction:
    """Local factor (1 + (-1)^(n+1) mu_{p,n}(f mod p)) / 2."""
    sign = 1 if n % 2 == 1 else -1
    return Fraction(1 + sign * mobius_pn(reduce_mod(f, p), n), 2)


@dataclass(frozen=True)
class LocalMatrix:
    """2x2 block [[1, nu], [nu, nu]] attached to one prime."""

    p: int
    entries: tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]

    @classmethod
    def from_nu(cls, p: int, nu: Fraction) -> "LocalMatrix":
        one = Fraction(1)
        return cls(p, ((one, nu), (nu, nu)))

    @classmethod
    def from_poly(cls, f: ZPoly, p: int, n: int) -> "LocalMatrix":
        return cls.from_nu(p, nu_weight(f, p, n))

    def is_psd(self) -> bool:
        (a, b), (_, c) = self.entries
        return a >= 0 and c >= 0 and a * c - b * b >= 0


def pair_weights(weights: SieveWeights) -> dict[int, Fraction]:
    """w_m = sum_{[d1,d2] = m} lambda_{d1} lambda_{d2}, keyed by m ascending:
    every sum of lambda_{d1} lambda_{d2} g([d1,d2]) is sum_m w_m g(m)."""
    out: dict[int, Fraction] = defaultdict(Fraction)
    for d1, l1 in weights.lam.items():
        for d2, l2 in weights.lam.items():
            out[lcm(d1, d2)] += l1 * l2
    return dict(sorted(out.items()))


def qf_value(f: ZPoly, weights: SieveWeights, n: int) -> Fraction:
    """Q_f = sum_{d1,d2} lambda_{d1} lambda_{d2} prod_{p | [d1,d2]} nu_p(f)
    = sum_m w_m prod_{p | m} nu_p(f)."""
    nu = {p: nu_weight(f, p, n) for p in _ints.primes_up_to(weights.D)}
    total = Fraction(0)
    for m, w in pair_weights(weights).items():
        for p in _ints.prime_factors(m):
            w *= nu[p]
        total += w
    return total


def qf_gram(f: ZPoly, D: int, n: int):
    """Gram matrix of the quadratic form over squarefree d <= D (floats),
    for eigenvalue diagnostics."""
    sq = _ints.squarefree_up_to(D)
    primes = _ints.primes_up_to(D)
    nu = {p: float(nu_weight(f, p, n)) for p in primes}
    sets = {d: frozenset(_ints.prime_factors(d)) if d > 1 else frozenset() for d in sq}
    g = np.empty((len(sq), len(sq)))
    for i, d1 in enumerate(sq):
        for j, d2 in enumerate(sq):
            val = 1.0
            for p in sets[d1] | sets[d2]:
                val *= nu[p]
            g[i, j] = val
    return list(sq), g


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


def _an_weighted_lattice_sum(n: int, mode: str, phi: SmoothWeight, H: int,
                             budget: int | None) -> tuple[float, int]:
    """Left side: sum over square-discriminant lattice polynomials of
    phi(f/H) / 2^omega(LDisc f), truncated where the Gaussian is below
    machine precision (the discarded terms are nonnegative)."""
    R = phi.lattice_radius(H, 1e-16)
    survivors, _zero = square_disc_scan(n, R, mode == MONIC, budget=budget)
    if not survivors:
        return 0.0, R
    coeff_rows = np.array([c for c, _ in survivors], dtype=np.int64)
    free = coeff_rows[:, :space_dim(n, mode)]
    # survivors end with a_n (1 when monic), so this is |LDisc| in both modes
    ldiscs = np.array([abs(c[-1] * d) for c, d in survivors], dtype=np.int64)
    om = _ints.omega_batch(ldiscs)
    gauss = phi.amplitude * phi.coord_profile(free / H).prod(axis=1)
    return float((gauss * 0.5 ** om).sum()), R


def verify_modified_selberg(n: int, H: int, D: int, mode: str = MONIC,
                            phi: SmoothWeight | None = None,
                            budget: int | None = DEFAULT_VERIFY_BUDGET,
                            strict: bool = True) -> VerifyReport:
    """Brute-force both sides of the sieve upper bound

        sum_{f square disc, LDisc != 0} phi(f/H) / 2^omega(LDisc f)
            <=  sum_{d1,d2 <= D} lambda_{d1} lambda_{d2}
                sum_f phi(f/H) prod_{p | [d1,d2]} nu_p(f)

    over the coefficient lattice.  The right side runs over the whole
    lattice (degree drops included); the left side carries the degree-n
    and nonzero-discriminant conditions, so truncating both to the same
    Gaussian support preserves the inequality term by term.
    """
    dim = space_dim(n, mode)
    if D < 1 or H < 1 or n < 1:
        raise ValueError("need n >= 1, H >= 1, D >= 1")
    phi = phi if phi is not None else SmoothWeight.box_calibrated(dim)
    start = time.perf_counter()
    pair_weight = pair_weights(selberg_weights(D))
    if budget is not None:
        est = (sum(contraction_cost(m, dim) for m in pair_weight)
               + sum(table_build_cost(p, n) for p in _ints.primes_up_to(D))
               + (2 * phi.lattice_radius(H, 1e-16) + 1) ** dim)
        if est > budget:
            raise BudgetExceededError(f"verification cost estimate {est} exceeds budget {budget}")
    rhs = 0.0
    for m, w in pair_weight.items():
        rhs += float(w) * lattice_weight_sum(m, n, mode, "mobius-half", phi, H)
    lhs, radius = _an_weighted_lattice_sum(n, mode, phi, H, budget)
    margin = rhs - lhs
    report = VerifyReport(n, H, D, mode, lhs, rhs, margin, radius,
                          time.perf_counter() - start)
    if strict and margin < -MARGIN_TOLERANCE:
        raise SieveInequalityError(f"sieve inequality violated: {report}")
    return report


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
                 include_degenerate: bool = False,
                 budget: int | None = DEFAULT_VERIFY_BUDGET) -> AnBoxCount:
    """Count height-H polynomials with square nonzero discriminant, plus the
    companion weighted sum of 2^(-omega(LDisc)).  With include_degenerate,
    vanishing discriminants join the raw count (never the weighted sum)."""
    survivors, zero_count = square_disc_scan(n, H, monic, budget=budget)
    weighted = Fraction(0)
    if survivors:
        lds = np.array([abs(c[-1] * d) for c, d in survivors], dtype=np.int64)
        for om in _ints.omega_batch(lds).tolist():
            weighted += Fraction(1, 2 ** om)
    count = len(survivors) + (zero_count if include_degenerate else 0)
    return AnBoxCount(count, weighted, zero_count)
