"""Almost-prime discriminant statistics for monic polynomial boxes.

The weighted sequence a_m collects Gaussian-smoothed masses of lattice
polynomials by absolute discriminant; its divisor sums realize the linear
sieve density g(d) = 1/d with main term H^n phi_hat(0) / d.  Admissibility
of a prime-factor budget r is governed by
Delta_r = r + log((3/4)(1 + 3^-r)) / log 3, and counting polynomials whose
discriminant has at most r distinct prime factors is done by direct
enumeration with batch factoring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _ints
from .charsum import SmoothWeight
from .errors import BudgetExceededError
from .zpoly import DEFAULT_BOX_BUDGET, _disc_blocks, _ldisc_bound_sq
# rebound here too by perfbench/tracing.py, which raises if either is missing
from .zpoly import discriminant, disc_values_monic3  # noqa: F401


# ---------------------------------------------------------------------------
# the discriminant histogram
# ---------------------------------------------------------------------------

@dataclass
class DiscSequence:
    """Histogram m -> a_m of |Disc| over the smoothed monic lattice, stored
    as parallel sorted arrays; the Disc = 0 mass is kept separately."""

    n: int
    H: float
    phi: SmoothWeight
    radius: int
    ms: np.ndarray        # int64, sorted unique |Disc| > 0
    masses: np.ndarray    # float64, same length
    zero_mass: float

    @property
    def total_mass(self) -> float:
        return float(self.masses.sum())

    @property
    def max_m(self) -> int:
        return int(self.ms[-1]) if self.ms.size else 0

    def mass_of(self, m: int) -> float:
        idx = np.searchsorted(self.ms, m)
        if idx < self.ms.size and self.ms[idx] == m:
            return float(self.masses[idx])
        return 0.0

    def divisible_mass(self, d: int) -> float:
        if d == 1:
            return self.total_mass
        # int64 division by a scalar is much cheaper than the remainder
        return float(self.masses[self.ms // d * d == self.ms].sum())

    def items(self):
        return zip(self.ms.tolist(), self.masses.tolist())


def _disc_abs_bound(n: int, R: int) -> int:
    """Upper bound on |Disc| over the monic height-R box: the sum of the
    cubic closed form's |terms| at a = 1 for n = 3, Hadamard's bound on
    |LDisc| = |Disc| otherwise."""
    if n == 3:
        return 5 * R ** 4 + 22 * R ** 3 + 27 * R ** 2
    return math.isqrt(_ldisc_bound_sq(n, R, True)) + 1


def build_disc_sequence(n: int, H: float, phi: SmoothWeight | None = None,
                        radius: int | None = None,
                        budget: int | None = DEFAULT_BOX_BUDGET) -> DiscSequence:
    """Exact-discriminant histogram with smooth weights phi(f/H) over the
    monic lattice, truncated where the Gaussian falls below machine
    precision (override with an explicit radius for hard boxes).

    Each nonzero |Disc| is packed with its enumeration slot into one int64
    key, |Disc| << shift | slot, and the keys are sorted in place.  Keys
    are distinct, so equal |Disc| stay in enumeration order and their
    masses add up in that order.  Domain: max |Disc| < 2^(63 - shift),
    checked on `_disc_abs_bound` before any allocation; a box outside it
    is refused with BudgetExceededError."""
    if n < 2:
        raise ValueError("need degree n >= 2")
    phi = phi if phi is not None else SmoothWeight()
    R = radius if radius is not None else phi.lattice_radius(H, 1e-16)
    blocks = _disc_blocks(n, R, True, budget)  # refuses before allocating
    points = (2 * R + 1) ** n
    shift = (points - 1).bit_length()
    bound = _disc_abs_bound(n, R)
    if bound >= 1 << (63 - shift):
        raise BudgetExceededError(
            f"degree-{n} box of height {R}: |Disc| may reach {bound}, too large "
            f"to pack with a {shift}-bit slot into an int64 sort key")
    # one output slot per box point, filled block by block: two large
    # arrays that are freed whole, where a list of per-block arrays would
    # leave the allocator's heap fragmented and resident
    keys = np.empty(points, dtype=np.int64)
    masses = np.empty(points)
    k = 0
    zero_mass = 0.0
    # every coordinate lies in [-R, R]: one profile entry per integer value
    profile = phi.coord_profile(np.arange(-R, R + 1) / H)
    for coeffs, discs in blocks:
        # column by column, in the order a row product would multiply
        w = profile[coeffs[:, 0] + R]
        for j in range(1, coeffs.shape[1]):
            w *= profile[coeffs[:, j] + R]
        w *= phi.amplitude
        live = discs != 0
        zero_mass += float(w[~live].sum())
        m = int(np.count_nonzero(live))
        out = keys[k:k + m]
        np.abs(discs[live], out=out)
        out <<= shift
        out |= np.arange(k, k + m)
        masses[k:k + m] = w[live]
        k += m
    keys, masses = keys[:k], masses[:k]
    if not k:
        return DiscSequence(n, H, phi, R, keys, masses, zero_mass)
    keys.sort()
    # at most three point-sized arrays alive at once: keys, masses and
    # either the unpacked |Disc| or the permuted masses
    vals = keys >> shift
    starts = np.flatnonzero(np.concatenate(([True], vals[1:] != vals[:-1])))
    ms = vals[starts]
    del vals
    keys &= (1 << shift) - 1
    masses = masses[keys]
    return DiscSequence(n, H, phi, R, ms, np.add.reduceat(masses, starts), zero_mass)


@dataclass(frozen=True)
class DensityRemainder:
    d: int
    divisor_mass: float
    main: float
    remainder: float


def density_remainder(seq: DiscSequence, d: int) -> DensityRemainder:
    """Divisor mass sum_{d | m} a_m against its linear-sieve main term
    H^n phi_hat(0) / d."""
    if d < 1 or not _ints.is_squarefree(d):
        raise ValueError("d must be a squarefree positive integer")
    mass = seq.divisible_mass(d)
    main = seq.H ** seq.n * seq.phi.fourier_zero(seq.n) / d
    return DensityRemainder(d, mass, main, mass - main)


# ---------------------------------------------------------------------------
# admissibility arithmetic
# ---------------------------------------------------------------------------

def delta_r(r: int) -> float:
    """Level exponent r + log((3/4)(1 + 3^-r)) / log 3 of the weighted
    almost-prime sieve."""
    if r < 1:
        raise ValueError("need r >= 1")
    return r + math.log(0.75 * (1 + 3.0 ** (-r))) / math.log(3)


@dataclass(frozen=True)
class SieveAdmissibility:
    n: int
    r: int
    delta: float
    density_exponent: Fraction  # n / (2 (n-1)^2)
    admissible: bool


def admissibility(n: int, r: int) -> SieveAdmissibility:
    expo = Fraction(n, 2 * (n - 1) ** 2)
    d = delta_r(r)
    return SieveAdmissibility(n, r, d, expo, 1 / d < expo)


def min_admissible_r(n: int) -> int:
    """Smallest r with 1/Delta_r < n / (2(n-1)^2); equals 2n - 3 throughout
    the tested range n in [3, 12]."""
    if n < 3:
        raise ValueError("need n >= 3")
    threshold = n / (2 * (n - 1) ** 2)
    r = 1
    while 1 / delta_r(r) >= threshold:
        r += 1
    return r


# ---------------------------------------------------------------------------
# counting and exponents
# ---------------------------------------------------------------------------

def count_almost_prime(n: int, H: int, r: int, squarefree_only: bool = False,
                       budget: int | None = DEFAULT_BOX_BUDGET) -> int:
    """Number of monic height-H degree-n polynomials with nonzero
    discriminant having at most r distinct prime factors (optionally also
    requiring the discriminant to be squarefree)."""
    if n < 2 or H < 1 or r < 0:
        raise ValueError("need n >= 2, H >= 1, r >= 0")
    total = 0
    for _coeffs, discs in _disc_blocks(n, H, True, budget):
        live = discs != 0
        if not live.any():
            continue
        vals = np.abs(discs[live])
        om, sqfree = _ints.omega_batch(vals, track_squarefree=True)
        ok = om <= r
        if squarefree_only:
            ok &= sqfree
        total += int(np.count_nonzero(ok))
    return total


def field_exponent(n: int, c_n) -> tuple[Fraction, Fraction]:
    """Exponent pair from a polynomial-count lower bound combined with a
    field-count upper bound X^(c_n): the field count grows at least like
    X^(1/2 + 1/(2 c_n n (n-1) - 2)), using an auxiliary discriminant cutoff
    Y of exponent n (n-1)^2 / (c_n n (n-1) - 1)."""
    if n < 3:
        raise ValueError("need n >= 3")
    cn = Fraction(c_n)
    base = cn * n * (n - 1)
    if base <= 1:
        raise ValueError("need c_n * n * (n-1) > 1")
    count_exp = Fraction(1, 2) + Fraction(1, 1) / (2 * base - 2)
    cutoff_exp = Fraction(n * (n - 1) ** 2, 1) / (base - 1)
    return count_exp, cutoff_exp


def multiplicity_bound(n: int, H: float, disc: int) -> float:
    """Normalized bound H (log H)^(n-1) |disc|^(-1/(n^2-n)) on how many
    height-H polynomials can cut out one field of that discriminant
    (implied constant taken as 1)."""
    if disc == 0:
        raise ValueError("need a nonzero discriminant")
    if H < 2:
        raise ValueError("need H >= 2")
    return H * math.log(H) ** (n - 1) * abs(disc) ** (-1 / (n * n - n))

