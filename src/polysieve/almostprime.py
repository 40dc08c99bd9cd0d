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
from .zpoly import DEFAULT_BOX_BUDGET, _disc_blocks
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
        return float(self.masses[self.ms % d == 0].sum())

    def items(self):
        return zip(self.ms.tolist(), self.masses.tolist())


def build_disc_sequence(n: int, H: float, phi: SmoothWeight | None = None,
                        radius: int | None = None,
                        budget: int | None = DEFAULT_BOX_BUDGET) -> DiscSequence:
    """Exact-discriminant histogram with smooth weights phi(f/H) over the
    monic lattice, truncated where the Gaussian falls below machine
    precision (override with an explicit radius for hard boxes)."""
    if n < 2:
        raise ValueError("need degree n >= 2")
    phi = phi if phi is not None else SmoothWeight()
    R = radius if radius is not None else phi.lattice_radius(H, 1e-16)
    val_blocks: list[np.ndarray] = []
    mass_blocks: list[np.ndarray] = []
    zero_mass = 0.0
    for coeffs, discs in _disc_blocks(n, R, True, budget):
        w = phi.amplitude * phi.coord_profile(coeffs / H).prod(axis=1)
        live = discs != 0
        zero_mass += float(w[~live].sum())
        val_blocks.append(np.abs(discs[live]))
        mass_blocks.append(w[live])
    # one stable sort keeps equal |Disc| in enumeration order; the block
    # lists and each unsorted array are released as soon as their
    # concatenated or permuted copy exists, which bounds peak memory
    vals = np.concatenate(val_blocks)
    del val_blocks
    masses = np.concatenate(mass_blocks)
    del mass_blocks
    if not vals.size:
        return DiscSequence(n, H, phi, R, vals, masses, zero_mass)
    order = np.argsort(vals, kind="stable")
    vals = vals[order]
    masses = masses[order]
    del order
    starts = np.flatnonzero(np.concatenate(([True], vals[1:] != vals[:-1])))
    return DiscSequence(n, H, phi, R, vals[starts],
                        np.add.reduceat(masses, starts), zero_mass)


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

