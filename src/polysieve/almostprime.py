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
from .zpoly import DEFAULT_BOX_BUDGET, _disc_blocks, _ldisc_abs_bound
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

    def divisible_mass(self, d: int) -> float:
        if d == 1:
            return self.total_mass
        # int64 division by a scalar is much cheaper than the remainder
        return float(self.masses[self.ms // d * d == self.ms].sum())


# keys per pass after the sort.  The passes allocate nothing of point size,
# and their few temporaries of 256 KiB each stay in the allocator's heap
# from pass to pass: at 2^17 keys a pass, the cubic build at H = 30 took
# 5x the page faults and ~30% more time.
_CHUNK = 1 << 15


def _group_starts(keys: np.ndarray, shift: int) -> np.ndarray:
    """Indices of the sorted keys where keys >> shift changes: the starts of
    the groups of equal |Disc|, marked in passes of _CHUNK keys into one
    bool per key.  Starts gathered per pass and then joined are heap-sized
    pieces, and whether their ~20 MB (cubic, H = 30) went back to the
    system after the join varied with the process's environment size:
    peak RSS 163 or 182 MB."""
    new = np.empty(keys.size, dtype=bool)
    prev = -1
    for i in range(0, keys.size, _CHUNK):
        vals = keys[i:i + _CHUNK] >> shift
        new[i] = vals[0] != prev
        np.not_equal(vals[1:], vals[:-1], out=new[i + 1:i + vals.size])
        prev = vals[-1]
    return np.flatnonzero(new)


def build_disc_sequence(n: int, H: float, phi: SmoothWeight | None = None,
                        radius: int | None = None,
                        budget: int | None = DEFAULT_BOX_BUDGET) -> DiscSequence:
    """Exact-discriminant histogram with smooth weights phi(f/H) over the
    monic lattice, truncated where the Gaussian falls below machine
    precision (override with an explicit radius for hard boxes).  H must be
    a finite positive number and the radius >= 0.

    Half the box is scanned.  g(x) = (-1)^n f(-x) is monic with the same
    discriminant and maps a_j to (-1)^(n-j) a_j, and the product weight is
    even in every coordinate (`coord_profile` is), so f and g carry equal
    mass.  The scan starts the slowest coordinate a_{n-1} at 0 and gives a
    point multiplicity 1 + s, where s is the sign of its first nonzero
    flipped coordinate a_{n-1}, a_{n-3}, ... from the top: 2 for one
    point of each pair, 0 for the other, 1 on the fixed points of the
    flip (all flipped coordinates 0), which lie in the slab a_{n-1} = 0.

    Each nonzero |Disc| of a kept point is packed with its box position
    into one int64 key, |Disc| << shift | slot, and the keys are sorted in
    place.  The slot is the point's running index in the full box's
    enumeration order, zero discriminants included, so its base-(2R+1)
    digits are the coordinates a_j + R and a point's weight and
    multiplicity are recomputed from its key after the sort.  Keys are
    distinct, so equal |Disc| stay in enumeration order and their masses,
    multiplicity times weight (doubling is exact), add up in that order;
    so does the Disc = 0 mass.  Memory: one int64 key per point of the
    half box, (R+1)(2R+1)^(n-1), plus the outputs and the group starts
    (three arrays per distinct |Disc|), and one bool per key while the
    groups are found.  The budget is charged `box_cost` of the full box,
    about twice what is scanned.
    Domain: max |Disc| < 2^(63 - shift), checked on
    `zpoly._ldisc_abs_bound` before any allocation; a box outside it is
    refused with BudgetExceededError."""
    if n < 2:
        raise ValueError("need degree n >= 2")
    if not (math.isfinite(H) and H > 0):
        raise ValueError(f"H must be a finite positive number, got {H!r}")
    if radius is not None and radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius!r}")
    phi = phi if phi is not None else SmoothWeight()
    R = radius if radius is not None else phi.lattice_radius(H, 1e-16)
    blocks = _disc_blocks(n, R, True, budget, half=True)  # refuses before allocating
    width = 2 * R + 1
    points = width ** n
    shift = (points - 1).bit_length()
    bound = _ldisc_abs_bound(n, R, True)  # |LDisc| = |Disc| when monic
    if bound >= 1 << (63 - shift):
        raise BudgetExceededError(
            f"degree-{n} box of height {R}: |Disc| may reach {bound}, too large "
            f"to pack with a {shift}-bit slot into an int64 sort key")
    # the slab a_{n-1} = 0, where the half box starts, holds slots
    # slab0 .. slab1 - 1
    slab = width ** (n - 1)
    slab0, slab1 = R * slab, (R + 1) * slab
    # every coordinate lies in [-R, R]: one profile entry per integer value,
    # and one table of products for the two low coordinates
    profile = phi.coord_profile(np.arange(-R, R + 1) / H)
    low = np.multiply.outer(profile, profile).ravel()

    def flip_sign(slots):
        # sign of the first nonzero flipped coordinate below a_{n-1}: the
        # multiplicity is 1 + this sign in the slab a_{n-1} = 0
        sign = np.zeros(slots.size, dtype=np.int64)
        for j in range(n - 3, -1, -2):
            digit = slots // width ** j % width - R
            np.copyto(sign, np.sign(digit), where=sign == 0)
        return sign

    def weights(slots):
        # multiplicity times weight, for slots of multiplicity 1 or 2;
        # digit by digit, in the order a row product would multiply
        q = slots // (width * width)
        w = low[slots - q * (width * width)]
        for _ in range(2, n):
            r = q // width
            w *= profile[q - r * width]
            q = r
        w *= phi.amplitude
        # doubled, then the fixed points, all in the slab a_{n-1} = 0,
        # halved back: both steps are exact
        w += w
        fixed = np.flatnonzero(slots < slab1)
        fixed = fixed[flip_sign(slots[fixed]) == 0]
        w[fixed] *= 0.5
        return w

    # one slot per point of the half box, filled block by block: one large
    # array that is freed whole, where a list of per-block arrays would
    # leave the allocator's heap fragmented and resident
    keys = np.empty((R + 1) * slab, dtype=np.int64)
    k, pos = 0, slab0
    zero_mass = 0.0
    for _coeffs, discs in blocks:
        slots = np.arange(pos, pos + discs.size)
        pos += discs.size
        if slots[0] < slab1:  # drop the points of multiplicity 0
            kept = (slots >= slab1) | (flip_sign(slots) >= 0)
            slots, discs = slots[kept], discs[kept]
        live = discs != 0
        zero_mass += float(weights(slots[~live]).sum())
        m = int(np.count_nonzero(live))
        out = keys[k:k + m]
        np.abs(discs[live], out=out)
        out <<= shift
        out |= slots[live]
        k += m
    keys = keys[:k]
    if not k:
        return DiscSequence(n, H, phi, R, keys, np.empty(0), zero_mass)
    keys.sort()
    starts = _group_starts(keys, shift)
    ms = keys[starts]
    ms >>= shift
    keys &= (1 << shift) - 1
    # each pass runs from the first group start at or after a multiple of
    # _CHUNK to the next one, so every group sums whole inside one pass
    masses = np.empty(starts.size)
    edges = np.unique(np.append(np.searchsorted(starts, np.arange(0, k, _CHUNK)),
                                starts.size))
    for g0, g1 in zip(edges[:-1].tolist(), edges[1:].tolist()):
        lo = starts[g0]
        hi = starts[g1] if g1 < starts.size else k
        masses[g0:g1] = np.add.reduceat(weights(keys[lo:hi]), starts[g0:g1] - lo)
    return DiscSequence(n, H, phi, R, ms, masses, zero_mass)


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

# nonzero |Disc| per omega_batch call in count_almost_prime.  Each call
# pays a fixed numpy cost per trial prime and Miller-Rabin step, which
# dominated one call per slab.  2^14, not _CHUNK: on the almost-prime
# benchmark (cubic boxes H = 20, 30; 2 vCPU, numpy 2.4.6) peak RSS went
# 31.8 -> 33.1 MB (+4%) at 2^14, and to 34.3 MB (+8%) at 2^15.
_OMEGA_GROUP = 1 << 14


def count_almost_prime(n: int, H: int, r: int, squarefree_only: bool = False,
                       budget: int | None = DEFAULT_BOX_BUDGET) -> int:
    """Number of monic height-H degree-n polynomials with nonzero
    discriminant having at most r distinct prime factors (optionally also
    requiring the discriminant to be squarefree).

    The nonzero |Disc| of consecutive slabs are joined into groups of at
    least _OMEGA_GROUP values, and each group takes one `omega_batch` call,
    so every value is factored in exactly one call and a |Disc| repeated
    inside a group is factored once.  Memory: a group's int64 values,
    twice while it is joined, and `omega_batch`'s working arrays for it."""
    if n < 2 or H < 1 or r < 0:
        raise ValueError("need n >= 2, H >= 1, r >= 0")

    def count(vals):
        om, sqfree = _ints.omega_batch(vals)
        ok = om <= r
        if squarefree_only:
            ok &= sqfree
        return int(np.count_nonzero(ok))

    # each group's results are freed before the next group is factored
    return sum(map(count, _omega_groups(_disc_blocks(n, H, True, budget))))


def _omega_groups(blocks):
    """The nonzero |Disc| of consecutive blocks, joined into groups of at
    least _OMEGA_GROUP values; the last group may be smaller."""
    parts, size = [], 0
    for _coeffs, discs in blocks:
        parts.append(np.abs(discs[discs != 0]))
        size += parts[-1].size
        if size >= _OMEGA_GROUP:
            group, parts, size = np.concatenate(parts), [], 0
            yield group
    if size:
        yield np.concatenate(parts)


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

