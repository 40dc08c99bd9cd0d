"""Almost-prime discriminant statistics for monic polynomial boxes.

The weighted sequence a_m collects Gaussian-smoothed masses of lattice
polynomials by absolute discriminant; its divisor sums realize the linear
sieve density g(d) = 1/d with main term H^n phi_hat(0) / d.  Admissibility
of a prime-factor budget r is governed by
Delta_r = r + log((3/4)(1 + 3^-r)) / log 3, and the distribution of the
discriminant's number of distinct prime factors over a box, from which
every cap r is read, is counted by direct enumeration with batch factoring.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _ints
from .charsum import SmoothWeight
from .errors import BudgetExceededError
from .zpoly import DEFAULT_BOX_BUDGET, _disc_blocks, _ldisc_abs_bound
# rebound here too by perfbench/tracing.py, which raises if either is missing
from .zpoly import discriminant, disc_values_monic3  # noqa: F401


def _integer(name: str, value) -> int:
    """value as a Python int, by `operator.index` as `zpoly._coeffs` takes
    coefficients; a float or any other non-integer raises TypeError."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


# entries per `_ints._sorted_runs` pass, at least, in the histogram and in
# count_almost_prime (its omega_batch groups).  Histogram passes allocate
# nothing of point or output size, and their 256 KiB temporaries stay in
# the allocator's heap: at 2^16 keys a pass, the cubic build at H = 30 took
# 4.7x the page faults and ~15% more time (2^13 to 2^15 alike).  Each
# omega_batch call pays a fixed numpy cost per trial prime and Miller-Rabin
# step, and its working arrays grow with it: on the almost-prime benchmark
# (cubic boxes H = 20, 30; 2 vCPU, numpy 2.4.6; medians of four 10 s runs)
# wall_s / peak_rss_mb read 0.142 s / 33.6 MB at 2^13, 0.116 / 34.1 at
# 2^14, 0.108 / 34.9 at 2^15 and 0.102 / 36.6 at 2^16, against 0.211 s /
# 33.3 MB for 2^14 values cut by slab, unsorted: 2^16 would take that
# benchmark's whole 10% RSS bound, 2^15 under half of it.  The pass size
# never moves the histogram or the table.
_PASS = 1 << 15


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
    ms: np.ndarray        # int64, sorted unique |Disc| > 0 (built: a view of its keys)
    masses: np.ndarray    # float64, same length
    zero_mass: float

    @property
    def total_mass(self) -> float:
        return float(self.masses.sum())

    def divisible_mass(self, d: int) -> float:
        if d == 1:
            return self.total_mass
        if self.ms.size == 0 or d > int(self.ms[-1]):
            return 0.0  # d divides no stored |Disc|, and may not fit an int64
        # the masses of the |Disc| that d divides, compressed pass by pass
        # into one buffer and summed once: the bits of
        # masses[ms % d == 0].sum(), with no temporary of output size
        hits = np.empty(self.ms.size)
        k = 0
        for lo in range(0, self.ms.size, _PASS):
            ms = self.ms[lo:lo + _PASS]
            # int64 division by a scalar is much cheaper than the remainder
            mask = ms // d * d == ms
            m = int(np.count_nonzero(mask))
            np.compress(mask, self.masses[lo:lo + _PASS], out=hits[k:k + m])
            k += m
        return float(hits[:k].sum())


def build_disc_sequence(n: int, H: float, phi: SmoothWeight | None = None,
                        radius: int | None = None,
                        budget: int | None = DEFAULT_BOX_BUDGET) -> DiscSequence:
    """Exact-discriminant histogram with smooth weights phi(f/H) over the
    monic lattice, truncated where the Gaussian falls below machine
    precision (override with an explicit radius for hard boxes).  n and
    the radius must be integers, H a finite positive number and the
    radius >= 0.

    Half the box is scanned.  g(x) = (-1)^n f(-x) is monic with the same
    discriminant and maps a_j to (-1)^(n-j) a_j, and the product weight is
    even in every coordinate (`coord_profile` is), so f and g carry equal
    mass.  The scan starts the slowest coordinate a_{n-1} at 0 and gives a
    point multiplicity 1 + s, where s is the sign of its first nonzero
    flipped coordinate a_{n-1}, a_{n-3}, ... from the top: 2 for one
    point of each pair, 0 for the other, 1 on the fixed points of the
    flip (all flipped coordinates 0), which lie in the slab a_{n-1} = 0.

    The |Disc| of every kept point, zero included, is packed with its box
    position into one int64 key, |Disc| << shift | slot, and the keys are
    sorted in place.  The slot is the point's running index in the full
    box's enumeration order, so its base-(2R+1) digits are the coordinates
    a_j + R and a point's weight and multiplicity are recomputed from its
    key after the sort.  Keys are distinct, so equal |Disc| stay in
    enumeration order and their masses, multiplicity times weight
    (doubling is exact), add up in that order.  The Disc = 0 group, if
    any, sorts first; its mass is `zero_mass`.  After the sort, passes of
    at least _PASS keys, each ending where a group of equal |Disc| ends,
    count the groups, then sum each into `masses` and write its |Disc|
    over the front of the keys, behind the pass: that front is `ms`.
    Memory at the peak: one int64 key per point of the half box,
    (R+1)(2R+1)^(n-1), one float64 per distinct |Disc| and temporaries of
    one pass or one block.  The result keeps the whole key buffer, of which
    `ms` is a view: 36.7 MB at H = 30, against 19.6 MB for `ms` alone.
    The budget is charged `box_cost` of the full box, about twice what is
    scanned.
    Domain: max |Disc| < 2^(63 - shift), checked on
    `zpoly._ldisc_abs_bound` before any allocation; a box outside it is
    refused with BudgetExceededError."""
    n = _integer("n", n)
    if radius is not None:
        radius = _integer("radius", radius)
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
    slot_bits = (1 << shift) - 1
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
        for _ in range(3, n):
            r = q // width
            w *= profile[q - r * width]
            q = r
        if n > 2:
            w *= profile[q]  # the top digit: q < width
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
    for _coeffs, discs in blocks:
        slots = np.arange(pos, pos + discs.size)
        pos += discs.size
        if slots[0] < slab1:  # drop the points of multiplicity 0
            kept = (slots >= slab1) | (flip_sign(slots) >= 0)
            slots, discs = slots[kept], discs[kept]
        out = keys[k:k + discs.size]
        np.abs(discs, out=out)
        out <<= shift
        out |= slots
        k += discs.size
    keys = keys[:k]
    keys.sort()
    # each group is counted, then summed whole in one pass; g <= lo
    masses = np.empty(sum(int(np.count_nonzero(new)) for *_, new in
                          _ints._sorted_runs(keys, _PASS, shift)))
    g = 0
    for lo, hi, new in _ints._sorted_runs(keys, _PASS, shift):
        chunk, starts = keys[lo:hi], np.flatnonzero(new)
        masses[g:g + starts.size] = np.add.reduceat(weights(chunk & slot_bits), starts)
        np.right_shift(chunk[starts], shift, out=keys[g:g + starts.size])
        g += starts.size
    zero = int(keys[0] == 0)  # the Disc = 0 group, if any
    zero_mass = float(masses[0]) if zero else 0.0
    return DiscSequence(n, H, phi, R, keys[zero:g], masses[zero:], zero_mass)


@dataclass(frozen=True)
class DensityRemainder:
    d: int
    divisor_mass: float
    main: float
    remainder: float


def density_remainder(seq: DiscSequence, d: int) -> DensityRemainder:
    """Divisor mass sum_{d | m} a_m against its linear-sieve main term
    H^n phi_hat(0) / d.  d must be an integer."""
    d = _integer("d", d)
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
    """Whether 1/Delta_r < n / (2(n-1)^2); the exponent needs n >= 2."""
    if n < 2:
        raise ValueError(f"admissibility needs n >= 2, got n={n}")
    expo = Fraction(n, 2 * (n - 1) ** 2)
    d = delta_r(r)
    return SieveAdmissibility(n, r, d, expo, 1 / d < expo)


def min_admissible_r(n: int) -> int:
    """Smallest r with 1/Delta_r < n / (2(n-1)^2), which is 2n - 3 for every
    n >= 3, in closed form.  Delta_r = r - c_r with
    c_r = log_3(4/3) - log_3(1 + 3^-r), so 0 <= c_r < log_3(4/3) < 0.262 and
    Delta_r increases with r.  The condition reads Delta_r > 2(n-1)^2 / n
    = 2n - 4 + 2/n: r <= 2n - 4 never meets it (Delta_r <= r), and
    r = 2n - 3 meets it exactly when c_r < 1 - 2/n, which holds for n >= 3
    since 1 - 2/n >= 1/3."""
    if n < 3:
        raise ValueError("need n >= 3")
    return 2 * n - 3


# ---------------------------------------------------------------------------
# counting and exponents
# ---------------------------------------------------------------------------

def count_almost_prime(n: int, H: int, *,
                       budget: int | None = DEFAULT_BOX_BUDGET) -> np.ndarray:
    """The omega distribution of the monic height-H degree-n box, as an
    int64 table `counts` of shape (16, 2): counts[w, s] box polynomials
    have a nonzero Disc with omega(|Disc|) = w and squarefree flag s
    (omega <= 15 below 2^63).  So counts[:r + 1].sum() have at most r
    distinct prime factors, counts[:r + 1, 1].sum() squarefree ones among
    them.  n and H must be integers.

    The nonzero |Disc| of the box are written into one int64 array, sorted
    in place and cut by `_ints._sorted_runs` into groups of at least
    _PASS values, each ending where a run of equal values ends;
    each group takes one `omega_batch` call.  So every value goes through
    exactly one call, no distinct value reaches two calls, and each
    distinct |Disc| is factored once per box.  Memory: one int64 per box
    point, (2H+1)^n, allocated after the box is charged, plus
    `omega_batch`'s working arrays for one group."""
    n, H = _integer("n", n), _integer("H", H)
    if n < 2 or H < 1:
        raise ValueError("need n >= 2, H >= 1")
    blocks = _disc_blocks(n, H, True, budget)  # refuses before allocating
    vals = np.empty((2 * H + 1) ** n, dtype=np.int64)
    k = 0
    for _coeffs, discs in blocks:
        live = discs[discs != 0]
        np.abs(live, out=vals[k:k + live.size])
        k += live.size
    vals = vals[:k]
    vals.sort()
    counts = np.zeros(32, dtype=np.int64)
    for lo, hi, _new in _ints._sorted_runs(vals, _PASS):
        om, sqfree = _ints.omega_batch(vals[lo:hi])
        om <<= 1
        om |= sqfree
        counts += np.bincount(om, minlength=32)
    return counts.reshape(16, 2)


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

