"""Integer polynomials: exact discriminants, reductions mod p, the
square-discriminant test for Galois group inside the alternating group,
height-box enumeration, and the 2^omega divisor identity.

Discriminants are computed as (-1)^(n(n-1)/2) * Res(f, f') / a_n with the
resultant taken as a fraction-free (Bareiss) determinant of the Sylvester
matrix, so every value is an exact integer.  A vectorized int64 fast path
covers cubic boxes, where the classical closed form is overflow-safe for
every height this package enumerates; it is cross-checked against the
Sylvester route in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Iterator, Sequence

import numpy as np

from . import _ints
from .errors import BudgetExceededError
from .fppoly import FpPoly, fp_normalize

DEFAULT_BOX_BUDGET = 100_000_000

lcm = math.lcm


@dataclass(frozen=True)
class ZPoly:
    """Degree-n ambient integer polynomial, coefficients a_0..a_n low to high."""

    coeffs: tuple[int, ...]
    n: int
    monic: bool = False

    def __post_init__(self):
        if len(self.coeffs) != self.n + 1:
            raise ValueError("coefficient vector must have length n + 1")
        if self.monic and self.coeffs[-1] != 1:
            raise ValueError("monic polynomial must have leading coefficient 1")

    @classmethod
    def from_coeffs(cls, coeffs: Sequence[int], monic: bool | None = None) -> "ZPoly":
        t = tuple(int(c) for c in coeffs)
        if monic is None:
            monic = bool(t) and t[-1] == 1
        return cls(t, len(t) - 1, monic)

    @property
    def leading(self) -> int:
        return self.coeffs[-1]

    @property
    def height(self) -> int:
        return max(abs(c) for c in self.coeffs)

    @property
    def degree(self) -> int | None:
        for i in range(len(self.coeffs) - 1, -1, -1):
            if self.coeffs[i]:
                return i
        return None


@dataclass(frozen=True)
class DiscReport:
    disc: int
    ldisc: int
    omega_ldisc: int | None


def _bareiss_det(rows: list[list[int]]) -> int:
    """Exact determinant of an integer matrix by fraction-free elimination."""
    a = [row[:] for row in rows]
    size = len(a)
    sign = 1
    prev = 1
    for k in range(size - 1):
        if a[k][k] == 0:
            for i in range(k + 1, size):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = pivot
    return sign * a[size - 1][size - 1]


def _resultant(f: Sequence[int], g: Sequence[int]) -> int:
    """Res(f, g) via the Sylvester matrix; inputs low -> high, nonzero."""
    m = len(f) - 1
    k = len(g) - 1
    if k == 0:
        return g[0] ** m
    if m == 0:
        return f[0] ** k
    size = m + k
    fh = list(f[::-1])
    gh = list(g[::-1])
    rows = []
    for i in range(k):
        rows.append([0] * i + fh + [0] * (size - m - 1 - i))
    for i in range(m):
        rows.append([0] * i + gh + [0] * (size - k - 1 - i))
    return _bareiss_det(rows)


def discriminant(f: ZPoly) -> int:
    """Exact polynomial discriminant; requires a_n != 0."""
    if f.leading == 0:
        raise ValueError("discriminant requires a nonzero leading coefficient")
    n = f.n
    if n < 1:
        raise ValueError("discriminant requires degree >= 1")
    if n == 1:
        return 1
    deriv = tuple(i * f.coeffs[i] for i in range(1, n + 1))
    res = _resultant(f.coeffs, deriv)
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    quot, rem = divmod(sign * res, f.leading)
    if rem:
        raise ArithmeticError("resultant not divisible by leading coefficient")
    return quot


def ldisc(f: ZPoly) -> int:
    """Leading coefficient times discriminant."""
    return f.leading * discriminant(f)


def disc_report(f: ZPoly) -> DiscReport:
    d = discriminant(f)
    ld = f.leading * d
    return DiscReport(d, ld, _ints.omega(ld) if ld != 0 else None)


def reduce_mod(f: ZPoly, p: int) -> FpPoly:
    """Coefficient-wise reduction; the degree drops when p divides a_n."""
    return fp_normalize(f.coeffs, p)


def gal_in_an(f: ZPoly) -> bool:
    """Square-discriminant criterion: the Galois group of a separable f acts
    by even permutations exactly when Disc(f) is a nonzero perfect square.
    Reducible separable polynomials are included on purpose."""
    d = discriminant(f)
    return d != 0 and _ints.is_perfect_square(d)


def enumerate_box(n: int, H: int, monic: bool = False,
                  budget: int | None = DEFAULT_BOX_BUDGET) -> Iterator[ZPoly]:
    """All lattice polynomials of height <= H: the monic slice fixes a_n = 1,
    the general box requires a_n != 0.  Constant term varies fastest."""
    if n < 1 or H < 0:
        raise ValueError("need n >= 1 and H >= 0")
    width = 2 * H + 1
    count = width ** n if monic else width ** n * 2 * H
    if budget is not None and count > budget:
        raise BudgetExceededError(f"box of {count} lattice points exceeds budget {budget}")
    span = range(-H, H + 1)
    if monic:
        for vec in product(span, repeat=n):
            yield ZPoly(vec[::-1] + (1,), n, True)
    else:
        leads = [a for a in span if a != 0]
        for lead in leads:
            for vec in product(span, repeat=n):
                yield ZPoly(vec[::-1] + (lead,), n, False)


# ---------------------------------------------------------------------------
# multiplicative number theory surface
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TauOmegaIdentity:
    lhs: int  # 2^omega(lcm(d1, d2))
    rhs: int  # tau(d1) tau(d2) / tau(gcd(d1, d2))


def tau_mu_sqfree(d1: int, d2: int) -> TauOmegaIdentity:
    """Both sides of 2^omega([d1,d2]) = tau(d1) tau(d2) / tau((d1,d2)) for
    squarefree positive d1, d2; they must agree."""
    if d1 < 1 or d2 < 1 or not _ints.is_squarefree(d1) or not _ints.is_squarefree(d2):
        raise ValueError("inputs must be squarefree positive integers")
    left = 2 ** _ints.omega(lcm(d1, d2)) if lcm(d1, d2) > 1 else 1
    num = _ints.tau(d1) * _ints.tau(d2)
    den = _ints.tau(math.gcd(d1, d2))
    if num % den:
        raise ArithmeticError("divisor identity produced a non-integer")
    return TauOmegaIdentity(left, num // den)


# ---------------------------------------------------------------------------
# vectorized cubic scans
# ---------------------------------------------------------------------------

def _disc3_monic(b, c, d):
    # x^3 + b x^2 + c x + d
    return (18 * b * c * d - 4 * b ** 3 * d + b ** 2 * c ** 2
            - 4 * c ** 3 - 27 * d ** 2)


def _disc3_general(a, b, c, d):
    # a x^3 + b x^2 + c x + d
    return (18 * a * b * c * d - 4 * b ** 3 * d + b ** 2 * c ** 2
            - 4 * a * c ** 3 - 27 * a ** 2 * d ** 2)


def _cubic_fastpath_safe(R: int, monic: bool) -> bool:
    # int64 bound on |disc| over the box, with headroom
    worst = (18 * R ** 4 + 4 * R ** 4 + R ** 4 + 4 * R ** 4 + 27 * R ** 4) if not monic \
        else (18 * R ** 3 + 4 * R ** 4 + R ** 4 + 4 * R ** 3 + 27 * R ** 2)
    return worst < 2 ** 62


def square_disc_scan(n: int, R: int, monic: bool,
                     budget: int | None = DEFAULT_BOX_BUDGET):
    """Scan the height-R box for polynomials with square nonzero discriminant.

    Returns (survivors, zero_disc_count) where survivors is a list of
    (coeffs, disc) pairs in enumeration order.  Cubic boxes go through the
    vectorized closed form; other degrees fall back to the exact
    per-polynomial route.
    """
    if n == 3 and _cubic_fastpath_safe(R, monic):
        return _square_disc_scan_cubic(R, monic, budget)
    survivors = []
    zero_count = 0
    for f in enumerate_box(n, R, monic, budget=budget):
        d = discriminant(f)
        if d == 0:
            zero_count += 1
        elif _ints.is_perfect_square(d):
            survivors.append((f.coeffs, d))
    return survivors, zero_count


def _square_disc_scan_cubic(R: int, monic: bool, budget: int | None):
    width = 2 * R + 1
    count = width ** 3 if monic else width ** 3 * 2 * R
    if budget is not None and count > budget:
        raise BudgetExceededError(f"box of {count} lattice points exceeds budget {budget}")
    span = np.arange(-R, R + 1, dtype=np.int64)
    survivors = []
    zero_count = 0
    leads = [None] if monic else [a for a in span.tolist() if a != 0]
    # slab over (leading coefficient, a_2); vectorize over (a_1, a_0)
    c_grid, d_grid = np.meshgrid(span, span, indexing="ij")
    for lead in leads:
        for b in span.tolist():
            if monic:
                disc = _disc3_monic(np.int64(b), c_grid, d_grid)
            else:
                disc = _disc3_general(np.int64(lead), np.int64(b), c_grid, d_grid)
            zero_count += int(np.count_nonzero(disc == 0))
            sq = _ints.square_mask(disc)
            for ci, di in zip(*np.nonzero(sq)):
                coeffs = (int(d_grid[ci, di]), int(c_grid[ci, di]), b,
                          1 if monic else lead)
                survivors.append((coeffs, int(disc[ci, di])))
    return survivors, zero_count


def disc_values_monic3(b: np.ndarray, c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Vectorized monic-cubic discriminants (int64 inputs)."""
    return _disc3_monic(b, c, d)
