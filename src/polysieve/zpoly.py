"""Integer polynomials: exact discriminants, the square-discriminant test
for Galois group inside the alternating group, height-box enumeration, and
the 2^omega divisor identity.

Discriminants are computed as (-1)^(n(n-1)/2) * Res(f, f') / a_n with the
resultant taken as a fraction-free (Bareiss) determinant of the Sylvester
matrix, so every value is an exact integer.

One enumerator, `_disc_blocks`, evaluates discriminants over a height box
for every scan: the square-discriminant scan here and the almost-prime
histogram and counts.  Cubic boxes go through the vectorized int64 closed
form, cross-checked against the Sylvester route in the test suite; other
degrees run the Sylvester route in blocks.  Values are int64 and there is
no Python-integer fallback: a box whose Hadamard bound on |LDisc| reaches
2^63 is refused with BudgetExceededError before any work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Iterator, Sequence

import numpy as np

from . import _ints
from .errors import BudgetExceededError

DEFAULT_BOX_BUDGET = 100_000_000


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


def _disc(coeffs: Sequence[int]) -> int:
    """Exact discriminant of a_0 + ... + a_n x^n (n >= 1, a_n != 0):
    (-1)^(n(n-1)/2) * Res(f, f') / a_n."""
    n = len(coeffs) - 1
    if n == 1:
        return 1
    deriv = tuple(i * coeffs[i] for i in range(1, n + 1))
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    quot, rem = divmod(sign * _resultant(coeffs, deriv), coeffs[-1])
    if rem:
        raise ArithmeticError("resultant not divisible by leading coefficient")
    return quot


def discriminant(f: ZPoly) -> int:
    """Exact polynomial discriminant; requires a_n != 0."""
    if f.leading == 0:
        raise ValueError("discriminant requires a nonzero leading coefficient")
    if f.n < 1:
        raise ValueError("discriminant requires degree >= 1")
    return _disc(f.coeffs)


def ldisc(f: ZPoly) -> int:
    """Leading coefficient times discriminant."""
    return f.leading * discriminant(f)


def disc_report(f: ZPoly) -> DiscReport:
    d = discriminant(f)
    ld = f.leading * d
    return DiscReport(d, ld, _ints.omega(ld) if ld != 0 else None)


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
    count = _box_points(n, H, monic)
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
    left = 2 ** _ints.omega(math.lcm(d1, d2))
    num = _ints.tau(d1) * _ints.tau(d2)
    den = _ints.tau(math.gcd(d1, d2))
    if num % den:
        raise ArithmeticError("divisor identity produced a non-integer")
    return TauOmegaIdentity(left, num // den)


# ---------------------------------------------------------------------------
# discriminants over a box
# ---------------------------------------------------------------------------

_BLOCK = 4096  # polynomials per block on the Sylvester route


def _disc3(a, b, c, d):
    # a x^3 + b x^2 + c x + d
    return (18 * a * b * c * d - 4 * b ** 3 * d + b ** 2 * c ** 2
            - 4 * a * c ** 3 - 27 * a ** 2 * d ** 2)


def disc_values_monic3(b: np.ndarray, c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Vectorized monic-cubic discriminants (int64 inputs)."""
    return _disc3(1, b, c, d)


def _ldisc_bound_sq(n: int, R: int, monic: bool) -> int:
    """Square of Hadamard's bound ||f||_2^(n-1) ||f'||_2^n on
    |LDisc f| = |Res(f, f')| over the height-R box: the Sylvester matrix
    has n-1 rows of f and n rows of f'."""
    lead_sq = 1 if monic else R * R
    f_sq = lead_sq + n * R * R
    df_sq = n * n * lead_sq + R * R * sum(i * i for i in range(1, n))
    return f_sq ** (n - 1) * df_sq ** n


def _box_points(n: int, R: int, monic: bool) -> int:
    """Lattice points of the height-R box: a_n = 1 when monic, else a_n != 0."""
    return (2 * R + 1) ** n * (1 if monic else 2 * R)


def box_cost(n: int, R: int, monic: bool) -> tuple[int, int]:
    """(points, cost) of the exact discriminants over the height-R box, the
    charge of every box scan.

    Domain: a box whose Hadamard bound on |LDisc| reaches 2^63 is refused
    (|Disc| <= |LDisc|, and every term of the cubic closed form is smaller
    still).  Cost: 1 per point on the vectorized cubic route, (2n-1)^3 per
    point elsewhere, the cost of a Bareiss determinant on the Sylvester
    matrix."""
    bound_sq = _ldisc_bound_sq(n, R, monic)
    if bound_sq >= 2 ** 126:
        raise BudgetExceededError(
            f"degree-{n} box of height {R}: |LDisc| may reach "
            f"{math.isqrt(bound_sq)}, beyond the int64 range")
    points = _box_points(n, R, monic)
    return points, points if n == 3 else points * (2 * n - 1) ** 3


def _disc_blocks(n: int, R: int, monic: bool, budget: int | None):
    """Yield (coeffs, discs) int64 blocks over the height-R box: coeffs
    holds the free coordinates low to high (a_0..a_{n-1} monic, a_0..a_n
    general) in `enumerate_box` order, discs the exact discriminants.

    When it is called, before any work or allocation, it refuses a box
    outside the domain of `box_cost` or whose cost exceeds the budget."""
    points, cost = box_cost(n, R, monic)
    if budget is not None and cost > budget:
        raise BudgetExceededError(
            f"box of {points} lattice points costs {cost}, over budget {budget}")
    return _cubic_blocks(R, monic) if n == 3 else _bareiss_blocks(n, R, monic, points)


def _bareiss_blocks(n: int, R: int, monic: bool, points: int):
    dim = n if monic else n + 1
    # flat lists of ints: no per-polynomial object outlives its step, so
    # a block adds nothing for the cyclic garbage collector to scan
    coeffs, discs = [], []
    for i, f in enumerate(enumerate_box(n, R, monic, budget=None), 1):
        coeffs.extend(f.coeffs[:dim])
        discs.append(discriminant(f))
        if i % _BLOCK == 0 or i == points:
            yield (np.array(coeffs, dtype=np.int64).reshape(-1, dim),
                   np.array(discs, dtype=np.int64))
            coeffs, discs = [], []


def _cubic_blocks(R: int, monic: bool):
    # slab over (a_3, a_2); vectorize over (a_1, a_0)
    span = np.arange(-R, R + 1, dtype=np.int64)
    c_grid, d_grid = (g.ravel() for g in np.meshgrid(span, span, indexing="ij"))
    for a in [1] if monic else [a for a in range(-R, R + 1) if a]:
        for b in range(-R, R + 1):
            if monic:
                disc = disc_values_monic3(np.int64(b), c_grid, d_grid)
            else:
                disc = _disc3(np.int64(a), np.int64(b), c_grid, d_grid)
            cols = [d_grid, c_grid, np.full(disc.size, b, dtype=np.int64)]
            if not monic:
                cols.append(np.full(disc.size, a, dtype=np.int64))
            yield np.stack(cols, axis=1), disc


def square_disc_scan(n: int, R: int, monic: bool,
                     budget: int | None = DEFAULT_BOX_BUDGET):
    """Scan the height-R box for polynomials with square nonzero discriminant.

    Returns (survivors, zero_disc_count) where survivors is a list of
    (coeffs, disc) pairs in enumeration order, coeffs a_0..a_n including
    the leading coefficient.
    """
    survivors = []
    zero_count = 0
    lead = (1,) if monic else ()
    for coeffs, discs in _disc_blocks(n, R, monic, budget):
        zero_count += int(np.count_nonzero(discs == 0))
        hit = _ints.square_mask(discs)
        for row, d in zip(coeffs[hit].tolist(), discs[hit].tolist()):
            survivors.append((tuple(row) + lead, d))
    return survivors, zero_count
