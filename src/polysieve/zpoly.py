"""Integer polynomials: exact discriminants, the square-discriminant test
for Galois group inside the alternating group, and height-box enumeration.

A polynomial is its coefficient sequence (a_0, ..., a_n), low to high;
the box walker yields tuples.  Every entry point that does exact
arithmetic on coefficients takes them through `_coeffs`, which widens
each integer (numpy's included) to a Python int and refuses anything else.

Discriminants are exact integers.  Degrees 2 to 6 evaluate the generated
closed forms of `_discforms` (regenerated by tools/gen_discforms.py) in
Python ints; other degrees compute (-1)^(n(n-1)/2) * Res(f, f') / a_n
with the resultant taken as a fraction-free (Bareiss) determinant of the
Sylvester matrix, which the test suite also keeps as the oracle of the
closed forms.

One enumerator, `_disc_blocks`, evaluates discriminants over a height box
for every scan: the square-discriminant scan here and the almost-prime
histogram and counts; the histogram scans only the monic half box
a_{n-1} >= 0 (`almostprime.build_disc_sequence` says why).  Cubic boxes
run the n = 3 closed form vectorized over int64 slabs; other degrees walk
the box point by point through `discriminant`, in blocks.  Values are
int64 and there is no Python-integer fallback: a box whose bound
`_ldisc_abs_bound` on |LDisc| reaches 2^63 is refused with
BudgetExceededError before any work.
"""

from __future__ import annotations

import math
import operator
from itertools import islice, product
from typing import Iterator, Sequence

import numpy as np

from . import _ints
from ._discforms import DISC, TERMS, disc3
from .errors import DEFAULT_BUDGET, BudgetExceededError, charge


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


def _disc_sylvester(coeffs: Sequence[int]) -> int:
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


def _disc(coeffs: Sequence[int]) -> int:
    """Exact discriminant of a_0 + ... + a_n x^n (n >= 1, a_n != 0) from
    Python ints: the generated closed form for 2 <= n <= 6, the Sylvester
    route otherwise."""
    form = DISC.get(len(coeffs) - 1)
    return form(*coeffs) if form is not None else _disc_sylvester(coeffs)


def _coeffs(f: Sequence[int]) -> tuple[int, ...]:
    """f as a tuple of Python ints, low to high.  Every integer type
    (numpy's included) is widened, so no fixed-width value reaches the
    exact arithmetic; anything else, a float too, raises TypeError."""
    return tuple(map(operator.index, f))


def discriminant(f: Sequence[int]) -> int:
    """Exact discriminant of f = (a_0, ..., a_n); requires n >= 1 and
    a_n != 0."""
    c = _coeffs(f)
    if len(c) < 2:
        raise ValueError("discriminant requires degree >= 1")
    if c[-1] == 0:
        raise ValueError("discriminant requires a nonzero leading coefficient")
    return _disc(c)


def ldisc(f: Sequence[int]) -> int:
    """Leading coefficient times discriminant."""
    c = _coeffs(f)
    return c[-1] * discriminant(c)


def gal_in_an(f: Sequence[int]) -> bool:
    """Square-discriminant criterion: the Galois group of a separable f acts
    by even permutations exactly when Disc(f) is a nonzero perfect square.
    Reducible separable polynomials are included on purpose."""
    d = discriminant(f)
    return d != 0 and _ints.is_perfect_square(d)


def enumerate_box(n: int, H: int, monic: bool = False) -> Iterator[tuple[int, ...]]:
    """Coefficient tuples (a_0, ..., a_n) of all lattice polynomials of
    height <= H: the monic slice fixes a_n = 1, the general box requires
    a_n != 0.  Constant term varies fastest; scans charge it by `box_cost`."""
    if n < 1 or H < 0:
        raise ValueError("need n >= 1 and H >= 0")
    yield from _box_tuples(n, H, monic, False)


def _box_tuples(n: int, H: int, monic: bool, half: bool) -> Iterator[tuple[int, ...]]:
    # half (monic only): a_{n-1}, the slowest coordinate, runs over 0..H
    span = range(-H, H + 1)
    top = range(H + 1) if half else span
    for lead in [1] if monic else [a for a in span if a != 0]:
        for vec in product(top, *[span] * (n - 1)):
            yield vec[::-1] + (lead,)


# ---------------------------------------------------------------------------
# discriminants over a box
# ---------------------------------------------------------------------------

_BLOCK = 4096  # polynomials per block on the point-by-point route


def disc_values_monic3(b: np.ndarray, c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Vectorized discriminants of x^3 + b x^2 + c x + d (int64 inputs)."""
    return disc3(d, c, b, 1)


def _ldisc_bound_sq(n: int, R: int, monic: bool) -> int:
    """Square of Hadamard's bound ||f||_2^(n-1) ||f'||_2^n on
    |LDisc f| = |Res(f, f')| over the height-R box: the Sylvester matrix
    has n-1 rows of f and n rows of f'."""
    lead_sq = 1 if monic else R * R
    f_sq = lead_sq + n * R * R
    df_sq = n * n * lead_sq + R * R * sum(i * i for i in range(1, n))
    return f_sq ** (n - 1) * df_sq ** n


def _ldisc_abs_bound(n: int, R: int, monic: bool) -> int:
    """Upper bound on |LDisc f| = |a_n Disc f| over the height-R box.

    For 2 <= n <= 6 it is sum |c| * R^degree over the terms of
    `_discforms.TERMS[n]` (a_n's exponent dropped when monic), times R in
    general mode: the bound every intermediate of the Horner nest stays
    within.  Other degrees take Hadamard's bound, rounded up."""
    if n not in TERMS:
        return math.isqrt(_ldisc_bound_sq(n, R, monic)) + 1
    total = 0
    for row in TERMS[n]:
        c, *e = map(int, row.split())
        total += abs(c) * R ** sum(e[:n] if monic else e)
    return total if monic else total * R


def _point_cost(n: int) -> int:
    """Budget units per box point: 1 on the vectorized cubic route, the
    number of terms of the closed form for the other n <= 6, and the cost
    (2n-1)^3 of a Bareiss determinant on the Sylvester matrix beyond."""
    if n == 3:
        return 1
    return len(TERMS[n]) if n in TERMS else (2 * n - 1) ** 3


def box_cost(n: int, R: int, monic: bool) -> tuple[int, int]:
    """(points, cost) of the exact discriminants over the height-R box, the
    charge of every box scan: `_point_cost(n)` per point.

    Domain: a box whose `_ldisc_abs_bound` reaches 2^63 is refused
    (|Disc| <= |LDisc|, and every intermediate of a closed form is
    within the bound)."""
    bound = _ldisc_abs_bound(n, R, monic)
    if bound >= 2 ** 63:
        raise BudgetExceededError(
            f"degree-{n} box of height {R}: |LDisc| may reach "
            f"{bound}, beyond the int64 range")
    points = (2 * R + 1) ** n * (1 if monic else 2 * R)
    return points, points * _point_cost(n)


def _disc_blocks(n: int, R: int, monic: bool, budget: int | None, *,
                 half: bool = False):
    """Yield (coeffs, discs) int64 blocks over the height-R box: coeffs
    holds the free coordinates low to high (a_0..a_{n-1} monic, a_0..a_n
    general) in `enumerate_box` order, discs the exact discriminants.

    half (monic only) starts the slowest coordinate a_{n-1} at 0 instead of
    -R: the box points from the slab a_{n-1} = 0 on, in the same order.
    The charge is still the full box's.

    When it is called, before any work or allocation, it refuses a box
    outside the domain of `box_cost` or whose cost exceeds the budget."""
    points, cost = box_cost(n, R, monic)
    charge(cost, budget, f"box of {points} lattice points")
    return _cubic_blocks(R, monic, half) if n == 3 else _point_blocks(n, R, monic, half)


def _point_blocks(n: int, R: int, monic: bool, half: bool):
    dim = n if monic else n + 1
    walk = _box_tuples(n, R, monic, half)
    while True:
        # flat lists of ints: no per-polynomial object outlives its step, so
        # a block adds nothing for the cyclic garbage collector to scan
        coeffs, discs = [], []
        for f in islice(walk, _BLOCK):
            coeffs.extend(f[:dim])
            discs.append(discriminant(f))
        if not discs:
            return
        yield (np.array(coeffs, dtype=np.int64).reshape(-1, dim),
               np.array(discs, dtype=np.int64))


def _cubic_blocks(R: int, monic: bool, half: bool):
    # slab over (a_3, a_2); vectorize over (a_1, a_0)
    span = np.arange(-R, R + 1, dtype=np.int64)
    c_grid, d_grid = (g.ravel() for g in np.meshgrid(span, span, indexing="ij"))
    for a in [1] if monic else [a for a in range(-R, R + 1) if a]:
        for b in range(0 if half else -R, R + 1):
            if monic:
                disc = disc_values_monic3(np.int64(b), c_grid, d_grid)
            else:
                disc = disc3(d_grid, c_grid, np.int64(b), np.int64(a))
            cols = [d_grid, c_grid, np.full(disc.size, b, dtype=np.int64)]
            if not monic:
                cols.append(np.full(disc.size, a, dtype=np.int64))
            # stacked for every caller: skipping it for the histogram measured slower (page faults)
            yield np.stack(cols, axis=1), disc


def square_disc_scan(n: int, R: int, monic: bool,
                     budget: int | None = DEFAULT_BUDGET):
    """Scan the height-R box for polynomials with square nonzero discriminant.

    Returns (coeffs, discs, zero_count): coeffs an int64 (k, n+1) array of
    the survivors' rows a_0..a_n (a_n = 1 included when monic), discs their
    int64 discriminants, both in enumeration order, and zero_count the
    number of vanishing discriminants in the box.
    """
    dim = n if monic else n + 1
    rows, hits = [np.empty((0, dim), dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    zero_count = 0
    for coeffs, discs in _disc_blocks(n, R, monic, budget):
        zero_count += int(np.count_nonzero(discs == 0))
        hit = _ints.square_mask(discs)
        rows.append(coeffs[hit])
        hits.append(discs[hit])
    coeffs = np.concatenate(rows)
    if monic:
        coeffs = np.column_stack((coeffs, np.ones(len(coeffs), dtype=np.int64)))
    return coeffs, np.concatenate(hits), zero_count
