"""Integer helpers shared across the package: primality, factoring, and the
classical multiplicative functions (omega, tau, mu) at desk scale.

Everything here is exact.  Scalar trial division uses a 2/3/5 wheel, and
the scalar `is_prime` is Miller-Rabin over the first twelve primes, which
is deterministic below 3.3 * 10**24, far beyond the int64 range.

The batch counter `omega_batch` has two primality domains.  Cofactors
below `INT64_MR_LIMIT` = 2**31 are tested with a vectorized int64
Miller-Rabin over the bases 2, 7, 61, deterministic below 4,759,123,141
(Jaeschke, "On strong pseudoprimes to several bases", Math. Comp. 1993);
the limit is 2**31 rather than that bound so that the product of two
residues always fits in an int64.  Larger cofactors go through the scalar
`is_prime`.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

# Deterministic Miller-Rabin witness set for n < 3.3 * 10**24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Gap pattern of the 2/3/5 wheel, starting from 7.
_WHEEL = (4, 2, 4, 2, 4, 6, 2, 6)

# Cofactors below this take the int64 Miller-Rabin: residues stay below
# 2**31, so every product of two residues fits in an int64.
INT64_MR_LIMIT = 2 ** 31

# Strong-pseudoprime bases deterministic below 4,759,123,141 (Jaeschke 1993),
# which covers every odd value below INT64_MR_LIMIT.
_INT64_MR_BASES = np.array([2, 7, 61], dtype=np.int64)

_ROOT_MAX = 3_037_000_499  # isqrt(2**63 - 1): the largest root of an int64 square


def is_prime(m: int) -> bool:
    """Deterministic primality test (Miller-Rabin with fixed witnesses)."""
    if m < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if m % p == 0:
            return m == p
    d = m - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(r - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def primes_up_to(limit: int) -> tuple[int, ...]:
    """All primes <= limit, by sieve of Eratosthenes."""
    if limit < 2:
        return ()
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = False
    return tuple(int(p) for p in np.nonzero(flags)[0])


def _trial_division(m: int, limit: int | None = None) -> tuple[list[tuple[int, int]], int]:
    """(pairs, rest) for |m| by 2/3/5-wheel trial division: the ascending
    (p, e) of the primes divided out, and the cofactor they leave.  Division
    stops once p * p > rest, so rest is 1 or a prime, or after the last
    p <= limit; a rest above the limit has no prime factor <= limit."""
    m = abs(m)
    if m == 0:
        raise ValueError("zero has no factorization")
    out = []
    # 2, 3, 5, 7, then the wheel gaps
    p, gaps = 2, itertools.chain((1, 2, 2), itertools.cycle(_WHEEL))
    while p * p <= m and (limit is None or p <= limit):
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += next(gaps)
    return out, m


def _factor(m: int) -> list[tuple[int, int]]:
    """Ascending (p, e) pairs of |m| by 2/3/5-wheel trial division."""
    out, rest = _trial_division(m)
    return out + [(rest, 1)] if rest > 1 else out


def prime_factors(m: int) -> tuple[int, ...]:
    """Distinct prime divisors of |m|, ascending."""
    return tuple(p for p, _ in _factor(m))


def omega(m: int) -> int:
    """Number of distinct prime divisors of |m|; rejects m = 0."""
    if m == 0:
        raise ValueError("omega(0) is undefined")
    return len(prime_factors(m))


def mobius(m: int) -> int:
    """Mobius function of a positive integer."""
    if m <= 0:
        raise ValueError("mobius: argument must be positive")
    pairs = _factor(m)
    return 0 if any(e > 1 for _, e in pairs) else (-1) ** len(pairs)


def is_squarefree(m: int) -> bool:
    """Squarefreeness of |m| (0 is not squarefree).  Each prime p with
    p^3 <= the cofactor left is divided out once; the cofactor then has at
    most two prime factors, so it is non-squarefree exactly when it is a
    perfect square > 1.  The rule `omega_batch` uses, at trial division to
    cbrt(|m|) rather than `mobius`'s sqrt(|m|)."""
    m = abs(m)
    if m == 0:
        return False
    p, gaps = 2, itertools.chain((1, 2, 2), itertools.cycle(_WHEEL))
    while p * p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return False
        p += next(gaps)
    return m == 1 or not is_perfect_square(m)


def tau(m: int) -> int:
    """Number of divisors of |m| >= 1."""
    return math.prod(e + 1 for _, e in _factor(m))


@lru_cache(maxsize=None)
def squarefree_up_to(limit: int) -> tuple[int, ...]:
    """Squarefree integers in [1, limit], ascending."""
    return tuple(d for d in range(1, limit + 1) if mobius(d) != 0)


def is_perfect_square(m: int) -> bool:
    """Exact test; negative numbers are never squares."""
    if m < 0:
        return False
    r = math.isqrt(m)
    return r * r == m


def square_mask(vals: np.ndarray) -> np.ndarray:
    """Exact perfect-square mask for an int64 array (negatives excluded), on
    all of int64: the candidates are the float root, at least 1, capped at
    _ROOT_MAX - 1, and its neighbours, so none squares past 2^63 - 1 and
    wraps (near 2^63 the float root plus one would)."""
    mask = vals > 0
    out = np.zeros(vals.shape, dtype=bool)
    if not mask.any():
        return out
    pos = vals[mask]
    root = np.floor(np.sqrt(pos.astype(np.float64))).astype(np.int64)
    np.minimum(root, _ROOT_MAX - 1, out=root)
    hit = np.zeros(pos.shape, dtype=bool)
    for delta in (-1, 0, 1):  # guard against float rounding at the boundary
        r = root + delta
        hit |= r * r == pos
    out[mask] = hit
    return out


def _sorted_runs(vals: np.ndarray, size: int, shift: int = 0):
    """Passes (lo, hi, new) over a sorted int64 array: vals[lo:hi] holds
    at least `size` entries, or the rest, and ends where a run of equal
    `vals >> shift` ends; the bool mask `new` marks its runs' starts.  Only
    vals[lo:] is read, so the caller may overwrite vals[:hi] between passes."""
    lo, k, low_bits = 0, vals.size, (1 << shift) - 1
    while lo < k:
        hi = k if lo + size >= k else lo + int(
            np.searchsorted(vals[lo:], vals[lo + size - 1] | low_bits, "right"))
        run = vals[lo:hi] >> shift if shift else vals[lo:hi]
        new = np.empty(run.size, dtype=bool)
        new[0] = True
        np.not_equal(run[1:], run[:-1], out=new[1:])
        yield lo, hi, new
        lo = hi


def _is_prime_int64(c: np.ndarray) -> np.ndarray:
    """Primality mask for a 1-D int64 array of odd values in (1, INT64_MR_LIMIT):
    strong-probable-prime tests to the bases 2, 7, 61 at once, exact there."""
    d = c - 1
    low = d & -d
    s = np.frexp(low.astype(np.float64))[1] - 1  # exact: low is a power of two
    d //= low
    base = _INT64_MR_BASES[:, None] % c  # one row per base
    skip = base == 0  # a base divisible by c says nothing; only c = 7, 61
    x = np.ones_like(base)
    while True:  # x = base**d mod c, right-to-left binary powering
        odd = (d & 1).astype(bool)
        x = np.where(odd, x * base % c, x)
        d >>= 1
        if not d.any():
            break
        base = base * base % c
    cm1 = c - 1
    ok = skip | (x == 1) | (x == cm1)
    for r in range(1, int(s.max())):
        x = x * x % c
        ok |= (x == cm1) & (r < s)
    return ok.all(axis=0)


def omega_batch(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized distinct-prime counts and squarefree flags for an array of
    nonzero int64 values.

    Sorts the |v|, unless they already ascend, and factors each distinct
    one once per call, by trial division with all primes up to
    cbrt(max |v|).  After the first division by p, p is divided out again
    only from the values it divided, a set that shrinks each step.  Each remaining cofactor then has at most two
    prime factors and is resolved exactly as 1, p^2 (exact square test), p
    or p*q.  Cofactors below INT64_MR_LIMIT = 2**31 take the vectorized
    int64 Miller-Rabin over bases 2, 7, 61, deterministic below
    4,759,123,141 (Jaeschke 1993); larger ones take the scalar `is_prime`.
    Returns the pair (omega, squarefree_mask), both in the input's shape;
    the mask comes from the same trial division at no extra pass.  Memory:
    a few int64 arrays the size of the input, and per Miller-Rabin
    cofactor a few int64 rows of three bases.
    """
    shape = np.shape(values)
    vals = np.abs(np.asarray(values, dtype=np.int64)).ravel()
    if vals.size == 0:
        return np.zeros(shape, dtype=np.int64), np.ones(shape, dtype=bool)
    # count_almost_prime's groups come sorted: no argsort, no scatter back
    order = None if np.all(vals[1:] >= vals[:-1]) else vals.argsort()
    if order is not None:
        vals = vals[order]
    if vals[0] == 0:
        raise ValueError("omega_batch: zero entry")
    # factor each distinct value once; its run of equal values shares the result
    (_lo, _hi, new), = _sorted_runs(vals, vals.size)
    starts = np.flatnonzero(new)
    rem = vals[starts]
    runs = np.diff(starts, append=vals.size)
    del vals, new, starts
    counts = np.zeros(rem.shape, dtype=np.int64)
    sqfree = np.ones(rem.shape, dtype=bool)
    bound = max(2, round(int(rem[-1]) ** (1 / 3)) + 2)
    for p in primes_up_to(bound):
        # q * p == rem tests divisibility: division by a scalar is much
        # cheaper than numpy's int64 remainder.
        q = rem // p
        hit = q * p == rem
        if not hit.any():
            continue
        counts += hit
        # divide p out again only where it divided: the set shrinks each step
        idx = np.flatnonzero(hit)
        q = q[idx]
        while True:
            rem[idx] = q
            sub = q // p
            again = sub * p == q
            if not again.any():
                break
            idx, q = idx[again], sub[again]
            sqfree[idx] = False
    # Cofactors now have no prime factor <= bound > cbrt(max): 1, p, p^2 or
    # p*q, and all are odd because 2 is always trial-divided.
    square = square_mask(rem) & (rem > 1)
    counts += square
    sqfree &= ~square
    idx = np.nonzero((rem > 1) & ~square)[0]
    cof = rem[idx]
    del rem
    # A composite cofactor is at least (bound + 1)**2, so smaller ones are prime.
    prime = cof <= bound * (bound + 2)
    test = ~prime & (cof < INT64_MR_LIMIT)
    if test.any():
        prime[test] = _is_prime_int64(cof[test])
    for i in np.nonzero(cof >= INT64_MR_LIMIT)[0]:
        prime[i] = is_prime(int(cof[i]))
    counts[idx] += np.where(prime, 1, 2)
    # each value's result fills its run of the sorted input, in input order
    om, flags = np.repeat(counts, runs), np.repeat(sqfree, runs)
    if order is not None:  # scatter back
        om[order], flags[order] = om.copy(), flags.copy()
    return om.reshape(shape), flags.reshape(shape)
