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


def prime_factors(m: int) -> tuple[int, ...]:
    """Distinct prime divisors of |m|, ascending.  Wheel trial division."""
    m = abs(m)
    if m == 0:
        raise ValueError("prime_factors: zero has no factorization")
    out = []
    for p in (2, 3, 5):
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
    q = 7
    i = 0
    while q * q <= m:
        if m % q == 0:
            out.append(q)
            while m % q == 0:
                m //= q
        q += _WHEEL[i]
        i = (i + 1) % len(_WHEEL)
    if m > 1:
        out.append(m)
    return tuple(out)


def omega(m: int) -> int:
    """Number of distinct prime divisors of |m|; rejects m = 0."""
    if m == 0:
        raise ValueError("omega(0) is undefined")
    m = abs(m)
    if m == 1:
        return 0
    return len(prime_factors(m))


def mobius(m: int) -> int:
    """Mobius function of a positive integer."""
    if m <= 0:
        raise ValueError("mobius: argument must be positive")
    if m == 1:
        return 1
    mu = 1
    for p in (2, 3, 5):
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            mu = -mu
    q = 7
    i = 0
    while q * q <= m:
        if m % q == 0:
            m //= q
            if m % q == 0:
                return 0
            mu = -mu
        q += _WHEEL[i]
        i = (i + 1) % len(_WHEEL)
    if m > 1:
        mu = -mu
    return mu


def is_squarefree(m: int) -> bool:
    if m == 0:
        return False
    return mobius(abs(m)) != 0


def tau(m: int) -> int:
    """Number of divisors of |m| >= 1."""
    m = abs(m)
    if m == 0:
        raise ValueError("tau(0) is undefined")
    count = 1
    for p in prime_factors(m):
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        count *= e + 1
    return count


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
    """Exact perfect-square mask for an int64 array (negatives excluded)."""
    mask = vals > 0
    out = np.zeros(vals.shape, dtype=bool)
    if not mask.any():
        return out
    pos = vals[mask]
    root = np.floor(np.sqrt(pos.astype(np.float64))).astype(np.int64)
    hit = np.zeros(pos.shape, dtype=bool)
    for delta in (-1, 0, 1):  # guard against float rounding at the boundary
        r = root + delta
        hit |= (r >= 0) & (r * r == pos)
    out[mask] = hit
    return out


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


def omega_batch(values: np.ndarray, track_squarefree: bool = False):
    """Vectorized distinct-prime counts for an array of nonzero int64 values.

    Factors each distinct |v| once, by trial division with all primes up to
    cbrt(max |v|); each remaining cofactor then has at most two prime
    factors and is resolved exactly as 1, p^2 (exact square test), p or
    p*q.  Cofactors below INT64_MR_LIMIT = 2**31 take the vectorized int64
    Miller-Rabin over bases 2, 7, 61, deterministic below 4,759,123,141
    (Jaeschke 1993); larger ones take the scalar `is_prime`.  Returns the
    omega array in the input's shape, or a pair (omega, squarefree_mask)
    when track_squarefree is set.
    """
    vals = np.abs(np.asarray(values, dtype=np.int64))
    if vals.size == 0:
        empty = np.zeros(vals.shape, dtype=np.int64)
        return (empty, np.ones(vals.shape, dtype=bool)) if track_squarefree else empty
    if np.any(vals == 0):
        raise ValueError("omega_batch: zero entry")
    rem, inv = np.unique(vals.ravel(), return_inverse=True)
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
        while True:
            np.copyto(rem, q, where=hit)
            q = rem // p
            hit = q * p == rem
            if not hit.any():
                break
            sqfree &= ~hit
    # Cofactors now have no prime factor <= bound > cbrt(max): 1, p, p^2 or
    # p*q, and all are odd because 2 is always trial-divided.
    square = square_mask(rem) & (rem > 1)
    counts += square
    sqfree &= ~square
    idx = np.nonzero((rem > 1) & ~square)[0]
    cof = rem[idx]
    # A composite cofactor is at least (bound + 1)**2, so smaller ones are prime.
    prime = cof <= bound * (bound + 2)
    test = ~prime & (cof < INT64_MR_LIMIT)
    if test.any():
        prime[test] = _is_prime_int64(cof[test])
    for i in np.nonzero(cof >= INT64_MR_LIMIT)[0]:
        prime[i] = is_prime(int(cof[i]))
    counts[idx] += np.where(prime, 1, 2)
    counts = counts[inv].reshape(vals.shape)
    if track_squarefree:
        return counts, sqfree[inv].reshape(vals.shape)
    return counts
