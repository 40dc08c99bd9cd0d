"""The distinct-degree-split oracle for polynomials over prime fields F_p:
exact arithmetic, squarefreeness, distinct-degree splitting, the Mobius
function, and the parity ("odd polynomial") predicate.

Representation
--------------
A polynomial a_0 + a_1 x + ... + a_n x^n is a tuple (a_0, ..., a_n) of
residues in [0, p), lowest degree first, with trailing zeros trimmed; the
zero polynomial is the empty tuple and has degree None.  `FpPoly` wraps a
canonical tuple together with its modulus.  The tuple-level helpers are
prefixed `_`.

Factor degrees are obtained by distinct-degree splitting with iterated
Frobenius maps (gcds against x^(p^k) - x); full factor recovery is never
needed, since the Mobius function, the factorization type, and parity only
depend on how many factors of each degree there are.  The package never
takes this route: its weight tables and `sieve.nu_weight` classify each
polynomial from its discriminant and `charsum._chi`, the discriminant
taken by degree (the generated closed form `zpoly._disc` for n <= 5 and
at p = 2, the resultant `charsum._disc_mod_p` for odd p and n >= 6).
The test suite keeps this split as the independent oracle of those local
weights, on both sides of that crossover, and of acceptance criterion 01.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator, Sequence

from polysieve._ints import is_prime
from polysieve.errors import BudgetExceededError

DEFAULT_ENUM_BUDGET = 50_000_000


# ---------------------------------------------------------------------------
# tuple-level arithmetic (coefficients low -> high, trimmed)
# ---------------------------------------------------------------------------

def _trim(coeffs: Sequence[int]) -> tuple[int, ...]:
    i = len(coeffs)
    while i > 0 and coeffs[i - 1] == 0:
        i -= 1
    return tuple(coeffs[:i])


def _deg(a: tuple[int, ...]) -> int:
    # degree of a trimmed nonzero tuple
    return len(a) - 1


def _mul(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def _divmod(a: tuple[int, ...], b: tuple[int, ...], p: int):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    q = [0] * max(0, len(a) - db)
    for i in range(len(r) - 1, db - 1, -1):
        c = r[i]
        if c == 0:
            continue
        f = c * inv % p
        q[i - db] = f
        for j in range(db + 1):
            r[i - db + j] = (r[i - db + j] - f * b[j]) % p
    return _trim(q), _trim(r)


def _mod(a, b, p):
    return _divmod(a, b, p)[1]


def _monic(a: tuple[int, ...], p: int) -> tuple[int, ...]:
    if not a or a[-1] == 1:
        return a
    inv = pow(a[-1], -1, p)
    return tuple(c * inv % p for c in a)


def _gcd(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    while b:
        a, b = b, _mod(a, b, p)
    return _monic(a, p)


def _deriv(a: tuple[int, ...], p: int) -> tuple[int, ...]:
    return _trim(tuple(i * a[i] % p for i in range(1, len(a))))


def _powmod(base: tuple[int, ...], e: int, mod: tuple[int, ...], p: int) -> tuple[int, ...]:
    result = (1,)
    base = _mod(base, mod, p)
    while e:
        if e & 1:
            result = _mod(_mul(result, base, p), mod, p)
        base = _mod(_mul(base, base, p), mod, p)
        e >>= 1
    return result


def _is_squarefree(a: tuple[int, ...], p: int) -> bool:
    if not a:
        raise ValueError("squarefreeness of the zero polynomial is undefined")
    if len(a) == 1:
        return True
    d = _deriv(a, p)
    if not d:
        # derivative vanished in characteristic p: a is a p-th power
        return False
    return len(_gcd(a, d, p)) == 1


def _ddf(a: tuple[int, ...], p: int) -> list[tuple[int, tuple[int, ...]]]:
    # distinct-degree split of a squarefree polynomial; returns (k, g_k) pairs
    g = _monic(a, p)
    out = []
    if len(g) == 1:
        return out
    h = _mod((0, 1), g, p)
    k = 0
    while _deg(g) >= 2 * (k + 1):
        k += 1
        h = _powmod(h, p, g, p)
        hx = list(h) + [0] * max(0, 2 - len(h))
        hx[1] = (hx[1] - 1) % p
        d = _gcd(g, _trim(hx), p)
        if len(d) > 1:
            out.append((k, d))
            g = _divmod(g, d, p)[0]
            if len(g) == 1:
                return out
            h = _mod(h, g, p)
    if len(g) > 1:
        out.append((_deg(g), g))
    return out


def _mobius(a: tuple[int, ...], p: int) -> int:
    if not a:
        raise ValueError("Mobius function of the zero polynomial is undefined")
    if len(a) == 1:
        return 1
    if not _is_squarefree(a, p):
        return 0
    r = sum(_deg(g) // k for k, g in _ddf(a, p))
    return -1 if r % 2 else 1


def _is_odd(a: tuple[int, ...], p: int) -> bool:
    if not a:
        raise ValueError("parity of the zero polynomial is undefined")
    if len(a) == 1 or not _is_squarefree(a, p):
        return False
    even_factors = sum(_deg(g) // k for k, g in _ddf(a, p) if k % 2 == 0)
    return even_factors % 2 == 1


# ---------------------------------------------------------------------------
# public wrapper type and operations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FpPoly:
    """Canonical polynomial over F_p: trimmed coefficients in [0, p)."""

    p: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if self.coeffs and (self.coeffs[-1] == 0 or not all(0 <= c < self.p for c in self.coeffs)):
            raise ValueError("FpPoly requires trimmed coefficients in [0, p)")

    @property
    def degree(self) -> int | None:
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __str__(self):
        if not self.coeffs:
            return f"0 (mod {self.p})"
        terms = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                base = "x" if i == 1 else f"x^{i}"
                terms.append(base if c == 1 else f"{c}{base}")
        return " + ".join(terms) + f" (mod {self.p})"


def fp_normalize(raw_coeffs: Sequence[int], p: int) -> FpPoly:
    """Reduce an integer coefficient vector mod a prime p into canonical form."""
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    return FpPoly(p, _trim(tuple(c % p for c in raw_coeffs)))


def _check_same_field(f: FpPoly, g: FpPoly):
    if f.p != g.p:
        raise ValueError("operands live over different prime fields")


def fp_gcd(f: FpPoly, g: FpPoly) -> FpPoly:
    """Monic greatest common divisor; rejects the all-zero input pair."""
    _check_same_field(f, g)
    if f.is_zero and g.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    return FpPoly(f.p, _gcd(f.coeffs, g.coeffs, f.p))


def is_squarefree_fp(f: FpPoly) -> bool:
    """True iff f has no repeated irreducible factor.

    Handles the characteristic-p corner: a vanishing derivative on a
    nonconstant polynomial means f is a p-th power, hence not squarefree.
    """
    return _is_squarefree(f.coeffs, f.p)


def distinct_degree_split(f: FpPoly) -> list[tuple[int, FpPoly]]:
    """Split a squarefree f into (k, g_k) with g_k the product of its
    degree-k irreducible factors; the g_k multiply back to monic(f)."""
    if f.is_zero:
        raise ValueError("cannot split the zero polynomial")
    if not is_squarefree_fp(f):
        raise ValueError("distinct-degree split requires squarefree input")
    return [(k, FpPoly(f.p, g)) for k, g in _ddf(f.coeffs, f.p)]


def factorization_type(f: FpPoly) -> tuple[int, ...]:
    """Multiset of irreducible-factor degrees of a squarefree f, as a sorted
    tuple; the entries sum to deg f."""
    split = distinct_degree_split(f)
    degrees: list[int] = []
    for k, g in split:
        degrees.extend([k] * (g.degree // k))
    return tuple(sorted(degrees))


def mobius_fp(f: FpPoly) -> int:
    """Mobius function over F_p[x]: 0 on non-squarefree f, else (-1)^r with
    r the number of irreducible factors.  Unit factors are ignored."""
    return _mobius(f.coeffs, f.p)


def mobius_pn(f: FpPoly, n: int) -> int:
    """Degree-gated Mobius value: mobius_fp(f) when deg f = n, else 0."""
    if n < 1:
        raise ValueError("target degree must be >= 1")
    if f.degree != n:
        return 0
    return mobius_fp(f)


def is_odd_poly(f: FpPoly) -> bool:
    """True iff f is squarefree and has an odd number of even-degree
    irreducible factors (so its factorization type is an odd permutation)."""
    return _is_odd(f.coeffs, f.p)


def enumerate_fp(p: int, n: int, monic: bool = False,
                 budget: int | None = DEFAULT_ENUM_BUDGET) -> Iterator[FpPoly]:
    """Yield each element of V_n(F_p) (all degree <= n), or of its monic
    degree-n slice, exactly once.

    Order is lexicographic on coefficient vectors with the constant term
    varying fastest, which keeps shards contiguous in the leading
    coefficients.
    """
    if not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    if n < 0 or (monic and n < 1):
        raise ValueError("invalid degree")
    count = p ** n if monic else p ** (n + 1)
    if budget is not None and count > budget:
        raise BudgetExceededError(f"enumeration of {count} polynomials exceeds budget {budget}")
    if monic:
        for vec in product(range(p), repeat=n):
            # vec = (a_{n-1}, ..., a_0); emit canonical low -> high
            yield FpPoly(p, vec[::-1] + (1,))
    else:
        for vec in product(range(p), repeat=n + 1):
            yield FpPoly(p, _trim(vec[::-1]))
