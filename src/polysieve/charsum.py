"""Fourier analysis of arithmetic weights on polynomial spaces mod d.

Conventions
-----------
The space V_n(Z/dZ) of polynomials of degree <= n is identified with
(Z/dZ)^(n+1) through the coefficient vector (a_0, ..., a_n); its monic
degree-n slice is identified with (Z/dZ)^n through (a_0, ..., a_{n-1}).
A polynomial is that coefficient tuple and a phase u is a sequence of
components mod d, n+1 of them in general mode and n in monic mode.
The pairing is coefficient-wise, <f, u> = sum a_i u_i, and the transform of
a weight psi is

    psi_hat(u) = d^(-dim) * sum_f psi(f) * exp(2*pi*i*<f, u>/d),

with dim = n+1 in general mode and dim = n in monic mode.  This matches
numpy's inverse FFT (positive exponent, 1/size normalization), so full
tables are transformed with `np.fft.ifftn`; a direct-summation evaluator is
kept alongside as the independent oracle.  For squarefree d the transform
factors over the primes dividing d after twisting each coordinate by the
inverse of the complementary CRT cofactor.

The continuous convention used by the Poisson identity is
phi_hat(xi) = integral phi(x) exp(-2*pi*i*<x, xi>) dx; see
docs/fourier-conventions.md for the derivation that ties the two together.

Weight rules
------------
``mobius-half``            (1 + (-1)^(n+1) * mu_{p,n}(f)) / 2, values {0, 1/2, 1}
``squarefree-complement``  1 on non-squarefree monic f, else 0 (monic only)

Each monic table polynomial f of degree n >= 1 over F_p, p prime, is
classified from D = Disc f alone (Pellet 1878, Stickelberger 1897; see
R. G. Swan, Pacific J. Math. 12 (1962)): f is squarefree exactly when
p does not divide D, and then a product of r irreducible factors has
chi(D) = (-1)^(n-r), so mu(f) = (-1)^n * chi(D).  For odd p, chi is the
Legendre symbol (D/p), read by Euler's criterion from D mod p.  At p = 2,
chi is read from the exact integer discriminant D of the {0, 1} lift: an
odd discriminant is 1 mod 4, and chi = +1 when D = 1 (mod 8), -1 when
D = 5 (mod 8).  `_chi` is that one character, shared with
`sieve.nu_weight`.

D comes by degree (`_table_disc`): for n <= 5, and at p = 2 for every n,
it is the exact discriminant of the monic lift from `zpoly._disc` (the
generated closed form up to n = 6, Bareiss beyond), which reduces to
Disc(f mod p) since the discriminant of a monic polynomial is an integer
polynomial in its coefficients; for odd p and n >= 6 it is
`_disc_mod_p`, one Euclidean resultant over F_p.  The cutoff is a
measured crossover, in microseconds per polynomial (4,000 random monic
polynomials, best of 3, 2 vCPU, Python 3.11), Euclid against the closed
form: n = 3 3.8-7.6 vs 0.8-0.9, n = 4 8.0-10.9 vs 1.7-2.1, n = 5
10.9-18.2 vs 8.0-9.0, n = 6 12.2-12.7 vs 31, and at n = 7, where the
closed form is Bareiss, 145.  The whole rule (`_table_disc`,
`_disc_mod_p`, `_chi`, `_mobius`, `_is_squarefree`) lives here; the
test suite checks it against an independent distinct-degree split.

Tables and their transforms are read-only float64 and complex arrays of
shape (p,)^dim, each cached under its key (p, n, mode, rule): every caller
shares them, so a write into one raises.

Every entry point decides its job with two checks before it prices or
builds any table: `_weight_job` admits (n, mode, rule) and gives the
dimension and the canonical rule, and `_modulus_primes` admits a modulus d
for that dimension and gives its primes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from ._ints import _trial_division, is_prime, prime_factors
from .errors import DEFAULT_BUDGET, BudgetExceededError, charge
from .zpoly import _disc

GENERAL = "general"
MONIC = "monic"
RULE_MOBIUS_HALF = "mobius-half"
RULE_SQUAREFREE = "squarefree-complement"
_RULE_ALIASES = {"squarefree": RULE_SQUAREFREE}

_TABLE_SIZE_CAP = 50_000_000


def space_dim(n: int, mode: str) -> int:
    """Coordinates of V_n: n+1 in general mode, n on the monic slice."""
    if mode not in (GENERAL, MONIC):
        raise ValueError(f"mode must be '{GENERAL}' or '{MONIC}', got {mode!r}")
    return n + 1 if mode == GENERAL else n


def _weight_job(n: int, mode: str, rule: str) -> tuple[int, str]:
    """(dim, canonical rule) of a weight-table job on V_n in `mode`: a
    ValueError unless n >= 1, the mode is known, and the rule is known and
    defined there (squarefree-complement needs monic mode and n >= 2)."""
    if n < 1:
        raise ValueError(f"weight tables need degree n >= 1, got n={n}")
    dim = space_dim(n, mode)
    rule = _RULE_ALIASES.get(rule, rule)
    if rule == RULE_SQUAREFREE:
        if mode != MONIC:
            raise ValueError("the squarefree-complement rule is monic-only")
        if n < 2:
            raise ValueError("squarefree-complement weight needs n >= 2")
    elif rule != RULE_MOBIUS_HALF:
        raise ValueError(f"unknown weight rule {rule!r}")
    return dim, rule


def _trim(r: list[int]) -> list[int]:
    """Drop the trailing zeros of a coefficient list, in place."""
    while r and r[-1] == 0:
        r.pop()
    return r


def _rem(f: Sequence[int], g: Sequence[int], p: int) -> list[int]:
    """f mod g over F_p for a trimmed nonzero g, trimmed; no quotient is
    built."""
    r = list(f)
    dg = len(g) - 1
    inv = pow(g[-1], -1, p)
    for i in range(len(r) - 1, dg - 1, -1):
        c = r[i] * inv % p
        if c:
            for j in range(dg):
                r[i - dg + j] = (r[i - dg + j] - c * g[j]) % p
    del r[dg:]  # each leading entry was cancelled in turn
    return _trim(r)


def _deriv(a: Sequence[int], p: int) -> list[int]:
    """Formal derivative over F_p, trimmed."""
    return _trim([i * a[i] % p for i in range(1, len(a))])


def _disc_mod_p(a: Sequence[int], p: int) -> int:
    """Disc(a) mod p for a monic a of degree n >= 1, as
    (-1)^(n(n-1)/2) * Res(a, a').  The resultant runs Euclid on actual
    degrees, Res(f, g) = (-1)^(deg f deg g) lc(g)^(deg f - deg r) Res(g, r)
    with r = f mod g; since a is monic, Res(a, a') = prod a'(alpha), so it
    stays right when p | n drops the degree of a'."""
    n = len(a) - 1
    res = -1 if (n * (n - 1) // 2) % 2 else 1
    f, g = a, _deriv(a, p)
    while len(g) > 1:
        r = _rem(f, g, p)
        if not r:
            return 0
        if (len(f) - 1) * (len(g) - 1) % 2:
            res = -res
        res = res * pow(g[-1], len(f) - len(r), p) % p
        f, g = g, r
    # Res(f, c) = c^(deg f), and Res(f, 0) = 0
    return res * pow(g[0], len(f) - 1, p) % p if g else 0


def _table_disc(coeffs: Sequence[int], p: int) -> int:
    """An integer congruent to Disc f mod p for a monic f of degree
    n >= 1: the exact Disc f (`zpoly._disc`) when p = 2 or n <= 5, else
    `_disc_mod_p`.  n <= 5 is where the closed form beats Euclid (the
    crossover in the module docstring)."""
    if p == 2 or len(coeffs) <= 6:
        return _disc(coeffs)
    return _disc_mod_p(coeffs, p)


def _is_squarefree(coeffs: tuple[int, ...], p: int) -> bool:
    """Squarefreeness of a monic f (degree >= 1, p prime): p does not
    divide Disc f, taken by degree from `_table_disc`."""
    return _table_disc(coeffs, p) % p != 0


def _chi(disc: int, p: int) -> int:
    """Quadratic character chi_p of a discriminant: 0 when p | disc, else
    the Legendre symbol (disc/p) by Euler's criterion for odd p.  At p = 2,
    disc must be an exact integer discriminant (an odd one is 1 mod 4):
    +1 when disc = 1 (mod 8), -1 when disc = 5 (mod 8)."""
    if disc % p == 0:
        return 0
    if p == 2:
        return 1 if disc % 8 == 1 else -1
    return 1 if pow(disc, (p - 1) // 2, p) == 1 else -1


def _mobius(coeffs: tuple[int, ...], p: int) -> int:
    """Mobius function of a monic f (degree n >= 1, p prime) by
    Stickelberger's theorem: (-1)^n * chi_p(Disc f), which is 0 when
    p | Disc f.  Disc f comes from `_table_disc`: the exact one for
    n <= 5 and at p = 2 (where the mod-8 rule needs it), one resultant
    mod p for odd p and n >= 6, by the crossover in the module
    docstring."""
    n = len(coeffs) - 1
    chi = _chi(_table_disc(coeffs, p), p)
    return chi if n % 2 == 0 else -chi


def _monic_table(p: int, n: int, rule: str) -> np.ndarray:
    vals = np.empty((p,) * n, dtype=np.float64)
    sign = 1 if n % 2 == 1 else -1
    flat = vals.ravel()
    for i, idx in enumerate(np.ndindex(*vals.shape)):
        coeffs = idx + (1,)
        if rule == RULE_MOBIUS_HALF:
            flat[i] = (1 + sign * _mobius(coeffs, p)) / 2
        else:
            flat[i] = 0.0 if _is_squarefree(coeffs, p) else 1.0
    return vals


@lru_cache(maxsize=None)
def weight_table(p: int, n: int, mode: str, rule: str) -> np.ndarray:
    """The weight `rule` on V_n(F_p) in `mode`: a read-only, cached float64
    array of shape (p,)^dim."""
    dim, rule = _weight_job(n, mode, rule)
    if not is_prime(p):
        raise ValueError(f"weight tables need a prime modulus, got p={p}")
    size = p ** dim
    if size > _TABLE_SIZE_CAP:
        raise BudgetExceededError(
            f"{mode} weight table for p={p}, n={n} has {size} entries, over {_TABLE_SIZE_CAP}")
    if rule == RULE_MOBIUS_HALF and n < 3:
        warnings.warn(f"mobius-half weight is intended for n >= 3 (got n={n})", stacklevel=2)
    vals = _monic_table(p, n, rule)
    if rule == RULE_MOBIUS_HALF and mode == GENERAL:
        mon, vals = vals, np.full((p,) * (n + 1), 0.5)
        base = np.arange(p)
        for c in range(1, p):
            vals[..., c] = mon[np.ix_(*([pow(c, -1, p) * base % p] * n))]
    # every caller shares the cached table: one write would change them all
    vals.flags.writeable = False
    return vals


def decay_alpha(rule: str, n: int) -> float:
    """Reference decay exponent for nonzero-phase transform values."""
    rule = _RULE_ALIASES.get(rule, rule)
    if rule == RULE_MOBIUS_HALF:
        return (n - 1) / 4
    if rule == RULE_SQUAREFREE:
        return 2.0
    raise ValueError(f"no reference decay exponent for rule {rule!r}")


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _table_dft(p: int, n: int, mode: str, rule: str) -> np.ndarray:
    """The full transform of `weight_table(p, n, mode, rule)`, read-only and
    cached under the same key."""
    ft = np.fft.ifftn(weight_table(p, n, mode, rule))
    ft.flags.writeable = False
    return ft


def _twisted_dfts(d: int, n: int, mode: str, rule: str) -> list[tuple[int, np.ndarray]]:
    """[(p, T_p)] over the primes p | d, where T_p is the cached transform
    of the p-table with every axis permuted by s -> c_p s mod p,
    c_p = (d/p)^(-1) mod p.  The CRT twist then reads
    psi_hat_d(u) = prod_p T_p[u mod p]."""
    out = []
    for p in prime_factors(d):
        ft = _table_dft(p, n, mode, rule)
        perm = (pow(d // p, -1, p) * np.arange(p)) % p
        out.append((p, ft[np.ix_(*([perm] * ft.ndim))]))
    return out


def product_weight_values(d: int, n: int, mode: str, rule: str) -> np.ndarray:
    """The product weight on V_n(Z/dZ) as a dense array (small d only)."""
    dim = space_dim(n, mode)
    if d ** dim > _TABLE_SIZE_CAP:
        raise BudgetExceededError("product table too large")
    base = np.arange(d)
    vals = np.ones((d,) * dim)
    for p in prime_factors(d):
        idx = base % p
        vals = vals * weight_table(p, n, mode, rule)[np.ix_(*([idx] * dim))]
    return vals


def dft_point_direct(d: int, n: int, mode: str, rule: str, u: Sequence[int]) -> complex:
    """Independent oracle: direct summation over all of V_n(Z/dZ)."""
    comps = tuple(int(c) % d for c in u)
    dim = space_dim(n, mode)
    if len(comps) != dim:
        raise ValueError("phase length does not match the mode")
    vals = product_weight_values(d, n, mode, rule)
    base = np.arange(d)
    phase = np.zeros((d,) * dim)
    for axis, c in enumerate(comps):
        shape = [1] * dim
        shape[axis] = d
        phase = phase + (c * base).reshape(shape)
    kernel = np.exp(2j * np.pi * phase / d)
    return complex((vals * kernel).sum() / d ** dim)


# ---------------------------------------------------------------------------
# phase scans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhaseScan:
    max_abs: float
    argmax: tuple[int, ...]


def max_nonzero_phase(w: np.ndarray) -> PhaseScan:
    """Largest |psi_hat(u)| over u != 0 for a weight table w, scanned
    exhaustively over its full transform; ties go to the first maximal
    phase in C order (the lexicographically smallest)."""
    # FFT rounding (far below 1e-12 * max|w|) can split an exact tie
    tol = 1e-12 * float(np.abs(w).max())
    mags = np.abs(np.fft.ifftn(w)).ravel()
    mags[0] = -1.0
    top = float(mags.max())
    idx = int(np.argmax(mags >= top - tol))
    arg = tuple(int(x) for x in np.unravel_index(idx, w.shape))
    return PhaseScan(top, arg)


# ---------------------------------------------------------------------------
# smooth weights and Poisson verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SmoothWeight:
    """Centered product Gaussian amplitude * exp(-pi |x|^2 / sigma^2), whose
    continuous transform is amplitude * sigma^dim * exp(-pi sigma^2 |xi|^2)
    under the e^(-2 pi i <x, xi>) convention."""

    sigma: float = 1.0
    amplitude: float = 1.0

    def __post_init__(self):
        if not (self.sigma > 0 and self.amplitude > 0):  # NaN fails too
            raise ValueError("sigma and amplitude must be positive")

    @classmethod
    def box_calibrated(cls, dim: int, sigma: float = 1.0) -> "SmoothWeight":
        """Scaled so the minimum over [-1, 1]^dim (at the corners) is 1."""
        if not sigma > 0:
            raise ValueError("sigma must be positive")
        try:  # sigma ** 2, to the bit as `coord_profile` squares it
            amplitude = math.exp(math.pi * dim / sigma ** 2)
        except (OverflowError, ZeroDivisionError):
            # sigma ** 2 overflowed (then the amplitude is exp(0)), or it
            # underflowed to 0 or the exponential overflowed
            amplitude = 1.0 if math.isinf(sigma * sigma) else math.inf
        if amplitude == math.inf:
            raise ValueError(f"sigma {sigma} is too small: the box calibration "
                             f"exp(pi*{dim}/sigma^2) overflows a float")
        return cls(sigma, amplitude)

    def value(self, xs: Sequence[float]) -> float:
        s = sum(float(x) ** 2 for x in xs)
        return self.amplitude * math.exp(-math.pi * s / self.sigma ** 2)

    def fourier(self, xis: Sequence[float]) -> float:
        s = sum(float(x) ** 2 for x in xis)
        return (self.amplitude * self.sigma ** len(xis)
                * math.exp(-math.pi * self.sigma ** 2 * s))

    def fourier_zero(self, dim: int) -> float:
        return self.amplitude * self.sigma ** dim

    def coord_profile(self, arr: np.ndarray) -> np.ndarray:
        # per-coordinate factor, amplitude excluded (apply it once per point)
        return np.exp(-math.pi * np.asarray(arr, dtype=np.float64) ** 2 / self.sigma ** 2)

    def lattice_radius(self, scale: float, rel_tol: float = 1e-16) -> int:
        radius = self.sigma * scale * math.sqrt(math.log(1 / rel_tol) / math.pi)
        if not math.isfinite(radius):
            raise BudgetExceededError(
                f"sigma {self.sigma} at scale {scale}: the lattice radius is not finite")
        return math.ceil(radius) + 1


def _split_cost(A: int, B: int, dim: int) -> int:
    # axis-by-axis contraction of the (B,)^dim table against Theta, plus
    # the two dense side tables
    return sum(A ** i * B ** (dim - i + 1) for i in range(1, dim + 1)) + A ** dim + B ** dim


@lru_cache(maxsize=None)
def _crt_split(d: int, dim: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The primes of squarefree d split into coprime sides (A-primes,
    B-primes), choosing among all 2^omega(d) subsets the one of lowest
    `_split_cost` (the first in subset order on ties)."""
    primes = prime_factors(d)
    splits = [(tuple(p for i, p in enumerate(primes) if mask >> i & 1),
               tuple(p for i, p in enumerate(primes) if not mask >> i & 1))
              for mask in range(1 << len(primes))]
    return min(splits, key=lambda s: _split_cost(math.prod(s[0]), math.prod(s[1]), dim))


def _split_sides(d: int, dim: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """`_crt_split(d, dim)`, refused when its larger side's dense table, the
    largest intermediate of `_wrapped_contraction`, is over the cap."""
    a_side, b_side = _crt_split(d, dim)
    side = max(math.prod(a_side), math.prod(b_side))
    if side ** dim > _TABLE_SIZE_CAP:
        raise BudgetExceededError(
            f"contraction at d={d} needs a {side}^{dim} table, over {_TABLE_SIZE_CAP} entries")
    return a_side, b_side


def _modulus_primes(d: int, dim: int) -> tuple[int, ...]:
    """The primes of a squarefree positive d (else ValueError) whose tables
    a job on `dim` coordinates can build, or a BudgetExceededError before
    any is built.  Each needs a p^dim table of at most _TABLE_SIZE_CAP
    entries, so d is trial-divided only up to that bound (368 at dim 3, 84
    at dim 4) and never past 5,000: a finished job has a lattice profile of
    2R + 2d + 1 <= _TABLE_SIZE_CAP entries, so d < 5,000^2.  A repeated
    prime found is a ValueError; a cofactor over the bound or 5,000^2, a
    d^dim over _TABLE_SIZE_CAP^2 (every CRT split then has a side of at
    least sqrt(d): refused before the splits are listed) and an oversized
    `_split_sides` are refused."""
    if d < 1:
        raise ValueError(f"modulus must be a squarefree positive integer, got d={d}")
    cap = round(_TABLE_SIZE_CAP ** (1 / dim))
    cap -= cap ** dim > _TABLE_SIZE_CAP  # the largest p with p^dim <= the cap
    bound = min(cap, math.isqrt(_TABLE_SIZE_CAP // 2))
    pairs, rest = _trial_division(d, bound)
    if any(e > 1 for _p, e in pairs):
        raise ValueError(f"modulus must be a squarefree positive integer, got d={d}")
    if bound < cap and rest > bound ** 2:
        raise BudgetExceededError(
            f"modulus d={d} is over {bound ** 2}: its lattice profile of 2R + 2d + 1 "
            f"entries would exceed {_TABLE_SIZE_CAP}")
    if rest > cap:
        raise BudgetExceededError(
            f"modulus d={d} has a prime factor above {cap}, whose {dim}-coordinate "
            f"weight table would exceed {_TABLE_SIZE_CAP} entries")
    if d ** dim > _TABLE_SIZE_CAP ** 2:
        raise BudgetExceededError(
            f"modulus d={d}: every CRT split has a side of at least sqrt(d), whose "
            f"{dim}-coordinate table would exceed {_TABLE_SIZE_CAP} entries")
    _split_sides(d, dim)
    return tuple(p for p, _e in pairs) + ((rest,) if rest > 1 else ())


def contraction_cost(d: int, dim: int) -> int:
    """Modelled multiply-adds of `_wrapped_contraction` at modulus d: the
    cost of the split it picks."""
    a_side, b_side = _crt_split(d, dim)
    return _split_cost(math.prod(a_side), math.prod(b_side), dim)


def table_build_cost(p: int, n: int) -> int:
    """Modelled cost of classifying the p^n monic polynomials behind one
    weight table, n^3 * ceil(log2 p) each: an upper bound on one
    discriminant by `_table_disc` (the closed form's 5 / 16 / 59 terms at
    n = 3 / 4 / 5, or one resultant mod p, O(n^2) field operations, for
    n >= 6) plus one Legendre power (O(log p))."""
    return p ** n * n ** 3 * math.ceil(math.log2(p))


def table_cost(p: int, n: int, mode: str) -> int:
    """Modelled cost of a transformed weight table: `table_build_cost` plus
    size * ceil(log2 size) for the full transform of its p^dim entries."""
    size = p ** space_dim(n, mode)
    return table_build_cost(p, n) + size * math.ceil(math.log2(size))


def _dense_product(M: int, dim: int, tables: list[tuple[int, np.ndarray]], dtype) -> np.ndarray:
    """prod_p table_p[x mod p] over x in (Z/M)^dim, for primes p | M."""
    out = np.ones((M,) * dim, dtype=dtype)
    for p, vals in tables:
        # index x = q p + (x mod p): broadcast the table over q, in place
        out.reshape((M // p, p) * dim)[...] *= vals.reshape((1, p) * dim)
    return out


def _wrapped_contraction(d: int, dim: int, theta: np.ndarray,
                         tables: list[tuple[int, np.ndarray]]):
    """sum_{r in (Z/d)^dim} prod_i theta[r_i] * prod_p table_p[r mod p] for
    a wrapped per-residue profile theta (length d) and one (p,)*dim table per
    prime p | d; the result takes its dtype from the inputs.

    The sum is split by CRT along d = A*B (`_split_sides`): with
    Theta[r mod A, r mod B] = theta[r] it reads
    sum_{a, b} prod_i Theta[a_i, b_i] * T_A[a] * T_B[b], so the dense
    (B,)^dim table is contracted against Theta one axis at a time (b_i -> a_i)
    and the result dotted with the dense (A,)^dim table, at
    `contraction_cost(d, dim)` multiply-adds instead of d^dim."""
    dtype = np.result_type(theta, *(vals for _, vals in tables))
    a_side, b_side = _split_sides(d, dim)
    A, B = math.prod(a_side), math.prod(b_side)
    by_prime = dict(tables)
    r = np.arange(d)
    Theta = np.empty((A, B), dtype=theta.dtype)
    Theta[r % A, r % B] = theta
    acc = _dense_product(B, dim, [(p, by_prime[p]) for p in b_side], dtype)
    for _ in range(dim):
        # contract the leading b axis; the new a axis goes last, so after
        # dim steps the axes are (a_1, ..., a_dim) in order
        acc = np.tensordot(acc, Theta, axes=([0], [1]))
    t_a = _dense_product(A, dim, [(p, by_prime[p]) for p in a_side], dtype)
    return np.dot(acc.ravel(), t_a.ravel())


def lattice_weight_sum(d: int, n: int, mode: str, rule: str,
                       phi: SmoothWeight, H: float) -> float:
    """Exact full-lattice sum  sum_{f in Z^dim} phi(f/H) psi_d(f)  with the
    Gaussian folded into wrapped per-residue weights, so no truncation
    enters beyond machine precision.  The job (`_weight_job`), a finite
    positive H (ValueError), the modulus (`_modulus_primes`) and a profile
    of 2R + 2d + 1 entries over _TABLE_SIZE_CAP are all refused before any
    table is built."""
    dim = _weight_job(n, mode, rule)[0]
    if not (math.isfinite(H) and H > 0):
        raise ValueError(f"H must be a finite positive number, got {H!r}")
    primes = _modulus_primes(d, dim)
    R = phi.lattice_radius(H, 1e-18)
    if 2 * R + 2 * d + 1 > _TABLE_SIZE_CAP:
        raise BudgetExceededError(
            f"lattice profile at radius {R:.4g}, d={d}: 2R + 2d + 1 entries, "
            f"over {_TABLE_SIZE_CAP}")
    span = np.arange(-R - d, R + d + 1)
    theta = np.zeros(d)
    np.add.at(theta, span % d, phi.coord_profile(span / H))
    tables = [(p, weight_table(p, n, mode, rule)) for p in primes]
    return phi.amplitude * float(_wrapped_contraction(d, dim, theta, tables))


@dataclass(frozen=True)
class PoissonReport:
    lhs: float
    rhs: float
    abs_diff: float

    @property
    def rel_diff(self) -> float:
        scale = max(abs(self.lhs), abs(self.rhs), 1e-300)
        return self.abs_diff / scale


def poisson_check(n: int, mode: str, d: int, H: float, rule: str,
                  phi: SmoothWeight | None = None,
                  budget: int | None = DEFAULT_BUDGET) -> PoissonReport:
    """Compare the lattice sum sum_f phi(f/H) psi_d(f) against its dual form
    H^dim * sum_u phi_hat(u H / d) psi_hat_d(u), both truncated only where
    Gaussian tails fall below machine precision.  The two sides are the
    same (Z/d)^dim contraction: phi wrapped against the psi_p tables, and
    phi_hat wrapped against the twisted psi_hat_p tables.  Each is charged
    `contraction_cost(d, dim)`, each prime p | d its table build and
    transform.  Before any table, the job (`_weight_job`) and H must be
    valid, d passes `_modulus_primes`, and a wrapped profile over
    _TABLE_SIZE_CAP entries (2U + 1 on the dual side) is refused."""
    dim = _weight_job(n, mode, rule)[0]
    if not (math.isfinite(H) and H > 0):
        raise ValueError(f"H must be a finite positive number, got {H!r}")
    primes = _modulus_primes(d, dim)
    charge(2 * contraction_cost(d, dim) + sum(table_cost(p, n, mode) for p in primes),
           budget, f"poisson check at d={d} (two contractions, {dim} coordinates, "
           f"tables included)")
    phi = phi if phi is not None else SmoothWeight()
    try:
        U = max(1, math.ceil((d / (phi.sigma * H)) * math.sqrt(math.log(1e18) / math.pi)) + 1)
    except (OverflowError, ZeroDivisionError):  # d / (sigma H) is not finite
        U = math.inf
    if 2 * U + 1 > _TABLE_SIZE_CAP:
        raise BudgetExceededError(
            f"dual profile at d={d}, sigma {phi.sigma}, H={H}: 2U + 1 = {2 * U + 1:.4g} "
            f"entries, over {_TABLE_SIZE_CAP}")
    lhs = lattice_weight_sum(d, n, mode, rule, phi, H)

    # phi_hat(xi) = phi_hat(0) * prod_i exp(-pi sigma^2 xi_i^2): wrap each
    # coordinate's factor at xi = u H / d onto u mod d
    us = np.arange(-U, U + 1)
    theta_hat = np.zeros(d)
    np.add.at(theta_hat, us % d, np.exp(-math.pi * phi.sigma ** 2 * (us * H / d) ** 2))
    dual = _wrapped_contraction(d, dim, theta_hat, _twisted_dfts(d, n, mode, rule))
    rhs = H ** dim * phi.fourier_zero(dim) * float(dual.real)
    return PoissonReport(float(lhs), float(rhs), float(abs(lhs - rhs)))
