"""Fourier analysis of arithmetic weights on polynomial spaces mod d.

Conventions
-----------
The space V_n(Z/dZ) of polynomials of degree <= n is identified with
(Z/dZ)^(n+1) through the coefficient vector (a_0, ..., a_n); its monic
degree-n slice is identified with (Z/dZ)^n through (a_0, ..., a_{n-1}).
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

A `WeightTable` also wraps any caller-built array of the right shape; its
rule name is then only a label.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from ._ints import is_squarefree, prime_factors
from .errors import BudgetExceededError
from .fppoly import FpPoly, _is_squarefree, _mobius, _trim

GENERAL = "general"
MONIC = "monic"
RULE_MOBIUS_HALF = "mobius-half"
RULE_SQUAREFREE = "squarefree-complement"
_RULE_ALIASES = {"squarefree": RULE_SQUAREFREE}

DEFAULT_OPS_BUDGET = 1_000_000_000
_TABLE_SIZE_CAP = 50_000_000


def _check_mode(mode: str) -> str:
    if mode not in (GENERAL, MONIC):
        raise ValueError(f"mode must be '{GENERAL}' or '{MONIC}', got {mode!r}")
    return mode


def space_dim(n: int, mode: str) -> int:
    """Coordinates of V_n: n+1 in general mode, n on the monic slice."""
    return n + 1 if _check_mode(mode) == GENERAL else n


def _canon_rule(rule: str) -> str:
    return _RULE_ALIASES.get(rule, rule)


@dataclass(frozen=True)
class Phase:
    """Dual vector mod d: length n+1 in general mode, n in monic mode."""

    d: int
    components: tuple[int, ...]

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("modulus must be positive")
        if any(not 0 <= c < self.d for c in self.components):
            raise ValueError("phase components must be reduced mod d")

    @classmethod
    def of(cls, d: int, components: Sequence[int]) -> "Phase":
        return cls(d, tuple(int(c) % d for c in components))

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.components)


class WeightTable:
    """A complex-valued weight on V_n(F_p) (or its monic slice) with a
    lazily cached full transform."""

    def __init__(self, p: int, n: int, mode: str, rule: str, values: np.ndarray):
        self.p = p
        self.n = n
        self.mode = _check_mode(mode)
        self.rule = rule
        expected = (p,) * self.dim
        if values.shape != expected:
            raise ValueError(f"values must have shape {expected}")
        self.values = values
        self._dft: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return space_dim(self.n, self.mode)

    @property
    def size(self) -> int:
        return self.p ** self.dim

    def dft(self) -> np.ndarray:
        if self._dft is None:
            self._dft = np.fft.ifftn(self.values)
        return self._dft

    def zero_phase(self) -> complex:
        return complex(self.values.mean())


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
def weight_table(p: int, n: int, mode: str, rule: str) -> WeightTable:
    size = p ** space_dim(n, mode)
    if size > _TABLE_SIZE_CAP:
        raise BudgetExceededError(
            f"{mode} weight table for p={p}, n={n} has {size} entries, over {_TABLE_SIZE_CAP}")
    rule = _canon_rule(rule)
    if rule == RULE_MOBIUS_HALF:
        if n < 3:
            warnings.warn(f"mobius-half weight is intended for n >= 3 (got n={n})",
                          stacklevel=2)
        mon = _monic_table(p, n, rule)
        if mode == MONIC:
            return WeightTable(p, n, mode, rule, mon)
        vals = np.full((p,) * (n + 1), 0.5)
        base = np.arange(p)
        for c in range(1, p):
            inv = pow(c, -1, p)
            s = (inv * base) % p
            vals[..., c] = mon[np.ix_(*([s] * n))]
        return WeightTable(p, n, mode, rule, vals)
    if rule == RULE_SQUAREFREE:
        if mode != MONIC:
            raise ValueError("the squarefree-complement rule is monic-only")
        if n < 2:
            raise ValueError("squarefree-complement weight needs n >= 2")
        return WeightTable(p, n, mode, rule, _monic_table(p, n, rule))
    raise ValueError(f"unknown weight rule {rule!r}")


def decay_alpha(rule: str, n: int) -> float:
    """Reference decay exponent for nonzero-phase transform values."""
    rule = _canon_rule(rule)
    if rule == RULE_MOBIUS_HALF:
        return (n - 1) / 4
    if rule == RULE_SQUAREFREE:
        return 2.0
    raise ValueError(f"no reference decay exponent for rule {rule!r}")


# ---------------------------------------------------------------------------
# pairing and transforms
# ---------------------------------------------------------------------------

def pair(f, u: Phase | Sequence[int], d: int | None = None) -> int:
    """Coefficient pairing <f, u> mod d.

    A polynomial of degree len(u) whose leading coefficient is 1 is paired
    in monic mode (the leading 1 is dropped); anything of degree < len(u)
    is zero-padded and paired in general mode.
    """
    if isinstance(u, Phase):
        comps, d = u.components, u.d
    else:
        if d is None:
            raise ValueError("a bare component sequence needs an explicit modulus")
        comps = tuple(int(c) % d for c in u)
    coeffs = f.coeffs if isinstance(f, FpPoly) else _trim(tuple(int(c) for c in f))
    L = len(comps)
    if len(coeffs) == L + 1:
        if coeffs[-1] != 1:
            raise ValueError("length mismatch: degree-L input must be monic for a length-L phase")
        coeffs = coeffs[:L]
    elif len(coeffs) > L:
        raise ValueError("length mismatch between polynomial and phase")
    return sum(c * v for c, v in zip(coeffs, comps)) % d


def fft_cost(size: int) -> int:
    """Modelled cost of a full transform of a table of this size."""
    return size * math.ceil(math.log2(size))


def _twisted_dfts(d: int, n: int, mode: str, rule: str) -> list[tuple[int, np.ndarray]]:
    """[(p, T_p)] over the primes p | d, where T_p is the cached transform
    of the p-table with every axis permuted by s -> c_p s mod p,
    c_p = (d/p)^(-1) mod p.  The CRT twist then reads
    psi_hat_d(u) = prod_p T_p[u mod p]."""
    out = []
    for p in prime_factors(d):
        ft = weight_table(p, n, mode, rule).dft()
        perm = (pow(d // p, -1, p) * np.arange(p)) % p
        out.append((p, ft[np.ix_(*([perm] * ft.ndim))]))
    return out


def dft_point(d: int, n: int, mode: str, rule: str, u: Phase | Sequence[int]) -> complex:
    """Transform of the product weight at one phase, assembled across the
    primes dividing squarefree d by the CRT twist."""
    if d < 1 or not is_squarefree(d):
        raise ValueError("modulus must be a squarefree positive integer")
    comps = u.components if isinstance(u, Phase) else tuple(int(c) % d for c in u)
    dim = space_dim(n, mode)
    if len(comps) != dim:
        raise ValueError("phase length does not match the mode")
    val = complex(1.0)
    for p, table in _twisted_dfts(d, n, mode, rule):
        val *= table[tuple(c % p for c in comps)]
    return val


def product_weight_values(d: int, n: int, mode: str, rule: str) -> np.ndarray:
    """The product weight on V_n(Z/dZ) as a dense array (small d only)."""
    dim = space_dim(n, mode)
    if d ** dim > _TABLE_SIZE_CAP:
        raise BudgetExceededError("product table too large")
    base = np.arange(d)
    vals = np.ones((d,) * dim)
    for p in prime_factors(d):
        tbl = weight_table(p, n, mode, rule)
        idx = base % p
        vals = vals * tbl.values[np.ix_(*([idx] * dim))]
    return vals


def dft_point_direct(d: int, n: int, mode: str, rule: str,
                     u: Phase | Sequence[int]) -> complex:
    """Independent oracle: direct summation over all of V_n(Z/dZ)."""
    comps = u.components if isinstance(u, Phase) else tuple(int(c) % d for c in u)
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


def max_nonzero_phase(w: WeightTable) -> PhaseScan:
    """Largest |psi_hat(u)| over u != 0, scanned exhaustively over the
    cached transform; ties go to the first maximal phase in C order (the
    lexicographically smallest)."""
    # FFT rounding (far below 1e-12 * max|w|) can split an exact tie
    tol = 1e-12 * float(np.abs(w.values).max())
    mags = np.abs(w.dft()).ravel()
    mags[0] = -1.0
    top = float(mags.max())
    idx = int(np.argmax(mags >= top - tol))
    arg = tuple(int(x) for x in np.unravel_index(idx, w.values.shape))
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
        try:
            amplitude = math.exp(math.pi * dim / sigma ** 2)
        except (OverflowError, ZeroDivisionError):  # sigma^2 may underflow to 0
            amplitude = math.inf
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
        return math.ceil(self.sigma * scale * math.sqrt(math.log(1 / rel_tol) / math.pi)) + 1


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


def contraction_cost(d: int, dim: int) -> int:
    """Modelled multiply-adds of `_wrapped_contraction` at modulus d: the
    cost of the split it picks."""
    a_side, b_side = _crt_split(d, dim)
    return _split_cost(math.prod(a_side), math.prod(b_side), dim)


def table_build_cost(p: int, n: int) -> int:
    """Modelled cost of classifying the p^n monic polynomials behind one
    weight table: one distinct-degree split of n^3 * ceil(log2 p) each."""
    return p ** n * n ** 3 * math.ceil(math.log2(p))


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

    The sum is split by CRT along d = A*B (`_crt_split`): with
    Theta[r mod A, r mod B] = theta[r] it reads
    sum_{a, b} prod_i Theta[a_i, b_i] * T_A[a] * T_B[b], so the dense
    (B,)^dim table is contracted against Theta one axis at a time (b_i -> a_i)
    and the result dotted with the dense (A,)^dim table, at
    `contraction_cost(d, dim)` multiply-adds instead of d^dim."""
    dtype = np.result_type(theta, *(vals for _, vals in tables))
    a_side, b_side = _crt_split(d, dim)
    A, B = math.prod(a_side), math.prod(b_side)
    # every intermediate has A^i * B^(dim-i) entries, at most max(A, B)^dim
    if max(A, B) ** dim > _TABLE_SIZE_CAP:
        raise BudgetExceededError(
            f"contraction at d={d} needs a {max(A, B)}^{dim} table, over {_TABLE_SIZE_CAP} entries")
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
    enters beyond machine precision."""
    R = phi.lattice_radius(H, 1e-18)
    span = np.arange(-R - d, R + d + 1)
    theta = np.zeros(d)
    np.add.at(theta, span % d, phi.coord_profile(span / H))
    tables = [(p, weight_table(p, n, mode, rule).values) for p in prime_factors(d)]
    return phi.amplitude * float(_wrapped_contraction(d, space_dim(n, mode), theta, tables))


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
                  budget: int | None = DEFAULT_OPS_BUDGET) -> PoissonReport:
    """Compare the lattice sum sum_f phi(f/H) psi_d(f) against its dual form
    H^dim * sum_u phi_hat(u H / d) psi_hat_d(u), both truncated only where
    Gaussian tails fall below machine precision.  The two sides are the
    same (Z/d)^dim contraction: phi wrapped against the psi_p tables, and
    phi_hat wrapped against the twisted psi_hat_p tables.  Each is charged
    `contraction_cost(d, dim)`, each prime p | d its table build and
    transform, and the check refuses before any table is built."""
    if d < 1 or not is_squarefree(d):
        raise ValueError("modulus must be a squarefree positive integer")
    dim = space_dim(n, mode)
    cost = 2 * contraction_cost(d, dim) + sum(
        table_build_cost(p, n) + fft_cost(p ** dim) for p in prime_factors(d))
    if budget is not None and cost > budget:
        raise BudgetExceededError(
            f"poisson check at d={d} (two contractions, {dim} coordinates, "
            f"tables included) costs {cost}, over budget {budget}")
    phi = phi if phi is not None else SmoothWeight()
    lhs = lattice_weight_sum(d, n, mode, rule, phi, H)

    U = max(1, math.ceil((d / (phi.sigma * H)) * math.sqrt(math.log(1e18) / math.pi)) + 1)
    # phi_hat(xi) = phi_hat(0) * prod_i exp(-pi sigma^2 xi_i^2): wrap each
    # coordinate's factor at xi = u H / d onto u mod d
    us = np.arange(-U, U + 1)
    theta_hat = np.zeros(d)
    np.add.at(theta_hat, us % d, np.exp(-math.pi * phi.sigma ** 2 * (us * H / d) ** 2))
    dual = _wrapped_contraction(d, dim, theta_hat, _twisted_dfts(d, n, mode, rule))
    rhs = H ** dim * phi.fourier_zero(dim) * float(dual.real)
    return PoissonReport(float(lhs), float(rhs), float(abs(lhs - rhs)))
