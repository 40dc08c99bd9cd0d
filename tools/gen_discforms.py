"""Generate src/polysieve/_discforms.py, the closed-form discriminants of
degrees 2 to 6.

For each n the general discriminant of a_0 + a_1 x + ... + a_n x^n is
expanded by sympy into its integer terms.  The module records them twice:
as the table TERMS[n], one "coefficient e_0 ... e_n" string per term, and
as a function disc{n}(a0, ..., an) that evaluates the same polynomial as a
multivariate Horner nest.  Regenerate with

    python tools/gen_discforms.py

sympy is needed only here, never at runtime.
"""

from __future__ import annotations

import textwrap
from collections import Counter
from pathlib import Path

DEGREES = range(2, 7)
TARGET = Path(__file__).resolve().parents[1] / "src" / "polysieve" / "_discforms.py"

HEADER = '''\
"""Closed-form discriminants for degrees 2 to 6.  Generated by
tools/gen_discforms.py; do not edit by hand.

TERMS[n] lists the integer terms of Disc(a_0 + a_1 x + ... + a_n x^n), one
string "c e_0 ... e_n" for the term c * a_0^e_0 * ... * a_n^e_n (strings,
since a literal of nested int tuples would take ~3 MB of parser memory at
import).  disc{n}(a0, ..., an) evaluates the same polynomial as a
multivariate Horner nest, so it takes Python ints (exact) or int64 numpy
arrays alike.  Every intermediate of a nest is a sum of some of its terms,
each divided by a product of variables, so wherever every |a_i| <= R with
R >= 1 it stays within sum |c| * R^degree over TERMS[n]; an int64 caller
checks that bound.
"""
'''


def disc_terms(n: int) -> list[tuple[int, tuple[int, ...]]]:
    """(coefficient, exponents) of Disc over a_0..a_n, in sympy's order."""
    import sympy as sp

    x = sp.Symbol("x")
    a = sp.symbols(f"a0:{n + 1}")
    f = sp.Poly(sum(a[i] * x ** i for i in range(n + 1)), x, domain=sp.ZZ[a])
    disc = sp.Poly(f.discriminant().as_expr(), *a)
    return [(int(c), tuple(int(e) for e in m)) for m, c in disc.terms()]


def _power(var: str, k: int) -> str:
    return "*".join([var] * k)


def _monomial(coef: int, exps: tuple[int, ...]) -> str:
    factors = [_power(f"a{i}", e) for i, e in enumerate(exps) if e]
    if not factors:
        return str(coef)
    if abs(coef) != 1:
        factors.insert(0, str(abs(coef)))
    return ("-" if coef < 0 else "") + "*".join(factors)


def _add(left: str, right: str) -> str:
    return f"{left} - {right[1:]}" if right.startswith("-") else f"{left} + {right}"


def _is_sum(expr: str) -> bool:
    depth = 0
    for ch in expr:
        depth += (ch == "(") - (ch == ")")
        if ch == " " and not depth:
            return True
    return False


def _times(expr: str, var: str, k: int) -> str:
    """expr * var^k, with expr parenthesized when it is a sum (a leading
    unary minus binds tighter than `*`, so a signed product needs none)."""
    if _is_sum(expr):
        expr = f"({expr})"
    return f"{expr}*{_power(var, k)}"


def horner(terms: dict[tuple[int, ...], int]) -> str:
    """Multivariate Horner nest of sum(c * a^exps): split on the variable
    that occurs in the most terms (the lowest index on ties), nest the
    cofactors of its powers from the highest down, recurse into each."""
    if len(terms) == 1:
        (exps, coef), = terms.items()
        return _monomial(coef, exps)
    occurs = Counter(i for exps in terms for i, e in enumerate(exps) if e)
    var = min(occurs, key=lambda i: (-occurs[i], i))
    groups: dict[int, dict[tuple[int, ...], int]] = {}
    for exps, coef in terms.items():
        rest = exps[:var] + (0,) + exps[var + 1:]
        groups.setdefault(exps[var], {})[rest] = coef
    ks = sorted(groups, reverse=True)
    expr = horner(groups[ks[0]])
    for hi, lo in zip(ks, ks[1:]):
        expr = _add(_times(expr, f"a{var}", hi - lo), horner(groups[lo]))
    return _times(expr, f"a{var}", ks[-1]) if ks[-1] else expr


def render() -> str:
    tables, funcs = [], []
    for n in DEGREES:
        terms = disc_terms(n)
        rows = "".join(f'        "{c} {" ".join(map(str, e))}",\n' for c, e in terms)
        tables.append(f"    {n}: (\n{rows}    ),\n")
        args = ", ".join(f"a{i}" for i in range(n + 1))
        body = textwrap.wrap(horner({e: c for c, e in terms}), width=70,
                             break_long_words=False, break_on_hyphens=False)
        lines = "\n".join(f"        {line}" for line in body)
        funcs.append(f"\n\ndef disc{n}({args}):\n    return (\n{lines}\n    )\n")
    names = ", ".join(f"{n}: disc{n}" for n in DEGREES)
    return (HEADER + "\nTERMS = {\n" + "".join(tables) + "}\n" + "".join(funcs)
            + f"\n\nDISC = {{{names}}}\n")


def main() -> None:
    TARGET.write_text(render(), encoding="utf-8")


if __name__ == "__main__":
    main()
