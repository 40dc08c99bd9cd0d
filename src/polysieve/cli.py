"""Command-line surface: reproducible experiment runs with CSV/JSON reports.

Subcommands: fourier-scan, sieve-verify, count, admissibility, exponents,
poisson-check.  An optional config file holds key=value lines mirroring the
flags; explicit flags win.  Exit codes: 0 pass, 1 assertion failure,
2 usage error, 3 budget refusal, 4 internal error (any other exception,
reported as one `internal error: <Type>: <message>` line on stderr).

Output bodies are deterministic for a fixed resolved config and seed;
timestamps live in a leading `#` comment line (CSV) and, together with wall
times, in the volatile fields of the JSON reports.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from datetime import datetime, timezone
from fractions import Fraction

from . import __version__, almostprime, charsum, sieve
from .errors import BudgetExceededError

DEFAULT_BUDGET = 2_000_000_000
POISSON_REL_TOL = 1e-6


class _Usage(Exception):
    pass


def _csv_ints(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip()]


def _fraction(text: str) -> Fraction:
    return Fraction(text)


def _load_config(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise _Usage(f"malformed config line: {line!r}")
            key, val = line.split("=", 1)
            out[key.strip()] = val.strip()
    return out


_COERCERS = {
    "p": _csv_ints, "n": _csv_ints, "H": _csv_ints, "D": _csv_ints,
    "d": _csv_ints, "r": _csv_ints, "mode": str, "rule": str,
    "sigma": float, "budget": int, "seed": int, "threads": int,
    "out": str, "kind": str, "cn": _fraction,
}


def _resolve(args: argparse.Namespace, defaults: dict):
    """Fill unset flags from the config file, then from built-in defaults."""
    cfg = _load_config(args.config) if getattr(args, "config", None) else {}
    resolved = {}
    for key, default in defaults.items():
        cli_val = getattr(args, key, None)
        if cli_val is not None:
            resolved[key] = cli_val
        elif key in cfg:
            resolved[key] = _COERCERS[key](cfg[key])
        else:
            resolved[key] = default
    return resolved


def _config_echo(resolved: dict) -> str:
    def fmt(v):
        if isinstance(v, list):
            return ",".join(str(x) for x in v)
        return str(v)

    return " ".join(f"{k}={fmt(v)}" for k, v in sorted(resolved.items()))


def _write_text(out_path: str | None, text: str) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fmt_val(v) -> str:
    if isinstance(v, float):
        return repr(float(v))  # plain-float repr even for numpy scalars
    return str(v)


def _emit_csv(resolved: dict, columns: list[str], rows: list[tuple]) -> None:
    lines = [
        f"# generated: {datetime.now(timezone.utc).isoformat()}",
        f"# version: polysieve {__version__}",
        f"# config: {_config_echo(resolved)}",
        ",".join(columns),
    ]
    for row in rows:
        lines.append(",".join(_fmt_val(v) for v in row))
    _write_text(resolved.get("out"), "\n".join(lines) + "\n")


def _modes(resolved: dict) -> list[str]:
    mode = resolved["mode"]
    if mode == "both":
        return [charsum.GENERAL, charsum.MONIC]
    if mode not in (charsum.GENERAL, charsum.MONIC):
        raise _Usage(f"unknown mode {mode!r}")
    return [mode]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

_FOURIER_DEFAULTS = {
    "p": [3, 5, 7], "n": [3], "mode": "monic", "rule": "mobius-half",
    "budget": DEFAULT_BUDGET, "seed": 0, "threads": None, "out": None,
}


def cmd_fourier_scan(args) -> int:
    resolved = _resolve(args, _FOURIER_DEFAULTS)
    rule = charsum._canon_rule(resolved["rule"])
    cells = [(p, n, mode)
             for p in resolved["p"] for n in resolved["n"] for mode in _modes(resolved)]
    for p, n, mode in cells:
        if rule == charsum.RULE_SQUAREFREE and mode != charsum.MONIC:
            raise _Usage("the squarefree rule is monic-only")
        # distinct-degree splits of the p^n monic polynomials, then the FFT
        cost = (charsum.table_build_cost(p, n)
                + charsum.fft_cost(p ** charsum.space_dim(n, mode)))
        if cost > resolved["budget"]:
            raise BudgetExceededError(
                f"building and transforming the p={p}, n={n} {mode} table "
                f"costs {cost}, over budget {resolved['budget']}")

    rows = []
    all_ok = True
    for p, n, mode in cells:
        w = charsum.weight_table(p, n, mode, rule)
        zero = w.zero_phase().real
        scan = charsum.max_nonzero_phase(w)
        alpha = charsum.decay_alpha(rule, n)
        if rule == charsum.RULE_MOBIUS_HALF:
            all_ok &= abs(zero - 0.5) <= 1e-10
        else:
            all_ok &= abs(zero - 1 / p) <= 1e-10
            all_ok &= scan.max_abs <= 3.5 / p ** 2
        rows.append((p, n, mode, rule, zero, scan.max_abs,
                     ":".join(str(c) for c in scan.argmax),
                     scan.max_abs * p ** alpha, "exhaustive"))
    _emit_csv(resolved, ["p", "n", "mode", "rule", "zero_phase", "max_abs",
                         "argmax_phase", "normalized_ratio", "scan_kind"], rows)
    return 0 if all_ok else 1


_VERIFY_DEFAULTS = {
    "n": [3], "H": [3, 5], "D": [4, 6], "mode": "both", "sigma": None,
    "budget": DEFAULT_BUDGET, "threads": None, "out": None, "seed": 0,
}


def cmd_sieve_verify(args) -> int:
    resolved = _resolve(args, _VERIFY_DEFAULTS)
    if any(D < 1 for D in resolved["D"]):
        raise _Usage("sieve level D must be >= 1")
    if any(H < 1 for H in resolved["H"]):
        raise _Usage("height H must be >= 1")
    cells = [(n, H, D, mode) for n in resolved["n"] for H in resolved["H"]
             for D in resolved["D"] for mode in _modes(resolved)]
    results = []
    for n, H, D, mode in cells:
        dim = charsum.space_dim(n, mode)
        sigma = resolved["sigma"]
        phi = (charsum.SmoothWeight.box_calibrated(dim, sigma) if sigma
               else charsum.SmoothWeight.box_calibrated(dim))
        rep = sieve.verify_modified_selberg(n, H, D, mode, phi=phi,
                                            budget=resolved["budget"], strict=False)
        results.append({"n": n, "H": H, "D": D, "mode": mode, "lhs": rep.lhs,
                        "rhs": rep.rhs, "margin": rep.margin, "radius": rep.radius,
                        "wall_time": rep.wall_time})
    all_pass = all(r["margin"] >= -sieve.MARGIN_TOLERANCE for r in results)
    doc = {
        "version": f"polysieve {__version__}",
        "config": {k: v for k, v in sorted(resolved.items()) if k != "out"},
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "results": results,
        "pass": all_pass,
    }
    _write_text(resolved.get("out"), json.dumps(doc, indent=2, default=str) + "\n")
    return 0 if all_pass else 1


_COUNT_DEFAULTS = {
    "kind": "an-count", "n": [3], "H": [10, 20], "r": [3], "mode": "monic",
    "budget": DEFAULT_BUDGET, "threads": None, "out": None, "seed": 0,
}


def _slopes(hs: list[int], counts: list[int]) -> list:
    """Log-log slope of each count against the previous height; "" for the
    first height and wherever either count is zero."""
    return [""] + [math.log(c1 / c0) / math.log(h1 / h0) if c0 > 0 and c1 > 0 else ""
                   for h0, h1, c0, c1 in zip(hs, hs[1:], counts, counts[1:])]


def cmd_count(args) -> int:
    resolved = _resolve(args, _COUNT_DEFAULTS)
    kind = resolved["kind"]
    ns = resolved["n"]
    hs = sorted(resolved["H"])
    if kind == "an-count":
        if any(n < 3 for n in ns):
            raise _Usage("an-count needs n >= 3 (the exponent formulas start there)")
        rows = []
        for n in ns:
            for mode in _modes(resolved):
                monic = mode == charsum.MONIC
                theory = float(sieve.hit_exponent(n, monic))
                results = [sieve.count_an_box(n, H, monic, budget=resolved["budget"])
                           for H in hs]
                slopes = _slopes(hs, [res.count for res in results])
                for H, res, slope in zip(hs, results, slopes):
                    rows.append((n, H, mode, res.count, float(res.weighted),
                                 slope, theory))
        _emit_csv(resolved, ["n", "H", "mode", "count", "weighted_sum",
                             "slope", "theory_exponent"], rows)
        return 0
    if kind == "almost-prime":
        rows = []
        for n in ns:
            for r in resolved["r"]:
                counts = [almostprime.count_almost_prime(n, H, r,
                                                         budget=resolved["budget"])
                          for H in hs]
                for H, c, slope in zip(hs, counts, _slopes(hs, counts)):
                    rows.append((n, H, r, c, c * math.log(H) / H ** n, slope, n))
        _emit_csv(resolved, ["n", "H", "r", "count", "normalized",
                             "slope", "theory_exponent"], rows)
        return 0
    raise _Usage(f"unknown count kind {kind!r}")


_ADMISS_DEFAULTS = {
    "n": [3, 4, 5], "r": list(range(1, 11)), "out": None,
}


def cmd_admissibility(args) -> int:
    resolved = _resolve(args, _ADMISS_DEFAULTS)
    rows = []
    for n in resolved["n"]:
        for r in resolved["r"]:
            rec = almostprime.admissibility(n, r)
            rows.append((n, r, rec.delta, float(rec.density_exponent),
                         int(rec.admissible)))
    _emit_csv(resolved, ["n", "r", "delta_r", "density_exponent", "admissible"],
              rows)
    return 0


_EXP_DEFAULTS = {
    "n": [3], "cn": None, "H": None, "out": None,
}


def cmd_exponents(args) -> int:
    resolved = _resolve(args, _EXP_DEFAULTS)
    rows = []
    for n in resolved["n"]:
        if n < 3:
            raise _Usage("exponent calculators need n >= 3")
        for monic, label in ((False, "general"), (True, "monic")):
            e = sieve.hit_exponent(n, monic)
            rows.append((n, f"hit_exponent_{label}", str(e), float(e)))
        r = almostprime.min_admissible_r(n)
        rows.append((n, "min_admissible_r", str(r), float(r)))
        rows.append((n, "delta_at_min_r", "", almostprime.delta_r(r)))
        if resolved["H"]:
            for H in resolved["H"]:
                for monic, label in ((False, "general"), (True, "monic")):
                    rows.append((n, f"optimal_level_{label}_H{H}", "",
                                 float(sieve.optimal_d(n, H, monic))))
        if resolved["cn"] is not None:
            ce, ye = almostprime.field_exponent(n, resolved["cn"])
            rows.append((n, "field_count_exponent", str(ce), float(ce)))
            rows.append((n, "discriminant_cutoff_exponent", str(ye), float(ye)))
    _emit_csv(resolved, ["n", "quantity", "exact", "value"], rows)
    return 0


_POISSON_DEFAULTS = {
    "n": [3], "d": [1, 5, 6], "H": [4, 6], "mode": "monic",
    "rule": "mobius-half", "sigma": 1.0, "budget": DEFAULT_BUDGET,
    "threads": None, "out": None, "seed": 0,
}


def cmd_poisson_check(args) -> int:
    resolved = _resolve(args, _POISSON_DEFAULTS)
    rules = (["mobius-half", "squarefree"] if resolved["rule"] == "both"
             else [resolved["rule"]])
    cells = [(n, mode, rule, d, H)
             for n in resolved["n"] for mode in _modes(resolved) for rule in rules
             for d in resolved["d"] for H in resolved["H"]]
    rows = []
    for n, mode, rule, d, H in cells:
        phi = charsum.SmoothWeight(sigma=resolved["sigma"])
        rep = charsum.poisson_check(n, mode, d, H, rule, phi,
                                    budget=resolved["budget"])
        rows.append((n, mode, rule, d, H, rep.lhs, rep.rhs, rep.abs_diff, rep.rel_diff))
    _emit_csv(resolved, ["n", "mode", "rule", "d", "H", "lhs", "rhs",
                         "abs_diff", "rel_diff"], rows)
    return 0 if all(row[-1] <= POISSON_REL_TOL for row in rows) else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polysieve",
        description="sieve and Fourier statistics for polynomial discriminants")
    parser.add_argument("--version", action="version",
                        version=f"polysieve {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value config file; flags override it")
    common.add_argument("--out", help="output path (default stdout)")
    common.add_argument("--budget", type=int, help="global elementary-operation cap")
    common.add_argument("--seed", type=int,
                        help="no effect; echoed in the report config only")
    common.add_argument("--threads", type=int,
                        help="no effect; echoed in the report config only")
    common.add_argument("--sigma", type=float, help="Gaussian scale parameter")

    fourier = sub.add_parser("fourier-scan", parents=[common],
                             help="transform decay scan over a (p, n, rule) grid")
    fourier.add_argument("--p", type=_csv_ints, help="comma list of primes")
    fourier.add_argument("--n", type=_csv_ints, help="comma list of degrees")
    fourier.add_argument("--mode", choices=["general", "monic", "both"])
    fourier.add_argument("--rule", choices=["mobius-half", "squarefree"])
    fourier.set_defaults(func=cmd_fourier_scan)

    verify = sub.add_parser("sieve-verify", parents=[common],
                            help="brute-force check of the sieve upper bound")
    verify.add_argument("--n", type=_csv_ints)
    verify.add_argument("--H", type=_csv_ints)
    verify.add_argument("--D", type=_csv_ints)
    verify.add_argument("--mode", choices=["general", "monic", "both"])
    verify.set_defaults(func=cmd_sieve_verify)

    count = sub.add_parser("count", parents=[common],
                           help="box counts with slope diagnostics")
    count.add_argument("--kind", choices=["an-count", "almost-prime"])
    count.add_argument("--n", type=_csv_ints)
    count.add_argument("--H", type=_csv_ints)
    count.add_argument("--r", type=_csv_ints)
    count.add_argument("--mode", choices=["general", "monic", "both"])
    count.set_defaults(func=cmd_count)

    adm = sub.add_parser("admissibility", parents=[common],
                         help="level-exponent admissibility table")
    adm.add_argument("--n", type=_csv_ints)
    adm.add_argument("--r", type=_csv_ints)
    adm.set_defaults(func=cmd_admissibility)

    exp = sub.add_parser("exponents", parents=[common],
                         help="exact exponent and level calculators")
    exp.add_argument("--n", type=_csv_ints)
    exp.add_argument("--cn", type=_fraction, help="field-count exponent c_n")
    exp.add_argument("--H", type=_csv_ints)
    exp.set_defaults(func=cmd_exponents)

    poisson = sub.add_parser("poisson-check", parents=[common],
                             help="lattice sum vs dual sum agreement")
    poisson.add_argument("--n", type=_csv_ints)
    poisson.add_argument("--d", type=_csv_ints)
    poisson.add_argument("--H", type=_csv_ints)
    poisson.add_argument("--mode", choices=["general", "monic", "both"])
    poisson.add_argument("--rule", choices=["mobius-half", "squarefree", "both"])
    poisson.set_defaults(func=cmd_poisson_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _Usage as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"budget refusal: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # exit 1 is reserved for tolerance failures
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
