"""Command-line surface: reproducible experiment runs with CSV/JSON reports.

Subcommands: fourier-scan, sieve-verify, count, admissibility, exponents,
poisson-check.  An optional config file holds key=value lines mirroring the
subcommand's flags (any other key is a usage error); explicit flags win.  Exit codes: 0 pass, 1 assertion failure,
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
from ._ints import is_prime
from .errors import BudgetExceededError

DEFAULT_BUDGET = 2_000_000_000
POISSON_REL_TOL = 1e-6


class _Usage(Exception):
    pass


def _csv_ints(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip()]


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


# every flag any subcommand takes: key -> (type, help).  A subcommand takes
# `--config` plus one flag per key of its defaults dict; config-file values
# go through the same type and choices.
_FLAGS = {
    "p": (_csv_ints, "comma list of primes"),
    "n": (_csv_ints, "comma list of degrees"),
    "H": (_csv_ints, "comma list of box heights"),
    "D": (_csv_ints, "comma list of sieve levels"),
    "d": (_csv_ints, "comma list of squarefree moduli"),
    "r": (_csv_ints, "comma list of prime-factor caps"),
    "cn": (Fraction, "field-count exponent c_n"),
    "kind": (str, "which box count"),
    "mode": (str, "polynomial family"),
    "rule": (str, "local weight rule"),
    "sigma": (float, "Gaussian scale parameter"),
    "budget": (int, "global elementary-operation cap"),
    "seed": (int, "no effect; echoed in the report config only"),
    "threads": (int, "no effect; echoed in the report config only"),
    "out": (str, "output path (default stdout)"),
}


def _resolve(args: argparse.Namespace, defaults: dict, choices: dict) -> dict:
    """Fill unset flags from the config file, then from built-in defaults."""
    cfg = _load_config(args.config) if args.config else {}
    unknown = sorted(set(cfg) - set(defaults))
    if unknown:
        raise _Usage(f"unknown config key(s) for {args.command}: {', '.join(unknown)}")
    resolved = {}
    for key, default in defaults.items():
        val = getattr(args, key)
        if val is None and key in cfg:
            val = _FLAGS[key][0](cfg[key])
            if key in choices and val not in choices[key]:
                raise _Usage(f"config {key}={val}: choose from {', '.join(choices[key])}")
        resolved[key] = default if val is None else val
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
    return [charsum.GENERAL, charsum.MONIC] if mode == "both" else [mode]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

_FOURIER_DEFAULTS = {
    "p": [3, 5, 7], "n": [3], "mode": "monic", "rule": "mobius-half",
    "budget": DEFAULT_BUDGET, "seed": 0, "threads": None, "out": None,
}


def cmd_fourier_scan(resolved: dict) -> int:
    cells = [(p, n, mode, charsum._weight_job(n, mode, resolved["rule"])[1])
             for p in resolved["p"] for n in resolved["n"] for mode in _modes(resolved)]
    for p, n, mode, _rule in cells:
        if not is_prime(p):  # the price below takes log2(p)
            raise _Usage(f"weight tables need a prime modulus, got p={p}")
        cost = charsum.table_cost(p, n, mode)
        if cost > resolved["budget"]:
            raise BudgetExceededError(
                f"building and transforming the p={p}, n={n} {mode} table "
                f"costs {cost}, over budget {resolved['budget']}")

    rows = []
    all_ok = True
    for p, n, mode, rule in cells:
        w = charsum.weight_table(p, n, mode, rule)
        zero = float(w.mean())
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


def cmd_sieve_verify(resolved: dict) -> int:
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
        phi = (charsum.SmoothWeight.box_calibrated(dim, sigma) if sigma is not None
               else charsum.SmoothWeight.box_calibrated(dim))
        rep = sieve.verify_modified_selberg(n, H, D, mode, phi=phi,
                                            budget=resolved["budget"])
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


def cmd_count(resolved: dict) -> int:
    kind = resolved["kind"]
    ns = resolved["n"]
    hs = sorted(resolved["H"])
    if any(H < 1 for H in hs):
        raise _Usage("height H must be >= 1")
    if len(set(hs)) < len(hs):
        raise _Usage("each height H may be given once")
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
    if resolved["mode"] != charsum.MONIC:
        raise _Usage("almost-prime counts monic polynomials only")
    if any(r < 0 for r in resolved["r"]):
        raise _Usage("prime-factor cap r must be >= 0")
    rows = []
    for n in ns:
        # one omega distribution per box; every r is a prefix sum of it
        tables = [almostprime.count_almost_prime(n, H, budget=resolved["budget"])
                  for H in hs]
        for r in resolved["r"]:
            counts = [int(table[:r + 1].sum()) for table in tables]
            for H, c, slope in zip(hs, counts, _slopes(hs, counts)):
                rows.append((n, H, r, c, c * math.log(H) / H ** n, slope, n))
    _emit_csv(resolved, ["n", "H", "r", "count", "normalized",
                         "slope", "theory_exponent"], rows)
    return 0


_ADMISS_DEFAULTS = {
    "n": [3, 4, 5], "r": list(range(1, 11)), "out": None,
}


def cmd_admissibility(resolved: dict) -> int:
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


def cmd_exponents(resolved: dict) -> int:
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


def cmd_poisson_check(resolved: dict) -> int:
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

_MODES = (charsum.GENERAL, charsum.MONIC, "both")

# name -> (handler, defaults, choices, help); the defaults dict is the
# subcommand's whole flag set
_COMMANDS = {
    "fourier-scan": (cmd_fourier_scan, _FOURIER_DEFAULTS,
                     {"mode": _MODES, "rule": ("mobius-half", "squarefree")},
                     "transform decay scan over a (p, n, rule) grid"),
    "sieve-verify": (cmd_sieve_verify, _VERIFY_DEFAULTS, {"mode": _MODES},
                     "brute-force check of the sieve upper bound"),
    "count": (cmd_count, _COUNT_DEFAULTS,
              {"mode": _MODES, "kind": ("an-count", "almost-prime")},
              "box counts with slope diagnostics"),
    "admissibility": (cmd_admissibility, _ADMISS_DEFAULTS, {},
                      "level-exponent admissibility table"),
    "exponents": (cmd_exponents, _EXP_DEFAULTS, {},
                  "exact exponent and level calculators"),
    "poisson-check": (cmd_poisson_check, _POISSON_DEFAULTS,
                      {"mode": _MODES, "rule": ("mobius-half", "squarefree", "both")},
                      "lattice sum vs dual sum agreement"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polysieve",
        description="sieve and Fourier statistics for polynomial discriminants")
    parser.add_argument("--version", action="version",
                        version=f"polysieve {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_func, defaults, choices, text) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("--config", help="key=value config file; flags override it")
        for key in defaults:
            coerce, flag_help = _FLAGS[key]
            cmd.add_argument(f"--{key}", type=coerce, choices=choices.get(key),
                             help=flag_help)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    func, defaults, choices, _text = _COMMANDS[args.command]
    try:
        return func(_resolve(args, defaults, choices))
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
