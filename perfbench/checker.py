"""Output check: compare a report body against the stored reference.

Volatile fields are ignored: the `# generated` comment line of CSV reports
and the `out` path in their echoed config, and `generated_at` and
`wall_time` in JSON reports.  List-valued config entries and report rows
are compared as multisets, because the workload seed permutes the grid
order.  Integers and
strings must match exactly; floats may differ by REL_TOL relative, so a
change that reorders a float sum still passes while a wrong count fails.

The fourier-scan `argmax_phase` column is not compared: |psi_hat(u)| equals
|psi_hat(-u)|, so ties may resolve differently between transform
implementations.  It is checked instead by evaluating the transform at the
reported phase (see `check_fourier_rows`).

Stdlib only, so the benchmark's self-tests run without polysieve.
"""

from __future__ import annotations

import json
import math
import re

REL_TOL = 1e-9
IGNORED_JSON_KEYS = frozenset({"generated_at", "wall_time"})
ARGMAX_COLUMN = "argmax_phase"

_INT = re.compile(r"[+-]?\d+\Z")


def _scalar(text: str):
    if _INT.match(text):
        return int(text)
    try:
        return float(text)
    except ValueError:
        return text


def _close(a: float, b: float) -> bool:
    if a == b:
        return True
    if math.isnan(a) or math.isnan(b):
        return False
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def _skeleton(value):
    """Value with floats blanked out: the part that must match exactly."""
    if isinstance(value, float):
        return "<float>"
    if isinstance(value, dict):
        return {k: _skeleton(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_skeleton(v) for v in value]
    return value


def _floats(value) -> list[float]:
    if isinstance(value, float):
        return [value]
    if isinstance(value, dict):
        return [f for k in sorted(value) for f in _floats(value[k])]
    if isinstance(value, list):
        return [f for v in value for f in _floats(v)]
    return []


def _sort_key(value):
    return (json.dumps(_skeleton(value), sort_keys=True),
            [f"{f:.6g}" for f in _floats(value)])


def compare_values(got, want, path: str = "$") -> list[str]:
    """Problems found comparing two parsed values; lists are multisets."""
    if isinstance(want, bool) or isinstance(got, bool):
        return [] if got is want else [f"{path}: {got!r} != {want!r}"]
    if isinstance(want, float) and isinstance(got, float):
        return [] if _close(got, want) else [f"{path}: {got!r} != {want!r} (float)"]
    if type(got) is not type(want):
        return [f"{path}: type {type(got).__name__} != {type(want).__name__}"]
    if isinstance(want, dict):
        problems = []
        keys = (set(got) | set(want)) - IGNORED_JSON_KEYS
        for key in sorted(keys):
            if key not in got:
                problems.append(f"{path}.{key}: missing")
            elif key not in want:
                problems.append(f"{path}.{key}: unexpected")
            else:
                problems += compare_values(got[key], want[key], f"{path}.{key}")
        return problems
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{path}: {len(got)} entries != {len(want)}"]
        problems = []
        for i, (g, w) in enumerate(zip(sorted(got, key=_sort_key),
                                       sorted(want, key=_sort_key))):
            problems += compare_values(g, w, f"{path}[{i}]")
        return problems
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


def parse_csv(text: str) -> dict:
    """A CSV report as {"meta", "columns", "rows"} with typed cells."""
    meta = {}
    body = []
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, val = line[1:].partition(":")
            key = key.strip()
            if key == "generated":
                continue
            if key == "config":
                meta[key] = _parse_config_echo(val)
            else:
                meta[key] = val.strip()
        elif line:
            body.append(line.split(","))
    if not body:
        raise ValueError("CSV report has no header line")
    columns = body[0]
    rows = []
    for cells in body[1:]:
        if len(cells) != len(columns):
            raise ValueError(f"row {cells!r} does not match header {columns!r}")
        rows.append(dict(zip(columns, (_scalar(c) for c in cells))))
    return {"meta": meta, "columns": columns, "rows": rows}


def _parse_config_echo(text: str) -> dict:
    out = {}
    for token in text.split():
        key, _, val = token.partition("=")
        if key == "out":
            continue
        out[key] = [_scalar(v) for v in val.split(",")] if "," in val else _scalar(val)
    return out


def compare_report(text: str, ref_text: str, fmt: str) -> list[str]:
    """Problems found comparing a report body with its reference."""
    try:
        if fmt == "csv":
            got, want = parse_csv(text), parse_csv(ref_text)
            for rows in (got["rows"], want["rows"]):
                for row in rows:
                    row.pop(ARGMAX_COLUMN, None)
            if got["columns"] != want["columns"]:
                return [f"columns {got['columns']} != {want['columns']}"]
        elif fmt == "json":
            got, want = json.loads(text), json.loads(ref_text)
        else:
            raise ValueError(f"unknown report format {fmt!r}")
    except (ValueError, TypeError) as exc:
        return [f"unreadable report: {exc}"]
    return compare_values(got, want)


def check_fourier_rows(text: str, dft_abs) -> list[str]:
    """Check each fourier-scan row: the scan was exhaustive, the reported
    argmax is a nonzero phase of the right length, and the transform there,
    dft_abs(p, n, mode, rule, phase), equals max_abs to REL_TOL."""
    problems = []
    try:
        rows = parse_csv(text)["rows"]
    except ValueError as exc:
        return [f"unreadable report: {exc}"]
    for row in rows:
        p, n, mode = row["p"], row["n"], row["mode"]
        label = f"p={p} n={n} mode={mode}"
        if row["scan_kind"] != "exhaustive":
            problems.append(f"{label}: scan_kind {row['scan_kind']!r} is not exhaustive")
        try:
            phase = tuple(int(c) for c in str(row[ARGMAX_COLUMN]).split(":"))
        except ValueError:
            problems.append(f"{label}: unreadable argmax {row[ARGMAX_COLUMN]!r}")
            continue
        dim = n + 1 if mode == "general" else n
        if len(phase) != dim or not all(0 <= c < p for c in phase) or not any(phase):
            problems.append(f"{label}: argmax {phase} is not a nonzero phase mod {p}")
            continue
        value = dft_abs(p, n, mode, row["rule"], phase)
        if not _close(float(value), float(row["max_abs"])):
            problems.append(f"{label}: |psi_hat{phase}| = {value!r} != max_abs "
                            f"{row['max_abs']!r}")
    return problems


def check_counts(got: dict, want: dict) -> list[str]:
    """Exact traced counters against the recorded ones."""
    return [f"count {key}: {got.get(key)!r} != {val!r}"
            for key, val in sorted(want.items()) if got.get(key) != val]
