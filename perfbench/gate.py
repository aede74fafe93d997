"""Correctness gate on sweep CSVs.

A sweep CSV is one `# config=... version=...` line, a header and data
rows. The reference check compares header and rows (not the first line,
which carries the package version) with reference rows per column
tolerance; the byte check compares whole rows of two runs at one seed.
Both return the number of failed rows.
"""

from __future__ import annotations

import math


def split_csv(text: str) -> tuple[list[str], list[str]]:
    """(header cells, data lines) of a sweep CSV."""
    lines = text.splitlines()
    if len(lines) < 2 or not lines[0].startswith("#"):
        raise ValueError("not a sweep CSV: missing comment or header line")
    return lines[1].split(","), lines[2:]


def _cell_ok(rule: str, size: float, got: str, want: str, n: float) -> bool:
    if rule == "exact":
        return got == want
    a, b = float(got), float(want)
    if math.isnan(b):
        return math.isnan(a)
    if rule == "rel":
        limit = size * max(1.0, abs(b))
    elif rule == "abs":
        limit = size
    elif rule == "flips":
        limit = size / n + 1e-12
    else:
        raise ValueError(f"unknown tolerance rule {rule!r}")
    return abs(a - b) <= limit


def reference_failures(text: str, reference: str, tolerances: dict) -> int:
    """Rows of `text` that are missing or miss tolerance against `reference`.

    A malformed CSV or a header mismatch fails every reference row.
    """
    ref_header, ref_rows = split_csv(reference)
    try:
        header, rows = split_csv(text)
    except ValueError:
        return len(ref_rows)
    if header != ref_header:
        return len(ref_rows)
    rules = [tolerances[col] for col in header]
    n_col = header.index("n")
    failed = abs(len(rows) - len(ref_rows))
    for got_line, want_line in zip(rows, ref_rows):
        got, want = got_line.split(","), want_line.split(",")
        if len(got) != len(want):
            failed += 1
            continue
        try:
            n = float(want[n_col])
            ok = all(_cell_ok(r, s, g, w, n) for (r, s), g, w in zip(rules, got, want))
        except ValueError:
            ok = False
        failed += not ok
    return failed


def byte_failures(text: str, first: str) -> int:
    """Rows of `text` that differ in bytes from `first`, plus missing rows."""
    rows, first_rows = text.splitlines(), first.splitlines()
    failed = abs(len(rows) - len(first_rows))
    failed += sum(a != b for a, b in zip(rows, first_rows))
    return failed
