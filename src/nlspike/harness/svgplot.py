"""Minimal deterministic SVG rendering for sweep CSVs.

Self-contained output with no rendering dependency; identical inputs
produce identical bytes.
"""

from __future__ import annotations

import math
from pathlib import Path
from statistics import median  # the middle value, or (a + b) / 2 of the middle two

from ..errors import FormatError, ParameterError
from .analysis import load_table

WIDTH, HEIGHT = 640, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 60, 20, 20, 45
PALETTE = ("#1f6fb4", "#d95f02", "#2a9d50", "#9467bd", "#c43d3d", "#6b6b6b")
TICKS = 5  # per axis


def _pad(value: float) -> float:
    """How far a flat data range at `value` is widened: by 1, or by a
    millionth of |value| where adding 1 would be lost to rounding."""
    return max(1.0, 1e-6 * abs(value))


def _scale(value: float, lo: float, hi: float, out_lo: float, out_hi: float) -> float:
    """The coordinate of one value, in plain float arithmetic."""
    if hi == lo:
        hi = lo + _pad(lo)
    return out_lo + (value - lo) * (out_hi - out_lo) / (hi - lo)


def _ticks(lo: float, hi: float) -> list[float]:
    """numpy.linspace(lo, hi, TICKS) written out: lo + i * step, then hi exactly;
    a step that underflows to 0 becomes i / (TICKS - 1) of the span, as there."""
    span, div = hi - lo, TICKS - 1
    step = span / div
    return [(i * step if step else i / div * span) + lo for i in range(div)] + [hi]


def _axes(x_lo, x_hi, y_lo, y_hi, x_label, y_label) -> list[str]:
    parts = [
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{WIDTH - MARGIN_L - MARGIN_R}" '
        f'height="{HEIGHT - MARGIN_T - MARGIN_B}" fill="none" stroke="black"/>',
    ]
    for tx in _ticks(x_lo, x_hi):
        px = _scale(tx, x_lo, x_hi, MARGIN_L, WIDTH - MARGIN_R)
        parts.append(
            f'<line x1="{px:.2f}" y1="{HEIGHT - MARGIN_B}" x2="{px:.2f}" '
            f'y2="{HEIGHT - MARGIN_B + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{HEIGHT - MARGIN_B + 18}" font-size="11" '
            f'text-anchor="middle">{tx:.3g}</text>'
        )
    for ty in _ticks(y_lo, y_hi):
        py = _scale(ty, y_lo, y_hi, HEIGHT - MARGIN_B, MARGIN_T)
        parts.append(
            f'<line x1="{MARGIN_L - 5}" y1="{py:.2f}" x2="{MARGIN_L}" y2="{py:.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{MARGIN_L - 8}" y="{py + 4:.2f}" font-size="11" '
            f'text-anchor="end">{ty:.3g}</text>'
        )
    parts.append(
        f'<text x="{(MARGIN_L + WIDTH - MARGIN_R) / 2}" y="{HEIGHT - 8}" font-size="12" '
        f'text-anchor="middle">{x_label}</text>'
    )
    parts.append(
        f'<text x="14" y="{(MARGIN_T + HEIGHT - MARGIN_B) / 2}" font-size="12" '
        f'text-anchor="middle" transform="rotate(-90 14 {(MARGIN_T + HEIGHT - MARGIN_B) / 2})">'
        f"{y_label}</text>"
    )
    return parts


def _legend(entries) -> list[str]:
    parts = []
    for i, (label, color) in enumerate(entries):
        y = MARGIN_T + 14 + 16 * i
        x = WIDTH - MARGIN_R - 130
        parts.append(f'<line x1="{x}" y1="{y - 4}" x2="{x + 22}" y2="{y - 4}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{x + 28}" y="{y}" font-size="11">{label}</text>')
    return parts


def _polyline(points, x_lo, x_hi, y_lo, y_hi, color: str) -> str:
    """One 2-px polyline through the (x, y) points, in one pass."""
    coords = " ".join(
        f"{_scale(a, x_lo, x_hi, MARGIN_L, WIDTH - MARGIN_R):.2f},"
        f"{_scale(b, y_lo, y_hi, HEIGHT - MARGIN_B, MARGIN_T):.2f}"
        for a, b in points
    )
    return f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="2"/>'


def _finish(parts: list[str], out_path: Path) -> Path:
    svg = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">\n' + "\n".join(parts) + "\n</svg>\n"
    )
    out_path.write_text(svg)
    return out_path


def _plot_lines(table, y_column: str, out_path: Path) -> Path:
    if y_column is None:
        raise ParameterError("lines plot needs a y_column")
    if y_column not in table:
        raise FormatError(f"column {y_column!r} not in CSV (have {sorted(table)})")
    x_column = "c" if "c" in table else "n"
    if x_column not in table:
        raise FormatError(f"no x column ('c' or 'n') in CSV (have {sorted(table)})")
    series_column = "n" if x_column == "c" and "n" in table else None
    ys = table[y_column].tolist()
    seeds = table["seed"].tolist() if "seed" in table else [0] * len(ys)
    series = table[series_column].tolist() if series_column else [None] * len(ys)
    groups: dict[tuple, list[float]] = {}  # (series, x) -> finite y of its trial rows
    for g, x, y, seed in zip(series, table[x_column].tolist(), ys, seeds):
        if seed >= 0 and math.isfinite(y):  # seed < 0 marks a summary row
            groups.setdefault((g, x), []).append(y)
    if not groups:
        raise FormatError(f"no finite data for column {y_column!r}")
    x_lo, x_hi = min(x for _, x in groups), max(x for _, x in groups)
    y_lo, y_hi = min(map(min, groups.values())), max(map(max, groups.values()))
    if y_lo == y_hi:
        pad = _pad(y_lo)
        y_lo, y_hi = y_lo - pad, y_hi + pad
    parts = _axes(x_lo, x_hi, y_lo, y_hi, x_column, y_column)
    legend = []
    for gi, g in enumerate(sorted({g for g, _ in groups})):
        color = PALETTE[gi % len(PALETTE)]
        line = sorted((x, median(v)) for (h, x), v in groups.items() if h == g)
        parts.append(_polyline(line, x_lo, x_hi, y_lo, y_hi, color))
        legend.append((y_column if g is None else f"n={int(g)}", color))
    parts.extend(_legend(legend))
    return _finish(parts, out_path)


def _plot_histogram_overlay(table, out_path: Path) -> Path:
    for col in ("series", "x", "y"):
        if col not in table:
            raise FormatError(f"histogram-overlay needs columns series,x,y (have {sorted(table)})")
    rows = list(zip(table["series"].tolist(), table["x"].tolist(), table["y"].tolist()))
    bars = [(x, y) for s, x, y in rows if s == "esd"]
    curve = [(x, y) for s, x, y in rows if s == "qve"]
    if not bars:
        raise FormatError("no 'esd' rows in CSV")
    xs, ys = zip(*bars, *curve)
    x_lo, x_hi = min(xs), max(xs)
    y_hi = max(ys) * 1.05 or 1.0
    parts = _axes(x_lo, x_hi, 0.0, y_hi, "eigenvalue", "density")
    width = (bars[1][0] - bars[0][0]) if len(bars) > 1 else (x_hi - x_lo)
    half = 0.5 * width
    for cx, cy in bars:
        x0 = _scale(cx - half, x_lo, x_hi, MARGIN_L, WIDTH - MARGIN_R)
        x1 = _scale(cx + half, x_lo, x_hi, MARGIN_L, WIDTH - MARGIN_R)
        y0 = _scale(cy, 0.0, y_hi, HEIGHT - MARGIN_B, MARGIN_T)
        h = HEIGHT - MARGIN_B - y0
        parts.append(
            f'<rect x="{x0:.2f}" y="{y0:.2f}" width="{x1 - x0:.2f}" height="{h:.2f}" '
            f'fill="#a6c9e6" stroke="#5c88ad" stroke-width="0.5"/>'
        )
    if curve:
        parts.append(_polyline(curve, x_lo, x_hi, 0.0, y_hi, "#d95f02"))
    parts.extend(_legend([("empirical", "#a6c9e6"), ("limit density", "#d95f02")]))
    return _finish(parts, out_path)


def emit_plot(csv_path, kind: str, y_column: str | None = None, out_path=None) -> Path:
    """Render a sweep CSV as a self-contained SVG.

    kind "lines" draws one per-n median polyline of y_column against the
    sweep axis; "histogram-overlay" draws esd bars under the qve curve.
    """
    csv_path = Path(csv_path)
    table = load_table(csv_path)
    if out_path is None:
        suffix = f"_{y_column}" if y_column else ""
        out_path = csv_path.with_name(csv_path.stem + suffix + ".svg")
    out_path = Path(out_path)
    if kind == "lines":
        return _plot_lines(table, y_column, out_path)
    if kind == "histogram-overlay":
        return _plot_histogram_overlay(table, out_path)
    raise ParameterError(f"unknown plot kind {kind!r}")
