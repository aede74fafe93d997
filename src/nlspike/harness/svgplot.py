"""Minimal deterministic SVG rendering for sweep CSVs.

Self-contained output with no rendering dependency; identical inputs
produce identical bytes.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..errors import FormatError, ParameterError
from .analysis import load_table

WIDTH, HEIGHT = 640, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 60, 20, 20, 45
PALETTE = ("#1f6fb4", "#d95f02", "#2a9d50", "#9467bd", "#c43d3d", "#6b6b6b")


def _pad(value: float) -> float:
    """How far a flat data range at `value` is widened: by 1, or by a
    millionth of |value| where adding 1 would be lost to rounding."""
    return max(1.0, 1e-6 * abs(value))


def _scale(value: float, lo: float, hi: float, out_lo: float, out_hi: float) -> float:
    """The coordinate of one value, in plain float arithmetic."""
    if hi == lo:
        hi = lo + _pad(lo)
    return out_lo + (value - lo) * (out_hi - out_lo) / (hi - lo)


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    return np.linspace(lo, hi, count).tolist()


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


def _polyline(xs, ys, x_lo, x_hi, y_lo, y_hi, color: str) -> str:
    """One 2-px polyline through the points (xs[i], ys[i]), in one pass."""
    points = " ".join(
        f"{_scale(a, x_lo, x_hi, MARGIN_L, WIDTH - MARGIN_R):.2f},"
        f"{_scale(b, y_lo, y_hi, HEIGHT - MARGIN_B, MARGIN_T):.2f}"
        for a, b in zip(xs, ys)
    )
    return f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="2"/>'


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
    if "seed" in table:
        keep = table["seed"] >= 0  # drop summary rows
    else:
        keep = np.ones(len(table[y_column]), dtype=bool)

    x_all, y_all = table[x_column][keep], table[y_column][keep]
    finite = np.isfinite(y_all)
    x_all, y_all = x_all[finite], y_all[finite]
    if len(x_all) == 0:
        raise FormatError(f"no finite data for column {y_column!r}")
    groups = (
        sorted(set(table[series_column][keep][finite])) if series_column else [None]
    )
    x_lo, x_hi = float(np.min(x_all)), float(np.max(x_all))
    y_lo, y_hi = float(np.min(y_all)), float(np.max(y_all))
    if y_lo == y_hi:
        pad = _pad(y_lo)
        y_lo, y_hi = y_lo - pad, y_hi + pad
    parts = _axes(x_lo, x_hi, y_lo, y_hi, x_column, y_column)
    legend = []
    for gi, g in enumerate(groups):
        color = PALETTE[gi % len(PALETTE)]
        if g is None:
            mask = np.ones(len(x_all), dtype=bool)
            label = y_column
        else:
            mask = table[series_column][keep][finite] == g
            label = f"n={int(g)}"
        xs, ys = x_all[mask], y_all[mask]
        # median over trials at each x
        ux = np.unique(xs)
        med = [float(np.median(ys[xs == v])) for v in ux]
        parts.append(_polyline(ux.tolist(), med, x_lo, x_hi, y_lo, y_hi, color))
        legend.append((label, color))
    parts.extend(_legend(legend))
    return _finish(parts, out_path)


def _plot_histogram_overlay(table, out_path: Path) -> Path:
    for col in ("series", "x", "y"):
        if col not in table:
            raise FormatError(f"histogram-overlay needs columns series,x,y (have {sorted(table)})")
    series = table["series"]
    esd_mask = series == "esd"
    qve_mask = series == "qve"
    if not np.any(esd_mask):
        raise FormatError("no 'esd' rows in CSV")
    ex, ey = table["x"][esd_mask].astype(float), table["y"][esd_mask].astype(float)
    qx, qy = table["x"][qve_mask].astype(float), table["y"][qve_mask].astype(float)
    x_lo = float(min(ex.min(), qx.min() if len(qx) else ex.min()))
    x_hi = float(max(ex.max(), qx.max() if len(qx) else ex.max()))
    y_hi = float(max(ey.max(), qy.max() if len(qy) else ey.max())) * 1.05 or 1.0
    parts = _axes(x_lo, x_hi, 0.0, y_hi, "eigenvalue", "density")
    width = (ex[1] - ex[0]) if len(ex) > 1 else (x_hi - x_lo)
    half = 0.5 * width
    for cx, cy in zip(ex.tolist(), ey.tolist()):
        x0 = _scale(cx - half, x_lo, x_hi, MARGIN_L, WIDTH - MARGIN_R)
        x1 = _scale(cx + half, x_lo, x_hi, MARGIN_L, WIDTH - MARGIN_R)
        y0 = _scale(cy, 0.0, y_hi, HEIGHT - MARGIN_B, MARGIN_T)
        h = HEIGHT - MARGIN_B - y0
        parts.append(
            f'<rect x="{x0:.2f}" y="{y0:.2f}" width="{x1 - x0:.2f}" height="{h:.2f}" '
            f'fill="#a6c9e6" stroke="#5c88ad" stroke-width="0.5"/>'
        )
    if len(qx):
        parts.append(_polyline(qx.tolist(), qy.tolist(), x_lo, x_hi, 0.0, y_hi, "#d95f02"))
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
