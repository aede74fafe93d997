"""The plain-float SVG renderer against the numpy renderer it replaces.

The reference functions below are the earlier implementations, kept
verbatim: `_ticks` as `np.linspace`, per-group `np.median` over boolean
masks, and the histogram overlay's numpy column slices. `_axes` and
`_polyline` are kept with them because they call the old `_ticks` and take
the old (xs, ys) arguments. Each case writes a CSV, renders it through
`emit_plot` and through the reference, and compares the SVG bytes, or the
error both raise.

Values are drawn without signed zeros: which of 0.0 and -0.0 `np.min`
returns depends on its SIMD lanes, and the tick label shows the sign.
"""

import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nlspike.errors import FormatError, ParameterError
from nlspike.harness import emit_plot
from nlspike.harness.analysis import load_table
from nlspike.harness.svgplot import (
    HEIGHT,
    MARGIN_B,
    MARGIN_L,
    MARGIN_R,
    MARGIN_T,
    PALETTE,
    WIDTH,
    _finish,
    _legend,
    _pad,
    _scale,
    _ticks,
)

# ---------------------------------------------------------------------------
# reference renderer
# ---------------------------------------------------------------------------


def _old_ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    return np.linspace(lo, hi, count).tolist()


def _old_axes(x_lo, x_hi, y_lo, y_hi, x_label, y_label) -> list[str]:
    parts = [
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{WIDTH - MARGIN_L - MARGIN_R}" '
        f'height="{HEIGHT - MARGIN_T - MARGIN_B}" fill="none" stroke="black"/>',
    ]
    for tx in _old_ticks(x_lo, x_hi):
        px = _scale(tx, x_lo, x_hi, MARGIN_L, WIDTH - MARGIN_R)
        parts.append(
            f'<line x1="{px:.2f}" y1="{HEIGHT - MARGIN_B}" x2="{px:.2f}" '
            f'y2="{HEIGHT - MARGIN_B + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{HEIGHT - MARGIN_B + 18}" font-size="11" '
            f'text-anchor="middle">{tx:.3g}</text>'
        )
    for ty in _old_ticks(y_lo, y_hi):
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


def _old_polyline(xs, ys, x_lo, x_hi, y_lo, y_hi, color: str) -> str:
    """One 2-px polyline through the points (xs[i], ys[i]), in one pass."""
    points = " ".join(
        f"{_scale(a, x_lo, x_hi, MARGIN_L, WIDTH - MARGIN_R):.2f},"
        f"{_scale(b, y_lo, y_hi, HEIGHT - MARGIN_B, MARGIN_T):.2f}"
        for a, b in zip(xs, ys)
    )
    return f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="2"/>'


def _old_plot_lines(table, y_column: str, out_path: Path) -> Path:
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
    parts = _old_axes(x_lo, x_hi, y_lo, y_hi, x_column, y_column)
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
        parts.append(_old_polyline(ux.tolist(), med, x_lo, x_hi, y_lo, y_hi, color))
        legend.append((label, color))
    parts.extend(_legend(legend))
    return _finish(parts, out_path)


def _old_plot_histogram_overlay(table, out_path: Path) -> Path:
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
    parts = _old_axes(x_lo, x_hi, 0.0, y_hi, "eigenvalue", "density")
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
        parts.append(_old_polyline(qx.tolist(), qy.tolist(), x_lo, x_hi, 0.0, y_hi, "#d95f02"))
    parts.extend(_legend([("empirical", "#a6c9e6"), ("limit density", "#d95f02")]))
    return _finish(parts, out_path)


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

# no signed zeros (see the module docstring): x + 0.0 turns -0.0 into 0.0
MODERATE = st.floats(-10.0, 10.0).map(lambda v: v + 0.0)
HUGE = st.floats(1e199, 1e201) | st.floats(-1e201, -1e199)
Y_CELLS = MODERATE | HUGE | st.sampled_from([math.nan, math.inf, -math.inf])


def _csv(header: str, rows) -> str:
    lines = [",".join(v if isinstance(v, str) else repr(v) for v in row) for row in rows]
    return "\n".join(["# config=test", header, *lines]) + "\n"


@st.composite
def line_tables(draw) -> str:
    """A sweep CSV: trial rows over n x c x trials with y cells that may be
    NaN, infinite, near 1e200 or all one value, then optional summary rows
    (seed -1). With x on "n" there is no c column and no series, as in
    decompose_check.csv."""
    ns = draw(st.lists(st.sampled_from([40, 60, 100, 2000]), min_size=1, max_size=3, unique=True))
    cs = sorted(draw(st.lists(st.floats(0.25, 5.0), min_size=1, max_size=4, unique=True)))
    trials = draw(st.integers(1, 4))
    flat = draw(st.none() | Y_CELLS)
    rows = []
    for n in ns:
        for c in cs:
            for t in range(trials):
                rows.append([n, c, t, 1000 * t + n, flat if flat is not None else draw(Y_CELLS)])
    for n, c in draw(st.lists(st.tuples(st.sampled_from(ns), st.sampled_from(cs)), max_size=3)):
        rows.append([n, c, 0, -1, draw(Y_CELLS)])
    if draw(st.booleans()):
        return _csv("n,c,trial,seed,gamma1", rows)
    return _csv("n,trial,seed,gamma1", [[n, *rest] for n, _, *rest in rows])


@st.composite
def esd_tables(draw) -> str:
    """An esd.csv: one or more esd bars at increasing centers, then zero or
    more qve rows, densities at or above 0."""
    centers = sorted(draw(st.lists(MODERATE, min_size=1, max_size=6, unique=True)))
    densities = st.floats(0.0, 5.0) | st.floats(1e199, 1e201)
    rows = [["esd", x, draw(densities)] for x in centers]
    rows += [["qve", draw(MODERATE), draw(densities)] for _ in range(draw(st.integers(0, 8)))]
    return _csv("series,x,y", rows)


def _render(render, csv_text: str):
    """The SVG bytes the renderer writes for csv_text, or the error it raises."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        path.write_text(csv_text)
        try:
            return Path(render(path, Path(tmp) / "t.svg")).read_bytes()
        except FormatError as exc:
            return (type(exc), str(exc))


LINES = "n,c,trial,seed,gamma1"
SINGLE_C = _csv(LINES, [[40, 1.5, 0, 1, 0.25], [60, 1.5, 0, 2, 0.5]])
FLAT_Y = _csv(LINES, [[40, 1.0, 0, 1, 3.0], [40, 2.0, 0, 2, 3.0]])
NEAR_1E200 = _csv(LINES, [[40, 1.0, 0, 1, 1e200], [40, 2.0, 0, 2, 1e200]])
NAN_AND_SUMMARY = _csv(
    LINES, [[40, 1.0, 0, 1, math.nan], [40, 1.0, 1, 2, 2.0], [40, 2.0, 0, 3, 1.0], [40, 1.0, 0, -1, 1e9]]
)
EVEN_AND_ODD = _csv(
    LINES, [[40, 1.0, t, t, 0.1 * t * t] for t in range(4)] + [[40, 2.0, t, 9 + t, 0.3 * t] for t in range(3)]
)
ESD_NO_QVE = _csv("series,x,y", [["esd", -1.0, 0.5], ["esd", 1.0, 0.25]])
ESD_ONE_BIN = _csv("series,x,y", [["esd", 0.5, 1.0], ["qve", -1.0, 0.5]])
ESD_ONE_BIN_NO_QVE = _csv("series,x,y", [["esd", 0.5, 1.0]])


@settings(max_examples=300, deadline=None)
@given(line_tables())
@example(SINGLE_C)
@example(FLAT_Y)
@example(NEAR_1E200)
@example(NAN_AND_SUMMARY)
@example(EVEN_AND_ODD)
def test_lines_plot_matches_the_numpy_renderer(csv_text):
    new = _render(lambda path, out: emit_plot(path, "lines", y_column="gamma1", out_path=out), csv_text)
    old = _render(lambda path, out: _old_plot_lines(load_table(path), "gamma1", out), csv_text)
    assert new == old


@settings(max_examples=200, deadline=None)
@given(esd_tables())
@example(ESD_NO_QVE)
@example(ESD_ONE_BIN)
@example(ESD_ONE_BIN_NO_QVE)
def test_histogram_overlay_matches_the_numpy_renderer(csv_text):
    new = _render(lambda path, out: emit_plot(path, "histogram-overlay", out_path=out), csv_text)
    old = _render(lambda path, out: _old_plot_histogram_overlay(load_table(path), out), csv_text)
    assert new == old


@given(st.floats(allow_nan=False, allow_infinity=False), st.floats(allow_nan=False, allow_infinity=False))
@example(0.0, 5e-324)  # a span whose quarter underflows to 0
@example(-1e308, 1e308)  # a span that overflows to inf
@example(2.5, 2.5)
def test_ticks_match_linspace(lo, hi):
    with np.errstate(over="ignore", invalid="ignore"):
        old = _old_ticks(lo, hi)
    assert list(map(repr, _ticks(lo, hi))) == list(map(repr, old))
