"""CSV loading and transition-midpoint extraction for sweep outputs."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..errors import FormatError


def load_table(path) -> dict[str, np.ndarray]:
    """Read a harness CSV (comment lines prefixed '#') into named columns.

    Numeric columns come back as float arrays, anything else as object
    arrays of strings.
    """
    lines = [
        line.strip()
        for line in Path(path).read_text().splitlines()
        if line.strip() and not line.startswith("#")
    ]
    if not lines:
        raise FormatError(f"{path}: no data")
    header = lines[0].split(",")
    cells = [line.split(",") for line in lines[1:]]
    if any(len(row) != len(header) for row in cells):
        raise FormatError(f"{path}: ragged rows")
    out: dict[str, np.ndarray] = {}
    for j, name in enumerate(header):
        column = [row[j] for row in cells]
        try:
            out[name] = np.array([float(v) for v in column])
        except ValueError:
            out[name] = np.array(column, dtype=object)
    return out


def _logistic(x, lo, hi, x0, w):
    return lo + (hi - lo) / (1.0 + np.exp(-(x - x0) / w))


def fit_transition_midpoint(x, y) -> tuple[float, dict]:
    """Fit a monotone rising logistic to (x, y) and return its midpoint.

    The midpoint is the half-saturation location x0 of
    lo + (hi - lo) / (1 + exp(-(x - x0)/w)) with hi > lo and w > 0.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) < 4:
        raise FormatError("need at least 4 points to fit a transition")
    order = np.argsort(x)
    x, y = x[order], y[order]
    lo0, hi0 = float(np.min(y)), float(np.max(y))
    half = 0.5 * (lo0 + hi0)
    above = np.nonzero(y >= half)[0]
    x0_init = float(x[above[0]]) if len(above) else float(np.median(x))
    span = float(x[-1] - x[0]) or 1.0
    p0 = [lo0, hi0, x0_init, span / 10.0]
    bounds = (
        [-0.5, lo0, x[0] - span, 1e-4 * span],
        [hi0 + 0.5, hi0 + 0.5, x[-1] + span, 2.0 * span],
    )
    # imported here: scipy.optimize is slow to load and only fits need it
    from scipy.optimize import curve_fit

    params, _ = curve_fit(_logistic, x, y, p0=p0, bounds=bounds, maxfev=20_000)
    lo, hi, x0, w = (float(v) for v in params)
    return x0, {"lo": lo, "hi": hi, "width": w}
