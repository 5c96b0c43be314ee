"""Deterministic report writers: canonical JSON, CSV, and static SVG charts.

Byte-identical output for identical inputs is a contract here: floats are
serialized with repr (shortest round-trip form), JSON keys are sorted, and
the SVG writer emits no timestamps or random ids.  Wall-clock metadata goes
to a separate run_meta file that determinism checks exclude.  A CSV table is
a dict of named columns, built by the module that computes its numbers;
write_csv formats it one column at a time, and the dict's key order is the
header.
"""

from __future__ import annotations

import json
import math
import os
from typing import Mapping, Sequence

import numpy as np

SCHEMA = "kreisslab/1"


def _canonical(obj):
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return x
    if isinstance(obj, (complex, np.complexfloating)):
        z = complex(obj)
        return {"re": _canonical(z.real), "im": _canonical(z.imag)}
    return obj


def write_json(path, payload: Mapping) -> None:
    body = json.dumps(_canonical(dict(payload)), sort_keys=True, indent=2)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(body + "\n")


def _fmt_column(col) -> list[str]:
    """One CSV column as text: booleans as 1/0, integers as digits, floats by repr."""
    col = np.asarray(col)
    if col.dtype == bool:
        return ["1" if x else "0" for x in col.tolist()]
    if np.issubdtype(col.dtype, np.integer):
        return [str(x) for x in col.tolist()]
    return [repr(x) for x in col.astype(float).tolist()]


def write_csv(path, table: Mapping[str, Sequence]) -> None:
    """Write a table of equal-length named columns; its key order is the header."""
    cells = [_fmt_column(col) for col in table.values()]
    lines = [",".join(table), *map(",".join, zip(*cells))]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv(path) -> tuple[list[str], list[list[float]]]:
    """Header and float rows of a CSV file, blank lines skipped; a malformed
    file raises ValueError naming the file and the line."""
    with open(path, "r", encoding="ascii") as fh:
        lines = [(i, ln.strip()) for i, ln in enumerate(fh, 1) if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: no header line")
    header, rows = lines[0][1].split(","), []
    for i, ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != len(header):
            raise ValueError(f"{path} line {i}: row width {len(cells)}, header width {len(header)}")
        try:
            rows.append([float(tok) for tok in cells])
        except ValueError as exc:
            raise ValueError(f"{path} line {i}: {exc}") from None
    return header, rows


# ---------------------------------------------------------------------------
# Minimal SVG line charts (write-only artifacts, no plotting dependency)
# ---------------------------------------------------------------------------

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_W, _H = 720, 480
_ML, _MR, _MT, _MB = 70, 20, 40, 50


def _transform(vals, lo, hi, out_lo, out_hi, log: bool):
    if log:
        vals = [math.log10(v) for v in vals]
        lo, hi = math.log10(lo), math.log10(hi)
    span = hi - lo if hi > lo else 1.0
    return [out_lo + (v - lo) / span * (out_hi - out_lo) for v in vals]


def svg_line_chart(
    path,
    x: Sequence[float],
    series: Mapping[str, Sequence[float]],
    title: str = "",
    log_x: bool = False,
    log_y: bool = False,
    x_label: str = "n",
) -> None:
    """Render polyline series over a shared x axis to a static SVG file."""
    from xml.sax.saxutils import escape  # imports urllib.request: only plot pays for it

    xs = [float(v) for v in x]
    finite_ys = [
        float(v)
        for vals in series.values()
        for v in vals
        if math.isfinite(float(v)) and (not log_y or float(v) > 0)
    ]
    if not xs or not finite_ys:
        raise ValueError("nothing to plot")
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(finite_ys), max(finite_ys)
    if log_x and x_lo <= 0:
        raise ValueError("log x axis needs positive x values")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.1f}" y="24" text-anchor="middle" font-size="16" '
        f'font-family="monospace">{escape(title)}</text>',
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" height="{_H - _MT - _MB}" '
        f'fill="none" stroke="#444"/>',
        f'<text x="{_W / 2:.1f}" y="{_H - 12}" text-anchor="middle" font-size="13" '
        f'font-family="monospace">{escape(x_label)}</text>',
    ]
    for idx, (name, vals) in enumerate(series.items()):
        pts = []
        for xv, yv in zip(xs, vals):
            yv = float(yv)
            if not math.isfinite(yv) or (log_y and yv <= 0):
                continue
            px = _transform([xv], x_lo, x_hi, _ML, _W - _MR, log_x)[0]
            py = _transform([yv], y_lo, y_hi, _H - _MB, _MT, log_y)[0]
            pts.append(f"{px:.2f},{py:.2f}")
        color = _PALETTE[idx % len(_PALETTE)]
        if pts:
            parts.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                f'points="{" ".join(pts)}"/>'
            )
        ly = _MT + 16 + 16 * idx
        parts.append(
            f'<line x1="{_W - _MR - 150}" y1="{ly - 4}" x2="{_W - _MR - 125}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{_W - _MR - 120}" y="{ly}" font-size="12" '
            f'font-family="monospace">{escape(name)}</text>'
        )
    parts.append("</svg>")
    # a non-ASCII label becomes an XML character reference: e-acute is written &#233;
    with open(path, "w", encoding="ascii", errors="xmlcharrefreplace") as fh:
        fh.write("\n".join(parts) + "\n")


def ensure_out_dir(path) -> str:
    os.makedirs(path, exist_ok=True)
    return str(path)
