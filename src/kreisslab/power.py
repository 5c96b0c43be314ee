"""Growth profiling of ||T^n||, regression against n^alpha (log(n+2))^beta,
and the margins of ||T^n|| against the universal ceilings.

growth_table and check_universal_bounds build the growth.csv and bounds.csv
tables as dicts of numpy columns, in header order.

The polynomial and polynomial-log exponents are nearly collinear over a
single octave of n, so fits use a wide window (n >= sqrt(n_max) by default)
rather than only the top of the range; with data up to 2^14 this separates
alpha from beta to ~0.002 / ~0.02 under 1% multiplicative noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .norms import AscentConfig, power_norm_sequence
from .operators import ComplexMatrix, _require

_E = math.e

MIN_FIT_SAMPLES = 8  # the fewest (n, value) samples growth_fit accepts


class DegenerateFitError(ValueError):
    """The regression design matrix is rank-deficient."""


@dataclass(frozen=True)
class GrowthFit:
    alpha: float
    beta: float
    logC: float
    residual: float  # RMS of log-space misfit over the fitted window
    n_range: tuple[int, int]


def default_fit_floor(n_max: int) -> int:
    return max(8, math.isqrt(n_max))


def growth_fit(seq, model: str = "poly") -> GrowthFit:
    """Least squares of log v against log n (and log log(n+2) for poly_log).

    `seq` is a list of (n, value) with positive finite values and strictly
    increasing n; at least 8 samples are required.  Samples below the fit
    floor are dropped to suppress transients unless that would leave fewer
    than 8 points.
    """
    if model not in ("poly", "poly_log"):
        raise ValueError(f"unknown model {model!r}")
    pts = [(int(n), float(v)) for n, v in seq]
    if len(pts) < MIN_FIT_SAMPLES:
        raise ValueError(f"need at least {MIN_FIT_SAMPLES} samples")
    ns = np.array([n for n, _ in pts], dtype=float)
    vs = np.array([v for _, v in pts], dtype=float)
    bad = ~np.isfinite(vs)
    if bad.any():
        raise ValueError(f"the value at n = {int(ns[bad][0])} is {vs[bad][0]}; "
                         "a fit needs finite values")
    if np.any(vs <= 0):
        raise ValueError("values must be positive")
    if np.any(np.diff(ns) <= 0):
        raise ValueError("n must be strictly increasing")
    keep = ns >= default_fit_floor(int(ns[-1]))
    if int(keep.sum()) < MIN_FIT_SAMPLES:
        keep = np.ones_like(keep, dtype=bool)
    nf, vf = ns[keep], vs[keep]
    cols = [np.ones_like(nf), np.log(nf)]
    if model == "poly_log":
        cols.append(np.log(np.log(nf + 2.0)))
    X = np.stack(cols, axis=1)
    y = np.log(vf)
    coef, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
    if rank < X.shape[1]:
        raise DegenerateFitError("design matrix is rank-deficient over the fit window")
    resid = float(np.sqrt(np.mean((X @ coef - y) ** 2)))
    beta = float(coef[2]) if model == "poly_log" else 0.0
    return GrowthFit(
        alpha=float(coef[1]),
        beta=beta,
        logC=float(coef[0]),
        residual=resid,
        n_range=(int(nf[0]), int(nf[-1])),
    )


def growth_table(T: ComplexMatrix, p: float, n_max: int,
                 cfg: AscentConfig) -> dict[str, np.ndarray]:
    """The growth.csv table: bounds of ||T^n||_p for n = 1..n_max as columns."""
    lower, upper = power_norm_sequence(T, p, n_max, cfg)
    return {"n": np.arange(1, n_max + 1), "norm_lower": lower, "norm_upper": upper}


def check_universal_bounds(
    T: ComplexMatrix,
    p: float,
    k_ref: float,
    ks_ref: float,
    n_max: int,
    cfg: AscentConfig = AscentConfig(),
) -> tuple[dict, dict[str, np.ndarray]]:
    """Margins of ||T^n|| against the linear, square-root and dimension ceilings
    K e (n+1), Ks sqrt(2 pi (n+1)) and K e d, for n <= n_max.

    Returns (summary, table).  The table is the growth table with a ceiling
    and a margin column per ceiling: the bounds.csv table.  The summary holds
    the minimum margins and the n where each first occurs, and the Kreiss
    floors that the powers imply.  Margins divide by the upper side of the
    norm bounds (inf where it is 0), so a margin below 1 is a real numeric
    finding and not an ascent artifact.  Because k_ref and ks_ref are
    themselves lower bounds of the true constants, such a finding flags
    inconsistency of the substituted reference, not of the ceiling.
    """
    _require("k_ref", k_ref, 0, math.inf, "()")
    _require("ks_ref", ks_ref, 0, math.inf, "()")
    table = growth_table(T, p, n_max, cfg)
    n, lower, upper = table["n"], table["norm_lower"], table["norm_upper"]
    root = np.sqrt(2.0 * math.pi * (n + 1))
    with np.errstate(over="ignore"):  # a ceiling past the float range is inf, its margin too
        ceilings = {"kreiss": k_ref * _E * (n + 1), "strong": ks_ref * root,
                    "matrixthm": np.full(len(n), k_ref * _E * T.dim)}
    summary = {}
    table.update({f"ceiling_{c}": ceiling for c, ceiling in ceilings.items()})
    for c, ceiling in ceilings.items():
        margin = np.divide(ceiling, upper, out=np.full(len(n), math.inf), where=upper != 0)
        table[f"margin_{c}"] = margin
        i = int(np.argmin(margin))
        summary[f"min_margin_{c}"], summary[f"n_at_min_{c}"] = float(margin[i]), int(n[i])
    floors = {"k_floor": lower / (_E * (n + 1)), "k_floor_matrixthm": lower / (_E * T.dim),
              "ks_floor": lower / root}
    for name, floor in floors.items():
        summary[f"implied_{name}"] = max(0.0, float(np.max(floor)))
    # the best available lower bound for the true Kreiss constant
    summary["combined_k_floor"] = max(summary["implied_k_floor"],
                                      summary["implied_k_floor_matrixthm"], k_ref)
    return summary, table


def bounds_flagged(summary: dict) -> bool:
    """A minimum margin of check_universal_bounds' summary lies below 1 - 1e-6."""
    return any(v < 1.0 - 1e-6 for k, v in summary.items() if k.startswith("min_margin_"))
