"""Kreiss-type resolvent diagnostics evaluated as suprema over search grids.

Four functionals of an operator T with spectral radius <= 1:

  kreiss_constant          sup_{|l|>1} (|l|-1) ||(l-T)^{-1}||
  strong_kreiss_constant   sup_{|l|>1, n} (|l|-1)^n ||(l-T)^{-n}||
  exponential_criterion    sup_{xi in C} e^{-|xi|} ||e^{xi T}||
  cesaro_partial_sum_bound sup_{|l|=1, n} ||sum_{k<=n} l^k T^k|| / (n+1)

All reported values are lower bounds of the suprema: the grid is truncated at
r_max, but the analytic |lambda| -> inf limit of the first two functionals
equals 1 exactly and is always included in the max.  Upper "hints" are
advisory only; no Lipschitz certificate is claimed.

A search reads few of the values it evaluates, and one bound-pruned sweep,
_pruned_sweep, values every matrix stack of every search: the resolvents of
kreiss_constant at p != 2 and the exponentials of exponential_criterion as
stacks of one step, the resolvent powers of strong_kreiss_constant and the
partial sums of the Cesaro and GZ scans as stacks of many.  It norms a
(point, n) pair only where its certified upper bound (norms._log_norm_bounds,
for resolvent powers also the cap of norms._log_step_cap) reaches its
group's floor, the top-th best value of the group, so each group's first
maximum and top best values, with their first n, are exact: bit for bit the
values a norm at every pair gives.  kreiss_constant at p = 2 takes sigma_min
of each l - T instead.

Before any matrix is built, each search point gets a prior, a certified
upper bound on its value from T's entries alone (norms._prior_log_bounds):
(|l| - 1) / beta for kreiss_constant, with beta a lower bound on
sigma_min(l - T) at p = 2 and on its p-norm analogue elsewhere,
max(L, n_max L), L = log((|l| - 1) / beta), for strong_kreiss_constant,
and a bound on e^{-|xi|} ||e^{xi T}|| for exponential_criterion.  beta is
the larger of a diagonal-dominance bound (Johnson's at p = 2) and, at
p = 2, Ostrowski's comparison-matrix bound |(l - T)^{-1}| <= M(l)^{-1};
||e^{xi T}|| is bounded by the lesser of e^{|xi| mu}, mu a logarithmic
norm of e^{it} T, and the comparison-matrix bound |e^{xi T}| <=
e^{|xi| a} e^{|xi| N}, N = |off(T)|, which sees a non-normal transient.
The priors hold at every p, and inside |l| <= ||T|| too.  Only the points
whose prior reaches their group's floor get an SVD, an inverse and power
ledger, or an exponential.

kreiss_constant, strong_kreiss_constant and exponential_criterion reach their
suprema through one grid-and-refine search, _search, which prunes by the
priors through norms._top_norms.  It evaluates the whole grid as one group
with top = 5, the five best grid points being the seeds of refinement in
stable argsort order (so exact ties always resolve the same way), and runs
refine_rounds shrinking grids of up to 9x9 points around each seed, all five
seeds' grids in one evaluation per round, one group with top = 1 per seed.
A refined point replaces the best so far only when it is strictly larger:
the first strict maximum, in grid-then-seed order, wins.  The strong-Kreiss
evaluation returns with each value the n attaining it, and that n travels
with the point through refinement, so a refined argmax needs no second
sweep.  The Cesaro and GZ scans are one group with top = 1.

One builder, _resolvents, gives every grid's l - T and (l - T)^{-1}.  Every
power, of T or of a resolvent, comes from norms._power_ledger, and every
norm and norm bound from norms; the Cesaro and GZ scans read
T^k = e^{log_scale} M from the ledger through _partial_sums.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .norms import (AscentConfig, _LOG_MARGIN, _batched_norm_lower, _log_norm_bounds,
                    _log_step_cap, _power_ledger, _prior_log_bounds, _rescale,
                    _smallest_singular_values, _step_slack, _top_norms, _tops)
from .operators import ComplexMatrix, _require

_RHO_TOL = 1e-9
_R_MIN_OFFSET = 1e-8
_REFINE_SHRINK = 0.25  # each refinement round shrinks the local grid by this factor
_SEEDS = 5  # grid points that seed refinement
_NORM_FLOOR = 1e-300  # exponential_criterion scores a smaller norm as this one
_LOG_FLOOR = float(np.log(_NORM_FLOOR))


@dataclass(frozen=True)
class SearchConfig:
    """Grid over the resolvent domain |lambda| > 1.

    Radii live at 1 + 10^x with x equally spaced between log10(1e-8) and
    log10(r_max - 1); the blow-up regime near the unit circle therefore gets
    log-uniform coverage.  Counts are segment counts, so doubling them yields
    a strict refinement of the grid.
    """

    r_max: float = 1e6
    radial_count: int = 48
    angular_count: int = 64
    refine_rounds: int = 3
    seed: int = 0
    p: float = 2.0

    def __post_init__(self):
        _require("r_max", self.r_max, 1, math.inf, "()")
        _require("radial_count", self.radial_count, 4)
        _require("angular_count", self.angular_count, 4)
        _require("refine_rounds", self.refine_rounds, 0)
        _require("seed", self.seed, 0)
        _require("p", self.p, 1, math.inf, "[]")

    def ascent(self) -> AscentConfig:
        # reduced engine for per-grid-point lower bounds at general p
        return AscentConfig(restarts=8, max_steps=150, rel_tol=1e-9, seed=self.seed)


@dataclass(frozen=True)
class FunctionalEstimate:
    """A certified-from-below functional value with its search witness."""

    value: float
    argmax: complex | None
    n_at_max: int | None = None
    diverged: bool = False


def _angles(count: int) -> np.ndarray:
    return 2.0 * np.pi * np.arange(count) / count


def _grid(cfg: SearchConfig):
    lo = math.log10(_R_MIN_OFFSET)
    hi = math.log10(cfg.r_max - 1.0)
    xs = lo + (hi - lo) * np.arange(cfg.radial_count + 1) / cfg.radial_count
    return xs, _angles(cfg.angular_count)


def _search(evaluate, prior, xs, step, bounds, cfg: SearchConfig):
    """Grid-and-refine maximum of evaluate over xs x angles; returns (value, (x, t), n).

    prior(x, t) returns a certified upper bound on each point's value, from
    T's entries alone, and evaluate(x, t, groups, top, start) returns the
    values at the points and the n attaining each one, or None for n.
    groups holds the index of the first point of each group, a run of
    consecutive points, and start, a (groups, top) array, the best values
    other points of each group attain.  Only each group's first maximum and
    its top best values among its points and start must be exact: another
    point may fall short, down to -inf, if its value is below the top-th.
    Every evaluation goes through norms._top_norms on the priors, so
    evaluate sees only the points whose prior reaches their group's floor:
    first every point without a finite prior and each group's top
    highest-prior points, then, with start their best values, the others
    whose prior is not below the floor.  No point is evaluated twice.

    The grid is one group with top = _SEEDS.  Seeds are its _SEEDS best
    points in stable argsort order; each gets cfg.refine_rounds shrinking
    grids of up to 9x9 points and half-widths (step, one angle step).  A
    round evaluates the seeds' grids as one stack, one group with top = 1 per
    seed, and reads each seed's first maximum.  x is clipped to bounds, and the
    x values clipping repeats are evaluated once: a repeated x would repeat
    its whole row of values, and the first maximum keeps the same (x, t).
    The rounds' maxima are compared with the best in (seed, round) order.
    """

    def mesh(x, t):
        X, Tt = np.meshgrid(x, t, indexing="ij")
        return X.ravel(), Tt.ravel()

    def point(vals, ns, xf, tf, i):
        return float(vals[i]), (float(xf[i]), float(tf[i])), None if ns is None else int(ns[i])

    def run(xf, tf, groups, top):
        owner = np.repeat(np.arange(len(groups)), np.diff(groups, append=len(xf)))
        found = []

        def value(idx, tops):
            pts = np.arange(len(xf))[idx]
            heads = np.flatnonzero(np.diff(owner[pts], prepend=-1))  # a group per owner seen
            vals, n = evaluate(xf[pts], tf[pts], heads, top, tops[heads])
            if n is not None:
                found.append((pts, n))
            return vals

        vals = _top_norms(prior(xf, tf), groups, top, value, np.empty((len(groups), 0)))
        if not found:
            return vals, None
        ns = np.zeros(len(xf), dtype=int)
        for pts, n in found:
            ns[pts] = n
        return vals, ns

    xf, tf = mesh(xs, _angles(cfg.angular_count))
    vals, ns = run(xf, tf, np.zeros(1, dtype=int), _SEEDS)
    best = point(vals, ns, xf, tf, int(np.argmax(vals)))
    centers = [(float(xf[j]), float(tf[j]))
               for j in np.argsort(vals, kind="stable")[::-1][:_SEEDS]]
    offs = np.linspace(-1.0, 1.0, 9)
    wx, wt = step, 2 * np.pi / cfg.angular_count
    rounds = []
    for _ in range(cfg.refine_rounds):
        grids = [mesh(np.unique(np.clip(cx + wx * offs, *bounds)), ct + wt * offs)
                 for cx, ct in centers]
        ends = np.cumsum([len(g[0]) for g in grids])
        starts = np.concatenate([[0], ends[:-1]])
        xf, tf = map(np.concatenate, zip(*grids))
        vals, ns = run(xf, tf, starts, 1)
        rounds.append([point(vals, ns, xf, tf, a + int(np.argmax(vals[a:b])))
                       for a, b in zip(starts, ends)])
        centers = [top[1] for top in rounds[-1]]
        wx, wt = wx * _REFINE_SHRINK, wt * _REFINE_SHRINK
    for seed_tops in zip(*rounds):
        for top in seed_tops:
            if top[0] > best[0]:
                best = top
    return best


def _xt_to_lambda(xt: tuple[float, float]) -> complex:
    r = 1.0 + 10.0 ** xt[0]
    return r * complex(math.cos(xt[1]), math.sin(xt[1]))


def _resolvents(T: ComplexMatrix, xflat: np.ndarray, tflat: np.ndarray, invert: bool):
    """r = |l| and the stack l - T at the points l = (1 + 10^x) e^{it}, or with invert
    the resolvents R = (l - T)^{-1}.  An OverflowError names the least |l| at which R
    is not finite."""
    r = 1.0 + 10.0 ** xflat
    A = (r * np.exp(1j * tflat))[:, None, None] * np.eye(T.dim) - T.entries
    if not invert:
        return r, A
    R = np.linalg.inv(A)
    _check_resolvents(r, np.isfinite(R).all(axis=(1, 2)))
    return r, R


def _check_resolvents(r: np.ndarray, finite: np.ndarray) -> None:
    """Name the least |l| = r where (l - T)^{-1} is not finite in an OverflowError."""
    if not finite.all():
        raise OverflowError(f"(l - T)^{{-1}} left the float range at |l| = "
                            f"{r[~finite].min():.6g}")


def _one_step(M: np.ndarray):
    """The stack of _pruned_sweep that yields the matrices M once, as (1, M, 0)."""
    zero = np.zeros(len(M))
    return lambda pts: iter([(1, M[pts], zero[pts])])


def kreiss_constant(T: ComplexMatrix, cfg: SearchConfig = SearchConfig()) -> FunctionalEstimate:
    """Grid-and-refine lower bound of the Kreiss constant sup (|l|-1)||(l-T)^{-1}||.

    The analytic limit value lim_{|l|->inf} (|l|-1)||(l-T)^{-1}|| = 1 is taken
    into the max explicitly; several gallery operators attain the sup only
    there.
    """
    rho = T.spectral_radius()
    if rho > 1.0 + _RHO_TOL:
        return FunctionalEstimate(math.inf, None, diverged=True)

    acfg = cfg.ascent()

    def evaluate(xflat: np.ndarray, tflat: np.ndarray, groups, top, start):
        r, M = _resolvents(T, xflat, tflat, cfg.p != 2)
        if cfg.p == 2:  # M = l - T: (r - 1) / sigma_min(M)
            with np.errstate(divide="ignore", over="ignore"):
                vals = (r - 1.0) / _smallest_singular_values(M)
            _check_resolvents(r, np.isfinite(vals))
            return vals, None
        return _pruned_sweep(_one_step(M), lambda n, idx, _, norms: (r[idx] - 1.0) * norms,
                             cfg.p, acfg, groups, top, start)

    def prior(xflat: np.ndarray, tflat: np.ndarray):  # (r - 1) / beta
        r = 1.0 + 10.0 ** xflat
        with np.errstate(over="ignore"):
            return (r - 1.0) * np.exp(_prior_log_bounds(T.entries, cfg.p, r, tflat, "resolvent"))

    xs, _ = _grid(cfg)
    best, best_xt, _ = _search(evaluate, prior, xs, (xs[-1] - xs[0]) / cfg.radial_count,
                               (xs[0], xs[-1]), cfg)
    if best >= 1.0:
        return FunctionalEstimate(best, _xt_to_lambda(best_xt))
    # sup attained only in the |lambda| -> inf limit
    return FunctionalEstimate(1.0, None)


def _pruned_sweep(stack, score, p: float, acfg: AscentConfig, groups, top: int, start,
                  powers: int = 0):
    """Per-point max of score(n, idx, log_scale, ||M||_p) over the steps of a matrix
    stack, with norms only where they can reach the top values of a group of points.

    stack(pts) yields (n, M, log_scale) in increasing n for the points pts (an
    index array or slice(None)), point pts[k] having the matrix
    e^{log_scale[k]} M[k].  score must not decrease as a norm grows, as no
    rounded sum, product, quotient or log does.  groups holds the index of
    the first point of each group, a run of consecutive points, and start
    the values that other points attain, which each group's points compete
    with: a (groups, k) array, or one float for every group.  Each group
    keeps one floor: the top-th largest of start and its points' lower
    bounds, each the largest score or scored lower bound of the point's
    pairs.  A pair whose scored upper bound is below its group's floor
    scores strictly below top points of the group, so it is dropped (a NaN
    bound keeps it).

    Pass 1 takes the first step's norms through _top_norms, the group's top
    highest-bound points first, and scored _log_norm_bounds at the other
    steps, and ends holding the last step: it takes the norms there that the
    pooled floors keep, since the max usually sits at the last step, and
    raises the floors with them.  Pass 2 reruns the stack on the points that
    keep a pair of the steps between, which is cheaper than storing every
    matrix, and takes norms in increasing n, re-testing each pair as they
    raise the floors.  An equal score at a smaller n replaces a point's best.

    Returns each point's best score and the first n attaining it (0 if none
    beats -inf), or None when the stack has no step.  The points holding a
    group's top best values, and every point tied with the top-th, get their
    value and n exactly, as does a group's first max; another point may fall
    short of its own max, down to -inf.  A matrix's norm is the same in any
    stack, so the exact values are those of a norm at every pair, bit for
    bit.

    powers, when not 0, is the last n of a stack of the powers R^n, n >= 1,
    of one R per point, scored as the log of g^n ||R^n|| for a g > 0 per
    point.  Then log ||R^n|| <= n log ||R|| caps their bounds: with c the
    score at n = 1 of norms._log_step_cap, every later pair's scored
    upper bound is at most n c.  A point whose n c, with _LOG_MARGIN to
    spare for the rounding of the scored bounds, is below its floor after
    the first step at n = 2 and at the last n, and so at every n between,
    has no later pair that can reach the floor, which only rises: it leaves
    pass 1, and the stack restarts on the points kept.  Its lower bounds at
    those pairs lie below the floor too, so they could not raise it: every
    floor, every norm taken and every value stays what a sweep over every
    point gives.
    """
    steps = stack(slice(None))
    try:
        n, M, log_scale = next(steps)
    except StopIteration:  # no step at all
        return None
    every = np.arange(len(M))
    sizes = np.diff(groups, append=len(M))
    norms = np.full(len(M), np.nan)
    if np.ndim(start) == 0:  # one value for every group
        start = np.full((len(groups), 1), start)

    def first(idx, _tops):
        norms[idx] = _batched_norm_lower(M[idx], p, acfg)
        return score(n, idx, log_scale[idx], norms[idx])

    def scored(n, idx, log_scale, log_norms):
        with np.errstate(over="ignore", divide="ignore"):
            return score(n, idx, log_scale, np.exp(log_norms))

    def pool():  # every point gets its group's floor
        return np.repeat(_tops(np.maximum(low, best), groups, top, start)[:, -1], sizes)

    def take(n, idx, mats, log_scale):
        vals = score(n, idx, log_scale, _batched_norm_lower(mats, p, acfg))
        better = (vals > best[idx]) | ((vals == best[idx]) & (n < best_n[idx]))
        best[idx] = np.where(better, vals, best[idx])
        best_n[idx] = np.where(better, n, best_n[idx])

    lo, hi = _log_norm_bounds(M, p)
    vals = _top_norms(scored(n, every, log_scale, hi), groups, top, first, start)
    best = np.where(vals > -np.inf, vals, -np.inf)
    best_n = np.where(vals > -np.inf, n, 0)
    low = scored(n, every, log_scale, lo)  # with best, each point's lower bound
    kept = every
    if powers > 1:
        per_power = _log_step_cap(M, p, log_scale, hi, norms)
        c = scored(1, every, per_power, 0.0)  # n c caps the scored bounds at n
        kept = np.flatnonzero(~(np.maximum(2 * c, powers * c) + _LOG_MARGIN < pool()))
        per_power = per_power[kept]
        if kept.size < len(every):  # restart on the points kept, if any: the ledger
            steps = stack(kept) if kept.size else iter(())  # needs a point
            next(steps, None)
    uppers = []
    for n, M, log_scale in steps:
        lo, hi = _log_norm_bounds(M, p)
        if powers > 1:
            hi = np.minimum(hi, n * per_power - log_scale)
        low[kept] = np.maximum(low[kept], scored(n, kept, log_scale, lo))
        uppers.append(scored(n, kept, log_scale, hi))
    floor = pool()
    if uppers:  # n, M and log_scale hold the last step, which its generator no longer touches
        rows = np.flatnonzero(~(uppers.pop() < floor[kept]))
        if rows.size:
            take(n, kept[rows], M[rows], log_scale[rows])
            floor = pool()
    del M  # no stack of pass 1 outlives it
    need = np.array([~(up < floor[kept]) for up in uppers]).reshape(len(uppers), len(kept))
    sel = np.flatnonzero(need.any(axis=0))
    if sel.size:
        pts = kept[sel]
        steps = stack(pts)
        next(steps)
        last = np.flatnonzero(need.any(axis=1))[-1]
        for up, (n, M, log_scale) in zip(uppers[:last + 1], steps):
            rows = np.flatnonzero(~(up[sel] < floor[pts]))
            if rows.size:
                take(n, pts[rows], M[rows], log_scale[rows])
                floor = pool()
    return best, best_n


def _sweep_max(stack, score, p: float, acfg: AscentConfig, start: float):
    """(value, point, n) of the largest score of _pruned_sweep over all points as one
    group, ties going to the smallest n and then point, or (start, 0, 0) when no
    score exceeds start."""
    swept = _pruned_sweep(stack, score, p, acfg, np.zeros(1, dtype=int), 1, start)
    if swept is None:
        return start, 0, 0
    best, best_n = swept
    i = int(np.lexsort((best_n, -best))[0])
    if not best[i] > start:
        return start, 0, 0
    return float(best[i]), i, int(best_n[i])


def _strong_kreiss_sweep(T: ComplexMatrix, xflat: np.ndarray, tflat: np.ndarray, n_max: int,
                         p: float, acfg: AscentConfig, groups, top: int,
                         start) -> tuple[np.ndarray, np.ndarray]:
    """Per-point max over 1 <= n <= n_max of the log score, and the first n attaining it.

    Points are l = (1 + 10^x) e^{it}, and the score is
    n log(|l|-1) + log ||(l-T)^{-n}||_p, swept over the resolvent powers by
    _pruned_sweep with one floor per group, which the values in start join:
    only each group's first max and its top best values are exact.
    """
    r, R = _resolvents(T, xflat, tflat, True)
    log_gap = np.log(r - 1.0)

    def score(n, idx, log_scale, norms):
        with np.errstate(divide="ignore"):
            return n * log_gap[idx] + log_scale + np.log(norms)

    return _pruned_sweep(lambda pts: _power_ledger(R[pts], n_max), score, p, acfg, groups, top,
                         start, n_max)


def strong_kreiss_constant(
    T: ComplexMatrix,
    cfg: SearchConfig = SearchConfig(),
    n_max: int = 16,
    k_est: FunctionalEstimate | None = None,
) -> FunctionalEstimate:
    """Lower bound of sup over |l|>1 and 1<=n<=n_max of (|l|-1)^n ||(l-T)^{-n}||.

    Resolvent powers come from the power ledger, one log scale per point,
    and the score is assembled in the log domain, so large n cannot
    underflow (|l|-1)^n or overflow the powers.  The n=1 term is merged with
    kreiss_constant's refined estimate, which makes Ks_lower >= K_lower hold
    by construction; a caller that already has that estimate for the same
    T and cfg passes it as k_est instead of having it computed again.
    """
    _require("n_max", n_max, 1)
    rho = T.spectral_radius()
    if rho > 1.0 + _RHO_TOL:
        return FunctionalEstimate(math.inf, None, diverged=True)

    acfg = cfg.ascent()

    def sweep(xflat: np.ndarray, tflat: np.ndarray, groups, top, start):
        return _strong_kreiss_sweep(T, xflat, tflat, n_max, cfg.p, acfg, groups, top, start)

    def prior(xflat: np.ndarray, tflat: np.ndarray):  # max over n of n L, L = log((r - 1) / beta)
        r = 1.0 + 10.0 ** xflat
        step = (np.log(r - 1.0) + _prior_log_bounds(T.entries, cfg.p, r, tflat, "resolvent")
                + _step_slack(T.dim))
        return np.maximum(step, n_max * step) + _LOG_MARGIN

    xs, _ = _grid(cfg)
    best_log, best_xt, best_n = _search(sweep, prior, xs, (xs[-1] - xs[0]) / cfg.radial_count,
                                        (xs[0], xs[-1]), cfg)
    if k_est is None:
        k_est = kreiss_constant(T, cfg)
    candidates = [
        (best_log, _xt_to_lambda(best_xt), best_n),
        (math.log(k_est.value), k_est.argmax, 1),
        (0.0, None, None),  # |lambda| -> inf limit, value 1 for every n
    ]
    log_val, argmax, n_at = max(candidates, key=lambda c: c[0])
    return FunctionalEstimate(_rescale(1.0, log_val), argmax, n_at_max=n_at)


def _exp_divided_differences(x: np.ndarray) -> np.ndarray:
    """(e^b - e^a) / (b - a) for each pair a = x_k, b = x_{k+1} along the last axis, e^a
    where b = a.  Where 0 < |z| <= 1, z = (b - a) / 2, it is e^{(a+b)/2} sinh(z) / z
    (Higham, Functions of Matrices, (10.42)), as the quotient cancels for close a
    and b; elsewhere the quotient, as in scipy.linalg.expm, as sinh(z) may overflow."""
    ex = np.exp(x)
    a, b, ea, eb = x[..., :-1], x[..., 1:], ex[..., :-1], ex[..., 1:]
    z = (b - a) / 2
    near = (z != 0) & (abs(z) <= 1)
    far = (z != 0) & ~near
    out = ea.copy()
    out[far] = (eb[far] - ea[far]) / (b - a)[far]
    out[near] = np.exp((a[near] + b[near]) / 2) * (np.sinh(z[near]) / z[near])
    return out


def _expm_stack(A: np.ndarray) -> np.ndarray:
    """scipy.linalg.expm of each matrix of a float64 or complex128 (B, d, d) stack, with
    the squaring done once per group of matrices instead of once per matrix.

    This replays the algorithm of scipy.linalg.expm (Al-Mohy and Higham, SIAM
    J. Matrix Anal. Appl. 31 (2009)) on scipy's private kernels, in the
    calling convention of scipy 1.17, the floor pyproject.toml sets.  Each matrix
    gets scipy's Pade step in order, through one reused scratch array: a
    diagonal matrix its exact exponential, any other pick_pade_structure and
    pade_UV_calc.  The Pade results are then grouped by their number s of
    squarings and their kind (upper or lower triangular, or generic), and
    each group is squared as one stack: E @ E, and on triangular groups the
    diagonal and first off-diagonal reset from the exact formulas (Code
    Fragment 2.1 of the paper) and the other triangle zeroed.  Every step is
    the per-matrix operation scipy applies, but for the first off-diagonal of
    a triangular matrix, from _exp_divided_differences, which does not cancel
    for close diagonal entries as scipy's does.  Tests pin the other matrices
    to scipy.linalg.expm bit for bit, and those to an mpmath oracle.
    """
    from scipy.linalg._matfuncs_expm import pade_UV_calc, pick_pade_structure  # on first use

    d = A.shape[-1]
    nonzero = A != 0  # scipy.linalg.bandwidth's split of each matrix, for the whole stack
    below, above = np.tril(nonzero, -1).any(axis=(1, 2)), np.triu(nonzero, 1).any(axis=(1, 2))
    eA = np.empty_like(A)
    Am = np.empty((5, d, d), dtype=A.dtype)  # scratch; Am[0] holds the Pade result
    groups: dict[tuple[int, str], list[int]] = {}
    for b, aw in enumerate(A):
        if not (below[b] or above[b]):
            eA[b] = np.diag(np.exp(np.diag(aw)))
            continue
        Am[0] = aw
        m, s = pick_pade_structure(Am)
        if m < 0:
            raise MemoryError("scipy.linalg.expm could not allocate sufficient memory while "
                              f"trying to compute the Pade structure (error code {m}).")
        info = pade_UV_calc(Am, m)
        if info != 0:
            if info <= -11:
                raise MemoryError("scipy.linalg.expm could not allocate sufficient memory "
                                  f"while trying to compute the exponential (error code {info}).")
            raise RuntimeError("scipy.linalg.expm got an internal LAPACK error during the "
                               f"exponential computation (error code {info})")
        eA[b] = Am[0]
        kind = "upper" if not below[b] else "lower" if not above[b] else "generic"
        groups.setdefault((s, kind), []).append(b)
    for (s, kind), idx in groups.items():
        E = eA[idx]
        if kind == "generic":
            for _ in range(s):
                E = E @ E
            eA[idx] = E
            continue
        if s:
            Ag = A[idx]
            diag = np.diagonal(Ag, 0, -2, -1)
            sd = np.diagonal(Ag, 1 if kind == "upper" else -1, -2, -1)
            np.einsum("...ii->...i", E)[:] = np.exp(diag * 2.0**-s)
            for i in range(s - 1, -1, -1):
                E = E @ E
                np.einsum("...ii->...i", E)[:] = np.exp(diag * 2.0**-i)
                off = E[:, :-1, 1:] if kind == "upper" else E[:, 1:, :-1]
                np.einsum("...ii->...i", off)[:] = _exp_divided_differences(diag * 2.0**-i) * (sd * 2.0**-i)
        eA[idx] = np.triu(E) if kind == "upper" else np.tril(E)
    return eA


def exponential_criterion(
    T: ComplexMatrix, cfg: SearchConfig = SearchConfig(), xi_max: float = 40.0
) -> FunctionalEstimate:
    """Lower bound of sup_xi e^{-|xi|} ||e^{xi T}|| over the disc |xi| <= xi_max.

    The modulus grid includes xi = 0, where the functional equals 1 exactly.
    Matrix exponentials come from _expm_stack: scipy's Pade kernels run per
    matrix and the squaring runs batched over each evaluated stack.  The
    search values them through _pruned_sweep as a stack of one step.  An
    OverflowError names the least |xi| of an evaluation whose e^{xi T} is not
    finite.
    """
    _require("xi_max", xi_max, 0, math.inf, "()")
    acfg = cfg.ascent()

    def evaluate(mflat: np.ndarray, tflat: np.ndarray, groups, top, start):
        with np.errstate(all="ignore"):
            E = _expm_stack((mflat * np.exp(1j * tflat))[:, None, None] * T.entries)
        bad = ~np.isfinite(E).all(axis=(1, 2))
        if bad.any():
            raise OverflowError(f"e^(xi T) left the float range at |xi| = {mflat[bad].min():.6g}")

        def score(n, idx, _, norms):
            return np.exp(np.log(np.maximum(norms, _NORM_FLOOR)) - mflat[idx])

        return _pruned_sweep(_one_step(E), score, cfg.p, acfg, groups, top, start)

    def prior(mflat: np.ndarray, tflat: np.ndarray):  # e^{|xi| (mu - 1)}, as score takes it
        log_norms = _prior_log_bounds(T.entries, cfg.p, mflat, tflat, "exponential")
        with np.errstate(over="ignore", invalid="ignore"):
            return np.exp(np.maximum(log_norms, _LOG_FLOOR + _LOG_MARGIN) - mflat)

    with np.errstate(over="ignore"):  # an inf modulus fails in evaluate, by name
        moduli = xi_max * np.arange(cfg.radial_count + 1) / cfg.radial_count
    best, best_mt, _ = _search(evaluate, prior, moduli, xi_max / cfg.radial_count,
                               (0.0, xi_max), cfg)
    xi = best_mt[0] * complex(math.cos(best_mt[1]), math.sin(best_mt[1]))
    return FunctionalEstimate(best, xi)


def _partial_sums(T: ComplexMatrix, first, ratio: np.ndarray, n_max: int):
    """Yield (n, S_n, 0), the power ledger's (n, M, log_scale) form, for n = 0..n_max,
    one S_n = sum_{k<=n} c_k T^k per entry of ratio, c_0 = first, c_k = c_{k-1} ratio.

    T^k = e^{log_scale} M is read from the power ledger.  S_n is updated in
    place: read it before the next step.  An OverflowError names the first n
    at which S_n is not finite: the scale e^{log_scale}, its product with M or
    the sum left the float range.
    """
    coef = np.broadcast_to(np.asarray(first, dtype=complex), ratio.shape)
    S = coef[:, None, None] * np.eye(T.dim, dtype=complex)
    zero = np.zeros(len(S))
    yield 0, S, zero
    for n, M, log_scale in _power_ledger(T.entries[None], n_max):
        coef = coef * ratio
        scale = _rescale(1.0, log_scale[0])
        with np.errstate(over="ignore", invalid="ignore"):
            S += coef[:, None, None] * (scale * M[0])
        if not np.isfinite(S).all():
            raise OverflowError(f"T^n left the float range in the partial sums at n = {n} "
                                f"(T^n = e^{log_scale[0]:.6g} M)")
        yield n, S, zero


def cesaro_partial_sum_bound(T: ComplexMatrix, cfg: SearchConfig,
                             n_max: int) -> FunctionalEstimate:
    """Lower bound of sup ||sum_{k=0}^n l^k T^k|| / (n+1) over |l| = 1 and 0 <= n <= n_max.

    The value is >= 1 at n = 0 for any T.  Divided by 20 Ks it is the ratio
    to the 20 Ks (n+1) partial-sum ceiling: a ratio <= 1 certifies
    consistency of the tested range with the ceiling for a supplied Ks_ref,
    and a ratio > 1 is a finding to report with its witness (lambda, n), not
    a disproof, whenever Ks_ref is itself only a lower bound of the true
    constant.
    """
    _require("n_max", n_max, 0)
    lam = np.exp(1j * _angles(cfg.angular_count))
    # S_0 = I scores ||I||/(0+1) = 1 at every lambda: the shared start
    best, best_i, best_n = _sweep_max(
        lambda pts: itertools.islice(_partial_sums(T, 1.0, lam[pts], n_max), 1, None),
        lambda n, idx, _, norms: norms / (n + 1.0), cfg.p, cfg.ascent(), 1.0)
    return FunctionalEstimate(best, complex(lam[best_i]), n_at_max=best_n)


def gz_partial_resolvent_ratio(
    T: ComplexMatrix, cfg: SearchConfig, n_max: int, ks_ref: float
) -> FunctionalEstimate:
    """Informational: sup (|l|-1) ||sum_{k=0}^n T^k / l^{k+1}|| / (4 Ks_ref).

    The constant 4 in the reference bound comes from a source not reproduced
    here, so this diagnostic is advisory and never asserted as an invariant.
    """
    _require("ks_ref", ks_ref, 0, math.inf, "()")
    xs, angles = _grid(cfg)
    R, A = np.meshgrid(1.0 + 10.0 ** xs, angles, indexing="ij")
    lam = (R * np.exp(1j * A)).ravel()
    inv_lam = 1.0 / lam
    gap = np.abs(lam) - 1.0
    best, best_i, best_n = _sweep_max(
        lambda pts: _partial_sums(T, inv_lam[pts], inv_lam[pts], n_max),
        lambda n, idx, _, norms: gap[idx] * norms / (4.0 * ks_ref), cfg.p, cfg.ascent(),
        -math.inf)
    return FunctionalEstimate(best, complex(lam[best_i]), n_at_max=best_n)
