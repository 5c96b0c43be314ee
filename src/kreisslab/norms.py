"""Vector and operator p-norms on C^d: every matrix-stack norm and certified norm
bound of the package.

For p in {1, 2, inf} the operator norm is exact (column sums, largest singular
value, row sums).  For other p the norm is NP-hard to certify, so we return a
(lower, upper) pair: the lower bound is the best ratio found by multi-restart
projected steepest ascent on the unit p-sphere, the upper bound is the
Riesz-Thorin interpolation bound ||T||_1^{1/p} ||T||_inf^{1-1/p} intersected
with the d^|1/2-1/p| equivalence bound through the 2-norm.

The ascent (ascent_lower_bounds, p in [1, inf); the package calls it only
outside {1, 2, inf}) runs a whole stack in one numpy loop, each matrix with
its own steps and stopping test, so each result is bit for bit that of an
ascent on the matrix alone.  Every stack norm and certified log bound the
searches of resolvent read lives here, with the power-step cap and the one
power recurrence, _power_ledger.  Two forks stay, since report bytes pin
them: _batched_norm_lower takes sigma_1 from a values-only SVD and
_exact_norms from the full one, which differ in the last bits (growth.csv and
bounds.csv print the latter); _interpolation_uppers gives the printed upper
bounds, _log_norm_bounds the margin-widened ones that only prune.

_stack_bounds bounds a stack as columns (lower, upper, witnesses) and
checks their order: power_norm_sequence keeps the two float arrays of the
powers, operator_p_norm wraps row 0 in a NormBounds.  _prior_log_bounds
bounds the resolvents and exponentials of T at search points from T's
entries alone, before they are built: the least of an O(d) rung from T's
row and column sums and a comparison-matrix rung, whose positive series,
_positive_series, sees the transient of a non-normal T with a rounding
bounded a priori.  The series runs only where the pattern of |off(T)| is
nilpotent, and ends after d terms there; elsewhere it is +inf.  _top_norms
is the one pruning rule: it values only the points whose certified bound
reaches the top best values of their group, for resolvent's searches and
sweeps and decomp's corpus.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .operators import ComplexMatrix, _require

_SCALE_HI = 1e100
_SCALE_LO = 1e-100
_POWER_CHUNK = 1 << 18  # matrix entries per block of powers
# Rounding margin of the certified log-domain norm bounds.  The norm sums and
# their powers, np.log, np.exp, LAPACK's largest singular value and the
# ascent's p-norms each carry a relative error of a few d ulps (about 1e-13 at
# d = 64), far inside it.  The comparison rungs of _prior_log_bounds budget
# their own rounding before it: a positive series of d terms is taken
# 2 eta = 4 (d + 2) (d + 4) u high (_positive_series), the resolvent rung's
# beta 4 u low and then delta low, and the exponential rung adds the expm error
# err and the rounding of z T.
_LOG_MARGIN = 1e-9


@dataclass(frozen=True)
class AscentConfig:
    """Multi-restart ascent engine knobs.  Deterministic given `seed`."""

    restarts: int = 32
    max_steps: int = 500
    rel_tol: float = 1e-10
    seed: int = 0

    def __post_init__(self):
        _require("restarts", self.restarts, 1)
        _require("max_steps", self.max_steps, 1)
        _require("rel_tol", self.rel_tol, 0)
        _require("seed", self.seed, 0)


@dataclass(frozen=True, eq=False)
class NormBounds:
    """Two-sided bounds for an operator p-norm.

    `witness` is a unit p-norm vector with ||T witness||_p == lower (within
    1e-12 relative); for p in {1, 2, inf} the bounds are exact and lower ==
    upper.  _stack_bounds, which builds every bound, has checked that lower
    <= upper.
    """

    lower: float
    upper: float
    witness: np.ndarray


def vector_p_norm(v, p: float) -> float:
    """(sum |v_k|^p)^(1/p), max for p=inf.  Raises for p outside [1, inf]."""
    _require("p", p, 1, math.inf, "[]")
    a = np.abs(np.asarray(v, dtype=complex))
    if a.size == 0:
        return 0.0
    m = float(a.max())
    if math.isinf(p) or m == 0.0:
        return m
    # factor the max out so large p cannot overflow
    return m * float(np.sum((a / m) ** p) ** (1.0 / p))


def _pnorm_cols(X: np.ndarray, p: float) -> np.ndarray:
    """p-norms of the columns of X, reduced over axis -2 with the axis kept.

    X may be a stack.  The reductions call the ufuncs directly: np.sum and
    np.max reduce the same way but cost more per call, and the ascent loop
    makes many calls on small blocks.
    """
    a = np.abs(X)
    m = np.maximum.reduce(a, axis=-2, keepdims=True)
    safe = np.where(m == 0.0, 1.0, m)
    return m * np.add.reduce((a / safe) ** p, axis=-2, keepdims=True) ** (1.0 / p)


def _phase(Y: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Y / |Y| with 0 where Y == 0; `a` is np.abs(Y)."""
    pos = a > 0
    return np.where(pos, Y / np.where(pos, a, 1.0), 0.0)


def ascent_lower_bounds(mats, p: float, cfg: AscentConfig = AscentConfig()):
    """Best ||M x||_p over the unit p-sphere for each M of a (B, d, d) stack.

    Multi-restart projected steepest ascent: normalized-gradient steps with
    per-restart backtracking (step halves on a rejected proposal, grows after
    an accepted one).  Every matrix starts from the same seeded restart block
    and keeps its own steps, stall count and stop test; a matrix that has
    stopped leaves the working set, so each result is bit-for-bit the run of
    the ascent on that matrix alone.  p lies in [1, inf).  Returns (values (B,),
    witnesses (B, d)).
    """
    _require("p", p, 1)
    A = np.asarray(mats, dtype=np.complex128)
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    B, d = A.shape[0], A.shape[-1]
    # A gradient entry is at most (d P)^p for the peak entry P of its matrix, so
    # its squared 2-norm stays below 2^1022 while log2 P <= limit below.  A
    # matrix past that runs divided by a power of two that takes P into [0.5, 1)
    # and on down to 2^limit, which every step commutes with while nothing
    # underflows, and its value is scaled back.
    limit = (1022.0 - (2 * p + 1) * math.log2(d)) / (2 * p)
    if math.isnan(limit):  # 2p overflowed: take the limit of limit as p grows
        limit = -math.log2(d)
    peak = np.abs(A).max(axis=(-2, -1))
    shift = np.where(peak > 2.0 ** limit, np.frexp(peak)[1] + max(0, math.ceil(-limit)), 0)
    if shift.any():
        A = A * np.ldexp(1.0, -shift)[:, None, None]
    # With log2 P <= limit, an entry a of |A x| on the unit p-sphere is at most
    # P ||x||_1 <= P d^(1-1/p), so log2 a^(p-1) <= ((p-1)/p)(511 - 1.5 log2 d) < 511
    # (a <= 1 where 2p overflowed): the power in the ascent step never overflows.
    rng = np.random.default_rng(cfg.seed)
    X0 = rng.standard_normal((d, cfg.restarts)) + 1j * rng.standard_normal((d, cfg.restarts))
    X0 /= _pnorm_cols(X0, p)
    X = np.broadcast_to(X0, (B, d, cfg.restarts)).copy()
    # per-restart values and steps have shape (B, 1, restarts)
    f = _pnorm_cols(A @ X, p)
    step = np.full(f.shape, 0.5)
    stall = np.zeros(B, dtype=int)
    # the conjugate is gathered, not its transpose, so that every product
    # sees the memory layout of a single-matrix run
    Ac = A.conj()
    Ah = Ac.swapaxes(-1, -2)
    rows = np.arange(B)  # stack index of each matrix still in the working set
    X_out, f_out = np.empty_like(X), np.empty_like(f)
    for _ in range(cfg.max_steps):
        Y = A @ X
        a = np.abs(Y)
        G = Ah @ (a ** (p - 1) * _phase(Y, a))  # steepest ascent of each ||y||_p
        gn = np.sqrt(np.add.reduce(np.abs(G) ** 2, axis=-2, keepdims=True))
        pos = gn > 0
        G = np.where(pos, G / np.where(pos, gn, 1.0), 0.0)
        Xp = X + step * G
        nrm = _pnorm_cols(Xp, p)
        Xp = Xp / np.where(nrm == 0.0, 1.0, nrm)
        fp = _pnorm_cols(A @ Xp, p)
        accept = fp > f
        gain = np.where(accept, (fp - f) / np.maximum(f, 1e-300), 0.0)
        X = np.where(accept, Xp, X)
        f = np.where(accept, fp, f)
        step = np.where(accept, np.minimum(step * 1.5, 1.0), step * 0.5)
        flat = np.maximum.reduce(gain, axis=(-2, -1)) < cfg.rel_tol
        if not flat.any():
            stall.fill(0)
            continue
        stall = (stall + 1) * flat
        stop = (stall >= 6) | (flat & (np.maximum.reduce(step, axis=(-2, -1)) < 1e-14))
        if stop.any():
            X_out[rows[stop]], f_out[rows[stop]] = X[stop], f[stop]
            keep = ~stop
            if not keep.any():
                break
            rows, A, Ac, X, f, step, stall = (
                rows[keep], A[keep], Ac[keep], X[keep], f[keep], step[keep], stall[keep]
            )
            Ah = Ac.swapaxes(-1, -2)
    else:
        X_out[rows], f_out[rows] = X, f
    best = np.argmax(f_out[:, 0], axis=-1)
    return np.ldexp(f_out[np.arange(B), 0, best], shift), X_out[np.arange(B), :, best]


def _is_exact(p: float) -> bool:
    return math.isinf(p) or p == 1 or p == 2


def _exact_norms(M: np.ndarray, p: float):
    """||M_b||_p for each M_b of a (B, d, d) stack, p in {1, 2, inf}: column
    sums, largest singular value, row sums.  Returns (values, witnesses)."""
    if p == 2:
        _, s, Vh = np.linalg.svd(M)
        return s[:, 0].tolist(), Vh[:, 0].conj()
    rows = np.arange(M.shape[0])
    sums = np.abs(M).sum(axis=-1 if math.isinf(p) else -2)
    best = np.argmax(sums, axis=1)
    if math.isinf(p):
        line = M[rows, best]
        a = np.abs(line)
        witnesses = np.where(a > 0, np.conj(_phase(line, a)), 1.0)
    else:
        witnesses = np.zeros(sums.shape, dtype=complex)
        witnesses[rows, best] = 1.0
    return sums[rows, best].tolist(), witnesses


def _interpolation_uppers(M: np.ndarray, p: float) -> list[float]:
    """The interpolation upper bound of ||M_b||_p for each M_b of a (B, d, d) stack."""
    a = np.abs(M)
    n1 = a.sum(axis=-2).max(axis=-1).tolist()
    ninf = a.sum(axis=-1).max(axis=-1).tolist()
    sigma = np.linalg.svd(M, compute_uv=False)[:, 0].tolist()
    d = M.shape[-1]
    return [min(one ** (1.0 / p) * inf ** (1.0 - 1.0 / p), d ** abs(0.5 - 1.0 / p) * s)
            for one, inf, s in zip(n1, ninf, sigma)]


def _batched_norm_lower(mats: np.ndarray, p: float, acfg: AscentConfig) -> np.ndarray:
    """Lower bounds (exact for p in {1,2,inf}) of ||M||_p over a stack."""
    if p == 2:
        return np.linalg.svd(mats, compute_uv=False)[..., 0]
    if _is_exact(p):  # row sums at p = inf, column sums at p = 1
        return np.abs(mats).sum(axis=-1 if math.isinf(p) else -2).max(axis=-1)
    return ascent_lower_bounds(mats, p, acfg)[0]


def _smallest_singular_values(mats: np.ndarray) -> np.ndarray:
    """sigma_min of each matrix of a (B, d, d) stack."""
    return np.linalg.svd(mats, compute_uv=False)[:, -1]


def _log_norm_bounds(mats: np.ndarray, p: float):
    """Certified bounds lo <= log ||M||_p <= hi for each matrix of a stack, which also
    hold for the value _batched_norm_lower computes.

    At p = 2, lo and hi are the logs of the largest column 2-norm and of the
    Frobenius norm.  Elsewhere hi is the log of the Riesz-Thorin bound
    ||M||_1^{1/p} ||M||_inf^{1-1/p} (the norm itself at p in {1, inf})
    intersected with d^{|1/2-1/p|} ||M||_F, and lo is -inf: an ascent value
    can lie anywhere below the norm.  Both are widened by _LOG_MARGIN.
    Squares below 1e-154 underflow, which cannot move a bound once the peak
    entry is of normal size, as it is for rescaled powers and for partial
    sums that can beat a floor; sums past the float range give an infinite
    hi, which keeps a pair.
    """
    with np.errstate(over="ignore", divide="ignore"):
        if p == 2:
            col = np.einsum("...ij->...j", mats.real**2 + mats.imag**2)
            lo, hi = 0.5 * np.log(col.max(axis=-1)), 0.5 * np.log(col.sum(axis=-1))
        else:
            a = np.abs(mats)
            one = np.einsum("...ij->...j", a).max(axis=-1)
            inf = np.einsum("...ij->...i", a).max(axis=-1)
            frob = np.sqrt(np.einsum("...ij,...ij->...", a, a))
            hi = np.log(np.minimum(one ** (1.0 / p) * inf ** (1.0 - 1.0 / p),
                                   mats.shape[-1] ** abs(0.5 - 1.0 / p) * frob))
            lo = np.full(len(mats), -np.inf)
    return lo - _LOG_MARGIN, hi + _LOG_MARGIN


def _log_step_cap(M: np.ndarray, p: float, log_scale: np.ndarray, hi: np.ndarray,
                  norms: np.ndarray) -> np.ndarray:
    """Per-step bound on log ||R||_p for each R = e^{log_scale} M of a stack, given
    hi = _log_norm_bounds(M, p)[1] and the norms _batched_norm_lower took (NaN
    where none): the SVD norm where the first take computed one, else hi, plus
    the rounding of a ledger step, _step_slack."""
    if p == 2:
        with np.errstate(divide="ignore"):
            hi = np.where(np.isnan(norms), hi, np.log(norms) + _LOG_MARGIN)
    return log_scale + hi + _step_slack(M.shape[-1])


def _stack_bounds(M: np.ndarray, p: float, cfg: AscentConfig, log_scales):
    """Bounds on e^s ||M_b||_p for each M_b of a (B, d, d) stack and its log scale s:
    exact for p in {1, 2, inf}, else an ascent lower bound paired with the
    Riesz-Thorin and norm-equivalence upper bound.

    Returns the columns (lower, upper, witnesses): two float arrays and the
    (B, d) witnesses of the unscaled M_b.  A row whose lower bound exceeds
    its upper one raises ValueError.
    """
    if _is_exact(p):
        lowers, witnesses = _exact_norms(M, p)
        uppers = lowers
    else:
        values, witnesses = ascent_lower_bounds(M, p, cfg)
        uppers = _interpolation_uppers(M, p)
        lowers = [min(v, u) for v, u in zip(values.tolist(), uppers)]
    lower = np.array([_rescale(v, s) for v, s in zip(lowers, log_scales)])
    upper = lower if uppers is lowers else np.array(
        [_rescale(v, s) for v, s in zip(uppers, log_scales)])
    bad = ~((0.0 <= lower) & (lower <= upper * (1 + 1e-15) + 1e-300))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"bounds out of order: {lower[i]} > {upper[i]}")
    return lower, upper, witnesses


def operator_p_norm(T: ComplexMatrix, p: float, cfg: AscentConfig = AscentConfig()) -> NormBounds:
    """Two-sided bounds on ||T||_{p->p}; exact for p in {1, 2, inf}."""
    _require("p", p, 1, math.inf, "[]")
    lower, upper, witnesses = _stack_bounds(T.entries[None], p, cfg, [0.0])
    return NormBounds(float(lower[0]), float(upper[0]), witnesses[0])


def _power_ledger(R: np.ndarray, n_max: int):
    """Yield (n, M, log_scale), n = 1..n_max, with R_b^n = e^{log_scale_b} M_b
    for each matrix R_b of a (B, d, d) stack.

    M = R @ M, and M_b is divided by its peak entry whenever that peak leaves
    [1e-100, 1e100], the log of the divisor moving to the ledger; a ledger
    entry past the float range raises OverflowError.  Each M is a new array,
    but log_scale is updated in place: read it before the next step.
    """
    M = np.broadcast_to(np.eye(R.shape[-1], dtype=complex), R.shape).copy()
    log_scale = np.zeros(len(R))
    for n in range(1, n_max + 1):
        M = R @ M
        peak = np.maximum.reduce(np.abs(M), axis=(1, 2))
        if not (peak.min() > _SCALE_LO and peak.max() < _SCALE_HI):
            out = ((peak > _SCALE_HI) | (peak < _SCALE_LO)) & (peak > 0.0)
            log_scale[out] += np.log(peak[out])
            if not np.isfinite(log_scale[out]).all():
                raise OverflowError("power scale ledger left the representable range")
            M[out] /= peak[out, None, None]
        yield n, M, log_scale


def power_norm_sequence(
    T: ComplexMatrix, p: float, n_max: int, cfg: AscentConfig = AscentConfig()
) -> tuple[np.ndarray, np.ndarray]:
    """Bounds on ||T^n||_p for n = 1..n_max: the arrays (lower, upper).

    Powers come from _power_ledger on a stack of one, so Jordan-type growth
    cannot overflow them.  The scaled powers are bounded a block of
    _POWER_CHUNK entries at a time, each row with the bounds operator_p_norm
    gives that power; at p outside {1, 2, inf} each block goes through one
    stack ascent.
    """
    _require("n_max", n_max, 1)
    _require("p", p, 1, math.inf, "[]")
    powers = _power_ledger(T.entries[None], n_max)
    block = min(n_max, max(1, _POWER_CHUNK // T.dim ** 2))
    mats = np.empty((block, T.dim, T.dim), dtype=complex)
    log_scales = np.empty(block)
    lower, upper = np.empty(n_max), np.empty(n_max)
    for lo in range(0, n_max, block):
        k = min(block, n_max - lo)
        for i, (_, M, s) in enumerate(itertools.islice(powers, k)):
            mats[i], log_scales[i] = M[0], s[0]
        lower[lo:lo + k], upper[lo:lo + k], _ = _stack_bounds(
            mats[:k], p, cfg, log_scales[:k].tolist())
    return lower, upper


def _rescale(value: float, log_scale: float) -> float:
    """value e^log_scale as a float, inf past the float range: the one conversion
    of a log scale to a float.

    Scalar math on purpose: numpy's SIMD np.exp and np.log are not bit-equal to
    math.exp and math.log (with numpy 2.4 on an AVX-512 Xeon, np.exp differed
    on 9,092 of 200,000 random x in [-700, 700] and np.log on 657 of 200,000 in
    (0, 1)), so a vectorized rescale would move bytes of growth.csv and
    bounds.csv.
    """
    if value == 0.0 or log_scale == 0.0:
        return value
    try:
        return math.exp(math.log(value) + log_scale)
    except OverflowError:
        return math.inf


def _tops(vals: np.ndarray, groups: np.ndarray, top: int, start: np.ndarray) -> np.ndarray:
    """Each group's top largest values, in decreasing order and -inf past its count: a
    (groups, top) array whose last column is the group's floor.

    groups holds the index of the first point of each group, a run of
    consecutive points, and start, a (groups, k) array, the values other
    points attain that each group's points compete with (k may be 0).  A NaN
    value lowers its group's floor (it ranks last) or, at top = 1, makes it
    NaN, which keeps every point.
    """
    if top == 1:
        return np.maximum(np.maximum.reduceat(vals, groups),
                          start.max(axis=1, initial=-np.inf))[:, None]
    sizes = np.diff(groups, append=len(vals))
    ranked = vals[np.lexsort((-vals, np.repeat(np.arange(len(groups)), sizes)))]
    k = np.arange(top)
    own = np.where(k < sizes[:, None], ranked[np.minimum(groups[:, None] + k, len(vals) - 1)],
                   -np.inf)
    if not start.shape[1]:
        return own
    both = np.concatenate([own, start], axis=1)
    return -np.sort(-np.where(np.isnan(both), -np.inf, both), axis=1)[:, :top]


def _top_norms(upper: np.ndarray, groups: np.ndarray, top: int, value, start) -> np.ndarray:
    """The values of a stack's points that can reach their group's top best values,
    -inf at the others: the one rule that prunes by certified bounds, for
    resolvent's matrix stacks and searches and decomp's corpus alike.

    upper holds each point's certified upper bound on its value (scored
    _log_norm_bounds or a prior from _prior_log_bounds in resolvent,
    decomp._score_bounds in decomp), and start, a (groups, k) array, values
    that other points attain, which each group's points compete with.
    value(idx, tops) returns the values at the points idx, an index array or
    slice(None), given each point's row of its group's _tops so far (start
    included): exact where they are not below the row's last entry, the
    floor.  The first take values each group's top highest finite-bound
    points (ties go to the earlier point) and every point whose bound is
    +inf or NaN, which no floor can prune, but none whose bound is below the
    floor of start alone; the floor rises to the top-th best of their values
    and start.  The second values every other point whose bound is not
    below it.  A point left at -inf has its value certified below the
    floor, and so below top values of its group: the group's first maximum
    and its top best values, and every tie with the top-th, are exact.
    """
    count = len(upper)
    sizes = np.diff(groups, append=count)
    vals = np.full(count, -np.inf)

    def take(mask):
        rows = np.repeat(_tops(vals, groups, top, start), sizes, axis=0)
        idx = np.flatnonzero(mask & ~(upper < rows[:, -1]))
        if idx.size:
            vals[idx] = value(idx, rows[idx]) if idx.size < count else value(slice(None), rows)

    bounded = upper < np.inf
    order = np.lexsort((-np.where(bounded, upper, -np.inf),
                        np.repeat(np.arange(len(groups)), sizes)))
    first = ~bounded
    first[order[np.arange(count) - np.repeat(groups, sizes) < top]] = True
    take(first)
    take(~first)
    return vals


def _step_slack(d: int) -> float:
    """The rounding of one product of d x d matrices in the log domain of a norm: R @ M
    lies 2 d (d + 2) u past ||R|| ||M||, doubled, plus 8 ulps for a rescale."""
    return (4.0 * d * (d + 2) + 8.0) * 2.0**-53


# the log of the largest float; a bound past it cannot certify a finite matrix
_LOG_MAX = math.log(np.finfo(float).max)


def _riesz_thorin(one, inf_, p: float):
    """Riesz-Thorin's log bound on a p-norm from the logs of the 1- and inf-norm bounds."""
    if math.isinf(p) or p == 1:
        return inf_ if math.isinf(p) else one
    return one / p + inf_ * (1.0 - 1.0 / p)


def _positive_series(first: np.ndarray, left: np.ndarray, scale: np.ndarray,
                     taylor: bool = False) -> np.ndarray:
    """Certified upper bounds on max_i s_i for the sums s = sum_k v_k of the positive
    series v_0 = first, v_{k+1} = c_k (left @ v_k), one series per column of first.

    first is a (d, count) array, left a nonnegative (d, d) matrix and
    c_k = scale, or scale / (k + 1) with taylor, for a nonnegative scale of
    shape (d, count) or (1, count).  Where left's pattern is nilpotent, every
    term past the first d is zero and the series is their sum; where the
    pattern has a cycle, every column is +inf.  The pattern, not a term that
    rounds to zero, decides it: on a cycle a term can underflow while the
    exact series diverges.  The arrays are laid out (d, count) because numpy
    reduces a short last axis slowly.

    Rounding: every operation acts on nonnegative numbers, so each rounds
    componentwise and nothing cancels.  A term made in k sweeps lies within
    gamma_{k (d + 4)} of its exact value (the d products and sums of a sweep,
    its c_k, and one rounding each of the entries of first, scale and
    left), and the sum of the d terms adds gamma_{d - 1}; eta =
    2 (d + 2) (d + 4) u bounds both, and the sum is taken 2 eta high.
    """
    d = len(first)
    if np.linalg.matrix_power(left > 0.0, d).any():  # a cycle: no finite sum certified
        return np.full(first.shape[1], np.inf)
    total, v = first.copy(), first
    eta = 2.0 * (d + 2) * (d + 4) * 2.0**-53
    with np.errstate(all="ignore"):
        for k in range(d - 1):
            v = (scale / (k + 1.0) if taylor else scale) * (left @ v)
            total += v
        sums = total.max(axis=0) * (1.0 + 2.0 * eta)
    return np.where(sums < np.inf, sums, np.inf)


def _prior_log_bounds(T: np.ndarray, p: float, r: np.ndarray, t: np.ndarray,
                      kind: str) -> np.ndarray:
    """Certified upper bounds on log ||X||_p, from the entries of T alone, for the matrix
    X that resolvent computes at each point z = r e^{it}, before it is built: the
    resolvent (z - T)^{-1} (kind "resolvent"), or e^{z T} (kind "exponential").
    Each kind takes the least of two rungs: an O(d) bound from T's row and
    column sums, and a bound through the comparison matrix of z - T or of
    z T, which sees the transient of a non-normal T.  N = |off(T)| below.

    Resolvents: ||(z - T)^{-1}||_p <= 1/beta_p, where beta_p bounds the least
    ||(z - T) x||_p on the unit sphere from below by diagonal dominance:
    min_i |z - t_ii| - (r_i + c_i)/2 at p = 2 (C. R. Johnson, Linear Algebra
    Appl. 112, 1989; r_i and c_i are T's off-diagonal row and column sums),
    min_i |z - t_ii| - r_i at inf and - c_i at 1 (Varah), Riesz-Thorin between
    the three, and never less than |z| - ||T||_p.  At p = 2 the comparison
    rung adds beta = 1 / sqrt(max x max y), x = M^{-1} 1 and y = M^{-T} 1 for
    the comparison matrix M = D - N of z - T, D = |z - t_ii|: where M is a
    nonsingular M-matrix, |(z - T)^{-1}| <= M^{-1} entrywise (A. Ostrowski,
    Comment. Math. Helv. 10, 1937; R. S. Varga, Matrix Iterative Analysis,
    2nd ed., 2000, ch. 3), whose inf- and 1-norms are max x and max y.  x and
    y are Jacobi's series sum_k (D^{-1} N)^k D^{-1} 1, from _positive_series.
    It runs where N's pattern is nilpotent: wherever D > 0, D^{-1} N is then
    nilpotent, so M is a nonsingular M-matrix and the series ends after d
    terms.  Where the pattern has a cycle it is +inf.  The series' rounding
    is in its budget, and the square roots and quotient take beta 4 u low.  (Only p = 2
    takes it: elsewhere _pruned_sweep bounds each built resolvent by
    Riesz-Thorin on the same |R| <= M^{-1}, and the rung would save only an
    inverse.)  Every beta loses delta = _step_slack(d) sqrt(d) (|z| +
    max(||T||_1, ||T||_inf)) first: the backward error of the SVD's
    sigma_min and of the inverse's solve, whose relative error delta / beta
    it covers for a pivot growth up to about d, and the O(d) bound's own
    arithmetic.  Where sigma_min(z - T) < delta, no bound is finite: the
    computed sigma_min is rounding noise there.

    Exponentials: ||e^{z T}||_p <= e^{r mu_p(e^{it} T)}, the logarithmic norm
    (G. Soderlind, BIT 46, 2006): mu_2 is the largest eigenvalue of the
    Hermitian part, one eigvalsh per distinct angle, mu_1 and mu_inf are
    max_j Re(e^{it} t_jj) + c_j and max_i Re(e^{it} t_ii) + r_i, and
    Riesz-Thorin interpolates their exponents.  To it come
    _step_slack(d) sqrt(d) r max(||T||_1, ||T||_inf) for mu's arithmetic and
    _step_slack(d) (2 max(1, r ||T||_1) + 1), twice, for the expm's Pade step
    and its s squarings, 2^s <= 2 max(1, ||z T||_1) at theta_13 = 5.37: err,
    the two together.  The comparison rung: |e^{z T}| <= e^{r M_t} entrywise
    for the Metzler matrix M_t with diagonal Re(e^{it} t_ii) and off-diagonal
    N (the limit of |(I + z T / n)^n|), and M_t <= a_t I + N, a_t =
    max_i Re(e^{it} t_ii), so ||e^{z T}||_p <= e^{r a_t} G, G the
    Riesz-Thorin bound from max e^{r N} 1 and max 1^T e^{r N}: the positive
    Taylor series of _positive_series, one per distinct r, exact after d
    terms when N's pattern is nilpotent and +inf otherwise.  Its exponent
    carries the rounding of z T and of a_t, within the same
    _step_slack(d) sqrt(d) r max(||T||_1, ||T||_inf), and the computed
    expm's error is the model err budgets, relative to
    e^{r mu}: the rung is log(e^{r a_t} G + (e^{err} - 1) e^{r mu}).  It is
    +inf wherever the O(d) bound is, so that a point whose expm may overflow
    is evaluated, and named.

    Every bound carries _LOG_MARGIN for the norms' rounding, and is +inf where
    it passes _LOG_MAX, so that it cannot certify that X is finite, or where
    its own arithmetic overflows (NaN included).
    """
    d = T.shape[-1]
    a = np.abs(T)
    off = a.copy()
    np.fill_diagonal(off, 0.0)
    rows, cols = off.sum(axis=1), off.sum(axis=0)
    n1, ninf = a.sum(axis=0).max(), a.sum(axis=1).max()
    slack = _step_slack(d)
    mid = not _is_exact(p) or p == 2  # whether the p = 2 form takes part
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if kind == "resolvent":
            gap = np.abs((r * np.exp(1j * t))[:, None] - np.diagonal(T))
            delta = slack * math.sqrt(d) * (r + max(n1, ninf))

            def neg_log(beta):  # -log(beta - delta), +inf where that is not positive
                b = beta - delta
                return np.where(b > 0.0, -np.log(np.where(b > 0.0, b, 1.0)), np.inf)

            one, inf_ = (neg_log((gap - s).min(axis=1)) for s in (cols, rows))
            two = neg_log((gap - 0.5 * (rows + cols)).min(axis=1)) if mid else None
            if p == 2:
                # a C-ordered column per point: M^{-1} 1 from N, M^{-T} 1 from N^T
                inv_gap = np.ascontiguousarray(1.0 / gap.T)
                x, y = (_positive_series(inv_gap, left, inv_gap) for left in (off, off.T))
                two = np.fmin(two, neg_log((1.0 - 4.0 * 2.0**-53) / (np.sqrt(x) * np.sqrt(y))))
            # |z| - ||T||_p, ||T||_p at most Riesz-Thorin's ||T||_1^{1/p} ||T||_inf^{1-1/p}
            cap, err = neg_log(r - n1 ** (1.0 / p) * ninf ** (1.0 - 1.0 / p)), 0.0
        else:
            angles, at = np.unique(t, return_inverse=True)
            w = np.exp(1j * angles)[:, None]
            diag = (w * np.diagonal(T)).real
            one, inf_ = ((diag + s).max(axis=1)[at] * r for s in (cols, rows))
            if mid:
                H = w[:, :, None] * T
                two = np.linalg.eigvalsh(0.5 * (H + H.conj().swapaxes(-1, -2)))[:, -1][at] * r
            cap = np.inf
            arith = slack * math.sqrt(d) * r * max(n1, ninf)
            err = arith + slack * 2.0 * (2.0 * np.maximum(1.0, r * n1) + 1.0)
        # Riesz-Thorin: the (1, inf) pair at every p and, where the p = 2 form takes
        # part, two itself at 2, the (1, 2) pair below 2 or the (2, inf) pair above; a
        # pair enters only with both weights positive, as 0 inf is NaN
        inter = _riesz_thorin(one, inf_, p)
        if mid:
            inter = np.minimum(inter, two if p == 2 else
                               one * (2.0 / p - 1.0) + two * (2.0 - 2.0 / p) if p < 2
                               else two * (2.0 / p) + inf_ * (1.0 - 2.0 / p))
        bound = np.minimum(cap, inter) + err + _LOG_MARGIN
        if kind == "exponential":
            moduli, mt = np.unique(r, return_inverse=True)
            ones = np.ones((d, len(moduli)))
            row_sums, col_sums = (_positive_series(ones, left, moduli[None], taylor=True)
                                  for left in (off, off.T))
            log_g = _riesz_thorin(np.log(col_sums), np.log(row_sums), p)[mt]
            rung = np.logaddexp(r * diag.max(axis=1)[at] + log_g + arith,
                                inter + np.log(np.expm1(err))) + _LOG_MARGIN
            bound = np.where(bound < _LOG_MAX, np.fmin(bound, rung), np.inf)
    return np.where(bound < _LOG_MAX, bound, np.inf)
