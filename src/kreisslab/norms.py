"""Vector and operator p-norms on C^d with certified two-sided operator bounds.

For p in {1, 2, inf} the operator norm is exact (column sums, largest singular
value, row sums).  For other p the norm is NP-hard to certify, so we return a
(lower, upper) pair: the lower bound is the best ratio found by multi-restart
projected steepest ascent on the unit p-sphere, the upper bound is the
Riesz-Thorin interpolation bound ||T||_1^{1/p} ||T||_inf^{1-1/p} intersected
with the d^|1/2-1/p| equivalence bound through the 2-norm.

The ascent runs on a stack of matrices at once (ascent_lower_bounds): one
numpy loop serves a whole resolvent grid or power sequence.  Each matrix keeps
its own step sizes and stopping test and leaves the stack when it stops, so
its result is the same, bit for bit, as an ascent on that matrix alone.
The one power recurrence of the package, _power_ledger, lives here too: the
powers of a matrix stack, each kept as a rescaled matrix and a log scale.
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


@dataclass(frozen=True, eq=False)
class NormBounds:
    """Two-sided bounds for an operator p-norm.

    `witness` is a unit p-norm vector with ||T witness||_p == lower (within
    1e-12 relative); for method='exact' lower == upper.
    """

    lower: float
    upper: float
    witness: np.ndarray
    method: str

    def __post_init__(self):
        if not (0.0 <= self.lower <= self.upper * (1 + 1e-15) + 1e-300):
            raise ValueError(f"bounds out of order: {self.lower} > {self.upper}")


def vector_p_norm(v, p: float) -> float:
    """(sum |v_k|^p)^(1/p), max for p=inf.  Raises for p outside [1, inf]."""
    _require("p", p, 1, math.inf, "[]")
    a = np.abs(np.asarray(v, dtype=complex))
    if a.size == 0:
        return 0.0
    if math.isinf(p):
        return float(a.max())
    m = float(a.max())
    if m == 0.0:
        return 0.0
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
    if math.isinf(p):
        return m
    safe = np.where(m == 0.0, 1.0, m)
    return m * np.add.reduce((a / safe) ** p, axis=-2, keepdims=True) ** (1.0 / p)


def _phase(Y: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Y / |Y| with 0 where Y == 0; `a` is np.abs(Y)."""
    pos = a > 0
    return np.where(pos, Y / np.where(pos, a, 1.0), 0.0)


def _ascent_direction(Y: np.ndarray, p: float) -> np.ndarray:
    """Steepest-ascent direction of ||y||_p at each column y of Y (up to scale)."""
    a = np.abs(Y)
    if not math.isinf(p):
        return a ** (p - 1) * _phase(Y, a)
    # subgradient of the max-modulus functional: mass on the argmax row
    W = np.zeros_like(Y)
    idx = np.expand_dims(np.argmax(a, axis=-2), -2)
    np.put_along_axis(
        W, idx, _phase(np.take_along_axis(Y, idx, -2), np.take_along_axis(a, idx, -2)), -2
    )
    return W


def ascent_lower_bounds(mats, p: float, cfg: AscentConfig = AscentConfig()):
    """Best ||M x||_p over the unit p-sphere for each M of a (B, d, d) stack.

    Multi-restart projected steepest ascent: normalized-gradient steps with
    per-restart backtracking (step halves on a rejected proposal, grows after
    an accepted one).  Every matrix starts from the same seeded restart block
    and keeps its own steps, stall count and stop test; a matrix that has
    stopped leaves the working set, so each result is bit-for-bit the run of
    the ascent on that matrix alone.  Returns (values (B,), witnesses (B, d)).
    """
    _require("p", p, 1, math.inf, "[]")
    A = np.asarray(mats, dtype=np.complex128)
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    B, d = A.shape[0], A.shape[-1]
    # A gradient entry is at most (d P)^q for the peak entry P of its matrix
    # (q = p; q = 1 at p = inf, where the direction has unit entries), so its
    # squared 2-norm stays below 2^1022 while log2 P <= limit below.  A matrix
    # past that runs divided by a power of two that takes P into [0.5, 1) and on
    # down to 2^limit, which every step commutes with while nothing underflows,
    # and its value is scaled back.
    q = 1.0 if math.isinf(p) else p
    limit = (1022.0 - (2 * q + 1) * math.log2(d)) / (2 * q)
    if math.isnan(limit):  # 2q overflowed: take the limit of limit as q grows
        limit = -math.log2(d)
    peak = np.abs(A).max(axis=(-2, -1))
    shift = np.where(peak > 2.0 ** limit, np.frexp(peak)[1] + max(0, math.ceil(-limit)), 0)
    if shift.any():
        A = A * np.ldexp(1.0, -shift)[:, None, None]
    # With log2 P <= limit, an entry a of |A x| on the unit p-sphere is at most
    # P ||x||_1 <= P d^(1-1/p), so log2 a^(p-1) <= ((p-1)/p)(511 - 1.5 log2 d) < 511
    # (a <= 1 where 2q overflowed): the power in _ascent_direction never overflows.
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
        G = Ah @ _ascent_direction(A @ X, p)
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


def _stack_bounds(M: np.ndarray, p: float, cfg: AscentConfig, log_scales) -> list[NormBounds]:
    """Bounds on e^s ||M_b||_p for each M_b of a (B, d, d) stack and its log scale s:
    exact for p in {1, 2, inf}, else an ascent lower bound paired with the
    Riesz-Thorin and norm-equivalence upper bound."""
    if _is_exact(p):
        lowers, witnesses = _exact_norms(M, p)
        uppers, method = lowers, "exact"
    else:
        values, witnesses = ascent_lower_bounds(M, p, cfg)
        uppers, method = _interpolation_uppers(M, p), "ascent_plus_interpolation"
        lowers = [min(v, u) for v, u in zip(values.tolist(), uppers)]
    return [NormBounds(_rescale(lo, s), _rescale(up, s), w, method)
            for lo, up, w, s in zip(lowers, uppers, witnesses, log_scales)]


def operator_p_norm(T: ComplexMatrix, p: float, cfg: AscentConfig = AscentConfig()) -> NormBounds:
    """Two-sided bounds on ||T||_{p->p}; exact for p in {1, 2, inf}."""
    _require("p", p, 1, math.inf, "[]")
    return _stack_bounds(T.entries[None], p, cfg, [0.0])[0]


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
) -> list[NormBounds]:
    """Bounds for ||T^n||_p for n = 1..n_max.

    Powers come from _power_ledger on a stack of one, so Jordan-type growth
    cannot overflow them.  The scaled powers are bounded a block of
    _POWER_CHUNK entries at a time, with the same bounds operator_p_norm gives each power; at p outside
    {1, 2, inf} each block goes through one stack ascent.
    """
    _require("n_max", n_max, 1)
    _require("p", p, 1, math.inf, "[]")
    powers = _power_ledger(T.entries[None], n_max)
    block = max(1, _POWER_CHUNK // T.dim ** 2)
    bounds = []
    for _ in range(0, n_max, block):
        mats, log_scales = zip(*[(M[0], float(s[0]))
                                 for _, M, s in itertools.islice(powers, block)])
        bounds += _stack_bounds(np.array(mats), p, cfg, log_scales)
    return bounds


def _rescale(value: float, log_scale: float) -> float:
    """value e^log_scale as a float, inf past the float range: the one conversion
    of a log scale to a float."""
    if value == 0.0 or log_scale == 0.0:
        return value
    try:
        return math.exp(math.log(value) + log_scale)
    except OverflowError:
        return math.inf
