"""Inequality checks for entrywise-nonnegative matrices on the R^d lattice model.

R^d with the l^q norm is q-concave with constant 1, which turns the lattice
statements into concrete coordinatewise inequalities.  The central one,
checked by krivine_checks, is

    (e^n / (28 sqrt(n))) * (sum_{n-sqrt(n) <= k <= n} (T^k x)^q)^{1/q}
        <= sum_{k >= 0} (n^k / k!) T^k x     (entrywise, x >= 0).

All series work happens on Poisson-normalized weights w_k = n^k e^{-n} / k!
so nothing overflows; the dropped tail carries an explicit geometric
certificate and the check refuses to pass when that certificate is weak.

krivine_checks runs the series once for a whole (B, d) stack of vectors that
share T, n and q, one matrix-vector product per row and power, so each row's
result is bit for bit that of a one-row stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import ComplexMatrix, _require
from .verify import bound_m_range, poisson_log_weights

_TAIL_REL_LIMIT = 1e-8
# 2^20 series terms: past it the powers' loop and the log-factorial table take
# minutes and gigabytes
_MAX_TERMS = 1 << 20


class TruncationError(ArithmeticError):
    """The truncated-series tail certificate is too weak to trust the check."""


@dataclass(frozen=True, eq=False)
class PositiveOperator:
    """An entrywise-nonnegative real matrix; positivity guard is strict."""

    matrix: ComplexMatrix

    def __post_init__(self):
        e = self.matrix.entries
        if not np.all(e.imag == 0.0):
            raise ValueError("positive operator must have real entries")
        if not np.all(e.real >= 0.0):
            raise ValueError("positive operator must have nonnegative entries")

    @property
    def array(self) -> np.ndarray:
        return self.matrix.entries.real

    @property
    def dim(self) -> int:
        return self.matrix.dim


@dataclass(frozen=True)
class KrivineResult:
    margin: float
    tail_rel: float
    trunc_terms: int


def krivine_checks(
    T: PositiveOperator,
    xs,
    n: int,
    q: float,
    trunc_terms: int | None = None,
) -> list[KrivineResult]:
    """Coordinatewise margin of the windowed l^q block against the full series,
    for each row x of the (B, d) array xs.

    margin = min over coordinates of (rhs_i + tail) / lhs_i, where both sides
    carry the common e^n factor removed.  Coordinates with lhs_i = 0 pass
    vacuously; if every coordinate does, the margin is +inf.  The error raised
    is the one the first failing row would raise on its own.  A series of
    more than _MAX_TERMS terms is refused with a ValueError naming kmax,
    before anything is allocated.
    """
    A = T.array
    X = np.array(xs, dtype=float).reshape(-1, T.dim)
    negative = np.any(X < 0, axis=1)
    if negative[:1].any():
        raise ValueError("x must be entrywise nonnegative")
    _require("n", n, 2)
    _require("q", q, 1, 2)
    with np.errstate(over="ignore"):  # an infinite row sum is refused below
        t_inf = float(np.max(np.sum(A, axis=1)))
    kmax = trunc_terms if trunc_terms is not None else max(4 * n, 128, 2 * n * max(t_inf, 1.0))
    if kmax > _MAX_TERMS:
        raise ValueError(f"the series at n = {n} needs kmax = {kmax:.6g} terms, more than "
                         f"{_MAX_TERMS}")
    kmax = math.ceil(kmax)
    if kmax < n + 1:
        raise TruncationError(f"trunc_terms={kmax} does not even reach the window at n={n}")
    X[negative] = 0.0  # rejected below, in row order

    ks = np.arange(0, kmax + 1)
    w = np.exp(poisson_log_weights(n, ks))
    win = bound_m_range(n)

    rhs = np.zeros_like(X)
    lhs_q = np.zeros_like(X)
    for k in range(0, kmax + 1):
        if k > 0:
            # one matrix-vector product per row: a matrix-matrix product
            # would round differently from the one-vector run
            X = np.matmul(A, X[:, :, None])[:, :, 0]
        rhs += w[k] * X
        if k in win:
            lhs_q += X ** q
    x_kmax_inf = np.max(X, axis=1)
    lhs = lhs_q ** (1.0 / q) / (28.0 * math.sqrt(n))

    # geometric tail certificate: for k > kmax,
    #   w_k ||T^k x||_inf <= w_kmax ||T^kmax x||_inf (n ||T||_inf / (kmax+1))^{k-kmax}
    ratio = n * t_inf / (kmax + 1.0)
    has_tail = (t_inf != 0.0) & (x_kmax_inf != 0.0)
    tail = np.zeros_like(x_kmax_inf)
    if ratio < 1.0:
        tail[has_tail] = w[kmax] * x_kmax_inf[has_tail] * ratio / (1.0 - ratio)

    relevant = lhs > 0.0
    rhs_min = np.min(np.where(relevant, rhs, np.inf), axis=1)
    tail_rel = np.full_like(tail, np.inf)
    np.divide(tail, rhs_min, out=tail_rel, where=rhs_min > 0)
    with np.errstate(over="ignore"):  # a subnormal lhs: the margin is inf
        margins = (rhs + tail[:, None]) / np.where(relevant, lhs, 1.0)
    margins[~relevant] = math.inf

    results = []
    for b in range(X.shape[0]):
        if negative[b]:
            raise ValueError("x must be entrywise nonnegative")
        if has_tail[b] and ratio >= 1.0:
            raise TruncationError(
                f"geometric tail ratio {ratio:.3f} >= 1; increase trunc_terms beyond {kmax}"
            )
        if not relevant[b].any():
            results.append(KrivineResult(math.inf, 0.0, kmax))
            continue
        if tail_rel[b] >= _TAIL_REL_LIMIT:
            raise TruncationError(
                f"tail certificate {tail_rel[b]:.3e} of rhs is not below {_TAIL_REL_LIMIT:.0e}"
            )
        results.append(KrivineResult(float(margins[b].min()), float(tail_rel[b]), int(kmax)))
    return results


@dataclass(frozen=True)
class BlockBoundResult:
    margin: float
    witness: np.ndarray | None


def block_bound_check(
    T: PositiveOperator,
    q: float,
    ks_ref: float,
    n: int,
    corpus: int = 100,
    seed: int = 0,
) -> BlockBoundResult:
    """min over a seeded nonnegative unit corpus of
    28 Ks sqrt(n) ||x|| / (sum_{window} ||T^k x||_q^q)^{1/q}.

    A margin below 1 is a flagged finding, not a disproof: ks_ref is a lower
    bound of the true strong-Kreiss constant.
    """
    _require("ks_ref", ks_ref, 0, math.inf, "()")
    _require("n", n, 2)
    _require("q", q, 1)
    _require("corpus", corpus, 1)
    A = T.array
    rng = np.random.default_rng(seed)
    X = np.abs(rng.standard_normal((T.dim, corpus)))
    scale = np.sum(X ** q, axis=0) ** (1.0 / q)
    X /= np.where(scale == 0, 1.0, scale)
    win = bound_m_range(n)
    acc = np.zeros(corpus)
    Xk = X.copy()
    for k in range(0, n + 1):
        if k > 0:
            Xk = A @ Xk
        if k in win:
            acc += np.sum(Xk ** q, axis=0)
    denom = acc ** (1.0 / q)
    rhs = 28.0 * ks_ref * math.sqrt(n)
    with np.errstate(over="ignore"):  # a subnormal denominator: the margin is inf
        margins = np.where(denom > 0, rhs / np.where(denom == 0, 1.0, denom), np.inf)
    j = int(np.argmin(margins))
    witness = X[:, j].copy() if math.isfinite(margins[j]) else None
    return BlockBoundResult(float(margins[j]), witness)
