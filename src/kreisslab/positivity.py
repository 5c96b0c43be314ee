"""Inequality checks for entrywise-nonnegative matrices on the R^d lattice model.

R^d with the l^q norm is q-concave with constant 1, which turns the lattice
statements into concrete coordinatewise inequalities.  The central one,
checked by krivine_check, is

    (e^n / (28 sqrt(n))) * (sum_{n-sqrt(n) <= k <= n} (T^k x)^q)^{1/q}
        <= sum_{k >= 0} (n^k / k!) T^k x     (entrywise, x >= 0).

All series work happens on Poisson-normalized weights w_k = n^k e^{-n} / k!
so nothing overflows; the dropped tail carries an explicit geometric
certificate and the check refuses to pass when that certificate is weak.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import ComplexMatrix
from .verify import bound_m_range, poisson_log_weights

_TAIL_REL_LIMIT = 1e-8


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
    n: int
    q: float
    trunc_terms: int
    window: tuple[int, int]
    argmin_coord: int | None


def krivine_check(
    T: PositiveOperator,
    x,
    n: int,
    q: float,
    trunc_terms: int | None = None,
) -> KrivineResult:
    """Coordinatewise margin of the windowed l^q block against the full series.

    margin = min over coordinates of (rhs_i + tail) / lhs_i, where both sides
    carry the common e^n factor removed.  Coordinates with lhs_i = 0 pass
    vacuously; if every coordinate does, the margin is +inf.
    """
    A = T.array
    xv = np.asarray(x, dtype=float).reshape(T.dim)
    if np.any(xv < 0):
        raise ValueError("x must be entrywise nonnegative")
    if n < 2:
        raise ValueError("n must be >= 2")
    if not (1.0 <= q < 2.0):
        raise ValueError("q must lie in [1, 2)")
    t_inf = float(np.max(np.sum(A, axis=1)))
    kmax = trunc_terms if trunc_terms is not None else max(4 * n, 128, math.ceil(2 * n * max(t_inf, 1.0)))
    if kmax < n + 1:
        raise TruncationError(f"trunc_terms={kmax} does not even reach the window at n={n}")

    ks = np.arange(0, kmax + 1)
    w = np.exp(poisson_log_weights(n, ks))
    win = bound_m_range(n)

    rhs = np.zeros(T.dim)
    lhs_q = np.zeros(T.dim)
    xk = xv.copy()
    x_kmax_inf = 0.0
    for k in range(0, kmax + 1):
        if k > 0:
            xk = A @ xk
        rhs += w[k] * xk
        if k in win:
            lhs_q += xk ** q
        if k == kmax:
            x_kmax_inf = float(np.max(xk)) if xk.size else 0.0
    lhs = lhs_q ** (1.0 / q) / (28.0 * math.sqrt(n))

    # geometric tail certificate: for k > kmax,
    #   w_k ||T^k x||_inf <= w_kmax ||T^kmax x||_inf (n ||T||_inf / (kmax+1))^{k-kmax}
    ratio = n * t_inf / (kmax + 1.0)
    if t_inf == 0.0 or x_kmax_inf == 0.0:
        tail = 0.0
    else:
        if ratio >= 1.0:
            raise TruncationError(
                f"geometric tail ratio {ratio:.3f} >= 1; increase trunc_terms beyond {kmax}"
            )
        tail = w[kmax] * x_kmax_inf * ratio / (1.0 - ratio)

    relevant = lhs > 0.0
    if not np.any(relevant):
        return KrivineResult(math.inf, 0.0, n, q, kmax, (int(win[0]), int(win[-1])), None)
    rhs_rel = rhs[relevant]
    tail_rel = tail / float(np.min(rhs_rel)) if np.min(rhs_rel) > 0 else math.inf
    if tail_rel >= _TAIL_REL_LIMIT:
        raise TruncationError(
            f"tail certificate {tail_rel:.3e} of rhs is not below {_TAIL_REL_LIMIT:.0e}"
        )
    margins = (rhs + tail) / np.where(relevant, lhs, 1.0)
    margins[~relevant] = math.inf
    i = int(np.argmin(margins))
    return KrivineResult(
        margin=float(margins[i]),
        tail_rel=float(tail_rel),
        n=n,
        q=q,
        trunc_terms=int(kmax),
        window=(int(win[0]), int(win[-1])),
        argmin_coord=i,
    )


@dataclass(frozen=True)
class BlockBoundResult:
    margin: float
    witness: np.ndarray | None
    n: int
    q: float
    ks_ref: float
    label: str = "consistency: lower-bound substitution"


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
    if ks_ref <= 0:
        raise ValueError("ks_ref must be positive")
    if n < 2:
        raise ValueError("n must be >= 2")
    if q < 1:
        raise ValueError("q must be >= 1")
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
    with np.errstate(divide="ignore"):
        margins = np.where(denom > 0, rhs / np.where(denom == 0, 1.0, denom), np.inf)
    j = int(np.argmin(margins))
    witness = X[:, j].copy() if math.isfinite(margins[j]) else None
    return BlockBoundResult(float(margins[j]), witness, n, q, ks_ref)
