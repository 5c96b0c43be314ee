"""High-precision verification of the two factorial-window estimates.

Sandwich check: for n >= 2 and every integer k in [0, 2 sqrt(n)],

    e^n / (28 sqrt(n))  <=  n^{n-k} / (n-k)!  <=  e^n / sqrt(8 pi n / 5).

Window-bound check: with b_{n,m} = sum_{m - sqrt(n) <= k <= m-1} n^k / k! and
a_{n,m} = e^n / b_{n,m} for integer m in [n - sqrt(n), n] (zero otherwise),

    sup_m a_{n,m} <= 32   and   [a_{n,.}]_{V^1} <= 978.

These reciprocal window sums are exactly the coefficients that turn a
truncated exponential sum into a bounded-variation Fourier multiplier, so the
constants 32 and 978 feed directly into the multiplier-norm budget elsewhere.

Index convention: "m - sqrt(n) <= k" uses the real square root with integer k
in the closed interval, i.e. k runs from ceil(m - sqrt(n)) clamped at 0 up to
m - 1.  An off-by-one here silently changes the constants, so this module
is the single owner of that window (poisson_window, bound_m_range) and of
the Poisson weights (poisson_log_weights); the positivity checks use both.

All arithmetic stays in the natural-log domain (factorials via lgamma), with
compensated summation for the window sums, so the sweep reaches n = 10^4 in
under a second and n = 10^6 without overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._parallel import parallel_map

SUP_BOUND = 32.0
V1_BOUND = 978.0
_TOL = 1e-9
_SLACK_TOL = 1e-10
_REVIEW_MARGIN = 1e-6


class EmptyWindowError(ValueError):
    """The Poisson window [m - sqrt(n), m - 1] holds no admissible integer."""


def log_poisson_term(n: int, k: int) -> float:
    """log(n^k / k!) = k log n - lgamma(k+1).

    Relative accuracy is a few ulp (math.lgamma); for k up to 1e6 the value
    has magnitude ~1e7, so the achievable absolute error of a float64 result
    is ~1e-9, far below every slack this module certifies.
    """
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    return k * math.log(n) - math.lgamma(k + 1)


def log_sum_exp(log_terms, reverse: bool = False) -> float:
    """Stable log(sum exp(t_i)) with compensated (fsum) accumulation."""
    terms = list(log_terms)
    if not terms:
        return -math.inf
    if reverse:
        terms = terms[::-1]
    m = max(terms)
    if math.isinf(m):
        return m
    return m + math.log(math.fsum(math.exp(t - m) for t in terms))


def poisson_window(n: int, m: int) -> tuple[int, int]:
    """Integer k range [ceil(m - sqrt(n)) clamped at 0, m - 1], inclusive."""
    lo = max(0, math.ceil(m - math.sqrt(n)))
    hi = m - 1
    return lo, hi


@dataclass(frozen=True)
class WindowSumRow:
    n: int
    m: int
    log_b: float  # natural log of b_{n,m}
    a: float  # e^n / b_{n,m}


def bound_m_range(n: int) -> range:
    """Integers in [n - sqrt(n), n]: the m where a_{n,m} is nonzero.

    The same closed window n - sqrt(n) <= k <= n carries the l^q block of the
    positivity module's Krivine check.
    """
    return range(poisson_window(n, n)[0], n + 1)


def poisson_log_weights(n: int, ks: np.ndarray) -> np.ndarray:
    """log of the Poisson(n) probabilities n^k e^{-n} / k!, elementwise in ks."""
    from scipy.special import gammaln  # scipy is imported on first use only

    return ks * math.log(n) - gammaln(ks + 1.0) - n


def poisson_window_sum(n: int, m: int) -> WindowSumRow:
    """b_{n,m} = sum over the Poisson window of n^k / k!, in the log domain."""
    if n < 2:
        raise ValueError("the window estimates start at n = 2")
    if not (n - math.sqrt(n) <= m <= n):
        raise ValueError(f"m={m} outside the index range [n - sqrt(n), n] for n={n}")
    lo, hi = poisson_window(n, m)
    if hi < lo:
        raise EmptyWindowError(f"no admissible k for n={n}, m={m}")
    log_b = log_sum_exp(log_poisson_term(n, k) for k in range(lo, hi + 1))
    return WindowSumRow(n=n, m=m, log_b=log_b, a=math.exp(n - log_b))


@dataclass(frozen=True)
class SandwichResult:
    n: int
    min_slack: float  # log-domain slack, >= 0 when the estimate holds
    argmin_k: int
    argmin_side: str  # 'lower' or 'upper'
    passed: bool


def verify_factorial_sandwich(n: int) -> SandwichResult:
    """Both sandwich inequalities for every integer k in [0, 2 sqrt(n)]."""
    if n < 2:
        raise ValueError("n must be >= 2")
    from scipy.special import gammaln

    kmax = math.floor(2.0 * math.sqrt(n))
    ks = np.arange(0, kmax + 1)
    mid = (n - ks) * math.log(n) - gammaln(n - ks + 1.0)
    lower_ref = n - math.log(28.0 * math.sqrt(n))
    upper_ref = n - 0.5 * math.log(8.0 * math.pi * n / 5.0)
    slack_lo = mid - lower_ref
    slack_hi = upper_ref - mid
    i_lo = int(np.argmin(slack_lo))
    i_hi = int(np.argmin(slack_hi))
    if slack_lo[i_lo] <= slack_hi[i_hi]:
        min_slack, argk, side = float(slack_lo[i_lo]), int(ks[i_lo]), "lower"
    else:
        min_slack, argk, side = float(slack_hi[i_hi]), int(ks[i_hi]), "upper"
    return SandwichResult(n, min_slack, argk, side, bool(min_slack >= -_SLACK_TOL))


@dataclass(frozen=True)
class WindowBoundsResult:
    n: int
    sup_a: float
    v1_a: float
    passed: bool


def _a_values(n: int) -> np.ndarray:
    """a_{n,m} over the nonzero m range, via Poisson-normalized prefix sums.

    b_{n,m} e^{-n} is a window sum of Poisson(n) probabilities, all of size
    ~1/sqrt(n) within the relevant range, so plain float64 prefix arithmetic
    keeps ~1e-14 relative accuracy; poisson_window_sum cross-checks this path.
    """
    ms = bound_m_range(n)
    m_lo = ms.start
    k_lo, _ = poisson_window(n, m_lo)
    ks = np.arange(k_lo, n)  # union of windows: k up to n - 1
    w = np.exp(poisson_log_weights(n, ks))
    prefix = np.concatenate(([0.0], np.cumsum(w)))
    sqrt_n = math.sqrt(n)
    m_arr = np.arange(m_lo, n + 1)
    lo_arr = np.maximum(0, np.ceil(m_arr - sqrt_n).astype(int))
    b_norm = prefix[m_arr - k_lo] - prefix[lo_arr - k_lo]
    return 1.0 / b_norm


def verify_window_bounds(n: int) -> WindowBoundsResult:
    """sup and total variation of the extended-by-zero sequence a_{n,.}.

    V^1 over Z with zeros outside the nonzero range equals the two boundary
    values plus the interior absolute differences.
    """
    a = _a_values(n)
    sup_a = float(np.max(a))
    v1 = float(a[0] + np.abs(np.diff(a)).sum() + a[-1])
    passed = sup_a <= SUP_BOUND + _TOL and v1 <= V1_BOUND + _TOL
    return WindowBoundsResult(n, sup_a, v1, bool(passed))


@dataclass(frozen=True)
class SweepRow:
    n: int
    sup_a: float
    v1_a: float
    a1_min_slack: float
    a1_pass: bool
    a2_pass: bool
    review: bool  # within 1e-6 of a bound: surfaced for human review


def _sweep_one(n: int) -> SweepRow:
    a1 = verify_factorial_sandwich(n)
    a2 = verify_window_bounds(n)
    review = (
        a1.min_slack < _REVIEW_MARGIN
        or SUP_BOUND - a2.sup_a < _REVIEW_MARGIN
        or V1_BOUND - a2.v1_a < _REVIEW_MARGIN
    )
    return SweepRow(n, a2.sup_a, a2.v1_a, a1.min_slack, a1.passed, a2.passed, bool(review))


def sweep_appendix(n_lo: int = 2, n_hi: int = 10_000, threads: int = 1) -> list[SweepRow]:
    """Run both checks for every n in [n_lo, n_hi]."""
    if n_lo < 2 or n_hi < n_lo:
        raise ValueError("need 2 <= n_lo <= n_hi")
    return parallel_map(_sweep_one, range(n_lo, n_hi + 1), threads=threads)


SWEEP_CSV_HEADER = ("n", "sup_a", "v1_a", "a1_min_slack", "a1_pass", "a2_pass", "review")


def sweep_csv_rows(rows: list[SweepRow]) -> list[tuple]:
    return [
        (r.n, r.sup_a, r.v1_a, r.a1_min_slack, int(r.a1_pass), int(r.a2_pass), int(r.review))
        for r in rows
    ]
