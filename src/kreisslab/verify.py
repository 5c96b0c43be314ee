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

Factorials enter as log-factorials, read from the one table of log k! that
_log_factorials keeps per process (a numpy port of Cephes lgam, equal to
scipy.special.gammaln bit for bit, so no scipy import; 8 MB at n = 10^6),
and the window sums through Poisson-normalized weights, so the sweep reaches
n = 10^6 without overflow.  sweep_appendix is the one entry point: it works
on blocks of _CHUNK values of n at a time, and every row keeps the values and
summation order of a one-n sweep (sweep_appendix(n, n)); the sweep over n in
[2, 10^4] takes 0.09-0.13 s in process on a 2-vCPU x86 VM, its first call
(which builds the table) included.  It returns the appendix.csv table as a
dict of numpy columns, in header order.
"""

from __future__ import annotations

import math

import numpy as np

from .operators import _require

SUP_BOUND = 32.0
V1_BOUND = 978.0
_TOL = 1e-9
_SLACK_TOL = 1e-10
_REVIEW_MARGIN = 1e-6
_CHUNK = 128  # rows of n per numpy block


def poisson_window(n, m):
    """Integer k range [ceil(m - sqrt(n)) clamped at 0, m - 1], inclusive, elementwise."""
    return np.maximum(0, np.ceil(m - np.sqrt(n))).astype(int), m - 1


def bound_m_range(n: int) -> range:
    """Integers in [n - sqrt(n), n]: the m where a_{n,m} is nonzero.

    The same closed window n - sqrt(n) <= k <= n carries the l^q block of the
    positivity module's Krivine check.
    """
    return range(poisson_window(n, n)[0], n + 1)


# Cephes lgam's constants (S. L. Moshier, Methods and Programs for Mathematical
# Functions, 1989): log sqrt(2 pi) and the Stirling series for x < 1000
_LS2PI = 0.91893853320467274178
_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
      -2.77777777730099687205e-3, 8.33333333333331927722e-2)
_LOG_SMALL_FACTORIALS = np.array([math.log(math.factorial(k)) for k in range(12)])


def _lgam(x: np.ndarray) -> np.ndarray:
    """log Gamma(x) at each float64 integer x >= 1 of a 1-D array, as Cephes
    lgam (scipy.special.gammaln) evaluates it, bit for bit.

    Below 13 the value is log((x - 1)!) of the exact product; from 13 on it is
    Stirling's q = (x - 1/2) log x - x + log sqrt(2 pi), plus a series in
    1/x^2 over x (a degree-4 fit below 1000, three terms from there on).
    Cephes drops the series past 1e8; there it is below 1e-9, under half an
    ulp of q > 2^30, so adding it changes no bit.

    Scalar log on purpose: numpy's SIMD np.log is not bit-equal to math.log
    (with numpy 2.4 on an x86 Xeon it differed on 8 of the integers
    13..200,001), and Cephes takes the C library's log, as math.log does.
    math.lgamma is no substitute: it differs from gammaln in the last bit on
    103,496 of k = 0..200,000, which would move bytes of appendix.csv and of
    the positivity reports.
    """
    log_x = np.fromiter(map(math.log, memoryview(x)), float, x.size)  # no list of x
    q = (x - 0.5) * log_x - x + _LS2PI
    p = 1.0 / (x * x)
    series = np.where(x < 1000.0, (((_A[0] * p + _A[1]) * p + _A[2]) * p + _A[3]) * p + _A[4],
                      (7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                      + 0.0833333333333333333333)
    q = q + series / x
    return np.where(x < 13.0, _LOG_SMALL_FACTORIALS[np.minimum(x, 12.0).astype(int) - 1], q)


_log_factorial_table = np.zeros(0)  # built and grown by _log_factorials


def _log_factorials(k_max: int) -> np.ndarray:
    """log k! for k = 0..k_max, indexed by k: a read-only slice of the one
    table per process, the one site that evaluates log-gamma (_lgam at the
    float k + 1.0).

    The table is built on first use and rebuilt at least twice as long when
    a larger k_max is asked for, as decomp._phase_table is kept; each entry
    is the same whatever the table's length.  It holds 8 MB at k_max = 10^6.
    """
    global _log_factorial_table
    if k_max >= len(_log_factorial_table):
        table = _lgam(np.arange(max(k_max + 1, 2 * len(_log_factorial_table))) + 1.0)
        table.setflags(write=False)
        _log_factorial_table = table
    return _log_factorial_table[:k_max + 1]


def poisson_log_weights(n, ks: np.ndarray) -> np.ndarray:
    """log of the Poisson(n) probabilities n^k e^{-n} / k!, elementwise in ks.

    ks holds nonnegative integers.  n may be an integer array that broadcasts
    against ks; its logs are taken with math.log, one n at a time, so every n
    sees the same log n.  The log k! are read from the process's one table
    (_log_factorials), not built per call.
    """
    ks = np.asarray(ks)
    if not np.issubdtype(ks.dtype, np.integer) or (ks < 0).any():
        raise ValueError(f"ks must be nonnegative integers, got {ks.dtype} values "
                         f"{ks.ravel()[:4].tolist()}")
    log_n = np.reshape([math.log(v) for v in np.ravel(n).tolist()], np.shape(n))
    return ks * log_n - _log_factorials(int(ks.max(initial=0)))[ks] - n


def _sandwich_slacks(ns: np.ndarray) -> np.ndarray:
    """Least log-domain slack of the two sandwich estimates for each n of ns.

    Rows run over k in [0, floor(2 sqrt(n))] and repeat their last k out to
    the block's width, which leaves each row's minimum as it is.  The
    log (n - k)! are read from the process's one table (_log_factorials),
    which the window sums of the same sweep read too.
    """
    log_fact = _log_factorials(int(ns.max()))
    out = []
    for lo in range(0, len(ns), _CHUNK):
        n = ns[lo:lo + _CHUNK, None]
        log_n, lower_ref, upper_ref = np.array([
            (math.log(v), v - math.log(28.0 * math.sqrt(v)),
             v - 0.5 * math.log(8.0 * math.pi * v / 5.0)) for v in n.ravel().tolist()
        ]).T[:, :, None]
        kmax = np.floor(2.0 * np.sqrt(n)).astype(int)
        ks = np.minimum(np.arange(int(kmax.max()) + 1), kmax)
        mid = (n - ks) * log_n - log_fact[n - ks]
        out.append(np.minimum((mid - lower_ref).min(1), (upper_ref - mid).min(1)))
    return np.concatenate(out)


def _a_values(ns: np.ndarray):
    """Yield (rows, a): row i of a holds a_{n,m} over the nonzero m range for
    n = ns[rows[i]], via Poisson-normalized prefix sums.

    b_{n,m} e^{-n} is a window sum of Poisson(n) probabilities, all of size
    ~1/sqrt(n) within the relevant range, so plain float64 prefix arithmetic
    keeps ~1e-14 relative accuracy; the log-domain window sum of the test
    oracles cross-checks this path.
    The n of one block share the lengths of their k and m ranges, so each row
    holds exactly its own values and its sums run in the one-n order.
    """
    m_lo = poisson_window(ns, ns)[0]  # bound_m_range(n).start
    k_lo = poisson_window(ns, m_lo)[0]  # union of windows: k_lo..n-1
    k_len, m_len = ns - k_lo, ns - m_lo + 1
    key = k_len * (int(m_len.max()) + 1) + m_len
    order = np.argsort(key, kind="stable")
    for group in np.split(order, np.flatnonzero(np.diff(key[order])) + 1):
        for lo in range(0, len(group), _CHUNK):
            rows = group[lo:lo + _CHUNK]
            n, kl, nk, nm = ns[rows, None], k_lo[rows, None], k_len[rows[0]], m_len[rows[0]]
            w = np.exp(poisson_log_weights(n, kl + np.arange(nk)))
            prefix = np.concatenate((np.zeros((len(rows), 1)), np.cumsum(w, axis=1)), axis=1)
            m = m_lo[rows, None] + np.arange(nm)
            win_lo = poisson_window(n, m)[0] - kl
            yield rows, 1.0 / (prefix[:, nk - nm + 1:] - np.take_along_axis(prefix, win_lo, 1))


def _window_stats(ns: np.ndarray):
    """(sup_a, v1_a) for each n of ns: sup and total variation of a_{n,.}.

    V^1 over Z with zeros outside the nonzero range equals the two boundary
    values plus the interior absolute differences.
    """
    sup_a, v1_a = np.empty(len(ns)), np.empty(len(ns))
    for rows, a in _a_values(ns):
        sup_a[rows] = np.max(a, axis=1)
        v1_a[rows] = a[:, 0] + np.abs(np.diff(a, axis=1)).sum(axis=1) + a[:, -1]
    return sup_a, v1_a


def sweep_appendix(n_lo: int = 2, n_hi: int = 10_000) -> dict[str, np.ndarray]:
    """Run both checks for every n in [n_lo, n_hi], a block of n at a time.

    Returns the appendix.csv table: columns n, sup_a, v1_a, a1_min_slack,
    a1_pass, a2_pass and review (within 1e-6 of a bound: surfaced for human
    review), one row per n.
    """
    _require("n_lo", n_lo, 2)
    _require("n_hi", n_hi, n_lo)
    ns = np.arange(n_lo, n_hi + 1)
    slack = _sandwich_slacks(ns)
    sup_a, v1_a = _window_stats(ns)
    return {
        "n": ns, "sup_a": sup_a, "v1_a": v1_a, "a1_min_slack": slack,
        "a1_pass": slack >= -_SLACK_TOL,
        "a2_pass": (sup_a <= SUP_BOUND + _TOL) & (v1_a <= V1_BOUND + _TOL),
        "review": ((slack < _REVIEW_MARGIN) | (SUP_BOUND - sup_a < _REVIEW_MARGIN)
                   | (V1_BOUND - v1_a < _REVIEW_MARGIN)),
    }
