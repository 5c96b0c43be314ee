"""Reference implementations that the library's fast paths are checked against.

Each one computes a quantity the slow, plain way: the appendix window sums
term by term in the log domain with compensated summation, the pairing of
two trigonometric polynomials by quadrature on the torus, and a multiplier's
value at one frequency by case analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from kreisslab.fourier import TrigPolynomial
from kreisslab.operators import _require
from kreisslab.verify import poisson_window


class EmptyWindowError(ValueError):
    """The Poisson window [m - sqrt(n), m - 1] holds no admissible integer."""


def log_poisson_term(n: int, k: int) -> float:
    """log(n^k / k!) = k log n - lgamma(k+1).

    Relative accuracy is a few ulp (math.lgamma); for k up to 1e6 the value
    has magnitude ~1e7, so the achievable absolute error of a float64 result
    is ~1e-9, far below every slack the appendix sweep certifies.
    """
    _require("n", n, 1)
    _require("k", k, 0)
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


@dataclass(frozen=True)
class WindowSumRow:
    n: int
    m: int
    log_b: float  # natural log of b_{n,m}
    a: float  # e^n / b_{n,m}


def poisson_window_sum(n: int, m: int) -> WindowSumRow:
    """b_{n,m} = sum over the Poisson window of n^k / k!, in the log domain."""
    _require("n", n, 2)  # the window estimates start at n = 2
    _require("m", m, n - math.sqrt(n), n, "[]")
    lo, hi = poisson_window(n, m)
    if hi < lo:
        raise EmptyWindowError(f"no admissible k for n={n}, m={m}")
    log_b = log_sum_exp(log_poisson_term(n, k) for k in range(lo, hi + 1))
    return WindowSumRow(n=n, m=m, log_b=log_b, a=math.exp(n - log_b))


def pairing_quadrature(f: TrigPolynomial, g: TrigPolynomial, n_points: int | None = None) -> complex:
    """<f, g> as the mean of <f(t), g(t)> over a grid exact for f conj(g)."""
    M = f.max_abs_freq + g.max_abs_freq
    N = int(n_points) if n_points is not None else 2 * M + 1
    vf = f.values_on_grid(N)
    vg = g.values_on_grid(N)
    return complex(np.mean(np.sum(vf * np.conj(vg), axis=1)))


def multiplier_at(m, n: int) -> complex:
    """m_n by cases: left_tail below the window, right_tail above it.

    An empty window gives left_tail everywhere, where MultiplierSeq.at_many
    makes it a step at window_lo: the two agree on non-empty windows only.
    """
    if not m.values:
        return m.left_tail
    if n < m.window_lo:
        return m.left_tail
    if n > m.window_lo + len(m.values) - 1:
        return m.right_tail
    return m.values[n - m.window_lo]
