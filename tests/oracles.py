"""Reference implementations that the library's fast paths are checked against.

Each one computes a quantity the slow, plain way: the appendix window sums
term by term in the log domain with compensated summation, the pairing of
two trigonometric polynomials by quadrature on the torus, a multiplier's
value at one frequency by case analysis, the torus norm and the multiplier
ratio one polynomial at a time, the marcinkiewicz subcommand one trial at a
time, the bound-pruned sweep with every point kept in the power ledger to
its last step, the pruning rule with a first take of each group's top
highest-bound points only, the decomposition-constant search with every
corpus sample and ascent candidate scored, and the exponential of a
triangular matrix at 50 digits.  ledger_steps counts the work of the power ledger.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import kreisslab.norms
from kreisslab import cli, decomp, resolvent
from kreisslab.fourier import (
    MultiplierSeq,
    TrigPolynomial,
    _coefficient_ascents,
    _inner_norms,
    _random_polynomial,
    apply_multiplier,
    quadrature_points,
    v1_seminorm,
)
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
    vf = values_alone(f, N)
    vg = values_alone(g, N)
    return complex(np.mean(np.sum(vf * np.conj(vg), axis=1)))


def values_alone(f: TrigPolynomial, N: int) -> np.ndarray:
    """f at t_j = j/N, shape (N, dim): one polynomial's scatter and aliased inverse DFT."""
    A = np.zeros((N, f.dim), dtype=complex)
    np.add.at(A, np.array(f.freqs, dtype=int) % N, f.vecs)
    return np.fft.ifft(A, axis=0) * N


def torus_norm_alone(f: TrigPolynomial, p: float, inner_p: float,
                     n_points: int | None = None) -> float:
    """lp_torus_norm's value as it was while each polynomial took its own grid
    pass, kept verbatim as an oracle: the inner norms of values_alone, then the
    mean of their powers and its root."""
    if f.is_zero:
        return 0.0
    N = int(n_points) if n_points is not None else quadrature_points(f, p, inner_p)[0]
    row = _inner_norms(values_alone(f, N), inner_p)
    return float(np.mean(row ** p) ** (1.0 / p))


def multiplier_ratio_alone(f: TrigPolynomial, m: MultiplierSeq, p: float,
                           inner_p: float) -> float:
    """||T_m f||_p / ||f||_p from torus_norm_alone, 0.0 where ||f||_p is 0."""
    den = torus_norm_alone(f, p, inner_p)
    if den == 0.0:
        return 0.0
    return torus_norm_alone(apply_multiplier(f, m), p, inner_p) / den


def marcinkiewicz_one_trial_at_a_time(params) -> cli.Outcome:
    """cli's marcinkiewicz handler as it was while it drew and scored one trial at
    a time, kept verbatim as an oracle, with multiplier_ratio_alone for the ratio."""
    rng = np.random.default_rng(params["seed"])
    samples = []
    span = params["span"]
    for _ in range(params["trials"]):
        signs = rng.choice([-1.0, 1.0], size=2 * span + 1)
        m = MultiplierSeq(-span, tuple(signs))
        f = _random_polynomial(rng, params["dim"], params["span"])
        lhs = multiplier_ratio_alone(f, m, params["p"], params["inner_p"])
        samples.append(lhs / (m.sup_norm() + v1_seminorm(m)))
    best = max([0.0, *samples])
    payload = {
        "p": params["p"], "span": params["span"], "trials": params["trials"],
        "max_sample": best,
        "mean_sample": float(np.mean(samples)),
        "label": "empirical lower bound for the multiplier constant",
    }
    return cli.Outcome("marcinkiewicz", payload, f"marcinkiewicz: p={params['p']} max sample "
                                                 f"ratio {best:.6f} over {len(samples)} trials")


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


def ledger_steps(monkeypatch):
    """Count the power ledger's matrix-steps in resolvent: the stack sizes summed over
    the steps resolvent._power_ledger yields."""
    real, count = resolvent._power_ledger, [0]

    def counted(R, n_max):
        for step in real(R, n_max):
            count[0] += len(step[1])
            yield step

    monkeypatch.setattr(resolvent, "_power_ledger", counted)
    return count


def top_norms_first_top(upper, groups, top, value):
    """norms._top_norms as it was while its first take held only each group's top
    highest-bound points, kept verbatim as an oracle: a group with more than top
    points of +inf or NaN bound took its floor from the first top of them.
    value(idx) returns the values at the points idx."""
    count = len(upper)
    sizes = np.diff(groups, append=count)
    order = np.lexsort((-np.where(np.isnan(upper), np.inf, upper),
                        np.repeat(np.arange(len(groups)), sizes)))
    first = np.zeros(count, dtype=bool)
    first[order[np.arange(count) - np.repeat(groups, sizes) < top]] = True
    vals = np.full(count, -np.inf)

    def take(mask):
        idx = np.flatnonzero(mask)
        if idx.size:
            vals[idx] = value(idx if idx.size < count else slice(None))

    take(first)
    floors = kreisslab.norms._tops(vals, groups, top, np.empty((len(groups), 0)))[:, -1]
    take(~first & ~(upper < np.repeat(floors, sizes)))
    return vals


def sweep_every_point(stack, score, p, acfg, groups=None, top=1, start=-math.inf, powers=0):
    """resolvent._pruned_sweep as it was while pass 1 ran every point through every
    step of the stack, kept verbatim as an oracle; it reads the norms module's norms,
    bounds and pruning rule, so a patched one counts here too."""
    steps = stack(slice(None))
    try:
        n, M, log_scale = next(steps)
    except StopIteration:  # no step at all
        return None
    every = np.arange(len(M))
    groups = every if groups is None else np.asarray(groups)
    sizes = np.diff(groups, append=len(M))
    if np.ndim(start) == 0:  # one value for every group
        start = np.full((len(groups), 1), start)
    norms = np.full(len(M), np.nan)

    def first(idx, _tops):
        norms[idx] = kreisslab.norms._batched_norm_lower(M[idx], p, acfg)
        return score(n, idx, log_scale[idx], norms[idx])

    def scored(n, log_scale, log_norms):
        with np.errstate(over="ignore", divide="ignore"):
            return score(n, every, log_scale, np.exp(log_norms))

    def pool():  # every point gets its group's floor
        floors = kreisslab.norms._tops(np.maximum(low, best), groups, top, start)[:, -1]
        return np.repeat(floors, sizes)

    def take(n, idx, mats, log_scale):
        vals = score(n, idx, log_scale, kreisslab.norms._batched_norm_lower(mats, p, acfg))
        better = (vals > best[idx]) | ((vals == best[idx]) & (n < best_n[idx]))
        best[idx] = np.where(better, vals, best[idx])
        best_n[idx] = np.where(better, n, best_n[idx])

    lo, hi = kreisslab.norms._log_norm_bounds(M, p)
    vals = kreisslab.norms._top_norms(scored(n, log_scale, hi), groups, top, first, start)
    best = np.where(vals > -np.inf, vals, -np.inf)
    best_n = np.where(vals > -np.inf, n, 0)
    low = scored(n, log_scale, lo)  # with best, each point's lower bound
    if powers:
        per_power = kreisslab.norms._log_step_cap(M, p, log_scale, hi, norms)
    uppers = []
    for n, M, log_scale in steps:
        lo, hi = kreisslab.norms._log_norm_bounds(M, p)
        if powers:
            hi = np.minimum(hi, n * per_power - log_scale)
        low = np.maximum(low, scored(n, log_scale, lo))
        uppers.append(scored(n, log_scale, hi))
    floor = pool()
    if uppers:
        rows = np.flatnonzero(~(uppers.pop() < floor))
        if rows.size:
            take(n, rows, M[rows], log_scale[rows])
            floor = pool()
    need = np.array([~(up < floor) for up in uppers]).reshape(-1, len(every))
    pts = np.flatnonzero(need.any(axis=0))
    if pts.size:
        steps = stack(pts)
        next(steps)
        last = np.flatnonzero(need.any(axis=1))[-1]
        for up, (n, M, log_scale) in zip(uppers[:last + 1], steps):
            rows = np.flatnonzero(~(up[pts] < floor[pts]))
            if rows.size:
                take(n, pts[rows], M[rows], log_scale[rows])
                floor = pool()
    return best, best_n


def estimate_every_sample(p, q, inner_p, side, gamma, cfg) -> decomp.DecompositionEstimate:
    """decomp.estimate_constant as it was while it built a block-norm triangle for
    every corpus sample, one program per support size, and every ascent
    candidate, its scorer ignoring the floors."""
    rng = np.random.default_rng(cfg.seed)
    corpus = decomp._sign_pattern_candidates(cfg)
    for _ in range(cfg.trials):
        f = decomp._draw_polynomial(rng, cfg)
        if not f.is_zero:
            corpus.append(f)
    by_size: dict[int, list[int]] = {}
    for k, f in enumerate(corpus):
        by_size.setdefault(len(f.freqs), []).append(k)
    scored: list = [None] * len(corpus)
    for idx in by_size.values():
        for k, result in zip(idx, decomp._score([corpus[k] for k in idx], p, q, inner_p,
                                                gamma, side)):
            scored[k] = result
    order = sorted(range(len(corpus)), key=lambda k: scored[k][0], reverse=True)
    best_val, best_cuts = scored[order[0]]
    best_f = corpus[order[0]]
    ends = _coefficient_ascents([(corpus[k], scored[k]) for k in order[:decomp._TOP_K]],
                                lambda fs, _floors: decomp._score(fs, p, q, inner_p, gamma, side),
                                cfg.ascent_steps, rng)
    for cur, f, cur_cuts in ends:
        if cur > best_val:
            best_val, best_f, best_cuts = cur, f, cur_cuts
    return decomp.DecompositionEstimate(best_val, best_f, decomp._partition(best_f, best_cuts))


def expm_upper_triangular_mp(A) -> np.ndarray:
    """e^A for an upper triangular A with distinct diagonal entries, by Parlett's
    recurrence at 50 digits: F A = A F gives each entry of F from the entries
    nearer the diagonal (Higham, Functions of Matrices, ch. 4)."""
    import mpmath

    with mpmath.workdps(50):
        T = mpmath.matrix(np.asarray(A, dtype=complex).tolist())
        d = T.rows
        F = mpmath.zeros(d)
        for i in range(d):
            F[i, i] = mpmath.exp(T[i, i])
        for k in range(1, d):
            for i in range(d - k):
                j = i + k
                s = T[i, j] * (F[j, j] - F[i, i])
                for m in range(i + 1, j):
                    s += T[i, m] * F[m, j] - F[i, m] * T[m, j]
                F[i, j] = s / (T[j, j] - T[i, i])
        return np.array(F.tolist(), dtype=complex)
