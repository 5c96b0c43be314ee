"""Upper/lower frequency-decomposition ratios and the derived inequalities.

For an interval family I covering the support of f, the two ratios

  upper side:  ||f||_p / (sum_I ||D_I f||_p^q)^{1/q}
  lower side:  (sum_I ||D_I f||_p^q)^{1/q} / ||f||_p

are sample-wise lower bounds for any admissible upper/lower decomposition
constant of the ambient space.  estimate_constant accumulates an empirical
floor over a seeded corpus; it never claims convergence to the true constant
(the interesting spaces are infinite dimensional) and all reports label the
value as an empirical floor.

A sample's score takes a block-norm triangle, s(s+1)/2 torus norms, but the
search reads only the best ones.  _score_bounds gives each sample a certified
upper bound on its score from its coefficients and ||f||_p alone: on the
upper side at p >= 2, ||f||_p / (kappa_lo A), and on the lower side at
p <= 2, kappa_hi A' / ||f||_p (discrete Parseval, the power mean and the
closed-form extremes of sum_I ||c_I||_2^q over partitions), widened by the
rounding budget next to _U; the other two sides have no bound and pay
nothing.  _pruned_scores, the one path to triangles, builds them only where
the bound reaches a floor: over the corpus by norms._top_norms, the rule of
resolvent's sweeps, and for each ascent candidate against its start's
value.  Every value the search reads is exact, so its results are those of
scoring every sample.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .fourier import (
    Interval,
    IntervalPartition,
    TrigPolynomial,
    _coefficient_ascents,
    _inner_norms,
    _torus_norms,
    lp_torus_norm,
    pairing,
    quadrature_points,
)
from .norms import _top_norms, vector_p_norm
from .operators import _require

# complex grid values per numpy pass of _slot_block_norms; larger passes leave
# the cache and run slower
_CHUNK = 1 << 12
_TINY = np.finfo(float).tiny
# the best corpus samples that start estimate_constant's ascents
_TOP_K = 10
_U = 2.0 ** -53  # unit roundoff
# Rounding budget of _score_bounds: _score's computed value of f is at most the
# computed bound before widening times (1 + delta)^2 / (1 - delta)^4, which is
# at most 1 + 8 delta for delta <= 1/32.  For f of s slots in C^d, largest
# |frequency| M and grid N, take L = kappa_lo ||c||_2 / sqrt(s), at most
# ||f||_p, the bound's aggregate and, at p >= 2, every partition's aggregate
# (each holds the block of the largest coefficient); delta sums
#   (4 d + N + 4 s + 64) u: relative rounding of each norm's inner norm, power,
#     N-term mean and root, of the partition sums and their root (an s-term sum
#     per partition) and of kappa, ||c||_2 and the q-norm of the ||c_n||_2;
#   s (24 M + 4 s + 8) u S / L with S = sum |c_nk| <= sqrt(s d) ||c||_2: a block
#     is a prefix difference, so each grid value is off by the phases' error
#     (22 M + 2) u, the product's 3 u, the two prefix sums' 3 s u and the
#     difference's u, all relative to the running prefix sum_{n <= j} |c_nk|
#     and not to the block; by Minkowski's inequality that moves a partition's
#     aggregate by at most s such errors, however small its blocks;
#   32 (log2 N + 2) u sqrt(N d) ||c||_2 / L: the FFT of _torus_norms, whose
#     normwise error is at most log2 N (mu + 4 sqrt(2) u) for radix 2, taken
#     5x over for the mixed-radix and Bluestein kernels;
#   (s + 2) (sqrt(d) 2^-537 + 2^(-1073 / p)) / L: squares and p-th powers that
#     underflow, in s blocks, ||f||_p and the torus norm.
# Past delta = 1/32, at ||c||_2 <= 2^-400, or where a p-th power of the grid
# values (each at most S <= 2 sqrt(s d) ||c||_2), or N of them summed, could
# pass 2^1000, the bound is +inf.


class ZeroPolynomialError(ValueError):
    """Decomposition ratios are undefined for the zero polynomial."""


def block_norms(f: TrigPolynomial, intervals, p: float, inner_p: float) -> np.ndarray:
    """||D_I f||_p for each interval I, on the full-support grid.

    One that holds no support frequency gets 0.
    """
    _require("p", p, 1)
    _require("inner_p", inner_p, 1, math.inf, "[]")
    freqs = np.asarray(f.freqs, dtype=float)
    lo = np.searchsorted(freqs, [-math.inf if iv.lo is None else iv.lo for iv in intervals])
    hi = np.searchsorted(freqs, [math.inf if iv.hi is None else iv.hi for iv in intervals],
                         "right") - 1
    out = np.zeros(len(intervals))
    held = lo <= hi
    if held.any():
        out[held] = _slot_block_norms(f, p, inner_p, lo[held], hi[held])
    return out


def decomposition_ratio(
    f: TrigPolynomial,
    part: IntervalPartition,
    p: float,
    q: float,
    inner_p: float,
    side: str,
) -> float:
    """One decomposition sample; any valid constant must dominate it."""
    if side not in ("upper", "lower"):
        raise ValueError(f"side must be 'upper' or 'lower', got {side!r}")
    if f.is_zero:
        raise ZeroPolynomialError("f must be nonzero")
    if not part.covers(f.freqs):
        raise ValueError("partition does not cover the support of f")
    # the last interval is the whole support
    norms = block_norms(f, part.intervals + (Interval(None, None),), p, inner_p)
    total, agg = float(norms[-1]), vector_p_norm(norms[:-1], q)
    if side == "upper":
        return total / agg
    return agg / total


@dataclass(frozen=True)
class DecompSearchConfig:
    """Seeded randomized witness search over supports, coefficients, partitions."""

    trials: int = 10_000
    ascent_steps: int = 200
    max_support: int = 32
    max_dim: int = 4
    seed: int = 0

    def __post_init__(self):
        for name, least in (("trials", 1), ("ascent_steps", 0), ("max_support", 2),
                            ("max_dim", 1), ("seed", 0)):
            _require(name, getattr(self, name), least)


@dataclass
class DecompositionEstimate:
    """The floor estimate_constant found and the sample that attains it: the
    decomposition ratio of witness over witness_partition, divided by
    len(witness_partition) ** gamma."""

    constant_lower: float
    witness: TrigPolynomial
    witness_partition: IntervalPartition


def _penalty(c: int, gamma: float) -> float:
    """c^gamma, or inf where that overflows: a partition into c blocks then scores 0."""
    try:
        return c ** gamma
    except OverflowError:
        return math.inf


def _slot_block_norms(
    f: TrigPolynomial, p: float, inner_p: float, lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    """||D_I f||_p for I spanning support slots lo[k]..hi[k], on a shared grid.

    Prefix sums of the per-frequency waveforms give each contiguous block's
    values as one difference.  The blocks are taken in the given order, about
    _CHUNK grid values per numpy pass but at least s blocks.  The grid uses
    the full-support quadrature rule, which is at least as fine as any block
    needs.  The waveforms' phases are rows of _phase_table(N, M), one
    read-only table per grid shared by every polynomial of the same N and
    M = max|freq|, kept for the 64 most recent (N, M) pairs.
    """
    s = len(f.freqs)
    N, _ = quadrature_points(f, p, inner_p)
    M = f.max_abs_freq
    phases = _phase_table(N, M)[np.array(f.freqs, dtype=int) + M]
    waves = f.vecs[:, None, :] * phases[:, :, None]
    prefix = np.concatenate([np.zeros((1, N, f.dim), dtype=complex), np.cumsum(waves, axis=0)])
    mean_p = np.empty(lo.size)
    step = max(s, _CHUNK // (N * f.dim))
    with np.errstate(over="ignore"):
        for k in range(0, lo.size, step):
            vals = prefix[hi[k : k + step] + 1] - prefix[lo[k : k + step]]
            mean_p[k : k + step] = np.add.reduce(_inner_norms(vals, inner_p) ** p, axis=1) / N
    out = mean_p ** (1.0 / p)
    if not (mean_p.min() >= _TINY and mean_p.max() < math.inf):
        # Where a power or the sum overflowed, or a nonzero block's mean fell
        # below the normal floats, factor the block's peak out, as
        # fourier._inner_norms does; every other block keeps its bits.
        redo = np.flatnonzero(~((mean_p >= _TINY) & (mean_p < math.inf)))
        rows = _inner_norms(prefix[hi[redo] + 1] - prefix[lo[redo]], inner_p)
        peak = np.maximum.reduce(rows, axis=1)
        ok = np.isfinite(peak) & (peak > 0)
        scaled = np.add.reduce((rows[ok] / peak[ok][:, None]) ** p, axis=1) / N
        out[redo[ok]] = peak[ok] * scaled ** (1.0 / p)
    return out


@functools.lru_cache(maxsize=64)  # bounded, as the grids are the caller's
def _phase_table(N: int, M: int) -> np.ndarray:
    """exp(2j pi n t) at t = arange(N) / N in row n + M, for n in [-M, M]; read-only.

    The exponents are the same float products np.outer(freqs, t) forms, so a
    row equals the one computed for a single polynomial bit for bit.
    """
    t = np.arange(N) / N
    table = np.exp(2j * np.pi * np.outer(np.arange(-M, M + 1, dtype=float), t))
    table.setflags(write=False)
    return table


@functools.lru_cache(maxsize=64)  # bounded, as max_support is the caller's
def _triangle(s: int) -> tuple[np.ndarray, np.ndarray]:
    """np.triu_indices(s), read-only: one per support size, not one per sample."""
    lo, hi = np.triu_indices(s)
    for a in (lo, hi):
        a.setflags(write=False)
    return lo, hi


def _run_block_norms(f: TrigPolynomial, p: float, inner_p: float) -> np.ndarray:
    """w[i, j] = ||D_I f||_p for I spanning support slots i..j (upper triangle)."""
    s = len(f.freqs)
    lo, hi = _triangle(s)
    w = np.zeros((s, s))
    w[lo, hi] = _slot_block_norms(f, p, inner_p, lo, hi)
    return w


def _min_max_block(w: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Least, over contiguous partitions, of the largest block norm; per sample."""
    B, s, _ = w.shape
    g = np.zeros((B, s + 1))  # g[:, j]: the same over partitions of slots 0..j-1
    for j in range(s):
        g[:, j + 1] = np.maximum(g[:, : j + 1], w[:, : j + 1, j]).min(axis=1)
    return g[np.arange(B), sizes]


def _block_powers(w: np.ndarray, q: float, side: str,
                  sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(w / scale)^q and the scale of each sample of a zero-padded (B, S, S) stack.

    The scale is 1 while w^q stays finite and normal.  Otherwise it is the
    largest block norm on the lower side and the least largest block norm of
    a partition on the upper side, which puts the optimal partition's sum in
    [1, s].
    """
    with np.errstate(over="ignore"):
        wq = w ** q
        ok = np.isfinite(wq.sum(axis=(1, 2))) & ((wq >= _TINY) | (w == 0.0)).all(axis=(1, 2))
        scale = np.ones(len(w))
        if not ok.all():
            bad = ~ok
            scale[bad] = (w[bad].max(axis=(1, 2)) if side == "lower"
                          else _min_max_block(w[bad], sizes[bad]))
            wq[bad] = (w[bad] / scale[bad, None, None]) ** q
    return wq, scale


def _best_contiguous_partitions(
    w: np.ndarray, q: float, gamma: float, side: str, sizes: np.ndarray
) -> list[tuple[float, list[tuple[int, int]]]]:
    """Exact optimum of ratio / (#I)^gamma over contiguous partitions, per sample.

    w is a (B, S, S) stack of block-norm triangles; sample b's fills the top
    left sizes[b] x sizes[b] corner and zeros the rest.  Dynamic program
    over (block count, last slot): the lower side maximizes sum_I w^q, the
    upper side minimizes it.  Each block count c takes one
    max/argmax over the stack, then each count is scored and every sample's
    best (value, slot cuts) pair is reconstructed.  A cell (c, j < sizes[b])
    reads only the corner, so each sample gets its unpadded value and cuts.
    """
    B, s, _ = w.shape
    rows, last = np.arange(B), sizes - 1
    sign = 1.0 if side == "lower" else -1.0
    swq, scale = _block_powers(w, q, side, sizes)  # scale 1 keeps w^q as it is
    swq *= sign
    swq[:, np.tri(s, k=-1, dtype=bool)] = -math.inf  # no block has i > j
    parent = np.zeros((B, s + 1, s), dtype=np.intp)
    best = swq[:, 0]  # best[b, j]: optimum over c-block partitions of slots 0..j
    totals = np.empty((B, s))  # the same at each sample's last slot, for c = 1..s
    totals[:, 0] = best[rows, last]
    buf = np.empty((B, s - 1, s))
    for c in range(2, s + 1):
        # opt_i best_{c-1}[i-1] + sign*wq[i, j] over i in [c-1, j]
        cand = np.add(best[:, c - 2 : s - 1, None], swq[:, c - 1 :], out=buf[:, : s - c + 1])
        best = cand.max(axis=1)
        parent[:, c] = cand.argmax(axis=1) + (c - 1)
        totals[:, c - 1] = best[rows, last]
    totals = (sign * totals).tolist()
    penalty = [_penalty(c, gamma) for c in range(1, s + 1)]
    out = []
    # Python floats on purpose: numpy's SIMD np.power is not bit-equal to ** (with
    # numpy 2.4 on an AVX-512 Xeon, np.power(x, 1 / 1.5) differed on 10,493 of
    # 200,000 random x), so a vectorized score would move report bytes.
    for fnorm, k, n, tots, par in zip(w[rows, 0, last].tolist(), scale.tolist(),
                                      sizes.tolist(), totals, parent):
        best_val, best_c = -math.inf, 1
        for c, tot in enumerate(tots[:n], 1):
            if not (tot > 0) or not math.isfinite(tot):
                continue
            agg = k * tot ** (1.0 / q)
            ratio = (agg / fnorm) if side == "lower" else (fnorm / agg)
            val = ratio / penalty[c - 1]
            if val > best_val:
                best_val, best_c = val, c
        cuts = []
        j, c = n - 1, best_c
        while c >= 1:
            i = int(par[c, j]) if c > 1 else 0
            cuts.append((i, j))
            j, c = i - 1, c - 1
        cuts.reverse()
        out.append((best_val, cuts))
    return out


def _score(
    polys: list[TrigPolynomial], p: float, q: float, inner_p: float, gamma: float, side: str
) -> list[tuple[float, list[tuple[int, int]]]]:
    """(value, slot cuts) of each polynomial; mixed support sizes are zero-padded."""
    sizes = np.array([len(f.freqs) for f in polys])
    w = np.zeros((len(polys), sizes.max(), sizes.max()))
    for b, f in enumerate(polys):
        w[b, : sizes[b], : sizes[b]] = _run_block_norms(f, p, inner_p)
    if not w[np.arange(len(polys)), 0, sizes - 1].all():
        raise ZeroPolynomialError("f must be nonzero")
    return _best_contiguous_partitions(w, q, gamma, side, sizes)


def _score_bounds(polys: list[TrigPolynomial], p: float, q: float, inner_p: float,
                  side: str, floors) -> np.ndarray:
    """A certified upper bound on _score's value of each polynomial, +inf where none holds.

    On f's grid of N >= 2 M + 1 points, discrete Parseval and the power mean
    give ||D_I f||_p >= kappa_lo ||c_I||_2 for p >= 2 and <= kappa_hi ||c_I||_2
    for p <= 2, where kappa = d^(1/inner_p - 1/2), kappa_lo = min(1, kappa)
    and kappa_hi = max(1, kappa).  Over contiguous partitions, sum_I
    ||c_I||_2^q is least at singletons and largest at one block for q >= 2
    (x^(q/2) is superadditive), and the reverse for q < 2.  So the upper side
    at p >= 2 scores at most ||f||_p / (kappa_lo A), with A the least such sum
    to the 1/q, and the lower side at p <= 2 at most kappa_hi A' / ||f||_p,
    with A' the largest; a penalty gamma >= 0 only lowers a score.  ||f||_p
    is _torus_norms' (||c||_2 at p = inner_p = 2), and the bound is widened
    by the rounding budget above.  The upper side at p < 2 and the lower side
    at p > 2 have no bound and cost nothing.

    Every finite bound exceeds 1 + 256 u: A <= ||c||_2 <= A' and ||f||_p is at
    least (upper side) or at most (lower side) kappa ||c||_2, so it is at
    least 1 before the widening, which adds more than 6 delta >= 384 u.  So,
    given floors (None: every polynomial is bounded), a polynomial whose
    floor is below 1 + 256 u gets +inf and costs nothing.
    """
    out = np.full(len(polys), math.inf)
    if (p < 2.0) if side == "upper" else (p > 2.0):
        return out
    need = (np.arange(len(polys)) if floors is None
            else np.flatnonzero(np.asarray(floors) >= 1 + 256 * _U))
    if not need.size:
        return out
    fs = [polys[k] for k in need.tolist()]
    s = np.array([len(f.freqs) for f in fs])
    d = np.array([f.dim for f in fs])
    M = np.array([f.max_abs_freq for f in fs])
    N = np.array([quadrature_points(f, p, inner_p)[0] for f in fs])
    row_len = np.repeat(d, s)
    first = np.cumsum(s) - s
    with np.errstate(all="ignore"):  # a nonfinite or zero statistic gives +inf
        a = np.abs(np.concatenate([f.vecs.ravel() for f in fs]))
        sq = np.add.reduceat(a * a, np.cumsum(row_len) - row_len)  # ||c_n||_2^2
        cn = np.sqrt(np.add.reduceat(sq, first))
        if (q >= 2.0) == (side == "upper"):  # the q-norm of the ||c_n||_2
            rows = np.sqrt(sq)
            top = np.maximum.reduceat(rows, first)
            agg = top * np.add.reduceat((rows / np.repeat(top, s)) ** q, first) ** (1.0 / q)
        else:
            agg = cn
        t = cn if p == inner_p == 2.0 else np.array(_torus_norms(fs, p, inner_p))
        kappa = d ** ((0.0 if math.isinf(inner_p) else 1.0 / inner_p) - 0.5)
        kappa_lo = np.minimum(kappa, 1.0)
        delta = (4 * d + N + 4 * s + 64) * _U + np.sqrt(s) / kappa_lo * (
            1.01 * s * np.sqrt(s * d) * (24 * M + 4 * s + 8) * _U
            + 32 * (np.log2(N) + 2) * np.sqrt(N * d) * _U
            + (s + 2) * (np.sqrt(d) * 2.0 ** -537 + 2.0 ** (-1073 / p)) / cn)
        ok = ((cn > 2.0 ** -400) & (delta <= 1 / 32) & (t > 0) & np.isfinite(t)
              & (agg > 0) & np.isfinite(agg)
              & (max(p, 2.0) * np.log2(2 * np.sqrt(s * d) * cn) + np.log2(N) < 1000))
        raw = t / (kappa_lo * agg) if side == "upper" else np.maximum(kappa, 1.0) * agg / t
        out[need] = np.where(ok, raw * (1 + 8 * delta), math.inf)
    return out


def _pruned_scores(polys: list[TrigPolynomial], p: float, q: float, inner_p: float,
                   gamma: float, side: str, floors=None) -> list:
    """_score's (value, cuts) of each polynomial that can reach its floor, (-inf, None)
    at the others: the one path to block-norm triangles.

    Given floors (the ascent's, one per polynomial), one zero-padded program
    scores the polynomials whose _score_bounds bound is above their floor;
    the others, which score at most their floor, get -inf.  Without, the
    corpus rule of _top_norms over one group with top = _TOP_K: the _TOP_K
    highest-bound polynomials are scored first, then every other one whose
    bound is not below the _TOP_K-th best of their values, one program per
    support size, so the _TOP_K best values and every tie with the last are
    exact; where no bound is finite, every polynomial is scored in one pass.
    Each value and its cuts are the ones _score gives the polynomial alone.
    """
    bounds = _score_bounds(polys, p, q, inner_p, side, floors)
    out: list = [(-math.inf, None)] * len(polys)

    def score(ks):
        for k, result in zip(ks, _score([polys[k] for k in ks], p, q, inner_p, gamma, side)):
            out[k] = result

    if floors is not None:
        keep = [k for k, (b, floor) in enumerate(zip(bounds.tolist(), floors)) if not b <= floor]
        if keep:
            score(keep)
        return out

    def value(idx, _tops):
        ks = np.arange(len(polys))[idx].tolist()
        by_size: dict[int, list[int]] = {}
        for k in ks:
            by_size.setdefault(len(polys[k].freqs), []).append(k)
        for group in by_size.values():
            score(group)
        return np.array([out[k][0] for k in ks])

    _top_norms(bounds, np.zeros(1, dtype=np.intp), _TOP_K, value, np.empty((1, 0)))
    return out


def _partition(f: TrigPolynomial, cuts: list[tuple[int, int]]) -> IntervalPartition:
    return IntervalPartition(tuple(Interval(f.freqs[i], f.freqs[j]) for i, j in cuts))


def _draw_polynomial(rng: np.random.Generator, cfg: DecompSearchConfig) -> TrigPolynomial:
    d = int(rng.integers(1, cfg.max_dim + 1))
    size = int(rng.integers(2, cfg.max_support + 1))
    span = cfg.max_support
    if rng.random() < 0.5:
        start = int(rng.integers(-span, span - size + 2))
        freqs = np.arange(start, start + size)
    else:
        freqs = rng.choice(np.arange(-span, span + 1), size=min(size, 2 * span + 1), replace=False)
    if rng.random() < 0.5:
        # sign-pattern coefficients probe the extremal combinatorics
        vecs = rng.choice([-1.0, 1.0], size=(len(freqs), d)).astype(complex)
    else:
        vecs = rng.standard_normal((len(freqs), d)) + 1j * rng.standard_normal((len(freqs), d))
    return TrigPolynomial(tuple(int(n) for n in freqs), vecs, d)


def _sign_pattern_candidates(cfg: DecompSearchConfig) -> list[TrigPolynomial]:
    # small scalar cases admit exhaustive sign enumeration; include it so the
    # corpus dominates any brute-force baseline on the same domain
    if cfg.max_dim != 1 or cfg.max_support > 8:
        return []
    s = cfg.max_support
    freqs = tuple(range(s))
    out = []
    for bits in range(2 ** s):
        signs = [1.0 if bits & (1 << k) else -1.0 for k in range(s)]
        out.append(TrigPolynomial(freqs, np.array(signs, dtype=complex)[:, None], 1))
    return out


def estimate_constant(
    p: float,
    q: float,
    inner_p: float = 2.0,
    side: str = "upper",
    gamma: float = 0.0,
    cfg: DecompSearchConfig = DecompSearchConfig(),
) -> DecompositionEstimate:
    """Empirical floor for the decomposition constant, maximizing
    ratio / (#I)^gamma over a seeded corpus plus coefficient ascent.

    Each sample is scored at its exact best contiguous partition (dynamic
    program), so the search over partitions is not itself randomized, and
    more trials can only raise the floor.  The whole corpus is drawn first,
    then bounded (_score_bounds) and scored through _pruned_scores: the
    _TOP_K highest-bound samples first, then every sample whose bound is not
    below the _TOP_K-th best of their values, one support size at a time
    with one dynamic program per size, which bounds memory: one zero-padded
    program over the whole corpus gives the same bits, but pads every
    sample's block-norm triangle to the largest size and so holds a larger
    stack.  A pruned sample scores below the _TOP_K best, so the _TOP_K best
    samples and their order are those of scoring every sample.  They start
    lockstep ascents from those scores: each step scores, in one zero-padded
    program over their mixed sizes, every start's candidate whose bound
    exceeds the start's current value (the others cannot be accepted), and
    the noise, drawn first in start order, takes _TOP_K * ascent_steps * 2 *
    s * d doubles (about 1 MB at decomp-scan's defaults).  Only the returned
    witness gets an IntervalPartition.
    """
    _require("p", p, 1, math.inf, "()")
    _require("q", q, 1)
    _require("inner_p", inner_p, 1, math.inf, "[]")
    _require("gamma", gamma, 0)
    if side not in ("upper", "lower"):
        raise ValueError(f"side must be 'upper' or 'lower', got {side!r}")
    rng = np.random.default_rng(cfg.seed)
    corpus = _sign_pattern_candidates(cfg)
    for _ in range(cfg.trials):
        f = _draw_polynomial(rng, cfg)
        if not f.is_zero:
            corpus.append(f)
    if not corpus:
        raise ValueError("corpus produced no nonzero polynomial")
    scored = _pruned_scores(corpus, p, q, inner_p, gamma, side)
    # stable: equal values keep corpus order; a pruned sample's -inf ranks
    # below the _TOP_K exact best ones, as its value does
    order = sorted(range(len(corpus)), key=lambda k: scored[k][0], reverse=True)
    best_val, best_cuts = scored[order[0]]
    best_f = corpus[order[0]]
    ends = _coefficient_ascents(
        [(corpus[k], scored[k]) for k in order[:_TOP_K]],
        lambda fs, floors: _pruned_scores(fs, p, q, inner_p, gamma, side, floors),
        cfg.ascent_steps, rng)
    for cur, f, cur_cuts in ends:
        if cur > best_val:
            best_val, best_f, best_cuts = cur, f, cur_cuts

    return DecompositionEstimate(best_val, best_f, _partition(best_f, best_cuts))


def hoelder_growth_check(
    f: TrigPolynomial,
    part: IntervalPartition,
    p: float,
    q: float,
    r: float,
) -> float:
    """margin = (#I)^{1/q - 1/r} (sum a^r)^{1/r} / (sum a^q)^{1/q}, a_I = ||D_I f||_p.

    Hoelder guarantees margin >= 1 for r >= q; the check applies the
    inequality to the computed block norms, so quadrature error cannot push
    it below 1.
    """
    _require("r", r, q, math.inf, "[]")
    if not part.covers(f.freqs):
        raise ValueError("partition does not cover the support of f")
    a = block_norms(f, part.intervals, p, 2.0)
    denom = vector_p_norm(a, q)
    if denom == 0.0:
        return math.inf
    inv_r = 0.0 if math.isinf(r) else 1.0 / r
    count_pow = len(part) ** (1.0 / q - inv_r)
    return count_pow * vector_p_norm(a, r) / denom


def pairing_duality_check(
    f: TrigPolynomial,
    g: TrigPolynomial,
    part: IntervalPartition,
    p: float,
    q: float,
) -> float | None:
    """margin = (sum ||D_I f||_p^q)^{1/q} (sum ||D_I g||_{p'}^{q'})^{1/q'} / |<f, g>|.

    Two Hoelder applications give margin >= 1.  Returns None (a skip, not an
    error) when the pairing vanishes.
    """
    if not part.covers(f.freqs) or not part.covers(g.freqs):
        raise ValueError("partition must cover both supports")
    pr = pairing(f, g)
    if abs(pr) == 0.0:
        return None
    p_dual = math.inf if p == 1 else p / (p - 1.0)
    q_dual = math.inf if q == 1 else q / (q - 1.0)
    af = block_norms(f, part.intervals, p, 2.0)
    ag = block_norms(g, part.intervals, p_dual, 2.0)
    return vector_p_norm(af, q) * vector_p_norm(ag, q_dual) / abs(pr)


def fourier_type_check(xs, p: float, q: float, u_ref: float) -> float:
    """margin = U_ref (sum ||x_n||^q)^{1/q} / ||sum e_n x_n||_{L^p}.

    With U_ref produced by a singleton-partition estimate over a corpus
    containing xs, the margin is >= 1 up to that corpus' tolerance.
    """
    vecs = [np.atleast_1d(np.asarray(x, dtype=complex)) for x in xs]
    if not vecs or all(np.all(v == 0) for v in vecs):
        raise ValueError("xs must contain a nonzero vector")
    d = vecs[0].shape[0]
    f = TrigPolynomial.from_coeffs({n: v for n, v in enumerate(vecs)}, d)
    lhs = lp_torus_norm(f, p, 2.0).value
    rhs = u_ref * vector_p_norm([vector_p_norm(v, 2.0) for v in vecs], q)
    return rhs / lhs


@dataclass(frozen=True)
class RademacherEstimate:
    value: float  # implied sample lower bound for tau_p or c_q
    std_error: float


def rademacher_constants(
    xs,
    exponent: float,
    kind: str = "type",
    samples: int = 4096,
    seed: int = 0,
    inner_p: float = 2.0,
) -> RademacherEstimate:
    """Monte-Carlo moment ||sum eps_k x_k||_{L^2(Omega)} against the l^p aggregate.

    eps_k are independent and uniform on the complex unit circle.  For
    kind='type' the estimate is a sample lower bound of the type-p constant;
    for kind='cotype' of the cotype-q constant.
    """
    if kind not in ("type", "cotype"):
        raise ValueError("kind must be 'type' or 'cotype'")
    _require("samples", samples, 2)
    _require("exponent", exponent, 1, math.inf, "[]")
    _require("inner_p", inner_p, 1, math.inf, "[]")
    _require("len(xs)", len(xs), 1)
    vecs = np.stack([np.atleast_1d(np.asarray(x, dtype=complex)) for x in xs])
    if vecs.shape[1] == 0:
        raise ValueError("xs must be vectors of dimension >= 1")
    k = len(vecs)
    rng = np.random.default_rng(seed)
    eps = np.exp(2j * np.pi * rng.random((samples, k)))
    sq = _inner_norms(eps @ vecs, inner_p) ** 2
    mean_sq = float(np.mean(sq))
    se_sq = float(np.std(sq, ddof=1) / math.sqrt(samples))
    l2 = math.sqrt(mean_sq)
    se_l2 = se_sq / (2.0 * l2) if l2 > 0 else 0.0
    agg = vector_p_norm([vector_p_norm(v, inner_p) for v in vecs], exponent)
    if kind == "type":
        value = l2 / agg
        se = se_l2 / agg
    else:
        value = agg / l2 if l2 > 0 else math.inf
        se = agg * se_l2 / (l2 * l2) if l2 > 0 else math.inf
    return RademacherEstimate(value=value, std_error=se)
