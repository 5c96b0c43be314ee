"""Upper/lower frequency-decomposition ratios and the derived inequalities.

For an interval family I covering the support of f, the two ratios

  upper side:  ||f||_p / (sum_I ||D_I f||_p^q)^{1/q}
  lower side:  (sum_I ||D_I f||_p^q)^{1/q} / ||f||_p

are sample-wise lower bounds for any admissible upper/lower decomposition
constant of the ambient space.  estimate_constant accumulates an empirical
floor over a seeded corpus; it never claims convergence to the true constant
(the interesting spaces are infinite dimensional) and all reports label the
value as an empirical floor.
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
    lp_torus_norm,
    pairing,
    quadrature_points,
)
from .norms import vector_p_norm
from .operators import _require

# complex grid values per numpy pass of _slot_block_norms; larger passes leave
# the cache and run slower
_CHUNK = 1 << 12
_TINY = np.finfo(float).tiny


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
    inner_p: float = 2.0,
    side: str = "upper",
) -> float:
    """One decomposition sample; any valid constant must dominate it."""
    if side not in ("upper", "lower"):
        raise ValueError(f"side must be 'upper' or 'lower', got {side!r}")
    if f.is_zero:
        raise ZeroPolynomialError("f must be nonzero")
    if not part.covers(f.support):
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
    top_k: int = 10
    max_support: int = 32
    max_dim: int = 4
    seed: int = 0

    def __post_init__(self):
        for name, least in (("trials", 1), ("ascent_steps", 0), ("top_k", 0),
                            ("max_support", 2), ("max_dim", 1)):
            _require(name, getattr(self, name), least)


@dataclass
class DecompositionEstimate:
    side: str
    p: float
    q: float
    inner_p: float
    gamma: float
    constant_lower: float
    witness: TrigPolynomial
    witness_partition: IntervalPartition
    trials: int
    label: str = "empirical floor"

    def reevaluate(self) -> float:
        ratio = decomposition_ratio(
            self.witness, self.witness_partition, self.p, self.q, self.inner_p, self.side
        )
        return ratio / len(self.witness_partition) ** self.gamma


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
    for k in range(0, lo.size, step):
        vals = prefix[hi[k : k + step] + 1] - prefix[lo[k : k + step]]
        mean_p[k : k + step] = np.add.reduce(_inner_norms(vals, inner_p) ** p, axis=1) / N
    return mean_p ** (1.0 / p)


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
    w: np.ndarray, q: float, gamma: float, side: str, sizes=None
) -> list[tuple[float, list[tuple[int, int]]]]:
    """Exact optimum of ratio / (#I)^gamma over contiguous partitions, per sample.

    w is a (B, S, S) stack of block-norm triangles; sample b's fills the top
    left sizes[b] x sizes[b] corner (default S) and zeros the rest.  Dynamic
    program over (block count, last slot): the lower side maximizes
    sum_I w^q, the upper side minimizes it.  Each block count c takes one
    max/argmax over the stack, then each count is scored and every sample's
    best (value, slot cuts) pair is reconstructed.  A cell (c, j < sizes[b])
    reads only the corner, so each sample gets its unpadded value and cuts.
    """
    B, s, _ = w.shape
    sizes = np.full(B, s) if sizes is None else np.asarray(sizes)
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
    then scored one support size at a time with one dynamic program per
    size.  The top_k samples start lockstep ascents from those scores: each
    step scores every start's candidate in one zero-padded program over their
    mixed sizes, and the noise, drawn first in start order, takes
    top_k * ascent_steps * 2 * s * d doubles (about 1 MB at decomp-scan's
    defaults).  Only the returned witness gets an IntervalPartition.
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
    by_size: dict[int, list[int]] = {}
    for k, f in enumerate(corpus):
        by_size.setdefault(len(f.freqs), []).append(k)
    scored: list = [None] * len(corpus)
    for idx in by_size.values():
        group = _score([corpus[k] for k in idx], p, q, inner_p, gamma, side)
        for k, result in zip(idx, group):
            scored[k] = result
    # stable: equal values keep corpus order
    order = sorted(range(len(corpus)), key=lambda k: scored[k][0], reverse=True)
    best_val, best_cuts = scored[order[0]]
    best_f = corpus[order[0]]
    ends = _coefficient_ascents([(corpus[k], scored[k]) for k in order[: cfg.top_k]],
                                lambda fs: _score(fs, p, q, inner_p, gamma, side),
                                cfg.ascent_steps, rng)
    for cur, f, cur_cuts in ends:
        if cur > best_val:
            best_val, best_f, best_cuts = cur, f, cur_cuts

    return DecompositionEstimate(
        side=side,
        p=p,
        q=q,
        inner_p=inner_p,
        gamma=gamma,
        constant_lower=best_val,
        witness=best_f,
        witness_partition=_partition(best_f, best_cuts),
        trials=cfg.trials,
    )


def hoelder_growth_check(
    f: TrigPolynomial,
    part: IntervalPartition,
    p: float,
    q: float,
    r: float,
    inner_p: float = 2.0,
) -> float:
    """margin = (#I)^{1/q - 1/r} (sum a^r)^{1/r} / (sum a^q)^{1/q}, a_I = ||D_I f||_p.

    Hoelder guarantees margin >= 1 for r >= q; the check applies the
    inequality to the computed block norms, so quadrature error cannot push
    it below 1.
    """
    _require("r", r, q, math.inf, "[]")
    if not part.covers(f.support):
        raise ValueError("partition does not cover the support of f")
    a = block_norms(f, part.intervals, p, inner_p)
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
    inner_p: float = 2.0,
) -> float | None:
    """margin = (sum ||D_I f||_p^q)^{1/q} (sum ||D_I g||_{p'}^{q'})^{1/q'} / |<f, g>|.

    Two Hoelder applications give margin >= 1.  Returns None (a skip, not an
    error) when the pairing vanishes.
    """
    if not part.covers(f.support) or not part.covers(g.support):
        raise ValueError("partition must cover both supports")
    pr = pairing(f, g)
    if abs(pr) == 0.0:
        return None
    p_dual = math.inf if p == 1 else p / (p - 1.0)
    q_dual = math.inf if q == 1 else q / (q - 1.0)
    inner_dual = math.inf if inner_p == 1 else inner_p / (inner_p - 1.0)
    af = block_norms(f, part.intervals, p, inner_p)
    ag = block_norms(g, part.intervals, p_dual, inner_dual)
    return vector_p_norm(af, q) * vector_p_norm(ag, q_dual) / abs(pr)


def fourier_type_check(
    xs, p: float, q: float, u_ref: float, inner_p: float = 2.0
) -> float:
    """margin = U_ref (sum ||x_n||^q)^{1/q} / ||sum e_n x_n||_{L^p}.

    With U_ref produced by a singleton-partition estimate over a corpus
    containing xs, the margin is >= 1 up to that corpus' tolerance.
    """
    vecs = [np.atleast_1d(np.asarray(x, dtype=complex)) for x in xs]
    if not vecs or all(np.all(v == 0) for v in vecs):
        raise ValueError("xs must contain a nonzero vector")
    d = vecs[0].shape[0]
    f = TrigPolynomial.from_coeffs({n: v for n, v in enumerate(vecs)}, d)
    lhs = lp_torus_norm(f, p, inner_p).value
    rhs = u_ref * vector_p_norm([vector_p_norm(v, inner_p) for v in vecs], q)
    return rhs / lhs


@dataclass(frozen=True)
class RademacherEstimate:
    kind: str
    exponent: float
    value: float  # implied sample lower bound for tau_p or c_q
    std_error: float
    samples: int


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
    return RademacherEstimate(
        kind=kind,
        exponent=exponent,
        value=value,
        std_error=se,
        samples=samples,
    )
