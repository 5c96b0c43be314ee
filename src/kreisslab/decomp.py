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

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .fourier import (
    Interval,
    IntervalPartition,
    TrigPolynomial,
    _inner_norms,
    lp_torus_norm,
    pairing,
    project_interval,
    quadrature_points,
)
from .norms import vector_p_norm

# complex grid values per numpy pass of _run_block_norms; larger passes leave
# the cache and run slower
_CHUNK = 1 << 12
_TINY = np.finfo(float).tiny


class ZeroPolynomialError(ValueError):
    """Decomposition ratios are undefined for the zero polynomial."""


def block_norms(
    f: TrigPolynomial, part: IntervalPartition, p: float, inner_p: float
) -> np.ndarray:
    return np.array(
        [lp_torus_norm(project_interval(f, iv), p, inner_p).value for iv in part.intervals]
    )


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
    total = lp_torus_norm(f, p, inner_p).value
    agg = vector_p_norm(block_norms(f, part, p, inner_p), q)
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
    seed: int
    label: str = "empirical floor"

    def reevaluate(self) -> float:
        ratio = decomposition_ratio(
            self.witness, self.witness_partition, self.p, self.q, self.inner_p, self.side
        )
        return ratio / len(self.witness_partition) ** self.gamma


def contiguous_partitions(freqs: tuple[int, ...]) -> list[IntervalPartition]:
    """Every way to cut the sorted support into contiguous interval blocks."""
    fs = sorted(freqs)
    if not fs:
        return []
    out = []
    for cuts in itertools.product((0, 1), repeat=len(fs) - 1):
        blocks = []
        start = fs[0]
        prev = fs[0]
        for i, c in enumerate(cuts):
            if c:
                blocks.append(Interval(start, prev))
                start = fs[i + 1]
            prev = fs[i + 1]
        blocks.append(Interval(start, prev))
        out.append(IntervalPartition(tuple(blocks)))
    return out


def _run_block_norms(f: TrigPolynomial, p: float, inner_p: float) -> np.ndarray:
    """w[i, j] = ||D_I f||_p for I spanning support slots i..j, on a shared grid.

    Prefix sums of the per-frequency waveforms give each contiguous block's
    values as one difference.  The blocks of the upper triangle are taken in
    row-major order, about _CHUNK grid values per numpy pass but at least s
    blocks, so never more passes than one per start row.  The grid uses
    the full-support quadrature rule, which is at least as fine as any block
    needs.
    """
    s = len(f.freqs)
    N, _ = quadrature_points(f, p, inner_p)
    t = np.arange(N) / N
    phases = np.exp(2j * np.pi * np.outer(np.asarray(f.freqs, dtype=float), t))
    waves = f.vecs[:, None, :] * phases[:, :, None]
    prefix = np.concatenate([np.zeros((1, N, f.dim), dtype=complex), np.cumsum(waves, axis=0)])
    lo, hi = np.triu_indices(s)
    mean_p = np.empty(lo.size)
    step = max(s, _CHUNK // (N * f.dim))
    for k in range(0, lo.size, step):
        vals = prefix[hi[k : k + step] + 1] - prefix[lo[k : k + step]]
        mean_p[k : k + step] = np.add.reduce(_inner_norms(vals, inner_p) ** p, axis=1) / N
    w = np.zeros((s, s))
    w[lo, hi] = mean_p ** (1.0 / p)
    return w


def _min_max_block(w: np.ndarray) -> np.ndarray:
    """Least, over contiguous partitions, of the largest block norm; per sample."""
    B, s, _ = w.shape
    g = np.zeros((B, s + 1))  # g[:, j]: the same over partitions of slots 0..j-1
    for j in range(s):
        g[:, j + 1] = np.maximum(g[:, : j + 1], w[:, : j + 1, j]).min(axis=1)
    return g[:, s]


def _block_powers(w: np.ndarray, q: float, side: str) -> tuple[np.ndarray, np.ndarray]:
    """(w / scale)^q and the scale of each sample of a (B, s, s) stack.

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
            scale[bad] = w[bad].max(axis=(1, 2)) if side == "lower" else _min_max_block(w[bad])
            wq[bad] = (w[bad] / scale[bad, None, None]) ** q
    return wq, scale


def _best_contiguous_partitions(
    w: np.ndarray, q: float, gamma: float, side: str
) -> list[tuple[float, list[tuple[int, int]]]]:
    """Exact optimum of ratio / (#I)^gamma over contiguous partitions, per sample.

    w is a (B, s, s) stack of block-norm triangles.  Dynamic program over
    (block count, last slot): the lower side maximizes sum_I w^q, the upper
    side minimizes it.  Each block count c takes one max/argmax over the
    stack, then each count is scored and every sample's best
    (value, slot cuts) pair is reconstructed.
    """
    B, s, _ = w.shape
    sign = 1.0 if side == "lower" else -1.0
    swq, scale = _block_powers(w, q, side)  # scale 1 keeps w^q as it is
    swq *= sign
    swq[:, np.tri(s, k=-1, dtype=bool)] = -math.inf  # no block has i > j
    parent = np.zeros((B, s + 1, s), dtype=np.intp)
    best = swq[:, 0]  # best[b, j]: optimum over c-block partitions of slots 0..j
    totals = np.empty((B, s))  # the same at j = s-1, for c = 1..s
    totals[:, 0] = best[:, s - 1]
    buf = np.empty((B, s - 1, s))
    for c in range(2, s + 1):
        # opt_i best_{c-1}[i-1] + sign*wq[i, j] over i in [c-1, j]
        cand = np.add(best[:, c - 2 : s - 1, None], swq[:, c - 1 :], out=buf[:, : s - c + 1])
        best = cand.max(axis=1)
        parent[:, c] = cand.argmax(axis=1) + (c - 1)
        totals[:, c - 1] = best[:, s - 1]
    totals = (sign * totals).tolist()
    penalty = [c ** gamma for c in range(1, s + 1)]
    out = []
    for fnorm, k, tots, par in zip(w[:, 0, s - 1].tolist(), scale.tolist(), totals, parent):
        best_val, best_c = -math.inf, 1
        for c, tot in enumerate(tots, 1):
            if not (tot > 0) or not math.isfinite(tot):
                continue
            agg = k * tot ** (1.0 / q)
            ratio = (agg / fnorm) if side == "lower" else (fnorm / agg)
            val = ratio / penalty[c - 1]
            if val > best_val:
                best_val, best_c = val, c
        cuts = []
        j, c = s - 1, best_c
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
    """(value, slot cuts) of each polynomial; all share one support size."""
    w = np.empty((len(polys), len(polys[0].freqs), len(polys[0].freqs)))
    for b, f in enumerate(polys):
        w[b] = _run_block_norms(f, p, inner_p)
    if not w[:, 0, -1].all():
        raise ZeroPolynomialError("f must be nonzero")
    return _best_contiguous_partitions(w, q, gamma, side)


def _partition(f: TrigPolynomial, cuts: list[tuple[int, int]]) -> IntervalPartition:
    return IntervalPartition(tuple(Interval(f.freqs[i], f.freqs[j]) for i, j in cuts))


def _objective_dp(
    f: TrigPolynomial, p: float, q: float, inner_p: float, gamma: float, side: str
) -> tuple[float, IntervalPartition]:
    [(val, cuts)] = _score([f], p, q, inner_p, gamma, side)
    return val, _partition(f, cuts)


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
    size; the top_k samples start their ascents from those scores, and each
    ascent step scores one candidate.  Only the returned witness gets an
    IntervalPartition.
    """
    if not (1 < p < math.inf):
        raise ValueError("p must lie in (1, inf)")
    if not (1 <= q < math.inf):
        raise ValueError("q must lie in [1, inf)")
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
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

    for k in order[: cfg.top_k]:
        f = corpus[k]
        cur, cur_cuts = scored[k]
        step = 0.25
        for _ in range(cfg.ascent_steps):
            trial = f.vecs + step * (
                rng.standard_normal(f.vecs.shape) + 1j * rng.standard_normal(f.vecs.shape)
            )
            cand = TrigPolynomial(f.freqs, trial, f.dim)
            if cand.is_zero:
                continue
            [(v, v_cuts)] = _score([cand], p, q, inner_p, gamma, side)
            if v > cur:
                cur, f, cur_cuts = v, cand, v_cuts
                step = min(step * 1.3, 1.0)
            else:
                step = max(step * 0.7, 1e-6)
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
        seed=cfg.seed,
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
    if r < q:
        raise ValueError(f"need r >= q, got r={r} < q={q}")
    if not part.covers(f.support):
        raise ValueError("partition does not cover the support of f")
    a = block_norms(f, part, p, inner_p)
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
    af = block_norms(f, part, p, inner_p)
    ag = block_norms(g, part, p_dual, inner_dual)
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
    mean_square: float
    samples: int
    seed: int


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
    if samples < 2:
        raise ValueError("samples must be >= 2")
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
        mean_square=mean_sq,
        samples=samples,
        seed=seed,
    )
