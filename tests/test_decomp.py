import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kreisslab import decomp
from kreisslab.decomp import (
    DecompSearchConfig,
    ZeroPolynomialError,
    _best_contiguous_partitions,
    _draw_polynomial,
    _phase_table,
    _pruned_scores,
    _run_block_norms,
    _score,
    _score_bounds,
    _sign_pattern_candidates,
    block_norms,
    decomposition_ratio,
    estimate_constant,
    fourier_type_check,
    hoelder_growth_check,
    pairing_duality_check,
    rademacher_constants,
)
from kreisslab.fourier import (
    RIESZ_SYMBOL,
    Interval,
    IntervalPartition,
    TrigPolynomial,
    _coefficient_ascents,
    _multiplier_ratios,
    lp_torus_norm,
    project_interval,
    quadrature_points,
)
from kreisslab.norms import vector_p_norm
from oracles import estimate_every_sample

# pinned from the pre-build exhaustive oracle: max over +-1 sign patterns on
# support {0..7} and all contiguous partitions of the lower l^4(L^4) ratio
P4Q4_LOWER_FLOOR = 1.0922123778851


def scal(d):
    return TrigPolynomial.from_coeffs(d)


def _random_poly(rng, size=6, d=2, span=10):
    freqs = rng.choice(np.arange(-span, span + 1), size=size, replace=False)
    vecs = rng.standard_normal((size, d)) + 1j * rng.standard_normal((size, d))
    return TrigPolynomial(tuple(int(n) for n in freqs), vecs, d)


def _random_partition(rng, freqs):
    fs = sorted(freqs)
    cuts = rng.integers(0, 2, size=len(fs) - 1)
    blocks, start, prev = [], fs[0], fs[0]
    for i, c in enumerate(cuts):
        if c:
            blocks.append((start, prev))
            start = fs[i + 1]
        prev = fs[i + 1]
    blocks.append((start, prev))
    return IntervalPartition(tuple(blocks))


# ---------------------------------------------------------------------------
# decomposition_ratio
# ---------------------------------------------------------------------------


def test_single_interval_ratio_is_one(rng):
    f = _random_poly(rng)
    part = IntervalPartition((Interval(min(f.freqs), max(f.freqs)),))
    assert decomposition_ratio(f, part, 2.5, 1.7, 2.0, "upper") == pytest.approx(1.0)
    assert decomposition_ratio(f, part, 2.5, 1.7, 2.0, "lower") == pytest.approx(1.0)


def test_parseval_lower_singletons():
    f = scal({0: 1.0, 1: 1.0, 5: -2.0})
    part = IntervalPartition(tuple((n, n) for n in f.freqs))
    assert decomposition_ratio(f, part, 2.0, 2.0, 2.0, "lower") == pytest.approx(1.0, abs=1e-12)


def test_upper_ratio_hand_value():
    f = scal({0: 1.0, 1: 1.0})
    part = IntervalPartition(((0, 0), (1, 1)))
    val = decomposition_ratio(f, part, 2.0, 1.0, 2.0, "upper")
    assert val == pytest.approx(math.sqrt(2.0) / 2.0)


def test_zero_polynomial_rejected():
    with pytest.raises(ZeroPolynomialError):
        decomposition_ratio(TrigPolynomial.from_coeffs({}, 1), IntervalPartition(()), 2, 2, 2, "upper")


def test_partition_must_cover():
    f = scal({0: 1.0, 9: 1.0})
    with pytest.raises(ValueError):
        decomposition_ratio(f, IntervalPartition(((0, 0),)), 2, 2, 2, "upper")


def test_parseval_rigidity_random_pairs(rng):
    # p = q = 2 with Euclidean inner norm: every ratio is exactly 1
    for _ in range(200):
        f = _random_poly(rng, size=int(rng.integers(2, 8)), d=int(rng.integers(1, 4)))
        part = _random_partition(rng, f.freqs)
        for side in ("upper", "lower"):
            assert decomposition_ratio(f, part, 2.0, 2.0, 2.0, side) == pytest.approx(
                1.0, abs=1e-9
            )


def test_triangle_inequality_upper_q1(rng):
    for _ in range(100):
        f = _random_poly(rng, size=5, d=2)
        part = _random_partition(rng, f.freqs)
        assert decomposition_ratio(f, part, 2.5, 1.0, 2.0, "upper") <= 1.0 + 1e-9


@given(st.integers(0, 2**32 - 1), st.sampled_from([1.0, 1.5, 2.0, 3.0]))
def test_lower_ratio_nonincreasing_in_q(seed, q1):
    # l^q nesting: (sum a^{q2})^{1/q2} <= (sum a^{q1})^{1/q1} for q2 >= q1
    rng = np.random.default_rng(seed)
    a = np.abs(rng.standard_normal(6))
    q2 = q1 + 1.0
    assert vector_p_norm(a, q2) <= vector_p_norm(a, q1) + 1e-12


# ---------------------------------------------------------------------------
# block norms and the partition DP against the one-sample loops they replaced
# ---------------------------------------------------------------------------


def _rowwise_block_norms(f, p, inner_p):
    # reference: one start row per numpy pass
    s = len(f.freqs)
    N, _ = quadrature_points(f, p, inner_p)
    t = np.arange(N) / N
    phases = np.exp(2j * np.pi * np.outer(np.asarray(f.freqs, dtype=float), t))
    waves = f.vecs[:, None, :] * phases[:, :, None]
    prefix = np.concatenate([np.zeros((1, N, f.dim), dtype=complex), np.cumsum(waves, axis=0)])
    w = np.zeros((s, s))
    for i in range(s):
        vals = prefix[i + 1 :] - prefix[i]
        a = np.abs(vals)
        if math.isinf(inner_p):
            row = a.max(axis=2)
        elif inner_p == 2.0:
            row = np.sqrt(np.sum(a * a, axis=2))
        else:
            row = np.sum(a ** inner_p, axis=2) ** (1.0 / inner_p)
        w[i, i:] = np.mean(row ** p, axis=1) ** (1.0 / p)
    return w


def _per_block_norms(f, part, p, inner_p):
    # reference: one projection and one aliased FFT per block, on the full-support grid
    N, _ = quadrature_points(f, p, inner_p)
    return np.array([lp_torus_norm(project_interval(f, iv), p, inner_p, n_points=N).value
                     for iv in part.intervals])


@pytest.mark.parametrize("p,inner_p", [(2.0, 2.0), (4.0, 2.0), (3.0, 1.0), (1.5, math.inf)])
def test_block_norms_match_per_block_projections(p, inner_p, rng):
    for _ in range(40):
        size, d = int(rng.integers(2, 9)), int(rng.integers(1, 4))
        # even frequencies, so every gap between neighbours holds an odd one
        freqs = 2 * rng.choice(np.arange(-6, 7), size=size, replace=False)
        f = TrigPolynomial(tuple(int(n) for n in freqs),
                           rng.standard_normal((size, d)) + 1j * rng.standard_normal((size, d)), d)
        fs = f.freqs
        cut = int(rng.integers(1, len(fs)))
        parts = [
            _random_partition(rng, fs),
            # half-lines with None ends around a gap that holds no support frequency
            IntervalPartition(((None, fs[cut - 1]), (fs[cut - 1] + 1, fs[cut] - 1),
                               (fs[cut], None))),
            IntervalPartition(((None, fs[0] - 1), (fs[0], fs[-1]), (fs[-1] + 1, None))),
        ]
        for part in parts:
            got = block_norms(f, part.intervals, p, inner_p)
            want = _per_block_norms(f, part, p, inner_p)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)  # zeros exactly


@pytest.mark.parametrize("p", [300.0, 1e4])
@pytest.mark.parametrize("scale", [1e3, 1e-3])
def test_block_norms_take_the_peak_out_past_the_float_range(p, scale, rng):
    # at such p the p-th powers of grid values above 1 overflow and those of
    # values below 1 underflow: each block takes its peak out and its norm is the
    # peak-scaled power mean's, (mean row^p)^(1/p) = ||row||_p / N^(1/p)
    f = TrigPolynomial((-3, -1, 0, 2, 5), scale * (rng.standard_normal((5, 2))
                                                  + 1j * rng.standard_normal((5, 2))), 2)
    N, _ = quadrature_points(f, p, 2.0)
    t = np.arange(N) / N
    waves = f.vecs[:, None, :] * np.exp(2j * np.pi * np.outer(f.freqs, t))[:, :, None]
    with np.errstate(over="ignore", under="ignore"):
        w = _run_block_norms(f, p, 2.0)
    for i in range(5):
        for j in range(i, 5):
            row = np.sqrt((np.abs(waves[i:j + 1].sum(axis=0)) ** 2).sum(axis=1))
            assert w[i, j] == pytest.approx(vector_p_norm(row, p) / N ** (1.0 / p), rel=1e-12)
    assert (w[np.triu_indices(5)] > 0).all() and np.isfinite(w).all()


def test_phase_table_is_keyed_by_grid_and_degree(rng):
    # p = 4 at M = 4 and p = 2 at M = 8 share the 17-point grid; each needs
    # its own rows, so the table of one must not serve the other
    f4 = TrigPolynomial(tuple(range(-4, 5)), rng.standard_normal((9, 2)), 2)
    f2 = TrigPolynomial((-8, -3, 0, 2, 8), rng.standard_normal((5, 1)), 1)
    assert quadrature_points(f4, 4.0, 2.0) == quadrature_points(f2, 2.0, 2.0) == (17, True)
    _phase_table.cache_clear()
    for f, p in ((f4, 4.0), (f2, 2.0), (f4, 4.0), (f2, 2.0)):
        assert np.array_equal(_run_block_norms(f, p, 2.0), _rowwise_block_norms(f, p, 2.0))
    info = _phase_table.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 2, 2)
    table = _phase_table(17, 4)
    assert table.shape == (9, 17)
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0] = 0.0


def _quadratic_dp(w, q, gamma, side):
    # reference: one sample, O(s^2) slice writes per block count
    s = w.shape[0]
    wq = w ** q
    sign = 1.0 if side == "lower" else -1.0
    best = np.full((s + 1, s), -math.inf)
    parent = np.zeros((s + 1, s), dtype=int)
    best[1, :] = sign * wq[0, :]
    for c in range(2, s + 1):
        prev = best[c - 1]
        cand = np.full((s, s), -math.inf)
        for i in range(c - 1, s):
            cand[i, i:] = prev[i - 1] + sign * wq[i, i:]
        best[c] = cand.max(axis=0)
        parent[c] = cand.argmax(axis=0)
    fnorm = w[0, s - 1]
    best_val, best_c = -math.inf, 1
    for c in range(1, s + 1):
        tot = sign * best[c, s - 1]
        if not (tot > 0) or not math.isfinite(tot):
            continue
        agg = tot ** (1.0 / q)
        ratio = (agg / fnorm) if side == "lower" else (fnorm / agg)
        val = ratio / c ** gamma
        if val > best_val:
            best_val, best_c = val, c
    cuts = []
    j, c = s - 1, best_c
    while c >= 1:
        i = int(parent[c, j]) if c > 1 else 0
        cuts.append((i, j))
        j, c = i - 1, c - 1
    cuts.reverse()
    return best_val, cuts


@pytest.mark.parametrize("max_support", [8, 16, 32])
@pytest.mark.parametrize("p,inner_p,q", [(4.0, 2.0, 4.0), (3.0, 2.0, 2.0), (3.0, 1.0, 1.5),
                                         (2.5, math.inf, 3.0), (1.5, 3.0, 1.0)])
def test_batched_objective_matches_one_sample_loops(p, inner_p, q, max_support):
    cfg = DecompSearchConfig(max_support=max_support, max_dim=3, seed=max_support)
    rng = np.random.default_rng(cfg.seed)
    by_size = {}
    for _ in range(12):
        f = _draw_polynomial(rng, cfg)
        w = _run_block_norms(f, p, inner_p)
        assert np.array_equal(w, _rowwise_block_norms(f, p, inner_p))
        by_size.setdefault(len(f.freqs), []).append(w)
    for ws in by_size.values():
        for side in ("lower", "upper"):
            for gamma in (0.0, 0.3):
                got = _best_contiguous_partitions(np.stack(ws), q, gamma, side,
                                                  np.full(len(ws), len(ws[0])))
                assert got == [_quadratic_dp(w, q, gamma, side) for w in ws]


def test_dp_stack_of_equal_sizes_matches_one_sample_loop():
    # many samples per stack, as the estimate loop groups them
    rng = np.random.default_rng(11)
    ws = np.triu(rng.random((40, 9, 9)) * 3.0)
    for side in ("lower", "upper"):
        for q, gamma in ((1.0, 0.0), (2.5, 0.3), (4.0, 0.0)):
            got = _best_contiguous_partitions(ws, q, gamma, side, np.full(40, 9))
            assert got == [_quadratic_dp(w, q, gamma, side) for w in ws]


def _mixed_size_stack(rng, sizes):
    # each sample's triangle in the top left corner of a zero-padded stack
    S = max(sizes)
    ws = np.zeros((len(sizes), S, S))
    for b, n in enumerate(sizes):
        ws[b, :n, :n] = np.triu(0.2 + 3.0 * rng.random((n, n)))
    return ws


@pytest.mark.parametrize("q", [1.0, 2.5, 4.0])
def test_padded_dp_matches_one_sample_loop(q):
    rng = np.random.default_rng(17)
    sizes = np.array([5, 1, 9, 2, 9, 3, 7, 4])
    ws = _mixed_size_stack(rng, sizes)
    for side in ("lower", "upper"):
        for gamma in (0.0, 0.3):
            got = _best_contiguous_partitions(ws, q, gamma, side, sizes)
            assert got == [_quadratic_dp(w[:n, :n], q, gamma, side) for w, n in zip(ws, sizes)]


def _brute_force_objective(w, q, gamma, side):
    # every contiguous partition, aggregated with the overflow-safe l^q norm
    s = w.shape[0]
    best = -math.inf
    for mask in range(2 ** (s - 1)):
        starts = [0] + [k + 1 for k in range(s - 1) if mask >> k & 1]
        ends = [k - 1 for k in starts[1:]] + [s - 1]
        agg = vector_p_norm([w[i, j] for i, j in zip(starts, ends)], q)
        ratio = agg / w[0, s - 1] if side == "lower" else w[0, s - 1] / agg
        best = max(best, ratio / len(starts) ** gamma)
    return best


@pytest.mark.parametrize("q", [500.0, 5000.0])
def test_dp_rescales_out_of_range_powers(q):
    # w**q overflows and underflows here; the optimum must survive both
    rng = np.random.default_rng(3)
    ws = np.triu(0.2 + 5.0 * rng.random((6, 7, 7)))
    for side in ("lower", "upper"):
        for gamma in (0.0, 0.3):
            got = _best_contiguous_partitions(ws, q, gamma, side, np.full(6, 7))
            for w, (val, _cuts) in zip(ws, got):
                assert val == pytest.approx(_brute_force_objective(w, q, gamma, side), rel=1e-9)
                if gamma == 0.0:
                    assert val >= 1.0 - 1e-12  # the one-block partition scores 1


@pytest.mark.parametrize("q", [500.0, 5000.0])
def test_padded_dp_rescales_per_sample(q):
    # the rescale path with per-sample sizes: brute force, and the unpadded program
    rng = np.random.default_rng(5)
    sizes = np.array([7, 3, 6, 2, 7])
    ws = 5.0 * _mixed_size_stack(rng, sizes)
    for side in ("lower", "upper"):
        for gamma in (0.0, 0.3):
            got = _best_contiguous_partitions(ws, q, gamma, side, sizes)
            for w, n, (val, cuts) in zip(ws, sizes, got):
                assert val == pytest.approx(_brute_force_objective(w[:n, :n], q, gamma, side),
                                            rel=1e-9)
                assert [(val, cuts)] == _best_contiguous_partitions(w[None, :n, :n], q, gamma,
                                                                    side, np.array([n]))


@pytest.mark.parametrize("q", [2000.0, 5000.0])
def test_large_q_lower_floor_is_at_least_one(q):
    cfg = DecompSearchConfig(trials=50, ascent_steps=5, max_support=16, max_dim=2, seed=1)
    est = estimate_constant(3.0, q, 2.0, "lower", 0.0, cfg)
    assert est.constant_lower >= 1.0


# ---------------------------------------------------------------------------
# lockstep ascents against the one-start loop they replaced
# ---------------------------------------------------------------------------


def _sequential_ascent(f, start, score, steps, rng):
    # reference: one start at a time, two (s, d) noise draws per step
    (value, extra), step = start, 0.25
    for _ in range(steps):
        trial = f.vecs + step * (
            rng.standard_normal(f.vecs.shape) + 1j * rng.standard_normal(f.vecs.shape)
        )
        cand = TrigPolynomial(f.freqs, trial, f.dim)
        if cand.is_zero:
            continue
        v, v_extra = score(cand)
        if v > value:
            value, f, extra = v, cand, v_extra
            step = min(step * 1.3, 1.0)
        else:
            step = max(step * 0.7, 1e-6)
    return value, f, extra


def _decomp_objective(p, q, inner_p, gamma, side):
    # (the bounded scorer the ascent calls with floors, the unbounded one)
    return (lambda fs, floors: _pruned_scores(fs, p, q, inner_p, gamma, side, floors),
            lambda fs: _score(fs, p, q, inner_p, gamma, side))


def _riesz_objective(p, inner_p):
    def score(fs, _floors=None):
        return [(r, None) for r in _multiplier_ratios(fs, [RIESZ_SYMBOL] * len(fs), p, inner_p)]
    return score, score


def _count_triangles(monkeypatch):
    calls = [0]
    real = decomp._run_block_norms

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(decomp, "_run_block_norms", counted)
    return calls


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("objective,prunes", [
    (_decomp_objective(4.0, 4.0, 1.0, 0.0, "lower"), False),
    (_decomp_objective(3.0, 1.5, 2.0, 0.3, "lower"), False),
    (_decomp_objective(4.0, 2.0, 2.0, 0.0, "upper"), True),
    (_decomp_objective(1.5, 1.5, 1.0, 0.0, "lower"), True),
    (_riesz_objective(4.0, 1.0), False),
], ids=["decomp-lower-l1", "decomp-lower-gamma", "decomp-upper", "decomp-lower-pruned",
        "riesz"])
def test_lockstep_ascents_match_sequential_loop(objective, prunes, d, monkeypatch):
    bounded, alone = objective
    rng = np.random.default_rng(40 + d)
    sizes = [6, 2, 11, 6, 3, 9]  # mixed, one repeated
    # sign patterns on runs of frequencies: the starts the ascent improves
    polys = [TrigPolynomial(tuple(range(-2, n - 2)), rng.choice([-1.0, 1.0], (n, d)), d)
             for n in sizes]
    starts = list(zip(polys, alone(polys)))
    steps = 25
    seq_rng, lock_rng = np.random.default_rng(7), np.random.default_rng(7)
    want = [_sequential_ascent(f, start, lambda g: alone([g])[0], steps, seq_rng)
            for f, start in starts]
    triangles = _count_triangles(monkeypatch)
    got = _coefficient_ascents(starts, bounded, steps, lock_rng)
    assert len(got) == len(want)
    for (v, f, extra), (v_ref, f_ref, extra_ref) in zip(got, want):
        assert v == v_ref and extra == extra_ref
        assert f.freqs == f_ref.freqs and np.array_equal(f.vecs, f_ref.vecs)
    assert lock_rng.random() == seq_rng.random()  # the next draw is the same
    # some step is accepted, so the test compares more than the starts
    assert any(v > start[0] for (v, _f, _e), (_g, start) in zip(got, starts))
    # a bounded side skips some candidates' triangles; an unbounded one none
    if prunes:
        assert 0 < triangles[0] < len(starts) * steps
    elif bounded is not alone:
        assert triangles[0] == len(starts) * steps


@pytest.mark.parametrize("cfg", [
    DecompSearchConfig(trials=60, ascent_steps=7, max_support=10, max_dim=3, seed=2),
    # sign-pattern candidates join the corpus
    DecompSearchConfig(trials=30, ascent_steps=5, max_support=6, max_dim=1, seed=8),
    DecompSearchConfig(trials=500, ascent_steps=50, max_support=16, max_dim=2, seed=1),
], ids=["random", "sign-patterns", "workload"])
def test_triangles_are_a_few_top_k_plus_unpruned_candidates(cfg, monkeypatch):
    # the bound prunes the corpus to a few _TOP_K and the ascent well below its
    # _TOP_K * ascent_steps candidates (the workload task: 10 of 500 samples
    # and about 210 of 500 candidates); the lower side at p > 2 has no bound
    # and scores every sample and candidate
    replay = np.random.default_rng(cfg.seed)
    corpus = len(_sign_pattern_candidates(cfg)) + sum(
        not _draw_polynomial(replay, cfg).is_zero for _ in range(cfg.trials))
    candidates = decomp._TOP_K * cfg.ascent_steps
    triangles = _count_triangles(monkeypatch)
    real = decomp._coefficient_ascents
    at_ascent = []
    monkeypatch.setattr(decomp, "_coefficient_ascents",
                        lambda *a: at_ascent.append(triangles[0]) or real(*a))
    estimate_constant(3.0, 2.0, 2.0, "upper", 0.0, cfg)
    assert decomp._TOP_K <= at_ascent[0] <= 2 * decomp._TOP_K < corpus
    assert triangles[0] - at_ascent[0] <= candidates // 2
    triangles[0] = 0
    estimate_constant(3.0, 2.0, 2.0, "lower", 0.0, cfg)
    assert triangles[0] == corpus + candidates


# ---------------------------------------------------------------------------
# the certified score bound and the pruning it drives
# ---------------------------------------------------------------------------

# exponents p on the side of 2 where each side's score has a bound
BOUNDED_P = {"upper": [2.0, 2.5, 3.0, 4.0, 6.0], "lower": [1.1, 1.5, 2.0]}


@pytest.mark.parametrize("side", ["upper", "lower"])
@settings(max_examples=200)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 12),
       d=st.sampled_from([1, 2, 3]), inner_p=st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]),
       q=st.sampled_from([1.0, 1.5, 2.0, 4.0]), gamma=st.sampled_from([0.0, 0.5]),
       k=st.integers(0, 4), spread=st.sampled_from([0.0, 8.0]))
def test_score_never_exceeds_its_bound(side, seed, size, d, inner_p, q, gamma, k, spread):
    # spread 8 scales the coefficient rows by 1e-8 to 1e8: a block after a
    # large prefix is a difference of large prefix sums
    p = BOUNDED_P[side][k % len(BOUNDED_P[side])]
    rng = np.random.default_rng(seed)
    freqs = rng.choice(np.arange(-12, 13), size=size, replace=False)
    vecs = rng.standard_normal((size, d)) + 1j * rng.standard_normal((size, d))
    vecs *= 10.0 ** rng.uniform(-spread, spread, (size, 1))
    f = TrigPolynomial(tuple(int(n) for n in freqs), vecs, d)
    [(value, _cuts)] = _score([f], p, q, inner_p, gamma, side)
    [bound] = _score_bounds([f], p, q, inner_p, side, None)
    assert math.isfinite(bound) and value <= bound


@pytest.mark.parametrize("side,p", [("upper", 1.5), ("lower", 3.0)])
def test_unbounded_side_has_no_bound_and_no_torus_norm(side, p, rng, monkeypatch):
    monkeypatch.setattr(decomp, "_torus_norms", lambda *a: pytest.fail("a torus norm"))
    polys = [_random_poly(rng) for _ in range(4)]
    assert np.isposinf(_score_bounds(polys, p, 2.0, 2.0, side, None)).all()
    assert np.isposinf(_score_bounds(polys, p, 2.0, 2.0, side, [5.0] * 4)).all()


def test_floor_below_every_bound_costs_nothing(rng, monkeypatch):
    # every finite bound exceeds 1 + 256 u, so such a floor prunes nothing
    polys = [_random_poly(rng) for _ in range(5)]
    bounds = _score_bounds(polys, 3.0, 2.0, 2.0, "upper", None)
    assert (bounds > 1 + 256 * 2.0**-53).all()
    monkeypatch.setattr(decomp, "_torus_norms", lambda *a: pytest.fail("a torus norm"))
    assert np.isposinf(_score_bounds(polys, 3.0, 2.0, 2.0, "upper", [1.0] * 5)).all()


ORACLE_CONFIGS = [
    DecompSearchConfig(trials=80, ascent_steps=12, max_support=12, max_dim=2, seed=7),
    DecompSearchConfig(trials=80, ascent_steps=12, max_support=10, max_dim=3, seed=1),
    DecompSearchConfig(trials=60, ascent_steps=12, max_support=16, max_dim=2, seed=2),
    # sign-pattern candidates join the corpus
    DecompSearchConfig(trials=30, ascent_steps=12, max_support=7, max_dim=1, seed=4),
]


@pytest.mark.parametrize("cfg", ORACLE_CONFIGS, ids=["seed7", "seed1-d3", "seed2-s16", "signs"])
@pytest.mark.parametrize("p,q,inner_p,side,gamma", [
    # the bound prunes corpus samples or ascent candidates on every config
    (3.0, 2.0, 2.0, "upper", 0.0),
    (4.0, 4.0, 2.0, "upper", 0.1),
    (1.5, 2.0, 2.0, "lower", 0.0),
    (1.5, 1.0, 1.0, "lower", 0.2),
    # bounded sides where it prunes nothing: d^(1/2) loose, every value 1
    (2.0, 1.5, math.inf, "upper", 0.0),
    (2.0, 2.0, 2.0, "lower", 0.0),
    # the sides with no bound
    (4.0, 4.0, 2.0, "lower", 0.0),
    (1.5, 2.0, 2.0, "upper", 0.0),
])
def test_pruned_estimate_matches_every_sample_oracle(p, q, inner_p, side, gamma, cfg):
    got = estimate_constant(p, q, inner_p, side, gamma, cfg)
    want = estimate_every_sample(p, q, inner_p, side, gamma, cfg)
    assert got.constant_lower == want.constant_lower
    assert got.witness.freqs == want.witness.freqs
    assert np.array_equal(got.witness.vecs, want.witness.vecs)
    assert got.witness_partition == want.witness_partition


# ---------------------------------------------------------------------------
# estimate_constant
# ---------------------------------------------------------------------------


def test_parseval_estimate_pinned_to_one():
    cfg = DecompSearchConfig(trials=150, ascent_steps=30, max_support=8, max_dim=2, seed=1)
    est = estimate_constant(2.0, 2.0, 2.0, "lower", 0.0, cfg)
    assert est.constant_lower == pytest.approx(1.0, abs=1e-6)
    est_u = estimate_constant(2.0, 2.0, 2.0, "upper", 0.0, cfg)
    assert est_u.constant_lower == pytest.approx(1.0, abs=1e-6)


def test_q1_upper_estimate_never_exceeds_one():
    cfg = DecompSearchConfig(trials=150, ascent_steps=30, max_support=6, max_dim=1, seed=2)
    est = estimate_constant(2.0, 1.0, 2.0, "upper", 0.0, cfg)
    assert est.constant_lower <= 1.0 + 1e-6


def test_p4q4_lower_beats_exhaustive_floor():
    cfg = DecompSearchConfig(trials=1500, ascent_steps=150, max_support=8, max_dim=1, seed=5)
    est = estimate_constant(4.0, 4.0, 2.0, "lower", 0.0, cfg)
    assert est.constant_lower >= P4Q4_LOWER_FLOOR - 1e-9


def test_estimate_witness_reproduces_value():
    cfg = DecompSearchConfig(trials=200, ascent_steps=50, max_support=8, max_dim=1, seed=9)
    est = estimate_constant(4.0, 2.0, 2.0, "upper", 0.1, cfg)
    replay = decomposition_ratio(est.witness, est.witness_partition, 4.0, 2.0, 2.0, "upper")
    assert replay / len(est.witness_partition) ** 0.1 == pytest.approx(est.constant_lower,
                                                                        abs=1e-9)


def test_estimate_dominates_scanned_corpus():
    # bookkeeping invariant: the returned floor is >= every objective value
    # the scan evaluated; replay the seeded corpus and compare
    cfg = DecompSearchConfig(trials=120, ascent_steps=30, max_support=6, max_dim=1, seed=13)
    est = estimate_constant(3.0, 2.0, 2.0, "upper", 0.0, cfg)
    replay = np.random.default_rng(cfg.seed)
    for _ in range(cfg.trials):
        f = _draw_polynomial(replay, cfg)
        if f.is_zero:
            continue
        [(val, _cuts)] = _score([f], 3.0, 2.0, 2.0, 0.0, "upper")
        assert est.constant_lower >= val - 1e-12
    assert est.constant_lower >= 1.0 - 1e-9  # the one-interval partition scores 1


def test_estimate_monotone_in_trials():
    small = DecompSearchConfig(trials=40, ascent_steps=0, max_support=6, max_dim=1, seed=3)
    large = DecompSearchConfig(trials=400, ascent_steps=0, max_support=6, max_dim=1, seed=3)
    lo = estimate_constant(4.0, 2.0, 2.0, "lower", 0.0, small).constant_lower
    hi = estimate_constant(4.0, 2.0, 2.0, "lower", 0.0, large).constant_lower
    assert hi >= lo - 1e-12


def test_estimate_validates_arguments():
    with pytest.raises(ValueError):
        estimate_constant(1.0, 2.0)
    with pytest.raises(ValueError):
        estimate_constant(2.0, 0.5)
    with pytest.raises(ValueError):
        estimate_constant(2.0, 2.0, side="middle")


# ---------------------------------------------------------------------------
# Hoelder growth trick
# ---------------------------------------------------------------------------


def test_hoelder_equal_exponents_margin_one(rng):
    f = _random_poly(rng, size=5, d=1)
    part = _random_partition(rng, f.freqs)
    assert hoelder_growth_check(f, part, 2.0, 2.0, 2.0) == pytest.approx(1.0)


def test_hoelder_equality_case_large_r():
    # equal block norms: margin -> 1 as r grows
    f = scal({0: 1.0, 1: 1.0})
    part = IntervalPartition(((0, 0), (1, 1)))
    assert hoelder_growth_check(f, part, 2.0, 1.0, 64.0) == pytest.approx(1.0, abs=1e-6)


def test_hoelder_hand_value_zero_block():
    f = scal({0: 1.0})
    part = IntervalPartition(((0, 0), (1, 1)))
    assert hoelder_growth_check(f, part, 2.0, 1.0, 2.0) == pytest.approx(math.sqrt(2.0))


def test_hoelder_rejects_r_below_q():
    f = scal({0: 1.0})
    part = IntervalPartition(((0, 0),))
    with pytest.raises(ValueError):
        hoelder_growth_check(f, part, 2.0, 2.0, 1.5)


def test_hoelder_margin_random_instances(rng):
    for _ in range(1000):
        f = _random_poly(rng, size=int(rng.integers(2, 7)), d=int(rng.integers(1, 3)))
        part = _random_partition(rng, f.freqs)
        q = 1.0 + 2.0 * rng.random()
        r = q + 3.0 * rng.random()
        assert hoelder_growth_check(f, part, 2.0, q, r) >= 1.0 - 1e-10


# ---------------------------------------------------------------------------
# pairing duality
# ---------------------------------------------------------------------------


def test_pairing_duality_identity_case():
    f = scal({0: 1.0})
    part = IntervalPartition(((0, 0),))
    assert pairing_duality_check(f, f, part, 2.0, 2.0) == pytest.approx(1.0)


def test_pairing_duality_skip_on_orthogonal():
    f = scal({0: 1.0})
    g = scal({3: 1.0})
    part = IntervalPartition(((0, 0), (3, 3)))
    assert pairing_duality_check(f, g, part, 2.0, 2.0) is None


def test_pairing_duality_margin_random_instances(rng):
    checked = 0
    for _ in range(1000):
        size = int(rng.integers(2, 6))
        freqs = tuple(int(n) for n in rng.choice(np.arange(-4, 5), size=size, replace=False))
        f = TrigPolynomial(freqs, rng.standard_normal((size, 1)) + 1j * rng.standard_normal((size, 1)), 1)
        g = TrigPolynomial(freqs, rng.standard_normal((size, 1)) + 1j * rng.standard_normal((size, 1)), 1)
        part = _random_partition(rng, freqs)
        margin = pairing_duality_check(f, g, part, 2.0, 2.0)
        if margin is None:
            continue
        checked += 1
        assert margin >= 1.0 - 1e-9
    assert checked > 900


# ---------------------------------------------------------------------------
# Fourier type / Rademacher moments
# ---------------------------------------------------------------------------


def test_fourier_type_single_vector():
    margin = fourier_type_check([np.array([1.0, 2.0])], 2.0, 2.0, u_ref=1.0)
    assert margin == pytest.approx(1.0)


def test_fourier_type_parseval_equality(rng):
    xs = [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(5)]
    margin = fourier_type_check(xs, 2.0, 2.0, u_ref=1.0)
    assert margin == pytest.approx(1.0, rel=1e-10)


def test_fourier_type_hand_value():
    xs = [np.array([1.0]), np.array([1.0])]
    margin = fourier_type_check(xs, 2.0, 1.0, u_ref=1.0)
    # lhs sqrt(2), rhs 2
    assert margin == pytest.approx(2.0 / math.sqrt(2.0))


def test_rademacher_single_vector_exact():
    est = rademacher_constants([np.array([2.0, 0.0])], 2.0, "type", samples=256, seed=0)
    assert est.value == pytest.approx(1.0, abs=1e-12)


def test_rademacher_scalar_type_two():
    xs = [np.array([a]) for a in (1.0, -0.5, 2.0, 0.25)]
    est = rademacher_constants(xs, 2.0, "type", samples=20_000, seed=4)
    assert abs(est.value - 1.0) <= 3 * max(est.std_error, 1e-6) + 5e-3


def test_rademacher_cotype_l1_two_point():
    xs = [np.eye(2)[0], np.eye(2)[1]]
    est = rademacher_constants(xs, 2.0, "cotype", samples=500, seed=1, inner_p=1.0)
    # |eps_1| + |eps_2| = 2 almost surely, so the estimate is deterministic
    assert est.value == pytest.approx(math.sqrt(2.0) / 2.0, abs=1e-12)


def test_rademacher_validates():
    with pytest.raises(ValueError):
        rademacher_constants([np.ones(2)], 2.0, "middle")


@pytest.mark.parametrize("field, value", [
    ("trials", 0), ("ascent_steps", -1), ("max_support", 1), ("max_dim", 0),
])
def test_search_config_rejects_out_of_range_field(field, value):
    with pytest.raises(ValueError, match=field):
        DecompSearchConfig(**{field: value})
