import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kreisslab.norms import (AscentConfig, _batched_norm_lower, _log_norm_bounds, _log_step_cap,
                             _power_ledger, power_norm_sequence)
from kreisslab.operators import ComplexMatrix, OperatorSpec, gallery, make_gallery_operator
from kreisslab import norms, resolvent
from oracles import expm_upper_triangular_mp, ledger_steps, sweep_every_point

from kreisslab.resolvent import (
    FunctionalEstimate,
    SearchConfig,
    _grid,
    _strong_kreiss_sweep,
    cesaro_partial_sum_bound,
    exponential_criterion,
    gz_partial_resolvent_ratio,
    kreiss_constant,
    strong_kreiss_constant,
)

FAST = SearchConfig(radial_count=16, angular_count=16, refine_rounds=2)


def nilpotent2():
    return make_gallery_operator(OperatorSpec("nilpotent", 2, coupling=2.0))


# ---------------------------------------------------------------------------
# kreiss_constant: closed-form oracles
# ---------------------------------------------------------------------------


def test_kreiss_identity_is_one():
    # sup of (|l|-1)/|l-1| over |l|>1 equals 1, attained on the real axis
    est = kreiss_constant(make_gallery_operator(OperatorSpec("identity", 3)))
    assert 1 - 1e-6 <= est.value <= 1 + 1e-6
    assert est.argmax is not None and abs(est.argmax.imag) < 1e-12


def test_kreiss_zero_limit_value():
    # (|l|-1)/|l| -> 1 only as |l| -> inf
    est = kreiss_constant(make_gallery_operator(OperatorSpec("zero", 2)))
    assert 1 - 1e-3 <= est.value <= 1.0


def test_kreiss_nilpotent_oracle():
    # closed form sigma_max((l-T)^{-1}) = (|y| + sqrt(y^2 + 4 x^2))/2 with
    # x = 1/r, y = 2/r^2; dense 1-D grid over r approaches the sup 1 from below
    rs = 1.0 + np.logspace(-8, 6, 20001)
    x, y = 1.0 / rs, 2.0 / rs**2
    vals = (rs - 1.0) * (y + np.sqrt(y**2 + 4 * x**2)) / 2.0
    oracle = float(vals.max())
    assert oracle <= 1.0
    est = kreiss_constant(nilpotent2())
    assert 0.99 <= est.value <= 1.0 + 1e-9
    assert est.value >= oracle - 1e-9


def test_kreiss_divergence_flag():
    T = make_gallery_operator(OperatorSpec("scalar", 2, scale=1.5))
    est = kreiss_constant(T)
    assert est.diverged and math.isinf(est.value)


# ---------------------------------------------------------------------------
# strong_kreiss_constant
# ---------------------------------------------------------------------------


def test_strong_kreiss_identity():
    est = strong_kreiss_constant(make_gallery_operator(OperatorSpec("identity", 3)), FAST, 16)
    assert est.value == pytest.approx(1.0, abs=1e-6)


def test_strong_kreiss_zero():
    est = strong_kreiss_constant(make_gallery_operator(OperatorSpec("zero", 2)), FAST, 8)
    assert 1 - 1e-3 <= est.value <= 1 + 1e-9


def test_strong_dominates_kreiss_everywhere(gallery_matrices):
    for name, T in gallery_matrices.items():
        if T.spectral_radius() > 1 + 1e-9:
            continue
        k = kreiss_constant(T, FAST)
        ks = strong_kreiss_constant(T, FAST, 8)
        assert k.value <= ks.value + 1e-9, name


# ---------------------------------------------------------------------------
# bound-pruned sweeps against the loops that take a norm at every pair
# ---------------------------------------------------------------------------


def _serial_strong_kreiss_sweep(T, xflat, tflat, n_max):
    """Per-point (best_log, best_n) from an SVD at every (point, n); and whether a peak
    above 1e100 was rescaled."""
    r = 1.0 + 10.0 ** xflat
    lam = r * np.exp(1j * tflat)
    eye = np.eye(T.dim, dtype=complex)
    R = np.linalg.inv(lam[:, None, None] * eye - T.entries)
    M = np.broadcast_to(eye, R.shape).copy()
    log_scale = np.zeros(len(r))
    log_gap = np.log(r - 1.0)
    best_log = np.full(len(r), -np.inf)
    best_n = np.zeros(len(r), dtype=int)
    rescaled = False
    for n in range(1, n_max + 1):
        M = R @ M
        peak = np.abs(M).max(axis=(1, 2))
        mask = (peak > 0) & ((peak > 1e100) | (peak < 1e-100))
        rescaled |= bool((peak > 1e100).any())
        if mask.any():
            M[mask] /= peak[mask, None, None]
            log_scale[mask] += np.log(peak[mask])
        nl = np.linalg.svd(M, compute_uv=False)[..., 0]
        with np.errstate(divide="ignore"):
            score = n * log_gap + log_scale + np.log(nl)
        better = score > best_log
        best_log = np.where(better, score, best_log)
        best_n = np.where(better, n, best_n)
    return best_log, best_n, rescaled


def _all_pairs_strong_kreiss_sweep(T, xflat, tflat, n_max, p, acfg):
    """The general-p loop of _strong_kreiss_sweep before it was pruned, kept verbatim
    as an oracle: a norm at every (point, n)."""
    r = 1.0 + 10.0 ** xflat
    lam = r * np.exp(1j * tflat)
    R = np.linalg.inv(lam[:, None, None] * np.eye(T.dim, dtype=complex) - T.entries)
    log_gap = np.log(r - 1.0)
    best_log = np.full(len(r), -np.inf)
    best_n = np.zeros(len(r), dtype=int)
    for n, M, log_scale in _power_ledger(R, n_max):
        nl = _batched_norm_lower(M, p, acfg)
        with np.errstate(divide="ignore"):
            score = n * log_gap + log_scale + np.log(nl)
        better = score > best_log
        best_log = np.where(better, score, best_log)
        best_n = np.where(better, n, best_n)
    return best_log, best_n


def _serial_cesaro(T, cfg, n_max):
    """(cesaro_lower, argmax, n_at_max) with a norm at every (angle, n)."""
    acfg = cfg.ascent()
    angles = 2.0 * np.pi * np.arange(cfg.angular_count) / cfg.angular_count
    lam = np.exp(1j * angles)
    eye = np.eye(T.dim, dtype=complex)
    S = np.broadcast_to(eye, (len(lam), T.dim, T.dim)).copy()
    P = eye.copy()
    phase = np.ones(len(lam), dtype=complex)
    best, best_i, best_n = 1.0, 0, 0
    for n in range(1, n_max + 1):
        P = T.entries @ P
        phase = phase * lam
        S += phase[:, None, None] * P
        ratios = _batched_norm_lower(S, cfg.p, acfg) / (n + 1.0)
        j = int(np.argmax(ratios))
        if float(ratios[j]) > best:
            best, best_i, best_n = float(ratios[j]), j, n
    return best, complex(lam[best_i]), best_n


def _serial_gz(T, cfg, n_max, ks_ref):
    """gz_partial_resolvent_ratio's plain power loop, kept verbatim as an oracle."""
    acfg = cfg.ascent()
    xs, angles = _grid(cfg)
    R, A = np.meshgrid(1.0 + 10.0 ** xs, angles, indexing="ij")
    lam = (R * np.exp(1j * A)).ravel()
    eye = np.eye(T.dim, dtype=complex)
    inv_lam = 1.0 / lam
    S = inv_lam[:, None, None] * eye
    P = eye.copy()
    coef = inv_lam.copy()
    best = -math.inf
    best_i, best_n = 0, 0
    for n in range(0, n_max + 1):
        if n > 0:
            P = T.entries @ P
            coef = coef * inv_lam
            S += coef[:, None, None] * P
        norms = _batched_norm_lower(S, cfg.p, acfg)
        vals = (np.abs(lam) - 1.0) * norms / (4.0 * ks_ref)
        j = int(np.argmax(vals))
        if float(vals[j]) > best:
            best, best_i, best_n = float(vals[j]), j, n
    return best, complex(lam[best_i]), best_n


def _pruning_operators():
    ops = {e.name: make_gallery_operator(e.spec) for e in gallery()}
    ops = {name: T for name, T in ops.items() if T.spectral_radius() <= 1 + 1e-9}
    for d in (16, 64):
        ops[f"jordan{d}_09"] = make_gallery_operator(OperatorSpec("jordan", d, eigenvalue=0.9))
    return ops


PRUNING_OPERATORS = _pruning_operators()
PRUNING_CFG = SearchConfig(radial_count=8, angular_count=8)
# the ascent runs at every pair of the oracles: a few small operators and a
# short ascent keep them fast
GENERAL_P = [1.5, 3.0, 4.0]
GENERAL_P_OPERATORS = ["jordan2", "rotation3", "shift4"]
GENERAL_P_ACFG = AscentConfig(restarts=4, max_steps=40, rel_tol=1e-9)


def _sweep_points(n_max):
    """The PRUNING_CFG grid and 24 random points."""
    xs, angles = _grid(PRUNING_CFG)
    X, Tt = np.meshgrid(xs, angles, indexing="ij")
    rng = np.random.default_rng(n_max)
    xf = np.concatenate([X.ravel(), rng.uniform(xs[0], xs[-1], 24)])
    tf = np.concatenate([Tt.ravel(), rng.uniform(0.0, 2 * np.pi, 24)])
    return xf, tf


# 64 x 64 SVDs at 64 powers would take the serial loop alone several seconds
@pytest.mark.parametrize("name, n_max", [
    (name, n_max) for name in sorted(PRUNING_OPERATORS) for n_max in (1, 8, 16, 64)
    if (name, n_max) != ("jordan64_09", 64)
])
def test_pruned_strong_kreiss_sweep_matches_serial(name, n_max):
    T = PRUNING_OPERATORS[name]
    xf, tf = _sweep_points(n_max)
    best_log, best_n, rescaled = _serial_strong_kreiss_sweep(T, xf, tf, n_max)
    got_log, got_n = _strong_kreiss_sweep(T, xf, tf, n_max, 2.0, PRUNING_CFG.ascent(),
                                          np.arange(len(xf)), 1, -math.inf)
    assert np.array_equal(got_log, best_log)
    assert np.array_equal(got_n, best_n)
    if name == "jordan2" and n_max >= 16:
        assert rescaled  # near lambda = 1, ||R^n|| ~ n 1e8^(n+1) passes 1e100 at n = 12


@pytest.mark.parametrize("name", GENERAL_P_OPERATORS)
@pytest.mark.parametrize("p", GENERAL_P)
def test_pruned_strong_kreiss_sweep_matches_all_pairs_loop(p, name):
    T = PRUNING_OPERATORS[name]
    xf, tf = _sweep_points(16)
    got_log, got_n = _strong_kreiss_sweep(T, xf, tf, 16, p, GENERAL_P_ACFG, np.arange(len(xf)), 1,
                                          -math.inf)
    best_log, best_n = _all_pairs_strong_kreiss_sweep(T, xf, tf, 16, p, GENERAL_P_ACFG)
    assert np.array_equal(got_log, best_log)
    assert np.array_equal(got_n, best_n)


@pytest.mark.parametrize("top", [1, 2, 5])
@pytest.mark.parametrize("p", [2.0, 3.0])
def test_pruned_sweep_keeps_each_groups_top_values_exact(p, top):
    # each group's top best values and every tie with the top-th are exact (n
    # too); any other point reads at most its value, below the top-th.  Two
    # groups hold fewer than top points.
    T = PRUNING_OPERATORS["jordan2_damped"]
    xf, tf = _sweep_points(16)
    want, want_n = _strong_kreiss_sweep(T, xf, tf, 16, p, GENERAL_P_ACFG, np.arange(len(xf)), 1,
                                        -math.inf)
    groups = np.array([0, 1, 30, len(xf) - 2])
    got, got_n = _strong_kreiss_sweep(T, xf, tf, 16, p, GENERAL_P_ACFG, groups, top, -math.inf)
    for a, b in zip(groups, [*groups[1:], len(xf)]):
        floor = np.sort(want[a:b])[::-1][min(top, b - a) - 1]
        exact = np.arange(a, b)[want[a:b] >= floor]
        rest = np.arange(a, b)[want[a:b] < floor]
        assert np.array_equal(got[exact], want[exact])
        assert np.array_equal(got_n[exact], want_n[exact])
        assert (got[rest] <= want[rest]).all()


@pytest.mark.parametrize("n_max", [1, 8, 16, 64])
@pytest.mark.parametrize("name", sorted(PRUNING_OPERATORS))
def test_pruned_cesaro_matches_serial(name, n_max):
    T = PRUNING_OPERATORS[name]
    cfg = SearchConfig(angular_count=16)
    res = cesaro_partial_sum_bound(T, cfg, n_max)
    assert (res.value, res.argmax, res.n_at_max) == _serial_cesaro(T, cfg, n_max)


@pytest.mark.parametrize("name", GENERAL_P_OPERATORS)
@pytest.mark.parametrize("p", GENERAL_P)
def test_pruned_cesaro_matches_serial_at_general_p(p, name):
    T = PRUNING_OPERATORS[name]
    cfg = SearchConfig(angular_count=16, p=p)
    res = cesaro_partial_sum_bound(T, cfg, 16)
    assert (res.value, res.argmax, res.n_at_max) == _serial_cesaro(T, cfg, 16)


@given(d=st.sampled_from([1, 2, 5, 16]),
       p=st.sampled_from([1.0, 1.5, 2.0, 3.0, 7.5, 60.0, math.inf]),
       log10_scales=st.lists(st.floats(-150.0, 150.0), min_size=1, max_size=4),
       density=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_log_norm_bounds_hold_for_the_computed_norm(d, p, log10_scales, density, seed):
    # every pruning decision rests on lo <= log of the value _batched_norm_lower
    # computes <= hi; each matrix has a peak entry of normal size
    rng = np.random.default_rng(seed)
    shape = (len(log10_scales), d, d)
    M = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    M *= rng.random(shape) < density
    M *= 10.0 ** np.array(log10_scales)[:, None, None]
    lo, hi = _log_norm_bounds(M, p)
    with np.errstate(divide="ignore"):
        computed = np.log(_batched_norm_lower(M, p, SearchConfig().ascent()))
    assert (lo <= computed).all() and (computed <= hi).all()


@given(d=st.sampled_from([1, 2, 5, 16]),
       log10_scales=st.lists(st.floats(-150.0, 150.0), min_size=1, max_size=4),
       log10_x=st.floats(-100.0, 100.0), density=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_log_step_cap_bounds_a_ledger_step_at_p2(d, log10_scales, log10_x, density, seed):
    # the strong-Kreiss sweep drops a point on log ||fl(R @ X)|| <= log ||X|| + cap,
    # for R = e^{log_scale} M as the ledger's first step gives it and X a rescaled
    # power; the cap takes the SVD norm at some points and the bounds at the others
    rng = np.random.default_rng(seed)
    shape = (len(log10_scales), d, d)
    R = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    R *= rng.random(shape) < density
    R *= 10.0 ** np.array(log10_scales)[:, None, None]
    X = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * 10.0 ** log10_x
    _, M, log_scale = next(_power_ledger(R, 1))
    taken = np.where(rng.random(len(R)) < 0.5, _batched_norm_lower(M, 2.0, None), np.nan)
    cap = _log_step_cap(M, 2.0, log_scale, _log_norm_bounds(M, 2.0)[1], taken)
    with np.errstate(divide="ignore"):
        after = np.log(_batched_norm_lower(R @ X, 2.0, None))
        before = np.log(_batched_norm_lower(X, 2.0, None))
    assert (after <= before + cap).all()


def _counted(monkeypatch, module, name):
    """Count the matrices of every stack passed to module.name."""
    real, count = getattr(module, name), [0]

    def counted(mats, *args, **kwargs):
        count[0] += len(mats)
        return real(mats, *args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return count


def test_pruned_sweep_takes_norms_at_the_floor():
    # A score that ignores the norm makes every bound exact: the pairs at n = 2
    # (and at the last n = 3, whose norms come first) score 1, the floor, and
    # hold the max, so only a pair strictly below the floor may go without its
    # norm, and a tie goes to the smaller n.
    R = np.random.default_rng(0).standard_normal((3, 2, 2)) + 0j

    def stack(pts):
        return _power_ledger(R[pts], 3)

    for tops in ((2,), (2, 3)):
        def score(n, idx, log_scale, norms):
            return np.full(len(norms), float(n in tops))

        for p in (2.0, 3.0):
            for groups in (np.arange(3), np.zeros(1, dtype=int)):
                best, best_n = resolvent._pruned_sweep(stack, score, p, PRUNING_CFG.ascent(),
                                                       groups, 1, -math.inf)
                assert best.tolist() == [1.0] * 3 and best_n.tolist() == [2] * 3
            shared = resolvent._sweep_max(stack, score, p, PRUNING_CFG.ascent(), -math.inf)
            assert shared == (1.0, 0, 2)


def test_pruned_sweeps_skip_most_norms(monkeypatch):
    # each bound is 1.5 times the count the sweeps read with the priors: 613 of
    # the 2,304 pairs of a strong-Kreiss grid sweep and 41 of the 1,024 of a
    # Cesaro scan get an ascent at p = 3
    T = PRUNING_OPERATORS["jordan2_damped"]
    cfg = SearchConfig(radial_count=8, angular_count=16, p=3.0)
    ascents = _counted(monkeypatch, norms, "ascent_lower_bounds")
    xs, angles = _grid(cfg)
    X, Tt = np.meshgrid(xs, angles, indexing="ij")
    _strong_kreiss_sweep(T, X.ravel(), Tt.ravel(), 16, cfg.p, cfg.ascent(), np.arange(X.size), 1,
                         -math.inf)
    assert ascents[0] <= 919
    ascents[0] = 0
    cesaro_partial_sum_bound(T, cfg, 64)
    assert ascents[0] <= 61
    # perfbench's resolvent_p2_matrix Cesaro task takes 33 SVDs (658 with a
    # running-best prune)
    svds = _counted(monkeypatch, np.linalg, "svd")
    J = PRUNING_OPERATORS["jordan16_09"]
    cfg = SearchConfig(radial_count=16, angular_count=32, refine_rounds=1)
    cesaro_partial_sum_bound(J, cfg, 128)
    assert svds[0] <= 49
    # and its Ks search 43 (2,639 with norms in increasing n and one floor per point)
    k = kreiss_constant(J, cfg)
    svds[0], evaluations = 0, _swept_points(monkeypatch)
    strong_kreiss_constant(J, cfg, 16, k_est=k)
    assert svds[0] <= 64
    # the grid and each round take their priors once and sweep no point twice
    assert len(evaluations) == 1 + cfg.refine_rounds
    for points, swept in evaluations:
        assert not Counter(swept) - Counter(points)
    # and its exp-criterion search, which builds 38 of its 841 exponentials, 11
    svds[0] = 0
    exponential_criterion(J, cfg)
    assert svds[0] <= 16


# Each bound of _pruned_sweep, pinned by the sweep norms (SVDs at p = 2, ascent
# matrices at p = 3) of a strong-Kreiss search given its k_est, and by the ledger
# matrix-steps where the bound saves those: the count it reads, then the count
# without the bound.
@pytest.mark.parametrize("name, cfg, most_norms, most_steps", [
    # the last step's norms, taken before pass 2: 267 (352)
    pytest.param("jordan2_damped", SearchConfig(radial_count=16, angular_count=16,
                                                refine_rounds=1, p=3.0), 300, None,
                 id="last-step-first"),
    # the search's start floors: 43 (89)
    pytest.param("jordan16_09", SearchConfig(radial_count=16, angular_count=32, refine_rounds=1),
                 50, None, id="start-floors"),
    # the lower-bound floors, low: 446 (666)
    pytest.param("jordan2_damped", SearchConfig(), 500, None, id="lower-bound-floors"),
    # the per-step cap n c: 8,214 (8,514)
    pytest.param("identity3", SearchConfig(), 8300, None, id="per-step-cap"),
    # leaving the ledger after the first step: 694 norms and 694 steps (11,104 steps)
    pytest.param("shift4", SearchConfig(), 700, 1000, id="leave-the-ledger"),
])
def test_each_sweep_bound_prunes_its_share(monkeypatch, name, cfg, most_norms, most_steps):
    T = PRUNING_OPERATORS[name]
    k = kreiss_constant(T, cfg)
    normed = _counted(monkeypatch, resolvent, "_batched_norm_lower")
    steps = ledger_steps(monkeypatch)
    strong_kreiss_constant(T, cfg, 16, k_est=k)
    assert normed[0] <= most_norms
    if most_steps is not None:
        assert steps[0] <= most_steps


def _swept_points(monkeypatch):
    """Record, for each evaluation of resolvent._search (the grid, then each round),
    the points it takes priors at and the points its evaluate calls receive."""
    real, evaluations = resolvent._search, []

    def search(evaluate, prior, *args):
        def counted_prior(xf, tf):
            evaluations.append((list(zip(xf.tolist(), tf.tolist())), []))
            return prior(xf, tf)

        def counted_evaluate(xf, tf, *rest):
            evaluations[-1][1].extend(zip(xf.tolist(), tf.tolist()))
            return evaluate(xf, tf, *rest)

        return real(counted_evaluate, counted_prior, *args)

    monkeypatch.setattr(resolvent, "_search", search)
    return evaluations


def _pruned_counts(monkeypatch, rounds):
    """kreiss and exp-criterion on jordan d = 16, eigenvalue 0.9, on the 16 x 32 grid
    at p = 2 with rounds refinement rounds: the point count of each evaluation
    (kreiss's grid and rounds, then exp-criterion's), and the SVDs of l - T and
    the exponentials they take.  Valuing every point, as the searches did before
    their priors, gives the same results and takes one matrix per point."""
    J = PRUNING_OPERATORS["jordan16_09"]
    cfg = SearchConfig(radial_count=16, angular_count=32, refine_rounds=rounds)
    svds = _counted(monkeypatch, resolvent, "_smallest_singular_values")
    expms = _counted(monkeypatch, resolvent, "_expm_stack")
    evaluations = _swept_points(monkeypatch)
    k, e = kreiss_constant(J, cfg), exponential_criterion(J, cfg)
    grids = [len(points) for points, _ in evaluations]
    pruned = svds[0], expms[0]
    monkeypatch.setattr(resolvent, "_top_norms", lambda upper, groups, top, value, start:
                        value(slice(None), np.full((len(upper), 0), -np.inf)))
    assert _fields(k) == _fields(kreiss_constant(J, cfg))
    assert _fields(e) == _fields(exponential_criterion(J, cfg))
    assert (svds[0] - pruned[0], expms[0] - pruned[1]) == (sum(grids[:1 + rounds]),
                                                           sum(grids[1 + rounds:]))
    return grids, *pruned


def test_priors_prune_the_grid_before_its_matrices_are_built(monkeypatch):
    # the priors, with their comparison-matrix rungs, leave few of the 544 grid
    # points an SVD of l - T or an exponential (13 and 7 of them; 109 and 49 with
    # the O(d) rungs alone), with the same results
    grids, svds, expms = _pruned_counts(monkeypatch, 0)
    assert grids == [544, 544] and svds <= 26 and expms <= 14


def test_priors_prune_a_refinement_round_before_its_matrices_are_built(monkeypatch):
    # a refinement round adds 405 SVD and 297 exponential points, which the O(d)
    # rungs alone all keep: with the comparison rungs 318 SVDs and 38 exponentials
    # are taken in all.  The SVDs stay where sigma_min(l - T) is below the rounding
    # allowance delta
    grids, svds, expms = _pruned_counts(monkeypatch, 1)
    assert grids == [544, 405, 544, 297] and svds <= 360 and expms <= 80


@pytest.mark.parametrize("seed", [1, 2, 3, 7])
def test_priors_take_no_more_ascents_than_one_sweep(monkeypatch, seed):
    # kreiss at p = 3 on jordan2_damped's 9 x 16 grid: the first take holds the 25
    # points of +inf prior, near the spectrum, with the five best finite priors,
    # near |l| -> inf where the values tend to 1, so its floor is the one a single
    # sweep over the grid reaches (6 ascents at each seed; the sweep takes 8, 15,
    # 8 and 8); a later take carries the first take's best values in
    T = PRUNING_OPERATORS["jordan2_damped"]
    cfg = SearchConfig(radial_count=8, angular_count=16, refine_rounds=0, p=3.0, seed=seed)
    ascents = _counted(monkeypatch, norms, "ascent_lower_bounds")
    k = kreiss_constant(T, cfg)
    pruned, ascents[0] = ascents[0], 0
    monkeypatch.setattr(resolvent, "_prior_log_bounds", lambda T, p, r, *_: np.full(len(r), np.inf))
    assert _fields(k) == _fields(kreiss_constant(T, cfg))
    assert pruned <= min(6, ascents[0])


@settings(max_examples=25, deadline=None)
@given(d=st.sampled_from([2, 3, 4]), radius=st.floats(0.0, 1.0),
       coupling=st.sampled_from([0.0, 1.0, 5.0]), p=st.sampled_from([1.0, 2.0, 3.0, math.inf]),
       seed=st.integers(0, 2**32 - 1), shape=st.sampled_from(["dense", "triangular"]))
def test_priors_keep_every_search_result(d, radius, coupling, p, seed, shape):
    # the three searches with their priors give what they give with no prior
    # pruning (every prior +inf), on random operators of spectral radius <= 1;
    # an upper triangular T has a nilpotent |off(T)|, where the comparison-matrix
    # rung is finite
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    A += coupling * np.triu(rng.standard_normal((d, d)), 1)
    if shape == "triangular":
        A = np.triu(A)
    rho = np.abs(np.linalg.eigvals(A)).max()
    T = ComplexMatrix(A * (radius / rho if rho > 0 else 1.0))
    cfg = SearchConfig(radial_count=8, angular_count=8, refine_rounds=1, p=p)

    def results():
        k = kreiss_constant(T, cfg)
        return [_fields(k), _fields(strong_kreiss_constant(T, cfg, 8, k_est=k)),
                _fields(exponential_criterion(T, cfg, 10.0))]

    pruned = results()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(resolvent, "_prior_log_bounds", lambda T, p, r, *_: np.full(len(r), np.inf))
        assert pruned == results()


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
def test_overflow_messages_name_the_least_modulus_with_finite_priors_elsewhere(p):
    # the priors are finite at |l| = 1e250, past ||T|| = 1e200, and at every angle
    # of e^{xi I} with Re xi below 709: the points that overflow have no finite
    # prior, so the first take values them all and names the least |l| and |xi|
    N = make_gallery_operator(OperatorSpec("nilpotent", 3, coupling=1e200))
    cfg = SearchConfig(r_max=1e250, radial_count=4, angular_count=4, p=p)
    xs, angles = _grid(cfg)
    X, Tt = np.meshgrid(xs, angles, indexing="ij")
    r = 1.0 + 10.0 ** X.ravel()
    assert np.isfinite(norms._prior_log_bounds(N.entries, p, r, Tt.ravel(), "resolvent")).any()
    for run in (lambda: kreiss_constant(N, cfg), lambda: strong_kreiss_constant(N, cfg, 4)):
        with pytest.raises(OverflowError, match=r"at \|l\| = 1$"):
            run()
    identity = make_gallery_operator(OperatorSpec("identity", 3))
    cfg = SearchConfig(radial_count=8, angular_count=8, p=p)
    moduli = np.repeat(1000.0 * np.arange(9) / 8, 8)
    bounds = norms._prior_log_bounds(identity.entries, p, moduli, np.tile(_grid(cfg)[1], 9),
                                     "exponential")
    assert np.isfinite(bounds[moduli > 709.78]).any() and np.isinf(bounds[moduli > 709.78]).any()
    with pytest.raises(OverflowError, match=r"at \|xi\| = 750$"):
        exponential_criterion(identity, cfg, 1000.0)


def _recorded(monkeypatch, module, name):
    """Record every stack passed to module.name."""
    real, stacks = getattr(module, name), []

    def recorded(mats, *args, **kwargs):
        stacks.append(mats.copy())
        return real(mats, *args, **kwargs)

    monkeypatch.setattr(module, name, recorded)
    return stacks


@pytest.mark.parametrize("name, cfg", [
    ("jordan16_09", SearchConfig(radial_count=16, angular_count=32)),
    ("shift4", SearchConfig()),
])
def test_strong_kreiss_points_leave_the_ledger_after_the_first_step(monkeypatch, name, cfg):
    # a grid sweep as the search runs it: the points whose capped bound is below
    # the floor after the first step skip the ledger's products from then on,
    # and every norm taken is the one a sweep over every point takes
    T = PRUNING_OPERATORS[name]
    xs, angles = _grid(cfg)
    X, Tt = np.meshgrid(xs, angles, indexing="ij")
    args = (T, X.ravel(), Tt.ravel(), 16, cfg.p, cfg.ascent(), np.zeros(1, dtype=int), 5,
            -math.inf)
    steps = ledger_steps(monkeypatch)
    normed = _recorded(monkeypatch, resolvent, "_batched_norm_lower")
    got = _strong_kreiss_sweep(*args)
    dropped, got_normed = steps[0], normed[:]
    steps[0] = 0
    normed = _recorded(monkeypatch, norms, "_batched_norm_lower")  # where the oracle norms
    monkeypatch.setattr(resolvent, "_pruned_sweep", sweep_every_point)
    want = _strong_kreiss_sweep(*args)
    assert 5 * dropped <= steps[0]
    assert len(got_normed) == len(normed)
    assert all(np.array_equal(a, b) for a, b in zip(got_normed, normed))
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_strong_kreiss_sweep_with_every_point_leaving_the_ledger():
    # (l - 0)^{-n} scores n log(1 - 1/r) < 0, which falls with n: after the
    # first step every point's cap is below its floor, and the ledger never
    # runs on an empty stack
    T = make_gallery_operator(OperatorSpec("zero", 2))
    xf, tf = _sweep_points(16)
    want, want_n, _ = _serial_strong_kreiss_sweep(T, xf, tf, 16)
    assert (want_n == 1).all()
    for groups in (np.arange(len(xf)), np.zeros(1, dtype=int)):
        with pytest.MonkeyPatch.context() as mp:
            steps = ledger_steps(mp)
            got, got_n = _strong_kreiss_sweep(T, xf, tf, 16, 2.0, PRUNING_CFG.ascent(), groups, 1,
                                              -math.inf)
        assert steps[0] == len(xf)
        assert np.array_equal(got[got_n > 0], want[got_n > 0]) and (got_n <= 1).all()
        if len(groups) == len(xf):
            assert np.array_equal(got, want) and np.array_equal(got_n, want_n)


def test_pruned_sweep_keeps_a_point_whose_cap_reaches_the_floor_only_at_the_last_n():
    # B scores 1 at n = 1 and -inf after (R_B^2 = 0); A scores 0.1 n, below the
    # floor 1 at n = 2 but not at n = 16, where it holds the group's max
    R = np.zeros((2, 2, 2), dtype=complex)
    R[0, 0, 0], R[1, 0, 1] = math.exp(0.1), math.e

    def score(n, idx, log_scale, norms):
        with np.errstate(divide="ignore"):
            return log_scale + np.log(norms)

    best, best_n = resolvent._pruned_sweep(lambda pts: _power_ledger(R[pts], 16), score, 2.0,
                                           PRUNING_CFG.ascent(), np.zeros(1, dtype=int), 1,
                                           -math.inf, 16)
    assert best[0] == pytest.approx(1.6) and best_n[0] == 16
    assert best[0] > best[1] == pytest.approx(1.0) and best_n[1] == 1


@given(d=st.sampled_from([2, 3]), radius=st.floats(0.0, 1.0), n_max=st.sampled_from([1, 2, 5, 16]),
       seed=st.integers(0, 2**32 - 1))
def test_strong_kreiss_sweep_matches_serial_on_random_operators(d, radius, n_max, seed):
    # every point its own group: every value is exact; one group at top = 5: its
    # first max and five best values, with their n
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = np.abs(np.linalg.eigvals(A)).max()
    T = ComplexMatrix(A * (radius / rho if rho > 0 else 1.0))
    xf, tf = _sweep_points(n_max)
    want, want_n, _ = _serial_strong_kreiss_sweep(T, xf, tf, n_max)
    got, got_n = _strong_kreiss_sweep(T, xf, tf, n_max, 2.0, PRUNING_CFG.ascent(),
                                      np.arange(len(xf)), 1, -math.inf)
    assert np.array_equal(got, want) and np.array_equal(got_n, want_n)
    got, got_n = _strong_kreiss_sweep(T, xf, tf, n_max, 2.0, PRUNING_CFG.ascent(),
                                      np.zeros(1, dtype=int), 5, -math.inf)
    i = int(np.argmax(want))
    assert int(np.argmax(got)) == i and got[i] == want[i] and got_n[i] == want_n[i]
    exact = want >= np.sort(want)[::-1][4]
    assert np.array_equal(got[exact], want[exact]) and np.array_equal(got_n[exact], want_n[exact])


def test_strong_kreiss_sweep_peak_stays_within_four_stacks():
    # R, a power, the next power and the bounds' temporaries: a sweep that kept
    # one more matrix per point between its passes would pass the bound
    J = PRUNING_OPERATORS["jordan16_09"]
    xs, angles = _grid(SearchConfig(radial_count=16, angular_count=32))
    X, Tt = np.meshgrid(xs, angles, indexing="ij")
    tracemalloc.start()
    try:
        _strong_kreiss_sweep(J, X.ravel(), Tt.ravel(), 16, 2.0, AscentConfig(),
                             np.arange(X.size), 1, -math.inf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * X.size * J.dim**2 * 16


@pytest.mark.parametrize("name, n_max, p", [
    (name, n_max, p) for name in sorted(PRUNING_OPERATORS) for n_max in (0, 1, 8, 64)
    for p in (2.0, math.inf)
    if name != "jordan64_09" or n_max <= 1  # 64 x 64 SVDs: the serial loop is slow
] + [(name, n_max, p) for name in GENERAL_P_OPERATORS[:2] for n_max in (0, 8) for p in (1.5, 3.0)])
def test_gz_matches_serial(name, n_max, p):
    T = PRUNING_OPERATORS[name]
    cfg = SearchConfig(radial_count=8, angular_count=8, p=p)
    for ks_ref in (1.0, 2.5):
        est = gz_partial_resolvent_ratio(T, cfg, n_max, ks_ref)
        assert (est.value, est.argmax, est.n_at_max) == _serial_gz(T, cfg, n_max, ks_ref)


# ---------------------------------------------------------------------------
# exponential_criterion
# ---------------------------------------------------------------------------


def test_exp_criterion_zero():
    est = exponential_criterion(make_gallery_operator(OperatorSpec("zero", 2)), FAST, 10.0)
    assert est.value == pytest.approx(1.0, abs=1e-9)


def test_exp_criterion_identity():
    # e^{Re xi - |xi|} <= 1 with equality on the nonnegative real axis
    est = exponential_criterion(make_gallery_operator(OperatorSpec("identity", 2)), FAST, 10.0)
    assert est.value == pytest.approx(1.0, abs=1e-9)


def test_exp_criterion_nilpotent_oracle():
    # e^{xi T} = I + xi T; on the real axis sigma_max = xi + sqrt(xi^2 + 1)
    xis = np.linspace(0.0, 10.0, 4001)
    oracle = float(np.max(np.exp(-xis) * (xis + np.sqrt(xis**2 + 1))))
    est = exponential_criterion(nilpotent2(), FAST, 10.0)
    assert est.value >= oracle - 1e-9
    assert est.value == pytest.approx(1.0, abs=1e-9)


def test_exp_criterion_of_a_jordan_block_one_ulp_off_its_diagonal():
    # the 1-ulp gap left scipy's quotient (e^b - e^a) / (b - a) to cancellation:
    # it read 12.0436193 against 4.06569646 for the equal diagonal
    A = np.array([[0.9, 1.0], [0.0, 0.9]])
    want = exponential_criterion(ComplexMatrix(A), SearchConfig(p=1.0)).value
    A[1, 1] = np.nextafter(0.9, 1.0)
    got = exponential_criterion(ComplexMatrix(A), SearchConfig(p=1.0)).value
    assert got == pytest.approx(want, rel=1e-14) and round(want, 8) == 4.06569646


_EXPM_XIS = [m * np.exp(1j * t) for m in (1e-3, 0.7, 5.0, 40.0, 150.0) for t in (0.0, 2.0, 4.0)]


def _expm_gallery(d, rng):
    """Shuffled stack of diagonal (zero and not), triangular with an equal diagonal
    (upper and lower Jordan) and dense (rotation generator, random) matrices, each
    at a modulus that needs no squaring and at moduli that need several."""
    J = 0.9 * np.eye(d) + np.eye(d, k=1)
    G = rng.standard_normal((d, d))
    C = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / d
    kinds = [np.zeros((d, d)), np.diag(rng.standard_normal(d)), J, J.T,
             (G - G.T) / d,  # skew: e^{t S} is a rotation for real t
             C]
    A = np.array([xi * K for xi in _EXPM_XIS for K in kinds])
    return A[rng.permutation(len(A))]


@pytest.mark.parametrize("d", [1, 2, 5, 16])
def test_expm_stack_matches_scipy_bit_for_bit(d):
    import scipy.linalg

    rng = np.random.default_rng(d)
    A = _expm_gallery(d, rng)
    for stack in (A, A.real.copy()):
        got, ref = resolvent._expm_stack(stack), scipy.linalg.expm(stack)
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert np.array_equal(got.view(np.float64), ref.view(np.float64))


@pytest.mark.parametrize("d", [2, 5, 16])
def test_expm_stack_of_triangular_matrices_with_distinct_diagonals_matches_mpmath(d):
    # a random upper triangle and, at d = 2, a Jordan block whose diagonal
    # entries are one ulp apart, where scipy's quotient (e^b - e^a) / (b - a)
    # cancels (it is 6% off at xi = 5), and the transposes of both.  The oracle
    # needs distinct diagonal entries, which rounding xi times an entry may
    # undo, and loses about 16 of its 50 digits per ulp-close pair it divides by
    pytest.importorskip("mpmath")
    rng = np.random.default_rng(d)
    uppers = [np.triu(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / d]
    if d == 2:
        uppers.append(np.array([[0.9, 1.0], [0.0, np.nextafter(0.9, 1.0)]]))
    A = np.array([xi * K for xi in _EXPM_XIS for K in uppers])
    for stack in (A, A.real.copy()):
        diag = np.diagonal(stack, 0, 1, 2)
        stack = stack[[len(np.unique(row)) == d for row in diag]]
        assert len(stack) >= len(A) * 3 // 4
        want = np.array([expm_upper_triangular_mp(a) for a in stack])
        for got, ref in ((resolvent._expm_stack(stack), want),
                         (resolvent._expm_stack(stack.transpose(0, 2, 1).copy()),
                          want.transpose(0, 2, 1))):
            err = np.linalg.norm(got - ref, axis=(1, 2)) / np.linalg.norm(ref, axis=(1, 2))
            assert err.max() <= 1e-12


# ---------------------------------------------------------------------------
# cesaro partial sums
# ---------------------------------------------------------------------------


def test_cesaro_identity_ratio():
    T = make_gallery_operator(OperatorSpec("identity", 2))
    res = cesaro_partial_sum_bound(T, SearchConfig(angular_count=8), 50)
    # ||sum_{k<=n} I|| = n + 1 at lambda = 1, so the value is exactly 1
    assert res.value == pytest.approx(1.0)


def test_cesaro_zero_max_at_n0():
    T = make_gallery_operator(OperatorSpec("zero", 2))
    res = cesaro_partial_sum_bound(T, SearchConfig(angular_count=8), 20)
    assert res.value == pytest.approx(1.0)
    assert res.n_at_max == 0


def test_cesaro_minus_one_resonance():
    # T = diag(-1): at lambda = -1 the summands are all +1, so the value
    # stays at its n = 0 value 1 for every n (sustained resonance)
    T = ComplexMatrix([[-1.0]])
    res = cesaro_partial_sum_bound(T, SearchConfig(angular_count=8), 64)
    assert res.value == pytest.approx(1.0)
    for n in (1, 7, 64):
        resonant = sum((-1.0) ** k * (-1.0) ** k for k in range(n + 1))
        assert resonant / (n + 1) == pytest.approx(1.0)


def test_gz_ratio_informational():
    T = make_gallery_operator(OperatorSpec("identity", 2))
    est = gz_partial_resolvent_ratio(T, FAST, 16, 1.0)
    assert math.isfinite(est.value) and est.value > 0


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def test_functionals_at_least_one_on_contractive_gallery(gallery_matrices):
    for name, T in gallery_matrices.items():
        if T.spectral_radius() > 1 + 1e-9:
            continue
        k = kreiss_constant(T, FAST)
        ks = strong_kreiss_constant(T, FAST, 8, k_est=k).value
        values = {
            "k_lower": k.value,
            "ks_lower": ks,
            "exp_lower": exponential_criterion(T, FAST, 10.0).value,
            "cesaro_lower": cesaro_partial_sum_bound(T, FAST, 32).value,
        }
        for key, value in values.items():
            assert value >= 1 - 1e-6, (name, key)


def test_power_bound_consistency(gallery_matrices):
    # Neumann argument: K <= sup_{n >= 0} ||T^n||, so the searched lower bound
    # cannot exceed an observed power bound
    for entry in gallery():
        if not entry.power_bounded:
            continue
        T = gallery_matrices[entry.name]
        _, upper = power_norm_sequence(T, 2.0, 10_000)
        ceiling = max(1.0, float(upper.max()))
        k = kreiss_constant(T, SearchConfig())
        assert k.value <= ceiling + 1e-6, entry.name


def test_refinement_monotonicity(gallery_matrices):
    base = SearchConfig(radial_count=16, angular_count=16, refine_rounds=2)
    dense = SearchConfig(radial_count=32, angular_count=32, refine_rounds=2)
    for name in ("identity3", "nilpotent2", "jordan2_damped", "rotation3"):
        T = gallery_matrices[name]
        assert kreiss_constant(T, dense).value >= kreiss_constant(T, base).value - 1e-12
        assert (
            strong_kreiss_constant(T, dense, 8).value
            >= strong_kreiss_constant(T, base, 8).value - 1e-12
        )


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(r_max=1.0)
    with pytest.raises(ValueError):
        SearchConfig(radial_count=2)
    with pytest.raises(ValueError):
        SearchConfig(refine_rounds=-1)


# ---------------------------------------------------------------------------
# the shared grid-and-refine search against the per-functional flow it replaced
# ---------------------------------------------------------------------------


def _ref_refine_2d(eval_fn, seeds, half_width, rounds, shrink, bounds_x):
    best = -math.inf
    best_xt = seeds[0] if seeds else (0.0, 0.0)
    offs = np.linspace(-1.0, 1.0, 9)
    for x0, t0 in seeds:
        cx, ct, wx, wt = x0, t0, half_width[0], half_width[1]
        for _ in range(rounds):
            xs = np.clip(cx + wx * offs, bounds_x[0], bounds_x[1])
            ts = ct + wt * offs
            X, Tt = np.meshgrid(xs, ts, indexing="ij")
            vals = eval_fn(X.ravel(), Tt.ravel())
            i = int(np.argmax(vals))
            if float(vals[i]) > best:
                best = float(vals[i])
                best_xt = (float(X.ravel()[i]), float(Tt.ravel()[i]))
            cx, ct = float(X.ravel()[i]), float(Tt.ravel()[i])
            wx, wt = wx * shrink, wt * shrink
    return best, best_xt


def _ref_search(evaluate, xf, tf, vals, hw_x, bounds, cfg):
    """Grid argmax, then refinement from the top five seeds when it is strictly larger."""
    i = int(np.argmax(vals))
    best, best_xt, refined = float(vals[i]), (float(xf[i]), float(tf[i])), False
    if cfg.refine_rounds > 0:
        seeds = [(float(xf[j]), float(tf[j]))
                 for j in np.argsort(vals, kind="stable")[::-1][:5]]
        hw = (hw_x, 2 * np.pi / cfg.angular_count)
        rbest, rxt = _ref_refine_2d(evaluate, seeds, hw, cfg.refine_rounds,
                                    resolvent._REFINE_SHRINK, bounds)
        if rbest > best:
            best, best_xt, refined = rbest, rxt, True
    return best, best_xt, i, refined


def _ref_mesh(xs, cfg):
    angles = 2.0 * np.pi * np.arange(cfg.angular_count) / cfg.angular_count
    X, Tt = np.meshgrid(xs, angles, indexing="ij")
    return X.ravel(), Tt.ravel()


def _ref_xs(cfg):
    lo, hi = math.log10(1e-8), math.log10(cfg.r_max - 1.0)
    return lo + (hi - lo) * np.arange(cfg.radial_count + 1) / cfg.radial_count


def _ref_lambda(xt):
    return (1.0 + 10.0 ** xt[0]) * complex(math.cos(xt[1]), math.sin(xt[1]))


def _ref_kreiss(T, cfg):
    acfg = cfg.ascent()

    def evaluate(xflat, tflat):
        r = 1.0 + 10.0 ** xflat
        A = (r * np.exp(1j * tflat))[:, None, None] * np.eye(T.dim) - T.entries
        if cfg.p == 2:
            smin = np.linalg.svd(A, compute_uv=False)[:, -1]
            with np.errstate(divide="ignore"):
                return np.where(smin > 0, (r - 1.0) / np.where(smin == 0, 1, smin), np.inf)
        return (r - 1.0) * norms._batched_norm_lower(np.linalg.inv(A), cfg.p, acfg)

    xs = _ref_xs(cfg)
    xf, tf = _ref_mesh(xs, cfg)
    best, xt, _, _ = _ref_search(evaluate, xf, tf, evaluate(xf, tf),
                                 (xs[-1] - xs[0]) / cfg.radial_count, (xs[0], xs[-1]), cfg)
    if best >= 1.0:
        return FunctionalEstimate(best, _ref_lambda(xt))
    return FunctionalEstimate(1.0, None)


def _ref_strong_kreiss(T, cfg, n_max, k):
    """The n of a refined argmax comes from a second one-point sweep there.  Every
    point is a group of its own, so every point's value is exact."""
    acfg = cfg.ascent()

    def sweep(xflat, tflat):
        return _strong_kreiss_sweep(T, xflat, tflat, n_max, cfg.p, acfg, np.arange(len(xflat)), 1,
                                    -math.inf)

    xs = _ref_xs(cfg)
    xf, tf = _ref_mesh(xs, cfg)
    logs, ns = sweep(xf, tf)
    best, xt, i, refined = _ref_search(lambda a, b: sweep(a, b)[0], xf, tf, logs,
                                       (xs[-1] - xs[0]) / cfg.radial_count, (xs[0], xs[-1]), cfg)
    n = int(sweep(np.array([xt[0]]), np.array([xt[1]]))[1][0]) if refined else int(ns[i])
    candidates = [(best, _ref_lambda(xt), n), (math.log(k.value), k.argmax, 1), (0.0, None, None)]
    log_val, argmax, n_at = max(candidates, key=lambda c: c[0])
    value = math.exp(log_val) if log_val < 709.0 else math.inf
    return FunctionalEstimate(value, argmax, n_at_max=n_at)


def _ref_exponential(T, cfg, xi_max):
    import scipy.linalg

    acfg = cfg.ascent()

    def evaluate(mflat, tflat):
        m = np.clip(mflat, 0.0, None)
        E = scipy.linalg.expm((m * np.exp(1j * tflat))[:, None, None] * T.entries)
        nl = norms._batched_norm_lower(E, cfg.p, acfg)
        return np.exp(np.log(np.maximum(nl, 1e-300)) - m)

    xf, tf = _ref_mesh(xi_max * np.arange(cfg.radial_count + 1) / cfg.radial_count, cfg)
    best, mt, _, _ = _ref_search(evaluate, xf, tf, evaluate(xf, tf), xi_max / cfg.radial_count,
                                 (0.0, xi_max), cfg)
    return FunctionalEstimate(best, mt[0] * complex(math.cos(mt[1]), math.sin(mt[1])))


def _fields(est):
    return (est.value, est.argmax, est.n_at_max)


def test_search_seeds_exact_ties_in_stable_order():
    # Among equal grid values the later grid point seeds first: numpy's default
    # sort is not stable, and the seed order decides which of two equal refined
    # maxima is reported.
    cfg = SearchConfig(radial_count=16, angular_count=16, refine_rounds=1)
    xs = np.arange(17.0)
    calls = []

    def evaluate(xf, tf, *groups):
        calls.append((xf, tf))
        if len(calls) == 1:
            return np.floor(3 * np.sin(xf) * np.cos(tf)), None  # many exact ties
        return np.zeros(len(xf)), None

    resolvent._search(evaluate, lambda xf, tf: np.full(len(xf), np.inf), xs, 1.0, (-100.0, 100.0),
                      cfg)
    (xf, tf), refined = calls[0], calls[1:]
    vals = np.floor(3 * np.sin(xf) * np.cos(tf))
    seeds = sorted(range(len(xf)), key=lambda j: (vals[j], j), reverse=True)[:5]
    x = np.concatenate([c[0] for c in refined]).reshape(5, 9, 9)[:, 4, 0]
    t = np.concatenate([c[1] for c in refined]).reshape(5, 9, 9)[:, 0, 4]
    assert x.tolist() == xf[seeds].tolist() and t.tolist() == tf[seeds].tolist()


@pytest.fixture(scope="module")
def norm_store():
    """The stacks normed so far in this module, by (shape, stack bytes, p, config)."""
    return {}


@pytest.fixture
def shared_norms(monkeypatch, norm_store):
    """Norm each distinct stack once: the search and its oracle meet the same stacks
    wherever they agree, as do the cases that share a grid (the [p-0] and [p-2]
    flow cases), and a stack that differs is normed afresh."""
    real, seen = norms._batched_norm_lower, norm_store

    def lower(mats, p, acfg):
        key = (mats.shape, mats.tobytes(), p, acfg)
        if key not in seen:
            seen[key] = real(mats, p, acfg)
        return seen[key].copy()

    for module in (norms, resolvent):  # the oracles norm through norms, the search
        monkeypatch.setattr(module, "_batched_norm_lower", lower)  # through its import


# the search norms only the grid points that can reach the five seeds; the flow
# it replaced norms every point
@pytest.mark.parametrize("rounds", [0, 2])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.0, math.inf])
def test_search_matches_per_functional_flow(p, rounds, shared_norms, gallery_matrices):
    cfg = SearchConfig(radial_count=8, angular_count=8, refine_rounds=rounds, p=p)
    for name, T in gallery_matrices.items():
        if T.spectral_radius() <= 1 + 1e-9:
            _assert_search_matches_flow(T, cfg, name)


def test_search_matches_per_functional_flow_on_the_default_grid(shared_norms, gallery_matrices):
    # two of the five seeds are conjugate points with equal values
    _assert_search_matches_flow(gallery_matrices["jordan2_damped"], SearchConfig(),
                                "jordan2_damped")


def test_search_matches_per_functional_flow_on_the_default_grid_at_p3(shared_norms,
                                                                      gallery_matrices):
    _assert_search_matches_flow(gallery_matrices["jordan2_damped"], SearchConfig(p=3.0),
                                "jordan2_damped")


def test_search_matches_per_functional_flow_on_the_default_grid_at_pinf(shared_norms,
                                                                        gallery_matrices):
    # exp-criterion's search norms only the points that can reach its five seeds
    _assert_search_matches_flow(gallery_matrices["jordan2_damped"], SearchConfig(p=math.inf),
                                "jordan2_damped")


def test_kreiss_search_norms_under_half_the_grid(monkeypatch, gallery_matrices):
    # the certified upper bounds put most of the default grid below the fifth-best value
    T, cfg = gallery_matrices["jordan2_damped"], SearchConfig(p=3.0)
    ascents = _counted(monkeypatch, norms, "ascent_lower_bounds")
    k = kreiss_constant(T, cfg)
    pruned, ascents[0] = ascents[0], 0
    assert _fields(k) == _fields(_ref_kreiss(T, cfg))
    assert pruned < ascents[0] / 2


def _assert_search_matches_flow(T, cfg, name):
    k, k_ref = kreiss_constant(T, cfg), _ref_kreiss(T, cfg)
    assert _fields(k) == _fields(k_ref), name
    assert (_fields(strong_kreiss_constant(T, cfg, 3, k_est=k))
            == _fields(_ref_strong_kreiss(T, cfg, 3, k_ref))), name
    assert (_fields(exponential_criterion(T, cfg, 5.0))
            == _fields(_ref_exponential(T, cfg, 5.0))), name
