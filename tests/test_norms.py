import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kreisslab import norms
from kreisslab.norms import (
    AscentConfig,
    NormBounds,
    ascent_lower_bounds,
    operator_p_norm,
    power_norm_sequence,
    vector_p_norm,
)
from kreisslab.operators import (
    ComplexMatrix,
    OperatorSpec,
    gallery,
    gallery_entry,
    make_gallery_operator,
)


def test_vector_norm_pythagorean():
    assert vector_p_norm([3, 4], 2) == pytest.approx(5.0)


def test_vector_norm_one():
    assert vector_p_norm([1, 1, 1], 1) == pytest.approx(3.0)


def test_vector_norm_inf():
    assert vector_p_norm([2, -5], math.inf) == pytest.approx(5.0)


def test_vector_norm_rejects_small_p():
    with pytest.raises(ValueError):
        vector_p_norm([1.0], 0.5)


def test_vector_norm_large_p_no_overflow():
    v = np.array([1e200, 1e200])
    assert math.isfinite(vector_p_norm(v, 64))


@given(st.integers(0, 2**32 - 1), st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf]))
def test_vector_norm_triangle_inequality(seed, p):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    assert vector_p_norm(u + v, p) <= vector_p_norm(u, p) + vector_p_norm(v, p) + 1e-12


def test_operator_norm_inf_row_sum():
    T = ComplexMatrix([[1, 1], [0, 1]])
    b = operator_p_norm(T, math.inf)
    assert b.lower == b.upper == pytest.approx(2.0)


def test_operator_norm_identity_any_p():
    T = make_gallery_operator(OperatorSpec("identity", 4))
    for p in (1.0, 1.5, 2.0, 3.0, math.inf):
        b = operator_p_norm(T, p)
        assert b.lower == pytest.approx(1.0, rel=1e-9)
        assert b.upper == pytest.approx(1.0, rel=1e-9)


def test_operator_norm_nilpotent_svd_oracle():
    # explicit 2x2 SVD: singular values of [[0,2],[0,0]] are {2, 0}
    T = ComplexMatrix([[0, 2], [0, 0]])
    b = operator_p_norm(T, 2.0)
    assert b.lower == b.upper == pytest.approx(2.0)


def test_operator_norm_zero_matrix():
    T = make_gallery_operator(OperatorSpec("zero", 3))
    for p in (1.0, 2.0, 2.5, math.inf):
        b = operator_p_norm(T, p)
        assert b.lower == 0.0 and b.upper == 0.0


def test_witness_reproduces_lower():
    rng = np.random.default_rng(7)
    for p in (1.0, 2.0, 3.0, math.inf):
        A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        b = operator_p_norm(ComplexMatrix(A), p)
        ratio = vector_p_norm(A @ b.witness, p) / vector_p_norm(b.witness, p)
        assert ratio == pytest.approx(b.lower, rel=1e-12)


def test_random_matrices_bound_ordering():
    rng = np.random.default_rng(123)
    for _ in range(20):
        A = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        T = ComplexMatrix(A)
        for p in (1.0, 1.5, 2.0, 3.0, math.inf):
            b = operator_p_norm(T, p, AscentConfig(restarts=12, max_steps=200, seed=3))
            assert b.lower <= b.upper * (1 + 1e-12)
            if p in (1.0, 2.0, math.inf):
                assert b.lower == b.upper


def _one_ascent(A, p, cfg):
    # the ascent on a one-matrix stack: (value, witness)
    values, witnesses = ascent_lower_bounds(ComplexMatrix(A).entries[None], p, cfg)
    return float(values[0]), witnesses[0]


def test_ascent_matches_svd_on_seeded_corpus():
    # sanity of the ascent engine: p=2 against the exact singular value
    rng = np.random.default_rng(42)
    for i in range(100):
        A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        sv = float(np.linalg.svd(A, compute_uv=False)[0])
        est, witness = _one_ascent(A, 2.0, AscentConfig(seed=i))
        assert abs(est - sv) / sv < 1e-6
        assert vector_p_norm(witness, 2.0) == pytest.approx(1.0, rel=1e-9)


def test_ascent_deterministic_given_seed():
    A = np.random.default_rng(5).standard_normal((4, 4))
    cfg = AscentConfig(seed=99)
    v1, w1 = _one_ascent(A, 2.5, cfg)
    v2, w2 = _one_ascent(A, 2.5, cfg)
    assert v1 == v2
    assert np.array_equal(w1, w2)


def test_power_sequence_jordan_closed_form():
    T = ComplexMatrix([[1, 1], [0, 1]])
    lower, upper = power_norm_sequence(T, math.inf, 5)
    # T^n = [[1, n], [0, 1]], row sum n + 1
    assert lower.tolist() == upper.tolist() == [2, 3, 4, 5, 6]


def test_power_sequence_zero():
    T = make_gallery_operator(OperatorSpec("zero", 2))
    lower, upper = power_norm_sequence(T, 2.0, 4)
    assert lower.tolist() == upper.tolist() == [0.0] * 4


def test_power_sequence_rotation_isometry():
    T = make_gallery_operator(OperatorSpec("rotation", 1, angles=0.3))
    lower, _ = power_norm_sequence(T, 2.0, 50)
    assert lower == pytest.approx(np.ones(50), rel=1e-12)


def test_power_sequence_scale_ledger():
    # 10^n growth forces renormalization through the 1e100 guard
    T = make_gallery_operator(OperatorSpec("scalar", 2, scale=10.0))
    lower, _ = power_norm_sequence(T, 2.0, 150)
    assert lower[-1] == pytest.approx(1e150, rel=1e-10)


def test_power_sequence_keeps_a_norm_past_e709():
    # the ledger holds 1.2e308 as e^709.4 M: still a float, not inf
    T = ComplexMatrix([[1.2e308]])
    for p in (2.0, 3.0):
        (lower,), (upper,) = power_norm_sequence(T, p, 1)
        assert lower == pytest.approx(operator_p_norm(T, 2.0).lower, rel=1e-12)
        assert upper == pytest.approx(1.2e308, rel=1e-12)


def test_power_sequence_requires_positive_n():
    T = make_gallery_operator(OperatorSpec("identity", 2))
    with pytest.raises(ValueError):
        power_norm_sequence(T, 2.0, 0)


@pytest.mark.parametrize("p", [2.0, 3.0, math.inf])
def test_submultiplicativity_of_upper_bounds(p):
    cfg = AscentConfig(restarts=8, max_steps=120, seed=1)
    for entry in gallery():
        T = make_gallery_operator(entry.spec)
        ub = {}
        M = np.eye(T.dim, dtype=complex)
        for n in range(1, 65):
            M = T.entries @ M
            ub[n] = operator_p_norm(ComplexMatrix(M), p, cfg).upper
        for m in range(1, 33):
            for n in range(1, 65 - m):
                assert ub[m + n] <= ub[m] * ub[n] * (1 + 1e-9) + 1e-300


# --- the stack ascent against the serial loop it replaced -----------------


def _serial_pnorm_cols(X, p):
    a = np.abs(X)
    m = a.max(axis=0)
    safe = np.where(m == 0.0, 1.0, m)
    return m * np.sum((a / safe) ** p, axis=0) ** (1.0 / p)


def _serial_phase(Y):
    a = np.abs(Y)
    return np.where(a > 0, Y / np.where(a == 0, 1.0, a), 0.0)


def _serial_ascent(A, p, cfg):
    """Reference: the one-matrix ascent loop, kept verbatim as an oracle."""
    d = A.shape[0]
    rng = np.random.default_rng(cfg.seed)
    X = rng.standard_normal((d, cfg.restarts)) + 1j * rng.standard_normal((d, cfg.restarts))
    X /= _serial_pnorm_cols(X, p)
    f = _serial_pnorm_cols(A @ X, p)
    step = np.full(cfg.restarts, 0.5)
    stall = 0
    for _ in range(cfg.max_steps):
        Y = A @ X
        W = np.abs(Y) ** (p - 1) * _serial_phase(Y)
        G = A.conj().T @ W
        gn = np.sqrt(np.sum(np.abs(G) ** 2, axis=0))
        G = np.where(gn > 0, G / np.where(gn == 0, 1.0, gn), 0.0)
        Xp = X + step * G
        nrm = _serial_pnorm_cols(Xp, p)
        nrm = np.where(nrm == 0.0, 1.0, nrm)
        Xp = Xp / nrm
        fp = _serial_pnorm_cols(A @ Xp, p)
        accept = fp > f
        gain = np.where(accept, (fp - f) / np.maximum(f, 1e-300), 0.0)
        X = np.where(accept, Xp, X)
        f = np.where(accept, fp, f)
        step = np.where(accept, np.minimum(step * 1.5, 1.0), step * 0.5)
        if float(gain.max()) < cfg.rel_tol:
            stall += 1
            if stall >= 6 or float(step.max()) < 1e-14:
                break
        else:
            stall = 0
    i = int(np.argmax(f))
    return float(f[i]), X[:, i].copy()


def _mixed_stack(d=4):
    # matrices that stop at different steps: at once (zero), after the stall
    # window (scalar identity), slowly (Jordan block) and in between (random)
    rng = np.random.default_rng(11)
    jordan = np.eye(d, k=1) + 0.9 * np.eye(d)
    mats = [np.zeros((d, d)), 2.5 * np.eye(d), jordan]
    mats += [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for _ in range(5)]
    return np.array(mats, dtype=complex)


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("p", [1.5, 3.0])
def test_stack_ascent_bit_equal_to_serial_loop(p, seed):
    mats = _mixed_stack()
    for cfg in (AscentConfig(seed=seed), AscentConfig(restarts=8, max_steps=150, rel_tol=1e-9, seed=seed)):
        values, witnesses = ascent_lower_bounds(mats, p, cfg)
        for M, v, w in zip(mats, values, witnesses):
            ref_v, ref_w = _serial_ascent(M, p, cfg)
            assert np.array_equal(v, ref_v)
            assert np.array_equal(w, ref_w)
        # B = 1 is the same kernel
        v1, w1 = _one_ascent(mats[2], p, cfg)
        assert np.array_equal(v1, values[2]) and np.array_equal(w1, witnesses[2])


def test_stack_ascent_rejects_non_finite():
    mats = _mixed_stack()
    mats[3, 0, 0] = np.nan
    with pytest.raises(ValueError):
        ascent_lower_bounds(mats, 3.0)


def test_stack_ascent_rejects_p_inf():
    # the package takes exact row sums at p = inf, so the ascent has no p = inf path
    with pytest.raises(ValueError, match=r"p must lie in \[1, inf\), got inf"):
        ascent_lower_bounds(_mixed_stack(), math.inf)


def test_power_sequence_matches_per_power_norms():
    T = make_gallery_operator(gallery_entry("jordan2").spec)
    lower, upper = power_norm_sequence(T, 3.0, 64)
    M = np.eye(2, dtype=complex)
    for lo, up in zip(lower.tolist(), upper.tolist()):
        M = T.entries @ M
        ref = operator_p_norm(ComplexMatrix(M), 3.0)
        assert (lo, up) == (ref.lower, ref.upper)


def _serial_exact_norm(A, p):
    """||A||_p for p in {1, 2, inf} on one matrix: the per-power oracle."""
    if p == 2:
        _, s, Vh = np.linalg.svd(A)
        return NormBounds(float(s[0]), float(s[0]), Vh[0].conj())
    sums = np.sum(np.abs(A), axis=1 if math.isinf(p) else 0)
    i = int(np.argmax(sums))
    if math.isinf(p):
        a = np.abs(A[i])
        w = np.where(a > 0, np.conj(_serial_phase(A[i])), 1.0)
    else:
        w = np.zeros(A.shape[0], dtype=complex)
        w[i] = 1.0
    return NormBounds(float(sums[i]), float(sums[i]), w)


def _serial_interpolation_bounds(A, p, lower, witness):
    n1 = float(np.max(np.sum(np.abs(A), axis=0)))
    ninf = float(np.max(np.sum(np.abs(A), axis=1)))
    sigma = float(np.linalg.svd(A, compute_uv=False)[0])
    upper = min(n1 ** (1.0 / p) * ninf ** (1.0 - 1.0 / p),
                A.shape[0] ** abs(0.5 - 1.0 / p) * sigma)
    return NormBounds(min(lower, upper), upper, witness)


def _serial_scaled_powers(A, n_max):
    """Reference: the one-matrix power ledger, kept verbatim as an oracle.

    Yields (M, log_scale) with A^n = e^log_scale M for n = 1..n_max.
    """
    M = np.eye(A.shape[0], dtype=complex)
    log_scale = 0.0
    for _ in range(n_max):
        M = A @ M
        peak = float(np.max(np.abs(M)))
        if peak > 0.0 and not (1e-100 < peak < 1e100):
            M = M / peak
            log_scale += math.log(peak)
            if not math.isfinite(log_scale):
                raise OverflowError("power scale ledger left the representable range")
        yield M, log_scale


def _ledger_stack():
    # peaks above 1e100 (10 I), below 1e-100 (I / 10), at 0 (nilpotent2) and
    # below 1e-100 after a transient (jordan2_damped, near n = 2190)
    specs = [OperatorSpec("scalar", 2, scale=10.0), OperatorSpec("scalar", 2, scale=0.1),
             gallery_entry("nilpotent2").spec, gallery_entry("jordan2_damped").spec]
    return np.array([make_gallery_operator(s).entries for s in specs])


def _ledger_run(stack, n_max):
    """(ns, M, log_scale) of every step of the stack ledger, stacked along axis 0."""
    steps = [(n, M.copy(), s.copy()) for n, M, s in norms._power_ledger(stack, n_max)]
    return tuple(np.array(col) for col in zip(*steps))


def test_power_ledger_stack_matches_stack_of_one_and_serial():
    stack, n_max = _ledger_stack(), 2400
    ns, Ms, scales = _ledger_run(stack, n_max)
    assert np.array_equal(ns, np.arange(1, n_max + 1))
    for b, A in enumerate(stack):
        _, Ms1, scales1 = _ledger_run(A[None], n_max)
        ref_M, ref_s = (np.array(col) for col in zip(*_serial_scaled_powers(A, n_max)))
        assert np.array_equal(Ms[:, b], Ms1[:, 0]) and np.array_equal(Ms[:, b], ref_M)
        assert np.array_equal(scales[:, b], scales1[:, 0])
        assert np.array_equal(scales[:, b], ref_s)
    # every ledger case is reached: rescales up, down, never (T^2 = 0), late
    assert scales[-1, 0] > 0 > scales[-1, 1] and scales[-1, 2] == 0.0
    assert scales[2000, 3] == 0.0 > scales[-1, 3]


def _serial_power_norms(T, p, n_max, cfg):
    """One norm call per scaled power, rescaled by its ledger entry."""
    powers = list(_serial_scaled_powers(T.entries, n_max))
    if p in (1.0, 2.0, math.inf):
        scaled = [(_serial_exact_norm(M, p), s) for M, s in powers]
    else:
        out = [_one_ascent(M, p, cfg) for M, _ in powers]
        scaled = [(_serial_interpolation_bounds(M, p, lo, w), s)
                  for (M, s), (lo, w) in zip(powers, out)]
    return [NormBounds(norms._rescale(b.lower, s), norms._rescale(b.upper, s), b.witness)
            for b, s in scaled]


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
def test_power_stack_matches_per_power_norms(p, monkeypatch):
    # 16 x 16 entries per block: n_max crosses block boundaries at d = 2 and 4
    monkeypatch.setattr(norms, "_POWER_CHUNK", 64)
    cfg = AscentConfig(restarts=4, max_steps=60, seed=2)
    ops = [make_gallery_operator(e.spec) for e in gallery()]
    ops.append(make_gallery_operator(OperatorSpec("jordan", 16, eigenvalue=0.9)))
    for T in ops:
        n_max = 9 if p == 3.0 else 40
        lower, upper = power_norm_sequence(T, p, n_max, cfg)
        want = _serial_power_norms(T, p, n_max, cfg)
        assert len(lower) == len(upper) == len(want) == n_max
        assert np.array_equal(lower, [ref.lower for ref in want])
        assert np.array_equal(upper, [ref.upper for ref in want])
        one = operator_p_norm(T, p, cfg)
        assert (one.lower, one.upper) == (want[0].lower, want[0].upper)
        assert np.array_equal(one.witness, want[0].witness)


@pytest.mark.parametrize("bad_upper", [-1.0, math.nan])
def test_stack_bounds_out_of_order_raise(bad_upper, monkeypatch):
    # an upper bound below the ascent value (negative) or NaN fails the order check
    monkeypatch.setattr(norms, "_interpolation_uppers",
                        lambda M, p: [bad_upper] * len(M))
    T = make_gallery_operator(gallery_entry("jordan2").spec)
    cfg = AscentConfig(restarts=2, max_steps=5)
    with pytest.raises(ValueError, match="bounds out of order"):
        power_norm_sequence(T, 3.0, 4, cfg)
    with pytest.raises(ValueError, match="bounds out of order"):
        operator_p_norm(T, 3.0, cfg)


@pytest.mark.parametrize("p", [3.0, 4.0, 600, 1e4, 1e12, 1e308])
def test_stack_ascent_scales_exactly_past_gradient_overflow(p):
    # At these p every ascent step commutes with scaling the matrix by 2^k, so
    # the value scales by 2^k and the witness stays put.  The larger k take the
    # peak entry past the point where the gradient's squared norm overflowed
    # and the ascent stalled at its seeded start (k = 400 at p = 3, 160 at
    # p = 4); the smaller ones run unscaled, as before.  At p = 1e4 and 1e308
    # the threshold is below 1/d, and every nonzero matrix of the stack runs
    # scaled down to it at every k (the square overflowed there).
    # At p = 600 and 1e12 the shift alone keeps the direction's a^(p-1) finite.
    mats = _mixed_stack()
    cfg = AscentConfig(restarts=8, max_steps=150, rel_tol=1e-9)
    values, witnesses = ascent_lower_bounds(mats, p, cfg)
    for k in (100, 160, 400, 600):
        got_v, got_w = ascent_lower_bounds(mats * 2.0**k, p, cfg)
        assert np.array_equal(got_v, values * 2.0**k)
        assert np.array_equal(got_w, witnesses)


# ---------------------------------------------------------------------------
# the a priori bounds that prune resolvent's search points before their
# matrices are built, and the pruning rule that reads them
# ---------------------------------------------------------------------------

PRIOR_P = [1.0, 1.5, 2.0, 3.0, math.inf]
PRIOR_ACFG = AscentConfig(restarts=8, max_steps=150, rel_tol=1e-9)


PRIOR_SHAPES = ["dense", "triangular", "bidiagonal"]


def _unit_radius_operator(seed, d, density, coupling, shape="dense"):
    """A random operator of spectral radius 1 (0 if nilpotent) plus coupling times
    a strictly upper triangular part, which makes it far from normal.  Its upper
    triangle or, with a constant diagonal, its upper bidiagonal band give the
    priors' comparison-matrix rungs a nilpotent |off(T)|, where they are
    finite near the spectrum too."""
    rng = np.random.default_rng(seed)
    A = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) * (rng.random((d, d))
                                                                           < density)
    A += coupling * np.triu(rng.standard_normal((d, d)), 1)
    if shape == "triangular":
        A = np.triu(A)
    elif shape == "bidiagonal":
        A = A[0, 0] * np.eye(d) + np.diag(np.diagonal(A, 1), 1)
    rho = np.abs(np.linalg.eigvals(A)).max()
    return A / rho if rho > 1e-12 else A, rng


def _computed_value(M, p):
    """log of what the search values: 1/sigma_min of l - T at p = 2, the norm (exact
    at 1 and inf, the ascent's floor elsewhere) of the computed matrix otherwise;
    nan where the computed matrix is not finite."""
    with np.errstate(all="ignore"):
        if not np.isfinite(M).all():
            return math.nan
        return math.log(norms._batched_norm_lower(M[None], p, PRIOR_ACFG)[0])


@given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([1, 2, 3, 5]),
       p=st.sampled_from(PRIOR_P), density=st.floats(0.2, 1.0),
       coupling=st.sampled_from([0.0, 1.0, 30.0]), log10_gap=st.floats(-14.0, 3.0),
       shape=st.sampled_from(PRIOR_SHAPES))
def test_resolvent_prior_bounds_the_computed_value(seed, d, p, density, coupling, log10_gap,
                                                   shape):
    # at l = (1 + gap) e for an eigenvalue e of modulus 1 (near-singular l - T at a
    # small gap) and at a random point of the same |l|: the prior is +inf or at
    # least (|l| - 1) / sigma_min(l - T) (p = 2) or (|l| - 1) times the computed
    # resolvent's norm (exact at 1 and inf, the ascent floor elsewhere)
    from kreisslab import resolvent

    T, rng = _unit_radius_operator(seed, d, density, coupling, shape)
    e = np.linalg.eigvals(T)
    e = e[np.argmax(np.abs(e))]
    lam = np.array([e * (1.0 + 10.0 ** log10_gap) if abs(e) > 0.5 else 1.0 + 10.0 ** log10_gap,
                    (1.0 + 10.0 ** log10_gap) * np.exp(2j * np.pi * rng.random())])
    r, t = np.abs(lam), np.angle(lam)
    r = np.maximum(r, 1.0 + 1e-15)
    prior = (r - 1.0) * np.exp(norms._prior_log_bounds(T, p, r, t, "resolvent"))
    _, A = resolvent._resolvents(ComplexMatrix(T), np.log10(r - 1.0), t, False)
    for k in range(len(r)):
        if p == 2:
            with np.errstate(divide="ignore"):
                value = (r[k] - 1.0) / norms._smallest_singular_values(A[k:k + 1])[0]
        else:
            try:
                value = (r[k] - 1.0) * math.exp(_computed_value(np.linalg.inv(A[k]), p))
            except (np.linalg.LinAlgError, OverflowError):
                value = math.inf
        assert value <= prior[k] or prior[k] == math.inf, (k, value, prior[k])


@given(seed=st.integers(0, 2**32 - 1), d=st.sampled_from([1, 2, 3, 5]),
       p=st.sampled_from(PRIOR_P), density=st.floats(0.2, 1.0),
       coupling=st.sampled_from([0.0, 1.0, 30.0]), modulus=st.floats(0.0, 60.0),
       angle=st.floats(0.0, 2 * math.pi), shape=st.sampled_from(PRIOR_SHAPES))
def test_exponential_prior_bounds_the_computed_value(seed, d, p, density, coupling, modulus,
                                                     angle, shape):
    # ||e^{xi T}|| of the search's own stacked expm is at most e^{prior}, at every p:
    # exact norms at 1, 2 and inf, the ascent floor elsewhere
    from kreisslab import resolvent

    T, _ = _unit_radius_operator(seed, d, density, coupling, shape)
    m, t = np.array([modulus, 0.0]), np.array([angle, angle])
    bound = norms._prior_log_bounds(T, p, m, t, "exponential")
    with np.errstate(all="ignore"):
        E = resolvent._expm_stack((m * np.exp(1j * t))[:, None, None] * T)
    for k in range(2):
        value = _computed_value(E[k], p)
        assert value <= bound[k] or bound[k] == math.inf, (k, value, bound[k])
    assert bound[1] < math.inf  # e^{0 T} = I


def _bidiagonal(rng, d, coupling, diagonal=None):
    """An upper bidiagonal T: a given or random unit-disc diagonal, and complex
    superdiagonal entries of modulus in [coupling / 2, coupling]."""
    if diagonal is None:
        diagonal = np.sqrt(rng.random(d)) * np.exp(2j * np.pi * rng.random(d))
    sup = coupling * rng.uniform(0.5, 1.0, d - 1) * np.exp(2j * np.pi * rng.random(d - 1))
    return np.diag(np.broadcast_to(diagonal, (d,))).astype(complex) + np.diag(sup, 1)


def _log_one_inf(X):
    """The logs of the 1- and inf-norms of |X|."""
    a = np.abs(X)
    return math.log(a.sum(axis=0).max()), math.log(a.sum(axis=1).max())


@pytest.mark.parametrize("seed", range(6))
def test_resolvent_comparison_rung_is_exact_on_bidiagonal_operators(seed):
    # on a bidiagonal T, M(z)^{-1} = |(z - T)^{-1}|, so at p = 2 the prior is at most
    # half the sum of the logs of the 1- and inf-norms of |(z - T)^{-1}|, to
    # rounding; near a diagonal entry, with a coupling about the gap, the diagonal
    # dominance rung is looser, and the prior equals it
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 6))
    T = _bidiagonal(rng, d, 1.0)
    k = rng.integers(d, size=8)
    z = T[k, k] + rng.uniform(0.3, 1.0, 8) * np.exp(2j * np.pi * rng.random(8))
    z = np.concatenate([z, 3.0 * np.exp(2j * np.pi * rng.random(8))])  # dominant, far out
    bound = norms._prior_log_bounds(T, 2.0, np.abs(z), np.angle(z), "resolvent")
    for i, zi in enumerate(z):
        one, inf_ = _log_one_inf(np.linalg.inv(zi * np.eye(d) - T))
        exact = 0.5 * (one + inf_)
        assert bound[i] <= exact + 1e-8, (i, bound[i], exact)
        if i < 8:
            assert bound[i] == pytest.approx(exact, abs=1e-8)


@pytest.mark.parametrize("seed", range(6))
def test_exponential_comparison_rung_is_exact_on_constant_diagonal_bidiagonal_operators(seed):
    # on T = c I + N, N upper bidiagonal, |e^{z T}| = e^{r Re(e^{it} c)} e^{r |N|}, so
    # the prior at p = 1 and inf equals the log of the 1- and inf-norm of |e^{z T}|,
    # to rounding and the expm error err allows: e^{err} - 1 is about 1e-12 relative
    # to e^{r mu}, here at most e^4 times the norm
    from kreisslab import resolvent

    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 6))
    T = _bidiagonal(rng, d, 1.0, np.exp(2j * np.pi * rng.random()))
    m = rng.uniform(0.5, 4.0, 8)
    t = 2.0 * np.pi * rng.random(8)
    E = resolvent._expm_stack((m * np.exp(1j * t))[:, None, None] * T)
    for p, col in ((1.0, 0), (math.inf, 1)):
        bound = norms._prior_log_bounds(T, p, m, t, "exponential")
        for i in range(8):
            exact = _log_one_inf(E[i])[col]
            assert bound[i] == pytest.approx(exact, abs=1e-8), (p, i, bound[i], exact)


@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 6), taylor=st.booleans(),
       density=st.floats(0.2, 1.0))
def test_positive_series_sums_a_nilpotent_pattern_within_its_budget(seed, d, taylor, density):
    # on a permuted strictly triangular left the series ends after d terms: the
    # bound is at least the exact max of their sum, in rationals over the float
    # inputs, and at most 1 + 4 eta above it, eta = 2 (d + 2) (d + 4) u
    rng = np.random.default_rng(seed)
    perm = np.eye(d)[rng.permutation(d)]
    left = np.triu(10.0 ** rng.uniform(-3, 3, (d, d)) * (rng.random((d, d)) < density), 1)
    left = perm @ left @ perm.T
    first = 10.0 ** rng.uniform(-3, 3, (d, 10)) * (rng.random((d, 10)) < 0.9)
    scale = 10.0 ** rng.uniform(-3, 3, (1 if taylor else d, 10))
    got = norms._positive_series(first, left, scale, taylor)
    eta = Fraction(2 * (d + 2) * (d + 4), 2**53)
    F = np.vectorize(Fraction, otypes=[object])
    exact_left = F(left)
    for j in range(10):
        v = total = F(first[:, j])
        for k in range(d - 1):
            v = F(scale[:, j]) / (k + 1 if taylor else 1) * (exact_left @ v)
            total = total + v
        exact = max(total)
        assert exact <= Fraction(got[j]) <= exact * (1 + 4 * eta), (j, got[j], float(exact))


@pytest.mark.parametrize("taylor", [False, True])
def test_positive_series_is_infinite_on_a_pattern_with_a_cycle(taylor):
    # [[0, .5], [.5, 0]] has a 2-cycle: no finite sum is certified, though its
    # Jacobi series sums to 2 at unit scale
    left = np.array([[0.0, 0.5], [0.5, 0.0]])
    got = norms._positive_series(np.ones((2, 3)), left, np.ones((1, 3)), taylor)
    assert got.tolist() == [math.inf] * 3


def test_priors_are_infinite_where_they_cannot_certify_a_finite_matrix():
    from kreisslab import resolvent

    # (l - N)^{-1} holds c^2 / l^3 = 1e400 / l^3 for the nilpotent N of coupling 1e200
    N = np.diag([1e200, 1e200], 1).astype(complex)
    r = np.array([1.0 + 1e-8, 10.0, 1e300])
    for p in PRIOR_P:
        bound = norms._prior_log_bounds(N, p, r, np.zeros(3), "resolvent")
        assert bound[:2].tolist() == [math.inf] * 2 and bound[2] < math.inf
    # e^{xi I} = e^{xi} I passes the float range at xi > 709.78; nothing overflows at
    # an angle where Re xi is below it, and an inf modulus gives no bound
    xi = np.array([700.0, 750.0, 750.0, math.inf])
    t = np.array([0.0, 0.0, 2.0, 2.0])
    for p in PRIOR_P:
        bound = norms._prior_log_bounds(np.eye(3, dtype=complex), p, xi, t, "exponential")
        assert bound[0] < 709.78 and bound[1] == math.inf and bound[2] < 0
        assert bound[3] == math.inf
    with np.errstate(over="ignore"):
        assert not np.isfinite(resolvent._expm_stack(750.0 * np.eye(3, dtype=complex)[None])).all()


@given(seed=st.integers(0, 2**32 - 1), sizes=st.lists(st.integers(1, 12), min_size=1, max_size=4),
       top=st.sampled_from([1, 2, 5]), unbounded=st.floats(0.0, 1.0))
def test_top_norms_adds_to_the_first_top_rule_only_the_best_finite_bounds(seed, sizes, top,
                                                                          unbounded):
    # the first take now holds every +inf or NaN bound and each group's top highest
    # finite bounds, a superset of the first-top rule's first take, so the floors
    # can only rise: besides those finite-bound points the rule values a subset of
    # what the first-top rule values, and both give every group's first maximum and
    # top best values, with the ties of the top-th, exactly
    from oracles import top_norms_first_top

    rng = np.random.default_rng(seed)
    count = sum(sizes)
    groups = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    exact = rng.integers(0, 6, count).astype(float)  # ties are common
    upper = exact + rng.integers(0, 4, count)
    wild = rng.random(count) < unbounded
    upper[wild] = np.where(rng.random(wild.sum()) < 0.5, np.inf, np.nan)
    taken = {"new": set(), "old": set()}

    def valuer(key):
        def value(idx, *_floor):
            pts = np.arange(count)[idx]
            assert not taken[key] & set(pts.tolist())  # no point valued twice
            taken[key].update(pts.tolist())
            return exact[pts]
        return value

    new = norms._top_norms(upper, groups, top, valuer("new"), np.empty((len(sizes), 0)))
    old = top_norms_first_top(upper, groups, top, valuer("old"))
    best_finite = set()
    for a, b in zip(groups, [*groups[1:], count]):
        finite = [k for k in range(a, b) if upper[k] < np.inf]
        best_finite.update(sorted(finite, key=lambda k: (-upper[k], k))[:top])
    assert taken["new"] <= taken["old"] | best_finite
    for a, b in zip(groups, [*groups[1:], count]):
        floor = np.sort(exact[a:b])[::-1][min(top, b - a) - 1]
        keep = np.arange(a, b)[exact[a:b] >= floor]
        assert np.array_equal(new[keep], exact[keep]) and np.array_equal(old[keep], exact[keep])
        assert (new[a:b] <= exact[a:b]).all()
