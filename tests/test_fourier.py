import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kreisslab.fourier import (
    RIESZ_SYMBOL,
    _inner_norms,
    ExtremalSearchConfig,
    Interval,
    IntervalPartition,
    MultiplierSeq,
    TrigPolynomial,
    WindowTooSmallError,
    apply_multiplier,
    load_trig_polynomial,
    lp_torus_norm,
    marcinkiewicz_check,
    pairing,
    pairing_quadrature,
    project_interval,
    quadrature_points,
    riesz_norm_lower_bound,
    save_trig_polynomial,
    v1_seminorm,
)
from kreisslab.norms import vector_p_norm

# regression floors pinned from pre-build oracle computations:
#   * best 3-term ratio a e_{-1} + b e_0 + c e_1 for the Riesz projection at
#     p = 4 (grid search + random polish): 1.02744...
#   * broad search over +-1 multipliers on [-8, 8] with random f at p = 4:
#     max sample ratio 0.2987; the corpus constant is pinned just above it
RIESZ_P4_FLOOR = 1.0274
MARCINKIEWICZ_P4_CAP = 0.32


def scal(d):
    return TrigPolynomial.scalar(d)


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------


def test_projection_keeps_low_block():
    f = TrigPolynomial.from_coeffs({0: [1.0, 0.0], 5: [0.0, 2.0]}, 2)
    g = project_interval(f, Interval(0, 3))
    assert g.support == (0,)
    assert np.array_equal(g.coeff(0), np.array([1.0, 0.0]))


def test_projection_identity_when_covering():
    f = scal({-2: 1.0, 3: 2.0})
    g = project_interval(f, Interval(-5, 5))
    assert g.support == f.support
    assert np.array_equal(g.vecs, f.vecs)


def test_projection_disjoint_gives_zero():
    f = scal({1: 1.0})
    assert project_interval(f, Interval(5, 9)).is_zero


@given(st.integers(0, 2**32 - 1))
def test_projection_algebra(seed):
    rng = np.random.default_rng(seed)
    freqs = rng.choice(np.arange(-10, 11), size=6, replace=False)
    f = TrigPolynomial(
        tuple(int(n) for n in freqs),
        rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2)),
        2,
    )
    cut = int(rng.integers(-10, 11))
    lo, hi = Interval(None, cut), Interval(cut + 1, None)
    # idempotence
    once = project_interval(f, lo)
    twice = project_interval(once, lo)
    assert np.allclose(twice.values_on_grid(32), once.values_on_grid(32), atol=1e-12)
    # disjoint composition vanishes
    assert project_interval(once, hi).is_zero
    # partition of unity
    back = project_interval(f, lo) + project_interval(f, hi)
    assert np.allclose(back.values_on_grid(32), f.values_on_grid(32), atol=1e-12)


def test_partition_disjointness_enforced():
    with pytest.raises(ValueError):
        IntervalPartition((Interval(0, 4), Interval(3, 8)))
    with pytest.raises(ValueError):
        IntervalPartition((Interval(None, 0), Interval(0, None)))


# ---------------------------------------------------------------------------
# multipliers
# ---------------------------------------------------------------------------


def test_constant_multiplier_is_identity():
    f = scal({-1: 2.0, 4: 1.0 - 1j})
    g = apply_multiplier(f, MultiplierSeq.constant(1.0))
    assert np.array_equal(g.vecs, f.vecs)


def test_riesz_projection_symbol():
    f = scal({-1: 3.0, 1: 4.0})
    g = apply_multiplier(f, RIESZ_SYMBOL)
    assert g.coeff(-1) == pytest.approx(0.0)
    assert g.coeff(1) == pytest.approx(4.0)


def test_multiplier_composition_is_pointwise_product(rng):
    freqs = tuple(range(-4, 5))
    f = TrigPolynomial(freqs, rng.standard_normal((9, 1)) + 1j * rng.standard_normal((9, 1)), 1)
    m1 = MultiplierSeq.from_values({n: complex(rng.standard_normal()) for n in freqs})
    m2 = MultiplierSeq.from_values({n: complex(rng.standard_normal()) for n in freqs})
    prod = MultiplierSeq.from_values({n: m1.at(n) * m2.at(n) for n in freqs})
    lhs = apply_multiplier(apply_multiplier(f, m1), m2)
    rhs = apply_multiplier(f, prod)
    assert np.allclose(lhs.vecs, rhs.vecs, atol=1e-12)


def test_v1_constant_is_zero():
    assert v1_seminorm(MultiplierSeq.constant(3.0)) == 0.0


def test_v1_riesz_single_jump():
    assert v1_seminorm(RIESZ_SYMBOL) == pytest.approx(1.0)


def test_v1_box_two_jumps():
    assert v1_seminorm(MultiplierSeq.indicator(Interval(0, 17))) == pytest.approx(2.0)


def test_v1_window_too_small():
    m = MultiplierSeq.from_values({-3: 1.0, 5: -1.0})
    with pytest.raises(WindowTooSmallError):
        v1_seminorm(m, window=(-2, 5))
    assert v1_seminorm(m, window=(-3, 5)) == v1_seminorm(m)


# ---------------------------------------------------------------------------
# torus norms
# ---------------------------------------------------------------------------


def test_norm_of_constant_function():
    f = TrigPolynomial.from_coeffs({0: [3.0, 4.0]}, 2)
    for p in (1.0, 2.0, 3.0, 4.0):
        assert lp_torus_norm(f, p, 2.0).value == pytest.approx(5.0)


def test_parseval_two_modes():
    f = scal({1: 1.0, 2: 1.0})
    res = lp_torus_norm(f, 2.0, 2.0)
    assert res.value == pytest.approx(math.sqrt(2.0))
    assert res.exact


def test_quartic_norm_exact_value():
    # integral of |1 + e(t)|^4 dt expands to the constant term 6
    f = scal({0: 1.0, 1: 1.0})
    res = lp_torus_norm(f, 4.0, 2.0)
    assert res.value == pytest.approx(6.0 ** 0.25, rel=1e-13)
    assert res.exact


def test_parseval_identity_against_coefficients(rng):
    freqs = tuple(int(n) for n in rng.choice(np.arange(-16, 17), size=9, replace=False))
    f = TrigPolynomial(freqs, rng.standard_normal((9, 3)) + 1j * rng.standard_normal((9, 3)), 3)
    total = lp_torus_norm(f, 2.0, 2.0).value
    assert total**2 == pytest.approx(float(np.sum(np.abs(f.vecs) ** 2)), rel=1e-10)


def test_exactness_flag_honesty():
    f = scal({-3: 1.0 + 2j, 0: -1.0, 2: 0.5})
    base = lp_torus_norm(f, 4.0, 2.0)
    assert base.exact
    doubled = lp_torus_norm(f, 4.0, 2.0, n_points=2 * base.n_points)
    assert abs(doubled.value - base.value) <= 1e-12 * base.value


def test_inexact_path_tags_false():
    f = scal({0: 1.0, 1: 1.0})
    res = lp_torus_norm(f, 3.0, 2.0)
    assert not res.exact
    finer = lp_torus_norm(f, 3.0, 2.0, n_points=4 * res.n_points)
    assert res.value == pytest.approx(finer.value, rel=1e-4)


def test_multiplier_contraction_at_p2(rng):
    # ||T_m f||_2 <= ||m||_inf ||f||_2 (Parseval); false for general p
    for _ in range(25):
        freqs = tuple(int(n) for n in rng.choice(np.arange(-8, 9), size=5, replace=False))
        f = TrigPolynomial(freqs, rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2)), 2)
        m = MultiplierSeq.from_values({n: complex(rng.standard_normal()) for n in freqs})
        lhs = lp_torus_norm(apply_multiplier(f, m), 2.0, 2.0).value
        assert lhs <= m.sup_norm() * lp_torus_norm(f, 2.0, 2.0).value + 1e-10


def test_rejects_bad_exponents():
    f = scal({0: 1.0})
    with pytest.raises(ValueError):
        lp_torus_norm(f, 0.5)
    with pytest.raises(ValueError):
        lp_torus_norm(f, math.inf)


def test_inner_norms_match_vector_norms(rng):
    vals = rng.standard_normal((4, 6, 3)) + 1j * rng.standard_normal((4, 6, 3))
    for r in (1.0, 2.0, 3.5, math.inf):
        want = np.array([[np.linalg.norm(v, r) for v in row] for row in vals])
        assert np.allclose(_inner_norms(vals, r), want, rtol=1e-13, atol=0)


def _reduced_inner_norms(vals, inner_p):
    # reference: numpy's reduction over the vector axis for every dimension
    a = np.abs(vals)
    if math.isinf(inner_p):
        return np.maximum.reduce(a, axis=-1)
    if inner_p == 2.0:
        return np.sqrt(np.add.reduce(a * a, axis=-1))
    return np.add.reduce(a ** inner_p, axis=-1) ** (1.0 / inner_p)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("inner_p", [1.0, 2.0, 3.0, math.inf])
def test_inner_norms_bit_equal_to_reduction(d, inner_p, rng):
    # zeros, the least subnormal, squares that underflow and cubes that overflow
    mags = np.array([0.0, 5e-324, 1e-160, 1e150, 1.0])
    shape = (6, 40, d)
    vals = rng.choice(mags, size=shape) * np.exp(2j * np.pi * rng.random(shape))
    vals = np.concatenate([vals, rng.standard_normal(shape) + 1j * rng.standard_normal(shape)])
    with np.errstate(over="ignore", under="ignore"):
        want = _reduced_inner_norms(vals, inner_p)
        got = _inner_norms(vals, inner_p)
    assert got.dtype == want.dtype and got.shape == want.shape
    # the cubes of 1e150 overflow the reduction: those rows take the max-scaled
    # norm of vector_p_norm, and every other row keeps the reduction's bits
    over = np.isinf(want)
    assert over.any() == (inner_p == 3.0)
    assert np.array_equal(got[~over], want[~over])
    assert np.array_equal(got[over], [vector_p_norm(v, inner_p) for v in vals[over]])
    assert np.isfinite(got).all()


def _looped_values_on_grid(f, n_points):
    # reference: one scatter per frequency, in support order
    A = np.zeros((n_points, f.dim), dtype=complex)
    for i, n in enumerate(f.freqs):
        A[n % n_points] += f.vecs[i]
    return np.fft.ifft(A, axis=0) * n_points


def test_values_on_grid_matches_per_frequency_loop(rng):
    for _ in range(30):
        size, d = int(rng.integers(4, 12)), int(rng.integers(1, 4))
        freqs = rng.choice(np.arange(-12, 13), size=size, replace=False)
        f = TrigPolynomial(tuple(int(n) for n in freqs),
                           rng.standard_normal((size, d)) + 1j * rng.standard_normal((size, d)), d)
        M = f.max_abs_freq
        grids = {quadrature_points(f, p, r)[0] for p, r in ((4.0, 2.0), (3.0, 2.0), (2.0, 1.0))}
        # aliased grids with n_points < 2M + 1: fewer points than frequencies
        # at 1, 2 and 3, so residues collide and add up in one grid cell
        grids |= {1, 2, 3, M, 2 * M}
        for N in grids:
            assert np.array_equal(f.values_on_grid(N), _looped_values_on_grid(f, N))
    for d in (1, 3):
        zero = TrigPolynomial.zero(d)
        for N in (1, 8):
            got = zero.values_on_grid(N)
            assert got.shape == (N, d) and not got.any()
            assert np.array_equal(got, _looped_values_on_grid(zero, N))


def test_sorted_constructor_matches_validating_one(rng):
    for freqs, d in (((-5, -1, 0, 3, 7), 2), ((2, 9), 1), ((-4, -2), 3), ((), 2)):
        vecs = rng.standard_normal((len(freqs), d)) + 1j * rng.standard_normal((len(freqs), d))
        if vecs.size:
            vecs[0, 0] = -0.0  # a signed zero keeps its bits
        want = TrigPolynomial(freqs, vecs, d)
        got = TrigPolynomial._sorted(freqs, vecs, d)
        assert got.freqs == want.freqs and got.dim == want.dim
        assert got.vecs.dtype == want.vecs.dtype and got.vecs.shape == want.vecs.shape
        assert got.vecs.tobytes() == want.vecs.tobytes()
        assert not got.vecs.flags.writeable
        assert got.max_abs_freq == want.max_abs_freq == max(map(abs, freqs), default=0)
        assert got.is_zero == want.is_zero == (not freqs)
        vecs[...] = 1.0  # the coefficients were copied
        assert got.vecs.tobytes() == want.vecs.tobytes()
    real = TrigPolynomial._sorted((0, 1), np.ones((2, 1)), 1)
    assert real.vecs.dtype == complex
    for bad in (np.ones((3, 2)), np.ones((2, 3)), np.ones(4), np.ones((2, 2, 1))):
        with pytest.raises(ValueError, match="shape"):
            TrigPolynomial._sorted((0, 1), bad, 2)


def test_is_zero_is_computed_once():
    f = TrigPolynomial((0, 1), np.zeros((2, 1)), 1)
    assert f.is_zero and "is_zero" in vars(f)
    g = 2.0 * TrigPolynomial.scalar({0: 1.0, 3: -1.0})
    assert not g.is_zero and np.array_equal(g.vecs, [[2.0], [-2.0]])


# ---------------------------------------------------------------------------
# pairing convention
# ---------------------------------------------------------------------------


def test_pairing_matches_quadrature(rng):
    for _ in range(10):
        freqs = tuple(int(n) for n in rng.choice(np.arange(-6, 7), size=4, replace=False))
        f = TrigPolynomial(freqs, rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)), 2)
        g_freqs = tuple(int(n) for n in rng.choice(np.arange(-6, 7), size=4, replace=False))
        g = TrigPolynomial(
            g_freqs, rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)), 2
        )
        assert pairing(f, g) == pytest.approx(pairing_quadrature(f, g), abs=1e-10)


def test_pairing_blockwise_identity(rng):
    # <f, g> = sum_I <D_I f, D_I g> for any interval partition covering both
    freqs = tuple(range(-3, 4))
    f = TrigPolynomial(freqs, rng.standard_normal((7, 1)) + 1j * rng.standard_normal((7, 1)), 1)
    g = TrigPolynomial(freqs, rng.standard_normal((7, 1)) + 1j * rng.standard_normal((7, 1)), 1)
    part = IntervalPartition.from_pairs([(-3, -1), (0, 1), (2, 3)])
    total = sum(
        pairing(project_interval(f, iv), project_interval(g, iv)) for iv in part.intervals
    )
    assert total == pytest.approx(pairing(f, g), abs=1e-12)


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------


def test_trig_polynomial_roundtrip(tmp_path, rng):
    freqs = (-7, -1, 0, 12)
    f = TrigPolynomial(freqs, rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3)), 3)
    path = tmp_path / "f.txt"
    save_trig_polynomial(f, path)
    g = load_trig_polynomial(path)
    assert g.support == f.support
    assert np.array_equal(g.vecs, f.vecs)


# ---------------------------------------------------------------------------
# empirical norm lower bounds
# ---------------------------------------------------------------------------


def test_riesz_norm_p2_is_one():
    cfg = ExtremalSearchConfig(trials=40, ascent_steps=40, seed=0)
    val = riesz_norm_lower_bound(2.0, 1, 2.0, cfg)
    assert val == pytest.approx(1.0, abs=1e-9)


def test_riesz_fixes_analytic_polynomials():
    f = scal({0: 1.0, 3: 2.0})
    g = apply_multiplier(f, RIESZ_SYMBOL)
    assert np.array_equal(g.vecs, f.vecs)


def test_riesz_norm_p4_beats_pinned_floor():
    cfg = ExtremalSearchConfig(trials=300, max_support=12, ascent_steps=150, seed=11)
    val = riesz_norm_lower_bound(4.0, 1, 2.0, cfg)
    assert val >= RIESZ_P4_FLOOR
    # repeat run is bit-identical (seeded search)
    assert val == riesz_norm_lower_bound(4.0, 1, 2.0, cfg)


def test_marcinkiewicz_identity_symbol():
    f = scal({0: 1.0, 1: 1.0})
    lhs, factor = marcinkiewicz_check(f, MultiplierSeq.constant(1.0), 4.0)
    assert lhs == pytest.approx(1.0)
    assert factor == pytest.approx(1.0)


def test_marcinkiewicz_riesz_at_p2():
    f = scal({-1: 1.0, 0: 1.0, 1: 1.0})
    lhs, factor = marcinkiewicz_check(f, RIESZ_SYMBOL, 2.0)
    assert lhs <= 1.0 + 1e-12
    assert factor == pytest.approx(2.0)


def test_marcinkiewicz_corpus_under_pinned_constant():
    rng = np.random.default_rng(77)
    freqs = np.arange(-8, 9)
    for _ in range(150):
        m = MultiplierSeq.from_values(
            {int(n): complex(rng.choice([-1.0, 1.0])) for n in freqs}
        )
        sub = rng.choice(freqs, size=6, replace=False)
        f = TrigPolynomial(
            tuple(int(n) for n in sub),
            rng.standard_normal((6, 1)) + 1j * rng.standard_normal((6, 1)),
            1,
        )
        lhs, factor = marcinkiewicz_check(f, m, 4.0)
        assert lhs <= MARCINKIEWICZ_P4_CAP * factor
