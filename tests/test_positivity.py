import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import gammaln

from kreisslab.operators import ComplexMatrix, OperatorSpec, gallery, make_gallery_operator
from kreisslab.positivity import (
    BlockBoundResult,
    KrivineResult,
    PositiveOperator,
    TruncationError,
    block_bound_check,
    krivine_checks,
)
from kreisslab.verify import bound_m_range, poisson_log_weights

POSITIVE_GALLERY = tuple(e for e in gallery() if e.positive)


def pos(kind_spec):
    return PositiveOperator(make_gallery_operator(kind_spec))


def test_positivity_guard_rejects_rotation():
    T = make_gallery_operator(OperatorSpec("rotation", 1, angles=0.3))
    with pytest.raises(ValueError):
        PositiveOperator(T)


def test_positivity_guard_rejects_negative_entries():
    with pytest.raises(ValueError):
        PositiveOperator(ComplexMatrix([[1.0, -0.5], [0.0, 1.0]]))


def test_window_matches_paper_convention():
    assert list(bound_m_range(4)) == [2, 3, 4]
    assert list(bound_m_range(9)) == [6, 7, 8, 9]
    assert list(bound_m_range(2)) == [1, 2]


def test_krivine_identity_hand_value():
    # T = I, x = 1: lhs = (#window)^{1/q} / (28 sqrt(n)), rhs = 1 (Poisson mass)
    T = pos(OperatorSpec("identity", 2))
    for q in (1.0, 1.5):
        res = krivine_checks(T, [np.ones(2)], 4, q)[0]
        expected = 28.0 * 2.0 / 3.0 ** (1.0 / q)
        assert res.margin == pytest.approx(expected, rel=1e-10)
        assert res.margin >= 1.0


def test_krivine_nilpotent_degenerate_passes():
    # window contains only k >= 2 where T^k x = 0, so lhs vanishes
    T = pos(OperatorSpec("nilpotent", 2, coupling=2.0))
    res = krivine_checks(T, [np.ones(2)], 4, 1.0)[0]
    assert math.isinf(res.margin)


def test_krivine_scalar_half_against_series_oracle():
    # independent scalar oracle with log-domain Poisson terms
    n, c, q = 9, 0.5, 1.0
    ks = np.arange(0, 4 * n + 1)
    w = np.exp(ks * math.log(n) - gammaln(ks + 1.0) - n)
    rhs = float(np.sum(w * c**ks))
    win = np.array(bound_m_range(n))
    lhs = float(np.sum((c ** win.astype(float)) ** q) ** (1 / q) / (28.0 * math.sqrt(n)))
    oracle = rhs / lhs
    res = krivine_checks(pos(OperatorSpec("scalar", 1, scale=0.5)), [np.ones(1)], n, q,
                         trunc_terms=4 * n)[0]
    assert res.margin == pytest.approx(oracle, rel=1e-10)
    assert res.margin >= 1.0


def test_krivine_margins_on_positive_gallery():
    for entry in POSITIVE_GALLERY:
        T = PositiveOperator(make_gallery_operator(entry.spec))
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = np.abs(rng.standard_normal(T.dim))
            for n in (4, 16):
                res = krivine_checks(T, [x], n, 1.5)[0]
                assert res.margin >= 1.0 - 1e-8, entry.name


def test_krivine_tail_certificate_rejects_short_series():
    T = pos(OperatorSpec("identity", 2))
    with pytest.raises(TruncationError):
        krivine_checks(T, [np.ones(2)], 64, 1.0, trunc_terms=70)


def test_krivine_refuses_a_series_past_2_20_terms_before_allocating():
    # kmax = 2 n ||T||_inf = 8e8 terms would take gigabytes of powers and table
    T = pos(OperatorSpec("scalar", 1, scale=1e8))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^the series at n = 4 needs kmax = 8e\+08 terms, "
                                             r"more than 1048576$"):
            krivine_checks(T, [[1.0]], 4, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    with pytest.raises(ValueError, match=r"kmax = 1\.04858e\+06 terms"):
        krivine_checks(pos(OperatorSpec("identity", 2)), [np.ones(2)], 4, 1.0,
                       trunc_terms=(1 << 20) + 1)


def test_krivine_validates_inputs():
    T = pos(OperatorSpec("identity", 2))
    with pytest.raises(ValueError):
        krivine_checks(T, [[1.0, -1.0]], 4, 1.0)
    with pytest.raises(ValueError):
        krivine_checks(T, [np.ones(2)], 1, 1.0)
    with pytest.raises(ValueError):
        krivine_checks(T, [np.ones(2)], 4, 2.0)


def _serial_krivine(T, x, n, q, trunc_terms=None):
    """The one-vector series loop, kept as the oracle of krivine_checks."""
    A = T.array
    xv = np.asarray(x, dtype=float).reshape(T.dim)
    if np.any(xv < 0):
        raise ValueError("x must be entrywise nonnegative")
    t_inf = float(np.max(np.sum(A, axis=1)))
    kmax = trunc_terms if trunc_terms is not None else max(4 * n, 128, math.ceil(2 * n * max(t_inf, 1.0)))
    if kmax < n + 1:
        raise TruncationError(f"trunc_terms={kmax} does not even reach the window at n={n}")
    w = np.exp(poisson_log_weights(n, np.arange(0, kmax + 1)))
    win = bound_m_range(n)
    rhs = np.zeros(T.dim)
    lhs_q = np.zeros(T.dim)
    xk = xv.copy()
    for k in range(0, kmax + 1):
        if k > 0:
            xk = A @ xk
        rhs += w[k] * xk
        if k in win:
            lhs_q += xk ** q
    x_kmax_inf = float(np.max(xk))
    lhs = lhs_q ** (1.0 / q) / (28.0 * math.sqrt(n))
    ratio = n * t_inf / (kmax + 1.0)
    if t_inf == 0.0 or x_kmax_inf == 0.0:
        tail = 0.0
    else:
        if ratio >= 1.0:
            raise TruncationError(
                f"geometric tail ratio {ratio:.3f} >= 1; increase trunc_terms beyond {kmax}"
            )
        tail = w[kmax] * x_kmax_inf * ratio / (1.0 - ratio)
    relevant = lhs > 0.0
    if not np.any(relevant):
        return KrivineResult(math.inf, 0.0, kmax)
    rhs_rel = rhs[relevant]
    tail_rel = tail / float(np.min(rhs_rel)) if np.min(rhs_rel) > 0 else math.inf
    if tail_rel >= 1e-8:
        raise TruncationError(f"tail certificate {tail_rel:.3e} of rhs is not below 1e-08")
    margins = (rhs + tail) / np.where(relevant, lhs, 1.0)
    margins[~relevant] = math.inf
    i = int(np.argmin(margins))
    return KrivineResult(float(margins[i]), float(tail_rel), int(kmax))


def _serial_outcome(T, xs, n, q, trunc_terms=None):
    """Results of the one-vector loop over xs, or the first error it raises."""
    try:
        return [_serial_krivine(T, x, n, q, trunc_terms) for x in xs]
    except (ValueError, TruncationError) as exc:
        return type(exc), str(exc)


def _stack_outcome(T, xs, n, q, trunc_terms=None):
    try:
        return krivine_checks(T, xs, n, q, trunc_terms)
    except (ValueError, TruncationError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("entry", POSITIVE_GALLERY, ids=lambda e: e.name)
def test_krivine_stack_matches_one_vector_loop(entry):
    T = PositiveOperator(make_gallery_operator(entry.spec))
    rng = np.random.default_rng(17)
    xs = np.abs(rng.standard_normal((4, T.dim)))
    xs[0] = 0.0  # lhs = 0 everywhere: margin +inf
    xs[1, 0] = 0.0
    for q in (1.0, 1.5, 1.99):
        for n in (2, 3, 4, 16, 64, 256):
            stack = krivine_checks(T, xs, n, q)
            assert stack == _serial_outcome(T, xs, n, q)
            assert math.isinf(stack[0].margin)


def test_krivine_stack_matches_loop_on_dense_matrices():
    # a matrix-matrix product would round differently from the matrix-vector one
    rng = np.random.default_rng(3)
    for d in (3, 16):
        A = np.abs(rng.standard_normal((d, d)))
        T = PositiveOperator(ComplexMatrix(A / (1.05 * A.sum(axis=1).max())))
        xs = np.abs(rng.standard_normal((6, d)))
        for n in (4, 64):
            assert krivine_checks(T, xs, n, 1.5) == _serial_outcome(T, xs, n, 1.5)


def test_krivine_stack_raises_the_first_failing_vector_error():
    T = pos(OperatorSpec("scalar", 2, scale=0.9))
    zero, neg = np.zeros(2), np.array([1.0, -1.0])
    # on a scalar operator tail_rel grows with max(x) / min(x): the two
    # vectors fail with different messages
    flat, skew = np.ones(2), np.array([1.0, 0.5])
    cases = [
        ([zero, flat, skew], 70, TruncationError, "tail certificate"),
        ([zero, skew, flat], 70, TruncationError, "tail certificate"),
        ([flat, neg], 70, TruncationError, "tail certificate"),
        ([zero, neg, flat], 70, ValueError, "x must be"),
        ([neg, flat], 60, ValueError, "x must be"),
        ([flat, flat], 60, TruncationError, "trunc_terms=60 does not even reach"),
    ]
    for xs, trunc, kind, start in cases:
        want = _serial_outcome(T, xs, 64, 1.0, trunc)
        assert want[0] is kind and want[1].startswith(start)
        assert _stack_outcome(T, np.array(xs), 64, 1.0, trunc) == want
    assert _serial_outcome(T, [flat], 64, 1.0, 70) != _serial_outcome(T, [skew], 64, 1.0, 70)
    # a geometric ratio >= 1 fails every vector with a nonzero tail, not the zero one
    T3 = pos(OperatorSpec("scalar", 2, scale=3.0))
    want = _serial_outcome(T3, [zero, flat], 64, 1.0, 70)
    assert want[0] is TruncationError and want[1].startswith("geometric tail ratio")
    assert _stack_outcome(T3, np.array([zero, flat]), 64, 1.0, 70) == want


def test_block_bound_identity_hand_value():
    T = pos(OperatorSpec("identity", 2))
    for q in (1.0, 2.0):
        res = block_bound_check(T, q, 1.0, 100, corpus=8, seed=0)
        assert res.margin == pytest.approx(280.0 / 11.0 ** (1.0 / q), rel=1e-10)


def test_block_bound_doubly_stochastic():
    # mass preservation: ||T^k x||_1 = ||x||_1 = 1 for x >= 0
    T = PositiveOperator(ComplexMatrix([[0.5, 0.5], [0.5, 0.5]]))
    res = block_bound_check(T, 1.0, 1.0, 64, corpus=16, seed=1)
    assert res.margin == pytest.approx(224.0 / 9.0, rel=1e-10)
    assert res.margin >= 224.0 / 9.0 - 1e-9


def test_block_bound_nilpotent_infinite():
    T = pos(OperatorSpec("nilpotent", 2, coupling=2.0))
    res = block_bound_check(T, 1.0, 1.0, 100, corpus=4, seed=0)
    assert math.isinf(res.margin)
    assert res.witness is None
