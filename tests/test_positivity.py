import math

import numpy as np
import pytest
from scipy.special import gammaln

from kreisslab.operators import ComplexMatrix, OperatorSpec, make_gallery_operator, positive_gallery
from kreisslab.positivity import (
    BlockBoundResult,
    PositiveOperator,
    TruncationError,
    block_bound_check,
    krivine_check,
)
from kreisslab.verify import bound_m_range


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
        res = krivine_check(T, np.ones(2), 4, q)
        expected = 28.0 * 2.0 / 3.0 ** (1.0 / q)
        assert res.margin == pytest.approx(expected, rel=1e-10)
        assert res.margin >= 1.0


def test_krivine_nilpotent_degenerate_passes():
    # window contains only k >= 2 where T^k x = 0, so lhs vanishes
    T = pos(OperatorSpec("nilpotent", 2, coupling=2.0))
    res = krivine_check(T, np.ones(2), 4, 1.0)
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
    res = krivine_check(pos(OperatorSpec("scalar", 1, scale=0.5)), np.ones(1), n, q,
                        trunc_terms=4 * n)
    assert res.margin == pytest.approx(oracle, rel=1e-10)
    assert res.margin >= 1.0


def test_krivine_margins_on_positive_gallery():
    for entry in positive_gallery():
        T = PositiveOperator(make_gallery_operator(entry.spec))
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = np.abs(rng.standard_normal(T.dim))
            for n in (4, 16):
                res = krivine_check(T, x, n, 1.5)
                assert res.margin >= 1.0 - 1e-8, entry.name


def test_krivine_tail_certificate_rejects_short_series():
    T = pos(OperatorSpec("identity", 2))
    with pytest.raises(TruncationError):
        krivine_check(T, np.ones(2), 64, 1.0, trunc_terms=70)


def test_krivine_validates_inputs():
    T = pos(OperatorSpec("identity", 2))
    with pytest.raises(ValueError):
        krivine_check(T, np.array([1.0, -1.0]), 4, 1.0)
    with pytest.raises(ValueError):
        krivine_check(T, np.ones(2), 1, 1.0)
    with pytest.raises(ValueError):
        krivine_check(T, np.ones(2), 4, 2.0)


def test_block_bound_identity_hand_value():
    T = pos(OperatorSpec("identity", 2))
    for q in (1.0, 2.0):
        res = block_bound_check(T, q, 1.0, 100, corpus=8, seed=0)
        assert res.margin == pytest.approx(280.0 / 11.0 ** (1.0 / q), rel=1e-10)
        assert res.label == "consistency: lower-bound substitution"


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
