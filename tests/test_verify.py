import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import gammaln

from kreisslab import verify
from kreisslab.verify import (
    SUP_BOUND,
    V1_BOUND,
    bound_m_range,
    poisson_log_weights,
    poisson_window,
    sweep_appendix,
)
from oracles import log_poisson_term, log_sum_exp, poisson_window_sum


def exact_b(n: int, m: int) -> Fraction:
    lo, hi = poisson_window(n, m)
    return sum(Fraction(n) ** k / math.factorial(k) for k in range(lo, hi + 1))


# ---------------------------------------------------------------------------
# log_poisson_term (test oracle)
# ---------------------------------------------------------------------------


def test_log_poisson_simple_rational():
    # 4^2 / 2! = 8
    assert log_poisson_term(4, 2) == pytest.approx(math.log(8.0), abs=1e-12)


def test_log_poisson_unit():
    assert log_poisson_term(1, 0) == 0.0


def test_log_poisson_ten_ten():
    # 10^10 / 10! = 10000000000 / 3628800
    exact = Fraction(10) ** 10 / math.factorial(10)
    assert log_poisson_term(10, 10) == pytest.approx(math.log(float(exact)), abs=1e-12)


def test_log_poisson_validates():
    with pytest.raises(ValueError):
        log_poisson_term(0, 1)
    with pytest.raises(ValueError):
        log_poisson_term(2, -1)


# ---------------------------------------------------------------------------
# poisson_window_sum (test oracle)
# ---------------------------------------------------------------------------


def test_window_sum_n4_exact_rationals():
    # windows: m=2 -> k in {0,1}, m=3 -> k in {1,2}, m=4 -> k in {2,3}
    for m, expect in ((2, Fraction(5)), (3, Fraction(12)), (4, Fraction(56, 3))):
        row = poisson_window_sum(4, m)
        assert math.exp(row.log_b) == pytest.approx(float(expect), rel=1e-13)
        assert row.a == pytest.approx(math.exp(4) / float(expect), rel=1e-12)


def test_window_sum_matches_fraction_oracle():
    for n in (2, 5, 9, 17, 30):
        for m in bound_m_range(n):
            row = poisson_window_sum(n, m)
            assert row.log_b == pytest.approx(math.log(float(exact_b(n, m))), abs=1e-12)


def test_window_sum_rejects_out_of_range_m():
    with pytest.raises(ValueError):
        poisson_window_sum(4, 1)  # below n - sqrt(n) = 2
    with pytest.raises(ValueError):
        poisson_window_sum(4, 5)


def test_window_sum_extreme_case_under_bound():
    assert poisson_window_sum(100, 100).a <= 32.0


def test_ab_product_is_exp_n_in_log_domain():
    for n in (4, 50, 1000, 9999):
        for m in (bound_m_range(n).start, n):
            row = poisson_window_sum(n, m)
            # log a + log b == n, the definition a = e^n / b
            assert math.log(row.a) + row.log_b == pytest.approx(n, rel=1e-12)


def test_log_sum_exp_order_reproducibility():
    rng = np.random.default_rng(0)
    for _ in range(50):
        terms = list(rng.standard_normal(40) * 50.0)
        fwd = log_sum_exp(terms)
        bwd = log_sum_exp(terms, reverse=True)
        assert abs(fwd - bwd) <= 1e-13 * max(1.0, abs(fwd))


def test_log_sum_exp_empty():
    assert log_sum_exp([]) == -math.inf


# ---------------------------------------------------------------------------
# Lemma check A1
# ---------------------------------------------------------------------------


def _row(n):
    """The appendix.csv row of n alone: sweep_appendix(n, n) as name -> value."""
    return {name: col[0] for name, col in sweep_appendix(n, n).items()}


def test_a1_small_n_hand_range():
    # n = 2: integer k in [0, 2 sqrt 2] = {0, 1, 2}
    row = _row(2)
    assert row["a1_pass"]
    # by hand: worst case is the upper estimate at k in {0, 1} where
    # n^{n-k}/(n-k)! = 2 and the ceiling is e^2 / sqrt(16 pi / 5)
    expect = (2 - 0.5 * math.log(8 * math.pi * 2 / 5)) - math.log(2.0)
    assert row["a1_min_slack"] == pytest.approx(expect, abs=1e-12)


def test_a1_n100_k0_oracle():
    # n^n/n! sits between e^n/(28 sqrt n) and e^n/sqrt(8 pi n / 5)
    n = 100
    mid = n * math.log(n) - math.lgamma(n + 1)
    assert mid >= n - math.log(28 * math.sqrt(n))
    assert mid <= n - 0.5 * math.log(8 * math.pi * n / 5)
    assert _row(n)["a1_pass"]


def test_a1_huge_n_no_overflow():
    row = _row(10**6)
    assert row["a1_pass"]
    assert math.isfinite(row["a1_min_slack"])


# ---------------------------------------------------------------------------
# Lemma check A2
# ---------------------------------------------------------------------------


def test_a2_n4_exact_values():
    row = _row(4)
    a2, a3, a4 = (math.exp(4) / float(exact_b(4, m)) for m in (2, 3, 4))
    assert row["sup_a"] == pytest.approx(a2, rel=1e-12)  # 10.9196...
    v1 = a2 + abs(a3 - a2) + abs(a4 - a3) + a4
    assert row["v1_a"] == pytest.approx(v1, rel=1e-12)  # 21.839...
    assert row["a2_pass"]


def test_a2_n100_passes():
    row = _row(100)
    assert row["a2_pass"]
    assert row["sup_a"] <= 32.0 and row["v1_a"] <= 978.0


def test_a2_fast_path_matches_poisson_window_sum():
    from kreisslab.verify import _a_values

    for n in (7, 64, 1234):
        _, (fast,) = next(_a_values(np.array([n])))
        slow = [poisson_window_sum(n, m).a for m in bound_m_range(n)]
        assert np.allclose(fast, slow, rtol=1e-12)


def _serial_sandwich(n):
    """The one-n sandwich check, kept as the oracle of the block sweep:
    (min_slack, passed)."""
    ks = np.arange(0, math.floor(2.0 * math.sqrt(n)) + 1)
    mid = (n - ks) * math.log(n) - gammaln(n - ks + 1.0)
    slack_lo = mid - (n - math.log(28.0 * math.sqrt(n)))
    slack_hi = n - 0.5 * math.log(8.0 * math.pi * n / 5.0) - mid
    i_lo, i_hi = int(np.argmin(slack_lo)), int(np.argmin(slack_hi))
    min_slack = float(slack_lo[i_lo] if slack_lo[i_lo] <= slack_hi[i_hi] else slack_hi[i_hi])
    return min_slack, bool(min_slack >= -1e-10)


def _serial_window_bounds(n):
    """The one-n window check, kept as the oracle of the block sweep:
    (sup_a, v1_a, passed)."""
    m_lo = bound_m_range(n).start
    k_lo, _ = poisson_window(n, m_lo)
    ks = np.arange(k_lo, n)
    prefix = np.concatenate(([0.0], np.cumsum(np.exp(ks * math.log(n) - gammaln(ks + 1.0) - n))))
    m_arr = np.arange(m_lo, n + 1)
    lo_arr = np.maximum(0, np.ceil(m_arr - math.sqrt(n)).astype(int))
    a = 1.0 / (prefix[m_arr - k_lo] - prefix[lo_arr - k_lo])
    sup_a = float(np.max(a))
    v1 = float(a[0] + np.abs(np.diff(a)).sum() + a[-1])
    return sup_a, v1, bool(sup_a <= SUP_BOUND + 1e-9 and v1 <= V1_BOUND + 1e-9)


def _serial_sweep(n_lo, n_hi):
    rows = []
    for n in range(n_lo, n_hi + 1):
        (min_slack, a1_pass), (sup_a, v1_a, a2_pass) = _serial_sandwich(n), _serial_window_bounds(n)
        review = min_slack < 1e-6 or SUP_BOUND - sup_a < 1e-6 or V1_BOUND - v1_a < 1e-6
        rows.append((n, sup_a, v1_a, min_slack, a1_pass, a2_pass, review))
    names = ("n", "sup_a", "v1_a", "a1_min_slack", "a1_pass", "a2_pass", "review")
    return {name: np.array(col) for name, col in zip(names, zip(*rows))}


# one-n sweeps (n, n) pin the single-row blocks next to the long sweeps
@pytest.mark.parametrize("n_lo,n_hi", [(2, 3000), (10**6, 10**6 + 20),
                                       *((n, n) for n in (2, 3, 4, 5, 99, 100, 101, 4999,
                                                          10**6 + 7))])
def test_sweep_matches_one_n_loop(n_lo, n_hi):
    got, want = sweep_appendix(n_lo, n_hi), _serial_sweep(n_lo, n_hi)
    assert list(got) == list(want)
    for name in want:
        assert got[name].dtype == want[name].dtype, name
        assert np.array_equal(got[name], want[name]), name


def test_sweep_subset_all_pass():
    table = sweep_appendix(2, 500)
    assert len(table["n"]) == 499
    assert np.all(table["a1_pass"] & table["a2_pass"])
    assert not np.any(table["review"])
    # the binding cases sit at small n
    assert table["n"][np.argmax(table["sup_a"])] == 4


def test_sweep_csv_rows_shape():
    table = sweep_appendix(2, 5)
    assert list(table) == ["n", "sup_a", "v1_a", "a1_min_slack", "a1_pass", "a2_pass", "review"]
    assert all(len(col) == 4 for col in table.values())
    assert table["n"][0] == 2


def test_sweep_validates_range():
    with pytest.raises(ValueError):
        sweep_appendix(1, 10)
    with pytest.raises(ValueError):
        sweep_appendix(5, 4)


# ---------------------------------------------------------------------------
# the log-factorial table and the Poisson weights read from it
# ---------------------------------------------------------------------------


# Cephes lgam's branches at x = k + 1: the exact product below 13, Stirling's q with
# the degree-4 series below 1000, with the three-term series up to 1e8, and q alone
# past it (where the port still adds the series, which changes no bit)
LGAM_BRANCHES = (13.0, 1000.0, 1e8)


def _sampled_ks(seed, size):
    """Seeded k in [0, 2^52], log-uniform so that every branch of lgam gets many,
    with the branch edges and both ends added."""
    rng = np.random.default_rng(seed)
    ks = np.exp(rng.uniform(0.0, 52 * math.log(2), size)).astype(np.int64) - 1
    edges = [int(e) + d for e in LGAM_BRANCHES for d in range(-3, 3)]
    return np.concatenate([ks, [0, 1, *edges, 2**52 - 1, 2**52]])


def test_log_factorial_table_is_gammaln_bit_for_bit():
    ks = np.arange(200_001)
    assert np.array_equal(verify._log_factorials(200_000), gammaln(ks + 1.0))
    ks = _sampled_ks(29, 100_000)
    branch = np.searchsorted(LGAM_BRANCHES, ks + 1.0, side="right")
    assert np.bincount(branch).min() > 5_000  # every branch is well covered
    assert np.array_equal(verify._lgam(ks + 1.0), gammaln(ks + 1.0))


def test_log_factorial_table_is_built_once_and_grown(monkeypatch):
    monkeypatch.setattr(verify, "_log_factorial_table", np.zeros(0))
    fresh = verify._lgam(np.arange(5_001) + 1.0)
    slices = [verify._log_factorials(k) for k in (10, 5_000, 3)]
    for k, got in zip((10, 5_000, 3), slices):
        assert np.array_equal(got, fresh[:k + 1]), k
        assert not got.flags.writeable, k
    assert slices[2].base is slices[1].base  # k_max = 3 reads the table k_max = 5,000 built
    with pytest.raises(ValueError, match="read-only"):
        slices[1][0] = 1.0
    grown = verify._log_factorials(6_000)  # a larger k_max doubles the table
    assert len(verify._log_factorial_table) == 10_002
    assert np.array_equal(grown, verify._lgam(np.arange(6_001) + 1.0))
    assert verify._log_factorials(0).tolist() == [0.0]


def test_log_factorials_within_4_ulps_of_mpmath():
    # gammaln, and so the table, reaches 2.30 ulps of the exact log k! on these k
    mpmath = pytest.importorskip("mpmath")
    ks = _sampled_ks(4, 6_000)
    got = verify._lgam(ks + 1.0)
    with mpmath.workdps(50):
        for k, v in zip(ks.tolist(), got.tolist()):
            exact = mpmath.loggamma(mpmath.mpf(k) + 1)
            assert abs(mpmath.mpf(v) - exact) <= 4 * math.ulp(float(exact)), k


def test_poisson_log_weights_match_direct_gammaln_bit_for_bit():
    rng = np.random.default_rng(28)
    for n in rng.integers(1, 10_001, size=40).tolist():
        lo = int(rng.integers(0, n + 1))
        ks = np.arange(lo, lo + int(rng.integers(1, 300)))
        want = ks * math.log(n) - gammaln(ks + 1.0) - n
        assert np.array_equal(poisson_log_weights(n, ks), want), n
    # a column of n against a row of k, as the window sums pass them
    n = np.array([[9], [400], [10_000]])
    ks = np.array([[3, 7, 9_999]])
    log_n = np.array([[math.log(v)] for v in n.ravel().tolist()])
    want = ks * log_n - gammaln(ks + 1.0) - n
    assert np.array_equal(poisson_log_weights(n, ks), want)


@pytest.mark.parametrize("ks", [[-1], [0.5], [True]])
def test_poisson_log_weights_reject_ks_outside_the_nonnegative_integers(ks):
    with pytest.raises(ValueError, match="ks must be nonnegative integers"):
        poisson_log_weights(10, np.array(ks))
