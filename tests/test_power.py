import math

import numpy as np
import pytest

from kreisslab.norms import power_norm_sequence
from kreisslab.operators import ComplexMatrix, OperatorSpec, make_gallery_operator
from kreisslab.power import bounds_flagged, check_universal_bounds, growth_fit
from kreisslab.resolvent import SearchConfig, kreiss_constant


def test_fit_exact_linear_data():
    data = [(n, float(n)) for n in range(1, 513)]
    fit = growth_fit(data, "poly")
    assert fit.alpha == pytest.approx(1.0, abs=1e-9)
    assert fit.residual <= 1e-9


def test_fit_strong_kreiss_ceiling_slope():
    # the generic square-root ceiling sqrt(2 pi (n+1)) has log-slope 1/2
    data = [(n, math.sqrt(2 * math.pi * (n + 1))) for n in range(64, 4097)]
    fit = growth_fit(data, "poly")
    assert fit.alpha == pytest.approx(0.5, abs=0.02)


def test_fit_jordan_power_norms():
    T = ComplexMatrix([[1, 1], [0, 1]])
    lower, _ = power_norm_sequence(T, math.inf, 4096)
    # closed form ||T^n||_inf = n + 1
    assert lower[99] == pytest.approx(101.0)
    fit = growth_fit(list(enumerate(lower.tolist(), 1)), "poly")
    assert fit.alpha == pytest.approx(1.0, abs=0.02)


def test_fit_poly_log_recovers_both_exponents():
    rng = np.random.default_rng(3)
    n = np.arange(1, 2**14 + 1, dtype=float)
    v = n**0.5 * np.log(n + 2) ** 2 * (1 + 0.01 * rng.standard_normal(n.size))
    fit = growth_fit(list(zip(n.astype(int), v)), "poly_log")
    assert fit.alpha == pytest.approx(0.5, abs=0.05)
    assert fit.beta == pytest.approx(2.0, abs=0.3)


def test_fit_validation_errors():
    with pytest.raises(ValueError):
        growth_fit([(1, 1.0)] * 4, "poly")  # too few
    with pytest.raises(ValueError):
        growth_fit([(n, -1.0) for n in range(1, 10)], "poly")
    with pytest.raises(ValueError):
        growth_fit([(n, 1.0) for n in [1, 2, 2, 3, 4, 5, 6, 7]], "poly")
    with pytest.raises(ValueError):
        growth_fit([(n, 1.0) for n in range(1, 10)], "cubic")
    for bad in (math.inf, math.nan):  # no log to fit: a NaN fit otherwise
        with pytest.raises(ValueError, match=f"^the value at n = 5 is {bad}; a fit needs finite"):
            growth_fit([(n, bad if n == 5 else 1.0) for n in range(1, 10)], "poly")


def test_fit_residual_reproduces_input():
    data = [(n, 3.0 * n**0.7) for n in range(1, 200)]
    fit = growth_fit(data, "poly")
    lo, hi = fit.n_range
    worst = 0.0
    for n, v in data:
        if lo <= n <= hi:
            model = fit.logC + fit.alpha * math.log(n)
            worst = max(worst, abs(model - math.log(v)))
    assert fit.residual <= worst + 1e-12


def test_check_bounds_identity_margins():
    T = make_gallery_operator(OperatorSpec("identity", 3))
    rep, _ = check_universal_bounds(T, 2.0, 1.0, 1.0, 64)
    assert rep["min_margin_kreiss"] >= 1.0
    assert rep["min_margin_strong"] >= 1.0
    assert rep["min_margin_matrixthm"] >= 1.0
    assert not bounds_flagged(rep)


def test_check_bounds_rotation_margins():
    T = make_gallery_operator(OperatorSpec("rotation", 1, angles=0.3))
    rep, _ = check_universal_bounds(T, 2.0, 1.0, 1.0, 128)
    assert rep["min_margin_strong"] >= 1.0
    assert not bounds_flagged(rep)


def test_check_bounds_jordan_consistency_finding():
    # ||T^n||_inf = n+1 beats the dimension ceiling K e d once n+1 > 2 e K,
    # which flags the lower-bound substitution; the resolvent search must
    # then confirm a Kreiss constant at least as large as the implied floor
    T = ComplexMatrix([[1, 1], [0, 1]])
    rep, _ = check_universal_bounds(T, math.inf, 1.0, 1.0, 256)
    assert rep["min_margin_matrixthm"] < 1.0
    assert bounds_flagged(rep)
    assert rep["implied_k_floor_matrixthm"] == pytest.approx(257 / (math.e * 2), rel=1e-12)
    k = kreiss_constant(T, SearchConfig())
    assert k.value >= rep["implied_k_floor_matrixthm"] - 1e-6
    # with the search floor as reference, the combined floor is the larger of the two
    rep_k, _ = check_universal_bounds(T, math.inf, k.value, 1.0, 256)
    assert rep_k["combined_k_floor"] == max(k.value, rep["implied_k_floor_matrixthm"])


def test_check_bounds_nilpotent_infinite_margin():
    T = make_gallery_operator(OperatorSpec("nilpotent", 2, coupling=2.0))
    _, table = check_universal_bounds(T, 2.0, 1.0, 1.0, 8)
    assert math.isinf(table["margin_strong"][-1])


def test_bounds_csv_rows_shape():
    T = make_gallery_operator(OperatorSpec("identity", 2))
    _, table = check_universal_bounds(T, 2.0, 1.0, 1.0, 5)
    assert list(table) == ["n", "norm_lower", "norm_upper", "ceiling_kreiss", "ceiling_strong",
                           "ceiling_matrixthm", "margin_kreiss", "margin_strong",
                           "margin_matrixthm"]
    assert all(len(col) == 5 for col in table.values())
    assert table["n"][2] == 3


def test_check_bounds_rejects_bad_refs():
    T = make_gallery_operator(OperatorSpec("identity", 2))
    with pytest.raises(ValueError):
        check_universal_bounds(T, 2.0, 0.0, 1.0, 4)
