"""Acceptance gate: every shipped claim at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Each test is independent and pins its own tolerances; nothing is
deferred to calibration elsewhere.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from kreisslab.cli import main as cli_main
from kreisslab.decomp import decomposition_ratio, hoelder_growth_check, pairing_duality_check
from kreisslab.fourier import (
    Interval,
    IntervalPartition,
    TrigPolynomial,
    lp_torus_norm,
    project_interval,
    quadrature_points,
)
from kreisslab.norms import power_norm_sequence
from kreisslab.operators import OperatorSpec, gallery, gallery_entry, make_gallery_operator
from kreisslab.positivity import PositiveOperator, krivine_checks
from kreisslab.power import growth_fit
from kreisslab.resolvent import SearchConfig, cesaro_partial_sum_bound, kreiss_constant, \
    strong_kreiss_constant
from kreisslab.verify import sweep_appendix


def _report(num, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num:>2}: {status} - {detail}")
    assert passed, detail


# ---------------------------------------------------------------------------


def test_criterion_01_appendix_a2_sweep():
    t0 = time.time()
    table = sweep_appendix(2, 10_000)
    elapsed = time.time() - t0
    sup_ok = bool(np.all(table["sup_a"] <= 32.0 + 1e-9))
    v1_ok = bool(np.all(table["v1_a"] <= 978.0 + 1e-9))
    _report(
        1,
        sup_ok and v1_ok and elapsed <= 60.0,
        f"a_{{n,m}} sweep n in [2,1e4]: sup<=32 {sup_ok}, V1<=978 {v1_ok}, "
        f"{elapsed:.1f}s (limit 60s)",
    )


def test_criterion_02_appendix_a1_sweep():
    t0 = time.time()
    slack = sweep_appendix(2, 10_000)["a1_min_slack"]
    elapsed = time.time() - t0
    slack_ok = bool(np.all(slack >= -1e-10))
    _report(
        2,
        slack_ok and elapsed <= 60.0,
        f"sandwich estimate sweep n in [2,1e4], k in [0,2 sqrt n]: min slack "
        f"{np.min(slack):.4g} >= -1e-10, {elapsed:.1f}s (limit 60s)",
    )


def test_criterion_03_analytic_kreiss_constants():
    t0 = time.time()
    specs = {
        "identity": OperatorSpec("identity", 3),
        "zero": OperatorSpec("zero", 2),
        "nilpotent": OperatorSpec("nilpotent", 2, coupling=2.0),
    }
    values = {}
    for name, spec in specs.items():
        est = kreiss_constant(make_gallery_operator(spec), SearchConfig(p=2.0))
        values[name] = est.value
    elapsed = time.time() - t0
    ok = all(1 - 1e-3 <= v <= 1 + 1e-6 for v in values.values())
    _report(
        3,
        ok and elapsed <= 30.0,
        f"closed-form gallery K_lower {values} all in [1-1e-3, 1+1e-6], "
        f"{elapsed:.1f}s (limit 30s)",
    )


def test_criterion_04_consistency_chain():
    cfg = SearchConfig()
    bad = []
    for entry in gallery():
        T = make_gallery_operator(entry.spec)
        if T.spectral_radius() > 1 + 1e-9:
            continue
        k = kreiss_constant(T, cfg).value
        ks = strong_kreiss_constant(T, cfg, 16).value
        if not (k <= ks + 1e-9 and k >= 1 - 1e-6 and ks >= 1 - 1e-6):
            bad.append((entry.name, k, ks))
    _report(4, not bad, f"K_lower <= Ks_lower + 1e-9 and both >= 1 - 1e-6 "
                        f"for every contractive gallery operator (violations: {bad})")


def test_criterion_05_partial_sum_lemma(tmp_path):
    cfg = SearchConfig(angular_count=720)
    flagged = []
    for entry in gallery():
        T = make_gallery_operator(entry.spec)
        if T.spectral_radius() > 1 + 1e-9:
            continue
        ks = strong_kreiss_constant(T, SearchConfig(), 16).value
        res = cesaro_partial_sum_bound(T, cfg, 1000)
        ratio = res.value / (20.0 * ks)
        if ratio > 1 + 1e-6:
            flagged.append({"operator": entry.name, "ratio": ratio,
                            "lambda": {"re": res.argmax.real, "im": res.argmax.imag},
                            "n": res.n_at_max})
    if flagged:
        witness = tmp_path / "witness_partial_sum.json"
        witness.write_text(json.dumps(flagged, indent=2))
        _report(5, witness.exists(),
                f"partial sums exceeded 20 Ks (n+1) for {len(flagged)} operators; "
                f"witness file emitted for review at {witness}")
    else:
        _report(5, True,
                "||sum l^k T^k|| <= 20 Ks_lower (n+1)(1+1e-6) on 720-point circle, "
                "n <= 1e3, all contractive gallery operators")


def test_criterion_06_growth_fitting():
    rng = np.random.default_rng(616)
    n = np.arange(1, 2**14 + 1, dtype=float)
    worst = 0.0
    for alpha in (0.0, 0.25, 0.5, 1.0):
        for beta in (0.0, 1.0, 2.0):
            v = n**alpha * np.log(n + 2.0) ** beta
            v = v * (1.0 + 0.01 * rng.standard_normal(n.size))
            fit = growth_fit(list(zip(n.astype(int), v)), "poly_log")
            worst = max(worst, abs(fit.alpha - alpha))
    T = make_gallery_operator(OperatorSpec("jordan", 2, eigenvalue=1.0, coupling=1.0))
    lower, _ = power_norm_sequence(T, math.inf, 4096)
    jfit = growth_fit(list(enumerate(lower.tolist(), 1)), "poly")
    ok = worst <= 0.05 and abs(jfit.alpha - 1.0) <= 0.02
    _report(6, ok, f"synthetic alpha recovery worst error {worst:.4f} <= 0.05; "
                   f"Jordan fit alpha = {jfit.alpha:.4f} within 1 +/- 0.02")


def test_criterion_07_universal_ceilings():
    cfg = SearchConfig()
    bad = []
    for name in ("identity3", "rotation1", "rotation3"):
        T = make_gallery_operator(gallery_entry(name).spec)
        k_ref = kreiss_constant(T, cfg).value
        ks_ref = strong_kreiss_constant(T, cfg, 16).value
        _, upper = power_norm_sequence(T, 2.0, 10_000)
        for m, up in enumerate(upper.tolist(), 1):
            if up > ks_ref * math.sqrt(2 * math.pi * (m + 1)) * (1 + 1e-6):
                bad.append((name, "strong", m))
                break
            if up > k_ref * math.e * (m + 1) * (1 + 1e-6):
                bad.append((name, "kreiss", m))
                break
    _report(7, not bad,
            f"power-bounded gallery: ||T^n|| under Ks sqrt(2 pi (n+1)) and "
            f"K e (n+1) ceilings for n <= 1e4 (violations: {bad})")


def test_criterion_08_fourier_engine():
    rng = np.random.default_rng(88)
    worst_proj = 0.0
    worst_parseval = 0.0
    for _ in range(1000):
        size = int(rng.integers(2, 9))
        d = int(rng.integers(1, 4))
        freqs = tuple(int(x) for x in rng.choice(np.arange(-12, 13), size=size, replace=False))
        f = TrigPolynomial(
            freqs, rng.standard_normal((size, d)) + 1j * rng.standard_normal((size, d)), d
        )
        cut = int(rng.integers(-12, 13))
        lo = Interval(None, cut)
        hi = Interval(cut + 1, None)
        once = project_interval(f, lo)
        # idempotence + disjoint annihilation + partition of unity, coefficientwise
        again = project_interval(once, lo)
        worst_proj = max(worst_proj, float(np.max(np.abs(again.vecs - once.vecs), initial=0.0)))
        cross = project_interval(once, hi)
        worst_proj = max(worst_proj, float(np.max(np.abs(cross.vecs), initial=0.0)))
        back_at = {}
        for g in (project_interval(f, lo), project_interval(f, hi)):
            for n, v in zip(g.freqs, g.vecs):
                back_at[n] = back_at.get(n, 0) + v
        diff = {n: back_at.get(n, 0) - v for n, v in zip(f.freqs, f.vecs)}
        worst_proj = max(
            worst_proj, max(float(np.max(np.abs(v))) for v in diff.values())
        )
        total = lp_torus_norm(f, 2.0, 2.0).value
        parseval = math.sqrt(float(np.sum(np.abs(f.vecs) ** 2)))
        worst_parseval = max(worst_parseval, abs(total - parseval) / parseval)
    poly = TrigPolynomial.from_coeffs({-3: 1 + 2j, 0: -1.0, 2: 0.5})
    base = lp_torus_norm(poly, 4.0, 2.0)
    doubled = lp_torus_norm(poly, 4.0, 2.0, n_points=2 * quadrature_points(poly, 4.0, 2.0)[0])
    flag_err = abs(doubled.value - base.value) / base.value
    ok = worst_proj <= 1e-12 and worst_parseval <= 1e-10 and base.exact and flag_err <= 1e-12
    _report(8, ok,
            f"projection algebra {worst_proj:.2e} <= 1e-12 on 1e3 seeded polynomials; "
            f"Parseval {worst_parseval:.2e} <= 1e-10; N-doubling drift {flag_err:.2e} <= 1e-12")


def test_criterion_09_decomposition_rigidity():
    rng = np.random.default_rng(99)
    worst = 0.0
    worst_q1 = 0.0
    for _ in range(1000):
        size = int(rng.integers(2, 8))
        d = int(rng.integers(1, 4))
        freqs = sorted(int(x) for x in rng.choice(np.arange(-10, 11), size=size, replace=False))
        f = TrigPolynomial(
            tuple(freqs), rng.standard_normal((size, d)) + 1j * rng.standard_normal((size, d)), d
        )
        cuts = rng.integers(0, 2, size=size - 1)
        blocks, start, prev = [], freqs[0], freqs[0]
        for i, c in enumerate(cuts):
            if c:
                blocks.append((start, prev))
                start = freqs[i + 1]
            prev = freqs[i + 1]
        blocks.append((start, prev))
        part = IntervalPartition(tuple(blocks))
        for side in ("upper", "lower"):
            worst = max(worst, abs(decomposition_ratio(f, part, 2.0, 2.0, 2.0, side) - 1.0))
        worst_q1 = max(
            worst_q1, decomposition_ratio(f, part, 2.0, 1.0, 2.0, "upper") - 1.0
        )
    ok = worst <= 1e-9 and worst_q1 <= 1e-9
    _report(9, ok, f"Parseval rigidity |ratio-1| {worst:.2e} <= 1e-9 on 1e3 pairs; "
                   f"triangle-inequality q=1 upper excess {worst_q1:.2e} <= 1e-9")


def test_criterion_10_hoelder_and_pairing_margins():
    rng = np.random.default_rng(1010)
    worst_h = math.inf
    for _ in range(10_000):
        size = int(rng.integers(2, 7))
        freqs = sorted(int(x) for x in rng.choice(np.arange(-8, 9), size=size, replace=False))
        d = int(rng.integers(1, 3))
        f = TrigPolynomial(
            tuple(freqs), rng.standard_normal((size, d)) + 1j * rng.standard_normal((size, d)), d
        )
        part = IntervalPartition(tuple((n, n) for n in freqs))
        q = 1.0 + 2.0 * rng.random()
        r = q + 3.0 * rng.random()
        worst_h = min(worst_h, hoelder_growth_check(f, part, 2.0, q, r))
    worst_p = math.inf
    skipped = 0
    for _ in range(10_000):
        size = int(rng.integers(2, 6))
        freqs = tuple(int(x) for x in rng.choice(np.arange(-5, 6), size=size, replace=False))
        f = TrigPolynomial(
            freqs, rng.standard_normal((size, 1)) + 1j * rng.standard_normal((size, 1)), 1
        )
        g = TrigPolynomial(
            freqs, rng.standard_normal((size, 1)) + 1j * rng.standard_normal((size, 1)), 1
        )
        part = IntervalPartition(tuple((n, n) for n in sorted(freqs)))
        margin = pairing_duality_check(f, g, part, 2.0, 2.0)
        if margin is None:
            skipped += 1
            continue
        worst_p = min(worst_p, margin)
    ok = worst_h >= 1 - 1e-9 and worst_p >= 1 - 1e-9
    _report(10, ok, f"Hoelder-trick min margin {worst_h:.12f} and pairing-duality min "
                    f"margin {worst_p:.12f} both >= 1 - 1e-9 on 1e4 instances "
                    f"({skipped} zero-pairing skips)")


def test_criterion_11_krivine_positivity():
    rng = np.random.default_rng(1111)
    worst = math.inf
    checks = 0
    for entry in (e for e in gallery() if e.positive):
        T = PositiveOperator(make_gallery_operator(entry.spec))
        corpus = np.abs(rng.standard_normal((100, T.dim)))
        corpus /= np.sum(corpus, axis=1, keepdims=True)
        for n in (4, 16, 64, 256):
            for res in krivine_checks(T, corpus, n, 1.5):
                if res.tail_rel >= 1e-8:
                    _report(11, False, f"tail certificate {res.tail_rel} too weak")
                worst = min(worst, res.margin)
                checks += 1
    _report(11, worst >= 1 - 1e-8,
            f"Krivine margin min {worst if math.isfinite(worst) else 'inf'} >= 1 - 1e-8 "
            f"over {checks} (operator, x, n) checks with tail certificates < 1e-8")


def test_criterion_12_deterministic_reports(tmp_path):
    def tree(root):
        snap = {}
        for dirpath, _dirs, files in os.walk(root):
            for name in files:
                if name == "run_meta.json":
                    continue
                p = os.path.join(dirpath, name)
                snap[os.path.relpath(p, root)] = open(p, "rb").read()
        return snap

    argv_sets = [
        ["decomp-scan", "--p", "2", "--q", "2", "--side", "lower", "--trials", "60",
         "--max-support", "8", "--seed", "12"],
        ["riesz-norm", "--p", "4", "--dim", "1", "--trials", "40", "--seed", "12"],
        ["verify-appendix", "--n-max", "120"],
        ["growth", "--op", "jordan", "--dim", "2", "--p", "inf", "--n-max", "256",
         "--fit", "both"],
        ["positivity", "--gallery", "shift4", "--q", "1.5", "--n-list", "4,16",
         "--corpus", "12", "--seed", "12", "--radial", "8", "--angular", "8"],
    ]
    identical = True
    for i, argv in enumerate(argv_sets):
        a, b = tmp_path / f"a{i}", tmp_path / f"b{i}"
        cli_main(argv + ["--out", str(a)])
        cli_main(argv + ["--out", str(b)])
        if tree(a) != tree(b):
            identical = False
            break
    _report(12, identical,
            "byte-identical reports across repeated runs with identical argv+seed "
            f"for {len(argv_sets)} subcommands (run_meta.json excluded)")
