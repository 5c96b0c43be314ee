"""Input domains: the domain of every numeric flag, _require, and a fuzzed CLI."""

import contextlib
import io
import json
import math
import os
import tempfile

import pytest
from hypothesis import given, strategies as st

from kreisslab import cli
from kreisslab.operators import _require

# tiny grids and counts: a run takes milliseconds (exp-criterion's first also imports scipy)
_OPS = ["--gallery", "jordan2_damped", "--radial", "4", "--angular", "4", "--refine-rounds", "0"]
BASE = {
    "kreiss": _OPS,
    "strong-kreiss": [*_OPS, "--n-max", "2"],
    "exp-criterion": [*_OPS, "--xi-max", "2"],
    "cesaro": [*_OPS, "--n-max", "4"],
    "growth": [*_OPS, "--n-max", "8", "--fit", "poly"],
    "bounds": [*_OPS, "--n-max", "4"],
    "positivity": [*_OPS, "--gallery", "shift4", "--n-list", "4", "--corpus", "2", "--seed", "1"],
    "decomp-scan": ["--trials", "3", "--ascent-steps", "1", "--max-support", "4", "--seed", "1"],
    "riesz-norm": ["--trials", "2", "--ascent-steps", "1", "--max-support", "4", "--seed", "1"],
    "marcinkiewicz": ["--trials", "2", "--span", "2", "--seed", "1"],
    "type-cotype": ["--samples", "50", "--seed", "1"],
    "verify-appendix": ["--n-max", "20"],
}
FLOAT_VALUES = ("nan", "inf", "-inf", "-1", "0", "0.5", "1e308")
# an int flag's parser turns the last three away.  No large count is drawn:
# one inside its domain sets the size of the run.
INT_VALUES = ("-1", "0", "nan", "0.5", "1e308")
NUMERIC = [(sub, dest) for sub in BASE for dest in cli.DEFAULTS[sub]
           if "domain" in cli._flag_spec(sub, dest)]


def _admits(domain, x):
    try:
        _require("x", x, *domain)
    except ValueError:
        return False
    return True


def _in_domain(sub, dest, text):
    spec = cli._flag_spec(sub, dest)
    try:
        return _admits(spec["domain"], spec.get("type", cli._parse_p)(text))
    except ValueError:  # int("nan"), int("0.5"), int("1e308")
        return False


def _main(argv):
    """(exit code, stderr) of main on argv(out) plus --out out; an exception escapes."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        try:
            code = cli.main([*argv(out), "--out", out])
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def _run(sub, dest, text):
    """_main on BASE[sub] plus --dest=text."""
    return _main(lambda _: [sub, *BASE[sub], f"{cli._option(dest)}={text}"])


def test_require_message_and_ends():
    with pytest.raises(ValueError, match=r"^p must lie in \[1, inf\), got nan$"):
        _require("p", math.nan, 1)
    for ends, admitted in (("[]", {0, 1}), ("()", set()), ("[)", {0}), ("(]", {1})):
        for x in (0, 1):
            assert _admits((0, 1, ends), x) == (x in admitted)


def test_every_numeric_flag_has_a_domain_that_rejects_its_outside():
    for dest, spec in cli.FLAGS.items():
        assert spec.get("type") not in (int, float) or "domain" in spec
    for sub, defaults in cli.DEFAULTS.items():
        for dest in defaults:
            domain = cli._flag_spec(sub, dest).get("domain")
            if domain is None:
                continue
            lo, hi, ends = domain
            assert not _admits(domain, math.nan)
            for end, bracket, out in ((lo, ends[0], -math.inf), (hi, ends[1], math.inf)):
                if bracket in "[]":
                    assert _admits(domain, end), (sub, dest)
                    assert math.isinf(end) or not _admits(domain, math.nextafter(end, out))
                else:  # an open infinite end rejects that infinity
                    assert not _admits(domain, end), (sub, dest)
                    assert _admits(domain, math.nextafter(end, -out))


@given(st.sampled_from(NUMERIC).flatmap(lambda sd: st.tuples(
    st.just(sd),
    st.sampled_from(INT_VALUES if cli._flag_spec(*sd).get("type") is int else FLOAT_VALUES))))
def test_fuzzed_flag_exits_0_1_or_2_and_rejects_by_name(case):
    (sub, dest), text = case
    code, err = _run(sub, dest, text)
    assert code in (0, 1, 2)
    if not _in_domain(sub, dest, text):
        assert code == 2
        assert f"argument {cli._option(dest)}:" in err


# plot stops at its missing --csv, after its config values are checked
CONFIG_KEYS = [(sub, key) for sub in [*BASE, "plot"] for key in cli.DEFAULTS[sub]]
CONFIG_VALUES = (2.5, True, "false", "x", None, -1, 0.5, [])


def _config_admits(sub, key, value):
    """Whether a config file's JSON value is of key's type in sub and inside its
    domain or choices: an int takes an int, a number no bool, a switch only a
    bool and text only a string; null only a flag whose default is null."""
    spec = cli._flag_spec(sub, key)
    if value is None:
        return cli.DEFAULTS[sub][key] is None
    if "action" in spec:
        return isinstance(value, bool)
    if "domain" not in spec:
        return isinstance(value, str) and value in spec.get("choices", (value,))
    numbers = (int,) if spec.get("type") is int else (int, float)
    return type(value) in numbers and _admits(spec["domain"], value)


def _config_run(sub, key, value):
    """_main on BASE[sub] without its --key, with a config file setting key to value."""
    base = BASE.get(sub, [])
    kept = [a for flag, text in zip(base[::2], base[1::2]) if flag != cli._option(key)
            for a in (flag, text)]

    def argv(tmp):
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({sub: {key: value}}, fh)
        return [sub, *kept, "--config", path]

    return _main(argv)


@given(st.sampled_from(CONFIG_KEYS), st.sampled_from(CONFIG_VALUES))
def test_fuzzed_config_value_exits_0_1_or_2_and_rejects_by_name(sub_key, value):
    sub, key = sub_key
    code, err = _config_run(sub, key, value)
    assert code in (0, 1, 2)
    if not _config_admits(sub, key, value):
        assert code == 2
        assert f"argument {cli._flag_spec(sub, key).get('flag', cli._option(key))}:" in err


@pytest.mark.parametrize("argv, xi", [
    (["--gallery", "identity3", "--radial", "8", "--angular", "8", "--xi-max", "1000"], "750"),
    # xi_max * 2 is inf on the modulus grid
    ([*BASE["exp-criterion"], "--xi-max=1e308"], "2.5e+307"),
], ids=["expm", "grid"])
def test_known_in_domain_overflow(argv, xi):
    # e^(xi T) past the float range: exit 2 naming the least such |xi|, before any SVD
    code, err = _main(lambda _: ["exp-criterion", *argv])
    assert code == 2
    assert f"error: e^(xi T) left the float range at |xi| = {xi}\n" in err


def _finite(value):
    """Whether every number in a report is finite (JSON writes inf and nan as strings)."""
    if isinstance(value, dict):
        return all(_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite(v) for v in value)
    if isinstance(value, float):
        return math.isfinite(value)
    return value not in ("inf", "-inf", "nan")


@pytest.mark.parametrize("sub", ["decomp-scan", "riesz-norm", "marcinkiewicz", "type-cotype"])
def test_huge_inner_p_runs_to_finite_values(sub, tmp_path):
    # a^inner_p overflows for |a| > 1; fourier._inner_norms then factors the row max out
    argv = [sub, *BASE[sub], "--inner-p", "1e308", "--out", str(tmp_path)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    reports = [name for name in os.listdir(tmp_path)
               if name.endswith(".json") and name != "run_meta.json"]
    assert len(reports) == 1
    with open(tmp_path / reports[0], encoding="utf-8") as fh:
        report = json.load(fh)
    assert report["config"]["inner_p"] == "1e308"
    assert _finite(report)


@pytest.mark.parametrize("inner_p", [1e20, 1e308])
def test_huge_inner_p_takes_the_inner_p_inf_value(inner_p):
    # type-cotype --samples 50 --seed 1: an entry of modulus 1 - 1 ulp once
    # raised to 0 at a huge finite inner_p, and the constant read 0.685565
    from kreisslab.decomp import rademacher_constants

    xs = [[1.0, 0.0], [0.0, 1.0]]  # the default basis family at dim 2
    want = rademacher_constants(xs, 2.0, samples=50, seed=1, inner_p=math.inf)
    got = rademacher_constants(xs, 2.0, samples=50, seed=1, inner_p=inner_p)
    assert want.value == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    assert got.value == pytest.approx(want.value, abs=1e-12)


@pytest.mark.parametrize("sub", sorted(cli.OPERATOR_SUBS))
def test_huge_p_runs_to_finite_values(sub, tmp_path):
    # a^(p-1) in the ascent direction would overflow; the power-of-two shift in
    # norms.ascent_lower_bounds takes each matrix's peak entry down far enough
    _assert_finite_reports([sub, *BASE[sub], "--p", "1e308"], tmp_path)


# exp-criterion and positivity overflowed in the gradient already at p = 600 and 1000
@pytest.mark.parametrize("sub, p", [*((sub, "10000") for sub in sorted(cli.OPERATOR_SUBS)),
                                    ("exp-criterion", "600"), ("positivity", "1000")])
def test_large_p_gradient_runs_to_finite_values(sub, p, tmp_path):
    # the gradient's squared 2-norm overflows unless norms.ascent_lower_bounds
    # scales a matrix whose peak entry is past its threshold down to it
    _assert_finite_reports([sub, *BASE[sub], "--p", p], tmp_path)


def _assert_finite_reports(argv, tmp_path):
    """main on argv exits 0 and writes reports whose numbers are all finite."""
    argv = [*argv, "--out", str(tmp_path)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    reports = [name for name in os.listdir(tmp_path)
               if name.endswith(".json") and name != "run_meta.json"]
    assert reports
    for name in reports:
        with open(tmp_path / name, encoding="utf-8") as fh:
            assert _finite(json.load(fh)), name


def _library_calls():
    from kreisslab.decomp import DecompSearchConfig, estimate_constant, rademacher_constants
    from kreisslab.fourier import (ExtremalSearchConfig, TrigPolynomial, lp_torus_norm,
                                   riesz_norm_lower_bound)
    from kreisslab.norms import AscentConfig, operator_p_norm, power_norm_sequence, vector_p_norm
    from kreisslab.operators import OperatorSpec, make_gallery_operator
    from kreisslab.positivity import PositiveOperator, block_bound_check, krivine_checks
    from kreisslab.power import check_universal_bounds
    from kreisslab.resolvent import (SearchConfig, exponential_criterion,
                                     gz_partial_resolvent_ratio, strong_kreiss_constant)
    from kreisslab.verify import sweep_appendix

    T = make_gallery_operator(OperatorSpec("identity", 2))
    P = PositiveOperator(T)
    f = TrigPolynomial((0, 1), [[1.0], [1.0]], 1)
    cfg = SearchConfig(radial_count=4, angular_count=4, refine_rounds=0)
    nan = math.nan
    return {
        # -inf would pass for inf in the exact-norm branch
        "p": [lambda: vector_p_norm([1.0], nan), lambda: operator_p_norm(T, -math.inf),
              lambda: power_norm_sequence(T, -math.inf, 2), lambda: SearchConfig(p=nan),
              lambda: lp_torus_norm(f, math.inf, 2.0), lambda: riesz_norm_lower_bound(nan, 1),
              lambda: estimate_constant(nan, 2.0)],
        "restarts": [lambda: AscentConfig(restarts=0)],
        "rel_tol": [lambda: AscentConfig(rel_tol=nan), lambda: AscentConfig(rel_tol=-1e-10),
                    lambda: AscentConfig(rel_tol=math.inf)],
        "seed": [lambda: AscentConfig(seed=-1), lambda: SearchConfig(seed=-1),
                 lambda: DecompSearchConfig(seed=-1), lambda: ExtremalSearchConfig(seed=-1)],
        "r_max": [lambda: SearchConfig(r_max=math.inf)],
        "n_max": [lambda: strong_kreiss_constant(T, cfg, 0)],
        "xi_max": [lambda: exponential_criterion(T, cfg, nan)],
        "ks_ref": [lambda: gz_partial_resolvent_ratio(T, cfg, 2, nan),
                   lambda: block_bound_check(P, 1.5, nan, 4)],
        "k_ref": [lambda: check_universal_bounds(T, 2.0, nan, 1.0, 4)],
        "inner_p": [lambda: lp_torus_norm(f, 2.0, nan)],
        "gamma": [lambda: estimate_constant(2.0, 2.0, gamma=nan)],
        "trials": [lambda: DecompSearchConfig(trials=0), lambda: ExtremalSearchConfig(trials=-1)],
        "ascent_steps": [lambda: ExtremalSearchConfig(ascent_steps=-1)],
        "max_support": [lambda: ExtremalSearchConfig(max_support=-5)],
        "exponent": [lambda: rademacher_constants([[1.0]], nan)],
        "q": [lambda: krivine_checks(P, [[1.0, 1.0]], 4, 2.0)],
        "n": [lambda: krivine_checks(P, [[1.0, 1.0]], 1, 1.5)],
        "n_lo": [lambda: sweep_appendix(1, 5)],
        "n_hi": [lambda: sweep_appendix(5, 3)],
    }


def test_library_range_checks_name_the_argument():
    for name, calls in _library_calls().items():
        for call in calls:
            with pytest.raises(ValueError, match=f"^{name} must lie in "):
                call()
