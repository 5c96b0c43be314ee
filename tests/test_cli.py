import argparse
import json
import math
import os
import subprocess
import sys
import xml.dom.minidom

import numpy as np
import pytest

import kreisslab
from kreisslab import cli, fourier
from kreisslab.cli import build_parser, main
from kreisslab.operators import ComplexMatrix, gallery_entry, make_gallery_operator, save_matrix
from kreisslab.verify import bound_m_range
from oracles import marcinkiewicz_one_trial_at_a_time


def read(path):
    with open(path) as fh:
        return json.load(fh)


def as_float(v):
    # canonical JSON encodes non-finite floats as the strings "inf"/"-inf"/"nan"
    return float(v)


def run(argv):
    return main(argv)


def _modules_after(code):
    """(scipy, kreisslab): the sets of scipy and kreisslab modules loaded once code
    has run in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(kreisslab.__file__)))
    code += ("; print(json.dumps([sorted(m for m in sys.modules if m.split('.')[0] == top)"
             " for top in ('scipy', 'kreisslab')]))")
    res = subprocess.run([sys.executable, "-c", f"import json; {code}"], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True)
    return tuple(map(set, json.loads(res.stdout.strip().splitlines()[-1])))


def test_cli_import_leaves_scipy_unloaded():
    # scipy is imported where expm is used (exp-criterion), not with the CLI; the
    # computation modules are imported by the handlers that run them
    scipy, loaded = _modules_after("import sys, kreisslab.cli")
    assert scipy == set()
    assert loaded == {"kreisslab", "kreisslab.cli", "kreisslab.operators", "kreisslab.reporting"}


@pytest.mark.parametrize("argv, unused", [
    (["verify-appendix", "--n-max", "50"], {"resolvent", "norms", "decomp", "fourier"}),
    (["positivity", "--gallery", "shift4", "--q", "1.5", "--n-list", "4", "--corpus", "2",
      "--seed", "1"], {"decomp", "fourier", "power"}),
    (["kreiss", "--gallery", "jordan2_damped", "--radial", "4", "--angular", "4"],
     {"decomp", "fourier", "positivity", "verify", "power"}),
    (["decomp-scan", "--trials", "2", "--ascent-steps", "1", "--max-support", "4", "--seed", "1"],
     {"resolvent", "positivity", "power", "verify"}),
], ids=["verify-appendix", "positivity", "kreiss", "decomp-scan"])
def test_log_factorial_runs_leave_scipy_unloaded(argv, unused, tmp_path):
    # the log-factorial table is numpy's own: no scipy.special behind it; and a
    # subcommand loads none of the computation modules it does not run
    code = (f"import sys, kreisslab.cli; "
            f"kreisslab.cli.main({[*argv, '--out', str(tmp_path / 'o')]!r})")
    scipy, loaded = _modules_after(code)
    assert scipy == set()
    assert not loaded & {f"kreisslab.{name}" for name in unused}


@pytest.mark.parametrize("sub, extra", [
    ("growth", []), ("bounds", ["--k-ref", "1", "--ks-ref", "1"]), ("cesaro", ["--ks-ref", "1"]),
])
def test_power_ledger_overflow_exits_2(sub, extra, tmp_path):
    # numpy's overflow warnings keep their default filter here: the suite's
    # error::RuntimeWarning would raise them before the ledger sees the inf
    src = os.path.dirname(os.path.dirname(os.path.abspath(kreisslab.__file__)))
    argv = [sub, "--op", "jordan", "--dim", "2", "--eigenvalue", "1e308", "--coupling", "1e308",
            "--n-max", "16", "--angular", "4", *extra, "--out", str(tmp_path / "o")]
    res = subprocess.run([sys.executable, "-m", "kreisslab.cli", *argv], capture_output=True,
                         text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": src, "PYTHONWARNINGS": "default"})
    assert res.returncode == 2
    assert "error: power scale ledger left the representable range" in res.stderr
    assert "Traceback" not in res.stderr


# every subcommand's flags, recorded from build_parser(sub): "option dest type
# choices action default" -> the subcommands that have that flag
_OPS = "kreiss strong-kreiss exp-criterion cesaro growth bounds positivity"
_SEEDED = "decomp-scan riesz-norm marcinkiewicz type-cotype"
PARSER_SURFACE = {
    "--out out - - _StoreAction None": f"{_OPS} {_SEEDED} verify-appendix gallery-list plot",
    "--config config - - _StoreAction None": f"{_OPS} {_SEEDED} verify-appendix gallery-list plot",
    "--gallery gallery - - _StoreAction None": _OPS,
    "--op op - - _StoreAction None": _OPS,
    "--dim dim int - _StoreAction None": f"{_OPS} riesz-norm marcinkiewicz type-cotype",
    "--scale scale - - _StoreAction None": _OPS,
    "--eigenvalue eigenvalue - - _StoreAction None": _OPS,
    "--coupling coupling float - _StoreAction None": _OPS,
    "--weights weights - - _StoreAction None": _OPS,
    "--angles angles - - _StoreAction None": _OPS,
    "--matrix-file matrix_file - - _StoreAction None": _OPS,
    "--p p - - _StoreAction None": f"{_OPS} decomp-scan riesz-norm marcinkiewicz",
    "--r-max r_max float - _StoreAction None": _OPS,
    "--radial radial int - _StoreAction None": _OPS,
    "--angular angular int - _StoreAction None": _OPS,
    "--refine-rounds refine_rounds int - _StoreAction None": _OPS,
    "--seed seed int - _StoreAction None": f"{_OPS} {_SEEDED}",
    "--n-max n_max int - _StoreAction None": "strong-kreiss cesaro growth bounds verify-appendix",
    "--xi-max xi_max float - _StoreAction None": "exp-criterion",
    "--ks-ref ks_ref float - _StoreAction None": "cesaro bounds positivity",
    "--gz gz - - _StoreTrueAction None": "cesaro",
    "--fit fit - poly,poly_log,both _StoreAction None": "growth",
    "--k-ref k_ref float - _StoreAction None": "bounds",
    "--q q - - _StoreAction None": "decomp-scan",
    "--inner-p inner_p - - _StoreAction None": "decomp-scan riesz-norm marcinkiewicz type-cotype",
    "--side side - upper,lower _StoreAction None": "decomp-scan",
    "--gamma gamma float - _StoreAction None": "decomp-scan",
    "--trials trials int - _StoreAction None": "decomp-scan riesz-norm marcinkiewicz",
    "--ascent-steps ascent_steps int - _StoreAction None": "decomp-scan riesz-norm",
    "--max-support max_support int - _StoreAction None": "decomp-scan riesz-norm",
    "--max-dim max_dim int - _StoreAction None": "decomp-scan",
    "--span span int - _StoreAction None": "marcinkiewicz",
    "--kind kind - type,cotype _StoreAction None": "type-cotype",
    "--exponent exponent float - _StoreAction None": "type-cotype",
    "--count count int - _StoreAction None": "type-cotype",
    "--family family - basis,random _StoreAction None": "type-cotype",
    "--samples samples int - _StoreAction None": "type-cotype",
    "--q q float - _StoreAction None": "positivity",
    "--n-list n_list - - _StoreAction None": "positivity",
    "--corpus corpus int - _StoreAction None": "positivity",
    "--n-min n_min int - _StoreAction None": "verify-appendix",
    "--csv csv - - _StoreAction None": "plot",
    "--x-col x_col - - _StoreAction None": "plot",
    "--y-cols y_cols - - _StoreAction None": "plot",
    "--linear-x log_x - - _StoreFalseAction None": "plot",
    "--linear-y log_y - - _StoreFalseAction None": "plot",
    "--title title - - _StoreAction None": "plot",
}


def _subparsers(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_parser_surface_is_pinned():
    # the parser main builds for each subcommand names every subcommand, with the
    # text of the bare parser, and gives only that subcommand flags
    bare = build_parser(None)
    names = list(_subparsers(bare))
    assert names == list(kreisslab.cli.DEFAULTS)
    surface = {}
    for sub in names:
        parser = build_parser(sub)
        assert parser.format_help() == bare.format_help()
        subs = _subparsers(parser)
        assert list(subs) == names
        for name, sp in subs.items():
            if name != sub:
                assert [a.option_strings for a in sp._actions] == [["-h", "--help"]]
        for a in subs[sub]._actions:
            if not isinstance(a, argparse._HelpAction):
                row = " ".join([",".join(a.option_strings), a.dest,
                                getattr(a.type, "__name__", "-"),
                                ",".join(a.choices) if a.choices else "-",
                                type(a).__name__, repr(a.default)])
                surface.setdefault(row, set()).add(sub)
    assert surface == {row: set(subs.split()) for row, subs in PARSER_SURFACE.items()}
    # the bare parser, for --help, --version and an unknown subcommand, adds no flag
    for sp in _subparsers(bare).values():
        assert [a.option_strings for a in sp._actions] == [["-h", "--help"]]


def test_repeated_main_calls_match_fresh_runs(tmp_path):
    # build_parser is memoized: a flag given to one call must not reach the next
    src = os.path.dirname(os.path.dirname(os.path.abspath(kreisslab.__file__)))
    for i, (flags, p) in enumerate(((["--p", "3"], "3"), ([], "2"))):
        argv = ["kreiss", "--gallery", "jordan2_damped", "--radial", "8", "--angular", "8", *flags]
        assert run([*argv, "--out", str(tmp_path / f"seq{i}")]) == 0
        subprocess.run([sys.executable, "-m", "kreisslab.cli", *argv,
                        "--out", str(tmp_path / f"alone{i}")],
                       env={**os.environ, "PYTHONPATH": src}, capture_output=True, timeout=120,
                       check=True)
        report = (tmp_path / f"seq{i}" / "kreiss.json").read_bytes()
        assert report == (tmp_path / f"alone{i}" / "kreiss.json").read_bytes()
        assert json.loads(report)["config"]["p"] == p


def test_gallery_list_prints(capsys):
    assert run(["gallery-list"]) == 0
    out = capsys.readouterr().out
    assert "identity3" in out and "jordan2" in out


def test_threads_is_no_flag_or_config_key_but_reports_echo_1(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gallery-list": {"threads": 1}}))
    out = tmp_path / "o"
    for argv, message in ((["--threads", "1"], "unrecognized arguments: --threads 1"),
                          (["--config", str(cfg)],
                           "unknown config keys for 'gallery-list': threads")):
        with pytest.raises(SystemExit) as err:
            run(["gallery-list", *argv, "--out", str(out)])
        assert err.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: {message}\n")
    assert not out.exists()
    # schema 1 keeps "threads": 1 in the config echo as a fixed field
    assert run(["gallery-list", "--out", str(out)]) == 0
    assert read(out / "gallery.json")["config"]["threads"] == 1


def test_kreiss_identity_report(tmp_path):
    out = tmp_path / "o"
    assert run(["kreiss", "--gallery", "identity3", "--p", "2", "--out", str(out)]) == 0
    rep = read(out / "kreiss.json")
    assert rep["schema"] == "kreisslab/1"
    assert abs(rep["k_lower"] - 1.0) < 1e-6
    assert rep["seed"] == 0
    assert (out / "run_meta.json").exists()


def test_strong_kreiss_subcommand(tmp_path):
    out = tmp_path / "o"
    code = run(["strong-kreiss", "--op", "nilpotent", "--dim", "2", "--coupling", "2",
                "--n-max", "8", "--radial", "16", "--angular", "16", "--out", str(out)])
    assert code == 0
    rep = read(out / "strong_kreiss.json")
    assert 0.99 <= rep["ks_lower"] <= 1.0 + 1e-6


def test_exp_criterion_subcommand(tmp_path):
    out = tmp_path / "o"
    assert run(["exp-criterion", "--gallery", "zero2", "--xi-max", "5", "--radial", "8",
                "--angular", "8", "--out", str(out)]) == 0
    rep = read(out / "exp_criterion.json")
    assert abs(rep["exp_lower"] - 1.0) < 1e-9


def test_cesaro_consistent_run(tmp_path):
    out = tmp_path / "o"
    code = run(["cesaro", "--gallery", "identity3", "--n-max", "64", "--angular", "16",
                "--ks-ref", "1.0", "--out", str(out)])
    assert code == 0
    rep = read(out / "cesaro.json")
    assert rep["cesaro_ratio_max"] <= 1.0 + 1e-6
    assert not (out / "witness_cesaro.json").exists()


def test_cesaro_flags_small_reference(tmp_path):
    # an artificially small Ks_ref must trip the witness path, exit 1
    out = tmp_path / "o"
    code = run(["cesaro", "--gallery", "identity3", "--n-max", "32", "--angular", "8",
                "--ks-ref", "0.001", "--out", str(out)])
    assert code == 1
    assert (out / "witness_cesaro.json").exists()


def test_cesaro_with_no_partial_sums_reports_its_start(tmp_path):
    # --n-max 0 gives the sweep no step at all: the bound is its start, 1 at
    # l = 1 and n = 0
    out = tmp_path / "o"
    assert run(["cesaro", "--gallery", "jordan2_damped", "--ks-ref", "1.5", "--n-max", "0",
                "--out", str(out)]) == 0
    rep = read(out / "cesaro.json")
    assert (rep["cesaro_lower"], rep["cesaro_n_at_max"]) == (1.0, 0)
    assert rep["cesaro_argmax"] == {"re": 1.0, "im": 0.0}


def test_weighted_shift_defaults_to_unit_weights(tmp_path):
    reports = []
    for extra in ([], ["--weights", "1,1"]):
        out = tmp_path / str(len(reports))
        assert run(["kreiss", "--op", "weighted_shift", "--dim", "3", "--radial", "8",
                    "--angular", "8", *extra, "--out", str(out)]) == 0
        rep = read(out / "kreiss.json")
        reports.append((rep["k_lower"], rep["k_argmax"]))
    assert reports[0] == reports[1]


def test_growth_fit_and_plot(tmp_path):
    out = tmp_path / "g"
    code = run(["growth", "--op", "jordan", "--dim", "2", "--p", "inf",
                "--n-max", "512", "--fit", "poly", "--out", str(out)])
    assert code == 0
    rep = read(out / "growth.json")
    assert abs(rep["fits"]["poly"]["alpha"] - 1.0) < 0.02
    pout = tmp_path / "p"
    assert run(["plot", "--csv", str(out / "growth.csv"), "--out", str(pout)]) == 0
    svg = (pout / "plot.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_plot_escapes_markup_in_labels(tmp_path):
    # the title, the x label and a series name each hold an XML metacharacter
    csv = tmp_path / "s.csv"
    csv.write_text("k>0,a<b\n1,1\n2,4\n")
    assert run(["plot", "--csv", str(csv), "--x-col", "k>0", "--title", "x & y",
                "--out", str(tmp_path / "p")]) == 0
    doc = xml.dom.minidom.parse(str(tmp_path / "p" / "plot.svg"))
    texts = [t.firstChild.data for t in doc.getElementsByTagName("text")]
    assert texts == ["x & y", "k>0", "a<b"]


def test_plot_writes_a_non_ascii_title_as_a_character_reference(tmp_path):
    csv = tmp_path / "s.csv"
    csv.write_text("n,a\n1,1\n2,4\n")
    assert run(["plot", "--csv", str(csv), "--title", "\u00e9", "--out", str(tmp_path / "o")]) == 0
    raw = (tmp_path / "o" / "plot.svg").read_bytes()
    assert b">&#233;</text>" in raw and raw.isascii()
    doc = xml.dom.minidom.parse(str(tmp_path / "o" / "plot.svg"))
    assert doc.getElementsByTagName("text")[0].firstChild.data == "\u00e9"


def test_bounds_flags_jordan(tmp_path):
    out = tmp_path / "o"
    code = run(["bounds", "--op", "jordan", "--dim", "2", "--p", "inf", "--n-max", "64",
                "--k-ref", "1.0", "--ks-ref", "1.0", "--radial", "8", "--angular", "8",
                "--out", str(out)])
    assert code == 1
    assert (out / "witness_bounds.json").exists()
    header = (out / "bounds.csv").read_text().splitlines()[0]
    assert header == ("n,norm_lower,norm_upper,ceiling_kreiss,ceiling_strong,"
                      "ceiling_matrixthm,margin_kreiss,margin_strong,margin_matrixthm")


def test_bounds_identity_clean(tmp_path):
    out = tmp_path / "o"
    code = run(["bounds", "--gallery", "identity3", "--n-max", "32",
                "--radial", "8", "--angular", "8", "--out", str(out)])
    assert code == 0


def test_verify_appendix_subcommand(tmp_path):
    out = tmp_path / "o"
    assert run(["verify-appendix", "--n-max", "300", "--out", str(out)]) == 0
    rep = read(out / "appendix.json")
    assert rep["failures"] == []
    lines = (out / "appendix.csv").read_text().splitlines()
    assert lines[0] == "n,sup_a,v1_a,a1_min_slack,a1_pass,a2_pass,review"
    assert len(lines) == 300  # header + n in [2, 300]


def test_decomp_scan_writes_witness(tmp_path):
    out = tmp_path / "o"
    code = run(["decomp-scan", "--p", "2", "--q", "2", "--side", "lower",
                "--trials", "40", "--max-support", "6", "--seed", "3", "--out", str(out)])
    assert code == 0
    rep = read(out / "decomp.json")
    assert abs(rep["constant_lower"] - 1.0) < 1e-6
    assert rep["label"] == "empirical floor"
    assert (out / "witness_f.txt").exists()


def test_decomp_scan_at_a_large_p_reports_a_finite_floor(tmp_path):
    # the p-th powers of block values above 1 pass the float range at p = 300:
    # each such block takes its peak out instead of reporting an inf floor (the
    # suite's error::RuntimeWarning also fails on the overflow warning)
    out = tmp_path / "o"
    code = run(["decomp-scan", "--p", "300", "--q", "2", "--trials", "100",
                "--ascent-steps", "20", "--seed", "19", "--out", str(out)])
    assert code == 0
    assert 1.0 <= read(out / "decomp.json")["constant_lower"] < math.inf


def test_riesz_norm_subcommand(tmp_path):
    out = tmp_path / "o"
    code = run(["riesz-norm", "--p", "2", "--dim", "1", "--trials", "20",
                "--ascent-steps", "10", "--seed", "1", "--out", str(out)])
    assert code == 0
    rep = read(out / "riesz.json")
    assert rep["riesz_norm_lower"] >= 1.0 - 1e-9


def test_marcinkiewicz_subcommand(tmp_path):
    out = tmp_path / "o"
    code = run(["marcinkiewicz", "--p", "4", "--trials", "25", "--span", "4",
                "--seed", "2", "--out", str(out)])
    assert code == 0
    rep = read(out / "marcinkiewicz.json")
    assert 0 < rep["max_sample"] < 1.0


@pytest.mark.parametrize("flags", [
    ["--p", "4", "--span", "4", "--seed", "2"],
    ["--p", "3", "--dim", "2", "--inner-p", "1", "--seed", "5"],
])
def test_marcinkiewicz_chunks_write_the_bytes_of_one_trial_at_a_time(flags, tmp_path,
                                                                     monkeypatch):
    # 25 trials in chunks of 7: three full chunks and a short one, each scored
    # in one call, and a report equal to that of the per-trial loop
    argv = ["marcinkiewicz", "--trials", "25", *flags]
    monkeypatch.setattr(cli, "_MARCINKIEWICZ_CHUNK", 7)
    batches = []
    real = fourier.marcinkiewicz_checks  # the handler imports it from fourier at each call
    monkeypatch.setattr(fourier, "marcinkiewicz_checks",
                        lambda fs, *a: batches.append(len(fs)) or real(fs, *a))
    assert run([*argv, "--out", str(tmp_path / "chunked")]) == 0
    assert batches == [7, 7, 7, 4]
    monkeypatch.setitem(cli.HANDLERS, "marcinkiewicz", marcinkiewicz_one_trial_at_a_time)
    assert run([*argv, "--out", str(tmp_path / "alone")]) == 0
    report = [(tmp_path / d / "marcinkiewicz.json").read_bytes() for d in ("chunked", "alone")]
    assert report[0] == report[1]


def test_type_cotype_subcommand(tmp_path):
    out = tmp_path / "o"
    code = run(["type-cotype", "--kind", "cotype", "--exponent", "2", "--dim", "2",
                "--family", "basis", "--inner-p", "1", "--samples", "400",
                "--seed", "3", "--out", str(out)])
    assert code == 0
    rep = read(out / "type_cotype.json")
    assert abs(rep["value"] - np.sqrt(2) / 2) < 1e-9


def test_positivity_subcommand(tmp_path):
    out = tmp_path / "o"
    code = run(["positivity", "--gallery", "nilpotent2", "--q", "1", "--n-list", "4,16",
                "--corpus", "8", "--seed", "4", "--radial", "8", "--angular", "8",
                "--out", str(out)])
    assert code == 0
    rep = read(out / "positivity.json")
    assert as_float(rep["krivine_margin_overall"]) >= 1.0 - 1e-8


def test_positivity_flags_a_block_margin_below_one(tmp_path, capsys):
    # a Ks_ref far below the true Ks trips the block bound 28 Ks_ref sqrt(n) at
    # n = 4 (shift4 is nilpotent: at n = 16 its window holds no nonzero power)
    out = tmp_path / "o"
    code = run(["positivity", "--gallery", "shift4", "--ks-ref", "0.001", "--n-list", "4,16",
                "--corpus", "4", "--seed", "1", "--out", str(out)])
    assert code == 1
    assert "FLAGGED block margin 0.359471144 < 1" in capsys.readouterr().out
    rep, wit = read(out / "positivity.json"), read(out / "witness_positivity.json")
    assert [b["n"] for b in wit["block"]] == [4] and "margin" not in wit  # Krivine holds
    (flag,) = wit["block"]
    assert flag["margin"] == rep["results"][0]["block_margin_min"]
    # the witness is a unit l^1 vector (q = 1) that replays the margin
    A = make_gallery_operator(gallery_entry("shift4").spec).entries.real
    x = np.array(flag["witness"])
    window = sum(np.sum(np.linalg.matrix_power(A, k) @ x) for k in bound_m_range(4))
    assert np.sum(x) == pytest.approx(1.0, rel=1e-15)
    assert 28.0 * 0.001 * 2.0 / window == pytest.approx(flag["margin"], rel=1e-14)


def test_positivity_rejects_non_positive(tmp_path):
    with pytest.raises(SystemExit) as err:
        run(["positivity", "--gallery", "rotation1", "--q", "1", "--seed", "1",
             "--out", str(tmp_path / "o")])
    assert err.value.code == 2


def test_randomized_subcommand_requires_seed(tmp_path):
    with pytest.raises(SystemExit) as err:
        run(["decomp-scan", "--p", "2", "--q", "2", "--out", str(tmp_path / "o")])
    assert err.value.code == 2


@pytest.mark.parametrize("argv, message", [
    # argparse rejects the type
    (["growth", "--gallery", "zero2", "--n-max", "abc"],
     "argument --n-max: invalid int value: 'abc'"),
    (["growth", "--gallery", "zero2", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
    # _merge checks the domain and the mandatory seed
    (["growth", "--gallery", "zero2", "--n-max", "3"],
     "argument --n-max: n_max must lie in [8, inf), got 3"),
    (["decomp-scan", "--p", "4"],
     "--seed is mandatory for the randomized subcommand 'decomp-scan'"),
    # a handler's ValueError
    (["growth", "--gallery", "nilpotent2", "--n-max", "64"],
     "1 of 64 powers T^n have a nonzero norm (first zero at n = 2); a fit needs 8 of them"),
    # _load_config reads the file
    (["kreiss", "--gallery", "zero2", "--config", {"kreiss": {"warp_factor": 9}}],
     "unknown config keys for 'kreiss': warp_factor"),
    (["kreiss", "--gallery", "zero2", "--config", [1, 2]],
     "config file must hold a JSON object"),
    (["kreiss", "--gallery", "zero2", "--config", {"kreiss": 3}],
     "config section 'kreiss' must be an object"),
    (["kreiss", "--gallery", "zero2", "--config", "{not json"],
     "cannot read config file <cfg>: Expecting property name enclosed in double quotes: "
     "line 1 column 2 (char 1)"),
    # ||T^n|| = 1e300^n passes the float range at n = 2: nothing finite to fit
    (["growth", "--op", "nilpotent", "--dim", "9", "--coupling", "1e300", "--n-max", "16"],
     "the value at n = 2 is inf; a fit needs finite values"),
    # kmax = 2 n ||T||_inf terms, past 2^20 at n = 2, or at any scale past n = 2^18
    (["positivity", "--op", "scalar", "--dim", "1", "--scale", "1e300", "--ks-ref", "1",
      "--n-list", "2", "--seed", "1"],
     "the series at n = 2 needs kmax = 4e+300 terms, more than 1048576"),
    (["positivity", "--op", "scalar", "--dim", "1", "--scale", "0.5", "--ks-ref", "1",
      "--n-list", "1000000", "--seed", "1"],
     "the series at n = 1000000 needs kmax = 4e+06 terms, more than 1048576"),
    (["positivity", "--op", "jordan", "--dim", "2", "--eigenvalue", "1e308", "--coupling",
      "1e308", "--ks-ref", "1", "--n-list", "2", "--seed", "1"],
     "the series at n = 2 needs kmax = inf terms, more than 1048576"),
    # the oversampled grid of p = 3 takes 8 (2 M + 1) points: refused past 2^20
    (["riesz-norm", "--p", "3", "--max-support", "200000", "--trials", "1", "--seed", "1"],
     "p = 3 needs an oversampled quadrature grid of 8 (2 M + 1) = 3199944 points at "
     "M = 199996, more than 1048576"),
    # --count sizes the random family: the basis family has its d vectors, from a
    # flag or a config file alike
    (["type-cotype", "--family", "basis", "--count", "3", "--seed", "1"],
     "argument --count: --count applies to --family random only"),
    (["type-cotype", "--seed", "1", "--config", {"type-cotype": {"count": 3}}],
     "argument --count: --count applies to --family random only"),
] + [
    # (l - T)^{-1} holds c^2 / l^3 = 1e400 / l^3: the resolvent builder names it
    # before a norm or a power sees an inf (at p = 2 kreiss inverts nothing, and
    # (|l| - 1) / sigma_min(l - T) is not finite where the inverse is not); the
    # suite's error::RuntimeWarning turns any warning on the way into a traceback
    ([sub, "--op", "nilpotent", "--dim", "3", "--coupling", "1e200", "--p", p,
      "--radial", "4", "--angular", "4"], "(l - T)^{-1} left the float range at |l| = 1")
    for sub, ps in (("kreiss", ("1", "2", "3", "inf")), ("strong-kreiss", ("1", "2", "3", "inf")),
                    ("bounds", ("2",)))
    for p in ps
], ids=["type", "unrecognized", "domain", "seed", "handler", "config", "config-not-object",
        "config-section-not-object", "config-not-json", "growth-not-finite",
        "positivity-scale-huge", "positivity-n-huge", "positivity-row-sum-inf",
        "riesz-norm-grid-huge", "type-count-basis", "config-type-count-basis",
        "kreiss-resolvent-overflow-p1", "kreiss-resolvent-overflow-p2",
        "kreiss-resolvent-overflow-p3", "kreiss-resolvent-overflow-pinf",
        "strong-kreiss-resolvent-overflow-p1", "strong-kreiss-resolvent-overflow-p2",
        "strong-kreiss-resolvent-overflow-p3", "strong-kreiss-resolvent-overflow-pinf",
        "bounds-resolvent-overflow-p2"])
def test_usage_errors_print_the_subcommands_usage(argv, message, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    if argv[-2] == "--config":  # the config file's JSON value, or a str for its text
        cfg.write_text(argv[-1] if isinstance(argv[-1], str) else json.dumps(argv[-1]))
        argv = [*argv[:-1], str(cfg)]
    with pytest.raises(SystemExit) as err:
        run([*argv, "--out", str(tmp_path / "o")])
    assert err.value.code == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines[0].startswith(f"usage: kreisslab {argv[0]} [-h] [--out OUT]")
    assert lines[-1] == f"kreisslab {argv[0]}: error: {message.replace('<cfg>', str(cfg))}"
    assert not any("Traceback" in line for line in lines)


def test_unknown_flag_exits_2(tmp_path):
    with pytest.raises(SystemExit) as err:
        run(["kreiss", "--gallery", "identity3", "--frobnicate", "--out", str(tmp_path)])
    assert err.value.code == 2


def test_config_file_merging_and_unknown_key(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kreiss": {"p": "2", "radial": 8, "angular": 8,
                                          "gallery": "zero2"}}))
    out = tmp_path / "o"
    assert run(["kreiss", "--config", str(cfg), "--out", str(out)]) == 0
    rep = read(out / "kreiss.json")
    assert rep["config"]["radial"] == 8
    # explicit flag overrides the file value
    out2 = tmp_path / "o2"
    assert run(["kreiss", "--config", str(cfg), "--gallery", "identity3",
                "--out", str(out2)]) == 0
    assert read(out2 / "kreiss.json")["config"]["gallery"] == "identity3"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kreiss": {"warp_factor": 9}}))
    with pytest.raises(SystemExit) as err:
        run(["kreiss", "--config", str(bad), "--gallery", "zero2",
             "--out", str(tmp_path / "o3")])
    assert err.value.code == 2


def test_reference_constants_read_from_config_strings(tmp_path):
    # the config echo keeps "1.5" as written; the handlers read it as a number
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cesaro": {"ks_ref": "1.5"}, "bounds": {"k_ref": "2"}}))
    for sub in ("cesaro", "bounds"):
        out = tmp_path / sub
        assert run([sub, "--gallery", "jordan2_damped", "--radial", "4", "--angular", "4",
                    "--n-max", "8", "--config", str(cfg), "--out", str(out)]) == 0
    assert read(tmp_path / "cesaro" / "cesaro.json")["ks_ref"] == 1.5
    assert read(tmp_path / "bounds" / "bounds.json")["k_ref"] == 2.0


def test_custom_matrix_file_operator(tmp_path):
    mat = ComplexMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
    mpath = tmp_path / "m.txt"
    save_matrix(mat, mpath)
    out = tmp_path / "o"
    code = run(["kreiss", "--op", "custom", "--dim", "2", "--matrix-file", str(mpath),
                "--radial", "8", "--angular", "8", "--out", str(out)])
    assert code == 0
    assert 0.99 <= read(out / "kreiss.json")["k_lower"] <= 1.0 + 1e-9


def _tree_bytes(root):
    snap = {}
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            if name == "run_meta.json":
                continue
            p = os.path.join(dirpath, name)
            snap[os.path.relpath(p, root)] = open(p, "rb").read()
    return snap


def test_reports_byte_identical_across_runs(tmp_path):
    argv_sets = [
        ["decomp-scan", "--p", "4", "--q", "2", "--side", "upper", "--trials", "30",
         "--max-support", "6", "--seed", "11"],
        ["verify-appendix", "--n-max", "60"],
        ["kreiss", "--gallery", "jordan2_damped", "--radial", "8", "--angular", "8"],
    ]
    for i, argv in enumerate(argv_sets):
        a, b = tmp_path / f"a{i}", tmp_path / f"b{i}"
        assert run(argv + ["--out", str(a)]) == 0
        assert run(argv + ["--out", str(b)]) == 0
        assert _tree_bytes(a) == _tree_bytes(b)


# the flag these cases' messages must name
NAMED_FLAG = {"marcinkiewicz-span-negative": "span", "marcinkiewicz-dim-0": "dim",
              "riesz-dim-0": "dim", "positivity-corpus-0": "corpus", "type-count-0": "count",
              "positivity-n-list-empty": "--n-list", "marcinkiewicz-trials-0": "--trials",
              "decomp-gamma-nan": "gamma", "decomp-inner-p-nan": "inner_p",
              "decomp-inner-p-below-1": "inner_p", "riesz-inner-p-nan": "inner_p",
              "type-inner-p-nan": "inner_p", "type-exponent-nan": "exponent",
              "marcinkiewicz-inner-p-nan": "inner_p",
              "marcinkiewicz-p-nan": "p must lie in [1, inf)",
              "kreiss-p-nan": "--p", "exp-xi-max-nan": "--xi-max", "growth-p-nan": "--p",
              "kreiss-r-max-inf": "--r-max", "appendix-n-min-1": "--n-min",
              "positivity-ks-ref-nan": "--ks-ref", "config-p-nan": "--p",
              "cesaro-ks-diverged": "--ks-ref", "positivity-ks-diverged": "--ks-ref",
              "cesaro-powers-overflow": "T^n left the float range in the partial sums at n = 2",
              "cesaro-powers-product-overflow":
                  "T^n left the float range in the partial sums at n = 5",
              "config-trials-fraction": "--trials", "config-seed-fraction": "--seed",
              "config-p-bool": "--p", "config-gz-string": "--gz",
              "config-family-not-a-choice": "--family",
              "plot-csv-empty": "in.csv: no header line",
              "plot-csv-short-row": "in.csv line 2: row width 1, header width 2",
              "decomp-p-huge": "p = 1e+308 needs an exact quadrature grid",
              "riesz-p-huge": "p = 1e+308 needs an exact quadrature grid",
              "custom-no-matrix-file": "argument --matrix-file:",
              "eigenvalue-malformed": "argument --eigenvalue:",
              "scale-malformed": "argument --scale:",
              "weights-malformed": "argument --weights:", "angles-malformed": "argument --angles:",
              "matrix-file-missing": "argument --matrix-file:",
              "matrix-file-non-square": "argument --matrix-file:",
              "matrix-file-nan":
                  "argument --matrix-file: line 2, column 1: non-finite number 'nan'",
              "matrix-file-inf":
                  "argument --matrix-file: line 2, column 3: non-finite number 'inf'",
              "gallery-unknown": "argument --gallery:", "op-unknown": "argument --op:",
              "n-list-malformed": "argument --n-list:", "n-list-below-2": "argument --n-list:",
              "weights-negative": "argument --weights:", "angles-count": "argument --angles:",
              "scale-inf": "argument --scale:",
              "appendix-n-max-below-n-min": "argument --n-max: n_max must lie in [5, inf), got 3",
              "type-count-basis": "argument --count: --count applies to --family random"}


@pytest.mark.parametrize("argv", [
    ["kreiss", "--gallery", "identity3", "--p", "abc"],
    ["kreiss", "--gallery", "identity3", "--p", "0.5"],
    ["kreiss", "--gallery", "identity3", "--radial", "2"],
    ["kreiss", "--op", "jordan", "--dim", "0"],
    ["positivity", "--gallery", "shift4", "--q", "2.5", "--n-list", "4", "--corpus", "2",
     "--ks-ref", "1.0", "--seed", "1"],
    ["decomp-scan", "--p", "1", "--seed", "1"],
    ["type-cotype", "--exponent", "0.5", "--samples", "50", "--seed", "1"],
    ["type-cotype", "--dim", "0", "--family", "random", "--count", "3", "--seed", "1"],
    # every power norm of the zero matrix is 0: nothing to fit
    ["growth", "--gallery", "zero2", "--n-max", "16"],
    # a dict stands for a config file holding it
    ["kreiss", "--gallery", "identity3", "--config", {"kreiss": {"radial": None}}],
    ["decomp-scan", "--max-support", "1", "--seed", "1"],
    ["decomp-scan", "--max-dim", "0", "--seed", "1"],
    ["decomp-scan", "--trials", "0", "--seed", "1"],
    ["decomp-scan", "--ascent-steps", "-1", "--seed", "1"],
    ["marcinkiewicz", "--span", "-1", "--trials", "2", "--seed", "1"],
    ["marcinkiewicz", "--dim", "0", "--trials", "2", "--seed", "1"],
    ["riesz-norm", "--dim", "0", "--trials", "2", "--ascent-steps", "1", "--seed", "1"],
    ["positivity", "--gallery", "shift4", "--n-list", "4", "--corpus", "0", "--ks-ref", "1.0",
     "--seed", "1"],
    ["type-cotype", "--family", "random", "--count", "0", "--samples", "50", "--seed", "1"],
    # a run that checks nothing
    ["positivity", "--gallery", "shift4", "--n-list", ",", "--seed", "1"],
    ["marcinkiewicz", "--trials", "0", "--seed", "1"],
    # NaN passes a "x < 1" range test
    ["decomp-scan", "--gamma", "nan", "--trials", "5", "--ascent-steps", "1", "--seed", "1"],
    ["decomp-scan", "--inner-p", "nan", "--trials", "5", "--ascent-steps", "1", "--seed", "1"],
    # a quasi-norm
    ["decomp-scan", "--inner-p", "0.5", "--trials", "5", "--ascent-steps", "1", "--seed", "1"],
    ["riesz-norm", "--inner-p", "nan", "--trials", "2", "--ascent-steps", "1", "--seed", "1"],
    ["type-cotype", "--inner-p", "nan", "--samples", "50", "--seed", "1"],
    ["type-cotype", "--exponent", "nan", "--samples", "50", "--seed", "1"],
    ["marcinkiewicz", "--inner-p", "nan", "--trials", "2", "--seed", "1"],
    ["marcinkiewicz", "--p", "nan", "--trials", "2", "--seed", "1"],
    # NaN and inf past the range tests of the resolvent, growth and positivity
    # code: each is caught by its flag's domain before any search runs
    ["kreiss", "--gallery", "identity3", "--p", "nan", "--radial", "8", "--angular", "8"],
    ["exp-criterion", "--gallery", "identity3", "--xi-max", "nan", "--radial", "8",
     "--angular", "8"],
    ["growth", "--gallery", "identity3", "--p", "nan", "--n-max", "8"],
    ["kreiss", "--gallery", "identity3", "--r-max", "inf", "--radial", "8", "--angular", "8"],
    ["verify-appendix", "--n-min", "1"],
    ["verify-appendix", "--n-min", "5", "--n-max", "3"],
    # a NaN ks_ref would leave the block bound unchecked
    ["positivity", "--gallery", "shift4", "--n-list", "4", "--corpus", "2", "--ks-ref", "nan",
     "--seed", "1"],
    # a config value is checked against its flag's domain too
    ["kreiss", "--gallery", "identity3", "--config", {"kreiss": {"p": "nan"}}],
    # a computed Ks that diverged is no reference constant: --ks-ref is the way out
    ["cesaro", "--op", "jordan", "--dim", "2", "--eigenvalue", "1e308", "--coupling", "1e308",
     "--radial", "4", "--angular", "4"],
    ["positivity", "--op", "jordan", "--dim", "2", "--eigenvalue", "1e308", "--coupling",
     "1e308", "--radial", "4", "--angular", "4", "--seed", "1"],
    # T^2 = 1e400 has a finite log scale but no float value
    ["cesaro", "--op", "scalar", "--dim", "1", "--scale", "1e200", "--ks-ref", "1",
     "--n-max", "8", "--angular", "4"],
    # T^5 = e^644.7 (1e70)^1: the scale is finite, its product with M is not
    ["cesaro", "--op", "scalar", "--dim", "1", "--scale", "1e70", "--ks-ref", "1",
     "--n-max", "8", "--angular", "4"],
    # a config value is held to its flag's type and choices: no value is
    # truncated, read as a bool or left to fall through to another branch
    ["decomp-scan", "--ascent-steps", "1", "--max-support", "4", "--seed", "1",
     "--config", {"decomp-scan": {"trials": 2.5}}],
    ["kreiss", "--gallery", "identity3", "--radial", "8", "--angular", "8",
     "--config", {"kreiss": {"seed": 7.9}}],
    ["kreiss", "--gallery", "identity3", "--radial", "8", "--angular", "8",
     "--config", {"kreiss": {"p": True}}],
    ["cesaro", "--gallery", "identity3", "--radial", "4", "--angular", "4", "--n-max", "8",
     "--config", {"cesaro": {"gz": "false"}}],
    ["type-cotype", "--samples", "50", "--seed", "1",
     "--config", {"type-cotype": {"family": "basiss"}}],
    # bytes stand for a file holding them: a CSV with no header, one with a row short of
    # the header
    ["plot", "--csv", b""],
    ["plot", "--csv", b"n,a\n1\n"],
    # an even p takes the exact grid of p * M + 1 points, refused past 2^20
    ["decomp-scan", "--p", "1e308", "--trials", "3", "--max-support", "4", "--seed", "1"],
    ["riesz-norm", "--p", "1e308", "--trials", "3", "--seed", "1"],
    ["kreiss", "--op", "custom", "--dim", "2"],
    ["kreiss", "--op", "jordan", "--dim", "2", "--eigenvalue", "abc"],
    ["kreiss", "--op", "scalar", "--dim", "2", "--scale", "1+"],
    ["kreiss", "--op", "weighted_shift", "--dim", "3", "--weights", "1,a"],
    ["kreiss", "--op", "rotation", "--dim", "2", "--angles", "x"],
    ["kreiss", "--op", "custom", "--dim", "2", "--matrix-file", "/nonexistent/matrix.txt"],
    ["kreiss", "--op", "custom", "--dim", "2", "--matrix-file", b"2\n1 0 0 0\n"],
    ["kreiss", "--op", "custom", "--dim", "2", "--matrix-file", b"2\nnan 0 0 0\n0 0 1 0\n"],
    ["kreiss", "--op", "custom", "--dim", "2", "--matrix-file", b"2\n1 0 inf 0\n0 0 1 0\n"],
    ["kreiss", "--gallery", "nosuch"],
    ["kreiss", "--op", "nosuch"],
    ["positivity", "--gallery", "shift4", "--n-list", "4,x", "--seed", "1"],
    ["positivity", "--gallery", "shift4", "--n-list", "1", "--seed", "1"],
    # values the operator constructor rejects name their flag too
    ["kreiss", "--op", "weighted_shift", "--dim", "3", "--weights", "1,-1"],
    ["kreiss", "--op", "rotation", "--dim", "2", "--angles", "1,2,3"],
    ["kreiss", "--op", "scalar", "--dim", "2", "--scale", "inf"],
    ["type-cotype", "--kind", "type", "--family", "basis", "--count", "3", "--seed", "1"],
], ids=["p-not-a-number", "p-below-1", "radial-too-small", "dim-0", "positivity-q",
        "decomp-p-1", "type-exponent-below-1", "type-dim-0", "growth-nothing-to-fit",
        "config-value-type", "decomp-max-support-1", "decomp-max-dim-0", "decomp-trials-0",
        "decomp-ascent-steps-negative", "marcinkiewicz-span-negative", "marcinkiewicz-dim-0",
        "riesz-dim-0", "positivity-corpus-0", "type-count-0", "positivity-n-list-empty",
        "marcinkiewicz-trials-0", "decomp-gamma-nan", "decomp-inner-p-nan",
        "decomp-inner-p-below-1", "riesz-inner-p-nan", "type-inner-p-nan", "type-exponent-nan",
        "marcinkiewicz-inner-p-nan", "marcinkiewicz-p-nan", "kreiss-p-nan", "exp-xi-max-nan",
        "growth-p-nan", "kreiss-r-max-inf", "appendix-n-min-1", "appendix-n-max-below-n-min",
        "positivity-ks-ref-nan",
        "config-p-nan", "cesaro-ks-diverged", "positivity-ks-diverged", "cesaro-powers-overflow",
        "cesaro-powers-product-overflow", "config-trials-fraction", "config-seed-fraction",
        "config-p-bool", "config-gz-string", "config-family-not-a-choice", "plot-csv-empty",
        "plot-csv-short-row", "decomp-p-huge", "riesz-p-huge", "custom-no-matrix-file",
        "eigenvalue-malformed", "scale-malformed", "weights-malformed", "angles-malformed",
        "matrix-file-missing", "matrix-file-non-square", "matrix-file-nan", "matrix-file-inf",
        "gallery-unknown", "op-unknown", "n-list-malformed", "n-list-below-2", "weights-negative", "angles-count", "scale-inf",
        "type-count-basis"])
def test_bad_input_exits_2_with_message(argv, tmp_path, capsys, request):
    cfg = tmp_path / "cfg.json"
    for i, arg in enumerate(argv):
        if isinstance(arg, dict):
            cfg.write_text(json.dumps(arg))
            argv = [*argv[:i], str(cfg), *argv[i + 1:]]
        elif isinstance(arg, bytes):
            (tmp_path / "in.csv").write_bytes(arg)
            argv = [*argv[:i], str(tmp_path / "in.csv"), *argv[i + 1:]]
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as err:
        run(argv + ["--out", str(out)])
    assert err.value.code == 2
    err_text = capsys.readouterr().err
    assert "error:" in err_text
    flag = NAMED_FLAG.get(request.node.callspec.id)
    assert flag is None or flag in err_text.rpartition("error:")[2]
    assert not out.exists()


@pytest.mark.parametrize("name, n_max, nonzero, first_zero", [
    ("nilpotent2", "64", 1, 2), ("shift4", "8", 3, 4), ("zero2", "8", 0, 1),
])
def test_growth_of_vanishing_powers_says_why_nothing_fits(name, n_max, nonzero, first_zero,
                                                          tmp_path, capsys):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as err:
        run(["growth", "--gallery", name, "--n-max", n_max, "--out", str(out)])
    assert err.value.code == 2
    message = capsys.readouterr().err.rpartition("error:")[2]
    assert (f"{nonzero} of {n_max} powers T^n have a nonzero norm (first zero at "
            f"n = {first_zero}); a fit needs 8 of them") in message
    assert not out.exists()


def test_positivity_of_a_subnormal_operator_has_infinite_margins(tmp_path):
    # T^k x is subnormal, so each margin, a quotient by it, overflows to inf:
    # the intended value, reached with no overflow warning
    out = tmp_path / "o"
    assert run(["positivity", "--op", "scalar", "--dim", "1", "--scale", "1e-320", "--ks-ref",
                "1", "--n-list", "2", "--seed", "1", "--out", str(out)]) == 0
    rep = read(out / "positivity.json")
    assert as_float(rep["krivine_margin_overall"]) == np.inf
    assert as_float(rep["results"][0]["block_margin_min"]) == np.inf


def test_out_that_is_a_file_exits_2_before_the_handler(tmp_path, capsys, monkeypatch):
    def handler(*args):
        raise AssertionError("the handler ran")

    monkeypatch.setitem(kreisslab.cli.HANDLERS, "kreiss", handler)
    out = tmp_path / "F"
    out.write_text("")
    with pytest.raises(SystemExit) as err:
        run(["kreiss", "--gallery", "jordan2", "--out", str(out)])
    assert err.value.code == 2
    assert f"error: argument --out: {out} exists and is not a directory" in capsys.readouterr().err


def test_huge_finite_inner_p_agrees_with_inf(tmp_path):
    # |e^{2 pi i x}| may round to just below 1, whose 1e20-th power underflows
    # to 0: fourier._inner_norms then factors the row max out
    value = {}
    for inner_p in ("1e20", "inf"):
        out = tmp_path / inner_p
        assert run(["type-cotype", "--samples", "50", "--seed", "1", "--inner-p", inner_p,
                    "--out", str(out)]) == 0
        value[inner_p] = read(out / "type_cotype.json")["value"]
    assert value["1e20"] == pytest.approx(value["inf"], abs=1e-12)


def test_decomp_gamma_past_the_float_range_completes(tmp_path):
    # 2^2000 overflows: every partition into two or more blocks scores 0, so
    # the single block, whose ratio is 1, is the optimum
    out = tmp_path / "o"
    assert run(["decomp-scan", "--gamma", "2000", "--trials", "3", "--ascent-steps", "1",
                "--seed", "1", "--out", str(out)]) == 0
    rep = read(out / "decomp.json")
    assert rep["constant_lower"] == 1.0
    assert len(rep["witness_partition"]) == 1
