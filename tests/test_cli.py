import json
import os
import subprocess
import sys

import numpy as np
import pytest

import kreisslab
from kreisslab.cli import main
from kreisslab.operators import ComplexMatrix, save_matrix


def read(path):
    with open(path) as fh:
        return json.load(fh)


def as_float(v):
    # canonical JSON encodes non-finite floats as the strings "inf"/"-inf"/"nan"
    return float(v)


def run(argv):
    return main(argv)


def test_cli_import_leaves_scipy_unloaded():
    # scipy is imported where expm and gammaln are used, not with the CLI
    src = os.path.dirname(os.path.dirname(os.path.abspath(kreisslab.__file__)))
    code = ("import sys, kreisslab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": src}
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=60, check=True)
    assert res.stdout.strip() == "[]"


def test_gallery_list_prints(capsys):
    assert run(["gallery-list"]) == 0
    out = capsys.readouterr().out
    assert "identity3" in out and "jordan2" in out


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


def test_positivity_rejects_non_positive(tmp_path):
    with pytest.raises(SystemExit) as err:
        run(["positivity", "--gallery", "rotation1", "--q", "1", "--seed", "1",
             "--out", str(tmp_path / "o")])
    assert err.value.code == 2


def test_randomized_subcommand_requires_seed(tmp_path):
    with pytest.raises(SystemExit) as err:
        run(["decomp-scan", "--p", "2", "--q", "2", "--out", str(tmp_path / "o")])
    assert err.value.code == 2


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
], ids=["p-not-a-number", "p-below-1", "radial-too-small", "dim-0", "positivity-q",
        "decomp-p-1", "type-exponent-below-1", "type-dim-0", "growth-nothing-to-fit",
        "config-value-type"])
def test_bad_input_exits_2_with_message(argv, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for i, arg in enumerate(argv):
        if isinstance(arg, dict):
            cfg.write_text(json.dumps(arg))
            argv = [*argv[:i], str(cfg), *argv[i + 1:]]
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as err:
        run(argv + ["--out", str(out)])
    assert err.value.code == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()
