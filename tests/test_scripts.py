"""Smoke runs of every script under scripts/ at a tiny size.

Each script runs in a subprocess with kreisslab's source tree on the path and
RuntimeWarnings as errors, the same policy as the suite.  The gallery survey
is the only run of kreiss_report at the default 48 x 64 grid with three
refinement rounds, so its JSON reports are pinned byte for byte; the digests
hold for this numpy/scipy/BLAS stack, like those of test_cli_golden.py.
"""

import hashlib
import os
import subprocess
import sys

from kreisslab.cli import main as cli_main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SURVEY_SHA256 = {
    "half1.json": "f5fcf986701f057b56ce8088e4e55fb115218362cda49e80a777761568780c4c",
    "identity3.json": "7b2749a4930f814196abe6f8035790caa911675019e48b6f627962696613ee17",
    "jordan2.json": "87a1740e505eb8b1a2111b7ad41a580c06ef8eff671b1c6ffc6ec5504344807b",
    "jordan2_damped.json": "8aca7a1b3bbc357c0607c4d737ae2e4eeb13547f69e25bdd524897ce3137e75f",
    "nilpotent2.json": "27d1b96ee1f5de16fcec2df065eed18ebb6eff5fcc0744b64cc504c987cd2811",
    "rotation1.json": "82cec6d1dd457889a9bc0526132c8536a388c3eb8bdd58c01d995a686288f669",
    "rotation3.json": "b5bb2a97b7ca559c21339f18609e9e22617c12735546515c77b07d3485343c25",
    "shift4.json": "65a244a818231b1418ed6d8b9979e1927916127953b499ffe78d8aad61956fcf",
    "zero2.json": "6a6e4a3c35df653c8371e658193c199270689c9ee0f8bfd84d77ded3fdeb0121",
}


def _run(script, *args):
    path = os.path.join(ROOT, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [path, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", os.path.join(ROOT, "scripts", script),
         *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def test_appendix_table(tmp_path):
    out = tmp_path / "rows.csv"
    proc = _run("appendix_table.py", "200", str(out))
    assert proc.returncode == 0, proc.stderr
    assert "all pass: True" in proc.stdout
    # the script and the CLI write the same table
    cli_main(["verify-appendix", "--n-max", "200", "--out", str(tmp_path / "cli")])
    assert out.read_bytes() == (tmp_path / "cli" / "appendix.csv").read_bytes()


def test_decomposition_frontier(tmp_path):
    out = tmp_path / "f.json"
    proc = _run("decomposition_frontier.py", "20", str(out))
    assert proc.returncode == 0, proc.stderr
    assert out.is_file() and '"records"' in out.read_text()


def test_gallery_survey(tmp_path):
    proc = _run("gallery_survey.py", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    got = {f: _sha256(tmp_path / f) for f in sorted(os.listdir(tmp_path))}
    assert got == SURVEY_SHA256
    # each report names its operator, so no two of them are the same file
    assert len(set(got.values())) == len(got)
