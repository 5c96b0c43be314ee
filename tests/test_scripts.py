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


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SURVEY_SHA256 = {
    "half1.json": "51ddf47f9e20caea0af6c863b817df6f13919d8dea642ac5c94aa2ccf163d7fd",
    "identity3.json": "051f8c32ddd15f34c92f734990955692345a188a5f61dda6ab59bb437e960400",
    "jordan2.json": "7a8ef3968acd06a6970079dcd39b0145a29d8271a598771df932dc22041b507c",
    "jordan2_damped.json": "be3c7e263b4bdf6df1aa3e99495970374ceaf752ad22334283a0f1cd066eb54a",
    "nilpotent2.json": "a7918f576eda653064ca4c368c58817cc1c0b7069a682cf3a6ce0ad68a61d5e1",
    "rotation1.json": "04c401547eaae450cd0f2ef6e1cb31a8722888a08b0f6a78d8c931ce006161ef",
    "rotation3.json": "36f7432e9d63e62728dfc27607889d1ae7a59cd0292a20dafc23c49c39eba3aa",
    "shift4.json": "f6c1a5e80f056edc2d939f0a10240f2377bb5a2cc51be8ad1d55de1dd09a7fd6",
    "zero2.json": "f6c1a5e80f056edc2d939f0a10240f2377bb5a2cc51be8ad1d55de1dd09a7fd6",
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
    assert out.is_file() and out.stat().st_size > 0


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
