"""Smoke runs of every script under scripts/ at a tiny size.

Each script runs in a subprocess with kreisslab's source tree on the path and
RuntimeWarnings as errors, the same policy as the suite.  The two report
scripts run the CLI's subcommands through cli.main.  The gallery survey is the
only run of kreiss, strong-kreiss, exp-criterion and cesaro on every gallery
operator at the default 48 x 64 grid with three refinement rounds, so its
reports are pinned byte for byte; the digests hold for this numpy/scipy/BLAS
stack, like those of test_cli_golden.py.
"""

import hashlib
import json
import os
import subprocess
import sys

from kreisslab.cli import main as cli_main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# <operator>/<report> -> sha256; run_meta.json holds a timestamp and is not pinned
SURVEY_SHA256 = {
    "half1/cesaro.json": "39ecac6827dd710f35b4d01f50d13199cdc8b9e25e49ff11a3990290e7b2d810",
    "half1/exp_criterion.json": "88d76dd9cf5737ce02173e6799f4662a021b4b2ef07ba6efef275b3604539ad6",
    "half1/kreiss.json": "35c1484e8d707d4e6a567a9617a0fa5f4abe28894fbb1182554830657066ea4b",
    "half1/strong_kreiss.json": "6405ede0516d5fd57ab31290a6aba422ad8a2040ce34d0e246cd2f216ea899cc",
    "identity3/cesaro.json": "9cdb2f3007117b86ffd0ab646500b36ebae830956bf1298da36327a4acdf202e",
    "identity3/exp_criterion.json": "0f29e23749d842a73de02159a6a07baa3fcf953e396b43a100eb45ed8162392e",
    "identity3/kreiss.json": "df0ba99f02a648bda292499707e5f89320d7f58f03f6a69defbe45b5ab34b0e7",
    "identity3/strong_kreiss.json": "52292d5db645494674e1d6f4f9d3f699313855d8e623004196b2ef4205c3fdac",
    "jordan2/cesaro.json": "cbe82f40e9cc78146e23aaa681fbb625f283abb8769afbe22236a1563855d382",
    "jordan2/exp_criterion.json": "7b3403b4343c8c06700e44fc9484cfdaba5ba054dc4d6c002752cb5ce6644d7d",
    "jordan2/kreiss.json": "3d009f47f94ea00046fcf5e44884a6751d427fe5597461280e3f2e9030c22f21",
    "jordan2/strong_kreiss.json": "d6cb34d053e08e579e879601fd0a05e4e87597447cdde584df7dc72295d6f83f",
    "jordan2_damped/cesaro.json": "39881dc061976d199e5bbf5093324322802ed0b03935aa7b8afe2eaba0469a21",
    "jordan2_damped/exp_criterion.json": "bd00628677f384cf9ded97321651d9c9236483a3bcc8e4a737078183bd767ef3",
    "jordan2_damped/kreiss.json": "6f320cbfe7d7115e0cf4cfff494996f870918d833846da826871bbce66a322cd",
    "jordan2_damped/strong_kreiss.json": "af99d56be9976703456fa061d7c51583ddd81ccb5ea5364def39600cd099cc89",
    "nilpotent2/cesaro.json": "245a3d8656be8e882b1a5c6cd6d582fa91a07e194e15c4fa1c7301086ad3024f",
    "nilpotent2/exp_criterion.json": "ec09d50d9c0a47136627d4d6787924ead742e86d05a3a90cd9d85d10f3438f3e",
    "nilpotent2/kreiss.json": "5334f741de3d17b30d7d45e3722893ea2c3da1bc842ae0969c7d0340997cf638",
    "nilpotent2/strong_kreiss.json": "1c9815482e8fc10137e8a2cdf99eaba89e8c9b273b5720666bc1d79e5e74af5f",
    "rotation1/cesaro.json": "7e1d5779c6e5fdc54f96e0e8b7ed877ff0bb5de8258362ae7cf0d1699fabcaa1",
    "rotation1/exp_criterion.json": "1d56703e09a6584b01245b645e25441659d86747d3ac9f772ac844178e89f69e",
    "rotation1/kreiss.json": "43dfd1dc512da7319dd6b072e9598f0752229ac605ebaa2e3ff5dcfc05252799",
    "rotation1/strong_kreiss.json": "e932f751b11013bb40fe78a6fb42ba2f55490c85e6edb28503a1440693998b9f",
    "rotation3/cesaro.json": "839de7b633dcfacdaa37fe9653acb615819d1a580d32168f604b00955112c113",
    "rotation3/exp_criterion.json": "1bd4e356fd9509ee54af5f064a29804495f31c619afe40bf6ea56265e4a7dcb3",
    "rotation3/kreiss.json": "ad37a2cea5d024d76d10bc8dda5a539d60d7d71ce5ef2e19a05ebd08517d518d",
    "rotation3/strong_kreiss.json": "5b88d83f7ca03616e2f4bdd2e646393459f3dada4051293eeb414fcde1871419",
    "shift4/cesaro.json": "b1adb22474d514333bd8c02090864904a5ca0343a99f6dd614667e8e7b0c17a7",
    "shift4/exp_criterion.json": "545fb419c257bb37561124ce9b42082d848a8af158e81d5b106fc45659773688",
    "shift4/kreiss.json": "9af33511dd6e7fff86e44f09442930d5b3402a422729690c5140325b06fd491f",
    "shift4/strong_kreiss.json": "aa0b6b5f2bce9d0f1503f7482d73b06d2f4617f7e39a98dbd07e477d3f4b5b6e",
    "zero2/cesaro.json": "b8539af477e602ebf124068418207fd756871957d673ead02da6ad0b73b11afa",
    "zero2/exp_criterion.json": "337be206c736eb2e8a7189a4db5cf48ae03c93e77e37bff0ce2070bff1244d4f",
    "zero2/kreiss.json": "2d04e4609c957984cdfe5380d3532681e86fa3991e5ad59e7cfcfe5b99d93eae",
    "zero2/strong_kreiss.json": "64d700d2c0ba6ddf90f64a29506ea823a5463f99ded3714f2bcecb17ccac7576",
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
    proc = _run("decomposition_frontier.py", "20", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()[1:4]
    # one decomp-scan report per p, and the table prints its floor
    for p, row in zip((1.25, 1.5, 1.75), rows):
        rep = json.loads((tmp_path / f"p{p}" / "decomp.json").read_text())
        assert (rep["subcommand"], rep["side"], rep["p"], rep["trials"]) == (
            "decomp-scan", "lower", p, 20)
        assert rep["q"] == p / (p - 1.0)
        assert row.split()[-1] == f"{rep['constant_lower']:.8f}"


def test_gallery_survey(tmp_path):
    proc = _run("gallery_survey.py", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    got = {f"{d}/{f}": _sha256(tmp_path / d / f) for d in sorted(os.listdir(tmp_path))
           for f in sorted(os.listdir(tmp_path / d)) if f != "run_meta.json"}
    assert got == SURVEY_SHA256
    # each report names its operator and subcommand, so no two of them are the same file
    assert len(set(got.values())) == len(got)
