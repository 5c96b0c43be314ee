"""Golden CLI runs: exit code, stdout and report bytes of every subcommand.

One small argv per subcommand, plus the two flagged (exit 1) witness paths.
Each run checks the exit code, the stdout text and the SHA-256 of every file
written to --out except run_meta.json, which carries a timestamp.  The
expected values pin the reports byte for byte, so a refactor of the CLI that
changes any report, summary line or exit code fails here.

The digests hold for this numpy/scipy/BLAS stack; a different linear-algebra
build may round the last bits differently.  Do not re-record them to make a
refactor pass: a changed digest means a changed report.
"""

import hashlib
import os

import pytest

from kreisslab.cli import main

PLOT_CSV = "n,a,b\n1,1.0,2.0\n2,2.0,3.5\n4,4.0,5.0\n8,8.0,9.25\n"

# name -> argv (without --out)
CASES = {
    "kreiss": ["kreiss", "--gallery", "jordan2_damped", "--radial", "8", "--angular", "8"],
    "strong-kreiss": ["strong-kreiss", "--op", "nilpotent", "--dim", "2", "--coupling", "2",
                      "--n-max", "8", "--radial", "8", "--angular", "8"],
    "exp-criterion": ["exp-criterion", "--gallery", "jordan2_damped", "--xi-max", "5",
                      "--radial", "8", "--angular", "8"],
    # general p with refinement: the ascent and inf-norm paths of the search
    "kreiss-general-p": ["kreiss", "--gallery", "jordan2_damped", "--p", "3", "--radial", "8",
                         "--angular", "8", "--refine-rounds", "1"],
    "strong-kreiss-general-p": ["strong-kreiss", "--gallery", "jordan2_damped", "--p", "3",
                                "--n-max", "4", "--radial", "8", "--angular", "8",
                                "--refine-rounds", "1"],
    "exp-criterion-general-p": ["exp-criterion", "--gallery", "jordan2_damped", "--p", "inf",
                                "--xi-max", "5", "--radial", "8", "--angular", "8",
                                "--refine-rounds", "1"],
    "cesaro": ["cesaro", "--gallery", "jordan2_damped", "--n-max", "32", "--radial", "8",
               "--angular", "8", "--gz"],
    "cesaro-flagged": ["cesaro", "--gallery", "identity3", "--n-max", "32", "--angular", "8",
                       "--ks-ref", "0.001"],
    "growth": ["growth", "--op", "jordan", "--dim", "2", "--p", "inf", "--n-max", "64",
               "--fit", "both"],
    # exact p = 1 and p = 2 power norms over a few hundred powers
    "growth-exact-p1": ["growth", "--op", "jordan", "--dim", "16", "--eigenvalue", "0.9",
                        "--p", "1", "--n-max", "300", "--fit", "both"],
    "growth-p2-witness": ["growth", "--gallery", "rotation3", "--p", "2", "--n-max", "300",
                          "--fit", "poly"],
    "bounds": ["bounds", "--gallery", "identity3", "--n-max", "32", "--radial", "8",
               "--angular", "8"],
    "bounds-flagged": ["bounds", "--op", "jordan", "--dim", "2", "--p", "inf", "--n-max", "64",
                       "--k-ref", "1.0", "--ks-ref", "1.0", "--radial", "8", "--angular", "8"],
    # zero norms from n = 2 on: 0.0 cells and inf margins
    "bounds-nilpotent": ["bounds", "--gallery", "nilpotent2", "--n-max", "16", "--radial", "8",
                         "--angular", "8"],
    # general p: the norm bounds differ, norm_lower < norm_upper
    "bounds-general-p": ["bounds", "--gallery", "jordan2_damped", "--p", "3", "--n-max", "64",
                         "--k-ref", "2", "--ks-ref", "3"],
    "decomp-scan": ["decomp-scan", "--p", "2", "--q", "2", "--side", "lower", "--trials", "40",
                    "--max-support", "6", "--seed", "3"],
    # upper side: oversampled quadrature, l^1 inner norm, gamma > 0
    "decomp-scan-upper": ["decomp-scan", "--p", "3", "--q", "4", "--side", "upper",
                          "--inner-p", "1", "--gamma", "0.25", "--trials", "60",
                          "--max-support", "10", "--max-dim", "3", "--ascent-steps", "40",
                          "--seed", "5"],
    # p = q = 4 lower side: the floor is 1.075066 against 1.050153 without the
    # ascent, so the ascent's accepted steps reach the report
    "decomp-scan-lower-p4": ["decomp-scan", "--p", "4", "--q", "4", "--side", "lower",
                             "--trials", "200", "--max-support", "12", "--max-dim", "2",
                             "--ascent-steps", "30", "--seed", "4"],
    "riesz-norm": ["riesz-norm", "--p", "2", "--dim", "1", "--trials", "20",
                   "--ascent-steps", "10", "--seed", "1"],
    # p = 4 with an l^1 inner norm: the projection norm exceeds 1, so the
    # ascent's accepted steps reach the report
    "riesz-norm-p4": ["riesz-norm", "--p", "4", "--dim", "2", "--inner-p", "1", "--trials", "30",
                      "--ascent-steps", "40", "--seed", "2"],
    "marcinkiewicz": ["marcinkiewicz", "--p", "4", "--trials", "25", "--span", "4",
                      "--seed", "2"],
    "type-cotype": ["type-cotype", "--kind", "type", "--exponent", "2", "--dim", "2",
                    "--family", "random", "--count", "3", "--samples", "200", "--seed", "3"],
    "positivity": ["positivity", "--gallery", "shift4", "--q", "1.5", "--n-list", "4,16",
                   "--corpus", "8", "--seed", "4", "--radial", "8", "--angular", "8"],
    # n = 2 and 3 have one- and two-term windows; q = 1
    "positivity-small-n": ["positivity", "--gallery", "jordan2_damped", "--q", "1",
                           "--n-list", "2,3,256", "--corpus", "20", "--seed", "4"],
    "verify-appendix": ["verify-appendix", "--n-max", "200"],
    # n_min > 2, across the 5000 mark and several window lengths
    "verify-appendix-tail": ["verify-appendix", "--n-min", "4990", "--n-max", "5130"],
    "gallery-list": ["gallery-list"],
    "plot": ["plot", "--csv", "{tmp}/series.csv", "--title", "golden"],
}

# name -> (exit code, stdout with {out} for the --out directory, {file: sha256})
EXPECTED = {
    'bounds': (
        0, 'bounds identity3: min margins kreiss=5.437 strong=3.545 matrixthm=8.155\n',
        {
            'bounds.csv': '313eb209671f6be930e7322ac393f70b8a9aa215dd79bf849eacbff7879a534b',
            'bounds.json': '945a066d6a7fbfe947926a6246c3b2e89c845214b1e65f9d1c4630434df09a20',
        },
    ),
    'bounds-flagged': (
        1, 'bounds jordan2: FLAGGED margin below 1 (see witness_bounds.json)\n',
        {
            'bounds.csv': 'e2b3c9677524ec6e997a8c9d3d7e853238f7ce3cf21230a5c09069f215c5b3cf',
            'bounds.json': '78ff25154cfd21ba2c1642952e7d2ceb5a621cc6e79f6c3f4affe85f7050dcd0',
            'witness_bounds.json': '0c30c20063294879d16e9d3e0ec7edbb42ed70e0162bd904fcc0481129d2a7ba',
        },
    ),
    'bounds-general-p': (
        0, 'bounds jordan2_damped: min margins kreiss=6.333 strong=4.850 matrixthm=2.551\n',
        {
            'bounds.csv': 'fbcaf63c7796824bdf2f80831243f8942b72b14ee31930804c02aaa1c962812b',
            'bounds.json': '0c38d6ba01ff83dbb93dee2f3821142a4c4ce3c1ee8849f6276f2da975f27489',
        },
    ),
    'bounds-nilpotent': (
        0, 'bounds nilpotent2: min margins kreiss=2.718 strong=1.772 matrixthm=2.718\n',
        {
            'bounds.csv': 'd54b5480311f120b3165782bb70cefc9dfd99c5311e5c34d0452288a40f78caf',
            'bounds.json': 'c8e2d1907a7de3ddcb25a61d98fac8379e01f0e8933f06ca1bb1503099009b11',
        },
    ),
    'cesaro': (
        0, 'cesaro jordan2_damped: ratio_max=0.043317 (consistent)\n',
        {
            'cesaro.json': '5562493f6708e6586266fa3279e53d64a062a97565cb15ca10c6253e5246cc53',
        },
    ),
    'cesaro-flagged': (
        1, 'cesaro identity3: FLAGGED ratio 50.000000 at n=0\n',
        {
            'cesaro.json': 'b15ecee0782b20fd2eec95695ede4fe26dfb21c51a568bea793cbf6007f7f68f',
            'witness_cesaro.json': '75981e500d68c3023095b50936079999ebc1a1e72c4f34f76dc06350f57ec17c',
        },
    ),
    'decomp-scan': (
        0, 'decomp-scan: lower p=2.0 q=2.0 gamma=0.0 empirical floor 1.000000\n',
        {
            'decomp.json': 'ee7e0d74aa32c01226c69f3d967ccce83eba63417b42030039d50650dc8f40f0',
            'witness_f.txt': '3315fe0d344b52d711061cd8ed7993bd3ef3f30219f7d245ce9e36a342eb197d',
        },
    ),
    'decomp-scan-upper': (
        0, 'decomp-scan: upper p=3.0 q=4.0 gamma=0.25 empirical floor 1.210992\n',
        {
            'decomp.json': 'e0a36bb0e81120ad3c8fa4893d5065d5cd53cb46ad981752fadd5434b7f15009',
            'witness_f.txt': '16f8d7c6d245f57f82cfe1c2c35042f204d665643144e6e99c80a495b0362820',
        },
    ),
    'decomp-scan-lower-p4': (
        0, 'decomp-scan: lower p=4.0 q=4.0 gamma=0.0 empirical floor 1.075066\n',
        {
            'decomp.json': '4def708fb19812237ed195d733752fbbb3b753ed327f2a8d7776aa387fb0fd88',
            'witness_f.txt': 'b99e0f4dfa85a11daff3ef675b3998aca085c396d47e0db890ecf997782759c2',
        },
    ),
    'exp-criterion': (
        0, 'exp-criterion jordan2_damped: exp_lower=3.14946043\n',
        {
            'exp_criterion.json': '0bb6755d0f7e0cddc71f6a411fe322469a76fb7d005d637a1c3d9f38a2f30950',
        },
    ),
    'exp-criterion-general-p': (
        0, 'exp-criterion jordan2_damped: exp_lower=3.63918396\n',
        {
            'exp_criterion.json': '068ada2be423e2c78c32eabc95d208cf012b30eacfb887f9aa220abaa90fcb3b',
        },
    ),
    'gallery-list': (
        0, 'sha256:854387e65c94bd499ae5da15d9bebc026ad174e0021dbac8089f8c2e00e9a90e',
        {
            'gallery.json': '132775b18459ad701b0514461663eafea842425e0491d0c2004eefdb20366a52',
        },
    ),
    'growth': (
        0, 'growth jordan2: alpha=0.9587 (residual 6.39e-03, csv written)\n',
        {
            'growth.csv': 'b353a56bbd1c85d981d749212786129222d374ccfcd4f4c759474a3a37c0b476',
            'growth.json': '8cd211ca165fb6428dac003abeb0a99b4997d849927735827c8fe7380e260c34',
        },
    ),
    'growth-exact-p1': (
        0, 'growth jordan16: alpha=4.3328 (residual 3.00e+00, csv written)\n',
        {
            'growth.csv': 'c860c2658a1c1df20071670d0f0c850a00efae019f41680219895d64b3093d0d',
            'growth.json': '9ba57c912f5c545a6b3b9fc19bd91e26228cc252411363afec56b82788b654f9',
        },
    ),
    'growth-p2-witness': (
        0, 'growth rotation3: alpha=0.0000 (residual 3.58e-16, csv written)\n',
        {
            'growth.csv': 'e27a2917d2502c0389327195469c7936f87d1ac211e59316b17ebbc3d13e503b',
            'growth.json': '575d63fa5c5e2fa7341adadbaa9df95c3c86406182a630acf0900f803d9987fa',
        },
    ),
    'kreiss': (
        0, 'kreiss jordan2_damped: k_lower=2.59983172\n',
        {
            'kreiss.json': '5826f385e23b2f6ef86f2b42144212bbf20a433df8753db5e6f8d21bfa602f9f',
        },
    ),
    'kreiss-general-p': (
        0, 'kreiss jordan2_damped: k_lower=2.64005222\n',
        {
            'kreiss.json': 'c79006ceff11f476e7af7399e0bdd57c1208fea4429b4c8c5f2a34acc45b9124',
        },
    ),
    'marcinkiewicz': (
        0, 'marcinkiewicz: p=4.0 max sample ratio 0.200000 over 25 trials\n',
        {
            'marcinkiewicz.json': '6b738dd7f2650e1434ed0c2b1cb9ace8e078b0b2007b48492157304202134f79',
        },
    ),
    'plot': (
        0, 'plot: wrote {out}/plot.svg\n',
        {
            'plot.svg': '5229956879c1093610d0479f2c03bd9060743fca8e26e6c6acced41b9a681f9b',
        },
    ),
    'positivity': (
        0, 'positivity shift4: krivine margin >= 10.7325 across n in [4, 16]\n',
        {
            'positivity.json': '892dc1b8e69346f2e356bbf353bd044277bb357a44921840a4a23fa8edb6c416',
        },
    ),
    'positivity-small-n': (
        0, 'positivity jordan2_damped: krivine margin >= 18.9591 across n in [2, 3, 256]\n',
        {
            'positivity.json': '5251c72b0ecf906088b75ce17011ad7a30f31530a594daa44696478dce912ab1',
        },
    ),
    'riesz-norm': (
        0, 'riesz-norm: p=2 d=1 lower bound 1.000000\n',
        {
            'riesz.json': '196ffbb48af2a2aad5708c7162e6357545af0f2db5eb161a9f849bd32534d303',
        },
    ),
    'riesz-norm-p4': (
        0, 'riesz-norm: p=4 d=2 lower bound 1.019283\n',
        {
            'riesz.json': 'd7694c4e990e4ee13b3a92036fddcd6ef981593ecc4fb6f704add809a65c790a',
        },
    ),
    'strong-kreiss': (
        0, 'strong-kreiss nilpotent2: ks_lower=1\n',
        {
            'strong_kreiss.json': '2b075d10faa7310b3a448754955e6db8bb11e8290f63d1523a7ecf2b497abbeb',
        },
    ),
    'strong-kreiss-general-p': (
        0, 'strong-kreiss jordan2_damped: ks_lower=3.2337827\n',
        {
            'strong_kreiss.json': '2bcd63409ce948a43a5112ef382ac301af96c7408731ccf2552c1073cbe58e6f',
        },
    ),
    'type-cotype': (
        0, 'type-cotype: type-2.0 sample constant 1.014726 +/- 2.07e-02\n',
        {
            'type_cotype.json': '9c114a7a522f5e7936d653b2bd031cc8523e37704165cb0072258aae819fd9b8',
        },
    ),
    'verify-appendix': (
        0, 'verify-appendix: n in [2, 200] all pass (sup_a_max=10.919630, v1_max=21.839260)\n',
        {
            'appendix.csv': '8aa6b8da445993287b2775bca10617f9814317fd16891dcac10116d276c76842',
            'appendix.json': 'd14c228cd1baa5aaa4998358a63508a54dfa765c6bfacd007893c6d439de39bd',
        },
    ),
    'verify-appendix-tail': (
        0, 'verify-appendix: n in [4990, 5130] all pass (sup_a_max=7.409839, v1_max=14.819677)\n',
        {
            'appendix.csv': '4032cfefa886610829c5610054e46d643b46542a35b9604c5a57be724e685cb6',
            'appendix.json': '35ca13c5d1965626ae4470342d2d5193b6739a862bdff76f1d4ffcdeea471ae2',
        },
    ),
}


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_golden(name, tmp_path, capsys):
    (tmp_path / "series.csv").write_text(PLOT_CSV)
    out = str(tmp_path / "out")
    argv = [a.replace("{tmp}", str(tmp_path)) for a in CASES[name]] + ["--out", out]
    code = main(argv)
    stdout = capsys.readouterr().out.replace(out, "{out}")
    digests = {f: _sha256(os.path.join(out, f)) for f in sorted(os.listdir(out))
               if f != "run_meta.json"}
    assert os.path.isfile(os.path.join(out, "run_meta.json"))
    want_code, want_stdout, want_digests = EXPECTED[name]
    assert code == want_code
    if want_stdout.startswith("sha256:"):
        assert "sha256:" + hashlib.sha256(stdout.encode()).hexdigest() == want_stdout
    else:
        assert stdout == want_stdout
    assert digests == want_digests
    # exit 1 means exactly that a witness_*.json was written
    assert (code == 1) == any(f.startswith("witness_") and f.endswith(".json") for f in digests)
