"""Workload definitions: the CLI argv lists each workload runs, in order.

Every argv gets ``--out <dir>`` and, when its subcommand takes one,
``--seed <seed>`` appended by the runner.  The lists are fixed; the seed is
the only input that varies between runs.
"""

from __future__ import annotations

_JORDAN16 = ["--op", "jordan", "--dim", "16", "--eigenvalue", "0.9"]
_P2_GRID = ["--radial", "16", "--angular", "32", "--refine-rounds", "1"]

# Sizes are cut from the README's so that a pass takes 2-4 s and one run
# times several passes: this machine class varies by up to 10% from one pass
# to the next, and only a median over many passes is steady.
WORKLOADS: dict[str, list[list[str]]] = {
    # every grid point goes through norms.ascent_lower_bound (144 calls of 8
    # restarts x 150 steps).  All calls of one run start from the same seeded
    # vectors, so the seed moves the whole pass by up to 25%: the pass is kept
    # short (no refinement round, whose 405 points would triple it) so that
    # a run's median covers many seeds.
    "resolvent_general_p": [
        ["kreiss", "--gallery", "jordan2_damped", "--p", "3", "--radial", "8",
         "--angular", "16", "--refine-rounds", "0"],
    ],
    # p = 2: batched SVD, strong-Kreiss power stacks and expm; the ascent is
    # never called, and cesaro without --ks-ref recomputes Ks (and with it K)
    "resolvent_p2_matrix": [
        ["kreiss", *_JORDAN16, *_P2_GRID],
        ["strong-kreiss", *_JORDAN16, *_P2_GRID],
        ["exp-criterion", *_JORDAN16, *_P2_GRID],
        ["cesaro", *_JORDAN16, *_P2_GRID, "--n-max", "128", "--angular", "32"],
    ],
    # block norms plus the partition DP; no resolvent work.  Fewer ascent
    # steps than the default 200 keep the seed from swinging the pass time:
    # the ascent runs on the corpus's ten best polynomials, whose sizes vary
    # with the seed far more than the corpus average does.
    "fourier_decomp": [
        ["decomp-scan", "--p", "4", "--q", "4", "--side", "lower", "--trials", "1000",
         "--ascent-steps", "50"],
        ["decomp-scan", "--p", "3", "--q", "2", "--side", "upper", "--trials", "500",
         "--ascent-steps", "50"],
        ["riesz-norm", "--p", "4", "--trials", "300"],
        ["marcinkiewicz", "--p", "3", "--trials", "200"],
        ["type-cotype", "--kind", "cotype", "--exponent", "2", "--dim", "2",
         "--inner-p", "1"],
    ],
    # long sequential loops (verify, positivity, power), large CSV writes and
    # single-matrix norm calls with the full 32-restart, 500-step ascent
    "certify_sweeps": [
        ["verify-appendix", "--n-max", "5000"],
        ["positivity", "--gallery", "shift4", "--q", "1.5", "--corpus", "50"],
        ["growth", "--op", "jordan", "--dim", "2", "--p", "3", "--n-max", "256",
         "--fit", "poly"],
        ["growth", "--op", "jordan", "--dim", "2", "--p", "inf", "--n-max", "4096",
         "--fit", "both"],
        ["bounds", "--gallery", "jordan2_damped", "--n-max", "1024"],
    ],
}

# subcommands whose parser has no --seed flag
NO_SEED = {"verify-appendix"}

# the seed the golden digests were recorded at
GOLDEN_SEED = 7


def _share(metric: str, floor: float):
    return (f"{metric} > {floor:g} of traced wall_s",
            lambda m: m[metric] > floor * m["trace.traced_wall_s"])


def _equals(metric: str, value: float):
    return f"{metric} == {value:g}", lambda m: m[metric] == value


# What each workload is built to separate, checked on every traced run.  A
# miss is reported, not counted as a failed task: it says the workload no
# longer isolates its layer, not that the program computed a wrong result.
SEPARATION = {
    "resolvent_general_p": [_share("norms.ascent_lower_bound.self_s", 0.5)],
    "resolvent_p2_matrix": [
        _equals("norms.ascent_lower_bound.calls", 0),
        _equals("resolvent.kreiss_constant.calls", 3),
        _share("resolvent.strong_kreiss_constant.self_s", 0.5),
    ],
    "fourier_decomp": [
        _equals("norms.ascent_lower_bound.calls", 0),
        _share("decomp.estimate_constant.self_s", 0.5),
    ],
    "certify_sweeps": [],
}


def task_argv(argv: list[str], out: str, seed: int) -> list[str]:
    """The full argv of one task: the fixed list plus --out and --seed."""
    full = [*argv, "--out", out]
    if argv[0] not in NO_SEED:
        full += ["--seed", str(seed)]
    return full
