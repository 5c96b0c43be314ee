"""Output checks: golden report digests at the golden seed, invariants on any seed.

A task fails if it raises, returns an exit code other than the recorded one,
writes a report (any file but ``run_meta.json``) whose SHA-256 differs from
the golden digest, or breaks an invariant the reports already state.  The
digests pin the golden seed only; the invariants hold on every seed.
"""

from __future__ import annotations

import hashlib
import json
import os

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
UNPINNED = {"run_meta.json"}  # holds a timestamp, outside the determinism contract


def report_digests(out: str) -> dict[str, str]:
    """SHA-256 of every report file in ``out`` except run_meta.json."""
    digests = {}
    for name in sorted(os.listdir(out)) if os.path.isdir(out) else []:
        if name in UNPINNED:
            continue
        with open(os.path.join(out, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def load_golden(workload: str) -> list[dict] | None:
    try:
        with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
            return json.load(fh).get(workload)
    except FileNotFoundError:
        return None


def save_golden(workload: str, entries: list[dict]) -> None:
    data = {}
    if os.path.exists(GOLDEN_PATH):
        with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    data[workload] = entries
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(data, indent=1, sort_keys=True) + "\n")


def _read_json(out: str, name: str) -> dict | None:
    path = os.path.join(out, name)
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="ascii") as fh:
        return json.load(fh)


def invariant_errors(outs: list[str]) -> dict[int, str]:
    """Broken report invariants of one pass, keyed by task index.

    k_lower >= 1, ks_lower >= k_lower for the same operator, an empty
    appendix failure list, and a Krivine margin >= 1.
    """
    errors: dict[int, str] = {}
    k_lower: dict[str, float] = {}
    strong: dict[str, tuple[int, float]] = {}
    for i, out in enumerate(outs):
        # float() also reads the "inf"/"nan" strings write_json stores
        kreiss = _read_json(out, "kreiss.json")
        if kreiss is not None:
            k_lower[kreiss["operator"]] = float(kreiss["k_lower"])
            if not float(kreiss["k_lower"]) >= 1.0:
                errors[i] = f"k_lower = {kreiss['k_lower']} < 1"
        ks = _read_json(out, "strong_kreiss.json")
        if ks is not None:
            strong[ks["operator"]] = (i, float(ks["ks_lower"]))
        appendix = _read_json(out, "appendix.json")
        if appendix is not None and appendix["failures"]:
            errors[i] = f"appendix failures at n = {appendix['failures'][:5]}"
        positivity = _read_json(out, "positivity.json")
        if positivity is not None and not float(positivity["krivine_margin_overall"]) >= 1.0:
            errors[i] = f"Krivine margin {positivity['krivine_margin_overall']} < 1"
    for op, (i, ks_lower) in strong.items():
        if op in k_lower and not ks_lower >= k_lower[op]:
            errors[i] = f"ks_lower = {ks_lower} < k_lower = {k_lower[op]}"
    return errors


def task_errors(results: list[tuple[int | None, dict]], outs: list[str],
                expected: list[dict], golden: bool) -> list[str | None]:
    """One entry per task: None if it passed, else why it failed.

    ``results`` holds (exit code or None if it raised, report digests);
    ``golden`` says the pass ran at the seed the digests were recorded at.
    """
    invariants = invariant_errors(outs)
    errors: list[str | None] = []
    for i, (code, digests) in enumerate(results):
        want = expected[i]
        if code is None:
            errors.append("raised an exception")
        elif code != want["exit_code"]:
            errors.append(f"exit code {code}, recorded {want['exit_code']}")
        elif golden and digests != want["sha256"]:
            diff = sorted(set(digests.items()) ^ set(want["sha256"].items()))
            errors.append(f"report digests differ from golden: {sorted({n for n, _ in diff})}")
        else:
            errors.append(invariants.get(i))
    return errors
