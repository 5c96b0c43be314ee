"""Command-line frontend binding every module.

Usage contract:
  exit 0  run completed, nothing flagged
  exit 1  a checked inequality was flagged; a witness file sits in --out
  exit 2  usage error (bad flags, bad config file, missing mandatory seed,
          a value outside its flag's domain, nothing to fit)

Determinism: identical argv (same seed) produce byte-identical report files.
Wall-clock metadata is isolated in run_meta.json, which the determinism
guarantee excludes.  Config files are JSON, keyed by subcommand; explicit CLI
flags override config values, which override built-in defaults.  _merge converts
each joined value once, by its flag in FLAGS, and checks it against the flag's
domain or choices before any work starts; the handlers get the typed values.

Each subcommand is a handler in HANDLERS that only computes: it returns an
Outcome, and main alone writes the report envelope, the extra files, the
witness and run_meta.json, prints the summary and picks the exit code.

main parses with the parser of the subcommand it is given, built once per process
(see build_parser), and reports every usage error with that subcommand's usage.

At module level this file imports only what parsing, merging and reporting
need: numpy, operators and reporting.  Each handler imports the computation
modules it runs in its own body, so a process loads (and, with no bytecode
cache, compiles) only the modules of the subcommand it was given.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from . import __version__
from .operators import (
    InvalidOperatorError,
    MatrixParseError,
    NonSquareError,
    OperatorSpec,
    gallery,
    gallery_entry,
    make_gallery_operator,
    _require,
)
from .reporting import (
    SCHEMA,
    ensure_out_dir,
    read_csv,
    svg_line_chart,
    write_csv,
    write_json,
)

if TYPE_CHECKING:
    from .resolvent import FunctionalEstimate, SearchConfig

# subcommands that act on one operator: they take the kreiss operator and
# search flags, and their handlers get the operator and its SearchConfig
OPERATOR_SUBS = ("kreiss", "strong-kreiss", "exp-criterion", "cesaro", "growth", "bounds",
                 "positivity")
# marcinkiewicz trials drawn and scored as one batch: the memory of a run does
# not grow with --trials
_MARCINKIEWICZ_CHUNK = 256
# the flag threshold of the positivity margins, Krivine and block alike
_POSITIVITY_TOL = 1e-8
# report wording: what the reports call their numbers
_FLOOR_LABEL = "empirical floor"
_BLOCK_LABEL = "consistency: lower-bound substitution"
_BOUNDS_NOTE = "reference constants are lower-bound substitutions"

# built-in defaults; a subcommand has exactly the flags named by its keys, plus
# --out and --config.  A seed default of None makes --seed mandatory.
DEFAULTS: dict[str, dict] = {
    "kreiss": {"gallery": None, "op": None, "dim": 2, "scale": "1", "eigenvalue": "1",
               "coupling": 1.0, "weights": None, "angles": None, "matrix_file": None,
               "p": "2", "r_max": 1e6, "radial": 48, "angular": 64, "refine_rounds": 3, "seed": 0},
    "strong-kreiss": {"n_max": 16},
    "exp-criterion": {"xi_max": 40.0},
    "cesaro": {"n_max": 1000, "angular": 720, "ks_ref": None, "gz": False},
    "growth": {"n_max": 4096, "fit": "both"},
    "bounds": {"n_max": 1024, "k_ref": None, "ks_ref": None},
    "decomp-scan": {"p": "2", "q": "2", "inner_p": "2", "side": "upper", "gamma": 0.0,
                    "trials": 2000, "ascent_steps": 200, "max_support": 16, "max_dim": 2,
                    "seed": None},
    "riesz-norm": {"p": "4", "dim": 1, "inner_p": "2", "trials": 300, "max_support": 12,
                   "ascent_steps": 120, "seed": None},
    "marcinkiewicz": {"p": "4", "inner_p": "2", "dim": 1, "trials": 200, "span": 8, "seed": None},
    "type-cotype": {"kind": "type", "exponent": 2.0, "dim": 2, "count": None,
                    "family": "basis", "inner_p": "2", "samples": 4096, "seed": None},
    "positivity": {"q": 1.0, "n_list": "4,16,64,256", "corpus": 100, "ks_ref": None,
                   "seed": None},
    "verify-appendix": {"n_min": 2, "n_max": 10000},
    "gallery-list": {},
    "plot": {"csv": None, "x_col": "n", "y_cols": None, "log_x": True, "log_y": True, "title": ""},
}
for _sub in OPERATOR_SUBS[1:]:
    DEFAULTS[_sub] = {**DEFAULTS["kreiss"], **DEFAULTS[_sub]}


def _parse_p(text) -> float:
    t = str(text).strip().lower()
    if t in ("inf", "infinity", "oo"):
        return math.inf
    return float(t)


def _parse_list(convert: Callable, text: str) -> tuple:
    return tuple(convert(tok) for tok in text.split(",") if tok.strip())


def _parse_n_list(text: str) -> tuple[int, ...]:
    n_list = _parse_list(lambda tok: _require("n", int(tok), 2), text)
    if not n_list:
        raise ValueError("positivity needs at least one n")
    return n_list


# argparse options and domain of every flag, keyed by dest: how _merge converts
# and checks its value.  A dest with no type, domain or action is text, which
# its "parse", if any, converts in _merge (argparse and the config echo keep the
# text).  The option is --<dest with - for _> unless "flag" names it, and every
# flag defaults to None so that _merge sees what was given.
# A domain (lo, hi, ends) is the interval _merge checks the value against (see
# operators._require): "[" admits its end and "(" does not, so "]" at inf admits
# inf and ")" asks for a finite value.  A flag with a domain and no type is a
# norm index that _parse_p reads ('inf' too).
FLAGS: dict[str, dict] = {
    "out": {"help": "output directory for reports"},
    "config": {"help": "JSON config file"},
    "gallery": {"help": "gallery operator name"},
    "op": {"help": "operator kind"},
    "dim": {"type": int, "domain": (1, math.inf, "[)")},
    "scale": {"parse": lambda t: complex(t.replace(" ", "") or "1")},
    "eigenvalue": {"parse": lambda t: complex(t.replace(" ", "") or "1")},
    "coupling": {"type": float, "domain": (-math.inf, math.inf, "()")},
    "weights": {"help": "comma-separated superdiagonal", "parse": lambda t: _parse_list(float, t)},
    "angles": {"help": "angle in turns, or comma list", "parse": lambda t: _parse_list(float, t)},
    "p": {"help": "norm index (number or 'inf')", "domain": (1, math.inf, "[]")},
    "q": {"domain": (1, math.inf, "[)")},
    "inner_p": {"domain": (1, math.inf, "[]")},
    "r_max": {"type": float, "domain": (1, math.inf, "()")},
    "radial": {"type": int, "domain": (4, math.inf, "[)")},
    "angular": {"type": int, "domain": (4, math.inf, "[)")},
    "refine_rounds": {"type": int, "domain": (0, math.inf, "[)")},
    "seed": {"type": int, "domain": (0, math.inf, "[)")},
    "n_max": {"type": int, "domain": (1, math.inf, "[)")},
    "n_min": {"type": int, "domain": (2, math.inf, "[)")},
    "xi_max": {"type": float, "domain": (0, math.inf, "()")},
    "k_ref": {"type": float, "domain": (0, math.inf, "()")},
    "ks_ref": {"type": float, "domain": (0, math.inf, "()")},
    "fit": {"choices": ("poly", "poly_log", "both")},
    "gz": {"action": "store_true"},
    "side": {"choices": ("upper", "lower")},
    "gamma": {"type": float, "domain": (0, math.inf, "[)")},
    "trials": {"type": int, "domain": (1, math.inf, "[)")},
    "ascent_steps": {"type": int, "domain": (0, math.inf, "[)")},
    "max_support": {"type": int, "domain": (2, math.inf, "[)")},
    "max_dim": {"type": int, "domain": (1, math.inf, "[)")},
    "span": {"type": int, "domain": (0, math.inf, "[)"), "help": "multiplier window half-width"},
    "kind": {"choices": ("type", "cotype")},
    "exponent": {"type": float, "domain": (1, math.inf, "[]")},
    "count": {"type": int, "domain": (1, math.inf, "[)")},
    "family": {"choices": ("basis", "random")},
    "samples": {"type": int, "domain": (2, math.inf, "[)")},
    "corpus": {"type": int, "domain": (1, math.inf, "[)")},
    "n_list": {"parse": _parse_n_list},
    "y_cols": {"help": "comma-separated columns", "parse": lambda t: t and t.split(",")},
    "log_x": {"flag": "--linear-x", "action": "store_false"},
    "log_y": {"flag": "--linear-y", "action": "store_false"},
}


def _flag_spec(sub: str, dest: str) -> dict:
    """FLAGS[dest] with the type and domain the flag has in subcommand sub."""
    spec = dict(FLAGS.get(dest, {}))
    if (sub, dest) == ("positivity", "q"):
        spec.update(type=float, domain=(1, 2, "[)"))  # the Krivine check's exponent
    elif dest == "p" and sub in ("decomp-scan", "riesz-norm", "marcinkiewicz"):
        spec["domain"] = (1, math.inf, "[)" if sub == "marcinkiewicz" else "()")
    elif dest == "n_max" and sub in ("cesaro", "verify-appendix"):
        spec["domain"] = ({"cesaro": 0, "verify-appendix": 2}[sub], math.inf, "[)")
    elif (sub, dest) == ("growth", "n_max"):
        from .power import MIN_FIT_SAMPLES
        spec["domain"] = (MIN_FIT_SAMPLES, math.inf, "[)")
    return spec


def _option(dest: str) -> str:
    return "--" + dest.replace("_", "-")


@functools.cache
def build_parser(sub: str | None) -> argparse.ArgumentParser:
    """The kreisslab parser.  It names every subcommand, but only sub's parser gets its
    flags, most of the cost, and sets "parser" to itself to report usage errors."""
    parser = argparse.ArgumentParser(
        prog="kreisslab",
        description="Resolvent-condition diagnostics, power-growth profiling, and "
                    "Fourier decomposition scans for matrices.",
    )
    parser.add_argument("--version", action="version", version=f"kreisslab {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for name, defaults in DEFAULTS.items():
        sp = subs.add_parser(name)
        if name != sub:
            continue
        sp.set_defaults(parser=sp)
        for dest in dict.fromkeys(("out", "config", *defaults)):
            spec = {k: v for k, v in _flag_spec(name, dest).items() if k not in ("domain", "parse")}
            sp.add_argument(spec.pop("flag", _option(dest)), dest=dest, default=None, **spec)
    return parser


def _load_config(path, sub: str, parser: argparse.ArgumentParser) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"cannot read config file {path}: {exc}")
    if not isinstance(data, dict):
        parser.error("config file must hold a JSON object")
    section = data.get(sub, {})
    if not isinstance(section, dict):
        parser.error(f"config section {sub!r} must be an object")
    known = set(DEFAULTS[sub]) | {"out"}
    unknown = sorted(set(section) - known)
    if unknown:
        parser.error(f"unknown config keys for {sub!r}: {', '.join(unknown)}")
    return section


def _typed(key: str, spec: dict, value):
    """value converted by its flag's spec and checked against its domain or choices.

    A config file's JSON value is held to the flag's type: a number flag takes a
    number or its text but no bool, an int flag no fraction, a switch only true
    or false, and any other flag only a string.
    """
    convert = spec.get("type", _parse_p if "domain" in spec else None)
    want = bool if "action" in spec else str if convert is None else (int, float, str)
    if (not isinstance(value, want) or isinstance(value, bool) and want is not bool
            or convert is int and isinstance(value, float) and not value.is_integer()):
        name = want.__name__ if convert is None else "int" if convert is int else "float"
        raise ValueError(f"invalid {name} value: {value!r}")
    if value not in spec.get("choices", (value,)):
        raise ValueError(f"invalid choice: {value!r} (choose from "
                         f"{', '.join(map(repr, spec['choices']))})")
    convert = convert or spec.get("parse")
    typed = value if convert is None else convert(value)
    if "domain" in spec:
        _require(key, typed, *spec["domain"])
    return typed


def _merge(args: argparse.Namespace, sub: str, parser: argparse.ArgumentParser):
    """(typed, echo): the joined values converted once for the run, and the report's
    config echo: them as written, less out, with schema 1's fixed "threads": 1."""
    defaults = {"out": None, "seed": 0, **DEFAULTS[sub]}
    written = {**defaults, **_load_config(args.config, sub, parser)}
    written.update((key, val) for key, val in vars(args).items()
                   if val is not None and key not in ("subcommand", "config", "parser"))
    if defaults["seed"] is None and written["seed"] is None:
        parser.error(f"--seed is mandatory for the randomized subcommand {sub!r}")
    typed = {}
    for key, value in written.items():
        spec = _flag_spec(sub, key)
        try:  # null stands only for a flag whose default is null
            typed[key] = (None if value is None and defaults[key] is None
                          else _typed(key, spec, value))
        except (ValueError, OverflowError) as exc:
            parser.error(f"argument {spec.get('flag', _option(key))}: {exc}")
    return typed, {"threads": 1, **{k: v for k, v in written.items() if k != "out"}}


def _operator(params: dict):
    """(name, matrix) of the operator the flags select; a bad operator value is a
    ValueError that names its flag."""
    if params.get("gallery"):
        try:
            entry = gallery_entry(params["gallery"])
        except KeyError as exc:
            raise ValueError(f"argument --gallery: {exc.args[0]}") from None
        return entry.name, make_gallery_operator(entry.spec)
    kind = params.get("op")
    if not kind:
        raise ValueError("select an operator with --gallery or --op")
    if kind == "custom" and not params["matrix_file"]:
        raise ValueError("argument --matrix-file: --op custom reads its matrix from this file")
    weights = params["weights"] or ()
    if kind == "weighted_shift" and not weights:
        weights = tuple(1.0 for _ in range(params["dim"] - 1))
    angles = params["angles"] or (0.3,)
    spec = OperatorSpec(kind=kind, dim=params["dim"], scale=params["scale"],
                        eigenvalue=params["eigenvalue"], coupling=params["coupling"],
                        weights=weights, angles=angles if len(angles) > 1 else angles[0],
                        path=params["matrix_file"] or "")
    try:
        return f"{kind}{params['dim']}", make_gallery_operator(spec)
    except (InvalidOperatorError, MatrixParseError, NonSquareError) as exc:
        field_name = getattr(exc, "field", "path")  # the file's errors have no field
        flag = {"kind": "op", "path": "matrix_file"}.get(field_name, field_name)
        raise ValueError(f"argument {_option(flag)}: {exc}") from None


def _search_config(params: dict) -> SearchConfig:
    from .resolvent import SearchConfig
    return SearchConfig(
        r_max=params["r_max"],
        radial_count=params["radial"],
        angular_count=params["angular"],
        refine_rounds=params["refine_rounds"],
        seed=params["seed"],
        p=params["p"],
    )


def _ks_ref(
    params: dict, T, cfg: SearchConfig, k_est: FunctionalEstimate | None = None
) -> float:
    """--ks-ref, or the strong-Kreiss lower bound at n_max = 16 when it is not given.

    k_est is the caller's kreiss_constant(T, cfg), if it has one.  A computed
    bound that is not finite is a usage error here, for every caller: --ks-ref
    is the way out.
    """
    from .resolvent import strong_kreiss_constant
    if params["ks_ref"] is not None:
        return params["ks_ref"]
    ks = strong_kreiss_constant(T, cfg, 16, k_est=k_est).value
    if not math.isfinite(ks):
        raise ValueError(f"the strong-Kreiss search diverged (Ks = {ks}): the operator is not "
                         "strongly Kreiss bounded on this grid; pass --ks-ref explicitly")
    return ks


@dataclass(frozen=True)
class Outcome:
    """What a handler computed; main writes it to --out and prints the summary."""

    report: str  # <report>.json, and witness_<report>.json when flagged
    payload: dict | None  # report fields after the envelope; None writes no report
    summary: str  # printed to stdout
    files: dict[str, Callable[[str], None]] = field(default_factory=dict)  # name -> writer(path)
    witness: dict | None = None  # a flagged finding; its file makes the exit code 1


# ---------------------------------------------------------------------------
# Handlers: compute and return an Outcome; they never write or print
# ---------------------------------------------------------------------------


def _gallery_list(params):
    lines, entries = [], []
    for e in gallery():
        flags = ["power-bounded" if e.power_bounded else "power-unbounded"]
        flags += [f for f, on in (("positive", e.positive), ("nilpotent", e.nilpotent)) if on]
        lines.append(f"{e.name:16s} {e.spec.kind:14s} d={e.spec.dim}  "
                     f"[{', '.join(flags)}]  {e.description}")
        entries.append({
            "name": e.name, "kind": e.spec.kind, "dim": e.spec.dim,
            "description": e.description, "power_bounded": e.power_bounded,
            "positive": e.positive, "nilpotent": e.nilpotent,
        })
    return Outcome("gallery", {"entries": entries}, "\n".join(lines))


def _plot(params):
    if not params["csv"]:
        raise ValueError("--csv is required for plot")
    header, rows = read_csv(params["csv"])
    x_col = params["x_col"]
    cols = params["y_cols"] or [h for h in header if h != x_col]
    for axis, c in [("x", x_col)] + [("y", c) for c in cols]:
        if c not in header:
            raise ValueError(f"{axis} column {c!r} not in CSV header {header}")
    xs = [r[header.index(x_col)] for r in rows]
    series = {c: [r[header.index(c)] for r in rows] for c in cols}

    def write(path):
        svg_line_chart(
            path, xs, series,
            title=params.get("title") or os.path.basename(params["csv"]),
            log_x=params["log_x"],
            log_y=params["log_y"],
            x_label=x_col,
        )

    return Outcome("plot", None, f"plot: wrote {os.path.join(params['out'], 'plot.svg')}",
                   files={"plot.svg": write})


def _verify_appendix(params):
    from .verify import sweep_appendix
    try:
        _require("n_max", params["n_max"], params["n_min"])
    except ValueError as exc:
        raise ValueError(f"argument --n-max: {exc}") from None
    table = sweep_appendix(params["n_min"], params["n_max"])
    n = table["n"]
    failures = n[~(table["a1_pass"] & table["a2_pass"])].tolist()
    sup_a_max = float(np.max(table["sup_a"]))
    v1_a_max = float(np.max(table["v1_a"]))
    payload = {
        "n_min": params["n_min"],
        "n_max": params["n_max"],
        "rows": len(n),
        "sup_a_max": sup_a_max,
        "v1_a_max": v1_a_max,
        "a1_min_slack": float(np.min(table["a1_min_slack"])),
        "failures": failures,
        "review": n[table["review"]].tolist(),
    }
    summary = (f"verify-appendix: FAIL at {len(failures)} values of n; witness written"
               if failures else
               f"verify-appendix: n in [{params['n_min']}, {params['n_max']}] all pass "
               f"(sup_a_max={sup_a_max:.6f}, v1_max={v1_a_max:.6f})")
    return Outcome("appendix", payload, summary,
                   {"appendix.csv": lambda path: write_csv(path, table)},
                   witness={"failing_n": failures} if failures else None)


def _decomp_scan(params):
    from .decomp import DecompSearchConfig, estimate_constant
    from .fourier import save_trig_polynomial
    cfg = DecompSearchConfig(
        trials=params["trials"],
        ascent_steps=params["ascent_steps"],
        max_support=params["max_support"],
        max_dim=params["max_dim"],
        seed=params["seed"],
    )
    args = {k: params[k] for k in ("p", "q", "inner_p", "side", "gamma")}
    est = estimate_constant(**args, cfg=cfg)
    payload = {
        **args, "constant_lower": est.constant_lower,
        "label": _FLOOR_LABEL, "trials": params["trials"],
        "witness_file": "witness_f.txt",
        "witness_partition": [[iv.lo, iv.hi] for iv in est.witness_partition.intervals],
    }
    return Outcome("decomp", payload,
                   f"decomp-scan: {args['side']} p={args['p']} q={args['q']} "
                   f"gamma={args['gamma']} {_FLOOR_LABEL} {est.constant_lower:.6f}",
                   files={"witness_f.txt": lambda path: save_trig_polynomial(est.witness, path)})


def _riesz_norm(params):
    from .fourier import ExtremalSearchConfig, riesz_norm_lower_bound
    cfg = ExtremalSearchConfig(
        trials=params["trials"], max_support=params["max_support"],
        ascent_steps=params["ascent_steps"], seed=params["seed"],
    )
    val = riesz_norm_lower_bound(params["p"], params["dim"], params["inner_p"], cfg)
    return Outcome("riesz", {"riesz_norm_lower": val, "label": _FLOOR_LABEL},
                   f"riesz-norm: p={params['p']:g} d={params['dim']} lower bound {val:.6f}")


def _marcinkiewicz(params):
    from .fourier import MultiplierSeq, marcinkiewicz_checks, _random_polynomial
    rng = np.random.default_rng(params["seed"])
    samples = []
    span = params["span"]
    for k in range(0, params["trials"], _MARCINKIEWICZ_CHUNK):
        # each trial draws its signs, then its polynomial: the stream of one
        # trial at a time, as scoring draws nothing
        ms, fs = [], []
        for _ in range(min(_MARCINKIEWICZ_CHUNK, params["trials"] - k)):
            ms.append(MultiplierSeq(-span, tuple(rng.choice([-1.0, 1.0], size=2 * span + 1))))
            fs.append(_random_polynomial(rng, params["dim"], span))
        checks = marcinkiewicz_checks(fs, ms, params["p"], params["inner_p"])
        samples.extend(lhs / factor for lhs, factor in checks)
    best = max([0.0, *samples])
    payload = {
        "p": params["p"], "span": params["span"], "trials": params["trials"],
        "max_sample": best,
        "mean_sample": float(np.mean(samples)),
        "label": "empirical lower bound for the multiplier constant",
    }
    return Outcome("marcinkiewicz", payload, f"marcinkiewicz: p={params['p']} max sample ratio "
                                             f"{best:.6f} over {len(samples)} trials")


def _type_cotype(params):
    from .decomp import rademacher_constants
    d = params["dim"]
    if params["family"] == "basis":
        if params["count"] is not None:
            raise ValueError("argument --count: --count applies to --family random only")
        xs = [np.eye(d)[i] for i in range(d)]
    else:
        rng = np.random.default_rng(params["seed"])
        count = d if params["count"] is None else params["count"]
        xs = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for _ in range(count)]
    est = rademacher_constants(
        xs, params["exponent"], kind=params["kind"], samples=params["samples"],
        seed=params["seed"], inner_p=params["inner_p"],
    )
    payload = {
        "kind": params["kind"], "exponent": params["exponent"], "value": est.value,
        "std_error": est.std_error, "samples": params["samples"],
        "family": params["family"], "dim": d,
    }
    return Outcome("type_cotype", payload,
                   f"type-cotype: {params['kind']}-{params['exponent']} sample constant "
                   f"{est.value:.6f} +/- {est.std_error:.2e}")


def _kreiss(params, name, T, cfg):
    from .resolvent import kreiss_constant
    est = kreiss_constant(T, cfg)
    payload = {
        "k_lower": est.value, "k_argmax": est.argmax,
        "k_upper_hint": None if est.diverged else est.value,
        "k_upper_note": "advisory grid supremum; not a certified upper bound",
        "diverged": est.diverged, "spectral_radius": T.spectral_radius(),
    }
    return Outcome("kreiss", payload, f"kreiss {name}: k_lower={est.value:.9g}"
                   + (" (diverged: spectral radius > 1)" if est.diverged else ""))


def _strong_kreiss(params, name, T, cfg):
    from .resolvent import strong_kreiss_constant
    est = strong_kreiss_constant(T, cfg, params["n_max"])
    payload = {
        "ks_lower": est.value, "ks_argmax": est.argmax, "n_at_max": est.n_at_max,
        "diverged": est.diverged, "spectral_radius": T.spectral_radius(),
    }
    return Outcome("strong_kreiss", payload, f"strong-kreiss {name}: ks_lower={est.value:.9g}")


def _exp_criterion(params, name, T, cfg):
    from .resolvent import exponential_criterion
    est = exponential_criterion(T, cfg, params["xi_max"])
    return Outcome("exp_criterion", {"exp_lower": est.value, "exp_argmax": est.argmax},
                   f"exp-criterion {name}: exp_lower={est.value:.9g}")


def _cesaro(params, name, T, cfg):
    from .resolvent import cesaro_partial_sum_bound, gz_partial_resolvent_ratio
    ks_ref = _ks_ref(params, T, cfg)
    res = cesaro_partial_sum_bound(T, cfg, params["n_max"])
    ratio = res.value / (20.0 * ks_ref)
    gz_val = None
    if params["gz"]:
        gz_val = gz_partial_resolvent_ratio(T, cfg, min(params["n_max"], 64), ks_ref).value
    payload = {
        "ks_ref": ks_ref,
        "cesaro_ratio_max": ratio,
        "cesaro_lower": res.value,
        "cesaro_argmax": res.argmax, "cesaro_n_at_max": res.n_at_max,
        "gz_ratio_max": gz_val,
        "gz_note": "informational diagnostic; its reference constant is uncertified",
    }
    flagged = ratio > 1.0 + 1e-6
    summary = (f"cesaro {name}: FLAGGED ratio {ratio:.6f} at n={res.n_at_max}" if flagged
               else f"cesaro {name}: ratio_max={ratio:.6f} (consistent)")
    return Outcome("cesaro", payload, summary, witness={
        "ratio": ratio, "lambda": res.argmax, "n": res.n_at_max,
        "note": "partial-sum ratio exceeded 20*Ks_ref*(n+1); Ks_ref is a "
                "lower bound, so this flags the substitution, not the bound",
    } if flagged else None)


def _growth(params, name, T, cfg):
    from .norms import AscentConfig
    from .power import MIN_FIT_SAMPLES, growth_fit, growth_table
    table = growth_table(T, cfg.p, params["n_max"], AscentConfig(seed=cfg.seed))
    keep = table["norm_lower"] > 0
    data = list(zip(table["n"][keep], table["norm_lower"][keep]))
    if len(data) < MIN_FIT_SAMPLES:  # a zero norm has no log to fit
        raise ValueError(f"{len(data)} of {len(keep)} powers T^n have a nonzero norm (first zero "
                         f"at n = {table['n'][~keep][0]}); a fit needs {MIN_FIT_SAMPLES} of them")
    fits = {}
    which = params["fit"]
    for model in ("poly", "poly_log") if which == "both" else (which,):
        fit = growth_fit(data, model=model)
        fits[model] = {
            "alpha": fit.alpha, "beta": fit.beta, "logC": fit.logC,
            "residual": fit.residual, "n_range": list(fit.n_range),
        }
    shown = fits.get("poly") or next(iter(fits.values()))
    return Outcome("growth", {"fits": fits},
                   f"growth {name}: alpha={shown['alpha']:.4f} "
                   f"(residual {shown['residual']:.2e}, csv written)",
                   files={"growth.csv": lambda path: write_csv(path, table)})


def _bounds(params, name, T, cfg):
    from .norms import AscentConfig
    from .power import bounds_flagged, check_universal_bounds
    from .resolvent import kreiss_constant
    k_est = None if params["k_ref"] is not None else kreiss_constant(T, cfg)
    k_ref = params["k_ref"] if k_est is None else k_est.value
    if not math.isfinite(k_ref):
        raise ValueError("bounds needs a finite Kreiss constant (operator not Kreiss "
                         "bounded on this grid); pass --k-ref explicitly")
    ks_ref = _ks_ref(params, T, cfg, k_est)
    summary, table = check_universal_bounds(T, cfg.p, k_ref, ks_ref,
                                            params["n_max"], AscentConfig(seed=cfg.seed))
    mins = {k: v for k, v in summary.items() if k.startswith("min_margin_")}
    flagged = bounds_flagged(summary)
    text = (f"bounds {name}: FLAGGED margin below 1 (see witness_bounds.json)" if flagged
            else f"bounds {name}: min margins " + " ".join(
                f"{k.removeprefix('min_margin_')}={v:.3f}" for k, v in mins.items()))
    return Outcome("bounds", {"k_ref": k_ref, "ks_ref": ks_ref, "note": _BOUNDS_NOTE, **summary},
                   text, {"bounds.csv": lambda path: write_csv(path, table)},
                   witness={**mins, "note": _BOUNDS_NOTE} if flagged else None)


def _positivity(params, name, T, cfg):
    from .positivity import PositiveOperator, TruncationError, block_bound_check, krivine_checks
    P = PositiveOperator(T)
    n_list = params["n_list"]
    ks_ref = _ks_ref(params, T, cfg)
    rng = np.random.default_rng(params["seed"])
    xs = np.abs(rng.standard_normal((params["corpus"], T.dim)))
    xs /= np.sum(xs ** params["q"], axis=1, keepdims=True) ** (1.0 / params["q"])
    results, blocks = [], []
    worst = math.inf
    try:
        for n in n_list:
            margins = [r.margin for r in krivine_checks(P, xs, n, params["q"])]
            block = block_bound_check(P, params["q"], ks_ref, n, corpus=params["corpus"],
                                      seed=params["seed"])
            m = min(margins)
            worst = min(worst, m)
            results.append({
                "n": n, "krivine_margin_min": m,
                "block_margin_min": block.margin, "block_label": _BLOCK_LABEL,
            })
            if block.margin < 1.0 - _POSITIVITY_TOL:
                blocks.append({"n": n, "margin": block.margin, "witness": block.witness.tolist()})
    except TruncationError as exc:
        return Outcome("positivity", None, f"positivity {name}: ABORT, {exc}",
                       witness={"error": str(exc)})
    payload = {
        "q": params["q"], "ks_ref": ks_ref, "corpus": params["corpus"], "results": results,
        "krivine_margin_overall": worst,
    }
    krivine_flagged = worst < 1.0 - _POSITIVITY_TOL
    witness = {"margin": worst} if krivine_flagged else {}
    if blocks:
        witness.update(block=blocks, note="Ks_ref is a lower bound, so a block margin below 1 "
                                          "flags the substitution, not the bound")
    if krivine_flagged:
        summary = f"positivity {name}: FLAGGED margin {worst:.9f} < 1"
    elif blocks:
        low = min(b["margin"] for b in blocks)
        summary = (f"positivity {name}: FLAGGED block margin {low:.9f} < 1 "
                   "(see witness_positivity.json)")
    else:
        summary = f"positivity {name}: krivine margin >= {worst:.6g} across n in {list(n_list)}"
    return Outcome("positivity", payload, summary, witness=witness or None)


HANDLERS: dict[str, Callable[..., Outcome]] = {
    "kreiss": _kreiss,
    "strong-kreiss": _strong_kreiss,
    "exp-criterion": _exp_criterion,
    "cesaro": _cesaro,
    "growth": _growth,
    "bounds": _bounds,
    "decomp-scan": _decomp_scan,
    "riesz-norm": _riesz_norm,
    "marcinkiewicz": _marcinkiewicz,
    "type-cotype": _type_cotype,
    "positivity": _positivity,
    "verify-appendix": _verify_appendix,
    "gallery-list": _gallery_list,
    "plot": _plot,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # the top-level parser has no option that takes a value, so the first word
    # naming a subcommand is the one argparse picks
    sub = next((a for a in argv if a in DEFAULTS), None)
    args, extras = build_parser(sub).parse_known_args(argv)
    if extras:
        args.parser.error(f"unrecognized arguments: {' '.join(extras)}")
    params, echo = _merge(args, sub, args.parser)
    head = {"schema": SCHEMA}  # opens the report and the witness
    try:
        operand = ()
        if sub in OPERATOR_SUBS:
            name, T = _operator(params)
            head["operator"] = name
            operand = (name, T, _search_config(params))
        out = params["out"]
        if not out and sub != "gallery-list":
            raise ValueError("--out is required")
        if out and os.path.exists(out) and not os.path.isdir(out):
            raise ValueError(f"argument --out: {out} exists and is not a directory")
        done = HANDLERS[sub](params, *operand)
        if out:
            out = ensure_out_dir(out)
            for fname, write in done.files.items():
                write(os.path.join(out, fname))
            if done.payload is not None:
                write_json(os.path.join(out, f"{done.report}.json"), {
                    **head,
                    "tool_version": __version__,
                    "subcommand": sub,
                    "seed": params["seed"],
                    "config": echo,
                    **done.payload,
                })
            if done.witness is not None:
                write_json(os.path.join(out, f"witness_{done.report}.json"),
                           {**head, **done.witness})
            # the only report field that may differ between identical runs
            write_json(os.path.join(out, "run_meta.json"), {
                "schema": SCHEMA,
                "argv": argv,
                "timestamp_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            })
    except (ValueError, OSError, OverflowError) as exc:
        # bad input (a bad value, nothing to fit, an unreadable file or --out)
        # or powers whose scale ledger overflowed: exit 2, not a traceback
        args.parser.error(str(exc))
    print(done.summary)
    return 1 if done.witness is not None else 0


if __name__ == "__main__":
    sys.exit(main())
