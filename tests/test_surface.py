"""The library's public surface: every public top-level function or class of
src/kreisslab is used by the package or its scripts, or is documented API, and
so is every public method of a public class, every field of a public result
type and every option of a public function, public method or *Config
dataclass; no default of a private
function is left to tests alone; no public class defines an arithmetic or
comparison dunder without a reason; only cli.main writes reports; only
norms takes a singular value decomposition or runs the ascent; only
resolvent's bound-pruned sweep norms a stack there; only decomp's
bound-pruned scorer builds block-norm triangles; only verify's
log-factorial table evaluates a log-gamma function; only
resolvent's matrix exponential imports scipy; and only the torus kernel's
grid values run a fast Fourier transform."""

import ast
import collections
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "kreisslab").glob("*.py"))
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))

# public names that no package code or script calls, each kept for a reason
DOCUMENTED = {
    "hoelder_growth_check": "criterion 10 check, a feature the README claims",
    "pairing_duality_check": "criterion 10 check, a feature the README claims",
    "fourier_type_check": "the Fourier-type estimates the README claims",
    "operator_p_norm": "the one-matrix norm bounds the README documents",
    "project_interval": "the frequency-interval projection D_I of the Fourier engine",
    "save_matrix": "writer of the matrix format in docs/formats.md",
    "load_trig_polynomial": "reader of the trigonometric polynomial format in docs/formats.md",
    "decomposition_ratio": "the one-sample ratio the decomp module defines; it replays "
                           "estimate_constant's witness",
}


def _public_definitions(tree):
    """Public top-level functions and classes: name -> definition node."""
    return {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def _references(tree):
    """How often each name is read as a Name or an Attribute within tree."""
    counts = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            counts[node.id] += 1
        elif isinstance(node, ast.Attribute):
            counts[node.attr] += 1
    return counts


def _unreferenced():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE + SCRIPTS}
    counts = {path: _references(tree) for path, tree in trees.items()}
    found = set()
    for path in PACKAGE:
        for name, node in _public_definitions(trees[path]).items():
            # references from anywhere, less those inside the definition itself
            uses = sum(c[name] for c in counts.values()) - _references(node)[name]
            if uses == 0:
                found.add(name)
    return found


def test_every_public_name_has_a_caller_or_a_reason():
    unreferenced = _unreferenced()
    assert unreferenced - set(DOCUMENTED) == set(), "public names that only tests reach"
    # a documented name that gains a caller leaves the list
    assert unreferenced >= set(DOCUMENTED)


# public methods, staticmethods and properties that no package code or script
# reads, each kept for a reason
DOCUMENTED_METHODS: dict = {}


def _attribute_reads(tree):
    """How often each name is read as an Attribute within tree.  A Name does not
    count: a local variable may share a method's name."""
    return collections.Counter(node.attr for node in ast.walk(tree)
                               if isinstance(node, ast.Attribute))


def _unread_methods():
    """Public methods, staticmethods and properties of public classes that no
    package code or script reads as an attribute; private ones and dunders are
    skipped."""
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE + SCRIPTS]
    reads = sum(map(_attribute_reads, trees), collections.Counter())
    found = set()
    for tree in trees[:len(PACKAGE)]:
        classes = [c for c in _public_definitions(tree).values() if isinstance(c, ast.ClassDef)]
        for cls in classes:
            for item in cls.body:
                # reads from anywhere, less those inside the method itself
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("_")
                        and reads[item.name] == _attribute_reads(item)[item.name]):
                    found.add(f"{cls.name}.{item.name}")
    return found


def test_every_public_method_has_a_caller_or_a_reason():
    unread = _unread_methods()
    assert unread - set(DOCUMENTED_METHODS) == set(), "public methods that only tests reach"
    # a documented method that gains a caller leaves the list
    assert unread >= set(DOCUMENTED_METHODS)


# fields of public result types that no package code or script reads, each kept
# for a reason
DOCUMENTED_FIELDS = {
    "TorusNorm.exact": "the exactness tag the README's quadrature claim rests on (criterion 8)",
    "NormBounds.upper": "the certified side of operator_p_norm, documented API",
    "KrivineResult.tail_rel": "the tail certificate of each Krivine margin (criterion 11)",
    "KrivineResult.trunc_terms": "the series length of each margin, which schema v2b reports "
                                 "with tail_rel",
}


def _is_record(cls):
    """A public class that holds fields: a dataclass (by a dataclass decorator, called
    or not) or a NamedTuple subclass."""
    decorators = [getattr(d, "func", d) for d in cls.decorator_list]
    return (any(getattr(d, "id", getattr(d, "attr", None)) == "dataclass" for d in decorators)
            or any(getattr(b, "id", None) == "NamedTuple" for b in cls.bases))


def _unread_fields():
    """Class.field of each field of a public dataclass or NamedTuple, less the
    *Config ones, that no package code or script reads as an attribute.  Reads
    count by name, from anywhere."""
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE + SCRIPTS]
    reads = sum(map(_attribute_reads, trees), collections.Counter())
    found = set()
    for tree in trees[:len(PACKAGE)]:
        for cls in _public_definitions(tree).values():
            if (isinstance(cls, ast.ClassDef) and _is_record(cls)
                    and not cls.name.endswith("Config")):
                found |= {f"{cls.name}.{item.target.id}" for item in cls.body
                          if isinstance(item, ast.AnnAssign) and not reads[item.target.id]}
    return found


def test_every_result_field_has_a_reader_or_a_reason():
    unread = _unread_fields()
    assert unread - set(DOCUMENTED_FIELDS) == set(), "result fields that only tests read"
    # a documented field that gains a reader leaves the list
    assert unread >= set(DOCUMENTED_FIELDS)


# defaulted options that no package code or script passes, each kept for a reason
DOCUMENTED_OPTIONS = {
    "operator_p_norm(cfg)": "documented API",
    "lp_torus_norm(n_points)": "the README's exact-quadrature claim is tested through it",
    "krivine_checks(trunc_terms)": "the only way to make the tail-certificate check fail",
    "main(argv)": "the in-process entry point: perfbench and the CLI tests pass argv",
}


def _defaulted(fn, label, skip):
    """(label, name, parameter, position, definition) of each defaulted parameter
    of fn, with the position a positional argument passes it at, less skip (None
    for keyword-only ones)."""
    args = fn.args.posonlyargs + fn.args.args
    first = len(args) - len(fn.args.defaults)
    found = [(f"{label}({a.arg})", fn.name, a.arg, i - skip, fn)
             for i, a in enumerate(args[first:], first)]
    return found + [(f"{label}({a.arg})", fn.name, a.arg, None, fn)
                    for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]


def _options(tree):
    """(label, name, parameter, position, definition) of each option tree defines:
    the defaulted parameters of its public functions and public methods, and
    every field of its public *Config dataclasses, which only a keyword
    passes."""
    found = []
    for node in _public_definitions(tree).values():
        if not isinstance(node, ast.ClassDef):
            found += _defaulted(node, node.name, 0)
            continue
        for item in node.body:
            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                # self or cls takes position 0 of a method that is not static
                static = any(getattr(d, "id", None) == "staticmethod"
                             for d in item.decorator_list)
                found += _defaulted(item, f"{node.name}.{item.name}", 0 if static else 1)
            elif isinstance(item, ast.AnnAssign) and node.name.endswith("Config"):
                field = item.target.id
                found.append((f"{node.name}({field})", node.name, field, None, node))
    return found


def _passed(call, param, pos):
    """The expression call passes param, by keyword or at position pos; True for
    a ** or a * that may pass it, None if it passes none."""
    for k in call.keywords:
        if k.arg in (param, None):
            return k.value if k.arg else True
    if pos is None:
        return None
    for i, a in enumerate(call.args):
        if isinstance(a, ast.Starred):
            return True
        if i == pos:
            return a
    return None


def _calls(tree):
    """(call, the function or method around it, or None) of every call in tree."""
    for node in tree.body:
        defs = node.body if isinstance(node, ast.ClassDef) else [node]
        for fn in defs:
            around = fn if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
            for c in ast.walk(fn):
                if isinstance(c, ast.Call):
                    yield c, around


def _unpassed():
    """Options no call sets.  Calls match by name, less those inside the option's
    own definition; a call that only forwards an unpassed option of the function
    around it sets nothing."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE + SCRIPTS}
    calls = [pair for tree in trees.values() for pair in _calls(tree)]
    options = [opt for path in PACKAGE for opt in _options(trees[path])]
    unpassed: set = set()
    while True:  # forwarding chains: until no option joins
        dead = {(id(fn), param) for label, _name, param, _pos, fn in options if label in unpassed}

        def sets(value, around):
            return value is True or value is not None and not (
                isinstance(value, ast.Name) and (id(around), value.id) in dead)

        found = set()
        for label, name, param, pos, definition in options:
            own = {id(node) for node in ast.walk(definition)}
            if not any(sets(_passed(c, param, pos), around) for c, around in calls
                       if getattr(c.func, "id", getattr(c.func, "attr", None)) == name
                       and id(c) not in own):
                found.add(label)
        if found == unpassed:
            return unpassed
        unpassed = found


def test_every_option_is_passed_or_has_a_reason():
    unpassed = _unpassed()
    assert unpassed - set(DOCUMENTED_OPTIONS) == set(), "options that no caller sets"
    # a documented option that gains a caller leaves the list
    assert unpassed >= set(DOCUMENTED_OPTIONS)


def _test_only_defaults():
    """Defaulted parameters of the private top-level functions that every package
    or script call of the function passes, so that only tests use the default.
    Calls match by name, less those inside the definition; a * or ** argument
    that may pass the parameter passes it."""
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE + SCRIPTS]
    calls = [c for tree in trees for c, _around in _calls(tree)]
    found = set()
    for tree in trees[:len(PACKAGE)]:
        for fn in tree.body:
            if not (isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and fn.name.startswith("_")):
                continue
            own = {id(node) for node in ast.walk(fn)}
            callers = [c for c in calls if id(c) not in own
                       and getattr(c.func, "id", getattr(c.func, "attr", None)) == fn.name]
            for label, _name, param, pos, _fn in _defaulted(fn, fn.name, 0):
                if callers and all(_passed(c, param, pos) is not None for c in callers):
                    found.add(label)
    return found


def test_no_private_default_is_left_to_tests():
    assert _test_only_defaults() == set(), "defaults that only tests use"


# arithmetic and comparison dunders of public classes, each kept for a reason
DOCUMENTED_OPERATORS: dict = {}

OPERATOR_DUNDERS = {
    "__add__", "__radd__", "__sub__", "__mul__", "__rmul__", "__truediv__", "__matmul__",
    "__neg__", "__eq__", "__ne__", "__lt__", "__le__", "__gt__", "__ge__", "__hash__",
}


def _operator_dunders():
    """Class.dunder of each operator dunder a public class defines, by a def or by
    a class-level assignment such as __rmul__ = __mul__."""
    found = set()
    for path in PACKAGE:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for cls in _public_definitions(tree).values():
            if not isinstance(cls, ast.ClassDef):
                continue
            for item in cls.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names = [item.name]
                elif isinstance(item, ast.Assign):
                    names = [t.id for t in item.targets if isinstance(t, ast.Name)]
                else:
                    names = []
                found |= {f"{cls.name}.{n}" for n in names if n in OPERATOR_DUNDERS}
    return found


def test_every_operator_dunder_has_a_reason():
    defined = _operator_dunders()
    assert defined - set(DOCUMENTED_OPERATORS) == set(), "operator dunders that only tests reach"
    # a documented dunder that is deleted leaves the list
    assert defined >= set(DOCUMENTED_OPERATORS)


# the files that may know the report envelope: cli.main alone writes reports,
# with reporting's writer and schema tag
REPORT_WRITERS = {"cli.py", "reporting.py"}


def _report_writers():
    """Names of the package and script files that reference write_json or SCHEMA,
    by a read or an import."""
    found = set()
    for path in PACKAGE + SCRIPTS:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = set(_references(tree))
        names |= {node.name for node in ast.walk(tree) if isinstance(node, ast.alias)}
        if names & {"write_json", "SCHEMA"}:
            found.add(path.name)
    return found


def test_only_the_cli_writes_reports():
    assert _report_writers() - REPORT_WRITERS == set(), "report writers outside cli.main"


# the files that may take a singular value decomposition or run the ascent: norms
# owns every matrix-stack norm and norm bound
NORM_KERNELS = {"norms.py"}


def _norm_kernel_callers(paths):
    """Names of the files among paths that call svd (np.linalg.svd or any other)
    or ascent_lower_bounds."""
    found = set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in ("svd", "ascent_lower_bounds"):
                    found.add(path.name)
    return found


def test_only_norms_takes_svds_and_ascents():
    found = _norm_kernel_callers(PACKAGE + SCRIPTS)
    assert found - NORM_KERNELS == set(), "norm kernels outside norms"


# the functions of resolvent that may norm a stack or pick the points to norm:
# every search picks its points by their priors in _search and values their
# matrices through the one bound-pruned sweep
STACK_VALUERS = {"resolvent._pruned_sweep", "resolvent._search"}
STACK_NORMS = {"_top_norms", "_batched_norm_lower"}


def _stack_norm_callers(paths):
    """The functions among paths that call _top_norms or _batched_norm_lower."""
    return _functions_where(paths, lambda fn: any(
        isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) in STACK_NORMS
        for node in ast.walk(fn)))


def test_only_the_pruned_sweep_norms_a_resolvent_stack():
    found = _stack_norm_callers([ROOT / "src" / "kreisslab" / "resolvent.py"])
    assert found == STACK_VALUERS, "a resolvent stack normed outside _pruned_sweep and _search"


# the functions that may build decomp's block-norm triangles: _score builds
# them, and only the bound-pruned scorer calls _score, so no corpus sample or
# ascent candidate gets a triangle its certified bound rules out
TRIANGLE_CALLERS = {"_score": {"decomp._pruned_scores"}, "_run_block_norms": {"decomp._score"}}


def _callers(paths, name):
    """The functions among paths that call name, as a function or a method."""
    return _functions_where(paths, lambda fn: any(
        isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None))
        == name for node in ast.walk(fn)))


def test_only_the_pruned_scorer_builds_block_norm_triangles():
    found = {name: _callers(PACKAGE + SCRIPTS, name) for name in TRIANGLE_CALLERS}
    assert found == TRIANGLE_CALLERS, "a triangle built outside decomp._pruned_scores"


# the functions that may evaluate a log-gamma function: verify's table of
# log-factorials is the one site, through verify's own port of Cephes lgam
LOG_FACTORIAL_TABLES = {"verify._log_factorials"}
LOG_GAMMA = {"gammaln", "lgamma", "loggamma", "_lgam"}


def _functions_where(paths, hit):
    """file stem.function of each top-level function or method among paths whose
    node hit(node) accepts; <module> for a statement outside any function."""
    found = set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            defs = node.body if isinstance(node, ast.ClassDef) else [node]
            for fn in defs:
                if hit(fn):
                    around = fn.name if isinstance(fn, (ast.FunctionDef,
                                                        ast.AsyncFunctionDef)) else "<module>"
                    found.add(f"{path.stem}.{around}")
    return found


def _log_gamma_readers(paths):
    """The functions among paths that read gammaln, lgamma, loggamma or _lgam, by a
    call or otherwise.  Imports do not count."""
    return _functions_where(paths, lambda fn: LOG_GAMMA & set(_references(fn)))


def test_only_the_log_factorial_table_calls_gammaln():
    assert _log_gamma_readers(PACKAGE + SCRIPTS) - LOG_FACTORIAL_TABLES == set(), \
        "log-gamma evaluations outside verify._log_factorials"


# the functions that may import scipy: the matrix exponential replays
# scipy.linalg.expm's kernels; every other path runs on numpy alone
SCIPY_IMPORTERS = {"resolvent._expm_stack"}


def _imported_modules(tree):
    """The names of the modules that the imports within tree import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""


def _scipy_importers(paths):
    """The functions among paths that import a scipy module."""
    return _functions_where(paths, lambda fn: any(
        name.split(".")[0] == "scipy" for name in _imported_modules(fn)))


def test_only_the_matrix_exponential_imports_scipy():
    assert _scipy_importers(PACKAGE + SCRIPTS) == SCIPY_IMPORTERS


# the functions that may run a fast Fourier transform: lp_torus_norm and the
# multiplier ratios take their grid values from the torus kernel's one stacked
# inverse FFT per pass, and decomp's block norms sum phase-table waveforms
FFT_SITES = {"fourier._grid_values"}
FFT_NAMES = {"fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft", "rfftn",
             "irfftn", "hfft", "ihfft"}


def _fft_readers(paths):
    """The functions among paths that read an FFT module or routine (np.fft.ifft,
    fft, ...) or import one (numpy.fft, scipy.fft)."""
    return _functions_where(paths, lambda fn: FFT_NAMES & set(_references(fn)) or any(
        name.split(".")[-1] in FFT_NAMES for name in _imported_modules(fn)))


def test_only_the_torus_kernel_runs_ffts():
    assert _fft_readers(PACKAGE + SCRIPTS) == FFT_SITES
