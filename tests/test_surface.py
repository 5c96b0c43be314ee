"""The library's public surface: every public top-level function or class of
src/kreisslab is used by the package or its scripts, or is documented API."""

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
    "fourier_type_check": "criterion 10 check, a feature the README claims",
    "operator_p_norm": "the one-matrix norm bounds the README documents",
    "project_interval": "the frequency-interval projection D_I of the Fourier engine",
    "save_matrix": "writer of the matrix format in docs/formats.md",
    "load_trig_polynomial": "reader of the trigonometric polynomial format in docs/formats.md",
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
