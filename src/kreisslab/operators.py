"""Dense complex test operators: construction, a curated gallery, and matrix file I/O.

Everything downstream treats a matrix as a bounded operator on C^d equipped
with some p-norm, so the only invariants enforced here are squareness and
finiteness of the entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _require(name: str, x, lo, hi=math.inf, ends: str = "[)"):
    """x if it lies between lo and hi, else a ValueError.  In ends, "[" or "]" admits
    its end and "(" or ")" does not, so a closed infinite end admits that infinity
    and an open one asks for a finite x.  NaN lies in no interval."""
    if not ((lo < x if ends[0] == "(" else lo <= x) and (x < hi if ends[1] == ")" else x <= hi)):
        raise ValueError(f"{name} must lie in {ends[0]}{lo}, {hi}{ends[1]}, got {x}")
    return x


class InvalidOperatorError(ValueError):
    """A gallery operator spec has an invalid parameter.  `field` names it."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"invalid operator parameter '{field_name}': {message}")
        self.field = field_name


class MatrixParseError(ValueError):
    """Matrix file could not be parsed.  Carries 1-based line/column."""

    def __init__(self, message: str, line: int, column: int = 0):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class NonSquareError(ValueError):
    """Matrix payload is not a d x d block of complex entries."""


OPERATOR_KINDS = (
    "identity",
    "zero",
    "scalar",
    "jordan",
    "nilpotent",
    "weighted_shift",
    "rotation",
    "custom",
)


@dataclass(frozen=True, eq=False)
class ComplexMatrix:
    """A dense d x d complex matrix, immutable after construction."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.array(self.entries, dtype=np.complex128, copy=True)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise NonSquareError(f"expected a square matrix, got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise NonSquareError("matrix dimension must be >= 1")
        if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
            raise ValueError("matrix entries must be finite (no NaN/Inf)")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def spectral_radius(self) -> float:
        return float(np.max(np.abs(np.linalg.eigvals(self.entries))))


@dataclass(frozen=True)
class OperatorSpec:
    """Parameters selecting one operator from the constructor families.

    kind          one of OPERATOR_KINDS
    dim           dimension d >= 1
    scale         c for kind='scalar' (c * I)
    eigenvalue    diagonal value for kind='jordan'
    coupling      superdiagonal value for kind='jordan' / kind='nilpotent'
    weights       superdiagonal for kind='weighted_shift' (length d-1)
    angles        rotation angles in turns; a scalar t means angle k*t on
                  diagonal slot k = 1..d, a sequence gives one angle per slot
    path          matrix file for kind='custom'
    """

    kind: str
    dim: int
    scale: complex = 1.0
    eigenvalue: complex = 1.0
    coupling: float = 1.0
    weights: tuple = ()
    angles: object = 0.0
    path: str = ""


def _check_dim(spec: OperatorSpec) -> int:
    if not isinstance(spec.dim, int) or spec.dim < 1:
        raise InvalidOperatorError("dim", f"must be a positive integer, got {spec.dim!r}")
    return spec.dim


def _finite(field_name: str, z) -> complex:
    """z as a complex number, or an InvalidOperatorError naming the field if it is
    not finite."""
    c = complex(z)
    if not (math.isfinite(c.real) and math.isfinite(c.imag)):
        raise InvalidOperatorError(field_name, "must be finite")
    return c


def make_gallery_operator(spec: OperatorSpec) -> ComplexMatrix:
    """Instantiate the matrix described by `spec`.  Pure and deterministic."""
    if spec.kind not in OPERATOR_KINDS:
        raise InvalidOperatorError("kind", f"unknown kind {spec.kind!r}")
    d = _check_dim(spec)

    if spec.kind == "identity":
        return ComplexMatrix(np.eye(d, dtype=complex))
    if spec.kind == "zero":
        return ComplexMatrix(np.zeros((d, d), dtype=complex))
    if spec.kind == "scalar":
        return ComplexMatrix(_finite("scale", spec.scale) * np.eye(d, dtype=complex))
    if spec.kind == "jordan":
        arr = _finite("eigenvalue", spec.eigenvalue) * np.eye(d, dtype=complex)
        arr += _finite("coupling", spec.coupling) * np.eye(d, k=1, dtype=complex)
        return ComplexMatrix(arr)
    if spec.kind == "nilpotent":
        return ComplexMatrix(_finite("coupling", spec.coupling) * np.eye(d, k=1, dtype=complex))
    if spec.kind == "weighted_shift":
        w = np.asarray(spec.weights, dtype=float)
        if w.shape != (d - 1,):
            raise InvalidOperatorError(
                "weights", f"need {d - 1} weights for dim {d}, got {len(spec.weights)}"
            )
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise InvalidOperatorError("weights", "must be finite and nonnegative")
        arr = np.zeros((d, d), dtype=complex)
        arr[np.arange(d - 1), np.arange(1, d)] = w
        return ComplexMatrix(arr)
    if spec.kind == "rotation":
        if np.isscalar(spec.angles):
            th = _finite("angles", float(spec.angles)).real * np.arange(1, d + 1, dtype=float)
        else:
            th = np.asarray(spec.angles, dtype=float)
            if th.shape != (d,):
                raise InvalidOperatorError(
                    "angles", f"need {d} angles for dim {d}, got {th.shape}"
                )
            if not np.all(np.isfinite(th)):
                raise InvalidOperatorError("angles", "must be finite")
        return ComplexMatrix(np.diag(np.exp(2j * np.pi * th)))
    # custom
    mat = load_matrix(spec.path)
    if mat.dim != d:
        raise InvalidOperatorError("dim", f"file holds a {mat.dim}x{mat.dim} matrix, spec says {d}")
    return mat


# ---------------------------------------------------------------------------
# Matrix file format: first line d; then d lines of 2d decimals (re im pairs,
# row-major), ASCII, '.' decimal separator, whitespace-separated.  Writers
# emit 17 significant digits so save/load round-trips float64 exactly.
# ---------------------------------------------------------------------------


def save_matrix(mat: ComplexMatrix, path) -> None:
    d = mat.dim
    lines = [str(d)]
    for i in range(d):
        parts = []
        for j in range(d):
            z = mat.entries[i, j]
            parts.append(format(z.real, ".17g"))
            parts.append(format(z.imag, ".17g"))
        lines.append(" ".join(parts))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_matrix(path) -> ComplexMatrix:
    try:
        with open(path, "r", encoding="ascii") as fh:
            raw = fh.read()
    except OSError as exc:
        raise MatrixParseError(f"cannot read file: {exc}", line=0) from exc
    lines = [ln for ln in raw.splitlines()]
    # skip trailing blank lines but keep interior structure
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise MatrixParseError("empty file", line=1, column=1)
    head = lines[0].split()
    if len(head) != 1:
        raise MatrixParseError("first line must hold the dimension only", line=1, column=2)
    try:
        d = int(head[0])
    except ValueError as exc:
        raise MatrixParseError(f"bad dimension {head[0]!r}", line=1, column=1) from exc
    if d < 1:
        raise MatrixParseError("dimension must be >= 1", line=1, column=1)
    body = lines[1:]
    if len(body) != d:
        raise NonSquareError(f"expected {d} rows, found {len(body)}")
    arr = np.zeros((d, d), dtype=complex)
    for i, ln in enumerate(body):
        toks = ln.split()
        if len(toks) != 2 * d:
            raise NonSquareError(
                f"row {i + 1} has {len(toks)} numbers, expected {2 * d} (re/im pairs)"
            )
        for t, tok in enumerate(toks):
            try:
                val = float(tok)
            except ValueError as exc:
                raise MatrixParseError(
                    f"bad number {tok!r}", line=i + 2, column=t + 1
                ) from exc
            if not math.isfinite(val):
                raise MatrixParseError(f"non-finite number {tok!r}", line=i + 2, column=t + 1)
            if t % 2 == 0:
                arr[i, t // 2] += val
            else:
                arr[i, t // 2] += 1j * val
    return ComplexMatrix(arr)


# ---------------------------------------------------------------------------
# Gallery: canonical operators with independently known behavior, one per
# diagnostic regime.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GalleryEntry:
    name: str
    spec: OperatorSpec
    description: str
    power_bounded: bool
    positive: bool  # entrywise nonnegative real, the lattice-positivity model
    nilpotent: bool = False


_GALLERY: tuple[GalleryEntry, ...] = (
    GalleryEntry(
        "identity3",
        OperatorSpec("identity", 3),
        "I_3; isometry for every p, resolvent constant exactly 1",
        power_bounded=True,
        positive=True,
    ),
    GalleryEntry(
        "zero2",
        OperatorSpec("zero", 2),
        "0 on C^2; resolvent sup attained only in the |lambda| -> inf limit",
        power_bounded=True,
        positive=True,
        nilpotent=True,
    ),
    GalleryEntry(
        "half1",
        OperatorSpec("scalar", 1, scale=0.5),
        "(1/2) on C; strictly contractive positive scalar",
        power_bounded=True,
        positive=True,
    ),
    GalleryEntry(
        "rotation1",
        OperatorSpec("rotation", 1, angles=0.3),
        "diag(e^{2 pi i 0.3}); unimodular scalar, isometry for every p",
        power_bounded=True,
        positive=False,
    ),
    GalleryEntry(
        "rotation3",
        OperatorSpec("rotation", 3, angles=(0.1, 0.25, 0.7)),
        "diagonal unimodular rotation on C^3; power norms identically 1",
        power_bounded=True,
        positive=False,
    ),
    GalleryEntry(
        "jordan2",
        OperatorSpec("jordan", 2, eigenvalue=1.0, coupling=1.0),
        "Jordan block [[1,1],[0,1]]; ||T^n||_inf = n+1, resolvent constant diverges",
        power_bounded=False,
        positive=True,
    ),
    GalleryEntry(
        "jordan2_damped",
        OperatorSpec("jordan", 2, eigenvalue=0.9, coupling=1.0),
        "Jordan block [[0.9,1],[0,0.9]]; transient growth then geometric decay",
        power_bounded=True,
        positive=True,
    ),
    GalleryEntry(
        "nilpotent2",
        OperatorSpec("nilpotent", 2, coupling=2.0),
        "[[0,2],[0,0]]; T^2 = 0, resolvent known in closed form",
        power_bounded=True,
        positive=True,
        nilpotent=True,
    ),
    GalleryEntry(
        "shift4",
        OperatorSpec("weighted_shift", 4, weights=(1.0, 0.5, 0.25)),
        "weighted shift on C^4; nilpotent of order 4, entrywise nonnegative",
        power_bounded=True,
        positive=True,
        nilpotent=True,
    ),
)


def gallery() -> tuple[GalleryEntry, ...]:
    """The curated gallery, in a fixed documented order."""
    return _GALLERY


def gallery_entry(name: str) -> GalleryEntry:
    for entry in _GALLERY:
        if entry.name == name:
            return entry
    raise KeyError(f"no gallery entry named {name!r}")
