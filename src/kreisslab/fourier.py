"""Discrete-torus Fourier engine.

Trigonometric polynomials f(t) = sum_n c_n e^{2 pi i n t} with coefficients
c_n in C^d, frequency-interval projections, scalar multipliers with a total
variation seminorm, and L^p(T; l^{inner_p}_d) norms by quadrature.

Quadrature exactness: for even integer p with Euclidean inner norm,
||f(t)||_2^p is itself a trigonometric polynomial of degree <= p*M, so the
uniform Riemann sum over N > p*M points is the exact integral.  Every other
(p, inner_p) combination is evaluated with 8x oversampling and tagged
inexact.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .operators import _require

_OVERSAMPLE = 8
# 2^20 points: a grid past it takes gigabytes of grid values per norm
_MAX_POINTS = 1 << 20
# complex grid values per pass of _torus_norms: bounds the memory of one pass;
# 2^12 to 2^30 ran riesz-norm and marcinkiewicz in the same time
_TORUS_CHUNK = 1 << 13
# the best random draws that start a Riesz ascent, after the templates
_RIESZ_TOP_K = 4


@dataclass(frozen=True)
class Interval:
    """Integer interval [lo, hi]; None encodes an unbounded endpoint."""

    lo: int | None
    hi: int | None

    def __post_init__(self):
        if self.lo is not None and self.hi is not None and self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    def contains(self, n: int) -> bool:
        if self.lo is not None and n < self.lo:
            return False
        if self.hi is not None and n > self.hi:
            return False
        return True

    def overlaps(self, other: "Interval") -> bool:
        lo = max(
            self.lo if self.lo is not None else -math.inf,
            other.lo if other.lo is not None else -math.inf,
        )
        hi = min(
            self.hi if self.hi is not None else math.inf,
            other.hi if other.hi is not None else math.inf,
        )
        return lo <= hi


@dataclass(frozen=True)
class IntervalPartition:
    """A finite family of pairwise disjoint integer intervals."""

    intervals: tuple[Interval, ...]

    def __post_init__(self):
        ivals = tuple(
            iv if isinstance(iv, Interval) else Interval(iv[0], iv[1]) for iv in self.intervals
        )
        object.__setattr__(self, "intervals", ivals)
        for i in range(len(ivals)):
            for j in range(i + 1, len(ivals)):
                if ivals[i].overlaps(ivals[j]):
                    raise ValueError(f"intervals {ivals[i]} and {ivals[j]} overlap")

    def __len__(self) -> int:
        return len(self.intervals)

    def covers(self, freqs: Iterable[int]) -> bool:
        return all(any(iv.contains(n) for iv in self.intervals) for n in freqs)


@dataclass(frozen=True, eq=False)
class TrigPolynomial:
    """Finitely supported map Z -> C^d of Fourier coefficients."""

    freqs: tuple[int, ...]
    vecs: np.ndarray  # shape (len(freqs), dim)
    dim: int

    def __post_init__(self):
        arr = np.array(self.vecs, dtype=complex)
        if arr.shape != (len(self.freqs), self.dim):
            raise ValueError(f"coefficients of shape {arr.shape}, expected "
                             f"{(len(self.freqs), self.dim)}")
        if len(set(self.freqs)) != len(self.freqs):
            raise ValueError("duplicate frequencies")
        order = np.argsort(np.asarray(self.freqs, dtype=int), kind="stable")
        freqs = tuple(int(self.freqs[i]) for i in order)
        arr = arr[order]
        arr.setflags(write=False)
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "vecs", arr)

    @classmethod
    def _sorted(cls, freqs: tuple[int, ...], vecs, dim: int) -> "TrigPolynomial":
        """New coefficients on freqs, a tuple of ints already sorted and distinct.

        Skips the public constructor's sort and duplicate test; still copies
        vecs, makes the copy read-only and checks its shape.
        """
        arr = np.array(vecs, dtype=complex)
        if arr.shape != (len(freqs), dim):
            raise ValueError(f"coefficients of shape {arr.shape}, expected {(len(freqs), dim)}")
        arr.setflags(write=False)
        f = object.__new__(cls)
        for name, value in (("freqs", freqs), ("vecs", arr), ("dim", dim)):
            object.__setattr__(f, name, value)
        return f

    @staticmethod
    def from_coeffs(coeffs: Mapping[int, object], dim: int | None = None) -> "TrigPolynomial":
        keys = sorted(coeffs)
        if not keys:
            return TrigPolynomial((), np.zeros((0, dim or 1)), dim or 1)
        first = np.atleast_1d(np.asarray(coeffs[keys[0]], dtype=complex))
        d = dim if dim is not None else first.shape[0]
        vecs = np.zeros((len(keys), d), dtype=complex)
        for i, n in enumerate(keys):
            vecs[i] = np.atleast_1d(np.asarray(coeffs[n], dtype=complex))
        return TrigPolynomial(tuple(keys), vecs, d)

    @functools.cached_property
    def is_zero(self) -> bool:
        return not self.vecs.any()

    @property
    def max_abs_freq(self) -> int:
        # the frequencies are sorted: the largest |n| sits at one end
        return max(-self.freqs[0], self.freqs[-1]) if self.freqs else 0


def save_trig_polynomial(f: TrigPolynomial, path) -> None:
    """One line per frequency: n re_1 im_1 ... re_d im_d, 17 significant digits."""
    lines = []
    for i, n in enumerate(f.freqs):
        parts = [str(n)]
        for z in f.vecs[i]:
            parts.append(format(z.real, ".17g"))
            parts.append(format(z.imag, ".17g"))
        lines.append(" ".join(parts))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + ("\n" if lines else ""))


def load_trig_polynomial(path) -> TrigPolynomial:
    coeffs: dict[int, np.ndarray] = {}
    dim = None
    with open(path, "r", encoding="ascii") as fh:
        for lineno, ln in enumerate(fh, start=1):
            toks = ln.split()
            if not toks:
                continue
            if len(toks) < 3 or len(toks) % 2 == 0:
                raise ValueError(f"line {lineno}: expected 'n re1 im1 ... re_d im_d'")
            d = (len(toks) - 1) // 2
            if dim is None:
                dim = d
            elif d != dim:
                raise ValueError(f"line {lineno}: inconsistent dimension {d} (expected {dim})")
            try:
                n = int(toks[0])
            except ValueError:
                msg = f"line {lineno}: frequency {toks[0]!r} is not an integer"
                raise ValueError(msg) from None
            if n in coeffs:
                raise ValueError(f"line {lineno}: repeated frequency {n}")
            vals = []
            for t in toks[1:]:
                try:
                    vals.append(float(t))
                except ValueError:
                    raise ValueError(f"line {lineno}: invalid number {t!r}") from None
                if not math.isfinite(vals[-1]):
                    raise ValueError(f"line {lineno}: non-finite number {t!r}")
            coeffs[n] = np.array(vals[0::2]) + 1j * np.array(vals[1::2])
    return TrigPolynomial.from_coeffs(coeffs, dim or 1)


# ---------------------------------------------------------------------------
# Scalar multipliers
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class MultiplierSeq:
    """A bounded scalar sequence m: Z -> C, eventually constant on both sides.

    m_n = values[n - window_lo] on the window [window_lo, window_lo +
    len(values) - 1], left_tail below it and right_tail above it; an empty
    window is a step at window_lo.  This encodes every in-scope symbol,
    including half-line indicators such as the Riesz projection symbol
    1_{[0, inf)}.
    """

    window_lo: int
    values: tuple
    left_tail: complex = 0.0
    right_tail: complex = 0.0

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(complex(v) for v in self.values))
        object.__setattr__(self, "left_tail", complex(self.left_tail))
        object.__setattr__(self, "right_tail", complex(self.right_tail))

    def at_many(self, ns) -> np.ndarray:
        lo, vals, left, right = self.window_lo, self.values, self.left_tail, self.right_tail
        hi = lo + len(vals)  # one past the window
        return np.array([left if n < lo else right if n >= hi else vals[n - lo] for n in ns],
                        dtype=complex)

    def sup_norm(self) -> float:
        cand = [abs(self.left_tail), abs(self.right_tail)]
        cand.extend(abs(v) for v in self.values)
        return max(cand)


RIESZ_SYMBOL = MultiplierSeq(0, (1.0,), 0.0, 1.0)


def project_interval(f: TrigPolynomial, interval: Interval) -> TrigPolynomial:
    """D_I f: zero every coefficient outside the interval."""
    keep = [i for i, n in enumerate(f.freqs) if interval.contains(n)]
    return TrigPolynomial._sorted(tuple(f.freqs[i] for i in keep), f.vecs[keep], f.dim)


def apply_multiplier(f: TrigPolynomial, m: MultiplierSeq) -> TrigPolynomial:
    """T_m f: multiply the coefficient at frequency n by m_n."""
    factors = m.at_many(f.freqs)
    return TrigPolynomial._sorted(f.freqs, f.vecs * factors[:, None], f.dim)


def v1_seminorm(m: MultiplierSeq) -> float:
    """Total variation sum |m_{n+1} - m_n| over Z, including both tail jumps."""
    seq = [m.left_tail, *m.values, m.right_tail]
    return float(sum(abs(b - a) for a, b in zip(seq, seq[1:])))


# ---------------------------------------------------------------------------
# L^p norms on the torus
# ---------------------------------------------------------------------------


class TorusNorm(NamedTuple):
    value: float
    exact: bool


def _is_even_integer(p: float) -> bool:
    return p == int(p) and int(p) % 2 == 0


def quadrature_points(f: TrigPolynomial, p: float, inner_p: float) -> tuple[int, bool]:
    """(N, exact): the grid size of f's L^p(l^inner_p) norm and whether it is exact.

    An even p with inner_p 2 takes the exact grid of p * M + 1 points, M the
    largest |frequency|, and any other the oversampled grid of 8 (2 M + 1);
    past _MAX_POINTS a ValueError names p and the size, before any grid is
    allocated.
    """
    M = f.max_abs_freq
    exact = _is_even_integer(p) and inner_p == 2
    N = int(p) * M + 1 if exact else max(_OVERSAMPLE * (2 * M + 1), 8)
    if N > _MAX_POINTS:
        from decimal import Decimal  # formats an integer past the float range

        grid = ("an exact quadrature grid of p * M + 1" if exact
                else "an oversampled quadrature grid of 8 (2 M + 1)")
        raise ValueError(f"p = {p:g} needs {grid} = {Decimal(N):.7g} points at M = {M}, more "
                         f"than {_MAX_POINTS}")
    return N, exact


def lp_torus_norm(
    f: TrigPolynomial, p: float, inner_p: float, n_points: int | None = None
) -> TorusNorm:
    """(1/N sum_j ||f(j/N)||_{inner_p}^p)^{1/p} on the uniform N-point grid.

    Exact (flag True) iff p is an even integer and inner_p == 2 and
    N > p * max|freq|; then the summand is a trig polynomial of degree at
    most p*M and the Riemann sum equals the integral.  The zero polynomial's
    norm 0 is exact on any grid.  The value is _torus_norms' for [f]; a given
    n_points is used whatever the size of f's own grid.
    """
    value = _torus_norms([f], p, inner_p, n_points)[0]
    N = quadrature_points(f, p, inner_p)[0] if n_points is None else int(n_points)
    return TorusNorm(value, _is_even_integer(p) and inner_p == 2
                     and (f.is_zero or N > p * f.max_abs_freq))


def _torus_norms(fs, p: float, inner_p: float, n_points: int | None = None) -> list[float]:
    """L^p(l^{inner_p}) norm of each polynomial of fs, on its quadrature grid or on n_points.

    The nonzero polynomials are grouped by grid (N, d), in order.  Each group
    goes through passes of at most _TORUS_CHUNK complex grid values (and at
    least one polynomial): _grid_values stacks the pass into one (B, N, d)
    array, and one _inner_norms, one power and one row mean score it.  Each
    value equals the one a pass of that polynomial alone gives, bit for bit:
    the inverse FFT transforms each line on its own, the elementwise steps
    do not depend on the position in the array, and the sum over a row of a
    C-contiguous (B, N) array is reduced as np.mean sums a 1-D row.  The root is
    taken on each mean alone, as a float64 scalar: numpy's array power took
    another path and differed from the scalar one in the last bit on about
    5% of random means on an AVX-512 host.  A zero polynomial gets 0.0 and
    no grid.
    """
    _require("p", p, 1)
    _require("inner_p", inner_p, 1, math.inf, "[]")
    out = [0.0] * len(fs)
    groups: dict[tuple[int, int], list[int]] = {}
    for i, f in enumerate(fs):
        N = quadrature_points(f, p, inner_p)[0] if n_points is None else int(n_points)
        if not f.is_zero:
            groups.setdefault((N, f.dim), []).append(i)
    root = 1.0 / p
    for (N, d), idx in groups.items():
        step = max(1, _TORUS_CHUNK // (N * d))
        for k in range(0, len(idx), step):
            part = idx[k : k + step]
            rows = _inner_norms(_grid_values([fs[i] for i in part], N), inner_p)
            for i, mean in zip(part, np.add.reduce(rows ** p, axis=1) / N):
                out[i] = float(mean ** root)
    return out


def _grid_values(fs, N: int) -> np.ndarray:
    """f(j/N), j = 0..N-1, of each f of fs (all of one dim), shape (len(fs), N, dim).

    Each polynomial is scattered into its slice of one zero array, and one
    aliased inverse DFT along the grid axis gives every value.
    """
    A = np.zeros((len(fs), N, fs[0].dim), dtype=complex)
    slots = np.repeat(np.arange(len(fs)), [len(f.freqs) for f in fs])
    cells = np.fromiter(itertools.chain.from_iterable(f.freqs for f in fs), int, len(slots)) % N
    # unbuffered, in index order: colliding residues add as a loop would
    np.add.at(A, (slots, cells), np.concatenate([f.vecs for f in fs]))
    return np.fft.ifft(A, axis=1) * N


def _inner_norms(vals: np.ndarray, inner_p: float) -> np.ndarray:
    """l^{inner_p} norms of the vectors along the last axis of a complex array."""
    a = np.abs(vals)
    if math.isinf(inner_p):
        return np.maximum.reduce(a, axis=-1)
    if inner_p == 2.0:
        return np.sqrt(_sum_terms(a * a))
    with np.errstate(over="ignore"):
        total = _sum_terms(a ** inner_p)
    out = total ** (1.0 / inner_p)
    # Where a power overflowed, or a nonzero row's sum fell below the normal
    # floats, factor the row's max out, as vector_p_norm does; a row with a
    # normal sum keeps its bits, and a row that holds inf its inf norm.
    top = np.maximum.reduce(a, axis=-1)
    bad = np.isfinite(top) & (np.isinf(total) | ((total < np.finfo(float).tiny) & (top > 0)))
    if bad.any():
        scaled = (a[bad] / top[bad][..., None]) ** inner_p
        out[bad] = top[bad] * np.add.reduce(scaled, axis=-1) ** (1.0 / inner_p)
    return out


def _sum_terms(a: np.ndarray) -> np.ndarray:
    """Sums over the last axis, equal to np.add.reduce bit for bit."""
    # One or two terms round the same in any order (addition commutes), so the
    # column sums equal numpy's reduction bit for bit at a tenth of its cost
    # over so short an axis.  Three or more terms keep the reduction: its
    # grouping is numpy's own, and a column sum could round differently.
    d = a.shape[-1]
    if d == 1:
        return a[..., 0]
    if d == 2:
        return a[..., 0] + a[..., 1]
    return np.add.reduce(a, axis=-1)


def pairing(f: TrigPolynomial, g: TrigPolynomial) -> complex:
    """<f, g> = integral of <f(t), g(t)>_{C^d} dt = sum_n <f_n, g_n>.

    The pairing is sesquilinear (conjugation on g), which is precisely the
    convention under which the same-interval block identity
    <f, g> = sum_I <D_I f, D_I g> holds; the quadrature pairing of the test
    oracles cross-checks it.
    """
    if f.dim != g.dim:
        raise ValueError("dimension mismatch")
    total = 0.0 + 0.0j
    gmap = {n: g.vecs[i] for i, n in enumerate(g.freqs)}
    for i, n in enumerate(f.freqs):
        if n in gmap:
            total += complex(np.sum(f.vecs[i] * np.conj(gmap[n])))
    return total


# ---------------------------------------------------------------------------
# Empirical multiplier-norm lower bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExtremalSearchConfig:
    """Randomized witness search: seeded trials plus coefficient ascent."""

    trials: int = 300
    max_support: int = 12
    ascent_steps: int = 120
    seed: int = 0

    def __post_init__(self):
        for name, least in (("trials", 1), ("max_support", 2), ("ascent_steps", 0), ("seed", 0)):
            _require(name, getattr(self, name), least)


def _random_polynomial(rng: np.random.Generator, d: int, max_support: int) -> TrigPolynomial:
    size = int(rng.integers(2, max(3, max_support + 1)))
    span = max(max_support, 2)
    freqs = rng.choice(np.arange(-span, span + 1), size=min(size, 2 * span + 1), replace=False)
    vecs = rng.standard_normal((len(freqs), d)) + 1j * rng.standard_normal((len(freqs), d))
    return TrigPolynomial(tuple(int(n) for n in freqs), vecs, d)


def _multiplier_ratios(fs, ms, p: float, inner_p: float) -> list[float]:
    """||T_m f||_p / ||f||_p of each f of fs and m of ms, 0.0 where ||f||_p is 0.

    Every f and every T_m f is scored in one _torus_norms call.
    """
    images = [apply_multiplier(f, m) for f, m in zip(fs, ms, strict=True)]
    norms = _torus_norms([*fs, *images], p, inner_p)
    return [num / den if den != 0.0 else 0.0 for den, num in zip(norms, norms[len(fs):])]


def _riesz_templates(d: int, max_support: int) -> list[TrigPolynomial]:
    # mixed-support starts: the extremal polynomials need a tunable analytic
    # part plus negative frequencies that the projection removes
    spans = sorted({1, 2, min(4, max(1, max_support // 2))})
    out = []
    for k in spans:
        coeffs = {}
        for n in range(-k, k + 1):
            coeffs[n] = np.full(d, 1.0 / (1.0 + abs(n)), dtype=complex)
        out.append(TrigPolynomial.from_coeffs(coeffs, d))
    out.append(TrigPolynomial.from_coeffs({0: np.ones(d), 1: np.ones(d)}, d))
    return out


def riesz_norm_lower_bound(
    p: float, d: int, inner_p: float = 2.0, cfg: ExtremalSearchConfig = ExtremalSearchConfig()
) -> float:
    """Empirical lower bound of the Riesz projection norm on L^p(T; l^{inner_p}_d).

    The candidate pool always contains an analytic polynomial, which the
    projection fixes, so the result is >= 1 - 1e-9 regardless of the draw.
    Deterministic templates with two-sided support seed the ascent, since
    random draws alone rarely align the cancellation that pushes the ratio
    above 1.  The draw pool, the templates and each lockstep ascent step are
    scored in one _multiplier_ratios call each, one quadrature grid at a
    time, and every ratio equals that of the polynomial scored alone, bit
    for bit.  The ascent's floors are ignored, as a ratio's one bound is the
    Riesz norm itself, and every candidate is scored.
    """
    _require("p", p, 1, math.inf, "()")
    _require("dim", d, 1)

    def ratios(fs: list[TrigPolynomial], _floors=None) -> list[tuple[float, None]]:
        return [(r, None) for r in _multiplier_ratios(fs, [RIESZ_SYMBOL] * len(fs), p, inner_p)]

    rng = np.random.default_rng(cfg.seed)
    drawn = [_random_polynomial(rng, d, cfg.max_support) for _ in range(cfg.trials)]
    # stable: equal ratios keep draw order
    pool = sorted(zip(drawn, ratios(drawn)), key=lambda t: t[1][0], reverse=True)
    # each ascent returns at least the ratio it starts from
    templates = _riesz_templates(d, cfg.max_support)
    starts = list(zip(templates, ratios(templates))) + pool[:_RIESZ_TOP_K]
    ends = _coefficient_ascents(starts, ratios, cfg.ascent_steps, rng)
    return max(value for value, _f, _extra in ends)


def _coefficient_ascents(starts: list, score_many, steps: int,
                         rng: np.random.Generator) -> list[tuple]:
    """Random-step ascents of score -> (value, extra) from each (f, (value, extra)).

    Each step adds step * (complex Gaussian) to the coefficients and keeps the
    candidate if its value is strictly larger; the step starts at 0.25 and is
    multiplied by 1.3 on success (at most 1) and by 0.7 on failure (at least
    1e-6).  A zero candidate is skipped.  Returns (value, f, extra) of each
    start's best.

    The ascents run in lockstep, every start's candidate scored in one
    score_many(candidates, floors) -> list call per step, floors holding each
    candidate's start's current value.  A candidate can only be accepted
    above its floor, so a scorer may give -inf to one it certifies at or
    below it: decomp's does, without a block-norm triangle, and the stream
    and the step rules do not change.  The Riesz scorer ignores the floors
    and takes the list one quadrature grid at a time (see _torus_norms); each
    scorer gives each candidate it scores the value it gets alone, bit for
    bit.  Each start's noise block, shape
    (steps, 2, s, d), is drawn first, in start order: the stream and the
    generator state after it equal those of one start at a time with two
    (s, d) draws per step.  It holds len(starts) * steps * 2 * s * d doubles.
    """
    noise = [rng.standard_normal((steps, 2, *f.vecs.shape)) for f, _start in starts]
    best = [[f, value, extra, 0.25] for f, (value, extra) in starts]
    for k in range(steps):
        cands = []
        for cur, z in zip(best, noise):
            f, step = cur[0], cur[3]
            cand = TrigPolynomial._sorted(f.freqs, f.vecs + step * (z[k, 0] + 1j * z[k, 1]), f.dim)
            if not cand.is_zero:
                cands.append((cur, cand))
        if not cands:
            continue
        scores = score_many([c for _cur, c in cands], [cur[1] for cur, _c in cands])
        for (cur, cand), (v, v_extra) in zip(cands, scores):
            if v > cur[1]:
                cur[:] = cand, v, v_extra, min(cur[3] * 1.3, 1.0)
            else:
                cur[3] = max(cur[3] * 0.7, 1e-6)
    return [(value, f, extra) for f, value, extra, _step in best]


def marcinkiewicz_checks(fs, ms, p: float, inner_p: float = 2.0) -> list[tuple[float, float]]:
    """(||T_m f||_p / ||f||_p, ||m||_inf + [m]_V1) of each f of fs and m of ms.

    The ratio of the two terms is a sample-wise lower bound for the
    bounded-variation multiplier constant of the ambient space.  Every f and
    every T_m f is scored in one _torus_norms call.
    """
    lhs = _multiplier_ratios(fs, ms, p, inner_p)
    return [(r, m.sup_norm() + v1_seminorm(m)) for r, m in zip(lhs, ms)]
