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
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .operators import _require

_OVERSAMPLE = 8


class WindowTooSmallError(ValueError):
    """The supplied window misses points where the multiplier still varies."""


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

    @staticmethod
    def singletons(freqs: Iterable[int]) -> "IntervalPartition":
        return IntervalPartition(tuple(Interval(n, n) for n in sorted(set(freqs))))

    @staticmethod
    def from_pairs(pairs: Iterable[tuple]) -> "IntervalPartition":
        return IntervalPartition(tuple(Interval(a, b) for a, b in pairs))


@dataclass(frozen=True, eq=False)
class TrigPolynomial:
    """Finitely supported map Z -> C^d of Fourier coefficients."""

    freqs: tuple[int, ...]
    vecs: np.ndarray  # shape (len(freqs), dim)
    dim: int

    def __post_init__(self):
        arr = np.array(self.vecs, dtype=complex).reshape(len(self.freqs), self.dim)
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

    @staticmethod
    def scalar(coeffs: Mapping[int, complex]) -> "TrigPolynomial":
        return TrigPolynomial.from_coeffs({n: [c] for n, c in coeffs.items()}, dim=1)

    @staticmethod
    def zero(dim: int = 1) -> "TrigPolynomial":
        return TrigPolynomial((), np.zeros((0, dim)), dim)

    def coeff(self, n: int) -> np.ndarray:
        for i, m in enumerate(self.freqs):
            if m == n:
                return self.vecs[i]
        return np.zeros(self.dim, dtype=complex)

    @property
    def support(self) -> tuple[int, ...]:
        return self.freqs

    @functools.cached_property
    def is_zero(self) -> bool:
        return not self.vecs.any()

    @property
    def max_abs_freq(self) -> int:
        # the frequencies are sorted: the largest |n| sits at one end
        return max(-self.freqs[0], self.freqs[-1]) if self.freqs else 0

    def coeff_dict(self) -> dict[int, np.ndarray]:
        return {n: self.vecs[i].copy() for i, n in enumerate(self.freqs)}

    def __add__(self, other: "TrigPolynomial") -> "TrigPolynomial":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        out = {n: v.copy() for n, v in self.coeff_dict().items()}
        for n, v in other.coeff_dict().items():
            out[n] = out.get(n, np.zeros(self.dim, dtype=complex)) + v
        return TrigPolynomial.from_coeffs(out, self.dim)

    def __mul__(self, scalar: complex) -> "TrigPolynomial":
        return TrigPolynomial._sorted(self.freqs, self.vecs * scalar, self.dim)

    __rmul__ = __mul__

    def values_on_grid(self, n_points: int) -> np.ndarray:
        """f at t_j = j/N, j = 0..N-1, shape (N, dim), via an aliased inverse DFT."""
        N = int(n_points)
        A = np.zeros((N, self.dim), dtype=complex)
        # unbuffered, in index order: colliding residues add as a loop would
        np.add.at(A, np.array(self.freqs, dtype=int) % N, self.vecs)
        return np.fft.ifft(A, axis=0) * N


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
            n = int(toks[0])
            vals = [float(t) for t in toks[1:]]
            coeffs[n] = np.array(vals[0::2]) + 1j * np.array(vals[1::2])
    return TrigPolynomial.from_coeffs(coeffs, dim or 1)


# ---------------------------------------------------------------------------
# Scalar multipliers
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class MultiplierSeq:
    """A bounded scalar sequence m: Z -> C, eventually constant on both sides.

    Values on [window_lo, window_lo + len(values) - 1] are explicit; below the
    window the sequence equals left_tail, above it right_tail.  This encodes
    every in-scope symbol, including half-line indicators such as the Riesz
    projection symbol 1_{[0, inf)}.
    """

    window_lo: int
    values: tuple
    left_tail: complex = 0.0
    right_tail: complex = 0.0

    def __post_init__(self):
        vals = tuple(complex(v) for v in self.values)
        if not vals and complex(self.left_tail) != complex(self.right_tail):
            raise ValueError("empty window needs equal tails")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "left_tail", complex(self.left_tail))
        object.__setattr__(self, "right_tail", complex(self.right_tail))

    @property
    def window_hi(self) -> int:
        return self.window_lo + len(self.values) - 1

    def at(self, n: int) -> complex:
        if not self.values:
            return self.left_tail
        if n < self.window_lo:
            return self.left_tail
        if n > self.window_hi:
            return self.right_tail
        return self.values[n - self.window_lo]

    def at_many(self, ns) -> np.ndarray:
        return np.array([self.at(int(n)) for n in ns], dtype=complex)

    def sup_norm(self) -> float:
        cand = [abs(self.left_tail), abs(self.right_tail)]
        cand.extend(abs(v) for v in self.values)
        return max(cand)

    def deviation_range(self) -> tuple[int, int] | None:
        """Smallest [lo, hi] outside which m equals its tails; None if constant."""
        lo = None
        for i, v in enumerate(self.values):
            if v != self.left_tail:
                lo = self.window_lo + i
                break
        hi = None
        for i in range(len(self.values) - 1, -1, -1):
            if self.values[i] != self.right_tail:
                hi = self.window_lo + i
                break
        if lo is None and hi is None:
            if self.left_tail == self.right_tail:
                return None
            return (self.window_lo, self.window_hi)
        if lo is None:
            lo = hi
        if hi is None:
            hi = lo
        return (min(lo, hi), max(lo, hi))

    @staticmethod
    def constant(c: complex) -> "MultiplierSeq":
        return MultiplierSeq(0, (), left_tail=c, right_tail=c)

    @staticmethod
    def indicator(interval: Interval) -> "MultiplierSeq":
        lo, hi = interval.lo, interval.hi
        if lo is None and hi is None:
            return MultiplierSeq.constant(1.0)
        if lo is None:
            return MultiplierSeq(hi, (1.0,), left_tail=1.0, right_tail=0.0)
        if hi is None:
            return MultiplierSeq(lo, (1.0,), left_tail=0.0, right_tail=1.0)
        return MultiplierSeq(lo, (1.0,) * (hi - lo + 1))

    @staticmethod
    def from_values(values: Mapping[int, complex], default: complex = 0.0) -> "MultiplierSeq":
        if not values:
            return MultiplierSeq.constant(default)
        lo, hi = min(values), max(values)
        vals = tuple(complex(values.get(n, default)) for n in range(lo, hi + 1))
        return MultiplierSeq(lo, vals, left_tail=default, right_tail=default)


RIESZ_SYMBOL = MultiplierSeq.indicator(Interval(0, None))


def project_interval(f: TrigPolynomial, interval: Interval) -> TrigPolynomial:
    """D_I f: zero every coefficient outside the interval."""
    keep = [i for i, n in enumerate(f.freqs) if interval.contains(n)]
    return TrigPolynomial._sorted(tuple(f.freqs[i] for i in keep), f.vecs[keep], f.dim)


def apply_multiplier(f: TrigPolynomial, m: MultiplierSeq) -> TrigPolynomial:
    """T_m f: multiply the coefficient at frequency n by m_n."""
    factors = m.at_many(f.freqs)
    return TrigPolynomial._sorted(f.freqs, f.vecs * factors[:, None], f.dim)


def v1_seminorm(m: MultiplierSeq, window: tuple[int, int] | None = None) -> float:
    """Total variation sum |m_{n+1} - m_n| over Z, including both tail jumps.

    If a window is supplied it must contain every point where m deviates from
    its tail values; otherwise a WindowTooSmallError is raised.
    """
    dev = m.deviation_range()
    if dev is None:
        return 0.0
    if window is not None:
        lo, hi = int(window[0]), int(window[1])
        if lo > dev[0] or hi < dev[1]:
            raise WindowTooSmallError(
                f"multiplier varies on [{dev[0]}, {dev[1]}], window [{lo}, {hi}] misses it"
            )
    lo, hi = dev
    seq = [m.at(n) for n in range(lo - 1, hi + 2)]
    return float(sum(abs(b - a) for a, b in zip(seq, seq[1:])))


# ---------------------------------------------------------------------------
# L^p norms on the torus
# ---------------------------------------------------------------------------


class TorusNorm(NamedTuple):
    value: float
    exact: bool
    n_points: int


def _is_even_integer(p: float) -> bool:
    return p == int(p) and int(p) % 2 == 0


def quadrature_points(f: TrigPolynomial, p: float, inner_p: float) -> tuple[int, bool]:
    M = f.max_abs_freq
    if _is_even_integer(p) and inner_p == 2:
        return int(p) * M + 1, True
    return max(_OVERSAMPLE * (2 * M + 1), 8), False


def lp_torus_norm(
    f: TrigPolynomial, p: float, inner_p: float = 2.0, n_points: int | None = None
) -> TorusNorm:
    """(1/N sum_j ||f(j/N)||_{inner_p}^p)^{1/p} on the uniform N-point grid.

    Exact (flag True) iff p is an even integer and inner_p == 2 and
    N > p * max|freq|; then the summand is a trig polynomial of degree at
    most p*M and the Riemann sum equals the integral.
    """
    _require("p", p, 1)
    _require("inner_p", inner_p, 1, math.inf, "[]")
    if f.is_zero:
        default_n, exact = quadrature_points(f, p, inner_p)
        return TorusNorm(0.0, exact, n_points or default_n)
    default_n, exact = quadrature_points(f, p, inner_p)
    N = int(n_points) if n_points is not None else default_n
    if n_points is not None:
        exact = _is_even_integer(p) and inner_p == 2 and N > int(p) * f.max_abs_freq
    row = _inner_norms(f.values_on_grid(N), inner_p)
    return TorusNorm(float(np.mean(row ** p) ** (1.0 / p)), exact, N)


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
    # Where a power overflowed, factor the row's max out, as vector_p_norm
    # does; every row whose sum is finite keeps its bits, and a row that holds
    # inf keeps its inf norm.
    top = np.maximum.reduce(a, axis=-1)
    bad = np.isinf(total) & np.isfinite(top)
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
    <f, g> = sum_I <D_I f, D_I g> holds; pairing_quadrature cross-checks it.
    """
    if f.dim != g.dim:
        raise ValueError("dimension mismatch")
    total = 0.0 + 0.0j
    gmap = {n: g.vecs[i] for i, n in enumerate(g.freqs)}
    for i, n in enumerate(f.freqs):
        if n in gmap:
            total += complex(np.sum(f.vecs[i] * np.conj(gmap[n])))
    return total


def pairing_quadrature(f: TrigPolynomial, g: TrigPolynomial, n_points: int | None = None) -> complex:
    M = f.max_abs_freq + g.max_abs_freq
    N = int(n_points) if n_points is not None else 2 * M + 1
    vf = f.values_on_grid(N)
    vg = g.values_on_grid(N)
    return complex(np.mean(np.sum(vf * np.conj(vg), axis=1)))


# ---------------------------------------------------------------------------
# Empirical multiplier-norm lower bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExtremalSearchConfig:
    """Randomized witness search: seeded trials plus coefficient ascent."""

    trials: int = 300
    max_support: int = 12
    ascent_steps: int = 120
    top_k: int = 4
    seed: int = 0


def _random_polynomial(rng: np.random.Generator, d: int, max_support: int) -> TrigPolynomial:
    size = int(rng.integers(2, max(3, max_support + 1)))
    span = max(max_support, 2)
    freqs = rng.choice(np.arange(-span, span + 1), size=min(size, 2 * span + 1), replace=False)
    vecs = rng.standard_normal((len(freqs), d)) + 1j * rng.standard_normal((len(freqs), d))
    return TrigPolynomial(tuple(int(n) for n in freqs), vecs, d)


def _multiplier_ratio(f: TrigPolynomial, m: MultiplierSeq, p: float, inner_p: float) -> float:
    den = lp_torus_norm(f, p, inner_p).value
    if den == 0.0:
        return 0.0
    num = lp_torus_norm(apply_multiplier(f, m), p, inner_p).value
    return num / den


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
    above 1.
    """
    _require("p", p, 1, math.inf, "()")
    _require("dim", d, 1)

    def score(f: TrigPolynomial) -> tuple[float, None]:
        return _multiplier_ratio(f, RIESZ_SYMBOL, p, inner_p), None

    rng = np.random.default_rng(cfg.seed)
    drawn = [_random_polynomial(rng, d, cfg.max_support) for _ in range(cfg.trials)]
    # stable: equal ratios keep draw order
    pool = sorted(((f, score(f)) for f in drawn), key=lambda t: t[1][0], reverse=True)
    # each ascent returns at least the ratio it starts from
    starts = [(f, score(f)) for f in _riesz_templates(d, cfg.max_support)] + pool[: cfg.top_k]
    ends = _coefficient_ascents(starts, lambda fs: [score(f) for f in fs], cfg.ascent_steps, rng)
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
    score_many(list) -> list call per step.  Each start's noise block, shape
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
        for (cur, cand), (v, v_extra) in zip(cands, score_many([c for _cur, c in cands])):
            if v > cur[1]:
                cur[:] = cand, v, v_extra, min(cur[3] * 1.3, 1.0)
            else:
                cur[3] = max(cur[3] * 0.7, 1e-6)
    return [(value, f, extra) for f, value, extra, _step in best]


def marcinkiewicz_check(
    f: TrigPolynomial,
    m: MultiplierSeq,
    p: float,
    inner_p: float = 2.0,
    window: tuple[int, int] | None = None,
) -> tuple[float, float]:
    """Return (||T_m f||_p / ||f||_p, ||m||_inf + [m]_V1).

    The ratio of the two terms is a sample-wise lower bound for the
    bounded-variation multiplier constant of the ambient space.
    """
    lhs = _multiplier_ratio(f, m, p, inner_p)
    rhs_factor = m.sup_norm() + v1_seminorm(m, window)
    return lhs, rhs_factor
