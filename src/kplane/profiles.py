"""Radial profiles, axisymmetric fields, and measure-theoretic functionals.

A radial profile is a function of r >= 0 stored as nodes (r_i, v_i) and read
everywhere as piecewise linear in (log r, value): constant at the head value
below the first node and following the declared power tail
v(r) = v_N (r_N / r)^gamma beyond the last. Every functional in this module
(L^p norms, distribution functions, Lorentz quasinorms) is computed for that
one canonical interpretation, so identities that hold exactly for the
interpretation, layer cake above all, come out at quadrature precision rather
than at grid resolution. Step functions stay exact because they are encoded
with paired nodes separated by a relative gap of 1e-12.

Axisymmetric fields live on a (rho, |x'| , s = x_d) half-plane grid, cell
centered, with an optional exact evaluator and a declared power tail used to
extend the field radially outside the grid box. A field is read two ways: its
L^p norm integrates the exact rule cell by cell (2x2 Gauss) plus the exterior
tail by angular quadrature, and every distribution functional reads its
symmetric decreasing rearrangement, so the profile functionals above apply.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DivergenceError, TailDivergenceError
from .params import sphere_area

__all__ = [
    "WeightedMeasure",
    "lebesgue_measure",
    "radial_measure",
    "RadialProfile",
    "AxiSymField",
    "DistributionFunction",
    "default_radial_grid",
    "default_field_grid",
    "graded_field_grid",
    "step_profile",
    "indicator_profile",
    "field_from_function",
    "embed_radial",
    "lp_norm",
    "lp_distance",
    "distribution_at",
    "distribution_function",
    "lorentz_quasinorm",
    "interpolation_check",
    "InterpolationReport",
]

DEFAULT_RADIAL_SPAN = (1e-4, 1e4)
DEFAULT_RADIAL_NODES = 2048
DEFAULT_FIELD_RADIUS = 60.0


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n: int, lo: float = -1.0, hi: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """n-node Gauss-Legendre nodes and weights on [lo, hi], each rounded once.

    numpy's leggauss leaves nodes and weights a few ulps off: mapped to
    [0, 1], its 8- and 48-node rules read int_0^1 x^10 dx 3.2e-15 and 1.8e-14
    off. Here its nodes take a Newton step on P_n in np.longdouble, and the
    weights and the map to [lo, hi] are formed there too, so each value
    rounds to float once.
    The arrays are cached per (n, lo, hi) and read-only.
    """

    def legendre(x):  # (P_n(x), P_n'(x)) by the three-term recurrence
        prev, cur = np.ones_like(x), x
        for j in range(2, n + 1):
            prev, cur = cur, ((2 * j - 1) * x * cur - (j - 1) * prev) / j
        return cur, n * (x * cur - prev) / (x * x - 1)

    x = np.polynomial.legendre.leggauss(n)[0].astype(np.longdouble)
    pn, dpn = legendre(x)
    x -= pn / dpn  # one step from a float start is converged in longdouble
    _, dpn = legendre(x)
    half = (np.longdouble(hi) - np.longdouble(lo)) / 2
    nodes = (np.longdouble(lo) + half * (x + 1)).astype(float)
    weights = (half * 2 / ((1 - x * x) * dpn * dpn)).astype(float)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


# Gauss-Legendre nodes/weights on [0, 1], reused by every piecewise quadrature.
def _gl01(n: int) -> tuple[np.ndarray, np.ndarray]:
    return _gauss_legendre(n, 0.0, 1.0)


_GL12_X, _GL12_W = _gl01(12)
_GL24_X, _GL24_W = _gl01(24)
_GL2_X, _GL2_W = _gl01(2)


@dataclass(frozen=True)
class WeightedMeasure:
    """The measure prefactor * r^(m-1) dr on [0, inf).

    weight_exponent is m; prefactor |S^{d-1}| with m = d gives Lebesgue
    measure on R^d restricted to radial functions, prefactor 1 gives the bare
    radial measure used in the concentration arguments.
    """

    weight_exponent: int
    prefactor: float = 1.0

    def __post_init__(self) -> None:
        if self.weight_exponent < 1:
            raise ValueError(f"weight exponent must be >= 1, got {self.weight_exponent}")
        if not (self.prefactor > 0 and math.isfinite(self.prefactor)):
            raise ValueError(f"prefactor must be positive and finite, got {self.prefactor}")

    def interval_measure(self, a, b):
        """Measure of [a, b], vectorized in either endpoint."""
        m = self.weight_exponent
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        return self.prefactor * (b**m - a**m) / m


def lebesgue_measure(d: int) -> WeightedMeasure:
    """Lebesgue measure on R^d in radial coordinates: |S^{d-1}| r^{d-1} dr."""
    return WeightedMeasure(d, sphere_area(d))


def radial_measure(m: int) -> WeightedMeasure:
    """The bare weighted measure r^{m-1} dr (prefactor 1)."""
    return WeightedMeasure(m, 1.0)


@dataclass(frozen=True, eq=False)
class RadialProfile:
    """Radial function on [0, inf) with a declared power tail.

    radii must be strictly increasing, positive and finite; values
    nonnegative and finite. Between nodes the value is linear in log r.
    Below radii[0] the profile is constant at values[0]; beyond radii[-1] it
    decays like values[-1] * (radii[-1]/r)**tail_exponent.
    """

    d: int
    radii: np.ndarray
    values: np.ndarray
    tail_exponent: float

    def __post_init__(self) -> None:
        radii = np.ascontiguousarray(self.radii, dtype=float)
        values = np.ascontiguousarray(self.values, dtype=float)
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "values", values)
        if self.d < 1:
            raise ValueError(f"dimension must be >= 1, got {self.d}")
        if radii.ndim != 1 or values.shape != radii.shape:
            raise ValueError("radii and values must be 1-d arrays of equal length")
        if len(radii) < 1:
            raise ValueError("need at least one node")
        # increasing radii can only be infinite at the last node
        if not (radii[0] > 0 and np.all(np.diff(radii) > 0) and radii[-1] < math.inf):
            raise ValueError("radii must be positive, finite and strictly increasing")
        if not np.all(np.isfinite(values)) or np.any(values < 0):
            raise ValueError("values must be finite and nonnegative")
        if not (self.tail_exponent > 0 and math.isfinite(self.tail_exponent)):
            raise ValueError(f"tail exponent must be positive, got {self.tail_exponent}")
        object.__setattr__(self, "_log_radii", np.log(radii))

    @property
    def log_radii(self) -> np.ndarray:
        return self._log_radii  # type: ignore[attr-defined]

    def evaluate(self, r):
        """Profile value at radius r (scalar or array), head and tail included."""
        r = np.asarray(r, dtype=float)
        # one pass that also rejects NaN, for which every comparison is False
        if not np.all(r >= 0):
            raise ValueError("radius must be nonnegative and not NaN")
        out = np.interp(
            np.log(np.maximum(r, self.radii[0])), self.log_radii, self.values
        )
        tail = r > self.radii[-1]
        if np.any(tail):
            out = np.where(
                tail,
                self.values[-1] * (self.radii[-1] / np.where(tail, r, 1.0)) ** self.tail_exponent,
                out,
            )
        return out if out.ndim else float(out)

    def scaled(self, c: float) -> "RadialProfile":
        """Pointwise multiple c*f, c >= 0."""
        return RadialProfile(self.d, self.radii, c * self.values, self.tail_exponent)

    def dilated(self, mu: float) -> "RadialProfile":
        """The profile r -> f(mu * r), represented exactly on the scaled grid."""
        if not mu > 0:
            raise ValueError(f"dilation factor must be positive, got {mu}")
        return RadialProfile(self.d, self.radii / mu, self.values, self.tail_exponent)

    def with_values(self, values: np.ndarray, tail_exponent: float | None = None) -> "RadialProfile":
        return RadialProfile(
            self.d,
            self.radii,
            values,
            self.tail_exponent if tail_exponent is None else tail_exponent,
        )


def default_radial_grid(n: int = DEFAULT_RADIAL_NODES) -> np.ndarray:
    """Geometric radial grid; the package default is 2048 nodes over [1e-4, 1e4]."""
    return np.geomspace(*DEFAULT_RADIAL_SPAN, n)


_STEP_GAP = 1e-12


def step_profile(
    d: int,
    breaks: Sequence[float],
    levels: Sequence[float],
    tail_exponent: float = 10.0,
) -> RadialProfile:
    """Piecewise-constant profile: levels[i] on [breaks[i-1], breaks[i]), 0 beyond.

    Each jump is encoded as a node pair at breaks[i]*(1 -+ 1e-12), so the
    canonical PL interpretation reproduces the step function up to slivers of
    relative width 1e-12 (far below every tolerance in the package). Breaks
    closer than that keep each pair inside the midpoints to their neighbours;
    nodes that then coincide are merged, keeping the last value.
    """
    breaks = list(map(float, breaks))
    levels = list(map(float, levels))
    if len(breaks) != len(levels):
        raise ValueError("need one level per break")
    if not all(b > 0 for b in breaks) or sorted(breaks) != breaks or len(set(breaks)) != len(breaks):
        raise ValueError("breaks must be positive and strictly increasing")
    b = np.array(breaks)
    mid = 0.5 * (b[:-1] + b[1:])
    lo = np.maximum(b * (1 - _STEP_GAP), np.concatenate([[0.0], mid]))
    hi = np.minimum(b * (1 + _STEP_GAP), np.concatenate([mid, [math.inf]]))
    radii = np.column_stack([lo, hi]).ravel()
    vals = np.column_stack([levels, levels[1:] + [0.0]]).ravel()
    keep = np.append(radii[1:] > radii[:-1], True)
    return RadialProfile(d, radii[keep], vals[keep], tail_exponent)


def indicator_profile(d: int, radius: float = 1.0) -> RadialProfile:
    """Indicator of the ball of the given radius."""
    return step_profile(d, [radius], [1.0])


# ---------------------------------------------------------------------------
# Exact piecewise functionals for the PL interpretation
# ---------------------------------------------------------------------------


def _check_exponent(p: float) -> None:
    """Reject an L^p exponent outside 0 < p < inf, NaN included."""
    if not 0 < p < math.inf:
        raise ValueError(f"p must be positive and finite, got {p}")


def _pieces_power_sum(ua, ub, va, vb, p: float, m: int) -> float:
    """Sum over pieces of int |v|^p e^(m u) du, GL12 per piece.

    Piece i runs over u in [ua_i, ub_i], where v is linear from va_i to vb_i.
    The exponent p log|v| + m u of every (node, piece) pair is built in
    place in one (12, pieces) array, beside one more for m u, then read by
    one exp; a node with v = 0 gives 0. The weights and the widths reduce it
    as _GL12_W @ ... @ du.
    """
    du = ub - ua
    e = np.multiply.outer(_GL12_X, vb - va)
    e += va
    np.abs(e, out=e)
    with np.errstate(divide="ignore"):
        np.log(e, out=e)
    e *= p
    mu = np.multiply.outer(_GL12_X, du)
    mu += ua
    mu *= m
    e += mu
    np.exp(e, out=e)
    return float(_GL12_W @ e @ du)


def _profile_norm_power(f: RadialProfile, p: float, measure: WeightedMeasure) -> float:
    """int f^p dmeasure for the canonical interpretation, GL12 per piece.

    Head and tail are closed form; the tail needs tail_exponent * p > m.
    """
    m = measure.weight_exponent
    u = f.log_radii
    v = f.values
    total = v[0] ** p * f.radii[0] ** m / m
    total += _pieces_power_sum(u[:-1], u[1:], v[:-1], v[1:], p, m)
    if v[-1] > 0:
        g = f.tail_exponent
        if g * p <= m:
            raise TailDivergenceError(
                f"int f^p r^(m-1) dr diverges at infinity: tail exponent {g}, "
                f"p={p}, weight exponent {m}"
            )
        total += v[-1] ** p * f.radii[-1] ** m / (g * p - m)
    return measure.prefactor * total


# node evaluations of (piece, level) crossing pairs per batch; more are swept
# in blocks of levels
_PAIR_BLOCK = 1 << 15


def _pair_blocks(first: np.ndarray, stop: np.ndarray, n_levels: int, per_pair: int = 1):
    """(piece, level) index pairs of the runs first[j] .. stop[j] - 1, in blocks.

    Each piece meets one contiguous run of the sorted levels, and each pair
    costs per_pair node evaluations. Up to _PAIR_BLOCK evaluations come in
    one batch; more come in blocks of levels that keep each batch at about
    _PAIR_BLOCK.
    """
    total = int(np.maximum(stop - first, 0).sum())
    block = max(_PAIR_BLOCK // per_pair, 1)
    blocks = [(first, stop)]
    if total > block:
        live = stop > first
        per_level = np.cumsum(
            np.bincount(first, weights=live, minlength=n_levels + 1)
            - np.bincount(stop, weights=live, minlength=n_levels + 1)
        )[:n_levels]
        edges = np.searchsorted(
            np.cumsum(per_level), np.arange(block, total, block), side="left"
        )
        blocks = (
            (np.maximum(first, b0), np.minimum(stop, b1))
            for b0, b1 in zip(np.r_[0, edges], np.r_[edges, n_levels])
        )
    for start, end in blocks:
        n = end - start
        live = (n > 0).nonzero()[0]
        if len(live):
            n = n[live]
            ends = n.cumsum()
            yield live.repeat(n), np.arange(ends[-1]) + (start[live] - (ends - n)).repeat(n)


class _DistributionEngine:
    """t -> exact measure of {f >= t} for the PL interpretation, t > 0 an array.

    A linear-in-log-r piece contributes its full measure when t <= its lower
    endpoint value, and the measure of the sub-interval where v >= t when
    lo < t <= hi. That sub-interval runs from the piece's high end a log-width
    y du toward the crossing, y = (hi - t)/|v_b - v_a|, and its measure is
    +-r_hi^m (e^(+-m y du) - 1)/m, + when the high end is r_a, - when it is
    r_b: one power of an endpoint times one expm1. The log-width itself is
    du = log1p((r_b - r_a)/r_a), so pieces whose radii lie a few ulps apart
    keep their measure rather than cancel it in a difference of logs or of
    exponentials. Head (constant) and tail (power decay, finite measure for
    t > 0) are closed form. The pieces are sorted by their lower value once,
    so the full pieces of a threshold are a suffix sum found by one search.
    Against the sorted thresholds the crossings of each piece form one
    contiguous run, swept by _pair_blocks, so a query of T thresholds on n
    pieces costs
    O((n + T) log(n + T)) plus the number of (threshold, piece) crossings,
    which is O(n + T) for a monotone profile.

    With slope=True the query returns (d, t d') from the same sweep: a
    crossed piece adds -m r*^m du (t/|dv|), r* its crossing, and the tail
    -(m/gamma) r_t^m.
    At a node level t this is the left derivative, whose pieces are those of
    the open segment just below t. t d' stays finite wherever d does, while
    d' alone overflows at a subnormal t or on a piece whose value change is
    subnormal.

    segments() reads d at quadrature nodes of level segments, bit for bit as
    the threshold query reads them.
    """

    def __init__(self, f: RadialProfile, measure: WeightedMeasure) -> None:
        self.m = m = measure.weight_exponent
        self.pre = measure.prefactor
        r = f.radii
        v = f.values
        du = np.log1p((r[1:] - r[:-1]) / r[:-1])
        ea = r[:-1] ** m
        lo = np.minimum(v[:-1], v[1:])
        hi = np.maximum(v[:-1], v[1:])
        dv = v[1:] - v[:-1]
        # a crossed piece keeps the log-width y du next to its high end, of
        # measure sign base expm1(sign m y du): base = r_b^m and sign = -1
        # when it increases, r_a^m and +1 when it decreases
        self.sign = sign = np.where(dv > 0, -1.0, 1.0)
        self.base = np.where(dv > 0, r[1:] ** m, ea)
        self.hi, self.adv = hi, np.abs(dv)
        self.sign_mdu = sign * m * du
        self.du = du
        by_lo = np.argsort(lo, kind="stable")
        self.lo_sorted = lo[by_lo]
        full = ea * np.expm1(m * du)
        self.full_above = np.concatenate([np.cumsum(full[by_lo][::-1])[::-1], [0.0]])
        # only pieces with lo < hi can be crossed
        self.sloped = sloped = np.flatnonzero(dv != 0)
        self.s_lo, self.s_hi = lo[sloped], hi[sloped]
        self.head = f.radii[0] ** m
        self.v_0, self.v_n = v[0], v[-1]
        self.r_n = f.radii[-1]
        self.gamma = f.tail_exponent

    def _crossed(self, piece, t):
        """(e^(sign m y du) - 1, part where v >= t) of sloped pieces piece at thresholds t."""
        # in place, in the order of expm1(sign m du clip((hi - t)/|dv|, 0, 1))
        grow = self.hi[piece] - t
        grow /= self.adv[piece]
        np.clip(grow, 0.0, 1.0, out=grow)
        grow *= self.sign_mdu[piece]
        np.expm1(grow, out=grow)
        part = grow * self.base[piece]
        part *= self.sign[piece]
        return grow, part

    def _closed_form(self, t, total, at_head, in_tail, t_rate=None):
        """Add head and tail to the piece sums at thresholds t, then scale them.

        at_head is where t <= v_0, and in_tail indexes the t <= v_N.
        """
        m = self.m
        total += np.where(at_head, self.head, 0.0)
        # far below the tail's anchor value the measure overflows to inf, in
        # the tail term or once scaled
        with np.errstate(over="ignore"):
            if self.v_n > 0:
                r_t = self.r_n * (self.v_n / t[in_tail]) ** (1.0 / self.gamma)
                total[in_tail] += r_t**m - self.r_n**m
                if t_rate is not None:
                    t_rate[in_tail] -= (m / self.gamma) * r_t**m
            total = self.pre * total / m
            if t_rate is not None:
                t_rate = self.pre * t_rate / m
        return total, t_rate

    def __call__(self, t: np.ndarray, slope: bool = False):
        t = np.asarray(t, dtype=float)
        # one pass that also rejects NaN, for which every comparison is False
        if not (t > 0).all():
            raise ValueError("distribution function is defined for t > 0, not NaN")
        m = self.m
        order = t.ravel().argsort(kind="stable")
        ts = t.ravel()[order]
        total = self.full_above[self.lo_sorted.searchsorted(ts, side="left")]
        t_rate = np.zeros_like(total) if slope else None
        # sloped piece j crosses the sorted thresholds first[j] .. stop[j] - 1
        first = ts.searchsorted(self.s_lo, side="right")
        stop = ts.searchsorted(self.s_hi, side="right")
        for j, at in _pair_blocks(first, stop, len(ts)):
            piece = self.sloped[j]
            grow, part = self._crossed(piece, ts[at])
            total += np.bincount(at, weights=part, minlength=len(ts))
            if slope:
                # r*^m = base e^(sign m y du); |t/dv| <= hi/ulp(hi) for a
                # crossed piece, so no overflow
                estar = self.base[piece] * (grow + 1.0)
                part = -m * estar * self.du[piece] * (ts[at] / self.adv[piece])
                t_rate += np.bincount(at, weights=part, minlength=len(ts))
        total, t_rate = self._closed_form(
            ts, total, ts <= self.v_0, (ts <= self.v_n).nonzero(), t_rate
        )
        out = np.empty_like(total)
        out[order] = total
        if not slope:
            return out.reshape(t.shape)
        out_rate = np.empty_like(total)
        out_rate[order] = t_rate
        return out.reshape(t.shape), out_rate.reshape(t.shape)

    def segments(self, lo: np.ndarray, hi: np.ndarray, x: np.ndarray):
        """(t, d(t)) at t = lo + (hi - lo) x: a row per node x in (0, 1), a column per segment.

        The segments [lo, hi] are positive, disjoint and in increasing order,
        and none holds a node value of f strictly inside. On (lo, hi] the
        full pieces, the crossed pieces, the head and the tail are then
        fixed: the full ones are one suffix per segment, and piece j crosses
        the segments with lo_j <= lo and hi <= hi_j, a contiguous run. Each
        (segment, piece) pair is read on all nodes as one dense block, and
        the blocks are summed in piece order, as the threshold query sums
        them. A node that rounds onto lo itself is read by the threshold
        query.
        """
        tt = lo + (hi - lo) * x[:, None]
        n_x, n_seg = tt.shape
        crossed = np.zeros(n_x * n_seg)
        first = lo.searchsorted(self.s_lo, side="left")
        stop = hi.searchsorted(self.s_hi, side="right")
        for j, seg in _pair_blocks(first, stop, n_seg, per_pair=n_x):
            _, part = self._crossed(self.sloped[j], tt[:, seg])
            at = (seg + n_seg * np.arange(n_x)[:, None]).ravel()
            crossed += np.bincount(at, weights=part.ravel(), minlength=n_x * n_seg)
        total = self.full_above[self.lo_sorted.searchsorted(hi, side="left")] + crossed.reshape(
            n_x, n_seg
        )
        in_tail = (slice(None), (hi <= self.v_n).nonzero()[0])
        out, _ = self._closed_form(tt, total, hi <= self.v_0, in_tail)
        # t grows with x, so only the least node of a segment can round onto lo
        if (tt[x.argmin()] <= lo).any():
            edge = tt <= lo
            out[edge] = self(tt[edge])
        return tt, out


def _profile_distribution(f: RadialProfile, t, measure: WeightedMeasure):
    """Exact measure of {f >= t} for the PL interpretation; t scalar or array."""
    out = _DistributionEngine(f, measure)(np.atleast_1d(np.asarray(t, dtype=float)))
    return out if np.ndim(t) else float(out[0])


def _tail_coeffs(f: RadialProfile, measure: WeightedMeasure) -> tuple[float, float]:
    """Coefficients of the tail part of d_f: measure = C1 t^(-m/gamma) - C2 for t <= v_N."""
    m = measure.weight_exponent
    c2 = measure.prefactor * f.radii[-1] ** m / m
    c1 = c2 * f.values[-1] ** (m / f.tail_exponent)
    return c1, c2


def _positive_levels(f: RadialProfile) -> np.ndarray:
    vals = np.unique(f.values)
    return vals[vals > 0]


# ---------------------------------------------------------------------------
# Axisymmetric fields
# ---------------------------------------------------------------------------


def default_field_grid(
    radius: float = DEFAULT_FIELD_RADIUS,
    nrho: int = 1024,
    ns: int = 1024,
) -> tuple[np.ndarray, np.ndarray]:
    """Cell-centered (rho, s) grid covering [0, radius] x [-radius, radius].

    ns must be even so that the s midpoints are symmetric about 0 without a
    node at 0 (the inversion symmetry is singular on {s = 0}).
    """
    if ns % 2:
        raise ValueError("ns must be even (no node may sit at s = 0)")
    drho = radius / nrho
    ds = 2.0 * radius / ns
    rho = (np.arange(nrho) + 0.5) * drho
    s = -radius + (np.arange(ns) + 0.5) * ds
    return rho, s


_GRID_STRETCH = 4.0


def graded_field_grid(
    radius: float = DEFAULT_FIELD_RADIUS,
    nrho: int = 1024,
    ns: int = 1024,
) -> tuple[np.ndarray, np.ndarray]:
    """Cell-centered (rho, s) grid graded toward the origin by a sinh stretch.

    The stretch sinh(4 x) / sinh(4) packs cells about seven times tighter
    near 0 than the uniform grid with the same counts, where peaked fields
    put the curvature that the rearrangement's cellwise-linear model
    resolves worst.
    """
    if ns % 2:
        raise ValueError("ns must be even (no node may sit at s = 0)")
    a = _GRID_STRETCH
    e_rho = radius * np.sinh(a * np.linspace(0.0, 1.0, nrho + 1)) / math.sinh(a)
    e_s = radius * np.sinh(a * np.linspace(0.0, 1.0, ns // 2 + 1)) / math.sinh(a)
    rho = 0.5 * (e_rho[:-1] + e_rho[1:])
    s_half = 0.5 * (e_s[:-1] + e_s[1:])
    return rho, np.concatenate([-s_half[::-1], s_half])


def _check_field_grid(rho: np.ndarray, s: np.ndarray) -> None:
    """Reject a (rho, s) node grid that no field may live on."""
    if rho.ndim != 1 or s.ndim != 1:
        raise ValueError("rho and s nodes must be 1-d arrays")
    if not (np.all(rho > 0) and np.all(np.diff(rho) > 0)):
        raise ValueError("rho nodes must be positive and strictly increasing")
    if not np.all(np.diff(s) > 0):
        raise ValueError("s nodes must be strictly increasing")
    if np.any(s == 0):
        raise ValueError("no s node may sit at 0")
    if np.max(np.abs(s + s[::-1])) > 1e-9 * np.max(np.abs(s)):
        raise ValueError("s nodes must be symmetric about 0")


def _cell_edges(x: np.ndarray, floor: float = -math.inf) -> np.ndarray:
    """Cell boundaries of a cell-centered node row: midpoints plus half cells at the ends."""
    mid = 0.5 * (x[:-1] + x[1:])
    lead = max(x[0] - (x[1] - x[0]) / 2.0, floor)
    trail = x[-1] + (x[-1] - x[-2]) / 2.0
    return np.concatenate([[lead], mid, [trail]])


@dataclass(frozen=True, eq=False)
class AxiSymField:
    """Axisymmetric function on R^d sampled on a cell-centered (rho, s) grid.

    values[i, j] is the point sample at (rho[i], s[j]); rho = |x'| with x'
    the first d-1 coordinates and s = x_d. Outside the grid box the field is
    read as decaying like R^(-tail_exponent) along rays from the boundary.
    evaluator, when present, is the exact pointwise rule (vectorized over
    numpy arrays) the values were sampled from; lp_norm integrates it, and
    rearrange reads it at the cell corners.
    """

    d: int
    rho: np.ndarray
    s: np.ndarray
    values: np.ndarray
    tail_exponent: float
    evaluator: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    warning: str | None = None

    def __post_init__(self) -> None:
        rho = np.ascontiguousarray(self.rho, dtype=float)
        s = np.ascontiguousarray(self.s, dtype=float)
        values = np.ascontiguousarray(self.values, dtype=float)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "values", values)
        if self.d < 2:
            raise ValueError("fields need ambient dimension d >= 2")
        _check_field_grid(rho, s)
        if values.shape != (len(rho), len(s)):
            raise ValueError("values must have shape (len(rho), len(s))")
        if not np.all(np.isfinite(values)) or np.any(values < 0):
            raise ValueError("field values must be finite and nonnegative")
        if not (self.tail_exponent > 0 and math.isfinite(self.tail_exponent)):
            raise ValueError(f"tail exponent must be positive, got {self.tail_exponent}")

    # Cell geometry ---------------------------------------------------------

    @property
    def rho_edges(self) -> np.ndarray:
        return _cell_edges(self.rho, 0.0)

    @property
    def s_edges(self) -> np.ndarray:
        return _cell_edges(self.s)

    def cell_measures(self) -> np.ndarray:
        """Lebesgue measure of each cell: |S^{d-2}| int rho^{d-2} drho ds."""
        re = self.rho_edges
        se = self.s_edges
        radial = (re[1:] ** (self.d - 1) - re[:-1] ** (self.d - 1)) / (self.d - 1)
        return sphere_area(self.d - 1) * radial[:, None] * np.diff(se)[None, :]

    def box_extent(self) -> tuple[float, float]:
        """(P, S): the grid box is [0, P] x [-S, S]."""
        return float(self.rho_edges[-1]), float(self.s_edges[-1])

    # Pointwise access ------------------------------------------------------

    def interpolate(self, rho_q, s_q):
        """Bilinear in (rho, s) inside the node hull, radial power decay outside."""
        rho_q = np.asarray(rho_q, dtype=float)
        s_q = np.asarray(s_q, dtype=float)
        rho_c = np.clip(rho_q, self.rho[0], self.rho[-1])
        s_c = np.clip(s_q, self.s[0], self.s[-1])
        i = np.clip(np.searchsorted(self.rho, rho_c) - 1, 0, len(self.rho) - 2)
        j = np.clip(np.searchsorted(self.s, s_c) - 1, 0, len(self.s) - 2)
        fr = (rho_c - self.rho[i]) / (self.rho[i + 1] - self.rho[i])
        fs = (s_c - self.s[j]) / (self.s[j + 1] - self.s[j])
        v = (
            self.values[i, j] * (1 - fr) * (1 - fs)
            + self.values[i + 1, j] * fr * (1 - fs)
            + self.values[i, j + 1] * (1 - fr) * fs
            + self.values[i + 1, j + 1] * fr * fs
        )
        r_q = np.hypot(rho_q, s_q)
        r_c = np.hypot(rho_c, s_c)
        outside = r_q > r_c
        if np.any(outside):
            with np.errstate(divide="ignore", invalid="ignore"):
                decay = np.where(outside, (r_c / np.where(r_q > 0, r_q, 1.0)) ** self.tail_exponent, 1.0)
            v = v * decay
        return v if v.ndim else float(v)

    def point_value(self, rho_q, s_q):
        if self.evaluator is not None:
            return self.evaluator(np.asarray(rho_q, dtype=float), np.asarray(s_q, dtype=float))
        return self.interpolate(rho_q, s_q)

    # Exterior (outside the box) machinery ----------------------------------

    def _boundary_rays(self):
        """GL24 nodes in the polar angle alpha from the +s axis, split at the corners.

        Returns (alpha weights * sin^{d-2} alpha, R_b, v_b): boundary radius
        and boundary value along each ray.
        """
        P, S = self.box_extent()
        a_c = math.atan2(P, S)
        splits = [0.0, a_c, math.pi - a_c, math.pi]
        alphas = []
        weights = []
        for lo, hi in zip(splits[:-1], splits[1:]):
            alphas.append(lo + (hi - lo) * _GL24_X)
            weights.append((hi - lo) * _GL24_W)
        alpha = np.concatenate(alphas)
        w = np.concatenate(weights)
        sin_a = np.sin(alpha)
        cos_a = np.cos(alpha)
        with np.errstate(divide="ignore"):
            r_side = np.where(sin_a > 0, P / np.maximum(sin_a, 1e-300), np.inf)
            r_cap = np.where(np.abs(cos_a) > 0, S / np.maximum(np.abs(cos_a), 1e-300), np.inf)
        r_b = np.minimum(r_side, r_cap)
        v_b = self.interpolate(r_b * sin_a, r_b * cos_a)
        return w * sin_a ** (self.d - 2), r_b, v_b

    def exterior_norm_power(self, p: float) -> float:
        """int_{outside box} f^p dx for the ray-extension tail model."""
        g = self.tail_exponent
        if g * p <= self.d:
            raise TailDivergenceError(
                f"field tail exponent {g} with p={p} diverges outside the box in R^{self.d}"
            )
        w, r_b, v_b = self._boundary_rays()
        return float(sphere_area(self.d - 1) * np.sum(w * v_b**p * r_b**self.d) / (g * p - self.d))

    def boundary_max(self) -> float:
        """Largest cell value on the outermost ring of the grid."""
        v = self.values
        return float(
            max(v[-1, :].max(), v[:, 0].max(), v[:, -1].max())
        )


def field_from_function(
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
    d: int,
    rho: np.ndarray,
    s: np.ndarray,
    tail_exponent: float,
    warning: str | None = None,
) -> AxiSymField:
    """Sample fn(rho, s) at the nodes of a field grid, keeping fn as the evaluator."""
    PP, SS = np.meshgrid(
        np.asarray(rho, dtype=float), np.asarray(s, dtype=float), indexing="ij"
    )
    values = np.asarray(fn(PP, SS), dtype=float)
    return AxiSymField(d, rho, s, values, tail_exponent, evaluator=fn, warning=warning)


def embed_radial(f: RadialProfile, rho_grid: np.ndarray, s_grid: np.ndarray) -> AxiSymField:
    """Read a radial profile as the axisymmetric field f(sqrt(rho^2 + s^2))."""

    def ev(rho_q: np.ndarray, s_q: np.ndarray) -> np.ndarray:
        return np.asarray(f.evaluate(np.hypot(rho_q, s_q)), dtype=float)

    return field_from_function(ev, f.d, rho_grid, s_grid, f.tail_exponent)


def _field_norm_power(field: AxiSymField, p: float) -> float:
    """int f^p dx: cell sums of the exact rule, or of the values without one.

    With an evaluator each cell integrates f^p rho^(d-2) by the 2x2 Gauss
    rule; the exterior tail adds its ray model.
    """
    if field.evaluator is None:
        inside = float(np.sum(field.values**p * field.cell_measures()))
    else:
        re, se = field.rho_edges, field.s_edges
        drho, ds = np.diff(re), np.diff(se)
        content = np.zeros((len(drho), len(ds)))
        for xg, wg in zip(_GL2_X, _GL2_W):
            rr = re[:-1] + drho * xg
            for yg, vg in zip(_GL2_X, _GL2_W):
                RR, SS = np.meshgrid(rr, se[:-1] + ds * yg, indexing="ij")
                fv = np.asarray(field.evaluator(RR, SS), dtype=float)
                content += wg * vg * fv**p * RR ** (field.d - 2)
        inside = sphere_area(field.d - 1) * float(drho @ content @ ds)
    return inside + field.exterior_norm_power(p)


def _tri_rho_mean(r1, r2, r3, m: int):
    """Mean of rho^m over a triangle with vertex rho-coordinates r1, r2, r3.

    Edge-midpoint quadrature, exact through m = 2 (so exact for d <= 4).
    """
    return (
        ((r1 + r2) / 2.0) ** m + ((r2 + r3) / 2.0) ** m + ((r1 + r3) / 2.0) ** m
    ) / 3.0


def _sort3(x: np.ndarray, y: np.ndarray, z: np.ndarray):
    """Elementwise (min, median, max) of three arrays."""
    lo = np.minimum(x, y)
    hi = np.maximum(x, y)
    return np.minimum(lo, z), np.maximum(lo, np.minimum(hi, z)), np.maximum(hi, z)


_N_LEVEL_EDGES = 131073
_BLOCK_CELLS = 1 << 15


def _field_level_table(
    d: int, re: np.ndarray, se: np.ndarray, corners: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """Super-level-set measures of the corner-interpolated field in R^d.

    Splits every cell of the re x se edge grid into two triangles, reads the
    field as linear on each from its corner values, and accumulates the
    piecewise-quadratic coverage functions through their curvature jumps on a
    log-spaced level grid (each triangle's measure is spread over its value
    range instead of being quantized at one value, which kills the lattice
    sawtooth of the sorted-cell staircase).

    A triangle of measure m with distinct vertex values v_1, v_2, v_3 covers
    {f > t} with a quadratic spline in t whose second derivative jumps at v_i
    by the divided difference -2 m / prod_{j != i} (v_i - v_j) (the
    Curry-Schoenberg B-spline on the knots v_i). The jumps are symmetric in
    the vertices, so those of the regular triangles are summed onto the
    corners and binned once per corner. Triangles whose value range the level
    grid does not resolve (flat), or whose middle value ties an end, are
    sorted and binned one by one. Every corner's bin position is taken once.

    Corner values must be finite and nonnegative. Returns (levels, measures,
    v_cut) with levels increasing and measures nonincreasing; measures[i] is
    the Lebesgue measure of {f > levels[i]} inside the box. v_cut is the
    largest value on the boundary ring, below which super-level sets leave
    the box; the levels start at max(1e-14 max f, 1e-2 v_cut), since the
    rearrangement reads none below v_cut.
    """
    vmax = float(corners.max())
    if not (math.isfinite(vmax) and np.all(corners >= 0.0)):
        raise ValueError("field values must be finite and nonnegative")
    if vmax <= 0.0:
        levels = np.array([0.0, 1.0])
        return levels, np.zeros(2), 0.0
    v_cut = float(max(corners[-1, :].max(), corners[:, 0].max(), corners[:, -1].max()))
    # corner values 100 decades below the peak (Gaussian tails underflow to
    # subnormals) sit far under the level-table floor but give triangle
    # spreads whose 1/s^2 curvature overflows; clamp them to exact zero
    corners = np.where(corners > vmax * 1e-100, corners, 0.0)

    lo = vmax * 1e-14 if v_cut <= 0 else max(vmax * 1e-14, v_cut * 1e-2)
    n_edges = _N_LEVEL_EDGES
    edges = np.geomspace(lo, vmax * (1.0 + 1e-12), n_edges)
    log_lo = math.log(edges[0])
    log_step = math.log(edges[-1] / edges[0]) / (n_edges - 1)
    # fractional level-grid position of every corner, computed in place: a
    # fresh corner-sized temporary costs more in page faults than its arithmetic
    pos = np.clip(corners, edges[0], edges[-1])
    np.log(pos, out=pos)
    pos -= log_lo
    pos /= log_step
    np.clip(pos, 0.0, n_edges - 1.0, out=pos)

    # triangle measures are (row factor) x (column factor)
    prefactor = sphere_area(d - 1)
    half_drho = 0.5 * np.diff(re)
    ds = np.diff(se)
    row1 = prefactor * half_drho * _tri_rho_mean(re[:-1], re[1:], re[1:], d - 2)
    row2 = prefactor * half_drho * _tri_rho_mean(re[:-1], re[:-1], re[1:], d - 2)
    # triangle 1: (lo, lo), (hi, lo), (hi, hi); triangle 2: (lo, lo), (lo, hi), (hi, hi)
    first = (slice(None, -1), slice(None, -1))
    last = (slice(1, None), slice(1, None))
    families = (
        ((slice(1, None), slice(None, -1)), row1),
        ((slice(None, -1), slice(1, None)), row2),
    )
    jumps = np.zeros_like(corners)
    # level positions and weights of the flat triangles' steps and of the tie
    # triangles' curvature and slope jumps
    steps_at: list[np.ndarray] = []
    steps_w: list[np.ndarray] = []
    curv_at: list[np.ndarray] = []
    curv_w: list[np.ndarray] = []
    slope_at: list[np.ndarray] = []
    slope_w: list[np.ndarray] = []
    # blocks of cell rows keep the per-triangle temporaries in cache
    n_rows = corners.shape[0] - 1
    block = max(1, _BLOCK_CELLS // (corners.shape[1] - 1))
    for r0 in range(0, n_rows, block):
        r1 = min(r0 + block, n_rows)
        cb, pb, jb = corners[r0 : r1 + 1], pos[r0 : r1 + 1], jumps[r0 : r1 + 1]
        for middle, row_mu in families:
            x, y, z = cb[first], cb[middle], cb[last]
            mu = row_mu[r0:r1, None] * ds[None, :]
            d_xy, d_yz, d_zx = x - y, y - z, z - x
            c = np.maximum(np.maximum(x, y), z)
            # a triangle below the level floor never reaches a tabulated level
            live = c > lo
            # the two smaller vertex gaps are b - a and c - b; when one of
            # them is unresolved by the level grid the triangle is a tie or,
            # with both, flat (see the sorted path below)
            gap = np.minimum(np.minimum(np.abs(d_xy), np.abs(d_yz)), np.abs(d_zx))
            regular = live & (gap > 4.0 * log_step * c)

            odd = live & ~regular
            if np.any(odd):
                # triangles whose value range is unresolved by the level grid
                # act as steps; a middle value tied to either end collapses
                # one quadratic piece, leaving a slope discontinuity the
                # curvature sweep must carry explicitly (the two-sided form
                # would pair enormous curvature jumps closer together than a
                # bin, and binning breaks their cancellation)
                a, b, c_o = _sort3(x[odd], y[odd], z[odd])
                p_lo, p_mid, p_hi = _sort3(pb[first][odd], pb[middle][odd], pb[last][odd])
                m_o = mu[odd]
                spread = c_o - a
                flat = spread <= 8.0 * log_step * c_o
                steps_at.append(p_mid[flat])
                steps_w.append(m_o[flat])
                # with k = 2 mu / s^2 for a tie at the low end (b ~ a) and
                # -2 mu / s^2 at the high end (b ~ c), a tie carries the
                # curvature jumps +k at a and -k at c and the slope jump -k s
                # at its tied end
                tie = ~flat
                low = (b - a <= c_o - b)[tie]
                s_t = spread[tie]
                k_t = np.where(low, 2.0, -2.0) * m_o[tie] / s_t**2
                lo_t, hi_t = p_lo[tie], p_hi[tie]
                curv_at.extend((lo_t, hi_t))
                curv_w.extend((k_t, -k_t))
                slope_at.append(np.where(low, lo_t, hi_t))
                slope_w.append(-k_t * s_t)

            # jump -2 mu / prod_{j != i} (v_i - v_j) at each vertex of a
            # regular triangle; the infinite differences zero the others
            d_xy = np.where(regular, d_xy, np.inf)
            d_yz = np.where(regular, d_yz, np.inf)
            d_zx = np.where(regular, d_zx, np.inf)
            two_mu = 2.0 * mu
            jb[first] += two_mu / (d_xy * d_zx)
            jb[middle] += two_mu / (d_xy * d_yz)
            jb[last] += two_mu / (d_zx * d_yz)

    def binned(at: np.ndarray, weights: np.ndarray) -> np.ndarray:
        # each weight is shared linearly between the two bins around its
        # level position; both arrays are overwritten in place
        i0 = at.astype(np.intp)
        np.minimum(i0, n_edges - 2, out=i0)
        at -= i0
        at *= weights
        weights -= at
        out = np.bincount(i0, weights=weights, minlength=n_edges)
        out[1:] += np.bincount(i0, weights=at, minlength=n_edges)[:-1]
        return out

    def binned_parts(at: list[np.ndarray], weights: list[np.ndarray]) -> np.ndarray:
        if not at:
            return np.zeros(n_edges)
        return binned(np.concatenate(at), np.concatenate(weights))

    curv = binned(pos.ravel(), jumps.ravel()) + binned_parts(curv_at, curv_w)
    slope = binned_parts(slope_at, slope_w)
    steps = binned_parts(steps_at, steps_w)

    # integrate downward from the top so the float residue of each triangle's
    # cancelling curvature jumps drifts into the levels below it (which the
    # inversion never reads) instead of accumulating across the whole range
    width = np.diff(edges)
    curv_above = np.cumsum(curv[::-1])[::-1]
    k_bin = -curv_above[1:]
    kw_above = np.concatenate([np.cumsum((k_bin * width)[::-1])[::-1], [0.0]])
    sigma_incl = np.cumsum(slope[::-1])[::-1]
    slope_below = -(kw_above + sigma_incl)
    seg = -slope_below[1:] * width + 0.5 * k_bin * width**2
    measures = np.concatenate([np.cumsum(seg[::-1])[::-1], [0.0]])
    step_tail = np.concatenate([np.cumsum(steps[::-1])[::-1][1:], [0.0]])
    measures = measures + step_tail
    measures = np.maximum.accumulate(measures[::-1])[::-1]
    return edges, measures, v_cut


def _rearranged_profile(field: AxiSymField, out_radii: np.ndarray) -> RadialProfile:
    """Symmetric decreasing rearrangement of a field onto a radial grid.

    Reads the field at its cell corners: exactly through the evaluator, with
    the s = 0 edge nudged slightly off the axis (the inversion closure is
    singular there and the fields of interest are even in s), or, without
    one, as the mean of the adjacent cell values, which smooths steps by one
    cell. Inverts the corner-triangulated level table (ball volume -> value)
    inside the level v_cut of the largest boundary-ring value. Below v_cut
    the super-level sets spill out of the box, so the output follows the
    field's declared power tail anchored at the cut radius.
    """
    d, re, se = field.d, field.rho_edges, field.s_edges
    if field.evaluator is not None:
        ss = se.copy()
        on_axis = np.abs(ss) < 1e-9 * ss[-1]
        if np.any(on_axis):
            ss[on_axis] = 1e-6 * np.min(np.diff(se))
        rr_g, ss_g = np.meshgrid(re, ss, indexing="ij")
        corners = np.asarray(field.evaluator(rr_g, ss_g), dtype=float)
    else:
        pad = np.pad(field.values, 1, mode="edge")
        corners = 0.25 * (pad[:-1, :-1] + pad[1:, :-1] + pad[:-1, 1:] + pad[1:, 1:])
    levels, measures, v_cut = _field_level_table(d, re, se, corners)
    tail_exponent = field.tail_exponent
    if measures[0] <= 0.0:
        return RadialProfile(d, out_radii, np.zeros_like(out_radii), tail_exponent)
    if v_cut > 0:
        m_cut = float(np.interp(v_cut, levels, measures))
    else:
        m_cut = float(measures[0])
    r_cut = (d * m_cut / sphere_area(d)) ** (1.0 / d)
    omega = sphere_area(d) / d * out_radii**d
    inside = np.interp(omega, measures[::-1], levels[::-1])
    with np.errstate(divide="ignore"):
        tail_vals = v_cut * (r_cut / out_radii) ** tail_exponent
    out_vals = np.where(out_radii <= r_cut, inside, tail_vals)
    return RadialProfile(d, out_radii, out_vals, tail_exponent)


def _require_field_measure(field: AxiSymField, measure: WeightedMeasure) -> None:
    """Reject any measure but Lebesgue measure on the field's R^d."""
    expected = lebesgue_measure(field.d)
    if (
        measure.weight_exponent != expected.weight_exponent
        or abs(measure.prefactor - expected.prefactor) > 1e-12 * expected.prefactor
    ):
        raise ValueError(
            "field functionals are defined for Lebesgue measure on R^d; "
            f"got weight exponent {measure.weight_exponent} with prefactor {measure.prefactor}"
        )


def _distribution_reading(
    f: RadialProfile | AxiSymField, measure: WeightedMeasure
) -> RadialProfile:
    """The profile a distribution functional reads: a field's rearrangement.

    Distribution functionals see only super-level-set measures, so a field is
    read as its symmetric decreasing rearrangement on a 4096-node grid;
    profiles are read as they are.
    """
    if isinstance(f, AxiSymField):
        _require_field_measure(f, measure)
        return _rearranged_profile(f, default_radial_grid(4096))
    return f


# ---------------------------------------------------------------------------
# Public functionals
# ---------------------------------------------------------------------------


def lp_norm(f: RadialProfile | AxiSymField, p: float, measure: WeightedMeasure) -> float:
    """L^p norm of a profile or field against the given measure.

    Profiles integrate their canonical interpretation piece by piece. Fields
    (Lebesgue measure only) integrate their evaluator with the 2x2 Gauss rule
    per cell, or sum value^p times cell measure without one, plus the exterior
    tail model. Raises TailDivergenceError when the declared tail makes the
    integral infinite.
    """
    _check_exponent(p)
    if isinstance(f, AxiSymField):
        _require_field_measure(f, measure)
        return _field_norm_power(f, p) ** (1.0 / p)
    return _profile_norm_power(f, p, measure) ** (1.0 / p)


def distribution_at(f: RadialProfile | AxiSymField, t, measure: WeightedMeasure):
    """Exact measure of the super-level set {f >= t}, t > 0; t scalar or array.

    A field is read through its 4096-node rearrangement.
    """
    return _profile_distribution(_distribution_reading(f, measure), t, measure)


@dataclass(frozen=True, eq=False)
class DistributionFunction:
    """Piecewise representation of t -> measure{f >= t}.

    thresholds are strictly decreasing, measures nondecreasing; between
    breakpoints use distribution_at for exact values (the profile case is
    closed form, not an interpolation of this table).
    """

    thresholds: np.ndarray
    measures: np.ndarray

    def __post_init__(self) -> None:
        t = np.ascontiguousarray(self.thresholds, dtype=float)
        m = np.ascontiguousarray(self.measures, dtype=float)
        object.__setattr__(self, "thresholds", t)
        object.__setattr__(self, "measures", m)
        if t.shape != m.shape or t.ndim != 1:
            raise ValueError("thresholds and measures must be 1-d arrays of equal length")
        if len(t) and not np.all(np.diff(t) < 0):
            raise ValueError("thresholds must be strictly decreasing")
        if len(m) and (np.any(m < 0) or np.any(np.diff(m) < -1e-12 * max(m[-1], 1.0))):
            raise ValueError("measures must be nonnegative and nondecreasing")


def distribution_function(
    f: RadialProfile | AxiSymField, measure: WeightedMeasure
) -> DistributionFunction:
    """Distribution function evaluated at the function's own level breakpoints.

    The breakpoints are the distinct positive node values of the profile, or
    of a field's 4096-node rearrangement, and the table is exact for it.
    """
    f = _distribution_reading(f, measure)
    levels = _positive_levels(f)
    if len(levels) == 0:
        return DistributionFunction(np.array([]), np.array([]))
    thresholds = levels[::-1]
    return DistributionFunction(thresholds, _profile_distribution(f, thresholds, measure))


# a bracket narrower than this, relative to t, ends the search for a maximum
# of t d(t)^(1/p); g' = 0 there, so the value is off by about its square
_SUP_XTOL = 1e-8
_SUP_ROUNDS = 100
# lower end of the segment below the least positive level, relative to it
_SUP_BOTTOM = 2.0**-40
# largest change of a piece's exponent k t between neighbouring samples
_SUP_KAPPA = 0.25


def _sup_samples(f: RadialProfile, p: float, m: int) -> np.ndarray:
    """Thresholds past which h = p d + t d' of _weak_sup may rise, sampled.

    A crossed decreasing piece adds A e^(k t) to d, k = -m du/|dv| < 0, and
    A k e^(k t) (1 + p + k t) to h', which is positive only for t > (1 + p)/|k|.
    From there (or its lower value) up to its upper value each such piece
    gets thresholds every _SUP_KAPPA/|k| in t, at most m du/_SUP_KAPPA + 1.
    """
    du, dv = np.diff(f.log_radii), np.diff(f.values)
    j = np.flatnonzero((dv < 0) & (du > 0))
    hi, span, mdu = f.values[j], -dv[j], m * du[j]
    start = np.maximum(hi - span, (1.0 + p) * span / mdu)
    rising = start < hi
    hi, span, mdu, start = hi[rising], span[rising], mdu[rising], start[rising]
    # n steps of at most _SUP_KAPPA/|k| cover (start, hi); t = start + q (hi - start)/n
    n = np.ceil((hi - start) / span * mdu / _SUP_KAPPA).astype(int)
    piece = np.repeat(np.arange(len(n)), n)
    q = np.arange(len(piece)) - np.repeat(np.cumsum(n) - n, n)
    t = start[piece] + (hi - start)[piece] * (q / n[piece])
    # start may be the piece's lower value, a level or 0, which is no sample
    return t[t > (hi - span)[piece]]


def _weak_sup(dist: Callable, f: RadialProfile, p: float, m: int, levels: np.ndarray) -> float:
    """sup_{t > 0} t d(t)^(1/p) for the engine dist of f and its positive levels.

    d is left-continuous and nonincreasing, so the sup is the value at a
    level or an interior maximum of a segment between consecutive levels,
    the segment (_SUP_BOTTOM v_1, v_1) below the least level included. On a
    segment the crossing set is fixed, so g = log t + log d / p is smooth
    and g' has the sign of h = p d + t d'. There h' = (1 + p) d' + t d''
    gets nothing from constants, a negative part from the tail (as
    p gamma > m) and from each crossed increasing piece, and a part from
    each crossed decreasing piece that is positive only where
    t > (1 + p)/|k| (see _sup_samples). Below the least such t of a segment
    h falls, so the segment's lower end and that t, its first sample,
    bracket the only maximum there. Past it the samples are at most
    _SUP_KAPPA/|k| apart for every such piece: a resolution rule, not a
    proof, that finds each maximum across which h changes sign once
    between neighbouring samples.

    One query reads d and t d' at every level (the engine gives the left
    derivative there), just above every lower level and at the samples.
    Each neighbouring pair in one segment with h > 0 below and h < 0 above
    brackets a maximum. All brackets are refined together by Illinois
    secant steps on h, with bisection when a step leaves its bracket, one
    query a round, until each is narrower than _SUP_XTOL t.
    """

    def read(t: np.ndarray) -> tuple[float, np.ndarray]:
        # max of t d^(1/p), and h. A level at a peak may round d below 0; far
        # under a tiny least level the tail's measure may overflow to inf.
        # Such a t is no candidate, and there the tail dominates d, so
        # h / d -> p - m/gamma > 0
        d, t_rate = dist(t, slope=True)
        over = d == math.inf
        d = np.where(over, 0.0, np.maximum(d, 0.0))
        return float(np.max(t * d ** (1.0 / p))), np.where(over, math.inf, p * d + t_rate)

    n = len(levels)
    inner = _sup_samples(f, p, m)
    bottom = max(levels[0] * _SUP_BOTTOM, math.ulp(0.0))
    ts = np.concatenate([[bottom], np.nextafter(levels[:-1], math.inf), levels, inner])
    seg = np.concatenate([np.arange(n), np.arange(n), levels.searchsorted(inner)])
    order = np.lexsort((ts, seg))
    ts, seg = ts[order], seg[order]
    best, h = read(ts)
    live = (seg[:-1] == seg[1:]) & (h[:-1] > 0) & (h[1:] < 0) & (ts[:-1] < ts[1:])
    a, b = ts[:-1][live], ts[1:][live]
    ha, hb = h[:-1][live], h[1:][live]
    kept = np.zeros(len(a))  # -1: a was kept last round, +1: b was
    for _ in range(_SUP_ROUNDS):
        if not len(a):
            break
        x = b - hb * (b - a) / (hb - ha)
        x = np.where((x > a) & (x < b), x, 0.5 * (a + b))
        top, hx = read(x)
        best = max(best, top)
        # the root is in [x, b] when h(x) > 0, in [a, x] otherwise; Illinois
        # halves the h of an end kept twice in a row
        up = hx > 0
        ha = np.where(~up & (kept < 0), 0.5 * ha, ha)
        hb = np.where(up & (kept > 0), 0.5 * hb, hb)
        a, ha = np.where(up, x, a), np.where(up, hx, ha)
        b, hb = np.where(up, b, x), np.where(up, hb, hx)
        kept = np.where(up, 1.0, -1.0)
        wide = (b - a > _SUP_XTOL * b) & (hx != 0)
        a, b, ha, hb, kept = a[wide], b[wide], ha[wide], hb[wide], kept[wide]
    return best


def _lorentz_profile(
    f: RadialProfile, p: float, rs: Sequence[float], measure: WeightedMeasure
) -> list[float]:
    """||f||_{p,r} of a profile for each r in rs, read from one engine and one level array."""
    m = measure.weight_exponent
    gamma = f.tail_exponent
    levels = _positive_levels(f)
    if len(levels) == 0:
        return [0.0 for _ in rs]
    if f.values[-1] > 0 and p * gamma <= m:
        raise DivergenceError(
            f"L^({p},{rs[0]}) diverges: tail exponent {gamma} gives d_f(t) ~ t^(-{m}/{gamma}) "
            f"with {m}/{gamma} >= p"
        )
    dist = _DistributionEngine(f, measure)
    return [
        _weak_sup(dist, f, p, m, levels) if r == math.inf
        else _lorentz_finite(dist, f, p, r, measure, levels)
        for r in rs
    ]


def _lorentz_finite(
    dist: _DistributionEngine,
    f: RadialProfile,
    p: float,
    r: float,
    measure: WeightedMeasure,
    levels: np.ndarray,
) -> float:
    """||f||_{p,r} for finite r, from the engine dist of f and its positive levels."""
    m = measure.weight_exponent
    gamma = f.tail_exponent
    has_tail = f.values[-1] > 0
    if has_tail:
        c1, c2 = _tail_coeffs(f, measure)
        alpha = r * (1.0 - m / (p * gamma))

    def node_terms(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        # GL24 terms of int_lo^hi (d(t)^(1/p) t)^r dt/t, one row per node;
        # d^(1/p) t stays finite where d^(r/p) alone overflows. Where d itself
        # overflows, the tail's leading term c2 (v_N/t)^(m/gamma) is all of it
        # to rounding, and d^(1/p) t is read from it in logs
        width = hi - lo
        tt, dt = dist.segments(lo, hi, _GL24_X)
        g = dt ** (1.0 / p) * tt
        over = np.isinf(dt)
        if has_tail and np.any(over):
            lt = np.log(tt[over])
            lead = math.log(c2) + (m / gamma) * (math.log(f.values[-1]) - lt)
            g[over] = np.exp(lead / p + lt)
        return _GL24_W[:, None] * g**r / tt * width

    acc = 0.0
    if len(levels) > 1:
        for row_sum in node_terms(levels[:-1], levels[1:]).sum(axis=1):
            acc += float(row_sum)
    # bottom region (0, t_min): dyadic descent, then a closed-form remainder
    # below t_hi. From a subnormal least level the descent stops at its last
    # distinct positive edge, and before a piece whose terms overflow
    edges = levels[0] * 0.5 ** np.arange(65)
    edges = np.unique(edges[edges > 0])
    pieces = node_terms(edges[:-1], edges[1:]).sum(axis=0)[::-1]
    edges = edges[::-1]
    t_hi = edges[0]
    for piece, t_lo in zip(pieces, edges[1:]):
        if not math.isfinite(piece):
            break
        acc += piece
        t_hi = t_lo
        if piece < 1e-17 * acc and acc > 0:
            break
    if has_tail:
        # d(t) = E + c1 t^(-m/gamma) below t_hi; integrate the leading term and
        # the first correction of (1 + E t^{m/gamma}/c1)^{r/p}, which is below
        # rounding where d(t_hi) overflows. c1 t^(-m/gamma) is read as the
        # engine reads it, c2 (v_N/t)^(m/gamma), finite where d(t_hi) is;
        # t^(-m/gamma) alone may overflow at a subnormal t_hi
        acc += c1 ** (r / p) * t_hi**alpha / alpha
        d_hi = float(dist(np.array([t_hi]))[0])
        if d_hi < math.inf:
            e_const = d_hi - c2 * (f.values[-1] / t_hi) ** (m / gamma)
            acc += (
                (r / p) * e_const * c1 ** (r / p - 1.0)
                * t_hi ** (alpha + m / gamma) / (alpha + m / gamma)
            )
    else:
        d_bot = float(dist(np.array([t_hi]))[0])
        acc += d_bot ** (r / p) * t_hi**r / r
    return float((p * acc) ** (1.0 / r))


def lorentz_quasinorm(
    f: RadialProfile | AxiSymField, p: float, r: float, measure: WeightedMeasure
) -> float:
    """Lorentz quasinorm ||f||_{p,r}.

    Finite r:  ( p * int_0^inf (d_f(t)^{1/p} t)^r dt/t )^{1/r};
    r = inf:   sup_{t>0} t * d_f(t)^{1/p}.

    0 < p < inf, and r is +inf or 0 < r < inf; anything else, NaN included,
    raises ValueError. The p factor is the normalization under which r = p
    reproduces the L^p norm exactly (layer cake), which the test suite checks
    to 1e-8. For an indicator of measure V this gives V^{1/p} (p/r)^{1/r} at
    finite r and V^{1/p} at r = inf. A field is read through its 4096-node
    rearrangement.

    Finite r integrates d^{r/p} t^{r-1} with GL24 on every level segment
    and a dyadic descent below the least level, one segment query of the
    engine each (see _DistributionEngine.segments).
    r = inf takes every level and every segment's interior maximum: one
    query reads d and its slope d' at both ends of every segment, and
    inside it wherever a long decreasing piece can turn t d^(1/p) back up,
    which brackets each maximum; batched secant rounds, one query each,
    refine all brackets at once to 1e-8 relative in t (see _weak_sup).
    """
    _check_exponent(p)
    if not (r == math.inf or 0 < r < math.inf):
        raise ValueError(f"secondary exponent must be +inf or positive and finite, got {r}")
    return _lorentz_profile(_distribution_reading(f, measure), p, (r,), measure)[0]


@dataclass(frozen=True)
class InterpolationReport:
    """Outcome of the weak-strong interpolation inequality check."""

    lhs: float
    rhs: float
    satisfied: bool


def interpolation_check(
    f: RadialProfile | AxiSymField, p: float, r: float, measure: WeightedMeasure
) -> InterpolationReport:
    """Check ||f||_{p,r}^r <= ||f||_{p,inf}^{r-p} * ||f||_p^p for p < r < inf.

    Exact for every measurable f (the normalizing p factor cancels), so
    failures beyond a 1e-8 relative slack indicate a quadrature bug, not a
    borderline profile. A field is rearranged once (4096 nodes) and all
    three terms, the L^p norm too, read that rearrangement. Both Lorentz
    terms read one distribution engine.
    """
    if not p < r < math.inf:
        raise ValueError(f"need p < r < inf, got r={r}, p={p}")
    _check_exponent(p)
    f = _distribution_reading(f, measure)
    lorentz, weak = _lorentz_profile(f, p, (r, math.inf), measure)
    lhs = lorentz**r
    strong = lp_norm(f, p, measure)
    rhs = float(weak ** (r - p) * strong**p)
    return InterpolationReport(lhs=lhs, rhs=rhs, satisfied=bool(lhs <= rhs * (1 + 1e-8)))


def lp_distance(
    f: RadialProfile, g: RadialProfile, p: float, measure: WeightedMeasure
) -> float:
    """||f - g||_p for two profiles, exact for the PL interpretation.

    Node sets are merged, sign changes of the difference are split into their
    own pieces (so each GL panel integrates a single-signed linear function),
    and the far tails are handled in closed form when the exponents match,
    by geometric panels otherwise. Profiles on equal radii, as along the
    flow, skip the merge: their radii, log radii and values are the merged
    grid and its values bit for bit.
    """
    _check_exponent(p)
    m = measure.weight_exponent
    if np.array_equal(f.radii, g.radii):
        r_all, u, vf, vg = f.radii, f.log_radii, f.values, g.values
    else:
        r_all = np.union1d(f.radii, g.radii)
        u = np.log(r_all)
        vf = np.asarray(f.evaluate(r_all), dtype=float)
        vg = np.asarray(g.evaluate(r_all), dtype=float)
    diff = vf - vg
    ua, ub = u[:-1], u[1:]
    va, vb = diff[:-1], diff[1:]
    cross = va * vb < 0
    if np.any(cross):
        ustar = ua[cross] + (ub - ua)[cross] * va[cross] / (va[cross] - vb[cross])
        ua = np.concatenate([ua[~cross], ua[cross], ustar])
        ub = np.concatenate([ub[~cross], ustar, ub[cross]])
        va = np.concatenate([va[~cross], va[cross], np.zeros(cross.sum())])
        vb = np.concatenate([vb[~cross], np.zeros(cross.sum()), vb[cross]])
    total = _pieces_power_sum(ua, ub, va, vb, p, m)
    total += abs(vf[0] - vg[0]) ** p * r_all[0] ** m / m
    r_max = r_all[-1]
    tf, tg = f.tail_exponent, g.tail_exponent
    af = vf[-1]
    ag = vg[-1]
    if af > 0 or ag > 0:
        if abs(tf - tg) < 1e-12 or af == 0 or ag == 0:
            gam = tf if af > 0 else tg
            if gam * p <= m:
                raise TailDivergenceError(
                    f"||f - g||_p tail diverges: exponent {gam}, p={p}, weight {m}"
                )
            total += abs(af - ag) ** p * r_max**m / (gam * p - m)
        else:
            if min(tf, tg) * p <= m:
                raise TailDivergenceError(
                    f"||f - g||_p tail diverges: exponents ({tf}, {tg}), p={p}, weight {m}"
                )
            u0 = math.log(r_max)
            for j in range(80):
                lo = u0 + j * math.log(2.0)
                hi = lo + math.log(2.0)
                uu = lo + (hi - lo) * _GL12_X
                rr = np.exp(uu)
                dd = af * (r_max / rr) ** tf - ag * (r_max / rr) ** tg
                piece = float(np.sum(_GL12_W * (hi - lo) * np.abs(dd) ** p * np.exp(m * uu)))
                total += piece
                if piece < 1e-16 * max(total, 1e-300):
                    break
    return (measure.prefactor * total) ** (1.0 / p)
