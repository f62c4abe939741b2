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
extend the field radially outside the grid box. lp_norm reads a field: it
integrates the exact rule cell by cell (2x2 Gauss) plus the exterior tail by
angular quadrature. The distribution functionals read profiles only; a field
is read through its symmetric decreasing rearrangement (operators.rearrange)
on a grid the caller chooses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .errors import DivergenceError, TailDivergenceError
from .params import sphere_area
from .quadrature import (
    GL_MAX,
    LOG_EPS,
    RATE_REACH,
    ZERO_REACH,
    binomial,
    gl01,
    gl_order,
    graded_cuts,
    pair_blocks,
)

__all__ = [
    "WeightedMeasure",
    "lebesgue_measure",
    "radial_measure",
    "RadialProfile",
    "AxiSymField",
    "DistributionFunction",
    "default_radial_grid",
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


_GL24_X, _GL24_W = gl01(24)
_GL2_X, _GL2_W = gl01(2)


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


# Power sums int |v|^p e^(m u) du over pieces on which v is linear in u. A
# piece has the two scales of the order rule (quadrature.gl_order): the zero
# of v, a relative distance delta beyond the piece's nearer end, and the rate
# c = m du / 2 of e^(m u) over the half-width.
def _integer_power(q: float) -> bool:
    """Whether x^q is a polynomial that GL_MAX nodes can carry."""
    return float(q).is_integer() and q <= GL_MAX


# for n = 1 .. GL_MAX: (1 - x, x) at the n Gauss nodes x on [0, 1] as an
# (n, 2) array, and the weights; 1 - x is the mirrored node, rounded once
_GL_ENDS = tuple(
    (np.stack([x[::-1], x], axis=1), w) for x, w in map(gl01, range(1, GL_MAX + 1))
)


def _gauss_power_sum(n: int, u: np.ndarray, v: np.ndarray, p: float, m: int, width) -> float:
    """Sum over panels of width_i int_0^1 v_i(x)^p e^(m u_i(x)) dx, n nodes each.

    u and v are (2, panels) end values, both linear in x between them, with
    v >= 0, so that no node value cancels. Each node's exponent
    p log v + m u comes from two (n, 2) @ (2, panels) products and one log;
    one exp reads it, and a node with v = 0 gives 0.
    """
    ends, w = _GL_ENDS[n - 1]
    e = ends @ v
    with np.errstate(divide="ignore"):
        np.log(e, out=e)
    e *= p
    e += (m * ends) @ u
    np.exp(e, out=e)
    return float(w @ e @ width)


def _series_power_sum(u: np.ndarray, v: np.ndarray, width: np.ndarray, p: float, m: int) -> float:
    """Sum over pieces of int v^p e^(m u) du by the series in m width <= 1.

    u and v >= 0 are (2, pieces) end values with v_0 != v_1. In y in [0, 1],
    from the end of the smaller value a = min v toward the other, v = a + b y
    with b = |v_1 - v_0|, and the integral is
    width e^(m u_a) sum_k x^k/k! M_k, x = +-m width (+ when a is at the
    lower end), M_k = int_0^1 (a + b y)^p y^k dy. By parts
    M_k = ((a + b)^(p+1) - k a M_(k-1)) / (b (p + 1 + k)), which errs
    less at each step when a < b, as on every piece whose zero lies closer
    than its width. The terms fall by |x|/k at least, so the sum stops
    before the first whose bound |x|^k/k! is below 2^-56.
    """
    v0, v1 = v
    a = np.minimum(v0, v1)
    b = np.abs(v1 - v0)
    x = (m * width) * np.sign(v1 - v0)
    top = (a + b) ** (p + 1.0)
    moment = (top - a ** (p + 1.0)) / (b * (p + 1.0))
    total, power = moment, 1.0
    c, k, bound = m * float(width.max()), 0, 1.0
    while bound * c / (k + 1) > 2.0**-56:
        k += 1
        bound *= c / k
        moment = (top - k * a * moment) / (b * (p + 1.0 + k))
        power = power * x / k
        total = total + power * moment
    return float(np.dot(width, np.exp(m * np.where(v0 < v1, u[0], u[1])) * total))


def _pieces_power_sum(ua, ub, va, vb, p: float, m: int) -> float:
    """Sum over pieces of int |v|^p e^(m u) du, each at the order it needs.

    Piece i runs over u in [ua_i, ub_i], where v is linear from va_i to vb_i.
    A piece on which v changes sign is cut at its zero, placed in the piece's
    own coordinate, into two whose zero is an end. Every piece that GL_MAX
    nodes reach is then read by one rule: the fewest nodes (see
    quadrature.gl_order) for the nearest zero and the widest piece among
    them. Only non-integer p has a zero to reach: for integer p, |v|^p on a single-signed piece is a
    polynomial of degree p, which ceil(p/2) more nodes read. Of the rest, a
    piece whose zero lies within its width, over which e^(m u) moves by at
    most e, is read by its series (_series_power_sum), and a flat one in
    closed form. The others share one set of panels in their own
    coordinate, from the end nearer the zero: k equal ones, no wider than
    GL_MAX nodes reach, the first of them halved toward that end (so each
    panel's zero lies at least its width beyond it) until what is left is
    below e^-LOG_EPS of the piece. They are read in one more array, at the
    order their worst needs.
    """
    integer = _integer_power(p)
    extra = math.ceil(p / 2) if integer else 0
    widest = 2.0 * RATE_REACH[GL_MAX - 1 - extra] / m
    width = ub - ua
    if np.min(va * vb, initial=0.0) < 0:
        cross = va * vb < 0
        to_zero = va[cross] / (va[cross] - vb[cross])
        from_zero = vb[cross] / (vb[cross] - va[cross])
        uz = ua[cross] + width[cross] * to_zero
        zeros = np.zeros_like(uz)
        keep = ~cross
        ua = np.concatenate([ua[keep], ua[cross], uz])
        ub = np.concatenate([ub[keep], uz, ub[cross]])
        va = np.concatenate([va[keep], va[cross], zeros])
        vb = np.concatenate([vb[keep], zeros, vb[cross]])
        width = np.concatenate([width[keep], width[cross] * to_zero, width[cross] * from_zero])
    u = np.array([ua, ub])
    v = np.abs(np.array([va, vb]))
    if integer:
        inv = np.zeros_like(width)
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            # 1/delta: 0 on a constant piece, inf with a zero at an end, NaN on v = 0
            inv = np.abs(v[1] - v[0]) / np.minimum(v[0], v[1])
    inv_max = float(np.fmax.reduce(inv, initial=0.0))
    width_max = float(width.max(initial=0.0))
    if inv_max <= ZERO_REACH[-1] and width_max <= widest:
        return _gauss_power_sum(gl_order(inv_max, width_max * m / 2, extra), u, v, p, m, width)
    far = (inv > ZERO_REACH[-1]) | (width > widest)
    # the pieces within reach, the others at weight 0
    near = ~far
    n = gl_order(
        float(np.fmax.reduce(inv, where=near, initial=0.0)),
        float(width.max(where=near, initial=0.0)) * m / 2,
        extra,
    )
    total = _gauss_power_sum(n, u, v, p, m, np.where(near, width, 0.0))
    # a zero within its width, and no wider than 1/m
    series = far & (inv > ZERO_REACH[-1]) & (width <= 1.0 / m)
    if np.count_nonzero(series):
        total += _series_power_sum(u[:, series], v[:, series], width[series], p, m)
        far &= ~series
    flat = far & (v[0] == v[1])
    if np.count_nonzero(flat):
        power = v[0, flat] ** p * np.exp(m * u[0, flat])
        total += float(np.dot(power, np.expm1(m * width[flat]))) / m
        far &= ~flat
    if not np.count_nonzero(far):
        return total
    u, v, width, inv = u[:, far], v[:, far], width[far], inv[far]
    # s = 0 at each piece's end nearer its zero, s = 1 at the other; the
    # halvings stop once the nearest zero is a panel's width away, or once
    # what is left is below e^-LOG_EPS of the piece (over the first panel,
    # e^(m u) moves by at most e^(m widest))
    flip = v[1] < v[0]
    u0, u1 = np.where(flip, u[::-1], u)
    v0, v1 = np.where(flip, v[::-1], v)
    k = max(math.ceil(float(width.max()) / widest), 1)
    inv_max = float(np.fmax.reduce(inv, initial=0.0))
    halvings = 0
    if inv_max > ZERO_REACH[-1]:
        halvings = math.ceil(min(
            math.log2(max(inv_max / k, 1.0)),
            (LOG_EPS + m * widest) / ((p + 1.0) * math.log(2.0)) + 1.0,
        ))
    s = graded_cuts(k, halvings, 0)
    pu = np.multiply.outer(s, u1 - u0)
    pu += u0
    pv = np.multiply.outer(1.0 - s, v0)
    pv += np.multiply.outer(s, v1)
    pu = np.array([pu[:-1].ravel(), pu[1:].ravel()])
    pv = np.array([pv[:-1].ravel(), pv[1:].ravel()])
    pwidth = np.multiply.outer(np.diff(s), width).ravel()
    # after halvings a panel's zero lies at least its width away
    n = gl_order(
        1.0 if halvings else inv_max / k,
        min(float(pwidth.max()) * m / 2, RATE_REACH[GL_MAX - 1 - extra]),
        extra,
    )
    return total + _gauss_power_sum(n, pu, pv, p, m, pwidth)


def _tail_excess(gamma: float, p: float, m: int) -> float:
    """gamma p - m, by which a tail's p-th power decays faster than r^-m.

    gamma p rounds before m is taken off, so the float difference is off by
    up to gamma p / (gamma p - m) ulps; within m/16 of m, where that passes
    17, it is formed exactly and rounded once.
    """
    gp = gamma * p
    return gp - m if gp - m >= m / 16 else float(Fraction(gamma) * Fraction(p) - m)


def _unmatched_tail_power(
    af: float, tf: float, ag: float, tg: float, p: float, m: int, r_max: float
) -> float:
    """int_{r_max}^inf |af (r_max/r)^tf - ag (r_max/r)^tg|^p r^(m-1) dr for tf != tg.

    af, ag > 0 and p min(tf, tg) > m. With tf > tg after a swap, D = tf - tg
    and lam = p tg - m, the integrand in w = log(r / r_max) is

        r_max^m ag^p e^(-lam w) |expm1(-D s)|^p,  s = w - w*,

    where w* = log(af / ag) / D is the crossing r* = r_max (af/ag)^(1/D).
    Panels run from w = 0 to w_end, where e^(-D s) = 1/4 or e^(-lam w) is
    below e^(-2 LOG_EPS), whichever comes first. They are a uniform cut, of
    width h at most, that keeps the rate lam + p D within GL_MAX nodes'
    reach and each panel within 1/D of the integrand's complex zeros, 2 pi
    / D off the axis. When the crossing lies within h of [0, w_end], the
    panels are halved toward it from either side (quadrature.graded_cuts),
    as in _pieces_power_sum, and the nodes are placed by their offset s, so
    that expm1 keeps its digits next to it; otherwise they are placed by w.
    All panels are read in one array, at the order their worst needs. Past
    e^(-D s) = 1/4, (1 - e^(-D s))^p is summed by its binomial series, term
    by term in closed form.
    """
    if tf < tg:
        af, tf, ag, tg = ag, tg, af, tf
    gap, lam = tf - tg, _tail_excess(tg, p, m)
    w_star = math.log(af / ag) / gap
    quarter = math.log(4.0) / gap  # s where e^(-D s) = 1/4
    series_from = max(0.0, w_star + quarter)
    w_end = min(series_from, 2.0 * LOG_EPS / lam)
    rate = lam + p * gap
    h = min(2.0 * RATE_REACH[-1] / rate, 1.0 / gap)
    # node coordinates z = w - origin, from the crossing when it lies within
    # a panel's width of [0, w_end]
    near = -h < w_star < w_end + h
    origin = w_star if near else 0.0
    total = 0.0
    if w_end > 0.0:
        start, end = -origin, w_end - origin
        # one graded run from each side of the crossing z = 0 (held to
        # [start, end]), halved toward it when it lies near
        halvings, mid = 0, start
        if near:
            halvings = math.ceil((LOG_EPS + rate * h) / ((p + 1.0) * math.log(2.0))) + 1
            mid = min(max(0.0, start), end)
        at = np.unique(np.concatenate([
            mid + (edge - mid) * graded_cuts(math.ceil(abs(edge - mid) / h), halvings, 0)
            for edge in (start, end) if edge != mid
        ]))
        za, width = at[:-1], np.diff(at)
        x, w = gl01(gl_order(1.0, rate * float(width.max()) / 2))
        z = np.multiply.outer(x, width) + za
        with np.errstate(divide="ignore"):
            e = p * np.log(np.abs(np.expm1(-gap * (z + (origin - w_star))))) - lam * (z + origin)
        total = float(w @ np.exp(e) @ width)
    if w_end == series_from:
        binom = binomial(p, 2 * math.ceil(LOG_EPS / math.log(4.0)))
        j = np.arange(len(binom))
        s_end = quarter if w_end > 0.0 else -w_star
        total += float(np.sum(binom * np.exp(-lam * w_end - j * gap * s_end) / (lam + j * gap)))
    return r_max**m * ag**p * total


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
    contiguous run, swept by quadrature.pair_blocks, so a query of T thresholds on n
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

    crossing_rates() gives, for level segments, the largest change of a
    crossed piece's exponent across each; the Lorentz quadrature places its
    nodes by it and reads them all through one threshold query.
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
        for j, at in pair_blocks(first, stop, len(ts)):
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

    def crossing_rates(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Per segment (lo, hi], the max of m du min((hi - lo)/|dv|, 1) over the pieces crossing it.

        A crossed piece adds a multiple of e^(k t), |k| = m du/|dv|, to d,
        and this is |k| (hi - lo), capped at m du as no segment is wider than
        the value change of a piece that crosses it (the cap keeps a
        subnormal dv finite); 0 where no piece crosses. The segments are
        positive, disjoint and in increasing order, and none holds a node
        value of f strictly inside, so piece j crosses the run of segments
        with lo_j <= lo and hi <= hi_j.
        """
        out = np.zeros(len(lo))
        first = lo.searchsorted(self.s_lo, side="left")
        stop = hi.searchsorted(self.s_hi, side="right")
        for j, seg in pair_blocks(first, stop, len(lo)):
            piece = self.sloped[j]
            share = (hi[seg] - lo[seg]) / self.adv[piece]
            np.minimum(share, 1.0, out=share)
            share *= self.du[piece]
            np.maximum.at(out, seg, share)
        return self.m * out


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


_GRID_STRETCH = 4.0


def graded_field_grid(
    radius: float = DEFAULT_FIELD_RADIUS,
    nrho: int = 1024,
    ns: int = 1024,
) -> tuple[np.ndarray, np.ndarray]:
    """Cell-centered (rho, s) grid graded toward the origin by a sinh stretch.

    The stretch sinh(4 x) / sinh(4) packs cells about seven times tighter
    near 0 than a uniform grid with the same counts, where peaked fields
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


# ---------------------------------------------------------------------------
# Public functionals
# ---------------------------------------------------------------------------


def lp_norm(f: RadialProfile | AxiSymField, p: float, measure: WeightedMeasure) -> float:
    """L^p norm of a profile or field against the given measure.

    Profiles are read as lp_distance reads f - g, with g = 0
    (_difference_power): the canonical interpretation piece by piece, each
    piece by the fewest Gauss-Legendre nodes that its zero and its rate
    allow at rounding, on panels graded toward the zero where one rule of 12
    nodes falls short (see _pieces_power_sum). Fields
    (Lebesgue measure only) integrate their evaluator with the 2x2 Gauss rule
    per cell, or sum value^p times cell measure without one, plus the exterior
    tail model. Raises TailDivergenceError when the declared tail makes the
    integral infinite.
    """
    _check_exponent(p)
    if isinstance(f, AxiSymField):
        _require_field_measure(f, measure)
        return _field_norm_power(f, p) ** (1.0 / p)
    tail = (f.values[-1], f.tail_exponent)
    power = _difference_power(
        f.radii, f.log_radii, f.values, tail, (0.0, f.tail_exponent), p, measure.weight_exponent
    )
    return (measure.prefactor * power) ** (1.0 / p)


def _require_profile(f, name: str) -> None:
    """Refuse a field where a distribution functional reads a profile only."""
    if isinstance(f, AxiSymField):
        raise TypeError(
            f"{name} reads a RadialProfile, not an AxiSymField: "
            "pass rearrange(g, out_radii) on a radial grid of your choice"
        )


def distribution_at(f: RadialProfile, t, measure: WeightedMeasure):
    """Exact measure of the super-level set {f >= t}, t > 0; t scalar or array."""
    _require_profile(f, "distribution_at")
    return _profile_distribution(f, t, measure)


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


def distribution_function(f: RadialProfile, measure: WeightedMeasure) -> DistributionFunction:
    """Distribution function evaluated at the profile's own level breakpoints.

    The breakpoints are the distinct positive node values of the profile, and
    the table is exact for it.
    """
    _require_profile(f, "distribution_function")
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


def _level_read(dist: _DistributionEngine, levels: np.ndarray, inner: np.ndarray):
    """(t, d, t d') from one query of d and its slope at the levels' reading points.

    With n levels the points are _SUP_BOTTOM v_1 (index 0), just above each
    lower level (1 .. n - 1), each level (n .. 2n - 1) and then inner. The
    engine's slope at a level is the left one, so each level segment's two
    ends read the pieces that cross it.
    """
    bottom = max(levels[0] * _SUP_BOTTOM, math.ulp(0.0))
    ts = np.concatenate([[bottom], np.nextafter(levels[:-1], math.inf), levels, inner])
    d, t_rate = dist(ts, slope=True)
    return ts, d, t_rate


def _weak_sup(dist: Callable, p: float, levels: np.ndarray, read) -> float:
    """sup_{t > 0} t d(t)^(1/p) for the engine dist of f, its positive levels and their read.

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

    read (see _level_read, with the samples as inner) holds d and t d' at
    every level (the engine gives the left derivative there), just above
    every lower level and at the samples. Each neighbouring pair in one
    segment with h > 0 below and h < 0 above brackets a maximum. All
    brackets are refined together by Illinois secant steps on h, with
    bisection when a step leaves its bracket, one query a round, until each
    is narrower than _SUP_XTOL t.
    """

    def score(t: np.ndarray, d: np.ndarray, t_rate: np.ndarray) -> tuple[float, np.ndarray]:
        # max of t d^(1/p), and h. A level at a peak may round d below 0; far
        # under a tiny least level the tail's measure may overflow to inf.
        # Such a t is no candidate, and there the tail dominates d, so
        # h / d -> p - m/gamma > 0
        over = d == math.inf
        d = np.where(over, 0.0, np.maximum(d, 0.0))
        return float(np.max(t * d ** (1.0 / p))), np.where(over, math.inf, p * d + t_rate)

    n = len(levels)
    ts, d, t_rate = read
    seg = np.concatenate([np.arange(n), np.arange(n), levels.searchsorted(ts[2 * n :])])
    order = np.lexsort((ts, seg))
    ts, seg = ts[order], seg[order]
    best, h = score(ts, d[order], t_rate[order])
    live = (seg[:-1] == seg[1:]) & (h[:-1] > 0) & (h[1:] < 0) & (ts[:-1] < ts[1:])
    a, b = ts[:-1][live], ts[1:][live]
    ha, hb = h[:-1][live], h[1:][live]
    kept = np.zeros(len(a))  # -1: a was kept last round, +1: b was
    for _ in range(_SUP_ROUNDS):
        if not len(a):
            break
        x = b - hb * (b - a) / (hb - ha)
        x = np.where((x > a) & (x < b), x, 0.5 * (a + b))
        top, hx = score(x, *dist(x, slope=True))
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
    """||f||_{p,r} of a profile for each r in rs, from one engine and at most one level read."""
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
    # the sup starts from the level read, and so does the zero scale of a
    # finite r whose r/p is no integer
    read = None
    if any(r == math.inf or not _integer_power(r / p) for r in rs):
        inner = _sup_samples(f, p, m) if math.inf in rs else np.empty(0)
        read = _level_read(dist, levels, inner)
    return [
        _weak_sup(dist, p, levels, read) if r == math.inf
        else _lorentz_finite(dist, f, p, r, measure, levels, read)
        for r in rs
    ]


# for n = 1 .. GL_MAX, the n Gauss nodes and weights on [0, 1], packed one
# rule after another; the n-node rule starts at _GL_START[n]
_GL_START = np.array([n * (n - 1) // 2 for n in range(GL_MAX + 1)])
_GL_PACKED_X, _GL_PACKED_W = (
    np.concatenate([gl01(n)[i] for n in range(1, GL_MAX + 1)]) for i in (0, 1)
)


def _segment_nodes(lo, hi, inv_zero, rate, q: float):
    """(t, weights, segment) of Gauss rules for int_lo^hi F dt on every segment.

    F = d^q t^(r - 1) has three scales on a segment of width w (see
    quadrature.gl_order): the pole of t^(r - 1) and of the tail's
    t^(-m/gamma) at t = 0, a relative distance lo/w below the segment; the zero of d, whose
    1/delta the caller gives as inv_zero (0 where d^q is entire); and the
    rate of its e^(k t) terms over a half-width, given as rate. Each
    segment is read at the fewest nodes that all three allow. Segments
    that GL_MAX nodes cannot reach share one set of panels in their own
    coordinate s = (t - lo)/w: k equal ones, no wider than GL_MAX nodes
    reach in rate; the first halved toward the pole until the last half
    lies within reach of it, and the last halved toward the zero until it
    does too, or until what is left is below e^-LOG_EPS of the segment
    (F vanishes like (hi - t)^q there). Each panel is then read at its own
    order, on its own scales. The nodes come in two increasing runs: the
    segments, each far one by its first panel, then the other panels.
    """
    width = hi - lo
    seg = np.arange(len(lo))
    p_lo, p_hi, p_zero, p_rate = lo, hi, inv_zero, rate
    far = (width > ZERO_REACH[-1] * lo) | (inv_zero > ZERO_REACH[-1]) | (rate > RATE_REACH[-1])
    far = np.flatnonzero(far)
    if len(far):
        k = max(math.ceil(float(rate[far].max()) / RATE_REACH[-1]), 1)
        # log2 of w/lo in two terms: lo may be subnormal
        toward_lo = float(np.max(np.log2(width[far]) - np.log2(lo[far])))
        toward_lo = max(math.ceil(toward_lo - math.log2(k * ZERO_REACH[-1])), 0)
        beyond = float(inv_zero[far].max()) / (k * ZERO_REACH[-1])
        toward_hi = 0
        if beyond > 1.0:
            cap = math.ceil((LOG_EPS + RATE_REACH[-1]) / ((1.0 + q) * math.log(2.0))) + 1
            toward_hi = cap if beyond == math.inf else min(math.ceil(math.log2(beyond)), cap)
        cuts = graded_cuts(k, toward_lo, toward_hi)
        # a row of panels per far segment: the first keeps the segment's
        # place (it starts at lo), the others follow all segments
        f_lo, f_hi, f_w = lo[far, None], hi[far, None], width[far, None]
        a = f_lo + f_w * cuts[1:-1]
        b = np.concatenate([a, f_hi], axis=1)
        a = np.concatenate([f_lo, a], axis=1)
        # the zero lies w/inv_zero beyond hi
        with np.errstate(divide="ignore", invalid="ignore"):
            zero = (b - a) / ((f_hi - b) + f_w / inv_zero[far, None])
        panel_rate = rate[far, None] * ((b - a) / f_w)
        p_lo, p_hi, p_zero, p_rate = (
            np.concatenate([whole, part[:, 1:].ravel()])
            for whole, part in ((lo, a), (hi, b), (inv_zero, zero), (rate, panel_rate))
        )
        p_hi[far], p_zero[far], p_rate[far] = b[:, 0], zero[:, 0], panel_rate[:, 0]
        seg = np.concatenate([seg, np.repeat(far, len(cuts) - 2)])
    p_w = p_hi - p_lo
    n = gl_order(np.fmax(p_w / p_lo, p_zero), p_rate)
    at = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n - _GL_START[n], n)
    width_at = np.repeat(p_w, n)
    t = np.repeat(p_lo, n) + width_at * _GL_PACKED_X[at]
    return t, width_at * _GL_PACKED_W[at], np.repeat(seg, n)


def _lorentz_nodes(
    dist: _DistributionEngine, f: RadialProfile, q: float, levels: np.ndarray, read
):
    """(edges, t, weights, segment): Gauss nodes of int d^q t^(r - 1) dt, segment by segment.

    The segments are the dyadic descent's, below the least level v_1, when
    some node value is 0 (edges holds its up to 65 edges, v_1 last; else
    edges is [v_1]), then the level segments; segment indexes count in that order.
    Their rules come from _segment_nodes. rate is q times the crossed
    pieces' largest exponent change across the segment (crossing_rates),
    halved, with q raised to 1 when it is no integer. For an integer q, d^q
    is entire and there is no zero; otherwise read (_level_read) gives d
    and t d' at both ends. On a segment every term of d falls with t, and
    each crossed piece's slope changes by at most e^(k |t - t'|) between t'
    and t, k the largest exponent rate. So d keeps d(hi) - S_hi expm1(k x)/k
    at x beyond hi, and within |z| < d(t)/(S_lo e^(k w)) of the segment it
    has no complex zero, S = |d'| at the ends; inv_zero takes the nearer of
    the two. The tail's slope, in S too, only makes it nearer.
    """
    integer = _integer_power(q)
    n_levels = len(levels)
    lo, hi = levels[:-1], levels[1:]
    descent = not (f.values > 0).all()
    if descent:
        # from a subnormal least level the descent stops at its last distinct
        # positive edge
        edges = levels[0] * 0.5 ** np.arange(65)
        edges = np.unique(edges[edges > 0])
        lo, hi = np.concatenate([edges[:-1], lo]), np.concatenate([edges[1:], hi])
    else:
        edges = levels[:1]
    n_desc = len(edges) - 1
    k_w = dist.crossing_rates(lo, hi)
    rate = 0.5 * (q if integer else max(q, 1.0)) * k_w
    inv_zero = np.zeros(len(lo))
    if not integer:
        ts, d, t_rate = read
        # a zero at 1/delta = (w/d(hi)) max(S_lo e^(k w), S_hi y/log1p(y)),
        # y = k d(hi)/S_hi, with S = |d'| at the segment's ends; 0 where d
        # overflows (the tail's power law, which has none) or is constant
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            s_lo = -t_rate[1:n_levels] / ts[1:n_levels]
            s_hi = -t_rate[n_levels + 1 : 2 * n_levels] / levels[1:]
            d_top = d[n_levels + 1 : 2 * n_levels]
            if descent:
                # d >= d(v_1) below v_1, and its slope is at most that at v_1
                # times e^(k v_1), k v_1 twice the top descent segment's change
                grow = math.exp(2.0 * k_w[n_desc - 1]) if n_desc else 1.0
                at_v1 = -t_rate[n_levels] / levels[0] * grow
                s_lo = np.concatenate([np.full(n_desc, at_v1), s_lo])
                s_hi = np.concatenate([np.full(n_desc, at_v1), s_hi])
                d_top = np.concatenate([np.full(n_desc, d[n_levels]), d_top])
            d_top = np.maximum(d_top, 0.0)
            y = k_w * d_top / ((hi - lo) * s_hi)
            real = s_hi * np.where(y > 0, y / np.log1p(y), 1.0)
            inv_zero = (hi - lo) * np.fmax(s_lo * np.exp(k_w), real) / d_top
        inv_zero[~(inv_zero >= 0) | (d_top == math.inf)] = 0.0
    return (edges,) + _segment_nodes(lo, hi, inv_zero, rate, q)


def _lorentz_finite(
    dist: _DistributionEngine,
    f: RadialProfile,
    p: float,
    r: float,
    measure: WeightedMeasure,
    levels: np.ndarray,
    read,
) -> float:
    """||f||_{p,r} for finite r, from the engine dist of f, its positive levels and their read.

    p int_0^inf d^(r/p) t^(r - 1) dt is read segment by segment: on each
    level segment (lo, hi] the crossing set is fixed, and its Gauss rule
    comes from _lorentz_nodes. Below the least level v_1, when every node
    value is positive, f >= t on the whole ball of radius r_t where the
    tail reaches t, so d = c1 t^(-m/gamma) there and the rest is closed
    form. Otherwise a dyadic descent of 64 segments, read by the same rule,
    runs until a segment adds less than 1e-17 of the total, and the closed
    form takes over below it. All nodes, and the descent's edges, are read
    by one threshold query.
    """
    m = measure.weight_exponent
    gamma = f.tail_exponent
    v_n = f.values[-1]
    q = r / p
    edges, t, weight, seg = _lorentz_nodes(dist, f, q, levels, read)
    n_desc = len(edges) - 1
    d_all = dist(np.concatenate([t, edges]))
    # next to a peak d may round below 0
    d_t, d_edges = np.maximum(d_all[: len(t)], 0.0), d_all[len(t) :]
    has_tail = v_n > 0
    if has_tail:
        c1, c2 = _tail_coeffs(f, measure)
        # r (1 - m/(p gamma)), which cancels as the tail nears divergence
        alpha = r * _tail_excess(gamma, p, m) / (p * gamma)
    # d^(1/p) t stays finite where d^(r/p) alone overflows. Where d itself
    # overflows, the tail's leading term c2 (v_N/t)^(m/gamma) is all of it to
    # rounding, and d^(1/p) t is read from it in logs
    g = d_t ** (1.0 / p) * t
    over = np.isinf(d_t)
    if has_tail and np.any(over):
        lt = np.log(t[over])
        lead = math.log(c2) + (m / gamma) * (math.log(v_n) - lt)
        g[over] = np.exp(lead / p + lt)
    terms = weight * g**r / t
    pieces = np.bincount(seg, weights=terms, minlength=n_desc + len(levels) - 1)
    acc = float(pieces[n_desc:].sum())
    t_hi, d_hi = edges[-1], d_edges[-1]
    if n_desc:
        # the descent from the top, stopped before a segment whose terms
        # overflow
        for i in range(n_desc - 1, -1, -1):
            if not math.isfinite(pieces[i]):
                break
            acc += pieces[i]
            t_hi, d_hi = edges[i], d_edges[i]
            if pieces[i] < 1e-17 * acc and acc > 0:
                break
    if has_tail:
        # d(t) = E + c1 t^(-m/gamma) below t_hi; integrate the leading term and
        # the first correction of (1 + E t^{m/gamma}/c1)^{r/p}, which is below
        # rounding where d(t_hi) overflows. c1 t^(-m/gamma) is read as the
        # engine reads it, c2 (v_N/t)^(m/gamma), finite where d(t_hi) is;
        # t^(-m/gamma) alone may overflow at a subnormal t_hi
        acc += c1 ** q * t_hi**alpha / alpha
        if d_hi < math.inf:
            e_const = d_hi - c2 * (v_n / t_hi) ** (m / gamma)
            beta = alpha + m / gamma
            acc += q * e_const * c1 ** (q - 1.0) * t_hi**beta / beta
    else:
        acc += d_hi**q * t_hi**r / r
    return float((p * acc) ** (1.0 / r))


def lorentz_quasinorm(
    f: RadialProfile, p: float, r: float, measure: WeightedMeasure
) -> float:
    """Lorentz quasinorm ||f||_{p,r}.

    Finite r:  ( p * int_0^inf (d_f(t)^{1/p} t)^r dt/t )^{1/r};
    r = inf:   sup_{t>0} t * d_f(t)^{1/p}.

    0 < p < inf, and r is +inf or 0 < r < inf; anything else, NaN included,
    raises ValueError. The p factor is the normalization under which r = p
    reproduces the L^p norm exactly (layer cake), which the test suite checks
    to 1e-12 on profiles whose values span many decades. For an indicator
    of measure V this gives V^{1/p} (p/r)^{1/r} at finite r and V^{1/p} at
    r = inf.

    Finite r integrates d^{r/p} t^{r-1} over each level segment at the
    fewest Gauss-Legendre nodes its pole at t = 0, the zero of d beyond it
    and its crossed pieces' rates allow, on graded panels where 12 nodes
    fall short, and reads all nodes by one threshold query. Below the least
    level it takes the tail's power law in closed form where every node
    value is positive, and a dyadic descent on the same read where one is 0
    (see _lorentz_finite).
    r = inf takes every level and every segment's interior maximum: one
    query reads d and its slope d' at both ends of every segment, and
    inside it wherever a long decreasing piece can turn t d^(1/p) back up,
    which brackets each maximum; batched secant rounds, one query each,
    refine all brackets at once to 1e-8 relative in t (see _weak_sup).
    """
    _require_profile(f, "lorentz_quasinorm")
    _check_exponent(p)
    if not (r == math.inf or 0 < r < math.inf):
        raise ValueError(f"secondary exponent must be +inf or positive and finite, got {r}")
    return _lorentz_profile(f, p, (r,), measure)[0]


@dataclass(frozen=True)
class InterpolationReport:
    """Outcome of the weak-strong interpolation inequality check."""

    lhs: float
    rhs: float
    satisfied: bool


def interpolation_check(
    f: RadialProfile, p: float, r: float, measure: WeightedMeasure
) -> InterpolationReport:
    """Check ||f||_{p,r}^r <= ||f||_{p,inf}^{r-p} * ||f||_p^p for p < r < inf.

    Exact for every measurable f (the normalizing p factor cancels), so
    failures beyond a 1e-8 relative slack indicate a quadrature bug, not a
    borderline profile. Both Lorentz terms read one distribution engine.
    """
    _require_profile(f, "interpolation_check")
    if not p < r < math.inf:
        raise ValueError(f"need p < r < inf, got r={r}, p={p}")
    _check_exponent(p)
    lorentz, weak = _lorentz_profile(f, p, (r, math.inf), measure)
    lhs = lorentz**r
    strong = lp_norm(f, p, measure)
    rhs = float(weak ** (r - p) * strong**p)
    return InterpolationReport(lhs=lhs, rhs=rhs, satisfied=bool(lhs <= rhs * (1 + 1e-8)))


def lp_distance(
    f: RadialProfile, g: RadialProfile, p: float, measure: WeightedMeasure
) -> float:
    """||f - g||_p for two profiles.

    Exact for the canonical reading when both profiles share their radii,
    as along the flow: those radii, log radii and values are read as they
    are. Profiles on different radii are read on the union of their nodes,
    each through its own evaluate; the profile whose grid ends first is
    then read as linear in log r between the other's nodes beyond its last
    one, not as its power tail (see _difference_power for the rest).
    """
    _check_exponent(p)
    if np.array_equal(f.radii, g.radii):
        r_all, u, vf, vg = f.radii, f.log_radii, f.values, g.values
    else:
        r_all = np.union1d(f.radii, g.radii)
        u = np.log(r_all)
        vf = np.asarray(f.evaluate(r_all), dtype=float)
        vg = np.asarray(g.evaluate(r_all), dtype=float)
    power = _difference_power(
        r_all, u, vf - vg, (vf[-1], f.tail_exponent), (vg[-1], g.tail_exponent),
        p, measure.weight_exponent,
    )
    return (measure.prefactor * power) ** (1.0 / p)


def _difference_power(r, u, diff, f_tail, g_tail, p: float, m: int) -> float:
    """int |f - g|^p r^(m-1) dr for two readings on the radii r, log radii u.

    diff = f - g at r, and f_tail, g_tail are each profile's (value at r[-1],
    tail exponent); lp_norm reads f with g = 0. The pieces of the difference
    are read by _pieces_power_sum, which cuts each at its sign change, and
    the constant head is closed form. So are the far tails when the
    exponents match; otherwise _unmatched_tail_power splits them where the
    two power laws cross.
    """
    total = _pieces_power_sum(u[:-1], u[1:], diff[:-1], diff[1:], p, m)
    total += abs(diff[0]) ** p * r[0] ** m / m
    (af, tf), (ag, tg) = f_tail, g_tail
    if af > 0 or ag > 0:
        if abs(tf - tg) < 1e-12 or af == 0 or ag == 0:
            gam = tf if af > 0 else tg
            if gam * p <= m:
                raise TailDivergenceError(
                    f"the L^p tail diverges: exponent {gam}, p={p}, weight exponent {m}"
                )
            total += abs(af - ag) ** p * r[-1] ** m / _tail_excess(gam, p, m)
        else:
            if min(tf, tg) * p <= m:
                raise TailDivergenceError(
                    f"the L^p tail diverges: exponents ({tf}, {tg}), p={p}, weight exponent {m}"
                )
            total += _unmatched_tail_power(af, tf, ag, tg, p, m, r[-1])
    return total
