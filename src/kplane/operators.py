"""Core operators of the extremal problem.

t_transform is the radial reduction of the k-plane transform: for radial f,

    T f(r) = int_0^inf f(sqrt(s^2 + r^2)) s^{k-1} ds,

so that the full transform of f at a k-plane at distance r from the origin
equals |S^{k-1}| T f(r). s_symmetry is the inversion (u, s) ->
(u/s, 1/s) with the |s|^{-(k+1)} cocycle, an L^p isometry that fixes the
extremizer h(x) = (1 + |x|^2)^{-(k+1)/2}. rearrange is the symmetric
decreasing rearrangement of an axisymmetric field back onto a radial grid.
Together they drive the competing-symmetries iteration in kplane.flow.
"""

from __future__ import annotations

import functools
import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
from scipy import special as sf

from .errors import TailDivergenceError, UndefinedRatioError
from .params import TransformParams, radial_conversion_factor
from .profiles import (
    AxiSymField,
    RadialProfile,
    WeightedMeasure,
    _rearranged_profile,
    default_radial_grid,
    distribution_at,
    field_from_function,
    lp_norm,
    radial_measure,
)
from .quadrature import binomial, gl01, horner

__all__ = [
    "ExtremizerSpec",
    "extremizer_profile",
    "t_transform",
    "functional_ratio",
    "s_symmetry",
    "rearrange",
    "ConcentrationResult",
    "concentration_rescale",
]

_GL6_X, _GL6_W = gl01(6)


@dataclass(frozen=True)
class ExtremizerSpec:
    """Member of the extremizing family C (1 + (dilation * r)^2)^(-(k+1)/2)."""

    params: TransformParams
    amplitude: float = 1.0
    dilation: float = 1.0

    def __post_init__(self) -> None:
        if not (self.amplitude >= 0 and math.isfinite(self.amplitude)):
            raise ValueError(f"amplitude must be >= 0, got {self.amplitude}")
        if not (self.dilation > 0 and math.isfinite(self.dilation)):
            raise ValueError(f"dilation must be positive, got {self.dilation}")

    @property
    def k(self) -> int:
        return self.params.k

    @property
    def d(self) -> int:
        return self.params.d


def extremizer_profile(spec: ExtremizerSpec, radii: np.ndarray | None = None) -> RadialProfile:
    """Sample the extremizer family member onto a radial grid (tail exponent k+1)."""
    if radii is None:
        radii = default_radial_grid()
    lam_r = spec.dilation * np.asarray(radii, dtype=float)
    values = spec.amplitude * (1.0 + lam_r**2) ** (-(spec.k + 1) / 2.0)
    return RadialProfile(spec.d, radii, values, float(spec.k + 1))


# ---------------------------------------------------------------------------
# Radial transform
# ---------------------------------------------------------------------------

# In rho = sqrt(s^2 + r^2) the transform reads
#
#     T f(r) = int_r^inf f(rho) (rho^2 - r^2)^beta rho drho,   beta = (k - 2)/2.
#
# The profile is linear in u = log rho on each piece [u_j, u_{j+1}], so T f at
# radius r is a row of weights against its node values: each piece gives its
# left node a weight A_j and its right node B_j. The row at r reads only the
# nodes at or beyond r, so on f's own grid T is upper triangular.
#
# The kernel (rho^2 - r^2)^beta rho^2 is the binomial series
# sum_l C(beta, l) (-1)^l r^(2l) rho^(k-2l) in x = (r/rho)^2, and against it a
# piece's weights are closed forms (_piece_moments). For even k the series
# ends after k/2 terms, so it is exact on every piece at or beyond r. For odd
# k it converges slowly near the diagonal x = 1; it is cut where its terms
# fall below rounding and read only on pieces with x <= _X_FAR. The pieces
# nearer r, and for every k a piece that contains r, take GL6 in s (the
# integrand is analytic there, s = 0 included).
#
# On a geometric grid s = r_i sigma maps the row at r_i onto the row at r_0:
# T[i, i+d] = (r_i/r_0)^k T[0, d]. The lags d < D, whose node has a GL6 piece
# (for even k only d = 0, and no GL6), are a band: one "valid" correlation of
# f with the first D weights of the row at r_0. A node at lag d >= D has its
# whole hat where x <= _X_FAR, and its weight sum_l c_l H_l r_i^(2l) r_j^(k-2l)
# separates, so the far lags are L suffix sums of f_j r_j^(k-2l), each scaled
# by r_i^(2l). T f costs O(n (D + L)), and O(n k) with no correlation for
# even k. The powers are taken relative to a middle node; on a grid so wide
# that they could overflow, every lag is read from the band. The last node
# takes only its right-node weights, since no piece lies beyond it. The
# band, those weights, the scale and the series arrays, O(L n) numbers, are
# cached per (k, grid); the key holds the grid's bytes themselves, so two
# grids that differ anywhere never share an entry. Any other grid, and any
# explicit set of output radii, computes one row per output radius with the
# same split and the same closed forms, so both paths agree to rounding. The
# gamma-dependent tail beyond the last node is a separate closed-form
# incomplete-Beta term added per call.

_T_CACHE: OrderedDict[tuple, tuple] = OrderedDict()
_T_CACHE_MAX = 4
# A node computed from its logarithm, as np.geomspace does, is rounded by
# about eps |log r| relative; a grid whose ratios r_{j+1}/r_j agree to a few
# times that is geometric for the one-row reading.
_GEOMETRIC_ULPS = 4.0
# odd k reads the series on pieces where (r/rho)^2 <= _X_FAR: at 2048 nodes
# over [1e-4, 1e4] that is a band of D = 257 lags and 8 series terms (k = 1,
# 3). A lag costs one multiply-add per node in the correlation, a term a few
# passes of a cumulative sum, so 1e-3 to 1e-2 time alike at 2048 nodes and
# 1e-1, with 16 terms, is slower; finer grids favour a larger value.
_X_FAR = 0.01
# largest |exponent| of the scaled powers in the packed series
_EXP_MAX = 600.0
_EPS = float(np.finfo(float).eps)


@functools.lru_cache(maxsize=None)
def _series(k: int, x_max: float) -> tuple[np.ndarray, np.ndarray]:
    """(c_l, m_l): (1 - x)^beta ~ sum_l c_l x^l on [0, x_max], beta = (k-2)/2, m_l = k - 2 l.

    The series stops before the first term past l = beta whose bound on
    [0, x_max], |c_l| x_max^l, is below a quarter ulp; past beta the |c_l|
    shrink, so the remainder is below eps / (4 (1 - x_max)). For even k that
    term is the first zero one, l = k/2, and the sum is exact for x <= 1.
    The arrays are cached per (k, x_max) and read-only.
    """
    beta = (k - 2) / 2.0
    n = 16
    while True:
        c = binomial(beta, n)
        for l in range(1, n):
            if l > beta and abs(c[l]) * x_max**l <= _EPS / 4:
                c, m = c[:l], k - 2.0 * np.arange(l)
                c.flags.writeable = m.flags.writeable = False
                return c, m
        n *= 2


# Taylor coefficients 1/(n+2)! of _phi2 below |x| = 1: the first one left
# out, 1/20!, is under eps/100 of phi2 there (phi2 >= phi2(-1) = 1/e)
_PHI2_COEF = 1.0 / np.array([math.factorial(n + 2) for n in range(18)])


def _phi2(x: np.ndarray) -> np.ndarray:
    """(e^x - 1 - x)/x^2 = int_0^1 (1 - t) e^(x t) dt, by Taylor series where |x| < 1."""
    out = np.empty_like(x)
    small = np.abs(x) < 1.0
    out[small] = horner(_PHI2_COEF, x[small])
    xl = x[~small]
    out[~small] = (np.expm1(xl) - xl) / xl**2
    return out


def _piece_moments(radii: np.ndarray, k: int) -> np.ndarray:
    """Shape (L, 2, n - 1): the series' hat moments on each piece of radii.

    With x_j = (r/r_j)^2, a piece [u_j, u_{j+1}] at or beyond r gives its left
    node A_j = r_j^k sum_l M[l, 0, j] x_j^l and its right node
    B_j = r_{j+1}^k sum_l M[l, 1, j] x_{j+1}^l, since c_l times
    int (1 - t) rho^m du = w r_j^m phi2(m w) and int t rho^m du =
    w r_{j+1}^m phi2(-m w) over the piece, t = (u - u_j)/w, w = log(r_{j+1}/r_j).
    """
    c, m = _series(k, _X_FAR)
    w = np.log(radii[1:] / radii[:-1])
    return c[:, None, None] * w * _phi2(m[:, None, None] * np.array([[1.0], [-1.0]]) * w)


def _row_contributions(radii: np.ndarray, k: int, r: float, moments: np.ndarray):
    """(j_first, n_near, A, B): per-piece weights for T at radius r from piece j_first on.

    A_j is the left node's weight and B_j the right node's. The first n_near
    pieces, with (r/r_j)^2 above _X_FAR (odd k) or 1 (even k), read GL6 in s;
    for even k that is at most the piece containing r. The others read the
    series by Horner over its terms, with moments = _piece_moments(radii, k).
    """
    j_first = max(int(np.searchsorted(radii, r, side="right")) - 1, 0)
    rj = radii[j_first:]
    x = (r / rj) ** 2
    n_near = int(np.count_nonzero(x[:-1] > (1.0 if k % 2 == 0 else _X_FAR)))
    rn = rj[: n_near + 1]
    s_edges = np.sqrt(np.clip(rn**2 - r**2, 0.0, None))
    ds = s_edges[1:] - s_edges[:-1]
    s = s_edges[:-1] + ds * _GL6_X[:, None]
    frac = np.clip(np.log(np.hypot(s, r) / rn[:-1]) / np.log(rn[1:] / rn[:-1]), 0.0, 1.0)
    cw = _GL6_W[:, None] * ds * s ** (k - 1)
    # the far pieces' left and right nodes together, Horner in x_j and x_{j+1}
    xs = np.stack([x[n_near:-1], x[n_near + 1 :]])
    acc = horner(moments[:, :, j_first + n_near :], xs)
    rk = rj[n_near:] ** k
    a = np.concatenate([(cw * (1.0 - frac)).sum(axis=0), acc[0] * rk[:-1]])
    b = np.concatenate([(cw * frac).sum(axis=0), acc[1] * rk[1:]])
    return j_first, n_near, a, b


def _is_geometric(radii: np.ndarray) -> bool:
    """Whether n >= 2 and the node ratios agree to the rounding of nodes made from logs."""
    q = radii[1:] / radii[:-1]
    log_span = max(abs(math.log(radii[0])), abs(math.log(radii[-1])))
    tol = _GEOMETRIC_ULPS * np.finfo(float).eps * (1.0 + log_span)
    return len(q) > 0 and bool(np.ptp(q) <= tol * q[0])


def _kernel_row(k: int, f: RadialProfile):
    """(band, last, scale, far) of T on f's geometric grid, or None on any other grid.

    For i < n - 1, T[i, i+d] = scale_i band[d] for d < D = len(band) and
    i + d < n - 1, T[i, n-1] = scale_i last[i], and for D <= d < n - 1 - i,
    T[i, i+d] = sum_l P[l, i] W[l, i+d-D] with (P, W) = far; the last node's
    own row is 0. far is None when the band holds every lag: on grids too
    short for far lags, and on grids so wide that the powers could overflow.
    """
    key = (k, f.radii.tobytes())
    hit = _T_CACHE.get(key)
    if hit is not None:
        _T_CACHE.move_to_end(key)
        return hit
    radii = f.radii
    if not _is_geometric(radii):
        return None
    moments = _piece_moments(radii, k)
    _, n_near, a, b = _row_contributions(radii, k, float(radii[0]), moments)
    row = a.copy()
    row[1:] += b[:-1]
    n_band = n_near + 1
    far = None
    if n_band < len(row):
        c, m = _series(k, _X_FAR)
        # powers about a middle node rc: r_i^(2l) r_j^(k-2l) = rc^k (r_i/rc)^(2l) (r_j/rc)^(k-2l)
        rc = radii[len(radii) // 2]
        two_l = k - m
        span = max(abs(math.log(radii[0] / rc)), abs(math.log(radii[-1] / rc)))
        if span * max(two_l[-1], np.abs(m).max()) + k * abs(math.log(rc)) <= _EXP_MAX:
            # a far node's full hat: its left piece's right-node moment plus its
            # right piece's left-node moment
            h = (moments[:, 1, n_band - 1] + moments[:, 0, n_band]) * rc**k
            p = h[:, None] * (radii[: len(row) - n_band] / rc) ** two_l[:, None]
            far = (p, (radii[n_band:-1] / rc) ** m[:, None])
        else:
            n_band = len(row)
    entry = (row[:n_band].copy(), b[::-1].copy(), (radii[:-1] / radii[0]) ** k, far)
    _T_CACHE[key] = entry
    if len(_T_CACHE) > _T_CACHE_MAX:
        _T_CACHE.popitem(last=False)
    return entry


def _banded_lags(a: np.ndarray, band: np.ndarray) -> np.ndarray:
    """out[i] = sum_d band[d] a[i + d] over i + d < len(a): lags 0 .. len(band) - 1
    of np.correlate(a, band, "full"), by one "valid" correlation of a zero-padded a.
    """
    return np.correlate(np.concatenate([a, np.zeros(len(band) - 1)]), band, "valid")


# the odd-k tail is read by its series at y <= _TAIL_SERIES_Y: past r_max/8
# betainc costs less than the terms that the series would need there. For
# even k the series is a finite sum, exact at every y.
_TAIL_SERIES_Y = 1.0 / 64.0


def _t_tail_vector(k: int, gamma: float, radii: np.ndarray, out_r: np.ndarray) -> np.ndarray:
    """Contribution of the power tail beyond radii[-1] to T at each output radius.

    The s-integral over the tail region is r_max^gamma r^{k-gamma} times
    (1/2) B(k/2, (gamma-k)/2) I_y((gamma-k)/2, k/2) with y = (r/r_max)^2. For
    y <= 1/64 that is the incomplete-Beta series (DLMF 8.17.7, term by term)

        (r_max^k / 2) sum_n c_n y^n / ((gamma-k)/2 + n),

    c_n the binomial coefficients of (1 - y)^((k-2)/2) from _series, cut by
    its rule on [0, 1/64] (8 or 9 terms for odd k; the terms left out sum
    below about a quarter ulp of the first) and read by Horner. For even k
    the sum ends after k/2 terms and is read at every r <= r_max; for odd k
    only up to r_max/8. The other radii, among them out_radii beyond the
    grid (y clipped to 1), read the closed form by scipy's betainc.
    """
    r_max = radii[-1]
    a, b = (gamma - k) / 2.0, k / 2.0
    y = np.clip((out_r / r_max) ** 2, 0.0, 1.0)
    series = out_r <= r_max if k % 2 == 0 else y <= _TAIL_SERIES_Y
    out = np.empty_like(y)
    c, _ = _series(k, _TAIL_SERIES_Y)
    out[series] = 0.5 * r_max**k * horner(c / (a + np.arange(len(c))), y[series])
    rest = ~series
    if np.any(rest):
        half_beta = 0.5 * sf.beta(b, a)
        out[rest] = r_max**gamma * out_r[rest] ** (k - gamma) * half_beta * sf.betainc(
            a, b, y[rest]
        )
    return out


def t_transform(
    f: RadialProfile, params: TransformParams, out_radii: np.ndarray | None = None
) -> RadialProfile:
    """Radial reduction of the k-plane transform of a radial profile.

    Returns the profile of T f on f's own grid, or on out_radii when given.
    On a geometric grid T f is a short band of lags, one correlation of f
    with the cached first weights of the row at r_0, plus the far lags as
    suffix sums of the kernel's binomial series; for even k the series is
    exact at every lag and T f takes no correlation. Any other grid, and
    out_radii, take one row of weights per output radius, with the same
    weights for the same nodes. The power tail beyond the last node adds its
    incomplete-Beta term by its series (for even k at every node, for odd k
    below r_max/8) and by betainc elsewhere (see _t_tail_vector).
    Memory is O(L n) either way, for the series' L terms: k/2 for even k,
    at most 8 for odd k. The output decays like r^-(tail_exponent - k),
    which must be a positive exponent or the line integral itself diverges.
    """
    k = params.k
    gamma = f.tail_exponent
    if f.values[-1] > 0 and gamma <= k:
        raise TailDivergenceError(
            f"transform diverges: tail exponent {gamma} <= k = {k}"
        )
    kernel = _kernel_row(k, f) if out_radii is None else None
    if kernel is not None:
        band, last, scale, far = kernel
        out_r = f.radii
        v = f.values[:-1]
        # the band lags: sum_{d < D} band[d] f[i+d] over the nodes before the last
        inner = band[0] * v if len(band) == 1 else _banded_lags(v, band)
        core = scale * (inner + f.values[-1] * last)
        if far is not None:
            # the far lags: sum_l P[l, i] sum_{j >= i + D} W[l, j - D] f[j]
            p, w = far
            tails = np.cumsum((w * v[len(band) :])[:, ::-1], axis=1)[:, ::-1]
            core[: p.shape[1]] += np.einsum("li,li->i", p, tails)
        core = np.append(core, 0.0)
    else:
        out_r = f.radii if out_radii is None else np.asarray(out_radii, dtype=float)
        core = np.empty_like(out_r)
        moments = _piece_moments(f.radii, k)
        for i, r in enumerate(out_r):
            j0, _, a, b = _row_contributions(f.radii, k, float(r), moments)
            core[i] = a @ f.values[j0:-1] + b @ f.values[j0 + 1 :]
    if f.values[-1] > 0:
        core = core + f.values[-1] * _t_tail_vector(k, gamma, f.radii, out_r)
    head = out_r < f.radii[0]
    if np.any(head):
        s_head = np.sqrt(np.clip(f.radii[0] ** 2 - out_r**2, 0.0, None))
        core = core + np.where(head, f.values[0] * s_head**k / k, 0.0)
    tail_exp = gamma - k if f.values[-1] > 0 else max(gamma, k + 1.0)
    return RadialProfile(f.d, out_r, np.maximum(core, 0.0), tail_exp)


def functional_ratio(f: RadialProfile, params: TransformParams) -> float:
    """||R_k f||_q / ||f||_p computed through the radial reduction.

    Equals radial_conversion_factor(params) times the ratio of the
    one-dimensional weighted norms ||Tf||_{L^q(r^{d-k-1} dr)} over
    ||f||_{L^p(r^{d-1} dr)}. Bounded by best_constant(params), with equality
    exactly on the extremizer family.
    """
    den = lp_norm(f, params.pf, radial_measure(params.d))
    if den == 0:
        raise UndefinedRatioError("functional ratio of the zero profile")
    tf = t_transform(f, params)
    num = lp_norm(tf, params.qf, radial_measure(params.d - params.k))
    return radial_conversion_factor(params) * num / den


# ---------------------------------------------------------------------------
# Inversion symmetry and rearrangement
# ---------------------------------------------------------------------------


def s_symmetry(g: AxiSymField, params: TransformParams) -> AxiSymField:
    """Inversion symmetry S g(u, s) = |s|^{-(k+1)} g(u/s, 1/s).

    An involution and an L^p isometry at p = (d+1)/(k+1); it fixes the
    embedded extremizer. The image generically decays like R^-(k+1) along
    rays (the decay is set by g's values near the plane {s = 0}), so the
    output tail exponent is k+1. Inputs with tail exponent below k+1 give an
    image unbounded at the origin; the grid never samples s = 0 so values
    stay finite, and the returned field carries a warning string.
    """
    m = params.k + 1

    def ev(rho_q: np.ndarray, s_q: np.ndarray) -> np.ndarray:
        a = np.abs(s_q)
        return a ** (-m) * np.asarray(g.point_value(rho_q / a, 1.0 / s_q), dtype=float)

    return field_from_function(
        ev, g.d, g.rho, g.s, float(m),
        warning=_unbounded_image_warning(g.tail_exponent, m),
    )


def _unbounded_image_warning(tail_exponent: float, m: int) -> str | None:
    """The warning for an input tail below k+1 = m, whose S-image is unbounded."""
    if tail_exponent >= m:
        return None
    return (
        f"input tail exponent {tail_exponent} < k+1 = {m}: "
        "inversion image is unbounded near the origin"
    )


def rearrange(g: AxiSymField, out_radii: np.ndarray | None = None) -> RadialProfile:
    """Symmetric decreasing rearrangement of a field onto a radial grid.

    Equimeasurable with the corner-triangulated reading of g for Lebesgue
    measure on R^d: super-level-set measures are inverted through ball
    volumes down to the largest value on the grid boundary ring; below that
    level super-level sets leave the box, so the output follows g's declared
    power tail anchored at the cut radius. Only g's corner values are read
    (exact evaluator samples when g has an evaluator); its cell values are not.
    """
    if out_radii is None:
        out_radii = default_radial_grid()
    return _rearranged_profile(g, np.asarray(out_radii, dtype=float))


# ---------------------------------------------------------------------------
# Concentration rescale
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ConcentrationResult:
    """Outcome of the weak-norm concentration normalization.

    g is the rescaled profile t0 f(t0^{p/d} r) with unit L^p(r^{d-1} dr)
    norm, c the radius of the ball {g >= 1} (so mu([0, c]) = c^d / d equals
    s0^p d_f(s0) at the selected level s0 = 1/t0), and weak_norm the level-
    restricted weak quasinorm sup_j t_j d_f(t_j)^{1/p} of the normalized
    input.
    """

    t0: float
    g: RadialProfile
    c: float
    weak_norm: float


def concentration_rescale(f: RadialProfile, params: TransformParams) -> ConcentrationResult:
    """Normalize, pick the level maximizing t d_f(t)^{1/p}, and rescale.

    All measures here are mu = r^{d-1} dr (prefactor 1). The input must be
    nonincreasing; the output g then satisfies g >= 1 exactly on [0, c] with

        c = (d s0^p d_f(s0))^{1/d} > 0,

    since the chosen level is attained on the profile. The sup defining the
    weak norm is restricted to levels present in the profile's range, which
    is where it is attained for the step profiles the concentration argument
    feeds in.
    """
    d = f.d
    p = params.pf
    mu = radial_measure(d)
    if np.any(np.diff(f.values) > 1e-12 * max(float(f.values.max()), 1e-300)):
        raise ValueError("concentration rescale expects a nonincreasing profile")
    nrm = lp_norm(f, p, mu)
    if nrm == 0:
        raise UndefinedRatioError("cannot normalize the zero profile")
    f1 = f.scaled(1.0 / nrm)
    levels = np.unique(f1.values)
    levels = levels[levels > 0]
    dist = distribution_at(f1, levels, mu)
    weak_by_level = levels * dist ** (1.0 / p)
    pick = int(np.argmax(weak_by_level))
    s0 = float(levels[pick])
    t0 = 1.0 / s0
    g = RadialProfile(
        d,
        f1.radii * t0 ** (-p / d),
        t0 * f1.values,
        f1.tail_exponent,
    )
    c = (d * s0**p * float(dist[pick])) ** (1.0 / d)
    return ConcentrationResult(t0=t0, g=g, c=c, weak_norm=float(weak_by_level[pick]))
