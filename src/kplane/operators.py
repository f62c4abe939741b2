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

import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
from scipy import special as sf
from scipy.linalg import blas

from .errors import TailDivergenceError, UndefinedRatioError
from .params import TransformParams, radial_conversion_factor
from .profiles import (
    AxiSymField,
    RadialProfile,
    WeightedMeasure,
    _gl01,
    _profile_distribution,
    _rearranged_profile,
    default_radial_grid,
    field_from_function,
    lp_norm,
    radial_measure,
)

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

_GL6_X, _GL6_W = _gl01(6)


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

# The integral along s decomposes over the profile's pieces. On piece
# [r_j, r_{j+1}] the profile is a hat-function combination of its endpoint
# values, so T is a matrix in those values; each entry is a GL6 integral in s
# (the integrand is analytic there, including at s = 0). Row i reads only the
# nodes j >= i, so T is upper triangular and is stored packed: its upper
# triangle in BLAS column-major order, n(n+1)/2 doubles, applied by dtpmv.
# On a geometric grid s = r_i sigma maps row i onto row 0, so
# T[i, i+d] = (r_i/r_0)^k T[0, d]: one row of GL6 weights fills every column,
# except that the last column takes only the right-node weights, as no piece
# lies beyond it. Any other grid builds the rows one by one. Matrices are
# cached per (k, grid); the gamma-dependent tail beyond the last node is a
# separate closed-form incomplete-Beta column added per call. The key holds
# the grid's bytes themselves, so two grids that differ anywhere never share
# a matrix.

_T_CACHE: OrderedDict[tuple, np.ndarray] = OrderedDict()
_T_CACHE_MAX = 4
# A node computed from its logarithm, as np.geomspace does, is rounded by
# about eps |log r| relative; a grid whose ratios r_{j+1}/r_j agree to a few
# times that is geometric for the one-row fill.
_GEOMETRIC_ULPS = 4.0


def _row_contributions(radii: np.ndarray, u: np.ndarray, k: int, r: float):
    """Per-piece weights (A_j on the left node, B_j on the right) for T at radius r."""
    j_first = max(int(np.searchsorted(radii, r, side="right")) - 1, 0)
    rj = radii[j_first:]
    uj = u[j_first:]
    s_edges = np.sqrt(np.clip(rj**2 - r**2, 0.0, None))
    s_lo, s_hi = s_edges[:-1], s_edges[1:]
    ds = s_hi - s_lo
    du = uj[1:] - uj[:-1]
    a = np.zeros_like(ds)
    b = np.zeros_like(ds)
    for xg, wg in zip(_GL6_X, _GL6_W):
        s = s_lo + ds * xg
        frac = np.clip((np.log(np.hypot(s, r)) - uj[:-1]) / du, 0.0, 1.0)
        c = wg * ds * s ** (k - 1)
        a += c * (1.0 - frac)
        b += c * frac
    return j_first, a, b


def _is_geometric(radii: np.ndarray) -> bool:
    """Whether the node ratios agree to the rounding of nodes made from logs."""
    q = radii[1:] / radii[:-1]
    log_span = max(abs(math.log(radii[0])), abs(math.log(radii[-1])))
    tol = _GEOMETRIC_ULPS * np.finfo(float).eps * (1.0 + log_span)
    return len(q) == 0 or bool(np.ptp(q) <= tol * q[0])


def _t_matrix(k: int, f: RadialProfile) -> np.ndarray:
    """T on f's grid as its packed upper triangle (column-major, for dtpmv)."""
    key = (k, f.radii.tobytes())
    hit = _T_CACHE.get(key)
    if hit is not None:
        _T_CACHE.move_to_end(key)
        return hit
    radii, u = f.radii, f.log_radii
    n = len(radii)
    # column j of the packed triangle holds rows 0..j from offset j(j+1)/2
    start = np.arange(n) * (np.arange(n) + 1) // 2
    packed = np.zeros(n * (n + 1) // 2)
    if _is_geometric(radii):
        _, a, b = _row_contributions(radii, u, k, float(radii[0]))
        row = np.append(a, 0.0)
        row[1:] += b
        scale = (radii / radii[0]) ** k
        # T[i, j] = scale_i row[j - i], read down column j as row[j::-1]
        rev = row[::-1]
        for j in range(n - 1):
            packed[start[j] : start[j] + j + 1] = scale[: j + 1] * rev[n - 1 - j :]
        packed[start[-1] : start[-1] + n - 1] = scale[:-1] * b[::-1]
    else:
        for i in range(n):
            j0, a, b = _row_contributions(radii, u, k, float(radii[i]))
            row = np.append(a, 0.0)
            row[1:] += b
            packed[start[j0:] + i] = row
    _T_CACHE[key] = packed
    if len(_T_CACHE) > _T_CACHE_MAX:
        _T_CACHE.popitem(last=False)
    return packed


def _t_tail_vector(k: int, gamma: float, radii: np.ndarray, out_r: np.ndarray) -> np.ndarray:
    """Contribution of the power tail beyond radii[-1] to T at each output radius.

    The s-integral over the tail region is r_max^gamma r^{k-gamma} times
    (1/2) B(k/2, (gamma-k)/2) I_y((gamma-k)/2, k/2) with y = (r/r_max)^2,
    using the complement-argument form of the regularized Beta so that small
    r/r_max does not cancel against 1.
    """
    r_max = radii[-1]
    y = np.clip((out_r / r_max) ** 2, 0.0, 1.0)
    half_beta = 0.5 * sf.beta(k / 2.0, (gamma - k) / 2.0)
    return r_max**gamma * out_r ** (k - gamma) * half_beta * sf.betainc(
        (gamma - k) / 2.0, k / 2.0, y
    )


def t_transform(
    f: RadialProfile, params: TransformParams, out_radii: np.ndarray | None = None
) -> RadialProfile:
    """Radial reduction of the k-plane transform of a radial profile.

    Returns the profile of T f on f's own grid (cached matrix path) or on
    out_radii (direct path, no matrix is stored; use this with dense inputs
    and a sparse set of output radii). The output decays like
    r^-(tail_exponent - k), which must be a positive exponent or the line
    integral itself diverges.
    """
    k = params.k
    gamma = f.tail_exponent
    if f.values[-1] > 0 and gamma <= k:
        raise TailDivergenceError(
            f"transform diverges: tail exponent {gamma} <= k = {k}"
        )
    if out_radii is None:
        out_r = f.radii
        core = blas.dtpmv(len(out_r), _t_matrix(k, f), f.values)
    else:
        out_r = np.asarray(out_radii, dtype=float)
        core = np.empty_like(out_r)
        for i, r in enumerate(out_r):
            j0, a, b = _row_contributions(f.radii, f.log_radii, k, float(r))
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
    dist = _profile_distribution(f1, levels, mu)
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
