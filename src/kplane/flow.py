"""Competing-symmetries iteration toward the extremizer.

One step embeds a radial profile as an axisymmetric field, applies the
inversion symmetry S, and rearranges back to a radial profile. The iteration
keeps the L^p norm (both maps are measure or norm preserving up to
discretization) and drives any admissible start toward the extremizer
C (1 + r^2)^(-(k+1)/2) with C fixed by the initial norm; the functional
ratio is nondecreasing along the way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.optimize import minimize, minimize_scalar

from .params import TransformParams
from .profiles import (
    DEFAULT_FIELD_RADIUS,
    AxiSymField,
    RadialProfile,
    _embedded,
    _field_edges,
    _rearrange_corners,
    _sample_corners,
    default_radial_grid,
    graded_field_grid,
    lebesgue_measure,
    lp_distance,
    lp_norm,
)
from .operators import (
    ExtremizerSpec,
    _inverted,
    extremizer_profile,
    functional_ratio,
)

__all__ = [
    "ConvergenceReport",
    "DilationFit",
    "EllipsoidFit",
    "competing_step",
    "competing_iterate",
    "vs_squared_dilation_fit",
    "ellipsoid_levelset_check",
]


@dataclass(frozen=True, eq=False)
class ConvergenceReport:
    """Trace of a competing-symmetries run.

    distances, ratios, and norms have one entry per recorded state, starting
    with the initial profile (index 0) and then one per iteration performed.
    distances are relative L^p distances to the matched extremizer C h.
    """

    iterates_kept: list[RadialProfile]
    distances: np.ndarray
    ratios: np.ndarray
    norms: np.ndarray
    converged: bool
    final_profile: RadialProfile
    n_iters: int
    target: RadialProfile = dc_field(repr=False, default=None)  # type: ignore[assignment]


@dataclass(frozen=True)
class DilationFit:
    """Best dilation mu matching F^2 f to mu^{d/p} f(mu r), with the residual."""

    mu: float
    residual: float


@dataclass(frozen=True, eq=False)
class EllipsoidFit:
    """Shared-eccentricity fit of field level sets.

    The model is c rho^2 + (s - s0)^2 / c = R_l^2 with one (c, s0) for all
    levels and a radius per level. rms_error is the relative radial misfit
    over all contour points; levels at or below the largest boundary-ring
    value are skipped (their super-level sets leave the grid box).
    """

    c: float
    s0: float
    rms_error: float
    levels_used: np.ndarray
    per_level_c: np.ndarray
    n_skipped: int


def competing_step(
    g: RadialProfile,
    params: TransformParams,
    rho_grid: np.ndarray,
    s_grid: np.ndarray,
    out_radii: np.ndarray | None = None,
) -> RadialProfile:
    """One iteration: embed, invert, rearrange back onto a radial grid.

    Equals rearrange(s_symmetry(embed_radial(g, rho_grid, s_grid), params))
    but builds no field: the rearrangement reads only the cell corners, so
    the composition S(embed g) is sampled there and nowhere else, and the
    corner samples go straight to the rearrangement core. The output tail
    exponent is k+1, as for s_symmetry. Without out_radii the output lands
    on g's own grid.
    """
    m = params.k + 1
    re, se = _field_edges(rho_grid, s_grid)
    corners = _sample_corners(_inverted(_embedded(g), m), re, se)
    out = g.radii if out_radii is None else np.asarray(out_radii, dtype=float)
    return _rearrange_corners(g.d, re, se, corners, float(m), out)


def competing_iterate(
    f0: RadialProfile,
    params: TransformParams,
    max_iters: int = 200,
    tol: float = 1e-4,
    field_radius: float = DEFAULT_FIELD_RADIUS,
    nrho: int = 1024,
    ns: int = 1024,
    keep_every: int = 10,
    out_radii: np.ndarray | None = None,
) -> ConvergenceReport:
    """Run the iteration from f0 until the successive change drops below tol.

    tol is measured as ||g_{n+1} - g_n||_p / ||f0||_p (full Lebesgue measure);
    the report's distances are relative to the matched extremizer C h, where
    C makes ||C h||_p = ||f0||_p. Stopping on successive change rather than
    on the distance itself keeps the criterion usable when the limit is not
    known in advance. A step that moves the state by less than tol is treated
    as a stationarity probe and discarded, so a run started from the
    extremizer reports zero iterations and zero distance. Iterates live on
    out_radii (package default grid when omitted); f0 itself may sit on any
    grid, e.g. an exact step profile.

    Both operators are exact isometries, so each iterate is rescaled to the
    initial norm; without this the rearrangement's small level-measure bias
    compounds into a pure amplitude drift over hundreds of iterations while
    the shape stays converged.
    """
    mu = lebesgue_measure(params.d)
    p = params.pf
    rho_grid, s_grid = graded_field_grid(field_radius, nrho, ns)
    if out_radii is None:
        out_radii = default_radial_grid()
    out_radii = np.asarray(out_radii, dtype=float)
    h = extremizer_profile(ExtremizerSpec(params), radii=out_radii)
    norm0 = lp_norm(f0, p, mu)
    target = h.scaled(norm0 / lp_norm(h, p, mu))

    kept = [f0]
    distances = [lp_distance(f0, target, p, mu) / norm0]
    ratios = [functional_ratio(f0, params)]
    norms = [norm0]
    g = f0
    converged = False
    n_done = 0
    for n in range(1, max_iters + 1):
        g_next = competing_step(g, params, rho_grid, s_grid, out_radii=out_radii)
        raw_norm = lp_norm(g_next, p, mu)
        g_next = g_next.scaled(norm0 / raw_norm)
        step_change = lp_distance(g_next, g, p, mu) / norm0
        if step_change < tol:
            converged = True
            break
        distances.append(lp_distance(g_next, target, p, mu) / norm0)
        ratios.append(functional_ratio(g_next, params))
        norms.append(raw_norm)
        if n % keep_every == 0:
            kept.append(g_next)
        g = g_next
        n_done = n
    if kept[-1] is not g:
        kept.append(g)
    return ConvergenceReport(
        iterates_kept=kept,
        distances=np.array(distances),
        ratios=np.array(ratios),
        norms=np.array(norms),
        converged=converged,
        final_profile=g,
        n_iters=n_done,
        target=target,
    )


def _half_max_radius(f: RadialProfile) -> float:
    """Radius where the profile first drops below half of its maximum."""
    peak = float(f.values.max())
    if peak <= 0:
        raise ValueError("profile is identically zero")
    below = np.nonzero(f.values < 0.5 * peak)[0]
    if len(below) == 0:
        return float(f.radii[-1] * (2.0 * f.values[-1] / peak) ** (1.0 / f.tail_exponent))
    j = int(below[0])
    if j == 0:
        return float(f.radii[0])
    u0, u1 = f.log_radii[j - 1], f.log_radii[j]
    v0, v1 = f.values[j - 1], f.values[j]
    frac = (0.5 * peak - v0) / (v1 - v0)
    return float(math.exp(u0 + (u1 - u0) * frac))


def vs_squared_dilation_fit(
    f: RadialProfile,
    params: TransformParams,
    field_radius: float = DEFAULT_FIELD_RADIUS,
    nrho: int = 1024,
    ns: int = 1024,
) -> DilationFit:
    """Fit F^2 f, two iteration steps, by a dilate of f.

    Seeds mu from the ratio of half-maximum radii (median level-set match),
    then minimizes the relative L^p misfit of mu^{d/p} f(mu r) against F^2 f
    over log mu. Small residuals certify the two-step map acts on the profile
    like a pure dilation, the mechanism that sends mass to the extremizer's
    scale along the flow.
    """
    mu = lebesgue_measure(params.d)
    p = params.pf
    rho_grid, s_grid = graded_field_grid(field_radius, nrho, ns)
    g2 = competing_step(
        competing_step(f, params, rho_grid, s_grid), params, rho_grid, s_grid
    )
    norm2 = lp_norm(g2, p, mu)
    mu0 = _half_max_radius(f) / _half_max_radius(g2)

    def residual(log_mu: float) -> float:
        m = math.exp(log_mu)
        cand = f.dilated(m).scaled(m ** (params.d / p))
        return lp_distance(g2, cand, p, mu) / norm2

    res = minimize_scalar(
        residual,
        bounds=(math.log(mu0) - 0.7, math.log(mu0) + 0.7),
        method="bounded",
        options={"xatol": 1e-7},
    )
    return DilationFit(mu=float(math.exp(res.x)), residual=float(res.fun))


def _contour_points(field: AxiSymField, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Crossing points of the level t by linear interpolation along grid lines."""
    v = field.values
    rho, s = field.rho, field.s
    pts_r: list[np.ndarray] = []
    pts_s: list[np.ndarray] = []
    # crossings along rho (fixed s column)
    a = v[:-1, :] - t
    b = v[1:, :] - t
    ii, jj = np.nonzero(a * b < 0)
    if len(ii):
        frac = a[ii, jj] / (a[ii, jj] - b[ii, jj])
        pts_r.append(rho[ii] + frac * (rho[ii + 1] - rho[ii]))
        pts_s.append(s[jj])
    # crossings along s (fixed rho row)
    a = v[:, :-1] - t
    b = v[:, 1:] - t
    ii, jj = np.nonzero(a * b < 0)
    if len(ii):
        frac = a[ii, jj] / (a[ii, jj] - b[ii, jj])
        pts_r.append(rho[ii])
        pts_s.append(s[jj] + frac * (s[jj + 1] - s[jj]))
    if not pts_r:
        return np.array([]), np.array([])
    return np.concatenate(pts_r), np.concatenate(pts_s)


def _fit_c_s0(
    groups: list[tuple[np.ndarray, np.ndarray]], c0: float, s00: float
) -> tuple[float, float, float]:
    """Least-squares (c, s0) shared across level groups; returns (c, s0, rms)."""

    def cost(x: np.ndarray) -> float:
        c = math.exp(x[0])
        s0 = x[1]
        total = 0.0
        count = 0
        for rr, ss in groups:
            q = np.sqrt(c * rr**2 + (ss - s0) ** 2 / c)
            r_l = q.mean()
            total += float(np.sum((q / r_l - 1.0) ** 2))
            count += len(q)
        return total / count

    res = minimize(
        cost,
        x0=np.array([math.log(c0), s00]),
        method="Nelder-Mead",
        options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 400},
    )
    c = float(math.exp(res.x[0]))
    s0 = float(res.x[1])
    return c, s0, float(math.sqrt(cost(res.x)))


def ellipsoid_levelset_check(g: AxiSymField) -> EllipsoidFit:
    """Fit the field's level sets by coaxial ellipsoids of common eccentricity.

    Levels are the fractions 1/10 .. 9/10 of the field maximum; levels not
    enclosed by the grid box are skipped. The inversion image of a dilated
    extremizer has exact ellipsoidal level sets lam rho^2 + s^2 / lam = const,
    so c estimates the dilation factor and s0 should vanish.
    """
    vmax = float(g.values.max())
    if vmax <= 0:
        raise ValueError("cannot fit level sets of the zero field")
    floor = g.boundary_max()
    levels_all = vmax * np.arange(1, 10) / 10.0
    groups: list[tuple[np.ndarray, np.ndarray]] = []
    levels_used: list[float] = []
    n_skipped = 0
    for t in levels_all:
        if t <= floor:
            n_skipped += 1
            continue
        rr, ss = _contour_points(g, float(t))
        if len(rr) < 8:
            n_skipped += 1
            continue
        groups.append((rr, ss))
        levels_used.append(float(t))
    if not groups:
        raise ValueError("no usable level sets inside the grid box")
    # moment-based seed: axis lengths from the extents of each contour
    ratios = []
    centers = []
    for rr, ss in groups:
        a = rr.max()
        b = 0.5 * (ss.max() - ss.min())
        if a > 0 and b > 0:
            ratios.append(b / a)
        centers.append(0.5 * (ss.max() + ss.min()))
    c0 = float(np.median(ratios)) if ratios else 1.0
    s00 = float(np.median(centers))
    c, s0, rms = _fit_c_s0(groups, c0, s00)
    per_level = []
    for grp in groups:
        cl, _, _ = _fit_c_s0([grp], c, s0)
        per_level.append(cl)
    return EllipsoidFit(
        c=c,
        s0=s0,
        rms_error=rms,
        levels_used=np.array(levels_used),
        per_level_c=np.array(per_level),
        n_skipped=n_skipped,
    )
