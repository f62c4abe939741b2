"""Competing-symmetries iteration: convergence, monotonicity, diagnostics."""

import warnings

import numpy as np
import pytest

from kplane import (
    TransformParams,
    best_constant,
    competing_iterate,
    competing_step,
    ellipsoid_levelset_check,
    embed_radial,
    graded_field_grid,
    indicator_profile,
    lebesgue_measure,
    lp_distance,
    lp_norm,
    rearrange,
    s_symmetry,
    step_profile,
    vs_squared_dilation_fit,
)
from kplane.flow import _half_max_radius
from kplane.operators import ExtremizerSpec, extremizer_profile
from kplane.profiles import RadialProfile, default_radial_grid

PR13 = TransformParams(1, 3)


def normalized_indicator(pr):
    f = indicator_profile(pr.d)
    return f.scaled(1.0 / lp_norm(f, pr.pf, lebesgue_measure(pr.d)))


def oracle_gaps(f, pr, out):
    """Relative L^p gaps of the step to the field path at 512^2 and 1024^2."""
    mu = lebesgue_measure(pr.d)
    got = competing_step(f, pr, out_radii=out)
    gaps = []
    for n in (512, 1024):
        rho, s = graded_field_grid(60.0, n, n)
        ref = rearrange(s_symmetry(embed_radial(f, rho, s), pr), out_radii=out)
        assert got.tail_exponent == ref.tail_exponent
        assert np.array_equal(got.radii, ref.radii)
        gaps.append(lp_distance(got, ref, pr.pf, mu) / lp_norm(ref, pr.pf, mu))
    return gaps


@pytest.mark.parametrize("start", ("indicator", "step", "h", "iterate"))
def test_competing_step_matches_composed_operators(start):
    # the step reads V S g through the one-dimensional layer-cake identity;
    # the field path rearrange(s_symmetry(embed_radial(g))) is its oracle.
    # Readings, relative L^p gap at 512^2 / 1024^2 graded grids: h 5.60e-5 /
    # 3.12e-5, the first iterate from the indicator 7.38e-5 / 6.08e-5. The
    # field path smears jumps and closes in at first order: step profile
    # 1.24e-2 / 6.86e-3 (ratio 0.55), indicator 9.36e-3 / 4.97e-3 (0.53)
    out = default_radial_grid(1024)
    f = {
        "indicator": normalized_indicator(PR13),
        "step": step_profile(3, [0.5, 1.5, 3.0], [2.0, 1.0, 0.25]),
        "h": extremizer_profile(ExtremizerSpec(PR13)),
        "iterate": competing_step(normalized_indicator(PR13), PR13, out_radii=out),
    }[start]
    coarse, fine = oracle_gaps(f, PR13, out)
    print(f"{start}: gap {coarse:.3e} at 512^2, {fine:.3e} at 1024^2")
    if start in ("h", "iterate"):
        assert coarse < 1.5e-4 and fine < 1.5e-4
    else:
        assert coarse < 2e-2
        assert fine <= 0.6 * coarse


@pytest.mark.parametrize("start", ("h", "step"))
def test_competing_step_matches_composed_operators_even_d(start):
    # at (1, 2) W(A) = (A sqrt(A^2 - 1) + arcosh A)/2 is read in closed form
    # below A = 4 and through its A^-2 series above. Readings: h 7.29e-5 /
    # 2.38e-5, step profile 1.03e-2 / 5.83e-3 (ratio 0.56)
    pr = TransformParams(1, 2)
    f = {
        "h": extremizer_profile(ExtremizerSpec(pr)),
        "step": step_profile(2, [0.5, 1.5, 3.0], [2.0, 1.0, 0.25]),
    }[start]
    coarse, fine = oracle_gaps(f, pr, default_radial_grid(1024))
    print(f"(1, 2) {start}: gap {coarse:.3e} at 512^2, {fine:.3e} at 1024^2")
    if start == "h":
        assert coarse < 1.5e-4 and fine < 1.5e-4
    else:
        assert coarse < 2e-2
        assert fine <= 0.6 * coarse


@pytest.mark.parametrize("k, d", ((1, 2), (2, 4)))
def test_extremizer_is_fixed_point_even_d(k, d):
    pr = TransformParams(k, d)
    rep = competing_iterate(extremizer_profile(ExtremizerSpec(pr)), pr, max_iters=10)
    assert rep.converged
    assert rep.n_iters == 0
    assert rep.distances[0] == 0.0


def test_competing_step_unbounded_image():
    # tail exponent 1.8 < k + 1 = 2 at (1, 3): S g is unbounded near the
    # origin, yet 1.8 p > d keeps its super-level sets finite. For g = 1 on
    # [0, 1] and r^-1.8 beyond, phi = sigma^2 g is sigma^2, then sigma^0.2,
    # and d(t) = 4 pi int W((phi/t)^(1/2)) sigma^-2 dsigma, W(A) = (A^3 - 1)/3
    # for A > 1, is checked against quadrature split at its kinks (readings
    # agree to 4e-15)
    from scipy import integrate

    from kplane.flow import _InversionLayerCake

    g = RadialProfile(3, np.array([1.0]), np.array([1.0]), 1.8)
    layer_cake = _InversionLayerCake(g, 2)
    levels = np.array([0.3, 0.9, 1.5, 40.0])
    got, _ = layer_cake(levels)
    for t, value in zip(levels, got):

        def integrand(log_sigma):
            sigma = np.exp(log_sigma)
            phi = sigma**2 if sigma < 1.0 else sigma**0.2
            a = np.sqrt(phi / t)
            return (a**3 - 1.0) / 3.0 / sigma if a > 1.0 else 0.0

        kinks = [min(0.5 * np.log(t), 0.0), 0.0, max(5.0 * np.log(t), 0.0)]
        edges = np.unique(np.concatenate([kinks, np.arange(-40.0, 401.0, 5.0)]))
        want = 4.0 * np.pi * sum(
            integrate.quad(integrand, a, b, limit=400, epsrel=1e-13)[0]
            for a, b in zip(edges[:-1], edges[1:])
        )
        assert abs(value / want - 1.0) < 1e-12
    # the step keeps the norm up to the output grid's interpolation error
    # (reads 5.5e-5 on 1024 nodes) and returns a finite decreasing profile
    r = default_radial_grid(1024)
    f = RadialProfile(3, r, (1.0 + r**2) ** -0.9, 1.8)
    out = competing_step(f, PR13, out_radii=r)
    mu = lebesgue_measure(3)
    assert abs(lp_norm(out, 2.0, mu) / lp_norm(f, 2.0, mu) - 1.0) < 1e-4
    assert np.all(np.isfinite(out.values)) and np.all(np.diff(out.values) <= 0)


def test_unbounded_start_is_reported():
    r = default_radial_grid(512)
    f = RadialProfile(3, r, (1.0 + r**2) ** -0.9, 1.8)
    rep = competing_iterate(f, PR13, out_radii=r)
    assert rep.converged
    assert len(rep.warnings) == 1 and "unbounded near the origin" in rep.warnings[0]
    h = extremizer_profile(ExtremizerSpec(PR13), radii=r)
    assert competing_iterate(h, PR13, out_radii=r).warnings == ()


def test_half_max_radius_edge_cases():
    # never drops below half inside the grid: the tail crosses half at
    # r_N (2 v_N / peak)^(1/gamma)
    f = RadialProfile(3, np.array([1.0, 2.0]), np.array([1.0, 0.8]), 2.0)
    assert _half_max_radius(f) == pytest.approx(2.0 * 1.6**0.5, rel=1e-14)
    # below half at the first node (a ring): the first node itself
    ring = RadialProfile(3, np.array([1.0, 2.0, 3.0]), np.array([0.2, 1.0, 0.1]), 2.0)
    assert _half_max_radius(ring) == 1.0


def test_extremizer_is_fixed_point():
    h = extremizer_profile(ExtremizerSpec(PR13))
    rep = competing_iterate(h, PR13, max_iters=10)
    # the first step moves h by less than tol, is treated as a stationarity
    # probe, and is discarded: zero iterations, zero distance
    assert rep.converged
    assert rep.n_iters == 0
    assert len(rep.distances) == 1
    assert rep.distances[0] == 0.0
    assert rep.final_profile is rep.iterates_kept[-1]


def test_indicator_converges_to_extremizer():
    rep = competing_iterate(normalized_indicator(PR13), PR13)
    print(
        f"indicator run: {rep.n_iters} iterations, final distance "
        f"{rep.distances[-1]:.4e}, converged={rep.converged}"
    )
    assert rep.converged
    assert 4 <= rep.n_iters <= 20  # observed 8 at the default resolution
    assert len(rep.distances) == rep.n_iters + 1
    assert rep.distances[-1] < 1e-3
    # monotonicity along the trace, with the 1e-6 discretization slack
    assert np.max(np.diff(rep.distances)) <= 1e-6
    assert np.min(np.diff(rep.ratios)) >= -1e-6
    # the functional stays below the sharp constant throughout
    assert np.max(rep.ratios) <= best_constant(PR13) * (1 + 2e-4)
    # raw norms stay near the initial norm (operators are near-isometries)
    assert np.max(np.abs(rep.norms / rep.norms[0] - 1.0)) < 5e-3
    # each accepted step at least halves the distance on this run
    assert np.all(rep.distances[1:] / rep.distances[:-1] < 0.75)


def test_dilated_extremizer_converges():
    h3 = extremizer_profile(ExtremizerSpec(PR13, dilation=3.0))
    rep = competing_iterate(h3, PR13)
    print(f"h(3r) run: {rep.n_iters} iterations, final {rep.distances[-1]:.4e}")
    assert rep.converged
    assert rep.distances[-1] < 1e-3
    assert np.max(np.abs(rep.norms / rep.norms[0] - 1.0)) < 1e-3
    assert np.max(np.diff(rep.distances)) <= 1e-6


def test_iteration_budget_and_trace_bookkeeping():
    rep = competing_iterate(normalized_indicator(PR13), PR13, max_iters=3, tol=0.0)
    # tol = 0 disables the stationarity probe, so the budget is exhausted
    assert not rep.converged
    assert rep.n_iters == 3
    assert len(rep.distances) == len(rep.ratios) == len(rep.norms) == 4
    assert rep.iterates_kept[0].values[0] == normalized_indicator(PR13).values[0]
    assert rep.iterates_kept[-1] is rep.final_profile
    # target carries the initial norm
    mu = lebesgue_measure(3)
    assert abs(lp_norm(rep.target, 2.0, mu) / rep.norms[0] - 1.0) < 1e-9


def test_noisy_extremizer_returns():
    rng = np.random.default_rng(1)
    h = extremizer_profile(ExtremizerSpec(PR13))
    noisy = h.with_values(h.values * (1.0 + 0.01 * rng.standard_normal(len(h.values))))
    rep = competing_iterate(noisy, PR13, max_iters=50, tol=0.0)
    print(
        f"1% noise: distance {rep.distances[0]:.3e} -> {rep.distances[-1]:.3e} "
        f"after {rep.n_iters} steps"
    )
    assert rep.distances[0] > 1e-3  # the perturbation is visible
    assert rep.distances[-1] < 1e-3
    assert rep.distances[-1] < rep.distances[0] / 10.0


# ---------------------------------------------------------------------------
# Diagnostics: dilation fit of the squared step, ellipsoid level sets
# ---------------------------------------------------------------------------


def test_dilation_fit_extremizer():
    h = extremizer_profile(ExtremizerSpec(PR13))
    fit = vs_squared_dilation_fit(h, PR13)
    print(f"(VS)^2 on h: mu = {fit.mu:.6f}, residual {fit.residual:.3e}")
    assert abs(fit.mu - 1.0) < 1e-3
    assert fit.residual < 1e-3


def test_dilation_fit_cauchy_family_member():
    # f = (2 + 5 r^2)^{-1} is a non-extremizer with the right tail; the
    # squared step acts on it as a genuine dilation (observed mu ~ 0.665)
    r = default_radial_grid()
    f = RadialProfile(3, r, 1.0 / (2.0 + 5.0 * r**2), 2.0)
    fit = vs_squared_dilation_fit(f, PR13)
    print(f"(VS)^2 on (2+5r^2)^-1: mu = {fit.mu:.6f}, residual {fit.residual:.3e}")
    assert 0.6 < fit.mu < 0.7
    assert fit.residual < 1e-2


def test_dilation_fit_indicator_is_not_a_dilation():
    # far from the extremizer family the two-step map reshapes the profile,
    # so the best dilation fit leaves an O(1) residual; diagnostic only
    fit = vs_squared_dilation_fit(normalized_indicator(PR13), PR13)
    print(f"(VS)^2 on indicator: mu = {fit.mu:.6f}, residual {fit.residual:.3e}")
    assert np.isfinite(fit.mu) and np.isfinite(fit.residual)
    assert fit.residual > 0.1


def test_ellipsoid_levelsets_of_inverted_extremizer():
    rho, s = graded_field_grid(60.0, 1024, 1024)
    h = extremizer_profile(ExtremizerSpec(PR13))
    fit = ellipsoid_levelset_check(s_symmetry(embed_radial(h, rho, s), PR13))
    print(
        f"S h level sets: c = {fit.c:.8f}, s0 = {fit.s0:.2e}, "
        f"rms {fit.rms_error:.3e}, skipped {fit.n_skipped}"
    )
    assert abs(fit.c - 1.0) < 1e-3
    assert abs(fit.s0) < 1e-3
    assert fit.rms_error < 1e-3
    assert fit.n_skipped == 0
    assert len(fit.levels_used) == len(fit.per_level_c) == 9


def test_ellipsoid_levelsets_of_inverted_dilate():
    # S maps h(2r) to a field with level sets 2 rho^2 + s^2/2 = const, so the
    # shared-eccentricity fit should report c ~ 2 with tiny per-level spread
    rho, s = graded_field_grid(60.0, 1024, 1024)
    h2 = extremizer_profile(ExtremizerSpec(PR13, dilation=2.0))
    fit = ellipsoid_levelset_check(s_symmetry(embed_radial(h2, rho, s), PR13))
    spread = float(fit.per_level_c.max() - fit.per_level_c.min())
    print(f"S h(2r) level sets: c = {fit.c:.6f}, spread {spread:.3e}")
    assert abs(fit.c - 2.0) < 1e-2
    assert abs(fit.s0) < 1e-3
    assert spread < 1e-2


def test_ellipsoid_levelsets_far_from_family():
    # the inverted indicator has level sets that are nothing like ellipsoids
    # of a common eccentricity; the fit must still return finite numbers
    rho, s = graded_field_grid(60.0, 512, 512)
    ind = normalized_indicator(PR13)
    fit = ellipsoid_levelset_check(s_symmetry(embed_radial(ind, rho, s), PR13))
    print(f"S indicator level sets: c = {fit.c:.6f}, rms {fit.rms_error:.3e}")
    assert np.isfinite(fit.c) and fit.c > 0
    assert np.isfinite(fit.rms_error)


def test_ellipsoid_check_rejects_zero_field():
    from kplane import AxiSymField

    g = AxiSymField(
        3,
        np.array([0.5, 1.5]),
        np.array([-0.5, 0.5]),
        np.zeros((2, 2)),
        tail_exponent=4.0,
    )
    with pytest.raises(ValueError):
        ellipsoid_levelset_check(g)


def test_underflowing_start_runs_without_numpy_warnings():
    # exp(-r^2) underflows to 0 on the default grid, and the bracketing levels
    # far below the range overflow d(t); neither may leak a RuntimeWarning
    pr = TransformParams(1, 5)
    r = default_radial_grid(1024)
    f = RadialProfile(5, r, np.exp(-(r**2)), tail_exponent=60.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = competing_iterate(f, pr, out_radii=r)
    assert rep.converged and rep.distances[-1] < 1e-4
