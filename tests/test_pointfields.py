"""Closed-form point functions: values, norms, line geometry, samplers."""

import math

import numpy as np
import pytest
from scipy import integrate, special

from kplane import (
    BallIndicator,
    CauchyPowerField,
    GaussianBump,
    TailDivergenceError,
    TransformParams,
    sphere_area,
)

RNG = np.random.default_rng


def random_spd(rng, n, scale=1.0):
    m = rng.standard_normal((n, n))
    return scale * (m @ m.T + n * np.eye(n))


# ---------------------------------------------------------------------------
# CauchyPowerField
# ---------------------------------------------------------------------------


def test_cauchy_extremizer_values():
    f = CauchyPowerField.extremizer(TransformParams(1, 3))
    assert f.d == 3 and f.k == 1
    assert f.tail_exponent == 2.0
    assert np.allclose(f.center, 0.0)
    assert f.value(np.zeros(3)) == 1.0
    x = np.array([1.0, 0.0, 0.0])
    assert abs(f.value(x) - 0.5) < 1e-15
    # vectorized evaluation
    xs = np.array([[0.0, 0.0, 0.0], [0.0, 3.0, 4.0]])
    vals = f.value(xs)
    assert vals.shape == (2,)
    assert abs(vals[1] - 1.0 / 26.0) < 1e-15


def test_cauchy_value_hand_arithmetic():
    P = np.array([[2.0, 0.0, 0.3], [0.0, 1.0, -0.1], [0.3, -0.1, 1.5]])
    f = CauchyPowerField(1, P, amplitude=2.0)
    x = np.array([1.0, 2.0])
    # z = [1, 2, 1]: q = 2 + 4 + 1.5 + 2*0.3 - 2*2*0.1 = 7.7
    assert abs(f.value(x) - 2.0 * 7.7**-1.0) < 1e-14


def test_cauchy_validation():
    eye4 = np.eye(4)
    with pytest.raises(ValueError):
        CauchyPowerField(0, eye4)
    with pytest.raises(ValueError):
        CauchyPowerField(1, np.eye(2))  # d >= 2 needs size >= 3
    bad = np.eye(4)
    bad[0, 1] = 0.5  # not symmetric
    with pytest.raises(ValueError):
        CauchyPowerField(1, bad)
    with pytest.raises(ValueError):
        CauchyPowerField(1, -np.eye(4))  # not positive definite
    with pytest.raises(ValueError):
        CauchyPowerField(1, eye4, amplitude=-1.0)


def test_cauchy_center_is_argmax():
    rng = RNG(5)
    P = random_spd(rng, 4, 0.5)
    f = CauchyPowerField(2, P)
    c = f.center
    vc = f.value(c)
    for _ in range(20):
        assert vc >= f.value(c + 0.1 * rng.standard_normal(3))


def test_cauchy_lp_power_norm_against_quadrature_2d():
    rng = RNG(9)
    P = random_spd(rng, 3, 0.7)
    f = CauchyPowerField(1, P, amplitude=1.3)
    p = 1.5  # (k+1) p = 3 > d = 2

    def integrand(u, v):
        x = np.array([math.tan(u), math.tan(v)])
        jac = (1.0 + x[0] ** 2) * (1.0 + x[1] ** 2)
        return float(f.value(x)) ** p * jac

    num, err = integrate.dblquad(
        integrand, -math.pi / 2, math.pi / 2, -math.pi / 2, math.pi / 2,
        epsabs=1e-11, epsrel=1e-11,
    )
    closed = f.lp_power_norm(p)
    print(f"2d Cauchy ||f||_p^p: closed {closed:.10f} vs quad {num:.10f} (+-{err:.1e})")
    assert abs(closed / num - 1.0) < 1e-8


def test_cauchy_lp_power_norm_whitened_radial_3d():
    # independent reduction: solve for the center and Schur complement with
    # plain linalg, whiten, and do the radial integral with adaptive quad
    rng = RNG(21)
    P = random_spd(rng, 4, 0.4)
    k, p = 2, 4.0 / 3.0
    f = CauchyPowerField(k, P, amplitude=0.8)
    d = 3
    m = (k + 1) * p
    A = P[:d, :d]
    u = P[:d, d]
    center = -np.linalg.solve(A, u)
    c_star = float(P[d, d] + u @ center)
    radial, _ = integrate.quad(
        lambda r: r ** (d - 1) * (r * r + c_star) ** (-m / 2.0), 0, np.inf
    )
    expect = 0.8**p * np.linalg.det(A) ** -0.5 * sphere_area(d) * radial
    assert abs(f.lp_power_norm(p) / expect - 1.0) < 1e-9


def test_cauchy_lp_power_norm_divergence():
    f = CauchyPowerField.extremizer(TransformParams(1, 3))
    with pytest.raises(TailDivergenceError):
        f.lp_power_norm(1.5)  # (k+1) p = 3 <= d = 3


def test_cauchy_s_transform_point_identity():
    rng = RNG(2)
    P = random_spd(rng, 4, 0.6)
    f = CauchyPowerField(1, P, amplitude=1.7)
    sf = f.s_transform()
    for _ in range(50):
        x = rng.standard_normal(3)
        if abs(x[-1]) < 1e-3:
            continue
        phi = np.concatenate([x[:-1] / x[-1], [1.0 / x[-1]]])
        expect = abs(x[-1]) ** -2.0 * f.value(phi)
        assert abs(sf.value(x) / expect - 1.0) < 1e-12


def test_cauchy_s_transform_involution():
    rng = RNG(3)
    P = random_spd(rng, 5, 0.3)
    f = CauchyPowerField(2, P)
    ff = f.s_transform().s_transform()
    assert np.array_equal(ff.matrix, f.matrix)
    assert ff.amplitude == f.amplitude


def test_cauchy_compose_affine_and_dilated():
    rng = RNG(4)
    f = CauchyPowerField(1, random_spd(rng, 4, 0.5))
    M = rng.standard_normal((3, 3)) + 2.0 * np.eye(3)
    b = rng.standard_normal(3)
    g = f.compose_affine(M, b)
    for _ in range(20):
        x = rng.standard_normal(3)
        assert abs(g.value(x) / f.value(M @ x + b) - 1.0) < 1e-12
    gd = f.dilated(2.5)
    x = np.array([0.3, -0.4, 0.9])
    assert abs(gd.value(x) / f.value(2.5 * x) - 1.0) < 1e-13


def test_cauchy_line_integral_against_quad():
    rng = RNG(6)
    f = CauchyPowerField(1, random_spd(rng, 4, 0.8), amplitude=1.1)
    p0 = np.array([0.5, -0.2, 0.1])
    e = np.array([1.0, 0.4, -0.3])
    num, err = integrate.quad(
        lambda lam: float(f.value(p0 + lam * e)), -np.inf, np.inf, limit=200
    )
    got = float(f.line_integral(p0, e))
    assert abs(got / num - 1.0) < 1e-8
    # line integrals scale like 1/|stretch| in the parametrization
    got2 = float(f.line_integral(p0, 2.0 * e))
    assert abs(got2 / (got / 2.0) - 1.0) < 1e-12


def test_cauchy_line_focus_minimizes_quadratic():
    rng = RNG(7)
    f = CauchyPowerField(2, random_spd(rng, 4))
    p0 = np.array([1.0, 0.0, -0.5])
    e = np.array([0.2, 1.0, 0.3])
    lam, width = f.line_focus(p0, e)
    assert width > 0
    v0 = f.value(p0 + lam * e)
    assert v0 >= f.value(p0 + (lam + 0.05) * e)
    assert v0 >= f.value(p0 + (lam - 0.05) * e)


def test_line_integral_far_from_center():
    # the line through p0 = 1e9 n + w along n, with n = (3/5, 4/5, 0) and w
    # orthogonal to n, passes the center at distance |w|: the quadratic along
    # it is a (lambda - 1/2)^2 + 1 + |w|^2. Every coordinate is exact in binary,
    # and c - b^2/(4a) would cancel 1e18-sized terms down to noise.
    w = np.array([0.5, -0.375, 0.25])
    p0 = np.array([600_000_000.0, 800_000_000.0, 0.0]) + w
    e = np.array([-1.2e9, -1.6e9, 0.0])
    for k in (1, 2):
        f = CauchyPowerField.extremizer(TransformParams(k, 3))
        want = special.beta(0.5, k / 2.0) / 2e9 * (1.0 + w @ w) ** (-k / 2.0)
        assert abs(float(f.line_integral(p0, e)) / want - 1.0) < 1e-6
        lam, width = f.line_focus(p0, e)
        assert abs(lam - 0.5) < 1e-12
        assert abs(width / (math.sqrt(1.0 + w @ w) / 2e9) - 1.0) < 1e-6
    # batched over lines, a far line keeps its own finite value
    both = f.line_integral(np.stack([p0, w]), np.stack([e, e]))
    assert np.all(np.isfinite(both)) and abs(both[0] / both[1] - 1.0) < 1e-6
    # the Gaussian's quadratic has the same minimum along that line
    g = GaussianBump(np.zeros(3), np.eye(3))
    want = math.exp(-0.5 * (w @ w)) * math.sqrt(2.0 * math.pi) / 2e9
    assert abs(float(g.line_integral(p0, e)) / want - 1.0) < 1e-6


def test_plane_integral_far_from_center():
    # at (k, d) = (2, 3) the plane through (6e8, 8e8, 0.25) spanned by e1, e2
    # passes the center at distance 1/4, so the integral is 2 pi / sqrt(1.0625);
    # c - beta . G^-1 beta cancels 1e18-sized terms there (it read inf)
    f = CauchyPowerField.extremizer(TransformParams(2, 3))
    p0 = np.array([600_000_000.0, 800_000_000.0, 0.25])
    e1, e2 = np.eye(3)[0], np.eye(3)[1]
    want = 2.0 * math.pi / math.sqrt(1.0625)
    assert abs(float(f.plane_integral(p0, e1, e2)) / want - 1.0) < 1e-12
    # batched over planes, the far plane keeps its own value
    both = f.plane_integral(np.stack([p0, np.array([0.0, 0.0, 0.25])]), e1, e2)
    assert np.all(np.isfinite(both)) and abs(both[0] / both[1] - 1.0) < 1e-12


def test_drury_on_cauchy_extremizer_far_samples_stay_finite():
    # at (1, 3) the extremizer's f^p is a Cauchy law, and this seed draws a
    # point at |x| = 5.3e8; such points' line integrals used to cancel to
    # NaN. The estimate must be finite and pass the benchmark's drury-mc check
    from kplane import drury_norm_mc

    pr = TransformParams(1, 3)
    est = drury_norm_mc(CauchyPowerField.extremizer(pr), pr, n_samples=100_000, seed=53)
    ref = math.pi**5
    assert math.isfinite(est.value) and math.isfinite(est.std_error)
    assert abs(est.value - ref) <= max(4.0 * est.std_error, 0.15 * ref)


def test_cauchy_plane_integral_against_quad():
    rng = RNG(8)
    f = CauchyPowerField(2, random_spd(rng, 4, 0.6), amplitude=0.9)
    p0 = np.array([0.2, 0.5, -0.1])
    e1 = np.array([1.0, 0.0, 0.2])
    e2 = np.array([0.1, 1.0, -0.3])

    def integrand(u, v):
        lam1, lam2 = math.tan(u), math.tan(v)
        jac = (1.0 + lam1**2) * (1.0 + lam2**2)
        return float(f.value(p0 + lam1 * e1 + lam2 * e2)) * jac

    num, err = integrate.dblquad(
        integrand, -math.pi / 2, math.pi / 2, -math.pi / 2, math.pi / 2,
        epsabs=1e-11, epsrel=1e-11,
    )
    got = float(f.plane_integral(p0, e1, e2))
    print(f"plane integral: closed {got:.10f} vs quad {num:.10f}")
    assert abs(got / num - 1.0) < 1e-8
    with pytest.raises(ValueError):
        CauchyPowerField(1, np.eye(4)).plane_integral(p0, e1, e2)


def test_cauchy_sample_p_moments():
    # k = 3, p = 2, d = 2: nu = 6, so mean and covariance both exist;
    # cov = c_min A^{-1} / (nu - 2)
    rng = RNG(10)
    P = random_spd(rng, 3, 0.5)
    f = CauchyPowerField(3, P)
    n = 200_000
    draws = f.sample_p(RNG(11), n, 2.0)
    assert draws.shape == (n, 2)
    A = P[:2, :2]
    center = f.center
    c_min = float(P[2, 2] - P[:2, 2] @ np.linalg.solve(A, P[:2, 2]))
    cov_expect = c_min * np.linalg.inv(A) / 4.0
    mean_err = np.max(np.abs(draws.mean(axis=0) - center))
    cov_err = np.max(np.abs(np.cov(draws.T) - cov_expect))
    print(f"student-t sampler: mean err {mean_err:.4f}, cov err {cov_err:.4f}")
    assert mean_err < 0.02
    assert cov_err < 0.05 * np.max(np.abs(cov_expect))
    # same seed reproduces the draws bit for bit
    again = f.sample_p(RNG(11), n, 2.0)
    assert np.array_equal(draws, again)


def test_cauchy_sample_p_cauchy_case_median():
    # the exponent pairing (k+1) p = d + 1 gives nu = 1: no mean, but the
    # marginal medians still sit at the center
    f = CauchyPowerField.extremizer(TransformParams(1, 2))
    g = f.compose_affine(np.eye(2), np.array([-0.7, 0.4]))  # center at (0.7, -0.4)
    draws = g.sample_p(RNG(12), 40_000, 1.5)
    med = np.median(draws, axis=0)
    assert np.max(np.abs(med - g.center)) < 0.02
    with pytest.raises(TailDivergenceError):
        f.sample_p(RNG(0), 10, 1.0)  # nu = 2 - 2 = 0


@pytest.mark.parametrize(
    "d, radial_cdf",
    [
        (2, lambda r: -np.expm1(-0.5 * np.log1p(r * r))),
        (3, lambda r: (2.0 / math.pi) * (np.arctan(r) - r / (1.0 + r * r))),
    ],
)
def test_cauchy_sample_p_pairing_case_radial_law(d, radial_cdf):
    # at (1, d) the extremizer's f^p is (1 + |x|^2)^(-(d+1)/2), nu = 1, so |x|
    # has the closed-form laws 1 - (1 + R^2)^(-1/2) in d = 2 and
    # (2/pi)(arctan R - R/(1 + R^2)) in d = 3; a mix of |z| in place of z^2
    # fails this test
    from scipy import stats

    pr = TransformParams(1, d)
    draws = CauchyPowerField.extremizer(pr).sample_p(RNG(21), 400_000, pr.pf)
    result = stats.kstest(np.linalg.norm(draws, axis=1), radial_cdf)
    print(f"d = {d}: KS statistic {result.statistic:.2e}, p = {result.pvalue:.3f}")
    assert result.pvalue > 0.01


# ---------------------------------------------------------------------------
# GaussianBump
# ---------------------------------------------------------------------------


def test_gaussian_value_and_validation():
    H = np.array([[2.0, 0.5], [0.5, 1.0]])
    f = GaussianBump(np.array([1.0, -1.0]), H, amplitude=3.0)
    assert f.d == 2
    assert f.tail_exponent == math.inf
    assert f.value(np.array([1.0, -1.0])) == 3.0
    # hand value at offset (1, 0): exp(-0.5 * 2) = e^-1
    assert abs(f.value(np.array([2.0, -1.0])) - 3.0 * math.exp(-1.0)) < 1e-14
    with pytest.raises(ValueError):
        GaussianBump(np.array([0.0, 0.0]), np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(ValueError):
        GaussianBump(np.array([0.0]), np.eye(2))


def test_gaussian_lp_power_norm_against_quadrature():
    H = np.array([[1.2, 0.3], [0.3, 0.9]])
    f = GaussianBump(np.array([0.4, -0.7]), H, amplitude=1.5)
    p = 1.7

    def integrand(u, v):
        x = np.array([math.tan(u), math.tan(v)])
        jac = (1.0 + x[0] ** 2) * (1.0 + x[1] ** 2)
        return float(f.value(x)) ** p * jac

    num, _ = integrate.dblquad(
        integrand, -math.pi / 2, math.pi / 2, -math.pi / 2, math.pi / 2,
        epsabs=1e-12, epsrel=1e-12,
    )
    assert abs(f.lp_power_norm(p) / num - 1.0) < 1e-9


def test_gaussian_line_integral_and_focus():
    H = np.array([[1.0, 0.2], [0.2, 2.0]])
    f = GaussianBump(np.array([0.5, 0.5]), H)
    p0 = np.array([-1.0, 0.0])
    e = np.array([0.8, 0.6])
    num, _ = integrate.quad(lambda lam: float(f.value(p0 + lam * e)), -np.inf, np.inf)
    assert abs(float(f.line_integral(p0, e)) / num - 1.0) < 1e-10
    lam, width = f.line_focus(p0, e)
    v0 = f.value(p0 + lam * e)
    assert v0 >= f.value(p0 + (lam + 0.1) * e)
    assert v0 >= f.value(p0 + (lam - 0.1) * e)


def test_gaussian_sampler_moments():
    H = np.array([[1.5, -0.4], [-0.4, 0.8]])
    f = GaussianBump(np.array([2.0, -1.0]), H)
    p = 1.3
    draws = f.sample_p(RNG(14), 150_000, p)
    cov_expect = np.linalg.inv(p * H)
    assert np.max(np.abs(draws.mean(axis=0) - f.center)) < 0.01
    assert np.max(np.abs(np.cov(draws.T) - cov_expect)) < 0.01


# ---------------------------------------------------------------------------
# BallIndicator
# ---------------------------------------------------------------------------


def test_ball_value_and_norm():
    f = BallIndicator(np.array([1.0, 2.0, 3.0]), 2.0)
    assert f.value(np.array([1.0, 2.0, 3.0])) == 1.0
    assert f.value(np.array([1.0, 2.0, 5.0])) == 1.0  # boundary included
    assert f.value(np.array([1.0, 2.0, 5.1])) == 0.0
    # ||f||_p^p is the ball volume for every p
    vol = sphere_area(3) * 8.0 / 3.0
    for p in (1.0, 1.5, 4.0):
        assert abs(f.lp_power_norm(p) - vol) < 1e-12
    with pytest.raises(ValueError):
        BallIndicator(np.array([0.0, 0.0]), 0.0)
    with pytest.raises(ValueError):
        BallIndicator(np.array([1.0]), 1.0)


def test_ball_line_integral_chords():
    f = BallIndicator(np.zeros(2), 2.0)
    # unit-speed line at distance 1: chord 2 sqrt(3)
    got = float(f.line_integral(np.array([0.0, 1.0]), np.array([1.0, 0.0])))
    assert abs(got - 2.0 * math.sqrt(3.0)) < 1e-14
    # doubling the direction halves the lambda-length
    got2 = float(f.line_integral(np.array([0.0, 1.0]), np.array([2.0, 0.0])))
    assert abs(got2 - math.sqrt(3.0)) < 1e-14
    # a line missing the ball
    assert float(f.line_integral(np.array([0.0, 3.0]), np.array([1.0, 0.0]))) == 0.0
    lam, width = f.line_focus(np.array([5.0, 1.0]), np.array([-1.0, 0.0]))
    assert abs(lam - 5.0) < 1e-14
    assert abs(width - 2.0) < 1e-14


def test_ball_line_integral_far_from_center():
    # |delta|^2 - lambda^2 |e|^2 cancels to 2 at |delta| ~ 1e8; the distance
    # read at the foot point gives the chord of the line at height 0.5
    f = BallIndicator(np.zeros(2), 1.0)
    p0, e = np.array([1e8, 0.5]), np.array([1.0, 0.0])
    assert abs(float(f.line_integral(p0, e)) - 2.0 * math.sqrt(0.75)) <= 1e-12
    lam, width = f.line_focus(p0, e)
    assert lam == -1e8 and width == 1.0
    # batched over lines, the far line keeps its own value
    batch = f.line_integral(np.array([[0.0, 0.5], [1e8, 0.5]]), e)
    assert np.max(np.abs(batch - 2.0 * math.sqrt(0.75))) <= 1e-12


def test_ball_sampler_uniform():
    center = np.array([1.0, -2.0, 0.5])
    f = BallIndicator(center, 1.5)
    draws = f.sample_p(RNG(15), 100_000, 2.0)
    radii = np.linalg.norm(draws - center, axis=1)
    assert np.max(radii) <= 1.5 * (1 + 1e-12)
    # for the uniform ball E[(r/R)^d] = 1/2 exactly
    frac = float(np.mean((radii / 1.5) ** 3))
    assert abs(frac - 0.5) < 0.005
    assert np.max(np.abs(draws.mean(axis=0) - center)) < 0.01


# ---------------------------------------------------------------------------
# Line moments: int f and int f^p |lambda|^(d-1) along a line
# ---------------------------------------------------------------------------


def _quad_pieces(fn, edges, epsabs=0.0):
    return sum(
        integrate.quad(fn, a, b, epsabs=epsabs, epsrel=1e-13, limit=200)[0]
        for a, b in zip(edges[:-1], edges[1:])
    )


def _moments_by_quad(f, p0, e, p):
    # adaptive quadrature of f along the line, split at lambda = 0, at the
    # foot point and 30 widths beyond both
    d = len(p0)
    if isinstance(f, BallIndicator):
        delta = p0 - f.center
        ee, b = e @ e, delta @ e
        half = math.sqrt(b * b - ee * (delta @ delta - f.radius**2))
        lo, hi = (-b - half) / ee, (-b + half) / ee
        inside = [0.0] if lo < 0.0 < hi else []
        return hi - lo, _quad_pieces(lambda t: abs(t) ** (d - 1), [lo, *inside, hi])
    lam, width = f.line_focus(p0, e)
    cuts = sorted({0.0, float(lam)})
    edges = [-np.inf, cuts[0] - 30.0 * width, *cuts, cuts[-1] + 30.0 * width, np.inf]
    line = _quad_pieces(lambda t: float(f.value(p0 + t * e)), edges)
    moment = _quad_pieces(lambda t: float(f.value(p0 + t * e)) ** p * abs(t) ** (d - 1), edges)
    return line, moment


def _moment_fields(d):
    rng = RNG(30 + d)
    P = random_spd(rng, d + 1, 0.5)
    H = random_spd(rng, d, 0.3)
    pair = (d + 1) / 2.0
    return [
        ("cauchy-pairing", CauchyPowerField(1, P, 1.3), pair),
        ("cauchy-k2", CauchyPowerField(2, P, 0.8), pair),  # s = 3(d+1)/4
        ("cauchy-off-pairing", CauchyPowerField(1, P, 1.3), pair + 0.35),
        ("gaussian-pairing", GaussianBump(rng.standard_normal(d), H, 1.7), pair),
        ("gaussian-p", GaussianBump(rng.standard_normal(d), H, 1.7), 1.3),
        ("ball", BallIndicator(rng.standard_normal(d), 1.4), pair),
    ]


@pytest.mark.parametrize("d", [2, 3])
def test_line_moments_against_quad(d):
    # every field class, in both dimensions, on a generic line, a line whose
    # foot point is p0 (lambda* = 0) and one that runs along the field's axis
    # from far out, where the incomplete Beta is read from its far side
    rng = RNG(40 + d)
    worst = 0.0
    for name, f, p in _moment_fields(d):
        center = f.center
        e = rng.standard_normal(d)
        H = f.shape if isinstance(f, GaussianBump) else getattr(f, "_A", np.eye(d))
        perp = rng.standard_normal(d)
        perp -= (perp @ H @ e) / (e @ H @ e) * e  # H-orthogonal to e: lambda* = 0
        lines = [
            (center + rng.standard_normal(d), e),
            (center + 0.6 * perp, e),
            (center + 4.0 * e + 0.05 * perp, e),
        ]
        for p0, ee in lines:
            line, moment = f.line_moments(p0, ee, p)
            ref_line, ref_moment = _moments_by_quad(f, p0, ee, p)
            for got, ref in ((line, ref_line), (moment, ref_moment)):
                worst = max(worst, abs(got / ref - 1.0))
                assert abs(got / ref - 1.0) <= 1e-12, (name, p0, got, ref)
    print(f"line moments d = {d}: worst relative gap to quad {worst:.2e}")


@pytest.mark.parametrize("d", [2, 3])
def test_line_moments_far_line(d):
    # the line through p0 = -e/2 + w, with w orthogonal to e and every
    # coordinate exact in binary, passes the center at distance |w| with
    # lambda* = 1/2, a = |e|^2 ~ 4e18 and c* = 1 + |w|^2, while Q0 = 1 + |p0|^2
    # ~ 1e18. The moment of the exact restriction a (lambda - 1/2)^2 + c* is
    # taken by quad in units of the width sqrt(c*/a).
    w = np.array([0.5, -0.375, 0.25][:d])
    e = np.array([-1.2e9, -1.6e9, 0.0][:d])
    p0 = -0.5 * e + w
    a, c = e @ e, 1.0 + w @ w
    width = math.sqrt(c / a)
    t0 = -0.5 / width  # lambda = 0, near -8.5e8
    decades = [10.0**j for j in range(9)]
    edges = [-np.inf, 2.0 * t0, t0, 0.5 * t0, *(-x for x in decades[::-1]), *decades, np.inf]
    for p in ((d + 1) / 2.0, (d + 1) / 2.0 + 0.35):
        f = CauchyPowerField.extremizer(TransformParams(1, d))
        s = p
        line, moment = f.line_moments(p0, e, p)
        ref = _quad_pieces(
            lambda t: (c * (t * t + 1.0)) ** -s * abs(0.5 + t * width) ** (d - 1) * width,
            edges,
            epsabs=1e-25,  # the moment is near 1e-10; the tails are below 1e-25
        )
        assert abs(moment / ref - 1.0) <= 1e-6
        assert abs(line / (math.pi / math.sqrt(a * c)) - 1.0) <= 1e-6
    # the Gaussian's quadratic has no constant term: c* = |w|^2 there
    g = GaussianBump(np.zeros(d), np.eye(d), 1.2)
    line, moment = g.line_moments(p0, e, 1.5)
    alpha = 0.75 * a
    want = 1.2**1.5 * math.exp(-0.75 * (w @ w)) * math.sqrt(math.pi / alpha)
    want *= (0.5 / alpha + 0.25) if d == 3 else 0.5 * math.erf(0.5 * math.sqrt(alpha))
    assert abs(moment / want - 1.0) <= 1e-6
    assert abs(line / (1.2 * math.exp(-0.5 * (w @ w)) * math.sqrt(2.0 * math.pi / a)) - 1.0) <= 1e-6
    # batched with a near line, the far one keeps its own value
    near = f.line_moments(np.stack([p0, w]), np.stack([e, e]), 1.0 + 0.5 * d)
    assert np.all(np.isfinite(near[1])) and np.all(near[1] > 0)


def test_ball_line_moments_chords():
    # a chord through lambda = 0 (p0 inside), one with lambda* = 0 (p0 at the
    # foot), one beside the origin of lambda, a line that misses and a far chord
    f = BallIndicator(np.zeros(3), 2.0)
    e = np.array([0.0, 0.0, 0.5])
    cases = [
        (np.array([0.0, 0.0, 1.0]), 8.0, (6.0**3 + 2.0**3) / 3.0),  # lambda in [-6, 2]
        (np.array([0.0, 1.0, 0.0]), 2.0 * math.sqrt(12.0), 2.0 * math.sqrt(12.0) ** 3 / 3.0),
        (np.array([0.0, 0.0, 3.0]), 8.0, (10.0**3 - 2.0**3) / 3.0),  # lambda in [-10, -2]
        (np.array([3.0, 0.0, 0.0]), 0.0, 0.0),
    ]
    for p0, want_line, want_moment in cases:
        line, moment = f.line_moments(p0, e, 2.0)
        assert abs(line - want_line) <= 1e-14 * max(want_line, 1.0)
        assert abs(moment - want_moment) <= 1e-14 * max(want_moment, 1.0)
    # a far chord at height 1/2 beside lambda = 0: lambda = -1e8 +- h, h^2 = 3/4,
    # and ((1e8 + h)^3 - (1e8 - h)^3) / 3 = 2 h 1e16 + 2 h^3 / 3
    far = BallIndicator(np.zeros(3), 1.0)
    h = math.sqrt(0.75)
    line, moment = far.line_moments(np.array([1e8, 0.5, 0.0]), np.array([1.0, 0.0, 0.0]), 2.0)
    assert abs(line / (2.0 * h) - 1.0) <= 1e-12
    assert abs(moment / (2.0 * h * 1e16 + 2.0 * h**3 / 3.0) - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# All three fields: draws and batched kernels
# ---------------------------------------------------------------------------


def _cauchy_draws(f, rng, n, p):
    # normal over root-chi-square, written out from the matrix
    d = f.d
    A, u = f.matrix[:d, :d], f.matrix[:d, d]
    center = -np.linalg.solve(A, u)
    c_min = float(f.matrix[d, d] + u @ center)
    nu = (f.k + 1) * p - d
    scale = np.linalg.cholesky((c_min / nu) * np.linalg.inv(A))
    z = rng.standard_normal((n, d))
    # chi-square(1) is the square of a standard normal
    chi2 = rng.standard_normal(n) ** 2 if nu == 1 else rng.chisquare(nu, n)
    return center + (z @ scale.T) * np.sqrt(nu / chi2)[:, None]


def _gaussian_draws(f, rng, n, p):
    scale = np.linalg.cholesky(np.linalg.inv(p * f.shape))
    return f.center + rng.standard_normal((n, f.d)) @ scale.T


def _ball_draws(f, rng, n, p):
    z = rng.standard_normal((n, f.d))
    z /= np.linalg.norm(z, axis=-1, keepdims=True)
    r = f.radius * rng.random(n) ** (1.0 / f.d)
    return f.center + z * r[:, None]


def _cauchy_p():
    return CauchyPowerField(3, random_spd(RNG(10), 3, 0.5), amplitude=0.7)


@pytest.mark.parametrize(
    "field, p, reference",
    [
        (CauchyPowerField.extremizer(TransformParams(1, 3)), 2.0, _cauchy_draws),
        (_cauchy_p(), 2.0, _cauchy_draws),
        (_cauchy_p().s_transform(), 2.0, _cauchy_draws),
        (GaussianBump(np.array([2.0, -1.0, 0.5]), random_spd(RNG(16), 3)), 1.3, _gaussian_draws),
        (BallIndicator(np.array([1.0, -2.0, 0.5]), 1.5), 2.0, _ball_draws),
    ],
    ids=["cauchy-h", "cauchy-P", "cauchy-P-S", "gaussian", "ball"],
)
def test_sample_p_draws_are_bit_identical(field, p, reference):
    # the Monte Carlo streams fix every draw: the samplers make the same
    # generator calls in the same order and the same arithmetic on them
    got = field.sample_p(RNG(17), 4099, p)
    assert np.array_equal(got, reference(field, RNG(17), 4099, p))


def _per_point(fn, *args):
    # fn on each point of the (4, 6) leading axes, stacked back
    lead = args[0].shape[:2]
    outs = [fn(*(a[i, j] for a in args)) for i in range(lead[0]) for j in range(lead[1])]
    if isinstance(outs[0], tuple):
        return tuple(np.reshape(np.stack(part), lead + np.shape(part[0])) for part in zip(*outs))
    return np.reshape(np.stack(outs), lead)


@pytest.mark.parametrize(
    "field",
    [
        CauchyPowerField(1, random_spd(RNG(18), 4, 0.5)),
        GaussianBump(np.array([0.3, -0.2, 0.8]), random_spd(RNG(19), 3, 0.4), 1.7),
        BallIndicator(np.array([0.2, 0.1, -0.3]), 1.6),
    ],
    ids=["cauchy", "gaussian", "ball"],
)
def test_kernels_on_two_leading_axes_match_per_point(field):
    # the shapes of _line_rule's nodes and of node batches: every kernel
    # reads a (4, 6, d) batch as it reads each point, to 4 ulps
    rng = RNG(20)
    x, p0, e1, e2 = (rng.standard_normal((4, 6, 3)) for _ in range(4))
    calls = [
        (field.value, (x,)),
        (field.line_focus, (p0, e1)),
        (field.line_integral, (p0, e1)),
    ]
    if hasattr(field, "plane_focus"):
        calls.append((field.plane_focus, (p0, e1, e2)))
    for fn, args in calls:
        got, ref = fn(*args), _per_point(fn, *args)
        for g, r in zip(*(v if isinstance(v, tuple) else (v,) for v in (got, ref))):
            assert g.shape == r.shape, fn.__name__
            err = np.abs(g - r)
            assert np.all(err <= 4 * np.finfo(float).eps * np.abs(r)), (fn.__name__, err.max())
