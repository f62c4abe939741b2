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
    # point near |x| = 1e9 whose line integral used to cancel to NaN; the
    # estimate must be finite and pass the benchmark's drury-mc check
    from kplane import drury_norm_mc

    pr = TransformParams(1, 3)
    est = drury_norm_mc(CauchyPowerField.extremizer(pr), pr, n_samples=100_000, seed=5204)
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
