"""Monte Carlo oracles: inversion identities, span quadrature, Drury norms."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate

from kplane import (
    BallIndicator,
    CauchyPowerField,
    DivergenceError,
    GaussianBump,
    TransformParams,
    best_constant,
    drury_norm_mc,
    inversion_jacobian,
    inversion_map,
    inversion_span_gap,
    inversion_volume_gap,
    radon2d_direct,
    sample_point_tuple,
    simplex_volume,
    span_integral,
    sphere_area,
)
from kplane.mc import MCEstimate, _block_stream

RNG = np.random.default_rng


# ---------------------------------------------------------------------------
# Inversion map and simplex volumes
# ---------------------------------------------------------------------------


def test_inversion_map_hand_values():
    out = inversion_map(np.array([2.0, 4.0]))
    assert np.allclose(out, [0.5, 0.25], atol=0.0)
    batch = inversion_map(np.array([[1.0, 2.0, -0.5], [3.0, 0.0, 2.0]]))
    assert np.allclose(batch, [[-2.0, -4.0, -2.0], [1.5, 0.0, 0.5]], atol=0.0)
    with pytest.raises(ValueError):
        inversion_map(np.array([1.0, 0.0]))


def test_inversion_map_is_involution():
    rng = RNG(0)
    for _ in range(100):
        x = rng.standard_normal(4)
        if abs(x[-1]) < 1e-6:
            continue
        back = inversion_map(inversion_map(x))
        assert np.max(np.abs(back - x)) < 1e-12 * max(1.0, np.max(np.abs(x)))


def test_inversion_jacobian_matches_finite_differences():
    rng = RNG(1)
    eps = 1e-6
    for _ in range(25):
        x = rng.standard_normal(3)
        if abs(x[-1]) < 0.2:
            continue
        jac = np.empty((3, 3))
        for i in range(3):
            dx = np.zeros(3)
            dx[i] = eps
            jac[:, i] = (inversion_map(x + dx) - inversion_map(x - dx)) / (2 * eps)
        fd = abs(np.linalg.det(jac))
        assert abs(fd / inversion_jacobian(x) - 1.0) < 1e-6


def test_simplex_volume_hand_cases():
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert abs(simplex_volume(tri) - 0.5) < 1e-15
    # unit k-simplex on 0, e_1 .. e_k has volume 1/k!
    for k, d in ((1, 3), (2, 4), (3, 5)):
        pts = np.zeros((k + 1, d))
        for i in range(k):
            pts[i + 1, i] = 1.0
        assert abs(simplex_volume(pts) - 1.0 / math.factorial(k)) < 1e-14, (k, d)
    # segment length
    seg = np.array([[1.0, 1.0, 1.0], [4.0, 5.0, 1.0]])
    assert abs(simplex_volume(seg) - 5.0) < 1e-14
    # degenerate (collinear) tuples give zero
    degen = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    assert simplex_volume(degen) == 0.0


def test_simplex_volume_batched_and_invariant():
    rng = RNG(2)
    pts = rng.standard_normal((64, 3, 3))
    vols = simplex_volume(pts)
    assert vols.shape == (64,)
    # rigid motions leave the volume alone
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    shifted = pts @ q.T + rng.standard_normal(3)
    assert np.max(np.abs(simplex_volume(shifted) - vols)) < 1e-10


def test_sample_point_tuple_constraints():
    rng = RNG(3)
    for k, d in ((1, 2), (1, 3), (2, 3)):
        for _ in range(50):
            pts = sample_point_tuple(rng, k, d)
            assert pts.shape == (k + 1, d)
            assert np.min(np.abs(pts[:, -1])) >= 1e-2
            assert simplex_volume(pts) >= 1e-2


# ---------------------------------------------------------------------------
# Span quadrature
# ---------------------------------------------------------------------------


def test_span_integral_line_closed_form():
    # h in d = 2 along the horizontal line through (0,1) and (1,1): points
    # (lambda, 1) give int dlambda / (lambda^2 + 2) = pi / sqrt(2). This is
    # also the line-plane correspondence at unit distance: edge length V = 1,
    # so the span integral equals |S^0| T h(1) = 2 I(0,2) / sqrt(2)
    from kplane.params import i_integral

    f = CauchyPowerField.extremizer(TransformParams(1, 2))
    pts = np.array([[0.0, 1.0], [1.0, 1.0]])
    got = span_integral(f, pts)
    expect = math.pi / math.sqrt(2.0)
    assert abs(got / expect - 1.0) < 1e-12
    assert abs(2.0 * i_integral(0, 2) / math.sqrt(2.0) - expect) < 1e-15
    assert abs(float(f.line_integral(pts[0], pts[1] - pts[0])) / expect - 1.0) < 1e-14


def test_span_integral_plane_matches_closed_form():
    rng = RNG(4)
    m = rng.standard_normal((4, 4))
    P = 0.4 * (m @ m.T + 4 * np.eye(4))
    f = CauchyPowerField(2, P)
    pts = sample_point_tuple(rng, 2, 3)
    got = span_integral(f, pts)
    expect = float(f.plane_integral(pts[0], pts[1] - pts[0], pts[2] - pts[0]))
    assert abs(got / expect - 1.0) < 1e-10


def test_span_integral_plane_far_from_center():
    # the plane through (6e8, 8e8, 0.25) spanned by e1, e2 at (2, 3) sits at
    # distance 0.25 from the center: 2 pi / sqrt(1 + 0.25^2). Its minimum is
    # read at the foot point, where c - beta . G^-1 beta cancels to 0
    f = CauchyPowerField.extremizer(TransformParams(2, 3))
    x0 = np.array([6e8, 8e8, 0.25])
    pts = np.array([x0, x0 + [1.0, 0.0, 0.0], x0 + [0.0, 1.0, 0.0]])
    expect = 2.0 * math.pi / math.sqrt(1.0625)
    assert abs(span_integral(f, pts) - expect) < 1e-10


def test_span_integral_unhinted_line():
    # a value-only object exercises the fallback centering on .center
    class Bump:
        center = np.array([0.5, -0.3])

        def value(self, x):
            delta = np.asarray(x) - self.center
            return np.exp(-np.einsum("...i,...i->...", delta, delta))

    b = Bump()
    pts = np.array([[0.0, -1.0], [1.0, 1.5]])
    got = span_integral(b, pts, n_nodes=96)
    e = pts[1] - pts[0]
    num, _ = integrate.quad(
        lambda lam: float(b.value(pts[0] + lam * e)), -np.inf, np.inf
    )
    assert abs(got / num - 1.0) < 1e-8


def test_span_integral_unhinted_plane():
    class Bump3:
        center = np.array([0.2, 0.1, -0.4])

        def value(self, x):
            delta = np.asarray(x) - self.center
            return np.exp(-np.einsum("...i,...i->...", delta, delta))

    b = Bump3()
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.2, -0.1], [0.1, 1.1, 0.3]])
    got = span_integral(b, pts, n_nodes=96)
    e1, e2 = pts[1] - pts[0], pts[2] - pts[0]
    num, _ = integrate.dblquad(
        lambda u, v: float(
            b.value(pts[0] + math.tan(u) * e1 + math.tan(v) * e2)
        )
        * (1 + math.tan(u) ** 2)
        * (1 + math.tan(v) ** 2),
        -math.pi / 2, math.pi / 2, -math.pi / 2, math.pi / 2,
        epsabs=1e-12,
    )
    assert abs(got / num - 1.0) < 1e-7


def test_span_integral_rejects_bad_inputs():
    f = CauchyPowerField.extremizer(TransformParams(1, 3))  # tail exponent 2
    with pytest.raises(ValueError, match="k in"):
        span_integral(f, np.zeros((4, 3)))
    with pytest.raises(ValueError, match="k in"):
        span_integral(f, np.zeros((1, 3)))
    # plane integral of a tail-2 field diverges
    pts = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [0.0, 0.0, 2.0]])
    with pytest.raises(DivergenceError):
        span_integral(f, pts)


# ---------------------------------------------------------------------------
# Inversion identities (simplex volumes, span integrals)
# ---------------------------------------------------------------------------


def test_inversion_volume_identity():
    rng = RNG(5)
    worst = 0.0
    for k, d in ((1, 2), (1, 3), (2, 3)):
        for _ in range(100):
            gap = inversion_volume_gap(sample_point_tuple(rng, k, d))
            worst = max(worst, gap)
    print(f"volume-ratio identity, worst relative gap {worst:.3e}")
    assert worst < 1e-10


def test_inversion_span_identity():
    rng = RNG(6)
    worst = 0.0
    for k, d in ((1, 2), (1, 3)):
        f = CauchyPowerField.extremizer(TransformParams(k, d))
        for _ in range(20):
            gap = inversion_span_gap(f, sample_point_tuple(rng, k, d))
            worst = max(worst, gap)
    print(f"span-integral identity, worst relative gap {worst:.3e}")
    assert worst < 1e-5


# ---------------------------------------------------------------------------
# Drury Monte Carlo
# ---------------------------------------------------------------------------


def test_mc_estimate_as_dict():
    est = MCEstimate(value=1.5, std_error=0.1, n_samples=100, seed=7, n_rejected=3)
    assert est.as_dict() == {
        "value": 1.5,
        "std_error": 0.1,
        "n_samples": 100,
        "seed": 7,
        "rejected": 3,
    }


def test_drury_rejects_uncovered_cases():
    f = CauchyPowerField.extremizer(TransformParams(1, 2))
    with pytest.raises(ValueError):
        drury_norm_mc(f, TransformParams(2, 3))
    with pytest.raises(ValueError):
        drury_norm_mc(f, TransformParams(1, 4))
    with pytest.raises(ValueError):
        drury_norm_mc(f, TransformParams(1, 2), n_samples=1)


@pytest.mark.parametrize("seed", [1.9, 1.0, True, False, -1, "3", None])
def test_drury_rejects_bad_seeds(seed):
    # a float seed used to run as its integer part and a bool as 0 or 1, while
    # the estimate reported the seed as given; -1 raised a bare OverflowError
    f = CauchyPowerField.extremizer(TransformParams(1, 2))
    with pytest.raises(ValueError, match="seed"):
        drury_norm_mc(f, TransformParams(1, 2), n_samples=1000, seed=seed)


def test_drury_takes_numpy_integer_seeds():
    pr = TransformParams(1, 2)
    f = CauchyPowerField.extremizer(pr)
    a = drury_norm_mc(f, pr, n_samples=1000, seed=np.int64(3))
    b = drury_norm_mc(f, pr, n_samples=1000, seed=3)
    assert a == b and type(a.seed) is int


def test_drury_deterministic_given_seed():
    # on h every seed reads the closed form to rounding, so that the seed
    # moves the estimate is checked on a Gaussian bump, whose weights vary
    pr = TransformParams(1, 2)
    for f in (CauchyPowerField.extremizer(pr), _gaussian_2d()):
        a = drury_norm_mc(f, pr, n_samples=20_000, seed=42)
        b = drury_norm_mc(f, pr, n_samples=20_000, seed=42)
        assert a.value == b.value and a.std_error == b.std_error
        assert a.n_samples == b.n_samples and a.n_rejected == b.n_rejected
    c = drury_norm_mc(f, pr, n_samples=20_000, seed=43)
    assert c.value != a.value


def _translate_s_image():
    h = CauchyPowerField.extremizer(TransformParams(1, 2))
    return h.compose_affine(np.eye(2), np.array([0.3, -0.45])).s_transform()


@pytest.mark.parametrize(
    "case, d, seed, value, std_error",
    [
        ("h", 2, 42, 62.012553360599604, 2.2415209192984988e-13),
        # the far-sample seed of test_drury_on_cauchy_extremizer_far_samples_stay_finite
        ("h", 3, 53, 306.0196847852813, 1.1206605061304543e-12),
        ("translate-S", 2, 7, 62.01255336059959, 2.2767235382856404e-13),
    ],
    ids=["h-2-42", "h-3-53", "translate-S-2-7"],
)
def test_drury_golden_estimates(case, d, seed, value, std_error):
    # the draws are fixed per (seed, block) and the kernels only reorder
    # rounding, so the estimates stay where they were pinned. The standard
    # errors sit at the rounding floor; the weights' own variance is rounding
    # noise that adds about 1e-8 of it, so a kernel that reorders rounding
    # moves std_error by about 1e-9 and takes a re-pin of it alone.
    pr = TransformParams(1, d)
    f = CauchyPowerField.extremizer(pr) if case == "h" else _translate_s_image()
    est = drury_norm_mc(f, pr, n_samples=100_000, seed=seed)
    assert est.n_samples == 100_000 and est.n_rejected == 0
    assert abs(est.value / value - 1.0) <= 1e-13
    assert abs(est.std_error / std_error - 1.0) <= 1e-13


def _gaussian_2d():
    return GaussianBump(np.array([0.4, -0.7]), np.array([[1.2, 0.3], [0.3, 0.9]]), 1.5)


def _gaussian_3d():
    H = np.array([[1.2, 0.3, -0.2], [0.3, 0.9, 0.1], [-0.2, 0.1, 0.7]])
    return GaussianBump(np.array([0.4, -0.7, 0.2]), H, 1.5)


def _gaussian_norm(g):
    # ||R g||_q^q = A^q (2 pi)^(q/2) (2 pi/q)^((d-1)/2) / det H, q = d + 1: the
    # line integral along a unit u is A sqrt(2 pi/a) exp(-y.H_u y/2) with
    # a = u.H u and det H_u = det H / a, and E_u[a^(-d/2)] = det(H)^(-1/2)
    d = g.d
    q = d + 1
    return (
        g.amplitude**q * (2 * math.pi) ** (q / 2) * (2 * math.pi / q) ** ((d - 1) / 2)
        / np.linalg.det(g.shape)
    )


class _PlantedDraws:
    """A Gaussian bump whose draws hit the rejected sets on purpose.

    Every 1000th draw has last coordinate 0, where the tuple form's rule
    rejected; every 500th from the 250th sits at one fixed point, so that
    those pairs coincide and have no line.
    """

    def __init__(self):
        self.g = _gaussian_2d()

    def __getattr__(self, name):
        return getattr(self.g, name)

    def sample_p(self, rng, n, p):
        x = self.g.sample_p(rng, n, p)
        x[::1000, -1] = 0.0
        x[250::500] = (0.3, 0.7)
        return x


def test_drury_drops_and_counts_rejected_tuples():
    # only coincident pairs are rejected; the weights of the rest vary, so
    # the estimate shows which samples were kept
    pr = TransformParams(1, 2)
    p = pr.pf
    f = _PlantedDraws()
    est = drury_norm_mc(f, pr, n_samples=5000, seed=9)
    assert est.n_rejected == 10 and est.n_samples == 4990
    rng = _block_stream(9, 0)
    x0, y = f.sample_p(rng, 5000, p), f.sample_p(rng, 5000, p)
    keep = np.ones(5000, dtype=bool)
    keep[250::500] = False
    x0, e = x0[keep], (y - x0)[keep]
    line, moment = f.line_moments(x0, e, p)
    w = f.lp_power_norm(p) ** 2 * f.value(x0) ** (1.0 - p) * line**2 / moment
    assert abs(est.value / (2.0 / sphere_area(2) * w.mean()) - 1.0) <= 1e-13
    assert abs(est.value - _gaussian_norm(f.g)) <= 4.0 * est.std_error


@pytest.mark.parametrize("d, limit_mib", [(3, 10.8), (2, 8.3)])
def test_drury_memory_peak(d, limit_mib):
    # a 65536-sample block holds two (m, d) point arrays and the kernels'
    # temporaries; the limits are the peaks measured before the kernels
    # were rewritten (10.75 and 8.25 MiB)
    pr = TransformParams(1, d)
    h = CauchyPowerField.extremizer(pr)
    drury_norm_mc(h, pr, n_samples=100_000, seed=1)
    tracemalloc.start()
    try:
        drury_norm_mc(h, pr, n_samples=100_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit_mib * 2**20


def test_drury_extremizer_2d():
    # ||R h||_3^3 = A(1,2)^3 ||h||_{3/2}^3 = (pi/2) (2 pi)^2 = 2 pi^3,
    # using ||h||_{3/2}^{3/2} = |S^1| I(1, 3) = 2 pi
    pr = TransformParams(1, 2)
    f = CauchyPowerField.extremizer(pr)
    est = drury_norm_mc(f, pr, n_samples=1_000_000, seed=0)
    target = 2.0 * math.pi**3
    z = (est.value - target) / est.std_error
    print(
        f"Drury (1,2) on h: {est.value:.5f} +- {est.std_error:.5f} vs "
        f"{target:.5f} (z = {z:+.2f}, rejected {est.n_rejected})"
    )
    assert abs(z) <= 3.0
    assert est.n_samples + est.n_rejected == 1_000_000
    assert est.n_rejected < 100


def test_drury_extremizer_3d():
    # ||R h||_4^4 = A(1,3)^4 ||h||_2^4 = pi * (pi^2)^2 = pi^5
    pr = TransformParams(1, 3)
    f = CauchyPowerField.extremizer(pr)
    est = drury_norm_mc(f, pr, n_samples=400_000, seed=7)
    target = math.pi**5
    z = (est.value - target) / est.std_error
    print(f"Drury (1,3) on h: {est.value:.4f} +- {est.std_error:.4f} (z = {z:+.2f})")
    assert abs(z) <= 3.0


def test_drury_invariant_under_s():
    # S preserves ||R f||_q on nonnegative functions; compare estimates for
    # a shifted extremizer and its inversion image
    pr = TransformParams(1, 2)
    f = CauchyPowerField.extremizer(pr).compose_affine(
        np.eye(2), np.array([0.3, -0.45])
    )
    a = drury_norm_mc(f, pr, n_samples=400_000, seed=5)
    b = drury_norm_mc(f.s_transform(), pr, n_samples=400_000, seed=6)
    joint = math.hypot(a.std_error, b.std_error)
    z = (a.value - b.value) / joint
    print(f"S invariance: {a.value:.4f} vs {b.value:.4f} (z = {z:+.2f})")
    assert abs(z) <= 3.0


def test_drury_affine_covariance():
    # ||R (f o M)||_q^q = |det M|^{-q/p} ||R f||_q^q with q/p = 2 in d = 2
    pr = TransformParams(1, 2)
    f = CauchyPowerField.extremizer(pr)
    rng = RNG(12)
    M = rng.standard_normal((2, 2))
    M += math.copysign(1.5, np.linalg.det(M)) * np.eye(2)
    b = 0.5 * rng.standard_normal(2)
    det2 = np.linalg.det(M) ** 2
    a = drury_norm_mc(f, pr, n_samples=400_000, seed=12)
    g = drury_norm_mc(f.compose_affine(M, b), pr, n_samples=400_000, seed=13)
    joint = math.hypot(a.std_error, g.std_error * det2)
    z = (g.value * det2 - a.value) / joint
    print(f"affine covariance: det M = {np.linalg.det(M):.4f}, z = {z:+.2f}")
    assert abs(z) <= 3.0


def test_drury_against_direct_radon_gaussian():
    # a non-radial, non-Cauchy field: the only thing the two oracles share
    # is the line-integral closure, so agreement is a real cross-check
    pr = TransformParams(1, 2)
    g = GaussianBump(np.array([0.4, -0.7]), np.array([[1.2, 0.3], [0.3, 0.9]]), 1.5)
    direct = radon2d_direct(g, pr, n_angles=96, n_offsets=256)
    est = drury_norm_mc(g, pr, n_samples=400_000, seed=11)
    z = (est.value - direct) / est.std_error
    print(f"gaussian: direct {direct:.5f} vs mc {est.value:.5f} (z = {z:+.2f})")
    assert abs(z) <= 3.0
    assert abs(_gaussian_norm(g) / direct - 1.0) <= 1e-12


def _extremizer_family(d):
    # (name, field, closed form): h, a translate, its S-image and an affine
    # image with cond(M) near 1.5, whose rounded matrix stays a few eps from
    # the exact image; ||R (f o (M, b))||_q^q = |det M|^-2 ||R f||_q^q as q/p = 2
    pr = TransformParams(1, d)
    h = CauchyPowerField.extremizer(pr)
    ref = 2.0 * math.pi**3 if d == 2 else math.pi**5
    shift = np.array([0.3, -0.45, 0.2][:d])
    M = np.array([[1.3, 0.4, 0.0], [-0.2, 0.9, 0.2], [0.1, 0.0, 1.1]])[:d, :d]
    translate = h.compose_affine(np.eye(d), shift)
    return pr, [
        ("h", h, ref),
        ("translate", translate, ref),
        ("translate-S", translate.s_transform(), ref),
        ("affine", h.compose_affine(M, shift), ref / np.linalg.det(M) ** 2),
    ]


@pytest.mark.parametrize("d", [2, 3])
def test_drury_identities_on_extremizer_family(d):
    # on the extremizer family the Fubini weight is one constant up to
    # rounding, so at 1e4 samples every field reads its closed form within
    # 1e-13: S-invariance and affine covariance hold as identities
    pr, fields = _extremizer_family(d)
    for seed, (name, f, ref) in enumerate(fields):
        est = drury_norm_mc(f, pr, n_samples=10_000, seed=seed)
        assert est.n_rejected == 0
        assert math.isfinite(est.std_error) and est.std_error > 0.0, name
        assert abs(est.value / ref - 1.0) <= 1e-13, (name, est.value / ref - 1.0)
        assert abs(est.value - ref) <= 3.0 * est.std_error, name


@pytest.mark.parametrize("d, field", [(2, _gaussian_2d), (3, _gaussian_3d)])
def test_drury_z_calibration_on_gaussian_bumps(d, field):
    # off the extremizer family the weights vary: their variance is finite
    # but their fourth moment is not, so the z-scores of small runs have
    # heavy tails (at 4000 samples, 5 of 300 seeds read |z| > 3 in d = 2 and
    # one |z| > 4). At 20000 samples seeds 0-299 read z with sd 1.06 (d = 2)
    # and 1.02 (d = 3), one |z| > 3 each and max |z| 3.03 and 3.20; a normal
    # law gives 0.8 beyond 3 in 300.
    pr = TransformParams(1, d)
    g = field()
    ref = _gaussian_norm(g)
    z = np.empty(300)
    for seed in range(300):
        est = drury_norm_mc(g, pr, n_samples=20_000, seed=seed)
        z[seed] = (est.value - ref) / est.std_error
    print(f"gaussian d = {d}: z sd {z.std():.3f}, mean {z.mean():+.3f}, "
          f"{np.sum(np.abs(z) > 3)} beyond 3, max |z| {np.abs(z).max():.2f}")
    assert 0.85 <= z.std() <= 1.15
    assert abs(z.mean()) <= 0.3
    assert np.sum(np.abs(z) > 3.0) <= 4
    assert np.abs(z).max() <= 4.0


# ---------------------------------------------------------------------------
# Direct d = 2 oracle
# ---------------------------------------------------------------------------


def test_radon2d_direct_extremizer():
    pr = TransformParams(1, 2)
    f = CauchyPowerField.extremizer(pr)
    got = radon2d_direct(f, pr)
    assert abs(got / (2.0 * math.pi**3) - 1.0) < 1e-12


def test_radon2d_direct_ball_with_custom_offsets():
    # R 1_{B_1} has chords 2 sqrt(1 - t^2): ||R f||_3^3 = 8 * 3 pi / 8 = 3 pi.
    # The square-root edge defeats the default tan rule, so map offsets
    # through t = sin(phi), where the integrand becomes a cosine polynomial
    pr = TransformParams(1, 2)
    f = BallIndicator(np.zeros(2), 1.0)
    x, w = np.polynomial.legendre.leggauss(64)
    phi = 0.5 * math.pi * x
    t_grid = (np.sin(phi), 0.5 * math.pi * w * np.cos(phi))
    got = radon2d_direct(f, pr, t_grid=t_grid)
    assert abs(got / (3.0 * math.pi) - 1.0) < 1e-13


def test_radon2d_direct_matches_mc_consistency():
    pr = TransformParams(1, 2)
    f = CauchyPowerField.extremizer(pr)
    # shifting changes nothing: the line measure is rigid-motion invariant
    shifted = f.compose_affine(np.eye(2), np.array([0.8, -0.6]))
    a = radon2d_direct(f, pr)
    b = radon2d_direct(shifted, pr, n_offsets=384)
    assert abs(a / b - 1.0) < 1e-9


def test_radon2d_direct_value_only_matches_exact_lines():
    # a value-only field takes span_integral's line rule on every line; the
    # same bump through its exact line_integral reads the same norm. The
    # offset rule is shared, so the gap is the line rule's own error (about
    # 3e-12 relative here)
    pr = TransformParams(1, 2)
    g = GaussianBump(np.array([0.4, -0.7]), np.array([[1.0, 0.3], [0.3, 2.5]]), 1.3)

    class ValueOnly:
        center = g.center

        def value(self, x):
            return g.value(x)

    exact = radon2d_direct(g, pr)
    assert abs(radon2d_direct(ValueOnly(), pr) / exact - 1.0) < 1e-10


def test_radon2d_direct_rejects_other_dimensions():
    f = CauchyPowerField.extremizer(TransformParams(1, 3))
    with pytest.raises(ValueError):
        radon2d_direct(f, TransformParams(1, 3))
    with pytest.raises(ValueError):
        radon2d_direct(f, TransformParams(2, 3))
