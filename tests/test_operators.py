"""The radial reduction, the inversion symmetry, and the rearrangement."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from kplane import (
    RadialProfile,
    TailDivergenceError,
    TransformParams,
    UndefinedRatioError,
    best_constant,
    concentration_rescale,
    default_radial_grid,
    distribution_at,
    embed_radial,
    functional_ratio,
    graded_field_grid,
    indicator_profile,
    lebesgue_measure,
    lp_distance,
    lp_norm,
    radial_measure,
    rearrange,
    s_symmetry,
    t_transform,
)
from kplane.operators import ExtremizerSpec, extremizer_profile
from kplane.params import i_integral
from kplane.profiles import field_from_function

PAIRS = ((1, 2), (1, 3), (2, 3), (2, 4), (3, 4))


def smooth_profile(d, lam=1.0, tail=4.0, radii=None):
    r = default_radial_grid(512) if radii is None else radii
    return RadialProfile(d, r, (1.0 + (lam * r) ** 2) ** (-tail / 2.0), tail)


# ---------------------------------------------------------------------------
# Extremizer family
# ---------------------------------------------------------------------------


def test_extremizer_profile_values():
    for k, d in PAIRS:
        spec = ExtremizerSpec(TransformParams(k, d), amplitude=2.0, dilation=3.0)
        f = extremizer_profile(spec)
        assert f.tail_exponent == k + 1
        # the first grid node sits at r = 1e-4, so the head constant is off
        # the true peak by ~(dilation * 1e-4)^2 * (k+1)/2
        assert abs(f.evaluate(0.0) / 2.0 - 1.0) < 1e-6
        # C (1 + (lam r)^2)^{-(k+1)/2} at lam r = 1, through the PL interpolant
        expect = 2.0 * 2.0 ** (-(k + 1) / 2.0)
        assert abs(f.evaluate(1.0 / 3.0) / expect - 1.0) < 1e-4, (k, d)


def test_extremizer_spec_validation():
    pr = TransformParams(1, 3)
    with pytest.raises(ValueError):
        ExtremizerSpec(pr, amplitude=-1.0)
    with pytest.raises(ValueError):
        ExtremizerSpec(pr, dilation=0.0)
    with pytest.raises(ValueError):
        ExtremizerSpec(pr, dilation=math.inf)


# ---------------------------------------------------------------------------
# Radial reduction T
# ---------------------------------------------------------------------------


def test_t_transform_extremizer_closed_form():
    # T h(r) = I(k-1, k+1) (1 + r^2)^{-1/2}; the 5e-4 headroom covers the PL
    # reading of h at 2048 nodes, which T reads to rounding: the reading's
    # own error gives the measured 2.6e-5 for k=1 up to 1.1e-4 for k=3
    for k, d in PAIRS:
        pr = TransformParams(k, d)
        f = extremizer_profile(ExtremizerSpec(pr))
        tf = t_transform(f, pr)
        expect = i_integral(k - 1, k + 1) * (1.0 + tf.radii**2) ** -0.5
        rel = np.max(np.abs(tf.values / expect - 1.0))
        print(f"T h closed form, (k,d)=({k},{d}): max rel {rel:.3e}")
        assert rel < 5e-4, (k, d)
        assert tf.tail_exponent == pytest.approx(f.tail_exponent - k)


def test_t_transform_indicator_exact():
    # for the ball indicator the s-integrand is s^{k-1} on an interval, which
    # GL6 integrates exactly: T 1_{B_R}(r) = (R^2 - r^2)^{k/2} / k
    out = np.linspace(0.05, 1.9, 64)
    for k, d in ((1, 3), (2, 3), (3, 4)):
        pr = TransformParams(k, d)
        tf = t_transform(indicator_profile(d, 2.0), pr, out_radii=out)
        expect = (4.0 - out**2) ** (k / 2.0) / k
        assert np.max(np.abs(tf.values / expect - 1.0)) < 1e-12, (k, d)
        beyond = t_transform(indicator_profile(d, 2.0), pr, out_radii=np.array([2.5, 40.0]))
        assert np.all(beyond.values == 0.0)


def test_t_transform_linearity():
    pr = TransformParams(2, 3)
    r = default_radial_grid(512)
    f = smooth_profile(3, lam=1.0, tail=4.0, radii=r)
    g = smooth_profile(3, lam=2.5, tail=4.0, radii=r)
    combo = f.with_values(2.0 * f.values + 3.0 * g.values)
    lhs = t_transform(combo, pr).values
    rhs = 2.0 * t_transform(f, pr).values + 3.0 * t_transform(g, pr).values
    assert np.max(np.abs(lhs - rhs)) < 1e-10 * np.max(rhs)


def test_t_transform_preserves_order():
    pr = TransformParams(1, 3)
    r = default_radial_grid(512)
    f = smooth_profile(3, radii=r)
    bump = np.exp(-0.5 * (np.log(r) - 0.3) ** 2 / 0.2)
    g = f.with_values(f.values + bump)
    diff = t_transform(g, pr).values - t_transform(f, pr).values
    assert np.min(diff) > -1e-14


def test_t_transform_matrix_and_direct_paths_agree():
    pr = TransformParams(1, 3)
    f = smooth_profile(3)
    a = t_transform(f, pr).values
    b = t_transform(f, pr, out_radii=f.radii).values
    assert np.max(np.abs(a - b)) <= 1e-10 * np.max(a)


def test_t_matrix_cache_tells_grids_with_equal_ends_apart():
    # same length and endpoints, different interior nodes: the first grid's
    # cached row must not serve the second, so the correlation path matches
    # the row path on both
    pr = TransformParams(1, 3)
    r1 = default_radial_grid(64)
    r2 = r1.copy()
    r2[1:-1] *= 1.01
    f1, f2 = smooth_profile(3, radii=r1), smooth_profile(3, radii=r2)
    for f in (f1, f2):
        a = t_transform(f, pr).values
        b = t_transform(f, pr, out_radii=f.radii).values
        assert np.max(np.abs(a - b)) <= 1e-10 * np.max(a)


def _t_columns(k, f, **kw):
    # T's columns, entry by entry: the transform of each unit profile
    pr = TransformParams(k, f.d)
    units = np.eye(len(f.radii))
    return np.column_stack([t_transform(f.with_values(e), pr, **kw).values for e in units])


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("dilation", [1.0, 3.7])
def test_t_matrix_one_row_fill_matches_the_row_build(k, dilation):
    from kplane.operators import _is_geometric

    f = smooth_profile(4, radii=default_radial_grid(64) / dilation)
    assert _is_geometric(f.radii)
    got = _t_columns(k, f)
    want = _t_columns(k, f, out_radii=f.radii)
    assert np.array_equal(got != 0, want != 0)
    nz = want != 0
    assert np.max(np.abs(got - want)[nz] / np.abs(want[nz])) <= 1e-12


@pytest.mark.parametrize("k", [1, 2, 3])
def test_packed_t_matches_the_direct_path_on_the_default_grid(k):
    pr = TransformParams(k, 4)
    f = smooth_profile(4, tail=5.0, radii=default_radial_grid())
    a = t_transform(f, pr).values
    b = t_transform(f, pr, out_radii=f.radii).values
    assert np.max(np.abs(a - b)) <= 1e-10 * np.max(a)


def _t_entry_mp(radii, i, j, k, gamma):
    """T[i, j] in 30-digit mpmath: node j's hat in u = log rho against
    (rho^2 - r_i^2)^((k-2)/2) rho^2 du over rho >= r_i; the last node adds
    the power tail (r_max/rho)^gamma beyond the grid."""
    with mpmath.workdps(30):
        r = mpmath.mpf(radii[i])
        u = [mpmath.log(mpmath.mpf(x)) for x in radii[max(j - 1, 0) : j + 2]]
        uj = u[1] if j > 0 else u[0]
        beta = mpmath.mpf(k - 2) / 2

        def kernel(v):
            return (mpmath.exp(2 * v) - r**2) ** beta * mpmath.exp(2 * v)

        total = mpmath.mpf(0)
        if j > 0:
            lo = max(u[0], mpmath.log(r))
            if lo < uj:
                total += mpmath.quad(lambda v: (v - u[0]) / (uj - u[0]) * kernel(v), [lo, uj])
        if j < len(radii) - 1:
            hi = u[-1]
            lo = max(uj, mpmath.log(r))
            total += mpmath.quad(lambda v: (hi - v) / (hi - uj) * kernel(v), [lo, hi])
        else:
            r_max = mpmath.mpf(radii[-1])
            total += mpmath.quad(
                lambda rho: (r_max / rho) ** gamma * (rho**2 - r**2) ** beta * rho, [r_max, mpmath.inf]
            )
        return total


@pytest.mark.parametrize("n, rows", [(2048, (100, 1500)), (64, (5, 40))], ids=["2048", "64"])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_t_entries_against_mpmath(k, n, rows):
    # lags 0, 1, D-1, D and the last node, on the packed path (unit profiles
    # on the geometric grid) and the direct path (out_radii). Series entries,
    # every entry for even k and lags >= D-1 for odd k, read to rounding on
    # both grids; odd k's lags below D-1 carry GL6's error, which is below
    # 2e-13 at 2048 nodes and 1.5e-9 (k = 3, lag 0) on the 64-node grid
    from kplane import operators

    radii = default_radial_grid(n)
    gamma = k + 3.0
    band = operators._kernel_row(k, RadialProfile(5, radii, np.ones(n), gamma))[0]
    pr = TransformParams(k, 5)
    for i in rows:
        for lag in sorted({0, 1, len(band) - 1, len(band), n - 1 - i}):
            unit = RadialProfile(5, radii, np.eye(1, n, i + lag)[0], gamma)
            packed = t_transform(unit, pr).values[i]
            direct = t_transform(unit, pr, out_radii=radii[i : i + 1]).values[0]
            want = _t_entry_mp(radii, i, i + lag, k, gamma)
            bound = 5e-9 if n == 64 and k % 2 == 1 and lag < len(band) - 1 else 2e-13
            for got in (packed, direct):
                assert abs(got / want - 1) <= bound, (i, lag)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_packed_t_matches_the_direct_path_on_8192_nodes(k):
    # the 8n grid of a Richardson step: band, series and last node against
    # one direct row each, at 16 radii spread over the grid
    pr = TransformParams(k, 4)
    f = smooth_profile(4, tail=5.0, radii=default_radial_grid(8192))
    rows = np.linspace(0, 8191, 16).astype(int)
    packed = t_transform(f, pr).values[rows]
    direct = t_transform(f, pr, out_radii=f.radii[rows]).values
    nz = direct != 0
    assert np.array_equal(packed != 0, nz)
    assert np.max(np.abs(packed[nz] / direct[nz] - 1.0)) <= 1e-12


@pytest.mark.parametrize("k", [1, 2, 3])
def test_packed_t_on_a_grid_too_wide_for_the_series(k):
    # over 80 decades odd k's eight-term series would take powers beyond the
    # float range, so every lag is read from the band; k = 2's one term,
    # rho^2, stays in range and keeps its series. Both match the direct path
    from kplane import operators

    pr = TransformParams(k, 4)
    f = smooth_profile(4, tail=4.0, radii=np.geomspace(1e-40, 1e40, 256))
    band, _, _, far = operators._kernel_row(k, f)
    assert (far is None, len(band)) == ((True, 255) if k % 2 else (False, 1))
    a = t_transform(f, pr).values
    b = t_transform(f, pr, out_radii=f.radii).values
    nz = b != 0
    assert np.array_equal(a != 0, nz)
    assert np.max(np.abs(a[nz] / b[nz] - 1.0)) <= 1e-12


def test_t_matrix_on_a_perturbed_grid_is_built_row_by_row():
    from kplane.operators import _is_geometric

    r = default_radial_grid(64)
    r[1:-1] *= 1.01
    f = smooth_profile(3, radii=r)
    assert not _is_geometric(r)
    assert np.array_equal(_t_columns(1, f), _t_columns(1, f, out_radii=r))


@pytest.mark.parametrize("n", [2, 3, 255, 256, 257, 2048, 8193])
def test_nonnegative_lags_are_the_full_correlation(n):
    # the band's lags 0 .. D-1 are those of the full correlation, for bands
    # of one lag (even k), of the package grid's D and of every lag; every
    # term is nonnegative, so each entry agrees to rounding
    from kplane.operators import _banded_lags

    rng = np.random.default_rng(n)
    a = 10.0 ** rng.uniform(-12.0, 0.0, n) * rng.uniform(size=n)
    for width in sorted({1, 2, min(257, n), n}):
        band = 10.0 ** rng.uniform(-12.0, 0.0, width)
        want = np.correlate(a, band, "full")[width - 1 : width - 1 + n]
        got = _banded_lags(a, band)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


def test_t_transform_memory_is_linear_in_the_grid():
    # a stored 8192-node matrix alone would take 256 MB
    from kplane import operators

    pr = TransformParams(1, 3)
    h = extremizer_profile(ExtremizerSpec(pr), default_radial_grid(8192))
    operators._T_CACHE.pop((1, h.radii.tobytes()), None)
    tracemalloc.start()
    try:
        t_transform(h, pr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8e6


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_t_tail_vector_against_the_incomplete_beta(k):
    # the tail's series below r_max/8 and betainc above it and beyond the
    # grid both read (1/2) r_max^gamma r^(k-gamma) B_y((gamma-k)/2, k/2),
    # y = min(r/r_max, 1)^2; every 128th grid node, the nodes on either side
    # of r_max/8 and below r_max, and out_radii up to 2 r_max are checked
    # against 30-digit mpmath
    from kplane.operators import _t_tail_vector

    r = default_radial_grid(2048)
    out = np.linspace(r[-1], 2.0 * r[-1], 4)
    checked = np.concatenate([np.arange(0, 2048, 128), [1814, 1815, 1816, 1817], np.arange(2040, 2048)])
    for gamma in (k + 0.05, k + 1.0, k + 6.0):
        on_grid = _t_tail_vector(k, gamma, r, r)[checked]
        beyond = _t_tail_vector(k, gamma, r, out)
        with mpmath.workdps(30):
            a, b, r_max = mpmath.mpf(gamma - k) / 2, mpmath.mpf(k) / 2, mpmath.mpf(r[-1])
            for radius, got in zip(np.concatenate([r[checked], out]), np.concatenate([on_grid, beyond])):
                x = mpmath.mpf(radius)
                y = min(x / r_max, 1) ** 2
                want = r_max**gamma * x ** (k - gamma) / 2 * mpmath.betainc(a, b, 0, y)
                assert abs(got / want - 1) <= 1e-14, (gamma, radius)


def test_t_transform_divergence_and_zero():
    pr = TransformParams(2, 3)
    f = smooth_profile(3, tail=1.5)  # tail 1.5 <= k = 2
    with pytest.raises(TailDivergenceError):
        t_transform(f, pr)
    z = RadialProfile(3, np.array([1.0, 2.0]), np.zeros(2), 5.0)
    tz = t_transform(z, pr, out_radii=np.array([0.5, 3.0]))
    assert np.all(tz.values == 0.0)


# ---------------------------------------------------------------------------
# Functional ratio
# ---------------------------------------------------------------------------


def test_functional_ratio_extremizer_attains_constant():
    for k, d in PAIRS:
        pr = TransformParams(k, d)
        f = extremizer_profile(ExtremizerSpec(pr))
        rel = functional_ratio(f, pr) / best_constant(pr) - 1.0
        print(f"ratio(h)/A - 1 at (k,d)=({k},{d}): {rel:+.3e}")
        assert abs(rel) < 2e-4, (k, d)


def test_functional_ratio_dilation_invariant():
    pr = TransformParams(1, 3)
    f = smooth_profile(3, tail=3.2)
    base = functional_ratio(f, pr)
    for mu in (0.4, 2.7):
        assert abs(functional_ratio(f.dilated(mu), pr) / base - 1.0) < 1e-5, mu


def test_functional_ratio_indicator_below_constant():
    for k, d in ((1, 2), (1, 3), (2, 3)):
        pr = TransformParams(k, d)
        out = default_radial_grid(512)
        # resample the indicator so T sees a dense grid
        f = indicator_profile(d)
        f = RadialProfile(d, out, f.evaluate(out), f.tail_exponent)
        ratio = functional_ratio(f, pr)
        assert ratio < best_constant(pr) * (1 - 1e-3), (k, d, ratio)


def test_functional_ratio_zero_profile():
    with pytest.raises(UndefinedRatioError):
        functional_ratio(
            RadialProfile(3, np.array([1.0, 2.0]), np.zeros(2), 5.0),
            TransformParams(1, 3),
        )


def test_functional_ratio_sharpness_random():
    rng = np.random.default_rng(19)
    pr = TransformParams(1, 3)
    bound = best_constant(pr) * (1 + 2e-4)
    out = default_radial_grid(512)
    worst = 0.0
    for trial in range(30):
        tail = float(rng.uniform(2.2, 5.0))
        vals = np.zeros_like(out)
        for _ in range(3):
            lam = float(rng.uniform(0.2, 4.0))
            amp = float(rng.uniform(0.2, 2.0))
            e = int(rng.integers(0, 3))
            vals += amp * (lam * out) ** e * (1.0 + (lam * out) ** 2) ** (-(tail + e) / 2.0)
        f = RadialProfile(3, out, vals, tail)
        worst = max(worst, functional_ratio(f, pr))
    print(f"sharpness over 30 random profiles: worst ratio {worst:.6f}, A = {best_constant(pr):.6f}")
    assert worst <= bound


# ---------------------------------------------------------------------------
# Inversion symmetry S
# ---------------------------------------------------------------------------


def test_s_symmetry_fixes_extremizer():
    # S maps the dilate h(lam x) = (1 + lam^2 |x|^2)^(-(k+1)/2) to the field
    # (s^2 + lam^2 rho^2 + lam^2)^(-(k+1)/2), whose level sets are exactly the
    # ellipsoids lam rho^2 + s^2/lam = const; at lam = 1 that is h itself.
    # Closed-form field: largest relative deviation 6.8e-16 over these cases
    rho, s = graded_field_grid(60.0, 64, 64)
    probe = np.geomspace(1e-3, 1e3, 61)
    # +-s on the same range, so no probe sits on the singular plane s = 0
    near = np.meshgrid(probe, np.concatenate([-probe[::-1], probe]), indexing="ij")
    wide = np.meshgrid(np.geomspace(0.05, 20.0, 40), np.linspace(-15.0, 15.0, 40), indexing="ij")
    for kd in ((1, 2), (1, 3), (2, 4)):
        pr = TransformParams(*kd)
        m = pr.k + 1
        for lam in (0.5, 1.0, 2.0):

            def image(rq, sq):
                return (sq**2 + lam**2 * rq**2 + lam**2) ** (-m / 2.0)

            def h_lam(rq, sq):
                return (1.0 + lam**2 * (rq**2 + sq**2)) ** (-m / 2.0)

            sg = s_symmetry(field_from_function(h_lam, pr.d, rho, s, float(m)), pr)
            want = image(*near)
            rel = np.max(np.abs(np.asarray(sg.point_value(*near)) - want) / want)
            # the embedded profile reads h(lam .) through its canonical interpolation
            f = extremizer_profile(ExtremizerSpec(pr, dilation=lam))
            sf = s_symmetry(embed_radial(f, rho, s), pr)
            want = image(*wide)
            rel_profile = np.max(np.abs(np.asarray(sf.point_value(*wide)) - want)) / np.max(want)
            print(f"{kd} lam {lam}: S h(lam .) {rel:.2e} relative, embedded profile {rel_profile:.2e} / peak")
            assert rel <= 1e-15
            assert rel_profile < 1e-3


def test_s_symmetry_involution():
    pr = TransformParams(1, 3)
    rho, s = graded_field_grid(40.0, 256, 256)

    def ev(rq, sq):
        return (1.0 + 0.5 * rq**2 + 0.25 * (sq - 0.7) ** 2) ** -1.5

    g = field_from_function(ev, 3, rho, s, 3.0)
    gg = s_symmetry(s_symmetry(g, pr), pr)
    probe_rho = np.geomspace(0.1, 10.0, 30)
    probe_s = np.linspace(-8.0, 8.0, 30)  # even count avoids s = 0
    PP, SS = np.meshgrid(probe_rho, probe_s, indexing="ij")
    va = np.asarray(gg.point_value(PP, SS))
    vb = np.asarray(g.point_value(PP, SS))
    assert np.max(np.abs(va - vb)) < 1e-12 * np.max(vb)
    # also on the stored cell values of a plain (evaluator-free) field
    bare = field_from_function(ev, 3, rho, s, 3.0)
    bare = bare.__class__(3, rho, s, bare.values, 3.0)
    gg2 = s_symmetry(s_symmetry(bare, pr), pr)
    assert np.max(np.abs(gg2.values - bare.values)) < 1e-9 * np.max(bare.values)


def test_s_symmetry_isometry():
    rng = np.random.default_rng(23)
    pr = TransformParams(1, 3)
    mu = lebesgue_measure(3)
    rho, s = graded_field_grid(60.0, 512, 512)
    worst = 0.0
    for trial in range(10):
        a = float(rng.uniform(0.3, 3.0))
        b = float(rng.uniform(0.3, 3.0))
        s0 = float(rng.uniform(-1.0, 1.0))
        tail = float(rng.uniform(2.5, 5.0))
        amp = float(rng.uniform(0.5, 2.0))

        def ev(rq, sq, a=a, b=b, s0=s0, tail=tail, amp=amp):
            return amp * (1.0 + a * rq**2 + b * (sq - s0) ** 2) ** (-tail / 2.0)

        g = field_from_function(ev, 3, rho, s, tail)
        sg = s_symmetry(g, pr)
        na = lp_norm(g, pr.pf, mu)
        nb = lp_norm(sg, pr.pf, mu)
        worst = max(worst, abs(nb / na - 1.0))
    print(f"S isometry over 10 random fields: worst relative gap {worst:.3e}")
    assert worst < 1e-3


def test_s_symmetry_warning_for_slow_tails():
    pr = TransformParams(2, 3)
    rho, s = graded_field_grid(20.0, 64, 64)

    def ev(rq, sq):
        return (1.0 + rq**2 + sq**2) ** -1.0  # tail 2 < k + 1 = 3

    g = field_from_function(ev, 3, rho, s, 2.0)
    sg = s_symmetry(g, pr)
    assert sg.warning is not None and "unbounded" in sg.warning
    g2 = field_from_function(lambda rq, sq: (1.0 + rq**2 + sq**2) ** -2.0, 3, rho, s, 4.0)
    assert s_symmetry(g2, pr).warning is None


# ---------------------------------------------------------------------------
# Rearrangement V
# ---------------------------------------------------------------------------


def test_rearrange_idempotent_on_embedded_profile():
    f = smooth_profile(3, tail=4.0)
    rho, s = graded_field_grid(60.0, 512, 512)
    g = embed_radial(f, rho, s)
    vf = rearrange(g, out_radii=f.radii)
    mu = lebesgue_measure(3)
    rel = lp_distance(vf, f, 2.0, mu) / lp_norm(f, 2.0, mu)
    print(f"V on embedded nonincreasing profile: relative L^2 change {rel:.3e}")
    assert rel < 1e-3


def test_rearrange_recovers_ball_from_indicator():
    f = indicator_profile(3, 2.0)
    rho, s = graded_field_grid(60.0, 512, 512)
    g = embed_radial(f, rho, s)
    vf = rearrange(g)
    mu = lebesgue_measure(3)
    rel = abs(lp_norm(vf, 2.0, mu) / lp_norm(f, 2.0, mu) - 1.0)
    # equimeasurable radius from the measure of {V f >= 1/2}
    vol = float(distribution_at(vf, 0.5, radial_measure(3)))
    radius = (3.0 * vol) ** (1.0 / 3.0)
    print(f"V indicator: norm gap {rel:.3e}, recovered radius {radius:.5f}")
    assert rel < 1e-2
    assert abs(radius - 2.0) < 2e-2


def test_rearrange_order_and_homogeneity():
    rho, s = graded_field_grid(60.0, 256, 256)
    f = smooth_profile(3, tail=4.0)
    g_low = embed_radial(f, rho, s)

    def ev(rq, sq):
        base = f.evaluate(np.hypot(rq, sq))
        return base + 0.7 * np.exp(-0.5 * (rq**2 + (sq - 1.0) ** 2))

    g_high = field_from_function(ev, 3, rho, s, f.tail_exponent)
    out = default_radial_grid(512)
    v_low = rearrange(g_low, out_radii=out)
    v_high = rearrange(g_high, out_radii=out)
    # slack at 1e-8 of the peak: the bump perturbs the level-table triangle
    # spreads, moving individual level measures by ~1e-10 either way
    assert np.min(v_high.values - v_low.values) > -1e-8 * np.max(v_high.values)
    # positive homogeneity: V(c g) = c V(g) down to roundoff
    g_scaled = g_low.__class__(3, rho, s, 3.7 * g_low.values, f.tail_exponent)
    v_scaled = rearrange(g_scaled, out_radii=out)
    v_ref = rearrange(g_low.__class__(3, rho, s, g_low.values, f.tail_exponent), out_radii=out)
    gap = np.max(np.abs(v_scaled.values - 3.7 * v_ref.values)) / np.max(v_scaled.values)
    assert gap < 1e-12


def test_rearrange_contractive():
    rho, s = graded_field_grid(60.0, 256, 256)
    mu = lebesgue_measure(3)
    f = smooth_profile(3, lam=1.0, tail=4.0)
    g = smooth_profile(3, lam=1.7, tail=4.0).scaled(1.3)
    ff = embed_radial(f, rho, s)
    gg = embed_radial(g, rho, s)
    out = default_radial_grid(512)
    lhs = lp_distance(rearrange(ff, out_radii=out), rearrange(gg, out_radii=out), 2.0, mu)
    rhs = lp_distance(f, g, 2.0, mu)
    print(f"contraction: ||Vf - Vg|| = {lhs:.6f} vs ||f - g|| = {rhs:.6f}")
    assert lhs <= rhs * (1 + 1e-3)


def test_rearrange_ellipsoid_radius_law():
    # indicator of {c rho^2 + s^2/c <= R^2} rearranges to the ball with
    # R'^d = R^d c^{-(d-2)/2}; in d = 3, c = 4: R' = R / 4^{1/6}
    c, R, d = 4.0, 2.0, 3
    rho, s = graded_field_grid(12.0, 512, 512)

    def ev(rq, sq):
        return (c * rq**2 + sq**2 / c <= R * R).astype(float)

    g = field_from_function(ev, d, rho, s, 8.0)
    vf = rearrange(g)
    vol = float(distribution_at(vf, 0.5, radial_measure(d)))
    radius = (d * vol) ** (1.0 / d)
    expect = R * c ** (-(d - 2) / (2.0 * d))
    rel = abs(radius / expect - 1.0)
    print(f"ellipsoid law d=3, c=4: radius {radius:.5f} vs {expect:.5f} ({rel:.3e})")
    assert rel < 1e-2


# ---------------------------------------------------------------------------
# Concentration rescale
# ---------------------------------------------------------------------------


def test_concentration_rescale_extremizer():
    pr = TransformParams(1, 3)
    f = extremizer_profile(ExtremizerSpec(pr))
    res = concentration_rescale(f, pr)
    assert res.c > 0
    assert abs(lp_norm(res.g, pr.pf, radial_measure(3)) - 1.0) < 1e-6
    # g >= 1 on [0, c]
    probe = np.linspace(1e-6, res.c * (1 - 1e-9), 200)
    vals = np.asarray(res.g.evaluate(probe))
    assert np.min(vals) >= 1.0 - 1e-9
    print(f"extremizer rescale: c = {res.c:.5f}, weak norm = {res.weak_norm:.5f}")


def test_concentration_rescale_indicator_closed_form():
    # normalized unit-ball indicator in (1, 3): the single level is d^{1/p},
    # the weak norm is 1, and g is exactly 1 on [0, 3^{1/3}] with c = 3^{1/3}
    pr = TransformParams(1, 3)
    res = concentration_rescale(indicator_profile(3), pr)
    assert abs(res.c - 3.0 ** (1.0 / 3.0)) < 1e-9
    assert abs(res.weak_norm - 1.0) < 1e-9
    assert abs(res.t0 - 3.0**-0.5) < 1e-9
    assert abs(float(res.g.evaluate(0.5)) - 1.0) < 1e-9


def test_concentration_rescale_dilation_equivariant():
    pr = TransformParams(1, 3)
    f = smooth_profile(3, tail=3.5)
    a = concentration_rescale(f, pr)
    b = concentration_rescale(f.dilated(2.31), pr)
    assert abs(a.c / b.c - 1.0) < 1e-10
    assert abs(a.weak_norm / b.weak_norm - 1.0) < 1e-10


def test_concentration_rescale_rejects_increasing():
    pr = TransformParams(1, 3)
    r = np.array([0.5, 1.0, 2.0])
    f = RadialProfile(3, r, np.array([0.5, 1.0, 0.2]), 8.0)
    with pytest.raises(ValueError, match="nonincreasing"):
        concentration_rescale(f, pr)
    z = RadialProfile(3, r, np.zeros(3), 8.0)
    with pytest.raises(UndefinedRatioError):
        concentration_rescale(z, pr)
