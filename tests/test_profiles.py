"""Profiles, fields, and the measure-theoretic functionals built on them."""

import math
import subprocess
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import beta

from kplane import (
    AxiSymField,
    RadialProfile,
    TailDivergenceError,
    TransformParams,
    default_radial_grid,
    distribution_at,
    distribution_function,
    embed_radial,
    graded_field_grid,
    indicator_profile,
    interpolation_check,
    lebesgue_measure,
    lorentz_quasinorm,
    lp_distance,
    lp_norm,
    radial_measure,
    rearrange,
    sphere_area,
    step_profile,
)
from kplane.operators import ExtremizerSpec, extremizer_profile
from kplane.params import i_integral
from kplane.quadrature import gauss_legendre


def h_profile(d, radii=None):
    return extremizer_profile(ExtremizerSpec(TransformParams(1, d)), radii=radii)


# ---------------------------------------------------------------------------
# Grids
# ---------------------------------------------------------------------------


def test_default_radial_grid_is_geometric():
    r = default_radial_grid()
    assert len(r) == 2048
    assert abs(r[0] - 1e-4) < 1e-18 and abs(r[-1] - 1e4) < 1e-8
    steps = np.diff(np.log(r))
    assert np.all(np.abs(steps - steps[0]) < 1e-12)


def test_field_grids_cell_centered_and_symmetric():
    rho_g, s_g = graded_field_grid(10.0, 16, 8)
    assert len(rho_g) == 16 and len(s_g) == 8
    assert np.all(np.diff(rho_g) > 0) and np.all(np.diff(s_g) > 0)
    assert np.max(np.abs(s_g + s_g[::-1])) < 1e-12
    assert not np.any(s_g == 0)
    # grading packs cells toward the origin: the first node sits below the
    # first node 10 / 32 of a uniform cell-centered grid with the same count
    assert 0.0 < rho_g[0] < 10.0 / (2 * 16)


def test_field_grids_reject_odd_ns():
    for ns in (7, 9):
        with pytest.raises(ValueError, match="even"):
            graded_field_grid(10.0, 16, ns)


# ---------------------------------------------------------------------------
# RadialProfile basics
# ---------------------------------------------------------------------------


def test_profile_validation():
    r = np.array([1.0, 2.0, 3.0])
    v = np.array([3.0, 2.0, 1.0])
    with pytest.raises(ValueError):
        RadialProfile(0, r, v, 4.0)
    with pytest.raises(ValueError):
        RadialProfile(2, r[::-1].copy(), v, 4.0)
    with pytest.raises(ValueError):
        RadialProfile(2, np.array([0.0, 1.0, 2.0]), v, 4.0)
    with pytest.raises(ValueError):
        RadialProfile(2, r, np.array([1.0, -0.5, 0.0]), 4.0)
    with pytest.raises(ValueError):
        RadialProfile(2, r, np.array([1.0, np.nan, 0.0]), 4.0)
    with pytest.raises(ValueError):
        RadialProfile(2, r, v, 0.0)
    with pytest.raises(ValueError):
        RadialProfile(2, r, v, math.inf)


@pytest.mark.parametrize("last", (math.inf, math.nan))
def test_profile_rejects_non_finite_radii(last):
    # an infinite last radius used to pass the increasing check; lp_norm
    # then read inf and distribution_at inf
    with pytest.raises(ValueError, match="finite"):
        RadialProfile(3, [1.0, 2.0, last], [1.0, 0.5, 0.2], 4.0)


def test_profile_evaluate_head_interior_tail():
    f = RadialProfile(2, np.array([1.0, 4.0]), np.array([2.0, 1.0]), 3.0)
    # constant head
    assert f.evaluate(0.0) == 2.0
    assert f.evaluate(0.5) == 2.0
    # linear in log r between the nodes: at r = 2, frac = log2/log4 = 1/2
    assert abs(f.evaluate(2.0) - 1.5) < 1e-12
    # declared power tail beyond the last node
    assert abs(f.evaluate(8.0) - 1.0 * (4.0 / 8.0) ** 3) < 1e-15
    with pytest.raises(ValueError):
        f.evaluate(-1.0)
    # NaN fails every comparison, so a plain `r < 0` check lets it through
    with pytest.raises(ValueError):
        f.evaluate(math.nan)
    with pytest.raises(ValueError):
        f.evaluate(np.array([1.0, math.nan, 2.0]))


def test_profile_scaled_dilated_with_values():
    f = h_profile(3)
    g = f.scaled(2.5)
    assert np.allclose(g.values, 2.5 * f.values)
    gd = f.dilated(2.0)
    # f(mu r) exactly: the grid moves, the values stay
    assert np.allclose(gd.radii * 2.0, f.radii)
    assert gd.evaluate(0.5) == pytest.approx(f.evaluate(1.0), rel=1e-14)
    with pytest.raises(ValueError):
        f.dilated(0.0)
    gw = f.with_values(f.values**2, tail_exponent=2 * f.tail_exponent)
    assert gw.tail_exponent == 2 * f.tail_exponent
    assert gw.d == f.d


# ---------------------------------------------------------------------------
# Norms
# ---------------------------------------------------------------------------


def test_lp_norm_extremizer_closed_form():
    # int_0^inf (1 + r^2)^{-(d+1)/2} r^{d-1} dr = I(d-1, d+1) at p = (d+1)/2,
    # since p (k+1) = d + 1 with k = 1; the 1e-4 headroom is PL interpolation
    # error on the 2048-node grid (measured ~1.8e-5 at worst)
    for d in (2, 3, 4, 6):
        pr = TransformParams(1, d)
        f = h_profile(d)
        nrm = lp_norm(f, pr.pf, radial_measure(d))
        expect = i_integral(d - 1, d + 1) ** (1.0 / pr.pf)
        assert abs(nrm / expect - 1.0) < 1e-4, d


def test_lp_norm_indicator():
    for d in (2, 3, 5):
        f = indicator_profile(d, radius=1.0)
        for p in (1.0, 1.5, 2.0):
            nrm = lp_norm(f, p, radial_measure(d))
            assert abs(nrm - (1.0 / d) ** (1.0 / p)) < 1e-10, (d, p)
        # Lebesgue measure picks up the sphere area prefactor
        nrm = lp_norm(f, 2.0, lebesgue_measure(d))
        assert abs(nrm - (sphere_area(d) / d) ** 0.5) < 1e-10


def test_lp_norm_dilation_covariance():
    # ||f(mu .)||_p = mu^{-d/p} ||f||_p
    rng = np.random.default_rng(3)
    f = h_profile(3)
    p = 2.0
    base = lp_norm(f, p, radial_measure(3))
    for _ in range(5):
        mu = float(rng.uniform(0.2, 5.0))
        nrm = lp_norm(f.dilated(mu), p, radial_measure(3))
        assert abs(nrm / (mu ** (-3.0 / p) * base) - 1.0) < 1e-8


def test_lp_norm_homogeneity_and_errors():
    f = h_profile(2)
    assert lp_norm(f.scaled(3.0), 1.5, radial_measure(2)) == pytest.approx(
        3.0 * lp_norm(f, 1.5, radial_measure(2)), rel=1e-13
    )
    with pytest.raises(ValueError):
        lp_norm(f, 0.0, radial_measure(2))
    # tail exponent 2, p = 1, weight r^2: integral diverges at infinity
    with pytest.raises(TailDivergenceError):
        lp_norm(f, 1.0, radial_measure(3))


def _single_signed_piece_mp(ua, ub, sa, sb, p, m):
    # int_ua^ub s^p e^(m u) du for s >= 0 linear from sa to sb, all mpf.
    # With slope b = ds/du and kappa = m/b this is
    # e^(m ua - kappa sa) / |b| int_lo^hi s^p e^(kappa s) ds: a difference of
    # lower incomplete gammas, s^(p+1)/(p+1) 1F1(p+1; p+2; kappa s) (DLMF
    # 8.5.1), or, where kappa lo < -5 and that difference would cancel, of
    # upper ones. Either loses at most about 2 + log10(1/(m du)) of the 30
    # digits.
    if sa == sb:
        return sa**p * (mpmath.exp(m * ub) - mpmath.exp(m * ua)) / m
    slope = (sb - sa) / (ub - ua)
    kappa = m / slope
    lo, hi = min(sa, sb), max(sa, sb)
    pre = mpmath.exp(m * ua - kappa * sa) / abs(slope)
    if kappa < 0 and -kappa * lo > 5:
        k = -kappa
        return pre * (mpmath.gammainc(p + 1, k * lo) - mpmath.gammainc(p + 1, k * hi)) / k ** (p + 1)

    def lower(s):
        return s ** (p + 1) / (p + 1) * mpmath.hyp1f1(p + 1, p + 2, kappa * s)

    return pre * (lower(hi) - lower(lo))


def _pieces_power_sum_mp(ua, ub, va, vb, p, m):
    """Sum over pieces of int |v|^p e^(m u) du in 30-digit mpmath, closed form per piece.

    A piece on which v changes sign is cut at its exact zero.
    """
    total = mpmath.mpf(0)
    with mpmath.workdps(30):
        p = mpmath.mpf(float(p))
        for a, b, x, y in zip(ua, ub, va, vb):
            a, b, x, y = (mpmath.mpf(float(t)) for t in (a, b, x, y))
            if x * y < 0:
                z = a + (b - a) * x / (x - y)
                total += _single_signed_piece_mp(a, z, abs(x), 0, p, m)
                total += _single_signed_piece_mp(z, b, 0, abs(y), p, m)
            else:
                total += _single_signed_piece_mp(a, b, abs(x), abs(y), p, m)
    return total


def test_pieces_power_sum_reads_each_piece_to_rounding():
    # signed values (pieces may change sign), exact zeros at either end,
    # widths from 1e-12 to 2: the rule places each piece's nodes from its own
    # zero and rate. Every case is read against 30-digit mpmath on a spread
    # of its pieces, which GL12 on every piece read up to 5.6e-5 off.
    from kplane.profiles import _pieces_power_sum

    rng = np.random.default_rng(1601)
    for _ in range(100):
        n = int(rng.integers(1, 400))
        p, m = float(rng.uniform(0.5, 4.0)), int(rng.integers(1, 5))
        ua = rng.uniform(-5.0, 5.0, n)
        ub = ua + 10.0 ** rng.uniform(-12.0, math.log10(2.0), n)
        va, vb = rng.uniform(-2.0, 2.0, (2, n)) * 10.0 ** rng.uniform(-8.0, 0.0, (2, n))
        va[rng.uniform(size=n) < 0.2] = 0.0
        vb[rng.uniform(size=n) < 0.2] = 0.0
        pick = np.unique(np.linspace(0, n - 1, 5).astype(int))
        args = (ua[pick], ub[pick], va[pick], vb[pick])
        want = float(_pieces_power_sum_mp(*args, p, m))
        assert _pieces_power_sum(*args, p, m) == pytest.approx(want, rel=1e-14, abs=0.0)


def test_lp_norm_is_exact_on_profiles_spanning_many_decades():
    # ROADMAP item 3's probe: pieces whose value falls by up to 13 decades,
    # with a zero just beyond an end, and pieces up to log(100) wide. GL12
    # per piece read these up to 1.2e-6 off. The 300 profiles are drawn as
    # the probe draws them; every other one is read against 30-digit mpmath,
    # at about 0.2 ms a piece, so that the test stays under a second.
    rng = np.random.default_rng(11)
    worst = 0.0
    for i in range(300):
        d = int(rng.integers(2, 5))
        p = float(rng.uniform(1.2, 3))
        r = np.unique(rng.uniform(0.1, 10, rng.integers(3, 40)))
        v = np.exp(-rng.uniform(0, 30, len(r)) * rng.uniform(0, 1, len(r)) ** 2)
        f = RadialProfile(d, r, v, d / p + float(rng.uniform(0.05, 3)))
        if i % 2:
            continue
        u = f.log_radii
        with mpmath.workdps(30):
            power = mpmath.mpf(v[0]) ** p * mpmath.mpf(r[0]) ** d / d
            power += _pieces_power_sum_mp(u[:-1], u[1:], v[:-1], v[1:], p, d)
            power += mpmath.mpf(v[-1]) ** p * mpmath.mpf(r[-1]) ** d / (
                mpmath.mpf(f.tail_exponent) * p - d
            )
            want = (power * 2 * mpmath.pi ** (mpmath.mpf(d) / 2) / mpmath.gamma(mpmath.mpf(d) / 2)) ** (
                1 / mpmath.mpf(p)
            )
        worst = max(worst, abs(float(lp_norm(f, p, lebesgue_measure(d)) / want) - 1.0))
    assert worst <= 1e-13


@pytest.mark.parametrize("p", [math.inf, math.nan, 0.0, -1.0])
def test_exponent_must_be_positive_and_finite(p):
    # p = inf is outside the integrals' range, as are p <= 0 and NaN: taken
    # as a power it gives every profile an L^p "norm" of 1.0
    r = default_radial_grid(256)
    f = RadialProfile(3, r, 2.0 / (1.0 + r**2), 2.0)
    mu = lebesgue_measure(3)
    with pytest.raises(ValueError, match="positive and finite"):
        lp_norm(f, p, mu)
    with pytest.raises(ValueError, match="positive and finite"):
        lp_distance(f, f.scaled(0.5), p, mu)
    with pytest.raises(ValueError, match="positive and finite"):
        lorentz_quasinorm(f, p, 2.0, mu)


# ---------------------------------------------------------------------------
# Distribution functions
# ---------------------------------------------------------------------------


def test_distribution_indicator():
    f = indicator_profile(3, radius=2.0)
    mu = radial_measure(3)
    assert distribution_at(f, 0.5, mu) == pytest.approx(8.0 / 3.0, rel=1e-9)
    assert distribution_at(f, 1.5, mu) == 0.0


def test_distribution_extremizer_closed_form():
    # {h >= t} is the ball of radius sqrt(t^{-2/(k+1)} - 1), so against
    # r^{d-1} dr the measure is (1/d)(t^{-2/(k+1)} - 1)^{d/2}
    for k, d in ((1, 2), (1, 3), (2, 3)):
        f = extremizer_profile(ExtremizerSpec(TransformParams(k, d)))
        mu = radial_measure(d)
        for t in (0.9, 0.5, 0.1, 0.01):
            got = float(distribution_at(f, t, mu))
            expect = (t ** (-2.0 / (k + 1)) - 1.0) ** (d / 2.0) / d
            assert abs(got / expect - 1.0) < 2e-4, (k, d, t)


def test_distribution_edge_cases():
    f = h_profile(3)
    mu = radial_measure(3)
    # above the max the level set is empty
    assert distribution_at(f, 2.0, mu) == 0.0
    ts = np.array([0.8, 0.4, 0.2, 0.05])
    ds = np.asarray(distribution_at(f, ts, mu))
    assert np.all(np.diff(ds) > 0)  # antitone in t, ts is decreasing
    # thresholds must be positive; NaN is rejected, alone or among valid ones
    ind, leb = indicator_profile(3), lebesgue_measure(3)
    for bad in (math.nan, [0.5, math.nan], 0.0, -1.0):
        with pytest.raises(ValueError, match="t > 0"):
            distribution_at(ind, bad, leb)


def test_distribution_function_table():
    f = step_profile(2, [1.0, 2.0], [2.0, 1.0])
    mu = radial_measure(2)
    table = distribution_function(f, mu)
    assert np.all(np.diff(table.thresholds) < 0)
    assert np.all(np.diff(table.measures) >= 0)
    # the two plateau values appear as thresholds and carry exact measures
    j2 = int(np.argmin(np.abs(table.thresholds - 2.0)))
    assert table.measures[j2] == pytest.approx(0.5, rel=1e-9)
    j1 = int(np.argmin(np.abs(table.thresholds - 1.0)))
    assert table.measures[j1] == pytest.approx(2.0, rel=1e-9)


def test_field_distribution_matches_profile():
    # the field's 4096-node rearrangement reads {h >= t} to 5.6e-3 on this grid
    f = h_profile(3)
    mu = lebesgue_measure(3)
    rho, s = graded_field_grid(60.0, 512, 512)
    v = rearrange(embed_radial(f, rho, s), out_radii=default_radial_grid(4096))
    ts = np.geomspace(1e-3, 0.95, 25)
    got = np.asarray(distribution_at(v, ts, mu))
    expect = np.asarray(distribution_at(f, ts, mu))
    assert np.max(np.abs(got / expect - 1.0)) <= 1e-2


@pytest.mark.parametrize(
    "functional",
    [
        lambda g, mu: distribution_at(g, 0.5, mu),
        lambda g, mu: distribution_function(g, mu),
        lambda g, mu: lorentz_quasinorm(g, 2.0, 3.0, mu),
        lambda g, mu: interpolation_check(g, 2.0, 3.0, mu),
    ],
    ids=["distribution_at", "distribution_function", "lorentz_quasinorm", "interpolation_check"],
)
def test_distribution_functionals_refuse_a_field(functional):
    # they read profiles only; a field is rearranged first, on a grid the
    # caller chooses, and the error says so
    g = embed_radial(indicator_profile(3), *graded_field_grid(10.0, 16, 16))
    with pytest.raises(TypeError, match=r"rearrange\(g, out_radii\)"):
        functional(g, lebesgue_measure(3))


# ---------------------------------------------------------------------------
# The distribution engine against a dense per-piece reference
# ---------------------------------------------------------------------------


def dense_distribution(f, t, mu):
    """Measure of {f >= t}: every piece of the profile masked at every threshold.

    The per-piece arithmetic is the engine's, so the two differ only in the
    order of summation: a piece's part is an endpoint's r^m times one expm1
    of the log-width kept next to its high end, read as a fraction of
    du = log1p((r_b - r_a)/r_a).
    """
    m = mu.weight_exponent
    t = np.atleast_1d(np.asarray(t, dtype=float))
    r, v = f.radii, f.values
    ra, rb, va, vb = r[:-1], r[1:], v[:-1], v[1:]
    du = np.log1p((rb - ra) / ra)
    total = np.where(t <= v[0], f.radii[0] ** m, 0.0)
    for k, tk in enumerate(t):
        full = tk <= np.minimum(va, vb)
        cross = ~full & (tk <= np.maximum(va, vb))
        up = vb[cross] > va[cross]
        kept = (np.maximum(va, vb)[cross] - tk) / np.abs(vb - va)[cross]
        grow = np.expm1(np.where(up, -m, m) * du[cross] * kept)
        part = np.where(up, -(rb[cross] ** m) * grow, ra[cross] ** m * grow)
        total[k] += np.sum(ra[full] ** m * np.expm1(m * du[full])) + np.sum(part)
    if v[-1] > 0:
        with np.errstate(over="ignore"):
            r_t = f.radii[-1] * (v[-1] / t) ** (1.0 / f.tail_exponent)
            total += np.where(t <= v[-1], r_t**m - f.radii[-1] ** m, 0.0)
    return mu.prefactor * total / m


def _ring_mix(n, bumps, tail):
    # bumps (amplitude, log center, log width) over radii 1e-2..1e2; a center
    # away from the origin makes a ring, so the profile is not monotone
    radii = np.geomspace(1e-2, 1e2, n)
    x = np.log(radii)
    vals = sum(a * np.exp(-(((x - c) / w) ** 2)) for a, c, w in bumps)
    return RadialProfile(3, radii, vals, tail)


def _zigzag(n, low, high):
    # every threshold in (low, high] crosses every piece
    vals = np.where(np.arange(n) % 2 == 0, high, low)
    return RadialProfile(3, np.geomspace(0.1, 10.0, n), vals, 3.5)


_bump = st.tuples(st.floats(0.05, 2.0), st.floats(-4.0, 4.0), st.floats(0.2, 3.0))
_engine_profiles = st.one_of(
    st.builds(
        _ring_mix,
        st.integers(2, 40),
        st.lists(_bump, min_size=1, max_size=4),
        st.floats(1.5, 8.0),
    ),
    st.builds(
        lambda gaps, levels: step_profile(3, np.cumsum(gaps), levels[: len(gaps)]),
        st.lists(st.floats(0.05, 2.0), min_size=1, max_size=5),
        st.lists(st.floats(0.05, 3.0), min_size=5, max_size=5),
    ),
    st.builds(_zigzag, st.integers(2, 40), st.floats(0.01, 0.5), st.floats(0.6, 2.0)),
)


@settings(max_examples=200, deadline=None)
@given(f=_engine_profiles, data=st.data())
def test_distribution_engine_matches_dense_reference(f, data):
    from kplane.profiles import _DistributionEngine, _profile_distribution

    top = float(f.values.max())
    nodes = st.sampled_from(sorted(set(f.values[f.values > 0].tolist())))
    ts = data.draw(
        st.lists(st.one_of(st.floats(1e-3 * top, 1.2 * top), nodes), min_size=1, max_size=30)
    )
    ts = ts + data.draw(st.lists(st.sampled_from(ts), max_size=5))  # duplicates
    ts = data.draw(st.permutations(ts))  # in no particular order
    mu = lebesgue_measure(3)
    want = dense_distribution(f, ts, mu)
    got = _DistributionEngine(f, mu)(np.array(ts))
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
    # scalars, and arrays of any shape, read the same engine
    assert _profile_distribution(f, ts[0], mu) == got[0]
    grid = _DistributionEngine(f, mu)(np.array(ts).reshape(1, -1, 1))
    np.testing.assert_array_equal(grid.ravel(), got)


def test_distribution_engine_sweeps_dense_queries_in_blocks():
    # a zigzag of 40 pieces crossed at 2000 thresholds has more crossing
    # pairs than two batches of PAIR_BLOCK hold, so the sweep splits in three
    from kplane import profiles
    from kplane.quadrature import PAIR_BLOCK

    f = _zigzag(41, 0.1, 1.0)
    mu = lebesgue_measure(3)
    ts = np.linspace(0.11, 1.0, 2000)[::-1]
    n_pairs = 40 * len(ts)  # every piece crosses every threshold
    assert n_pairs > 2 * PAIR_BLOCK
    np.testing.assert_allclose(
        profiles._DistributionEngine(f, mu)(ts), dense_distribution(f, ts, mu), rtol=1e-13
    )


def _segment_query_cases():
    from kplane.verify import _bump_mix_profile

    def nodes(values, tail):
        return RadialProfile(3, np.arange(1.0, len(values) + 1.0), np.array(values), tail)

    rng = np.random.default_rng(7)
    cases = {
        f"ring-mix-{n}": _bump_mix_profile(rng, int(rng.integers(2, 5)), default_radial_grid(n))
        for n in (64, 384, 1024)
    }
    return cases | {
        "steps": step_profile(3, [0.05, 0.5, 1.0, 2.0, 7.0], [0.3, 2.0, 1.0, 3.0, 0.7]),
        # 0 nodes: the dyadic descent below the least level crosses pieces
        "zero-node": nodes([2.0, 0.0, 1.5, 0.4, 0.0, 0.9], 3.0),
        # the tail's d overflows on the segment [1e-300, 2e-300]
        "overflowing-tail": nodes([1.0, 2e-300, 1e-300, 1.0], 2.0),
        "subnormal-level": nodes([1.0, 2.2e-313, 1e-10], 3.0),
        # levels 4 ulps apart: Gauss nodes near the lower end round onto it
        "ulp-segment": nodes([1.0, 1.0 + 4 * 2.0**-52, 0.5], 4.0),
        # about 200 levels, each crossed by about a third of 199 pieces: the
        # (piece, node) pairs take more than one batch of PAIR_BLOCK
        "many-crossings": RadialProfile(
            3, np.geomspace(0.1, 10.0, 200), rng.uniform(0.1, 1.0, 200), 3.5
        ),
    }


def test_distribution_engine_on_radii_an_ulp_apart():
    # a spike on three radii one ulp apart: log r0, log r1 and log r2 round
    # to within an ulp of each other, so the pieces' widths must come from
    # the radii. {f >= 1/2} runs from sqrt(r0 r1) to sqrt(r1 r2), whose
    # measure under r^3 dr is r1^2 (r2^2 - r0^2)/4
    from fractions import Fraction

    r0 = 18.2537
    r1 = math.nextafter(r0, math.inf)
    r2 = math.nextafter(r1, math.inf)
    f = RadialProfile(3, np.array([r0, r1, r2]), np.array([0.0, 1.0, 0.0]), 4.0)
    want = float(Fraction(r1) ** 2 * (Fraction(r2) ** 2 - Fraction(r0) ** 2) / 4)
    assert distribution_at(f, 0.5, radial_measure(4)) == pytest.approx(want, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("case", sorted(_segment_query_cases()))
def test_engine_segment_query_is_the_threshold_query(case):
    # the finite-r Lorentz quadrature places each segment's nodes at their
    # own order (integer and non-integer r/p) and reads them, with the
    # descent's edges, by one threshold query: every node lies in its
    # segment, and the one query gives what queries of a few nodes at a
    # time give, bit for bit
    from kplane import profiles
    from kplane.quadrature import PAIR_BLOCK

    f = _segment_query_cases()[case]
    for d in sorted({2, f.d}):
        f = RadialProfile(d, f.radii, f.values, f.tail_exponent)
        engine = profiles._DistributionEngine(f, lebesgue_measure(d))
        levels = np.unique(f.values[f.values > 0])
        read = profiles._level_read(engine, levels, np.empty(0))
        for q in (1.0, 1.7):
            edges, t, _, seg = profiles._lorentz_nodes(engine, f, q, levels, read)
            lo = np.concatenate([edges[:-1], levels[:-1]])[seg]
            hi = np.concatenate([edges[1:], levels[1:]])[seg]
            assert np.all((lo <= t) & (t <= hi)), case
            nodes = np.concatenate([t, edges])
            few = [engine(part) for part in np.array_split(nodes, -(-len(nodes) // 64))]
            assert np.array_equal(engine(nodes), np.concatenate(few)), case
            if case == "many-crossings":
                ts = np.sort(nodes)
                first = ts.searchsorted(engine.s_lo, side="right")
                stop = ts.searchsorted(engine.s_hi, side="right")
                assert (stop - first).clip(0).sum() > PAIR_BLOCK
            if case == "ulp-segment":
                assert np.any(t == lo)


# ---------------------------------------------------------------------------
# Lorentz quasinorms
# ---------------------------------------------------------------------------


def test_lorentz_r_equals_p_is_lp():
    rng = np.random.default_rng(11)
    out = default_radial_grid(384)
    mu3 = radial_measure(3)
    worst = 0.0
    for trial in range(20):
        tail = float(rng.uniform(2.5, 6.0))
        lam = float(rng.uniform(0.3, 2.0))
        vals = (1.0 + (lam * out) ** 2) ** (-tail / 2.0)
        f = RadialProfile(3, out, vals, tail)
        p = float(rng.uniform(1.1, 2.2))
        if tail * p <= 3.0:
            continue
        a = lorentz_quasinorm(f, p, p, mu3)
        b = lp_norm(f, p, mu3)
        worst = max(worst, abs(a / b - 1.0))
    print(f"layer cake, worst |L^(p,p)/L^p - 1| = {worst:.3e}")
    assert worst < 1e-8


def test_lorentz_indicator_closed_forms():
    # indicator of measure V: ||f||_{p,r} = V^{1/p} (p/r)^{1/r}, weak norm V^{1/p}
    f = indicator_profile(3, radius=1.5)
    mu = radial_measure(3)
    vol = 1.5**3 / 3.0
    for p, r in ((1.5, 1.0), (2.0, 3.0), (1.2, 2.4)):
        got = lorentz_quasinorm(f, p, r, mu)
        expect = vol ** (1.0 / p) * (p / r) ** (1.0 / r)
        assert abs(got / expect - 1.0) < 1e-6, (p, r)
    weak = lorentz_quasinorm(f, 2.0, math.inf, mu)
    assert abs(weak / vol**0.5 - 1.0) < 1e-9


def test_lorentz_weak_norm_extremizer():
    # t d_h(t)^{1/p} with d_h(t) = (1/d)(t^{-2/(k+1)} - 1)^{d/2}; maximize over
    # u = t^{-2/(k+1)} >= 1 analytically at the pairing p = (d+1)/(k+1):
    # g(u)^p ~ u^{-(d+1)/2} (u - 1)^{d/2}, peak at u = d + 1
    k, d = 1, 3
    pr = TransformParams(k, d)
    f = extremizer_profile(ExtremizerSpec(pr))
    u_star = d + 1.0
    t_star = u_star ** (-(k + 1) / 2.0)
    expect = t_star * ((u_star - 1.0) ** (d / 2.0) / d) ** (1.0 / pr.pf)
    got = lorentz_quasinorm(f, pr.pf, math.inf, radial_measure(d))
    assert abs(got / expect - 1.0) < 1e-4


def test_lorentz_zero_and_divergence():
    from kplane import DivergenceError

    z = RadialProfile(3, np.array([1.0, 2.0]), np.zeros(2), 5.0)
    assert lorentz_quasinorm(z, 2.0, 2.0, radial_measure(3)) == 0.0
    f = h_profile(3)  # tail exponent 2, so d_f(t) ~ t^{-3/2} and p = 1.5 fails
    with pytest.raises(DivergenceError):
        lorentz_quasinorm(f, 1.5, 1.5, radial_measure(3))


def test_interpolation_check():
    mu = radial_measure(3)
    f = h_profile(3)
    pr = TransformParams(1, 3)
    rep = interpolation_check(f, pr.pf, pr.pf + 0.5, mu)
    assert rep.satisfied and rep.lhs <= rep.rhs * (1 + 1e-8)
    rep = interpolation_check(indicator_profile(3), 1.5, 3.0, mu)
    assert rep.satisfied
    assert type(rep.lhs) is float and type(rep.rhs) is float
    with pytest.raises(ValueError):
        interpolation_check(f, 2.0, 2.0, mu)


def test_interpolation_check_reads_one_engine(monkeypatch):
    # both Lorentz terms read one distribution engine, and the report is
    # the public calls' values bit for bit
    from kplane import profiles
    from kplane.verify import _bump_mix_profile

    builds = []

    class Counted(profiles._DistributionEngine):
        def __init__(self, *args):
            builds.append(1)
            super().__init__(*args)

    monkeypatch.setattr(profiles, "_DistributionEngine", Counted)
    rng = np.random.default_rng(1602)
    cases = [(h_profile(3), 2.0, 3.0), (step_profile(3, [0.5, 1.0, 2.0], [1.0, 3.0, 2.0]), 1.5, 4.0)]
    for _ in range(4):
        # tails of at least 2.2 keep L^p finite in d = 3 for p >= 1.4
        p = float(rng.uniform(1.4, 3.0))
        f = _bump_mix_profile(rng, 3, default_radial_grid(384))
        cases.append((f, p, p * float(rng.uniform(1.1, 4.0))))
    mu = lebesgue_measure(3)
    for f, p, q in cases:
        builds.clear()
        rep = interpolation_check(f, p, q, mu)
        assert len(builds) == 1
        weak = lorentz_quasinorm(f, p, math.inf, mu)
        assert rep.lhs == lorentz_quasinorm(f, p, q, mu) ** q
        assert rep.rhs == float(weak ** (q - p) * lp_norm(f, p, mu) ** p)


@pytest.mark.parametrize("r", [math.inf, math.nan, 1.0])
def test_interpolation_check_needs_finite_r_above_p(r):
    # r = inf would compare inf with inf and report the inequality as holding
    with pytest.raises(ValueError, match="p < r < inf"):
        interpolation_check(indicator_profile(3), 1.5, r, radial_measure(3))


@pytest.mark.parametrize("r", [-math.inf, 0.0, -1.0, math.nan])
def test_lorentz_secondary_exponent_is_inf_or_positive(r):
    f = indicator_profile(3, radius=1.5)
    with pytest.raises(ValueError, match="secondary exponent"):
        lorentz_quasinorm(f, 2.0, r, radial_measure(3))
    z = RadialProfile(3, np.array([1.0, 2.0]), np.zeros(2), 5.0)
    with pytest.raises(ValueError, match="secondary exponent"):
        lorentz_quasinorm(z, 2.0, r, radial_measure(3))


def dense_weak_sup(f, p, mu, n=400, zooms=4):
    """Brute-force sup_t t d(t)^(1/p): (plain, zoomed).

    plain is the max over the positive levels and n points inside every
    segment between them, the segment (1e-12 v_1, v_1) below the least level
    included; zoomed then narrows each segment's grid around its best point
    `zooms` times, n points each, to put a bar on the discretization.
    """
    levels = np.unique(f.values[f.values > 0])
    lo = np.concatenate([[1e-12 * levels[0]], levels[:-1]])
    hi = levels
    x = np.linspace(0.0, 1.0, n + 2)[1:-1]

    def g(t):
        return t * np.maximum(distribution_at(f, t, mu), 0.0) ** (1.0 / p)

    rows = np.arange(len(lo))
    t = lo[:, None] + (hi - lo)[:, None] * x
    vals = g(t)
    plain = max(float(g(levels).max()), float(vals.max()))
    zoomed = plain
    a, b = lo, hi
    for _ in range(zooms):
        j = vals.argmax(axis=1)
        step = (b - a) / (n + 1)
        a, b = np.maximum(t[rows, j] - step, a), np.minimum(t[rows, j] + step, b)
        t = a[:, None] + (b - a)[:, None] * x
        vals = g(t)
        zoomed = max(zoomed, float(vals.max()))
    return plain, zoomed


def _seeded_weak_cases():
    # non-monotone ring mixes, the three-bump mixes of the verify suites and the
    # extremizer h, each with an exponent p for which its L^p norm is finite
    from kplane.verify import _bump_mix_profile

    rng = np.random.default_rng(2024)
    cases = []
    for _ in range(10):
        bumps = [
            (rng.uniform(0.05, 2.0), rng.uniform(-4.0, 4.0), rng.uniform(0.2, 3.0))
            for _ in range(int(rng.integers(1, 5)))
        ]
        cases.append((_ring_mix(int(rng.integers(3, 60)), bumps, 5.0), rng.uniform(1.1, 3.0)))
    for _ in range(4):
        f = _bump_mix_profile(rng, 3, default_radial_grid(128))
        cases.append((f, 3.0 / f.tail_exponent + rng.uniform(0.1, 1.5)))
    for k, d in ((1, 3), (2, 4), (3, 4)):
        pr = TransformParams(k, d)
        h = extremizer_profile(ExtremizerSpec(pr), radii=default_radial_grid(256))
        cases.append((h, pr.pf))
    return cases


def _assert_weak_matches_dense(f, p, mu):
    got = lorentz_quasinorm(f, p, math.inf, mu)
    plain, zoomed = dense_weak_sup(f, p, mu)
    assert got >= plain * (1.0 - 1e-15)
    assert abs(got / zoomed - 1.0) <= 1e-12


@pytest.mark.parametrize("case", range(17))
def test_lorentz_weak_norm_is_the_dense_sup(case):
    f, p = _seeded_weak_cases()[case]
    _assert_weak_matches_dense(f, p, lebesgue_measure(f.d))


@settings(max_examples=40, deadline=None)
@given(
    gaps=st.lists(st.floats(0.02, 3.0), min_size=1, max_size=5),
    levels=st.lists(st.floats(0.05, 3.0), min_size=5, max_size=5),
    p=st.floats(1.05, 3.0),
)
def test_lorentz_weak_norm_is_the_dense_sup_on_steps(gaps, levels, p):
    # jump-encoded steps: every jump is a near-vertical piece
    f = step_profile(3, np.cumsum(gaps), levels[: len(gaps)])
    _assert_weak_matches_dense(f, p, radial_measure(3))


def test_lorentz_weak_norm_below_the_least_level():
    # f = 1 up to r = 1, then linear in log r down to 0 at r = e^10: for
    # t <= 1, d(t) = e^(30 (1 - t)) / 3 under r^2 dr, so at p = 2 the sup of
    # t d(t)^(1/2) sits at t = 1/15, below every positive node value
    f = RadialProfile(3, np.array([1.0, math.exp(10.0)]), np.array([1.0, 0.0]), 5.0)
    mu = radial_measure(3)
    want = math.exp(14.0) / (15.0 * math.sqrt(3.0))
    assert abs(lorentz_quasinorm(f, 2.0, math.inf, mu) / want - 1.0) < 1e-12
    assert interpolation_check(f, 2.0, 3.0, mu).satisfied


def _long_piece_and_ring(m, length, top, ring, ring_width, p):
    # f = 1 at r = 1, linear in log r down to top * 0.01 at r = e^length, then
    # a thin ring at value `ring` just outside: on the segment below 1 the
    # ring's measure is a constant beside the long decreasing piece, so
    # h = p d + t d' goes + - + and the segment's ends show no maximum
    big = math.exp(length)
    radii = big * np.array([math.exp(-length), 1.0, 1.0 + 1e-12, 1.0 + 1e-12 + ring_width,
                            1.0 + 2e-12 + ring_width])
    return RadialProfile(m, radii, np.array([1.0, 0.01 * top, ring, ring, 0.01 * top]), 5.0)


def test_lorentz_weak_norm_finds_a_maximum_hidden_inside_a_segment():
    # the sup is t d(t)^(1/2) near t = 1/15 (about 5.3e4); the level values
    # only reach 3.3e4, at t = 1.5
    f = _long_piece_and_ring(3, 10.0, 1.0, 1.5, math.exp(-10.0), 2.0)
    mu = radial_measure(3)
    assert lorentz_quasinorm(f, 2.0, math.inf, mu) > 5.3e4
    _assert_weak_matches_dense(f, 2.0, mu)
    assert interpolation_check(f, 2.0, 3.0, mu).satisfied


def test_lorentz_weak_norm_is_the_dense_sup_beside_a_ring():
    # seeded draws: about one in five hides its sup inside a segment
    rng = np.random.default_rng(7)
    cases = [(1, 1.0, 2.225073858507e-311, 1.0, 0.0, 2.0)]  # a subnormal least level
    for _ in range(40):
        cases.append((int(rng.integers(1, 5)), rng.uniform(0.5, 12.0), rng.uniform(0.0, 1.0),
                      rng.uniform(0.2, 5.0), rng.uniform(-25.0, 0.0), rng.uniform(1.05, 4.0)))
    for m, length, top, ring, width, p in cases:
        f = _long_piece_and_ring(m, length, top, ring, math.exp(max(width, -m * length)), p)
        _assert_weak_matches_dense(f, p, radial_measure(m))


@settings(max_examples=100, deadline=None)
@given(f=_engine_profiles, data=st.data())
def test_engine_slope_is_the_derivative_inside_segments(f, data):
    from kplane.profiles import _DistributionEngine

    levels = np.unique(f.values[f.values > 0])
    # segments too narrow for a difference quotient are left out, and so are
    # those hundreds of decades under the peak, where the tail's d overflows
    wide = np.flatnonzero(
        (np.diff(levels) > 1e-3 * levels[1:]) & (levels[:-1] > 1e-12 * levels[-1])
    )
    if not len(wide):
        return
    i = data.draw(st.sampled_from(wide.tolist()))
    a, b = levels[i], levels[i + 1]
    t = a + (b - a) * data.draw(st.floats(0.2, 0.8))
    lo, hi = t - 1e-5 * (b - a), t + 1e-5 * (b - a)
    dist = _DistributionEngine(f, lebesgue_measure(3))
    d, t_slope = dist(np.array([t]), slope=True)
    slope = t_slope / t
    central = (dist(np.array([hi])) - dist(np.array([lo]))) / (hi - lo)
    assert abs(central[0] - slope[0]) <= 1e-6 * abs(slope[0]) + 1e-9 * d[0] / (b - a)
    # the plain query is the first half of the slope query, bit for bit
    assert dist(np.array([t]))[0] == d[0]


def test_lorentz_weak_norm_raises_no_numpy_warning():
    # a ring peaked at one node has d = 0 at its top level; the steps put
    # their top level on a near-vertical jump piece inside the profile
    cases = [
        RadialProfile(3, np.array([1.0, 2.0, 4.0]), np.array([0.5, 2.0, 0.5]), 4.0),
        RadialProfile(3, np.array([1.0, 2.0]), np.array([0.0, 1.0]), 6.0),
        step_profile(3, [0.5, 1.0, 2.0], [1.0, 3.0, 2.0]),
        step_profile(3, [1e-3, 1.0], [0.2, 5.0]),
    ] + [f for f, _ in _seeded_weak_cases()[:10]]
    mu = lebesgue_measure(3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f in cases:
            for p in (1.2, 2.0, 3.0):
                assert lorentz_quasinorm(f, p, math.inf, mu) > 0.0


@pytest.mark.parametrize("last, tail", [(1.0, 6.0), (1.0, 2.0), (1e-10, 3.0)])
def test_lorentz_subnormal_least_level(last, tail):
    # the dyadic descent from 2.2e-313 underflows to 0, and the tail's measure
    # overflows at and below the least level; the profile with least level
    # 1e-100 in its place has the same norms to rounding
    radii = np.array([1.0, 2.0, 3.0])
    f = RadialProfile(3, radii, np.array([1.0, 2.2e-313, last]), tail)
    g = RadialProfile(3, radii, np.array([1.0, 1e-100, last]), tail)
    mu = lebesgue_measure(3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lorentz = lorentz_quasinorm(f, 2.0, 3.0, mu)
        assert math.isfinite(lorentz)
        assert interpolation_check(f, 2.0, 3.0, mu).satisfied
        for r, got in ((3.0, lorentz), (math.inf, lorentz_quasinorm(f, 2.0, math.inf, mu))):
            assert abs(got / lorentz_quasinorm(g, 2.0, r, mu) - 1.0) <= 1e-12


def test_lorentz_level_segment_where_the_tail_measure_overflows():
    # on the segment [1e-300, 2e-300] the tail's d overflows; d^(1/p) t is
    # read from its leading term, so the norm is finite and equals that of
    # the profile with 2e-100 and 1e-100 in place of 2e-300 and 1e-300.
    # The value is _lorentz_power_reference's for g; one GL24 panel on the
    # segment [2e-100, 1], 100 decades wide, read 20.01373958
    radii = np.array([1.0, 2.0, 3.0, 4.0])
    mu = lebesgue_measure(3)
    f = RadialProfile(3, radii, np.array([1.0, 2e-300, 1e-300, 1.0]), 2.0)
    g = RadialProfile(3, radii, np.array([1.0, 2e-100, 1e-100, 1.0]), 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = lorentz_quasinorm(f, 2.0, 3.0, mu)
    assert math.isfinite(got)
    assert abs(got / lorentz_quasinorm(g, 2.0, 3.0, mu) - 1.0) <= 1e-12
    assert abs(got - 20.02908086529) <= 1e-8
    assert abs(got - _lorentz_power_reference(g, 2.0, 3.0, mu) ** (1.0 / 3.0)) <= 1e-12 * got


def _lorentz_power_reference(f, p, r, mu):
    """p int_0^inf d^(r/p) t^(r - 1) dt by composite 64-node Gauss-Legendre.

    Each level segment is cut into panels graded by factors of 16 toward
    both ends, down to 16^-10 of its width, and toward its lower end
    further, until the first panel is no wider than that end; below the
    least level v_1 the segments run down to 16^-15 v_1 the same way, and
    the tail's closed form, or the constant d, takes over below that. d
    comes from the distribution engine, which the tests above check.
    """
    from kplane import profiles

    levels = profiles._positive_levels(f)
    engine = profiles._DistributionEngine(f, mu)
    x, w = gauss_legendre(64, 0.0, 1.0)
    toward_hi = 1.0 - np.ldexp(1.0, -4 * np.arange(1, 11))
    below = levels[0] * np.ldexp(1.0, -4 * np.arange(16))[::-1]
    starts, ends = [], []
    for lo, hi in zip(np.append(below[:-1], levels[:-1]), np.append(below[1:], levels[1:])):
        k = max(math.ceil(math.log2((hi - lo) / lo) / 4), 0) + 1
        cuts = np.concatenate([[0.0], np.ldexp(1.0, -4 * np.arange(k, 0, -1)), toward_hi])
        a = lo + (hi - lo) * cuts
        a[0] = lo
        starts.append(a)
        ends.append(np.append(a[1:], hi))
    a, b = np.concatenate(starts), np.concatenate(ends)
    t = a[:, None] + (b - a)[:, None] * x
    d = np.maximum(engine(t.ravel()).reshape(t.shape), 0.0)
    total = math.fsum(((d ** (1.0 / p) * t) ** r / t @ w) * (b - a))
    q, m = r / p, mu.weight_exponent
    if f.values[-1] > 0:
        c1 = profiles._tail_coeffs(f, mu)[0]
        alpha = r * (1.0 - m / (p * f.tail_exponent))
        total += c1**q * below[0] ** alpha / alpha
    else:
        total += float(engine(below[:1])[0]) ** q * below[0] ** r / r
    return p * total


@pytest.mark.parametrize("tail", [2.0, 6.0])
def test_lorentz_layer_cake_across_ten_decades(tail):
    # the level segment [1e-10, 1] spans ten decades, with the tail's
    # fractional power of t inside; one GL24 panel on it read L(2,2) 1%
    # off ||f||_2 at tail 2 and 1e-5 off at tail 6
    f = RadialProfile(3, np.array([1.0, 2.0, 3.0]), np.array([1.0, 1e-10, 1.0]), tail)
    mu = lebesgue_measure(3)
    assert abs(lorentz_quasinorm(f, 2.0, 2.0, mu) / lp_norm(f, 2.0, mu) - 1.0) <= 1e-12


def test_lorentz_norms_are_exact_on_profiles_spanning_many_decades():
    # ROADMAP item 3's probe, drawn as test_lp_norm_is_exact_on_profiles_
    # spanning_many_decades draws it. L(p,p) is ||f||_p by the layer cake,
    # and lp_norm reads these to rounding; GL24 on every level segment read
    # them up to 3.8e-2 off, 145 of 300 above 1e-12. Every fourth profile's
    # L(p,r), r = 0.7 p, 1.7 p and 3.3 p in turn, is read against
    # _lorentz_power_reference; GL24 read these up to 3.4e-3 off
    rng = np.random.default_rng(11)
    worst_pp = worst_pr = 0.0
    for i in range(300):
        d = int(rng.integers(2, 5))
        p = float(rng.uniform(1.2, 3))
        r = np.unique(rng.uniform(0.1, 10, rng.integers(3, 40)))
        v = np.exp(-rng.uniform(0, 30, len(r)) * rng.uniform(0, 1, len(r)) ** 2)
        f = RadialProfile(d, r, v, d / p + float(rng.uniform(0.05, 3)))
        mu = lebesgue_measure(d)
        worst_pp = max(worst_pp, abs(lorentz_quasinorm(f, p, p, mu) / lp_norm(f, p, mu) - 1.0))
        if i % 4 == 0:
            q = p * (0.7, 1.7, 3.3)[i // 4 % 3]
            want = _lorentz_power_reference(f, p, q, mu) ** (1.0 / q)
            worst_pr = max(worst_pr, abs(lorentz_quasinorm(f, p, q, mu) / want - 1.0))
    assert worst_pp <= 1e-12
    assert worst_pr <= 1e-13


def _with_inserted_nodes(f, per_piece=32, head=8):
    """f with per_piece nodes inserted in each piece, linearly in log r, and
    head nodes at v_0 below r_0: the same canonical reading."""
    u, v = f.log_radii, f.values
    t = np.arange(1, per_piece + 1) / (per_piece + 1)
    u_in = u[:-1, None] + (u[1:] - u[:-1])[:, None] * t
    v_in = v[:-1, None] + (v[1:] - v[:-1])[:, None] * t
    u_all = np.concatenate([u[0] - np.arange(head, 0, -1) / 4.0, u, u_in.ravel()])
    v_all = np.concatenate([np.full(head, v[0]), v, v_in.ravel()])
    order = np.argsort(u_all, kind="stable")
    return RadialProfile(f.d, np.exp(u_all[order]), v_all[order], f.tail_exponent)


@pytest.mark.parametrize(
    "functional, bound",
    (("lp_norm", 2e-15), ("lp_distance", 2e-15), ("distribution_at", 1e-12), ("lorentz", 1e-14)),
)
def test_node_insertion_leaves_the_functionals_unchanged(functional, bound):
    # inserting nodes on a piece, at values linear in log r, and head nodes
    # at v_0 below r_0 leaves the canonical reading as it is, so a
    # functional that is exact for the reading keeps its value to rounding.
    # The profiles are test_lorentz_norms_are_exact_on_profiles_spanning_
    # many_decades' first 60; lp_distance reads each against a second
    # profile on its radii, both refined on one grid. distribution_at reads
    # 50 levels from e^-2 of the least node value up to the largest, and
    # the Lorentz norms r = p, 2p and inf. Worst changes: 4.4e-16, 6.7e-16,
    # 8.7e-14 and 3.1e-15
    rng = np.random.default_rng(11)
    other = np.random.default_rng(12)
    worst = 0.0
    for _ in range(60):
        d = int(rng.integers(2, 5))
        p = float(rng.uniform(1.2, 3))
        r = np.unique(rng.uniform(0.1, 10, rng.integers(3, 40)))
        v = np.exp(-rng.uniform(0, 30, len(r)) * rng.uniform(0, 1, len(r)) ** 2)
        f = RadialProfile(d, r, v, d / p + float(rng.uniform(0.05, 3)))
        mu = lebesgue_measure(d)
        fine = _with_inserted_nodes(f)
        if functional == "lp_norm":
            got, want = lp_norm(fine, p, mu), lp_norm(f, p, mu)
        elif functional == "lp_distance":
            w = np.exp(-other.uniform(0, 30, len(r)) * other.uniform(0, 1, len(r)) ** 2)
            g = RadialProfile(d, r, w, d / p + float(other.uniform(0.05, 3)))
            got = lp_distance(fine, _with_inserted_nodes(g), p, mu)
            want = lp_distance(f, g, p, mu)
        elif functional == "distribution_at":
            levels = np.exp(other.uniform(np.log(v.min()) - 2.0, np.log(v.max()), 50))
            got, want = distribution_at(fine, levels, mu), distribution_at(f, levels, mu)
        else:
            rs = (p, 2 * p, math.inf)
            got = np.array([lorentz_quasinorm(fine, p, q, mu) for q in rs])
            want = np.array([lorentz_quasinorm(f, p, q, mu) for q in rs])
        worst = max(worst, float(np.max(np.abs(np.asarray(got) / want - 1.0))))
    print(f"{functional}: worst change under node insertion {worst:.2e}")
    assert worst <= bound


@pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6])
def test_tails_near_divergence_are_read_to_rounding(eps):
    # one node under r^2 dr, whose tail term v^p r^3 / (gamma p - 3) nearly
    # diverges; gamma p - 3 formed in floats read ||f||_p 1.1e-10 off at
    # eps = 1e-6. lp_distance and the Lorentz tail take the same difference
    p, gamma = 1.7, 3.0 / 1.7 + eps
    mu = radial_measure(3)
    f = RadialProfile(3, np.array([1.0]), np.array([1.0]), gamma)
    g = RadialProfile(3, np.array([1.0]), np.array([3.0]), gamma)
    with mpmath.workdps(40):
        g_p, p_mp = mpmath.mpf(gamma) * mpmath.mpf(p), mpmath.mpf(p)
        want = float((1 / mpmath.mpf(3) + 1 / (g_p - 3)) ** (1 / p_mp))
    assert lp_norm(f, p, mu) == pytest.approx(want, rel=1e-14, abs=0.0)
    assert lp_distance(g, f, p, mu) == pytest.approx(2.0 * want, rel=1e-14, abs=0.0)
    assert lorentz_quasinorm(f, p, p, mu) == pytest.approx(want, rel=1e-14, abs=0.0)


def test_lorentz_weak_norm_on_subnormal_value_changes():
    # pieces whose value change is subnormal, where d' = m e* du/dv overflows;
    # the weak norm is homogeneous, so it is 1e-300 times that of f * 1e300
    f = RadialProfile(
        3, np.array([1.0, 2.0, 3.0, 4.0]), np.array([0.0, 2.2e-311, 0.0, 1e-310]), 6.0
    )
    mu = lebesgue_measure(3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        quiet = lorentz_quasinorm(f, 2.0, math.inf, mu)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert lorentz_quasinorm(f, 2.0, math.inf, mu) == quiet
    scaled = lorentz_quasinorm(f.scaled(1e300), 2.0, math.inf, mu)
    assert abs(quiet / (1e-300 * scaled) - 1.0) <= 1e-12


@pytest.mark.parametrize(
    "modules",
    (
        "kplane.profiles",
        "kplane.operators",
        "kplane.flow",
        "kplane.quadrature",
        # what the benchmark's workloads import
        "kplane.flow, kplane.mc, kplane.operators, kplane.params, kplane.pointfields, kplane.profiles",
    ),
    ids=("profiles", "operators", "flow", "quadrature", "workloads"),
)
def test_import_loads_no_scipy_optimize_linalg_or_sparse(modules):
    # the functionals, T and the flow step run on numpy and scipy.special
    code = (
        f"import sys, {modules}; "
        "print([m for m in ('scipy.optimize', 'scipy.linalg', 'scipy.sparse') if m in sys.modules])"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


@settings(max_examples=25, deadline=None)
@given(
    breaks=st.lists(
        st.floats(0.1, 8.0, allow_nan=False), min_size=1, max_size=4, unique=True
    ),
    levels=st.lists(st.floats(0.05, 3.0, allow_nan=False), min_size=4, max_size=4),
    p=st.floats(1.05, 2.5),
)
# breaks one ulp apart: closer than the node pair that encodes each jump
@example(breaks=[0.1, 0.10000000000000002], levels=[1.0, 1.0, 1.0, 1.0], p=2.0)
def test_lorentz_layer_cake_on_steps(breaks, levels, p):
    breaks = sorted(breaks)
    f = step_profile(2, breaks, levels[: len(breaks)])
    mu = radial_measure(2)
    a = lorentz_quasinorm(f, p, p, mu)
    b = lp_norm(f, p, mu)
    assert abs(a - b) <= 1e-8 * max(b, 1e-12)


# ---------------------------------------------------------------------------
# Distances
# ---------------------------------------------------------------------------


def test_lp_distance_basics():
    mu = radial_measure(3)
    f = h_profile(3)
    assert lp_distance(f, f, 2.0, mu) == pytest.approx(0.0, abs=1e-15)
    # hand-checkable pair: indicators of radius 1 and 2 differ on the shell
    a = indicator_profile(3, 1.0)
    b = indicator_profile(3, 2.0)
    dist = lp_distance(a, b, 2.0, mu)
    assert abs(dist - (7.0 / 3.0) ** 0.5) < 1e-6


def test_lp_distance_triangle_inequality():
    rng = np.random.default_rng(7)
    mu = radial_measure(2)
    out = default_radial_grid(256)
    profs = []
    for _ in range(3):
        tail = float(rng.uniform(3.0, 6.0))
        vals = (1.0 + (float(rng.uniform(0.5, 2.0)) * out) ** 2) ** (-tail / 2.0)
        profs.append(RadialProfile(2, out, float(rng.uniform(0.5, 2.0)) * vals, tail))
    f, g, h = profs
    p = 1.7
    assert lp_distance(f, h, p, mu) <= (
        lp_distance(f, g, p, mu) + lp_distance(g, h, p, mu)
    ) * (1 + 1e-10)


def _lp_distance_on_union(f, g, p, measure):
    """lp_distance's formula on the merged grid, written out: union, log, evaluate."""
    from kplane.profiles import _pieces_power_sum, _unmatched_tail_power

    m = measure.weight_exponent
    r_all = np.union1d(f.radii, g.radii)
    u = np.log(r_all)
    vf, vg = f.evaluate(r_all), g.evaluate(r_all)
    diff = vf - vg
    total = _pieces_power_sum(u[:-1], u[1:], diff[:-1], diff[1:], p, m)
    total += abs(vf[0] - vg[0]) ** p * r_all[0] ** m / m
    r_max, af, ag = r_all[-1], vf[-1], vg[-1]
    if f.tail_exponent == g.tail_exponent or af == 0 or ag == 0:
        gam = f.tail_exponent if af > 0 else g.tail_exponent
        total += abs(af - ag) ** p * r_max**m / (gam * p - m)
    else:
        total += _unmatched_tail_power(af, f.tail_exponent, ag, g.tail_exponent, p, m, r_max)
    return (measure.prefactor * total) ** (1.0 / p)


@pytest.mark.parametrize("case", ("crossing", "matched-tails", "unmatched-tails", "zero-tail", "copied-radii"))
def test_lp_distance_on_one_grid_matches_the_union_formula(case):
    # profiles on equal radii skip the merge and read their own radii, log
    # radii and values; the distance is the union formula's bit for bit
    mu = lebesgue_measure(3)
    r = default_radial_grid(512)
    f = RadialProfile(3, r, (1.0 + r**2) ** -1.0, 2.0)
    g = {
        # the difference changes sign once, tails of one exponent
        "crossing": RadialProfile(3, r, 0.9 * (1.0 + (0.7 * r) ** 2) ** -1.0, 2.0),
        "matched-tails": f.scaled(0.75),
        # a sign change and tails of two exponents (geometric panels)
        "unmatched-tails": RadialProfile(3, r, 1.3 * (1.0 + r**2) ** -1.5, 3.0),
        "zero-tail": RadialProfile(3, r, np.where(r < 30.0, 1.1 / (1.0 + r), 0.0), 5.0),
        "copied-radii": RadialProfile(3, r.copy(), 0.9 * (1.0 + (0.7 * r) ** 2) ** -1.0, 2.0),
    }[case]
    assert (g.radii is f.radii) == (case != "copied-radii")
    got = lp_distance(f, g, 2.5, mu)
    assert got > 0
    assert got == _lp_distance_on_union(f, g, 2.5, mu)
    assert lp_distance(g, f, 2.5, mu) == _lp_distance_on_union(g, f, 2.5, mu)


def test_lp_distance_mismatched_tails():
    mu = radial_measure(2)
    out = default_radial_grid(128)
    f = RadialProfile(2, out, (1.0 + out**2) ** -2.0, 4.0)
    g = RadialProfile(2, out, (1.0 + out**2) ** -3.0, 6.0)
    d_fg = lp_distance(f, g, 1.0, mu)
    # cross check against a norm computed through a merged profile of |f - g|:
    # here f >= g everywhere, so ||f - g||_1 = ||f||_1 - ||g||_1
    expect = lp_norm(f, 1.0, mu) - lp_norm(g, 1.0, mu)
    assert abs(d_fg / expect - 1.0) < 1e-7


@pytest.mark.parametrize(
    "tf, tg, p, ratio",
    [(4.0, 2.5, 1.7, 1.5), (5.0, 3.0, 1.3, 1.1), (3.0, 2.0, 2.5, 2.0)],
)
def test_lp_distance_tails_that_cross_beyond_the_grid(tf, tg, p, ratio):
    # af (r_max/r)^tf - ag (r_max/r)^tg changes sign at r* = r_max ratio^(1/(tf - tg)),
    # 1.31 r_max in the first case; dyadic GL12 panels across r* read these
    # tails 1.0e-4, 1.2e-4 and 3.4e-9 off. One-node profiles leave only the
    # closed-form head and the tail.
    r_max, ag = 1e4, 1e-8
    af = ratio * ag
    f = RadialProfile(3, np.array([r_max]), np.array([af]), tf)
    g = RadialProfile(3, np.array([r_max]), np.array([ag]), tg)
    with mpmath.workdps(30):
        a, b, x, y, q = (mpmath.mpf(t) for t in (af, tf, ag, tg, p))
        w_star = mpmath.log(a / x) / (b - y)
        tail = mpmath.quad(
            lambda w: abs(a * mpmath.exp(-b * w) - x * mpmath.exp(-y * w)) ** q * mpmath.exp(3 * w),
            [0, w_star, mpmath.inf],
        )
        power = (abs(a - x) ** q / 3 + tail) * mpmath.mpf(r_max) ** 3
        want = (4 * mpmath.pi * power) ** (1 / q)
    for got in (lp_distance(f, g, p, lebesgue_measure(3)), lp_distance(g, f, p, lebesgue_measure(3))):
        assert abs(got / float(want) - 1.0) <= 1e-13


# ---------------------------------------------------------------------------
# Fields
# ---------------------------------------------------------------------------


def test_cell_measures_hand_check():
    # 2x2 cells filling [0, 2] x [-1, 1] in d = 3; the total must be the
    # cylinder volume int 2 pi rho drho ds = 8 pi and the rows split 1 : 3
    g = AxiSymField(
        3,
        np.array([0.5, 1.5]),
        np.array([-0.5, 0.5]),
        np.ones((2, 2)),
        tail_exponent=5.0,
    )
    cm = g.cell_measures()
    assert cm.shape == (2, 2)
    assert abs(cm.sum() - 8 * math.pi) < 1e-12
    assert abs(cm[0, 0] - math.pi) < 1e-12
    assert abs(cm[1, 0] - 3 * math.pi) < 1e-12


def test_embed_radial_norm_matches_profile():
    pr = TransformParams(1, 3)
    f = h_profile(3)
    rho, s = graded_field_grid(60.0, 256, 256)
    g = embed_radial(f, rho, s)
    nf = lp_norm(g, pr.pf, lebesgue_measure(3))
    expect = (sphere_area(3) * i_integral(2, 4)) ** (1.0 / pr.pf)
    assert abs(nf / expect - 1.0) < 1e-4


def test_field_norm_integrates_evaluator_for_every_p():
    # ||h||_p^p = 4 pi int r^2 (1 + r^2)^-p dr = 4 pi B(3/2, p - 3/2) / 2 in
    # R^3; one field holds it for both p, as power-mean values could not
    f = h_profile(3)
    mu = lebesgue_measure(3)
    rho, s = graded_field_grid(60.0, 256, 256)
    g = embed_radial(f, rho, s)
    for p in (2.0, 3.0):
        expect = 2.0 * math.pi * beta(1.5, p - 1.5)
        assert abs(lp_norm(g, p, mu) ** p / expect - 1.0) < 1e-4
    # a field with values only sums its cells
    bare = AxiSymField(3, rho, s, g.values, g.tail_exponent)
    cells = float(np.sum(g.values**2 * bare.cell_measures())) + bare.exterior_norm_power(2.0)
    assert lp_norm(bare, 2.0, mu) ** 2 == pytest.approx(cells, rel=1e-12)


def test_embed_radial_point_values():
    f = h_profile(3)
    rho, s = graded_field_grid(20.0, 64, 64)
    g = embed_radial(f, rho, s)
    assert g.evaluator is not None
    # evaluator reads the profile along circles rho^2 + s^2 = r^2
    val = g.point_value(np.array([3.0]), np.array([4.0]))
    assert float(val[0]) == pytest.approx(f.evaluate(5.0), rel=1e-12)


def test_field_validation():
    rho = np.array([0.5, 1.5])
    s = np.array([-0.5, 0.5])
    vals = np.ones((2, 2))
    with pytest.raises(ValueError):
        AxiSymField(1, rho, s, vals, 3.0)
    with pytest.raises(ValueError):
        AxiSymField(3, rho, np.array([-0.5, 0.0, 0.5]), np.ones((2, 3)), 3.0)
    with pytest.raises(ValueError):
        AxiSymField(3, rho, np.array([-0.7, 0.5]), vals, 3.0)
    with pytest.raises(ValueError):
        AxiSymField(3, rho, s, -vals, 3.0)


# (rho edges, s edges, triangle classes present, level shift in bins) for the
# level-table test below
_LEVEL_TABLE_GRIDS = {
    "regular": (
        np.array([0.0, 0.2, 0.45, 0.7, 1.0]),
        np.array([-1.0, -0.5, 0.0, 0.6, 1.0]),
        {"regular"},
        1,
    ),
    "ties": (np.linspace(0.0, 0.01, 201), np.linspace(-1.0, 1.0, 21), {"low tie", "high tie"}, 9),
    "flat": (np.linspace(0.0, 0.01, 101), np.linspace(-0.01, 0.01, 201), {"flat"}, 9),
    "mixed": (
        np.concatenate([[0.0, 0.2, 0.2 + 1e-6], 0.45 + 5e-5 * np.arange(6), [0.7, 1.0]]),
        np.concatenate([[-1.0, -0.5, -0.5 + 1e-6], 5e-5 * np.arange(6), [0.6, 1.0]]),
        {"regular", "low tie", "high tie", "flat"},
        9,
    ),
}


@pytest.mark.parametrize("grid", list(_LEVEL_TABLE_GRIDS))
def test_level_table_linear_field_every_triangle_class(grid):
    """The level table of a linear field against its closed-form coverage.

    On R^2 (d = 2) the field f = 1 + rho - g s (g = 0.37) is exactly linear
    on every triangle of a box [0, P] x [-S, S], so the only errors are the
    table's own, all set by the log bin width L:
    - every jump sits within one bin of its level, a tie moves its middle
      value onto the tied end (at most 4 bins of its top value) and a flat
      triangle is a step at its middle value (spread at most 8 bins); so
      the table at level t lies between the exact coverages at t e^{nL} and
      t e^{-nL}, with n = 1 when all triangles are regular and 9 otherwise;
    - sharing a jump at level v linearly between two geometric bin edges
      moves its first and second moments by up to v L^2 / 8 and v^2 L^2 / 2,
      so a curvature jump k errs by up to |k| v^2 L^2 / 4 below it and a
      slope jump sigma by up to |sigma| v L^2 / 8; the tolerance sums these
      over all triangles, plus 1e-12 of the box measure for rounding.

    Cells 1e-6 to 1e-4 wide have vertex gaps below the 4 L c tie threshold.
    The pure grids hold one class each, so a class's error is not hidden in
    the coverage slope of the others; the mixed grid holds all four. With
    the s-slope negative the lowest and highest corner of a cell are off
    the diagonal its two triangles share, so their ties do not cancel in
    pairs.
    """
    from kplane.profiles import _field_level_table

    re, se, expected, shift_bins = _LEVEL_TABLE_GRIDS[grid]
    g = 0.37
    big_p, big_s = re[-1], se[-1]
    rr, ss = np.meshgrid(re, se, indexing="ij")
    corners = 1.0 + rr - g * ss
    levels, measures, _ = _field_level_table(2, re, se, corners)
    log_step = math.log(levels[1] / levels[0])

    def coverage(t):
        # |S^0| = 2 times the area of {s < (1 + rho - t) / g} in the box: the
        # s-extent u0 + rho / g clipped to [0, 2S], integrated over rho
        def ramp(u):
            w = 2.0 * big_s
            return np.where(u < 0, 0.0, np.where(u <= w, u**2 / 2.0, w**2 / 2.0 + w * (u - w)))

        u0 = (1.0 - t) / g + big_s
        return 2.0 * g * (ramp(u0 + big_p / g) - ramp(u0))

    # the triangle classes with the table's own thresholds, and the sharing
    # error sum: |k| v^2 over the regular triangles' three jumps
    # 2 m / prod_{j != i} |v_i - v_j|, and over a tie's jumps 2 m / s^2 at a
    # and c and its slope jump 2 m / s at the tied end, s = c - a
    m = np.diff(re)[:, None] * np.diff(se)[None, :]  # |S^0| x triangle area
    x, z = corners[:-1, :-1], corners[1:, 1:]
    classes = {"regular": 0, "low tie": 0, "high tie": 0, "flat": 0}
    sharing = 0.0
    for y in (corners[1:, :-1], corners[:-1, 1:]):
        a, b, c = np.sort(np.stack([x, y, z]), axis=0)
        spread = c - a
        flat = spread <= 8.0 * log_step * c
        low = ~flat & (b - a <= 4.0 * log_step * c)
        high = ~flat & ~low & (c - b <= 4.0 * log_step * c)
        regular = ~flat & ~low & ~high
        classes["flat"] += int(flat.sum())
        classes["low tie"] += int(low.sum())
        classes["high tie"] += int(high.sum())
        classes["regular"] += int(regular.sum())
        with np.errstate(divide="ignore", invalid="ignore"):
            k_v2 = 2.0 * m * (
                a**2 / ((b - a) * spread) + b**2 / ((b - a) * (c - b)) + c**2 / (spread * (c - b))
            )
            tie_v2 = 2.0 * m * (a**2 + c**2) / spread**2 + m * c / spread
        sharing += float(np.sum(k_v2[regular]) + np.sum(tie_v2[low | high]))
    assert {name for name, n in classes.items() if n > 0} == expected, classes

    shift = math.exp(shift_bins * log_step)
    slack = sharing * log_step**2 / 4.0 + 1e-12 * measures[0]
    assert abs(measures[0] - coverage(levels[0])) <= slack
    assert np.all(measures <= coverage(levels / shift) + slack)
    assert np.all(measures >= coverage(levels * shift) - slack)
