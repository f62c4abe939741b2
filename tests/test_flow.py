"""Competing-symmetries iteration: convergence, monotonicity, the step's oracle."""

import warnings
from fractions import Fraction

import numpy as np
import pytest

from kplane import (
    TailDivergenceError,
    TransformParams,
    best_constant,
    competing_iterate,
    competing_step,
    embed_radial,
    graded_field_grid,
    indicator_profile,
    lebesgue_measure,
    lp_distance,
    lp_norm,
    rearrange,
    s_symmetry,
    step_profile,
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


@pytest.mark.parametrize("k, d", ((1, 9), (1, 11)))
def test_high_odd_d_step_keeps_the_extremizer(k, d):
    # on the default grid the step moves h by its interpolation error: 1.6e-4
    # at (1, 9) and 8.2e-4 at (1, 11). With W and W'A read as sums of exp
    # terms, which cancel near A = 1, it moved h by 2.3e-3 and 7.0e-2
    pr = TransformParams(k, d)
    h = extremizer_profile(ExtremizerSpec(pr), default_radial_grid(2048))
    g = competing_step(h, pr)
    assert np.max(np.abs(g.values / h.values - 1.0)) <= 1e-3


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


def _kernel_rows_exact(ker, q):
    """The peak kernel's stored rows P/m and R/2 at x = 2 q / q_max - 1, exactly."""
    x = 2 * q / Fraction(ker.q_max) - 1
    p, r = Fraction(0), Fraction(0)
    for c_val, c_der in zip(ker.coef[0][::-1], ker.coef[1][::-1]):
        p = p * x + Fraction(c_val)
        r = r * x + Fraction(c_der)
    return p, r


def _peak_read_exact(layer, t, lt):
    """The peaks' part of (d, d') at level t, as exact fractions.

    Each peak whose window holds t adds e^(-u_c) q^(d-2) L P/m and
    e^(-u_c) q^(d-2) R/2 from the kernel's stored rows P/m and R/2 in
    x = 2 q / q_max - 1, at the float L = log(phi_c) - lt and q = sqrt L.
    """
    ker, d = layer.peak_kernel, layer.kernel.d
    inside = (t > layer.peak_end) & (t < layer.peak_top)
    lam = np.maximum(layer.peak_log[inside] - lt, 0.0)
    val, der = Fraction(0), Fraction(0)
    for weight, lam_i, q in zip(layer.peak_weight[inside], lam, np.sqrt(lam)):
        q = Fraction(float(q))
        p, r = _kernel_rows_exact(ker, q)
        scale = Fraction(float(weight)) * q ** (d - 2)
        val += scale * Fraction(float(lam_i)) * p
        der += scale * r
    return val, der, int(inside.sum())


PEAK_CASES = ("h13", "h12", "h24", "step-start")


def _peak_case(case):
    """The layer cake of a peak-read case on 2048 nodes, two levels inside every
    peak's window (sorted, as the layer cake sorts them) and their logs."""
    from kplane.flow import _InversionLayerCake

    r = default_radial_grid(2048)
    k, d = {"h13": (1, 3), "h12": (1, 2), "h24": (2, 4), "step-start": (1, 3)}[case]
    pr = TransformParams(k, d)
    if case == "step-start":
        g = competing_step(normalized_indicator(pr), pr, out_radii=r)
    else:
        g = extremizer_profile(ExtremizerSpec(pr), radii=r)
    layer = _InversionLayerCake(g, k + 1)
    ts = np.sort(np.concatenate([
        layer.peak_end + x * (layer.peak_top - layer.peak_end) for x in (0.3, 0.8)
    ]))
    return layer, ts, np.log(ts)


@pytest.mark.parametrize("case", PEAK_CASES)
def test_peak_read_matches_the_per_pair_formula(case):
    # the layer cake reads runs of peak blocks through their Chebyshev rules
    # in log phi_c and the other live (peak, level) pairs one by one. Against
    # the exact sum of the pair formula at 48 seeded levels, val and der read
    # at most 1.3 and 2.7 ulps (dense tiles of every pair read 2.9 and 3.6;
    # block nodes formed as c_k - lt rather than (a0 - lt) + offset read 575
    # on the step start). The bound separates it from a pair-by-pair sum in
    # peak order, which reads 7.3-10.3 ulps at the worst level of each case.
    # The blocks carry 79-81% of the live pairs at these levels
    from kplane.flow import _BLOCK

    layer, ts, lt = _peak_case(case)
    val, der = np.zeros(len(ts)), np.zeros(len(ts))
    layer._peaks(ts, lt, val, der)
    ulp = np.finfo(float).eps
    n_pairs = n_block = 0
    for i in np.random.default_rng(17).choice(len(ts), 48, replace=False):
        want_val, want_der, n = _peak_read_exact(layer, ts[i], lt[i])
        n_pairs += n
        n_block += _BLOCK * int(
            np.sum((lt[i] <= layer.peak_floor) & (ts[i] > layer.peak_block_end))
        )
        assert want_val > 0 and want_der > 0
        assert abs(Fraction(float(val[i])) - want_val) <= 6 * ulp * want_val
        assert abs(Fraction(float(der[i])) - want_der) <= 6 * ulp * want_der
    assert n_pairs > 48 * 100
    assert 2 * n_block >= n_pairs


@pytest.mark.parametrize("case", PEAK_CASES)
def test_peak_read_counts_every_live_pair_once(case):
    # every level of the cases above against the dense float sum of each
    # live pair's kernel read times e^(-u_c). A pair that the split between
    # blocks and pairs misses or reads twice moves its level by its share of
    # the sum, which is above 4.5e-12 for every live pair here and above
    # 5.6e-6 at the median level; the reads agree within 8.9e-16 relative,
    # and levels without a live pair read 0
    layer, ts, lt = _peak_case(case)
    # and the levels where the split changes: every end and top, and each
    # block's floor as lt (with t = e^lt); a split that is off by one at
    # them fails here
    ts = np.concatenate([ts, layer.peak_end, layer.peak_top, np.exp(layer.peak_floor)])
    lt = np.concatenate([lt, np.log(layer.peak_end), layer.peak_log, layer.peak_floor])
    order = np.lexsort((lt, ts))
    ts, lt = ts[order], lt[order]
    assert np.all(np.diff(lt) >= 0)
    val, der = np.zeros(len(ts)), np.zeros(len(ts))
    layer._peaks(ts, lt, val, der)
    live = (ts[:, None] > layer.peak_end) & (ts[:, None] < layer.peak_top)
    lam = np.where(live, np.maximum(layer.peak_log - lt[:, None], 0.0), 0.0)
    k_val, k_der = layer.peak_kernel(lam)
    want_val, want_der = k_val @ layer.peak_weight, k_der @ layer.peak_weight
    some = want_val > 0
    assert np.all(val[~some] == 0.0) and np.all(der[~some] == 0.0)
    assert np.max(np.abs(val[some] / want_val[some] - 1.0)) <= 2e-15
    assert np.max(np.abs(der[some] / want_der[some] - 1.0)) <= 2e-15


def test_block_rules_integrate_polynomials_and_keep_atoms_on_nodes():
    # two blocks of 40 seeded atoms with positive weights, plus the four
    # Chebyshev nodes at or below -0.5 of [-1, 1] as atoms of the first
    # block, where x = 2 (atom + 1)/2 - 1 is exact. Their weights integrate
    # T_j, j < 12, in the block's own variable as the atoms do, within 1e-14
    # of the total weight (they read 1.0e-15); an atom on a node gives that
    # node its whole weight
    # (a basis formed as inf/inf and zeroed dropped it, 2% of the total)
    from kplane.flow import _BLOCK_APART, _BLOCK_NODES, _block_rules

    rng = np.random.default_rng(23)
    cheb = np.cos(np.pi * (np.arange(_BLOCK_NODES) + 0.5) / _BLOCK_NODES)
    lo, hi = np.array([-1.0, 3.0]), np.array([1.0, 3.5])
    atoms = lo[:, None] + (hi - lo)[:, None] * rng.uniform(size=(2, 44))
    atoms[0, 40:] = cheb[cheb <= -0.5]
    assert np.array_equal(2.0 * (atoms[0, 40:] + 1.0) / 2.0 - 1.0, cheb[cheb <= -0.5])
    weights = rng.uniform(0.5, 1.5, size=(2, 44))
    offsets, rule, floor = _block_rules(atoms, weights, lo, hi)
    nodes = lo[:, None] + offsets
    want_nodes = lo[:, None] + 0.5 * (hi - lo)[:, None] * (cheb + 1.0)
    assert np.allclose(nodes, want_nodes, rtol=0, atol=1e-15)
    assert np.array_equal(floor, np.minimum.accumulate((lo - _BLOCK_APART * (hi - lo))[::-1])[::-1])
    for b in range(2):
        x_atoms = 2.0 * (atoms[b] - lo[b]) / (hi[b] - lo[b]) - 1.0
        x_nodes = 2.0 * offsets[b] / (hi[b] - lo[b]) - 1.0
        for j in range(_BLOCK_NODES):
            t_j = np.polynomial.chebyshev.Chebyshev.basis(j)
            want = weights[b] @ t_j(x_atoms)
            assert abs(rule[b] @ t_j(x_nodes) - want) <= 1e-14 * weights[b].sum(), (b, j)
    # the on-node atoms alone
    only = np.zeros_like(weights)
    only[0, 40:] = weights[0, 40:]
    _, rule, _ = _block_rules(atoms, only, lo, hi)
    on_node = only[0] @ (atoms[0][:, None] == cheb)
    assert np.array_equal(rule[0], np.where(cheb <= -0.5, on_node, 0.0))


@pytest.mark.parametrize("kd", ((1, 3), (1, 2), (2, 4)), ids=("13", "12", "24"))
def test_peak_kernel_reads_its_polynomial_to_rounding(kd):
    # K/m and dK/dL against the exact rational value of the stored rows P/m
    # and R/2 in x = 2 q / q_max - 1 at the kernel's own q = sqrt L, 300
    # seeded L; reads at most 1.7 ulps (6 coefficients at (2, 4), 5 at
    # (1, 3) and (1, 2))
    from kplane.flow import _InversionLayerCake

    k, d = kd
    h = extremizer_profile(ExtremizerSpec(TransformParams(k, d)), radii=default_radial_grid(2048))
    ker = _InversionLayerCake(h, k + 1).peak_kernel
    lam = np.random.default_rng(14).uniform(0.0, ker.q_max**2, 300)
    k_val, k_der = ker(lam)
    ulp = Fraction(np.finfo(float).eps)
    for lam_i, val, der in zip(lam, k_val, k_der):
        q = Fraction(float(np.sqrt(lam_i)))
        p, r = _kernel_rows_exact(ker, q)
        want_val = q ** (d - 2) * Fraction(lam_i) * p
        want_der = q ** (d - 2) * r
        assert abs(Fraction(val) - want_val) <= 8 * ulp * abs(want_val)
        assert abs(Fraction(der) - want_der) <= 8 * ulp * abs(want_der)


def test_peak_kernel_is_fitted_once_per_rise_bucket(monkeypatch):
    # the fit depends on (d, m, rise bucket) alone: five steps along the
    # flow from the indicator, all in one bucket, fit the kernel once
    from kplane import flow

    fits = []

    class CountedKernel(flow._PeakKernel):
        def __init__(self, ker, m, lam_max):
            fits.append((ker.d, m, lam_max))
            super().__init__(ker, m, lam_max)

    r = default_radial_grid(1024)
    g = competing_step(normalized_indicator(PR13), PR13, out_radii=r)
    monkeypatch.setattr(flow, "_PeakKernel", CountedKernel)
    flow._peak_kernel.cache_clear()
    try:
        for _ in range(5):
            g = competing_step(g, PR13, out_radii=r)
    finally:
        flow._peak_kernel.cache_clear()
    assert len(fits) == 1
    assert fits[0][:2] == (3, 2) and fits[0][2] in 0.25 * 4.0 ** -np.arange(21)


@pytest.mark.parametrize("d", (2, 4, 6, 8))
def test_even_d_layer_kernel_value_near_one(d):
    # W(A) = int_0^arcosh(A) sinh^(d-2) s cosh^2 s ds has a positive
    # integrand; quad reads it within 6e-16 of 40-digit mpmath here (numpy's
    # 40-node Gauss-Legendre rule reads 5e-15 to 4e-14 off). The closed form
    # P(A) sqrt(A^2 - 1) + e arcosh A cancels near A = 1 for d >= 4 (d = 6
    # read 0.25 relative at la = 1e-8); the series in A - 1 there reads
    # within 5e-16 of mpmath
    import math

    from scipy import integrate

    from kplane.flow import _LayerKernel

    ker = _LayerKernel(d)
    la = np.concatenate([np.geomspace(1e-10, 1.0, 41), [0.39, 0.4, 0.41, 0.45]])
    for la_i, w in zip(la, ker.read(la)[0]):
        x = math.expm1(la_i)
        top = math.log1p(x + math.sqrt(x * (2.0 + x)))
        want = integrate.quad(
            lambda s: math.sinh(s) ** (d - 2) * math.cosh(s) ** 2, 0.0, top, epsabs=0.0, epsrel=1e-13
        )[0]
        assert abs(w / want - 1.0) <= 1e-14, (la_i, w, want)


@pytest.mark.parametrize("d", [2, 4, 6, 8])
def test_even_d_layer_kernel_from_a_near_one(d):
    # the band reads W from A itself; A - 1 is exact for A <= 2, and below
    # the kernel's near_cut W comes from the series in A - 1. The closed form
    # alone, with log(A + root) for arcosh A, reads 2e-12 relative at d = 2
    # and 3e7 at d = 6 at A - 1 = 1e-10. The reference is the quad integral
    # of test_even_d_layer_kernel_value_near_one
    import math

    from scipy import integrate

    from kplane.flow import _LayerKernel

    big_a = 1.0 + np.geomspace(1e-10, 0.6, 41)
    w, _ = _LayerKernel(d).from_a(big_a)
    for a_i, w_i in zip(big_a, w):
        x = a_i - 1.0
        top = math.log1p(x + math.sqrt(x * (2.0 + x)))
        want = integrate.quad(
            lambda s: math.sinh(s) ** (d - 2) * math.cosh(s) ** 2, 0.0, top, epsabs=0.0, epsrel=1e-13
        )[0]
        assert abs(w_i / want - 1.0) <= 1e-14, (x, w_i, want)


@pytest.mark.parametrize("d", range(2, 14))
def test_layer_kernel_reads_w_and_its_slope_to_rounding(d):
    # W(1 + x) = int_0^x (s (2 + s))^((d-3)/2) (1 + s)^2 ds, a positive
    # integrand, by 50-digit mpmath quad in s = x t^2, where it is smooth at
    # s = 0 and x^((d-1)/2) comes out of it, and W'(A) A =
    # (x (2 + x))^((d-3)/2) (1 + x)^3, from la (x = expm1(la)) and, for even
    # d, whose band reads A itself, from A. Odd d read W and W'A as sums of
    # exp terms before, which cancel near A = 1: against this reference W
    # was off by 6.1e-7 at d = 5 and 9.7e33 at d = 13
    import mpmath

    from kplane.flow import _LayerKernel

    ker = _LayerKernel(d)
    la = np.geomspace(1e-10, 3.0, 31)
    big_a = 1.0 + np.geomspace(1e-10, 0.6, 31)
    cases = [(ker.read(la), [mpmath.expm1(mpmath.mpf(v)) for v in la])]
    if d % 2 == 0:
        cases.append((ker.from_a(big_a), [mpmath.mpf(v) - 1 for v in big_a]))
    with mpmath.workdps(50):
        half = mpmath.mpf(d - 3) / 2
        for (w, slope), xs in cases:
            for w_i, slope_i, x in zip(w, slope, xs):
                want_w = x ** (half + 1) * mpmath.quad(
                    lambda t: 2 * t * (t * t * (2 + x * t * t)) ** half * (1 + x * t * t) ** 2,
                    [0, 1],
                )
                want_slope = (x * (2 + x)) ** half * (1 + x) ** 3
                assert abs(w_i / want_w - 1) <= 4e-15, (float(x), w_i, float(want_w))
                assert abs(slope_i / want_slope - 1) <= 4e-15, (float(x), slope_i)


def _layer_cake_quad(g, m, t):
    """d(t) of S(embed g) by scipy.integrate.quad on each monotone sub-piece.

    The integrand is W((phi/t)^(1/m)) e^-u in u = log sigma, W read by
    _LayerKernel.read; each part above t is integrated in s, u = u_1 + (u_2 -
    u_1) s^2 from its lowest phi u_1, which absorbs W's square root at A = 1.
    The head lies below t and the constant-phi tail adds W(A_N)/r_N.
    """
    from scipy import integrate, optimize

    from kplane.flow import _LayerKernel
    from kplane.params import sphere_area

    ker = _LayerKernel(g.d)
    u, v, lt = g.log_radii, g.values, np.log(t)
    assert v[0] * g.radii[0] ** m < t and g.tail_exponent == m

    def log_a(x, ua, ga, beta):
        return (m * x + np.log(ga + beta * (x - ua)) - lt) / m

    total = 0.0
    for ua, ub, ga, gb in zip(u[:-1], u[1:], v[:-1], v[1:]):
        beta = (gb - ga) / (ub - ua)
        ends = [ua, ub]
        if beta < 0 and ua < ua - 1.0 / m - ga / beta < ub:
            ends.insert(1, ua - 1.0 / m - ga / beta)
        for a, b in zip(ends[:-1], ends[1:]):
            la_a, la_b = log_a(a, ua, ga, beta), log_a(b, ua, ga, beta)
            if max(la_a, la_b) <= 0:
                continue
            u1, u2 = (a, b) if la_a < la_b else (b, a)
            if min(la_a, la_b) < 0:
                u1 = optimize.brentq(log_a, a, b, args=(ua, ga, beta), xtol=1e-15, rtol=1e-15)

            def integrand(s, u1=u1, u2=u2, ua=ua, ga=ga, beta=beta):
                x = u1 + (u2 - u1) * s * s
                la = max(log_a(x, ua, ga, beta), 0.0)
                return 2.0 * s * (u2 - u1) * float(ker.read(np.array(la))[0]) * np.exp(-x)

            total += abs(integrate.quad(integrand, 0.0, 1.0, epsabs=0.0, epsrel=1e-13, limit=200)[0])
    la_n = log_a(u[-1], u[-1], v[-1], 0.0)
    if la_n > 0:
        total += float(ker.read(np.array(la_n))[0]) / g.radii[-1]
    return 2.0 * sphere_area(g.d - 1) * total


@pytest.mark.parametrize("kd, bound", (((1, 2), 1e-11), ((2, 4), 1e-14)), ids=("12", "24"))
def test_even_d_band_matches_per_piece_quad(kd, bound):
    # d(t) of h's inversion image against per-piece quad at nine levels from
    # 1e-3 to 1e-1 of its top, where whole pieces of the band 1 < A < 4 carry
    # d, on 512 nodes. (2, 4) reads 1.1e-15. (1, 2) reads 3.5e-12: there
    # W ~ sqrt(A - 1), which the 8-node graded rule does not resolve on a
    # whole piece whose low end lies just above A = 1
    from kplane.flow import _InversionLayerCake

    k, d = kd
    g = extremizer_profile(ExtremizerSpec(TransformParams(k, d)), radii=default_radial_grid(512))
    layer = _InversionLayerCake(g, k + 1)
    ts = layer.sup * np.geomspace(1e-3, 1e-1, 9)
    want = np.array([_layer_cake_quad(g, k + 1, t) for t in ts])
    assert np.max(np.abs(layer(ts)[0] / want - 1.0)) <= bound


def test_competing_step_divergent_tail_raises():
    # at (1, 3) a tail exponent at or below (k + 1)(d - 1)/d = 4/3 gives the
    # inversion image infinite super-level sets
    r = default_radial_grid(256)
    f = RadialProfile(3, r, (1.0 + r**2) ** -0.6, 1.2)
    with pytest.raises(TailDivergenceError, match="infinite super-level sets"):
        competing_step(f, PR13, out_radii=r)


@pytest.mark.parametrize("k, d", [(1, 3), (1, 2), (2, 4)])
def test_competing_step_of_zero_is_zero(k, d):
    # no sub-piece, head or tail carries a level: every output level is 0
    r = default_radial_grid(64)
    out = competing_step(RadialProfile(d, r, np.zeros_like(r), 2.0), TransformParams(k, d))
    np.testing.assert_array_equal(out.values, np.zeros_like(r))
    assert out.tail_exponent == k + 1


def test_unbounded_start_is_reported():
    r = default_radial_grid(512)
    f = RadialProfile(3, r, (1.0 + r**2) ** -0.9, 1.8)
    rep = competing_iterate(f, PR13, out_radii=r)
    assert rep.converged
    assert len(rep.warnings) == 1 and "unbounded near the origin" in rep.warnings[0]
    # the warning carries the step-1 raw norm defect that the rescale hides
    defect = float(rep.warnings[0].rsplit("step-1 raw norm defect ", 1)[1])
    assert defect == float(f"{rep.norms[1] / rep.norms[0] - 1.0:.3e}") != 0.0
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
    # the 2048-node run's final distance, pinned to 11 digits
    assert f"{rep.distances[-1]:.10e}" == "2.7961934266e-05"
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
