"""Top-level acceptance gates, one test per numbered criterion.

Each test prints a single "criterion N: PASS/FAIL" line with the measured
numbers, then asserts. Runtime budgets are part of the criteria and are
asserted where stated.
"""

import math
import time

import numpy as np

from kplane import (
    AxiSymField,
    CauchyPowerField,
    ExtremizerSpec,
    TransformParams,
    best_constant,
    competing_iterate,
    concentration_rescale,
    default_radial_grid,
    drury_norm_mc,
    embed_radial,
    extremizer_profile,
    field_from_function,
    functional_ratio,
    graded_field_grid,
    indicator_profile,
    inversion_span_gap,
    inversion_volume_gap,
    lebesgue_measure,
    lp_distance,
    lp_norm,
    radial_measure,
    rearrange,
    s_symmetry,
    sample_point_tuple,
)
from kplane.flow import _half_max_radius
from kplane.verify import _bump_mix_profile

PAIRS = ((1, 2), (1, 3), (2, 3), (2, 4), (3, 4))


def verdict(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_best_constants():
    t0 = time.perf_counter()
    worst = 0.0
    for k, d in PAIRS:
        params = TransformParams(k, d)
        h = extremizer_profile(ExtremizerSpec(params), radii=default_radial_grid(2048))
        rel = abs(functional_ratio(h, params) / best_constant(params) - 1.0)
        worst = max(worst, rel)
    # closed forms: A(1,3) = pi^(1/4), A(2,3) = 2^(3/4) pi^(-1/4)
    exact = max(
        abs(best_constant(TransformParams(1, 3)) - math.pi**0.25),
        abs(best_constant(TransformParams(2, 3)) - 2.0**0.75 * math.pi**-0.25),
    )
    dt = time.perf_counter() - t0
    ok = worst <= 2e-4 and exact < 1e-14 and dt <= 10.0
    verdict(1, ok, f"worst ratio deviation {worst:.2e}, closed forms to {exact:.1e}, {dt:.2f} s")
    assert worst <= 2e-4
    assert exact < 1e-14
    assert dt <= 10.0


def test_criterion_2_sharpness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    radii = default_radial_grid(512)
    worst_margin = -math.inf
    for k, d in PAIRS:
        params = TransformParams(k, d)
        bound = best_constant(params) * (1.0 + 2e-4)
        for _ in range(200):
            tail = float(rng.uniform(k + 1.05, k + 4.0))
            f = _bump_mix_profile(rng, d, radii, tail)
            worst_margin = max(worst_margin, functional_ratio(f, params) / bound - 1.0)
    dt = time.perf_counter() - t0
    ok = worst_margin <= 0.0 and dt <= 60.0
    verdict(2, ok, f"1000 profiles, worst ratio/bound - 1 = {worst_margin:.2e}, {dt:.1f} s")
    assert worst_margin <= 0.0
    assert dt <= 60.0


def test_criterion_3_convergence_from_indicator():
    t0 = time.perf_counter()
    params = TransformParams(1, 3)
    p = params.pf
    ind = indicator_profile(params.d)
    ind = ind.scaled(1.0 / lp_norm(ind, p, lebesgue_measure(params.d)))
    rep = competing_iterate(ind, params)  # defaults: 2048-node output grid, 200 iters
    d_slack = float(np.max(np.diff(rep.distances)))
    r_slack = float(np.max(-np.diff(rep.ratios)))
    dt = time.perf_counter() - t0
    ok = (
        rep.converged
        and rep.n_iters <= 200
        and rep.distances[-1] < 1e-3
        and d_slack <= 1e-6
        and r_slack <= 1e-6
        and dt <= 300.0
    )
    verdict(
        3,
        ok,
        f"{rep.n_iters} iterations, final distance {rep.distances[-1]:.2e}, "
        f"monotonicity slacks {d_slack:.1e}/{r_slack:.1e}, {dt:.1f} s",
    )
    assert rep.converged and rep.n_iters <= 200
    assert rep.distances[-1] < 1e-3
    assert d_slack <= 1e-6 and r_slack <= 1e-6
    assert dt <= 300.0


def random_field(rng, d, rho, s):
    a = float(rng.uniform(0.3, 3.0))
    b = float(rng.uniform(0.3, 3.0))
    s0 = float(rng.uniform(-1.5, 1.5))
    t = float(rng.uniform(2.5, 6.0))

    def fn(rr, ss):
        return (1.0 + a * rr**2 + b * (ss - s0) ** 2) ** (-0.5 * t)

    return field_from_function(fn, d, rho, s, tail_exponent=t)


def test_criterion_4_operator_identities():
    rng = np.random.default_rng(4)
    params = TransformParams(1, 3)
    d, p = params.d, params.pf
    mu = lebesgue_measure(d)
    rho, s = graded_field_grid(60.0, 512, 512)
    out = default_radial_grid()

    # S S g = g on a value-only field (coordinate maps cancel exactly)
    g = random_field(rng, d, rho, s)
    g = AxiSymField(d, rho, s, g.values.copy(), g.tail_exponent)
    ss = s_symmetry(s_symmetry(g, params), params)
    invol = float(np.max(np.abs(ss.values - g.values)) / g.values.max())

    # S h = h up to the profile-evaluator interpolation error
    h = extremizer_profile(ExtremizerSpec(params), radii=out)
    gh = embed_radial(h, rho, s)
    fixed = float(np.max(np.abs(s_symmetry(gh, params).values - gh.values)) / gh.values.max())

    # isometry over 50 random fields
    iso = 0.0
    for _ in range(50):
        g = random_field(rng, d, rho, s)
        iso = max(iso, abs(lp_norm(s_symmetry(g, params), p, mu) / lp_norm(g, p, mu) - 1.0))

    # V idempotent on embedded nonincreasing profiles
    idem = 0.0
    for f in (h, _bump_mix_profile(rng, d, out, tail=3.1, monotone=True)):
        fstar = rearrange(embed_radial(f, rho, s), out_radii=out)
        idem = max(idem, lp_distance(fstar, f, p, mu) / lp_norm(f, p, mu))

    # ellipsoid radius law R'^d = R^d / c^{(d-2)/2}, R = 1
    law = 0.0
    for dd in (3, 4):
        for c in (0.25, 4.0):
            rg, sg = graded_field_grid(12.0, 512, 512)

            def fn(rr, ss, c=c):
                return ((c * rr**2 + ss**2 / c) <= 1.0).astype(float)

            field = field_from_function(fn, dd, rg, sg, tail_exponent=float(dd + 2))
            r_hat = _half_max_radius(rearrange(field, out_radii=out))
            law = max(law, abs(r_hat * c ** ((dd - 2) / (2.0 * dd)) - 1.0))

    ok = invol <= 1e-12 and fixed <= 1e-3 and iso <= 1e-3 and idem <= 1e-3 and law <= 1e-2
    verdict(
        4,
        ok,
        f"involution {invol:.1e}, S h = h {fixed:.1e}, isometry {iso:.1e}, "
        f"idempotence {idem:.1e}, ellipsoid law {law:.1e}",
    )
    assert invol <= 1e-12
    assert fixed <= 1e-3
    assert iso <= 1e-3
    assert idem <= 1e-3
    assert law <= 1e-2


def test_criterion_5_volume_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    worst = 0.0
    for k, d in ((1, 2), (1, 3), (2, 3)):
        for _ in range(1000):
            worst = max(worst, inversion_volume_gap(sample_point_tuple(rng, k, d)))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-10 and dt <= 5.0
    verdict(5, ok, f"3000 tuples, worst gap {worst:.2e}, {dt:.2f} s")
    assert worst <= 1e-10
    assert dt <= 5.0


def test_criterion_6_span_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    worst = 0.0
    for k, d in ((1, 2), (1, 3)):
        f = CauchyPowerField.extremizer(TransformParams(k, d))
        for _ in range(100):
            worst = max(worst, inversion_span_gap(f, sample_point_tuple(rng, k, d)))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-5 and dt <= 60.0
    verdict(6, ok, f"200 tuples, worst relative gap {worst:.2e}, {dt:.1f} s")
    assert worst <= 1e-5
    assert dt <= 60.0


def test_criterion_7_drury_consistency():
    # Closed form: ||R h||_3^3 = A(1,2)^3 ||h||_{3/2}^3 with
    # A(1,2) = (pi/2)^{1/3} and, for h = (1 + |x|^2)^{-1} in the plane,
    # ||h||_{3/2}^{3/2} = 2 pi int_0^inf r (1 + r^2)^{-3/2} dr = 2 pi,
    # so the target is (pi/2) (2 pi)^2 = 2 pi^3.
    t0 = time.perf_counter()
    params = TransformParams(1, 2)
    h = CauchyPowerField.extremizer(params)
    target = 2.0 * math.pi**3

    est = drury_norm_mc(h, params, n_samples=1_000_000, seed=0)
    z_hand = abs(est.value - target) / est.std_error

    shifted = h.compose_affine(np.eye(2), np.array([0.3, -0.45]))
    e1 = drury_norm_mc(shifted, params, n_samples=1_000_000, seed=1)
    e2 = drury_norm_mc(shifted.s_transform(), params, n_samples=1_000_000, seed=2)
    z_s = abs(e1.value - e2.value) / math.hypot(e1.std_error, e2.std_error)

    rng = np.random.default_rng(3)
    m = rng.standard_normal((2, 2))
    m += math.copysign(1.5, np.linalg.det(m)) * np.eye(2)
    b = 0.5 * rng.standard_normal(2)
    det = abs(np.linalg.det(m))
    e3 = drury_norm_mc(h.compose_affine(m, b), params, n_samples=1_000_000, seed=4)
    scaled = det**2 * e3.value
    z_aff = abs(scaled - est.value) / math.hypot(det**2 * e3.std_error, est.std_error)

    dt = time.perf_counter() - t0
    ok = z_hand <= 3.0 and z_s <= 3.0 and z_aff <= 3.0 and dt <= 600.0
    verdict(
        7,
        ok,
        f"value {est.value:.4f} vs 2 pi^3 = {target:.4f} (z = {z_hand:.2f}), "
        f"S-invariance z = {z_s:.2f}, affine z = {z_aff:.2f}, {dt:.1f} s",
    )
    assert z_hand <= 3.0
    assert z_s <= 3.0
    assert z_aff <= 3.0
    assert dt <= 600.0


def test_criterion_8_property_suites(verify_run):
    (rearr, t_rearr), (lor, t_lor) = verify_run("rearrange"), verify_run("lorentz")
    results = rearr + lor
    dt = t_rearr + t_lor
    names = "/".join(r.name for r in results)
    for needed in (
        "norm-preservation",
        "order-preservation",
        "homogeneity",
        "contraction",
        "layer-cake",
        "interpolation",
    ):
        assert needed in names
    failures = [r.name for r in results if not r.passed]
    ok = not failures and dt <= 30.0
    verdict(8, ok, f"{len(results)} checks, failures = {failures or 'none'}, {dt:.1f} s")
    assert not failures
    assert dt <= 30.0


def test_criterion_9_concentration():
    rng = np.random.default_rng(9)
    params = TransformParams(1, 3)
    d, p = params.d, params.pf
    mu = radial_measure(d)
    radii = default_radial_grid()
    a_half = 0.5 * best_constant(params)

    kept = 0
    tries = 0
    c_min = math.inf
    norm_dev = 0.0
    g_floor = math.inf
    while kept < 50 and tries < 400:
        tries += 1
        tail = float(rng.uniform(2.2, 5.0))
        f = _bump_mix_profile(rng, d, radii, tail, monotone=True)
        f = f.scaled(1.0 / lp_norm(f, p, mu))
        if functional_ratio(f, params) < a_half:
            continue
        kept += 1
        res = concentration_rescale(f, params)
        assert res.c > 0.0
        c_min = min(c_min, res.c)
        norm_dev = max(norm_dev, abs(lp_norm(res.g, p, mu) - 1.0))
        on_ball = res.g.values[res.g.radii <= res.c]
        g_floor = min(g_floor, float(on_ball.min()))

    # g >= 1 on [0, c] holds exactly in the algebra; allow float rounding
    ok = kept == 50 and norm_dev <= 1e-6 and g_floor >= 1.0 - 1e-9 and c_min > 0.0
    verdict(
        9,
        ok,
        f"50 profiles (of {tries} drawn), min c = {c_min:.4f}, "
        f"norm deviation {norm_dev:.1e}, min g on ball {g_floor:.12f}",
    )
    assert kept == 50
    assert norm_dev <= 1e-6
    assert g_floor >= 1.0 - 1e-9
    assert c_min > 0.0
