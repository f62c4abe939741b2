"""Named self-check suites behind the ``kplane verify`` command.

Each suite draws all randomness from one seed, runs a batch of invariant
checks, and returns one CheckResult per check; the CLI prints them as
pass/fail lines and folds them into an exit code. Tolerances follow the
module they exercise: exact identities at quadrature precision, grid-backed
operators at the 1e-3 discretization tolerance of the 512 to 1024 square
field grids used here, Monte Carlo comparisons at three standard errors.
Checks on sharp-edged inputs carry their own wider bound, since a jump can
only be resolved to one field cell; the detail string says which limit was
measured against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .params import TransformParams, best_constant
from .profiles import (
    AxiSymField,
    RadialProfile,
    default_radial_grid,
    embed_radial,
    field_from_function,
    graded_field_grid,
    indicator_profile,
    interpolation_check,
    lebesgue_measure,
    lorentz_quasinorm,
    lp_distance,
    lp_norm,
    step_profile,
)
from .operators import ExtremizerSpec, extremizer_profile, rearrange, s_symmetry
from .flow import _half_max_radius, competing_iterate
from .pointfields import CauchyPowerField
from .mc import (
    drury_norm_mc,
    inversion_span_gap,
    inversion_volume_gap,
    sample_point_tuple,
)

__all__ = [
    "CheckResult",
    "SUITE_NAMES",
    "run_suite",
    "rearrange_suite",
    "lorentz_suite",
    "symmetry_suite",
    "drury_suite",
    "flow_suite",
]


@dataclass(frozen=True)
class CheckResult:
    """One named invariant check: pass/fail plus a human-readable detail.

    data holds the check's measured values as JSON-ready fields; the Drury
    checks put their Monte Carlo estimates there under "estimates".
    """

    name: str
    passed: bool
    detail: str
    data: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        # a numpy comparison gives numpy.bool_, which json cannot write
        object.__setattr__(self, "passed", bool(self.passed))


def _result(name: str, measured: float, bound: float, fmt: str = "{:.3e}") -> CheckResult:
    detail = (fmt + " (bound " + fmt + ")").format(measured, bound)
    return CheckResult(name, bool(measured <= bound), detail)


# ---------------------------------------------------------------------------
# Random inputs shared by the suites
# ---------------------------------------------------------------------------


def _bump_mix_profile(
    rng: np.random.Generator,
    d: int,
    radii: np.ndarray,
    tail: float | None = None,
    monotone: bool = False,
) -> RadialProfile:
    """Sum of three smooth power-decay bumps with random scales and weights.

    With monotone=False some bumps are rings (an r^e factor, e in {1, 2}),
    so the profile is genuinely non-monotone and the rearrangement has work
    to do. All bumps share one tail exponent, which the profile declares;
    without one it is drawn first, uniform on [2.2, 5).
    """
    t = float(rng.uniform(2.2, 5.0)) if tail is None else tail
    vals = np.zeros_like(radii)
    for _ in range(3):
        lam = float(rng.uniform(0.3, 3.0))
        amp = float(rng.uniform(0.2, 2.0))
        e = 0 if monotone else int(rng.integers(0, 3))
        x = lam * radii
        vals += amp * x**e * (1.0 + x**2) ** (-0.5 * (t + e))
    return RadialProfile(d, radii, vals, t)


def _random_step_profile(rng: np.random.Generator, d: int) -> RadialProfile:
    n = int(rng.integers(2, 6))
    breaks = np.sort(rng.uniform(0.05, 8.0, size=n))
    levels = rng.uniform(0.1, 2.0, size=n)
    return step_profile(d, list(breaks), list(levels), tail_exponent=float(rng.uniform(8.0, 12.0)))


def _random_field(
    rng: np.random.Generator, d: int, rho: np.ndarray, s: np.ndarray
) -> AxiSymField:
    """Off-center anisotropic power-decay bump, not radially symmetric."""
    a = float(rng.uniform(0.3, 3.0))
    b = float(rng.uniform(0.3, 3.0))
    s0 = float(rng.uniform(-1.5, 1.5))
    t = float(rng.uniform(2.5, 6.0))
    amp = float(rng.uniform(0.5, 2.0))

    def fn(rr: np.ndarray, ss: np.ndarray) -> np.ndarray:
        return amp * (1.0 + a * rr**2 + b * (ss - s0) ** 2) ** (-0.5 * t)

    return field_from_function(fn, d, rho, s, tail_exponent=t)


# ---------------------------------------------------------------------------
# Rearrangement suite
# ---------------------------------------------------------------------------


def rearrange_suite(seed: int = 0) -> list[CheckResult]:
    """Norm preservation, order, homogeneity, contraction, ellipsoid law."""
    rng = np.random.default_rng(seed)
    params = TransformParams(1, 3)
    d, p = params.d, params.pf
    mu = lebesgue_measure(d)
    out = default_radial_grid()
    rho, s = graded_field_grid(60.0, 512, 512)
    results: list[CheckResult] = []

    # Norm preservation on smooth random profiles, then on the raw indicator.
    # The indicator's edge smears over one field cell, so its bound is 1e-2
    # on a 1024 square grid rather than the smooth-field 1e-3.
    dev = 0.0
    for _ in range(6):
        f = _bump_mix_profile(rng, d, out)
        nf = lp_norm(f, p, mu)
        fstar = rearrange(embed_radial(f, rho, s), out_radii=out)
        dev = max(dev, abs(lp_norm(fstar, p, mu) / nf - 1.0))
    results.append(_result("rearrange-norm-preservation", dev, 1e-3))

    rho_f, s_f = graded_field_grid(60.0, 1024, 1024)
    ind = indicator_profile(d)
    ind_star = rearrange(embed_radial(ind, rho_f, s_f), out_radii=out)
    dev = abs(lp_norm(ind_star, p, mu) / lp_norm(ind, p, mu) - 1.0)
    results.append(_result("rearrange-norm-indicator", dev, 1e-2))

    # Idempotence on embedded nonincreasing profiles.
    h = extremizer_profile(ExtremizerSpec(params), radii=out)
    dev = 0.0
    for f in (h, _bump_mix_profile(rng, d, out, monotone=True)):
        fstar = rearrange(embed_radial(f, rho, s), out_radii=out)
        dev = max(dev, lp_distance(fstar, f, p, mu) / lp_norm(f, p, mu))
    results.append(_result("rearrange-idempotent", dev, 1e-3))

    # Order preservation: f <= g pointwise implies f* <= g* pointwise.
    f = _bump_mix_profile(rng, d, out)
    g = f.with_values(f.values + _bump_mix_profile(rng, d, out).values)
    fstar = rearrange(embed_radial(f, rho, s), out_radii=out)
    gstar = rearrange(embed_radial(g, rho, s), out_radii=out)
    worst = float(np.max(fstar.values - gstar.values)) / float(gstar.values.max())
    results.append(_result("rearrange-order-preservation", worst, 1e-8))

    # Homogeneity: (c f)* = c f* exactly (the level table scales with vmax).
    c = 3.7
    cstar = rearrange(embed_radial(f.scaled(c), rho, s), out_radii=out)
    dev = float(np.max(np.abs(cstar.values - c * fstar.values))) / float(
        c * fstar.values.max()
    )
    results.append(_result("rearrange-homogeneity", dev, 1e-12))

    # Contractive direction: ||f* - g*|| <= ||f - g|| up to grid slack.
    worst = 0.0
    for _ in range(8):
        f1 = _bump_mix_profile(rng, d, out)
        f2 = _bump_mix_profile(rng, d, out)
        r1 = rearrange(embed_radial(f1, rho, s), out_radii=out)
        r2 = rearrange(embed_radial(f2, rho, s), out_radii=out)
        worst = max(
            worst, lp_distance(r1, r2, p, mu) / lp_distance(f1, f2, p, mu)
        )
    results.append(_result("rearrange-contraction", worst, 1.0 + 1e-3))

    # Ellipsoid radius law: rearranging the indicator of
    # {c rho^2 + s^2/c <= R^2} gives a ball of radius R c^{-(d-2)/(2d)}.
    dev = 0.0
    for dd in (3, 4):
        for c in (0.25, 4.0):
            rg, sg = graded_field_grid(12.0, 512, 512)

            def fn(rr: np.ndarray, ss: np.ndarray, c: float = c) -> np.ndarray:
                return ((c * rr**2 + ss**2 / c) <= 1.0).astype(float)

            field = field_from_function(fn, dd, rg, sg, tail_exponent=float(dd + 2))
            st = rearrange(field, out_radii=out)
            r_hat = _half_max_radius(st)
            r_law = c ** (-(dd - 2) / (2.0 * dd))
            dev = max(dev, abs(r_hat / r_law - 1.0))
    results.append(_result("rearrange-ellipsoid-law", dev, 1e-2))
    return results


# ---------------------------------------------------------------------------
# Lorentz suite
# ---------------------------------------------------------------------------


def lorentz_suite(seed: int = 0) -> list[CheckResult]:
    """Layer-cake identity, indicator closed forms, interpolation bound."""
    rng = np.random.default_rng(seed)
    results: list[CheckResult] = []
    out = default_radial_grid()

    # L^{p,p} = L^p to 1e-8 on 100 random profiles (smooth mixes and steps).
    dev = 0.0
    for i in range(100):
        d = int(rng.integers(2, 5))
        p = float(rng.uniform(1.2, 3.0))
        mu = lebesgue_measure(d)
        if i % 2 == 0:
            f = _bump_mix_profile(rng, d, out)
        else:
            f = _random_step_profile(rng, d)
        if f.tail_exponent * p <= d:
            continue
        dev = max(dev, abs(lorentz_quasinorm(f, p, p, mu) / lp_norm(f, p, mu) - 1.0))
    results.append(_result("lorentz-layer-cake", dev, 1e-8))

    # Ball indicator closed forms: V^{1/p} (p/r)^{1/r} at finite r,
    # V^{1/p} at r = inf, under the r = p matches L^p normalization.
    dev = 0.0
    for d in (2, 3):
        mu = lebesgue_measure(d)
        ind = indicator_profile(d, radius=1.3)
        vol = mu.interval_measure(0.0, 1.3)
        for p in (1.5, 2.0):
            for r in (p, 2.0 * p, math.inf):
                got = lorentz_quasinorm(ind, p, r, mu)
                want = vol ** (1.0 / p)
                if math.isfinite(r):
                    want *= (p / r) ** (1.0 / r)
                dev = max(dev, abs(got / want - 1.0))
    results.append(_result("lorentz-indicator-closed-form", dev, 1e-6))

    # ||f||_{p,r}^r <= ||f||_{p,inf}^{r-p} ||f||_p^p for r > p, 100 profiles.
    bad = 0
    for i in range(100):
        d = int(rng.integers(2, 5))
        p = float(rng.uniform(1.2, 3.0))
        r = p * float(rng.uniform(1.1, 4.0))
        mu = lebesgue_measure(d)
        f = _bump_mix_profile(rng, d, out) if i % 2 == 0 else _random_step_profile(rng, d)
        if f.tail_exponent * p <= d:
            continue
        if not interpolation_check(f, p, r, mu).satisfied:
            bad += 1
    results.append(
        CheckResult("lorentz-interpolation", bad == 0, f"{bad} failures in 100")
    )
    return results


# ---------------------------------------------------------------------------
# Symmetry suite
# ---------------------------------------------------------------------------


def symmetry_suite(seed: int = 0) -> list[CheckResult]:
    """S involution, isometry and fixed point, plus the inversion identities."""
    rng = np.random.default_rng(seed)
    params = TransformParams(1, 3)
    d, p = params.d, params.pf
    mu = lebesgue_measure(d)
    rho, s = graded_field_grid(60.0, 512, 512)
    results: list[CheckResult] = []

    # S S g = g. The coordinate maps compose to the identity exactly, so
    # this holds at float rounding for evaluator-backed and value-only
    # fields alike; a failure means the prefactor algebra broke.
    g = _random_field(rng, d, rho, s)
    dev = 0.0
    for field in (g, AxiSymField(d, rho, s, g.values.copy(), g.tail_exponent)):
        ss = s_symmetry(s_symmetry(field, params), params)
        dev = max(
            dev,
            float(np.max(np.abs(ss.values - field.values)) / field.values.max()),
        )
    results.append(_result("s-involution", dev, 1e-12))

    # S fixes the embedded extremizer, up to the interpolation error of the
    # profile evaluator the embedding reads through (measured 4e-5 sup).
    h = extremizer_profile(ExtremizerSpec(params), radii=default_radial_grid())
    gh = embed_radial(h, rho, s)
    sh = s_symmetry(gh, params)
    dev = float(np.max(np.abs(sh.values - gh.values)) / gh.values.max())
    results.append(_result("s-fixes-extremizer", dev, 1e-3))

    # ||S g||_p = ||g||_p within the field-norm grid tolerance, 50 fields.
    dev = 0.0
    for _ in range(50):
        g = _random_field(rng, d, rho, s)
        dev = max(dev, abs(lp_norm(s_symmetry(g, params), p, mu) / lp_norm(g, p, mu) - 1.0))
    results.append(_result("s-isometry", dev, 1e-3))

    # Simplex volume-ratio identity under inversion: exact linear algebra.
    dev = 0.0
    for k, dd in ((1, 2), (1, 3), (2, 3)):
        for _ in range(1000):
            dev = max(dev, inversion_volume_gap(sample_point_tuple(rng, k, dd)))
    results.append(_result("inversion-volume-identity", dev, 1e-10))

    # Span-integral identity for S on the explicit extremizer: quadrature
    # against quadrature over the inverted tuple.
    dev = 0.0
    for k, dd in ((1, 2), (1, 3)):
        f = CauchyPowerField.extremizer(TransformParams(k, dd))
        for _ in range(100):
            dev = max(dev, inversion_span_gap(f, sample_point_tuple(rng, k, dd)))
    results.append(_result("inversion-span-identity", dev, 1e-5))
    return results


# ---------------------------------------------------------------------------
# Drury suite
# ---------------------------------------------------------------------------


def drury_suite(seed: int = 0, n_samples: int = 1_000_000) -> list[CheckResult]:
    """Monte Carlo Drury functional against closed forms at (1,2) and (1,3) and its symmetries."""
    params = TransformParams(1, 2)
    h = CauchyPowerField.extremizer(params)
    results: list[CheckResult] = []

    # ||R h||_q^q = 2 pi^3 for the X-ray transform in the plane: the
    # extremal identity evaluated on the explicit extremizer.
    est = drury_norm_mc(h, params, n_samples=n_samples, seed=seed)
    target = 2.0 * math.pi**3
    z = abs(est.value - target) / est.std_error
    results.append(
        CheckResult(
            "drury-hand-derived",
            z <= 3.0,
            f"value {est.value:.5f} vs 2 pi^3 = {target:.5f}, z = {z:.2f}",
            {"estimates": {"h": est.as_dict()}},
        )
    )

    # The same identity at (1,3): ||R h||_4^4 = A(1,3)^4 ||h||_2^4 = pi pi^4.
    params3 = TransformParams(1, 3)
    est3 = drury_norm_mc(
        CauchyPowerField.extremizer(params3), params3, n_samples=n_samples, seed=seed + 5
    )
    target3 = math.pi**5
    z = abs(est3.value - target3) / est3.std_error
    results.append(
        CheckResult(
            "drury-hand-derived-1-3",
            z <= 3.0,
            f"value {est3.value:.5f} vs pi^5 = {target3:.5f}, z = {z:.2f}",
            {"estimates": {"h": est3.as_dict()}},
        )
    )

    # S-invariance of the functional on a translated extremizer (so S acts
    # nontrivially), within three joint standard errors.
    shifted = h.compose_affine(np.eye(2), np.array([0.3, -0.45]))
    e1 = drury_norm_mc(shifted, params, n_samples=n_samples, seed=seed + 1)
    e2 = drury_norm_mc(shifted.s_transform(), params, n_samples=n_samples, seed=seed + 2)
    joint = math.hypot(e1.std_error, e2.std_error)
    z = abs(e1.value - e2.value) / joint
    results.append(
        CheckResult(
            "drury-s-invariance",
            z <= 3.0,
            f"{e1.value:.5f} vs {e2.value:.5f}, z = {z:.2f}",
            {"estimates": {"translate": e1.as_dict(), "translate-S": e2.as_dict()}},
        )
    )

    # Affine covariance: composing with x -> M x + b scales the functional
    # by |det M|^{-2} in the plane.
    rng = np.random.default_rng(seed + 3)
    m = rng.standard_normal((2, 2))
    m += math.copysign(1.5, np.linalg.det(m)) * np.eye(2)
    b = 0.5 * rng.standard_normal(2)
    det = abs(np.linalg.det(m))
    e3 = drury_norm_mc(h.compose_affine(m, b), params, n_samples=n_samples, seed=seed + 4)
    scaled = det**2 * e3.value
    joint = math.hypot(det**2 * e3.std_error, est.std_error)
    z = abs(scaled - est.value) / joint
    results.append(
        CheckResult(
            "drury-affine-covariance",
            z <= 3.0,
            f"|det M|^2-scaled {scaled:.5f} vs {est.value:.5f}, z = {z:.2f}",
            {"estimates": {"affine": e3.as_dict(), "h": est.as_dict()}},
        )
    )
    return results


# ---------------------------------------------------------------------------
# Flow suite
# ---------------------------------------------------------------------------


def flow_suite(seed: int = 0) -> list[CheckResult]:
    """Convergence and monotonicity of the competing-symmetries iteration.

    Deterministic; the seed is accepted for interface uniformity only.
    """
    del seed
    params = TransformParams(1, 3)
    p = params.pf
    mu = lebesgue_measure(params.d)
    results: list[CheckResult] = []

    h = extremizer_profile(ExtremizerSpec(params))
    rep_h = competing_iterate(h, params)
    fixed = rep_h.converged and rep_h.n_iters == 0 and rep_h.distances[0] < 1e-10
    results.append(
        CheckResult(
            "flow-extremizer-fixed",
            fixed,
            f"n_iters = {rep_h.n_iters}, distance = {rep_h.distances[0]:.3e}",
        )
    )

    ind = indicator_profile(params.d)
    ind = ind.scaled(1.0 / lp_norm(ind, p, mu))
    rep = competing_iterate(ind, params)
    results.append(
        CheckResult(
            "flow-indicator-converges",
            rep.converged and rep.distances[-1] < 1e-3,
            f"{rep.n_iters} iterations, final distance {rep.distances[-1]:.3e}",
        )
    )

    d_inc = float(np.max(np.diff(rep.distances), initial=-np.inf))
    results.append(_result("flow-distance-monotone", d_inc, 1e-6))

    r_dec = float(np.max(-np.diff(rep.ratios), initial=-np.inf))
    results.append(_result("flow-ratio-monotone", r_dec, 1e-6))

    bound = best_constant(params) * (1.0 + 2e-4)
    results.append(_result("flow-ratio-bounded", float(np.max(rep.ratios)), bound, "{:.8f}"))

    norm_dev = float(np.max(np.abs(rep.norms / rep.norms[0] - 1.0)))
    results.append(_result("flow-norm-conserved", norm_dev, 5e-3))
    return results


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

_SUITES = {
    "rearrange": rearrange_suite,
    "lorentz": lorentz_suite,
    "symmetry": symmetry_suite,
    "drury": drury_suite,
    "flow": flow_suite,
}

SUITE_NAMES = ("all", *_SUITES)


def run_suite(suite: str, seed: int = 0, n_samples: int = 1_000_000) -> list[CheckResult]:
    """Run one named suite, or all of them in a fixed order."""
    if suite == "all":
        out: list[CheckResult] = []
        for name in _SUITES:
            out.extend(run_suite(name, seed=seed, n_samples=n_samples))
        return out
    try:
        fn = _SUITES[suite]
    except KeyError:
        raise ValueError(
            f"unknown suite {suite!r}; choose from {', '.join(SUITE_NAMES)}"
        ) from None
    if suite == "drury":
        return fn(seed, n_samples=n_samples)
    return fn(seed)
