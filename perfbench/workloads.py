"""The four benchmark workloads: seeded inputs, one op each, and its check.

Every workload builds all of its inputs from the seed in its constructor,
before timing starts, so the program receives only generated inputs. `op(i)`
runs op i (inputs are reused cyclically once exhausted), checks the result,
and returns an `OpResult`; `accuracy(results)` returns the run's accuracy
figures, of which the first is reported as the metric accuracy_err. kplane
functions are called through their module attributes so that the traced
run's wrappers see every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from kplane import flow, mc, operators, params, pointfields, profiles


@dataclass
class OpResult:
    ok: bool
    work: float
    detail: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.ok = bool(self.ok)  # checks on numpy scalars give numpy booleans


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; the benchmark runs FULL, the smoke test SMALL."""

    field_cells: int  # nrho = ns of the flow's graded field grid
    radial_nodes: int  # flow output and ratio-sweep grid
    mix_nodes: tuple[int, int]  # functionals bump-mix grids
    mc_samples: int
    mixes_per_pair: int


FULL = Sizes(1024, 2048, (384, 1024), 100_000, 200)
SMALL = Sizes(256, 512, (48, 96), 4_000, 4)


def _bump_mix(rng, d: int, radii: np.ndarray, tail: float) -> profiles.RadialProfile:
    """Three power-decay bumps with random scales; e > 0 makes a ring."""
    vals = np.zeros_like(radii)
    for _ in range(3):
        lam = float(rng.uniform(0.3, 3.0))
        amp = float(rng.uniform(0.2, 2.0))
        e = int(rng.integers(0, 3))
        x = lam * radii
        vals += amp * x**e * (1.0 + x**2) ** (-0.5 * (tail + e))
    return profiles.RadialProfile(d, radii, vals, tail)


def _step(rng, d: int) -> profiles.RadialProfile:
    n = int(rng.integers(2, 6))
    breaks = np.sort(rng.uniform(0.05, 8.0, size=n))
    levels = rng.uniform(0.1, 2.0, size=n)
    return profiles.step_profile(
        d, list(breaks), list(levels), tail_exponent=float(rng.uniform(8.0, 12.0))
    )


class Flow:
    """competing_iterate at (k, d) = (1, 3) from normalised starts; one solve per op."""

    name = "flow"

    def __init__(self, seed: int, sizes: Sizes) -> None:
        self.params = params.TransformParams(1, 3)
        self.sizes = sizes
        p, mu = self.params.pf, profiles.lebesgue_measure(3)
        rng = np.random.default_rng(seed)
        starts = [profiles.indicator_profile(3)] + [_step(rng, 3) for _ in range(7)]
        self.starts = [f.scaled(1.0 / profiles.lp_norm(f, p, mu)) for f in starts]
        self.out_radii = profiles.default_radial_grid(sizes.radial_nodes)
        self.bound = params.best_constant(self.params) * (1.0 + 2e-4)
        self.inputs = {
            "k": 1, "d": 3, "field_grid": [sizes.field_cells, sizes.field_cells],
            "output_nodes": sizes.radial_nodes, "tol": 1e-4, "max_iters": 200,
            "starts": ["indicator"] + [
                {"steps": len(f.radii) // 2, "tail": f.tail_exponent} for f in self.starts[1:]
            ],
        }

    def warm_up(self) -> None:
        # Builds the output grid's T matrix, which every iteration applies.
        h = operators.extremizer_profile(operators.ExtremizerSpec(self.params), self.out_radii)
        operators.functional_ratio(h, self.params)
        rho, s = profiles.graded_field_grid(profiles.DEFAULT_FIELD_RADIUS, 32, 32)
        flow.competing_step(self.starts[0], self.params, rho, s, out_radii=self.out_radii)

    def op(self, i: int) -> OpResult:
        n = self.sizes.field_cells
        rep = flow.competing_iterate(
            self.starts[i % len(self.starts)], self.params, max_iters=200, tol=1e-4,
            nrho=n, ns=n, out_radii=self.out_radii,
        )
        dist = float(rep.distances[-1])
        ok = (
            rep.converged
            and dist < 1e-3
            and float(np.max(np.diff(rep.distances), initial=-np.inf)) <= 1e-6
            and float(np.max(-np.diff(rep.ratios), initial=-np.inf)) <= 1e-6
            and float(np.max(rep.ratios)) <= self.bound
        )
        steps = rep.n_iters + int(rep.converged)  # the converged probe step is computed too
        defect = float(np.max(np.abs(rep.norms / rep.norms[0] - 1.0)))
        return OpResult(ok, steps, {"start": i % len(self.starts), "final_distance": dist,
                                    "norm_defect": defect, "iters": rep.n_iters})

    @staticmethod
    def accuracy(results: list[OpResult]) -> dict:
        # The indicator start (op 0) is the paper's run and the same for every seed.
        ref = [r.detail for r in results if r.detail.get("start") == 0] or [{}]
        return {key: ref[0].get(key, math.nan) for key in ("final_distance", "norm_defect")}


class Functionals:
    """lp_norm, distribution_function, L^{p,p} and the interpolation check per profile."""

    name = "functionals"
    # Fixed kind cycle, so every seed times the same mix of cheap and costly
    # profiles. Small mixes make half of it, so the median op sits in the
    # middle of them and the 90th percentile among the large mixes.
    CYCLE = ("mix-small", "step", "mix-small", "mix-large")
    # Layer-cake errors of correct code reach 3e-13 on some seeded profiles:
    # rounding, four decades under the 1e-8 gate. The metric reports at least
    # this floor, so the seed and the summation order cannot move it.
    ERR_FLOOR = 1e-12

    def __init__(self, seed: int, sizes: Sizes) -> None:
        rng = np.random.default_rng(seed)
        grids = {"mix-small": profiles.default_radial_grid(sizes.mix_nodes[0]),
                 "mix-large": profiles.default_radial_grid(sizes.mix_nodes[1])}
        self.cases = []
        self.skipped = 0
        per_kind = dict.fromkeys(self.CYCLE, 0)
        while len(self.cases) < 64:
            kind = self.CYCLE[len(self.cases) % len(self.CYCLE)]
            d = int(rng.integers(2, 5))
            # p sets the cost (a profile at p = 1.5 takes three times as long
            # as one at p = 2.5), so it is stratified over eight bins per kind:
            # the first eight profiles of a kind span the range on every seed.
            p = 1.2 + 1.8 * (per_kind[kind] % 8 + float(rng.uniform())) / 8
            r = p * float(rng.uniform(1.1, 4.0))
            if kind == "step":
                f = _step(rng, d)
            else:
                f = _bump_mix(rng, d, grids[kind], float(rng.uniform(2.2, 5.0)))
            if f.tail_exponent * p <= d:  # L^p diverges: a skip, not an op
                self.skipped += 1
                continue
            per_kind[kind] += 1
            self.cases.append((kind, f, p, r))
        self.inputs = {
            "profiles": [{"kind": k, "nodes": len(f.radii), "d": f.d, "p": p, "r": r}
                         for k, f, p, r in self.cases],
            "skipped": self.skipped,
        }

    def warm_up(self) -> None:
        f = profiles.step_profile(3, [0.5, 1.0], [2.0, 1.0])
        self._bundle(f, 2.0, 3.0)

    @staticmethod
    def _bundle(f, p, r):
        mu = profiles.lebesgue_measure(f.d)
        norm = profiles.lp_norm(f, p, mu)
        profiles.distribution_function(f, mu)
        lpp = profiles.lorentz_quasinorm(f, p, p, mu)
        interp = profiles.interpolation_check(f, p, r, mu)
        return abs(lpp / norm - 1.0), interp.satisfied

    def op(self, i: int) -> OpResult:
        kind, f, p, r = self.cases[i % len(self.cases)]
        err, satisfied = self._bundle(f, p, r)
        return OpResult(err <= 1e-8 and satisfied, 1, {"kind": kind, "layer_cake_err": err})

    @staticmethod
    def accuracy(results: list[OpResult]) -> dict:
        errs = [r.detail["layer_cake_err"] for r in results]
        return {"layer_cake_err": max(errs + [Functionals.ERR_FLOOR]) if errs else math.nan}


class DruryMC:
    """drury_norm_mc at a fixed sample count on the extremizer fields and an S-pair."""

    name = "drury-mc"
    # The Drury weights carry a |x1 - x0|^-(d-1) singularity, so their variance
    # is infinite (log-divergent in d = 2). The reported standard error then
    # understates low excursions: a correct estimator gives |z| > 4 on about
    # 1 call in 500 at (1, 2) and 1 in 50 at (1, 3) at 1e5 samples, while
    # those calls stay within 5% of the reference. (High excursions, up to
    # +50% at (1, 3), come with a standard error to match.) The check
    # therefore accepts |value - ref| <= max(4 se, REL_TOL ref).
    REL_TOL = 0.15

    def __init__(self, seed: int, sizes: Sizes) -> None:
        p12, p13 = params.TransformParams(1, 2), params.TransformParams(1, 3)
        h12 = pointfields.CauchyPowerField.extremizer(p12)
        shifted = h12.compose_affine(np.eye(2), np.array([0.3, -0.45]))
        # (name, field, params, reference); the S-image is checked against
        # the translate's estimate of the op before it, not a closed form.
        self.fields = [
            ("extremizer-1-2", h12, p12, 2.0 * math.pi**3),
            ("extremizer-1-3", pointfields.CauchyPowerField.extremizer(p13), p13, math.pi**5),
            ("translate-1-2", shifted, p12, None),
            ("translate-1-2-S", shifted.s_transform(), p12, None),
        ]
        self.n_samples = sizes.mc_samples
        self.mc_seeds = np.random.default_rng(seed).integers(0, 2**31, size=4096)
        self.last: tuple[int, object] | None = None
        self.inputs = {
            "n_samples": self.n_samples,
            "translate": [0.3, -0.45],
            "fields": [{"name": n, "k": pr.k, "d": pr.d, "reference": ref}
                       for n, _, pr, ref in self.fields],
        }

    def warm_up(self) -> None:
        for _, f, pr, _ in self.fields:
            mc.drury_norm_mc(f, pr, n_samples=1000, seed=0)

    def with_tracer(self, tracer) -> None:
        self.fields = [(n, tracer.proxy(f), pr, ref) for n, f, pr, ref in self.fields]

    def op(self, i: int) -> OpResult:
        name, f, pr, ref = self.fields[i % len(self.fields)]
        est = mc.drury_norm_mc(
            f, pr, n_samples=self.n_samples, seed=int(self.mc_seeds[i % len(self.mc_seeds)])
        )
        prev, self.last = self.last, (i, est)
        detail = {"field": name, "value": est.value, "rejected": est.n_rejected}
        if not math.isfinite(est.value):
            # No result: a program failure, counted in failed, not a wrong value.
            return OpResult(False, 0, {**detail, "error": "non-finite estimate"})
        detail["rel_se"] = est.std_error / est.value
        if ref is not None:
            se = est.std_error
        elif name.endswith("-S") and prev is not None and prev[0] == i - 1 \
                and math.isfinite(prev[1].value):
            ref, se = prev[1].value, math.hypot(est.std_error, prev[1].std_error)
        else:  # the translate: its check waits for the S-image
            return OpResult(True, est.n_samples, detail)
        detail["z"] = (est.value - ref) / se
        ok = abs(est.value - ref) <= max(4.0 * se, self.REL_TOL * ref)
        return OpResult(ok, est.n_samples, detail)

    @staticmethod
    def accuracy(results: list[OpResult]) -> dict:
        rel_se = [r.detail["rel_se"] for r in results]
        return {"mc_rel_se": float(np.median(rel_se)) if rel_se else math.nan}


class RatioSweep:
    """functional_ratio on h, then seeded admissible mixes, one (k, d) pair at a time."""

    name = "ratio-sweep"
    PAIRS = ((1, 2), (1, 3), (2, 3), (2, 4), (3, 4))

    def __init__(self, seed: int, sizes: Sizes) -> None:
        rng = np.random.default_rng(seed)
        radii = profiles.default_radial_grid(sizes.radial_nodes)
        self.cases = []
        for k, d in self.PAIRS:
            pr = params.TransformParams(k, d)
            bound = params.best_constant(pr)
            h = operators.extremizer_profile(operators.ExtremizerSpec(pr), radii)
            self.cases.append((pr, h, bound, True))
            for _ in range(sizes.mixes_per_pair):
                tail = float(rng.uniform(k + 1.05, k + 4.0))
                self.cases.append((pr, _bump_mix(rng, d, radii, tail), bound, False))
        self.inputs = {"pairs": [list(p) for p in self.PAIRS], "nodes": sizes.radial_nodes,
                       "mixes_per_pair": sizes.mixes_per_pair}

    def warm_up(self) -> None:
        # A small grid of its own: the measured loop still builds every T matrix.
        pr = params.TransformParams(1, 2)
        h = operators.extremizer_profile(operators.ExtremizerSpec(pr),
                                         profiles.default_radial_grid(64))
        operators.functional_ratio(h, pr)

    def op(self, i: int) -> OpResult:
        pr, f, a, is_h = self.cases[i % len(self.cases)]
        ratio = operators.functional_ratio(f, pr)
        ok = ratio <= a * (1.0 + 2e-4)
        detail = {"k": pr.k, "d": pr.d}
        if is_h:
            detail["h_err"] = abs(ratio / a - 1.0)
            ok = ok and detail["h_err"] <= 2e-4
        return OpResult(ok, 1, detail)

    @staticmethod
    def accuracy(results: list[OpResult]) -> dict:
        return {"ratio_h_err": max((r.detail["h_err"] for r in results if "h_err" in r.detail),
                                   default=math.nan)}


WORKLOADS = {w.name: w for w in (Flow, Functionals, DruryMC, RatioSweep)}
