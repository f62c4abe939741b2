"""Command line surface: constants, the iteration, and the check suites.

Only the standard library is imported at module scope. main() first copies
the KPLANE_THREADS setting into the BLAS environment variables and only then
pulls in the numerical modules; numpy pins its thread pools at import time,
so the cap must land in the environment before that happens.

Exit codes: 0 when everything passed, 1 when a numerical invariant failed
(a check suite reported FAIL, the iteration broke monotonicity or moved the
raw norm by more than 5e-3, or the quadrature cross-check drifted), 2 on
usage or I/O errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

EXIT_PASS = 0
EXIT_INVARIANT = 1
EXIT_USAGE = 2

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

_SUITE_CHOICES = ("all", "rearrange", "lorentz", "symmetry", "drury", "flow")
_PRESETS = ("h", "indicator", "gaussian")


def _apply_thread_cap() -> None:
    cap = os.environ.get("KPLANE_THREADS")
    if cap is None or cap == "":
        return
    try:
        n = int(cap)
    except ValueError:
        raise ValueError(f"KPLANE_THREADS must be an integer, got {cap!r}") from None
    if n < 1:
        raise ValueError(f"KPLANE_THREADS must be >= 1, got {n}")
    for var in _THREAD_VARS:
        os.environ.setdefault(var, str(n))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kplane",
        description="Endpoint k-plane transform numerics: sharp constants, "
        "the competing-symmetries iteration, and invariant check suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser(
        "constant",
        help="print A(k, d) in both closed forms with a quadrature cross-check",
    )
    c.add_argument("--k", type=int, required=True, help="plane dimension, 1 <= k < d")
    c.add_argument("--d", type=int, required=True, help="ambient dimension")
    c.add_argument(
        "--grid", type=int, default=2048, help="radial nodes for the cross-check"
    )
    c.add_argument("--format", choices=("text", "json"), default="text")

    it = sub.add_parser(
        "iterate",
        help="run the competing-symmetries iteration, write trace and summary",
    )
    it.add_argument("--k", type=int, default=1)
    it.add_argument("--d", type=int, default=3)
    it.add_argument(
        "--init",
        default="indicator",
        help="preset h | indicator | gaussian, or a profile CSV path",
    )
    it.add_argument("--grid", type=int, default=2048, help="radial nodes for iterates")
    it.add_argument("--iters", type=int, default=200, help="iteration budget")
    it.add_argument(
        "--tol", type=float, default=1e-4, help="relative successive-change stop"
    )
    it.add_argument("--seed", type=int, default=0, help="echoed for provenance")
    it.add_argument("--out", default="kplane-run", help="output directory")
    it.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="trace file format"
    )

    v = sub.add_parser("verify", help="run invariant check suites")
    v.add_argument("--suite", choices=_SUITE_CHOICES, default="all")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument(
        "--samples", type=int, default=1_000_000, help="Monte Carlo sample count"
    )
    v.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def _usage_error(message: str) -> int:
    print(f"kplane: {message}", file=sys.stderr)
    return EXIT_USAGE


def _cmd_constant(args: argparse.Namespace) -> int:
    from .params import TransformParams, best_constant
    from .operators import ExtremizerSpec, extremizer_profile, functional_ratio
    from .profiles import default_radial_grid

    try:
        params = TransformParams(args.k, args.d)
    except (TypeError, ValueError) as exc:
        return _usage_error(str(exc))
    a_sphere = best_constant(params, form="sphere")
    a_gamma = best_constant(params, form="gamma")
    h = extremizer_profile(ExtremizerSpec(params), radii=default_radial_grid(args.grid))
    measured = float(functional_ratio(h, params))
    rel = abs(measured / a_sphere - 1.0)
    ok = bool(rel <= 2e-4)
    if args.format == "json":
        json.dump(
            {
                "k": args.k,
                "d": args.d,
                "sphere_form": a_sphere,
                "gamma_form": a_gamma,
                "functional_ratio_h": measured,
                "relative_deviation": rel,
                "grid": args.grid,
                "within_2e-4": ok,
            },
            sys.stdout,
            indent=2,
        )
        print()
    else:
        print(f"A({args.k}, {args.d}) = {a_sphere:.17g}")
        print(f"  sphere-area form:  {a_sphere:.17g}")
        print(f"  gamma-ratio form:  {a_gamma:.17g}")
        print(
            f"  quadrature cross-check: functional_ratio(h) = {measured:.17g} "
            f"at {args.grid} nodes (relative deviation {rel:.3e})"
        )
    return EXIT_PASS if ok else EXIT_INVARIANT


def _initial_profile(args: argparse.Namespace, params):
    import numpy as np

    from .operators import ExtremizerSpec, extremizer_profile
    from .profiles import (
        RadialProfile,
        default_radial_grid,
        indicator_profile,
        lebesgue_measure,
        lp_norm,
    )
    from . import io as kio

    if args.init == "h":
        return extremizer_profile(
            ExtremizerSpec(params), radii=default_radial_grid(args.grid)
        )
    if args.init == "indicator":
        f = indicator_profile(params.d)
        return f.scaled(1.0 / lp_norm(f, params.pf, lebesgue_measure(params.d)))
    if args.init == "gaussian":
        radii = default_radial_grid(args.grid)
        return RadialProfile(
            params.d, radii, np.exp(-0.5 * radii**2), tail_exponent=40.0
        )
    return kio.read_profile(args.init)


def _cmd_iterate(args: argparse.Namespace) -> int:
    from .errors import KPlaneError, ProfileFormatError
    from .params import TransformParams, best_constant
    from .profiles import default_radial_grid
    from .flow import competing_iterate
    from . import io as kio

    try:
        params = TransformParams(args.k, args.d)
    except (TypeError, ValueError) as exc:
        return _usage_error(str(exc))
    try:
        f0 = _initial_profile(args, params)
    except (ProfileFormatError, OSError) as exc:
        return _usage_error(str(exc))
    if f0.d != params.d:
        return _usage_error(
            f"initial profile has d = {f0.d}, but the run asks for d = {params.d}"
        )

    try:
        report = competing_iterate(
            f0,
            params,
            max_iters=args.iters,
            tol=args.tol,
            out_radii=default_radial_grid(args.grid),
        )
    except KPlaneError as exc:
        return _usage_error(f"inadmissible initial profile: {exc}")

    import numpy as np

    d_slack = float(np.max(np.diff(report.distances), initial=-math.inf))
    r_slack = float(np.max(-np.diff(report.ratios), initial=-math.inf))
    a_bound = best_constant(params) * (1.0 + 2e-4)
    norm_defect = float(np.max(np.abs(report.norms / report.norms[0] - 1.0)))
    invariants = {
        "distance_nonincreasing": d_slack <= 1e-6,
        "ratio_nondecreasing": r_slack <= 1e-6,
        "ratio_bounded": float(np.max(report.ratios)) <= a_bound,
        # raw norms before the rescale: the operators are L^p isometries
        "norm_conserved": norm_defect <= 5e-3,
    }
    held = all(invariants.values())
    for warning in report.warnings:
        print(f"kplane: warning: {warning}", file=sys.stderr)

    os.makedirs(args.out, exist_ok=True)
    if args.format == "json":
        trace_path = os.path.join(args.out, "trace.json")
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "n": list(range(len(report.distances))),
                    "distance": report.distances.tolist(),
                    "ratio": report.ratios.tolist(),
                    "norm": report.norms.tolist(),
                },
                fh,
                indent=2,
            )
            fh.write("\n")
    else:
        trace_path = os.path.join(args.out, "trace.csv")
        kio.write_trace(trace_path, report.distances, report.ratios, report.norms)

    summary = {
        "command": "iterate",
        "k": args.k,
        "d": args.d,
        "init": args.init,
        "grid": args.grid,
        "iters": args.iters,
        "tol": args.tol,
        "seed": args.seed,
        "converged": report.converged,
        "n_iters": report.n_iters,
        "final_distance": float(report.distances[-1]),
        "final_ratio": float(report.ratios[-1]),
        "best_constant": best_constant(params),
        "norm_defect": norm_defect,
        "invariants": invariants,
        "warnings": list(report.warnings),
        "trace": trace_path,
    }
    summary_path = os.path.join(args.out, "summary.json")
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")

    print(f"seed {args.seed}")
    print(
        f"converged = {report.converged} after {report.n_iters} iterations, "
        f"final distance {report.distances[-1]:.6e}, "
        f"final ratio {report.ratios[-1]:.8f}"
    )
    for name, good in invariants.items():
        print(f"  {name}: {'ok' if good else 'VIOLATED'}")
    print(f"wrote {trace_path} and {summary_path}")
    return EXIT_PASS if held else EXIT_INVARIANT


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verify import run_suite

    results = run_suite(args.suite, seed=args.seed, n_samples=args.samples)
    all_pass = all(r.passed for r in results)
    if args.format == "json":
        json.dump(
            {
                "suite": args.suite,
                "seed": args.seed,
                "samples": args.samples,
                "checks": [
                    {"name": r.name, "passed": r.passed, "detail": r.detail}
                    for r in results
                ],
                "all_pass": all_pass,
            },
            sys.stdout,
            indent=2,
        )
        print()
    else:
        print(f"# suite {args.suite}, seed {args.seed}, samples {args.samples}")
        writer = csv.writer(sys.stdout)
        writer.writerow(("status", "name", "detail"))
        for r in results:
            writer.writerow(("PASS" if r.passed else "FAIL", r.name, r.detail))
    return EXIT_PASS if all_pass else EXIT_INVARIANT


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_thread_cap()
    except ValueError as exc:
        return _usage_error(str(exc))
    if args.command == "constant":
        return _cmd_constant(args)
    if args.command == "iterate":
        return _cmd_iterate(args)
    return _cmd_verify(args)


if __name__ == "__main__":
    sys.exit(main())
