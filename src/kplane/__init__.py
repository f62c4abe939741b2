"""Numerics for the endpoint extremal problem of the k-plane transform.

Submodules are imported lazily so the command line entry point can apply the
KPLANE_THREADS setting to the BLAS environment variables before numpy loads.
"""

from __future__ import annotations

import importlib
from typing import Any

__version__ = "0.1.0"

_SUBMODULES = {
    "params",
    "profiles",
    "quadrature",
    "operators",
    "flow",
    "pointfields",
    "mc",
    "verify",
    "io",
    "cli",
    "errors",
}

_EXPORTS = {
    # params
    "TransformParams": "params",
    "sphere_area": "params",
    "i_integral": "params",
    "best_constant": "params",
    "radial_conversion_factor": "params",
    # profiles
    "WeightedMeasure": "profiles",
    "lebesgue_measure": "profiles",
    "radial_measure": "profiles",
    "RadialProfile": "profiles",
    "AxiSymField": "profiles",
    "DistributionFunction": "profiles",
    "default_radial_grid": "profiles",
    "graded_field_grid": "profiles",
    "step_profile": "profiles",
    "indicator_profile": "profiles",
    "field_from_function": "profiles",
    "embed_radial": "profiles",
    "lp_norm": "profiles",
    "lp_distance": "profiles",
    "distribution_at": "profiles",
    "distribution_function": "profiles",
    "lorentz_quasinorm": "profiles",
    "interpolation_check": "profiles",
    # operators
    "ExtremizerSpec": "operators",
    "extremizer_profile": "operators",
    "t_transform": "operators",
    "functional_ratio": "operators",
    "s_symmetry": "operators",
    "rearrange": "operators",
    "ConcentrationResult": "operators",
    "concentration_rescale": "operators",
    # flow
    "ConvergenceReport": "flow",
    "competing_step": "flow",
    "competing_iterate": "flow",
    # pointfields
    "CauchyPowerField": "pointfields",
    "GaussianBump": "pointfields",
    "BallIndicator": "pointfields",
    # mc
    "MCEstimate": "mc",
    "drury_norm_mc": "mc",
    "radon2d_direct": "mc",
    "span_integral": "mc",
    "inversion_map": "mc",
    "inversion_jacobian": "mc",
    "simplex_volume": "mc",
    "sample_point_tuple": "mc",
    "inversion_volume_gap": "mc",
    "inversion_span_gap": "mc",
    # io
    "read_profile": "io",
    "write_profile": "io",
    "read_field": "io",
    "write_field": "io",
    "write_trace": "io",
    "sidecar_path": "io",
    # verify
    "CheckResult": "verify",
    "run_suite": "verify",
    "SUITE_NAMES": "verify",
    # errors
    "KPlaneError": "errors",
    "DivergenceError": "errors",
    "TailDivergenceError": "errors",
    "UndefinedRatioError": "errors",
    "ProfileFormatError": "errors",
}

__all__ = sorted(_EXPORTS) + sorted(_SUBMODULES)


def __getattr__(name: str) -> Any:
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name in _EXPORTS:
        module = importlib.import_module(f".{_EXPORTS[name]}", __name__)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return __all__
