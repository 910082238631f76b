"""Complex singularity exponents along the plane-curve degeneration xy = t.

Exact Gaussian-rational polynomial algebra, Newton polygons, exponent
computations on the fibers and the central fiber, adaptive quadrature of the
fiber integrals, and exact construction of the non-holomorphic families that
break exponent semicontinuity.

Importing the package loads none of its modules: each exported name is
imported from its module on first use (PEP 562), so a caller that never
touches the quadrature does not pay for it.
"""

import importlib

_EXPORTS = {   # module -> the names the package exports from it
    "rationals": ("GaussianRational",),
    "polynomials": (
        "BivariatePoly", "IdenticallyZeroError", "LaurentForm", "MixedFunction",
        "UnivariatePoly", "divides_power", "poly_gcd", "squarefree_decomposition",
        "substitute_fiber", "vanishing_order",
    ),
    "exponents": ("Exponent",),
    "newton": (
        "NewtonPolygon", "PrincipalPart", "compute_polygon", "endpoints",
        "lct_polygon_estimate", "principal_part", "single_segment",
    ),
    "degeneration": (
        "CatalogEntry", "Divisor", "FiberZero", "LctResult", "SemicontinuityReport",
        "builtin_catalog", "central_exponent", "fiber_exponent", "fiber_zeros",
        "lct_from_resolution", "load_catalog", "semicontinuity_check",
    ),
    "quadrature": (
        "Annulus", "BoundReport", "IntegralReport", "KReport", "ProbeResult",
        "QuadratureConfig", "SweepReport", "annulus_integral", "convergence_sweep",
        "decompose_I", "default_t_sequence", "exponent_probe_1d", "fiber_integral_K",
        "uniform_bound_check", "young_combine",
    ),
    "counterexamples": (
        "CounterexampleRecord", "HolderProbeResult", "ViolationCheckError",
        "ViolationReport", "build_family", "counterexample_record", "holder_probe",
        "verify_violation", "vn_basis", "wn_generator",
    ),
    "expressions": ("ExpressionError", "format_function", "parse_expression"),
    "reports": ("emit_report",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value   # later lookups bypass __getattr__
    return value


def __dir__():
    return __all__
