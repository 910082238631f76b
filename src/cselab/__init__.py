"""Complex singularity exponents along the plane-curve degeneration xy = t.

Exact Gaussian-rational polynomial algebra, Newton polygons, exponent
computations on the fibers and the central fiber, adaptive quadrature of the
fiber integrals, and exact construction of the non-holomorphic families that
break exponent semicontinuity.
"""

from .rationals import GaussianRational
from .polynomials import (
    BivariatePoly,
    IdenticallyZeroError,
    LaurentForm,
    MixedFunction,
    UnivariatePoly,
    divides_power,
    poly_gcd,
    squarefree_decomposition,
    substitute_fiber,
    vanishing_order,
)
from .exponents import Exponent
from .newton import (
    NewtonPolygon,
    PrincipalPart,
    compute_polygon,
    endpoints,
    lct_polygon_estimate,
    principal_part,
    single_segment,
)
from .degeneration import (
    CatalogEntry,
    Divisor,
    FiberZero,
    LctResult,
    SemicontinuityReport,
    builtin_catalog,
    central_exponent,
    fiber_exponent,
    fiber_zeros,
    lct_from_resolution,
    load_catalog,
    semicontinuity_check,
    volume_density,
)
from .quadrature import (
    Annulus,
    BoundReport,
    IntegralReport,
    KReport,
    ProbeResult,
    QuadratureConfig,
    SweepReport,
    annulus_integral,
    convergence_sweep,
    decompose_I,
    default_t_sequence,
    exponent_probe_1d,
    fiber_integral_K,
    uniform_bound_check,
    young_combine,
)
from .counterexamples import (
    CounterexampleRecord,
    HolderProbeResult,
    ViolationCheckError,
    ViolationReport,
    build_family,
    counterexample_record,
    holder_probe,
    verify_violation,
    vn_basis,
    wn_generator,
)
from .expressions import ExpressionError, format_function, parse_expression
from .reports import emit_report

__version__ = "0.1.0"
