"""Adaptive log-polar quadrature of |f|^(-2c) on fibers of xy = t.

The integrals of interest live on annuli A(a, b) = {a < |z| < b}.  Cells
are tensor products of log-radius and angle intervals, each integrated by
an embedded pair of tensor Gauss-Legendre rules (2x2 and 3x3) and split
dyadically wherever the pair disagrees beyond tolerance; the 3x3 sum is
the cell's value and the disagreement its error.  A round of the engine
evaluates all its cells on their tensor axes: exp(u), cos(theta) and
sin(theta) once at each of the 5 abscissae per side, the fiber function at
the 13 nodes built from them, each rule's sum over angle, and then the
weights, which are radial functions of |x - center|^2, on those sums.
Cells containing a detected zero of the fiber function are split ahead of
time.  Integrable singularities r^(-2cm) with 2cm < 2 are resolved by
refinement depth; configurations with 2cm >= 2 at an interior zero are
reported divergent rather than returning a number.  A cell whose 13 nodes
all have a non-finite integrand (where r^2 overflows, say) is dropped at
once and flagged unresolved, since no split can resolve it.

Cell sums are accumulated in a fixed construction order, so a given
configuration reproduces bit-identical results.

numpy is imported inside the functions that run cells, not at module level,
so importing this module (and cselab) does not load it: only an integral or
a probe does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from . import newton
from .degeneration import (FiberZero, _exact_fiber_zero_list, central_exponent,
                           fiber_zeros)
from .polynomials import (
    IdenticallyZeroError,
    LaurentForm,
    UnivariatePoly,
    as_mixed,
    substitute_fiber,
)
from .rationals import exact_param, param_float, param_modulus

STABILITY_HYPOTHESIS = ("the fiber-integral stability theorem requires "
                        "0 < c < c_0(f_0)")

RATIO_BAND = 0.05          # final |K_t/K_0 - 1| a converged sweep allows
TREND_SLACK = 0.02         # per-step rise of |K_t/K_0 - 1| a sweep forgives
INNER_CUT_DECADES = 30.0   # an inner radius 0 is cut to R * 10^-30
PROBE_ANNULI = 8           # dyadic annuli A(r, 2r) per multiplicity probe


# ---------------------------------------------------------------------------
# configuration and report types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureConfig:
    """The five knobs of the adaptive scheme.

    radial_cells_per_decade and angular_cells size the initial grid;
    max_refinement_depth caps dyadic splitting; target_rel_tolerance is the
    per-cell threshold on the disagreement of the 2x2 and 3x3 Gauss rules;
    precision 'extended' runs the cell arithmetic in long double.
    """

    radial_cells_per_decade: int = 4
    angular_cells: int = 8
    max_refinement_depth: int = 14
    target_rel_tolerance: float = 1e-3
    precision: str = "double"

    def __post_init__(self):
        if self.radial_cells_per_decade < 4 or self.angular_cells < 4:
            raise ValueError("cell counts must be >= 4")
        if self.max_refinement_depth < 4:
            raise ValueError("max_refinement_depth must be >= 4")
        if not (0 < self.target_rel_tolerance < 0.1):
            raise ValueError("target_rel_tolerance must lie in (0, 0.1)")
        if self.precision not in ("double", "extended"):
            raise ValueError("precision must be 'double' or 'extended'")

    @property
    def complex_dtype(self):
        import numpy as np
        return np.clongdouble if self.precision == "extended" else np.complex128

    @property
    def real_dtype(self):
        import numpy as np
        return np.longdouble if self.precision == "extended" else np.float64


@dataclass(frozen=True)
class Annulus:
    r_inner: float
    r_outer: float

    def __post_init__(self):
        if not (self.r_outer > 0 and self.r_inner >= 0):
            raise ValueError("annulus radii must satisfy 0 <= r_in, 0 < r_out")
        if self.r_inner >= self.r_outer:
            raise ValueError("annulus needs r_inner < r_outer")

    def __str__(self):
        return f"A({self.r_inner:.6g}, {self.r_outer:.6g})"


@dataclass
class IntegralReport:
    value: float
    error_estimate: float
    cells_used: int
    refinement_flags: tuple
    domain: Annulus
    chart: str
    c: float
    converged: bool
    divergent: bool = False
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.divergent and self.value < 0:
            raise ValueError("integral values are nonnegative")

    def to_json_obj(self):
        return {"value": self.value, "error_estimate": self.error_estimate,
                "cells_used": self.cells_used,
                "refinement_flags": self.refinement_flags,
                "domain": str(self.domain), "chart": self.chart,
                "c": float(self.c), "converged": self.converged,
                "divergent": self.divergent, "meta": self.meta}


@dataclass
class KReport:
    """K_t together with the chart components I_t and J_t of one shared pass."""

    t: object
    k_report: IntegralReport
    i_report: IntegralReport
    j_report: IntegralReport

    @property
    def identity_residual(self) -> float:
        """|K - (I + J)| / K, the fiber-volume splitting identity."""
        k = self.k_report.value
        if not math.isfinite(k) or k == 0:
            return math.inf
        return abs(k - (self.i_report.value + self.j_report.value)) / k

    def to_json_obj(self):
        return {"t": self.t, "K": self.k_report, "I": self.i_report,
                "J": self.j_report, "identity_residual": self.identity_residual}


@dataclass(frozen=True)
class SweepRow:
    t: object
    k_t: float
    err: float
    i_t: float
    j_t: float
    ratio: float
    flags: tuple = ()

    def to_json_obj(self):
        return {"t": self.t, "K_t": self.k_t, "err": self.err, "I_t": self.i_t,
                "J_t": self.j_t, "ratio": self.ratio, "flags": self.flags}


@dataclass
class SweepReport:
    rows: tuple
    k0: float
    k0_err: float
    verdict: str           # "converged" | "inconclusive"
    hypothesis_note: str
    function: object       # the swept BivariatePoly or MixedFunction

    def csv_rows(self):
        return [(param_float(r.t), r.k_t, r.err, r.i_t, r.j_t, r.ratio)
                for r in self.rows]

    def to_json_obj(self):
        return {"function": self.function, "K0": self.k0, "K0_err": self.k0_err,
                "verdict": self.verdict, "hypothesis_note": self.hypothesis_note,
                "rows": self.rows}


@dataclass
class BoundReport:
    bound: float
    rows: tuple
    growth_flag: bool
    note: str = ""

    def to_json_obj(self):
        return {"bound": self.bound, "growth_flag": self.growth_flag,
                "note": self.note,
                "rows": [{"t": r.t, "K_t": r.k_t, "err": r.err}
                         for r in self.rows]}


@dataclass(frozen=True)
class ProbeResult:
    multiplicity_estimate: float
    slope: float
    fit_residual: float
    radii: tuple
    masses: tuple

    def to_json_obj(self):
        return {"multiplicity_estimate": self.multiplicity_estimate,
                "slope": self.slope, "fit_residual": self.fit_residual,
                "radii": self.radii, "masses": self.masses}


# ---------------------------------------------------------------------------
# fiber evaluation plumbing
# ---------------------------------------------------------------------------

def _fiber_parts(fiber):
    """(numerator, pole order) of a LaurentForm or UnivariatePoly."""
    if isinstance(fiber, LaurentForm):
        return fiber.combined_numerator(), fiber.pole_order
    if isinstance(fiber, UnivariatePoly):
        return fiber, 0
    raise TypeError("expected LaurentForm or UnivariatePoly")


def _base_fn(fiber, c: float, cfg: QuadratureConfig, chart: str = "x", t=None):
    """|f|^(-2c) as a vectorized function of the chart coordinate.

    This is the one float evaluator of fiber functions.  The y chart
    evaluates the fiber function at x = t/y for the given t."""
    import numpy as np
    num, d = _fiber_parts(fiber)
    coeffs = np.array([complex(cr / num.den, ci / num.den) for cr, ci in num.nums],
                      dtype=cfg.complex_dtype)
    tc = cfg.complex_dtype(exact_param(t).to_complex()) if chart == "y" else None

    def evaluate(z):
        x = tc / z if chart == "y" else z
        acc = np.full_like(x, coeffs[-1])
        for ck in coeffs[-2::-1]:
            acc *= x
            if ck:
                acc += ck
        av = np.abs(acc)
        if d:
            av /= np.abs(x) ** d
        if c == 0:
            return np.ones_like(av)
        return av ** (-2.0 * c)

    return evaluate


def _detect_zeros(fiber):
    """Zero structure of a fiber function, from its exact coefficients."""
    num, _ = _fiber_parts(fiber)
    if num.is_zero():
        raise IdenticallyZeroError("fiber function is identically zero")
    return _exact_fiber_zero_list(num)


# ---------------------------------------------------------------------------
# the adaptive engine
# ---------------------------------------------------------------------------

# the embedded rule pair of a cell: tensor Gauss-Legendre 2x2 (coarse, exact
# to degree 3 per variable) then 3x3 (fine, degree 5), as (u, theta) fractions
# of the cell's sides with weights that sum to 1 per rule; 13 nodes in all
_G2 = ((0.5 - 0.5 / math.sqrt(3.0), 0.5), (0.5 + 0.5 / math.sqrt(3.0), 0.5))
_G3 = ((0.5 - 0.5 * math.sqrt(0.6), 5.0 / 18.0), (0.5, 8.0 / 18.0),
       (0.5 + 0.5 * math.sqrt(0.6), 5.0 / 18.0))
_GAUSS_PAIR = tuple((gu, gt, wu * wt) for g in (_G2, _G3)
                    for (gu, wu) in g for (gt, wt) in g)
# the same pair on its tensor axes: the 5 distinct (abscissa, weight) pairs of
# a side, the 2-point rule's then the 3-point rule's, and for each node of
# _GAUSS_PAIR the index of its u pair and of its theta pair
_AXIS = _G2 + _G3
_NODE_U = tuple(i for b in ((0, 1), (2, 3, 4)) for i in b for _ in b)
_NODE_T = tuple(j for b in ((0, 1), (2, 3, 4)) for _ in b for j in b)


@lru_cache(maxsize=None)
def _axis_arrays(rdt):
    import numpy as np
    ab, w = (np.array(col, dtype=rdt) for col in zip(*_AXIS))
    return ab, w[:2], w[2:], np.array(_NODE_U), np.array(_NODE_T)


def _cell_rule(cells, base_fn, radial=None, center=0j):
    """(coarse and fine sums of each weight, base at the 13 nodes, radial
    factors at the 5 u abscissae) of each row (u0, u1, theta0, theta1).

    Each rule sums over angle before the radial factors apply, so an
    infinite node of one rule leaves the other's sum finite."""
    import numpy as np
    ab, w2, w3, node_u, node_t = _axis_arrays(cells.dtype.type)
    lo = cells[:, 0::2].T
    side = cells[:, 1::2].T - lo
    ut = lo[:, None] + side[:, None] * ab[:, None]
    # libm's exp, through a complex exp: numpy's own float64 exp is an ulp
    # off on some arguments, which the fiber's zeros amplify
    er = np.exp(ut[0] + 0j).real
    phase = np.empty(er.shape, dtype=np.result_type(er, np.complex64))
    np.cos(ut[1], out=phase.real)
    np.sin(ut[1], out=phase.imag)
    x = phase.take(node_t, axis=0)
    x *= er.take(node_u, axis=0)
    if center:
        x += center
    vals = base_fn(x)
    ang = np.concatenate((w2 @ vals[:4].reshape(2, 2, -1),
                          w3 @ vals[4:].reshape(3, 3, -1)))
    ang *= side[0] * side[1]
    factors = (er * er)[None] if radial is None else radial(er * er)
    rs = factors * ang
    return np.array((w2 @ rs[:, :2], w3 @ rs[:, 2:])), vals, factors


def _adaptive_polar(base_fn, annulus: Annulus, cfg: QuadratureConfig,
                    radial=None, zero_points=(), center=0j):
    """Masses of base*w_k over the annulus for every weight w_k.

    The weights are radial: radial maps r^2 = |x - center|^2 to the stack
    of w_k r^2, each weight times the log-polar Jacobian; the default is the
    unit weight alone.  Returns (masses, errors, cells_used, flags,
    converged).  The last weight drives refinement; all weights share the
    grid, so linear identities between them hold to rounding.
    """
    import numpy as np
    rdt = cfg.real_dtype
    u_lo = math.log(annulus.r_inner)
    u_hi = math.log(annulus.r_outer)
    decades = (u_hi - u_lo) / math.log(10.0)
    n_u = max(4, int(math.ceil(decades * cfg.radial_cells_per_decade)))
    n_th = max(4, cfg.angular_cells)

    # cells are rows (u0, u1, theta0, theta1), with their depths beside them
    ue = np.linspace(u_lo, u_hi, n_u + 1, dtype=rdt)
    te = np.linspace(0.0, 2.0 * math.pi, n_th + 1, dtype=rdt)
    edges = np.broadcast_arrays(ue[:-1, None], ue[1:, None], te[:-1], te[1:])
    cells = np.stack(edges, axis=-1).reshape(-1, 4)
    depth = np.zeros(len(cells), dtype=np.int32)

    # pre-split cells containing a detected zero, so singular regions are
    # refined around the zero before the tolerance loop sees them
    zs = [complex(z) - complex(center) for z in zero_points]
    zs = np.array([(math.log(abs(z)), math.atan2(z.imag, z.real) % (2.0 * math.pi))
                   for z in zs if abs(z) > 0], dtype=rdt).reshape(-1, 1, 2)
    for _ in range(2):
        hit = ((cells[:, 0::2] <= zs) & (zs <= cells[:, 1::2])).all(axis=2).any(axis=0)
        if not hit.any():
            break
        kids, kid_depth = _split_cells(cells[hit], depth[hit])
        cells = np.concatenate([cells[~hit], kids])
        depth = np.concatenate([depth[~hit], kid_depth])

    sums = rdt(0.0)   # becomes (errors, masses) of every weight
    cells_used = forced = dropped = 0
    abs_floor = None
    tol = cfg.target_rel_tolerance
    node_u = _axis_arrays(rdt)[3]
    with np.errstate(all="ignore"):
        while len(cells):
            rule, vals, factors = _cell_rule(cells, base_fn, radial, center)
            if abs_floor is None:
                first = rule[0, -1]
                scale0 = float(first[np.isfinite(first)].sum())
                abs_floor = tol * max(scale0, 1e-300) / (4.0 * len(cells))
            rule[0] = np.abs(rule[1] - rule[0])    # now (|fine - coarse|, fine)
            finite = np.isfinite(rule[0]).all(axis=0)
            accept = finite & (rule[0, -1] <= tol * rule[1, -1] + abs_floor)
            if not finite.all():
                # a cell non-finite at all 13 nodes is dropped: no split helps
                bad = np.flatnonzero(~finite)
                node_factors = factors.take(node_u, axis=1)[:, :, bad]
                hopeless = ~np.isfinite(vals[:, bad] * node_factors).all(axis=0).any(axis=0)
                accept[bad[hopeless]] = True
                dropped += int(np.count_nonzero(hopeless))
                rule[:, :, bad] = 0.0      # so the sums below see no NaN * 0
            at_cap = depth >= cfg.max_refinement_depth
            if at_cap.any():
                forced_now = at_cap & ~accept
                forced += int(np.count_nonzero(forced_now))
                dropped += int(np.count_nonzero(forced_now & ~finite))
                accept |= at_cap
            good = accept & finite
            sums = sums + rule @ good
            cells_used += int(np.count_nonzero(good))
            cells, depth = _split_cells(cells[~accept], depth[~accept])

    flags = []
    if forced:
        flags.append(f"max-depth-reached:{forced}")
    if dropped:
        flags.append(f"unresolved-singular-cell:{dropped}")
    converged = forced == 0 and dropped == 0
    return ([float(v) for v in sums[1]], [float(e) for e in sums[0]],
            cells_used, tuple(flags), converged)


def _split_cells(cells, depth):
    """The four children of each cell, quadrant by quadrant after it."""
    import numpy as np
    mid = 0.5 * (cells[:, 0::2] + cells[:, 1::2])
    kids = np.repeat(cells, 4, axis=0)
    quad = kids.reshape(-1, 2, 2, 4)     # (cell, theta half, u half, side)
    quad[:, :, 0, 1] = mid[:, 0:1]
    quad[:, :, 1, 0] = mid[:, 0:1]
    quad[:, 0, :, 3] = mid[:, 1:2]
    quad[:, 1, :, 2] = mid[:, 1:2]
    return kids, np.repeat(depth + 1, 4)


def _check_radius(radius):
    if not 0 < radius < math.inf:
        raise ValueError(f"the radius R must be finite and > 0; got R={radius}")


def _interior_zeros(zeros, domain: Annulus):
    slack = 1e-12
    return [z for z in zeros
            if domain.r_inner * (1 - slack) <= abs(z.location_complex())
            <= domain.r_outer * (1 + slack)]


def _divergent_report(interior, c: float, domain: Annulus, chart: str):
    """The divergent report for the first interior zero with 2cm >= 2, else None."""
    for z in interior:
        if 2.0 * c * z.multiplicity >= 2.0:
            return IntegralReport(
                value=math.inf, error_estimate=math.inf, cells_used=0,
                refinement_flags=("divergent",), domain=domain, chart=chart,
                c=c, converged=False, divergent=True,
                meta={"divergent_zero": str(z.location_complex()),
                      "multiplicity": z.multiplicity,
                      "local_exponent": 2.0 * c * z.multiplicity})
    return None


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def annulus_integral(fiber, c: float, domain: Annulus, chart: str = "x",
                     config: QuadratureConfig | None = None, t=None,
                     zeros=None) -> IntegralReport:
    """Integral of |f|^(-2c) over an annulus against the chart area form.

    Parameters
    ----------
    fiber : LaurentForm or UnivariatePoly
        The fiber function x -> F(x, t/x) (or any one-variable function),
        with exact coefficients.
    c : float
        Exponent parameter, c >= 0.
    domain : Annulus
        Integration annulus in the chart coordinate; an inner radius of 0
        is truncated to a punctured disc (the cut is recorded in meta).
    chart : 'x' or 'y'
        'y' integrates the same fiber function against dV_y, evaluating it
        at x = t/y; t defaults to the t of a LaurentForm fiber.
    zeros : optional list of FiberZero
        Known zeros (in the x coordinate); detected automatically when
        omitted.  Used for pre-refinement and the divergence test.
    """
    cfg = config or QuadratureConfig()
    if c < 0:
        raise ValueError("c must be nonnegative")
    if chart not in ("x", "y"):
        raise ValueError("chart must be 'x' or 'y'")
    if zeros is None and c > 0:
        zeros = _detect_zeros(fiber)
    zeros = list(zeros or ())

    if t is None and isinstance(fiber, LaurentForm):
        t = fiber.t
    if chart == "y":
        if t is None:
            raise ValueError("y-chart integration needs the fiber parameter t")
        tc = exact_param(t).to_complex()
        zeros = [FiberZero(tc / z.location_complex(), z.multiplicity, False)
                 for z in zeros if z.location_complex() != 0]

    truncated = domain.r_inner == 0
    work = (Annulus(domain.r_outer * 10.0 ** -INNER_CUT_DECADES, domain.r_outer)
            if truncated else domain)
    interior = _interior_zeros(zeros, work)
    divergent = _divergent_report(interior, c, domain, chart)
    if divergent is not None:
        return divergent

    base = _base_fn(fiber, c, cfg, chart=chart, t=t)
    masses, errs, cells, flags, converged = _adaptive_polar(
        base, work, cfg, zero_points=[z.location_complex() for z in interior])
    meta = {"inner_truncated": truncated}
    if truncated:
        meta["inner_cut"] = work.r_inner
    return IntegralReport(
        value=masses[0], error_estimate=errs[0], cells_used=cells,
        refinement_flags=flags, domain=domain, chart=chart, c=c,
        converged=converged, meta=meta)


def fiber_integral_K(f, t, c: float, radius: float,
                     config: QuadratureConfig | None = None) -> KReport:
    """K_t(R) = I_t(R) + J_t(R), the fiber integral with its chart split.

    For t != 0 a single adaptive pass over the x-chart annulus
    A(|t|/R, R) accumulates three weights: 1 (giving I_t), the Jacobian
    |y|^2/|x|^2 of the y-chart (giving J_t) and the intrinsic fiber volume
    density (|x|^2 + |y|^2)/|x|^2 (giving K_t), so the splitting identity
    is checked on a shared grid.  At t = 0, K_0 is the sum of the two
    punctured-disc integrals of the axis restrictions.

    Requires 0 < c < c_0(f_0): otherwise the stability hypothesis fails
    and the request is rejected.
    """
    cfg = config or QuadratureConfig()
    _check_radius(radius)
    f = as_mixed(f)
    c0 = central_exponent(f, "min")
    if not (0 < c < float(c0)):
        raise ValueError(f"{STABILITY_HYPOTHESIS}; got c={c}, c_0={c0}")

    tt = exact_param(t)
    if tt.is_zero():
        # 0 < c < c_0 keeps both axis restrictions nonzero
        disc = Annulus(0.0, radius)
        i_rep = annulus_integral(f.holo.restrict_x_axis(), c, disc, config=cfg)
        j_rep = annulus_integral(f.holo.restrict_y_axis(), c, disc, config=cfg)
        # the y axis is integrated in its own coordinate, so label it as the
        # y chart (chart="y" would evaluate at x = t/y with t = 0)
        j_rep.chart = "y"
        # sum the counts per kind; the kinds sort alphabetically in the
        # order _adaptive_polar emits them, after a bare 'divergent'
        counts = {}
        for flag in sorted(i_rep.refinement_flags + j_rep.refinement_flags):
            kind, _, n = flag.partition(":")
            counts[kind] = counts.get(kind, 0) + int(n or 0)
        k_rep = IntegralReport(
            value=i_rep.value + j_rep.value,
            error_estimate=i_rep.error_estimate + j_rep.error_estimate,
            cells_used=i_rep.cells_used + j_rep.cells_used,
            refinement_flags=tuple(f"{k}:{n}" if n else k for k, n in counts.items()),
            domain=disc, chart="central", c=c,
            converged=i_rep.converged and j_rep.converged,
            divergent=i_rep.divergent or j_rep.divergent,
            meta={"note": "central fiber: sum over the two axis components"})
        return KReport(t=0, k_report=k_rep, i_report=i_rep, j_report=j_rep)

    t_abs = param_modulus(tt)
    domain = Annulus(t_abs / radius, radius)
    fib = substitute_fiber(f, t)
    zeros = fiber_zeros(fib, tt, delta=radius)
    divergent = _divergent_report(_interior_zeros(zeros, domain), c, domain, "x")
    if divergent is not None:
        return KReport(t=t, k_report=divergent, i_report=divergent,
                       j_report=divergent)

    import numpy as np
    base = _base_fn(fib, c, cfg)
    t2 = t_abs * t_abs

    def radial(r2):
        # r^2 times the weights 1, |y|^2/|x|^2 = t^2/r^4 and the intrinsic
        # density (|x|^2 + |y|^2)/|x|^2 = 1 + t^2/r^4, with y = t/x
        q = t2 / r2
        return np.array((r2, q, r2 + q))

    masses, errs, cells, flags, converged = _adaptive_polar(
        base, domain, cfg, radial=radial,
        zero_points=[z.location_complex() for z in zeros])

    mk = dict(cells_used=cells, refinement_flags=flags, domain=domain,
              c=c, converged=converged)
    k_rep = IntegralReport(value=masses[2], error_estimate=errs[2],
                           chart="density", **mk)
    i_rep = IntegralReport(value=masses[0], error_estimate=errs[0],
                           chart="x", **mk)
    j_rep = IntegralReport(value=masses[1], error_estimate=errs[1],
                           chart="y-via-x", **mk)
    return KReport(t=t, k_report=k_rep, i_report=i_rep, j_report=j_rep)


def decompose_I(f, t, c: float, radius: float, r1: float,
                config: QuadratureConfig | None = None):
    """Three-annulus split of I_t(R) around the scale |x| ~ |s|^l.

    With (k, l) the axis endpoints of the Newton polygon of F and s the
    positive real root of s^(k+l) = t, the rescaling x = s^l z maps the
    x-annulus A(|t|/R, R) to A(|s|^k/R, R/|s|^l) in z; the parts
    near z ~ 1, z large and z small are returned in that order as
    (I_t1, I_t2, I_t3).  In the x coordinate they are the radial pieces
    split at |s|^l/R1 and |s|^l*R1, so they sum to I_t.
    """
    cfg = config or QuadratureConfig()
    _check_radius(radius)
    if r1 <= 1:
        raise ValueError("R1 must exceed 1")
    tt = exact_param(t)
    if not tt.is_real() or tt.re <= 0:
        raise ValueError("decomposition uses the positive real branch: t > 0")
    t_f = float(tt.re)

    holo = as_mixed(f).holo
    polygon = newton.compute_polygon(holo)
    k, l = newton.endpoints(polygon)
    s = t_f ** (1.0 / (k + l))
    a0 = t_f / radius
    a1 = s ** l / r1
    a2 = s ** l * r1
    a3 = radius
    if not (a0 < a1 < a2 < a3):
        raise ValueError(
            f"partition radii are not ordered ({a0:.3g}, {a1:.3g}, {a2:.3g}, "
            f"{a3:.3g}); R1 is incompatible with this t and R")

    fib = substitute_fiber(f, tt)
    zeros = fiber_zeros(fib, tt, delta=radius)
    reports = []
    z_domains = [(1.0 / r1, r1), (r1, radius / s ** l), (s ** k / radius, 1.0 / r1)]
    x_domains = [Annulus(a1, a2), Annulus(a2, a3), Annulus(a0, a1)]
    for (zd, xd) in zip(z_domains, x_domains):
        rep = annulus_integral(fib, c, xd, chart="x", config=cfg, t=t,
                               zeros=zeros)
        rep.meta.update({"s": s, "endpoints": (k, l),
                         "z_annulus": f"A({zd[0]:.6g}, {zd[1]:.6g})"})
        reports.append(rep)
    return tuple(reports)


def _sweep_row(t, kr: KReport, ratio: float) -> SweepRow:
    return SweepRow(t=t, k_t=kr.k_report.value, err=kr.k_report.error_estimate,
                    i_t=kr.i_report.value, j_t=kr.j_report.value, ratio=ratio,
                    flags=kr.k_report.refinement_flags)


def default_t_sequence(start=Fraction(1, 100), ratio=Fraction(1, 4), count=7):
    """Geometric decay t_j = start * ratio^j, exact when inputs are exact."""
    start, ratio = Fraction(start), Fraction(ratio)
    return [start * ratio ** j for j in range(count)]


def convergence_sweep(f, c: float, radius: float, t_sequence=None,
                      config: QuadratureConfig | None = None) -> SweepReport:
    """Tabulate K_t(R) against K_0(R) along a decreasing t sequence.

    Hypotheses checked here: the Newton polygon of F must consist of a
    single segment (two or more segments certify reducibility, outside the
    stability theorem's scope; note that a single segment is only a
    necessary condition, which the report records) and 0 < c < c_0(f_0).
    The verdict is "converged" when the final ratio sits inside RATIO_BAND
    around 1 and |ratio - 1| decreases monotonically up to TREND_SLACK plus
    quadrature error.
    """
    cfg = config or QuadratureConfig()
    _check_radius(radius)
    f = as_mixed(f)
    if not f.is_holomorphic():
        raise ValueError("the stability statement concerns holomorphic F")
    polygon = newton.compute_polygon(f.holo)
    if len(polygon.segments) != 1:
        raise ValueError(
            "Newton polygon has several segments, so F is reducible; the "
            "single-segment stability check does not apply (see the uniform "
            "bound operation for reducible inputs)")
    note = ("single-segment Newton polygon holds: necessary for "
            "irreducibility but not sufficient; hypothesis unverified")
    if t_sequence is None:
        t_sequence = default_t_sequence()
    ts = sorted(t_sequence, key=param_modulus, reverse=True)
    if any(exact_param(t).is_zero() for t in ts):
        raise ValueError("t sequence must be nonzero (K_0 is computed separately)")
    for prev, cur in zip(ts, ts[1:]):
        if not param_modulus(cur) < param_modulus(prev):
            raise ValueError("t sequence must be strictly decreasing in |t|")

    k0 = fiber_integral_K(f, 0, c, radius, cfg)
    rows = []
    any_divergent = False
    for t in ts:
        kr = fiber_integral_K(f, t, c, radius, cfg)
        if kr.k_report.divergent:
            any_divergent = True
        ratio = (kr.k_report.value / k0.k_report.value
                 if k0.k_report.value else math.inf)
        rows.append(_sweep_row(t, kr, ratio))

    verdict = "inconclusive"
    if len(rows) >= 2 and not any_divergent and k0.k_report.value > 0:
        final_ok = abs(rows[-1].ratio - 1.0) <= RATIO_BAND
        errs = [r.err / k0.k_report.value for r in rows]
        devs = [abs(r.ratio - 1.0) for r in rows]
        monotone = all(
            devs[i + 1] <= devs[i] + TREND_SLACK + errs[i] + errs[i + 1]
            for i in range(len(devs) - 1))
        if final_ok and monotone:
            verdict = "converged"
    return SweepReport(rows=tuple(rows), k0=k0.k_report.value,
                       k0_err=k0.k_report.error_estimate, verdict=verdict,
                       hypothesis_note=note, function=f)


def uniform_bound_check(f, c: float, radius: float, t_samples,
                        config: QuadratureConfig | None = None) -> BoundReport:
    """Sampled uniform bound sup_t K_t(R) over |t| down the sample list.

    Works for any F, reducible included.  The report flags a monotone
    growth of K_t as t -> 0 beyond the quadrature error, which would
    contradict the uniform-bound theorem and signals a failure.
    """
    cfg = config or QuadratureConfig()
    _check_radius(radius)
    samples = sorted(t_samples, key=param_modulus, reverse=True)
    if not samples:
        raise ValueError("empty t sample list")
    rows = [_sweep_row(t, fiber_integral_K(f, t, c, radius, cfg), math.nan)
            for t in samples]
    bound = max(r.k_t + r.err for r in rows)
    growth = growth_trend(rows)
    note = ("K_t grows toward t = 0 with non-decaying slope beyond the "
            "quadrature error; this contradicts the uniform-bound theorem"
            if growth else "")
    return BoundReport(bound=bound, rows=tuple(rows), growth_flag=growth,
                       note=note)


def growth_trend(rows) -> bool:
    """Detect a growth of K_t toward t = 0 that suggests unboundedness.

    A bounded family typically increases toward its t -> 0 limit, so
    monotone growth alone is healthy; divergence shows up as per-log-t
    slopes that persist or grow as t shrinks (log or power blowup), while a
    bounded approach has geometrically decaying slopes.  rows are SweepRow
    records sorted by decreasing |t|; a t = 0 row has no log |t| and is
    left out of the tail.
    """
    tail = [r for r in rows if param_modulus(r.t) > 0][-4:]
    if len(tail) < 3:
        return False
    slopes = []
    for a, b in zip(tail, tail[1:]):
        dlog = math.log(param_modulus(a.t)) - math.log(param_modulus(b.t))
        slopes.append((b.k_t - a.k_t) / dlog)
    increasing = all(a.k_t < b.k_t for a, b in zip(tail, tail[1:]))
    persistent = all(s2 >= 0.9 * s1 for s1, s2 in zip(slopes, slopes[1:]))
    rise = tail[-1].k_t - tail[0].k_t
    noise = sum(r.err for r in tail)
    return increasing and persistent and rise > noise


def young_combine(bounds) -> float:
    """Uniform bound for a product from factor bounds via Young's inequality.

    bounds is a list of (l_i, M_i) where l_i is the central vanishing order
    of the i-th factor and M_i its uniform bound computed at the exponent
    c_i = c * l / l_i (caller contract, l = sum of l_i).  Returns
    sum (l_i/l) * M_i.
    """
    bounds = list(bounds)
    if not bounds:
        raise ValueError("empty bound list")
    total = 0
    for (li, mi) in bounds:
        if li < 1 or int(li) != li:
            raise ValueError("orders l_i must be integers >= 1")
        if not math.isfinite(mi):
            raise ValueError("factor bounds must be finite")
        total += li
    return float(sum((li / total) * mi for (li, mi) in bounds))


def exponent_probe_1d(fiber, zero, c: float,
                      config: QuadratureConfig | None = None,
                      r0: float = 0.05) -> ProbeResult:
    """Numeric multiplicity estimate from annulus masses around a zero.

    Integrates |f|^(-2c) over the PROBE_ANNULI annuli A(r, 2r) centered at
    the zero for r = r0 * 2^-j and fits the slope alpha of log mass against
    log r; the local model mass ~ r^(2 - 2cm) gives m = (2 - alpha)/(2c).
    Needs c * multiplicity < 1 so the masses stay finite, and at least 4
    usable annuli.
    """
    cfg = config or QuadratureConfig()
    if c <= 0:
        raise ValueError("the probe needs c > 0")
    base = _base_fn(fiber, c, cfg)
    center = exact_param(zero).to_complex()

    radii, masses = [], []
    for j in range(PROBE_ANNULI):
        r = r0 * 2.0 ** (-j)
        ann = Annulus(r, 2.0 * r)
        m, _, _, _, _ = _adaptive_polar(base, ann, cfg, center=center)
        if math.isfinite(m[0]) and m[0] > 0:
            radii.append(r)
            masses.append(m[0])
    if len(radii) < 4:
        raise ValueError("fewer than 4 usable annuli")
    import numpy as np
    lr = np.log(np.array(radii))
    lm = np.log(np.array(masses))
    slope, intercept = np.polyfit(lr, lm, 1)
    residual = float(np.max(np.abs(lm - (slope * lr + intercept))))
    m_hat = (2.0 - slope) / (2.0 * c)
    return ProbeResult(multiplicity_estimate=float(m_hat), slope=float(slope),
                       fit_residual=residual, radii=tuple(radii),
                       masses=tuple(masses))
