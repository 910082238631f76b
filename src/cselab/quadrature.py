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

A disc (inner radius 0) has no inner cut: near its centre it is integrated
analytically (_disc_tail), exactly when the function is a monomial in the
chart coordinate, and otherwise over |w| < rho with a bounded tail, the
engine taking only A(rho, R).  A disc whose centre makes 2 - 2cv <= 0 is
reported divergent.

A part is integrated over one sector of its symmetry group (_symmetry), of
order m: about 0, a numerator x^j P(x^k) is invariant under x -> wx with
w^k = 1, and a real fiber about a real centre (on the y chart, at a real t)
under x -> conj(x) as well, which doubles m.  The sector theta in [0, 2pi/m]
gets ceil(n/m) initial angular cells and its masses are multiplied by m, with
meta["angle"] set; cells_used and the flag counts count the cells evaluated.
A part with m = 1 takes the full circle.

An operation is one run of the engine: the rows of a sweep, the t != 0
samples of a bound, every probed zero's annuli, the annuli of the I_t
decomposition or the axes of K_0 that are not monomials are its parts,
refined in shared rounds, each with its own centre, cells, floor and counts.

A report is converged when it has no refinement flag, divergent when one
is "divergent".  An identically zero fiber function is refused, and so is a
t != 0 whose |t|^2 is not a normal float (|t| < 1.49e-154): its weight
t^2/r^4 would read 0 and its smallest cells 0/0.

Cell sums are accumulated in a fixed construction order, so a given
configuration reproduces bit-identical results.

numpy is imported inside the functions that run cells, not at module level,
so importing this module (and cselab) does not load it: only an integral or
a multiplicity probe does.
"""

from __future__ import annotations

import math
import operator
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

from . import newton
from .degeneration import (FiberZero, _cyclic_order, _form_zeros, _zeros_in, central_exponent,
                           fiber_zeros)
from .exponents import _log_log_fit
from .polynomials import (IdenticallyZeroError, LaurentForm, UnivariatePoly, as_mixed,
                          substitute_fiber)
from .rationals import exact_param, param_float, param_modulus

STABILITY_HYPOTHESIS = ("the fiber-integral stability theorem requires "
                        "0 < c < c_0(f_0)")

RATIO_BAND = 0.05          # final |K_t/K_0 - 1| a converged sweep allows
TREND_SLACK = 0.02         # per-step rise of |K_t/K_0 - 1| a sweep forgives
PROBE_ANNULI = 8           # dyadic annuli A(r, 2r) per multiplicity probe
PROBE_RADIUS = 0.05        # largest probe radius, before the cuts of exponent_probe_1d
# cells evaluated at once: 13 x 512 complex nodes take 104 KiB, under glibc's
# 128 KiB mmap threshold, so the temporaries come from the heap (on a 2-CPU
# x86-64 host 0.7 us a cell, against 1.0-1.2 us in blocks of 2048-4096)
CHUNK_CELLS = 512


# ---------------------------------------------------------------------------
# configuration and report types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureConfig:
    """The four knobs of the adaptive scheme.

    radial_cells_per_decade and angular_cells size the initial grid, a part
    with a symmetry group of order m taking ceil(angular_cells/m) over its
    sector of 2pi/m;
    max_refinement_depth caps dyadic splitting; target_rel_tolerance is the
    per-cell threshold on the disagreement of the 2x2 and 3x3 Gauss rules.
    """

    radial_cells_per_decade: int = 4
    angular_cells: int = 8
    max_refinement_depth: int = 14
    target_rel_tolerance: float = 1e-3

    def __post_init__(self):
        for name in ("radial_cells_per_decade", "angular_cells", "max_refinement_depth"):
            value = getattr(self, name)
            try:
                operator.index(value)
            except TypeError:
                raise ValueError(f"{name} must be an integer; got {value!r}") from None
        if self.radial_cells_per_decade < 4 or self.angular_cells < 4:
            raise ValueError("cell counts must be >= 4")
        if self.max_refinement_depth < 4:
            raise ValueError("max_refinement_depth must be >= 4")
        if not (0 < self.target_rel_tolerance < 0.1):
            raise ValueError("target_rel_tolerance must lie in (0, 0.1)")


@dataclass(frozen=True)
class Annulus:
    r_inner: float
    r_outer: float

    def __post_init__(self):
        if not (self.r_inner >= 0 and 0 < self.r_outer < math.inf):
            raise ValueError("annulus radii must satisfy 0 <= r_in, 0 < r_out < inf")
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
    meta: dict = field(default_factory=dict)

    @property
    def converged(self) -> bool:
        return not self.refinement_flags

    @property
    def divergent(self) -> bool:
        return "divergent" in self.refinement_flags

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
    k0_flags: tuple
    verdict: str           # "converged" | "inconclusive"
    hypothesis_note: str
    function: object       # the swept BivariatePoly or MixedFunction

    def csv_rows(self):
        return [(param_float(r.t), r.k_t, r.err, r.i_t, r.j_t, r.ratio)
                for r in self.rows]

    def to_json_obj(self):
        return {"function": self.function, "K0": self.k0, "K0_err": self.k0_err,
                "K0_flags": self.k0_flags, "verdict": self.verdict,
                "hypothesis_note": self.hypothesis_note, "rows": self.rows}


@dataclass
class BoundReport:
    bound: float
    rows: tuple
    growth_flag: bool
    note: str = ""

    def to_json_obj(self):
        return {"bound": self.bound, "growth_flag": self.growth_flag,
                "note": self.note,
                "rows": [{"t": r.t, "K_t": r.k_t, "err": r.err, "flags": r.flags}
                         for r in self.rows]}


@dataclass(frozen=True)
class ProbeResult:
    multiplicity_estimate: float
    slope: float
    fit_residual: float
    radii: tuple
    masses: tuple
    flags: tuple           # refinement flags of each annulus, as radii

    def to_json_obj(self):
        return {"multiplicity_estimate": self.multiplicity_estimate,
                "slope": self.slope, "fit_residual": self.fit_residual,
                "radii": self.radii, "masses": self.masses, "flags": self.flags}


# ---------------------------------------------------------------------------
# fiber evaluation plumbing
# ---------------------------------------------------------------------------

def _as_form(fiber) -> LaurentForm:
    """A LaurentForm as it is, a UnivariatePoly p as LaurentForm(p, 0)."""
    if isinstance(fiber, LaurentForm):
        return fiber
    if isinstance(fiber, UnivariatePoly):
        return LaurentForm(fiber, 0)
    raise TypeError("expected LaurentForm or UnivariatePoly")


def _base_fn(fiber, c: float, chart: str = "x"):
    """|f|^(-2c) as a vectorized function of the chart coordinate.

    This is the one float evaluator of fiber functions.  The y chart
    evaluates the fiber function at x = t/y for the form's own t."""
    import numpy as np
    form = _as_form(fiber)
    num, d = form.numerator, form.pole_order
    coeffs = np.array([complex(cr / num.den, ci / num.den) for cr, ci in num.nums])
    tc = form.t.to_complex() if chart == "y" else None

    def evaluate(z):
        x = tc / z if chart == "y" else z
        acc = np.empty_like(x)
        acc.fill(coeffs[-1])
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


# ---------------------------------------------------------------------------
# the adaptive engine
# ---------------------------------------------------------------------------

# the embedded rule pair of a cell: tensor Gauss-Legendre 2x2 (coarse, exact
# to degree 3 per variable) then 3x3 (fine, degree 5), as (u, theta) fractions
# of the cell's sides with weights that sum to 1 per rule; 13 nodes in all
_G2 = ((0.5 - 0.5 / math.sqrt(3.0), 0.5), (0.5 + 0.5 / math.sqrt(3.0), 0.5))
_G3 = ((0.5 - 0.5 * math.sqrt(0.6), 5.0 / 18.0), (0.5, 8.0 / 18.0),
       (0.5 + 0.5 * math.sqrt(0.6), 5.0 / 18.0))
# the pair on its tensor axes: the 5 distinct (abscissa, weight) pairs of a
# side, the 2-point rule's then the 3-point rule's, and for each of the 13
# nodes (2x2 then 3x3) the index of its u pair and of its theta pair
_AXIS = _G2 + _G3
_NODE_U = tuple(i for b in ((0, 1), (2, 3, 4)) for i in b for _ in b)
_NODE_T = tuple(j for b in ((0, 1), (2, 3, 4)) for _ in b for j in b)
# a cell's four children, u fastest, as columns of (u0, u1, th0, th1, u_mid, th_mid)
_QUADRANTS = ((0, 4, 2, 5), (4, 1, 2, 5), (0, 4, 5, 3), (4, 1, 5, 3))


@lru_cache(maxsize=None)
def _axis_arrays():
    import numpy as np
    ab, w = (np.array(col) for col in zip(*_AXIS))
    return ab, w[:2], w[2:], np.array(_NODE_U), np.array(_NODE_T)


def _cell_rule(cells, segments):
    """(coarse and fine sums of each weight, base at the 13 nodes, weight
    factors at the 5 u abscissae) of each row (u0, u1, theta0, theta1).

    segments are (start, stop, base_fn, t2, center): base_fn evaluates those
    rows about center, and their weights, each times the log-polar Jacobian
    r^2 = |x - center|^2, are 1 alone when t2 is None, else 1, t2/r^4 and
    1 + t2/r^4.  Each rule sums over angle before the weights apply, so an
    infinite node of one rule leaves the other's sum finite."""
    import numpy as np
    ab, w2, w3, node_u, node_t = _axis_arrays()
    lo = cells[:, 0::2].T
    side = cells[:, 1::2].T - lo
    ut = lo[:, None] + side[:, None] * ab[:, None]
    # libm's exp, through a complex exp: numpy's own float64 exp is an ulp
    # off on some arguments, which the fiber's zeros amplify
    er = np.exp(ut[0] + 0j).real
    phase = np.empty(er.shape, dtype=complex)
    np.cos(ut[1], out=phase.real)
    np.sin(ut[1], out=phase.imag)
    x = phase.take(node_t, axis=0)
    x *= er.take(node_u, axis=0)
    for a, b, *_, center in segments:
        if center:
            x[:, a:b] += center
    vals = (segments[0][2](x) if len(segments) == 1 else
            np.concatenate([base_fn(x[:, a:b]) for a, b, base_fn, *_ in segments], axis=1))
    ang = np.concatenate((w2 @ vals[:4].reshape(2, 2, -1),
                          w3 @ vals[4:].reshape(3, 3, -1)))
    ang *= side[0] * side[1]
    r2 = er * er
    t2 = [s[3] for s in segments]
    if t2[0] is None:
        factors = r2[None]
    else:   # q = r^2 |y|^2/|x|^2 with y = t/x
        q = (t2[0] if len(t2) == 1 else np.repeat(t2, [b - a for a, b, *_ in segments])) / r2
        factors = np.array((r2, q, r2 + q))
    rs = factors * ang
    return np.array((w2 @ rs[:, :2], w3 @ rs[:, 2:])), vals, factors


def _segments(parts, spans, lo, hi):
    """The _cell_rule segments of rows lo to hi, counted from lo; spans are
    (part index, first row, end row) in row order."""
    return [(max(a, lo) - lo, min(b, hi) - lo, parts[p][0], *parts[p][3:5])
            for p, a, b in spans if a < hi and b > lo]


def _symmetry(form: LaurentForm, center, chart: str):
    """(k, m) of |f|^(-2c) and its radial weights about center.  About 0
    they are invariant under x -> wx for w^k = 1, k the numerator's cyclic
    order (_cyclic_order; on the y chart, x = t/y, the map y -> conj(w) y is
    the same), and k is 1 about any other centre.  m, the order of their
    symmetry group, is 2k when x -> conj(x) keeps them too (a real numerator,
    a real centre and, on the y chart, a real t), else k."""
    k = _cyclic_order(form.numerator)[1] if center == 0 else 1
    mirror = (not any(ci for _, ci in form.numerator.nums) and center.imag == 0
              and (chart == "x" or form.t.is_real()))
    return k, k * (1 + mirror)


def _sector_meta(m):
    """The meta of a report from the sector grid of a group of order m."""
    return {"angle": f"1/{m} of the circle, times {m}"} if m > 1 else {}


def _initial_grid(annulus: Annulus, cfg: QuadratureConfig, zero_points, center, k, m):
    """The cells (u0, u1, theta0, theta1) and depths of an annulus's initial
    grid, with the cells that contain a detected zero split twice, so
    singular regions are refined before the tolerance test sees them.  The
    grid spans the sector theta in [0, 2pi/m] of a symmetry group (k, m)
    (_symmetry) with ceil(n/m) angular cells.  Each zero is folded once into
    a point (u, theta) of it, its angle mod 2pi/k, then into [0, pi/k] when
    m = 2k, so that an orbit of zeros gives one point even where atan2 puts
    a member an ulp past the far edge.  Bisection on the edges finds the
    cells that hold a point, edges included; of their children, those that
    hold a point are split again.  The unsplit cells, unsplit children and
    grandchildren follow in that order."""
    import numpy as np
    u_lo = math.log(annulus.r_inner)
    u_hi = math.log(annulus.r_outer)
    decades = (u_hi - u_lo) / math.log(10.0)
    n_u = max(4, int(math.ceil(decades * cfg.radial_cells_per_decade)))
    n_th, span, turn = -(-max(4, cfg.angular_cells) // m), 2.0 * math.pi / m, 2.0 * math.pi / k
    # np.linspace's own arithmetic, without its overhead
    ue = np.arange(n_u + 1.0) * ((u_hi - u_lo) / n_u) + u_lo
    te = np.arange(n_th + 1.0) * (span / n_th)
    ue[-1], te[-1] = u_hi, span
    cells = np.empty((n_u, n_th, 4))
    cells[..., 0], cells[..., 1] = ue[:-1, None], ue[1:, None]
    cells[..., 2], cells[..., 3] = te[:-1], te[1:]
    cells = cells.reshape(-1, 4)

    zs = [complex(z) - complex(center) for z in zero_points]
    points = {(math.log(abs(z)), math.atan2(z.imag, z.real) % turn) for z in zs if abs(z) > 0}
    if m > k:   # x -> conj(x) maps theta in [pi/k, 2pi/k] onto [0, pi/k]
        points = {(u, min(th, turn - th)) for u, th in points}
    ul, tl, inside = ue.tolist(), te.tolist(), {}   # hit cell (i, l) -> its points
    for u, th in points:
        for i in range(max(bisect_left(ul, u) - 1, 0), min(bisect_right(ul, u), n_u)):
            for l in range(max(bisect_left(tl, th) - 1, 0), min(bisect_right(tl, th), n_th)):
                inside.setdefault((i, l), []).append((u, th))
    if not inside:
        return cells, np.zeros(len(cells), dtype=np.int32)
    kids, grand = [], []
    for i, l in sorted(inside):
        for a, b, c, d in _quarters(ul[i], ul[i + 1], tl[l], tl[l + 1]):
            if any(a <= u <= b and c <= th <= d for u, th in inside[i, l]):
                grand += _quarters(a, b, c, d)
            else:
                kids.append((a, b, c, d))
    rest = np.delete(cells, [i * n_th + l for i, l in inside], axis=0)
    depth = np.repeat(np.arange(3, dtype=np.int32), [len(rest), len(kids), len(grand)])
    return np.concatenate([rest, kids + grand]), depth


def _quarters(u0, u1, t0, t1):   # _split_cells of one cell, on floats
    um, tm = 0.5 * (u0 + u1), 0.5 * (t0 + t1)
    return [(u0, um, t0, tm), (um, u1, t0, tm), (u0, um, tm, t1), (um, u1, tm, t1)]


def _adaptive_polar(parts, cfg: QuadratureConfig):
    """(masses, errors, cells_used, flags) of each part.

    A part is (base_fn, annulus, zero_points, t2, center, k, m), weighted as
    in _cell_rule; a run's parts all carry a t2, or none does.  A part runs on
    the sector grid of its symmetry group (k, m) (_symmetry), and its masses
    and errors come back times m; its cells and flag counts are the cells it
    evaluated.  Each round evaluates every unfinished cell, CHUNK_CELLS at a
    time, then accepts and splits them.  A part's cells stay contiguous, so its sums, floor and
    counts are its own.  The last weight drives refinement; a part's weights
    share its grid, so linear identities between them hold to rounding."""
    import numpy as np
    if not parts:
        return []
    grids = [_initial_grid(ann, cfg, zp, center, k, m) for _, ann, zp, _, center, k, m in parts]
    cells = np.concatenate([g[0] for g in grids])
    depth = np.concatenate([g[1] for g in grids])
    live = [(p, len(g[0])) for p, g in enumerate(grids)]   # (part, rows) in row order

    sums = [0.0] * len(parts)        # (errors, masses) of each weight, per part
    used = [0] * len(parts)
    flag_counts = np.zeros((len(parts), 2), dtype=np.int64)   # forced, dropped
    floors = None
    tol = cfg.target_rel_tolerance
    node_u = _axis_arrays()[3]
    with np.errstate(all="ignore"):
        while len(cells):
            ends = list(accumulate(n for _, n in live))
            spans = [(p, e - n, e) for (p, n), e in zip(live, ends)]
            rules = [_cell_rule(cells[lo:lo + CHUNK_CELLS],
                                _segments(parts, spans, lo, lo + CHUNK_CELLS))[0]
                     for lo in range(0, len(cells), CHUNK_CELLS)]
            rule = rules[0] if len(rules) == 1 else np.concatenate(rules, axis=2)
            if floors is None:
                floors = [tol * max(float(seg[np.isfinite(seg)].sum()), 1e-300) / (4.0 * len(seg))
                          for seg in (rule[0, -1, a:b] for _, a, b in spans)]
            floor = (floors[live[0][0]] if len(live) == 1 else
                     np.repeat([floors[p] for p, _ in live], [n for _, n in live]))
            rule[0] = np.abs(rule[1] - rule[0])    # now (|fine - coarse|, fine)
            finite = np.isfinite(rule[0]).all(axis=0)
            accept = finite & (rule[0, -1] <= tol * rule[1, -1] + floor)
            flagged = None                         # (forced, dropped) of each cell
            if not finite.all():
                # a cell non-finite at all 13 nodes is dropped: no split helps;
                # only these cells are evaluated again, for their node values
                bad = np.flatnonzero(~finite)
                sub = [(p, *np.searchsorted(bad, (a, b))) for p, a, b in spans]
                _, vals, factors = _cell_rule(cells[bad], _segments(parts, sub, 0, len(bad)))
                flagged = np.zeros((2, len(cells)), dtype=bool)
                flagged[1, bad] = ~np.isfinite(
                    vals * factors.take(node_u, axis=1)).all(axis=0).any(axis=0)
                accept |= flagged[1]
                rule[:, :, bad] = 0.0      # so the sums below see no NaN * 0
            at_cap = depth >= cfg.max_refinement_depth
            if at_cap.any():
                if flagged is None:
                    flagged = np.zeros((2, len(cells)), dtype=bool)
                flagged[0] = at_cap & ~accept
                flagged[1] |= flagged[0] & ~finite
                accept |= at_cap
            good = accept & finite
            keep = ~accept
            live = []
            for p, a, b in spans:
                sums[p] = sums[p] + rule[..., a:b] @ good[a:b]
                used[p] += int(np.count_nonzero(good[a:b]))
                if flagged is not None:
                    flag_counts[p] += np.count_nonzero(flagged[:, a:b], axis=1)
                kept = int(np.count_nonzero(keep[a:b]))
                if kept:
                    live.append((p, 4 * kept))
            cells, depth = _split_cells(cells[keep], depth[keep])

    kinds = ("max-depth-reached", "unresolved-singular-cell")
    return [([m * v for v in masses.tolist()], [m * e for e in errs.tolist()],
             n_used, tuple(f"{kind}:{n}" for kind, n in zip(kinds, counts) if n))
            for (errs, masses), n_used, counts, (*_, m)
            in zip(sums, used, flag_counts.tolist(), parts)]


def _split_cells(cells, depth):
    """The four children of each cell, quadrant by quadrant after it."""
    import numpy as np
    mid = 0.5 * (cells[:, 0::2] + cells[:, 1::2])
    kids = np.concatenate((cells, mid), axis=1).take(_QUADRANTS, axis=1)
    return kids.reshape(-1, 4), (depth + 1).repeat(4)


def _check_radius(radius):
    if not 0 < radius < math.inf:
        raise ValueError(f"the radius R must be finite and > 0; got R={radius}")


def _mass_report(value, error, cells, flags, domain, chart, c, meta):
    """The one constructor of IntegralReport; an unflagged value past the
    float range is flagged float-overflow, never a converged infinity."""
    if not flags and not math.isfinite(value):
        value, error, flags = math.inf, math.inf, ("float-overflow",)
    return IntegralReport(value=value, error_estimate=error, cells_used=cells,
                          refinement_flags=flags, domain=domain, chart=chart, c=c, meta=meta)


def _chart_moduli(form: LaurentForm, chart: str):
    """{exponent: |coefficient|^2} of the form as a Laurent polynomial in the
    chart coordinate w, exactly; the y chart substitutes x = t/w, t the form's."""
    num, d = form.numerator, form.pole_order
    den2 = num.den * num.den
    terms = [(j, Fraction(cr * cr + ci * ci, den2)) for j, (cr, ci) in enumerate(num.nums)
             if cr or ci]
    if chart == "x":
        return {j - d: m for j, m in terms}
    t2 = form.t.norm2()
    return {d - j: m * t2 ** (j - d) for j, m in terms}


# 8u with u = 2^-53, per term of _power_mass's rounding bound
_ROUND = 2.0 ** -50


def _power_mass(a2: Fraction, c: float, e: float, rho: float):
    """(mass, rounding bound) of 2 pi |a|^(-2c) rho^e / e, with |a|^2 = a2 > 0
    exact and e = 2 - 2cv > 0: the integral of |a w^v|^(-2c) over |w| < rho.

    The mass is (2 pi / e) exp(L), L = e ln rho - c (ln n - ln d) for
    a2 = n/d, so that no factor overflows alone (an L past exp's range gives
    inf).  Rounding, with u = 2^-53: math.log and math.exp are within 2u of
    exact, every other operation within u, and e = float(2 - 2cv) within u.
    So L is within 4u (|e ln rho| + c (|ln n| + |ln d|)) + u |L| of exact,
    and the mass within that plus 6u relative.  The bound takes 8u per term,
    which also covers the two powers (1 -+ S)^(-2c) of a tail (4u + 2cu each,
    their input's rounding raised to 2c) and the rounding of a sum of two
    masses, K_0 = I + J.  Its last term bounds the absolute error left when
    exp(L) underflows."""
    ln_n, ln_d, ln_rho = math.log(a2.numerator), math.log(a2.denominator), math.log(rho)
    big_l = e * ln_rho - c * (ln_n - ln_d)
    try:
        mass = math.tau / e * math.exp(big_l)
    except OverflowError:
        mass = math.inf
    rel = _ROUND * (2.0 + abs(e * ln_rho) + c * (abs(ln_n) + abs(ln_d) + 1.0) + abs(big_l))
    return mass, mass * rel + math.tau / e * 2.0 ** -1074


def _sqrt_up(q: Fraction) -> Fraction:
    """A rational upper bound on sqrt(q) with about 60 bits of relative precision."""
    s = 60 + max(0, (q.denominator.bit_length() - q.numerator.bit_length()) // 2)
    return Fraction(math.isqrt(q.numerator * 4 ** s // q.denominator) + 1, 2 ** s)


def _disc_tail(moduli: dict, v: int, c: float, radius: float, tol: float):
    """(rho, mass, error, meta) of the disc |w| < rho, for rho <= radius.

    moduli are the |coefficient|^2 of g = a w^v (1 + sum_k (b_k/a) w^k),
    lowest exponent v, with e = 2 - 2cv > 0 (formed from Fraction(c)).
    A monomial g (or c = 0, where the integrand is 1) has the exact mass
    _power_mass(|a|^2, c, e, radius) with its rounding bound, and
    rho = radius.  Otherwise put S(rho) = sum |b_k/a| rho^k: on |w| < rho,
    |g|^(-2c) lies within |a w^v|^(-2c) [(1 + S)^(-2c), (1 - S)^(-2c)], so
    the disc's mass lies in P(rho) times that interval, P = _power_mass.  S
    comes from rational upper bounds on each |b_k/a| and the exact float
    rho, rounded up, so it cannot come out low.  rho is radius or, if
    smaller, the radius at which each of the n terms of S is S*/n, where S*
    (at most 1/2) makes the interval's width relative to its midpoint tol:
    the mass is the midpoint and the error the half-width plus rounding.
    """
    a2 = moduli[v]
    e = float(2 - 2 * Fraction(c) * v)
    if c == 0 or len(moduli) == 1:
        return (radius, *_power_mass(a2, c, e, radius), {"disc": "exact"})
    betas = {k - v: _sqrt_up(m / a2) for k, m in moduli.items() if k != v}
    m_tol = ((2.0 - tol) / (2.0 + tol)) ** (0.5 / c)
    ln_share = math.log(min(0.5, (1.0 - m_tol) / (1.0 + m_tol)) / len(betas))
    rho = min([radius] + [math.exp((ln_share - math.log(b.numerator) + math.log(b.denominator)) / k)
                          for k, b in betas.items()])
    s_exact = sum(b * Fraction(rho) ** k for k, b in betas.items())
    s = float(s_exact)
    if s < s_exact:
        s = math.nextafter(s, math.inf)
    lo_f, hi_f = (1.0 + s) ** (-2.0 * c), (1.0 - s) ** (-2.0 * c)
    mass, rounding = _power_mass(a2, c, e, rho)
    return (rho, mass * (hi_f + lo_f) / 2, mass * (hi_f - lo_f) / 2 + rounding * hi_f,
            {"disc": "tail", "tail_radius": rho, "tail_interval": (mass * lo_f, mass * hi_f)})


def _divergent_report(interior, c: float, domain: Annulus, chart: str):
    """The divergent report for the first interior zero with 2cm >= 2, else None."""
    for z in interior:
        if 2.0 * c * z.multiplicity >= 2.0:
            return _mass_report(math.inf, math.inf, 0, ("divergent",), domain, chart, c,
                                {"divergent_zero": str(z.location_complex()),
                                 "multiplicity": z.multiplicity,
                                 "local_exponent": 2.0 * c * z.multiplicity})
    return None


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def annulus_integral(fiber, c: float, domain: Annulus, chart: str = "x",
                     config: QuadratureConfig | None = None) -> IntegralReport:
    """Integral of |f|^(-2c) over an annulus against the chart area form.

    Parameters
    ----------
    fiber : LaurentForm or UnivariatePoly
        The fiber function x -> F(x, t/x), substitute_fiber(F, t), or any
        one-variable function (a UnivariatePoly p is LaurentForm(p, 0)), with
        exact coefficients.  Its zeros, found once per form, are used for
        pre-refinement and the divergence test.
    c : float
        Exponent parameter, c >= 0.
    domain : Annulus
        Integration annulus in the chart coordinate.  An inner radius of 0
        is the whole disc: divergent when 2 - 2cv <= 0 (v the order of the
        function at its centre), else |w| < rho <= R is integrated
        analytically (_disc_tail) and only A(rho, R) by the engine;
        meta["disc"] is "exact" (rho = R, a monomial's mass with a rounding
        bound) or "tail", with meta["tail_radius"] and the bounds
        meta["tail_interval"] on the mass of |w| < rho.
    chart : 'x' or 'y'
        'y' integrates the same fiber function against dV_y, evaluating it
        at x = t/y for the form's own t, which must be nonzero.
    """
    return _annulus_reports([(fiber, domain)], c, chart, config)[0]


def _annulus_reports(jobs, c, chart, config):
    """annulus_integral of each (fiber, domain) job; every part that needs
    the engine is a part of one run."""
    cfg = config or QuadratureConfig()
    if not 0 <= c < math.inf:
        raise ValueError(f"c must be finite and >= 0; got c={c}")
    if chart not in ("x", "y"):
        raise ValueError("chart must be 'x' or 'y'")
    jobs = [(_as_form(fiber), domain) for fiber, domain in jobs]
    if any(form.is_zero() for form, _ in jobs):
        raise IdenticallyZeroError("fiber function is identically zero")
    if chart == "y" and any(form.t is None or form.t.is_zero() for form, _ in jobs):
        raise ValueError("y-chart integration needs a nonzero fiber parameter t")

    reports, todo = [], []
    for form, domain in jobs:
        work, tail = domain, (0.0, 0.0, {})
        if domain.r_inner == 0:
            moduli = _chart_moduli(form, chart)
            v = min(moduli)
            if Fraction(c) * v >= 1:       # 2 - 2cv <= 0: divergent at the centre
                reports.append(_divergent_report([FiberZero(0j, v)], c, domain, chart))
                continue
            rho, *tail = _disc_tail(moduli, v, c, domain.r_outer, cfg.target_rel_tolerance)
            if rho == domain.r_outer:
                mass, err, meta = tail
                reports.append(_mass_report(mass, err, 0, (), domain, chart, c, meta))
                continue
            work = Annulus(rho, domain.r_outer)
        zeros = _form_zeros(form) if c > 0 else ()
        if chart == "y":
            tc = form.t.to_complex()
            zeros = [FiberZero(form.t / z.location if z.exact_location
                               else tc / z.location_complex(), z.multiplicity)
                     for z in zeros if z.location_complex() != 0]
        interior = _zeros_in(zeros, work.r_inner, work.r_outer)
        reports.append(_divergent_report(interior, c, domain, chart))
        if reports[-1] is None:
            todo.append((len(reports) - 1, tail, (_base_fn(form, c, chart=chart), work,
                                                  [z.location_complex() for z in interior],
                                                  None, 0j, *_symmetry(form, 0j, chart))))

    runs = _adaptive_polar([part for *_, part in todo], cfg) if todo else []
    for (i, (mass, err, meta), part), (masses, errs, cells, flags) in zip(todo, runs):
        reports[i] = _mass_report(mass + masses[0], err + errs[0], cells, flags,
                                  jobs[i][1], chart, c, {**meta, **_sector_meta(part[6])})
    return reports


def fiber_integral_K(f, t, c: float, radius: float,
                     config: QuadratureConfig | None = None) -> KReport:
    """K_t(R) = I_t(R) + J_t(R), the fiber integral with its chart split.

    For t != 0 a single adaptive pass over the x-chart annulus
    A(|t|/R, R) accumulates three weights: 1 (giving I_t), the Jacobian
    |y|^2/|x|^2 of the y-chart (giving J_t) and the intrinsic fiber volume
    density (|x|^2 + |y|^2)/|x|^2 (giving K_t), so the splitting identity
    is checked on a shared grid.  At t = 0, K_0 is the sum of the two disc
    integrals of the axis restrictions (annulus_integral with an inner
    radius 0): exact for a monomial axis, as on every corpus germ.

    Requires 0 < c < c_0(f_0): otherwise the stability hypothesis fails
    and the request is rejected.
    """
    _check_radius(radius)
    return _k_reports(as_mixed(f), [t], c, radius, config or QuadratureConfig())[0]


def _k_reports(f, ts, c: float, radius: float, cfg: QuadratureConfig):
    """The KReport of f (a MixedFunction) at each t, once 0 < c < c_0 holds;
    each convergent t != 0 is a part of one adaptive run."""
    c0 = central_exponent(f, "min")
    if not (0 < c < float(c0)):
        raise ValueError(f"{STABILITY_HYPOTHESIS}; got c={c}, c_0={c0}")
    reports, todo = [], []
    for t in ts:
        tt = exact_param(t)
        if tt.is_zero():
            reports.append(_central_k(f, c, radius, cfg))
            continue
        t_abs = param_modulus(tt)
        t2 = t_abs * t_abs
        if not sys.float_info.min <= t2 < math.inf:
            raise ValueError("|t|^2 must be a normal float, 1.49e-154 <= |t| < 1.34e154; "
                             f"got |t| = {t_abs:.3g}")
        domain = Annulus(t_abs / radius, radius)
        fib = substitute_fiber(f, t)
        zeros = fiber_zeros(fib, tt, delta=radius)  # its polydisc is the domain
        div = _divergent_report(zeros, c, domain, "x")
        reports.append(div and KReport(t=t, k_report=div, i_report=div, j_report=div))
        if div is None:
            todo.append((len(reports) - 1, t, (_base_fn(fib, c), domain,
                                               [z.location_complex() for z in zeros],
                                               t2, 0j, *_symmetry(fib, 0j, "x"))))

    runs = _adaptive_polar([part for _, _, part in todo], cfg) if todo else []
    for (i, t, part), (masses, errs, cells, flags) in zip(todo, runs):
        k_rep, i_rep, j_rep = (
            _mass_report(masses[w], errs[w], cells, flags, part[1], chart, c,
                         _sector_meta(part[6]))
            for w, chart in ((2, "density"), (0, "x"), (1, "y-via-x")))
        reports[i] = KReport(t=t, k_report=k_rep, i_report=i_rep, j_report=j_rep)
    return reports


def _central_k(f, c: float, radius: float, cfg: QuadratureConfig) -> KReport:
    """K_0: the two disc integrals of the axis restrictions, each in its own
    coordinate; a monomial axis is exact, and the axes that need the engine
    share one run."""
    # 0 < c < c_0 keeps both axis restrictions nonzero, each of order below 1/c
    disc = Annulus(0.0, radius)
    i_rep, j_rep = _annulus_reports([(f.holo.restrict_x_axis(), disc),
                                     (f.holo.restrict_y_axis(), disc)], c, "x", cfg)
    # the y axis is integrated in its own coordinate, so label it as the
    # y chart (chart="y" would evaluate at x = t/y, and an axis has no t)
    j_rep.chart = "y"
    # sum the counts per kind; the kinds sort alphabetically in the
    # order _adaptive_polar emits them, after a bare 'divergent'
    counts = {}
    for flag in sorted(i_rep.refinement_flags + j_rep.refinement_flags):
        kind, _, n = flag.partition(":")
        counts[kind] = counts.get(kind, 0) + int(n or 0)
    k_rep = _mass_report(
        i_rep.value + j_rep.value, i_rep.error_estimate + j_rep.error_estimate,
        i_rep.cells_used + j_rep.cells_used,
        tuple(f"{k}:{n}" if n else k for k, n in counts.items()), disc, "central", c,
        {"note": "central fiber: sum over the two axis components"})
    return KReport(t=0, k_report=k_rep, i_report=i_rep, j_report=j_rep)


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
    if k + l == 0:
        raise ValueError("the decomposition needs F(0, 0) = 0")
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
    z_domains = [(1.0 / r1, r1), (r1, radius / s ** l), (s ** k / radius, 1.0 / r1)]
    x_domains = [Annulus(a1, a2), Annulus(a2, a3), Annulus(a0, a1)]
    reports = _annulus_reports([(fib, d) for d in x_domains], c, "x", cfg)
    for rep, zd in zip(reports, z_domains):
        rep.meta.update({"s": s, "endpoints": (k, l),
                         "z_annulus": f"A({zd[0]:.6g}, {zd[1]:.6g})"})
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
    around 1, |ratio - 1| decreases monotonically up to TREND_SLACK plus
    quadrature error, and neither K_0 nor any row carries a refinement flag.
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

    k0, *krs = _k_reports(f, [0, *ts], c, radius, cfg)
    rows = [_sweep_row(t, kr, kr.k_report.value / k0.k_report.value
                       if k0.k_report.value else math.inf)
            for t, kr in zip(ts, krs)]

    # a divergent row or K_0 carries the flag "divergent"
    flagged = k0.k_report.refinement_flags or any(r.flags for r in rows)
    verdict = "inconclusive"
    if len(rows) >= 2 and not flagged and k0.k_report.value > 0:
        final_ok = abs(rows[-1].ratio - 1.0) <= RATIO_BAND
        errs = [r.err / k0.k_report.value for r in rows]
        devs = [abs(r.ratio - 1.0) for r in rows]
        monotone = all(
            devs[i + 1] <= devs[i] + TREND_SLACK + errs[i] + errs[i + 1]
            for i in range(len(devs) - 1))
        if final_ok and monotone:
            verdict = "converged"
    return SweepReport(rows=tuple(rows), k0=k0.k_report.value,
                       k0_err=k0.k_report.error_estimate,
                       k0_flags=k0.k_report.refinement_flags, verdict=verdict,
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
    rows = [_sweep_row(t, kr, math.nan)
            for t, kr in zip(samples, _k_reports(as_mixed(f), samples, c, radius, cfg))]
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
    left out of the tail, and rows of one |t| count once, by their largest K_t.
    """
    at = {}
    for r in rows:
        a = param_modulus(r.t)
        if a > 0 and (a not in at or r.k_t > at[a].k_t):
            at[a] = r
    tail = list(at.values())[-4:]
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


def exponent_probe_1d(fiber, zeros, c: float,
                      config: QuadratureConfig | None = None) -> list:
    """A numeric multiplicity estimate at each point of zeros, in order.

    Integrates |f|^(-2c) over the PROBE_ANNULI annuli A(r, 2r) centered at a
    zero z for r = r_z * 2^-j, r_z = min(PROBE_RADIUS, a quarter of the
    distance to the nearest other zero of the fiber, probed or not, |z|/2
    when the fiber has a pole at x = 0), and fits the slope alpha of log
    mass against log r; the local model mass ~ r^(2 - 2cm) gives
    m = (2 - alpha)/(2c).  All the annuli share one adaptive run.  flags
    holds the refinement flags of each annulus used in the fit, in the order
    of radii.  Needs c * multiplicity < 1 so the masses stay finite, and at
    least 4 usable annuli per zero.
    """
    cfg = config or QuadratureConfig()
    if not 0 < c < math.inf:
        raise ValueError(f"the probe needs a finite c > 0; got c={c}")
    form = _as_form(fiber)
    base = _base_fn(form, c)
    others = [z.location_complex() for z in _form_zeros(form)]
    centers = [exact_param(z).to_complex() for z in zeros]
    parts = []
    for z in centers:
        sep = min((abs(z - o) for o in others if o != z), default=math.inf)
        r_z = min(PROBE_RADIUS, sep / 4.0, abs(z) / 2.0 if form.pole_order else math.inf)
        parts += [(base, Annulus(r, 2.0 * r), (), None, z, *_symmetry(form, z, "x"))
                  for r in (r_z * 2.0 ** (-j) for j in range(PROBE_ANNULI))]
    runs = list(zip(parts, _adaptive_polar(parts, cfg)))
    results = []
    for k in range(0, len(runs), PROBE_ANNULI):
        usable = [(part[1].r_inner, m[0], flags) for part, (m, _, _, flags)
                  in runs[k:k + PROBE_ANNULI] if math.isfinite(m[0]) and m[0] > 0]
        if len(usable) < 4:
            lost = all(not n for _, (_, _, n, _) in runs[k:k + PROBE_ANNULI])
            raise ValueError("fewer than 4 usable annuli" + (": |f| underflows on the probe annuli, "
                             "so every cell is dropped" if lost else ""))
        radii, masses, flags = zip(*usable)
        slope, residual = _log_log_fit(radii, masses)
        results.append(ProbeResult(multiplicity_estimate=(2.0 - slope) / (2.0 * c),
                                   slope=slope, fit_residual=residual,
                                   radii=radii, masses=masses, flags=flags))
    return results
