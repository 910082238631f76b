"""The adaptive engine against a frozen copy of its node-by-node predecessor.

The frozen_* functions below are the engine as it was before cells were evaluated on
their tensor axes: 13 independent nodes per cell, each with its own complex
exp, and every weight applied as a function of the node.  It is kept here,
unchanged but for its angular grid, as an oracle: the tensor-axis engine
must take the same refinement decisions and give the same masses to
rounding.  A part whose integrand has a symmetry group (k, m) (rotations by
2pi/k, and x -> conj(x) as well when m = 2k) runs on the engine's sector
grid, theta in [0, 2pi/m] from ceil(n/m) angular cells, with each zero's
angle folded into the sector and its masses and errors times m; the frozen
engine lays the same grid, folds the zeros the same way, and its sums are
multiplied by m for the comparison.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cselab import (
    Annulus,
    GaussianRational,
    QuadratureConfig,
    UnivariatePoly,
    fiber_integral_K,
    fiber_zeros,
    parse_expression,
    substitute_fiber,
)
from cselab.quadrature import _G2, _G3, _adaptive_polar, _as_form, _base_fn, _cell_rule
from cselab.rationals import exact_param, param_modulus

# the corpus germs with their central exponents c_0
GERMS = (("y^2 - x^3", Fraction(1, 3)), ("x^2 - y^2", Fraction(1, 2)),
         ("(x + y)^2", Fraction(1, 2)), ("y^3 - x^5", Fraction(1, 5)),
         ("x + y", Fraction(1)))
VALUE_REL = 1e-12
ERROR_REL = 1e-6
# roundings on the path of one term of a cell's rule sum, in each engine
# (assert_same_run)
TERM_ROUNDINGS = 32
# the embedded rule pair node by node, (u, theta, weight): 2x2 then 3x3
GAUSS_PAIR = tuple((gu, gt, wu * wt) for g in (_G2, _G3)
                   for (gu, wu) in g for (gt, wt) in g)


# ---------------------------------------------------------------------------
# the frozen engine
# ---------------------------------------------------------------------------

def frozen_base_fn(fiber, c):
    form = _as_form(fiber)
    num, d = form.numerator, form.pole_order
    coeffs = np.array([complex(cr / num.den, ci / num.den) for cr, ci in num.nums],
                      dtype=np.complex128)

    def evaluate(x):
        acc = np.zeros_like(x)
        for ck in coeffs[::-1]:
            acc = acc * x + ck
        av = np.abs(acc)
        if d:
            av = av / np.abs(x) ** d
        if c == 0:
            return np.ones_like(av)
        with np.errstate(divide="ignore", over="ignore"):
            return av ** (-2.0 * c)

    return evaluate


def frozen_unit_weight(x):
    return np.ones(x.shape)


def frozen_split_cells(u0, u1, t0, t1, depth, mask, keep_only_split=False):
    su0, su1 = u0[mask], u1[mask]
    st0, st1 = t0[mask], t1[mask]
    sd = depth[mask] + 1
    um = 0.5 * (su0 + su1)
    tm = 0.5 * (st0 + st1)
    cu0 = np.concatenate([su0, um, su0, um])
    cu1 = np.concatenate([um, su1, um, su1])
    ct0 = np.concatenate([st0, st0, tm, tm])
    ct1 = np.concatenate([tm, tm, st1, st1])
    cd = np.concatenate([sd, sd, sd, sd])
    if keep_only_split:
        return cu0, cu1, ct0, ct1, cd
    keep = ~mask
    return (np.concatenate([u0[keep], cu0]), np.concatenate([u1[keep], cu1]),
            np.concatenate([t0[keep], ct0]), np.concatenate([t1[keep], ct1]),
            np.concatenate([depth[keep], cd]))


def grid_angle(cfg, k, m):
    """(span, cells, fold) of the angular grid of a symmetry group (k, m):
    the sector [0, 2pi/m] from ceil(n/m) cells (the full circle from n when
    m = 1), and the fold of a zero's angle into it, mod 2pi/k and then, when
    m = 2k, into [0, pi/k]."""
    n_th = max(4, cfg.angular_cells)
    turn = 2.0 * math.pi / k

    def fold(theta):
        theta %= turn
        return min(theta, turn - theta) if m == 2 * k else theta
    return 2.0 * math.pi / m, -(-n_th // m), fold


def scaled(run, m):
    """A frozen run on a sector grid as the engine reports it: masses and
    errors times m."""
    masses, errs, *rest = run
    return ([m * v for v in masses], [m * e for e in errs], *rest)


def real_numerator(fiber):
    """Whether the fiber's numerator has real coefficients (about a real
    centre the engine then folds x -> conj(x) as well)."""
    return all(ci == 0 for _, ci in _as_form(fiber).numerator.nums)


def symmetry(fiber, center=0j):
    """(k, m) of the fiber's integrand about center, read off its numerator:
    k is the gcd of the gaps between the exponents of its nonzero terms about
    0 (1 for a monomial, and about any other centre), and m is 2k when the
    numerator and the centre are real, else k."""
    nums = _as_form(fiber).numerator.nums
    exps = [j for j, (re, im) in enumerate(nums) if re or im]
    k = math.gcd(*(b - a for a, b in zip(exps, exps[1:]))) if center == 0 else 0
    k = max(k, 1)
    return k, 2 * k if real_numerator(fiber) and complex(center).imag == 0 else k


def sector_meta(m):
    """The "angle" meta the engine gives a report from a sector of order m."""
    return None if m == 1 else f"1/{m} of the circle, times {m}"


def frozen_adaptive_polar(base_fn, annulus, cfg, angle, weight_fns=(frozen_unit_weight,),
                          zero_points=(), center=0j):
    u_lo = math.log(annulus.r_inner)
    u_hi = math.log(annulus.r_outer)
    decades = (u_hi - u_lo) / math.log(10.0)
    n_u = max(4, int(math.ceil(decades * cfg.radial_cells_per_decade)))
    span, n_th, fold = angle

    ue = np.linspace(u_lo, u_hi, n_u + 1, dtype=np.float64)
    te = np.linspace(0.0, span, n_th + 1, dtype=np.float64)
    u0 = np.repeat(ue[:-1], n_th)
    u1 = np.repeat(ue[1:], n_th)
    t0 = np.tile(te[:-1], n_u)
    t1 = np.tile(te[1:], n_u)
    depth = np.zeros(u0.size, dtype=np.int32)

    zs = [complex(z) - complex(center) for z in zero_points]
    zs = [(math.log(abs(z)), fold(math.atan2(z.imag, z.real))) for z in zs if abs(z) > 0]
    for _ in range(2):
        if not zs:
            break
        hit = np.zeros(u0.size, dtype=bool)
        for (uz, tz) in zs:
            hit |= (u0 <= uz) & (uz <= u1) & (t0 <= tz) & (tz <= t1)
        if not hit.any():
            break
        u0, u1, t0, t1, depth = frozen_split_cells(u0, u1, t0, t1, depth, hit)

    n_w = len(weight_fns)
    totals = [np.float64(0.0) for _ in range(n_w)]
    errors = [np.float64(0.0) for _ in range(n_w)]
    cells_used = 0
    forced = 0
    dropped = 0
    abs_floor = None
    tol = cfg.target_rel_tolerance
    ctr = np.complex128(complex(center))
    node_u, node_t, node_w = (np.array(col) for col in zip(*GAUSS_PAIR))

    while u0.size:
        du = u1 - u0
        dt = t1 - t0
        area = du * dt
        uu = u0[:, None] + du[:, None] * node_u
        tt = t0[:, None] + dt[:, None] * node_t
        xn = ctr + np.exp(uu.astype(np.complex128) + 1j * tt.astype(np.complex128))
        bn = base_fn(xn) * np.exp(2.0 * uu) * node_w

        coarse = np.empty((n_w, u0.size), dtype=np.float64)
        fine = np.empty((n_w, u0.size), dtype=np.float64)
        for k, w in enumerate(weight_fns):
            vals = bn * w(xn)
            coarse[k] = vals[:, :4].sum(axis=1) * area
            fine[k] = vals[:, 4:].sum(axis=1) * area

        if abs_floor is None:
            finite0 = np.isfinite(coarse[-1])
            scale0 = float(np.abs(coarse[-1][finite0]).sum())
            abs_floor = tol * max(scale0, 1e-300) / (4.0 * max(u0.size, 1))

        dis = np.abs(fine[-1] - coarse[-1])
        all_finite = np.isfinite(fine).all(axis=0) & np.isfinite(coarse).all(axis=0)
        within = all_finite & (dis <= tol * np.abs(fine[-1]) + abs_floor)
        at_cap = depth >= cfg.max_refinement_depth
        accept = within | at_cap

        acc_idx = np.nonzero(accept)[0]
        if acc_idx.size:
            acc_finite = all_finite[acc_idx]
            good = acc_idx[acc_finite]
            bad = acc_idx[~acc_finite]
            for k in range(n_w):
                totals[k] = totals[k] + fine[k][good].sum()
                errors[k] = errors[k] + np.abs(fine[k][good] - coarse[k][good]).sum()
            cells_used += good.size
            forced += int((at_cap & ~within)[acc_idx].sum())
            dropped += bad.size

        split = ~accept
        u0, u1, t0, t1, depth = frozen_split_cells(u0, u1, t0, t1, depth, split,
                                                   keep_only_split=True)

    flags = []
    if forced:
        flags.append(f"max-depth-reached:{forced}")
    if dropped:
        flags.append(f"unresolved-singular-cell:{dropped}")
    return ([float(v) for v in totals], [float(e) for e in errors],
            cells_used, tuple(flags))


def frozen_K(f, t, c, radius, cfg):
    """(masses, errors, cells, flags) of I, J and K at t != 0,
    and the symmetry group (k, m) of the fiber's integrand."""
    tt = exact_param(t)
    t_abs = param_modulus(tt)
    fib = substitute_fiber(f, t)
    zeros = fiber_zeros(fib, tt, delta=radius)
    t2 = t_abs * t_abs

    def w_j(x):
        ax2 = np.abs(x) ** 2
        return (t2 / ax2) / ax2

    def w_k(x):
        ax2 = np.abs(x) ** 2
        return (ax2 + t2 / ax2) / ax2

    k, m = symmetry(fib)
    with np.errstate(all="ignore"):
        run = frozen_adaptive_polar(
            frozen_base_fn(fib, c), Annulus(t_abs / radius, radius), cfg,
            grid_angle(cfg, k, m), weight_fns=(frozen_unit_weight, w_j, w_k),
            zero_points=[z.location_complex() for z in zeros])
    return scaled(run, m), (k, m)


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------

def rounding_floor(mass, err):
    """A bound on how far two engines' error estimates may differ by rounding.

    An estimate is the sum over the accepted cells of |fine - coarse|, where
    fine and coarse are the cell's 3x3 and 2x2 sums: inner products of at
    most 9 positive rule weights with nonnegative node values, each term a
    product of rounded factors (area, rule weights, r^2, the radial weight,
    the node value).  Higham (Accuracy and Stability of Numerical
    Algorithms, 2nd ed., ch. 3: Lemma 3.1 and the inner-product bound
    (3.5)) bounds the computed sum of such terms, when the path from the
    exact data to each term and through the sum has at most k roundings,
    by |fl(S) - S| <= gamma_k sum |terms| = gamma_k S, gamma_k = k u/(1 - k u),
    u = 2^-53, the last step because no term is negative.  With
    k = TERM_ROUNDINGS covering the 8 additions of a 9-term sum, the
    products and the node value (whose Horner sum is taken as well
    conditioned: for the monomial z^3 its condition number is 1, and near a
    zero the cell's own estimate is large, where ERROR_REL governs), each
    engine's |fine - coarse| is within gamma_k (fine + coarse) of the exact
    one, so the two differ by at most 2 gamma_k (fine + coarse) per cell.
    Over the accepted cells the fine sums add to the mass and the coarse
    sums to at most mass + err; the rounding of the outer sum over cells is
    a relative gamma_cells of err, inside ERROR_REL."""
    k = TERM_ROUNDINGS * 2.0 ** -53
    return 2 * k / (1 - k) * (2 * mass + err)


def assert_same_errors(errs, old_masses, old_errs):
    """Each error estimate is the frozen one to ERROR_REL, or within rounding."""
    assert len(errs) == len(old_errs)
    for e, m, o in zip(errs, old_masses, old_errs):
        assert e == pytest.approx(o, rel=ERROR_REL, abs=rounding_floor(m, o))


def assert_same_run(new, old):
    masses, errs, cells, flags = new
    o_masses, o_errs, o_cells, o_flags = old
    assert (cells, flags) == (o_cells, o_flags)
    assert masses == pytest.approx(o_masses, rel=VALUE_REL, abs=0)
    assert_same_errors(errs, o_masses, o_errs)


def t_value(q, kind):
    t = Fraction(1, q)
    return {"positive": t, "negative": -t, "imaginary": GaussianRational(0, t)}[kind]


@settings(max_examples=60, derandomize=True, deadline=None)
@given(germ=st.sampled_from(GERMS), q=st.integers(20, 10 ** 6),
       kind=st.sampled_from(["positive", "negative", "imaginary"]),
       c_share=st.floats(0.05, 0.95), radius=st.sampled_from([0.5, 1.0]),
       tol=st.sampled_from([1e-3, 1e-5]))
def test_K_takes_the_frozen_engines_decisions(germ, q, kind, c_share, radius, tol):
    text, c0 = germ
    f = parse_expression(text)
    t = t_value(q, kind)
    c = round(float(c0) * c_share, 4)
    cfg = QuadratureConfig(target_rel_tolerance=tol)
    kr = fiber_integral_K(f, t, c, radius, cfg)
    reports = (kr.i_report, kr.j_report, kr.k_report)
    k = kr.k_report
    new = ([r.value for r in reports], [r.error_estimate for r in reports],
           k.cells_used, k.refinement_flags)
    old, (_, m) = frozen_K(f, t, c, radius, cfg)
    assert_same_run(new, old)
    for r in reports:
        assert r.meta.get("angle") == sector_meta(m)


@pytest.mark.parametrize("text, real", [("y^2 - x^3", True), ("x^2 - y^2", True),
                                        ("(x + y)^2", False), ("x + y", False),
                                        ("y^3 - x^5", False)])
def test_an_imaginary_t_keeps_both_paths_live(text, real):
    # at t = i/q the numerators of the cusp and the node stay real (t^2 is
    # real), so the oracle cases above exercise dihedral sectors (m = 2k) and
    # cyclic ones (m = k) at every kind of t
    fib = substitute_fiber(parse_expression(text), t_value(1000, "imaginary"))
    assert real_numerator(fib) == real


gaussian_roots = st.builds(
    lambda p, q: GaussianRational(Fraction(p, 8), Fraction(q, 8)),
    st.integers(-16, 16), st.integers(-16, 16))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(roots=st.lists(gaussian_roots, min_size=1, max_size=3), which=st.integers(0, 2),
       c=st.floats(0.05, 0.45), r=st.floats(1e-4, 0.05),
       tol=st.sampled_from([1e-3, 1e-5]))
# real roots about a real centre: x -> conj(x) is folded
@example(roots=[GaussianRational(Fraction(1, 2)), GaussianRational(Fraction(-3, 8))],
         which=0, c=0.3, r=0.01, tol=1e-5)
def test_probe_about_a_centre_takes_the_frozen_engines_decisions(roots, which, c, r,
                                                                 tol):
    # a multiplicity probe's annulus A(r, 2r) about one root of prod (z - a_k)
    fiber = UnivariatePoly([1])
    for a in roots:
        fiber = fiber * UnivariatePoly([-a, 1])
    center = roots[which % len(roots)].to_complex()
    k, m = symmetry(fiber, center)
    cfg = QuadratureConfig(target_rel_tolerance=tol)
    ann = Annulus(r, 2.0 * r)
    new = _adaptive_polar([(_base_fn(fiber, c), ann, (), None, center, k, m)], cfg)[0]
    with np.errstate(all="ignore"):
        old = frozen_adaptive_polar(frozen_base_fn(fiber, c), ann, cfg,
                                    grid_angle(cfg, k, m), center=center)
    assert_same_run(new, scaled(old, m))


def triple_zero_runs():
    """(engine, frozen engine) about a triple zero at the centre, on the half
    plane since z^3 is real (a monomial takes k = 1).

    The integrand is radial there, so a cell's 2x2 and 3x3 sums agree to
    5e-11 of its mass and the error estimate is mostly cancellation."""
    fiber = UnivariatePoly([0, 0, 0, 1])
    cfg = QuadratureConfig(target_rel_tolerance=1e-3)
    ann = Annulus(0.03125, 0.0625)
    new = _adaptive_polar([(_base_fn(fiber, 0.3125), ann, (), None, 0j, 1, 2)], cfg)[0]
    with np.errstate(all="ignore"):
        old = frozen_adaptive_polar(frozen_base_fn(fiber, 0.3125), ann, cfg,
                                    grid_angle(cfg, 1, 2))
    return new, scaled(old, 2)


def test_a_triple_zero_at_the_centre_takes_the_frozen_engines_decisions():
    new, old = triple_zero_runs()
    assert new[2:] == old[2:]
    assert new[0] == pytest.approx(old[0], rel=VALUE_REL, abs=0)


def test_a_triple_zero_at_the_centre_has_the_frozen_error_estimate():
    # the two engines round the cell sums apart: their (doubled) estimates
    # here are 1.5032228e-10 and 1.5032198e-10, 2e-6 relative and 3.1e-16
    # absolute apart, against a rounding floor of 4.2e-14 on a mass of 2.95
    new, old = triple_zero_runs()
    assert_same_errors(new[1], old[0], old[1])


# ---------------------------------------------------------------------------
# a pinned base function with one infinite node
# ---------------------------------------------------------------------------

PIN_ANNULUS = Annulus(0.5, 2.0)
PIN_CFG = QuadratureConfig()


def first_cell_node(k):
    """Node k of GAUSS_PAIR in the first initial cell of PIN_ANNULUS."""
    u_lo, u_hi = math.log(PIN_ANNULUS.r_inner), math.log(PIN_ANNULUS.r_outer)
    du = (u_hi - u_lo) / 4          # n_u = 4 cells over log10(4) decades
    dt = 2.0 * math.pi / PIN_CFG.angular_cells
    fu, ft, _ = GAUSS_PAIR[k]
    return complex(math.exp(u_lo + du * fu) * complex(math.cos(dt * ft), math.sin(dt * ft)))


def pinned_base(node):
    """|x - 3|^(-1/2), infinite at the given node."""
    def evaluate(x):
        vals = np.abs(x - 3.0) ** -0.5
        vals[np.abs(x - node) < 1e-9] = np.inf
        return vals
    return evaluate


@pytest.mark.parametrize("k", [0, 3, 4, 8, 12])   # coarse 0 and 3, fine 4, 8, 12
def test_one_infinite_node_takes_the_frozen_engines_decisions(k):
    # the pinned node has no mirror image, so the part takes the full circle
    base = pinned_base(first_cell_node(k))
    new = _adaptive_polar([(base, PIN_ANNULUS, (), None, 0j, 1, 1)], PIN_CFG)[0]
    with np.errstate(all="ignore"):
        old = frozen_adaptive_polar(base, PIN_ANNULUS, PIN_CFG, grid_angle(PIN_CFG, 1, 1))
    assert_same_run(new, old)
    assert new[3] == () and math.isfinite(new[0][0])


@pytest.mark.parametrize("k", range(13))
def test_an_infinite_node_leaves_the_other_rules_sum_alone(k):
    # the rules sum over angle separately, so no inf * 0 reaches the other
    u_lo, u_hi = math.log(PIN_ANNULUS.r_inner), math.log(PIN_ANNULUS.r_outer)
    cell = np.array([[u_lo, u_lo + (u_hi - u_lo) / 4, 0.0, 2.0 * math.pi / 8]])
    clean, _, _ = _cell_rule(cell, [(0, 1, pinned_base(100.0), None, 0j)])
    rule, vals, _ = _cell_rule(cell, [(0, 1, pinned_base(first_cell_node(k)), None, 0j)])
    assert np.isinf(vals).sum() == 1
    hit, other = (0, 1) if k < 4 else (1, 0)
    assert np.isinf(rule[hit]).all()
    assert rule[other] == clean[other]
