"""The adaptive engine against a frozen copy of its node-by-node predecessor.

The frozen_* functions below are the engine as it was before cells were evaluated on
their tensor axes: 13 independent nodes per cell, each with its own complex
exp, and every weight applied as a function of the node.  It is kept here,
unchanged, as an oracle: the tensor-axis engine must take the same
refinement decisions and give the same masses to rounding.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
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
from cselab.quadrature import (_GAUSS_PAIR, _adaptive_polar, _base_fn, _cell_rule,
                               _fiber_parts)
from cselab.rationals import exact_param, param_modulus

# the corpus germs with their central exponents c_0
GERMS = (("y^2 - x^3", Fraction(1, 3)), ("x^2 - y^2", Fraction(1, 2)),
         ("(x + y)^2", Fraction(1, 2)), ("y^3 - x^5", Fraction(1, 5)),
         ("x + y", Fraction(1)))
VALUE_REL = 1e-12
ERROR_REL = 1e-6


# ---------------------------------------------------------------------------
# the frozen engine
# ---------------------------------------------------------------------------

def frozen_base_fn(fiber, c, cfg):
    num, d = _fiber_parts(fiber)
    coeffs = np.array([complex(cr / num.den, ci / num.den) for cr, ci in num.nums],
                      dtype=cfg.complex_dtype)

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


def frozen_adaptive_polar(base_fn, annulus, cfg, weight_fns=(frozen_unit_weight,),
                          zero_points=(), center=0j):
    rdt = cfg.real_dtype
    u_lo = math.log(annulus.r_inner)
    u_hi = math.log(annulus.r_outer)
    decades = (u_hi - u_lo) / math.log(10.0)
    n_u = max(4, int(math.ceil(decades * cfg.radial_cells_per_decade)))
    n_th = max(4, cfg.angular_cells)

    ue = np.linspace(u_lo, u_hi, n_u + 1, dtype=rdt)
    te = np.linspace(0.0, 2.0 * math.pi, n_th + 1, dtype=rdt)
    u0 = np.repeat(ue[:-1], n_th)
    u1 = np.repeat(ue[1:], n_th)
    t0 = np.tile(te[:-1], n_u)
    t1 = np.tile(te[1:], n_u)
    depth = np.zeros(u0.size, dtype=np.int32)

    zs = [complex(z) - complex(center) for z in zero_points]
    zs = [(math.log(abs(z)), math.atan2(z.imag, z.real) % (2.0 * math.pi))
          for z in zs if abs(z) > 0]
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
    totals = [rdt(0.0) for _ in range(n_w)]
    errors = [rdt(0.0) for _ in range(n_w)]
    cells_used = 0
    forced = 0
    dropped = 0
    abs_floor = None
    tol = cfg.target_rel_tolerance
    cplx = cfg.complex_dtype
    ctr = cplx(complex(center))
    node_u, node_t, node_w = (np.array(col) for col in zip(*_GAUSS_PAIR))

    while u0.size:
        du = u1 - u0
        dt = t1 - t0
        area = du * dt
        uu = u0[:, None] + du[:, None] * node_u
        tt = t0[:, None] + dt[:, None] * node_t
        xn = ctr + np.exp(uu.astype(cplx) + 1j * tt.astype(cplx))
        bn = base_fn(xn) * np.exp(2.0 * uu) * node_w

        coarse = np.empty((n_w, u0.size), dtype=rdt)
        fine = np.empty((n_w, u0.size), dtype=rdt)
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
    converged = forced == 0 and dropped == 0
    return ([float(v) for v in totals], [float(e) for e in errors],
            cells_used, tuple(flags), converged)


def frozen_K(f, t, c, radius, cfg):
    """(masses, errors, cells, flags, converged) of I, J and K at t != 0."""
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

    with np.errstate(all="ignore"):
        return frozen_adaptive_polar(
            frozen_base_fn(fib, c, cfg), Annulus(t_abs / radius, radius), cfg,
            weight_fns=(frozen_unit_weight, w_j, w_k),
            zero_points=[z.location_complex() for z in zeros])


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------

def assert_same_run(new, old):
    masses, errs, cells, flags, converged = new
    o_masses, o_errs, o_cells, o_flags, o_converged = old
    assert (cells, flags, converged) == (o_cells, o_flags, o_converged)
    assert masses == pytest.approx(o_masses, rel=VALUE_REL, abs=0)
    assert errs == pytest.approx(o_errs, rel=ERROR_REL, abs=0)


def t_value(q, kind):
    t = Fraction(1, q)
    return {"positive": t, "negative": -t, "imaginary": GaussianRational(0, t)}[kind]


@settings(max_examples=60, derandomize=True, deadline=None)
@given(germ=st.sampled_from(GERMS), q=st.integers(20, 10 ** 6),
       kind=st.sampled_from(["positive", "negative", "imaginary"]),
       c_share=st.floats(0.05, 0.95), radius=st.sampled_from([0.5, 1.0]),
       tol=st.sampled_from([1e-3, 1e-5]),
       precision=st.sampled_from(["double", "extended"]))
def test_K_takes_the_frozen_engines_decisions(germ, q, kind, c_share, radius, tol,
                                              precision):
    text, c0 = germ
    f = parse_expression(text)
    t = t_value(q, kind)
    c = round(float(c0) * c_share, 4)
    cfg = QuadratureConfig(target_rel_tolerance=tol, precision=precision)
    kr = fiber_integral_K(f, t, c, radius, cfg)
    reports = (kr.i_report, kr.j_report, kr.k_report)
    k = kr.k_report
    new = ([r.value for r in reports], [r.error_estimate for r in reports],
           k.cells_used, k.refinement_flags, k.converged)
    assert_same_run(new, frozen_K(f, t, c, radius, cfg))


gaussian_roots = st.builds(
    lambda p, q: GaussianRational(Fraction(p, 8), Fraction(q, 8)),
    st.integers(-16, 16), st.integers(-16, 16))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(roots=st.lists(gaussian_roots, min_size=1, max_size=3), which=st.integers(0, 2),
       c=st.floats(0.05, 0.45), r=st.floats(1e-4, 0.05),
       tol=st.sampled_from([1e-3, 1e-5]),
       precision=st.sampled_from(["double", "extended"]))
def test_probe_about_a_centre_takes_the_frozen_engines_decisions(roots, which, c, r,
                                                                 tol, precision):
    # a multiplicity probe's annulus A(r, 2r) about one root of prod (z - a_k)
    fiber = UnivariatePoly([1])
    for a in roots:
        fiber = fiber * UnivariatePoly([-a, 1])
    center = roots[which % len(roots)].to_complex()
    cfg = QuadratureConfig(target_rel_tolerance=tol, precision=precision)
    ann = Annulus(r, 2.0 * r)
    new = _adaptive_polar(_base_fn(fiber, c, cfg), ann, cfg, center=center)
    with np.errstate(all="ignore"):
        old = frozen_adaptive_polar(frozen_base_fn(fiber, c, cfg), ann, cfg,
                                    center=center)
    assert_same_run(new, old)


# ---------------------------------------------------------------------------
# a pinned base function with one infinite node
# ---------------------------------------------------------------------------

PIN_ANNULUS = Annulus(0.5, 2.0)
PIN_CFG = QuadratureConfig()


def first_cell_node(k):
    """Node k of _GAUSS_PAIR in the first initial cell of PIN_ANNULUS."""
    u_lo, u_hi = math.log(PIN_ANNULUS.r_inner), math.log(PIN_ANNULUS.r_outer)
    du = (u_hi - u_lo) / 4          # n_u = 4 cells over log10(4) decades
    dt = 2.0 * math.pi / PIN_CFG.angular_cells
    fu, ft, _ = _GAUSS_PAIR[k]
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
    base = pinned_base(first_cell_node(k))
    new = _adaptive_polar(base, PIN_ANNULUS, PIN_CFG)
    with np.errstate(all="ignore"):
        old = frozen_adaptive_polar(base, PIN_ANNULUS, PIN_CFG)
    assert_same_run(new, old)
    assert new[4] and math.isfinite(new[0][0])


@pytest.mark.parametrize("k", range(13))
def test_an_infinite_node_leaves_the_other_rules_sum_alone(k):
    # the rules sum over angle separately, so no inf * 0 reaches the other
    u_lo, u_hi = math.log(PIN_ANNULUS.r_inner), math.log(PIN_ANNULUS.r_outer)
    cell = np.array([[u_lo, u_lo + (u_hi - u_lo) / 4, 0.0, 2.0 * math.pi / 8]])
    clean, _, _ = _cell_rule(cell, pinned_base(100.0))
    rule, vals, _ = _cell_rule(cell, pinned_base(first_cell_node(k)))
    assert np.isinf(vals).sum() == 1
    hit, other = (0, 1) if k < 4 else (1, 0)
    assert np.isinf(rule[hit]).all()
    assert rule[other] == clean[other]
