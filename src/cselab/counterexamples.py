"""Families that break exponent semicontinuity along xy = t.

The construction: inside the space V_n of polynomials q(z^2) + c*z^(2n+1)
with deg q <= 2n+1 (dimension 2n+3), the subspace W_n of elements divisible
by (z-1)^(2n+2) is nonzero by dimension count.  A kernel element P_n with
nonzero constant and z^(4n+2) terms yields a homogeneous polynomial
Q_n(x, y) = q_n(x/y) * y^(2n+1) and the non-holomorphic family

    F_n(x, y) = Q_n(x, y) + c_n * |xy|^((2n+1)/2).

Restricted to the fiber xy = s^2 (s > 0), F_n collapses back to P_n:

    x^(2n+1) * F_n(x, s^2/x) = s^(4n+2) * P_n(x/s),

so the exponent at (s, s) is 1/ord_{z=1} P_n <= 1/(2n+2), strictly below
the exponent 1/(2n+1) of the homogeneous restriction to the central fiber.
All of this is verified in exact arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from .exact_linalg import integer_kernel_basis
from .exponents import Exponent
from .polynomials import (
    BivariatePoly,
    MixedFunction,
    UnivariatePoly,
    substitute_fiber,
    vanishing_order,
)
from .rationals import GaussianRational

NORMALIZATION_NOTE = (
    "kernel witness normalized: z^(4n+2) coefficient scaled to 1 when nonzero, "
    "otherwise constant term scaled to 1; the choice within the kernel is a "
    "library convention")


class ViolationCheckError(RuntimeError):
    """An exact identity of the construction failed: construction bug."""


def vn_basis(n: int):
    """Monomial exponents spanning V_n: even powers 0..4n+2 plus 2n+1."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return [2 * j for j in range(2 * n + 2)] + [2 * n + 1]


def derivative_condition_matrix(n: int):
    """Rows j = 0..2n+1 of the Taylor coefficients P^(j)(1)/j! in V_n coordinates.

    Entry (j, e) is comb(e, j): row j of the derivative conditions P^(j)(1) = 0
    divided by j!, so the kernel is the same with entries j! smaller.
    """
    exps = vn_basis(n)
    return [[comb(e, j) for e in exps] for j in range(2 * n + 2)]


def _vector_to_poly(vec, n: int) -> UnivariatePoly:
    exps = vn_basis(n)
    coeffs = [GaussianRational(0)] * (4 * n + 3)
    for e, v in zip(exps, vec):
        coeffs[e] = coeffs[e] + GaussianRational.coerce(
            v if isinstance(v, (int, Fraction)) else Fraction(v))
    return UnivariatePoly(coeffs)


def _normalize_witness(p: UnivariatePoly, n: int) -> UnivariatePoly:
    lead = p.coefficient(4 * n + 2)
    if not lead.is_zero():
        return p.scale(lead.inverse())
    const = p.coefficient(0)
    if not const.is_zero():
        return p.scale(const.inverse())
    for c in p.coeffs:
        if not c.is_zero():
            return p.scale(c.inverse())
    return p


def solve_wn(n: int):
    """Exact kernel basis of W_n, each element normalized.

    The kernel of the derivative-conditions map is nonempty by the dimension
    count dim V_n = 2n+3 > 2n+2 conditions; an empty result would be a bug.
    """
    basis = integer_kernel_basis(derivative_condition_matrix(n))
    if not basis:
        raise AssertionError(f"W_{n} kernel came out empty; dimension count "
                             "guarantees it is not")
    polys = [_normalize_witness(_vector_to_poly(v, n), n) for v in basis]
    return sorted(polys, key=lambda p: [(str(c)) for c in p.coeffs])


def symmetrize(p: UnivariatePoly, n: int) -> UnivariatePoly:
    """P(z) + z^(4n+2) * P(1/z); stays in V_n and keeps (z-1)^(2n+2) divisibility."""
    if p.degree > 4 * n + 2:
        raise ValueError("symmetrize needs deg P <= 4n+2")
    return p + p.reversed_within(4 * n + 2)


def _extremes_nonzero(p: UnivariatePoly, n: int) -> bool:
    return (not p.coefficient(0).is_zero()
            and not p.coefficient(4 * n + 2).is_zero())


def membership_N(n: int):
    """Search W_n for a witness with nonzero constant and z^(4n+2) terms.

    Tries raw kernel elements first, then their symmetrizations, then small
    integer combinations of basis pairs.  Returns (found, witness-or-None).
    The infinite-descent argument showing infinitely many n succeed is not
    reproduced here; the table is empirical.
    """
    kernel = solve_wn(n)
    for p in kernel:
        if _extremes_nonzero(p, n):
            return True, p
    for p in kernel:
        sp = symmetrize(p, n)
        if not sp.is_zero() and _extremes_nonzero(sp, n):
            from .polynomials import divides_power
            if not divides_power(sp, 1, 2 * n + 2):
                raise AssertionError("symmetrization left W_n; construction bug")
            return True, _normalize_witness(sp, n)
    for i, p in enumerate(kernel):
        for q in kernel[i + 1:]:
            for lam in (1, 2, 3):
                cand = p + q.scale(lam)
                if _extremes_nonzero(cand, n):
                    return True, _normalize_witness(cand, n)
    return False, None


@dataclass(frozen=True)
class CounterexampleRecord:
    n: int
    p_n: UnivariatePoly
    q_n: UnivariatePoly
    c_n: GaussianRational
    big_q: BivariatePoly
    family: MixedFunction
    in_n: bool
    central_exponent: Exponent
    fiber_exponent_at_diagonal: Exponent
    note: str = NORMALIZATION_NOTE


def build_family(n: int, p_n: UnivariatePoly) -> CounterexampleRecord:
    """Assemble Q_n and F_n from a witness P_n = q_n(z^2) + c_n z^(2n+1).

    Requires P_n in W_n with both extreme coefficients nonzero, so Q_n is
    homogeneous of degree 2n+1 and contains both x^(2n+1) and y^(2n+1).
    """
    if p_n.degree > 4 * n + 2:
        raise ValueError("P_n must have degree <= 4n+2")
    q_coeffs = [p_n.coefficient(2 * j) for j in range(2 * n + 2)]
    c_n = p_n.coefficient(2 * n + 1)
    q_n = UnivariatePoly(q_coeffs)
    rebuilt = UnivariatePoly(
        _interleave_even(q_coeffs, 4 * n + 3)) + UnivariatePoly.monomial(2 * n + 1, c_n)
    if rebuilt != p_n:
        raise ValueError("P_n is not of the shape q(z^2) + c*z^(2n+1)")
    if not _extremes_nonzero(p_n, n):
        raise ValueError("P_n needs nonzero constant and z^(4n+2) coefficients")
    ord_at_1 = vanishing_order(p_n, 1)
    if ord_at_1 < 2 * n + 2:
        raise ValueError("(z-1)^(2n+2) does not divide P_n")

    big_q = BivariatePoly(
        {(j, 2 * n + 1 - j): c for j, c in enumerate(q_coeffs) if not c.is_zero()})
    family = MixedFunction(big_q, c_n, 2 * n + 1)
    return CounterexampleRecord(
        n=n,
        p_n=p_n,
        q_n=q_n,
        c_n=c_n,
        big_q=big_q,
        family=family,
        in_n=True,
        central_exponent=Exponent.reciprocal_order(2 * n + 1),
        fiber_exponent_at_diagonal=Exponent.reciprocal_order(ord_at_1),
    )


def _interleave_even(even_coeffs, length):
    out = [GaussianRational(0)] * length
    for j, c in enumerate(even_coeffs):
        out[2 * j] = c
    return out


@dataclass(frozen=True)
class ViolationReport:
    n: int
    s_samples: tuple
    identity_ok: bool
    fiber_order: int
    central: Exponent
    fiber: Exponent
    violated: bool

    @property
    def all_checks_pass(self) -> bool:
        return self.identity_ok and self.violated


def verify_violation(record: CounterexampleRecord, s_samples) -> ViolationReport:
    """Exact verification of the four defining facts of a family record.

    (a) the fiber identity x^(2n+1) F_n(x, s^2/x) = s^(4n+2) P_n(x/s) as an
    exact polynomial identity for each sampled s; (b) the fiber exponent at
    (s, s) equals 1/ord_{z=1} P_n and is <= 1/(2n+2); (c) the central
    exponent is 1/(2n+1); (d) the strict violation inequality.  Any failure
    of (a) raises ViolationCheckError: the construction itself is broken.
    """
    from .degeneration import central_exponent, fiber_exponent

    n = record.n
    samples = tuple(Fraction(s) for s in s_samples)
    if not samples:
        raise ValueError("need at least one s sample")
    for s in samples:
        if s <= 0:
            raise ValueError("s samples must be positive rationals")
    ord_z1 = vanishing_order(record.p_n, 1)

    for s in samples:
        t = s * s
        fib = substitute_fiber(record.family, t, s=s)
        d = fib.pole_order
        if d > 2 * n + 1:
            raise ViolationCheckError("fiber pole order exceeds 2n+1")
        lhs = fib.combined_numerator().times_power(2 * n + 1 - d)
        srat = GaussianRational(s)
        rhs = record.p_n.dilate(srat.inverse()).scale(srat ** (4 * n + 2))
        if lhs != rhs:
            raise ViolationCheckError(
                f"fiber identity failed at n={n}, s={s}: construction bug")
        # fiber_exponent is exactly 1/order, so this also checks the order
        fexp = fiber_exponent(record.family, t, (s, s))
        if fexp != Exponent.reciprocal_order(ord_z1):
            raise ViolationCheckError("fiber exponent mismatch")

    central = central_exponent(record.family, "min")
    fiber_exp = Exponent.reciprocal_order(ord_z1)
    identity_ok = True
    violated = (fiber_exp < central
                and fiber_exp <= Exponent(Fraction(1, 2 * n + 2))
                and central == Exponent(Fraction(1, 2 * n + 1)))
    return ViolationReport(
        n=n,
        s_samples=samples,
        identity_ok=identity_ok,
        fiber_order=ord_z1,
        central=central,
        fiber=fiber_exp,
        violated=violated,
    )


def counterexample_record(n: int) -> CounterexampleRecord:
    """Membership search plus family assembly for a single n."""
    found, witness = membership_N(n)
    if not found:
        raise ValueError(f"no witness with nonzero extreme terms found for n={n}")
    return build_family(n, witness)


# ---------------------------------------------------------------------------
# regularity probe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HolderProbeResult:
    estimate: float       # saturated at 1.0 (Lipschitz or better)
    raw_slope: float
    fit_residual: float
    points_used: int


def holder_probe(n: int, sample_scale: float = 1.0, profile=None) -> HolderProbeResult:
    """Sampled Hoelder exponent of the n-th derivative of the radial block.

    The non-smooth part of F_n is |xy|^((2n+1)/2), and its regularity
    reduces to the one-variable profile g(r) = r^((2n+1)/2).  The probe
    differentiates g numerically n times at geometrically shrinking radii
    and regresses log |g^(n)(r) - g^(n)(r/2)| against log r; for the
    building block the slope is 1/2.  A custom profile can be passed for
    smooth controls, whose estimate saturates at 1.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if not (sample_scale > 0) or not np.isfinite(sample_scale):
        raise ValueError("degenerate sample range: sample_scale must be positive")
    if profile is None:
        exponent = (2 * n + 1) / 2.0
        profile = lambda r: r ** exponent

    radii = sample_scale * 2.0 ** -np.arange(2, 15)
    derivs = np.array([_nth_derivative(profile, n, r) for r in radii])
    diffs = np.abs(np.diff(derivs))
    keep = diffs > 0
    if keep.sum() < 4:
        raise ValueError("degenerate sample range: fewer than 4 usable differences")
    logs_r = np.log(radii[:-1][keep])
    logs_d = np.log(diffs[keep])
    slope, intercept = np.polyfit(logs_r, logs_d, 1)
    residual = float(np.max(np.abs(logs_d - (slope * logs_r + intercept))))
    return HolderProbeResult(
        estimate=float(min(slope, 1.0)),
        raw_slope=float(slope),
        fit_residual=residual,
        points_used=int(keep.sum()),
    )


def _nth_derivative(profile, n: int, r: float) -> float:
    if n == 0:
        return float(profile(r))
    h = r / 64.0
    offsets = (np.arange(n + 1) - n / 2.0) * h
    samples = np.array([profile(r + o) for o in offsets], dtype=float)
    return float(np.diff(samples, n=n)[0] / h ** n)
