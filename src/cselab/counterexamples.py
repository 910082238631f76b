"""Families that break exponent semicontinuity along xy = t.

The construction: V_n is the space of polynomials q(z^2) + c*z^(2n+1) with
deg q <= 2n+1, spanned by the monomials z^e for e in E = vn_basis(n)
(2n+3 distinct exponents), and W_n is its subspace of elements divisible
by (z-1)^(2n+2).

W_n is one-dimensional, with a closed-form generator.  P = sum v_e z^e lies
in W_n iff P^(j)(1)/j! = sum_e v_e comb(e, j) = 0 for j < 2n+2, and the
comb(e, j) span the polynomials in e of degree below 2n+2; so v annuls all
of them, which on 2n+3 distinct nodes makes v a multiple of the divided
difference (exact_linalg): v_e is proportional to
w_e = 1/prod_{f in E, f != e} (e - f), and the generator is

    P_n = sum_{e in E} (w_e / w_{4n+2}) z^e.

The products are factorials, because the even exponents 0, 2, ..., 2m,
m = 2n+1, form an arithmetic progression.  For the even node 2i,

    prod_{k != i} (2i - 2k) = 2^m i! (-1)^(m-i) (m-i)!,

times the factor 2i - m from the odd node m.  For the odd node itself,
prod_{k=0..m} (m - 2k) = m (m-2) ... 1 (-1) ... (-m) = (-1)^(n+1) (m!!)^2.
The top node 2m has the product 2^m m! m, so

    w_{2i} / w_{2m} = (-1)^(i+1) C(m, i) m / (2i - m),
    c_n = w_m / w_{2m} = (-1)^(n+1) m 2^m m! / (m!!)^2
        = (-1)^(n+1) (2n+1) 2^(3n+1) n! / (2n+1)!! = (-1)^(n+1) 2^(4n+1) / C(2n, n),

by m! = m!! 2^n n! and m!! = m (2n)! / (2^n n!); exact_linalg.wn_weights
computes them with one running binomial.

The sign of w_e is (-1)^#{f in E : f > e}, so the 2n+3 coefficients alternate
in sign along the sorted exponents.  By Descartes' rule of signs P_n has at
most 2n+2 positive roots counted with multiplicity, and (z-1)^(2n+2)
divides it; hence ord_{z=1} P_n = 2n+2 exactly, for every n.  E and w are
symmetric under e -> 4n+2-e, so P_n is palindromic and both extreme
coefficients are 1.  It yields a homogeneous polynomial
Q_n(x, y) = q_n(x/y) * y^(2n+1) containing x^(2n+1) and y^(2n+1), and the
non-holomorphic family

    F_n(x, y) = Q_n(x, y) + c_n * |xy|^((2n+1)/2).

Restricted to the fiber xy = s^2 (s > 0), F_n collapses back to P_n:

    x^(2n+1) * F_n(x, s^2/x) = s^(4n+2) * P_n(x/s),

so the exponent at (s, s) is 1/ord_{z=1} P_n = 1/(2n+2), strictly below
the exponent 1/(2n+1) of the homogeneous restriction to the central fiber.
All of this is verified in exact arithmetic, once per record: the order
at 1 when the record is built, and the identity as a polynomial in (x, s)
that every sampled s must annul.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .exact_linalg import wn_weights
from .exponents import Exponent, _log_log_fit
from .polynomials import (
    BivariatePoly,
    MixedFunction,
    UnivariatePoly,
    as_mixed,
    vanishing_order,
)
from .rationals import ExactPairs, GaussianRational, _int_pair, exact_param

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


def wn_generator(n: int) -> UnivariatePoly:
    """The generator of W_n (module docstring), with z^(4n+2) coefficient 1,
    from the closed-form weights w_e / w_{4n+2} of exact_linalg.wn_weights."""
    nums, den = wn_weights(n)
    return UnivariatePoly._from_ints([(a, 0) for a in nums], den)


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
    verification: ViolationReport | None = None  # written with the record when set
    # (p_n, ord_{z=1} p_n) as build_family proved it; never written or compared
    _order_at_1: tuple | None = field(default=None, compare=False, repr=False)

    def to_json_obj(self):
        out = {
            "n": self.n,
            "p_coefficients": ExactPairs(self.p_n.nums, self.p_n.den),
            "q_coefficients": ExactPairs(self.q_n.nums, self.q_n.den),
            "c_n": self.c_n,
            "Q_support": ExactPairs(self.big_q.terms.values(), self.big_q.den,
                                    [f"{i},{j}" for i, j in self.big_q.terms]),
            "family": self.family,
            "in_N": self.in_n,
            "central_exponent": self.central_exponent,
            "fiber_exponent_at_diagonal": self.fiber_exponent_at_diagonal,
            "note": self.note,
        }
        if self.verification is not None:
            out["verification"] = self.verification
        return out


def build_family(n: int, p_n: UnivariatePoly) -> CounterexampleRecord:
    """Assemble Q_n and F_n from a witness P_n = q_n(z^2) + c_n z^(2n+1).

    Requires P_n in W_n (so ord_{z=1} P_n = 2n+2) with both extreme
    coefficients nonzero, so Q_n is homogeneous of degree 2n+1 and contains
    both x^(2n+1) and y^(2n+1).
    """
    if p_n.degree > 4 * n + 2:
        raise ValueError("P_n must have degree <= 4n+2")
    nums = p_n.nums + ((0, 0),) * (4 * n + 3 - len(p_n.nums))
    if any(nums[k] != (0, 0) for k in range(1, 4 * n + 2, 2) if k != 2 * n + 1):
        raise ValueError("P_n is not of the shape q(z^2) + c*z^(2n+1)")
    if nums[0] == (0, 0) or nums[4 * n + 2] == (0, 0):
        raise ValueError("P_n needs nonzero constant and z^(4n+2) coefficients")
    ord_at_1 = vanishing_order(p_n, 1)
    if ord_at_1 != 2 * n + 2:
        raise ValueError(f"ord_(z=1) P_n is {ord_at_1}, not 2n+2 = {2 * n + 2}")

    q_nums = nums[::2]
    q_n = UnivariatePoly._from_ints(q_nums, p_n.den)
    c_n = p_n.coefficient(2 * n + 1)
    big_q = BivariatePoly._from_ints(
        {(j, 2 * n + 1 - j): c for j, c in enumerate(q_nums)}, p_n.den)
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
        _order_at_1=(p_n, ord_at_1),
    )


@dataclass(frozen=True)
class ViolationReport:
    n: int
    s_samples: tuple
    identity_ok: bool
    fiber_order: int
    central: Exponent
    fiber: Exponent
    violated: bool

    def to_json_obj(self):
        return {"n": self.n, "s_samples": self.s_samples,
                "identity_ok": self.identity_ok, "fiber_order": self.fiber_order,
                "central_exponent": self.central, "fiber_exponent": self.fiber,
                "verdict": "violated" if self.violated else "holds"}


def _positive_sample(s) -> Fraction:
    """A sample s > 0, through exact_param (the one coercion), as a Fraction."""
    try:
        g = exact_param(s)
        if g.is_real() and g.re > 0:
            return g.re
    except ValueError:
        pass
    raise ValueError(f"s samples must be positive rationals; got s={s!r}")


def _fiber_identity(record: CounterexampleRecord) -> dict:
    """D(x, s) = x^(2n+1) F_n(x, s^2/x) - s^(4n+2) P_n(x/s), s > 0, as {x-exponent:
    {s-exponent: (re, im)}}, no zero entry, over one denominator: x^i y^j of Q gives
    x^(2n+1+i-j) s^(2j), c |xy|^(nu/2) gives c s^nu x^(2n+1), p_e gives -x^e s^(4n+2-e)."""
    n, f, p_n = record.n, as_mixed(record.family), record.p_n
    cr, ci, cd = _int_pair(f.radial_coeff)
    den = lcm(f.holo.den, p_n.den, cd)
    terms = [(2 * n + 1 + i - j, 2 * j, c, den // f.holo.den)
             for (i, j), c in f.holo.terms.items()]
    terms += [(e, 4 * n + 2 - e, c, -(den // p_n.den)) for e, c in enumerate(p_n.nums)]
    terms.append((2 * n + 1, f.radial_half_exp, (cr, ci), den // cd))
    rows = {}
    for xe, se, (re, im), w in terms:
        a, b = rows.setdefault(xe, {}).get(se, (0, 0))
        rows[xe][se] = (a + re * w, b + im * w)
    return {xe: kept for xe, row in rows.items()
            if (kept := {se: v for se, v in row.items() if v != (0, 0)})}


def verify_violation(record: CounterexampleRecord, s_samples) -> ViolationReport:
    """Exact verification of the four defining facts of a family record.

    (a) the fiber identity x^(2n+1) F_n(x, s^2/x) = s^(4n+2) P_n(x/s), formed
    once in (x, s) and evaluated at each sampled s; (b) the fiber exponent at
    (s, s) is 1/ord_{z=1} P_n, by the dilation x = s*z, and is <= 1/(2n+2)
    (the order build_family proved is reused while the record's p_n is the
    one it proved it for, and proved afresh otherwise);
    (c) the central exponent is 1/(2n+1); (d) the strict violation
    inequality.  Any failure of (a) raises ViolationCheckError: the
    construction itself is broken.
    """
    from .degeneration import central_exponent

    n = record.n
    samples = tuple(_positive_sample(s) for s in s_samples)
    if not samples:
        raise ValueError("need at least one s sample")
    proved = record._order_at_1       # a record made by replace() keeps the old one
    if proved is not None and proved[0] == record.p_n:
        ord_z1 = proved[1]
    else:
        ord_z1 = vanishing_order(record.p_n, 1)

    # s = p/q zeroes an x-coefficient sum_k c_k s^k of D iff sum_k c_k p^(k-lo) q^(hi-k) = 0
    rows = [(min(row), max(row), row) for row in _fiber_identity(record).values()]
    for s in samples:
        p, q = s.numerator, s.denominator
        if any(sum(c[part] * p ** (k - lo) * q ** (hi - k) for k, c in row.items())
               for lo, hi, row in rows for part in (0, 1)):
            raise ViolationCheckError(
                f"fiber identity failed at n={n}, s={s}: construction bug")

    central = central_exponent(record.family, "min")
    fiber_exp = Exponent.reciprocal_order(ord_z1)
    violated = (fiber_exp < central
                and fiber_exp <= Exponent(Fraction(1, 2 * n + 2))
                and central == Exponent(Fraction(1, 2 * n + 1)))
    return ViolationReport(
        n=n,
        s_samples=samples,
        identity_ok=True,
        fiber_order=ord_z1,
        central=central,
        fiber=fiber_exp,
        violated=violated,
    )


def counterexample_record(n: int) -> CounterexampleRecord:
    """The family built on the generator of W_n."""
    return build_family(n, wn_generator(n))


# ---------------------------------------------------------------------------
# regularity probe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HolderProbeResult:
    estimate: float       # saturated at 1.0 (Lipschitz or better)
    raw_slope: float
    fit_residual: float
    points_used: int

    def to_json_obj(self):
        return {"estimate": self.estimate, "raw_slope": self.raw_slope,
                "fit_residual": self.fit_residual, "points_used": self.points_used}


def holder_probe(n: int, profile=None) -> HolderProbeResult:
    """Sampled Hoelder exponent of the n-th derivative of the radial block.

    The non-smooth part of F_n is |xy|^((2n+1)/2), and its regularity
    reduces to the one-variable profile g(r) = r^((2n+1)/2).  The probe
    differentiates g numerically n times at the radii r = 2^-k, k = 2..14,
    and regresses log |g^(n)(r) - g^(n)(r/2)| against log r; for the
    building block the slope is 1/2.  A custom profile can be passed for
    smooth controls, whose estimate saturates at 1.
    """
    if not 0 <= n < 128:      # the stencil r(1 + (k - n/2)/64), k = 0..n, stays in r > 0
        raise ValueError(f"n must lie in 0..127; got n={n}")
    if profile is None:
        exponent = (2 * n + 1) / 2.0
        profile = lambda r: r ** exponent

    radii = [2.0 ** -k for k in range(2, 15)]
    try:
        derivs = [_nth_derivative(profile, n, r) for r in radii]
    except (OverflowError, ZeroDivisionError):    # a sample or h^n past the float range
        raise ValueError(f"the probe at n={n} leaves the float range") from None
    usable = [(r, abs(b - a)) for r, a, b in zip(radii, derivs, derivs[1:]) if abs(b - a) > 0]
    if len(usable) < 4:
        raise ValueError("degenerate sample range: fewer than 4 usable differences")
    slope, residual = _log_log_fit(*zip(*usable))
    return HolderProbeResult(
        estimate=min(slope, 1.0),
        raw_slope=slope,
        fit_residual=residual,
        points_used=len(usable),
    )


def _nth_derivative(profile, n: int, r: float) -> float:
    """The n-th central difference of profile at r with step h = r/64, over h^n."""
    h = r / 64.0
    samples = [float(profile(r + (k - n / 2.0) * h)) for k in range(n + 1)]
    for _ in range(n):
        samples = [b - a for a, b in zip(samples, samples[1:])]
    return samples[0] / h ** n
