"""The family xy = t over the disc: exponents on fibers and verdicts.

Fibers X_t with t != 0 are smooth graphs y = t/x, so the singularity
exponent of a restricted function at a point is the reciprocal of its
vanishing order there.  The central fiber X_0 is the axis pair; exponents
on it are computed per component and combined with min.  This module
localizes fiber zeros (every t is taken exactly, so multiplicities are
exact, and locations are exact wherever a root is a Gaussian rational),
evaluates the resolution-data formula min (k_i + 1)/a_i, and runs the
desk-scale semicontinuity check comparing central and fiber exponents.
"""

from __future__ import annotations

import cmath
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .exponents import Exponent
from .polynomials import (
    IdenticallyZeroError,
    LaurentForm,
    MixedFunction,
    UnivariatePoly,
    as_mixed,
    divides_power,
    exact_divide,
    squarefree_decomposition,
    substitute_fiber,
    vanishing_order,
)
from .rationals import GaussianRational, exact_param, param_modulus

DEFAULT_DELTA = 0.1


# ---------------------------------------------------------------------------
# fiber zero localization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiberZero:
    """A zero of the fiber function on X_t, with multiplicity.

    location is a GaussianRational when the zero was verified exactly
    (exact_location), otherwise a complex float root of a squarefree factor;
    _form_zeros finds and snaps the roots.  Multiplicities come
    from squarefree decomposition and are exact even when the location is not.
    """

    location: object
    multiplicity: int

    @property
    def exact_location(self) -> bool:
        return isinstance(self.location, GaussianRational)

    @property
    def exactness(self) -> str:
        return "exact" if self.exact_location else "numeric"

    def location_complex(self) -> complex:
        return self.location.to_complex() if self.exact_location else complex(self.location)

    def to_json_obj(self):
        return {"location": self.location if self.exact_location else complex(self.location),
                "multiplicity": self.multiplicity,
                "exactness": self.exactness}


SNAP_MAX_DEN = 10 ** 6


def _nearest_fraction(x: float, max_den: int = SNAP_MAX_DEN):
    """(p, q), q > 0 and p/q in lowest terms: the fraction nearest x with
    q <= max_den, found on ints alone by Fraction's algorithm and tie-break.

    The continued fraction of x's exact binary value runs until the next
    convergent's denominator would pass max_den.  Of the last convergent
    p1/q1 and the semiconvergent with the largest allowed denominator, the
    one nearer x wins, p1/q1 on a tie: x lies between them, they are
    1/(q1 (q0 + k q1)) apart, and x is d/(q1 den) from p1/q1.
    """
    n, den = x.as_integer_ratio()
    if den <= max_den:
        return n, den
    d = den
    p0, q0, p1, q1 = 0, 1, 1, 0
    while True:
        a = n // d
        q2 = q0 + a * q1
        if q2 > max_den:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        n, d = d, n - a * d
    k = (max_den - q0) // q1
    if 2 * d * (q0 + k * q1) <= den:
        return p1, q1
    return p0 + k * p1, q0 + k * q1


def _snap_gaussian(z: complex, den: int):
    """The Gaussian rational whose parts are _nearest_fraction of z's, or
    None unless both reduced denominators divide den, the denominator of a
    monic factor (this drops no root; see _form_zeros), and it
    lies within 1e-8 max(1, |z|) of z."""
    pr, qr = _nearest_fraction(z.real)
    pi, qi = _nearest_fraction(z.imag)
    if den % qr or den % qi:
        return None
    if abs(complex(pr / qr, pi / qi) - z) > 1e-8 * max(1.0, abs(z)):
        return None
    return GaussianRational(Fraction(pr, qr), Fraction(pi, qi))


ABERTH_MAX_PASSES = 500


def _roots_of_unipoly(p: UnivariatePoly) -> list:
    """Complex float roots of a squarefree factor p, one per unit of degree.

    Zero low coefficients give exact roots 0.  The rest has closed forms in
    degrees 1 and 2 (the quadratic without cancellation) and otherwise goes
    through the Aberth-Ehrlich iteration (Aberth 1973) on the float
    coefficients a_k: each pass moves every unfinished root z_k, in place, by

        w_k = p(z_k) / (p'(z_k) - p(z_k) * sum_{j != k} 1/(z_k - z_j)),

    starting from circles read off the upper hull of the points (k, log|a_k|)
    (Bini 1996), so roots of very different sizes start near their own
    modulus.  A root stops after the step taken when its Horner residual
    |p(z_k)| is at most 4 n eps sum_k |a_k| |z_k|^k, the rounding error of
    the evaluation itself.  A factor with real coefficients gets exact
    conjugate pairs, and its real roots an imaginary part of exactly 0.0.
    Raises ArithmeticError if some root has not stopped after
    ABERTH_MAX_PASSES passes.

    When a nonzero coefficient has no normal float image (its modulus
    underflows or overflows), the roots are those of p(2^s w), s the rounded
    slope of the coefficients' bit lengths, with the coefficients scaled on
    ints so the largest is about 1, and are scaled back by 2^s; ValueError
    if a coefficient of p(2^s w) still has no normal float image.
    """
    low = 0
    while low < p.degree and p.nums[low] == (0, 0):
        low += 1
    nums, den = p.nums[low:], p.den
    n = len(nums) - 1
    if n < 1:
        return [0j] * low
    try:
        a = [complex(cr / den, ci / den) for cr, ci in nums]
        s = 0 if _normal_images(a, nums) else None
    except OverflowError:
        s = None
    if s is None:
        bits = [max(abs(cr), abs(ci)).bit_length() for cr, ci in nums]
        s = round((bits[0] - bits[-1]) / n)
        top = max(b + s * k for k, b in enumerate(bits) if b) - den.bit_length()
        a = [complex(_shifted(cr, s * k - top, den), _shifted(ci, s * k - top, den))
             for k, (cr, ci) in enumerate(nums)]
        if not _normal_images(a, nums):
            raise ValueError("the coefficients of a fiber factor span more than the float range")
    real = not any(ci for _, ci in p.nums)
    if n == 1:
        roots = [-a[0] / a[1]]
    elif n == 2:
        roots = _quadratic_roots(*a)
    else:
        roots = _aberth(a)
    if real:
        roots = _conjugate_closed(roots)
    if s:
        roots = [complex(math.ldexp(z.real, s), math.ldexp(z.imag, s)) for z in roots]
    return [0j] * low + roots


def _normal_images(a, nums) -> bool:
    """Whether the float a_k of each nonzero exact pair nums[k] has a normal
    modulus: no more float zeros than exact ones, and the least nonzero
    modulus at least the least normal float."""
    zeros = nums.count((0, 0))
    return a.count(0j) == zeros and sorted(map(abs, a))[zeros] >= sys.float_info.min


def _shifted(x: int, e: int, den: int) -> float:
    """x 2^e / den, rounded once."""
    return (x << e) / den if e >= 0 else x / (den << -e)


def _quadratic_roots(c: complex, b: complex, a: complex) -> list:
    s = cmath.sqrt(b * b - 4.0 * a * c)
    if (b.conjugate() * s).real < 0:
        s = -s
    q = -0.5 * (b + s)
    return [q / a, c / q]


def _aberth(a) -> list:
    """Roots of sum a_k z^k (a_0 and a_n nonzero, n >= 3); see _roots_of_unipoly."""
    n = len(a) - 1
    desc = a[::-1]
    mods = [abs(c) for c in desc]
    z = _start_circles([abs(c) for c in a])
    tol = 4.0 * n * sys.float_info.epsilon
    active = range(n)
    for _ in range(ABERTH_MAX_PASSES):
        unfinished = []
        for k in active:
            zk = z[k]
            pv, dv = desc[0], 0j
            for c in desc[1:]:
                dv = dv * zk + pv
                pv = pv * zk + c
            r, bound = abs(zk), 0.0
            for m in mods:
                bound = bound * r + m
            if pv:
                sigma = 0j
                for j, zj in enumerate(z):
                    if j != k:
                        sigma += 1.0 / (zk - zj)
                den = dv - pv * sigma
                if den:
                    z[k] = zk - pv / den
            if not abs(pv) <= tol * bound < math.inf:   # nan or overflow: not done
                unfinished.append(k)
        if not unfinished:
            return z
        active = unfinished
    raise ArithmeticError(f"Aberth iteration: {len(active)} of {n} roots "
                          f"unresolved after {ABERTH_MAX_PASSES} passes")


def _start_circles(mods) -> list:
    """Starting points: for each edge (i, j) of the upper hull of (k, log|a_k|),
    j - i evenly spaced points on the circle of radius (|a_i|/|a_j|)^(1/(j - i)),
    turned by 0.7 rad so that none starts on the real axis."""
    n = len(mods) - 1
    hull = []
    for k, m in enumerate(mods):
        pt = (k, math.log(max(m, sys.float_info.min)))
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (pt[1] - y1) - (y2 - y1) * (pt[0] - x1) < 0:
                break
            hull.pop()
        hull.append(pt)
    z = []
    for (i, li), (j, lj) in zip(hull, hull[1:]):
        radius = math.exp((li - lj) / (j - i))
        offset = 2.0 * math.pi * i / n + 0.7
        z += [cmath.rect(radius, offset + 2.0 * math.pi * q / (j - i))
              for q in range(j - i)]
    return z


def _conjugate_closed(roots) -> list:
    """The roots of a real polynomial as exact conjugate pairs (the one with
    positive imaginary part first) and real roots with imaginary part 0.0.

    A root is real when no other root lies nearer to its conjugate than the
    root itself does; otherwise it is paired with that nearest root and the
    pair is replaced by the mean of the root and the partner's conjugate.
    """
    left = list(roots)
    out = []
    # adding 0.0 turns a real part -0.0 into 0.0, which prints without a sign
    while left:
        z = left.pop(0)
        zc = z.conjugate()
        j = min(range(len(left)), key=lambda i: abs(left[i] - zc), default=None)
        if j is None or abs(left[j] - zc) >= abs(z - zc):
            out.append(complex(z.real + 0.0, 0.0))
            continue
        w = left.pop(j)
        re, im = 0.5 * (z.real + w.real) + 0.0, 0.5 * abs(z.imag - w.imag)
        out += [complex(re, im), complex(re, -im)]
    return out


def _cyclic_order(p: UnivariatePoly):
    """(j, k) with p = x^j P(x^k), P(0) != 0, k the gcd of its exponents' gaps or 1."""
    exps = [e for e, (cr, ci) in enumerate(p.nums) if cr or ci]
    return exps[0], math.gcd(*(e - exps[0] for e in exps)) or 1


def _form_zeros(form: LaurentForm) -> tuple:
    """Zeros of the form's numerator with exact multiplicities, in _zero_order.

    They are found once per form and kept on it: the roots of each
    squarefree factor G of the numerator x^j P(x^k), deflated if k > 1
    (_deflated_roots; 0 has multiplicity j), with G's multiplicity.  Each
    float root is snapped on ints by _snap_gaussian, which drops, before any
    Fraction or exact test is made, every candidate whose part denominators
    do not divide G's denominator den.  That filter is exact: G is monic, so
    den * G lies in Z[i][z] with leading coefficient den, and Gauss's lemma
    puts den * r in Z[i] for every Gaussian-rational root r; a dropped
    candidate would have failed divides_power.  A candidate that passes and
    divides G is exact, and each such candidate is used once: when a second
    root snaps to a used one, the numeric roots are taken from G with the
    exact roots divided out.  IdenticallyZeroError for a zero form.
    """
    if form._zeros is not None:
        return form._zeros
    if form.is_zero():
        raise IdenticallyZeroError("fiber function is identically zero")
    j, k = _cyclic_order(form.numerator)
    factors = _deflated_roots(form.numerator, j, k) if k > 1 else None
    if factors is None:
        j, factors = 0, [(g, mult, _roots_of_unipoly(g))
                         for g, mult in squarefree_decomposition(form.numerator)]
    zeros = [FiberZero(GaussianRational(0), j)] if j else []
    for factor, mult, roots in factors:
        claimed, found, collided = set(), [], False
        for root in roots:
            cand = _snap_gaussian(root, factor.den)
            if (cand is not None and cand not in claimed
                    and divides_power(factor, cand, 1)):
                claimed.add(cand)
                found.append(FiberZero(cand, mult))
            else:
                collided = collided or cand in claimed
                found.append(FiberZero(complex(root), mult))
        if collided:
            rest = factor
            for cand in claimed:
                rest = exact_divide(rest, UnivariatePoly([-cand, 1]))
            found = [z for z in found if z.exact_location] + [
                FiberZero(complex(r), mult) for r in _roots_of_unipoly(rest)]
        zeros += found
    object.__setattr__(form, "_zeros", tuple(sorted(zeros, key=_zero_order)))
    return form._zeros


def _deflated_roots(num: UnivariatePoly, j: int, k: int):
    """[(G, multiplicity, float roots of G)] for the squarefree factors g of P,
    num = x^j P(x^k), lifted to G = g(x^k), squarefree as g(0) != 0: the
    closed forms if deg G <= 2, else the k-th roots of g's (conjugation-closed
    for a real G), or None if a root of g has no normal float image."""
    out, p = [], UnivariatePoly._from_ints(num.nums[j::k], num.den)
    for g, mult in [(p.monic(), 1)] if p.degree == 1 else squarefree_decomposition(p):
        lifted = [(0, 0) if i % k else g.nums[i // k] for i in range(k * g.degree + 1)]
        big = UnivariatePoly._from_ints(lifted, g.den)
        ws = _roots_of_unipoly(big if big.degree <= 2 else g)
        if big.degree > 2:
            if not all(sys.float_info.min <= abs(w) < math.inf for w in ws):
                return None
            ws = [x for w in ws for x in _kth_roots(w, k)]
            ws = ws if any(ci for _, ci in g.nums) else _conjugate_closed(ws)
        out.append((big, mult, ws))
    return out


def _kth_roots(w: complex, k: int) -> list:
    """The k roots of x^k = w != 0, of modulus r = 2^n v^(1/k) for |w| = 2^(kn) v,
    1/2 <= v < 2^(k-1) (1/k's rounding costs under an ulp); on an axis, w has
    phase h pi/2, and its q-th root r i^((h + 4q)/k) is exact if on an axis."""
    n = math.frexp(abs(w))[1] // k
    r, phase = math.ldexp(math.ldexp(abs(w), -k * n) ** (1.0 / k), n), cmath.phase(w)
    h = None if w.real and w.imag else round(2.0 * phase / math.pi)
    axes = (complex(r, 0.0), complex(0.0, r), complex(-r, 0.0), complex(0.0, -r))
    return [axes[(h + 4 * q) // k % 4] if h is not None and (h + 4 * q) % k == 0
            else cmath.rect(r, (phase + 2.0 * math.pi * q) / k) for q in range(k)]


def _fiber_form(f, t) -> LaurentForm:
    """The fiber form of (f, t): f itself when it is a LaurentForm, else
    substitute_fiber(f, t).  ValueError for t = 0 and for a form of another
    t (a form of no fiber, t None, takes any t)."""
    tt = exact_param(t)
    if tt.is_zero():
        raise ValueError("t = 0 is the central fiber; use the axis restrictions")
    if not isinstance(f, LaurentForm):
        return substitute_fiber(f, t)
    if f.t is not None and f.t != tt:
        raise ValueError(f"the fiber form belongs to t = {f.t}, not t = {t}")
    return f


def fiber_zeros(f, t, delta: float = DEFAULT_DELTA):
    """Zeros of the fiber function of F on X_t inside the polydisc.

    The region is the part of X_t with |x| <= delta and |t/x| <= delta (the
    polydisc of radius delta around the origin), that is the annulus
    |t|/delta <= |x| <= delta of _zeros_in.  t is taken exactly (a float at
    its binary value) and the fiber function goes through squarefree
    decomposition, which gives exact multiplicities and, where a root snaps
    to a verified Gaussian rational, exact locations.  f may be the fiber
    form substitute_fiber(f, t) itself, whose zeros are found once.

    Raises IdenticallyZeroError when the fiber function vanishes
    identically (its exponent is 0 by convention), and ValueError unless
    delta > 0 (math.inf takes every zero) or when a form f is another t's.
    """
    if not delta > 0:
        raise ValueError(f"delta must be positive, not {delta!r}")
    zeros = _form_zeros(_fiber_form(f, t))
    return _zeros_in(zeros, param_modulus(t) / delta, delta)


def _zeros_in(zeros, r_inner: float, r_outer: float) -> list:
    """The zeros x != 0 with r_inner (1 - s) <= |x| <= r_outer (1 + s): the one
    rule for the polydisc of fiber_zeros and the annulus of an integral."""
    s = 1e-12   # so that a float root on a bound counts as inside
    return [z for z in zeros if 0.0 < (ax := abs(z.location_complex()))
            and r_inner * (1.0 - s) <= ax <= r_outer * (1.0 + s)]


def _zero_order(z: FiberZero):
    """Modulus at the 12 significant digits the artifacts print, then phase:
    zeros of equal modulus (the five zeros of x^5 = t^2) then keep an order
    that the last bits of the root finder cannot change."""
    loc = z.location_complex()
    return float(f"{abs(loc):.12g}"), cmath.phase(loc)


# ---------------------------------------------------------------------------
# exponents
# ---------------------------------------------------------------------------

def fiber_exponent(f, t, p) -> Exponent:
    """Exponent of the fiber restriction at a point p = (x0, t/x0) of X_t.

    1/ord of the fiber function at x0; +infinity where it does not vanish;
    0 for an identically zero fiber function.  An exact x0 gets its exact
    order; a float x0 is matched by location to the fiber zeros, whose
    multiplicities are exact.
    """
    tt = exact_param(t)
    x0 = p[0] if isinstance(p, (tuple, list)) else p
    numeric = isinstance(x0, (float, complex))
    x0 = complex(x0) if numeric else exact_param(x0)
    if x0 == 0:
        raise ValueError("fiber points have x != 0")
    if (not numeric and isinstance(p, (tuple, list)) and len(p) > 1
            and not isinstance(p[1], (float, complex)) and x0 * exact_param(p[1]) != tt):
        raise ValueError("point does not lie on the fiber xy = t")
    fib = _fiber_form(f, tt)
    if fib.is_zero():
        return Exponent.zero()
    if numeric:
        for z in fiber_zeros(fib, tt, delta=math.inf):
            if abs(z.location_complex() - x0) <= 1e-9 * max(1.0, abs(x0)):
                return Exponent.reciprocal_order(z.multiplicity)
        return Exponent.infinite()
    order = vanishing_order(fib, x0)
    return Exponent.infinite() if order == 0 else Exponent.reciprocal_order(order)


def _axis_exponents(f):
    """(x-axis, y-axis) exponents of F at the origin, one restriction each."""
    f = as_mixed(f)  # the radial term vanishes on the axes

    def one_axis(r: UnivariatePoly) -> Exponent:
        if r.is_zero():
            return Exponent.zero()
        v = r.valuation()
        return Exponent.infinite() if v == 0 else Exponent.reciprocal_order(v)

    return one_axis(f.holo.restrict_x_axis()), one_axis(f.holo.restrict_y_axis())


def central_exponent(f, component: str = "min") -> Exponent:
    """Exponent of the restriction of F to the central fiber at the origin.

    Per component this is 1/ord_0 of F(x, 0) resp. F(0, y); a restriction
    that vanishes identically gives 0 and a nonvanishing one +infinity.
    component 'min' is the exponent on the whole axis pair (min over the
    components through the origin); 'max' is the strongest per-component
    claim and is what the semicontinuity check compares against.
    """
    ex, ey = _axis_exponents(f)
    if component == "x-axis":
        return ex
    if component == "y-axis":
        return ey
    if component in ("min", "min-over-components"):
        return min(ex, ey)
    if component == "max":
        return max(ex, ey)
    raise ValueError("component must be 'x-axis', 'y-axis', "
                     "'min-over-components' (or 'min') or 'max'")


# ---------------------------------------------------------------------------
# resolution-data formula
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Divisor:
    """One exceptional or strict-transform divisor: discrepancy k,
    multiplicity a in the pulled-back zero divisor, and whether its image
    passes through the base point."""

    k: int
    a: int
    through: bool = True

    def __post_init__(self):
        if self.a < 1:
            raise ValueError("divisor multiplicity a must be >= 1")
        if self.k < 0:
            raise ValueError("discrepancy k must be >= 0")

    def to_json_obj(self):
        return {"k": self.k, "a": self.a, "through": self.through}


@dataclass(frozen=True)
class LctResult:
    value: Exponent
    equality: bool  # equality certified only for genuine log resolutions

    @property
    def label(self) -> str:
        return "equality" if self.equality else "upper bound"


def lct_from_resolution(divisors, is_log_resolution: bool) -> LctResult:
    """min over divisors through the point of (k_i + 1)/a_i.

    The caller asserts via is_log_resolution whether the data comes from a
    genuine log resolution (then the value is the threshold itself) or not
    (then it is only an upper bound, and is labeled so).
    """
    divisors = list(divisors)
    if not divisors:
        raise ValueError("empty divisor list")
    through = [d for d in divisors if d.through]
    if not through:
        raise ValueError("no divisor passes through the point")
    best = min(Fraction(d.k + 1, d.a) for d in through)
    return LctResult(Exponent(best), bool(is_log_resolution))


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    divisors: tuple
    is_log_resolution: bool
    curve: str | None = None  # matching germ for the polygon cross-check

    def to_json_obj(self):
        """The load_catalog form of this entry."""
        return {"name": self.name, "divisors": self.divisors,
                "log_resolution": self.is_log_resolution, "curve": self.curve}


def builtin_catalog():
    """Hand-derived resolution data for standard plane-curve germs.

    The x^a + y^b entries list the strict transform and the quasi-
    homogeneous exceptional divisor of the (b/g, a/g)-weighted blowup,
    whose ratio (a+b)/(ab) realizes the threshold.  Every entry is a log
    resolution.
    """
    entries = {}

    def add(name, divisors, curve):
        entries[name] = CatalogEntry(name, tuple(divisors), True, curve)

    add("smooth", [Divisor(0, 1)], "x + y")
    for m in range(2, 6):
        add(f"ord-{m}", [Divisor(0, m)], f"x^{m}")
    add("node", [Divisor(0, 1), Divisor(0, 1), Divisor(1, 2)], "x^2 - y^2")
    add("cusp", [Divisor(0, 1), Divisor(1, 2), Divisor(2, 3), Divisor(4, 6)],
        "y^2 - x^3")
    add("tacnode", [Divisor(0, 1), Divisor(0, 1), Divisor(1, 2), Divisor(2, 4)],
        "y^2 - x^4")
    for a in range(2, 6):
        for b in range(2, 6):
            g = math.gcd(a, b)
            add(f"x^{a}+y^{b}",
                [Divisor(0, 1), Divisor((a + b) // g - 1, a * b // g)],
                f"x^{a} + y^{b}")
    return entries


def _json_typed(value, *kinds):
    """value when its JSON type is one of kinds (a boolean is no int here)."""
    if type(value) not in kinds:
        raise TypeError(f"{json.dumps(value)} is not {'/'.join(k.__name__ for k in kinds)}")
    return value


def load_catalog(path):
    """Read a catalog file: JSON list of {name: string, divisors: [{k: int, a: int,
    through: bool = true}], log_resolution: bool = false, curve: string | null}.

    Raises ValueError, naming the file and the entry, for any other shape."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as e:
            raise ValueError(f"catalog {path}: not JSON ({e})") from None
    if not isinstance(raw, list):
        raise ValueError(f"catalog {path}: expected a JSON list of entries")
    entries = {}
    for i, item in enumerate(raw):
        try:
            divisors = tuple(
                Divisor(_json_typed(d["k"], int), _json_typed(d["a"], int),
                        _json_typed(d.get("through", True), bool))
                for d in item["divisors"])
            name = _json_typed(item["name"], str)
            entries[name] = CatalogEntry(
                name, divisors, _json_typed(item.get("log_resolution", False), bool),
                _json_typed(item.get("curve"), str, type(None)))
        except (AttributeError, KeyError, TypeError, ValueError) as e:
            raise ValueError(f"catalog {path}: entry {i} {json.dumps(item)} is "
                             f"malformed ({type(e).__name__}: {e})") from None
    return entries


# ---------------------------------------------------------------------------
# semicontinuity check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiberRow:
    t: object
    zeros: tuple            # pairs (FiberZero, Exponent)
    holds: bool | None      # None: excluded (fiber function identically zero)
    note: str = ""


@dataclass(frozen=True)
class SemicontinuityReport:
    function: MixedFunction
    holomorphic: bool
    central_x: Exponent
    central_y: Exponent
    central_max: Exponent
    delta: float
    rows: tuple
    verdict: str                    # "holds" | "violated"
    witness: tuple | None = None    # (t, FiberZero, central_max, fiber_exponent)
    largest_t_holding: object = None

    def to_json_obj(self):
        witness = None
        if self.witness is not None:
            t, zero, cmax, fexp = self.witness
            witness = {"t": t, "zero": zero, "central_max": cmax,
                       "fiber_exponent": fexp}
        return {
            "function": self.function,
            "holomorphic": self.holomorphic,
            "central": {"x_axis": self.central_x, "y_axis": self.central_y,
                        "min": min(self.central_x, self.central_y),
                        "max": self.central_max},
            "delta": float(self.delta),
            "verdict": self.verdict,
            "witness": witness,
            "largest_t_holding": self.largest_t_holding,
            "rows": [{"t": r.t, "holds": r.holds, "note": r.note,
                      "zeros": [{"zero": z, "exponent": e} for z, e in r.zeros]}
                     for r in self.rows],
        }


def semicontinuity_check(f, t_samples, delta: float = DEFAULT_DELTA) -> SemicontinuityReport:
    """Desk-scale semicontinuity verdict for the family xy = t at the origin.

    For every sampled t != 0 the check compares the strongest central claim
    (max over the axis components of the central exponent) against the
    exponent at every fiber zero inside the polydisc of radius delta.  For
    holomorphic F the verdict must be "holds"; non-holomorphic (mixed)
    inputs may genuinely violate it.  Rows whose fiber function vanishes
    identically are excluded (such a t is outside the eventual range of the
    semicontinuity statement); if every row is excluded, F vanishes on the
    family and an error is raised.
    """
    f = as_mixed(f)
    samples = sorted(t_samples, key=lambda t: -param_modulus(t))
    if not samples:
        raise ValueError("need at least one t sample")
    if any(exact_param(t).is_zero() for t in samples):
        raise ValueError("t samples must be nonzero")
    cx, cy = _axis_exponents(f)
    cmax = max(cx, cy)

    rows = []
    witness = None
    for t in samples:
        try:
            zs = fiber_zeros(f, t, delta=delta)
        except IdenticallyZeroError:
            rows.append(FiberRow(t, (), None, "fiber function identically zero"))
            continue
        pairs = tuple((z, Exponent.reciprocal_order(z.multiplicity)) for z in zs)
        row_holds = all(cmax <= e for _, e in pairs)
        rows.append(FiberRow(t, pairs, row_holds))
        if not row_holds and witness is None:
            bad = min(pairs, key=lambda pe: pe[1])
            witness = (t, bad[0], cmax, bad[1])

    if all(r.holds is None for r in rows):
        raise IdenticallyZeroError("F vanishes on the family")
    verdict = "holds" if witness is None else "violated"
    return SemicontinuityReport(
        function=f,
        holomorphic=f.is_holomorphic(),
        central_x=cx,
        central_y=cy,
        central_max=cmax,
        delta=delta,
        rows=tuple(rows),
        verdict=verdict,
        witness=witness,
        # the samples run down in |t|, so the first that holds is the largest
        largest_t_holding=next((r.t for r in rows if r.holds), None),
    )
