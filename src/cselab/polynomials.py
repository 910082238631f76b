"""Exact polynomial and Laurent algebra over Gaussian rationals.

Univariate polynomials are coefficient lists by ascending degree; bivariate
polynomials are support maps (m, n) -> coefficient with no zero entries, so
equality of support maps is equality of polynomials.  Fiber restriction along
the family xy = t produces Laurent normal forms N(x)/x^d + const.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .rationals import GaussianRational, ZERO, ONE, exact_param


class IdenticallyZeroError(ValueError):
    """Raised where an operation needs a function that is not identically zero."""


def _coeff(v) -> GaussianRational:
    return GaussianRational.coerce(v)


# ---------------------------------------------------------------------------
# univariate
# ---------------------------------------------------------------------------

class UnivariatePoly:
    """Polynomial in one variable, coefficients ascending, no trailing zeros."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_coeff(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("UnivariatePoly is immutable")

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def monomial(cls, exponent: int, coeff=1):
        c = _coeff(coeff)
        if c.is_zero():
            return cls()
        return cls([ZERO] * exponent + [c])

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def valuation(self) -> int:
        """Lowest exponent with a nonzero coefficient (order of vanishing at 0)."""
        if not self.coeffs:
            raise IdenticallyZeroError("valuation of the zero polynomial")
        for k, c in enumerate(self.coeffs):
            if not c.is_zero():
                return k
        raise AssertionError("unreachable: canonical form has a nonzero coeff")

    def coefficient(self, k: int) -> GaussianRational:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return ZERO

    def __eq__(self, other):
        return isinstance(other, UnivariatePoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        return UnivariatePoly(
            [(a[k] if k < len(a) else ZERO) + (b[k] if k < len(b) else ZERO)
             for k in range(n)])

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return UnivariatePoly([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, UnivariatePoly):
            if not self.coeffs or not other.coeffs:
                return UnivariatePoly()
            out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a.is_zero():
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
            return UnivariatePoly(out)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, scalar):
        s = _coeff(scalar)
        return UnivariatePoly([c * s for c in self.coeffs])

    def __pow__(self, k: int):
        out = UnivariatePoly([ONE])
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def derivative(self) -> "UnivariatePoly":
        return UnivariatePoly(
            [self.coeffs[k] * k for k in range(1, len(self.coeffs))])

    def dilate(self, a) -> "UnivariatePoly":
        """P(a*z): coefficient k picks up a^k."""
        s = _coeff(a)
        out, p = [], GaussianRational(1)
        for c in self.coeffs:
            out.append(c * p)
            p = p * s
        return UnivariatePoly(out)

    def times_power(self, k: int) -> "UnivariatePoly":
        """Multiply by z^k."""
        if self.is_zero():
            return self
        return UnivariatePoly([ZERO] * k + list(self.coeffs))

    def reversed_within(self, length: int) -> "UnivariatePoly":
        """z^(length) * P(1/z) as a polynomial; requires deg P <= length."""
        if self.degree > length:
            raise ValueError("degree exceeds reversal length")
        out = [ZERO] * (length + 1)
        for k, c in enumerate(self.coeffs):
            out[length - k] = c
        return UnivariatePoly(out)

    def evaluate(self, z) -> GaussianRational:
        """Exact Horner evaluation at a Gaussian-rational point."""
        zz = _coeff(z)
        acc = GaussianRational(0)
        for c in reversed(self.coeffs):
            acc = acc * zz + c
        return acc

    def monic(self) -> "UnivariatePoly":
        if self.is_zero():
            return self
        return self.scale(self.coeffs[-1].inverse())

    def to_str(self, var: str = "z") -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c.is_zero():
                continue
            mono = "1" if k == 0 else (var if k == 1 else f"{var}^{k}")
            parts.append(f"({c})*{mono}" if k else f"({c})")
        return " + ".join(parts)

    def __str__(self):
        return self.to_str("z")

    def __repr__(self):
        return f"UnivariatePoly({[str(c) for c in self.coeffs]})"


# ---------------------------------------------------------------------------
# gcd and squarefree decomposition on Gaussian-integer numerators
# ---------------------------------------------------------------------------
# Inside this section a polynomial is a list of ascending coefficients, each
# a Gaussian integer stored as an (re, im) pair of ints, with a nonzero last
# entry ([] is zero).  Z[i] is a Euclidean domain, so Gauss's lemma holds:
# a primitive polynomial that divides an integral one over Q(i) divides it
# over Z[i].  Every gcd goes through _gcd_cofactors: the heuristic gcd
# GCDHEU (Char, Geddes & Gonnet 1989) when all imaginary parts are zero, and
# the primitive pseudo-remainder sequence (Collins 1967; Brown & Traub 1971)
# when some coefficient is non-real or every heuristic try fails.

def _common_denominator(coeffs) -> int:
    """The lcm of the denominators of the Gaussian rationals coeffs."""
    return lcm(*(d for c in coeffs for d in (c.re.denominator, c.im.denominator)))


def _numerators(coeffs):
    """L * c for each c in coeffs as (re, im) int pairs, L their common denominator."""
    big_l = _common_denominator(coeffs)
    return [(c.re.numerator * (big_l // c.re.denominator),
             c.im.numerator * (big_l // c.im.denominator)) for c in coeffs]


def _monic_poly(p) -> UnivariatePoly:
    """The monic UnivariatePoly proportional to the nonzero int polynomial p."""
    lr, li = p[-1]
    n = lr * lr + li * li
    # c / lc = c * conj(lc) / |lc|^2
    return UnivariatePoly([GaussianRational(Fraction(cr * lr + ci * li, n),
                                            Fraction(ci * lr - cr * li, n))
                           for cr, ci in p])


def _gaussian_gcd(a, b):
    """A gcd in Z[i] of the pairs a and b, up to a unit (Euclid with the
    rounded quotient, which at least halves the norm each step)."""
    ar, ai = a
    br, bi = b
    while br or bi:
        n = br * br + bi * bi
        # a / b = a * conj(b) / |b|^2, each part rounded to the nearest int
        qr = (2 * (ar * br + ai * bi) + n) // (2 * n)
        qi = (2 * (ai * br - ar * bi) + n) // (2 * n)
        ar, ai, br, bi = br, bi, ar - qr * br + qi * bi, ai - qr * bi - qi * br
    return ar, ai


def _gaussian_quotient(a, b):
    """a / b in Z[i]; ValueError when b does not divide a."""
    ar, ai = a
    br, bi = b
    if bi:
        ar, ai, br = ar * br + ai * bi, ai * br - ar * bi, br * br + bi * bi
    qr, rr = divmod(ar, br)
    qi, ri = divmod(ai, br)
    if rr or ri:
        raise ValueError("exact_divide: nonzero remainder")
    return qr, qi


def _primitive(p):
    """p divided by its content, a gcd in Z[i] of its coefficients.

    With every imaginary part zero the content is the math.gcd of the real
    parts; otherwise the rational-integer content comes off first and the
    Gaussian gcd of what is left (say 1+i in (1+i)z + 2) after it.
    """
    g = gcd(*(v for c in p for v in c))
    if g != 1:
        p = [(cr // g, ci // g) for cr, ci in p]
    if not any(ci for _, ci in p):
        return p
    u = (0, 0)
    for c in p:
        u = _gaussian_gcd(c, u)
        if u[0] * u[0] + u[1] * u[1] == 1:
            return p
    return [_gaussian_quotient(c, u) for c in p]


def _derivative(p):
    return [(k * cr, k * ci) for k, (cr, ci) in enumerate(p[1:], 1)]


def _subtract(a, b):
    if len(a) < len(b):
        a = a + [(0, 0)] * (len(b) - len(a))
    out = list(a)
    for k, (br, bi) in enumerate(b):
        ar, ai = out[k]
        out[k] = (ar - br, ai - bi)
    while out and out[-1] == (0, 0):
        out.pop()
    return out


def _pseudo_remainder(a, b):
    """lc(b)^k * a mod b, one factor lc(b) per reduction step, so that no
    step divides."""
    br, bi = b[-1]
    db = len(b) - 1
    r = list(a)
    while len(r) > db:
        cr, ci = r.pop()
        s = len(r) - db
        # r <- lc(b) * r - lc(r) * z^s * b, the leading terms cancelling
        r = [(br * xr - bi * xi, br * xi + bi * xr) for xr, xi in r]
        for j in range(db):
            yr, yi = b[j]
            xr, xi = r[s + j]
            r[s + j] = (xr - cr * yr + ci * yi, xi - cr * yi - ci * yr)
        while r and r[-1] == (0, 0):
            r.pop()
    return r


def _prs_gcd(a, b):
    """Primitive gcd of two int polynomials, not both zero, up to a unit:
    the primitive pseudo-remainder sequence."""
    if len(a) < len(b):
        a, b = b, a
    a = _primitive(a)
    while b:
        if len(b) == 1:
            return [(1, 0)]
        b = _primitive(b)
        a, b = b, _pseudo_remainder(a, b)
    return a


def _quotient(a, b):
    """a / b for int polynomials with b | a over Z[i]; ValueError otherwise."""
    db = len(b) - 1
    lead = b[-1]
    r = list(a)
    q = [(0, 0)] * max(0, len(a) - db)
    for k in range(len(a) - 1 - db, -1, -1):
        qr, qi = q[k] = _gaussian_quotient(r[k + db], lead)
        for j in range(db):
            yr, yi = b[j]
            xr, xi = r[k + j]
            r[k + j] = (xr - qr * yr + qi * yi, xi - qr * yi - qi * yr)
    if any(v for c in r[:db] for v in c):
        raise ValueError("exact_divide: nonzero remainder")
    return q


_HEURISTIC_TRIES = 6


def _xi_adic_digits(h: int, xi: int):
    """The digits of h in base xi, ascending, each in the symmetric range
    -xi/2 < d <= xi/2."""
    digits = []
    while h:
        d = h % xi
        if 2 * d > xi:
            d -= xi
        digits.append(d)
        h = (h - d) // xi
    return digits


def _heuristic_gcd(a, b):
    """(g, a/g, b/g) for nonzero int polynomials with zero imaginary parts,
    g primitive with a positive leading coefficient; None if every try fails.

    GCDHEU (Char, Geddes & Gonnet 1989): gamma = gcd(a(xi), b(xi)) over Z,
    with the common integer content of a and b divided out, is lifted back
    to the polynomial whose xi-adic digits in the symmetric range are those
    of gamma.  For xi >= 2*min(|a|_inf, |b|_inf) + 2 their theorem makes the
    primitive part of that polynomial the gcd whenever it divides both a and
    b, so a result is returned only after both exact divisions, whose
    quotients are the cofactors.  A failed try grows xi by 73794/27011.
    gamma is never 0: the roots of the input of smaller norm N have modulus
    below N + 1 < xi.
    """
    ra = [c for c, _ in a]
    rb = [c for c, _ in b]
    content = gcd(*ra, *rb)
    xi = 2 * min(max(map(abs, ra)), max(map(abs, rb))) + 2
    for _ in range(_HEURISTIC_TRIES):
        va = vb = 0
        for c in reversed(ra):
            va = va * xi + c
        for c in reversed(rb):
            vb = vb * xi + c
        digits = _xi_adic_digits(gcd(va, vb) // content, xi)
        g = gcd(*digits)
        if digits[-1] < 0:
            g = -g
        g = [(d // g, 0) for d in digits]
        try:
            return g, _quotient(a, g), _quotient(b, g)
        except ValueError:
            xi = xi * 73794 // 27011
    return None


def _gcd_cofactors(a, b):
    """(g, a/g, b/g) for int polynomials a, b, not both zero, with g a
    primitive gcd: the primitive part of the other when one is zero, GCDHEU
    when every imaginary part is zero, otherwise or after the heuristic
    fails the primitive pseudo-remainder sequence."""
    if a and b and not any(ci for p in (a, b) for _, ci in p):
        found = _heuristic_gcd(a, b)
        if found:
            return found
    g = _prs_gcd(a, b) if a and b else _primitive(a or b)
    return g, _quotient(a, g), _quotient(b, g)


def poly_gcd(a: UnivariatePoly, b: UnivariatePoly) -> UnivariatePoly:
    """Monic gcd; the zero polynomial when a and b are both zero.

    Each argument is scaled once to integer numerators over Z[i].  With
    every imaginary part zero the gcd is GCDHEU's, checked by exact
    division; with a non-real coefficient, or when the heuristic fails, it
    is the last nonzero term of the primitive pseudo-remainder sequence,
    each remainder divided by its Gaussian content.  It is made monic at
    the end.
    """
    if a.is_zero() and b.is_zero():
        return a
    g, _, _ = _gcd_cofactors(_numerators(a.coeffs), _numerators(b.coeffs))
    return _monic_poly(g)


def exact_divide(a: UnivariatePoly, b: UnivariatePoly) -> UnivariatePoly:
    """a / b when b divides a exactly; ValueError on a nonzero remainder.

    Runs on integer numerators: A = L*a divided by the primitive part B of
    b is integral by Gauss's lemma, and A/B scaled to the leading
    coefficient lc(a)/lc(b) is a/b.
    """
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if a.is_zero():
        return a
    q = _quotient(_numerators(a.coeffs), _primitive(_numerators(b.coeffs)))
    return _monic_poly(q).scale(a.coeffs[-1] / b.coeffs[-1])


def squarefree_decomposition(p: UnivariatePoly):
    """Yun's algorithm: returns [(factor, multiplicity)] with factors squarefree.

    The product of factor^multiplicity equals p up to a constant; each
    factor is monic and the multiplicities increase.  p is scaled once to
    a primitive polynomial P with Gaussian-integer coefficients, and Yun's
    loop runs on P over Z[i].  Each step takes one gcd and its two exact
    cofactors from _gcd_cofactors: GCDHEU on a real P, the primitive
    pseudo-remainder gcd on a non-real P or after the heuristic fails.  The
    gcds are primitive, so the cofactors stay in Z[i].  Yun's d_i are not
    made primitive: c_i and d_i are always divided by the same gcd, so that
    d_i - c_i' keeps the derivative relation at c_i's own scale.  Each
    factor is made monic at the end.  Characteristic zero only.
    """
    if p.is_zero():
        raise IdenticallyZeroError("squarefree decomposition of zero")
    if p.degree == 0:
        return []
    f = _primitive(_numerators(p.coeffs))
    _, c, d = _gcd_cofactors(f, _derivative(f))
    d = _subtract(d, _derivative(c))
    out = []
    m = 1
    while len(c) > 1:
        a, c, d = _gcd_cofactors(c, d)
        if len(a) > 1:
            out.append((_monic_poly(a), m))
        d = _subtract(d, _derivative(c))
        m += 1
    return out


# ---------------------------------------------------------------------------
# bivariate
# ---------------------------------------------------------------------------

class BivariatePoly:
    """Polynomial in x, y as a support map {(m, n): coefficient}.

    Canonical: no zero coefficients stored, exponents nonnegative.  The
    support iteration order is lexicographic in (m, n) so printing and
    hashing are deterministic.
    """

    __slots__ = ("support",)

    def __init__(self, support=None):
        cleaned = {}
        for (m, n), c in (support or {}).items():
            if m < 0 or n < 0:
                raise ValueError("negative exponent in bivariate support")
            cc = _coeff(c)
            if not cc.is_zero():
                cleaned[(int(m), int(n))] = cc
        object.__setattr__(self, "support", cleaned)

    def __setattr__(self, name, value):
        raise AttributeError("BivariatePoly is immutable")

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def monomial(cls, m: int, n: int, coeff=1):
        return cls({(m, n): coeff})

    @classmethod
    def variable(cls, name: str):
        if name == "x":
            return cls.monomial(1, 0)
        if name == "y":
            return cls.monomial(0, 1)
        raise ValueError("variable must be 'x' or 'y'")

    def is_zero(self) -> bool:
        return not self.support

    def sorted_items(self):
        return sorted(self.support.items(), key=lambda kv: kv[0])

    def __eq__(self, other):
        return isinstance(other, BivariatePoly) and self.support == other.support

    def __hash__(self):
        return hash(tuple(self.sorted_items()))

    def __add__(self, other):
        out = dict(self.support)
        for k, c in other.support.items():
            out[k] = out.get(k, ZERO) + c
        return BivariatePoly(out)

    def __neg__(self):
        return BivariatePoly({k: -c for k, c in self.support.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, BivariatePoly):
            out = {}
            for (m1, n1), a in self.support.items():
                for (m2, n2), b in other.support.items():
                    k = (m1 + m2, n1 + n2)
                    out[k] = out.get(k, ZERO) + a * b
            return BivariatePoly(out)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, scalar):
        s = _coeff(scalar)
        return BivariatePoly({k: c * s for k, c in self.support.items()})

    def __pow__(self, k: int):
        out = BivariatePoly({(0, 0): 1})
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def derivative(self, var: str) -> "BivariatePoly":
        out = {}
        for (m, n), c in self.support.items():
            if var == "x" and m > 0:
                out[(m - 1, n)] = out.get((m - 1, n), ZERO) + c * m
            elif var == "y" and n > 0:
                out[(m, n - 1)] = out.get((m, n - 1), ZERO) + c * n
        return BivariatePoly(out)

    def evaluate(self, x, y) -> GaussianRational:
        xx, yy = _coeff(x), _coeff(y)
        acc = GaussianRational(0)
        for (m, n), c in self.sorted_items():
            acc = acc + c * (xx ** m) * (yy ** n)
        return acc

    def restrict_x_axis(self) -> UnivariatePoly:
        """F(x, 0) as a univariate polynomial in x."""
        if not self.support:
            return UnivariatePoly()
        out = [ZERO] * (1 + max(m for (m, n) in self.support))
        for (m, n), c in self.support.items():
            if n == 0:
                out[m] = c
        return UnivariatePoly(out)

    def restrict_y_axis(self) -> UnivariatePoly:
        """F(0, y) as a univariate polynomial in y."""
        if not self.support:
            return UnivariatePoly()
        out = [ZERO] * (1 + max(n for (m, n) in self.support))
        for (m, n), c in self.support.items():
            if m == 0:
                out[n] = c
        return UnivariatePoly(out)

    def total_degree(self) -> int:
        if not self.support:
            return -1
        return max(m + n for (m, n) in self.support)

    def __str__(self):
        if not self.support:
            return "0"
        parts = []
        for (m, n), c in self.sorted_items():
            mono = []
            if m:
                mono.append("x" if m == 1 else f"x^{m}")
            if n:
                mono.append("y" if n == 1 else f"y^{n}")
            mtxt = "*".join(mono) if mono else "1"
            parts.append(f"({c})*{mtxt}")
        return " + ".join(parts)

    def __repr__(self):
        return f"BivariatePoly({{{', '.join(f'{k}: {c}' for k, c in self.sorted_items())}}})"


# ---------------------------------------------------------------------------
# holomorphic-plus-radial functions
# ---------------------------------------------------------------------------

class MixedFunction:
    """F(x, y) = holo(x, y) + radial_coeff * |xy|^(nu/2) with nu odd.

    On a fiber xy = t with t > 0 the radial term collapses to the constant
    radial_coeff * t^(nu/2), which stays exact whenever t has an exact
    rational square root.  On the axes it vanishes.
    """

    __slots__ = ("holo", "radial_coeff", "radial_half_exp")

    def __init__(self, holo: BivariatePoly, radial_coeff=0, radial_half_exp: int = 1):
        if radial_half_exp % 2 == 0:
            raise ValueError("radial exponent nu must be odd (term |xy|^(nu/2))")
        object.__setattr__(self, "holo", holo)
        object.__setattr__(self, "radial_coeff", _coeff(radial_coeff))
        object.__setattr__(self, "radial_half_exp", int(radial_half_exp))

    def __setattr__(self, name, value):
        raise AttributeError("MixedFunction is immutable")

    def is_holomorphic(self) -> bool:
        return self.radial_coeff.is_zero()

    def __eq__(self, other):
        if not isinstance(other, MixedFunction):
            return NotImplemented
        if self.radial_coeff.is_zero() and other.radial_coeff.is_zero():
            return self.holo == other.holo
        return (self.holo == other.holo
                and self.radial_coeff == other.radial_coeff
                and self.radial_half_exp == other.radial_half_exp)

    def __hash__(self):
        return hash((self.holo, self.radial_coeff, self.radial_half_exp))

    def evaluate(self, x, y) -> GaussianRational:
        """Exact evaluation; needs |xy| to have an exact rational square root."""
        val = self.holo.evaluate(x, y)
        if self.radial_coeff.is_zero():
            return val
        xx, yy = _coeff(x), _coeff(y)
        prod = xx * yy
        if not prod.is_real():
            raise ValueError("exact evaluation needs x*y real (|xy| rational)")
        mag = GaussianRational(abs(prod.re))
        root = mag.exact_sqrt()
        return val + self.radial_coeff * root ** self.radial_half_exp

    def __str__(self):
        if self.radial_coeff.is_zero():
            return str(self.holo)
        return (f"{self.holo} + ({self.radial_coeff})*"
                f"|xy|^({self.radial_half_exp}/2)")


def as_mixed(f) -> MixedFunction:
    if isinstance(f, MixedFunction):
        return f
    if isinstance(f, BivariatePoly):
        return MixedFunction(f)
    raise TypeError("expected BivariatePoly or MixedFunction")


# ---------------------------------------------------------------------------
# fiber restriction: Laurent normal forms
# ---------------------------------------------------------------------------

class LaurentForm:
    """N(x)/x^d + const: the restriction of F to the graph y = t/x.

    Normalized so x does not divide N when N is nonzero and d > 0; d = 0
    means the restriction is a polynomial.  The additive constant comes from
    the radial term of a MixedFunction and is kept exact.
    """

    __slots__ = ("numerator", "pole_order", "constant", "t")

    def __init__(self, numerator: UnivariatePoly, pole_order: int,
                 constant=0, t=None):
        constant = _coeff(constant)
        # strip common powers of x between numerator and pole
        if not numerator.is_zero() and pole_order > 0:
            v = numerator.valuation()
            shift = min(v, pole_order)
            if shift:
                numerator = UnivariatePoly(numerator.coeffs[shift:])
                pole_order -= shift
        if numerator.is_zero():
            pole_order = 0
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "pole_order", int(pole_order))
        object.__setattr__(self, "constant", constant)
        object.__setattr__(self, "t", t)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentForm is immutable")

    def is_zero(self) -> bool:
        return self.numerator.is_zero() and self.constant.is_zero()

    def combined_numerator(self) -> UnivariatePoly:
        """N(x) + const * x^d, so the function is (that)/x^d."""
        if self.constant.is_zero():
            return self.numerator
        return self.numerator + UnivariatePoly.monomial(self.pole_order, self.constant)

    def evaluate(self, x) -> GaussianRational:
        xx = _coeff(x)
        if self.pole_order and xx.is_zero():
            raise ZeroDivisionError("evaluation at the pole x = 0")
        val = self.numerator.evaluate(xx)
        if self.pole_order:
            val = val / xx ** self.pole_order
        return val + self.constant

    def __eq__(self, other):
        if not isinstance(other, LaurentForm):
            return NotImplemented
        return (self.combined_numerator() == other.combined_numerator()
                and self.pole_order == other.pole_order)

    def __str__(self):
        base = f"({self.numerator.to_str('x')})"
        if self.pole_order:
            base += f" / x^{self.pole_order}"
        if not self.constant.is_zero():
            base += f" + ({self.constant})"
        return base


def substitute_fiber(f, t, s=None) -> LaurentForm:
    """Laurent normal form of x -> F(x, t/x) on the fiber xy = t.

    t is any nonzero scalar accepted by exact_param; a float or complex t
    is taken at its exact binary value, so every t has one exact form.
    For a MixedFunction the radial term needs t > 0 with an exact square
    root: pass s explicitly (s^2 = t) or let it be extracted when t is a
    perfect rational square.  t = 0 is rejected; the central fiber is the
    axis pair and is handled by the axis restrictions.
    """
    tt = exact_param(t)
    if tt.is_zero():
        raise ValueError("t = 0: the central fiber is not a graph; "
                         "use the axis restrictions instead")
    f = as_mixed(f)
    constant = ZERO
    if not f.radial_coeff.is_zero():
        if not tt.is_real() or tt.re <= 0:
            raise ValueError("radial term needs t to be a positive real")
        if s is not None:
            ss = exact_param(s)
            if not ss.is_real() or ss.re <= 0 or ss * ss != tt:
                raise ValueError("s must be a positive exact scalar with s^2 = t")
        else:
            try:
                ss = tt.exact_sqrt()
            except ValueError as e:
                raise ValueError(f"radial term needs an exact square root of "
                                 f"t = {t} ({e}); pass s with s^2 = t") from None
        constant = f.radial_coeff * ss ** f.radial_half_exp

    # group x^m y^n -> t^n x^(m-n) by the exponent m-n, on Gaussian-integer
    # numerators: with F = G/L and t = u/d, the coefficient of x^e is
    # sum over m - n = e of G_mn u^n d^(top-n), over the one denominator L d^top
    support = f.holo.support
    values = list(support.values())
    top = max((n for _, n in support), default=0)
    d = _common_denominator([tt])
    u = tt * d
    u_re, u_im = int(u.re), int(u.im)
    u_pows, d_pows = [(1, 0)], [1]
    for _ in range(top):
        a, b = u_pows[-1]
        u_pows.append((a * u_re - b * u_im, a * u_im + b * u_re))
        d_pows.append(d_pows[-1] * d)
    by_exp = {}
    for (m, n), (g_re, g_im) in zip(support, _numerators(values)):
        a, b = u_pows[n]
        w = d_pows[top - n]
        acc_re, acc_im = by_exp.get(m - n, (0, 0))
        by_exp[m - n] = (acc_re + (g_re * a - g_im * b) * w,
                         acc_im + (g_re * b + g_im * a) * w)
    by_exp = {e: c for e, c in by_exp.items() if c != (0, 0)}
    if not by_exp:
        return LaurentForm(UnivariatePoly(), 0, constant, t=tt)
    den = _common_denominator(values) * d_pows[top]
    shift = max(0, -min(by_exp))
    coeffs = [ZERO] * (max(by_exp) + shift + 1)
    for e, (c_re, c_im) in by_exp.items():
        coeffs[e + shift] = GaussianRational(Fraction(c_re, den), Fraction(c_im, den))
    return LaurentForm(UnivariatePoly(coeffs), shift, constant, t=tt)


# ---------------------------------------------------------------------------
# orders of vanishing
# ---------------------------------------------------------------------------

def vanishing_order(f, point) -> int:
    """Exact order of vanishing at an exact point; 0 if f(point) != 0.

    Accepts a UnivariatePoly or a LaurentForm (point nonzero in that case).
    Denominators are cleared once: for point = u/d with u a Gaussian integer
    and P of degree N, R(w) = L * d^N * P(w/d) has integer coefficients and
    its order at w = u is the order of P at the point; that order is found by
    repeated synthetic division by (w - u) on plain ints.  Raises
    IdenticallyZeroError for the zero function.
    """
    p = GaussianRational.coerce(point)
    if isinstance(f, LaurentForm):
        if p.is_zero():
            raise ValueError("Laurent forms are evaluated away from x = 0")
        poly = f.combined_numerator()
    elif isinstance(f, UnivariatePoly):
        poly = f
    else:
        raise TypeError("expected UnivariatePoly or LaurentForm")
    if poly.is_zero():
        raise IdenticallyZeroError("order of vanishing of the zero function")

    d = lcm(p.re.denominator, p.im.denominator)
    # descending coefficients of R: L * c_k * d^(N - k) for k = N..0
    re_desc, im_desc = [], []
    dpow = 1
    for c_re, c_im in reversed(_numerators(poly.coeffs)):
        re_desc.append(c_re * dpow)
        im_desc.append(c_im * dpow)
        dpow *= d
    u_re, u_im = int(p.re * d), int(p.im * d)
    if not u_im and not any(im_desc):
        return _int_order(re_desc, u_re)
    return _gaussian_int_order(re_desc, im_desc, u_re, u_im)


def _int_order(desc, u: int) -> int:
    """Order at w = u of the nonzero int polynomial with descending coefficients desc."""
    order = 0
    while True:
        acc, quotient = 0, []
        for c in desc:
            acc = acc * u + c
            quotient.append(acc)
        if quotient.pop():
            return order
        desc = quotient
        order += 1


def _gaussian_int_order(re_desc, im_desc, u_re: int, u_im: int) -> int:
    """_int_order over Z[i], coefficients split into real and imaginary lists."""
    order = 0
    while True:
        a_re = a_im = 0
        q_re, q_im = [], []
        for c_re, c_im in zip(re_desc, im_desc):
            a_re, a_im = (a_re * u_re - a_im * u_im + c_re,
                          a_re * u_im + a_im * u_re + c_im)
            q_re.append(a_re)
            q_im.append(a_im)
        if q_re.pop() or q_im.pop():
            return order
        re_desc, im_desc = q_re, q_im
        order += 1


def divides_power(p: UnivariatePoly, root, m: int) -> bool:
    """True iff (z - root)^m divides p exactly (m = 0 is vacuous)."""
    if m == 0:
        return True
    if p.is_zero():
        return True
    try:
        return vanishing_order(p, root) >= m
    except IdenticallyZeroError:
        return True
