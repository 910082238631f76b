"""Exact polynomial and Laurent algebra over Gaussian rationals.

A polynomial stores one int denominator den > 0 and Gaussian-integer
numerators, (re, im) pairs of ints, with gcd(den, all numerator parts) = 1
and no zero stored at the top, so equal polynomials store equal ints and
all arithmetic runs on them.  Fiber restriction along the family xy = t
produces Laurent normal forms N(x)/x^d.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, chain, count
from math import gcd, lcm

from .rationals import GaussianRational, ZERO, exact_param, _int_pair, _power


class IdenticallyZeroError(ValueError):
    """Raised where an operation needs a function that is not identically zero."""


def _text(f) -> str:
    """str() of a polynomial or MixedFunction: the canonical text that
    parse_expression reads back (expressions imports this module)."""
    from .expressions import format_function
    return format_function(f)


def _scalar(c, den) -> GaussianRational:
    """The Gaussian rational c/den for a numerator pair c."""
    return GaussianRational(Fraction(c[0], den), Fraction(c[1], den) if c[1] else 0)


def _times(nums, u):
    """Each numerator pair of nums times the Gaussian integer u = (re, im)."""
    ur, ui = u
    return [(cr * ur - ci * ui, cr * ui + ci * ur) for cr, ci in nums]


# ---------------------------------------------------------------------------
# univariate
# ---------------------------------------------------------------------------

class UnivariatePoly:
    """Polynomial in one variable: coefficient k is nums[k]/den.

    Built from Gaussian-rational coefficients, ascending; coeffs and
    coefficient(k) give them back.
    """

    __slots__ = ("den", "nums")

    def __new__(cls, coeffs=()):
        parts = [_int_pair(c) for c in coeffs]
        den = lcm(*(d for _, _, d in parts))
        return cls._from_ints([(p * (den // d), r * (den // d)) for p, r, d in parts], den)

    @classmethod
    def _from_ints(cls, nums, den=1):
        """The polynomial with coefficients nums[k]/den, den > 0, in canonical
        form: trailing zeros stripped and the common gcd divided out."""
        n = len(nums)
        while n and nums[n - 1] == (0, 0):
            n -= 1
        g = gcd(den, *chain.from_iterable(nums[:n])) if den != 1 else 1
        self = object.__new__(cls)
        object.__setattr__(self, "den", den // g)
        object.__setattr__(self, "nums", tuple(
            nums[:n] if g == 1 else [(cr // g, ci // g) for cr, ci in nums[:n]]))
        return self

    def __setattr__(self, name, value):
        raise AttributeError("UnivariatePoly is immutable")

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def monomial(cls, exponent: int, coeff=1):
        if exponent < 0:
            raise ValueError("exponent must be nonnegative")
        p, r, d = _int_pair(coeff)
        return cls._from_ints([(0, 0)] * exponent + [(p, r)], d)

    def is_zero(self) -> bool:
        return not self.nums

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.nums) - 1

    @property
    def coeffs(self) -> tuple:
        """The Gaussian-rational coefficients, ascending."""
        return tuple(_scalar(c, self.den) for c in self.nums)

    def valuation(self) -> int:
        """Lowest exponent with a nonzero coefficient (order of vanishing at 0)."""
        for k, c in enumerate(self.nums):
            if c != (0, 0):
                return k
        raise IdenticallyZeroError("valuation of the zero polynomial")

    def coefficient(self, k: int) -> GaussianRational:
        if 0 <= k < len(self.nums):
            return _scalar(self.nums[k], self.den)
        return ZERO

    def __eq__(self, other):
        return (isinstance(other, UnivariatePoly) and self.den == other.den
                and self.nums == other.nums)

    def __hash__(self):
        return hash((self.den, self.nums))

    def _combine(self, other, sign: int):
        """self + sign * other."""
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, sign * (den // other.den)
        out = _times(self.nums, (fa, 0))
        out += [(0, 0)] * (len(other.nums) - len(out))
        for k, (br, bi) in enumerate(other.nums):
            ar, ai = out[k]
            out[k] = (ar + br * fb, ai + bi * fb)
        return UnivariatePoly._from_ints(out, den)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return self.scale(-1)

    def __mul__(self, other):
        if not isinstance(other, UnivariatePoly):
            return self.scale(other)
        re = [0] * (len(self.nums) + len(other.nums) - 1)
        im = [0] * len(re)
        for i, (ar, ai) in enumerate(self.nums):
            for j, (br, bi) in enumerate(other.nums, i):
                re[j] += ar * br - ai * bi
                im[j] += ar * bi + ai * br
        return UnivariatePoly._from_ints(list(zip(re, im)), self.den * other.den)

    __rmul__ = __mul__

    def scale(self, scalar):
        p, r, d = _int_pair(scalar)
        return UnivariatePoly._from_ints(_times(self.nums, (p, r)), self.den * d)

    def __pow__(self, k: int):
        return _power(self, k, UnivariatePoly.monomial(0))

    def derivative(self) -> "UnivariatePoly":
        return UnivariatePoly._from_ints(
            [(k * cr, k * ci) for k, (cr, ci) in enumerate(self.nums[1:], 1)], self.den)

    def evaluate(self, z) -> GaussianRational:
        """Exact Horner evaluation at a Gaussian-rational point."""
        zz, acc = exact_param(z), ZERO
        for c in reversed(self.coeffs):
            acc = acc * zz + c
        return acc

    def monic(self) -> "UnivariatePoly":
        return _monic_poly(self.nums) if self.nums else self

    __str__ = _text

    def __repr__(self):
        return f"UnivariatePoly({[str(c) for c in self.coeffs]})"


# ---------------------------------------------------------------------------
# gcd and squarefree decomposition on Gaussian-integer numerators
# ---------------------------------------------------------------------------
# Inside this section a polynomial is a sequence of ascending coefficients,
# each a Gaussian integer stored as an (re, im) pair of ints, with a nonzero
# last entry (empty is zero): the nums of a UnivariatePoly, or a list.
# Z[i] is a Euclidean domain, so Gauss's lemma holds: a primitive
# polynomial that divides an integral one over Q(i) divides it over Z[i].
# Every gcd goes through _gcd_cofactors: the heuristic gcd
# GCDHEU (Char, Geddes & Gonnet 1989) when all imaginary parts are zero,
# evaluated at a power of two by shifts and checked by long division on
# plain ints, and the primitive pseudo-remainder sequence (Collins 1967;
# Brown & Traub 1971) when some coefficient is non-real or every heuristic
# try fails.

def _monic_poly(p) -> UnivariatePoly:
    """The monic UnivariatePoly p * conj(lc) / |lc|^2 for a nonzero int polynomial p."""
    lr, li = p[-1]
    return UnivariatePoly._from_ints(_times(p, (lr, -li)), lr * lr + li * li)


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


def _pack(p, k: int) -> int:
    """p(2^k) for an int polynomial p (plain ints, ascending): Horner's rule
    by shifts."""
    v = 0
    for c in reversed(p):
        v = (v << k) + c
    return v


def _lift(h: int, k: int):
    """The int polynomial, ascending with no trailing zero, whose value at
    2^k is h and whose coefficients lie in -2^(k-1) < d <= 2^(k-1): the
    base-2^k digits of h in the symmetric range, by mask and shift."""
    mask, half = (1 << k) - 1, 1 << (k - 1)
    digits = []
    while h:
        d = h & mask
        h >>= k
        if d > half:
            # d - 2^k is the digit, and the 2^k it lends is carried up
            d -= mask + 1
            h += 1
        digits.append(d)
    return digits


def _int_quotient(a, b):
    """a / b for int polynomials (plain ints, ascending) when b divides a
    over Z; None otherwise."""
    db = len(b) - 1
    lead = b[-1]
    r = list(a)
    q = [0] * max(0, len(a) - db)
    for k in range(len(a) - 1 - db, -1, -1):
        c, rem = divmod(r[k + db], lead)
        if rem:
            return None
        q[k] = c
        if c:
            r[k:k + db] = [x - c * y for x, y in zip(r[k:k + db], b)]
    return None if any(r[:db]) else q


def _heuristic_gcd(a, b):
    """(g, a/g, b/g) for nonzero int polynomials with zero imaginary parts,
    g primitive with a positive leading coefficient; None if every try fails.

    GCDHEU (Char, Geddes & Gonnet 1989) at a power of two xi = 2^k:
    gamma = gcd(a(xi), b(xi)) over Z, with the common integer content of a
    and b divided out, is lifted back to the polynomial whose base-xi digits
    in the symmetric range are those of gamma.  For xi >= 2*min(|a|_inf,
    |b|_inf) + 2 their theorem makes the primitive part of that polynomial
    the gcd whenever it divides both a and b, so a result is returned only
    after both exact divisions over Z, whose quotients are the cofactors.
    The first xi is the smallest such power of two; a failed try multiplies
    it by 4.  gamma is never 0: the roots of the input of smaller norm N
    have modulus below N + 1 < xi.
    """
    ra = [c for c, _ in a]
    rb = [c for c, _ in b]
    content = gcd(*ra, *rb)
    # the smallest 2^k >= 2*min(|a|_inf, |b|_inf) + 2
    k = (2 * min(max(map(abs, ra)), max(map(abs, rb))) + 1).bit_length()
    for _ in range(_HEURISTIC_TRIES):
        digits = _lift(gcd(_pack(ra, k), _pack(rb, k)) // content, k)
        g = gcd(*digits)
        if digits[-1] < 0:
            g = -g
        g = [d // g for d in digits]
        ca = _int_quotient(ra, g)
        cb = None if ca is None else _int_quotient(rb, g)
        if cb is not None:
            return [(c, 0) for c in g], [(c, 0) for c in ca], [(c, 0) for c in cb]
        k += 2
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

    It runs on the integer numerators over Z[i].  With every imaginary
    part zero the gcd is GCDHEU's, checked by exact division; with a
    non-real coefficient, or when the heuristic fails, it is the last
    nonzero term of the primitive pseudo-remainder sequence, each remainder
    divided by its Gaussian content.  It is made monic at the end.
    """
    if a.is_zero() and b.is_zero():
        return a
    g, _, _ = _gcd_cofactors(a.nums, b.nums)
    return _monic_poly(g)


def exact_divide(a: UnivariatePoly, b: UnivariatePoly) -> UnivariatePoly:
    """a / b when b divides a exactly; ValueError on a nonzero remainder.

    Runs on the integer numerators A and B of a and b: A divided by the
    primitive part of B is integral by Gauss's lemma, and scaled by the
    leading coefficients and denominators it is a/b.
    """
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    pb = _primitive(b.nums)
    q = _quotient(a.nums, pb)
    # B = (lc(B)/lc(pb)) * pb, so a/b = (A/da) / (B/db) = q * lc(pb) * db / (lc(B) * da)
    (pr, pi), (br, bi) = pb[-1], b.nums[-1]
    s = ((pr * br + pi * bi) * b.den, (pi * br - pr * bi) * b.den)
    return UnivariatePoly._from_ints(_times(q, s), (br * br + bi * bi) * a.den)


def squarefree_decomposition(p: UnivariatePoly):
    """Yun's algorithm: returns [(factor, multiplicity)] with factors squarefree.

    The product of factor^multiplicity equals p up to a constant; each
    factor is monic and the multiplicities increase.  The primitive part P
    of p's Gaussian-integer numerators is taken once, and Yun's
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
    f = _primitive(p.nums)
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
    """Polynomial in x, y: the coefficient of x^m y^n is terms[(m, n)]/den.

    Built from a support map {(m, n): coefficient} with nonnegative
    exponents; support and sorted_items() give the Gaussian-rational
    coefficients back, sorted_items() in lexicographic (m, n) order so that
    printing is deterministic.
    """

    __slots__ = ("den", "terms")

    def __new__(cls, support=None):
        parts = {}
        for (m, n), c in (support or {}).items():
            if m < 0 or n < 0:
                raise ValueError("negative exponent in bivariate support")
            parts[(int(m), int(n))] = _int_pair(c)
        den = lcm(*(d for _, _, d in parts.values()))
        return cls._from_ints(
            {k: (p * (den // d), r * (den // d)) for k, (p, r, d) in parts.items()}, den)

    @classmethod
    def _from_ints(cls, terms, den=1):
        """The polynomial with coefficients terms[(m, n)]/den, den > 0, in
        canonical form: zero terms dropped and the common gcd divided out."""
        terms = {k: c for k, c in terms.items() if c != (0, 0)}
        g = gcd(den, *chain.from_iterable(terms.values())) if den != 1 else 1
        if g != 1:
            terms = {k: (cr // g, ci // g) for k, (cr, ci) in terms.items()}
        self = object.__new__(cls)
        object.__setattr__(self, "den", den // g)
        object.__setattr__(self, "terms", terms)
        return self

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
        return not self.terms

    @property
    def support(self) -> dict:
        """The map {(m, n): Gaussian-rational coefficient}."""
        return {k: _scalar(c, self.den) for k, c in self.terms.items()}

    def sorted_items(self):
        return [(k, _scalar(self.terms[k], self.den)) for k in sorted(self.terms)]

    def __eq__(self, other):
        return (isinstance(other, BivariatePoly) and self.den == other.den
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.den, frozenset(self.terms.items())))

    def _combine(self, other, sign: int):
        """self + sign * other."""
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, sign * (den // other.den)
        out = {k: (cr * fa, ci * fa) for k, (cr, ci) in self.terms.items()}
        for k, (br, bi) in other.terms.items():
            ar, ai = out.get(k, (0, 0))
            out[k] = (ar + br * fb, ai + bi * fb)
        return BivariatePoly._from_ints(out, den)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return self.scale(-1)

    def __mul__(self, other):
        if not isinstance(other, BivariatePoly):
            return self.scale(other)
        a, b = self.terms.items(), other.terms.items()
        out = {}
        for (m1, n1), (ar, ai) in a:
            for (m2, n2), (br, bi) in b:
                k = (m1 + m2, n1 + n2)
                cr, ci = out.get(k, (0, 0))
                out[k] = (cr + ar * br - ai * bi, ci + ar * bi + ai * br)
        return BivariatePoly._from_ints(out, self.den * other.den)

    __rmul__ = __mul__

    def scale(self, scalar):
        p, r, d = _int_pair(scalar)
        return BivariatePoly._from_ints(
            dict(zip(self.terms, _times(self.terms.values(), (p, r)))), self.den * d)

    def __pow__(self, k: int):
        return _power(self, k, BivariatePoly.monomial(0, 0))

    def derivative(self, var: str) -> "BivariatePoly":
        out = {}
        for (m, n), (cr, ci) in self.terms.items():
            if var == "x" and m > 0:
                out[(m - 1, n)] = (cr * m, ci * m)
            elif var == "y" and n > 0:
                out[(m, n - 1)] = (cr * n, ci * n)
        return BivariatePoly._from_ints(out, self.den)

    def evaluate(self, x, y) -> GaussianRational:
        xx, yy = exact_param(x), exact_param(y)
        acc = GaussianRational(0)
        for (m, n), c in self.sorted_items():
            acc = acc + c * (xx ** m) * (yy ** n)
        return acc

    def _on_axis(self, i: int) -> UnivariatePoly:
        """The terms whose other exponent is 0, in the exponent at index i."""
        on = {k[i]: c for k, c in self.terms.items() if not k[1 - i]}
        out = [(0, 0)] * (1 + max(on, default=-1))
        for e, c in on.items():
            out[e] = c
        return UnivariatePoly._from_ints(out, self.den)

    def restrict_x_axis(self) -> UnivariatePoly:
        """F(x, 0) as a univariate polynomial in x."""
        return self._on_axis(0)

    def restrict_y_axis(self) -> UnivariatePoly:
        """F(0, y) as a univariate polynomial in y."""
        return self._on_axis(1)

    def total_degree(self) -> int:
        return max((m + n for (m, n) in self.terms), default=-1)

    __str__ = _text

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
        object.__setattr__(self, "radial_coeff", exact_param(radial_coeff))
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
        if self.radial_coeff.is_zero():   # as in __eq__, the exponent is moot
            return hash(self.holo)
        return hash((self.holo, self.radial_coeff, self.radial_half_exp))

    def evaluate(self, x, y) -> GaussianRational:
        """Exact evaluation; needs |xy| to have an exact rational square root."""
        val = self.holo.evaluate(x, y)
        if self.radial_coeff.is_zero():
            return val
        xx, yy = exact_param(x), exact_param(y)
        prod = xx * yy
        if not prod.is_real():
            raise ValueError("exact evaluation needs x*y real (|xy| rational)")
        mag = GaussianRational(abs(prod.re))
        root = mag.exact_sqrt()
        return val + self.radial_coeff * root ** self.radial_half_exp

    __str__ = _text


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
    """N(x)/x^d: the restriction of F to the graph y = t/x.

    Normalized so x does not divide N when N is nonzero and d > 0; d = 0
    means the restriction is a polynomial.  The radial term of a
    MixedFunction is a constant on the fiber, so N holds it too.  t is the
    fiber's parameter through exact_param (None for a form of no fiber), and
    _zeros holds N's zeros once degeneration._form_zeros has found them.
    """

    __slots__ = ("numerator", "pole_order", "t", "_zeros")

    def __init__(self, numerator: UnivariatePoly, pole_order: int, t=None):
        if pole_order < 0:
            raise ValueError("pole order must be nonnegative")
        # strip common powers of x between numerator and pole
        if not numerator.is_zero() and pole_order > 0:
            v = numerator.valuation()
            shift = min(v, pole_order)
            if shift:
                numerator = UnivariatePoly._from_ints(numerator.nums[shift:], numerator.den)
                pole_order -= shift
        if numerator.is_zero():
            pole_order = 0
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "pole_order", int(pole_order))
        object.__setattr__(self, "t", None if t is None else exact_param(t))
        object.__setattr__(self, "_zeros", None)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentForm is immutable")

    def is_zero(self) -> bool:
        return self.numerator.is_zero()

    def evaluate(self, x) -> GaussianRational:
        xx = exact_param(x)
        if self.pole_order and xx.is_zero():
            raise ZeroDivisionError("evaluation at the pole x = 0")
        val = self.numerator.evaluate(xx)
        return val / xx ** self.pole_order if self.pole_order else val

    def __eq__(self, other):
        if not isinstance(other, LaurentForm):
            return NotImplemented
        return self.numerator == other.numerator and self.pole_order == other.pole_order

    def __str__(self):
        from .expressions import _join_terms, _terms
        base = f"({_join_terms(_terms(self.numerator, 'x')) or '0'})"
        if self.pole_order:
            base += f" / x^{self.pole_order}"
        return base


def substitute_fiber(f, t) -> LaurentForm:
    """Laurent normal form of x -> F(x, t/x) on the fiber xy = t.

    t goes through exact_param, the one coercion: a float or complex t is
    taken at its exact binary value, so every t has one exact form, and nan
    or inf raise ValueError.
    For a MixedFunction the radial term is the constant c * s^nu with
    s = sqrt(t), which needs t > 0 to be a perfect rational square.  t = 0
    is rejected; the central fiber is the axis pair and is handled by the
    axis restrictions.
    """
    tt = exact_param(t)
    if tt.is_zero():
        raise ValueError("t = 0: the central fiber is not a graph; "
                         "use the axis restrictions instead")
    f = as_mixed(f)

    # group x^m y^n -> t^n x^(m-n) by the exponent m-n, on Gaussian-integer
    # numerators: with F = G/L and t = u/d, the coefficient of x^e is sum over
    # m - n = e of G_mn u^n d^(top-n), over the one denominator L d^top; where
    # terms cancel, LaurentForm strips the power of x they leave in common
    terms = f.holo.terms
    top = max((n for _, n in terms), default=0)
    d = lcm(tt.re.denominator, tt.im.denominator)
    u = tt * d
    u_re, u_im = int(u.re), int(u.im)
    u_pows, d_pows = [(1, 0)], [1]
    for _ in range(top):
        a, b = u_pows[-1]
        u_pows.append((a * u_re - b * u_im, a * u_im + b * u_re))
        d_pows.append(d_pows[-1] * d)
    by_exp = {}
    for (m, n), (g_re, g_im) in terms.items():
        a, b = u_pows[n]
        w = d_pows[top - n]
        acc_re, acc_im = by_exp.get(m - n, (0, 0))
        by_exp[m - n] = (acc_re + (g_re * a - g_im * b) * w,
                         acc_im + (g_re * b + g_im * a) * w)
    shift = max(0, -min(by_exp, default=0))
    nums = [(0, 0)] * (max(by_exp, default=-1) + shift + 1)
    for e, c in by_exp.items():
        nums[e + shift] = c
    num = UnivariatePoly._from_ints(nums, f.holo.den * d_pows[top])
    if not f.radial_coeff.is_zero():
        if not tt.is_real() or tt.re <= 0:
            raise ValueError("radial term needs t to be a positive real")
        try:
            s = tt.exact_sqrt()
        except ValueError as e:
            raise ValueError(f"radial term needs an exact square root of "
                             f"t = {t} ({e})") from None
        # c * s^nu = c * s^nu * x^shift / x^shift joins the numerator
        num += UnivariatePoly.monomial(shift, f.radial_coeff * s ** f.radial_half_exp)
    return LaurentForm(num, shift, t=tt)


# ---------------------------------------------------------------------------
# orders of vanishing
# ---------------------------------------------------------------------------

def vanishing_order(f, point) -> int:
    """Exact order of vanishing at an exact point; 0 if f(point) != 0.

    Accepts a UnivariatePoly or a LaurentForm (point nonzero in that case).
    At u/d, u a nonzero Gaussian integer, it is the order at 1 of a dilation
    to integer coefficients: the number of zero remainders of repeated
    synthetic division by (w - 1), which takes additions only (the Taylor
    shift by 1 of von zur Gathen & Gerhard 1997); at 0 it is the valuation.
    Raises IdenticallyZeroError for the zero function.
    """
    p = exact_param(point)
    if isinstance(f, LaurentForm):
        if p.is_zero():
            raise ValueError("Laurent forms are evaluated away from x = 0")
        poly = f.numerator
    elif isinstance(f, UnivariatePoly):
        poly = f
    else:
        raise TypeError("expected UnivariatePoly or LaurentForm")
    if poly.is_zero():
        raise IdenticallyZeroError("order of vanishing of the zero function")

    ur, ui, d = _int_pair(p)
    if not (ur or ui):
        return poly.valuation()
    # R(w) = L d^N P(u w / d), int coefficients c_k u^k d^(N-k), has at w = 1 the order
    # of P at u/d; Horner tests R(1) first, as most calls (divides_power's) end at 0
    re, im = zip(*poly.nums)
    if (ur, ui, d) != (1, 0, 1):
        hr, hi, dk = 0, 0, 1
        for cr, ci in reversed(poly.nums):
            hr, hi, dk = hr * ur - hi * ui + cr * dk, hr * ui + hi * ur + ci * dk, dk * d
        if hr or hi:
            return 0
        re, im, pr, pi = [], [], 1, 0
        for cr, ci in poly.nums:
            dk //= d
            re.append((cr * pr - ci * pi) * dk)
            im.append((cr * pi + ci * pr) * dk)
            pr, pi = pr * ur - pi * ui, pr * ui + pi * ur
    # R = A + iB with A and B real, so its order at 1 is the least of theirs;
    # the content (most bits, on a fiber) comes off first
    g = gcd(*re, *im)
    return min(_order_at_one([c // g for c in q]) for q in (re, im) if any(q))


def _order_at_one(q):
    """The order at 1 of the polynomial with int coefficients q, not all zero."""
    for order in count():
        q = list(accumulate(q))
        if q.pop():
            return order


def divides_power(p: UnivariatePoly, root, m: int) -> bool:
    """True iff (z - root)^m divides p exactly (m = 0 is vacuous)."""
    if m == 0:
        return True
    if p.is_zero():
        return True
    return vanishing_order(p, root) >= m
