"""Exact polynomial and Laurent algebra over Gaussian rationals.

Univariate polynomials are coefficient lists by ascending degree; bivariate
polynomials are support maps (m, n) -> coefficient with no zero entries, so
equality of support maps is equality of polynomials.  Fiber restriction along
the family xy = t produces Laurent normal forms N(x)/x^d + const.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import numpy as np

from .rationals import GaussianRational, ZERO, ONE


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

    def evaluate_complex(self, z):
        """Float Horner evaluation; accepts scalars and numpy arrays."""
        if not self.coeffs:
            return np.zeros_like(np.asarray(z, dtype=complex))
        acc = np.zeros_like(np.asarray(z, dtype=complex))
        for c in reversed(self.coeffs):
            acc = acc * z + c.to_complex()
        return acc

    def complex_coeffs(self) -> np.ndarray:
        return np.array([c.to_complex() for c in self.coeffs], dtype=complex)

    def divmod(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        d = other.degree
        lead_inv = other.coeffs[-1].inverse()
        q = [ZERO] * max(0, len(rem) - d)
        while len(rem) - 1 >= d and rem:
            while rem and rem[-1].is_zero():
                rem.pop()
            if len(rem) - 1 < d:
                break
            k = len(rem) - 1 - d
            f = rem[-1] * lead_inv
            q[k] = f
            for j in range(d + 1):
                rem[k + j] = rem[k + j] - f * other.coeffs[j]
            rem.pop()
        return UnivariatePoly(q), UnivariatePoly(rem)

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


def poly_gcd(a: UnivariatePoly, b: UnivariatePoly) -> UnivariatePoly:
    """Monic gcd by the Euclidean algorithm (exact field coefficients)."""
    while not b.is_zero():
        _, r = a.divmod(b)
        a, b = b, r
    return a.monic() if not a.is_zero() else a


def exact_divide(a: UnivariatePoly, b: UnivariatePoly) -> UnivariatePoly:
    q, r = a.divmod(b)
    if not r.is_zero():
        raise ValueError("exact_divide: nonzero remainder")
    return q


def squarefree_decomposition(p: UnivariatePoly):
    """Yun's algorithm: returns [(factor, multiplicity)] with factors squarefree.

    The product of factor^multiplicity equals p up to a constant.
    Characteristic zero only.
    """
    if p.is_zero():
        raise IdenticallyZeroError("squarefree decomposition of zero")
    if p.degree == 0:
        return []
    dp = p.derivative()
    g = poly_gcd(p, dp)
    out = []
    c = exact_divide(p, g)
    d = exact_divide(dp, g) - c.derivative()
    m = 1
    while c.degree > 0:
        a = poly_gcd(c, d)
        if a.degree > 0:
            out.append((a, m))
        c = exact_divide(c, a)
        d = exact_divide(d, a) - c.derivative()
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

    def evaluate_complex(self, x, y):
        """Float evaluation; x and y may be numpy arrays of equal shape."""
        x = np.asarray(x, dtype=complex)
        y = np.asarray(y, dtype=complex)
        acc = np.zeros(np.broadcast(x, y).shape, dtype=complex)
        for (m, n), c in self.sorted_items():
            acc = acc + c.to_complex() * x ** m * y ** n
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

    def swap_xy(self) -> "BivariatePoly":
        return BivariatePoly({(n, m): c for (m, n), c in self.support.items()})

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

    def evaluate_complex(self, x, y):
        val = self.holo.evaluate_complex(x, y)
        if not self.radial_coeff.is_zero():
            r = np.abs(np.asarray(x, dtype=complex) * np.asarray(y, dtype=complex))
            val = val + self.radial_coeff.to_complex() * r ** (self.radial_half_exp / 2.0)
        return val

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

    def evaluate_complex(self, x):
        x = np.asarray(x, dtype=complex)
        val = self.numerator.evaluate_complex(x)
        if self.pole_order:
            val = val / x ** self.pole_order
        return val + self.constant.to_complex()

    def to_numeric(self) -> "NumericFiber":
        return NumericFiber(self.combined_numerator().complex_coeffs(),
                            self.pole_order,
                            t=None if self.t is None else complex(_scalar_to_complex(self.t)))

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


class NumericFiber:
    """Float-coefficient fiber function coeffs(x)/x^d for quadrature work."""

    __slots__ = ("coeffs", "pole_order", "t")

    def __init__(self, coeffs, pole_order: int = 0, t=None):
        self.coeffs = np.asarray(coeffs, dtype=complex)
        self.pole_order = int(pole_order)
        self.t = t

    def evaluate_complex(self, x):
        x = np.asarray(x, dtype=complex)
        acc = np.zeros_like(x)
        for c in self.coeffs[::-1]:
            acc = acc * x + c
        if self.pole_order:
            acc = acc / x ** self.pole_order
        return acc

    def is_zero(self) -> bool:
        return self.coeffs.size == 0 or not np.any(self.coeffs)


def _scalar_to_complex(t):
    if isinstance(t, GaussianRational):
        return t.to_complex()
    if isinstance(t, (int, float, Fraction)):
        return complex(float(t), 0.0)
    return complex(t)


def is_exact_scalar(t) -> bool:
    return isinstance(t, (int, Fraction, GaussianRational))


def substitute_fiber(f, t, s=None) -> LaurentForm:
    """Laurent normal form of x -> F(x, t/x) on the fiber xy = t.

    t must be a nonzero exact scalar (int, Fraction or GaussianRational).
    For a MixedFunction the radial term needs t > 0 with an exact square
    root: pass s explicitly (s^2 = t) or let it be extracted when t is a
    perfect rational square.  t = 0 is rejected; the central fiber is the
    axis pair and is handled by the axis restrictions.
    """
    if not is_exact_scalar(t):
        raise TypeError("substitute_fiber needs an exact t; "
                        "use numeric_fiber for float parameters")
    tt = GaussianRational.coerce(t)
    if tt.is_zero():
        raise ValueError("t = 0: the central fiber is not a graph; "
                         "use the axis restrictions instead")
    f = as_mixed(f)
    constant = ZERO
    if not f.radial_coeff.is_zero():
        if not tt.is_real() or tt.re <= 0:
            raise ValueError("radial term needs t to be a positive real")
        if s is not None:
            ss = GaussianRational.coerce(s)
            if not ss.is_real() or ss.re <= 0 or ss * ss != tt:
                raise ValueError("s must be a positive exact scalar with s^2 = t")
        else:
            ss = tt.exact_sqrt()
        constant = f.radial_coeff * ss ** f.radial_half_exp

    # group x^m y^n -> t^n x^(m-n) by the exponent m-n
    t_pows = [ONE]
    for _ in range(max((n for _, n in f.holo.support), default=0)):
        t_pows.append(t_pows[-1] * tt)
    by_exp = {}
    for (m, n), c in f.holo.support.items():
        e = m - n
        by_exp[e] = by_exp.get(e, ZERO) + c * t_pows[n]
    by_exp = {e: c for e, c in by_exp.items() if not c.is_zero()}
    if not by_exp:
        return LaurentForm(UnivariatePoly(), 0, constant, t=t)
    d = max(0, -min(by_exp))
    coeffs = [ZERO] * (max(by_exp) + d + 1)
    for e, c in by_exp.items():
        coeffs[e + d] = c
    return LaurentForm(UnivariatePoly(coeffs), d, constant, t=t)


def numeric_fiber(f, t) -> NumericFiber:
    """Float-coefficient fiber restriction for non-exact t."""
    if is_exact_scalar(t):
        return substitute_fiber(f, t).to_numeric()
    f = as_mixed(f)
    tc = complex(t)
    constant = 0j
    if not f.radial_coeff.is_zero():
        if abs(tc.imag) > 0 or tc.real <= 0:
            raise ValueError("radial term needs t to be a positive real")
        constant = f.radial_coeff.to_complex() * tc.real ** (f.radial_half_exp / 2.0)
    by_exp = {}
    for (m, n), c in f.holo.support.items():
        e = m - n
        by_exp[e] = by_exp.get(e, 0j) + c.to_complex() * tc ** n
    if not by_exp:
        return NumericFiber(np.array([constant]), 0, t=tc)
    d = max(0, -min(by_exp))
    coeffs = np.zeros(max(by_exp) + d + 1, dtype=complex)
    for e, c in by_exp.items():
        coeffs[e + d] = c
    if constant:
        coeffs[d] += constant
    return NumericFiber(coeffs, d, t=tc)


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
    cs = poly.coeffs
    big_l = 1
    for c in cs:
        big_l = lcm(big_l, c.re.denominator, c.im.denominator)
    # descending coefficients of R: L * c_k * d^(N - k) for k = N..0
    re_desc, im_desc = [], []
    dpow = 1
    for c in reversed(cs):
        re_desc.append(c.re.numerator * (big_l // c.re.denominator) * dpow)
        im_desc.append(c.im.numerator * (big_l // c.im.denominator) * dpow)
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
