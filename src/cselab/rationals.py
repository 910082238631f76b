"""Exact Gaussian-rational scalars: a + b*i with arbitrary-precision rational a, b."""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import NamedTuple


def _as_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, float) and not math.isfinite(v):
        raise ValueError(f"parameter must be finite, got {v!r}")
    if isinstance(v, (str, float)):   # a finite float is a dyadic rational
        return Fraction(v)
    raise TypeError(f"cannot build an exact rational from {type(v).__name__}")


class GaussianRational:
    """An exact complex number with rational real and imaginary parts.

    Values are stored in lowest terms (Fraction guarantees this) and are
    immutable by convention; all arithmetic returns new instances.  Division
    is exact via the conjugate, so the type is a field.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _as_fraction(re))
        object.__setattr__(self, "im", _as_fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def is_real(self) -> bool:
        return not self.im

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        o = exact_param(other)
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        o = exact_param(other)
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return exact_param(other) - self

    def __mul__(self, other):
        o = exact_param(other)
        return GaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def norm2(self) -> Fraction:
        """|z|^2 as an exact rational."""
        return self.re * self.re + self.im * self.im

    def inverse(self) -> "GaussianRational":
        n = self.norm2()
        if not n:
            raise ZeroDivisionError("inverse of zero")
        return GaussianRational(self.re / n, -self.im / n)

    def __truediv__(self, other):
        return self * exact_param(other).inverse()

    def __rtruediv__(self, other):
        return exact_param(other) * self.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("exponent must be an integer")
        if not self.im:
            return GaussianRational(self.re ** k)
        if k < 0:
            return self.inverse() ** (-k)
        return _power(self, k, GaussianRational(1))

    # -- comparison / hashing ------------------------------------------

    def __eq__(self, other):
        try:
            o = exact_param(other)
        except (TypeError, ValueError):   # == nan is False, not an error
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        # complex's hash, so that a value equal to a complex hashes as it does
        half = 2 ** (sys.hash_info.width - 1)
        h = (hash(self.re) + sys.hash_info.imag * hash(self.im) + half) % (2 * half) - half
        return -2 if h == -1 else h

    # -- conversions ---------------------------------------------------

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    def exact_sqrt(self) -> "GaussianRational":
        """Exact square root of a nonnegative rational; raises if not exact."""
        if self.im or self.re < 0:
            raise ValueError("exact_sqrt needs a nonnegative rational")
        num, den = self.re.numerator, self.re.denominator
        rn, rd = _isqrt_exact(num), _isqrt_exact(den)
        if rn is None or rd is None:
            raise ValueError(f"{self.re} has no exact rational square root")
        return GaussianRational(Fraction(rn, rd))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return pair_text(*_int_pair(self))


def _int_pair(v):
    """(re, im, den) with v = (re + im*i)/den, den the lcm of the parts' denominators."""
    g = exact_param(v)
    re, im = g.re, g.im
    d = math.lcm(re.denominator, im.denominator)
    return re.numerator * (d // re.denominator), im.numerator * (d // im.denominator), d


def _ratio(n: int, den: int) -> str:
    """n/den in lowest terms, as str(Fraction(n, den)) prints it."""
    g = math.gcd(n, den)
    return str(n // g) if g == den else f"{n // g}/{den // g}"


def pair_text(re: int, im: int, den: int) -> str:
    """The exact text of (re + im*i)/den, den > 0, such as "-3/2", "i" or
    "1/2-3*i": the one writer of exact scalars, which builds no Fraction."""
    if not im:
        return _ratio(re, den)
    itxt = "i" if abs(im) == den else f"{_ratio(abs(im), den)}*i"
    sign = "-" if im < 0 else "+" if re else ""
    return f"{_ratio(re, den) if re else ''}{sign}{itxt}"


def pair_json(re: int, im: int, den: int):
    """The JSON value of (re + im*i)/den: an int when it is one, else its text."""
    return re // den if not im and not re % den else pair_text(re, im, den)


def pair_signed(re: int, im: int, den: int, unit: bool):
    """(sign, body) of (re + im*i)/den as an expression term: body has no minus sign,
    is parenthesized if both parts are nonzero, and is empty for 1 with unit=True."""
    if re and im:
        return "+", f"({pair_text(re, im, den)})"
    body = pair_text(abs(re), abs(im), den)
    return "-" if re < 0 or im < 0 else "+", "" if unit and body == "1" else body


class ExactPairs(NamedTuple):
    """The scalars c/den for the (re, im) int pairs c in pairs; a dict by keys if given."""
    pairs: object
    den: int
    keys: object = None


def _power(base, k: int, one):
    """base^k for an int k >= 0 by repeated squaring, with one the identity."""
    out = one
    while k:
        if k & 1:
            out = out * base
        base = base * base
        k >>= 1
    return out


def _isqrt_exact(n: int):
    r = math.isqrt(n)
    return r if r * r == n else None


def exact_param(t) -> GaussianRational:
    """The one coercion of an outside scalar to a GaussianRational.

    A GaussianRational passes through; an int, Fraction or exact string,
    and a float or complex, are taken at their exact value.  Every finite
    float is a dyadic rational, so Fraction(float) is its binary value and a
    float takes the same exact path as a rational; nan and inf raise
    ValueError.  The arithmetic operators, the polynomial constructors and
    every exact entry point take their scalars through here.
    """
    if isinstance(t, GaussianRational):
        return t
    if isinstance(t, complex):
        return GaussianRational(t.real, t.imag)
    return GaussianRational(t)


def param_modulus(t) -> float:
    """|t| as a float; for real t this is exactly abs(float(t))."""
    return abs(exact_param(t).to_complex())


def param_float(t) -> float:
    """A real parameter as a signed float, otherwise its modulus: the t
    column of CSV and plot data."""
    g = exact_param(t)
    return float(g.re) if g.is_real() else param_modulus(g)


ZERO = GaussianRational(0)
