"""The exponent value type: a nonnegative rational or +infinity.

By convention 0 is reserved for functions identically zero on the region of
interest and +infinity for functions with no zero there; at a point of the
zero set the value of a singularity exponent lies in [0, 1].  The numeric
probes estimate exponents as slopes of _log_log_fit, made without numpy.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import total_ordering


@total_ordering
class Exponent:
    __slots__ = ("value",)

    def __init__(self, value):
        if value is not None:
            value = Fraction(value)
            if value < 0:
                raise ValueError("exponents are nonnegative")
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, v):
        raise AttributeError("Exponent is immutable")

    @classmethod
    def infinite(cls) -> "Exponent":
        return cls(None)

    @classmethod
    def zero(cls) -> "Exponent":
        return cls(0)

    @classmethod
    def reciprocal_order(cls, order: int) -> "Exponent":
        """1/order for a vanishing order >= 1."""
        if order < 1:
            raise ValueError("order must be >= 1")
        return cls(Fraction(1, order))

    @property
    def is_infinite(self) -> bool:
        return self.value is None

    def _key(self):
        return (1, Fraction(0)) if self.value is None else (0, self.value)

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._key() == other._key()

    def __lt__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._key() < other._key()

    def __hash__(self):
        return hash(self._key())

    def __float__(self):
        return float("inf") if self.value is None else float(self.value)

    def __str__(self):
        return "inf" if self.value is None else str(self.value)

    def __repr__(self):
        return f"Exponent({'inf' if self.value is None else str(self.value)})"

    def to_json_obj(self):
        if self.value is None:
            return "infinity"
        return {"num": self.value.numerator, "den": self.value.denominator}


def _coerce(v):
    if isinstance(v, Exponent):
        return v
    if isinstance(v, (int, Fraction)):
        return Exponent(v)
    return NotImplemented


def _log_log_fit(xs, ys):
    """The least-squares line through the points (log x, log y): its slope
    and the largest absolute residual of the log values."""
    from statistics import linear_regression   # here: importing cselab stays light

    lx, ly = [math.log(x) for x in xs], [math.log(y) for y in ys]
    slope, intercept = linear_regression(lx, ly)
    return slope, max(abs(b - (slope * a + intercept)) for a, b in zip(lx, ly))
