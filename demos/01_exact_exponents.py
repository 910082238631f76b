"""Exact singularity exponents on the fibers of xy = t.

Every fiber X_t with t != 0 is a smooth curve, so the exponent of a
function at a point of X_t is one over its vanishing order there.  This
walk-through restricts a few germs to fibers, locates their zeros exactly,
and reads off the exponents.
"""

from fractions import Fraction

from cselab import (
    BivariatePoly,
    MixedFunction,
    central_exponent,
    fiber_exponent,
    fiber_zeros,
    format_function,
    substitute_fiber,
)

x = BivariatePoly.variable("x")
y = BivariatePoly.variable("y")

# -- a smooth curve germ -----------------------------------------------------

f = x + y
t = Fraction(1, 100)
form = substitute_fiber(f, t)
print(f"F = {format_function(f)} restricted to xy = {t}:  {form}")
for zero in fiber_zeros(f, t, delta=0.1):
    e = fiber_exponent(f, t, zero.location)
    print(f"  zero at x = {zero.location} ({zero.exactness}), "
          f"multiplicity {zero.multiplicity}, exponent {e}")
print(f"  central exponent (min over the axes): {central_exponent(f, 'min')}")
print()

# -- the cusp ------------------------------------------------------------------

f = y ** 2 - x ** 3
form = substitute_fiber(f, t)
print(f"F = {format_function(f)} on xy = {t}:  {form}")
zs = fiber_zeros(f, Fraction(1, 10 ** 4), delta=0.1)
print(f"  at t = 1/10000 the fiber has {len(zs)} simple zeros ({zs[0].exactness} "
      f"locations) on the circle |x| = |t|^(2/5) ~ {abs(zs[0].location_complex()):.4f}")
print(f"  each carries exponent {fiber_exponent(f, Fraction(1, 10**4), zs[0].location_complex())}, "
      f"central exponent is {central_exponent(f, 'min')}")
print()

# -- a non-holomorphic germ ----------------------------------------------------

# x + y - 2|xy|^(1/2) vanishes to second order at the diagonal point (s, s)
# of the fiber xy = s^2, although its central exponent is 1
f = MixedFunction(x + y, -2, 1)
s = Fraction(1, 10)
form = substitute_fiber(f, s * s)
print(f"F = {format_function(f)} on xy = s^2, s = {s}:  {form}")
print(f"  exponent at (s, s): {fiber_exponent(f, s * s, (s, s))}")
print(f"  central exponent:   {central_exponent(f, 'min')}")
print("  the fiber exponent sits strictly below the central one; "
      "see demo 05 for the whole family")
