"""Semicontinuity of exponents along xy = t, checked at desk scale.

For a holomorphic germ the exponent at the origin of the central fiber
never exceeds the exponents at nearby fiber zeros (for small t).  The check
compares the strongest central claim (max over the two axis components)
against every fiber zero inside a polydisc, for a list of sampled t.
A non-holomorphic family genuinely violates the inequality.
"""

from fractions import Fraction

from cselab import (
    BivariatePoly,
    MixedFunction,
    format_function,
    semicontinuity_check,
)

x = BivariatePoly.variable("x")
y = BivariatePoly.variable("y")

corpus = [x + y, y ** 2 - x ** 3, y ** 2 - x ** 5, (x + y) ** 2,
          x + y + x * x, x * x - y * y]
samples = [Fraction(1, 10 ** k) for k in range(2, 6)]

print(f"t samples: {[str(t) for t in samples]}, polydisc radius 0.1")
print()
for f in corpus:
    rep = semicontinuity_check(f, samples, delta=0.1)
    zeros_seen = sum(len(r.zeros) for r in rep.rows)
    print(f"F = {format_function(f)}")
    print(f"  central exponents: x-axis {rep.central_x}, y-axis {rep.central_y}"
          f"  (binding max {rep.central_max})")
    print(f"  verdict: {rep.verdict}  ({zeros_seen} fiber zeros inspected)")
    print()

# -- a family that breaks the inequality ---------------------------------------

# the radial term |xy|^(1/2) is exact only where t is a rational square
f = MixedFunction(x + y, -2, 1)
rep = semicontinuity_check(f, [Fraction(1, 10 ** k) for k in (2, 4)])
t, zero, cmax, fexp = rep.witness
print(f"F = {format_function(f)}  (not holomorphic)")
print(f"  verdict: {rep.verdict}")
print(f"  witness: t = {t}, zero at x = {zero.location} with multiplicity "
      f"{zero.multiplicity}: fiber exponent {fexp} < central {cmax}")
