"""The non-holomorphic families that break exponent semicontinuity.

For each n, the polynomials q(z^2) + c z^(2n+1) divisible by (z-1)^(2n+2)
form a line W_n, spanned by the divided difference over the exponents
(wn_generator); its generator P_n has nonzero extreme terms and yields

    F_n(x, y) = q_n(x/y) y^(2n+1) + c_n |xy|^((2n+1)/2),

whose central exponent is 1/(2n+1) while the fiber exponent at the diagonal
point (s, s) of xy = s^2 is at most 1/(2n+2).  Everything here is exact
rational arithmetic; the regularity of the radial building block is probed
numerically at the end.
"""

from fractions import Fraction

from cselab import (
    counterexample_record,
    format_function,
    holder_probe,
    verify_violation,
    vn_basis,
    wn_generator,
)

print("W_n is a line (dim W_n = 1, proved by the divided-difference kernel);")
print("its generator P_n vanishes to order exactly 2n+2 at z = 1 (Descartes):")
for n in range(4):
    print(f"  n = {n}: dim V_n = {len(vn_basis(n))}, dim W_n = 1, "
          f"P_{n} = {format_function(wn_generator(n))}")
print()

s_samples = [Fraction(1, 10), Fraction(1, 7), Fraction(1, 3)]
print(f"families and their exponent pairs (s sampled at {s_samples}):")
for n in range(6):
    rec = counterexample_record(n)
    rep = verify_violation(rec, s_samples)
    print(f"  n = {n}: central {rep.central}  vs  fiber {rep.fiber} "
          f"(order {rep.fiber_order} at the diagonal) -> "
          f"{'violated' if rep.violated else 'holds'}")
print()

rec = counterexample_record(1)
print(f"the n = 1 family in full: F_1 = {format_function(rec.family)}")
print(f"  q_1 = {format_function(rec.q_n)}, c_1 = {rec.c_n}")
print()

print("regularity of the radial building block |z|^((2n+1)/2):")
for n in (0, 1, 2):
    hp = holder_probe(n, 1.0)
    print(f"  n = {n}: Hoelder exponent of the {n}-th derivative "
          f"~ {hp.estimate:.3f} (fit residual {hp.fit_residual:.1e})")
smooth = holder_probe(0, 1.0, profile=lambda r: r ** 3)
print(f"  smooth control r^3: estimate saturates at {smooth.estimate:.1f} "
      f"(raw slope {smooth.raw_slope:.2f})")
