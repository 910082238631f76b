"""Stability of the fiber integrals K_t(R) as t -> 0.

K_t is the integral of |f_t|^(-2c) against the intrinsic fiber volume form
over the part of X_t inside the polydisc of radius R.  It splits exactly
into the two chart integrals (K = I + J) and, for 0 < c < c_0(f_0),
converges to the central-fiber value K_0 as t -> 0.  The convergence rate
degrades as c approaches c_0: the line x + y at c = 0.5 lands within a
fraction of a percent by t = 1e-6, while the cusp at c = 0.3 (just below
c_0 = 1/3) approaches its limit at the much slower rate t^0.08.
"""

from fractions import Fraction

from cselab import (
    Annulus,
    BivariatePoly,
    QuadratureConfig,
    annulus_integral,
    convergence_sweep,
    decompose_I,
    fiber_integral_K,
    format_function,
    substitute_fiber,
)

x = BivariatePoly.variable("x")
y = BivariatePoly.variable("y")
cfg = QuadratureConfig()

# -- the splitting identity on a shared grid -----------------------------------

t = Fraction(1, 10 ** 4)
kr = fiber_integral_K(x + y, t, 0.5, 1.0, cfg)
print(f"x + y at t = {t}, c = 0.5, R = 1:")
print(f"  K_t = {kr.k_report.value:.6f}, I_t = {kr.i_report.value:.6f}, "
      f"J_t = {kr.j_report.value:.6f}")
print(f"  |K - (I + J)|/K = {kr.identity_residual:.2e}")
print()

# -- sweeps --------------------------------------------------------------------

ts = [Fraction(1, 100) * Fraction(1, 4) ** j for j in range(7)]
for f, c, radius in [(x + y, 0.5, 1.0), (y ** 2 - x ** 3, 0.15, 0.5),
                     (y ** 2 - x ** 3, 0.3, 0.5)]:
    rep = convergence_sweep(f, c, radius, ts, cfg)
    print(f"F = {format_function(rep.function)}, c = {c}, R = {radius}: K_0 = {rep.k0:.5f}, "
          f"verdict {rep.verdict}")
    for r in rep.rows:
        print(f"  t = {float(r.t):9.3e}   K_t = {r.k_t:10.5f}   "
              f"ratio = {r.ratio:.5f}")
    print()

# -- the three-annulus decomposition of I_t -------------------------------------

print("three-annulus split of I_t for x + y (c = 0.5, R = 1, R1 = 5):")
for t in [Fraction(1, 100), Fraction(1, 6400)]:
    i1, i2, i3 = decompose_I(x + y, t, 0.5, 1.0, 5.0, cfg)
    fib = substitute_fiber(x + y, t)
    whole = annulus_integral(fib, 0.5, Annulus(float(t), 1.0), config=cfg)
    print(f"  t = {float(t):8.2e}: I1 = {i1.value:.4f}  I2 = {i2.value:.4f}  "
          f"I3 = {i3.value:.6f}  (sum {i1.value + i2.value + i3.value:.4f}, "
          f"direct {whole.value:.4f})")
print("  the side pieces I1 and I3 vanish as t -> 0; the middle piece "
      "carries the limit")
