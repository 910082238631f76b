"""Divided-difference weights over the exponents of V_n, in closed form.

For distinct nodes e_0..e_m the divided difference is the functional
f[e_0, ..., e_m] = sum_i w_i f(e_i) with w_i = 1/prod_{j != i} (e_i - e_j).
It is the leading coefficient of the interpolant of degree m, so it annuls
every polynomial of degree below m.  The rows (p(e_0), ..., p(e_m)) for p
running over a basis of those polynomials have rank m (a Vandermonde
matrix on distinct nodes), so their kernel is exactly the line spanned by
the weights.

The nodes of W_n are the even exponents 0, 2, ..., 4n+2, an arithmetic
progression, and the odd exponent 2n+1.  On them every product
prod_{j != i} (e_i - e_j) is a product of factorials, and the weights,
divided by the weight of the top node, are binomials over small odd
numbers and 2^(4n+1)/C(2n, n) (the counterexamples docstring derives
them).  wn_weights builds them from one running binomial, in O(n)
big-integer steps, where the general node products take O(n^2).
"""

from __future__ import annotations

from math import comb, lcm


def wn_weights(n: int):
    """(nums, den): w_e / w_{4n+2} = nums[e] / den for e = 0..4n+2, with
    nums[e] = 0 off the nodes 0, 2, ..., 4n+2 and 2n+1; den is a common
    denominator, not necessarily the least one."""
    if n < 0:
        raise ValueError("n must be >= 0")
    m, central = 2 * n + 1, comb(2 * n, n)
    den = lcm(*range(1, m + 1, 2), central)
    nums = [0] * (2 * m + 1)
    binom = 1                                        # C(m, i)
    for i in range(m + 1):
        nums[2 * i] = (-1) ** (i + 1) * binom * m * (den // (2 * i - m))
        binom = binom * (m - i) // (i + 1)
    nums[m] = (-1) ** (n + 1) * 2 ** (4 * n + 1) * (den // central)
    return nums, den
