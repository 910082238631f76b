"""Divided-difference weights: the exact kernel of a Vandermonde-type system.

For distinct nodes e_0..e_m the divided difference is the functional
f[e_0, ..., e_m] = sum_i w_i f(e_i) with w_i = 1/prod_{j != i} (e_i - e_j).
It is the leading coefficient of the interpolant of degree m, so it annuls
every polynomial of degree below m.  The rows (p(e_0), ..., p(e_m)) for p
running over a basis of those polynomials have rank m (a Vandermonde
matrix on distinct nodes), so their kernel is exactly the line spanned by
the weights.  node_products gives the reciprocals 1/w_i, which stay ints on
int nodes.
"""

from __future__ import annotations

from math import prod


def node_products(nodes):
    """The products prod_{f != e} (e - f), ints for int nodes, in node order."""
    if len(set(nodes)) != len(nodes):
        raise ValueError("divided-difference nodes must be distinct")
    return [prod(e - f for f in nodes if f != e) for e in nodes]
