"""Newton polygons of bivariate supports and polygon-derived quantities.

The polygon here is the lower-left compact boundary of the convex hull of
supp(F) + (nonnegative quadrant).  A curve germ that is irreducible in the
ring of convergent power series has a single-segment polygon; this module
only ever asserts the contrapositive (two or more segments force
reducibility), never irreducibility itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .exponents import Exponent
from .polynomials import BivariatePoly, IdenticallyZeroError


@dataclass(frozen=True)
class NewtonPolygon:
    """Vertices of the lower-left hull, ordered by increasing x-exponent."""

    vertices: tuple

    @property
    def segments(self):
        return tuple(zip(self.vertices[:-1], self.vertices[1:]))

    def __str__(self):
        return f"NewtonPolygon(vertices={list(self.vertices)})"


@dataclass(frozen=True)
class PrincipalPart:
    """The monomials of F supported on the polygon segment through (k,0),(0,l)."""

    poly: BivariatePoly
    endpoints: tuple


def _pareto_minimal(points):
    """The points no other point is below and left of, sorted: in (i, j)
    order a point is minimal iff its j is below the j of every earlier one."""
    out = []
    for p in sorted(points):
        if not out or p[1] < out[-1][1]:
            out.append(p)
    return out


def compute_polygon(f: BivariatePoly) -> NewtonPolygon:
    """Lower-left convex hull of the support of a nonzero polynomial."""
    if f.is_zero():
        raise IdenticallyZeroError("zero polynomial has no polygon")
    pts = _pareto_minimal(list(f.terms))
    # monotone chain over the staircase: keep only strictly convex turns
    hull = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            cross = (x2 - x1) * (p[1] - y1) - (y2 - y1) * (p[0] - x1)
            if cross <= 0:  # hull[-1] on or above chord: not a lower vertex
                hull.pop()
            else:
                break
        hull.append(p)
    return NewtonPolygon(tuple(hull))


def single_segment(polygon: NewtonPolygon) -> bool:
    """True iff the polygon has exactly one segment.

    One segment is necessary for irreducibility of the germ; it does not
    certify it.  A single-point polygon returns False.
    """
    return len(polygon.segments) == 1


def endpoints(polygon: NewtonPolygon):
    """The axis endpoints (k, 0) and (0, l) of the polygon.

    Requires the polygon to touch both axes, i.e. F contains pure powers
    x^k and y^l; otherwise the restriction of F to one axis component is
    identically zero and the endpoint pair is undefined.
    """
    first, last = polygon.vertices[0], polygon.vertices[-1]
    if first[0] != 0 or last[1] != 0:
        raise IdenticallyZeroError(
            "restriction to an axis component is identically zero: "
            "the polygon does not touch both axes")
    return last[0], first[1]


def principal_part(f: BivariatePoly, kl=None) -> PrincipalPart:
    """Sub-polynomial supported on {l*m + k*n = k*l} for endpoints (k, l)."""
    if kl is None:
        kl = endpoints(compute_polygon(f))
    k, l = kl
    kept = {(m, n): c for (m, n), c in f.terms.items() if l * m + k * n == k * l}
    return PrincipalPart(BivariatePoly._from_ints(kept, f.den), (k, l))


def _segment_normals(polygon: NewtonPolygon):
    """Primitive inner normals (a, b) > 0 of the compact segments."""
    normals = []
    for (m1, n1), (m2, n2) in polygon.segments:
        a, b = n1 - n2, m2 - m1
        g = gcd(a, b)
        normals.append((a // g, b // g))
    return normals


def lct_polygon_estimate(f: BivariatePoly) -> Exponent:
    """Monomial-valuation bound min over facet normals of (a+b)/N(a,b).

    N(a, b) = min over supp(F) of a*m + b*n; the axis directions (1, 0) and
    (0, 1) are included (they matter when the polygon misses an axis) and
    the result is clamped above by 1.  For a, b >= 0 the minimum is taken at
    a vertex of the lower-left hull, so only the vertices are scanned.  This
    is an ESTIMATE: it is the exact threshold for Newton-nondegenerate germs,
    which this library does not test for.
    """
    if f.is_zero():
        raise IdenticallyZeroError("zero polynomial")
    if (0, 0) in f.terms:
        return Exponent.infinite()  # nonvanishing at the origin
    polygon = compute_polygon(f)
    best = Fraction(1)
    for a, b in _segment_normals(polygon) + [(1, 0), (0, 1)]:
        n_ab = min(a * m + b * n for (m, n) in polygon.vertices)
        if n_ab == 0:
            continue
        best = min(best, Fraction(a + b, n_ab))
    return Exponent(best)
