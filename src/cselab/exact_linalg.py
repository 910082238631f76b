"""Exact nullspaces of integer matrices by fraction-free Gaussian elimination.

Bareiss-style two-row eliminations keep every intermediate entry an integer
(each is a minor of the input), so kernels come out exact with no rational
arithmetic until the final back-substitution.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def _primitive(vec):
    """Divide an integer vector by the gcd of its entries; fix the sign."""
    g = 0
    for v in vec:
        g = gcd(g, v)
    if g == 0:
        return list(vec)
    out = [v // g for v in vec]
    for v in out:
        if v:
            if v < 0:
                out = [-w for w in out]
            break
    return out


def integer_kernel_basis(rows):
    """Kernel basis of an integer matrix, as primitive integer vectors.

    rows: list of lists of ints (may be ragged-free rectangular).  Returns a
    list of kernel vectors (one per free column), each with integer entries
    and content 1.
    """
    m = [list(map(int, r)) for r in rows]
    if not m:
        raise ValueError("empty matrix")
    nrows, ncols = len(m), len(m[0])

    pivot_cols = []
    prev_pivot = 1
    r = 0
    for c in range(ncols):
        # find a pivot row at or below r
        pr = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        piv = m[r][c]
        for i in range(r + 1, nrows):
            for j in range(c + 1, ncols):
                m[i][j] = (piv * m[i][j] - m[i][c] * m[r][j]) // prev_pivot
            m[i][c] = 0
        prev_pivot = piv
        pivot_cols.append(c)
        r += 1
        if r == nrows:
            break

    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    basis = []
    for fc in free_cols:
        sol = [Fraction(0)] * ncols
        sol[fc] = Fraction(1)
        for i in range(len(pivot_cols) - 1, -1, -1):
            pc = pivot_cols[i]
            acc = Fraction(0)
            for j in range(pc + 1, ncols):
                if m[i][j]:
                    acc += Fraction(m[i][j]) * sol[j]
            sol[pc] = -acc / m[i][pc]
        den = 1
        for v in sol:
            den = den * v.denominator // gcd(den, v.denominator)
        basis.append(_primitive([int(v * den) for v in sol]))
    return basis
