"""The V/W kernel construction and the exponent-violation families.

The kernel solves are cross-checked against an independent nullspace oracle
(plain Fraction row reduction, no shared code with the fraction-free path).
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cselab import (
    BivariatePoly,
    Exponent,
    GaussianRational,
    MixedFunction,
    UnivariatePoly,
    ViolationCheckError,
    build_family,
    counterexample_record,
    divides_power,
    holder_probe,
    membership_N,
    solve_wn,
    substitute_fiber,
    symmetrize,
    vanishing_order,
    verify_violation,
    vn_basis,
)
from cselab.counterexamples import derivative_condition_matrix
from cselab.exact_linalg import integer_kernel_basis

P1_COEFFS = [1, 0, -9, 16, -9, 0, 1]


# -- independent oracle: rational RREF nullspace ------------------------------

def rref_nullspace(rows):
    m = [[Fraction(v) for v in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -m[i][fc]
        basis.append(v)
    return basis


def in_span(vector, basis):
    """Membership of vector in the span of basis vectors (all Fractions)."""
    rows = [list(col) for col in zip(*basis)] if basis else []
    aug = [row + [v] for row, v in zip(rows, vector)]
    # solve least-structure: rank of [basis | v] equals rank of basis
    def rank(mat):
        mat = [row[:] for row in mat]
        rk = 0
        for c in range(len(mat[0]) if mat else 0):
            piv = next((i for i in range(rk, len(mat)) if mat[i][c] != 0), None)
            if piv is None:
                continue
            mat[rk], mat[piv] = mat[piv], mat[rk]
            inv = 1 / mat[rk][c]
            mat[rk] = [x * inv for x in mat[rk]]
            for i in range(len(mat)):
                if i != rk and mat[i][c] != 0:
                    f = mat[i][c]
                    mat[i] = [a - f * b for a, b in zip(mat[i], mat[rk])]
            rk += 1
        return rk
    if not basis:
        return all(v == 0 for v in vector)
    return rank(aug) == rank(rows)


small_int_matrix = st.integers(1, 6).flatmap(
    lambda ncols: st.lists(
        st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols),
        min_size=1, max_size=5))


class TestIntegerKernelBasis:
    @given(mat=small_int_matrix)
    @settings(max_examples=300, derandomize=True)
    def test_matches_rref_oracle_on_random_matrices(self, mat):
        basis = integer_kernel_basis(mat)
        for vec in basis:
            assert all(sum(a * v for a, v in zip(row, vec)) == 0 for row in mat)
        assert len(basis) == len(rref_nullspace(mat))
        if basis:
            # the basis vectors as columns have a trivial kernel
            assert rref_nullspace([list(col) for col in zip(*basis)]) == []


class TestVnBasis:
    def test_small_instances(self):
        assert vn_basis(0) == [0, 2, 1]
        assert vn_basis(1) == [0, 2, 4, 6, 3]

    def test_dimension_formula(self):
        for n in range(11):
            assert len(vn_basis(n)) == 2 * n + 3

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            vn_basis(-1)


class TestSolveWn:
    def test_n0_golden(self):
        basis = solve_wn(0)
        assert len(basis) == 1
        assert basis[0] == UnivariatePoly([1, -2, 1])

    def test_n1_golden(self):
        basis = solve_wn(1)
        assert len(basis) == 1
        assert basis[0] == UnivariatePoly(P1_COEFFS)
        assert vanishing_order(basis[0], 1) == 4

    def test_matches_rref_oracle(self):
        for n in range(6):
            mat = derivative_condition_matrix(n)
            oracle = rref_nullspace(mat)
            mine = integer_kernel_basis(mat)
            assert len(mine) == len(oracle)
            for vec in mine:
                assert in_span([Fraction(v) for v in vec], oracle)

    def test_kernel_nonempty_up_to_ten(self):
        for n in range(11):
            assert len(solve_wn(n)) >= 1

    def test_derivative_conditions_vanish(self):
        for n in range(6):
            for p in solve_wn(n):
                q = p
                for _ in range(2 * n + 2):
                    assert q.evaluate(1) == GaussianRational(0)
                    q = q.derivative()

    def test_divisibility(self):
        for n in range(6):
            for p in solve_wn(n):
                assert divides_power(p, 1, 2 * n + 2)


class TestSymmetrize:
    def test_square_doubles(self):
        p = UnivariatePoly([1, -2, 1])
        assert symmetrize(p, 0) == p.scale(2)

    def test_palindromic_doubles(self):
        p = UnivariatePoly([3, 7, 3])
        assert symmetrize(p, 0) == p.scale(2)

    def test_involution_identity(self):
        # symmetrize(symmetrize(P)) = 2 * symmetrize(P) for deg <= 4n+2
        for n in range(3):
            p = UnivariatePoly(list(range(1, 4 * n + 4)))
            s = symmetrize(p, n)
            assert symmetrize(s, n) == s.scale(2)

    def test_preserves_divisibility(self):
        for n in range(4):
            for p in solve_wn(n):
                s = symmetrize(p, n)
                if s.is_zero():
                    continue
                assert divides_power(s, 1, 2 * n + 2)

    def test_degree_guard(self):
        with pytest.raises(ValueError):
            symmetrize(UnivariatePoly.monomial(3), 0)


class TestMembership:
    def test_table_up_to_ten(self):
        # empirical table: every index up to 10 admits a witness
        for n in range(11):
            found, witness = membership_N(n)
            assert found, n
            assert not witness.coefficient(0).is_zero()
            assert not witness.coefficient(4 * n + 2).is_zero()
            assert divides_power(witness, 1, 2 * n + 2)

    def test_witnesses_golden(self):
        assert membership_N(0)[1] == UnivariatePoly([1, -2, 1])
        assert membership_N(1)[1] == UnivariatePoly(P1_COEFFS)


class TestBuildFamily:
    def test_n0_reproduces_diagonal_family(self):
        rec = build_family(0, UnivariatePoly([1, -2, 1]))
        expected = MixedFunction(
            BivariatePoly.variable("x") + BivariatePoly.variable("y"), -2, 1)
        assert rec.family == expected
        assert rec.q_n == UnivariatePoly([1, 1])
        assert rec.c_n == GaussianRational(-2)

    def test_n1_q_and_c(self):
        rec = build_family(1, UnivariatePoly(P1_COEFFS))
        assert rec.c_n == GaussianRational(16)
        assert rec.q_n == UnivariatePoly([1, -9, -9, 1])
        expected_q = BivariatePoly({(0, 3): 1, (1, 2): -9, (2, 1): -9, (3, 0): 1})
        assert rec.big_q == expected_q

    def test_homogeneity(self):
        for n in range(6):
            rec = counterexample_record(n)
            degs = {m + k for (m, k) in rec.big_q.support}
            assert degs == {2 * n + 1}
            assert (2 * n + 1, 0) in rec.big_q.support
            assert (0, 2 * n + 1) in rec.big_q.support

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            build_family(0, UnivariatePoly([1, 0, 0, 1]))  # degree too high
        with pytest.raises(ValueError):
            build_family(1, UnivariatePoly([0, 0, -2, 0, 1]))  # zero extremes


class TestVerifyViolation:
    S_SAMPLES = [Fraction(1, 10), Fraction(1, 7), Fraction(1, 3)]

    def test_families_up_to_five(self):
        for n in range(6):
            rec = counterexample_record(n)
            rep = verify_violation(rec, self.S_SAMPLES)
            assert rep.identity_ok and rep.violated
            assert rep.central == Exponent(Fraction(1, 2 * n + 1))
            assert rep.fiber <= Exponent(Fraction(1, 2 * n + 2))

    def test_n0_exponent_pair(self):
        rep = verify_violation(counterexample_record(0), self.S_SAMPLES)
        assert rep.central == Exponent(1)
        assert rep.fiber == Exponent(Fraction(1, 2))

    def test_n1_exponent_pair(self):
        rep = verify_violation(counterexample_record(1), self.S_SAMPLES)
        assert rep.central == Exponent(Fraction(1, 3))
        assert rep.fiber == Exponent(Fraction(1, 4))
        assert rep.fiber_order == 4

    def test_fiber_identity_is_polynomial_identity(self):
        # x^(2n+1) F_n(x, s^2/x) = s^(4n+2) P_n(x/s) with exact coefficients
        rec = counterexample_record(1)
        s = Fraction(1, 2)
        fib = substitute_fiber(rec.family, s * s, s=s)
        lhs = fib.combined_numerator().times_power(3 - fib.pole_order)
        srat = GaussianRational(s)
        rhs = rec.p_n.dilate(srat.inverse()).scale(srat ** 6)
        assert lhs == rhs

    def test_broken_record_raises(self):
        from dataclasses import replace

        rec = counterexample_record(0)
        bad = replace(rec, p_n=UnivariatePoly([1, -3, 1]))
        with pytest.raises(ViolationCheckError):
            verify_violation(bad, [Fraction(1, 10)])

    def test_nonpositive_s_rejected(self):
        rec = counterexample_record(0)
        with pytest.raises(ValueError):
            verify_violation(rec, [Fraction(-1, 10)])
        with pytest.raises(ValueError):
            verify_violation(rec, [])


class TestHolderProbe:
    def test_half_exponent_block_n0(self):
        res = holder_probe(0, 1.0)
        assert res.estimate == pytest.approx(0.5, abs=0.05)

    def test_half_exponent_block_n1(self):
        res = holder_probe(1, 1.0)
        assert res.estimate == pytest.approx(0.5, abs=0.05)

    def test_smooth_control_saturates(self):
        res = holder_probe(0, 1.0, profile=lambda r: r ** 3)
        assert res.estimate == pytest.approx(1.0)
        assert res.raw_slope > 1.0

    def test_degenerate_scale_rejected(self):
        with pytest.raises(ValueError):
            holder_probe(0, 0.0)
        with pytest.raises(ValueError):
            holder_probe(-1, 1.0)
