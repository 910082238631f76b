"""The closed-form W_n generator and the exponent-violation families.

The generator is cross-checked against two independent oracles: plain
Fraction row reduction of the derivative conditions, and the divided
difference over the exponents from the general node products (no shared
code with the factorial closed form).  verify_violation, which forms the
fiber identity once per record, is checked against frozen_verify, a frozen
copy of the per-sample verification it replaced.
"""

import math
import re
from dataclasses import replace
from fractions import Fraction
from itertools import accumulate, repeat
from math import prod
from operator import mul

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
    ViolationReport,
    build_family,
    counterexample_record,
    divides_power,
    holder_probe,
    substitute_fiber,
    vanishing_order,
    verify_violation,
    vn_basis,
    wn_generator,
)
from cselab.counterexamples import _fiber_identity
from cselab.degeneration import central_exponent

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


def derivative_condition_matrix(n):
    """Row j: the Taylor coefficient P^(j)(1)/j! = sum_e v_e comb(e, j) in V_n coordinates."""
    exps = vn_basis(n)
    return [[math.comb(e, j) for e in exps] for j in range(2 * n + 2)]


def integer_coords(p, n):
    """V_n coordinates of a rational p, scaled to integers by a common denominator."""
    coords = [p.coefficient(e) for e in vn_basis(n)]
    assert all(c.im == 0 for c in coords)
    den = math.lcm(*(c.re.denominator for c in coords))
    return [int(c.re * den) for c in coords]


def node_products(nodes):
    """The products prod_{f != e} (e - f) over any distinct int nodes, in node order."""
    if len(set(nodes)) != len(nodes):
        raise ValueError("divided-difference nodes must be distinct")
    return [prod(e - f for f in nodes if f != e) for e in nodes]


def divided_difference_weights(nodes):
    return [Fraction(1, w) for w in node_products(nodes)]


def dilate(p, a):
    """P(a*z), coefficient by coefficient."""
    return UnivariatePoly([c * a ** k for k, c in enumerate(p.coeffs)])


# -- oracle: the per-sample verification, frozen -------------------------------

def frozen_verify(record, s_samples):
    """verify_violation as it was when it re-proved the fiber identity for each
    sample: substitute_fiber, a cross-multiplied comparison with P_n, and the
    order of the fiber function at x = s.  Kept unchanged as an oracle."""
    n = record.n
    samples = tuple(Fraction(s) for s in s_samples)
    if not samples:
        raise ValueError("need at least one s sample")
    for s in samples:
        if s <= 0:
            raise ValueError("s samples must be positive rationals")
    ord_z1 = vanishing_order(record.p_n, 1)

    for s in samples:
        fib = substitute_fiber(record.family, s * s)
        d = fib.pole_order
        if d > 2 * n + 1:
            raise ViolationCheckError("fiber pole order exceeds 2n+1")
        num, rhs = fib.numerator, record.p_n.nums
        top = max(4 * n + 2, len(rhs) - 1)
        pk = list(accumulate(repeat(s.numerator, top), mul, initial=1))[::-1]
        qk = list(accumulate(repeat(s.denominator, top), mul, initial=1))[::-1]
        lhs = ((0, 0),) * (2 * n + 1 - d) + num.nums
        a, b = num.den * qk[4 * n + 2], record.p_n.den * pk[4 * n + 2]
        if len(lhs) != len(rhs) or any(
                (lr * b * y, li * b * y) != (cr * a * x, ci * a * x)
                for (lr, li), (cr, ci), x, y in zip(lhs, rhs, pk, qk)):
            raise ViolationCheckError(
                f"fiber identity failed at n={n}, s={s}: construction bug")
        if vanishing_order(fib, s) != ord_z1:
            raise ViolationCheckError("fiber exponent mismatch")

    central = central_exponent(record.family, "min")
    fiber_exp = Exponent.reciprocal_order(ord_z1)
    violated = (fiber_exp < central
                and fiber_exp <= Exponent(Fraction(1, 2 * n + 2))
                and central == Exponent(Fraction(1, 2 * n + 1)))
    return ViolationReport(n=n, s_samples=samples, identity_ok=True, fiber_order=ord_z1,
                           central=central, fiber=fiber_exp, violated=violated)


class TestDividedDifferenceWeights:
    @given(nodes=st.lists(st.integers(-20, 20), min_size=1, max_size=8, unique=True))
    @settings(max_examples=100, derandomize=True)
    def test_annuls_lower_powers_and_picks_the_leading_one(self, nodes):
        w = divided_difference_weights(nodes)
        m = len(nodes) - 1
        for k in range(m):
            assert sum(wi * e ** k for wi, e in zip(w, nodes)) == 0
        assert sum(wi * e ** m for wi, e in zip(w, nodes)) == 1

    def test_repeated_nodes_rejected(self):
        with pytest.raises(ValueError):
            divided_difference_weights([0, 2, 2])


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
    """W_n solved in closed form by wn_generator, against the oracles."""

    def test_n0_golden(self):
        assert wn_generator(0) == UnivariatePoly([1, -2, 1])

    def test_n1_golden(self):
        p = wn_generator(1)
        assert p == UnivariatePoly(P1_COEFFS)
        assert vanishing_order(p, 1) == 4

    def test_matches_rref_oracle(self):
        for n in [*range(13), 25]:
            oracle = rref_nullspace(derivative_condition_matrix(n))
            assert len(oracle) == 1
            assert in_span([Fraction(v) for v in integer_coords(wn_generator(n), n)],
                           oracle)

    def test_kernel_nonempty_up_to_ten(self):
        # the generator is nonzero, of degree 4n+2 with leading coefficient 1
        for n in range(11):
            p = wn_generator(n)
            assert p.degree == 4 * n + 2
            assert p.coefficient(4 * n + 2) == GaussianRational(1)

    def test_derivative_conditions_vanish(self):
        for n in range(6):
            q = wn_generator(n)
            for _ in range(2 * n + 2):
                assert q.evaluate(1) == GaussianRational(0)
                q = q.derivative()
            assert q.evaluate(1) != GaussianRational(0)

    def test_divisibility(self):
        for n in range(6):
            assert divides_power(wn_generator(n), 1, 2 * n + 2)


class TestClosedForm:
    """The factorial closed form against the general divided difference, and
    the facts behind the Descartes argument, for every n <= 40."""

    N_MAX = 40

    def test_equals_the_general_divided_difference(self):
        for n in range(self.N_MAX + 1):
            exps = vn_basis(n)
            w = dict(zip(exps, divided_difference_weights(exps)))
            top = w[4 * n + 2]
            assert wn_generator(n) == UnivariatePoly(
                [w.get(e, 0) / top for e in range(4 * n + 3)]), n

    def test_middle_coefficient(self):
        # c_n = (-1)^(n+1) (2n+1) 2^(3n+1) n! / (2n+1)!!
        for n in range(self.N_MAX + 1):
            c_n = Fraction((-1) ** (n + 1) * (2 * n + 1) * 2 ** (3 * n + 1) * math.factorial(n),
                           prod(range(1, 2 * n + 2, 2)))
            assert wn_generator(n).coefficient(2 * n + 1) == GaussianRational(c_n)

    def test_annuls_the_condition_rows(self):
        for n in range(self.N_MAX + 1):
            v = integer_coords(wn_generator(n), n)
            for row in derivative_condition_matrix(n):
                assert sum(a * b for a, b in zip(row, v)) == 0

    def test_extremes_nonzero_and_signs_alternate(self):
        for n in range(self.N_MAX + 1):
            p = wn_generator(n)
            assert not p.coefficient(0).is_zero()
            assert not p.coefficient(4 * n + 2).is_zero()
            signs = [p.coefficient(e).re > 0 for e in sorted(vn_basis(n))]
            assert all(a != b for a, b in zip(signs, signs[1:])), n

    def test_palindromic(self):
        for n in range(self.N_MAX + 1):
            p = wn_generator(n)
            assert p.degree == 4 * n + 2
            assert p.coefficient(0) == p.coefficient(4 * n + 2) == GaussianRational(1)
            assert UnivariatePoly(reversed(p.coeffs)) == p

    def test_order_at_one_is_exact(self):
        for n in range(self.N_MAX + 1):
            assert vanishing_order(wn_generator(n), 1) == 2 * n + 2

    def test_record_fiber_exponent(self):
        for n in range(self.N_MAX + 1):
            rec = counterexample_record(n)
            assert rec.fiber_exponent_at_diagonal == Exponent(Fraction(1, 2 * n + 2))


class TestMembership:
    """Every n is in N; the record carries the generator as its witness."""

    def test_table_up_to_ten(self):
        for n in range(11):
            rec = counterexample_record(n)
            assert rec.in_n
            assert rec.p_n == wn_generator(n)
            assert divides_power(rec.p_n, 1, 2 * n + 2)

    def test_witnesses_golden(self):
        assert counterexample_record(0).p_n == UnivariatePoly([1, -2, 1])
        assert counterexample_record(1).p_n == UnivariatePoly(P1_COEFFS)


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
        with pytest.raises(ValueError):
            build_family(0, UnivariatePoly([1, -3, 1]))  # not in W_0


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
        fib = substitute_fiber(rec.family, s * s)
        lhs = fib.numerator * UnivariatePoly.monomial(3 - fib.pole_order)
        srat = GaussianRational(s)
        rhs = dilate(rec.p_n, srat.inverse()).scale(srat ** 6)
        assert lhs == rhs

    def test_broken_record_raises(self):
        from dataclasses import replace

        rec = counterexample_record(0)
        bad = replace(rec, p_n=UnivariatePoly([1, -3, 1]))
        with pytest.raises(ViolationCheckError):
            verify_violation(bad, [Fraction(1, 10)])

    @given(n=st.integers(0, 3), s=st.fractions(Fraction(1, 40), 4, max_denominator=40),
           k=st.integers(0, 14), delta=st.sampled_from([0, 1, -1, Fraction(1, 7)]))
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_identity_check_agrees_with_the_rational_identity(self, n, s, k, delta):
        # verify_violation evaluates the identity formed once in (x, s); the
        # oracle is the identity on Gaussian-rational polynomials
        from dataclasses import replace

        rec = counterexample_record(n)
        p_n = rec.p_n + UnivariatePoly.monomial(k % (4 * n + 3), delta)
        fib = substitute_fiber(rec.family, s * s)
        srat = GaussianRational(s)
        holds = (fib.numerator * UnivariatePoly.monomial(2 * n + 1 - fib.pole_order)
                 == dilate(p_n, srat.inverse()).scale(srat ** (4 * n + 2)))
        assert holds == (delta == 0)
        if holds:
            assert verify_violation(replace(rec, p_n=p_n), [s]).violated
        else:
            with pytest.raises(ViolationCheckError, match="fiber identity"):
                verify_violation(replace(rec, p_n=p_n), [s])

    def test_identity_above_degree_4n_plus_2(self):
        # P + c (z^7 - z^6) (n = 1, so 4n+2 = 6) matches the family only after
        # it gains (c/s) x^4 - c x^3: times x^(2n+1-d) = x^3 on the fiber these
        # give c x^7 / s - c x^6 = s^6 c ((x/s)^7 - (x/s)^6)
        from dataclasses import replace

        rec, s, c = counterexample_record(1), Fraction(2, 3), Fraction(-5, 4)
        p_n = rec.p_n + UnivariatePoly.monomial(7, c) - UnivariatePoly.monomial(6, c)
        for extra in (UnivariatePoly.monomial(7), UnivariatePoly.monomial(9, -1)):
            with pytest.raises(ViolationCheckError, match="fiber identity"):
                verify_violation(replace(rec, p_n=rec.p_n + extra), [s])
        with pytest.raises(ViolationCheckError, match="fiber identity"):
            verify_violation(replace(rec, p_n=p_n), [s])
        def family(top):
            return MixedFunction(rec.big_q + BivariatePoly.monomial(4, 0, top)
                                 - BivariatePoly.monomial(3, 0, c), rec.c_n, 3)

        with pytest.raises(ViolationCheckError, match="fiber identity"):
            verify_violation(replace(rec, p_n=p_n, family=family(2 * c / s)), [s])
        rep = verify_violation(replace(rec, p_n=p_n, family=family(c / s)), [s])
        assert rep.identity_ok and rep.fiber_order == vanishing_order(p_n, 1) == 1

    def test_nonpositive_s_rejected(self):
        rec = counterexample_record(0)
        with pytest.raises(ValueError):
            verify_violation(rec, [Fraction(-1, 10)])
        with pytest.raises(ValueError):
            verify_violation(rec, [])

    @pytest.mark.parametrize("sample, value", [
        (GaussianRational(Fraction(1, 3)), Fraction(1, 3)),
        ("3/5", Fraction(3, 5)),
        (0.25, Fraction(1, 4)),
        (2, Fraction(2)),
    ])
    def test_samples_taken_through_the_one_coercion(self, sample, value):
        rep = verify_violation(counterexample_record(1), [sample])
        assert rep.s_samples == (value,) and type(rep.s_samples[0]) is Fraction

    @pytest.mark.parametrize("sample", [
        GaussianRational(1, 1), complex(0.5, 1), float("nan"), float("inf"),
        complex("nan+1j"), GaussianRational(0), -0.5,
    ])
    def test_bad_samples_raise_naming_the_sample(self, sample):
        with pytest.raises(ValueError, match=re.escape(f"s={sample!r}")):
            verify_violation(counterexample_record(1), [Fraction(1, 3), sample])

    def test_fiber_order_is_the_order_at_s(self):
        # the per-sample check the dilation argument replaced, now made here
        for n in range(7):
            rec = counterexample_record(n)
            rep = verify_violation(rec, self.S_SAMPLES)
            for s in self.S_SAMPLES:
                assert vanishing_order(substitute_fiber(rec.family, s * s), s) == rep.fiber_order

    @staticmethod
    def spy_calls(monkeypatch):
        """The names of the vanishing_order ("order") and substitute_fiber
        ("fiber") calls made from here on, in order."""
        import cselab.counterexamples as ce
        import cselab.polynomials as poly

        calls = []

        def spy(name, fn):
            def wrapped(*args):
                calls.append(name)
                return fn(*args)
            return wrapped

        for mod in (ce, poly):
            monkeypatch.setattr(mod, "vanishing_order", spy("order", vanishing_order))
            monkeypatch.setattr(mod, "substitute_fiber", spy("fiber", substitute_fiber),
                                raising=False)
        return calls

    @pytest.mark.parametrize("count", [1, 40])
    def test_cost_does_not_grow_with_the_sample_count(self, monkeypatch, count):
        # a built record carries the order build_family proved; a record whose
        # p_n was replaced (here P_n and F_n doubled, so the identity holds)
        # gets one proof of its own
        rec = counterexample_record(3)
        assert _fiber_identity(rec) == {}
        doubled = replace(rec, p_n=rec.p_n.scale(2),
                          family=MixedFunction(rec.big_q.scale(2), 2 * rec.c_n, 7))
        calls = self.spy_calls(monkeypatch)
        samples = [Fraction(k, k + 2) for k in range(1, count + 1)]
        assert verify_violation(rec, samples).violated
        assert calls == []
        assert verify_violation(doubled, samples) == verify_violation(rec, samples)
        assert calls == ["order"]

    @pytest.mark.parametrize("n", [0, 3, 12])
    def test_a_record_proves_its_order_once(self, monkeypatch, n):
        calls = self.spy_calls(monkeypatch)
        rec = counterexample_record(n)
        assert calls == ["order"]
        verify_violation(rec, [Fraction(1, 3)])
        assert calls == ["order"]

    @given(n=st.integers(0, 4), data=st.data())
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_agrees_with_the_per_sample_oracle(self, n, data):
        # perturb P_n, Q_n, c_n and nu, some by a term that cancels at one s0 only;
        # the report must be the frozen one, both must raise ViolationCheckError, or
        # both must raise the same other error
        pool = [Fraction(1, 7), Fraction(1, 3), Fraction(1), Fraction(3, 2)]
        rec = counterexample_record(n)
        p_n, big_q, c_n, nu = rec.p_n, rec.big_q, rec.c_n, 2 * n + 1
        coeffs = st.sampled_from([1, -2, Fraction(1, 7), GaussianRational(1, 1),
                                  GaussianRational(0, 1)])
        s0 = data.draw(st.sampled_from(pool))
        if data.draw(st.booleans()):
            p_n += UnivariatePoly.monomial(data.draw(st.integers(0, 4 * n + 5)),
                                           data.draw(coeffs))
        if data.draw(st.booleans()):
            big_q += BivariatePoly.monomial(data.draw(st.integers(0, 3)),
                                            data.draw(st.integers(0, 2 * n + 4)),
                                            data.draw(coeffs))
        if data.draw(st.booleans()):
            # a x^i y^j on the fiber is a s^(2j) x^e, e = 2n+1+i-j; s^(4n+2) P(x/s) gets
            # b s^(4n+2-e) x^e, and the two agree at s = s0 alone when i + j != 2n+1;
            # two such pairs with opposite b keep P(1) = 0
            for b in (3, -3):
                i = data.draw(st.integers(0, 3))
                j = data.draw(st.integers(0, 2 * n + 1 + i))
                big_q += BivariatePoly.monomial(i, j, b * s0 ** (2 * n + 1 - i - j))
                p_n += UnivariatePoly.monomial(2 * n + 1 + i - j, b)
        if data.draw(st.booleans()):
            c_n += data.draw(coeffs)
        if data.draw(st.booleans()):
            # c' s^nu' = c_n s^(2n+1) at s = s0 alone when nu' != 2n+1
            nu = data.draw(st.sampled_from(range(1, 4 * n + 6, 2)))
            c_n *= s0 ** (2 * n + 1 - nu)
        record = replace(rec, p_n=p_n, big_q=big_q, c_n=c_n,
                         family=MixedFunction(big_q, c_n, nu))
        samples = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4)
                            | st.lists(st.just(s0), min_size=1, max_size=4))
        try:
            want = frozen_verify(record, samples)
        except ViolationCheckError:
            with pytest.raises(ViolationCheckError):
                verify_violation(record, samples)
        except Exception as e:
            with pytest.raises(type(e), match=re.escape(str(e))):
                verify_violation(record, samples)
        else:
            assert verify_violation(record, samples) == want


class TestRecordWriter:
    def test_rendering_builds_no_scalar_per_coefficient(self, monkeypatch):
        # the record's coefficients are written from their integer numerators,
        # so the number of GaussianRationals built does not grow with n
        from cselab.reports import render_json

        built = []
        init = GaussianRational.__init__

        def counting_init(self, *args):
            built.append(1)
            init(self, *args)

        counts = {}
        for n in (10, 20):
            rec = counterexample_record(n)
            rep = verify_violation(rec, [Fraction(7, 13)])
            monkeypatch.setattr(GaussianRational, "__init__", counting_init)
            render_json({"record": rec, "verification": rep})
            monkeypatch.undo()
            counts[n] = len(built)
            built.clear()
        assert counts[10] == counts[20] <= 2


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

    @pytest.mark.parametrize("n, scale", [(128, 1.0), (60, 1.0), (9, 1e-30), (1, 1e300)])
    def test_a_probe_past_the_float_range_is_rejected(self, n, scale):
        # from n = 128 the stencil reaches r <= 0; h^n underflows at n = 60 and
        # at the scale 1e-30, and r^(n+1/2) overflows at the scale 1e300
        with pytest.raises(ValueError):
            holder_probe(n, scale)
