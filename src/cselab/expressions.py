"""Expression text for exact functions: parsing and canonical printing.

Grammar (whitespace-insensitive, no floats; rationals are written a/b):

    expr    := term (('+' | '-') term)*
    term    := unary ('*' unary)*
    unary   := '-' unary | power
    power   := atom ('^' NAT)?
    atom    := NUMBER | 'i' | 'x' | 'y' | 'z' | '(' expr ')' | radial
    radial  := 'abs' '(' expr ')' '^' '(' ODD '/' '2' ')'
    NUMBER  := INT ('/' INT)?

The radial atom must wrap exactly the monomial x*y and may appear at most
once, as a top-level additive term scaled by a constant: that is the only
non-holomorphic shape the library computes with.  The parser builds values
while it reads, with no syntax tree: each rule returns a polynomial in x, y
(z is carried as x), the radial coefficient and exponent, and the set of
variable names written.  A well-formed expression becomes exactly one
BivariatePoly (variables x, y), UnivariatePoly (variable z) or
MixedFunction.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .polynomials import BivariatePoly, MixedFunction, UnivariatePoly
from .rationals import GaussianRational, pair_signed, _int_pair


class ExpressionError(ValueError):
    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


# -- tokens ------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(?:(\d+(?:/\d+)?)|([A-Za-z]+)|([()+\-*^]))")


@dataclass(frozen=True)
class _Tok:
    kind: str   # 'num' | 'name' | 'sym' | 'end'
    text: str
    pos: int


def _tokenize(text: str):
    toks, pos = [], 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ExpressionError(f"unexpected character {stripped[0]!r}",
                                  len(text) - len(stripped))
        num, name, sym = m.groups()
        at = m.start(1) if num else m.start(2) if name else m.start(3)
        if num:
            toks.append(_Tok("num", num, at))
        elif name:
            toks.append(_Tok("name", name, at))
        else:
            toks.append(_Tok("sym", sym, at))
        pos = m.end()
    toks.append(_Tok("end", "", len(text)))
    return toks


# -- values ------------------------------------------------------------------

@dataclass(frozen=True)
class _Val:
    """poly + radial_coeff * |xy|^(radial_p/2), and the variable names written.

    z is carried as x in poly; the z/x/y checks read names, never poly.
    """
    poly: BivariatePoly
    radial_coeff: GaussianRational = GaussianRational(0)
    radial_p: int | None = None
    names: frozenset = frozenset()

    @property
    def has_radial(self):
        return not self.radial_coeff.is_zero()

    def __neg__(self):
        return _Val(-self.poly, -self.radial_coeff, self.radial_p, self.names)


def _check_mix(names) -> None:
    if "z" in names and names & {"x", "y"}:
        raise ExpressionError("cannot mix z with x and y in one expression")


# -- parsing -----------------------------------------------------------------

class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.k = 0

    def peek(self) -> _Tok:
        return self.toks[self.k]

    def next(self) -> _Tok:
        t = self.toks[self.k]
        self.k += 1
        return t

    def at_sym(self, syms: str) -> bool:
        t = self.peek()
        return t.kind == "sym" and t.text in syms

    def expect_sym(self, sym: str) -> _Tok:
        t = self.next()
        if t.kind != "sym" or t.text != sym:
            raise ExpressionError(f"expected {sym!r}", t.pos)
        return t

    def parse(self) -> _Val:
        v = self.expr()
        t = self.peek()
        if t.kind != "end":
            raise ExpressionError(f"unexpected token {t.text!r}", t.pos)
        return v

    def expr(self) -> _Val:
        a = self.term()
        while self.at_sym("+-"):
            op = self.next()
            b = self.term()
            if op.text == "-":
                b = -b
            if a.has_radial and b.has_radial:
                raise ExpressionError("at most one radial term is allowed",
                                      op.pos)
            a = _Val(a.poly + b.poly, a.radial_coeff + b.radial_coeff,
                     a.radial_p if a.has_radial else b.radial_p,
                     a.names | b.names)
        return a

    def term(self) -> _Val:
        a = self.unary()
        while self.at_sym("*"):
            star = self.next()
            b = self.unary()
            if a.has_radial and b.has_radial:
                raise ExpressionError("radial terms cannot be multiplied "
                                      "together", star.pos)
            if b.has_radial:
                a, b = b, a
            names = a.names | b.names
            if not a.has_radial:
                a = _Val(a.poly * b.poly, names=names)
                continue
            if set(b.poly.terms) - {(0, 0)}:
                raise ExpressionError(
                    "a radial term may only be scaled by a constant", star.pos)
            s = b.poly.support.get((0, 0), GaussianRational(0))
            a = _Val(a.poly * b.poly, a.radial_coeff * s, a.radial_p, names)
        return a

    def unary(self) -> _Val:
        if self.at_sym("-"):
            self.next()
            return -self.unary()
        return self.power()

    def power(self) -> _Val:
        base = self.atom()
        if not self.at_sym("^"):
            return base
        caret = self.next()
        if base.has_radial:
            raise ExpressionError("radial terms cannot be exponentiated",
                                  caret.pos)
        e = self.next()
        if e.kind != "num" or "/" in e.text:
            raise ExpressionError("exponent must be a nonnegative integer",
                                  e.pos)
        return _Val(base.poly ** int(e.text), names=base.names)

    def atom(self) -> _Val:
        t = self.next()
        if t.kind == "num":
            try:
                value = Fraction(t.text)
            except ZeroDivisionError:
                raise ExpressionError("division by zero", t.pos) from None
            return _Val(BivariatePoly.monomial(0, 0, value))
        if t.kind == "name":
            if t.text == "i":
                return _Val(BivariatePoly.monomial(0, 0, GaussianRational(0, 1)))
            if t.text in ("x", "y", "z"):
                var = "x" if t.text == "z" else t.text
                return _Val(BivariatePoly.variable(var), names=frozenset({t.text}))
            if t.text == "abs":
                return self.radial(t.pos)
            raise ExpressionError(f"unknown name {t.text!r}", t.pos)
        if t.kind == "sym" and t.text == "(":
            v = self.expr()
            self.expect_sym(")")
            return v
        raise ExpressionError(f"unexpected token {t.text!r}", t.pos)

    def radial(self, at: int) -> _Val:
        self.expect_sym("(")
        inner = self.expr()
        self.expect_sym(")")
        caret = self.next()
        if caret.kind != "sym" or caret.text != "^":
            raise ExpressionError(
                "abs(...) must be raised to an explicit half-integer power "
                "(p/2)", caret.pos)
        self.expect_sym("(")
        num = self.next()
        if num.kind != "num":
            raise ExpressionError("expected p/2 inside the radial exponent",
                                  num.pos)
        if "/" in num.text:
            p_txt, q_txt = num.text.split("/")
        else:
            p_txt = num.text
            self.expect_sym("/")  # will fail with a targeted message
            q_txt = ""
        if q_txt != "2":
            raise ExpressionError("radial exponents must have denominator 2",
                                  num.pos)
        p = int(p_txt)
        if p <= 0 or p % 2 == 0:
            raise ExpressionError("radial exponent numerator must be odd and "
                                  "positive", num.pos)
        self.expect_sym(")")
        _check_mix(inner.names)
        if "z" in inner.names or inner.has_radial or \
                inner.poly != BivariatePoly.monomial(1, 1):
            raise ExpressionError("abs(...) must wrap exactly the monomial x*y",
                                  at)
        return _Val(BivariatePoly.zero(), GaussianRational(1), p,
                    frozenset({"x", "y"}))


def parse_expression(text: str):
    """Parse text to a BivariatePoly, UnivariatePoly or MixedFunction."""
    v = _Parser(text).parse()
    _check_mix(v.names)
    if "z" in v.names:
        return v.poly.restrict_x_axis()
    if v.has_radial:
        return MixedFunction(v.poly, v.radial_coeff, v.radial_p)
    return v.poly


# -- canonical printing ------------------------------------------------------

def _terms(poly, var="z"):
    """(sign, body) per nonzero term of a BivariatePoly, or of a UnivariatePoly
    in the variable var."""
    if isinstance(poly, BivariatePoly):
        items = [((("x", m), ("y", n)), poly.terms[m, n]) for m, n in sorted(poly.terms)]
    else:
        items = [(((var, e),), c) for e, c in enumerate(poly.nums) if c != (0, 0)]
    terms = []
    for powers, (cr, ci) in items:
        mono = "*".join(v if e == 1 else f"{v}^{e}" for v, e in powers if e)
        sign, coeff = pair_signed(cr, ci, poly.den, unit=bool(mono))
        terms.append((sign, "*".join(filter(None, (coeff, mono)))))
    return terms


def _join_terms(terms) -> str:
    out = []
    for idx, (sign, body) in enumerate(terms):
        if idx == 0:
            out.append(("-" if sign == "-" else "") + body)
        else:
            out.append(f" {sign} {body}")
    return "".join(out)


def format_function(obj) -> str:
    """Canonical text form; parse(format_function(v)) reproduces v."""
    if isinstance(obj, MixedFunction):
        if obj.is_holomorphic():
            return format_function(obj.holo)
        sign, coeff = pair_signed(*_int_pair(obj.radial_coeff), unit=True)
        radial = f"abs(x*y)^({obj.radial_half_exp}/2)"
        return _join_terms(
            _terms(obj.holo) + [(sign, "*".join(filter(None, (coeff, radial))))])
    if not isinstance(obj, (BivariatePoly, UnivariatePoly)):
        raise TypeError("expected BivariatePoly, UnivariatePoly or MixedFunction")
    if isinstance(obj, UnivariatePoly) and obj.degree < 1:
        # a constant names z, so that it reads back as a UnivariatePoly
        sign, coeff = pair_signed(*(obj.nums or ((0, 0),))[0], obj.den, unit=True)
        return _join_terms([(sign, "*".join(filter(None, (coeff, "z^0"))))])
    return _join_terms(_terms(obj)) or "0"
