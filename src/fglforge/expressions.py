"""Coefficient expression grammar: parsing, evaluation, canonical printing.

Grammar (EBNF):

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' int)?
    atom   := int | int '/' int | ident | '(' expr ')' | '-' atom

Exponents are integer literals (possibly negative); anything else after '^'
is rejected as NonIntegerExponent.  Printing is canonical: parse-print-parse
is idempotent and printed forms always re-parse to an equal element.  Each
ring class prints its own payloads (CoefficientRing.to_expr) in this grammar.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ExpressionSyntaxError, NonIntegerExponent, UnknownVariable
from .rings import RingElement

_SYMBOLS = "+-*^()/"


def _tokenize(src: str):
    tokens = []
    i = 0
    n = len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            tokens.append(("int", int(src[i:j]), i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(("ident", src[i:j], i))
            i = j
            continue
        if ch in _SYMBOLS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ExpressionSyntaxError(f"unexpected character {ch!r}", column=i)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.advance()
        if tok[0] != kind:
            raise ExpressionSyntaxError(
                f"expected {kind!r}, found {tok[1]!r}", column=tok[2]
            )
        return tok

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ExpressionSyntaxError(f"unexpected {tok[1]!r}", column=tok[2])
        return node

    def expr(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            node = ("add" if op == "+" else "sub", node, rhs)
        return node

    def term(self):
        node = self.factor()
        while self.peek()[0] == "*":
            self.advance()
            node = ("mul", node, self.factor())
        return node

    def factor(self):
        node = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            node = ("pow", node, self.exponent())
            if self.peek()[0] == "/":
                tok = self.peek()
                raise NonIntegerExponent(
                    "exponents must be integer literals", column=tok[2]
                )
        return node

    def exponent(self) -> int:
        tok = self.peek()
        if tok[0] == "(":
            raise NonIntegerExponent(
                "exponents must be integer literals", column=tok[2]
            )
        sign = 1
        if tok[0] == "-":
            self.advance()
            sign = -1
            tok = self.peek()
        if tok[0] != "int":
            raise NonIntegerExponent(
                "exponents must be integer literals", column=tok[2]
            )
        self.advance()
        return sign * tok[1]

    def atom(self):
        tok = self.advance()
        if tok[0] == "int":
            if self.peek()[0] == "/":
                self.advance()
                den = self.expect("int")
                if den[1] == 0:
                    raise ExpressionSyntaxError("division by zero", column=den[2])
                return ("rat", tok[1], den[1])
            return ("int", tok[1])
        if tok[0] == "ident":
            return ("var", tok[1], tok[2])
        if tok[0] == "(":
            node = self.expr()
            self.expect(")")
            return node
        if tok[0] == "-":
            return ("neg", self.atom())
        raise ExpressionSyntaxError(f"unexpected {tok[1]!r}", column=tok[2])


def parse_tree(src: str):
    return _Parser(src).parse()


def _eval_tree(node, ring, gens):
    op = node[0]
    if op == "int":
        return ring.from_int(node[1])
    if op == "rat":
        return ring.from_fraction(Fraction(node[1], node[2]))
    if op == "var":
        name = node[1]
        if name not in gens:
            raise UnknownVariable(f"unknown variable {name!r}", column=node[2])
        return gens[name]
    if op == "neg":
        return -_eval_tree(node[1], ring, gens)
    if op == "add":
        return _eval_tree(node[1], ring, gens) + _eval_tree(node[2], ring, gens)
    if op == "sub":
        return _eval_tree(node[1], ring, gens) - _eval_tree(node[2], ring, gens)
    if op == "mul":
        return _eval_tree(node[1], ring, gens) * _eval_tree(node[2], ring, gens)
    if op == "pow":
        return _eval_tree(node[1], ring, gens) ** node[2]
    raise AssertionError(f"unknown node {op}")


def parse_expression(src: str, ring) -> RingElement:
    """Evaluate the expression in the ring; variables resolve to generators."""
    return _eval_tree(parse_tree(src), ring, ring.generators())


# -- canonical printing --------------------------------------------------------


def element_to_expr(elt: RingElement) -> str:
    """Canonical expression string; re-parses to an equal element.

    Function-ring elements (tuples of rationals) render as plain lists;
    they are display-only and not part of the expression grammar.
    """
    return elt.ring.to_expr(elt.payload)
