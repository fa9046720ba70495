"""Coefficient expression grammar: parsing, evaluation, canonical printing.

Grammar (EBNF):

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' int)?
    atom   := int | int '/' int | ident | '(' expr ')' | '-' atom

Exponents are integer literals (possibly negative); anything else after '^'
is rejected as NonIntegerExponent.  The parser bounds the work of evaluating
an expression by its weight: 0 for a literal, 1 for a variable, the maximum
over a sum, the sum over a product and |e| max(1, w) for a power; a tree of
weight above MAX_WEIGHT is refused before anything is evaluated.  Parentheses
and unary minus may nest at most MAX_NESTING deep; a chain of sums or
products may be of any length, as it is evaluated in a loop.

Printing is canonical: parse-print-parse is idempotent and printed forms
always re-parse to an equal element.  Each ring class prints its own
payloads (CoefficientRing.to_expr) in this grammar.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .errors import ExpressionSyntaxError, NonIntegerExponent, UnknownVariable
from .rings import RingElement

_SYMBOLS = "+-*^()/"
# the canonical forms printed within the CLI's caps raise variables to at
# most the 63rd power, while (1+2*beta)^4000 would run for half a minute
MAX_WEIGHT = 64
# the parser recurses once per parenthesis or unary minus, and so does the
# evaluation of what they enclose
MAX_NESTING = 64


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
        self.depth = 0

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
        node, _ = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ExpressionSyntaxError(f"unexpected {tok[1]!r}", column=tok[2])
        return node

    # expr, term, factor and atom return a node and its weight
    def expr(self):
        node, weight = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs, w = self.term()
            node, weight = ("add" if op == "+" else "sub", node, rhs), max(weight, w)
        return node, weight

    def term(self):
        node, weight = self.factor()
        while self.peek()[0] == "*":
            column = self.advance()[2]
            rhs, w = self.factor()
            node, weight = ("mul", node, rhs), _bounded(weight + w, column)
        return node, weight

    def factor(self):
        node, weight = self.atom()
        if self.peek()[0] == "^":
            column = self.advance()[2]
            e = self.exponent()
            node, weight = ("pow", node, e), _bounded(abs(e) * max(1, weight), column)
            if self.peek()[0] == "/":
                tok = self.peek()
                raise NonIntegerExponent(
                    "exponents must be integer literals", column=tok[2]
                )
        return node, weight

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
                return ("rat", tok[1], den[1]), 0
            return ("int", tok[1]), 0
        if tok[0] == "ident":
            return ("var", tok[1], tok[2]), 1
        if tok[0] not in ("(", "-"):
            raise ExpressionSyntaxError(f"unexpected {tok[1]!r}", column=tok[2])
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ExpressionSyntaxError(
                f"parentheses and unary minus nested deeper than {MAX_NESTING}",
                column=tok[2],
            )
        if tok[0] == "(":
            node, weight = self.expr()
            self.expect(")")
        else:
            node, weight = self.atom()
            node = ("neg", node)
        self.depth -= 1
        return node, weight


def _bounded(weight: int, column: int) -> int:
    if weight > MAX_WEIGHT:
        raise ExpressionSyntaxError(
            f"expression too large to evaluate: weight {weight} above {MAX_WEIGHT}",
            column=column,
        )
    return weight


def parse_tree(src: str):
    return _Parser(src).parse()


_BINARY = {"add": operator.add, "sub": operator.sub, "mul": operator.mul}


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
    if op in _BINARY:
        # a chain a + b - c ... nests to the left: walk its spine in a loop,
        # and apply the operators from the innermost, left to right
        spine = []
        while node[0] in _BINARY:
            spine.append(node)
            node = node[1]
        value = _eval_tree(node, ring, gens)
        for kind, _, rhs in reversed(spine):
            value = _BINARY[kind](value, _eval_tree(rhs, ring, gens))
        return value
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
