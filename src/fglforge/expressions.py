"""Coefficient expression grammar: parsing, evaluation, canonical printing.

Grammar (EBNF):

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' int)?
    atom   := int | int '/' int | ident | '(' expr ')' | '-' atom

Exponents are integer literals (possibly negative); anything else after '^'
is rejected as NonIntegerExponent.  Printing is canonical: parse-print-parse
is idempotent and printed forms always re-parse to an equal element.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ExpressionSyntaxError, NonIntegerExponent, UnknownVariable
from .gradedpoly import GradedPolynomialRing
from .rings import LaurentExtension, QuotientByPrincipal, RingElement

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


def _join_terms(terms):
    if not terms:
        return "0"
    out = terms[0]
    for t in terms[1:]:
        if t.startswith("-"):
            out += " - " + t[1:]
        else:
            out += " + " + t
    return out


def _needs_parens(s: str) -> bool:
    depth = 0
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in "+-" and depth == 0:
            return True
    return False


def _coeff_times(coeff_str: str, var_str: str) -> str:
    if coeff_str == "1":
        return var_str
    if coeff_str == "-1":
        # unary minus binds tighter than '^' in the grammar, so a leading
        # "-beta^-4" would re-parse as (-beta)^-4; spell the -1 out instead
        if "^" in var_str:
            return f"-1*{var_str}"
        return "-" + var_str
    if _needs_parens(coeff_str.lstrip("-")) or (
        coeff_str.startswith("-") and _needs_parens(coeff_str[1:])
    ):
        return f"({coeff_str})*{var_str}"
    return f"{coeff_str}*{var_str}"


def _power_str(var: str, e: int) -> str:
    if e == 1:
        return var
    return f"{var}^{e}"


def element_to_expr(elt: RingElement) -> str:
    """Canonical expression string; re-parses to an equal element.

    Function-ring elements (tuples of rationals) render as plain lists;
    they are display-only and not part of the expression grammar.
    """
    ring = elt.ring
    payload = elt.payload
    if isinstance(payload, int):
        return str(payload)
    if isinstance(payload, Fraction):
        return str(payload)
    if isinstance(payload, tuple):
        return "[" + ", ".join(str(v) for v in payload) + "]"
    if isinstance(ring, (LaurentExtension, QuotientByPrincipal)):
        base_var = (
            ring.variable if isinstance(ring, LaurentExtension) else ring.base.variable
        )
        if not payload:
            return "0"
        terms = []
        for e in sorted(payload):
            c = element_to_expr(payload[e])
            if e == 0:
                terms.append(c)
            else:
                terms.append(_coeff_times(c, _power_str(base_var, e)))
        return _join_terms(terms)
    if isinstance(ring, GradedPolynomialRing):
        if not payload:
            return "0"
        keys = sorted(payload, key=lambda k: (ring.key_degree(k), ring.unpack(k)))
        terms = []
        for key in keys:
            c = payload[key]
            exps = ring.unpack(key)
            var_part = "*".join(
                _power_str(ring.names[i], e) for i, e in enumerate(exps) if e
            )
            if not var_part:
                terms.append(str(c))
            else:
                terms.append(_coeff_times(str(c), var_part))
        return _join_terms(terms)
    return str(payload)
