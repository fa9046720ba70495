"""The coefficient expression grammar: parsing, evaluation, canonical printing."""

import random
import zlib
from fractions import Fraction

import pytest

from fglforge.errors import (
    ExpressionSyntaxError,
    NonIntegerExponent,
    UnknownVariable,
)
from fglforge.expressions import element_to_expr, parse_expression, parse_tree
from fglforge.gradedpoly import lazard_base_ring
from fglforge.rings import (
    Integers,
    IntegersMod,
    LaurentExtension,
    PLocalIntegers,
    Rationals,
    quotient_by_element,
)

Z = Integers()
Q = Rationals()
ZB = LaurentExtension(Z, "beta", 1)
QB = LaurentExtension(Q, "beta", 1)


def test_examples():
    assert parse_expression("-beta", ZB) == -ZB.var()
    got = parse_expression("3/4 * beta^-2", QB)
    assert got == QB.from_fraction(Fraction(3, 4)) * QB.var(-2)
    with pytest.raises(NonIntegerExponent):
        parse_expression("beta^(1/2)", QB)


def test_grammar_rejections_carry_positions():
    with pytest.raises(ExpressionSyntaxError) as err:
        parse_expression("2 + * 3", Z)
    assert err.value.column == 4
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("(1 + 2", Z)
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("1 ? 2", Z)
    with pytest.raises(NonIntegerExponent):
        parse_expression("beta^1/2", ZB)
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("3/0", Q)


def test_unknown_variable():
    with pytest.raises(UnknownVariable):
        parse_expression("gamma", ZB)
    with pytest.raises(UnknownVariable):
        parse_expression("beta", Z)


def test_precedence_and_unary_minus():
    assert parse_expression("1 + 2 * 3", Z) == Z.from_int(7)
    # the grammar binds unary minus inside the power: -2^2 is (-2)^2
    assert parse_expression("-2^2", Z) == Z.from_int(4)
    assert parse_expression("0 - 2^2", Z) == Z.from_int(-4)
    assert parse_expression("2 - 3 - 4", Z) == Z.from_int(-5)
    assert parse_expression("-beta^2", ZB) == (-ZB.var()) ** 2
    assert parse_expression("-1*beta^2", ZB) == -(ZB.var() ** 2)


def test_rational_literals():
    assert parse_expression("3/4", Q) == Q.from_fraction(Fraction(3, 4))
    assert parse_expression("-3/4 + 1/4", Q) == Q.from_fraction(Fraction(-1, 2))
    zp = PLocalIntegers(5)
    assert parse_expression("3/4", zp) == zp.from_fraction(Fraction(3, 4))


def test_parse_tree_shape():
    tree = parse_tree("1 + 2*x")
    assert tree[0] == "add"


def random_laurent(ring, rng, depth=0):
    out = ring.zero()
    for _ in range(rng.randint(1, 4)):
        if ring.base == Q:
            coeff = ring.base.from_fraction(Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
        else:
            coeff = ring.base.from_int(rng.randint(-9, 9))
        out = out + ring.monomial(coeff, rng.randint(-4, 4))
    return out


@pytest.mark.parametrize(
    "ring",
    [Z, Q, IntegersMod(7), PLocalIntegers(3), ZB, QB, lazard_base_ring(4)],
    ids=repr,
)
def test_print_parse_round_trip(ring):
    rng = random.Random(zlib.crc32(repr(ring).encode()))
    for _ in range(150):
        if isinstance(ring, LaurentExtension):
            elt = random_laurent(ring, rng)
        elif ring == Q:
            elt = ring.from_fraction(Fraction(rng.randint(-40, 40), rng.randint(1, 11)))
        elif isinstance(ring, PLocalIntegers):
            elt = ring.from_fraction(Fraction(rng.randint(-40, 40), 4))
        elif hasattr(ring, "monomial_keys_of_degree"):
            elt = ring.zero()
            for d in range(5):
                for key in ring.monomial_keys_of_degree(d):
                    if rng.random() < 0.3:
                        exps = ring.unpack(key)
                        elt = elt + ring.monomial(exps, Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
        else:
            elt = ring.from_int(rng.randint(-50, 50))
        text = element_to_expr(elt)
        again = parse_expression(text, ring)
        assert again == elt, (text, elt.payload)
        assert element_to_expr(again) == text  # printing is canonical


def test_print_nested_laurent():
    nested = LaurentExtension(ZB, "gamma", 2)
    beta = parse_expression("beta", nested)
    gamma = parse_expression("gamma", nested)
    elt = (nested.one() + beta) * gamma + nested.from_int(3)
    text = element_to_expr(elt)
    assert parse_expression(text, nested) == elt


def test_print_quotient_ring_elements():
    ring = quotient_by_element(QB, QB.one() + QB.var() ** 2)
    e = parse_expression("beta + 1/2", ring)
    text = element_to_expr(e)
    assert parse_expression(text, ring) == e


def test_zero_prints_as_zero():
    assert element_to_expr(ZB.zero()) == "0"
    assert element_to_expr(Z.zero()) == "0"
    assert parse_expression("0", ZB) == ZB.zero()


def test_printed_bytes_per_ring_family():
    from fglforge.hopf import FunctionRing, lb_structure_maps

    beta = ZB.var()
    laurent = ZB.var(-4) + 3 - 2 * beta**2
    assert element_to_expr(laurent) == "beta^-4 + 3 - 2*beta^2"
    assert element_to_expr(ZB.var(-4) - ZB.var(-3)) == "beta^-4 - 1*beta^-3"
    assert repr(laurent) == "beta^-4 + 3 - 2*beta^2"

    nested = LaurentExtension(ZB, "gamma", 1)
    gens = nested.generators()
    gamma = gens["gamma"]
    elt = (1 + gens["beta"]) * gamma ** -1 + 3 - gamma
    assert element_to_expr(elt) == "(1 + beta)*gamma^-1 + 3 - gamma"

    quotient = quotient_by_element(QB, QB.one() + QB.var() ** 2)
    half_minus_beta = quotient.from_fraction(Fraction(1, 2)) - quotient.generators()["beta"]
    assert element_to_expr(half_minus_beta) == "1/2 - beta"
    assert quotient.to_json()["generator"] == "1 + beta^2"

    lazard = lazard_base_ring(4)
    m1, m2, m3 = (lazard.generator(f"m{i}") for i in (1, 2, 3))
    poly = lazard.from_int(7) + m2 - Fraction(1, 2) * m1 * m1 - m1 * m3
    assert element_to_expr(poly) == "7 + m2 - 1/2*m1^2 - m1*m3"

    assert element_to_expr(FunctionRing(3).from_values([1, Fraction(-1, 2), 0])) == "[1, -1/2, 0]"
    assert element_to_expr(PLocalIntegers(5).from_fraction(Fraction(3, 4))) == "3/4"
    assert element_to_expr(IntegersMod(7).from_int(11)) == "4"

    algebroid = lb_structure_maps(3)
    labels = [algebroid.basis_label(key) for key in algebroid.gamma_basis()]
    assert labels == ["1", "b1", "b1^2", "b2", "b1^3", "b1*b2", "b3"]
