"""Truncated power series: arithmetic, composition, reversion, calculus."""

import random
import zlib
from fractions import Fraction

import pytest

from fglforge.errors import (
    Inconsistent,
    InsufficientPrecision,
    NonUnitLinearCoefficient,
    NonzeroConstantTerm,
    RingMismatch,
    Unsupported,
)
from fglforge import series as series_module
from fglforge.fgl import (
    AxiomCheck,
    FormalGroupLaw,
    change_coordinates,
    check_axioms,
    from_logarithm,
    logarithm,
    n_series,
    named_fgl,
)
from fglforge.gradedpoly import lazard_base_ring
from fglforge.rings import (
    Integers,
    IntegersMod,
    LaurentExtension,
    PLocalIntegers,
    QuotientByPrincipal,
    Rationals,
    RingElement,
    quotient_by_element,
)
from fglforge.series import (
    TruncatedSeries1,
    TruncatedSeries2,
    TruncatedSeriesN,
    compose_series,
    embed2,
    substitute_pair,
)

Z = Integers()
Q = Rationals()
ZB = LaurentExtension(Z, "beta", 1)


def s(ring, ints, precision=None):
    return TruncatedSeries1.from_ints(ring, ints, precision)


def random_series(ring, rng, precision, zero_const=False, unit_linear=False):
    coeffs = [ring.from_int(rng.randint(-4, 4)) for _ in range(precision + 1)]
    if zero_const:
        coeffs[0] = ring.zero()
    if unit_linear:
        coeffs[1] = ring.from_int(rng.choice([1, -1]))
    return TruncatedSeries1(ring, coeffs, precision)


def test_arith_examples():
    # (1+x)(1-x) = 1 - x^2 at N=4
    lhs = s(Z, [1, 1], 4) * s(Z, [1, -1], 4)
    assert lhs == s(Z, [1, 0, -1], 4)
    # (x + x^2)^2 = x^2 + 2x^3 at N=3
    f = s(Z, [0, 1, 1], 3)
    assert f * f == s(Z, [0, 0, 1, 2], 3)
    # beta * (x - beta x^2) = beta x - beta^2 x^2
    beta = ZB.var()
    g = TruncatedSeries1(ZB, [ZB.zero(), ZB.one(), -beta], 2)
    assert g.scale(beta) == TruncatedSeries1(ZB, [ZB.zero(), beta, -(beta**2)], 2)


def test_precision_is_min_of_inputs():
    a = s(Z, [1, 2, 3], 5)
    b = s(Z, [1, 1], 2)
    assert (a + b).precision == 2
    assert (a * b).precision == 2
    assert a.derive().precision == 4
    assert a.truncate(3).precision == 3
    with pytest.raises(ValueError):
        a.truncate(9)
    with pytest.raises(IndexError):
        (a * b).coefficient(3)


def test_truncate_refuses_a_precision_outside_its_own():
    # below 0 in one variable and in several, and above the series' precision
    for f in (s(Z, [1, 2, 3], 5), TruncatedSeriesN.variable(Z, 3, 0, 5), TruncatedSeries2.zero(Z, 2, 5)):
        for precision in (-1, -4, 6):
            with pytest.raises(ValueError):
                f.truncate(precision)
        low = f.truncate(0)
        assert type(low) is type(f) and low.precision == 0 and low.constant_term() == f.constant_term()


def test_partial_y_at_zero_needs_precision_one():
    # (dF/dy)(x, 0) of a precision-0 body has no coefficient to read: the
    # precision is nonnegative, it is too low
    with pytest.raises(InsufficientPrecision, match="precision >= 1"):
        TruncatedSeries2.zero(Integers(), 2, 0).partial_y_at_zero()
    assert TruncatedSeries2.zero(Integers(), 2, 1).partial_y_at_zero() == s(Z, [0], 0)


def test_compose_examples():
    # compose(x^2, x + x^3) = x^2 + 2x^4 at N=4
    assert compose_series(s(Z, [0, 0, 1], 4), s(Z, [0, 1, 0, 1], 4)) == s(
        Z, [0, 0, 1, 0, 2], 4
    )
    # identity substitution
    f = s(Z, [0, 3, -1, 2], 6)
    assert compose_series(f, TruncatedSeries1.x(Z, 6)) == f
    # geometric series in x^2: 1 + x^2 + x^4 at N=4
    geo = s(Z, [1, 1, 1, 1, 1], 4)
    assert compose_series(geo, s(Z, [0, 0, 1], 4)) == s(Z, [1, 0, 1, 0, 1], 4)
    with pytest.raises(NonzeroConstantTerm):
        compose_series(f, s(Z, [1, 1], 6))


def test_compose_associativity_random():
    rng = random.Random(23)
    for ring in (Z, Q, ZB):
        for _ in range(40):
            f = random_series(ring, rng, 7)
            g = random_series(ring, rng, 7, zero_const=True)
            h = random_series(ring, rng, 7, zero_const=True)
            lhs = compose_series(compose_series(f, g), h)
            rhs = compose_series(f, compose_series(g, h))
            assert lhs == rhs


def test_revert_examples():
    assert TruncatedSeries1.x(Z, 5).revert() == TruncatedSeries1.x(Z, 5)
    # revert(x + x^2) = x - x^2 + 2x^3 - 5x^4 (computed by the triangular solve,
    # re-checked by composing back to x)
    f = s(Z, [0, 1, 1], 4)
    g = f.revert()
    assert g == s(Z, [0, 1, -1, 2, -5], 4)
    assert compose_series(f, g) == TruncatedSeries1.x(Z, 4)
    # revert(x + beta x^2) = x - beta x^2 + 2 beta^2 x^3 over Z[beta^±1]
    beta = ZB.var()
    h = TruncatedSeries1(ZB, [ZB.zero(), ZB.one(), beta], 3)
    assert h.revert() == TruncatedSeries1(
        ZB, [ZB.zero(), ZB.one(), -beta, beta**2 * 2], 3
    )


def test_revert_round_trips_random():
    rng = random.Random(99)
    x_by_ring = {}
    cases = 0
    for ring in (Z, Q, ZB, LaurentExtension(IntegersMod(5), "beta", 1)):
        x_by_ring[ring] = TruncatedSeries1.x(ring, 8)
        for _ in range(50):
            f = random_series(ring, rng, 8, zero_const=True, unit_linear=True)
            g = f.revert()
            assert compose_series(f, g) == x_by_ring[ring]
            assert compose_series(g, f) == x_by_ring[ring]
            cases += 1
    assert cases == 200


def test_revert_round_trips_over_the_graded_lazard_ring():
    # f = x + sum (r_k m_{k-1} + s_k) x^k with rationals r_k, s_k: f(g) = g(f) = x
    rng = random.Random(zlib.crc32(b"revert graded lazard"))
    for n in range(2, 11):
        ring = lazard_base_ring(n - 1)
        coeffs = [ring.zero(), ring.one()]
        for k in range(2, n + 1):
            r_k, s_k = (Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(2))
            coeffs.append(ring.generator(f"m{k - 1}") * ring.from_fraction(r_k) + ring.from_fraction(s_k))
        f = TruncatedSeries1(ring, coeffs, n)
        g = f.revert()
        x = TruncatedSeries1.x(ring, n)
        assert compose_series(f, g) == x
        assert compose_series(g, f) == x


def test_revert_preconditions():
    with pytest.raises(NonzeroConstantTerm):
        s(Z, [1, 1], 3).revert()
    with pytest.raises(NonUnitLinearCoefficient):
        s(Z, [0, 2, 1], 3).revert()


def test_derive_examples():
    assert s(Z, [0, 0, 0, 1], 5).derive() == s(Z, [0, 0, 3], 4)
    assert TruncatedSeries1.constant(Z, Z.one(), 4).derive().is_zero()
    # termwise: d/dx sum x^n/n = sum x^n for n <= 4
    f = TruncatedSeries1.from_fractions(Q, [0] + [Fraction(1, n) for n in range(1, 6)], 5)
    assert f.derive() == TruncatedSeries1.from_fractions(Q, [1] * 5, 4)


def test_leibniz_rule_random():
    rng = random.Random(31)
    for ring in (Z, Q, ZB):
        for _ in range(40):
            f = random_series(ring, rng, 7)
            g = random_series(ring, rng, 7)
            lhs = (f * g).derive()
            rhs = f.derive() * g.truncate(6) + f.truncate(6) * g.derive()
            assert lhs == rhs


def test_integrate_and_inverse():
    f = s(Q, [1, 1, 1], 4)
    assert f.integrate().derive() == f
    inv = f.inverse()
    assert f * inv == TruncatedSeries1.constant(Q, Q.one(), 4)
    # exact division over Z works when the coefficients allow it
    g = s(Z, [2, 6, 12], 2)
    assert g.integrate() == s(Z, [0, 2, 3, 4], 3)
    with pytest.raises(Inconsistent):
        s(Z, [1, 1], 3).integrate()


def test_integrate_over_p_local_integers():
    Z5 = PLocalIntegers(5)
    f = s(Z5, [1, 1, 1, 1], 3)
    assert f.integrate() == TruncatedSeries1.from_fractions(
        Z5, [0, 1, Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)]
    )
    assert s(Z5, [0, 0, 0, 0, 5], 4).integrate().coefficient(5) == Z5.one()
    with pytest.raises(Inconsistent):  # 1/5 is not 5-local
        s(Z5, [1, 1, 1, 1, 1], 4).integrate()


def test_integrate_divides_by_units_mod_m():
    F7 = IntegersMod(7)
    # 2 and 3 are units mod 7: 1/2 = 4 and 1/3 = 5
    assert s(F7, [1, 1, 1], 2).integrate() == s(F7, [0, 1, 4, 5], 3)
    F7B = LaurentExtension(F7, "beta", 1)
    beta = F7B.var()
    g = TruncatedSeries1(F7B, [F7B.zero(), beta], 1).integrate()
    assert g.coefficient(2) == beta * F7B.from_int(4)


def test_integrate_refuses_undetermined_quotients():
    Z8 = IntegersMod(8)
    # 2y = 4 mod 8 holds for y = 2 and y = 6: neither may be reported
    with pytest.raises(Unsupported):
        s(Z8, [0, 4], 1).integrate()
    with pytest.raises(Inconsistent):  # 2y = 1 mod 8 has no solution
        s(Z8, [0, 1], 1).integrate()
    # over F_3[beta]/(beta^2 + 1), 3 = 0: 1/3 does not exist, 1/2 does
    F3B = LaurentExtension(IntegersMod(3), "beta", 1)
    beta = F3B.var()
    K = quotient_by_element(F3B, beta * beta + 1)
    assert s(K, [1, 1], 1).integrate() == s(K, [0, 1, 2], 2)
    with pytest.raises(Inconsistent):
        s(K, [1, 1, 1], 2).integrate()


def test_ring_mismatch():
    with pytest.raises(RingMismatch):
        s(Z, [1], 3) + s(Q, [1], 3)
    with pytest.raises(RingMismatch):
        s(Z, [1], 3).scale(Q.one())


def test_compose_checks_rings_at_every_precision():
    # at precision 0 no product or sum meets both rings
    for inner in (s(Q, [0], 0), TruncatedSeriesN.zero(Q, 3, 0)):
        with pytest.raises(RingMismatch):
            compose_series(s(Z, [1, 2], 1), inner)


def test_two_variable_series():
    F = TruncatedSeries2.from_entries(
        Z, [(1, 0, Z.one()), (0, 1, Z.one()), (1, 1, Z.from_int(-2))], 4
    )
    assert F.at(1, 1) == Z.from_int(-2)
    assert F.at(2, 0).is_zero()
    # F(x, 0) = x and F(0, y) = y
    assert check_axioms(FormalGroupLaw(F)).checks[0] == AxiomCheck("unitality", True, None)
    assert F.partial_y_at_zero() == s(Z, [1, -2], 3)
    G = F * F
    assert G.at(2, 0) == Z.one() and G.at(1, 1) == Z.from_int(2)
    assert G.at(2, 1) == Z.from_int(-4)
    with pytest.raises(IndexError):
        F.coefficient((3, 2))


def test_equal_series_hash_equal_and_print_their_content():
    # __eq__ compares payloads, so equal series built two ways hash equal;
    # pytest prints the repr of both sides of a failed comparison
    f = s(Z, [1, 1], 4) * s(Z, [1, -1], 4)
    assert f == s(Z, [1, 0, -1], 4) and hash(f) == hash(s(Z, [1, 0, -1], 4))
    assert repr(f) == "<series 1 - x^2 + O(x^5)>"
    x_plus_y = TruncatedSeries2.from_entries(Z, [(1, 0, Z.one()), (0, 1, Z.one())], 3)
    square = TruncatedSeriesN(Z, 2, {(2, 0): Z.one(), (1, 1): Z.from_int(2), (0, 2): Z.one()}, 3)
    assert x_plus_y * x_plus_y == square and hash(x_plus_y * x_plus_y) == hash(square)
    assert repr(square) == "<series in 2 vars, 3 terms, prec 3>"


def test_substitute_pair_one_variable():
    F = TruncatedSeries2.from_entries(
        Z, [(1, 0, Z.one()), (0, 1, Z.one()), (1, 1, Z.one())], 6
    )
    u = s(Z, [0, 1, 1], 6)
    v = s(Z, [0, 2], 6)
    got = substitute_pair(F, u, v)
    expected = u + v + u * v
    assert got == expected
    with pytest.raises(NonzeroConstantTerm):
        substitute_pair(F, s(Z, [1], 6), v)


def test_substitute_pair_multivariable_and_embed():
    F = TruncatedSeries2.from_entries(
        Z, [(1, 0, Z.one()), (0, 1, Z.one()), (1, 1, Z.from_int(3))], 5
    )
    fxy = embed2(F, 3, (0, 1))
    z = TruncatedSeriesN.variable(Z, 3, 2, 5)
    lhs = substitute_pair(F, fxy, z)
    # F(F(x,y), z) where F = x + y + 3xy: spot-check a few coefficients
    assert lhs.coefficient((1, 0, 0)) == Z.one()
    assert lhs.coefficient((0, 0, 1)) == Z.one()
    assert lhs.coefficient((1, 1, 0)) == Z.from_int(3)
    assert lhs.coefficient((1, 0, 1)) == Z.from_int(3)
    assert lhs.coefficient((1, 1, 1)) == Z.from_int(9)


def test_never_reports_beyond_precision():
    f = s(Z, [1] * 9, 8)
    g = f * f
    assert g.precision == 8 and len(g.coeffs) == 9
    h = compose_series(s(Z, [0, 1, 1], 4), s(Z, [0, 1], 8))
    assert h.precision == 4


# -- an independent oracle for composition and substitution ------------------
# sympy multiplies the untruncated polynomials; the series code must agree
# with the result below its output precision.


def _exponents(nvars, precision):
    """Every exponent tuple in nvars variables of total degree <= precision."""
    if nvars == 0:
        return [()]
    return [
        (e,) + rest
        for e in range(precision + 1)
        for rest in _exponents(nvars - 1, precision - e)
    ]


def _random_shaped(rng, nvars, precision, vanish):
    """A sparse random series over Q with small fractions, in nvars variables:
    a TruncatedSeries1 for one, a TruncatedSeries2 for two."""
    coeffs = {
        k: Q.from_fraction(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        for k in _exponents(nvars, precision)
        if rng.random() < 0.6 and not (vanish and sum(k) == 0)
    }
    if nvars == 1:
        return TruncatedSeries1(
            Q, [coeffs.get((i,), Q.zero()) for i in range(precision + 1)], precision
        )
    cls = TruncatedSeries2 if nvars == 2 else TruncatedSeriesN
    return cls(Q, nvars, coeffs, precision)


def _mirrored(inner, rng=None):
    """A symmetric two-variable series: the coefficients of inner at x^i y^j
    with i <= j, each copied to x^j y^i.  Given rng, one off-diagonal
    coefficient is then moved by 1, so the series is symmetric but for it."""
    coeffs = {}
    for (i, j), c in inner.coeffs.items():
        if i <= j:
            coeffs[(i, j)] = coeffs[(j, i)] = c
    if rng is not None:
        key = rng.choice([(i, j) for i, j in _exponents(2, inner.precision) if i != j])
        coeffs[key] = coeffs.get(key, inner.ring.zero()) + 1
    return TruncatedSeries2(inner.ring, 2, coeffs, inner.precision)


def _terms(series):
    """{exponent tuple: Fraction} over the nonzero coefficients."""
    if isinstance(series, TruncatedSeries1):
        return {(i,): c.payload for i, c in enumerate(series.coeffs) if not c.is_zero()}
    return {k: c.payload for k, c in series.coeffs.items()}


def _poly(sympy, terms, nvars):
    symbols = sympy.symbols(f"x0:{nvars}")
    data = {k: sympy.Rational(c.numerator, c.denominator) for k, c in terms.items()}
    return sympy.Poly.from_dict(data or {(0,) * nvars: 0}, *symbols, domain="QQ")


def _truncated(poly, precision):
    return {
        k: Fraction(int(c.p), int(c.q))
        for k, c in poly.terms()
        if c != 0 and sum(k) <= precision
    }


@pytest.mark.parametrize("nvars", [1, 2, 3])
def test_compose_series_matches_sympy(nvars):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(zlib.crc32(f"compose_series {nvars}".encode()))
    for _ in range(12):
        n = rng.randint(1, 3)
        outer = _random_shaped(rng, 1, n + rng.randint(0, 1), vanish=False)
        inner = _random_shaped(rng, nvars, n + rng.randint(0, 1), vanish=True)
        inners = [inner]
        if nvars == 2:
            # a symmetric inner, and one symmetric but for one coefficient
            inners += [_mirrored(inner), _mirrored(inner, rng)]
        for inner in inners:
            got = compose_series(outer, inner)
            n = min(outer.precision, inner.precision)
            assert got.precision == n and type(got) is type(inner)
            inner_poly = _poly(sympy, _terms(inner), nvars)
            expected = _poly(sympy, {}, nvars)
            for (i,), c in _terms(outer).items():
                expected += inner_poly**i * sympy.Rational(c.numerator, c.denominator)
            assert _terms(got) == _truncated(expected, n)


L5 = lazard_base_ring(5)
Z12 = IntegersMod(12)
Z12B = LaurentExtension(Z12, "beta", 1)


def _small_coefficient(ring, rng):
    """A small fraction over Q; over L5 one times a monomial in m1..m3 of
    degree at most 6 (those above 5 vanish), plus an integer; over Z12B up
    to two terms c beta^e, with zero divisors of Z/12 among the c, so that
    products and sums vanish."""
    if ring == Z12B:
        terms = {rng.randint(-1, 1): rng.choice([1, 2, 3, 4, 6, 9]) for _ in range(2)}
        return ring.element(terms)
    q = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    if ring == Q:
        return Q.from_fraction(q)
    return ring.monomial([rng.randint(0, 1) for _ in range(3)], q) + rng.randint(-1, 1)


def _random_inner(ring, rng, nvars, precision, shape):
    """A series vanishing at the origin: dense and random, with no linear
    terms (valuation 2), or zero."""
    if nvars == 1:
        keys = [(i,) for i in range(1, precision + 1)]
    else:
        keys = [k for k in _exponents(nvars, precision) if sum(k) >= 1]
    low = 2 if shape == "valuation_2" else 1
    coeffs = {}
    if shape != "zero":
        for k in keys:
            if sum(k) >= low and rng.random() < 0.6:
                coeffs[k] = _small_coefficient(ring, rng)
    if nvars == 1:
        return TruncatedSeries1(
            ring, [coeffs.get((i,), ring.zero()) for i in range(precision + 1)], precision
        )
    cls = TruncatedSeries2 if nvars == 2 else TruncatedSeriesN
    return cls(ring, nvars, coeffs, precision)


def _constant(like, value):
    """The constant series value in the variables and at the precision of the
    series like."""
    if isinstance(like, TruncatedSeries1):
        return TruncatedSeries1.constant(like.ring, value, like.precision)
    return type(like)(like.ring, like.nvars, {(0,) * like.nvars: value}, like.precision)


def _composition_reference(outer, inner):
    """sum_k c_k inner^k, every power a product at the full precision."""
    n = min(outer.precision, inner.precision)
    inner = inner.truncate(n)
    power = _constant(inner, inner.ring.one())
    total = _constant(inner, inner.ring.zero())
    for c in outer.coeffs[: n + 1]:
        total = total + power.scale(c)
        power = power * inner
    return total


@pytest.mark.parametrize("ring", [Q, L5, Z12B], ids=["Q", "L5", "Z12B"])
@pytest.mark.parametrize("nvars", [1, 2, 3])
def test_compose_series_matches_sum_of_powers(nvars, ring):
    rng = random.Random(zlib.crc32(f"compose reference {nvars} {ring}".encode()))
    # three-variable products grow fastest; 7 keeps this test under a second
    for n in (0, 1, 2, 5, 10 if nvars < 3 else 7):
        for shape in ("dense", "valuation_2", "zero"):
            inner = _random_inner(ring, rng, nvars, n, shape)
            inners = {"random": inner}
            if nvars == 2:
                # the same coefficients made symmetric in x <-> y and, from
                # precision 1, a copy symmetric but for one coefficient
                inners["symmetric"] = _mirrored(inner)
                if n >= 1:
                    inners["symmetric but one"] = _mirrored(inner, rng)
            # the outer precision below, equal to and above the inner one
            for outer_precision in {max(n - 2, 0), n, n + 2}:
                outer = TruncatedSeries1(
                    ring,
                    [_small_coefficient(ring, rng) for _ in range(outer_precision + 1)],
                    outer_precision,
                )
                for kind, inner in inners.items():
                    got = compose_series(outer, inner)
                    where = (n, shape, kind, outer_precision)
                    assert type(got) is type(inner)
                    assert got.precision == min(outer_precision, n)
                    assert got == _composition_reference(outer, inner), where


@pytest.mark.parametrize("nvars", [1, 2, 3])
def test_compose_series_makes_no_series_products(monkeypatch, nvars):
    # every inner shape composes on payloads, with no series * on the way
    calls = []
    for cls in (TruncatedSeries1, TruncatedSeriesN):
        mul = cls.__mul__
        monkeypatch.setattr(cls, "__mul__", lambda a, b, mul=mul: calls.append(a) or mul(a, b))
    rng = random.Random(zlib.crc32(f"compose without products {nvars}".encode()))
    inner = _random_inner(Q, rng, nvars, 6, "dense")
    outer = TruncatedSeries1(Q, [_small_coefficient(Q, rng) for _ in range(7)], 6)
    for inner in [inner, _mirrored(inner)] if nvars == 2 else [inner]:
        compose_series(outer, inner)
        assert calls == []
    inner * inner
    assert len(calls) == 1


@pytest.mark.parametrize("nvars", [1, 2, 3])
def test_substitute_pair_matches_sympy(nvars):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(zlib.crc32(f"substitute_pair {nvars}".encode()))
    for _ in range(12):
        n = rng.randint(1, 3)
        body = _random_shaped(rng, 2, n + rng.randint(0, 1), vanish=False)
        u = _random_shaped(rng, nvars, n + rng.randint(0, 1), vanish=True)
        v = _random_shaped(rng, nvars, n + rng.randint(0, 1), vanish=True)
        got = substitute_pair(body, u, v)
        n = min(body.precision, u.precision, v.precision)
        assert got.precision == n and type(got) is type(u)
        u_poly = _poly(sympy, _terms(u), nvars)
        v_poly = _poly(sympy, _terms(v), nvars)
        expected = _poly(sympy, {}, nvars)
        for (i, j), c in _terms(body).items():
            expected += u_poly**i * v_poly**j * sympy.Rational(c.numerator, c.denominator)
        assert _terms(got) == _truncated(expected, n)


# -- substitution over the rings of the Landweber checks, without sympy -------

# each ring with the denominators its coefficients may have
LANDWEBER_RINGS = {
    "Z[beta]": (ZB, [1]),
    "Z/4[beta]": (LaurentExtension(IntegersMod(4), "beta", 1), [1]),
    "F5": (IntegersMod(5), [1]),
    "Z_(3)[beta]": (LaurentExtension(PLocalIntegers(3), "beta", 1), [1, 2]),
}


def _landweber_coefficient(ring, rng, denominators):
    """1 a third of the time, else a small fraction times beta^-1, 1 or beta
    when the ring has beta."""
    if rng.random() < 1 / 3:
        return ring.one()
    c = ring.from_fraction(Fraction(rng.randint(-3, 3), rng.choice(denominators)))
    if isinstance(ring, LaurentExtension):
        c = c * ring.var() ** rng.randint(-1, 1)
    return c


def _landweber_series(ring, rng, denominators, nvars, precision, keys):
    """A series in nvars variables with random coefficients at most keys."""
    coeffs = {
        k: _landweber_coefficient(ring, rng, denominators) for k in keys if rng.random() < 0.7
    }
    if nvars == 1:
        return TruncatedSeries1(
            ring, [coeffs.get((i,), ring.zero()) for i in range(precision + 1)], precision
        )
    cls = TruncatedSeries2 if nvars == 2 else TruncatedSeriesN
    return cls(ring, nvars, coeffs, precision)


def _substitution_reference(body, u, v):
    """sum c u^i v^j over the terms within the common precision, each power
    multiplied up from the constant series 1."""
    n = min(body.precision, u.precision, v.precision)
    u, v = u.truncate(n), v.truncate(n)
    total = _constant(u, u.ring.zero())
    for (i, j), c in body.coeffs.items():
        if i + j > n:
            continue
        term = _constant(u, u.ring.one())
        for _ in range(i):
            term = term * u
        for _ in range(j):
            term = term * v
        total = total + term.scale(c)
    return total


@pytest.mark.parametrize("name", sorted(LANDWEBER_RINGS))
@pytest.mark.parametrize("nvars", [1, 2])
def test_substitute_pair_matches_sum_of_powers(nvars, name):
    ring, denominators = LANDWEBER_RINGS[name]
    rng = random.Random(zlib.crc32(f"substitute_pair reference {nvars} {name}".encode()))
    for n in (0, 1, 2, 4, 6):
        for _ in range(3):
            # the body reaches two degrees past the substituted series, and
            # always has a constant term and terms in x alone and y alone
            body = _landweber_series(ring, rng, denominators, 2, n + 2, _exponents(2, n + 2))
            entries = [
                (0, 0, ring.one()),
                (rng.randint(1, n + 2), 0, ring.one()),
                (0, rng.randint(1, n + 2), _landweber_coefficient(ring, rng, denominators)),
            ]
            body = body + TruncatedSeries2.from_entries(ring, entries, n + 2)
            keys = [k for k in _exponents(nvars, n + 1) if sum(k) >= 1]
            u = _landweber_series(ring, rng, denominators, nvars, n + rng.randint(0, 1), keys)
            v = _landweber_series(ring, rng, denominators, nvars, n + rng.randint(0, 1), keys)
            got = substitute_pair(body, u, v)
            assert type(got) is type(u)
            assert got.precision == min(body.precision, u.precision, v.precision)
            assert got == _substitution_reference(body, u, v), (n, body, u, v)


def test_substitute_pair_checks_rings_at_every_precision():
    # at precision 0 every term of the body lies above the truncation
    body = TruncatedSeries2.from_entries(Z, [(1, 0, Z.one()), (0, 1, Z.one())], 4)
    for n in (0, 3):
        for u, v in ((s(Q, [0, 1], n), s(Q, [0, 1], n)), (s(Z, [0, 1], n), s(Q, [0, 1], n))):
            with pytest.raises(RingMismatch):
                substitute_pair(body, u, v)


def test_substitute_pair_refuses_mismatched_shapes():
    # one variable against several, or different numbers of variables, at
    # every precision; the body's coefficients are all 1, so no product or
    # scaling would meet the mismatch first
    body = TruncatedSeries2.from_entries(Z, [(1, 0, Z.one()), (0, 1, Z.one())], 4)
    for n in (0, 3):
        one = s(Z, [0, 1], n)
        two = TruncatedSeriesN.variable(Z, 2, 0, n)
        three = TruncatedSeriesN.variable(Z, 3, 0, n)
        for u, v in ((one, three), (three, one), (one, two), (two, one), (two, three)):
            with pytest.raises(RingMismatch):
                substitute_pair(body, u, v)


def test_substitute_pair_multiplies_only_mixed_terms(monkeypatch):
    """x + y - beta xy costs one product, x + y none, and [5](x) of a law that
    doubles three substitutions, one per double-and-add step, while n_series
    on a law x + y + c xy runs none; F(F(x,y),z) in three variables costs
    one.  Counted at the product loop of each shape, which series * and the
    substitution core share."""
    mult = named_fgl("multiplicative", ZB, 8)
    add = named_fgl("additive", ZB, 8)
    # the multiplicative law after b(x) = x + 2x^2 is not x + y + c xy
    conj = change_coordinates(mult, TruncatedSeries1.from_ints(ZB, [0, 1, 2], 8))
    calls = []
    for shape in (series_module._Dense, series_module._Sparse):
        original = shape.product

        def counted(self, *args, original=original):
            calls.append(type(self))
            return original(self, *args)

        monkeypatch.setattr(shape, "product", counted)
    x = TruncatedSeries1.x(ZB, 8)
    f_xy = embed2(mult.body, 3, (0, 1))
    z = TruncatedSeriesN.variable(ZB, 3, 2, 8)

    def products(run):
        calls.clear()
        run()
        return len(calls)

    assert products(lambda: substitute_pair(mult.body, x, x)) == 1
    assert products(lambda: substitute_pair(add.body, x, x)) == 0
    one_substitution = products(lambda: substitute_pair(conj.body, x, x))
    assert one_substitution > 1
    assert products(lambda: n_series(conj, 5)) == 3 * one_substitution
    assert products(lambda: n_series(mult, 5)) == 0
    assert products(lambda: n_series(mult, -5)) == 0
    assert products(lambda: substitute_pair(mult.body, f_xy, z)) == 1
    assert calls == [series_module._Sparse]
    # series * goes through the same loops
    assert products(lambda: x * x) == 1 and products(lambda: f_xy * z) == 1


# -- an independent oracle for one-variable products, inverses and reversion --
# sympy's ring_series works modulo x^prec, so precision N compares at N + 1.


def _nonzero_fraction(rng):
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))


def _rs_terms(poly):
    """{(degree,): Fraction} of a ring_series polynomial in one of x, y."""
    return {(sum(k),): Fraction(int(c.numerator), int(c.denominator)) for k, c in poly.terms() if c}


def test_series1_products_inverses_and_reversions_match_sympy():
    pytest.importorskip("sympy")
    from sympy.polys.domains import QQ
    from sympy.polys.ring_series import rs_mul, rs_series_inversion, rs_series_reversion
    from sympy.polys.rings import ring

    _, x, y = ring("x, y", QQ)

    def rs(series):
        return sum((QQ(c.numerator, c.denominator) * x**i for (i,), c in _terms(series).items()), 0 * x)

    rng = random.Random(zlib.crc32(b"series1 mul inverse revert"))
    for _ in range(12):
        n = rng.randint(1, 24)
        f = _random_shaped(rng, 1, n, vanish=False)
        g = _random_shaped(rng, 1, n + rng.randint(0, 1), vanish=False)
        assert _terms(f * g) == _rs_terms(rs_mul(rs(f), rs(g), x, n + 1))
        unit = TruncatedSeries1(Q, [Q.from_fraction(_nonzero_fraction(rng))] + list(f.coeffs[1:]), n)
        assert _terms(unit.inverse()) == _rs_terms(rs_series_inversion(rs(unit), x, n + 1))
        h = TruncatedSeries1(Q, [Q.zero(), Q.from_fraction(_nonzero_fraction(rng))] + list(f.coeffs[2:]), n)
        assert _terms(h.revert()) == _rs_terms(rs_series_reversion(rs(h), x, n + 1, y))


def test_logarithm_of_from_logarithm_is_the_identity():
    rng = random.Random(zlib.crc32(b"logarithm from_logarithm"))
    for _ in range(6):
        n = rng.randint(1, 5)
        tail = _random_shaped(rng, 1, n, vanish=False).coeffs[2:]
        log = TruncatedSeries1(Q, [Q.zero(), Q.one(), *tail], n)
        assert logarithm(from_logarithm(log, Q, n)) == log


# -- what a series stores ---------------------------------------------------


def test_constructors_check_their_coefficients():
    F5 = IntegersMod(5)
    seven = Z.from_int(7)
    with pytest.raises(RingMismatch):
        TruncatedSeries1(F5, [Z.zero(), seven, Z.from_int(12)])
    # every value is checked, one the truncation drops included
    for coeffs in ({(1, 0): seven}, {(4, 0): seven}):
        with pytest.raises(RingMismatch):
            TruncatedSeriesN(F5, 2, coeffs, 3)
        with pytest.raises(RingMismatch):
            TruncatedSeries2(F5, 2, coeffs, 3)
    # ints and Fractions are coerced into the ring
    half_x = TruncatedSeries1(Q, [0, Fraction(1, 2)], 2)
    assert half_x * half_x == TruncatedSeries1.from_fractions(Q, [0, 0, Fraction(1, 4)])
    assert TruncatedSeriesN(F5, 2, {(1, 0): 7, (0, 1): 5}, 3) == TruncatedSeriesN(
        F5, 2, {(1, 0): F5.from_int(2)}, 3
    )


def test_coefficient_refuses_negative_exponents():
    f = s(Z, [0, 1, 2, 3])
    with pytest.raises(IndexError):
        f.coefficient(-1)
    law = named_fgl("multiplicative", ZB, 4)
    for i, j in ((-1, 2), (2, -1), (-1, 0)):
        with pytest.raises(IndexError):
            law.coefficient(i, j)
    assert f.coefficient(3) == Z.from_int(3) and law.coefficient(1, 1) == -ZB.var()


F5B = LaurentExtension(IntegersMod(5), "beta", 1)
RAW_RINGS = {
    "Z": (Z, [1]),
    "Q": (Q, [1, 2, 3]),
    "Z/6": (IntegersMod(6), [1]),
    "Z_(3)": (PLocalIntegers(3), [1, 2]),
    "Z/6[beta]": (LaurentExtension(IntegersMod(6), "beta", 1), [1]),
    "F5[beta]/(beta-1)": (quotient_by_element(F5B, F5B.var() - 1), [1]),
    "L3": (lazard_base_ring(3), [1, 2]),
}


def _raw_ring_coefficient(ring, rng, denominators):
    """A small fraction; times beta^-1, 1 or beta over a Laurent ring or its
    quotient, and plus a monomial in m1..m3 over the graded ring."""
    c = ring.from_fraction(Fraction(rng.randint(-3, 3), rng.choice(denominators)))
    if isinstance(ring, LaurentExtension):
        return c * ring.var() ** rng.randint(-1, 1)
    if isinstance(ring, QuotientByPrincipal):
        return c * ring.from_base(ring.base.var() ** rng.randint(-1, 1))
    if ring == RAW_RINGS["L3"][0]:
        return c + ring.monomial([rng.randint(0, 1) for _ in range(3)])
    return c


def _holds_no_element(payload):
    if isinstance(payload, RingElement):
        return False
    if isinstance(payload, dict):
        return all(map(_holds_no_element, payload.values()))
    if isinstance(payload, (tuple, list)):
        return all(map(_holds_no_element, payload))
    return True


def _assert_stores_raw_payloads(series):
    """payloads holds canonical payloads and no boxed element, and coeffs and
    coefficient() box the same values."""
    ring, boxed = series.ring, series.coeffs
    if isinstance(series, TruncatedSeries1):
        assert type(series.payloads) is tuple and len(series.payloads) == series.precision + 1
        stored = enumerate(series.payloads)
    else:
        assert type(series.payloads) is dict
        stored = series.payloads.items()
    for key, p in stored:
        assert _holds_no_element(p), key
        assert ring._canonical(p) == p, key
        assert boxed[key].ring is ring and boxed[key].payload is p
        assert series.coefficient(key) == boxed[key]
        if not isinstance(series, TruncatedSeries1):
            assert not ring._is_zero(p), key


@pytest.mark.parametrize("name", sorted(RAW_RINGS))
def test_series_store_raw_payloads(name):
    ring, denominators = RAW_RINGS[name]
    rng = random.Random(zlib.crc32(f"raw payloads {name}".encode()))

    def coefficient():
        return _raw_ring_coefficient(ring, rng, denominators)

    for n in (1, 2, 5):
        f, g = (TruncatedSeries1(ring, [coefficient() for _ in range(n + 1)]) for _ in range(2))
        unit = TruncatedSeries1(ring, [ring.one(), *f.coeffs[1:]])
        revertible = TruncatedSeries1(ring, [ring.zero(), ring.one(), *g.coeffs[2:]])
        keys = _exponents(2, n)
        body = TruncatedSeries2(ring, 2, {k: coefficient() for k in keys}, n)
        vanishing = TruncatedSeries2(ring, 2, {k: coefficient() for k in keys if sum(k)}, n)
        z = TruncatedSeriesN.variable(ring, 3, 2, n)
        results = [
            f, f + g, f - g, -f, f * g, f.scale(coefficient()), f.truncate(n - 1),
            f.derive(), unit.inverse(), revertible.revert(),
            compose_series(f, revertible), substitute_pair(body, revertible, f * revertible),
            body, body + vanishing, body - vanishing, body * vanishing,
            body.scale(coefficient()), body.truncate(n - 1), body.partial_y_at_zero(),
            compose_series(f, vanishing), compose_series(f, _mirrored(vanishing)),
            embed2(body, 3, (0, 2)), substitute_pair(body, embed2(vanishing, 3, (0, 1)), z),
        ]
        if ring.is_q_algebra():
            results.append(f.integrate())
        for i, series in enumerate(results):
            try:
                _assert_stores_raw_payloads(series)
            except AssertionError as error:
                raise AssertionError(f"result {i} at precision {n}") from error
