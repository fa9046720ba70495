"""The product kernels against naive references: graded polynomials over Q,
multivariate truncated series (also over graded polynomials), the Gamma
product of the Hopf algebroids, and one-variable series over the coefficient
family, Laurent rings and their towers included."""

import random
import zlib
from fractions import Fraction

import pytest

from fglforge.gradedpoly import GradedPolynomialRing, lazard_base_ring
from fglforge.hopf import groupoid_fixture, lb_structure_maps
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
from fglforge.series import TruncatedSeries1, TruncatedSeriesN

# -- graded polynomials ----------------------------------------------------------


def _weighted(exps, degrees):
    return sum(e * w for e, w in zip(exps, degrees))


def _random_terms(degrees, max_degree, rng, count, coeffs):
    """Exponent tuples (some above the truncation) with nonzero Fractions."""
    terms = {}
    for _ in range(count):
        exps = tuple(rng.randint(0, 3) for _ in degrees)
        c = Fraction(rng.choice(coeffs), rng.choice((1, 1, 2, 3)))
        if c:
            terms[exps] = c
    return terms


def _element(ring, terms):
    return ring.element({ring.pack(e): c for e, c in terms.items()})


def _view(elt):
    """The payload as (exponents, coefficient) pairs, in payload order."""
    return [(elt.ring.unpack(k), c) for k, c in elt.payload.items()]


def _ref_truncate(terms, degrees, max_degree):
    return {e: c for e, c in terms.items() if _weighted(e, degrees) <= max_degree}


def _ref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def _ref_mul(a, b, degrees, max_degree):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            if _weighted(e, degrees) > max_degree:
                continue
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                del out[e]
    return out


def _assert_matches(elt, ref):
    assert _view(elt) == list(ref.items())  # values and payload order
    for c in elt.payload.values():
        assert c != 0
        if Fraction(c).denominator == 1:
            assert type(c) is int, c
        else:
            assert type(c) is Fraction, c


@pytest.mark.parametrize("degrees", [(1, 2), (1, 2, 3), (2, 3, 5), (1, 1, 2, 4)], ids=str)
def test_graded_products_and_sums_against_reference(degrees):
    rng = random.Random(zlib.crc32(repr(degrees).encode()))
    gens = [(f"g{i}", d) for i, d in enumerate(degrees)]
    for max_degree in (0, 2, 5, 9):
        ring = GradedPolynomialRing(gens, max_degree)
        for _ in range(40):
            # small coefficient ranges make cancellations to zero common
            coeffs = (-1, 1) if rng.random() < 0.5 else range(-6, 7)
            ta = _random_terms(degrees, max_degree, rng, rng.randint(0, 7), coeffs)
            tb = _random_terms(degrees, max_degree, rng, rng.randint(0, 7), coeffs)
            a, b = _element(ring, ta), _element(ring, tb)
            ra = _ref_truncate(ta, degrees, max_degree)
            rb = _ref_truncate(tb, degrees, max_degree)
            _assert_matches(a, ra)
            _assert_matches(a * b, _ref_mul(ra, rb, degrees, max_degree))
            _assert_matches(a + b, _ref_add(ra, rb))
            assert (a - a).payload == {}


def test_graded_cancellation_and_truncation():
    ring = GradedPolynomialRing([("a", 1), ("b", 2)], 4)
    a, b = ring.generator("a"), ring.generator("b")
    # (a + b)(a - b) - (a^2 - b^2) cancels term by term
    assert ((a + b) * (a - b) - (a * a - b * b)).payload == {}
    # every pair passes the truncation
    assert (b * b * a).payload == {}
    half = ring.from_fraction(Fraction(1, 2))
    # halves add up to an integer, stored as an int
    total = a * half + a * half
    assert total.payload == {ring.pack([1, 0]): 1}
    assert type(total.payload[ring.pack([1, 0])]) is int
    assert type((half * ring.from_int(2)).payload[0]) is int


def test_monomial_exponents_do_not_overflow():
    ring = GradedPolynomialRing([("a", 1), ("b", 1)], 10)
    # exponents of 64 and more used to spill into the next 6-bit field
    assert ring.monomial([64, 0]).payload == {}
    assert ring.monomial([65, 0]).payload == {}
    assert ring.monomial([0, 100], 3).payload == {}
    assert ring.monomial([10, 0]) == ring.generator("a") ** 10
    assert ring.monomial([11, 0]).payload == {}
    for bad in ([64, 0], [0, 64], [-1, 0]):
        with pytest.raises(ValueError):
            ring.pack(bad)
    with pytest.raises(ValueError):
        ring.monomial([-1, 2])
    with pytest.raises(ValueError):
        ring.monomial([0, 0, 1])
    top = GradedPolynomialRing([("a", 1)], 63)
    assert top.unpack(top.monomial([63]).payload.popitem()[0]) == (63,)


# -- multivariate series -----------------------------------------------------------


def _boxed_product(f, g):
    """The product accumulated on ring elements, in the operands' order."""
    n = min(f.precision, g.precision)
    out = {}
    for k1, c1 in f.coeffs.items():
        for k2, c2 in g.coeffs.items():
            k = tuple(a + b for a, b in zip(k1, k2))
            if sum(k) > n:
                continue
            p = c1 * c2
            if k in out:
                p = out[k] + p
            if p.is_zero():
                out.pop(k, None)
            else:
                out[k] = p
    return out


def _formula(f, g):
    """[x^k](fg) = sum over k1 + k2 = k, zero coefficients dropped."""
    n = min(f.precision, g.precision)
    ring = f.ring
    out = {}
    for k1, c1 in f.coeffs.items():
        for k2, c2 in g.coeffs.items():
            k = tuple(a + b for a, b in zip(k1, k2))
            if sum(k) <= n:
                out[k] = out.get(k, ring.zero()) + c1 * c2
    return {k: c for k, c in out.items() if not c.is_zero()}


def _random_series(ring, nvars, precision, rng, coefficient):
    coeffs = {}
    for _ in range(rng.randint(0, 12)):
        key = tuple(rng.randint(0, precision) for _ in range(nvars))
        coeffs[key] = coefficient(rng)
    return TruncatedSeriesN(ring, nvars, coeffs, precision)


Z6 = IntegersMod(6)
L4 = lazard_base_ring(4)


def _z6_coefficient(rng):
    # 2 and 3 multiply to zero in Z/6
    return Z6.from_int(rng.choice((1, 2, 3, 4, 5, 2, 3)))


def _lazard_coefficient(rng):
    out = L4.zero()
    for _ in range(rng.randint(1, 3)):
        exps = [rng.randint(0, 2) for _ in range(4)]
        out = out + L4.monomial(exps, Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
    return out


@pytest.mark.parametrize(
    "ring,coefficient", [(Z6, _z6_coefficient), (L4, _lazard_coefficient)], ids=["Z/6", "Q[m1..m4]"]
)
def test_series_products_against_formula(ring, coefficient):
    rng = random.Random(zlib.crc32(repr(ring).encode()))
    for _ in range(60):
        nvars = rng.choice((1, 2, 3))
        f = _random_series(ring, nvars, rng.randint(0, 6), rng, coefficient)
        g = _random_series(ring, nvars, rng.randint(0, 6), rng, coefficient)
        product = f * g
        assert product.precision == min(f.precision, g.precision)
        assert product.coeffs == _formula(f, g)
        assert list(product.coeffs.items()) == list(_boxed_product(f, g).items())
        for c in product.coeffs.values():
            assert c.ring == ring and not c.is_zero()


def test_series_product_drops_zero_divisor_terms():
    x = TruncatedSeriesN.variable(Z6, 2, 0, 4)
    y = TruncatedSeriesN.variable(Z6, 2, 1, 4)
    f = x.scale(Z6.from_int(2)) + y.scale(Z6.from_int(3))
    g = x.scale(Z6.from_int(3)) + y.scale(Z6.from_int(2))
    # 6x^2 + 13xy + 6y^2 = xy over Z/6
    assert (f * g).coeffs == {(1, 1): Z6.one()}
    assert (x.scale(Z6.from_int(2)) * x.scale(Z6.from_int(3))).coeffs == {}


def _ref_terms(elt):
    return {exps: Fraction(c) for exps, c in _view(elt)}


def _ref_series_product(f, g):
    """The product term by term on exponent-tuple references: each pair of
    coefficients multiplied and added in, sums that cancel left out."""
    ring = f.ring
    n = min(f.precision, g.precision)
    out = {}
    for k1, c1 in f.coeffs.items():
        for k2, c2 in g.coeffs.items():
            k = tuple(a + b for a, b in zip(k1, k2))
            if sum(k) <= n:
                p = _ref_mul(_ref_terms(c1), _ref_terms(c2), ring.degrees, ring.max_degree)
                out[k] = _ref_add(out.get(k, {}), p)
    return {k: c for k, c in out.items() if c}


def _assert_graded_product(f, g):
    product = f * g
    ref = _ref_series_product(f, g)
    assert {k: _ref_terms(c) for k, c in product.coeffs.items()} == ref
    # the same keys in the same order as the sum on boxed ring elements
    assert list(product.coeffs.items()) == list(_boxed_product(f, g).items())
    for c in product.coeffs.values():
        assert c.payload
        for v in c.payload.values():
            assert v != 0 and type(v) is (int if Fraction(v).denominator == 1 else Fraction)
    return product


@pytest.mark.parametrize("degrees", [(1, 2, 3), (2, 3), (1, 1, 2)], ids=str)
def test_graded_series_products_against_term_by_term_reference(degrees):
    rng = random.Random(zlib.crc32(b"graded series " + repr(degrees).encode()))
    ring = GradedPolynomialRing([(f"g{i}", d) for i, d in enumerate(degrees)], 5)

    def coefficient(coeffs):
        # terms above the ring's truncation are dropped as the element is made
        return _element(ring, _random_terms(degrees, 5, rng, rng.randint(1, 3), coeffs))

    for _ in range(40):
        nvars = rng.choice((1, 2, 3))
        coeffs = (-1, 1) if rng.random() < 0.5 else range(-4, 5)
        series = []
        for _ in range(2):
            precision = rng.randint(0, 5)
            terms = {}
            for _ in range(rng.randint(0, 8)):
                terms[tuple(rng.randint(0, 3) for _ in range(nvars))] = coefficient(coeffs)
            series.append(TruncatedSeriesN(ring, nvars, terms, precision))
        _assert_graded_product(*series)


def test_graded_series_product_cancellation_and_truncation():
    ring = GradedPolynomialRing([("a", 1), ("b", 2)], 4)
    a, b = ring.generator("a"), ring.generator("b")
    x = TruncatedSeriesN.variable(ring, 2, 0, 3)
    y = TruncatedSeriesN.variable(ring, 2, 1, 3)
    # (a x + b y)(a x - b y): the xy coefficient ab - ba cancels, so its key goes
    product = _assert_graded_product(x.scale(a) + y.scale(b), x.scale(a) - y.scale(b))
    assert product.coeffs == {(2, 0): a * a, (0, 2): -(b * b)}
    # b x times (ab + a) y: the ab*b term has degree 5, past the ring's cut
    product = _assert_graded_product(x.scale(b), y.scale(a * b + a))
    assert product.coeffs == {(1, 1): a * b}
    # and when every term is past the cut, the key goes too
    assert _assert_graded_product(x.scale(b), y.scale(a * b)).coeffs == {}
    # x^2 times x^2 lies past the series precision 3
    assert _assert_graded_product(x * x.scale(a), x * x).coeffs == {}
    # the xy sum cancels after two of its three terms and comes back with the
    # third, so its key goes last, as in the sum on boxed ring elements
    f = TruncatedSeriesN(ring, 2, {(0, 0): a, (1, 0): a, (0, 1): a}, 2)
    g = TruncatedSeriesN(ring, 2, {(1, 1): b, (0, 1): -b, (1, 0): a}, 2)
    product = _assert_graded_product(f, g)
    assert list(product.coeffs) == [(0, 1), (1, 0), (2, 0), (0, 2), (1, 1)]
    assert product.coeffs[(1, 1)] == a * a
    # halves that add up to an integer are stored as an int
    half = ring.from_fraction(Fraction(1, 2))
    product = _assert_graded_product(x.scale(half) + y.scale(half), x.scale(a) + y.scale(a))
    assert product.coeffs[(1, 1)].payload == {ring.pack([1, 0]): 1}


# -- the Gamma product of the algebroids ---------------------------------------------


def _lazard_terms(H, u):
    """A Gamma element as {(m exponents, b exponents): Fraction}."""
    return {
        (H.base.unpack(m_key), H.bring.unpack(b_key)): Fraction(c)
        for b_key, a in u.items()
        for m_key, c in a.items()
    }


def _lazard_ref_mul(H, u, v):
    n = H.truncation
    m_deg, b_deg = H.base.degrees, H.bring.degrees
    out = {}
    for (m1, b1), c1 in _lazard_terms(H, u).items():
        for (m2, b2), c2 in _lazard_terms(H, v).items():
            m = tuple(x + y for x, y in zip(m1, m2))
            b = tuple(x + y for x, y in zip(b1, b2))
            if _weighted(m, m_deg) > n or _weighted(b, b_deg) > n:
                continue
            out[(m, b)] = out.get((m, b), 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def _random_gamma(H, rng):
    u = {}
    for key in rng.sample(H.gamma_basis(), rng.randint(0, 4)):
        coeff = _random_base(H, rng)
        if not coeff.is_zero():
            u[key] = coeff.payload
    return u


def _random_base(H, rng):
    out = H.base.zero()
    for _ in range(rng.randint(1, 3)):
        key = rng.choice([k for d in range(H.truncation + 1) for k in H.base.monomial_keys_of_degree(d)])
        out = out + H.base.element({key: Fraction(rng.randint(-3, 3), rng.randint(1, 2))})
    return out


def test_lazard_basis_mul_contract():
    H = lb_structure_maps(4)
    basis = set(H.gamma_basis())
    for k1 in basis:
        for k2 in basis:
            product = H.basis_mul(k1, k2)
            if H.basis_degree(k1) + H.basis_degree(k2) > H.truncation:
                assert product is None
            else:
                assert product in basis
                e1, e2 = H.bring.unpack(k1), H.bring.unpack(k2)
                assert H.bring.unpack(product) == tuple(x + y for x, y in zip(e1, e2))
    b4 = H.bring.pack([0, 0, 0, 1])
    b1 = H.bring.pack([1, 0, 0, 0])
    assert H.basis_mul(b4, b1) is None
    assert H.g_mul({b4: H.base.one().payload}, {b1: H.base.generator("m1").payload}) == {}


def test_lazard_g_mul_against_reference():
    H = lb_structure_maps(4)
    rng = random.Random(4)
    for _ in range(60):
        u, v = _random_gamma(H, rng), _random_gamma(H, rng)
        got = H.g_mul(u, v)
        assert all(not H.base._is_zero(c) for c in got.values())
        assert _lazard_terms(H, got) == _lazard_ref_mul(H, u, v)


def test_groupoid_basis_mul_and_g_mul():
    H = groupoid_fixture(3)
    for i in range(3):
        for j in range(3):
            assert H.basis_mul(i, j) == (i if i == j else None)
    rng = random.Random(3)

    def random_gamma():
        u = {}
        for j in range(3):
            if rng.random() < 0.7:
                f = H.base.from_values([rng.choice((0, 0, 1, -2, Fraction(1, 3))) for _ in range(3)])
                if not f.is_zero():
                    u[j] = f.payload
        return u

    for _ in range(40):
        u, v = random_gamma(), random_gamma()
        expected = {}
        for j in set(u) & set(v):
            values = tuple(x * y for x, y in zip(u[j], v[j]))
            if any(values):
                expected[j] = values
        assert H.g_mul(u, v) == expected
    # disjointly supported coefficients multiply to zero and drop out
    assert H.g_mul({0: H.base.chi(0).payload}, {0: H.base.chi(1).payload}) == {}


# -- one-variable series over the coefficient family ---------------------------------


def _terms(a):
    """The terms of a Laurent or quotient element, exponent -> coefficient
    boxed over the base ring, in payload order."""
    ring = a.ring
    base = ring.base if isinstance(ring, LaurentExtension) else ring.base.base
    return {e: RingElement(base, c) for e, c in a.payload.items()}


def _from_terms(ring, terms):
    return RingElement(ring, {e: c.payload for e, c in terms.items()})


def _ref_product_terms(a, b):
    """The terms (exponent, base element) of a Laurent product, in the order
    the pairs meet, each multiplied on boxed base elements."""
    return [(e1 + e2, c1 * c2) for e1, c1 in _terms(a).items() for e2, c2 in _terms(b).items()]


def _ref_add_terms(out, terms):
    """Add terms into the map one at a time; a sum that cancels leaves, and
    comes back at the end when a later term reaches it."""
    for e, c in terms:
        s = out[e] + c if e in out else c
        if s.is_zero():
            out.pop(e, None)
        else:
            out[e] = s
    return out


class _RefSum:
    """A sum of products on boxed ring elements: a Laurent sum adds each
    term of each product in, a quotient sum adds each reduced product, and
    any other sum adds the products."""

    def __init__(self, ring):
        self.ring = ring
        self.total = {} if isinstance(ring, (LaurentExtension, QuotientByPrincipal)) else ring.zero()

    def add_product(self, a, b):
        ring = self.ring
        if isinstance(ring, LaurentExtension):
            _ref_add_terms(self.total, _ref_product_terms(a, b))
        elif isinstance(ring, QuotientByPrincipal):
            cover = ring.base
            product = _from_terms(cover, _ref_add_terms({}, _ref_product_terms(a, b)))
            _ref_add_terms(self.total, _terms(ring.from_base(product)).items())
        else:
            self.total = self.total + a * b
        return self

    def value(self):
        total = self.total
        return _from_terms(self.ring, total) if isinstance(total, dict) else total


def _ref1_mul(a, b):
    return _RefSum(a.ring).add_product(a, b).value()


def _ref1_neg(a):
    if isinstance(a.payload, dict):
        return _from_terms(a.ring, {e: -c for e, c in _terms(a).items()})
    return -a


def _ref1_add(a, b):
    if isinstance(a.payload, dict):
        return _from_terms(a.ring, _ref_add_terms(_terms(a), _terms(b).items()))
    return a + b


def _ref_series_mul(f, g):
    n = min(f.precision, g.precision)
    out = []
    for k in range(n + 1):
        acc = _RefSum(f.ring)
        for i in range(k + 1):
            acc.add_product(f.coeffs[i], g.coeffs[k - i])
        out.append(acc.value())
    return out


def _ref_series_inverse(f):
    c0i = f.coeffs[0].inverse()
    out = [c0i]
    for n in range(1, f.precision + 1):
        acc = _RefSum(f.ring)
        for k in range(1, n + 1):
            acc.add_product(f.coeffs[k], out[n - k])
        out.append(_ref1_neg(_ref1_mul(c0i, acc.value())))
    return out


def _view1(c):
    """A coefficient as a comparable value: Laurent and quotient payloads as
    their (exponent, base payload) items in payload order."""
    if isinstance(c.payload, dict):
        return [(e, _view1(v)) for e, v in _terms(c).items()]
    return c.payload


def _assert_same_coefficients(series, ref):
    assert len(series.coeffs) == len(ref)
    for c, r in zip(series.coeffs, ref):
        assert c.ring is series.ring
        assert _view1(c) == _view1(r)  # values and payload order
        assert c == r
        _assert_canonical(c)


def _assert_canonical(c):
    """Every Laurent value is a nonzero payload of the base, never a boxed
    element; the innermost payloads are ints for Z and Z/m, Fractions for Q
    and Z_(p)."""
    ring = c.ring
    if isinstance(ring, (LaurentExtension, QuotientByPrincipal)):
        assert type(c.payload) is dict
        for v in _terms(c).values():
            assert not v.is_zero()
            _assert_canonical(v)
    elif isinstance(ring, (Integers, IntegersMod)):
        assert type(c.payload) is int
        if isinstance(ring, IntegersMod):
            assert 0 <= c.payload < ring.modulus
    else:
        assert type(c.payload) is Fraction


def _number_coefficient(ring, rng, small):
    values = (-1, 0, 1) if small else range(-4, 5)
    if isinstance(ring, (Rationals, PLocalIntegers)):
        return ring.from_fraction(Fraction(rng.choice(values), rng.choice((1, 2, 4, 5))))
    return ring.from_int(rng.choice(values))


def _coefficient(ring, rng, small):
    """Zero a quarter of the time; a Laurent element has up to three terms
    in beta^-2..beta^2."""
    if rng.random() < 0.25:
        return ring.zero()
    if isinstance(ring, QuotientByPrincipal):
        return ring.from_base(_coefficient(ring.base, rng, small))
    if isinstance(ring, LaurentExtension):
        terms = {rng.randint(-2, 2): _coefficient(ring.base, rng, small).payload for _ in range(rng.randint(1, 3))}
        return ring.element(terms)
    return _number_coefficient(ring, rng, small)


def _series1(ring, rng, precision, small):
    return TruncatedSeries1(ring, [_coefficient(ring, rng, small) for _ in range(precision + 1)])


def _unit(ring, rng):
    for _ in range(200):
        c = _coefficient(ring, rng, rng.random() < 0.5)
        if c.is_unit():
            return c
    return ring.one()


ZB = LaurentExtension(Integers(), "beta", 1)
Z4B = LaurentExtension(IntegersMod(4), "beta", 1)
F5B = LaurentExtension(IntegersMod(5), "beta", 1)
SERIES1_RINGS = {
    "Z": Integers(),
    "Q": Rationals(),
    "Z/4": IntegersMod(4),
    "Z/6": IntegersMod(6),
    "Z_(3)": PLocalIntegers(3),
    "Z[beta]": ZB,
    "Z/4[beta]": Z4B,
    "Z/6[beta]": LaurentExtension(IntegersMod(6), "beta", 1),
    "Z_(3)[beta]": LaurentExtension(PLocalIntegers(3), "beta", 1),
    "F5[beta]/(beta - 1)": quotient_by_element(F5B, F5B.var() - F5B.one()),
}


@pytest.mark.parametrize("name", list(SERIES1_RINGS))
def test_series1_kernels_against_term_by_term_reference(name):
    ring = SERIES1_RINGS[name]
    rng = random.Random(zlib.crc32(b"series1 " + name.encode()))
    for _ in range(25):
        # small coefficients make sums that cancel common
        small = rng.random() < 0.5
        f = _series1(ring, rng, rng.randint(0, 6), small)
        g = _series1(ring, rng, rng.randint(0, 6), small)
        n = min(f.precision, g.precision)
        head_f, head_g = f.coeffs[: n + 1], g.coeffs[: n + 1]
        _assert_same_coefficients(f * g, _ref_series_mul(f, g))
        _assert_same_coefficients(f + g, [_ref1_add(a, b) for a, b in zip(head_f, head_g)])
        _assert_same_coefficients(f - g, [_ref1_add(a, _ref1_neg(b)) for a, b in zip(head_f, head_g)])
        _assert_same_coefficients(-f, [_ref1_neg(a) for a in f.coeffs])
        assert (f - f).is_zero() and (f + (-f)).is_zero()
        c = _coefficient(ring, rng, small)
        _assert_same_coefficients(f.scale(c), [_ref1_mul(c, a) for a in f.coeffs])
        _assert_same_coefficients(f.scale(3), [_ref1_mul(ring.from_int(3), a) for a in f.coeffs])
        h = TruncatedSeries1(ring, (_unit(ring, rng),) + f.coeffs[1:], f.precision)
        inverse = h.inverse()
        _assert_same_coefficients(inverse, _ref_series_inverse(h))
        assert h * inverse == TruncatedSeries1.constant(ring, ring.one(), h.precision)


def test_series1_product_vanishing_on_a_new_exponent():
    # 2 beta * 2 beta = 4 beta^2 = 0 in Z/4[beta]: the product's only term
    # vanishes on an exponent the sum has not met
    two_beta = Z4B.from_int(2) * Z4B.var()
    assert (two_beta * two_beta).payload == {}
    f = TruncatedSeries1(Z4B, [Z4B.zero(), two_beta, Z4B.one()])
    square = f * f
    _assert_same_coefficients(square, _ref_series_mul(f, f))
    assert [c.payload for c in square.coeffs] == [{}, {}, {}]
    assert f.scale(two_beta).coeffs == (Z4B.zero(), Z4B.zero(), two_beta)
    # (1 + beta)(1 - beta) = 1 - beta^2: the beta terms cancel inside the sum
    g = TruncatedSeries1(ZB, [ZB.one() + ZB.var()], 0)
    h = TruncatedSeries1(ZB, [ZB.one() - ZB.var()], 0)
    product = g * h
    _assert_same_coefficients(product, _ref_series_mul(g, h))
    assert list(product.coeffs[0].payload) == [0, 2]


def test_series1_over_a_tower_keeps_innermost_payloads_raw():
    inner = LaurentExtension(IntegersMod(4), "beta", 1)
    tower = LaurentExtension(inner, "gamma", 1)
    rng = random.Random(zlib.crc32(b"tower"))

    def coefficient():
        if rng.random() < 0.25:
            return tower.zero()
        terms = {rng.randint(-1, 1): _coefficient(inner, rng, rng.random() < 0.5).payload for _ in range(2)}
        return tower.element(terms)

    def boxed_product(f, g):
        n = min(f.precision, g.precision)
        return [sum((f.coeffs[i] * g.coeffs[k - i] for i in range(k + 1)), tower.zero()) for k in range(n + 1)]

    for _ in range(20):
        f = TruncatedSeries1(tower, [coefficient() for _ in range(rng.randint(1, 6))])
        g = TruncatedSeries1(tower, [coefficient() for _ in range(rng.randint(1, 6))])
        c = coefficient()
        # 3 beta^i gamma^j is a unit
        unit = tower.element({rng.randint(-1, 1): {rng.randint(-1, 1): 3}})
        h = TruncatedSeries1(tower, (unit,) + f.coeffs[1:], f.precision)
        results = [f * g, f + g, f - g, f.scale(c), h.inverse()]
        assert list(results[0].coeffs) == boxed_product(f, g)
        assert list(results[3].coeffs) == [c * a for a in f.coeffs]
        assert h * results[4] == TruncatedSeries1.constant(tower, tower.one(), h.precision)
        for series in results:
            for d in series.coeffs:
                _assert_canonical(d)
                for v in d.payload.values():
                    assert type(v) is dict
                    assert all(type(w) is int for w in v.values())
