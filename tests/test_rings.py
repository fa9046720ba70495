"""Coefficient-ring family: canonical forms, axioms, zero divisors, quotients."""

import math
import random
import zlib
from fractions import Fraction

import pytest

from fglforge import rings
from fglforge.errors import Inconsistent, RingMismatch, Undecidable, Unsupported
from fglforge.gradedpoly import GradedPolynomialRing
from fglforge.hopf import FunctionRing
from fglforge.rings import (
    Integers,
    IntegersMod,
    LaurentExtension,
    PLocalIntegers,
    QuotientByPrincipal,
    Rationals,
    is_zero_ring,
    project,
    quotient_by_element,
    zero_divisor_witness,
)

Z = Integers()
Q = Rationals()
ZB = LaurentExtension(Z, "beta", 1)
QB = LaurentExtension(Q, "beta", 1)
F5B = LaurentExtension(IntegersMod(5), "beta", 1)


def test_is_prime_matches_a_sieve_and_decides_large_n():
    bound = 10**5
    sieve = bytearray([1]) * bound
    sieve[:2] = b"\x00\x00"
    for d in range(2, math.isqrt(bound) + 1):
        if sieve[d]:
            sieve[d * d :: d] = bytes(len(range(d * d, bound, d)))
    assert [n for n in range(-3, bound) if rings._is_prime(n)] == [
        n for n in range(bound) if sieve[n]
    ]
    assert rings._is_prime(2**61 - 1)
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to the first nine primes
    assert not rings._is_prime(3215031751)
    assert not rings._is_prime(3825123056546413051)
    # past the bound of the 13 bases only a multiple of a base is decided
    assert not rings._is_prime(rings._PRIME_BOUND + 1)
    with pytest.raises(Unsupported):
        rings._is_prime(rings._PRIME_BOUND)
    with pytest.raises(Unsupported, match="89-bit"):
        rings._is_prime(2**89 - 1)
    # too many digits for int-to-str conversion
    with pytest.raises(Unsupported, match="20000-bit"):
        rings._is_prime(2**19999 + 3)


def random_element(ring, rng):
    if ring == Z:
        return ring.from_int(rng.randint(-30, 30))
    if ring == Q:
        return ring.from_fraction(Fraction(rng.randint(-30, 30), rng.randint(1, 12)))
    if isinstance(ring, IntegersMod):
        return ring.from_int(rng.randint(-50, 50))
    if isinstance(ring, PLocalIntegers):
        den = rng.randint(1, 20)
        while den % ring.p == 0:
            den = rng.randint(1, 20)
        return ring.from_fraction(Fraction(rng.randint(-30, 30), den))
    if isinstance(ring, LaurentExtension):
        out = ring.zero()
        for _ in range(rng.randint(0, 3)):
            coeff = random_element(ring.base, rng)
            out = out + ring.monomial(coeff, rng.randint(-3, 3))
        return out
    raise AssertionError(ring)


FAMILIES = [Z, Q, IntegersMod(12), IntegersMod(7), PLocalIntegers(3), ZB, QB, F5B]


@pytest.mark.parametrize("ring", FAMILIES, ids=repr)
def test_canonical_forms_equality(ring):
    # eq(a, b) iff the canonical payloads are identical
    rng = random.Random(zlib.crc32(repr(ring).encode()))
    for _ in range(1000):
        a = random_element(ring, rng)
        b = random_element(ring, rng)
        assert (a == b) == (a.payload == b.payload)


@pytest.mark.parametrize("ring", FAMILIES, ids=repr)
def test_ring_axioms_on_random_triples(ring):
    rng = random.Random(len(repr(ring)))
    for _ in range(120):
        a, b, c = (random_element(ring, rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == ring.zero()
        assert a * ring.one() == a


@pytest.mark.parametrize("ring", FAMILIES, ids=repr)
def test_non_zero_divisors_cancel(ring):
    rng = random.Random(17)
    for _ in range(60):
        r = random_element(ring, rng)
        try:
            if zero_divisor_witness(r) is not None:
                continue
        except Unsupported:
            continue
        s = random_element(ring, rng)
        t = random_element(ring, rng)
        if r * s == r * t:
            assert s == t


def test_ring_arithmetic_dispatch():
    a, b = Z.from_int(2), Z.from_int(3)
    assert a + b == Z.from_int(5)
    assert a * b == Z.from_int(6)
    assert -a == Z.from_int(-2)
    assert (a == b) is False
    assert Z.from_int(-1).is_unit() is True


def test_laurent_units():
    beta = ZB.var()
    assert (beta * ZB.var(-1)) == ZB.one()
    assert beta.is_unit()
    assert not (ZB.from_int(2)).is_unit()
    # Laurent monomials over a field are units, checked by explicit inverse
    for p in (2, 3, 5, 7):
        ring = LaurentExtension(IntegersMod(p), "beta", 1)
        u = ring.var() ** (p - 1)
        assert u.is_unit()
        assert u * u.inverse() == ring.one()
        assert zero_divisor_witness(u) is None


def test_laurent_units_over_nonreduced_base():
    # over Z/4, 1 + 2*beta is a unit (2 is nilpotent)
    ring = LaurentExtension(IntegersMod(4), "beta", 1)
    u = ring.one() + ring.monomial(IntegersMod(4).from_int(2), 1)
    assert u.is_unit()
    assert u * u.inverse() == ring.one()
    v = ring.one() + ring.var()
    assert not v.is_unit()


def test_zero_divisor_examples():
    assert zero_divisor_witness(IntegersMod(6).from_int(2)) is not None
    assert zero_divisor_witness(Z.from_int(5)) is None
    assert zero_divisor_witness(Q.from_fraction(Fraction(3, 7))) is None
    # 0 is a zero divisor exactly in a nonzero ring
    assert zero_divisor_witness(Z.from_int(0)) is not None
    assert zero_divisor_witness(IntegersMod(1).from_int(0)) is None
    # McCoy over Z/6: 2 + 2*beta is killed by 3
    ring = LaurentExtension(IntegersMod(6), "beta", 1)
    f = ring.monomial(IntegersMod(6).from_int(2), 0) + ring.monomial(
        IntegersMod(6).from_int(2), 1
    )
    w = zero_divisor_witness(f)
    assert w is not None and (f * w).is_zero() and not w.is_zero()
    g = ring.one() + ring.monomial(IntegersMod(6).from_int(2), 1)
    assert zero_divisor_witness(g) is None


def test_zero_divisor_witness_annihilates():
    rng = random.Random(3)
    for ring in (IntegersMod(60), IntegersMod(36), LaurentExtension(IntegersMod(12), "b", 1)):
        for _ in range(80):
            r = random_element(ring, rng)
            w = zero_divisor_witness(r)
            if w is not None:
                assert not w.is_zero()
                assert (r * w).is_zero()


def test_quotient_examples():
    assert quotient_by_element(Z, Z.from_int(5)) == IntegersMod(5)
    assert quotient_by_element(ZB, ZB.from_int(5)) == F5B == LaurentExtension(
        IntegersMod(5), "beta", 1
    )
    q = quotient_by_element(F5B, F5B.var() ** 4)
    assert is_zero_ring(q)
    assert is_zero_ring(quotient_by_element(Q, Q.from_int(7)))
    # p-local: (p^2 * unit) gives Z/p^2
    zp = PLocalIntegers(3)
    assert quotient_by_element(zp, zp.from_fraction(Fraction(9, 2))) == IntegersMod(9)
    assert is_zero_ring(quotient_by_element(zp, zp.from_fraction(Fraction(2, 5))))


def test_iterated_quotients_compose():
    q1 = quotient_by_element(ZB, ZB.from_int(2))
    beta = project(ZB.var(), q1)
    q2 = quotient_by_element(q1, beta)
    assert is_zero_ring(q2)
    # Z/12 -> Z/4 -> Z/2
    q = quotient_by_element(IntegersMod(12), IntegersMod(12).from_int(4))
    assert q == IntegersMod(4)
    q = quotient_by_element(q, q.from_int(2))
    assert q == IntegersMod(2)


def test_quotient_with_polynomial_generator():
    # Q[beta^±1]/(1 + beta^2): beta^2 = -1, beta invertible
    gen = QB.one() + QB.var() * QB.var()
    ring = quotient_by_element(QB, gen)
    assert isinstance(ring, QuotientByPrincipal)
    e = project(QB.var(), ring)
    assert e * e == ring.from_int(-1)
    assert e.is_unit() and e * e.inverse() == ring.one()
    assert not is_zero_ring(ring)
    # (1+beta)(1-beta) = 1 - beta^2 = 2 is a unit there; but mod (1 - beta^2)
    ring2 = quotient_by_element(QB, QB.one() - QB.var() * QB.var())
    x = project(QB.one() + QB.var(), ring2)
    w = zero_divisor_witness(x)
    assert w is not None and (x * w).is_zero() and not w.is_zero()


def test_quotient_reduces_negative_powers():
    # F_5[beta^±1]/(beta^2 + 1): beta^2 = -1, so beta^-1 = -beta = 4 beta
    beta = F5B.var()
    ring = quotient_by_element(F5B, beta * beta + 1)
    assert isinstance(ring, QuotientByPrincipal)
    b = ring.from_base(beta)
    assert ring.from_base(F5B.var(-1)) == 4 * b
    assert ring.from_base(F5B.var(-3)) == b
    assert b * ring.from_base(F5B.var(-1)) == ring.one()


def test_reducing_by_the_monic_modulus_decides_nothing(monkeypatch):
    # the modulus is monic, so a reduction divides without inverting its leading 1
    beta = F5B.var()
    ring = quotient_by_element(F5B, beta * beta + 1)
    x = 2 * F5B.var(-3) + 3 * F5B.var(4) + beta + F5B.var(-7)
    calls = []

    def counted(name):
        method = getattr(rings.RingElement, name)

        def wrapper(self):
            calls.append(name)
            return method(self)

        return wrapper

    for name in ("inverse", "is_unit"):
        monkeypatch.setattr(rings.RingElement, name, counted(name))
    reduced = ring.from_base(x)
    assert calls == []
    # beta^-3 = beta^-7 = beta and beta^4 = 1
    assert reduced.payload == {0: 3, 1: 4}


def test_quotient_of_a_quotient_and_its_projection():
    # beta = 2 is a root of beta^2 + 1 over F_5, so quotienting
    # F_5[beta^±1]/((beta^2 + 1)(beta - 1)) by beta - 2 leaves (beta + 3)
    beta = F5B.var()
    q1 = quotient_by_element(F5B, (beta * beta + 1) * (beta - 1))
    q2 = quotient_by_element(q1, project(beta - 2, q1))
    assert isinstance(q2, QuotientByPrincipal)
    assert q2 == QuotientByPrincipal(F5B, beta + 3)
    # there beta = 2 and beta^-1 = 3, so beta^-1 + 3 = 1
    x = F5B.var(-1) + 3
    assert project(x, q2) == q2.one()
    assert project(project(x, q1), q2) == q2.one()


def test_quotient_zero_divisors_brute_force_mod_m():
    # agreement with exhaustive search over all residues, m <= 60
    for m in range(2, 61):
        ring0 = IntegersMod(m)
        for r in range(1, m):
            q = quotient_by_element(ring0, ring0.from_int(r))
            g = math.gcd(m, r)
            assert q == IntegersMod(g)
            for s in range(g):
                elt = q.from_int(s)
                brute = any((s * t) % g == 0 for t in range(1, g)) if g > 1 else False
                assert (zero_divisor_witness(elt) is not None) == brute


def test_is_zero_ring():
    assert not is_zero_ring(Z)
    assert is_zero_ring(IntegersMod(1))
    assert is_zero_ring(quotient_by_element(LaurentExtension(IntegersMod(2), "b", 1),
                                            LaurentExtension(IntegersMod(2), "b", 1).var()))


def test_ring_mismatch_raises():
    with pytest.raises(RingMismatch):
        Z.from_int(1) + Q.from_int(1)
    with pytest.raises(RingMismatch):
        ZB.var() * QB.var()
    with pytest.raises(RingMismatch):
        Z.from_int(1) == Q.from_int(1)


def _quotient_of_qb(generator, variable="beta"):
    qb = LaurentExtension(Rationals(), variable, 1)
    return QuotientByPrincipal(qb, generator(qb.var()))


def _graded(max_degree, degrees=(1, 2)):
    return GradedPolynomialRing([(f"m{i}", d) for i, d in enumerate(degrees, 1)], max_degree)


# (make_a, make_b, equal): each ring is built on its own, so an equal pair is
# two objects; an unequal pair differs in its class or in one identity field
RING_IDENTITY = {
    "Z": (Integers, Integers, True),
    "Q": (Rationals, Rationals, True),
    "Z/6": (lambda: IntegersMod(6), lambda: IntegersMod(6), True),
    "Z_(5)": (lambda: PLocalIntegers(5), lambda: PLocalIntegers(5), True),
    "Z[beta]": (
        lambda: LaurentExtension(Integers(), "beta", 1),
        lambda: LaurentExtension(Integers(), "beta", 1),
        True,
    ),
    "nested Laurent": (
        lambda: LaurentExtension(LaurentExtension(IntegersMod(6), "u", 2), "beta", 1),
        lambda: LaurentExtension(LaurentExtension(IntegersMod(6), "u", 2), "beta", 1),
        True,
    ),
    "Q[beta]/(2*beta - 2) = Q[beta]/(beta - 1)": (
        lambda: _quotient_of_qb(lambda b: 2 * b - 2),
        lambda: _quotient_of_qb(lambda b: b - 1),
        True,
    ),
    "graded": (lambda: _graded(3), lambda: _graded(3), True),
    "Q^3": (lambda: FunctionRing(3), lambda: FunctionRing(3), True),
    "Z vs Q": (Integers, Rationals, False),
    "Z/5 vs Z_(5)": (lambda: IntegersMod(5), lambda: PLocalIntegers(5), False),
    "Z/5 vs Z/7": (lambda: IntegersMod(5), lambda: IntegersMod(7), False),
    "Z_(5) vs Z_(7)": (lambda: PLocalIntegers(5), lambda: PLocalIntegers(7), False),
    "Z[beta] vs Z[u]": (
        lambda: LaurentExtension(Integers(), "beta", 1),
        lambda: LaurentExtension(Integers(), "u", 1),
        False,
    ),
    "Laurent degree 1 vs 2": (
        lambda: LaurentExtension(Integers(), "beta", 1),
        lambda: LaurentExtension(Integers(), "beta", 2),
        False,
    ),
    "Z[beta] vs Q[beta]": (
        lambda: LaurentExtension(Integers(), "beta", 1),
        lambda: LaurentExtension(Rationals(), "beta", 1),
        False,
    ),
    "nested Laurent, inner degree": (
        lambda: LaurentExtension(LaurentExtension(IntegersMod(6), "u", 2), "beta", 1),
        lambda: LaurentExtension(LaurentExtension(IntegersMod(6), "u", 1), "beta", 1),
        False,
    ),
    "Q[beta]/(beta - 1) vs Q[beta]/(beta - 2)": (
        lambda: _quotient_of_qb(lambda b: b - 1),
        lambda: _quotient_of_qb(lambda b: b - 2),
        False,
    ),
    "Q[beta]/(beta - 1) vs Q[u]/(u - 1)": (
        lambda: _quotient_of_qb(lambda b: b - 1),
        lambda: _quotient_of_qb(lambda u: u - 1, "u"),
        False,
    ),
    "graded max_degree 3 vs 4": (lambda: _graded(3), lambda: _graded(4), False),
    "graded generator degrees": (lambda: _graded(3), lambda: _graded(3, (1, 3)), False),
    "Q^2 vs Q^3": (lambda: FunctionRing(2), lambda: FunctionRing(3), False),
}


@pytest.mark.parametrize("make_a, make_b, equal", RING_IDENTITY.values(), ids=RING_IDENTITY)
def test_ring_identity(make_a, make_b, equal):
    a, b = make_a(), make_b()
    assert a is not b and a == a
    assert (a == b) is equal and (b == a) is equal and (a != b) is not equal
    if equal:
        assert hash(a) == hash(b) and len({a, b}) == 1
        assert (a.one() + b.one()).ring is a
    else:
        with pytest.raises(RingMismatch):
            a.one() + b.one()


def test_plocal_validation():
    zp = PLocalIntegers(5)
    with pytest.raises(Unsupported):
        zp.from_fraction(Fraction(1, 5))
    assert zp.from_fraction(Fraction(3, 4)).is_unit()
    assert not zp.from_fraction(Fraction(5, 4)).is_unit()
    with pytest.raises(ValueError):
        PLocalIntegers(6)


def test_laurent_nested_variable_clash():
    with pytest.raises(ValueError):
        LaurentExtension(ZB, "beta", 2)
    nested = LaurentExtension(ZB, "gamma", 2)
    g = nested.generators()
    assert set(g) == {"beta", "gamma"}
    # a clash deeper in the tower, which would leave the outer variable unnamed
    with pytest.raises(ValueError):
        LaurentExtension(nested, "beta", 1)
    # a clash through a quotient of a Laurent ring
    f5a = LaurentExtension(IntegersMod(5), "a", 1)
    a = f5a.var()
    split = quotient_by_element(f5a, (a - f5a.one()) * (a - f5a.from_int(2)))
    with pytest.raises(ValueError):
        LaurentExtension(split, "a", 1)


def test_unsupported_quotient_shapes():
    # multi-term generator over a non-field base
    gen = ZB.one() + ZB.var()
    with pytest.raises(Unsupported):
        quotient_by_element(ZB, gen)


def test_project_chain():
    v = ZB.from_int(6) * ZB.var(2)
    q1 = quotient_by_element(ZB, ZB.from_int(4))
    img = project(v, q1)
    assert img == q1.monomial(IntegersMod(4).from_int(2), 2)
    zp = PLocalIntegers(3)
    img2 = project(zp.from_fraction(Fraction(5, 2)), IntegersMod(9))
    assert img2 == IntegersMod(9).from_int(5 * pow(2, -1, 9))


def test_plocal_projects_only_to_powers_of_p():
    z5 = PLocalIntegers(5)
    assert project(z5.from_fraction(Fraction(1, 2)), IntegersMod(25)) == IntegersMod(25).from_int(13)
    # no ring map Z_(5) -> Z/7: neither a wrong residue nor a bare ValueError
    for q in (Fraction(3), Fraction(1, 7)):
        with pytest.raises(Unsupported):
            project(z5.from_fraction(q), IntegersMod(7))


def test_element_pow_and_hash():
    beta = ZB.var()
    assert beta**3 == ZB.var(3)
    assert beta**-2 == ZB.var(-2)
    assert hash(ZB.one() + beta) == hash(ZB.one() + ZB.var())
    with pytest.raises(Unsupported):
        ZB.from_int(2).inverse()


def test_quotient_units_brute_force_over_f3():
    # gcds in F_3[beta] pass through non-monic remainders; is_unit and the
    # zero-divisor decision must agree with an exhaustive search
    import itertools

    f3b = LaurentExtension(IntegersMod(3), "beta", 1)
    beta = f3b.var()
    for gen in (beta - f3b.one(), beta * beta + f3b.from_int(2), beta**3 + beta + f3b.one()):
        ring = quotient_by_element(f3b, gen)
        deg = ring._deg
        elements = [
            project(sum((f3b.from_int(c) * beta**i for i, c in enumerate(cs)), f3b.zero()), ring)
            for cs in itertools.product(range(3), repeat=deg)
        ]
        for x in elements:
            brute_unit = any(x * y == ring.one() for y in elements)
            assert x.is_unit() == brute_unit, (gen, x)
            if not x.is_zero():
                brute_zd = any(not y.is_zero() and (x * y).is_zero() for y in elements)
                assert (zero_divisor_witness(x) is not None) == brute_zd, (gen, x)


def test_zero_divisor_witness_checks_its_cofactor(monkeypatch):
    # a gcd patched to beta + 2, which does not divide beta^2 - 1: the
    # witness must refuse, even under -O, rather than return a wrong cofactor
    ring = quotient_by_element(QB, QB.one() - QB.var() * QB.var())
    x = project(QB.one() + QB.var(), ring)
    monkeypatch.setattr(rings, "_poly_gcd", lambda field, a, b: {0: Fraction(2), 1: Fraction(1)})
    with pytest.raises(Inconsistent):
        zero_divisor_witness(x)


def test_laurent_units_over_z6():
    # Z/6 = Z/2 x Z/3, so a unit need not have a single unit coefficient:
    # (3 + 4*beta) * (3 + 4*beta^-1) = 25 + 12*beta + 12*beta^-1 = 1
    z6b = LaurentExtension(IntegersMod(6), "beta", 1)
    beta = z6b.var()
    u = 3 + 4 * beta
    assert u.is_unit()
    assert u.inverse() == 3 + 4 * z6b.var(-1)
    assert u * u.inverse() == z6b.one()
    assert is_zero_ring(quotient_by_element(z6b, u))
    assert zero_divisor_witness(u) is None


def test_nested_laurent_units_over_z6():
    z6ab = LaurentExtension(LaurentExtension(IntegersMod(6), "a", 1), "beta", 1)
    a, beta = z6ab.generators()["a"], z6ab.var()
    u = 3 + 4 * a * beta
    assert u.is_unit()
    assert u.inverse() == 3 + 4 * a ** -1 * beta ** -1
    assert u * u.inverse() == z6ab.one()
    assert is_zero_ring(quotient_by_element(z6ab, u))
    assert not (3 + a * beta).is_unit()  # its image over F_3 is a * beta
    with pytest.raises(Unsupported):
        (3 + a * beta).inverse()


def test_a_laurent_tower_holds_raw_payloads_down_to_its_residues():
    # over Z/6[beta^±1][gamma^±1] each payload nests maps down to nonzero
    # residues, with no ring element at any level: through products, sums,
    # the inverse by the split Z/6 = Z/2 x Z/3, quotients and projections
    tower = LaurentExtension(LaurentExtension(IntegersMod(6), "beta", 1), "gamma", 1)
    beta, gamma = tower.generators()["beta"], tower.var()

    def assert_raw(elt):
        def walk(payload, ring):
            if isinstance(ring, LaurentExtension):
                assert type(payload) is dict
                for c in payload.values():
                    assert c  # a zero coefficient is dropped at every level
                    walk(c, ring.base)
            else:
                assert type(payload) is int and 0 <= payload < ring.modulus

        walk(elt.payload, elt.ring)
        return elt

    x = 2 * beta + 3 * gamma ** -1 + 5
    y = beta ** -1 * gamma + 4 * beta * gamma
    u = 3 + 4 * beta * gamma  # a unit with no unit coefficient
    results = [x * y, x + y, x * y - y * x, (2 * beta * gamma) * (3 * gamma), x * y + u]
    assert results[2].payload == results[3].payload == {}
    inverse = assert_raw(u.inverse())
    assert inverse == 3 + 4 * beta ** -1 * gamma ** -1
    assert assert_raw(u * inverse) == tower.one()
    for r, m in ((2 * beta, 2), (3 * gamma ** 2, 3)):
        q = quotient_by_element(tower, r)
        assert q == LaurentExtension(LaurentExtension(IntegersMod(m), "beta", 1), "gamma", 1)
        results += [project(elt, q) for elt in (x, y, x * y, u, inverse)]
        assert project(u, q) * project(inverse, q) == q.one()
    for elt in results:
        assert_raw(elt)


@pytest.mark.parametrize("m", [4, 6])
def test_laurent_units_brute_force(m):
    # every inverse of a unit with support in {beta^0, beta^1} has support
    # in beta^-2 .. beta^1, so the candidates below are exhaustive
    import itertools

    ring = LaurentExtension(IntegersMod(m), "beta", 1)
    beta = ring.var()
    window = [beta ** e for e in range(-2, 2)]
    candidates = [
        sum((c * w for c, w in zip(cs, window)), ring.zero())
        for cs in itertools.product(range(m), repeat=len(window))
    ]
    for c0, c1 in itertools.product(range(m), repeat=2):
        x = c0 + c1 * beta
        inverses = [y for y in candidates if x * y == ring.one()]
        assert x.is_unit() == bool(inverses), x
        if inverses:
            assert x.inverse() in inverses, x
        else:
            with pytest.raises(Unsupported):
                x.inverse()


def test_family_decisions_refuse_outside_their_scope():
    from fglforge.gradedpoly import lazard_base_ring
    from fglforge.hopf import FunctionRing

    lazard = lazard_base_ring(3)
    with pytest.raises(Undecidable):
        zero_divisor_witness(lazard.generator("m1"))
    with pytest.raises(Unsupported):
        quotient_by_element(lazard, lazard.generator("m1"))

    z4bg = LaurentExtension(LaurentExtension(IntegersMod(4), "beta", 1), "gamma", 1)
    x = 2 + 2 * z4bg.var()
    assert not x.is_unit()
    with pytest.raises(Undecidable):
        zero_divisor_witness(x)

    functions = FunctionRing(2)
    with pytest.raises(Undecidable):
        zero_divisor_witness(functions.from_values([1, 0]))
    with pytest.raises(Unsupported):
        functions.to_json()

    with pytest.raises(Unsupported):
        project(Q.from_int(3), IntegersMod(5))
    with pytest.raises(Unsupported):
        project(IntegersMod(4).from_int(3), IntegersMod(8))


@pytest.mark.parametrize("flavor", ["split_quotient", "functions"])
def test_laurent_unit_over_split_base_is_undecidable(flavor):
    # with orthogonal idempotents e1 + e2 = 1 in the base,
    # (e1 + e2*gamma)(e1 + e2*gamma^-1) = 1 although no coefficient is a unit,
    # so the unit-monomial test alone must not answer False
    from fglforge.hopf import FunctionRing

    if flavor == "split_quotient":
        f5a = LaurentExtension(IntegersMod(5), "a", 1)
        base = QuotientByPrincipal(f5a, (f5a.var() - 1) * (f5a.var() - 2))
        a = base.from_base(f5a.var())
        e1, e2 = 2 - a, a - 1
    else:
        base = FunctionRing(2)
        e1, e2 = base.chi(0), base.chi(1)
    assert e1 * e1 == e1 and (e1 * e2).is_zero() and e1 + e2 == base.one()
    ring = LaurentExtension(base, "gamma", 1)
    c1, c2 = ring.monomial(e1, 0), ring.monomial(e2, 0)
    u = c1 + c2 * ring.var()
    assert u * (c1 + c2 * ring.var(-1)) == ring.one()
    with pytest.raises(Undecidable):
        u.is_unit()
    with pytest.raises(Undecidable):
        u.inverse()
    assert ring.var(3).is_unit()  # a unit monomial is still decided


def test_domain_mod_nilpotents():
    from fglforge.gradedpoly import lazard_base_ring
    from fglforge.hopf import FunctionRing

    decided = [Z, Q, PLocalIntegers(3), IntegersMod(5), IntegersMod(8), ZB, F5B, lazard_base_ring(3)]
    assert all(ring.is_domain_mod_nilpotents() for ring in decided)
    assert LaurentExtension(LaurentExtension(IntegersMod(9), "a", 1), "b", 1).is_domain_mod_nilpotents()
    undecided = [IntegersMod(1), IntegersMod(6), LaurentExtension(IntegersMod(6)), FunctionRing(2)]
    assert not any(ring.is_domain_mod_nilpotents() for ring in undecided)


def test_nilpotents_of_z_mod_m_match_brute_force():
    # a is nilpotent in Z/m iff a^k = 0 for some k; k = m always suffices.
    # In particular 1 is nilpotent only in the zero ring Z/1
    for m in range(1, 200):
        ring = IntegersMod(m)
        for a in range(m):
            assert ring.is_nilpotent(ring.from_int(a)) == (pow(a, m, m) == 0), (m, a)


def _prime_powers_by_trial_division(m):
    """The prime powers exactly dividing m, by increasing prime."""
    out, d = [], 2
    while m > 1:
        q = 1
        while m % d == 0:
            m, q = m // d, q * d
        if q > 1:
            out.append(q)
        d += 1
    return out


def test_z_mod_m_is_a_domain_mod_nilpotents_as_brute_force_decides():
    # Z/m modulo its nilpotents is a domain iff it is not the zero ring (1 is
    # not nilpotent) and ab nilpotent implies a or b nilpotent; and m is the
    # product of the pairwise coprime prime powers _prime_power_factors finds
    for m in range(1, 200):
        nilpotent = {a for a in range(m) if pow(a, m, m) == 0}
        rest = [a for a in range(m) if a not in nilpotent]
        domain = bool(rest) and all(a * b % m not in nilpotent for a in rest for b in rest)
        assert IntegersMod(m).is_domain_mod_nilpotents() == domain, m
        assert rings._prime_power_factors(m) == _prime_powers_by_trial_division(m), m


def test_division_in_z_mod_m_matches_brute_force():
    # n x = a in Z/m: no solution raises Inconsistent, one is returned, and
    # several raise Unsupported naming how many there are
    for m in range(1, 25):
        ring = IntegersMod(m)
        for n in range(1, 2 * m + 2):
            for a in range(m):
                solutions = [x for x in range(m) if (n * x - a) % m == 0]
                if not solutions:
                    with pytest.raises(Inconsistent):
                        ring.divide(ring.from_int(a), n)
                elif len(solutions) == 1:
                    assert ring.divide(ring.from_int(a), n) == ring.from_int(solutions[0])
                else:
                    with pytest.raises(Unsupported, match=f"has {len(solutions)} values mod {m}$"):
                        ring.divide(ring.from_int(a), n)


def test_laurent_projection_only_onto_its_own_quotients():
    # F_5[beta^±1] maps onto its own quotients, not onto a quotient of another
    # Laurent ring, nor onto a Laurent ring over itself in a new variable
    v = F5B.from_int(3) * F5B.var(2)
    own = QuotientByPrincipal(F5B, F5B.var() - 1)
    assert project(v, own) == own.from_int(3)
    for target in (QuotientByPrincipal(QB, QB.var() - 1), LaurentExtension(F5B, "gamma", 1)):
        with pytest.raises(Unsupported):
            project(v, target)
