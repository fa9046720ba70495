"""Formal group laws: named laws, axioms, n-series, v-coefficients,
logarithms, coordinate changes, gradings."""

import random
import zlib
from fractions import Fraction
from functools import partial

import pytest

from fglforge import fgl as fgl_module
from fglforge.errors import (
    AxiomsFailed,
    BadCoordinate,
    BadLogShape,
    IncompatibleRing,
    InsufficientPrecision,
    NotQAlgebra,
)
from fglforge.fgl import (
    AxiomCheck,
    AxiomReport,
    FormalGroupLaw,
    change_coordinates,
    check_axioms,
    formal_inverse,
    from_logarithm,
    grade_check,
    logarithm,
    n_series,
    named_fgl,
    v_coefficient,
)
from fglforge.rings import Integers, IntegersMod, LaurentExtension, PLocalIntegers, Rationals
from fglforge.series import (
    TruncatedSeries1,
    TruncatedSeries2,
    TruncatedSeriesN,
    compose_series,
    substitute_pair,
)

Z = Integers()
Q = Rationals()
ZB = LaurentExtension(Z, "beta", 1)
QB = LaurentExtension(Q, "beta", 1)


def test_named_laws():
    add = named_fgl("additive", Z, 5)
    assert add.body.at(1, 0) == Z.one() and add.body.at(1, 1).is_zero()
    assert add.validated

    mult = named_fgl("multiplicative", ZB, 5)
    assert mult.body.at(1, 1) == -ZB.var()
    assert mult.validated and mult.grading == {"beta": 1}

    h1 = named_fgl("honda_h1", IntegersMod(2), 5)
    assert h1.body.at(1, 1) == IntegersMod(2).one()
    # height one: [2](x) = x^2 over F_2, verified through the 2-series
    two = n_series(h1, 2).series
    assert two.coefficient(1).is_zero() and two.coefficient(2) == IntegersMod(2).one()

    with pytest.raises(IncompatibleRing):
        named_fgl("multiplicative", Z, 5)
    # x + y - beta xy is graded only with |beta| = 1: refused up front, not
    # reported as a law failing its grading axiom
    for degree in (0, 2, -1):
        with pytest.raises(IncompatibleRing, match=f"degree 1, not {degree}"):
            named_fgl("multiplicative", LaurentExtension(Z, "beta", degree), 5)
    with pytest.raises(IncompatibleRing):
        named_fgl("honda_h1", IntegersMod(6), 5)
    with pytest.raises(IncompatibleRing):
        named_fgl("frobenius", Z, 5)


def test_law_takes_its_ring_and_precision_from_its_body():
    body = TruncatedSeries2.from_entries(
        Q, [(1, 0, Q.one()), (0, 1, Q.one()), (1, 1, Q.from_int(-1))], 5
    )
    law = FormalGroupLaw(body)
    assert (law.ring, law.precision) == (Q, 5)
    assert repr(law) == "<fgl over Q at precision 5>"
    assert check_axioms(law).passed


def test_axiom_failures_carry_witnesses():
    bad = FormalGroupLaw(
        TruncatedSeries2.from_entries(
            Z, [(1, 0, Z.one()), (0, 1, Z.one()), (2, 0, Z.one())], 5
        ),
    )
    report = check_axioms(bad)
    unital = report.checks[0]
    assert unital.axiom == "unitality" and not unital.passed and unital.witness == (2, 0)

    asym = FormalGroupLaw(
        TruncatedSeries2.from_entries(
            Z,
            [(1, 0, Z.one()), (0, 1, Z.one()), (1, 1, Z.one()), (2, 1, Z.one())],
            5,
        ),
    )
    report = check_axioms(asym)
    sym = report.checks[1]
    assert sym.axiom == "symmetry" and not sym.passed
    assert sym.witness in ((1, 2), (2, 1))
    assert not report.passed and report.failures()


def test_a_constant_term_fails_associativity_without_a_witness():
    # F(F(x,y),z) is undefined when F(0,0) != 0: the report says so, and the
    # associativity substitution does not raise NonzeroConstantTerm
    for ring in (Z, Q):
        body = TruncatedSeries2.from_entries(
            ring, [(0, 0, ring.one()), (1, 0, ring.one()), (0, 1, ring.one())], 4
        )
        assert check_axioms(FormalGroupLaw(body)) == AxiomReport(
            [
                AxiomCheck("unitality", False, (0, 0)),
                AxiomCheck("symmetry", True, None),
                AxiomCheck("associativity", False, None),
            ]
        )


def test_formal_inverse():
    add = named_fgl("additive", Z, 6)
    assert formal_inverse(add) == -TruncatedSeries1.x(Z, 6)
    # multiplicative: -x/(1 - beta x) = -x - beta x^2 - beta^2 x^3 - ...
    mult = named_fgl("multiplicative", ZB, 6)
    iota = formal_inverse(mult)
    beta = ZB.var()
    assert list(iota.coeffs) == [ZB.zero()] + [-(beta ** (k - 1)) for k in range(1, 7)]
    # substituting back gives zero
    back = substitute_pair(mult.body, TruncatedSeries1.x(ZB, 6), iota)
    assert back.is_zero()
    # universal law at N=2: the triangular solve gives -x - 2 m1 x^2
    uni = named_fgl("universal_rational", None, 2)
    iota2 = formal_inverse(uni)
    m1 = uni.ring.generator("m1")
    assert iota2.coefficient(1) == -uni.ring.one()
    assert iota2.coefficient(2) == m1.ring.from_int(-2) * m1


def test_n_series():
    mult = named_fgl("multiplicative", ZB, 8)
    beta = ZB.var()
    two = n_series(mult, 2).series
    assert two == TruncatedSeries1(ZB, [ZB.zero(), ZB.from_int(2), -beta], 8)
    add = named_fgl("additive", Z, 8)
    for p in (2, 3, 5):
        assert n_series(add, p).series == TruncatedSeries1.x(Z, 8).scale(p)
    assert n_series(mult, 0).series.is_zero()
    assert n_series(mult, 1).series == TruncatedSeries1.x(ZB, 8)


def test_n_series_homomorphism_exact_at_precision_10():
    for law in (
        named_fgl("multiplicative", ZB, 10),
        named_fgl("additive", Z, 10),
        named_fgl("honda_h1", IntegersMod(3), 10),
    ):
        series = {k: n_series(law, k).series for k in range(-4, 5)}
        for k in range(-4, 5):
            for l in range(-4, 5):
                if abs(k + l) <= 4:
                    assert substitute_pair(law.body, series[k], series[l]) == series[k + l], (k, l)
                if abs(k * l) <= 4 and l != 0:
                    assert compose_series(series[k], series[l]) == series[k * l], (k, l)


def test_v_coefficients():
    mult = named_fgl("multiplicative", ZB, 10)
    assert v_coefficient(mult, 2, 1) == -ZB.var()
    assert v_coefficient(mult, 2, 0) == ZB.from_int(2)
    assert v_coefficient(mult, 3, 0) == ZB.from_int(3)
    add = named_fgl("additive", Z, 10)
    for p in (2, 3, 5, 7):
        assert v_coefficient(add, p, 0) == Z.from_int(p)
        if p * p <= 10:
            pass
        assert v_coefficient(add, p, 1).is_zero()
    with pytest.raises(InsufficientPrecision):
        v_coefficient(mult, 2, 4)
    with pytest.raises(ValueError):
        v_coefficient(mult, 4, 1)
    # p^-1 is no exponent of x: refused before any slicing
    with pytest.raises(ValueError, match="nonnegative"):
        v_coefficient(mult, 2, -1)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_v1_of_multiplicative_is_unit_times_beta_power(p):
    # v_1 = (-1)^(p+1) beta^(p-1) exactly; reducing the integral value into
    # F_p[beta^±1] matches the law computed there directly
    from fglforge.rings import project, quotient_by_element

    mult_z = named_fgl("multiplicative", ZB, p + 1)
    v1_integral = v_coefficient(mult_z, p, 1)
    mod_p = quotient_by_element(ZB, ZB.from_int(p))
    reduced = project(v1_integral, mod_p)
    unit = mod_p.from_int((-1) ** (p + 1))
    assert reduced == unit * mod_p.var() ** (p - 1)
    mult_p = named_fgl("multiplicative", mod_p, p + 1)
    assert v_coefficient(mult_p, p, 1) == reduced


def test_logarithm():
    mult = named_fgl("multiplicative", QB, 6)
    log = logarithm(mult)
    beta = QB.var()
    for n in range(1, 7):
        assert log.coefficient(n) == QB.from_fraction(Fraction(1, n)) * beta ** (n - 1)
    add = named_fgl("additive", Q, 6)
    assert logarithm(add) == TruncatedSeries1.x(Q, 6)
    with pytest.raises(NotQAlgebra):
        logarithm(named_fgl("additive", Z, 6))


def test_logarithm_at_precision_zero_names_the_law_precision():
    # a law at precision 0 has no dF/dy to integrate; the error names the
    # law's precision, not one the caller never passed
    for law in (named_fgl("additive", Q, 0), named_fgl("multiplicative", QB, 0)):
        with pytest.raises(InsufficientPrecision, match=r"need precision >= 1 for the logarithm, have 0$"):
            logarithm(law)


def test_log_of_n_series_is_multiplication_by_k():
    mult = named_fgl("multiplicative", QB, 10)
    log = logarithm(mult)
    for k in range(-4, 5):
        series = n_series(mult, k).series
        assert compose_series(log, series) == log.scale(QB.from_int(k))


@pytest.mark.parametrize("precision", [6, 7, 8])
def test_n_series_of_the_universal_law_through_its_logarithm(precision):
    # over a Q-algebra [k](x) = exp(k log x), with exp the reversion of the
    # log t + m_1 t^2 + ... + m_{N-1} t^N that defines the law.  This side
    # composes one-variable series only and never calls substitute_pair, so
    # through n_series it checks the mixed coefficients of the law that
    # compose_series builds from that log
    law = named_fgl("universal_rational", None, precision)
    ring = law.ring
    log = TruncatedSeries1(
        ring, [ring.zero(), ring.one()] + [ring.generator(f"m{i}") for i in range(1, precision)]
    )
    exp = log.revert()
    for k in range(-3, 5):
        assert n_series(law, k).series == compose_series(exp, log.scale(k)), k
    for p in (2, 3, 5, 7):
        p_series = compose_series(exp, log.scale(p))
        n = 0
        while p**n <= precision:
            assert v_coefficient(law, p, n) == p_series.coefficient(p**n), (p, n)
            n += 1


def test_from_logarithm():
    # l = t gives the additive law
    add = from_logarithm(TruncatedSeries1.x(Q, 5), Q, 5)
    assert add.body == named_fgl("additive", Q, 5).body
    # the truncated multiplicative logarithm gives back x + y - beta x y
    mult = named_fgl("multiplicative", QB, 4)
    rebuilt = from_logarithm(logarithm(mult), QB, 4)
    assert rebuilt.body == mult.body
    # l = t + t^2: oracle expansion x + y - 2xy + 4x^2y + 4xy^2
    law = from_logarithm(TruncatedSeries1.from_ints(Q, [0, 1, 1], 3), Q, 3)
    assert law.body.at(1, 1) == Q.from_int(-2)
    assert law.body.at(2, 1) == Q.from_int(4)
    assert law.body.at(1, 2) == Q.from_int(4)
    # round trip: log(exp(l)) = l
    assert logarithm(law) == TruncatedSeries1.from_ints(Q, [0, 1, 1, 0], 3)
    with pytest.raises(BadLogShape):
        from_logarithm(TruncatedSeries1.from_ints(Q, [0, 2], 4), Q, 4)
    with pytest.raises(NotQAlgebra):
        from_logarithm(TruncatedSeries1.x(Z, 4), Z, 4)


def test_change_coordinates():
    add = named_fgl("additive", Q, 2)
    b = TruncatedSeries1.from_ints(Q, [0, 1, 1], 2)
    conj = change_coordinates(add, b)
    assert conj.body.at(1, 1) == Q.from_int(2)
    # b = t is the identity
    mult = named_fgl("multiplicative", QB, 6)
    assert change_coordinates(mult, TruncatedSeries1.x(QB, 6)).body == mult.body
    # conjugating by the log linearizes: multiplicative -> additive
    log = logarithm(mult)
    linear = change_coordinates(mult, log)
    additive = named_fgl("additive", QB, 6)
    assert linear.body == additive.body
    with pytest.raises(BadCoordinate):
        change_coordinates(mult, TruncatedSeries1.from_ints(QB, [1, 1], 6))


def test_random_coordinate_changes_stay_lawful():
    rng = random.Random(5)
    laws = [
        named_fgl("multiplicative", QB, 6),
        named_fgl("additive", Q, 6),
        named_fgl("honda_h1", IntegersMod(3), 6),
        named_fgl("universal_rational", None, 5),
    ]
    count = 0
    for law in laws:
        ring = law.ring
        for _ in range(14):
            coeffs = [ring.zero(), ring.one()] + [
                ring.from_int(rng.randint(-3, 3)) for _ in range(law.precision - 1)
            ]
            b = TruncatedSeries1(ring, coeffs, law.precision)
            conj = change_coordinates(law, b)
            assert check_axioms(conj).passed
            count += 1
    assert count >= 50


def test_grade_checks():
    mult = named_fgl("multiplicative", ZB, 6)
    assert grade_check(mult, {"beta": 1})
    assert not grade_check(mult, {"beta": 2})
    add = named_fgl("additive", Z, 6)
    assert grade_check(add, {})
    uni = named_fgl("universal_rational", None, 6)
    assert grade_check(uni, uni.grading)
    # another weighting of the same ring reads its own degrees, and leaves the
    # ring's degree memo as it was
    assert not grade_check(uni, {"m1": 2})
    assert grade_check(uni, uni.grading)


def test_grading_invariant_under_graded_changes():
    rng = random.Random(8)
    mult = named_fgl("multiplicative", QB, 6)
    beta = QB.var()
    for _ in range(20):
        coeffs = [QB.zero(), QB.one()]
        for i in range(1, 6):
            coeffs.append(QB.from_int(rng.randint(-2, 2)) * beta**i)
        b = TruncatedSeries1(QB, coeffs, 6)
        conj = change_coordinates(mult, b)
        assert grade_check(conj, {"beta": 1})


def test_check_axioms_is_memoized_transparently():
    mult = named_fgl("multiplicative", ZB, 8)
    first = check_axioms(mult)
    second = check_axioms(mult)
    assert first is second and mult.validated


def _own_inverse(law):
    """i(x) with F(x, i(x)) = 0, without fgl.formal_inverse: for x + y - beta xy
    the closed form -sum beta^(m-1) x^m, else a triangular solve, where
    i_m = -[x^m] F(x, i_1 x + ... + i_(m-1) x^(m-1))."""
    ring, n = law.ring, law.precision
    if law.name == "multiplicative":
        return TruncatedSeries1(ring, [ring.zero()] + [-ring.var(m - 1) for m in range(1, n + 1)], n)
    x1 = TruncatedSeries1.x(ring, n)
    inv = -x1
    for m in range(2, n + 1):
        err = substitute_pair(law.body, x1, inv).coeffs[m]
        inv = inv - TruncatedSeries1(ring, [ring.zero()] * m + [err], n)
    return inv


def _iterated_n_series(law):
    """[k](x) for k in [-5, 70] by the defining recursion [k] = F(x, [k-1]),
    run down from [0] with the inverse for negative k."""
    x1 = TruncatedSeries1.x(law.ring, law.precision)
    iota = _own_inverse(law)
    out = {0: TruncatedSeries1.zero(law.ring, law.precision)}
    for k in range(1, 71):
        out[k] = substitute_pair(law.body, x1, out[k - 1])
    for k in range(-1, -6, -1):
        out[k] = substitute_pair(law.body, iota, out[k + 1])
    return out


def _non_associative_law():
    # x + y + x^2 y^2 is unital and symmetric but not associative
    body = TruncatedSeries2.from_entries(
        Z, [(1, 0, Z.one()), (0, 1, Z.one()), (2, 2, Z.one())], 6
    )
    return FormalGroupLaw(body)


def _graded_conjugate(base, precision):
    """The multiplicative law over base[beta^±1] conjugated by a seeded
    b(x) = x + sum c_i beta^i x^(i+1): each coefficient of x^i y^j stays one
    term c beta^(i+j-1), so n_series runs at beta = 1."""
    ring = LaurentExtension(base, "beta", 1)
    rng = random.Random(zlib.crc32(f"graded conjugate over {base}".encode()))
    b = [ring.zero(), ring.one()]
    b += [ring.from_int(rng.randint(-3, 3)) * ring.var(i) for i in range(1, precision)]
    mult = named_fgl("multiplicative", ring, precision)
    return change_coordinates(mult, TruncatedSeries1(ring, b, precision))


def _ungraded_conjugate(precision):
    """The multiplicative law over Z[beta^±1] conjugated by b(x) = x + 2x^2:
    its coefficients mix powers of beta, so n_series doubles over Z[beta^±1]."""
    b = TruncatedSeries1.from_ints(ZB, [0, 1, 2], precision)
    return change_coordinates(named_fgl("multiplicative", ZB, precision), b)


def _off_degree_law(precision):
    """x + y - beta^2 xy over Z[beta^±1]: a law whose coefficients are single
    terms of the wrong power of beta, so n_series builds it over
    Z[beta^±1]."""
    body = TruncatedSeries2.from_entries(
        ZB, [(1, 0, ZB.one()), (0, 1, ZB.one()), (1, 1, -ZB.var(2))], precision
    )
    return FormalGroupLaw(body)


DIFFERENTIAL_LAWS = {
    "multiplicative": lambda: named_fgl("multiplicative", ZB, 12),
    "additive": lambda: named_fgl("additive", Z, 12),
    "honda_h1": lambda: named_fgl("honda_h1", IntegersMod(5), 12),
    "universal_rational": lambda: named_fgl("universal_rational", None, 6),
    **{
        f"multiplicative_over_{base}": partial(named_fgl, "multiplicative", LaurentExtension(base), 12)
        for base in (IntegersMod(12), IntegersMod(8), PLocalIntegers(3), IntegersMod(5), Q)
    },
    "graded_conjugate_over_Z": lambda: _graded_conjugate(Z, 10),
    "graded_conjugate_over_Z/12": lambda: _graded_conjugate(IntegersMod(12), 10),
    "ungraded_conjugate": lambda: _ungraded_conjugate(8),
    "off_degree": lambda: _off_degree_law(12),
}


@pytest.mark.parametrize("make_law", DIFFERENTIAL_LAWS.values(), ids=DIFFERENTIAL_LAWS)
def test_doubled_n_series_matches_the_defining_iteration(make_law):
    law = make_law()
    expected = _iterated_n_series(law)
    for k in range(-5, 71):
        assert n_series(law, k).series == expected[k], k
    for p in (2, 3, 5, 7):
        n = 0
        while p**n <= law.precision:
            assert v_coefficient(law, p, n) == expected[p].coefficient(p**n), (p, n)
            n += 1


@pytest.mark.parametrize("make_law", DIFFERENTIAL_LAWS.values(), ids=DIFFERENTIAL_LAWS)
def test_truncated_v_coefficient_matches_the_full_p_series(make_law):
    law = make_law()
    for p in (2, 3, 5, 7, 11):
        full = n_series(law, p).series
        n = 0
        while p**n <= law.precision:
            assert v_coefficient(law, p, n) == full.coefficient(p**n), (p, n)
            n += 1


def test_graded_laws_double_over_the_base_ring(monkeypatch):
    # n_series of a law whose x^i y^j coefficient is one term c beta^(i+j-1)
    # runs at beta = 1 and makes no Laurent product; any other law over
    # Z[beta^±1] does
    mult = named_fgl("multiplicative", ZB, 32)
    graded = _graded_conjugate(Z, 12)
    ungraded = _ungraded_conjugate(8)
    off_degree = _off_degree_law(16)
    calls = []
    original = LaurentExtension._mul_add

    def counted(self, acc, a, b):
        calls.append(self)
        return original(self, acc, a, b)

    monkeypatch.setattr(LaurentExtension, "_mul_add", counted)
    cases = ((mult, False), (graded, False), (ungraded, True), (off_degree, True))
    for law, laurent_products in cases:
        assert check_axioms(law).passed
        calls.clear()
        n_series(law, 29)
        n_series(law, -3)
        assert bool(calls) is laurent_products, law


def test_n_series_precision_keyword():
    mult = named_fgl("multiplicative", ZB, 10)
    for k in (-3, 0, 1, 2, 7):
        for m in (1, 4, 10):
            assert n_series(mult, k, m).series == n_series(mult, k).series.truncate(m)
    with pytest.raises(InsufficientPrecision):
        n_series(mult, 2, 11)


MEMO_LAWS = {
    "multiplicative": lambda: named_fgl("multiplicative", ZB, 16),
    "multiplicative_over_Z/12": lambda: named_fgl("multiplicative", LaurentExtension(IntegersMod(12)), 16),
    "graded_conjugate_over_Z/12": lambda: _graded_conjugate(IntegersMod(12), 10),
    "ungraded_conjugate": lambda: _ungraded_conjugate(10),
    "additive": lambda: named_fgl("additive", Z, 16),
    "honda_h1": lambda: named_fgl("honda_h1", IntegersMod(5), 16),
}


@pytest.mark.parametrize("make_law", MEMO_LAWS.values(), ids=MEMO_LAWS)
def test_n_series_below_a_built_precision_is_a_fresh_build(make_law):
    # the law keeps the most precise [k](x) built for it, and a request at or
    # below that precision truncates it.  On the fresh law the precisions
    # rise, so every request above 1 is a new build
    law, fresh = make_law(), make_law()
    for k in (-3, -1, 2, 5, 40):
        n_series(law, k, law.precision - 3)
        n_series(law, k)
        assert law._n_series[k].precision == law.precision
        for m in range(law.precision + 1):
            assert n_series(law, k, m).series == n_series(fresh, k, m).series, (k, m)


LOW_PRECISION_LAWS = {
    "additive_over_Z/4": lambda: named_fgl("additive", IntegersMod(4), 4),
    "multiplicative_over_Z/4": lambda: named_fgl("multiplicative", LaurentExtension(IntegersMod(4)), 4),
    "multiplicative": lambda: named_fgl("multiplicative", ZB, 4),
    "honda_h1_over_F2": lambda: named_fgl("honda_h1", IntegersMod(2), 4),
    "ungraded_conjugate": lambda: _ungraded_conjugate(4),
    "universal_rational": lambda: named_fgl("universal_rational", None, 4),
}


@pytest.mark.parametrize("make_law", LOW_PRECISION_LAWS.values(), ids=LOW_PRECISION_LAWS)
def test_n_series_at_precision_at_most_one_equals_doubling(make_law):
    # [k](x) = kx modulo x^2 is read off unitality, with nothing built; on a
    # fresh law at precision 2 the closed form of x + y + c xy runs, and its
    # truncation agrees, for k = 0 in Z/4 or F_2 and for negative k too
    for k in (-8, -4, -3, -1, 1, 2, 4, 7, 8, 12):
        doubled = n_series(make_law(), k, 2).series
        for m in (0, 1):
            assert n_series(make_law(), k, m).series == doubled.truncate(m), (k, m)


def _product_law(ring, c, precision):
    """x + y + c xy over ring."""
    entries = [(1, 0, ring.one()), (0, 1, ring.one()), (1, 1, c)]
    return FormalGroupLaw(TruncatedSeries2.from_entries(ring, entries, precision))


Z8B = LaurentExtension(IntegersMod(8), "beta", 1)
PRODUCT_LAWS = {
    "Z": partial(_product_law, Z, Z.from_int(3)),
    "Q": partial(_product_law, Q, Q.from_fraction(Fraction(-2, 3))),
    "F_5": partial(_product_law, IntegersMod(5), IntegersMod(5).from_int(2)),
    "Z_(3)": partial(_product_law, PLocalIntegers(3), PLocalIntegers(3).from_fraction(Fraction(2, 5))),
    # c = 2 is a zero divisor of Z/4
    "Z/4": partial(_product_law, IntegersMod(4), IntegersMod(4).from_int(2)),
    # one term c beta^(i+j-1): built on F_1 over Z/8
    "Z/8[beta^±1]": partial(_product_law, Z8B, Z8B.from_int(2) * Z8B.var()),
    # two powers of beta: built over Z[beta^±1] itself
    "Z[beta^±1]": partial(_product_law, ZB, ZB.one() + ZB.var()),
}


@pytest.mark.parametrize("make_law", PRODUCT_LAWS.values(), ids=PRODUCT_LAWS)
def test_closed_form_n_series_matches_the_defining_iteration(make_law, monkeypatch):
    # [k] = F(x, [k-1]) from [0] = 0 for k >= 0, and F([k](x), [-k](x)) = 0
    # for k < 0; n_series runs no substitution and no formal inverse
    built = []
    for name in ("_substitution", "formal_inverse"):
        monkeypatch.setattr(fgl_module, name, lambda *a, name=name: built.append(name))
    for n in range(1, 13):
        law = make_law(n)
        x1 = TruncatedSeries1.x(law.ring, n)
        iterated = TruncatedSeries1.zero(law.ring, n)
        for k in range(14):
            assert n_series(law, k).series == iterated, (n, k)
            iterated = substitute_pair(law.body, x1, iterated)
        zero = TruncatedSeries1.zero(law.ring, n)
        for k in range(-7, 0):
            neg, pos = n_series(law, k).series, n_series(law, -k).series
            assert substitute_pair(law.body, neg, pos) == zero, (n, k)
    assert built == []


def test_a_dense_law_takes_the_closed_form_only_at_precision_two(monkeypatch):
    # modulo degree 3 every law is x + y + c xy; the multiplicative law after
    # b(x) = x + 2x^2 has terms x^2 y and x y^2 beyond, so at precision 3 it
    # doubles.  The law is built at precision 6, so only the terms within the
    # requested precision may decide
    substitutions = []
    original = fgl_module._substitution

    def counted(body, n, *rest):
        substitutions.append(n)
        return original(body, n, *rest)

    monkeypatch.setattr(fgl_module, "_substitution", counted)
    expected = _iterated_n_series(_ungraded_conjugate(6))
    for n, doubled in ((2, False), (3, True)):
        law = _ungraded_conjugate(6)
        substitutions.clear()
        for k in range(-5, 14):
            assert n_series(law, k, n).series == expected[k].truncate(n), (n, k)
        assert bool(substitutions) is doubled, n


def test_n_series_and_v_coefficient_refuse_before_any_build(monkeypatch):
    builds = []
    for name in ("_substitution", "_product_law_n_series"):
        original = getattr(fgl_module, name)
        monkeypatch.setattr(fgl_module, name, lambda *a, f=original: builds.append(a) or f(*a))
    mult = named_fgl("multiplicative", ZB, 16)
    bad = _non_associative_law()
    with pytest.raises(ValueError, match="4 is not prime"):
        v_coefficient(mult, 4, 1)
    with pytest.raises(ValueError, match="nonnegative"):
        v_coefficient(mult, 2, -1)
    for n in (0, 1, 2):
        with pytest.raises(AxiomsFailed, match="associativity"):
            v_coefficient(bad, 2, n)
    with pytest.raises(AxiomsFailed, match="associativity"):
        n_series(bad, 3, 1)
    assert builds == []


def test_v_coefficient_at_a_huge_height_raises_insufficient_precision():
    # 3^10000 has more decimal digits than int-to-str conversion allows, so
    # the bound is written as a power; a bound that is formed prints as before
    law = named_fgl("multiplicative", ZB, 16)
    with pytest.raises(InsufficientPrecision, match=r">= 3\^10000 for v_10000 at p = 3, have 16$"):
        v_coefficient(law, 3, 10_000)
    with pytest.raises(InsufficientPrecision, match=r">= 27 for v_3 at p = 3, have 16$"):
        v_coefficient(law, 3, 3)
    assert v_coefficient(law, 2, 4).is_zero()


def test_n_series_rejects_a_non_associative_law():
    bad = _non_associative_law()
    report = check_axioms(bad)
    assert [c.axiom for c in report.failures()] == ["associativity"]
    for k in (2, 3, -2):
        with pytest.raises(AxiomsFailed, match="associativity"):
            n_series(bad, k)
    with pytest.raises(AxiomsFailed):
        v_coefficient(bad, 2, 1)
    # v_coefficient validates the precision before touching the law
    with pytest.raises(InsufficientPrecision):
        v_coefficient(bad, 3, 2)


def test_n_series_names_the_law_only_when_it_fails(monkeypatch):
    # the failure message keeps the law's repr; a passing law is not formatted
    bad = _non_associative_law()
    with pytest.raises(AxiomsFailed, match=r"^<fgl over Z at precision 6> fails its axioms: associativity$"):
        n_series(bad, 2)

    def unformattable(law):
        raise AssertionError("a law that validates was formatted")

    law = named_fgl("multiplicative", ZB, 8)
    monkeypatch.setattr(FormalGroupLaw, "__repr__", unformattable)
    for k in (2, 3, 2, -1):
        n_series(law, k)


def test_change_coordinates_rejects_a_non_associative_law():
    bad = _non_associative_law()
    b = TruncatedSeries1.from_ints(Z, [0, 1, 1], 6)
    with pytest.raises(AxiomsFailed, match="associativity"):
        change_coordinates(bad, b)


def test_built_laws_raise_typed_errors_when_their_axioms_fail(monkeypatch):
    # the axiom checks of named_fgl, from_logarithm and specialize are errors,
    # not asserts, so they hold under python -O
    from fglforge.hopf import specialize

    uni = named_fgl("universal_rational", None, 3)
    failing = AxiomReport([AxiomCheck("associativity", False, (1, 1, 2))])
    monkeypatch.setattr(fgl_module, "check_axioms", lambda law: failing)
    with pytest.raises(AxiomsFailed, match="associativity"):
        named_fgl("additive", Z, 4)
    with pytest.raises(AxiomsFailed, match="associativity"):
        from_logarithm(TruncatedSeries1.x(Q, 4), Q, 4)
    with pytest.raises(AxiomsFailed, match="associativity"):
        specialize(uni, {"m1": Q.zero(), "m2": Q.zero()}, Q)


# -- an oracle for the associativity verdict -----------------------------------


def _first_difference(a, b):
    """The first exponent, by total degree and then lexicographically, where
    two sparse series differ."""
    keys = sorted(set(a.coeffs) | set(b.coeffs), key=lambda k: (sum(k), k))
    return next((k for k in keys if a.coeffs.get(k) != b.coeffs.get(k)), None)


def _sum_of_powers(body, u, v):
    """body(u, v) as sum c u^i v^j with series * and +, each power multiplied
    up from the constant series 1; no substitute_pair.  u and v are series
    in the same several variables."""
    n = min(body.precision, u.precision, v.precision)
    u, v = u.truncate(n), v.truncate(n)
    one = TruncatedSeriesN(u.ring, u.nvars, {(0,) * u.nvars: u.ring.one()}, n)
    u_pows, v_pows = [one], [one]
    total = TruncatedSeriesN.zero(u.ring, u.nvars, n)
    for (i, j), c in body.coeffs.items():
        if i + j > n:
            continue
        while len(u_pows) <= i:
            u_pows.append(u_pows[-1] * u)
        while len(v_pows) <= j:
            v_pows.append(v_pows[-1] * v)
        total = total + (u_pows[i] * v_pows[j]).scale(c)
    return total


def _dense_unitality(body):
    """The first (i, 0) or (0, i), by i and x before y, where F(x, 0) or
    F(0, y) differs from x, read from the two dense one-variable series."""
    ring, n = body.ring, body.precision
    x1 = TruncatedSeries1.x(ring, n)
    fx0 = TruncatedSeries1(ring, [body.at(i, 0) for i in range(n + 1)], n)
    f0y = TruncatedSeries1(ring, [body.at(0, i) for i in range(n + 1)], n)
    for i in range(n + 1):
        if fx0.coeffs[i] != x1.coeffs[i]:
            return (i, 0)
        if f0y.coeffs[i] != x1.coeffs[i]:
            return (0, i)
    return None


def _expected_report(law):
    """The AxiomReport computed directly: the unit laws on dense series,
    F(x, y) against F(y, x), and F(F(x,y),z) against F(x,F(y,z)) as sums of
    powers."""
    ring, n, body = law.ring, law.precision, law.body
    unit = _dense_unitality(body)
    mirror = TruncatedSeries2(ring, 2, {(j, i): c for (i, j), c in body.coeffs.items()}, n)
    swap = _first_difference(body, mirror)
    x, y, z = (TruncatedSeriesN.variable(ring, 3, i, n) for i in range(3))
    lhs = _sum_of_powers(body, _sum_of_powers(body, x, y), z)
    rhs = _sum_of_powers(body, x, _sum_of_powers(body, y, z))
    assoc = _first_difference(lhs, rhs)
    checks = [
        AxiomCheck("unitality", unit is None, unit),
        AxiomCheck("symmetry", swap is None, swap),
        AxiomCheck("associativity", assoc is None, assoc),
    ]
    if law.grading is not None:
        checks.append(AxiomCheck("grading", grade_check(law, law.grading), None))
    return AxiomReport(checks)


def _moved(law, i, j, r, symmetric):
    """The law with r added to a_ij, and to a_ji too when symmetric."""
    ring = law.ring
    coeffs = dict(law.body.coeffs)
    for key in {(i, j), (j, i)} if symmetric else {(i, j)}:
        coeffs[key] = coeffs.get(key, ring.zero()) + r
    return FormalGroupLaw(TruncatedSeries2(ring, 2, coeffs, law.precision), grading=law.grading)


def test_associativity_verdict_matches_the_three_variable_oracle(monkeypatch):
    # over Q[m_1..]: universal laws, and copies with one symmetric pair
    # a_ij = a_ji moved by a nonzero rational.  Over Z[beta^±1], Z/8[beta^±1]
    # and F_5[beta^±1]: dense laws, the multiplicative law after a seeded
    # coordinate change, and copies moved at a symmetric pair (one
    # substitution and its rotation) or at a single a_ij with i != j
    # (symmetry fails: two substitutions).  Some moved laws stay associative,
    # most do not, so the witnesses are compared too
    rng = random.Random(zlib.crc32(b"associativity oracle"))
    cases = []  # (law, whether it is symmetric)
    for n in range(4, 9):
        law = named_fgl("universal_rational", None, n)
        ring = law.ring
        cases.append((FormalGroupLaw(law.body, grading=law.grading), True))
        for _ in range(3):
            i = rng.randint(1, n - 1)
            j = rng.randint(max(1, 3 - i), n - i)
            r = ring.from_fraction(Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4)))
            cases.append((_moved(law, i, j, r, True), True))
    for base in (Z, IntegersMod(8), IntegersMod(5)):
        ring = LaurentExtension(base, "beta", 1)
        rng = random.Random(zlib.crc32(f"associativity oracle over {ring}".encode()))
        for n in (4, 5, 6):
            b = [ring.zero(), ring.one()]
            b += [ring.from_int(rng.randint(-3, 3)) * ring.var(m) for m in range(1, n)]
            mult = named_fgl("multiplicative", ring, n)
            law = change_coordinates(mult, TruncatedSeries1(ring, b, n))
            cases.append((FormalGroupLaw(law.body, grading=law.grading), True))
            for symmetric in (True, False) * 3:
                i = rng.randint(1, n - 1)
                j = rng.randint(max(1, 3 - i), n - i)
                if not symmetric and i == j:
                    i, j = (i - 1, j) if i > 1 else (i, j + 1)
                # mostly of the law's degree, sometimes not, so the grading fails
                power = i + j - 1 + rng.choice([0, 0, 1])
                r = ring.from_int(rng.choice([-2, -1, 1, 2, 3])) * ring.var(power)
                cases.append((_moved(law, i, j, r, symmetric), symmetric))
    calls = []
    original = fgl_module.substitute_pair

    def counted(body, u, v):
        calls.append(body)
        return original(body, u, v)

    monkeypatch.setattr(fgl_module, "substitute_pair", counted)
    verdicts = {(True, True): [], (False, True): [], (False, False): []}
    for candidate, symmetric in cases:
        expected = _expected_report(candidate)
        calls.clear()
        assert check_axioms(candidate) == expected
        assert expected.checks[1].passed is symmetric
        associative = expected.checks[2].passed
        # the logarithm confirms an associative law over Q with none
        if associative and candidate.ring.is_q_algebra():
            assert calls == []
        else:
            assert len(calls) == (1 if symmetric else 2)
        verdicts[candidate.ring.is_q_algebra(), symmetric].append(associative)
    assert all(True in v and False in v for key, v in verdicts.items() if key != (False, False))
    assert False in verdicts[False, False]


def test_unitality_reads_the_axis_terms_as_the_dense_series_did():
    # nonzero constant terms, missing or wrong linear terms and extra axis
    # terms, alone and together, at precision 0, 1 and 6, over Z and over
    # Z/4, where a coefficient 4 vanishes; and the zero ring, where 1 = 0
    rng = random.Random(zlib.crc32(b"unitality on the axes"))
    witnesses = set()
    for ring in (Z, IntegersMod(4), IntegersMod(1)):
        for n in (0, 1, 6):
            for _ in range(40):
                entries = {(1, 0): 1, (0, 1): 1, (1, 1): rng.randint(-2, 2)}
                for _ in range(rng.randint(0, 3)):
                    change = rng.choice(["constant", "missing", "wrong", "axis"])
                    if change == "constant":
                        entries[(0, 0)] = rng.choice([1, -1, 4])
                    elif change == "missing":
                        entries.pop(rng.choice([(1, 0), (0, 1)]), None)
                    elif change == "wrong":
                        entries[rng.choice([(1, 0), (0, 1)])] = rng.choice([-1, 2, 5])
                    else:
                        k = rng.randint(2, 7)
                        entries[rng.choice([(k, 0), (0, k)])] = rng.choice([1, 4, -3])
                body = TruncatedSeries2.from_entries(
                    ring, [(i, j, ring.from_int(c)) for (i, j), c in entries.items()], n
                )
                expected = _dense_unitality(body)
                witnesses.add(expected)
                expected = AxiomCheck("unitality", expected is None, expected)
                got = fgl_module._unitality_witness(body)
                assert AxiomCheck("unitality", got is None, got) == expected, (entries, n)
                assert check_axioms(FormalGroupLaw(body)).checks[0] == expected
    # every kind of witness occurs: none, constant, linear, extra on each axis
    assert {None, (0, 0), (1, 0), (0, 1)} <= witnesses
    assert any(w and w[0] >= 2 for w in witnesses) and any(w and w[1] >= 2 for w in witnesses)


@pytest.mark.parametrize(
    "ring, a01",
    [(Q, Q.zero()), (QB, QB.one() + QB.var())],
    ids=["zero_over_Q", "one_plus_beta_over_Q_beta"],
)
def test_associativity_without_a_logarithm_uses_three_variables(ring, a01):
    # (dF/dy)(0, 0) is not a unit, so the law has no logarithm: the check
    # compares the three-variable substitutions, and does not raise
    body = TruncatedSeries2.from_entries(
        ring, [(1, 0, ring.one()), (0, 1, a01), (1, 1, ring.one())], 5
    )
    law = FormalGroupLaw(body)
    report = check_axioms(law)
    assert report == _expected_report(law)
    assert not report.checks[2].passed


def test_rational_laws_confirm_associativity_through_the_logarithm(monkeypatch):
    # over a Q-algebra an associative law is confirmed by the two-variable
    # identity l'(y) F_x = l'(x) F_y of its logarithm l, with no
    # three-variable substitution.
    # None of these laws is x + y + c xy, which would pass in closed form: the
    # multiplicative law over Q[beta^±1] after b(x) = x + 2x^2 stands for it
    monkeypatch.setattr(fgl_module, "_associativity_witness", None)
    b = TruncatedSeries1.from_ints(QB, [0, 1, 2], 9)
    for law in (
        named_fgl("universal_rational", None, 7),
        change_coordinates(named_fgl("multiplicative", QB, 9), b),
        from_logarithm(TruncatedSeries1.from_fractions(Q, [0, 1, 3, Fraction(-1, 2)], 6), Q, 6),
    ):
        assert fgl_module._product_law_coefficient(law.body, law.precision) is None
        assert check_axioms(law).passed


def test_the_invariant_logarithm_is_computed_once_per_law(monkeypatch):
    # building and validating the universal law, its logarithm and its
    # classifying map all read the one memoized logarithm
    from fglforge.hopf import classify_rational, universal_fgl_rational

    calls = []
    inverse = TruncatedSeries1.inverse
    monkeypatch.setattr(
        TruncatedSeries1, "inverse", lambda self: calls.append(self) or inverse(self)
    )
    law = universal_fgl_rational(8)
    assert check_axioms(law).passed
    log = logarithm(law)
    assignment = classify_rational(law)
    assert len(calls) == 1
    assert logarithm(law) is log
    assert [assignment[f"m{i}"] for i in range(1, 8)] == [log.coefficient(i + 1) for i in range(1, 8)]


# -- associativity of x + y + c xy in closed form ------------------------------


Z8 = IntegersMod(8)
CLOSED_FORM_LAWS = {
    "Z": (Z, Z.from_int(-3)),
    # c = 0 (the additive law), a zero divisor and a unit of Z/8
    "Z/8, c = 0": (Z8, Z8.zero()),
    "Z/8, c = 4": (Z8, Z8.from_int(4)),
    "Z/8, c = 3": (Z8, Z8.from_int(3)),
    "F_5": (IntegersMod(5), IntegersMod(5).from_int(2)),
    "Z_(3)": (PLocalIntegers(3), PLocalIntegers(3).from_fraction(Fraction(2, 5))),
    "Q[beta^±1]": (QB, -QB.var()),
    "Z[beta^±1]": (ZB, ZB.one() + ZB.var()),
    "Z/8[beta^±1]": (Z8B, Z8B.from_int(2) * Z8B.var() - Z8B.var(3)),
}


def _raise(*args):
    raise AssertionError("a product law took the general path")


@pytest.mark.parametrize("ring, c", CLOSED_FORM_LAWS.values(), ids=CLOSED_FORM_LAWS)
def test_product_laws_match_the_three_variable_oracle(ring, c):
    # x + y + c xy at every precision 0..8, the xy term beyond it at 0 and 1
    for n in range(9):
        law = _product_law(ring, c, n)
        report = check_axioms(law)
        assert report == _expected_report(law), n
        assert report.passed


@pytest.mark.parametrize("ring, c", CLOSED_FORM_LAWS.values(), ids=CLOSED_FORM_LAWS)
def test_product_laws_pass_associativity_with_no_substitution(ring, c, monkeypatch):
    # at precision 64 the rule alone decides: no logarithm, no three-variable
    # check, no substitution
    for name in ("_linearised_by_logarithm", "_associativity_witness", "substitute_pair"):
        monkeypatch.setattr(fgl_module, name, _raise)
    law = _product_law(ring, c, 64)
    assert check_axioms(law) == AxiomReport(
        [AxiomCheck(axiom, True, None) for axiom in ("unitality", "symmetry", "associativity")]
    )
    # the rule reads the body, not the name or the grading
    if ring is QB:
        assert check_axioms(named_fgl("multiplicative", QB, 64)).passed


def _near_miss(ring, c, n, change):
    """x + y + c xy with one change that takes it off the product form."""
    entries = {(1, 0): ring.one(), (0, 1): ring.one(), (1, 1): c}
    if change == "x^2 y":
        entries[(2, 1)] = ring.one()
    elif change == "x^2 y^2":
        entries[(2, 2)] = ring.one()
    elif change == "axis":
        entries[(1, 0)] = ring.from_int(2)
    elif change == "constant":
        entries[(0, 0)] = ring.one()
    body = TruncatedSeries2.from_entries(ring, [(i, j, v) for (i, j), v in entries.items()], n)
    return FormalGroupLaw(body)


@pytest.mark.parametrize("change", ["x^2 y", "x^2 y^2", "axis", "constant"])
def test_near_product_laws_take_the_general_path(change, monkeypatch):
    # an extra mixed term, a wrong linear term or a constant term: the rule
    # does not apply, and the verdict and witness are the oracle's.  A
    # constant term leaves F(F(x,y),z) undefined: associativity fails with
    # no witness and no three-variable check, and only the other checks are
    # the oracle's
    witnesses = []
    original = fgl_module._associativity_witness

    def counted(law, symmetric):
        witnesses.append(law)
        return original(law, symmetric)

    monkeypatch.setattr(fgl_module, "_associativity_witness", counted)
    for name in ("Z", "Z/8, c = 4", "F_5", "Q[beta^±1]", "Z[beta^±1]"):
        ring, c = CLOSED_FORM_LAWS[name]
        for n in (4, 5, 6):
            law = _near_miss(ring, c, n, change)
            witnesses.clear()
            report, expected = check_axioms(law), _expected_report(law)
            if change == "constant":
                expected.checks[2] = AxiomCheck("associativity", False, None)
            assert report == expected, (name, n)
            assert not report.checks[2].passed, (name, n)
            # over Q[beta^±1] the logarithm cannot confirm a failure, so every
            # law but the one with a constant term reaches the witness
            assert len(witnesses) == (change != "constant"), (name, n)


# -- the law of a logarithm and its check, against composition -----------------


def _sum_of_logs(log, n):
    terms = {}
    for m in range(1, n + 1):
        terms[(m, 0)] = terms[(0, m)] = log.coefficient(m)
    return TruncatedSeries2(log.ring, 2, terms, n)


def _random_log(rng, ring, n):
    """t + l_2 t^2 + ... + l_n t^n, about a third of the l_m zero; over
    Q[beta^±1] each l_m has one or two terms, of any power of beta."""
    coeffs = [ring.zero(), ring.one()]
    for _ in range(2, n + 1):
        c = ring.zero()
        if rng.random() > 0.3:
            for _ in range(rng.randint(1, 2) if ring is QB else 1):
                term = ring.from_fraction(Fraction(rng.randint(-6, 6), rng.randint(1, 5)))
                c = c + (term * ring.var(rng.randint(-2, 3)) if ring is QB else term)
        coeffs.append(c)
    return TruncatedSeries1(ring, coeffs, max(n, 1))


def test_the_law_of_a_logarithm_equals_the_composed_law():
    # l^{-1}(l(x) + l(y)) solved from the invariant differential equals the
    # reversion of l composed with l(x) + l(y): universal laws at N <= 12, and
    # seeded random logs over Q and Q[beta^±1] at N <= 16, at precision 0
    # and 1 too
    for n in range(2, 13):
        law = named_fgl("universal_rational", None, n)
        ring = law.ring
        log = TruncatedSeries1(
            ring, [ring.zero(), ring.one()] + [ring.generator(f"m{i}") for i in range(1, n)]
        )
        assert law.body == compose_series(log.revert(), _sum_of_logs(log, n)), n
    for ring in (Q, QB):
        rng = random.Random(zlib.crc32(f"the law of a logarithm over {ring}".encode()))
        for n in [0, 1, 2, 3] + [rng.randint(4, 16) for _ in range(6)] + [16]:
            log = _random_log(rng, ring, n)
            for m in {0, 1, n}:
                expected = compose_series(log.revert(), _sum_of_logs(log, m))
                assert from_logarithm(log, ring, m).body == expected, (ring, n, m)


def _verdict_by_composition(law):
    """l(F(x,y)) = l(x) + l(y) by composition, for l = int 1/(dF/dy)(x, 0);
    False when there is no such l."""
    ring, n, body = law.ring, law.precision, law.body
    if n < 1 or not body.at(0, 1).is_unit():
        return False
    dlog = TruncatedSeries1(ring, [body.at(i, 1) for i in range(n)], n - 1).inverse()
    log = dlog.integrate()
    return compose_series(log, body) == _sum_of_logs(log, n)


def test_the_differential_check_agrees_with_composition():
    # universal laws and laws of seeded logs over Q, their conjugates, and
    # copies moved at a symmetric pair, at a single a_ij (not symmetric), on an
    # axis pair or at one linear term (not unital), or with a_01 = 0 (no
    # logarithm)
    rng = random.Random(zlib.crc32(b"the differential check"))
    laws = [named_fgl("universal_rational", None, n) for n in range(3, 8)]
    for n in range(3, 11):
        law = from_logarithm(_random_log(rng, Q, n), Q, n)
        b = TruncatedSeries1(Q, [0, 1] + [rng.randint(-3, 3) for _ in range(n - 1)], n)
        laws += [law, change_coordinates(law, b)]
    cases = []
    for law in laws:
        ring, n = law.ring, law.precision
        cases.append(law.body.coeffs)
        for change in ("pair", "single", "axis", "linear", "no log") * 2:
            coeffs = dict(law.body.coeffs)
            i = rng.randint(1, n - 1)
            j = rng.randint(1, n - i)
            r = ring.from_fraction(Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3)))
            if change == "pair":
                keys = {(i, j), (j, i)}
            elif change == "single":
                keys = {(i, j + 1) if i == j and i + j < n else (i, j)}
            elif change == "axis":
                keys = {(i + j, 0), (0, i + j)}
            elif change == "linear":
                keys = {rng.choice([(1, 0), (0, 1)])}
            else:
                keys, r = {(0, 1)}, -ring.one()
            for key in keys:
                coeffs[key] = coeffs.get(key, ring.zero()) + r
            cases.append(coeffs)
    verdicts = {}
    for coeffs in cases:
        ring = next(iter(coeffs.values())).ring
        n = max(sum(k) for k in coeffs)
        for m in {n, n - 1}:
            law = FormalGroupLaw(TruncatedSeries2(ring, 2, coeffs, m))
            expected = _verdict_by_composition(law)
            assert fgl_module._linearised_by_logarithm(law) is expected, (coeffs, m)
            symmetric = law.body.payloads == {(j, i): c for (i, j), c in law.body.payloads.items()}
            unital = fgl_module._unitality_witness(law.body) is None
            verdicts.setdefault((symmetric, unital), set()).add(expected)
    assert verdicts[True, True] == {True, False}
    assert verdicts[False, True] == verdicts[True, False] == verdicts[False, False] == {False}
