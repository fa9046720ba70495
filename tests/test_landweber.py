"""Stagewise Landweber exactness checking."""

import random

import pytest

from fglforge import fgl as fgl_module
from fglforge.errors import AxiomsFailed, InsufficientPrecision, Unsupported
from fglforge.expressions import element_to_expr
from fglforge.fgl import FormalGroupLaw, change_coordinates, named_fgl, v_coefficient
from fglforge.landweber import LandweberInput, landweber_check, v_sequence_report
from fglforge.rings import (
    Integers,
    IntegersMod,
    LaurentExtension,
    PLocalIntegers,
    QuotientByPrincipal,
    Rationals,
)
from fglforge.series import TruncatedSeries1, TruncatedSeries2

Z = Integers()
Q = Rationals()
ZB = LaurentExtension(Z, "beta", 1)
QB = LaurentExtension(Q, "beta", 1)


def test_multiplicative_is_exact_of_height_one():
    mult = named_fgl("multiplicative", ZB, 10)
    report = landweber_check(LandweberInput(mult, None, [2, 3, 5, 7], 3))
    assert report.exact
    for verdict in report.per_prime:
        assert verdict.height == 1
        assert [s.status for s in verdict.stages] == [
            "injective",
            "injective",
            "quotient_zero",
        ]


def test_multiplicative_exact_for_primes_up_to_13():
    mult = named_fgl("multiplicative", ZB, 14)
    report = landweber_check(
        LandweberInput(mult, None, [2, 3, 5, 7, 11, 13], 3)
    )
    assert report.exact
    assert all(v.height == 1 for v in report.per_prime)


def test_additive_over_z_fails_at_stage_one():
    add = named_fgl("additive", Z, 10)
    report = landweber_check(LandweberInput(add, None, [2, 3, 5, 7], 2))
    assert not report.exact
    for verdict in report.per_prime:
        assert verdict.failed_stage == 1
        assert verdict.witness == "1"
        assert verdict.stages[-1].status == "fails"


def test_additive_over_q_is_exact_of_height_zero():
    add = named_fgl("additive", Q, 10)
    report = landweber_check(LandweberInput(add, None, [2, 3, 5, 7], 2))
    assert report.exact
    assert all(v.height == 0 for v in report.per_prime)


def test_q_algebra_laws_have_height_zero_at_every_prime():
    for law in (
        named_fgl("multiplicative", QB, 10),
        named_fgl("additive", Q, 10),
        named_fgl("universal_rational", None, 8),
    ):
        report = landweber_check(LandweberInput(law, None, [2, 3, 5], 2))
        assert report.exact
        assert all(v.height == 0 for v in report.per_prime)


def test_additive_over_fp_fails_at_stage_zero():
    for p in (2, 3, 5, 7):
        add = named_fgl("additive", IntegersMod(p), 10)
        report = landweber_check(LandweberInput(add, None, [p], 2))
        assert not report.exact
        assert report.per_prime[0].failed_stage == 0
        assert report.per_prime[0].witness == "1"


def test_honda_h1_self_module_fails_at_stage_zero():
    h1 = named_fgl("honda_h1", IntegersMod(2), 10)
    report = landweber_check(LandweberInput(h1, None, [2], 1))
    assert not report.exact
    assert report.per_prime[0].failed_stage == 0


def test_zero_module_is_vacuously_exact():
    # quotient by a unit: the module is zero before any stage runs
    mult = named_fgl("multiplicative", ZB, 8)
    report = landweber_check(LandweberInput(mult, ZB.var(), [2], 2))
    verdict = report.per_prime[0]
    assert report.exact and verdict.height == -1
    assert [s.status for s in verdict.stages] == ["quotient_zero"]


def test_cyclic_quotient_module():
    # Z[beta^±1]/(2) is an F_2-algebra: v_0 = 2 acts as zero
    mult = named_fgl("multiplicative", ZB, 10)
    report = landweber_check(LandweberInput(mult, ZB.from_int(2), [2], 2))
    assert not report.exact
    assert report.per_prime[0].failed_stage == 0
    # at p = 3 the same module dies after v_0 = 3 (a unit mod 2... no: 3 is
    # invertible in F_2, so the quotient is zero): height 0
    report = landweber_check(LandweberInput(mult, ZB.from_int(2), [3], 2))
    assert report.exact
    assert report.per_prime[0].height == 0


def test_verdicts_independent_of_prime_order():
    add = named_fgl("additive", Z, 10)
    a = landweber_check(LandweberInput(add, None, [2, 3, 5, 7], 2))
    b = landweber_check(LandweberInput(add, None, [7, 5, 3, 2], 2))
    by_prime_a = {v.prime: (v.exact, v.failed_stage, v.witness) for v in a.per_prime}
    by_prime_b = {v.prime: (v.exact, v.failed_stage, v.witness) for v in b.per_prime}
    assert by_prime_a == by_prime_b


def test_coordinate_change_invariance():
    rng = random.Random(6)
    mult = named_fgl("multiplicative", ZB, 10)
    base = landweber_check(LandweberInput(mult, None, [2, 3], 2))
    beta = ZB.var()
    for _ in range(20):
        coeffs = [ZB.zero(), ZB.one()]
        for i in range(1, 10):
            coeffs.append(ZB.from_int(rng.randint(-2, 2)) * beta**i)
        b = TruncatedSeries1(ZB, coeffs, 10)
        conj = change_coordinates(mult, b)
        report = landweber_check(LandweberInput(conj, None, [2, 3], 2))
        assert report.exact == base.exact
        assert [v.height for v in report.per_prime] == [
            v.height for v in base.per_prime
        ]


def test_v_sequence_report():
    mult = named_fgl("multiplicative", ZB, 10)
    rows = v_sequence_report(mult, 2, 2)
    beta = ZB.var()
    assert [(r.n, r.degree) for r in rows] == [(0, 0), (1, 1), (2, 3)]
    assert rows[0].value == ZB.from_int(2)
    assert rows[1].value == -beta
    assert rows[2].value.is_zero()
    assert all(r.homogeneous for r in rows)

    add = named_fgl("additive", Z, 10)
    rows = v_sequence_report(add, 3, 1)
    assert rows[0].value == Z.from_int(3)
    assert rows[1].value.is_zero()

    h1 = named_fgl("honda_h1", IntegersMod(2), 10)
    rows = v_sequence_report(h1, 2, 1)
    assert element_to_expr(rows[0].value) == "0"
    assert element_to_expr(rows[1].value) == "1"


def test_v_sequence_report_refuses_a_grading_of_a_quotient_ring():
    # beta^2 = -1 in F_5[beta^±1]/(beta^2 + 1), so v_1 = -beta is of no degree
    f5b = LaurentExtension(IntegersMod(5), "beta", 1)
    ring = QuotientByPrincipal(f5b, f5b.var(2) + 1)
    entries = [(1, 0, ring.one()), (0, 1, ring.one()), (1, 1, -ring.from_base(f5b.var()))]
    body = TruncatedSeries2.from_entries(ring, entries, 4)
    with pytest.raises(Unsupported, match="no grading"):
        v_sequence_report(FormalGroupLaw(body, grading={"beta": 1}), 2, 2)
    rows = v_sequence_report(FormalGroupLaw(body), 2, 2)
    assert rows[1].value == -ring.from_base(f5b.var()) and rows[1].homogeneous is None


def test_v_degrees_are_homogeneous_for_graded_laws():
    mult = named_fgl("multiplicative", ZB, 10)
    for p in (2, 3):
        rows = v_sequence_report(mult, p, 2 if p == 2 else 1)
        for row in rows:
            assert row.homogeneous


def test_precision_guards():
    mult = named_fgl("multiplicative", ZB, 10)
    with pytest.raises(InsufficientPrecision):
        v_sequence_report(mult, 2, 4)
    # the stage checker raises only when the needed coefficient is unreachable
    report = landweber_check(LandweberInput(mult, None, [7], 2))
    assert report.exact  # v_2 at p = 7 is never needed: the quotient died first
    add = named_fgl("additive", Z, 4)
    with pytest.raises(InsufficientPrecision):
        landweber_check(LandweberInput(add, None, [5], 1))


def test_input_validation():
    mult = named_fgl("multiplicative", ZB, 10)
    with pytest.raises(ValueError):
        LandweberInput(mult, None, [4], 2)
    with pytest.raises(ValueError):
        LandweberInput(mult, None, [2], -1)
    with pytest.raises(ValueError):
        LandweberInput(mult, Q.one(), [2], 1)
    # a negative height is refused, not answered with no rows
    with pytest.raises(ValueError, match="nonnegative"):
        v_sequence_report(mult, 2, -1)


def test_summary_lines():
    mult = named_fgl("multiplicative", ZB, 10)
    report = landweber_check(LandweberInput(mult, None, [2], 2))
    assert "exact in scope" in report.summary()
    add = named_fgl("additive", Z, 10)
    report = landweber_check(LandweberInput(add, None, [2], 2))
    assert "fails at (p=2, n=1)" in report.summary()


def test_module_over_f3_with_a_foreign_prime():
    # F_3[beta^±1]/(beta - 1) is F_3, where 2 is a unit: the quotient dies
    # after v_0, height 0.  This check used to loop in the quotient's gcd.
    f3b = LaurentExtension(IntegersMod(3), "beta", 1)
    mult = named_fgl("multiplicative", f3b, 10)
    module = f3b.var() - f3b.one()
    report = landweber_check(LandweberInput(mult, module, [2], 2))
    assert report.exact
    (verdict,) = report.per_prime
    assert verdict.height == 0
    assert [s.status for s in verdict.stages] == ["injective", "quotient_zero"]
    assert verdict.stages[0].v_value == "2"
    # at p = 3 = 0 in F_3, v_0 is zero and multiplication by it is not injective
    report = landweber_check(LandweberInput(mult, module, [3], 2))
    assert not report.exact and report.first_failure()[:2] == (3, 0)


def test_v_sequence_report_needs_only_the_law_precision():
    # v_n at p is read from [p](x) modulo x^(p^n + 1), so the law's own
    # precision is the only bound: exactly p^max_height is enough
    mult = named_fgl("multiplicative", ZB, 9)
    rows = v_sequence_report(mult, 3, 2)
    assert [r.value for r in rows] == [ZB.from_int(3), ZB.var() ** 2, ZB.zero()]
    with pytest.raises(InsufficientPrecision):
        v_sequence_report(named_fgl("multiplicative", ZB, 8), 3, 2)
    with pytest.raises(TypeError):
        v_sequence_report(mult, 3, 1, precision=3)


# -- one p-series per prime ------------------------------------------------------

Z12B = LaurentExtension(IntegersMod(12), "beta", 1)
Z3B = LaurentExtension(PLocalIntegers(3), "beta", 1)
F5B = LaurentExtension(IntegersMod(5), "beta", 1)

# the law and ring families of the landweber benchmark: a law maker, a module
# generator maker (or None) and the primes to check
CHECK_FAMILIES = {
    "multiplicative over Z": (lambda: named_fgl("multiplicative", ZB, 32), None, [2, 3, 5, 7]),
    "multiplicative over Z, module 3 beta": (
        lambda: named_fgl("multiplicative", ZB, 16),
        lambda: ZB.from_int(3) * ZB.var(),
        [2, 3, 5],
    ),
    "multiplicative over Z/12": (lambda: named_fgl("multiplicative", Z12B, 32), None, [2, 3, 5, 7]),
    "multiplicative over Z_(3)": (lambda: named_fgl("multiplicative", Z3B, 32), None, [2, 3, 5, 7]),
    "multiplicative over F_5": (lambda: named_fgl("multiplicative", F5B, 16), None, [2, 3, 5]),
    "multiplicative over F_5, module beta - 1": (
        lambda: named_fgl("multiplicative", F5B, 16),
        lambda: F5B.var() - F5B.one(),
        [5],
    ),
    "additive over Z/12": (lambda: named_fgl("additive", IntegersMod(12), 32), None, [2, 3, 5, 7]),
    "additive over F_7": (lambda: named_fgl("additive", IntegersMod(7), 32), None, [2, 3, 7]),
    "honda_h1 over F_5": (lambda: named_fgl("honda_h1", IntegersMod(5), 32), None, [5, 2, 3]),
}


def _check(family, max_height):
    make_law, make_module, primes = CHECK_FAMILIES[family]
    module = None if make_module is None else make_module()
    return landweber_check(LandweberInput(make_law(), module, primes, max_height))


@pytest.mark.parametrize("family", CHECK_FAMILIES)
def test_stage_values_equal_v_coefficient_on_a_fresh_law(family):
    make_law = CHECK_FAMILIES[family][0]
    for verdict in _check(family, 3).per_prime:
        p = verdict.prime
        for stage in verdict.stages:
            if stage.status != "quotient_zero":
                expected = v_coefficient(make_law(), p, stage.n)
                assert stage.v_value == element_to_expr(expected), (p, stage.n)
                assert stage.v_degree == p**stage.n - 1


VSEQ_FAMILIES = {
    "multiplicative over Z": lambda: named_fgl("multiplicative", ZB, 32),
    "multiplicative over Z/12": lambda: named_fgl("multiplicative", Z12B, 32),
    "multiplicative over Z_(3)": lambda: named_fgl("multiplicative", Z3B, 32),
    "multiplicative over F_5": lambda: named_fgl("multiplicative", F5B, 32),
    "additive over Z/12": lambda: named_fgl("additive", IntegersMod(12), 32),
    "honda_h1 over F_5": lambda: named_fgl("honda_h1", IntegersMod(5), 32),
}


@pytest.mark.parametrize("make_law", VSEQ_FAMILIES.values(), ids=VSEQ_FAMILIES)
def test_v_rows_equal_v_coefficient_on_a_fresh_law(make_law):
    for p, max_height in ((2, 5), (3, 3), (5, 2), (7, 1)):
        rows = v_sequence_report(make_law(), p, max_height)
        assert [r.n for r in rows] == list(range(max_height + 1))
        for r in rows:
            assert r.value == v_coefficient(make_law(), p, r.n), (p, r.n)
            assert r.degree == p**r.n - 1


def _counted_builds(monkeypatch):
    """The p-series n_series builds from now on, as (method, precision): the
    closed form of a law x + y + c xy, or doubling, which makes one
    substitution core a build."""
    builds = []
    closed_form = fgl_module._product_law_n_series
    substitution = fgl_module._substitution

    def counted_closed_form(ring, c, k, n):
        builds.append(("closed", n))
        return closed_form(ring, c, k, n)

    def counted_substitution(body, n, *rest):
        builds.append(("doubling", n))
        return substitution(body, n, *rest)

    monkeypatch.setattr(fgl_module, "_product_law_n_series", counted_closed_form)
    monkeypatch.setattr(fgl_module, "_substitution", counted_substitution)
    return builds


def test_each_p_series_is_built_once(monkeypatch):
    # v_0 = p needs no series; stage 1 builds [p](x) at the largest p^n a
    # stage can read, and the later stages truncate it.  A law x + y + c xy
    # takes the closed form and runs no substitution
    law = named_fgl("multiplicative", ZB, 32)
    builds = _counted_builds(monkeypatch)
    report = landweber_check(LandweberInput(law, None, [2, 3, 5], 2))
    assert builds == [("closed", 4), ("closed", 9), ("closed", 25)]
    assert report.exact and [v.height for v in report.per_prime] == [1, 1, 1]
    # the same law again reads every stage from the memo
    landweber_check(LandweberInput(law, None, [2, 3, 5], 2))
    assert builds == [("closed", 4), ("closed", 9), ("closed", 25)]
    builds.clear()
    rows = v_sequence_report(named_fgl("multiplicative", ZB, 32), 2, 5)
    assert builds == [("closed", 32)]
    assert [r.value for r in rows] == [ZB.from_int(2), -ZB.var()] + [ZB.zero()] * 4
    # the top precision stops at the law's, below p^max_height
    builds.clear()
    landweber_check(LandweberInput(named_fgl("additive", Q, 10), None, [2, 3], 10**9))
    assert builds == []
    landweber_check(LandweberInput(named_fgl("additive", Z, 10), None, [2, 3], 10**9))
    assert builds == [("closed", 8), ("closed", 9)]
    # the multiplicative law after b(x) = x + 2x^2 is no such law: it doubles,
    # once per prime, one substitution core a build
    conj = change_coordinates(
        named_fgl("multiplicative", ZB, 12), TruncatedSeries1.from_ints(ZB, [0, 1, 2], 12)
    )
    builds.clear()
    report = landweber_check(LandweberInput(conj, None, [2, 3, 5], 2))
    assert builds == [("doubling", 4), ("doubling", 9), ("doubling", 5)]
    assert report.exact and [v.height for v in report.per_prime] == [1, 1, 1]
    landweber_check(LandweberInput(conj, None, [2, 3, 5], 2))
    assert builds == [("doubling", 4), ("doubling", 9), ("doubling", 5)]
    builds.clear()
    v_sequence_report(conj, 2, 3)
    assert builds == [("doubling", 8)]


def _non_associative_law():
    # x + y + x^2 y^2 is unital and symmetric but not associative
    body = TruncatedSeries2.from_entries(
        Z, [(1, 0, Z.one()), (0, 1, Z.one()), (2, 2, Z.one())], 6
    )
    return FormalGroupLaw(body)


def test_bad_inputs_raise_before_any_build(monkeypatch):
    mult = named_fgl("multiplicative", ZB, 16)
    bad = _non_associative_law()
    builds = _counted_builds(monkeypatch)
    # the precision is checked before the prime, as it always was
    with pytest.raises(InsufficientPrecision, match=">= 64 for v_3 at p = 4$"):
        v_sequence_report(mult, 4, 3)
    with pytest.raises(ValueError, match="4 is not prime"):
        v_sequence_report(mult, 4, 1)
    with pytest.raises(ValueError, match="nonnegative"):
        v_sequence_report(mult, 2, -1)
    with pytest.raises(ValueError, match="4 is not prime"):
        LandweberInput(mult, None, [2, 4], 2)
    with pytest.raises(ValueError, match=r"repeated prime in \[3, 2, 3\]"):
        LandweberInput(mult, None, [3, 2, 3], 2)
    with pytest.raises(ValueError, match="nonnegative"):
        LandweberInput(mult, None, [2], -1)
    with pytest.raises(AxiomsFailed, match="associativity"):
        v_sequence_report(bad, 2, 2)
    with pytest.raises(AxiomsFailed, match="associativity"):
        landweber_check(LandweberInput(bad, None, [2], 2))
    assert builds == []


def test_v_sequence_report_at_a_huge_height_raises_insufficient_precision():
    # 3^10000 has more decimal digits than int-to-str conversion allows, so
    # the bound is written as a power
    law = named_fgl("multiplicative", ZB, 16)
    with pytest.raises(InsufficientPrecision, match=r">= 3\^10000 for v_10000 at p = 3$"):
        v_sequence_report(law, 3, 10_000)
    with pytest.raises(InsufficientPrecision, match=">= 27 for v_3 at p = 3$"):
        v_sequence_report(law, 3, 3)


@pytest.mark.parametrize("family", CHECK_FAMILIES)
def test_a_huge_height_bound_changes_no_verdict(family):
    # every chain here dies or fails within height 6; the top precision of
    # the p-series is found by multiplying up, never by forming p^(10^9)
    assert _check(family, 10**9).per_prime == _check(family, 6).per_prime


def test_a_huge_height_bound_runs_out_of_precision_alike():
    law = named_fgl("multiplicative", ZB, 2)
    for max_height in (6, 10**9):
        with pytest.raises(InsufficientPrecision, match=">= 3 for v_1 at p = 3, have 2$"):
            landweber_check(LandweberInput(law, None, [2, 3], max_height))
