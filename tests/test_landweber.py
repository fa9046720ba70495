"""Stagewise Landweber exactness checking."""

import random

import pytest

from fglforge.errors import InsufficientPrecision
from fglforge.expressions import element_to_expr
from fglforge.fgl import change_coordinates, named_fgl
from fglforge.landweber import LandweberInput, landweber_check, v_sequence_report
from fglforge.rings import Integers, IntegersMod, LaurentExtension, Rationals
from fglforge.series import TruncatedSeries1

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
