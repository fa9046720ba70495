"""The operation algebra: omega, the transform, towers, sequences, twists."""

import math
import random
import zlib
from fractions import Fraction

import pytest

from fglforge import adams
from fglforge.adams import (
    AdamsSequence,
    OmegaTower,
    TwistedLaurent,
    adams_operation_sequence,
    adams_operation_tower,
    adams_transform,
    adams_transform_inv,
    beta_power_sequence,
    beta_power_tower,
    circ_compose,
    eigenspace_action,
    geometric_power,
    idempotent_element,
    idempotent_sequence,
    mult_add_iso,
    omega,
    sequence_to_tower,
    tower_to_sequence,
    unit_sequence,
)
from fglforge.errors import (
    InsufficientDepth,
    InsufficientPrecision,
    IntegralityViolation,
    ModelMismatch,
    NonInvertibleK,
    RingMismatch,
    WindowMiss,
)
from fglforge.rings import Integers, IntegersMod, LaurentExtension, PLocalIntegers, Rationals
from fglforge.series import TruncatedSeries1

Z = Integers()
Q = Rationals()
Z5 = PLocalIntegers(5)


def zser(ints, precision=None):
    return TruncatedSeries1.from_ints(Z, ints, precision)


def neg_log(precision):
    """-log(1-x) over Q."""
    coeffs = [Fraction(0)] + [Fraction(1, n) for n in range(1, precision + 1)]
    return TruncatedSeries1.from_fractions(Q, coeffs, precision)


def exp_complement(precision):
    """1 - exp(-y) over Q."""
    coeffs = [Fraction(0)] + [
        Fraction((-1) ** (n + 1), math.factorial(n)) for n in range(1, precision + 1)
    ]
    return TruncatedSeries1.from_fractions(Q, coeffs, precision)


# -- omega -----------------------------------------------------------------------


def test_omega_examples():
    # omega((1-x)^-k) = k (1-x)^-k
    for k in (-3, -1, 1, 2, 5):
        f = geometric_power(k, 9)
        assert omega(f) == f.truncate(8).scale(k)
    assert omega(TruncatedSeries1.x(Z, 5)) == zser([1, -1], 4)
    assert omega(TruncatedSeries1.constant(Z, Z.one(), 5)).is_zero()


def _solve_omega(f, constant=0):
    # level 1 of the tower is the g with omega(g) = level 0; the kernel of
    # omega is the constants, and g(0) is the sequence's value at index -1
    head = adams_transform(f)
    seq = AdamsSequence(-1, [constant, *head.values])
    tower = sequence_to_tower(TwistedLaurent("sequence", {0: seq})).component(0)
    assert tower.level(0) == f
    return tower.level(1)


def test_omega_solve():
    # omega(x) = 1 - x
    x = TruncatedSeries1.x(Q, 4)
    assert _solve_omega(TruncatedSeries1.from_fractions(Q, [1, -1], 4)) == x
    # the eigenfunction: omega((1-x)^-2) = 2 (1-x)^-2
    f = geometric_power(2, 8, Q)
    assert _solve_omega(f.scale(Q.from_int(2)), constant=1) == f
    # the kernel constant comes from index -1
    zero = AdamsSequence(-1, [0, *adams_transform(TruncatedSeries1.zero(Q, 5)).values])
    assert sequence_to_tower(TwistedLaurent("sequence", {0: zero})).is_zero()
    assert _solve_omega(TruncatedSeries1.zero(Q, 3), constant=7) == TruncatedSeries1.from_ints(Q, [7], 3)
    rng = random.Random(2)
    for _ in range(20):
        f = TruncatedSeries1.from_fractions(
            Q, [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(9)], 8
        )
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        g = _solve_omega(f, c)
        assert omega(g) == f.truncate(7)
        assert g.coeffs[0] == Q.from_fraction(c)


def test_omega_solve_over_p_local_integers():
    # omega(-log(1-x)) = 1, and 1/2, 1/3, 1/4 are 5-local, so the solution
    # found over Q is a series over Z_(5) that omega maps to 1 there too
    g = _solve_omega(TruncatedSeries1.from_fractions(Q, [1], 4))
    coeffs = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)]
    assert g == TruncatedSeries1.from_fractions(Q, coeffs)
    Z5 = PLocalIntegers(5)
    g5 = TruncatedSeries1.from_fractions(Z5, coeffs)
    assert omega(g5) == TruncatedSeries1.from_ints(Z5, [1], 3)


# -- the transform -----------------------------------------------------------------


def test_transform_of_geometric_series():
    for k in (-4, -2, -1, 0, 1, 2, 7):
        seq = adams_transform(geometric_power(k, 12))
        assert list(seq.values) == [Fraction(k**n if k or n == 0 else 0) for n in range(13)]


def test_transform_of_x():
    seq = adams_transform(TruncatedSeries1.x(Z, 8))
    assert list(seq.values) == [0, 1, -1, 1, -1, 1, -1, 1, -1]
    # the composition ring lives over Z or Q
    beta_x = TruncatedSeries1.x(LaurentExtension(Z, "beta", 1), 4)
    with pytest.raises(RingMismatch):
        adams_transform(beta_x)
    with pytest.raises(RingMismatch):
        circ_compose(beta_x, beta_x)


def test_inverse_transform_examples():
    # (k^n) -> (1-x)^-k
    for k in (-2, 0, 1, 3):
        seq = AdamsSequence(0, [Fraction(k) ** n if k else (1 if n == 0 else 0) for n in range(11)])
        got = adams_transform_inv(seq)
        assert got == adams_transform_inv(adams_transform(geometric_power(k, 10)))
        assert adams_transform(got) == adams_transform(geometric_power(k, 10))
    assert adams_transform_inv(AdamsSequence(0, [1] + [0] * 8)) == TruncatedSeries1.constant(
        Q, Q.one(), 8
    )
    with pytest.raises(WindowMiss):
        adams_transform_inv(AdamsSequence(-1, [1, 2, 3]))


def test_transform_is_ring_isomorphism():
    rng = random.Random(123)
    for _ in range(60):
        f = zser([rng.randint(-4, 4) for _ in range(17)], 16)
        g = zser([rng.randint(-4, 4) for _ in range(17)], 16)
        tf, tg = adams_transform(f), adams_transform(g)
        assert adams_transform(circ_compose(f, g)) == tf * tg
        assert adams_transform(f + g) == tf + tg
        back = adams_transform_inv(tf)
        assert adams_transform(back) == tf


def test_intertwining():
    rng = random.Random(321)
    for _ in range(40):
        f = zser([rng.randint(-5, 5) for _ in range(13)], 12)
        left = adams_transform(omega(f))
        right = adams_transform(f)
        for n in range(12):
            assert left.value(n) == right.value(n + 1)


def test_transform_substitution_is_the_multiplicative_exponential():
    # the series 1 - exp(-y) substituted by the transform is the exponential
    # of x + y - xy, whose logarithm is -log(1-t) = sum t^n/n
    from fglforge.fgl import FormalGroupLaw, logarithm
    from fglforge.series import TruncatedSeries2

    body = TruncatedSeries2.from_entries(
        Q, [(1, 0, Q.one()), (0, 1, Q.one()), (1, 1, Q.from_int(-1))], 10
    )
    law = FormalGroupLaw(body)
    log = logarithm(law)
    assert log == neg_log(10)
    assert log.revert() == exp_complement(10)


# -- the composition product ---------------------------------------------------------


def test_circ_unit_and_constants():
    unit = geometric_power(1, 16)
    rng = random.Random(5)
    for _ in range(10):
        f = zser([rng.randint(-3, 3) for _ in range(17)], 16)
        assert circ_compose(unit, f) == f
        assert circ_compose(f, unit) == f
    one = geometric_power(0, 16)
    assert circ_compose(one, one) == one
    assert circ_compose(geometric_power(-2, 16), geometric_power(-3, 16)) == geometric_power(6, 16)


def test_circ_commutative_associative_integral():
    rng = random.Random(2024)
    pool = [zser([rng.randint(-3, 3) for _ in range(17)], 16) for _ in range(60)]
    for i in range(0, 60, 2):
        assert circ_compose(pool[i], pool[i + 1]) == circ_compose(pool[i + 1], pool[i])
    for i in range(0, 57, 3):
        f, g, h = pool[i], pool[i + 1], pool[i + 2]
        assert circ_compose(circ_compose(f, g), h) == circ_compose(f, circ_compose(g, h))
    for i in range(0, 20, 2):
        assert circ_compose(pool[i], pool[i + 1]).ring == Z


def test_circ_compose_checks_integrality(monkeypatch):
    # a wrong inverse-table entry makes x o x non-integral, which must raise,
    # even under -O: inv[2][1] = 2 gives the coefficient of x^2 as 3/2
    adams._inverse_matrix(4)
    inverse = [list(row) for row in adams._TABLES["inverse"]]
    inverse[2][1] += 1
    monkeypatch.setitem(adams._TABLES, "inverse", inverse)
    x = TruncatedSeries1.x(Z, 4)
    with pytest.raises(IntegralityViolation):
        circ_compose(x, x)


def _random_series(rng, ring, precision):
    if ring == Z:
        return zser([rng.randint(-9, 9) for _ in range(precision + 1)], precision)
    if ring == Q:
        values = [Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(precision + 1)]
        return TruncatedSeries1.from_fractions(Q, values, precision)
    # Z_(p): denominators prime to p
    dens = [d for d in range(1, 13) if d % ring.p]
    values = [Fraction(rng.randint(-9, 9), rng.choice(dens)) for _ in range(precision + 1)]
    return TruncatedSeries1.from_fractions(ring, values, precision)


@pytest.mark.parametrize("rings", ["ZZ", "QQ", "ZQ", "QZ"])
def test_circ_compose_matches_the_transform_path(rings):
    # the integer kernel against the transform path in Fractions: transform
    # both operands, multiply pointwise, transform back
    lhs_ring, rhs_ring = (Z if r == "Z" else Q for r in rings)
    rng = random.Random(zlib.crc32(f"circ_compose oracle {rings}".encode()))
    sizes = [(64, 64), (0, 0), (0, 5)]
    sizes += [(rng.randint(0, 64), rng.randint(0, 64)) for _ in range(9)]
    for p, q in sizes:
        f, g = _random_series(rng, lhs_ring, p), _random_series(rng, rhs_ring, q)
        n = min(p, q)
        expected = adams_transform_inv(
            adams_transform(f.truncate(n)) * adams_transform(g.truncate(n))
        )
        result = circ_compose(f, g)
        assert result.precision == n
        assert result.payloads == expected.payloads
        if rings == "ZZ":
            assert result.ring == Z and all(type(c) is int for c in result.payloads)
        else:
            assert result.ring == Q and all(type(c) is Fraction for c in result.payloads)


def test_circ_compose_refuses_other_rings():
    f = TruncatedSeries1.x(IntegersMod(5), 4)
    for lhs, rhs in ((f, zser([0, 1], 4)), (zser([0, 1], 4), f), (f, f)):
        with pytest.raises(RingMismatch, match="composition series live over Z or Q"):
            circ_compose(lhs, rhs)


# -- the integer transform, omega and tower relation against Fractions ----------------


def _oracle_omega(f):
    """(1 - x) f', with the series layer's derivative and product."""
    df = f.derive()
    return TruncatedSeries1(f.ring, [f.ring.one(), -f.ring.one()], df.precision) * df


def _oracle_tower(rng, ring, depth, precision):
    """Levels omega^depth(g), ..., omega(g), g of a random g, by the oracle."""
    levels = [_random_series(rng, ring, precision + depth)]
    for _ in range(depth):
        levels.insert(0, _oracle_omega(levels[0]))
    return [f.truncate(precision) for f in levels]


@pytest.mark.parametrize("ring", [Z, Q, Z5], ids=["Z", "Q", "Z_(5)"])
def test_transform_and_omega_match_the_fraction_path(ring):
    rng = random.Random(zlib.crc32(f"transform and omega oracle {ring}".encode()))
    for n in [64, 0, 1] + [rng.randint(0, 64) for _ in range(9)]:
        f = _random_series(rng, ring, n)
        if ring == Z5:
            with pytest.raises(RingMismatch, match="Z or Q"):
                adams_transform(f)
        else:
            expected = [
                sum((Fraction(w) * c for w, c in zip(row, f.payloads)), Fraction(0))
                for row in adams._forward_matrix(n)
            ]
            assert adams_transform(f).values == tuple(expected)
        if n == 0:
            with pytest.raises(InsufficientPrecision):
                omega(f)
            continue
        got, expected = omega(f), _oracle_omega(f)
        assert got == expected
        assert [type(c) for c in got.payloads] == [type(c) for c in expected.payloads]


@pytest.mark.parametrize("ring", [Q, Z5], ids=["Q", "Z_(5)"])
def test_tower_relation_catches_a_corrupted_level(ring):
    # adding 1/d to coefficient m < N of level j < D breaks the relation with
    # level j + 1, and with level j - 1 first when j, m >= 1 (omega(f_j) has
    # m c_m at index m - 1); it raises also under -O
    rng = random.Random(zlib.crc32(f"tower relation oracle {ring}".encode()))
    for _ in range(12):
        depth, n = rng.randint(1, 6), rng.randint(1, 64)
        levels = _oracle_tower(rng, ring, depth, n)
        assert OmegaTower(levels).levels == tuple(levels)
        j, m = rng.randrange(depth), rng.randrange(n)
        d = rng.choice([d for d in range(1, 13) if ring == Q or d % 5])
        bump = [0] * m + [Fraction(1, d)]
        levels[j] = levels[j] + TruncatedSeries1.from_fractions(ring, bump, n)
        first = j - 1 if j and m else j
        with pytest.raises(ValueError, match=f"omega\\(level {first + 1}\\) != level {first}$"):
            OmegaTower(levels)


def test_omega_and_towers_refuse_other_rings():
    f5 = TruncatedSeries1.from_ints(IntegersMod(5), [1] * 9, 8)
    with pytest.raises(RingMismatch, match="Z, Q or Z_\\(p\\)"):
        omega(f5)
    for levels in ([f5], [f5, f5], [f5.truncate(0)] * 2):
        with pytest.raises(RingMismatch, match="Z, Q or Z_\\(p\\)"):
            OmegaTower(levels)
    # equal numerators over two rings are still two different levels
    with pytest.raises(ValueError):
        OmegaTower([geometric_power(1, 8), geometric_power(1, 8, Q)])


# -- sequences ------------------------------------------------------------------------


def test_empty_windows_are_refused():
    # a sequence with no values would count as zero, so an empty window must
    # fail rather than give the zero element
    for build in (
        lambda: adams_operation_sequence(2, (3, 1)),
        lambda: unit_sequence((2, 1)),
        lambda: beta_power_sequence(1, (2, 1)),
        lambda: AdamsSequence(0, []),
    ):
        with pytest.raises(WindowMiss, match="empty"):
            build()


def test_sequence_windows():
    e0 = idempotent_sequence(0, (-2, 2))
    assert list(e0.values) == [0, 0, 1, 0, 0]
    with pytest.raises(WindowMiss):
        idempotent_sequence(5, (-2, 2))
    with pytest.raises(WindowMiss):
        e0.value(3)
    s = AdamsSequence(-1, [1, 2, 3])
    t = AdamsSequence(0, [5, 7, 11])
    assert (s * t).window == (0, 1)
    assert (s + t).window == (0, 1)
    assert s.shift(1).window == (-2, 0)
    assert s.shift(1).value(-1) == s.value(0)


def test_idempotent_relations():
    w = (-6, 6)
    for n in range(-6, 7):
        for m in range(-6, 7):
            prod = idempotent_sequence(n, w) * idempotent_sequence(m, w)
            if n == m:
                assert prod == idempotent_sequence(n, w)
            else:
                assert prod.is_zero()
    total = unit_sequence(w)
    acc = AdamsSequence(w[0], [0] * 13)
    for n in range(-6, 7):
        acc = acc + idempotent_sequence(n, w)
    assert acc == total


def test_adams_operation_sequences():
    psi = adams_operation_sequence(2, (-3, 3))
    assert [str(v) for v in psi.component(0).values] == [
        "1/8",
        "1/4",
        "1/2",
        "1",
        "2",
        "4",
        "8",
    ]
    assert adams_operation_sequence(1, (-4, 4)).component(0) == unit_sequence((-4, 4))
    # psi^0 is the rank projector e_0 (0^0 = 1 convention)
    assert adams_operation_sequence(0, (0, 3)).component(0) == AdamsSequence(
        0, [1, 0, 0, 0]
    )
    assert adams_operation_sequence(0, (-2, 3)).component(0) == idempotent_sequence(
        0, (-2, 3)
    )


def test_psi_multiplicativity_both_models():
    w = (-8, 8)
    for k in range(-4, 5):
        for l in range(-4, 5):
            lhs = adams_operation_sequence(k, w) * adams_operation_sequence(l, w)
            assert lhs == adams_operation_sequence(k * l, w)
    nonzero = [k for k in range(-4, 5) if k]
    for k in nonzero:
        for l in nonzero:
            product = adams_operation_tower(k, 2, 10) * adams_operation_tower(l, 2, 10)
            assert product == adams_operation_tower(k * l, 2, 10)
            # the isomorphism carries the tower product to the sequence product
            transported = tower_to_sequence(product)
            direct = adams_operation_sequence(k, (-2, 10)) * adams_operation_sequence(
                l, (-2, 10)
            )
            assert transported.agrees_with(direct)


def test_beta_twist_relations():
    w = (-8, 8)
    wide = (-9, 9)
    for k in [k for k in range(-4, 5) if k]:
        conj = (
            beta_power_sequence(-1, wide)
            * adams_operation_sequence(k, w)
            * beta_power_sequence(1, wide)
        )
        assert conj.agrees_with(adams_operation_sequence(k, w).scale(k))
    for n in range(-8, 8):
        lhs = idempotent_element(n + 1, w) * beta_power_sequence(1, w)
        rhs = beta_power_sequence(1, w) * idempotent_element(n, w)
        assert lhs.agrees_with(rhs)
    be0 = beta_power_sequence(1, w) * idempotent_element(0, w)
    assert (be0 * be0).is_zero()


def test_beta_twist_in_tower_model():
    # beta^-1 psi^k beta = k psi^k through the omega twist
    for k in (2, -3):
        psi = adams_operation_tower(k, 3, 10)
        conj = beta_power_tower(-1, 3, 10) * psi * beta_power_tower(1, 3, 10)
        assert conj.agrees_with(psi.scale(Fraction(k)))


def test_twisted_laurent_normal_form_and_errors():
    w = (-5, 5)
    a = beta_power_sequence(2, w) * idempotent_element(1, w)
    assert sorted(a.terms) == [2]
    with pytest.raises(ModelMismatch):
        a * adams_operation_tower(2, 2, 6)
    assert sorted((a * beta_power_sequence(-2, w)).terms) == [0]
    total = a + beta_power_sequence(2, w) * idempotent_element(1, w).scale(-1)
    assert total.is_zero()


def test_equal_elements_hash_equal_and_print_their_content():
    # each class defines __eq__, so equal values built two ways must hash
    # equal; pytest prints the repr of both sides of a failed comparison
    seq = AdamsSequence(0, [1, 2, Fraction(1, 2)])
    assert seq == AdamsSequence(1, [1, 2, Fraction(1, 2)]).shift(1)
    assert hash(seq) == hash(AdamsSequence(1, [1, 2, Fraction(1, 2)]).shift(1))
    assert repr(seq) == "<sequence [0..2]: 1, 2, 1/2>"

    unit = geometric_power(1, 4)
    tower = OmegaTower([unit, unit])
    deeper = OmegaTower([geometric_power(1, 6)] * 3).omega_shift(-1)
    cut = OmegaTower(level.truncate(4) for level in deeper.levels)
    assert cut == tower and hash(cut) == hash(tower)
    assert repr(tower) == "<tower depth 1 precision 4>"

    w = (-2, 2)
    twisted = beta_power_sequence(1, w) * idempotent_element(0, w)
    direct = TwistedLaurent("sequence", {1: AdamsSequence(-2, [0, 0, 1, 0, 0]), 3: seq.scale(0)})
    assert twisted == direct and hash(twisted) == hash(direct)
    assert repr(twisted) == "<sequence: beta^1*<sequence [-2..2]: 0, 0, 1, 0, 0>>"
    assert repr(TwistedLaurent("tower", {})) == "<tower: 0>"


def test_tower_invariant_validation():
    # constant unit towers satisfy omega(f) = f for f = (1-x)^-1
    good = OmegaTower([geometric_power(1, 8), geometric_power(1, 8)])
    assert good.depth == 1
    # levels that break omega(f_{j+1}) = f_j are rejected
    with pytest.raises(ValueError):
        OmegaTower([geometric_power(2, 8), geometric_power(3, 8)])
    with pytest.raises(ValueError):
        OmegaTower([geometric_power(2, 8), geometric_power(2, 8)])
    # psi^2 levels satisfy it by the eigenfunction identity
    psi = adams_operation_tower(2, 4, 8)
    tower = psi.component(0)
    assert tower.depth == 4 and tower.precision == 8


def test_tower_omega_shift_costs():
    psi = adams_operation_tower(2, 3, 8).component(0)
    up = psi.omega_shift(1)
    assert up.precision == 7
    assert up.level(1) == psi.level(0).truncate(7)
    down = psi.omega_shift(-1)
    assert down.depth == 2
    assert down.level(0) == psi.level(1)
    with pytest.raises(InsufficientDepth):
        psi.omega_shift(-4)


def test_nonintegral_tower_rejected():
    with pytest.raises(NonInvertibleK):
        adams_operation_tower(2, 2, 6, ring=Z)
    with pytest.raises(NonInvertibleK):
        adams_operation_tower(0, 2, 6)
    tower = adams_operation_tower(-1, 3, 6, ring=Z)
    assert tower.component(0).level(2) == geometric_power(-1, 6)
    # k = 1: every level is the composition unit (1-x)^-1
    unit = adams_operation_tower(1, 3, 6, ring=Z).component(0)
    assert all(unit.level(j) == geometric_power(1, 6) for j in range(4))


# -- the isomorphism between the models ------------------------------------------------


def test_iso_on_adams_operations():
    psi = adams_operation_tower(2, 3, 8)
    seq = mult_add_iso(psi)
    comp = seq.component(0)
    assert comp.window == (-3, 8)
    for n in range(-3, 9):
        assert comp.value(n) == Fraction(2) ** n
    assert sequence_to_tower(seq) == psi


def test_iso_round_trip_random():
    rng = random.Random(31415)
    for _ in range(100):
        lo = -rng.randint(0, 3)
        width = rng.randint(4, 9)
        values = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(width)]
        seq = TwistedLaurent(
            "sequence", {rng.randint(-2, 2): AdamsSequence(lo, values)}
        )
        tower = sequence_to_tower(seq)
        back = tower_to_sequence(tower)
        assert back == seq


def test_iso_is_ring_homomorphism():
    rng = random.Random(2718)
    for _ in range(100):
        def rand_elt():
            lo = -2
            values = [Fraction(rng.randint(-4, 4)) for _ in range(9)]
            return TwistedLaurent(
                "sequence", {rng.randint(-1, 1): AdamsSequence(lo, values)}
            )

        a, b = rand_elt(), rand_elt()
        ta, tb = sequence_to_tower(a), sequence_to_tower(b)
        assert tower_to_sequence(ta * tb).agrees_with(a * b)
        assert tower_to_sequence(ta + tb).agrees_with(a + b)


def test_iso_beta_goes_to_beta():
    b = beta_power_tower(2, 2, 6)
    assert sorted(tower_to_sequence(b).terms) == [2]
    with pytest.raises(InsufficientDepth):
        sequence_to_tower(beta_power_sequence(0, (1, 5)))
    with pytest.raises(InsufficientDepth):
        sequence_to_tower(beta_power_sequence(0, (-1, 5)), depth=3)
    with pytest.raises(ModelMismatch):
        tower_to_sequence(beta_power_sequence(0, (-1, 5)))


def test_e0_tower_levels_are_log_powers():
    # level k of e_0 under the iso is (-log(1-x))^k / k!
    e0 = idempotent_element(0, (-3, 6))
    tower = sequence_to_tower(e0).component(0)
    log = neg_log(6)
    power = TruncatedSeries1.constant(Q, Q.one(), 6)
    fact = 1
    for k in range(4):
        assert tower.level(k) == power.scale(Q.from_fraction(Fraction(1, fact)))
        power = power * log
        fact *= k + 1


# -- the eigenspace action ----------------------------------------------------------


def test_eigenspace_action():
    w = (-8, 8)
    for k in (-3, 2, 5):
        psi = adams_operation_sequence(k, w)
        for n in range(-8, 9):
            assert eigenspace_action(psi, n) == {n: Fraction(k) ** n}
    for n in range(-4, 5):
        for m in range(-4, 5):
            got = eigenspace_action(idempotent_element(n, w), m)
            assert got == ({m: Fraction(1)} if n == m else {})
    be0 = beta_power_sequence(1, w) * idempotent_element(0, w)
    assert eigenspace_action(be0, 0) == {1: Fraction(1)}
    with pytest.raises(WindowMiss):
        eigenspace_action(adams_operation_sequence(2, (-2, 2)), 5)
    with pytest.raises(ModelMismatch):
        eigenspace_action(adams_operation_tower(2, 2, 6), 0)


# -- integrality is checked, not asserted ------------------------------------------


def test_non_integral_geometric_power_raises(monkeypatch):
    # a bad coefficient patched in: (1-x)^-k must then refuse, even under -O
    monkeypatch.setattr(adams, "Fraction", lambda num, den=1: Fraction(num, 2 * den))
    with pytest.raises(IntegralityViolation):
        geometric_power(3, 6)


def _series_power_tables(precision):
    """The transform tables as powers of 1 - exp(-y) and of -log(1-x) over Q."""
    one = TruncatedSeries1.constant(Q, Q.one(), precision)
    fwd = [[None] * (precision + 1) for _ in range(precision + 1)]
    inv = [[None] * (precision + 1) for _ in range(precision + 1)]
    u_power = log_power = one
    for k in range(precision + 1):
        for n in range(precision + 1):
            fwd[n][k] = math.factorial(n) * u_power.coeffs[n].payload
            inv[n][k] = math.factorial(n) * log_power.coeffs[n].payload / math.factorial(k)
        u_power = u_power * exp_complement(precision)
        log_power = log_power * neg_log(precision)
    return fwd, inv


def test_transform_tables_match_series_powers(monkeypatch):
    # built from empty, one row at a time: each table is lower triangular,
    # integral, and equal to the series-power construction
    monkeypatch.setattr(adams, "_TABLES", {"forward": [[1]], "inverse": [[1]]})
    for precision in range(25):
        expected_fwd, expected_inv = _series_power_tables(precision)
        for got, expected in (
            (adams._forward_matrix(precision), expected_fwd),
            (adams._inverse_matrix(precision), expected_inv),
        ):
            assert len(got) == precision + 1
            for n, row in enumerate(got):
                assert all(type(v) is int for v in row)
                assert row == expected[n][: n + 1]
                assert not any(expected[n][n + 1 :])


def test_transform_tables_grow_on_a_copy(monkeypatch):
    monkeypatch.setattr(adams, "_TABLES", {"forward": [[1]], "inverse": [[1]]})
    held = adams._TABLES["forward"]
    adams._forward_matrix(8)
    assert held == [[1]]
    assert len(adams._TABLES["forward"]) == 9
    assert adams._forward_matrix(3) == adams._TABLES["forward"][:4]


def test_transform_tables_are_stirling_numbers():
    stirling = pytest.importorskip("sympy.functions.combinatorial.numbers").stirling
    fwd, inv = adams._forward_matrix(40), adams._inverse_matrix(40)
    for n in range(41):
        for k in range(n + 1):
            signed = (-1) ** (n - k) * math.factorial(k) * stirling(n, k)
            assert fwd[n][k] == signed
            assert inv[n][k] == stirling(n, k, kind=1)
