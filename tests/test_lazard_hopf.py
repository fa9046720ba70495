"""The rational Lazard ring, (L, LB) at truncation, dualization machinery,
groupoid fixtures, and the rational idempotence check."""

import random
import zlib
from fractions import Fraction

import pytest

from fglforge.errors import AlgebroidMismatch, RingMismatch
from fglforge.expressions import element_to_expr
from fglforge.fgl import change_coordinates, named_fgl
from fglforge.gradedpoly import GradedPolynomialRing, lazard_base_ring
from fglforge.hopf import (
    HopfAlgebroidTrunc,
    LazardAlgebroid,
    _rank,
    DualFunctional,
    classify_rational,
    coaction_to_action,
    dual_compose,
    epsilon_functional,
    groupoid_fixture,
    hopf_axiom_check,
    hq_idempotence_check,
    lb_structure_maps,
    partitions,
    rank_table,
    simple_tensor,
    specialize,
    specialized_classifying_map,
    twisted_ring_multiply,
    universal_fgl_rational,
)
from fglforge.rings import Integers, LaurentExtension, Rationals, RingElement, sparse_add
from fglforge.series import TruncatedSeries1

Q = Rationals()
QB = LaurentExtension(Q, "beta", 1)


# -- the universal rational law ------------------------------------------------


def test_universal_first_coefficients():
    uni = universal_fgl_rational(3)
    ring = uni.ring
    m1 = ring.generator("m1")
    assert uni.body.at(1, 1) == ring.from_int(-2) * m1
    assert uni.validated
    with pytest.raises(ValueError):
        universal_fgl_rational(1)


def test_universal_law_and_delta_have_integer_coefficients():
    # F = l^{-1}(l(x) + l(y)) with l in Z[m][[t]] and l'(0) = 1 lies in
    # Z[m][[x, y]], and Delta composes two coordinate changes with integer
    # coefficients: every coefficient is an int, no integral Fraction
    for n in range(2, 13):
        for payload in universal_fgl_rational(n).body.payloads.values():
            assert all(type(c) is int for c in payload.values()), n
    for n in range(1, 9):
        H = lb_structure_maps(n)
        for key in H.gamma_basis():
            for c in H.delta_basis(key).values():
                assert all(type(v) is int for v in c.values()), (n, key)


def test_universal_specializes_to_additive():
    uni = universal_fgl_rational(6)
    zeros = {f"m{i}": Q.zero() for i in range(1, 6)}
    add = specialize(uni, zeros, Q)
    assert add.body == named_fgl("additive", Q, 6).body


def test_universal_specializes_to_multiplicative():
    uni = universal_fgl_rational(8)
    beta = QB.var()
    assignment = {
        f"m{i}": QB.from_fraction(Fraction(1, i + 1)) * beta**i for i in range(1, 8)
    }
    mult = specialize(uni, assignment, QB)
    assert mult.body == named_fgl("multiplicative", QB, 8).body
    assert all(c.is_zero() for (i, j), c in mult.body.coeffs.items() if i + j >= 3)


def test_classify_is_left_inverse_of_universal():
    uni = universal_fgl_rational(7)
    assignment = classify_rational(uni)
    for i in range(1, 7):
        assert assignment[f"m{i}"] == uni.ring.generator(f"m{i}")


def test_classify_conjugated_additive_reads_reverted_change():
    rng = random.Random(12)
    add = named_fgl("additive", Q, 7)
    for _ in range(10):
        coeffs = [Q.zero(), Q.one()] + [Q.from_int(rng.randint(-3, 3)) for _ in range(6)]
        b = TruncatedSeries1(Q, coeffs, 7)
        conj = change_coordinates(add, b)
        assignment = classify_rational(conj)
        b_inv = b.revert()
        for i in range(1, 7):
            assert assignment[f"m{i}"] == b_inv.coefficient(i + 1)


# -- the Lazard algebroid -------------------------------------------------------


def test_lb_generator_tables():
    H = lb_structure_maps(4)
    m1 = H.base.generator("m1")
    b1_key = H.bring.pack([1, 0, 0, 0])
    # eta_R(m1) = m1 - b1
    etar = H.eta_r_generator(1)
    assert etar[0] == m1.payload
    assert etar[b1_key] == H.base.from_int(-1).payload
    # Delta(b1) = b1 (x) 1 + 1 (x) b1
    table = H.delta_basis(b1_key)
    assert table == {
        (b1_key, 0): H.base.one().payload,
        (0, b1_key): H.base.one().payload,
    }
    # eps o eta_R = id on generators
    eps = epsilon_functional(H)
    for i in range(1, 5):
        m = H.base.generator(f"m{i}")
        assert eps(H.eta_r(m.payload)) == m


def test_eta_r_matches_classify_of_conjugated_universal():
    """Dual route: the stored eta_R must agree with classifying the universal
    law conjugated by the universal coordinate change."""
    n = 4
    H = lb_structure_maps(n)
    combined = GradedPolynomialRing(
        [(f"m{i}", i) for i in range(1, n + 1)] + [(f"b{i}", i) for i in range(1, n + 1)],
        n,
    )
    log = TruncatedSeries1(
        combined,
        [combined.zero(), combined.one()]
        + [combined.generator(f"m{i}") for i in range(1, n + 1)],
        n + 1,
    )
    from fglforge.fgl import from_logarithm

    universal = from_logarithm(log, combined, n + 1)
    b = TruncatedSeries1(
        combined,
        [combined.zero(), combined.one()]
        + [combined.generator(f"b{i}") for i in range(1, n + 1)],
        n + 1,
    )
    conjugated = change_coordinates(universal, b)
    assignment = classify_rational(conjugated)
    for i in range(1, n + 1):
        expected = assignment[f"m{i}"]
        got = combined.zero()
        for b_key, coeff in H.eta_r_generator(i).items():
            term = combined.element(
                {combined.pack([0] * n + list(H.bring.unpack(b_key))): 1}
            )
            lifted = H.base.evaluate(
                H.base.element(coeff),
                {f"m{j}": combined.generator(f"m{j}") for j in range(1, n + 1)},
                combined,
            )
            got = got + lifted * term
        assert got == expected, f"eta_R(m{i}) disagrees with the classify route"


def test_hopf_axioms_lazard():
    # the whole report at each truncation 1-8: every law, in order, passes
    # with no witness
    for n in range(1, 9):
        report = hopf_axiom_check(lb_structure_maps(n))
        assert (report.flavor, report.truncation) == ("lazard_lb_rational", n)
        assert [(c.law, c.passed, c.witness) for c in report.checks] == [
            (law, True, None) for law in HOPF_LAWS
        ]


def test_eta_r_of_constants():
    # eta_R fixes the constants: the monomial table sends the empty monomial
    # to 1, and eta_R is additive, also across constants and generators
    H = lb_structure_maps(4)
    m1, m2 = H.base.generator("m1"), H.base.generator("m2")
    constants = [H.base.zero(), H.base.one(), H.base.from_fraction(Fraction(3, 7))]

    def boxed(u):
        return {k: RingElement(H.base, p) for k, p in u.items()}

    def eta_r(a):
        return boxed(H.eta_r(a.payload))

    def scale(u, a):
        return {k: a * c for k, c in u.items() if not (a * c).is_zero()}

    for c in constants:
        from_table = scale(boxed(H._eta_r_m_monomial(0)), c)
        assert eta_r(c) == from_table == ({} if c.is_zero() else {0: c})
    for a in constants:
        for b in constants + [m1, m2 * m1 + m1]:
            assert eta_r(a + b) == boxed(sparse_add(H.base, H.eta_r(a.payload), H.eta_r(b.payload)))
            assert eta_r(a * b) == scale(eta_r(b), a)


def test_hopf_axioms_groupoid():
    for n in range(1, 6):
        algebroid = groupoid_fixture(n)
        report = hopf_axiom_check(algebroid)
        assert report.passed


def _with_delta(H, key, table):
    """H with Delta(key) replaced by the given table."""
    delta_basis = H.delta_basis
    H.delta_basis = lambda k: table if k == key else delta_basis(k)
    return H


def _delta_b1_left_only():
    H = lb_structure_maps(2)
    b1 = H.bring.pack([1, 0])
    # Delta(b1) := b1 (x) 1, dropping 1 (x) b1
    return _with_delta(H, b1, {(b1, 0): H.base.one().payload})


def _delta_b2_cross_term_off_by_one():
    H = lb_structure_maps(3)
    b1 = H.bring.pack([1, 0, 0])
    b2 = H.bring.pack([0, 1, 0])
    table = dict(H.delta_basis(b2))
    table[(b1, b1)] = H.base._add(table[(b1, b1)], H.base.one().payload)
    return _with_delta(H, b2, table)


def _delta_b1_plus_m1():
    H = lb_structure_maps(3)
    b1 = H.bring.pack([1, 0, 0])
    # Delta(b1) := b1 (x) 1 + 1 (x) b1 + m1 (1 (x) 1): coassociativity at b1
    # needs eta_R(m1) = m1, and eta_R(m1) = m1 - b1
    table = dict(H.delta_basis(b1))
    table[(0, 0)] = H.base.generator("m1").payload
    return _with_delta(H, b1, table)


def _eta_r_m1_doubled():
    H = lb_structure_maps(3)
    H._etar_gen[1] = {k: H.base._add(v, v) for k, v in H._etar_gen[1].items()}
    return H


def _groupoid_eps_swapped():
    G = groupoid_fixture(2)
    G.eps_basis = lambda key: G.base.chi(1 - key).payload
    return G


HOPF_LAWS = ("eps_eta_L", "eps_eta_R", "counit_left", "counit_right", "coassociativity")


@pytest.mark.parametrize(
    "corrupt, failures",
    [
        (
            _delta_b1_left_only,
            {"counit_left": "basis 1 (degree 1)", "coassociativity": "basis 2 (degree 2)"},
        ),
        (_delta_b2_cross_term_off_by_one, {"coassociativity": "basis 4096 (degree 3)"}),
        (
            _delta_b1_plus_m1,
            {
                "counit_left": "basis 1 (degree 1)",
                "counit_right": "basis 1 (degree 1)",
                "coassociativity": "basis 1 (degree 1)",
            },
        ),
        (_eta_r_m1_doubled, {"eps_eta_R": "on m1"}),
        (
            _groupoid_eps_swapped,
            {"eps_eta_R": "on [1, 0]", "counit_right": "basis 0 (degree 0)"},
        ),
    ],
    ids=[
        "delta_b1_left_only",
        "delta_b2_cross_term",
        "delta_b1_plus_m1",
        "eta_r_m1_doubled",
        "groupoid_eps_swapped",
    ],
)
def test_corrupted_structure_report(corrupt, failures):
    # the whole report: every law in order, and the first failing witness of each
    report = hopf_axiom_check(corrupt())
    expected = [(law, law not in failures, failures.get(law)) for law in HOPF_LAWS]
    assert [(c.law, c.passed, c.witness) for c in report.checks] == expected


# -- dual functionals --------------------------------------------------------------


def _random_functional(algebroid, rng):
    values = {}
    for key in algebroid.gamma_basis():
        if rng.random() < 0.5:
            values[key] = algebroid.base.from_fraction(
                Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            )
    return DualFunctional(algebroid, values)


@pytest.mark.parametrize("flavor", ["lazard", "groupoid"])
def test_dual_compose_unital_and_associative(flavor):
    if flavor == "lazard":
        algebroid = lb_structure_maps(3)
    else:
        algebroid = groupoid_fixture(3)
    eps = epsilon_functional(algebroid)
    rng = random.Random(42)
    for _ in range(15):
        f = _random_functional(algebroid, rng)
        g = _random_functional(algebroid, rng)
        h = _random_functional(algebroid, rng)
        assert dual_compose(eps, f) == f
        assert dual_compose(f, eps) == f
        lhs = dual_compose(dual_compose(f, g), h)
        rhs = dual_compose(f, dual_compose(g, h))
        assert lhs == rhs


def test_dual_compose_pushes_each_value_through_eta_r_once(monkeypatch):
    algebroid = lb_structure_maps(5)
    rng = random.Random(7)
    f, g = _random_functional(algebroid, rng), _random_functional(algebroid, rng)
    pushed = []
    eta_r = type(algebroid).eta_r
    monkeypatch.setattr(type(algebroid), "eta_r", lambda self, a: pushed.append(a) or eta_r(self, a))
    dual_compose(f, g)
    assert 0 < len(pushed) <= len(g.values)


def test_groupoid_dual_is_matrix_units():
    algebroid = groupoid_fixture(2)

    def delta_fn(i, j):
        return DualFunctional(algebroid, {j: algebroid.base.chi(i)})

    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    got = dual_compose(delta_fn(i, j), delta_fn(k, l))
                    if j == k:
                        assert got == delta_fn(i, l)
                    else:
                        assert got.values == {}


def test_lazard_degree_one_dual_composition():
    # dual basis elements in degree 1 compose per the transposed Delta table:
    # both Delta(b1^2) and Delta(b2) contain the cross term 2 b1 (x) b1
    # (hand expansion of b''(b') = t + (c1+d1) t^2 + (c2 + 2 c1 d1 + d2) t^3)
    H = lb_structure_maps(3)
    b1 = H.bring.pack([1, 0, 0])
    b1_dual = DualFunctional(H, {b1: H.base.one()})
    square = dual_compose(b1_dual, b1_dual)
    b1sq = H.bring.pack([2, 0, 0])
    b2 = H.bring.pack([0, 1, 0])
    assert square.values == {b1sq: H.base.from_int(2), b2: H.base.from_int(2)}
    # equal functionals built two ways hash equal, and print their values
    expected = DualFunctional(H, {b2: H.base.from_int(2), b1sq: H.base.from_int(2)})
    assert square == expected and hash(square) == hash(expected)
    assert repr(square) == f"<functional {{{b1sq}: 2, {b2}: 2}}>"
    epsilonf = epsilon_functional(H)
    assert dual_compose(epsilonf, b1_dual) == b1_dual


def test_algebroid_mismatch():
    a1 = lb_structure_maps(2)
    a2 = groupoid_fixture(2)
    f = epsilon_functional(a1)
    g = epsilon_functional(a2)
    with pytest.raises(AlgebroidMismatch):
        dual_compose(f, g)


def test_foreign_inputs_are_refused():
    # an element of a larger Lazard ring (where m5 would act as 1), an integer
    # and a key outside the Gamma basis are refused, not read into A
    A = lb_structure_maps(3)
    m5 = lb_structure_maps(5).base.generator("m5")
    one, eps = A.base.one(), epsilon_functional(A)
    for foreign in (m5, Integers().one()):
        with pytest.raises(RingMismatch):
            DualFunctional(A, {0: foreign})
        with pytest.raises(RingMismatch):
            coaction_to_action(eps, foreign)
        for u, v in ((foreign, one), (one, foreign)):
            with pytest.raises(RingMismatch):
                twisted_ring_multiply(u, eps, v, eps)
    with pytest.raises(ValueError):
        DualFunctional(A, {12345: one})


def test_hopf_layer_reaches_the_traced_methods(monkeypatch):
    # the benchmark's tracer counts g_mul and delta_basis by wrapping these
    # class attributes, and CI requires both counts to be nonzero
    counts = {}
    for cls, name in ((HopfAlgebroidTrunc, "g_mul"), (LazardAlgebroid, "delta_basis")):
        def counting(self, *args, _original=getattr(cls, name), _name=name):
            counts[_name] = counts.get(_name, 0) + 1
            return _original(self, *args)

        monkeypatch.setattr(cls, name, counting)
    H = lb_structure_maps(3)
    assert hopf_axiom_check(H).passed
    eps = epsilon_functional(H)
    twisted_ring_multiply(H.base.one(), eps, H.base.generator("m1"), eps)
    assert counts.get("g_mul", 0) > 0 and counts.get("delta_basis", 0) > 0


# -- the action on A and the twisted ring ---------------------------------------


def test_action_examples():
    algebroid = groupoid_fixture(3)
    eps = epsilon_functional(algebroid)
    r = algebroid.base.from_values([1, 2, 3])
    assert coaction_to_action(eps, r) == r

    def delta_fn(i, j):
        return DualFunctional(algebroid, {j: algebroid.base.chi(i)})

    # lambda(delta(i,j), chi_m) = [j = m] chi_i
    for i in range(3):
        for j in range(3):
            for m in range(3):
                got = coaction_to_action(delta_fn(i, j), algebroid.base.chi(m))
                expected = algebroid.base.chi(i) if j == m else algebroid.base.zero()
                assert got == expected
    # lambda(f, 1) extends the dual left unit: f(1_Gamma)
    f = delta_fn(1, 2)
    assert coaction_to_action(f, algebroid.base.one()) == f(algebroid.one_gamma())


def test_action_on_lazard_base():
    H = lb_structure_maps(3)
    eps = epsilon_functional(H)
    m1 = H.base.generator("m1")
    assert coaction_to_action(eps, m1) == m1
    b1_dual = DualFunctional(H, {H.bring.pack([1, 0, 0]): H.base.one()})
    # eta_R(m1) = m1 - b1, so the b1-dual picks out -1
    assert coaction_to_action(b1_dual, m1) == H.base.from_int(-1)
    assert coaction_to_action(b1_dual, H.base.one()).is_zero()


def _groupoid_matrix(algebroid, element):
    """Brute-force model: an element of R (x) Gamma-dual as an n x n matrix."""
    n = algebroid.n
    return [
        [element.values.get(j, algebroid.base.zero()).payload[i] for j in range(n)]
        for i in range(n)
    ]


def test_twisted_multiply_matches_groupoid_matrix_algebra():
    algebroid = groupoid_fixture(3)
    rng = random.Random(77)

    def delta_fn(i, j):
        return DualFunctional(algebroid, {j: algebroid.base.chi(i)})

    for _ in range(30):
        u = algebroid.base.from_values([rng.randint(-3, 3) for _ in range(3)])
        v = algebroid.base.from_values([rng.randint(-3, 3) for _ in range(3)])
        phi = delta_fn(rng.randrange(3), rng.randrange(3))
        psi = delta_fn(rng.randrange(3), rng.randrange(3))
        got = twisted_ring_multiply(u, phi, v, psi)
        m1 = _groupoid_matrix(algebroid, simple_tensor(u, phi))
        m2 = _groupoid_matrix(algebroid, simple_tensor(v, psi))
        product = [
            [sum(m1[i][k] * m2[k][j] for k in range(3)) for j in range(3)]
            for i in range(3)
        ]
        assert _groupoid_matrix(algebroid, got) == product


def test_twisted_multiply_associative_on_fixture():
    algebroid = groupoid_fixture(2)
    rng = random.Random(13)

    def rand_pair():
        u = algebroid.base.from_values([rng.randint(-2, 2), rng.randint(-2, 2)])
        phi = DualFunctional(
            algebroid,
            {
                j: algebroid.base.from_values([rng.randint(-2, 2), rng.randint(-2, 2)])
                for j in range(2)
            },
        )
        return u, phi

    def as_matrix(u, phi):
        return _groupoid_matrix(algebroid, simple_tensor(u, phi))

    for _ in range(20):
        (u, phi), (v, psi), (w, chi) = rand_pair(), rand_pair(), rand_pair()
        # (u phi . v psi) . w chi and u phi . (v psi . w chi), both as matrices
        left = twisted_ring_multiply(u, phi, v, psi)
        m_left = _groupoid_matrix(algebroid, left)
        m_w = as_matrix(w, chi)
        lhs = [
            [sum(m_left[i][k] * m_w[k][j] for k in range(2)) for j in range(2)]
            for i in range(2)
        ]
        right = twisted_ring_multiply(v, psi, w, chi)
        m_right = _groupoid_matrix(algebroid, right)
        m_u = as_matrix(u, phi)
        rhs = [
            [sum(m_u[i][k] * m_right[k][j] for k in range(2)) for j in range(2)]
            for i in range(2)
        ]
        assert lhs == rhs


def test_twisted_unit_reduces_to_left_action():
    algebroid = groupoid_fixture(2)
    eps = epsilon_functional(algebroid)

    def delta_fn(i, j):
        return DualFunctional(algebroid, {j: algebroid.base.chi(i)})

    u = algebroid.base.from_values([2, 5])
    v = algebroid.base.from_values([3, 7])
    psi = delta_fn(0, 1)
    got = twisted_ring_multiply(u, eps, v, psi)
    # with phi = eps the middle collapses to multiplication by v
    expected = simple_tensor(u * v, psi)
    assert got == expected


# -- the rational idempotence check --------------------------------------------


def test_hq_full_rank_up_to_degree_8():
    report = hq_idempotence_check(8)
    dims = [d.dimension for d in report.degrees]
    assert dims == [1, 2, 3, 5, 7, 11, 15, 22]
    assert report.passed
    assert [d.rank for d in report.degrees] == dims


def test_hq_check_builds_no_delta(monkeypatch):
    # the idempotence check reads eta_R alone; Delta composes coordinate
    # changes on the pair ring Q[c_*, d_*], on the first delta_basis call
    composed = []
    original = TruncatedSeries1.compose

    def recording(self, inner):
        composed.append(self.ring.names)
        return original(self, inner)

    monkeypatch.setattr(TruncatedSeries1, "compose", recording)
    assert hq_idempotence_check(6).passed
    assert composed and not any("c1" in names for names in composed)
    H = lb_structure_maps(3)
    composed.clear()
    H.delta_basis(0)
    H.delta_basis(1)
    assert composed == [("c1", "c2", "c3", "d1", "d2", "d3")]


def test_hq_degree_one_entry():
    H = lb_structure_maps(3)
    images = specialized_classifying_map(H)
    # the image of m1 at the additive point is -b1
    assert element_to_expr(images[1]) == "-b1"


def test_corrupted_map_reports_rank_deficit():
    H = lb_structure_maps(3)
    images = specialized_classifying_map(H)
    images[1] = H.bring.zero()
    report = rank_table(H, images, 3)
    assert not report.passed
    assert report.degrees[0].rank == 0


def test_rank_hand_cases():
    assert _rank([]) == 0
    assert _rank([[]]) == 0
    assert _rank([[0, 0, 0], [Fraction(0)] * 3]) == 0
    assert _rank([[0, Fraction(-3, 4), 5]]) == 1
    assert _rank([[0, 0, 0]]) == 0
    assert _rank([[Fraction(1, 2), 1], [1, 2]]) == 1
    assert _rank([[1, 2], [3, 4]]) == 2
    matrix = [[Fraction(1, 3), 2], [4, 5]]
    _rank(matrix)
    assert matrix == [[Fraction(1, 3), 2], [4, 5]]  # the input is left as it was


def _random_rank_case(rng):
    """A rows x cols matrix of ints and Fractions, with rank at most r: some
    rows are combinations of r others, duplicates, multiples or zero."""
    rows, cols = rng.randint(1, 7), rng.randint(1, 7)
    r = rng.randint(0, min(rows, cols))

    def entry():
        return Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 7, 12)))

    basis = [[entry() for _ in range(cols)] for _ in range(r)]
    matrix = []
    for _ in range(rows):
        kind = rng.random()
        if matrix and kind < 0.15:
            matrix.append(list(rng.choice(matrix)))
        elif matrix and kind < 0.25:
            matrix.append([x * entry() for x in rng.choice(matrix)])
        elif kind < 0.3:
            matrix.append([0] * cols)
        else:
            row = [0] * cols
            for b in basis:
                c = entry()
                row = [x + c * y for x, y in zip(row, b)]
            matrix.append([int(x) if x.denominator == 1 else x for x in row])
    return matrix


def test_rank_against_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(zlib.crc32(b"hopf._rank"))
    seen = set()
    for _ in range(300):
        matrix = _random_rank_case(rng)
        expected = sympy.Matrix(matrix).rank()
        assert _rank(matrix) == expected, matrix
        seen.add((expected, len(matrix), len(matrix[0])))
    # the cases cover full and deficient ranks, in both shapes
    assert any(r == min(m, n) for r, m, n in seen)
    assert any(0 < r < min(m, n) for r, m, n in seen)
    assert any(r == 0 for r, m, n in seen)


def test_hilbert_series_matches_partitions():
    ring = lazard_base_ring(8)
    for d in range(1, 9):
        assert len(ring.monomial_keys_of_degree(d)) == partitions(d)
    assert [partitions(d) for d in range(1, 9)] == [1, 2, 3, 5, 7, 11, 15, 22]


def test_hq_ceiling():
    with pytest.raises(ValueError):
        hq_idempotence_check(9)
