"""The acceptance suite, runnable from pytest and from the CLI.

Each criterion function returns a dict {"id", "name", "passed", "details"}
with fully deterministic contents (no timings, no addresses), so the JSON
emitted by `fglforge selftest` is byte-identical across runs.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .adams import (
    adams_operation_sequence,
    adams_transform,
    adams_transform_inv,
    beta_power_sequence,
    circ_compose,
    eigenspace_action,
    geometric_power,
    idempotent_element,
    omega,
)
from .fgl import check_axioms, named_fgl, n_series
from .hopf import (
    DualFunctional,
    classify_rational,
    dual_compose,
    epsilon_functional,
    groupoid_fixture,
    hopf_axiom_check,
    hq_idempotence_check,
    lb_structure_maps,
    partitions,
    simple_tensor,
    specialize,
    twisted_ring_multiply,
    universal_fgl_rational,
)
from .iojson import canonical_json, fgl_to_json
from .landweber import LandweberInput, landweber_check
from .rings import Integers, IntegersMod, LaurentExtension, Rationals
from .series import TruncatedSeries1

_Z = Integers()
_Q = Rationals()


def criterion_fgl_axioms():
    """Additive, multiplicative, universal and height-one Honda laws all
    satisfy the axioms exactly at precision 10."""
    laws = [
        ("additive/Z", named_fgl("additive", _Z, 10)),
        ("multiplicative/Z[beta]", named_fgl("multiplicative", LaurentExtension(_Z, "beta", 1), 10)),
        ("universal_rational", universal_fgl_rational(10)),
        ("honda_h1/F2", named_fgl("honda_h1", IntegersMod(2), 10)),
    ]
    results = {}
    for label, law in laws:
        report = check_axioms(law)
        results[label] = report.passed
    return {
        "id": 1,
        "name": "fgl axiom suite at precision 10",
        "passed": all(results.values()),
        "details": results,
    }


def criterion_conner_floyd():
    """The classifying assignment of the multiplicative law is
    m_i = beta^i/(i+1), and pushing the universal law through it reproduces
    x + y - beta*x*y with every higher coefficient exactly zero."""
    ring = LaurentExtension(_Q, "beta", 1)
    beta = ring.var()
    mult = named_fgl("multiplicative", ring, 10)
    assignment = classify_rational(mult)
    expected = {
        f"m{i}": ring.from_fraction(Fraction(1, i + 1)) * beta**i for i in range(1, 10)
    }
    classify_ok = assignment == expected
    universal = universal_fgl_rational(10)
    specialized = specialize(universal, assignment, ring)
    # the body stores no zero coefficient
    higher_zero = all(i + j < 3 for i, j in specialized.body.payloads)
    body_match = specialized.body == mult.body
    return {
        "id": 2,
        "name": "Conner-Floyd classification of the multiplicative law",
        "passed": classify_ok and higher_zero and body_match,
        "details": {
            "log_coefficients": classify_ok,
            "specialization_matches": body_match,
            "degree_ge_3_vanish": higher_zero,
        },
    }


def criterion_nseries_closed_form():
    """[k](x) = (1 - (1 - beta x)^k)/beta for the multiplicative law."""
    ring = LaurentExtension(_Z, "beta", 1)
    beta = ring.var()
    beta_inv = ring.var(-1)
    mult = named_fgl("multiplicative", ring, 10)
    results = {}
    for k in range(1, 7):
        coeffs = [ring.zero()] * 11
        for i in range(0, min(k, 10) + 1):
            coeffs[i] = ring.from_int(math.comb(k, i)) * (-beta) ** i
        one_minus = TruncatedSeries1(ring, coeffs, 10)
        closed = (TruncatedSeries1.constant(ring, ring.one(), 10) - one_minus).scale(beta_inv)
        results[f"k={k}"] = n_series(mult, k).series == closed
    return {
        "id": 3,
        "name": "multiplicative n-series closed form, k in [1,6]",
        "passed": all(results.values()),
        "details": results,
    }


def criterion_composition_ring():
    """(1-x)^-k o (1-x)^-l = (1-x)^-kl for k,l in [-5,5]; commutative,
    associative and integrally closed on random integral series."""
    table_ok = True
    for k in range(-5, 6):
        for l in range(-5, 6):
            lhs = circ_compose(geometric_power(k, 16), geometric_power(l, 16))
            if lhs != geometric_power(k * l, 16):
                table_ok = False
    rng = random.Random(20301)
    pool = [
        TruncatedSeries1.from_ints(_Z, [rng.randint(-3, 3) for _ in range(17)], 16)
        for _ in range(200)
    ]
    commutative = all(
        circ_compose(pool[2 * i], pool[2 * i + 1])
        == circ_compose(pool[2 * i + 1], pool[2 * i])
        for i in range(100)
    )
    associative = all(
        circ_compose(circ_compose(pool[3 * i], pool[3 * i + 1]), pool[3 * i + 2])
        == circ_compose(pool[3 * i], circ_compose(pool[3 * i + 1], pool[3 * i + 2]))
        for i in range(66)
    )
    integral = all(
        circ_compose(pool[i], pool[i + 1]).ring == _Z for i in range(0, 40, 2)
    )
    return {
        "id": 4,
        "name": "composition ring: geometric table, commutativity, associativity",
        "passed": table_ok and commutative and associative and integral,
        "details": {
            "geometric_table": table_ok,
            "commutative": commutative,
            "associative": associative,
            "integral_closure": integral,
        },
    }


def criterion_transform_suite():
    """The Adams transform and its inverse are mutually inverse ring maps at
    precision 16 and intertwine omega with the index shift."""
    rng = random.Random(40507)
    round_trip = True
    ring_map = True
    intertwine = True
    for _ in range(100):
        f = TruncatedSeries1.from_ints(_Z, [rng.randint(-4, 4) for _ in range(17)], 16)
        g = TruncatedSeries1.from_ints(_Z, [rng.randint(-4, 4) for _ in range(17)], 16)
        tf, tg = adams_transform(f), adams_transform(g)
        fq = adams_transform_inv(tf)
        if fq.payloads != f.payloads:
            round_trip = False
        if adams_transform(circ_compose(f, g)) != tf * tg:
            ring_map = False
        if adams_transform(fq) != tf:
            round_trip = False
        sum_ok = adams_transform(f + g) == tf + tg
        if not sum_ok:
            ring_map = False
        to = adams_transform(omega(f))
        if any(to.value(n) != tf.value(n + 1) for n in range(16)):
            intertwine = False
    return {
        "id": 5,
        "name": "Adams transform: exact inverse ring maps and intertwining",
        "passed": round_trip and ring_map and intertwine,
        "details": {
            "round_trips": round_trip,
            "ring_homomorphism": ring_map,
            "intertwines_omega_with_shift": intertwine,
        },
    }


def criterion_adams_relations():
    """Operation relations on the window [-8, 8]: psi^k psi^l = psi^kl,
    beta^-1 psi^k beta = k psi^k (k != 0), orthogonal idempotents,
    e_{n+1} beta = beta e_n, psi^k = sum k^n e_n, and the eigenspace action
    psi^k . beta^n = k^n beta^n."""
    w = (-8, 8)
    multiplicativity = all(
        adams_operation_sequence(k, w) * adams_operation_sequence(l, w)
        == adams_operation_sequence(k * l, w)
        for k in range(-4, 5)
        for l in range(-4, 5)
    )
    conjugation = True
    for k in [k for k in range(-4, 5) if k]:
        conj = (
            beta_power_sequence(-1, (-9, 9))
            * adams_operation_sequence(k, w)
            * beta_power_sequence(1, (-9, 9))
        )
        if not conj.agrees_with(adams_operation_sequence(k, w).scale(k)):
            conjugation = False
    idempotents = all(
        (idempotent_element(n, w) * idempotent_element(m, w)).agrees_with(
            idempotent_element(n, w).scale(1 if n == m else 0)
        )
        if n == m
        else (idempotent_element(n, w) * idempotent_element(m, w)).is_zero()
        for n in range(-8, 9)
        for m in range(-8, 9)
    )
    beta_shift = all(
        (idempotent_element(n + 1, w) * beta_power_sequence(1, w)).agrees_with(
            beta_power_sequence(1, w) * idempotent_element(n, w)
        )
        for n in range(-8, 8)
    )
    resolution = True
    for k in range(-4, 5):
        total = None
        for n in range(w[0], w[1] + 1):
            coeff = Fraction(k) ** n if k else (Fraction(1) if n == 0 else Fraction(0))
            term = idempotent_element(n, w).scale(coeff)
            total = term if total is None else total + term
        if total != adams_operation_sequence(k, w):
            resolution = False
    eigen = all(
        eigenspace_action(adams_operation_sequence(k, w), n)
        == ({n: Fraction(k) ** n} if Fraction(k) ** n else {})
        for k in [k for k in range(-4, 5) if k]
        for n in range(-8, 9)
    )
    eigen_idem = all(
        eigenspace_action(idempotent_element(n, w), m) == ({m: Fraction(1)} if n == m else {})
        for n in range(-4, 5)
        for m in range(-4, 5)
    )
    return {
        "id": 6,
        "name": "Adams operation relations on the window [-8, 8]",
        "passed": all(
            [multiplicativity, conjugation, idempotents, beta_shift, resolution, eigen, eigen_idem]
        ),
        "details": {
            "psi_k_psi_l": multiplicativity,
            "beta_conjugation": conjugation,
            "orthogonal_idempotents": idempotents,
            "e_np1_beta": beta_shift,
            "psi_as_idempotent_sum": resolution,
            "eigenspace_action": eigen and eigen_idem,
        },
    }


def criterion_landweber_table():
    """The verdict table at precision 10, height bound 2: multiplicative
    exact of height 1 at 2, 3, 5, 7; additive over Z fails at stage 1 with
    witness 1; additive over Q is exact of height 0; additive over F_p fails
    at stage 0."""
    details = {}
    mult = named_fgl("multiplicative", LaurentExtension(_Z, "beta", 1), 10)
    report = landweber_check(LandweberInput(mult, None, [2, 3, 5, 7], 2))
    details["multiplicative_height_1"] = report.exact and all(
        v.height == 1 for v in report.per_prime
    )
    add = named_fgl("additive", _Z, 10)
    report = landweber_check(LandweberInput(add, None, [2, 3, 5, 7], 2))
    details["additive_Z_fails_stage_1"] = (not report.exact) and all(
        v.failed_stage == 1 and v.witness == "1" for v in report.per_prime
    )
    addq = named_fgl("additive", _Q, 10)
    report = landweber_check(LandweberInput(addq, None, [2, 3, 5, 7], 2))
    details["additive_Q_height_0"] = report.exact and all(
        v.height == 0 for v in report.per_prime
    )
    fp_ok = True
    for p in (2, 3, 5, 7):
        addp = named_fgl("additive", IntegersMod(p), 10)
        report = landweber_check(LandweberInput(addp, None, [p], 2))
        verdict = report.per_prime[0]
        if report.exact or verdict.failed_stage != 0:
            fp_ok = False
    details["additive_Fp_fails_stage_0"] = fp_ok
    return {
        "id": 7,
        "name": "Landweber verdict table at precision 10, height <= 2",
        "passed": all(details.values()),
        "details": details,
    }


def criterion_hq_idempotence():
    """The right unit base-changed to the additive point is invertible in
    every degree d <= 6, with dimensions the partition numbers."""
    report = hq_idempotence_check(6)
    dims = [d.dimension for d in report.degrees]
    ranks = [d.rank for d in report.degrees]
    expected = [partitions(d) for d in range(1, 7)]
    return {
        "id": 8,
        "name": "rational idempotence: full rank in degrees <= 6",
        "passed": report.passed and dims == expected == [1, 2, 3, 5, 7, 11],
        "details": {"dimensions": dims, "ranks": ranks, "partition_numbers": expected},
    }


def criterion_hopf_suite():
    """Hopf axioms for the Lazard algebroid at degree 5 and all groupoid
    fixtures; dual composition on the two-object fixture is the groupoid
    algebra; the twisted central-scalar law holds."""
    details = {}
    details["lazard_degree_5"] = hopf_axiom_check(lb_structure_maps(5)).passed
    groupoids_ok = True
    for n in range(1, 6):
        if not hopf_axiom_check(groupoid_fixture(n)).passed:
            groupoids_ok = False
    details["groupoid_fixtures"] = groupoids_ok

    algebroid = groupoid_fixture(2)

    def delta_fn(i, j):
        return DualFunctional(algebroid, {j: algebroid.base.chi(i)})

    table_ok = True
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    product = dual_compose(delta_fn(i, j), delta_fn(k, l))
                    expected = (
                        delta_fn(i, l).values if j == k else {}
                    )
                    if product.values != expected:
                        table_ok = False
    details["groupoid_algebra_table"] = table_ok

    rng = random.Random(60809)
    scalar_ok = True
    for _ in range(20):
        u = algebroid.base.from_values([rng.randint(-3, 3), rng.randint(-3, 3)])
        phi = delta_fn(rng.randrange(2), rng.randrange(2))
        psi = delta_fn(rng.randrange(2), rng.randrange(2))
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        lhs = twisted_ring_multiply(u, phi, algebroid.base.from_fraction(c), psi)
        rhs = simple_tensor(algebroid.base.from_fraction(c) * u, dual_compose(phi, psi))
        if lhs != rhs:
            scalar_ok = False
    lazard = lb_structure_maps(3)
    phi = epsilon_functional(lazard)
    psi = DualFunctional(lazard, {lazard.bring.pack([1, 0, 0]): lazard.base.one()})
    c = lazard.base.from_fraction(Fraction(7, 3))
    lhs = twisted_ring_multiply(lazard.base.one(), phi, c, psi)
    rhs = simple_tensor(c, dual_compose(phi, psi))
    details["central_scalar_law"] = scalar_ok and lhs == rhs
    return {
        "id": 9,
        "name": "Hopf algebroid suite: axioms, groupoid algebra, scalar law",
        "passed": all(details.values()),
        "details": details,
    }


def _stable_fingerprint():
    """A deterministic artifact re-serialized twice; any in-process ordering
    nondeterminism would show up as differing bytes."""
    mult = named_fgl("multiplicative", LaurentExtension(_Z, "beta", 1), 8)
    report = landweber_check(LandweberInput(mult, None, [2, 3], 2))
    payload = {
        "fgl": fgl_to_json(mult),
        "landweber": {
            "exact": report.exact,
            "summary": report.summary(),
        },
    }
    return canonical_json(payload)


def criterion_determinism():
    """Identical computations serialize to byte-identical JSON.  (The CLI
    acceptance test additionally compares two separate process runs.)"""
    first = _stable_fingerprint()
    second = _stable_fingerprint()
    return {
        "id": 10,
        "name": "deterministic JSON serialization",
        "passed": first == second,
        "details": {"bytes": len(first)},
    }


ALL_CRITERIA = [
    criterion_fgl_axioms,
    criterion_conner_floyd,
    criterion_nseries_closed_form,
    criterion_composition_ring,
    criterion_transform_suite,
    criterion_adams_relations,
    criterion_landweber_table,
    criterion_hq_idempotence,
    criterion_hopf_suite,
    criterion_determinism,
]


def run_selftest():
    """Run every acceptance criterion; returns (report dict, all passed)."""
    results = [criterion() for criterion in ALL_CRITERIA]
    passed = all(r["passed"] for r in results)
    return {"criteria": results, "passed": passed}, passed


def format_table(report: dict) -> str:
    lines = []
    for r in report["criteria"]:
        status = "PASS" if r["passed"] else "FAIL"
        lines.append(f"[{status}] criterion {r['id']:2d}: {r['name']}")
    overall = "PASS" if report["passed"] else "FAIL"
    lines.append(f"[{overall}] acceptance suite")
    return "\n".join(lines)
