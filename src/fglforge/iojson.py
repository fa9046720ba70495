"""JSON schemas and text rendering for rings, elements, series and FGLs.

Rationals always serialize as exact strings ("p/q"), never floats, and all
emitted JSON uses sorted keys so identical inputs give byte-identical output.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import Unsupported
from .expressions import element_to_expr, parse_expression
from .fgl import FormalGroupLaw
from .rings import (
    CoefficientRing,
    Integers,
    IntegersMod,
    LaurentExtension,
    PLocalIntegers,
    QuotientByPrincipal,
    Rationals,
    _join_terms,
)
from .series import TruncatedSeries1, TruncatedSeries2


def ring_from_json(data: dict) -> CoefficientRing:
    kind = data["kind"]
    if kind == "integers":
        return Integers()
    if kind == "rationals":
        return Rationals()
    if kind == "integers_mod":
        return IntegersMod(int(data["modulus"]))
    if kind == "p_local":
        return PLocalIntegers(int(data["prime"]))
    if kind == "laurent":
        return LaurentExtension(
            ring_from_json(data["base"]),
            data.get("variable", "beta"),
            int(data.get("degree", 1)),
        )
    if kind == "quotient":
        base = ring_from_json(data["base"])
        gen = parse_expression(data["generator"], base)
        return QuotientByPrincipal(base, gen)
    if kind == "graded_polynomial":
        # deferred: only the Lazard-ring commands need graded polynomials
        from .gradedpoly import GradedPolynomialRing

        return GradedPolynomialRing(
            [(g["name"], int(g["degree"])) for g in data["generators"]],
            int(data["max_degree"]),
        )
    raise Unsupported(f"unknown ring kind {kind!r}")


def series1_to_json(f: TruncatedSeries1) -> dict:
    return {
        "ring": f.ring.to_json(),
        "precision": f.precision,
        "coeffs": [element_to_expr(c) for c in f.coeffs],
    }


def series1_from_json(data: dict) -> TruncatedSeries1:
    ring = ring_from_json(data["ring"])
    coeffs = [parse_expression(src, ring) for src in data["coeffs"]]
    return TruncatedSeries1(ring, coeffs, int(data["precision"]))


def series1_to_text(f: TruncatedSeries1, var: str = "x") -> str:
    """Human-readable rendering; canonical and stable."""
    terms = []
    for n, c in enumerate(f.coeffs):
        if c.is_zero():
            continue
        c_str = element_to_expr(c)
        if n == 0:
            terms.append(c_str)
            continue
        var_str = var if n == 1 else f"{var}^{n}"
        if c_str == "1":
            terms.append(var_str)
        elif c_str == "-1":
            terms.append("-" + var_str)
        else:
            if any(op in c_str[1:] for op in (" + ", " - ")):
                c_str = f"({c_str})"
            terms.append(f"{c_str}*{var_str}")
    return _join_terms(terms)


def fgl_to_json(fgl) -> dict:
    """Schema: unital coefficients (1,0), (0,1) are implicit and never emitted."""
    entries = []
    for (i, j), c in sorted(fgl.body.coeffs.items()):
        if i + j == 1:
            continue
        entries.append({"i": i, "j": j, "value": element_to_expr(c)})
    data = {
        "ring": fgl.ring.to_json(),
        "precision": fgl.precision,
        "coefficients": entries,
    }
    if fgl.grading is not None:
        data["grading"] = dict(sorted(fgl.grading.items()))
    return data


def fgl_from_json(data: dict):
    ring = ring_from_json(data["ring"])
    precision = int(data["precision"])
    coeffs = {
        (1, 0): ring.one(),
        (0, 1): ring.one(),
    }
    for entry in data.get("coefficients", []):
        i, j = int(entry["i"]), int(entry["j"])
        if (i, j) in ((1, 0), (0, 1)):
            raise ValueError("(1,0) and (0,1) are implicit and must not appear")
        if i < 1 or j < 1:
            raise ValueError(f"coefficient ({i},{j}) is forced by unitality")
        if i + j > precision:
            raise ValueError(f"coefficient ({i},{j}) lies above precision {precision}")
        if (i, j) in coeffs:
            raise ValueError(f"coefficient ({i},{j}) is given twice")
        coeffs[(i, j)] = parse_expression(entry["value"], ring)
    body = TruncatedSeries2(ring, 2, coeffs, precision)
    grading = data.get("grading")
    if grading is not None:
        grading = {str(k): int(v) for k, v in grading.items()}
        unknown = sorted(set(grading) - set(ring.generators()))
        if unknown:
            raise ValueError(f"grading names {unknown}, which are not generators of {ring}")
    return FormalGroupLaw(body, grading=grading)


def sequence_to_json(seq) -> dict:
    return {
        "window": [seq.lo, seq.hi],
        "values": [str(v) for v in seq.values],
    }


def sequence_from_json(data):
    # deferred so that `import fglforge.cli` does not load adams
    from .adams import AdamsSequence

    lo, hi = data["window"]
    values = [Fraction(v) for v in data["values"]]
    if len(values) != hi - lo + 1:
        raise ValueError("window size does not match the number of values")
    return AdamsSequence(lo, values)


def tower_to_json(tower) -> dict:
    ring = tower.levels[0].ring
    return {
        "ring": ring.to_json(),
        "precision": tower.precision,
        "depth": tower.depth,
        "levels": [[element_to_expr(c) for c in level.coeffs] for level in tower.levels],
    }


def tower_from_json(data):
    # deferred so that `import fglforge.cli` does not load adams
    from .adams import OmegaTower

    ring = ring_from_json(data["ring"])
    precision = int(data["precision"])
    if "depth" in data and int(data["depth"]) != len(data["levels"]) - 1:
        raise ValueError("tower depth does not match the number of levels")
    levels = [
        TruncatedSeries1(ring, [parse_expression(c, ring) for c in level], precision)
        for level in data["levels"]
    ]
    return OmegaTower(levels)


def twisted_to_json(element) -> dict:
    terms = []
    for j in sorted(element.terms):
        component = element.terms[j]
        if element.model == "sequence":
            entry = {"beta": j, "sequence": sequence_to_json(component)}
        else:
            entry = {"beta": j, "tower": tower_to_json(component)}
        terms.append(entry)
    return {"model": element.model, "terms": terms}


def twisted_from_json(data):
    # deferred so that `import fglforge.cli` does not load adams
    from .adams import TwistedLaurent

    model = data["model"]
    terms = {}
    for entry in data["terms"]:
        j = int(entry["beta"])
        if model == "sequence":
            terms[j] = sequence_from_json(entry["sequence"])
        else:
            terms[j] = tower_from_json(entry["tower"])
    return TwistedLaurent(model, terms)


def algebroid_to_json(algebroid) -> dict:
    """Generator/degree tables of a truncated Hopf algebroid."""
    data = {
        "flavor": algebroid.flavor,
        "truncation": algebroid.truncation,
        "gamma_basis_by_degree": {},
    }
    for key in algebroid.gamma_basis():
        degree = algebroid.basis_degree(key)
        data["gamma_basis_by_degree"].setdefault(str(degree), []).append(
            algebroid.basis_label(key)
        )
    if algebroid.base.kind == "graded_polynomial":
        data["base_generators"] = [
            {"name": name, "degree": degree} for name, degree in algebroid.base.gens
        ]
        data["gamma_generators"] = [
            {"name": name, "degree": degree} for name, degree in algebroid.bring.gens
        ]
    else:
        data["objects"] = algebroid.n
    return data


def canonical_json(data) -> str:
    """Deterministic rendering used by every CLI emitter."""
    return json.dumps(data, sort_keys=True, separators=(",", ": "), indent=1)
