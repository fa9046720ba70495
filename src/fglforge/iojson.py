"""JSON schemas and text rendering for rings, elements, series and FGLs.

Rationals always serialize as exact strings ("p/q"), never floats, and all
emitted JSON uses sorted keys so identical inputs give byte-identical output.
The loaders check the JSON type of every value they read, so a malformed
file is a ValueError that names the field.
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


# the JSON name of each type json.load returns
_JSON_TYPES = {
    dict: "an object", list: "a list", str: "a string", int: "an integer", float: "a number",
    bool: "a boolean", type(None): "null",
}
_REQUIRED = object()


def _is_json(value, kind) -> bool:
    # JSON true and false load as bools, which Python counts as ints
    return isinstance(value, kind) and not isinstance(value, bool)


def _json_type(value) -> str:
    return _JSON_TYPES.get(type(value), type(value).__name__)


def json_field(data, name: str, kind, default=_REQUIRED):
    """data[name] of a JSON object, checked to be of the JSON type kind
    (dict, list, str or int); default, if given, stands for a missing name."""
    if not isinstance(data, dict):
        raise ValueError(f"expected an object with {name!r}, not {_json_type(data)}")
    if default is not _REQUIRED and name not in data:
        return default
    value = data[name]
    if not _is_json(value, kind):
        raise ValueError(f"{name!r} must be {_JSON_TYPES[kind]}, not {_json_type(value)}")
    return value


def json_list(data, name: str, kind, default=_REQUIRED) -> list:
    """json_field for a list whose every item is of the JSON type kind."""
    items = json_field(data, name, list, default)
    for item in items:
        if not _is_json(item, kind):
            raise ValueError(
                f"the items of {name!r} must be {_JSON_TYPES[kind]}, not {_json_type(item)}"
            )
    return items


def ring_from_json(data: dict) -> CoefficientRing:
    kind = json_field(data, "kind", str)
    if kind == "integers":
        return Integers()
    if kind == "rationals":
        return Rationals()
    if kind == "integers_mod":
        return IntegersMod(json_field(data, "modulus", int))
    if kind == "p_local":
        return PLocalIntegers(json_field(data, "prime", int))
    if kind == "laurent":
        return LaurentExtension(
            ring_from_json(json_field(data, "base", dict)),
            json_field(data, "variable", str, "beta"),
            json_field(data, "degree", int, 1),
        )
    if kind == "quotient":
        base = ring_from_json(json_field(data, "base", dict))
        gen = parse_expression(json_field(data, "generator", str), base)
        return QuotientByPrincipal(base, gen)
    if kind == "graded_polynomial":
        # deferred: only the Lazard-ring commands need graded polynomials
        from .gradedpoly import GradedPolynomialRing

        return GradedPolynomialRing(
            [
                (json_field(g, "name", str), json_field(g, "degree", int))
                for g in json_list(data, "generators", dict)
            ],
            json_field(data, "max_degree", int),
        )
    raise Unsupported(f"unknown ring kind {kind!r}")


def series1_to_json(f: TruncatedSeries1) -> dict:
    return {
        "ring": f.ring.to_json(),
        "precision": f.precision,
        "coeffs": [element_to_expr(c) for c in f.coeffs],
    }


def series1_from_json(data: dict) -> TruncatedSeries1:
    ring = ring_from_json(json_field(data, "ring", dict))
    coeffs = [parse_expression(src, ring) for src in json_list(data, "coeffs", str)]
    return TruncatedSeries1(ring, coeffs, json_field(data, "precision", int))


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
    ring = ring_from_json(json_field(data, "ring", dict))
    precision = json_field(data, "precision", int)
    coeffs = {
        (1, 0): ring.one(),
        (0, 1): ring.one(),
    }
    for entry in json_list(data, "coefficients", dict, []):
        i, j = json_field(entry, "i", int), json_field(entry, "j", int)
        if (i, j) in ((1, 0), (0, 1)):
            raise ValueError("(1,0) and (0,1) are implicit and must not appear")
        if i < 1 or j < 1:
            raise ValueError(f"coefficient ({i},{j}) is forced by unitality")
        if i + j > precision:
            raise ValueError(f"coefficient ({i},{j}) lies above precision {precision}")
        if (i, j) in coeffs:
            raise ValueError(f"coefficient ({i},{j}) is given twice")
        coeffs[(i, j)] = parse_expression(json_field(entry, "value", str), ring)
    body = TruncatedSeries2(ring, 2, coeffs, precision)
    grading = json_field(data, "grading", dict, None)
    if grading is not None:
        grading = {name: json_field(grading, name, int) for name in grading}
        unknown = sorted(set(grading) - set(ring.generators()))
        if unknown:
            raise ValueError(f"grading names {unknown}, which are not generators of {ring}")
    return FormalGroupLaw(body, grading=grading)


def sequence_to_json(seq) -> dict:
    return {
        "window": [seq.lo, seq.hi],
        "values": [str(v) for v in seq.values],
    }


def sequence_window(data) -> tuple:
    """(lo, hi) of a sequence object, checked to be two integers."""
    window = json_list(data, "window", int)
    if len(window) != 2:
        raise ValueError(f"'window' must hold two integers, not {len(window)}")
    return tuple(window)


def sequence_from_json(data):
    # deferred so that `import fglforge.cli` does not load adams
    from .adams import AdamsSequence

    lo, hi = sequence_window(data)
    values = [Fraction(v) for v in json_list(data, "values", str)]
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

    ring = ring_from_json(json_field(data, "ring", dict))
    precision = json_field(data, "precision", int)
    levels = json_list(data, "levels", list)
    if not all(_is_json(c, str) for level in levels for c in level):
        raise ValueError("the items of 'levels' must be lists of strings")
    if json_field(data, "depth", int, len(levels) - 1) != len(levels) - 1:
        raise ValueError("tower depth does not match the number of levels")
    levels = [
        TruncatedSeries1(ring, [parse_expression(c, ring) for c in level], precision)
        for level in levels
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

    model = json_field(data, "model", str)
    terms = {}
    for entry in json_list(data, "terms", dict):
        j = json_field(entry, "beta", int)
        if model == "sequence":
            terms[j] = sequence_from_json(json_field(entry, "sequence", dict))
        else:
            terms[j] = tower_from_json(json_field(entry, "tower", dict))
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
