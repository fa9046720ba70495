"""Span tracing and operation counting around fglforge's public layer calls.

Both recorders work from outside the program: they replace a function or
method with a wrapper wherever an ``fglforge`` module or class binds it, so
calls the program makes internally pass through the wrapper too.  They record
only while a job runs (``job`` is not None); the benchmark's own rendering
and checks between jobs are not recorded.

* ``Spans`` keeps ``(name, start, end, parent, job, tag)`` per call in memory,
  from which self times are derived: a span's duration minus the time its
  child spans cover.
* ``Counts`` counts calls, and additionally the hot element operations
  (ring-element ``+`` and ``*`` per ring family, graded-polynomial products
  and the Hopf algebroid's ``g_mul`` and ``delta_basis``).  Those would swamp
  span timings, so they are only ever counted, in a run of their own.
"""

from __future__ import annotations

import sys
from time import perf_counter

# metric name -> (module, attribute) targets; "Class.method" names a method
SPAN_TARGETS = {
    "rings.decide": [
        ("rings", "zero_divisor_witness"),
        ("rings", "is_zero_ring"),
        ("rings", "quotient_by_element"),
        ("rings", "project"),
        ("rings", "*.is_unit"),
        ("rings", "*.invert"),
    ],
    "series.mul": [("series", "TruncatedSeries1.__mul__"), ("series", "TruncatedSeriesN.__mul__")],
    "series.compose": [("series", "compose_series")],
    "series.revert": [("series", "TruncatedSeries1.revert")],
    "series.inverse": [("series", "TruncatedSeries1.inverse")],
    "series.substitute_pair": [("series", "substitute_pair")],
    "fgl.check_axioms": [("fgl", "check_axioms")],
    "fgl.from_logarithm": [("fgl", "from_logarithm")],
    "fgl.logarithm": [("fgl", "logarithm")],
    "fgl.formal_inverse": [("fgl", "formal_inverse")],
    "fgl.n_series": [("fgl", "n_series")],
    "fgl.v_coefficient": [("fgl", "v_coefficient")],
    "hopf.build": [
        ("hopf", "universal_fgl_rational"),
        ("hopf", "lb_structure_maps"),
        ("hopf", "groupoid_fixture"),
    ],
    "hopf.axiom_check": [("hopf", "hopf_axiom_check")],
    "hopf.dual_compose": [("hopf", "dual_compose")],
    "hopf.hq_check": [("hopf", "hq_idempotence_check")],
    "landweber.check": [("landweber", "landweber_check")],
    "adams.circ_compose": [("adams", "circ_compose")],
    "adams.transform": [("adams", "adams_transform"), ("adams", "adams_transform_inv")],
    "adams.tower": [("adams", "adams_operation_tower"), ("adams", "beta_power_tower")],
    "adams.iso": [
        ("adams", "mult_add_iso"),
        ("adams", "tower_to_sequence"),
        ("adams", "sequence_to_tower"),
    ],
    "expressions.parse": [("expressions", "parse_expression")],
    "expressions.print": [("expressions", "element_to_expr")],
    "iojson.encode": [
        ("iojson", "canonical_json"),
        ("iojson", "series1_to_json"),
        ("iojson", "series1_to_text"),
        ("iojson", "fgl_to_json"),
        ("iojson", "twisted_to_json"),
        ("iojson", "algebroid_to_json"),
    ],
}

# counted only, never spanned
HOT_TARGETS = {
    "hopf.g_mul": [("hopf", "HopfAlgebroidTrunc.g_mul")],
    "hopf.delta_basis": [("hopf", "LazardAlgebroid.delta_basis"), ("hopf", "GroupoidAlgebroid.delta_basis")],
}

RING_FAMILIES = {
    "Integers": "integers",
    "Rationals": "rationals",
    "IntegersMod": "integers_mod",
    "PLocalIntegers": "p_local",
    "LaurentExtension": "laurent",
    "QuotientByPrincipal": "quotient",
    "GradedPolynomialRing": "graded",
    "FunctionRing": "function",
}


def _program_modules():
    return [m for name, m in list(sys.modules.items()) if name.startswith("fglforge.") and m]


def _ring_classes():
    base = sys.modules["fglforge.rings"].CoefficientRing
    found, todo = [], [base]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


def _resolve(module_name: str, attr: str):
    """Yield (owner, name, original) for every binding of the target."""
    module = sys.modules[f"fglforge.{module_name}"]
    if "." not in attr:
        original = getattr(module, attr)
        for mod in _program_modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    yield mod, name, original
        return
    cls_name, method = attr.split(".")
    classes = _ring_classes() if cls_name == "*" else [getattr(module, cls_name)]
    for cls in classes:
        original = vars(cls).get(method)
        if original is None:
            continue
        for name, value in list(vars(cls).items()):
            if value is original:  # aliases such as __rmul__ = __mul__
                yield cls, name, original


def patch(targets, make_wrapper):
    """Replace every binding of each target with make_wrapper(metric, original)."""
    for metric, entries in targets.items():
        for module_name, attr in entries:
            wrappers = {}
            for owner, name, original in _resolve(module_name, attr):
                if original not in wrappers:
                    wrappers[original] = make_wrapper(metric, original)
                setattr(owner, name, wrappers[original])


class AdamsCacheState:
    """Which precisions the Adams transforms have seen in this process, so a
    circ_compose call can be told cold (its matrices are built) or warm."""

    def __init__(self):
        self.forward = set()
        self.inverse = set()

    def before(self, metric, args):
        if metric == "adams.circ_compose":
            n = min(args[0].precision, args[1].precision)
            return "warm" if n in self.forward and n in self.inverse else "cold"
        if metric == "adams.transform":
            arg = args[0]
            if hasattr(arg, "coeffs"):
                self.forward.add(arg.precision)
            else:
                self.inverse.add(arg.hi)
        return None


def _stage_count(report):
    return sum(len(v.stages) for v in report.per_prime)


def _tagger(metric, original):
    """A per-call quantity read off the result: Landweber stages and the
    bytes of canonical JSON."""
    if metric == "landweber.check":
        return _stage_count
    if original.__name__ == "canonical_json":
        return len
    return None


class Spans:
    """In-memory span recorder."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = None
        self.adams = AdamsCacheState()

    def install(self):
        patch(SPAN_TARGETS, self._make)

    def _make(self, metric, original):
        rec = self
        tagger = _tagger(metric, original)

        def wrapper(*args, **kwargs):
            tag = rec.adams.before(metric, args)
            if rec.job is None:
                return original(*args, **kwargs)
            index = len(rec.spans)
            parent = rec.stack[-1] if rec.stack else -1
            rec.spans.append(None)
            rec.stack.append(index)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                rec.stack.pop()
                rec.spans[index] = [metric, start, end, parent, rec.job, tag]
            if tagger is not None:
                rec.spans[index][5] = tagger(result)
            return result

        return wrapper


class Counts:
    """Call and element-operation counter."""

    def __init__(self):
        self.counts = {}
        self.job = None

    def bump(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def install(self):
        patch(SPAN_TARGETS, self._make_call_counter)
        patch(HOT_TARGETS, self._make_call_counter)
        patch({"rings.elem_mul": [("rings", "RingElement.__mul__")]}, self._make_elem_counter)
        patch({"rings.elem_add": [("rings", "RingElement.__add__")]}, self._make_elem_counter)
        patch({"gradedpoly.mul": [("gradedpoly", "GradedPolynomialRing._mul")]}, self._make_poly_counter)

    def _make_call_counter(self, metric, original):
        rec = self
        tagger = _tagger(metric, original)

        def wrapper(*args, **kwargs):
            if rec.job is None:
                return original(*args, **kwargs)
            rec.bump(metric)
            result = original(*args, **kwargs)
            if tagger is not None:
                rec.bump(metric + ".tag", tagger(result))
            return result

        return wrapper

    def _make_elem_counter(self, metric, original):
        rec = self
        families = RING_FAMILIES
        counts = self.counts
        per_family = metric == "rings.elem_mul"

        def wrapper(self, other):
            if rec.job is not None:
                key = metric + "." + families.get(type(self.ring).__name__, "other") if per_family else metric
                counts[key] = counts.get(key, 0) + 1
            return original(self, other)

        return wrapper

    def _make_poly_counter(self, metric, original):
        rec = self
        counts = self.counts

        def wrapper(ring, a, b):
            if rec.job is not None:
                counts["gradedpoly.elem_mul"] = counts.get("gradedpoly.elem_mul", 0) + 1
                counts["gradedpoly.term_pairs"] = counts.get("gradedpoly.term_pairs", 0) + len(a) * len(b)
            return original(ring, a, b)

        return wrapper


def self_times(spans):
    """Per-span self time: duration minus the durations of direct children
    (spans nest, so children never overlap one another)."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child[span[3]] += span[2] - span[1]
    return [span[2] - span[1] - child[i] for i, span in enumerate(spans)]
