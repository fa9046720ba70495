"""Command-line front end.

Subcommands: fgl (pseries, axioms, log, classify), landweber check,
lazard (hq, hopf), ops (adams, compose, idempotent, iso), selftest.

Every JSON-emitting command wraps its result in the envelope
{"tool": "fgl-forge", "version": ..., "command": ..., "result": ...} and
prints with sorted keys, so identical invocations are byte-identical.
Exit codes: 0 success / checks passed, 1 a check failed, 2 input error,
141 (128 + SIGPIPE, as a shell reports a process killed by it) when stdout
is closed before the output is written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import __version__
from .errors import FGLForgeError
from .expressions import parse_expression
from .fgl import _require_axioms, check_axioms, logarithm, n_series, named_fgl
from .iojson import (
    algebroid_to_json,
    canonical_json,
    element_to_expr,
    fgl_from_json,
    json_field,
    json_list,
    ring_from_json,
    sequence_window,
    series1_from_json,
    series1_to_json,
    series1_to_text,
    twisted_from_json,
    twisted_to_json,
)
from .rings import (
    Integers,
    IntegersMod,
    LaurentExtension,
    PLocalIntegers,
    Rationals,
)

MAX_PRECISION = 64
# laws over graded polynomials, such as the universal law: fgl pseries at
# |k| = 2^16 on it takes about 3 s at precision 16 and 22 s at 20
MAX_GRADED_PRECISION = 16
MAX_DEPTH = 16
# the Hopf check grows about 2.4x a degree; degree 10 already takes over a second
MAX_HOPF_DEGREE = 10
MAX_PRIME = 97
# |k| of fgl pseries and ops adams, and |n| of geom(n) in ops compose: the
# coefficients grow with k^precision
MAX_K = 2**16
EXIT_BROKEN_PIPE = 141


def _default_precision() -> int:
    env = os.environ.get("FGLFORGE_PRECISION")
    if env is None:
        return 8
    try:
        value = int(env)
        _check_precision(value)
    except ValueError as exc:
        raise ValueError(f"FGLFORGE_PRECISION={env!r}: {exc}") from None
    return value


def _check_precision(n: int):
    if not 1 <= n <= MAX_PRECISION:
        raise ValueError(f"precision must lie in [1, {MAX_PRECISION}]")


def _check_graded_precision(n: int):
    if n > MAX_GRADED_PRECISION:
        raise ValueError(f"precision over graded polynomials is capped at {MAX_GRADED_PRECISION}")


def _check_depth(n: int):
    if not 0 <= n <= MAX_DEPTH:
        raise ValueError(f"depth must lie in [0, {MAX_DEPTH}]")


def _capped_k(text: str) -> int:
    """--k as an int, refused by argparse (exit 2) when |k| > MAX_K."""
    try:
        k = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if abs(k) > MAX_K:
        raise argparse.ArgumentTypeError(f"|k| is capped at {MAX_K}")
    return k


def ring_from_spec(spec: str):
    """Compact ring notation: Z, Q, Z/8, F5, Z_(5), Z[beta], Q[beta],
    Z/7[beta], or a path to a ring JSON file."""
    spec = spec.strip()
    if os.path.exists(spec):
        with open(spec) as handle:
            return ring_from_json(json.load(handle))
    if spec.endswith("]") and "[" in spec:
        base_spec, var = spec[:-1].rsplit("[", 1)
        var = var.strip()
        return LaurentExtension(ring_from_spec(base_spec), var, 1)
    if spec == "Z":
        return Integers()
    if spec == "Q":
        return Rationals()
    if spec.startswith("Z/"):
        return IntegersMod(int(spec[2:]))
    if spec.startswith("F") and spec[1:].isdigit():
        return IntegersMod(int(spec[1:]))
    if spec.startswith("Z_(") and spec.endswith(")"):
        return PLocalIntegers(int(spec[3:-1]))
    raise ValueError(f"unknown ring spec {spec!r}")


def _load_within_precision(path: str) -> dict:
    """A law or series file, its precision checked before anything is built."""
    with open(path) as handle:
        data = json.load(handle)
    _check_precision(json_field(data, "precision", int))
    return data


_DEFAULT_RINGS = {
    "additive": "Z",
    "multiplicative": "Z[beta]",
    "honda_h1": "F2",
    "universal_rational": "Q",
}


def fgl_from_spec(spec: str, precision: int):
    """A law: either a JSON file path or name[-over-RING]."""
    if os.path.exists(spec):
        data = _load_within_precision(spec)
        ring = json_field(data, "ring", dict)
        while json_field(ring, "kind", str) == "laurent":
            ring = json_field(ring, "base", dict)
        if ring["kind"] == "graded_polynomial":
            _check_graded_precision(data["precision"])
        fgl = fgl_from_json(data)
        _require_axioms(fgl, f"law in {spec}")
        return fgl
    name, sep, ring_spec = spec.partition("-over-")
    if name not in _DEFAULT_RINGS:
        raise ValueError(f"unknown law {name!r} (and no file {spec!r} exists)")
    if name == "universal_rational":
        _check_graded_precision(precision)
    if not sep:
        ring_spec = _DEFAULT_RINGS[name]
    return named_fgl(name, ring_from_spec(ring_spec), precision)


def series_from_spec(spec: str, precision: int):
    """geom(n) for (1-x)^n, or a path to a series JSON file."""
    # deferred so that `import fglforge.cli` does not load adams
    from .adams import geometric_power

    spec = spec.strip()
    if spec.startswith("geom(") and spec.endswith(")"):
        n = int(spec[5:-1])
        if abs(n) > MAX_K:
            raise ValueError(f"|n| of geom(n) is capped at {MAX_K}")
        return geometric_power(-n, precision)
    if os.path.exists(spec):
        return series1_from_json(_load_within_precision(spec))
    raise ValueError(f"unknown series spec {spec!r}")


def _emit(command: str, result, stream=None) -> None:
    envelope = {
        "tool": "fgl-forge",
        "version": __version__,
        "command": command,
        "result": result,
    }
    print(canonical_json(envelope), file=stream or sys.stdout)


def _parse_window(text: str):
    lo, _, hi = text.partition(":")
    lo, hi = int(lo), int(hi)
    if lo > hi:
        raise ValueError(f"window {text!r} needs lo <= hi")
    # the printed element grows with the square of the window's width
    if lo < -MAX_PRECISION or hi > MAX_PRECISION:
        raise ValueError(f"window bounds must lie in [-{MAX_PRECISION}, {MAX_PRECISION}]")
    return lo, hi


# -- subcommand implementations ---------------------------------------------------


def _cmd_fgl(args) -> int:
    precision = args.precision
    _check_precision(precision)
    fgl = fgl_from_spec(args.fgl, precision)
    if args.fgl_command == "pseries":
        series = n_series(fgl, args.k).series
        _emit(
            "fgl pseries",
            {
                "k": args.k,
                "series": series1_to_json(series),
                "text": series1_to_text(series),
            },
        )
        return 0
    if args.fgl_command == "axioms":
        report = check_axioms(fgl)
        _emit(
            "fgl axioms",
            {
                "passed": report.passed,
                "checks": [
                    {
                        "axiom": c.axiom,
                        "passed": c.passed,
                        "witness": list(c.witness) if c.witness else None,
                    }
                    for c in report.checks
                ],
            },
        )
        return 0 if report.passed else 1
    if args.fgl_command == "log":
        series = logarithm(fgl)
        _emit(
            "fgl log",
            {"series": series1_to_json(series), "text": series1_to_text(series, "t")},
        )
        return 0
    if args.fgl_command == "classify":
        # deferred so that the other fgl subcommands do not load hopf and gradedpoly
        from .hopf import classify_rational

        assignment = classify_rational(fgl)
        _emit(
            "fgl classify",
            {name: element_to_expr(value) for name, value in sorted(assignment.items())},
        )
        return 0
    raise ValueError(f"unknown fgl subcommand {args.fgl_command!r}")


def _landweber_report_json(report) -> dict:
    return {
        "exact": report.exact,
        "summary": report.summary(),
        "scope": {
            "primes": report.primes,
            "max_height": report.max_height,
            "precision": report.precision,
        },
        "per_prime": [
            {
                "prime": v.prime,
                "exact": v.exact,
                "height": v.height,
                "height_within_bound": v.height_within_bound,
                "failed_stage": v.failed_stage,
                "witness": v.witness,
                "stages": [
                    {
                        "n": s.n,
                        "status": s.status,
                        "ring": s.ring,
                        "v": s.v_value,
                        "v_degree": s.v_degree,
                        "witness": s.witness,
                    }
                    for s in v.stages
                ],
            }
            for v in report.per_prime
        ],
    }


def _cmd_landweber(args) -> int:
    # deferred so that `import fglforge.cli` does not load landweber
    from .landweber import LandweberInput, landweber_check

    precision = args.precision
    _check_precision(precision)
    primes = [int(p) for p in args.primes.split(",") if p.strip()]
    if any(p > MAX_PRIME for p in primes):
        raise ValueError(f"primes are capped at {MAX_PRIME}")
    fgl = fgl_from_spec(args.fgl, precision)
    module = None
    if args.module != "self":
        module = parse_expression(args.module, fgl.ring)
    report = landweber_check(LandweberInput(fgl, module, primes, args.max_height))
    if args.format == "text":
        print(report.summary())
        for verdict in report.per_prime:
            for stage in verdict.stages:
                line = f"p={verdict.prime} n={stage.n} [{stage.status}] in {stage.ring}"
                if stage.v_value is not None:
                    line += f"; v_{stage.n} = {stage.v_value}"
                if stage.witness is not None:
                    line += f"; witness {stage.witness}"
                print(line)
    else:
        _emit("landweber check", _landweber_report_json(report))
    return 0 if report.exact else 1


def _cmd_lazard(args) -> int:
    # deferred so that `import fglforge.cli` does not load hopf and gradedpoly
    from .hopf import (
        groupoid_fixture,
        hopf_axiom_check,
        hq_idempotence_check,
        lb_structure_maps,
    )

    if args.lazard_command == "hq":
        report = hq_idempotence_check(args.max_degree)
        _emit(
            "lazard hq",
            {
                "passed": report.passed,
                "degrees": [
                    {"degree": d.degree, "dimension": d.dimension, "rank": d.rank}
                    for d in report.degrees
                ],
            },
        )
        return 0 if report.passed else 1
    if args.lazard_command == "hopf":
        if args.flavor == "lazard_lb_rational":
            if args.degree > MAX_HOPF_DEGREE:
                raise ValueError(f"--degree is capped at {MAX_HOPF_DEGREE}")
            algebroid = lb_structure_maps(args.degree)
        else:
            algebroid = groupoid_fixture(args.objects)
        report = hopf_axiom_check(algebroid)
        _emit(
            "lazard hopf",
            {
                "algebroid": algebroid_to_json(algebroid),
                "passed": report.passed,
                "checks": [
                    {"law": c.law, "passed": c.passed, "witness": c.witness}
                    for c in report.checks
                ],
            },
        )
        return 0 if report.passed else 1
    raise ValueError(f"unknown lazard subcommand {args.lazard_command!r}")


def _cmd_ops(args) -> int:
    # deferred so that `import fglforge.cli` does not load adams
    from .adams import (
        adams_operation_sequence,
        adams_operation_tower,
        circ_compose,
        idempotent_element,
        mult_add_iso,
    )

    if args.ops_command == "adams":
        if args.model == "tower":
            _check_depth(args.depth)
            _check_precision(args.precision)
            element = adams_operation_tower(args.k, args.depth, args.precision)
        else:
            element = adams_operation_sequence(args.k, _parse_window(args.window))
        _emit("ops adams", twisted_to_json(element))
        return 0
    if args.ops_command == "compose":
        _check_precision(args.precision)
        lhs = series_from_spec(args.lhs, args.precision)
        rhs = series_from_spec(args.rhs, args.precision)
        result = circ_compose(lhs, rhs)
        payload = {
            "series": series1_to_json(result),
            "text": series1_to_text(result),
        }
        geometric = _detect_geometric(result)
        if geometric is not None:
            payload["geometric"] = geometric
        _emit("ops compose", payload)
        return 0
    if args.ops_command == "idempotent":
        element = idempotent_element(args.n, _parse_window(args.window))
        _emit("ops idempotent", twisted_to_json(element))
        return 0
    if args.ops_command == "iso":
        with open(args.input) as handle:
            data = json.load(handle)
        expected = "tower" if args.direction == "mult2add" else "sequence"
        if json_field(data, "model", str) != expected:
            raise ValueError(
                f"direction {args.direction} expects a {expected}-model input"
            )
        # the caps are checked on the parsed file, before any level is built:
        # a tower keeps its depth (its number of levels, less one) and
        # precision; a sequence on [lo, hi] becomes a tower of precision hi
        # and depth -lo unless --depth is given
        for entry in json_list(data, "terms", dict):
            if expected == "tower":
                tower = json_field(entry, "tower", dict)
                _check_depth(len(json_field(tower, "levels", list)) - 1)
                _check_precision(json_field(tower, "precision", int))
            else:
                lo, hi = sequence_window(json_field(entry, "sequence", dict))
                _check_depth(max(-lo, 0) if args.depth is None else args.depth)
                _check_precision(hi)
        element = twisted_from_json(data)
        converted = mult_add_iso(element, args.depth)
        _emit("ops iso", twisted_to_json(converted))
        return 0
    raise ValueError(f"unknown ops subcommand {args.ops_command!r}")


def _detect_geometric(series):
    """If the result is (1-x)^n, report n (the geom() notation of the CLI)."""
    # deferred so that `import fglforge.cli` does not load adams
    from .adams import geometric_power

    if series.payloads[0] != series.ring.one().payload:
        return None
    if series.precision < 1:
        return None
    c1 = Fraction(series.payloads[1])
    if c1.denominator != 1:
        return None
    # (1-x)^g starts 1 - g*x, so the geom() exponent is -c1
    g = -int(c1)
    candidate = geometric_power(-g, series.precision, series.ring)
    return g if candidate == series else None


def _cmd_selftest(args) -> int:
    # deferred so that `import fglforge.cli` does not load selftest and adams
    from .selftest import format_table, run_selftest

    report, passed = run_selftest()
    print(format_table(report), file=sys.stderr)
    _emit("selftest", report)
    return 0 if passed else 1


# -- argument parsing -----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fglforge",
        description="Exact formal-group-law algebra, Landweber exactness, "
        "and K-theory operation rings.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_fgl = sub.add_parser("fgl", help="formal group law operations")
    fgl_sub = p_fgl.add_subparsers(dest="fgl_command", required=True)
    for name, extra in (
        ("pseries", "n-series [k](x)"),
        ("axioms", "axiom report"),
        ("log", "logarithm over a Q-algebra"),
        ("classify", "rational classifying assignment"),
    ):
        q = fgl_sub.add_parser(name, help=extra)
        q.add_argument("--fgl", "--name", required=True, help="law name[-over-RING] or JSON file")
        q.add_argument("--precision", type=int)
        if name == "pseries":
            q.add_argument("--k", type=_capped_k, required=True)
    p_fgl.set_defaults(func=_cmd_fgl)

    p_land = sub.add_parser("landweber", help="Landweber exactness checking")
    land_sub = p_land.add_subparsers(dest="landweber_command", required=True)
    q = land_sub.add_parser("check", help="stagewise regular-sequence check")
    q.add_argument("--fgl", required=True, help="law name[-over-RING] or JSON file")
    q.add_argument("--module", default="self", help="'self' or a generator expression")
    q.add_argument("--primes", default="2,3,5,7")
    q.add_argument("--max-height", type=int, default=2)
    q.add_argument("--precision", type=int)
    q.add_argument("--format", choices=("json", "text"), default="json")
    p_land.set_defaults(func=_cmd_landweber)

    p_laz = sub.add_parser("lazard", help="Lazard-ring and Hopf-algebroid checks")
    laz_sub = p_laz.add_subparsers(dest="lazard_command", required=True)
    q = laz_sub.add_parser("hq", help="rational idempotence rank check")
    q.add_argument("--max-degree", type=int, default=6)
    q = laz_sub.add_parser("hopf", help="Hopf algebroid axiom check")
    q.add_argument(
        "--flavor", choices=("lazard_lb_rational", "groupoid"), default="lazard_lb_rational"
    )
    q.add_argument("--degree", type=int, default=5, help="truncation for the Lazard flavor")
    q.add_argument("--objects", type=int, default=2, help="object count for the groupoid")
    p_laz.set_defaults(func=_cmd_lazard)

    p_ops = sub.add_parser("ops", help="K-theory operation algebra")
    ops_sub = p_ops.add_subparsers(dest="ops_command", required=True)
    q = ops_sub.add_parser("adams", help="the k-th Adams operation")
    q.add_argument("--k", type=_capped_k, required=True)
    q.add_argument("--model", choices=("tower", "sequence"), default="sequence")
    q.add_argument("--depth", type=int, default=3)
    q.add_argument("--precision", type=int)
    q.add_argument("--window", default="-4:4", help="lo:hi (use --window=-4:4)")
    q = ops_sub.add_parser("compose", help="composition product of two series")
    q.add_argument("--lhs", required=True, help="geom(n) or a series JSON file")
    q.add_argument("--rhs", required=True)
    q.add_argument("--precision", type=int)
    q = ops_sub.add_parser("idempotent", help="the Adams idempotent e_n")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--window", default="-4:4")
    q = ops_sub.add_parser("iso", help="transport between the two models")
    q.add_argument("--input", required=True, help="twisted-element JSON file")
    q.add_argument("--direction", choices=("mult2add", "add2mult"), required=True)
    q.add_argument("--depth", type=int, default=None)
    p_ops.set_defaults(func=_cmd_ops)

    p_self = sub.add_parser("selftest", help="run the acceptance suite")
    p_self.set_defaults(func=_cmd_selftest)

    return parser


def run_command(argv=None) -> int:
    """Parse and dispatch; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors with code 2
        return 0 if exc.code in (0, None) else 2
    try:
        # without --precision, FGLFORGE_PRECISION is read, and checked, here
        if getattr(args, "precision", 0) is None:
            args.precision = _default_precision()
        code = args.func(args)
        # a reader that has gone shows here, not in the interpreter's last flush
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # stdout was closed early, as by `| head`: not an input error, and
        # nothing is left to say; what stdout still buffers goes nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except (FGLForgeError, ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command())


if __name__ == "__main__":
    main()
