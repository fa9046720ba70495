"""Seeded jobs for the four workloads: generation, execution and checks.

A job is one generated request, a plain dict that names its kind and holds
every input the program needs.  Jobs come in decks: each workload has a fixed
list of slots, and every slot cycles through a fixed set of sizes, one step
per deck.  The seed picks the phase of each cycle, the order of the jobs in a
deck and the incidental inputs (coefficients, primes, moduli, functionals).
A round is the first ``ROUND_DECKS`` decks, a whole number of turns of every
cycle, so two seeds run exactly the same sizes in a round, on different data.

Each workload object offers

* ``setup()``: imports the program and builds fixtures,
* ``execute(job)``: the timed part, which calls the program and returns its
  raw result,
* ``verify(job, result)``: the untimed part, which renders the result in a
  canonical text (hashed into the run digest) and runs the job's independent
  check, returning ``(text, problem)`` with ``problem`` None on success.

Only ``fglforge`` imports inside ``setup`` load the program, so importing this
module costs nothing that set-up should measure.
"""

from __future__ import annotations

import collections
import importlib
import json
import os
import random
import signal
import subprocess
import sys
import threading
from fractions import Fraction
from math import comb
from pathlib import Path

WORKLOADS = ("lazard", "landweber", "adams", "cli")

# typed errors that are legitimate answers: hashed as outcomes, not failures
EXPECTED_ERRORS = ("Unsupported", "Undecidable", "InsufficientPrecision")

FGLFORGE_MODULES = (
    "errors",
    "rings",
    "series",
    "gradedpoly",
    "expressions",
    "fgl",
    "landweber",
    "hopf",
    "adams",
    "iojson",
    "cli",
    "selftest",
)

PRIMES = [p for p in range(2, 62) if all(p % d for d in range(2, p))]
NONZERO = [-3, -2, -1, 1, 2, 3]

# adams precisions: each one is cold on first use in a process, warm later
ADAMS_PRECISIONS = [8, 12, 16, 20, 24, 28, 32, 36, 40, 48, 56, 64]

# bulky inputs that a run record does not keep
BULKY_INPUTS = ("b", "f", "g", "expected")

CLI_ENTRY = "import sys; from fglforge.cli import main; main()"
JOB_TIMEOUT_S = 60.0


class JobTimeout(Exception):
    """An in-process job ran past its time limit."""


def load_program():
    """Import every fglforge module and return them by short name."""
    return {name: importlib.import_module(f"fglforge.{name}") for name in FGLFORGE_MODULES}


def geometric_coeffs(k: int, precision: int) -> list:
    """Coefficients of (1-x)^-k by the binomial recurrence (an oracle that
    shares no code with the program)."""
    out = [1]
    for n in range(precision):
        out.append(out[-1] * (k + n) // (n + 1))
    return out


def binomial(k: int, i: int) -> int:
    """Generalized binomial coefficient C(k, i) for any integer k."""
    if k >= 0:
        return comb(k, i)
    return (-1) ** i * comb(i - k - 1, i)


def partitions(d: int) -> int:
    """Number of partitions of d, by the pentagonal recurrence."""
    table = [1] + [0] * d
    for n in range(1, d + 1):
        total, j = 0, 1
        while True:
            g1, g2 = j * (3 * j - 1) // 2, j * (3 * j + 1) // 2
            if g1 > n:
                break
            sign = 1 if j % 2 else -1
            total += sign * table[n - g1]
            if g2 <= n:
                total += sign * table[n - g2]
            j += 1
        table[n] = total
    return table[d]


# -- decks ---------------------------------------------------------------------


class JobStream:
    """An endless, seeded sequence of jobs built deck by deck.

    The sequence does not depend on how far ahead it is generated, so a run
    that pre-generates jobs in set-up and one that generates them lazily see
    the same jobs.  Jobs already handed out are not kept.
    """

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.rng = random.Random(f"{workload.name}/{seed}")
        self.phase = [self.rng.randrange(997) for _ in workload.SLOTS]
        self.deck = 0
        self.generated = 0
        self.pending = collections.deque()
        self.memory = {}  # for workloads that repeat earlier inputs

    def _grow(self):
        # jobs are made in slot order (a repeat slot follows the slot it
        # repeats) and then run in a seeded order
        deck = []
        for slot, (kind, sizes) in enumerate(self.workload.SLOTS):
            size = sizes[(self.deck + self.phase[slot]) % len(sizes)]
            deck.append(self.workload.make_job(self.rng, kind, size, self.memory))
        self.rng.shuffle(deck)
        for job in deck:
            job["id"] = self.generated
            self.generated += 1
            self.pending.append(job)
        self.deck += 1

    def prefetch(self, count: int):
        while self.generated < count:
            self._grow()

    def next(self) -> dict:
        if not self.pending:
            self._grow()
        return self.pending.popleft()


class Workload:
    """Shared plumbing: in-process execution with a per-job time limit."""

    name = ""
    SLOTS: list = []
    ROUND_DECKS = 1
    COUNT_JOBS = 0

    def __init__(self, root: Path):
        self.root = root
        self.m = None

    @classmethod
    def round_jobs(cls) -> int:
        """Jobs in one round: ROUND_DECKS decks, a whole number of turns of
        every slot's cycle, so that every seed runs the same sizes."""
        assert all(cls.ROUND_DECKS % len(sizes) == 0 for _, sizes in cls.SLOTS), cls.name
        return cls.ROUND_DECKS * len(cls.SLOTS)

    def setup(self):
        self.m = load_program()
        signal.signal(signal.SIGALRM, _on_alarm)

    def execute(self, job):
        """Run one job in this process; returns ("ok", value) or ("error", exc)."""
        runner = getattr(self, "run_" + job["kind"])
        signal.setitimer(signal.ITIMER_REAL, JOB_TIMEOUT_S)
        try:
            return ("ok", runner(job))
        except Exception as exc:  # noqa: BLE001 - every outcome is judged in verify
            return ("error", exc)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)

    def verify(self, job, result):
        status, value = result
        if status == "error":
            name = type(value).__name__
            if name in EXPECTED_ERRORS:
                return f"error:{name}", None
            return f"error:{name}", f"unexpected {name}: {value}"
        return getattr(self, "check_" + job["kind"])(job, value)

    def render(self, data) -> str:
        return self.m["iojson"].canonical_json(data)

    def label(self, job) -> str:
        """The job class the report groups latencies by."""
        return job.get("slot", job.get("origin", job["kind"]))

    def properties(self, jobs) -> dict:
        return {}


def _on_alarm(signum, frame):
    raise JobTimeout(f"job exceeded {JOB_TIMEOUT_S} s")


# -- lazard ------------------------------------------------------------------------


class Lazard(Workload):
    """The universal rational law, the (L, LB) Hopf algebroid and its dual."""

    name = "lazard"
    # A round is four decks of 30 jobs, built around two blocks of equal
    # jobs so that neither percentile sits on an edge between sizes: the
    # median falls in the middle of 24 universal(6) jobs, the 90th percentile
    # among 12 universal(9) jobs, and the eight heaviest jobs (universal 10,
    # hopf 8, coordinates 8) lie beyond it.  Universal 11-12 and hopf 9 are
    # left out: each costs more than a tenth of a round, and a run must
    # repeat the round many times
    SLOTS = [
        ("hq", [2, 3, 4, 5]),
        ("hq", [2, 3, 4, 5]),
        ("hq", [6]),
        ("dual", [4, 5]),
        ("dual", [4, 5]),
        ("universal", [4, 5]),
        ("universal", [4, 5]),
        ("universal", [4, 5]),
        ("hopf", [4]),
        ("hopf", [4]),
        ("coordinates", [4]),
        ("coordinates", [4]),
        *[("universal", [6])] * 6,
        ("hopf", [5, 6, 5, 6]),
        ("coordinates", [5, 6]),
        ("hq", [7, 8]),
        ("dual", [7, 6]),
        ("universal", [7, 8]),
        ("hopf", [5, 8, 5, 6]),
        ("coordinates", [5, 7, 5, 8]),
        ("universal", [9]),
        ("universal", [9]),
        ("universal", [9, 10]),
        ("universal", [10, 9]),
        ("hopf", [8, 6]),
    ]
    ROUND_DECKS = 4
    COUNT_JOBS = 30

    def make_job(self, rng, kind, size, memory):
        job = {"kind": kind, "n": size}
        # nonzero coefficients, so that the seed changes values but not sparsity
        if kind == "coordinates":
            job["b"] = [rng.choice(NONZERO) for _ in range(size - 1)]
        elif kind == "dual":
            job["f"] = [rng.choice(NONZERO) for _ in range(64)]
            job["g"] = [rng.choice(NONZERO) for _ in range(64)]
        return job

    def run_universal(self, job):
        hopf, fgl = self.m["hopf"], self.m["fgl"]
        law = hopf.universal_fgl_rational(job["n"])
        report = fgl.check_axioms(law)
        return law, report, fgl.logarithm(law), hopf.classify_rational(law)

    def check_universal(self, job, value):
        law, report, log, assignment = value
        io, expr = self.m["iojson"], self.m["expressions"]
        text = self.render(
            {
                "fgl": io.fgl_to_json(law),
                "axioms": report.passed,
                "log": io.series1_to_json(log),
                "classify": {k: expr.element_to_expr(v) for k, v in sorted(assignment.items())},
            }
        )
        if not report.passed:
            return text, "universal law fails its axioms"
        # the law was built from log(t) = t + sum m_i t^(i+1); recovering that
        # log from the law's invariant differential is an independent path
        for name, value in assignment.items():
            if value != law.ring.generator(name):
                return text, f"classifying map sends {name} to {value!r}"
        return text, None

    def _coordinate_series(self, ring, job):
        series = self.m["series"]
        coeffs = [ring.zero(), ring.one()] + [ring.from_int(c) for c in job["b"]]
        return series.TruncatedSeries1(ring, coeffs, job["n"])

    def run_coordinates(self, job):
        hopf, fgl = self.m["hopf"], self.m["fgl"]
        law = hopf.universal_fgl_rational(job["n"])
        b = self._coordinate_series(law.ring, job)
        changed = fgl.change_coordinates(law, b)
        return law, b, changed, b.revert()

    def check_coordinates(self, job, value):
        law, b, changed, b_inv = value
        fgl, io, series = self.m["fgl"], self.m["iojson"], self.m["series"]
        text = self.render({"fgl": io.fgl_to_json(changed), "b_inv": io.series1_to_json(b_inv)})
        if b.compose(b_inv) != series.TruncatedSeries1.x(law.ring, job["n"]):
            return text, "b(b^-1(x)) != x"
        if not fgl.check_axioms(changed).passed:
            return text, "conjugate law fails its axioms"
        # log of b(F(b^-1 x, b^-1 y)) is log_F o b^-1
        if fgl.logarithm(changed) != fgl.logarithm(law).compose(b_inv):
            return text, "conjugate logarithm is not log_F o b^-1"
        return text, None

    def run_hopf(self, job):
        hopf = self.m["hopf"]
        algebroid = hopf.lb_structure_maps(job["n"])
        return hopf.hopf_axiom_check(algebroid)

    def check_hopf(self, job, report):
        checks = [[c.law, c.passed, c.witness] for c in report.checks]
        text = self.render({"flavor": report.flavor, "n": report.truncation, "checks": checks})
        return text, None if report.passed else "Hopf algebroid axioms fail"

    def run_dual(self, job):
        hopf = self.m["hopf"]
        algebroid = hopf.lb_structure_maps(job["n"])
        basis = algebroid.gamma_basis()
        base = algebroid.base
        f = hopf.DualFunctional(algebroid, {k: base.from_int(v) for k, v in zip(basis, job["f"])})
        g = hopf.DualFunctional(algebroid, {k: base.from_int(v) for k, v in zip(basis, job["g"])})
        return algebroid, f, g, hopf.dual_compose(f, g)

    def check_dual(self, job, value):
        algebroid, f, g, h = value
        expr = self.m["expressions"]
        rows = sorted(
            (algebroid.basis_label(k), expr.element_to_expr(v)) for k, v in h.values.items()
        )
        text = self.render({"n": job["n"], "values": rows})
        # Delta(1) = 1 (x) 1 and g(1) is a constant, so (f o g)(1) = f(1) g(1)
        one = algebroid.one_gamma()
        if h(one) != f(one) * g(one):
            return text, "(f o g)(1) != f(1) g(1)"
        return text, None

    def run_hq(self, job):
        return self.m["hopf"].hq_idempotence_check(job["n"])

    def check_hq(self, job, report):
        rows = [[d.degree, d.dimension, d.rank] for d in report.degrees]
        text = self.render({"max_degree": report.max_degree, "degrees": rows})
        for d in report.degrees:
            if d.dimension != partitions(d.degree) or d.rank != d.dimension:
                return text, f"degree {d.degree}: rank {d.rank} of {d.dimension}"
        return text, None

    def label(self, job):
        return f"{job['kind']}:{job['n']}"


# -- landweber ----------------------------------------------------------------------


class Landweber(Workload):
    """Stagewise Landweber checks, n-series and v-sequences over small rings."""

    name = "landweber"
    # Each slot cycles through variants that fix what drives the cost (law,
    # precision, primes); the seed picks moduli, local primes and generators.
    # A round is eight decks of 17 jobs.  The median falls among 24 equal
    # n-series jobs, and the 90th percentile among the 16 big-prime checks,
    # two variants of about equal cost
    SLOTS = [
        ("check_big_primes", [(48, (41, 59)), (48, (43, 53))]),
        ("check_laurent", [(16, (2, 3, 5, 7)), (16, (5, 7, 11, 13)), (32, (11, 13, 17, 19)),
                           (32, (2, 17, 23, 31))]),
        ("check_local", [(32, (2, 3, 5)), (32, (7, 11, 13)), (32, (17, 19, 23)), (32, (3, 29, 31))]),
        ("check_mod_laurent", [(16, (2, 3, 5)), (32, (7, 11, 13)), (48, (3, 17, 19)), (32, (2, 23, 29))]),
        ("check_additive", [(16, (2, 3, 5)), (64, (17, 19, 23)), (64, (29, 31, 37)), (64, (41, 43, 47))]),
        ("check_honda", [(32, (5, 31)), (64, (7, 53)), (64, (11, 61)), (32, (13, 29))]),
        ("check_module", [(16, (2, 3, 5)), (32, (5, 7, 11)), (32, (2, 11, 13)), (16, (7, 11))]),
        ("check_field_module", [(16, (2,)), (16, (3,)), (16, (5,)), (16, (7,))]),
        ("nseries", [("multiplicative", 17, 32), ("additive", 40, 64), ("honda_h1", 29, 48),
                     ("multiplicative", 40, 16), ("honda_h1", 13, 64), ("additive", 9, 32),
                     ("multiplicative", 8, 64), ("honda_h1", 6, 32)]),
        ("nseries", [("multiplicative", -2, 16), ("honda_h1", -3, 24), ("additive", -1, 24),
                     ("multiplicative", -3, 24)]),
        ("vseq", [("Z[beta]", 2, 3, 32), ("Z_(q)[beta]", 3, 2, 32), ("Z[beta]", 5, 2, 64),
                  ("Z_(q)[beta]", 2, 5, 32), ("Z[beta]", 7, 2, 64), ("Z[beta]", 3, 4, 64),
                  ("Z[beta]", 2, 4, 32), ("Z_(q)[beta]", 5, 2, 32)]),
        *[("nseries", [("multiplicative", 40, 16)])] * 3,
        # each repeats the input of its deck's check of the same family
        ("repeat_big_primes", [None]),
        ("repeat_laurent", [None]),
        ("repeat_additive", [None]),
    ]
    ROUND_DECKS = 8
    COUNT_JOBS = 17

    def make_job(self, rng, kind, size, memory):
        if kind.startswith("repeat_"):
            return dict(memory["check_" + kind[len("repeat_"):]], repeat=True)
        if kind == "nseries":
            law, k, precision = size
            ring = ["F_p", rng.choice(PRIMES)] if law == "honda_h1" else ["Z[beta]"]
            if law == "additive":
                ring = ["Z"]
            return {"kind": "nseries", "law": law, "ring": ring, "precision": precision, "k": k}
        if kind == "vseq":
            ring, p, height, precision = size
            spec = [ring, rng.choice([2, 3, 5])] if ring == "Z_(q)[beta]" else [ring]
            return {"kind": "vseq", "law": "multiplicative", "ring": spec, "precision": precision,
                    "p": p, "height": height}
        precision, primes = size
        job = {"kind": "check", "origin": kind, "precision": precision, "module": None,
               "primes": list(primes), "law": "multiplicative", "height": 2}
        if kind == "check_big_primes":
            job.update(ring=["Z[beta]"], height=1)
        elif kind == "check_laurent":
            job.update(ring=["Z[beta]"])
        elif kind == "check_local":
            q = rng.choice([2, 3, 5, 7, 11])
            job.update(ring=["Z_(q)[beta]", q], primes=sorted(set(primes) | {q}))
        elif kind == "check_mod_laurent":
            job.update(ring=["Z/m[beta]", rng.choice([4, 6, 8, 9, 10, 12, 15, 18])])
        elif kind == "check_additive":
            if rng.random() < 0.5:
                ring = ["Z/m", rng.choice([4, 6, 12, 25, 30, 49])]
            else:
                ring = ["F_p", rng.choice(PRIMES)]
            job.update(law="additive", ring=ring)
        elif kind == "check_honda":
            job.update(law="honda_h1", ring=["F_p", primes[0]], height=1)
        elif kind == "check_module":
            c, k = rng.choice([2, 3, 5, 6, 10]), rng.randint(-2, 2)
            job.update(ring=["Z[beta]"], module=f"{c}*beta^{k}")
        elif kind == "check_field_module":
            q = primes[0]
            # only the characteristic: a quotient F_q[beta]/(f) over a prime
            # other than q does not terminate at this revision (see README)
            job.update(ring=["F_p[beta]", q])
            job["module"] = f"beta - {rng.randint(1, q - 1)}" if q > 2 else "beta + 1"
        memory[kind] = dict(job)
        return job

    def _ring(self, spec):
        r = self.m["rings"]
        kind = spec[0]
        if kind == "Z":
            return r.Integers()
        if kind == "Z[beta]":
            return r.LaurentExtension(r.Integers(), "beta", 1)
        if kind == "Z_(q)[beta]":
            return r.LaurentExtension(r.PLocalIntegers(spec[1]), "beta", 1)
        if kind in ("Z/m[beta]", "F_p[beta]"):
            return r.LaurentExtension(r.IntegersMod(spec[1]), "beta", 1)
        if kind in ("Z/m", "F_p"):
            return r.IntegersMod(spec[1])
        raise ValueError(f"unknown ring spec {spec}")

    def _law(self, job):
        return self.m["fgl"].named_fgl(job["law"], self._ring(job["ring"]), job["precision"])

    def run_check(self, job):
        lw = self.m["landweber"]
        law = self._law(job)
        module = None
        if job["module"] is not None:
            module = self.m["expressions"].parse_expression(job["module"], law.ring)
        return law, lw.landweber_check(lw.LandweberInput(law, module, job["primes"], job["height"]))

    def check_check(self, job, value):
        law, report = value
        expr = self.m["expressions"].element_to_expr
        verdicts = [
            [v.prime, v.exact, v.height, v.height_within_bound, v.failed_stage, v.witness,
             [[s.n, s.status, s.ring, s.v_value, s.v_degree, s.witness] for s in v.stages]]
            for v in report.per_prime
        ]
        text = self.render({"summary": report.summary(), "per_prime": verdicts})
        ring = law.ring
        for v in report.per_prime:
            for s in v.stages:
                if s.v_value is None:
                    continue
                expected = self._v_closed_form(job["law"], ring, v.prime, s.n)
                if expected is not None and s.v_value != expr(expected):
                    return text, f"v_{s.n} at p={v.prime} is {s.v_value}, expected {expr(expected)}"
        return text, None

    def _series_closed_form(self, law, ring, k, precision):
        """[k](x) as a coefficient list: k x for the additive law,
        (1 - (1 - beta x)^k)/beta for the multiplicative one, and
        (1 + x)^k - 1 for the Honda law x + y + xy."""
        out = [ring.zero()]
        for i in range(1, precision + 1):
            if law == "additive":
                out.append(ring.from_int(k if i == 1 else 0))
            elif law == "multiplicative":
                c = -binomial(k, i) * (-1) ** i
                out.append(ring.from_int(c) * ring.var(i - 1))
            else:
                out.append(ring.from_int(binomial(k, i)))
        return out

    def _v_closed_form(self, law, ring, p, n):
        if n == 0:
            return ring.from_int(p)
        if law == "multiplicative":
            return self._series_closed_form(law, ring, p, p**n)[p**n]
        return None

    def run_nseries(self, job):
        """[k](x), and its canonical JSON as the CLI would print it."""
        series = self.m["fgl"].n_series(self._law(job), job["k"]).series
        io = self.m["iojson"]
        return series, io.canonical_json({"k": job["k"], "series": io.series1_to_json(series)})

    def check_nseries(self, job, value):
        series, text = value
        expected = self._series_closed_form(job["law"], series.ring, job["k"], series.precision)
        if list(series.coeffs) != expected:
            return text, f"[{job['k']}](x) differs from its closed form"
        return text, None

    def run_vseq(self, job):
        lw = self.m["landweber"]
        law = self._law(job)
        return law, lw.v_sequence_report(law, job["p"], job["height"])

    def check_vseq(self, job, value):
        law, rows = value
        expr = self.m["expressions"].element_to_expr
        text = self.render(
            {"rows": [[r.n, expr(r.value), r.degree, r.homogeneous] for r in rows]}
        )
        for r in rows:
            if r.value != self._v_closed_form("multiplicative", law.ring, job["p"], r.n):
                return text, f"v_{r.n} differs from its closed form"
            if r.homogeneous is False:
                return text, f"v_{r.n} is not homogeneous"
        return text, None

    def properties(self, jobs):
        checks = [j for j in jobs if j["kind"] == "check"]
        repeats = sum(1 for j in checks if j.get("repeat"))
        return {
            "repeat_share": repeats / len(checks) if checks else 0.0,
            "precision_histogram": _histogram(j["precision"] for j in jobs),
            "ring_histogram": _histogram(j["ring"][0] for j in jobs),
        }


# -- adams ----------------------------------------------------------------------------


def _geometric_mix(rng):
    """A seeded integer combination sum c_k (1-x)^-k, as {k: c_k}."""
    mix = {}
    for _ in range(rng.randint(1, 3)):
        k = rng.choice([-3, -2, -1, 1, 2, 3])
        mix[k] = mix.get(k, 0) + rng.choice([-3, -2, -1, 1, 2, 3])
    return {k: c for k, c in mix.items() if c} or {1: 1}


def _mix_coeffs(mix: dict, precision: int) -> list:
    out = [0] * (precision + 1)
    for k, c in mix.items():
        for n, g in enumerate(geometric_coeffs(k, precision)):
            out[n] += c * g
    return out


class Adams(Workload):
    """The composition product, Adams operations and the model isomorphism."""

    name = "adams"
    SLOTS = [
        ("compose_geom", ADAMS_PRECISIONS),
        ("compose_geom", ADAMS_PRECISIONS[::-1]),
        ("compose_int", ADAMS_PRECISIONS),
        ("compose_int", ADAMS_PRECISIONS[::-1]),
        # (precision, depth, k): k changes the cost, so it is not left to the seed
        ("tower", [(8, 2, 2), (16, 4, -1), (24, 3, 3), (32, 6, -2), (16, 1, 1), (32, 3, -3)]),
        ("iso", [(8, 3, 2), (12, 5, -1), (16, 2, 3), (20, 4, -2), (24, 6, 1), (12, 1, -3)]),
        ("idempotent", [4, 8, 16]),
        # 16 equal iso(24, 6) jobs a round, where the 90th percentile falls
        ("iso", [(24, 6, 1), (8, 3, 2)]),
    ]
    # a round is 24 decks: every precision is composed eight times, cold
    # the first time (a round runs in a fresh process) and warm after that
    ROUND_DECKS = 24
    COUNT_JOBS = 28

    def make_job(self, rng, kind, size, memory):
        if kind in ("tower", "iso"):
            size, depth, k = size
            return {"kind": kind, "precision": size, "depth": depth, "k": k}
        job = {"kind": kind, "precision": size}
        if kind == "compose_geom":
            job["a"] = rng.choice([-1, 1]) * rng.randint(1, 6)
            job["b"] = rng.choice([-1, 1]) * rng.randint(1, 6)
        elif kind == "compose_int":
            f, g = _geometric_mix(rng), _geometric_mix(rng)
            job["f"] = _mix_coeffs(f, size)
            job["g"] = _mix_coeffs(g, size)
            expected = {}
            for k, c in f.items():
                for m, d in g.items():
                    expected[k * m] = expected.get(k * m, 0) + c * d
            job["expected"] = _mix_coeffs(expected, size)
        elif kind == "idempotent":
            job["n"] = rng.randint(-size, size)
        return job

    def _integral(self, coeffs, precision):
        m = self.m
        return m["series"].TruncatedSeries1.from_ints(m["rings"].Integers(), coeffs, precision)

    def run_compose_geom(self, job):
        adams, n = self.m["adams"], job["precision"]
        # geom(a) = (1-x)^a is geometric_power(-a)
        return adams.circ_compose(
            adams.geometric_power(-job["a"], n), adams.geometric_power(-job["b"], n)
        )

    def check_compose_geom(self, job, series):
        text = self.render(self.m["iojson"].series1_to_json(series))
        # geom(a) o geom(b) = geom(-ab), that is (1-x)^-ab
        expected = geometric_coeffs(job["a"] * job["b"], job["precision"])
        if [c.payload for c in series.coeffs] != expected:
            return text, "geom(a) o geom(b) != geom(-ab)"
        return text, None

    def run_compose_int(self, job):
        n = job["precision"]
        return self.m["adams"].circ_compose(self._integral(job["f"], n), self._integral(job["g"], n))

    def check_compose_int(self, job, series):
        text = self.render(self.m["iojson"].series1_to_json(series))
        if [c.payload for c in series.coeffs] != job["expected"]:
            return text, "composition product breaks bilinearity"
        return text, None

    def run_tower(self, job):
        adams = self.m["adams"]
        tower = adams.adams_operation_tower(job["k"], job["depth"], job["precision"])
        return tower, adams.tower_to_sequence(tower)

    def _is_power_sequence(self, element, k):
        seq = element.terms.get(0)
        if seq is None or set(element.terms) != {0}:
            return False
        return all(v == Fraction(k) ** n for n, v in zip(range(seq.lo, seq.hi + 1), seq.values))

    def check_tower(self, job, value):
        tower, seq = value
        io = self.m["iojson"]
        text = self.render({"tower": io.twisted_to_json(tower), "sequence": io.twisted_to_json(seq)})
        if not self._is_power_sequence(seq, job["k"]):
            return text, "psi^k does not transport to (k^n)"
        return text, None

    def run_iso(self, job):
        adams = self.m["adams"]
        seq = adams.adams_operation_sequence(job["k"], (-job["depth"], job["precision"]))
        tower = adams.mult_add_iso(seq, job["depth"])
        return tower, adams.mult_add_iso(tower)

    def check_iso(self, job, value):
        tower, back = value
        io = self.m["iojson"]
        text = self.render({"tower": io.twisted_to_json(tower), "back": io.twisted_to_json(back)})
        if not self._is_power_sequence(back, job["k"]):
            return text, "sequence -> tower -> sequence is not the identity"
        return text, None

    def run_idempotent(self, job):
        n, size = job["n"], job["precision"]
        e = self.m["adams"].idempotent_element(n, (-size, size))
        return e, e * e

    def check_idempotent(self, job, value):
        e, square = value
        text = self.render(self.m["iojson"].twisted_to_json(e))
        seq = e.terms.get(0)
        lo = -job["precision"]
        if seq is None or [int(v) for v in seq.values] != [
            int(i + lo == job["n"]) for i in range(len(seq.values))
        ]:
            return text, "e_n is not the characteristic function of n"
        if square != e:
            return text, "e_n is not idempotent"
        return text, None

    def properties(self, jobs):
        seen, cold, composed = set(), 0, 0
        for j in jobs:
            if j["kind"].startswith("compose"):
                composed += 1
                cold += j["precision"] not in seen
                seen.add(j["precision"])
        return {
            "cold_share": cold / composed if composed else 0.0,
            "precision_histogram": _histogram(j["precision"] for j in jobs),
        }


# -- cli ----------------------------------------------------------------------------------


class Cli(Workload):
    """README commands, each in a fresh fglforge process, one at a time."""

    name = "cli"
    SLOTS = [
        ("pseries_mult", [8, 16, 24, 32]),
        ("pseries_honda", [16]),
        ("pseries_additive", [8]),
        ("axioms_honda", [0]),
        ("axioms_file", [0]),
        ("log_mult", [8, 12]),
        ("log_universal", [5, 6, 7, 8]),
        ("classify_mult", [8, 12]),
        ("classify_universal", [5, 7]),
        ("landweber_text", [10, 16]),
        ("landweber_json", [16, 32]),
        ("landweber_additive", [4]),
        ("landweber_file", [8]),
        ("lazard_hq", [3, 5, 6, 7]),
        ("lazard_hopf", [3, 4, 5, 6]),
        ("lazard_groupoid", [2, 4]),
        ("adams_sequence", [4, 8]),
        ("adams_tower", [8, 16]),
        ("compose", [8, 16, 24, 32]),
        ("compose_cold", [40]),
        ("idempotent", [4]),
        ("iso", [0]),
        ("selftest", [True, False, False, False]),  # once a round: it costs as much as twelve jobs
        ("malformed", [0, 1, 3, 4]),
        ("pseries_mult", [8, 16, 24, 32]),
        ("malformed", [4, 3, 1, 0]),
    ]
    ROUND_DECKS = 4
    COUNT_JOBS = 12
    WORK = Path(".perfbench") / "work"
    LAW_FILE = "law.json"
    TOWER_FILE = "psi2-tower.json"

    def setup(self):
        super().setup()
        work = self.root / self.WORK
        work.mkdir(parents=True, exist_ok=True)
        m = self.m
        ring = m["rings"].LaurentExtension(m["rings"].Integers(), "beta", 1)
        law = m["fgl"].named_fgl("multiplicative", ring, 8)
        tower = m["adams"].adams_operation_tower(2, 3, 8)
        for name, data in (
            (self.LAW_FILE, m["iojson"].fgl_to_json(law)),
            (self.TOWER_FILE, m["iojson"].twisted_to_json(tower)),
        ):
            (work / name).write_text(m["iojson"].canonical_json(data) + "\n")
        self.stderr_path = work / "stderr.txt"

    def make_job(self, rng, kind, size, memory):
        law_file = str(self.WORK / self.LAW_FILE)
        primes = lambda hi, n: ",".join(map(str, sorted(rng.sample([p for p in PRIMES if p <= hi], n))))  # noqa: E731
        expect = 0
        check = None
        if kind == "pseries_mult":
            k = rng.randint(2, 13)
            argv = ["fgl", "pseries", "--name", "multiplicative", "--k", str(k), "--precision", str(size)]
            check = ["pseries", "multiplicative", k]
        elif kind == "pseries_honda":
            p = rng.choice([2, 3, 5, 7, 11, 13])
            argv = ["fgl", "pseries", "--fgl", f"honda_h1-over-F{p}", "--k", str(p), "--precision", str(size)]
        elif kind == "pseries_additive":
            k = rng.randint(2, 9)
            argv = ["fgl", "pseries", "--fgl", "additive-over-Z", "--k", str(k), "--precision", str(size)]
            check = ["pseries", "additive", k]
        elif kind == "axioms_honda":
            argv = ["fgl", "axioms", "--name", "honda_h1"]
            check = ["passed"]
        elif kind == "axioms_file":
            argv = ["fgl", "axioms", "--fgl", law_file]
            check = ["passed"]
        elif kind == "log_mult":
            argv = ["fgl", "log", "--fgl", "multiplicative-over-Q[beta]", "--precision", str(size)]
        elif kind == "log_universal":
            argv = ["fgl", "log", "--fgl", "universal_rational", "--precision", str(size)]
        elif kind == "classify_mult":
            argv = ["fgl", "classify", "--fgl", "multiplicative-over-Q[beta]", "--precision", str(size)]
        elif kind == "classify_universal":
            argv = ["fgl", "classify", "--fgl", "universal_rational", "--precision", str(size)]
            check = ["classify_universal"]
        elif kind == "landweber_text":
            argv = ["landweber", "check", "--fgl", "multiplicative", "--primes", primes(min(13, size), 4),
                    "--max-height", "2", "--precision", str(size), "--format", "text"]
            expect = None
        elif kind == "landweber_json":
            q = rng.choice([2, 3, 5, 7])
            argv = ["landweber", "check", "--fgl", f"multiplicative-over-Z_({q})[beta]",
                    "--primes", primes(size, 3), "--max-height", "1", "--precision", str(size)]
            expect = None
        elif kind == "landweber_additive":
            argv = ["landweber", "check", "--fgl", "additive-over-Z", "--primes", primes(size, 1),
                    "--max-height", "2", "--precision", str(size)]
            expect = None
        elif kind == "landweber_file":
            argv = ["landweber", "check", "--fgl", law_file, "--module", rng.choice(["beta", "2*beta", "3"]),
                    "--primes", primes(7, 2), "--max-height", "2", "--precision", str(size)]
            expect = None
        elif kind == "lazard_hq":
            argv = ["lazard", "hq", "--max-degree", str(size)]
            check = ["passed"]
        elif kind == "lazard_hopf":
            argv = ["lazard", "hopf", "--flavor", "lazard_lb_rational", "--degree", str(size)]
            check = ["passed"]
        elif kind == "lazard_groupoid":
            argv = ["lazard", "hopf", "--flavor", "groupoid", "--objects", str(size)]
            check = ["passed"]
        elif kind == "adams_sequence":
            k = rng.choice([-3, -2, 2, 3, 5])
            argv = ["ops", "adams", "--k", str(k), "--model", "sequence", f"--window=-{size}:{size}"]
        elif kind == "adams_tower":
            k = rng.choice([-1, 1, 2, 3])
            argv = ["ops", "adams", "--k", str(k), "--model", "tower", "--depth",
                    str(rng.randint(1, 4)), "--precision", str(size)]
        elif kind in ("compose", "compose_cold"):
            a, b = rng.randint(-6, 6) or 1, rng.randint(-6, 6) or 2
            argv = ["ops", "compose", "--lhs", f"geom({a})", "--rhs", f"geom({b})", "--precision", str(size)]
            check = ["geometric", -a * b]
        elif kind == "idempotent":
            n = rng.randint(-size, size)
            argv = ["ops", "idempotent", "--n", str(n), f"--window=-{size}:{size}"]
        elif kind == "iso":
            argv = ["ops", "iso", "--input", str(self.WORK / self.TOWER_FILE), "--direction", "mult2add"]
        elif kind == "selftest" and size:
            argv = ["selftest"]
            check = ["passed"]
        elif kind == "selftest":
            argv = ["fgl", "axioms", "--fgl", rng.choice(["additive-over-Z", "multiplicative-over-Z/4[beta]"])]
            check = ["passed"]
        else:  # malformed input: must exit 2
            argv = [
                ["fgl", "pseries", "--name", "nosuch", "--k", "2"],
                ["ops", "compose", "--lhs", "geom(-2)", "--rhs", "geom(-3)", "--precision", "65"],
                ["landweber", "check", "--fgl", "multiplicative", "--primes", "101"],
                ["landweber", "check", "--fgl", "multiplicative", "--module", "beta^x"],
                ["ops", "adams", "--k", "2", "--window=8"],
            ][size]
            expect = 2
        return {"kind": "cli", "slot": kind, "argv": argv, "expect": expect, "check": check}

    def command(self, job, shim=None):
        """The child's argv: the console entry point, or a tracing shim."""
        if shim is None:
            return [sys.executable, "-c", CLI_ENTRY, *job["argv"]]
        return [sys.executable, str(self.root / "perfbench" / "cli_shim.py"), *shim, "--", *job["argv"]]

    def environment(self):
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        env.pop("FGLFORGE_PRECISION", None)
        return env

    def execute(self, job, shim=None):
        """Run the job in a fresh process; returns (rc, stdout, child peak RSS kB)."""
        argv = self.command(job, shim)
        with open(self.stderr_path, "wb") as err:
            proc = subprocess.Popen(
                argv, stdout=subprocess.PIPE, stderr=err, cwd=self.root, env=self.environment()
            )
            killed = threading.Event()

            def kill():
                killed.set()
                proc.kill()

            timer = threading.Timer(JOB_TIMEOUT_S, kill)
            timer.start()
            try:
                out = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if killed.is_set():
            return ("timeout", out, usage.ru_maxrss)
        return (proc.returncode, out, usage.ru_maxrss)

    def verify(self, job, result):
        rc, out, _ = result
        text = f"rc={rc}\n" + out.decode("utf-8", "replace")
        if rc == "timeout":
            return text, "timed out"
        expect = job["expect"]
        if expect == 2 or rc == 2:
            return text, None if rc == expect else f"exit code {rc}, expected {expect}"
        argv = job["argv"]
        if argv[-1] == "text":
            exact = out.startswith(b"exact")
            return text, None if rc == (0 if exact else 1) else f"exit {rc} disagrees with verdict"
        try:
            envelope = json.loads(out)
        except ValueError:
            return text, "stdout is not JSON"
        if envelope.get("tool") != "fgl-forge":
            return text, "missing envelope"
        result_data = envelope["result"]
        if expect is None:  # landweber: the exit code follows the verdict
            want = 0 if result_data["exact"] else 1
            return text, None if rc == want else f"exit {rc} disagrees with verdict"
        if rc != expect:
            return text, f"exit code {rc}, expected {expect}"
        return text, self._independent(job["check"], result_data)

    def _independent(self, check, data):
        if check is None:
            return None
        kind = check[0]
        if kind == "passed" and data.get("passed") is not True:
            return "reported checks failed"
        if kind == "geometric" and data.get("geometric") != check[1]:
            return f"geom() exponent {data.get('geometric')}, expected {check[1]}"
        if kind == "classify_universal":
            for name, value in data.items():
                if value != name:
                    return f"classify sends {name} to {value}"
        if kind == "pseries":
            law, k = check[1], check[2]
            coeffs = data["series"]["coeffs"]
            if law == "additive":
                want = ["0", str(k)] + ["0"] * (len(coeffs) - 2)
                if coeffs != want:
                    return "additive [k](x) is not kx"
            elif coeffs[1] != str(k) or coeffs[:1] != ["0"]:
                return f"multiplicative [k](x) does not start with {k}x"
        return None

    def properties(self, jobs):
        return {"expected_exit_2": sum(1 for j in jobs if j["expect"] == 2)}


def _histogram(values) -> dict:
    out = {}
    for v in values:
        key = str(v)
        out[key] = out.get(key, 0) + 1
    return dict(sorted(out.items()))


def make_workload(name: str, root: Path) -> Workload:
    return {"lazard": Lazard, "landweber": Landweber, "adams": Adams, "cli": Cli}[name](root)
