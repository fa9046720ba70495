"""fgl-forge benchmark: four seeded, closed-loop workloads with one client.

    python3 perfbench/run.py --workload lazard --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` (no install needed).  With ``--trace 0`` the run measures the
end-to-end metrics with tracing off: it runs the same round of jobs again and
again, each round in a fresh process, until the time is up; each job's
latency is scaled to a reference host speed and the median over its rounds
is taken.  With ``--trace 1`` it makes a traced round, an untraced round of
the same jobs and two counting runs, each in a fresh process, and reports
the per-layer metrics.  The last line of stdout is the result object; the
line before it is a report with the workload's generated properties and the
unscaled metrics.  Spans and reports are also written under ``.perfbench/``.
See perfbench/README.md for the metrics and their meaning.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from jobs import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
DIGESTS = Path(__file__).resolve().parent / "digests.json"
DEFAULT_SEED = 0
SETUP_PROBES = 11
# Times are reported for a host on which the reference kernel takes
# REFERENCE_MS, read at most every REFERENCE_EVERY_S between jobs; cli jobs,
# which are processes, use a fresh interpreter that runs the kernel instead
REFERENCE_MS, REFERENCE_EVERY_S = 2.0, 0.05
PROCESS_REFERENCE_MS, PROCESS_REFERENCE_EVERY_S = 80.0, 1.0
REFERENCE_NEAREST = 9
PHASE_TIMEOUT_S = 150


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: one phase of a run, in a fresh process
    parser.add_argument("--phase", choices=("setup", "round", "plain", "spans", "counts"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--jobs", type=int, default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def check_source():
    """The program must come from this checkout's src/, never from elsewhere."""
    if not (ROOT / "src" / "fglforge" / "__init__.py").is_file():
        print(f"perfbench: no fglforge source under {ROOT / 'src'}", file=sys.stderr)
        return False
    sys.path.insert(0, str(ROOT / "src"))
    return True


# -- running jobs ----------------------------------------------------------------------


class Run:
    """Outcome of running a stream of jobs: latencies, failures, digests."""

    def __init__(self):
        self.latencies = []
        self.failed = 0
        self.problems = []
        self.jobs = []  # inputs without the bulky ones, for the report
        self.hashes = []  # per-job SHA-256, only as far as committed digests go
        self.sha = hashlib.sha256()
        self.failed_jobs = []  # indices of the jobs that failed
        self.child_rss_kb = 0
        self.starts = []  # perf_counter() at the start of each job
        self.readings = []  # (perf_counter(), reference reading) between jobs
        self.nominal_ms = REFERENCE_MS  # the reading on the reference host

    @property
    def attempted(self):
        return len(self.latencies)


def committed_digests(workload_name, seed):
    if seed != DEFAULT_SEED or not DIGESTS.is_file():
        return []
    return json.loads(DIGESTS.read_text())["workloads"].get(workload_name, [])


def reference_kernel():
    """A fixed computation that shares no code with the program but uses the
    same parts of the interpreter: Fraction and integer arithmetic, lists and
    dicts keyed by tuples."""
    a = [Fraction(1, k + 1) for k in range(16)]
    b = [Fraction((-1) ** k, 2 * k + 1) for k in range(16)]
    series = [sum(a[i] * b[n - i] for i in range(n + 1)) for n in range(16)]
    p = {(i, j): 7 * i + j for i in range(8) for j in range(8)}
    product = {}
    for (i, j), u in p.items():
        for (k, m), v in p.items():
            product[i + k, j + m] = product.get((i + k, j + m), 0) + u * v
    return series, product


def reference_ms():
    """Time of the reference kernel: a reading of how fast the host runs at
    the moment, whatever the program does."""
    start = perf_counter()
    reference_kernel()
    return 1000 * (perf_counter() - start)


def process_reference_ms():
    """Wall time of a fresh interpreter that imports the benchmark's modules
    and runs the reference kernel: the reading for jobs that are processes."""
    here = str(Path(__file__).resolve().parent)
    code = f"import sys; sys.path.insert(0, {here!r}); import run; run.reference_kernel()"
    start = perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True)
    return 1000 * (perf_counter() - start)


def host_scale(readings, start, seconds, nominal_ms=REFERENCE_MS):
    """nominal_ms over the median of the REFERENCE_NEAREST reference readings
    taken nearest in time to an interval."""
    middle = start + seconds / 2
    nearest = sorted(readings, key=lambda reading: abs(reading[0] - middle))[:REFERENCE_NEAREST]
    return nominal_ms / statistics.median(ms for _, ms in nearest)


def run_jobs(workload, stream, count, expected=(), recorder=None, child=None, keep_hashes=0):
    """Closed loop, one client: the next job starts when the previous one and
    its (untimed) check are done.  Stops after count jobs.  Outputs are
    compared with the expected per-job digests, as far as given."""
    from jobs import BULKY_INPUTS

    run = Run()
    last_reading = None
    index = 0
    reading, every = reference_ms, REFERENCE_EVERY_S
    if workload.name == "cli":
        reading, every, run.nominal_ms = process_reference_ms, PROCESS_REFERENCE_EVERY_S, PROCESS_REFERENCE_MS
    while index < count:
        now = perf_counter()
        if last_reading is None or now - last_reading >= every:
            run.readings.append((now, reading()))
            last_reading = now
        job = stream.next()
        extra = () if child is None else (child.shim(),)
        if recorder is not None:
            recorder.job = index
        start = perf_counter()
        result = workload.execute(job, *extra)
        elapsed = perf_counter() - start
        if recorder is not None:
            recorder.job = None
        if child is not None:
            child.collect(index)
        if workload.name == "cli":
            run.child_rss_kb = max(run.child_rss_kb, result[2])
        text, problem = workload.verify(job, result)
        digest = hashlib.sha256(text.encode()).hexdigest()
        if problem is None and index < len(expected) and digest != expected[index]:
            problem = "output differs from the committed digest"
        if problem is not None:
            run.failed += 1
            run.failed_jobs.append(index)
            run.problems.append({"job": index, "kind": job.get("slot", job["kind"]), "problem": problem})
        run.latencies.append(elapsed)
        run.starts.append(start)
        run.sha.update(digest.encode())
        if index < max(len(expected), keep_hashes):
            run.hashes.append(digest)
        run.jobs.append({k: v for k, v in job.items() if k not in BULKY_INPUTS})
        index += 1
    run.readings.append((perf_counter(), reading()))
    return run


def start_workload(name, seed):
    from jobs import JobStream, make_workload

    workload = make_workload(name, ROOT)
    workload.setup()
    stream = JobStream(workload, seed)
    stream.prefetch(workload.round_jobs())
    return workload, stream


# -- child phases ------------------------------------------------------------------------


def child(args, phase, jobs=None):
    """Run one phase in a fresh interpreter; returns its JSON summary."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--phase", phase]
    if jobs is not None:
        argv += ["--jobs", str(jobs)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=PHASE_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"phase {phase} exited {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def phase_setup(args):
    start = perf_counter()
    start_workload(args.workload, args.seed)
    return {"setup_s": perf_counter() - start}


def summary(run):
    return {
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems[:20],
        "scaled_job_time": sum(t * host_scale(run.readings, s, t, run.nominal_ms)
                               for t, s in zip(run.latencies, run.starts)),
        "digest": run.sha.hexdigest(),
    }


def phase_round(args):
    """The round's jobs, once each; every round starts with the program's
    caches as cold as a fresh process has them."""
    workload, stream = start_workload(args.workload, args.seed)
    count = workload.round_jobs()
    run = run_jobs(workload, stream, count, committed_digests(args.workload, args.seed), keep_hashes=count)
    rss_kb = run.child_rss_kb if workload.name == "cli" else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {**summary(run), "latencies": run.latencies, "hashes": run.hashes, "jobs": run.jobs,
            "failed_jobs": run.failed_jobs, "rss_kb": rss_kb, "starts": run.starts,
            "readings": run.readings, "nominal_ms": run.nominal_ms}


def phase_plain(args):
    workload, stream = start_workload(args.workload, args.seed)
    run = run_jobs(workload, stream, args.jobs, committed_digests(args.workload, args.seed))
    return summary(run)


class ChildRecorder:
    """Stands in for a recorder when each job is a child process (``cli``):
    the shim there records and writes a side file, merged here per job."""

    def __init__(self, mode, rec):
        self.mode = mode
        self.rec = rec
        self.side = OUT / "work" / f"shim-{mode}.json"

    def shim(self):
        return [self.mode, str(self.side)]

    def collect(self, index):
        data = json.loads(self.side.read_text())
        self.side.unlink()
        if self.mode == "counts":
            for key, value in data.items():
                self.rec.bump(key, value)
            return
        offset = len(self.rec.spans)
        for name, start, end, parent, _, tag in data:
            self.rec.spans.append([name, start, end, parent + offset if parent >= 0 else -1, index, tag])


def recorded_run(args, rec, mode):
    workload, stream = start_workload(args.workload, args.seed)
    expected = committed_digests(args.workload, args.seed)
    if workload.name == "cli":
        return run_jobs(workload, stream, args.jobs, expected, child=ChildRecorder(mode, rec))
    rec.install()
    return run_jobs(workload, stream, args.jobs, expected, recorder=rec)


def phase_spans(args):
    import tracer

    rec = tracer.Spans()
    run = recorded_run(args, rec, "spans")
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl", "w") as handle:
        for span in rec.spans:
            handle.write(json.dumps(span) + "\n")
    out = summary(run)
    out["span_metrics"] = span_metrics(rec.spans, run.attempted)
    out["span_count"] = len(rec.spans)
    return out


def phase_counts(args):
    import tracer

    rec = tracer.Counts()
    run = recorded_run(args, rec, "counts")
    out = summary(run)
    out["counts"] = rec.counts
    return out


PHASES = {"setup": phase_setup, "round": phase_round, "plain": phase_plain, "spans": phase_spans,
          "counts": phase_counts}


# -- metrics --------------------------------------------------------------------------------

SELF_TIME_METRICS = [
    "rings.decide",
    "series.mul",
    "series.compose",
    "series.revert",
    "series.inverse",
    "series.substitute_pair",
    "fgl.check_axioms",
    "fgl.from_logarithm",
    "fgl.logarithm",
    "fgl.formal_inverse",
    "fgl.n_series",
    "hopf.build",
    "hopf.axiom_check",
    "hopf.dual_compose",
    "hopf.hq_check",
    "landweber.check",
    "adams.transform",
    "adams.tower",
    "adams.iso",
    "expressions.parse",
    "expressions.print",
    "iojson.encode",
]

# per-layer count metric -> key in the counting run
COUNT_METRICS = {
    "rings.decide_calls": "rings.decide",
    "rings.elem_add_count": "rings.elem_add",
    **{f"rings.elem_mul_count.{f}": f"rings.elem_mul.{f}" for f in (
        "integers", "rationals", "integers_mod", "p_local", "laurent", "quotient", "graded", "function")},
    "series.mul_count": "series.mul",
    "series.compose_count": "series.compose",
    "series.revert_count": "series.revert",
    "series.inverse_count": "series.inverse",
    "series.substitute_pair_count": "series.substitute_pair",
    "fgl.n_series_count": "fgl.n_series",
    "fgl.v_coefficient_count": "fgl.v_coefficient",
    "gradedpoly.elem_mul_count": "gradedpoly.elem_mul",
    "gradedpoly.term_pairs": "gradedpoly.term_pairs",
    "hopf.delta_basis_count": "hopf.delta_basis",
    "hopf.g_mul_count": "hopf.g_mul",
    "landweber.stage_count": "landweber.check.tag",
    "iojson.bytes": "iojson.encode.tag",
}


def span_metrics(spans, jobs):
    import tracer

    selfs = tracer.self_times(spans)
    total = {}
    for span, own in zip(spans, selfs):
        total[span[0]] = total.get(span[0], 0.0) + own
    out = {f"{name}_s": total.get(name, 0.0) / max(jobs, 1) for name in SELF_TIME_METRICS}
    cold = [s[2] - s[1] for s in spans if s[0] == "adams.circ_compose" and s[5] == "cold"]
    warm = [s[2] - s[1] for s in spans if s[0] == "adams.circ_compose" and s[5] == "warm"]
    out["adams.circ_compose_cold_s"] = statistics.fmean(cold) if cold else 0.0
    out["adams.circ_compose_warm_s"] = statistics.fmean(warm) if warm else 0.0
    out["adams.cold_share"] = len(cold) / (len(cold) + len(warm)) if cold or warm else 0.0
    # a check that raised (an expected Unsupported, say) has no stage count
    checks = [s for s in spans if s[0] == "landweber.check" and s[5] is not None]
    stages = sum(s[5] for s in checks)
    out["landweber.s_per_stage"] = sum(s[2] - s[1] for s in checks) / stages if stages else 0.0
    return out


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_rounds(args):
    """Rounds of the same jobs, each in a fresh process, until the next round
    would end past --seconds (at least one).  Returns the rounds and
    their wall times."""
    deadline = perf_counter() + args.seconds
    rounds, walls = [], []
    while not rounds or perf_counter() + walls[-1] <= deadline:
        start = perf_counter()
        rounds.append(child(args, "round"))
        walls.append(perf_counter() - start)
    return rounds, walls


def measure_setup(args):
    """Set-up times of fresh interpreters, each scaled by the reference
    readings taken just before and after it; returns (scaled, unscaled)."""
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        readings = [(perf_counter(), reference_ms()) for _ in range(3)]
        start = perf_counter()
        seconds = child(args, "setup")["setup_s"]
        wall = perf_counter() - start
        readings += [(perf_counter(), reference_ms()) for _ in range(3)]
        raw.append(seconds)
        scaled.append(seconds * host_scale(readings, start, wall))
    return scaled, raw


def measure(args):
    """--trace 0: set-up probes, then rounds.

    A shared host can run for a minute at a time at speeds up to 1.7 times
    apart (measured on a shared 2-vCPU cloud VM), so each time is scaled to
    a reference host by the reference readings taken around it (see
    REFERENCE_MS).  A job's latency is then the median over its rounds,
    which drops the spikes that remain on either side (a slow job, or a slow
    reading beside it)."""
    from jobs import make_workload

    setups, setups_raw = measure_setup(args)
    rounds, walls = run_rounds(args)
    first = rounds[0]
    scaled = [[t * host_scale(r["readings"], s, t, r["nominal_ms"])
               for t, s in zip(r["latencies"], r["starts"])] for r in rounds]
    latencies = [statistics.median(times) for times in zip(*scaled)]
    raw = [statistics.median(times) for times in zip(*(r["latencies"] for r in rounds))]
    failed_jobs = {i for r in rounds for i in r["failed_jobs"]}
    failed = sum(len(r["failed_jobs"]) for r in rounds)
    problems = [p for r in rounds for p in r["problems"]]
    for number, r in enumerate(rounds[1:], 1):
        for index, (a, b) in enumerate(zip(first["hashes"], r["hashes"])):
            if a != b and index not in r["failed_jobs"]:
                failed += 1
                failed_jobs.add(index)
                problems.append({"job": index, "round": number, "problem": "output differs from round 0"})
    attempted = sum(r["attempted"] for r in rounds)
    p90 = percentile(latencies, 90)
    metrics = {
        "jobs_per_s": ((len(latencies) - len(failed_jobs)) / sum(latencies), "1/s"),
        "job_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "job_p90_ms": (1000 * p90, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (max(r["rss_kb"] for r in rounds) / 1024, "MB"),
    }
    expected = committed_digests(args.workload, args.seed)
    report = {
        "samples": len(latencies),
        "rounds": len(rounds),
        "round_wall_s": walls,
        "round_reference_ms": [statistics.median(ms for _, ms in r["readings"]) for r in rounds],
        "unscaled": {"jobs_per_s": (len(raw) - len(failed_jobs)) / sum(raw),
                     "job_p50_ms": 1000 * statistics.median(raw),
                     "job_p90_ms": 1000 * percentile(raw, 90), "setup_s": statistics.median(setups_raw)},
        "beyond_p90": sum(1 for v in latencies if v > p90),
        "failed_job_ratio": failed / attempted,
        "setup_probes_s": setups,
        "output_sha256": first["digest"],
        "committed_digest_jobs": min(len(expected), len(latencies)),
        "properties": properties(make_workload(args.workload, ROOT), first["jobs"], latencies),
        "problems": problems[:20],
    }
    return attempted, failed, failed == 0, metrics, report


def properties(workload, jobs, latencies):
    by_kind = {}
    for job, latency in zip(jobs, latencies):
        by_kind.setdefault(workload.label(job), []).append(latency)
    return {
        "round_jobs": len(jobs),
        "job_mix": {kind: len(v) for kind, v in sorted(by_kind.items())},
        "kind_p50_ms": {kind: 1000 * statistics.median(v) for kind, v in sorted(by_kind.items())},
        **workload.properties(jobs),
    }


def fresh_interpreter(code):
    """Run code in a fresh interpreter; returns (wall seconds, stdout)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = perf_counter()
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    return perf_counter() - start, done.stdout


def interpreter_start_ms():
    """Median wall time of a bare `python -c pass`."""
    return statistics.median(1000 * fresh_interpreter("pass")[0] for _ in range(SETUP_PROBES))


def import_ms():
    """Median time of `import fglforge.cli` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import fglforge.cli; print(time.perf_counter() - t)"
    return statistics.median(1000 * float(fresh_interpreter(code)[1]) for _ in range(SETUP_PROBES))


def traced(args):
    """--trace 1: a traced round, an untraced round of the same jobs and two
    counting runs, each in a fresh process."""
    from jobs import make_workload

    workload = make_workload(args.workload, ROOT)
    count_jobs = workload.COUNT_JOBS
    spans = child(args, "spans", jobs=workload.round_jobs())
    plain = child(args, "plain", jobs=workload.round_jobs())
    counts = [child(args, "counts", jobs=count_jobs) for _ in range(2)]
    repeat = counts[0]["counts"] == counts[1]["counts"]
    raw = counts[0]["counts"]
    metrics = {name: (value, unit_of(name)) for name, value in spans["span_metrics"].items()}
    for name, key in COUNT_METRICS.items():
        metrics[name] = (raw.get(key, 0) / count_jobs, "count/job")
    metrics["cli.interpreter_start_ms"] = (interpreter_start_ms(), "ms")
    metrics["cli.import_ms"] = (import_ms(), "ms")
    metrics["trace.overhead_ratio"] = (spans["scaled_job_time"] / plain["scaled_job_time"], "ratio")
    phases = [spans, plain, *counts]
    problems = [p for ph in phases for p in ph["problems"]]
    if not repeat:
        problems.append({"problem": "counts differ between two counting runs of one seed"})
    if plain["digest"] != spans["digest"]:
        problems.append({"problem": "traced and untraced runs gave different outputs"})
    report = {
        "traced_jobs": spans["attempted"],
        "span_count": spans["span_count"],
        "counted_jobs": count_jobs,
        "counts_repeat_exactly": repeat,
        "raw_counts": raw,
        "problems": problems[:20],
    }
    attempted = sum(ph["attempted"] for ph in phases)
    failed = sum(ph["failed"] for ph in phases)
    return attempted, failed, not problems, metrics, report


def unit_of(name):
    if name == "adams.cold_share":
        return "ratio"
    if name == "landweber.s_per_stage":
        return "s/stage"
    if name.startswith("adams.circ_compose_"):
        return "s/call"
    return "s/job"


def main(argv=None):
    args = parse_args(argv)
    if not check_source():
        return 2
    if args.phase is not None:
        print(json.dumps(PHASES[args.phase](args)))
        return 0
    attempted, failed, correct, metrics, report = (traced if args.trace else measure)(args)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, **report}
    OUT.mkdir(exist_ok=True)
    (OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"report": report}, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
