"""Smoke check of the benchmark itself.

    python3 perfbench/smoke.py            # check every workload
    python3 perfbench/smoke.py --write    # regenerate perfbench/digests.json

For every workload it runs the first decks of jobs of the default seed
(untimed, a fixed job count), runs each job's independent check and compares
every output with the SHA-256 committed in digests.json.  Exits 0 when every
check passes and every digest matches.  ``--write`` records the digests
instead; do that only when a change of output is intended, and say why.
"""

from __future__ import annotations

import argparse
import json
import sys
from time import perf_counter

import run as bench

DIGEST_JOBS = {"lazard": 36, "landweber": 42, "adams": 42, "cli": 27}


def main(argv=None):
    parser = argparse.ArgumentParser(description="smoke check of the benchmark")
    parser.add_argument("--write", action="store_true", help="record digests instead of checking")
    args = parser.parse_args(argv)
    if not bench.check_source():
        return 2
    committed = {} if args.write else json.loads(bench.DIGESTS.read_text())["workloads"]
    recorded = {}
    ok = True
    for name in DIGEST_JOBS:
        start = perf_counter()
        workload, stream = bench.start_workload(name, bench.DEFAULT_SEED)
        count = DIGEST_JOBS[name]
        run = bench.run_jobs(workload, stream, count, committed.get(name, ()), keep_hashes=count)
        recorded[name] = run.hashes
        problems = list(run.problems)
        if not args.write and committed.get(name) != run.hashes:
            problems.append({"problem": "outputs differ from digests.json"})
        ok = ok and not problems
        status = "ok" if not problems else "FAIL"
        print(f"{name:10s} {status:4s} {count} jobs in {perf_counter() - start:.1f} s, "
              f"sha256 {run.sha.hexdigest()[:16]}")
        for problem in problems:
            print(f"    {problem}")
    if args.write and ok:
        data = {"seed": bench.DEFAULT_SEED, "workloads": recorded}
        bench.DIGESTS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        print(f"wrote {bench.DIGESTS}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
