"""Run one fglforge CLI command with tracing installed, in place of the
console entry point.

    python3 perfbench/cli_shim.py spans|counts SIDE_FILE -- <fglforge arguments>

Stdout, stderr and the exit code are the command's own.  The spans or counts
recorded during the command are written to SIDE_FILE as JSON.
"""

from __future__ import annotations

import json
import sys

import jobs
import tracer


def main(argv):
    mode, side_file, sep, *command = argv
    if sep != "--" or mode not in ("spans", "counts"):
        print("usage: cli_shim.py spans|counts SIDE_FILE -- ARGS...", file=sys.stderr)
        return 2
    program = jobs.load_program()
    rec = tracer.Spans() if mode == "spans" else tracer.Counts()
    rec.install()
    rec.job = 0
    try:
        rc = program["cli"].run_command(command)
    finally:
        rec.job = None
        sys.stdout.flush()
        with open(side_file, "w") as handle:
            json.dump(rec.spans if mode == "spans" else rec.counts, handle)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
