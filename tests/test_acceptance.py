"""Acceptance suite: every criterion at its stated tolerance (exact, i.e.
tolerance zero) and time bound, one pass/fail line per criterion.

Criteria 1-9 run through the same library functions as `fglforge selftest`;
criterion 10 compares two separate CLI processes byte for byte.
"""

import hashlib
import subprocess
import sys
import time

from fglforge.selftest import (
    criterion_adams_relations,
    criterion_composition_ring,
    criterion_conner_floyd,
    criterion_determinism,
    criterion_fgl_axioms,
    criterion_hopf_suite,
    criterion_hq_idempotence,
    criterion_landweber_table,
    criterion_nseries_closed_form,
    criterion_transform_suite,
)


def _run(criterion, limit=None):
    start = time.monotonic()
    result = criterion()
    elapsed = time.monotonic() - start
    status = "PASS" if result["passed"] else "FAIL"
    print(f"[{status}] criterion {result['id']:2d}: {result['name']} ({elapsed:.2f}s)")
    assert result["passed"], result["details"]
    if limit is not None:
        assert elapsed < limit, f"criterion {result['id']} took {elapsed:.2f}s (limit {limit}s)"
    return result


def test_criterion_1_fgl_axiom_suite():
    _run(criterion_fgl_axioms, limit=10.0)


def test_criterion_2_conner_floyd_classification():
    _run(criterion_conner_floyd, limit=10.0)


def test_criterion_3_nseries_closed_form():
    _run(criterion_nseries_closed_form)


def test_criterion_4_composition_ring_suite():
    _run(criterion_composition_ring, limit=30.0)


def test_criterion_5_transform_suite():
    _run(criterion_transform_suite)


def test_criterion_6_adams_relations():
    _run(criterion_adams_relations)


def test_criterion_7_landweber_verdict_table():
    _run(criterion_landweber_table, limit=30.0)


def test_criterion_8_hq_idempotence():
    _run(criterion_hq_idempotence, limit=60.0)


def test_criterion_9_hopf_suite():
    _run(criterion_hopf_suite)


def test_criterion_10_cli_selftest_byte_identical():
    # the subprocess runs under this interpreter's -O and -X dev, so that a
    # test run under those flags checks the pinned bytes under them too
    flags = ["-O"] * sys.flags.optimize + (["-X", "dev"] if sys.flags.dev_mode else [])
    runs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "fglforge.cli", "selftest"],
            capture_output=True,
            timeout=600,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        runs.append(proc.stdout)
    identical = runs[0] == runs[1]
    status = "PASS" if identical else "FAIL"
    print(f"[{status}] criterion 10: selftest exits 0 with byte-identical JSON")
    assert identical
    # the bytes themselves are pinned: a change to any emitted value fails here
    assert hashlib.sha256(runs[0]).hexdigest() == (
        "e7cdab7a619f5f48b0a62acaa75caf05dafb8158989225f8f8b1a4ffc76d53bb"
    )
    # the in-process determinism criterion is part of the emitted suite too
    result = criterion_determinism()
    assert result["passed"]
