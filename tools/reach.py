"""List every `def` in src/ that the tier-1 tests never enter.

    python tools/reach.py

Runs the tier-1 suite (`python -m pytest -q --continue-on-collection-errors`
from the repository root, with src/ on PYTHONPATH) under a profiler, then
walks src/ with `ast` and prints each function definition that no traced
process entered.  The profiler is a generated `sitecustomize` module in a
temporary directory put first on PYTHONPATH, so every Python process the
tests start (the CLI runs in subprocesses) is traced as well: each records the
code objects it enters through `sys.setprofile` and `threading.setprofile`
and writes their (file, first line) pairs when it exits.

Exits 0 when every definition but the CoefficientRing interface defaults in
INTERFACE is entered and the tests pass, and 1 otherwise.  A process that
leaves through `os._exit` or a signal writes nothing, so what only such a
process enters is listed as unreached.  The standard library is all it needs.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# The CoefficientRing methods that raise NotImplementedError, and the
# identity _canonical, which every ring class overrides: the interface, not
# code a test can enter.
INTERFACE = frozenset(
    {
        "rings.py:CoefficientRing._canonical",
        "rings.py:CoefficientRing.from_int",
        "rings.py:CoefficientRing._add",
        "rings.py:CoefficientRing._neg",
        "rings.py:CoefficientRing._mul",
        "rings.py:CoefficientRing._is_zero",
        "rings.py:CoefficientRing.is_unit",
        "rings.py:CoefficientRing.invert",
    }
)

# Written into the temporary sitecustomize.py; {out} is the directory that
# collects one JSON file per traced process.  It imports nothing that the
# tests check is absent from a fresh CLI process, and prints nothing.
PROBE = '''\
import atexit, json, os, sys, threading

_codes = set()


def _profile(frame, event, arg, _add=_codes.add):
    if event == "call":
        _add(frame.f_code)


def _write():
    sys.setprofile(None)
    entered = sorted({{(c.co_filename, c.co_firstlineno) for c in _codes}})
    path = os.path.join({out!r}, "%d.json" % os.getpid())
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(entered, fh)


atexit.register(_write)
threading.setprofile(_profile)
sys.setprofile(_profile)
'''


def definitions():
    """Yield (file, qualified name, lines) for every def under src; lines
    holds the def line and the first decorator's, either of which a code
    object's co_firstlineno may carry depending on the Python version."""
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        stack = [(tree, "")]
        while stack:
            node, prefix = stack.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    name = prefix + child.name
                    if not isinstance(child, ast.ClassDef):
                        lines = {child.lineno} | {d.lineno for d in child.decorator_list[:1]}
                        yield path.resolve(), name, lines
                    stack.append((child, name + "."))
                else:
                    stack.append((child, prefix))


def run_traced(out: Path) -> int:
    """Run tier-1 with the probe installed; returns pytest's exit status."""
    site = out / "site"
    site.mkdir()
    records = out / "records"
    records.mkdir()
    (site / "sitecustomize.py").write_text(PROBE.format(out=str(records)), encoding="utf-8")
    path = [str(site), str(SRC), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
    return subprocess.run(cmd, cwd=ROOT, env=env).returncode


def entered_lines(records: Path) -> set:
    entered = set()
    for record in records.glob("*.json"):
        with open(record, encoding="utf-8") as fh:
            entered.update((str(Path(f).resolve()), line) for f, line in json.load(fh))
    return entered


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        status = run_traced(Path(tmp))
        entered = entered_lines(Path(tmp) / "records")
    missed, labels, total = [], set(), 0
    for path, name, lines in definitions():
        total += 1
        label = f"{path.name}:{name}"
        labels.add(label)
        if label not in INTERFACE and not any((str(path), line) in entered for line in lines):
            missed.append(f"{path.relative_to(ROOT)}:{min(lines)} {name}")
    # an exemption whose def is gone would hide a def of that name added later
    missed += [f"{label} is exempt but is no def in src/" for label in sorted(INTERFACE - labels)]
    print(f"reach: {total} defs in src/, {len(INTERFACE)} interface defaults exempt, "
          f"{len(missed)} findings")
    for line in missed:
        print(f"  {line}")
    if status != 0:
        print(f"reach: the tests exited {status}")
    return 1 if missed or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
