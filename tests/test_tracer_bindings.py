"""Every function the benchmark's tracer wraps still exists in the program.

perfbench/tracer.py wraps fglforge functions and methods by name and skips a
name that binds nothing, so a rename would silently drop a layer from the
traced metrics.  This test asks its own resolver for each name.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import fglforge

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves_to_a_binding():
    for info in pkgutil.iter_modules(fglforge.__path__):
        importlib.import_module(f"fglforge.{info.name}")
    tracer = _load_tracer()
    unbound = []
    for targets in (tracer.SPAN_TARGETS, tracer.HOT_TARGETS):
        for metric, entries in targets.items():
            for module_name, attr in entries:
                try:
                    bound = any(True for _ in tracer._resolve(module_name, attr))
                except AttributeError:
                    bound = False
                if not bound:
                    unbound.append((metric, module_name, attr))
    assert unbound == []
