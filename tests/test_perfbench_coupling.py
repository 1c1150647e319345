"""Every callable that perfbench's tracer wraps still exists in the package.

The benchmark's tracer (perfbench/tracer.py) names the functions and
methods it wraps by module and attribute path.  A rename in the package
would otherwise show only in the slow perfbench tests; this test loads
the tracer by path, without installing anything, and resolves each name.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_to_a_package_callable():
    tracer = load_tracer()
    assert tracer.TRACED
    unresolved = []
    for metric, module_name, path in tracer.TRACED:
        owner = importlib.import_module(f"{tracer.PACKAGE}.{module_name}")
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner) or not owner.__module__.startswith(tracer.PACKAGE):
            unresolved.append((metric, module_name, path))
    assert unresolved == []
