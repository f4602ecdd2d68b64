"""The benchmark's tracer (perfbench/tracing.py) wraps lorentz21's
functions and methods by name; every name it lists must still resolve,
so a refactor that drops or renames one fails here rather than only in
a traced benchmark run."""

import importlib
import importlib.util
import os

TRACING = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench",
                       "tracing.py")


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = [(module, attr) for targets in tracing.SPANS.values() for module, attr, _ in targets]
    names += [(module, attr) for module, attr, _ in tracing.COUNTERS] + list(tracing._BEFORE)
    assert names
    for module, attr in names:
        obj = importlib.import_module("lorentz21." + module)
        for part in attr.split("."):
            assert hasattr(obj, part), "lorentz21.%s.%s is gone" % (module, attr)
            obj = getattr(obj, part)
        assert callable(obj), "lorentz21.%s.%s is not callable" % (module, attr)
