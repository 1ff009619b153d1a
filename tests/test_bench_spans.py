"""The benchmark's named spans name functions that exist in qnav.

The benchmark's tracer finds its per-layer spans by name (for example
``env.build_observation`` for ``env.observation_us_p50``); a name that no
longer resolves silently reads 0. ``bench/workloads.py`` is only read here,
not imported.
"""

import ast
import importlib
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def named_spans() -> tuple:
    """NAMED_SPANS as bench/workloads.py defines it, from the module-level
    assignments of string tuples it is built from."""
    namespace: dict = {}
    for node in ast.parse(WORKLOADS.read_text()).body:
        if isinstance(node, ast.Assign) and all(isinstance(t, ast.Name) for t in node.targets):
            try:
                value = eval(compile(ast.Expression(node.value), str(WORKLOADS), "eval"),
                             {"__builtins__": {}}, dict(namespace))
            except NameError:  # built from something other than the span tuples
                continue
            if isinstance(value, tuple) and all(isinstance(v, str) for v in value):
                namespace.update((t.id, value) for t in node.targets)
    return namespace["NAMED_SPANS"]


def test_every_named_span_resolves_to_a_qnav_function():
    names = named_spans()
    assert "planner.cross_track_error" in names and "agent.ActorCriticModel.trunk_forward" in names
    for name in names:
        module, *attrs = name.split(".")
        obj = importlib.import_module(f"qnav.{module}")
        for attr in attrs:
            obj = getattr(obj, attr)
        assert callable(obj), name
        assert not any(part.startswith("_") for part in attrs), name
