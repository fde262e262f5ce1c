"""The benchmark's tracer wraps hatlab functions that it looks up by name;
a renamed or deleted one would fail only in a traced benchmark run.  The
tracer's source is read, never written, and runs nothing of hatlab."""

import importlib
import pathlib
import types

TRACING = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    module = types.ModuleType("tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_tracer_names_exist():
    # besides TRACED, Tracer.install looks up these two by name
    names = [(mod, fn) for mod, fn, _, _ in _tracing().TRACED]
    names += [("roots", "sturm_sequence"), ("indpoly", "z_corner_evaluator")]
    missing = [
        f"{mod}.{fn}" for mod, fn in names
        if not callable(getattr(importlib.import_module(f"hatlab.{mod}"), fn, None))
    ]
    assert not missing
