"""Every function the benchmark's tracer wraps must exist under its traced name.

``perfbench/traced.py`` resolves each ``TRACED_FUNCTIONS`` entry at run
time; a renamed function would otherwise surface only in a traced
benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import braidjones  # noqa: F401  (loads every submodule)
from braidjones.tlrep import ReprParams

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _traced_functions():
    spec = importlib.util.spec_from_file_location("workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # the module's dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.TRACED_FUNCTIONS


def test_every_traced_function_resolves():
    names = _traced_functions()
    assert len(names) == 22
    for name in names:
        module_name, func = name.split(".")
        module = sys.modules[f"braidjones.{module_name}"]
        if name == "tlrep.from_theta":
            assert isinstance(ReprParams.__dict__[func], classmethod)
        else:
            assert callable(getattr(module, func, None)), name
