"""Every function the benchmark's tracer wraps must exist under its traced name.

``perfbench/traced.py`` resolves each ``TRACED_FUNCTIONS`` entry at run
time; a renamed function would otherwise surface only in a traced
benchmark run.
"""

import sys

import braidjones  # noqa: F401  (registers every submodule in sys.modules)
from braidjones.tlrep import ReprParams

def test_every_traced_function_resolves(workloads):
    names = workloads.TRACED_FUNCTIONS
    assert len(names) == 22
    for name in names:
        module_name, func = name.split(".")
        module = sys.modules[f"braidjones.{module_name}"]
        if name == "tlrep.from_theta":
            assert isinstance(ReprParams.__dict__[func], classmethod)
        else:
            assert callable(getattr(module, func, None)), name
