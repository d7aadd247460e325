"""Jones polynomial values of three-strand braid closures.

Braid words map to 2x2 unitaries through a two-projector Temperley-Lieb
representation; traces of those unitaries give the Kauffman bracket, the
normalized invariant f and Jones values of the closure.  An independent
state-sum oracle cross-checks every number, an ensemble expectation-value
quantum computer simulation estimates the traces end to end, and a pulse
compiler turns the controlled gates into verified two-spin pulse programs.

Each submodule's ``__all__`` states its public names; the package exports
all of them.  Importing the package loads no numpy: every submodule is
registered in ``sys.modules`` and bound here, but its body runs on its
first attribute access, so ``python -m braidjones`` can choose numpy's
BLAS threading before numpy loads.  Before Python 3.12 that first access
takes no lock, so a threaded program should use a name before it starts
its threads.

A package name resolves by reading each submodule's ``__all__`` in
``_SUBMODULES`` order, so it runs every submodule listed before its owner.
The numpy-free ``braid`` and ``cli`` come first: their names load no numpy.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# every submodule but the launcher, __main__, which exports no names; numpy-free first,
# then in dependency order
_SUBMODULES = ("braid", "cli", "tlrep", "nmr", "invariants", "pulses", "pathmodel")


def _lazy(name):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


for _name in _SUBMODULES:
    globals()[_name] = _lazy(_name)


def __getattr__(name):
    """A public name of a submodule, or ``__all__``, the union of theirs."""
    modules = [globals()[m] for m in _SUBMODULES]
    if name == "__all__":
        return [public for module in modules for public in module.__all__]
    for module in modules:
        if name in module.__all__:
            return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
