"""What the test modules share: the repository's paths, a loader for its scripts, the
CLI's subprocess environment, the admissible set's gaps and the seeded samplers.

Importing this module puts ``src`` first on ``sys.path``, so the tests run
from a plain checkout as well as from an installed package.
"""

import importlib.util
import math
import os
import pkgutil
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import numpy as np  # noqa: E402  (after the path: braidjones must come from src)

import braidjones  # noqa: E402
from braidjones.tlrep import ADMISSIBLE_INTERVALS  # noqa: E402

# every submodule but the launcher, which exports no names and is not registered
SUBMODULES = sorted(
    m.name for m in pkgutil.iter_modules(braidjones.__path__) if m.name != "__main__"
)

# the open gaps between the admissible intervals, written from pi rather than read
# from ADMISSIBLE_INTERVALS
GAPS = (
    (math.pi / 6, math.pi / 3),
    (2 * math.pi / 3, 5 * math.pi / 6),
    (7 * math.pi / 6, 4 * math.pi / 3),
    (5 * math.pi / 3, 11 * math.pi / 6),
)


def load_script(path):
    """The module a repository script defines, loaded from ``path`` under its file stem."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    # a dataclass looks its module up in sys.modules while its class body runs
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def cli_env():
    """This process's environment with ``src`` first on ``PYTHONPATH``, for a CLI subprocess."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def random_unitary(rng, dim):
    """A Haar-random ``dim`` x ``dim`` unitary from the numpy generator ``rng``."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_admissible(rng):
    """An angle uniform in an admissible interval that ``rng`` picks uniformly."""
    lo, hi = ADMISSIBLE_INTERVALS[int(rng.integers(len(ADMISSIBLE_INTERVALS)))]
    return float(rng.uniform(lo, hi))


def random_word_text(seed, length):
    """``length`` three-strand letters drawn by ``random.Random(seed)``, as braid text."""
    return " ".join(random.Random(seed).choices(("s1", "s2", "s1^-1", "s2^-1"), k=length))
