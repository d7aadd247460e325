"""The start-up contract: a numpy-free package import and one launcher.

``import braidjones`` registers every submodule without running it, so the
launcher can set ``OPENBLAS_NUM_THREADS`` before numpy loads.  Each check
runs in a fresh interpreter, where nothing has loaded numpy yet.
"""

import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import braidjones

ROOT = Path(__file__).resolve().parents[1]
# the launcher is the one submodule the package does not register
SUBMODULES = sorted(
    m.name for m in pkgutil.iter_modules(braidjones.__path__) if m.name != "__main__"
)

# records the variable as numpy's import starts, and so as OpenBLAS reads it
NUMPY_PROBE = """
import os, sys
seen = []
class Probe:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
sys.meta_path.insert(0, Probe())
"""


def _python(code, **env):
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    base["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + base.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", code], env={**base, **env}, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()[-1]


def test_import_loads_no_numpy_and_registers_every_submodule():
    last = _python(
        "import sys, braidjones\n"
        "print('numpy' in sys.modules, sorted(n for n in sys.modules if n.startswith('braidjones.')))"
    )
    assert last == f"False {[f'braidjones.{name}' for name in SUBMODULES]}"


def test_importing_the_launcher_loads_no_numpy():
    assert _python("import sys, braidjones.__main__\nprint('numpy' in sys.modules)") == "False"


@pytest.mark.parametrize("env, threads", [({}, "1"), ({"OPENBLAS_NUM_THREADS": "3"}, "3")])
def test_launcher_sets_single_threaded_blas_unless_the_user_did(env, threads):
    last = _python(
        NUMPY_PROBE + "from braidjones.__main__ import main\n"
        "status = main(['angles', '--theta-deg', '15', '--which', '1'])\n"
        "print(status, seen, os.environ['OPENBLAS_NUM_THREADS'])",
        **env,
    )
    assert last == f"0 [{threads!r}] {threads}"


def test_importing_cli_leaves_the_environment_alone():
    last = _python(
        "import os, sys\n"
        "before = dict(os.environ)\n"
        "import braidjones.cli\n"
        "braidjones.cli.main\n"
        "print('numpy' in sys.modules, dict(os.environ) == before)"
    )
    assert last == "True True"


def test_console_script_runs_the_launcher():
    text = (ROOT / "pyproject.toml").read_text()
    (section,) = re.findall(r"^\[project\.scripts\]\n(.*?)(?:^\[|\Z)", text, re.M | re.S)
    assert section.split() == ["braidjones", "=", '"braidjones.__main__:main"']
