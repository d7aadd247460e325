"""The start-up contract: a numpy-free package import and front end, and one launcher.

``import braidjones`` registers every submodule without running it, so the
launcher can set ``OPENBLAS_NUM_THREADS`` before numpy loads.  ``--help``
and the parse-time refusals load no numpy at all.  Each check runs in a
fresh interpreter, where nothing has loaded numpy yet.
"""

import re
import subprocess
import sys

import pytest

from helpers import ROOT, SUBMODULES, cli_env

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
    base = {k: v for k, v in cli_env().items() if k != "OPENBLAS_NUM_THREADS"}
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


# a package name runs every submodule listed before its owner; braid and cli come first
@pytest.mark.parametrize(
    "name", ["parse_braid", "preset", "PRESETS", "CSV_COLUMNS", "SweepRecord", "main"]
)
def test_the_names_of_braid_and_cli_load_no_numpy(name):
    last = _python(f"import sys, braidjones\nbraidjones.{name}\nprint('numpy' in sys.modules)")
    assert last == "False"


def test_importing_the_launcher_loads_no_numpy():
    assert _python("import sys, braidjones.__main__\nprint('numpy' in sys.modules)") == "False"


# cli binds its numerical layers lazily, so numpy loads inside each command's handler
@pytest.mark.parametrize("env, threads", [({}, "1"), ({"OPENBLAS_NUM_THREADS": "3"}, "3")])
def test_launcher_sets_single_threaded_blas_unless_the_user_did(env, threads):
    for argv in (
        ["angles", "--theta-deg", "15", "--which", "1"],
        ["sweep", "--preset", "trefoil", "--theta-max-deg", "2", "--epsilon", "1e-3"],
        ["compile", "--theta-deg", "15", "--which", "2", "--inverse"],
    ):
        last = _python(
            NUMPY_PROBE + "import contextlib, io\n"
            "from braidjones.__main__ import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    status = main({argv!r})\n"
            "print(status, seen, os.environ['OPENBLAS_NUM_THREADS'])",
            **env,
        )
        assert last == f"0 [{threads!r}] {threads}", argv


# --help exits through SystemExit, a refusal returns
@pytest.mark.parametrize(
    "argv, status",
    [
        (["--help"], 0),
        (["sweep", "--help"], 0),
        (["sweep", "--preset", "trefoil", "--epsilon"], 2),
        (["sweep", "--braid", "s9"], 2),
        (["sweep", "--preset", "trefoil", "--theta-min-deg", "inf"], 2),
    ],
    ids=["help", "sweep-help", "argparse-refusal", "braid-refusal", "theta-refusal"],
)
def test_help_and_parse_time_refusals_load_no_numpy(argv, status):
    last = _python(
        "import contextlib, io, sys\n"
        "from braidjones.__main__ import main\n"
        "try:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        f"        status = main({argv!r})\n"
        "except SystemExit as exc:\n"
        "    status = exc.code\n"
        "print(status, 'numpy' in sys.modules)"
    )
    assert last == f"{status} False"


def test_a_noisy_sweep_loads_numpy_random_only_if_numpy_does():
    # numpy before 2 imports numpy.random with numpy itself; numpy 2 imports it lazily
    numpy_loads_it = _python("import sys, numpy\nprint('numpy.random' in sys.modules)")
    last = _python(
        "import contextlib, io, sys\n"
        "from braidjones.__main__ import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    status = main(['sweep', '--preset', 'trefoil', '--epsilon', '1e-3'])\n"
        "print(status, 'numpy.random' in sys.modules)"
    )
    assert last in ("0 False", f"0 {numpy_loads_it}")


def test_importing_cli_leaves_the_environment_alone():
    last = _python(
        "import os, sys\n"
        "before = dict(os.environ)\n"
        "import braidjones.cli\n"
        "braidjones.cli.nmr.MeasurementPrecision\n"
        "print('numpy' in sys.modules, dict(os.environ) == before)"
    )
    assert last == "True True"


def test_console_script_runs_the_launcher():
    text = (ROOT / "pyproject.toml").read_text()
    (section,) = re.findall(r"^\[project\.scripts\]\n(.*?)(?:^\[|\Z)", text, re.M | re.S)
    assert section.split() == ["braidjones", "=", '"braidjones.__main__:main"']
