"""A sweep reaches every function the benchmark traces on its sweep path.

``perfbench/run.py --trace 1`` stops with "traced functions recorded no
calls" when a workload's command bypasses a name in its ``reaches`` list;
this test makes that failure show in the test suite as well.
"""

import sys

from helpers import count_calls


def test_a_sweep_calls_every_name_on_the_sweep_path(monkeypatch, capsys, workloads):
    calls = count_calls(monkeypatch, *workloads._SWEEP_PATH)
    # a benchmark command starts with an empty probe cache, so prepare_rho1 runs
    sys.modules["braidjones.nmr"]._probe.cache_clear()
    argv = ["sweep", "--preset", "figure8", "--theta-max-deg", "2", "--epsilon", "1e-3"]
    assert sys.modules["braidjones.cli"].main(argv) == 0
    assert capsys.readouterr().err == "3 gridpoints, 0 violations\n"
    assert [name for name, n in calls.items() if n == 0] == []
