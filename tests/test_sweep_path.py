"""A sweep reaches every function the benchmark traces on its sweep path.

``perfbench/run.py --trace 1`` stops with "traced functions recorded no
calls" when a workload's command bypasses a name in its ``reaches`` list;
this test makes that failure show in the test suite as well.
"""

import sys

import braidjones  # noqa: F401  (registers every submodule in sys.modules)
from braidjones.tlrep import ReprParams

def test_a_sweep_calls_every_name_on_the_sweep_path(monkeypatch, capsys, workloads):
    names = workloads._SWEEP_PATH
    calls = dict.fromkeys(names, 0)

    def spy(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    namespaces = [m for n, m in sys.modules.items()
                  if n == "braidjones" or n.startswith("braidjones.")]
    for name in names:
        module_name, func = name.split(".")
        if name == "tlrep.from_theta":
            wrapped = classmethod(spy(name, ReprParams.__dict__[func].__func__))
            monkeypatch.setattr(ReprParams, func, wrapped)
            continue
        original = getattr(sys.modules[f"braidjones.{module_name}"], func)
        wrapped = spy(name, original)
        # rebind in every namespace that holds the function, as the tracer does
        for ns in namespaces:
            for attr in [a for a, v in vars(ns).items() if v is original]:
                monkeypatch.setattr(ns, attr, wrapped)
    # a benchmark command starts with an empty probe cache, so prepare_rho1 runs
    sys.modules["braidjones.nmr"]._probe.cache_clear()
    argv = ["sweep", "--preset", "figure8", "--theta-max-deg", "2", "--epsilon", "1e-3"]
    assert sys.modules["braidjones.cli"].main(argv) == 0
    assert capsys.readouterr().err == "3 gridpoints, 0 violations\n"
    assert [name for name, n in calls.items() if n == 0] == []
