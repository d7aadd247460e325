import pytest

from helpers import ROOT, load_script


@pytest.fixture
def workloads():
    """The benchmark's ``perfbench/workloads.py``, loaded from its file."""
    return load_script(ROOT / "perfbench" / "workloads.py")
