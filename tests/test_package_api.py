"""The package namespace is the union of its submodules' ``__all__`` lists."""

import importlib
import pkgutil
import re
from pathlib import Path

import braidjones

README = Path(__file__).resolve().parents[1] / "README.md"
# every submodule but the entry point, which runs the CLI when imported
SUBMODULES = [m.name for m in pkgutil.iter_modules(braidjones.__path__) if m.name != "__main__"]


def test_every_public_name_is_exported_by_the_package():
    assert SUBMODULES
    for name in SUBMODULES:
        module = importlib.import_module(f"braidjones.{name}")
        for public in module.__all__:
            assert getattr(braidjones, public) is getattr(module, public), (name, public)


def test_readme_library_example_runs():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    exec(compile(block, str(README), "exec"), {})
