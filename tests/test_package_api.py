"""The package namespace is the union of its submodules' ``__all__`` lists."""

import importlib
import re

import pytest

import braidjones

from helpers import ROOT, SUBMODULES

README = ROOT / "README.md"


def test_every_public_name_is_exported_by_the_package():
    assert SUBMODULES
    for name in SUBMODULES:
        module = importlib.import_module(f"braidjones.{name}")
        for public in module.__all__:
            assert getattr(braidjones, public) is getattr(module, public), (name, public)


def test_star_import_binds_exactly_the_submodules_public_names():
    namespace = {}
    exec("from braidjones import *", namespace)
    del namespace["__builtins__"]
    modules = [importlib.import_module(f"braidjones.{name}") for name in SUBMODULES]
    public = [n for module in modules for n in module.__all__]
    assert sorted(namespace) == sorted(public) == sorted(braidjones.__all__)
    for name, module in zip(SUBMODULES, modules):
        assert getattr(braidjones, name) is module
    with pytest.raises(AttributeError, match="no_such_name"):
        braidjones.no_such_name


def test_readme_library_example_runs():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    exec(compile(block, str(README), "exec"), {})
