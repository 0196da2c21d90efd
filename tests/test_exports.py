"""Every exported name resolves, once, and the package list stays sorted."""

from __future__ import annotations

import importlib

import pytest

import poseact

# every submodule that declares __all__
SUBMODULES = ("analysis", "bench", "cli", "core", "data", "solver")


@pytest.mark.parametrize("module_name", ("poseact",) + tuple(f"poseact.{m}" for m in SUBMODULES))
def test_every_exported_name_resolves_once(module_name):
    module = importlib.import_module(module_name)
    exported = list(module.__all__)
    assert len(exported) == len(set(exported)), module_name
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, (module_name, missing)


def test_package_exports_are_sorted():
    assert poseact.__all__ == sorted(poseact.__all__)
