"""Every name a ``repro`` module exports in ``__all__`` resolves.

Guards deletions: removing a class or function while leaving its name in
a package's ``__all__`` would make ``from repro.x import *`` fail only
for the users who try it.
"""

import importlib
import pkgutil

import pytest

import repro


def _modules():
    yield repro.__name__
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield info.name


MODULES = sorted(_modules())


def test_walk_finds_the_packages():
    assert {"repro.net", "repro.obs", "repro.protocols"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [
        export for export in getattr(module, "__all__", ())
        if not hasattr(module, export)
    ]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
