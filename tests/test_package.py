"""Package surface: every exported name resolves."""

import importlib
import pkgutil

import pytest

import abrikosov

MODULES = sorted(m.name for m in pkgutil.iter_modules(abrikosov.__path__)
                 if not m.name.startswith("_"))


def test_package_exports_resolve():
    missing = [name for name in abrikosov.__all__
               if not hasattr(abrikosov, name)]
    assert not missing


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"abrikosov.{name}")
    exported = getattr(module, "__all__", [])
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing
