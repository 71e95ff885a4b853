"""Package surface: every exported name, and every name the benchmark's tracer
wraps, resolves."""

import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

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


def test_tracer_spans_resolve(monkeypatch):
    # the benchmark's tracer wraps each (module, attribute) of its SPANS;
    # a renamed function must not leave a span that no longer resolves
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for _, mod_name, attr, _, _ in tracing.SPANS:
        owner = importlib.import_module(f"abrikosov.{mod_name}")
        *cls, name = attr.split(".")
        if cls:
            owner = getattr(owner, cls[0], None)
        if name not in vars(owner or object):
            missing.append(f"{mod_name}.{attr}")
    assert tracing.SPANS
    assert not missing
