"""Package surface: every exported name, every name the benchmark's tracer
wraps and every package attribute the benchmark reads resolves; the package
imports nothing beyond numpy."""

import ast
import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import pytest

import abrikosov

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(m.name for m in pkgutil.iter_modules(abrikosov.__path__)
                 if not m.name.startswith("_"))


def test_package_surface_is_the_module_lists():
    # the package re-exports each module's __all__, in this order
    lists = [importlib.import_module(f"abrikosov.{name}").__all__
             for name in ("modular", "lattice", "torus", "obstacle")]
    assert abrikosov.__all__ == ["__version__", "backend", "errors",
                                 *(name for names in lists for name in names)]


def test_no_name_is_exported_by_two_modules():
    # a star import lets a later module shadow an earlier one's name
    seen = {}
    for name in MODULES:
        for attr in getattr(importlib.import_module(f"abrikosov.{name}"),
                            "__all__", []):
            seen.setdefault(attr, []).append(name)
    assert {attr: mods for attr, mods in seen.items() if len(mods) > 1} == {}


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
    path = ROOT / "bench" / "tracing.py"
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


def _bench_chains():
    """Each ``abr.<module>.<name>`` attribute chain in bench/*.py, where the
    benchmark's worker binds ``abr`` to the package."""
    chains = set()
    for path in sorted((ROOT / "bench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Attribute)
                    and isinstance(node.value.value, ast.Name)
                    and node.value.value.id == "abr"):
                chains.add((path.name, node.value.attr, node.attr))
    return sorted(chains)


def test_bench_attribute_chains_resolve():
    # bench/worker.py reads abr.backend.BACKEND and calls abr.backend.warmup;
    # a name deleted from src/ must not break every benchmark run
    chains = _bench_chains()
    missing = [f"{file}: abr.{mod}.{name}" for file, mod, name in chains
               if not hasattr(importlib.import_module(f"abrikosov.{mod}"), name)]
    assert ("worker.py", "backend", "warmup") in chains
    assert not missing


def _imported_roots(path):
    """Top-level names of the absolute imports in one source file."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            roots.add(node.module.split(".")[0])
    return roots


@pytest.mark.parametrize("folder,extra", [
    ("src/abrikosov", set()),
    ("tests", {"pytest", "hypothesis"}),
])
def test_imports_stay_within_the_declared_dependencies(folder, extra):
    # scipy or mpmath may be installed, so an import of either would pass
    # every other test; neither is a dependency
    files = sorted((ROOT / folder).glob("*.py"))
    allowed = (set(sys.stdlib_module_names) | {"numpy", "abrikosov"} | extra
               | {f.stem for f in files})
    stray = {f"{f.name}: {root}" for f in files
             for root in _imported_roots(f) - allowed}
    assert files
    assert not stray
