"""What a fresh interpreter loads: the package namespace loads its modules on
first use, and the command line loads numpy and the library only for the
subcommand that runs, and for ``lattice --tau`` only off its eta route.

Each check runs in a new interpreter, since this one has numpy and every
module of the package loaded already.
"""

import importlib
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")
PUBLIC = sorted(m.name for m in pkgutil.iter_modules([f"{SRC}/abrikosov"])
                if not m.name.startswith("_"))


def _fresh(code: str) -> dict:
    """Run ``code`` in a new interpreter with ``src`` first on the path; it
    leaves its findings as JSON in ``found``, read back from the last line
    of stdout."""
    script = (f"import json, sys\nsys.path.insert(0, {SRC!r})\nfound = {{}}\n"
              f"{code}\n"
              "found['loaded'] = sorted(m for m in sys.modules if m == 'numpy'"
              " or m.startswith('abrikosov'))\n"
              "print(json.dumps(found))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _cli(*argv) -> dict:
    """Run ``python -m abrikosov argv`` in a new interpreter: its exit code,
    stdout, stderr and the modules it loaded."""
    return _fresh(
        "import contextlib, io, runpy\n"
        f"sys.argv = ['abrikosov', *{list(argv)!r}]\n"
        "out, err = io.StringIO(), io.StringIO()\n"
        "with contextlib.redirect_stdout(out), "
        "contextlib.redirect_stderr(err):\n"
        "    try:\n"
        "        runpy.run_module('abrikosov', run_name='__main__')\n"
        "    except SystemExit as exc:\n"
        "        found['code'] = exc.code\n"
        "found['stdout'] = out.getvalue()\n"
        "found['stderr'] = err.getvalue()\n")


def test_importing_the_package_loads_no_module_of_it():
    found = _fresh(
        "import abrikosov\n"
        "found['probe'] = hasattr(abrikosov, '__wrapped__')\n")
    assert found["loaded"] == ["abrikosov", "abrikosov._version"]
    assert found["probe"] is False


@pytest.mark.parametrize("name", PUBLIC)
def test_a_module_loads_when_its_name_is_first_read(name):
    found = _fresh(
        "import abrikosov\n"
        f"found['same'] = getattr(abrikosov, {name!r}) is "
        f"sys.modules['abrikosov.{name}']\n")
    assert found["same"] is True
    assert f"abrikosov.{name}" in found["loaded"]


def test_an_unknown_name_is_an_attribute_error_after_the_exports_load():
    found = _fresh(
        "import abrikosov\n"
        "found['has'] = hasattr(abrikosov, 'no_such_name')\n"
        "found['bound'] = abrikosov.minimize_config is "
        "abrikosov.torus.minimize_config\n")
    assert found["has"] is False and found["bound"] is True
    assert {f"abrikosov.{m}" for m in ("modular", "lattice", "torus",
                                       "obstacle")} <= set(found["loaded"])


def test_a_star_import_binds_the_exports_in_order():
    found = _fresh(
        "import importlib\n"
        "ns = {}\n"
        "exec('from abrikosov import *', ns)\n"
        "import abrikosov\n"
        "found['bound'] = [k for k in ns if k != '__builtins__']\n"
        "found['all'] = abrikosov.__all__\n"
        "found['modules'] = [importlib.import_module(f'abrikosov.{m}').__all__"
        " for m in ('modular', 'lattice', 'torus', 'obstacle')]\n"
        "found['undir'] = sorted(set(abrikosov.__all__) - set(dir(abrikosov)))"
        "\n")
    expected = ["__version__", "backend", "errors",
                *(name for names in found["modules"] for name in names)]
    assert found["bound"] == found["all"] == expected
    assert found["undir"] == []


@pytest.mark.parametrize("argv,code", [
    ("--version", 0), ("--help", 0), ("lattice --help", 0),
    ("moduli-scan --help", 0), ("fekete --help", 0), ("obstacle --help", 0),
    ("lattice --route nope", 2), ("fekete --n two", 2),
])
def test_version_help_and_usage_errors_load_no_numpy(argv, code):
    found = _cli(*argv.split())
    assert found["code"] == code
    assert found["loaded"] == ["abrikosov", "abrikosov._version",
                               "abrikosov.cli", "abrikosov.errors"]


# "numpy" in ``absent`` means numpy too stays unloaded
@pytest.mark.parametrize("argv,absent", [
    ("lattice --tau 0 1", ("numpy", "backend", "csvfile", "modular",
                           "lattice", "torus", "obstacle")),
    ("moduli-scan --resolution 4", ("torus", "obstacle")),
    ("fekete --n 2", ("obstacle",)),
    ("obstacle --disk --h 0.125 --m 0.9", ("modular", "lattice", "torus")),
    ("lattice --tau 0 1 --route fourier", ("torus", "obstacle")),
    ("lattice --basis 1 0 0 1", ("torus", "obstacle")),
])
def test_a_subcommand_loads_only_its_own_modules(argv, absent):
    found = _cli(*argv.split())
    assert found["code"] == 0, found["stderr"]
    assert ("numpy" in found["loaded"]) == ("numpy" not in absent)
    assert not {f"abrikosov.{m}" for m in absent} & set(found["loaded"])


@pytest.mark.parametrize("argv,numpy_loaded", [
    ("lattice --tau 0.21 1.33 --m 2.0", False),
    ("fekete --n 2", True),
])
def test_json_bytes_do_not_depend_on_numpy_being_loaded(argv, numpy_loaded,
                                                        capsys):
    # the fresh run serializes with numpy loaded or not; in this process
    # numpy is loaded, so _json_ready reads numpy's types either way
    importlib.import_module("numpy")
    from abrikosov import cli

    found = _cli(*argv.split())
    assert found["code"] == 0, found["stderr"]
    assert ("numpy" in found["loaded"]) == numpy_loaded
    assert cli.main(argv.split()) == 0
    assert capsys.readouterr().out.encode() == found["stdout"].encode()
