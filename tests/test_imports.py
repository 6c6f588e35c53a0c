"""Each command imports only what it runs.

``import seshadri`` imports none of the package's modules: a public name
is imported from its home module on first access.  The asymptotic
commands (``bound``, ``verify``, ``validate``, ``builtin``) never load the
finite half, and ``render`` loads no lattice or oracle.  No command, nor
the benchmark's set-up, loads ``dataclasses`` or ``inspect``, which cost
several milliseconds of every cold start: the package's records are
``NamedTuple``s or plain classes.  Nor does any load ``argparse``, or the
``gettext`` and ``locale`` it pulls in: the command line parses its
arguments against its own option table.  Building or validating a
dissection, and so the benchmark's set-up and the ``validate``,
``builtin`` and ``render`` commands, loads neither the analysis
(``seshadri.reorder``) nor the ``json`` package, and ``certify`` loads no
``json``: the writer quotes with the C module ``_json``, and the command
line imports ``json`` only to read a file.  Each check runs in a fresh
interpreter, where no other test has imported anything yet.
"""

import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import seshadri

ROOT = Path(__file__).resolve().parent.parent
FINITE = {"seshadri.certify", "seshadri.lattice", "seshadri.oracle", "seshadri._kernels"}
HEAVY = FINITE | {"seshadri.render"}

# Runs ``seshadri.cli`` on the arguments that follow, with its output
# swallowed, then prints the package modules loaded
_CLI = """
import contextlib, io, json, sys
from seshadri.cli import run
with contextlib.redirect_stdout(io.StringIO()):
    code = run(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("seshadri"))]))
"""


# Runs ``seshadri.cli`` on the arguments that follow, requiring exit 0
_RUN = """
import contextlib, io, sys
from seshadri.cli import run
with contextlib.redirect_stdout(io.StringIO()):
    assert run(sys.argv[1:]) == 0
"""

# What the benchmark's set-up child does
_SETUP = """
import seshadri
assert seshadri.validate_dissection(seshadri.builtin_dissection_eckl10()).ok
"""

RECORD_MODULES = {"dataclasses", "inspect"}
PARSER_MODULES = {"argparse", "gettext", "locale"}
ANALYSIS, JSON = "seshadri.reorder", "json"
WATCHED = RECORD_MODULES | PARSER_MODULES | {ANALYSIS, JSON}

# Prints which of WATCHED are loaded, read before json is imported to print them
_WATCHED = f"""
import sys
loaded = sorted(set(sys.modules).intersection({sorted(WATCHED)}))
import json
print(json.dumps(loaded))
"""


def _child(code: str, *argv: str):
    proc = subprocess.run([sys.executable, "-c", code, *argv], cwd=ROOT,
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout)


def test_import_seshadri_loads_no_module():
    loaded = _child("import json, sys, seshadri\n"
                    "print(json.dumps(sorted(m for m in sys.modules "
                    "if m.startswith('seshadri'))))")
    assert loaded == ["seshadri"]


@pytest.mark.parametrize("argv", [
    ["bound", "--dissection", "builtin:eckl10"],
    ["verify", "--dissection", "builtin:eckl10", "--m", "3/13"],
    ["validate", "--dissection", "builtin:eckl10"],
    ["builtin", "--name", "eckl10"],
], ids=lambda argv: argv[0])
def test_asymptotic_commands_load_no_finite_module(argv):
    code, loaded = _child(_CLI, *argv)
    assert code == 0
    assert "seshadri.dissection" in loaded and HEAVY.isdisjoint(loaded)


def test_render_loads_no_lattice_or_oracle(tmp_path):
    code, loaded = _child(_CLI, "render", "--dissection", "builtin:eckl10",
                          "--out", str(tmp_path / "d.svg"))
    assert code == 0
    assert "seshadri.render" in loaded and FINITE.isdisjoint(loaded)


def test_every_public_name_is_its_home_modules_object():
    for name, home in seshadri._HOME.items():
        module = importlib.import_module("seshadri." + home)
        value = getattr(seshadri, name)
        assert value is getattr(module, name), name
        if inspect.isclass(value) or inspect.isfunction(value):
            assert value.__module__ == module.__name__, name


def test_star_import_binds_every_public_name():
    unbound = _child("import json, seshadri\n"
                     "ns = {}\n"
                     "exec('from seshadri import *', ns)\n"
                     "print(json.dumps([n for n in seshadri.__all__ if n not in ns]))")
    assert unbound == []
    assert set(seshadri.__all__) <= set(dir(seshadri))


def test_an_unknown_name_is_refused_by_name():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        seshadri.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        from seshadri import no_such_name


@pytest.fixture(scope="module")
def bare_slow():
    """Which of the watched modules a bare interpreter loads."""
    return set(_child(_WATCHED))


ROWS = {
    "bound": (_RUN, ["bound", "--dissection", "builtin:eckl10"]),
    "verify": (_RUN, ["verify", "--dissection", "builtin:eckl10", "--m", "3/13"]),
    "validate": (_RUN, ["validate", "--dissection", "builtin:eckl10"]),
    "builtin": (_RUN, ["builtin", "--name", "eckl10"]),
    "render": (_RUN, ["render", "--dissection", "builtin:eckl10", "--out", "d.svg"]),
    "setup": (_SETUP, []),
    "certify-none": (_RUN, ["certify", "--dissection", "builtin:eckl10", "--n", "13",
                            "--oracle", "none"]),
    "certify-modular": (_RUN, ["certify", "--dissection", "builtin:eckl10", "--n", "13",
                               "--oracle", "modular"]),
    "certify-exact": (_RUN, ["certify", "--dissection", "builtin:eckl10", "--n", "13",
                             "--oracle", "exact"]),
    "oracle-modular": (_RUN, ["oracle", "--system", "system.json", "--mode", "modular"]),
    "oracle-exact": (_RUN, ["oracle", "--system", "system.json", "--mode", "exact"]),
}


@pytest.fixture(scope="module")
def slow_loaded(tmp_path_factory):
    """The watched modules a row's child loads, by row; each row runs once."""
    tmp = tmp_path_factory.mktemp("rows")
    # a set that is no staircase and has full rank mod 2, so B is built and ranked
    (tmp / "system.json").write_text('{"D": [[0, 0], [2, 1], [1, 2]], '
                                     '"multiplicities": [2]}')
    loaded = {}

    def slow(row):
        if row not in loaded:
            code, argv = ROWS[row]
            argv = [str(tmp / a) if a.endswith((".svg", ".json")) else a for a in argv]
            loaded[row] = set(_child(code + _WATCHED, *argv))
        return loaded[row]
    return slow


@pytest.mark.parametrize("row", ROWS)
def test_no_command_loads_dataclasses_or_inspect(row, slow_loaded, bare_slow):
    assert slow_loaded(row) & RECORD_MODULES <= bare_slow


@pytest.mark.parametrize("row", ROWS)
def test_no_command_loads_argparse_gettext_or_locale(row, slow_loaded, bare_slow):
    assert slow_loaded(row) & PARSER_MODULES <= bare_slow


def test_the_package_never_imports_argparse():
    package = ROOT / "src" / "seshadri"
    assert [p.name for p in package.rglob("*.py") if "argparse" in p.read_text()] == []


@pytest.mark.parametrize("row", ["setup", "validate", "builtin", "render"])
def test_building_a_dissection_loads_no_analysis_or_json(row, slow_loaded, bare_slow):
    assert ANALYSIS not in slow_loaded(row)
    assert slow_loaded(row) & {JSON} <= bare_slow


@pytest.mark.parametrize("row", ["certify-none", "certify-modular", "certify-exact"])
def test_certify_loads_no_json(row, slow_loaded, bare_slow):
    assert slow_loaded(row) & {JSON} <= bare_slow


def test_the_checks_see_what_they_refuse(slow_loaded, bare_slow):
    # the analysis loads reorder, and reading a system file loads json
    assert ANALYSIS in slow_loaded("bound") and ANALYSIS in slow_loaded("verify")
    assert JSON not in bare_slow and JSON in slow_loaded("oracle-modular")
