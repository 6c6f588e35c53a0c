"""Each command imports only what it runs.

``import seshadri`` imports none of the package's modules: a public name
is imported from its home module on first access.  The asymptotic
commands (``bound``, ``verify``, ``validate``, ``builtin``) never load the
finite half, and ``render`` loads no lattice or oracle.  None of them,
nor the benchmark's set-up, loads ``dataclasses`` or ``inspect``, which
cost several milliseconds of every cold start: the asymptotic half's
records are ``NamedTuple``s.  Each check runs in a fresh interpreter,
where no other test has imported anything yet.
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

# Prints which of dataclasses and inspect are loaded
_SLOW = """
import json, sys
print(json.dumps(sorted({"dataclasses", "inspect"} & set(sys.modules))))
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
    """Which of dataclasses and inspect a bare interpreter loads."""
    return set(_child(_SLOW))


@pytest.mark.parametrize("code, argv", [
    (_RUN, ["bound", "--dissection", "builtin:eckl10"]),
    (_RUN, ["verify", "--dissection", "builtin:eckl10", "--m", "3/13"]),
    (_RUN, ["validate", "--dissection", "builtin:eckl10"]),
    (_RUN, ["builtin", "--name", "eckl10"]),
    (_RUN, ["render", "--dissection", "builtin:eckl10", "--out", "d.svg"]),
    (_SETUP, []),
], ids=["bound", "verify", "validate", "builtin", "render", "setup"])
def test_asymptotic_runs_load_no_dataclasses_or_inspect(code, argv, tmp_path, bare_slow):
    argv = [str(tmp_path / a) if a.endswith(".svg") else a for a in argv]
    assert set(_child(code + _SLOW, *argv)) <= bare_slow
