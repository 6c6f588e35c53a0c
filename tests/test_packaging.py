"""The package is pure Python: nothing to compile, nothing generated in the
tree, one version, stated alike in ``pyproject.toml``, the package and the
README's certificate format, and one console script, ``seshadri``, that
runs the command line."""

import importlib
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import seshadri
from seshadri import cli

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "seshadri"


def test_package_sources_are_python_only():
    files = [p for p in PACKAGE.rglob("*")
             if p.is_file() and "__pycache__" not in p.parts]
    assert files
    assert [str(p.relative_to(PACKAGE)) for p in files if p.suffix != ".py"] == []


def test_build_ext_in_place_is_a_no_op(tmp_path):
    shutil.copy(ROOT / "setup.py", tmp_path)
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    proc = subprocess.run([sys.executable, "setup.py", "build_ext", "--inplace"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    built = [str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*")
             if p.suffix in (".so", ".c")]
    assert built == []


def test_project_version_is_the_package_version():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["version"] == seshadri.__version__


def test_readme_states_the_certificate_format_of_the_package():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert re.findall(r"\(`certify`, format ([0-9.]+)\)", readme) == [seshadri.__version__]


def test_console_script_is_the_cli_main():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"seshadri": "seshadri.cli:main"}
    module, attr = scripts["seshadri"].split(":")
    assert getattr(importlib.import_module(module), attr) is cli.main
