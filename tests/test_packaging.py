"""The package is pure Python: nothing to compile, nothing generated in the tree."""

import shutil
import subprocess
import sys
from pathlib import Path

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
