"""Build script.  The package is pure Python, so ``build_ext --inplace``
has nothing to compile and exits without producing any file."""

from setuptools import setup

setup()
