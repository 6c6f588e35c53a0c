"""The prime-field rank kernel: one pure-Python implementation, ``pyref``.

The modular oracle calls ``modrank`` for systems of several points and
for one-point systems that are not staircases and whose rank mod 2 falls
short.  No certificate witness reaches it: every witness is a staircase,
which the oracle decides by its determinant identity without building a
matrix.
``BACKEND`` names the kernel in use; it is constant, and exists because
the benchmark records it with each run.
"""

from .pyref import modrank

BACKEND = "python"
