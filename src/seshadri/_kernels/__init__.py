"""The prime-field rank kernel: one pure-Python implementation, ``pyref``.

The oracle calls ``modrank`` for systems of several points in the
modular mode, and for one-point systems that are not staircases in both
modes: it ranks their matrix B mod 2 first, and mod the modular mode's
prime when that rank falls short.  No certificate witness reaches it:
every witness is a staircase, which the oracle decides by its
determinant identity without building a matrix.
``BACKEND`` names the kernel in use; it is constant, and exists because
the benchmark records it with each run.
"""

from .pyref import modrank

BACKEND = "python"
