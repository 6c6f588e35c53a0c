"""The prime-field rank kernel: one pure-Python implementation, ``pyref``.

The modular oracle calls ``modrank`` for systems of several points and
for one-point systems whose rank mod 2 falls short; one-point systems of
full rank mod 2, such as every eckl10 certificate witness from n = 13 on,
are decided by the oracle's GF(2) step without it: for a staircase
witness, by the parity of its point-free determinant's closed form.
``BACKEND`` names the kernel in use; it is constant, and exists because
the benchmark records it with each run.
"""

from .pyref import modrank

BACKEND = "python"
