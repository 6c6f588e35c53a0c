"""Hot-kernel dispatch: compiled extension when built, pure Python otherwise.

The only compiled kernel is prime-field row reduction.  The modular oracle
calls it for systems of several points and for one-point systems whose
rank mod 2 falls short; one-point systems of full rank mod 2, such as
every eckl10 certificate witness, are decided by the oracle's GF(2) step
without it.  Everything exact and rational stays in pure Python, where
arbitrary-precision integers are already native.  Set
``SESHADRI_FORCE_PY_KERNELS=1`` to ignore a compiled extension that is
present.
"""

from __future__ import annotations

import os

from . import pyref

BACKEND = "python"
modrank = pyref.modrank

if not os.environ.get("SESHADRI_FORCE_PY_KERNELS"):
    try:
        from . import _modrank as _compiled

        modrank = _compiled.modrank
        BACKEND = "compiled"
    except ImportError:
        pass
