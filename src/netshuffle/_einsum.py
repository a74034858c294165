"""`einsum`: the C function that `np.einsum` forwards to, called directly.

With `optimize` left False, `np.einsum(*operands)` hands its operands
unchanged to numpy's `c_einsum`, so calling that function gives the same
bits and skips the wrapper's dispatch, about half the cost of a small call.
Every einsum in the package goes through this name.
"""

from __future__ import annotations

import importlib

import numpy as np


def _resolve():
    # numpy 2 keeps its einsum module under numpy._core, numpy 1 under
    # numpy.core; if neither holds c_einsum, the public function stands in
    for name in ("numpy._core.einsumfunc", "numpy.core.einsumfunc"):
        try:
            module = importlib.import_module(name)
        except ImportError:
            continue
        if hasattr(module, "c_einsum"):
            return module.c_einsum
    return np.einsum


einsum = _resolve()
