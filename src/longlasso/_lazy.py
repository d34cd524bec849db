"""Modules imported on their first use.

``import longlasso`` loads no SciPy module: importing ``scipy.linalg``
takes longer than Python and NumPy together, and ``evaluate`` never needs
it.  ``families``, ``correlation`` and ``fista`` each hold a
``LazyModule`` in place of the SciPy module they call, and the first
attribute read imports it.
"""
from __future__ import annotations

import importlib
import threading

# serializes first reads, so concurrent first calls import and bind once
_LOCK = threading.Lock()


class LazyModule:
    """Stand-in for the module ``name``, imported on the first attribute read.

    An attribute read once is stored on the instance, so every later read
    is a plain instance lookup that runs no import statement: the solver
    reads ``blas.dgemv`` on every iteration.  Safe when several threads
    make the first read at once, unlike ``importlib.util.LazyLoader``
    before Python 3.12.
    """

    def __init__(self, name: str):
        self._name = name

    def __getattr__(self, attr: str):
        # called only for an attribute not yet on the instance
        with _LOCK:
            value = getattr(importlib.import_module(self._name), attr)
            setattr(self, attr, value)
        return value
