"""The OpenBLAS thread count of this process.

The OpenBLAS that numpy bundles keeps its own thread pool per process;
``set_blas_threads`` lets a cross-validation worker process pin it, so that
several worker processes do not oversubscribe the cores.
"""

import ctypes
import functools
import glob
import os
from typing import Optional

import numpy as np

from .errors import ParameterError


@functools.cache
def _openblas_thread_calls():
    """The (set, get) thread-count functions of numpy's bundled OpenBLAS,
    or None when numpy does not bundle one."""
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                           "libscipy_openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "")):
            setter = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
            getter = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                return setter, getter
    return None


def blas_threads() -> Optional[int]:
    """This process's OpenBLAS thread count, or None if it cannot be read."""
    calls = _openblas_thread_calls()
    return None if calls is None else calls[1]()


def set_blas_threads(n: int) -> None:
    """Size this process's OpenBLAS pool to ``n`` threads.

    Raises ParameterError when the pool cannot be reached; check
    ``blas_threads() is not None`` first.
    """
    calls = _openblas_thread_calls()
    if calls is None:
        raise ParameterError("numpy's OpenBLAS thread pool cannot be reached")
    calls[0](int(n))
