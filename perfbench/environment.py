"""The machine and library settings every benchmark result records."""

import ctypes
import glob
import os
import platform

import numpy as np
import scipy

THREAD_VARS = ("LONGIPET_THREADS", "OPENBLAS_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _openblas():
    """OpenBLAS build string and thread count from numpy's bundled library."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "")):
            config = getattr(lib, f"{prefix}get_config{suffix}", None)
            threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            if config is not None and threads is not None:
                config.restype = ctypes.c_char_p
                threads.restype = ctypes.c_int
                return config().decode(), threads()
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return deps.get("blas", {}).get("openblas configuration"), None


def describe() -> dict:
    blas_config, blas_threads = _openblas()
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": blas_config,
        "openblas_threads": blas_threads,
        **{var: os.environ.get(var) for var in THREAD_VARS},
    }
