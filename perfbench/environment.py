"""Environment record and engine guard for the benchmark.

The thread-count variables are set by ``run.py`` before numpy is imported;
this module only reads back what the process ended up with.
"""

import ctypes
import glob
import os
import platform
import sys

BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads():
    """Fix the BLAS pool size; must run before numpy is first imported."""
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def _openblas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, or None."""
    import numpy as np

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "libscipy_openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _blas_version(show_config):
    try:
        blas = show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None
    return f"{blas.get('name')} {blas.get('version')}"


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def have_numba():
    """oddmsim._kernels.HAVE_NUMBA, or None once the kernel module is gone."""
    try:
        from oddmsim import _kernels
    except ImportError:
        return None
    return bool(getattr(_kernels, "HAVE_NUMBA", False))


def engine_guard():
    """Return a refusal message if detection would dispatch to numba."""
    if have_numba():
        return (
            "oddmsim._kernels.HAVE_NUMBA is true: run_detector would dispatch to "
            "the numba kernel, not the numpy engine these figures describe"
        )
    return None


def record():
    import numpy as np
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas_version(np.show_config),
        "scipy_blas": _blas_version(scipy.show_config),
        "blas_threads": _openblas_threads(),
        "blas_threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "have_numba": have_numba(),
    }
