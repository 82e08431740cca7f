"""Machine and build facts recorded with every benchmark result.

The effective BLAS thread count is read from the OpenBLAS that numpy has
loaded, through ctypes: threadpoolctl is not a dependency. It keys the
pinned fingerprints, because a wide first-layer matmul (K=784 on
`deep_idx`) returns different bytes with 1 and 2 OpenBLAS threads.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform

import numpy as np

_THREADS_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)
_CORENAME_SYMBOLS = (
    "scipy_openblas_get_corename64_",
    "openblas_get_corename64_",
    "openblas_get_corename",
)


def _loaded_openblas() -> str | None:
    """Path of the OpenBLAS shared object mapped into this process."""
    try:
        with open("/proc/self/maps") as f:
            for line in f:
                path = line.split()[-1]
                if "openblas" in os.path.basename(path).lower() and ".so" in path:
                    return path
    except OSError:
        pass
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*.so*"))
    return libs[0] if libs else None


def _call(lib: ctypes.CDLL, names: tuple[str, ...], restype):
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = restype
            return fn()
    return None


def blas_facts() -> dict:
    """Vendor, version, kernel family and effective thread count of numpy's BLAS."""
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    facts = {"vendor": blas.get("name"), "version": blas.get("version"),
             "library": None, "corename": None, "threads": None}
    path = _loaded_openblas()
    if path is not None:
        lib = ctypes.CDLL(path)
        facts["library"] = os.path.basename(path)
        threads = _call(lib, _THREADS_SYMBOLS, ctypes.c_int)
        core = _call(lib, _CORENAME_SYMBOLS, ctypes.c_char_p)
        facts["threads"] = threads
        facts["corename"] = core.decode() if core else None
    return facts


def pin_key(blas: dict) -> str:
    """Key of the pinned-fingerprint table that applies on this machine."""
    return f"numpy-{np.__version__}/{blas['corename']}/{blas['threads']}t"


def _git_commit(root: str) -> str | None:
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def loadavg_1min() -> float | None:
    try:
        with open("/proc/loadavg") as f:
            return float(f.read().split()[0])
    except OSError:
        return None


def src_lines(root: str) -> int:
    total = 0
    for path in sorted(glob.glob(os.path.join(root, "src", "growbench", "*.py"))):
        with open(path) as f:
            total += sum(1 for _ in f)
    return total


def facts(root: str, blas: dict) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": _git_commit(root),
        "src_lines": src_lines(root),
        "pin_key": pin_key(blas),
    }
