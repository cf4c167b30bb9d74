"""In-place BLAS/LAPACK calls on strided float64 views, and the OpenBLAS
thread counts of a run. The one-rank engine factors and inverts the
covariance and whitens every block through this module alone; the dist
kernels factor, update and fold their panels through it.

scipy's f2py wrappers copy an operand that is not a whole contiguous
array, so a level-3 call on a sub-block of a larger matrix would run on
a copy, and they hold the GIL for the whole call. These functions call
the same routines in the caller's memory, through the function pointers
scipy publishes for Cython (scipy.linalg.cython_blas / cython_lapack),
by ctypes. An operand is a column-major view: unit row stride, leading
dimension its column stride. ctypes releases the GIL for the duration of
each call, so other Python threads (the block reader and writer) run
while it computes. All triangular operands are lower and non-unit.
numpy's `@`, in numpy's own OpenBLAS, runs the per-marker products, the
p-column products of the set-up and the dist engine's panel GEMMs.
"""

from __future__ import annotations

import ctypes
import os
from contextlib import contextmanager

import numpy as np
from scipy.linalg import cython_blas, cython_lapack

from .errors import DimensionMismatch

_ARG = {"c": ctypes.c_char_p, "i": ctypes.POINTER(ctypes.c_int),
        "d": ctypes.POINTER(ctypes.c_double), "a": ctypes.c_void_p}


def _bind(module, name, codes):
    """ctypes function for scipy's Cython export `name`; codes gives one
    argument type per character: c char*, i int*, d double*, a array."""
    capsule = module.__pyx_capi__[name]
    get_name = ctypes.pythonapi.PyCapsule_GetName
    get_name.argtypes, get_name.restype = [ctypes.py_object], ctypes.c_char_p
    get_ptr = ctypes.pythonapi.PyCapsule_GetPointer
    get_ptr.argtypes = [ctypes.py_object, ctypes.c_char_p]
    get_ptr.restype = ctypes.c_void_p
    proto = ctypes.CFUNCTYPE(None, *(_ARG[c] for c in codes))
    return proto(get_ptr(capsule, get_name(capsule)))


_dpotrf = _bind(cython_lapack, "dpotrf", "ciaii")
_dtrtri = _bind(cython_lapack, "dtrtri", "cciaii")
_dlaset = _bind(cython_lapack, "dlaset", "ciiddai")
_dtrsm = _bind(cython_blas, "dtrsm", "cccciidaiai")
_dtrmm = _bind(cython_blas, "dtrmm", "cccciidaiai")
_dsyrk = _bind(cython_blas, "dsyrk", "cciidaidai")
_dgemm = _bind(cython_blas, "dgemm", "cciiidaiaidai")


def _i(v):
    return ctypes.byref(ctypes.c_int(v))


def _d(v):
    return ctypes.byref(ctypes.c_double(v))


def _view(a, written=False):
    """(address, leading dimension) of a column-major float64 view;
    raises DimensionMismatch for any other layout."""
    if (not isinstance(a, np.ndarray) or a.dtype != np.float64 or a.ndim != 2
            or a.strides[0] != 8 or a.strides[1] % 8
            or a.strides[1] < 8 * max(1, a.shape[0])
            or (written and not a.flags.writeable)):
        raise DimensionMismatch(
            "BLAS operand must be a writable column-major float64 view"
            if written else "BLAS operand must be a column-major float64 view")
    return a.ctypes.data, a.strides[1] // 8


def _square(a):
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"triangular operand is {a.shape}, not square")
    return a.shape[0]


def _info(info, name):
    if info.value < 0:
        raise ValueError(f"illegal argument {-info.value} to {name}")
    return info.value


def potrf(a):
    """Lower Cholesky factor of a in place (upper triangle not touched);
    returns LAPACK's info, k > 0 meaning pivot k - 1 failed. OpenBLAS
    returns 0 on a non-finite pivot, so callers check finiteness."""
    n = _square(a)
    pa, lda = _view(a, written=True)
    info = ctypes.c_int(0)
    _dpotrf(b"L", _i(n), pa, _i(lda), ctypes.byref(info))
    return _info(info, "dpotrf")


def trtri(a):
    """Lower triangle of a replaced by its inverse; returns LAPACK's info,
    k > 0 meaning diagonal entry k - 1 is zero."""
    n = _square(a)
    pa, lda = _view(a, written=True)
    info = ctypes.c_int(0)
    _dtrtri(b"L", b"N", _i(n), pa, _i(lda), ctypes.byref(info))
    return _info(info, "dtrtri")


def zero_strict_upper(a):
    """Set the entries of a above its diagonal to 0."""
    pa, lda = _view(a, written=True)
    m, n = a.shape
    if m and n > 1:
        # the strict upper triangle of a is the upper triangle, diagonal
        # included, of the view that starts one column to the right
        _dlaset(b"U", _i(m), _i(n - 1), _d(0.0), _d(0.0), pa + 8 * lda, _i(lda))


def _triangular(routine, side, trans, alpha, a, b):
    pa, lda = _view(a)
    pb, ldb = _view(b, written=True)
    k = _square(a)
    m, n = b.shape
    if k != (m if side == b"L" else n):
        raise DimensionMismatch(f"triangular {a.shape} against {b.shape}")
    if m and n:
        routine(side, b"L", trans, b"N", _i(m), _i(n), _d(alpha), pa, _i(lda),
                pb, _i(ldb))


def trsm(side, trans, a, b):
    """b <- op(a)^-1 b (side "L") or b op(a)^-1 (side "R"), where op(a)
    is a (trans "N") or a^T (trans "T")."""
    _triangular(_dtrsm, side.encode(), trans.encode(), 1.0, a, b)


def trmm(side, alpha, a, b):
    """b <- alpha a b (side "L") or alpha b a (side "R")."""
    _triangular(_dtrmm, side.encode(), b"N", alpha, a, b)


def syrk(alpha, a, beta, c):
    """Lower triangle of c <- alpha a a^T + beta c."""
    n = _square(c)
    if a.shape[0] != n:
        raise DimensionMismatch(f"syrk: a is {a.shape}, c is {c.shape}")
    pa, lda = _view(a)
    pc, ldc = _view(c, written=True)
    if n:
        _dsyrk(b"L", b"N", _i(n), _i(a.shape[1]), _d(alpha), pa, _i(lda),
               _d(beta), pc, _i(ldc))


def gemm_nt(alpha, a, b, beta, c):
    """c <- alpha a b^T + beta c."""
    m, n = c.shape
    k = a.shape[1]
    if a.shape[0] != m or b.shape != (n, k):
        raise DimensionMismatch(f"gemm: {a.shape} times {b.shape}^T into {c.shape}")
    pa, lda = _view(a)
    pb, ldb = _view(b)
    pc, ldc = _view(c, written=True)
    if m and n:
        _dgemm(b"N", b"T", _i(m), _i(n), _i(k), _d(alpha), pa, _i(lda),
               pb, _i(ldb), _d(beta), pc, _i(ldc))


# getter names of the two bundled OpenBLAS builds: numpy's 64-bit-integer
# build suffixes its symbols, scipy's does not
_GET_THREADS = ("scipy_openblas_get_num_threads64_",
                "scipy_openblas_get_num_threads",
                "openblas_get_num_threads64_", "openblas_get_num_threads")


def _thread_count(module):
    """(get, set_local) of the thread count of the OpenBLAS that the
    extension module links, or None when it exports no such pair. dlsym
    through the module's handle searches the libraries it links, so numpy
    and scipy each find their own bundled build."""
    lib = ctypes.CDLL(module.__file__)
    get = next((getattr(lib, s) for s in _GET_THREADS if hasattr(lib, s)), None)
    put = getattr(lib, "openblas_set_num_threads_local", None)
    if get is None or put is None:
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], ctypes.c_int
    return get, put


# numpy's build runs `@`, scipy's every routine bound above; both are one
# build, with one count, when numpy and scipy link the same OpenBLAS
_NUMPY_THREADS = _thread_count(np.linalg._umath_linalg)
_SCIPY_THREADS = _thread_count(cython_blas)
_SHARED = None not in (_NUMPY_THREADS, _SCIPY_THREADS) and (
    ctypes.cast(_NUMPY_THREADS[1], ctypes.c_void_p).value
    == ctypes.cast(_SCIPY_THREADS[1], ctypes.c_void_p).value)


def _openblas_threads():
    """[(get, set_local)] for each OpenBLAS build that numpy or scipy runs."""
    builds = [_SCIPY_THREADS] if _SHARED else [_NUMPY_THREADS, _SCIPY_THREADS]
    return [b for b in builds if b is not None]


@contextmanager
def rank_threads(np_):
    """Cap the OpenBLAS thread counts of a run's rank for the body and
    restore them after; a count is never raised. Yields the rank cap,
    max(1, cpu_count // np_), when it lowered a count to it, else 0: no
    OpenBLAS exports the setter, or it already runs at or below the cap.

    Every routine of this module runs in scipy's build, which gets the
    rank cap, so np_ ranks on one host do not oversubscribe it. numpy's
    own build runs only `@` and is held at one thread. Its main work is
    the per-marker GEMM of each block, too small to split: on a 2-core
    host, with each GEMM after a whitening as in a sweep, two threads
    took 0.6-8.8 ms at 100x5000, 800x500 and 2000x2000 (count x n), one
    thread a steady 0.6, 0.4 and 6.5 ms. The p-column products of the
    set-up and the dist engine's panel GEMMs run there too, so at one
    thread. One build shared by numpy and scipy gets the rank cap.

    The pthreads OpenBLAS keeps one count per process, so ranks that are
    threads of one process share it; each restores only a count it
    lowered, which leaves the count as it found it once every rank is
    done.
    """
    cap = max(1, (os.cpu_count() or 1) // np_)
    lowered = []
    for build in _openblas_threads():
        get, put = build
        old, new = get(), 1 if build is _NUMPY_THREADS else cap
        if new < old:
            put(new)
            lowered.append((build, old))
    try:
        yield cap if any(b is not _NUMPY_THREADS for b, _ in lowered) else 0
    finally:
        for (_, put), old in lowered:
            put(old)
