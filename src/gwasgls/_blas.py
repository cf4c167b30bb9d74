"""In-place BLAS/LAPACK calls on strided float64 views, and the OpenBLAS
thread count of a run. The one-rank engine factors and inverts the
covariance and whitens every block through this module alone; the dist
kernels factor and update their panels, and whiten blocks and
[XL | y] with them, through it.

A run has one BLAS: the scipy-openblas64 build that numpy bundles, which
runs numpy's `@` and exports its BLAS and LAPACK routines as
`scipy_<routine>_64_`, with 64-bit integer arguments. These functions
call them by ctypes, through the handle of numpy's linalg extension, in
the caller's memory: a level-3 call on a sub-block of a larger matrix
runs on the sub-block, not on a copy. An operand is a column-major view:
unit row stride, leading dimension its column stride. ctypes releases
the GIL for the duration of each call, so other Python threads (the
block reader and writer) run while it computes. All triangular operands
are lower and non-unit. A numpy without those symbols fails the import
with one line that names the first one missing.
"""

from __future__ import annotations

import ctypes
import os
from contextlib import contextmanager

import numpy as np

from .errors import DimensionMismatch

_LIB = ctypes.CDLL(np.linalg._umath_linalg.__file__)
_ARG = {"c": ctypes.c_char_p, "i": ctypes.POINTER(ctypes.c_int64),
        "d": ctypes.POINTER(ctypes.c_double), "a": ctypes.c_void_p,
        "n": ctypes.c_int}


def _bind(symbol, codes, restype=None):
    """ctypes function for numpy's OpenBLAS export `symbol`; codes gives
    one argument type per character: c char*, i int64*, d double*,
    a array, n int."""
    try:
        f = getattr(_LIB, symbol)
    except AttributeError:
        raise ImportError(f"numpy's OpenBLAS exports no {symbol}; gwasgls "
                          "needs numpy's bundled scipy-openblas64") from None
    f.argtypes, f.restype = [_ARG[c] for c in codes], restype
    return f


_dpotrf = _bind("scipy_dpotrf_64_", "ciaii")
_dtrtri = _bind("scipy_dtrtri_64_", "cciaii")
_dlaset = _bind("scipy_dlaset_64_", "ciiddai")
_dtrsm = _bind("scipy_dtrsm_64_", "cccciidaiai")
_dtrmm = _bind("scipy_dtrmm_64_", "cccciidaiai")
_dsyrk = _bind("scipy_dsyrk_64_", "cciidaidai")
_dgemm = _bind("scipy_dgemm_64_", "cciiidaiaidai")
# threads() is the OpenBLAS thread count in force
threads = _bind("scipy_openblas_get_num_threads64_", "", ctypes.c_int)
_set_threads = _bind("scipy_openblas_set_num_threads64_", "n")


def _i(v):
    return ctypes.byref(ctypes.c_int64(v))


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
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
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
    info = ctypes.c_int64(0)
    _dpotrf(b"L", _i(n), pa, _i(lda), ctypes.byref(info))
    return _info(info, "dpotrf")


def trtri(a):
    """Lower triangle of a replaced by its inverse; returns LAPACK's info,
    k > 0 meaning diagonal entry k - 1 is zero."""
    n = _square(a)
    pa, lda = _view(a, written=True)
    info = ctypes.c_int64(0)
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
    _gemm(b"T", alpha, a, b, beta, c)


def gemm_nn(alpha, a, b, beta, c):
    """c <- alpha a b + beta c."""
    _gemm(b"N", alpha, a, b, beta, c)


def _gemm(trans_b, alpha, a, b, beta, c):
    m, n = c.shape
    k = a.shape[1]
    op_b = b.T if trans_b == b"T" else b
    if a.shape[0] != m or op_b.shape != (k, n):
        raise DimensionMismatch(f"gemm: {a.shape} times {op_b.shape} into {c.shape}")
    pa, lda = _view(a)
    pb, ldb = _view(b)
    pc, ldc = _view(c, written=True)
    if m and n:
        _dgemm(b"N", trans_b, _i(m), _i(n), _i(k), _d(alpha), pa, _i(lda),
               pb, _i(ldb), _d(beta), pc, _i(ldc))


@contextmanager
def rank_threads(np_):
    """Cap OpenBLAS at max(1, cpus // np_) threads for the body, cpus the
    size of the process's CPU set, so np_ ranks do not oversubscribe the
    CPUs they may run on, and restore the count after; a count is never
    raised.

    OpenBLAS keeps one count per process, which forked ranks inherit, so a
    run sets it once, before its ranks start (transport.run_spmd, through
    which every engine runs): every rank then runs at that count, and no
    forked rank calls the setter, which would restart the thread pool in
    that rank.
    """
    cap = max(1, len(os.sched_getaffinity(0)) // np_)
    old = threads()
    if cap < old:
        _set_threads(cap)
    try:
        yield
    finally:
        if cap < old:
            _set_threads(old)
