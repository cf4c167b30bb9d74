import os

import numpy as np
import pytest

from gwasgls import _blas
from gwasgls.errors import DimensionMismatch


def _read_only(a):
    a.flags.writeable = False
    return a


BAD_VIEWS = {
    "c-ordered": lambda: np.zeros((6, 6)),
    "float32": lambda: np.zeros((6, 6), dtype=np.float32, order="F"),
    "row-strided": lambda: np.zeros((12, 6), order="F")[::2],
    "column-stride-below-rows": lambda: np.lib.stride_tricks.as_strided(
        np.zeros(64), shape=(6, 6), strides=(8, 16)),
    "read-only": lambda: _read_only(np.zeros((6, 6), order="F")),
}


@pytest.mark.parametrize("make", BAD_VIEWS.values(), ids=BAD_VIEWS.keys())
def test_rejects_a_layout_blas_cannot_take_in_place(make):
    with pytest.raises(DimensionMismatch):
        _blas.potrf(make())


def test_rejects_disagreeing_shapes():
    L = np.eye(4, order="F")
    with pytest.raises(DimensionMismatch):
        _blas.trmm("L", 1.0, L, np.zeros((5, 2), order="F"))
    with pytest.raises(DimensionMismatch):
        _blas.gemm_nt(1.0, np.zeros((3, 2), order="F"),
                      np.zeros((4, 3), order="F"), 0.0, np.zeros((3, 4), order="F"))


def test_calls_work_on_views_in_place():
    # sub-blocks of one column-major array, leading dimension 9
    rng = np.random.default_rng(0)
    A = np.asfortranarray(rng.standard_normal((9, 9)))
    L = np.tril(A[:4, :4]) + 4 * np.eye(4)
    A[:4, :4] = L
    B = A[4:, :4]
    want = B @ np.linalg.inv(L).T
    _blas.trsm("R", "T", A[:4, :4], B)
    np.testing.assert_allclose(A[4:, :4], want, rtol=1e-12, atol=1e-14)
    before = A.copy()
    _blas.zero_strict_upper(A[1:7, 3:9])
    want = before.copy()
    want[1:7, 3:9] = np.tril(before[1:7, 3:9])
    assert np.array_equal(A, want)


def test_a_missing_export_fails_with_one_line_naming_it():
    with pytest.raises(ImportError, match="scipy_dnosuch_64_") as e:
        _blas._bind("scipy_dnosuch_64_", "")
    assert "\n" not in str(e.value)


def test_rank_cap_counts_the_cpus_the_process_may_use(monkeypatch):
    # a process bound to one CPU runs one BLAS thread, however many CPUs
    # the host has, as OpenBLAS's own default does under taskset
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    before = _blas.threads()
    with _blas.rank_threads(1):
        assert _blas.threads() == 1
    assert _blas.threads() == before
