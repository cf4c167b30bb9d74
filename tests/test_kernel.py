import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dpotrf, dtrtri

from gwasgls import kernel
from gwasgls.errors import (
    DimensionMismatch,
    NonFiniteInput,
    NotPositiveDefinite,
    RankDeficientCovariates,
)

from conftest import gls_oracle, make_spd


def maxnorm(A):
    return np.max(np.abs(A))


def statuses(records):
    # the GWAB rule: a marker is degenerate iff its record is all NaN
    return np.where(np.all(np.isnan(records), axis=1), "degenerate", "ok")


class TestCholesky:
    def test_2x2_closed_form(self):
        L = kernel.cholesky_spd(np.array([[4.0, 2.0], [2.0, 5.0]]))
        assert np.allclose(L, [[2.0, 0.0], [1.0, 2.0]])

    def test_identity(self):
        assert np.array_equal(kernel.cholesky_spd(np.eye(3)), np.eye(3))

    def test_factor_residual_genotype_style_matrix(self):
        rng = np.random.default_rng(42)
        G = rng.integers(0, 3, size=(50, 200)).astype(float)
        M = G @ G.T / 200 + np.eye(50)
        L = kernel.cholesky_spd(M)
        assert maxnorm(L @ L.T - M) <= 1e-10 * maxnorm(M)
        assert np.all(np.triu(L, 1) == 0)
        assert np.all(np.diag(L) > 0)

    def test_input_unmodified(self):
        M = make_spd(10, 0)
        M0 = M.copy()
        kernel.cholesky_spd(M)
        assert np.array_equal(M, M0)

    def test_not_positive_definite_reports_pivot(self):
        M = np.eye(4)
        M[2, 2] = -1.0
        with pytest.raises(NotPositiveDefinite) as exc:
            kernel.cholesky_spd(M)
        assert exc.value.pivot_index == 2

    def test_non_finite_rejected(self):
        M = np.eye(3)
        M[1, 1] = np.nan
        with pytest.raises(NotPositiveDefinite):
            kernel.cholesky_spd(M)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatch):
            kernel.cholesky_spd(np.ones((2, 3)))


class TestInverseFactor:
    def test_inverse_of_the_cholesky_factor(self):
        M = make_spd(80, 3)
        L = kernel.cholesky_spd(M)
        Linv = kernel.inverse_factor(np.asfortranarray(M))
        assert maxnorm(Linv @ L - np.eye(80)) <= 1e-12
        assert np.all(np.triu(Linv, 1) == 0)

    def test_overwrites_its_owned_input(self):
        M = np.asfortranarray(make_spd(20, 4))
        assert np.shares_memory(kernel.inverse_factor(M), M)

    def test_same_pivot_as_cholesky_spd(self):
        M = make_spd(8, 5)
        M[5, 5] = -1.0
        with pytest.raises(NotPositiveDefinite) as ref:
            kernel.cholesky_spd(M)
        with pytest.raises(NotPositiveDefinite) as exc:
            kernel.inverse_factor(np.asfortranarray(M))
        assert exc.value.pivot_index == ref.value.pivot_index == 5

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        M = np.eye(3, order="F")
        M[1, 1] = bad
        with pytest.raises(NotPositiveDefinite):
            kernel.inverse_factor(M)

    def test_c_ordered_input_rejected(self):
        with pytest.raises(DimensionMismatch):
            kernel.inverse_factor(np.ascontiguousarray(make_spd(4, 6)))

    def test_non_square_rejected_untouched(self):
        # above BASE rows the recursion would factor the left half first
        M = np.asfortranarray(make_spd(300, 7)[:, :200])
        M0 = M.copy()
        with pytest.raises(DimensionMismatch, match="not square"):
            kernel.inverse_factor(M)
        assert np.array_equal(M, M0)


class TestRecursiveInverseFactor:
    """inverse_factor above kernel.BASE, where it recurses on views."""

    B = kernel.BASE

    @pytest.mark.parametrize("n", [B - 1, B, B + 1, 2 * B + 1, 600, 1001])
    def test_inverse_of_the_cholesky_factor(self, n):
        M = make_spd(n, n)
        L = kernel.cholesky_spd(M)
        Linv = kernel.inverse_factor(np.asfortranarray(M))
        assert maxnorm(Linv @ L - np.eye(n)) <= 1e-12
        assert np.all(np.triu(Linv, 1) == 0)

    @pytest.mark.parametrize("pivot", [200, 299])
    def test_pivot_in_the_trailing_half(self, pivot):
        M = make_spd(300, 8)
        M[pivot, pivot] = -1.0
        with pytest.raises(NotPositiveDefinite) as ref:
            kernel.cholesky_spd(M)
        with pytest.raises(NotPositiveDefinite) as exc:
            kernel.inverse_factor(np.asfortranarray(M))
        assert exc.value.pivot_index == ref.value.pivot_index == pivot

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_in_the_trailing_block(self, bad):
        M = np.asfortranarray(make_spd(300, 9))
        M[250, 240] = M[240, 250] = bad
        with pytest.raises(NotPositiveDefinite):
            kernel.inverse_factor(M)

    @pytest.mark.parametrize("ridge", [1e-1, 1e-4, 1e-7, 1e-9])
    @pytest.mark.parametrize("n", [203, 600])
    def test_residual_within_4x_of_lapack(self, n, ridge):
        # kappa from about 2e1 to 2e9; forming L21 by a multiply with an
        # inverse of L11 in place of the solve read 6-12x here
        G = np.random.default_rng(n).standard_normal((n, n // 4))
        M = G @ G.T / n + ridge * np.eye(n)
        c, _ = dpotrf(M, lower=1, clean=1)
        ref, _ = dtrtri(c, lower=1)
        R = kernel.inverse_factor(np.array(M, order="F"))

        def residual(R):
            return maxnorm(R @ M @ R.T - np.eye(n))

        assert residual(R) <= 4 * residual(ref)

    def test_no_block_temporary(self):
        M = np.asfortranarray(make_spd(1000, 10))
        tracemalloc.start()
        try:
            kernel.inverse_factor(M)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 ** 20, peak

    def test_other_threads_run_meanwhile(self):
        # f2py's dpotrf and dtrtri hold the GIL: during them a counting
        # thread advanced at 2-17% of its idle rate at n=2000. At n=1000
        # the thread's switch-interval slices (5 ms) are a large share of
        # each call, and the f2py route read about 30%.
        G = np.random.default_rng(11).standard_normal((2000, 500))
        M = np.asfortranarray(G @ G.T / 2000 + np.eye(2000))
        count = [0]
        stop = threading.Event()

        def spin():
            while not stop.is_set():
                count[0] += 1

        def rate(work):
            c0, t0 = count[0], time.perf_counter()
            work()
            return (count[0] - c0) / (time.perf_counter() - t0)

        th = threading.Thread(target=spin)
        th.start()
        try:
            idle = rate(lambda: time.sleep(0.1))
            busy = rate(lambda: kernel.inverse_factor(M))
        finally:
            stop.set()
            th.join(timeout=10)
        assert not th.is_alive()
        assert busy >= 0.25 * idle, (busy, idle)


class TestWhiten:
    def test_matches_substitution_in_place(self):
        rng = np.random.default_rng(7)
        M = make_spd(64, 7)
        L = kernel.cholesky_spd(M)
        Linv = kernel.inverse_factor(np.asfortranarray(M))
        B = np.asfortranarray(rng.standard_normal((64, 9)))
        ref = kernel.trsolve_lower(L, B)
        out = kernel.whiten(Linv, B)
        assert np.shares_memory(out, B)
        assert maxnorm(B - ref) <= 1e-12 * maxnorm(ref)

    def test_other_threads_run_meanwhile(self):
        # f2py's dtrmm holds the GIL for the whole call, so a spinning
        # thread advances only at its edges and the block reader cannot
        # start the next load while a block is whitened
        n, k = 1500, 4000
        Linv = kernel.inverse_factor(np.asfortranarray(make_spd(n, 12)))
        B = np.asfortranarray(np.random.default_rng(12).standard_normal((n, k)))
        stamps = [time.perf_counter()]
        stop = threading.Event()

        def spin():
            while not stop.is_set():
                now = time.perf_counter()
                if now - stamps[-1] >= 1e-3:
                    stamps.append(now)

        th = threading.Thread(target=spin)
        th.start()
        try:
            time.sleep(0.02)
            t0 = time.perf_counter()
            kernel.whiten(Linv, B)
            t1 = time.perf_counter()
        finally:
            stop.set()
            th.join(timeout=10)
        assert not th.is_alive()
        assert t1 - t0 >= 0.05, t1 - t0
        assert any(t0 + 0.01 < s < t1 - 0.01 for s in stamps), (t0, t1)

    def test_c_ordered_block_rejected(self):
        Linv = np.eye(4, order="F")
        B = np.ascontiguousarray(np.ones((4, 3)))
        with pytest.raises(DimensionMismatch):
            kernel.whiten(Linv, B)
        assert np.array_equal(B, np.ones((4, 3)))


class TestTrsolve:
    def test_hand_forward_substitution(self):
        L = np.array([[2.0, 0.0], [1.0, 2.0]])
        assert np.array_equal(kernel.trsolve_lower(L, np.array([2.0, 3.0])),
                              np.array([1.0, 1.0]))

    def test_identity_returns_input(self):
        B = np.arange(12.0).reshape(4, 3)
        assert np.array_equal(kernel.trsolve_lower(np.eye(4), B), B)

    def test_residual_random(self):
        rng = np.random.default_rng(1)
        L = np.tril(rng.standard_normal((64, 64))) + 8 * np.eye(64)
        B = rng.standard_normal((64, 8))
        X = kernel.trsolve_lower(L, B)
        assert maxnorm(L @ X - B) / maxnorm(B) <= 1e-12

    def test_column_independence(self):
        rng = np.random.default_rng(2)
        L = np.tril(rng.standard_normal((32, 32))) + 6 * np.eye(32)
        B = rng.standard_normal((32, 5))
        full = kernel.trsolve_lower(L, B)
        one = kernel.trsolve_lower(L, B[:, 2])
        assert np.allclose(full[:, 2], one, rtol=1e-13)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            kernel.trsolve_lower(np.eye(3), np.ones((4, 2)))


class TestGram:
    def test_ones_column(self):
        assert np.array_equal(kernel.gram(np.ones((3, 1))), np.array([[3.0]]))

    def test_identity(self):
        assert np.array_equal(kernel.gram(np.eye(2)), np.eye(2))

    def test_matches_triple_loop(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((10, 3))
        expect = np.empty((3, 3))
        for i in range(3):
            for j in range(3):
                expect[i, j] = sum(A[r, i] * A[r, j] for r in range(10))
        got = kernel.gram(A)
        assert maxnorm(got - expect) <= 1e-13

    def test_exact_stored_symmetry(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((50, 7))
        C = kernel.gram(A)
        assert np.array_equal(C, C.T)


class TestPrepare:
    """Qr = [Q | r] is defined by Q^T Q = I, L Q L_TL^T = XL, Q^T r = 0
    and L r = y - XL beta_T0."""

    def test_identity_covariance(self):
        ctx = kernel.gls_prepare(np.eye(3), np.ones((3, 1)),
                                 np.array([1.0, 2.0, 3.0]))
        assert np.allclose(ctx.Qr[:, :-1], np.ones((3, 1)) / np.sqrt(3))
        assert np.allclose(ctx.Qr[:, -1], [-1.0, 0.0, 1.0])
        assert np.allclose(ctx.S_TL_inv, [[1 / 3]])
        assert np.allclose(ctx.beta_T0, [2.0])

    def test_scalar_covariance(self):
        ctx = kernel.gls_prepare(2.0 * np.eye(3), np.ones((3, 1)),
                                 np.array([1.0, 2.0, 3.0]))
        assert np.allclose(ctx.Qr[:, :-1], np.ones((3, 1)) / np.sqrt(3))
        assert np.allclose(ctx.Qr[:, -1], np.array([-1.0, 0.0, 1.0]) / 2 ** 0.5)
        assert np.allclose(ctx.S_TL_inv, [[1 / 1.5]])
        assert np.allclose(ctx.beta_T0, [2.0])

    def test_residual_invariants_seed42(self):
        rng = np.random.default_rng(42)
        n, p = 100, 4
        M = make_spd(n, 42)
        XL = np.hstack([np.ones((n, 1)), rng.standard_normal((n, p - 2))])
        y = rng.standard_normal(n)
        ctx = kernel.gls_prepare(M, XL, y)
        L = kernel.cholesky_spd(M)
        Q, r = ctx.Qr[:, :-1], ctx.Qr[:, -1]
        L_TL = np.linalg.inv(ctx.L_TL_inv)
        assert maxnorm(Q.T @ Q - np.eye(p - 1)) <= 1e-13
        assert maxnorm(L @ Q @ L_TL.T - XL) <= 1e-10 * maxnorm(XL)
        assert maxnorm(Q.T @ r) <= 1e-13 * maxnorm(r)
        assert maxnorm(L @ r - (y - XL @ ctx.beta_T0)) <= 1e-10 * maxnorm(y)
        XLbar = kernel.trsolve_lower(L, XL)
        S_TL = kernel.gram(XLbar)
        assert np.allclose(ctx.S_TL_inv @ S_TL, np.eye(p - 1))
        ybar = kernel.trsolve_lower(L, y)
        assert np.allclose(S_TL @ ctx.beta_T0, XLbar.T @ ybar)

    def test_covariance_and_covariates_disagree_on_n(self):
        # the whitening's triangular multiply refuses the shapes
        with pytest.raises(DimensionMismatch):
            kernel.gls_prepare(np.eye(4), np.ones((3, 1)), np.zeros(3))

    def test_rank_deficient_covariates(self):
        XL = np.ones((10, 2))  # duplicated intercept
        with pytest.raises(RankDeficientCovariates):
            kernel.gls_prepare(np.eye(10), XL, np.zeros(10))


@pytest.mark.parametrize("q", [1, 3])
def test_public_api_leaves_inputs_unmodified(q):
    # a single Fortran-ordered column is where np.asfortranarray would
    # hand back the caller's own array
    rng = np.random.default_rng(17)
    n = 40
    M = make_spd(n, 17)
    XL = np.asfortranarray(np.hstack([np.ones((n, 1)),
                                      rng.standard_normal((n, q - 1))]))
    y = rng.standard_normal(n)
    X = np.asfortranarray(rng.standard_normal((n, 6)))
    before = [a.copy() for a in (M, XL, y, X)]
    ctx = kernel.gls_prepare(M, XL, y)
    rec = kernel.gls_solve_block(ctx, X, emit_s_inv=True)
    for a, a0 in zip((M, XL, y, X), before):
        assert np.array_equal(a, a0)
    assert not any(np.shares_memory(ctx.Qr, a) for a in (M, XL, y))
    # nor does the context's whitening hold a view of them: overwritten,
    # they leave its records as they were
    for a in (M, XL, y):
        a[...] = np.nan
    assert np.array_equal(kernel.gls_solve_block(ctx, X, emit_s_inv=True), rec)


class TestSolveSmallSpd:
    def test_identity(self):
        assert np.array_equal(
            kernel.solve_small_spd(np.eye(4), np.array([1.0, 2.0, 3.0, 4.0])),
            np.array([1.0, 2.0, 3.0, 4.0]))

    def test_2x2_explicit_inverse(self):
        S = np.array([[4.0, 2.0], [2.0, 5.0]])
        rhs = np.array([8.0, 9.0])
        det = 4 * 5 - 2 * 2
        expect = np.array([(5 * 8 - 2 * 9) / det, (4 * 9 - 2 * 8) / det])
        got = kernel.solve_small_spd(S, rhs)
        assert np.allclose(got, expect, rtol=1e-12)
        assert np.linalg.norm(S @ got - rhs) <= 1e-10 * np.linalg.norm(rhs)

    def test_rank_one_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            kernel.solve_small_spd(np.ones((2, 2)), np.ones(2))


class TestSolveBlock:
    def setup_method(self):
        self.ctx = kernel.gls_prepare(np.eye(3), np.ones((3, 1)),
                                      np.array([1.0, 2.0, 3.0]))

    def test_hand_checkable_ols(self):
        blk = np.array([[0.0], [1.0], [2.0]])
        rec = kernel.gls_solve_block(self.ctx, blk)
        assert statuses(rec)[0] == "ok"
        # X^T X = [[3,3],[3,5]], X^T y = [6,8]
        assert np.allclose(rec[0], [1.0, 1.0])

    def test_collinear_with_intercept_degenerate(self):
        blk = np.ones((3, 1))
        rec = kernel.gls_solve_block(self.ctx, blk)
        assert statuses(rec)[0] == "degenerate"
        assert np.all(np.isnan(rec[0]))
        assert rec.shape == (1, 2)  # p betas, no S^-1

    def test_degenerate_does_not_poison_block(self):
        data = np.column_stack([np.ones(3), [0.0, 1.0, 2.0]])
        for emit_s_inv in (False, True):
            rec = kernel.gls_solve_block(self.ctx, data,
                                         emit_s_inv=emit_s_inv)
            betas, sinv = rec[:, :2], rec[:, 2:]
            assert statuses(rec)[0] == "degenerate"
            assert statuses(rec)[1] == "ok"
            assert np.allclose(betas[1], [1.0, 1.0])
            if emit_s_inv:
                assert np.all(np.isnan(betas[0]))
                assert np.all(np.isnan(sinv[0]))
                # S = [[3,3],[3,5]]: S^-1 = [[5,-3],[-3,3]] / 6
                assert np.allclose(sinv[1], [5 / 6, -0.5, 0.5])

    def test_fixed_block_pivot_fails_under_large_marker(self):
        # max|S| = 5e16 puts the threshold 2 * eps * max|S| near 22, above
        # the S_TL pivot 3, while the marker's own pivot d is about 2e16
        blk = np.array([[0.0], [1e8], [2e8]])
        rec = kernel.gls_solve_block(self.ctx, blk)
        assert statuses(rec)[0] == "degenerate"

    def test_oracle_agreement_seed42(self):
        rng = np.random.default_rng(42)
        n, p, m = 100, 4, 500
        M = make_spd(n, 42)
        XL = np.hstack([np.ones((n, 1)), rng.standard_normal((n, p - 2))])
        y = rng.standard_normal(n)
        X = rng.integers(0, 3, size=(n, m)).astype(float)
        ctx = kernel.gls_prepare(M, XL, y)
        rec = kernel.gls_solve_block(ctx, X)
        for i in range(0, m, 17):
            expect = gls_oracle(M, np.hstack([XL, X[:, i:i + 1]]), y)
            got = rec[i]
            assert maxnorm(got - expect) <= 1e-8 * max(maxnorm(expect), 1.0)

    def test_block_size_independence(self):
        rng = np.random.default_rng(5)
        n, m = 60, 40
        ctx = kernel.gls_prepare(make_spd(n, 6),
                                 np.hstack([np.ones((n, 1)),
                                            rng.standard_normal((n, 2))]),
                                 rng.standard_normal(n))
        X = rng.standard_normal((n, m))
        ref = kernel.gls_solve_block(ctx, X)
        for m_blk in (1, 7, 64):
            parts = []
            for first in range(0, m, m_blk):
                parts.append(kernel.gls_solve_block(
                    ctx, X[:, first:first + m_blk]))
            got = np.vstack(parts)
            assert maxnorm(got - ref) <= 1e-12 * max(maxnorm(ref), 1.0)

    def test_column_permutation_bitwise(self):
        rng = np.random.default_rng(7)
        n, m = 48, 23
        ctx = kernel.gls_prepare(make_spd(n, 8),
                                 np.hstack([np.ones((n, 1)),
                                            rng.standard_normal((n, 2))]),
                                 rng.standard_normal(n))
        X = np.asfortranarray(rng.standard_normal((n, m)))
        perm = rng.permutation(m)
        b0 = kernel.gls_solve_block(ctx, X)
        b1 = kernel.gls_solve_block(ctx, np.asfortranarray(X[:, perm]))
        assert np.array_equal(b0[perm], b1)

    def test_emit_s_inv(self):
        rng = np.random.default_rng(11)
        n = 30
        M = make_spd(n, 12)
        XL = np.hstack([np.ones((n, 1)), rng.standard_normal((n, 2))])
        ctx = kernel.gls_prepare(M, XL, rng.standard_normal(n))
        X = rng.standard_normal((n, 4))
        rec = kernel.gls_solve_block(ctx, X, emit_s_inv=True)
        p = ctx.Qr.shape[1]
        L = kernel.cholesky_spd(M)
        XLbar = kernel.trsolve_lower(L, XL)
        il, jl = np.tril_indices(p)
        for i in range(X.shape[1]):
            S = np.empty((p, p))
            xb = kernel.trsolve_lower(L, X[:, i])
            S[:p - 1, :p - 1] = kernel.gram(XLbar)
            S[p - 1, :p - 1] = S[:p - 1, p - 1] = XLbar.T @ xb
            S[p - 1, p - 1] = xb @ xb
            Sinv = np.linalg.inv(S)
            assert maxnorm(rec[i, p:] - Sinv[il, jl]) <= 1e-8 * maxnorm(Sinv)


class TestFieldMajorSolve:
    """The block solve against an independent reference: per marker, the
    bordered S_k and its inverse from np.linalg, with no hoisting."""

    ZERO, COLLINEAR = 3, 5

    @pytest.mark.parametrize("p", [2, 4, 7])
    def test_records_match_bordered_inverse(self, p):
        rng = np.random.default_rng(100 + p)
        n, count = 40, 12
        M = make_spd(n, p)
        XL = np.hstack([np.ones((n, 1)), rng.standard_normal((n, p - 2))])
        y = rng.standard_normal(n)
        X = rng.standard_normal((n, count))
        X[:, self.ZERO] = 0.0
        X[:, self.COLLINEAR] = 1.0  # the intercept covariate
        ctx = kernel.gls_prepare(M, XL, y)
        out = np.full((count + 2, p + p * (p + 1) // 2), -7.0)
        rec = kernel.solve_whitened_block(
            ctx, ctx.whiten(np.asfortranarray(X)), out, emit_s_inv=True)
        # the records are the leading rows of out, betas then packed S^-1
        assert rec.shape == (count, out.shape[1])
        assert np.shares_memory(rec, out)
        assert np.array_equal(out[:count], rec, equal_nan=True)
        assert np.all(out[count:] == -7.0)
        betas, sinv = rec[:, :p], rec[:, p:]
        Lc = np.linalg.cholesky(M)
        il, jl = np.tril_indices(p)
        degenerate = (self.ZERO, self.COLLINEAR)
        for k in range(count):
            if k in degenerate:
                assert np.all(np.isnan(rec[k])), k
                continue
            W = np.linalg.solve(Lc, np.column_stack([XL, X[:, k], y]))
            S = W[:, :p].T @ W[:, :p]
            Sinv = np.linalg.inv(S)
            beta = Sinv @ (W[:, :p].T @ W[:, p])
            assert maxnorm(betas[k] - beta) <= 1e-10 * maxnorm(beta), k
            err = maxnorm(sinv[k] - Sinv[il, jl])
            assert err <= 1e-10 * maxnorm(Sinv), k

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_column_is_refused_by_its_index(self, bad):
        # not flagged as degenerate: the first such column of the block is
        # named, and no record is written
        rng = np.random.default_rng(7)
        n, count = 40, 12
        ctx = kernel.gls_prepare(make_spd(n, 3), np.ones((n, 1)),
                                 rng.standard_normal(n))
        X = rng.standard_normal((n, count))
        X[n - 1, 8] = X[0, 10] = bad
        out = np.full((count, 2), -7.0)
        with pytest.raises(NonFiniteInput) as err:
            kernel.solve_whitened_block(
                ctx, ctx.whiten(np.asfortranarray(X)), out)
        assert err.value.marker == 8
        assert np.all(out == -7.0)

    def test_small_solves_make_no_block_sized_temporary(self):
        # the fields are count-long rows: the scratch of w = 14 record
        # rows, Qr^T Xbar (p rows), u (p - 1), S_BR, d and a transient
        # mask read 27.2 rows here; one n x count array is 1000 rows
        rng = np.random.default_rng(5)
        n, count, p = 1000, 2000, 4
        ctx = kernel.gls_prepare(make_spd(n, 5),
                                 np.hstack([np.ones((n, 1)),
                                            rng.standard_normal((n, p - 2))]),
                                 rng.standard_normal(n))
        Xbar = ctx.whiten(np.asfortranarray(rng.standard_normal((n, count))))
        out = np.empty((count, kernel.record_width(p, True)))
        tracemalloc.start()
        try:
            kernel.solve_whitened_block(ctx, Xbar, out, emit_s_inv=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 8 * count, peak / (8 * count)


class TestOracle:
    def test_ols_case(self):
        Xi = np.column_stack([np.ones(3), [0.0, 1.0, 2.0]])
        y = np.array([1.0, 2.0, 3.0])
        assert np.allclose(gls_oracle(np.eye(3), Xi, y), [1.0, 1.0])

    @pytest.mark.parametrize("c", [0.5, 3.0, 1000.0])
    def test_scale_invariance(self, c):
        rng = np.random.default_rng(13)
        n = 40
        M = make_spd(n, 14)
        Xi = np.column_stack([np.ones(n), rng.standard_normal((n, 3))])
        y = rng.standard_normal(n)
        b1 = gls_oracle(M, Xi, y)
        b2 = gls_oracle(c * M, Xi, y)
        assert maxnorm(b1 - b2) <= 1e-9 * maxnorm(b1)

    def test_cross_check_with_block_solver(self):
        rng = np.random.default_rng(42)
        n = 64
        M = make_spd(n, 15)
        XL = np.hstack([np.ones((n, 1)), rng.standard_normal((n, 2))])
        y = rng.standard_normal(n)
        x = rng.integers(0, 3, n).astype(float)
        ctx = kernel.gls_prepare(M, XL, y)
        got = kernel.gls_solve_block(ctx, x[:, None])[0]
        expect = gls_oracle(M, np.hstack([XL, x[:, None]]), y)
        assert maxnorm(got - expect) <= 1e-8 * maxnorm(expect)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(8, 40), q=st.integers(1, 4), seed=st.integers(0, 10**6))
def test_structured_matches_naive_property(n, q, seed):
    rng = np.random.default_rng(seed)
    M = make_spd(n, seed)
    XL = np.hstack([np.ones((n, 1)), rng.standard_normal((n, q - 1))]) \
        if q > 1 else np.ones((n, 1))
    y = rng.standard_normal(n)
    X = rng.standard_normal((n, 5))
    ctx = kernel.gls_prepare(M, XL, y)
    rec = kernel.gls_solve_block(ctx, X)
    for i in range(5):
        expect = gls_oracle(M, np.hstack([XL, X[:, i:i + 1]]), y)
        assert maxnorm(rec[i] - expect) <= 1e-8 * max(maxnorm(expect), 1.0)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(5, 30), seed=st.integers(0, 10**6))
def test_identity_reduction_matches_normal_equations(n, seed):
    rng = np.random.default_rng(seed)
    XL = np.hstack([np.ones((n, 1)), rng.standard_normal((n, 1))])
    y = rng.standard_normal(n)
    x = rng.standard_normal(n)
    ctx = kernel.gls_prepare(np.eye(n), XL, y)
    got = kernel.gls_solve_block(ctx, x[:, None])[0]
    Xi = np.hstack([XL, x[:, None]])
    expect = np.linalg.solve(Xi.T @ Xi, Xi.T @ y)  # independent OLS route
    assert maxnorm(got - expect) <= 1e-10 * max(maxnorm(expect), 1.0)


def test_p_extremes_structured_vs_naive():
    rng = np.random.default_rng(16)
    n = 120
    for p in (2, 4, 20):
        M = make_spd(n, p)
        XL = np.hstack([np.ones((n, 1)), rng.standard_normal((n, p - 2))]) \
            if p > 2 else np.ones((n, 1))
        y = rng.standard_normal(n)
        X = rng.standard_normal((n, 8))
        ctx = kernel.gls_prepare(M, XL, y)
        rec = kernel.gls_solve_block(ctx, X)
        for i in range(8):
            expect = gls_oracle(M, np.hstack([XL, X[:, i:i + 1]]), y)
            assert maxnorm(rec[i] - expect) <= 1e-8 * max(maxnorm(expect), 1.0)
