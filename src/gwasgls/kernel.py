"""Dense linear-algebra core for the structured GLS sweep.

Solves, for each genetic marker i, the generalized least-squares problem

    b_i = (X_i^T M^-1 X_i)^-1 X_i^T M^-1 y

by whitening with the Cholesky factor M = L L^T. The covariate part of
X_i is shared across markers, so everything that does not depend on the
marker column is hoisted into a PreparedContext and reused for every
block of marker columns.

The in-core and streaming engines whiten with L^-1, formed once in the
memory of M by inverse_factor (a recursion on halves of M in level-3
BLAS, down to dpotrf and dtrtri on blocks of at most BASE rows): each
block is one in-place triangular multiply (dtrmm) in the buffer it was
read into, instead of a triangular solve (dtrsm) into a new array. The
factorizations, the inversions and the whitening call LAPACK and BLAS
through _blas, which releases the GIL, so the block reader and writer
threads run while a block is whitened. The covariate-only fit is
hoisted too, as [Q | r] (PreparedContext), so a block's per-marker
products are one GEMM against it, and each marker's bordered solve is
one Frisch-Waugh-Lovell step; those of all its markers are one array
pass, field by field over count-long rows, whose last step writes
every marker's GWAB record (p betas, then the packed S^-1 when asked
for) as one row of the caller's count x record-width array, the
block's only result. The engines pass the staging area their writer
stores from. Each step of the distributed Cholesky is factor_panel,
and _pivot judges every factor, the small ones too; cholesky_spd and
trsolve_lower remain the substitution route, the tests' reference;
they and the small solves go through _blas too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _blas
from .errors import (
    DimensionMismatch,
    NonFiniteInput,
    NotPositiveDefinite,
    RankDeficientCovariates,
)

EPS = 2.0 ** -52
# largest order the recursions of inverse_factor hand to LAPACK whole
BASE = 128


@dataclass
class PreparedContext:
    """Marker-independent quantities, computed once per dataset.

    Linv is L^-1 for the Cholesky factor L of M, Fortran-ordered in the
    memory of the M it was formed from (the dist engine, which whitens
    with its distributed L, leaves it n x 0). With XLbar and ybar the
    whitened covariates and phenotype and L_TL the Cholesky factor of
    S_TL = XLbar^T XLbar, the fixed block of the normal equations, Qr
    holds Q = XLbar L_TL^-T, an orthonormal basis of the covariates, then
    ybar's residual r = ybar - Q Q^T ybar on them. L_TL_inv = L_TL^-1,
    minpivot_TL is L_TL's smallest pivot, beta_T0 = S_TL^-1 XLbar^T ybar,
    S_TL_inv = S_TL^-1, tril its np.tril_indices and max_S_TL = max|S_TL|.
    """

    Linv: np.ndarray      # n x n lower triangular, Fortran order
    Qr: np.ndarray        # n x p, Fortran order
    L_TL_inv: np.ndarray  # (p-1) x (p-1) lower triangular
    minpivot_TL: float
    beta_T0: np.ndarray   # p-1
    S_TL_inv: np.ndarray  # (p-1) x (p-1)
    tril: tuple           # np.tril_indices(p - 1)
    max_S_TL: float

    @property
    def n(self):
        return self.Qr.shape[0]

    @property
    def p(self):
        return self.Qr.shape[1]


def cholesky_spd(M):
    """Lower Cholesky factor of an SPD matrix.

    The input is not modified. Raises NotPositiveDefinite (carrying the
    0-based pivot index) when a pivot is non-positive or non-finite.
    """
    L = np.array(M, dtype=np.float64, order="F")
    _pivot(L, _blas.potrf(L), 0)
    _blas.zero_strict_upper(L)
    return L


def _pivot(A, info, offset, floor=0.0):
    """The one rule every factor is judged by: raise NotPositiveDefinite
    at the first pivot that dpotrf (info > 0 stops it at pivot info - 1)
    failed, left non-finite, or left with a square <= floor in the block
    A, whose first row is row `offset` of the whole matrix. OpenBLAS
    passes a NaN pivot; a non-finite entry below the diagonal reaches its
    row's pivot."""
    done = info - 1 if info > 0 else A.shape[0]
    d = np.diagonal(A)[:done]
    bad = np.flatnonzero(~(np.isfinite(d) & (d * d > floor)))
    if bad.size or info > 0:
        raise NotPositiveDefinite(offset + (int(bad[0]) if bad.size else done))


def inverse_factor(M):
    """Overwrite M with L^-1, the inverse of its lower Cholesky factor,
    and return it.

    M must be an n x n Fortran-ordered float64 array the caller owns; the
    factor and its inverse are formed in its memory with the strict upper
    triangle zeroed, and no n x n or smaller block temporary is made.
    Raises NotPositiveDefinite like cholesky_spd, with the global pivot
    index.

    Both steps recurse on halves of M in place (_factor, then invert_lower)
    down to dpotrf and dtrtri on blocks of at most BASE rows, so nearly all
    of the n^3/3 + n^3/3 flops run in dgemm, dsyrk and dtrmm on views of
    M; the recursion is the recursive blocked Cholesky and triangular
    inverse of Elmroth, Gustavson, Jonsson & Kagstrom (SIAM Review 46(1),
    2004).
    """
    if M.ndim != 2 or M.shape[0] != M.shape[1]:  # before any of it is overwritten
        raise DimensionMismatch(f"covariance is {M.shape}, not square")
    _factor(M, 0)
    invert_lower(M)
    _blas.zero_strict_upper(M)
    return M


def _factor(A, offset):
    """Lower Cholesky factor of the view A in place; its upper triangle is
    left as it was. offset is A's first row in the whole matrix, so a
    failed pivot is reported by its global index."""
    n = A.shape[0]
    if n <= BASE:
        _pivot(A, _blas.potrf(A), offset)
        return
    h = n // 2
    factor_panel(A[:, :h], offset)
    _blas.syrk(-1.0, A[h:, :h], 1.0, A[h:, h:])
    _factor(A[h:, h:], offset + h)


def factor_panel(P, offset):
    """Column panel P = [A11; A21] in place: L11 in A11's lower triangle,
    then L21 = A21 L11^-T. offset is P's first row in the whole matrix."""
    h = P.shape[1]
    _factor(P[:h], offset)
    _solve_right(P[:h], P[h:])


def _solve_right(L, B):
    """B <- B L^-T for lower triangular L, by halves of L: a substitution
    (dtrsm) on each diagonal half and a dgemm between them. Forming it by
    a multiply with an inverse of L instead lost accuracy on
    ill-conditioned covariances."""
    k = L.shape[0]
    if k <= BASE:
        _blas.trsm("R", "T", L, B)
        return
    h = k // 2
    _solve_right(L[:h, :h], B[:, :h])
    _blas.gemm_nt(-1.0, B[:, :h], L[h:, :h], 1.0, B[:, h:])
    _solve_right(L[h:, h:], B[:, h:])


def invert_lower(L):
    """Lower triangle of the view L replaced by its inverse, using
    [[A, 0], [B, C]]^-1 = [[A^-1, 0], [-C^-1 B A^-1, C^-1]]."""
    n = L.shape[0]
    if n <= BASE:
        info = _blas.trtri(L)
        if info != 0:
            raise ValueError(f"dtrtri returned info={info}")
        return
    h = n // 2
    invert_lower(L[:h, :h])
    invert_lower(L[h:, h:])
    _blas.trmm("R", 1.0, L[:h, :h], L[h:, :h])
    _blas.trmm("L", -1.0, L[h:, h:], L[h:, :h])


def whiten(Linv, B):
    """Overwrite B with Linv @ B, one triangular multiply, and return it.

    B (n x k) and Linv must be column-major float64 views; anything else
    raises DimensionMismatch (from _blas) rather than being copied. The
    multiply releases the GIL.
    """
    _blas.trmm("L", 1.0, Linv, B)
    return B


def trsolve_lower(L, B):
    """Solve L X = B for X with L lower triangular; B, one column or
    several, is not modified."""
    return _substitute(L, B, "N")


def cho_solve(L, B):
    """Solve L L^T X = B for X, given the lower Cholesky factor L; B, one
    column or several, is not modified."""
    return _substitute(L, B, "N", "T")


def _substitute(L, B, *trans):
    """op(L)^-1 B for each op in turn, L (trans "N") or L^T ("T"), on a
    column-major copy of B."""
    B = np.asarray(B, dtype=np.float64)
    X = np.array(B[:, None] if B.ndim == 1 else B, order="F")
    L = np.asfortranarray(L, dtype=np.float64)
    for t in trans:
        _blas.trsm("L", t, L, X)
    return X.reshape(B.shape)


def gram(A):
    """A^T A with exact stored symmetry (lower triangle computed, mirrored)."""
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2:
        raise DimensionMismatch("gram expects a matrix")
    C = A.T @ A
    low = np.tril(C)
    return low + np.tril(C, -1).T


def _small_cholesky(S):
    """Lower Cholesky factor of one small SPD matrix under the one pivot
    rule (_pivot), with the floor p * eps * max|S| on a pivot's square."""
    c = np.array(S, dtype=np.float64, order="F")
    _pivot(c, _blas.potrf(c), 0, S.shape[0] * EPS * np.max(np.abs(S)))
    _blas.zero_strict_upper(c)
    return c


def solve_small_spd(S, rhs):
    """Solve one small SPD system S x = rhs via Cholesky, under the same
    pivot rule as the sweep."""
    return cho_solve(_small_cholesky(S), rhs)


def prepare_whitened(Linv, XLybar):
    """Context from the whitened covariates and phenotype [XLbar | ybar]
    (n x p, Fortran order), which it overwrites with the context's Qr:
    form the fixed block S_TL of the normal equations and factor it once,
    then fit ybar on the covariates once (PreparedContext).

    Shared by every engine. Raises RankDeficientCovariates when S_TL fails
    the pivot rule.
    """
    # XLbar and ybar, which become Q and r in their own memory
    Q, r = XLybar[:, :-1], XLybar[:, -1]
    S_TL = gram(Q)
    try:
        L_TL = _small_cholesky(S_TL)
    except NotPositiveDefinite as e:
        raise RankDeficientCovariates(
            f"whitened covariates are rank deficient (pivot {e.pivot_index})"
        ) from e
    _solve_right(L_TL, Q)
    c = Q.T @ r
    r -= Q @ c
    L_TL_inv = L_TL.copy(order="F")
    invert_lower(L_TL_inv)
    return PreparedContext(
        Linv=Linv, Qr=XLybar, L_TL_inv=L_TL_inv,
        minpivot_TL=float(np.min(np.diag(L_TL)) ** 2),
        beta_T0=_substitute(L_TL, c, "T"), S_TL_inv=L_TL_inv.T @ L_TL_inv,
        tril=np.tril_indices(S_TL.shape[0]),
        max_S_TL=float(np.max(np.abs(S_TL))))


def gls_prepare(M, XL, y):
    """Hoist all marker-independent work: factor M, whiten XL and y, and
    factor the fixed block of the normal equations.

    O(n^3) once, regardless of the number of markers. The inputs are
    copied, never modified.
    """
    XL = np.asarray(XL, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    if XL.ndim != 2 or y.shape != (XL.shape[0],):
        raise DimensionMismatch(f"prepare: XL is {XL.shape}, y {y.shape}")
    XLy = np.asfortranarray(np.column_stack([XL, y]))
    # np.array copies M even where np.asfortranarray would return it
    Linv = inverse_factor(np.array(M, dtype=np.float64, order="F"))
    return prepare_whitened(Linv, whiten(Linv, XLy))


def record_width(p, want_inverse):
    """Reals in one marker's GWAB record: p betas, then, when
    want_inverse, the p(p+1)/2 of the packed lower triangle of S^-1."""
    return p + (p * (p + 1) // 2 if want_inverse else 0)


def cholesky_solve_batch(ctx, Qrt_X, S_BR, out, want_inverse=False):
    """Solve the bordered systems of a block of markers and write their
    records.

    Qrt_X = Qr^T Xbar is p x count, column k holding marker k's l = Q^T
    xbar, then e = r^T xbar. Marker k's system has the Gram matrix S_k =
    [[S_TL, S_BL[k]^T], [S_BL[k], S_BR[k]]]. S_TL's factor is shared, so
    the last Cholesky pivot d = S_BR[k] - |l|^2 is the only per-marker
    step, and the solve is Frisch-Waugh-Lovell's: beta_B = e / d and
    beta_T = beta_T0 - u beta_B, u = L_TL^-T l. A marker is degenerate,
    with an all-NaN record, iff min(minpivot_TL, d) <= p * eps * max|S_k|
    or d is not finite; max|S_k| = max(max|S_TL|, S_BR[k]) by
    Cauchy-Schwarz.

    Every field is computed for all markers at once, as a count-long row
    of one scratch array, and the rows are then written, transposed, as
    count records of record_width(p, want_inverse) reals: p betas, then
    (want_inverse) the lower triangle of S_k^-1 in np.tril_indices order.
    The records go to the leading rows and columns of `out` (at least
    count x record width); returns that count x width view of it.
    """
    q, count = ctx.L_TL_inv.shape[0], Qrt_X.shape[1]
    p = q + 1
    l = Qrt_X[:q]
    d = S_BR - np.einsum("ij,ij->j", l, l)
    max_S = np.maximum(ctx.max_S_TL, S_BR)
    ok = np.isfinite(d) & (np.minimum(ctx.minpivot_TL, d) > p * EPS * max_S)
    # a NaN pivot turns every field of a degenerate marker's record NaN
    d = np.where(ok, d, np.nan)
    u = ctx.L_TL_inv.T @ l  # S_TL^-1 S_BL^T, q x count
    R = np.empty((record_width(p, want_inverse), count))
    beta_B = np.divide(Qrt_X[q], d, out=R[q])
    np.multiply(u, beta_B, out=R[:q])
    np.subtract(ctx.beta_T0[:, None], R[:q], out=R[:q])
    if want_inverse:
        # block inverse: [[S_TL^-1 + u u^T / d, -u / d], [-u^T / d, 1 / d]];
        # the tril order lists the q x q block first, then the last row
        w = np.divide(u, d, out=R[-p:-1])
        tl = R[p:-p]
        for row, (i, j) in zip(tl, zip(*ctx.tril)):
            np.multiply(u[i], w[j], out=row)
        tl += ctx.S_TL_inv[ctx.tril][:, None]
        np.negative(w, out=w)
        np.divide(1.0, d, out=R[-1])
    records = out[:count, :R.shape[0]]
    records[...] = R.T
    return records


def solve_whitened_block(ctx, Xbar, out, emit_s_inv=False):
    """Normal-equations assembly and bordered solve for already-whitened
    marker columns Xbar (n x count); returns the block's records, written
    to `out` as cholesky_solve_batch writes them. Shared by the in-core,
    streaming and distributed engines, which pass the staging area of
    the block's buffer region as `out`. Raises NonFiniteInput, with the
    block's column as its marker, at the first column that holds a NaN
    or infinite entry."""
    # S_BR needs only the diagonal of Xbar^T Xbar. L^-1 has a non-zero
    # diagonal, so a marker's S_BR is non-finite when its column holds a
    # non-finite entry (or its whitening overflows): one sum checks the
    # block, before the GEMM would warn of an infinite entry
    S_BR = np.einsum("ij,ij->j", Xbar, Xbar)
    if not np.isfinite(S_BR.sum()):
        bad = np.flatnonzero(~np.isfinite(S_BR))
        if bad.size:
            raise NonFiniteInput(f"marker column {bad[0]} is not finite",
                                 int(bad[0]))
    Qrt_X = ctx.Qr.T @ Xbar  # [Q^T Xbar; r^T Xbar] in one GEMM
    return cholesky_solve_batch(ctx, Qrt_X, S_BR, out, want_inverse=emit_s_inv)


def gls_solve_block(ctx, X, emit_s_inv=False):
    """Records of every marker column of X (n x count) against the
    prepared context, in a new count x record_width(p, emit_s_inv) array.

    The whitening of all columns is one triangular multiply, on a copy of
    X, which is not modified; the mixed products are per-column
    reductions. Markers whose small system is numerically singular are
    flagged degenerate (all-NaN record) without aborting the rest of the
    block.
    """
    if X.ndim != 2 or X.shape[0] != ctx.n:
        raise DimensionMismatch(f"block is {X.shape}, context has n={ctx.n}")
    Xbar = whiten(ctx.Linv, np.array(X, dtype=np.float64, order="F"))
    out = np.empty((X.shape[1], record_width(ctx.p, emit_s_inv)))
    return solve_whitened_block(ctx, Xbar, out, emit_s_inv)
