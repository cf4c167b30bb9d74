"""Distributed-memory engine: the covariance matrix and its Cholesky
factor live element-cyclic on a 2D process grid, and marker blocks never
leave the rank that read them. The engine is pipeline.stream; this module
gives it the prepare of np > 1 ranks and the distributed kernels.
No rank holds the whole covariance: each reads its own share from the
file and checks it against its mirror (fileio.read_covariance), with
no message sent. dist_cholesky factors M in its shares, updating
each in place, and whitens a replicated right-hand side such as [XL | y]
with each panel as it is factored; besides its share, a rank holds one
(n - k) x nb column panel and its pieces. Each rank whitens its own
chunk of every block, as full columns, in place by a right-looking
forward substitution over the column panels of L, replicated one at a
time, so the sweep moves panels of L and no genotype data. Each panel
step (_substitute, which dist_cholesky's whitening takes too) is a
triangular multiply by the inverse of the panel's diagonal block and
one rank-nb GEMM below it, and the next panel is sent before the step
runs. A block is the ooc engine's, split evenly across ranks, so each
replication of L is paid once per wide block. A rank's entries of any
window are a slice of its local array that lands in a strided slice of
the window, so every layout change, and every panel, moves by slicing,
with no index arrays. Shares, panels and the bytes of every message
are column-major, the layout _blas works in.

Index maps:
    2D: element (i, j) is owned by grid process (i mod r, j mod c) at
        local position (i div r, j div c).
    1D: column j is owned by rank (j mod np) at local column (j div np),
        ranks enumerated as the row-major concatenation of the grid rows.
        Only the library redistributions below use it. Since c divides
        np, every column of 1D rank s lies in grid column s mod c, so a
        redistribution pairs s only with the ranks = s (mod c).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _blas, fileio, kernel, pipeline
from .errors import ConfigError, DimensionMismatch

DEFAULT_PANEL = 64
# n-row columns of set-up scratch beside the share: the larger of
# read_share's one n x fileio.RUN buffer and dist_cholesky's panel, the
# pieces of its exchange and the strided copies its update reads, which
# tests hold to four n x DEFAULT_PANEL
SETUP_COLS = 4 * DEFAULT_PANEL


@dataclass(frozen=True)
class GridLayout:
    np_: int
    r: int
    c: int

    def coord(self, rank):
        return rank // self.c, rank % self.c


def grid_create(np_):
    """Process grid as close to a perfect square as possible:
    r = largest divisor of np with r <= sqrt(np)."""
    if np_ < 1:
        raise ConfigError("need at least one rank")
    r = 1
    for d in range(1, int(np.sqrt(np_)) + 1):
        if np_ % d == 0:
            r = d
    return GridLayout(np_=np_, r=r, c=np_ // r)


@dataclass
class DistMatrix2D:
    gr: int
    gc: int
    grid: GridLayout
    local: np.ndarray  # rows i = prow (mod r), cols j = pcol (mod c); Fortran

    @classmethod
    def empty(cls, gr, gc, grid, rank):
        prow, pcol = grid.coord(rank)
        shape = (len(range(prow, gr, grid.r)), len(range(pcol, gc, grid.c)))
        return cls(gr=gr, gc=gc, grid=grid, local=np.empty(shape, order="F"))


@dataclass
class DistMatrix1D:
    gr: int
    gc: int
    grid: GridLayout
    local: np.ndarray  # full columns j = rank (mod np), global order kept; Fortran

    @classmethod
    def empty(cls, gr, gc, grid, rank):
        shape = (gr, len(range(rank, gc, grid.np_)))
        return cls(gr=gr, gc=gc, grid=grid, local=np.empty(shape, order="F"))


def _as_bytes(arr):
    """arr's entries in column-major order, the layout of the covariance
    and of every share and panel, so a window's columns copy as runs."""
    return np.asarray(arr, dtype=np.float64).tobytes(order="F")


def _from_bytes(raw, shape):
    return np.frombuffer(raw, dtype=np.float64).reshape(shape, order="F")


def read_share(f, grid, rank):
    """This rank's element-cyclic share of the GWAM covariance in the open
    ColumnFile f, read and checked straight from the file
    (fileio.read_covariance) with no message sent."""
    local = fileio.read_covariance(f, grid.r, grid.c, *grid.coord(rank))
    return DistMatrix2D(*f.shape, grid, local)


def scatter_matrix(A, grid, t):
    """Distribute a rank-0 global matrix to element-cyclic 2D ownership.
    The engine reads its shares from the file instead (read_share); this
    and gather_matrix are the tests' reference for the layout.

    Rank 0 sends each rank its share, the strided slice A[prow::r, pcol::c],
    as one message and keeps its own; nothing else moves.
    """
    gr, gc = t.broadcast_obj(0, None if A is None else A.shape)
    D = DistMatrix2D.empty(gr, gc, grid, t.rank)
    if t.rank != 0:
        D.local[...] = _from_bytes(t.recv(0), D.local.shape)
        return D
    for dst in range(1, grid.np_):
        _, share = _window(D, dst, 0, gr, 0, gc)
        t.send(dst, _as_bytes(A[share]))
    _, share = _window(D, 0, 0, gr, 0, gc)
    D.local[...] = A[share]
    return D


def gather_matrix(D, t):
    """Inverse of scatter_matrix; returns the global matrix at rank 0."""
    if t.rank != 0:
        t.send(0, _as_bytes(D.local))
        return None
    A = np.empty((D.gr, D.gc))
    for src in range(D.grid.np_):
        _, share = _window(D, src, 0, D.gr, 0, D.gc)
        A[share] = D.local if src == 0 else _from_bytes(t.recv(src), A[share].shape)
    return A


def redist_1d_to_2d(X, t):
    """Full-column 1D layout -> element-cyclic 2D, one all-to-all.

    1D rank s sends 2D rank d of its grid column the rows local[d//c::r],
    which land in d's local columns [:, s//c::r].
    """
    grid = X.grid
    peers = range(t.rank % grid.c, grid.np_, grid.c)  # its grid column
    slices = [b""] * grid.np_
    for dst in peers:
        slices[dst] = _as_bytes(X.local[dst // grid.c::grid.r])
    received = t.alltoall(slices)
    out = DistMatrix2D.empty(X.gr, X.gc, grid, t.rank)
    for src in peers:
        at = out.local[:, src // grid.c::grid.r]
        at[...] = _from_bytes(received[src], at.shape)
    return out


def redist_2d_to_1d(X, t):
    """Element-cyclic 2D layout -> full-column 1D, one all-to-all; the
    inverse of redist_1d_to_2d, slice for slice."""
    grid = X.grid
    peers = range(t.rank % grid.c, grid.np_, grid.c)
    slices = [b""] * grid.np_
    for dst in peers:
        slices[dst] = _as_bytes(X.local[:, dst // grid.c::grid.r])
    received = t.alltoall(slices)
    out = DistMatrix1D.empty(X.gr, X.gc, grid, t.rank)
    for src in peers:
        at = out.local[src // grid.c::grid.r]
        at[...] = _from_bytes(received[src], at.shape)
    return out


def _window(D, rank, r0, r1, c0, c1):
    """Slices (local, at): the entries of the window [r0:r1, c0:c1] of D
    that rank owns are its D.local[local] and sit at window[at]."""
    prow, pcol = D.grid.coord(rank)
    lr, wr = fileio._span(r0, r1, prow, D.grid.r)
    lc, wc = fileio._span(c0, c1, pcol, D.grid.c)
    return (lr, lc), (wr, wc)


def _replicate_start(D, t, r0, r1, c0, c1):
    """First half of replicating the global submatrix [r0:r1, c0:c1] on
    every rank: send every peer this rank's owned entries of it, a slice
    of its local array. Returns the handle _replicate_finish takes."""
    local, _ = _window(D, t.rank, r0, r1, c0, c1)
    piece = _as_bytes(D.local[local])
    return (r0, r1, c0, c1), t.alltoall_start([piece] * t.size)


def _replicate_finish(D, t, pending):
    """Second half: receive every source's piece and place it in that
    source's window slice; returns the replicated submatrix, in Fortran
    order, which _blas works in."""
    (r0, r1, c0, c1), own = pending
    out = np.empty((r1 - r0, c1 - c0), order="F")
    for src, raw in enumerate(t.alltoall_finish(own)):
        _, at = _window(D, src, r0, r1, c0, c1)
        out[at] = _from_bytes(raw, out[at].shape)
    return out


def dist_cholesky(M, t, nb=DEFAULT_PANEL, B=None):
    """Blocked right-looking Cholesky on the 2D-distributed matrix; it
    overwrites M with its lower factor L and returns M. Given B, an n x k
    Fortran-ordered float64 array replicated on every rank, it also
    overwrites B with L^-1 B.

    Each step replicates the column panel [k:n, k:k+nb] on every rank in
    one exchange and factors it there in place by kernel.factor_panel
    (small redundant factorizations, each judged by kernel._pivot, as the
    one-rank factor is). The trailing update runs in place
    on the owned entries of the lower triangle, one GEMM per block of
    columns (_update_lower), so it skips most of the entries above the
    diagonal, which nothing reads. Each panel of L overwrites the
    entries of M it came from, and the strict-upper entries above its
    diagonal block are zeroed. Every rank then takes, on its copy of B,
    dist_trsolve's forward-substitution step with the panel
    (_substitute), so B moves no byte. Besides its share, a rank holds
    the panel, the pieces of its exchange, and a copy of each strided
    part of it the update reads: O(n nb) in all.
    """
    n = M.gr
    if M.gr != M.gc:
        raise DimensionMismatch("dist_cholesky needs a square matrix")
    if B is not None and B.shape[0] != n:
        raise DimensionMismatch(f"dist_cholesky: B has {B.shape[0]} rows, "
                                f"the matrix {n}")
    # the update's column blocks: 2 DEFAULT_PANEL owned columns wide, so
    # each GEMM runs near full rate, and a multiple of nb, so each later
    # diagonal block lies in one of them and is updated whole
    width = nb * -(-2 * DEFAULT_PANEL * M.grid.c // nb)
    for k in range(0, n, nb):
        kb = min(nb, n - k)
        panel = _replicate_finish(M, t, _replicate_start(M, t, k, n, k, k + kb))
        kernel.factor_panel(panel, k)
        _blas.zero_strict_upper(panel[:kb])
        local, at = _window(M, t.rank, k, n, k, k + kb)
        M.local[local] = panel[at]
        (lr, lc), _ = _window(M, t.rank, 0, k, k, k + kb)
        M.local[lr, lc] = 0.0
        if B is not None:
            _substitute(panel, B, k)
        _update_lower(M, t.rank, panel[kb:], k + kb, width)
        del panel  # before the next panel arrives
    return M


def _update_lower(M, rank, L21, k, width):
    """M[k:, k:] -= L21 L21^T on the rank's owned entries, in place, for
    the entries on or below the diagonal and those above it inside each
    block of `width` global columns from k: one GEMM per column block,
    against the rows from the block's first column down."""
    n = M.gr
    (lr, lc), (wr, wc) = _window(M, rank, k, n, k, n)
    rows, cols = _unit_rows(L21, wr), _unit_rows(L21, wc)
    for c0 in range(k, n, width):
        (br, bc), _ = _window(M, rank, c0, n, c0, min(c0 + width, n))
        below = rows[br.start - lr.start:]
        block = cols[bc.start - lc.start:bc.stop - lc.start]
        if len(below) and len(block):
            _blas.gemm_nt(-1.0, below, block, 1.0, M.local[br, bc])


def _unit_rows(A, rows):
    """A[rows] for a Fortran A, as a view BLAS takes: a Fortran copy when
    the slice steps by more than one row (np.asfortranarray would keep a
    1 x 1 slice, whose row step BLAS cannot take)."""
    return A[rows] if rows.step == 1 else np.array(A[rows], order="F")


def dist_trsolve(L, X, t, nb=DEFAULT_PANEL):
    """Overwrite this rank's full columns X with L^-1 X and return X.

    L is the 2D-distributed lower-triangular factor. X is n x k, Fortran
    ordered float64, and k may differ between ranks or be 0. The call is
    collective: every rank takes part in replicating each column panel
    [D_k; L21] = L[k:n, k:k+nb] of L, where D_k is its diagonal block,
    and panel k+nb is on the wire before panel k is used. With each panel
    the rank takes one step of a right-looking forward substitution on
    its own columns, in place (_substitute): a triangular multiply by
    D_k^-1 and one rank-kb GEMM below it. Nothing about X is
    communicated.
    """
    n = L.gr
    if X.shape[0] != n:
        raise DimensionMismatch("dist_trsolve: RHS rows do not match L")
    if X.dtype != np.float64 or not X.flags.f_contiguous:
        raise DimensionMismatch("dist_trsolve: RHS must be Fortran-ordered float64")

    def start(k):
        return _replicate_start(L, t, k, n, k, min(k + nb, n))

    pending = start(0) if n else None
    for k in range(0, n, nb):
        panel = _replicate_finish(L, t, pending)
        if k + nb < n:
            pending = start(k + nb)
        if X.shape[1]:
            _substitute(panel, X, k)
        del panel  # before the next panel arrives
    return X


def _substitute(panel, X, k):
    """One step of a right-looking forward substitution with the factored
    column panel [D; L21] = L[k:, k:k+kb]: X[k:k+kb] = D^-1 X[k:k+kb] by
    a triangular multiply, then X[k+kb:] -= L21 X[k:k+kb] by one GEMM,
    both in X's memory. D is inverted in the panel's memory (only its
    lower triangle is read), so the step's fixed cost is one kb x kb
    inverse whatever X's width. The multiply by D^-1 stands in for a
    dtrsm, which OpenBLAS runs at about half of dtrmm's rate."""
    kb = panel.shape[1]
    D = panel[:kb]
    kernel.invert_lower(D)
    _blas.trmm("L", 1.0, D, X[k:k + kb])
    _blas.gemm_nn(-1.0, panel[kb:], X[k:k + kb], 1.0, X[k + kb:])


def prepare(t, files):
    """The prepare of np > 1 ranks, one pass over the covariance: each
    rank reads and checks its own share from the open files
    (fileio.opening, read_share), and the grid factors it while every rank
    whitens its copy of [XL | y] with each panel (dist_cholesky's B) for
    kernel.prepare_whitened, with an n x 0 Linv (the small products are
    redundant by design). The only messages are dist_cholesky's panels.
    Returns (ctx, whiten), where whiten(columns) is dist_trsolve of a
    rank's own columns."""
    cov, covariates, pheno, _ = files
    Ld = read_share(cov, grid_create(t.size), t.rank)
    XLy = fileio.read_covariates_and_phenotype(covariates, pheno)
    dist_cholesky(Ld, t, B=XLy)
    ctx = kernel.prepare_whitened(np.empty((Ld.gr, 0)), XLy)
    return ctx, lambda columns: dist_trsolve(Ld, columns, t)


def run_dist(t, paths, cfg=None):
    """SPMD body of the distributed engine; call on every rank via
    transport.run_spmd. Returns a RunSummary (rank 0 carries the totals).
    cfg.m_blk defaults to pipeline.DEFAULT_M_BLK. It is
    pipeline.stream with this module's prepare and SETUP_COLS of set-up
    scratch; on one rank it is the ooc engine, whose result file it
    writes byte for byte.
    """
    cfg = cfg or pipeline.SolveConfig()
    if t.size == 1:
        return pipeline.stream(t, paths, cfg, pipeline.load_prepare, "dist")
    return pipeline.stream(t, paths, cfg, prepare, "dist", setup_cols=SETUP_COLS)
