"""Distributed-memory engine: the covariance matrix and its Cholesky
factor live element-cyclic on a 2D process grid, and marker blocks never
leave the rank that read them. Each rank reads its own contiguous chunk
of every block as full columns and whitens them in place against row
panels of L that are replicated one at a time, so the sweep moves panels
of L and no genotype data. A block is the ooc engine's, split evenly
across ranks, so each replication of L is paid once per wide block. A
rank's entries of any window are a slice of its local array that lands
in a strided slice of the window, so panels move by slicing.

Index maps:
    2D: element (i, j) is owned by grid process (i mod r, j mod c) at
        local position (i div r, j div c).
    1D: column j is owned by rank (j mod np) at local column (j div np),
        ranks enumerated as the row-major concatenation of the grid rows.
        Only the library redistributions below use it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from . import fileio, kernel, pipeline
from .errors import ConfigError, DimensionMismatch, NotPositiveDefinite

DEFAULT_PANEL = 64


@dataclass(frozen=True)
class GridLayout:
    np_: int
    r: int
    c: int

    def coord(self, rank):
        return rank // self.c, rank % self.c

    def rank_of(self, prow, pcol):
        return prow * self.c + pcol


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


def owner_2d(i, j, grid):
    prow, pcol = i % grid.r, j % grid.c
    return grid.rank_of(prow, pcol), i // grid.r, j // grid.c


def owner_1d(j, grid):
    return j % grid.np_, j // grid.np_


def _rows_of(gr, grid, prow):
    return np.arange(prow, gr, grid.r)


def _cols_of(gc, grid, pcol):
    return np.arange(pcol, gc, grid.c)


def _cols_1d(gc, grid, rank):
    return np.arange(rank, gc, grid.np_)


@dataclass
class DistMatrix2D:
    gr: int
    gc: int
    grid: GridLayout
    rank: int
    local: np.ndarray  # rows i = prow (mod r), cols j = pcol (mod c)

    @classmethod
    def empty(cls, gr, gc, grid, rank, fill=None):
        prow, pcol = grid.coord(rank)
        shape = (len(_rows_of(gr, grid, prow)), len(_cols_of(gc, grid, pcol)))
        local = np.zeros(shape) if fill == 0 else np.empty(shape)
        return cls(gr=gr, gc=gc, grid=grid, rank=rank, local=local)


@dataclass
class DistMatrix1D:
    gr: int
    gc: int
    grid: GridLayout
    rank: int
    local: np.ndarray  # full columns j = rank (mod np), global order kept

    @classmethod
    def empty(cls, gr, gc, grid, rank):
        return cls(gr=gr, gc=gc, grid=grid, rank=rank,
                   local=np.empty((gr, len(_cols_1d(gc, grid, rank)))))


def _as_bytes(arr):
    return np.ascontiguousarray(arr, dtype=np.float64).tobytes()


def _from_bytes(raw, shape):
    return np.frombuffer(raw, dtype=np.float64).reshape(shape)


def scatter_matrix(A, grid, t):
    """Distribute a rank-0 global matrix to element-cyclic 2D ownership.

    Rank 0 ships contiguous column panels; one all-to-all then reshuffles
    panel pieces to their cyclic owners.
    """
    gr, gc = t.broadcast_obj(0, None if A is None else A.shape)
    np_ = grid.np_
    # contiguous column panels, one per rank
    bounds = [gc * k // np_ for k in range(np_ + 1)]
    if t.rank == 0:
        for dst in range(1, np_):
            t.send(dst, _as_bytes(A[:, bounds[dst]:bounds[dst + 1]]))
        panel = np.asarray(A[:, bounds[0]:bounds[1]], dtype=np.float64)
    else:
        panel = _from_bytes(t.recv(0), (gr, bounds[t.rank + 1] - bounds[t.rank]))
    # reshuffle panels to cyclic ownership
    my_lo = bounds[t.rank]
    panel_cols = np.arange(my_lo, bounds[t.rank + 1])
    slices = []
    for dst in range(np_):
        prow, pcol = grid.coord(dst)
        sel = panel_cols[panel_cols % grid.c == pcol]
        piece = panel[np.ix_(_rows_of(gr, grid, prow), sel - my_lo)]
        slices.append(_as_bytes(piece))
    received = t.alltoall(slices)
    out = DistMatrix2D.empty(gr, gc, grid, t.rank)
    prow, pcol = grid.coord(t.rank)
    my_rows = _rows_of(gr, grid, prow)
    for src in range(np_):
        src_cols = np.arange(bounds[src], bounds[src + 1])
        sel = src_cols[src_cols % grid.c == pcol]
        piece = _from_bytes(received[src], (len(my_rows), len(sel)))
        out.local[:, sel // grid.c] = piece
    return out


def gather_matrix(D, t):
    """Inverse of scatter_matrix; returns the global matrix at rank 0."""
    if t.rank != 0:
        t.send(0, _as_bytes(D.local))
        return None
    grid = D.grid
    A = np.empty((D.gr, D.gc))
    for src in range(grid.np_):
        prow, pcol = grid.coord(src)
        rows = _rows_of(D.gr, grid, prow)
        cols = _cols_of(D.gc, grid, pcol)
        if src == 0:
            piece = D.local
        else:
            piece = _from_bytes(t.recv(src), (len(rows), len(cols)))
        A[np.ix_(rows, cols)] = piece
    return A


def redist_1d_to_2d(X, t):
    """Full-column 1D layout -> element-cyclic 2D, one all-to-all."""
    grid = X.grid
    gr, gc = X.gr, X.gc
    my_cols = _cols_1d(gc, grid, t.rank)
    slices = []
    for dst in range(grid.np_):
        prow, pcol = grid.coord(dst)
        sel = np.nonzero(my_cols % grid.c == pcol)[0]
        piece = X.local[np.ix_(_rows_of(gr, grid, prow), sel)]
        slices.append(_as_bytes(piece))
    received = t.alltoall(slices)
    out = DistMatrix2D.empty(gr, gc, grid, t.rank)
    prow, pcol = grid.coord(t.rank)
    my_rows = _rows_of(gr, grid, prow)
    for src in range(grid.np_):
        src_cols = _cols_1d(gc, grid, src)
        sel = src_cols[src_cols % grid.c == pcol]
        piece = _from_bytes(received[src], (len(my_rows), len(sel)))
        out.local[:, sel // grid.c] = piece
    return out


def redist_2d_to_1d(X, t):
    """Element-cyclic 2D layout -> full-column 1D, one all-to-all."""
    grid = X.grid
    gr, gc = X.gr, X.gc
    prow, pcol = grid.coord(t.rank)
    my_cols = _cols_of(gc, grid, pcol)
    slices = []
    for dst in range(grid.np_):
        sel = np.nonzero(my_cols % grid.np_ == dst)[0]
        slices.append(_as_bytes(X.local[:, sel]))
    received = t.alltoall(slices)
    out = DistMatrix1D.empty(gr, gc, grid, t.rank)
    for src in range(grid.np_):
        sprow, spcol = grid.coord(src)
        rows = _rows_of(gr, grid, sprow)
        src_cols = _cols_of(gc, grid, spcol)
        sel = src_cols[src_cols % grid.np_ == t.rank]
        piece = _from_bytes(received[src], (len(rows), len(sel)))
        out.local[np.ix_(rows, sel // grid.np_)] = piece
    return out


def _span(lo, hi, p, step):
    """Local and window slices of the indices i = p (mod step), lo <= i < hi."""
    a, b = -((p - lo) // step), -((p - hi) // step)
    return slice(a, b), slice(p + a * step - lo, hi - lo, step)


def _window(D, rank, r0, r1, c0, c1):
    """Slices (local, at): the entries of the window [r0:r1, c0:c1] of D
    that rank owns are its D.local[local] and sit at window[at]."""
    prow, pcol = D.grid.coord(rank)
    lr, wr = _span(r0, r1, prow, D.grid.r)
    lc, wc = _span(c0, c1, pcol, D.grid.c)
    return (lr, lc), (wr, wc)


def _replicate(D, t, r0, r1, c0, c1):
    """Materialize the global submatrix [r0:r1, c0:c1] on every rank.

    Each rank sends only the entries it owns, a slice of its local array;
    every rank places each source's piece in that source's window slice.
    """
    local, _ = _window(D, t.rank, r0, r1, c0, c1)
    out = np.empty((r1 - r0, c1 - c0))
    for src, raw in enumerate(t.allgather(_as_bytes(D.local[local]))):
        _, at = _window(D, src, r0, r1, c0, c1)
        out[at] = _from_bytes(raw, out[at].shape)
    return out


def _write_back(D, t, r0, c0, values):
    """Store a replicated submatrix into the owned entries of D."""
    r1, c1 = r0 + values.shape[0], c0 + values.shape[1]
    local, at = _window(D, t.rank, r0, r1, c0, c1)
    D.local[local] = values[at]


def dist_cholesky(M, t, nb=DEFAULT_PANEL):
    """Blocked right-looking Cholesky on the 2D-distributed matrix.

    Panels of width nb are replicated on all ranks (small redundant
    factorizations), while the O(n^2) trailing update touches only locally
    owned entries. Per-rank peak memory is the local share plus one n x nb
    panel.
    """
    n = M.gr
    if M.gr != M.gc:
        raise DimensionMismatch("dist_cholesky needs a square matrix")
    if M.grid.np_ == 1:
        return DistMatrix2D(gr=n, gc=n, grid=M.grid, rank=t.rank,
                            local=kernel.cholesky_spd(M.local))
    A = DistMatrix2D(gr=n, gc=n, grid=M.grid, rank=t.rank, local=M.local.copy())
    L = DistMatrix2D.empty(n, n, M.grid, t.rank, fill=0)
    for k in range(0, n, nb):
        kb = min(nb, n - k)
        Akk = _replicate(A, t, k, k + kb, k, k + kb)
        try:
            Lkk = kernel.cholesky_spd(Akk)
        except NotPositiveDefinite as e:
            raise NotPositiveDefinite(k + e.pivot_index) from None
        _write_back(L, t, k, k, Lkk)
        if k + kb >= n:
            break
        A21 = _replicate(A, t, k + kb, n, k, k + kb)
        L21 = solve_triangular(Lkk, A21.T, lower=True, check_finite=False).T
        _write_back(L, t, k + kb, k, L21)
        # trailing update on owned entries only; the copy keeps numpy from
        # running an aliased pair as SYRK, which rounds unlike GEMM
        (lr, lc), (wr, wc) = _window(A, t.rank, k + kb, n, k + kb, n)
        A.local[lr, lc] -= L21[wr] @ L21[wc].copy().T
    return L


def dist_trsolve(L, X, t, nb=DEFAULT_PANEL):
    """Overwrite this rank's full columns X with L^-1 X and return X.

    L is the 2D-distributed lower-triangular factor. X is n x k, Fortran
    ordered float64, and k may differ between ranks or be 0. The call is
    collective: every rank takes part in replicating each nb-row panel of
    L, then runs forward substitution on its own columns. Nothing about X
    is communicated or copied. At np=1 it is one in-place triangular solve.
    """
    n = L.gr
    if X.shape[0] != n:
        raise DimensionMismatch("dist_trsolve: RHS rows do not match L")
    if X.dtype != np.float64 or not X.flags.f_contiguous:
        raise DimensionMismatch("dist_trsolve: RHS must be Fortran-ordered float64")
    if L.grid.np_ == 1:
        if X.size:
            solve_triangular(L.local, X, lower=True, overwrite_b=True,
                             check_finite=False)
        return X
    for k in range(0, n, nb):
        kb = min(nb, n - k)
        panel = _replicate(L, t, k, k + kb, 0, k + kb)
        if X.shape[1]:
            rhs = X[k:k + kb] - panel[:, :k] @ X[:k]
            X[k:k + kb] = solve_triangular(panel[:, k:k + kb], rhs,
                                           lower=True, check_finite=False)
    return X


@dataclass
class DistConfig:
    m_blk: int | None = None  # default pipeline.DEFAULT_M_BLK // np * np
    emit_s_inv: bool = False


def run_dist(t, paths, cfg=None):
    """SPMD body of the distributed engine; call on every rank via
    transport.run_spmd. Returns a RunSummary (rank 0 carries the totals).

    Only the covariance and its factor are distributed. Every rank reads
    the covariates and phenotype and whitens [XL | y] itself. In the sweep
    each rank reads its own contiguous chunk of every marker block into a
    reader buffer, whitens it there with dist_trsolve and solves its
    markers' small systems on that same memory: no block is redistributed
    or copied.
    """
    cfg = cfg or DistConfig()
    t_start = time.perf_counter()
    np_ = t.size
    grid = grid_create(np_)
    n, m = fileio.read_dims(paths.geno, "GWAX")
    m_blk = cfg.m_blk if cfg.m_blk is not None else pipeline.DEFAULT_M_BLK // np_ * np_
    if m_blk % np_ != 0:
        raise ConfigError(f"m_blk={m_blk} not divisible by np={np_}")
    m_blk = min(m_blk, ((m + np_ - 1) // np_) * np_)
    loc = m_blk // np_
    pipeline.check_budget(2 * 8 * n * loc, "two reader buffers")
    # this rank's contiguous chunk of every block; the last ones may be
    # short or empty
    chunks = []
    for first in range(0, m, m_blk):
        start = min(first + t.rank * loc, m)
        chunks.append((start, min(loc, m - start)))

    reader = fileio.BlockReader(paths.geno)
    bufs = [np.empty((n, loc), order="F"), np.empty((n, loc), order="F")]
    flags = 1 if cfg.emit_s_inv else 0

    # the first chunk starts loading before any factoring so the
    # transfer hides behind the preparation phase
    ticket = reader.start(*chunks[0], bufs[0]) if chunks[0][1] else None

    t0 = time.perf_counter()
    M = fileio.read_matrix(paths.cov, "GWAM") if t.rank == 0 else None
    Mdist = scatter_matrix(M, grid, t)
    del M
    Ld = dist_cholesky(Mdist, t)
    del Mdist
    XL = fileio.read_matrix(paths.covariates, "GWAC")
    y = fileio.read_matrix(paths.pheno, "GWAY")
    if XL.shape[0] != n or y.shape[0] != n:
        raise DimensionMismatch(f"run_dist: n={n} but XL {XL.shape}, y {y.shape}")
    # every rank whitens all of [XL | y]; the small products are redundant
    # by design
    W = np.empty((n, XL.shape[1] + 1), order="F")
    W[:, :-1] = XL
    W[:, -1] = y
    dist_trsolve(Ld, W, t)
    ctx = kernel.prepare_whitened(np.empty((n, 0)), W[:, :-1], W[:, -1])
    p = ctx.p
    t_prepare = time.perf_counter() - t0

    if t.rank == 0:
        writer = fileio.BlockWriter(paths.out, m, p, flags, create=True)
    t.barrier()
    if t.rank != 0:
        writer = fileio.BlockWriter(paths.out, m, p, flags, create=False)

    def solve(first, columns):
        Xbar = dist_trsolve(Ld, columns, t)
        return kernel.solve_whitened_block(ctx, Xbar, first,
                                           emit_s_inv=cfg.emit_s_inv)

    t_compute, t_io_wait, block_cpu = pipeline.sweep(
        reader, writer, chunks, bufs, ticket, solve)
    t.barrier()
    reader.close()
    writer.close()

    stats = t.allgather_obj(dict(
        bytes_read=reader.bytes_read, bytes_written=writer.bytes_written))
    return pipeline.RunSummary(
        mode="dist", n=n, m=m, p=p, m_blk=m_blk, np_=np_,
        t_prepare=t_prepare, t_compute=t_compute, t_io_wait=t_io_wait,
        t_total=time.perf_counter() - t_start,
        bytes_read=sum(s["bytes_read"] for s in stats),
        bytes_written=sum(s["bytes_written"] for s in stats),
        peak_resident_est=8 * n * n // np_ + 2 * 8 * n * loc + 8 * n * p,
        buffer_regions=2,
        block_cpu_times=block_cpu,
    )
