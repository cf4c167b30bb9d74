"""Distributed-memory engine: the covariance matrix and its Cholesky
factor live element-cyclic on a 2D process grid, and marker blocks never
leave the rank that read them. Each rank reads its own contiguous chunk
of every block as full columns and whitens them in place against row
panels of L that are replicated one at a time, so the sweep moves panels
of L and no genotype data. Each panel [L_k,:k | D_k] is folded with the
inverse of its diagonal block into one GEMM's left operand, and the next
panel is sent before that GEMM runs. A block is the ooc engine's, split
evenly across ranks, so each replication of L is paid once per wide
block. A rank's entries of any window are a slice of its local array
that lands in a strided slice of the window, so every layout change,
and every panel, moves by slicing, with no index arrays.

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

import os
import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from . import _blas, fileio, kernel, pipeline
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
    def empty(cls, gr, gc, grid, rank):
        prow, pcol = grid.coord(rank)
        shape = (len(_rows_of(gr, grid, prow)), len(_cols_of(gc, grid, pcol)))
        return cls(gr=gr, gc=gc, grid=grid, rank=rank, local=np.empty(shape))


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


def _replicate_start(D, t, r0, r1, c0, c1):
    """First half of replicating the global submatrix [r0:r1, c0:c1] on
    every rank: send every peer this rank's owned entries of it, a slice
    of its local array. Returns the handle _replicate_finish takes."""
    local, _ = _window(D, t.rank, r0, r1, c0, c1)
    piece = _as_bytes(D.local[local])
    return (r0, r1, c0, c1), t.alltoall_start([piece] * t.size)


def _replicate_finish(D, t, pending):
    """Second half: receive every source's piece and place it in that
    source's window slice; returns the replicated submatrix."""
    (r0, r1, c0, c1), own = pending
    out = np.empty((r1 - r0, c1 - c0))
    for src, raw in enumerate(t.alltoall_finish(own)):
        _, at = _window(D, src, r0, r1, c0, c1)
        out[at] = _from_bytes(raw, out[at].shape)
    return out


def _replicate(D, t, r0, r1, c0, c1):
    """Materialize the global submatrix [r0:r1, c0:c1] on every rank."""
    return _replicate_finish(D, t, _replicate_start(D, t, r0, r1, c0, c1))


def _write_back(D, t, r0, c0, values):
    """Store a replicated submatrix into the owned entries of D."""
    r1, c1 = r0 + values.shape[0], c0 + values.shape[1]
    local, at = _window(D, t.rank, r0, r1, c0, c1)
    D.local[local] = values[at]


def dist_cholesky(M, t, nb=DEFAULT_PANEL):
    """Blocked right-looking Cholesky on the 2D-distributed matrix; it
    overwrites M with its lower factor L and returns M.

    Panels of width nb are replicated on all ranks (small redundant
    factorizations), while the O(n^2) trailing update touches only locally
    owned entries. Each column panel of L overwrites the entries of M it
    was computed from, and the strict-upper entries above its diagonal
    block, which nothing reads again, are zeroed. Per-rank peak memory is
    the share plus one panel.
    """
    n = M.gr
    if M.gr != M.gc:
        raise DimensionMismatch("dist_cholesky needs a square matrix")
    if M.grid.np_ == 1:
        M.local = kernel.cholesky_spd(M.local)
        return M
    for k in range(0, n, nb):
        kb = min(nb, n - k)
        Akk = _replicate(M, t, k, k + kb, k, k + kb)
        try:
            Lkk = kernel.cholesky_spd(Akk)
        except NotPositiveDefinite as e:
            raise NotPositiveDefinite(k + e.pivot_index) from None
        _write_back(M, t, k, k, Lkk)
        (lr, lc), _ = _window(M, t.rank, 0, k, k, k + kb)
        M.local[lr, lc] = 0.0
        if k + kb >= n:
            break
        A21 = _replicate(M, t, k + kb, n, k, k + kb)
        L21 = solve_triangular(Lkk, A21.T, lower=True, check_finite=False).T
        _write_back(M, t, k + kb, k, L21)
        # trailing update on owned entries only; the copy keeps numpy from
        # running an aliased pair as SYRK, which rounds unlike GEMM
        (lr, lc), (wr, wc) = _window(M, t.rank, k + kb, n, k + kb, n)
        M.local[lr, lc] -= L21[wr] @ L21[wc].copy().T
    return M


def dist_trsolve(L, X, t, nb=DEFAULT_PANEL):
    """Overwrite this rank's full columns X with L^-1 X and return X.

    L is the 2D-distributed lower-triangular factor. X is n x k, Fortran
    ordered float64, and k may differ between ranks or be 0. The call is
    collective: every rank takes part in replicating each nb-row panel
    [L_k,:k | D_k] of L, where D_k is its diagonal block. Each rank folds
    D_k^-1 into the panel, [-(D_k^-1 L_k,:k) | D_k^-1], and updates its
    own columns with one GEMM, X[k:k+kb] = panel @ X[:k+kb], while the
    next panel is already on the wire. Nothing about X is communicated.
    At np=1 it is one in-place triangular solve (dtrsm).
    """
    n = L.gr
    if X.shape[0] != n:
        raise DimensionMismatch("dist_trsolve: RHS rows do not match L")
    if X.dtype != np.float64 or not X.flags.f_contiguous:
        raise DimensionMismatch("dist_trsolve: RHS must be Fortran-ordered float64")
    if L.grid.np_ == 1:
        _blas.trsm("L", "N", np.asfortranarray(L.local), X)
        return X

    def start(k):
        end = min(k + nb, n)
        return _replicate_start(L, t, k, end, 0, end)

    pending = start(0) if n else None
    for k in range(0, n, nb):
        panel = _replicate_finish(L, t, pending)
        if k + nb < n:
            pending = start(k + nb)
        if X.shape[1]:
            X[k:k + nb] = _fold_diagonal(panel, k) @ X[:k + nb]
    return X


def _fold_diagonal(panel, k):
    """Turn the row panel [L_k,:k | D] into [-(D^-1 L_k,:k) | D^-1], in
    its own memory. Only the lower triangle of D is read."""
    Dinv = np.array(panel[:, k:], order="F")
    info = _blas.trtri(Dinv)
    if info:
        raise ValueError(f"dtrtri returned info={info}")
    Dinv = np.tril(Dinv)
    np.negative(Dinv @ panel[:, :k], out=panel[:, :k])
    panel[:, k:] = Dinv
    return panel


def _prepare(paths, grid, t, n):
    """Factor the covariance on the grid and whiten [XL | y], all of it on
    every rank (the small products are redundant by design); returns the
    distributed factor and the kernel context."""
    M = fileio.read_matrix(paths.cov, "GWAM") if t.rank == 0 else None
    share = scatter_matrix(M, grid, t)
    del M
    Ld = dist_cholesky(share, t)
    XLy = fileio.read_covariates_and_phenotype(paths.covariates, paths.pheno)
    if XLy.shape[0] != n:
        raise DimensionMismatch(f"run_dist: n={n} but [XL | y] is {XLy.shape}")
    return Ld, kernel.prepare_whitened(np.empty((n, 0)), dist_trsolve(Ld, XLy, t))


def run_dist(t, paths, cfg=None):
    """SPMD body of the distributed engine; call on every rank via
    transport.run_spmd. Returns a RunSummary (rank 0 carries the totals).
    cfg.m_blk defaults to pipeline.DEFAULT_M_BLK // np * np.

    Only the covariance and its factor are distributed. Every rank reads
    the covariates and phenotype and whitens [XL | y] itself. In the sweep
    each rank reads its own contiguous chunk of every marker block into a
    reader buffer, whitens it there with dist_trsolve and solves its
    markers' small systems on that same memory: no block is redistributed
    or copied.
    """
    cfg = cfg or pipeline.SolveConfig()
    t_start = time.perf_counter()
    np_ = t.size
    grid = grid_create(np_)
    n, m = fileio.read_dims(paths.geno, "GWAX")
    m_blk = cfg.m_blk if cfg.m_blk is not None else pipeline.DEFAULT_M_BLK // np_ * np_
    if m_blk < 1 or m_blk % np_ != 0:
        raise ConfigError(f"m_blk={m_blk} is not a positive multiple of np={np_}")
    m_blk = min(m_blk, ((m + np_ - 1) // np_) * np_)
    loc = m_blk // np_
    flags = 1 if cfg.emit_s_inv else 0
    p = fileio.read_dims(paths.covariates, "GWAC")[1] + 1
    rsz = fileio.record_size(p, flags)
    region_bytes = 8 * n * loc + loc * rsz
    pipeline.check_budget(2 * region_bytes,
                          "two reader buffers and their record staging",
                          cfg.mem_budget_bytes)
    # this rank's contiguous chunk of every block; the last ones may be
    # short or empty
    chunks = []
    for first in range(0, m, m_blk):
        start = min(first + t.rank * loc, m)
        chunks.append((start, min(loc, m - start)))

    bufs = [np.empty((n, loc), order="F"), np.empty((n, loc), order="F")]
    out_bufs = [np.empty((loc, rsz // 8)), np.empty((loc, rsz // 8))]
    # np ranks share this host's cores, so each runs its BLAS calls on its
    # share of them
    with _blas.rank_threads(np_) as blas_threads:
        reader = fileio.BlockReader(paths.geno)
        try:
            # the first chunk starts loading before any factoring so the
            # transfer hides behind the preparation phase
            ticket = reader.start(*chunks[0], bufs[0]) if chunks[0][1] else None
            t0 = time.perf_counter()
            Ld, ctx = _prepare(paths, grid, t, n)
            t_prepare = time.perf_counter() - t0

            partial = pipeline.partial_path(paths.out)
            if t.rank == 0:
                writer = fileio.BlockWriter(partial, m, p, flags, create=True)
            t.barrier()
            if t.rank != 0:
                writer = fileio.BlockWriter(partial, m, p, flags, create=False)

            def solve(first, columns):
                Xbar = dist_trsolve(Ld, columns, t)
                return kernel.solve_whitened_block(ctx, Xbar, first,
                                                   emit_s_inv=cfg.emit_s_inv)

            try:
                t_compute, t_io_wait, block_cpu = pipeline.sweep(
                    reader, writer, chunks, bufs, ticket, solve, out_bufs)
                t.barrier()  # every rank's last store is done
            finally:
                writer.close()
        finally:
            reader.close()
    if t.rank == 0:
        os.replace(partial, paths.out)

    stats = t.allgather_obj(dict(
        bytes_read=reader.bytes_read, bytes_written=writer.bytes_written,
        peak_rss_bytes=pipeline.peak_rss_bytes()))
    return pipeline.RunSummary(
        mode="dist", n=n, m=m, p=p, m_blk=m_blk, np_=np_,
        t_prepare=t_prepare, t_compute=t_compute, t_io_wait=t_io_wait,
        t_total=time.perf_counter() - t_start,
        bytes_read=sum(s["bytes_read"] for s in stats),
        bytes_written=sum(s["bytes_written"] for s in stats),
        peak_resident_est=8 * n * n // np_ + 2 * region_bytes + 8 * n * p,
        buffer_regions=2,
        blas_threads=blas_threads,
        peak_rss_bytes=max(s["peak_rss_bytes"] for s in stats),
        block_cpu_times=block_cpu,
    )
