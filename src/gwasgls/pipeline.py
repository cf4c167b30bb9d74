"""Streaming engine: block scheduling plus double buffering so disk
transfers overlap compute, on any number of ranks.

`stream` is the one engine of every mode. Where the covariance lives is
its one parameter, a prepare step: on one rank (`load_prepare`) it is
read whole and turned into L^-1 in its own memory; on several ranks
(`distgrid.prepare`) each rank reads its own share of it, on a process
grid. The ooc engine is `stream` on one rank, in the calling thread,
the in-core engine is the ooc engine at m_blk = m, and the dist engine
is `stream` on np ranks, so dist at np=1 is the ooc engine.

`sweep` is its block loop:

    load_start(first)            # by the caller
    for each block:
        load_wait(current); if not last: load_start(next)
        solve the current block in its input region
        if not first: store_wait(previous)
        store_start(current)     # staged in the region's output area
    store_wait(last)

Two equally sized memory regions, each one input buffer and one output
staging area, alternate between "being computed on" and "being
transferred"; a region under in-flight I/O is never touched by compute
(rendezvous at the wait calls). A run of one block holds one region.
"""

from __future__ import annotations

import contextlib
import os
import resource
import sys
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import _blas, fileio, kernel, transport
from .errors import ConfigError, NonFiniteInput

DEFAULT_M_BLK = 5000
MEM_BUDGET_ENV = "GWAS_GLS_MEM_BUDGET_BYTES"


def block_plan(m, m_blk):
    """Contiguous disjoint blocks [(first_index, count), ...] of at most
    m_blk columns covering [0, m)."""
    if m < 1 or m_blk < 1:
        raise ConfigError("m and m_blk must be >= 1")
    return [(first, min(m_blk, m - first)) for first in range(0, m, m_blk)]


@dataclass
class RunSummary:
    """Single-record run report; serializes to one key=value line."""

    mode: str = ""
    n: int = 0
    m: int = 0
    p: int = 0
    m_blk: int = 0
    np_: int = 1
    t_prepare: float = 0.0
    t_compute: float = 0.0
    t_io_wait: float = 0.0
    t_total: float = 0.0
    bytes_read: int = 0
    bytes_written: int = 0
    # what the ranks sent each other, summed; the closing gather excluded
    bytes_sent: int = 0
    peak_resident_est: int = 0
    buffer_regions: int = 0
    # the OpenBLAS thread count every rank ran at
    blas_threads: int = 0
    # measured peak resident set (dist: the largest rank's, where rank 0's
    # is the calling process's), in bytes
    peak_rss_bytes: int = 0
    # markers whose record is all NaN (degenerate), summed over ranks
    degenerate: int = 0
    # per-block CPU seconds of the streaming phase (load_wait + compute +
    # store_wait); profiling detail, not part of the one-line record
    block_cpu_times: list = field(default_factory=list)

    def to_record(self):
        values = ((f.name, getattr(self, f.name)) for f in fields(self))
        return " ".join(f"{k}={v:.6f}" if isinstance(v, float) else f"{k}={v}"
                        for k, v in values if not isinstance(v, list))


@dataclass
class SolvePaths:
    cov: str
    covariates: str
    pheno: str
    geno: str
    out: str


@dataclass
class SolveConfig:
    """Settings of one run, shared by every engine."""

    m_blk: int | None = None  # None = DEFAULT_M_BLK
    emit_s_inv: bool = False


def check_budget(need, what):
    """Raise ConfigError when `what`, needing `need` bytes, exceeds the
    memory budget MEM_BUDGET_ENV sets; unset, there is none."""
    value = os.environ.get(MEM_BUDGET_ENV)
    if value:
        try:
            budget = int(value)
        except ValueError:
            raise ConfigError(f"{MEM_BUDGET_ENV}={value!r} "
                              "is not an integer number of bytes") from None
        if need > budget:
            raise ConfigError(f"{what} need {need} bytes, budget is {budget}")


def peak_rss_bytes():
    """This process's peak resident set so far (getrusage's ru_maxrss,
    which Linux counts in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def load_prepare(t, files):
    """The one-rank prepare: read the covariance, covariates and
    phenotype from the open files (fileio.opening), turn the covariance
    into L^-1 in its own memory, so no n x n copy is made, and whiten
    [XL | y] in its memory for kernel.prepare_whitened. Returns (ctx,
    whiten), where whiten(columns) multiplies a block by L^-1 in place. t
    is unused: one rank holds all of M."""
    cov, covariates, pheno, _ = files
    M = fileio.read_covariance(cov)
    XLy = fileio.read_covariates_and_phenotype(covariates, pheno)
    Linv = kernel.inverse_factor(M)
    ctx = kernel.prepare_whitened(Linv, kernel.whiten(Linv, XLy))
    return ctx, lambda columns: kernel.whiten(Linv, columns)


def run_incore(paths, cfg=None):
    """Solve the whole genotype matrix as one block: the out-of-core
    sweep with a block wider than any file, which stream narrows to m and
    which holds one buffer region. Reference engine for equivalence and
    overlap tests. Raises ConfigError when the dataset does not fit the
    memory budget.
    """
    summary = run_ooc(paths, replace(cfg or SolveConfig(), m_blk=sys.maxsize))
    summary.mode = "incore"
    return summary


def run_ooc(paths, cfg=None):
    """Out-of-core engine: the streaming engine on one rank, in the
    calling thread (transport.run_spmd)."""
    return transport.run_spmd(1, stream, paths, cfg or SolveConfig(),
                              load_prepare, "ooc")[0]


def stream(t, paths, cfg, prepare, mode, setup_cols=0):
    """The streaming engine, run on every rank of transport t.

    Each rank opens the inputs once (fileio.opening) and reads only
    through those files: its own contiguous chunk of every block of m_blk
    markers, an even share of it, into one of its buffer regions (two, or
    one when a single block covers m), and the first chunk loads while
    prepare(t, files) returns (ctx, whiten): the kernel context and the
    in-place whitening of a chunk. The budget, checked before anything is
    read, counts the 8n^2/np covariance share, the covariates, the
    regions, the field-by-field scratch of the small solves of the chunk
    being solved, w = kernel.record_width reals per marker, and
    setup_cols n-row columns of scratch that prepare holds beside the
    share (0 for load_prepare, which works in the memory of M):

        8n^2/np + 8np + regions (8 n loc + 8 loc w) + 8 loc w + 8 n setup_cols

    OpenBLAS runs at the thread count the caller set before the ranks
    started (_blas.rank_threads). Rank 0 makes the result file by
    fileio.creating. Returns a RunSummary; rank 0's carries the totals:
    its bytes_read, bytes_written, bytes_sent and degenerate are the
    ranks', summed, as the files, the transport and the solves count them.
    """
    t_start = time.perf_counter()
    np_ = t.size
    with contextlib.ExitStack() as stack:
        # the inputs agree on n, and out is no directory, before the
        # budget, which counts n, and the O(n^3) set-up start
        files = stack.enter_context(fileio.opening(paths))
        _, covariates, _, geno = files
        (n, m), p = geno.dims, covariates.dims[1] + 1
        m_blk = cfg.m_blk if cfg.m_blk is not None else DEFAULT_M_BLK
        if m_blk < 1:
            raise ConfigError(f"m_blk={m_blk} is not positive")
        m_blk = min(m_blk, m)
        loc = -(-m_blk // np_)
        # this rank's chunk of every block, [first + count r / np, first +
        # count (r + 1) / np): at most loc markers, an even share of the
        # block, which is empty only where count < np
        chunks = []
        for first, count in block_plan(m, m_blk):
            lo = first + count * t.rank // np_
            hi = first + count * (t.rank + 1) // np_
            chunks.append((lo, hi - lo))
        flags = 1 if cfg.emit_s_inv else 0
        w = kernel.record_width(p, flags)
        regions = min(2, len(chunks))
        need = (8 * n * n // np_ + 8 * n * p + regions * (8 * n * loc + 8 * loc * w)
                + 8 * loc * w + 8 * n * setup_cols)
        check_budget(need, f"covariance share, covariates, {regions} buffer "
                     "region(s) and set-up scratch")
        in_bufs = [np.empty((n, loc), order="F") for _ in range(regions)]
        out_bufs = [np.empty((loc, w)) for _ in range(regions)]
        reader = stack.enter_context(fileio.BlockReader(geno))
        ticket = reader.start(*chunks[0], in_bufs[0])
        t0 = time.perf_counter()
        ctx, whiten = prepare(t, files)
        t_prepare = time.perf_counter() - t0

        degenerate = 0

        def solve(columns, out):
            # whitened in the reader region, which the next load overwrites;
            # the records go straight to the region's staging area
            nonlocal degenerate
            records = kernel.solve_whitened_block(ctx, whiten(columns), out,
                                                  cfg.emit_s_inv)
            # a degenerate record is all NaN and an ok one all finite, so
            # one column counts them without a pass over the whole block
            degenerate += int(np.count_nonzero(np.isnan(records[:, 0])))
            return records

        # rank 0 creates the result file, the others open it after the barrier
        if t.rank == 0:
            partial = stack.enter_context(fileio.creating(paths.out))
            writer = stack.enter_context(fileio.BlockWriter(partial, (m, p, flags)))
        t.barrier()
        if t.rank != 0:
            writer = stack.enter_context(fileio.BlockWriter(fileio.partial_path(paths.out)))
        t_compute, t_io_wait, block_cpu = sweep(
            reader, writer, chunks, in_bufs, ticket, solve, out_bufs)
        # a rank sends its stats once its last store is done, so rank 0
        # holds every rank's, and renames the file, only when it is whole
        stats = t.allgather_obj((sum(f.bytes_read for f in files),
                                 writer.file.bytes_written, t.bytes_sent,
                                 peak_rss_bytes(), degenerate))
    return RunSummary(
        mode=mode, n=n, m=m, p=p, m_blk=m_blk, np_=np_,
        t_prepare=t_prepare, t_compute=t_compute, t_io_wait=t_io_wait,
        t_total=time.perf_counter() - t_start,
        bytes_read=sum(s[0] for s in stats),
        bytes_written=sum(s[1] for s in stats),
        bytes_sent=sum(s[2] for s in stats),
        peak_resident_est=need,
        buffer_regions=regions,
        blas_threads=_blas.threads(),
        peak_rss_bytes=max(s[3] for s in stats),
        degenerate=sum(s[4] for s in stats),
        block_cpu_times=block_cpu,
    )


def sweep(reader, writer, blocks, in_bufs, load_ticket, solve, out_bufs):
    """Stream blocks [(first_index, count), ...] through the input regions
    in_bufs (two, or one when blocks holds a single block). The load of
    blocks[0] into in_bufs[0] is already in flight as load_ticket.

    solve(columns, out) gets a view of the block in its input region and
    out_bufs[i], the output area of the same region, and returns the
    block's records, a count x record-width array it has written there,
    which the writer stores as they are. An empty block is read and
    stored as zero columns, and solved too, because a distributed solve
    is collective. A marker that solve finds non-finite is reported by its
    index in the file (fileio.non_finite_genotypes).

    Returns (t_compute, t_io_wait, per-block CPU seconds).
    """
    t_compute = t_io_wait = 0.0
    block_cpu = []
    for bi, (first, count) in enumerate(blocks):
        cur = bi % 2
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        reader.wait(load_ticket)
        t_io_wait += time.perf_counter() - t0
        if bi + 1 < len(blocks):
            load_ticket = reader.start(*blocks[bi + 1], in_bufs[1 - cur])
        t0 = time.perf_counter()
        try:
            records = solve(in_bufs[cur][:, :count], out_bufs[cur])
        except NonFiniteInput as e:
            raise fileio.non_finite_genotypes(reader.file, first + e.marker) from None
        t_compute += time.perf_counter() - t0
        t0 = time.perf_counter()
        if bi:
            writer.wait(store_ticket)
        t_io_wait += time.perf_counter() - t0
        store_ticket = writer.start(first, records)
        block_cpu.append(time.process_time() - cpu0)
    t0 = time.perf_counter()
    writer.wait(store_ticket)
    t_io_wait += time.perf_counter() - t0
    return t_compute, t_io_wait, block_cpu
