"""Streaming driver: block scheduling plus double buffering so disk
transfers overlap compute.

`sweep` is the one block loop of the out-of-core and distributed engines:

    load_start(first)            # by the caller
    for each block:
        load_wait(current); if not last: load_start(next)
        solve the current block in its input region
        if not first: store_wait(previous)
        store_start(current)
    store_wait(last)

Two equally sized memory regions alternate between "being computed on"
and "being transferred"; a region under in-flight I/O is never touched by
compute (rendezvous at the wait calls).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import fileio, kernel
from .errors import ConfigError

DEFAULT_M_BLK = 5000
MEM_BUDGET_ENV = "GWAS_GLS_MEM_BUDGET_BYTES"


@dataclass
class BlockPlan:
    m: int
    m_blk: int
    blocks: list  # [(first_index, count), ...]


def block_plan(m, m_blk):
    """Contiguous disjoint blocks of at most m_blk columns covering [0, m)."""
    if m < 1 or m_blk < 1:
        raise ConfigError("m and m_blk must be >= 1")
    blocks = [(first, min(m_blk, m - first)) for first in range(0, m, m_blk)]
    return BlockPlan(m=m, m_blk=m_blk, blocks=blocks)


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
    peak_resident_est: int = 0
    buffer_regions: int = 0
    seed: int = -1
    # per-block CPU seconds of the streaming phase (load_wait + compute +
    # store_wait); profiling detail, not part of the one-line record
    block_cpu_times: list = field(default_factory=list)

    def to_record(self):
        parts = []
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, list):
                continue
            if isinstance(v, float):
                parts.append(f"{f.name}={v:.6f}")
            else:
                parts.append(f"{f.name}={v}")
        return " ".join(parts)

    @classmethod
    def from_record(cls, line):
        kw = {}
        typed = {f.name: f.type for f in fields(cls)}
        for tok in line.split():
            k, v = tok.split("=", 1)
            if k not in typed:
                continue
            t = typed[k]
            kw[k] = v if t in (str, "str") else (
                float(v) if t in (float, "float") else int(v))
        return cls(**kw)


@dataclass
class SolvePaths:
    cov: str
    covariates: str
    pheno: str
    geno: str
    out: str


@dataclass
class SolveConfig:
    m_blk: int = DEFAULT_M_BLK
    emit_s_inv: bool = False
    mem_budget_bytes: int | None = None  # None = take from env or unlimited


def check_budget(need, what, budget=None):
    """Raise ConfigError when `what`, needing `need` bytes, exceeds the
    memory budget: the one given, else MEM_BUDGET_ENV's value when set."""
    if budget is None and os.environ.get(MEM_BUDGET_ENV):
        budget = int(os.environ[MEM_BUDGET_ENV])
    if budget is not None and need > budget:
        raise ConfigError(f"{what} need {need} bytes, budget is {budget}")


def _load_prepare(paths):
    t0 = time.perf_counter()
    M = fileio.read_matrix(paths.cov, "GWAM")
    XL = fileio.read_matrix(paths.covariates, "GWAC")
    y = fileio.read_matrix(paths.pheno, "GWAY")
    ctx = kernel.gls_prepare(M, XL, y)
    return ctx, time.perf_counter() - t0, M.nbytes


def run_incore(paths, cfg=None):
    """Load the whole genotype matrix and solve it as one block.

    Reference engine for equivalence and overlap tests. Raises ConfigError
    when the dataset does not fit the memory budget.
    """
    cfg = cfg or SolveConfig()
    t_start = time.perf_counter()
    geno_bytes, n, m = fileio.total_genotype_bytes(paths.geno)
    need = geno_bytes + 8 * n * n
    check_budget(need, "in-core genotypes and covariance",
                 cfg.mem_budget_bytes)
    ctx, t_prep, m_bytes = _load_prepare(paths)
    p = ctx.p
    t0 = time.perf_counter()
    X = fileio.read_matrix(paths.geno, "GWAX")
    t_read = time.perf_counter() - t0
    t0 = time.perf_counter()
    block = kernel.gls_solve_block(
        ctx, kernel.SnpBlock(first_index=0, data=X), emit_s_inv=cfg.emit_s_inv)
    t_compute = time.perf_counter() - t0
    flags = 1 if cfg.emit_s_inv else 0
    writer = fileio.BlockWriter(paths.out, m, p, flags)
    t0 = time.perf_counter()
    writer.wait(writer.start(block))
    t_write = time.perf_counter() - t0
    writer.close()
    return RunSummary(
        mode="incore", n=n, m=m, p=p, m_blk=m, np_=1,
        t_prepare=t_prep, t_compute=t_compute, t_io_wait=t_read + t_write,
        t_total=time.perf_counter() - t_start,
        bytes_read=geno_bytes + m_bytes, bytes_written=m * fileio.record_size(p, flags),
        peak_resident_est=need + 8 * n * p, buffer_regions=1,
    )


def run_ooc(paths, cfg=None):
    """Out-of-core engine: stream genotype blocks through two buffer
    regions with asynchronous load/store overlapping compute."""
    cfg = cfg or SolveConfig()
    t_start = time.perf_counter()
    geno_bytes, n, m = fileio.total_genotype_bytes(paths.geno)
    m_blk = min(cfg.m_blk, m)
    ctx, t_prep, m_bytes = _load_prepare(paths)
    p = ctx.p
    flags = 1 if cfg.emit_s_inv else 0
    rsz = fileio.record_size(p, flags)
    region_bytes = 8 * n * m_blk + m_blk * rsz
    check_budget(2 * region_bytes, "two buffer regions", cfg.mem_budget_bytes)

    plan = block_plan(m, m_blk)
    reader = fileio.BlockReader(paths.geno)
    writer = fileio.BlockWriter(paths.out, m, p, flags)
    # exactly two regions, each one input buffer + one output staging area
    in_bufs = [np.empty((n, m_blk), order="F"), np.empty((n, m_blk), order="F")]
    out_bufs = [np.empty((m_blk, rsz // 8)), np.empty((m_blk, rsz // 8))]
    regions_allocated = 2

    def solve(first, columns):
        return kernel.gls_solve_block(
            ctx, kernel.SnpBlock(first_index=first, data=columns),
            emit_s_inv=cfg.emit_s_inv)

    load_ticket = reader.start(*plan.blocks[0], in_bufs[0])
    t_compute, t_io_wait, block_cpu = sweep(
        reader, writer, plan.blocks, in_bufs, load_ticket, solve, out_bufs)
    bytes_read = reader.bytes_read
    bytes_written = writer.bytes_written
    reader.close()
    writer.close()
    return RunSummary(
        mode="ooc", n=n, m=m, p=p, m_blk=m_blk, np_=1,
        t_prepare=t_prep, t_compute=t_compute, t_io_wait=t_io_wait,
        t_total=time.perf_counter() - t_start,
        bytes_read=bytes_read + m_bytes, bytes_written=bytes_written,
        peak_resident_est=8 * n * n + 2 * region_bytes + 8 * n * p,
        buffer_regions=regions_allocated,
        block_cpu_times=block_cpu,
    )


def sweep(reader, writer, blocks, in_bufs, load_ticket, solve,
          out_bufs=(None, None)):
    """Stream blocks [(first_index, count), ...] through the two input
    regions in_bufs. The load of blocks[0] into in_bufs[0] is already in
    flight as load_ticket (None if that block is empty).

    solve(first_index, columns) gets a view of the block in its input
    region and returns a ResultBlock, whose records are staged in
    out_bufs[i] when given. An empty block is neither read nor stored, but
    solve still runs on it, because a distributed solve is collective.

    Returns (t_compute, t_io_wait, per-block CPU seconds).
    """
    t_compute = 0.0
    t_io_wait = 0.0
    block_cpu = []
    store_ticket = None
    for bi, (first, count) in enumerate(blocks):
        cur = bi % 2
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        if load_ticket is not None:
            reader.wait(load_ticket)
        t_io_wait += time.perf_counter() - t0
        load_ticket = None
        if bi + 1 < len(blocks) and blocks[bi + 1][1]:
            load_ticket = reader.start(*blocks[bi + 1], in_bufs[1 - cur])
        t0 = time.perf_counter()
        result = solve(first, in_bufs[cur][:, :count])
        t_compute += time.perf_counter() - t0
        t0 = time.perf_counter()
        if store_ticket is not None:
            writer.wait(store_ticket)
        t_io_wait += time.perf_counter() - t0
        store_ticket = writer.start(result, buffer=out_bufs[cur]) if count else None
        block_cpu.append(time.process_time() - cpu0)
    t0 = time.perf_counter()
    if store_ticket is not None:
        writer.wait(store_ticket)
    t_io_wait += time.perf_counter() - t0
    return t_compute, t_io_wait, block_cpu
