"""Span recorder that traces gwasgls from the outside, and the per-layer
figures computed from its spans.

`install` replaces the public entry points of the five layers (kernel,
fileio, pipeline, distgrid, transport) with wrappers that record one span
per call: name, start, end, the span that was open when it started, pid
and rank. The program's own code is not edited. Socket ranks are forked
worker processes; they inherit the wrappers, and the wrapper around
`distgrid.run_dist` writes each worker's spans when its rank body ends.

Timestamps are `time.perf_counter_ns()`, i.e. CLOCK_MONOTONIC on Linux,
so spans from different processes share one time axis.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

# Public entry points that get a span, per layer module.
TRACED = {
    "kernel": ["cholesky_spd", "trsolve_lower", "gram", "cholesky_solve_batch",
               "solve_small_spd", "gls_prepare", "solve_whitened_block",
               "gls_solve_block"],
    "fileio": ["read_matrix", "BlockReader.start", "BlockReader.wait",
               "BlockWriter.encode", "BlockWriter.start", "BlockWriter.wait"],
    "pipeline": ["run_incore", "run_ooc"],
    "distgrid": ["scatter_matrix", "gather_matrix", "redist_1d_to_2d",
                 "redist_2d_to_1d", "dist_cholesky", "dist_trsolve", "run_dist"],
    "transport": ["run_spmd", "Transport.send", "Transport.recv",
                  "Transport.broadcast", "Transport.allgather",
                  "Transport.alltoall", "Transport.barrier"],
}


def _trsm_size(L, B):
    cols = B.shape[1] if getattr(B, "ndim", 1) == 2 else 1
    return [L.shape[0], cols]


def _send_size(self, dst, data, _channel=0):
    return len(data)


# Work counted at the call, from the call's arguments.
COUNTS = {
    "kernel.trsolve_lower": _trsm_size,
    "transport.Transport.send": _send_size,
}

ENGINES = ("pipeline.run_ooc", "pipeline.run_incore", "distgrid.run_dist")


@dataclass
class Span:
    name: str
    start: int  # ns
    end: int    # ns
    sid: int
    parent: int | None
    pid: int
    rank: int
    count: object = None

    @property
    def dur(self):
        return self.end - self.start


class Recorder:
    """Spans of one process, kept in memory until `dump`.

    Span ids are (pid << 32 | serial), so a forked worker's ids never clash
    with its launcher's and a parent id names the parent's process.
    """

    def __init__(self):
        self.pid = os.getpid()
        self.spans = []
        self._serial = 0
        self._local = threading.local()

    def _thread_state(self):
        loc = self._local
        if not hasattr(loc, "stack"):
            loc.stack = []
            loc.rank = 0
        return loc

    def _new_id(self):
        pid = os.getpid()
        if pid != self.pid:
            # first span in a forked worker: drop the launcher's copies but
            # keep the inherited open-span stack, so the worker's spans point
            # at the launcher span that forked it
            self.pid, self.spans, self._serial = pid, [], 0
        self._serial += 1
        return (pid << 32) | self._serial

    def wrap(self, name, fn, count=None):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            loc = rec._thread_state()
            sid = rec._new_id()
            parent = loc.stack[-1] if loc.stack else None
            loc.stack.append(sid)
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                loc.stack.pop()
                rec.spans.append((name, t0, t1, sid, parent, rec.pid, loc.rank,
                                  count(*args, **kwargs) if count else None))

        return traced

    def set_rank(self, rank):
        self._thread_state().rank = rank

    def dump(self, out_dir):
        path = os.path.join(out_dir, f"spans-{os.getpid()}.json")
        with open(path, "w") as f:
            json.dump(self.spans, f)


def install(rec, modules, out_dir):
    """Wrap every entry point in TRACED. `modules` maps layer name to the
    imported gwasgls module; worker spans are written into `out_dir`."""
    for layer, names in TRACED.items():
        mod = modules[layer]
        for qual in names:
            owner = mod
            *path, attr = qual.split(".")
            for part in path:
                owner = getattr(owner, part)
            name = f"{layer}.{qual}"
            setattr(owner, attr, rec.wrap(name, getattr(owner, attr), COUNTS.get(name)))

    launcher = os.getpid()
    run_dist = modules["distgrid"].run_dist

    @functools.wraps(run_dist)
    def rank_body(t, *args, **kwargs):
        rec.set_rank(t.rank)
        try:
            return run_dist(t, *args, **kwargs)
        finally:
            if os.getpid() != launcher:
                rec.dump(out_dir)

    modules["distgrid"].run_dist = rank_body


def load(out_dir):
    spans = []
    for fname in sorted(os.listdir(out_dir)):
        if fname.startswith("spans-"):
            with open(os.path.join(out_dir, fname)) as f:
                spans.extend(Span(*row) for row in json.load(f))
    return spans


def layer_metrics(spans, n, m, dgemm_gflops):
    """Per-layer figures of one traced solve.

    Every process that ran a sweep (one for ooc, one per rank for dist)
    gets its own totals. Times and call counts are the maximum over ranks;
    transport bytes and messages are summed over ranks. The sweep of a
    rank starts at its first `BlockReader.wait`. A layer the workload does
    not run reads 0.
    """
    covered = defaultdict(int)
    for s in spans:
        if s.parent is not None and s.parent >> 32 == s.pid:
            covered[s.parent] += s.dur

    def self_ns(s):
        return s.dur - covered[s.sid]

    procs = defaultdict(list)
    for s in spans:
        procs[(s.pid, s.rank)].append(s)
    ranks = []
    for ss in procs.values():
        waits = [s for s in ss if s.name == "fileio.BlockReader.wait"]
        if not waits:
            continue  # the socket launcher: it forks ranks, sweeps nothing
        sweep0 = min(s.start for s in waits)
        engine_end = max(s.end for s in ss if s.name in ENGINES)
        by = defaultdict(list)
        for s in ss:
            by[s.name].append(s)

        def total(name, in_sweep=False, own=False):
            sel = [s for s in by[name] if not in_sweep or s.start >= sweep0]
            return sum(self_ns(s) if own else s.dur for s in sel), len(sel)

        r = {}
        r["prepare"], _ = total("kernel.gls_prepare")
        r["cholesky"], _ = total("kernel.cholesky_spd")
        r["trsm"], r["trsm_calls"] = total("kernel.trsolve_lower", in_sweep=True)
        r["trsm_flops"] = sum(s.count[0] ** 2 * s.count[1]
                              for s in by["kernel.trsolve_lower"] if s.start >= sweep0)
        r["whiten"], _ = total("kernel.solve_whitened_block", in_sweep=True)
        r["small"], _ = total("kernel.cholesky_solve_batch", in_sweep=True)
        r["solve_block"], _ = total("kernel.gls_solve_block")
        r["read_wait"], r["blocks"] = total("fileio.BlockReader.wait")
        r["write_wait"], _ = total("fileio.BlockWriter.wait")
        r["store_start"], _ = total("fileio.BlockWriter.start")
        r["input_read"], _ = total("fileio.read_matrix")
        r["sweep"] = engine_end - sweep0
        r["pipeline_self"] = (total("pipeline.run_ooc", own=True)[0]
                              + total("pipeline.run_incore", own=True)[0])
        r["scatter"], _ = total("distgrid.scatter_matrix")
        r["dcholesky"], _ = total("distgrid.dist_cholesky")
        r["dtrsolve_self"], _ = total("distgrid.dist_trsolve", in_sweep=True, own=True)
        a, ac = total("distgrid.redist_1d_to_2d")
        b, bc = total("distgrid.redist_2d_to_1d")
        r["redist"], r["redist_calls"] = a + b, ac + bc
        r["bytes_sent"] = sum(s.count for s in by["transport.Transport.send"])
        r["messages"] = len(by["transport.Transport.send"])
        r["recv_wait"], _ = total("transport.Transport.recv")
        for coll in ("allgather", "alltoall", "broadcast"):
            r[coll], r[coll + "_calls"] = total(f"transport.Transport.{coll}")
        ranks.append(r)

    def top(key):
        return max(r[key] for r in ranks)

    def secs(key):
        return top(key) / 1e9

    trsm_s = secs("trsm")
    trsm_gflops = top("trsm_flops") / trsm_s / 1e9 if trsm_s else 0.0
    solve_block = secs("solve_block")
    sweep = secs("sweep")
    bytes_sent = sum(r["bytes_sent"] for r in ranks)
    out = {
        "kernel.prepare_s": secs("prepare"),
        "kernel.cholesky_s": secs("cholesky"),
        "kernel.trsm_s": trsm_s,
        "kernel.trsm_calls": top("trsm_calls"),
        "kernel.trsm_gflops": trsm_gflops,
        "kernel.trsm_vs_dgemm": trsm_gflops / dgemm_gflops,
        "kernel.whiten_solve_s": secs("whiten"),
        "kernel.smallsolve_s": secs("small"),
        "kernel.nontrsm_share": 1.0 - trsm_s / solve_block if solve_block else 0.0,
        "fileio.read_wait_s": secs("read_wait"),
        "fileio.write_wait_s": secs("write_wait"),
        "fileio.store_start_s": secs("store_start"),
        "fileio.input_read_s": secs("input_read"),
        "fileio.io_wait_frac": (secs("read_wait") + secs("write_wait")) / sweep,
        "pipeline.self_s": secs("pipeline_self"),
        "pipeline.blocks": top("blocks"),
        "distgrid.scatter_s": secs("scatter"),
        "distgrid.cholesky_s": secs("dcholesky"),
        "distgrid.trsolve_s": secs("dtrsolve_self"),
        "distgrid.redist_s": secs("redist"),
        "distgrid.redist_calls": top("redist_calls"),
        "transport.bytes_sent": bytes_sent,
        "transport.messages": sum(r["messages"] for r in ranks),
        "transport.bytes_per_geno_byte": bytes_sent / (8 * n * m),
        "transport.recv_wait_s": secs("recv_wait"),
    }
    for coll in ("allgather", "alltoall", "broadcast"):
        out[f"transport.{coll}_calls"] = top(coll + "_calls")
        out[f"transport.{coll}_s"] = secs(coll)
    return out


# Figures that count work rather than time it; two traced solves of the
# same inputs must give the same values.
EXACT = ("kernel.trsm_calls", "pipeline.blocks", "distgrid.redist_calls",
         "transport.bytes_sent", "transport.messages",
         "transport.allgather_calls", "transport.alltoall_calls",
         "transport.broadcast_calls")
