import builtins
import collections
import os
import pathlib
import signal
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

import gwasgls
from gwasgls import _blas, fileio, kernel, pipeline
from gwasgls.datagen import compare_results, oracle_solve_all
from gwasgls.distgrid import run_dist
from gwasgls.errors import ConfigError
from gwasgls.fileio import partial_path
from gwasgls.pipeline import (
    MEM_BUDGET_ENV,
    RunSummary,
    SolveConfig,
    block_plan,
    run_incore,
    run_ooc,
)
from gwasgls.transport import run_spmd

import conftest
from conftest import gls_oracle, solve_paths, summary_from_record


class TestBlockPlan:
    def test_forced_partition(self):
        assert block_plan(10, 4) == [(0, 4), (4, 4), (8, 2)]

    def test_single_block(self):
        assert block_plan(5, 8) == [(0, 5)]

    def test_three_equal_blocks_default_size(self):
        plan = block_plan(15000, 5000)
        assert plan == [(0, 5000), (5000, 5000), (10000, 5000)]

    def test_invariants(self):
        for m, m_blk in ((1, 1), (17, 3), (100, 7)):
            plan = block_plan(m, m_blk)
            assert sum(c for _, c in plan) == m
            assert all(1 <= c <= m_blk for _, c in plan)
            firsts = [f for f, _ in plan]
            assert firsts == sorted(firsts)


class TestEngines:
    def test_ooc_equals_incore(self, seed42_dataset, out_path):
        p1 = solve_paths(seed42_dataset, out_path("incore.gwab"))
        p2 = solve_paths(seed42_dataset, out_path("ooc.gwab"))
        run_incore(p1)
        run_ooc(p2, SolveConfig(m_blk=64))
        rep = compare_results(p1.out, p2.out, 1e-12)
        assert rep.within

    def test_ooc_block_size_invariance(self, seed42_dataset, out_path):
        outs = []
        for m_blk in (1, 7, 64, 500):
            p = solve_paths(seed42_dataset, out_path(f"ooc{m_blk}.gwab"))
            run_ooc(p, SolveConfig(m_blk=m_blk))
            outs.append(p.out)
        for other in outs[1:]:
            rep = compare_results(outs[0], other, 1e-12)
            assert rep.within, rep

    def test_matches_oracle(self, seed42_dataset, out_path):
        p = solve_paths(seed42_dataset, out_path("incore.gwab"))
        run_incore(p)
        oracle_out = out_path("oracle.gwab")
        oracle_solve_all(solve_paths(seed42_dataset, oracle_out))
        rep = compare_results(p.out, oracle_out, 1e-8)
        assert rep.within, rep

    def test_incore_trivially_equals_per_snp_oracle(self, tmp_path):
        from gwasgls.datagen import GenSpec, gen_dataset
        ds = gen_dataset(GenSpec(n=50, m=20, p=3, seed=3), str(tmp_path / "d"))
        p = solve_paths(ds, str(tmp_path / "out.gwab"))
        run_incore(p)
        payload = fileio.read_matrix(p.out, "GWAB")
        M = fileio.read_matrix(ds.cov, "GWAM")
        XL = fileio.read_matrix(ds.covariates, "GWAC")
        y = fileio.read_matrix(ds.pheno, "GWAY")
        X = fileio.read_matrix(ds.geno, "GWAX")
        for i in range(20):
            expect = gls_oracle(M, np.hstack([XL, X[:, i:i + 1]]), y)
            assert np.max(np.abs(payload.betas[i] - expect)) <= \
                1e-8 * max(np.max(np.abs(expect)), 1.0)

    def test_emit_sinv_flows_to_file(self, seed42_dataset, out_path):
        p = solve_paths(seed42_dataset, out_path("sinv.gwab"))
        run_ooc(p, SolveConfig(m_blk=200, emit_s_inv=True))
        payload = fileio.read_matrix(p.out, "GWAB")
        assert payload.sinv is not None
        assert payload.sinv.shape == (500, 10)
        assert np.all(np.isfinite(payload.sinv))

    def test_ooc_whitens_in_the_reader_buffers(self, seed42_dataset, out_path,
                                               monkeypatch):
        seen = conftest.record_block_views(monkeypatch)
        run_ooc(solve_paths(seed42_dataset, out_path("views.gwab")),
                SolveConfig(m_blk=64))
        assert conftest.count_zero_copy_views(seen) == (8, 8)

    @pytest.mark.parametrize("run,stores", [
        (run_ooc, 5), (run_incore, 1),
        (lambda p, cfg: run_spmd(2, run_dist, p, cfg)[0], 2 * 5)],
        ids=["ooc", "incore", "dist-np2"])
    def test_records_are_solved_into_the_staging_area(
            self, run, stores, seed42_dataset, out_path, monkeypatch):
        # the records each BlockWriter.start receives are the ones the
        # solve wrote into the output area it was given; a copy between
        # the small solves and the store leaves a block uncounted
        outs, seen = [], []
        solve, start = kernel.solve_whitened_block, fileio.BlockWriter.start

        def solving(ctx, Xbar, out, *args):
            outs.append(out)
            return solve(ctx, Xbar, out, *args)

        def recording(self, first, records):
            seen.append(any(np.shares_memory(records, o) for o in outs))
            return start(self, first, records)

        monkeypatch.setattr(kernel, "solve_whitened_block", solving)
        monkeypatch.setattr(fileio.BlockWriter, "start", recording)
        # incore runs one block of all m markers whatever m_blk says
        run(solve_paths(seed42_dataset, out_path("staged.gwab")),
            SolveConfig(m_blk=100, emit_s_inv=True))
        assert (len(seen), sum(seen)) == (stores, stores)

    @pytest.mark.parametrize("run,np_", [
        (run_ooc, 1), (lambda p, cfg: run_spmd(2, run_dist, p, cfg)[0], 2)],
        ids=["ooc", "dist-np2"])
    def test_each_rank_opens_the_result_file_once(
            self, run, np_, seed42_dataset, out_path, monkeypatch):
        # rank 0 creates it, the others open it after the barrier, and
        # every block is stored through that one descriptor
        opens = []

        def counting(path, mode="r", *args, **kwargs):
            opens.append((path, mode, threading.get_ident()))
            return builtins.open(path, mode, *args, **kwargs)

        monkeypatch.setattr(fileio, "open", counting, raising=False)
        p = solve_paths(seed42_dataset, out_path("once.gwab"))
        s = run(p, SolveConfig(m_blk=100))
        assert s.m // 100 == 5  # blocks stored per rank
        result = [(mode, rank) for path, mode, rank in opens
                  if path == partial_path(p.out)]
        assert sorted(mode for mode, _ in result) == ["r+b"] * (np_ - 1) + ["w+b"]
        assert len({rank for _, rank in result}) == np_

    @pytest.mark.parametrize("run,np_", [
        (run_ooc, 1), (run_incore, 1), (lambda p, cfg: oracle_solve_all(p), 1),
        (lambda p, cfg: run_spmd(2, run_dist, p, cfg)[0], 2)],
        ids=["ooc", "incore", "oracle", "dist-np2"])
    def test_each_rank_opens_each_input_once(
            self, run, np_, seed42_dataset, out_path, monkeypatch):
        # fileio.opening opens the four inputs, and every read of the run,
        # the set-up's and the sweep's, goes through those files
        opened = []
        init = fileio.ColumnFile.__init__

        def counting(self, path, *args, **kwargs):
            opened.append((path, threading.get_ident()))
            init(self, path, *args, **kwargs)

        monkeypatch.setattr(fileio.ColumnFile, "__init__", counting)
        p = solve_paths(seed42_dataset, out_path("inputs.gwab"))
        run(p, SolveConfig(m_blk=100))
        inputs = [(path, rank) for path, rank in opened
                  if path in (p.cov, p.covariates, p.pheno, p.geno)]
        assert len({rank for _, rank in inputs}) == np_
        assert sorted(collections.Counter(inputs).values()) == [1] * 4 * np_

    def test_writer_closed_when_a_rank_fails_before_the_barrier(
            self, seed42_dataset, out_path, monkeypatch):
        # rank 1 fails in its set-up, after rank 0 has created the result
        # file; rank 0's writer, its thread and its descriptor, still close
        made, closed = [], []
        init, close, stream = (fileio.BlockWriter.__init__,
                               fileio.BlockWriter.close, pipeline.stream)

        def making(self, *args, **kwargs):
            init(self, *args, **kwargs)
            made.append(self)

        def closing(self):
            closed.append(self)
            close(self)

        def failing_stream(t, paths, cfg, prepare, *args, **kwargs):
            def failing_prepare(t, files):
                prepared = prepare(t, files)  # collective: every rank ends it
                if t.rank == 1:
                    raise ConfigError("rank 1 fails in its set-up")
                return prepared
            return stream(t, paths, cfg, failing_prepare, *args, **kwargs)

        monkeypatch.setattr(fileio.BlockWriter, "__init__", making)
        monkeypatch.setattr(fileio.BlockWriter, "close", closing)
        monkeypatch.setattr(pipeline, "stream", failing_stream)
        p = solve_paths(seed42_dataset, out_path("failed.gwab"))
        with pytest.raises(ConfigError, match="rank 1 fails"):
            run_spmd(2, run_dist, p, SolveConfig(m_blk=100))
        assert len(made) == 1 and closed == made
        assert not os.path.exists(partial_path(p.out))

    @pytest.mark.parametrize("run,np_", [
        (run_ooc, 1), (run_incore, 1),
        (lambda p, cfg: run_spmd(2, run_dist, p, cfg)[0], 2)],
        ids=["ooc", "incore", "dist-np2"])
    def test_sweep_runs_at_the_rank_cap(self, run, np_, seed42_dataset,
                                        out_path, monkeypatch):
        # one OpenBLAS runs `@` and every _blas routine, from the set-up's
        # products to the last block's, at one count: the rank cap
        # max(1, cpus // np) over the process's CPU set, never raised
        before = _blas.threads()
        cap = max(1, len(os.sched_getaffinity(0)) // np_)
        seen = {"prepare_whitened": [], "solve_whitened_block": []}

        def counted(name):
            call = getattr(kernel, name)

            def record(*args, **kwargs):
                seen[name].append(_blas.threads())
                return call(*args, **kwargs)
            return record

        for name in seen:
            monkeypatch.setattr(kernel, name, counted(name))
        s = run(solve_paths(seed42_dataset, out_path("t.gwab")),
                SolveConfig(m_blk=100))
        assert all(counts and set(counts) == {min(before, cap)}
                   for counts in seen.values()), seen
        assert s.blas_threads == min(before, cap)
        # restored once the run is over
        assert _blas.threads() == before

    def test_degenerate_markers_flagged(self, degenerate_dataset, out_path):
        ds, (z, dup) = degenerate_dataset
        p = solve_paths(ds, out_path("deg.gwab"))
        run_ooc(p, SolveConfig(m_blk=16))
        statuses = fileio.read_matrix(p.out, "GWAB").statuses
        assert statuses[z] == "degenerate"
        assert statuses[dup] == "degenerate"
        assert np.sum(statuses == "degenerate") == 2


class _PacedFile:
    """A file whose readinto takes at least nbytes / rate seconds: a disk
    of bandwidth `rate` bytes/s, simulated by sleeping in the reader."""

    def __init__(self, f, rate):
        self._f, self._rate = f, rate

    def readinto(self, b):
        t0 = time.perf_counter()
        got = self._f.readinto(b)
        time.sleep(max(0.0, t0 + got / self._rate - time.perf_counter()))
        return got

    def __getattr__(self, name):
        return getattr(self._f, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()


class TestPacedReads:
    """Double buffering hides the genotype reads: with each block's read
    paced to io = 0.5, 1 and 2 times its compute, the sweep takes about
    first load + blocks * max(io, compute), not blocks * (io + compute).

    A whitening that holds the interpreter lock keeps the reader from
    starting the next load until it returns. SLACK comes from 5 runs at
    each ratio, one BLAS thread: through scipy's f2py dtrmm, which holds
    the lock, the sweep read 1.14-1.63 times the model; through the
    GIL-free call, 0.88-1.12.
    """

    N, M, M_BLK = 1200, 6000, 600
    SLACK = 1.10
    ATTEMPTS = 3  # a run pays for any scheduler burst; the best one counts

    @pytest.fixture(scope="class")
    def dataset(self, tmp_path_factory):
        from gwasgls.datagen import GenSpec, gen_dataset
        d = tmp_path_factory.mktemp("paced")
        return gen_dataset(GenSpec(n=self.N, m=self.M, p=4, seed=5), str(d))

    def _sweep(self, ds, out, monkeypatch, rate=None):
        """(sweep seconds, compute seconds) of one ooc run, its genotype
        reads paced to `rate` bytes/s when given."""
        spent = []
        sweep = pipeline.sweep

        def timed_sweep(*args, **kwargs):
            t0 = time.perf_counter()
            result = sweep(*args, **kwargs)
            spent.append(time.perf_counter() - t0)
            return result

        def paced_open(path, mode="r", *args, **kwargs):
            f = builtins.open(path, mode, *args, **kwargs)
            return _PacedFile(f, rate) if path == ds.geno else f

        with monkeypatch.context() as mp:
            mp.setattr(pipeline, "sweep", timed_sweep)
            if rate is not None:
                mp.setattr(fileio, "open", paced_open, raising=False)
            s = run_ooc(solve_paths(ds, out), SolveConfig(m_blk=self.M_BLK))
        return spent[0], s.t_compute

    @pytest.mark.parametrize("io_per_compute", [0.5, 1.0, 2.0])
    def test_sweep_within_first_load_plus_max_per_block(
            self, io_per_compute, dataset, tmp_path, monkeypatch):
        blocks = self.M // self.M_BLK
        block_bytes = 8 * self.N * self.M_BLK
        out = str(tmp_path / "o.gwab")
        # one BLAS thread, so the reader's copy out of the page cache has
        # a core of its own on a two-core host, as a disk would
        with _blas.rank_threads(os.cpu_count() or 1):
            compute = min(self._sweep(dataset, out, monkeypatch)[1]
                          for _ in range(2)) / blocks
            rate = block_bytes / (io_per_compute * compute)
            io = block_bytes / rate
            worst = []
            for _ in range(self.ATTEMPTS):
                t_sweep, t_compute = self._sweep(dataset, out, monkeypatch,
                                                 rate)
                model = io + blocks * max(io, t_compute / blocks)
                worst.append(t_sweep / model)
                if worst[-1] <= self.SLACK:
                    break
        assert min(worst) <= self.SLACK, worst


class TestMemoryBudget:
    # Python objects and the per-block reductions; one n x m_blk block
    # copy (2.88 MB at n=m_blk=600) would exceed it
    PEAK_SLACK = 2 ** 20

    @pytest.mark.parametrize("run,m_blk", [(run_ooc, 600), (run_ooc, 1800),
                                           (run_incore, 600)],
                             ids=["ooc", "ooc-one-block", "incore"])
    def test_traced_peak_within_estimate(self, run, m_blk, tmp_path):
        from gwasgls.datagen import GenSpec, gen_dataset
        ds = gen_dataset(GenSpec(n=600, m=1800, p=4, seed=3),
                         str(tmp_path / "d"))
        tracemalloc.start()
        try:
            s = run(solve_paths(ds, str(tmp_path / "out.gwab")),
                    SolveConfig(m_blk=m_blk, emit_s_inv=True))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= s.peak_resident_est + self.PEAK_SLACK, \
            (peak, s.peak_resident_est)

    def test_incore_rejected_below_budget(self, seed42_dataset, out_path,
                                          monkeypatch):
        p = solve_paths(seed42_dataset, out_path("x.gwab"))
        geno_bytes = 8 * 100 * 500
        monkeypatch.setenv(MEM_BUDGET_ENV, str(geno_bytes))
        with pytest.raises(ConfigError):
            run_incore(p)

    def test_ooc_streams_within_budget(self, seed42_dataset, out_path,
                                       monkeypatch):
        p1 = solve_paths(seed42_dataset, out_path("ref.gwab"))
        run_incore(p1)
        p2 = solve_paths(seed42_dataset, out_path("tight.gwab"))
        geno_bytes = 8 * 100 * 500
        monkeypatch.setenv(MEM_BUDGET_ENV, str(geno_bytes))
        s = run_ooc(p2, SolveConfig(m_blk=32))
        assert s.buffer_regions == 2
        assert compare_results(p1.out, p2.out, 1e-12).within

    def test_ooc_budget_counts_the_covariance(self, seed42_dataset, out_path,
                                              monkeypatch):
        # n=100, m_blk=32, p=4: two regions of 8*100*32 + 32*32 bytes fit,
        # the 8n^2 covariance next to them does not; the block being solved
        # adds its 32*32 bytes of small-solve scratch
        p = solve_paths(seed42_dataset, out_path("x.gwab"))
        regions = 2 * (8 * 100 * 32 + 32 * 32)
        monkeypatch.setenv(MEM_BUDGET_ENV, str(regions))
        with pytest.raises(ConfigError):
            run_ooc(p, SolveConfig(m_blk=32))
        need = 8 * 100 * 100 + regions + 32 * 32 + 8 * 100 * 4
        monkeypatch.setenv(MEM_BUDGET_ENV, str(need - 1))
        with pytest.raises(ConfigError):
            run_ooc(p, SolveConfig(m_blk=32))
        monkeypatch.setenv(MEM_BUDGET_ENV, str(need))
        s = run_ooc(p, SolveConfig(m_blk=32))
        assert s.peak_resident_est == need

    @pytest.mark.parametrize("emit", [False, True])
    def test_incore_budget_counts_the_results(self, seed42_dataset, out_path,
                                              emit, monkeypatch):
        # small-solve scratch and staged records: two records per marker
        p = solve_paths(seed42_dataset, out_path("x.gwab"))
        rsz = 8 * kernel.record_width(4, emit)
        need = 8 * 100 * 500 + 8 * 100 * 100 + 8 * 100 * 4 + 2 * 500 * rsz
        monkeypatch.setenv(MEM_BUDGET_ENV, str(need - 1))
        with pytest.raises(ConfigError):
            run_incore(p, SolveConfig(emit_s_inv=emit))
        monkeypatch.setenv(MEM_BUDGET_ENV, str(need))
        s = run_incore(p, SolveConfig(emit_s_inv=emit))
        assert s.peak_resident_est == need

    def test_one_block_ooc_is_incore(self, seed42_dataset, out_path):
        # m_blk >= m: one block, so one region, and the in-core estimate
        ic = solve_paths(seed42_dataset, out_path("ic.gwab"))
        oc = solve_paths(seed42_dataset, out_path("oc.gwab"))
        s_ic = run_incore(ic, SolveConfig(emit_s_inv=True))
        s_oc = run_ooc(oc, SolveConfig(m_blk=800, emit_s_inv=True))
        assert (s_ic.mode, s_oc.mode) == ("incore", "ooc")
        assert s_ic.buffer_regions == s_oc.buffer_regions == 1
        assert s_oc.peak_resident_est == s_ic.peak_resident_est
        assert pathlib.Path(oc.out).read_bytes() == \
            pathlib.Path(ic.out).read_bytes()

    def test_ooc_rejected_when_buffers_exceed_budget(self, seed42_dataset,
                                                     out_path, monkeypatch):
        p = solve_paths(seed42_dataset, out_path("x.gwab"))
        monkeypatch.setenv(MEM_BUDGET_ENV, "1000")
        with pytest.raises(ConfigError):
            run_ooc(p, SolveConfig(m_blk=500))

    def test_env_var_budget(self, seed42_dataset, out_path, monkeypatch):
        monkeypatch.setenv("GWAS_GLS_MEM_BUDGET_BYTES", "1000")
        p = solve_paths(seed42_dataset, out_path("x.gwab"))
        with pytest.raises(ConfigError):
            run_incore(p)


# runs the ooc engine on argv's five paths and kills itself with SIGKILL
# as soon as the first block's records are stored
_KILLED_AFTER_FIRST_STORE = """
import os, signal, sys
from gwasgls import fileio, pipeline

wait = fileio.BlockWriter.wait

def wait_then_die(self, ticket):
    wait(self, ticket)
    os.kill(os.getpid(), signal.SIGKILL)

fileio.BlockWriter.wait = wait_then_die
pipeline.run_ooc(pipeline.SolvePaths(*sys.argv[1:6]),
                 pipeline.SolveConfig(m_blk=100))
"""


_KILLED_AT_PAYLOAD_WRITE = """
import os, signal, sys
from gwasgls import fileio
from gwasgls.cli import main

pwrite = os.pwrite

def pwrite_or_die(fd, data, offset):
    if offset >= fileio.header_size(sys.argv[1]):
        os.kill(os.getpid(), signal.SIGKILL)
    return pwrite(fd, data, offset)

os.pwrite = pwrite_or_die
main(sys.argv[2:])
"""


class TestInterruptedRun:
    @staticmethod
    def _killed(script, *args):
        src = os.path.dirname(os.path.dirname(gwasgls.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))
        r = subprocess.run([sys.executable, "-c", script, *args], env=env)
        assert r.returncode == -signal.SIGKILL

    def _kill_after_first_store(self, p):
        self._killed(_KILLED_AFTER_FIRST_STORE,
                     p.cov, p.covariates, p.pheno, p.geno, p.out)
        # the run got as far as storing records, into the partial file
        assert os.path.getsize(partial_path(p.out)) > 0

    @pytest.mark.parametrize("command", ["oracle", "gen"])
    def test_killed_write_leaves_no_file(self, seed42_dataset, tmp_path,
                                         command):
        # a kill at the first payload write, after the file was sized:
        # its zeros would read back as valid results or genotypes
        if command == "oracle":
            out = str(tmp_path / "o.gwab")
            self._killed(_KILLED_AT_PAYLOAD_WRITE, "GWAB", "solve",
                         "--mode", "oracle", "--cov", seed42_dataset.cov,
                         "--covariates", seed42_dataset.covariates,
                         "--pheno", seed42_dataset.pheno,
                         "--geno", seed42_dataset.geno, "--out", out)
        else:
            d = tmp_path / "data"
            out = str(d / "genotypes.gwax")
            self._killed(_KILLED_AT_PAYLOAD_WRITE, "GWAX", "gen", "--n", "20",
                         "--m", "10", "--p", "3", "--out", str(d))
        assert not os.path.exists(out)
        assert os.path.getsize(partial_path(out)) > 0

    def test_killed_run_leaves_no_results(self, seed42_dataset, out_path):
        p = solve_paths(seed42_dataset, out_path("o.gwab"))
        self._kill_after_first_store(p)
        assert not os.path.exists(p.out)

    def test_killed_run_keeps_the_earlier_results(self, seed42_dataset,
                                                  out_path):
        p = solve_paths(seed42_dataset, out_path("o.gwab"))
        run_ooc(p, SolveConfig(m_blk=100))
        before = pathlib.Path(p.out).read_bytes()
        self._kill_after_first_store(p)
        assert pathlib.Path(p.out).read_bytes() == before

    @pytest.mark.parametrize("run", [run_ooc, run_incore],
                             ids=["ooc", "incore"])
    def test_completed_run_leaves_only_results(self, run, seed42_dataset,
                                               out_path):
        p = solve_paths(seed42_dataset, out_path("o.gwab"))
        run(p, SolveConfig(m_blk=100))
        assert os.listdir(os.path.dirname(p.out)) == ["o.gwab"]


class TestRunSummary:
    def test_record_round_trip(self):
        s = RunSummary(mode="ooc", n=10, m=20, p=4, m_blk=5, np_=1,
                       t_prepare=0.5, t_compute=1.25,
                       bytes_read=1600, buffer_regions=2)
        back = summary_from_record(s.to_record())
        assert back == s

    def test_measured_fields_round_trip(self):
        s = RunSummary(mode="dist", n=10, np_=2, blas_threads=1,
                       peak_rss_bytes=123456789)
        back = summary_from_record(s.to_record())
        assert (back.blas_threads, back.peak_rss_bytes) == (1, 123456789)

    def test_phase_times_nonnegative(self, seed42_dataset, out_path):
        p = solve_paths(seed42_dataset, out_path("s.gwab"))
        s = run_ooc(p, SolveConfig(m_blk=100))
        assert s.t_prepare >= 0 and s.t_compute >= 0 and s.t_io_wait >= 0
        assert s.t_prepare + s.t_compute + s.t_io_wait <= s.t_total * 1.05
        assert s.bytes_read >= 8 * 100 * 500
        assert s.bytes_written == 500 * 32
        assert s.bytes_sent == 0  # one rank has no one to send to
