import argparse
import errno
import itertools
import os
import pathlib
import re
import resource
import shlex
import subprocess
import sys
import threading
import time
import types

import numpy as np
import pytest

import gwasgls
from gwasgls import distgrid, fileio, pipeline, transport
from gwasgls.cli import build_parser, main
from gwasgls.errors import GwasGlsError, TransportFailure
from gwasgls.fileio import partial_path

from conftest import (drain_thread, rank_thread, refuse_thread_start,
                      summary_from_record)


def _gen(tmp_path, n=100, m=500, p=4, seed=42):
    d = str(tmp_path / "data")
    assert main(["gen", "--n", str(n), "--m", str(m), "--p", str(p),
                 "--seed", str(seed), "--out", d]) == 0
    return d


def _solve_args(data_dir, out, mode, *extra):
    return ["solve", "--mode", mode,
            "--cov", f"{data_dir}/covariance.gwam",
            "--covariates", f"{data_dir}/covariates.gwac",
            "--pheno", f"{data_dir}/phenotype.gway",
            "--geno", f"{data_dir}/genotypes.gwax",
            "--out", out, *extra]


class TestPipelines:
    def test_gen_solve_verify_against_oracle(self, tmp_path):
        d = _gen(tmp_path)
        out = str(tmp_path / "incore.gwab")
        oracle = str(tmp_path / "oracle.gwab")
        assert main(_solve_args(d, out, "incore")) == 0
        assert main(_solve_args(d, oracle, "oracle")) == 0
        assert main(["verify", "--a", out, "--b", oracle,
                     "--tol", "1e-8"]) == 0

    def test_dist_matches_ooc(self, tmp_path):
        d = _gen(tmp_path)
        ooc = str(tmp_path / "ooc.gwab")
        dist = str(tmp_path / "dist.gwab")
        assert main(_solve_args(d, ooc, "ooc", "--block-size", "128")) == 0
        assert main(_solve_args(d, dist, "dist", "--np", "4")) == 0
        assert main(["verify", "--a", ooc, "--b", dist,
                     "--tol", "1e-12"]) == 0

    def test_verify_flags_disagreement(self, tmp_path):
        d = _gen(tmp_path, n=40, m=30)
        out = str(tmp_path / "a.gwab")
        assert main(_solve_args(d, out, "incore")) == 0
        payload = fileio.read_matrix(out, "GWAB")
        betas = payload.betas.copy()
        betas[0] += 1.0
        other = str(tmp_path / "b.gwab")
        fileio.write_matrix(other, "GWAB",
                            fileio.ResultPayload(betas=betas, sinv=None))
        assert main(["verify", "--a", out, "--b", other,
                     "--tol", "1e-8"]) == 1

    def test_verify_flags_an_s_inverse_disagreement(self, tmp_path):
        d = _gen(tmp_path, n=40, m=30)
        out = str(tmp_path / "a.gwab")
        assert main(_solve_args(d, out, "incore", "--emit-sinv")) == 0
        payload = fileio.read_matrix(out, "GWAB")
        sinv = payload.sinv.copy()
        sinv[3, np.argmax(np.abs(sinv[3]))] *= 1 + 1e-6
        other = str(tmp_path / "b.gwab")
        fileio.write_matrix(other, "GWAB", fileio.ResultPayload(
            betas=payload.betas, sinv=sinv))
        assert main(["verify", "--a", out, "--b", out, "--tol", "1e-10"]) == 0
        assert main(["verify", "--a", out, "--b", other,
                     "--tol", "1e-10"]) == 1

    @pytest.mark.parametrize("mode,extra", [
        ("ooc", ()), ("incore", ()),
        ("dist", ("--np", "2", "--transport", "inproc")),
        ("dist", ("--np", "2", "--transport", "socket"))],
        ids=["ooc", "incore", "dist-inproc-np2", "dist-socket-np2"])
    def test_record_counts_degenerate_markers(self, degenerate_dataset,
                                              tmp_path, capfd, mode, extra):
        # at 16-marker blocks, each of the two ranks holds one of them
        ds, flagged = degenerate_dataset
        out = str(tmp_path / "o.gwab")
        args = _solve_args(os.path.dirname(ds.geno), out, mode, *extra)
        if mode != "incore":
            args += ["--block-size", "16"]
        assert main(args) == 0
        record = summary_from_record(capfd.readouterr().out)
        assert record.degenerate == len(flagged) == 2

    def test_emit_sinv_flag(self, tmp_path):
        d = _gen(tmp_path, n=40, m=30)
        out = str(tmp_path / "s.gwab")
        assert main(_solve_args(d, out, "ooc", "--emit-sinv")) == 0
        assert fileio.read_matrix(out, "GWAB").sinv is not None


class TestExitCodes:
    def test_usage_error_is_2(self):
        assert main(["solve", "--mode", "incore"]) == 2

    def test_unknown_mode_is_2(self, tmp_path):
        d = _gen(tmp_path, n=20, m=10)
        args = _solve_args(d, str(tmp_path / "o.gwab"), "warp")
        assert main(args) == 2

    def test_missing_file_is_3(self, tmp_path):
        args = _solve_args(str(tmp_path / "nope"),
                           str(tmp_path / "o.gwab"), "incore")
        assert main(args) == 3

    def test_bad_magic_is_3(self, tmp_path):
        d = _gen(tmp_path, n=20, m=10)
        # phenotype handed in as covariance
        args = ["solve", "--mode", "incore",
                "--cov", f"{d}/phenotype.gway",
                "--covariates", f"{d}/covariates.gwac",
                "--pheno", f"{d}/phenotype.gway",
                "--geno", f"{d}/genotypes.gwax",
                "--out", str(tmp_path / "o.gwab")]
        assert main(args) == 3

    def test_indefinite_covariance_is_4(self, tmp_path, capsys):
        d = _gen(tmp_path, n=20, m=10)
        M = fileio.read_matrix(f"{d}/covariance.gwam", "GWAM")
        M[5, 5] = -100.0
        fileio.write_matrix(f"{d}/covariance.gwam", "GWAM", M)
        args = _solve_args(d, str(tmp_path / "o.gwab"), "incore")
        assert main(args) == 4
        assert 'error code=4 msg="' in capsys.readouterr().err

    def test_rank_deficient_covariates_is_4(self, tmp_path):
        d = _gen(tmp_path, n=40, m=50)
        XL = fileio.read_matrix(f"{d}/covariates.gwac", "GWAC")
        XL[:, 2] = XL[:, 1]
        fileio.write_matrix(f"{d}/covariates.gwac", "GWAC", XL)
        out = str(tmp_path / "o.gwab")
        assert main(_solve_args(d, out, "ooc")) == 4
        assert main(_solve_args(d, out, "dist", "--np", "2")) == 4

    @pytest.mark.parametrize("mode,extra", [
        ("incore", ()), ("ooc", ()), ("dist", ("--np", "2")),
        ("dist", ("--np", "2", "--transport", "socket"))])
    def test_covariates_without_columns_is_3(self, tmp_path, capsys, mode,
                                             extra):
        d = _gen(tmp_path, n=20, m=10)
        covariates = f"{d}/covariates.gwac"
        fileio.write_matrix(covariates, "GWAC", np.empty((20, 0)))
        out = str(tmp_path / "o.gwab")
        assert main(_solve_args(d, out, mode, *extra)) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error code=3 ")
        assert covariates in err[0]
        assert "at least one covariate column" in err[0]
        assert not os.path.exists(out)

    def test_budget_not_an_integer_is_2(self, tmp_path, monkeypatch, capsys):
        d = _gen(tmp_path, n=20, m=10)
        monkeypatch.setenv("GWAS_GLS_MEM_BUDGET_BYTES", "lots")
        out = str(tmp_path / "o.gwab")
        assert main(_solve_args(d, out, "ooc")) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error code=2 ")
        assert "GWAS_GLS_MEM_BUDGET_BYTES" in err[0]

    def test_dist_over_budget_is_2(self, tmp_path, monkeypatch):
        d = _gen(tmp_path, n=40, m=50)
        monkeypatch.setenv("GWAS_GLS_MEM_BUDGET_BYTES", "1000")
        out = str(tmp_path / "o.gwab")
        assert main(_solve_args(d, out, "dist", "--np", "2")) == 2

    @pytest.mark.parametrize("mode", ["ooc", "dist"])
    def test_block_size_below_one_is_2(self, tmp_path, mode):
        d = _gen(tmp_path, n=20, m=10)
        out = str(tmp_path / "o.gwab")
        assert main(_solve_args(d, out, mode, "--block-size", "0")) == 2

    @pytest.mark.parametrize("transport", ["inproc", "socket"])
    def test_np_below_one_is_2(self, tmp_path, transport, capsys):
        d = _gen(tmp_path, n=20, m=10)
        out = str(tmp_path / "o.gwab")
        for np_ in ("0", "-1"):
            args = _solve_args(d, out, "dist", "--np", np_,
                               "--transport", transport)
            assert main(args) == 2
            assert "need at least one rank" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("mode,option", [
        ("incore", ("--block-size", "7")), ("oracle", ("--block-size", "7")),
        ("oracle", ("--emit-sinv",)), ("ooc", ("--np", "4")),
        ("ooc", ("--transport", "socket")), ("incore", ("--np", "1")),
        ("oracle", ("--transport", "inproc"))])
    def test_an_option_the_mode_ignores_is_2(self, tmp_path, capsys, mode,
                                             option):
        d = _gen(tmp_path, n=20, m=10)
        out = str(tmp_path / "o.gwab")
        assert main(_solve_args(d, out, mode, *option)) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f'error code=2 msg="{option[0]} does not apply '
                       f'to --mode {mode}"']
        assert not os.path.exists(out)

    def test_dist_runs_one_inproc_rank_by_default(self, tmp_path, capsys,
                                                  monkeypatch):
        launched = []
        run_spmd = transport.run_spmd

        def spy(size, *args, transport):
            launched.append((size, transport))
            return run_spmd(size, *args, transport=transport)

        monkeypatch.setattr(transport, "run_spmd", spy)
        d = _gen(tmp_path, n=20, m=10)
        assert main(_solve_args(d, str(tmp_path / "o.gwab"), "dist")) == 0
        assert launched == [(1, "inproc")]
        assert " np_=1 " in capsys.readouterr().out

    def test_transport_failure_is_3(self, tmp_path, monkeypatch, capsys):
        def rank_lost(t, paths, cfg):
            raise TransportFailure(t.rank, "rank 1 ended before sending")

        monkeypatch.setattr(distgrid, "run_dist", rank_lost)
        d = _gen(tmp_path, n=20, m=10)
        out = str(tmp_path / "o.gwab")
        assert main(_solve_args(d, out, "dist", "--np", "2")) == 3
        assert 'error code=3 msg="transport failure' in capsys.readouterr().err

    def test_unknown_result_flag_bits_is_3(self, tmp_path, capsys):
        d = _gen(tmp_path, n=40, m=30)
        out = str(tmp_path / "a.gwab")
        assert main(_solve_args(d, out, "incore")) == 0
        other = str(tmp_path / "b.gwab")
        with open(out, "rb") as f, open(other, "wb") as g:
            g.write(f.read())
            g.seek(24)  # the flags field of the header
            g.write((2).to_bytes(8, "little"))
        capsys.readouterr()
        assert main(["verify", "--a", out, "--b", other,
                     "--tol", "1e-8"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error code=3 "), err
        assert other in err[0] and "flags 0x2" in err[0], err

    def test_out_is_a_directory_is_3(self, tmp_path, capfd, monkeypatch):
        # no result could be renamed onto a directory, so the run fails
        # before its set-up reads any payload
        d = _gen(tmp_path, n=40, m=30)
        out = tmp_path / "o.gwab"
        out.mkdir()
        read = _refuse_payload_reads(monkeypatch, tmp_path)
        for mode, *extra in (("ooc", "--block-size", "8"), ("oracle",),
                             ("dist", "--np", "2", "--transport", "socket")):
            capfd.readouterr()
            assert main(_solve_args(d, str(out), mode, *extra)) == 3
            err = capfd.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error code=3 "), err
            assert "Is a directory" in err[0] and str(out) in err[0], err
            assert list(out.iterdir()) == []
            assert not os.path.exists(partial_path(str(out)))
        assert not read.exists()

    def test_out_in_a_missing_directory_is_3(self, tmp_path, capfd,
                                             monkeypatch):
        # refused before any payload is read, as a directory is
        d = _gen(tmp_path, n=40, m=30)
        out = str(tmp_path / "missing" / "o.gwab")
        read = _refuse_payload_reads(monkeypatch, tmp_path)
        for mode, *extra in (("ooc",), ("oracle",),
                             ("dist", "--np", "2", "--transport", "socket")):
            capfd.readouterr()
            assert main(_solve_args(d, out, mode, *extra)) == 3
            err = capfd.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error code=3 "), err
            assert f"No such directory for {out}" in err[0], err
        assert not read.exists()

    def test_oracle_scale_limit_is_2(self, tmp_path, monkeypatch):
        # the limits are applied to the headers, before any payload is read
        d = _gen(tmp_path, n=501, m=10)
        read = _refuse_payload_reads(monkeypatch, tmp_path)
        args = _solve_args(d, str(tmp_path / "o.gwab"), "oracle")
        assert main(args) == 2
        assert not read.exists()

    @pytest.mark.parametrize("bad", ["asymmetric", "non-finite"])
    def test_bad_covariance_is_one_line_in_every_engine(self, tmp_path, capfd,
                                                       bad):
        # one reader checks the covariance for every engine, so each
        # refuses it with the same line, naming the file
        d = _gen(tmp_path, n=100, m=40, p=3)
        cov = f"{d}/covariance.gwam"
        M = fileio.read_matrix(cov, "GWAM")
        if bad == "asymmetric":
            M[99, 1] += 1.0
        else:
            M[70, 5] = M[5, 70] = np.inf
        fileio.write_matrix(cov, "GWAM", M)
        out = str(tmp_path / "o.gwab")
        lines = []
        for mode, *extra in (("ooc",), ("incore",), ("oracle",),
                             ("dist", "--np", "2", "--transport", "socket")):
            capfd.readouterr()
            assert main(_solve_args(d, out, mode, *extra)) == 3
            lines.append(capfd.readouterr().err.splitlines())
            assert not os.path.exists(out)
        assert all(err == lines[0] for err in lines) and len(lines[0]) == 1, lines
        assert cov in lines[0][0]
        assert ("not exactly symmetric" if bad == "asymmetric"
                else "non-finite") in lines[0][0]

    @pytest.mark.parametrize("mode", ["ooc", "incore", "oracle"])
    @pytest.mark.parametrize("swap", ["plus-identity", "n90"])
    def test_a_replaced_covariance_is_not_read(self, tmp_path, monkeypatch,
                                               mode, swap):
        # the covariance is replaced by rename, as gen makes it, after the
        # run has opened it and before it reads it: the run reads the file
        # it opened, and writes the undisturbed run's results byte for byte
        d = _gen(tmp_path, n=100, m=40, p=3)
        cov = f"{d}/covariance.gwam"
        ref, out = str(tmp_path / "ref.gwab"), str(tmp_path / "o.gwab")
        assert main(_solve_args(d, ref, mode)) == 0
        M = fileio.read_matrix(cov, "GWAM")
        new = M + np.eye(100) if swap == "plus-identity" else M[:90, :90]
        read = fileio.read_covariance

        def replacing(f, *args):
            fileio.write_matrix(f.path, "GWAM", new)
            return read(f, *args)

        monkeypatch.setattr(fileio, "read_covariance", replacing)
        assert main(_solve_args(d, out, mode)) == 0
        monkeypatch.undo()
        assert np.array_equal(fileio.read_matrix(cov, "GWAM"), new)
        with open(ref, "rb") as a, open(out, "rb") as b:
            assert a.read() == b.read()


def _refuse_payload_reads(monkeypatch, tmp_path):
    """Make every payload read fail, and touch the returned path first,
    which forked socket ranks do too."""
    read = tmp_path / "payload-read"

    def reading(*args, **kwargs):
        read.touch()
        raise AssertionError("payload read")

    monkeypatch.setattr(fileio.ColumnFile, "read", reading)
    return read


def _shrink_mid_run(monkeypatch, kept=96):
    """Cut the genotype file to its first `kept` markers as soon as a rank
    starts to load a later one: the file shrinks after the reader checked
    it at open. Forked socket ranks inherit the patch.

    At --block-size 64 the cut lies inside the second block, so on 2 or 4
    ranks only the ranks whose share of that block lies past it read
    short; the others read theirs in full and go on to the block's
    collective whitening, sending to a rank that has failed."""
    start = fileio.BlockReader.start

    def shrinking_start(self, first_index, count, buffer):
        if first_index >= kept:
            os.truncate(self.file.path,
                        fileio.header_size("GWAX")
                        + 8 * self.file.dims[0] * kept)
        return start(self, first_index, count, buffer)

    monkeypatch.setattr(fileio.BlockReader, "start", shrinking_start)


def _raise_in_solve(monkeypatch):
    """Make the last rank raise a GwasGlsError in the solve of its second
    block, as it whitens it."""
    stream = pipeline.stream

    def failing_stream(t, paths, cfg, prepare, *args, **kwargs):
        def failing_prepare(t, files):
            ctx = prepare(t, files)
            whiten, blocks = ctx.whiten, []

            def failing_whiten(columns):
                blocks.append(columns.shape)
                if t.rank == t.size - 1 and len(blocks) == 2:
                    raise GwasGlsError(f"rank {t.rank} fails in its second block")
                return whiten(columns)

            ctx.whiten = failing_whiten
            return ctx

        return stream(t, paths, cfg, failing_prepare, *args, **kwargs)

    monkeypatch.setattr(pipeline, "stream", failing_stream)


def _fail_second_store(monkeypatch, m_blk=64, width=3):
    """Make every pwrite into the second block of m_blk records of `width`
    reals, or a later one, raise ENOSPC, as a full disk would: each rank
    fails at its second store. Forked socket ranks inherit the patch."""
    pwrite = os.pwrite
    second = fileio.header_size("GWAB") + 8 * width * m_blk

    def failing(fd, data, offset):
        if offset >= second:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return pwrite(fd, data, offset)

    monkeypatch.setattr(os, "pwrite", failing)


class TestFailedRuns:
    """A failed run exits with its documented code and one error line, in
    bounded time, and leaves neither <out> nor <out>.partial behind."""

    @pytest.fixture()
    def shrinking(self, tmp_path, monkeypatch):
        # 400 markers, cut to the first 96 once a rank starts to load a
        # later one
        d = _gen(tmp_path, n=50, m=400, p=3)
        _shrink_mid_run(monkeypatch)
        return d

    @staticmethod
    def _left_behind(out):
        return [f for f in (out, partial_path(out)) if os.path.exists(f)]

    # a failed run of these sizes ends in about a second; a hang would not
    DEADLINE_S = 30.0

    def _run(self, capfd, args):
        """(exit code, stderr lines) of main(args), which must return
        within DEADLINE_S."""
        capfd.readouterr()
        exits = []
        th = threading.Thread(target=lambda: exits.append(main(args)),
                              daemon=True)
        th.start()
        th.join(timeout=self.DEADLINE_S)
        assert not th.is_alive(), "run hung"
        return exits, capfd.readouterr().err.splitlines()

    def test_socket_ranks_exit_3(self, shrinking, tmp_path, capfd):
        # rank 1's share of the second block, markers [96, 128), reads
        # short and that rank closes its sockets, while rank 0, whose
        # [64, 96) read in full, is sending to it in the block's whitening;
        # rank 0's broken pipe must not hide the short read
        geno = f"{shrinking}/genotypes.gwax"
        whole = open(geno, "rb").read()
        out = str(tmp_path / "o.gwab")
        args = _solve_args(shrinking, out, "dist", "--np", "2",
                           "--transport", "socket", "--block-size", "64")
        for _ in range(10):
            with open(geno, "wb") as f:
                f.write(whole)
            exits, err = self._run(capfd, args)
            assert exits == [3], err
            assert len(err) == 1 and err[0].startswith("error code=3 "), err
            assert f"{geno} ended" in err[0], err
            assert "short of columns [96, 128)" in err[0], err
            assert self._left_behind(out) == []

    @pytest.mark.parametrize("np_", [2, 4])
    @pytest.mark.parametrize("bad", ["asymmetric", "non-finite"])
    def test_bad_covariance_on_one_rank_exits_3(self, tmp_path, np_, bad):
        # the entry (99, 1), or the diagonal entry 99, lies in the share of
        # the last rank of the 1x2 and the 2x2 grid, and only that rank
        # compares it with its mirror; the other ranks are waiting on its
        # first Cholesky panel when it fails
        d = _gen(tmp_path, n=100, m=40, p=3)
        cov = f"{d}/covariance.gwam"
        M = fileio.read_matrix(cov, "GWAM")
        if bad == "asymmetric":
            M[99, 1] += 1.0
        else:
            M[99, 99] = np.nan
        fileio.write_matrix(cov, "GWAM", M)
        out = str(tmp_path / "o.gwab")
        args = _solve_args(d, out, "dist", "--np", str(np_),
                           "--transport", "socket")
        start = time.monotonic()
        r = subprocess.run([sys.executable, "-m", "gwasgls.cli", *args],
                           capture_output=True, text=True, env=_child_env(),
                           timeout=4 * self.DEADLINE_S)
        assert time.monotonic() - start < self.DEADLINE_S
        err = r.stderr.splitlines()
        assert r.returncode == 3, r.stderr
        assert len(err) == 1 and err[0].startswith("error code=3 "), err
        assert ("not exactly symmetric" if bad == "asymmetric"
                else "non-finite") in err[0]
        assert self._left_behind(out) == []

    @pytest.mark.parametrize("transport", ["inproc", "socket"])
    @pytest.mark.parametrize("np_", [1, 2, 4])
    @pytest.mark.parametrize("fault", [
        "truncated", "indefinite", "first-block", "no-out-dir",
        "shrinks-mid-run", "raises-in-solve", "asymmetric", "non-finite",
        "input-is-a-directory", "store-fails"])
    def test_fault_matrix(self, tmp_path, capfd, monkeypatch, transport, np_,
                          fault):
        # a data fault exits 3 and a numerical one 4, with one error line
        # that names its cause, in bounded time, on every rank count and
        # launch
        out = str(tmp_path / "o.gwab")
        extra, code = ("--block-size", "64"), 3
        if fault in ("truncated", "first-block"):
            # the last 100 of 400 markers cut off, or all but the first 30
            # of 500, inside the first block: refused at open
            n, m, kept = ((50, 400, 300) if fault == "truncated"
                          else (100, 500, 30))
            d = _gen(tmp_path, n=n, m=m, p=3)
            cause = f"{d}/genotypes.gwax"
            os.truncate(cause, fileio.header_size("GWAX") + 8 * n * kept)
        elif fault in ("shrinks-mid-run", "raises-in-solve"):
            # mid-run: after the set-up, with <out>.partial made
            d = _gen(tmp_path, n=50, m=400, p=3)
            if fault == "shrinks-mid-run":
                _shrink_mid_run(monkeypatch)
                cause = f"{d}/genotypes.gwax ended"
            else:
                _raise_in_solve(monkeypatch)
                cause = "fails in its second block"
        elif fault in ("indefinite", "asymmetric", "non-finite"):
            d = _gen(tmp_path, n=100, m=40, p=3)
            cov = f"{d}/covariance.gwam"
            M = fileio.read_matrix(cov, "GWAM")
            if fault == "indefinite":
                M[70, 70] = -5.0
                code, cause = 4, "not positive definite"
            elif fault == "asymmetric":  # in the last rank's share, as above
                M[99, 1] += 1.0
                cause = "not exactly symmetric"
            else:
                M[99, 99] = np.nan
                cause = f"{cov}: covariance has non-finite entries"
            fileio.write_matrix(cov, "GWAM", M)
        elif fault == "input-is-a-directory":
            d = _gen(tmp_path, n=50, m=400, p=3)
            cause = f"{d}/covariance.gwam"
            os.remove(cause)
            os.mkdir(cause)
        elif fault == "store-fails":
            # mid-run, at the second block's store
            d = _gen(tmp_path, n=50, m=400, p=3)
            _fail_second_store(monkeypatch)
            cause = "No space left on device"
        else:
            d = _gen(tmp_path, n=50, m=400, p=3)
            out = str(tmp_path / "missing" / "o.gwab")
            cause = out
        args = _solve_args(d, out, "dist", "--np", str(np_),
                           "--transport", transport, *extra)
        exits, err = self._run(capfd, args)
        assert exits == [code], err
        assert len(err) == 1 and err[0].startswith(f"error code={code} "), err
        assert cause in err[0], err
        assert self._left_behind(out) == []

    @pytest.mark.parametrize("mode,huge,extra", [
        ("oracle", "GWAM", ()), ("ooc", "GWAX", ()),
        ("dist", "GWAX", ("--np", "2", "--transport", "socket"))],
        ids=["oracle", "ooc", "dist-socket-np2"])
    def test_header_no_file_backs_exits_3(self, tmp_path, mode, huge, extra):
        # a covariance header of order 3,000,000, or a genotype header of
        # 10^13 markers, over an empty payload: refused at open, before a
        # buffer or a block plan is made, so the run ends at once in a
        # child held to 1 GiB of address space
        d = _gen(tmp_path, n=20, m=10, p=3)
        path, dims = ((f"{d}/covariance.gwam", (3_000_000,)) if huge == "GWAM"
                      else (f"{d}/genotypes.gwax", (20, 10 ** 13)))
        with open(path, "wb") as f:
            f.write(fileio.pack_header(huge, dims))
        out = str(tmp_path / "o.gwab")
        r = subprocess.run(
            [sys.executable, "-m", "gwasgls.cli",
             *_solve_args(d, out, mode, *extra)],
            capture_output=True, text=True, timeout=5,
            # one BLAS thread: the limit then measures the header check,
            # not the thread buffers numpy's import reserves
            env={**_child_env(), "OPENBLAS_NUM_THREADS": "1",
                 "OMP_NUM_THREADS": "1"},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                                  (2 ** 30, 2 ** 30)))
        err = r.stderr.splitlines()
        assert r.returncode == 3, r.stderr
        assert len(err) == 1 and err[0].startswith("error code=3 "), err
        assert path in err[0], err
        assert self._left_behind(out) == []

    @pytest.mark.parametrize("mode,extra", [
        ("ooc", ()), ("dist", ("--np", "2", "--transport", "socket")),
        ("oracle", ())], ids=["ooc", "dist-socket-np2", "oracle"])
    def test_genotype_n_checked_before_setup(self, tmp_path, capfd,
                                             monkeypatch, mode, extra):
        # genotypes for 50 samples against a covariance of 60: every mode,
        # the oracle too, names both files before it reads any payload
        d = _gen(tmp_path, n=60, m=300, p=3)
        fileio.write_matrix(f"{d}/genotypes.gwax", "GWAX", np.ones((50, 300)))
        read = _refuse_payload_reads(monkeypatch, tmp_path)
        capfd.readouterr()
        out = str(tmp_path / "o.gwab")
        assert main(_solve_args(d, out, mode, *extra)) == 3
        err = capfd.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error code=3 "), err
        assert f"{d}/covariance.gwam has n=60" in err[0], err
        assert f"{d}/genotypes.gwax has n=50" in err[0], err
        assert not read.exists()
        assert self._left_behind(out) == []

    @pytest.mark.parametrize("mode,extra", [
        ("ooc", ()), ("dist", ("--np", "2", "--transport", "socket")),
        ("oracle", ())], ids=["ooc", "dist-socket-np2", "oracle"])
    @pytest.mark.parametrize("name,kind,shape", [
        ("covariance.gwam", "GWAM", (50, 50)), ("phenotype.gway", "GWAY", (50,)),
        ("covariates.gwac", "GWAC", (50, 2))], ids=["GWAM", "GWAY", "GWAC"])
    def test_input_n_checked_before_setup(self, tmp_path, capfd, monkeypatch,
                                          mode, extra, name, kind, shape):
        # a covariance, phenotype or covariates file of 50 samples beside
        # genotypes of 60: every mode names both files before it reads any
        # payload
        d = _gen(tmp_path, n=60, m=300, p=3)
        fileio.write_matrix(f"{d}/{name}", kind, np.ones(shape))
        read = _refuse_payload_reads(monkeypatch, tmp_path)
        capfd.readouterr()
        out = str(tmp_path / "o.gwab")
        assert main(_solve_args(d, out, mode, *extra)) == 3
        err = capfd.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error code=3 "), err
        assert f"{d}/{name} has n=50" in err[0], err
        assert f"{d}/genotypes.gwax has n=60" in err[0], err
        assert not read.exists()
        assert self._left_behind(out) == []

    @pytest.mark.parametrize("mode,extra", [("ooc", ()),
                                            ("dist", ("--np", "2"))],
                             ids=["ooc", "dist-inproc-np2"])
    def test_no_partial_file_is_left(self, shrinking, tmp_path, mode, extra):
        out = str(tmp_path / "o.gwab")
        assert main(_solve_args(shrinking, out, mode, "--block-size", "64",
                                *extra)) == 3
        assert self._left_behind(out) == []

    @pytest.mark.parametrize("mode,extra", [
        ("ooc", ()), ("dist", ("--np", "2", "--transport", "inproc"))],
        ids=["ooc", "dist-inproc-np2"])
    def test_out_of_memory_exits_2(self, tmp_path, capfd, monkeypatch, mode,
                                   extra):
        # as numpy does when a buffer region cannot be allocated
        def empty(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.45 GiB for an array")

        d = _gen(tmp_path, n=20, m=10)
        monkeypatch.setattr(pipeline, "np", types.SimpleNamespace(empty=empty))
        out = str(tmp_path / "o.gwab")
        exits, err = self._run(capfd, _solve_args(d, out, mode, *extra))
        assert exits == [2]
        assert err == ['error code=2 msg="Unable to allocate 7.45 GiB '
                       'for an array"']
        assert self._left_behind(out) == []

    def test_a_fork_that_fails_mid_launch_exits_3(self, tmp_path, capfd,
                                                  monkeypatch):
        forks = []
        real_fork = os.fork

        def fork():
            forks.append(None)
            if len(forks) == 2:
                raise BlockingIOError(errno.EAGAIN, "fork refused")
            return real_fork()

        d = _gen(tmp_path, n=20, m=10)
        monkeypatch.setattr(os, "fork", fork)
        out = str(tmp_path / "o.gwab")
        exits, err = self._run(capfd, _solve_args(
            d, out, "dist", "--np", "3", "--transport", "socket"))
        assert exits == [3]
        assert err == [f'error code=3 msg="[Errno {errno.EAGAIN}] fork refused"']
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert self._left_behind(out) == []

    @pytest.mark.parametrize("mode,extra", [
        ("ooc", ()), ("incore", ()), ("oracle", ()), ("dist", ()),
        ("dist", ("--np", "2", "--transport", "inproc")),
        ("dist", ("--np", "2", "--transport", "socket")),
        ("dist", ("--np", "4", "--transport", "inproc")),
        ("dist", ("--np", "4", "--transport", "socket"))],
        ids=["ooc", "incore", "oracle", "dist-np1", "dist-inproc-np2",
             "dist-socket-np2", "dist-inproc-np4", "dist-socket-np4"])
    @pytest.mark.parametrize("bad", ["phenotype", "covariates", "genotypes"])
    def test_non_finite_phenotype_or_covariate_exits_3(self, tmp_path, capfd,
                                                       mode, extra, bad):
        # every engine and the oracle read the phenotype and covariates
        # through one reader, before any result file is made; the sweep
        # finds the genotypes in the last rank's chunk of the one block,
        # after rank 0 has made <out>.partial: one error line that names
        # the file, and no file left
        d = _gen(tmp_path, n=50, m=40, p=3)
        if bad == "phenotype":
            path, kind = f"{d}/phenotype.gway", "GWAY"
            A = fileio.read_matrix(path, kind)
            A[17] = np.nan
            cause = f"{path}: phenotype has non-finite entries"
        elif bad == "covariates":
            path, kind = f"{d}/covariates.gwac", "GWAC"
            A = fileio.read_matrix(path, kind)
            A[30, 1] = -np.inf
            cause = f"{path}: covariates have non-finite entries"
        else:
            path, kind = f"{d}/genotypes.gwax", "GWAX"
            A = fileio.read_matrix(path, kind)
            A[49, 37] = np.inf  # whitened, still inf, not NaN
            A[4, 39] = np.nan
            cause = f"{path}: genotypes have non-finite entries (first at marker 37)"
        fileio.write_matrix(path, kind, A)
        out = str(tmp_path / "o.gwab")
        exits, err = self._run(capfd, _solve_args(d, out, mode, *extra))
        assert exits == [3], err
        assert err == [f'error code=3 msg="{cause}"']
        assert self._left_behind(out) == []

    @pytest.mark.parametrize("transport,fails", [
        ("inproc", "drain"), ("socket", "drain"), ("inproc", "rank")])
    def test_a_thread_that_cannot_start_exits_3(self, tmp_path, capfd,
                                                monkeypatch, transport, fails):
        # rank 1's transport, or rank 2's thread, cannot start
        d = _gen(tmp_path, n=20, m=10)
        refuse_thread_start(monkeypatch, drain_thread(1, 2) if fails == "drain"
                            else rank_thread(2))
        out = str(tmp_path / "o.gwab")
        exits, err = self._run(capfd, _solve_args(
            d, out, "dist", "--np", "3", "--transport", transport))
        assert exits == [3], err
        rank = 1 if fails == "drain" else 2
        assert len(err) == 1 and err[0].startswith(
            f'error code=3 msg="transport failure at rank {rank}: '), err
        assert "can't start new thread" in err[0], err
        assert self._left_behind(out) == []

    @pytest.mark.parametrize("mode,extra", [
        ("ooc", ()), ("incore", ()), ("oracle", ()),
        ("dist", ("--np", "2", "--transport", "socket"))],
        ids=["ooc", "incore", "oracle", "dist-socket-np2"])
    @pytest.mark.parametrize("empty", ["m", "n"])
    def test_empty_dataset_exits_3(self, tmp_path, capfd, mode, extra, empty):
        # genotypes of no marker, or four files of no sample: one error
        # line that names the genotype file, in every engine, before any
        # result file is made
        d = _gen(tmp_path, n=20, m=10, p=3)
        geno = f"{d}/genotypes.gwax"
        if empty == "m":
            fileio.write_matrix(geno, "GWAX", np.empty((20, 0)))
        else:
            for name, kind, shape in (("covariance.gwam", "GWAM", (0, 0)),
                                      ("covariates.gwac", "GWAC", (0, 2)),
                                      ("phenotype.gway", "GWAY", (0,)),
                                      ("genotypes.gwax", "GWAX", (0, 10))):
                fileio.write_matrix(f"{d}/{name}", kind, np.empty(shape))
        out = str(tmp_path / "o.gwab")
        exits, err = self._run(capfd, _solve_args(d, out, mode, *extra))
        assert exits == [3], err
        assert len(err) == 1 and err[0].startswith("error code=3 "), err
        assert f"genotype file {geno} holds" in err[0], err
        assert self._left_behind(out) == []

    @pytest.mark.parametrize("mode,extra", [
        ("ooc", ()), ("dist", ("--np", "2", "--transport", "socket"))],
        ids=["ooc", "dist-socket-np2"])
    def test_failed_run_keeps_the_earlier_results(self, tmp_path, capfd,
                                                  monkeypatch, mode, extra):
        # the last rank fails in its second block, after rank 0 made
        # <out>.partial: the completed run's <out> stays byte for byte
        d = _gen(tmp_path, n=50, m=400, p=3)
        out = str(tmp_path / "o.gwab")
        args = _solve_args(d, out, mode, "--block-size", "64", *extra)
        assert main(args) == 0
        with open(out, "rb") as f:
            before = f.read()
        _raise_in_solve(monkeypatch)
        exits, err = self._run(capfd, args)
        assert exits == [3], err
        assert len(err) == 1 and "fails in its second block" in err[0], err
        with open(out, "rb") as f:
            assert f.read() == before
        assert not os.path.exists(partial_path(out))


def _child_env():
    """This environment, with the package this process imports, installed
    or not, first on a child's path."""
    src = os.path.dirname(os.path.dirname(gwasgls.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_console_script_smoke(tmp_path):
    d = str(tmp_path / "data")
    r = subprocess.run(
        [sys.executable, "-m", "gwasgls.cli", "gen", "--n", "20", "--m", "10",
         "--p", "3", "--out", d],
        capture_output=True, text=True, env=_child_env())
    assert r.returncode == 0
    assert "gen n=20 m=10 p=3" in r.stdout


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
SHELL_OPERATORS = {"|", "||", "&&", ";", "&", "<", ">", ">>"}


def _readme_commands():
    """(subcommand, its --options) of every `gwasgls` command in README's
    code blocks, continuation lines joined."""
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(), re.S | re.M)
    commands = []
    for line in "\n".join(blocks).replace("\\\n", " ").splitlines():
        words = shlex.split(line, comments=True)
        for at in (i for i, w in enumerate(words) if w == "gwasgls"):
            args = itertools.takewhile(lambda w: w not in SHELL_OPERATORS,
                                       words[at + 2:])
            commands.append((words[at + 1], [w for w in args if w.startswith("--")]))
    return commands


def test_readme_commands_exist_in_the_parser():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    commands = _readme_commands()
    assert {name for name, _ in commands} == set(sub.choices)
    for name, options in commands:
        known = sub.choices[name]._option_string_actions
        assert [o for o in options if o not in known] == [], name
    # and the other way: README shows every option of every subcommand
    for name, parser in sub.choices.items():
        shown = {o for command, options in commands if command == name
                 for o in options}
        assert [o for o in parser._option_string_actions
                if o.startswith("--") and o not in shown | {"--help"}] == [], name
