import os
import subprocess
import sys

import numpy as np
import pytest

import gwasgls
from gwasgls import fileio
from gwasgls.cli import main


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

    def test_dist_over_budget_is_2(self, tmp_path, monkeypatch):
        d = _gen(tmp_path, n=40, m=50)
        monkeypatch.setenv("GWAS_GLS_MEM_BUDGET_BYTES", "1000")
        out = str(tmp_path / "o.gwab")
        assert main(_solve_args(d, out, "dist", "--np", "2")) == 2

    def test_oracle_scale_limit_is_2(self, tmp_path):
        d = _gen(tmp_path, n=501, m=10)
        args = _solve_args(d, str(tmp_path / "o.gwab"), "oracle")
        assert main(args) == 2


class TestBench:
    def test_sweep_writes_records(self, tmp_path, capsys):
        report = str(tmp_path / "report.txt")
        args = ["bench", "--sweep", "m", "--values", "40,80",
                "--report", report, "--n", "30", "--p", "3",
                "--mode", "ooc", "--block-size", "16",
                "--workdir", str(tmp_path / "wk")]
        assert main(args) == 0
        lines = open(report).read().strip().splitlines()
        assert len(lines) == 2
        for line, m in zip(lines, (40, 80)):
            assert f"m={m}" in line and "mode=ooc" in line
            assert "t_compute=" in line and "bytes_read=" in line


def test_console_script_smoke(tmp_path):
    d = str(tmp_path / "data")
    # the child imports the same package as this process, installed or not
    src = os.path.dirname(os.path.dirname(gwasgls.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))
    r = subprocess.run(
        [sys.executable, "-m", "gwasgls.cli", "gen", "--n", "20", "--m", "10",
         "--p", "3", "--out", d],
        capture_output=True, text=True, env=env)
    assert r.returncode == 0
    assert "gen n=20 m=10 p=3" in r.stdout
