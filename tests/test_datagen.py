import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwasgls import fileio, kernel
from gwasgls.datagen import (
    GenSpec,
    compare_results,
    gen_dataset,
    oracle_solve_all,
    planted_indices,
)
from gwasgls.errors import ConfigError
from gwasgls.pipeline import run_incore

from conftest import solve_paths


class TestGenSpec:
    def test_p_bounds_enforced(self):
        with pytest.raises(ConfigError):
            GenSpec(n=10, m=10, p=1, seed=0)
        with pytest.raises(ConfigError):
            GenSpec(n=10, m=10, p=21, seed=0)
        GenSpec(n=10, m=10, p=2, seed=0)
        GenSpec(n=10, m=10, p=20, seed=0)

    def test_positive_dims_required(self):
        with pytest.raises(ConfigError):
            GenSpec(n=0, m=10, p=4, seed=0)
        with pytest.raises(ConfigError):
            GenSpec(n=10, m=0, p=4, seed=0)


class TestDeterminism:
    def test_regeneration_byte_identical(self, tmp_path):
        spec = GenSpec(n=40, m=80, p=4, seed=7)
        a = gen_dataset(spec, str(tmp_path / "a"))
        b = gen_dataset(spec, str(tmp_path / "b"))
        for fa, fb in ((a.cov, b.cov), (a.covariates, b.covariates),
                       (a.pheno, b.pheno), (a.geno, b.geno)):
            assert open(fa, "rb").read() == open(fb, "rb").read()

    def test_seeds_differ(self, tmp_path):
        a = gen_dataset(GenSpec(n=40, m=80, p=4, seed=1), str(tmp_path / "a"))
        b = gen_dataset(GenSpec(n=40, m=80, p=4, seed=2), str(tmp_path / "b"))
        assert open(a.geno, "rb").read() != open(b.geno, "rb").read()

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31), m=st.integers(6, 40))
    def test_planted_indices_valid(self, seed, m):
        spec = GenSpec(n=10, m=m, p=3, seed=seed)
        idx = planted_indices(spec)
        assert idx == sorted(set(idx))
        assert len(idx) == min(5, m)
        assert all(0 <= i < m for i in idx)


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    d = tmp_path_factory.mktemp("small")
    spec = GenSpec(n=60, m=120, p=4, seed=11)
    return spec, gen_dataset(spec, str(d))


class TestDatasetContents:
    def test_dosages_in_012(self, small):
        _, paths = small
        X = fileio.read_matrix(paths.geno, "GWAX")
        assert set(np.unique(X)) <= {0.0, 1.0, 2.0}

    def test_covariates_have_intercept(self, small):
        _, paths = small
        XL = fileio.read_matrix(paths.covariates, "GWAC")
        assert np.array_equal(XL[:, 0], np.ones(60))
        assert XL.shape == (60, 3)

    def test_covariance_is_spd(self, small):
        _, paths = small
        M = fileio.read_matrix(paths.cov, "GWAM")
        kernel.cholesky_spd(M)  # must not raise

    def test_dims_as_specified(self, small):
        spec, paths = small
        for path, kind, dims in ((paths.geno, "GWAX", (60, 120)),
                                 (paths.pheno, "GWAY", (60,)),
                                 (paths.cov, "GWAM", (60,))):
            with fileio.ColumnFile(path, kind) as f:
                assert f.dims == dims

    def test_planted_markers_rank_high(self, tmp_path):
        # planted effects dominate: all 5 land in the top decile by |beta|
        spec = GenSpec(n=200, m=400, p=4, seed=13)
        paths = gen_dataset(spec, str(tmp_path / "d"))
        sp = solve_paths(paths, str(tmp_path / "out.gwab"))
        run_incore(sp)
        betas = fileio.read_matrix(sp.out, "GWAB").betas
        snp_beta = np.abs(betas[:, -1])
        top = set(np.argsort(snp_beta)[-40:])
        assert set(planted_indices(spec)) <= top


class TestOracle:
    def test_desk_scale_limits(self, tmp_path):
        paths = gen_dataset(GenSpec(n=501, m=10, p=3, seed=0),
                            str(tmp_path / "big"))
        with pytest.raises(ConfigError):
            oracle_solve_all(solve_paths(paths, str(tmp_path / "o.gwab")))

    def test_oracle_writes_complete_file(self, seed42_dataset, tmp_path):
        out = str(tmp_path / "o.gwab")
        payload = oracle_solve_all(solve_paths(seed42_dataset, out))
        assert payload.betas.shape == (500, 4)
        assert np.all(np.isfinite(payload.betas))
        back = fileio.read_matrix(out, "GWAB")
        assert np.array_equal(back.betas, payload.betas)


class TestCompareResults:
    def test_self_comparison_is_zero(self, seed42_dataset, tmp_path):
        sp = solve_paths(seed42_dataset, str(tmp_path / "a.gwab"))
        run_incore(sp)
        rep = compare_results(sp.out, sp.out, 1e-12)
        assert rep.max_rel_discrepancy == 0.0
        assert rep.status_mismatches == 0
        assert rep.compared == 500
        assert rep.within and rep.exit_code == 0

    def test_perturbation_flagged(self, seed42_dataset, tmp_path):
        sp = solve_paths(seed42_dataset, str(tmp_path / "a.gwab"))
        run_incore(sp)
        payload = fileio.read_matrix(sp.out, "GWAB")
        betas = payload.betas.copy()
        betas[17] *= 1.0 + 1e-6
        other = str(tmp_path / "b.gwab")
        fileio.write_matrix(other, "GWAB",
                            fileio.ResultPayload(betas=betas, sinv=None))
        rep = compare_results(sp.out, other, 1e-8)
        assert not rep.within and rep.exit_code == 1
        assert rep.max_rel_discrepancy > 1e-8

    def test_status_mismatch_counted(self, seed42_dataset, tmp_path):
        sp = solve_paths(seed42_dataset, str(tmp_path / "a.gwab"))
        run_incore(sp)
        payload = fileio.read_matrix(sp.out, "GWAB")
        betas = payload.betas.copy()
        betas[3] = np.nan
        other = str(tmp_path / "b.gwab")
        fileio.write_matrix(other, "GWAB",
                            fileio.ResultPayload(betas=betas, sinv=None))
        rep = compare_results(sp.out, other, 1e-8)
        assert rep.status_mismatches == 1
        assert not rep.within
