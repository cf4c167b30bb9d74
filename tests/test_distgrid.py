import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwasgls import distgrid, fileio, kernel
from gwasgls.datagen import GenSpec, compare_results, gen_dataset
from gwasgls.distgrid import (
    DistConfig,
    DistMatrix1D,
    DistMatrix2D,
    dist_cholesky,
    dist_trsolve,
    gather_matrix,
    grid_create,
    owner_1d,
    owner_2d,
    redist_1d_to_2d,
    redist_2d_to_1d,
    run_dist,
    scatter_matrix,
)
from gwasgls.errors import (
    ConfigError,
    DimensionMismatch,
    NotPositiveDefinite,
    RankDeficientCovariates,
)
from gwasgls.pipeline import DEFAULT_M_BLK, SolveConfig, run_incore, run_ooc
from gwasgls.transport import run_spmd

from conftest import (
    count_zero_copy_views,
    make_spd,
    record_block_views,
    solve_paths,
)


class TestGrid:
    @pytest.mark.parametrize("np_,r,c", [
        (1, 1, 1), (6, 2, 3), (16, 4, 4), (7, 1, 7), (12, 3, 4), (36, 6, 6),
    ])
    def test_near_square_grids(self, np_, r, c):
        g = grid_create(np_)
        assert (g.r, g.c) == (r, c)
        assert g.r * g.c == np_

    def test_owner_2d_example(self):
        g = grid_create(6)  # 2 x 3
        rank, li, lj = owner_2d(3, 4, g)
        assert g.coord(rank) == (1, 1)
        assert (li, lj) == (1, 1)

    def test_owner_1d_example(self):
        g = grid_create(6)
        rank, lcol = owner_1d(7, g)
        assert rank == 1
        assert g.coord(rank) == (0, 1)

    def test_single_rank_identity(self):
        g = grid_create(1)
        for i in range(4):
            for j in range(5):
                assert owner_2d(i, j, g) == (0, i, j)
            assert owner_1d(j, g) == (0, j)

    @settings(max_examples=50, deadline=None)
    @given(np_=st.integers(1, 8), i=st.integers(0, 63), j=st.integers(0, 63))
    def test_owner_maps_round_trip(self, np_, i, j):
        g = grid_create(np_)
        rank, li, lj = owner_2d(i, j, g)
        prow, pcol = g.coord(rank)
        assert (li * g.r + prow, lj * g.c + pcol) == (i, j)
        r1, lc = owner_1d(j, g)
        assert lc * np_ + r1 == j


def _dist_roundtrip(np_, gr, gc, seed):
    A = np.random.default_rng(seed).standard_normal((gr, gc))

    def body(t):
        grid = grid_create(t.size)
        D = scatter_matrix(A if t.rank == 0 else None, grid, t)
        # local ownership is exactly the cyclic slice
        prow, pcol = grid.coord(t.rank)
        assert np.array_equal(D.local, A[prow::grid.r, pcol::grid.c])
        back = gather_matrix(D, t)
        if t.rank == 0:
            assert np.array_equal(back, A)
        D1 = redist_2d_to_1d(D, t)
        assert np.array_equal(D1.local, A[:, t.rank::t.size])
        D2 = redist_1d_to_2d(D1, t)
        assert np.array_equal(D2.local, D.local)
        return True

    assert all(run_spmd(np_, body))


class TestDistribution:
    def test_identity_on_2x2(self):
        A = np.eye(4)

        def body(t):
            grid = grid_create(4)
            D = scatter_matrix(A if t.rank == 0 else None, grid, t)
            prow, pcol = grid.coord(t.rank)
            expect = np.eye(2) if prow == pcol else np.zeros((2, 2))
            assert np.array_equal(D.local, expect)
            return True

        assert all(run_spmd(4, body))

    def test_np1_local_copy(self):
        _dist_roundtrip(1, 9, 7, 0)

    def test_random_37x37_on_2x3(self):
        _dist_roundtrip(6, 37, 37, 1)

    def test_random_16x12_on_2x2(self):
        _dist_roundtrip(4, 16, 12, 2)

    def test_element_conservation_checksum(self):
        gr, gc = 11, 13
        A = np.random.default_rng(3).standard_normal((gr, gc))

        def body(t):
            grid = grid_create(t.size)
            D = scatter_matrix(A if t.rank == 0 else None, grid, t)
            D1 = redist_2d_to_1d(D, t)
            # multiset of (i, j, value) is conserved
            triples = set()
            for lc, j in enumerate(range(t.rank, gc, t.size)):
                for i in range(gr):
                    triples.add((i, j, D1.local[i, lc]))
            return triples

        union = set()
        for part in run_spmd(4, body):
            union |= part
        expect = {(i, j, A[i, j]) for i in range(gr) for j in range(gc)}
        assert union == expect

    @settings(max_examples=15, deadline=None)
    @given(np_=st.integers(1, 8), gr=st.integers(1, 64), gc=st.integers(1, 64),
           seed=st.integers(0, 10**6))
    def test_round_trips_bitwise_property(self, np_, gr, gc, seed):
        _dist_roundtrip(np_, gr, gc, seed)


class TestWindow:
    @pytest.mark.parametrize("np_", [1, 2, 4, 6])  # grids 1x1, 1x2, 2x2, 2x3
    def test_window_matches_ix_reference(self, np_):
        # every window of a 7x8 matrix, so windows start and end at every
        # phase of the grid period, and some hold nothing of a rank
        gr, gc = 7, 8
        grid = grid_create(np_)
        A = np.arange(gr * gc, dtype=float).reshape(gr, gc)
        owns_nothing = 0
        for rank in range(np_):
            prow, pcol = grid.coord(rank)
            D = DistMatrix2D(gr, gc, grid, rank, A[prow::grid.r, pcol::grid.c])
            rows = distgrid._rows_of(gr, grid, prow)
            cols = distgrid._cols_of(gc, grid, pcol)
            for r0, r1 in itertools.combinations(range(gr + 1), 2):
                for c0, c1 in itertools.combinations(range(gc + 1), 2):
                    rsel = rows[(rows >= r0) & (rows < r1)]
                    csel = cols[(cols >= c0) & (cols < c1)]
                    W = A[r0:r1, c0:c1]
                    local, at = distgrid._window(D, rank, r0, r1, c0, c1)
                    ref = D.local[np.ix_(rsel // grid.r, csel // grid.c)]
                    assert np.array_equal(D.local[local], ref)
                    assert np.array_equal(W[at], W[np.ix_(rsel - r0, csel - c0)])
                    assert np.array_equal(W[at], D.local[local])
                    owns_nothing += ref.size == 0
        assert owns_nothing > 0 if np_ > 1 else owns_nothing == 0


class TestDistKernels:
    @pytest.mark.parametrize("np_", [1, 4, 6])
    @pytest.mark.parametrize("n", [16, 96])
    def test_dist_cholesky_matches_replicated(self, np_, n):
        M = make_spd(n, 42)
        Lref = kernel.cholesky_spd(M)

        def body(t):
            grid = grid_create(t.size)
            D = scatter_matrix(M if t.rank == 0 else None, grid, t)
            Ld = dist_cholesky(D, t, nb=8)
            return gather_matrix(Ld, t)

        L = run_spmd(np_, body)[0]
        assert np.max(np.abs(L - Lref)) <= 1e-10 * np.max(np.abs(M))

    def test_dist_cholesky_n200_2x3(self):
        M = make_spd(200, 42)
        Lref = kernel.cholesky_spd(M)

        def body(t):
            D = scatter_matrix(M if t.rank == 0 else None, grid_create(6), t)
            return gather_matrix(dist_cholesky(D, t), t)

        L = run_spmd(6, body)[0]
        assert np.max(np.abs(L - Lref)) <= 1e-10 * np.max(np.abs(M))

    def test_dist_cholesky_np1_bitwise(self):
        M = make_spd(20, 1)

        def body(t):
            D = scatter_matrix(M, grid_create(1), t)
            return gather_matrix(dist_cholesky(D, t), t)

        assert np.array_equal(run_spmd(1, body)[0], kernel.cholesky_spd(M))

    def test_dist_cholesky_identity(self):
        def body(t):
            D = scatter_matrix(np.eye(16) if t.rank == 0 else None,
                               grid_create(4), t)
            return gather_matrix(dist_cholesky(D, t, nb=4), t)

        assert np.array_equal(run_spmd(4, body)[0], np.eye(16))

    def test_dist_cholesky_reports_global_pivot(self):
        M = np.eye(16)
        M[9, 9] = -1.0

        def body(t):
            D = scatter_matrix(M if t.rank == 0 else None, grid_create(4), t)
            with pytest.raises(NotPositiveDefinite) as exc:
                dist_cholesky(D, t, nb=4)
            return exc.value.pivot_index

        assert run_spmd(4, body) == [9] * 4

    @pytest.mark.parametrize("np_", [1, 4])
    def test_dist_trsolve_identity_returns_rhs(self, np_):
        B = np.random.default_rng(4).standard_normal((12, 5))
        X, _ = _trsolve_columns(np.eye(12), B, np_, nb=4)
        assert np.allclose(X, B)

    def test_dist_trsolve_residual(self):
        rng = np.random.default_rng(5)
        n = 96
        L = np.tril(rng.standard_normal((n, n))) + 10 * np.eye(n)
        B = rng.standard_normal((n, 64))
        X, _ = _trsolve_columns(L, B, 4, nb=16)
        assert np.max(np.abs(L @ X - B)) / np.max(np.abs(B)) <= 1e-12
        Xref = kernel.trsolve_lower(L, B)
        assert np.max(np.abs(X - Xref)) <= 1e-10 * np.max(np.abs(Xref))

    def test_dist_trsolve_np1_bitwise(self):
        rng = np.random.default_rng(6)
        L = np.tril(rng.standard_normal((10, 10))) + 5 * np.eye(10)
        B = rng.standard_normal((10, 3))
        X, in_place = _trsolve_columns(L, B, 1)
        assert np.array_equal(X, kernel.trsolve_lower(L, B))
        assert in_place == [True]

    def test_dist_trsolve_rank_without_columns(self):
        # 3 columns over 4 ranks: rank 3 holds none and still takes part
        rng = np.random.default_rng(7)
        n = 40
        L = np.tril(rng.standard_normal((n, n))) + 10 * np.eye(n)
        B = rng.standard_normal((n, 3))
        X, in_place = _trsolve_columns(L, B, 4, nb=8)
        Xref = kernel.trsolve_lower(L, B)
        assert np.max(np.abs(X - Xref)) <= 1e-10 * np.max(np.abs(Xref))
        assert in_place == [True] * 4

    @pytest.mark.parametrize("np_", [2, 4, 6])
    def test_dist_trsolve_sends_only_the_l_panels(self, np_):
        # every rank sends its owned entries of each row panel
        # L[k:k+kb, :k+kb] to each other rank, and nothing else
        n, nb = 100, 16
        L = make_spd(n, seed=8)

        def body(t):
            Ld = scatter_matrix(L if t.rank == 0 else None, grid_create(t.size), t)
            X = np.asfortranarray(np.ones((n, 2)))
            before = t.bytes_sent
            dist_trsolve(Ld, X, t, nb=nb)
            return t.bytes_sent - before

        panels = sum(min(nb, n - k) * (k + min(nb, n - k)) for k in range(0, n, nb))
        assert sum(run_spmd(np_, body)) == 8 * (np_ - 1) * panels

    def test_dist_trsolve_rejects_c_order_columns(self):
        def body(t):
            Ld = scatter_matrix(np.eye(6), grid_create(1), t)
            with pytest.raises(DimensionMismatch):
                dist_trsolve(Ld, np.ones((6, 2)), t)
            return True

        assert run_spmd(1, body) == [True]


def _trsolve_columns(L, B, np_, nb=distgrid.DEFAULT_PANEL):
    """dist_trsolve on np_ ranks, rank r holding columns r, r + np_, ...
    Returns the assembled solution and, per rank, whether dist_trsolve
    handed back the very array it was given."""
    def body(t):
        Ld = scatter_matrix(L if t.rank == 0 else None, grid_create(t.size), t)
        Xr = np.asfortranarray(B[:, t.rank::t.size])
        out = dist_trsolve(Ld, Xr, t, nb=nb)
        return out, out is Xr

    parts = run_spmd(np_, body)
    X = np.empty_like(B)
    for rank, (Xr, _) in enumerate(parts):
        X[:, rank::np_] = Xr
    return X, [same for _, same in parts]


class TestRunDist:
    def _dataset(self, tmp_path, n=100, m=500, p=4, seed=42):
        return gen_dataset(GenSpec(n=n, m=m, p=p, seed=seed),
                           str(tmp_path / "data"))

    def test_np1_equals_ooc(self, tmp_path, seed42_dataset):
        ooc = solve_paths(seed42_dataset, str(tmp_path / "ooc.gwab"))
        run_ooc(ooc, SolveConfig(m_blk=256))
        dist = solve_paths(seed42_dataset, str(tmp_path / "dist.gwab"))
        run_spmd(1, run_dist, dist, DistConfig())
        assert compare_results(ooc.out, dist.out, 1e-12).within

    @pytest.mark.parametrize("np_", [2, 4, 6])
    def test_matches_incore(self, tmp_path, seed42_dataset, np_):
        ref = solve_paths(seed42_dataset, str(tmp_path / "ref.gwab"))
        run_incore(ref)
        dist = solve_paths(seed42_dataset, str(tmp_path / f"d{np_}.gwab"))
        run_spmd(np_, run_dist, dist, DistConfig())
        rep = compare_results(ref.out, dist.out, 1e-10)
        assert rep.within, rep

    def test_np4_vs_np1_larger_instance(self, tmp_path):
        ds = self._dataset(tmp_path, n=200, m=2048, p=4)
        a = solve_paths(ds, str(tmp_path / "np1.gwab"))
        b = solve_paths(ds, str(tmp_path / "np4.gwab"))
        run_spmd(1, run_dist, a, DistConfig())
        run_spmd(4, run_dist, b, DistConfig())
        assert compare_results(a.out, b.out, 1e-10).within

    def test_partial_block_full_coverage(self, tmp_path):
        # m not divisible by m_blk: all records present, none spuriously NaN
        ds = self._dataset(tmp_path, n=60, m=333, p=4, seed=9)
        paths = solve_paths(ds, str(tmp_path / "d.gwab"))
        run_spmd(4, run_dist, paths, DistConfig(m_blk=128))
        from gwasgls import fileio
        payload = fileio.read_matrix(paths.out, "GWAB")
        assert payload.betas.shape == (333, 4)
        assert np.all(payload.statuses == "ok")
        assert np.all(np.isfinite(payload.betas))

    def test_rank_without_markers(self, tmp_path):
        # m=5 over 4 ranks: rank 3's only chunk is empty, so it reads and
        # stores nothing but still joins the collective solves
        ds = self._dataset(tmp_path, n=30, m=5, p=3, seed=3)
        ref = solve_paths(ds, str(tmp_path / "ref.gwab"))
        run_incore(ref)
        dist = solve_paths(ds, str(tmp_path / "d.gwab"))
        run_spmd(4, run_dist, dist, DistConfig())
        rep = compare_results(ref.out, dist.out, 1e-10)
        assert rep.within, rep

    def test_indivisible_m_blk_rejected(self, tmp_path, seed42_dataset):
        paths = solve_paths(seed42_dataset, str(tmp_path / "d.gwab"))
        with pytest.raises(ConfigError):
            run_spmd(3, run_dist, paths, DistConfig(m_blk=128))

    @pytest.mark.parametrize("np_", [2, 3])
    def test_default_block_is_the_ooc_block(self, tmp_path, monkeypatch, np_):
        # L is replicated once per dist_trsolve: once for [XL | y], then
        # once per block
        ds = self._dataset(tmp_path, n=16, m=6000, p=3, seed=4)
        calls = Counter()
        real = distgrid.dist_trsolve

        def counting(L, X, t, *args):
            calls[t.rank] += 1
            return real(L, X, t, *args)

        monkeypatch.setattr(distgrid, "dist_trsolve", counting)
        paths = solve_paths(ds, str(tmp_path / "d.gwab"))
        summary = run_spmd(np_, run_dist, paths, DistConfig())[0]
        assert summary.m_blk == DEFAULT_M_BLK // np_ * np_
        assert calls == {r: 1 + math.ceil(6000 / summary.m_blk) for r in range(np_)}

    def test_reader_buffers_within_budget(self, tmp_path, seed42_dataset,
                                          monkeypatch):
        # n=100, m=500 on 2 ranks: one 500-marker block, two 100 x 250
        # reader buffers per rank
        need = 2 * 8 * 100 * 250
        paths = solve_paths(seed42_dataset, str(tmp_path / "d.gwab"))
        monkeypatch.setenv("GWAS_GLS_MEM_BUDGET_BYTES", str(need - 1))
        with pytest.raises(ConfigError):
            run_spmd(2, run_dist, paths, DistConfig())
        monkeypatch.setenv("GWAS_GLS_MEM_BUDGET_BYTES", str(need))
        assert run_spmd(2, run_dist, paths, DistConfig())[0].m_blk == 500

    def test_zero_copy_views(self, tmp_path, seed42_dataset, monkeypatch):
        seen = record_block_views(monkeypatch)
        paths = solve_paths(seed42_dataset, str(tmp_path / "d.gwab"))
        run_spmd(2, run_dist, paths, DistConfig(m_blk=128))
        blocks, views = count_zero_copy_views(seen)
        assert blocks == 2 * 4
        assert views == blocks

    def test_rank_deficient_covariates(self, tmp_path):
        ds = self._dataset(tmp_path, n=40, m=50)
        XL = fileio.read_matrix(ds.covariates, "GWAC")
        XL[:, 2] = XL[:, 1]
        fileio.write_matrix(ds.covariates, "GWAC", XL)
        paths = solve_paths(ds, str(tmp_path / "d.gwab"))
        with pytest.raises(RankDeficientCovariates):
            run_spmd(2, run_dist, paths, DistConfig())

    def test_deterministic_result_files(self, tmp_path, seed42_dataset):
        a = solve_paths(seed42_dataset, str(tmp_path / "a.gwab"))
        b = solve_paths(seed42_dataset, str(tmp_path / "b.gwab"))
        run_spmd(4, run_dist, a, DistConfig())
        run_spmd(4, run_dist, b, DistConfig())
        assert open(a.out, "rb").read() == open(b.out, "rb").read()

    def test_degenerate_markers(self, tmp_path, degenerate_dataset):
        ds, (z, dup) = degenerate_dataset
        paths = solve_paths(ds, str(tmp_path / "d.gwab"))
        run_spmd(4, run_dist, paths, DistConfig(m_blk=16))
        from gwasgls import fileio
        statuses = fileio.read_matrix(paths.out, "GWAB").statuses
        assert statuses[z] == "degenerate"
        assert statuses[dup] == "degenerate"
        assert np.sum(statuses == "degenerate") == 2

    def test_socket_transport_end_to_end(self, tmp_path, seed42_dataset):
        a = solve_paths(seed42_dataset, str(tmp_path / "inproc.gwab"))
        b = solve_paths(seed42_dataset, str(tmp_path / "socket.gwab"))
        run_spmd(2, run_dist, a, DistConfig(), transport="inproc")
        run_spmd(2, run_dist, b, DistConfig(), transport="socket")
        assert open(a.out, "rb").read() == open(b.out, "rb").read()
