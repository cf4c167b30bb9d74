import itertools
import math
import os
import pickle
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwasgls import _blas, distgrid, fileio, kernel
from gwasgls.datagen import GenSpec, compare_results, gen_dataset
from gwasgls.distgrid import (
    DEFAULT_PANEL,
    DistMatrix1D,
    DistMatrix2D,
    dist_cholesky,
    dist_trsolve,
    gather_matrix,
    grid_create,
    redist_1d_to_2d,
    redist_2d_to_1d,
    run_dist,
    scatter_matrix,
)
from gwasgls.errors import (
    AsymmetricCovariance,
    ConfigError,
    DimensionMismatch,
    NonFiniteInput,
    NotPositiveDefinite,
    RankDeficientCovariates,
)
from gwasgls.pipeline import (
    DEFAULT_M_BLK,
    SolveConfig,
    block_plan,
    run_incore,
    run_ooc,
)
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

    @pytest.mark.parametrize("np_", [2, 4, 6])  # grids 1x2, 2x2, 2x3
    def test_scatter_sends_each_share_once(self, np_):
        # rank 0 sends every other rank its share and the pickled shape;
        # no other rank sends anything
        gr, gc = 23, 17
        grid = grid_create(np_)
        A = np.random.default_rng(np_).standard_normal((gr, gc))

        def body(t):
            scatter_matrix(A if t.rank == 0 else None, grid, t)
            return t.bytes_sent

        sent = run_spmd(np_, body)
        own = len(range(0, gr, grid.r)) * len(range(0, gc, grid.c))
        shape = len(pickle.dumps((gr, gc)))
        assert sent[0] == 8 * (gr * gc - own) + (np_ - 1) * shape
        assert sent[1:] == [0] * (np_ - 1)

    @pytest.mark.parametrize("np_", [2, 4, 6])  # grids 1x2, 2x2, 2x3
    def test_redistributed_columns_are_column_major(self, np_):
        # like every share and panel of the module; at 11 columns each
        # rank but the last of np 6 holds two
        A = np.random.default_rng(np_).standard_normal((13, 11))

        def body(t):
            D = scatter_matrix(A if t.rank == 0 else None, grid_create(t.size), t)
            local = redist_2d_to_1d(D, t).local
            return (local.flags.f_contiguous,
                    np.array_equal(local, A[:, t.rank::t.size]))

        assert run_spmd(np_, body) == [(True, True)] * np_

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
            D = DistMatrix2D(gr, gc, grid, A[prow::grid.r, pcol::grid.c])
            rows = np.arange(prow, gr, grid.r)
            cols = np.arange(pcol, gc, grid.c)
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


def _lower_pair(n, grid, off):
    """(rank, (i, j)): the last rank with an entry (i, j), i > j, of its
    share, and that entry; with off, one whose mirror (j, i) the rank does
    not own (on a square grid only the off-diagonal ranks have one)."""
    for rank in reversed(range(grid.np_)):
        prow, pcol = grid.coord(rank)
        for i in range(prow, n, grid.r):
            for j in range(pcol, i, grid.c):
                if not off or (j % grid.r, i % grid.c) != (prow, pcol):
                    return rank, (i, j)
    raise AssertionError("no such entry")


def _read_share(path, grid, rank):
    """(read_share's share, the payload bytes its file counts)."""
    with fileio.ColumnFile(path, "GWAM") as f:
        return distgrid.read_share(f, grid, rank), f.bytes_read


class TestShareRead:
    @pytest.mark.parametrize("np_", [1, 2, 4, 6])  # grids 1x1, 1x2, 2x2, 2x3
    @pytest.mark.parametrize("n", [1, 2, 3, 37, 150])
    def test_equals_the_scattered_share(self, tmp_path, np_, n):
        # bitwise, Fortran-ordered, from whole-column runs (150 is three runs
        # of fileio.RUN columns), every column read by every rank; n < np
        # leaves ranks with no rows or columns
        M = make_spd(n, seed=n)
        path = str(tmp_path / "m.gwam")
        fileio.write_matrix(path, "GWAM", M)

        def body(t):
            grid = grid_create(t.size)
            D = scatter_matrix(M if t.rank == 0 else None, grid, t)
            S, nbytes = _read_share(path, grid, t.rank)
            return (np.array_equal(S.local, D.local) and S.local.flags.f_contiguous,
                    nbytes == 8 * n * n)

        assert run_spmd(np_, body) == [(True, True)] * np_

    CASES = [(np_, bad, off) for np_ in (1, 2, 4, 6)
             for bad in ("pair", "nan", "inf") for off in (False, True)
             if np_ > 1 or not off]

    @pytest.mark.parametrize("np_,bad,off", CASES)
    def test_refuses_a_bad_entry_on_or_off_its_share(self, tmp_path, np_, bad,
                                                     off):
        # "on" writes at an entry (i, j) of the reading rank's share, i > j
        # (inf at its mirror too, so only the finiteness check can see it),
        # "off" writes only at the mirror (j, i), which another rank owns
        n = 23
        grid = grid_create(np_)
        rank, (i, j) = _lower_pair(n, grid, off)
        M = make_spd(n, seed=5)
        value = {"pair": M[i, j] * (1 + 2 ** -40), "nan": np.nan,
                 "inf": np.inf}[bad]
        if off:
            M[j, i] = value
        else:
            M[i, j] = value
            if bad == "inf":
                M[j, i] = value
        path = str(tmp_path / "m.gwam")
        fileio.write_matrix(path, "GWAM", M)
        # the rank's own non-finite entry is refused as such; one it sees
        # only through its mirror fails the symmetry check
        error = NonFiniteInput if bad != "pair" and not off else AsymmetricCovariance
        with pytest.raises(error):
            _read_share(path, grid, rank)

    @pytest.mark.parametrize("np_", [2, 4, 6])
    def test_every_changed_entry_is_seen_by_some_rank(self, tmp_path, np_):
        # each pair (i, j) is compared by at least one rank, whichever of its
        # two entries differs
        n = 9
        grid = grid_create(np_)
        M = make_spd(n, seed=6)
        path = str(tmp_path / "m.gwam")
        missed = []
        for i, j in itertools.product(range(n), repeat=2):
            if i == j:
                continue
            bad = M.copy()
            bad[i, j] += 1.0
            fileio.write_matrix(path, "GWAM", bad)
            seen = 0
            for rank in range(np_):
                try:
                    _read_share(path, grid, rank)
                except AsymmetricCovariance:
                    seen += 1
            missed += [(i, j)] if not seen else []
        assert missed == []


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

    @pytest.mark.parametrize("n,np_,nb", [(1, 6, 64), (2, 6, 1), (3, 4, 1)])
    def test_dist_cholesky_grid_wider_than_the_matrix(self, n, np_, nb):
        # ranks own no rows, or a single entry of a strided panel slice
        M = make_spd(n, 3)

        def body(t):
            D = scatter_matrix(M if t.rank == 0 else None, grid_create(t.size), t)
            return gather_matrix(dist_cholesky(D, t, nb=nb), t)

        L = run_spmd(np_, body)[0]
        assert np.max(np.abs(L - kernel.cholesky_spd(M))) <= 1e-14 * np.max(M)

    @pytest.mark.parametrize("np_", [2, 4, 6])
    def test_dist_cholesky_factors_in_place(self, np_):
        n = 45
        M = make_spd(n, 11)

        def body(t):
            D = scatter_matrix(M if t.rank == 0 else None, grid_create(t.size), t)
            share = D.local
            Ld = dist_cholesky(D, t, nb=8)
            return np.shares_memory(Ld.local, share), gather_matrix(Ld, t)

        parts = run_spmd(np_, body)
        assert [same for same, _ in parts] == [True] * np_
        L = parts[0][1]
        assert np.all(np.triu(L, 1) == 0)
        assert np.max(np.abs(L - kernel.cholesky_spd(M))) <= 1e-10 * np.max(np.abs(M))

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

    @pytest.mark.parametrize("np_", [2, 4, 6])
    def test_dist_cholesky_one_exchange_per_panel(self, np_):
        # each step sends every peer this rank's entries of the column
        # panel [k:n, k:k+kb] in one message, and nothing else; whitening a
        # replicated B on the way adds no message and no byte
        n, nb = 100, 16
        M = make_spd(n, seed=8)

        def body(t, with_b):
            D = scatter_matrix(M if t.rank == 0 else None, grid_create(t.size), t)
            B = np.ones((n, 5), order="F") if with_b else None
            sizes = []
            send = t.send

            def logged_send(dst, data, *args, **kwargs):
                sizes.append(len(data))
                return send(dst, data, *args, **kwargs)

            t.send = logged_send
            dist_cholesky(D, t, nb=nb, B=B)
            return sizes

        panels = sum((n - k) * min(nb, n - k) for k in range(0, n, nb))
        for with_b in (False, True):
            sizes = [size for log in run_spmd(np_, body, with_b) for size in log]
            assert len(sizes) == np_ * (np_ - 1) * math.ceil(n / nb)
            assert sum(sizes) == 8 * (np_ - 1) * panels

    @pytest.mark.parametrize("np_", [1, 2, 4])
    @pytest.mark.parametrize("n,nb", [
        (20, 32),  # nb > n: one panel
        (48, 16),  # n a multiple of nb
        (49, 16),  # a last panel of one row
    ])
    def test_dist_cholesky_whitens_b(self, np_, n, nb):
        # B = L^-1 B on every rank, the same bits on each
        M = make_spd(n, seed=15)
        B = np.random.default_rng(16).standard_normal((n, 5))

        def body(t):
            D = scatter_matrix(M if t.rank == 0 else None, grid_create(t.size), t)
            X = np.array(B, order="F")
            dist_cholesky(D, t, nb=nb, B=X)
            return X

        parts = run_spmd(np_, body)
        Xref = kernel.trsolve_lower(kernel.cholesky_spd(M), B)
        assert np.max(np.abs(parts[0] - Xref)) <= 1e-10 * np.max(np.abs(Xref))
        assert all(np.array_equal(X, parts[0]) for X in parts)

    def test_dist_cholesky_rejects_b_of_other_rows(self):
        def body(t):
            D = scatter_matrix(np.eye(6), grid_create(1), t)
            with pytest.raises(DimensionMismatch):
                dist_cholesky(D, t, B=np.ones((5, 2), order="F"))
            return True

        assert run_spmd(1, body) == [True]

    @pytest.mark.parametrize("np_", [2, 4])
    def test_dist_cholesky_holds_its_panels_beside_the_shares(self, np_):
        # besides its share, each rank holds O(n nb): its column panel, the
        # pieces of the panel's exchange and copies of the strided rows of
        # the trailing update, which runs in place; a product the size of
        # the rank's trailing matrix would exceed the bound at k = 0
        n, nb = 1200, 64
        M = make_spd(n, seed=12)
        shares = run_spmd(np_, lambda t: scatter_matrix(
            M if t.rank == 0 else None, grid_create(t.size), t))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run_spmd(np_, lambda t: dist_cholesky(shares[t.rank], t, nb=nb))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= np_ * 4 * 8 * n * nb

    @pytest.mark.parametrize("np_", [1, 2])
    @pytest.mark.parametrize("k", [50, 2000])
    def test_dist_trsolve_holds_its_panels_whatever_the_width(self, np_, k):
        # besides its columns, each rank holds O(n nb): the column panel in
        # use, the pieces of its exchange and those of the next panel; a
        # product of the panel with the columns, nb x k, would exceed the
        # bound at k = 2000
        n, nb = 200, 16
        L = kernel.cholesky_spd(make_spd(n, seed=17))
        shares = run_spmd(np_, lambda t: scatter_matrix(
            L if t.rank == 0 else None, grid_create(t.size), t))
        rng = np.random.default_rng(18)
        X = [np.asfortranarray(rng.standard_normal((n, k))) for _ in range(np_)]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run_spmd(np_, lambda t: dist_trsolve(shares[t.rank], X[t.rank], t,
                                                 nb=nb))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= np_ * 4 * 8 * n * nb

    @pytest.mark.parametrize("np_", [1, 4])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_dist_cholesky_non_finite_below_the_diagonal_block(self, np_, bad):
        # dpotrf takes a non-finite pivot without complaint, so the pivot
        # rule reads the diagonal each dpotrf leaves: the entry at (70, 5)
        # spreads through the trailing updates into row 70, whose pivot, in
        # the diagonal block at row 64, is the first one it spoils
        M = make_spd(100, seed=9)
        M[70, 5] = M[5, 70] = bad

        def body(t):
            D = scatter_matrix(M if t.rank == 0 else None, grid_create(t.size), t)
            with np.errstate(invalid="ignore"), \
                    pytest.raises(NotPositiveDefinite) as exc:
                dist_cholesky(D, t, nb=16)
            return exc.value.pivot_index

        assert run_spmd(np_, body) == [70] * np_

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("at", ["mirrored", "below", "above"])
    def test_every_factor_reports_the_same_pivot(self, bad, at):
        # one pivot rule: an entry below the diagonal spoils the pivot of
        # its row in every factorization; one above it is never read
        M = make_spd(100, seed=9)
        if at != "above":
            M[70, 5] = bad
        if at != "below":
            M[5, 70] = bad

        def pivot(factor, *args):
            try:
                with np.errstate(invalid="ignore"):
                    factor(*args)
            except NotPositiveDefinite as e:
                return e.pivot_index
            return None

        def body(t):
            D = scatter_matrix(M if t.rank == 0 else None, grid_create(t.size), t)
            return pivot(dist_cholesky, D, t, 16)

        found = [pivot(kernel.cholesky_spd, M),
                 pivot(kernel.inverse_factor, np.array(M, order="F")),
                 *run_spmd(1, body), *run_spmd(4, body)]
        assert found == [None if at == "above" else 70] * 7

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
        # every rank sends its owned entries of each column panel
        # L[k:n, k:k+kb] to each other rank, and nothing else; the panels
        # cover the block lower triangle, as row panels L[k:k+kb, :k+kb]
        # would, so the bytes are the sum of kb (k + kb) over the panels
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

    @pytest.mark.parametrize("np_", [2, 4, 6])
    def test_dist_trsolve_schedule_moves_each_panel_once_ahead(
            self, np_, monkeypatch):
        # each column panel is one message to each peer, and panel i+1 is
        # sent before the diagonal block of panel i is inverted and used
        n, nb = 100, 16
        panels = math.ceil(n / nb)
        L = kernel.cholesky_spd(make_spd(n, seed=8))
        events = {}
        trtri = _blas.trtri

        def logged_trtri(*args, **kwargs):
            events[threading.get_ident()].append("invert")
            return trtri(*args, **kwargs)

        monkeypatch.setattr(_blas, "trtri", logged_trtri)

        def body(t):
            Ld = scatter_matrix(L if t.rank == 0 else None, grid_create(t.size), t)
            log = events[threading.get_ident()] = []
            send = t.send

            def logged_send(*args, **kwargs):
                log.append("send")
                return send(*args, **kwargs)

            t.send = logged_send
            dist_trsolve(Ld, np.asfortranarray(np.ones((n, 2))), t, nb=nb)
            return log

        logs = run_spmd(np_, body)
        assert sum(log.count("send") for log in logs) == np_ * (np_ - 1) * panels
        for log in logs:
            inverts = [i for i, e in enumerate(log) if e == "invert"]
            assert len(inverts) == panels
            for i, at in enumerate(inverts):
                sent = log[:at].count("send")
                assert sent == (np_ - 1) * min(i + 2, panels), (i, log)

    @pytest.mark.parametrize("np_", [2, 4, 6])
    @pytest.mark.parametrize("kappa", [2e2, 2e6, 2e9])
    def test_dist_trsolve_ill_conditioned_factor(self, np_, kappa):
        # M = G G^T / n + ridge I with G of rank n/4, the ridge set for
        # cond(M) = kappa; the residual is that of a backward-stable solve
        n, nb = 203, 16
        G = np.random.default_rng(11).standard_normal((n, n // 4))
        M = G @ G.T / n
        ridge = np.linalg.eigvalsh(M)[-1] / (kappa - 1)
        M += ridge * np.eye(n)
        assert np.linalg.cond(M) == pytest.approx(kappa, rel=1e-2)
        L = kernel.cholesky_spd(M)
        B = np.random.default_rng(12).standard_normal((n, 12))
        X, _ = _trsolve_columns(L, B, np_, nb=nb)
        resid = np.max(np.abs(L @ X - B))
        assert resid / (np.max(np.abs(L)) * np.max(np.abs(X))) <= 1e-14

    @pytest.mark.parametrize("np_", [1, 2, 4])
    @pytest.mark.parametrize("n,nb", [
        (20, 32),  # nb > n: one panel
        (20, 20),  # nb = n: one panel
        (48, 16),  # n a multiple of nb
        (49, 16),  # a last panel of one row
    ])
    def test_dist_trsolve_panel_edges(self, np_, n, nb):
        L = kernel.cholesky_spd(make_spd(n, seed=13))
        B = np.random.default_rng(14).standard_normal((n, 7))
        X, in_place = _trsolve_columns(L, B, np_, nb=nb)
        Xref = kernel.trsolve_lower(L, B)
        assert np.max(np.abs(X - Xref)) <= 1e-10 * np.max(np.abs(Xref))
        assert in_place == [True] * np_

    def test_dist_trsolve_empty_factor_leaves_no_message_behind(self):
        def body(t):
            L = scatter_matrix(np.zeros((0, 0)) if t.rank == 0 else None,
                               grid_create(t.size), t)
            dist_trsolve(L, np.zeros((0, 3), order="F"), t)
            return t.allgather(bytes([t.rank]))

        assert run_spmd(2, body) == [[b"\x00", b"\x01"]] * 2

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
        # one rank is the ooc engine: the same result file, byte for byte
        for emit in (False, True):
            cfg = SolveConfig(m_blk=97, emit_s_inv=emit)
            ooc = solve_paths(seed42_dataset, str(tmp_path / f"ooc{emit}.gwab"))
            run_ooc(ooc, cfg)
            dist = solve_paths(seed42_dataset, str(tmp_path / f"dist{emit}.gwab"))
            s = run_spmd(1, run_dist, dist, cfg)[0]
            assert (s.mode, s.m_blk, s.buffer_regions) == ("dist", 97, 2)
            assert open(ooc.out, "rb").read() == open(dist.out, "rb").read()

    @pytest.mark.parametrize("np_", [2, 4, 6])
    def test_matches_incore(self, tmp_path, seed42_dataset, np_):
        ref = solve_paths(seed42_dataset, str(tmp_path / "ref.gwab"))
        run_incore(ref)
        dist = solve_paths(seed42_dataset, str(tmp_path / f"d{np_}.gwab"))
        run_spmd(np_, run_dist, dist, SolveConfig())
        rep = compare_results(ref.out, dist.out, 1e-10)
        assert rep.within, rep

    def test_np4_vs_np1_larger_instance(self, tmp_path):
        ds = self._dataset(tmp_path, n=200, m=2048, p=4)
        a = solve_paths(ds, str(tmp_path / "np1.gwab"))
        b = solve_paths(ds, str(tmp_path / "np4.gwab"))
        run_spmd(1, run_dist, a, SolveConfig())
        run_spmd(4, run_dist, b, SolveConfig())
        assert compare_results(a.out, b.out, 1e-10).within

    def test_partial_block_full_coverage(self, tmp_path):
        # m not divisible by m_blk: all records present, none spuriously NaN
        ds = self._dataset(tmp_path, n=60, m=333, p=4, seed=9)
        paths = solve_paths(ds, str(tmp_path / "d.gwab"))
        run_spmd(4, run_dist, paths, SolveConfig(m_blk=128))
        from gwasgls import fileio
        payload = fileio.read_matrix(paths.out, "GWAB")
        assert payload.betas.shape == (333, 4)
        assert np.all(payload.statuses == "ok")
        assert np.all(np.isfinite(payload.betas))

    def test_rank_without_markers(self, tmp_path):
        # m=3 over 4 ranks: rank 0's only chunk is empty, so it reads and
        # stores nothing but still joins the collective solves
        ds = self._dataset(tmp_path, n=30, m=3, p=3, seed=3)
        ref = solve_paths(ds, str(tmp_path / "ref.gwab"))
        run_incore(ref)
        dist = solve_paths(ds, str(tmp_path / "d.gwab"))
        run_spmd(4, run_dist, dist, SolveConfig())
        rep = compare_results(ref.out, dist.out, 1e-10)
        assert rep.within, rep

    @pytest.mark.parametrize("np_,m,m_blk", [(2, 333, 128), (4, 333, 128),
                                             (3, 500, 96), (4, 6, 8),
                                             (3, 333, 128), (4, 50, 7)])
    def test_every_block_splits_evenly(self, tmp_path, monkeypatch, np_, m,
                                       m_blk):
        # rank r reads [first + count r / np, first + count (r + 1) / np)
        # of each block, so the ranks' chunks tile it and differ by at
        # most one marker, the short last block's as well; a chunk of no
        # marker is read too, as zero columns
        ds = self._dataset(tmp_path, n=20, m=m, p=3, seed=6)
        reads = []
        start = fileio.BlockReader.start

        def recording(self, first, count, buffer):
            reads.append((first, count))
            return start(self, first, count, buffer)

        monkeypatch.setattr(fileio.BlockReader, "start", recording)
        run_spmd(np_, run_dist, solve_paths(ds, str(tmp_path / "d.gwab")),
                 SolveConfig(m_blk=m_blk))
        for first, count in block_plan(m, m_blk):
            ends = [first + count * r // np_ for r in range(np_ + 1)]
            chunks = sorted(c for c in reads if first <= c[0] < first + count)
            assert chunks == [(lo, hi - lo) for lo, hi in zip(ends, ends[1:])]

    @pytest.mark.parametrize("transport", ["inproc", "socket"])
    @pytest.mark.parametrize("np_", [1, 2, 4])
    def test_bytes_sent_is_the_replicated_panels(self, tmp_path, seed42_dataset,
                                                 np_, transport):
        # each replication of L, the factor's and one per block of the
        # sweep, sends every rank's part of each column panel L[k:n,
        # k:k+nb] to the np - 1 others; the barrier sends empty frames and
        # the closing gather is not counted; one rank sends nothing
        n, nb, blocks = 100, DEFAULT_PANEL, 5
        panels = sum((n - k) * min(nb, n - k) for k in range(0, n, nb))
        s = run_spmd(np_, run_dist,
                     solve_paths(seed42_dataset, str(tmp_path / "d.gwab")),
                     SolveConfig(m_blk=100), transport=transport)[0]
        assert (s.n, s.m) == (n, 500)
        assert s.bytes_sent == 8 * (np_ - 1) * panels * (blocks + 1)

    def test_block_not_a_multiple_of_np_matches_incore(self, tmp_path,
                                                       seed42_dataset):
        # 128-marker blocks on 3 ranks: chunks of 42 and 43 markers, and
        # 38 and 39 of the short last block
        ref = solve_paths(seed42_dataset, str(tmp_path / "ref.gwab"))
        run_incore(ref)
        dist = solve_paths(seed42_dataset, str(tmp_path / "d.gwab"))
        s = run_spmd(3, run_dist, dist, SolveConfig(m_blk=128))[0]
        assert s.m_blk == 128
        rep = compare_results(ref.out, dist.out, 1e-10)
        assert rep.within, rep

    @pytest.mark.parametrize("np_", [2, 3])
    def test_default_block_is_the_ooc_block(self, tmp_path, monkeypatch, np_):
        # L is replicated once per dist_trsolve, once per block; [XL | y]
        # is whitened inside dist_cholesky
        ds = self._dataset(tmp_path, n=16, m=6000, p=3, seed=4)
        calls = Counter()
        real = distgrid.dist_trsolve

        def counting(L, X, t, *args):
            calls[t.rank] += 1
            return real(L, X, t, *args)

        monkeypatch.setattr(distgrid, "dist_trsolve", counting)
        paths = solve_paths(ds, str(tmp_path / "d.gwab"))
        summary = run_spmd(np_, run_dist, paths, SolveConfig())[0]
        assert summary.m_blk == DEFAULT_M_BLK
        assert calls == {r: math.ceil(6000 / summary.m_blk) for r in range(np_)}

    # n=100, m=500, p=4 on 2 ranks: one 500-marker block, so one region
    # per rank, a 100 x 250 reader buffer with 250 staged 32-byte records;
    # the small solves of the block hold 250 records of scratch, and the
    # rank its half of the covariance, all of the covariates and the
    # set-up scratch of SETUP_COLS columns of 100 rows
    ONE_BLOCK_NEED = (8 * 100 * 100 // 2 + 8 * 100 * 4
                      + (8 * 100 * 250 + 250 * 32) + 250 * 32
                      + 8 * 100 * distgrid.SETUP_COLS)

    def test_reader_buffers_within_budget(self, tmp_path, seed42_dataset,
                                          monkeypatch):
        need = self.ONE_BLOCK_NEED
        paths = solve_paths(seed42_dataset, str(tmp_path / "d.gwab"))
        monkeypatch.setenv("GWAS_GLS_MEM_BUDGET_BYTES", str(need - 1))
        with pytest.raises(ConfigError):
            run_spmd(2, run_dist, paths, SolveConfig())
        monkeypatch.setenv("GWAS_GLS_MEM_BUDGET_BYTES", str(need))
        assert run_spmd(2, run_dist, paths, SolveConfig())[0].m_blk == 500

    def test_budget_counts_the_covariance_share(self, tmp_path, seed42_dataset,
                                                 monkeypatch):
        # n=100, m_blk=64, p=4 on 2 ranks: two regions of a 100 x 32 reader
        # buffer and 32 staged 32-byte records, 32 records of small-solve
        # scratch for the chunk being solved, half of the 8n^2 covariance,
        # the covariates and the set-up scratch
        paths = solve_paths(seed42_dataset, str(tmp_path / "d.gwab"))
        need = (8 * 100 * 100 // 2 + 8 * 100 * 4
                + 2 * (8 * 100 * 32 + 32 * 32) + 32 * 32
                + 8 * 100 * distgrid.SETUP_COLS)
        monkeypatch.setenv("GWAS_GLS_MEM_BUDGET_BYTES", str(need - 1))
        with pytest.raises(ConfigError):
            run_spmd(2, run_dist, paths, SolveConfig(m_blk=64))
        monkeypatch.setenv("GWAS_GLS_MEM_BUDGET_BYTES", str(need))
        s = run_spmd(2, run_dist, paths, SolveConfig(m_blk=64))[0]
        assert (s.peak_resident_est, s.buffer_regions) == (need, 2)

    @pytest.mark.parametrize("np_", [2, 4, 6])
    def test_set_up_sends_only_the_cholesky_panels(self, tmp_path,
                                                   seed42_dataset,
                                                   monkeypatch, np_):
        # no rank reads all of M and nothing is scattered: until prepare
        # returns, the ranks send dist_cholesky's panels and nothing else
        n, nb = 100, 16
        ref = solve_paths(seed42_dataset, str(tmp_path / "ref.gwab"))
        run_ooc(ref, SolveConfig())
        for name in ("read_matrix", "scatter_matrix"):
            module = fileio if name == "read_matrix" else distgrid

            def refuse(*args, name=name):
                raise AssertionError(f"prepare called {name}")

            monkeypatch.setattr(module, name, refuse)
        cholesky, prepare = distgrid.dist_cholesky, distgrid.prepare
        monkeypatch.setattr(distgrid, "dist_cholesky",
                            lambda M, t, B=None: cholesky(M, t, nb, B))
        sizes = {}

        def logged_prepare(t, files):
            log = sizes[t.rank] = []
            send = t.send

            def logged_send(dst, data, *args, **kwargs):
                log.append(len(data))
                return send(dst, data, *args, **kwargs)

            t.send = logged_send
            try:
                return prepare(t, files)
            finally:
                t.send = send

        monkeypatch.setattr(distgrid, "prepare", logged_prepare)
        out = solve_paths(seed42_dataset, str(tmp_path / "d.gwab"))
        run_spmd(np_, run_dist, out, SolveConfig())
        sent = [size for log in sizes.values() for size in log]
        panels = sum((n - k) * min(nb, n - k) for k in range(0, n, nb))
        assert len(sent) == np_ * (np_ - 1) * math.ceil(n / nb)
        assert sum(sent) == 8 * (np_ - 1) * panels
        monkeypatch.undo()
        assert compare_results(ref.out, out.out, 1e-12).within

    @pytest.mark.parametrize("np_", [1, 2, 4])
    def test_bytes_read_is_what_the_ranks_read(self, tmp_path, seed42_dataset,
                                               np_):
        # genotypes once over all ranks; each rank its covariates and
        # phenotype and the whole covariance
        n, m, p = 100, 500, 4
        paths = solve_paths(seed42_dataset, str(tmp_path / "d.gwab"))
        s = run_spmd(np_, run_dist, paths, SolveConfig(m_blk=100))[0]
        assert s.bytes_read == 8 * (n * m + np_ * n * n + np_ * n * p)
        if np_ == 1:
            ooc = solve_paths(seed42_dataset, str(tmp_path / "o.gwab"))
            assert run_ooc(ooc, SolveConfig(m_blk=100)).bytes_read == s.bytes_read

    def test_set_up_peak_within_the_ranks_estimates(self, tmp_path,
                                                     monkeypatch):
        # both inproc ranks trace into one process: its peak up to the end
        # of the later prepare is the ranks' set-up, shares, panels and read
        # buffers included, and stays at or below their two estimates;
        # without the set-up scratch it would not
        ds = self._dataset(tmp_path, n=600, m=256, p=4, seed=3)
        prepare = distgrid.prepare
        peaks = []

        def traced_prepare(t, files):
            out = prepare(t, files)
            peaks.append(tracemalloc.get_traced_memory()[1])
            return out

        monkeypatch.setattr(distgrid, "prepare", traced_prepare)
        paths = solve_paths(ds, str(tmp_path / "d.gwab"))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            summaries = run_spmd(2, run_dist, paths, SolveConfig(m_blk=128))
        finally:
            tracemalloc.stop()
        need = sum(s.peak_resident_est for s in summaries)
        assert max(peaks) - base <= need
        assert max(peaks) - base > need - 2 * 8 * 600 * distgrid.SETUP_COLS

    def test_zero_copy_views(self, tmp_path, seed42_dataset, monkeypatch):
        seen = record_block_views(monkeypatch)
        paths = solve_paths(seed42_dataset, str(tmp_path / "d.gwab"))
        run_spmd(2, run_dist, paths, SolveConfig(m_blk=128))
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
            run_spmd(2, run_dist, paths, SolveConfig())

    def test_deterministic_result_files(self, tmp_path, seed42_dataset):
        a = solve_paths(seed42_dataset, str(tmp_path / "a.gwab"))
        b = solve_paths(seed42_dataset, str(tmp_path / "b.gwab"))
        run_spmd(4, run_dist, a, SolveConfig())
        run_spmd(4, run_dist, b, SolveConfig())
        assert open(a.out, "rb").read() == open(b.out, "rb").read()

    def test_degenerate_markers(self, tmp_path, degenerate_dataset):
        ds, (z, dup) = degenerate_dataset
        paths = solve_paths(ds, str(tmp_path / "d.gwab"))
        run_spmd(4, run_dist, paths, SolveConfig(m_blk=16))
        from gwasgls import fileio
        statuses = fileio.read_matrix(paths.out, "GWAB").statuses
        assert statuses[z] == "degenerate"
        assert statuses[dup] == "degenerate"
        assert np.sum(statuses == "degenerate") == 2

    def test_socket_transport_end_to_end(self, tmp_path, seed42_dataset):
        a = solve_paths(seed42_dataset, str(tmp_path / "inproc.gwab"))
        b = solve_paths(seed42_dataset, str(tmp_path / "socket.gwab"))
        run_spmd(2, run_dist, a, SolveConfig(), transport="inproc")
        run_spmd(2, run_dist, b, SolveConfig(), transport="socket")
        assert open(a.out, "rb").read() == open(b.out, "rb").read()

    def test_socket_ranks_cap_blas_threads_and_report_peak(self, tmp_path,
                                                           seed42_dataset):
        # each rank's BLAS gets max(1, cpus // np) threads, over the
        # process's CPU set, when it runs more; the record carries the
        # largest rank's measured peak
        cap = max(1, len(os.sched_getaffinity(0)) // 2)
        count = _blas.threads()
        paths = solve_paths(seed42_dataset, str(tmp_path / "d.gwab"))
        s = run_spmd(2, run_dist, paths, SolveConfig(), transport="socket")[0]
        assert s.blas_threads == min(count, cap)
        assert s.peak_rss_bytes >= 8 * 100 * 100 // 2

    def test_inproc_ranks_report_one_thread_cap(self, tmp_path,
                                                seed42_dataset):
        # the cap is set once, before the ranks start, so no rank's report
        # depends on which rank reached the setter first
        want = min(_blas.threads(), max(1, len(os.sched_getaffinity(0)) // 2))
        paths = solve_paths(seed42_dataset, str(tmp_path / "d.gwab"))
        for _ in range(12):
            summaries = run_spmd(2, run_dist, paths, SolveConfig())
            assert [s.blas_threads for s in summaries] == [want, want]

    def test_inproc_ranks_leave_the_thread_count_as_found(self, tmp_path,
                                                          seed42_dataset):
        before = _blas.threads()
        paths = solve_paths(seed42_dataset, str(tmp_path / "d.gwab"))
        run_spmd(2, run_dist, paths, SolveConfig())
        assert _blas.threads() == before
