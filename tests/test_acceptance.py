"""Acceptance gate: ten criteria, each printing one pass/fail line.

Each criterion is a single test; tolerances are pinned here and must not
be loosened. The report lines bypass capture so the verdicts always
appear in the run log.
"""

import time
import tracemalloc

import numpy as np
import pytest

import conftest

from gwasgls import fileio, kernel
from gwasgls.datagen import (
    GenSpec,
    compare_results,
    gen_dataset,
    oracle_solve_all,
)
from gwasgls.distgrid import (
    DistMatrix2D,
    _window,
    dist_cholesky,
    dist_trsolve,
    gather_matrix,
    grid_create,
    redist_1d_to_2d,
    redist_2d_to_1d,
    run_dist,
    scatter_matrix,
)
from gwasgls.errors import ConfigError
from gwasgls.pipeline import SolveConfig, run_incore, run_ooc
from gwasgls.transport import run_spmd

from conftest import make_spd, solve_paths


def _report(num, name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num:2d} {name}: {verdict}"
    if detail:
        line += f" ({detail})"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)


@pytest.fixture(scope="module")
def engine_runs(seed42_dataset, tmp_path_factory):
    """All engine outputs on the seed-42 dataset plus total wall time."""
    d = tmp_path_factory.mktemp("engines")
    t0 = time.perf_counter()
    outs = {}
    outs["oracle"] = str(d / "oracle.gwab")
    oracle_solve_all(solve_paths(seed42_dataset, outs["oracle"]))
    outs["incore"] = str(d / "incore.gwab")
    run_incore(solve_paths(seed42_dataset, outs["incore"]))
    for m_blk in (1, 64, 500):
        key = f"ooc{m_blk}"
        outs[key] = str(d / f"{key}.gwab")
        run_ooc(solve_paths(seed42_dataset, outs[key]), SolveConfig(m_blk=m_blk))
    for np_ in (1, 2, 4, 6):
        key = f"dist{np_}"
        outs[key] = str(d / f"{key}.gwab")
        run_spmd(np_, run_dist, solve_paths(seed42_dataset, outs[key]),
                 SolveConfig())
    return outs, time.perf_counter() - t0


def test_criterion_01_oracle_equivalence(engine_runs):
    outs, elapsed = engine_runs
    worst = 0.0
    mismatches = 0
    for key, path in outs.items():
        if key == "oracle":
            continue
        rep = compare_results(path, outs["oracle"], 1e-8)
        worst = max(worst, rep.max_rel_discrepancy)
        mismatches += rep.status_mismatches
    ok = worst <= 1e-8 and mismatches == 0 and elapsed < 30.0
    _report(1, "oracle equivalence",
            ok, f"max_rel={worst:.2e} mismatches={mismatches} t={elapsed:.1f}s")
    assert worst <= 1e-8
    assert mismatches == 0
    assert elapsed < 30.0


def test_criterion_02_invariance(engine_runs):
    outs, _ = engine_runs
    ooc_family = ["incore", "ooc1", "ooc64", "ooc500"]
    worst_ooc = 0.0
    for i, a in enumerate(ooc_family):
        for b in ooc_family[i + 1:]:
            worst_ooc = max(worst_ooc,
                            compare_results(outs[a], outs[b],
                                            1e-12).max_rel_discrepancy)
    worst_dist = 0.0
    for np_ in (1, 2, 4, 6):
        worst_dist = max(worst_dist,
                         compare_results(outs[f"dist{np_}"], outs["incore"],
                                         1e-10).max_rel_discrepancy)
    ok = worst_ooc <= 1e-12 and worst_dist <= 1e-10
    _report(2, "block-size and rank invariance", ok,
            f"ooc={worst_ooc:.2e} dist={worst_dist:.2e}")
    assert worst_ooc <= 1e-12
    assert worst_dist <= 1e-10


def test_criterion_03_io_overlap(tmp_path_factory):
    # sizes chosen so per-block compute dominates per-block I/O; the
    # precondition is measured, not assumed
    d = tmp_path_factory.mktemp("overlap")
    ds = gen_dataset(GenSpec(n=800, m=4000, p=4, seed=42), str(d / "data"))
    m_blk = 500

    with fileio.ColumnFile(ds.geno, "GWAX") as f:
        n, m = f.dims
    buf = np.empty((n, m_blk), order="F")

    def read_pass():
        t0 = time.perf_counter()
        reader = fileio.BlockReader(fileio.ColumnFile(ds.geno, "GWAX"))
        for first in range(0, m, m_blk):
            reader.wait(reader.start(first, min(m_blk, m - first), buf))
        reader.close()
        return time.perf_counter() - t0

    io_total = np.inf
    t_incore = np.inf
    t_ooc = np.inf
    summary = None
    for rep in range(3):  # best-of-three to damp scheduler noise
        # the read pass too, so that the precondition compares two minima
        io_total = min(io_total, read_pass())
        t0 = time.perf_counter()
        run_incore(solve_paths(ds, str(d / f"ic{rep}.gwab")))
        t_incore = min(t_incore, time.perf_counter() - t0)
        t0 = time.perf_counter()
        s = run_ooc(solve_paths(ds, str(d / f"ooc{rep}.gwab")),
                    SolveConfig(m_blk=m_blk))
        dt = time.perf_counter() - t0
        if dt < t_ooc:
            t_ooc, summary = dt, s

    precondition = summary.t_compute >= 2.0 * io_total
    ratio = t_ooc / t_incore
    io_frac = summary.t_io_wait / summary.t_compute
    ok = precondition and ratio <= 1.15 and io_frac <= 0.10
    _report(3, "I/O overlap", ok,
            f"compute/io={summary.t_compute / io_total:.1f}x "
            f"ooc/incore={ratio:.3f} io_wait/compute={io_frac:.3f}")
    assert precondition, (summary.t_compute, io_total)
    assert ratio <= 1.15
    assert io_frac <= 0.10


def test_criterion_04_linear_m_scaling(tmp_path_factory, monkeypatch):
    # The streaming phase is timed per block in CPU seconds (the host
    # shares the single core, so wall clock and even whole-run CPU time
    # are polluted by contention bursts), from the entry of the block's
    # BlockReader.wait to the return of its BlockWriter.start: its load
    # wait, solve and store wait. With a fixed block size the per-block
    # cost is m-independent, so streaming time for a given m is the pooled
    # per-block cost times the number of blocks.
    d = tmp_path_factory.mktemp("mscale")
    sizes = (4096, 8192, 16384)
    dsets = {m: gen_dataset(GenSpec(n=1000, m=m, p=4, seed=42),
                            str(d / f"m{m}")) for m in sizes}
    entered, block_cpu = [], []
    wait, start = fileio.BlockReader.wait, fileio.BlockWriter.start

    def stamped_wait(self, ticket):
        entered.append(time.process_time())
        return wait(self, ticket)

    def stamped_start(self, first, records):
        ticket = start(self, first, records)
        block_cpu.append(time.process_time() - entered.pop())
        return ticket

    monkeypatch.setattr(fileio.BlockReader, "wait", stamped_wait)
    monkeypatch.setattr(fileio.BlockWriter, "start", stamped_start)

    def one_run(m, tag):
        block_cpu.clear()
        run_ooc(solve_paths(dsets[m], str(d / f"{tag}.gwab")),
                SolveConfig(m_blk=1024))
        assert entered == [] and len(block_cpu) == m // 1024
        return list(block_cpu)

    one_run(16384, "warmup")
    # the sizes take turns, so a slow phase of the host lands on all of
    # them rather than on one: every round runs m = 4096, every second
    # round 8192 and every fourth 16384, ~48 samples per size in all
    samples = {m: [] for m in sizes}
    rounds = 3 * max(sizes) // min(sizes)
    for rep in range(rounds):
        for m in sizes:
            if rep % (m // min(sizes)) == 0:
                samples[m] += one_run(m, f"{m}_{rep}")
    # contention only ever adds time, so a low quantile of the pooled
    # per-block samples estimates the uncontended cost
    stream = [float(np.quantile(samples[m], 0.1)) * (m // 1024) for m in sizes]
    ratios = [stream[i + 1] / stream[i] for i in range(2)]
    ok = all(1.6 <= r <= 2.4 for r in ratios)
    _report(4, "linear m-scaling", ok,
            "ratios=" + ",".join(f"{r:.2f}" for r in ratios))
    for r in ratios:
        assert 1.6 <= r <= 2.4, (ratios, stream)


def test_criterion_05_memory_bound(seed42_dataset, tmp_path, monkeypatch):
    geno_bytes = 8 * 100 * 500
    monkeypatch.setenv("GWAS_GLS_MEM_BUDGET_BYTES", str(geno_bytes))
    with pytest.raises(ConfigError):
        run_incore(solve_paths(seed42_dataset, str(tmp_path / "ic.gwab")))
    tracemalloc.start()
    try:
        s = run_ooc(solve_paths(seed42_dataset, str(tmp_path / "ooc.gwab")),
                    SolveConfig(m_blk=32))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    slack = 2 ** 20  # Python objects and per-block temporaries
    ok = (s.buffer_regions == 2 and s.peak_resident_est <= geno_bytes
          and peak <= s.peak_resident_est + slack)
    _report(5, "memory bound", ok,
            f"budget={geno_bytes} regions={s.buffer_regions} "
            f"est={s.peak_resident_est} traced={peak}")
    assert s.buffer_regions == 2
    assert s.peak_resident_est <= geno_bytes
    assert peak <= s.peak_resident_est + slack


def test_criterion_06_distribution_round_trips():
    rng = np.random.default_rng(42)
    trials = 1000
    for _ in range(trials):
        np_ = int(rng.integers(1, 9))
        gr = int(rng.integers(1, 65))
        gc = int(rng.integers(1, 65))
        A = rng.standard_normal((gr, gc))

        def body(t):
            grid = grid_create(t.size)
            D = scatter_matrix(A if t.rank == 0 else None, grid, t)
            back = gather_matrix(D, t)
            if t.rank == 0:
                assert np.array_equal(back, A)
            D1 = redist_2d_to_1d(D, t)
            D2 = redist_1d_to_2d(D1, t)
            assert np.array_equal(D2.local, D.local)
            return True

        assert all(run_spmd(np_, body))
    # the engine's layout: the _window slices of all ranks place every
    # entry (i, j) of a 64 x 64 index matrix once, at local position
    # (i div r, j div c) of grid process (i mod r, j mod c)
    index = np.arange(64 * 64).reshape(64, 64)
    for np_ in range(1, 9):
        grid = grid_create(np_)
        placed = np.zeros(index.shape, dtype=int)
        for rank in range(np_):
            D = DistMatrix2D.empty(64, 64, grid, rank)
            D.local[...] = -1
            local, at = _window(D, rank, 0, 64, 0, 64)
            D.local[local] = index[at]
            placed[at] += 1
            prow, pcol = grid.coord(rank)
            li, lj = np.indices(D.local.shape)
            assert np.array_equal(
                D.local, index[li * grid.r + prow, lj * grid.c + pcol])
        assert (placed == 1).all()
    _report(6, "distribution round trips", True, f"trials={trials}")


def test_criterion_07_distributed_kernel_residuals():
    worst = 0.0
    for n in (16, 96, 200):
        M = make_spd(n, 42)
        Lref = kernel.cholesky_spd(M)
        B = np.random.default_rng(42).standard_normal((n, 8))
        Xref = kernel.trsolve_lower(Lref, B)
        for np_ in (1, 4, 6):  # grids 1x1, 2x2, 2x3

            def body(t):
                grid = grid_create(t.size)
                Md = scatter_matrix(M if t.rank == 0 else None, grid, t)
                Ld = dist_cholesky(Md, t, nb=16)
                # each rank solves its own full columns
                Xr = dist_trsolve(Ld, np.asfortranarray(B[:, t.rank::t.size]),
                                  t, nb=16)
                return gather_matrix(Ld, t), Xr

            parts = run_spmd(np_, body)
            L = parts[0][0]
            X = np.empty_like(B)
            for rank, (_, Xr) in enumerate(parts):
                X[:, rank::np_] = Xr
            worst = max(worst,
                        np.max(np.abs(L - Lref)) / np.max(np.abs(M)),
                        np.max(np.abs(X - Xref)) / np.max(np.abs(Xref)))
    ok = worst <= 1e-10
    _report(7, "distributed kernel residuals", ok, f"worst={worst:.2e}")
    assert worst <= 1e-10


def test_criterion_08_degeneracy_handling(degenerate_dataset, tmp_path):
    ds, (z, dup) = degenerate_dataset
    outs = {
        "incore": str(tmp_path / "ic.gwab"),
        "ooc": str(tmp_path / "ooc.gwab"),
        "dist": str(tmp_path / "dist.gwab"),
    }
    run_incore(solve_paths(ds, outs["incore"]))
    run_ooc(solve_paths(ds, outs["ooc"]), SolveConfig(m_blk=16))
    run_spmd(4, run_dist, solve_paths(ds, outs["dist"]), SolveConfig(m_blk=16))
    ok = True
    for path in outs.values():
        statuses = fileio.read_matrix(path, "GWAB").statuses
        flagged = set(np.nonzero(statuses == "degenerate")[0])
        ok = ok and flagged == {z, dup}
    _report(8, "degeneracy handling", ok, f"flagged={{{z},{dup}}} x3 engines")
    for path in outs.values():
        statuses = fileio.read_matrix(path, "GWAB").statuses
        assert set(np.nonzero(statuses == "degenerate")[0]) == {z, dup}
        assert np.all(statuses[statuses != "degenerate"] == "ok")


def test_criterion_09_numerical_invariants(tmp_path):
    ds = gen_dataset(GenSpec(n=80, m=120, p=4, seed=42), str(tmp_path / "d"))
    base = solve_paths(ds, str(tmp_path / "base.gwab"))
    run_incore(base)
    betas = fileio.read_matrix(base.out, "GWAB").betas

    # scale invariance: M -> cM leaves betas unchanged
    c = 7.5
    M = fileio.read_matrix(ds.cov, "GWAM")
    scaled_cov = str(tmp_path / "scaled.gwam")
    fileio.write_matrix(scaled_cov, "GWAM", c * M)
    scaled = solve_paths(ds, str(tmp_path / "scaled.gwab"))
    scaled.cov = scaled_cov
    run_incore(scaled)
    betas_c = fileio.read_matrix(scaled.out, "GWAB").betas
    scale_err = float(np.max(np.abs(betas_c - betas) /
                             np.maximum(np.abs(betas), 1.0)))

    # identity reduction: M = I matches the plain OLS oracle
    eye_cov = str(tmp_path / "eye.gwam")
    fileio.write_matrix(eye_cov, "GWAM", np.eye(80))
    ident = solve_paths(ds, str(tmp_path / "eye.gwab"))
    ident.cov = eye_cov
    run_incore(ident)
    betas_i = fileio.read_matrix(ident.out, "GWAB").betas
    XL = fileio.read_matrix(ds.covariates, "GWAC")
    y = fileio.read_matrix(ds.pheno, "GWAY")
    X = fileio.read_matrix(ds.geno, "GWAX")
    ols_err = 0.0
    for i in range(120):
        Xi = np.hstack([XL, X[:, i:i + 1]])
        expect, *_ = np.linalg.lstsq(Xi, y, rcond=None)
        ols_err = max(ols_err, float(np.max(np.abs(betas_i[i] - expect)) /
                                     max(np.max(np.abs(expect)), 1.0)))

    # whitening / factor residuals on SPD test matrices
    resid = 0.0
    for n in (16, 96, 200):
        S = make_spd(n, 42)
        L = kernel.cholesky_spd(S)
        resid = max(resid, float(np.max(np.abs(L @ L.T - S)) /
                                 np.max(np.abs(S))))
        B = np.random.default_rng(n).standard_normal((n, 5))
        Z = kernel.trsolve_lower(L, B)
        resid = max(resid, float(np.max(np.abs(L @ Z - B)) /
                                 np.max(np.abs(B))))

    ok = scale_err <= 1e-9 and ols_err <= 1e-10 and resid <= 1e-10
    _report(9, "numerical invariants", ok,
            f"scale={scale_err:.2e} identity={ols_err:.2e} resid={resid:.2e}")
    assert scale_err <= 1e-9
    assert ols_err <= 1e-10
    assert resid <= 1e-10


def test_criterion_10_zero_copy_views(seed42_dataset, tmp_path, monkeypatch):
    # every block is whitened and solved in the reader buffer it was read
    # into; a copy anywhere between disk and the small solves leaves a
    # block uncounted
    seen = conftest.record_block_views(monkeypatch)
    run_spmd(4, run_dist,
             solve_paths(seed42_dataset, str(tmp_path / "d.gwab")),
             SolveConfig(m_blk=128))
    blocks, views = conftest.count_zero_copy_views(seen)
    ok = blocks == 4 * 4 and views == blocks
    _report(10, "zero-copy views", ok, f"blocks={blocks} reader_views={views}")
    assert blocks == 4 * 4
    assert views == blocks
