import importlib.util
import os
import pathlib
import sys
import threading
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest

from gwasgls.datagen import DatasetPaths, GenSpec, gen_dataset
from gwasgls.pipeline import RunSummary, SolvePaths
from gwasgls.transport import Transport

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def make_spd(n, seed):
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, 2 * n))
    M = G @ G.T / (2 * n) + np.eye(n)
    return np.tril(M) + np.tril(M, -1).T


def gls_oracle(M, Xi, y):
    """Literal evaluation of the GLS formula through a general linear solve
    against M. Reference route for tests; no structure exploitation."""
    M = np.asarray(M, dtype=np.float64)
    Xi = np.asarray(Xi, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    MinvX = np.linalg.solve(M, Xi)
    Minvy = np.linalg.solve(M, y)
    A = Xi.T @ MinvX
    b = Xi.T @ Minvy
    return np.linalg.solve(A, b)


def summary_from_record(line):
    """The RunSummary whose RunSummary.to_record is line."""
    # every annotation is a string, postponed by the __future__ import
    types = {f.name: {"str": str, "float": float, "int": int}.get(f.type)
             for f in fields(RunSummary)}
    pairs = (tok.split("=", 1) for tok in line.split())
    return RunSummary(**{k: types[k](v) for k, v in pairs if types.get(k)})


def refuse_thread_start(monkeypatch, picks):
    """Make the first thread for which picks(thread) holds fail to start,
    as threading.Thread.start does when no thread can be made."""
    real = threading.Thread.start
    refused = []

    def start(self):
        if not refused and picks(self):
            refused.append(self)
            raise RuntimeError("can't start new thread")
        return real(self)

    monkeypatch.setattr(threading.Thread, "start", start)


def drain_thread(rank, peer):
    """picks for refuse_thread_start: the drain thread of rank's transport
    that reads the socket end it shares with peer."""
    return lambda th: (getattr(th._target, "__func__", None) is Transport._drain
                       and th._target.__self__.rank == rank
                       and th._args[0] == peer)


def rank_thread(rank):
    """picks for refuse_thread_start: the thread of an inproc rank."""
    return lambda th: (getattr(th._target, "__qualname__", None)
                       == "_launch.<locals>.run" and th._args == (rank,))


def load_traced():
    """perfbench/spans.py's TRACED, {layer: [qualified names]}: the entry
    points the benchmark wraps to trace a solve."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    # dataclasses resolve their module through sys.modules
    with mock.patch.dict(sys.modules, {spec.name: spans}):
        spec.loader.exec_module(spans)
    return spans.TRACED


def solve_paths(dataset: DatasetPaths, out):
    return SolvePaths(cov=dataset.cov, covariates=dataset.covariates,
                      pheno=dataset.pheno, geno=dataset.geno, out=out)


@pytest.fixture(scope="session")
def seed42_dataset(tmp_path_factory):
    """The canonical desk-scale instance: n=100, m=500, p=4, seed 42."""
    d = tmp_path_factory.mktemp("seed42")
    return gen_dataset(GenSpec(n=100, m=500, p=4, seed=42), str(d))


@pytest.fixture(scope="session")
def degenerate_dataset(tmp_path_factory):
    """seed-42 dataset with marker 10 zeroed and marker 20 set equal to the
    intercept covariate; exactly those two must be flagged degenerate."""
    from gwasgls import fileio

    d = tmp_path_factory.mktemp("degen")
    paths = gen_dataset(GenSpec(n=60, m=40, p=4, seed=42), str(d))
    X = np.array(fileio.read_matrix(paths.geno, "GWAX"))
    X[:, 10] = 0.0
    X[:, 20] = 1.0  # duplicates the intercept column
    fileio.write_matrix(paths.geno, "GWAX", X)
    return paths, (10, 20)


def record_block_views(monkeypatch):
    """Wrap a streaming engine's block path at both ends and keep what each
    end saw: the buffers handed to BlockReader.start and the Xbar of every
    solve_whitened_block call."""
    from gwasgls import fileio, kernel

    seen = {"reader": [], "solve": []}
    reader_start = fileio.BlockReader.start
    solve = kernel.solve_whitened_block

    def start(self, first_index, count, buffer):
        seen["reader"].append(buffer)
        return reader_start(self, first_index, count, buffer)

    def solve_whitened_block(ctx, Xbar, *args, **kwargs):
        seen["solve"].append(Xbar)
        return solve(ctx, Xbar, *args, **kwargs)

    monkeypatch.setattr(fileio.BlockReader, "start", start)
    monkeypatch.setattr(kernel, "solve_whitened_block", solve_whitened_block)
    return seen


def count_zero_copy_views(seen):
    """(blocks solved, blocks solved in the memory of a reader buffer).
    A copy anywhere between disk and the small solves leaves a block
    uncounted."""
    views = sum(any(np.shares_memory(x, b) for b in seen["reader"])
                for x in seen["solve"])
    return len(seen["solve"]), views


@pytest.fixture()
def out_path(tmp_path):
    def _mk(name):
        return str(tmp_path / name)
    return _mk


# verdict lines appended by tests/test_acceptance.py; echoed after the
# run so they survive pytest's output capture
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
