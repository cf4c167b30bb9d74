"""The benchmark in perfbench/ traces a solve by wrapping the entry points
that perfbench/spans.py lists in TRACED, and times its untraced solves
by the command line it runs and by a wrapper around BlockReader.wait. A
rename must fail here, not in the benchmark's runs."""

import ast
import inspect
import json
import pathlib

import pytest

from gwasgls import cli, distgrid, fileio, kernel, pipeline, transport

from conftest import load_traced

MODULES = dict(kernel=kernel, fileio=fileio, pipeline=pipeline,
               distgrid=distgrid, transport=transport)
ROOT = pathlib.Path(__file__).resolve().parents[1]
HARNESS = ROOT / "perfbench" / "harness.py"


def test_every_traced_entry_point_resolves():
    traced = load_traced()
    assert set(traced) == set(MODULES)
    missing = []
    for layer, names in traced.items():
        for qual in names:
            owner = MODULES[layer]
            for part in qual.split("."):
                owner = getattr(owner, part, None)
            if not callable(owner):
                missing.append(f"{layer}.{qual}")
    assert missing == []


def test_the_wrapped_block_wait_takes_a_ticket():
    # every untraced solve stamps each rank's first BlockReader.wait
    # through a (self, ticket) wrapper
    assert list(inspect.signature(fileio.BlockReader.wait).parameters) == [
        "self", "ticket"]


def _workloads():
    """{name: solve_args} of perfbench/harness.py's WORKLOADS, read from
    its source: importing it would import scipy (outcheck)."""
    tree = ast.parse(HARNESS.read_text())
    [node] = [n for n in tree.body if isinstance(n, ast.Assign)
              and [getattr(t, "id", None) for t in n.targets] == ["WORKLOADS"]]
    return {ast.literal_eval(call.args[0]):
            ast.literal_eval(next(k.value for k in call.keywords
                                  if k.arg == "solve_args"))
            for call in ast.walk(node) if isinstance(call, ast.Call)
            and getattr(call.func, "id", None) == "Workload"}


WORKLOADS = _workloads()


def test_every_benchmark_workload_is_read():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert set(WORKLOADS) == {w["name"] for w in declared}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_passes_the_mode_check(name, monkeypatch):
    # the workload's options, with the five files the harness adds, parse
    # and reach an engine, which is not run here
    runs = []
    monkeypatch.setattr(pipeline, "run_ooc", lambda paths, cfg: runs.append(
        cfg) or pipeline.RunSummary())
    monkeypatch.setattr(transport, "run_spmd", lambda *args, **kwargs: runs.append(
        args[3]) or [pipeline.RunSummary()])
    args = cli.build_parser().parse_args([
        "solve", *WORKLOADS[name], "--cov", "c", "--covariates", "x",
        "--pheno", "y", "--geno", "g", "--out", "o"])
    assert cli.cmd_solve(args) == 0
    assert len(runs) == 1
