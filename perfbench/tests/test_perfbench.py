"""Tests of the benchmark itself, on scaled-down copies of its workloads.

    python3 -m pytest perfbench/tests
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import harness
import outcheck
import spans

# same engines and flags, fewer markers and samples; each still has >1 block
SMALL = {
    "ooc-trsm": dict(n=120, m=4500),
    "ooc-smalln": dict(n=100, m=12000),
    "dist-socket": dict(n=96, m=2048),
}
SEED = 5


def small(name):
    return dataclasses.replace(harness.WORKLOADS[name], **SMALL[name])


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    mp = pytest.MonkeyPatch()
    root = tmp_path_factory.mktemp("bench")
    mp.setattr(harness, "WORK", root)
    yield root
    mp.undo()


@pytest.fixture(scope="module")
def solves(work):
    """Per workload: (workload, data dir, [untraced, traced, traced])."""
    out = {}
    for name in SMALL:
        w = small(name)
        data = harness.ensure_dataset(w, SEED)
        out[name] = (w, data, [
            harness.one_solve(w, data, work / f"{name}-{k}", traced, timeout=60)
            for k, traced in enumerate((False, True, True))])
    return out


@pytest.mark.parametrize("name", SMALL)
def test_every_solve_passes_the_output_check(solves, name):
    w, data, runs = solves[name]
    ref = outcheck.Reference(data, SEED)
    for run in runs:
        assert run["problem"] is None
        assert ref.check(run["out"], w.emit_sinv) == []


@pytest.mark.parametrize("name", SMALL)
def test_setup_ends_inside_the_solve(solves, name):
    plain = solves[name][2][0]
    assert 0 < plain["setup_s"] < plain["solve_s"]


@pytest.mark.parametrize("name", SMALL)
def test_traced_result_is_byte_identical(solves, name):
    digests = {outcheck.file_digest(run["out"]) for run in solves[name][2]}
    assert len(digests) == 1


@pytest.mark.parametrize("name", SMALL)
def test_traced_counts_repeat_exactly(solves, name):
    w, _, runs = solves[name]
    layers = [spans.layer_metrics(run["spans"], w.n, w.m, dgemm_gflops=1.0)
              for run in runs[1:]]
    assert {k: layers[0][k] for k in spans.EXACT} == {k: layers[1][k] for k in spans.EXACT}
    first = layers[0]
    assert first["pipeline.blocks"] >= 2
    if w.ranks == 1:
        assert first["kernel.trsm_calls"] == first["pipeline.blocks"]
        assert first["transport.bytes_sent"] == 0
    else:
        # a rank owns at least its share of the genotype columns
        assert first["transport.bytes_sent"] > 8 * w.n * w.m / w.ranks
        assert first["distgrid.redist_calls"] > 0


def _corrupt(path, marker, fn):
    (m, p, flags) = np.fromfile(path, dtype="<u8", count=3, offset=8)
    width = int(p + (p * (p + 1) // 2 if flags & 1 else 0))
    rec = np.memmap(path, dtype="<f8", mode="r+", offset=32, shape=(int(m), width))
    fn(rec[marker])
    rec.flush()
    del rec


def test_check_rejects_zeroed_record_and_perturbed_beta(solves, tmp_path):
    w, data, runs = solves["ooc-smalln"]
    ref = outcheck.Reference(data, SEED)
    marker = int(ref.sample[len(ref.sample) // 2])

    zeroed = tmp_path / "zeroed.gwab"
    shutil.copy(runs[0]["out"], zeroed)
    _corrupt(zeroed, marker + 1, lambda r: r.fill(0.0))
    assert any("all-zero" in msg for msg in ref.check(zeroed, w.emit_sinv))

    perturbed = tmp_path / "perturbed.gwab"
    shutil.copy(runs[0]["out"], perturbed)

    def nudge(r):
        r[:w.p] *= 1 + 1e-6

    _corrupt(perturbed, marker, nudge)
    assert any(f"marker {marker}: beta" in msg
               for msg in ref.check(perturbed, w.emit_sinv))


@pytest.mark.parametrize("trace", [0, 1])
def test_measure_reports_every_declared_metric(work, trace):
    result, lines = harness.measure(small("ooc-trsm"), SEED, seconds=0, trace=trace)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= harness.MIN_SOLVES
    units = harness.PER_LAYER if trace else harness.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert lines[0].startswith("host ")


def test_benchmark_json_matches_the_harness():
    with open(harness.ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(harness.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ooc-trsm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
