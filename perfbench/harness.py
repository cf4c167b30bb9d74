"""Outside-in benchmark of the gwasgls sweep engines.

Each solve is one `gwasgls.cli.main(["solve", ...])` call in a fresh
process (child.py) with one BLAS thread, so the dist workload's 2 ranks use
the host's 2 cores without oversubscription. Times come from the child's
clock around `cli.main` and from `os.wait4` on the child; no field of the
program's own run summary is read. Every result file is checked
(outcheck.py) before its solve counts.

With trace 0 a run reports the end-to-end metrics of its untraced solves.
With trace 1 it alternates traced and untraced solves and reports the
per-layer metrics of the traced ones (spans.py).
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import outcheck
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
WORK = ROOT / ".bench_work"

# One BLAS thread per process: dist-socket runs 2 ranks on a 2-core host.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
MIN_SOLVES = 3
SOLVE_TIMEOUT_S = 60.0
RUN_DEADLINE_S = 150.0  # no solve may end later than this after the run starts


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    m: int
    p: int
    solve_args: tuple  # engine flags for `gwasgls solve`

    @property
    def emit_sinv(self):
        return "--emit-sinv" in self.solve_args

    @property
    def ranks(self):
        a = self.solve_args
        return int(a[a.index("--np") + 1]) if "--np" in a else 1

    def read_bytes(self):
        """Payload bytes of the four input files."""
        return 8 * (self.n * self.m + self.n * self.n + self.n * (self.p - 1) + self.n)

    def write_bytes(self):
        """Payload bytes of the result file."""
        width = self.p + (self.p * (self.p + 1) // 2 if self.emit_sinv else 0)
        return 8 * self.m * width


WORKLOADS = {w.name: w for w in (
    Workload("ooc-trsm", n=2000, m=12000, p=4,
             solve_args=("--mode", "ooc", "--block-size", "2000")),
    Workload("ooc-smalln", n=100, m=200000, p=4,
             solve_args=("--mode", "ooc", "--emit-sinv")),
    Workload("dist-socket", n=1000, m=16384, p=4,
             solve_args=("--mode", "dist", "--np", "2", "--transport", "socket")),
)}

END_TO_END = {
    "solve_s": "s",
    "setup_s": "s",
    "sweep_markers_per_s": "markers/s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "kernel.prepare_s": "s",
    "kernel.cholesky_s": "s",
    "kernel.trsm_s": "s",
    "kernel.trsm_calls": "count",
    "kernel.trsm_gflops": "GFLOP/s",
    "kernel.trsm_vs_dgemm": "ratio",
    "kernel.whiten_solve_s": "s",
    "kernel.smallsolve_s": "s",
    "kernel.nontrsm_share": "ratio",
    "fileio.read_wait_s": "s",
    "fileio.write_wait_s": "s",
    "fileio.store_start_s": "s",
    "fileio.input_read_s": "s",
    "fileio.read_bytes": "B",
    "fileio.write_bytes": "B",
    "fileio.io_wait_frac": "ratio",
    "pipeline.self_s": "s",
    "pipeline.blocks": "count",
    "distgrid.scatter_s": "s",
    "distgrid.cholesky_s": "s",
    "distgrid.trsolve_s": "s",
    "distgrid.redist_s": "s",
    "distgrid.redist_calls": "count",
    "transport.bytes_sent": "B",
    "transport.messages": "count",
    "transport.bytes_per_geno_byte": "ratio",
    "transport.recv_wait_s": "s",
    "transport.allgather_calls": "count",
    "transport.allgather_s": "s",
    "transport.alltoall_calls": "count",
    "transport.alltoall_s": "s",
    "transport.broadcast_calls": "count",
    "transport.broadcast_s": "s",
    "trace.overhead_frac": "ratio",
    "host.dgemm_gflops": "GFLOP/s",
}


def child_env():
    env = dict(os.environ, **THREAD_ENV)
    env.pop("GWAS_GLS_MEM_BUDGET_BYTES", None)
    return env


def _end_group(pgid):
    """Kill what is left of a failed solve's process group and wait until
    it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(500):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def launch(args, timeout, log_path):
    """Run child.py in its own session; returns (exit code, rusage of the
    whole process tree, timed out). wait4 folds in the CPU time and peak
    RSS of every descendant the child reaped, i.e. the socket workers."""
    timed_out = threading.Event()
    with open(log_path, "wb") as log:
        proc = subprocess.Popen([sys.executable, str(CHILD), *map(str, args)],
                                env=child_env(), stdout=subprocess.DEVNULL,
                                stderr=log, start_new_session=True)

    def expire():
        timed_out.set()
        _end_group(proc.pid)

    timer = threading.Timer(timeout, expire)
    timer.start()
    try:
        _, status, ru = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        _end_group(proc.pid)
    return proc.returncode, ru, timed_out.is_set()


def host_facts(run_dir):
    report = run_dir / "host.json"
    rc, _, _ = launch(["host", report], SOLVE_TIMEOUT_S, run_dir / "host.log")
    if rc != 0:
        raise RuntimeError("host probe failed: " + (run_dir / "host.log").read_text())
    return json.loads(report.read_text())


def gen_seed(seed):
    return seed % (1 << 32)


def ensure_dataset(w, seed):
    """Generate the workload's inputs for this seed once; later runs with the
    same seed reuse them. Only the newest dataset of a workload is kept."""
    from gwasgls import datagen

    data_root = WORK / "data"
    d = data_root / f"{w.name}-n{w.n}-m{w.m}-p{w.p}-s{seed}"
    if (d / "complete").exists():
        return d
    if data_root.exists():
        for old in data_root.glob(f"{w.name}-*"):
            shutil.rmtree(old)
    tmp = Path(str(d) + ".partial")
    paths = datagen.gen_dataset(
        datagen.GenSpec(n=w.n, m=w.m, p=w.p, seed=gen_seed(seed)), str(tmp))
    # flush the new files now, not as writeback during the timed solves
    for path in (paths.cov, paths.covariates, paths.pheno, paths.geno):
        with open(path, "rb+") as f:
            os.fsync(f.fileno())
    (tmp / "complete").touch()
    tmp.rename(d)
    return d


def solve_argv(w, data_dir, out):
    return ["solve", *w.solve_args,
            "--cov", data_dir / "covariance.gwam",
            "--covariates", data_dir / "covariates.gwac",
            "--pheno", data_dir / "phenotype.gway",
            "--geno", data_dir / "genotypes.gwax",
            "--out", out]


def one_solve(w, data_dir, solve_dir, traced, timeout):
    """Run and time one solve. Returns a record with the result file path;
    'problem' is set when the solve failed."""
    solve_dir.mkdir()
    out = solve_dir / "result.gwab"
    report = solve_dir / "report.json"
    args = ["solve", report, solve_dir, int(traced), "--", *solve_argv(w, data_dir, out)]
    rc, ru, timed_out = launch(args, timeout, solve_dir / "stderr.log")
    rec = {"traced": traced, "out": out, "problem": None}
    if timed_out:
        rec["problem"] = f"timed out after {timeout:.0f} s"
        return rec
    if rc != 0 or not report.exists():
        err = (solve_dir / "stderr.log").read_text().strip().splitlines()
        rec["problem"] = f"child exit {rc}: {err[-1] if err else ''}"
        return rec
    rep = json.loads(report.read_text())
    if rep["rc"] != 0:
        rec["problem"] = f"gwasgls solve returned {rep['rc']}"
        return rec
    rec["solve_s"] = (rep["exit_ns"] - rep["entry_ns"]) / 1e9
    rec["cpu_s"] = ru.ru_utime + ru.ru_stime
    rec["peak_rss_mb"] = ru.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux
    if traced:
        rec["spans"] = spans.load(solve_dir)
        return rec
    stamps = [int((solve_dir / f).read_text()) for f in os.listdir(solve_dir)
              if f.startswith("first-wait-")]
    if len(stamps) != w.ranks:
        rec["problem"] = f"{len(stamps)} set-up stamps for {w.ranks} ranks"
        return rec
    rec["setup_s"] = (max(stamps) - rep["entry_ns"]) / 1e9
    rec["sweep_markers_per_s"] = w.m / (rec["solve_s"] - rec["setup_s"])
    return rec


def tail(values):
    """(q, value) for the highest of the usual percentiles that has at least
    ten samples above it, or None when there are fewer than 20 samples."""
    xs = sorted(values)
    for q in (99, 95, 90, 75, 50):
        k = int(q / 100 * len(xs))  # samples at or below the percentile
        if len(xs) - k >= 10 and k >= 1:
            return q, xs[k - 1]
    return None


def describe(name, unit, values):
    med = statistics.median(values)
    t = tail(values)
    extra = (f"p{t[0]} {t[1]:.6g}" if t else
             "no percentile has >= 10 samples above it")
    return (f"{name:<30} {med:<14.6g} {unit:<10} median of {len(values)} "
            f"(min {min(values):.6g}, max {max(values):.6g}); {extra}")


def measure(w, seed, seconds, trace):
    """One benchmark run of a workload. Returns (result dict for the last
    line, report lines). The run's files are removed at the end."""
    run_dir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        return _measure(w, seed, seconds, trace, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _measure(w, seed, seconds, trace, run_dir):
    host = host_facts(run_dir)
    data_dir = ensure_dataset(w, seed)
    ref = outcheck.Reference(data_dir, seed)
    lines = ["host " + json.dumps(host, sort_keys=True),
             f"workload {w.name} seed={seed} n={w.n} m={w.m} p={w.p} "
             f"args={' '.join(w.solve_args)} threads={THREAD_ENV}"]

    solves = []
    digest = None
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        done = [s["wall"] for s in solves]
        if len(solves) >= MIN_SOLVES and elapsed + statistics.median(done) > seconds:
            break
        if elapsed > RUN_DEADLINE_S - SOLVE_TIMEOUT_S and solves:
            break
        traced = bool(trace) and len(solves) % 2 == 0
        t0 = time.monotonic()
        s = one_solve(w, data_dir, run_dir / f"solve-{len(solves)}", traced,
                      SOLVE_TIMEOUT_S)
        if s["problem"] is None:
            problems = ref.check(s["out"], w.emit_sinv)
            d = outcheck.file_digest(s["out"])
            digest = digest or d
            if d != digest:
                problems.append("result differs from the run's first result file")
            if problems:
                s["problem"] = "; ".join(problems[:5])
        s["out"].unlink(missing_ok=True)
        s["wall"] = time.monotonic() - t0
        solves.append(s)

    failed = [s for s in solves if s["problem"]]
    for s in failed:
        lines.append(f"FAILED {'traced ' if s['traced'] else ''}solve: {s['problem']}")
    plain = [s for s in solves if not s["traced"] and not s["problem"]]
    e2e = {k: [s[k] for s in plain] for k in END_TO_END} if plain else {}
    for k, unit in END_TO_END.items():
        if plain:
            lines.append(describe(k, unit, e2e[k]))
    lines.append(f"{'failed_frac':<30} {len(failed) / len(solves):<14.6g} "
                 f"{'ratio':<10} {len(failed)} failed of {len(solves)} attempted")

    correct = not failed
    if trace:
        traced_ok = [s for s in solves if s["traced"] and not s["problem"]]
        layers = [spans.layer_metrics(s["spans"], w.n, w.m, host["dgemm_gflops"])
                  for s in traced_ok]
        metrics = {}
        if layers and plain:
            for k in layers[0]:
                metrics[k] = statistics.median(x[k] for x in layers)
            for k in spans.EXACT:
                metrics[k] = layers[0][k]
                if len({x[k] for x in layers}) != 1:
                    correct = False
                    lines.append(f"FAILED {k} differs between traced solves: "
                                 f"{[x[k] for x in layers]}")
            traced_solve = statistics.median(s["solve_s"] for s in traced_ok)
            metrics["trace.overhead_frac"] = traced_solve / statistics.median(e2e["solve_s"]) - 1
            metrics["fileio.read_bytes"] = w.read_bytes()
            metrics["fileio.write_bytes"] = w.write_bytes()
            metrics["host.dgemm_gflops"] = host["dgemm_gflops"]
            lines.append(f"per-layer: medians of {len(layers)} traced solves; "
                         "fileio.*_bytes from the file dimensions, "
                         "host.dgemm_gflops from the host probe")
            for k, unit in PER_LAYER.items():
                lines.append(f"{k:<30} {metrics[k]:<14.6g} {unit}")
        units = PER_LAYER
    else:
        metrics = {k: statistics.median(v) for k, v in e2e.items()}
        units = END_TO_END
    result = {
        "correct": correct and set(metrics) == set(units),
        "attempted": len(solves),
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units if k in metrics},
    }
    return result, lines
