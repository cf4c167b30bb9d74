"""Deterministic synthetic datasets and the end-to-end reference solver.

All randomness comes from a counter-based generator built on the
splitmix64 finalizer (shift-xor-multiply mixing), so regenerating with
the same GenSpec yields byte-identical files on any platform; no ambient
randomness source is consulted.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import fileio, kernel
from .errors import ConfigError, DimensionMismatch

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_CHUNK = 512  # fixed column chunk so accumulation order never varies

STREAM_MAF = 1
STREAM_GENO = 2
STREAM_COV = 3
STREAM_WEIGHTS = 4
STREAM_NOISE = 5
STREAM_PLANT = 6

MAF_RANGE = (0.05, 0.5)
N_PLANTED = 5
PLANT_EFFECT = 2.0
NOISE_STD = 0.5


def _mix(z):
    # splitmix64 finalizer; uint64 arithmetic wraps mod 2^64 by design
    with np.errstate(over="ignore"):
        z = np.uint64(z) if np.isscalar(z) else z.astype(np.uint64)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def _stream_u64(seed, stream, start, count):
    with np.errstate(over="ignore"):
        idx = np.arange(start, start + count, dtype=np.uint64)
        key = _mix(np.uint64(seed) * _GOLDEN + np.uint64(stream))
        return _mix((idx + np.uint64(1)) * _GOLDEN + key)


def _stream_uniform(seed, stream, start, count):
    return (_stream_u64(seed, stream, start, count) >> np.uint64(11)) * 2.0 ** -53


def _stream_normal(seed, stream, start, count):
    # Box-Muller on counter pairs; u1 shifted into (0, 1] to keep log finite
    u = _stream_uniform(seed, stream, 2 * start, 2 * count)
    u1 = u[0::2] + 2.0 ** -54
    u2 = u[1::2]
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


@dataclass
class GenSpec:
    n: int
    m: int
    p: int
    seed: int
    ridge: float = 1.0

    def __post_init__(self):
        if not (2 <= self.p <= 20):
            raise ConfigError("p must lie in [2, 20]")
        if self.n < 1 or self.m < 1:
            raise ConfigError("n and m must be >= 1")
        if self.ridge <= 0:
            raise ConfigError("ridge must be positive")


@dataclass
class DatasetPaths:
    cov: str
    covariates: str
    pheno: str
    geno: str

    @classmethod
    def in_dir(cls, out_dir):
        return cls(
            cov=os.path.join(out_dir, "covariance.gwam"),
            covariates=os.path.join(out_dir, "covariates.gwac"),
            pheno=os.path.join(out_dir, "phenotype.gway"),
            geno=os.path.join(out_dir, "genotypes.gwax"),
        )


def planted_indices(spec):
    """Distinct marker indices carrying the planted signal."""
    k = min(N_PLANTED, spec.m)
    picked = []
    ctr = 0
    while len(picked) < k:
        u = _stream_uniform(spec.seed, STREAM_PLANT, ctr, 1)[0]
        ctr += 1
        idx = int(u * spec.m)
        if idx not in picked:
            picked.append(idx)
    return sorted(picked)


def gen_dataset(spec, out_dir):
    """Write the four input files for a synthetic association study.

    Genotypes are dosages in {0, 1, 2}, binomial at a per-marker allele
    frequency drawn from MAF_RANGE; covariates are an intercept plus
    standard-normal columns; the phenotype carries a linear signal from
    planted markers plus noise; the covariance is (1/m) G G^T + ridge * I,
    SPD by construction. Each file is renamed into place once whole
    (fileio.creating).
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = DatasetPaths.in_dir(out_dir)
    n, m, p, seed = spec.n, spec.m, spec.p, spec.seed

    freqs = MAF_RANGE[0] + _stream_uniform(seed, STREAM_MAF, 0, m) * (
        MAF_RANGE[1] - MAF_RANGE[0])

    XL = np.empty((n, p - 1), order="F")
    XL[:, 0] = 1.0
    if p > 2:
        norm = _stream_normal(seed, STREAM_COV, 0, n * (p - 2))
        XL[:, 1:] = norm.reshape((n, p - 2), order="F")

    planted = planted_indices(spec)
    planted_cols = np.zeros((n, len(planted)))
    GGt = np.zeros((n, n))
    with (fileio.creating(paths.geno) as partial,
          fileio.ColumnFile(partial, "GWAX", "w+", (n, m)) as geno):
        for j0 in range(0, m, _CHUNK):
            j1 = min(j0 + _CHUNK, m)
            cnt = (j1 - j0) * n
            u1 = _stream_uniform(seed, STREAM_GENO, j0 * n, cnt)
            u2 = _stream_uniform(seed, STREAM_GENO, (m + j0) * n, cnt)
            fcol = np.repeat(freqs[j0:j1], n)
            chunk = ((u1 < fcol).astype(np.float64) + (u2 < fcol)).reshape(
                (n, j1 - j0), order="F")
            geno.write(j0, chunk)
            GGt += chunk @ chunk.T
            for kk, pj in enumerate(planted):
                if j0 <= pj < j1:
                    planted_cols[:, kk] = chunk[:, pj - j0]

    M = GGt / m + spec.ridge * np.eye(n)
    M = np.tril(M) + np.tril(M, -1).T  # exact stored symmetry
    fileio.write_matrix(paths.cov, "GWAM", M)
    fileio.write_matrix(paths.covariates, "GWAC", XL)

    w = _stream_normal(seed, STREAM_WEIGHTS, 0, p - 1)
    noise = _stream_normal(seed, STREAM_NOISE, 0, n)
    y = XL @ w + PLANT_EFFECT * planted_cols.sum(axis=1) + NOISE_STD * noise
    fileio.write_matrix(paths.pheno, "GWAY", y)
    return paths


def _chol_pivot_ok(S):
    """Unblocked Cholesky with the shared positive-pivot rule; kept local
    so the reference route does not lean on the optimized kernel."""
    p = S.shape[0]
    thresh = p * 2.0 ** -52 * np.max(np.abs(S))
    L = np.zeros_like(S)
    for j in range(p):
        d = S[j, j] - L[j, :j] @ L[j, :j]
        if not (np.isfinite(d) and d > thresh):
            return False
        L[j, j] = np.sqrt(d)
        for i in range(j + 1, p):
            L[i, j] = (S[i, j] - L[i, :j] @ L[j, :j]) / L[j, j]
    return True


ORACLE_MAX_N = 500
ORACLE_MAX_M = 5000


def oracle_solve_all(paths):
    """Ground-truth sweep: evaluate the GLS formula marker by marker with
    no hoisting of marker-independent work, into paths.out, reading the
    inputs through fileio.opening. Desk scale only, which the file
    headers are checked against before any payload is read."""
    with fileio.opening(paths) as (cov, covariates, pheno, geno):
        n, m = geno.dims
        if n > ORACLE_MAX_N or m > ORACLE_MAX_M:
            raise ConfigError(
                f"oracle limited to n<={ORACLE_MAX_N}, m<={ORACLE_MAX_M}")
        M = fileio.read_covariance(cov)
        XLy = fileio.read_covariates_and_phenotype(covariates, pheno)
        X = geno.read(0, m, np.empty(geno.shape, order="F"))
        if not np.isfinite(X).all():
            bad = np.flatnonzero(~np.isfinite(X).all(axis=0))
            raise fileio.non_finite_genotypes(geno, int(bad[0]))
    XL, y, p = XLy[:, :-1], XLy[:, -1], XLy.shape[1]
    L = kernel.cholesky_spd(M)
    betas = np.full((m, p), np.nan)
    for i in range(m):
        Xi = np.hstack([XL, X[:, i:i + 1]])
        MinvX = kernel.cho_solve(L, Xi)
        Minvy = kernel.cho_solve(L, y)
        A = Xi.T @ MinvX
        b = Xi.T @ Minvy
        if not _chol_pivot_ok(A):
            continue
        betas[i] = np.linalg.solve(A, b)
    payload = fileio.ResultPayload(betas=betas, sinv=None)
    fileio.write_matrix(paths.out, "GWAB", payload)
    return payload


@dataclass
class CompareReport:
    max_rel_discrepancy: float
    status_mismatches: int
    compared: int
    tol: float

    @property
    def within(self):
        return self.status_mismatches == 0 and self.max_rel_discrepancy <= self.tol

    @property
    def exit_code(self):
        return 0 if self.within else 1


def compare_results(file_a, file_b, tol):
    """Max relative infinity-norm discrepancy over non-degenerate markers
    plus the count of status disagreements. A marker's discrepancy is that
    of its betas and, when both files carry S^-1 (flag bit 0), the larger
    of it and that of its packed S^-1."""
    a = fileio.read_matrix(file_a, "GWAB")
    b = fileio.read_matrix(file_b, "GWAB")
    if a.betas.shape != b.betas.shape:
        raise DimensionMismatch("result files have different (m, p)")
    sa, sb = a.statuses, b.statuses
    mismatches = int(np.sum(sa != sb))
    both_ok = (sa == "ok") & (sb == "ok")
    max_rel = 0.0
    fields = [(a.betas, b.betas)]
    if a.sinv is not None and b.sinv is not None:
        fields.append((a.sinv, b.sinv))
    for fa, fb in fields:
        if np.any(both_ok):
            fa, fb = fa[both_ok], fb[both_ok]
            diff = np.max(np.abs(fa - fb), axis=1)
            scale = np.maximum(np.max(np.abs(fa), axis=1), 1e-300)
            max_rel = max(max_rel, float(np.max(diff / scale)))
    return CompareReport(max_rel_discrepancy=max_rel,
                         status_mismatches=mismatches,
                         compared=int(np.sum(both_ok)), tol=tol)
