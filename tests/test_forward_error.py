"""Forward-error gate: every engine's betas against an extended-precision
reference, at three conditionings of the covariance, and with nearly
collinear covariates.

The data are generated at m < n, so G G^T is singular and the ridge sets
cond(M). The reference factors M in np.longdouble (eps 1.1e-19 on x86-64),
so its own error is far below the float64 engines'. The gate bounds each
marker's normwise relative error by C * cond2(M) * eps. On the generated
data every engine read 0.01-0.03 cond2(M) * eps, so C leaves a margin of
about 8 while still catching an error tenfold the kept algorithms'.

In the collinear case one covariate is a copy of another plus 1e-4 noise,
so the whitened covariates' Gram matrix S_TL has cond2 about 5e8, and the
betas lose digits to it as a least-squares solution does (Higham,
"Accuracy and Stability of Numerical Algorithms", 2nd ed., ch. 20). The
bound adds C_COV * cond2(S_TL) * eps; every engine read 1.2-1.5
cond2(S_TL) * eps, so C_COV leaves a margin of about 3.
"""

import numpy as np
import pytest

from gwasgls import fileio
from gwasgls.datagen import GenSpec, gen_dataset
from gwasgls.distgrid import run_dist
from gwasgls.pipeline import SolveConfig, run_incore, run_ooc
from gwasgls.transport import run_spmd

from conftest import solve_paths

C = 0.25
C_COV = 4.0
EPS = np.finfo(np.float64).eps
LD = np.longdouble


def _cholesky(A):
    """Lower Cholesky factor of A, column by column, in A's precision."""
    n = A.shape[0]
    L = np.zeros_like(A)
    for j in range(n):
        L[j, j] = np.sqrt(A[j, j] - L[j, :j] @ L[j, :j])
        L[j + 1:, j] = (A[j + 1:, j] - L[j + 1:, :j] @ L[j, :j]) / L[j, j]
    return L


def _forward(L, B):
    """L^-1 B by forward substitution, in L's precision."""
    X = np.empty_like(B)
    for i in range(L.shape[0]):
        X[i] = (B[i] - L[i, :i] @ X[:i]) / L[i, i]
    return X


def _reference_betas(ds):
    """Each marker's GLS betas, with every step in np.longdouble: whiten
    [XL | G | y] by the Cholesky factor of M, then solve each marker's
    normal equations by a Cholesky of their p x p matrix."""
    M = fileio.read_matrix(ds.cov, "GWAM").astype(LD)
    XL = fileio.read_matrix(ds.covariates, "GWAC").astype(LD)
    G = fileio.read_matrix(ds.geno, "GWAX").astype(LD)
    y = fileio.read_matrix(ds.pheno, "GWAY").astype(LD)
    W = _forward(_cholesky(M), np.column_stack([XL, G, y]))
    q, m = XL.shape[1], G.shape[1]
    betas = np.empty((m, q + 1), dtype=LD)
    for i in range(m):
        X = np.column_stack([W[:, :q], W[:, q + i]])
        Ls = _cholesky(X.T @ X)
        z = _forward(Ls, X.T @ W[:, -1])
        # back substitution with Ls^T, as a forward one on the reversed order
        betas[i] = _forward(Ls.T[::-1, ::-1].copy(), z[::-1])[::-1]
    return betas


ENGINES = {
    "incore": lambda p: run_incore(p),
    "ooc-5": lambda p: run_ooc(p, SolveConfig(m_blk=5)),
    "dist-np1": lambda p: run_spmd(1, run_dist, p, SolveConfig()),
    "dist-np2": lambda p: run_spmd(2, run_dist, p, SolveConfig()),
    "dist-np4": lambda p: run_spmd(4, run_dist, p, SolveConfig()),
}


@pytest.fixture(scope="module",
                params=[(1e-1, False), (1e-4, False), (1e-7, False),
                        (1e-1, True)],
                ids=["ridge1e-1", "ridge1e-4", "ridge1e-7", "collinear"])
def conditioned(request, tmp_path_factory):
    """(dataset, reference betas, bound) at one ridge, the bound C *
    cond2(M) * eps, plus C_COV * cond2(S_TL) * eps when the last covariate
    is made nearly collinear with the one before it."""
    ridge, collinear = request.param
    d = tmp_path_factory.mktemp("cond")
    ds = gen_dataset(GenSpec(n=200, m=16, p=4, seed=42, ridge=ridge), str(d))
    M = fileio.read_matrix(ds.cov, "GWAM")
    bound = C * np.linalg.cond(M) * EPS
    if collinear:
        XL = fileio.read_matrix(ds.covariates, "GWAC")
        noise = np.random.default_rng(42).standard_normal(XL.shape[0])
        XL[:, -1] = XL[:, -2] + 1e-4 * noise
        fileio.write_matrix(ds.covariates, "GWAC", XL)
        # cond2(S_TL) = cond2(XLbar)^2, without forming S_TL
        XLbar = np.linalg.solve(np.linalg.cholesky(M), XL)
        bound += C_COV * np.linalg.cond(XLbar) ** 2 * EPS
    return ds, _reference_betas(ds), bound


@pytest.mark.parametrize("engine", ENGINES)
def test_betas_within_c_cond_eps(conditioned, engine, tmp_path):
    ds, ref, bound = conditioned
    paths = solve_paths(ds, str(tmp_path / "out.gwab"))
    ENGINES[engine](paths)
    betas = fileio.read_matrix(paths.out, "GWAB").betas
    err = (np.linalg.norm((betas - ref).astype(np.float64), axis=1)
           / np.linalg.norm(ref.astype(np.float64), axis=1))
    assert np.max(err) <= bound, (np.max(err), bound)
