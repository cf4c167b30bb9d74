"""Output check for every benchmark solve, independent of gwasgls.

The input and result files are read with plain numpy from their documented
layout (magic, u32 version, u64 dims, column-major float64 payload), and a
seeded sample of markers is solved again by the dense GLS formula through
scipy's Cholesky. Nothing here imports the package under test.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

EPS = 2.0 ** -52
SAMPLE = 64        # markers recomputed per check, plus the first and last
REL_TOL = 1e-9     # max |b - b_ref| / max |b_ref| per marker


def _dims(path, magic, ndims):
    with open(path, "rb") as f:
        if f.read(4) != magic:
            raise ValueError(f"{path}: not a {magic.decode()} file")
        f.seek(8)
        return [int(d) for d in np.fromfile(f, dtype="<u8", count=ndims)]


def _read(path, magic, ndims):
    dims = _dims(path, magic, ndims)
    return dims, np.fromfile(path, dtype="<f8", offset=8 + 8 * ndims)


def read_results(path):
    """(betas m x p, sinv m x p(p+1)/2 or None) of a GWAB file."""
    (m, p, flags), payload = _read(path, b"GWAB", 3)
    width = p + (p * (p + 1) // 2 if flags & 1 else 0)
    if payload.size != m * width:
        raise ValueError(f"{path}: {payload.size} reals, header promises {m * width}")
    rec = payload.reshape(m, width)
    return rec[:, :p], (rec[:, p:] if flags & 1 else None)


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 22), b""):
            h.update(chunk)
    return h.hexdigest()


class Reference:
    """Dense GLS reference for one dataset: M is factored once, and each
    check recomputes the same seeded marker sample."""

    def __init__(self, data_dir, seed):
        (n,), cov = _read(os.path.join(data_dir, "covariance.gwam"), b"GWAM", 1)
        (_, q), xl = _read(os.path.join(data_dir, "covariates.gwac"), b"GWAC", 2)
        _, y = _read(os.path.join(data_dir, "phenotype.gway"), b"GWAY", 1)
        self.geno = os.path.join(data_dir, "genotypes.gwax")
        _, m = _dims(self.geno, b"GWAX", 2)
        self.n, self.m, self.p = n, m, q + 1
        self.factor = cho_factor(cov.reshape(n, n, order="F"), lower=True)
        self.xl = xl.reshape(n, q, order="F")
        self.minv_xl = cho_solve(self.factor, self.xl)
        self.minv_y = cho_solve(self.factor, y)
        rng = np.random.default_rng(seed)
        picked = rng.choice(m, size=min(SAMPLE, m), replace=False)
        self.sample = np.unique(np.concatenate([picked, [0, m - 1]]))
        self._expected = None

    def _columns(self):
        cols = np.empty((self.n, self.sample.size))
        with open(self.geno, "rb") as f:
            for k, j in enumerate(self.sample):
                f.seek(24 + 8 * self.n * int(j))
                cols[:, k] = np.fromfile(f, dtype="<f8", count=self.n)
        return cols

    def expected(self):
        """[(marker, beta or None if degenerate, S^-1 lower-packed)]."""
        if self._expected is not None:
            return self._expected
        X = self._columns()
        minv_x = cho_solve(self.factor, X)
        q = self.p - 1
        il = np.tril_indices(self.p)
        out = []
        for k, j in enumerate(self.sample):
            x = X[:, k]
            A = np.empty((self.p, self.p))
            A[:q, :q] = self.xl.T @ self.minv_xl
            A[q, :q] = A[:q, q] = x @ self.minv_xl
            A[q, q] = x @ minv_x[:, k]
            b = np.append(self.xl.T @ self.minv_y, x @ self.minv_y)
            # degenerate iff a Cholesky pivot is <= p * eps * max|A|, the
            # rule the solvers document
            try:
                c = cho_factor(A, lower=True)
            except LinAlgError:
                out.append((int(j), None, None))
                continue
            if np.min(np.diag(c[0])) ** 2 <= self.p * EPS * np.max(np.abs(A)):
                out.append((int(j), None, None))
                continue
            out.append((int(j), cho_solve(c, b), cho_solve(c, np.eye(self.p))[il]))
        self._expected = out
        return out

    def check(self, result_path, emit_sinv):
        """Problems found in a result file; an empty list means it passed."""
        try:
            betas, sinv = read_results(result_path)
        except (OSError, ValueError) as e:
            return [f"unreadable result: {e}"]
        if betas.shape != (self.m, self.p) or (sinv is not None) != emit_sinv:
            return [f"result shape {betas.shape}, sinv={sinv is not None}"]
        rec = betas if sinv is None else np.hstack([betas, sinv])
        finite = np.isfinite(rec).all(axis=1)
        nan = np.isnan(rec).all(axis=1)
        zero = (rec == 0).all(axis=1)
        problems = []
        if not np.all(finite | nan):
            problems.append(f"{int(np.sum(~(finite | nan)))} records mix NaN and numbers")
        if np.any(zero):
            problems.append(f"{int(np.sum(zero))} all-zero records, first "
                            f"{int(np.argmax(zero))}")
        for j, beta, s_inv in self.expected():
            if beta is None:
                if not nan[j]:
                    problems.append(f"marker {j}: expected degenerate")
                continue
            if nan[j]:
                problems.append(f"marker {j}: unexpectedly degenerate")
                continue
            rel = np.max(np.abs(betas[j] - beta)) / np.max(np.abs(beta))
            if not rel <= REL_TOL:
                problems.append(f"marker {j}: beta rel err {rel:.2e}")
            if sinv is not None:
                rel = np.max(np.abs(sinv[j] - s_inv)) / np.max(np.abs(s_inv))
                if not rel <= REL_TOL:
                    problems.append(f"marker {j}: S^-1 rel err {rel:.2e}")
        return problems

