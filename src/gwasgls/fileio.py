"""Binary file formats and the asynchronous block read/write agents.

Every file starts with a fixed header: 4 ASCII magic bytes, a u32
little-endian version (always 1), then kind-specific u64 little-endian
dimensions. Payloads are column-major 64-bit little-endian IEEE-754
reals with no padding.

Kinds:
    GWAM  covariance        dims (n,)        payload n x n
    GWAX  genotypes         dims (n, m)      payload n x m, one marker per column
    GWAC  covariates        dims (n, q)      payload n x q (q = p - 1)
    GWAY  phenotype         dims (n,)        payload n
    GWAB  results           dims (m, p, flags)  one record per marker:
          p betas, then (iff flags bit 0) p(p+1)/2 packed lower-triangle
          reals of the inverse normal-equations matrix. Degenerate markers
          are all-NaN records.

The packed triangle ordering is np.tril_indices order: (0,0), (1,0),
(1,1), (2,0), ...

A block travels as one array each way. BlockReader fills the leading
columns of a caller's n x count Fortran buffer straight from the file,
and its wait returns them. BlockWriter stores a count x record-width
C-ordered array of records, the staging area the engines' small solves
write them into (kernel.solve_whitened_block's out), as it is: encode
checks that the records fit the file and copies nothing.
"""

from __future__ import annotations

import struct
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import (
    AsymmetricCovariance,
    BadMagic,
    DimensionMismatch,
    OverlappingBuffer,
    TruncatedFile,
    UnsupportedVersion,
)
from . import kernel

MAGIC = {
    "GWAM": b"GWAM",
    "GWAX": b"GWAX",
    "GWAC": b"GWAC",
    "GWAY": b"GWAY",
    "GWAB": b"GWAB",
}
NDIMS = {"GWAM": 1, "GWAX": 2, "GWAC": 2, "GWAY": 1, "GWAB": 3}
VERSION = 1
F64 = np.dtype("<f8")


def header_size(kind):
    return 4 + 4 + 8 * NDIMS[kind]


def pack_header(kind, dims):
    if len(dims) != NDIMS[kind]:
        raise DimensionMismatch(f"{kind} header takes {NDIMS[kind]} dims")
    return MAGIC[kind] + struct.pack("<I", VERSION) + struct.pack(
        f"<{len(dims)}Q", *dims)


def read_header(f, kind):
    raw = f.read(header_size(kind))
    if len(raw) < header_size(kind):
        raise TruncatedFile("file shorter than header")
    if raw[:4] != MAGIC[kind]:
        raise BadMagic(f"expected {kind}, found {raw[:4]!r}")
    (version,) = struct.unpack_from("<I", raw, 4)
    if version != VERSION:
        raise UnsupportedVersion(f"version {version}")
    return struct.unpack_from(f"<{NDIMS[kind]}Q", raw, 8)


def record_size(p, flags):
    """Bytes in one GWAB record, the width the kernel writes them at."""
    return 8 * kernel.record_width(p, flags & 1)


@dataclass
class ResultPayload:
    """In-memory image of a GWAB file."""

    betas: np.ndarray            # m x p; degenerate markers all-NaN
    sinv: np.ndarray | None      # m x p(p+1)/2 when flag set, else None

    @property
    def statuses(self):
        return np.where(np.all(np.isnan(self.betas), axis=1), "degenerate", "ok")


def write_matrix(path, kind, payload):
    """Write a whole file of the given kind."""
    if kind == "GWAB":
        return _write_results(path, payload)
    arr = np.asarray(payload, dtype=np.float64)
    if kind in ("GWAM",):
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DimensionMismatch("covariance payload must be square")
        dims = (arr.shape[0],)
    elif kind in ("GWAX", "GWAC"):
        if arr.ndim != 2:
            raise DimensionMismatch(f"{kind} payload must be 2-D")
        dims = arr.shape
    elif kind == "GWAY":
        arr = arr.ravel()
        dims = (arr.shape[0],)
    else:
        raise ValueError(f"unknown kind {kind}")
    with open(path, "wb") as f:
        f.write(pack_header(kind, dims))
        f.write(np.asfortranarray(arr, dtype=F64).tobytes(order="F"))


def _write_results(path, payload: ResultPayload):
    m, p = payload.betas.shape
    flags = 1 if payload.sinv is not None else 0
    fields = [payload.betas, payload.sinv] if flags else [payload.betas]
    with open(path, "wb") as f:
        f.write(pack_header("GWAB", (m, p, flags)))
        f.write(np.ascontiguousarray(np.hstack(fields), dtype=F64))


def read_matrix(path, kind):
    """Read a whole file; inverse of write_matrix (bitwise round trip).

    The payload is read straight into the returned array, so the peak
    memory is the payload once."""
    with open(path, "rb") as f:
        dims = read_header(f, kind)
        if kind == "GWAB":
            m, p, flags = dims
            rec = _read_payload(f, (m, record_size(p, flags) // 8), "C")
            return ResultPayload(betas=rec[:, :p],
                                 sinv=rec[:, p:] if flags & 1 else None)
        if kind == "GWAM":
            shape = (dims[0], dims[0])
        elif kind in ("GWAX", "GWAC"):
            shape = dims
        else:
            shape = (dims[0],)
        arr = _read_payload(f, shape, "F")
    if kind == "GWAM":
        _check_symmetric(arr)
    return arr


def _check_symmetric(A):
    """Raise AsymmetricCovariance unless A is finite and exactly equal to
    A.T. Each tile on or below the diagonal is compared with its mirror,
    so no n x n temporary is built."""
    n = A.shape[0]
    tile = 256
    for i in range(0, n, tile):
        for j in range(0, i + 1, tile):
            low = A[i:i + tile, j:j + tile]
            if not np.isfinite(low).all():
                raise AsymmetricCovariance("covariance file has non-finite entries")
            if not np.array_equal(low, A[j:j + tile, i:i + tile].T):
                raise AsymmetricCovariance("covariance file is not exactly symmetric")


def _read_payload(f, shape, order):
    arr = np.empty(shape, dtype=F64, order=order)
    _read_into(f, arr.reshape(-1, order=order))
    return arr


def _read_into(f, flat):
    got = f.readinto(flat)
    if got < flat.nbytes:
        raise TruncatedFile(f"expected {flat.nbytes} payload bytes, got {got}")


def read_covariates_and_phenotype(covariates, pheno):
    """[XL | y]: a GWAC file (n x q) and a GWAY file (n) read straight into
    the columns of one n x (q + 1) Fortran-ordered array."""
    with open(covariates, "rb") as fc, open(pheno, "rb") as fy:
        n, q = read_header(fc, "GWAC")
        (ny,) = read_header(fy, "GWAY")
        if ny != n:
            raise DimensionMismatch(f"covariates have {n} rows, phenotype {ny}")
        XLy = np.empty((n, q + 1), dtype=F64, order="F")
        _read_into(fc, XLy[:, :q].reshape(-1, order="F"))
        _read_into(fy, XLy[:, q])
    return XLy


def read_dims(path, kind):
    with open(path, "rb") as f:
        return read_header(f, kind)


class CovarianceReader:
    """Runs of whole columns of a GWAM covariance file, each read straight
    into a buffer the caller owns. `n` is the order of the matrix and
    `bytes_read` the payload bytes read so far. A context manager; leaving
    it closes the file."""

    def __init__(self, path):
        self._f = open(path, "rb")
        try:
            (self.n,) = read_header(self._f, "GWAM")
        except BaseException:
            self._f.close()
            raise
        self.bytes_read = 0

    def read(self, first, out):
        """Read columns [first, first + k) into out (n x k, Fortran-ordered
        float64) with one readinto, and return out."""
        k = out.shape[1]
        if out.shape[0] != self.n or first < 0 or first + k > self.n:
            raise DimensionMismatch(f"columns [{first}, {first + k}) of an "
                                    f"order-{self.n} covariance into {out.shape}")
        # reshaping anything else would read into a silent copy
        if out.dtype != F64 or not out.flags.f_contiguous:
            raise DimensionMismatch("buffer must be Fortran-ordered float64")
        self._f.seek(header_size("GWAM") + 8 * self.n * first)
        _read_into(self._f, out.reshape(-1, order="F"))
        self.bytes_read += out.nbytes
        return out

    def close(self):
        self._f.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class _Agent:
    """One dedicated worker thread for the transfers of a BlockReader or a
    BlockWriter. A ticket is the transfer's future; the memory under an
    in-flight ticket is tracked, so a transfer that overlaps it fails
    fast. wait returns what the transfer returned."""

    def __init__(self):
        self._pool = ThreadPoolExecutor(max_workers=1)
        self._inflight = {}
        self._lock = threading.Lock()

    def _submit(self, region, fn):
        with self._lock:
            if any(np.may_share_memory(region, r)
                   for r in self._inflight.values()):
                raise OverlappingBuffer("buffer already referenced by an in-flight ticket")
            ticket = self._pool.submit(fn)
            self._inflight[ticket] = region
        return ticket

    def wait(self, ticket):
        try:
            return ticket.result()
        finally:
            with self._lock:
                self._inflight.pop(ticket, None)

    def close(self):
        self._pool.shutdown(wait=True)


class BlockReader(_Agent):
    """Asynchronous column-block reader over a GWAX genotype file."""

    def __init__(self, path):
        self.path = path
        self.n, self.m = read_dims(path, "GWAX")
        self._hdr = header_size("GWAX")
        super().__init__()
        self.bytes_read = 0

    def start(self, first_index, count, buffer):
        """Begin loading columns [first_index, first_index+count) into the
        leading columns of `buffer` (n x >=count, Fortran order), reading
        the file straight into them; wait returns those columns."""
        if first_index < 0 or first_index + count > self.m:
            raise DimensionMismatch("block outside file range")
        if buffer.shape[0] != self.n or buffer.shape[1] < count:
            raise DimensionMismatch("buffer too small for block")
        cols = buffer[:, :count]
        # reshaping anything else would read into a silent copy
        if cols.dtype != F64 or not cols.flags.f_contiguous:
            raise DimensionMismatch("buffer columns must be Fortran-ordered float64")

        def _load():
            nbytes = 8 * self.n * count
            with open(self.path, "rb") as f:
                f.seek(self._hdr + 8 * self.n * first_index)
                got = f.readinto(cols.reshape(-1, order="F"))
            if got < nbytes:
                raise TruncatedFile("genotype file shorter than header promises")
            self.bytes_read += nbytes
            return cols

        return self._submit(cols, _load)


class BlockWriter(_Agent):
    """Asynchronous record writer over a GWAB result file.

    Records are offset-addressed by global marker index, so blocks may be
    written in any order; the file content depends only on the results.
    """

    def __init__(self, path, m, p, flags, create=True):
        self.path = path
        self.m, self.p, self.flags = m, p, flags
        self._rsz = record_size(p, flags)
        self._hdr = header_size("GWAB")
        if create:
            with open(path, "wb") as f:
                f.write(pack_header("GWAB", (m, p, flags)))
                f.seek(self._hdr + m * self._rsz - 1)
                f.write(b"\0")
        super().__init__()
        self.bytes_written = 0

    def encode(self, first, records):
        """The records of markers [first, first + count) as the file holds
        them, which is `records` itself: a count x record-width float64
        array of C-ordered rows. Anything else, or a range outside the
        file's m markers, raises DimensionMismatch; nothing is copied."""
        if (records.ndim != 2 or records.shape[1] != self._rsz // 8
                or records.dtype != F64 or not records.flags.c_contiguous):
            raise DimensionMismatch(
                f"records {records.shape} {records.dtype} are not C-ordered "
                f"rows of {self._rsz // 8} float64")
        end = first + records.shape[0]
        if first < 0 or end > self.m:
            raise DimensionMismatch(f"records [{first}, {end}) outside a "
                                    f"file of {self.m} markers")
        return records

    def start(self, first, records):
        """Begin writing the records of markers [first, first + count) at
        their offsets. `records` (see encode) is the memory tracked for
        overlap; it must not be touched until the ticket is waited."""
        rec = self.encode(first, records)

        def _store():
            with open(self.path, "r+b") as f:
                f.seek(self._hdr + first * self._rsz)
                f.write(rec)
            self.bytes_written += rec.nbytes

        return self._submit(rec, _store)
