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

BlockWriter stores a block's records from a staging buffer. The engines'
solves write the records there themselves (kernel.solve_whitened_block's
out), so encoding such a block copies nothing; the arrays of any other
ResultBlock are copied in.
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
from .kernel import ResultBlock, SnpBlock

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
    with open(path, "wb") as f:
        f.write(pack_header("GWAB", (m, p, flags)))
        if flags:
            rec = np.hstack([payload.betas, payload.sinv]).astype(F64)
        else:
            rec = payload.betas.astype(F64)
        f.write(np.ascontiguousarray(rec).tobytes())


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


@dataclass
class IoTicket:
    future: object
    buffer_key: int


class _Agent:
    """One dedicated worker per transfer direction; buffers under an
    in-flight ticket are tracked so overlapping use fails fast."""

    def __init__(self):
        self._pool = ThreadPoolExecutor(max_workers=1)
        self._inflight = set()
        self._lock = threading.Lock()

    def submit(self, buffer_key, fn):
        with self._lock:
            if buffer_key in self._inflight:
                raise OverlappingBuffer("buffer already referenced by an in-flight ticket")
            self._inflight.add(buffer_key)
        return IoTicket(self._pool.submit(fn), buffer_key)

    def wait(self, ticket):
        try:
            return ticket.future.result()
        finally:
            with self._lock:
                self._inflight.discard(ticket.buffer_key)

    def close(self):
        self._pool.shutdown(wait=True)


class BlockReader:
    """Asynchronous column-block reader over a GWAX genotype file."""

    def __init__(self, path):
        self.path = path
        self.n, self.m = read_dims(path, "GWAX")
        self._hdr = header_size("GWAX")
        self._agent = _Agent()
        self.bytes_read = 0

    def start(self, first_index, count, buffer):
        """Begin loading columns [first_index, first_index+count) into the
        leading columns of `buffer` (n x >=count, Fortran order), reading
        the file straight into them."""
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
            return SnpBlock(first_index=first_index, data=cols)

        return self._agent.submit(id(buffer), _load)

    def wait(self, ticket):
        return self._agent.wait(ticket)

    def close(self):
        self._agent.close()


def _is_view(a, b):
    """Whether array a is the view b: the same memory, shape and strides."""
    return (a.shape == b.shape and a.strides == b.strides
            and a.__array_interface__["data"][0]
            == b.__array_interface__["data"][0])


class BlockWriter:
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
        self._agent = _Agent()
        self.bytes_written = 0

    def encode(self, block: ResultBlock, buffer):
        """The block's records, in the leading rows of `buffer` (count x
        >= record reals). A block solved into them, whose betas and sinv
        are their column views, is returned as it is; the arrays of any
        other are copied in."""
        rec = buffer[:block.betas.shape[0], :self._rsz // 8]
        fields = [(rec[:, :self.p], block.betas)]
        if self.flags & 1:
            fields.append((rec[:, self.p:], block.sinv))
        for dst, src in fields:
            if not _is_view(src, dst):
                dst[...] = src
        return rec

    def start(self, block: ResultBlock, buffer):
        """Begin writing the block's records at their global offsets.

        `buffer` holds the encoded records (encode) and is the region
        tracked for overlap; it must not be touched until the ticket is
        waited."""
        rec = np.ascontiguousarray(self.encode(block, buffer))
        first = block.first_index

        def _store():
            with open(self.path, "r+b") as f:
                f.seek(self._hdr + first * self._rsz)
                f.write(rec)
            self.bytes_written += rec.nbytes

        return self._agent.submit(id(buffer), _store)

    def wait(self, ticket):
        return self._agent.wait(ticket)

    def close(self):
        self._agent.close()
