"""Binary file formats, the one column file through which every file is
read and written, and the asynchronous block read/write agents.

Every file starts with a fixed header: 4 ASCII magic bytes, a u32
little-endian version (always 1), then kind-specific u64 little-endian
dimensions. Payloads are column-major 64-bit little-endian IEEE-754
reals with no padding.

Kinds, and the payload their header promises (payload_shape):
    GWAM  covariance        dims (n,)        n x n
    GWAX  genotypes         dims (n, m)      n x m, one marker per column
    GWAC  covariates        dims (n, q)      n x q (q = p - 1)
    GWAY  phenotype         dims (n,)        n x 1
    GWAB  results           dims (m, p, flags)  m records, one per column:
          p betas, then (iff flags bit 0) p(p+1)/2 packed lower-triangle
          reals of the inverse normal-equations matrix. Degenerate markers
          are all-NaN records. No other flag bit is defined.

The packed triangle ordering is np.tril_indices order: (0,0), (1,0),
(1,1), (2,0), ...

Every file is read and written through one ColumnFile, opened once,
with payload_shape as its one layout rule. It checks at open that the
file holds exactly the payload its header promises, so a short or long
file, or a header no file could back, raises TruncatedFile before any
buffer is allocated; a file it creates gets its header and that size.
It moves runs of whole columns between the file and a caller's
Fortran-ordered buffer: one readinto, or one positional write, each.
creating is the one rule by which a file comes into being: it is made
at its partial_path, renamed onto its path once whole and removed if
the making fails, and no other module renames or removes a file.
opening is the rule for a run's inputs, as creating is for its outputs:
each is opened once, its header checked against the others', and every
read of the run goes through those files, which count the bytes read.
read_covariance alone reads and checks a covariance, whole or a share.

A block travels as one array each way. BlockReader runs the reads of
the genotype file's ColumnFile on its own thread, straight into the
leading columns of a caller's n x count buffer, and its wait returns
them. BlockWriter runs the writes of the result file's ColumnFile,
which each rank opens once per run: a count x record-width C-ordered
array of records, the staging area the small solves write them into
(kernel.solve_whitened_block's out), is stored as its transpose's
payload columns, one positional write. encode copies nothing.
"""

from __future__ import annotations

import contextlib
import os
import struct
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import (
    AsymmetricCovariance,
    BadMagic,
    DimensionMismatch,
    NonFiniteInput,
    OverlappingBuffer,
    TruncatedFile,
    UnsupportedVersion,
)
from . import kernel

NDIMS = {"GWAM": 1, "GWAX": 2, "GWAC": 2, "GWAY": 1, "GWAB": 3}
VERSION = 1
F64 = np.dtype("<f8")
# the whole columns read_covariance reads at once, and the most columns
# of a run it compares with their mirror at once
RUN = 64
PIECE = 256


def header_size(kind):
    return 4 + 4 + 8 * NDIMS[kind]


def pack_header(kind, dims):
    if len(dims) != NDIMS[kind]:
        raise DimensionMismatch(f"{kind} header takes {NDIMS[kind]} dims")
    return kind.encode() + struct.pack("<I", VERSION) + struct.pack(
        f"<{len(dims)}Q", *dims)


def payload_shape(kind, dims):
    """(rows, columns) of the column-major payload a header's dims
    promise; a GWAB record, kernel.record_width reals, is one column. A
    GWAB flag bit other than bit 0 raises UnsupportedVersion."""
    if kind == "GWAB":
        m, p, flags = dims
        if flags & ~1:
            raise UnsupportedVersion(f"GWAB flags {flags:#x} set a bit "
                                     "other than bit 0")
        return kernel.record_width(p, flags), m
    return dims[0], 1 if kind == "GWAY" else dims[-1]


@dataclass
class ResultPayload:
    """In-memory image of a GWAB file."""

    betas: np.ndarray            # m x p; degenerate markers all-NaN
    sinv: np.ndarray | None      # m x p(p+1)/2 when flag set, else None

    @property
    def statuses(self):
        return np.where(np.all(np.isnan(self.betas), axis=1), "degenerate", "ok")


def write_matrix(path, kind, payload):
    """Write a whole file of the given kind: one create, one write."""
    if kind == "GWAB":
        m, p = payload.betas.shape
        flags = 1 if payload.sinv is not None else 0
        fields = [payload.betas, payload.sinv] if flags else [payload.betas]
        # a C-ordered row per record is a Fortran-ordered payload column
        dims, cols = (m, p, flags), np.ascontiguousarray(np.hstack(fields), dtype=F64).T
    else:
        arr = np.asarray(payload, dtype=F64)
        if kind == "GWAY":
            arr = arr.reshape(-1, 1)
        dims, cols = arr.shape[:NDIMS[kind]], np.asfortranarray(arr)
    if cols.shape != payload_shape(kind, dims):
        raise DimensionMismatch(f"{kind} payload cannot be {cols.shape}")
    with creating(path) as partial, ColumnFile(partial, kind, "w+", dims) as f:
        f.write(0, cols)


def partial_path(path):
    """Where a file is written until it is whole (creating)."""
    return path + ".partial"


@contextlib.contextmanager
def creating(path):
    """Yield partial_path(path), where the block makes the file; it is
    renamed onto path when the block ends (rename(2) is atomic, so path
    only ever holds a whole file), or removed if the block raises."""
    partial = partial_path(path)
    try:
        yield partial
        os.replace(partial, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(partial)
        raise


class ColumnFile:
    """One file of the given kind, opened once in a mode of open: "r"
    reads it, "r+" writes it too, "w+" creates it with the header of dims
    and that payload's size. `dims` are the header's dimensions and `shape`
    the payload they promise, which the file is checked at open to hold; a
    failed check names the file. `bytes_read` and `bytes_written` count
    the payload bytes moved. A context manager."""

    def __init__(self, path, kind, mode="r", dims=None):
        self.path, self.bytes_read, self.bytes_written = path, 0, 0
        self._hdr = header_size(kind)
        if mode == "w+":  # dims checked before the file is made
            header, shape = pack_header(kind, dims), payload_shape(kind, dims)
        # open, unlike os.open, refuses a directory by name; unbuffered: a
        # read goes to the file, never to a stale readahead
        self._f = open(path, mode + "b", buffering=0)
        self._fd = self._f.fileno()
        try:
            if mode == "w+":  # then checked as any file is
                os.pwrite(self._fd, header, 0)
                os.ftruncate(self._fd, self._hdr + 8 * shape[0] * shape[1])
            raw = self._f.read(self._hdr)
            if len(raw) < self._hdr:
                raise TruncatedFile(f"{path}: file shorter than its header")
            if raw[:4] != kind.encode():
                raise BadMagic(f"{path}: expected {kind}, found {raw[:4]!r}")
            (version,) = struct.unpack_from("<I", raw, 4)
            if version != VERSION:
                raise UnsupportedVersion(f"{path}: version {version}")
            self.dims = struct.unpack_from(f"<{NDIMS[kind]}Q", raw, 8)
            try:
                self.shape = payload_shape(kind, self.dims)
            except UnsupportedVersion as e:
                raise UnsupportedVersion(f"{path}: {e}") from e
            # Python integers: no n * m overflows
            need = 8 * self.shape[0] * self.shape[1]
            have = os.fstat(self._fd).st_size - self._hdr
            if have != need:
                raise TruncatedFile(f"{path}: payload holds {have} bytes, its "
                                    f"header {kind} {self.dims} promises {need}")
        except BaseException:
            self._f.close()
            raise

    def columns(self, first, count, buffer):
        """The leading count columns of buffer, checked to take payload
        columns [first, first + count): anything out of range, or not
        Fortran-ordered float64 of the payload's rows, raises
        DimensionMismatch."""
        rows, cols = self.shape
        if first < 0 or count < 0 or first + count > cols:
            raise DimensionMismatch(f"columns [{first}, {first + count}) "
                                    f"outside the {cols} of {self.path}")
        if buffer.ndim != 2 or buffer.shape[0] != rows or buffer.shape[1] < count:
            raise DimensionMismatch(f"buffer {buffer.shape} cannot take "
                                    f"{rows} x {count} columns")
        out = buffer[:, :count]
        # reshaping anything else would move a silent copy
        if out.dtype != F64 or not out.flags.f_contiguous:
            raise DimensionMismatch("buffer columns must be Fortran-ordered float64")
        return out

    def read(self, first, count, buffer):
        """Read payload columns [first, first + count) into the leading
        columns of buffer (see columns) and return them: one readinto,
        repeated only where the system returns part of a large read."""
        out = self.columns(first, count, buffer)
        self._f.seek(self._hdr + 8 * self.shape[0] * first)
        view, got = memoryview(out.reshape(-1, order="F")).cast("B"), 0
        while got < out.nbytes and (k := self._f.readinto(view[got:])):
            got += k
        if got < out.nbytes:
            raise TruncatedFile(f"{self.path} ended {out.nbytes - got} bytes "
                                f"short of columns [{first}, {first + count})")
        self.bytes_read += out.nbytes
        return out

    def write(self, first, columns):
        """Store `columns`, Fortran-ordered float64 of the payload's rows,
        as payload columns [first, first + count) (checked as in columns):
        one pwrite, repeated only where the system takes part of it; a
        write that takes nothing raises OSError."""
        cols = self.columns(first, columns.shape[-1], columns)
        at = self._hdr + 8 * self.shape[0] * first
        view, done = memoryview(cols.reshape(-1, order="F")).cast("B"), 0
        while done < cols.nbytes:
            if not (k := os.pwrite(self._fd, view[done:], at + done)):
                raise OSError(f"{self.path}: a write of columns [{first}, "
                              f"{first + cols.shape[1]}) stored nothing")
            done += k
        self.bytes_written += cols.nbytes

    def close(self):
        self._f.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


@contextlib.contextmanager
def opening(paths):
    """Yield the ColumnFiles (cov, covariates, pheno, geno) of a run's
    inputs, each opened once, which close when the block ends: paths.geno
    holds n x m genotypes (n, m >= 1), and paths.cov, .pheno and
    .covariates (q >= 1 columns) agree on n. A paths.out no result could
    be renamed onto raises first: IsADirectoryError, or FileNotFoundError
    for a missing folder."""
    out = paths.out
    if os.path.isdir(out):
        raise IsADirectoryError(f"Is a directory: {out}")
    if not os.path.isdir(os.path.dirname(out) or "."):
        raise FileNotFoundError(f"No such directory for {out}")
    with contextlib.ExitStack() as stack:
        geno = stack.enter_context(ColumnFile(paths.geno, "GWAX"))
        n, m = geno.dims
        if n < 1 or m < 1:
            raise DimensionMismatch(f"genotype file {paths.geno} holds {n} samples x "
                                    f"{m} markers; at least one of each is needed")
        files = []
        for path, kind in ((paths.cov, "GWAM"), (paths.pheno, "GWAY"),
                           (paths.covariates, "GWAC")):
            files.append(stack.enter_context(ColumnFile(path, kind)))
            if files[-1].dims[0] != n:
                raise DimensionMismatch(f"{path} has n={files[-1].dims[0]}, "
                                        f"genotype file {paths.geno} has n={n}")
        cov, pheno, covariates = files
        if covariates.dims[1] < 1:
            raise DimensionMismatch(f"covariates file {paths.covariates} has no columns;"
                                    " at least one covariate column is needed")
        yield cov, covariates, pheno, geno


def read_matrix(path, kind):
    """Read a whole file; inverse of write_matrix (bitwise round trip).

    The payload is read straight into the returned array, so the peak
    memory is the payload once; a covariance is read by read_covariance."""
    with ColumnFile(path, kind) as f:
        if kind == "GWAM":
            return read_covariance(f)
        arr = f.read(0, f.shape[1], np.empty(f.shape, dtype=F64, order="F"))
    if kind == "GWAB":
        rec, p = arr.T, f.dims[1]
        return ResultPayload(betas=rec[:, :p], sinv=rec[:, p:] if f.dims[2] else None)
    return arr[:, 0] if kind == "GWAY" else arr


def read_covariance(f, r=1, c=1, prow=0, pcol=0):
    """Rows prow::r of columns pcol::c of the GWAM covariance in the open
    ColumnFile f, Fortran-ordered, the share of process (prow, pcol) of an
    r x c element-cyclic grid: on a 1 x 1 grid the whole matrix, read in
    place. Raises NonFiniteInput, naming the file, for an entry of the
    share that is not finite, and AsymmetricCovariance for one that is
    not its mirror.

    It reads every column, in runs of RUN (a share through one n x RUN
    buffer), and compares each column i = prow (mod r) as it arrives with
    share row i up to the run's end, every j < i included, PIECE columns
    at a time: each pair (i, j), i > j, by the owner of (i, j).
    """
    n = f.shape[0]
    share = np.empty((len(range(prow, n, r)), len(range(pcol, n, c))), order="F")
    buf = share if r == c == 1 else np.empty((n, min(RUN, n)), order="F")
    for c0 in range(0, n, RUN):
        c1 = min(c0 + RUN, n)
        cols = f.read(c0, c1 - c0, share[:, c0:] if buf is share else buf)
        lc, wc = _span(c0, c1, pcol, c)
        if buf is not share:
            share[:, lc] = cols[prow::r, wc]
        lm, wm = _span(c0, c1, prow, r)
        if not np.isfinite(share[:, lc]).all():
            raise NonFiniteInput(f"{f.path}: covariance has non-finite entries")
        strip, mirror = share[lm, :lc.stop], cols[pcol::c, wm][:lc.stop].T
        if not all(np.array_equal(strip[:, a:a + PIECE], mirror[:, a:a + PIECE])
                   for a in range(0, lc.stop, PIECE)):
            raise AsymmetricCovariance(f"{f.path}: covariance is not exactly symmetric")
    return share


def _span(lo, hi, p, step):
    """Local and window slices of the indices i = p (mod step), lo <= i < hi."""
    a, b = -((p - lo) // step), -((p - hi) // step)
    return slice(a, b), slice(p + a * step - lo, hi - lo, step)


def read_covariates_and_phenotype(fc, fy):
    """[XL | y]: the open GWAC file fc (n x q) and GWAY file fy (n), which
    opening has checked to agree on n, read straight into the columns of
    one n x (q + 1) Fortran-ordered array. Raises NonFiniteInput, naming
    the file, for an entry that is not finite."""
    n, q = fc.dims
    XLy = np.empty((n, q + 1), dtype=F64, order="F")
    fc.read(0, q, XLy)
    fy.read(0, 1, XLy[:, q:])
    for f, part, what in ((fc, XLy[:, :q], "covariates have"),
                          (fy, XLy[:, q:], "phenotype has")):
        if not np.isfinite(part).all():
            raise NonFiniteInput(f"{f.path}: {what} non-finite entries")
    return XLy


def non_finite_genotypes(f, marker):
    """NonFiniteInput naming the GWAX file f and its first marker that
    holds a NaN or infinite entry, at index `marker`."""
    return NonFiniteInput(f"{f.path}: genotypes have non-finite entries "
                          f"(first at marker {marker})", marker)


class _Agent:
    """One dedicated worker thread for the transfers of a BlockReader or a
    BlockWriter to or from its ColumnFile, `file`, which close closes; a
    context manager. A ticket is the transfer's future; the memory under
    an in-flight ticket is tracked, so a transfer that overlaps it fails
    fast. wait returns what the transfer returned. A transfer of 0 columns
    moves 0 bytes."""

    def __init__(self, file):
        self.file = file
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
        self.file.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class BlockReader(_Agent):
    """Asynchronous column-block reader over an open GWAX ColumnFile."""

    def start(self, first_index, count, buffer):
        """Begin loading columns [first_index, first_index+count) into the
        leading columns of `buffer` (n x >=count, Fortran order), reading
        the file straight into them; wait returns those columns. A range
        or buffer that does not fit raises here, not at wait."""
        cols = self.file.columns(first_index, count, buffer)
        return self._submit(cols, lambda: self.file.read(first_index, count, cols))


class BlockWriter(_Agent):
    """Asynchronous record writer over a GWAB result file. Given the
    header's dims (m, p, flags) it creates the file; without, it opens the
    file that exists, checked as a read is.

    Records are offset-addressed by global marker index, so blocks may be
    written in any order; the file content depends only on the results.
    """

    def __init__(self, path, dims=None):
        super().__init__(ColumnFile(path, "GWAB", "r+" if dims is None else "w+", dims))

    def encode(self, first, records):
        """The records of markers [first, first + count) as the file holds
        them, which is `records` itself: a count x record-width float64
        array of C-ordered rows, whose transpose is the payload columns.
        Anything else, or a range outside the file's m markers, raises
        DimensionMismatch; nothing is copied."""
        self.file.columns(first, len(records), records.T)
        return records

    def start(self, first, records):
        """Begin writing the records of markers [first, first + count) at
        their offsets. `records` (see encode) is the memory tracked for
        overlap; it must not be touched until the ticket is waited."""
        rec = self.encode(first, records)
        return self._submit(rec, lambda: self.file.write(first, rec.T))
