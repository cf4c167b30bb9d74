import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwasgls import fileio, kernel
from gwasgls.errors import (
    AsymmetricCovariance,
    BadMagic,
    DimensionMismatch,
    OverlappingBuffer,
    TruncatedFile,
    UnsupportedVersion,
)

from conftest import make_spd


def test_header_bytes_genotypes(tmp_path):
    path = str(tmp_path / "x.gwax")
    fileio.write_matrix(path, "GWAX", np.zeros((10, 5)))
    raw = open(path, "rb").read(24)
    assert raw[:4] == b"GWAX"
    assert raw[4:8] == bytes([1, 0, 0, 0])
    assert raw[8:16] == (10).to_bytes(8, "little")
    assert raw[16:24] == (5).to_bytes(8, "little")
    assert fileio.header_size("GWAX") == 24


@pytest.mark.parametrize("kind,shape", [
    ("GWAM", (3, 3)), ("GWAX", (4, 6)), ("GWAC", (5, 2)), ("GWAY", (7,)),
])
def test_round_trip_bitwise(tmp_path, kind, shape):
    rng = np.random.default_rng(0)
    arr = rng.standard_normal(shape)
    if kind == "GWAM":
        arr = arr @ arr.T + 3 * np.eye(shape[0])
        arr = np.tril(arr) + np.tril(arr, -1).T
    path = str(tmp_path / "f.bin")
    fileio.write_matrix(path, kind, arr)
    back = fileio.read_matrix(path, kind)
    assert np.array_equal(back, arr)
    assert back.dtype == np.float64


def test_identity_covariance_round_trip(tmp_path):
    path = str(tmp_path / "m.gwam")
    fileio.write_matrix(path, "GWAM", np.eye(3))
    assert np.array_equal(fileio.read_matrix(path, "GWAM"), np.eye(3))


def test_bad_magic(tmp_path):
    path = str(tmp_path / "y.gway")
    fileio.write_matrix(path, "GWAY", np.arange(4.0))
    with pytest.raises(BadMagic):
        fileio.read_matrix(path, "GWAM")


def test_truncated_file(tmp_path):
    path = str(tmp_path / "x.gwax")
    fileio.write_matrix(path, "GWAX", np.ones((8, 4)))
    raw = open(path, "rb").read()
    open(path, "wb").write(raw[:-16])
    with pytest.raises(TruncatedFile):
        fileio.read_matrix(path, "GWAX")


@pytest.mark.parametrize("kind,dims", [
    ("GWAM", (3_000_000,)), ("GWAX", (20, 10 ** 13)), ("GWAC", (5, 3)),
    ("GWAY", (9,)), ("GWAB", (4, 3, 1))])
def test_header_checked_against_file_size(tmp_path, kind, dims):
    # a header that promises more payload than the file holds is refused
    # at open, naming the file, before any buffer is allocated
    path = str(tmp_path / "short.bin")
    with open(path, "wb") as f:
        f.write(fileio.pack_header(kind, dims) + bytes(16))
    with pytest.raises(TruncatedFile, match="short.bin: payload holds 16 bytes"):
        fileio.ColumnFile(path, kind)
    with pytest.raises(TruncatedFile, match="short.bin"):
        fileio.read_matrix(path, kind)


@pytest.mark.parametrize("kind,dims,payload", [
    ("GWAX", (8, 5), 8 * 8 * 10), ("GWAB", (4, 3, 0), 8 * 4 * 9)],
    ids=["GWAX-10-markers-as-5", "GWAB-sinv-records-as-betas-only"])
def test_payload_longer_than_header_promises_rejected(tmp_path, kind, dims,
                                                      payload):
    # a file holding more than its header promises is refused too, not read
    # as its prefix: 10 markers under a header of 5, or S^-1 records of
    # p = 3 (9 reals each) under a flags field of 0
    path = str(tmp_path / "long.bin")
    with open(path, "wb") as f:
        f.write(fileio.pack_header(kind, dims) + bytes(payload))
    with pytest.raises(TruncatedFile, match="long.bin: payload holds"):
        fileio.read_matrix(path, kind)


@pytest.mark.parametrize("flags", [2, 3, 1 << 63], ids=["bit1", "bits0-1", "bit63"])
def test_unknown_result_flag_bits_rejected(tmp_path, flags):
    # only flag bit 0 is defined; a file with another set is not read
    # as betas-only or as carrying S^-1
    path = str(tmp_path / "b.gwab")
    betas, sinv = np.ones((3, 2)), np.ones((3, 3))
    fileio.write_matrix(path, "GWAB", fileio.ResultPayload(betas, sinv))
    with open(path, "r+b") as f:
        f.seek(24)
        f.write(flags.to_bytes(8, "little"))
    with pytest.raises(UnsupportedVersion, match="b.gwab: GWAB flags"):
        fileio.read_matrix(path, "GWAB")
    with pytest.raises(UnsupportedVersion):
        fileio.BlockWriter(str(tmp_path / "w.gwab"), (3, 2, flags))
    assert not (tmp_path / "w.gwab").exists()  # refused before it is made


@pytest.mark.parametrize("open_", [
    lambda path: fileio.ColumnFile(path, "GWAB"),
    lambda path: fileio.ColumnFile(path, "GWAB", "r+"),
    fileio.BlockWriter], ids=["read", "write", "block-writer"])
@pytest.mark.parametrize("fault,at,data,error", [
    ("magic", 0, b"GWAX", BadMagic),
    ("version", 4, (2).to_bytes(4, "little"), UnsupportedVersion),
    ("short", None, 8, TruncatedFile),
    ("long", None, 8 * 5 * 3 + 8, TruncatedFile)])
def test_existing_file_checked_for_writing_as_for_reading(tmp_path, open_, fault,
                                                          at, data, error):
    # a result file opened to write, as every rank but the first opens
    # it, is refused on the same checks as a read, and left as it is
    path = str(tmp_path / "b.gwab")
    fileio.write_matrix(path, "GWAB", fileio.ResultPayload(np.ones((5, 3)), None))
    with open(path, "r+b") as f:
        if at is None:  # a payload of `data` bytes, not 5 x 3 reals
            f.truncate(fileio.header_size("GWAB") + data)
        else:
            f.seek(at)
            f.write(data)
    before = open(path, "rb").read()
    with pytest.raises(error, match="b.gwab"):
        open_(path)
    assert open(path, "rb").read() == before


class TestColumnFileWrite:
    """ColumnFile.write stores whole payload columns at their offsets,
    checked as a read is, in one positional write."""

    @staticmethod
    def _create(tmp_path, n=4, m=9):
        return fileio.ColumnFile(str(tmp_path / "x.gwax"), "GWAX", "w+", (n, m))

    def test_columns_in_any_order_equal_one_write(self, tmp_path):
        X = np.asfortranarray(np.random.default_rng(5).standard_normal((4, 9)))
        with self._create(tmp_path) as f:
            assert os.path.getsize(f.path) == fileio.header_size("GWAX") + X.nbytes
            for first, count in ((6, 3), (0, 2), (2, 4)):
                f.write(first, X[:, first:first + count])
            assert f.bytes_written == X.nbytes
        whole = str(tmp_path / "whole.gwax")
        fileio.write_matrix(whole, "GWAX", X)
        assert open(f.path, "rb").read() == open(whole, "rb").read()

    def test_write_outside_the_payload_or_from_a_bad_buffer_raises(self, tmp_path):
        with self._create(tmp_path) as f:
            ok = np.ones((4, 3), order="F")
            for first, bad in [
                    (7, ok),                              # [7, 10) past m = 9
                    (-1, ok),
                    (0, np.ones((5, 3), order="F")),      # 5 rows, not 4
                    (0, np.ones((4, 3))),                 # row-ordered
                    (0, np.ones((4, 6), order="F")[:, ::2]),
                    (0, np.ones((4, 3), dtype=np.float32, order="F")),
                    (0, np.ones(4))]:
                with pytest.raises(DimensionMismatch):
                    f.write(first, bad)
            assert f.bytes_written == 0

    def test_short_writes_repeated_and_a_write_of_nothing_raises(
            self, tmp_path, monkeypatch):
        X = np.asfortranarray(np.random.default_rng(6).standard_normal((4, 9)))
        pwrite, calls = os.pwrite, []

        def seven_bytes(fd, data, offset):
            calls.append(offset)
            return pwrite(fd, bytes(data)[:7], offset)

        with self._create(tmp_path) as f:
            monkeypatch.setattr(os, "pwrite", seven_bytes)
            f.write(0, X)
            assert len(calls) == -(-X.nbytes // 7)
            monkeypatch.setattr(os, "pwrite", lambda fd, data, offset: 0)
            with pytest.raises(OSError, match="x.gwax: a write of columns"):
                f.write(0, X)
        monkeypatch.undo()
        assert np.array_equal(fileio.read_matrix(f.path, "GWAX"), X)


def test_covariates_and_phenotype_read_into_one_array(tmp_path):
    rng = np.random.default_rng(3)
    XL, y = rng.standard_normal((7, 3)), rng.standard_normal(7)
    xc, yc = str(tmp_path / "x.gwac"), str(tmp_path / "y.gway")
    fileio.write_matrix(xc, "GWAC", XL)
    fileio.write_matrix(yc, "GWAY", y)
    with fileio.ColumnFile(xc, "GWAC") as fc, fileio.ColumnFile(yc, "GWAY") as fy:
        XLy = fileio.read_covariates_and_phenotype(fc, fy)
        assert (fc.bytes_read, fy.bytes_read) == (8 * 7 * 3, 8 * 7)
    assert XLy.flags.f_contiguous
    assert np.array_equal(XLy, np.column_stack([XL, y]))
    # a phenotype of another n is refused by fileio.opening, before this
    # read (test_cli's test_input_n_checked_before_setup)
    fileio.write_matrix(yc, "GWAY", y[:6])
    with open(yc, "r+b") as f:  # header promises 7 entries, payload has 6
        f.seek(8)
        f.write((7).to_bytes(8, "little"))
    with pytest.raises(TruncatedFile):
        fileio.ColumnFile(yc, "GWAY")


def test_read_matrix_peak_is_one_payload(tmp_path):
    # the payload is read straight into the returned array: no bytes
    # object or second copy next to it
    path = str(tmp_path / "x.gwax")
    payload = np.random.default_rng(2).standard_normal((500, 400))
    fileio.write_matrix(path, "GWAX", payload)
    tracemalloc.start()
    try:
        back = fileio.read_matrix(path, "GWAX")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(back, payload)
    assert peak <= 1.25 * payload.nbytes


def test_asymmetric_covariance_rejected(tmp_path):
    path = str(tmp_path / "m.gwam")
    A = np.eye(3)
    A[0, 1] = 1e-17
    fileio.write_matrix(path, "GWAM", A)
    from gwasgls.errors import AsymmetricCovariance
    with pytest.raises(AsymmetricCovariance):
        fileio.read_matrix(path, "GWAM")


@pytest.mark.parametrize("entry", [(299, 3), (280, 270)],
                         ids=["last-partial-tile", "diagonal-tile"])
def test_single_asymmetric_entry_rejected(tmp_path, entry):
    # n=300 leaves a partial last row of 256-wide tiles; (280, 270) lies
    # inside the partial diagonal tile
    path = str(tmp_path / "m.gwam")
    A = make_spd(300, 1)
    A[entry] += 2.0 ** -40
    fileio.write_matrix(path, "GWAM", A)
    with pytest.raises(AsymmetricCovariance, match="not exactly symmetric"):
        fileio.read_matrix(path, "GWAM")


def test_asymmetric_entry_in_a_middle_piece_rejected(tmp_path):
    # the last run compares its rows with every column in pieces of PIECE
    # columns, three here; the one changed entry lies in the middle one
    n = 2 * fileio.PIECE + 88
    path = str(tmp_path / "m.gwam")
    A = make_spd(n, 1)
    A[n - 1, fileio.PIECE + 3] += 2.0 ** -40
    fileio.write_matrix(path, "GWAM", A)
    with pytest.raises(AsymmetricCovariance, match="not exactly symmetric"):
        fileio.read_matrix(path, "GWAM")


def test_read_covariance_builds_no_square_temporary(tmp_path):
    path = str(tmp_path / "m.gwam")
    payload = make_spd(1000, 2)
    fileio.write_matrix(path, "GWAM", payload)
    tracemalloc.start()
    try:
        back = fileio.read_matrix(path, "GWAM")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(back, payload)
    # an n x n boolean mask alone would add 1/8 of the payload
    assert peak <= 1.05 * payload.nbytes


def test_results_round_trip_with_sinv(tmp_path):
    rng = np.random.default_rng(1)
    m, p = 9, 4
    betas = rng.standard_normal((m, p))
    betas[3] = np.nan  # degenerate record
    sinv = rng.standard_normal((m, p * (p + 1) // 2))
    path = str(tmp_path / "b.gwab")
    fileio.write_matrix(path, "GWAB", fileio.ResultPayload(betas=betas, sinv=sinv))
    back = fileio.read_matrix(path, "GWAB")
    assert np.array_equal(back.betas, betas, equal_nan=True)
    assert np.array_equal(back.sinv, sinv)
    assert list(back.statuses) == ["ok"] * 3 + ["degenerate"] + ["ok"] * 5


def test_record_size():
    # a GWAB record, kernel.record_width reals, is one payload column
    assert fileio.payload_shape("GWAB", (7, 4, 0)) == (4, 7)
    assert fileio.payload_shape("GWAB", (7, 4, 1)) == (4 + 10, 7)


class TestBlockReader:
    def _write(self, tmp_path, n=6, m=9, seed=0):
        rng = np.random.default_rng(seed)
        X = np.asfortranarray(rng.standard_normal((n, m)))
        path = str(tmp_path / "x.gwax")
        fileio.write_matrix(path, "GWAX", X)
        return path, X

    def test_single_block_equals_full_read(self, tmp_path):
        path, X = self._write(tmp_path)
        r = fileio.BlockReader(fileio.ColumnFile(path, "GWAX"))
        buf = np.empty((6, 9), order="F")
        cols = r.wait(r.start(0, 9, buf))
        assert np.shares_memory(cols, buf)
        assert np.array_equal(cols, X)
        r.close()

    def test_partition_reconstructs_payload(self, tmp_path):
        path, X = self._write(tmp_path, m=6)
        r = fileio.BlockReader(fileio.ColumnFile(path, "GWAX"))
        buf1 = np.empty((6, 4), order="F")
        buf2 = np.empty((6, 4), order="F")
        b1 = r.wait(r.start(0, 4, buf1))
        b2 = r.wait(r.start(4, 2, buf2))
        assert np.array_equal(np.hstack([b1, b2]), X)
        r.close()

    @settings(max_examples=20, deadline=None)
    @given(cuts=st.lists(st.integers(1, 11), min_size=1, max_size=6))
    def test_any_partition_bitwise(self, tmp_path_factory, cuts):
        tmp_path = tmp_path_factory.mktemp("part")
        m = sum(cuts)
        rng = np.random.default_rng(m)
        X = np.asfortranarray(rng.standard_normal((5, m)))
        path = str(tmp_path / "x.gwax")
        fileio.write_matrix(path, "GWAX", X)
        r = fileio.BlockReader(fileio.ColumnFile(path, "GWAX"))
        pieces = []
        first = 0
        for cnt in cuts:
            buf = np.empty((5, cnt), order="F")
            pieces.append(r.wait(r.start(first, cnt, buf)).copy())
            first += cnt
        assert np.array_equal(np.hstack(pieces), X)
        r.close()

    def test_overlapping_buffer_rejected(self, tmp_path):
        path, _ = self._write(tmp_path)
        r = fileio.BlockReader(fileio.ColumnFile(path, "GWAX"))
        buf = np.empty((6, 4), order="F")
        t1 = r.start(0, 4, buf)
        with pytest.raises(OverlappingBuffer):
            r.start(4, 4, buf)
        r.wait(t1)
        r.start(4, 4, buf)  # fine once the ticket is retired
        r.close()

    def test_truncated_file_raises_on_wait(self, tmp_path):
        # the file shrinks after the reader checked it at open
        path, _ = self._write(tmp_path)
        r = fileio.BlockReader(fileio.ColumnFile(path, "GWAX"))
        os.truncate(path, os.path.getsize(path) - 16)
        ticket = r.start(0, 9, np.empty((6, 9), order="F"))
        with pytest.raises(TruncatedFile):
            r.wait(ticket)
        r.close()

    def test_non_fortran_buffer_rejected(self, tmp_path):
        path, _ = self._write(tmp_path)
        r = fileio.BlockReader(fileio.ColumnFile(path, "GWAX"))
        with pytest.raises(DimensionMismatch):
            r.start(0, 4, np.empty((6, 4)))
        with pytest.raises(DimensionMismatch):
            r.start(0, 4, np.empty((6, 8), order="F")[:, ::2])
        r.close()


class TestBlockWriter:
    """The writer stores a block's records, one count x record-width
    array, as they are; encode is the check that they fit the file."""

    @staticmethod
    def _records(first, count, p=3, flags=0):
        rng = np.random.default_rng(first)
        return rng.standard_normal((count, kernel.record_width(p, flags)))

    def test_out_of_order_blocks_identical_file(self, tmp_path):
        for flags in (0, 1):  # betas only, then with packed S^-1
            a = str(tmp_path / f"a{flags}.gwab")
            b = str(tmp_path / f"b{flags}.gwab")
            blocks = [(0, self._records(0, 4, flags=flags)),
                      (4, self._records(4, 3, flags=flags))]
            for path, order in ((a, (0, 1)), (b, (1, 0))):
                w = fileio.BlockWriter(path, (7, 3, flags))
                for i in order:
                    w.wait(w.start(*blocks[i]))
                w.close()
            assert open(a, "rb").read() == open(b, "rb").read()
            back = fileio.read_matrix(a, "GWAB")
            records = np.vstack([rec for _, rec in blocks])
            assert np.array_equal(back.betas, records[:, :3])
            if flags:
                assert np.array_equal(back.sinv, records[:, 3:])

    def test_records_land_at_offsets(self, tmp_path):
        path = str(tmp_path / "r.gwab")
        w = fileio.BlockWriter(path, (5, 3, 0))
        rec = self._records(2, 2)
        w.wait(w.start(2, rec))
        w.close()
        payload = fileio.read_matrix(path, "GWAB")
        assert np.array_equal(payload.betas[2:4], rec)
        assert np.all(payload.betas[[0, 1, 4]] == 0.0)

    def test_in_flight_staging_area_rejected(self, tmp_path):
        w = fileio.BlockWriter(str(tmp_path / "r.gwab"), (8, 3, 0))
        staging = np.empty((4, 3))
        staging[:] = self._records(0, 4)
        t1 = w.start(0, staging)
        with pytest.raises(OverlappingBuffer):
            w.start(4, staging)
        with pytest.raises(OverlappingBuffer):
            w.start(4, staging[2:])  # a part of the same staging area
        w.wait(t1)
        w.wait(w.start(4, staging))  # fine once the ticket is retired
        w.close()

    def test_encode_rejects_records_that_do_not_fit(self, tmp_path):
        w = fileio.BlockWriter(str(tmp_path / "r.gwab"), (5, 3, 1))
        rec = self._records(0, 2, flags=1)  # 2 x 9
        assert w.encode(3, rec) is rec
        for first, bad in [
                (0, rec[:, :3]),                    # the betas only
                (0, np.hstack([rec, rec[:, :1]])),  # one real too many
                (0, np.asfortranarray(rec)),        # column-ordered
                (0, np.hstack([rec, rec])[:, :9]),  # rows not contiguous
                (4, rec),                           # [4, 6) past m = 5
                (-1, rec)]:
            with pytest.raises(DimensionMismatch):
                w.encode(first, bad)
            with pytest.raises(DimensionMismatch):
                w.start(first, bad)
        w.close()
