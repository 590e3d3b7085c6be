"""Tests for the CSV and DMAT matrix file formats."""

import struct
import tracemalloc

import numpy as np
import pytest

from l1pcp import matcore, matio
from l1pcp.l1filter import LowRank, Remainder


@pytest.fixture
def sample():
    rng = np.random.default_rng(0)
    return rng.standard_normal((7, 4)) * 123.456


def test_csv_roundtrip(tmp_path, sample):
    path = tmp_path / "m.csv"
    matio.write_matrix(path, sample)
    np.testing.assert_array_equal(matio.read_csv(path), sample)


def test_dmat_roundtrip(tmp_path, sample):
    path = tmp_path / "m.dmat"
    matio.write_matrix(path, sample)
    np.testing.assert_array_equal(matio.read_dmat(path), sample)


def test_dmat_roundtrip_fortran_order(tmp_path, sample):
    path = tmp_path / "f.dmat"
    matio.write_matrix(path, np.asfortranarray(sample))
    np.testing.assert_array_equal(matio.read_dmat(path), sample)
    values = np.frombuffer(path.read_bytes()[16:], dtype="<f8")
    np.testing.assert_array_equal(values, sample.ravel(order="C"))  # row-major


def test_dmat_header_layout(tmp_path):
    path = tmp_path / "m.dmat"
    matio.write_matrix(path, np.arange(6.0).reshape(2, 3))
    raw = path.read_bytes()
    assert raw[:4] == b"DMAT"
    rows, cols = struct.unpack("<II", raw[4:12])
    assert (rows, cols) == (2, 3)
    assert len(raw) == 16 + 6 * 8
    values = np.frombuffer(raw[16:], dtype="<f8")
    np.testing.assert_array_equal(values, np.arange(6.0))  # row-major


def test_dmat_bad_magic(tmp_path):
    path = tmp_path / "bad.dmat"
    path.write_bytes(b"NOPE" + b"\x00" * 12)
    with pytest.raises(ValueError, match="magic"):
        matio.read_dmat(path)


def test_dmat_truncated(tmp_path):
    path = tmp_path / "short.dmat"
    path.write_bytes(b"DMAT\x02")
    with pytest.raises(ValueError, match="truncated"):
        matio.read_dmat(path)

    path2 = tmp_path / "short2.dmat"
    matio.write_matrix(path2, np.ones((3, 3)))
    path2.write_bytes(path2.read_bytes()[:-8])
    with pytest.raises(ValueError, match="expected"):
        matio.read_dmat(path2)


def test_dmat_that_shrinks_while_read_is_rejected(tmp_path, monkeypatch):
    # the size is checked before the read; a file cut short in between
    # reads fewer bytes than its header promised
    path = tmp_path / "m.dmat"
    matio.write_matrix(path, np.ones((2, 2)))
    real_fstat = matio.os.fstat
    path.write_bytes(path.read_bytes()[:-16])

    class Stat:
        def __init__(self, fd):
            self.st_size = real_fstat(fd).st_size + 16

    monkeypatch.setattr(matio.os, "fstat", Stat)
    with pytest.raises(ValueError, match="file changed while read"):
        matio.read_dmat(path)


def test_dispatch_by_extension_and_magic(tmp_path, sample):
    csv_path = tmp_path / "a.csv"
    bin_path = tmp_path / "a.bin"
    matio.write_matrix(csv_path, sample)
    matio.write_matrix(bin_path, sample)
    assert csv_path.read_bytes()[:4] != matio.MAGIC
    assert bin_path.read_bytes()[:4] == matio.MAGIC
    np.testing.assert_array_equal(matio.read_matrix(csv_path), sample)
    np.testing.assert_array_equal(matio.read_matrix(bin_path), sample)


def test_read_matrix_falls_back_to_csv(tmp_path):
    # neither a .csv extension nor the DMAT magic
    path = tmp_path / "m.txt"
    path.write_text("1,2\n3,4.5\n")
    np.testing.assert_array_equal(matio.read_matrix(path), [[1.0, 2.0], [3.0, 4.5]])


def test_write_matrix_takes_a_nested_list_and_rejects_3d(tmp_path):
    path = tmp_path / "m.dmat"
    matio.write_matrix(path, [[1, 2], [3, 4]])
    np.testing.assert_array_equal(matio.read_matrix(path), [[1.0, 2.0], [3.0, 4.0]])
    path.unlink()
    with pytest.raises(ValueError, match="expected a 2-D matrix, got ndim=3"):
        matio.write_matrix(path, np.zeros((2, 2, 2)))
    assert not path.exists()


def test_csv_single_row_keeps_two_dims(tmp_path):
    path = tmp_path / "row.csv"
    matio.write_matrix(path, np.array([[1.0, 2.0, 3.0]]))
    out = matio.read_csv(path)
    assert out.shape == (1, 3)


@pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0)])
def test_dmat_empty_roundtrip(tmp_path, shape):
    path = tmp_path / "empty.dmat"
    matio.write_matrix(path, np.zeros(shape))
    assert path.stat().st_size == 16  # the header alone
    out = matio.read_dmat(path)
    assert out.shape == shape and out.dtype == np.float64


def test_dmat_surplus_value_rejected(tmp_path):
    path = tmp_path / "long.dmat"
    matio.write_matrix(path, np.ones((3, 3)))
    path.write_bytes(path.read_bytes() + np.float64(1.0).tobytes())
    with pytest.raises(ValueError, match="expected"):
        matio.read_dmat(path)


def test_read_dmat_allocates_one_matrix(tmp_path):
    m = np.random.default_rng(1).standard_normal((400, 300))
    path = tmp_path / "m.dmat"
    matio.write_matrix(path, m)
    tracemalloc.start()
    try:
        out = matio.read_dmat(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(out, m)
    assert peak <= 1.2 * m.nbytes


def test_read_dmat_maps_the_file(tmp_path):
    # 2.4 MB of values, read through a read-only map: the heap holds only
    # as_dense's finiteness mask (143 KB traced, against 2.4 MB when the
    # values were read into an array)
    m = np.random.default_rng(2).standard_normal((1000, 300))
    path = tmp_path / "m.dmat"
    matio.write_matrix(path, m)
    block = matcore.row_blocks(m.shape)[0]
    tracemalloc.start()
    try:
        out = matio.read_dmat(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(out, np.memmap) and not out.flags.writeable
    np.testing.assert_array_equal(out, m)
    assert peak <= (block.stop - block.start) * m.shape[1] * 8
    with pytest.raises(ValueError, match="read-only"):
        out[0, 0] = 1.0


@pytest.mark.parametrize("rows", [1, 2, 3, 7, 9])
@pytest.mark.parametrize("name", ["m.dmat", "m.csv"])
def test_row_block_roundtrip(tmp_path, monkeypatch, rows, name):
    # three 5-column rows per block: 7 and 1 rows end in a short block
    monkeypatch.setattr(matcore, "BLOCK_BYTES", 3 * 5 * 8)
    m = np.random.default_rng(rows).standard_normal((rows, 5)) * 1e3
    path = tmp_path / name
    matio.write_matrix(path, m)
    np.testing.assert_array_equal(matio.read_matrix(path), m)


def test_row_blocks_cover_every_row(monkeypatch):
    monkeypatch.setattr(matcore, "BLOCK_BYTES", 3 * 5 * 8)
    assert matcore.row_blocks((7, 5)) == [slice(0, 3), slice(3, 6), slice(6, 7)]
    assert matcore.row_blocks((1, 5)) == [slice(0, 1)]
    assert matcore.row_blocks((0, 5)) == []
    # a row wider than a block still makes a block of one row
    assert matcore.row_blocks((2, 100)) == [slice(0, 1), slice(1, 2)]


class _RowSliced:
    """A matrix that exists only as row blocks, like the l1filter's LowRank."""

    def __init__(self, m):
        self.m, self.shape = m, m.shape

    def __getitem__(self, rows):
        return self.m[rows].copy()


def _factored(sample):
    """A LowRank L and the Remainder S of sample, each with its dense rows
    rows(slice), A[rows] B^T and sample[rows] minus that, formed from
    copies of A, B and sample that nothing else writes to."""
    rng = np.random.default_rng(0)
    l = LowRank(rng.standard_normal((7, 2)), rng.standard_normal((4, 2)))
    a, b, m = l.a.copy(), l.b.copy(), sample.copy()
    return ((l, lambda rows: a[rows] @ b.T),
            (Remainder(sample, l), lambda rows: m[rows] - a[rows] @ b.T))


@pytest.mark.parametrize("name", ["m.dmat", "m.csv"])
def test_write_row_sliceable_matrix(tmp_path, monkeypatch, sample, name):
    # LowRank and Remainder are written through their own rows_into too
    monkeypatch.setattr(matcore, "BLOCK_BYTES", 2 * 4 * 8)
    for mat, dense_rows in ((_RowSliced(sample), sample.__getitem__), *_factored(sample)):
        path = tmp_path / name
        matio.write_matrix(path, mat)
        blocks = [dense_rows(rows) for rows in matcore.row_blocks((7, 4))]
        np.testing.assert_array_equal(matio.read_matrix(path), np.concatenate(blocks))


def test_rows_into_forms_each_block_into_the_buffer(monkeypatch, sample):
    monkeypatch.setattr(matcore, "BLOCK_BYTES", 3 * 4 * 8)
    buf = np.empty((3, 4))
    for mat, dense_rows in _factored(sample):
        for rows in matcore.row_blocks((7, 4)):
            out = buf[:rows.stop - rows.start]
            assert mat.rows_into(rows, out) is out
            np.testing.assert_array_equal(out, dense_rows(rows))


def test_blocks_walk_every_row_block_in_one_buffer(monkeypatch, sample):
    monkeypatch.setattr(matcore, "BLOCK_BYTES", 3 * 4 * 8)  # blocks of 3, 3 and 1 rows
    kept = sample.copy()
    for mat, dense_rows in ((sample, kept.__getitem__), (_RowSliced(sample), kept.__getitem__),
                            *_factored(sample)):
        for _ in range(2):  # the second walk sees the matrix the first left
            walked, first = [], None
            for rows, block in matio.blocks(mat):
                first = block if first is None else first
                assert block.dtype == np.float64 and np.shares_memory(block, first)
                np.testing.assert_array_equal(block, dense_rows(rows))
                block[...] = np.nan  # the caller may write into a block
                walked.append(rows)
            assert walked == matcore.row_blocks((7, 4)) and walked[-1] == slice(6, 7)


@pytest.mark.parametrize("name", ["m.dmat", "m.csv"])
def test_non_finite_block_leaves_no_file(tmp_path, monkeypatch, sample, name):
    monkeypatch.setattr(matcore, "BLOCK_BYTES", 2 * 4 * 8)
    bad = sample.copy()
    bad[-1, 0] = np.nan  # in the last block, after the others are written
    path = tmp_path / name
    with pytest.raises(ValueError, match="non-finite"):
        matio.write_matrix(path, _RowSliced(bad))
    assert not path.exists()
