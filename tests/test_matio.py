"""Tests for the CSV and DMAT matrix file formats."""

import struct

import numpy as np
import pytest

from l1pcp import matio


@pytest.fixture
def sample():
    rng = np.random.default_rng(0)
    return rng.standard_normal((7, 4)) * 123.456


def test_csv_roundtrip(tmp_path, sample):
    path = tmp_path / "m.csv"
    matio.write_csv(path, sample)
    np.testing.assert_array_equal(matio.read_csv(path), sample)


def test_dmat_roundtrip(tmp_path, sample):
    path = tmp_path / "m.dmat"
    matio.write_dmat(path, sample)
    np.testing.assert_array_equal(matio.read_dmat(path), sample)


def test_dmat_roundtrip_fortran_order(tmp_path, sample):
    path = tmp_path / "f.dmat"
    matio.write_dmat(path, np.asfortranarray(sample))
    np.testing.assert_array_equal(matio.read_dmat(path), sample)
    values = np.frombuffer(path.read_bytes()[16:], dtype="<f8")
    np.testing.assert_array_equal(values, sample.ravel(order="C"))  # row-major


def test_dmat_header_layout(tmp_path):
    path = tmp_path / "m.dmat"
    matio.write_dmat(path, np.arange(6.0).reshape(2, 3))
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
    matio.write_dmat(path2, np.ones((3, 3)))
    path2.write_bytes(path2.read_bytes()[:-8])
    with pytest.raises(ValueError, match="expected"):
        matio.read_dmat(path2)


def test_dispatch_by_extension_and_magic(tmp_path, sample):
    csv_path = tmp_path / "a.csv"
    bin_path = tmp_path / "a.bin"
    matio.write_matrix(csv_path, sample)
    matio.write_matrix(bin_path, sample)
    assert csv_path.read_bytes()[:4] != matio.MAGIC
    assert bin_path.read_bytes()[:4] == matio.MAGIC
    np.testing.assert_array_equal(matio.read_matrix(csv_path), sample)
    np.testing.assert_array_equal(matio.read_matrix(bin_path), sample)


def test_csv_single_row_keeps_two_dims(tmp_path):
    path = tmp_path / "row.csv"
    matio.write_csv(path, np.array([[1.0, 2.0, 3.0]]))
    out = matio.read_csv(path)
    assert out.shape == (1, 3)
