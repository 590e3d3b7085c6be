"""Matrix file formats shared repo-wide.

Two formats:
  * CSV: one matrix row per line, comma separated.
  * DMAT binary: 16-byte header (magic b"DMAT", u32 rows, u32 cols,
    little-endian, 4 bytes padding) followed by rows*cols little-endian
    float64 values in row-major order.
"""

import struct

import numpy as np

from .matcore import as_dense

MAGIC = b"DMAT"
_HEADER = struct.Struct("<4sII4x")


def write_csv(path, m):
    m = as_dense(m)
    np.savetxt(path, m, delimiter=",", fmt="%.17g")


def read_csv(path):
    m = np.loadtxt(path, delimiter=",", ndmin=2)
    return as_dense(m)


def write_dmat(path, m):
    m = as_dense(m)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, m.shape[0], m.shape[1]))
        # as_dense returns C order; write its buffer without a bytes copy
        fh.write(memoryview(m.astype("<f8", copy=False)))


def read_dmat(path):
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise ValueError(f"{path}: truncated header")
        magic, rows, cols = _HEADER.unpack(header)
        if magic != MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        data = np.frombuffer(fh.read(), dtype="<f8")
    if data.size != rows * cols:
        raise ValueError(f"{path}: expected {rows * cols} values, got {data.size}")
    return as_dense(data.reshape(rows, cols))


def read_matrix(path):
    """Read a matrix, picking the format from the file content/extension."""
    path = str(path)
    if path.endswith(".csv"):
        return read_csv(path)
    with open(path, "rb") as fh:
        head = fh.read(4)
    if head == MAGIC:
        return read_dmat(path)
    return read_csv(path)


def write_matrix(path, m):
    """Write a matrix; .csv extension selects CSV, anything else DMAT."""
    if str(path).endswith(".csv"):
        write_csv(path, m)
    else:
        write_dmat(path, m)
