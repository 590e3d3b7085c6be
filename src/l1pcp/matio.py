"""Matrix file formats shared repo-wide.

Two formats:
  * CSV: one matrix row per line, comma separated.
  * DMAT binary: 16-byte header (magic b"DMAT", u32 rows, u32 cols,
    little-endian, 4 bytes padding) followed by rows*cols little-endian
    float64 values in row-major order.

The writers stream their input in row blocks of about BLOCK_BYTES each
(iter_row_blocks), validating every block with as_dense. Besides ndarrays
they take any row-sliceable matrix with a shape, such as the l1filter's
LowRank L and Remainder S, whose blocks are formed on demand into one
reused buffer, so writing them never holds a dense copy of the whole
matrix. A write that fails part way, on a non-finite block say, removes the
partial file. read_dmat reads the values into one preallocated array.
"""

import os
import struct
import warnings

import numpy as np

from .matcore import as_dense

MAGIC = b"DMAT"
_HEADER = struct.Struct("<4sII4x")

# Bytes of float64 values per row block (at least one row per block). A
# block's temporaries are freed before the next block, and small blocks let
# malloc reuse that memory: on a 2000x2000 decompose (glibc, 2-core box) the
# row-block stats pass took about 190 ms with 4 MB blocks, which fault in
# fresh pages for every block, and 35-75 ms with 1 MB blocks.
BLOCK_BYTES = 1 << 20


def row_blocks(shape):
    """Row slices that cover a matrix of the given shape, each of at most
    BLOCK_BYTES of float64 values but never less than one row."""
    rows, cols = shape
    step = max(1, BLOCK_BYTES // (8 * max(1, cols)))
    return [slice(lo, min(lo + step, rows)) for lo in range(0, rows, step)]


def iter_row_blocks(m):
    """Yield (rows, m[rows]) for the row_blocks of m. A matrix that forms its
    rows on demand through rows_into(rows, out), such as the l1filter's
    LowRank and Remainder, forms every block into one buffer, which each
    block overwrites in turn; any other matrix yields its own m[rows]."""
    rows_into = getattr(m, "rows_into", None)
    buf = None
    for rows in row_blocks(m.shape):
        if rows_into is None:
            yield rows, m[rows]
            continue
        if buf is None:
            buf = np.empty((rows.stop - rows.start, m.shape[1]))
        yield rows, rows_into(rows, buf[:rows.stop - rows.start])


def _row_sliceable(m):
    """m itself when it has a shape (an ndarray, or a matrix formed in row
    blocks), else m converted to an array."""
    if not hasattr(m, "shape"):
        m = np.asarray(m, dtype=np.float64)
    if len(m.shape) != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={len(m.shape)}")
    return m


def _write_blocks(path, head, m, write_block):
    """Write head, then each row block of m validated by as_dense; remove the
    file if a block fails. A block is written before the next is formed."""
    with open(path, "wb") as fh:
        try:
            fh.write(head)
            for _, block in iter_row_blocks(m):
                write_block(fh, as_dense(block))
        except BaseException:
            fh.close()
            os.unlink(path)
            raise


def write_csv(path, m):
    _write_blocks(path, b"", _row_sliceable(m),
                  lambda fh, block: np.savetxt(fh, block, delimiter=",", fmt="%.17g"))


def read_csv(path):
    with warnings.catch_warnings():
        # an empty file reads as an empty matrix, which the solvers reject;
        # numpy would also print a warning about it
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        m = np.loadtxt(path, delimiter=",", ndmin=2)
    return as_dense(m)


def write_dmat(path, m):
    m = _row_sliceable(m)
    # as_dense returns C order; write each block's buffer without a bytes copy
    _write_blocks(path, _HEADER.pack(MAGIC, *m.shape), m,
                  lambda fh, block: fh.write(memoryview(block.astype("<f8", copy=False))))


def read_dmat(path):
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise ValueError(f"{path}: truncated header")
        magic, rows, cols = _HEADER.unpack(header)
        if magic != MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        # checked before allocating, so a corrupt header cannot ask for more
        # memory than the file holds
        size = os.fstat(fh.fileno()).st_size - _HEADER.size
        if size != rows * cols * 8:
            raise ValueError(f"{path}: expected {rows * cols} values "
                             f"({rows * cols * 8} bytes), got {size} bytes")
        data = np.empty((rows, cols), dtype="<f8")
        # an empty matrix has no values to read, and memoryview cannot cast it
        if size and fh.readinto(memoryview(data).cast("B")) != size:
            raise ValueError(f"{path}: expected {rows * cols} values, file changed while read")
    return as_dense(data)


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
    """Write a matrix in row blocks; .csv extension selects CSV, anything
    else DMAT."""
    if str(path).endswith(".csv"):
        write_csv(path, m)
    else:
        write_dmat(path, m)
