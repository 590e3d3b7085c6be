"""Matrix file formats shared repo-wide.

Two formats:
  * CSV: one matrix row per line, comma separated.
  * DMAT binary: 16-byte header (magic b"DMAT", u32 rows, u32 cols,
    little-endian, 4 bytes padding) followed by rows*cols little-endian
    float64 values in row-major order.

blocks is the row-block walk that write_matrix, the decompose CLI's output
pass and synth.recovery_errors take: it forms a matrix one block of
matcore.row_blocks at a time in one buffer, so the l1filter's factored L
and S are never formed whole. matrix_writer writes a matrix file block by
block, checks each block's finiteness with as_dense and removes the
partial file when a write fails. read_dmat maps a DMAT file read-only, so
its values stay in the page cache and off the heap, while read_csv reads
CSV into core; both check what they read with as_dense. A mapped file must not be changed or
truncated while its matrix is in use: a truncated map kills the process
with SIGBUS on its next read.
"""

import contextlib
import os
import struct
import warnings

import numpy as np

from .matcore import as_dense, row_blocks

MAGIC = b"DMAT"
_HEADER = struct.Struct("<4sII4x")


def blocks(m):
    """(rows, block) for each row_blocks slice of m: block holds m[rows] in
    one float64 buffer that the walk owns and the next block overwrites, so
    the caller may write into it. m.rows_into(rows, block) forms it, for
    the l1filter's LowRank and Remainder; any other matrix is copied."""
    slices = row_blocks(m.shape)
    buf = np.empty((slices[0].stop if slices else 0, m.shape[1]))  # the first is the largest
    for rows in slices:
        block = buf[:rows.stop - rows.start]
        if hasattr(m, "rows_into"):
            m.rows_into(rows, block)
        else:
            block[...] = m[rows]
        yield rows, block


@contextlib.contextmanager
def output_file(path):
    """path opened for binary writing, removed again when the with-body
    raises, so that a write that fails leaves no partial file. Only a
    regular file is removed: a device such as /dev/null is left alone."""
    with open(path, "wb") as fh:
        try:
            yield fh
        except BaseException:
            fh.close()
            if os.path.isfile(path):
                os.unlink(path)
            raise


@contextlib.contextmanager
def matrix_writer(path, shape):
    """Context manager that opens path for a matrix of the given shape and
    yields write(block), which validates a row block with as_dense and
    appends it; the blocks must cover the rows in order. A .csv extension
    selects CSV, anything else DMAT. The file is removed if the with-body
    raises, on a non-finite block say."""
    csv = str(path).endswith(".csv")
    with output_file(path) as fh:
        if not csv:
            fh.write(_HEADER.pack(MAGIC, *shape))

        def write(block):
            block = as_dense(block)
            if csv:
                np.savetxt(fh, block, delimiter=",", fmt="%.17g")
            else:
                # as_dense returns C order; write the buffer without a bytes copy
                fh.write(memoryview(block.astype("<f8", copy=False)))

        yield write


def read_csv(path):
    with warnings.catch_warnings():
        # an empty file reads as an empty matrix, which the solvers reject;
        # numpy would also print a warning about it
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        m = np.loadtxt(path, delimiter=",", ndmin=2)
    return as_dense(m)


def read_dmat(path):
    """The matrix in a DMAT file as a read-only np.memmap of its values,
    after the header, magic and size checks and as_dense's finiteness
    check, which reads the map in place; an empty matrix is an in-core
    array. A file cut short between the size check and the map raises
    ValueError."""
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise ValueError(f"{path}: truncated header")
        magic, rows, cols = _HEADER.unpack(header)
        if magic != MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        # checked before mapping, so a corrupt header cannot map past the
        # values the file holds
        size = os.fstat(fh.fileno()).st_size - _HEADER.size
        if size != rows * cols * 8:
            raise ValueError(f"{path}: expected {rows * cols} values "
                             f"({rows * cols * 8} bytes), got {size} bytes")
        # an empty matrix has no values to map
        if not size:
            return np.empty((rows, cols))
        try:
            data = np.memmap(fh, dtype="<f8", mode="r", offset=_HEADER.size,
                             shape=(rows, cols))
        except ValueError:  # mmap: the map is longer than the file
            raise ValueError(f"{path}: expected {rows * cols} values, "
                             "file changed while read") from None
    as_dense(data)  # checks the map in place; its view of the map is not needed
    return data


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
    """Write a matrix one row block at a time, walked by blocks; .csv
    extension selects CSV, anything else DMAT. m is an ndarray, a LowRank or
    Remainder, any row-sliceable matrix with a shape, or else anything
    np.asarray takes."""
    if not hasattr(m, "shape"):
        m = np.asarray(m, dtype=np.float64)
    if len(m.shape) != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={len(m.shape)}")
    with matrix_writer(path, m.shape) as write:
        for _, block in blocks(m):
            write(block)
