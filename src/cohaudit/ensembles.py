"""Measurement-matrix ensembles: generation, normalization, file I/O.

A MeasurementMatrix is an immutable dense real matrix whose columns play
the role of dictionary atoms.  Generation is a pure function of the
EnsembleSpec: same spec, same matrix, bit for bit.
"""

import operator
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._streams import k_subset, stream
from .errors import DegenerateColumnError, DimensionError, MatrixFormatError
from .util import write_csv

ENSEMBLES = ("gaussian", "bernoulli", "partial_fourier")

_MAGIC = b"CAMX"

# Columns whose norm is already this close to 1 are left untouched, which
# makes normalize_columns exactly idempotent in floating point.
_NORM_SKIP = 8 * np.finfo(np.float64).eps

# Entries in one block of generate's scratch (512 KB of float64): column
# norms square at most this many (and at most a sixteenth of the matrix),
# and Bernoulli signs are drawn as integers this many rows' worth at a time.
_BLOCK = 2**16


@dataclass(frozen=True)
class EnsembleSpec:
    """Recipe for a random measurement matrix."""

    ensemble: str
    rows: int
    cols: int
    seed: int

    def __post_init__(self):
        if self.ensemble not in ENSEMBLES:
            raise ValueError(f"unknown ensemble {self.ensemble!r}, expected one of {ENSEMBLES}")
        if operator.index(self.rows) < 1 or operator.index(self.cols) < 1:
            raise DimensionError(f"rows and cols must be >= 1, got {self.rows}x{self.cols}")
        if self.ensemble == "partial_fourier" and self.rows > self.cols:
            raise DimensionError(
                f"partial_fourier needs rows <= cols, got {self.rows}x{self.cols}")
        if not 0 <= operator.index(self.seed) < 2**64:
            raise ValueError(f"seed must be in [0, 2^64), got {self.seed}")


@dataclass(frozen=True)
class MeasurementMatrix:
    """Immutable dense matrix with unit-norm-column bookkeeping."""

    data: np.ndarray

    def __post_init__(self):
        _adopt(self, np.array(self.data, dtype=np.float64, order="C", copy=True))

    @property
    def rows(self):
        return self.data.shape[0]

    @property
    def cols(self):
        return self.data.shape[1]

    def column_norms(self):
        return _column_norms(self.data)


def _column_norms(data):
    """np.linalg.norm(data, axis=0), squaring a block of columns at a time.

    Each column's squares are still summed row after row, so the bits are
    the same; a block of one column would be summed pairwise, so every
    block but that of a one-column matrix has two or more.
    """
    rows, cols = data.shape
    step = max(2, min(cols // 16, _BLOCK // rows))
    ends = [*range(0, max(cols - 1, 1), step), cols]
    norms = np.empty(cols)
    for a, z in zip(ends, ends[1:]):
        sq = data[:, a:z].copy()  # contiguous: squaring a strided view allocates buffers
        sq *= sq
        np.sqrt(np.add.reduce(sq, axis=0), out=norms[a:z])
        del sq  # else the next block is copied beside it
    return norms


def _finite(arr):
    """Whether every entry of arr is finite: min and max carry any NaN or inf, with no
    array of flags the size of arr."""
    return np.isfinite(np.min(arr, initial=0.0)) and np.isfinite(np.max(arr, initial=0.0))


def _adopt(matrix, arr):
    """Check arr and freeze it as matrix.data, uncopied: arr is new and held nowhere else."""
    arr = np.asarray(arr, dtype=np.float64, order="C")  # a no-op on the arrays made here
    if arr.ndim != 2:
        raise DimensionError(f"matrix must be 2-D, got shape {arr.shape}")
    if arr.shape[0] < 1:
        raise DimensionError("matrix needs at least one row")
    if not _finite(arr):
        raise ValueError("matrix entries must be finite")
    arr.flags.writeable = False
    object.__setattr__(matrix, "data", arr)
    return matrix


def real_fourier_frame(n):
    """Orthonormal n x n real harmonic basis.

    Row 0 is the constant vector, then cos/sin pairs at integer
    frequencies, and for even n a final alternating-sign row.  Rows and
    columns are orthonormal up to rounding.
    """
    if n < 1:
        raise DimensionError(f"frame size must be >= 1, got {n}")
    return _fourier_rows(n, np.arange(n))


def _fourier_rows(n, picked):
    """Rows picked of real_fourier_frame(n), without building the other rows."""
    t = np.arange(n)
    # row 2f - 1 is the cosine and row 2f the sine at frequency f, at angles
    # 2 pi f t / n, filled in place: the broadcast product of the two vectors
    # would allocate iterator buffers for both
    rows = np.empty((len(picked), n))
    rows[:] = t
    rows *= 2.0 * np.pi * ((picked + 1) // 2)[:, None]
    rows /= n
    odd = (picked % 2 == 1)[:, None]
    np.cos(rows, out=rows, where=odd)
    np.sin(rows, out=rows, where=~odd)
    rows *= np.sqrt(2.0 / n)
    rows[picked == 0] = 1.0 / np.sqrt(n)
    if n % 2 == 0:
        rows[picked == n - 1] = np.where(t % 2 == 0, 1.0, -1.0) / np.sqrt(n)
    return rows


def generate_raw(spec):
    """Draw a matrix from the ensemble before column normalization.

    Gaussian entries are N(0, 1/rows), Bernoulli entries +-1/sqrt(rows),
    and partial_fourier is a random row subset of the real harmonic
    frame, so raw columns are already unit norm up to rounding.
    """
    return _adopt(object.__new__(MeasurementMatrix), _draw(spec))


def _draw(spec):
    """generate_raw's array, new and writable, built in place at one matrix of memory."""
    rng = stream(spec.seed, spec.ensemble, spec.rows, spec.cols)
    if spec.ensemble == "partial_fourier":
        return _fourier_rows(spec.cols, k_subset(rng, spec.cols, spec.rows))
    if spec.ensemble == "gaussian":
        raw = rng.standard_normal((spec.rows, spec.cols))
    else:
        # row blocks continue one stream: the bits of a single (rows, cols) draw
        raw = np.empty((spec.rows, spec.cols))
        step = max(1, _BLOCK // spec.cols)
        for a in range(0, spec.rows, step):
            block = raw[a:a + step]
            np.multiply(rng.integers(0, 2, size=block.shape), 2.0, out=block)
        raw -= 1.0
    raw /= np.sqrt(spec.rows)
    return raw


def generate(spec):
    """Draw a matrix from the ensemble and normalize its columns."""
    return _adopt(object.__new__(MeasurementMatrix), _normalize_in_place(_draw(spec)))


def _unit_factors(data):
    """Per-column factors 1 / norm, 1 where the norm is already unit; None if all are 1."""
    norms = _column_norms(data)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise DegenerateColumnError(zero[0])
    factors = 1.0 / norms
    factors[np.abs(norms - 1.0) <= _NORM_SKIP] = 1.0
    return None if np.all(factors == 1.0) else factors


def _normalize_in_place(data):
    """normalize_columns on a new, writable array: scaled where it lies, and returned."""
    factors = _unit_factors(data)
    if factors is not None:
        data *= factors
    return data


def normalize_columns(matrix):
    """Rescale each column to unit Euclidean norm.

    Columns already within a few ulps of unit norm are left bit-exact, so
    applying this twice returns the first result unchanged.
    """
    factors = _unit_factors(matrix.data)
    if factors is None:
        return matrix
    return _adopt(object.__new__(MeasurementMatrix), matrix.data * factors)


def save_matrix(matrix, path, file_format="binary"):
    """Write a matrix to disk in 'binary' or 'csv' format.

    Binary: magic 'CAMX', uint32 rows, uint32 cols, float64 row-major
    little-endian payload.  CSV: header line 'rows,cols' then one matrix
    row per line with %.17g values (exact float64 round trip).
    """
    path = Path(path)
    if file_format == "binary":
        header = _MAGIC + struct.pack("<II", matrix.rows, matrix.cols)
        path.write_bytes(header + matrix.data.astype("<f8").tobytes(order="C"))
    elif file_format == "csv":
        write_csv(path, f"{matrix.rows},{matrix.cols}", ",".join(["%.17g"] * matrix.cols),
                  map(tuple, matrix.data))
    else:
        raise MatrixFormatError(f"unknown matrix format {file_format!r}")


def load_matrix(path):
    """Read a matrix written by save_matrix.

    The format comes from the file contents: binary if the magic
    matches, CSV otherwise.  Every fault in the file is one
    MatrixFormatError whose message starts with the path.
    """
    path = Path(path)
    blob = path.read_bytes()
    try:
        return MeasurementMatrix(_parse_binary(blob) if blob[:4] == _MAGIC else _parse_csv(blob))
    except ValueError as exc:
        raise MatrixFormatError(f"{path}: {exc}") from exc


def _parse_binary(blob):
    if len(blob) < 12:
        raise ValueError("truncated header")
    rows, cols = struct.unpack("<II", blob[4:12])
    expected = 12 + 8 * rows * cols
    if len(blob) != expected:
        raise ValueError(f"payload is {len(blob)} bytes, header implies {expected}")
    return np.frombuffer(blob, dtype="<f8", offset=12).reshape(rows, cols)


def _parse_csv(blob):
    try:
        lines = [ln for ln in blob.decode("utf-8").splitlines() if ln.strip()]
    except UnicodeDecodeError as exc:
        raise ValueError(f"not UTF-8 text, {exc.reason} at byte {exc.start}") from exc
    if not lines:
        raise ValueError("empty file")
    head = lines[0].split(",")
    if len(head) != 2:
        raise ValueError(f"header must be 'rows,cols', got {lines[0]!r}")
    try:
        rows, cols = int(head[0]), int(head[1])
    except ValueError as exc:
        raise ValueError(f"non-integer header {lines[0]!r}") from exc
    if rows < 0 or cols < 0:
        raise ValueError(f"negative header dimension {lines[0]!r}")
    values = [float(tok) for ln in lines[1:] for tok in ln.split(",")]
    if len(values) != rows * cols:
        raise ValueError(f"header says {rows}x{cols} = {rows * cols} values, found {len(values)}")
    return np.array(values).reshape(rows, cols)
