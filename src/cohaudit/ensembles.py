"""Measurement-matrix ensembles: generation, normalization, file I/O.

A MeasurementMatrix is an immutable dense real matrix whose columns play
the role of dictionary atoms.  Generation is a pure function of the
EnsembleSpec: same spec, same matrix, bit for bit.
"""

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
        if self.rows < 1 or self.cols < 1:
            raise DimensionError(f"rows and cols must be >= 1, got {self.rows}x{self.cols}")
        if self.ensemble == "partial_fourier" and self.rows > self.cols:
            raise DimensionError(
                f"partial_fourier needs rows <= cols, got {self.rows}x{self.cols}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be in [0, 2^64), got {self.seed}")


@dataclass(frozen=True)
class MeasurementMatrix:
    """Immutable dense matrix with unit-norm-column bookkeeping."""

    data: np.ndarray
    ensemble_tag: str = "custom"

    def __post_init__(self):
        _adopt(self, np.array(self.data, dtype=np.float64, order="C", copy=True), self.ensemble_tag)

    @property
    def rows(self):
        return self.data.shape[0]

    @property
    def cols(self):
        return self.data.shape[1]

    def column_norms(self):
        return np.linalg.norm(self.data, axis=0)


def _adopt(matrix, arr, ensemble_tag):
    """Check arr and freeze it as matrix.data, uncopied: arr is new and held nowhere else."""
    arr = np.asarray(arr, dtype=np.float64, order="C")  # a no-op on the arrays made here
    if arr.ndim != 2:
        raise DimensionError(f"matrix must be 2-D, got shape {arr.shape}")
    if arr.shape[0] < 1:
        raise DimensionError("matrix needs at least one row")
    # min and max carry any NaN or inf, with no rows x cols array of flags
    if not (np.isfinite(np.min(arr, initial=0.0)) and np.isfinite(np.max(arr, initial=0.0))):
        raise ValueError("matrix entries must be finite")
    arr.flags.writeable = False
    object.__setattr__(matrix, "data", arr)
    object.__setattr__(matrix, "ensemble_tag", ensemble_tag)
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
    # row 2f - 1 is the cosine and row 2f the sine at frequency f
    rows = 2.0 * np.pi * ((picked + 1) // 2)[:, None] * t / n
    odd = picked % 2 == 1
    rows[odd] = np.cos(rows[odd])
    rows[~odd] = np.sin(rows[~odd])
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
    rng = stream(spec.seed, spec.ensemble, spec.rows, spec.cols)
    if spec.ensemble == "gaussian":
        raw = rng.standard_normal((spec.rows, spec.cols)) / np.sqrt(spec.rows)
    elif spec.ensemble == "bernoulli":
        raw = (2.0 * rng.integers(0, 2, size=(spec.rows, spec.cols)) - 1.0) / np.sqrt(spec.rows)
    else:
        raw = _fourier_rows(spec.cols, k_subset(rng, spec.cols, spec.rows))
    return _adopt(object.__new__(MeasurementMatrix), raw, spec.ensemble)


def generate(spec):
    """Draw a matrix from the ensemble and normalize its columns."""
    return normalize_columns(generate_raw(spec))


def normalize_columns(matrix):
    """Rescale each column to unit Euclidean norm.

    Columns already within a few ulps of unit norm are left bit-exact, so
    applying this twice returns the first result unchanged.
    """
    norms = matrix.column_norms()
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise DegenerateColumnError(zero[0])
    factors = 1.0 / norms
    factors[np.abs(norms - 1.0) <= _NORM_SKIP] = 1.0
    if np.all(factors == 1.0):
        return matrix
    return _adopt(object.__new__(MeasurementMatrix), matrix.data * factors, matrix.ensemble_tag)


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


def load_matrix(path, file_format=None):
    """Read a matrix written by save_matrix.

    The file stores shape and entries only, so the result carries
    ensemble_tag 'custom'.  Format is inferred from the file
    contents when not given: binary if the magic matches, CSV otherwise.
    """
    path = Path(path)
    blob = path.read_bytes()
    if file_format is None:
        file_format = "binary" if blob[:4] == _MAGIC else "csv"
    if file_format == "binary":
        return _parse_binary(blob, path)
    if file_format == "csv":
        return _parse_csv(blob, path)
    raise MatrixFormatError(f"unknown matrix format {file_format!r}")


def _parse_binary(blob, path):
    if len(blob) < 12 or blob[:4] != _MAGIC:
        raise MatrixFormatError(f"{path}: bad or missing magic header")
    rows, cols = struct.unpack("<II", blob[4:12])
    expected = 12 + 8 * rows * cols
    if len(blob) != expected:
        raise MatrixFormatError(
            f"{path}: payload is {len(blob)} bytes, header implies {expected}")
    data = np.frombuffer(blob, dtype="<f8", offset=12).reshape(rows, cols)
    try:
        return MeasurementMatrix(data)
    except ValueError as exc:
        raise MatrixFormatError(f"{path}: {exc}") from exc


def _parse_csv(blob, path):
    try:
        lines = [ln for ln in blob.decode("utf-8").splitlines() if ln.strip()]
    except UnicodeDecodeError as exc:
        raise MatrixFormatError(f"{path}: not UTF-8 text, {exc.reason} at byte {exc.start}") from exc
    if not lines:
        raise MatrixFormatError(f"{path}: empty file")
    head = lines[0].split(",")
    if len(head) != 2:
        raise MatrixFormatError(f"{path}: header must be 'rows,cols', got {lines[0]!r}")
    try:
        rows, cols = int(head[0]), int(head[1])
    except ValueError as exc:
        raise MatrixFormatError(f"{path}: non-integer header {lines[0]!r}") from exc
    if rows < 0 or cols < 0:
        raise MatrixFormatError(f"{path}: negative header dimension {lines[0]!r}")
    values = []
    try:
        for ln in lines[1:]:
            values.extend(float(tok) for tok in ln.split(","))
    except ValueError as exc:
        raise MatrixFormatError(f"{path}: {exc}") from exc
    if len(values) != rows * cols:
        raise MatrixFormatError(
            f"{path}: header says {rows}x{cols} = {rows * cols} values, found {len(values)}")
    data = np.array(values).reshape(rows, cols)
    try:
        return MeasurementMatrix(data)
    except ValueError as exc:
        raise MatrixFormatError(f"{path}: {exc}") from exc
