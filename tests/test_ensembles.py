import math
import struct
import tracemalloc

import numpy as np
import pytest

from cohaudit import (
    DegenerateColumnError,
    DimensionError,
    EnsembleSpec,
    MatrixFormatError,
    MeasurementMatrix,
    generate,
    generate_raw,
    load_matrix,
    normalize_columns,
    real_fourier_frame,
    save_matrix,
)
from cohaudit._streams import k_subset, stream
from cohaudit.ensembles import _BLOCK


def test_gaussian_dims_and_unit_norms():
    m = generate(EnsembleSpec("gaussian", 200, 400, 42))
    assert m.rows == 200 and m.cols == 400
    assert np.max(np.abs(m.column_norms() - 1.0)) <= 1e-12


def test_gaussian_raw_entry_moments():
    # raw entries are N(0, 1/rows): sample variance within 10%, mean within
    # four standard errors of zero
    spec = EnsembleSpec("gaussian", 100, 500, 3)
    raw = generate_raw(spec).data
    var = raw.var()
    assert abs(var - 0.01) <= 0.001
    assert abs(raw.mean()) <= 4.0 * 0.1 / np.sqrt(raw.size)


def test_generate_deterministic():
    spec = EnsembleSpec("gaussian", 50, 80, 11)
    a = generate(spec)
    b = generate(spec)
    assert np.array_equal(a.data, b.data)


def test_different_seeds_differ():
    a = generate(EnsembleSpec("gaussian", 20, 30, 0))
    b = generate(EnsembleSpec("gaussian", 20, 30, 1))
    assert not np.array_equal(a.data, b.data)


def test_bernoulli_entries():
    m = generate(EnsembleSpec("bernoulli", 4, 4, 7))
    assert set(np.unique(np.abs(m.data))) == {0.5}
    assert np.max(np.abs(m.column_norms() - 1.0)) <= 1e-12


def test_bernoulli_entries_general_rows():
    m = generate(EnsembleSpec("bernoulli", 12, 20, 5))
    assert np.allclose(np.abs(m.data), 1.0 / np.sqrt(12), atol=1e-15)


@pytest.mark.parametrize("n", [6, 7, 64, 65])
def test_fourier_frame_orthonormal(n):
    f = real_fourier_frame(n)
    assert f.shape == (n, n)
    assert np.max(np.abs(f @ f.T - np.eye(n))) <= 1e-12
    assert np.max(np.abs(f.T @ f - np.eye(n))) <= 1e-12


def test_partial_fourier_rows_come_from_frame():
    spec = EnsembleSpec("partial_fourier", 8, 16, 9)
    raw = generate_raw(spec).data
    frame = real_fourier_frame(16)
    for row in raw:
        assert any(np.array_equal(row, frow) for frow in frame)


def loop_fourier_frame(n):
    """The real harmonic frame built one row at a time: the reference."""
    t = np.arange(n)
    rows = [np.full(n, 1.0 / np.sqrt(n))]
    for f in range(1, (n - 1) // 2 + 1):
        w = 2.0 * np.pi * f * t / n
        rows.append(np.sqrt(2.0 / n) * np.cos(w))
        rows.append(np.sqrt(2.0 / n) * np.sin(w))
    if n % 2 == 0 and n > 1:
        rows.append(np.where(t % 2 == 0, 1.0, -1.0) / np.sqrt(n))
    return np.vstack(rows)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 64, 65, 128, 501])
def test_fourier_frame_matches_row_by_row_build(n):
    assert real_fourier_frame(n).tobytes() == loop_fourier_frame(n).tobytes()


@pytest.mark.parametrize("rows, cols, seed", [(1, 1, 0), (8, 16, 9), (9, 17, 4),
                                              (40, 121, 5), (64, 64, 2)])
def test_partial_fourier_is_frame_rows_bitwise(rows, cols, seed):
    picked = k_subset(stream(seed, "partial_fourier", rows, cols), cols, rows)
    raw = generate_raw(EnsembleSpec("partial_fourier", rows, cols, seed)).data
    assert raw.tobytes() == loop_fourier_frame(cols)[picked].tobytes()


def test_partial_fourier_builds_only_its_rows():
    # the whole cols x cols frame would be 40x the matrix here
    tracemalloc.start()
    try:
        m = generate(EnsembleSpec("partial_fourier", 100, 4000, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * m.data.nbytes


def test_partial_fourier_unit_columns():
    m = generate(EnsembleSpec("partial_fourier", 32, 64, 1))
    assert m.rows == 32 and m.cols == 64
    assert np.max(np.abs(m.column_norms() - 1.0)) <= 1e-12


def test_partial_fourier_needs_wide_shape():
    with pytest.raises(DimensionError):
        EnsembleSpec("partial_fourier", 64, 32, 0)


def test_spec_validation():
    with pytest.raises(ValueError):
        EnsembleSpec("cauchy", 4, 4, 0)
    with pytest.raises(DimensionError):
        EnsembleSpec("gaussian", 0, 4, 0)
    with pytest.raises(ValueError):
        EnsembleSpec("gaussian", 4, 4, -1)


def test_normalize_simple_column():
    m = MeasurementMatrix(np.array([[3.0], [4.0]]))
    out = normalize_columns(m)
    assert np.allclose(out.data[:, 0], [0.6, 0.8], atol=1e-15)


def test_normalize_idempotent_bitwise():
    rng = np.random.default_rng(0)
    m = MeasurementMatrix(rng.standard_normal((20, 30)))
    once = normalize_columns(m)
    twice = normalize_columns(once)
    assert np.array_equal(once.data, twice.data)


def test_normalize_identity_unchanged():
    m = MeasurementMatrix(np.eye(5))
    assert np.array_equal(normalize_columns(m).data, np.eye(5))


def test_normalize_zero_column_error():
    data = np.eye(4)
    data[:, 2] = 0.0
    with pytest.raises(DegenerateColumnError) as err:
        normalize_columns(MeasurementMatrix(data))
    assert err.value.column == 2


def test_matrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        MeasurementMatrix(np.array([[1.0, np.nan]]))


def test_matrix_rejects_bad_shape():
    with pytest.raises(DimensionError):
        MeasurementMatrix(np.zeros(3))
    with pytest.raises(DimensionError):
        MeasurementMatrix(np.zeros((0, 3)))


def test_matrix_data_is_readonly():
    m = MeasurementMatrix(np.eye(3))
    with pytest.raises(ValueError):
        m.data[0, 0] = 2.0


def test_matrix_copies_the_callers_array():
    arr = np.eye(3)
    m = MeasurementMatrix(arr)
    arr[0, 0] = 5.0
    assert m.data[0, 0] == 1.0 and arr.flags.writeable


@pytest.mark.parametrize("ensemble", ["gaussian", "bernoulli", "partial_fourier"])
def test_generate_output_is_readonly_c_order(ensemble):
    for m in (generate_raw(EnsembleSpec(ensemble, 6, 9, 2)),
              generate(EnsembleSpec(ensemble, 6, 9, 2))):
        assert m.data.dtype == np.float64 and m.data.flags.c_contiguous
        assert not m.data.flags.writeable
        with pytest.raises(ValueError):
            m.data[0, 0] = 2.0


def test_generate_holds_at_most_two_matrices():
    # the raw draw and its normalized product; no frozen copy of either
    tracemalloc.start()
    try:
        m = generate(EnsembleSpec("gaussian", 200, 5000, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.2 * m.data.nbytes


def test_generate_holds_one_matrix():
    # drawn, scaled and normalized in place; column norms square one block at a time
    generate(EnsembleSpec("gaussian", 2, 2, 0))  # first-call imports are not the matrix's
    tracemalloc.start()
    try:
        m = generate(EnsembleSpec("gaussian", 200, 5000, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.15 * m.data.nbytes


@pytest.mark.parametrize("rows, cols", [(37, 3001), (200, 5000), (7, 30001)])
def test_bernoulli_row_blocks_are_one_draw(rows, cols):
    # the signs are drawn a block of rows at a time, the last block short
    assert rows % max(1, _BLOCK // cols) != 0
    whole = np.multiply(stream(3, "bernoulli", rows, cols).integers(0, 2, size=(rows, cols)), 2.0)
    whole -= 1.0
    whole /= np.sqrt(rows)
    assert generate_raw(EnsembleSpec("bernoulli", rows, cols, 3)).data.tobytes() == whole.tobytes()


def test_bernoulli_generate_holds_one_matrix():
    # no int64 draw the size of the matrix beside it
    generate(EnsembleSpec("bernoulli", 2, 2, 0))  # first-call imports are not the matrix's
    tracemalloc.start()
    try:
        m = generate(EnsembleSpec("bernoulli", 200, 5000, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.15 * m.data.nbytes


def test_binary_roundtrip_bitwise(tmp_path):
    m = generate(EnsembleSpec("gaussian", 17, 23, 5))
    path = tmp_path / "m.bin"
    save_matrix(m, path, "binary")
    back = load_matrix(path)
    assert back.rows == 17 and back.cols == 23
    assert np.array_equal(back.data, m.data)


def test_csv_roundtrip_bitwise(tmp_path):
    m = generate(EnsembleSpec("gaussian", 7, 9, 13))
    path = tmp_path / "m.csv"
    save_matrix(m, path, "csv")
    back = load_matrix(path)
    assert np.array_equal(back.data, m.data)
    assert path.read_text() == "\n".join(
        ["7,9"] + [",".join("%.17g" % v for v in row) for row in m.data]) + "\n"
    # 'rows,cols', then %.17g values at any magnitude and sign
    edge = MeasurementMatrix([[1e-300, -0.0, 5e20], [1.0, 2.5, -1.0 / 3.0]])
    save_matrix(edge, path, "csv")
    assert path.read_text() == "2,3\n1e-300,-0,5e+20\n1,2.5,-0.33333333333333331\n"
    back = load_matrix(path)
    assert np.array_equal(back.data, edge.data)
    assert np.signbit(back.data[0, 1])


def test_csv_parse_layout(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("2,3\n1,0,0\n0,1,0\n")
    m = load_matrix(path)
    assert m.rows == 2 and m.cols == 3
    assert np.array_equal(m.data[:, 0], [1.0, 0.0])


def test_csv_value_count_mismatch(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("2,3\n1,0,0\n0,1\n")
    with pytest.raises(MatrixFormatError):
        load_matrix(path)


def test_csv_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("2\n1,0\n")
    with pytest.raises(MatrixFormatError):
        load_matrix(path)


def test_binary_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"XXXX" + b"\x00" * 16)
    with pytest.raises(MatrixFormatError):
        load_matrix(path)


def test_binary_truncated_payload(tmp_path):
    m = generate(EnsembleSpec("gaussian", 4, 4, 0))
    path = tmp_path / "m.bin"
    save_matrix(m, path, "binary")
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(MatrixFormatError):
        load_matrix(path)


def test_format_sniffing(tmp_path):
    m = generate(EnsembleSpec("bernoulli", 5, 6, 2))
    bin_path = tmp_path / "m.dat"
    csv_path = tmp_path / "m.txt"
    save_matrix(m, bin_path, "binary")
    save_matrix(m, csv_path, "csv")
    assert np.array_equal(load_matrix(bin_path).data, m.data)
    assert np.array_equal(load_matrix(csv_path).data, m.data)


@pytest.mark.parametrize("blob, message", [
    (b"", "empty file"),
    (b"2,3,4\n", "header must be 'rows,cols', got '2,3,4'"),
    (b"2,x\n", "non-integer header '2,x'"),
    (b"-1,2\n", "negative header dimension '-1,2'"),
    (b"1,2\n1,y\n", "could not convert string to float: 'y'"),
    (b"2,2\n1,0\n", "header says 2x2 = 4 values, found 2"),
    (b"1,1\nnan\n", "matrix entries must be finite"),
    (b"0,2\n", "matrix needs at least one row"),
    (b"2,2\n1,\xff\n0,1\n", "not UTF-8 text, invalid start byte at byte 6"),
    (b"CAMX\x01\x00", "truncated header"),
    (b"CAMX" + struct.pack("<II", 1, 2) + b"\x00" * 8, "payload is 20 bytes, header implies 28"),
    (b"CAMX" + struct.pack("<II", 1, 1) + struct.pack("<d", math.inf),
     "matrix entries must be finite"),
])
def test_every_matrix_file_fault_names_the_file(tmp_path, blob, message):
    path = tmp_path / "m.mat"
    path.write_bytes(blob)
    with pytest.raises(MatrixFormatError) as err:
        load_matrix(path)
    assert str(err.value) == f"{path}: {message}"


def test_reported_input_faults(tmp_path):
    with pytest.raises(MatrixFormatError) as err:
        save_matrix(generate(EnsembleSpec("gaussian", 2, 2, 0)), tmp_path / "m", "npy")
    assert str(err.value) == "unknown matrix format 'npy'"
    with pytest.raises(DimensionError) as err:
        real_fourier_frame(0)
    assert str(err.value) == "frame size must be >= 1, got 0"


@pytest.mark.parametrize("args", [("gaussian", 4, 4, 1.5), ("gaussian", 4.0, 4, 1),
                                  ("bernoulli", 4, 4.5, 1), ("gaussian", 4, 4, "1")])
def test_spec_takes_only_integer_sizes_and_seed(args):
    # a float seed hashed as int(seed) would draw the matrix of another seed
    with pytest.raises(TypeError):
        EnsembleSpec(*args)
