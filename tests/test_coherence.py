import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cohaudit import (
    CoherenceSample,
    DimensionError,
    EnsembleSpec,
    InsufficientDataError,
    MeasurementMatrix,
    UnnormalizedMatrixError,
    coherence_sample,
    cross_coherence,
    generate,
    normality_check,
    normalize_columns,
    profile,
)
from cohaudit import coherence
from cohaudit.coherence import _BIN_CHUNK, _BLOCK_ROWS, _STRIP_BUDGET, _bin_counts
from cohaudit.util import write_csv


def blocks_of(geometry):
    """Patch the block geometry: strips of rows Gram rows, read in blocks of width columns.

    geometry is (rows, width); None keeps the default (128, 4096).
    """
    rows, width = geometry or (_BLOCK_ROWS, _STRIP_BUDGET // _BLOCK_ROWS)
    return mock.patch.multiple(coherence, _BLOCK_ROWS=rows, _STRIP_BUDGET=rows * width)


def _one_strip(values, source_dims):
    """A sample whose pairs are the given values, read as a single strip."""
    v = np.asarray(values, dtype=np.float64)
    # a new strip per pass: _strip_stats overwrites the pairs it reads
    return CoherenceSample(lambda: iter(((v[None, :].copy(), False),)), v.size, source_dims)


def test_sample_small_oracle():
    # columns (1,0), (0,1), (1,1)/sqrt(2): pairs in lexicographic order
    r = 1.0 / np.sqrt(2.0)
    m = MeasurementMatrix(np.array([[1.0, 0.0, r], [0.0, 1.0, r]]))
    s = coherence_sample(m)
    assert s.count == 3
    assert np.allclose(s.values, [0.0, r, r], atol=1e-15)
    assert s.source_dims == (2, 3)


def test_sample_identity_zero():
    s = coherence_sample(MeasurementMatrix(np.eye(3)))
    assert np.array_equal(s.values, np.zeros(3))


@pytest.mark.parametrize("cols", [2, 5, 17])
def test_sample_count(cols):
    m = generate(EnsembleSpec("gaussian", 30, cols, 0))
    assert coherence_sample(m).count == cols * (cols - 1) // 2


def test_sample_requires_unit_columns():
    data = np.eye(4)
    data[:, 1] *= 2.0
    with pytest.raises(UnnormalizedMatrixError):
        coherence_sample(MeasurementMatrix(data))


def test_sample_blockwise_matches_direct():
    # Blocked matmuls may round differently from one full Gram product,
    # so equality holds to last-bit accuracy, not bitwise.
    m = generate(EnsembleSpec("gaussian", 25, 60, 4))
    direct = coherence_sample(m)
    with blocks_of((7, 16)):
        blocked = coherence_sample(m)
    assert direct.values.shape == blocked.values.shape
    assert np.allclose(direct.values, blocked.values, rtol=0.0, atol=1e-14)


def test_column_permutation_preserves_value_multiset():
    m = generate(EnsembleSpec("gaussian", 20, 12, 8))
    rng = np.random.default_rng(1)
    perm = rng.permutation(12)
    shuffled = MeasurementMatrix(m.data[:, perm])
    a = np.sort(coherence_sample(m).values)
    b = np.sort(coherence_sample(shuffled).values)
    assert np.allclose(a, b, atol=1e-15)


def test_column_negation_flips_its_pairs():
    m = generate(EnsembleSpec("gaussian", 20, 10, 9))
    data = m.data.copy()
    data[:, 3] *= -1.0
    flipped = MeasurementMatrix(data)
    a = coherence_sample(m).values
    b = coherence_sample(flipped).values
    assert np.sum(~np.isclose(a, b, atol=1e-15)) == 9
    assert np.allclose(np.sort(np.abs(a)), np.sort(np.abs(b)), atol=1e-15)


def test_profile_moments_and_peak(gauss_200x400):
    prof = profile(coherence_sample(gauss_200x400))
    assert prof.sample_count == 79800
    # soft statistical bands for a single known seed
    assert 0.25 <= prof.mutual_coherence <= 0.40
    assert abs(prof.std * np.sqrt(200) - 1.0) <= 0.1
    assert abs(prof.mean) <= 4.0 * prof.std / np.sqrt(prof.sample_count)


def test_profile_histogram_contract():
    s = _one_strip(np.array([0.0, 0.5, 1.0]), (10, 3))
    prof = profile(s, bins=2)
    hist = prof.histogram
    assert len(hist) == 2
    assert sum(c for _, _, c in hist) == 3
    # max value lands in the last (right-closed) bin
    assert hist[-1][2] == 2
    assert hist[0][0] == 0.0 and hist[-1][1] == 1.0


def test_profile_degenerate_all_equal():
    s = _one_strip(np.zeros(6), (4, 4))
    prof = profile(s, bins=3)
    assert prof.mutual_coherence == 0.0
    assert prof.std == 0.0
    assert sum(c for _, _, c in prof.histogram) == 6
    assert prof.histogram[-1][2] == 6


def test_profile_empty_sample_error():
    m = MeasurementMatrix(np.ones((3, 1)) / np.sqrt(3.0))
    s = coherence_sample(m)
    assert s.count == 0
    with pytest.raises(InsufficientDataError):
        profile(s)


def test_profile_default_bins_rule():
    # ceil(sqrt(count)) bins: 400 columns give 79800 pairs -> 283 bins.
    m = generate(EnsembleSpec("gaussian", 50, 400, 2))
    prof = profile(coherence_sample(m))
    assert len(prof.histogram) == 283


def test_profile_default_bins_cap():
    # 725 columns give 262450 pairs, past the 512^2 cap threshold.
    m = generate(EnsembleSpec("gaussian", 50, 725, 2))
    prof = profile(coherence_sample(m))
    assert len(prof.histogram) == 512


@pytest.mark.parametrize("bins", [0, 513])
def test_profile_bins_outside_one_to_cap_raise(bins):
    s = _one_strip(np.array([0.0, 0.5, 1.0]), (10, 3))
    with pytest.raises(ValueError, match=r"bins must be in \[1, 512\]"):
        profile(s, bins=bins)
    assert len(profile(s, bins=512).histogram) == 512


def test_histogram_csv(tmp_path):
    m = generate(EnsembleSpec("gaussian", 30, 20, 3))
    prof = profile(coherence_sample(m), bins=8)
    path = tmp_path / "hist.csv"
    write_csv(path, "bin_lower,bin_upper,count", "%.12g,%.12g,%d", prof.histogram)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "bin_lower,bin_upper,count"
    assert len(lines) == 9
    counts = [int(ln.split(",")[2]) for ln in lines[1:]]
    assert sum(counts) == prof.sample_count


@pytest.mark.parametrize("seed", range(10))
def test_normality_passes_for_gaussian(seed):
    m = generate(EnsembleSpec("gaussian", 200, 400, seed))
    fit = normality_check(coherence_sample(m))
    assert fit.passed
    assert not fit.degenerate
    assert 0.8 <= fit.var_ratio <= 1.2


def test_normality_fails_for_duplicate_column():
    m = generate(EnsembleSpec("gaussian", 100, 50, 6))
    data = m.data.copy()
    data[:, 1] = data[:, 0]
    fit = normality_check(coherence_sample(MeasurementMatrix(data)))
    assert not fit.passed


def test_normality_degenerate_for_orthonormal():
    fit = normality_check(coherence_sample(MeasurementMatrix(np.eye(20))))
    assert fit.degenerate
    assert not fit.passed
    assert fit.z_mean is None and fit.excess_kurtosis is None


def test_normality_needs_enough_pairs():
    with pytest.raises(InsufficientDataError):
        normality_check(coherence_sample(MeasurementMatrix(np.eye(5))))


def test_cross_identity_blocks():
    m = MeasurementMatrix(np.eye(3))
    prof = cross_coherence(m, m)
    assert prof.sample_count == 9
    assert prof.max_cross == 1.0
    assert np.isclose(prof.mean, 1.0 / 3.0, atol=1e-15)


def test_cross_spikes_vs_fourier():
    from cohaudit import spikes_fourier_pair
    d, b = spikes_fourier_pair(64)
    prof = cross_coherence(d, b)
    assert prof.sample_count == 64 * 64
    # peak entry of the harmonic frame is sqrt(2/n)
    assert abs(prof.max_cross - np.sqrt(2.0 / 64.0)) <= 0.15 * np.sqrt(2.0 / 64.0)
    assert abs(prof.std - 1.0 / np.sqrt(64.0)) <= 0.1 / np.sqrt(64.0)


def test_cross_orthogonal_columns_zero():
    d = MeasurementMatrix(np.eye(8)[:, :4])
    b = MeasurementMatrix(np.eye(8)[:, 7:])
    prof = cross_coherence(d, b)
    assert prof.max_cross == 0.0
    assert prof.std == 0.0


def test_cross_row_mismatch():
    with pytest.raises(DimensionError):
        cross_coherence(MeasurementMatrix(np.eye(3)), MeasurementMatrix(np.eye(4)))


def test_cross_blockwise_matches_direct():
    a = generate(EnsembleSpec("gaussian", 20, 30, 1))
    b = generate(EnsembleSpec("gaussian", 20, 25, 2))
    direct = cross_coherence(a, b)
    with blocks_of((4, 7)):
        blocked = cross_coherence(a, b)
    assert np.isclose(direct.max_cross, blocked.max_cross, atol=1e-15)
    assert np.isclose(direct.std, blocked.std, atol=1e-12)


def test_cross_std_nearly_parallel_nonnegative():
    # Nearly parallel columns: the spread is ~2e-11 around a mean of ~1,
    # which s2/n - mean^2 cancels to 0.
    rng = np.random.default_rng(0)
    d, b = (normalize_columns(MeasurementMatrix(1.0 + 1e-5 * rng.standard_normal((50, c))))
            for c in (10, 12))
    gram = d.data.T @ b.data
    prof = cross_coherence(d, b)
    assert 1e-11 < prof.std == pytest.approx(np.std(gram), rel=1e-9)
    assert prof.mean == pytest.approx(np.mean(gram), rel=1e-15)


@settings(max_examples=60, deadline=None)
@given(ensemble=st.sampled_from(["gaussian", "bernoulli"]), rows=st.integers(2, 12),
       cols=st.integers(2, 60), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_streamed_statistics_match_materialised(ensemble, rows, cols, seed, data):
    height, width = data.draw(st.integers(1, cols)), data.draw(st.integers(1, cols))
    bins = data.draw(st.none() | st.integers(1, 30))
    with blocks_of((height, width)):
        streamed = coherence_sample(generate(EnsembleSpec(ensemble, rows, cols, seed)))
    whole = _one_strip(streamed.values, (rows, cols))
    a, b = profile(streamed, bins=bins), profile(whole, bins=bins)
    one_strip = height >= cols - 1  # one block too: its first spans a column past its rows
    assert a == b or not one_strip
    assert (a.histogram, a.mutual_coherence, a.sample_count) == \
        (b.histogram, b.mutual_coherence, b.sample_count)
    close = dict(rel=1e-12, abs=1e-15)
    assert (a.mean, a.std) == pytest.approx((b.mean, b.std), **close)
    if whole.count < 100:
        with pytest.raises(InsufficientDataError):
            normality_check(streamed)
        return
    fa, fb = normality_check(streamed), normality_check(whole)
    assert fa == fb or not one_strip
    assert (fa.passed, fa.degenerate) == (fb.passed, fb.degenerate)
    assert fa.var_ratio == pytest.approx(fb.var_ratio, **close)
    if not fb.degenerate:
        assert (fa.z_mean, fa.excess_kurtosis) == pytest.approx(
            (fb.z_mean, fb.excess_kurtosis), **close)


def _nearly_parallel(rows, cols):
    rng = np.random.default_rng(0)
    return normalize_columns(MeasurementMatrix(1.0 + 1e-5 * rng.standard_normal((rows, cols))))


@pytest.mark.parametrize("matrix", [generate(EnsembleSpec("gaussian", 30, 70, 5)),
                                    generate(EnsembleSpec("bernoulli", 16, 50, 6)),
                                    _nearly_parallel(50, 40)],
                         ids=["gaussian", "bernoulli", "nearly-parallel"])
@pytest.mark.parametrize("block", [(1, 1), (3, 7), (11, 16), None],
                         ids=["1", "3", "11", "None"])
def test_moments_match_fsum_oracle(matrix, block):
    with blocks_of(block):
        s = coherence_sample(matrix)
    v = [float(x) for x in s.values]
    mean = math.fsum(v) / len(v)
    m2 = math.fsum((x - mean) ** 2 for x in v) / len(v)
    m4 = math.fsum((x - mean) ** 4 for x in v) / len(v)
    prof, fit = profile(s), normality_check(s)
    assert prof.std ** 2 == pytest.approx(m2, rel=1e-12)
    assert fit.var_ratio / matrix.rows == pytest.approx(m2, rel=1e-12)
    assert (fit.excess_kurtosis + 3.0) * m2 ** 2 == pytest.approx(m4, rel=1e-12)


@pytest.mark.parametrize("matrix", [generate(EnsembleSpec("gaussian", 30, 70, 5)),
                                    _nearly_parallel(50, 40)])
def test_one_strip_is_bitwise_the_materialised_sample(matrix):
    streamed = coherence_sample(matrix)  # N <= 128: one block
    whole = _one_strip(streamed.values, matrix.data.shape)
    assert profile(streamed) == profile(whole)
    assert normality_check(streamed) == normality_check(whole)


def test_profile_and_normality_share_two_gram_passes():
    passes = []
    with blocks_of((9, 16)):
        s = coherence_sample(generate(EnsembleSpec("gaussian", 20, 40, 3)))
    blocks = s._blocks
    s._blocks = lambda: passes.append(1) or blocks()
    profile(s, bins=7)
    normality_check(s)
    assert len(passes) == 2


def test_statistics_leave_each_strips_non_pairs_as_computed():
    # the diagonal and the entries below it are read by no statistic, nor written
    m = generate(EnsembleSpec("gaussian", 20, 40, 3))
    with blocks_of((9, 16)):
        s = coherence_sample(m)  # 5 strips in 3, 2, 2, 1 and 1 blocks
    seen, blocks = [], s._blocks

    def kept_blocks():
        for g, upper in blocks():
            seen.append((g, upper))
            yield g, upper

    s._blocks = kept_blocks
    profile(s, bins=7)
    normality_check(s)
    assert [upper for _, upper in seen] == 2 * [True, False, False, True, False,
                                                True, False, True, True]
    diagonal = [g for g, upper in seen if upper]  # only a strip's first block has any
    for i, g in enumerate(diagonal):
        a = 9 * (i % 5)
        fresh = m.data[:, a:a + 9].T @ m.data[:, a:a + g.shape[1]]
        lower = np.arange(g.shape[1]) <= np.arange(g.shape[0])[:, None]
        assert np.array_equal(g[lower], fresh[lower])


def test_statistics_memory_below_half_the_pair_array():
    # 17,997,000 pairs: 137 MiB as one array.  One strip peaks at about 4.4 MiB.
    m = generate(EnsembleSpec("gaussian", 20, 6000, 0))
    tracemalloc.start()
    try:
        s = coherence_sample(m)
        profile(s)
        normality_check(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * s.count / 2


def test_statistics_memory_within_one_gram_strip():
    # 47 strips of 128 Gram rows, the first 15 in two blocks, each block
    # read where the product leaves it
    m = generate(EnsembleSpec("gaussian", 20, 6000, 0))
    block_bytes = 8 * _BLOCK_ROWS * (_STRIP_BUDGET // _BLOCK_ROWS)
    tracemalloc.start()
    try:
        s = coherence_sample(m)
        profile(s)
        normality_check(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.3 * block_bytes


def test_moment_pass_memory_is_a_block_not_the_gram(gauss_100x500):
    # the sigma pass of verify, phase and separate on 100 x 500 holds four
    # 128-row blocks in turn (0.5 MB each), not the 500 x 500 Gram (2 MB)
    # and a copy of its triangle (1 MB)
    s = coherence_sample(gauss_100x500)
    tracemalloc.start()
    try:
        s._two_pass()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("cols, budget", [(1, _STRIP_BUDGET), (2, _STRIP_BUDGET),
                                          (127, _STRIP_BUDGET), (128, _STRIP_BUDGET),
                                          (129, _STRIP_BUDGET), (4097, _STRIP_BUDGET),
                                          (300, 5 * _BLOCK_ROWS)],
                         ids=["1", "2", "127", "128", "129", "4097", "300-in-5-column-blocks"])
def test_blocked_sample_is_bitwise_the_materialised_one(cols, budget):
    # 16 bernoulli rows: every entry is +-1/4 and every pair a multiple of
    # 1/16, exact in any summation order, so the pairs read block by block
    # are the materialised Gram's bit for bit, in lexicographic order.  Up
    # to 129 columns the one strip is one block and every statistic is the
    # materialised sample's; past that mean, extremes and histogram are (the
    # sums are exact), and std, from sums of rounded squares, is to 1e-12.
    # The last case's blocks are narrower than its strips' 128 rows.
    m = generate(EnsembleSpec("bernoulli", 16, cols, 1))
    with mock.patch.object(coherence, "_STRIP_BUDGET", budget):
        s = coherence_sample(m)
    want = np.concatenate([np.zeros(0), *(m.data[:, i + 1:].T @ m.data[:, i]
                                          for i in range(cols))])
    assert np.array_equal(s.values, want)
    whole = _one_strip(want, m.data.shape)
    if cols < 2:
        with pytest.raises(InsufficientDataError):
            profile(s)
        return
    a, b = profile(s), profile(whole)
    if cols <= 129:
        assert a == b
        assert cols < 15 or normality_check(s) == normality_check(whole)  # >= 100 pairs
        return
    assert (a.histogram, a.mutual_coherence, a.mean, a.sample_count) == \
        (b.histogram, b.mutual_coherence, b.mean, b.sample_count)
    assert a.std == pytest.approx(b.std, rel=1e-12, abs=0.0)


def _obtuse_simplex(rows):
    """rows + 1 unit columns, every pair near -1/rows: a perturbed regular simplex."""
    n = rows + 1
    centred = np.eye(n) - 1.0 / n  # columns e_i minus their centroid span rows dimensions
    basis = np.linalg.svd(centred)[0][:, :rows]
    noise = 1e-3 * np.random.default_rng(7).standard_normal((rows, n))
    return normalize_columns(MeasurementMatrix(basis.T @ centred + noise))


@pytest.mark.parametrize("block", [(1, 1), (2, 3), (3, 5), (30, 7), None],
                         ids=["1", "2", "3", "30", "None"])
def test_non_pairs_of_a_strip_reach_no_statistic(block):
    # every pair is negative, so a diagonal 1 or a 0 left in a strip moves the
    # maximum, the histogram range or its counts
    m = _obtuse_simplex(30)
    with blocks_of(block):
        s = coherence_sample(m)
    v = s.values
    assert v.max() < -0.02
    a, b = profile(s, bins=16), profile(_one_strip(v, m.data.shape), bins=16)
    assert (a.mutual_coherence, a.histogram) == (b.mutual_coherence, b.histogram)
    assert (a.histogram[0][0], a.histogram[-1][1]) == (v.min(), v.max())
    assert (a.mean, a.std) == pytest.approx((b.mean, b.std), rel=1e-12, abs=0.0)


@st.composite
def _binned_values(draw):
    """(v, lo, hi, bins), v within [lo, hi]: edges and their neighbours, repeats, inner points."""
    bins = draw(st.sampled_from([1, 2, 3, 10, 511, 512]) | st.integers(1, 512))
    lo = draw(st.sampled_from([-1.0, -0.5, -1e-17, 0.0, 0.3]) | st.floats(-1.0, 1.0))
    hi = lo + draw(st.sampled_from([1e-16, 3e-16, 1e-9, 0.5, 2.0]) | st.floats(1e-16, 2.0))
    assume(hi > lo)
    edges = np.linspace(lo, hi, bins + 1)
    picked = edges[draw(st.lists(st.integers(0, bins), max_size=30))]
    ulps = draw(st.lists(st.integers(-2, 2), min_size=picked.size, max_size=picked.size))
    inner = lo + (hi - lo) * np.array(draw(st.lists(st.floats(0.0, 1.0), max_size=30)))
    repeated = np.full(draw(st.integers(0, 50)), lo + (hi - lo) * draw(st.floats(0.0, 1.0)))
    ends = draw(st.sampled_from([[lo, hi], [lo], [hi], []]))
    v = np.concatenate([ends, picked + np.array(ulps) * np.spacing(picked), inner, repeated])
    v = np.clip(v, lo, hi)
    size = draw(st.sampled_from([v.size, _BIN_CHUNK + 1, 2 * _BIN_CHUNK + 3]))
    return np.resize(v, size if v.size else 0), lo, hi, bins


def _column_slice(v, width):
    """v's values, cycled, as the last width columns of a C-ordered array one column wider."""
    rows = -(-v.size // width)
    base = np.full((rows, width + 1), np.nan)  # a read of the first column spoils the counts
    base[:, 1:] = np.resize(v, rows * width).reshape(rows, width)
    return base[:, 1:]


@settings(max_examples=300, deadline=None)
@given(case=_binned_values(), width=st.sampled_from([None, 1, 7, _BIN_CHUNK + 5]))
@example(case=(np.array([0.25] * 7 + [0.75]), 0.25, 0.75, 512), width=None)  # a value, an outlier
@example(case=(np.linspace(-0.9, -0.1, 9), -0.9, -0.1, 8), width=None)  # every edge a value
@example(case=(np.array([1e-17, 5e-17, 1.1e-16]), 1e-17, 1.1e-16, 512), width=None)  # 1e-16 wide
@example(case=(np.array([0.3, 0.3 + 1e-16]), 0.3, 0.3 + 1e-16, 1), width=None)
@example(case=(np.array([0.3, 0.3 + 1e-16]), 0.3, 0.3 + 1e-16, 512), width=None)  # too many bins
@example(case=(np.zeros(0), -1.0, 1.0, 10), width=None)  # empty
@example(case=(np.zeros(0), -1.0, 1.0, 10), width=7)  # no rows
@example(case=(np.linspace(-0.9, -0.1, 9), -0.9, -0.1, 8), width=_BIN_CHUNK + 5)  # long rows
def test_bin_counts_are_numpys_histogram(case, width):
    v, lo, hi, bins = case
    if width is not None:  # a strided 2-D part, as a strip's columns right of its diagonal block
        v = _column_slice(v, width)
    try:
        want = np.histogram(v.ravel(), bins, range=(lo, hi))[0]
    except ValueError:  # numpy cannot make that many bins in a range a few ulps wide
        with pytest.raises(ValueError):
            _bin_counts(v, lo, hi, bins)
        return
    assert _bin_counts(v, lo, hi, bins).tolist() == want.tolist()


@pytest.mark.parametrize("rows", [16, 12])
def test_histogram_of_tied_pairs_is_numpys(rows):
    # bernoulli pairs are multiples of 1/rows (exactly, at 16 rows), and the
    # bins put edges on them: every strip's ties go through the counter's
    # correction, in both of its pair parts
    m = generate(EnsembleSpec("bernoulli", rows, 200, 4))
    with blocks_of((16, 64)):
        s = coherence_sample(m)  # 13 strips of 1 to 4 blocks
    v = s.values
    lo, hi = float(v.min()), float(v.max())
    steps = round((hi - lo) * rows)
    ties = 0
    for bins in {steps, 2 * steps, steps // 2, steps // 3}:
        counts = [c for _, _, c in profile(s, bins=bins).histogram]
        assert counts == np.histogram(v, bins, range=(lo, hi))[0].tolist()
        interior = np.linspace(lo, hi, bins + 1)[1:-1]
        ties += np.isclose(v[:, None], interior, rtol=0.0, atol=1e-12).any(axis=1).sum()
    assert ties > s.count  # pairs on an interior edge, or within 1e-12 of one


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss from os.wait4")
@pytest.mark.parametrize("env", [{}, {"MALLOC_MMAP_THRESHOLD_": "131072"}],
                         ids=["malloc-default", "mmap-threshold"])
def test_audit_peak_rss_within_one_strip_of_its_matrix(env):
    # audit may hold one Gram block and 3 MB more than a process that holds
    # the package, the matrix and BLAS at work on a strip's columns
    rows, cols = 400, 8000
    h, w = _BLOCK_ROWS, _STRIP_BUDGET // _BLOCK_ROWS
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src, **env)

    def peak_mb(*args):
        # wait4 in a small launcher: a child exec'd from this test process
        # takes this process's peak RSS as its own starting peak
        launcher = ("import os, subprocess, sys\n"
                    "p = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
                    "_, status, usage = os.wait4(p.pid, 0)\n"
                    "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)")
        out = subprocess.run([sys.executable, "-c", launcher, sys.executable, *args], env=env,
                             capture_output=True, text=True, check=True).stdout
        code, kib = map(int, out.split())
        assert code == 0
        return kib / 1024

    audit = peak_mb("-m", "cohaudit", "audit", "--ensemble", "gaussian", "--rows", str(rows),
                    "--cols", str(cols), "--seed", "0")
    control = peak_mb("-c", "import cohaudit\n"
                      f"d = cohaudit.generate(cohaudit.EnsembleSpec('gaussian', {rows}, {cols}, 0)).data\n"
                      f"d[:, :{h}].T @ d[:, :{h}]")
    assert audit <= control + 8 * h * w / 2**20 + 3.0


def test_values_of_a_sample_read_as_one_strip():
    # a first block without its diagonal is taken whole, not masked
    v = np.array([0.25, -0.5, 0.125])
    s = _one_strip(v, (4, 3))
    assert np.array_equal(s.values, v) and not s.values.flags.writeable


def test_cross_coherence_with_an_empty_side():
    left = MeasurementMatrix(np.eye(3))
    empty = MeasurementMatrix(np.zeros((3, 0)))
    for a, b in ((left, empty), (empty, left)):
        assert cross_coherence(a, b) == coherence.CrossCoherenceProfile(
            max_cross=0.0, std=0.0, mean=0.0, sample_count=0)
