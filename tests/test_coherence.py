import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
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
from cohaudit.util import write_csv


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
    blocked = coherence_sample(m, block_cols=7)
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
    from cohaudit.coherence import CoherenceSample
    s = CoherenceSample(values=np.array([0.0, 0.5, 1.0]), source_dims=(10, 3))
    prof = profile(s, bins=2)
    hist = prof.histogram
    assert len(hist) == 2
    assert sum(c for _, _, c in hist) == 3
    # max value lands in the last (right-closed) bin
    assert hist[-1][2] == 2
    assert hist[0][0] == 0.0 and hist[-1][1] == 1.0


def test_profile_degenerate_all_equal():
    from cohaudit.coherence import CoherenceSample
    s = CoherenceSample(values=np.zeros(6), source_dims=(4, 4))
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
    blocked = cross_coherence(a, b, block_cols=4)
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
    block = data.draw(st.integers(1, cols))
    bins = data.draw(st.none() | st.integers(1, 30))
    streamed = coherence_sample(generate(EnsembleSpec(ensemble, rows, cols, seed)),
                                block_cols=block)
    whole = CoherenceSample(values=streamed.values, source_dims=(rows, cols))
    a, b = profile(streamed, bins=bins), profile(whole, bins=bins)
    one_strip = block >= cols - 1
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
@pytest.mark.parametrize("block", [1, 3, 11, None])
def test_moments_match_fsum_oracle(matrix, block):
    s = coherence_sample(matrix, block_cols=block)
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
    streamed = coherence_sample(matrix, block_cols=matrix.cols)
    whole = CoherenceSample(values=streamed.values, source_dims=matrix.data.shape)
    assert profile(streamed) == profile(whole)
    assert normality_check(streamed) == normality_check(whole)


def test_profile_and_normality_share_two_gram_passes():
    passes = []
    s = coherence_sample(generate(EnsembleSpec("gaussian", 20, 40, 3)), block_cols=9)
    strips = s._strips
    s._strips = lambda: passes.append(1) or strips()
    profile(s, bins=7)
    normality_check(s)
    assert len(passes) == 2


def test_statistics_memory_below_half_the_pair_array():
    # 17,997,000 pairs: 137 MiB as one array.  One strip peaks at about 34 MiB.
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
