import tracemalloc
from contextlib import nullcontext
from dataclasses import FrozenInstanceError, fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cohaudit import (
    DimensionError,
    DomainError,
    EnsembleSpec,
    MeasurementMatrix,
    RatioSample,
    SpectralSample,
    band_frequency,
    coherence_sample,
    energy_identity_gap,
    generate,
    profile,
    sample_ratios,
    sample_spectral,
    spectral_deviation,
    tail_check,
)
from cohaudit import coherence
from cohaudit._streams import k_subset, k_subsets, stream, substream_seed
from cohaudit.bounds import energy_deviation_tail, rip_width, spectral_deviation_tail
from cohaudit.linalg import operator_norm, sym_opnorm
from cohaudit.ripcheck import BLOCK_TRIALS, _columns, _gram_blocks


def test_ratios_orthonormal_exactly_one(ortho_30):
    m = MeasurementMatrix(ortho_30)
    s = sample_ratios(m, 5, 200, 0)
    assert np.max(np.abs(s.values - 1.0)) <= 1e-12
    assert band_frequency(s, 0.0) == 1.0


def test_ratios_k_one_unit_columns(gauss_200x400):
    s = sample_ratios(gauss_200x400, 1, 100, 3)
    assert np.max(np.abs(s.values - 1.0)) <= 1e-12


def test_ratios_mean_near_one(gauss_200x400):
    s = sample_ratios(gauss_200x400, 10, 10000, 42, threads=4)
    assert 0.97 <= float(s.values.mean()) <= 1.03


def test_ratios_deterministic_across_threads(gauss_200x400):
    a = sample_ratios(gauss_200x400, 5, 300, 11, threads=1)
    b = sample_ratios(gauss_200x400, 5, 300, 11, threads=4)
    assert np.array_equal(a.values, b.values)


def test_ratios_rademacher_model(gauss_200x400):
    s = sample_ratios(gauss_200x400, 8, 500, 2, coeff_model="rademacher")
    assert 0.9 <= float(s.values.mean()) <= 1.1


def test_ratios_domain(gauss_200x400):
    with pytest.raises(DomainError):
        sample_ratios(gauss_200x400, 0, 10, 0)
    with pytest.raises(DomainError):
        sample_ratios(gauss_200x400, 401, 10, 0)
    with pytest.raises(DomainError):
        sample_ratios(gauss_200x400, 5, 0, 0)


def test_band_frequency_monotone_in_g(gauss_200x400):
    s = sample_ratios(gauss_200x400, 10, 1000, 5)
    freqs = [band_frequency(s, g) for g in (0.0, 0.1, 0.2, 0.4, 1.0)]
    assert all(b >= a for a, b in zip(freqs, freqs[1:]))
    assert freqs[0] <= 0.01  # continuous ratios almost never hit 1 exactly
    with pytest.raises(DomainError):
        band_frequency(s, -0.1)


def test_gershgorin_band_is_deterministic():
    # |r - 1| <= mu (k-1) holds for every support, not just typically
    m = generate(EnsembleSpec("gaussian", 200, 40, 6))
    mu = profile(coherence_sample(m)).mutual_coherence
    s = sample_ratios(m, 2, 2000, 9)
    assert band_frequency(s, mu * (2 - 1)) == 1.0


def test_spectral_deviation_pair_oracle():
    # for k = 2 the deviation equals the pair coherence exactly
    r = 1.0 / np.sqrt(2.0)
    m = MeasurementMatrix(np.array([[1.0, r], [0.0, r]]))
    dev = spectral_deviation(m, [0, 1])
    assert abs(dev - r) <= 1e-12


def test_spectral_deviation_duplicate_columns():
    m = MeasurementMatrix(np.array([[1.0, 1.0], [0.0, 0.0]]))
    assert abs(spectral_deviation(m, [0, 1]) - 1.0) <= 1e-12


def test_spectral_deviation_orthonormal():
    m = MeasurementMatrix(np.eye(6))
    assert spectral_deviation(m, [0, 3, 5]) <= 1e-12


def test_spectral_deviation_validates_support(gauss_200x400):
    with pytest.raises(DomainError):
        spectral_deviation(gauss_200x400, [1, 1, 2])
    with pytest.raises(DomainError):
        spectral_deviation(gauss_200x400, [0, 400])


def test_spectral_dominates_max_pair_coherence(gauss_200x400):
    rng = np.random.default_rng(3)
    gram = gauss_200x400.data.T @ gauss_200x400.data
    for _ in range(20):
        support = np.sort(rng.choice(400, size=6, replace=False))
        sub = gram[np.ix_(support, support)]
        off = np.abs(sub - np.diag(np.diag(sub)))
        assert spectral_deviation(gauss_200x400, support) >= off.max() - 1e-12


def test_sample_spectral_matches_pair_values():
    m = generate(EnsembleSpec("gaussian", 50, 3, 1))
    vals = coherence_sample(m).values
    s = sample_spectral(m, 2, 50, 4)
    for v in s.values:
        assert np.min(np.abs(np.abs(vals) - v)) <= 1e-12


def test_sample_spectral_deterministic_across_threads(gauss_200x400):
    a = sample_spectral(gauss_200x400, 5, 100, 8, threads=1)
    b = sample_spectral(gauss_200x400, 5, 100, 8, threads=4)
    assert np.array_equal(a.values, b.values)


def test_tail_check_trivial_bound(gauss_200x400):
    s = sample_ratios(gauss_200x400, 5, 200, 1)
    pts = tail_check(s, [0.1, 0.5], lambda t: 1.0)
    assert all(p.ok for p in pts)
    assert all(p.bound == 1.0 for p in pts)


def test_tail_check_zero_bound_slack():
    m = MeasurementMatrix(np.eye(10))
    s = sample_ratios(m, 3, 100, 0)
    pts = tail_check(s, [0.5], lambda t: 0.0)
    # all deviations are zero, so even a zero bound passes via slack
    assert pts[0].empirical == 0.0
    assert pts[0].ok


def test_tail_check_rejects_bad_grid(gauss_200x400):
    s = sample_ratios(gauss_200x400, 5, 50, 1)
    with pytest.raises(DomainError):
        tail_check(s, [0.0], lambda t: 1.0)


def test_tail_domination_gaussian(gauss_200x400):
    sigma = profile(coherence_sample(gauss_200x400)).std
    k = 10
    g = rip_width(k, sigma, "energy")
    ratios = sample_ratios(gauss_200x400, k, 3000, 21)
    pts = tail_check(ratios, [0.5 * g, g, 2 * g],
                     lambda t: energy_deviation_tail(t, k, sigma))
    assert all(p.ok for p in pts)
    gs = rip_width(5, sigma, "spectral")
    spectral = sample_spectral(gauss_200x400, 5, 1000, 22)
    pts = tail_check(spectral, [0.5 * gs, gs, 2 * gs],
                     lambda t: spectral_deviation_tail(t, 5, sigma))
    assert all(p.ok for p in pts)


def test_tail_check_flags_duplicate_column_matrix():
    # a duplicated spike breaks the i.i.d. coherence assumption: the pair
    # shows up far more often than the Bernstein bound allows
    n, N = 16, 10
    data = np.zeros((n, N))
    for j in range(N - 1):
        data[j, j] = 1.0
    data[0, N - 1] = 1.0
    m = MeasurementMatrix(data)
    sigma = profile(coherence_sample(m)).std
    gs = rip_width(2, sigma, "spectral")
    s = sample_spectral(m, 2, 4000, 5)
    pts = tail_check(s, [2 * gs], lambda t: spectral_deviation_tail(t, 2, sigma))
    assert not pts[0].ok


def test_energy_identity_small_cases():
    m = MeasurementMatrix(np.eye(5))
    assert energy_identity_gap(m, [0, 2], [1.0, -2.0]) <= 1e-14
    r = 1.0 / np.sqrt(2.0)
    m2 = MeasurementMatrix(np.array([[1.0, r], [0.0, r]]))
    assert energy_identity_gap(m2, [0, 1], [3.0, 4.0]) <= 1e-12


def test_energy_identity_random_instances():
    m = generate(EnsembleSpec("gaussian", 20, 40, 17))
    rng = np.random.default_rng(17)
    for _ in range(100):
        support = np.sort(rng.choice(40, size=5, replace=False))
        coeffs = rng.standard_normal(5)
        assert energy_identity_gap(m, support, coeffs) <= 1e-10


def test_sym_opnorm_matches_eig_on_large_matrix():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((600, 600))
    sym = (a + a.T) / 2.0
    exact = float(np.max(np.abs(np.linalg.eigvalsh(sym))))
    approx = sym_opnorm(sym)
    assert abs(approx - exact) <= 1e-5 * exact


def test_operator_norm_matches_svd():
    rng = np.random.default_rng(13)
    a = rng.standard_normal((40, 60))
    assert abs(operator_norm(a) - np.linalg.norm(a, 2)) <= 1e-10


def test_norms_exact_on_large_matrices():
    rng = np.random.default_rng(14)
    a = rng.standard_normal((600, 700))
    for mat in (a, a.T):
        exact = np.linalg.norm(mat, 2)
        assert abs(operator_norm(mat) - exact) <= 1e-12 * exact
    sym = a[:, :600] + a[:, :600].T
    exact = float(np.max(np.abs(np.linalg.eigvalsh(sym))))
    assert abs(sym_opnorm(sym) - exact) <= 1e-12 * exact


def block_layout(seed, purpose, k, cols, trials, model=None):
    """Each trial's support (and coefficients), rebuilt from the documented
    layout: block j reads streams (seed, purpose, k, "support" | "coeff", j)."""
    supports, coeffs = [], []
    for j, lo in enumerate(range(0, trials, BLOCK_TRIALS)):
        size = min(BLOCK_TRIALS, trials - lo)
        supports.append(k_subsets(stream(seed, purpose, k, "support", j), cols, k, size))
        rng = stream(seed, purpose, k, "coeff", j)
        coeffs.append(rng.standard_normal((size, k)) if model == "gaussian"
                      else 2.0 * rng.integers(0, 2, size=(size, k)) - 1.0)
    return np.concatenate(supports), np.concatenate(coeffs)


# trial counts on both sides of the first block boundary
BLOCK_TRIAL_COUNTS = st.sampled_from([1, 7, BLOCK_TRIALS - 1, BLOCK_TRIALS, BLOCK_TRIALS + 1,
                                      BLOCK_TRIALS + 130])


@st.composite
def kernel_case(draw):
    rows = draw(st.integers(1, 8))
    cols = draw(st.integers(1, 12))
    k = draw(st.integers(1, cols))
    seed = draw(st.integers(0, 2**32))
    return generate(EnsembleSpec("gaussian", rows, cols, seed)), k, seed


@settings(max_examples=20, deadline=None)
@given(kernel_case(), BLOCK_TRIAL_COUNTS, st.sampled_from(["gaussian", "rademacher"]))
def test_ratio_block_kernel_matches_per_trial_oracle(case, trials, model):
    m, k, seed = case
    s = sample_ratios(m, k, trials, seed, coeff_model=model)
    supports, coeffs = block_layout(seed, "ratio", k, m.cols, trials, model)
    for value, support, c in zip(s.values, supports, coeffs):
        v = m.data[:, support] @ c
        expect = float(v @ v) / float(c @ c)
        # relative to max(r, 1): with one row, +-1 coefficients can cancel
        # exactly, and rounding in another summation order leaves ~1e-33
        assert abs(value - expect) <= 1e-12 * max(expect, 1.0)


@settings(max_examples=20, deadline=None)
@given(kernel_case(), BLOCK_TRIAL_COUNTS)
def test_spectral_block_kernel_matches_per_support_oracle(case, trials):
    m, k, seed = case
    s = sample_spectral(m, k, trials, seed)
    supports, _ = block_layout(seed, "spectral", k, m.cols, trials)
    for value, support in zip(s.values, supports):
        assert abs(value - spectral_deviation(m, support)) <= 1e-12


@settings(max_examples=10, deadline=None)
@given(kernel_case(), st.integers(1, BLOCK_TRIALS + 100))
def test_samples_are_prefixes_of_longer_samples(case, trials):
    m, k, seed = case
    longer = trials + 1500
    assert np.array_equal(sample_ratios(m, k, trials, seed).values,
                          sample_ratios(m, k, longer, seed).values[:trials])
    assert np.array_equal(sample_spectral(m, k, trials, seed).values,
                          sample_spectral(m, k, longer, seed).values[:trials])


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 60), st.data())
def test_k_subsets_rows_are_sorted_distinct_and_in_range(n, data):
    k = data.draw(st.integers(0, n))
    count = data.draw(st.integers(1, 40))
    out = k_subsets(stream(data.draw(st.integers(0, 1000)), "subsets"), n, k, count)
    assert out.shape == (count, k)
    assert np.all(np.diff(out, axis=1) > 0)
    assert np.all((out >= 0) & (out < n))
    if k == n:
        assert np.all(out == np.arange(n))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 200), st.data())
def test_k_subset_is_the_first_row_of_k_subsets(n, data):
    k = data.draw(st.integers(0, n))
    tags = (data.draw(st.integers(0, 1000)), "subset", n)
    assert np.array_equal(k_subset(stream(*tags), n, k), k_subsets(stream(*tags), n, k, 1)[0])


def test_k_subsets_uniform_over_all_subsets():
    draws = 200_000
    out = k_subsets(stream(7, "chi-square"), 7, 3, draws)
    _, counts = np.unique(out @ np.array([49, 7, 1]), return_counts=True)
    assert counts.size == 35  # every 3-subset of range(7) occurs
    expected = draws / 35
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    # 99.9% quantile of chi-square with 35 - 1 degrees of freedom
    assert chi2 <= 65.25


def sampler_path(path):
    """Run the samplers on their "gram" path (the default at these sizes) or
    force their "gather" path: no Gram fits a zero budget."""
    return mock.patch.object(coherence, "_STRIP_BUDGET", 0) if path == "gather" else nullcontext()


def traced_peak(fn):
    return traced_peak_and_held(fn)[0]


def traced_peak_and_held(fn):
    """fn's traced peak, and the traced memory still held once it returns (its result)."""
    tracemalloc.start()
    try:
        result = fn()  # held while the memory is read
        current, peak = tracemalloc.get_traced_memory()
        return peak, current
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("sampler", [sample_ratios, sample_spectral])
def test_sampler_memory_is_bounded_by_chunks(gauss_200x400, sampler):
    # a whole 1024-trial block gathered at once would hold 1024 x 10 x 200
    # floats (16 MiB); chunks of at most 2^16 gathered entries, or the 1.28 MB
    # Gram and its chunks of blocks, stay far below
    sampler(gauss_200x400, 10, 100, 3)
    for path in ("gram", "gather"):
        with sampler_path(path):
            assert traced_peak(lambda: sampler(gauss_200x400, 10, 10_000, 3)) < 4 * 2**20


@pytest.mark.parametrize("sampler", [sample_ratios, sample_spectral])
def test_no_gram_is_built_above_the_strip_budget(sampler):
    m = generate(EnsembleSpec("gaussian", 20, 800, 4))  # 800^2 > 2^19 Gram entries
    sampler(m, 10, 100, 3)
    assert traced_peak(lambda: sampler(m, 10, 3000, 3)) < 800 * 800 * 8


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, 7), cols=st.integers(1, 9), n=st.integers(0, 5),
       k=st.integers(0, 9), seed=st.integers(0, 2**32))
@example(rows=1, cols=5, n=3, k=2, seed=0)
@example(rows=6, cols=4, n=2, k=4, seed=1)
def test_columns_is_the_strided_gather(rows, cols, n, k, seed):
    # bit for bit the strided read data.T[idx]: for a block of sorted supports,
    # as the samplers, _fit and _iht gather them, and for one pick per row, as
    # _omp does; the examples are a one-row matrix and supports of every column
    rng = np.random.default_rng(seed)
    matrix = rng.standard_normal((rows, cols))
    supports = np.sort(rng.permuted(np.tile(np.arange(cols), (n, 1)), axis=1)[:, :k], axis=1)
    picks = rng.integers(0, cols, size=n)
    for idx in (supports, picks):
        got = _columns(matrix, idx)
        assert got.shape == idx.shape + (rows,)
        assert np.ascontiguousarray(got).tobytes() == matrix.T[idx].tobytes()


@st.composite
def gram_path_case(draw):
    """A small unit-norm dictionary with some columns duplicated or negated."""
    rows = draw(st.integers(1, 6))
    base = generate(EnsembleSpec("gaussian", rows, draw(st.integers(1, 8)),
                                 draw(st.integers(0, 2**32)))).data
    picks = draw(st.lists(st.tuples(st.integers(0, base.shape[1] - 1),
                                    st.sampled_from([1.0, -1.0])), max_size=4))
    data = np.column_stack([base] + [sign * base[:, j] for j, sign in picks])
    k = draw(st.integers(1, data.shape[1]) | st.just(data.shape[1]))
    return MeasurementMatrix(data), k, draw(st.integers(0, 2**32))


@settings(max_examples=40, deadline=None)
@given(gram_path_case(), st.sampled_from([1, 300, BLOCK_TRIALS + 5]),
       st.sampled_from(["gaussian", "rademacher"]))
@example((MeasurementMatrix(np.array([[0.6, -0.6], [0.8, -0.8]])), 2, 5), 300, "rademacher")
def test_gram_and_gather_paths_agree(case, trials, model):
    m, k, seed = case
    supports, coeffs = block_layout(seed, "ratio", k, m.cols, trials, model)
    runs = {}
    for path in ("gram", "gather"):
        with sampler_path(path):
            blocks = np.concatenate([g for _, g in _gram_blocks(m.data)(supports)])
            ratios = sample_ratios(m, k, trials, seed, coeff_model=model, threads=2)
            spectral = sample_spectral(m, k, trials, seed, threads=2)
            # two blocks at BLOCK_TRIALS + 5 trials: the threads share one Gram
            assert np.array_equal(ratios.values,
                                  sample_ratios(m, k, trials, seed, coeff_model=model).values)
            assert np.array_equal(spectral.values, sample_spectral(m, k, trials, seed).values)
        runs[path] = blocks, ratios, spectral
    (gram_b, gram_r, gram_s), (gather_b, gather_r, gather_s) = runs["gram"], runs["gather"]
    assert np.max(np.abs(gram_b - gather_b)) <= 1e-12
    images = np.einsum("tkr,tk->tr", m.data.T[supports], coeffs)
    energy = np.einsum("tr,tr->t", images, images)
    for sample in (gram_r, gather_r):
        expect = energy / np.einsum("tk,tk->t", coeffs, coeffs)
        assert np.all(np.abs(sample.values - expect) <= 1e-12 * np.maximum(expect, 1.0))
        # where D_S c is exactly 0, c^T G_S c may round below 0 but not by more
        assert np.all(sample.values[energy == 0.0] >= -1e-15)
    assert np.max(np.abs(gram_r.values - gather_r.values)) <= 1e-12
    assert np.max(np.abs(gram_s.values - gather_s.values)) <= 1e-12
    for g in (0.05, 0.3):
        assert band_frequency(gram_r, g) == band_frequency(gather_r, g)
    grid = [0.123, 0.377, 0.91]
    for a, b in ((gram_r, gather_r), (gram_s, gather_s)):
        assert [p.empirical for p in tail_check(a, grid, lambda t: 0.5)] == \
            [p.empirical for p in tail_check(b, grid, lambda t: 0.5)]


@pytest.mark.parametrize("sampler, args", [
    (sample_ratios, (3, 50, 1.5)),  # int(1.5) drew exactly the sample of seed 1
    (sample_ratios, (3.0, 50, 1)),
    (sample_ratios, (3, 50.0, 1)),
    (sample_spectral, (3, 50, 1.5)),
    (sample_spectral, (np.float64(3), 50, 1)),
    (sample_spectral, (3, 50.0, 1)),
])
def test_samplers_take_only_integer_k_trials_and_seed(gauss_200x400, sampler, args):
    with pytest.raises(TypeError):
        sampler(gauss_200x400, *args)


def test_streams_take_integer_seeds_of_any_integer_type():
    assert stream(np.uint64(7), "a").random() == stream(7, "a").random()
    assert substream_seed(np.int32(7), "a") == substream_seed(7, "a")
    for seed in (1.5, 1.0, "1"):
        with pytest.raises(TypeError):
            stream(seed, "a")
        with pytest.raises(TypeError):
            substream_seed(seed, "a")


def test_substream_seed_is_a_keyed_63_bit_integer():
    seeds = {substream_seed(seed, *tags) for seed in (0, 1) for tags in ((), ("a",), ("a", 2))}
    assert len(seeds) == 6 and all(0 <= s < 2**63 for s in seeds)
    assert substream_seed(1, "a", 2) == substream_seed(1, "a", 2)


def test_k_subsets_rejects_k_above_n():
    with pytest.raises(ValueError) as err:
        k_subsets(stream(0, "a"), 3, 4, 2)
    assert str(err.value) == "need 0 <= k <= n, got k=4, n=3"


def test_reported_input_faults(gauss_200x400):
    with pytest.raises(ValueError) as err:
        sample_ratios(gauss_200x400, 3, 10, 1, coeff_model="uniform")
    assert str(err.value) == "unknown coefficient model 'uniform'"
    with pytest.raises(TypeError) as err:
        tail_check([1.0, 1.1], [0.1], lambda t: 0.5)
    assert str(err.value) == "cannot tail-check list"
    with pytest.raises(DimensionError) as err:
        energy_identity_gap(gauss_200x400, [0, 1], [1.0])
    assert str(err.value) == "support and coeffs must have equal length"


def test_empty_supports_and_operands_have_norm_zero(gauss_200x400):
    assert spectral_deviation(gauss_200x400, []) == 0.0
    assert sym_opnorm(np.zeros((0, 0))) == 0.0
    assert operator_norm(np.zeros((0, 4))) == 0.0
    assert operator_norm(np.zeros((3, 0))) == 0.0


def test_ratio_and_spectral_samples_are_distinct_frozen_dataclasses():
    ratio = RatioSample(values=[1.0, 2.0], trials=2)
    spectral = SpectralSample(values=[1.0, 2.0], trials=2)
    assert [f.name for f in fields(ratio)] == [f.name for f in fields(spectral)] == [
        "values", "trials"]
    assert repr(ratio) == "RatioSample(values=array([1., 2.]), trials=2)"
    assert repr(spectral) == "SpectralSample(values=array([1., 2.]), trials=2)"
    assert ratio != spectral and not ratio.values.flags.writeable
    for name in ("trials", "extra"):
        with pytest.raises(FrozenInstanceError):
            setattr(spectral, name, 3)
