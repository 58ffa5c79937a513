import math
import tracemalloc

import numpy as np
import pytest

from cohaudit import (
    DimensionError,
    DomainError,
    EnsembleSpec,
    MeasurementMatrix,
    bpdn,
    coherence_sample,
    generate,
    joint_dictionary,
    separate,
    separation,
    separation_feasibility,
    separation_trial,
    separation_trials,
    spikes_fourier_pair,
)
from cohaudit.cli import main
from cohaudit.ripcheck import BLOCK_TRIALS
from test_ripcheck import traced_peak_and_held


def test_joint_dictionary_layout():
    left = MeasurementMatrix(np.eye(2))
    right = MeasurementMatrix(np.array([[1.0, 0.0, 0.6], [0.0, 1.0, 0.8]]))
    joint = joint_dictionary(left, right)
    assert joint.rows == 2 and joint.cols == 5
    assert np.array_equal(joint.data[:, :2], left.data)
    assert np.array_equal(joint.data[:, 2:], right.data)


def test_joint_dictionary_empty_right():
    left = generate(EnsembleSpec("gaussian", 10, 15, 0))
    right = MeasurementMatrix(np.zeros((10, 0)))
    joint = joint_dictionary(left, right)
    assert np.array_equal(joint.data, left.data)


def test_joint_dictionary_holds_one_copy():
    # the joint adopts its column stack, so building it holds one joint-sized array
    pair = spikes_fourier_pair(256)
    tracemalloc.start()
    try:
        joint = joint_dictionary(*pair)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * joint.data.nbytes


def test_spikes_fourier_pair_holds_its_two_matrices():
    # the harmonic rows take their cosines and sines in place
    spikes_fourier_pair(8)
    tracemalloc.start()
    try:
        pair = spikes_fourier_pair(256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * sum(m.data.nbytes for m in pair)


def test_joint_dictionary_row_mismatch():
    with pytest.raises(DimensionError):
        joint_dictionary(MeasurementMatrix(np.eye(3)), MeasurementMatrix(np.eye(4)))


def test_joint_coherence_includes_cross_block():
    left = generate(EnsembleSpec("gaussian", 12, 3, 1))
    right = generate(EnsembleSpec("gaussian", 12, 2, 2))
    joint = joint_dictionary(left, right)
    vals = coherence_sample(joint).values
    assert vals.size == 10  # C(5,2): 3 left pairs + 1 right pair + 6 cross
    cross = left.data.T @ right.data
    for c in cross.ravel():
        assert np.min(np.abs(vals - c)) <= 1e-15


def test_separate_empty_right_equals_bpdn():
    left = generate(EnsembleSpec("gaussian", 30, 60, 5))
    right = MeasurementMatrix(np.zeros((30, 0)))
    rng = np.random.default_rng(3)
    x = np.zeros(60)
    x[[4, 30, 55]] = rng.standard_normal(3)
    y = left.data @ x
    x_hat, e_hat, _ = separate(left, right, y, 1e-6)
    direct = bpdn(left, y, 1e-6)
    assert np.array_equal(x_hat, direct.estimate)
    assert e_hat.size == 0


def test_separate_splits_the_joint_bpdn_estimate():
    d, b = spikes_fourier_pair(32)
    rng = np.random.default_rng(4)
    y = d.data[:, [3, 20]] @ rng.standard_normal(2) + b.data[:, [5, 9]] @ rng.standard_normal(2)
    x_hat, e_hat, res = separate(d, b, y, 0.01)
    direct = bpdn(joint_dictionary(d, b), y, 0.01)
    assert x_hat.shape == (32,) and e_hat.shape == (b.cols,)
    assert np.array_equal(np.concatenate([x_hat, e_hat]), direct.estimate)
    assert np.array_equal(res.estimate, direct.estimate)
    assert (res.iterations, res.residual_norm, res.converged, res.flags) == \
        (direct.iterations, direct.residual_norm, direct.converged, direct.flags)


def test_separate_zero_measurement():
    d, b = spikes_fourier_pair(16)
    x_hat, e_hat, res = separate(d, b, np.zeros(16), 0.0)
    assert np.count_nonzero(x_hat) == 0
    assert np.count_nonzero(e_hat) == 0
    assert res.converged


def test_separation_problem_validation():
    d, b = spikes_fourier_pair(8)
    with pytest.raises(DimensionError):
        separate(d, b, np.zeros(7), 0.0)
    with pytest.raises(DomainError):
        separate(d, b, np.zeros(8), -1.0)


def test_spikes_fourier_single_trial_accuracy():
    d, b = spikes_fourier_pair(128)
    trial = separation_trial(d, b, 4, 4, 1001)
    assert trial.x_rel_error <= 1e-3
    assert trial.e_rel_error <= 1e-3
    assert trial.x_support_ok and trial.e_support_ok
    assert separation_feasibility(d, b, 4, 4).margin > 0.0


def test_separation_trial_deterministic():
    d, b = spikes_fourier_pair(64)
    a = separation_trial(d, b, 3, 3, 42)
    c = separation_trial(d, b, 3, 3, 42)
    assert a.x_rel_error == c.x_rel_error
    assert a.e_rel_error == c.e_rel_error


@pytest.mark.parametrize("noise", [0.0, 0.01])
def test_separation_trials_are_prefixes_of_longer_runs(noise):
    # trial i depends only on (seed, n_x, n_e, i): 8 trials are the first 8
    # of 16 in every field, bit for bit (repr tells every float apart)
    d, b = spikes_fourier_pair(32)
    short = separation_trials(d, b, 2, 3, 8, 13, noise)
    long = separation_trials(d, b, 2, 3, 16, 13, noise)
    assert [repr(t) for t in short] == [repr(t) for t in long[:8]]
    # and across the block boundary, where block 1 draws its own streams
    across = separation_trials(d, b, 2, 3, BLOCK_TRIALS + 3, 13, noise)
    assert [repr(t) for t in short] == [repr(t) for t in across[:8]]
    assert len({repr(t) for t in across[BLOCK_TRIALS:] + across[:3]}) == 6


def test_separation_trials_hold_one_block_at_a_time():
    # three blocks of trials peak within one block's peak plus the result
    # records they keep, as phase's trials do
    d, b = spikes_fourier_pair(32)

    def run(trials):
        return separation_trials(d, b, 2, 3, trials, 13)

    run(10)
    one, _ = traced_peak_and_held(lambda: run(BLOCK_TRIALS))
    three, records = traced_peak_and_held(lambda: run(3 * BLOCK_TRIALS))
    assert three < one + records


@pytest.mark.parametrize("noise", [0.0, 0.01])
def test_separation_trial_is_trial_zero(noise):
    d, b = spikes_fourier_pair(32)
    for seed in range(4):
        assert repr(separation_trial(d, b, 2, 3, seed, noise)) == \
            repr(separation_trials(d, b, 2, 3, 6, seed, noise)[0])


@pytest.mark.parametrize("n", [32, 64, 128])
def test_noiseless_separation_trials_are_exact(n):
    # the residual budget is 0 without noise, so bpdn runs to the basis
    # pursuit endpoint and both components come back to rounding
    for t in separation_trials(*spikes_fourier_pair(n), 3, 3, 20, 1):
        assert t.converged
        assert t.x_rel_error <= 1e-12 and t.e_rel_error <= 1e-12


@pytest.mark.parametrize("n", [32, 64, 128])
def test_noisy_separation_trials_meet_the_derived_budget(n):
    # with noise the budget is 1.1 sigma sqrt(n), as in phase, and every
    # converged trial's residual certifies it
    noise = 0.01
    trials = separation_trials(*spikes_fourier_pair(n), 3, 3, 20, 1, noise)
    assert any(t.converged for t in trials)
    for t in trials:
        if t.converged:
            assert t.residual_norm <= 1.1 * noise * math.sqrt(n) * (1 + 1e-9)


def test_separation_trials_take_threads_by_keyword():
    # threads is keyword-only, so a stray positional value cannot become a thread count
    d, b = spikes_fourier_pair(32)
    with pytest.raises(TypeError):
        separation_trials(d, b, 2, 3, 8, 13, 0.01, 0.07)


def test_separation_trials_validate_counts():
    d, b = spikes_fourier_pair(8)
    with pytest.raises(DomainError):
        separation_trials(d, b, 1, 1, 0, 0)
    with pytest.raises(DomainError):
        separation_trials(d, b, 9, 1, 2, 0)
    with pytest.raises(DimensionError):
        separation_trials(d, MeasurementMatrix(np.eye(4)), 1, 1, 2, 0)


def test_separate_builds_the_joint_once_per_run(monkeypatch, capsys):
    calls = []

    def counted(left, right):
        calls.append((left.cols, right.cols))
        return joint_dictionary(left, right)

    monkeypatch.setattr(separation, "joint_dictionary", counted)
    assert main(["separate", "--preset", "spikes-fourier", "--n", "16", "--nx", "1",
                 "--ne", "1", "--trials", "7", "--threads", "2"]) == 0
    capsys.readouterr()
    assert calls == [(16, 16)]


def test_separate_csv_rows_are_separation_trials(tmp_path, capsys):
    csv = tmp_path / "sep.csv"
    assert main(["separate", "--preset", "spikes-fourier", "--n", "32", "--nx", "2",
                 "--ne", "3", "--trials", "5", "--noise", "0.01",
                 "--seed", "4", "--csv", str(csv)]) == 0
    capsys.readouterr()
    trials = separation_trials(*spikes_fourier_pair(32), 2, 3, 5, 4, 0.01)
    rows = ["%d,%.12g,%.12g,%d,%d,%d" % (i, t.x_rel_error, t.e_rel_error, t.x_support_ok,
                                          t.e_support_ok, t.converged)
            for i, t in enumerate(trials)]
    assert csv.read_text().splitlines()[1:] == rows


def test_separation_feasibility_spikes_fourier():
    d, b = spikes_fourier_pair(128)
    cond = separation_feasibility(d, b, 4, 4)
    # identity block has exactly zero coherence spread
    assert cond.g_x == 0.0
    assert abs(cond.margin - 0.66) <= 0.02
    assert cond.ok


def test_separation_feasibility_full_corruption():
    # with every measurement corrupted the signal is unidentifiable, and the
    # margin of the pair says so
    d, b = spikes_fourier_pair(128)
    cond = separation_feasibility(d, b, 4, 128)
    assert cond.margin <= 0.0
    assert not cond.ok
    m = generate(EnsembleSpec("gaussian", 32, 64, 13))
    assert separation_feasibility(m, MeasurementMatrix(np.eye(32)), 3, 32).margin < 0.0


def test_separation_feasibility_orthogonal_blocks():
    eye = np.eye(16)
    cond = separation_feasibility(MeasurementMatrix(eye[:, :8]), MeasurementMatrix(eye[:, 8:]),
                                  3, 3)
    assert cond.g_joint == 0.0  # zero spreads through and through


@pytest.mark.parametrize("args", [(2.5, 2, 3, 1), (2, np.float64(2.0), 3, 1), (2, 2, 3.0, 1),
                                  (2, 2, 3, 1.5)])
def test_separation_trials_take_only_integer_counts_and_seed(args):
    left, right = spikes_fourier_pair(8)
    with pytest.raises(TypeError):
        separation_trials(left, right, *args)
