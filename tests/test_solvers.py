import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import differential_bpdn
import reference_solvers as ref
from reference_solvers import lasso as fista_lasso
from cohaudit import (
    DomainError,
    EnsembleSpec,
    MeasurementMatrix,
    bpdn,
    cosamp,
    generate,
    iht,
    lasso,
    omp,
    phase_curve,
    recovery_trial,
    wilson_interval,
)
from cohaudit import solvers
from cohaudit._streams import stream
from cohaudit.linalg import operator_norm
from cohaudit.ripcheck import BLOCK_TRIALS, GATHER_ENTRIES
from test_ripcheck import traced_peak, traced_peak_and_held


def tied(size, max_size):
    """Integer-valued vectors: few distinct magnitudes, so many ties."""
    return st.lists(st.integers(-3, 3).map(float), min_size=size, max_size=max_size)


@settings(max_examples=200, deadline=None)
@given(v=tied(1, 40), k=st.integers(0, 45))
def test_top_k_ties_match_lexsort(v, k):
    v = np.array(v)
    keep = np.flatnonzero(solvers._top_k(np.abs(v), k))
    assert keep.tolist() == sorted(np.lexsort((np.arange(v.size), -np.abs(v)))[:k])


@settings(max_examples=100, deadline=None)
@given(columns=st.lists(tied(12, 12), min_size=1, max_size=6), k=st.integers(0, 14))
def test_top_k_per_column_matches_lexsort(columns, k):
    block = np.array(columns).T
    keep = solvers._top_k(np.abs(block), k)
    for t, v in enumerate(block.T):
        assert np.flatnonzero(keep[:, t]).tolist() == \
            sorted(np.lexsort((np.arange(v.size), -np.abs(v)))[:k])


def test_soft_threshold_values():
    v = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    assert np.array_equal(ref.soft_threshold(v, 1.0), [-1.0, 0.0, 0.0, 0.0, 1.0])


def test_omp_single_atom(gauss_100x500):
    y = 0.8 * gauss_100x500.data[:, 7]
    res = omp(gauss_100x500, y, k=1)
    assert np.flatnonzero(res.estimate).tolist() == [7]
    assert abs(res.estimate[7] - 0.8) <= 1e-10
    assert res.residual_norm <= 1e-10
    assert res.converged


def test_omp_orthonormal_exact(ortho_30):
    rng = np.random.default_rng(4)
    x = np.zeros(30)
    x[[2, 9, 17, 21, 28]] = rng.standard_normal(5)
    y = ortho_30 @ x
    res = omp(ortho_30, y, k=5)
    assert np.max(np.abs(res.estimate - x)) <= 1e-10


def test_omp_zero_rhs(gauss_100x500):
    res = omp(gauss_100x500, np.zeros(100), k=3)
    assert np.array_equal(res.estimate, np.zeros(500))
    assert res.converged


def test_omp_residual_nonincreasing(gauss_100x500):
    rng = np.random.default_rng(6)
    y = rng.standard_normal(100)
    norms = [omp(gauss_100x500, y, k=k).residual_norm for k in range(1, 12)]
    assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))


def test_omp_recovery_rate(gauss_100x500):
    wins = sum(recovery_trial(gauss_100x500, 5, "omp", 0.0, 100 + t).success
               for t in range(100))
    assert wins >= 95


def test_omp_validates_k(gauss_100x500):
    with pytest.raises(DomainError):
        omp(gauss_100x500, np.zeros(100), k=101)


def test_iht_identity_one_step():
    m = MeasurementMatrix(np.eye(4))
    y = np.array([0.0, 3.0, 0.0, -1.0])
    res = iht(m, y, 2)
    assert np.array_equal(res.estimate, y)
    assert res.converged
    assert res.iterations <= 2
    assert np.array_equal(res.estimate, ref.hard_threshold(m.data.T @ y, 2))


@pytest.mark.parametrize("dictionary", ["gaussian", "spikes"])
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 8))
def test_iht_residual_never_grows(dictionary, seed, k):
    # at the step 1 / ||M||_2^2 each iteration minimizes a majorizer of
    # ||y - M x||^2 that touches it at the current iterate (Blumensath &
    # Davies 2008), so stopping one iteration later never leaves a larger residual
    rng = np.random.default_rng(seed)
    if dictionary == "gaussian":
        data = rng.standard_normal((20, 50))
        data /= np.linalg.norm(data, axis=0)
    else:
        data = spikes_with_copies().data
    y = rng.standard_normal(data.shape[0])
    norms = []
    for j in range(1, 21):
        with mock.patch.object(solvers, "_IHT_MAX_ITER", j):
            norms.append(iht(data, y, k).residual_norm)
    for earlier, later in zip(norms, norms[1:]):
        assert later <= earlier * (1.0 + 1e-12)


def test_iht_recovery_rate(gauss_200x400):
    hits = 0
    for t in range(50):
        tr = recovery_trial(gauss_200x400, 8, "iht", 0.0, 7000 + t)
        hits += tr.rel_error <= 1e-6
    assert hits >= 45


def test_iht_sparsity_capped(monkeypatch, gauss_200x400):
    monkeypatch.setattr(solvers, "_IHT_MAX_ITER", 50)
    rng = np.random.default_rng(8)
    y = rng.standard_normal(200)
    res = iht(gauss_200x400, y, 6)
    assert np.sum(res.estimate != 0.0) <= 6


def test_cosamp_orthonormal_one_iteration(ortho_30):
    rng = np.random.default_rng(9)
    x = np.zeros(30)
    x[[1, 5, 22]] = rng.standard_normal(3)
    y = ortho_30 @ x
    res = cosamp(ortho_30, y, 3)
    assert np.max(np.abs(res.estimate - x)) <= 1e-10
    assert res.iterations == 1
    assert res.converged


def test_cosamp_zero_rhs(gauss_100x500):
    res = cosamp(gauss_100x500, np.zeros(100), 4)
    assert np.array_equal(res.estimate, np.zeros(500))
    assert res.converged


def test_cosamp_recovery_rate(gauss_100x500):
    wins = sum(recovery_trial(gauss_100x500, 10, "cosamp", 0.0, 300 + t).success
               for t in range(50))
    assert wins >= 40


def test_cosamp_sparsity_capped(monkeypatch, gauss_100x500):
    monkeypatch.setattr(solvers, "_COSAMP_MAX_ITER", 20)
    rng = np.random.default_rng(10)
    y = rng.standard_normal(100)
    res = cosamp(gauss_100x500, y, 7)
    assert np.sum(res.estimate != 0.0) <= 7


@pytest.mark.parametrize("solver_fn,kwargs", [
    (omp, {"k": 4}),
    (iht, {"k": 4}),
    (cosamp, {"k": 4}),
])
def test_solver_scaling_by_two_is_exact(monkeypatch, gauss_100x500, solver_fn, kwargs):
    # scaling y by a power of two scales every floating-point intermediate
    # exactly, so the outputs must match bit for bit
    monkeypatch.setattr(solvers, "_IHT_MAX_ITER", 200)
    monkeypatch.setattr(solvers, "_COSAMP_MAX_ITER", 20)
    rng = np.random.default_rng(11)
    x = np.zeros(500)
    x[[10, 50, 90, 130]] = rng.standard_normal(4)
    y = gauss_100x500.data @ x
    a = solver_fn(gauss_100x500, y, **kwargs)
    b = solver_fn(gauss_100x500, 2.0 * y, **kwargs)
    assert np.array_equal(2.0 * a.estimate, b.estimate)


def test_lasso_orthonormal_closed_form(ortho_30):
    rng = np.random.default_rng(12)
    y = rng.standard_normal(30)
    res = lasso(ortho_30, y, 0.3)
    oracle = ref.soft_threshold(ortho_30.T @ y, 0.3)
    assert np.max(np.abs(res.estimate - oracle)) <= 1e-8
    assert res.converged


def test_lasso_objective_never_increases(gauss_200x400):
    rng = np.random.default_rng(13)
    y = rng.standard_normal(200)
    res = fista_lasso(gauss_200x400, y, 0.05, max_iter=300)
    trace = res.info["objective_trace"]
    assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))


def test_lasso_zero_lam_is_least_squares_fit(ortho_30):
    rng = np.random.default_rng(14)
    y = rng.standard_normal(30)
    res = lasso(ortho_30, y, 0.0)
    assert res.residual_norm <= 1e-8


def test_bpdn_large_epsilon_returns_zero(gauss_100x500):
    rng = np.random.default_rng(15)
    y = rng.standard_normal(100)
    res = bpdn(gauss_100x500, y, float(np.linalg.norm(y)) + 1.0)
    assert np.array_equal(res.estimate, np.zeros(500))
    assert res.converged
    assert "zero-solution" in res.flags


def test_bpdn_zero_rhs(gauss_100x500):
    res = bpdn(gauss_100x500, np.zeros(100), 0.5)
    assert np.array_equal(res.estimate, np.zeros(500))
    assert res.converged


def test_bpdn_residual_matches_epsilon(gauss_200x400):
    rng = np.random.default_rng(16)
    x = np.zeros(400)
    x[[5, 100, 300]] = rng.standard_normal(3)
    y = gauss_200x400.data @ x + 0.01 * rng.standard_normal(200)
    eps = 0.1
    res = bpdn(gauss_200x400, y, eps)
    assert abs(res.residual_norm - eps) <= 0.021 * eps
    assert res.converged


@pytest.mark.parametrize("seed", range(20))
def test_bpdn_tiny_epsilon_root_meets_epsilon(seed):
    # one path segment from ||y|| down to 1e-9 ||y||: the root's discriminant
    # must not cancel to rounding level
    m = generate(EnsembleSpec("gaussian", 5, 8, seed))
    y = 1.5 * m.data[:, 2]
    eps = 1e-9 * np.linalg.norm(y)
    res = bpdn(m, y, eps)
    assert res.converged
    assert np.linalg.norm(y - m.data @ res.estimate) <= eps * (1 + 1e-6)


def test_bpdn_noiseless_recovery_small():
    m = generate(EnsembleSpec("gaussian", 40, 80, 21))
    hits = 0
    for t in range(20):
        tr = recovery_trial(m, 3, "bpdn", 0.0, 400 + t)
        hits += tr.rel_error <= 1e-5
    assert hits >= 18


def test_bpdn_infeasible_epsilon_flagged():
    # inconsistent overdetermined system: no x gets the residual near zero
    data = np.vstack([np.eye(2), np.ones((1, 2)) * 0.5])
    m = MeasurementMatrix(data / np.linalg.norm(data, axis=0))
    y = np.array([1.0, -1.0, 5.0])
    res = bpdn(m, y, 1e-6)
    assert "infeasible-epsilon" in res.flags
    assert not res.converged


def test_bpdn_singular_gram_stops_at_last_breakpoint(monkeypatch):
    m = generate(EnsembleSpec("gaussian", 20, 40, 0))
    x = np.zeros(40)
    x[[3, 11, 17, 29, 36]] = [1.0, -0.7, 0.5, 0.9, -1.2]
    y = m.data @ x
    assert bpdn(m, y, 1e-6).iterations > 3
    solve, calls = np.linalg.solve, []

    def failing_solve(a, b):
        # the active Gram system turns singular at the third breakpoint
        calls.append(None)
        if len(calls) >= 3:
            raise np.linalg.LinAlgError("singular matrix")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", failing_solve)
    res = bpdn(m, y, 1e-6)
    monkeypatch.undo()
    assert res.flags == ("singular-gram",) and not res.converged
    assert res.iterations == 3
    # two active atoms; the one that joined at this breakpoint is zero to rounding
    assert 1 <= np.count_nonzero(res.estimate) <= 2
    assert abs(res.residual_norm - np.linalg.norm(y - m.data @ res.estimate)) <= 1e-12
    # the last breakpoint lies on the lasso path at its lambda
    on_path = lasso(m, y, res.info["lam"]).estimate
    assert np.max(np.abs(res.estimate - on_path)) <= 1e-12


def lasso_objective(data, y, x, lam):
    r = y - data @ x
    return 0.5 * float(r @ r) + lam * float(np.sum(np.abs(x)))


def small_problem(seed, rows, extra):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((rows, rows + extra))
    data /= np.linalg.norm(data, axis=0)
    return data, rng.standard_normal(rows)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 8), extra=st.integers(0, 6),
       frac=st.floats(0.01, 0.99))
def test_bpdn_exact_against_kkt_and_fista(seed, rows, extra, frac):
    # rows <= cols: a gaussian dictionary then spans R^rows, so every
    # epsilon in (0, ||y||) is reachable
    data, y = small_problem(seed, rows, extra)
    eps = frac * float(np.linalg.norm(y))
    res = bpdn(data, y, eps)
    assert res.converged and not res.flags
    x, lam = res.estimate, res.info["lam"]
    r = y - data @ x
    assert abs(float(np.linalg.norm(r)) - eps) <= 1e-9 * eps
    assert abs(res.residual_norm - eps) <= 1e-9 * eps
    # KKT certificate of the lasso at lam
    corr = data.T @ r
    assert lam > 0.0
    assert np.max(np.abs(corr)) <= lam * (1.0 + 1e-9)
    sup = np.flatnonzero(x)
    assert np.all(np.abs(corr[sup] - lam * np.sign(x[sup])) <= 1e-9 * lam)
    # r is then dual feasible, and its duality gap certifies the objective
    objective = lasso_objective(data, y, x, lam)
    assert objective - (float(r @ y) - 0.5 * float(r @ r)) <= 1e-9 * objective
    # the FISTA reference never does better; its own dual point bounds
    # the optimum from below
    ref = fista_lasso(data, y, lam, max_iter=20000, tol=1e-14)
    assert objective <= ref.info["objective"] * (1.0 + 1e-9)
    r_ref = y - data @ ref.estimate
    nu = r_ref * min(1.0, lam / float(np.max(np.abs(data.T @ r_ref))))
    assert float(nu @ y) - 0.5 * float(nu @ nu) <= objective * (1.0 + 1e-9)
    # lasso at bpdn's lam is the same point of the path
    assert np.linalg.norm(lasso(data, y, lam).estimate - x) <= 1e-9 * np.linalg.norm(x)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 8), extra=st.integers(0, 6),
       frac=st.floats(0.01, 0.99))
def test_lasso_exact_against_kkt_and_fista(seed, rows, extra, frac):
    data, y = small_problem(seed, rows, extra)
    lam = frac * float(np.max(np.abs(data.T @ y)))
    res = lasso(data, y, lam)
    assert res.converged and not res.flags
    assert res.info == {"lam": lam}
    x = res.estimate
    corr = data.T @ (y - data @ x)
    assert np.max(np.abs(corr)) <= lam * (1.0 + 1e-9)
    sup = np.flatnonzero(x)
    assert np.all(np.abs(corr[sup] - lam * np.sign(x[sup])) <= 1e-9 * lam)
    fista = fista_lasso(data, y, lam, max_iter=20000, tol=1e-14)
    assert lasso_objective(data, y, x, lam) <= fista.info["objective"] * (1.0 + 1e-9)


def test_lasso_at_or_above_max_correlation_is_zero(gauss_100x500):
    rng = np.random.default_rng(17)
    y = rng.standard_normal(100)
    top = float(np.max(np.abs(gauss_100x500.data.T @ y)))
    for lam in (top, 2.0 * top):
        res = lasso(gauss_100x500, y, lam)
        assert np.array_equal(res.estimate, np.zeros(500))
        assert res.converged and res.iterations == 0 and not res.flags
        assert res.residual_norm == float(np.linalg.norm(y))


def test_lasso_rejects_bad_lam(gauss_100x500):
    y = np.ones(100)
    for lam in (-1.0, float("nan"), float("inf")):
        with pytest.raises(DomainError):
            lasso(gauss_100x500, y, lam)


def test_bpdn_duplicated_and_negated_columns():
    rng = np.random.default_rng(20)
    base = rng.standard_normal((20, 40))
    base /= np.linalg.norm(base, axis=0)
    data = np.hstack([base, base[:, :5], -base[:, 5:10]])
    x = np.zeros(40)
    x[[0, 3, 7, 22]] = [1.5, -0.8, 2.0, 0.6]
    y = base @ x
    res = bpdn(MeasurementMatrix(data), y, 0.0)
    assert res.converged
    assert res.residual_norm <= 1e-12 * np.linalg.norm(y)
    est = res.estimate
    merged = est[:40].copy()
    merged[:5] += est[40:45]
    merged[5:10] -= est[45:50]
    assert np.max(np.abs(merged - x)) <= 1e-10
    assert np.sum(np.abs(est)) <= np.sum(np.abs(x)) * (1.0 + 1e-12)


def basis_pursuit_optimum(data, y):
    """min ||x||_1 s.t. data x = y, over the vertices: supports of independent columns."""
    best = np.inf
    for size in range(1, data.shape[0] + 1):
        for sup in itertools.combinations(range(data.shape[1]), size):
            sub = data[:, sup]
            if np.linalg.matrix_rank(sub) == size:
                coef = np.linalg.lstsq(sub, y, rcond=None)[0]
                if np.linalg.norm(sub @ coef - y) <= 1e-12 * np.linalg.norm(y):
                    best = min(best, float(np.sum(np.abs(coef))))
    return best


def test_lasso_and_bpdn_with_tied_correlations():
    # on unit-norm columns y = d0 - d1 has |d0^T y| = |d1^T y| = max |D^T y|,
    # so both atoms must enter the path at its start
    for seed in range(60):
        data = generate(EnsembleSpec("gaussian", 4, 5, seed)).data
        y = data[:, 0] - data[:, 1]
        lam = 0.5 * float(np.max(np.abs(data.T @ y)))
        res = lasso(data, y, lam)
        assert res.converged and not res.flags
        corr = data.T @ (y - data @ res.estimate)
        assert np.max(np.abs(corr)) <= lam * (1.0 + 1e-9)
        sup = np.flatnonzero(res.estimate)
        assert np.all(np.abs(corr[sup] - lam * np.sign(res.estimate[sup])) <= 1e-9 * lam)
        res = bpdn(data, y, 0.0)
        assert res.converged and not res.flags
        assert np.sum(np.abs(res.estimate)) <= basis_pursuit_optimum(data, y) * (1.0 + 1e-9)


def test_bpdn_rejects_bad_epsilon(gauss_100x500):
    y = np.ones(100)
    for eps in (-1.0, float("nan")):
        with pytest.raises(DomainError):
            bpdn(gauss_100x500, y, eps)


def test_omp_flags_stalled():
    # after e0 and e1 the residual is zero, so the next pick repeats e0
    res = omp(np.eye(4), np.array([1.0, 1.0, 0.0, 0.0]), k=3)
    assert res.flags == ("stalled",)
    assert res.iterations == 2
    assert not res.converged


def test_cosamp_flags_regularized_and_stagnated():
    # the merged set grows past 20 columns in 20 rows: least squares is rank deficient
    m = generate(EnsembleSpec("gaussian", 20, 100, 1))
    y = np.random.default_rng(1).standard_normal(20)
    res = cosamp(m, y, 10)
    assert res.flags == ("regularized", "stagnated")
    assert not res.converged


def test_bpdn_deterministic(gauss_200x400):
    rng = np.random.default_rng(17)
    y = rng.standard_normal(200)
    a = bpdn(gauss_200x400, y, 0.1)
    b = bpdn(gauss_200x400, y, 0.1)
    assert np.array_equal(a.estimate, b.estimate)
    assert a.residual_norm == b.residual_norm


def test_bpdn_noisy_support_recovery(gauss_200x400):
    # exact support match is capped well below 1: whenever a true entry
    # falls under the 10 sigma detection threshold no solver can find it
    hits = sum(recovery_trial(gauss_200x400, 5, "bpdn", 0.01, 5000 + t).success
               for t in range(60))
    assert hits >= 27


def test_recovery_trial_deterministic(gauss_100x500):
    a = recovery_trial(gauss_100x500, 6, "omp", 0.0, 99)
    b = recovery_trial(gauss_100x500, 6, "omp", 0.0, 99)
    assert a.rel_error == b.rel_error
    assert a.success == b.success


def test_recovery_trial_zero_sparsity(gauss_100x500):
    tr = recovery_trial(gauss_100x500, 0, "omp", 0.0, 1)
    assert tr.success
    assert tr.rel_error == 0.0
    assert tr.support_precision == 1.0 and tr.support_recall == 1.0


def test_recovery_trial_support_metrics(gauss_100x500):
    tr = recovery_trial(gauss_100x500, 8, "omp", 0.0, 55)
    if tr.success:
        assert tr.support_precision == 1.0 and tr.support_recall == 1.0


def test_recovery_trial_unknown_solver(gauss_100x500):
    with pytest.raises(ValueError):
        recovery_trial(gauss_100x500, 3, "magic", 0.0, 0)


def test_wilson_interval_oracle():
    lo, hi = wilson_interval(50, 100)
    assert abs(lo - 0.4038) <= 1e-3
    assert abs(hi - 0.5962) <= 1e-3
    lo, hi = wilson_interval(0, 10)
    assert lo == 0.0 and hi > 0.0
    lo, hi = wilson_interval(10, 10)
    assert hi == 1.0 and lo < 1.0


def test_phase_curve_orthonormal_all_succeed(ortho_30):
    m = MeasurementMatrix(ortho_30)
    points = phase_curve(m, [1, 3], "omp", 30, 0.0, 5)
    assert all(p.rate == 1.0 for p in points)
    assert all(p.ci_low <= p.rate <= p.ci_high for p in points)


def test_phase_curve_validates_k_list(gauss_100x500):
    with pytest.raises(ValueError):
        phase_curve(gauss_100x500, [], "omp", 10, 0.0, 0)
    with pytest.raises(ValueError):
        phase_curve(gauss_100x500, [5, 3], "omp", 10, 0.0, 0)


def test_phase_curve_deterministic_across_threads(gauss_100x500):
    a = phase_curve(gauss_100x500, [2, 8], "omp", 40, 0.0, 7, threads=1)
    b = phase_curve(gauss_100x500, [2, 8], "omp", 40, 0.0, 7, threads=4)
    assert a == b


def test_phase_curve_takes_a_matrix_not_an_ensemble_spec(monkeypatch):
    # every trial runs on the one given matrix: a spec is not one
    def unreachable(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(solvers, "_trials", unreachable)
    with pytest.raises(TypeError):
        phase_curve(EnsembleSpec("gaussian", 40, 80, 31), [2], "omp", 20, 0.0, 13)


@pytest.mark.parametrize("solver, noise, k_list, successes", [
    ("omp", 0.0, [2, 6, 10, 14], [20, 20, 18, 12]),
    ("iht", 0.0, [2, 6, 10, 14], [14, 12, 3, 2]),
    ("cosamp", 0.0, [2, 6, 10, 14], [20, 20, 18, 5]),
    ("bpdn", 0.0, [2, 6, 10, 14], [20, 20, 20, 19]),
    ("bpdn", 0.01, [2, 6], [18, 8]),
    ("omp", 0.01, [2, 6, 10, 14], [18, 10, 5, 2]),
    ("iht", 0.01, [2, 6, 10, 14], [14, 4, 3, 0]),
    ("cosamp", 0.01, [2, 6, 10, 14], [18, 10, 8, 1]),
])
def test_phase_curve_pinned_success_counts(solver, noise, k_list, successes):
    # pins the planted-trial stream layout: a change here changes every
    # phase report, so it must be deliberate
    m = generate(EnsembleSpec("gaussian", 40, 80, 3))
    points = phase_curve(m, k_list, solver, 20, noise, 5)
    assert [p.successes for p in points] == successes


def outcomes(results):
    return [(r.success, r.iterations, r.converged, r.flags) for r in results]


@pytest.mark.parametrize("noise", [0.0, 0.01])
@pytest.mark.parametrize("solver", solvers.SOLVERS)
def test_trials_are_prefixes_of_larger_blocks(solver, noise):
    # trial i depends only on (seed, k, i): the draws of an 8-trial block are
    # the first 8 columns of a 16-trial block's, bit for bit, and trial 0 is
    # recovery_trial at that seed.  The solved outcomes are compared, not
    # floats: the batched kernels' last bits depend on the block width.
    m = generate(EnsembleSpec("gaussian", 30, 60, 8))
    op, k, seed = solvers._Operand(m), 5, 21
    assert np.array_equal(solvers._plant(seed, "signal", k, m.cols, 8),
                          solvers._plant(seed, "signal", k, m.cols, 16)[:, :8])
    noisy = solvers._observe(np.zeros((m.rows, 16)), noise, seed, "noise", k)
    assert np.array_equal(solvers._observe(np.zeros((m.rows, 8)), noise, seed, "noise", k),
                          noisy[:, :8])
    assert np.array_equal(solvers._observe(np.zeros(m.rows), noise, seed, "noise", k),
                          noisy[:, 0])
    short = outcomes(solvers._trials(op, [k], solver, noise, seed, 8)[0])
    assert short == outcomes(solvers._trials(op, [k], solver, noise, seed, 16)[0])[:8]
    assert short[0] == outcomes([recovery_trial(m, k, solver, noise, seed)])[0]
    # across the block boundary: block 0 still holds the first trials, and
    # block 1 is its own 3-column solve of block 1's draws and noise
    across = solvers._trials(op, [k], solver, noise, seed, BLOCK_TRIALS + 3)[0]
    assert outcomes(across[:8]) == short
    ys = solvers._observe(m.data @ solvers._plant(seed, "signal", k, m.cols, 3, 1), noise, seed,
                          "noise", k, j=1)
    kernel = {"omp": solvers._omp, "iht": solvers._iht, "cosamp": solvers._cosamp}.get(solver)
    block1 = kernel(op, ys, k) if kernel else \
        solvers._bpdn(m.data, ys, solvers._bpdn_epsilon(noise, m.rows))
    assert [(r.iterations, r.residual_norm, r.converged, r.flags) for r in across[BLOCK_TRIALS:]] \
        == [(r.iterations, r.residual_norm, r.converged, r.flags) for r in block1]


@pytest.mark.parametrize("j", [0, 1])
def test_block_noise_is_the_noise_stream_jumped_to_the_block(j):
    # block 0 draws the unjumped stream(seed, "noise", k), so every run of at
    # most BLOCK_TRIALS trials keeps its bits; block j jumps j * 2^128 draws
    noise = solvers._observe(np.zeros((6, 4)), 0.5, 3, "noise", 2, j=j)
    want = 0.5 * stream(3, "noise", 2, jump=j).standard_normal((4, 6)).T
    assert np.array_equal(noise, want)
    if j == 0:
        assert np.array_equal(want, 0.5 * stream(3, "noise", 2).standard_normal((4, 6)).T)
    else:
        assert not np.array_equal(noise, solvers._observe(np.zeros((6, 4)), 0.5, 3, "noise", 2))


def test_trials_hold_one_block_at_a_time():
    # three blocks of trials peak within one block's peak plus the result
    # records they keep: each block is planted, solved and scored, and its
    # arrays are dropped, before the next is planted
    op = solvers._Operand(generate(EnsembleSpec("gaussian", 30, 200, 3)))

    def run(trials):
        return solvers._trials(op, [5], "omp", 0.0, 1, trials)

    run(10)
    one, _ = traced_peak_and_held(lambda: run(BLOCK_TRIALS))
    three, records = traced_peak_and_held(lambda: run(3 * BLOCK_TRIALS))
    assert three < one + records


def spikes_with_copies():
    """30 spikes, then copies of the first five and negated copies of the next five."""
    eye = np.eye(30)
    return MeasurementMatrix(np.hstack([eye, eye[:, :5], -eye[:, 5:10]]))


@pytest.mark.parametrize("dictionary, solver, options, noise, flags", [
    ("gaussian", "omp", {}, 0.0, set()),
    ("gaussian", "omp", {}, 0.01, set()),
    ("gaussian", "cosamp", {}, 0.0, {"regularized", "stagnated"}),
    ("gaussian", "cosamp", {}, 0.01, {"regularized", "stagnated"}),
    ("gaussian", "iht", {"max_iter": 300}, 0.0, set()),
    ("gaussian", "iht", {"max_iter": 300}, 0.01, set()),
    ("gaussian", "iht", {"max_iter": 5}, 0.0, set()),
    ("spikes", "omp", {}, 0.01, set()),
    ("spikes", "cosamp", {}, 0.0, {"regularized", "stagnated"}),
    ("spikes", "cosamp", {}, 0.01, {"regularized", "stagnated"}),
    ("spikes", "iht", {"max_iter": 300}, 0.0, set()),
    ("spikes", "iht", {"max_iter": 5}, 0.01, set()),
])
def test_batched_trials_match_per_trial_reference(monkeypatch, dictionary, solver, options,
                                                  noise, flags):
    # The spikes dictionary has exact copies and negated copies, and every
    # product on it is exact, so a rank-deficient step is decided the same
    # way by both paths.  Noiseless omp on it is left to the block test
    # below: after an exact fit the reference's lstsq leaves a residual of
    # order 1e-16, whose argmax, not the data, decides between 'stalled'
    # and one more atom.
    m = generate(EnsembleSpec("gaussian", 30, 60, 8)) if dictionary == "gaussian" \
        else spikes_with_copies()
    op = solvers._Operand(m)
    if "max_iter" in options:  # the reference's option, the library's constant
        monkeypatch.setattr(solvers, "_IHT_MAX_ITER", options["max_iter"])
    seen = set()
    for k in (2, 6, 10, 14):
        batched = outcomes(solvers._trials(op, [k], solver, noise, 4, 12)[0])
        reference = ref.recovery_trials(m.data, k, solver, noise, 4, 12, **options)
        assert batched == reference
        seen.update(f for r in reference for f in r[3])
    assert flags <= seen


def test_batched_omp_stops_each_column_on_its_own():
    # exact arithmetic: after two atoms the first column's residual is 0, so
    # the pick falls to column 0, which is in their span ('regularized'),
    # then repeats ('stalled'); the others stall after one or two atoms
    r = 1.0 / np.sqrt(2.0)
    data = np.array([[r, 1, 0, 0], [r, 0, 1, 0], [0, 0, 0, 1.0], [0, 0, 0, 0]])
    ys = np.array([[1, 0.3, 0, 0], [0, 0, 0, 0], [1, 1, 0, 0], [0, 0, 2.0, 0]]).T
    batched = solvers._omp(solvers._Operand(data), ys, 4)
    got = [(r.iterations, r.converged, r.flags) for r in batched]
    assert got == [(3, False, ("regularized", "stalled")), (0, True, ()),
                   (1, False, ("stalled",)), (2, False, ("stalled",))]
    for res, y in zip(batched, ys.T):
        want = ref.omp(data, y, 4)
        assert (res.iterations, res.converged, res.flags) == \
            (want.iterations, want.converged, want.flags)
        # a rank-deficient fit has many coefficient vectors, one fitted value
        assert np.allclose(data @ res.estimate, data @ want.estimate, atol=1e-12)


def test_phase_curve_computes_the_iht_step_once(monkeypatch, gauss_100x500):
    calls = []

    def counted(data):
        calls.append(data.shape)
        return operator_norm(data)

    monkeypatch.setattr(solvers, "operator_norm", counted)
    phase_curve(gauss_100x500, [1, 2, 3], "iht", 4, 0.0, 0)
    assert calls == [(100, 500)]


@st.composite
def spike_problem(draw):
    """Signed spikes, some copied or negated once, and planted signals of one magnitude.

    Every column has one nonzero and every row at most two, so each product
    rounds the same in any summation order: the kernels and the reference
    see the same numbers, and equal magnitudes are real ties for top-k and
    argmax.
    """
    rows = draw(st.integers(1, 7))
    base = np.eye(rows)[:, draw(st.permutations(range(rows)))]
    base *= draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=rows, max_size=rows))
    copies = draw(st.lists(st.tuples(st.integers(0, rows - 1), st.sampled_from([1.0, -1.0])),
                           max_size=rows, unique_by=lambda c: c[0]))
    data = np.column_stack([base] + [sign * base[:, j] for j, sign in copies])
    data = data[:, draw(st.permutations(range(data.shape[1])))]
    solver = draw(st.sampled_from(["iht", "omp"]))
    k = draw(st.integers(0, rows if solver == "omp" else data.shape[1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    trials = draw(st.integers(1, 5))
    truths = np.zeros((data.shape[1], trials))
    for t in range(trials):
        truths[rng.choice(data.shape[1], k, replace=False), t] = rng.choice([-1.0, 1.0], k)
    truths *= draw(st.sampled_from([0.5, 1.0, 3.0]))
    # noiseless omp is left out: after an exact fit, rounding in the reference's
    # lstsq residual, not the data, picks the next atom
    noise = draw(st.sampled_from([0.0, 0.01] if solver == "iht" else [0.01]))
    ys = data @ truths + noise * rng.standard_normal((rows, trials))
    return data, solver, k, truths, ys, noise


def outcome(res, truth, noise):
    rel, est_sup, true_sup = solvers._score(res.estimate, truth, noise)
    success = rel <= solvers.NOISELESS_SUCCESS_TOL if noise == 0 else est_sup == true_sup
    return success, res.iterations, res.converged, res.flags


@settings(max_examples=150, deadline=None)
@given(spike_problem(), st.sampled_from([3, 40]))
def test_kernels_match_the_reference_per_column(problem, max_iter):
    # the batched kernels against the one-signal reference, column by column:
    # duplicated and negated atoms tie in every correlation, equal planted
    # magnitudes tie in IHT's top-k, and both must break the ties as the
    # reference does (to the lower index)
    data, solver, k, truths, ys, noise = problem
    op = solvers._Operand(data)
    if solver == "iht":
        with mock.patch.object(solvers, "_IHT_MAX_ITER", max_iter):
            got = solvers._iht(op, ys, k)
        want = [ref.iht(data, y, k, max_iter=max_iter) for y in ys.T]
    else:
        got = solvers._omp(op, ys, k)
        want = [ref.omp(data, y, k) for y in ys.T]
    for g, w, truth in zip(got, want, truths.T):
        assert outcome(g, truth, noise) == outcome(w, truth, noise)
        assert np.allclose(data @ g.estimate, data @ w.estimate, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("solver, options", [("omp", {}), ("iht", {"_IHT_MAX_ITER": 20})])
def test_solver_memory_is_bounded_by_chunks(monkeypatch, solver, options):
    # 2000 trials at k = 30 on 40 x 80: a block's k support columns, or its
    # omp bases, gathered whole would hold trials x k x rows floats, 15 of the
    # (cols x trials) arrays that planting and the dense products need; the
    # kernels gather chunks of at most GATHER_ENTRIES entries instead
    m = generate(EnsembleSpec("gaussian", 40, 80, 3))
    op, trials = solvers._Operand(m), 2000
    for name, value in options.items():  # solvers' module constants
        monkeypatch.setattr(solvers, name, value)
    solvers._trials(op, [30], solver, 0.0, 1, 10)
    peak = traced_peak(lambda: solvers._trials(op, [30], solver, 0.0, 1, trials))
    assert peak < 10 * m.cols * trials * 8 + 2 * GATHER_ENTRIES * 8


def test_cosamp_refit_memory_is_bounded_by_its_chunks(gauss_100x500):
    # a phase-solvers cosamp refit: 50 trials at k = 28, each on a merged
    # support of 3k = 84 atoms.  A chunk's gathered columns and Gram product,
    # or its product, ridged copy and Cholesky factor, hold at most
    # GATHER_ENTRIES floats; the rest is a few arrays of the mask's size
    data = gauss_100x500.data
    rng = np.random.default_rng(0)
    mask = np.zeros((data.shape[1], 50), dtype=bool)
    for t in range(mask.shape[1]):
        mask[rng.choice(data.shape[1], 84, replace=False), t] = True
    corr_y = data.T @ (data @ rng.standard_normal(mask.shape))
    idx = np.arange(mask.shape[1])
    peak = traced_peak(lambda: solvers._fit(data, corr_y, idx, mask, [[] for _ in idx]))
    assert peak < GATHER_ENTRIES * 8 + 3 * mask.size * 8
    # the last chunk's products are freed before the result is scattered, so
    # the peak is one chunk beside the (columns, m) arrays, not beside the result
    assert peak < GATHER_ENTRIES * 8 + 0.8 * mask.size * 8


def same_per_column(data, ys, epsilon):
    """The lockstep block's SolveResults against the one-signal path's, repr for repr."""
    want = [ref.bpdn(data, y, epsilon) for y in ys.T]
    assert [repr(r) for r in solvers._bpdn(data, ys, epsilon)] == [repr(r) for r in want]
    return want


@pytest.mark.parametrize("seed", range(1, 9))
def test_lockstep_bpdn_is_the_one_signal_path_on_phase_blocks(seed):
    # phase-solvers' bpdn (gaussian 100 x 500, 2 trials at each k), every k
    # in one block as phase_curve solves it: each column's result is bit for
    # bit the lone column's, whatever else is in its block
    m = generate(EnsembleSpec("gaussian", 100, 500, seed))
    ys = np.hstack([m.data @ solvers._plant(seed, "signal", k, 500, 2)
                    for k in (4, 8, 12, 16, 20, 24)])
    same_per_column(m.data, ys, 0.0)


def test_lockstep_bpdn_is_the_one_signal_path_at_the_epsilon_root():
    m = generate(EnsembleSpec("gaussian", 40, 120, 3))
    epsilon = solvers._bpdn_epsilon(0.01, 40)
    ys = np.hstack([solvers._observe(m.data @ solvers._plant(3, "signal", k, 120, 10), 0.01, 3,
                                     "noise", k) for k in (2, 5, 8, 11, 14)])
    want = same_per_column(m.data, ys, epsilon)
    # every column stops inside a segment, at the root of ||r - g v|| = epsilon
    assert all(r.converged and abs(r.residual_norm - epsilon) <= 1e-9 * epsilon for r in want)


def test_lockstep_bpdn_is_the_one_signal_path_with_copied_atoms():
    # duplicated and negated atoms tie in every correlation, on gaussian
    # atoms and on spikes, where every product is exact
    rng = np.random.default_rng(20)
    base = rng.standard_normal((20, 40))
    base /= np.linalg.norm(base, axis=0)
    eye = np.eye(12)
    for data in (np.hstack([base, base[:, :5], -base[:, 5:10]]),
                 np.hstack([eye, eye[:, :4], -eye[:, 4:8]])):
        ys = data @ rng.choice([-1.0, 0.0, 0.0, 1.0, 0.5], (data.shape[1], 6))
        for epsilon in (0.0, 1e-9, 0.3):
            same_per_column(data, ys, epsilon)


def test_lockstep_bpdn_singular_gram_leaves_the_other_columns_going():
    # an atom 1e-9 from another makes two of these columns' active Grams
    # singular to rounding; they stop at their last breakpoint, the rest go on
    base = generate(EnsembleSpec("gaussian", 6, 8, 8)).data
    rng = np.random.default_rng(8)
    data = np.hstack([base, base[:, :1] + 1e-9 * rng.standard_normal((6, 1))])
    data /= np.linalg.norm(data, axis=0)
    want = same_per_column(data, data @ rng.choice([-1.0, 0.0, 1.0, 0.5], (9, 6)), 0.0)
    assert [r.flags for r in want] == [(), (), (), ("singular-gram",), ("singular-gram",), ()]


def test_lockstep_bpdn_linalg_error_stays_with_its_column(monkeypatch):
    # np.linalg.solve raises for one column's Gram at its third breakpoint,
    # inside a stack of the other columns' Grams of the same size: that column
    # stops there ('singular-gram'), and every other column's result is
    # unchanged, bit for bit
    m = generate(EnsembleSpec("gaussian", 20, 40, 0))
    ys = m.data @ solvers._plant(5, "signal", 5, 40, 6)
    unpatched = [ref.bpdn(m.data, y, 1e-6) for y in ys.T]
    solve, grams, stacked = np.linalg.solve, [], []

    def capture(a, b):
        grams.append(a.copy())
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", capture)
    ref.bpdn(m.data, ys[:, 0], 1e-6)
    target = grams[2]

    def failing(a, b):
        if any(np.array_equal(g, target) for g in a.reshape(-1, *a.shape[-2:])):
            stacked.append(len(a) if a.ndim == 3 else 1)
            raise np.linalg.LinAlgError("singular matrix")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", failing)
    want = same_per_column(m.data, ys, 1e-6)
    monkeypatch.undo()
    assert max(stacked) > 1  # the failing system was solved in a stack
    assert want[0].flags == ("singular-gram",) and want[0].iterations == 3
    assert [repr(r) for r in want[1:]] == [repr(r) for r in unpatched[1:]]


@pytest.mark.parametrize("frac", [0.0, 0.02, 0.3, 0.9, 1.0, 1.5])
def test_lasso_is_the_one_signal_path_to_lam_stop(frac, gauss_100x500):
    problems = [small_problem(seed, 8, 6) for seed in range(10)]
    rng = np.random.default_rng(5)
    problems.append((gauss_100x500.data, gauss_100x500.data @ solvers._plant(5, "signal", 12,
                                                                              500, 1)[:, 0]))
    problems.append((gauss_100x500.data, rng.standard_normal(100)))
    for data, y in problems:
        lam = frac * float(np.max(np.abs(data.T @ y)))
        assert repr(lasso(data, y, lam)) == repr(ref.lasso_path(data, y, lam))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_lockstep_bpdn_is_the_one_signal_path_on_random_blocks(seed):
    # a sample of differential_bpdn.py's problems: gaussian atoms, copies,
    # signed spikes, nearly parallel atoms and overdetermined dictionaries
    rng = np.random.default_rng(seed)
    kind, data = differential_bpdn.dictionary(rng)
    ys = differential_bpdn.observations(rng, kind, data)
    top = float(np.linalg.norm(ys, axis=0).max())
    for epsilon in (0.0, 1e-9 * top, 0.3 * top):
        same_per_column(data, ys, epsilon)


@pytest.mark.parametrize("solve, arg", [(omp, 3), (iht, 3), (cosamp, 3), (lasso, 0.1),
                                        (bpdn, 0.0)], ids=lambda v: getattr(v, "__name__", None))
@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200])
def test_solvers_reject_observations_without_a_finite_norm(gauss_100x500, solve, arg, bad):
    # at NaN cosamp failed inside numpy and iht and lasso returned converged;
    # at inf omp returned a non-finite estimate and bpdn 'infeasible-epsilon'
    y = gauss_100x500.data[:, :3].sum(axis=1)
    y[[4, 40]] = bad
    with pytest.raises(DomainError) as err:
        solve(gauss_100x500, y, arg)
    assert str(err.value) == "y must be finite, with a finite squared norm"


@pytest.mark.parametrize("solve, arg", [(omp, 1), (iht, 1), (cosamp, 1), (lasso, 0.1),
                                        (bpdn, 0.0)], ids=lambda v: getattr(v, "__name__", None))
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_solvers_reject_a_non_finite_matrix(solve, arg, bad):
    # a plain array is not checked as a MeasurementMatrix is: at NaN omp
    # returned converged with a NaN estimate, iht failed inside numpy, cosamp
    # did not converge and bpdn reported 'infeasible-epsilon'
    data = np.eye(3, 4)
    data[0, 3] = bad
    with pytest.raises(DomainError) as err:
        solve(data, np.eye(3)[0], arg)
    assert str(err.value) == "matrix entries must be finite"


@pytest.mark.parametrize("k_list, trials", [([2.7], 2), ([2, np.float64(3.0)], 2), ([2], 2.0)])
def test_phase_curve_takes_only_integer_k_and_trials(gauss_100x500, k_list, trials):
    # int(k) ran k = 2.7 and reported k = 2
    with pytest.raises(TypeError):
        phase_curve(gauss_100x500, k_list, "omp", trials, 0.0, 1)


@pytest.mark.parametrize("solve", [omp, iht, cosamp], ids=lambda f: f.__name__)
def test_solvers_take_only_an_integer_k(gauss_100x500, solve):
    with pytest.raises(TypeError):
        solve(gauss_100x500, gauss_100x500.data[:, 0], 2.5)


def test_cosamp_refit_frees_its_sort_before_the_result(gauss_100x500):
    # 200 columns on merged supports of 84 atoms.  The result is cols x
    # columns floats; the stable sort that orders each column's set is as
    # large in int64, and while any view of it is held it stays alive beside
    # the result (3.4 result sizes at the peak, against 2.6 with m rows copied)
    data = gauss_100x500.data
    rng = np.random.default_rng(0)
    mask = np.zeros((data.shape[1], 200), dtype=bool)
    for t in range(mask.shape[1]):
        mask[rng.choice(data.shape[1], 84, replace=False), t] = True
    corr_y = data.T @ (data @ rng.standard_normal(mask.shape))
    idx = np.arange(mask.shape[1])
    peak = traced_peak(lambda: solvers._fit(data, corr_y, idx, mask, [[] for _ in idx]))
    assert peak < GATHER_ENTRIES * 8 + 2.5 * mask.size * 8
    # and the scatter into the result builds no index arrays beside it (1.9
    # result sizes when it did, with the last chunk's products still held)
    assert peak < GATHER_ENTRIES * 8 + 1.5 * mask.size * 8


def test_reported_input_faults(gauss_100x500):
    cases = [(lambda: wilson_interval(0, 0), "trials must be >= 1, got 0"),
             (lambda: wilson_interval(5, 4), "need 0 <= successes <= trials, got 5/4"),
             (lambda: phase_curve(gauss_100x500, [2], "omp", 0, 0.0, 1),
              "trials must be >= 1, got 0")]
    for call, message in cases:
        with pytest.raises(DomainError) as err:
            call()
        assert str(err.value) == message
