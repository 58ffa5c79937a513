import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_solvers as ref
from reference_solvers import lasso as fista_lasso
from cohaudit import (
    DimensionError,
    DomainError,
    EnsembleSpec,
    MeasurementMatrix,
    SparseSignal,
    bpdn,
    cosamp,
    generate,
    hard_threshold,
    iht,
    lasso,
    omp,
    phase_curve,
    recovery_trial,
    wilson_interval,
)
from cohaudit import solvers
from cohaudit._streams import substream_seed
from cohaudit.linalg import operator_norm


def test_sparse_signal_roundtrip():
    s = SparseSignal(dim=6, support=[1, 4], values=[2.0, -3.0])
    x = s.to_dense()
    assert np.array_equal(x, [0.0, 2.0, 0.0, 0.0, -3.0, 0.0])
    back = SparseSignal.from_dense(x)
    assert np.array_equal(back.support, s.support)
    assert np.array_equal(back.values, s.values)


def test_sparse_signal_validation():
    with pytest.raises(ValueError):
        SparseSignal(dim=4, support=[2, 2], values=[1.0, 1.0])
    with pytest.raises(ValueError):
        SparseSignal(dim=4, support=[3, 1], values=[1.0, 1.0])
    with pytest.raises(ValueError):
        SparseSignal(dim=4, support=[1], values=[0.0])
    with pytest.raises(ValueError):
        SparseSignal(dim=4, support=[4], values=[1.0])
    with pytest.raises(DimensionError):
        SparseSignal(dim=4, support=[1], values=[1.0, 2.0])


def test_hard_threshold_ties_pick_lower_index():
    out = hard_threshold(np.array([1.0, -1.0, 1.0, 0.5]), 2)
    assert np.array_equal(out, [1.0, -1.0, 0.0, 0.0])
    assert np.array_equal(hard_threshold(np.array([1.0, 2.0]), 0), [0.0, 0.0])


def tied(size, max_size):
    """Integer-valued vectors: few distinct magnitudes, so many ties."""
    return st.lists(st.integers(-3, 3).map(float), min_size=size, max_size=max_size)


@settings(max_examples=200, deadline=None)
@given(v=tied(1, 40), k=st.integers(0, 45))
def test_top_k_ties_match_lexsort(v, k):
    v = np.array(v)
    keep = np.flatnonzero(solvers._top_k(np.abs(v), k))
    assert keep.tolist() == sorted(np.lexsort((np.arange(v.size), -np.abs(v)))[:k])
    assert np.array_equal(hard_threshold(v, k), ref.hard_threshold(v, k))


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


def test_omp_residual_tol_stop(gauss_100x500):
    rng = np.random.default_rng(5)
    x = np.zeros(500)
    x[[3, 77, 200]] = rng.standard_normal(3)
    y = gauss_100x500.data @ x
    res = omp(gauss_100x500, y, residual_tol=1e-8)
    assert res.residual_norm <= 1e-8
    assert res.converged
    assert np.sum(res.estimate != 0.0) <= 4


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
    with pytest.raises(ValueError):
        omp(gauss_100x500, np.zeros(100))


def test_iht_identity_one_step():
    m = MeasurementMatrix(np.eye(4))
    y = np.array([0.0, 3.0, 0.0, -1.0])
    res = iht(m, y, 2)
    assert np.array_equal(res.estimate, y)
    assert res.converged
    assert res.iterations <= 2
    assert np.array_equal(res.estimate, hard_threshold(m.data.T @ y, 2))


def test_iht_bad_step(gauss_200x400):
    res = iht(gauss_200x400, np.ones(200), 5, step=0.0)
    assert np.array_equal(res.estimate, np.zeros(400))
    assert not res.converged
    assert "bad-step" in res.flags


def test_iht_recovery_rate(gauss_200x400):
    hits = 0
    for t in range(50):
        tr = recovery_trial(gauss_200x400, 8, "iht", 0.0, 7000 + t,
                            solver_options={"max_iter": 500, "tol": 1e-12})
        hits += tr.rel_error <= 1e-6
    assert hits >= 45


def test_iht_sparsity_capped(gauss_200x400):
    rng = np.random.default_rng(8)
    y = rng.standard_normal(200)
    res = iht(gauss_200x400, y, 6, max_iter=50)
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


def test_cosamp_sparsity_capped(gauss_100x500):
    rng = np.random.default_rng(10)
    y = rng.standard_normal(100)
    res = cosamp(gauss_100x500, y, 7, max_iter=20)
    assert np.sum(res.estimate != 0.0) <= 7


@pytest.mark.parametrize("solver_fn,kwargs", [
    (omp, {"k": 4}),
    (iht, {"k": 4, "max_iter": 200}),
    (cosamp, {"k": 4, "max_iter": 20}),
])
def test_solver_scaling_by_two_is_exact(gauss_100x500, solver_fn, kwargs):
    # scaling y by a power of two scales every floating-point intermediate
    # exactly, so the outputs must match bit for bit
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


def test_iht_flags_diverged():
    m = generate(EnsembleSpec("gaussian", 20, 100, 1))
    y = np.random.default_rng(1).standard_normal(20)
    res = iht(m, y, 5, step=10.0)
    assert res.flags == ("diverged",)
    assert not res.converged
    assert res.residual_norm > 10.0 * np.linalg.norm(y)


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


def test_phase_curve_fresh_matrix_mode():
    spec = EnsembleSpec("gaussian", 40, 80, 31)
    points = phase_curve(spec, [2], "omp", 20, 0.0, 13, fresh_matrix=True)
    assert points[0].trials == 20
    assert points[0].rate >= 0.9


@pytest.mark.parametrize("solver, noise, k_list, successes", [
    ("omp", 0.0, [2, 6, 10, 14], [20, 18, 16, 12]),
    ("iht", 0.0, [2, 6, 10, 14], [15, 6, 1, 3]),
    ("cosamp", 0.0, [2, 6, 10, 14], [20, 20, 17, 3]),
    ("bpdn", 0.0, [2, 6, 10, 14], [20, 20, 20, 17]),
    ("bpdn", 0.01, [2, 6], [19, 12]),
    ("omp", 0.01, [2, 6, 10, 14], [19, 14, 7, 5]),
    ("iht", 0.01, [2, 6, 10, 14], [14, 4, 0, 0]),
    ("cosamp", 0.01, [2, 6, 10, 14], [19, 16, 8, 1]),
])
def test_phase_curve_pinned_success_counts(solver, noise, k_list, successes):
    # pins the planted-trial stream layout: a change here changes every
    # phase report, so it must be deliberate
    m = generate(EnsembleSpec("gaussian", 40, 80, 3))
    points = phase_curve(m, k_list, solver, 20, noise, 5)
    assert [p.successes for p in points] == successes


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
    ("gaussian", "iht", {"step": 10.0, "max_iter": 300}, 0.0, {"diverged"}),
    ("spikes", "omp", {}, 0.01, set()),
    ("spikes", "cosamp", {}, 0.0, {"regularized", "stagnated"}),
    ("spikes", "cosamp", {}, 0.01, {"regularized", "stagnated"}),
    ("spikes", "iht", {"max_iter": 300}, 0.0, set()),
    ("spikes", "iht", {"step": 10.0, "max_iter": 300}, 0.01, {"diverged"}),
])
def test_batched_trials_match_per_trial_reference(dictionary, solver, options, noise, flags):
    # The spikes dictionary has exact copies and negated copies, and every
    # product on it is exact, so a rank-deficient step is decided the same
    # way by both paths.  Noiseless omp on it is left to the block test
    # below: after an exact fit the reference's lstsq leaves a residual of
    # order 1e-16, whose argmax, not the data, decides between 'stalled'
    # and one more atom.
    m = generate(EnsembleSpec("gaussian", 30, 60, 8)) if dictionary == "gaussian" \
        else spikes_with_copies()
    op = solvers._Operand(m)
    seen = set()
    for k in (2, 6, 10, 14):
        seeds = [substream_seed(4, "trial", k, t) for t in range(12)]
        batched = [(r.success, r.iterations, r.converged, r.flags)
                   for r in solvers._trials(op, k, solver, noise, seeds, options)]
        reference = [ref.recovery_trial(m.data, k, solver, noise, seed, **options)
                     for seed in seeds]
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
