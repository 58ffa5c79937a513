"""Sparse recovery solvers and Monte Carlo recovery harnesses.

Greedy (omp, cosamp), thresholding (iht), and convex (lasso and bpdn,
both on the exact lasso homotopy path).  All solvers are
deterministic functions of their inputs; randomness only enters through
the trial harnesses, which use keyed streams.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._streams import k_subset, stream, substream_seed
from .ensembles import EnsembleSpec, MeasurementMatrix, generate
from .errors import DimensionError, DomainError
from .linalg import operator_norm
from .ripcheck import _chunks
from .util import frozen_copy, parallel_map

SOLVERS = ("omp", "iht", "cosamp", "bpdn")

# Relative reconstruction error below which a noiseless trial counts as
# an exact recovery.
NOISELESS_SUCCESS_TOL = 1e-4

# Least-squares blocks, relative to a block's largest diagonal entry: the
# ridge added to a rank-deficient block, and the squared Cholesky pivot of
# the ridged block below which a column counts as dependent on the others.
_RIDGE = 1e-12
_DEPENDENT_PIVOT = 1e-8


@dataclass(frozen=True)
class SparseSignal:
    """Explicit sparse vector: sorted distinct support plus nonzero values."""

    dim: int
    support: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        sup = frozen_copy(self.support, int)
        val = frozen_copy(self.values)
        if sup.size != val.size:
            raise DimensionError("support and values must have equal length")
        if sup.size:
            if np.unique(sup).size != sup.size:
                raise ValueError("support indices must be distinct")
            if not np.all(np.diff(sup) > 0):
                raise ValueError("support must be sorted ascending")
            if sup[0] < 0 or sup[-1] >= self.dim:
                raise ValueError(f"support indices must lie in [0, {self.dim})")
            if np.any(val == 0.0):
                raise ValueError("values must be nonzero")
        object.__setattr__(self, "support", sup)
        object.__setattr__(self, "values", val)

    @property
    def sparsity(self):
        return int(self.support.size)

    def to_dense(self):
        x = np.zeros(self.dim)
        x[self.support] = self.values
        return x

    @classmethod
    def from_dense(cls, x):
        x = np.asarray(x, dtype=np.float64)
        support = np.flatnonzero(np.abs(x) > 0.0)
        return cls(dim=x.size, support=support, values=x[support])


@dataclass
class SolveResult:
    estimate: np.ndarray
    iterations: int
    residual_norm: float
    converged: bool
    flags: tuple = ()
    info: dict = field(default_factory=dict)


@dataclass(frozen=True)
class TrialResult:
    k: int
    seed: int
    solver: str
    rel_error: float
    support_precision: float
    support_recall: float
    success: bool
    iterations: int
    residual_norm: float
    converged: bool
    flags: tuple


@dataclass(frozen=True)
class PhasePoint:
    k: int
    trials: int
    successes: int
    rate: float
    ci_low: float
    ci_high: float


class _Operand:
    """A matrix with its IHT step 1 / ||M||_2^2, computed once per operand."""

    def __init__(self, matrix):
        self.data = matrix.data if isinstance(matrix, MeasurementMatrix) \
            else np.asarray(matrix, dtype=np.float64)

    @cached_property
    def step(self):
        nrm = operator_norm(self.data)
        return 1.0 / (nrm * nrm) if nrm > 0 else 1.0


def _operands(matrix, y):
    """The matrix as a float array and y as a vector of matching length."""
    data = _Operand(matrix).data
    y = np.asarray(y, dtype=np.float64).ravel()
    if y.size != data.shape[0]:
        raise DimensionError(f"y has length {y.size}, matrix has {data.shape[0]} rows")
    return data, y


def _check_k(k, solver, rows, cols):
    """Reject a solver name or sparsity k that the solver cannot take."""
    if solver not in SOLVERS:
        raise ValueError(f"unknown solver {solver!r}, expected one of {SOLVERS}")
    if solver == "omp" and not 0 <= k <= min(rows, cols):
        raise DomainError(f"need 0 <= k <= min(rows, cols) = {min(rows, cols)}, got {k}")
    if not 0 <= k <= cols:
        raise DomainError(f"need 0 <= k <= {cols}, got {k}")


def _flag(flags, columns, name):
    for t in columns:
        if name not in flags[t]:
            flags[t].append(name)


def _fit(data, corr_y, idx, mask, flags):
    """Least squares of column idx[t] of Y on the columns of M set in mask[:, t], each t.

    Solves the normal equations on stacked Gram blocks M_S^T M_S against
    corr_y = M^T Y, padded to one size by an identity block; a single
    right-hand side pays for its own block only, never for all of M^T M.
    A column in the span of the others has the squared Cholesky pivot
    ridge * (1 + |a|^2) in its ridged block, a its coefficients on them;
    an independent column adds its squared distance from that span.  A
    block with such a column is solved with the ridge and flagged
    'regularized'.
    """
    order = np.argsort(~mask, axis=0, kind="stable")[:mask.sum(axis=0).max()]
    sets, real = order.T, np.take_along_axis(mask, order, axis=0).T
    eye = np.eye(sets.shape[1])
    rhs = np.where(real, corr_y[sets, idx[:, None]], 0.0)
    coef = np.empty(sets.shape)
    for sl in _chunks(idx.size, sets.shape[1], data.shape[0]):
        sub, r = data.T[sets[sl]], real[sl]
        blocks = np.where(r[:, :, None] & r[:, None, :], sub @ sub.transpose(0, 2, 1), eye)
        scale = np.max(np.diagonal(blocks, axis1=1, axis2=2), axis=1)
        ridged = blocks + (_RIDGE * scale)[:, None, None] * eye
        pivots = np.diagonal(np.linalg.cholesky(ridged), axis1=1, axis2=2)
        singular = np.any(pivots * pivots <= _DEPENDENT_PIVOT * scale[:, None], axis=1)
        _flag(flags, idx[sl][singular], "regularized")
        system = np.where(singular[:, None, None], ridged, blocks)
        coef[sl] = np.linalg.solve(system, rhs[sl, :, None])[:, :, 0]
    full = np.zeros(mask.shape)
    full[sets[real], np.nonzero(real)[0]] = coef[real]
    return full


def _top_k(mag, k):
    """Mask of the k largest entries of mag, per column, ties to the lower index."""
    n = mag.shape[0]
    if k <= 0:
        return np.zeros(mag.shape, dtype=bool)
    kth = np.partition(mag, max(n - k, 0), axis=0)[max(n - k, 0)]
    keep = mag >= kth
    extra = keep.sum(axis=0) - k
    if np.any(extra > 0):
        # more entries tie at the k-th magnitude than there are places left
        tie = mag == kth
        keep &= ~tie | (np.cumsum(tie, axis=0) <= tie.sum(axis=0) - extra)
    return keep


def hard_threshold(v, k):
    """Keep the k largest-magnitude entries, ties resolved to lower index."""
    if k < 0:
        raise DomainError(f"k must be >= 0, got {k}")
    return np.where(_top_k(np.abs(v), k), v, 0.0)


def _results(estimates, iterations, rnorms, converged, flags):
    return [SolveResult(estimate=estimates[:, t], iterations=int(iterations[t]),
                        residual_norm=float(rnorms[t]), converged=bool(converged[t]),
                        flags=tuple(flags[t]))
            for t in range(estimates.shape[1])]


def omp(matrix, y, k=None, residual_tol=None):
    """Orthogonal matching pursuit with full least-squares refit per step.

    Stops after k atoms, or when the residual norm drops to
    residual_tol, whichever is requested (at least one must be).  Ties
    in atom selection go to the lowest index.  A repeated selection
    means the residual is orthogonal to every remaining atom; the solver
    stops and flags 'stalled'.  A selection dependent on the atoms
    already chosen is fitted with a small ridge and flagged 'regularized'.
    """
    data, y = _operands(matrix, y)
    return _omp(_Operand(data), y[:, None], k, residual_tol)[0]


def _omp(op, ys, k=None, residual_tol=None):
    """omp on each column of ys; two matrix products and one block fit per step."""
    data = op.data
    if k is None and residual_tol is None:
        raise ValueError("need a sparsity target k or a residual_tol")
    if k is not None:
        _check_k(k, "omp", *data.shape)
    x = np.zeros((data.shape[1], ys.shape[1]))
    chosen = np.zeros(x.shape, dtype=bool)
    resid = ys.copy()
    rnorm = np.linalg.norm(ys, axis=0)
    live = rnorm > 0.0
    iterations = np.zeros(ys.shape[1], dtype=int)
    flags = [[] for _ in iterations]
    corr_y = data.T @ ys
    for _ in range(k if k is not None else min(data.shape)):
        if residual_tol is not None:
            live &= rnorm > residual_tol
        idx = np.flatnonzero(live)
        picks = np.argmax(np.abs(data.T @ resid[:, idx]), axis=0)
        repeat = chosen[picks, idx]
        _flag(flags, idx[repeat], "stalled")
        live[idx[repeat]] = False
        idx, picks = idx[~repeat], picks[~repeat]
        if idx.size == 0:
            break
        chosen[picks, idx] = True
        x[:, idx] = _fit(data, corr_y, idx, chosen[:, idx], flags)
        resid[:, idx] = ys[:, idx] - data @ x[:, idx]
        rnorm[idx] = np.linalg.norm(resid[:, idx], axis=0)
        iterations[idx] += 1
    converged = (np.linalg.norm(ys, axis=0) == 0.0) | (iterations == k)
    if residual_tol is not None:
        converged |= rnorm <= residual_tol
    return _results(x, iterations, rnorm, converged, flags)


def iht(matrix, y, k, step="auto", max_iter=1000, tol=1e-10):
    """Iterative hard thresholding x <- H_k(x + step M^T (y - M x)).

    step='auto' uses 1 / ||M||_2^2.  Stops when the iterate moves less
    than tol, flags 'diverged' and stops if the residual grows by 10x
    over a 50-iteration window.
    """
    data, y = _operands(matrix, y)
    return _iht(_Operand(data), y[:, None], k, step, max_iter, tol)[0]


def _iht(op, ys, k, step="auto", max_iter=1000, tol=1e-10):
    """iht on each column of ys: two products and a per-column top-k per iteration."""
    data = op.data
    _check_k(k, "iht", *data.shape)
    x = np.zeros((data.shape[1], ys.shape[1]))
    iterations = np.zeros(ys.shape[1], dtype=int)
    converged = np.zeros(ys.shape[1], dtype=bool)
    flags = [[] for _ in iterations]
    if step == "auto":
        step = op.step
    elif step <= 0:
        return _results(x, iterations, np.linalg.norm(ys, axis=0), converged,
                        [["bad-step"]] * ys.shape[1])
    history = np.empty((max_iter, ys.shape[1]))
    idx = np.arange(ys.shape[1])  # the live columns; xs and live_ys hold theirs
    xs, live_ys = x, ys
    for it in range(1, max_iter + 1):
        resid = live_ys - data @ xs
        rnorm = np.linalg.norm(resid, axis=0)
        history[it - 1, idx] = rnorm
        iterations[idx] = it
        grew = rnorm > 10.0 * history[it - 51, idx] if it > 50 else np.zeros(idx.size, bool)
        moved = xs + step * (data.T @ resid)
        x_next = np.where(_top_k(np.abs(moved), k), moved, 0.0)
        done = ~grew & (np.linalg.norm(x_next - xs, axis=0) <= tol)
        x_next[:, grew] = xs[:, grew]
        xs, stop = x_next, done | grew
        if stop.any():
            x[:, idx[stop]] = xs[:, stop]
            converged[idx[done]] = True
            _flag(flags, idx[grew], "diverged")
            idx, xs, live_ys = idx[~stop], xs[:, ~stop], live_ys[:, ~stop]
            if idx.size == 0:
                break
    x[:, idx] = xs
    return _results(x, iterations, np.linalg.norm(ys - data @ x, axis=0), converged, flags)


def cosamp(matrix, y, k, max_iter=100):
    """CoSaMP: proxy, top-2k merge, least squares, prune to k.

    Returns the lowest-residual iterate seen.  Stops on a relative
    residual of 1e-10 or when the residual stops improving ('stagnated').
    A rank-deficient least-squares step is fitted with a small ridge and
    flagged 'regularized'.
    """
    data, y = _operands(matrix, y)
    return _cosamp(_Operand(data), y[:, None], k, max_iter)[0]


def _cosamp(op, ys, k, max_iter=100):
    """cosamp on each column of ys; two matrix products and one block fit per step."""
    data = op.data
    _check_k(k, "cosamp", *data.shape)
    ynorm = np.linalg.norm(ys, axis=0)
    x = np.zeros((data.shape[1], ys.shape[1]))
    best = x.copy()
    best_rnorm, prev_rnorm = ynorm.copy(), np.full(ynorm.shape, math.inf)
    iterations = np.zeros(ys.shape[1], dtype=int)
    converged = (ynorm == 0.0) | (k == 0)
    flags = [[] for _ in iterations]
    resid = ys.copy()
    corr_y = data.T @ ys
    idx = np.flatnonzero(~converged)
    for it in range(1, max_iter + 1):
        if idx.size == 0:
            break
        iterations[idx] = it
        merged = _top_k(np.abs(data.T @ resid[:, idx]), 2 * k) | (x[:, idx] != 0.0)
        full = _fit(data, corr_y, idx, merged, flags)
        x[:, idx] = np.where(_top_k(np.abs(full), k), full, 0.0)
        resid[:, idx] = ys[:, idx] - data @ x[:, idx]
        rnorm = np.linalg.norm(resid[:, idx], axis=0)
        better = rnorm < best_rnorm[idx]
        best[:, idx[better]] = x[:, idx[better]]
        best_rnorm[idx[better]] = rnorm[better]
        done = rnorm <= 1e-10 * ynorm[idx]
        converged[idx[done]] = True
        stuck = ~done & (prev_rnorm[idx] - rnorm <= 1e-12 * ynorm[idx])
        _flag(flags, idx[stuck], "stagnated")
        prev_rnorm[idx] = rnorm
        idx = idx[~(done | stuck)]
    return _results(best, iterations, best_rnorm, converged, flags)


def _path(data, y, epsilon, lam_stop):
    """Follow the lasso path x(lam) down from lam = max |M^T y|, where x = 0.

    The path (homotopy: Osborne, Presnell & Turlach 2000; Donoho & Tsaig
    2008) is linear between breakpoints where an atom joins the active set
    or an active coefficient crosses zero; ||y - M x(lam)|| shrinks as lam
    falls.  It stops where the residual reaches epsilon > 0, a closed-form
    root in one segment, or at lam = lam_stop.  Each breakpoint re-solves
    the active Gram system, so rounding does not accumulate.  A singular
    active Gram ('singular-gram'), or over 10 breakpoints per column or an
    emptied active set ('stalled'), stops at the last breakpoint.

    Returns (x, residual, lam, breakpoints, flags, whether epsilon was reached).
    """
    rows, cols = data.shape
    corr = data.T @ y
    lam = float(np.max(np.abs(corr), initial=0.0))
    if not lam > lam_stop:
        return np.zeros(cols), y, lam_stop, 0, [], False
    active = [int(np.argmax(np.abs(corr)))]
    signs = [float(np.sign(corr[active[0]]))]
    # the last event may not be undone at once: a joining coefficient starts
    # at zero, and a dropped atom sits on the boundary it left
    joined, left = active[0], None
    x, resid, lam_x, flags = np.zeros(cols), y, lam, []
    for steps in range(1, 10 * cols + 1):
        sub, s = data[:, active], np.array(signs)
        try:
            sol = np.linalg.solve(sub.T @ sub, np.column_stack([sub.T @ y - lam * s, s]))
        except np.linalg.LinAlgError:
            sol = np.full((len(active), 2), np.nan)
        if not np.all(np.isfinite(sol)):
            flags.append("singular-gram")
            break
        coef, direction = sol.T
        x = np.zeros(cols)
        x[active] = coef
        resid, lam_x = y - sub @ coef, lam
        if lam == lam_stop:
            break
        # along the segment x_A += g d, r -= g v, c -= g a and lam -= g
        v = sub @ direction
        c, a = (data.T @ np.column_stack([resid, v])).T
        with np.errstate(divide="ignore", invalid="ignore"):
            drop = -coef / direction
            # |c_j - g a_j| = lam - g from above or below; a column parallel
            # to the active span has a zero denominator and never joins
            up = np.where(1.0 - a > 1e-12, (lam - c) / (1.0 - a), np.inf)
            down = np.where(1.0 + a > 1e-12, (lam + c) / (1.0 + a), np.inf)
        # an event within rounding of the current point (a tie) happens at it,
        # and a coefficient zero to rounding leaves only toward the wrong sign
        near = 1e-9 * lam
        for g in (drop, up, down):
            g[(g >= -near) & (g <= 0.0)] = 0.0
            g[~(g >= 0.0)] = np.inf
        drop[(drop <= near) & (direction * s > 0)] = np.inf
        if joined is not None:
            drop[active.index(joined)] = np.inf
        if left is not None:
            (up if left[1] > 0 else down)[left[0]] = np.inf
        join = np.minimum(up, down)
        join[active] = np.inf
        i, j = int(np.argmin(drop)), int(np.argmin(join))
        # once the active columns span R^rows no atom can join
        gamma = min(drop[i], join[j] if len(active) < rows else np.inf)
        end = gamma >= (1.0 - 1e-9) * (lam - lam_stop)
        if end:
            gamma = lam - lam_stop  # an event within rounding of the endpoint is the endpoint
        if epsilon > 0.0 and np.linalg.norm(resid - gamma * v) <= epsilon:
            # smaller root of ||r - g v||^2 = epsilon^2, in cancellation-free form
            excess = float(resid @ resid) - epsilon * epsilon
            rv, vv = float(resid @ v), float(v @ v)
            w = resid - (rv / vv) * v  # discriminant vv (eps^2 - |w|^2), accurate for eps << |r|
            root = excess / (rv + math.sqrt(max(vv * (epsilon * epsilon - w @ w), 0.0)))
            x[active] = coef + root * direction
            return x, y - sub @ x[active], lam - root, steps, flags, True
        lam = lam_stop if end else lam - gamma
        if lam == lam_stop:
            continue
        if gamma == drop[i]:
            joined, left = None, (active.pop(i), signs.pop(i))
            if not active:  # x(lam) is nonzero below max |M^T y|: only rounding gets here
                flags.append("stalled")
                break
        else:
            joined, left = j, None
            active.append(j)
            signs.append(1.0 if up[j] <= down[j] else -1.0)
    else:
        flags.append("stalled")
    return x, resid, lam_x, steps, flags, False


def lasso(matrix, y, lam):
    """Minimize 0.5 ||y - M x||^2 + lam ||x||_1 exactly, on bpdn's lasso path.

    lam >= max |M^T y| returns the zero vector.  Flags are as in bpdn;
    info['lam'] is lam and iterations counts breakpoints.
    """
    data, y = _operands(matrix, y)
    if not 0 <= lam < math.inf:
        raise DomainError(f"lam must be finite and >= 0, got {lam}")
    x, resid, _, steps, flags, _ = _path(data, y, 0.0, lam)
    return SolveResult(estimate=x, iterations=steps,
                       residual_norm=float(np.linalg.norm(resid)),
                       converged=not flags, flags=tuple(flags), info={"lam": lam})


def bpdn(matrix, y, epsilon):
    """Basis pursuit denoising: min ||x||_1 s.t. ||y - M x|| <= epsilon.

    Solved exactly on the lasso path, from lam = max |M^T y| to where the
    residual reaches epsilon, or to the basis pursuit endpoint lam = 0.

    epsilon >= ||y|| returns the zero vector, which is feasible and
    l1-minimal.  A path that ends above epsilon is flagged
    'infeasible-epsilon'; one stopped early is flagged 'singular-gram' or
    'stalled' and returns its last breakpoint.  info['lam'] is the
    returned point's lambda; iterations counts breakpoints.
    """
    data, y = _operands(matrix, y)
    if not 0 <= epsilon < math.inf:
        raise DomainError(f"epsilon must be finite and >= 0, got {epsilon}")
    ynorm = float(np.linalg.norm(y))
    if ynorm == 0.0 or epsilon >= ynorm:
        return SolveResult(estimate=np.zeros(data.shape[1]), iterations=0,
                           residual_norm=ynorm, converged=True,
                           flags=("zero-solution",) if epsilon >= ynorm and ynorm > 0 else (),
                           info={"lam": 0.0})
    x, resid, lam, steps, flags, reached = _path(data, y, epsilon, 0.0)
    rnorm = float(np.linalg.norm(resid))
    # no breakpoint: y is orthogonal to every column (or not finite)
    reached = reached or steps > 0 and rnorm <= max(epsilon, 1e-9 * ynorm)
    if not reached and not flags:
        flags.append("infeasible-epsilon")
    return SolveResult(estimate=x, iterations=steps, residual_norm=rnorm,
                       converged=reached, flags=tuple(flags), info={"lam": float(lam)})


def _plant(rng, cols, k):
    """Dense planted signal: a uniform k-subset support, then Gaussian values."""
    support = k_subset(rng, cols, k)
    x = np.zeros(cols)
    x[support] = rng.standard_normal(k)
    return x


def _check_noise(noise_sigma):
    if not 0 <= noise_sigma < math.inf:
        raise DomainError(f"noise_sigma must be finite and >= 0, got {noise_sigma}")


def _observe(clean, noise_sigma, seed, *tags):
    """clean plus Gaussian noise of noise_sigma drawn from stream(seed, *tags)."""
    _check_noise(noise_sigma)
    if noise_sigma > 0:
        return clean + noise_sigma * stream(seed, *tags).standard_normal(clean.size)
    return clean


def _score(estimate, truth, noise_sigma):
    """Relative l2 error, then the estimated and true support sets.

    An estimate entry is support above 10 * noise_sigma, or 1e-6 when noiseless.
    """
    norm = float(np.linalg.norm(truth))
    err = float(np.linalg.norm(estimate - truth))
    tol = 10.0 * noise_sigma if noise_sigma > 0 else 1e-6
    return (err / norm if norm > 0 else err,
            set(np.flatnonzero(np.abs(estimate) > tol).tolist()),
            set(np.flatnonzero(truth).tolist()))


def _bpdn_epsilon(noise_sigma, rows):
    """bpdn's residual budget for Gaussian noise of noise_sigma on rows entries."""
    return 1.1 * noise_sigma * math.sqrt(rows) if noise_sigma > 0 else 0.0


def _trials(op, k, solver, noise_sigma, seeds, options=None):
    """One planted recovery trial per seed, solved together as the columns of Y."""
    rows, cols = op.data.shape
    _check_k(k, solver, rows, cols)
    truths = [_plant(stream(seed, "signal", k), cols, k) for seed in seeds]
    ys = np.column_stack([_observe(op.data @ x, noise_sigma, seed, "noise", k)
                          for x, seed in zip(truths, seeds)])
    opts = dict(options or {})
    if solver == "bpdn":
        opts.setdefault("epsilon", _bpdn_epsilon(noise_sigma, rows))
        solved = [bpdn(op.data, y, **opts) for y in ys.T]
    else:
        solved = {"omp": _omp, "iht": _iht, "cosamp": _cosamp}[solver](op, ys, k, **opts)
    out = []
    for x, seed, res in zip(truths, seeds, solved):
        rel, est_sup, true_sup = _score(res.estimate, x, noise_sigma)
        hits = len(est_sup & true_sup)
        precision = hits / len(est_sup) if est_sup else (1.0 if not true_sup else 0.0)
        recall = hits / len(true_sup) if true_sup else 1.0
        success = rel <= NOISELESS_SUCCESS_TOL if noise_sigma == 0 else est_sup == true_sup
        out.append(TrialResult(k=k, seed=seed, solver=solver, rel_error=rel,
                               support_precision=precision, support_recall=recall,
                               success=success, iterations=res.iterations,
                               residual_norm=res.residual_norm,
                               converged=res.converged, flags=res.flags))
    return out


def recovery_trial(matrix, k, solver, noise_sigma, seed, solver_options=None):
    """One synthetic recovery experiment with a known planted signal.

    Noiseless success means relative l2 error <= 1e-4; noisy success
    means the estimated support (entries above 10 * noise_sigma) matches
    the true support exactly.
    """
    return _trials(_Operand(matrix), k, solver, noise_sigma, [seed], solver_options)[0]


def wilson_interval(successes, trials):
    """Wilson score 95% interval for a binomial proportion."""
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    if not 0 <= successes <= trials:
        raise DomainError(f"need 0 <= successes <= trials, got {successes}/{trials}")
    p = successes / trials
    z = 1.959963984540054  # the two-sided 95% standard normal quantile
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials)) / denom
    # The endpoints are exactly 0 and 1 at the boundary counts; keep them
    # so rate <= ci_high holds bitwise at rate 1.0.
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


def phase_curve(source, k_list, solver, trials, noise_sigma, seed,
                fresh_matrix=False, threads=1):
    """Empirical success rate vs sparsity with Wilson 95% intervals.

    source is a MeasurementMatrix (fixed-matrix mode) or an EnsembleSpec;
    fresh_matrix=True redraws the matrix per trial and needs a spec.
    Every k is checked against the solver before the first trial.  With a
    fixed matrix the trials of one k are solved together as the columns of
    one block (bpdn's one column at a time), and the IHT step is computed
    once per curve.  Per-trial seeds are keyed substreams of (seed, k, trial)
    and threads share out whole k, so the curve is reproducible at any
    thread count.
    """
    k_list = [int(k) for k in k_list]
    if not k_list:
        raise ValueError("k_list must be nonempty")
    if any(b <= a for a, b in zip(k_list, k_list[1:])):
        raise ValueError("k_list must be strictly ascending")
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    if fresh_matrix and not isinstance(source, EnsembleSpec):
        raise ValueError("fresh_matrix mode needs an EnsembleSpec source")
    for k in k_list:
        _check_k(k, solver, source.rows, source.cols)
    op = None if fresh_matrix else \
        _Operand(source if isinstance(source, MeasurementMatrix) else generate(source))

    def point(k):
        seeds = [substream_seed(seed, "trial", k, trial) for trial in range(trials)]
        if op is not None:
            results = _trials(op, k, solver, noise_sigma, seeds)
        else:
            results = [recovery_trial(
                generate(EnsembleSpec(source.ensemble, source.rows, source.cols,
                                      substream_seed(seed, "matrix", k, trial))),
                k, solver, noise_sigma, trial_seed)
                for trial, trial_seed in enumerate(seeds)]
        wins = sum(1 for r in results if r.success)
        lo, hi = wilson_interval(wins, trials)
        return PhasePoint(k=k, trials=trials, successes=wins,
                          rate=wins / trials, ci_low=lo, ci_high=hi)

    return parallel_map(point, k_list, threads)
