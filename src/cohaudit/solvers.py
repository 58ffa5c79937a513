"""Sparse recovery solvers and Monte Carlo recovery harnesses.

Greedy (omp, cosamp), thresholding (iht), and convex (lasso by monotone
FISTA, bpdn by the exact lasso homotopy path).  All solvers are
deterministic functions of their inputs; randomness only enters through
the trial harnesses, which use keyed streams.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from ._streams import k_subset, stream, substream_seed
from .ensembles import EnsembleSpec, MeasurementMatrix, generate
from .errors import DimensionError, DomainError
from .linalg import operator_norm
from .util import frozen_copy, parallel_map

SOLVERS = ("omp", "iht", "cosamp", "bpdn")

# Relative reconstruction error below which a noiseless trial counts as
# an exact recovery.
NOISELESS_SUCCESS_TOL = 1e-4

# lasso stops at a relative duality gap of _GAP_RTOL, checked every _GAP_CHECK steps.
_GAP_RTOL = 1e-6
_GAP_CHECK = 10


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
    def from_dense(cls, x, tol=0.0):
        x = np.asarray(x, dtype=np.float64)
        support = np.flatnonzero(np.abs(x) > tol)
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


def _operands(matrix, y):
    """The matrix as a float array and y as a vector of matching length."""
    data = matrix.data if isinstance(matrix, MeasurementMatrix) \
        else np.asarray(matrix, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    if y.size != data.shape[0]:
        raise DimensionError(f"y has length {y.size}, matrix has {data.shape[0]} rows")
    return data, y


def _lstsq(sub, y, flags):
    """Least squares with a ridge fallback on rank deficiency.

    The fallback adds 'regularized' to the solver's flags list, once.
    """
    coef, _, rank, _ = np.linalg.lstsq(sub, y, rcond=None)
    if rank < sub.shape[1]:
        gram = sub.T @ sub + 1e-12 * np.eye(sub.shape[1])
        coef = np.linalg.solve(gram, sub.T @ y)
        if "regularized" not in flags:
            flags.append("regularized")
    return coef


def hard_threshold(v, k):
    """Keep the k largest-magnitude entries, ties resolved to lower index."""
    if k < 0:
        raise DomainError(f"k must be >= 0, got {k}")
    out = np.zeros_like(v)
    if k == 0:
        return out
    if k >= v.size:
        return v.copy()
    keep = _top_indices(v, k)
    out[keep] = v[keep]
    return out


def _top_indices(v, m):
    """Indices of the m largest-magnitude entries, ties to the lower index."""
    return np.lexsort((np.arange(v.size), -np.abs(v)))[:m]


def soft_threshold(v, t):
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def omp(matrix, y, k=None, residual_tol=None):
    """Orthogonal matching pursuit with full least-squares refit per step.

    Stops after k atoms, or when the residual norm drops to
    residual_tol, whichever is requested (at least one must be).  Ties
    in atom selection go to the lowest index.  A repeated selection
    means the residual is orthogonal to every remaining atom; the solver
    stops and flags 'stalled'.
    """
    data, y = _operands(matrix, y)
    n, cols = data.shape
    if k is None and residual_tol is None:
        raise ValueError("need a sparsity target k or a residual_tol")
    if k is not None and not 0 <= k <= min(n, cols):
        raise DomainError(f"need 0 <= k <= min(rows, cols) = {min(n, cols)}, got {k}")
    limit = k if k is not None else min(n, cols)
    rnorm = float(np.linalg.norm(y))
    if rnorm == 0.0:
        return SolveResult(estimate=np.zeros(cols), iterations=0,
                           residual_norm=0.0, converged=True)
    flags = []
    support = []
    coef = np.zeros(0)
    resid = y.copy()
    it = 0
    chosen = set()
    while it < limit:
        if residual_tol is not None and rnorm <= residual_tol:
            break
        corr = data.T @ resid
        j = int(np.argmax(np.abs(corr)))
        if j in chosen:
            flags.append("stalled")
            break
        chosen.add(j)
        support.append(j)
        coef = _lstsq(data[:, support], y, flags)
        resid = y - data[:, support] @ coef
        rnorm = float(np.linalg.norm(resid))
        it += 1
    x = np.zeros(cols)
    if support:
        x[support] = coef
    converged = ((k is not None and len(support) == k)
                 or (residual_tol is not None and rnorm <= residual_tol))
    return SolveResult(estimate=x, iterations=it, residual_norm=rnorm,
                       converged=converged, flags=tuple(flags))


def iht(matrix, y, k, step="auto", max_iter=1000, tol=1e-10):
    """Iterative hard thresholding x <- H_k(x + step M^T (y - M x)).

    step='auto' uses 1 / ||M||_2^2.  Stops when the iterate moves less
    than tol, flags 'diverged' and stops if the residual grows by 10x
    over a 50-iteration window.
    """
    data, y = _operands(matrix, y)
    cols = data.shape[1]
    if not 0 <= k <= cols:
        raise DomainError(f"need 0 <= k <= {cols}, got {k}")
    if step == "auto":
        nrm = operator_norm(data)
        step = 1.0 / (nrm * nrm) if nrm > 0 else 1.0
    elif step <= 0:
        return SolveResult(estimate=np.zeros(cols), iterations=0,
                           residual_norm=float(np.linalg.norm(y)),
                           converged=False, flags=("bad-step",))
    x = np.zeros(cols)
    flags = []
    history = []
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        resid = y - data @ x
        rnorm = float(np.linalg.norm(resid))
        history.append(rnorm)
        if len(history) > 50 and rnorm > 10.0 * history[-51]:
            flags.append("diverged")
            break
        x_next = hard_threshold(x + step * (data.T @ resid), k)
        delta = float(np.linalg.norm(x_next - x))
        x = x_next
        if delta <= tol:
            converged = True
            break
    return SolveResult(estimate=x, iterations=it,
                       residual_norm=float(np.linalg.norm(y - data @ x)),
                       converged=converged, flags=tuple(flags))


def cosamp(matrix, y, k, max_iter=100):
    """CoSaMP: proxy, top-2k merge, least squares, prune to k.

    Returns the lowest-residual iterate seen.  Stops on a relative
    residual of 1e-10 or when the residual stops improving ('stagnated').
    """
    data, y = _operands(matrix, y)
    cols = data.shape[1]
    if not 0 <= k <= cols:
        raise DomainError(f"need 0 <= k <= {cols}, got {k}")
    ynorm = float(np.linalg.norm(y))
    if k == 0 or ynorm == 0.0:
        return SolveResult(estimate=np.zeros(cols), iterations=0,
                           residual_norm=ynorm, converged=True)
    flags = []
    x = np.zeros(cols)
    resid = y.copy()
    best_x = x
    best_rnorm = ynorm
    prev_rnorm = math.inf
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        proxy = data.T @ resid
        merged = np.union1d(_top_indices(proxy, min(2 * k, cols)),
                            np.flatnonzero(x))
        coef = _lstsq(data[:, merged], y, flags)
        full = np.zeros(cols)
        full[merged] = coef
        x = hard_threshold(full, k)
        resid = y - data @ x
        rnorm = float(np.linalg.norm(resid))
        if rnorm < best_rnorm:
            best_rnorm = rnorm
            best_x = x
        if rnorm <= 1e-10 * ynorm:
            converged = True
            break
        if prev_rnorm - rnorm <= 1e-12 * ynorm:
            flags.append("stagnated")
            break
        prev_rnorm = rnorm
    return SolveResult(estimate=best_x, iterations=it, residual_norm=best_rnorm,
                       converged=converged, flags=tuple(flags))


def lasso(matrix, y, lam, max_iter=2000, tol=1e-9):
    """Minimize 0.5 ||y - M x||^2 + lam ||x||_1 by monotone FISTA from x = 0.

    The iterative reference for bpdn's exact path.  The accepted objective
    never increases (a worse accelerated step falls back to the previous
    iterate).  The objective trace is kept in info['objective_trace'].

    Two stopping criteria: iterate movement below tol (catches exact
    fixed points immediately), and a duality-gap certificate checked
    every _GAP_CHECK iterations.  The gap uses the scaled residual as the
    dual point; rel gap <= _GAP_RTOL bounds the objective suboptimality
    directly, which the movement heuristic cannot.
    """
    data, y = _operands(matrix, y)
    cols = data.shape[1]
    if lam < 0:
        raise DomainError(f"lam must be >= 0, got {lam}")
    nrm = operator_norm(data)
    lipschitz = max(nrm * nrm, np.finfo(float).tiny)
    x = np.zeros(cols)

    def objective(v, resid):
        return 0.5 * float(resid @ resid) + lam * float(np.sum(np.abs(v)))

    def rel_gap(v, fv):
        r = y - data @ v
        corr = float(np.max(np.abs(data.T @ r))) if cols else 0.0
        scale = 1.0 if corr <= lam else lam / corr
        nu = scale * r
        dual = float(nu @ y) - 0.5 * float(nu @ nu)
        return (fv - dual) / max(fv, np.finfo(float).tiny)

    z = x.copy()
    t_acc = 1.0
    fx = objective(x, y)
    trace = [fx]
    converged = False
    gap = None
    it = 0
    for it in range(1, max_iter + 1):
        grad = data.T @ (data @ z - y)
        u = soft_threshold(z - grad / lipschitz, lam / lipschitz)
        resid_u = y - data @ u
        fu = objective(u, resid_u)
        if fu <= fx:
            x_new, f_new = u, fu
        else:
            x_new, f_new = x, fx
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_acc * t_acc))
        # momentum difference is against the previous accepted iterate,
        # which is still held in x at this point
        z = x_new + (t_acc / t_next) * (u - x_new) \
            + ((t_acc - 1.0) / t_next) * (x_new - x)
        moved = max(float(np.linalg.norm(x_new - x)),
                    float(np.linalg.norm(u - x_new)))
        x = x_new
        fx = f_new
        t_acc = t_next
        trace.append(fx)
        if moved <= tol * max(1.0, float(np.linalg.norm(x))):
            converged = True
            break
        if it % _GAP_CHECK == 0:
            gap = rel_gap(x, fx)
            if gap <= _GAP_RTOL:
                converged = True
                break
    resid = y - data @ x
    return SolveResult(estimate=x, iterations=it,
                       residual_norm=float(np.linalg.norm(resid)),
                       converged=converged,
                       info={"lam": lam, "objective": fx, "rel_gap": gap,
                             "objective_trace": trace})


def bpdn(matrix, y, epsilon):
    """Basis pursuit denoising: min ||x||_1 s.t. ||y - M x|| <= epsilon.

    Solved exactly on the lasso path x(lam) (homotopy: Osborne, Presnell &
    Turlach 2000; Donoho & Tsaig 2008), which is linear between breakpoints
    where an atom joins the active set or an active coefficient crosses
    zero; ||y - M x(lam)|| shrinks as lam falls.  The path runs from
    lam = max |M^T y| (x = 0) to where the residual reaches epsilon, a
    closed-form root in one segment, or to the basis pursuit endpoint
    lam = 0.  Each breakpoint re-solves the active Gram system, so rounding
    does not accumulate.

    epsilon >= ||y|| returns the zero vector, which is feasible and
    l1-minimal.  A path that ends above epsilon is flagged
    'infeasible-epsilon'; a singular active Gram ('singular-gram') or over
    10 breakpoints per column ('stalled') returns the last breakpoint.
    info['lam'] is the returned point's lambda; iterations counts breakpoints.
    """
    data, y = _operands(matrix, y)
    rows, cols = data.shape
    if not 0 <= epsilon < math.inf:
        raise DomainError(f"epsilon must be finite and >= 0, got {epsilon}")
    ynorm = float(np.linalg.norm(y))
    if ynorm == 0.0 or epsilon >= ynorm:
        return SolveResult(estimate=np.zeros(cols), iterations=0,
                           residual_norm=ynorm, converged=True,
                           flags=("zero-solution",) if epsilon >= ynorm and ynorm > 0 else (),
                           info={"lam": 0.0})
    corr = data.T @ y
    lam = float(np.max(np.abs(corr), initial=0.0))
    if not lam > 0.0:
        # y is orthogonal to every column; nothing can reduce the residual
        return SolveResult(estimate=np.zeros(cols), iterations=0,
                           residual_norm=ynorm, converged=False,
                           flags=("infeasible-epsilon",), info={"lam": 0.0})
    active = [int(np.argmax(np.abs(corr)))]
    signs = [float(np.sign(corr[active[0]]))]
    # the last event may not be undone at once: a joining coefficient starts
    # at zero, and a dropped atom sits on the boundary it left
    joined, left = active[0], None
    x, resid, lam_x, flags, reached = np.zeros(cols), y, lam, [], False
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
        if lam == 0.0:
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
        for g in (drop, up, down):
            g[~(g > 0)] = np.inf
        if joined is not None:
            drop[active.index(joined)] = np.inf
        if left is not None:
            (up if left[1] > 0 else down)[left[0]] = np.inf
        join = np.minimum(up, down)
        join[active] = np.inf
        i, j = int(np.argmin(drop)), int(np.argmin(join))
        # once the active columns span R^rows no atom can join
        gamma = min(drop[i], join[j] if len(active) < rows else np.inf)
        if gamma >= (1.0 - 1e-9) * lam:
            gamma = lam  # an event within rounding of the endpoint is the endpoint
        if epsilon > 0.0 and np.linalg.norm(resid - gamma * v) <= epsilon:
            # smaller root of ||r - g v||^2 = epsilon^2, in cancellation-free form
            excess = float(resid @ resid) - epsilon * epsilon
            rv, vv = float(resid @ v), float(v @ v)
            root = excess / (rv + math.sqrt(max(rv * rv - vv * excess, 0.0)))
            x[active] = coef + root * direction
            resid, lam_x, reached = y - sub @ x[active], lam - root, True
            break
        lam -= gamma
        if lam == 0.0:
            continue
        if gamma == drop[i]:
            joined, left = None, (active.pop(i), signs.pop(i))
        else:
            joined, left = j, None
            active.append(j)
            signs.append(1.0 if up[j] <= down[j] else -1.0)
    else:
        flags.append("stalled")
    rnorm = float(np.linalg.norm(resid))
    reached = reached or rnorm <= max(epsilon, 1e-9 * ynorm)
    if not reached and not flags:
        flags.append("infeasible-epsilon")
    return SolveResult(estimate=x, iterations=steps, residual_norm=rnorm,
                       converged=reached, flags=tuple(flags), info={"lam": lam_x})


def _plant(rng, cols, k):
    """Dense planted signal: a uniform k-subset support, then Gaussian values."""
    support = k_subset(rng, cols, k)
    x = np.zeros(cols)
    x[support] = rng.standard_normal(k)
    return x


def _observe(clean, noise_sigma, seed, *tags):
    """clean plus Gaussian noise of noise_sigma drawn from stream(seed, *tags)."""
    if not 0 <= noise_sigma < math.inf:
        raise DomainError(f"noise_sigma must be finite and >= 0, got {noise_sigma}")
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


def _run_solver(matrix, y, k, solver, noise_sigma, options):
    opts = dict(options or {})
    if solver == "omp":
        opts.setdefault("k", k)
        return omp(matrix, y, **opts)
    if solver == "iht":
        return iht(matrix, y, k, **opts)
    if solver == "cosamp":
        return cosamp(matrix, y, k, **opts)
    if solver == "bpdn":
        opts.setdefault("epsilon", _bpdn_epsilon(noise_sigma, matrix.rows))
        return bpdn(matrix, y, **opts)
    raise ValueError(f"unknown solver {solver!r}, expected one of {SOLVERS}")


def recovery_trial(matrix, k, solver, noise_sigma, seed, solver_options=None):
    """One synthetic recovery experiment with a known planted signal.

    Noiseless success means relative l2 error <= 1e-4; noisy success
    means the estimated support (entries above 10 * noise_sigma) matches
    the true support exactly.
    """
    cols = matrix.cols
    if not 0 <= k <= cols:
        raise DomainError(f"need 0 <= k <= {cols}, got {k}")
    x = _plant(stream(seed, "signal", k), cols, k)
    y = _observe(matrix.data @ x, noise_sigma, seed, "noise", k)
    res = _run_solver(matrix, y, k, solver, noise_sigma, solver_options)
    rel, est_sup, true_sup = _score(res.estimate, x, noise_sigma)
    hits = len(est_sup & true_sup)
    precision = hits / len(est_sup) if est_sup else (1.0 if not true_sup else 0.0)
    recall = hits / len(true_sup) if true_sup else 1.0
    success = rel <= NOISELESS_SUCCESS_TOL if noise_sigma == 0 else est_sup == true_sup
    return TrialResult(k=k, seed=seed, solver=solver, rel_error=rel,
                       support_precision=precision, support_recall=recall,
                       success=success, iterations=res.iterations,
                       residual_norm=res.residual_norm, converged=res.converged,
                       flags=res.flags)


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
    Per-trial seeds are keyed substreams of (seed, k, trial), so the
    curve is reproducible at any thread count.
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
    fixed = source if isinstance(source, MeasurementMatrix) else None
    if fixed is None and not fresh_matrix:
        fixed = generate(source)

    points = []
    for k in k_list:
        def one(trial, k=k):
            mat = fixed
            if mat is None:
                spec = EnsembleSpec(source.ensemble, source.rows, source.cols,
                                    substream_seed(seed, "matrix", k, trial))
                mat = generate(spec)
            return recovery_trial(mat, k, solver, noise_sigma,
                                  substream_seed(seed, "trial", k, trial))
        results = parallel_map(one, range(trials), threads)
        wins = sum(1 for r in results if r.success)
        lo, hi = wilson_interval(wins, trials)
        points.append(PhasePoint(k=k, trials=trials, successes=wins,
                                 rate=wins / trials, ci_low=lo, ci_high=hi))
    return points
