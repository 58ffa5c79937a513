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

from ._streams import stream
from .ensembles import MeasurementMatrix
from .errors import DimensionError, DomainError
from .linalg import operator_norm
from .ripcheck import _block_draws, _chunks, _columns, _row_dot
from .util import parallel_map

SOLVERS = ("omp", "iht", "cosamp", "bpdn")

# Relative reconstruction error below which a noiseless trial counts as
# an exact recovery.
NOISELESS_SUCCESS_TOL = 1e-4

# Least-squares blocks, relative to a block's largest diagonal entry: the
# ridge added to a rank-deficient block, and the squared Cholesky pivot of
# the ridged block below which a column counts as dependent on the others.
_RIDGE = 1e-12
_DEPENDENT_PIVOT = 1e-8

# Fixed stopping rules: IHT's iteration cap and the move below which its
# iterate counts as converged, and CoSaMP's iteration cap.
_IHT_MAX_ITER = 1000
_IHT_TOL = 1e-10
_COSAMP_MAX_ITER = 100


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


def _check_nonnegative(name, value):
    """Reject a value that is negative, infinite or NaN."""
    if not 0 <= value < math.inf:
        raise DomainError(f"{name} must be finite and >= 0, got {value}")


def _flag(flags, columns, name):
    for t in columns:
        if name not in flags[t]:
            flags[t].append(name)


def _fit(data, corr_y, idx, mask, flags):
    """Least squares of column idx[t] of Y on the columns of M set in mask[:, t], each t.

    CoSaMP's refit of a merged support.  Solves the normal equations on
    stacked Gram blocks M_S^T M_S against corr_y = M^T Y, padded to one size
    by an identity block; a single right-hand side pays for its own block
    only, never for all of M^T M.  A column in the span of the others has
    the squared Cholesky pivot ridge * (1 + |a|^2) in its ridged block, a
    its coefficients on them; an independent column adds its squared
    distance from that span.  A block with such a column is solved with
    the ridge and flagged 'regularized'.
    """
    order = np.argsort(~mask, axis=0, kind="stable")[:mask.sum(axis=0).max()]
    sets, real = order.T, np.take_along_axis(mask, order, axis=0).T
    eye = np.eye(sets.shape[1])
    rhs = np.where(real, corr_y[sets, idx[:, None]], 0.0)
    coef = np.empty(sets.shape)
    for sl in _chunks(idx.size, sets.shape[1], data.shape[0]):
        sub, r = _columns(data, sets[sl]), real[sl]
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


def _results(estimates, iterations, rnorms, converged, flags):
    return [SolveResult(estimate=estimates[:, t], iterations=int(iterations[t]),
                        residual_norm=float(rnorms[t]), converged=bool(converged[t]),
                        flags=tuple(flags[t]))
            for t in range(estimates.shape[1])]


def omp(matrix, y, k):
    """Orthogonal matching pursuit: each step fits y by least squares on the atoms chosen.

    Stops after k atoms, converged, unless it stalls first.  Ties in atom
    selection go to the lowest index.  A repeated selection means the
    residual is orthogonal to every remaining atom; the solver stops and
    flags 'stalled'.  A selection dependent on the atoms already chosen
    is fitted with a small ridge and flagged 'regularized'.
    """
    data, y = _operands(matrix, y)
    return _omp(_Operand(data), y[:, None], k)[0]


def _omp(op, ys, k):
    """omp on each column of ys, a chunk of columns at a time (see _pursue)."""
    data = op.data
    _check_k(k, "omp", *data.shape)
    x = np.zeros((data.shape[1], ys.shape[1]))
    iterations = np.zeros(ys.shape[1], dtype=int)
    rnorm = np.empty(ys.shape[1])
    flags = [[] for _ in iterations]
    for sl in _chunks(ys.shape[1], k, data.shape[0]):
        iterations[sl], rnorm[sl] = _pursue(data, ys[:, sl], k, x[:, sl], flags[sl])
    converged = (np.linalg.norm(ys, axis=0) == 0.0) | (iterations == k)
    return _results(x, iterations, rnorm, converged, flags)


def _pursue(data, ys, steps, x, flags):
    """Up to steps omp atoms for each column of ys; fills x, returns (iterations, rnorm).

    A column stops before steps atoms only if its y is zero or its pick
    repeats an atom already chosen ('stalled').

    Each column grows an orthonormal basis Q of its atoms' span and the
    triangular R of D_S = Q R by one atom per step, in pick order.  The
    atom projected off Q (twice) leaves its squared distance from the
    span, the squared Cholesky pivot it adds to D_S^T D_S; one of at most
    _DEPENDENT_PIVOT times the largest squared atom norm flags
    'regularized' and adds no basis vector.  The residual, y's
    least-squares residual throughout, loses its part on each new basis
    vector.  The coefficients are solved at the end from R x = Q^T y, or
    for a flagged column from _fit's ridged normal equations
    (R^T R + ridge) x = R^T Q^T y.  Q holds columns x steps x rows floats,
    so _omp passes chunks within GATHER_ENTRIES.
    """
    rows, cols = data.shape
    resid = ys.T.copy()
    size = resid.shape[0]
    live = np.linalg.norm(resid, axis=1) > 0.0
    iterations = np.zeros(size, dtype=int)
    basis = np.zeros((size, steps, rows))
    tri = np.tile(np.eye(steps), (size, 1, 1))  # dead columns' slots stay identity
    proj = np.zeros((size, steps))
    picks = np.zeros((size, steps), dtype=np.intp)
    chosen = np.zeros((size, cols), dtype=bool)
    scale = np.zeros(size)
    dependent = np.zeros(size, dtype=bool)
    for s in range(steps):
        pick = np.argmax(np.abs(resid @ data), axis=1)
        repeat = live & chosen[np.arange(size), pick]
        _flag(flags, np.flatnonzero(repeat), "stalled")
        live &= ~repeat
        if not live.any():
            break
        chosen[live, pick[live]] = True
        atom = _columns(data, pick)
        scale = np.where(live, np.maximum(scale, _row_dot(atom, atom)), scale)
        q, coef = atom, np.zeros((size, s))
        for _ in range(2):  # classical Gram-Schmidt, twice, keeps Q orthonormal
            h = (basis[:, :s] @ q[:, :, None])[:, :, 0]
            q = q - (h[:, None, :] @ basis[:, :s])[:, 0]
            coef += h
        dist2 = _row_dot(q, q)
        weak = live & (dist2 <= _DEPENDENT_PIVOT * scale)
        _flag(flags, np.flatnonzero(weak), "regularized")
        dependent |= weak
        dist = np.sqrt(dist2)
        # a flagged atom's part off the span is too small to normalise
        q = q * np.divide(1.0, dist, out=np.zeros(size), where=live & ~weak)[:, None]
        basis[:, s] = q
        tri[:, :s, s] = np.where(live[:, None], coef, 0.0)
        tri[:, s, s] = np.where(live, dist, 1.0)
        picks[:, s] = pick
        proj[:, s] = _row_dot(q, resid)
        resid -= proj[:, s, None] * q
        iterations += live
    eye = np.eye(steps)
    tri_t = tri.transpose(0, 2, 1)
    ridged = tri_t @ tri + (_RIDGE * scale)[:, None, None] * eye
    system = np.where(dependent[:, None, None], ridged, tri)
    rhs = np.where(dependent[:, None], (tri_t @ proj[:, :, None])[:, :, 0], proj)
    coef = np.linalg.solve(system, rhs[:, :, None])[:, :, 0]
    real = np.arange(steps) < iterations[:, None]
    x[picks[real], np.nonzero(real)[0]] = coef[real]
    return iterations, np.linalg.norm(resid, axis=1)


def iht(matrix, y, k):
    """Iterative hard thresholding x <- H_k(x + step M^T (y - M x)).

    The step is 1 / ||M||_2^2, at which the residual never grows
    (Blumensath & Davies 2008).  Stops, converged, when the iterate moves
    less than _IHT_TOL (1e-10), or after _IHT_MAX_ITER (1000) iterations
    without converging.
    """
    data, y = _operands(matrix, y)
    return _iht(_Operand(data), y[:, None], k)[0]


def _iht(op, ys, k):
    """iht on each column of ys, each iterate held as its k support indices and values.

    M x comes from the k support columns, gathered in chunks of at most
    GATHER_ENTRIES entries, and M^T (y - M x) from one dense product.  If
    exactly k entries of |moved| reach tau, the smallest one on the old
    support, those k are the old support, ties and all, and the top-k
    partition is skipped.  ||x_next - x|| reads only entries that changed.
    """
    data = op.data
    rows, cols = data.shape
    _check_k(k, "iht", rows, cols)
    step = op.step
    size = ys.shape[1]
    iterations = np.zeros(size, dtype=int)
    converged = np.zeros(size, dtype=bool)
    support = np.zeros((size, k), dtype=np.intp)
    values = np.zeros((size, k))
    # the live columns: idx, their iterates (sup, val) with x = 0 on any k
    # indices, and their observations as rows
    idx, live_ys = np.arange(size), ys.T
    sup, val = np.tile(np.arange(k), (size, 1)), np.zeros((size, k))
    lanes, chunks = np.arange(size)[:, None], _chunks(size, k, rows)
    for it in range(1, _IHT_MAX_ITER + 1):
        iterations[idx] = it
        fit = np.empty(live_ys.shape)
        for sl in chunks:
            fit[sl] = (val[sl, None, :] @ _columns(data, sup[sl]))[:, 0]
        moved = (live_ys - fit) @ data
        moved *= step
        new_val = val + moved[lanes, sup]
        moved[lanes, sup] = new_val
        tau = np.min(np.abs(new_val), axis=1, initial=np.inf)
        same = (np.abs(moved) >= tau[:, None]).sum(axis=1) == k
        delta = _row_dot(new_val - val, new_val - val)
        if not same.all():
            rest = np.flatnonzero(~same)
            moved, old_sup = moved[rest], sup[rest]  # the rows whose support may move
            keep = _top_k(np.abs(moved).T, k).T
            moved[~keep] = 0.0  # x_next
            sup[rest] = np.argsort(~keep, axis=1, kind="stable")[:, :k]
            new_val[rest] = np.take_along_axis(moved, sup[rest], axis=1)
            moved[lanes[:rest.size], old_sup] -= val[rest]  # x_next - x
            delta[rest] = _row_dot(moved, moved)
        val = new_val
        done = np.sqrt(delta) <= _IHT_TOL
        if done.any():
            support[idx[done]], values[idx[done]] = sup[done], val[done]
            converged[idx[done]] = True
            idx, live_ys, sup, val = idx[~done], live_ys[~done], sup[~done], val[~done]
            if idx.size == 0:
                break
            lanes, chunks = lanes[:idx.size], _chunks(idx.size, k, rows)
    support[idx], values[idx] = sup, val
    x = np.zeros((cols, size))
    x[support, np.arange(size)[:, None]] = values
    return _results(x, iterations, np.linalg.norm(ys - data @ x, axis=0), converged,
                    [[] for _ in iterations])


def cosamp(matrix, y, k):
    """CoSaMP: proxy, top-2k merge, least squares, prune to k.

    Returns the lowest-residual iterate seen.  Stops on a relative
    residual of 1e-10 (converged), when the residual stops improving
    ('stagnated'), or after _COSAMP_MAX_ITER (100) iterations.  A
    rank-deficient least-squares step is fitted with a small ridge and
    flagged 'regularized'.
    """
    data, y = _operands(matrix, y)
    return _cosamp(_Operand(data), y[:, None], k)[0]


def _cosamp(op, ys, k):
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
    for it in range(1, _COSAMP_MAX_ITER + 1):
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
    _check_nonnegative("lam", lam)
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
    _check_nonnegative("epsilon", epsilon)
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


def _plant(seed, purpose, k, cols, trials):
    """(cols, trials) planted signals; column i is row i of _block_draws' block 0 at (seed, k)."""
    supports, values = _block_draws(seed, purpose, k, cols, 0, trials)
    x = np.zeros((cols, trials))
    x[supports, np.arange(trials)[:, None]] = values
    return x


def _observe(clean, noise_sigma, seed, *tags):
    """clean plus N(0, noise_sigma^2) from stream(seed, *tags); a block draws column by column."""
    _check_nonnegative("noise_sigma", noise_sigma)
    if noise_sigma == 0:
        return clean
    with np.errstate(over="ignore", invalid="ignore"):
        noisy = clean + noise_sigma * stream(seed, *tags).standard_normal(clean.shape[::-1]).T
        # the squared norm of every noisy column must be finite for the solvers' residuals
        if not np.all(np.isfinite(np.einsum("i...,i...->...", noisy, noisy))):
            raise DomainError(f"noise_sigma={noise_sigma!r} is too large: observations overflow")
    return noisy


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


def _trials(op, k, solver, noise_sigma, seed, trials):
    """Planted trials 0 to trials - 1 at seed, solved together as the columns of Y."""
    rows, cols = op.data.shape
    _check_k(k, solver, rows, cols)
    truths = _plant(seed, "signal", k, cols, trials)
    ys = _observe(op.data @ truths, noise_sigma, seed, "noise", k)
    if solver == "bpdn":
        solved = [bpdn(op.data, y, _bpdn_epsilon(noise_sigma, rows)) for y in ys.T]
    else:
        kernel = {"omp": _omp, "iht": _iht, "cosamp": _cosamp}[solver]
        solved = kernel(op, ys, k)
    out = []
    for x, res in zip(truths.T, solved):
        rel, est_sup, true_sup = _score(res.estimate, x, noise_sigma)
        hits = len(est_sup & true_sup)
        precision = hits / len(est_sup) if est_sup else (1.0 if not true_sup else 0.0)
        recall = hits / len(true_sup) if true_sup else 1.0
        success = rel <= NOISELESS_SUCCESS_TOL if noise_sigma == 0 else est_sup == true_sup
        out.append(TrialResult(solver=solver, rel_error=rel,
                               support_precision=precision, support_recall=recall,
                               success=success, iterations=res.iterations,
                               residual_norm=res.residual_norm,
                               converged=res.converged, flags=res.flags))
    return out


def recovery_trial(matrix, k, solver, noise_sigma, seed):
    """One planted recovery experiment, drawn bit for bit as phase_curve's trial 0 for k.

    Its floats, and at knife edges its outcome, may differ in the last bits
    from the block's, which one product mixes.  Noiseless success means
    relative l2 error <= 1e-4; noisy success means the estimated support
    (entries above 10 * noise_sigma) matches the true support exactly.
    """
    return _trials(_Operand(matrix), k, solver, noise_sigma, seed, 1)[0]


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


def phase_curve(matrix, k_list, solver, trials, noise_sigma, seed, threads=1):
    """Empirical success rate vs sparsity with Wilson 95% intervals.

    Every trial runs on the one given matrix, and every k is checked
    against the solver before the first trial.  The trials of one k are
    solved together as the columns of one block (bpdn's one column at a
    time), and the IHT step is computed once per curve.  Each k plants
    its trials as one block from streams keyed by (seed, k), trial i from
    row i, and threads share out whole k, so the curve is reproducible at
    any thread count.
    """
    k_list = [int(k) for k in k_list]
    if not k_list:
        raise ValueError("k_list must be nonempty")
    if any(b <= a for a, b in zip(k_list, k_list[1:])):
        raise ValueError("k_list must be strictly ascending")
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    op = _Operand(matrix)
    for k in k_list:
        _check_k(k, solver, *op.data.shape)

    def point(k):
        wins = sum(1 for r in _trials(op, k, solver, noise_sigma, seed, trials) if r.success)
        lo, hi = wilson_interval(wins, trials)
        return PhasePoint(k=k, trials=trials, successes=wins,
                          rate=wins / trials, ci_low=lo, ci_high=hi)

    return parallel_map(point, k_list, threads)
