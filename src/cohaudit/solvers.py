"""Sparse recovery solvers and Monte Carlo recovery harnesses.

Greedy (omp, cosamp), thresholding (iht), and convex (lasso and bpdn,
both on the exact lasso homotopy path).  All solvers are
deterministic functions of their inputs; randomness only enters through
the trial harnesses, which use keyed streams.
"""

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._streams import stream
from .ensembles import MeasurementMatrix, _finite
from .errors import DimensionError, DomainError
from .linalg import operator_norm
from .ripcheck import BLOCK_TRIALS, _block_draws, _chunks, _columns, _map_blocks, _row_dot

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

# A lockstep bpdn run takes at most BLOCK_TRIALS columns, and at most this many
# (column, atom) entries in each of its dense arrays (4 MB of float64).
_RUN_ENTRIES = 2**19


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
    """The matrix as a finite float array and y as a finite vector of matching length."""
    data = _Operand(matrix).data
    if not _finite(data):
        raise DomainError("matrix entries must be finite")
    y = np.asarray(y, dtype=np.float64).ravel()
    if y.size != data.shape[0]:
        raise DimensionError(f"y has length {y.size}, matrix has {data.shape[0]} rows")
    with np.errstate(over="ignore"):  # as _observe: the residual norms need a finite ||y||^2
        finite = np.isfinite(y @ y)
    if not finite:
        raise DomainError("y must be finite, with a finite squared norm")
    return data, y


def _check_k(k, solver, rows, cols):
    """Reject a solver name or sparsity k that the solver cannot take."""
    if solver not in SOLVERS:
        raise ValueError(f"unknown solver {solver!r}, expected one of {SOLVERS}")
    if solver == "omp" and not 0 <= operator.index(k) <= min(rows, cols):
        raise DomainError(f"need 0 <= k <= min(rows, cols) = {min(rows, cols)}, got {k}")
    if not 0 <= operator.index(k) <= cols:
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
    m by an identity block; a single right-hand side pays for its own block
    only, never for all of M^T M.  A column in the span of the others has
    the squared Cholesky pivot ridge * (1 + |a|^2) in its ridged block, a
    its coefficients on them; an independent column adds its squared
    distance from that span.  A block with such a column is solved with
    the ridge and flagged 'regularized'.  A chunk of c systems holds at
    most c * m * (rows + 3m) floats at once, GATHER_ENTRIES unless one
    system alone is more: its gathered columns and product, or the product,
    its ridged copy and their Cholesky factor.  Each system is factored and
    solved on its own, so its result does not depend on the chunk it is in.
    """
    # a copy of the m rows read, so that the whole sort is freed at once
    order = np.argsort(~mask, axis=0, kind="stable")[:mask.sum(axis=0).max()].copy()
    sets, real = order.T, np.take_along_axis(mask, order, axis=0).T
    m = sets.shape[1]
    eye = np.eye(m)
    rhs = np.where(real, corr_y[sets, idx[:, None]], 0.0)
    coef = np.empty(sets.shape)
    for sl in _chunks(idx.size, m, data.shape[0] + 3 * m):
        sub, r = _columns(data, sets[sl]), real[sl]
        blocks = sub @ sub.transpose(0, 2, 1)
        del sub
        np.copyto(blocks, eye, where=~(r[:, :, None] & r[:, None, :]))
        scale = np.max(np.diagonal(blocks, axis1=1, axis2=2), axis=1)
        ridged = (_RIDGE * scale)[:, None, None] * eye
        ridged += blocks
        # a copy of the pivots, so that the factor is freed at once
        pivots = np.diagonal(np.linalg.cholesky(ridged), axis1=1, axis2=2).copy()
        singular = np.any(pivots * pivots <= _DEPENDENT_PIVOT * scale[:, None], axis=1)
        _flag(flags, idx[sl][singular], "regularized")
        np.copyto(blocks, ridged, where=singular[:, None, None])
        coef[sl] = np.linalg.solve(blocks, rhs[sl, :, None])[:, :, 0]
    del blocks, ridged, rhs  # the last chunk's arrays, freed before the result is built
    full = np.zeros(mask.shape)
    np.put_along_axis(full.T, sets, coef * real, axis=1)  # a padding entry writes a zero
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


def _solve_each(a, b):
    """np.linalg.solve on stacked systems; a singular system gets NaNs and leaves the others."""
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        if len(a) == 1:
            return np.full(b.shape, np.nan)
        return np.concatenate([_solve_each(a[i:i + 1], b[i:i + 1]) for i in range(len(a))])


def _norms(rows):
    """np.linalg.norm of each row, bit for bit: one BLAS dot per row."""
    return np.sqrt((rows[:, None, :] @ rows[:, :, None])[:, 0, 0])


def _homotopy(data, ys, epsilon, lam_stop):
    """The lasso paths x(lam) of the columns y of ys from lam = max |M^T y| down, in lockstep.

    A path (homotopy: Osborne, Presnell & Turlach 2000; Donoho & Tsaig
    2008) is linear between breakpoints where an atom joins or leaves the
    active set, and re-solves the active Gram system at each, so rounding
    does not accumulate.  It stops where ||y - M x|| reaches epsilon > 0
    (x = 0 if ||y|| <= epsilon), at lam = lam_stop, or at the last
    breakpoint before a singular Gram ('singular-gram'), an emptied active
    set or 10 breakpoints per atom of M ('stalled').  A step takes each live
    column one breakpoint on, with one product M^T [R V] and the Gram
    systems solved stacked by size; every other product is the BLAS call a
    lone column makes, so no column's result depends on its block.
    Returns (x, residuals, lam, breakpoints, flag, reached), x by columns.
    """
    rows, cols = data.shape
    resid = ys.T.copy()  # rows; the residuals are written into it
    corr = (data.T @ resid[:, :, None])[:, :, 0]
    lam, size, cap = np.max(np.abs(corr), axis=1, initial=0.0), len(resid), max(min(rows, cols), 1)
    # the point each column returns, x on its first p_n atoms p_act, its
    # residual and lambda: at first where an empty path ends, x = 0 at lam_stop
    p_act, p_coef, p_n = np.zeros((size, cap), int), np.zeros((size, cap)), np.zeros(size, int)
    lam_x, steps = np.full(size, float(lam_stop)), np.zeros(size, int)
    reached, flag = np.zeros(size, bool), np.full(size, "", object)
    # the live columns, a row each: index, y, lam, active atoms and signs in
    # join order (the first n_act), and the atom the last event dropped (its
    # index + 1, signed; 0 after a join).  That event may not be undone at
    # once: a joining coefficient (the last active) starts at zero, and a
    # dropped atom sits on the boundary it left
    idx = np.flatnonzero((lam > lam_stop) & (_norms(resid) > epsilon))
    n, ys, lam, corr = idx.size, resid[idx], lam[idx], corr[idx]
    act, sgn = np.zeros((n, cap), int), np.zeros((n, cap))
    act[:, 0] = np.argmax(np.abs(corr), axis=1) if n else 0
    sgn[:, 0] = np.sign(corr[np.arange(n), act[:, 0]])
    n_act, left = np.ones(n, int), np.zeros(n, int)
    for step in range(1, 10 * cols + 1):
        if n == 0:
            break
        width = n_act.max()
        coef, direction = np.zeros((n, width)), np.zeros((n, width))
        fit, v, ok = np.empty((n, rows)), np.empty((n, rows)), np.ones(n, bool)
        for m in set(n_act.tolist()):
            group = np.flatnonzero(n_act == m)
            for sl in _chunks(group.size, m, rows):
                t = group[sl]
                sub_t, s = data.T[act[t, :m]], sgn[t, :m]  # M[:, A].T, each t, C-ordered
                sub, b = sub_t.transpose(0, 2, 1), np.empty(s.shape + (2,))
                b[:, :, 0], b[:, :, 1] = (sub_t @ ys[t, :, None])[:, :, 0] - lam[t, None] * s, s
                sol = _solve_each(sub_t @ sub, b)
                good = np.isfinite(sol).all(axis=(1, 2))
                if not good.all():
                    sol[~good], ok[t] = 0.0, good
                coef[t, :m], direction[t, :m] = sol[:, :, 0], sol[:, :, 1]
                fit[t], v[t] = (sub @ sol[:, :, :1])[:, :, 0], (sub @ sol[:, :, 1:])[:, :, 0]
        del sub_t, sub, b, sol  # a step holds its gathers or its (columns, atoms) arrays
        # this breakpoint is the point to return; a singular one leaves the last
        now, r = idx[ok], ys - fit
        p_act[now], p_coef[now, :width], p_n[now] = act[ok], coef[ok], n_act[ok]
        resid[now], lam_x[now], r[~ok], stop = r[ok], lam[ok], resid[idx[~ok]], lam == lam_stop
        # along the segment x_A += g d, r -= g v, c -= g a and lam -= g
        ca = np.ascontiguousarray((data.T @ np.concatenate([r, v]).T).T)
        c, a, lane, near = ca[:n], ca[n:], np.arange(n), 1e-9 * lam[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            drop = -coef / direction  # NaN, so never, past each column's n_act
        # |c_j - g a_j| = lam - g from above or below; a column parallel
        # to the active span has a zero denominator and never joins
        up, down = np.full((n, cols), np.inf), np.full((n, cols), np.inf)
        np.divide(lam[:, None] - c, 1.0 - a, out=up, where=1.0 - a > 1e-12)
        np.divide(lam[:, None] + c, 1.0 + a, out=down, where=1.0 + a > 1e-12)
        del ca, c, a
        # an event within rounding of the current point (a tie) happens at it,
        # and a coefficient zero to rounding leaves only toward the wrong sign
        for g in (drop, up, down):
            g[(g >= -near) & (g <= 0.0)] = 0.0
            g[~(g >= 0.0)] = np.inf
        drop[(drop <= near) & (direction * sgn[:, :width] > 0)] = np.inf
        drop[lane[left == 0], n_act[left == 0] - 1] = np.inf
        up[lane[left > 0], left[left > 0] - 1] = np.inf
        down[lane[left < 0], -left[left < 0] - 1] = np.inf
        join, on = np.minimum(up, down), np.arange(width) < n_act[:, None]
        join[np.nonzero(on)[0], act[:, :width][on]] = np.inf
        i, j = np.argmin(drop, axis=1), np.argmin(join, axis=1)
        # once the active columns span R^rows no atom can join
        first_drop, first_join = drop[lane, i], np.where(n_act < rows, join[lane, j], np.inf)
        gamma = np.where(first_join < first_drop, first_join, first_drop)
        # an event within rounding of the endpoint is the endpoint
        end = gamma >= (1.0 - 1e-9) * (lam - lam_stop)
        gamma = np.where(end, lam - lam_stop, gamma)
        hit = ok & ~stop & (epsilon > 0.0)
        if epsilon > 0.0:
            hit &= _norms(r - gamma[:, None] * v) <= epsilon
        for q in np.flatnonzero(hit):
            # smaller root of ||r - g v||^2 = epsilon^2, in cancellation-free form
            p, rq, vq, m = idx[q], r[q], v[q], n_act[q]
            excess = float(rq @ rq) - epsilon * epsilon
            rv, vv = float(rq @ vq), float(vq @ vq)
            w = rq - (rv / vv) * vq  # discriminant vv (eps^2 - |w|^2), accurate for eps << |r|
            root = excess / (rv + math.sqrt(max(vv * (epsilon * epsilon - w @ w), 0.0)))
            p_coef[p, :m] = coef[q, :m] + root * direction[q, :m]
            resid[p], lam_x[p] = ys[q] - data[:, act[q, :m]] @ p_coef[p, :m], lam[q] - root
        lam = np.where(end, lam_stop, lam - gamma)
        going = ok & ~stop & ~hit & (lam != lam_stop)
        dropped = going & (gamma == first_drop)
        if dropped.any():
            d, i = np.flatnonzero(dropped), i[dropped]
            left[d] = (act[d, i] + 1) * sgn[d, i].astype(int)
            kept = np.arange(cap) != i[:, None]
            act[d, :-1], sgn[d, :-1] = (arr[d][kept].reshape(d.size, -1) for arr in (act, sgn))
            n_act[d] -= 1
        joins = going & ~dropped
        if joins.any():
            q, j = np.flatnonzero(joins), j[joins]
            sgn[q, n_act[q]] = np.where(up[q, j] <= down[q, j], 1.0, -1.0)
            act[q, n_act[q]], n_act[q], left[q] = j, n_act[q] + 1, 0
        del up, down, join
        # x(lam) is nonzero below max |M^T y|: only rounding empties the active set
        done = ~ok | stop | hit | (n_act == 0)
        if done.any():
            steps[idx[done]], reached[idx[done]] = step, hit[done]
            flag[idx[~ok]], flag[idx[n_act == 0]] = "singular-gram", "stalled"
            idx, ys, lam, act, sgn, n_act, left = (
                arr[~done] for arr in (idx, ys, lam, act, sgn, n_act, left))
            n = idx.size
    steps[idx], flag[idx] = 10 * cols, "stalled"
    x, (r, k) = np.zeros((cols, size)), np.nonzero(np.arange(cap) < p_n[:, None])
    x[p_act[r, k], r] = p_coef[r, k]
    return x, resid, lam_x, steps, flag, reached


def lasso(matrix, y, lam):
    """Minimize 0.5 ||y - M x||^2 + lam ||x||_1 exactly, on bpdn's lasso path.

    lam >= max |M^T y| returns the zero vector.  Flags are as in bpdn;
    info['lam'] is lam and iterations counts breakpoints.
    """
    data, y = _operands(matrix, y)
    _check_nonnegative("lam", lam)
    x, resid, _, steps, flag, _ = _homotopy(data, y[:, None], 0.0, lam)
    return SolveResult(estimate=x[:, 0], iterations=int(steps[0]),
                       residual_norm=float(_norms(resid)[0]), converged=not flag[0],
                       flags=(flag[0],) if flag[0] else (), info={"lam": lam})


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
    return _bpdn(data, y[:, None], epsilon)[0]


def _bpdn(data, ys, epsilon):
    """bpdn on each column of ys: a lockstep _homotopy per run of consecutive columns."""
    size, most = ys.shape[1], min(BLOCK_TRIALS, max(1, _RUN_ENTRIES // max(data.shape[1], 1)))
    runs = np.array_split(np.arange(size), -(-size // most))
    if len(runs) > 1:
        return [res for run in runs for res in _bpdn(data, ys[:, run], epsilon)]
    ynorm = _norms(np.ascontiguousarray(ys.T)).tolist()
    x, resid, lam, steps, flag, reached = _homotopy(data, ys, epsilon, 0.0)
    out = []
    for t, rnorm in enumerate(_norms(resid).tolist()):
        zero = ynorm[t] == 0.0 or epsilon >= ynorm[t]
        # no breakpoint: y is orthogonal to every column (or not finite)
        ok = zero or reached[t] or steps[t] > 0 and rnorm <= max(epsilon, 1e-9 * ynorm[t])
        flags = ("zero-solution",) if zero and ynorm[t] > 0 else (flag[t],) if flag[t] else \
            () if ok else ("infeasible-epsilon",)
        out.append(SolveResult(estimate=x[:, t], iterations=int(steps[t]), residual_norm=rnorm,
                               converged=bool(ok), flags=flags, info={"lam": float(lam[t])}))
    return out


def _plant(seed, purpose, k, cols, trials, j=0):
    """(cols, trials) planted signals; column i is row i of _block_draws' block j at (seed, k)."""
    supports, values = _block_draws(seed, purpose, k, cols, j, trials)
    x = np.zeros((cols, trials))
    x[supports, np.arange(trials)[:, None]] = values
    return x


def _observe(clean, noise_sigma, seed, *tags, j=0):
    """clean plus N(0, noise_sigma^2) from stream(seed, *tags, jump=j), column by column."""
    _check_nonnegative("noise_sigma", noise_sigma)
    if noise_sigma == 0:
        return clean
    with np.errstate(over="ignore", invalid="ignore"):
        noise = stream(seed, *tags, jump=j).standard_normal(clean.shape[::-1]).T
        noisy = clean + noise_sigma * noise
        # the squared norm of every noisy column must be finite for the solvers' residuals
        if not np.all(np.isfinite(np.einsum("i...,i...->...", noisy, noisy))):
            raise DomainError(f"noise_sigma={noise_sigma!r} is too large: observations overflow")
    return noisy


def _score(estimate, truth, noise_sigma):
    """Relative l2 error, then the estimated and true support sets.

    An estimate entry is support above 10 * noise_sigma, or 1e-6 when noiseless.
    """
    # columns of a 1024-trial block are 8 KiB apart: read each once, not five times
    estimate, truth = np.ascontiguousarray(estimate), np.ascontiguousarray(truth)
    norm = float(np.linalg.norm(truth))
    err = float(np.linalg.norm(estimate - truth))
    tol = 10.0 * noise_sigma if noise_sigma > 0 else 1e-6
    return (err / norm if norm > 0 else err,
            set(np.flatnonzero(np.abs(estimate) > tol).tolist()),
            set(np.flatnonzero(truth).tolist()))


def _bpdn_epsilon(noise_sigma, rows):
    """bpdn's residual budget for Gaussian noise of noise_sigma on rows entries."""
    return 1.1 * noise_sigma * math.sqrt(rows) if noise_sigma > 0 else 0.0


def _trials(op, k_list, solver, noise_sigma, seed, trials, threads=1):
    """Planted trials 0 to trials - 1 at seed for each k: a list of TrialResults per k.

    Block j of each k's trials is planted, solved as the columns of one
    array and scored as one work item of _map_blocks; bpdn, which takes no
    k, solves block j of every k together on its lockstep path.
    """
    rows, cols = op.data.shape
    for k in k_list:
        _check_k(k, solver, rows, cols)

    def scored(truths, solved):
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

    kernel = {"omp": _omp, "iht": _iht, "cosamp": _cosamp}.get(solver)
    epsilon = _bpdn_epsilon(noise_sigma, rows)

    def block(ks, j, size):  # a block's estimates are scored and dropped before the next's
        xs = [_plant(seed, "signal", k, cols, size, j) for k in ks]
        ys = [_observe(op.data @ x, noise_sigma, seed, "noise", k, j=j) for k, x in zip(ks, xs)]
        ys = ys[0] if len(ys) == 1 else np.hstack(ys)
        flat = kernel(op, ys, ks[0]) if kernel else _bpdn(op.data, ys, epsilon)
        return [scored(x, flat[i * size:(i + 1) * size]) for i, x in enumerate(xs)]

    groups = [[k] for k in k_list] if kernel else [k_list]
    return [[r for run in runs for r in run[i]]
            for ks, runs in zip(groups, _map_blocks(block, trials, threads, groups))
            for i in range(len(ks))]


def recovery_trial(matrix, k, solver, noise_sigma, seed):
    """One planted recovery experiment, drawn bit for bit as phase_curve's trial 0 for k.

    Its floats, and at knife edges its outcome, may differ in the last bits
    from the block's, which one product mixes.  Noiseless success means
    relative l2 error <= 1e-4; noisy success means the estimated support
    (entries above 10 * noise_sigma) matches the true support exactly.
    """
    return _trials(_Operand(matrix), [k], solver, noise_sigma, seed, 1)[0][0]


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

    Every trial runs on the one given matrix, every k is checked against
    the solver before the first trial, and the IHT step is computed once
    per curve.  Each k plants its trials in blocks from streams keyed by
    (seed, k), trial i from a row of its block, and is solved as in _trials,
    so the curve is reproducible at any thread count.
    """
    k_list = [operator.index(k) for k in k_list]
    if not k_list:
        raise ValueError("k_list must be nonempty")
    if any(b <= a for a, b in zip(k_list, k_list[1:])):
        raise ValueError("k_list must be strictly ascending")
    if operator.index(trials) < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    op, points = _Operand(matrix), []
    for k in k_list:
        _check_k(k, solver, *op.data.shape)
    for k, res in zip(k_list, _trials(op, k_list, solver, noise_sigma, seed, trials, threads)):
        wins = sum(r.success for r in res)
        lo, hi = wilson_interval(wins, trials)
        points.append(PhasePoint(k=k, trials=trials, successes=wins,
                                 rate=wins / trials, ci_low=lo, ci_high=hi))
    return points
