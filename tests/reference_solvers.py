"""Reference solvers: independent oracles for the library's solvers.

These are the straightforward one-signal forms of omp, iht and cosamp:
least squares by `np.linalg.lstsq` with a ridge fallback on rank
deficiency, a `lexsort` hard threshold, and ||M||_2 recomputed for every
IHT solve.  `recovery_trials` plants, observes and scores a block of
trials exactly as the library does, then solves each column with these.
Tests compare the library's batched phase path against them trial by
trial.

`path` follows the exact lasso homotopy for one signal, one breakpoint
at a time; `bpdn` and `lasso_path` wrap it as the library's `bpdn` and
`lasso` do.  Tests hold the library's lockstep homotopy to it column by
column, repr for repr.  `lasso` is an iterative l1 solver (monotone
FISTA, Beck & Teboulle 2009) that tests hold the exact path against.
"""

import math

import numpy as np

from cohaudit.errors import DomainError
from cohaudit.solvers import NOISELESS_SUCCESS_TOL, SolveResult, _check_nonnegative, \
    _observe, _operands, _plant, _score
from cohaudit.linalg import operator_norm

# lasso stops at a relative duality gap of _GAP_RTOL, checked every _GAP_CHECK steps.
_GAP_RTOL = 1e-6
_GAP_CHECK = 10


def lstsq(sub, y, flags):
    """Least squares with a ridge fallback on rank deficiency ('regularized', once)."""
    coef, _, rank, _ = np.linalg.lstsq(sub, y, rcond=None)
    if rank < sub.shape[1]:
        gram = sub.T @ sub + 1e-12 * np.eye(sub.shape[1])
        coef = np.linalg.solve(gram, sub.T @ y)
        if "regularized" not in flags:
            flags.append("regularized")
    return coef


def top_indices(v, m):
    """Indices of the m largest-magnitude entries, ties to the lower index."""
    return np.lexsort((np.arange(v.size), -np.abs(v)))[:m]


def hard_threshold(v, k):
    out = np.zeros_like(v)
    if k == 0:
        return out
    if k >= v.size:
        return v.copy()
    keep = top_indices(v, k)
    out[keep] = v[keep]
    return out


def omp(data, y, k):
    rnorm = float(np.linalg.norm(y))
    if rnorm == 0.0:
        return SolveResult(estimate=np.zeros(data.shape[1]), iterations=0,
                           residual_norm=0.0, converged=True)
    flags, support, chosen = [], [], set()
    coef = np.zeros(0)
    resid = y.copy()
    it = 0
    while it < k:
        j = int(np.argmax(np.abs(data.T @ resid)))
        if j in chosen:
            flags.append("stalled")
            break
        chosen.add(j)
        support.append(j)
        coef = lstsq(data[:, support], y, flags)
        resid = y - data[:, support] @ coef
        rnorm = float(np.linalg.norm(resid))
        it += 1
    x = np.zeros(data.shape[1])
    x[support] = coef
    return SolveResult(estimate=x, iterations=it, residual_norm=rnorm,
                       converged=len(support) == k, flags=tuple(flags))


def iht(data, y, k, step="auto", max_iter=1000, tol=1e-10):
    if step == "auto":
        nrm = operator_norm(data)
        step = 1.0 / (nrm * nrm) if nrm > 0 else 1.0
    x = np.zeros(data.shape[1])
    flags, history = [], []
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


def cosamp(data, y, k, max_iter=100):
    cols = data.shape[1]
    ynorm = float(np.linalg.norm(y))
    if k == 0 or ynorm == 0.0:
        return SolveResult(estimate=np.zeros(cols), iterations=0,
                           residual_norm=ynorm, converged=True)
    flags = []
    x = np.zeros(cols)
    resid = y.copy()
    best_x, best_rnorm, prev_rnorm = x, ynorm, math.inf
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        merged = np.union1d(top_indices(data.T @ resid, min(2 * k, cols)), np.flatnonzero(x))
        full = np.zeros(cols)
        full[merged] = lstsq(data[:, merged], y, flags)
        x = hard_threshold(full, k)
        resid = y - data @ x
        rnorm = float(np.linalg.norm(resid))
        if rnorm < best_rnorm:
            best_rnorm, best_x = rnorm, x
        if rnorm <= 1e-10 * ynorm:
            converged = True
            break
        if prev_rnorm - rnorm <= 1e-12 * ynorm:
            flags.append("stagnated")
            break
        prev_rnorm = rnorm
    return SolveResult(estimate=best_x, iterations=it, residual_norm=best_rnorm,
                       converged=converged, flags=tuple(flags))


def soft_threshold(v, t):
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def lasso(matrix, y, lam, max_iter=2000, tol=1e-9):
    """Minimize 0.5 ||y - M x||^2 + lam ||x||_1 by monotone FISTA from x = 0.

    The iterative reference for the exact lasso path.  The accepted objective
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


def path(data, y, epsilon, lam_stop):
    """Follow the lasso path x(lam) of one y down from lam = max |M^T y|, where x = 0.

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


def lasso_path(matrix, y, lam):
    """The library's lasso, solved on path."""
    data, y = _operands(matrix, y)
    _check_nonnegative("lam", lam)
    x, resid, _, steps, flags, _ = path(data, y, 0.0, lam)
    return SolveResult(estimate=x, iterations=steps,
                       residual_norm=float(np.linalg.norm(resid)),
                       converged=not flags, flags=tuple(flags), info={"lam": lam})


def bpdn(matrix, y, epsilon):
    """The library's bpdn, solved on path."""
    data, y = _operands(matrix, y)
    _check_nonnegative("epsilon", epsilon)
    ynorm = float(np.linalg.norm(y))
    if ynorm == 0.0 or epsilon >= ynorm:
        return SolveResult(estimate=np.zeros(data.shape[1]), iterations=0,
                           residual_norm=ynorm, converged=True,
                           flags=("zero-solution",) if epsilon >= ynorm and ynorm > 0 else (),
                           info={"lam": 0.0})
    x, resid, lam, steps, flags, reached = path(data, y, epsilon, 0.0)
    rnorm = float(np.linalg.norm(resid))
    # no breakpoint: y is orthogonal to every column (or not finite)
    reached = reached or steps > 0 and rnorm <= max(epsilon, 1e-9 * ynorm)
    if not reached and not flags:
        flags.append("infeasible-epsilon")
    return SolveResult(estimate=x, iterations=steps, residual_norm=rnorm,
                       converged=reached, flags=tuple(flags), info={"lam": float(lam)})


SOLVE = {"omp": omp, "iht": iht, "cosamp": cosamp}


def recovery_trials(data, k, solver, noise_sigma, seed, trials, **options):
    """(success, iterations, converged, flags) of each planted trial, solved per column."""
    truths = _plant(seed, "signal", k, data.shape[1], trials)
    ys = _observe(data @ truths, noise_sigma, seed, "noise", k)
    out = []
    for x, y in zip(truths.T, ys.T):
        res = SOLVE[solver](data, y, k, **options)
        rel, est_sup, true_sup = _score(res.estimate, x, noise_sigma)
        success = rel <= NOISELESS_SUCCESS_TOL if noise_sigma == 0 else est_sup == true_sup
        out.append((success, res.iterations, res.converged, res.flags))
    return out
