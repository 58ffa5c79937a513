"""Per-trial reference solvers: the oracle for the batched solver kernels.

These are the straightforward one-signal forms of omp, iht and cosamp:
least squares by `np.linalg.lstsq` with a ridge fallback on rank
deficiency, a `lexsort` hard threshold, and ||M||_2 recomputed for every
IHT solve.  `recovery_trial` plants, observes and scores a trial exactly
as the library does, then solves it with these.  Tests compare the
library's batched phase path against them trial by trial.
"""

import math

import numpy as np

from cohaudit.solvers import NOISELESS_SUCCESS_TOL, SolveResult, _observe, _plant, _score
from cohaudit._streams import stream
from cohaudit.linalg import operator_norm


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


SOLVE = {"omp": omp, "iht": iht, "cosamp": cosamp}


def recovery_trial(data, k, solver, noise_sigma, seed, **options):
    """(success, iterations, converged, flags) of one planted trial, solved per trial."""
    x = _plant(stream(seed, "signal", k), data.shape[1], k)
    y = _observe(data @ x, noise_sigma, seed, "noise", k)
    res = SOLVE[solver](data, y, k, **options)
    rel, est_sup, true_sup = _score(res.estimate, x, noise_sigma)
    success = rel <= NOISELESS_SUCCESS_TOL if noise_sigma == 0 else est_sup == true_sup
    return success, res.iterations, res.converged, res.flags
