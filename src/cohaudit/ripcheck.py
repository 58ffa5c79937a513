"""Empirical checks of the probabilistic energy bands and tail bounds.

Two views of the same phenomenon, kept separate on purpose: per-vector
energy ratios ||D x||^2 / ||x||^2 on random supports, and the spectral
deviation ||D_S^T D_S - I|| of random Gram submatrices.  tail_check
compares empirical exceedance frequencies against a closed-form bound
with a finite-sample slack.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

from . import coherence
from ._streams import k_subsets, stream
from .coherence import require_normalized
from .errors import DimensionError, DomainError
from .linalg import sym_opnorm
from .util import frozen_copy, parallel_map

COEFF_MODELS = ("gaussian", "rademacher")


@dataclass(frozen=True)
class _Sample:
    values: np.ndarray
    trials: int

    def __post_init__(self):
        object.__setattr__(self, "values", frozen_copy(self.values))


@dataclass(frozen=True)
class RatioSample(_Sample):
    """Energy ratios over random supports and coefficients."""


@dataclass(frozen=True)
class SpectralSample(_Sample):
    """Gram-submatrix spectral deviations over random supports."""


@dataclass(frozen=True)
class TailCheckPoint:
    t: float
    empirical: float
    bound: float
    slack: float
    ok: bool


# Block j of a purpose draws its supports and coefficients from the keyed
# streams (seed, purpose, k, "support" | "coeff", j), one row per trial, so
# trial i depends only on (seed, k, i), whatever the threads or trial total.
BLOCK_TRIALS = 1024
# Entries in one chunk's (chunk, k, rows) gather of support columns, or in its
# (chunk, k, k) Gram blocks, 512 KiB: the samplers' memory stays cache-sized
# whatever the block or trial count.
GATHER_ENTRIES = 2**16


def _map_blocks(fn, trials, threads, groups=(None,)):
    """fn(group, j, size) for each group and block j, on the threads: a result list per group."""
    sizes = [min(BLOCK_TRIALS, trials - lo) for lo in range(0, trials, BLOCK_TRIALS)]
    items = [(group, j, size) for group in groups for j, size in enumerate(sizes)]
    done = parallel_map(lambda item: fn(*item), items, threads)
    return [done[i:i + len(sizes)] for i in range(0, len(done), len(sizes))]


def _block_draws(seed, purpose, k, cols, j, size, model="gaussian"):
    """Block j's sorted (size, k) supports and its coefficients."""
    supports = k_subsets(stream(seed, purpose, k, "support", j), cols, k, size)
    rng = stream(seed, purpose, k, "coeff", j)
    if model == "gaussian":
        return supports, rng.standard_normal((size, k))
    return supports, 2.0 * rng.integers(0, 2, size=(size, k)) - 1.0


def _chunks(size, k, rows):
    """Slices of a block whose column gathers hold at most GATHER_ENTRIES."""
    step = max(1, GATHER_ENTRIES // max(k * rows, 1))
    return [slice(lo, lo + step) for lo in range(0, size, step)]


def _columns(data, idx):
    """data.T[idx]: the columns data[:, i], i in idx, as an idx.shape + (rows,) view.

    They are gathered row by row from the row-major store, which is faster
    than reading strided columns.
    """
    gathered = np.take(data, idx, axis=1)
    return gathered.transpose(*range(1, gathered.ndim), 0)


def _row_dot(a, b):
    return np.einsum("tr,tr->t", a, b)


def _gram_blocks(data):
    """A reader of (chunk slice, stacked D_S^T D_S) over a block's sorted supports.

    A Gram that fits one coherence block is computed once and indexed (threads
    share it read-only); above that budget each chunk gathers its support
    columns and multiplies them, so no N x N array is built.
    """
    rows, cols = data.shape
    gram = data.T @ data if cols * cols <= coherence._STRIP_BUDGET else None

    def read(supports):
        size, k = supports.shape
        for sl in _chunks(size, k, rows if gram is None else k):
            s = supports[sl]
            if gram is None:
                sub = _columns(data, s)
                yield sl, sub @ sub.transpose(0, 2, 1)
            else:
                yield sl, gram[s[:, :, None], s[:, None, :]]

    return read


def _check_sampling(matrix, k, trials):
    require_normalized(matrix)
    if not 1 <= operator.index(k) <= matrix.cols:
        raise DomainError(f"need 1 <= k <= {matrix.cols}, got k={k}")
    if operator.index(trials) < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")


def sample_ratios(matrix, k, trials, seed, coeff_model="gaussian", threads=1):
    """Draw energy ratios r = ||D x||^2 / ||x||^2 on random k-supports.

    Each block of trials draws from its own keyed streams, so results are
    identical at any thread count.  ||D x||^2 is evaluated as c^T G_S c
    from the support's Gram block G_S = D_S^T D_S.  Requires unit-norm
    columns.
    """
    _check_sampling(matrix, k, trials)
    if coeff_model not in COEFF_MODELS:
        raise ValueError(f"unknown coefficient model {coeff_model!r}")
    gram_blocks = _gram_blocks(matrix.data)

    def block(_, j, size):
        supports, coeffs = _block_draws(seed, "ratio", k, matrix.cols, j, size, coeff_model)
        out = np.empty(size)
        for sl, g in gram_blocks(supports):
            c = coeffs[sl]
            out[sl] = _row_dot((c[:, None, :] @ g)[:, 0], c)
        return out / _row_dot(coeffs, coeffs)

    values = np.concatenate(_map_blocks(block, trials, threads)[0])
    return RatioSample(values=values, trials=trials)


BAND_ROUNDING = 1e-12


def band_frequency(sample, g):
    """Fraction of ratios inside the closed band [1-g, 1+g].

    A rounding allowance of 1e-12 keeps exact-arithmetic cases (for
    example orthonormal columns, where every ratio is 1 up to float
    error) inside a zero-width band; it is negligible against any
    statistically meaningful g.
    """
    if not g >= 0.0:
        raise DomainError(f"g must be >= 0, got {g}")
    v = sample.values
    lo, hi = 1.0 - g - BAND_ROUNDING, 1.0 + g + BAND_ROUNDING
    return float(np.mean((v >= lo) & (v <= hi)))


def spectral_deviation(matrix, support):
    """||D_S^T D_S - I||_2 for one explicit support."""
    support = np.asarray(support, dtype=int)
    if support.size == 0:
        return 0.0
    if np.unique(support).size != support.size:
        raise DomainError("support indices must be distinct")
    if support.min() < 0 or support.max() >= matrix.cols:
        raise DomainError(f"support indices must lie in [0, {matrix.cols})")
    sub = matrix.data[:, support]
    gram = sub.T @ sub
    return sym_opnorm(gram - np.eye(support.size))


def sample_spectral(matrix, k, trials, seed, threads=1):
    """Draw spectral deviations ||D_S^T D_S - I||_2 over random k-supports.

    Each chunk of a block stacks its k x k Gram blocks and takes their
    eigenvalues in one call.  Requires unit-norm columns.
    """
    _check_sampling(matrix, k, trials)
    gram_blocks = _gram_blocks(matrix.data)
    eye = np.eye(k)

    def block(_, j, size):
        supports = k_subsets(stream(seed, "spectral", k, "support", j), matrix.cols, k, size)
        out = np.empty(size)
        for sl, g in gram_blocks(supports):
            out[sl] = np.abs(np.linalg.eigvalsh(g - eye)).max(axis=1)
        return out

    values = np.concatenate(_map_blocks(block, trials, threads)[0])
    return SpectralSample(values=values, trials=trials)


def tail_check(sample, t_grid, bound_fn):
    """Compare empirical exceedance frequencies against a bound function.

    For a RatioSample the deviation is |r - 1|; for a SpectralSample it
    is the value itself.  At each t the empirical Pr(deviation > t) must
    not exceed bound_fn(t) plus the finite-sample slack
    2 sqrt(b(1-b)/trials) + 1/trials.
    """
    if isinstance(sample, RatioSample):
        devs = np.abs(sample.values - 1.0)
    elif isinstance(sample, SpectralSample):
        devs = sample.values
    else:
        raise TypeError(f"cannot tail-check {type(sample).__name__}")
    trials = devs.size
    points = []
    for t in t_grid:
        t = float(t)
        if not t > 0.0:
            raise DomainError(f"tail grid points must be positive, got {t}")
        b = float(min(1.0, max(0.0, bound_fn(t))))
        emp = float(np.mean(devs > t))
        slack = 2.0 * math.sqrt(b * (1.0 - b) / trials) + 1.0 / trials
        points.append(TailCheckPoint(t=t, empirical=emp, bound=b, slack=slack,
                                     ok=emp <= b + slack))
    return points


def energy_identity_gap(matrix, support, coeffs):
    """|| direct energy - Gram expansion | for one sparse vector.

    ||D x||^2 expands exactly into sum_i x_i^2 + sum_{i != j} <d_i, d_j>
    x_i x_j; the gap is rounding error only and should sit near 1e-16.
    """
    support = np.asarray(support, dtype=int)
    x = np.asarray(coeffs, dtype=np.float64)
    if support.size != x.size:
        raise DimensionError("support and coeffs must have equal length")
    sub = matrix.data[:, support]
    v = sub @ x
    direct = float(v @ v)
    gram = sub.T @ sub
    off = gram - np.diag(np.diag(gram))
    diag = float(np.sum(np.diag(gram) * x * x))
    expanded = diag + float(x @ off @ x)
    return abs(direct - expanded)
