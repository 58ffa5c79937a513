"""Empirical checks of the probabilistic energy bands and tail bounds.

Two views of the same phenomenon, kept separate on purpose: per-vector
energy ratios ||D x||^2 / ||x||^2 on random supports, and the spectral
deviation ||D_S^T D_S - I|| of random Gram submatrices.  tail_check
compares empirical exceedance frequencies against a closed-form bound
with a finite-sample slack.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._streams import k_subset, stream
from .coherence import require_normalized
from .errors import DimensionError, DomainError
from .linalg import sym_opnorm
from .util import frozen_copy, parallel_map

COEFF_MODELS = ("gaussian", "rademacher")


@dataclass(frozen=True)
class RatioSample:
    """Energy ratios over random supports and coefficients."""

    values: np.ndarray
    k: int
    trials: int
    seed: int
    coeff_model: str

    def __post_init__(self):
        object.__setattr__(self, "values", frozen_copy(self.values))


@dataclass(frozen=True)
class SpectralSample:
    """Gram-submatrix spectral deviations over random supports."""

    values: np.ndarray
    k: int
    trials: int
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "values", frozen_copy(self.values))


@dataclass(frozen=True)
class TailCheckPoint:
    t: float
    empirical: float
    bound: float
    slack: float
    ok: bool


def _coefficients(rng, k, model):
    if model == "gaussian":
        return rng.standard_normal(k)
    return 2.0 * rng.integers(0, 2, size=k) - 1.0


def sample_ratios(matrix, k, trials, seed, coeff_model="gaussian", threads=1):
    """Draw energy ratios r = ||D x||^2 / ||x||^2 on random k-supports.

    Each trial gets its own keyed stream, so results are identical at
    any thread count.  Requires unit-norm columns.
    """
    require_normalized(matrix)
    if not 1 <= k <= matrix.cols:
        raise DomainError(f"need 1 <= k <= {matrix.cols}, got k={k}")
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    if coeff_model not in COEFF_MODELS:
        raise ValueError(f"unknown coefficient model {coeff_model!r}")
    data = matrix.data
    cols = matrix.cols

    def one(trial):
        rng = stream(seed, "ratio", k, trial)
        support = k_subset(rng, cols, k)
        c = _coefficients(rng, k, coeff_model)
        v = data[:, support] @ c
        return float(v @ v) / float(c @ c)

    values = np.array(parallel_map(one, range(trials), threads))
    return RatioSample(values=values, k=k, trials=trials, seed=seed,
                       coeff_model=coeff_model)


BAND_ROUNDING = 1e-12


def band_frequency(sample, g):
    """Fraction of ratios inside the closed band [1-g, 1+g].

    A rounding allowance of 1e-12 keeps exact-arithmetic cases (for
    example orthonormal columns, where every ratio is 1 up to float
    error) inside a zero-width band; it is negligible against any
    statistically meaningful g.
    """
    if g < 0.0:
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
    """Draw spectral deviations over random k-supports."""
    require_normalized(matrix)
    if not 1 <= k <= matrix.cols:
        raise DomainError(f"need 1 <= k <= {matrix.cols}, got k={k}")
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    cols = matrix.cols

    def one(trial):
        rng = stream(seed, "spectral", k, trial)
        support = k_subset(rng, cols, k)
        return spectral_deviation(matrix, support)

    values = np.array(parallel_map(one, range(trials), threads))
    return SpectralSample(values=values, k=k, trials=trials, seed=seed)


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
        if t <= 0.0:
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
