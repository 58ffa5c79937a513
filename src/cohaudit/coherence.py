"""Coherence statistics of a dictionary.

The coherence sample is the collection of pairwise column inner products
<d_i, d_j> for i < j.  Its extreme value is the mutual coherence; its
spread (population standard deviation) drives every probabilistic
guarantee downstream.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InsufficientDataError, UnnormalizedMatrixError
from .util import frozen_copy

NORM_TOL = 1e-9

# Above this many columns the Gram matrix is accumulated in column blocks
# instead of being formed whole.
DEFAULT_BLOCK_COLS = 4096

HIST_BIN_CAP = 512

# Minimum pair count before moment-based normality diagnostics mean much.
_NORMALITY_MIN = 100


@dataclass(frozen=True)
class CoherenceSample:
    """All pairwise inner products <d_i, d_j>, i < j, lexicographic order."""

    values: np.ndarray
    source_dims: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", frozen_copy(self.values))

    @property
    def count(self):
        return int(self.values.size)


@dataclass(frozen=True)
class CoherenceProfile:
    mutual_coherence: float
    mean: float
    std: float
    histogram: tuple
    sample_count: int


@dataclass(frozen=True)
class CrossCoherenceProfile:
    """Statistics of <d_i, b_j> over all column pairs of two dictionaries."""

    max_cross: float
    std: float
    mean: float
    sample_count: int


@dataclass(frozen=True)
class FitReport:
    """Moment diagnostics of the coherence sample against a centered Gaussian."""

    z_mean: float | None
    var_ratio: float
    excess_kurtosis: float | None
    passed: bool
    degenerate: bool = False


def require_normalized(matrix, name="matrix"):
    """Raise UnnormalizedMatrixError unless every column has unit norm."""
    if not matrix.is_normalized(NORM_TOL):
        worst = float(np.max(np.abs(matrix.column_norms() - 1.0)))
        raise UnnormalizedMatrixError(
            f"{name} columns must be unit norm (worst deviation {worst:.3g})")


def coherence_sample(matrix, block_cols=DEFAULT_BLOCK_COLS):
    """Collect the N(N-1)/2 pairwise column inner products.

    Pairs are ordered lexicographically: (0,1), (0,2), ..., (1,2), ...
    Requires unit-norm columns.
    """
    require_normalized(matrix)
    n, N = matrix.rows, matrix.cols
    data = matrix.data
    if N <= block_cols:
        gram = data.T @ data
        values = gram[np.triu_indices(N, k=1)]
    else:
        chunks = []
        for a in range(0, N, block_cols):
            b = min(a + block_cols, N)
            part = data[:, a:b].T @ data[:, a:]
            for r in range(b - a):
                chunks.append(part[r, r + 1:])
        values = np.concatenate(chunks) if chunks else np.zeros(0)
    return CoherenceSample(values=values, source_dims=(n, N))


def profile(sample, bins=None):
    """Summarize a coherence sample: extreme, moments, histogram.

    std is the population (1/count) standard deviation.  The histogram
    covers [min, max] with equal-width bins, max falling in the last bin;
    default bin count is ceil(sqrt(count)) capped at 512.
    """
    count = sample.count
    if count == 0:
        raise InsufficientDataError("need at least two columns for a coherence profile")
    if bins is None:
        bins = min(math.ceil(math.sqrt(count)), HIST_BIN_CAP)
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    v = sample.values
    mean = float(np.mean(v))
    std = float(np.sqrt(np.mean((v - mean) ** 2)))
    lo, hi = float(np.min(v)), float(np.max(v))
    edges = np.linspace(lo, hi, bins + 1)
    if hi > lo:
        counts, edges = np.histogram(v, bins=bins, range=(lo, hi))
    else:
        # all values identical: the single point sits in the last bin
        counts = np.zeros(bins, dtype=int)
        counts[-1] = count
    hist = tuple((float(edges[i]), float(edges[i + 1]), int(counts[i]))
                 for i in range(bins))
    return CoherenceProfile(
        mutual_coherence=float(np.max(np.abs(v))),
        mean=mean,
        std=std,
        histogram=hist,
        sample_count=count,
    )


def normality_check(sample, z_mean_max=4.0, kurtosis_max=0.5):
    """Check whether the sample looks like a centered Gaussian.

    Reports the standardized mean, the variance ratio std^2 * n against
    the 1/n reference, and excess kurtosis.  Passes when |z_mean| <=
    z_mean_max and |excess_kurtosis| <= kurtosis_max.  A zero-variance
    sample is flagged degenerate and fails.
    """
    count = sample.count
    if count < _NORMALITY_MIN:
        raise InsufficientDataError(
            f"normality check needs >= {_NORMALITY_MIN} pairs, got {count}")
    n = sample.source_dims[0]
    v = sample.values
    mean = float(np.mean(v))
    var = float(np.mean((v - mean) ** 2))
    if var == 0.0:
        return FitReport(z_mean=None, var_ratio=0.0, excess_kurtosis=None,
                         passed=False, degenerate=True)
    std = math.sqrt(var)
    z_mean = mean / (std / math.sqrt(count))
    m4 = float(np.mean((v - mean) ** 4))
    excess = m4 / var**2 - 3.0
    passed = abs(z_mean) <= z_mean_max and abs(excess) <= kurtosis_max
    return FitReport(z_mean=z_mean, var_ratio=var * n, excess_kurtosis=excess,
                     passed=passed)


def cross_coherence(left, right, block_cols=DEFAULT_BLOCK_COLS):
    """Statistics of the inner products between two dictionaries' columns.

    Covers all cols(left) * cols(right) ordered pairs.  Either side may
    be empty, giving a zero profile with sample_count 0.
    """
    if left.rows != right.rows:
        raise DimensionError(
            f"row mismatch: {left.rows} vs {right.rows}")
    require_normalized(left, "left")
    require_normalized(right, "right")
    total = left.cols * right.cols
    if total == 0:
        return CrossCoherenceProfile(max_cross=0.0, std=0.0, mean=0.0, sample_count=0)
    peak = 0.0
    s1 = 0.0
    s2 = 0.0
    for a in range(0, left.cols, block_cols):
        b = min(a + block_cols, left.cols)
        part = left.data[:, a:b].T @ right.data
        peak = max(peak, float(np.max(np.abs(part))))
        s1 += float(np.sum(part))
        s2 += float(np.sum(part * part))
    mean = s1 / total
    var = max(s2 / total - mean * mean, 0.0)
    return CrossCoherenceProfile(max_cross=peak, std=math.sqrt(var),
                                 mean=mean, sample_count=total)
