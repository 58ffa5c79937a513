"""Coherence statistics of a dictionary.

The coherence sample is the collection of pairwise column inner products
<d_i, d_j> for i < j.  Its extreme value is the mutual coherence; its
spread (population standard deviation) drives every probabilistic
guarantee downstream.
"""

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InsufficientDataError, UnnormalizedMatrixError
from .util import frozen_copy

# Gram entries held per strip (16 MB of float64).  Strips are
# max(1, _STRIP_BUDGET // N) columns wide, so N^2 <= 2^21 is one strip.
_STRIP_BUDGET = 2**21

HIST_BIN_CAP = 512

# Minimum pair count before moment-based normality diagnostics mean much.
_NORMALITY_MIN = 100


class _Stats(namedtuple("_Stats", "lo hi mean m2 m4 counts")):  # counts None without bins
    mutual_coherence = property(lambda self: max(abs(self.lo), abs(self.hi)))
    std = property(lambda self: math.sqrt(self.m2))


def _strip_stats(strips, count, bins=None):
    """_Stats of the values strips() yields, holding one strip at a time.

    Pass 1 sums and takes extremes; pass 2 the central sums and histogram.
    The element expressions are the whole-array ones: one strip, same bits.
    """
    # map, unlike a for loop, keeps no strip alive while the next is made
    sums, los, his = np.array([*map(lambda v: (np.sum(v), np.min(v), np.max(v)), strips())]).T
    mean, lo, hi = float(np.sum(sums)) / count, float(np.min(los)), float(np.max(his))
    s2 = s4 = 0.0
    counts = None if bins is None else np.zeros(bins, dtype=np.int64)
    if counts is not None and not hi > lo:
        counts[-1] = count  # all values equal: the one point sits in the last bin
    for v in strips():
        if counts is not None and hi > lo:
            counts += np.histogram(v, bins=bins, range=(lo, hi))[0]
        v = (v - mean) ** 2  # squared again below: v ** 4 would call libm pow per element
        s2 += float(np.sum(v))
        s4 += float(np.sum(v * v))
        del v
    return _Stats(lo, hi, mean, s2 / count, s4 / count, counts)


class CoherenceSample:
    """All pairwise inner products <d_i, d_j>, i < j, lexicographic order.

    A sample of a matrix keeps the matrix, not the N(N-1)/2 pairs, and
    reads them one strip of Gram rows at a time; `values` materialises
    them.  A sample built from explicit values is a single strip.
    """

    def __init__(self, values, source_dims):
        values = frozen_copy(values)
        self._strips, self._count = (lambda: iter((values,))), values.size
        self.source_dims = tuple(source_dims)
        self._kept = None

    count = property(lambda self: self._count, doc="Number of pairs.")

    @property
    def values(self):
        """Every pair, as one read-only array."""
        v = np.concatenate([np.zeros(0), *self._strips()])
        v.flags.writeable = False
        return v

    def _two_pass(self, bins=None):
        """_strip_stats of the pairs, kept.  bins=None takes the kept result
        whatever its bins, so profile then normality_check read the strips twice."""
        if self._count == 0:
            raise InsufficientDataError("need at least two columns for a coherence profile")
        if self._kept is None or bins not in (None, self._kept[0]):
            self._kept = (bins, _strip_stats(self._strips, self._count, bins))
        return self._kept[1]


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
    """Raise UnnormalizedMatrixError unless every column norm is within 1e-9 of 1."""
    sq = np.einsum("ij,ij->j", matrix.data, matrix.data)  # no rows x cols temporary
    worst = float(np.max(np.abs(np.sqrt(sq) - 1.0), initial=0.0))
    if worst > 1e-9:
        raise UnnormalizedMatrixError(
            f"{name} columns must be unit norm (worst deviation {worst:.3g})")


def coherence_sample(matrix, block_cols=None):
    """The N(N-1)/2 pairwise column inner products, read in Gram strips.

    Pairs are ordered lexicographically: (0,1), (0,2), ..., (1,2), ...
    A strip spans block_cols Gram rows (default: a fixed budget of
    entries per strip).  Requires unit-norm columns.
    """
    require_normalized(matrix)
    data, N = matrix.data, matrix.cols
    w = block_cols or max(1, _STRIP_BUDGET // max(N, 1))
    sample = CoherenceSample((), data.shape)
    # Gram rows a..a+w-1 from column a on, keeping column > row (row N-1 has none)
    sample._strips = lambda: (
        (data[:, a:a + w].T @ data[:, a:])[np.arange(N - a) > np.arange(min(w, N - a))[:, None]]
        for a in range(0, N - 1, w))
    sample._count = N * (N - 1) // 2
    return sample


def profile(sample, bins=None):
    """Summarize a coherence sample: extreme, moments, histogram.

    std is the population (1/count) standard deviation.  The histogram
    covers [min, max] with equal-width bins, max falling in the last bin;
    default bin count is ceil(sqrt(count)) capped at 512.
    """
    count = sample.count
    if bins is None:
        bins = min(math.ceil(math.sqrt(count)), HIST_BIN_CAP)
    elif bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    st = sample._two_pass(bins)
    edges = np.linspace(st.lo, st.hi, bins + 1)
    hist = tuple(zip(map(float, edges[:-1]), map(float, edges[1:]), map(int, st.counts)))
    return CoherenceProfile(mutual_coherence=st.mutual_coherence, mean=st.mean, std=st.std,
                            histogram=hist, sample_count=count)


def normality_check(sample):
    """Check whether the sample looks like a centered Gaussian.

    Reports the standardized mean, the variance ratio std^2 * n against
    the 1/n reference, and excess kurtosis.  Passes when |z_mean| <= 4
    and |excess_kurtosis| <= 0.5.  A zero-variance sample is flagged
    degenerate and fails.
    """
    count = sample.count
    if count < _NORMALITY_MIN:
        raise InsufficientDataError(
            f"normality check needs >= {_NORMALITY_MIN} pairs, got {count}")
    n = sample.source_dims[0]
    st = sample._two_pass()
    if st.m2 == 0.0:
        return FitReport(z_mean=None, var_ratio=0.0, excess_kurtosis=None,
                         passed=False, degenerate=True)
    z_mean = st.mean / (math.sqrt(st.m2) / math.sqrt(count))
    excess = st.m4 / st.m2**2 - 3.0
    passed = abs(z_mean) <= 4.0 and abs(excess) <= 0.5
    return FitReport(z_mean=z_mean, var_ratio=st.m2 * n, excess_kurtosis=excess,
                     passed=passed)


def cross_coherence(left, right, block_cols=None):
    """Statistics of the inner products between two dictionaries' columns.

    Covers all cols(left) * cols(right) ordered pairs, read in strips of
    block_cols left columns.  Either side may be empty, giving a zero
    profile with sample_count 0.
    """
    if left.rows != right.rows:
        raise DimensionError(
            f"row mismatch: {left.rows} vs {right.rows}")
    require_normalized(left, "left")
    require_normalized(right, "right")
    total = left.cols * right.cols
    if total == 0:
        return CrossCoherenceProfile(max_cross=0.0, std=0.0, mean=0.0, sample_count=0)
    w = block_cols or max(1, _STRIP_BUDGET // right.cols)
    st = _strip_stats(lambda: ((left.data[:, a:a + w].T @ right.data).ravel()
                               for a in range(0, left.cols, w)), total)
    return CrossCoherenceProfile(max_cross=st.mutual_coherence, std=st.std, mean=st.mean,
                                 sample_count=total)
