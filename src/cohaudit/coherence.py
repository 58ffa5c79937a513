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

# Gram entries held per block (4 MB of float64), and the Gram rows per
# strip.  A strip is read in blocks of _STRIP_BUDGET // _BLOCK_ROWS columns;
# 128 rows per product pay for packing the columns it reads (Goto & van de
# Geijn 2008), and N <= 128 is one block.
_STRIP_BUDGET = 2**19
_BLOCK_ROWS = 128

# Strip entries binned at a time by _bin_counts (128 KB of float64).
_BIN_CHUNK = 2**14

HIST_BIN_CAP = 512

# Minimum pair count before moment-based normality diagnostics mean much.
_NORMALITY_MIN = 100


class _Stats(namedtuple("_Stats", "lo hi mean m2 m4 counts")):  # counts None without bins
    mutual_coherence = property(lambda self: max(abs(self.lo), abs(self.hi)))
    std = property(lambda self: math.sqrt(self.m2))


def _strip_stats(blocks, count, bins=None):
    """_Stats of the pairs in the Gram blocks blocks() yields, holding one block at a time.

    blocks() yields (g, upper): a new block g whose pairs are every entry,
    or with upper the g[i, j], j > i; they alone are read (and overwritten).
    Pass 1 sums and takes extremes; pass 2 the central sums and histogram.
    The element expressions are the whole-array ones: one block, same bits.
    """
    # map, unlike a for loop, keeps no block alive while the next is made
    sums, los, his = zip(*map(_first_pass, blocks()))
    mean = float(np.sum([s for block_sums in sums for s in block_sums])) / count
    lo, hi = float(np.min(los)), float(np.max(his))
    counts = None if bins is None else np.zeros(bins, dtype=np.int64)
    if counts is not None and not hi > lo:
        counts[-1] = count  # all values equal: the one point sits in the last bin

    def second_pass(block):
        parts = _pair_parts(*block)
        if counts is not None and hi > lo:
            for v in parts:
                counts[:] += _bin_counts(v, lo, hi, bins)
        return [_central_sums(v, mean) for v in parts]

    s2 = s4 = 0.0
    for block_sums in map(second_pass, blocks()):
        for a, b in block_sums:
            s2 += a
            s4 += b
    return _Stats(lo, hi, mean, s2 / count, s4 / count, counts)


def _first_pass(block):
    """Sums of a block's pair parts, and their extremes."""
    parts = _pair_parts(*block)
    return [np.sum(v) for v in parts], min(map(np.min, parts)), max(map(np.max, parts))


def _bin_counts(v, lo, hi, bins):
    """np.histogram(v, bins, range=(lo, hi))[0], bin for bin, for v within [lo, hi].

    v's bin is the whole part of (v - lo) * bins / (hi - lo), which is off
    from v's place among the np.linspace edges by a few ulps of
    bins * max(|lo|, |hi|) / (hi - lo).  Only where it lies within tol of a
    whole number can it differ from numpy's bin, so there numpy's rule is
    applied: index (v - lo) / (hi - lo) * bins, moved by one where v is on
    the wrong side of an edge.  v, 1-D or a strided 2-D view, is read where
    it lies, in blocks of whole rows or row pieces of _BIN_CHUNK entries.
    """
    edges = np.linspace(lo, hi, bins + 1)
    if np.any(edges[:-1] >= edges[1:]):
        raise ValueError(f"the pairs span [{lo:.17g}, {hi:.17g}], too narrow for {bins} "
                         "finite-sized bins; pass a smaller --bins (1 always fits)")
    tol = max(1e-6, 64 * np.finfo(np.float64).eps * bins * max(abs(lo), abs(hi)) / (hi - lo))
    scale = bins / (hi - lo)
    v = np.atleast_2d(v)  # a 1-D part is one row
    w = max(1, min(v.shape[1], _BIN_CHUNK))  # row pieces w long, h of them per block
    h = _BIN_CHUNK // w
    f, r = np.empty((2, min(v.size, _BIN_CHUNK)))
    k = np.empty(f.size, np.intp)
    counts = np.zeros(bins, dtype=np.int64)
    for x in (v[a:a + h, b:b + w] for a in range(0, v.shape[0], h)
              for b in range(0, v.shape[1], w)):
        fx, rx, kx = (t[:x.size].reshape(x.shape) for t in (f, r, k))
        np.subtract(x, lo, out=fx)
        fx *= scale
        np.copyto(kx, fx, casting="unsafe")  # truncation, as astype(np.intp)
        fx -= np.rint(fx, out=rx)
        near = np.flatnonzero(np.abs(fx, out=fx) <= tol)
        if near.size:
            xn = x.flat[near]
            kn = ((xn - lo) / (hi - lo) * bins).astype(np.intp)
            kn[kn == bins] -= 1
            kn -= xn < edges[kn]
            kn += (xn >= edges[kn + 1]) & (kn != bins - 1)
            kx.flat[near] = kn
        counts += np.bincount(kx.ravel(), minlength=bins)
    return counts


def _pair_parts(g, upper):
    """The parts of block g that hold its pairs; g is read, not written.

    Without upper the one part is g.  With upper the first part is a flat
    copy of the pairs in g's first rows + 1 columns (on the block of the
    last rows: every pair, in order), the second a view of the columns to
    their right.
    """
    c = min(g.shape[0] + 1, g.shape[1]) if upper else 0
    tri = g[:, :c][np.arange(c) > np.arange(g.shape[0])[:, None]]
    return [v for v in (tri, g[:, c:]) if v.size]


def _central_sums(v, mean):
    """Sums of (v - mean)^2 and (v - mean)^4, squaring v where it lies (no libm pow)."""
    v -= mean
    v *= v
    s2 = float(np.sum(v))
    v *= v
    return s2, float(np.sum(v))


class CoherenceSample:
    """All pairwise inner products <d_i, d_j>, i < j, lexicographic order.

    A sample keeps the matrix, not the N(N-1)/2 pairs: blocks() yields
    them one block of Gram entries at a time, as (block, upper) for
    _strip_stats, count is their number, and `values` materialises them.
    A block with upper begins a strip of Gram rows and holds its diagonal;
    the blocks after it continue the same rows to the right.
    """

    def __init__(self, blocks, count, source_dims):
        self._blocks, self._count = blocks, count
        self.source_dims = tuple(source_dims)
        self._kept = None

    count = property(lambda self: self._count, doc="Number of pairs.")

    @property
    def values(self):
        """Every pair, as one read-only array."""
        strips = []  # (upper, blocks): a strip's blocks are set side by side, then masked
        for g, upper in self._blocks():
            if upper or not strips:
                strips.append((upper, []))
            strips[-1][1].append(g)
        pairs = [np.zeros(0)]
        for upper, blocks in strips:
            g = np.hstack(blocks)
            pairs.append(g[np.arange(g.shape[1]) > np.arange(g.shape[0])[:, None]] if upper
                         else g.ravel())
        v = np.concatenate(pairs)
        v.flags.writeable = False
        return v

    def _two_pass(self, bins=None):
        """_strip_stats of the pairs, kept.  bins=None takes the kept result
        whatever its bins, so profile then normality_check read the blocks twice."""
        if self._count == 0:
            raise InsufficientDataError("need at least two columns for a coherence profile")
        if self._kept is None or bins not in (None, self._kept[0]):
            self._kept = (bins, _strip_stats(self._blocks, self._count, bins))
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


def _block_reader(left, right, upper):
    """A reader of left.T @ right in blocks, as (block, upper) pairs for CoherenceSample.

    Strips of _BLOCK_ROWS Gram rows (left columns) are read in blocks of
    _STRIP_BUDGET // _BLOCK_ROWS right columns (at least one), so no block
    outgrows the budget whatever N.  With upper, left is right and strip a
    starts at column a: its first block, the one flagged, holds the
    diagonal and spans at least the strip's own columns and one more, so
    it holds a pair.  The geometry is fixed when the reader is made.
    """
    h, w, n = _BLOCK_ROWS, max(1, _STRIP_BUDGET // _BLOCK_ROWS), right.shape[1]

    def read():
        # with upper the last Gram row has no pairs, so it starts no strip
        for a in range(0, left.shape[1] - upper, h):
            strip, b = left[:, a:a + h].T, a if upper else 0
            edges = [b, *range(b + max(w, len(strip) + 1), n, w), n]
            for c, d in zip(edges, edges[1:]):
                yield strip @ right[:, c:d], upper and c == b

    return read


def coherence_sample(matrix):
    """The N(N-1)/2 pairwise column inner products, read in Gram blocks.

    Pairs are ordered lexicographically: (0,1), (0,2), ..., (1,2), ...
    A strip of _BLOCK_ROWS (128) Gram rows a.. is read from column a on,
    in blocks of _STRIP_BUDGET // 128 (4,096) columns: at most 4 MB at a
    time, and N <= 128 is one block.  Requires unit-norm columns.
    """
    require_normalized(matrix)
    data, N = matrix.data, matrix.cols
    return CoherenceSample(_block_reader(data, data, True), N * (N - 1) // 2, data.shape)


def profile(sample, bins=None):
    """Summarize a coherence sample: extreme, moments, histogram.

    std is the population (1/count) standard deviation.  The histogram
    covers [min, max] with equal-width bins, max falling in the last bin;
    default bin count is ceil(sqrt(count)) capped at HIST_BIN_CAP = 512,
    and an explicit one must lie in [1, HIST_BIN_CAP].
    """
    count = sample.count
    if bins is None:
        bins = min(math.ceil(math.sqrt(count)), HIST_BIN_CAP)
    elif not 1 <= bins <= HIST_BIN_CAP:
        raise ValueError(f"bins must be in [1, {HIST_BIN_CAP}], got {bins}")
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


def cross_coherence(left, right):
    """Statistics of the inner products between two dictionaries' columns.

    Covers all cols(left) * cols(right) ordered pairs, read in blocks of
    _BLOCK_ROWS (128) left columns by _STRIP_BUDGET // 128 (4,096) right
    columns.  Either side may be empty, giving a zero profile with
    sample_count 0.
    """
    if left.rows != right.rows:
        raise DimensionError(
            f"row mismatch: {left.rows} vs {right.rows}")
    require_normalized(left, "left")
    require_normalized(right, "right")
    total = left.cols * right.cols
    if total == 0:
        return CrossCoherenceProfile(max_cross=0.0, std=0.0, mean=0.0, sample_count=0)
    st = _strip_stats(_block_reader(left.data, right.data, False), total)
    return CrossCoherenceProfile(max_cross=st.mutual_coherence, std=st.std, mean=st.mean,
                                 sample_count=total)
