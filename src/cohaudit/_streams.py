"""Deterministic random streams.

Every randomized routine in the library derives its generator from
hash(seed, purpose tags) via Philox, a counter-based generator whose bit
stream does not depend on platform or call order.  Two calls with the
same (seed, tags) always see the same stream, so Monte Carlo trials give
identical results at any thread count and in any execution order.
"""

import hashlib
import operator

import numpy as np


def _digest(seed, tags, size):
    h = hashlib.blake2b(digest_size=size)
    h.update(str(operator.index(seed)).encode())
    for tag in tags:
        h.update(b"\x1f")
        h.update(str(tag).encode())
    return h.digest()


def stream(seed, *tags, jump=0):
    """Fresh Philox generator keyed by blake2b(seed, *tags), jump * 2**128 draws on."""
    bits = np.random.Philox(key=np.frombuffer(_digest(seed, tags, 16), dtype="<u8"))
    return np.random.Generator(bits.jumped(jump) if jump else bits)


def substream_seed(seed, *tags):
    """Collapse (seed, tags) into a 63-bit integer usable as a child seed."""
    return int.from_bytes(_digest(seed, tags, 8), "little") >> 1


def k_subset(rng, n, k):
    """Uniform random k-subset of range(n), returned sorted: one row of k_subsets."""
    return k_subsets(rng, n, k, 1)[0]


def k_subsets(rng, n, k, count):
    """count uniform random k-subsets of range(n), one sorted row each.

    Floyd's algorithm, vectorised over the rows of one (count, k) uniform
    array: row i uses only row i of the draw, so it does not depend on
    count.  O(count * k) memory whatever n is.
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    u = rng.random((count, k))
    out = np.empty((count, k), dtype=np.intp)
    for s in range(k):
        j = n - k + s
        t = (u[:, s] * (j + 1)).astype(np.intp)
        taken = (out[:, :s] == t[:, None]).any(axis=1)
        out[:, s] = np.where(taken, j, t)
    out.sort(axis=1)
    return out
