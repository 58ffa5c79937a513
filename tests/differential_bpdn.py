"""Differential check of the lockstep lasso homotopy against the one-signal path.

Draws random small problems and compares, column by column and repr for
repr, the library's `solvers._bpdn` on a block of observations and its
`lasso` on one against `reference_solvers.bpdn` and `lasso_path`.  The
problems mix gaussian atoms, duplicated and negated copies, signed spikes
(exact arithmetic, real ties), atoms 1e-14 to 1e-6 from another (Grams
singular to rounding) and overdetermined dictionaries (infeasible
epsilons), with epsilon 0, tiny, or up to past ||y||.

It is too slow for the test suite.  Run it from the repository root:

    PYTHONPATH=src:tests python tests/differential_bpdn.py [seed] [instances]

It prints the counts of columns and flags seen, and every mismatch.
"""

import collections
import sys

import numpy as np

import reference_solvers as ref
from cohaudit import lasso, solvers


def dictionary(rng):
    """A random unit-column dictionary of one of five kinds."""
    kind, rows = rng.integers(5), int(rng.integers(1, 13))
    if kind == 0:  # gaussian
        return kind, _unit(rng.standard_normal((rows, rows + int(rng.integers(0, 20)))))
    if kind == 4:  # overdetermined
        cols = max(1, rows - int(rng.integers(0, rows)))
        return kind, _unit(rng.standard_normal((rows + int(rng.integers(1, 6)), cols)))
    if kind == 2:  # signed spikes
        base = np.eye(rows)[:, rng.permutation(rows)] * rng.choice([-1.0, 1.0], rows)
    else:
        base = rng.standard_normal((rows, rows + int(rng.integers(0, 10))))
    copies = rng.choice(base.shape[1], int(rng.integers(kind != 2, base.shape[1] + 1)))
    if kind == 3:  # nearly parallel copies
        extra = base[:, copies] + 10.0 ** rng.integers(-14, -6) * rng.standard_normal(
            (rows, copies.size))
    else:  # exact copies, some negated
        extra = base[:, copies] * rng.choice([-1.0, 1.0], copies.size)
    data = np.hstack([base, extra])
    return kind, _unit(data[:, rng.permutation(data.shape[1])])


def _unit(data):
    return data / np.linalg.norm(data, axis=0)


def observations(rng, kind, data):
    """1 to 8 planted observations, some noisy, the first sometimes zero."""
    cols, trials = data.shape[1], int(rng.integers(1, 9))
    k = int(rng.integers(0, cols + 1))
    truths = np.zeros((cols, trials))
    for t in range(trials):
        values = rng.choice([-1.0, 1.0], k) if kind == 2 else rng.standard_normal(k)
        truths[rng.choice(cols, k, replace=False), t] = values
    ys = data @ truths
    if rng.random() < 0.5:
        ys += 10.0 ** rng.integers(-6, 0) * rng.standard_normal(ys.shape)
    if rng.random() < 0.1:
        ys[:, 0] = 0.0
    return ys


def main(seed=0, instances=5000):
    rng = np.random.default_rng(seed)
    seen, mismatches = collections.Counter(), []
    for it in range(instances):
        kind, data = dictionary(rng)
        ys = observations(rng, kind, data)
        top = max(float(np.linalg.norm(ys, axis=0).max()), 1e-300)
        epsilon = [0.0, float(rng.uniform(0.001, 1.2)) * top,
                   float(10.0 ** rng.uniform(-12, -1)) * top][rng.integers(3)]
        for t, got in enumerate(solvers._bpdn(data, ys, epsilon)):
            want = ref.bpdn(data, ys[:, t], epsilon)
            seen["bpdn columns"] += 1
            seen.update(want.flags)
            if repr(got) != repr(want):
                mismatches.append((it, t, "bpdn"))
        y = ys[:, 0]
        lam = float(rng.uniform(0.0, 1.2)) * float(np.max(np.abs(data.T @ y)))
        seen["lasso"] += 1
        if repr(lasso(data, y, lam)) != repr(ref.lasso_path(data, y, lam)):
            mismatches.append((it, 0, "lasso"))
    print(f"instances={instances} seed={seed}", dict(seen))
    print(f"mismatches={len(mismatches)}", mismatches[:20])
    return not mismatches


if __name__ == "__main__":
    sys.exit(0 if main(*map(int, sys.argv[1:3])) else 1)
