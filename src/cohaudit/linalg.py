"""Operator-norm helpers shared by the verifiers and solvers.

Both norms come from dense symmetric eigenvalues, exact to rounding at
every size.
"""

import numpy as np


def sym_opnorm(sym):
    """Spectral norm of a symmetric matrix: its largest |eigenvalue|."""
    if sym.shape[0] == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvalsh(sym))))


def operator_norm(mat):
    """Largest singular value of a dense matrix.

    The square root of the top eigenvalue of the smaller Gram matrix,
    mat mat^T or mat^T mat, which is never larger than mat itself.
    """
    n, m = mat.shape
    if n == 0 or m == 0:
        return 0.0
    gram = mat @ mat.T if n <= m else mat.T @ mat
    return float(np.sqrt(max(np.linalg.eigvalsh(gram)[-1], 0.0)))
