"""Two-dictionary separation and corruption-robust recovery.

A signal sparse in dictionary D plus a disturbance sparse in dictionary
B is recovered jointly: stack [D B], solve one l1 problem, split the
solution.  The feasibility condition compares the measured coherence
spreads of D, B, and their cross products against the combined sparsity.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._streams import stream
from .bounds import separation_condition
from .coherence import coherence_sample, cross_coherence
from .ensembles import MeasurementMatrix, normalize_columns, real_fourier_frame
from .errors import DimensionError, DomainError
from .ripcheck import BAND_ROUNDING, _block_draws, _chunks, _images, _map_blocks, _row_dot
from .solvers import SparseSignal, _bpdn_epsilon, _observe, _plant, _score, bpdn
from .util import frozen_copy


@dataclass(frozen=True)
class SeparationProblem:
    left: MeasurementMatrix
    right: MeasurementMatrix
    y: np.ndarray
    epsilon: float
    n_x: int
    n_e: int

    def __post_init__(self):
        y = frozen_copy(self.y).ravel()
        if self.left.rows != self.right.rows:
            raise DimensionError(
                f"row mismatch: {self.left.rows} vs {self.right.rows}")
        if y.size != self.left.rows:
            raise DimensionError(
                f"y has length {y.size}, dictionaries have {self.left.rows} rows")
        if not 0 <= self.epsilon < math.inf:
            raise DomainError(f"epsilon must be finite and >= 0, got {self.epsilon}")
        if self.n_x < 0 or self.n_e < 0:
            raise DomainError(f"sparsities must be >= 0, got {self.n_x}, {self.n_e}")
        object.__setattr__(self, "y", y)


@dataclass
class SeparationResult:
    x_hat: SparseSignal
    e_hat: SparseSignal
    feature_left: np.ndarray
    feature_right: np.ndarray
    solver: object


@dataclass(frozen=True)
class SeparationTrial:
    x_rel_error: float
    e_rel_error: float
    x_support_ok: bool
    e_support_ok: bool
    residual_norm: float
    converged: bool


@dataclass(frozen=True)
class JointRipReport:
    g: float
    in_band: float
    g_pair_scaled: float
    in_band_pair_scaled: float
    trials: int
    max_energy_gap: float
    condition: object


def joint_dictionary(left, right):
    """Column-stack two dictionaries into one (tagged 'custom')."""
    if left.rows != right.rows:
        raise DimensionError(f"row mismatch: {left.rows} vs {right.rows}")
    return MeasurementMatrix(np.hstack([left.data, right.data]))


def measured_spreads(left, right):
    """Coherence spreads (sigma_left, sigma_right, sigma_cross) from data.

    A dictionary with fewer than two columns contributes zero spread.
    """
    sigma_left = coherence_sample(left)._two_pass().std if left.cols >= 2 else 0.0
    sigma_right = coherence_sample(right)._two_pass().std if right.cols >= 2 else 0.0
    return sigma_left, sigma_right, cross_coherence(left, right).std


def separation_feasibility(left, right, n_x, n_e):
    """Feasibility condition at measured spreads; zero sparsities clamp to 1."""
    sl, sr, sc = measured_spreads(left, right)
    return separation_condition(sl, sr, sc, max(n_x, 1), max(n_e, 1))


def separate(problem):
    """Recover both sparse components from one joint l1 solve.

    With an empty right dictionary this reduces exactly to bpdn on the
    left dictionary (same path).  The feasibility margin depends only on
    the dictionary pair and the sparsities: separation_feasibility.
    """
    joint = joint_dictionary(problem.left, problem.right)
    res = bpdn(joint, problem.y, problem.epsilon)
    split = problem.left.cols
    x_dense = res.estimate[:split]
    e_dense = res.estimate[split:]
    return SeparationResult(
        x_hat=SparseSignal.from_dense(x_dense),
        e_hat=SparseSignal.from_dense(e_dense),
        feature_left=problem.left.data @ x_dense,
        feature_right=(problem.right.data @ e_dense if problem.right.cols
                       else np.zeros(problem.left.rows)),
        solver=res,
    )


def spikes_fourier_pair(n):
    """The canonical separation pair: identity spikes and harmonic waves."""
    spikes = MeasurementMatrix(np.eye(n))
    waves = normalize_columns(MeasurementMatrix(real_fourier_frame(n)))
    return spikes, waves


def _planted_trial(left, right, x, e, n_x, n_e, seed, noise_tag, noise_sigma, epsilon):
    """Mix the planted pair (x, e), add noise, separate and score."""
    clean = left.data @ x + (right.data @ e if right.cols else 0.0)
    problem = SeparationProblem(left=left, right=right,
                                y=_observe(clean, noise_sigma, seed, noise_tag),
                                epsilon=epsilon, n_x=n_x, n_e=n_e)
    result = separate(problem)
    x_rel, x_est, x_true = _score(result.x_hat.to_dense(), x, noise_sigma)
    e_rel, e_est, e_true = _score(result.e_hat.to_dense(), e, noise_sigma)
    return SeparationTrial(
        x_rel_error=x_rel,
        e_rel_error=e_rel,
        x_support_ok=x_est == x_true,
        e_support_ok=e_est == e_true,
        residual_norm=result.solver.residual_norm,
        converged=result.solver.converged,
    )


def separation_trial(left, right, n_x, n_e, seed, noise_sigma=0.0, epsilon=1e-6):
    """One planted separation experiment.

    Draws n_x atoms from the left dictionary and n_e from the right with
    Gaussian coefficients, mixes, optionally adds noise, separates, and
    reports per-component relative errors and support agreement.
    """
    if left.rows != right.rows:
        raise DimensionError(f"row mismatch: {left.rows} vs {right.rows}")
    if not 0 <= n_x <= left.cols or not 0 <= n_e <= right.cols:
        raise DomainError(f"need 0 <= n_x <= {left.cols} and 0 <= n_e <= "
                          f"{right.cols}, got {n_x}, {n_e}")
    x = _plant(stream(seed, "separation-x", n_x), left.cols, n_x)
    e = _plant(stream(seed, "separation-e", n_e), right.cols, n_e)
    return _planted_trial(left, right, x, e, n_x, n_e, seed, "separation-noise",
                          noise_sigma, epsilon)


def robust_recovery_trial(matrix, k, n_corruptions, noise_sigma, seed):
    """Recovery under gross measurement corruption.

    The measurement picks up n_corruptions spike errors of typical size
    10 on top of optional dense Gaussian noise; recovery stacks the
    dictionary with the identity and separates.  The x fields of the
    result describe the signal, the e fields the corruption.
    """
    n = matrix.rows
    if not 0 <= n_corruptions <= n:
        raise DimensionError(f"need 0 <= n_corruptions <= {n}, got {n_corruptions}")
    if not 0 <= k <= matrix.cols:
        raise DomainError(f"need 0 <= k <= {matrix.cols}, got {k}")
    x = _plant(stream(seed, "robust-signal", k), matrix.cols, k)
    e = 10.0 * _plant(stream(seed, "robust-corruption", n_corruptions), n, n_corruptions)
    return _planted_trial(matrix, MeasurementMatrix(np.eye(n)), x, e, k, n_corruptions,
                          seed, "robust-noise", noise_sigma, _bpdn_epsilon(noise_sigma, n))


def joint_rip_check(left, right, n_x, n_e, trials, seed, threads=1):
    """Monte Carlo check of the joint energy band and the cross-energy identity.

    Each trial plants a random (n_x, n_e)-sparse pair, computes the joint
    energy ratio ||D x + B e||^2 / (||x||^2 + ||e||^2), and checks it
    against 1 +- g for both the measured-band g and its pair-scaled
    variant.  Also tracks the worst rounding gap of the decomposition
    ||D x + B e||^2 = ||D x||^2 + ||B e||^2 + 2 <D x, B e>.
    """
    if left.rows != right.rows:
        raise DimensionError(f"row mismatch: {left.rows} vs {right.rows}")
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    if not 0 <= n_x <= left.cols or not 0 <= n_e <= right.cols:
        raise DomainError("sparsities must fit inside the dictionaries")
    cond = separation_feasibility(left, right, n_x, n_e)

    def block(j, size):
        """Per trial of block j: the joint energy ratio and the rounding gap."""
        sx, cx = _block_draws(seed, "joint-rip-x", n_x, left.cols, j, size)
        se, ce = _block_draws(seed, "joint-rip-e", n_e, right.cols, j, size)
        out = np.empty((size, 2))
        for sl in _chunks(size, max(n_x, n_e), left.rows):
            dx = _images(left.data, sx[sl], cx[sl])
            be = _images(right.data, se[sl], ce[sl])
            direct = _row_dot(dx + be, dx + be)
            parts = _row_dot(dx, dx) + _row_dot(be, be) + 2.0 * _row_dot(dx, be)
            out[sl, 0] = direct
            out[sl, 1] = np.abs(direct - parts)
        energy = _row_dot(cx, cx) + _row_dot(ce, ce)
        out[:, 0] = np.divide(out[:, 0], energy, out=np.ones(size), where=energy > 0)
        return out

    ratios, gaps = _map_blocks(block, trials, threads).T
    dev = np.abs(ratios - 1.0)
    in_band = float(np.mean(dev <= cond.g_joint + BAND_ROUNDING))
    in_band_pair = float(np.mean(dev <= cond.g_joint_pair_scaled + BAND_ROUNDING))
    return JointRipReport(g=cond.g_joint, in_band=in_band,
                          g_pair_scaled=cond.g_joint_pair_scaled,
                          in_band_pair_scaled=in_band_pair, trials=trials,
                          max_energy_gap=float(np.max(gaps)), condition=cond)
