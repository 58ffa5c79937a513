"""Two-dictionary separation and corruption-robust recovery.

A signal sparse in dictionary D plus a disturbance sparse in dictionary
B, y = D x + B e + n, is recovered jointly: separate(D, B, y, epsilon)
runs one bpdn solve on [D B] and splits the estimate at D's column
count into the dense arrays x_hat and e_hat.  The feasibility condition
compares the measured coherence spreads of D, B, and their cross
products against the combined sparsity.
"""

from dataclasses import dataclass

import numpy as np

from .bounds import separation_condition
from .coherence import coherence_sample, cross_coherence
from .ensembles import MeasurementMatrix, _adopt, _normalize_in_place, real_fourier_frame
from .errors import DimensionError, DomainError
from .ripcheck import BAND_ROUNDING, _block_draws, _chunks, _images, _map_blocks, _row_dot
from .solvers import _bpdn_epsilon, _observe, _plant, _score, bpdn
from .util import parallel_map


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
    in_band: float
    in_band_pair_scaled: float
    trials: int
    max_energy_gap: float
    condition: object


def joint_dictionary(left, right):
    """Column-stack two dictionaries into one."""
    if left.rows != right.rows:
        raise DimensionError(f"row mismatch: {left.rows} vs {right.rows}")
    return _adopt(object.__new__(MeasurementMatrix), np.hstack([left.data, right.data]))


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


def separate(left, right, y, epsilon):
    """Recover both sparse components from one bpdn solve on [left right].

    Returns (x_hat, e_hat, result): the estimate split at left.cols into
    its left and right parts, and bpdn's SolveResult.  With an empty
    right dictionary this is exactly bpdn on the left dictionary.  The
    feasibility margin depends only on the dictionary pair and the
    sparsities: separation_feasibility.
    """
    res = bpdn(joint_dictionary(left, right), y, epsilon)
    return res.estimate[:left.cols], res.estimate[left.cols:], res


def spikes_fourier_pair(n):
    """The canonical separation pair: identity spikes and harmonic waves."""
    spikes = _adopt(object.__new__(MeasurementMatrix), np.eye(n))
    waves = _adopt(object.__new__(MeasurementMatrix), _normalize_in_place(real_fourier_frame(n)))
    return spikes, waves


def _planted_trials(left, right, n_x, n_e, trials, seed, tags, noise_sigma, *, threads=1,
                    e_scale=1.0):
    """Plant trials from the x, e and noise streams named by tags; solve all on one joint."""
    joint = joint_dictionary(left, right)
    if not 0 <= n_x <= left.cols or not 0 <= n_e <= right.cols:
        raise DomainError(f"n_x={n_x}, n_e={n_e} do not fit {left.cols} and {right.cols} columns")
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    zs = np.vstack([_plant(seed, tags[0], n_x, left.cols, trials),
                    e_scale * _plant(seed, tags[1], n_e, right.cols, trials)])
    # one product per trial, so trial i's bits do not depend on the block's width
    ys = _observe(np.column_stack([joint.data @ z for z in zs.T]), noise_sigma, seed, tags[2])

    def one(i):
        res = bpdn(joint, ys[:, i], _bpdn_epsilon(noise_sigma, left.rows))
        x_rel, x_est, x_true = _score(res.estimate[:left.cols], zs[:left.cols, i], noise_sigma)
        e_rel, e_est, e_true = _score(res.estimate[left.cols:], zs[left.cols:, i], noise_sigma)
        return SeparationTrial(x_rel, e_rel, x_est == x_true, e_est == e_true,
                               res.residual_norm, res.converged)

    return parallel_map(one, range(trials), threads)


def separation_trials(left, right, n_x, n_e, trials, seed, noise_sigma=0.0, *, threads=1):
    """Planted separation experiments 0 to trials - 1 at seed.

    Each draws n_x atoms of left and n_e of right with Gaussian values,
    mixes, optionally adds noise, separates on [left right] at phase's
    bpdn budget, and scores both components.  Trial i is row i of one
    block of keyed draws, so a shorter run is a prefix of a longer one at
    any thread count.
    """
    return _planted_trials(left, right, n_x, n_e, trials, seed,
                           ("separation-x", "separation-e", "separation-noise"),
                           noise_sigma, threads=threads)


def separation_trial(left, right, n_x, n_e, seed, noise_sigma=0.0):
    """Trial 0 of separation_trials at seed: one planted separation experiment."""
    return separation_trials(left, right, n_x, n_e, 1, seed, noise_sigma)[0]


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
    return _planted_trials(matrix, MeasurementMatrix(np.eye(n)), k, n_corruptions, 1, seed,
                           ("robust-signal", "robust-corruption", "robust-noise"),
                           noise_sigma, e_scale=10.0)[0]


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
    return JointRipReport(in_band=in_band, in_band_pair_scaled=in_band_pair, trials=trials,
                          max_energy_gap=float(np.max(gaps)), condition=cond)
