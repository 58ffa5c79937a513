"""Two-dictionary separation.

A signal sparse in dictionary D plus a disturbance sparse in dictionary
B, y = D x + B e + n, is recovered jointly: separate(D, B, y, epsilon)
runs one bpdn solve on [D B] and splits the estimate at D's column
count into the dense arrays x_hat and e_hat.  The feasibility condition
compares the measured coherence spreads of D, B, and their cross
products against the combined sparsity.
"""

import operator
from dataclasses import dataclass

import numpy as np

from .bounds import separation_condition
from .coherence import coherence_sample, cross_coherence
from .ensembles import MeasurementMatrix, _adopt, _normalize_in_place, real_fourier_frame
from .errors import DimensionError, DomainError
from .ripcheck import _map_blocks
from .solvers import _bpdn, _bpdn_epsilon, _observe, _plant, _score, bpdn


@dataclass(frozen=True)
class SeparationTrial:
    x_rel_error: float
    e_rel_error: float
    x_support_ok: bool
    e_support_ok: bool
    residual_norm: float
    converged: bool


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


def separation_trials(left, right, n_x, n_e, trials, seed, noise_sigma=0.0, *, threads=1):
    """Planted separation experiments 0 to trials - 1 at seed.

    Each draws n_x atoms of left and n_e of right with Gaussian values,
    mixes, optionally adds noise, separates on [left right] at phase's
    bpdn budget, and scores both components, one block of trials at a
    time.  Trial i is a row of its block's keyed draws, and its lockstep
    solve does not depend on the trials it shares a run with, so a
    shorter run is a prefix of a longer one at any thread count.
    """
    joint = joint_dictionary(left, right)
    if not 0 <= operator.index(n_x) <= left.cols or not 0 <= operator.index(n_e) <= right.cols:
        raise DomainError(f"n_x={n_x}, n_e={n_e} do not fit {left.cols} and {right.cols} columns")
    if operator.index(trials) < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")

    def block(_, j, size):
        zs = np.vstack([_plant(seed, "separation-x", n_x, left.cols, size, j),
                        _plant(seed, "separation-e", n_e, right.cols, size, j)])
        # one product per trial, so trial i's bits do not depend on the block's width
        ys = _observe(np.column_stack([joint.data @ z for z in zs.T]), noise_sigma, seed,
                      "separation-noise", j=j)
        out = []
        for res, z in zip(_bpdn(joint.data, ys, _bpdn_epsilon(noise_sigma, left.rows)), zs.T):
            x_rel, x_est, x_true = _score(res.estimate[:left.cols], z[:left.cols], noise_sigma)
            e_rel, e_est, e_true = _score(res.estimate[left.cols:], z[left.cols:], noise_sigma)
            out.append(SeparationTrial(x_rel, e_rel, x_est == x_true, e_est == e_true,
                                       res.residual_norm, res.converged))
        return out

    return [t for run in _map_blocks(block, trials, threads)[0] for t in run]


def separation_trial(left, right, n_x, n_e, seed, noise_sigma=0.0):
    """Trial 0 of separation_trials at seed: one planted separation experiment."""
    return separation_trials(left, right, n_x, n_e, 1, seed, noise_sigma)[0]
