"""Closed-form sparsity thresholds and tail bounds from coherence statistics.

Two regimes are kept deliberately separate and never merged: worst-case
thresholds driven by the mutual coherence mu, and average-case
thresholds driven by the coherence spread sigma.  The average-case tail
bounds all come from Bernstein-type concentration, either scalar (sums
of coherence terms) or operator (deviation of a Gram submatrix from the
identity).
"""

import math
from dataclasses import dataclass

from .errors import DomainError


@dataclass(frozen=True)
class BoundReport:
    """Sparsity thresholds implied by (mu, sigma) with their integer floors."""

    mu: float
    sigma: float
    worst_case_k: float
    heuristic_k: float
    bernstein_k: float
    operator_bernstein_k: float
    l1_stability_k: float
    worst_case_floor: int
    heuristic_floor: int
    bernstein_floor: int
    operator_bernstein_floor: int
    l1_stability_floor: int


@dataclass(frozen=True)
class SeparationCondition:
    """Feasibility margin for two-dictionary separation at given sparsities."""

    g_x: float
    g_e: float
    g_joint: float
    margin: float
    ok: bool
    g_joint_pair_scaled: float
    margin_pair_scaled: float


def _check_unit_interval(name, value):
    if not 0.0 < value <= 1.0:
        raise DomainError(f"{name} must be in (0, 1], got {value}")


def _floor(value):
    # Absorb float rounding at integer knife edges (e.g. an exact 13.0
    # evaluated as 12.999999999999998) before flooring.
    return math.floor(value + abs(value) * 1e-12)


# Each domain check is written so that NaN fails it.
def _check_tail_domain(t, k, sigma):
    if not t > 0.0:
        raise DomainError(f"t must be positive, got {t}")
    if not k >= 2:
        raise DomainError(f"k must be >= 2, got {k}")
    if not sigma > 0.0:
        raise DomainError(f"sigma must be positive, got {sigma}")


def _check_band_domain(k, sigma):
    if not k >= 1:
        raise DomainError(f"k must be >= 1, got {k}")
    if not sigma >= 0.0:
        raise DomainError(f"sigma must be >= 0, got {sigma}")


def sparsity_bounds(mu, sigma):
    """All five sparsity thresholds for a dictionary with the given stats.

    worst_case_k   = (1 + 1/mu) / 2          deterministic, every support
    heuristic_k    = (1 + 1/(2 sigma)) / 2   mu replaced by 2 sigma
    bernstein_k    = (1 + 1/(4 sigma^2)) / 2 scalar concentration route
    operator_bernstein_k = 1/(4 sigma)       Gram spectral deviation route
    l1_stability_k = 1 + 1/(9 sigma^2)       noise-stable l1 recovery
    """
    _check_unit_interval("mu", mu)
    _check_unit_interval("sigma", sigma)
    worst = 0.5 * (1.0 + 1.0 / mu)
    heuristic = 0.5 * (1.0 + 1.0 / (2.0 * sigma))
    bernstein = 0.5 * (1.0 + 1.0 / (4.0 * sigma * sigma))
    operator = 1.0 / (4.0 * sigma)
    l1 = 1.0 + 1.0 / (9.0 * sigma * sigma)
    return BoundReport(
        mu=float(mu), sigma=float(sigma),
        worst_case_k=worst, heuristic_k=heuristic, bernstein_k=bernstein,
        operator_bernstein_k=operator, l1_stability_k=l1,
        worst_case_floor=_floor(worst),
        heuristic_floor=_floor(heuristic),
        bernstein_floor=_floor(bernstein),
        operator_bernstein_floor=_floor(operator),
        l1_stability_floor=_floor(l1),
    )


def coherence_band_probability(k, sigma):
    """Lower bound on the chance that mu_r (k-1) stays below 1.

    With coherence terms of spread sigma, a Gaussian tail gives
    1 - exp(-1 / (2 (k-1)^2 sigma^2)).  For k = 1 the event is certain
    and 1.0 is returned by convention.
    """
    if not sigma > 0.0:
        raise DomainError(f"sigma must be positive, got {sigma}")
    if not k >= 1:
        raise DomainError(f"k must be >= 1, got {k}")
    if k == 1:
        return 1.0
    p = 1.0 - math.exp(-1.0 / (2.0 * (k - 1) ** 2 * sigma * sigma))
    return min(1.0, max(0.0, p))


def energy_deviation_tail(t, k, sigma):
    """Upper bound on Pr(| ||Dx||^2 - 1 | > t) for a fixed k-sparse unit x.

    Scalar Bernstein bound 2 exp(-t^2 / (2 sigma^2 (k-1))), clamped to
    [0, 1].  It is for ||x|| = 1: verify's energy ratios ||Dx||^2 / ||x||^2
    are already normalised by ||x||^2.
    """
    _check_tail_domain(t, k, sigma)
    expo = -t * t / (2.0 * sigma * sigma * (k - 1))
    return min(1.0, 2.0 * math.exp(expo))


def spectral_deviation_tail(t, k, sigma):
    """Upper bound on Pr(||D_S^T D_S - I|| > t) over random supports of size k.

    Operator Bernstein bound (k(k-1)/2) exp(-t^2 / (2 k (k-1) sigma^2)),
    clamped to [0, 1].
    """
    _check_tail_domain(t, k, sigma)
    expo = -t * t / (2.0 * k * (k - 1) * sigma * sigma)
    return min(1.0, 0.5 * k * (k - 1) * math.exp(expo))


def rip_width(k, sigma, variant="energy"):
    """Band half-width g such that restricted energies lie in 1 +- g w.h.p.

    variant 'energy' uses g = 2 sigma sqrt(k-1) (per-vector energy
    ratios); variant 'spectral' uses g = 2 sigma sqrt(k(k-1)) (Gram
    operator deviation).  k = 1 gives a zero-width band.
    """
    _check_band_domain(k, sigma)
    if variant == "energy":
        return 2.0 * sigma * math.sqrt(k - 1)
    if variant == "spectral":
        return 2.0 * sigma * math.sqrt(k * (k - 1))
    raise ValueError(f"unknown rip_width variant {variant!r}")


def l1_stability_feasible(k, sigma):
    """Exact feasibility test 1 - 2 sigma sqrt(k-1) - sigma sqrt(k) >= 0.

    This is the inequality whose coarse solution gives l1_stability_k;
    evaluating it directly is sharper near the threshold.
    """
    _check_band_domain(k, sigma)
    return 1.0 - 2.0 * sigma * math.sqrt(k - 1) - sigma * math.sqrt(k) >= 0.0


def separation_condition(sigma_left, sigma_right, sigma_cross, n_x, n_e):
    """Feasibility of separating n_x atoms of one dictionary from n_e of another.

    Within-block bands are g_x = 2 sigma_left sqrt(n_x - 1) and
    g_e = 2 sigma_right sqrt(n_e - 1).  The joint band adds the cross
    spread: g_joint = max(g_x, g_e) + sigma_cross, and the margin is
    1 - g_joint - sigma_cross sqrt(n_x + n_e); separation is declared
    feasible when the margin is positive.  A conservative variant scales
    the cross term by sqrt(n_x n_e) (every cross pair at full strength)
    and is reported alongside.
    """
    for name, val in (("sigma_left", sigma_left), ("sigma_right", sigma_right),
                      ("sigma_cross", sigma_cross)):
        if not val >= 0.0:
            raise DomainError(f"{name} must be >= 0, got {val}")
    if not (n_x >= 1 and n_e >= 1):
        raise DomainError(f"sparsities must be >= 1, got n_x={n_x}, n_e={n_e}")
    g_x = 2.0 * sigma_left * math.sqrt(n_x - 1)
    g_e = 2.0 * sigma_right * math.sqrt(n_e - 1)
    base = max(g_x, g_e)
    w = n_x + n_e
    g_joint = base + sigma_cross
    margin = 1.0 - g_joint - sigma_cross * math.sqrt(w)
    g_pair = base + sigma_cross * math.sqrt(n_x * n_e)
    margin_pair = 1.0 - g_pair - sigma_cross * math.sqrt(w)
    return SeparationCondition(
        g_x=g_x, g_e=g_e, g_joint=g_joint, margin=margin, ok=margin > 0.0,
        g_joint_pair_scaled=g_pair, margin_pair_scaled=margin_pair,
    )
