import math

import numpy as np
import pytest

from cohaudit import (
    DomainError,
    RatioSample,
    band_frequency,
    coherence_band_probability,
    energy_deviation_tail,
    l1_stability_feasible,
    rip_width,
    separation_condition,
    sparsity_bounds,
    spectral_deviation_tail,
    tail_check,
)


def test_threshold_floors_at_reference_spread():
    # sigma = 1/sqrt(200) rounded to 0.0707, mu as measured on a 200x400
    # gaussian draw
    b = sparsity_bounds(0.3124, 0.0707)
    assert b.worst_case_floor == 2
    assert b.heuristic_floor == 4
    assert b.bernstein_floor == 25
    assert b.operator_bernstein_floor == 3
    assert b.l1_stability_floor == 23
    assert math.isclose(b.worst_case_k, 2.1005, abs_tol=1e-3)
    assert math.isclose(b.bernstein_k, 25.5076, abs_tol=1e-3)


def test_thresholds_at_full_coherence():
    b = sparsity_bounds(1.0, 0.5)
    assert b.worst_case_k == 1.0
    assert b.worst_case_floor == 1


def test_threshold_domain():
    with pytest.raises(DomainError):
        sparsity_bounds(0.0, 0.1)
    with pytest.raises(DomainError):
        sparsity_bounds(1.5, 0.1)
    with pytest.raises(DomainError):
        sparsity_bounds(0.5, 0.0)


@pytest.mark.parametrize("mu", [0.05, 0.1, 0.3, 0.9])
def test_worst_case_decreases_in_mu(mu):
    tighter = sparsity_bounds(mu, 0.1).worst_case_k
    looser = sparsity_bounds(min(mu * 1.5, 1.0), 0.1).worst_case_k
    assert looser <= tighter


@pytest.mark.parametrize("sigma", [0.01, 0.05, 0.1, 0.3])
def test_spread_thresholds_decrease_in_sigma(sigma):
    a = sparsity_bounds(0.5, sigma)
    b = sparsity_bounds(0.5, min(sigma * 2, 1.0))
    assert b.heuristic_k <= a.heuristic_k
    assert b.bernstein_k <= a.bernstein_k
    assert b.operator_bernstein_k <= a.operator_bernstein_k
    assert b.l1_stability_k <= a.l1_stability_k


@pytest.mark.parametrize("n", [25, 100, 400, 2500])
def test_closed_forms_at_root_n_spread(n):
    sigma = 1.0 / math.sqrt(n)
    b = sparsity_bounds(0.5, sigma)
    assert b.bernstein_floor == math.floor(0.5 * (1 + n / 4))
    assert b.l1_stability_floor == math.floor(1 + n / 9)
    assert b.operator_bernstein_floor == math.floor(math.sqrt(n) / 4)


def test_heuristic_below_bernstein_for_small_sigma():
    for sigma in (0.01, 0.05, 0.1, 0.2, 0.4):
        b = sparsity_bounds(0.5, sigma)
        if sigma <= 0.5:
            assert b.heuristic_k <= b.bernstein_k


def test_band_probability_reference_point():
    # k chosen so that (k-1) = 1/(2 sigma): exponent is exactly -2
    p = coherence_band_probability(6, 0.1)
    assert abs(p - (1.0 - math.exp(-2.0))) <= 1e-12
    assert abs(p - 0.8646647167633873) <= 1e-9


def test_band_probability_limits():
    assert coherence_band_probability(1, 0.2) == 1.0
    assert coherence_band_probability(2, 0.01) > 0.999
    assert abs(coherence_band_probability(2, 1.0) - (1 - math.exp(-0.5))) <= 1e-12
    with pytest.raises(DomainError):
        coherence_band_probability(0, 0.1)
    with pytest.raises(DomainError):
        coherence_band_probability(5, 0.0)


def test_band_probability_decreases_in_k():
    probs = [coherence_band_probability(k, 0.1) for k in range(2, 30)]
    assert all(b <= a for a, b in zip(probs, probs[1:]))


def test_energy_tail_reference_point():
    # t = 2 sigma sqrt(k-1): exponent is exactly -2
    sigma, k = 0.1, 5
    t = 2.0 * sigma * math.sqrt(k - 1)
    assert abs(energy_deviation_tail(t, k, sigma) - 2.0 * math.exp(-2.0)) <= 1e-12


def test_energy_tail_clamped_and_monotone():
    assert energy_deviation_tail(1e-9, 5, 0.1) == 1.0
    ts = np.linspace(0.05, 2.0, 40)
    vals = [energy_deviation_tail(t, 5, 0.1) for t in ts]
    assert all(b <= a for a, b in zip(vals, vals[1:]))
    assert all(0.0 <= v <= 1.0 for v in vals)


def test_energy_tail_domain():
    with pytest.raises(DomainError):
        energy_deviation_tail(0.0, 5, 0.1)
    with pytest.raises(DomainError):
        energy_deviation_tail(0.1, 1, 0.1)


def test_spectral_tail_reference_point():
    # t = 2 sigma sqrt(k(k-1)): exponent is exactly -2
    sigma, k = 0.1, 3
    t = 2.0 * sigma * math.sqrt(k * (k - 1))
    expected = 0.5 * k * (k - 1) * math.exp(-2.0)
    assert abs(spectral_deviation_tail(t, k, sigma) - expected) <= 1e-12


def test_spectral_tail_pair_count_prefactor():
    # at equal exponents the bound scales with the number of pairs
    sigma = 0.05
    t2 = 2.0 * sigma * math.sqrt(2.0 * 2 * 1)
    t5 = 2.0 * sigma * math.sqrt(2.0 * 5 * 4)
    b2 = spectral_deviation_tail(t2, 2, sigma)
    b5 = spectral_deviation_tail(t5, 5, sigma)
    assert abs(b5 / b2 - 10.0) <= 1e-9


def test_spectral_tail_monotone_in_t():
    ts = np.linspace(0.1, 3.0, 30)
    vals = [spectral_deviation_tail(t, 5, 0.1) for t in ts]
    assert all(b <= a for a, b in zip(vals, vals[1:]))


def test_rip_width_values():
    assert abs(rip_width(10, 0.0707, "energy") - 0.42420) <= 1e-4
    assert rip_width(1, 0.3, "energy") == 0.0
    assert rip_width(1, 0.3, "spectral") == 0.0
    w = rip_width(7, 0.1, "spectral")
    assert abs(w - 2.0 * 0.1 * math.sqrt(42.0)) <= 1e-12


@pytest.mark.parametrize("k", [2, 5, 20])
def test_rip_width_spectral_dominates_energy(k):
    e = rip_width(k, 0.08, "energy")
    s = rip_width(k, 0.08, "spectral")
    assert s >= e


def test_rip_width_domain():
    with pytest.raises(DomainError):
        rip_width(0, 0.1)
    with pytest.raises(ValueError):
        rip_width(3, 0.1, "banana")


def test_l1_feasibility_near_threshold():
    # the coarse threshold floor is 23 but the exact inequality flips at 22
    assert l1_stability_feasible(22, 0.0707)
    assert not l1_stability_feasible(23, 0.0707)
    assert l1_stability_feasible(1, 0.5)


def test_separation_condition_reference():
    cond = separation_condition(0.0707, 0.0707, 0.0707, 4, 4)
    assert abs(cond.g_x - 0.2449) <= 1e-3
    assert abs(cond.g_joint - 0.3156) <= 1e-3
    assert abs(cond.margin - 0.4844) <= 1e-3
    assert cond.ok


def test_separation_condition_trivial_cases():
    cond = separation_condition(0.0, 0.0, 0.0, 3, 3)
    assert cond.margin == 1.0 and cond.ok
    cond = separation_condition(0.1, 0.1, 0.05, 1, 1)
    assert abs(cond.margin - (1.0 - 0.05 * (1.0 + math.sqrt(2.0)))) <= 1e-12


def test_separation_condition_pair_scaled_is_stricter():
    cond = separation_condition(0.02, 0.03, 0.05, 4, 6)
    assert cond.g_joint_pair_scaled >= cond.g_joint
    assert cond.margin_pair_scaled <= cond.margin


def test_separation_condition_fails_when_crowded():
    cond = separation_condition(0.0, 0.0, 0.09, 4, 128)
    assert cond.margin < 0.0
    assert not cond.ok


def test_separation_condition_domain():
    with pytest.raises(DomainError):
        separation_condition(-0.1, 0.1, 0.1, 2, 2)
    with pytest.raises(DomainError):
        separation_condition(0.1, 0.1, 0.1, 0, 2)


NAN_SAMPLE = RatioSample(values=np.ones(4), trials=4)


@pytest.mark.parametrize("fn, args", [
    (energy_deviation_tail, (math.nan, 4, 0.1)),
    (energy_deviation_tail, (0.5, math.nan, 0.1)),
    (energy_deviation_tail, (0.5, 4, math.nan)),
    (spectral_deviation_tail, (1.0, 4, math.nan)),
    (coherence_band_probability, (4, math.nan)),
    (coherence_band_probability, (math.nan, 0.1)),
    (rip_width, (4, math.nan)),
    (rip_width, (math.nan, 0.1)),
    (l1_stability_feasible, (4, math.nan)),
    (l1_stability_feasible, (math.nan, 0.1)),
    (separation_condition, (math.nan, 0.1, 0.1, 2, 2)),
    (separation_condition, (0.1, 0.1, math.nan, 2, 2)),
    (separation_condition, (0.1, 0.1, 0.1, 2, math.nan)),
    (tail_check, (NAN_SAMPLE, [math.nan], lambda t: 0.5)),
    (band_frequency, (NAN_SAMPLE, math.nan)),
], ids=lambda v: getattr(v, "__name__", None))
def test_nan_fails_every_domain_check(fn, args):
    # a check written as `x < 0` lets NaN through to a NaN, 0.0 or 1.0 result
    with pytest.raises(DomainError, match="nan"):
        fn(*args)


@pytest.mark.parametrize("fn, args, message", [
    (energy_deviation_tail, (0.5, 4, 0.0), "sigma must be positive, got 0.0"),
    (rip_width, (3, -0.1), "sigma must be >= 0, got -0.1"),
    (l1_stability_feasible, (0, 0.1), "k must be >= 1, got 0"),
    (l1_stability_feasible, (3, -0.1), "sigma must be >= 0, got -0.1"),
])
def test_domain_messages(fn, args, message):
    with pytest.raises(DomainError) as err:
        fn(*args)
    assert str(err.value) == message
