"""Release acceptance checklist.

One test per numbered criterion; each enforces its stated tolerance and
runtime budget and prints a single PASS line with the measured values
(visible under ``pytest -s`` and in failure reports).
"""

import json
import time

import numpy as np

from cohaudit import (
    EnsembleSpec,
    band_frequency,
    coherence_band_probability,
    coherence_sample,
    energy_deviation_tail,
    energy_identity_gap,
    generate,
    l1_stability_feasible,
    phase_curve,
    profile,
    rip_width,
    sample_ratios,
    sample_spectral,
    separation_feasibility,
    separation_trial,
    sparsity_bounds,
    spectral_deviation_tail,
    spikes_fourier_pair,
    tail_check,
)
from cohaudit._streams import stream
from cohaudit.cli import main


def reference_matrix():
    return generate(EnsembleSpec("gaussian", 200, 400, 42))


def test_criterion_01_gaussian_audit_statistics():
    t0 = time.time()
    mus, sigmas = [], []
    for seed in range(20):
        prof = profile(coherence_sample(
            generate(EnsembleSpec("gaussian", 200, 400, seed))))
        mus.append(prof.mutual_coherence)
        sigmas.append(prof.std)
    elapsed = time.time() - t0
    assert all(0.28 <= mu <= 0.37 for mu in mus)
    assert all(0.064 <= s <= 0.078 for s in sigmas)
    assert elapsed < 5.0
    print("criterion 1 PASS: mu_hat mean %.4f in [0.28,0.37], sigma_hat mean "
          "%.5f in [0.064,0.078], %.2fs" %
          (np.mean(mus), np.mean(sigmas), elapsed))


def test_criterion_02_sparsity_floors():
    rep = sparsity_bounds(0.3124, 0.0707)
    assert rep.worst_case_floor == 2
    assert rep.heuristic_floor == 4
    assert rep.bernstein_floor == 25
    assert rep.operator_bernstein_floor == 3
    assert rep.l1_stability_floor == 23
    print("criterion 2 PASS: floors worst=2 heuristic=4 bernstein=25 "
          "operator=3 l1=23 at mu=0.3124 sigma=0.0707")


def test_criterion_03_band_probability_anchor():
    target = 1.0 - np.exp(-2.0)
    for sigma in (0.1, 0.0707, 0.05):
        k = 1.0 + 1.0 / (2.0 * sigma)
        assert abs(coherence_band_probability(k, sigma) - target) <= 1e-6
    assert abs(coherence_band_probability(6, 0.1) - 0.8646647167633873) <= 1e-9
    print("criterion 3 PASS: band probability at k=1+1/(2 sigma) equals "
          "1-exp(-2)=%.10f within 1e-6" % target)


def test_criterion_04_statistical_band_frequency():
    t0 = time.time()
    m = reference_matrix()
    sigma = profile(coherence_sample(m)).std
    g = rip_width(10, sigma, "energy")
    ratios = sample_ratios(m, 10, 10_000, 42, threads=4)
    freq = band_frequency(ratios, g)
    elapsed = time.time() - t0
    assert freq >= 0.85
    assert elapsed < 30.0
    print("criterion 4 PASS: band frequency %.4f >= 0.85 at g=%.4f, "
          "10^4 trials, %.1fs" % (freq, g, elapsed))


def test_criterion_05_tail_domination():
    t0 = time.time()
    m = reference_matrix()
    sigma = profile(coherence_sample(m)).std
    k = 5
    ratios = sample_ratios(m, k, 2000, 42, threads=4)
    g_energy = rip_width(k, sigma, "energy")
    ratio_points = tail_check(
        ratios, [0.5 * g_energy, g_energy, 2.0 * g_energy],
        lambda t: energy_deviation_tail(t, k, sigma))
    spectral = sample_spectral(m, k, 2000, 42, threads=4)
    g_spectral = rip_width(k, sigma, "spectral")
    spectral_points = tail_check(
        spectral, [0.5 * g_spectral, g_spectral, 2.0 * g_spectral],
        lambda t: spectral_deviation_tail(t, k, sigma))
    elapsed = time.time() - t0
    assert all(p.ok for p in ratio_points + spectral_points)
    assert elapsed < 60.0
    print("criterion 5 PASS: 6/6 tail points dominated "
          "(max ratio exceedance %.4g, max spectral exceedance %.4g), %.1fs" %
          (max(p.empirical for p in ratio_points),
           max(p.empirical for p in spectral_points), elapsed))


def test_criterion_06_energy_identity():
    rng = stream(0, "acceptance-energy")
    worst = 0.0
    for trial in range(100):
        m = generate(EnsembleSpec("gaussian", 20, 40, 1000 + trial))
        support = np.sort(rng.choice(40, size=5, replace=False))
        coeffs = rng.standard_normal(5)
        worst = max(worst, energy_identity_gap(m, support, coeffs))
    assert worst <= 1e-10
    print("criterion 6 PASS: max energy decomposition gap %.3g <= 1e-10 "
          "over 100 instances" % worst)


def test_criterion_07_phase_transition_vs_worst_case():
    t0 = time.time()
    m = generate(EnsembleSpec("gaussian", 100, 500, 7))
    prof = profile(coherence_sample(m))
    floors = sparsity_bounds(prof.mutual_coherence, prof.std)
    k_list = [2, 6, 10, 14, 18, 25]
    points = phase_curve(m, k_list, "omp", 200, 0.0, 7, threads=4)
    rates = [p.rate for p in points]
    at_10 = rates[k_list.index(10)]
    assert at_10 >= 0.90
    for prev, nxt in zip(points, points[1:]):
        assert nxt.rate <= prev.ci_high
    assert floors.worst_case_floor <= 2
    elapsed = time.time() - t0
    assert elapsed < 180.0
    print("criterion 7 PASS: omp rate at k=10 is %.3f >= 0.90, curve "
          "nonincreasing within Wilson bands, worst-case floor %d <= 2, %.1fs"
          % (at_10, floors.worst_case_floor, elapsed))


def test_criterion_08_separation_accuracy_and_margin():
    t0 = time.time()
    spikes, waves = spikes_fourier_pair(128)
    condition = separation_feasibility(spikes, waves, 4, 4)
    assert condition.margin > 0.0
    assert condition.ok
    x_errs, e_errs = [], []
    for i in range(50):
        trial = separation_trial(spikes, waves, 4, 4, seed=3000 + i)
        x_errs.append(trial.x_rel_error)
        e_errs.append(trial.e_rel_error)
    elapsed = time.time() - t0
    assert np.mean(x_errs) <= 1e-3
    assert np.mean(e_errs) <= 1e-3
    assert elapsed < 120.0
    print("criterion 8 PASS: mean rel errors %.2e / %.2e <= 1e-3, "
          "margin %.4f > 0, %.1fs" %
          (np.mean(x_errs), np.mean(e_errs), condition.margin, elapsed))


def test_criterion_09_cli_byte_determinism(tmp_path):
    outs = []
    for tag, threads in (("a", "1"), ("b", "4"), ("c", "4")):
        out = tmp_path / f"verify_{tag}.json"
        code = main(["verify", "--ensemble", "gaussian", "--rows", "100",
                     "--cols", "200", "--seed", "11", "--k", "6",
                     "--trials", "500", "--threads", threads,
                     "--out", str(out)])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]

    phase = []
    for tag in ("a", "b"):
        out = tmp_path / f"phase_{tag}.json"
        code = main(["phase", "--ensemble", "gaussian", "--rows", "50",
                     "--cols", "100", "--seed", "5", "--k-list", "2,4",
                     "--solver", "omp", "--trials", "40", "--out", str(out)])
        assert code == 0
        phase.append(out.read_bytes())
    assert phase[0] == phase[1]
    print("criterion 9 PASS: verify and phase reports byte-identical across "
          "reruns and thread counts")


def test_criterion_10_feasibility_substitutes(tmp_path):
    assert l1_stability_feasible(22, 0.0707)
    assert not l1_stability_feasible(23, 0.0707)

    out = tmp_path / "sep.json"
    code = main(["separate", "--preset", "spikes-fourier", "--n", "64",
                 "--nx", "2", "--ne", "2", "--trials", "2", "--out", str(out)])
    assert code == 0
    condition = json.loads(out.read_text())["condition"]
    for key in ("g_x", "g_e", "g_joint", "margin", "ok",
                "g_joint_pair_scaled", "margin_pair_scaled"):
        assert key in condition

    audit = tmp_path / "audit.json"
    code = main(["audit", "--ensemble", "gaussian", "--rows", "200",
                 "--cols", "400", "--seed", "42", "--out", str(audit)])
    assert code == 0
    thresholds = json.loads(audit.read_text())["thresholds"]
    assert thresholds["l1_stability_floor"] >= 1
    print("criterion 10 PASS: l1 stability feasibility flips between k=22 "
          "and k=23 at sigma=0.0707; separation margin and stability floor "
          "reported in CLI output")
