"""Command line interface.

Subcommands: audit (coherence profile and sparsity thresholds), verify
(empirical band and tail checks), phase (solver success curves), and
separate (two-dictionary separation experiments).  Reports are canonical
JSON: same command and seed give byte-identical output at any thread
count.

Exit codes: 0 success, 1 data or math error, 2 usage error, 3 a
verification check failed.
"""

import argparse
import math
import sys
from dataclasses import asdict
from pathlib import Path

from .bounds import energy_deviation_tail, rip_width, sparsity_bounds, \
    spectral_deviation_tail
from .coherence import HIST_BIN_CAP, coherence_sample, normality_check, profile
from .ensembles import ENSEMBLES, EnsembleSpec, generate, load_matrix, \
    normalize_columns
from .errors import InsufficientDataError
from .ripcheck import band_frequency, sample_ratios, sample_spectral, tail_check
from .separation import separation_feasibility, separation_trials, spikes_fourier_pair
from .solvers import SOLVERS, _check_nonnegative, phase_curve
from .util import canonical_json, write_csv

EXIT_OK = 0
EXIT_DATA = 1
EXIT_VERIFY = 3


def _add_source_args(sub):
    source = sub.add_mutually_exclusive_group(required=True)
    source.add_argument("--matrix", help="path to a matrix file (csv or binary)")
    source.add_argument("--ensemble", choices=ENSEMBLES, help="generate instead of load")
    sub.add_argument("--rows", type=_int_in(1), help="rows for --ensemble")
    sub.add_argument("--cols", type=_int_in(1), help="cols for --ensemble")


def _int(text):
    """int(text), or an ArgumentTypeError that argparse prints after the flag."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None


def _int_in(low, high=math.inf):
    """argparse type for an integer from low to high."""
    def parse(text):
        value = _int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        if value > high:
            raise argparse.ArgumentTypeError(f"must be <= {high}, got {value}")
        return value
    return parse


def _seed(text):
    """argparse type for --seed: an integer in [0, 2^64), the keyed streams' domain."""
    value = _int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"seed must be in [0, 2^64), got {value}")
    return value


def _add_common_args(sub):
    sub.add_argument("--seed", type=_seed, default=0, help="base seed (default 0)")
    sub.add_argument("--out", help="write the JSON report here instead of stdout")


def _resolve_matrix(args, parser):
    """Load or generate the matrix named by the source flags, normalized."""
    if args.matrix:
        for flag in ("--rows", "--cols"):
            if getattr(args, flag[2:]) is not None:
                parser.error(f"argument {flag}: not allowed with argument --matrix")
        matrix = normalize_columns(load_matrix(args.matrix))
        source = {"kind": "file", "path": args.matrix,
                  "rows": matrix.rows, "cols": matrix.cols}
        return matrix, source
    if args.rows is None or args.cols is None:
        parser.error("--ensemble needs --rows and --cols")
    try:
        spec = EnsembleSpec(args.ensemble, args.rows, args.cols, args.seed)
    except ValueError as exc:
        parser.error(str(exc))
    return generate(spec), {"kind": "ensemble", **asdict(spec)}


def _thresholds(prof):
    """Thresholds at (mutual_coherence, std) of a profile or moment pass; None if either is 0."""
    mu = min(prof.mutual_coherence, 1.0)
    if mu > 0.0 and prof.std > 0.0:
        return asdict(sparsity_bounds(mu, prof.std))
    return None


def run_audit(args, parser):
    matrix, source = _resolve_matrix(args, parser)
    sample = coherence_sample(matrix)
    prof = profile(sample, bins=args.bins)
    try:
        normality = asdict(normality_check(sample))
    except InsufficientDataError:
        normality = None
    thresholds = _thresholds(prof)
    report = {
        "command": "audit",
        "source": source,
        "profile": asdict(prof),
        "normality": normality,
        "thresholds": thresholds,
    }
    if args.hist_csv:
        write_csv(args.hist_csv, "bin_lower,bin_upper,count", "%.12g,%.12g,%d",
                  prof.histogram)
    lines = [f"pairs={prof.sample_count} mu={prof.mutual_coherence:.6g} "
             f"sigma={prof.std:.6g}"]
    if thresholds:
        lines.append("sparsity floors: worst=%d heuristic=%d bernstein=%d "
                     "operator=%d l1=%d"
                     % (thresholds["worst_case_floor"], thresholds["heuristic_floor"],
                        thresholds["bernstein_floor"],
                        thresholds["operator_bernstein_floor"],
                        thresholds["l1_stability_floor"]))
    else:
        lines.append("thresholds degenerate (mu or sigma is zero)")
    return report, EXIT_OK, lines


def _parse_grid(text, parser):
    try:
        grid = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        parser.error(f"bad grid {text!r}, expected comma-separated numbers")
    if not grid or not all(0 < g < math.inf for g in grid):
        parser.error("grid multipliers must be positive and finite")
    return grid


def run_verify(args, parser):
    multipliers = _parse_grid(args.t_grid, parser)
    matrix, source = _resolve_matrix(args, parser)
    k = args.k
    sigma = coherence_sample(matrix)._two_pass().std  # no histogram
    ratios = sample_ratios(matrix, k, args.trials, args.seed,
                           coeff_model=args.coeff_model, threads=args.threads)
    g_energy = rip_width(k, sigma, "energy")
    band = band_frequency(ratios, g_energy)
    spectral_trials = args.trials if args.spectral_trials is None else args.spectral_trials
    spectral = sample_spectral(matrix, k, spectral_trials, args.seed,
                               threads=args.threads)
    g_spectral = rip_width(k, sigma, "spectral")
    ratio_points = []
    spectral_points = []
    if sigma > 0.0 and k >= 2:
        ratio_points = tail_check(
            ratios, [m * g_energy for m in multipliers],
            lambda t: energy_deviation_tail(t, k, sigma))
        spectral_points = tail_check(
            spectral, [m * g_spectral for m in multipliers],
            lambda t: spectral_deviation_tail(t, k, sigma))
    failed = sum(1 for p in ratio_points + spectral_points if not p.ok)
    report = {
        "command": "verify",
        "source": source,
        "k": k,
        "trials": args.trials,
        "spectral_trials": spectral_trials,
        "coeff_model": args.coeff_model,
        "sigma": sigma,
        "g_energy": g_energy,
        "g_spectral": g_spectral,
        "band_frequency": band,
        "ratio_mean": float(ratios.values.mean()),
        "spectral_max": float(spectral.values.max()),
        "ratio_tail": [asdict(p) for p in ratio_points],
        "spectral_tail": [asdict(p) for p in spectral_points],
        "ok": failed == 0,
    }
    if args.ratios_csv:
        write_csv(args.ratios_csv, "value", "%.12g", ratios.values)
    if args.spectral_csv:
        write_csv(args.spectral_csv, "value", "%.12g", spectral.values)
    lines = [f"band frequency at g={g_energy:.6g}: {band:.4f}",
             f"tail checks: {len(ratio_points) + len(spectral_points) - failed} ok, "
             f"{failed} failed"]
    return report, EXIT_VERIFY if failed else EXIT_OK, lines


def run_phase(args, parser):
    try:
        k_list = [int(tok) for tok in args.k_list.split(",") if tok.strip()]
    except ValueError:
        parser.error(f"bad --k-list {args.k_list!r}, expected comma-separated ints")
    if not k_list or k_list[0] < 0 or any(b <= a for a, b in zip(k_list, k_list[1:])):
        parser.error(f"--k-list must be nonempty, >= 0 and strictly ascending: {args.k_list!r}")
    _check_nonnegative("noise_sigma", args.noise)
    matrix, source = _resolve_matrix(args, parser)
    # a matrix without a coherence profile fails here, before any trial
    thresholds = _thresholds(coherence_sample(matrix)._two_pass())  # no histogram
    points = phase_curve(matrix, k_list, args.solver, args.trials, args.noise,
                         args.seed, threads=args.threads)
    report = {
        "command": "phase",
        "source": source,
        "solver": args.solver,
        "noise_sigma": args.noise,
        "trials": args.trials,
        "points": [asdict(p) for p in points],
        "thresholds": thresholds,
    }
    if args.csv:
        write_csv(args.csv, "k,trials,successes,rate,ci_low,ci_high",
                  "%d,%d,%d,%.12g,%.12g,%.12g",
                  ((p.k, p.trials, p.successes, p.rate, p.ci_low, p.ci_high)
                   for p in points))
    lines = ["k=%d rate=%.3f ci=[%.3f, %.3f]" % (p.k, p.rate, p.ci_low, p.ci_high)
             for p in points]
    return report, EXIT_OK, lines


def run_separate(args, parser):
    if args.preset and (args.matrix_d or args.matrix_b):
        parser.error("give either --preset or --matrix-d and --matrix-b, not both")
    if args.n is not None and not args.preset:
        parser.error("--n needs --preset")
    _check_nonnegative("noise_sigma", args.noise)
    if args.preset:
        if args.n is None:
            parser.error("--preset needs --n")
        left, right = spikes_fourier_pair(args.n)
        source = {"kind": "preset", "preset": args.preset, "n": args.n}
    else:
        if not (args.matrix_d and args.matrix_b):
            parser.error("need --preset or both --matrix-d and --matrix-b")
        left = normalize_columns(load_matrix(args.matrix_d))
        right = normalize_columns(load_matrix(args.matrix_b))
        source = {"kind": "files", "matrix_d": args.matrix_d,
                  "matrix_b": args.matrix_b}
    condition = separation_feasibility(left, right, args.nx, args.ne)
    trials = separation_trials(left, right, args.nx, args.ne, args.trials, args.seed,
                               args.noise, threads=args.threads)
    x_errs = [t.x_rel_error for t in trials]
    e_errs = [t.e_rel_error for t in trials]
    report = {
        "command": "separate",
        "source": source,
        "n_x": args.nx,
        "n_e": args.ne,
        "trials": args.trials,
        "noise_sigma": args.noise,
        "condition": asdict(condition),
        "x_rel_error_mean": sum(x_errs) / len(x_errs),
        "x_rel_error_max": max(x_errs),
        "e_rel_error_mean": sum(e_errs) / len(e_errs),
        "e_rel_error_max": max(e_errs),
        "x_support_rate": sum(t.x_support_ok for t in trials) / len(trials),
        "e_support_rate": sum(t.e_support_ok for t in trials) / len(trials),
        "converged_rate": sum(t.converged for t in trials) / len(trials),
    }
    if args.csv:
        write_csv(args.csv,
                  "trial,x_rel_error,e_rel_error,x_support_ok,e_support_ok,converged",
                  "%d,%.12g,%.12g,%d,%d,%d",
                  ((i, t.x_rel_error, t.e_rel_error, t.x_support_ok, t.e_support_ok,
                    t.converged) for i, t in enumerate(trials)))
    summary = [
        "margin=%.6g (%s)" % (condition.margin,
                              "feasible" if condition.ok else "not feasible"),
        "mean rel error: x=%.3g e=%.3g" % (report["x_rel_error_mean"],
                                           report["e_rel_error_mean"]),
    ]
    return report, EXIT_OK, summary


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cohaudit",
        description="Coherence auditing and recovery verification for "
                    "compressed sensing matrices.")
    subs = parser.add_subparsers(dest="subcommand", required=True)
    count = _int_in(1)

    p_audit = subs.add_parser("audit", help="coherence profile and sparsity thresholds")
    _add_source_args(p_audit)
    _add_common_args(p_audit)
    p_audit.add_argument("--bins", type=_int_in(1, HIST_BIN_CAP), default=None,
                         help=f"histogram bins, 1 to {HIST_BIN_CAP} (default ceil(sqrt(pairs)))")
    p_audit.add_argument("--hist-csv", help="also write the histogram as CSV")
    p_audit.set_defaults(func=run_audit, parser=p_audit)

    p_verify = subs.add_parser("verify", help="empirical band and tail checks")
    _add_source_args(p_verify)
    _add_common_args(p_verify)
    p_verify.add_argument("--k", type=_int, required=True, help="support size")
    p_verify.add_argument("--trials", type=count, default=2000,
                          help="energy-ratio trials (default 2000)")
    p_verify.add_argument("--spectral-trials", type=count, default=None,
                          help="spectral trials (default: same as --trials)")
    p_verify.add_argument("--coeff-model", choices=("gaussian", "rademacher"),
                          default="gaussian")
    p_verify.add_argument("--t-grid", default="0.5,1,2",
                          help="tail grid as multiples of the band width")
    p_verify.add_argument("--ratios-csv", help="dump energy ratios as CSV")
    p_verify.add_argument("--spectral-csv", help="dump spectral deviations as CSV")
    p_verify.set_defaults(func=run_verify, parser=p_verify)

    p_phase = subs.add_parser("phase", help="solver success rate vs sparsity")
    _add_source_args(p_phase)
    _add_common_args(p_phase)
    p_phase.add_argument("--k-list", required=True,
                         help="comma-separated ascending sparsities")
    p_phase.add_argument("--solver", choices=SOLVERS, required=True)
    p_phase.add_argument("--trials", type=count, default=200,
                         help="trials per sparsity (default 200)")
    p_phase.add_argument("--noise", type=float, default=0.0,
                         help="measurement noise sigma (default 0)")
    p_phase.add_argument("--csv", help="also write the curve as CSV")
    p_phase.set_defaults(func=run_phase, parser=p_phase)

    p_sep = subs.add_parser("separate", help="two-dictionary separation experiments")
    _add_common_args(p_sep)
    p_sep.add_argument("--preset", choices=("spikes-fourier",),
                       help="built-in dictionary pair")
    p_sep.add_argument("--n", type=_int_in(2), help="dimension for --preset")
    p_sep.add_argument("--matrix-d", help="signal dictionary file")
    p_sep.add_argument("--matrix-b", help="disturbance dictionary file")
    p_sep.add_argument("--nx", type=_int_in(0), required=True, help="signal sparsity")
    p_sep.add_argument("--ne", type=_int_in(0), required=True, help="disturbance sparsity")
    p_sep.add_argument("--trials", type=count, default=50)
    p_sep.add_argument("--noise", type=float, default=0.0)
    p_sep.add_argument("--csv", help="also write per-trial errors as CSV")
    p_sep.set_defaults(func=run_separate, parser=p_sep)
    for sub in (p_verify, p_phase, p_sep):
        sub.add_argument("--threads", type=count, default=1,
                         help="worker threads for Monte Carlo trials, capped at the "
                              "core count (default 1)")
    return parser


def main(argv=None):
    # each usage error, unknown flags included, prints its own command's usage
    args, unknown = build_parser().parse_known_args(argv)
    if unknown:
        args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        report, code, summary = args.func(args, args.parser)
        text = canonical_json(report) + "\n"
        if args.out:
            Path(args.out).write_text(text)
    except (ValueError, OSError, MemoryError) as exc:
        # a bare MemoryError has no message of its own
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_DATA
    if args.out:
        for line in summary:
            print(line)
        print(f"report written to {args.out}")
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
