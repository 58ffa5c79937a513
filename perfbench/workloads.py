"""The benchmark's workloads and the correctness gate for their reports.

A workload is a fixed list of `cohaudit` CLI commands, run one after
the other.  The workload seed becomes every command's `--seed`, so the
same seed gives the same matrices, the same trials and the same report
bytes.
"""

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Command:
    name: str
    params: dict

    def argv(self, seed):
        out = [self.name]
        for key, value in self.params.items():
            out += ["--" + key.replace("_", "-"), str(value)]
        return out + ["--seed", str(seed)]


def k_list(params):
    return [int(k) for k in str(params["k_list"]).split(",")]


def _phase(solver, ks, trials):
    return Command("phase", {"ensemble": "gaussian", "rows": 100, "cols": 500,
                             "solver": solver, "k_list": ks, "trials": trials})


# Why each workload exists is recorded with it in BENCHMARK.json.  Each
# phase k-list runs from sizes every trial recovers to sizes most trials
# miss, and each solver gets at least a second of trials.
WORKLOADS = {
    "audit-large": (Command("audit", {"ensemble": "gaussian", "rows": 1000,
                                      "cols": 8000}),),
    "verify-mc": (Command("verify", {"ensemble": "gaussian", "rows": 200, "cols": 400,
                                     "k": 10, "trials": 10000}),),
    "phase-solvers": (_phase("omp", "5,10,15,20,25,30,40", 50),
                      _phase("iht", "1,2,3,4,6,8", 20),
                      _phase("cosamp", "5,10,15,20,25,28", 50),
                      _phase("bpdn", "4,8,12,16,20,24", 2)),
    "separate-sf": (Command("separate", {"preset": "spikes-fourier", "n": 128,
                                         "nx": 4, "ne": 4, "trials": 50}),),
}


def check_report(command, report):
    """Problems found in one report; an empty list means it passes.

    The checks are invariants of the command's contract, loose enough
    that a change of random-stream layout still passes them.
    """
    p = command.params
    if not isinstance(report, dict) or report.get("command") != command.name:
        return ["not a %s report" % command.name]
    problems = []

    def need(cond, what):
        if not cond:
            problems.append(what)

    if command.name == "audit":
        prof = report["profile"]
        pairs = p["cols"] * (p["cols"] - 1) // 2
        need(prof["sample_count"] == pairs, "sample_count != N(N-1)/2")
        need(sum(c for _, _, c in prof["histogram"]) == pairs,
             "histogram counts do not sum to the pair count")
        need(0.0 < prof["mutual_coherence"] <= 1.0, "mu outside (0, 1]")
        need(abs(prof["std"] * math.sqrt(p["rows"]) - 1.0) <= 0.1,
             "sigma not near 1/sqrt(rows)")
    elif command.name == "verify":
        need(report["ok"] is True, "ok is not true")
        need(report["trials"] == p["trials"], "trial count differs")
    elif command.name == "phase":
        points = report["points"]
        need([q["k"] for q in points] == k_list(p), "not one point per k")
        for q in points:
            need(q["trials"] == p["trials"], "k=%s trial count differs" % q["k"])
            need(q["ci_low"] <= q["rate"] <= q["ci_high"],
                 "k=%s rate outside its interval" % q["k"])
            need(abs(q["rate"] - q["successes"] / p["trials"]) <= 1e-9,
                 "k=%s rate != successes/trials" % q["k"])
    elif command.name == "separate":
        need(report["condition"]["ok"] is True, "condition.ok is not true")
        need(report["trials"] == p["trials"], "trial count differs")
    return problems


def success_rate(command, report):
    """Share of the report's own accuracy checks that hold.

    phase: trials recovered to rel. error <= 1e-4, pooled over k;
    separate: mean of the x and e support-recovery rates; verify: tail
    checks passed; audit: the normality check.
    """
    if command.name == "phase":
        points = report["points"]
        return sum(q["successes"] for q in points) / sum(q["trials"] for q in points)
    if command.name == "separate":
        return (report["x_support_rate"] + report["e_support_rate"]) / 2.0
    if command.name == "verify":
        tails = report["ratio_tail"] + report["spectral_tail"]
        return sum(1 for t in tails if t["ok"]) / len(tails) if tails else 0.0
    return 1.0 if report["normality"] and report["normality"]["passed"] else 0.0
