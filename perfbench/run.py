"""Benchmark of the cohaudit CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`.  With `--trace 0` the workload's CLI commands run again and
again in fresh processes, one at a time (closed loop, one client, the
CLI's default single worker thread) for about S seconds.  Every report is
checked by the correctness gate and must be byte-identical across runs.
The end-to-end metrics are printed with medians, quartiles and sample
counts.  With `--trace 1` the same commands are replayed in this process,
untraced and traced (spans around each layer's public functions), and
the per-layer metrics are printed.  The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import WORKLOADS, check_report, k_list, success_rate

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 150
SETUP_CODE = "import cohaudit.cli as c; c.build_parser()"


@dataclass(frozen=True)
class Child:
    """Outcome of one child process: wall time, own peak RSS, exit, output."""

    wall_s: float
    rss_mb: float
    code: int
    out: bytes
    err: bytes


def run_child(args):
    """Run one python child and reap it with wait4 for its own rusage.

    ru_maxrss from wait4 is this child's peak, unlike RUSAGE_CHILDREN,
    which keeps the maximum over every child reaped so far.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, cwd=ROOT)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    err = []
    drain = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    try:
        timer.start()
        drain.start()
        out = proc.stdout.read()
        drain.join()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
        proc.stdout.close()
        proc.stderr.close()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, usage.ru_maxrss / 1024.0, proc.returncode, out,
                 err[0] if err else b"")


def summary_line(name, values, unit):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return "%-14s median %.6g %s  q1 %.6g  q3 %.6g  n=%d" % (
        name, statistics.median(values), unit, q1, q3, len(values))


def environment(seed):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": {k: os.environ.get(k, "unset") for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "commit": commit,
        "workload_seed": seed,
    }


def reference_bytes(outputs):
    """The report bytes most runs agree on (ties go to the earliest)."""
    return max(outputs, key=lambda b: (outputs.count(b), -outputs.index(b)))


def gate(command, children):
    """Per-run problems: exit code, report checks, bytes that differ."""
    ref = reference_bytes([c.out for c in children])
    verdicts = []
    for c in children:
        problems = []
        if c.code != 0:
            problems.append("exit code %d: %s" % (c.code, c.err.decode(errors="replace")[-300:]))
        else:
            try:
                problems += check_report(command, json.loads(c.out))
            except (ValueError, KeyError, TypeError) as exc:
                problems.append("unreadable report: %r" % exc)
            if c.out != ref:
                problems.append("report bytes differ from the other runs")
        verdicts.append(problems)
    return verdicts


def measure(name, seed, seconds):
    """Untraced closed-loop run; returns (result object, report lines).

    One cycle runs each of the workload's commands once, in order, each
    in a fresh process.  Cycles repeat while the next one is expected
    to end within `seconds`.
    """
    commands = WORKLOADS[name]
    setups = [run_child(["-c", SETUP_CODE]) for _ in range(SETUP_REPEATS)]
    if any(c.code != 0 for c in setups):
        raise SystemExit("cannot import cohaudit from %s: %s"
                         % (ROOT / "src", setups[0].err.decode(errors="replace")))
    runs = [[] for _ in commands]
    cycles = []
    start = time.perf_counter()
    while True:
        for cmd, children in zip(commands, runs):
            children.append(run_child(["-m", "cohaudit", *cmd.argv(seed)]))
        cycles.append(sum(children[-1].wall_s for children in runs))
        if time.perf_counter() - start + cycles[-1] > seconds:
            break
    verdicts = [gate(cmd, children) for cmd, children in zip(commands, runs)]
    flat = [v for vs in verdicts for v in vs]
    failed = sum(1 for v in flat if v)
    rates = []
    for cmd, children, vs in zip(commands, runs, verdicts):
        good = [c for c, v in zip(children, vs) if not v]
        rates.append(success_rate(cmd, json.loads(good[0].out)) if good else 0.0)
    rss = [c.rss_mb for children in runs for c in children]
    metrics = {
        "wall_s": (statistics.median(cycles), "s"),
        "setup_s": (statistics.median(c.wall_s for c in setups), "s"),
        "peak_rss_mb": (max(rss), "MB"),
        "pass_frac": ((len(flat) - failed) / len(flat), "fraction"),
        "success_rate": (statistics.fmean(rates), "fraction"),
    }
    lines = ["workload %s, %d cycles" % (name, len(cycles)),
             summary_line("wall_s", cycles, "s"),
             summary_line("setup_s", [c.wall_s for c in setups], "s"),
             summary_line("peak_rss_mb", rss, "MB"),
             "pass_frac      %.6g (fail_frac %.6g: %d of %d runs failed)"
             % (metrics["pass_frac"][0], failed / len(flat), failed, len(flat)),
             "success_rate   %.6g (mean over commands)" % metrics["success_rate"][0]]
    for cmd, children, vs, rate in zip(commands, runs, verdicts, rates):
        walls = [c.wall_s for c in children]
        label = cmd.params.get("solver", cmd.name)
        lines.append("%s: %s" % (label, " ".join(cmd.argv(seed))))
        lines.append("  " + summary_line(label + "_wall_s", walls, "s"))
        if cmd.name == "phase":
            trials = len(k_list(cmd.params)) * cmd.params["trials"]
            lines.append("  %s_trials_per_s %.6g  %s_success_rate %.6g"
                         % (label, trials / statistics.median(walls), label, rate))
        hashes = sorted({hashlib.sha256(c.out).hexdigest() for c in children})
        lines.append("  report sha256 %s" % " ".join(hashes))
        lines += ["  run %d: %s" % (i, "; ".join(v)) for i, v in enumerate(vs) if v]
    result = {"correct": failed == 0, "attempted": len(flat), "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return result, lines


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "cohaudit" / "__init__.py").is_file():
        print("no cohaudit sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 1
    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    if args.trace:
        from tracing import traced_run

        result, lines = traced_run(args.workload, args.seed, args.seconds, ROOT)
    else:
        result, lines = measure(args.workload, args.seed, args.seconds)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
