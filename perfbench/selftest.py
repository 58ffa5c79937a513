"""Self-test of the benchmark harness at tiny sizes.

    python3 perfbench/selftest.py

Runs every workload shrunk to a fraction of a second, untraced and
traced, and checks that each metric named in BENCHMARK.json is printed
with its unit; that the correctness gate rejects tampered reports (a
flipped verdict, a broken invariant, a changed byte, a bad exit code);
and that the benchmark refuses to run without the package sources.
Exits 1 on the first failed check.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys

import run
import tracing
from workloads import WORKLOADS, Command, check_report

TINY = {
    "audit": {"rows": 40, "cols": 60},
    "verify": {"rows": 40, "cols": 60, "k": 3, "trials": 50},
    "phase": {"rows": 20, "cols": 40, "k_list": "1,2", "trials": 3},
    "separate": {"n": 16, "nx": 1, "ne": 1, "trials": 3},
}


def expect(cond, what):
    if not cond:
        print("FAIL: " + what)
        sys.exit(1)
    print("ok: " + what)


def check_metrics(result, declared, label):
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    expect(got == want, "%s prints every declared metric with its unit" % label)
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           "%s passes the gate" % label)


def tampered(command, report):
    """One broken copy of a valid report per command."""
    bad = json.loads(json.dumps(report))
    if command.name == "audit":
        bad["profile"]["sample_count"] += 1
    elif command.name == "verify":
        bad["ok"] = not bad["ok"]
    elif command.name == "phase":
        bad["points"][0]["rate"] = bad["points"][0]["ci_high"] + 0.5
    else:
        bad["condition"]["ok"] = False
    return bad


def main():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for name, commands in list(WORKLOADS.items()):
        WORKLOADS[name] = tuple(Command(c.name, {**c.params, **TINY[c.name]})
                                for c in commands)
    for name, commands in WORKLOADS.items():
        result, _ = run.measure(name, 1, 0.01)
        check_metrics(result, bench["end_to_end"], name)
        result, _ = tracing.traced_run(name, 1, 0.01, run.ROOT)
        check_metrics(result, bench["per_layer"], name + " traced")

        for cmd in commands:
            label = " ".join(cmd.argv(1))
            child = run.run_child(["-m", "cohaudit", *cmd.argv(1)])
            report = json.loads(child.out)
            expect(not check_report(cmd, report), "%s: report passes its checks" % label)
            expect(check_report(cmd, tampered(cmd, report)),
                   "%s: gate rejects a tampered report" % label)
            changed = bytearray(child.out)
            last_digit = max(i for i, b in enumerate(changed) if chr(b).isdigit())
            changed[last_digit] = ord(str((int(chr(changed[last_digit])) + 1) % 10))
            other = run.Child(0.0, 0.0, 0, bytes(changed), b"")
            failed = run.Child(0.0, 0.0, 3, child.out, b"")
            verdicts = run.gate(cmd, [child, child, other, failed])
            expect(not verdicts[0] and not verdicts[1] and verdicts[2] and verdicts[3],
                   "%s: gate rejects a changed byte and a bad exit code" % label)

    bare = run.ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, *bench["command"][1:], "--workload", "verify-mc",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, timeout=60)
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and b"correct" not in proc.stdout,
           "refuses to run without the package sources")

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", "separate-sf", "--seed", "2", "--seconds", "0.01"])
    last = json.loads(buf.getvalue().splitlines()[-1])
    expect(code == 0 and set(last) == {"correct", "attempted", "failed", "metrics"},
           "last stdout line is the result object")
    print("selftest passed")


if __name__ == "__main__":
    main()
