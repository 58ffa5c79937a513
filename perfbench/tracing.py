"""Traced in-process replay of a workload: per-layer spans and metrics.

Spans are recorded from the benchmark's side only: each layer's public
functions are swapped, in every `cohaudit` module namespace that holds
them, for a wrapper that records (name, start, end, parent) in memory.
Nothing under `src/` changes.  At the end the spans of the last pass are
written to `.bench_build/perfbench/` in the checkout.
"""

import contextlib
import io
import json
import os
import statistics
import sys
import time
import tracemalloc

import numpy as np

from workloads import WORKLOADS, check_report

# Public functions timed per layer, keyed by module.  `bounds`
# (closed-form arithmetic) and `errors` are left out; their time counts
# as the caller's.  Metric names drop the module's leading underscore.
LAYERS = {
    "ensembles": ("generate", "normalize_columns", "real_fourier_frame", "load_matrix"),
    "coherence": ("coherence_sample", "profile", "normality_check", "cross_coherence"),
    "_streams": ("stream", "k_subset", "substream_seed"),
    "ripcheck": ("sample_ratios", "sample_spectral", "spectral_deviation",
                 "band_frequency", "tail_check"),
    "linalg": ("operator_norm", "sym_opnorm"),
    "solvers": ("phase_curve", "recovery_trial", "omp", "iht", "cosamp", "bpdn", "lasso"),
    "separation": ("spikes_fourier_pair", "separation_feasibility", "separation_trial",
                   "separate"),
    "util": ("canonical_json", "parallel_map"),
}
ALLOC_TRACKED = {"coherence.coherence_sample", "coherence.profile",
                 "coherence.normality_check", "coherence.cross_coherence"}
# What a span keeps of its call's result: small values only, never arrays.
KEEP = {
    "coherence.coherence_sample": lambda r: r.count,
    "ripcheck.sample_ratios": lambda r: r.trials,
    "ripcheck.sample_spectral": lambda r: r.trials,
    "solvers.recovery_trial": lambda r: (r.solver, r.iterations, r.converged),
    "separation.separation_trial": lambda r: r.converged,
    "util.canonical_json": len,
}
MB = 1024.0 * 1024.0


class Tracer:
    """In-memory span recorder.  A span is [name, start, end, parent, kept]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.alloc_peak = 0

    def wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        track_alloc = name in ALLOC_TRACKED
        keep = KEEP.get(name)

        def traced(*args, **kwargs):
            own_alloc = track_alloc and not tracemalloc.is_tracing()
            if own_alloc:
                tracemalloc.start()
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if own_alloc:
                    self.alloc_peak = max(self.alloc_peak, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            if keep:
                span[4] = keep(result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, modules):
        """Swap every layer function for its traced wrapper, then restore."""
        swaps = []
        try:
            for layer, names in LAYERS.items():
                home = sys.modules["cohaudit." + layer]
                for fname in names:
                    orig = getattr(home, fname)
                    wrapper = self.wrap("%s.%s" % (layer.lstrip("_"), fname), orig)
                    for mod in modules:
                        for attr, value in list(vars(mod).items()):
                            if value is orig:
                                setattr(mod, attr, wrapper)
                                swaps.append((mod, attr, orig))
            yield
        finally:
            for mod, attr, orig in reversed(swaps):
                setattr(mod, attr, orig)

    def durations(self, name):
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def kept(self, name):
        return [s[4] for s in self.spans if s[0] == name]

    def self_times(self):
        """Self time per layer: span time minus the time its children cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        out = {}
        for s, c in zip(self.spans, child):
            layer = s[0].split(".")[0]
            out[layer] = out.get(layer, 0.0) + (s[2] - s[1]) - c
        return out

    def inclusive_times(self):
        """Per layer, time inside its outermost spans (nested calls counted once)."""
        out = {}
        layer_of = [s[0].split(".")[0] for s in self.spans]
        for i, s in enumerate(self.spans):
            p = s[3]
            while p >= 0 and layer_of[p] != layer_of[i]:
                p = self.spans[p][3]
            if p < 0:
                out[layer_of[i]] = out.get(layer_of[i], 0.0) + s[2] - s[1]
        return out

    def dump(self, path, workload, first):
        """Write spans[first:] as JSON lines, times relative to the first."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[first][1] if first < len(self.spans) else 0.0
        with open(path, "w") as fh:
            for s in self.spans[first:]:
                fh.write(json.dumps({"name": s[0], "start": s[1] - origin,
                                     "end": s[2] - origin,
                                     "parent": s[3] - first if s[3] >= first else -1,
                                     "workload": workload}) + "\n")


def call_main(main, argv):
    """Run cli.main in-process; returns (seconds, report bytes, exit code)."""
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return time.perf_counter() - start, buf.getvalue().encode(), code


def _pct(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def _median_time(fn, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def probes(seed):
    """Direct layer measurements that do not depend on the workload.

    operator_norm is timed on the phase matrix (100x500) and the
    separation joint dictionary (128x256).  The parallel_map speed-up is
    the 1-thread time over the 2-thread time (never more threads than
    cores) for sample_ratios on the verify-mc matrix and for a small
    bpdn phase curve; both must give identical results at either count.
    """
    from cohaudit import (EnsembleSpec, generate, joint_dictionary, phase_curve,
                          sample_ratios, spikes_fourier_pair)
    from cohaudit.linalg import operator_norm

    phase_m = generate(EnsembleSpec("gaussian", 100, 500, seed))
    joint = joint_dictionary(*spikes_fourier_pair(128))
    out = {
        "linalg.operator_norm.ms":
            (1e3 * _median_time(lambda: operator_norm(phase_m.data), 15), "ms"),
        "linalg.operator_norm_joint.ms":
            (1e3 * _median_time(lambda: operator_norm(joint.data), 15), "ms"),
    }
    threads = min(2, os.cpu_count() or 1)
    verify_m = generate(EnsembleSpec("gaussian", 200, 400, seed))
    cases = {
        "sample_ratios": lambda t: sample_ratios(verify_m, 10, 4000, seed,
                                                 threads=t).values.tolist(),
        "bpdn_phase": lambda t: phase_curve(phase_m, [4, 8], "bpdn", 2, 0.0, seed,
                                            threads=t),
    }
    ok = True
    for label, fn in cases.items():
        timings = []
        results = []
        for t in (1, threads):
            start = time.perf_counter()
            results.append(fn(t))
            timings.append(time.perf_counter() - start)
        ok = ok and results[0] == results[1]
        out["util.parallel_map.speedup_2t." + label] = (timings[0] / timings[1], "ratio")
    return out, ok


def traced_run(name, seed, seconds, root):
    """Probe, then replay the workload untraced and traced until `seconds` are used."""
    sys.path.insert(0, str(root / "src"))
    import cohaudit
    import cohaudit.cli

    if not os.path.realpath(cohaudit.__file__).startswith(os.path.realpath(root / "src")):
        raise SystemExit("cohaudit imported from %s, not %s" % (cohaudit.__file__, root))
    modules = [m for n, m in sorted(sys.modules.items())
               if n == "cohaudit" or n.startswith("cohaudit.")]
    commands = WORKLOADS[name]
    tracer = Tracer()
    main = tracer.wrap("cli.main", cohaudit.cli.main)
    untraced, traced = [], []
    runs = [[] for _ in commands]
    start = time.perf_counter()
    probe_metrics, probes_ok = probes(seed)
    while True:
        last_pass = len(tracer.spans)
        t0 = t1 = 0.0
        for cmd, outputs in zip(commands, runs):
            t, out, code = call_main(cohaudit.cli.main, cmd.argv(seed))
            outputs.append((out, code))
            t0 += t
            with tracer.installed(modules):
                t, out, code = call_main(main, cmd.argv(seed))
            outputs.append((out, code))
            t1 += t
        untraced.append(t0)
        traced.append(t1)
        if time.perf_counter() - start + t0 + t1 > seconds:
            break
    passes = len(traced)
    failed = 0
    for cmd, outputs in zip(commands, runs):
        for out, code in outputs:
            bad = code != 0 or out != outputs[0][0]
            failed += bad or bool(check_report(cmd, json.loads(out)))
    failed += not probes_ok

    def per_pass(xs):
        return sum(xs) / passes

    m = {}
    self_t = tracer.self_times()
    for layer in ("cli", *(name.lstrip("_") for name in LAYERS)):
        m[layer + ".self_s"] = (self_t.get(layer, 0.0) / passes, "s")
    m["cli.main.s"] = (statistics.median(untraced), "s")
    m["trace.overhead"] = (statistics.median(traced) / statistics.median(untraced), "ratio")
    m["ensembles.generate.s"] = (per_pass(tracer.durations("ensembles.generate")), "s")
    for fn in ("coherence_sample", "profile", "normality_check"):
        m["coherence.%s.s" % fn] = (per_pass(tracer.durations("coherence." + fn)), "s")
    m["coherence.cross_coherence.ms"] = (
        1e3 * per_pass(tracer.durations("coherence.cross_coherence")), "ms")
    pairs = per_pass(tracer.kept("coherence.coherence_sample"))
    m["coherence.pairs"] = (pairs, "count")
    m["coherence.sample_mb"] = (8.0 * pairs / MB, "MB")
    m["coherence.peak_alloc_mb"] = (tracer.alloc_peak / MB, "MB")
    for fn in ("stream", "k_subset"):
        d = tracer.durations("streams." + fn)
        m["streams.%s.us_per_call" % fn] = (1e6 * sum(d) / len(d) if d else 0.0, "us")
        m["streams.%s.calls" % fn] = (len(d) / passes, "count")
    for fn in ("sample_ratios", "sample_spectral"):
        m["ripcheck.%s.s" % fn] = (per_pass(tracer.durations("ripcheck." + fn)), "s")
    m["ripcheck.tail_check.ms"] = (1e3 * per_pass(tracer.durations("ripcheck.tail_check")),
                                   "ms")
    m["ripcheck.trials"] = (per_pass(
        tracer.kept("ripcheck.sample_ratios") + tracer.kept("ripcheck.sample_spectral")),
        "count")
    m.update(probe_metrics)
    m["linalg.operator_norm.calls"] = (
        len(tracer.durations("linalg.operator_norm")) / passes, "count")
    trials = list(zip(tracer.durations("solvers.recovery_trial"),
                      tracer.kept("solvers.recovery_trial")))
    for solver in ("omp", "iht", "cosamp", "bpdn"):
        mine = [(d, it, conv) for d, (s, it, conv) in trials if s == solver]
        ms = [1e3 * d for d, _, _ in mine]
        key = "solvers.%s." % solver
        m[key + "trial_ms.p50"] = (_pct(ms, 50), "ms")
        m[key + "trial_ms.p90"] = (_pct(ms, 90), "ms")
        m[key + "iterations.p50"] = (_pct([it for _, it, _ in mine], 50), "count")
        m[key + "converged_rate"] = (
            sum(conv for _, _, conv in mine) / len(mine) if mine else 0.0, "fraction")
    feas = tracer.durations("separation.separation_feasibility")
    m["separation.separation_feasibility.ms"] = (
        1e3 * sum(feas) / len(feas) if feas else 0.0, "ms")
    sep_ms = [1e3 * d for d in tracer.durations("separation.separation_trial")]
    sep = tracer.kept("separation.separation_trial")
    m["separation.separation_trial.ms.p50"] = (_pct(sep_ms, 50), "ms")
    m["separation.separation_trial.ms.p90"] = (_pct(sep_ms, 90), "ms")
    m["separation.converged_rate"] = (
        sum(sep) / len(sep) if sep else 0.0, "fraction")
    m["util.canonical_json.ms"] = (1e3 * per_pass(tracer.durations("util.canonical_json")),
                                   "ms")
    m["util.report_bytes"] = (per_pass(tracer.kept("util.canonical_json")),
                              "bytes")

    spans_path = root / ".bench_build" / "perfbench" / ("spans-%s-seed%d.jsonl" % (name, seed))
    tracer.dump(spans_path, name, last_pass)
    total = per_pass(traced)
    lines = ["workload %s (traced, %d passes)" % (name, passes),
             "cli.main untraced %.4f s, traced %.4f s (medians), overhead x%.3f"
             % (m["cli.main.s"][0], statistics.median(traced), m["trace.overhead"][0]),
             "layer        inclusive_s  share   self_s  share"]
    incl = tracer.inclusive_times()
    for layer in sorted(self_t, key=lambda k: -self_t[k]):
        lines.append("%-12s %10.4f %6.1f%% %8.4f %6.1f%%"
                     % (layer, incl.get(layer, 0.0) / passes,
                        100 * incl.get(layer, 0.0) / passes / total,
                        self_t[layer] / passes, 100 * self_t[layer] / passes / total))
    # cli.main and util.parallel_map enclose the work of the other layers.
    top = max((k for k in incl if k not in ("cli", "util")), key=lambda k: incl[k])
    lines.append("dominant layer (inclusive, besides cli and util): %s" % top)
    lines.append("spans: %d recorded, the last pass's %d written to %s"
                 % (len(tracer.spans), len(tracer.spans) - last_pass, spans_path))
    lines.append("probes identical at 1 and %d threads: %s"
                 % (min(2, os.cpu_count() or 1), probes_ok))
    result = {"correct": failed == 0, "attempted": sum(map(len, runs)) + 1, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in m.items()}}
    return result, lines
