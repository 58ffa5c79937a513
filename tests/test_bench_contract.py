"""Names the benchmark's traced mode (`perfbench/run.py --trace 1`) relies on.

perfbench/tracing.py swaps the functions listed in its LAYERS table for
timing wrappers, looked up by name in `cohaudit.<layer>`, and reads a
few result fields.  A rename or deletion in the library would break the
traced run silently; these tests catch it in tier-1 instead.
"""

import ast
import importlib
import inspect
from dataclasses import fields
from pathlib import Path

from cohaudit import CoherenceSample, RatioSample, SeparationTrial, SpectralSample, \
    TrialResult, phase_curve, sample_ratios

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_layers():
    """The LAYERS literal of perfbench/tracing.py, read without importing it."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS table in {TRACING}")


def test_every_traced_function_exists():
    layers = traced_layers()
    assert "separation" in layers and "util" in layers
    missing = [f"cohaudit.{layer}.{name}"
               for layer, names in layers.items()
               for name in names
               if not callable(getattr(importlib.import_module("cohaudit." + layer),
                                       name, None))]
    assert missing == []


def test_traced_parameters_and_result_fields():
    assert "threads" in inspect.signature(sample_ratios).parameters
    # the bpdn_phase probe calls phase_curve(m, ks, solver, trials, noise, seed, threads=t)
    params = inspect.signature(phase_curve).parameters
    head = list(params.values())[:6]
    assert [p.name for p in head] == \
        ["matrix", "k_list", "solver", "trials", "noise_sigma", "seed"]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in head)
    assert params["threads"].kind in (inspect.Parameter.POSITIONAL_OR_KEYWORD,
                                      inspect.Parameter.KEYWORD_ONLY)
    assert "converged" in {f.name for f in fields(SeparationTrial)}
    assert {"solver", "iterations", "converged"} <= {f.name for f in fields(TrialResult)}
    assert "trials" in {f.name for f in fields(RatioSample)}
    assert "trials" in {f.name for f in fields(SpectralSample)}
    assert isinstance(CoherenceSample.count, property)
