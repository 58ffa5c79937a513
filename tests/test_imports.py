import ast
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parent.parent / "src" / "cohaudit"
SOURCES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by an import statement in source and never read in it."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`; `from m import *` binds nothing nameable
                name = alias.asname or alias.name.split(".")[0]
                if name != "*":
                    imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_are_found():
    source = "import math\nimport numpy as np\nfrom os import path, sep\nx = np.pi + sep\n"
    assert unused_imports(source) == [(1, "math"), (3, "path")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def random_references(source):
    """Lines of source that reach numpy's random module other than through _streams."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "random" \
                and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"):
            lines.append(node.lineno)
        elif isinstance(node, ast.Import) and any(a.name.startswith("numpy.random")
                                                  for a in node.names):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and (
                (node.module or "").startswith("numpy.random")
                or node.module == "numpy" and any(a.name == "random" for a in node.names)):
            lines.append(node.lineno)
    return sorted(lines)


def test_random_references_are_found():
    source = ("import numpy as np\nimport numpy.random\nfrom numpy import random\n"
              "from numpy.random import default_rng\nx = np.random.default_rng(0)\n"
              "y = np.linalg.norm(x.random(3))\n")
    assert random_references(source) == [2, 3, 4, 5]


@pytest.mark.parametrize("path", [p for p in sorted(PACKAGE.glob("*.py"))
                                  if p.name != "_streams.py"], ids=lambda p: p.name)
def test_only_streams_draws_random_numbers(path):
    # every draw comes from a keyed stream(seed, *tags), so reports are
    # byte-deterministic at any thread count and call order
    assert random_references(path.read_text()) == []


# Where each keyed-stream call takes its first purpose tag.
TAG_POSITION = {"stream": 1, "_block_draws": 1, "_plant": 1, "_observe": 3}


def purpose_tags(source):
    """Sorted (line, tag) for each string literal passed as a first purpose tag."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        pos = TAG_POSITION.get(name)
        if pos is None or len(node.args) <= pos:
            continue
        tag = node.args[pos]
        if isinstance(tag, ast.Constant) and isinstance(tag.value, str):
            found.append((node.lineno, tag.value))
    return sorted(found)


def test_purpose_tags_are_found():
    source = ('stream(seed, "a", 1)\nrng = _streams.stream(seed, name, 2)\n'
              'x = _plant(seed, "b", k, n, t)\ny = _observe(x, 0.1, seed, "c", k)\n'
              '_block_draws(seed, "d", k, n, j, m)\nstream(seed, 3)\n'
              'bpdn(d, "g", 0.0)\n')
    assert purpose_tags(source) == [(1, "a"), (3, "b"), (4, "c"), (5, "d")]


def test_each_purpose_tag_keys_one_call_site():
    # two experiments that share a purpose tag would draw the same keyed
    # stream, so their trials would be correlated by accident
    sites = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for line, tag in purpose_tags(path.read_text()):
            sites.setdefault(tag, []).append(f"{path.name}:{line}")
    assert {tag: where for tag, where in sites.items() if len(where) > 1} == {}
    assert {"ratio", "spectral", "signal", "noise", "separation-x",
            "separation-e", "separation-noise"} <= set(sites)


def private_definitions(source):
    """Sorted (line, name) of the module-level functions, classes and constants named _x."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name.startswith("_") and not name.startswith("__")]
    return sorted(found)


def references(source):
    """How often each name is read in source, as a name, an attribute or an import."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.append(node.id)
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names += [alias.name for alias in node.names]
    return Counter(names)


def test_private_definitions_and_references_are_found():
    source = ("from .x import _a, b\n_LIMIT = 3\n_x, y = 1, 2\ndef _f(): return _LIMIT\n"
              "class _C: pass\nz = m._g(b)\n__all__ = []\n")
    assert private_definitions(source) == [(2, "_LIMIT"), (3, "_x"), (4, "_f"), (5, "_C")]
    counts = references(source)
    assert (counts["_a"], counts["_LIMIT"], counts["_g"], counts["_f"]) == (1, 1, 1, 0)


def test_every_private_helper_is_used():
    # a module-level _name that nothing in the package reads is dead code
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    used = sum(map(references, sources.values()), Counter())
    dead = [(name, line, helper) for name, source in sources.items()
            for line, helper in private_definitions(source) if not used[helper]]
    assert dead == []


# Exported functions that no module of the package reads, and why each stays.
UNREACHED_EXPORTS = {
    **dict.fromkeys(("omp", "iht", "cosamp", "lasso", "recovery_trial", "separation_trial",
                     "separate", "spectral_deviation"), "traced by perfbench LAYERS"),
    "coherence_band_probability": "release criterion 3",
    "l1_stability_feasible": "release criterion 6",
    "energy_identity_gap": "release criterion 10",
    "save_matrix": "file format",
    "generate_raw": "raw draw",
}


def exported_functions(init_source, sources):
    """Sorted names that init_source imports from a module of sources that defines them by def."""
    defined = {Path(name).stem: {node.name for node in ast.parse(source).body
                                 if isinstance(node, ast.FunctionDef)}
               for name, source in sources.items()}
    return sorted(alias.name for node in ast.parse(init_source).body
                  if isinstance(node, ast.ImportFrom)
                  for alias in node.names if alias.name in defined.get(node.module, ()))


def outside_reads(source):
    """references(source), less each module-level function's reads of its own name."""
    counts = references(source)
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef):
            counts[node.name] -= references(ast.unparse(node))[node.name]
    return counts


def test_exported_functions_and_outside_reads_are_found():
    sources = {"a.py": "def f(n): return f(n - 1)\ndef g(): pass\nclass C: pass\nK = 1\n",
               "b.py": "from .a import g\ndef h(): return g()\n"}
    init = "from .a import C, K, f, g\nfrom .b import h\nfrom .c import q\n"
    assert exported_functions(init, sources) == ["f", "g", "h"]
    reads = sum(map(outside_reads, sources.values()), Counter())
    assert (reads["f"], reads["g"], reads["h"]) == (0, 2, 0)


def test_every_exported_function_is_reached():
    # an exported function that no command reads, and no allowlist reason
    # keeps, is an experiment nothing runs
    sources = {p.name: p.read_text() for p in SOURCES}
    exported = exported_functions((PACKAGE / "__init__.py").read_text(), sources)
    reads = sum(map(outside_reads, sources.values()), Counter())
    assert set(UNREACHED_EXPORTS) <= set(exported)
    assert [name for name in exported
            if not reads[name] and name not in UNREACHED_EXPORTS] == []


# Defaulted parameters of exported functions that no call in the package
# passes a value other than the default, and why each stays.
UNSET_OPTIONS = {
    "save_matrix.file_format": "file format",
    "separation_trial.noise_sigma": "traced by perfbench LAYERS; draws trial 0 of a noisy run",
}


def unset_options(init_source, sources):
    """Sorted 'function.parameter' of each exported function's defaulted parameter no call sets.

    A call in sources sets a parameter by passing it, by position or by
    keyword, any expression other than its default's.
    """
    exported = set(exported_functions(init_source, sources))
    params = {}
    for source in sources.values():
        for node in ast.parse(source).body:
            if isinstance(node, ast.FunctionDef) and node.name in exported:
                a = node.args
                positional = [p.arg for p in a.posonlyargs + a.args]
                defaults = dict(zip(positional[len(positional) - len(a.defaults):], a.defaults))
                defaults.update((p.arg, d) for p, d in zip(a.kwonlyargs, a.kw_defaults)
                                if d is not None)
                params[node.name] = positional, {p: ast.dump(d) for p, d in defaults.items()}
    passed = set()
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name not in params:
                continue
            positional, defaults = params[name]
            given = list(zip(positional, node.args)) + [(kw.arg, kw.value) for kw in node.keywords]
            passed |= {(name, p) for p, value in given
                       if p in defaults and ast.dump(value) != defaults[p]}
    return sorted(f"{name}.{p}" for name, (_, defaults) in params.items()
                  for p in defaults if (name, p) not in passed)


def test_unset_options_are_found():
    sources = {"a.py": "def f(x, n=1, mode='a', *, scale=2.0): pass\n"
                       "def g(y=None): return f(y, 1, mode='b')\ndef _h(z=0): pass\n",
               "b.py": "from . import a\ndef run(args): a.f(args.x, scale=2.0)\n"}
    init = "from .a import f, g\nfrom .b import run\n"
    assert unset_options(init, sources) == ["f.n", "f.scale", "g.y"]


def test_every_option_is_set_by_a_command():
    # a defaulted parameter that no call sets, and no allowlist reason keeps,
    # is a knob with one value in use: it should be a constant
    sources = {p.name: p.read_text() for p in SOURCES}
    unset = unset_options((PACKAGE / "__init__.py").read_text(), sources)
    assert set(UNSET_OPTIONS) <= set(unset)
    assert [option for option in unset if option not in UNSET_OPTIONS] == []
