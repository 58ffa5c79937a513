import ast
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
