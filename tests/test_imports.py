import ast
from pathlib import Path

import pytest

SOURCES = sorted(p for p in (Path(__file__).parent.parent / "src" / "cohaudit").glob("*.py")
                 if p.name != "__init__.py")


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
