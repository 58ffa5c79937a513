"""Lines of the package that no in-process test executes.

Runs the test suite in this process under `sys.settrace` (and
`threading.settrace`, for the thread pool), records every line executed
in `src/cohaudit`, and prints each line that carries code and never ran,
with its source.  Tests that run the command line in a subprocess are
not seen, so the entry points they alone reach are listed too.

It takes about a third longer than the suite alone (40 s against 30 s
on a 2-core host).  Run it from the repository root:

    PYTHONPATH=src python tests/line_coverage.py [pytest arguments]

It exits 1 if a test fails, else 0, whatever it lists.
"""

import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cohaudit"


def code_lines(path):
    """The line numbers of path that compile to at least one instruction."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        # a module's first instruction sits at line 0
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(args):
    files = {str(p): p for p in sorted(PACKAGE.glob("*.py"))}
    ran = {name: set() for name in files}

    def local(frame, event, arg):
        ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def start(frame, event, arg):
        if frame.f_code.co_filename in ran:
            return local(frame, event, arg)
        return None

    threading.settrace(start)
    sys.settrace(start)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = 0
    for name, path in files.items():
        source = path.read_text().splitlines()
        for line in sorted(code_lines(path) - ran[name]):
            missed += 1
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    print(f"{missed} lines never executed in-process")
    return 1 if status not in (0, 5) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
