"""Shared helpers: canonical JSON, CSV dumps, frozen copies, parallel map."""

import json
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np


def canonical_json(obj):
    """Serialize to canonical JSON text: sorted keys, floats as %.12g.

    The same logical content always produces byte-identical text, which
    is the basis of the reproducibility contract for report files.
    Non-finite floats are rejected; degenerate report fields use null.
    """
    parts = []
    _emit(obj, parts)
    return "".join(parts)


def _emit(obj, parts):
    if obj is None:
        parts.append("null")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        parts.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not np.isfinite(x):
            raise ValueError("non-finite float in report")
        parts.append("%.12g" % x)
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif isinstance(obj, dict):
        parts.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise TypeError(f"report keys must be strings, got {key!r}")
            if i:
                parts.append(",")
            parts.append(json.dumps(key))
            parts.append(":")
            _emit(obj[key], parts)
        parts.append("}")
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for i, item in enumerate(obj):
            if i:
                parts.append(",")
            _emit(item, parts)
        parts.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} in report")


def write_csv(path, header, fmt, rows):
    """Write a header line, then one `fmt % row` line per row."""
    lines = [header]
    lines.extend(fmt % row for row in rows)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def frozen_copy(values):
    """Read-only float64 copy of values."""
    arr = np.array(values, dtype=np.float64, copy=True)
    arr.flags.writeable = False
    return arr


def parallel_map(fn, items, threads=1):
    """Map fn over items, optionally on a thread pool, preserving order.

    The pool never has more workers than items or CPU cores.
    """
    items = list(items)
    workers = min(threads, len(items), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
