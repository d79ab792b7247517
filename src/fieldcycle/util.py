"""Small shared helpers."""

from __future__ import annotations

import csv
import io
import os
from concurrent.futures import ThreadPoolExecutor

THREADS_ENV = "FIELDCYCLE_THREADS"


def thread_count() -> int:
    """Worker cap from FIELDCYCLE_THREADS (0 or unset auto-detects)."""
    raw = os.environ.get(THREADS_ENV, "0")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n <= 0:
        n = os.cpu_count() or 1
    return max(1, n)


def parallel_map(fn, items):
    """Map preserving input order; runs threaded only when it can help."""
    items = list(items)
    workers = min(thread_count(), len(items)) if items else 1
    if workers <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, items))


def csv_text(header, rows) -> str:
    """CSV text with "\n" line ends; floats render as ``repr``, so result
    files round-trip exactly."""
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return out.getvalue()
