"""Small shared helpers."""

from __future__ import annotations

import csv
import io
import math
import os

import numpy as np

from .errors import NoConvergence

THREADS_ENV = "FIELDCYCLE_THREADS"  # no longer read; benchmark runs report it
_BRENT_XTOL, _BRENT_RTOL, _BRENT_MAXITER = 1e-14, 8.9e-16, 100
_SPECIAL = ',"\r\n'  # characters csv.writer may quote a cell for


def thread_count() -> int:
    """Worker threads of a powder average: one, since its nodes run in
    order in the calling thread.  ``THREADS_ENV`` is no longer read."""
    return 1


def _quoted(cell: str) -> str:
    """``cell`` as csv.writer writes it in a row of two or more fields."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow((cell, ""))
    return out.getvalue()[:-2]


def _cells(column) -> list[str]:
    """A column's cells as csv.writer writes them: None empty, text quoted
    where csv quotes it, anything else as ``str``.  A numpy array renders
    its values as Python scalars, whose ``str`` is their ``repr``."""
    if isinstance(column, np.ndarray):
        return list(map(repr, column.tolist()))
    cells = ["" if c is None else str(c) for c in column]
    text = "".join(cells)
    return list(map(_quoted, cells)) if any(map(text.__contains__, _SPECIAL)) \
        else cells


def csv_text(header, columns) -> str:
    """CSV text with "\n" line ends, built column by column: the bytes that
    ``csv.writer`` writes for ``header`` and the rows of ``columns`` (one
    sequence of cells per header name, two or more), with floats rendered
    as ``repr`` so that result files round-trip exactly.  Text that needs
    no quoting passes through, so a caller may hand in cells it rendered."""
    rows = map(",".join, zip(*map(_cells, columns)))
    return "\n".join([",".join(_cells(header)), *rows, ""])


def write_atomic(final, text: str):
    """Write via a temp file and rename, so the Path ``final`` is never
    partial.  The temp file is created as ``open`` creates a file, so the
    result gets mode 0o666 less the umask at the time of the write."""
    while True:
        tmp = final.parent / f".tmp-{os.urandom(6).hex()}"
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:  # a name clash: draw another name
            continue
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, final)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _brentq(f, xa, xb):
    """Root of ``f`` in [xa, xb]: a line-for-line port of scipy's brentq.c,
    so it returns the bit-identical root without importing scipy.optimize."""
    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = float(f(xpre)), float(f(xcur))
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and (
                math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_BRENT_XTOL + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis  # bisect
        else:
            spre = scur = sbis  # bisect
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = float(f(xcur))
        if math.isnan(fcur):
            break
    raise NoConvergence(f"root bracketing failed near x={xcur!r}")
