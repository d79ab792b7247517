import csv
import io
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fieldcycle
from fieldcycle.sequencer import Event, EventLog
from fieldcycle.util import csv_text, write_atomic

HEADER = ["text", "int", "float", "other"]
ROWS = [
    ["plain", 1, 0.1, None],
    ["a,comma", -3, 1e-300, np.float64(2.5)],
    ['a "quote"', np.int64(7), np.float64(1 / 3), np.array(0.25)],
    ["two\nlines", np.array(4), float("inf"), ""],
    ["carriage\rreturn", True, float("nan"), "x,y"],
    ["", 0, -0.0, 'say "hi",\nthen go'],
    [None, 10 ** 20, 1e16, np.array(7)],
]


def _writer_text(header, rows):
    """The oracle: ``csv.writer`` fed row by row."""
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return out.getvalue()


@pytest.mark.parametrize("rows", [ROWS, ROWS[:1], ROWS[-1:], []],
                         ids=["all", "plain", "nulls", "empty"])
def test_csv_text_writes_what_csv_writer_writes(rows):
    assert csv_text(HEADER, zip(*rows)) == _writer_text(HEADER, rows)
    columns = [[row[j] for row in rows] for j in range(len(HEADER))]
    assert csv_text(HEADER, columns) == _writer_text(HEADER, rows)
    assert csv_text(['a "b"', "c,d"], [[], []]) == '"a ""b""","c,d"\n'


def test_csv_text_renders_array_columns_as_repr():
    rng = np.random.default_rng(11)
    floats = rng.standard_normal(2000) * 10.0 ** rng.integers(-30, 30, 2000)
    floats[:4] = [0.0, -0.0, np.inf, np.nan]
    ints = rng.integers(-10 ** 12, 10 ** 12, 2000)
    rows = list(zip(floats, ints, floats.tolist()))
    text = csv_text(["a", "b", "c"], [floats, ints, floats.tolist()])
    assert text == _writer_text(["a", "b", "c"], rows)
    parsed = np.array([float(r[0]) for r in csv.reader(io.StringIO(text))
                       if r[0] != "a"])
    assert np.array_equal(parsed, floats, equal_nan=True)  # round-trips


def test_event_log_of_no_runs_writes_only_the_header():
    log = EventLog((Event("program", "pulse_gen", 0.0, 0.0),
                    Event("shuttle", "actuator_motion", 1.0, 0.5)), 0,
                   (0.0, np.zeros(0)), (0.0, np.zeros(0)), {})
    assert log.to_csv() == \
        "run_id,channel,event,t_nominal_s,t_realized_s,duration_s\n"


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_write_atomic_gives_the_mode_open_would(tmp_path, umask, mode):
    # a fresh process: the umask set before the import, then one set after
    probe = (f"import os, pathlib; os.umask({umask})\n"
             "from fieldcycle.util import write_atomic\n"
             f"assert os.umask(0o002) == {umask}\n"
             f"folder = pathlib.Path({str(tmp_path)!r})\n"
             "write_atomic(folder / 'out.txt', 'x')\n"
             f"os.umask({umask})\n"
             "write_atomic(folder / 'again.txt', 'y')")
    src = str(Path(fieldcycle.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                   timeout=300)
    assert stat.S_IMODE((tmp_path / "out.txt").stat().st_mode) == 0o664
    assert stat.S_IMODE((tmp_path / "again.txt").stat().st_mode) == mode
    assert (tmp_path / "out.txt").read_text() == "x"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["again.txt", "out.txt"]


def test_write_atomic_draws_another_name_on_a_clash(tmp_path, monkeypatch):
    names = iter([b"\0" * 6, b"\0" * 6, b"\1" * 6])
    monkeypatch.setattr(os, "urandom", lambda n: next(names))
    write_atomic(tmp_path / "a.txt", "a")
    (tmp_path / ".tmp-000000000000").write_text("taken")
    write_atomic(tmp_path / "b.txt", "b")
    assert (tmp_path / "b.txt").read_text() == "b"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        ".tmp-000000000000", "a.txt", "b.txt"]
