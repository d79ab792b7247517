"""Span recording around the package's public layer functions.

The tracer wraps functions from outside the package: it replaces each
public function listed in LAYER_FUNCTIONS with a wrapper, everywhere a
module of the package holds it (``relaxometry`` and ``sequencer`` bind
motion functions at import, so patching ``motion`` alone would miss their
calls).  Spans stay in memory until the run ends.

This module imports only the standard library, so a fresh process can
import it before the package without moving import time out of the span
that measures it.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
from time import perf_counter


def _points(args, kwargs, result):
    z = args[1] if len(args) > 1 else kwargs["z"]
    return getattr(z, "size", None) or (len(z) if hasattr(z, "__len__") else 1)


def _samples(args, kwargs, result):
    return len(result.t)


# (module, attribute, count hook); methods are "Class.method".  The count
# of spin.propagate_sweep is its integrator step count (see Tracer._wrap).
LAYER_FUNCTIONS = (
    ("fieldmap", "calibrate", None),
    ("fieldmap", "anchors_from_csv", None),
    ("fieldmap", "FieldMap.from_json", None),
    ("fieldmap", "FieldMap.field_at", _points),
    ("fieldmap", "FieldMap.gradient_at", None),
    ("fieldmap", "FieldMap.position_of_field", None),
    ("fieldmap", "FieldMap.plan_lac_access", None),
    ("motion", "plan", None),
    ("motion", "sample_trajectory", _samples),
    ("motion", "states_at", None),
    ("motion", "apply_jitter", None),
    ("sequencer", "build_timeline", None),
    ("sequencer", "validate", None),
    ("sequencer", "simulate", None),
    ("spin", "powder_average", None),
    ("spin", "propagate_sweep", None),
    ("relaxometry", "simulate_protocol", None),
    ("relaxometry", "fit_decay", None),
    ("relaxometry", "build_t1_map", None),
    ("orchestrator", "parse_spec", None),
    ("orchestrator", "run", None),
    ("orchestrator", "simulate_sequence", None),
    ("cli", "main", None),
)


class Tracer:
    """Records (id, name, start, end, parent, op, count) spans.

    A span opened on a pool thread with nothing open on that thread takes
    the innermost span open on the main thread as its parent: the closed
    loop runs one operation at a time and the main thread blocks in that
    span (``powder_average`` or ``orchestrator.run``) while the pool works.
    """

    def __init__(self):
        self.spans = []
        self.op = 0
        self._ids = itertools.count(1)
        self._main_ident = threading.get_ident()
        self._main_stack = []
        self._local = threading.local()
        self._patches = []

    def _stack(self):
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        return self._main_stack[-1] if self._main_stack else 0

    def record(self, name, start, end, parent=0, count=None):
        """Add a span measured elsewhere; returns its id."""
        sid = next(self._ids)
        self.spans.append((sid, name, start, end, parent, self.op, count))
        return sid

    def open(self, name):
        """Open a span on the calling thread; close it with ``close``."""
        stack = self._stack()
        sid = next(self._ids)
        entry = (sid, name, self._parent(stack), perf_counter())
        stack.append(sid)
        return entry

    def close(self, entry, count=None):
        end = perf_counter()
        sid, name, parent, start = entry
        self._stack().pop()
        self.spans.append((sid, name, start, end, parent, self.op, count))

    def _wrap(self, name, fn, hook):
        tracer = self

        if name == "spin.propagate_sweep":
            @functools.wraps(fn)
            def wrapper(*args, details=False, **kwargs):
                entry = tracer.open(name)
                res = None
                try:
                    res = fn(*args, details=True, **kwargs)
                finally:
                    tracer.close(entry, res.n_steps if res else None)
                return res if details else res.polarization
            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entry = tracer.open(name)
            count = None
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    count = hook(args, kwargs, result)
                return result
            finally:
                tracer.close(entry, count)
        return wrapper

    def install(self):
        """Wrap every LAYER_FUNCTIONS entry wherever the package binds it."""
        import fieldcycle.cli  # noqa: F401  (loads every layer)

        modules = [m for k, m in sys.modules.items()
                   if k.startswith("fieldcycle.") and m is not None]
        for mod_name, attr, hook in LAYER_FUNCTIONS:
            mod = sys.modules["fieldcycle." + mod_name]
            span = f"{mod_name}.{attr.split('.')[-1]}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(span, raw.__func__,
                                                 hook))
                else:
                    new = self._wrap(span, raw, hook)
                self._patches.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            orig = getattr(mod, attr)
            new = self._wrap(span, orig, hook)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._patches.append((m, key, orig))
                        setattr(m, key, new)

    def uninstall(self):
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()


def _overlap_groups(kids):
    """Split sibling spans into runs whose intervals overlap (one pool
    batch); siblings that ran one after another form groups of one."""
    groups = []
    end = None
    for k in sorted(kids, key=lambda s: s[2]):
        if end is None or k[2] >= end:
            groups.append([k])
            end = k[3]
        else:
            groups[-1].append(k)
            end = max(end, k[3])
    return groups


def summarize(spans):
    """Per span name: calls, self_s, busy_s and the summed count.

    ``busy_s`` is the summed duration (thread time).  ``self_s`` is wall
    time: a span's duration minus the union of its children's intervals,
    with each batch of overlapping children scaled so that the batch adds
    up to the wall time it covered.  Summed over every span, ``self_s``
    therefore equals the summed duration of the root spans.
    """
    children = {}
    for s in spans:
        children.setdefault(s[4], []).append(s)
    weight = {}
    out = {}
    for sid, name, start, end, parent, op, count in sorted(
            spans, key=lambda s: (s[2], s[0])):
        w = weight.get(sid, 1.0)
        covered = 0.0
        for group in _overlap_groups(children.get(sid, ())):
            lo = max(start, min(k[2] for k in group))
            hi = min(end, max(k[3] for k in group))
            union = max(0.0, hi - lo)
            busy = sum(k[3] - k[2] for k in group)
            for k in group:
                weight[k[0]] = w * (union / busy if busy > 0 else 1.0)
            covered += union
        agg = out.setdefault(name, {"calls": 0, "self_s": 0.0, "busy_s": 0.0,
                                    "count": 0})
        agg["calls"] += 1
        agg["self_s"] += (end - start - covered) * w
        agg["busy_s"] += end - start
        agg["count"] += count or 0
    return out
