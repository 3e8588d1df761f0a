"""Span recording around calls into lrc7's layers, from outside the package.

`traced()` rebinds module attributes of the loaded ``lrc7`` modules (for
example ``lrc7.cli.min_distance`` or ``lrc7.construct.small_rank``) to
wrappers that record a span per call, and restores the originals on exit.
Nothing under ``src/`` is edited.  Spans (name, start, end, parent) stay in
memory; `Recorder.save` writes them out when the benchmark ends.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array
from pathlib import Path

# (span name, module defining the callable, attribute name).  Every lrc7
# module attribute that is the same object is rebound, so calls through a
# `from .linalg import small_rank` copy are traced as well.
TRACED_FUNCTIONS = (
    ("linalg.small_rank", "lrc7.linalg", "small_rank"),
    ("linalg.rank", "lrc7.linalg", "rank"),
    ("linalg.kernel_basis", "lrc7.linalg", "kernel_basis"),
    ("linalg.solve_columns", "lrc7.linalg", "solve_columns"),
    ("spread.build", "lrc7.spread", "build_2_spread"),
    ("spread.verify", "lrc7.spread", "verify_spread"),
    ("construct.run", "lrc7.construct", "run_algorithm1"),
    ("construct.conditions", "lrc7.construct", "verify_conditions"),
    ("construct.replay", "lrc7.construct", "replay_trace"),
    ("codec.min_distance", "lrc7.codec", "min_distance"),
    ("codec.code_build", "lrc7.codec", "code_from_parity_check"),
    ("codec.encode", "lrc7.codec", "encode"),
    # simulate_repairs calls the private helper, not repair_local
    ("codec.local_repair", "lrc7.codec", "_repair_local_info"),
    ("codec.global_repair", "lrc7.codec", "repair_global"),
    ("codec.simulate", "lrc7.codec", "simulate_repairs"),
    ("bounds.report", "lrc7.bounds", "bounds_report"),
    ("cli.main", "lrc7.cli", "main"),
)

# (span name, module, class, method): methods rebound on the class itself
TRACED_METHODS = (("fields.create", "lrc7.fields", "FieldSpec", "__init__"),)


class Recorder:
    """In-memory span store: parallel arrays of name id, start, end, parent."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.name_id)

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def wrap(self, name: str, fn):
        nid = self._id(name)
        clock = time.perf_counter
        stack = self._stack
        name_ids, starts, ends, parents = self.name_id, self.start, self.end, self.parent

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(name_ids)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, summed self time in seconds).

        Self time is a span's duration minus the durations of its direct
        children, which are recorded after their parent.
        """
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        out: dict[str, list] = {name: [0, 0.0] for name in self.names}
        for i, nid in enumerate(self.name_id):
            acc = out[self.names[nid]]
            acc[0] += 1
            acc[1] += own[i]
        return {name: (c, t) for name, (c, t) in out.items()}

    def save(self, path: Path) -> None:
        """Write every span as a compressed numpy archive."""
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.array(self.name_id, dtype=np.int64),
            start=np.array(self.start, dtype=np.float64),
            end=np.array(self.end, dtype=np.float64),
            parent=np.array(self.parent, dtype=np.int64),
        )


def _lrc7_modules():
    return [m for name, m in list(sys.modules.items()) if m is not None and (name == "lrc7" or name.startswith("lrc7."))]


@contextlib.contextmanager
def traced(rec: Recorder):
    """Rebind the traced callables in every loaded lrc7 module."""
    undo = []
    modules = _lrc7_modules()
    for span, modname, attr in TRACED_FUNCTIONS:
        orig = getattr(sys.modules[modname], attr)
        wrapped = rec.wrap(span, orig)
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    undo.append((mod, key, orig))
                    setattr(mod, key, wrapped)
    for span, modname, cls_name, meth in TRACED_METHODS:
        cls = getattr(sys.modules[modname], cls_name)
        orig = cls.__dict__[meth]
        undo.append((cls, meth, orig))
        setattr(cls, meth, rec.wrap(span, orig))
    try:
        yield rec
    finally:
        for owner, key, orig in reversed(undo):
            setattr(owner, key, orig)
