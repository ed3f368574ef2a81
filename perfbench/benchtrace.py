"""Outside-in tracing of checks: spans around the library's layer entry points.

The library is not instrumented.  ``Tracer.patched`` replaces each traced
name in the module (or class) that looks it up at call time with a wrapper
that records a span, and puts the original back on exit.  Spans are kept in
memory as ``[name, start, end, parent, check]`` lists and written out once,
at the end of a run.  Self time is a span's duration minus the durations of
its direct children; in this single-threaded program children never overlap.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

CHECK = "bench.check"
BOOKKEEPING = "trace.bookkeeping"

STEP_FUNCTIONS = ("apply_F_matrix_ops", "apply_F_boolean_ops", "apply_G_ops")

# span name -> (owner attribute path relative to the library, attribute).
# ``fts_to_lats`` is looked up in the engine, ``config_poset`` in models.
TRACED = {
    "modelio.model_from_dict": ("modelio", "model_from_dict"),
    "engine.greatest_bisimulation": ("engine", "greatest_bisimulation"),
    "engine.build_problem": ("engine", "build_problem"),
    "models.fts_to_lats": ("engine", "fts_to_lats"),
    "models.config_poset": ("models", "config_poset"),
    "engine.apply_F_matrix": ("engine", "apply_F_matrix_ops"),
    "engine.apply_F_boolean": ("engine", "apply_F_boolean_ops"),
    "engine.apply_G": ("engine", "apply_G_ops"),
    "engine.std_mul": ("engine", "std_mul_ops"),
    "engine.otimes_mul": ("engine", "otimes_mul_ops"),
    "engine.report_bytes": ("engine", "report_bytes"),
    "engine.report": ("engine.BisimResult", "report"),
    "engine.holds": ("engine.BisimResult", "holds"),
}


def _owner(lib, path: str):
    obj = lib
    for part in path.split("."):
        obj = getattr(obj, part, None)
    return obj


class Tracer:
    """Span recorder plus per-check counters for the transfer steps."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.check: int | None = None
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.check])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        sid = self._open(name)
        try:
            yield sid
        finally:
            self._close(sid)

    def _wrap(self, name: str, fn, after=None):
        def traced(*args, **kwargs):
            sid = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if after is not None:
                with self.span(BOOKKEEPING):
                    after(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _count_step(self, args, out) -> None:
        """Entries evaluated and changed by one transfer step; for bitsets
        also the (pair, condition) items it removed."""
        problem, before = args[0], args[1]
        counts = self.counts[self.check]
        counts["engine.step_calls"] += 1
        counts["engine.entries_evaluated"] += len(problem.states_x) * len(problem.states_y)
        changed = removed = 0
        for row_before, row_after in zip(before, out):
            for a, b in zip(row_before, row_after):
                if a != b:
                    changed += 1
                    removed += (a & ~b).bit_count()
        counts["engine.entries_changed"] += changed
        if getattr(problem, "manager", None) is None:
            counts["engine.items_removed"] += removed

    @contextmanager
    def patched(self, lib, check: int):
        """Trace one check: every name in ``TRACED`` is wrapped on entry and
        restored on exit, also when the check raises.  A name the library no
        longer has is skipped, and its layer reads 0."""
        saved = []
        try:
            for name, (path, attr) in TRACED.items():
                owner = _owner(lib, path)
                original = vars(owner).get(attr) if owner is not None else None
                if original is None:
                    continue
                saved.append((owner, attr, original))
                after = self._count_step if attr in STEP_FUNCTIONS else None
                setattr(owner, attr, self._wrap(name, original, after))
            self.check = check
            with self.span(CHECK):
                yield
        finally:
            self.check = None
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        """Self time of every span, indexed like ``spans``."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def write(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as out:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "check"],
                    "names": names,
                    "spans": [[index[n], s, e, p, c] for n, s, e, p, c in self.spans],
                },
                out,
                separators=(",", ":"),
            )
