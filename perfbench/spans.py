"""In-memory spans recorded from outside the program.

The benchmark opens a span around each of its own calls into a layer
and, while tracing, replaces the public ``model``/``semantics``/
``grammar`` names that ``lfgmc.search`` and ``lfgmc.cli`` look up at
call time with wrappers that open a span around the original.  Nothing
under ``src/`` is edited.  A name a later refactor removes is reported
as absent rather than as a failure.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

# (module, attribute, span name).  Only names looked up at call time
# through the module's globals can be observed this way.
WRAPPED = (
    ("lfgmc.search", "validate_model", "model.validate"),
    ("lfgmc.search", "canonicalize", "model.canonicalize"),
    ("lfgmc.search", "model_to_text", "model.to_text"),
    ("lfgmc.search", "valid", "semantics.valid"),
    ("lfgmc.cli", "parse_grammar", "grammar.parse"),
    ("lfgmc.cli", "compile_grammar", "grammar.compile"),
    ("lfgmc.cli", "model_from_text", "model.from_text"),
    ("lfgmc.cli", "validate_model", "model.validate"),
    ("lfgmc.cli", "model_to_text", "model.to_text"),
    ("lfgmc.cli", "valid", "semantics.valid"),
)


def label_group(label: str) -> str:
    """'completeness[subj]' -> 'completeness'."""
    return label.split("[", 1)[0]


class Tracer:
    """Spans as (name, start_ns, end_ns, parent index, op id, tag)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.op_id: int | None = None
        self.absent: set[str] = set()
        self._saved: list[tuple] = []
        # per source ("bench", or "cli" for the theory the CLI compiled
        # last): the theory, kept alive so that its formula ids stay
        # unique, and formula id -> label group for the valid split
        self._theories: dict[str, tuple] = {}

    # -- spans ---------------------------------------------------------

    def open(self, name: str, tag: str | None = None) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op_id, tag])
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        popped = self.stack.pop()
        if popped != idx:
            raise RuntimeError("span %s closed out of order" % self.spans[idx][0])

    def call(self, name: str, fn, *args, **kwargs):
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    # -- wrapping ------------------------------------------------------

    def register_theory(self, theory, source: str = "bench") -> None:
        groups = {id(f): label_group(label) for label, f in theory.labeled()}
        self._theories[source] = (theory, groups)

    def _group_of(self, phi) -> str:
        for _theory, groups in self._theories.values():
            if id(phi) in groups:
                return groups[id(phi)]
        return "other"

    def install(self, modules: dict) -> None:
        for modname, attr, span in WRAPPED:
            mod = modules[modname]
            orig = getattr(mod, attr, None)
            if orig is None:
                self.absent.add("%s.%s" % (modname, attr))
                continue
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self._wrapper(orig, span, modname == "lfgmc.cli"))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()

    def _wrapper(self, orig, span: str, cli: bool):
        tracer = self
        tags = span == "semantics.valid"  # valid(model, phi)
        registers = span == "grammar.compile" and cli

        @functools.wraps(orig)
        def wrapped(*args, **kwargs):
            idx = tracer.open(span, tracer._group_of(args[1]) if tags else None)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer.close(idx)
            if registers:
                tracer.register_theory(result, "cli")
            return result

        return wrapped

    # -- analysis ------------------------------------------------------

    def check_nesting(self) -> list[str]:
        """Every span closed, every child inside its parent, and the
        children of one parent disjoint, so self times cannot go
        negative."""
        problems = []
        last_child_end: dict[int, int] = {}
        for i, (name, start, end, parent, _op, _tag) in enumerate(self.spans):
            if end < start or end == 0:
                problems.append("span %d (%s) not closed" % (i, name))
                continue
            if parent < 0:
                continue
            pname, pstart, pend = self.spans[parent][:3]
            if not (pstart <= start and end <= pend):
                problems.append("span %d (%s) leaves its parent %s" % (i, name, pname))
            if start < last_child_end.get(parent, start):
                problems.append("span %d (%s) overlaps a sibling" % (i, name))
            last_child_end[parent] = end
        if self.stack:
            problems.append("%d spans still open" % len(self.stack))
        return problems

    def totals(self, select):
        """Over the spans whose op id passes ``select``: total and self
        nanoseconds and call counts per span name (and per (name, tag)),
        and call counts by name per op id."""
        child_ns = defaultdict(int)
        for name, start, end, parent, _op, _tag in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        total = defaultdict(int)
        self_ns = defaultdict(int)
        calls = defaultdict(int)
        per_op = defaultdict(lambda: defaultdict(int))
        for i, (name, start, end, _parent, op, tag) in enumerate(self.spans):
            if not select(op):
                continue
            dur = end - start
            for key in (name, (name, tag)) if tag else (name,):
                total[key] += dur
                calls[key] += 1
            self_ns[name] += dur - child_ns[i]
            per_op[op][name] += 1
        return total, self_ns, calls, per_op

    def write(self, path) -> None:
        doc = {
            "fields": ["name", "start_ns", "end_ns", "parent", "op", "tag"],
            "absent": sorted(self.absent),
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
