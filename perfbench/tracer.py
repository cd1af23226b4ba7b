"""Span tracing of mwspoilers from outside the package.

:class:`Tracer` replaces public functions at the names their callers look
them up by (``mwspoilers.harness.sample_profile``,
``mwspoilers.spoilers.run_method``, ...) with wrappers that record a span per
call while the tracer is entered; each ``with tracer:`` block is one root
span, ``cli``, and puts the originals back on exit.  Spans live in four parallel
arrays (name, parent, start, end) and are written out only when asked, so
the traced run does no I/O.

A span's self time is its duration minus the time its child spans cover.
Every span has exactly one parent (the innermost span open when it
started), so the self times of all spans under a root add up to the root's
duration.  Work the tracer itself does between spans is recorded under
``trace.bookkeeping`` so that it is not charged to a layer.
"""

from __future__ import annotations

import importlib
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter_ns

ROOT = "cli"
HARNESS = "harness"
ITEM = "harness.item"
BOOKKEEPING = "trace.bookkeeping"


class Tracer:
    """Spans and counts of one traced pass; enter it around each traced command."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.role_ns = {"base": 0, "rerun": 0}
        self._base_pending = False
        self._item = -1
        self._pairs: set = set()
        self._saved: list[tuple[object, str, object]] = []
        self._root = -1

    # -- spans -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        idx = len(self.name)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError(f"span {self.names[self.name[idx]]} closed out of order")

    def _top_is(self, name: str) -> bool:
        return bool(self._stack) and self.names[self.name[self._stack[-1]]] == name

    def _next_item(self) -> None:
        """Close the item in progress, if any, and open the next one."""
        if self._top_is(ITEM):
            self.close(self._stack[-1])
        self._item = self.open(ITEM)

    def _close_item(self) -> None:
        if self._top_is(ITEM):
            self.close(self._stack[-1])

    # -- wrappers ----------------------------------------------------------

    def _spanned(self, name: str, fn):
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return wrapper

    def _harness(self, fn):
        def wrapper(*args, **kwargs):
            idx = self.open(HARNESS)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close_item()
                self.close(idx)

        return wrapper

    def _item_source(self, name: str, fn, measure):
        """An item starts where the harness acquires its input."""

        def wrapper(*args, **kwargs):
            self._next_item()
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            measure(args, result)
            return result

        return wrapper

    def _analyze(self, fn):
        def wrapper(*args, **kwargs):
            idx = self.open("spoilers.analyze")
            self._base_pending = True
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return wrapper

    def _run_method(self, fn):
        def wrapper(method_id, *args, **kwargs):
            role = "base" if self._base_pending else "rerun"
            self._base_pending = False
            idx = self.open(f"methods.{method_id}")
            try:
                return fn(method_id, *args, **kwargs)
            finally:
                self.close(idx)
                self.role_ns[role] += self.end[idx] - self.start[idx]

        return wrapper

    def _remove(self, fn):
        def wrapper(profile, c, *args, **kwargs):
            idx = self.open("core.remove_candidate")
            try:
                result = fn(profile, c, *args, **kwargs)
            finally:
                self.close(idx)
            book = self.open(BOOKKEEPING)
            self._pairs.add((self._item, profile.k, c, hash(profile.ballots)))
            self.close(book)
            return result

        return wrapper

    def _stv(self, fn):
        """No span of its own: counts stages of counts made for the ``stv`` rule."""

        def wrapper(*args, **kwargs):
            outcome, trace = fn(*args, **kwargs)
            if self._top_is("methods.stv"):
                self.counts["stv_counts"] += 1
                self.counts["stv_rounds"] += len(trace.rounds)
            return outcome, trace

        return wrapper

    def _count_sample(self, args, profile) -> None:
        self.counts["ballot_types"] += len(profile.ballots)

    def _count_parse(self, args, profile) -> None:
        self.counts["parse_bytes"] += len(args[0])

    def _patch(self, module_name: str, attr: str, make) -> None:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def __enter__(self) -> "Tracer":
        scores = ("first_place_counts", "top_k_counts", "borda_scores", "pairwise_matrix")
        try:
            self._patch("mwspoilers.cli", "run_simulation", self._harness)
            self._patch("mwspoilers.cli", "run_corpus_audit", self._harness)
            self._patch(
                "mwspoilers.harness",
                "sample_profile",
                lambda fn: self._item_source("cultures.sample", fn, self._count_sample),
            )
            self._patch(
                "mwspoilers.blt_io",
                "parse_blt",
                lambda fn: self._item_source("blt_io.parse", fn, self._count_parse),
            )
            self._patch("mwspoilers.harness", "analyze_spoilers", self._analyze)
            for attr, name in (
                ("weakness_flags", "spoilers.weakness"),
                ("stability_summary", "spoilers.stability"),
                ("clone_statistics", "spoilers.clone"),
            ):
                self._patch("mwspoilers.harness", attr, lambda fn, n=name: self._spanned(n, fn))
            self._patch("mwspoilers.spoilers", "run_method", self._run_method)
            self._patch("mwspoilers.spoilers", "remove_candidate", self._remove)
            self._patch("mwspoilers.methods", "remove_candidate", self._remove)
            self._patch("mwspoilers.methods", "stv", self._stv)
            for attr in scores:
                self._patch("mwspoilers.methods", attr, lambda fn: self._spanned("core.scores", fn))
            for attr in scores[:2]:
                self._patch("mwspoilers.spoilers", attr, lambda fn: self._spanned("core.scores", fn))
            self._patch(
                "mwspoilers.blt_io",
                "emit_results_csv",
                lambda fn: self._spanned("blt_io.emit_csv", fn),
            )
            self._patch_build()
        except BaseException:
            self._restore()
            raise
        self._root = self.open(ROOT)
        return self

    def _patch_build(self) -> None:
        core = importlib.import_module("mwspoilers.core")
        original = core.Profile.__dict__["build"]
        build = original.__func__
        spanned = self._spanned("core.profile_build", build)
        self._saved.append((core.Profile, "build", original))
        core.Profile.build = classmethod(spanned)

    def _restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __exit__(self, *exc) -> None:
        self.close(self._root)
        self._restore()

    # -- results -----------------------------------------------------------

    def distinct_removals(self) -> int:
        """Distinct (item, profile, candidate) removals seen."""
        return len(self._pairs)

    def totals(self) -> dict[str, tuple[int, int, int]]:
        """Per span name: (calls, total ns, self ns)."""
        n = len(self.name)
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, int] = defaultdict(int)
        own: dict[str, int] = defaultdict(int)
        for i in range(n):
            name = self.names[self.name[i]]
            dur = self.end[i] - self.start[i]
            calls[name] += 1
            total[name] += dur
            own[name] += dur - child[i]
        return {name: (calls[name], total[name], own[name]) for name in calls}

    def durations(self, name: str) -> list[int]:
        nid = self._ids.get(name)
        return [self.end[i] - self.start[i] for i in range(len(self.name)) if self.name[i] == nid]

    def write(self, path: Path) -> None:
        """One span per line: index, parent, name, start and end in ns from the first span."""
        origin = self.start[0] if len(self.start) else 0
        with open(path, "w", encoding="utf-8") as out:
            out.write("span\tparent\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.name)):
                out.write(
                    f"{i}\t{self.parent[i]}\t{self.names[self.name[i]]}\t"
                    f"{self.start[i] - origin}\t{self.end[i] - origin}\n"
                )
