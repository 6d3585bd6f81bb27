"""Span recorder and the probes of the traced run.

:func:`traced` wraps the public functions and methods named in the layer
map (see ``README.md``) where their callers look them up, records one span
per call, and restores every original on exit.  It is only entered for the
traced half of a ``--trace 1`` run, so the end-to-end numbers never pay for
it, and nothing under ``src/`` is edited.

A span is ``[name, parent, start, end, busy, calls, items]``.  Hot leaf
calls (``process_packet``, LUT lookups, verdict polls) would swamp memory
as one span each, so consecutive leaf calls under one parent fold into a
single span whose ``calls`` counts them and whose ``busy`` sums their
durations.  A span's self time is its ``busy`` time minus the ``busy`` time
of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
from contextlib import contextmanager
from time import perf_counter

_NAME, _PARENT, _START, _END, _BUSY, _CALLS, _ITEMS = range(7)
_ABSENT = object()


class SpanRecorder:
    """In-memory span store with a single-threaded span stack."""

    def __init__(self) -> None:
        self.records: list[list] = []
        self._stack = [-1]
        self._leaves: dict[tuple[int, str], int] = {}

    def begin(self, name: str) -> int:
        index = len(self.records)
        self.records.append([name, self._stack[-1], perf_counter(), 0.0, 0.0, 1, 0])
        self._stack.append(index)
        return index

    def end(self, index: int, items: int = 0) -> None:
        record = self.records[index]
        record[_END] = perf_counter()
        record[_BUSY] = record[_END] - record[_START]
        record[_ITEMS] += items
        if self._stack.pop() != index:
            raise RuntimeError(f"span {record[_NAME]!r} closed out of order")

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield index
        finally:
            self.end(index)

    def leaf(self, name: str, start: float, end: float, items: int) -> None:
        key = (self._stack[-1], name)
        index = self._leaves.get(key)
        if index is None:
            self._leaves[key] = len(self.records)
            self.records.append([name, key[0], start, end, end - start, 1, items])
            return
        record = self.records[index]
        record[_END] = end
        record[_BUSY] += end - start
        record[_CALLS] += 1
        record[_ITEMS] += items

    # ------------------------------------------------------------------
    def layer_totals(self, roots: tuple[str, ...]) -> dict[str, dict]:
        """Per span name: self and inclusive seconds, calls and items.

        Only spans under a root span whose name is in ``roots`` count, so
        set-up and measured operations can be reported apart.
        """
        records = self.records
        child_busy = [0.0] * len(records)
        root_of = [0] * len(records)
        for index, record in enumerate(records):
            parent = record[_PARENT]
            root_of[index] = index if parent < 0 else root_of[parent]
            if parent >= 0:
                child_busy[parent] += record[_BUSY]
        totals: dict[str, dict] = {}
        for index, record in enumerate(records):
            if records[root_of[index]][_NAME] not in roots:
                continue
            entry = totals.setdefault(
                record[_NAME], {"self_s": 0.0, "total_s": 0.0, "calls": 0, "items": 0}
            )
            entry["self_s"] += record[_BUSY] - child_busy[index]
            entry["total_s"] += record[_BUSY]
            entry["calls"] += record[_CALLS]
            entry["items"] += record[_ITEMS]
        return totals

    def dump(self, path) -> None:
        """Write every span as JSON (called once, when the run ends)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ["name", "parent", "start", "end", "busy", "calls", "items"]
        with path.open("w") as handle:
            json.dump({"fields": fields, "spans": self.records}, handle)


# ----------------------------------------------------------------------
# Probes
# ----------------------------------------------------------------------
def _span_wrapper(recorder: SpanRecorder, name: str, fn, items=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = recorder.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.end(index, items(args, kwargs) if items else 0)

    return wrapper


def _leaf_wrapper(recorder: SpanRecorder, name: str, fn, items=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.leaf(name, start, perf_counter(), items(args, kwargs) if items else 0)

    return wrapper


def _generator_wrapper(recorder: SpanRecorder, name: str, fn):
    """Time each ``next()`` of a generator function as one span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)
        while True:
            index = recorder.begin(name)
            try:
                item = next(inner)
            except StopIteration:
                recorder.end(index)
                return
            except BaseException:
                recorder.end(index)
                raise
            recorder.end(index, 1)
            yield item

    return wrapper


def _fetch_wrapper(recorder: SpanRecorder, fn):
    """``DatasetStore.fetch``: only the first fetch per partition count materialises."""

    @functools.wraps(fn)
    def wrapper(self, n_partitions, *args, **kwargs):
        if n_partitions in self:
            return fn(self, n_partitions, *args, **kwargs)
        index = recorder.begin("datasets.materialize")
        try:
            return fn(self, n_partitions, *args, **kwargs)
        finally:
            recorder.end(index)

    return wrapper


def _first_len(args, kwargs):
    return len(args[1]) if len(args) > 1 else len(next(iter(kwargs.values())))


#: (module, owner attribute or None, attribute, span name, kind, items).
#: ``owner`` names a class inside ``module``; ``None`` patches the module
#: itself (for functions, patched where the caller looks them up).
PROBES = (
    ("repro.datasets.flows", "PacketArrays", "from_flows", "datasets.soa_build", "classmethod", None),
    ("repro.datasets.generators", "SyntheticTrafficGenerator", "generate", "datasets.generate", "span", None),
    ("repro.datasets.materialize", "DatasetStore", "fetch", "datasets.materialize", "fetch", None),
    ("repro.datasets", None, "iter_packet_chunks", "datasets.chunk", "generator", None),
    ("repro.dataplane.splidt_program", "SpliDTDataPlane", "step_windows", "dataplane.window", "span", None),
    ("repro.dataplane.splidt_program", "SpliDTDataPlane", "finalise_staged", "dataplane.finalise", "span", None),
    ("repro.dataplane.splidt_program", "SpliDTDataPlane", "process_packet", "dataplane.scalar", "leaf", None),
    ("repro.dataplane.splidt_program", "SpliDTDataPlane", "begin_flows", "dataplane.begin_flows", "leaf", _first_len),
    ("repro.core.rule_lut", "SubtreeLUT", "lookup", "dataplane.lookup", "leaf", None),
    ("repro.dataplane.vectorized", None, "cached_flow_slots", "dataplane.slots", "span", None),
    ("repro.dataplane.runtime", None, "build_replay_result", "dataplane.score", "span", None),
    ("repro.serve.engine", None, "build_replay_result", "dataplane.score", "span", None),
    ("repro.pipeline.systems", "ProgramFactory", "__call__", "pipeline.program_build", "span", None),
    ("repro.pipeline.experiment", "Experiment", "prepare", "pipeline.prepare", "span", None),
    ("repro.pipeline.experiment", "Experiment", "train", "pipeline.train", "span", None),
    ("repro.pipeline.experiment", "Experiment", "compile", "pipeline.compile", "span", None),
    ("repro.serve.engine", "InferenceEngine", "ingest", "serve.ingest", "span", None),
    ("repro.serve.engine", "InferenceEngine", "drain", "serve.drain", "span", None),
    ("repro.serve.engine", "InferenceEngine", "verdicts", "serve.verdicts", "leaf", None),
    ("repro.core.dse", None, "evaluate_configuration", "core.candidate", "span", None),
    ("repro.core.dse", None, "train_partitioned_tree", "ml.train", "span", None),
    ("repro.core.dse", None, "evaluate_partitioned_tree", "core.evaluate", "span", None),
    ("repro.core.dse", None, "generate_rules", "core.rulegen", "span", None),
    ("repro.core.dse", None, "estimate_splidt_resources", "core.backend", "span", None),
    ("repro.bayesopt.optimizer", "MultiObjectiveBayesianOptimizer", "ask", "bayesopt.ask", "span", None),
    ("repro.bayesopt.optimizer", "MultiObjectiveBayesianOptimizer", "tell_many", "bayesopt.tell", "span", None),
)


@contextmanager
def traced(recorder: SpanRecorder):
    """Install every probe for the duration of the block, then restore."""
    undo: list[tuple[object, str, object]] = []
    try:
        for module_name, owner_name, attr, name, kind, items in PROBES:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            original = vars(owner).get(attr, _ABSENT)
            current = getattr(owner, attr)
            if kind == "classmethod":
                new = classmethod(_span_wrapper(recorder, name, original.__func__))
            elif kind == "leaf":
                new = _leaf_wrapper(recorder, name, current, items)
            elif kind == "generator":
                new = _generator_wrapper(recorder, name, current)
            elif kind == "fetch":
                new = _fetch_wrapper(recorder, current)
            else:
                new = _span_wrapper(recorder, name, current, items)
            undo.append((owner, attr, original))
            setattr(owner, attr, new)
        yield recorder
    finally:
        for owner, attr, original in reversed(undo):
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
