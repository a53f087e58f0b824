"""Span recording around the program's public functions, from outside.

A :class:`Tracer` keeps spans in memory -- name, start, end, parent and
the run id -- and writes them out once, when the run ends.  Layers are
traced by :func:`install`, which swaps a public function (or method) for
a wrapper that records a span per call; no file of the program changes.
A function imported by name into other modules is replaced in every
``repro`` module that holds it, so callers see the wrapper whichever
import path they took.  :func:`uninstall` restores every original.

Self time is a span's duration minus the part of it that its children
cover (:func:`self_times`); totals count only the outermost span of a
name, so a recursive call is not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, NamedTuple


class Span(NamedTuple):
    span_id: int
    parent: int  # 0 for a root span
    name: str
    start: float
    end: float
    nested: bool  # an ancestor has the same name

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span and counter store of one traced run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counters: Counter[str] = Counter()
        self._next_id = 0
        self._id_lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_id(self) -> int:
        with self._id_lock:
            self._next_id += 1
            return self._next_id

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict) -> Any:
        """Run ``fn`` inside a span called ``name``."""
        stack = self._stack()
        span_id = self._new_id()
        parent = stack[-1][0] if stack else 0
        nested = any(entry[1] == name for entry in stack)
        stack.append((span_id, name))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, parent, name, start, end, nested))

    def record(
        self, name: str, start: float, end: float, parent: int = 0
    ) -> int:
        """Add a span measured by the caller (e.g. a client request)."""
        span_id = self._new_id()
        self.spans.append(Span(span_id, parent, name, start, end, False))
        return span_id

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: outermost-call count, total and self seconds."""
        selfs = self_times(self.spans)
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for span in self.spans:
            entry = out[span.name]
            entry["self_s"] += selfs[span.span_id]
            if not span.nested:
                entry["count"] += 1
                entry["total_s"] += span.duration
        return dict(out)

    def write(self, path: Path) -> None:
        """Write every span (one JSON line each) and the counters."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            handle.write(
                json.dumps({"run": self.run_id, "counters": self.counters})
                + "\n"
            )
            for span in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "run": self.run_id,
                            "id": span.span_id,
                            "parent": span.parent,
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                        }
                    )
                    + "\n"
                )


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Each span's duration minus the union of its children's intervals."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent:
            children[span.parent].append((span.start, span.end))
    out: dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(span.span_id, ())):
            start = max(start, cursor)
            end = min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out[span.span_id] = span.duration - covered
    return out


# ----------------------------------------------------------------------
# Installing wrappers
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Target:
    """One public function or method to trace.

    ``attr`` is ``"func"`` or ``"Class.method"`` inside ``module``.
    ``kind="span"`` records a span per call; ``kind="hit"`` records no
    span and counts ``<name>.hits``/``<name>.lookups`` from the call's
    ``hit`` argument (an artifact store's bookkeeping hook).
    """

    name: str
    module: str
    attr: str
    kind: str = "span"


def _span_wrapper(tracer: Tracer, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        return tracer.call(name, fn, args, kwargs)

    return traced


def _hit_wrapper(tracer: Tracer, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def counted(self: Any, kind: str, hit: bool) -> Any:
        tracer.counters[f"{name}.lookups"] += 1
        if hit:
            tracer.counters[f"{name}.hits"] += 1
        return fn(self, kind, hit)

    return counted


#: What :func:`install` replaced: one restoring callable per replacement.
Installation = list


def _rebind_everywhere(
    original: Callable, wrapper: Callable, undo: list
) -> None:
    """Point every ``repro`` module global (or module-level dict value)
    that holds ``original`` at ``wrapper``."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not mod_name.startswith("repro"):
            continue
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if value is original:
                namespace[key] = wrapper
                undo.append(functools.partial(namespace.__setitem__, key, value))
            elif isinstance(value, dict):
                for dkey, dvalue in list(value.items()):
                    if dvalue is original:
                        value[dkey] = wrapper
                        undo.append(
                            functools.partial(value.__setitem__, dkey, dvalue)
                        )


def install(tracer: Tracer, targets: Iterable[Target]) -> Installation:
    """Wrap every target; returns what :func:`uninstall` needs."""
    done: Installation = []
    for target in targets:
        module = importlib.import_module(target.module)
        make = _hit_wrapper if target.kind == "hit" else _span_wrapper
        owner_name, _, attr = target.attr.rpartition(".")
        if not owner_name:
            original = getattr(module, attr)
            _rebind_everywhere(original, make(tracer, target.name, original), done)
            continue
        owner = getattr(module, owner_name)
        raw = owner.__dict__[attr]
        if isinstance(raw, functools.cached_property):
            replacement = functools.cached_property(
                make(tracer, target.name, raw.func)
            )
            replacement.__set_name__(owner, attr)
        else:
            replacement = make(tracer, target.name, raw)
        setattr(owner, attr, replacement)
        done.append(functools.partial(setattr, owner, attr, raw))
    return done


def uninstall(installation: Installation) -> None:
    for restore in reversed(installation):
        restore()
    installation.clear()
