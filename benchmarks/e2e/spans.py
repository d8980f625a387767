"""Spans for the traced run: wrap repro functions, merge processes, export.

:class:`Tracer` instruments the program from the benchmark's own files.
``Tracer.instrument(fn, name)`` swaps every reference to ``fn`` held in a
``repro.*`` namespace (module globals and class attributes), so names
bound with ``from ... import`` are wrapped too.  Pool workers fork from
the traced process and inherit the wrappers.  Each process appends its
spans to ``<span_dir>/<pid>.jsonl`` whenever its outermost span closes:
pool workers leave through ``os._exit`` and never run exit handlers.

Span timestamps come from ``time.perf_counter``, which is the system-wide
``CLOCK_MONOTONIC`` on Linux, so spans of different processes share one
time base.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: A span's identity: (pid, per-process sequence number).
SpanKey = Tuple[int, int]


class Tracer:
    """Records nested spans around instrumented functions."""

    def __init__(self, span_dir: os.PathLike):
        self.span_dir = Path(span_dir)
        self.span_dir.mkdir(parents=True, exist_ok=True)
        self._swaps: List[Tuple[object, str, object]] = []
        self._reset()
        # A forked worker starts with an empty stack and buffer: the
        # parent's open spans and unflushed records are not its own.
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self.pid = os.getpid()
        self._stack: List[dict] = []
        self._buffer: List[dict] = []
        self._seq = 0

    # ------------------------------------------------------------------ #

    def instrument(
        self,
        fn: Callable,
        name: str,
        attrs: Optional[Callable[[tuple, dict, object], dict]] = None,
        modules: Optional[Iterable[str]] = None,
    ) -> None:
        """Record a ``name`` span around every call of ``fn``.

        ``attrs(args, kwargs, result)`` adds fields to the span after a
        successful call.  ``modules`` limits the swap to those module
        namespaces (and the classes they define); by default every
        ``repro.*`` module is searched.  Raises ``LookupError`` when no
        reference to ``fn`` is found, so a renamed function cannot
        silently drop its layer.
        """
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    span.update(attrs(args, kwargs, result))
            return result

        swapped = self._swap(fn, wrapper, modules)
        if not swapped:
            raise LookupError(f"no repro namespace references {fn!r}")

    def _swap(self, original, replacement, modules) -> int:
        wanted = None if modules is None else set(modules)
        count = 0
        for modname, module in list(sys.modules.items()):
            if module is None or not (
                modname == "repro" or modname.startswith("repro.")
            ):
                continue
            if wanted is not None and modname not in wanted:
                continue
            owners = [module] + [
                value for value in vars(module).values()
                if isinstance(value, type) and value.__module__ == modname
            ]
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is original:
                        setattr(owner, attr, replacement)
                        self._swaps.append((owner, attr, original))
                        count += 1
        return count

    def uninstall(self) -> None:
        """Restore every swapped reference and stop recording."""
        for owner, attr, original in reversed(self._swaps):
            setattr(owner, attr, original)
        self._swaps.clear()
        self.flush()

    # ------------------------------------------------------------------ #

    @contextlib.contextmanager
    def span(self, name: str):
        """A ``with`` block recorded as a span."""
        span = self._open(name)
        try:
            yield span
        except BaseException:
            span["error"] = True
            raise
        finally:
            self._close(span)

    def _open(self, name: str) -> dict:
        self._seq += 1
        span = {
            "name": name,
            "pid": self.pid,
            "id": self._seq,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "ts": time.perf_counter(),
        }
        self._stack.append(span)
        return span

    def _close(self, span: dict) -> None:
        span["dur"] = time.perf_counter() - span["ts"]
        self._stack.pop()
        self._buffer.append(span)
        if not self._stack:
            self.flush()

    def flush(self) -> None:
        """Append buffered spans to this process's JSONL file."""
        if not self._buffer:
            return
        path = self.span_dir / f"{self.pid}.jsonl"
        with open(path, "a", encoding="utf-8") as stream:
            for span in self._buffer:
                stream.write(json.dumps(span) + "\n")
        self._buffer.clear()


# ---------------------------------------------------------------------- #
# Analysis


def read_spans(span_dir: os.PathLike) -> List[dict]:
    """Every span written under ``span_dir``, in file then record order."""
    spans: List[dict] = []
    for path in sorted(Path(span_dir).glob("*.jsonl")):
        with open(path, encoding="utf-8") as stream:
            spans.extend(json.loads(line) for line in stream if line.strip())
    return spans


def span_key(span: dict) -> SpanKey:
    return span["pid"], span["id"]


def parent_key(span: dict) -> Optional[SpanKey]:
    return None if span["parent"] is None else (span["pid"], span["parent"])


def self_times(spans: List[dict]) -> Dict[SpanKey, float]:
    """Each span's duration minus the durations of its direct children.

    Children are found through the recorded parent id, which only ever
    names a span of the same process: a worker's spans never subtract
    from the parent process span that was waiting on them.
    """
    out = {span_key(span): span["dur"] for span in spans}
    for span in spans:
        parent = parent_key(span)
        if parent in out:
            out[parent] -= span["dur"]
    return out


def ancestors(span: dict, index: Dict[SpanKey, dict]) -> List[str]:
    """Names of the spans enclosing ``span``, innermost first."""
    names = []
    parent = parent_key(span)
    while parent is not None and parent in index:
        node = index[parent]
        names.append(node["name"])
        parent = parent_key(node)
    return names


def chrome_trace(spans: List[dict], root_pid: int) -> dict:
    """Chrome trace-event JSON: one row per process, opens in Perfetto."""
    if not spans:
        return {"traceEvents": []}
    origin = min(span["ts"] for span in spans)
    events = []
    for pid in sorted({span["pid"] for span in spans}):
        label = "benchmark job" if pid == root_pid else f"worker {pid}"
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "tid": pid, "args": {"name": label}})
    for span in spans:
        args = {
            key: value for key, value in span.items()
            if key not in ("name", "pid", "id", "parent", "ts", "dur")
        }
        events.append({
            "name": span["name"],
            "ph": "X",
            "pid": span["pid"],
            "tid": span["pid"],
            "ts": (span["ts"] - origin) * 1e6,
            "dur": span["dur"] * 1e6,
            "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}

