"""Run-wide tracing: nested spans, counters, and one-off events.

The paper's efficiency claims are statements about where time goes —
Phase I passes, sorting, per-chunk sweeping, worker spawn/copy/compute/
merge — so the library carries a first-class :class:`Tracer` through its
hot paths instead of ad-hoc timers.  Three record kinds flow to the
configured sinks (:mod:`repro.obs.sinks`):

* :class:`SpanRecord` — a named, nested interval on the monotonic clock
  (``phase:init``, ``sweep:chunk[3]``, ``runtime:compute``, ...);
* :class:`EventRecord` — a point-in-time fact (``sweep:level``,
  ``sweep:jump``);
* :class:`CounterRecord` — a named scalar snapshot, emitted on
  :meth:`Tracer.flush` (``k1``, ``merges``, ``jump_hits``, ...).

Instrumentation sits at *chunk/epoch granularity*, never inside the
per-merge inner loops, so a live tracer costs well under 5% of a sweep
(``benchmarks/bench_obs_overhead.py`` keeps that claim honest) and the
default :data:`NULL_TRACER` costs effectively nothing: its ``span()``
returns one shared no-op context manager and every other method is a
``pass``.

Tracers are not thread-safe by design: all tracing happens in the
parent (driver) process — worker costs enter the trace as synthetic
spans recorded by the runtime via :meth:`Tracer.record`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from types import TracebackType
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Tuple, Type, Union

if TYPE_CHECKING:  # sinks imports the record types from here
    from repro.obs.sinks import Sink

__all__ = [
    "SpanRecord",
    "EventRecord",
    "CounterRecord",
    "TraceRecord",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "as_tracer",
]


@dataclass(frozen=True)
class SpanRecord:
    """One closed span: a named interval nested under ``parent``.

    Times are seconds on the monotonic clock, relative to the tracer's
    construction (``start``); ``seq`` is a global emission order (spans
    are emitted when they *close*, so a parent's ``seq`` is greater than
    its children's).
    """

    name: str
    start: float
    duration: float
    depth: int
    parent: Optional[str]
    seq: int
    attrs: Dict[str, Any] = field(default_factory=dict)

    kind = "span"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "name": self.name,
            "start": round(self.start, 9),
            "duration": round(self.duration, 9),
            "depth": self.depth,
            "parent": self.parent,
            "seq": self.seq,
            "attrs": dict(self.attrs),
        }


@dataclass(frozen=True)
class EventRecord:
    """A point-in-time fact attached to the current span."""

    name: str
    time: float
    depth: int
    parent: Optional[str]
    seq: int
    attrs: Dict[str, Any] = field(default_factory=dict)

    kind = "event"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "name": self.name,
            "time": round(self.time, 9),
            "depth": self.depth,
            "parent": self.parent,
            "seq": self.seq,
            "attrs": dict(self.attrs),
        }


@dataclass(frozen=True)
class CounterRecord:
    """A counter snapshot (emitted by :meth:`Tracer.flush`)."""

    name: str
    value: Union[int, float]
    seq: int

    kind = "counter"

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "name": self.name, "value": self.value, "seq": self.seq}


TraceRecord = Union[SpanRecord, EventRecord, CounterRecord]


class _SpanHandle:
    """Context manager for one open span (returned by :meth:`Tracer.span`)."""

    __slots__ = ("_tracer", "_name", "_attrs", "_start", "_depth", "_parent")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]):
        self._tracer = tracer
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> "_SpanHandle":
        tracer = self._tracer
        self._parent = tracer._stack[-1] if tracer._stack else None
        self._depth = len(tracer._stack)
        tracer._stack.append(self._name)
        self._start = tracer._now()
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        tracer = self._tracer
        duration = tracer._now() - self._start
        tracer._stack.pop()
        if exc_type is not None:
            self._attrs["error"] = exc_type.__name__
        tracer._emit(
            SpanRecord(
                name=self._name,
                start=self._start,
                duration=duration,
                depth=self._depth,
                parent=self._parent,
                seq=tracer._next_seq(),
                attrs=self._attrs,
            )
        )


class Tracer:
    """Collects spans/events/counters and forwards them to sinks.

    Spans nest through a context-manager stack::

        tracer = Tracer([MemorySink()])
        with tracer.span("run"):
            with tracer.span("phase:init"):
                ...
        tracer.flush()

    Counters come in two flavours: :meth:`count` adds (monotonic totals
    such as ``merges``), :meth:`gauge` overwrites (facts such as ``k1``).
    :meth:`record` emits a span with an externally-measured duration —
    how worker-side costs (``runtime:compute`` on the shm arena) appear
    in the parent's trace.
    """

    enabled = True

    def __init__(self, sinks: Iterable["Sink"] = ()):
        self._sinks: List["Sink"] = list(sinks)
        self._clock = time.perf_counter
        self._t0 = self._clock()
        self._seq = 0
        self._stack: List[str] = []
        self.counters: Dict[str, Union[int, float]] = {}
        self._closed = False

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _now(self) -> float:
        return self._clock() - self._t0

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _emit(self, record: TraceRecord) -> None:
        for sink in self._sinks:
            sink.emit(record)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def add_sink(self, sink: "Sink") -> None:
        self._sinks.append(sink)

    @property
    def sinks(self) -> Tuple["Sink", ...]:
        return tuple(self._sinks)

    def span(self, name: str, **attrs: Any) -> _SpanHandle:
        """Open a nested span; closes (and is emitted) on ``__exit__``."""
        return _SpanHandle(self, name, attrs)

    def record(self, name: str, duration: float, **attrs: Any) -> None:
        """Emit a span with an externally-measured ``duration`` (seconds).

        The span is attached under the currently-open span, ending "now"
        — used by the parallel runtimes to surface worker-side costs
        that were timed outside the tracer's own stack.
        """
        end = self._now()
        self._emit(
            SpanRecord(
                name=name,
                start=max(0.0, end - duration),
                duration=duration,
                depth=len(self._stack),
                parent=self._stack[-1] if self._stack else None,
                seq=self._next_seq(),
                attrs=attrs,
            )
        )

    def event(self, name: str, **attrs: Any) -> None:
        """Emit a point-in-time event under the currently-open span."""
        self._emit(
            EventRecord(
                name=name,
                time=self._now(),
                depth=len(self._stack),
                parent=self._stack[-1] if self._stack else None,
                seq=self._next_seq(),
                attrs=attrs,
            )
        )

    def count(self, name: str, n: Union[int, float] = 1) -> None:
        """Add ``n`` to counter ``name`` (cumulative across runs)."""
        self.counters[name] = self.counters.get(name, 0) + n

    def gauge(self, name: str, value: Union[int, float]) -> None:
        """Set counter ``name`` to ``value`` (last write wins)."""
        self.counters[name] = value

    def flush(self) -> None:
        """Emit a counter snapshot and flush every sink.

        Safe to call repeatedly; each call emits the then-current
        snapshot (readers of a JSON-lines trace keep the last value per
        counter name).
        """
        for name in sorted(self.counters):
            self._emit(CounterRecord(name=name, value=self.counters[name], seq=self._next_seq()))
        for sink in self._sinks:
            sink.flush()

    def close(self) -> None:
        """Flush, then close every sink (idempotent: a second call is a
        no-op, so it cannot reopen — and truncate — a JSON-lines file)."""
        if self._closed:
            return
        self._closed = True
        self.flush()
        for sink in self._sinks:
            sink.close()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(sinks={len(self._sinks)}, seq={self._seq})"


class _NullSpanHandle:
    """Shared, reusable no-op span context manager."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpanHandle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


_NULL_SPAN = _NullSpanHandle()


class NullTracer(Tracer):
    """The disabled tracer: every operation is (amortized) free.

    ``span()`` hands back one shared no-op context manager, so an
    instrumented hot loop pays only the call and the (rarely non-empty)
    kwargs dict.  Use the module-level :data:`NULL_TRACER` singleton —
    constructing more is pointless.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__(())

    def span(self, name: str, **attrs: Any) -> _NullSpanHandle:  # type: ignore[override]
        return _NULL_SPAN

    def record(self, name: str, duration: float, **attrs: Any) -> None:
        pass

    def event(self, name: str, **attrs: Any) -> None:
        pass

    def count(self, name: str, n: Union[int, float] = 1) -> None:
        pass

    def gauge(self, name: str, value: Union[int, float]) -> None:
        pass

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


NULL_TRACER = NullTracer()


def as_tracer(tracer: Optional[Tracer]) -> Tracer:
    """Normalize an optional tracer argument (``None`` → no-op)."""
    return tracer if tracer is not None else NULL_TRACER
