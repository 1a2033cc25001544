"""Zero-dependency structured tracing primitives.

The observability layer has exactly three record kinds:

``span``
    a timed region with a name, monotonic start/duration and nesting
    depth (spans opened inside other spans on the same thread form a
    tree; ``depth`` is the nesting level at open time);
``event``
    a point-in-time occurrence with a name and attributes;
``counter``
    a named numeric sample (a *stream* when emitted repeatedly).

Every record is a plain ``dict`` conforming to schema version
:data:`SCHEMA_VERSION` (see :func:`repro.obs.summary.validate_record`
and ``docs/observability.md``) and is pushed to each attached sink.

Two tracer classes exist:

* :class:`Tracer` — the live implementation, which timestamps spans
  with an injectable monotonic clock and fans records out to sinks;
* :class:`NullTracer` — a no-op whose :attr:`~NullTracer.enabled`
  attribute is ``False``.  Instrumented code guards every
  record-building block with ``if tracer.enabled:`` so the disabled
  path costs one attribute load.

The module-level *ambient* tracer is the one way to attach a tracer:
:func:`use_tracer` installs it for a scope, and each component reads it
(:func:`current_tracer`, or the module global on a hot path) where it
emits, so no constructor takes a tracer argument.  Internal stages that
a component calls hand the tracer it resolved down as an argument.

This package must stay import-independent from ``repro.sim`` and
``repro.core`` — those packages import *us*, never the reverse — and
is listed as a boundary module for the cache-safety analyzer (its
clock and file I/O are exempt from CAC003 the same way
``repro.sim.cache`` is).
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Protocol, Sequence

#: version stamped into every record as ``"v"``; bump on schema change
SCHEMA_VERSION = 1

#: the record kinds the schema admits
RECORD_TYPES = ("span", "event", "counter")


class Sink(Protocol):
    """Destination for trace records (see :mod:`repro.obs.sinks`)."""

    def emit(self, record: dict[str, Any]) -> None: ...

    def flush(self) -> None: ...


class _NullSpan:
    """Context manager returned by :meth:`NullTracer.span`."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    """A live timed region; records itself on ``__exit__``.

    ``start_ns`` is relative to the owning tracer's epoch so traces
    from the same run are directly comparable; ``depth`` is the
    per-thread nesting level at open time.
    """

    __slots__ = ("_tracer", "_name", "_attrs", "_start", "_depth")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict[str, Any]):
        self._tracer = tracer
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> "_Span":
        stack = self._tracer._span_stack()
        self._depth = len(stack)
        stack.append(self)
        self._start = self._tracer._now()
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        end = self._tracer._now()
        self._tracer._span_stack().pop()
        record: dict[str, Any] = {
            "v": SCHEMA_VERSION,
            "type": "span",
            "name": self._name,
            "seq": self._tracer._next_seq(),
            "start_ns": self._start,
            "dur_ns": end - self._start,
            "depth": self._depth,
        }
        if exc_type is not None:
            record["error"] = True
        if self._attrs:
            record["attrs"] = self._attrs
        self._tracer._emit(record)
        return False


class Tracer:
    """Live tracer: builds schema-v1 records and fans them out to sinks.

    ``clock`` must be a monotonic nanosecond clock (defaults to
    :func:`time.perf_counter_ns`); it is injectable so tests can drive
    spans deterministically.  Thread-safe: the sequence counter is an
    atomic :func:`itertools.count` and span stacks are thread-local,
    so spans on different threads nest independently.
    """

    enabled: bool = True

    def __init__(
        self,
        sinks: Sequence[Sink] = (),
        *,
        clock: Callable[[], int] = time.perf_counter_ns,
    ):
        self._sinks: tuple[Sink, ...] = tuple(sinks)
        self._clock = clock
        self._epoch = clock()
        self._seq = itertools.count()
        self._local = threading.local()

    # -- internals ----------------------------------------------------
    def _now(self) -> int:
        return self._clock() - self._epoch

    def _next_seq(self) -> int:
        return next(self._seq)

    def _span_stack(self) -> list[_Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _emit(self, record: dict[str, Any]) -> None:
        for sink in self._sinks:
            sink.emit(record)

    # -- public API ----------------------------------------------------
    @property
    def sinks(self) -> tuple[Sink, ...]:
        return self._sinks

    def span(self, name: str, **attrs: Any) -> _Span:
        """Open a timed region; use as a context manager."""
        return _Span(self, name, attrs)

    def event(self, name: str, **attrs: Any) -> None:
        """Record a point-in-time occurrence."""
        record: dict[str, Any] = {
            "v": SCHEMA_VERSION,
            "type": "event",
            "name": name,
            "seq": self._next_seq(),
        }
        if attrs:
            record["attrs"] = attrs
        self._emit(record)

    def counter(self, name: str, value: float, **attrs: Any) -> None:
        """Record one sample of a named numeric stream."""
        record: dict[str, Any] = {
            "v": SCHEMA_VERSION,
            "type": "counter",
            "name": name,
            "seq": self._next_seq(),
            "value": value,
        }
        if attrs:
            record["attrs"] = attrs
        self._emit(record)

    def flush(self) -> None:
        for sink in self._sinks:
            sink.flush()


class NullTracer(Tracer):
    """No-op tracer; the default everywhere.

    ``enabled`` is set on the instance: CPython 3.11 specialises the
    hot-path guard ``if tracer.enabled:`` for an instance attribute, not
    for a class attribute read through an instance.
    """

    def __init__(self) -> None:  # deliberately no sinks / clock state
        self.enabled = False

    def span(self, name: str, **attrs: Any) -> _NullSpan:  # type: ignore[override]
        return _NULL_SPAN

    def event(self, name: str, **attrs: Any) -> None:
        return None

    def counter(self, name: str, value: float, **attrs: Any) -> None:
        return None

    def flush(self) -> None:
        return None


#: process-wide no-op singleton; safe to share (it has no state)
NULL_TRACER = NullTracer()

#: the ambient tracer — read via :func:`current_tracer`, swapped via
#: :func:`use_tracer`.  Instrumented hot paths read this module global
#: directly, so it must always hold a tracer (never ``None``).
_AMBIENT: Tracer = NULL_TRACER


def current_tracer() -> Tracer:
    """The ambient tracer (``NULL_TRACER`` unless :func:`use_tracer`
    installed one)."""
    return _AMBIENT


@contextmanager
def use_tracer(tracer: Tracer) -> Iterator[Tracer]:
    """Scoped ambient-tracer override::

        with use_tracer(Tracer([sink])) as t:
            simulator.evaluate(net, strategy)   # traced

    Restores the previous ambient tracer on exit, even on error.
    """
    global _AMBIENT
    previous, _AMBIENT = _AMBIENT, tracer
    try:
        yield tracer
    finally:
        _AMBIENT = previous
