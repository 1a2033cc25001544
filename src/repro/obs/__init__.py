"""``repro.obs`` — structured observability for the AUTOHET repro.

Zero-dependency span/event/counter tracing (:mod:`.trace`), pluggable
sinks (:mod:`.sinks`), paper-grounded metric streams (:mod:`.metrics`),
trace-file validation and rollups (:mod:`.summary`), and the project's
single logging bridge (:mod:`.log`).

The default tracer everywhere is :data:`NULL_TRACER`, a no-op whose
``enabled`` flag lets instrumented code skip record construction with
one attribute check — see ``docs/observability.md`` for the catalogue,
the JSONL schema, and measured overhead.
"""

from .log import configure_cli_logging, get_logger
from .sinks import InMemorySink, JsonlSink, LoggingSink
from .summary import (
    CounterStats,
    SpanStats,
    TraceSummary,
    read_jsonl,
    summarize_jsonl,
    summarize_records,
    validate_record,
)
from .trace import (
    NULL_TRACER,
    RECORD_TYPES,
    SCHEMA_VERSION,
    NullTracer,
    Tracer,
    current_tracer,
    use_tracer,
)

__all__ = [
    "NULL_TRACER",
    "RECORD_TYPES",
    "SCHEMA_VERSION",
    "CounterStats",
    "InMemorySink",
    "JsonlSink",
    "LoggingSink",
    "NullTracer",
    "SpanStats",
    "TraceSummary",
    "Tracer",
    "configure_cli_logging",
    "current_tracer",
    "get_logger",
    "read_jsonl",
    "summarize_jsonl",
    "summarize_records",
    "use_tracer",
    "validate_record",
]
