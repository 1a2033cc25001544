"""Fixture trace sink with a lock: no CON001 finding.

``import threading`` and ``threading.Lock()`` are legal under the one
``Simulator`` per thread contract (the real trace sinks guard their
state the same way for callers that trace from several threads), so
this module must stay silent.  ``drop_all`` clears the records without
the lock; CON001 does not report that either.
"""

import threading


class RecordSink:
    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records = []  # written under _lock
        self.emitted = 0    # written under _lock

    def emit(self, record) -> None:
        with self._lock:
            self._records.append(record)
            self.emitted += 1

    def drop_all(self) -> None:
        self._records.clear()  # without the lock

    def _append_locked(self, record) -> None:  # the caller holds _lock
        self._records.append(record)

    def snapshot(self):
        with self._lock:
            return list(self._records)
