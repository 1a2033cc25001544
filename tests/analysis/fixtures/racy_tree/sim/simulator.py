"""Fixture simulator that fans out (CON001).

Its ``concurrent.futures`` import brings in ``ProcessPoolExecutor`` and
``ThreadPoolExecutor``: two CON001 findings on one line, the only ones
in this module.  ``evaluate_many`` and the two process-pool methods use
them, which the one ``Simulator`` per thread contract forbids a library
to do.  ``import threading`` and the cache's ``threading.Lock`` stay
silent: a lock starts no thread.  The counters written outside the
lock are no finding either; CON001 reports fan-out, not the races it
would cause.
"""

import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, replace


class EvaluationCache:
    """LRU stand-in whose entries and hit count sit behind a lock."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries = {}  # written under _lock
        self.hits = 0       # written under _lock
        self.probes = 0     # counted outside the lock

    def get(self, key):
        self.probes += 1    # outside the lock: a race, not a CON001 finding
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self.hits += 1
            return value

    def put(self, key, value):
        with self._lock:
            self._entries[key] = value

    def reset_hits(self) -> None:
        self.hits = 0       # outside the lock: a race, not a CON001 finding


@dataclass
class Simulator:
    cache: EvaluationCache

    def evaluate(self, item: int) -> int:
        cached = self.cache.get(item)
        if cached is not None:
            return cached
        value = item * item
        self.cache.put(item, value)
        return value

    def evaluate_many(self, items, max_workers: int = 4):
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            return list(pool.map(self.evaluate, items))

    def evaluate_many_process(self, items):
        # A process pool, reported at the executor import above.
        with ProcessPoolExecutor() as pool:
            return list(pool.map(_evaluate_one_remote, ((self, i) for i in items)))

    def evaluate_many_process_clean(self, items):
        # Strips the cache first; still a process pool.
        worker = replace(self, cache=None)
        with ProcessPoolExecutor() as pool:
            return list(
                pool.map(_evaluate_one_remote, ((worker, i) for i in items))
            )


def _evaluate_one_remote(args):
    simulator, item = args
    return simulator.evaluate(item)
