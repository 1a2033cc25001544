"""A miniature of the repro package layout that fans out (CON001).

Laid out so :func:`repro.analysis.concurrency.analyze_concurrency` (and
``repro check --concurrency --source <this dir>``) can scan it as if it
were the real package.  CON001 reports the three imports in it that
could start a thread or a process:

* ``sim/simulator.py`` imports ``ProcessPoolExecutor`` and
  ``ThreadPoolExecutor`` from ``concurrent.futures`` on one line (two
  findings);
* ``core/autohet.py`` imports ``ThreadPoolExecutor`` (one finding).

Everything else must stay silent: ``import threading`` and
``threading.Lock()`` (in the simulator's cache and in ``obs/sinks.py``)
start no thread, and calling an executor adds no finding beyond its
import.

The locations are pinned by ``tests/analysis/test_concurrency.py`` and
every fixture file by ``tests/analysis/num_uni_golden.json``, so edits
here keep each code line at its line number.
"""
