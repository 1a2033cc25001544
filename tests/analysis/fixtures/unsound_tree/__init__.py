"""A deliberately-unsound miniature of the repro package layout.

Laid out so :func:`repro.analysis.dataflow.analyze_cache_safety` (and
``repro check --cache-safety --source <this dir>``) can index it as if it
were the real package: the analysis roots resolve to
``sim/simulator.py``'s ``Simulator.evaluate`` / ``try_evaluate``, which
read a field the real fingerprint tables do not cover (CAC001) and
reach a ``random`` sink (CAC003).
"""
