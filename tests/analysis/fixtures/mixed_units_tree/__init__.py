"""Fixture tree for the dimensional-analysis pass (UNI rules).

Laid out like the ``repro`` package (``sim/``, ``obs/``) so
``analyze_units(root=...)`` scans it with the same module paths.  UNI001
and UNI005 each have exactly one positive trigger here, each next to a
negative twin showing the clean spelling of the same computation.
"""
