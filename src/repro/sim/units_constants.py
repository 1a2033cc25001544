"""Named unit-conversion constants for the cost model.

Every cross-unit scale factor the cost path multiplies by lives here
under a name that states the conversion, with its dimension declared in
:data:`CONVERSION_UNITS`.  The dimensional analyzer
(``repro.analysis.units``, the UNI rules) treats these names as
unit-changing multipliers — ``power_nw * latency_ns * NW_NS_TO_NJ`` is
provably nanojoules — while a bare ``* 1e-9`` at the same site leaves
the unit unknown.

The constants are exact powers of ten, so hoisting them out of the
arithmetic is bit-identical to the literals they replace.
"""

from __future__ import annotations

#: nW · ns → nJ: 1 nW * 1 ns = 1e-18 J = 1e-9 nJ.
NW_NS_TO_NJ = 1e-9

#: nanoseconds per second; divides into a per-ns rate to give a per-s
#: rate (``NS_PER_S / latency_ns`` = events per second).
NS_PER_S = 1e9

#: Declared dimension of each conversion constant, in the unit grammar
#: of ``repro.analysis.units`` (``*`` composes, ``/`` divides,
#: parentheses group).
CONVERSION_UNITS: dict[str, str] = {
    "NW_NS_TO_NJ": "nJ/(nW*ns)",
    "NS_PER_S": "ns/s",
}
