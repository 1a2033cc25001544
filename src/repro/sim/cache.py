"""Evaluation caching for the behavioral simulator (the §4.5 hot path).

The paper measures ~97% of AutoHet's search time waiting on simulator
feedback, and every search strategy in this repo — DDPG, annealing,
coordinate ascent, random, exhaustive — revisits whole strategies and
per-layer shapes constantly.  Since :meth:`Simulator.evaluate
<repro.sim.simulator.Simulator.evaluate>` is pure and deterministic, its
results can be memoised outright:

* :class:`EvaluationCache` — a bounded, single-thread LRU over full
  ``(config, network, strategy, tile_shared, detailed)`` evaluations,
  with hit / miss / eviction counters.  Infeasible strategies (those that
  raise :class:`~repro.sim.simulator.CapacityError`) are cached too, as
  their :class:`~repro.sim.kernels.InfeasibleScore` verdict, so a search
  random-walking near a capacity cliff does not re-pay the failed
  allocation every round.
* process-stable content fingerprints for :class:`HardwareConfig` and
  :class:`Network` (blake2b over a canonical field tuple), so cache keys
  survive object identity churn *and* stay comparable once serialized —
  across interpreter runs and processes, regardless of
  ``PYTHONHASHSEED``.

The fingerprint coverage is a checked contract, not a convention:
:data:`FINGERPRINTED_FIELDS` declares exactly which fields each key
component folds in, and ``repro check --cache-safety``
(:func:`repro.analysis.dataflow.analyze_cache_safety`) statically proves
that the evaluation reads nothing outside it.  Extend the fingerprints
and the table together — the analyzer fails the build when they drift.

See ``docs/performance.md`` for the keying rules and usage guidance.
"""

from __future__ import annotations

from _thread import get_ident
from collections import OrderedDict
from dataclasses import dataclass, fields
from enum import Enum
from hashlib import blake2b
from typing import Callable, Hashable, Mapping, TypeVar

from ..arch.config import CrossbarShape, HardwareConfig
from ..models.graph import Network

#: A cache key: every component pre-reduced to a compact hashable value.
CacheKey = Hashable

_T = TypeVar("_T")

#: Most values one instance's memo holds; a full memo is emptied first.
_MEMO_BOUND = 64


def _memo(owner: object, key: Hashable, build: Callable[[], _T]) -> _T:
    """``owner``'s memoised value for ``key``; ``build()`` on a miss.

    The one per-instance memo of the simulator's hot paths: a dict in
    ``owner.__dict__``, so a lookup never hashes ``owner``.  Contract:

    * a value is a pure function of ``owner``'s fingerprinted fields
      (:data:`FINGERPRINTED_FIELDS`) and ``key``, so it never goes stale;
    * it is never pickled: the owners that are pickled (``Network``,
      ``HardwareConfig``) reduce to their fields;
    * it is bounded: a memo holding :data:`_MEMO_BOUND` values is emptied
      before the next insert (only per-config keys grow that far).

    Two threads missing one key both build equal values; the lost write
    is benign.
    """
    memo: dict[Hashable, object] | None = owner.__dict__.get("_memo")
    if memo is None:
        memo = {}
        object.__setattr__(owner, "_memo", memo)
    try:
        return memo[key]  # type: ignore[return-value]
    except KeyError:
        pass
    value = build()
    if len(memo) >= _MEMO_BOUND:
        memo.clear()
    memo[key] = value
    return value

# ----------------------------------------------------------------------
# Fingerprint coverage contract
# ----------------------------------------------------------------------

#: Every :class:`HardwareConfig` field participates in the key — the
#: evaluation reads essentially all of them (energy/latency/area tables,
#: bit widths, tile geometry), so the fingerprint folds the whole record.
_CONFIG_FIELDS: tuple[str, ...] = tuple(f.name for f in fields(HardwareConfig))

#: Mapping-relevant identity of one layer.  Derived properties
#: (``kernel_elems``, ``weight_count``, ``mvm_ops``, ``output_size``) are
#: pure functions of these, so folding the base fields covers them.
_LAYER_FIELDS: tuple[str, ...] = (
    "index",
    "layer_type",
    "in_channels",
    "out_channels",
    "kernel_size",
    "stride",
    "padding",
    "input_size",
)

#: class simple name -> fields folded into the cache key.  This is the
#: machine-checked half of the keying contract: ``repro check
#: --cache-safety`` extracts the attribute read-set of the memoized
#: evaluation and fails on any read outside these tables.
FINGERPRINTED_FIELDS: Mapping[str, tuple[str, ...]] = {
    "HardwareConfig": _CONFIG_FIELDS,
    "LayerSpec": _LAYER_FIELDS,
    "PoolSpec": ("window", "stride"),
    "Stage": ("layer", "pool"),
    "Network": ("name", "stages"),
    "CrossbarShape": ("rows", "cols"),
    "Simulator": ("config", "enforce_capacity"),
}

#: Fields the evaluation reads that are declared *result-invariant*:
#: they change how a result is computed (which memo, which cache), never
#: what it is — the memoize/reference parity tests are the evidence.
RESULT_INVARIANT_FIELDS: Mapping[str, tuple[str, ...]] = {
    # ``memoize_costs`` selects the NumPy kernel path over the
    # materialised reference, which is bit-identical
    # (``tests/sim/test_vectorized_parity.py``).  ``scoring_base`` holds
    # the strategy scored last, so a neighbour recomputes only the layers
    # that differ from it; scoring in any order gives the same bits
    # (``tests/sim/test_vectorized_parity.py``,
    # ``TestScoringOrderIndependence``).
    "Simulator": ("cache", "memoize_costs", "scoring_base"),
    # ``_hash`` / ``_str`` are ``__post_init__`` stashes derived purely
    # from ``rows`` and ``cols``, which *are* fingerprinted — two shapes
    # with equal fingerprints carry equal stashes by construction.
    "CrossbarShape": ("_hash", "_str"),
    # Likewise ``_layers`` is the weight layers of ``stages``, stashed in
    # ``Network.__post_init__``; ``stages`` is fingerprinted.
    "Network": ("_layers",),
}


def _canonical(value: object) -> object:
    """Reduce a field value to a deterministic, repr-stable form."""
    if isinstance(value, Enum):
        return (type(value).__name__, value.name)
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return value
    if isinstance(value, (tuple, list)):
        return tuple(_canonical(item) for item in value)
    raise TypeError(
        f"cannot canonicalise {type(value).__name__!r} for fingerprinting"
    )


def _stable_digest(payload: object) -> int:
    """blake2b digest of a canonical tuple, independent of PYTHONHASHSEED."""
    encoded = repr(_canonical(payload)).encode("utf-8")
    return int.from_bytes(blake2b(encoded, digest_size=16).digest(), "big")


def config_fingerprint(config: HardwareConfig) -> int:
    """Stable content fingerprint of a hardware configuration.

    Two configs with equal fields share a fingerprint even when they are
    distinct objects (e.g. round-tripped through JSON), and the digest is
    identical across processes and interpreter runs.
    """
    return _memo(config, "fingerprint", lambda: _stable_digest(
        tuple(getattr(config, name) for name in _CONFIG_FIELDS)
    ))


def network_fingerprint(network: Network) -> int:
    """Stable content fingerprint of a network's search-relevant identity.

    Folds the name plus every *stage* — each layer's full mapping- and
    cost-relevant spec (:data:`FINGERPRINTED_FIELDS`'s ``LayerSpec`` row,
    including ``input_size`` / ``stride`` / ``padding``) and each pooling
    stage's window geometry.  Two structurally identical builds of the
    same model share a fingerprint; two models differing only in
    feature-map size do not.
    """
    return _memo(network, "fingerprint", lambda: _network_digest(network))


def _network_digest(network: Network) -> int:
    entries: list[tuple[object, ...]] = []
    for stage in network.stages:
        if stage.layer is not None:
            entries.append(
                ("L",)
                + tuple(getattr(stage.layer, name) for name in _LAYER_FIELDS)
            )
        if stage.pool is not None:
            entries.append(("P", stage.pool.window, stage.pool.stride))
    return _stable_digest((network.name, tuple(entries)))


@dataclass(frozen=True)
class CacheStats:
    """A point-in-time snapshot of one cache's counters."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    size: int = 0
    max_size: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits over lookups; 0.0 before the first lookup."""
        return self.hits / self.lookups if self.lookups else 0.0

    def summary(self) -> str:
        return (
            f"cache: {self.hits} hits / {self.lookups} lookups "
            f"({self.hit_rate:.1%}), {self.size}/{self.max_size} entries, "
            f"{self.evictions} evictions"
        )


class EvaluationCache:
    """Bounded LRU cache over pure simulator evaluations.

    **One thread.**  The cache belongs to the first thread that calls
    :meth:`get` or :meth:`put`; either call from any other thread raises
    :class:`RuntimeError`.  A thread that evaluates alongside another
    builds its own :class:`Simulator <repro.sim.simulator.Simulator>`
    (and with it its own cache).  Values
    are immutable (:class:`~repro.sim.metrics.SystemMetrics` is frozen),
    so cached objects are shared, never copied.

    That a key covers every input of the evaluation is proven statically
    (``repro check --cache-safety``) and checked at run time by the
    cached-vs-cold parity tests (``tests/sim/test_cache.py``).
    """

    def __init__(self, max_size: int = 100_000) -> None:
        if max_size <= 0:
            raise ValueError("max_size must be positive")
        self.max_size = max_size
        self._entries: OrderedDict[CacheKey, object] = OrderedDict()
        #: ident of the thread that first called get() or put()
        self._owner: int | None = None
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # ------------------------------------------------------------------
    @staticmethod
    def make_key(
        config: HardwareConfig,
        network: Network,
        strategy: tuple[CrossbarShape, ...],
        *,
        tile_shared: bool,
        detailed: bool,
        enforce_capacity: bool,
    ) -> CacheKey:
        """The canonical key of one evaluation.

        Everything :meth:`Simulator.evaluate` reads goes in: the config
        and network content fingerprints, the per-layer shapes, and the
        flags that change the result (``tile_shared``, ``detailed``) or
        the feasibility verdict (``enforce_capacity``).  The shapes go in
        as one string, their ``"RxC"`` texts joined by commas: a string
        caches its own hash and compares in C, so every later cache
        operation on the key touches no shape.  The join is injective,
        since ``"RxC"`` never contains a comma.
        """
        return (
            config_fingerprint(config),
            network_fingerprint(network),
            ",".join([shape._str for shape in strategy]),
            tile_shared,
            detailed,
            enforce_capacity,
        )

    # ------------------------------------------------------------------
    def _check_owner(self) -> None:
        """Adopt the calling thread as owner, or raise if another owns us.

        Runs only when the caller is not the recorded owner, so the hot
        path pays one ``get_ident()`` and one compare.
        """
        ident = get_ident()
        if self._owner is None:
            self._owner = ident
        elif ident != self._owner:
            raise RuntimeError(
                f"EvaluationCache is owned by thread {self._owner} and was "
                f"used from thread {ident}; give each thread its own "
                "Simulator (one Simulator per thread)"
            )

    def get(self, key: CacheKey) -> object | None:
        """The cached value, or ``None`` on a miss (counts either way)."""
        if get_ident() != self._owner:
            self._check_owner()
        try:
            value = self._entries[key]
        except KeyError:
            self._misses += 1
            return None
        self._entries.move_to_end(key)
        self._hits += 1
        return value

    def put(self, key: CacheKey, value: object) -> None:
        """Insert (or refresh) an entry, evicting the LRU tail if full."""
        if get_ident() != self._owner:
            self._check_owner()
        if key in self._entries:
            self._entries.move_to_end(key)
            self._entries[key] = value
            return
        if len(self._entries) >= self.max_size:
            self._entries.popitem(last=False)
            self._evictions += 1
        self._entries[key] = value

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: CacheKey) -> bool:
        return key in self._entries

    def clear(self) -> None:
        """Drop all entries and reset the counters."""
        self._entries.clear()
        self._hits = self._misses = self._evictions = 0

    def stats(self) -> CacheStats:
        return CacheStats(
            hits=self._hits,
            misses=self._misses,
            evictions=self._evictions,
            size=len(self._entries),
            max_size=self.max_size,
        )
