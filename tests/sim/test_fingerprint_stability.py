"""Process-stable fingerprints and the input-size collision regression.

The original fingerprints were built on :func:`hash`, which (a) varies
with ``PYTHONHASHSEED`` — so process-pool workers and serialized cache
stats were not comparable across runs — and (b) omitted feature-map
geometry (``input_size`` / ``stride`` / ``padding``) and pooling stages,
so two workloads with identical channel structure silently shared cached
metrics.  These tests pin both fixes, the digest values themselves, and
the per-instance memo: a network hashes once, at construction, and
neither that hash nor any memo travels in a pickle.
"""

import dataclasses
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.arch.config import DEFAULT_CANDIDATES, DEFAULT_CONFIG, CrossbarShape
from repro.core.search.annealing import simulated_annealing
from repro.core.search.strategies import greedy_reward_strategy
from repro.models.datasets import DatasetSpec
from repro.models.graph import Network
from repro.models.layers import LayerSpec, LayerType, PoolSpec, Stage
from repro.models.zoo import vgg16
from repro.sim.cache import EvaluationCache, network_fingerprint
from repro.sim.simulator import Simulator

_FINGERPRINT_SNIPPET = """
from repro.arch.config import DEFAULT_CONFIG
from repro.models.zoo import lenet
from repro.sim.cache import config_fingerprint, network_fingerprint
print(config_fingerprint(DEFAULT_CONFIG))
print(network_fingerprint(lenet()))
"""


#: Pickles a VGG16 after one cached evaluation has filled its memo, plus
#: a never-evaluated VGG16 and the config the evaluation fingerprinted.
_PICKLE_SNIPPET = """
import pickle
from repro.arch.config import DEFAULT_CONFIG, CrossbarShape, HardwareConfig
from repro.models.zoo import vgg16
from repro.sim.cache import EvaluationCache
from repro.sim.simulator import Simulator
net = vgg16()
Simulator(cache=EvaluationCache()).evaluate(
    net, [CrossbarShape(64, 64)] * net.num_layers
)
print(pickle.dumps(net).hex())
print(len(pickle.dumps(net)), len(pickle.dumps(vgg16())))
print(len(pickle.dumps(DEFAULT_CONFIG)), len(pickle.dumps(HardwareConfig())))
"""

#: Loads that pickle in another process and checks it against a fresh
#: build: equality, hash, set membership and a shared cache entry.
_UNPICKLE_SNIPPET = """
import pickle, sys
from repro.arch.config import CrossbarShape
from repro.models.zoo import vgg16
from repro.sim.cache import EvaluationCache
from repro.sim.simulator import Simulator
loaded = pickle.loads(bytes.fromhex(sys.stdin.read()))
fresh = vgg16()
sim = Simulator(cache=EvaluationCache())
strategy = [CrossbarShape(64, 64)] * fresh.num_layers
sim.evaluate(fresh, strategy)
sim.evaluate(loaded, strategy)
print(loaded == fresh, hash(loaded) == hash(fresh), loaded in {fresh})
print(sim.cache.stats().hits, len(sim.cache))
"""


def _run_under_seed(seed: str, snippet: str, stdin: str | None = None) -> list[str]:
    result = subprocess.run(
        [sys.executable, "-c", snippet],
        input=stdin,
        capture_output=True,
        text=True,
        env={
            "PYTHONHASHSEED": seed,
            "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1]),
        },
        check=True,
    )
    return result.stdout.split()


def sized_network(image_size: int, name: str = "probe") -> Network:
    """A tiny conv/pool/fc pipeline whose only variable is the input size."""
    dataset = DatasetSpec(
        name="synthetic", image_size=image_size, channels=1, num_classes=10
    )
    fc_in = ((image_size - 4) // 2) ** 2 * 4
    return Network.build(
        name,
        dataset,
        [
            LayerSpec.conv(1, 4, 5),
            PoolSpec(),
            LayerSpec.fc(fc_in, 10),
        ],
    )


class TestProcessStability:
    def test_fingerprints_survive_hash_randomization(self):
        # Same content, different PYTHONHASHSEED, different processes:
        # the blake2b digests must agree where hash() would not — and
        # never move, so serialized keys stay comparable across releases.
        a = _run_under_seed("0", _FINGERPRINT_SNIPPET)
        b = _run_under_seed("12345", _FINGERPRINT_SNIPPET)
        assert a == b == [
            "283341760812732799070070788050498697255",
            "205032546278138791386130391980593604203",
        ]

    def test_pickled_network_carries_no_memo_across_hash_seeds(self):
        payload, *sizes = _run_under_seed("1", _PICKLE_SNIPPET)
        net_size, fresh_net_size, config_size, fresh_config_size = sizes
        # The memo and the construction-time hash (which folds per-process
        # str hashes) stay out of the pickle.
        assert net_size == fresh_net_size
        assert config_size == fresh_config_size
        equal, same_hash, member, hits, entries = _run_under_seed(
            "2", _UNPICKLE_SNIPPET, stdin=payload
        )
        assert (equal, same_hash, member) == ("True", "True", "True")
        assert (hits, entries) == ("1", "1")


def _with_layer_field(net: Network, name: str) -> Network:
    """``net`` with one field of its first CONV (or, for ``layer_type``,
    its first FC) layer changed, bypassing size propagation."""
    kind = LayerType.FC if name == "layer_type" else LayerType.CONV
    pos = next(
        i for i, stage in enumerate(net.stages)
        if stage.layer is not None and stage.layer.layer_type is kind
    )
    layer = net.stages[pos].layer
    if name == "layer_type":
        value = LayerType.CONV
    elif name == "name":
        value = layer.name + "'"
    else:
        value = getattr(layer, name) + 1
    stages = list(net.stages)
    stages[pos] = Stage(layer=dataclasses.replace(layer, **{name: value}))
    return Network(net.name, net.dataset, tuple(stages))


def _with_pool_field(net: Network, name: str) -> Network:
    pos = next(i for i, stage in enumerate(net.stages) if stage.pool is not None)
    pool = net.stages[pos].pool
    stages = list(net.stages)
    stages[pos] = Stage(
        pool=dataclasses.replace(pool, **{name: getattr(pool, name) + 1})
    )
    return Network(net.name, net.dataset, tuple(stages))


class TestCollisionRegression:
    def test_networks_differing_only_in_input_size_have_distinct_keys(self):
        small, large = sized_network(12), sized_network(20)
        assert network_fingerprint(small) != network_fingerprint(large)

    def test_shared_cache_keeps_their_metrics_apart(self):
        # The latent bug this PR's analyzer flagged: with the old
        # channel-structure-only fingerprint these two collide, and the
        # second evaluation silently returns the first one's energy.
        small, large = sized_network(12), sized_network(20)
        sim = Simulator(cache=EvaluationCache())
        shape = CrossbarShape(64, 64)
        m_small = sim.evaluate(small, tuple(shape for _ in small.layers))
        m_large = sim.evaluate(large, tuple(shape for _ in large.layers))
        assert m_small.energy_nj != m_large.energy_nj
        # Both land in the cache as separate entries, and re-evaluation
        # returns each network its own metrics.
        assert len(sim.cache) == 2
        assert sim.evaluate(small, tuple(shape for _ in small.layers)) == m_small

    def test_pooling_stages_are_fingerprinted(self):
        # Second latent collision: pooling energy/latency read the pool
        # stages, so a pooled and an unpooled build must not share keys.
        dataset = DatasetSpec(
            name="synthetic", image_size=12, channels=1, num_classes=10
        )
        pooled = sized_network(12)
        unpooled = Network.build(
            "probe",
            dataset,
            [LayerSpec.conv(1, 4, 5), LayerSpec.fc(8 * 8 * 4, 10)],
        )
        assert network_fingerprint(pooled) != network_fingerprint(unpooled)

    def test_equal_content_shares_fingerprint(self):
        assert network_fingerprint(sized_network(12)) == network_fingerprint(
            sized_network(12)
        )

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(LayerSpec)])
    def test_network_fingerprint_tracks_every_layer_field(self, name):
        # The cases come from LayerSpec itself, not from the fingerprint
        # table under test: a field the key leaves out must be one that
        # cannot change a cold evaluation.
        net = sized_network(12)
        changed = _with_layer_field(net, name)
        if network_fingerprint(changed) != network_fingerprint(net):
            return
        strategy = tuple(CrossbarShape(64, 64) for _ in net.layers)
        cold = Simulator(cache=None)
        assert cold.evaluate(changed, strategy) == cold.evaluate(net, strategy), (
            f"LayerSpec.{name} changes the metrics but not the cache key"
        )

    @pytest.mark.parametrize("name", ["window", "stride"])
    def test_network_fingerprint_tracks_every_pool_field(self, name):
        net = sized_network(12)
        assert network_fingerprint(_with_pool_field(net, name)) != (
            network_fingerprint(net)
        )

    def test_config_fingerprint_tracks_every_field(self):
        fp = EvaluationCache.make_key(
            DEFAULT_CONFIG, sized_network(12), (), tile_shared=True,
            detailed=True, enforce_capacity=True,
        )[0]
        tweaked = DEFAULT_CONFIG.with_(latency_pool_ns=DEFAULT_CONFIG.latency_pool_ns + 1)
        fp2 = EvaluationCache.make_key(
            tweaked, sized_network(12), (), tile_shared=True,
            detailed=True, enforce_capacity=True,
        )[0]
        assert fp != fp2


class TestHashOnce:
    def test_keying_a_built_network_hashes_no_stage_or_layer(self, monkeypatch):
        # The generated dataclass hash re-walks every stage and layer spec
        # on each call; a built network must never pay it again.
        net = vgg16()
        strategy = (CrossbarShape(64, 64),) * net.num_layers
        calls = []
        for cls in (LayerSpec, Stage):
            original = cls.__hash__

            def counted(self, _original=original):
                calls.append(type(self).__name__)
                return _original(self)

            monkeypatch.setattr(cls, "__hash__", counted)
        hash(net)
        network_fingerprint(net)
        EvaluationCache.make_key(
            DEFAULT_CONFIG, net, strategy, tile_shared=True, detailed=True,
            enforce_capacity=True,
        )
        assert calls == []

    def test_warm_search_hashes_no_shape(self, monkeypatch):
        # Cache keys, shape-table gathers and Algorithm 1's grouping key
        # on each shape's "RxC" text, so once the table is warm a search
        # never runs CrossbarShape.__hash__ / __eq__ per layer.
        net = vgg16()
        simulated_annealing(net, DEFAULT_CANDIDATES, Simulator(), rounds=2)
        calls = []
        for name in ("__hash__", "__eq__"):
            original = getattr(CrossbarShape, name)

            def counted(*args, _original=original, _name=name):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(CrossbarShape, name, counted)
        per_run = []
        for rounds in (20, 80):
            calls.clear()
            sim = Simulator()
            greedy_reward_strategy(net, DEFAULT_CANDIDATES, sim)
            simulated_annealing(net, DEFAULT_CANDIDATES, sim, rounds=rounds)
            assert sim.cache_stats().lookups > rounds
            per_run.append(len(calls))
        assert per_run[0] == per_run[1] < net.num_layers
