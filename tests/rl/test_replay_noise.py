"""Tests for the experience pool and exploration noise."""

import numpy as np
import pytest

from repro.core.rl.noise import OrnsteinUhlenbeckNoise, TruncatedNormalNoise
from repro.core.rl.replay import ExperiencePool, Transition


def make_transition(i, reward=1.0, done=False):
    return Transition(
        state=np.full(4, float(i)),
        next_state=np.full(4, float(i + 1)),
        action=i / 10.0,
        reward=reward,
        done=done,
    )


class TestExperiencePool:
    def test_add_and_len(self):
        pool = ExperiencePool(10)
        pool.add(make_transition(0))
        assert len(pool) == 1
        assert not pool.full

    def test_ring_buffer_overwrites_oldest(self):
        pool = ExperiencePool(3)
        pool.extend(make_transition(i) for i in range(5))
        assert len(pool) == 3
        assert pool.full
        # 300 uniform draws over 3 slots see every slot (seeded, so
        # deterministic), and only the three newest transitions remain.
        s, ns, a, _, _ = pool.sample(300)
        assert {int(x) for x in s[:, 0]} == {2, 3, 4}
        # Every field of a sampled row comes from the same transition.
        assert np.array_equal(ns, s + 1.0)
        assert np.array_equal(a[:, 0], s[:, 0] / 10.0)

    def test_sample_shapes(self):
        pool = ExperiencePool(10)
        pool.extend(make_transition(i, done=(i == 4)) for i in range(5))
        s, ns, a, r, d = pool.sample(8)
        assert s.shape == (8, 4)
        assert ns.shape == (8, 4)
        assert a.shape == (8, 1)
        assert r.shape == (8, 1)
        assert d.shape == (8, 1)

    def test_sample_matches_stacked_transitions(self):
        """Same seed -> the values the stack-of-Transitions pool returned.

        The reference keeps the transitions in a list with the same
        overwrite-at-cursor rule, draws the same ``rng.integers`` indices
        and stacks them, as the list-backed pool did.
        """
        capacity, seed = 7, 4
        rng = np.random.default_rng(0)
        transitions = [
            Transition(
                state=rng.normal(size=5),
                next_state=rng.normal(size=5),
                action=float(rng.uniform()),
                reward=float(rng.normal()),
                done=bool(i % 3 == 0),
            )
            for i in range(12)
        ]
        pool = ExperiencePool(capacity, seed=seed)
        ref_rng = np.random.default_rng(seed)
        buffer: list[Transition] = []
        cursor = 0
        for step, t in enumerate(transitions):
            pool.add(t)
            if len(buffer) < capacity:
                buffer.append(t)
            else:
                buffer[cursor] = t
            cursor = (cursor + 1) % capacity
            if step % 4 != 3:
                continue
            idx = ref_rng.integers(0, len(buffer), size=9)
            batch = [buffer[i] for i in idx]
            expected = (
                np.stack([t.state for t in batch]),
                np.stack([t.next_state for t in batch]),
                np.array([[t.action] for t in batch]),
                np.array([[t.reward] for t in batch]),
                np.array([[float(t.done)] for t in batch]),
            )
            got = pool.sample(9)
            shapes = [(9, 5), (9, 5), (9, 1), (9, 1), (9, 1)]
            for g, e, shape in zip(got, expected, shapes):
                assert g.dtype == np.float64
                assert g.shape == shape
                assert np.array_equal(g, e)

    def test_sample_returns_fresh_arrays(self):
        pool = ExperiencePool(4)
        pool.add(make_transition(1))
        s, *_ = pool.sample(2)
        s[:] = -1.0
        assert np.all(pool.sample(2)[0] == 1.0)

    def test_sample_from_empty_raises(self):
        with pytest.raises(ValueError):
            ExperiencePool(4).sample(1)

    def test_sample_rejects_nonpositive_batch(self):
        pool = ExperiencePool(4)
        pool.add(make_transition(0))
        with pytest.raises(ValueError):
            pool.sample(0)

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            ExperiencePool(0)

    def test_sampling_deterministic_by_seed(self):
        a = ExperiencePool(10, seed=3)
        b = ExperiencePool(10, seed=3)
        for pool in (a, b):
            pool.extend(make_transition(i) for i in range(10))
        sa = a.sample(5)
        sb = b.sample(5)
        assert np.array_equal(sa[0], sb[0])

    def test_done_flag_roundtrip(self):
        pool = ExperiencePool(2)
        pool.add(make_transition(0, done=True))
        _, _, _, _, d = pool.sample(4)
        assert np.all(d == 1.0)


class TestTruncatedNormalNoise:
    def test_stays_in_bounds(self):
        noise = TruncatedNormalNoise(sigma=2.0, seed=0)
        for _ in range(200):
            assert 0.0 <= noise.perturb(0.5) <= 1.0

    def test_decay(self):
        noise = TruncatedNormalNoise(sigma=1.0, decay=0.5)
        noise.end_episode()
        noise.end_episode()
        assert noise.sigma == pytest.approx(0.25)

    def test_zero_sigma_is_identity(self):
        noise = TruncatedNormalNoise(sigma=0.0)
        assert noise.perturb(0.3) == pytest.approx(0.3)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            TruncatedNormalNoise(sigma=-1.0)
        with pytest.raises(ValueError):
            TruncatedNormalNoise(decay=0.0)

    def test_deterministic_by_seed(self):
        a = TruncatedNormalNoise(seed=5)
        b = TruncatedNormalNoise(seed=5)
        assert a.perturb(0.5) == b.perturb(0.5)


class TestOUNoise:
    def test_stays_in_bounds(self):
        noise = OrnsteinUhlenbeckNoise(sigma=1.0, seed=0)
        for _ in range(200):
            assert 0.0 <= noise.perturb(0.5) <= 1.0

    def test_reset_returns_to_mean(self):
        noise = OrnsteinUhlenbeckNoise(sigma=1.0, seed=0)
        for _ in range(10):
            noise.perturb(0.5)
        noise.reset()
        assert noise._x == noise.mu

    def test_temporal_correlation(self):
        """Successive OU samples are correlated, unlike white noise."""
        noise = OrnsteinUhlenbeckNoise(sigma=0.3, theta=0.05, seed=1)
        xs = []
        for _ in range(500):
            noise.perturb(0.0)
            xs.append(noise._x)
        xs = np.array(xs)
        corr = np.corrcoef(xs[:-1], xs[1:])[0, 1]
        assert corr > 0.5
