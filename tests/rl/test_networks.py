"""MLP + Adam tests, including finite-difference gradient verification."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.rl.networks import MLP, Adam


def finite_diff_grads(net, x, upstream, eps=1e-6):
    """Numerical gradients of sum(upstream * net(x)) wrt all parameters."""
    def loss():
        return float(np.sum(upstream * net.forward(x)))

    grads = []
    for p in net.parameters():
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + eps
            hi = loss()
            p[idx] = orig - eps
            lo = loss()
            p[idx] = orig
            g[idx] = (hi - lo) / (2 * eps)
            it.iternext()
        grads.append(g)
    return np.concatenate([g.ravel() for g in grads])


def analytic_grads(net, x, upstream):
    """``net.grads`` after one forward/backward pair on ``x``."""
    net.forward(x)
    net.backward(upstream)
    return net.grads.copy()


class TestForward:
    def test_output_shape(self):
        net = MLP.create([4, 8, 2])
        out = net.forward(np.zeros((5, 4)))
        assert out.shape == (5, 2)

    def test_1d_input_promoted(self):
        net = MLP.create([4, 8, 2])
        assert net.forward(np.zeros(4)).shape == (1, 2)

    def test_sigmoid_output_bounded(self):
        net = MLP.create([3, 8, 1], output_activation="sigmoid")
        out = net.forward(np.random.default_rng(0).normal(size=(20, 3)))
        assert np.all((out > 0) & (out < 1))

    def test_rejects_too_few_sizes(self):
        with pytest.raises(ValueError):
            MLP.create([4])

    def test_unknown_activation_raises(self):
        net = MLP.create([2, 2], output_activation="softplus")
        with pytest.raises(ValueError):
            net.forward(np.zeros((1, 2)))

    def test_deterministic_init_by_rng(self):
        a = MLP.create([4, 8, 1], rng=np.random.default_rng(3))
        b = MLP.create([4, 8, 1], rng=np.random.default_rng(3))
        assert all(np.array_equal(x, y) for x, y in zip(a.parameters(), b.parameters()))


class TestBackward:
    @pytest.mark.parametrize(
        "hidden_act,out_act",
        [("relu", "linear"), ("tanh", "sigmoid"), ("relu", "tanh")],
    )
    def test_gradients_match_finite_differences(self, hidden_act, out_act):
        rng = np.random.default_rng(1)
        net = MLP.create(
            [3, 6, 2],
            hidden_activation=hidden_act,
            output_activation=out_act,
            rng=rng,
        )
        x = rng.normal(size=(4, 3))
        upstream = rng.normal(size=(4, 2))
        analytic = analytic_grads(net, x, upstream)
        numeric = finite_diff_grads(net, x, upstream)
        assert np.allclose(analytic, numeric, atol=1e-4), (
            f"{hidden_act}/{out_act} gradient mismatch"
        )

    def test_input_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        net = MLP.create([3, 5, 1], hidden_activation="tanh", rng=rng)
        x = rng.normal(size=(2, 3))
        upstream = np.ones((2, 1))
        net.forward(x)
        dx = net.backward(upstream)
        eps = 1e-6
        for i in range(2):
            for j in range(3):
                xp = x.copy(); xp[i, j] += eps
                xm = x.copy(); xm[i, j] -= eps
                num = (net.forward(xp).sum() - net.forward(xm).sum()) / (2 * eps)
                assert dx[i, j] == pytest.approx(num, abs=1e-4)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_gradient_property_random_nets(self, seed):
        rng = np.random.default_rng(seed)
        net = MLP.create([2, 4, 1], hidden_activation="tanh", rng=rng)
        x = rng.normal(size=(3, 2))
        upstream = rng.normal(size=(3, 1))
        analytic = analytic_grads(net, x, upstream)
        numeric = finite_diff_grads(net, x, upstream)
        assert np.allclose(analytic, numeric, atol=1e-4)

    def test_backward_uses_the_last_forward(self):
        rng = np.random.default_rng(4)
        net = MLP.create([3, 5, 2], rng=rng)
        x1, x2 = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        upstream = rng.normal(size=(4, 2))
        expected = analytic_grads(net, x2, upstream)
        net.forward(x1)
        net.forward(x2)
        net.backward(upstream)
        assert np.array_equal(net.grads, expected)

    def test_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            MLP.create([2, 3, 1]).backward(np.ones((1, 1)))

    def test_backward_rejects_mismatched_upstream(self):
        net = MLP.create([2, 3, 1])
        net.forward(np.zeros((4, 2)))
        with pytest.raises(ValueError):
            net.backward(np.ones((3, 1)))

    def test_backward_leaves_upstream_untouched(self):
        rng = np.random.default_rng(5)
        net = MLP.create([3, 4, 2], output_activation="tanh", rng=rng)
        upstream = rng.normal(size=(6, 2))
        before = upstream.copy()
        net.forward(rng.normal(size=(6, 3)))
        net.backward(upstream)
        assert np.array_equal(upstream, before)


class TestFlatBuffers:
    def test_parameters_are_views_of_the_flat_buffer(self):
        net = MLP.create([3, 5, 2], rng=np.random.default_rng(0))
        flat = np.concatenate([p.ravel() for p in net.parameters()])
        assert np.array_equal(net.params, flat)
        net.weights[1][0, 0] = 42.0
        assert 42.0 in net.params
        assert all(np.shares_memory(p, net.params) for p in net.parameters())

    def test_rejects_wrong_sized_buffer(self):
        with pytest.raises(ValueError):
            MLP([3, 2], params=np.zeros(5))

    def test_forward_matches_per_layer_formula(self):
        rng = np.random.default_rng(1)
        net = MLP.create([3, 5, 4, 1], hidden_activation="tanh", rng=rng)
        x = rng.normal(size=(7, 3))
        a = x
        for i, (w, b) in enumerate(zip(net.weights, net.biases)):
            z = a @ w + b
            a = z if i == net.num_layers - 1 else np.tanh(z)
        assert np.array_equal(net.forward(x), a)


def reference_soft_update(mine, theirs, tau):
    """Per-array Polyak update: the formula the flat buffer must reproduce."""
    for m, t in zip(mine, theirs):
        m *= 1.0 - tau
        m += tau * t


class TestTargets:
    def test_clone_is_deep(self):
        net = MLP.create([2, 3, 1])
        clone = net.clone()
        clone.weights[0][0, 0] += 1.0
        assert net.weights[0][0, 0] != clone.weights[0][0, 0]

    def test_soft_update_matches_per_array_formula_bit_for_bit(self):
        a = MLP.create([4, 8, 8, 1], rng=np.random.default_rng(0))
        b = MLP.create([4, 8, 8, 1], rng=np.random.default_rng(1))
        expected = [p.copy() for p in b.parameters()]
        for tau in (0.01, 0.3, 0.01):
            reference_soft_update(expected, a.parameters(), tau)
            b.soft_update_from(a, tau)
        assert all(np.array_equal(x, y) for x, y in zip(b.parameters(), expected))

    def test_soft_update_interpolates(self):
        a = MLP.create([2, 2], rng=np.random.default_rng(0))
        b = MLP.create([2, 2], rng=np.random.default_rng(1))
        before = b.weights[0].copy()
        b.soft_update_from(a, 0.5)
        assert np.allclose(b.weights[0], 0.5 * a.weights[0] + 0.5 * before)

    def test_copy_from_is_full_update(self):
        a = MLP.create([2, 2], rng=np.random.default_rng(0))
        b = MLP.create([2, 2], rng=np.random.default_rng(1))
        b.copy_from(a)
        assert np.array_equal(a.weights[0], b.weights[0])

    def test_copy_from_overwrites_non_finite_target(self):
        """A target holding inf/nan becomes an exact copy, not nan."""
        a = MLP.create([2, 3, 1], rng=np.random.default_rng(0))
        b = MLP.create([2, 3, 1], rng=np.random.default_rng(1))
        b.params[:] = np.inf
        b.params[::3] = np.nan
        b.copy_from(a)
        assert np.array_equal(b.params, a.params)

    def test_copy_from_copies_non_finite_source(self):
        a = MLP.create([2, 3, 1], rng=np.random.default_rng(0))
        a.params[0], a.params[1] = np.inf, np.nan
        b = MLP.create([2, 3, 1], rng=np.random.default_rng(1))
        b.copy_from(a)
        assert np.array_equal(b.params, a.params, equal_nan=True)
        assert not np.shares_memory(a.params, b.params)


class TestAdam:
    def test_descends_quadratic(self):
        p = np.array([5.0])
        opt = Adam(p, lr=0.1)
        for _ in range(300):
            opt.step(2 * p)  # d/dx x^2
        assert abs(p[0]) < 0.05

    def test_matches_per_array_formula_bit_for_bit(self):
        """The flat in-place step reproduces the textbook per-array step."""
        rng = np.random.default_rng(2)
        net = MLP.create([4, 8, 8, 1], rng=rng)
        params = [p.copy() for p in net.parameters()]
        m = [np.zeros_like(p) for p in params]
        v = [np.zeros_like(p) for p in params]
        opt = Adam(net.params, lr=3e-3)
        for t in range(1, 30):
            grads = [rng.normal(size=p.shape) for p in params]
            bc1, bc2 = 1.0 - 0.9**t, 1.0 - 0.999**t
            for p, g, m_k, v_k in zip(params, grads, m, v):
                m_k *= 0.9
                m_k += (1.0 - 0.9) * g
                v_k *= 0.999
                v_k += (1.0 - 0.999) * (g * g)
                p -= 3e-3 * (m_k / bc1) / (np.sqrt(v_k / bc2) + 1e-8)
            opt.step(np.concatenate([g.ravel() for g in grads]))
        assert all(np.array_equal(x, y) for x, y in zip(net.parameters(), params))

    def test_trains_mlp_on_regression(self):
        rng = np.random.default_rng(0)
        net = MLP.create([1, 16, 1], hidden_activation="tanh", rng=rng)
        opt = Adam(net.params, lr=1e-2)
        x = rng.uniform(-1, 1, size=(64, 1))
        y = x**2
        first_loss = None
        for _ in range(400):
            pred = net.forward(x)
            err = pred - y
            loss = float(np.mean(err**2))
            if first_loss is None:
                first_loss = loss
            net.backward(2 * err / err.shape[0])
            opt.step(net.grads)
        assert loss < first_loss * 0.1

    def test_rejects_mismatched_grads(self):
        opt = Adam(np.zeros(2))
        with pytest.raises(ValueError):
            opt.step(np.zeros(3))
