"""MLP + Adam tests, including finite-difference gradient verification."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.rl.networks import (
    MLP,
    Adam,
    clip_ufunc,
    joint_networks,
    mean_array,
    mean_floats,
    unit_clip,
)


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


def float64_net(sizes, *, rng, **activations):
    """``MLP.create``'s network, rebuilt over a float64 params buffer.

    The learner is float32, but a central difference with ``eps=1e-6``
    needs float64 to resolve; a network's dtype follows its buffer.
    """
    net = MLP.create(sizes, rng=rng, **activations)
    return MLP(
        net.sizes,
        net.hidden_activation,
        net.output_activation,
        net.params.astype(np.float64),
    )


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
        net = float64_net(
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
        net = float64_net([3, 5, 1], hidden_activation="tanh", rng=rng)
        x = rng.normal(size=(2, 3))
        upstream = np.ones((2, 1))
        net.forward(x)
        dx = net.input_grad(upstream)
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
        net = float64_net([2, 4, 1], hidden_activation="tanh", rng=rng)
        x = rng.normal(size=(3, 2))
        upstream = rng.normal(size=(3, 1))
        analytic = analytic_grads(net, x, upstream)
        numeric = finite_diff_grads(net, x, upstream)
        assert np.allclose(analytic, numeric, atol=1e-4)

    def test_reverse_passes_match_per_layer_formula(self):
        """Both reverse passes give the bits of the per-layer ``@`` chain."""
        rng = np.random.default_rng(9)
        net = MLP.create([11, 64, 64, 1], rng=rng)
        x = rng.normal(size=(64, 11)).astype(np.float32)
        upstream = rng.normal(size=(64, 1)).astype(np.float32)
        activations = [x]
        for i, (w, b) in enumerate(zip(net.weights, net.biases)):
            z = activations[-1] @ w + b
            activations.append(z if i == net.num_layers - 1 else np.maximum(z, 0.0))
        grads, delta = [], upstream
        for i in range(net.num_layers - 1, -1, -1):
            if i < net.num_layers - 1:
                delta = delta * (activations[i + 1] > 0.0)
            grads.append((activations[i].T @ delta, np.add.reduce(delta, axis=0)))
            delta = delta @ net.weights[i].T
        grads.reverse()
        net.forward(x)
        assert np.array_equal(net.input_grad(upstream), delta)
        net.backward(upstream)
        for (gw, gb), w_view, b_view in zip(grads, net._grad_w, net._grad_b):
            assert np.array_equal(w_view, gw) and np.array_equal(b_view, gb)

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

    def test_backward_returns_none(self):
        net = MLP.create([3, 4, 2], rng=np.random.default_rng(6))
        net.forward(np.ones((2, 3)))
        assert net.backward(np.ones((2, 2))) is None

    @pytest.mark.parametrize("out_act", ["linear", "tanh"])
    def test_input_grad_leaves_grads_untouched(self, out_act):
        rng = np.random.default_rng(7)
        net = MLP.create([3, 4, 4, 2], output_activation=out_act, rng=rng)
        net.grads[:] = rng.normal(size=net.grads.shape)
        before = net.grads.copy()
        net.forward(rng.normal(size=(5, 3)))
        net.input_grad(rng.normal(size=(5, 2)))
        assert np.array_equal(net.grads, before)

    def test_backward_and_input_grad_share_one_forward(self):
        """One forward serves both passes, in either order, bit for bit."""
        rng = np.random.default_rng(8)
        net = MLP.create([3, 6, 1], hidden_activation="tanh", rng=rng)
        x, upstream = rng.normal(size=(4, 3)), rng.normal(size=(4, 1))
        net.forward(x)
        dx = net.input_grad(upstream)
        net.backward(upstream)
        grads = net.grads.copy()
        net.forward(x)
        net.backward(upstream)
        assert np.array_equal(net.grads, grads)
        assert np.array_equal(net.input_grad(upstream), dx)

    def test_input_grad_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            MLP.create([2, 3, 1]).input_grad(np.ones((1, 1)))

    def test_input_grad_rejects_mismatched_upstream(self):
        net = MLP.create([2, 3, 1])
        net.forward(np.zeros((4, 2)))
        with pytest.raises(ValueError):
            net.input_grad(np.ones((3, 1)))

    def test_backward_leaves_upstream_untouched(self):
        rng = np.random.default_rng(5)
        net = MLP.create([3, 4, 2], output_activation="tanh", rng=rng)
        upstream = rng.normal(size=(6, 2))
        before = upstream.copy()
        net.forward(rng.normal(size=(6, 3)))
        net.backward(upstream)
        assert np.array_equal(upstream, before)

    def test_input_grad_leaves_upstream_untouched(self):
        rng = np.random.default_rng(5)
        net = MLP.create([3, 4, 2], output_activation="tanh", rng=rng)
        upstream = rng.normal(size=(6, 2))
        before = upstream.copy()
        net.forward(rng.normal(size=(6, 3)))
        net.input_grad(upstream)
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
        x = rng.normal(size=(7, 3)).astype(np.float32)
        a = x
        for i, (w, b) in enumerate(zip(net.weights, net.biases)):
            z = a @ w + b
            a = z if i == net.num_layers - 1 else np.tanh(z)
        assert a.dtype == np.float32
        assert np.array_equal(net.forward(x), a)


class TestDtype:
    def test_create_builds_float32(self):
        net = MLP.create([3, 5, 1])
        for buffer in (net.params, net.grads, net._scratch, *net.parameters()):
            assert buffer.dtype == np.float32

    def test_network_follows_its_params_buffer(self):
        net = MLP([3, 5, 1], params=np.zeros(26))
        assert net.params.dtype == net.grads.dtype == np.float64
        assert net._scratch.dtype == np.float64
        net.forward(np.ones((2, 3)))
        net.backward(np.ones((2, 1)))
        assert net.grads.dtype == np.float64

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_adam_follows_its_params_buffer(self, dtype):
        opt = Adam(np.zeros(4, dtype=dtype))
        for buffer in (opt._m, opt._v, opt._step, opt._denom):
            assert buffer.dtype == dtype


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
        """The flat in-place float32 step reproduces the per-array step.

        The reference is Kingma & Ba's form, with both bias corrections in
        one step size, and the flush of moments below the smallest normal
        float32.  Some gradient entries are tiny or zero, so the flush
        acts during the run.
        """
        rng = np.random.default_rng(2)
        net = MLP.create([4, 8, 8, 1], rng=rng)
        params = [p.copy() for p in net.parameters()]
        m = [np.zeros_like(p) for p in params]
        v = [np.zeros_like(p) for p in params]
        tiny = np.finfo(np.float32).tiny
        opt = Adam(net.params, lr=3e-3)
        for t in range(1, 30):
            grads = [rng.normal(size=p.shape).astype(np.float32) for p in params]
            grads[0][0] = 1e-20
            grads[1][0, :] = 0.0
            alpha = 3e-3 * math.sqrt(1.0 - 0.999**t) / (1.0 - 0.9**t)
            for p, g, m_k, v_k in zip(params, grads, m, v):
                m_k *= 0.9
                m_k += (1.0 - 0.9) * g
                v_k *= 0.999
                v_k += (1.0 - 0.999) * g * g
                m_k *= np.abs(m_k) >= tiny
                v_k *= v_k >= tiny
                p -= alpha * m_k / (np.sqrt(v_k) + 1e-8)
            opt.step(np.concatenate([g.ravel() for g in grads]))
        assert all(p.dtype == np.float32 for p in params)
        assert all(np.array_equal(x, y) for x, y in zip(net.parameters(), params))
        assert np.array_equal(opt._m, np.concatenate([m_k.ravel() for m_k in m]))
        assert np.array_equal(opt._v, np.concatenate([v_k.ravel() for v_k in v]))

    @staticmethod
    def flushing_run(sizes):
        """1500 steps with some gradients zero and some near 1e-20; a joint
        buffer steps its first segment alone first, as the pipelined
        learner does."""
        rng = np.random.default_rng(3)
        params = rng.normal(size=200).astype(np.float32)
        opt = Adam(params, sizes=sizes)
        zero_later = np.arange(200) % 3 == 0
        tiny_grad = np.arange(200) % 3 == 1
        for t in range(1500):
            grad = rng.normal(size=200).astype(np.float32)
            grad[tiny_grad] *= np.float32(1e-20)
            if t >= 5:
                grad[zero_later] = 0.0
            if sizes is not None and t == 0:
                opt.step(grad, 0, 1)
            else:
                opt.step(grad)
        return opt, zero_later

    def test_no_moment_turns_subnormal(self):
        """Moments of zero or tiny gradients are flushed, not left subnormal.

        A first moment whose gradient drops to zero decays by beta1 a step
        and enters the float32 subnormal range after about 700 steps; a
        second moment of a gradient near 1e-20 is subnormal from its first
        increment.  Subnormal arithmetic is many times slower.  A joint
        buffer of two segments flushes the same way.
        """
        tiny = np.finfo(np.float32).tiny
        for sizes in (None, (120, 80)):
            opt, zero_later = self.flushing_run(sizes)
            for moment in (opt._m, opt._v):
                subnormal = (moment != 0.0) & (np.abs(moment) < tiny)
                assert not subnormal.any(), f"{sizes}: {subnormal.sum()} subnormal entries"
            assert np.all(opt._m[zero_later] == 0.0)

    def test_joint_segments_match_separate_optimisers(self):
        """[critic | actor] in one buffer, stepped together one step apart
        with distinct rates, gives two separate Adams' bits, moments too."""
        rng = np.random.default_rng(4)
        critic = MLP.create([11, 16, 16, 1], rng=rng)
        actor = MLP.create([10, 16, 16, 1], rng=rng)
        lrs = (2e-3, 3e-4)
        separate = [
            Adam(critic.params.copy(), lr=lrs[0]),
            Adam(actor.params.copy(), lr=lrs[1]),
        ]
        params, grads, _ = joint_networks([critic, actor])
        joint = Adam(params, lr=lrs, sizes=(critic.params.size, actor.params.size))
        n_critic = critic.params.size

        def step(first, stop):
            grads[:] = rng.normal(size=grads.shape).astype(np.float32)
            grads[::7] = 0.0
            grads[1::7] *= np.float32(1e-20)
            for k in range(first, stop):
                seg = slice(0, n_critic) if k == 0 else slice(n_critic, None)
                separate[k].step(grads[seg].copy())
            joint.step(grads, first, stop)

        step(0, 1)  # the lone critic step
        for _ in range(40):
            step(0, 2)  # critic step k + 1 beside actor step k
        step(1, 2)  # the lone actor step
        assert joint.t == [41, 41]
        assert [opt.t for opt in separate] == [[41], [41]]
        expected = np.concatenate([opt.params for opt in separate])
        assert params.tobytes() == expected.tobytes()
        for name in ("_m", "_v"):
            moments = np.concatenate([getattr(opt, name) for opt in separate])
            assert getattr(joint, name).tobytes() == moments.tobytes()

    def test_rejects_segments_that_do_not_split_the_buffer(self):
        with pytest.raises(ValueError):
            Adam(np.zeros(5), sizes=(2, 2))
        with pytest.raises(ValueError):
            Adam(np.zeros(4), lr=(1e-3,), sizes=(2, 2))
        with pytest.raises(ValueError):
            Adam(np.zeros(4), sizes=(2, 2)).step(np.zeros(4), 1, 1)

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


# ----------------------------------------------------------------------
# The learner's stand-ins for NumPy wrappers give the wrapper's bits.
# ----------------------------------------------------------------------

#: the values where a reordered reduction or a min/max rewrite would
#: show: both zeros, NaN of either sign, both infinities, the extremes
SPECIAL = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, 1.7e308, -1.7e308]
any_float = st.one_of(st.sampled_from(SPECIAL), st.floats(width=64))
#: the same for float32, the learner's dtype
SPECIAL32 = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1e-45, 3.4e38, -3.4e38]
any_float32 = st.one_of(st.sampled_from(SPECIAL32), st.floats(width=32))
ANY_FLOAT = {np.float32: any_float32, np.float64: any_float}
# The learner's batch columns and its single-row act path.
LEARNER_SHAPES = [(64, 1), (1, 1)]
DTYPES = [np.float32, np.float64]


def float_bits(value):
    return np.float64(value).tobytes()


def learner_arrays(shape, dtype):
    return hnp.arrays(dtype, shape, elements=ANY_FLOAT[dtype])


class TestBitIdenticalStandIns:
    @pytest.mark.parametrize("shape", LEARNER_SHAPES)
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_mean_array_is_np_mean(self, shape, data):
        x = data.draw(learner_arrays(shape, data.draw(st.sampled_from(DTYPES))))
        with np.errstate(all="ignore"):
            assert float_bits(mean_array(x)) == float_bits(np.mean(x))

    @pytest.mark.parametrize("shape", LEARNER_SHAPES)
    def test_mean_array_of_negative_zeros_is_np_mean(self, shape):
        for dtype in DTYPES:
            x = np.full(shape, -0.0, dtype=dtype)
            assert float_bits(mean_array(x)) == float_bits(np.mean(x))

    @settings(max_examples=500, deadline=None)
    @given(values=st.lists(any_float, min_size=1, max_size=2))
    def test_mean_floats_is_np_mean(self, values):
        with np.errstate(all="ignore"):
            assert float_bits(mean_floats(values)) == float_bits(np.mean(values))

    @pytest.mark.parametrize(
        "values", [[-0.0], [-0.0, -0.0], [-0.0, 0.0], [np.nan, -np.nan], [np.inf, -np.inf]]
    )
    def test_mean_floats_on_special_lists(self, values):
        with np.errstate(all="ignore"):
            assert float_bits(mean_floats(values)) == float_bits(np.mean(values))

    @settings(max_examples=500, deadline=None)
    @given(a=any_float)
    def test_unit_clip_is_np_clip(self, a):
        expected = float_bits(np.clip(a, 0.0, 1.0))
        assert float_bits(unit_clip(a)) == expected
        assert float_bits(unit_clip(np.float64(a))) == expected

    @settings(max_examples=500, deadline=None)
    @given(a=any_float32)
    def test_unit_clip_is_np_clip_on_float32(self, a):
        # act() clips the actor's np.float32 output.
        a = np.float32(a)
        assert float_bits(unit_clip(a)) == float_bits(np.clip(a, 0.0, 1.0))

    @pytest.mark.parametrize("a", SPECIAL)
    def test_unit_clip_on_special_values(self, a):
        assert float_bits(unit_clip(a)) == float_bits(np.clip(a, 0.0, 1.0))

    @pytest.mark.parametrize("shape", LEARNER_SHAPES)
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_clip_ufunc_is_np_clip_on_arrays(self, shape, data):
        dtype = data.draw(st.sampled_from(DTYPES))
        x = data.draw(learner_arrays(shape, dtype))
        lo, hi = data.draw(ANY_FLOAT[dtype]), data.draw(ANY_FLOAT[dtype])
        assert clip_ufunc(x, lo, hi).tobytes() == np.clip(x, lo, hi).tobytes()
        # The actor step clips into a column of a wider buffer.
        mine = np.zeros((shape[0], 3), dtype=dtype)
        theirs = np.zeros((shape[0], 3), dtype=dtype)
        clip_ufunc(x, lo, hi, out=mine[:, -1:])
        np.clip(x, lo, hi, out=theirs[:, -1:])
        assert mine.tobytes() == theirs.tobytes()

    @settings(max_examples=500, deadline=None)
    @given(a=any_float, lo=any_float, hi=any_float)
    def test_clip_ufunc_is_np_clip_on_scalars(self, a, lo, hi):
        assert float_bits(clip_ufunc(a, lo, hi)) == float_bits(np.clip(a, lo, hi))

    def test_clip_ufunc_is_the_ufunc_np_clip_dispatches_to(self):
        seen = []

        class Spy(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                seen.append(ufunc)
                inputs = tuple(np.asarray(x) for x in inputs)
                return getattr(ufunc, method)(*inputs, **kwargs)

        np.clip(np.linspace(-1.0, 2.0, 4).view(Spy), 0.0, 1.0)
        assert seen == [clip_ufunc]
        assert isinstance(clip_ufunc, np.ufunc)
