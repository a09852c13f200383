import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gazedet import autodiff as ad
from gazedet.autodiff import LayerParams, NumericsError, ShapeError, Tensor


def layer_params(w, b):
    return LayerParams(Tensor(w, requires_grad=True), Tensor(b, requires_grad=True))


class TestConv2d:
    def test_identity_1x1_kernel_is_bitwise_identity(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(2, 3, 5, 5)))
        p = layer_params(np.eye(3).reshape(3, 3, 1, 1), np.zeros(3))
        out = ad.conv2d(x, p)
        assert np.array_equal(out.data, x.data)

    def test_ones_kernel_sums_window(self):
        x = Tensor(np.full((1, 1, 4, 4), 2.0))
        p = layer_params(np.ones((1, 1, 3, 3)), np.zeros(1))
        out = ad.conv2d(x, p)
        assert out.data.shape == (1, 1, 2, 2)
        assert np.all(out.data == 18.0)

    def test_strided_padded_shape(self):
        x = Tensor(np.zeros((1, 3, 8, 8)))
        p = layer_params(np.zeros((5, 3, 3, 3)), np.zeros(5))
        assert ad.conv2d(x, p, stride=2, pad=1).data.shape == (1, 5, 4, 4)

    def test_channel_mismatch_names_both_shapes(self):
        x = Tensor(np.zeros((1, 3, 8, 8)))
        p = layer_params(np.zeros((5, 2, 3, 3)), np.zeros(5))
        with pytest.raises(ShapeError, match=r"\(1, 3, 8, 8\).*\(5, 2, 3, 3\)"):
            ad.conv2d(x, p)


class TestRelu:
    def test_all_negative(self):
        assert np.all(ad.relu(Tensor([-1.0, -3.0])).data == 0.0)

    def test_all_positive_is_identity(self):
        x = Tensor([0.5, 2.0])
        assert np.array_equal(ad.relu(x).data, x.data)

    def test_mixed(self):
        assert np.array_equal(ad.relu(Tensor([-1.0, 0.0, 2.5])).data, [0.0, 0.0, 2.5])

    def test_non_positive_inputs_give_unsigned_zero(self):
        x = np.array([-0.0, 0.0, -2.5, 3.0, -0.0, 1e-300, -1e-300])
        out = ad.relu(Tensor(x)).data
        assert not np.signbit(out).any()
        assert out.tobytes() == np.array([0.0, 0.0, 0.0, 3.0, 0.0, 1e-300, 0.0]).tobytes()


class TestMaxpool:
    def test_constant_map(self):
        out = ad.maxpool2d(Tensor(np.full((1, 1, 4, 4), 3.0)), 2, 2)
        assert np.all(out.data == 3.0)

    def test_window_max(self):
        out = ad.maxpool2d(Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]])), 2, 2)
        assert np.array_equal(out.data, [[[[4.0]]]])

    def test_shape(self):
        assert ad.maxpool2d(Tensor(np.zeros((1, 1, 4, 4))), 2, 2).data.shape == (1, 1, 2, 2)

    def test_oversized_window_errors(self):
        with pytest.raises(ShapeError):
            ad.maxpool2d(Tensor(np.zeros((1, 1, 2, 2))), 3, 1)

    @pytest.mark.parametrize("k, stride", [(0, 1), (2, 0), (-1, 2), (2, -1)])
    def test_invalid_window_errors(self, k, stride):
        with pytest.raises(ShapeError, match=re.escape(f"invalid pool window/stride ({k}, {stride})")):
            ad.maxpool2d(Tensor(np.zeros((1, 1, 4, 4))), k, stride)


class TestLinear:
    def test_identity(self):
        x = Tensor(np.random.default_rng(1).normal(size=(4, 3)))
        p = layer_params(np.eye(3), np.zeros(3))
        assert np.array_equal(ad.linear(x, p).data, x.data)

    def test_arithmetic(self):
        p = layer_params(np.array([[1.0, 1.0]]), np.array([0.5]))
        out = ad.linear(Tensor([[2.0, 3.0]]), p)
        assert np.array_equal(out.data, [[5.5]])

    def test_zero_input_gives_bias(self):
        p = layer_params(np.ones((2, 3)), np.array([0.25, -1.0]))
        out = ad.linear(Tensor(np.zeros((4, 3))), p)
        assert np.array_equal(out.data, np.broadcast_to([0.25, -1.0], (4, 2)))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ad.linear(Tensor(np.zeros((2, 3))), layer_params(np.zeros((4, 5)), np.zeros(4)))


class TestSigmoid:
    def test_zero(self):
        assert ad.sigmoid(Tensor([0.0])).data[0] == 0.5

    def test_asymptote(self):
        assert abs(ad.sigmoid(Tensor([50.0])).data[0] - 1.0) < 1e-15

    def test_symmetry(self):
        xs = np.linspace(-5, 5, 11)
        s = ad.sigmoid(Tensor(xs)).data
        s_neg = ad.sigmoid(Tensor(-xs)).data
        assert np.allclose(s, 1.0 - s_neg, atol=1e-15)


class TestCombine:
    def test_mul_absorbing_zero(self):
        a = Tensor([1.0, 2.0])
        out = ad.elementwise_combine(a, Tensor([0.0, 0.0]), "mul")
        assert np.all(out.data == 0.0)

    def test_sum_identity_zero(self):
        a = Tensor([1.5, -2.0])
        out = ad.elementwise_combine(a, Tensor([0.0, 0.0]), "sum")
        assert np.array_equal(out.data, a.data)

    def test_mul_arithmetic(self):
        out = ad.elementwise_combine(Tensor([1.0, 2.0, 3.0]), Tensor([2.0, 0.5, 1.0]), "mul")
        assert np.array_equal(out.data, [2.0, 1.0, 3.0])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ad.elementwise_combine(Tensor([1.0]), Tensor([1.0, 2.0]), "sum")

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=8),
           st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_sum_commutative_associative(self, values, seed):
        rng = np.random.default_rng(seed)
        a = Tensor(np.asarray(values))
        b = Tensor(rng.uniform(-10, 10, size=len(values)))
        c = Tensor(rng.uniform(-10, 10, size=len(values)))
        ab = ad.elementwise_combine(a, b, "sum")
        ba = ad.elementwise_combine(b, a, "sum")
        assert np.allclose(ab.data, ba.data, atol=1e-12)
        left = ad.elementwise_combine(ab, c, "sum").data
        right = ad.elementwise_combine(a, ad.elementwise_combine(b, c, "sum"), "sum").data
        assert np.allclose(left, right, atol=1e-12)

    def test_mul_with_ones_is_identity(self):
        a = Tensor(np.random.default_rng(3).uniform(-10, 10, size=(4, 4)))
        out = ad.elementwise_combine(a, Tensor(np.ones((4, 4))), "mul")
        assert np.array_equal(out.data, a.data)


class TestGradientRule:
    def test_first_gradient_is_a_fresh_unsigned_sum(self):
        t = Tensor(np.zeros(2), requires_grad=True)
        g = np.array([-0.0, 1.0])
        t.accumulate_grad(g)
        assert t.grad.tobytes() == np.array([0.0, 1.0]).tobytes()
        assert not np.signbit(t.grad).any()
        assert not np.shares_memory(t.grad, g)

    def test_later_gradients_add(self):
        t = Tensor(np.zeros(2), requires_grad=True)
        t.accumulate_grad(np.array([-0.0, 1.0]))
        t.accumulate_grad(np.array([2.0, -0.5]))
        assert np.array_equal(t.grad, [2.0, 0.5])

    def test_untracked_input_keeps_no_pair(self):
        x = Tensor(np.ones((2, 3)))
        p = layer_params(np.ones((4, 3)), np.zeros(4))
        out = ad.linear(x, p)
        assert out._parents == (p.weights, p.bias)
        ad.tensor_sum(out).backward()
        assert x.grad is None and p.weights.grad is not None
        out = ad.relu(x)
        assert out._parents == () and out._backward is None


class TestNumerics:
    def test_constructor_rejects_nan(self):
        with pytest.raises(NumericsError):
            Tensor([np.nan])

    def test_bounded_inputs_stay_finite(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.uniform(-10, 10, size=(1, 2, 6, 6)))
        p = layer_params(rng.uniform(-10, 10, size=(3, 2, 3, 3)), rng.uniform(-10, 10, size=3))
        out = ad.sigmoid(ad.relu(ad.conv2d(x, p, pad=1)))
        assert np.all(np.isfinite(out.data))


class TestGradCheck:
    def test_linear_layer(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        p = layer_params(rng.normal(size=(3, 3)), rng.normal(size=3))

        def f(x, w, b):
            return ad.tensor_sum(ad.linear(x, LayerParams(w, b)))

        assert ad.grad_check(f, [x, p.weights, p.bias], eps=1e-5) < 1e-6

    def test_conv_layer(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(1, 1, 5, 5)), requires_grad=True)
        p = layer_params(rng.normal(size=(2, 1, 3, 3)), rng.normal(size=2))

        def f(x, w, b):
            return ad.tensor_sum(ad.conv2d(x, LayerParams(w, b), pad=1))

        assert ad.grad_check(f, [x, p.weights, p.bias], eps=1e-5) < 1e-5

    def test_relu_away_from_kink(self):
        rng = np.random.default_rng(7)
        eps = 1e-5
        mag = rng.uniform(20 * eps, 1.0, size=(4, 4))
        x = Tensor(mag * np.where(rng.random((4, 4)) < 0.5, -1, 1), requires_grad=True)
        assert ad.grad_check(lambda t: ad.tensor_sum(ad.relu(t)), [x], eps=eps) < 1e-6

    def test_non_scalar_output_rejected(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(ShapeError):
            ad.grad_check(lambda t: ad.relu(t), [x])

    def test_eps_bounds(self):
        x = Tensor([1.0], requires_grad=True)
        with pytest.raises(ValueError):
            ad.grad_check(lambda t: ad.tensor_sum(t), [x], eps=1e-2)


class TestSgdStep:
    def _param(self, w):
        return layer_params(np.asarray(w, dtype=float), np.zeros(1))

    def _step(self, p, lr, momentum=0.0):
        """sgd_step of ``p`` as layer "p", with the one velocity dict this test
        owns, zero-filled before its first step as ``train`` does."""
        if not hasattr(self, "velocities"):
            self.velocities = {"p": tuple(np.zeros_like(t.data) for t in p.tensors())}
        ad.sgd_step({"p": p}, self.velocities, lr, momentum)

    def test_zero_lr_keeps_weights(self):
        p = self._param([[1.0]])
        p.weights.grad = np.array([[5.0]])
        p.bias.grad = np.zeros(1)
        self._step(p, lr=0.0, momentum=0.0)
        assert p.weights.data[0, 0] == 1.0

    def test_plain_step_arithmetic(self):
        p = self._param([[1.0]])
        p.weights.grad = np.array([[2.0]])
        p.bias.grad = np.zeros(1)
        self._step(p, lr=0.1, momentum=0.0)
        assert np.isclose(p.weights.data[0, 0], 0.8)

    def test_momentum_recurrence(self):
        # v1 = -0.1, w = 0.9; v2 = 0.9*(-0.1) - 0.1 = -0.19, w = 0.71
        p = self._param([[1.0]])
        for expected in (0.9, 0.71):
            p.weights.grad = np.array([[1.0]])
            p.bias.grad = np.zeros(1)
            self._step(p, lr=0.1, momentum=0.9)
            assert np.isclose(p.weights.data[0, 0], expected)

    def test_missing_grad_treated_as_zero(self):
        p = self._param([[1.0]])
        self._step(p, lr=0.1)  # no grads anywhere: weights unchanged
        assert p.weights.data[0, 0] == 1.0
        # a stale velocity still decays even without a fresh gradient
        p.weights.grad = np.array([[1.0]])
        p.bias.grad = np.zeros(1)
        self._step(p, lr=0.1, momentum=0.5)  # v=-0.1, w=0.9
        self._step(p, lr=0.1, momentum=0.5)  # v=-0.05, w=0.85
        assert np.isclose(p.weights.data[0, 0], 0.85)

    def test_matches_out_of_place_recurrence_bitwise(self):
        rng = np.random.default_rng(3)
        p = layer_params(rng.standard_normal((3, 4)), rng.standard_normal(3))
        ws = [t.data.copy() for t in p.tensors()]
        vs = [np.zeros_like(w) for w in ws]
        for step in range(6):
            # every third (step, tensor) pair has no gradient
            grads = [None if (step + k) % 3 == 0 else rng.standard_normal(w.shape)
                     for k, w in enumerate(ws)]
            for t, g in zip(p.tensors(), grads):
                t.grad = None if g is None else g.copy()
            self._step(p, lr=0.05, momentum=0.9)
            for k, g in enumerate(grads):
                vs[k] = 0.9 * vs[k] - 0.05 * (np.zeros_like(ws[k]) if g is None else g)
                ws[k] = ws[k] + vs[k]
            for w, t in zip(ws, p.tensors()):
                assert np.array_equal(w, t.data)
                assert np.array_equal(np.signbit(w), np.signbit(t.data))
            for v, got in zip(vs, self.velocities["p"]):
                assert np.array_equal(v, got)
                assert np.array_equal(np.signbit(v), np.signbit(got))

    def test_non_finite_update_leaves_weights(self):
        p = self._param([[1.0]])
        p.weights.grad = np.array([[np.inf]])
        with pytest.raises(NumericsError, match="sgd_step update"):
            self._step(p, lr=0.1)
        assert p.weights.data[0, 0] == 1.0

    @pytest.mark.parametrize("part", ["weights", "bias"])
    def test_non_finite_update_names_layer_and_tensor(self, part):
        params = {"conv": layer_params(np.ones((1, 1, 1, 1)), np.zeros(1)),
                  "fc1": layer_params(np.ones((2, 3)), np.zeros(2))}
        velocities = {n: tuple(np.zeros_like(t.data) for t in p.tensors())
                      for n, p in params.items()}
        t = getattr(params["fc1"], part)
        t.grad = np.full(t.data.shape, 1e308)
        with np.errstate(over="ignore"), pytest.raises(NumericsError) as info:
            ad.sgd_step(params, velocities, lr=-1e10)
        assert str(info.value) == f"non-finite values in sgd_step update of layer 'fc1' {part}"

    def test_grads_zeroed_after_step(self):
        p = self._param([[1.0]])
        p.weights.grad = np.array([[1.0]])
        p.bias.grad = np.zeros(1)
        self._step(p, lr=0.1)
        assert p.weights.grad is None and p.bias.grad is None


def conv_reference(x, w, b, g, stride, pad):
    """Output and gradients of a conv2d, one output cell at a time."""
    n, c, h, wid = x.shape
    f, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (wid + 2 * pad - kw) // stride + 1
    y = np.zeros((n, f, ho, wo))
    dxp, dw, db = np.zeros_like(xp), np.zeros_like(w), np.zeros_like(b)
    for ni in range(n):
        for fi in range(f):
            for oi in range(ho):
                for oj in range(wo):
                    rows = slice(oi * stride, oi * stride + kh)
                    cols = slice(oj * stride, oj * stride + kw)
                    window = xp[ni, :, rows, cols]
                    y[ni, fi, oi, oj] = np.sum(window * w[fi]) + b[fi]
                    gc = g[ni, fi, oi, oj]
                    dxp[ni, :, rows, cols] += gc * w[fi]
                    dw[fi] += gc * window
                    db[fi] += gc
    return y, dxp[:, :, pad : pad + h, pad : pad + wid], dw, db


class TestConv2dReference:
    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("pad", [0, 1, 2])
    @pytest.mark.parametrize("k", [1, 3])
    def test_matches_cell_loop(self, n, stride, pad, k):
        self._check(n, stride, pad, k, (7, 5))  # non-square

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("pad", [0, 1, 2])
    @pytest.mark.parametrize("k", [1, 3])
    def test_stride_two_leaves_last_row_and_column(self, n, pad, k):
        """On 8x6, (size + 2p - k) is odd on both axes in every case, so the
        stride-2 sweep never reads the last padded row or column."""
        self._check(n, 2, pad, k, (8, 6))

    @staticmethod
    def _check(n, stride, pad, k, hw):
        rng = np.random.default_rng([n, stride, pad, k])
        x = Tensor(rng.normal(size=(n, 2, *hw)), requires_grad=True)
        p = layer_params(rng.normal(size=(4, 2, k, k)), rng.normal(size=4))
        out = ad.conv2d(x, p, stride=stride, pad=pad)
        g = rng.normal(size=out.data.shape)
        ref_y, ref_dx, ref_dw, ref_db = conv_reference(
            x.data, p.weights.data, p.bias.data, g, stride, pad)
        out._backward(g)
        assert out.data.shape == ref_y.shape
        for got, want in ((out.data, ref_y), (x.grad, ref_dx),
                          (p.weights.grad, ref_dw), (p.bias.grad, ref_db)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def maxpool_reference(x, g, k, stride):
    """Output and gradient of a maxpool, each window's gradient going to
    its first maximum in row-major order."""
    n, c, h, w = x.shape
    ho, wo = (h - k) // stride + 1, (w - k) // stride + 1
    y = np.zeros((n, c, ho, wo))
    dx = np.zeros_like(x)
    for ni in range(n):
        for ci in range(c):
            for oi in range(ho):
                for oj in range(wo):
                    window = x[ni, ci, oi * stride : oi * stride + k, oj * stride : oj * stride + k]
                    first = int(np.argmax(window))  # first maximum, row-major
                    y[ni, ci, oi, oj] = window.flat[first]
                    dx[ni, ci, oi * stride + first // k, oj * stride + first % k] += g[ni, ci, oi, oj]
    return y, dx


class TestMaxpoolReference:
    def run(self, x, k, stride, seed=0):
        t = Tensor(x, requires_grad=True)
        out = ad.maxpool2d(t, k, stride)
        g = np.random.default_rng(seed).normal(size=out.data.shape)
        out._backward(g)
        return out.data, t.grad, g

    def test_ties_route_to_first_max_in_row_major_order(self):
        x = np.array([[[[1.0, 5.0, 2.0, 2.0],
                        [5.0, 5.0, 2.0, 2.0],
                        [0.0, 3.0, 4.0, 1.0],
                        [3.0, 0.0, 4.0, 4.0]]]])
        y, dx, g = self.run(x, 2, 2)
        assert np.array_equal(y, [[[[5.0, 2.0], [3.0, 4.0]]]])
        want = np.zeros_like(x)
        want[0, 0, 0, 1] = g[0, 0, 0, 0]  # (0,1) before (1,0) and (1,1)
        want[0, 0, 0, 2] = g[0, 0, 0, 1]  # all four equal: the top-left one
        want[0, 0, 2, 1] = g[0, 0, 1, 0]  # (0,1) before (1,0)
        want[0, 0, 2, 2] = g[0, 0, 1, 1]  # (0,0) before (1,0) and (1,1)
        assert np.array_equal(dx, want)

    def test_odd_input_drops_last_row_and_column(self):
        x = np.random.default_rng(1).normal(size=(2, 3, 7, 7))
        y, dx, g = self.run(x, 2, 2)
        assert y.shape == (2, 3, 3, 3)
        ref_y, ref_dx = maxpool_reference(x, g, 2, 2)
        assert np.array_equal(y, ref_y) and np.array_equal(dx, ref_dx)
        assert not dx[:, :, 6, :].any() and not dx[:, :, :, 6].any()

    @pytest.mark.parametrize("stride", [1, 2])
    def test_overlapping_windows_match_reference(self, stride):
        # integers in a small range give many ties inside and across windows
        x = np.random.default_rng(stride).integers(0, 4, size=(2, 2, 7, 6)).astype(np.float64)
        y, dx, g = self.run(x, 3, stride, seed=stride)
        ref_y, ref_dx = maxpool_reference(x, g, 3, stride)
        assert np.array_equal(y, ref_y)
        np.testing.assert_allclose(dx, ref_dx, rtol=0, atol=1e-12)


class TestReluAfterPool:
    """relu(maxpool2d(x)) is maxpool2d(relu(x)) bit for bit, and so is the
    gradient each gives x: max commutes with ReLU, the pool routes a window
    with a positive max to the same first tap in both orders, and a window
    whose max is <= 0 gets a zero gradient in both."""

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_bitwise_both_orders(self, data):
        h, w = data.draw(st.integers(2, 7)), data.draw(st.integers(2, 7))
        n, c = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 3))
        # integer grid values: many ties, all-negative windows, both zeros
        grid = st.sampled_from([-3.0, -2.0, -1.0, -0.0, 0.0, 1.0, 2.0])
        x = np.array(data.draw(st.lists(grid, min_size=n * c * h * w, max_size=n * c * h * w)))
        x = x.reshape(n, c, h, w)
        g = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).normal(
            size=(n, c, h // 2, w // 2))

        def run(op):
            t = Tensor(x, requires_grad=True)
            y = op(t)
            ad.tensor_sum(ad.elementwise_combine(y, Tensor(g), "mul")).backward()
            return y.data, t.grad

        y, dx = run(lambda t: ad.relu(ad.maxpool2d(t, 2, 2)))
        ref_y, ref_dx = run(lambda t: ad.maxpool2d(ad.relu(t), 2, 2))
        assert y.tobytes() == ref_y.tobytes()
        assert dx.tobytes() == ref_dx.tobytes()


def small_graph(x, p):
    return ad.tensor_sum(ad.maxpool2d(ad.relu(ad.conv2d(x, p, pad=1)), 2, 2))


class TestNoGrad:
    def setup_method(self):
        rng = np.random.default_rng(8)
        self.x = Tensor(rng.normal(size=(1, 2, 6, 6)), requires_grad=True)
        self.p = layer_params(rng.normal(size=(3, 2, 3, 3)), rng.normal(size=3))

    def grads(self):
        for t in (self.x, *self.p.tensors()):
            t.zero_grad()
        small_graph(self.x, self.p).backward()
        return [t.grad.copy() for t in (self.x, *self.p.tensors())]

    def assert_untracked(self):
        conv = ad.conv2d(self.x, self.p, pad=1)
        for out in (conv, ad.relu(conv), ad.linear(ad.flatten(conv), layer_params(
                np.ones((2, 108)), np.zeros(2))), small_graph(self.x, self.p)):
            assert out.tracked is False and out._backward is None

    def test_ops_build_no_graph_inside(self):
        with ad.no_grad():
            self.assert_untracked()
        assert ad.conv2d(self.x, self.p, pad=1).tracked

    def test_restored_after_exception(self):
        with pytest.raises(RuntimeError, match="boom"):
            with ad.no_grad():
                raise RuntimeError("boom")
        out = ad.conv2d(self.x, self.p, pad=1)
        assert out.tracked and out._backward is not None

    def test_restored_after_nesting(self):
        with ad.no_grad():
            with ad.no_grad():
                self.assert_untracked()
            self.assert_untracked()  # leaving the inner block keeps grads off
        assert ad.conv2d(self.x, self.p, pad=1).tracked

    def test_values_equal_and_gradients_outside_unchanged(self):
        before = self.grads()
        with_graph = small_graph(self.x, self.p).data
        with ad.no_grad():
            assert np.array_equal(small_graph(self.x, self.p).data, with_graph)
        after = self.grads()
        for a, b in zip(before, after):
            assert np.array_equal(a, b)


class TestZeroRowLosses:
    """A loss over zero rows is exactly 0.0 and sends back a zero-size gradient."""

    @pytest.mark.parametrize("shape, loss", [
        ((0, 6), lambda x: ad.softmax_cross_entropy(x, np.zeros(0, dtype=np.int64))),
        ((0, 5, 7, 7), lambda x: ad.bce_with_logits(x, np.zeros((0, 5, 7, 7)))),
        ((0, 4), lambda x: ad.smooth_l1(x, np.zeros((0, 4)))),
    ], ids=["softmax_cross_entropy", "bce_with_logits", "smooth_l1"])
    def test_zero_rows_give_zero_loss_and_empty_grad(self, shape, loss):
        x = Tensor(np.zeros(shape), requires_grad=True)
        out = loss(x)
        assert out.item() == 0.0
        out.backward()
        assert x.grad.shape == shape


class TestScalarShape:
    """A scalar tensor, and every scalar op output, has numpy's 0-d shape ()."""

    def test_constructor_keeps_zero_d(self):
        assert Tensor(2.0).data.shape == ()
        assert Tensor(np.float64(2.0)).shape == ()

    @pytest.mark.parametrize("shape, loss", [
        ((2, 3), ad.tensor_sum),
        ((4, 3), lambda x: ad.softmax_cross_entropy(x, np.array([0, 2, 1, 2]))),
        ((3, 4), lambda x: ad.bce_with_logits(x, np.eye(3, 4))),
        ((3, 4), lambda x: ad.smooth_l1(x, np.full((3, 4), 0.25))),
    ], ids=["tensor_sum", "softmax_cross_entropy", "bce_with_logits", "smooth_l1"])
    def test_scalar_outputs_are_zero_d_and_backward_fills_grads(self, shape, loss):
        x = Tensor(np.random.default_rng(0).uniform(-2.0, 2.0, size=shape), requires_grad=True)
        out = loss(x)
        assert out.data.shape == ()
        out.backward()
        assert out.grad.shape == ()
        assert x.grad.shape == shape and np.abs(x.grad).sum() > 0
