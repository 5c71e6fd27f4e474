import weakref

import numpy as np
import pytest

from oracles import absolute
from seedcast import tensor as T
from seedcast.errors import InputError, NumericError, ShapeError


def triple_loop_matmul(a, b):
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for t in range(k):
                out[i, j] += a[i, t] * b[t, j]
    return out


class TestMatmul:
    def test_identity(self):
        out = T.matmul(T.Tensor(np.eye(2)), T.Tensor([[5.0, 6.0], [7.0, 8.0]]))
        assert np.array_equal(out.data, [[5.0, 6.0], [7.0, 8.0]])

    def test_row_times_column(self):
        out = T.matmul(T.Tensor([[1.0, 2.0]]), T.Tensor([[3.0], [4.0]]))
        assert np.array_equal(out.data, [[11.0]])

    def test_against_triple_loop(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        out = T.matmul(T.Tensor(a), T.Tensor(b))
        assert np.allclose(out.data, triple_loop_matmul(a, b), atol=1e-12)

    def test_batched_broadcast(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(5, 3, 4))
        b = rng.normal(size=(4, 2))
        out = T.matmul(T.Tensor(a), T.Tensor(b))
        for i in range(5):
            assert np.allclose(out.data[i], triple_loop_matmul(a[i], b), atol=1e-12)

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            T.matmul(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((2, 3))))

    def test_batch_mismatch(self):
        with pytest.raises(ShapeError):
            T.matmul(T.Tensor(np.zeros((2, 3, 4))), T.Tensor(np.zeros((5, 4, 2))))


class TestSoftmax:
    def test_symmetry(self):
        out = T.softmax(T.Tensor([0.0, 0.0]))
        assert np.allclose(out.data, [0.5, 0.5], atol=1e-15)

    def test_stability_under_shift(self):
        out = T.softmax(T.Tensor([1000.0, 1000.0]))
        assert np.allclose(out.data, [0.5, 0.5], atol=1e-15)
        assert np.all(np.isfinite(out.data))

    def test_matches_exp_normalize_oracle(self):
        x = np.array([1.0, 2.0, 3.0])
        expected = np.exp(x) / np.exp(x).sum()
        out = T.softmax(T.Tensor(x))
        assert np.allclose(out.data, expected, atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        out = T.softmax(T.Tensor(rng.normal(size=(4, 7))), axis=-1)
        assert np.allclose(out.data.sum(axis=-1), 1.0, atol=1e-12)
        assert np.all(out.data >= 0)


class TestGradCheck:
    def test_sum_of_squares(self):
        x = T.Tensor([1.0, 2.0])
        err = T.grad_check(lambda t: T.tsum(t * t), x)
        assert err < 1e-7
        leaf = T.Tensor(x.data, requires_grad=True)
        T.tsum(leaf * leaf).backward()
        assert np.allclose(leaf.grad, [2.0, 4.0], atol=1e-12)

    def test_non_finite_output_raises(self):
        def f(t):
            return T.tsum(T.log(t))

        with np.errstate(all="ignore"):
            for x in ([-1.0, 2.0],   # NaN at the point itself
                      [0.0, 2.0]):   # -inf at the point, NaN under perturbation
                with pytest.raises(NumericError):
                    T.grad_check(f, T.Tensor(x))
            x = T.Tensor([1e-6, 2.0], requires_grad=True)  # finite, NaN at x - eps
            with pytest.raises(NumericError, match="perturbation"):
                T.grad_check_many(lambda: f(x), [x], eps=1e-5)

    def test_tanh(self):
        rng = np.random.default_rng(3)
        err = T.grad_check(lambda t: T.tsum(T.tanh(t)), T.Tensor(rng.normal(size=(3, 4))), eps=1e-5)
        assert err < 1e-6

    @pytest.mark.parametrize("op", [
        lambda t: T.tsum(T.exp(t)),
        lambda t: T.tsum(T.sigmoid(t)),
        lambda t: T.tsum(T.silu(t)),
        lambda t: T.tsum(T.sqrt(absolute(t) + 1.0)),
        lambda t: T.tsum(T.log(absolute(t) + 0.5)),
        lambda t: T.tmean(t * t * t),
        lambda t: T.tsum(T.softmax(t, -1) * T.softmax(t, 0)),
        lambda t: T.tsum(t.reshape((6, 2)) ** 2.0),
        lambda t: T.tsum(T.swapaxes(t, 0, 1) * 3.0),
        lambda t: T.tsum(T.maximum(t, 0.3) * 0.5),
        lambda t: T.tsum(T.xlogx(T.sigmoid(t))),
    ])
    def test_registered_ops(self, op):
        rng = np.random.default_rng(4)
        x = T.Tensor(rng.normal(size=(3, 4)))
        assert T.grad_check(op, x, eps=1e-5) < 1e-6

    def test_swapaxes_negative_axes(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(2, 3, 4, 5))
        for i, j in [(-1, -2), (-3, -2), (-4, -3), (0, -1), (-2, -2)]:
            assert np.array_equal(T.swapaxes(T.Tensor(x), i, j).data, np.swapaxes(x, i, j))
        w = T.Tensor(rng.normal(size=(2, 5, 4, 3)))  # uneven weights: a wrong swap shows
        assert T.grad_check(lambda t: T.tsum(T.swapaxes(t, -3, -1) * w), T.Tensor(x)) < 1e-6

    def test_slicing_concat_stack(self):
        rng = np.random.default_rng(5)
        w = T.Tensor(rng.normal(size=(2, 4, 5)))

        def f(t):
            z = T.concat([t[:2], t[2:]], axis=0)
            z = T.stack([z, z * 2.0], axis=0)
            return T.tsum(z.reshape((2, 4, 5)) * w)

        assert T.grad_check(f, T.Tensor(rng.normal(size=(4, 5))), eps=1e-5) < 1e-6

    def test_fanout_accumulates(self):
        x = T.Tensor([3.0], requires_grad=True)
        y = x * 2.0 + x * 5.0  # two uses of x
        T.tsum(y).backward()
        assert np.allclose(x.grad, [7.0])

    def test_deep_composition(self):
        rng = np.random.default_rng(6)
        w1 = T.Tensor(rng.normal(size=(4, 8)) * 0.5)
        w2 = T.Tensor(rng.normal(size=(8, 3)) * 0.5)

        def f(t):
            h = T.tanh(T.matmul(t, w1))
            h = T.silu(T.matmul(h, w2))
            return T.tsum(h * h)

        assert T.grad_check(f, T.Tensor(rng.normal(size=(5, 4))), eps=1e-5) < 1e-4


class TestDftOp:
    def test_matches_fft_module(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(3, 16))
        re, im = T.dft_real(T.Tensor(x))
        ref = np.fft.fft(x, axis=-1)
        assert np.allclose(re.data, ref.real, atol=1e-10)
        assert np.allclose(im.data, ref.imag, atol=1e-10)

    def test_gradient(self):
        rng = np.random.default_rng(8)
        wr = T.Tensor(rng.normal(size=6))
        wi = T.Tensor(rng.normal(size=6))

        def f(t):
            re, im = T.dft_real(t)
            return T.tsum(re * wr) + T.tsum(im * wi) + T.tsum(re * re + im * im)

        assert T.grad_check(f, T.Tensor(rng.normal(size=6)), eps=1e-6) < 1e-6

    def test_gradient_batched_at_lookback(self):
        rng = np.random.default_rng(9)
        shape = (2, 3, 96)
        wr = T.Tensor(rng.normal(size=shape))
        wi = T.Tensor(rng.normal(size=shape))

        def f(t):
            re, im = T.dft_real(t)
            # Power scaled by 1/L (Parseval) keeps the output, and so the
            # finite-difference roundoff, at the size of sum(x^2).
            power = T.tsum(re * re + im * im) * (1.0 / shape[-1])
            return T.tsum(re * wr) + T.tsum(im * wi) + power

        assert T.grad_check(f, T.Tensor(rng.normal(size=shape)), eps=1e-6) < 1e-6


class TestNoGrad:
    def test_no_tape_inside(self):
        x = T.Tensor([1.0, 2.0], requires_grad=True)
        with T.no_grad():
            y = x * 3.0
        assert y._backward is None and not y.requires_grad

    def test_detach_blocks_gradient(self):
        x = T.Tensor([2.0], requires_grad=True)
        y = x.detach() * 5.0 + x
        T.tsum(y).backward()
        assert np.allclose(x.grad, [1.0])

    def test_grad_enabled_follows_no_grad(self):
        assert T.grad_enabled()
        with T.no_grad():
            assert not T.grad_enabled()
            with T.no_grad():
                assert not T.grad_enabled()
            assert not T.grad_enabled()
        assert T.grad_enabled()

    def test_forward_does_no_backward_only_work(self, monkeypatch):
        x = T.Tensor(np.random.default_rng(7).uniform(-1.0, 1.0, size=(3, 4)), requires_grad=True)
        logs = []
        log = np.log

        def counted_log(a):
            logs.append(1)
            return log(a)

        def no_sign(a):
            raise AssertionError("sign is backward-only")

        monkeypatch.setattr(np, "log", counted_log)
        monkeypatch.setattr(np, "sign", no_sign)
        with T.no_grad():
            assert np.array_equal(absolute(x).data, np.abs(x.data))
            T.xlogx(absolute(x))
        assert len(logs) == 1
        T.tsum(T.xlogx(x)).backward()  # the tape's backward reuses the forward's log
        assert len(logs) == 2


class TestRelease:
    """``backward()`` frees the graph it walked; leaves keep their gradients."""

    def test_interior_node_freed_once_caller_drops_it(self):
        x = T.Tensor(np.arange(4.0), requires_grad=True)
        h = x * 2.0
        loss = T.tsum(h * h)
        loss.backward()
        ref = weakref.ref(h.data)  # Tensor has __slots__ and no __weakref__
        del h
        assert ref() is None  # the live ``loss`` no longer reaches it
        assert np.array_equal(x.grad, 8.0 * np.arange(4.0))

    def test_second_backward_raises(self):
        x = T.Tensor(np.arange(3.0), requires_grad=True)
        h = T.exp(x)
        loss = T.tsum(h)
        loss.backward()
        with pytest.raises(InputError, match="released"):
            loss.backward()
        with pytest.raises(InputError, match="released"):
            T.tsum(h * 3.0).backward()  # a second loss through the released h

    def test_parameter_shared_by_two_graphs(self):
        rng = np.random.default_rng(10)
        wv, a, b = rng.normal(size=(3, 5))
        w = T.Tensor(wv, requires_grad=True)
        T.tsum(w * a).backward()
        assert np.array_equal(w.grad, a)
        w.zero_grad()
        T.tsum(w * w * b).backward()
        assert np.allclose(w.grad, 2.0 * wv * b, rtol=0, atol=1e-15)
        # Both graphs built before either backward: the leaf accumulates.
        w.zero_grad()
        first, second = T.tsum(w * a), T.tsum(w * w * b)
        first.backward()
        second.backward()
        assert np.allclose(w.grad, a + 2.0 * wv * b, rtol=0, atol=1e-15)


BINARY_OPS = {
    "add": T.add, "sub": T.sub, "mul": T.mul, "div": T.div, "maximum": T.maximum,
    "matmul": T.matmul,
}


class TestConstantOperands:
    @pytest.mark.parametrize("name", sorted(BINARY_OPS))
    @pytest.mark.parametrize("shapes", [((2, 3, 3), (3, 3)), ((2, 3, 3), (1, 3, 3))])
    def test_only_the_kept_gradient_is_built(self, name, shapes):
        op = BINARY_OPS[name]
        rng = np.random.default_rng(8)
        xa, ca = rng.normal(size=shapes[0]), rng.uniform(0.5, 2.0, size=shapes[1])
        g = rng.normal(size=shapes[0])  # every pairing here yields this shape

        def grads(x_first, constant_needs_grad):
            x, c = T.Tensor(xa, requires_grad=True), T.Tensor(ca, requires_grad=constant_needs_grad)
            if x_first:
                return op(x, c)._backward(g)
            return op(c, x)._backward(g)[::-1]  # (grad of x, grad of c)

        for x_first in (True, False):
            gx, gc = grads(x_first, False)
            assert gc is None
            assert np.array_equal(gx, grads(x_first, True)[0])


class TestBroadcasting:
    def test_trailing_bias_broadcast(self):
        rng = np.random.default_rng(9)
        b = T.Tensor(rng.normal(size=5), requires_grad=True)
        x = T.Tensor(rng.normal(size=(3, 5)))
        T.tsum((x + b) * 2.0).backward()
        assert b.grad.shape == (5,)
        assert np.allclose(b.grad, np.full(5, 6.0))

    def test_incompatible_raises(self):
        with pytest.raises(ShapeError):
            T.Tensor(np.zeros((2, 3))) + T.Tensor(np.zeros((2, 4)))
