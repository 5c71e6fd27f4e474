import inspect
import weakref

import numpy as np
import pytest

from oracles import absolute, matmul, maximum, silu, softmax, stack, tanh
from seedcast import attention as A
from seedcast import graph as G
from seedcast import model as M
from seedcast import tensor as T
from seedcast.errors import InputError, NumericError, ShapeError
from tests_helpers import (attention_params, build_graph, detach, grad_check, grad_check_many,
                           graph_weights, weights_graph)


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
        out = matmul(T.Tensor(np.eye(2)), T.Tensor([[5.0, 6.0], [7.0, 8.0]]))
        assert np.array_equal(out.data, [[5.0, 6.0], [7.0, 8.0]])

    def test_row_times_column(self):
        out = matmul(T.Tensor([[1.0, 2.0]]), T.Tensor([[3.0], [4.0]]))
        assert np.array_equal(out.data, [[11.0]])

    def test_against_triple_loop(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        out = matmul(T.Tensor(a), T.Tensor(b))
        assert np.allclose(out.data, triple_loop_matmul(a, b), atol=1e-12)

    def test_batched_broadcast(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(5, 3, 4))
        b = rng.normal(size=(4, 2))
        out = matmul(T.Tensor(a), T.Tensor(b))
        for i in range(5):
            assert np.allclose(out.data[i], triple_loop_matmul(a[i], b), atol=1e-12)

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            matmul(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((2, 3))))

    def test_batch_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(T.Tensor(np.zeros((2, 3, 4))), T.Tensor(np.zeros((5, 4, 2))))


class TestSoftmax:
    def test_symmetry(self):
        out = softmax(T.Tensor([0.0, 0.0]))
        assert np.allclose(out.data, [0.5, 0.5], atol=1e-15)

    def test_stability_under_shift(self):
        out = softmax(T.Tensor([1000.0, 1000.0]))
        assert np.allclose(out.data, [0.5, 0.5], atol=1e-15)
        assert np.all(np.isfinite(out.data))

    def test_matches_exp_normalize_oracle(self):
        x = np.array([1.0, 2.0, 3.0])
        expected = np.exp(x) / np.exp(x).sum()
        out = softmax(T.Tensor(x))
        assert np.allclose(out.data, expected, atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        out = softmax(T.Tensor(rng.normal(size=(4, 7))), axis=-1)
        assert np.allclose(out.data.sum(axis=-1), 1.0, atol=1e-12)
        assert np.all(out.data >= 0)

    @pytest.mark.parametrize("shape, axis", [((7,), 0), ((5, 6), -1), ((3, 4, 6), 0),
                                             ((2, 3, 42), -1), ((4, 1), -1), ((4, 6), 1)])
    def test_running_row_max_gives_the_reduce_max_bits(self, shape, axis):
        # A max has no summation order: the running max gives every softmax
        # bit of numpy's reduce, with ±0 and NaN in the rows too.
        x = np.random.default_rng(3).normal(size=shape) * 30
        x.flat[1], x.flat[2], x.flat[-1] = 0.0, -0.0, np.nan
        e = np.exp(x - x.max(axis=axis, keepdims=True))
        want = e / e.sum(axis=axis, keepdims=True)
        assert T._softmax(x, axis).tobytes() == want.tobytes()


class TestGradCheck:
    def test_sum_of_squares(self):
        x = T.Tensor([1.0, 2.0])
        err = grad_check(lambda t: T.tsum(t * t), x)
        assert err < 1e-7
        leaf = T.Tensor(x.data, requires_grad=True)
        T.tsum(leaf * leaf).backward()
        assert np.allclose(leaf.grad, [2.0, 4.0], atol=1e-12)

    def test_non_finite_output_raises(self):
        def f(t):
            return T.tsum(T.sqrt(t))

        with np.errstate(all="ignore"):
            with pytest.raises(NumericError):
                grad_check(f, T.Tensor([-1.0, 2.0]))  # NaN at the point itself
            with pytest.raises(NumericError):
                grad_check(lambda t: T.tsum(1.0 / t), T.Tensor([0.0, 2.0]))  # inf at the point
            x = T.Tensor([1e-6, 2.0], requires_grad=True)  # finite, NaN at x - eps
            with pytest.raises(NumericError, match="perturbation"):
                grad_check_many(lambda: f(x), [x], eps=1e-5)

    def test_tanh(self):
        rng = np.random.default_rng(3)
        err = grad_check(lambda t: T.tsum(tanh(t)), T.Tensor(rng.normal(size=(3, 4))), eps=1e-5)
        assert err < 1e-6

    # Each case names itself, so adding or removing one renames no other. The
    # names are the ones the suite reported when the ids were positional.
    @pytest.mark.parametrize("op", [
        pytest.param(lambda t: T.tsum(T.sigmoid(t)), id="<lambda>0"),
        pytest.param(lambda t: T.tsum(silu(t)), id="<lambda>1"),
        pytest.param(lambda t: T.tsum(T.sqrt(absolute(t) + 1.0)), id="<lambda>2"),
        pytest.param(lambda t: T.tmean(t * t * t), id="<lambda>3"),
        pytest.param(lambda t: T.tsum(softmax(t, -1) * softmax(t, 0)), id="<lambda>4"),
        pytest.param(lambda t: T.tsum(t.reshape((6, 2)) * t.reshape((6, 2))), id="<lambda>5"),
        pytest.param(lambda t: T.tsum(T.swapaxes(t, 0, 1) * 3.0), id="<lambda>6"),
        pytest.param(lambda t: T.tsum(maximum(t, 0.3) * 0.5), id="<lambda>7"),
        pytest.param(lambda t: T.tsum(T.xlogx(T.sigmoid(t))), id="<lambda>8"),
    ])
    def test_registered_ops(self, op):
        rng = np.random.default_rng(4)
        x = T.Tensor(rng.normal(size=(3, 4)))
        assert grad_check(op, x, eps=1e-5) < 1e-6

    def test_swapaxes_negative_axes(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(2, 3, 4, 5))
        for i, j in [(-1, -2), (-3, -2), (-4, -3), (0, -1), (-2, -2)]:
            assert np.array_equal(T.swapaxes(T.Tensor(x), i, j).data, np.swapaxes(x, i, j))
        w = T.Tensor(rng.normal(size=(2, 5, 4, 3)))  # uneven weights: a wrong swap shows
        assert grad_check(lambda t: T.tsum(T.swapaxes(t, -3, -1) * w), T.Tensor(x)) < 1e-6

    def test_slicing_concat_stack(self):
        rng = np.random.default_rng(5)
        w = T.Tensor(rng.normal(size=(2, 4, 5)))

        def f(t):
            z = T.concat([t[:2], t[2:]], axis=0)
            z = stack([z, z * 2.0], axis=0)
            return T.tsum(z.reshape((2, 4, 5)) * w)

        assert grad_check(f, T.Tensor(rng.normal(size=(4, 5))), eps=1e-5) < 1e-6

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
            h = tanh(matmul(t, w1))
            h = silu(matmul(h, w2))
            return T.tsum(h * h)

        assert grad_check(f, T.Tensor(rng.normal(size=(5, 4))), eps=1e-5) < 1e-4


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

        assert grad_check(f, T.Tensor(rng.normal(size=6)), eps=1e-6) < 1e-6

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

        assert grad_check(f, T.Tensor(rng.normal(size=shape)), eps=1e-6) < 1e-6


class TestNoGrad:
    def test_no_tape_inside(self):
        x = T.Tensor([1.0, 2.0], requires_grad=True)
        with T.no_grad():
            y = x * 3.0
        assert y._node is None and not y.requires_grad

    def test_detach_blocks_gradient(self):
        x = T.Tensor([2.0], requires_grad=True)
        y = detach(x) * 5.0 + x
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

    def test_output_no_backward_reads_is_freed_before_backward(self):
        x = T.Tensor(np.arange(4.0), requires_grad=True)
        h = x * 2.0
        loss = T.tsum(h + 1.0)
        ref = weakref.ref(h.data)
        del h
        assert ref() is None  # ``add`` keeps shapes only
        loss.backward()
        assert np.array_equal(x.grad, np.full(4, 2.0))

    def test_second_backward_raises(self):
        x = T.Tensor(np.arange(3.0), requires_grad=True)
        h = T.sigmoid(x)
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
    "add": T.add, "sub": T.sub, "mul": T.mul, "div": T.div, "maximum": maximum,
    "matmul": matmul,
}


class TestBackwardSeed:
    def test_seed_must_have_the_output_shape(self):
        x = T.Tensor(np.arange(3.0), requires_grad=True)
        for shape in [(2, 3), (1,), (4,), ()]:
            with pytest.raises(ShapeError, match="seed"):
                (x * 2.0).backward(np.ones(shape))
        assert x.grad is None
        (x * 2.0).backward([1.0, 2.0, 3.0])
        assert np.array_equal(x.grad, [2.0, 4.0, 6.0])


def _leaf(rng, *shape, low=None):
    data = rng.normal(size=shape) if low is None else rng.uniform(low, 2.0, size=shape)
    return T.Tensor(data, requires_grad=True)


# Every taped op, on leaves that all need a gradient: the closures then keep the most.
TAPED_OPS = {
    "add": lambda r: T.add(_leaf(r, 3, 4), _leaf(r, 4)),
    "sub": lambda r: T.sub(_leaf(r, 3, 4), _leaf(r, 3, 1)),
    "mul": lambda r: T.mul(_leaf(r, 3, 4), _leaf(r, 4)),
    "div": lambda r: T.div(_leaf(r, 3, 4), _leaf(r, 3, 4, low=0.5)),
    "maximum": lambda r: maximum(_leaf(r, 3, 4), _leaf(r, 3, 4)),
    "neg": lambda r: T.neg(_leaf(r, 3, 4)),
    "sqrt": lambda r: T.sqrt(_leaf(r, 3, 4, low=0.5)),
    "tanh": lambda r: tanh(_leaf(r, 3, 4)),
    "sigmoid": lambda r: T.sigmoid(_leaf(r, 3, 4)),
    "silu": lambda r: silu(_leaf(r, 3, 4)),
    "xlogx": lambda r: T.xlogx(_leaf(r, 3, 4, low=0.0)),
    "reshape": lambda r: T.reshape(_leaf(r, 3, 4), (4, 3)),
    "swapaxes": lambda r: T.swapaxes(_leaf(r, 2, 3, 4), 0, 2),
    "take": lambda r: T.take(_leaf(r, 3, 4), (slice(1, None), 2)),
    "concat": lambda r: T.concat([_leaf(r, 2, 4), _leaf(r, 3, 4)], axis=0),
    "stack": lambda r: stack([_leaf(r, 3, 4), _leaf(r, 3, 4)], axis=1),
    "tsum": lambda r: T.tsum(_leaf(r, 3, 4), axis=1),
    "tmean": lambda r: T.tmean(_leaf(r, 3, 4), axis=0, keepdims=True),
    "matmul": lambda r: matmul(_leaf(r, 2, 3, 4), _leaf(r, 4, 5)),
    "matmul_batched": lambda r: matmul(_leaf(r, 2, 3, 4), _leaf(r, 2, 4, 5)),
    "linear": lambda r: T.linear(_leaf(r, 2, 3, 4), _leaf(r, 4, 5), _leaf(r, 5)),
    "softmax": lambda r: softmax(_leaf(r, 3, 4), axis=0),
    "dft_real": lambda r: T.dft_real(_leaf(r, 3, 8))[1],
    "layer_norm": lambda r: M.layer_norm(_leaf(r, 3, 8), _leaf(r, 8), _leaf(r, 8)),
    "tanh_l1_graph": lambda r: graph_weights(build_graph(G.tanh_l1_graph, _leaf(r, 2, 6, 6))),
    "knn_sparsify": lambda r: graph_weights(G.knn_sparsify(weights_graph(_leaf(r, 2, 6, 6)), 3)),
    "temporal_attention": lambda r: A.temporal_attention(
        _leaf(r, 2, 3, 4), attention_params(4, 2, r)),
    "gcn": lambda r: G.gcn(_leaf(r, 2, 6, 4), weights_graph(_leaf(r, 2, 2, 6, 6)),
                           _leaf(r, 2, 2, 2)),
    "feed_forward": lambda r: M.feed_forward(_leaf(r, 3, 4), _leaf(r, 4, 8), _leaf(r, 8),
                                             _leaf(r, 8, 4), _leaf(r, 4)),
    "make_windows": lambda r: G.make_windows(_leaf(r, 2, 3, 4, 4)),
    "signed_distance": lambda r: G.signed_distance(_leaf(r, 2, 6, 4), _leaf(r, 2, 2), 2),
    "pool_windows": lambda r: G.pool_windows(_leaf(r, 2, 3, 6, 4), "max"),
    # The convolution's backward rebuilds the graph through KNN and tanh.
    "gcn_rebuilding_its_graph": lambda r: G.gcn(
        _leaf(r, 2, 6, 4), G.knn_sparsify(build_graph(G.tanh_l1_graph, _leaf(r, 2, 2, 6, 6)), 3),
        _leaf(r, 2, 2, 2)),
}


def _captured(fn):
    """Every object a function's closure reaches, through nested closures and containers."""
    found, stack = {}, [fn]
    while stack:
        obj = stack.pop()
        if id(obj) in found:
            continue
        found[id(obj)] = obj
        if isinstance(obj, (tuple, list)):
            stack += obj
        elif callable(obj):
            stack += [cell.cell_contents for cell in getattr(obj, "__closure__", None) or ()]
    return list(found.values())


class TestTapeKeepsArraysOnly:
    def test_every_taped_op_is_listed(self):
        taped = {name for name, f in vars(T).items() if inspect.isfunction(f)
                 and not name.startswith("_") and "_node" in f.__code__.co_names}
        assert taped <= TAPED_OPS.keys()

    @pytest.mark.parametrize("name", sorted(TAPED_OPS))
    def test_no_closure_holds_a_tensor(self, name):
        out = TAPED_OPS[name](np.random.default_rng(13))
        nodes, stack = [], [out._node]
        while stack:
            node = stack.pop()
            nodes.append(node)
            stack += [p for p in node.parents if isinstance(p, T._Node)]
        for node in nodes:
            held = _captured(node.backward)
            assert not [type(o).__name__ for o in held if isinstance(o, (T.Tensor, T._Node))]
        out.backward(np.ones(out.shape))  # and the closures still compute the gradients


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
                return op(x, c)._node.backward(g)
            return op(c, x)._node.backward(g)[::-1]  # (grad of x, grad of c)

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
