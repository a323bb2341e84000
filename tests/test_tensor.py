import math
import operator
import zlib

import numpy as np
import pytest

from propspan import crf as C
from propspan import tensor as T
from propspan.tensor import Tensor, grad_check, no_grad


def randt(rng, shape, scale=1.0):
    return Tensor(rng.normal(0, scale, shape), requires_grad=True, dtype=np.float64)


class TestGradCheck:
    def test_sum_is_exact(self):
        # integer inputs and a power-of-two step make central differences exact
        x = Tensor(np.arange(6, dtype=np.float64).reshape(2, 3), requires_grad=True)
        assert grad_check(lambda t: t.sum(), [x], eps=2.0 ** -10) == 0.0

    def test_rejects_nonscalar(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True, dtype=np.float64)
        with pytest.raises(ValueError):
            grad_check(lambda t: t + t, [x])

    def test_rejects_bad_eps(self):
        x = Tensor(np.ones(2), requires_grad=True, dtype=np.float64)
        with pytest.raises(ValueError):
            grad_check(lambda t: t.sum(), [x], eps=0.0)


PRIMITIVES = {
    "add": lambda a, b: (a + b).sum(),
    "sub": lambda a, b: (a - b).sum(),
    "mul": lambda a, b: (a * b).sum(),
    "div": lambda a, b: (a / (b * b + 1.0)).sum(),
    "matmul": lambda a, b: T.matmul(a, T.swapaxes(b, 0, 1)).sum(),
    "exp": lambda a, b: T.exp(a * 0.3).sum(),
    "log": lambda a, b: T.log(a * a + 1.0).sum(),
    "tanh": lambda a, b: T.tanh(a).sum(),
    "gelu": lambda a, b: T.gelu(a).sum(),
    "sigmoid": lambda a, b: T.sigmoid(a).sum(),
    "softmax": lambda a, b: (T.softmax(a, axis=-1) * b).sum(),
    "logsumexp": lambda a, b: T.logsumexp_t(a, axis=-1).sum(),
    "sqrt": lambda a, b: T.sqrt(a * a + 0.5).sum(),
    "mean": lambda a, b: a.mean(),
    "pow": lambda a, b: (a ** 3.0).sum(),
}


@pytest.mark.parametrize("name", sorted(PRIMITIVES))
def test_primitive_gradients_100_instances(name):
    # 64-bit mode, central differences, max relative error <= 1e-4
    op = PRIMITIVES[name]
    rng = np.random.default_rng(zlib.crc32(name.encode()))  # not salted per process
    worst = 0.0
    for _ in range(100):
        a = randt(rng, (3, 4))
        b = randt(rng, (3, 4))
        worst = max(worst, grad_check(op, [a, b]))
    assert worst <= 1e-4, f"{name}: {worst}"


def test_layer_norm_gradient():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(100):
        x = randt(rng, (2, 6))
        g = randt(rng, (6,))
        b = randt(rng, (6,))
        fn = lambda x, g, b: (T.layer_norm(x, g, b) ** 2.0).sum()
        worst = max(worst, grad_check(fn, [x, g, b]))
    assert worst <= 1e-4


def test_gather_ops_gradients():
    rng = np.random.default_rng(6)
    ids = np.array([[0, 2, 2], [1, 0, 3]])
    w = randt(rng, (4, 5))
    assert grad_check(lambda w: T.embedding(w, ids).sum(), [w]) <= 1e-4
    x = randt(rng, (2, 3, 4))
    idx = np.array([[0, 3, 1], [2, 2, 0]])
    assert grad_check(lambda x: T.take_along_last(x, idx).sum(), [x]) <= 1e-4
    y = randt(rng, (4, 4))
    assert grad_check(lambda y: (y[np.array([0, 2]), np.array([1, 1])]).sum(), [y]) <= 1e-4
    assert grad_check(lambda y: (y[1:3, ::2] * 2.0).sum(), [y]) <= 1e-4


def test_embedding_backward_matches_add_at():
    # repeated ids, and rows 1, 5 and 7 that no id uses
    rng = np.random.default_rng(17)
    ids = np.array([[3, 0, 3, 6], [2, 3, 0, 4], [6, 6, 6, 3]])
    w = randt(rng, (8, 5))
    g = rng.normal(size=ids.shape + (5,))
    T.embedding(w, ids).backward(g)
    want = np.zeros_like(w.data)
    np.add.at(want, ids.reshape(-1), g.reshape(-1, 5))
    assert np.allclose(w.grad, want, rtol=1e-12, atol=1e-12)
    assert not w.grad[[1, 5, 7]].any()
    weights = Tensor(g)
    assert grad_check(lambda w: (T.embedding(w, ids) * weights).sum(), [w]) <= 1e-4
    w.zero_grad()
    T.embedding(w, np.zeros((0,), dtype=np.int64)).backward(np.zeros((0, 5)))
    assert not w.grad.any()


def test_node_backward_runs_once_per_pass():
    calls = []
    a, b = randt(np.random.default_rng(18), (3,)), randt(np.random.default_rng(19), (3,))

    def backward(g):
        calls.append(g)
        return g * b.data, g * a.data

    out = T._node(a.data * b.data, (a, b), backward)
    (out * 2.0).sum().backward()
    assert len(calls) == 1
    assert np.array_equal(a.grad, 2.0 * b.data) and np.array_equal(b.grad, 2.0 * a.data)


def _const(rng, shape):
    return Tensor(rng.normal(size=shape), dtype=np.float64)


def _pos(rng, shape):
    return Tensor(rng.uniform(0.5, 2.0, shape), requires_grad=True, dtype=np.float64)


def _crf_log_partition(rng):
    params = C.CrfParams(randt(rng, (3, 3)), _const(rng, (3,)), randt(rng, (3,)))
    return C.log_partition_batch(randt(rng, (2, 4, 3)), np.array([4, 2]), params)


def _crf_nll(rng):
    params = C.CrfParams(randt(rng, (3, 3)), _const(rng, (3,)), randt(rng, (3,)))
    tags = np.array([[0, 1, 2, 1], [2, 2, 0, 0]])
    return C.nll_batch(randt(rng, (2, 4, 3)), tags, np.array([4, 2]), params)


# One node per op on float64 inputs. The operands made with _const, mul's
# scalar and mean's scalar factor take no gradient.
NODE_OPS = {
    "add": lambda r: T.add(randt(r, (3, 4)), _const(r, (4,))),
    "sub": lambda r: T.sub(_const(r, (3, 4)), randt(r, (3, 1))),
    "mul": lambda r: T.mul(randt(r, (3, 4)), 2.0),
    "div": lambda r: T.div(_const(r, (3, 4)), _pos(r, (1, 4))),
    "neg": lambda r: T.neg(randt(r, (3, 4))),
    "pow_": lambda r: T.pow_(_pos(r, (3, 4)), 1.5),
    "exp": lambda r: T.exp(randt(r, (3, 4))),
    "log": lambda r: T.log(_pos(r, (3, 4))),
    "sqrt": lambda r: T.sqrt(_pos(r, (3, 4))),
    "tanh": lambda r: T.tanh(randt(r, (3, 4))),
    "gelu": lambda r: T.gelu(randt(r, (3, 4))),
    "sigmoid": lambda r: T.sigmoid(randt(r, (3, 4))),
    "clip": lambda r: T.clip(randt(r, (3, 4)), -0.5, 0.5),
    "where": lambda r: T.where(r.random((3, 4)) < 0.5, randt(r, (3, 4)), _const(r, (3, 4))),
    "sum_": lambda r: T.sum_(randt(r, (3, 4)), axis=1),
    "mean": lambda r: T.mean(randt(r, (3, 4)), axis=0),
    "softmax": lambda r: T.softmax(randt(r, (3, 4))),
    "logsumexp_t": lambda r: T.logsumexp_t(randt(r, (3, 4)), axis=0, keepdims=True),
    "reshape": lambda r: T.reshape(randt(r, (3, 4)), (2, 6)),
    "swapaxes": lambda r: T.swapaxes(randt(r, (2, 3, 4)), 0, 2),
    "concat": lambda r: T.concat([randt(r, (2, 3)), _const(r, (2, 2)), randt(r, (2, 1))],
                                 axis=-1),
    "getitem": lambda r: T.getitem(randt(r, (4, 5)), (np.array([0, 2, 2]), slice(1, 4))),
    "embedding": lambda r: T.embedding(randt(r, (5, 3)), np.array([[0, 4, 4], [1, 0, 2]])),
    "take_along_last": lambda r: T.take_along_last(randt(r, (2, 3, 4)),
                                                   np.array([[0, 3, 1], [2, 2, 0]])),
    "matmul": lambda r: T.matmul(randt(r, (2, 3, 4)), _const(r, (4, 5))),
    "linear": lambda r: T.linear(randt(r, (2, 3, 4)), randt(r, (4, 5)), _const(r, (5,))),
    "attention": lambda r: T.attention(randt(r, (2, 3, 4)), _const(r, (2, 5, 4)),
                                       randt(r, (2, 5, 4)), np.ones((2, 5), bool),
                                       2, 0.2, np.random.default_rng(0), True),
    "layer_norm": lambda r: T.layer_norm(randt(r, (2, 3, 4)), randt(r, (4,)), _const(r, (4,))),
    "dropout": lambda r: T.dropout(randt(r, (3, 4)), 0.3, np.random.default_rng(0), True),
    "crf.log_partition_batch": _crf_log_partition,
    "crf.nll_batch": _crf_nll,
}
WITH_CONSTANT = {"add", "sub", "mul", "div", "where", "mean", "concat", "matmul", "linear",
                 "attention", "layer_norm", "crf.log_partition_batch",
                 "crf.nll_batch"}


@pytest.mark.parametrize("name", sorted(NODE_OPS))
def test_node_backward_returns_one_gradient_per_parent(name):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    out = NODE_OPS[name](rng)
    assert out._parents and out.dtype == np.float64
    g = rng.normal(size=out.shape)
    grads = out._backward(g)
    assert not isinstance(grads, np.ndarray)  # a bare array would zip row by row
    assert len(grads) == len(out._parents)
    for p, pg in zip(out._parents, grads):
        assert np.shape(pg) == p.shape
    out.backward(g)
    constants = [p for p in out._parents if not p.requires_grad]
    assert bool(constants) == (name in WITH_CONSTANT)
    assert all(p.grad is None for p in constants)
    assert all(p.grad is not None for p in out._parents if p.requires_grad and not p._parents)


def composite_linear(x, w, b):
    """The reshape -> matmul -> bias add -> reshape chain that ``T.linear`` fuses."""
    flat = T.reshape(x, (-1, x.shape[-1]))
    return T.reshape(T.matmul(flat, w) + b, x.shape[:-1] + (w.shape[1],))


@pytest.mark.parametrize("shape", [(5, 4), (2, 3, 4), (1, 3, 4), (1, 4)])
@pytest.mark.parametrize("x_dtype", [np.float32, np.float64])
def test_linear_bit_identical_to_composite(shape, x_dtype):
    rng = np.random.default_rng(20)
    x_data = rng.normal(size=shape).astype(x_dtype)
    w_data = rng.normal(size=(4, 3)).astype(np.float32)
    b_data = rng.normal(size=3).astype(np.float32)
    results = []
    for op in (T.linear, composite_linear):
        x, w, b = (Tensor(d, requires_grad=True) for d in (x_data, w_data, b_data))
        out = op(x, w, b)
        out.backward(np.random.default_rng(21).normal(size=out.shape))
        results.append([out.data, x.grad, w.grad, b.grad])
    for got, want in zip(*results):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def _old_linear(x, w, b):
    return (np.matmul(x.reshape(-1, w.shape[0]), w) + b).reshape(x.shape[:-1] + (w.shape[1],))


def _old_gelu(x, *_):
    t = np.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * ((x * x) * x)))
    return 0.5 * x * (1.0 + t)


def _old_layer_norm(x, gamma, beta):
    xc = x - x.mean(axis=-1, keepdims=True)
    xhat = xc * (1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + 1e-5))
    return xhat * gamma + beta


@pytest.mark.parametrize("shape", [(1, 1), (5, 7), (2, 3, 64), (8, 60, 64), (3, 17, 33)],
                         ids=lambda shape: "x".join(map(str, shape)))
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", ["linear", "gelu", "layer_norm"])
def test_forward_gives_the_bytes_of_the_expression_it_replaces(name, dtype, shape):
    # the forwards update their temporaries in place; the arithmetic and its
    # order are those of the one-expression forms above
    rng = np.random.default_rng(zlib.crc32(f"{name}{shape}".encode()))
    x = (rng.normal(0.0, 3.0, size=shape)).astype(dtype)
    width = shape[-1]
    extra = {"linear": [rng.normal(size=(width, 5)), rng.normal(size=5)],
             "gelu": [],
             "layer_norm": [rng.normal(size=width), rng.normal(size=width)]}[name]
    extra = [e.astype(dtype) for e in extra]
    with T.no_grad():
        got = getattr(T, name)(Tensor(x), *(Tensor(e) for e in extra)).numpy()
    want = {"linear": _old_linear, "gelu": _old_gelu, "layer_norm": _old_layer_norm}[name](
        x, *extra)
    assert got.dtype == want.dtype == dtype
    assert got.tobytes() == want.tobytes()


def test_linear_gradients_and_single_node():
    rng = np.random.default_rng(22)
    x, w, b = randt(rng, (2, 3, 4)), randt(rng, (4, 5)), randt(rng, (5,))
    weights = Tensor(rng.normal(size=(2, 3, 5)))
    assert grad_check(lambda x, w, b: (T.linear(x, w, b) * weights).sum(), [x, w, b]) <= 1e-6
    assert T.linear(x, w, b)._parents == (x, w, b)


def test_concat_and_where_gradients():
    rng = np.random.default_rng(7)
    a, b = randt(rng, (2, 3)), randt(rng, (2, 3))
    cond = np.array([[True, False, True], [False, False, True]])
    assert grad_check(lambda a, b: T.concat([a, b], axis=0).sum(), [a, b]) <= 1e-4
    assert grad_check(lambda a, b: (T.where(cond, a, b) * 3.0).sum(), [a, b]) <= 1e-4


class TestSoftmax:
    def test_rows_sum_to_one_and_positive(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            x = Tensor(rng.normal(0, 5, (4, 7)))
            s = T.softmax(x, axis=-1).numpy()
            np.testing.assert_allclose(s.sum(axis=-1), 1.0, atol=1e-6)
            assert (s > 0).all()

    def test_extreme_values_stable(self):
        s = T.softmax(Tensor([[1000.0, 1000.0, -1000.0]]), axis=-1).numpy()
        assert np.isfinite(s).all()
        assert s[0, 0] == pytest.approx(0.5, abs=1e-6)


def test_logsumexp_t_large_magnitudes_stable():
    got = T.logsumexp_t(Tensor([[1000.0, 1000.0], [-1000.0, -1000.0]], dtype=np.float64),
                        axis=-1).numpy()
    np.testing.assert_allclose(got, [1000.0 + np.log(2), -1000.0 + np.log(2)], atol=1e-9)


class TestDropout:
    def test_eval_mode_is_bitwise_identity(self):
        x = Tensor(np.random.default_rng(0).normal(size=(5, 5)))
        out = T.dropout(x, 0.5, None, train=False)
        assert out.numpy() is x.numpy()

    def test_train_mode_scales_kept_values(self):
        x = Tensor(np.ones((100, 100)))
        out = T.dropout(x, 0.25, np.random.default_rng(3), train=True).numpy()
        kept = out[out != 0]
        np.testing.assert_allclose(kept, 1.0 / 0.75)
        assert abs((out != 0).mean() - 0.75) < 0.02

    def test_train_mode_needs_rng(self):
        with pytest.raises(ValueError):
            T.dropout(Tensor(np.ones(3)), 0.5, None, train=True)


SCALARS = {"float": 0.3, "np.float64": np.float64(0.3), "0d-float64": np.asarray(0.3)}
BINARY = {"add": (operator.add, np.add), "sub": (operator.sub, np.subtract),
          "mul": (operator.mul, np.multiply), "div": (operator.truediv, np.divide)}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind", sorted(SCALARS))
@pytest.mark.parametrize("op", sorted(BINARY))
def test_scalar_operand_takes_tensor_dtype(op, kind, dtype):
    t_op, np_op = BINARY[op]
    x = Tensor(np.linspace(0.5, 2.0, 6).reshape(2, 3), dtype=dtype)
    s = SCALARS[kind]
    for out, want in ((t_op(x, s), np_op(x.data, dtype(s))),
                      (t_op(s, x), np_op(dtype(s), x.data))):
        assert isinstance(out, Tensor) and out.dtype == dtype
        np.testing.assert_array_equal(out.data, want)


def test_array_operand_takes_tensor_dtype():
    x = Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
    out = T.mul(x, np.full(3, 0.1))
    assert out.dtype == np.float32
    np.testing.assert_array_equal(out.data, np.full((2, 3), 0.1, dtype=np.float32))


def test_leaf_gradient_keeps_leaf_dtype():
    # a float64 Tensor operand promotes the graph; the leaf gradient comes back float32
    w = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    c = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True, dtype=np.float64)
    out = (w * c).sum()
    assert out.dtype == np.float64
    out.backward()
    assert w.grad.dtype == np.float32 and c.grad.dtype == np.float64
    np.testing.assert_array_equal(w.grad, np.array([1.0, 2.0, 3.0], dtype=np.float32))


def test_no_grad_blocks_graph():
    x = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        y = (x * 2.0).sum()
    assert not y.requires_grad


def test_backward_accumulates_shared_parent():
    x = Tensor(np.array([2.0]), requires_grad=True, dtype=np.float64)
    y = (x * x).sum()  # d/dx = 2x = 4
    y.backward()
    assert x.grad[0] == pytest.approx(4.0)


def test_forward_backward_step_deterministic():
    # identical seed -> bitwise identical parameters after a training step
    from propspan.optim import Optimizer

    def run():
        rng = np.random.default_rng(42)
        w = Tensor(rng.normal(size=(4, 4)).astype(np.float32), requires_grad=True)
        x = Tensor(rng.normal(size=(2, 4)).astype(np.float32))
        drop = np.random.default_rng(7)
        opt = Optimizer({"w": w}, "sgd", lr=0.1, momentum=0.9)
        for _ in range(5):
            out = T.dropout(T.gelu(T.matmul(x, w)), 0.2, drop, train=True).sum()
            opt.zero_grad()
            out.backward()
            opt.step()
        return w.data.tobytes()

    assert run() == run()
