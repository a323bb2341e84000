import zlib

import numpy as np
import pytest

from propspan import tensor as T
from propspan.tensor import Tensor, grad_check, logsumexp, no_grad


def randt(rng, shape, scale=1.0):
    return Tensor(rng.normal(0, scale, shape), requires_grad=True, dtype=np.float64)


class TestLogsumexp:
    def test_single_element_identity(self):
        assert logsumexp([0.0]) == 0.0

    def test_two_equal(self):
        assert logsumexp([1.0, 1.0]) == pytest.approx(1.0 + np.log(2), abs=1e-12)

    def test_no_overflow(self):
        assert logsumexp([1000.0, 1000.0]) == pytest.approx(1000.0 + np.log(2), abs=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            logsumexp([])


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


def test_fused_backward_runs_once_per_pass():
    calls = []
    a, b = randt(np.random.default_rng(18), (3,)), randt(np.random.default_rng(19), (3,))

    def backward(g):
        calls.append(g)
        return g * b.data, g * a.data

    out = T.fused(a.data * b.data, (a, b), backward)
    (out * 2.0).sum().backward()
    assert len(calls) == 1
    assert np.array_equal(a.grad, 2.0 * b.data) and np.array_equal(b.grad, 2.0 * a.data)


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
    from propspan.optim import sgd

    def run():
        rng = np.random.default_rng(42)
        w = Tensor(rng.normal(size=(4, 4)).astype(np.float32), requires_grad=True)
        x = Tensor(rng.normal(size=(2, 4)).astype(np.float32))
        drop = np.random.default_rng(7)
        opt = sgd({"w": w}, lr=0.1, momentum=0.9)
        for _ in range(5):
            out = T.dropout(T.gelu(T.matmul(x, w)), 0.2, drop, train=True).sum()
            opt.zero_grad()
            out.backward()
            opt.step()
        return w.data.tobytes()

    assert run() == run()
