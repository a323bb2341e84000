import math

import numpy as np
import pytest

from propspan import tensor as T
from propspan.losses import class_weights, reweighted_bce, uniform_weights
from propspan.tensor import Tensor, grad_check


class TestClassWeights:
    def test_direct_formula(self):
        w = class_weights([300, 100, 50])
        np.testing.assert_allclose(w.weights, [1.0, 3.0, 6.0])

    def test_uniform_counts_give_ones(self):
        np.testing.assert_allclose(class_weights([7, 7, 7]).weights, 1.0)

    def test_single_class(self):
        np.testing.assert_allclose(class_weights([42]).weights, [1.0])

    def test_most_frequent_class_weight_exactly_one(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            f = rng.integers(1, 1000, size=rng.integers(1, 10))
            w = class_weights(f)
            assert w.weights[np.argmax(f)] == 1.0
            assert (w.weights >= 1.0).all()

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            class_weights([10, 0, 3])


def logit(p):
    return np.log(p / (1 - p))


def probability_bce(z, y, weights):
    """The loss the probability chain computed, in numpy: from sigmoid(z)."""
    x = 1 / (1 + np.exp(-z))
    return -(weights * y * np.log(x) + (1 - y) * np.log(1 - x)).mean()


class TestReweightedBce:
    def test_hand_case(self):
        # N=1, d=2, sigmoid(z)=[.5,.5], y=[1,0], p=[2,1] -> 1.5*ln2
        z = Tensor(np.zeros((1, 2)), dtype=np.float64)
        y = np.array([[1.0, 0.0]])
        w = class_weights([1, 2])  # f=[1,2] -> p=[2,1]
        np.testing.assert_allclose(w.weights, [2.0, 1.0])
        loss = reweighted_bce(z, y, w).item()
        assert loss == pytest.approx(1.5 * math.log(2), abs=1e-9)

    def test_unit_weights_reduce_to_plain_bce(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n, d = int(rng.integers(1, 8)), int(rng.integers(1, 6))
            x = rng.uniform(0.05, 0.95, (n, d))
            y = rng.integers(0, 2, (n, d)).astype(float)
            a = reweighted_bce(Tensor(logit(x), dtype=np.float64), y, uniform_weights(d)).item()
            manual = -(y * np.log(x) + (1 - y) * np.log(1 - x)).sum() / (n * d)
            assert a == pytest.approx(manual, abs=1e-9)

    def test_perfect_prediction_is_tiny(self):
        y = np.array([[1.0, 0.0], [0.0, 1.0]])
        for dtype in (np.float32, np.float64):
            z = Tensor(np.array([[30.0, -30.0], [-30.0, 30.0]]), dtype=dtype)
            loss = reweighted_bce(z, y, uniform_weights(2)).item()
            # tiny but not 0 in float32, where softplus(-z) + z cancels for z << 0
            assert loss == pytest.approx(np.log1p(np.exp(-30.0)), rel=1e-5)

    def test_shape_mismatch_rejected(self):
        z = Tensor(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            reweighted_bce(z, np.zeros((2, 2)), uniform_weights(3))
        with pytest.raises(ValueError):
            reweighted_bce(z, np.zeros((2, 3)), uniform_weights(2))

    def test_monotone_in_positive_weight_iff_x_below_one(self):
        z = Tensor(logit(np.array([[0.4, 0.6]])), dtype=np.float64)
        y = np.array([[1.0, 0.0]])
        losses = []
        for p0 in (1.0, 2.0, 5.0):
            from propspan.losses import ClassWeights
            w = ClassWeights(frequencies=np.array([1.0, 1.0]),
                             weights=np.array([p0, 1.0]))
            losses.append(reweighted_bce(z, y, w).item())
        assert losses[0] < losses[1] < losses[2]

    def test_batch_permutation_equivariance(self):
        rng = np.random.default_rng(2)
        z = logit(rng.uniform(0.1, 0.9, (6, 4)))
        y = rng.integers(0, 2, (6, 4)).astype(float)
        w = class_weights([4, 3, 2, 1])
        a = reweighted_bce(Tensor(z, dtype=np.float64), y, w).item()
        perm = rng.permutation(6)
        b = reweighted_bce(Tensor(z[perm], dtype=np.float64), y[perm], w).item()
        assert a == pytest.approx(b, abs=1e-12)

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(100):
            n, d = int(rng.integers(1, 6)), int(rng.integers(2, 5))
            z = Tensor(logit(rng.uniform(0.1, 0.9, (n, d))), requires_grad=True,
                       dtype=np.float64)
            y = rng.integers(0, 2, (n, d)).astype(float)
            w = class_weights(rng.integers(1, 20, d))
            worst = max(worst, grad_check(lambda z: reweighted_bce(z, y, w), [z]))
        assert worst <= 1e-4

    def test_gradient_through_sigmoid(self):
        # the node's gradient is the one autodiff takes through T.sigmoid and T.log
        rng = np.random.default_rng(4)
        for _ in range(20):
            y = rng.integers(0, 2, (3, 4)).astype(float)
            w = class_weights(rng.integers(1, 9, 4))
            z = rng.normal(size=(3, 4))
            node = Tensor(z, requires_grad=True, dtype=np.float64)
            reweighted_bce(node, y, w).backward()
            chain = Tensor(z, requires_grad=True, dtype=np.float64)
            x = T.sigmoid(chain)
            terms = T.add(T.mul(T.log(x), w.weights * y), T.mul(T.log(T.sub(1.0, x)), 1 - y))
            T.mul(terms.sum(), -1.0 / y.size).backward()
            np.testing.assert_allclose(node.grad, chain.grad, rtol=0, atol=1e-12)

    def test_node_matches_probability_oracle(self):
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(100):
            n, d = int(rng.integers(1, 6)), int(rng.integers(2, 5))
            z = rng.uniform(-6.0, 6.0, (n, d))
            y = rng.integers(0, 2, (n, d)).astype(float)
            w = class_weights(rng.integers(1, 20, d))
            node = Tensor(z, requires_grad=True, dtype=np.float64)
            loss = reweighted_bce(node, y, w)
            assert loss.data.shape == () and loss.dtype == np.float64
            assert loss.item() == pytest.approx(probability_bce(z, y, w.weights), abs=1e-9)
            worst = max(worst, grad_check(lambda z: reweighted_bce(z, y, w), [node]))
        assert worst <= 1e-4

    def test_confidently_wrong_logit_still_learns(self):
        # sigmoid(16) rounds to within 1e-7 of 1 in float32, so a clip of the
        # probabilities at 1 - 1e-7 would give these logits a gradient of 0
        y = np.zeros((1, 2))
        z = Tensor(np.array([[16.0, 30.0]], np.float32), requires_grad=True)
        loss = reweighted_bce(z, y, uniform_weights(2))
        assert loss.dtype == np.float32
        loss.backward()
        assert z.grad.dtype == np.float32
        np.testing.assert_allclose(z.grad, 1 / (1 + np.exp(-z.numpy())) / 2, rtol=1e-6)
        assert (z.grad > 0).all()
        values = [reweighted_bce(Tensor(np.full((1, 2), v, np.float32)), y,
                                 uniform_weights(2)).item() for v in (16.0, 20.0, 30.0)]
        assert values[0] < values[1] < values[2]
        assert values[2] == pytest.approx(30.0, rel=1e-6)
