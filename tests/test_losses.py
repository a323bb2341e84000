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


class TestReweightedBce:
    def test_hand_case(self):
        # N=1, d=2, x=[.5,.5], y=[1,0], p=[2,1] -> 1.5*ln2
        x = Tensor(np.array([[0.5, 0.5]]), dtype=np.float64)
        y = np.array([[1.0, 0.0]])
        w = class_weights([1, 2])  # f=[1,2] -> p=[2,1]
        np.testing.assert_allclose(w.weights, [2.0, 1.0])
        loss = reweighted_bce(x, y, w).item()
        assert loss == pytest.approx(1.5 * math.log(2), abs=1e-9)

    def test_unit_weights_reduce_to_plain_bce(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n, d = int(rng.integers(1, 8)), int(rng.integers(1, 6))
            x = Tensor(rng.uniform(0.05, 0.95, (n, d)), dtype=np.float64)
            y = rng.integers(0, 2, (n, d)).astype(float)
            a = reweighted_bce(x, y, uniform_weights(d)).item()
            manual = -(y * np.log(x.numpy()) + (1 - y) * np.log(1 - x.numpy())).sum() / (n * d)
            assert a == pytest.approx(manual, abs=1e-9)

    def test_perfect_prediction_is_tiny(self):
        x = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]), dtype=np.float64)
        y = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert reweighted_bce(x, y, uniform_weights(2)).item() <= 1e-6

    def test_shape_mismatch_rejected(self):
        x = Tensor(np.full((2, 3), 0.5))
        with pytest.raises(ValueError):
            reweighted_bce(x, np.zeros((2, 2)), uniform_weights(3))
        with pytest.raises(ValueError):
            reweighted_bce(x, np.zeros((2, 3)), uniform_weights(2))

    def test_monotone_in_positive_weight_iff_x_below_one(self):
        x = Tensor(np.array([[0.4, 0.6]]), dtype=np.float64)
        y = np.array([[1.0, 0.0]])
        losses = []
        for p0 in (1.0, 2.0, 5.0):
            from propspan.losses import ClassWeights
            w = ClassWeights(frequencies=np.array([1.0, 1.0]),
                             weights=np.array([p0, 1.0]))
            losses.append(reweighted_bce(x, y, w).item())
        assert losses[0] < losses[1] < losses[2]

    def test_batch_permutation_equivariance(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(0.1, 0.9, (6, 4))
        y = rng.integers(0, 2, (6, 4)).astype(float)
        w = class_weights([4, 3, 2, 1])
        a = reweighted_bce(Tensor(x, dtype=np.float64), y, w).item()
        perm = rng.permutation(6)
        b = reweighted_bce(Tensor(x[perm], dtype=np.float64), y[perm], w).item()
        assert a == pytest.approx(b, abs=1e-12)

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(100):
            n, d = int(rng.integers(1, 6)), int(rng.integers(2, 5))
            x = Tensor(rng.uniform(0.1, 0.9, (n, d)), requires_grad=True,
                       dtype=np.float64)
            y = rng.integers(0, 2, (n, d)).astype(float)
            w = class_weights(rng.integers(1, 20, d))
            worst = max(worst, grad_check(lambda x: reweighted_bce(x, y, w), [x]))
        assert worst <= 1e-4

    def test_gradient_through_sigmoid(self):
        rng = np.random.default_rng(4)
        worst = 0.0
        for _ in range(20):
            logits = Tensor(rng.normal(size=(3, 4)), requires_grad=True,
                            dtype=np.float64)
            y = rng.integers(0, 2, (3, 4)).astype(float)
            w = class_weights(rng.integers(1, 9, 4))
            fn = lambda z: reweighted_bce(T.sigmoid(z), y, w)
            worst = max(worst, grad_check(fn, [logits]))
        assert worst <= 1e-4
