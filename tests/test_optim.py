import numpy as np
import pytest

from propspan.encoder import EncoderConfig
from propspan.models import SiTagger
from propspan.optim import OptimState, adamw, adamw_step, sgd, sgd_step
from propspan.tensor import Tensor
from propspan.tokens import Vocab


def one_param(value):
    return {"p": Tensor(np.array([value], dtype=np.float64), requires_grad=True)}


class TestSgd:
    def test_plain_gradient_step(self):
        params = one_param(0.0)
        state = OptimState(kind="sgd", lr=1.0, momentum=0.0)
        sgd_step(params, {"p": np.array([1.0])}, state)
        assert params["p"].data[0] == pytest.approx(-1.0)

    def test_two_momentum_steps(self):
        # v1 = 1, p1 = -1; v2 = 0.9 + 1 = 1.9, p2 = -2.9
        params = one_param(0.0)
        state = OptimState(kind="sgd", lr=1.0, momentum=0.9)
        g = {"p": np.array([1.0])}
        sgd_step(params, g, state)
        sgd_step(params, g, state)
        assert params["p"].data[0] == pytest.approx(-2.9)

    def test_zero_gradient_keeps_params(self):
        params = one_param(3.0)
        state = OptimState(kind="sgd", lr=1.0, momentum=0.9)
        sgd_step(params, {"p": np.array([0.0])}, state)
        assert params["p"].data[0] == pytest.approx(3.0)

    def test_shape_mismatch_rejected(self):
        params = one_param(0.0)
        state = OptimState(kind="sgd", lr=1.0)
        with pytest.raises(ValueError):
            sgd_step(params, {"p": np.zeros(2)}, state)

    def test_wrong_kind_rejected(self):
        with pytest.raises(ValueError):
            sgd_step(one_param(0.0), {}, OptimState(kind="adamw", lr=1.0))


class TestAdamW:
    def test_no_decay_no_grad_is_identity(self):
        params = one_param(1.5)
        state = OptimState(kind="adamw", lr=1.0, weight_decay=0.0)
        adamw_step(params, {"p": np.array([0.0])}, state)
        assert params["p"].data[0] == pytest.approx(1.5)

    def test_pure_decoupled_decay(self):
        # g = 0, wd = .01, lr = 1 -> p <- p - lr*wd*p = 0.99
        params = one_param(1.0)
        state = OptimState(kind="adamw", lr=1.0, weight_decay=0.01)
        adamw_step(params, {"p": np.array([0.0])}, state)
        assert params["p"].data[0] == pytest.approx(0.99)

    def test_first_step_bias_correction_cancels(self):
        # adaptive term = lr * 1/(1 + eps) ~ lr for unit gradient
        params = one_param(0.0)
        state = OptimState(kind="adamw", lr=0.5, weight_decay=0.0)
        adamw_step(params, {"p": np.array([1.0])}, state)
        assert params["p"].data[0] == pytest.approx(-0.5, abs=1e-7)

    def test_state_counts_steps_and_keeps_moments(self):
        params = one_param(0.0)
        state = OptimState(kind="adamw", lr=0.1)
        for _ in range(3):
            adamw_step(params, {"p": np.array([1.0])}, state)
        assert state.step_count == 3
        assert set(state.slots["p"]) == {"m", "v"}
        assert state.slots["p"]["m"].shape == params["p"].data.shape

    def test_invalid_state_rejected(self):
        with pytest.raises(ValueError):
            OptimState(kind="rmsprop", lr=0.1)
        with pytest.raises(ValueError):
            OptimState(kind="sgd", lr=-1.0)
        with pytest.raises(ValueError):
            OptimState(kind="sgd", lr=0.1, step_count=-1)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("make", [sgd, adamw], ids=["sgd", "adamw"])
def test_step_keeps_parameter_dtype(make, dtype):
    vocab = Vocab([f"w{i}" for i in range(20)])
    cfg = EncoderConfig(vocab_size=len(vocab), hidden_size=16, layers=1, heads=2,
                        intermediate_size=24, max_positions=16)
    model = SiTagger(cfg, vocab, seed=1, dtype=dtype)
    ids = np.random.default_rng(0).integers(6, len(vocab), (2, 5))
    loss = model.loss(ids, np.ones((2, 5), dtype=bool), np.zeros((2, 5), dtype=np.int64),
                      np.array([5, 4]), rng=np.random.default_rng(1))
    opt = make(model.params(), lr=0.01)
    loss.backward()
    opt.step()
    arrays = [p.grad for p in model.params().values()] + [p.data for p in model.params().values()]
    arrays += [a for slot in opt.state.slots.values() for a in slot.values()]
    assert len(opt.state.slots) == len(model.params())
    assert {a.dtype for a in arrays} == {np.dtype(dtype)}
