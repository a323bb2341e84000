import numpy as np
import pytest

from propspan.encoder import EncoderConfig
from propspan.models import SiTagger
from propspan.optim import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, Optimizer
from propspan.tensor import Tensor
from propspan.tokens import Vocab


def one_param(value):
    return {"p": Tensor(np.array([value], dtype=np.float64), requires_grad=True)}


def step_with(opt, *grads):
    for g in grads:
        opt.params["p"].grad = np.array(g, dtype=np.float64)
        opt.step()


class TestSgd:
    def test_plain_gradient_step(self):
        params = one_param(0.0)
        step_with(Optimizer(params, "sgd", lr=1.0), [1.0])
        assert params["p"].data[0] == pytest.approx(-1.0)

    def test_two_momentum_steps(self):
        # v1 = 1, p1 = -1; v2 = 0.9 + 1 = 1.9, p2 = -2.9
        params = one_param(0.0)
        step_with(Optimizer(params, "sgd", lr=1.0, momentum=0.9), [1.0], [1.0])
        assert params["p"].data[0] == pytest.approx(-2.9)

    def test_zero_gradient_keeps_params(self):
        params = one_param(3.0)
        step_with(Optimizer(params, "sgd", lr=1.0, momentum=0.9), [0.0])
        assert params["p"].data[0] == pytest.approx(3.0)

    def test_shape_mismatch_rejected(self):
        opt = Optimizer(one_param(0.0), "sgd", lr=1.0)
        with pytest.raises(ValueError, match="gradient shape"):
            step_with(opt, [0.0, 0.0])
        assert opt.step_count == 0 and opt.slots == {}

    def test_wrong_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown optimizer kind"):
            Optimizer(one_param(0.0), "rmsprop", lr=0.1)


class TestAdamW:
    def test_no_decay_no_grad_is_identity(self):
        params = one_param(1.5)
        step_with(Optimizer(params, "adamw", lr=1.0), [0.0])
        assert params["p"].data[0] == pytest.approx(1.5)

    def test_pure_decoupled_decay(self):
        # g = 0, wd = .01, lr = 1 -> p <- p - lr*wd*p = 0.99
        params = one_param(1.0)
        step_with(Optimizer(params, "adamw", lr=1.0, weight_decay=0.01), [0.0])
        assert params["p"].data[0] == pytest.approx(0.99)

    def test_first_step_bias_correction_cancels(self):
        # adaptive term = lr * 1/(1 + eps) ~ lr for unit gradient
        params = one_param(0.0)
        step_with(Optimizer(params, "adamw", lr=0.5), [1.0])
        assert params["p"].data[0] == pytest.approx(-0.5, abs=1e-7)

    def test_state_counts_steps_and_keeps_moments(self):
        params = one_param(0.0)
        opt = Optimizer(params, "adamw", lr=0.1)
        step_with(opt, [1.0], [1.0], [1.0])
        assert opt.step_count == 3
        assert set(opt.slots["p"]) == {"m", "v"}
        assert opt.slots["p"]["m"].shape == params["p"].data.shape

    def test_parameter_without_gradient_is_skipped(self):
        # a tagger trained without its CRF leaves the CRF's gradients None:
        # those parameters get no update, no decay and no slot
        model, loss = tagger_loss(np.float32, use_crf=False)
        crf = {k: v for k, v in model.params().items() if k.startswith("crf.")}
        before = {k: v.data.tobytes() for k, v in crf.items()}
        opt = Optimizer(model.params(), "adamw", lr=0.1, weight_decay=0.01)
        loss.backward()
        opt.step()
        assert crf and all(v.grad is None for v in crf.values())
        assert {k: v.data.tobytes() for k, v in crf.items()} == before
        assert set(opt.slots) == set(model.params()) - set(crf)

    def test_invalid_state_rejected(self):
        with pytest.raises(ValueError, match="unknown optimizer kind"):
            Optimizer(one_param(0.0), "adam", lr=0.1)
        with pytest.raises(ValueError, match="learning rate"):
            Optimizer(one_param(0.0), "sgd", lr=-1.0)
        with pytest.raises(ValueError, match="learning rate"):
            Optimizer(one_param(0.0), "adamw", lr=0.0)


def tagger_loss(dtype, use_crf=True):
    vocab = Vocab([f"w{i}" for i in range(20)])
    cfg = EncoderConfig(vocab_size=len(vocab), hidden_size=16, layers=1, heads=2,
                        intermediate_size=24, max_positions=16)
    model = SiTagger(cfg, vocab, use_crf=use_crf, seed=1, dtype=dtype)
    ids = np.random.default_rng(0).integers(6, len(vocab), (2, 5))
    loss = model.loss(ids, np.ones((2, 5), dtype=bool), np.zeros((2, 5), dtype=np.int64),
                      np.array([5, 4]), rng=np.random.default_rng(1))
    return model, loss


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind", ["sgd", "adamw"])
def test_step_keeps_parameter_dtype(kind, dtype):
    model, loss = tagger_loss(dtype)
    opt = Optimizer(model.params(), kind, lr=0.01, momentum=0.9, weight_decay=0.01)
    loss.backward()
    opt.step()
    arrays = [p.grad for p in model.params().values()] + [p.data for p in model.params().values()]
    arrays += [a for slot in opt.slots.values() for a in slot.values()]
    assert len(opt.slots) == len(model.params())
    assert {a.dtype for a in arrays} == {np.dtype(dtype)}


def allocating_steps(params: dict, grads: list[dict], kind, lr, momentum, weight_decay):
    """The update written with fresh arrays, as ``Optimizer.step`` once was: its oracle."""
    slots = {name: {"m": np.zeros_like(p), "v": np.zeros_like(p)} for name, p in params.items()}
    for t, step_grads in enumerate(grads, start=1):
        bc1, bc2 = 1.0 - ADAM_BETA1 ** t, 1.0 - ADAM_BETA2 ** t
        for name, g in step_grads.items():
            p, slot = params[name], slots[name]
            if kind == "sgd":
                v = slot["v"] = momentum * slot["v"] + g
                p -= (lr * v).astype(p.dtype, copy=False)
                continue
            m = slot["m"] = ADAM_BETA1 * slot["m"] + (1.0 - ADAM_BETA1) * g
            v = slot["v"] = ADAM_BETA2 * slot["v"] + (1.0 - ADAM_BETA2) * (g * g)
            step = (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
            p -= (lr * weight_decay * p).astype(p.dtype, copy=False)
            p -= (lr * step).astype(p.dtype, copy=False)
    return slots


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind,momentum,weight_decay", [("sgd", 0.9, 0.0), ("adamw", 0.0, 0.01)])
def test_in_place_step_bit_identical_to_allocating_update(kind, momentum, weight_decay, dtype):
    rng = np.random.default_rng(5)
    shapes = {"w": (7, 5), "b": (5,), "e": (11, 3)}
    start = {n: rng.normal(size=s).astype(dtype) for n, s in shapes.items()}
    grads = [{n: rng.normal(0.0, 10.0 ** rng.integers(-4, 2), size=s).astype(dtype)
              for n, s in shapes.items()} for _ in range(30)]
    grads[3].pop("b")  # a step without a gradient for one parameter
    params = {n: Tensor(a.copy(), requires_grad=True) for n, a in start.items()}
    opt = Optimizer(params, kind, lr=0.003, momentum=momentum, weight_decay=weight_decay)
    for step_grads in grads:
        opt.zero_grad()
        for n, g in step_grads.items():
            params[n].grad = g.copy()
        opt.step()
    expected = {n: a.copy() for n, a in start.items()}
    slots = allocating_steps(expected, grads, kind, 0.003, momentum, weight_decay)
    for n in shapes:
        assert params[n].data.dtype == np.dtype(dtype)
        assert params[n].data.tobytes() == expected[n].tobytes()
        for key, arr in opt.slots[n].items():
            assert arr.tobytes() == slots[n][key].tobytes()
