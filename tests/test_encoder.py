import tracemalloc

import numpy as np
import pytest

from propspan import encoder
from propspan import tensor as T
from propspan.encoder import (Encoder, EncoderConfig, LinearHead, SpanClsConfig,
                              SpanClsHead, TransformerStack)
from propspan.models import SiTagger, TcClassifier
from propspan.tensor import ATTN_MASK_BIAS, Tensor, grad_check
from propspan.tokens import SPECIAL_TOKENS, Vocab


def small_config(vocab=50, **kw):
    base = dict(vocab_size=vocab, hidden_size=16, layers=2, heads=2,
                intermediate_size=32, max_positions=24, dropout=0.1,
                attention_dropout=0.1)
    base.update(kw)
    return EncoderConfig(**base)


class TestConfig:
    def test_hidden_divisible_by_heads(self):
        with pytest.raises(ValueError):
            small_config(hidden_size=15)

    def test_dropout_range(self):
        with pytest.raises(ValueError):
            small_config(dropout=1.0)
        with pytest.raises(ValueError):
            small_config(attention_dropout=-0.1)

    def test_span_cls_defaults(self):
        cfg = SpanClsConfig()
        assert (cfg.layers, cfg.heads, cfg.intermediate_size) == (3, 4, 512)


class TestEncode:
    def test_output_shape(self):
        enc = Encoder(small_config(), seed=0)
        ids = np.zeros((2, 5), dtype=np.int64)
        mask = np.ones((2, 5), dtype=bool)
        out = enc.encode(ids, mask)
        assert out.shape == (2, 5, 16)

    def test_too_long_rejected(self):
        enc = Encoder(small_config(max_positions=4), seed=0)
        with pytest.raises(ValueError):
            enc.encode(np.zeros((1, 5), dtype=np.int64), np.ones((1, 5), dtype=bool))

    def test_unknown_id_rejected(self):
        enc = Encoder(small_config(vocab=10), seed=0)
        with pytest.raises(ValueError):
            enc.encode(np.array([[11]]), np.ones((1, 1), dtype=bool))

    def test_real_positions_independent_of_pad_content(self):
        enc = Encoder(small_config(), seed=1)
        rng = np.random.default_rng(0)
        ids = rng.integers(0, 50, (2, 8))
        mask = np.zeros((2, 8), dtype=bool)
        mask[:, :3] = True  # only first 3 positions real
        out1 = enc.encode(ids, mask).numpy()[:, :3]
        ids2 = ids.copy()
        ids2[:, 3:] = rng.integers(0, 50, (2, 5))  # permute pad region contents
        out2 = enc.encode(ids2, mask).numpy()[:, :3]
        np.testing.assert_allclose(out1, out2, atol=1e-6)

    def test_eval_mode_is_deterministic_bitwise(self):
        enc = Encoder(small_config(), seed=2)
        ids = np.random.default_rng(1).integers(0, 50, (2, 6))
        mask = np.ones((2, 6), dtype=bool)
        a = enc.encode(ids, mask, train=False).numpy()
        b = enc.encode(ids, mask, train=False).numpy()
        assert a.tobytes() == b.tobytes()

    def test_zero_dropout_train_matches_eval(self):
        enc = Encoder(small_config(dropout=0.0, attention_dropout=0.0), seed=3)
        ids = np.random.default_rng(2).integers(0, 50, (1, 6))
        mask = np.ones((1, 6), dtype=bool)
        a = enc.encode(ids, mask, train=True, rng=np.random.default_rng(0)).numpy()
        b = enc.encode(ids, mask, train=False).numpy()
        assert a.tobytes() == b.tobytes()


def chain_attention(q, k, v, key_mask, heads, p, rng, train):
    """The attention block as a chain of autograd ops: the fused op's oracle."""
    bsz, tq, hid = q.shape
    dh = hid // heads
    bias = np.where(key_mask, 0.0, ATTN_MASK_BIAS).astype(q.dtype)[:, None, None, :]

    def split(t):
        return T.swapaxes(T.reshape(t, (bsz, t.shape[1], heads, dh)), 1, 2)  # [B, heads, T, dh]

    q4, k4, v4 = split(q), split(k), split(v)
    scores = T.matmul(q4, T.swapaxes(k4, 2, 3)) * (1.0 / np.sqrt(dh))
    attn = T.softmax(scores + bias, axis=-1)
    attn = T.dropout(attn, p, rng, train)
    ctx = T.matmul(attn, v4)
    return T.reshape(T.swapaxes(ctx, 1, 2), (bsz, tq, hid))


def _padded_allowed(lengths, seq):
    """The [B, T] key mask of sequences of these lengths padded to ``seq``."""
    return np.arange(seq)[None, :] < np.asarray(lengths)[:, None]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("train", [True, False])
@pytest.mark.parametrize("mask_kind,tq", [  # tq < 6: fewer queries than keys, a row-restricted layer
    pytest.param(kind, tq, id=kind if tq == 6 else f"{kind}-{tq}q")
    for kind in ("padded_keys", "all_allowed") for tq in (6, 2, 1)])
def test_fused_attention_bit_identical_to_chain(dtype, train, mask_kind, tq):
    rng = np.random.default_rng(21)
    bsz, seq, hid, heads = 3, 6, 12, 4  # head dim 3: the scale 1/sqrt(3) is inexact
    if mask_kind == "padded_keys":
        allowed = _padded_allowed([6, 4, 1], seq)
    else:  # the span head's mask: every key allowed
        allowed = np.ones((bsz, seq), dtype=bool)
    data = [rng.normal(size=(bsz, t, hid)).astype(dtype) for t in (tq, seq, seq)]
    seed_grad = rng.normal(size=(bsz, tq, hid)).astype(dtype)
    results, next_draws = [], []
    for op in (T.attention, chain_attention):
        ins = [Tensor(d.copy(), requires_grad=True) for d in data]
        drop_rng = np.random.default_rng(9)
        out = op(*ins, allowed, heads, 0.25, drop_rng, train)
        out.backward(seed_grad)
        results.append([out.data] + [t.grad for t in ins])
        next_draws.append(drop_rng.random())
    for fused_arr, chain_arr in zip(*results):
        assert fused_arr.dtype == chain_arr.dtype == dtype
        assert np.array_equal(fused_arr, chain_arr)
    assert next_draws[0] == next_draws[1]  # the same dropout draws were taken


def test_fused_attention_is_one_graph_node():
    rng = np.random.default_rng(22)
    q, k, v = (Tensor(rng.normal(size=(2, 4, 8)), requires_grad=True) for _ in range(3))
    out = T.attention(q, k, v, _padded_allowed([4, 2], 4), 2, 0.1,
                      np.random.default_rng(0), True)
    assert out._parents == (q, k, v)


def test_masked_attention_weights_are_zero():
    # a masked key has weight exactly 0: its k/v rows cannot move any query's output
    rng = np.random.default_rng(4)
    bsz, seq, hid, heads = 2, 5, 8, 2
    lengths = np.array([5, 3])
    keys_masked = np.arange(seq)[None, :] >= lengths[:, None]
    allowed = _padded_allowed(lengths, seq)
    q, k, v = (rng.normal(size=(bsz, seq, hid)).astype(np.float32) for _ in range(3))

    def attend(k_rows, v_rows):
        return T.attention(Tensor(q), Tensor(k_rows), Tensor(v_rows), allowed, heads,
                           0.0, None, False).numpy()

    base = attend(k, v)
    k2, v2 = k.copy(), v.copy()
    k2[keys_masked] = rng.normal(0.0, 10.0, size=k2[keys_masked].shape)
    v2[keys_masked] = rng.normal(0.0, 10.0, size=v2[keys_masked].shape)
    assert attend(k2, v2).tobytes() == base.tobytes()  # every query, padded ones too
    v3 = v.copy()
    v3[1, 0] += 1.0  # a key that may be attended does change the output
    assert not np.array_equal(attend(k, v3)[1], base[1])


def chain_attention_block(h, params, key_mask, heads, attention_dropout, p, rng, train,
                          rows=None):
    """The attention sub-block as a chain of autograd ops: the fused block's oracle."""
    ln_g, ln_b, wq, bq, wk, bk, wv, bv, wo, bo = params
    hn = T.layer_norm(h, ln_g, ln_b)
    hq = hn
    if rows is not None:
        at = (np.arange(h.shape[0])[:, None], rows)
        h, hq = h[at], hn[at]
    q, k, v = T.linear(hq, wq, bq), T.linear(hn, wk, bk), T.linear(hn, wv, bv)
    a = T.attention(q, k, v, key_mask, heads, attention_dropout, rng, train)
    return h + T.dropout(T.linear(a, wo, bo), p, rng, train)


def chain_mlp_block(h, params, p, rng, train):
    """The MLP sub-block as a chain of autograd ops: the fused block's oracle."""
    ln_g, ln_b, w1, b1, w2, b2 = params
    m = T.gelu(T.linear(T.layer_norm(h, ln_g, ln_b), w1, b1))
    return h + T.dropout(T.linear(m, w2, b2), p, rng, train)


class TestBlocksMatchChain:
    """``T.attention_block`` and ``T.mlp_block`` against the op chains they
    replace, through a whole stack (both blocks, layer after layer, ``rows`` at
    the last): outputs, the input's gradient, every parameter's gradient and
    the next dropout draw are the same bytes."""

    bsz, seq, hidden, heads = 3, 7, 12, 4  # head dim 3: the scale 1/sqrt(3) is inexact

    def key_mask(self, kind):
        if kind == "padded":
            return _padded_allowed([7, 4, 1], self.seq)
        allowed = np.random.default_rng(70).random((self.bsz, self.seq)) < 0.5
        allowed[:, 0] = True  # the span head's {BOS} union span, and gaps
        allowed[1] = False
        allowed[1, [0, 3, 4]] = True
        return allowed

    def run(self, dtype, train, allowed, rows, chain):
        stack = TransformerStack("s", self.hidden, 2, self.heads, 20, 0.2, 0.3,
                                 np.random.default_rng(71), dtype)
        rng = np.random.default_rng(72)
        for t in stack.params.values():  # off the init, so layer norms scale and shift
            t.data = (t.data + rng.normal(0.0, 0.3, t.shape)).astype(dtype)
        x = Tensor(rng.normal(size=(self.bsz, self.seq, self.hidden)).astype(dtype),
                   requires_grad=True)
        drop_rng = np.random.default_rng(73)
        with pytest.MonkeyPatch.context() as mp:
            if chain:
                mp.setattr(T, "attention_block", chain_attention_block)
                mp.setattr(T, "mlp_block", chain_mlp_block)
            out = stack(x, allowed, train=train, rng=drop_rng, rows=rows)
        out.backward(np.random.default_rng(74).normal(size=out.shape))
        return ([out.data, x.grad] + [t.grad for t in stack.params.values()],
                drop_rng.random())

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("train", [True, False], ids=["train", "eval"])
    @pytest.mark.parametrize("mask_kind", ["padded", "scattered"])
    @pytest.mark.parametrize("rows", [None, "rows"])
    def test_stack_bit_identical_to_chain(self, dtype, train, mask_kind, rows):
        # rows: a repeated position, as span padding makes, and a [BOS]-style first row
        at = None if rows is None else np.array([[0, 2, 2], [1, 3, 5], [0, 0, 0]])
        allowed = self.key_mask(mask_kind)
        (fused, fused_draw), (chain, chain_draw) = (
            self.run(dtype, train, allowed, at, c) for c in (False, True))
        assert fused_draw == chain_draw  # the same dropout draws were taken
        for got, want in zip(fused, chain, strict=True):
            assert got.dtype == want.dtype == dtype
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("rows", [None, np.array([[0, 2], [1, 1]])], ids=["all", "rows"])
    def test_attention_block_grad_check(self, rows):
        rng = np.random.default_rng(75)
        shapes = [(8,), (8,), (8, 8), (8,), (8, 8), (8,), (8, 8), (8,), (8, 8), (8,)]
        params = [Tensor(rng.normal(0.0, 0.5, s), requires_grad=True) for s in shapes]
        h = Tensor(rng.normal(size=(2, 4, 8)), requires_grad=True)
        weights = rng.normal(size=(2, 4 if rows is None else 2, 8))
        allowed = _padded_allowed([4, 3], 4)

        def fn(h, *params):
            return (T.attention_block(h, params, allowed, 2, 0.0, 0.0, None, False, rows)
                    * weights).sum()

        # the key bias (params[5]) shifts every score of a query alike: its gradient is 0
        checked = [h] + params[:5] + params[6:]
        assert grad_check(lambda *a: fn(*a[:6], params[5], *a[6:]), checked, eps=1e-6) <= 1e-4

    def test_mlp_block_grad_check(self):
        rng = np.random.default_rng(76)
        shapes = [(8,), (8,), (8, 12), (12,), (12, 8), (8,)]
        params = [Tensor(rng.normal(0.0, 0.5, s), requires_grad=True) for s in shapes]
        h = Tensor(rng.normal(size=(2, 4, 8)), requires_grad=True)
        weights = rng.normal(size=(2, 4, 8))

        def fn(h, *params):
            return (T.mlp_block(h, params, 0.0, None, False) * weights).sum()

        assert grad_check(fn, [h] + params, eps=1e-6) <= 1e-4


class TestBlockedAttention:
    """No-grad attention one sequence at a time against the one-buffer grad
    path. Shapes are small, so the tests shrink ``_SEQUENCE_SCORE_BYTES`` to 0,
    which sends every sequence through the per-sequence kernel; the cases
    below run it in both dtypes."""

    bsz, seq, hid, heads = 7, 9, 12, 4  # head dim 3: the scale is inexact
    atol = {np.float32: 1e-6, np.float64: 1e-12}

    def blocked_and_full(self, monkeypatch, allowed, tq=None, dtype=np.float64):
        rng = np.random.default_rng(40)
        tq = self.seq if tq is None else tq
        data = [rng.normal(size=(self.bsz, t, self.hid)).astype(dtype)
                for t in (tq, self.seq, self.seq)]
        full = T.attention(*(Tensor(d, requires_grad=True) for d in data), allowed,
                           self.heads, 0.0, None, False).numpy()
        monkeypatch.setattr(T, "_SEQUENCE_SCORE_BYTES", 0)
        with T.no_grad():
            blocked = T.attention(*(Tensor(d, requires_grad=True) for d in data), allowed,
                                  self.heads, 0.0, None, False).numpy()
        assert blocked.dtype == full.dtype == dtype
        return blocked, full

    @pytest.mark.parametrize("lengths_case", [1, 2, 3])
    def test_padded_batch_matches_grad_path(self, monkeypatch, lengths_case):
        # mixed lengths; no padding at all; one full sequence among short ones
        lengths = {1: np.array([9, 4, 1, 6, 2, 5, 3]), 2: np.full(7, 9),
                   3: np.array([1, 2, 9, 1, 3, 1, 2])}[lengths_case]
        real = np.arange(self.seq)[None, :] < lengths[:, None]
        for dtype in (np.float32, np.float64):
            blocked, full = self.blocked_and_full(
                monkeypatch, _padded_allowed(lengths, self.seq), dtype=dtype)
            np.testing.assert_allclose(blocked[real], full[real], rtol=0,
                                       atol=self.atol[dtype])
            assert not blocked[~real].any()  # a padded query row attends to nothing

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sequence_with_no_real_key(self, monkeypatch, dtype):
        lengths = np.array([5, 0, 9, 2, 7, 3, 1])
        blocked, full = self.blocked_and_full(
            monkeypatch, _padded_allowed(lengths, self.seq), dtype=dtype)
        atol = self.atol[dtype]
        np.testing.assert_allclose(blocked[1], full[1], rtol=0, atol=atol)  # every row
        real = np.arange(self.seq)[None, :] < lengths[:, None]
        np.testing.assert_allclose(blocked[real], full[real], rtol=0, atol=atol)

    def scattered_keys(self, rng, no_key: bool = True):
        """Key masks with gaps: the span head's {BOS} union span, keys that end
        early, random ones; with ``no_key``, one sequence with no live key."""
        allowed = rng.random((self.bsz, self.seq)) < 0.4
        allowed[:, 0] = True
        allowed[2, 3:] = False  # keys end early
        allowed[4] = False  # the span head's mask: [BOS] and a span
        allowed[4, 0] = allowed[4, 3:6] = True
        if no_key:
            allowed[5] = False
        return allowed

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_scattered_key_masks_match_grad_path(self, monkeypatch, dtype):
        allowed = self.scattered_keys(np.random.default_rng(41))
        blocked, full = self.blocked_and_full(monkeypatch, allowed, dtype=dtype)
        # rows past a sequence's last live key are skipped; one with no live key keeps all
        last = np.where(allowed.any(axis=1), self.seq - 1 - allowed[:, ::-1].argmax(axis=1),
                        self.seq - 1)
        kept = np.arange(self.seq)[None, :] <= last[:, None]
        assert not kept.all() and kept[5].all()
        np.testing.assert_allclose(blocked[kept], full[kept], rtol=0, atol=self.atol[dtype])
        assert not blocked[~kept].any()

    @pytest.mark.parametrize("tq", [8, 3, 1])
    def test_row_restricted_queries_match_grad_path(self, monkeypatch, tq):
        lengths = np.array([9, 4, 1, 6, 2, 5, 3])
        blocked, full = self.blocked_and_full(
            monkeypatch, _padded_allowed(lengths, self.seq), tq=tq)
        np.testing.assert_allclose(blocked, full, rtol=0, atol=1e-12)

    def attend_no_grad(self, arrays, allowed):
        with T.no_grad():
            return T.attention(*(Tensor(a) for a in arrays), allowed, self.heads,
                               0.0, None, False).numpy()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("lengths_case", [1, 2, 3])
    def test_bit_identical_where_no_key_is_trimmed(self, monkeypatch, lengths_case, dtype):
        # each padded sequence gives the bytes of the same sequence run unpadded,
        # where the kernel has no key and no row to trim; its padded rows are zero
        lengths = {1: np.full(7, 9), 2: np.array([9, 4, 9, 9, 2, 9, 9]),
                   3: np.array([2, 9, 4, 9, 1, 3, 9])}[lengths_case]
        rng = np.random.default_rng(45)
        data = [rng.normal(size=(self.bsz, self.seq, self.hid)).astype(dtype) for _ in range(3)]
        monkeypatch.setattr(T, "_SEQUENCE_SCORE_BYTES", 0)  # batch and unpadded runs alike
        batch = self.attend_no_grad(data, _padded_allowed(lengths, self.seq))
        assert batch.dtype == dtype
        for b, n in enumerate(lengths):
            alone = self.attend_no_grad([d[b:b + 1, :n].copy() for d in data],
                                        _padded_allowed([n], n))
            assert alone.tobytes() == batch[b:b + 1, :n].tobytes()
            assert not batch[b, n:].any()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("mask", ["padded", "scattered", "scattered-no-key"])
    def test_each_sequence_gives_the_same_bytes_alone_or_in_a_batch(self, monkeypatch,
                                                                    mask, dtype):
        rng = np.random.default_rng(44)
        if mask == "padded":  # element 1 has no real key
            allowed = _padded_allowed(np.array([9, 0, 4, 1, 6, 9, 3]), self.seq)
        else:
            allowed = self.scattered_keys(rng, no_key=mask == "scattered-no-key")
        data = [rng.normal(size=(self.bsz, self.seq, self.hid)).astype(dtype) for _ in range(3)]
        monkeypatch.setattr(T, "_SEQUENCE_SCORE_BYTES", 0)  # every sequence's scores reach it
        batch = self.attend_no_grad(data, allowed)
        assert batch.dtype == dtype
        for b in range(self.bsz):
            alone = self.attend_no_grad([d[b:b + 1].copy() for d in data],
                                        allowed[b:b + 1].copy())
            assert alone.tobytes() == batch[b:b + 1].tobytes()

    def test_batch_in_one_block_keeps_the_one_buffer_arithmetic(self):
        lengths = np.array([9, 4, 1, 6, 2, 5, 3])
        rng = np.random.default_rng(42)
        data = [rng.normal(size=(self.bsz, self.seq, self.hid)) for _ in range(3)]
        allowed = _padded_allowed(lengths, self.seq)
        full = T.attention(*(Tensor(d, requires_grad=True) for d in data), allowed,
                           self.heads, 0.0, None, False).numpy()
        with T.no_grad():
            out = T.attention(*(Tensor(d) for d in data), allowed,
                              self.heads, 0.0, None, False).numpy()
        assert out.tobytes() == full.tobytes()  # padded rows included

    def test_peak_memory_of_a_no_grad_call(self):
        bsz, seq, hid, heads = 32, 256, 64, 4
        rng = np.random.default_rng(43)
        q, k, v = (Tensor(rng.normal(size=(bsz, seq, hid)).astype(np.float32))
                   for _ in range(3))
        allowed = _padded_allowed(rng.integers(200, seq + 1, bsz), seq)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with T.no_grad():
                out = T.attention(q, k, v, allowed, heads, 0.0, None, False)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert out.shape == (bsz, seq, hid)
        # one batch-sized float32 score buffer alone would take 32 MiB
        assert peak < 8 * 2 ** 20


def _stack64(layers=2, hidden=16, heads=2, intermediate=32, seed=0):
    return TransformerStack("s", hidden, layers, heads, intermediate, 0.1, 0.1,
                            np.random.default_rng(seed), np.float64)


class TestRowRestrictedStack:
    """``rows`` runs the last layer at the read positions only; outputs there
    equal the full stack's."""

    lengths = np.array([7, 5, 3])

    def full_and_input(self, stack, rng):
        x = Tensor(rng.normal(size=(3, 7, stack.hidden)))
        allowed = _padded_allowed(self.lengths, 7)
        return x, allowed, stack(x, allowed).numpy()

    def test_bos_row_matches_full_stack(self):
        stack = _stack64()
        x, allowed, full = self.full_and_input(stack, np.random.default_rng(30))
        out = stack(x, allowed, rows=np.zeros((3, 1), dtype=np.int64)).numpy()
        assert out.shape == (3, 1, 16)
        np.testing.assert_allclose(out, full[:, :1], rtol=0, atol=1e-12)

    def test_span_rows_match_full_stack(self):
        stack = _stack64()
        x, allowed, full = self.full_and_input(stack, np.random.default_rng(31))
        # mixed lengths; the last span ends at its element's last real token
        spans = [(1, 5), (4, 5), (0, 3)]
        rows, local = SpanClsHead.host_rows(spans, 3, 7)
        assert local == [(0, 4), (0, 1), (0, 3)]
        assert rows.tolist() == [[1, 2, 3, 4], [4, 4, 4, 4], [0, 1, 2, 2]]
        out = stack(x, allowed, rows=rows).numpy()
        np.testing.assert_allclose(out, full[np.arange(3)[:, None], rows], rtol=0, atol=1e-12)

    def test_grad_check_through_restricted_layer(self):
        stack = _stack64(layers=1, hidden=8, intermediate=8, seed=32)
        rng = np.random.default_rng(33)
        for t in stack.params.values():  # off the init, so no gradient is tiny
            t.data = t.data + rng.normal(0.0, 0.5, t.shape)
        x = Tensor(rng.normal(size=(2, 4, 8)), requires_grad=True)
        allowed = _padded_allowed([4, 3], 4)
        rows = np.array([[0, 2], [1, 1]])  # a repeated row, as span padding makes
        weights = rng.normal(size=(2, 2, 8))
        names = ["s.layer0.wq", "s.layer0.wk", "s.layer0.wv_b", "s.layer0.ln1_g", "s.ln_f_b"]

        def fn(*_):
            return (stack(x, allowed, rows=rows) * weights).sum()

        assert grad_check(fn, [x] + [stack.params[n] for n in names], eps=1e-6) <= 1e-5


class TestBlockedEncoder:
    """A no-grad eval batch whose attention runs one sequence at a time runs
    ``Encoder.encode`` in blocks of sequences; every output keeps the bytes of
    the same batch run whole. Desk shapes (hidden 64, intermediate 128, 4
    heads) over short sequences, with ``_BLOCK_BYTES`` shrunk so that a block
    holds ``per_block`` sequences and ``_SEQUENCE_SCORE_BYTES`` set to one
    sequence's self-attention scores (0: both are 0, so that the one-row
    queries of the TC heads' last layer run one sequence at a time too)."""

    seq = 64
    lengths = np.array([64, 9, 1, 30, 2, 17, 5])  # one full, short ones and a 1-token one

    def config(self):
        return EncoderConfig(vocab_size=50, hidden_size=64, layers=2, heads=4,
                             intermediate_size=128, max_positions=self.seq)

    def batch(self):
        rng = np.random.default_rng(50)
        mask = np.arange(self.seq)[None, :] < self.lengths[:, None]
        ids = np.where(mask, rng.integers(5, 50, mask.shape), 0)
        starts = rng.integers(0, self.lengths)
        ends = np.minimum(self.lengths, starts + rng.integers(1, 6, len(starts)))
        return ids, mask, list(zip(starts.tolist(), ends.tolist()))

    def shrink(self, monkeypatch, per_block, dtype):
        size = np.dtype(dtype).itemsize
        monkeypatch.setattr(encoder, "_BLOCK_BYTES", self.seq * 128 * size * per_block)
        scores = 4 * self.seq * self.seq * size if per_block else 0
        monkeypatch.setattr(T, "_SEQUENCE_SCORE_BYTES", scores)

    def outputs(self, dtype):
        vocab = Vocab([f"w{i}" for i in range(50 - len(SPECIAL_TOKENS))])
        ids, mask, spans = self.batch()
        tagger = SiTagger(self.config(), vocab, seed=1, dtype=dtype)
        with T.no_grad():
            out = {"emissions": tagger.emissions(ids, mask).numpy()}
        out["paths"] = tagger.decode(ids, mask, self.lengths)
        for seed, head in enumerate(("marker", "span_cls")):
            model = TcClassifier(self.config(), vocab, ["a", "b", "c"], head, seed=seed,
                                 dtype=dtype)
            out[head] = model.probs(ids, mask, spans)
        return out

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("per_block", [0, 1, 2, 3])
    def test_blocks_give_the_bytes_of_the_whole_batch(self, monkeypatch, per_block, dtype):
        self.shrink(monkeypatch, per_block, dtype)
        blocked = self.outputs(dtype)
        monkeypatch.setattr(Encoder, "_blocks", lambda *args: [slice(None)])
        whole = self.outputs(dtype)
        assert blocked["paths"] == whole["paths"]
        for name in ("emissions", "marker", "span_cls"):
            assert blocked[name].dtype == dtype
            assert blocked[name].tobytes() == whole[name].tobytes(), name

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("per_block,sizes,one_row_sizes", [
        (0, [1] * 7, [3, 2, 2]), (1, [1] * 7, [3, 2, 2]),
        (2, [2, 2, 2, 1], [3, 2, 2]), (3, [3, 2, 2], [3, 2, 2])])
    def test_block_sizes(self, monkeypatch, dtype, per_block, sizes, one_row_sizes):
        # as few blocks as hold per_block each, sizes within one of each other; a
        # block of one sequence whose rows have one position would run gemv, so
        # then at most 7 // 2 blocks are cut
        self.shrink(monkeypatch, per_block, dtype)
        enc = Encoder(self.config(), seed=None, dtype=dtype)
        bos = np.zeros((7, 1), dtype=np.int64)
        with T.no_grad():
            for rows, want in ((None, sizes), (np.zeros((7, 2)), sizes), (bos, one_row_sizes)):
                blocks = enc._blocks(7, self.seq, rows, False)
                assert [len(range(7)[s]) for s in blocks] == want
            assert enc._blocks(7, self.seq, None, True) == [slice(None)]  # train
        assert enc._blocks(7, self.seq, None, False) == [slice(None)]  # graph recorded

    def test_blocks_reach_linear_and_attention(self, monkeypatch):
        # the linears and the attention run inside T.attention_block and T.mlp_block:
        # a batch within one block reaches them whole, a larger one block by block
        seen = []
        for name in ("attention_block", "mlp_block"):
            op = getattr(T, name)
            monkeypatch.setattr(T, name, lambda x, *a, _op=op, **kw: seen.append(
                x.shape[0]) or _op(x, *a, **kw))
        enc = Encoder(self.config(), seed=0)
        ids, mask, _ = self.batch()
        with T.no_grad():
            enc.encode(ids, mask)
            assert seen and set(seen) == {7}
            seen.clear()
            self.shrink(monkeypatch, 2, np.float32)
            enc.encode(ids, mask)
        assert len(seen) == 4 * 4 and set(seen) == {2, 1}  # blocks 2, 2, 2, 1; 4 calls each
        assert seen[-4:] == [1] * 4


class TestKernelBySequence:
    """At the default bound the no-grad attention kernel follows a sequence's
    shape, never its batch size. Desk shapes (hidden 64, 4 heads), full-length
    256-token windows."""

    seq, n = 256, 8

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_each_window_gives_the_same_bytes_alone_in_a_pair_or_in_eight(self, dtype):
        rng = np.random.default_rng(60)
        qkv = [rng.normal(size=(self.n, self.seq, 64)).astype(dtype) for _ in range(3)]
        ids = rng.integers(5, 50, (self.n, self.seq))
        mask, lengths = np.ones(ids.shape, dtype=bool), np.full(self.n, self.seq)
        config = EncoderConfig(vocab_size=50, hidden_size=64, layers=2, heads=4,
                               intermediate_size=128, max_positions=self.seq)
        tagger = SiTagger(config, Vocab([f"w{i}" for i in range(50 - len(SPECIAL_TOKENS))]),
                          seed=1, dtype=dtype)

        def run(s):
            with T.no_grad():
                attn = T.attention(*(Tensor(a[s]) for a in qkv), mask[s], 4, 0.0, None, False)
                emissions = tagger.emissions(ids[s], mask[s])
            return [attn.numpy(), emissions.numpy(), tagger.decode(ids[s], mask[s], lengths[s])]

        eight = run(slice(None))
        assert eight[1].dtype == dtype
        for start, size in [(b, 1) for b in range(self.n)] + [(b, 2) for b in range(0, self.n, 2)]:
            for i, (attn, emissions, path) in enumerate(zip(*run(slice(start, start + size)))):
                assert attn.tobytes() == eight[0][start + i].tobytes()
                assert emissions.tobytes() == eight[1][start + i].tobytes()
                assert path == eight[2][start + i]

    @pytest.mark.parametrize("shape,per_sequence", [
        pytest.param((1, 256), True, id="1x256"), pytest.param((32, 54), False, id="32x54")])
    def test_per_sequence_kernel_runs_by_sequence_shape(self, monkeypatch, shape, per_sequence):
        # 1x256: one annotation window alone; 32x54: a TC dev-evaluation batch
        calls = []
        kernel = T._attend_per_sequence
        monkeypatch.setattr(T, "_attend_per_sequence",
                            lambda *args: calls.append(args[0].shape) or kernel(*args))
        rng = np.random.default_rng(61)
        q, k, v = (Tensor(rng.normal(size=shape + (64,)).astype(np.float32)) for _ in range(3))
        with T.no_grad():
            T.attention(q, k, v, np.ones(shape, dtype=bool), 4, 0.0, None, False)
        assert bool(calls) == per_sequence


class TestHeads:
    def make_hidden(self, rng, bsz=2, seq=7, hid=16):
        return Tensor(rng.normal(size=(bsz, seq, hid)).astype(np.float32))

    def test_emission_shape_and_zero_weights(self):
        rng = np.random.default_rng(5)
        head = LinearHead("emit", 16, 3, rng)
        h = self.make_hidden(rng)
        out = head(h)
        assert out.shape == (2, 7, 3)
        head.params["emit.w"].data[:] = 0
        head.params["emit.b"].data[:] = 0
        np.testing.assert_allclose(head(h).numpy(), 0.0)

    def test_marker_head_reads_bos(self):
        rng = np.random.default_rng(6)
        head = LinearHead("cls", 16, 4, rng)
        h = self.make_hidden(rng)
        out = head(h[:, 0, :])
        assert out.shape == (2, 4)
        h2 = Tensor(np.concatenate([h.numpy()[:, :1],
                                    rng.normal(size=(2, 6, 16)).astype(np.float32)],
                                   axis=1))
        np.testing.assert_allclose(head(h2[:, 0, :]).numpy(), out.numpy(), atol=0)

    def test_span_cls_ignores_out_of_span_states(self):
        rng = np.random.default_rng(7)
        head = SpanClsHead(16, 4, SpanClsConfig(layers=2, heads=2, intermediate_size=32),
                           rng, dropout=0.0, attention_dropout=0.0)
        h = self.make_hidden(rng, bsz=1)
        spans = [(2, 5)]
        out = head.logits(h, spans).numpy()
        perturbed = h.numpy().copy()
        perturbed[0, 0] += 10.0
        perturbed[0, 6] -= 3.0
        out2 = head.logits(Tensor(perturbed), spans).numpy()
        assert out.tobytes() == out2.tobytes()  # construction only reads span states

    def test_span_cls_single_token_span(self):
        rng = np.random.default_rng(8)
        head = SpanClsHead(16, 3, SpanClsConfig(layers=1, heads=2, intermediate_size=32),
                           rng, dropout=0.0, attention_dropout=0.0)
        h = self.make_hidden(rng, bsz=1)
        out = head.logits(h, [(4, 5)])
        assert out.shape == (1, 3)

    def test_span_cls_empty_span_rejected(self):
        rng = np.random.default_rng(9)
        head = SpanClsHead(16, 3, SpanClsConfig(layers=1, heads=2, intermediate_size=32), rng)
        h = self.make_hidden(rng, bsz=1)
        with pytest.raises(ValueError):
            head.logits(h, [(3, 3)])

    @pytest.mark.parametrize("train", [False, True])
    def test_span_cls_mixed_lengths_match_single_spans(self, train):
        rng = np.random.default_rng(10)
        head = SpanClsHead(16, 3, SpanClsConfig(layers=1, heads=2, intermediate_size=32),
                           rng, dropout=0.0, attention_dropout=0.0)
        h = self.make_hidden(rng, bsz=4)
        spans = [(0, 3), (1, 2), (2, 6), (4, 5)]  # three distinct lengths interleaved
        drop = np.random.default_rng(0)
        batched = head.logits(h, spans, train=train, rng=drop).numpy()
        for i, sp in enumerate(spans):
            single = head.logits(Tensor(h.numpy()[i:i + 1]), [sp], train=train,
                                 rng=drop).numpy()
            np.testing.assert_allclose(batched[i], single[0], atol=1e-6)

    def test_grad_check_mixed_span_lengths(self):
        rng = np.random.default_rng(13)
        head = SpanClsHead(8, 3, SpanClsConfig(layers=2, heads=2, intermediate_size=8),
                           rng, dropout=0.0, attention_dropout=0.0, dtype=np.float64)
        for t in head.params.values():  # off the init, so no gradient is tiny
            t.data = t.data + rng.normal(0.0, 0.5, t.shape)
        h = Tensor(rng.normal(size=(3, 5, 8)), requires_grad=True)
        spans = [(0, 2), (3, 4), (1, 5)]
        weights = rng.normal(size=(3, 3))
        names = ["span.bos", "span.layer0.wk", "span.layer1.wv_b", "span.layer1.ln2_g",
                 "span.ln_f_b", "span.w"]

        def fn(*_):
            return (head.logits(h, spans) * weights).sum()

        assert grad_check(fn, [h] + [head.params[n] for n in names], eps=1e-6) <= 1e-5

    def test_span_cls_host_gradient_zero_outside_spans(self):
        rng = np.random.default_rng(14)
        head = SpanClsHead(16, 3, SpanClsConfig(layers=2, heads=2, intermediate_size=32),
                           rng, dtype=np.float64)
        spans = [(1, 5), (4, 5), (0, 3)]
        full = rng.normal(size=(3, 7, 16))
        rows, local = SpanClsHead.host_rows(spans, 3, 7)
        # the host states as the model hands them over (span padding repeats
        # the last token), and the whole host sequence
        for hidden, sp in ((full[np.arange(3)[:, None], rows], local), (full, spans)):
            h = Tensor(hidden, requires_grad=True)
            logits = head.logits(h, sp, train=True, rng=np.random.default_rng(0))
            (logits * rng.normal(size=logits.shape)).sum().backward()
            inside = np.zeros(h.shape[:2], dtype=bool)
            for i, (s, e) in enumerate(sp):
                inside[i, s:e] = True
            assert (h.grad[~inside] == 0.0).all()
            assert (np.abs(h.grad[inside]).max(axis=-1) > 0).all()


def test_span_cls_equals_masked_full_sequence_100_configs(masked_full_logits):
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        hid = 16
        seq = int(rng.integers(3, 12))
        s = int(rng.integers(0, seq - 1))
        e = int(rng.integers(s + 1, seq + 1))
        head = SpanClsHead(hid, 5,
                           SpanClsConfig(layers=2, heads=2, intermediate_size=24),
                           np.random.default_rng(int(rng.integers(1 << 30))),
                           dropout=0.0, attention_dropout=0.0)
        h = Tensor(rng.normal(size=(seq, hid)).astype(np.float32))
        out = head.logits(T.reshape(h, (1, seq, hid)), [(s, e)]).numpy()
        masked_out = masked_full_logits(head, h, (s, e)).numpy()
        # the definition: the stack over [BOS] and the span's states alone
        subset_out = head.logits(T.reshape(h[s:e], (1, e - s, hid)), [(0, e - s)]).numpy()
        worst = max(worst, float(np.abs(out - masked_out).max()),
                    float(np.abs(out - subset_out).max()))
    assert worst <= 1e-6


def test_span_cls_order_information_comes_only_from_host_states():
    # identical multisets of host vectors in different order give identical logits
    rng = np.random.default_rng(12)
    head = SpanClsHead(16, 3, SpanClsConfig(layers=2, heads=2, intermediate_size=32),
                       rng, dropout=0.0, attention_dropout=0.0)
    vecs = rng.normal(size=(4, 16)).astype(np.float32)
    h1 = Tensor(vecs[None])
    h2 = Tensor(vecs[::-1].copy()[None])
    out1 = head.logits(h1, [(0, 4)]).numpy()
    out2 = head.logits(h2, [(0, 4)]).numpy()
    np.testing.assert_allclose(out1, out2, atol=1e-6)


def test_encoder_gradients_flow_end_to_end():
    cfg = small_config(vocab=12, hidden_size=8, layers=1, heads=2,
                       intermediate_size=16, dropout=0.0, attention_dropout=0.0)
    enc = Encoder(cfg, seed=13, dtype=np.float64)
    ids = np.array([[1, 3, 5]])
    mask = np.ones((1, 3), dtype=bool)

    def fn(*params):
        out = enc.encode(ids, mask)
        return (out * out).sum()

    names = sorted(enc.params)
    tensors = [enc.params[n] for n in names]
    for t in tensors:
        t.data = t.data.astype(np.float64)
    err = grad_check(fn, tensors[:3], eps=1e-6)  # spot-check a few parameters
    assert err <= 1e-4


def _graph_nodes(root) -> int:
    """Op nodes reachable from ``root`` along ``requires_grad`` parents."""
    seen, stack, nodes = set(), [root], 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._parents:
            nodes += 1
            stack.extend(p for p in node._parents if p.requires_grad)
    return nodes


def _tiny_batch():
    lengths = np.array([4, 3])
    ids = np.array([[2, 7, 8, 9, 0], [3, 10, 11, 0, 0]])
    mask = np.arange(5)[None, :] < lengths[:, None]
    return ids, mask, lengths


def test_si_loss_graph_node_count():
    # each layer is two nodes (T.attention_block, T.mlp_block) and the CRF NLL
    # one node; a regrown op chain changes this count
    from propspan.models import SiTagger
    from propspan.tokens import Vocab
    vocab = Vocab([f"w{i}" for i in range(10)])
    cfg = small_config(vocab=len(vocab), max_positions=8)
    model = SiTagger(cfg, vocab, seed=0)
    ids, mask, lengths = _tiny_batch()
    tags = np.zeros((2, 5), dtype=np.int64)
    loss = model.loss(ids, mask, tags, lengths, train=True, rng=np.random.default_rng(0))
    assert _graph_nodes(loss) == 13


def test_span_cls_loss_graph_node_count():
    from propspan.losses import reweighted_bce, uniform_weights
    from propspan.models import TcClassifier
    from propspan.tokens import Vocab
    vocab = Vocab([f"w{i}" for i in range(10)])
    cfg = small_config(vocab=len(vocab), max_positions=8)
    model = TcClassifier(cfg, vocab, ["a", "b", "c"], head_kind="span_cls",
                         span_cfg=SpanClsConfig(layers=2, heads=2, intermediate_size=32))
    ids, mask, _ = _tiny_batch()
    logits = model.logits(ids, mask, [(1, 3), (0, 2)], train=True,
                          rng=np.random.default_rng(0))
    targets = np.array([[0, 1, 0], [0, 0, 1]])
    loss = reweighted_bce(T.sigmoid(logits), targets, uniform_weights(3))
    assert _graph_nodes(loss) == 28
