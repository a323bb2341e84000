import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from propspan import encoder as encoder_mod
from propspan import pipeline as pl
from propspan import tensor as T
from propspan.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from propspan.encoder import EncoderConfig, SpanClsConfig
from propspan.losses import class_weights, reweighted_bce
from propspan.models import SiTagger, TcClassifier
from propspan.tokens import BOP, BOS, EOP, EOS, PAD, Span, Vocab


def tiny_cfg(vocab_size, **kw):
    base = dict(vocab_size=vocab_size, hidden_size=16, layers=1, heads=2,
                intermediate_size=24, max_positions=16, dropout=0.0,
                attention_dropout=0.0)
    base.update(kw)
    return EncoderConfig(**base)


@pytest.fixture
def vocab():
    return Vocab([f"w{i}" for i in range(20)])


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=8)


class TestCheckpointFormat:
    def test_magic_and_round_trip(self, tmp_path):
        path = tmp_path / "m.spfg"
        tensors = {"a": np.arange(6, dtype=np.float32).reshape(2, 3),
                   "b": np.ones(4, dtype=np.float32)}
        save_checkpoint(path, tensors, {"kind": "x"}, {"note": 1})
        raw = path.read_bytes()
        assert raw.startswith(MAGIC)
        loaded, config, meta = load_checkpoint(path)
        assert config == {"kind": "x"} and meta == {"note": 1}
        for name in tensors:
            np.testing.assert_array_equal(loaded[name], tensors[name])

    def test_payloads_little_endian_f4(self, tmp_path):
        path = tmp_path / "m.spfg"
        save_checkpoint(path, {"t": np.array([1.0], dtype=np.float64)}, {})
        import json, struct
        raw = path.read_bytes()
        (hlen,) = struct.unpack_from("<Q", raw, len(MAGIC))
        header = json.loads(raw[len(MAGIC) + 8:len(MAGIC) + 8 + hlen])
        assert header["tensors"][0]["dtype"] == "<f8"
        save_checkpoint(path, {"t": np.array([1.0], dtype=np.float32)}, {})
        raw = path.read_bytes()
        (hlen,) = struct.unpack_from("<Q", raw, len(MAGIC))
        header = json.loads(raw[len(MAGIC) + 8:len(MAGIC) + 8 + hlen])
        assert header["tensors"][0]["dtype"] == "<f4"
        assert header["tensors"][0]["shape"] == [1]

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_byte_identical_for_same_tensors(self, tmp_path):
        tensors = {"w": np.random.default_rng(0).normal(size=(3, 3)).astype(np.float32)}
        save_checkpoint(tmp_path / "a", tensors, {"c": 1}, {"m": 2})
        save_checkpoint(tmp_path / "b", tensors, {"c": 1}, {"m": 2})
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()

    @settings(max_examples=150, deadline=None)
    @given(st.dictionaries(
               st.text(max_size=8),
               hnp.arrays(st.sampled_from([np.float32, np.float64]),
                          hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)),
               max_size=5),
           st.dictionaries(st.text(max_size=6), _JSON, max_size=4),
           st.dictionaries(st.text(max_size=6), _JSON, max_size=4))
    def test_round_trip_property(self, tensors, config, meta):
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp) / "a", Path(tmp) / "b"
            save_checkpoint(first, tensors, config, meta)
            loaded, got_config, got_meta = load_checkpoint(first)
            assert got_config == config and got_meta == meta
            assert sorted(loaded) == sorted(tensors)
            for name, arr in tensors.items():
                assert loaded[name].dtype == arr.dtype and loaded[name].shape == arr.shape
                assert loaded[name].tobytes() == arr.tobytes()  # NaN payloads too
            save_checkpoint(second, loaded, got_config, got_meta)
            assert second.read_bytes() == first.read_bytes()


class TestSiTagger:
    def test_save_load_round_trip(self, tmp_path, vocab):
        model = SiTagger(tiny_cfg(len(vocab)), vocab, seed=1)
        path = tmp_path / "si.spfg"
        model.save(path, meta={"k": "v"})
        loaded = SiTagger.load(path)
        assert loaded.vocab.itos == model.vocab.itos
        assert loaded.use_crf == model.use_crf
        for name, p in model.params().items():
            np.testing.assert_array_equal(loaded.params()[name].data, p.data)
        ids = np.array([[6, 7, 8]])
        mask = np.ones((1, 3), dtype=bool)
        assert loaded.decode(ids, mask, np.array([3])) == \
            model.decode(ids, mask, np.array([3]))

    def test_shape_validation_on_load(self, tmp_path, vocab):
        model = SiTagger(tiny_cfg(len(vocab)), vocab, seed=1)
        path = tmp_path / "si.spfg"
        model.save(path)
        tensors, config, meta = load_checkpoint(path)
        tensors["emit.w"] = tensors["emit.w"][:, :2]
        save_checkpoint(path, tensors, config, meta)
        with pytest.raises(ValueError, match="emit.w"):
            SiTagger.load(path)

    def test_decode_respects_bio_constraint(self, vocab):
        model = SiTagger(tiny_cfg(len(vocab)), vocab, seed=2)
        rng = np.random.default_rng(0)
        ids = rng.integers(6, len(vocab), (4, 8))
        mask = np.ones((4, 8), dtype=bool)
        for path in model.decode(ids, mask, np.full(4, 8)):
            assert path[0] != 2
            for a, b in zip(path, path[1:]):
                assert not (a == 0 and b == 2)

    @pytest.mark.parametrize("use_crf", [True, False])
    def test_decode_rows_match_single_row_decoding(self, vocab, use_crf):
        from propspan import crf
        model = SiTagger(tiny_cfg(len(vocab)), vocab, use_crf=use_crf, seed=3)
        rng = np.random.default_rng(1)
        lengths = np.array([8, 0, 5, 1])
        ids = rng.integers(6, len(vocab), (4, 8))
        mask = np.arange(8)[None, :] < lengths[:, None]
        paths = model.decode(ids, mask, lengths)
        with T.no_grad():
            em = model.emissions(ids, mask).numpy()
        for i, ln in enumerate(lengths):
            if ln == 0:
                want = []
            elif use_crf:
                want, _ = crf.viterbi(em[i, :ln], model.crf, model.constraint)
            else:
                want = em[i, :ln].argmax(axis=-1).tolist()
            assert paths[i] == want

    @pytest.mark.parametrize("use_crf", [True, False])
    def test_non_finite_emissions_raise(self, vocab, use_crf):
        model = SiTagger(tiny_cfg(len(vocab)), vocab, use_crf=use_crf, seed=4)
        model.encoder.params["emb.tok"].data[9] = np.nan
        ids = np.array([[6, 7, 8], [6, 9, 7], [6, 7, 8]])  # id 9 only in row 1
        lengths = np.array([3, 3, 0])
        mask = np.arange(3)[None, :] < lengths[:, None]
        with pytest.raises(RuntimeError, match="non-finite emissions in row 1"):
            model.decode(ids, mask, lengths)

    def test_vocab_size_mismatch_rejected(self, vocab):
        with pytest.raises(ValueError):
            SiTagger(tiny_cfg(len(vocab) + 5), vocab)

    def test_wrong_kind_checkpoint_rejected(self, tmp_path, vocab):
        model = TcClassifier(tiny_cfg(len(vocab)), vocab, ["A"], seed=0)
        model.save(tmp_path / "tc.spfg")
        with pytest.raises(ValueError):
            SiTagger.load(tmp_path / "tc.spfg")


@pytest.mark.parametrize("kind", ["si", "marker", "span_cls"])
def test_load_draws_no_initial_weights(tmp_path, vocab, monkeypatch, kind):
    if kind == "si":
        model, load = SiTagger(tiny_cfg(len(vocab)), vocab, seed=2), SiTagger.load
    else:
        model = TcClassifier(tiny_cfg(len(vocab)), vocab, ["A", "B"], head_kind=kind,
                             span_cfg=SpanClsConfig(layers=1, heads=2, intermediate_size=16),
                             seed=2)
        load = TcClassifier.load
    path = tmp_path / "m.spfg"
    model.save(path)

    def no_draw(*args):
        raise AssertionError("a load drew initial weights")
    monkeypatch.setattr(encoder_mod, "_init", no_draw)
    loaded = load(path).params()
    assert loaded.keys() == model.params().keys()
    for name, p in model.params().items():
        assert loaded[name].data.dtype == p.data.dtype
        assert loaded[name].data.tobytes() == p.data.tobytes(), name


class TestTcClassifier:
    @pytest.mark.parametrize("head", ["marker", "span_cls"])
    def test_save_load_round_trip(self, tmp_path, vocab, head):
        span_cfg = SpanClsConfig(layers=1, heads=2, intermediate_size=16)
        model = TcClassifier(tiny_cfg(len(vocab)), vocab, ["A", "B", "C"],
                             head_kind=head, span_cfg=span_cfg, seed=3)
        path = tmp_path / "tc.spfg"
        model.save(path)
        loaded = TcClassifier.load(path)
        assert loaded.labels == ["A", "B", "C"]
        assert loaded.head_kind == head
        ids = np.array([[6, 7, 8, 9]])
        mask = np.ones((1, 4), dtype=bool)
        spans = [(1, 3)]
        np.testing.assert_array_equal(loaded.probs(ids, mask, spans),
                                      model.probs(ids, mask, spans))

    def test_probs_in_unit_interval(self, vocab):
        model = TcClassifier(tiny_cfg(len(vocab)), vocab, ["A", "B"], seed=4)
        ids = np.array([[6, 7, 8], [9, 10, 11]])
        mask = np.ones((2, 3), dtype=bool)
        probs = model.probs(ids, mask, [(1, 2), (1, 3)])
        assert probs.shape == (2, 2)
        assert ((probs > 0) & (probs < 1)).all()

    def test_span_cls_requires_spans(self, vocab):
        model = TcClassifier(tiny_cfg(len(vocab)), vocab, ["A"],
                             head_kind="span_cls",
                             span_cfg=SpanClsConfig(layers=1, heads=2,
                                                    intermediate_size=16))
        with pytest.raises(TypeError, match="spans"):
            model.logits(np.array([[6, 7]]), np.ones((1, 2), dtype=bool))

    @pytest.mark.parametrize("head", ["marker", "span_cls"])
    def test_inputs_lay_out_each_head(self, head):
        vocab = Vocab(["a", "b", "c", "d", "e"])
        model = TcClassifier(tiny_cfg(len(vocab)), vocab, ["A"], head_kind=head,
                             span_cfg=SpanClsConfig(layers=1, heads=2, intermediate_size=16))
        items = [pl.TcItem("1", ["a", "b", "c", "d"], 1, 3, 0, Span("1", 2, 5)),
                 pl.TcItem("1", ["e", "a"], 0, 1, 0, Span("1", 0, 1))]
        ids, mask, spans = model.inputs(items)
        words = [[vocab.itos[i] for i in row[m]] for row, m in zip(ids, mask)]
        if head == "marker":
            assert words == [[BOS, "a", BOP, "b", "c", EOP, "d", EOS],
                             [BOS, BOP, "e", EOP, "a", EOS]]
        else:
            assert words == [[BOS, "a", "b", "c", "d", EOS], [BOS, "e", "a", EOS]]
        assert [w[s:e] for w, (s, e) in zip(words, spans)] == [["b", "c"], ["e"]]
        assert (ids[~mask] == vocab.stoi[PAD]).all()

    def test_unknown_head_rejected(self, vocab):
        with pytest.raises(ValueError):
            TcClassifier(tiny_cfg(len(vocab)), vocab, ["A"], head_kind="bilinear")

    def test_same_seed_same_init(self, vocab):
        a = TcClassifier(tiny_cfg(len(vocab)), vocab, ["A", "B"], seed=7)
        b = TcClassifier(tiny_cfg(len(vocab)), vocab, ["A", "B"], seed=7)
        for name, p in a.params().items():
            assert p.data.tobytes() == b.params()[name].data.tobytes()


def graph_nodes(out):
    """Every node reachable from ``out``, constants and leaves included."""
    seen, stack, nodes = set(), [out], []
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


def train_loss(kind, vocab, dtype):
    """One train-mode loss (dropout on) of each model and head the pipeline trains."""
    cfg = tiny_cfg(len(vocab), layers=2, dropout=0.1, attention_dropout=0.1)
    rng = np.random.default_rng(0)
    ids = rng.integers(6, len(vocab), (3, 7))
    mask = np.ones((3, 7), dtype=bool)
    drop = np.random.default_rng(1)
    if kind.startswith("si"):
        model = SiTagger(cfg, vocab, use_crf=kind == "si_crf", seed=1, dtype=dtype)
        loss = model.loss(ids, mask, rng.integers(0, 3, (3, 7)), np.array([7, 5, 3]),
                          train=True, rng=drop)
    else:
        model = TcClassifier(cfg, vocab, ["A", "B", "C"], head_kind=kind[3:],
                             span_cfg=SpanClsConfig(layers=1, heads=2, intermediate_size=16),
                             seed=3, dtype=dtype)
        logits = model.logits(ids, mask, [(1, 3), (0, 2), (2, 6)], train=True, rng=drop)
        loss = reweighted_bce(logits, np.eye(3), class_weights([3, 1, 2]))
    return model, loss


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind", ["si_crf", "si_no_crf", "tc_marker", "tc_span_cls"])
def test_train_graph_keeps_model_dtype(vocab, kind, dtype):
    model, loss = train_loss(kind, vocab, dtype)
    bad = {str(n) for n in graph_nodes(loss) if n.dtype != dtype}
    assert not bad
    loss.backward()
    grads = {name: p.grad.dtype for name, p in model.params().items() if p.grad is not None}
    assert set(model.encoder.params) <= set(grads)  # the CRF is idle without use_crf
    assert set(grads.values()) == {np.dtype(dtype)}


@pytest.mark.parametrize("head_kind", ["marker", "span_cls"])
def test_tc_logits_equal_full_encoder_read(vocab, head_kind):
    # the encoder's last layer runs only at the rows the head reads; the head
    # over the full encoder output is the oracle
    model = TcClassifier(tiny_cfg(len(vocab), layers=2), vocab, ["A", "B", "C"],
                         head_kind=head_kind,
                         span_cfg=SpanClsConfig(layers=2, heads=2, intermediate_size=16),
                         seed=5, dtype=np.float64)
    lengths = np.array([8, 5, 3, 6])
    ids = np.random.default_rng(6).integers(6, len(vocab), (4, 8))
    mask = np.arange(8)[None, :] < lengths[:, None]
    spans = [(1, 7), (4, 5), (0, 3), (2, 6)]  # mixed lengths; (0, 3) ends at the last real token
    with T.no_grad():
        full = model.encoder.encode(ids, mask)
        oracle = (model.head(full[:, 0, :]) if head_kind == "marker"
                  else model.head.logits(full, spans))
        got = model.logits(ids, mask, spans)
    assert got.shape == (4, 3)
    np.testing.assert_allclose(got.numpy(), oracle.numpy(), rtol=0, atol=1e-12)
