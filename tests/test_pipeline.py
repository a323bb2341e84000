import json
import os
import time
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from propspan import pipeline as pl
from propspan import tensor as T
from propspan.cli import main
from propspan.datasets import SpanDataset
from propspan.encoder import EncoderConfig, SpanClsConfig
from propspan.metrics import micro_f1
from propspan.models import TcClassifier
from propspan.pipeline import (EvalPoint, HyperParams, TcOptions, _fit, annotate_si,
                               blas_threads, build_si_windows, build_tc_items,
                               build_tc_silver, cross_validate, derive_seed,
                               desk_encoder_config, ensemble_predict, kfold_split,
                               mean_probs, member_probs, mix_with_silver,
                               partition_pool, predict_tc_probs,
                               self_train_overwrite, self_train_si, subset_scores,
                               train_si, train_tc, _forked)
from propspan.synth import SynthConfig, gen_synth
from propspan.tensor import Tensor
from propspan.tokens import Span, Vocab


def fast_hp(task, **kw):
    base = dict(steps=60, eval_every=30, max_seq_len=32)
    base.update(kw)
    return replace(HyperParams.desk(task), **base)


def tiny_corpus(**kw):
    base = dict(n_train=12, n_dev=6, n_pool=8, technique_count=2, seed=5,
                sentences_per_article=(2, 3), sentence_length=(5, 8))
    base.update(kw)
    return gen_synth(SynthConfig(**base))


def small_encoder(hp):
    return replace(desk_encoder_config(1, hp), hidden_size=16, layers=1, heads=2,
                   intermediate_size=24)


class TestHyperParams:
    def test_paper_profile_matches_published_values(self):
        si = HyperParams.paper("si")
        assert (si.batch_size, si.lr, si.steps) == (8, 5e-4, 60_000)
        assert (si.optimizer, si.momentum) == ("sgd", 0.9)
        assert (si.dropout, si.attention_dropout, si.max_seq_len) == (0.1, 0.1, 256)
        tc = HyperParams.paper("tc")
        assert (tc.batch_size, tc.lr, tc.steps) == (16, 2e-5, 20_000)
        assert (tc.optimizer, tc.weight_decay) == ("adamw", 0.01)

    def test_desk_profile_steps(self):
        assert HyperParams.desk("si").steps == 2000
        assert HyperParams.desk("tc").steps == 1000

    def test_overwrite_fields(self):
        hp = self_train_overwrite(HyperParams.paper("si"))
        assert (hp.dropout, hp.attention_dropout, hp.batch_size) == (0.0, 0.0, 16)
        assert hp.lr == 5e-4  # untouched

    def test_unknown_task_rejected(self):
        with pytest.raises(ValueError, match="'ner'"):
            replace(HyperParams.desk("si"), task="ner")
        with pytest.raises(ValueError, match="'ner'"):
            HyperParams(task="ner")
        with pytest.raises(ValueError, match="'ner'"):
            HyperParams.paper("ner")

    @pytest.mark.parametrize("field", ["max_seq_len", "eval_every"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_lengths_and_cadence_must_be_positive(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be >= 1"):
            replace(HyperParams.desk("si"), **{field: value})

    def test_unknown_optimizer_rejected(self):
        with pytest.raises(ValueError, match="rmsprop"):
            replace(HyperParams.desk("tc"), optimizer="rmsprop")


class TestWindows:
    def test_windows_split_at_newlines(self):
        data = SpanDataset(articles={"a": "one two three\nfour five\nsix"}, spans=[])
        wins = build_si_windows(data, max_len=4)
        assert [len(w.tokens) for w in wins] == [3, 3]  # line1 | line2+line3
        assert [t.surface for t in wins[1].tokens] == ["four", "five", "six"]

    def test_oversize_line_hard_split(self):
        data = SpanDataset(articles={"a": " ".join(f"w{i}" for i in range(10))}, spans=[])
        wins = build_si_windows(data, max_len=4)
        assert [len(w.tokens) for w in wins] == [4, 4, 2]

    def test_tags_follow_spans(self):
        text = "aa bb cc\ndd ee"
        data = SpanDataset(articles={"a": text}, spans=[Span("a", 3, 8)])
        wins = build_si_windows(data, max_len=3)
        assert wins[0].tags == [0, 1, 2]
        assert wins[1].tags == [0, 0]

    @pytest.mark.parametrize("max_len", [0, -3])
    def test_non_positive_max_len_rejected(self, max_len):
        data = SpanDataset(articles={"a": "one two"}, spans=[])
        with pytest.raises(ValueError, match="max_len must be >= 1"):
            build_si_windows(data, max_len)

    @settings(max_examples=300, deadline=None)
    @given(articles=st.lists(st.lists(st.integers(0, 12), max_size=6), min_size=1,
                             max_size=4),
           max_len=st.integers(1, 8))
    def test_packing_invariants(self, articles, max_len):
        # article i holds lines of the given token counts; line_of maps each
        # token of the article to the index of its line
        texts, line_of = {}, {}
        for i, lines in enumerate(articles):
            aid = f"a{i}"
            texts[aid] = "\n".join(" ".join(f"w{j}" for j in range(n)) for n in lines)
            line_of[aid] = [k for k, n in enumerate(lines) for _ in range(n)]
        data = SpanDataset(articles=texts, spans=[])
        windows = build_si_windows(data, max_len)
        for aid, lines in zip(texts, articles):
            mine = [w for w in windows if w.article_id == aid]
            assert all(1 <= len(w.tokens) <= max_len for w in mine)
            assert tuple(t for w in mine for t in w.tokens) == data.tokenized[aid].tokens
            cut = 0
            for w in mine[:-1]:  # the boundary after w sits between cut-1 and cut
                cut += len(w.tokens)
                line = line_of[aid][cut]
                if line_of[aid][cut - 1] == line:
                    assert lines[line] > max_len


class TestMixWithSilver:
    def test_ratio_oversamples_gold(self):
        mixed = mix_with_silver(["g"], ["s"] * 8, (1, 4))
        assert mixed.count("g") == 2 and mixed.count("s") == 8

    def test_none_ratio_concatenates(self):
        assert mix_with_silver(["g"], ["s", "s"], None) == ["g", "s", "s"]

    def test_no_silver_returns_gold(self):
        assert mix_with_silver(["g1", "g2"], [], (1, 4)) == ["g1", "g2"]

    def test_all_silver_kept_without_filtering(self):
        silver = [f"s{i}" for i in range(17)]
        mixed = mix_with_silver(["g"], silver, (1, 4))
        assert [x for x in mixed if x.startswith("s")] == silver

    def test_empty_gold_with_silver_rejected(self):
        for ratio in ((1, 4), None):
            with pytest.raises(ValueError, match="gold"):
                mix_with_silver([], ["s"], ratio)


class _OneWeight:
    def __init__(self):
        self.w = Tensor(np.zeros(1), requires_grad=True, dtype=np.float64)

    def params(self):
        return {"w": self.w}


def test_fit_stops_after_patience_and_restores_best():
    model = _OneWeight()
    scores = iter([0.5, 0.9, 0.7, 0.8, 0.95])
    batches = []

    def batch_loss(idx, shard):
        batches.append(set(idx.tolist()))
        return (model.w * -1.0).sum()  # each SGD step (lr 1) adds 1 to w

    hp = replace(HyperParams.desk("si"), steps=100, eval_every=2, patience=2,
                 batch_size=2, lr=1.0, momentum=0.0)
    trace, best_score, best_step = _fit(
        model, 5, batch_loss, lambda step: EvalPoint(step, next(scores)), hp,
        np.random.default_rng(0))
    assert [p.step for p in trace] == [2, 4, 6, 8]
    assert (best_score, best_step) == (0.9, 4)
    assert model.w.data[0] == pytest.approx(4.0)  # the step-4 parameters
    # 5 items in batches of 2: each epoch is two disjoint batches, then a reshuffle
    assert all(len(b) == 2 for b in batches)
    assert not batches[0] & batches[1] and not batches[2] & batches[3]


def test_fit_stops_on_non_finite_loss():
    model = _OneWeight()
    steps = []

    def batch_loss(idx, shard):
        steps.append(len(steps) + 1)
        value = np.nan if len(steps) == 3 else 1.0
        return (model.w * 0.0).sum() + value

    hp = replace(HyperParams.desk("si"), steps=10, eval_every=5, batch_size=1)
    with pytest.raises(RuntimeError, match="non-finite training loss nan at step 3"):
        _fit(model, 4, batch_loss, lambda step: EvalPoint(step, 0.0), hp,
             np.random.default_rng(0))
    assert steps == [1, 2, 3]


@pytest.mark.parametrize("shards", [1, 2])
def test_fit_frees_each_step_graph_before_the_next(monkeypatch, shards):
    """No loss, and no activation of its graph, outlives its own step: each is
    dead when ``batch_loss`` is called again. Two shards run in this process."""
    monkeypatch.setattr(pl, "_usable_cpus", lambda: 1)
    model = _OneWeight()
    alive = []

    def batch_loss(idx, shard):
        assert not [ref for ref in alive if ref() is not None]
        hidden = model.w * np.arange(1.0, 4.0)
        loss = T.reshape((hidden * hidden).sum(keepdims=True), ())  # a 0-d array, not a scalar
        alive.extend([weakref.ref(hidden.data), weakref.ref(loss.data)])
        return loss

    hp = replace(HyperParams.desk("si"), steps=4, eval_every=2, batch_size=2)
    _fit(model, 4, batch_loss, lambda step: EvalPoint(step, 0.0), hp,
         np.random.default_rng(0), np.ones(4) if shards == 2 else None)
    assert len(alive) == 2 * 4 * shards


@pytest.mark.parametrize("shards", [1, 2])
def test_fit_frees_each_step_gradients_after_its_optimizer_step(monkeypatch, shards):
    """No parameter gradient, a shard's or the step's sum, outlives its optimizer
    step: each is dead when ``batch_loss`` or ``evaluate`` next runs. Two shards
    run in this process."""
    monkeypatch.setattr(pl, "_usable_cpus", lambda: 1)
    model = _OneWeight()
    alive, shard_grads = [], []
    backward, step = pl._backward, pl.Optimizer.step

    def recording_backward(opt, loss, weight):
        value = backward(opt, loss, weight)
        shard_grads.extend(weakref.ref(p.grad) for p in opt.params.values())
        return value

    def recording_step(opt):
        alive.extend(shard_grads + [weakref.ref(p.grad) for p in opt.params.values()])
        shard_grads.clear()
        step(opt)

    def all_dead():
        return not [ref for ref in alive if ref() is not None]

    def batch_loss(idx, shard):
        assert all_dead()
        return (model.w * model.w * float(len(idx))).sum()

    def evaluate(step):
        assert all_dead()
        return EvalPoint(step, 0.0)

    monkeypatch.setattr(pl, "_backward", recording_backward)
    monkeypatch.setattr(pl.Optimizer, "step", recording_step)
    hp = replace(HyperParams.desk("si"), steps=4, eval_every=2, batch_size=2)
    _fit(model, 4, batch_loss, evaluate, hp, np.random.default_rng(0),
         np.ones(4) if shards == 2 else None)
    assert len(alive) == 4 * (shards + 1)


class TestTrainSi:
    def test_zero_steps_returns_initialized_model(self):
        corpus = tiny_corpus()
        hp = fast_hp("si", steps=0)
        res = train_si(corpus.train, corpus.dev, hp, seed=0,
                       encoder_cfg=small_encoder(hp))
        assert res.best_step == 0
        assert len(res.trace) == 1

    def test_same_seed_byte_identical_checkpoint(self, tmp_path):
        corpus = tiny_corpus()
        hp = fast_hp("si")
        enc = small_encoder(hp)
        a = train_si(corpus.train, corpus.dev, hp, seed=3, encoder_cfg=enc)
        b = train_si(corpus.train, corpus.dev, hp, seed=3, encoder_cfg=enc)
        a.model.save(tmp_path / "a.spfg", meta={})
        b.model.save(tmp_path / "b.spfg", meta={})
        assert (tmp_path / "a.spfg").read_bytes() == (tmp_path / "b.spfg").read_bytes()

    def test_empty_dataset_rejected(self):
        hp = fast_hp("si")
        with pytest.raises(ValueError):
            train_si(SpanDataset(articles={}, spans=[]), SpanDataset(articles={}, spans=[]),
                     hp, seed=0)

    def test_tokenless_articles_rejected(self):
        corpus = tiny_corpus()
        hp = fast_hp("si")
        blank = SpanDataset(articles={"a": "  \n\t ", "b": ""}, spans=[])
        with pytest.raises(ValueError, match="no training items"):
            train_si(blank, corpus.dev, hp, seed=0, encoder_cfg=small_encoder(hp))

    def test_tokenless_gold_with_silver_rejected(self):
        corpus = tiny_corpus()
        hp = fast_hp("si")
        blank = SpanDataset(articles={"a": "  \n\t "}, spans=[])
        with pytest.raises(ValueError, match="gold"):
            train_si(blank, corpus.dev, hp, seed=0, silver=corpus.train,
                     encoder_cfg=small_encoder(hp))

    def test_trace_and_meta_recorded(self):
        corpus = tiny_corpus()
        hp = fast_hp("si")
        res = train_si(corpus.train, corpus.dev, hp, seed=0,
                       encoder_cfg=small_encoder(hp))
        assert [p.step for p in res.trace] == [30, 60]
        assert res.meta["dropout"] == hp.dropout
        assert res.meta["batch_size"] == hp.batch_size

    def test_overwrite_reported_in_meta(self):
        corpus = tiny_corpus()
        hp = self_train_overwrite(fast_hp("si"))
        res = train_si(corpus.train, corpus.dev, hp, seed=0,
                       encoder_cfg=small_encoder(hp))
        assert res.meta["dropout"] == 0.0
        assert res.meta["attention_dropout"] == 0.0


class TestAnnotate:
    def test_all_O_model_yields_empty_silver(self):
        corpus = tiny_corpus()
        hp = fast_hp("si", steps=0)
        res = train_si(corpus.train, corpus.dev, hp, seed=0,
                       encoder_cfg=small_encoder(hp))
        model = res.model
        # force O everywhere: zero emissions except a big O bias
        model.emission_head.params["emit.w"].data[:] = 0
        model.emission_head.params["emit.b"].data[:] = np.array([10.0, 0.0, 0.0])
        model.crf.transitions.data[:] = 0
        model.crf.start_scores.data[:] = 0
        model.crf.end_scores.data[:] = 0
        silver = annotate_si(model, corpus.pool, hp.max_seq_len)
        assert silver.spans == []
        assert len(silver.articles) == len(corpus.pool.articles)  # negatives kept

    def test_deterministic(self):
        corpus = tiny_corpus()
        hp = fast_hp("si")
        res = train_si(corpus.train, corpus.dev, hp, seed=1,
                       encoder_cfg=small_encoder(hp))
        a = annotate_si(res.model, corpus.pool, hp.max_seq_len)
        b = annotate_si(res.model, corpus.pool, hp.max_seq_len)
        assert a.spans == b.spans


class TestSelfTrain:
    def test_partition_pool_nonempty_parts(self):
        corpus = tiny_corpus(n_pool=5)
        parts = partition_pool(corpus.pool, 2)
        assert sum(len(p.articles) for p in parts) == 5
        with pytest.raises(ValueError):
            partition_pool(corpus.pool, 9)

    def test_iterations_produce_fresh_models_and_metadata(self):
        corpus = tiny_corpus()
        hp = fast_hp("si")
        results = self_train_si(corpus.train, corpus.dev, corpus.pool, 2, hp,
                                seed=0, encoder_cfg=small_encoder(hp))
        assert len(results) == 3  # base + 2 iterations
        assert "self_train_iteration" not in results[0].meta
        assert results[1].meta["self_train_iteration"] == 1
        assert results[2].meta["self_train_iteration"] == 2
        # overwrites apply from iteration 2 by default
        assert results[1].meta["dropout"] == hp.dropout
        assert results[2].meta["dropout"] == 0.0
        assert results[2].meta["batch_size"] == 16

    def test_silver_sets_take_all_pool_texts(self):
        corpus = tiny_corpus()
        hp = fast_hp("si")
        results = self_train_si(corpus.train, corpus.dev, corpus.pool, 1, hp,
                                seed=0, encoder_cfg=small_encoder(hp))
        # every pool article in the iteration's chunk is annotated, span or not
        assert results[1].meta["silver_windows"] >= len(corpus.pool.articles) // 1

    def test_bad_iteration_count_rejected(self):
        corpus = tiny_corpus()
        with pytest.raises(ValueError):
            self_train_si(corpus.train, corpus.dev, corpus.pool, 0, fast_hp("si"))


class TestTcItems:
    def test_items_carry_window_relative_spans(self):
        corpus = tiny_corpus()
        items = build_tc_items(corpus.train, max_seq_len=32)
        assert len(items) == len(corpus.train.spans)
        for it in items:
            assert 0 <= it.span_start < it.span_end <= len(it.window_tokens)
            span_text = " ".join(it.window_tokens[it.span_start:it.span_end])
            assert span_text == corpus.train.articles[it.article_id][
                it.char_span.start:it.char_span.end].replace("\n", " ")

    def test_long_spans_truncated_and_tokenless_spans_skipped(self):
        text = "one two three four five six seven eight nine ten  eleven"
        spans = [Span("a", 0, len(text), 0),  # 11 tokens
                 Span("a", 4, 13, 1),  # "two three": 2 tokens
                 Span("a", 48, 50, 0),  # two spaces: no token
                 Span("a", 8, 23, 1)]  # "three four five": exactly the budget
        data = SpanDataset(articles={"a": text}, spans=spans)
        items = build_tc_items(data, max_seq_len=3 + 4)
        assert [it.char_span for it in items] == [spans[0], spans[1], spans[3]]
        assert [it.truncated for it in items] == [True, False, False]
        assert items[0].window_tokens == ["one", "two", "three"]
        assert (items[0].span_start, items[0].span_end) == (0, 3)
        assert items[1].window_tokens[items[1].span_start:items[1].span_end] == ["two", "three"]
        assert all(len(it.window_tokens) == 3 for it in items)

    def test_unknown_label_rejected_at_training(self):
        corpus = tiny_corpus()
        items = build_tc_items(corpus.train, 32)
        items[0].label = 99
        hp = fast_hp("tc", steps=3, eval_every=3)
        with pytest.raises(ValueError):
            train_tc(items, items, corpus.labels, TcOptions(), hp, seed=0,
                     encoder_cfg=small_encoder(hp))


class TestTrainTc:
    def run(self, opts, corpus=None, **hp_kw):
        corpus = corpus or tiny_corpus()
        hp = fast_hp("tc", steps=40, eval_every=20, **hp_kw)
        train_items = build_tc_items(corpus.train, hp.max_seq_len)
        dev_items = build_tc_items(corpus.dev, hp.max_seq_len)
        span_cfg = SpanClsConfig(layers=1, heads=2, intermediate_size=16)
        return train_tc(train_items, dev_items, corpus.labels, opts, hp, seed=0,
                        encoder_cfg=small_encoder(hp), span_cfg=span_cfg)

    def test_option_combinations_run(self):
        for opts in (TcOptions(), TcOptions(reweight=True), TcOptions(span_cls=True)):
            res = self.run(opts)
            assert 0.0 <= res.best_score <= 1.0
            assert res.meta["options"]["reweight"] == opts.reweight

    def test_same_seed_identical_checkpoint(self, tmp_path):
        a = self.run(TcOptions())
        b = self.run(TcOptions())
        a.model.save(tmp_path / "a.spfg")
        b.model.save(tmp_path / "b.spfg")
        assert (tmp_path / "a.spfg").read_bytes() == (tmp_path / "b.spfg").read_bytes()

    def test_empty_items_rejected(self):
        corpus = tiny_corpus()
        hp = fast_hp("tc")
        dev_items = build_tc_items(corpus.dev, hp.max_seq_len)
        with pytest.raises(ValueError, match="no training items"):
            train_tc([], dev_items, corpus.labels, TcOptions(), hp, seed=0,
                     encoder_cfg=small_encoder(hp))

    def test_self_train_follows_silver_items(self):
        # silver given, even none, means the self-train profile; no silver means gold only
        corpus = tiny_corpus()
        hp = fast_hp("tc", steps=5, eval_every=5)
        items = build_tc_items(corpus.train, hp.max_seq_len)
        for silver, self_train in ((None, False), ([], True)):
            res = train_tc(items, items, corpus.labels, TcOptions(), hp, 0,
                           silver_items=silver, encoder_cfg=small_encoder(hp))
            assert res.meta["options"]["self_train"] is self_train
            assert res.meta["batch_size"] == (16 if self_train else hp.batch_size)
            assert res.meta["silver_items"] == 0


class TestTcSilver:
    def test_silver_spans_come_from_tagger_and_labels_from_classifier(self):
        corpus = tiny_corpus()
        hp_si = fast_hp("si", steps=40, eval_every=20)
        si_res = train_si(corpus.train, corpus.dev, hp_si, seed=0,
                          encoder_cfg=small_encoder(hp_si))
        hp_tc = fast_hp("tc", steps=20, eval_every=20)
        train_items = build_tc_items(corpus.train, hp_tc.max_seq_len)
        dev_items = build_tc_items(corpus.dev, hp_tc.max_seq_len)
        tc_res = train_tc(train_items, dev_items, corpus.labels, TcOptions(), hp_tc,
                          seed=0, encoder_cfg=small_encoder(hp_tc))
        silver, counts = build_tc_silver(si_res.model, tc_res.model, corpus.pool,
                                         hp_tc.max_seq_len)
        from propspan.pipeline import predict_spans
        tagger_spans = predict_spans(si_res.model, corpus.pool.tokenized,
                                     hp_tc.max_seq_len)
        assert [(it.char_span.article_id, it.char_span.start, it.char_span.end)
                for it in silver] == \
            [(s.article_id, s.start, s.end) for s in tagger_spans]
        for it in silver:
            assert it.label is not None and 0 <= it.label < len(corpus.labels)
        assert counts == {"truncated_spans": sum(it.truncated for it in silver),
                          "skipped_spans": 0}

    def test_empty_pool_detections_give_empty_silver(self):
        corpus = tiny_corpus()
        hp = fast_hp("si", steps=0)
        si_res = train_si(corpus.train, corpus.dev, hp, seed=0,
                          encoder_cfg=small_encoder(hp))
        model = si_res.model
        model.emission_head.params["emit.w"].data[:] = 0
        model.emission_head.params["emit.b"].data[:] = np.array([10.0, 0.0, 0.0])
        for t in (model.crf.transitions, model.crf.start_scores, model.crf.end_scores):
            t.data[:] = 0
        assert build_tc_silver(model, None, corpus.pool, 32) == \
            ([], {"truncated_spans": 0, "skipped_spans": 0})



@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_predict_tc_probs_of_no_items_has_no_rows(dtype):
    vocab = Vocab(["w"])
    cfg = EncoderConfig(vocab_size=len(vocab), hidden_size=16, layers=1, heads=2,
                        intermediate_size=16, max_positions=16)
    probs = predict_tc_probs(TcClassifier(cfg, vocab, ["A", "B", "C"], dtype=dtype), [])
    assert probs.shape == (0, 3) and probs.dtype == dtype

class TestEnsembles:
    def make_models(self, n, labels=("A", "B")):
        vocab = Vocab([f"w{i}" for i in range(10)])
        cfg = EncoderConfig(vocab_size=len(vocab), hidden_size=16, layers=1, heads=2,
                            intermediate_size=16, max_positions=16, dropout=0.0,
                            attention_dropout=0.0)
        return [TcClassifier(cfg, vocab, list(labels), seed=i) for i in range(n)]

    def make_items(self, k=4):
        from propspan.pipeline import TcItem
        items = []
        for i in range(k):
            items.append(TcItem(article_id=f"a{i}",
                                window_tokens=[f"w{j}" for j in range(5)],
                                span_start=1, span_end=3, label=i % 2,
                                char_span=Span(f"a{i}", 0, 5, i % 2)))
        return items

    def test_single_model_mean_is_its_probs(self):
        models = self.make_models(1)
        items = self.make_items()
        np.testing.assert_allclose(mean_probs(member_probs(models, items)),
                                   predict_tc_probs(models[0], items))

    def test_hand_average_and_argmax(self):
        probs_a = np.array([[0.8, 0.2]])
        probs_b = np.array([[0.4, 0.6]])
        avg = (probs_a + probs_b) / 2
        np.testing.assert_allclose(avg, [[0.6, 0.4]])
        assert avg.argmax(axis=1)[0] == 0

    def test_predict_ties_break_to_lowest_label(self):
        models = self.make_models(2)
        items = self.make_items(3)
        # force identical logits across classes: zero the head weights
        for m in models:
            m.params()["cls.w"].data[:] = 0
            m.params()["cls.b"].data[:] = 0
        pred = ensemble_predict(member_probs(models, items))
        assert (pred == 0).all()

    def test_permutation_invariant(self):
        models = self.make_models(3)
        items = self.make_items()
        a = mean_probs(member_probs(models, items))
        b = mean_probs(member_probs(models[::-1], items))
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_label_mismatch_rejected(self):
        models = self.make_models(1) + self.make_models(1, labels=("A", "B", "C"))
        with pytest.raises(ValueError):
            member_probs(models, self.make_items())

    def test_enumerate_counts(self):
        items = self.make_items(6)
        gold = np.array([it.label for it in items])
        for n, want in ((2, 1), (3, 4), (8, 247)):
            models = self.make_models(n)
            results = subset_scores(member_probs(models, items), gold)
            assert len(results) == want == 2 ** n - n - 1
        with pytest.raises(ValueError):
            subset_scores(member_probs(self.make_models(1), items), gold)

    def test_all_members_subset_matches_ensemble_predict(self):
        models = self.make_models(3)
        items = self.make_items(6)
        gold = np.array([it.label for it in items])
        full = [r for r in subset_scores(member_probs(models, items), gold)
                if len(r.members) == 3]
        assert [r.score for r in full] == \
            [micro_f1(ensemble_predict(member_probs(models, items)), gold)]

    def test_subsets_average_in_float64(self):
        # a float32 running sum rounds these to a tie that picks class 0; the
        # float64 mean keeps class 1 ahead, as the ensemble's prediction does
        probs = [np.array([row], dtype=np.float32) for row in
                 ([0.9350724220275879, 0.9350723624229431],
                  [0.8158535361289978, 0.8158536553382874],
                  [0.0027385002467781305, 0.0027385002467781305])]
        assert (sum(probs) / 3).argmax(axis=1)[0] == 0
        assert mean_probs(probs).argmax(axis=1)[0] == 1
        scores = {r.members: r.score for r in subset_scores(probs, np.array([1]))}
        assert scores[(0, 1, 2)] == 1.0

    def test_subset_count_formula_up_to_10(self):
        import itertools
        for n in range(2, 11):
            count = sum(1 for size in range(2, n + 1)
                        for _ in itertools.combinations(range(n), size))
            assert count == 2 ** n - n - 1


class TestKfold:
    def test_even_split(self):
        folds = kfold_split(list(range(8)), list(range(8, 12)), k=6, seed=0)
        assert sorted(len(f) for f in folds) == [2, 2, 2, 2, 2, 2]

    def test_remainder_rule(self):
        folds = kfold_split(list(range(13)), [], k=6, seed=0)
        assert sorted(len(f) for f in folds) == [2, 2, 2, 2, 2, 3]

    def test_partition_property(self):
        items = list(range(20))
        folds = kfold_split(items[:15], items[15:], k=6, seed=3)
        flat = sorted(x for f in folds for x in f)
        assert flat == items

    def test_deterministic_per_seed(self):
        a = kfold_split(list(range(10)), [], k=3, seed=5)
        b = kfold_split(list(range(10)), [], k=3, seed=5)
        c = kfold_split(list(range(10)), [], k=3, seed=6)
        assert a == b
        assert a != c

    @staticmethod
    def remainder_rule_folds(pool, k, seed):
        """The oracle: the first ``n % k`` folds take one extra item of the permutation."""
        order = np.random.default_rng(seed).permutation(len(pool))
        sizes = [len(pool) // k + (1 if i < len(pool) % k else 0) for i in range(k)]
        starts = np.cumsum([0] + sizes)
        return [[pool[j] for j in order[a:b]] for a, b in zip(starts, starts[1:])]

    def test_matches_the_remainder_rule(self):
        for n in range(2, 40):
            for k in range(2, min(n, 9) + 1):
                items = [f"item{i}" for i in range(n)]
                cut = n // 3
                assert kfold_split(items[:cut], items[cut:], k=k, seed=n * 10 + k) == \
                    self.remainder_rule_folds(items, k, n * 10 + k)

    def test_too_many_folds_rejected(self):
        with pytest.raises(ValueError):
            kfold_split([1, 2], [3], k=4, seed=0)
        with pytest.raises(ValueError):
            kfold_split([1, 2, 3], [], k=1, seed=0)


def test_cross_validate_returns_k_scores():
    corpus = tiny_corpus()
    hp = fast_hp("tc", steps=10, eval_every=10)
    train_items = build_tc_items(corpus.train, hp.max_seq_len)
    dev_items = build_tc_items(corpus.dev, hp.max_seq_len)
    scores = cross_validate(train_items, dev_items, corpus.labels, TcOptions(), hp,
                            k=3, seed=0, encoder_cfg=small_encoder(hp))
    assert len(scores) == 3
    assert all(0.0 <= s <= 1.0 for s in scores)


def test_derive_seed_stable():
    assert derive_seed(42, 1) == derive_seed(42, 1)
    assert derive_seed(42, 1) != derive_seed(42, 2)


def test_self_training_never_mutates_gold():
    import copy
    corpus = tiny_corpus()
    gold_spans_before = copy.deepcopy(corpus.train.spans)
    gold_articles_before = dict(corpus.train.articles)
    hp = fast_hp("si", steps=20, eval_every=20)
    self_train_si(corpus.train, corpus.dev, corpus.pool, 1, hp, seed=0,
                  encoder_cfg=small_encoder(hp))
    assert corpus.train.spans == gold_spans_before
    assert corpus.train.articles == gold_articles_before


def test_tc_self_train_applies_overwrite_profile_by_default():
    corpus = tiny_corpus()
    hp = fast_hp("tc", steps=10, eval_every=10)
    items = build_tc_items(corpus.train, hp.max_seq_len)
    dev = build_tc_items(corpus.dev, hp.max_seq_len)
    silver = [items[0]]
    res = train_tc(items, dev, corpus.labels, TcOptions(), hp, seed=0,
                   silver_items=silver, encoder_cfg=small_encoder(hp))
    assert res.meta["dropout"] == 0.0
    assert res.meta["attention_dropout"] == 0.0
    assert res.meta["batch_size"] == 16


def test_blas_threads_reports_the_effective_count(tmp_path):
    # CI runs this with OPENBLAS_NUM_THREADS=1 and again with it unset
    n = blas_threads()
    if n is None:  # numpy 1 wheels may bundle an OpenBLAS without a known getter
        assert np.lib.NumpyVersion(np.__version__) < "2.0.0"
    elif os.environ.get("OPENBLAS_NUM_THREADS"):
        assert n == int(os.environ["OPENBLAS_NUM_THREADS"])
    else:
        assert isinstance(n, int) and n >= 1
    # a run records the count it ran at: one thread unless the variable names a count
    config = tmp_path / "synth.json"
    config.write_text(json.dumps({"synth.n_train": 2, "synth.n_dev": 1, "synth.n_pool": 1}))
    assert main(["gen-synth", "--seed", "1", "--config", str(config),
                 "--out", str(tmp_path / "o")]) == 0
    record = json.loads((tmp_path / "o" / "runs.jsonl").read_text())
    pinned = n is not None and not os.environ.get("OPENBLAS_NUM_THREADS")
    assert record["blas_threads"] == (1 if pinned else n)
    assert blas_threads() == n


def test_worker_exits_once_it_has_answered_its_last_message():
    """Told that a message is its ``last``, a ``_Worker`` exits as soon as it
    has answered, while the caller still works, not at ``close``'s kill (-9)."""
    with _forked(lambda x: x + 1, ["worker"]) as (worker,):
        worker.send(1, last=True)
        assert worker.receive() == 2
        deadline = time.monotonic() + 10
        while os.waitid(os.P_PID, worker.pid, os.WEXITED | os.WNOHANG | os.WNOWAIT) is None:
            assert time.monotonic() < deadline, "the worker still runs"
            time.sleep(0.01)
        assert worker.close() == 1
