"""End-to-end learnability checks on planted-trigger corpora.

These train real (small) models and take a couple of minutes total; they
pin the pipeline-level behaviors: the tagger learns its corpus, machine
annotations are precise when the annotator is good, and two good parents
produce accurate silver classification data.
"""

from dataclasses import replace

import numpy as np
import pytest

from propspan.metrics import flc_f1
from propspan.encoder import SpanClsConfig
from propspan.pipeline import (HyperParams, TcOptions, annotate_si, build_tc_items,
                               build_tc_silver, train_si, train_tc)
from propspan.synth import SynthConfig, gen_synth


@pytest.fixture(scope="module")
def si_k1_run():
    corpus = gen_synth(SynthConfig(n_train=200, n_dev=30, n_pool=60,
                                   technique_count=1, span_half_width=0,
                                   span_rate=0.9, seed=77))
    hp = replace(HyperParams.desk("si"), steps=600, eval_every=150, max_seq_len=48)
    return corpus, hp, train_si(corpus.train, corpus.dev, hp, seed=0)


def test_si_reaches_high_f1_on_k1_corpus(si_k1_run):
    _, hp, res = si_k1_run
    assert hp.steps <= 2000
    assert res.best_score >= 0.90


def test_silver_precision_tracks_annotator_quality(si_k1_run):
    corpus, hp, res = si_k1_run
    assert res.best_score >= 0.9  # precondition for the precision claim
    silver = annotate_si(res.model, corpus.pool, hp.max_seq_len)
    assert len(silver.articles) == len(corpus.pool.articles)
    score = flc_f1(silver.spans, corpus.pool_hidden_spans)
    assert score.precision >= 0.8


def test_tc_silver_label_accuracy_with_good_parents():
    corpus = gen_synth(SynthConfig(n_train=120, n_dev=40, n_pool=60,
                                   technique_count=2, span_half_width=0,
                                   span_rate=0.9, seed=78))
    hp_si = replace(HyperParams.desk("si"), steps=600, eval_every=150, max_seq_len=48)
    # a good tagger, picked by dev F1 from a fixed seed list: a single seed
    # misses 0.9 at 600 steps now and then (1 of seeds 1-24 with one dropout
    # stream per batch, 3 of 24 with one per batch shard)
    si_res = max((train_si(corpus.train, corpus.dev, hp_si, seed=s) for s in (1, 2, 3)),
                 key=lambda res: res.best_score)
    assert si_res.best_score >= 0.9

    hp_tc = replace(HyperParams.desk("tc"), steps=300, eval_every=100, max_seq_len=24)
    train_items = build_tc_items(corpus.train, hp_tc.max_seq_len)
    dev_items = build_tc_items(corpus.dev, hp_tc.max_seq_len)
    tc_res = train_tc(train_items, dev_items, corpus.labels,
                      TcOptions(span_cls=True), hp_tc, seed=1,
                      span_cfg=SpanClsConfig(layers=2, heads=4, intermediate_size=64))
    assert tc_res.best_score >= 0.9

    silver, _ = build_tc_silver(si_res.model, tc_res.model, corpus.pool, hp_tc.max_seq_len)
    hidden = {(s.article_id, s.start, s.end): s.technique
              for s in corpus.pool_hidden_spans}
    matches = [(it.label, hidden[(it.char_span.article_id, it.char_span.start,
                                  it.char_span.end)])
               for it in silver
               if (it.char_span.article_id, it.char_span.start,
                   it.char_span.end) in hidden]
    assert len(matches) >= 50  # the tagger actually found the planted spans
    accuracy = np.mean([p == g for p, g in matches])
    assert accuracy >= 0.8
