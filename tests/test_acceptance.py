"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The three trend criteria train real models on synthetic corpora and take a
few minutes together, with their independent runs spread over the usable
CPUs by ``parallel_map``; their runtime bounds are asserted alongside the
directional comparisons. Run with ``pytest tests/test_acceptance.py -v -s``
to watch the per-criterion lines.
"""

import itertools
import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from propspan import tensor as T
from propspan.cli import main as cli_main
from propspan.crf import CrfParams, nll, viterbi
from propspan.encoder import EncoderConfig, SpanClsConfig, SpanClsHead
from propspan.losses import class_weights, reweighted_bce, uniform_weights
from propspan.metrics import FlcScore, flc_f1, micro_f1
from propspan.models import TcClassifier
from propspan.pipeline import (HyperParams, TcItem, TcOptions, annotate_si, build_tc_items,
                               derive_seed, kfold_split, member_probs, parallel_map,
                               predict_tc_probs, subset_scores, train_si, train_tc)
from propspan.stats import bartlett, kruskal_wallis, mann_whitney_u, spearman_rho
from propspan.synth import SynthConfig, gen_synth
from propspan.tensor import Tensor, grad_check
from propspan.tokens import Span, Vocab, spans_to_tags, tags_to_spans, tokenize


def report(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {num:2d}: {description}{suffix}")
    assert ok, f"criterion {num}: {description}{suffix}"


def rand_crf(rng, n_labels):
    return CrfParams(
        Tensor(rng.normal(size=(n_labels, n_labels)), requires_grad=True, dtype=np.float64),
        Tensor(rng.normal(size=n_labels), requires_grad=True, dtype=np.float64),
        Tensor(rng.normal(size=n_labels), requires_grad=True, dtype=np.float64))


def test_criterion_01_crf_oracle():
    from propspan.crf import log_partition
    rng = np.random.default_rng(101)
    start = time.time()
    ok = True
    for _ in range(200):
        length, n_labels = int(rng.integers(1, 7)), int(rng.integers(2, 5))
        em = rng.normal(size=(length, n_labels))
        params = rand_crf(rng, n_labels)
        tr, st, en = (params.transitions.data, params.start_scores.data,
                      params.end_scores.data)
        scores = {}
        for path in itertools.product(range(n_labels), repeat=length):
            s = st[path[0]] + en[path[-1]] + sum(em[t, path[t]] for t in range(length))
            s += sum(tr[path[t - 1], path[t]] for t in range(1, length))
            scores[path] = float(s)
        vals = np.array(list(scores.values()))
        m = vals.max()
        brute_logz = m + math.log(np.exp(vals - m).sum())
        brute_path = min(p for p, s in scores.items() if s == vals.max())
        logz = log_partition(Tensor(em, dtype=np.float64), params).item()
        path, score = viterbi(em, params)
        ok &= abs(logz - brute_logz) <= 1e-6
        ok &= tuple(path) == brute_path and abs(score - vals.max()) <= 1e-6
    elapsed = time.time() - start
    report(1, "CRF log-partition and Viterbi match exhaustive enumeration "
              "on 200 instances", ok and elapsed < 10.0, f"{elapsed:.1f}s")


def test_criterion_02_gradient_suite():
    rng = np.random.default_rng(102)

    def rt(shape):
        return Tensor(rng.normal(size=shape), requires_grad=True, dtype=np.float64)

    def drop_fixed(a):
        return T.dropout(a, 0.3, np.random.default_rng(0), train=True).sum()

    encoder_primitives = {
        "matmul": lambda: grad_check(lambda a, b: T.matmul(a, b).sum(),
                                     [rt((3, 4)), rt((4, 2))]),
        "add": lambda: grad_check(lambda a, b: (a + b).sum(), [rt((3, 4)), rt((4,))]),
        "mul": lambda: grad_check(lambda a, b: (a * b).sum(), [rt((3, 4)), rt((3, 4))]),
        "softmax": lambda: grad_check(lambda a, b: (T.softmax(a, -1) * b).sum(),
                                      [rt((3, 5)), rt((3, 5))]),
        "sigmoid": lambda: grad_check(lambda a: T.sigmoid(a).sum(), [rt((3, 4))]),
        "gelu": lambda: grad_check(lambda a: T.gelu(a).sum(), [rt((3, 4))]),
        "tanh": lambda: grad_check(lambda a: T.tanh(a).sum(), [rt((3, 4))]),
        "layer_norm": lambda: grad_check(
            lambda x, g, b: (T.layer_norm(x, g, b) ** 2.0).sum(),
            [rt((2, 6)), rt((6,)), rt((6,))]),
        "logsumexp": lambda: grad_check(lambda a: T.logsumexp_t(a, -1).sum(),
                                        [rt((3, 4))]),
        "embedding": lambda: grad_check(
            lambda w: T.embedding(w, np.array([[0, 2], [2, 1]])).sum(), [rt((4, 3))]),
        "take_along": lambda: grad_check(
            lambda x: T.take_along_last(x, np.array([[0, 2, 1]])).sum(), [rt((1, 3, 4))]),
        "slice": lambda: grad_check(lambda x: (x[1:, ::2] * 2.0).sum(), [rt((4, 5))]),
        "concat": lambda: grad_check(lambda a, b: T.concat([a, b], 1).sum(),
                                     [rt((2, 3)), rt((2, 2))]),
        "where": lambda: grad_check(
            lambda a, b: T.where(np.array([True, False, True]), a, b).sum(),
            [rt((3,)), rt((3,))]),
        "dropout": lambda: grad_check(drop_fixed, [rt((3, 4))]),
        "exp_log_sqrt": lambda: grad_check(
            lambda a: (T.exp(a * 0.2) + T.log(a * a + 1.0) + T.sqrt(a * a + 0.5)).sum(),
            [rt((3, 4))]),
        "sub_div_neg_mean": lambda: grad_check(
            lambda a, b: (T.div(T.sub(a, b), b * b + 1.0) + T.neg(a)).mean(),
            [rt((3, 4)), rt((3, 4))]),
        "reshape_swap_pow": lambda: grad_check(
            lambda a: (T.swapaxes(T.reshape(a, (4, 3)), 0, 1) ** 2.0).sum(),
            [rt((3, 4))]),
    }
    worst = {}
    for name, run_once in encoder_primitives.items():
        worst[name] = max(run_once() for _ in range(100))

    def nll_once():
        length = int(rng.integers(1, 6))
        em = rt((length, 3))
        params = rand_crf(rng, 3)
        tags = rng.integers(0, 3, length).tolist()
        return grad_check(
            lambda e, tr, st, en: nll(e, tags, CrfParams(tr, st, en)),
            [em, params.transitions, params.start_scores, params.end_scores])

    worst["crf_nll"] = max(nll_once() for _ in range(100))

    def bce_once():
        n, d = int(rng.integers(1, 6)), int(rng.integers(2, 5))
        x = Tensor(rng.uniform(0.1, 0.9, (n, d)), requires_grad=True, dtype=np.float64)
        y = rng.integers(0, 2, (n, d)).astype(float)
        w = class_weights(rng.integers(1, 20, d))
        return grad_check(lambda x: reweighted_bce(x, y, w), [x])

    worst["reweighted_bce"] = max(bce_once() for _ in range(100))

    bad = {k: v for k, v in worst.items() if v > 1e-4}
    report(2, "nll, reweighted BCE, and every encoder primitive pass "
              "finite-difference checks <= 1e-4 on 100 instances each",
           not bad, f"worst={max(worst.values()):.2e}" if not bad else str(bad))


def test_criterion_03_reweighted_bce_values():
    x = Tensor(np.array([[0.5, 0.5]]), dtype=np.float64)
    y = np.array([[1.0, 0.0]])
    w = class_weights([1, 2])  # -> p = [2, 1]
    hand = abs(reweighted_bce(x, y, w).item() - 1.5 * math.log(2)) <= 1e-9

    rng = np.random.default_rng(103)
    reduces = True
    for _ in range(100):
        n, d = int(rng.integers(1, 8)), int(rng.integers(1, 6))
        xb = Tensor(rng.uniform(0.05, 0.95, (n, d)), dtype=np.float64)
        yb = rng.integers(0, 2, (n, d)).astype(float)
        plain = -(yb * np.log(xb.numpy()) + (1 - yb) * np.log(1 - xb.numpy())).mean()
        reduces &= abs(reweighted_bce(xb, yb, uniform_weights(d)).item() - plain) <= 1e-9
    report(3, "re-weighted BCE matches the hand value 1.5*ln2 and reduces to "
              "plain BCE at unit weights (1e-9)", hand and reduces)


def test_criterion_04_span_cls_equivalence(masked_full_logits):
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(100):
        hid = 16
        seq = int(rng.integers(3, 12))
        s = int(rng.integers(0, seq - 1))
        e = int(rng.integers(s + 1, seq + 1))
        head = SpanClsHead(hid, 5, SpanClsConfig(layers=2, heads=2, intermediate_size=24),
                           np.random.default_rng(int(rng.integers(1 << 30))),
                           dropout=0.0, attention_dropout=0.0)
        h = Tensor(rng.normal(size=(seq, hid)).astype(np.float32))
        out = head.logits(T.reshape(h, (1, seq, hid)), [(s, e)]).numpy()
        masked_out = masked_full_logits(head, h, (s, e)).numpy()
        # the stack over [BOS] and the span's states alone
        subset_out = head.logits(T.reshape(h[s:e], (1, e - s, hid)), [(0, e - s)]).numpy()
        worst = max(worst, float(np.abs(out - masked_out).max()),
                    float(np.abs(subset_out - masked_out).max()))
    report(4, "span-stacked classifier equals the attention-masked full-sequence "
              "formulation on 100 configurations", worst <= 1e-6, f"max|diff|={worst:.1e}")


def test_criterion_05_codec_round_trip():
    rng = np.random.default_rng(105)
    ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        tt = tokenize(" ".join(f"tok{i}" for i in range(n)))
        spans, cursor = [], 0
        while cursor < n:
            if rng.random() < 0.3:
                length = int(rng.integers(1, min(5, n - cursor) + 1))
                spans.append(Span("a", tt.tokens[cursor].start,
                                  tt.tokens[cursor + length - 1].end))
                cursor += length + 1
            else:
                cursor += 1
        ok &= tags_to_spans(tt, spans_to_tags(tt, spans), "a") == spans
    report(5, "span <-> tag round trip exact on 1000 random disjoint "
              "token-aligned span sets", ok)


def test_criterion_06_flc_oracle():
    rng = np.random.default_rng(106)

    def naive(pred, gold):
        p_terms, r_terms = [], []
        for s in pred:
            for t in gold:
                if s.article_id != t.article_id:
                    continue
                ov = max(0, min(s.end, t.end) - max(s.start, t.start))
                p_terms.append(ov / (s.end - s.start))
                r_terms.append(ov / (t.end - t.start))
        return FlcScore.from_sums(math.fsum(p_terms), len(pred),
                                  math.fsum(r_terms), len(gold))

    def random_spans():
        spans = []
        for _ in range(int(rng.integers(0, 9))):
            aid = f"a{rng.integers(4)}"
            start = int(rng.integers(0, 118))
            end = int(rng.integers(start + 1, min(start + 30, 120)))
            spans.append(Span(aid, start, end))
        return spans

    exact = all(flc_f1(p, g) == naive(p, g)
                for p, g in ((random_spans(), random_spans()) for _ in range(1000)))
    hand = flc_f1([Span("a", 0, 5)], [Span("a", 0, 10)])
    hand_ok = abs(hand.f1 - 2.0 / 3.0) <= 1e-9 and hand.precision == 1.0 \
        and abs(hand.recall - 0.5) <= 1e-9
    report(6, "swept span scorer equals the naive double-sum oracle on 1000 "
              "instances; hand case (0,5) vs (0,10) gives F1=2/3", exact and hand_ok)


def test_criterion_07_ensemble_enumeration():
    vocab = Vocab([f"w{i}" for i in range(8)])
    cfg = EncoderConfig(vocab_size=len(vocab), hidden_size=16, layers=1, heads=2,
                        intermediate_size=16, max_positions=16, dropout=0.0,
                        attention_dropout=0.0)
    models = [TcClassifier(cfg, vocab, ["A", "B"], seed=i) for i in range(8)]
    items = [TcItem(article_id=f"a{i}", window_tokens=[f"w{j}" for j in range(4)],
                    span_start=1, span_end=3, label=i % 2,
                    char_span=Span(f"a{i}", 0, 4, i % 2)) for i in range(6)]
    gold = np.array([it.label for it in items])
    results = subset_scores(member_probs(models, items), gold)
    scored = all(0.0 <= r.score <= 1.0 for r in results)
    report(7, "8 models enumerate to exactly 247 scored ensembles",
           len(results) == 247 and scored, f"n={len(results)}")


def test_criterion_08_statistics_hand_cases():
    mw = mann_whitney_u([1, 2, 3], [4, 5, 6], alternative="less")
    kw = kruskal_wallis([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    ba = bartlett([[1.0, 2, 3], [11.0, 12, 13], [7.0, 8, 9]])
    sp = spearman_rho([1, 2, 3, 4, 5], [1, 3, 2, 5, 4])
    checks = {
        "mann-whitney exact p=.05": abs(mw.p_value - 0.05) <= 1e-6 and mw.method == "exact",
        "kruskal-wallis H=7.2": abs(kw.statistic - 7.2) <= 1e-6,
        "bartlett stat=0": abs(ba.statistic) <= 1e-6 and abs(ba.p_value - 1.0) <= 1e-6,
        "spearman rho=.8": abs(sp.statistic - 0.8) <= 1e-6,
    }
    bad = [k for k, v in checks.items() if not v]
    report(8, "Mann-Whitney/Kruskal-Wallis/Bartlett/Spearman hand cases within 1e-6",
           not bad, ", ".join(bad) if bad else "")


def test_criterion_09_crf_trend():
    start = time.time()
    corpus = gen_synth(SynthConfig(n_train=40, n_dev=16, n_pool=10, technique_count=1,
                                   span_half_width=1, seed=21))
    # planted spans are 3 tokens wide: trigger +/- one filler token
    min_len = min(len(corpus.train.tokenized[s.article_id].text[s.start:s.end].split())
                  for s in corpus.train.spans)
    assert min_len >= 3
    hp = replace(HyperParams.desk("si"), steps=400, eval_every=100, max_seq_len=48)

    def best(task):
        seed, use_crf = task
        return train_si(corpus.train, corpus.dev, hp, seed=seed, use_crf=use_crf).best_score

    # CRF runs first: each core then gets a mix of the slower CRF and plain runs
    scores = parallel_map(best, [(seed, use_crf) for use_crf in (True, False)
                                 for seed in range(5)])
    crf_scores, plain_scores = scores[:5], scores[5:]
    elapsed = time.time() - start
    ok = np.mean(crf_scores) >= np.mean(plain_scores) and elapsed < 600
    report(9, "mean best dev span F1 over 5 seeds: CRF >= no-CRF on min-span-3 corpus",
           ok, f"crf={np.mean(crf_scores):.3f} plain={np.mean(plain_scores):.3f} "
               f"{elapsed:.0f}s")


def test_criterion_10_self_training_trend():
    from propspan.datasets import SpanDataset

    start = time.time()
    corpus = gen_synth(SynthConfig(n_train=160, n_dev=24, n_pool=120,
                                   technique_count=1, span_half_width=1, seed=33))
    gold_ids = sorted(corpus.train.articles)[:16]  # 10% of the gold corpus
    gold = SpanDataset(
        articles={a: corpus.train.articles[a] for a in gold_ids},
        spans=[s for s in corpus.train.spans if s.article_id in gold_ids],
        labels=corpus.train.labels,
        tokenized={a: corpus.train.tokenized[a] for a in gold_ids})
    hp = replace(HyperParams.desk("si"), steps=600, eval_every=150, max_seq_len=48)

    def chain(seed):
        base = train_si(gold, corpus.dev, hp, seed=seed)
        silver = annotate_si(base.model, corpus.pool, hp.max_seq_len)
        st = train_si(gold, corpus.dev, hp, seed=1000 + seed, silver=silver,
                      ratio=(1, 4))
        return base.best_score, st.best_score

    # 20 seeds, fixed in advance: one seed's margin has a standard deviation
    # of about 0.03, so with fewer seeds the mean margin sits within its
    # standard error
    base_scores, st_scores = zip(*parallel_map(chain, range(20)))
    elapsed = time.time() - start
    ok = np.mean(st_scores) >= np.mean(base_scores) and elapsed < 900
    report(10, "mean best dev F1 over 20 seeds: 10% gold + 1:4 silver >= gold-only",
           ok, f"self-train={np.mean(st_scores):.3f} gold={np.mean(base_scores):.3f} "
               f"{elapsed:.0f}s")


def test_criterion_11_ensemble_trend():
    start = time.time()
    corpus = gen_synth(SynthConfig(n_train=40, n_dev=20, n_pool=4, technique_count=3,
                                   class_skew=3.0, seed=55))
    hp = replace(HyperParams.desk("tc"), steps=150, eval_every=50, max_seq_len=32)
    train_items = build_tc_items(corpus.train, hp.max_seq_len)
    dev_items = build_tc_items(corpus.dev, hp.max_seq_len)
    span_cfg = SpanClsConfig(layers=2, heads=4, intermediate_size=64)
    configs = [TcOptions(), TcOptions(reweight=True),
               TcOptions(reweight=True, span_cls=True)]

    def fold(task):
        """The ensemble's and the mean component's micro-F1 on one held-out fold."""
        seed, i = task
        folds = kfold_split(train_items, dev_items, k=6, seed=seed)
        held = folds[i]
        rest = [it for j, f in enumerate(folds) if j != i for it in f]
        gold = np.array([it.label for it in held])
        probs, scores = [], []
        for ci, opts in enumerate(configs):
            res = train_tc(rest, held, corpus.labels, opts, hp,
                           derive_seed(seed, 10 * i + ci), span_cfg=span_cfg)
            p = predict_tc_probs(res.model, held)
            probs.append(p)
            scores.append(micro_f1(p.argmax(axis=1), gold))
        return micro_f1((sum(probs) / 3).argmax(axis=1), gold), np.mean(scores)

    results = parallel_map(fold, [(seed, i) for seed in range(3) for i in range(6)])
    ens_means = [np.mean([ens for ens, _ in results[6 * seed:6 * seed + 6]])
                 for seed in range(3)]
    comp_means = [np.mean([comp for _, comp in results[6 * seed:6 * seed + 6]])
                  for seed in range(3)]
    elapsed = time.time() - start
    ok = np.mean(ens_means) >= np.mean(comp_means) and elapsed < 900
    report(11, "3-model probability-average ensemble >= mean of its components "
               "(6-fold, 3 seeds)",
           ok, f"ensemble={np.mean(ens_means):.3f} components={np.mean(comp_means):.3f} "
               f"{elapsed:.0f}s")


def test_criterion_12_null_calibration():
    from propspan.analysis import AnalysisItem, FeatureSpec, worsening_features

    rng = np.random.default_rng(112)
    spec = [FeatureSpec("comma", "inside-span", "comma")]
    hits, trials = 0, 200
    for _ in range(trials):
        present = rng.integers(0, 2, 1000).astype(bool)
        scores = rng.random(1000)
        items = [AnalysisItem(text="a , b" if p else "a b", span=(0, 5 if p else 3))
                 for p in present]
        rep = worsening_features(items, scores.tolist(), spec)
        hits += rep.rows[0].p_value < 0.05
    frac = hits / trials
    report(12, "uncorrelated feature yields p<.05 in 3-7% of 200 trials",
           0.03 <= frac <= 0.07, f"fraction={frac:.3f}")


def test_criterion_13_cli_reproducibility(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "synth.n_train": 16, "synth.n_dev": 6, "synth.n_pool": 8,
        "synth.technique_count": 1, "synth.span_half_width": 0,
        "synth.span_rate": 0.9, "synth.sentences_per_article": [2, 3],
        "synth.sentence_length": [5, 8],
        "hp.steps": 200, "hp.eval_every": 100, "hp.max_seq_len": 32,
        "encoder.hidden_size": 32, "encoder.layers": 1, "encoder.heads": 2,
        "encoder.intermediate_size": 48}))

    def chain(tag):
        root = tmp_path / tag
        data = root / "data"
        assert cli_main(["gen-synth", "--seed", "7", "--out", str(data),
                         "--config", str(config)]) == 0
        assert cli_main(["train-si", "--seed", "3",
                         "--articles", str(data / "train" / "articles"),
                         "--labels", str(data / "train" / "labels-si.tsv"),
                         "--dev-articles", str(data / "dev" / "articles"),
                         "--dev-labels", str(data / "dev" / "labels-si.tsv"),
                         "--config", str(config), "--out", str(root / "run")]) == 0
        assert cli_main(["annotate", "--task", "si",
                         "--model", str(root / "run" / "model-si.spfg"),
                         "--pool", str(data / "pool" / "articles"),
                         "--out", str(root / "silver")]) == 0
        assert cli_main(["score", "--task", "si",
                         "--pred", str(root / "silver" / "silver-si.tsv"),
                         "--gold", str(data / "dev" / "labels-si.tsv"),
                         "--out", str(root / "score")]) == 0
        return {
            "articles": sorted((data / "train" / "articles").glob("*.txt")),
            "labels": data / "train" / "labels-si.tsv",
            "checkpoint": root / "run" / "model-si.spfg",
            "silver": root / "silver" / "silver-si.tsv",
            "score": root / "score" / "score.json",
        }

    a = chain("a")
    b = chain("b")
    assert a["silver"].read_text().strip(), "annotation file unexpectedly empty"
    same = all(pa.read_bytes() == pb.read_bytes()
               for pa, pb in zip(a["articles"], b["articles"]))
    for key in ("labels", "checkpoint", "silver", "score"):
        same &= a[key].read_bytes() == b[key].read_bytes()
    report(13, "CLI rerun with identical flags and seed is byte-identical "
               "(corpus, checkpoint, annotations, score report)", same)
