import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from propspan.datasets import (SpanDataset, load_dataset, read_articles, read_spans_tsv,
                               read_techniques, write_articles, write_spans_tsv,
                               write_techniques)
from propspan.synth import SynthConfig, gen_synth
from propspan.tokens import Span


@pytest.fixture
def corpus_dir(tmp_path):
    articles = {"1": "alpha beta gamma delta", "22": "one two three\nfour five"}
    write_articles(tmp_path / "articles", articles)
    return tmp_path


class TestArticleIo:
    def test_round_trip(self, corpus_dir):
        got = read_articles(corpus_dir / "articles")
        assert got == {"1": "alpha beta gamma delta", "22": "one two three\nfour five"}

    def test_missing_dir(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_articles(tmp_path / "nope")

    def test_empty_dir_rejected(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(ValueError):
            read_articles(tmp_path / "empty")


class TestLoadDataset:
    def test_si_rows(self, corpus_dir):
        (corpus_dir / "labels.tsv").write_text("1\t0\t5\n22\t4\t7\n")
        data = load_dataset(corpus_dir / "articles", corpus_dir / "labels.tsv", "si")
        assert data.spans == [Span("1", 0, 5), Span("22", 4, 7)]

    def test_tc_rows_with_inventory(self, corpus_dir):
        (corpus_dir / "labels.tsv").write_text("1\tLoaded_Language\t0\t5\n")
        (corpus_dir / "tech.txt").write_text("Doubt\nLoaded_Language\n")
        data = load_dataset(corpus_dir / "articles", corpus_dir / "labels.tsv", "tc",
                            corpus_dir / "tech.txt")
        assert data.spans == [Span("1", 0, 5, 1)]
        assert data.labels == ["Doubt", "Loaded_Language"]

    def test_tc_rows_without_inventory_rejected(self, corpus_dir):
        (corpus_dir / "labels.tsv").write_text("1\tZeta\t0\t5\n1\tAlpha\t6\t10\n")
        with pytest.raises(ValueError, match="needs a technique inventory"):
            load_dataset(corpus_dir / "articles", corpus_dir / "labels.tsv", "tc")

    def test_reversed_offsets_rejected_with_line_number(self, corpus_dir):
        (corpus_dir / "labels.tsv").write_text("1\t0\t5\n1\t9\t3\n")
        with pytest.raises(ValueError, match="line 2"):
            load_dataset(corpus_dir / "articles", corpus_dir / "labels.tsv", "si")

    def test_malformed_row_rejected_with_line_number(self, corpus_dir):
        (corpus_dir / "labels.tsv").write_text("1\t0\n")
        with pytest.raises(ValueError, match="line 1"):
            load_dataset(corpus_dir / "articles", corpus_dir / "labels.tsv", "si")

    def test_out_of_bounds_span_names_article(self, corpus_dir):
        (corpus_dir / "labels.tsv").write_text("1\t0\t999\n")
        with pytest.raises(ValueError, match="'1'"):
            load_dataset(corpus_dir / "articles", corpus_dir / "labels.tsv", "si")

    def test_unknown_article_rejected(self, corpus_dir):
        (corpus_dir / "labels.tsv").write_text("77\t0\t3\n")
        with pytest.raises(ValueError, match="77"):
            load_dataset(corpus_dir / "articles", corpus_dir / "labels.tsv", "si")

    def test_unknown_technique_rejected(self, corpus_dir):
        (corpus_dir / "labels.tsv").write_text("1\tMystery\t0\t5\n")
        (corpus_dir / "tech.txt").write_text("Doubt\n")
        with pytest.raises(ValueError, match="Mystery"):
            load_dataset(corpus_dir / "articles", corpus_dir / "labels.tsv", "tc",
                         corpus_dir / "tech.txt")


def test_span_tsv_round_trip(tmp_path):
    labels = ["A", "B"]
    spans = [Span("2", 4, 9, 1), Span("1", 0, 3, 0)]
    write_spans_tsv(tmp_path / "x.tsv", spans, labels)
    text = (tmp_path / "x.tsv").read_text()
    assert text == "1\tA\t0\t3\n2\tB\t4\t9\n"  # sorted, labeled
    write_spans_tsv(tmp_path / "y.tsv", [Span("1", 0, 3)])
    assert (tmp_path / "y.tsv").read_text() == "1\t0\t3\n"


# field text: no control characters (tab, newline) and no line separators
_field = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")),
                 min_size=1, max_size=8)


@st.composite
def _span_rows(draw):
    labels = draw(st.lists(_field, min_size=1, max_size=4, unique=True))
    labeled = draw(st.booleans())
    spans = []
    for _ in range(draw(st.integers(0, 12))):
        start = draw(st.integers(0, 5000))
        technique = draw(st.integers(0, len(labels) - 1)) if labeled else None
        spans.append(Span(draw(_field), start, start + draw(st.integers(1, 300)),
                          technique))
    return spans, (labels if labeled else None)


@settings(max_examples=60, deadline=None)
@given(_span_rows())
def test_write_then_read_spans_round_trips(case):
    spans, labels = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spans.tsv"
        write_spans_tsv(path, spans, labels)
        got = read_spans_tsv(path, "si" if labels is None else "tc", labels)
    assert got == sorted(spans, key=lambda s: (s.article_id, s.start, s.end))


def test_read_spans_tsv_tc_needs_inventory(tmp_path):
    (tmp_path / "x.tsv").write_text("1\tA\t0\t3\n")
    with pytest.raises(ValueError, match="inventory"):
        read_spans_tsv(tmp_path / "x.tsv", "tc")


def test_techniques_round_trip(tmp_path):
    write_techniques(tmp_path / "t.txt", ["A", "B"])
    assert read_techniques(tmp_path / "t.txt") == ["A", "B"]
    (tmp_path / "dup.txt").write_text("A\nA\n")
    with pytest.raises(ValueError):
        read_techniques(tmp_path / "dup.txt")


class TestSynth:
    def test_deterministic_given_seed(self):
        a = gen_synth(SynthConfig(n_train=5, n_dev=3, n_pool=4, seed=9))
        b = gen_synth(SynthConfig(n_train=5, n_dev=3, n_pool=4, seed=9))
        assert a.train.articles == b.train.articles
        assert a.train.spans == b.train.spans
        assert a.pool.articles == b.pool.articles
        assert a.pool_hidden_spans == b.pool_hidden_spans

    def test_half_width_zero_spans_are_single_triggers(self):
        corpus = gen_synth(SynthConfig(technique_count=1, span_half_width=0,
                                       n_train=20, n_dev=1, n_pool=1, seed=3))
        for sp in corpus.train.spans:
            text = corpus.train.articles[sp.article_id][sp.start:sp.end]
            assert text.startswith("t0x") and " " not in text

    def test_spans_inside_articles_and_labeled(self):
        corpus = gen_synth(SynthConfig(technique_count=3, n_train=30, n_dev=5,
                                       n_pool=5, seed=4))
        assert corpus.labels == ["Technique_00", "Technique_01", "Technique_02"]
        for sp in corpus.train.spans:
            assert 0 <= sp.start < sp.end <= len(corpus.train.articles[sp.article_id])
            assert sp.technique in (0, 1, 2)

    def test_min_span_length_from_half_width(self):
        corpus = gen_synth(SynthConfig(technique_count=1, span_half_width=1,
                                       n_train=40, n_dev=1, n_pool=1, seed=5))
        from propspan.tokens import span_token_range
        for sp in corpus.train.spans:
            tt = corpus.train.tokenized[sp.article_id]
            s, e = span_token_range(tt, sp)
            assert e - s == 3

    def test_pool_has_hidden_spans_but_no_visible_ones(self):
        corpus = gen_synth(SynthConfig(n_train=3, n_dev=2, n_pool=30, seed=6))
        assert corpus.pool.spans == []
        assert len(corpus.pool_hidden_spans) > 0

    def test_class_skew_histogram_within_10_percent(self):
        cfg = SynthConfig(technique_count=2, class_skew=10.0, span_rate=0.9,
                          n_train=400, n_dev=1, n_pool=1, seed=7)
        corpus = gen_synth(cfg)
        counts = np.bincount([s.technique for s in corpus.train.spans], minlength=2)
        assert counts.sum() >= 1000
        frac = counts / counts.sum()
        target = np.array([10 / 11, 1 / 11])
        assert np.abs(frac - target).max() <= 0.1 * target.max()

    def test_lexicons_disjoint_from_fillers(self):
        corpus = gen_synth(SynthConfig(technique_count=2, n_train=10, n_dev=1,
                                       n_pool=1, seed=8))
        for text in corpus.train.articles.values():
            for token in text.split():
                assert token.startswith(("w", "t0x", "t1x"))

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            SynthConfig(technique_count=0)
        with pytest.raises(ValueError):
            SynthConfig(class_skew=0.5)
        with pytest.raises(ValueError):
            SynthConfig(span_half_width=-1)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("abc"), st.integers(0, 20), st.integers(1, 5)),
                max_size=20))
def test_spans_for_matches_scan(rows):
    spans = [Span(aid, start, start + width) for aid, start, width in rows]
    data = SpanDataset(articles={aid: "x" * 30 for aid in "abcd"}, spans=spans)
    for aid in "abcde":
        assert data.spans_for(aid) == [s for s in spans if s.article_id == aid]
