import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from propspan.metrics import (FlcScore, confusion_matrix, flc_f1, flc_f1_per_article,
                              micro_f1, span_outcomes)
from propspan.tokens import Span


def naive_flc(pred, gold):
    """The normative O(|S|*|T|) double sum."""
    p_terms, r_terms = [], []
    for s in pred:
        for t in gold:
            if s.article_id != t.article_id:
                continue
            ov = max(0, min(s.end, t.end) - max(s.start, t.start))
            if True:  # keep every pair, zero terms included
                p_terms.append(ov / (s.end - s.start))
                r_terms.append(ov / (t.end - t.start))
    return FlcScore.from_sums(math.fsum(p_terms), len(pred),
                              math.fsum(r_terms), len(gold))


def random_spans(rng, n_articles=4, max_spans=8, text_len=120, labeled=False):
    spans = []
    for _ in range(int(rng.integers(0, max_spans + 1))):
        aid = f"a{rng.integers(n_articles)}"
        start = int(rng.integers(0, text_len - 2))
        end = int(rng.integers(start + 1, min(start + 30, text_len)))
        tech = int(rng.integers(0, 3)) if labeled else None
        spans.append(Span(aid, start, end, tech))
    return spans


class TestFlcF1:
    def test_exact_match(self):
        spans = [Span("a", 0, 10)]
        score = flc_f1(spans, spans)
        assert (score.precision, score.recall, score.f1) == (1.0, 1.0, 1.0)

    def test_partial_hand_case(self):
        score = flc_f1([Span("a", 0, 5)], [Span("a", 0, 10)])
        assert score.precision == pytest.approx(1.0, abs=1e-9)
        assert score.recall == pytest.approx(0.5, abs=1e-9)
        assert score.f1 == pytest.approx(2.0 / 3.0, abs=1e-9)

    def test_disjoint_is_zero(self):
        score = flc_f1([Span("a", 0, 5)], [Span("a", 50, 60)])
        assert score.f1 == 0.0

    def test_matches_naive_oracle_exactly_1000_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            pred = random_spans(rng)
            gold = random_spans(rng)
            fast = flc_f1(pred, gold)
            slow = naive_flc(pred, gold)
            assert fast == slow  # bit-for-bit, fsum on both sides

    def test_swap_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            pred = random_spans(rng)
            gold = random_spans(rng)
            a = flc_f1(pred, gold)
            b = flc_f1(gold, pred)
            assert a.precision == pytest.approx(b.recall, abs=1e-12)
            assert a.recall == pytest.approx(b.precision, abs=1e-12)
            assert a.f1 == pytest.approx(b.f1, abs=1e-12)

    def test_self_score_one_for_disjoint_spans(self):
        spans = [Span("a", 0, 5), Span("a", 10, 20), Span("b", 3, 9)]
        assert flc_f1(spans, spans).f1 == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_span_rejected(self):
        with pytest.raises(ValueError):
            Span("a", 5, 5)

    def test_empty_sides(self):
        assert flc_f1([], [Span("a", 0, 3)]).f1 == 0.0
        assert flc_f1([Span("a", 0, 3)], []).f1 == 0.0


@st.composite
def _span_set(draw):
    """Spans over three articles, each drawn alone or with a partner nested in
    it, overlapping its end or abutting it; possibly none."""
    spans = []
    for aid, start, length, partner, k in draw(st.lists(st.tuples(
            st.sampled_from("abc"), st.integers(0, 40), st.integers(1, 12),
            st.sampled_from([None, "nested", "overlapping", "abutting"]),
            st.integers(1, 6)), max_size=8)):
        end = start + length
        spans.append(Span(aid, start, end))
        if partner == "nested":
            spans.append(Span(aid, start + (k - 1) % length, end))
        elif partner == "overlapping":
            spans.append(Span(aid, end - 1, end + k))
        elif partner == "abutting":
            spans.append(Span(aid, end, end + k))
    return spans


@settings(max_examples=500, deadline=None)
@given(_span_set(), _span_set())
def test_flc_f1_equals_naive_double_sum(pred, gold):
    assert flc_f1(pred, gold) == naive_flc(pred, gold)  # bit for bit: fsum on both sides


def test_per_article_scores():
    pred = [Span("a", 0, 10), Span("b", 0, 4)]
    gold = [Span("a", 0, 10), Span("b", 20, 30)]
    per = flc_f1_per_article(pred, gold)
    assert per["a"].f1 == 1.0
    assert per["b"].f1 == 0.0


class TestMicroF1:
    def test_all_correct(self):
        assert micro_f1([0, 1, 2], [0, 1, 2]) == 1.0

    def test_single_label_equals_accuracy(self):
        assert micro_f1([0, 1, 1, 2], [0, 1, 2, 2]) == pytest.approx(0.75)
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(1, 50))
            pred = rng.integers(0, 5, n)
            gold = rng.integers(0, 5, n)
            assert micro_f1(pred, gold) == pytest.approx((pred == gold).mean())

    def test_hand_tally_formula(self):
        pred = [0, 0, 1, 2, 2, 1]
        gold = [0, 1, 1, 2, 0, 2]
        tp, fp, fn = 0, 0, 0
        for c in (0, 1, 2):
            tp += sum(p == c and g == c for p, g in zip(pred, gold))
            fp += sum(p == c and g != c for p, g in zip(pred, gold))
            fn += sum(p != c and g == c for p, g in zip(pred, gold))
        assert micro_f1(pred, gold) == pytest.approx(tp / (tp + 0.5 * (fp + fn)))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            micro_f1([0, 1], [0])


class TestSpanOutcomes:
    def techniques(self):
        return ["T0", "T1"]

    def test_covering_prediction_fully_identified(self):
        out = span_outcomes([Span("a", 0, 20)], [Span("a", 5, 10, 0)], self.techniques())
        assert out.fully["T0"] == 100.0
        assert out.counts["Overall"] == 1

    def test_strictly_inside_is_subsequence(self):
        out = span_outcomes([Span("a", 6, 9)], [Span("a", 5, 10, 0)], self.techniques())
        assert out.subsequence["T0"] == 100.0

    def test_no_overlap_not_identified(self):
        out = span_outcomes([Span("a", 50, 60)], [Span("a", 5, 10, 1)], self.techniques())
        assert out.missed["T1"] == 100.0

    def test_categories_partition_gold(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            pred = random_spans(rng)
            gold = random_spans(rng, labeled=True)
            if not gold:
                continue
            out = span_outcomes(pred, gold, ["T0", "T1", "T2"])
            assert out.counts["Overall"] == len(gold)
            for name in out.counts:
                total = out.fully[name] + out.subsequence[name] + out.missed[name]
                assert total == pytest.approx(100.0, abs=1e-9)

    def test_unlabeled_gold_rejected(self):
        with pytest.raises(ValueError):
            span_outcomes([], [Span("a", 0, 3)], self.techniques())


class TestConfusionMatrix:
    def test_perfect_predictions_identity(self):
        m = confusion_matrix([0, 1, 2], [0, 1, 2], 3)
        np.testing.assert_allclose(m, np.eye(3))

    def test_rows_normalized(self):
        rng = np.random.default_rng(5)
        m = confusion_matrix(rng.integers(0, 4, 100), rng.integers(0, 4, 100), 4)
        np.testing.assert_allclose(m.sum(axis=1), 1.0, atol=1e-9)

    def test_hand_tally(self):
        m = confusion_matrix([0, 1, 1], [0, 0, 1], 2)
        np.testing.assert_allclose(m, [[0.5, 0.5], [0.0, 1.0]])

    def test_empty_gold_row_stays_zero(self):
        m = confusion_matrix([0, 0], [0, 0], 3)
        np.testing.assert_allclose(m[1], 0.0)
        np.testing.assert_allclose(m[2], 0.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            confusion_matrix([0, 5], [0, 1], 3)
