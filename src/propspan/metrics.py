"""Span and label scoring: partial-match span F1, micro-F1, outcome
breakdowns, and row-normalized confusion matrices.

The span scorer gives fractional credit per (predicted, gold) pair:
C(s, t, h) = |s intersect t| / h, summed s-major for precision (h = |s|)
and t-major for recall (h = |t|), with pairs restricted to the same
article. Totals use math.fsum so the result is independent of pair
enumeration order, which lets the swept implementation match a naive
double sum bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .tokens import Span, spans_by_article


@dataclass(frozen=True)
class FlcScore:
    precision: float
    recall: float
    f1: float

    @classmethod
    def from_sums(cls, p_sum: float, n_pred: int, r_sum: float, n_gold: int) -> "FlcScore":
        p = p_sum / n_pred if n_pred else 0.0
        r = r_sum / n_gold if n_gold else 0.0
        f1 = 2 * p * r / (p + r) if p + r > 0 else 0.0
        return cls(precision=p, recall=r, f1=f1)


def _overlap(a: Span, b: Span) -> int:
    return max(0, min(a.end, b.end) - max(a.start, b.start))


def flc_f1(pred: list[Span], gold: list[Span]) -> FlcScore:
    """Partial-credit span F1 over same-article pairs.

    Spans are grouped per article and sorted by start; only overlapping
    pairs contribute, so the sweep skips the zero terms of the full
    double sum without changing the fsum total.
    """
    gold_groups = spans_by_article(gold)
    p_terms: list[float] = []
    r_terms: list[float] = []
    for aid, ps in spans_by_article(pred).items():
        ts = gold_groups.get(aid)
        if not ts:
            continue
        ps = sorted(ps, key=lambda s: (s.start, s.end))
        ts = sorted(ts, key=lambda s: (s.start, s.end))
        lo = 0
        for s in ps:
            while lo < len(ts) and ts[lo].end <= s.start:
                lo += 1
            k = lo
            while k < len(ts) and ts[k].start < s.end:
                ov = _overlap(s, ts[k])
                if ov > 0:
                    p_terms.append(ov / s.length())
                    r_terms.append(ov / ts[k].length())
                k += 1
    return FlcScore.from_sums(math.fsum(p_terms), len(pred), math.fsum(r_terms), len(gold))


def flc_f1_per_article(pred: list[Span], gold: list[Span]) -> dict[str, FlcScore]:
    """Article-level scores, for per-item error analysis."""
    by_pred, by_gold = spans_by_article(pred), spans_by_article(gold)
    return {aid: flc_f1(by_pred.get(aid, []), by_gold.get(aid, []))
            for aid in sorted(by_pred.keys() | by_gold.keys())}


def micro_f1(pred_labels, gold_labels) -> float:
    """Micro-averaged F1 = sum TP / (sum TP + (FP + FN) / 2) over single-label
    items: each wrong item is one FP and one FN, so this is plain accuracy."""
    pred = np.asarray(pred_labels)
    gold = np.asarray(gold_labels)
    if pred.shape != gold.shape:
        raise ValueError(f"{pred.shape} predictions vs {gold.shape} gold labels")
    if pred.size == 0:
        raise ValueError("empty label sequences")
    return float((pred == gold).mean())


@dataclass
class OutcomeBreakdown:
    """Per-technique proportions of fully / partially / not identified gold spans."""

    techniques: list[str]
    counts: dict[str, int] = field(default_factory=dict)
    fully: dict[str, float] = field(default_factory=dict)
    subsequence: dict[str, float] = field(default_factory=dict)
    missed: dict[str, float] = field(default_factory=dict)

    def rows(self) -> list[tuple[str, int, float, float, float]]:
        out = []
        for name in self.techniques + ["Overall"]:
            if name in self.counts:
                out.append((name, self.counts[name], self.fully[name],
                            self.subsequence[name], self.missed[name]))
        return out


def span_outcomes(pred: list[Span], gold: list[Span],
                  techniques: list[str]) -> OutcomeBreakdown:
    """Classify each gold span as fully identified, identified subsequence, or missed."""
    by_article = spans_by_article(pred)
    tallies: dict[str, list[int]] = {name: [0, 0, 0] for name in techniques}
    overall = [0, 0, 0]
    for g in gold:
        if g.technique is None:
            raise ValueError("gold spans must carry technique labels")
        name = techniques[g.technique]
        candidates = by_article.get(g.article_id, ())
        covered = any(s.start <= g.start and s.end >= g.end for s in candidates)
        touched = covered or any(_overlap(s, g) > 0 for s in candidates)
        slot = 0 if covered else (1 if touched else 2)
        tallies[name][slot] += 1
        overall[slot] += 1

    out = OutcomeBreakdown(techniques=list(techniques))
    for name, (full, sub, miss) in list(tallies.items()) + [("Overall", overall)]:
        total = full + sub + miss
        if total == 0 and name != "Overall":
            continue
        out.counts[name] = total
        out.fully[name] = 100.0 * full / total if total else 0.0
        out.subsequence[name] = 100.0 * sub / total if total else 0.0
        out.missed[name] = 100.0 * miss / total if total else 0.0
    return out


def confusion_matrix(pred_labels, gold_labels, n_classes: int) -> np.ndarray:
    """M[i, j] = fraction of gold-class-i items predicted as j; empty rows stay zero."""
    pred = np.asarray(pred_labels, dtype=np.int64)
    gold = np.asarray(gold_labels, dtype=np.int64)
    if pred.shape != gold.shape:
        raise ValueError("prediction/gold length mismatch")
    if pred.size and (min(pred.min(), gold.min()) < 0
                      or max(pred.max(), gold.max()) >= n_classes):
        raise ValueError(f"labels must lie in [0, {n_classes})")
    counts = np.zeros((n_classes, n_classes), dtype=np.float64)
    np.add.at(counts, (gold, pred), 1.0)
    row_sums = counts.sum(axis=1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        normalized = np.where(row_sums > 0, counts / row_sums, 0.0)
    return normalized
