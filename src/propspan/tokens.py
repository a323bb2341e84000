"""Tokenization with character offsets and the span <-> BIO tag codec.

Character offsets are the common currency: annotations are character
ranges over article text, models see token sequences, and everything
here keeps the two views convertible without loss.
"""

from __future__ import annotations

import re
import string
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import NamedTuple

import numpy as np

O, B, I = 0, 1, 2
TAG_NAMES = ("O", "B", "I")

PAD, UNK, BOS, EOS, BOP, EOP = "[PAD]", "[UNK]", "[BOS]", "[EOS]", "[BOP]", "[EOP]"
SPECIAL_TOKENS = (PAD, UNK, BOS, EOS, BOP, EOP)

_PUNCT = set(string.punctuation) | set("‘’“”–—…")
# one punctuation character, or a run of characters that are neither
# whitespace (``\s`` is exactly ``str.isspace``) nor punctuation
_PUNCT_CLASS = "".join(re.escape(c) for c in sorted(_PUNCT))
_TOKEN_RE = re.compile(rf"[{_PUNCT_CLASS}]|[^\s{_PUNCT_CLASS}]+")


class Token(NamedTuple):
    surface: str
    start: int
    end: int


@dataclass(frozen=True)
class Span:
    """A character range in one article, optionally labeled with a technique."""

    article_id: str
    start: int
    end: int
    technique: int | None = None

    def __post_init__(self):
        if not (0 <= self.start < self.end):
            raise ValueError(f"degenerate span ({self.start}, {self.end})")

    def length(self) -> int:
        return self.end - self.start


def spans_by_article(spans: list[Span]) -> dict[str, list[Span]]:
    """``spans`` grouped by article, each group in input order."""
    out: dict[str, list[Span]] = {}
    for sp in spans:
        out.setdefault(sp.article_id, []).append(sp)
    return out


@dataclass(frozen=True)
class TokenizedText:
    text: str
    tokens: tuple[Token, ...]

    def __len__(self) -> int:
        return len(self.tokens)

    @cached_property
    def starts(self) -> list[int]:
        return [t.start for t in self.tokens]

    @cached_property
    def ends(self) -> list[int]:
        return [t.end for t in self.tokens]


def _token_range(tt: TokenizedText, start: int, end: int) -> tuple[int, int]:
    """Half-open index range of the tokens that overlap [start, end); empty
    when none does. Tokens are sorted and disjoint, so both bounds bisect."""
    return bisect_right(tt.ends, start), bisect_left(tt.starts, end)


def tokenize(text: str) -> TokenizedText:
    """Whitespace words with punctuation characters split into single tokens."""
    rows = [(m.group(), m.start(), m.end()) for m in _TOKEN_RE.finditer(text)]
    # tuple.__new__ builds each Token without a call of its Python-level __new__
    return TokenizedText(text=text, tokens=tuple(map(tuple.__new__, repeat(Token), rows)))


def merge_spans(spans: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Union of overlapping/touching-by-overlap character ranges, sorted."""
    if not spans:
        return []
    ordered = sorted(spans)
    merged = [ordered[0]]
    for s, e in ordered[1:]:
        ls, le = merged[-1]
        if s < le:  # strict overlap only; abutting spans stay separate
            merged[-1] = (ls, max(le, e))
        else:
            merged.append((s, e))
    return merged


def spans_to_tags(tt: TokenizedText, spans: list[Span]) -> list[int]:
    """BIO tags for the union-merged spans; snaps outward to token boundaries."""
    for sp in spans:
        if sp.end > len(tt.text):
            raise ValueError(f"span ({sp.start}, {sp.end}) outside text of length {len(tt.text)}")
    tags = [O] * len(tt.tokens)
    for ms, me in merge_spans([(sp.start, sp.end) for sp in spans]):
        first, stop = _token_range(tt, ms, me)
        for j in range(first, stop):
            if tags[j] == O:  # else the token straddles two merged spans
                tags[j] = B if j == first else I
    return tags


def tags_to_spans(tt: TokenizedText, tags: list[int], article_id: str = "") -> list[Span]:
    """Inverse codec; a bare I after O opens a span (lenient decode)."""
    if len(tags) != len(tt.tokens):
        raise ValueError(f"{len(tags)} tags for {len(tt.tokens)} tokens")
    spans: list[Span] = []
    run_start: int | None = None
    last_end = 0
    for tok, tag in zip(tt.tokens, tags):
        if tag == B or (tag == I and run_start is None):
            if run_start is not None:
                spans.append(Span(article_id, run_start, last_end))
            run_start = tok.start
            last_end = tok.end
        elif tag == I:
            last_end = tok.end
        else:
            if run_start is not None:
                spans.append(Span(article_id, run_start, last_end))
                run_start = None
    if run_start is not None:
        spans.append(Span(article_id, run_start, last_end))
    return spans


def span_token_range(tt: TokenizedText, span: Span) -> tuple[int, int]:
    """Half-open token index range intersecting the span (outward snap)."""
    first, stop = _token_range(tt, span.start, span.end)
    if first >= stop:
        raise ValueError(f"span ({span.start}, {span.end}) covers no token")
    return first, stop


@dataclass(frozen=True)
class ContextWindow:
    """Token-index window around a span: [start, end) with the span at [span_start, span_end)."""

    start: int
    end: int
    span_start: int
    span_end: int


def extend_context(tt: TokenizedText, span: Span, max_tokens: int) -> ContextWindow:
    """Grow the span's token range equally left and right up to ``max_tokens``.

    Budget left over at a document boundary moves to the other side, so the
    window always has min(max_tokens, len(doc)) tokens. A span longer than
    ``max_tokens`` keeps its first ``max_tokens`` tokens, with no context.
    """
    s0, s1 = span_token_range(tt, span)
    n = len(tt.tokens)
    if s1 - s0 > max_tokens:
        return ContextWindow(s0, s0 + max_tokens, s0, s0 + max_tokens)
    budget = max_tokens - (s1 - s0)
    left = min(budget // 2, s0)
    right = min(budget - left, n - s1)
    left = min(budget - right, s0)
    return ContextWindow(s0 - left, s1 + right, s0, s1)


def inject_markers(window_tokens: list[str], span_start: int,
                   span_end: int) -> list[str]:
    """[BOS] left [BOP] span [EOP] right [EOS].

    ``span_start``/``span_end`` index into ``window_tokens``; the window is
    already budgeted (see ``extend_context``).
    """
    if not (0 <= span_start < span_end <= len(window_tokens)):
        raise ValueError(f"span range ({span_start}, {span_end}) outside window "
                         f"of {len(window_tokens)} tokens")
    return [BOS, *window_tokens[:span_start], BOP, *window_tokens[span_start:span_end],
            EOP, *window_tokens[span_end:], EOS]


class Vocab:
    """Deterministic token <-> id mapping with the fixed special rows first."""

    def __init__(self, words: list[str]):
        self.itos: list[str] = list(SPECIAL_TOKENS) + [w for w in words if w not in SPECIAL_TOKENS]
        self.stoi: dict[str, int] = {w: i for i, w in enumerate(self.itos)}
        if len(self.stoi) != len(self.itos):
            raise ValueError("duplicate words in vocabulary")

    @classmethod
    def build(cls, token_iterables) -> "Vocab":
        seen = set()
        for toks in token_iterables:
            seen.update(toks)
        return cls(sorted(seen - set(SPECIAL_TOKENS)))

    def __len__(self) -> int:
        return len(self.itos)

    def encode(self, tokens: list[str]) -> list[int]:
        unk = self.stoi[UNK]
        return [self.stoi.get(t, unk) for t in tokens]

    def pad(self, seqs: list[list[str]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Token ids right-padded to the longest sequence, the mask of real
        tokens and the lengths."""
        lengths = np.array([len(s) for s in seqs], dtype=np.int64)
        width = int(lengths.max())
        ids = np.full((len(seqs), width), self.stoi[PAD], dtype=np.int64)
        for i, s in enumerate(seqs):
            ids[i, :len(s)] = self.encode(s)
        mask = np.arange(width)[None, :] < lengths[:, None]
        return ids, mask, lengths
