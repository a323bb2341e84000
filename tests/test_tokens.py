import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from propspan.tokens import (_PUNCT, BOP, BOS, EOP, EOS, PAD, ContextWindow, Span,
                             Token, Vocab, extend_context, inject_markers, merge_spans,
                             span_token_range, spans_to_tags, tags_to_spans, tokenize)

O, B, I = 0, 1, 2


class TestTokenize:
    def test_whitespace_words_with_offsets(self):
        tt = tokenize("Democrats acted like babies")
        assert [(t.surface, t.start, t.end) for t in tt.tokens] == [
            ("Democrats", 0, 9), ("acted", 10, 15), ("like", 16, 20), ("babies", 21, 27)]

    def test_punctuation_split_off(self):
        assert [t.surface for t in tokenize("folks,'").tokens] == ["folks", ",", "'"]

    def test_empty_text(self):
        assert tokenize("").tokens == ()

    def test_offsets_reproduce_surfaces(self):
        rng = np.random.default_rng(0)
        words = ["alpha", "beta,", "'gamma'", "x.y", "hello!"]
        for _ in range(200):
            text = " ".join(rng.choice(words, size=rng.integers(1, 10)))
            tt = tokenize(text)
            for tok in tt.tokens:
                assert text[tok.start:tok.end] == tok.surface
            starts = [t.start for t in tt.tokens]
            assert starts == sorted(starts)
            for a, b in zip(tt.tokens, tt.tokens[1:]):
                assert a.end <= b.start

    def test_unicode_quotes_are_single_tokens(self):
        assert [t.surface for t in tokenize("‘tortured’").tokens] == ["‘", "tortured", "’"]


def loop_tokenize(text):
    """The character loop ``tokenize`` replaced: its oracle."""
    tokens, i, n = [], 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in _PUNCT:
            tokens.append((ch, i, i + 1))
            i += 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in _PUNCT:
                j += 1
            tokens.append((text[i:j], i, j))
            i = j
    return tokens


# every str.isspace character (the \x1c-\x1f separators, NEL, NBSP, U+3000 ...),
# the punctuation set with its curly quotes and dashes, and plain letters
_SPACES = "".join(c for c in map(chr, range(0x3001)) if c.isspace())
_TOKEN_ALPHABET = _SPACES + "".join(sorted(_PUNCT)) + "ab\u00e9\u4e00"


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=st.one_of(st.sampled_from(_TOKEN_ALPHABET), st.characters()),
               max_size=40))
@example("a\x1cb\x1dc\x1ed\x1fe\x85f\xa0g\u3000h")
@example("‘quoted’ “twice”–dash—long…end")
def test_tokenize_matches_character_loop(text):
    tokens = tokenize(text).tokens
    assert type(tokens) is tuple and all(type(t) is Token for t in tokens)
    assert [tuple(t) for t in tokens] == loop_tokenize(text)


class TestSpansToTags:
    def tt(self):
        return tokenize("Democrats acted like babies")

    def test_single_token_span(self):
        tags = spans_to_tags(self.tt(), [Span("a", 21, 27)])
        assert tags == [O, O, O, B]

    def test_two_token_span(self):
        tags = spans_to_tags(self.tt(), [Span("a", 10, 20)])
        assert tags == [O, B, I, O]

    def test_overlapping_spans_union_merged(self):
        tags = spans_to_tags(self.tt(), [Span("a", 10, 20), Span("a", 16, 27)])
        assert tags == [O, B, I, I]

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValueError):
            spans_to_tags(self.tt(), [Span("a", 0, 999)])

    def test_no_O_then_I_under_strict_encoding(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            text = " ".join(f"w{i}" for i in range(20))
            tt = tokenize(text)
            spans = []
            for _ in range(rng.integers(0, 5)):
                i = int(rng.integers(0, 19))
                j = int(rng.integers(i, 20))
                spans.append(Span("a", tt.tokens[i].start, tt.tokens[j].end))
            tags = spans_to_tags(tt, spans)
            for prev, cur in zip(tags, tags[1:]):
                assert not (prev == O and cur == I)


class TestTagsToSpans:
    def tt(self):
        return tokenize("Democrats acted like babies")

    def test_inverse_of_single_token(self):
        assert tags_to_spans(self.tt(), [O, O, O, B], "a") == [Span("a", 21, 27)]

    def test_lenient_bare_I_opens_span(self):
        spans = tags_to_spans(self.tt(), [O, I, I, O], "a")
        assert spans == [Span("a", 10, 20)]

    def test_all_O(self):
        assert tags_to_spans(self.tt(), [O, O, O, O]) == []

    def test_B_after_run_starts_new_span(self):
        spans = tags_to_spans(self.tt(), [B, I, B, I], "a")
        assert [(s.start, s.end) for s in spans] == [(0, 15), (16, 27)]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            tags_to_spans(self.tt(), [O, O])


def test_round_trip_exact_on_random_disjoint_token_aligned_spans():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        text = " ".join(f"tok{i}" for i in range(n))
        tt = tokenize(text)
        spans = []
        cursor = 0
        while cursor < n:
            if rng.random() < 0.3:
                length = int(rng.integers(1, min(5, n - cursor) + 1))
                spans.append(Span("art", tt.tokens[cursor].start,
                                  tt.tokens[cursor + length - 1].end))
                cursor += length + 1  # at least one O token between spans
            else:
                cursor += 1
        tags = spans_to_tags(tt, spans)
        assert tags_to_spans(tt, tags, "art") == spans


def test_adjacent_token_aligned_spans_survive_round_trip():
    tt = tokenize("a b c d")
    spans = [Span("x", 0, 1), Span("x", 2, 3)]  # adjacent tokens, separate spans
    tags = spans_to_tags(tt, spans)
    assert tags == [B, B, O, O]
    assert tags_to_spans(tt, tags, "x") == spans


class TestMergeSpans:
    def test_overlap_merges(self):
        assert merge_spans([(10, 20), (16, 27)]) == [(10, 27)]

    def test_abutting_stay_separate(self):
        assert merge_spans([(0, 5), (5, 9)]) == [(0, 5), (5, 9)]

    def test_empty(self):
        assert merge_spans([]) == []


class TestExtendContext:
    def doc(self, n=500):
        return tokenize(" ".join(f"w{i:03d}" for i in range(n)))

    def test_equal_extension_left_gets_floor(self):
        doc = self.doc()
        span = Span("d", doc.tokens[200].start, doc.tokens[210].end)  # 11 tokens
        win = extend_context(doc, span, 256)
        assert (win.start, win.end) == (78, 334)
        assert (win.span_start, win.span_end) == (200, 211)

    def test_boundary_budget_moves_right(self):
        doc = self.doc()
        span = Span("d", doc.tokens[0].start, doc.tokens[5].end)
        win = extend_context(doc, span, 256)
        assert (win.start, win.end) == (0, 256)

    def test_short_document_returns_whole(self):
        doc = self.doc(30)
        span = Span("d", doc.tokens[10].start, doc.tokens[12].end)
        win = extend_context(doc, span, 256)
        assert (win.start, win.end) == (0, 30)

    def test_window_always_contains_span_with_exact_size(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            n = int(rng.integers(3, 80))
            doc = self.doc(n)
            i = int(rng.integers(0, n))
            j = int(rng.integers(i, n))
            span = Span("d", doc.tokens[i].start, doc.tokens[j].end)
            budget = int(rng.integers(j - i + 1, 100))
            win = extend_context(doc, span, budget)
            assert win.end - win.start == min(budget, n)
            assert win.start <= win.span_start < win.span_end <= win.end

    def test_oversize_span_keeps_its_first_tokens(self):
        doc = self.doc(20)
        span = Span("d", doc.tokens[0].start, doc.tokens[19].end)
        assert extend_context(doc, span, 10) == ContextWindow(0, 10, 0, 10)


class TestInjectMarkers:
    def test_paper_style_example(self):
        toks = ["Democrats", "acted", "like", "babies", "at", "the", "SOTU"]
        assert inject_markers(toks, 3, 4) == [
            BOS, "Democrats", "acted", "like", BOP, "babies", EOP,
            "at", "the", "SOTU", EOS]

    def test_whole_window_span(self):
        assert inject_markers(["x", "y"], 0, 2) == [BOS, BOP, "x", "y", EOP, EOS]

    def test_empty_context_markers_adjacent(self):
        seq = inject_markers(["only"], 0, 1)
        assert seq == [BOS, BOP, "only", EOP, EOS]

    def test_out_of_window_range_rejected(self):
        with pytest.raises(ValueError):
            inject_markers(["a"], 0, 2)


def test_span_token_range_snaps_outward():
    tt = tokenize("alpha beta gamma")
    # span cuts through "beta": tokens snap outward to cover it fully
    assert span_token_range(tt, Span("a", 7, 9)) == (1, 2)
    with pytest.raises(ValueError):
        span_token_range(tt, Span("a", 5, 6))  # whitespace only


class TestVocab:
    def test_deterministic_and_specials_first(self):
        v = Vocab.build([["b", "a"], ["c", "a"]])
        assert v.itos[:6] == [PAD, "[UNK]", BOS, EOS, BOP, EOP]
        assert v.itos[6:] == ["a", "b", "c"]

    def test_unknown_maps_to_unk(self):
        v = Vocab(["known"])
        assert v.encode(["known", "new"]) == [v.stoi["known"], v.stoi["[UNK]"]]


# -- bisect over token offsets, against the per-span scans it replaced ---------------

def scan_span_token_range(tt, span):
    first = last = None
    for j, tok in enumerate(tt.tokens):
        if tok.start < span.end and tok.end > span.start:
            if first is None:
                first = j
            last = j
    if first is None:
        raise ValueError("covers no token")
    return first, last + 1


def scan_spans_to_tags(tt, spans):
    tags = [O] * len(tt.tokens)
    for ms, me in merge_spans([(sp.start, sp.end) for sp in spans]):
        run_started = False
        for j, tok in enumerate(tt.tokens):
            if tok.start < me and tok.end > ms:
                if tags[j] != O:
                    run_started = True
                    continue
                tags[j] = I if run_started else B
                run_started = True
    return tags


_texts = st.text(alphabet="ab  \n,.'‘", max_size=40)


@st.composite
def _text_and_spans(draw, max_spans=6):
    text = draw(_texts.filter(bool))
    spans = []
    for _ in range(draw(st.integers(0, max_spans))):
        start = draw(st.integers(0, len(text) - 1))
        spans.append(Span("a", start, draw(st.integers(start + 1, len(text)))))
    return tokenize(text), spans


@settings(max_examples=400, deadline=None)
@given(_text_and_spans(max_spans=1))
def test_span_token_range_matches_scan(case):
    tt, spans = case
    for span in spans:
        try:
            expected = scan_span_token_range(tt, span)
        except ValueError:
            with pytest.raises(ValueError, match="covers no token"):
                span_token_range(tt, span)
        else:
            assert span_token_range(tt, span) == expected


@settings(max_examples=400, deadline=None)
@given(_text_and_spans(max_spans=1).filter(lambda case: case[1]), st.integers(1, 30))
def test_extend_context_window_invariants(case, max_tokens):
    """A span that fits sits in a window of min(max_tokens, n) tokens whose left
    and right context differ by at most one token unless one side reaches the
    document boundary; an over-budget span truncates to its first max_tokens."""
    tt, (span,) = case
    try:
        s0, s1 = span_token_range(tt, span)
    except ValueError:
        assume(False)
    n = len(tt)
    if s1 - s0 > max_tokens:
        assert extend_context(tt, span, max_tokens) == \
            ContextWindow(s0, s0 + max_tokens, s0, s0 + max_tokens)
        return
    win = extend_context(tt, span, max_tokens)
    assert (win.span_start, win.span_end) == (s0, s1)
    assert 0 <= win.start <= s0 and s1 <= win.end <= n
    assert win.end - win.start == min(max_tokens, n)
    left, right = s0 - win.start, win.end - s1
    assert abs(left - right) <= 1 or win.start == 0 or win.end == n


@settings(max_examples=400, deadline=None)
@given(_text_and_spans())
def test_spans_to_tags_matches_scan(case):
    tt, spans = case
    assert spans_to_tags(tt, spans) == scan_spans_to_tags(tt, spans)


@settings(max_examples=300, deadline=None)
@given(_texts, st.data())
def test_tags_survive_decode_then_encode(text, data):
    """Decoding any tag sequence and encoding the spans again gives the strict
    BIO form: an I that opens a run (at the start or after O) becomes B."""
    tt = tokenize(text)
    tags = data.draw(st.lists(st.sampled_from([O, B, I]), min_size=len(tt),
                              max_size=len(tt)))
    strict = [B if t == I and (j == 0 or tags[j - 1] == O) else t
              for j, t in enumerate(tags)]
    spans = tags_to_spans(tt, tags, "a")
    assert spans_to_tags(tt, spans) == strict
    assert tags_to_spans(tt, strict, "a") == spans
