import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from propspan.analysis import (CHAR_CLASSES, LOCATIONS, AnalysisItem, FeatureSpec,
                               TextTokens, default_features, extract_feature,
                               parse_feature_file, worsening_features, write_report)
from propspan.tokens import tokenize


class TestExtractFeature:
    def test_comma_inside_span(self):
        item = AnalysisItem(text="He tortured, some folks back then",
                            span=(3, 25))
        assert extract_feature(item, FeatureSpec("c", "inside-span", "comma"))
        assert not extract_feature(item, FeatureSpec("q", "inside-span", "question"))

    def test_according_to_after_span(self):
        text = "the bold claim was made, according to officials"
        item = AnalysisItem(text=text, span=(0, 14))
        assert extract_feature(item, FeatureSpec("a", "after-span", "according to"))
        assert not extract_feature(item, FeatureSpec("a", "before-span", "according to"))

    def test_exclamation_absent(self):
        item = AnalysisItem(text="calm words only", span=(0, 10))
        assert not extract_feature(item, FeatureSpec("e", "inside-span", "exclamation"))

    def test_quotation_before_span(self):
        item = AnalysisItem(text="she said ‘go now’ loudly", span=(10, 16))
        assert extract_feature(item, FeatureSpec("q", "before-span", "quotation"))

    def test_expected_and_output_regions(self):
        item = AnalysisItem(text="aa bb? cc dd", expected_spans=[(3, 6)],
                            output_spans=[(7, 9)])
        assert extract_feature(item, FeatureSpec("q", "expected-span", "question"))
        assert not extract_feature(item, FeatureSpec("q", "output-span", "question"))

    def test_literal_match_is_token_aligned_and_case_insensitive(self):
        item = AnalysisItem(text="We willfully admit", span=(0, 18))
        assert extract_feature(item, FeatureSpec("we", "inside-span", "we"))
        # "will" must match a token, not a prefix of "willfully"
        assert not extract_feature(item, FeatureSpec("w", "inside-span", "will"))

    def test_missing_span_for_relative_region(self):
        with pytest.raises(ValueError):
            extract_feature(AnalysisItem(text="x"), FeatureSpec("c", "inside-span", "comma"))

    def test_unknown_location_rejected(self):
        with pytest.raises(ValueError):
            FeatureSpec("x", "around-span", "comma")
        with pytest.raises(ValueError):
            FeatureSpec("x", "inside-span", "")


class TestWorseningFeatures:
    def make_items(self, flags):
        # feature "comma inside" present iff flag
        return [AnalysisItem(text="a , b" if f else "a b", span=(0, 5 if f else 3))
                for f in flags]

    def test_deterministically_harmful_feature_small_p(self):
        rng = np.random.default_rng(0)
        flags = [True] * 20 + [False] * 40
        scores = [0.0 if f else 1.0 for f in flags]
        items = self.make_items(flags)
        report = worsening_features(items, scores,
                                    [FeatureSpec("comma", "inside-span", "comma")])
        assert report.rows[0].count == 20
        assert report.rows[0].p_value < 0.001

    def test_all_or_none_features_skipped(self):
        items = self.make_items([True, True, True])
        report = worsening_features(items, [1, 1, 1],
                                    [FeatureSpec("comma", "inside-span", "comma"),
                                     FeatureSpec("q", "inside-span", "question")])
        assert report.rows == []
        assert set(report.skipped) == {"comma", "q"}

    def test_empty_spec_list(self):
        report = worsening_features(self.make_items([True]), [1.0], [])
        assert report.rows == [] and report.skipped == []

    def test_rows_sorted_by_p_then_count(self):
        rng = np.random.default_rng(1)
        flags_a = [bool(b) for b in rng.integers(0, 2, 60)]
        scores = [0.0 if f else 1.0 for f in flags_a]  # feature a fully predictive
        items = [AnalysisItem(text=("x , y" if a else "x y") + (" !" if i % 2 else ""),
                              span=(0, 99)) for i, (a,) in enumerate(zip(flags_a))]
        specs = [FeatureSpec("excl", "inside-span", "exclamation"),
                 FeatureSpec("comma", "inside-span", "comma")]
        report = worsening_features(items, scores, specs)
        ps = [r.p_value for r in report.rows]
        assert ps == sorted(ps)
        assert report.rows[0].name == "comma"

    def test_permuting_items_gives_identical_rows(self):
        rng = np.random.default_rng(2)
        flags = [bool(b) for b in rng.integers(0, 2, 40)]
        scores = list(rng.random(40))
        items = self.make_items(flags)
        specs = [FeatureSpec("comma", "inside-span", "comma")]
        base = worsening_features(items, scores, specs)
        perm = rng.permutation(40)
        shuffled = worsening_features([items[i] for i in perm],
                                      [scores[i] for i in perm], specs)
        assert base.rows == shuffled.rows

    def test_score_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            worsening_features(self.make_items([True]), [1.0, 2.0], [])

    def test_null_feature_p_roughly_uniform(self):
        # uncorrelated random feature: fraction of p < .05 near 5% over 200 trials
        rng = np.random.default_rng(3)
        hits = 0
        trials = 200
        for _ in range(trials):
            n = 1000
            present = rng.integers(0, 2, n).astype(bool)
            scores = rng.random(n)
            items = self.make_items(present.tolist())
            report = worsening_features(items, scores.tolist(),
                                        [FeatureSpec("comma", "inside-span", "comma")])
            hits += report.rows[0].p_value < 0.05
        assert 0.03 <= hits / trials <= 0.07


def test_default_inventories_cover_reported_features():
    si = {s.name for s in default_features("si")}
    tc = {s.name for s in default_features("tc")}
    assert {"question_expected", "dot_expected", "quotation_expected",
            "exclamation_expected", "and_output"} == si
    assert {"comma_inside", "we_inside", "this_inside", "will_inside", "not_inside",
            "exclamation_inside", "cia_before", "according_to_after",
            "quotation_before"} == tc
    with pytest.raises(ValueError):
        default_features("xx")


def test_feature_file_round_trip(tmp_path):
    path = tmp_path / "f.tsv"
    path.write_text("# comment\nmyfeat\tinside-span\tcomma\n"
                    "phrase\tafter-span\taccording to\n")
    specs = parse_feature_file(path)
    assert specs == [FeatureSpec("myfeat", "inside-span", "comma"),
                     FeatureSpec("phrase", "after-span", "according to")]
    (tmp_path / "bad.tsv").write_text("only two\tfields\n")
    with pytest.raises(ValueError):
        parse_feature_file(tmp_path / "bad.tsv")


def test_write_report(tmp_path):
    from propspan.analysis import WorseningReport, WorseningRow
    report = WorseningReport(rows=[WorseningRow("f", 3, 0.01)], skipped=["g"])
    write_report(tmp_path / "r.tsv", report)
    text = (tmp_path / "r.tsv").read_text()
    assert "feature\tcount\tp_value" in text
    assert "f\t3\t0.01" in text
    assert "skipped" in text


# -- regions cut from one tokenization, against tokenizing each region ---------------

def oracle_region_text(item, location):
    """The region as one string, the way every region was tokenized before."""
    if location == "expected-span":
        return " \n ".join(item.text[s:e] for s, e in item.expected_spans)
    if location == "output-span":
        return " \n ".join(item.text[s:e] for s, e in item.output_spans)
    s, e = item.span
    return {"inside-span": item.text[s:e], "before-span": item.text[:s],
            "after-span": item.text[e:]}[location]


def oracle_extract_feature(item, spec):
    region = oracle_region_text(item, spec.location)
    if spec.pattern in CHAR_CLASSES:
        return any(ch in region for ch in CHAR_CLASSES[spec.pattern])
    needle = [t.lower() for t in spec.pattern.split()]
    hay = [t.surface.lower() for t in tokenize(region).tokens]
    if len(needle) > len(hay):
        return False
    return any(hay[i:i + len(needle)] == needle
               for i in range(len(hay) - len(needle) + 1))


# "İ" lower-cases to two characters; the quotes are punctuation tokens.
_ALPHABET = "abAİ  \n\t?.,!'\"‘’“”-"
_texts = st.text(alphabet=_ALPHABET, max_size=40)


@st.composite
def _item_and_spec(draw):
    text = draw(_texts)
    bound = st.integers(-3, len(text) + 3)  # slices take any ints
    pairs = st.lists(st.tuples(bound, bound), max_size=3)
    item = AnalysisItem(text=text, expected_spans=draw(pairs), output_spans=draw(pairs),
                        span=(draw(bound), draw(bound)))
    words = [t.surface for t in tokenize(text).tokens] or ["a"]
    pattern = draw(st.one_of(
        st.sampled_from(sorted(CHAR_CLASSES)),
        st.lists(st.sampled_from(words), min_size=1, max_size=3).map(" ".join),
        st.text(alphabet=_ALPHABET, min_size=1, max_size=6)))
    return item, FeatureSpec("f", draw(st.sampled_from(LOCATIONS)), pattern)


@settings(max_examples=300, deadline=None)
@given(_texts, st.integers(-3, 45), st.integers(-3, 45))
def test_region_tokens_equal_tokenizing_the_region(text, start, end):
    tokens = TextTokens(text)
    for part in (slice(start, end), slice(None, start), slice(end, None)):
        assert tokens.region(part) == [t.surface.lower() for t in tokenize(text[part]).tokens]


@settings(max_examples=500, deadline=None)
@given(_item_and_spec())
def test_extract_feature_matches_tokenizing_each_region(case):
    item, spec = case
    expected = oracle_extract_feature(item, spec)
    assert extract_feature(item, spec) == expected
    assert extract_feature(item, spec, TextTokens(item.text)) == expected
