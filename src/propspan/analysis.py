"""No-box error analysis: shallow features ranked by how strongly their
presence depresses per-item scores.

For every feature the items split into present/absent subsets; a one-sided
rank test (present scoring lower) gives the p-value. Low p means the
feature plausibly hurts the system. Feature patterns are either literal
token sequences or one of the punctuation classes named below, matched in
a region relative to the span: inside / before / after the classified
span, or over the expected (gold) vs output (system) spans. Each text is
tokenized once; a region's tokens are cut from that token list.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .stats import mann_whitney_u
from .tokens import _token_range, tokenize

LOCATIONS = ("inside-span", "before-span", "after-span", "expected-span", "output-span")

CHAR_CLASSES = {
    "question": "?",
    "dot": ".",
    "quotation": "\"'‘’“”",
    "exclamation": "!",
    "comma": ",",
}


@dataclass(frozen=True)
class FeatureSpec:
    name: str
    location: str
    pattern: str  # a CHAR_CLASSES key or a literal token sequence

    def __post_init__(self):
        if self.location not in LOCATIONS:
            raise ValueError(f"unknown location {self.location!r}")
        if not self.pattern:
            raise ValueError("empty pattern")


@dataclass
class AnalysisItem:
    """One scored unit: an article (span identification) or a classified span.

    ``spans`` marks the classified span for inside/before/after regions;
    expected/output regions use the gold and system span lists.
    """

    text: str
    expected_spans: list[tuple[int, int]] = field(default_factory=list)
    output_spans: list[tuple[int, int]] = field(default_factory=list)
    span: tuple[int, int] | None = None


@dataclass(frozen=True)
class WorseningRow:
    name: str
    count: int
    p_value: float


def _regions(item: AnalysisItem, location: str) -> list[slice]:
    """The slices of ``item.text`` a location covers; expected/output regions
    are the spans' texts joined by " \\n "."""
    if location == "expected-span":
        return [slice(s, e) for s, e in item.expected_spans]
    if location == "output-span":
        return [slice(s, e) for s, e in item.output_spans]
    if item.span is None:
        raise ValueError(f"location {location!r} needs a classified span")
    s, e = item.span
    if location == "inside-span":
        return [slice(s, e)]
    if location == "before-span":
        return [slice(None, s)]
    if location == "after-span":
        return [slice(e, None)]
    raise ValueError(f"unknown location {location!r}")


class TextTokens:
    """A text tokenized once; any region's tokens are cut from that list."""

    def __init__(self, text: str):
        self.tt = tokenize(text)
        self.lowered = [t.surface.lower() for t in self.tt.tokens]

    def region(self, part: slice) -> list[str]:
        """The lower-cased surfaces of ``tokenize(text[part])``: the whole
        tokens inside the region, plus the clipped piece of a word that the
        region's edge cuts."""
        text = self.tt.text
        start, end, _ = part.indices(len(text))
        first, stop = _token_range(self.tt, start, end)
        if start >= end or first >= stop:
            return []
        words = self.lowered[first:stop]
        for j in {first, stop - 1}:
            tok = self.tt.tokens[j]
            if tok.start < start or tok.end > end:
                words[j - first] = text[max(tok.start, start):min(tok.end, end)].lower()
        return words


def extract_feature(item: AnalysisItem, spec: FeatureSpec,
                    tokens: TextTokens | None = None) -> bool:
    """Whether the feature occurs in the item's region; ``tokens`` is the
    ``TextTokens`` of ``item.text`` when the caller keeps one."""
    parts = _regions(item, spec.location)
    if spec.pattern in CHAR_CLASSES:
        return any(ch in item.text[part] for part in parts
                   for ch in CHAR_CLASSES[spec.pattern])
    needle = [t.lower() for t in spec.pattern.split()]
    if not needle:
        return True
    tokens = tokens or TextTokens(item.text)
    hay = [w for part in parts for w in tokens.region(part)]
    i = -1
    while True:
        try:
            i = hay.index(needle[0], i + 1)
        except ValueError:
            return False
        if hay[i:i + len(needle)] == needle:
            return True


@dataclass
class WorseningReport:
    rows: list[WorseningRow]
    skipped: list[str]  # features present in no item or in every item


def worsening_features(items: list[AnalysisItem], per_item_scores,
                       specs: list[FeatureSpec]) -> WorseningReport:
    """Rank features by one-sided rank-test p-value (present items score lower).

    Rows come back sorted by ascending p, ties broken by descending count
    then name, so reruns over permuted items give identical tables.
    """
    if len(items) != len(per_item_scores):
        raise ValueError("one score per item required")
    scores = [float(s) for s in per_item_scores]
    texts: dict[str, TextTokens] = {}
    for it in items:
        if it.text not in texts:
            texts[it.text] = TextTokens(it.text)
    rows: list[WorseningRow] = []
    skipped: list[str] = []
    for spec in specs:
        present = [extract_feature(it, spec, texts[it.text]) for it in items]
        with_f = [s for s, p in zip(scores, present) if p]
        without = [s for s, p in zip(scores, present) if not p]
        if not with_f or not without:
            skipped.append(spec.name)
            continue
        res = mann_whitney_u(with_f, without, alternative="less")
        rows.append(WorseningRow(spec.name, len(with_f), res.p_value))
    rows.sort(key=lambda r: (r.p_value, -r.count, r.name))
    return WorseningReport(rows=rows, skipped=skipped)


def default_features(task: str) -> list[FeatureSpec]:
    """The stock inventory for each task's report."""
    if task == "si":
        return [
            FeatureSpec("question_expected", "expected-span", "question"),
            FeatureSpec("dot_expected", "expected-span", "dot"),
            FeatureSpec("quotation_expected", "expected-span", "quotation"),
            FeatureSpec("exclamation_expected", "expected-span", "exclamation"),
            FeatureSpec("and_output", "output-span", "and"),
        ]
    if task == "tc":
        return [
            FeatureSpec("comma_inside", "inside-span", "comma"),
            FeatureSpec("we_inside", "inside-span", "we"),
            FeatureSpec("this_inside", "inside-span", "this"),
            FeatureSpec("will_inside", "inside-span", "will"),
            FeatureSpec("not_inside", "inside-span", "not"),
            FeatureSpec("exclamation_inside", "inside-span", "exclamation"),
            FeatureSpec("cia_before", "before-span", "CIA"),
            FeatureSpec("according_to_after", "after-span", "according to"),
            FeatureSpec("quotation_before", "before-span", "quotation"),
        ]
    raise ValueError(f"unknown task {task!r}")


def parse_feature_file(path: str | Path) -> list[FeatureSpec]:
    """One spec per line: name<TAB>location<TAB>pattern."""
    specs = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ValueError(f"{path}:{lineno}: expected name<TAB>location<TAB>pattern")
        specs.append(FeatureSpec(parts[0].strip(), parts[1].strip(), parts[2].strip()))
    return specs


def write_report(path: str | Path, report: WorseningReport) -> None:
    lines = ["feature\tcount\tp_value"]
    lines += [f"{r.name}\t{r.count}\t{r.p_value:.6g}" for r in report.rows]
    for name in report.skipped:
        lines.append(f"# skipped (present in none or all items): {name}")
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")
