"""Dataset ingestion: shared-task style article dirs and span TSVs.

Layout on disk:
  - one UTF-8 file per article, named ``article<id>.txt``
  - span labels ``article_id<TAB>start<TAB>end`` (span identification)
  - labeled spans ``article_id<TAB>technique<TAB>start<TAB>end`` (classification)
  - technique inventory: one label per line, line index = label id
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

from .tokens import Span, TokenizedText, spans_by_article, tokenize

_ARTICLE_RE = re.compile(r"^article(.+)\.txt$")


@dataclass
class SpanDataset:
    """Articles plus their gold spans; tokenization and the per-article span
    index are computed once, so ``spans`` is not to be changed afterwards."""

    articles: dict[str, str]
    spans: list[Span]
    labels: list[str] | None = None
    tokenized: dict[str, TokenizedText] = field(default_factory=dict)

    def __post_init__(self):
        if not self.tokenized:
            self.tokenized = {aid: tokenize(text) for aid, text in self.articles.items()}
        self._by_article = spans_by_article(self.spans)

    def spans_for(self, article_id: str) -> list[Span]:
        return list(self._by_article.get(article_id, []))


def read_articles(articles_dir: str | Path) -> dict[str, str]:
    articles: dict[str, str] = {}
    root = Path(articles_dir)
    if not root.is_dir():
        raise FileNotFoundError(f"article directory not found: {root}")
    for path in sorted(root.iterdir()):
        m = _ARTICLE_RE.match(path.name)
        if m:
            articles[m.group(1)] = path.read_text(encoding="utf-8")
    if not articles:
        raise ValueError(f"no article<id>.txt files under {root}")
    return articles


def read_techniques(path: str | Path) -> list[str]:
    labels = [line.strip() for line in Path(path).read_text(encoding="utf-8").splitlines()
              if line.strip()]
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate technique names in {path}")
    return labels


def _parse_row(row: str, task: str, techniques: dict[str, int]) -> Span:
    parts = row.split("\t")
    if task == "si":
        if len(parts) != 3:
            raise ValueError("expected 3 tab-separated fields")
        aid, start, end, technique = parts[0], int(parts[1]), int(parts[2]), None
    else:
        if len(parts) != 4:
            raise ValueError("expected 4 tab-separated fields")
        aid, name, start, end = parts[0], parts[1], int(parts[2]), int(parts[3])
        if name not in techniques:
            raise ValueError(f"unknown technique {name!r}")
        technique = techniques[name]
    if end <= start or start < 0:
        raise ValueError(f"bad offsets ({start}, {end})")
    return Span(aid, start, end, technique)


def read_spans_tsv(path: str | Path, task: str,
                   techniques: list[str] | None = None) -> list[Span]:
    """Spans of an SI (3-field) or TC (4-field) label file; blank lines are skipped.

    TC technique names map to their index in ``techniques``, which TC files
    require. Errors name the file and the line.
    """
    if task not in ("si", "tc"):
        raise ValueError(f"task must be 'si' or 'tc', got {task!r}")
    if task == "tc" and techniques is None:
        raise ValueError(f"{path}: reading technique labels needs a technique inventory")
    tech_ids = {name: i for i, name in enumerate(techniques or [])}
    spans = []
    for lineno, row in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not row.strip():
            continue
        try:
            spans.append(_parse_row(row, task, tech_ids))
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None
    return spans


def load_dataset(articles_dir: str | Path, labels_file: str | Path, task: str,
                 techniques_file: str | Path | None = None) -> SpanDataset:
    """Read articles and a span TSV; spans are validated against article lengths.

    TC labels need the technique file, whose line order fixes the label ids.
    """
    articles = read_articles(articles_dir)
    labels: list[str] | None = None
    if task == "tc" and techniques_file is not None:
        labels = read_techniques(techniques_file)
    spans = read_spans_tsv(labels_file, task, labels)
    check_spans_in_articles(spans, articles, labels_file)
    return SpanDataset(articles=articles, spans=spans, labels=labels)


def check_spans_in_articles(spans: list[Span], articles: dict[str, str],
                            source: str | Path) -> None:
    """Every span must name a known article and end inside its text."""
    for sp in spans:
        if sp.article_id not in articles:
            raise ValueError(f"{source}: span references unknown article {sp.article_id!r}")
        if sp.end > len(articles[sp.article_id]):
            raise ValueError(f"{source}: span ({sp.start}, {sp.end}) outside article "
                             f"{sp.article_id!r} of length {len(articles[sp.article_id])}")


def write_articles(out_dir: str | Path, articles: dict[str, str]) -> None:
    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)
    for aid, text in sorted(articles.items()):
        (root / f"article{aid}.txt").write_text(text, encoding="utf-8")


def write_spans_tsv(path: str | Path, spans: list[Span],
                    labels: list[str] | None = None) -> None:
    """SI rows when spans are unlabeled, TC rows when a technique inventory is given."""
    lines = []
    for sp in sorted(spans, key=lambda s: (s.article_id, s.start, s.end)):
        if labels is not None and sp.technique is not None:
            lines.append(f"{sp.article_id}\t{labels[sp.technique]}\t{sp.start}\t{sp.end}")
        else:
            lines.append(f"{sp.article_id}\t{sp.start}\t{sp.end}")
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def write_techniques(path: str | Path, labels: list[str]) -> None:
    Path(path).write_text("".join(name + "\n" for name in labels), encoding="utf-8")
