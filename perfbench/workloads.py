"""The three benchmark workloads, each driven in-process through ``propspan.cli.main``.

A workload has a set-up (corpus generation and file writing, plus model
training for ``annotate-ptc``) and a pass: the timed sequence of CLI
commands. Every CLI call is one operation; it fails when it exits non-zero
or when its outputs do not load, parse and agree with each other.

- ``si-train``: ``train-si`` for a fixed step count, dev evals, no early stop.
- ``tc-cv``: ``cv --reweight --span-cls`` (AdamW, re-weighted BCE, span head).
- ``annotate-ptc``: SI annotation, scoring, TC classification, scoring and
  both ``analyze`` reports over a long-article, span-dense corpus.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import statistics
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from propspan import cli as ps_cli
from propspan import pipeline as ps_pipeline
from propspan.datasets import load_dataset, read_techniques
from propspan.encoder import SpanClsConfig
from propspan.metrics import flc_f1
from propspan.models import SiTagger, TcClassifier

HERE = Path(__file__).resolve().parent

# Every corpus fixes its line count per article and the span rate, so each
# seed gets the same amount of work (same windows, items and spans) and only
# the text differs; otherwise corpus size alone moves run_s by several
# percent between seeds.
#
# The desk corpus: desk-length lines and articles (~45-token windows), made
# span-dense with a small lexicon. With the stock corpus the SI tagger leaves
# its all-O plateau anywhere between 250 and 550 steps; with 4 triggers per
# technique between 80 and 360 (one seed in 26 past 300); with 2, as here,
# within 160 steps on 13 seeds. The 360-step budgets below leave twice that.
# No pool: nothing reads it.
DESK_SYNTH = {"synth.sentences_per_article": [4, 4], "synth.span_rate": 0.9,
              "synth.vocab_size": 60, "synth.trigger_lexicon_size": 2, "synth.n_pool": 0}

# For cv: one-token spans, one per line. With the 3-token spans of
# DESK_SYNTH about one fold in four stays at chance for 100+ steps (span
# head, AdamW from scratch), which makes the mean fold F1 bimodal across
# seeds; with one-token spans every fold passes 0.9 within 30 steps.
CV_SYNTH = dict(DESK_SYNTH, **{"synth.span_half_width": 0, "synth.span_rate": 1.0})

# PTC-shaped articles over the same lexicon: 40 lines (the middle of PTC's
# 20-60) of 10-40 tokens, a span on every line.
PTC_SYNTH = {"synth.vocab_size": 60, "synth.trigger_lexicon_size": 2,
             "synth.sentences_per_article": [40, 40], "synth.sentence_length": [10, 40],
             "synth.span_rate": 1.0, "synth.n_train": 0, "synth.n_pool": 0}

FEATURES = {"si": HERE / "features-si.tsv", "tc": HERE / "features-tc.tsv"}


@dataclass(frozen=True)
class Sizes:
    """Work per pass and per set-up; ``FULL`` is the benchmark, ``TINY`` the smoke test."""

    desk_train: int = 120
    desk_dev: int = 40
    si_steps: int = 360
    si_eval_every: int = 60
    cv_k: int = 2
    cv_steps: int = 40
    cv_eval_every: int = 20
    setup_si_steps: int = 360
    setup_tc_steps: int = 40
    ptc_articles: int = 8
    warmup_steps: int = 2
    setup_repeats: int = 3
    annotate_setup_repeats: int = 2
    # At full size the models must find real spans and labels; the tiny
    # models train too briefly to leave the all-O plateau.
    require_quality: bool = True


FULL = Sizes()
TINY = Sizes(desk_train=8, desk_dev=4, si_steps=4, si_eval_every=2, cv_steps=4,
             cv_eval_every=2, setup_si_steps=4, setup_tc_steps=2, ptc_articles=2,
             setup_repeats=1, annotate_setup_repeats=1, require_quality=False)


class OperationFailed(Exception):
    """A CLI call exited non-zero or its outputs failed a check."""


class Cli:
    """Runs ``propspan.cli.main`` in-process, timing and counting each call."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.tracing = False  # true around traced passes
        self.attempted = 0
        self.failed = 0
        self.commands: list[str] = []  # command name per traced call, by run id

    def __call__(self, *argv) -> float:
        argv = [str(a) for a in argv]
        self.attempted += 1
        log = io.StringIO()
        traced = self.tracing
        if traced:
            self.tracer.run_id = len(self.commands)
            self.commands.append(argv[0])
            self.tracer.active = True
        start = time.perf_counter()
        try:
            with redirect_stdout(log), redirect_stderr(log):
                code = ps_cli.main(argv)
        finally:
            elapsed = time.perf_counter() - start
            if traced:
                self.tracer.active = False
        if code != 0:
            self.failed += 1
            raise OperationFailed(f"`propspan {' '.join(argv)}` exited {code}:\n"
                                  f"{log.getvalue()[-2000:]}")
        return elapsed

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failed += 1
            raise OperationFailed(message)


def _write_json(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path


def _digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


def _last_record(out: Path) -> dict:
    lines = (out / "runs.jsonl").read_text(encoding="utf-8").splitlines()
    return json.loads(lines[-1])


def _finite_unit(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x) and 0.0 <= x <= 1.0


def _model_ok(model) -> bool:
    return all(np.isfinite(p.data).all() for p in model.params().values())


def _corpus(cli: Cli, seed: int, out: Path, synth: dict) -> Path:
    cli("gen-synth", "--seed", seed, "--config", _write_json(out.with_suffix(".json"), synth),
        "--out", out)
    for split in ("train", "dev"):
        if (out / split / "labels-tc.tsv").stat().st_size:
            load_dataset(out / split / "articles", out / split / "labels-tc.tsv", "tc",
                         out / "techniques.txt")
    return out


def _split_args(corpus: Path, task: str) -> list:
    return ["--articles", corpus / "train" / "articles",
            "--labels", corpus / "train" / f"labels-{task}.tsv",
            "--dev-articles", corpus / "dev" / "articles",
            "--dev-labels", corpus / "dev" / f"labels-{task}.tsv"]


def _hp(out: Path, eval_every: int) -> Path:
    # patience above any eval count: every run trains its full step budget
    return _write_json(out, {"hp.eval_every": eval_every, "hp.patience": 1_000_000})


class Workload:
    name = ""

    def __init__(self, sizes: Sizes, seed: int, cli: Cli):
        self.sizes, self.seed, self.cli = sizes, seed, cli
        self._digests: set[str] = set()

    @property
    def setup_repeats(self) -> int:
        return self.sizes.setup_repeats

    def setup(self, out: Path) -> None:
        """Make the inputs the passes read; timed as ``setup_s``."""
        raise NotImplementedError

    def describe(self) -> dict:
        """Every shape of the last set-up (computed outside the timed set-up)."""
        raise NotImplementedError

    def run_pass(self, out: Path) -> dict:
        """Run the timed command sequence once; returns its metrics."""
        raise NotImplementedError

    def same_output(self, digest: str) -> None:
        """Every pass runs the same commands on the same inputs, so outputs repeat."""
        self._digests.add(digest)
        self.cli.check(len(self._digests) == 1,
                       f"{self.name}: outputs differ between passes of one seed")


class SiTrain(Workload):
    """The training path (encoder, autograd, CRF loss, SGD) does nearly all the work."""

    name = "si-train"

    def setup(self, out: Path) -> None:
        s = self.sizes
        synth = dict(DESK_SYNTH, **{"synth.n_train": s.desk_train, "synth.n_dev": s.desk_dev})
        self.corpus = _corpus(self.cli, self.seed, out / "desk", synth)
        self.config = _hp(out / "hp-si.json", s.si_eval_every)
        self.warmup = out / "warmup"
        self.cli("train-si", "--seed", self.seed, "--config", self.config,
                 *_split_args(self.corpus, "si"), "--steps", s.warmup_steps,
                 "--out", self.warmup)

    def describe(self) -> dict:
        s = self.sizes
        train = load_dataset(self.corpus / "train" / "articles",
                             self.corpus / "train" / "labels-si.tsv", "si")
        hp = ps_pipeline.HyperParams.desk("si")
        lengths = [len(w.tokens) for w in ps_pipeline.build_si_windows(train, hp.max_seq_len)]
        return {"batch_size": hp.batch_size, "steps": s.si_steps,
                "eval_every": s.si_eval_every, "train_windows": len(lengths),
                "window_tokens_mean": statistics.fmean(lengths),
                "window_tokens_max": max(lengths),
                "encoder": SiTagger.load(self.warmup / "model-si.spfg").config.to_dict()}

    def run_pass(self, out: Path) -> dict:
        s = self.sizes
        start = time.perf_counter()
        train_s = self.cli("train-si", "--seed", self.seed, "--config", self.config,
                           *_split_args(self.corpus, "si"), "--steps", s.si_steps,
                           "--out", out)
        run_s = time.perf_counter() - start

        rec = _last_record(out)
        best = rec.get("best_score")
        trace = rec.get("eval_trace", [])
        self.cli.check(_finite_unit(best), f"si-train: best dev F1 {best!r} not in [0, 1]")
        self.cli.check(bool(trace) and trace[-1]["step"] == s.si_steps,
                       "si-train: training stopped before its step budget")
        model = SiTagger.load(out / "model-si.spfg")
        self.cli.check(_model_ok(model), "si-train: checkpoint holds non-finite weights")
        self.cli.check(best > 0 or not s.require_quality,
                       "si-train: the tagger found no real span on dev")
        self.same_output(_digest(out / "model-si.spfg"))
        return {"run_s": run_s, "train_steps_per_s": s.si_steps / train_s, "dev_f1": best}


class TcCv(Workload):
    """The same encoder and autograd under AdamW, re-weighted BCE and the span head;
    the CRF does no work."""

    name = "tc-cv"

    def setup(self, out: Path) -> None:
        s = self.sizes
        synth = dict(CV_SYNTH, **{"synth.n_train": s.desk_train, "synth.n_dev": s.desk_dev})
        self.corpus = _corpus(self.cli, self.seed, out / "desk", synth)
        self.config = _hp(out / "hp-tc.json", s.cv_eval_every)
        self.cli("cv", "--seed", self.seed, "--config", self.config, "--k", s.cv_k,
                 "--reweight", "--span-cls", *_split_args(self.corpus, "tc"),
                 "--techniques", self.corpus / "techniques.txt",
                 "--steps", s.warmup_steps, "--out", out / "warmup")

    def describe(self) -> dict:
        s = self.sizes
        hp = ps_pipeline.HyperParams.desk("tc")
        items = []
        for split in ("train", "dev"):
            data = load_dataset(self.corpus / split / "articles",
                                self.corpus / split / "labels-tc.tsv", "tc",
                                self.corpus / "techniques.txt")
            items += ps_pipeline.build_tc_items(data, hp.max_seq_len)
        window = [len(it.window_tokens) for it in items]
        span = [it.span_end - it.span_start for it in items]
        return {"batch_size": hp.batch_size, "k": s.cv_k, "steps_per_fold": s.cv_steps,
                "eval_every": s.cv_eval_every, "items": len(items),
                "window_tokens_mean": statistics.fmean(window),
                "window_tokens_max": max(window),
                "span_tokens_mean": statistics.fmean(span),
                "encoder": {k: v for k, v in
                            ps_pipeline.desk_encoder_config(0, hp).to_dict().items()
                            if k != "vocab_size"},
                "span_head": SpanClsConfig().to_dict()}

    def run_pass(self, out: Path) -> dict:
        s = self.sizes
        start = time.perf_counter()
        cv_s = self.cli("cv", "--seed", self.seed, "--config", self.config, "--k", s.cv_k,
                        "--reweight", "--span-cls", *_split_args(self.corpus, "tc"),
                        "--techniques", self.corpus / "techniques.txt",
                        "--steps", s.cv_steps, "--out", out)
        run_s = time.perf_counter() - start

        report = json.loads((out / "cv.json").read_text(encoding="utf-8"))
        self.cli.check({"k", "scores", "mean", "std", "options"} <= set(report),
                       f"tc-cv: cv.json lacks keys: {sorted(report)}")
        scores = report["scores"]
        self.cli.check(len(scores) == s.cv_k and all(_finite_unit(x) for x in scores),
                       f"tc-cv: fold scores {scores!r}")
        self.cli.check(report["options"] == {"reweight": True, "span_cls": True},
                       f"tc-cv: options {report['options']!r}")
        mean = report["mean"]
        self.cli.check(_finite_unit(mean) and math.isclose(mean, statistics.fmean(scores)),
                       f"tc-cv: mean {mean!r} disagrees with the fold scores")
        self.cli.check(mean > 0 or not s.require_quality, "tc-cv: no fold scored above 0")
        self.same_output(_digest(out / "cv.json"))
        return {"run_s": run_s, "train_steps_per_s": s.cv_k * s.cv_steps / cv_s,
                "dev_f1": mean}


class AnnotatePtc(Workload):
    """Inference, decoding, data prep, scoring and rank tests over long span-dense
    articles; no training layer runs."""

    name = "annotate-ptc"

    @property
    def setup_repeats(self) -> int:
        return self.sizes.annotate_setup_repeats

    def setup(self, out: Path) -> None:
        s, cli = self.sizes, self.cli
        synth = dict(DESK_SYNTH, **{"synth.n_train": s.desk_train, "synth.n_dev": s.desk_dev})
        desk = _corpus(cli, self.seed, out / "desk", synth)
        cli("train-si", "--seed", self.seed,
            "--config", _hp(out / "hp-si.json", max(s.setup_si_steps // 3, 1)),
            *_split_args(desk, "si"), "--steps", s.setup_si_steps, "--out", out / "si")
        cli("train-tc", "--seed", self.seed,
            "--config", _hp(out / "hp-tc.json", s.setup_tc_steps),
            *_split_args(desk, "tc"), "--techniques", desk / "techniques.txt",
            "--steps", s.setup_tc_steps, "--out", out / "tc")
        si_best = _last_record(out / "si")["best_score"]
        cli.check(si_best > 0 or not s.require_quality,
                  f"annotate-ptc: set-up tagger decodes no real span (dev F1 {si_best})")
        self.si_model, self.tc_model = out / "si" / "model-si.spfg", out / "tc" / "model-tc.spfg"
        si, tc = SiTagger.load(self.si_model), TcClassifier.load(self.tc_model)
        cli.check(_model_ok(si) and _model_ok(tc), "annotate-ptc: set-up model not finite")

        self.ptc = _corpus(cli, self.seed, out / "ptc",
                           dict(PTC_SYNTH, **{"synth.n_dev": s.ptc_articles}))
        self.articles = self.ptc / "dev" / "articles"
        self.gold_si = self.ptc / "dev" / "labels-si.tsv"
        self.gold_tc = self.ptc / "dev" / "labels-tc.tsv"
        self.techniques = self.ptc / "techniques.txt"
        self.gold = load_dataset(self.articles, self.gold_si, "si")
        self.tokens = sum(len(tt.tokens) for tt in self.gold.tokenized.values())

    def describe(self) -> dict:
        si, tc = SiTagger.load(self.si_model), TcClassifier.load(self.tc_model)
        lines = [text.count("\n") + 1 for text in self.gold.articles.values()]
        windows = [len(w.tokens) for w in
                   ps_pipeline.build_si_windows(self.gold, si.config.max_positions)]
        return {"articles": len(self.gold.articles), "tokens": self.tokens,
                "gold_spans": len(self.gold.spans),
                "lines_per_article_mean": statistics.fmean(lines),
                "si_windows": len(windows),
                "si_window_tokens_mean": statistics.fmean(windows),
                "si_window_tokens_max": max(windows),
                "si_batch_size": 16, "tc_batch_size": 32,
                "tc_window_tokens_max": tc.config.max_positions - 4,
                "encoder": si.config.to_dict(), "tc_head": tc.head_kind}

    def run_pass(self, out: Path) -> dict:
        cli = self.cli
        start = time.perf_counter()
        t_si = cli("annotate", "--task", "si", "--model", self.si_model,
                   "--pool", self.articles, "--out", out / "si")
        silver_si = out / "si" / "silver-si.tsv"
        t_score_si = cli("score", "--task", "si", "--pred", silver_si, "--gold", self.gold_si,
                         "--out", out / "score-si")
        t_tc = cli("annotate", "--task", "tc", "--model", self.tc_model,
                   "--pool", self.articles, "--labels", self.gold_si, "--out", out / "tc")
        silver_tc = out / "tc" / "silver-tc.tsv"
        t_score_tc = cli("score", "--task", "tc", "--pred", silver_tc, "--gold", self.gold_tc,
                         "--techniques", self.techniques, "--out", out / "score-tc")
        t_an_si = cli("analyze", "--task", "si", "--articles", self.articles,
                      "--gold", self.gold_si, "--pred", silver_si,
                      "--features", FEATURES["si"], "--out", out / "analyze-si")
        t_an_tc = cli("analyze", "--task", "tc", "--articles", self.articles,
                      "--gold", self.gold_tc, "--pred", silver_tc,
                      "--techniques", self.techniques,
                      "--features", FEATURES["tc"], "--out", out / "analyze-tc")
        run_s = time.perf_counter() - start

        pool_f1 = self._check_outputs(out, silver_si, silver_tc)
        self.same_output(_digest(silver_si, silver_tc, out / "analyze-si" / "worsening-si.tsv",
                                 out / "analyze-tc" / "worsening-tc.tsv"))
        return {"run_s": run_s,
                "annotate_tokens_per_s": self.tokens / t_si,
                "classify_spans_per_s": len(self.gold.spans) / t_tc,
                "score_analyze_s": t_score_si + t_score_tc + t_an_si + t_an_tc,
                "pool_f1": pool_f1}

    def _check_outputs(self, out: Path, silver_si: Path, silver_tc: Path) -> float:
        check, s = self.cli.check, self.sizes
        pred = load_dataset(self.articles, silver_si, "si").spans
        check(bool(pred) or not s.require_quality, "annotate-ptc: SI annotation found no span")
        score = json.loads((out / "score-si" / "score.json").read_text(encoding="utf-8"))
        keys = {"task", "precision", "recall", "f1", "n_pred", "n_gold"}
        check(keys <= set(score), f"annotate-ptc: SI score.json keys {sorted(score)}")
        check(score["n_pred"] == len(pred) and score["n_gold"] == len(self.gold.spans),
              "annotate-ptc: SI score counts disagree with the span files")
        check(score["f1"] == flc_f1(pred, self.gold.spans).f1 and _finite_unit(score["f1"]),
              f"annotate-ptc: SI score.json F1 {score['f1']!r} is not the FLC-F1 of its files")
        check(score["f1"] > 0 or not s.require_quality, "annotate-ptc: pool FLC-F1 is 0")

        labeled = load_dataset(self.articles, silver_tc, "tc", self.techniques).spans
        check(sorted((p.article_id, p.start, p.end) for p in labeled)
              == sorted((g.article_id, g.start, g.end) for g in self.gold.spans),
              "annotate-ptc: TC annotation does not label exactly the gold spans")
        tc = json.loads((out / "score-tc" / "score.json").read_text(encoding="utf-8"))
        check({"task", "micro_f1", "confusion_matrix", "outcomes"} <= set(tc),
              f"annotate-ptc: TC score.json keys {sorted(tc)}")
        check(_finite_unit(tc["micro_f1"]), f"annotate-ptc: TC micro-F1 {tc['micro_f1']!r}")
        n_labels = len(read_techniques(self.techniques))
        check(len(tc["confusion_matrix"]) == n_labels, "annotate-ptc: confusion matrix shape")

        for task in ("si", "tc"):
            rows = (out / f"analyze-{task}" / f"worsening-{task}.tsv").read_text(
                encoding="utf-8").splitlines()
            check(bool(rows) and rows[0] == "feature\tcount\tp_value",
                  f"annotate-ptc: worsening-{task}.tsv has no header")
            ranked = [r.split("\t") for r in rows[1:] if not r.startswith("#")]
            check(bool(ranked) and all(len(r) == 3 and 0.0 <= float(r[2]) <= 1.0
                                       for r in ranked),
                  f"annotate-ptc: worsening-{task}.tsv ranks no feature")
        return score["f1"]


WORKLOADS = {w.name: w for w in (SiTrain, TcCv, AnnotatePtc)}

