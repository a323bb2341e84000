"""Command-line surface.

Subcommands map one-to-one onto the library operations: gen-synth,
train-si, train-tc, self-train, annotate, ensemble, score, cv, analyze.
Exit codes: 0 success, 1 validation/usage error, 2 runtime error. All
randomness flows from --seed, and a JSON config file (flat dotted keys,
overridden by explicit flags) can pre-set hyperparameters. Every command
echoes its effective configuration into the out-dir's runs.jsonl.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import analysis as ana
from . import pipeline as pl
from .datasets import (SpanDataset, check_spans_in_articles, load_dataset, read_articles,
                       read_spans_tsv, read_techniques, write_articles,
                       write_spans_tsv, write_techniques)
from .encoder import EncoderConfig
from .metrics import confusion_matrix, flc_f1, flc_f1_per_article, micro_f1, span_outcomes
from .models import SiTagger, TcClassifier
from .synth import SynthConfig, gen_synth
from .tokens import Span, spans_by_article


class CliError(Exception):
    """Validation problem; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        raise CliError(message)


PROFILES_HELP = (
    "profiles: desk scale (default) trains small models with SI sgd lr=0.05 "
    "batch=8 steps=2000 and TC adamw lr=1e-3 batch=16 steps=1000; "
    "--paper-scale swaps in the full-scale values verbatim "
    "(batch 8/16, lr 5e-4/2e-5, steps 60k/20k, dropout .1)."
)


def build_parser() -> _Parser:
    p = _Parser(prog="propspan", description=__doc__, epilog=PROFILES_HELP)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, seeded=False):
        sp.add_argument("--config", help="JSON config file with flat dotted keys")
        if seeded:
            sp.add_argument("--seed", type=int, required=True)
        sp.add_argument("--out", required=True, help="output directory")

    def training(name, help_text, task):
        """A training command: the splits, the step budget, the scale profile and
        the task's model options."""
        sp = sub.add_parser(name, help=help_text)
        common(sp, seeded=True)
        for flag in ("--articles", "--labels", "--dev-articles", "--dev-labels"):
            sp.add_argument(flag, required=True)
        sp.add_argument("--steps", type=int)
        sp.add_argument("--paper-scale", action="store_true")
        if task == "si":
            sp.add_argument("--no-crf", action="store_true",
                            help="plain argmax decoding instead of the CRF")
        else:
            sp.add_argument("--techniques", required=True)
            sp.add_argument("--reweight", action="store_true")
            sp.add_argument("--span-cls", action="store_true")
        return sp

    sp = sub.add_parser("gen-synth", help="generate a synthetic gold corpus and pool")
    common(sp, seeded=True)

    training("train-si", "train a span identification tagger", "si")

    sp = training("train-tc", "train a technique classifier", "tc")
    sp.add_argument("--pool", help="unlabeled article dir; with --si-model, self-trains")
    sp.add_argument("--si-model", help="tagger checkpoint; with --pool, self-trains")
    sp.add_argument("--gold-silver-ratio", default="1:4")

    sp = training("self-train", "iterated naive self-training of the tagger", "si")
    sp.add_argument("--pool", required=True)
    sp.add_argument("--iterations", type=int, default=3)
    sp.add_argument("--gold-silver-ratio", default="1:4")

    sp = sub.add_parser("annotate", help="auto-annotate a pool with a trained model")
    common(sp)
    sp.add_argument("--task", choices=["si", "tc"], default="si")
    sp.add_argument("--model", required=True)
    sp.add_argument("--pool", required=True, help="article dir to annotate")
    sp.add_argument("--labels", help="span TSV to classify (tc task)")

    sp = sub.add_parser("ensemble", help="average class probabilities across models")
    common(sp)
    sp.add_argument("--models", required=True, help="comma-separated checkpoint list")
    sp.add_argument("--articles", required=True)
    sp.add_argument("--labels", required=True, help="labeled span TSV to evaluate on")
    sp.add_argument("--techniques", required=True)
    sp.add_argument("--enumerate", action="store_true", dest="enumerate_all",
                    help="score every subset of size >= 2")

    sp = sub.add_parser("score", help="score predictions against gold")
    common(sp)
    sp.add_argument("--task", choices=["si", "tc"], required=True)
    sp.add_argument("--pred", required=True)
    sp.add_argument("--gold", required=True)
    sp.add_argument("--techniques", help="needed for tc scoring and per-technique reports")

    sp = training("cv", "k-fold cross-validation on train+dev", "tc")
    sp.add_argument("--k", type=int, default=6)

    sp = sub.add_parser("analyze", help="rank score-worsening shallow features")
    common(sp)
    sp.add_argument("--task", choices=["si", "tc"], required=True)
    sp.add_argument("--articles", required=True)
    sp.add_argument("--gold", required=True)
    sp.add_argument("--pred", required=True)
    sp.add_argument("--techniques")
    sp.add_argument("--features", help="feature spec file: name<TAB>location<TAB>pattern")
    return p


# -- config plumbing ------------------------------------------------------------------

def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    cfg = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(cfg, dict):
        raise CliError("config file must hold a JSON object")
    return cfg


def _overrides(cfg: dict, prefix: str, defaults: dict) -> dict:
    """The ``<prefix>.*`` keys of ``cfg`` without their prefix. A key not in
    ``defaults`` exits 1, naming the accepted ones, as does a value whose type
    is not its default's: a number for a float (never a bool), a JSON list
    for a tuple, else the same type."""
    out = {key[len(prefix) + 1:]: value for key, value in cfg.items()
           if key.startswith(prefix + ".")}
    bad = set(out) - set(defaults)
    if bad:
        raise CliError(f"unknown {prefix}.* config keys: {sorted(bad)} "
                       f"(accepted: {', '.join(defaults)})")
    kinds = {tuple: "a list", float: "a number", int: "an integer", str: "a string"}
    for key, value in out.items():
        kind = type(defaults[key])
        if not (isinstance(value, list) if kind is tuple else
                type(value) in (int, float) if kind is float else type(value) is kind):
            raise CliError(f"config key {prefix}.{key} must be {kinds[kind]}, got {value!r}")
    return out


# The encoder.* keys that shape the model; the vocabulary, dropout and
# position count follow the data and hp.*.
ENCODER_KEYS = ("hidden_size", "layers", "heads", "intermediate_size")


def _resolve(args, task: str) -> tuple[pl.HyperParams, EncoderConfig | None, dict]:
    """A training command's hyperparameters (profile, then ``hp.*`` keys, then
    ``--steps``), its encoder (``None`` for the desk encoder, else the desk
    encoder with the ``encoder.*`` keys applied) and the start of its run
    config, which names the resolved ``encoder.*`` keys or ``None``."""
    cfg = _load_config(args.config)
    hp = pl.HyperParams.paper(task) if args.paper_scale else pl.HyperParams.desk(task)
    # the command sets the task, so an hp.task key would be a second one
    hp = replace(hp, **_overrides(cfg, "hp", {k: v for k, v in hp.to_dict().items()
                                              if k != "task"}))
    if args.steps is not None:
        hp = replace(hp, steps=args.steps)
    desk = pl.desk_encoder_config(1, hp)
    overrides = _overrides(cfg, "encoder", {k: getattr(desk, k) for k in ENCODER_KEYS})
    enc = replace(desk, **overrides) if overrides else None
    return hp, enc, {"hp": hp.to_dict(), "encoder": None if enc is None else
                     {k: getattr(enc, k) for k in ENCODER_KEYS}}


def _inputs(args, hp: pl.HyperParams, config: dict):
    """The train and dev splits as the trainer takes them: datasets for SI;
    for TC, classification items, the technique inventory and the per-split
    span counts of ``counted_tc_items``. ``config`` gets each split's
    ``_data_hash``."""
    techniques = args.techniques if hp.task == "tc" else None
    train = load_dataset(args.articles, args.labels, hp.task, techniques)
    dev = load_dataset(args.dev_articles, args.dev_labels, hp.task, techniques)
    config.update({name: _data_hash(d.articles, d.spans, d.labels)
                   for name, d in (("train", train), ("dev", dev))})
    if hp.task == "si":
        return train, dev
    train_items, train_counts = pl.counted_tc_items(train, hp.max_seq_len)
    dev_items, dev_counts = pl.counted_tc_items(dev, hp.max_seq_len)
    return train_items, dev_items, train.labels, {"train": train_counts, "dev": dev_counts}


def _parse_ratio(text: str) -> tuple[int, int] | None:
    if text.lower() in ("none", "off"):
        return None
    try:
        g, s = text.split(":")
        ratio = (int(g), int(s))
    except ValueError:
        raise CliError(f"--gold-silver-ratio must look like 1:4, got {text!r}") from None
    if min(ratio) < 1:
        raise CliError(f"--gold-silver-ratio parts must be positive, got {text!r}")
    return ratio


def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)


def _content_hash(path: str) -> str:
    """SHA-256 of a file's bytes."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _data_hash(articles: dict[str, str], spans=(), techniques=None) -> str:
    """SHA-256 of a corpus as a run read it: its articles, spans and technique names."""
    canon = _json([articles, [(s.article_id, s.start, s.end, s.technique) for s in spans],
                   techniques])
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _record(args, out: Path, config: dict, meta: dict | None = None, files=(),
            res: pl.TrainResult | None = None, checkpoint: str | None = None,
            command: str | None = None) -> None:
    """Append the run's record to ``<out>/runs.jsonl``, the one writer of that file.

    The hashed config is the command, its seed (None for a command that draws
    no random number), ``config``, and the ``_content_hash`` of each given file
    argument named in ``files``, whose paths go to the record's ``meta`` with
    ``meta``: a config hashes what a run read, not where from. A training
    run's record carries ``res`` (and its meta) and ``checkpoint``;
    ``command`` names a self-training round.
    """
    paths = {k: getattr(args, k) for k in files if getattr(args, k, None)}
    config = {"command": args.command, "seed": getattr(args, "seed", None), **config,
              **{k: _content_hash(v) for k, v in paths.items()}}
    record = {"command": command or args.command, "config": config, "seed": config["seed"],
              "config_hash": hashlib.sha256(_json(config).encode("utf-8")).hexdigest()[:16],
              "checkpoint": checkpoint, "blas_threads": pl.blas_threads()}
    if res is not None:
        record.update(best_score=res.best_score, best_step=res.best_step,
                      eval_trace=[p.to_dict() for p in res.trace], meta=res.meta)
    elif meta is not None:
        record["meta"] = {**paths, **meta}
    with open(out / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(_json(record) + "\n")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _save(args, name: str, res: pl.TrainResult, config: dict, command: str | None = None,
          **meta) -> Path:
    """Write ``res.model`` to ``<out>/<name>`` and append its ``runs.jsonl`` record."""
    out = _out_dir(args)
    ckpt = out / name
    res.model.save(ckpt, meta={"best_score": res.best_score, "seed": args.seed, **meta})
    _record(args, out, config, res=res, checkpoint=str(ckpt), command=command)
    return ckpt


UNPREDICTED = -1  # the predicted technique of a gold span with no prediction


def _tc_aligned(args) -> tuple[list[str], list[Span], list[Span], list[int]]:
    """The technique inventory, the predicted and gold spans of a TC
    ``--pred``/``--gold`` pair, and each gold span's predicted technique in
    gold order: ``UNPREDICTED`` where no prediction has its offsets, as for a
    span that covers no token, which ``annotate`` skips. A prediction whose
    offsets no gold span has exits 1."""
    if not args.techniques:
        raise CliError(f"--techniques is required for tc {args.command}")
    techniques = read_techniques(args.techniques)
    pred = read_spans_tsv(args.pred, "tc", techniques)
    gold = read_spans_tsv(args.gold, "tc", techniques)
    key = lambda s: (s.article_id, s.start, s.end)
    gold_keys = {key(g) for g in gold}
    extra = [key(p) for p in pred if key(p) not in gold_keys]
    if extra:
        raise CliError(f"{len(extra)} predicted spans match no gold span "
                       f"(first: {extra[0]}); tc {args.command} needs span-aligned files")
    pred_by_key = {key(s): s.technique for s in pred}
    return techniques, pred, gold, [pred_by_key.get(key(g), UNPREDICTED) for g in gold]


# -- command handlers -----------------------------------------------------------------

def cmd_gen_synth(args) -> int:
    # --seed is the one seed: a synth.seed key would be a second
    defaults = {k: v for k, v in asdict(SynthConfig()).items() if k != "seed"}
    overrides = _overrides(_load_config(args.config), "synth", defaults)
    for key in ("sentences_per_article", "sentence_length"):
        if key in overrides:
            overrides[key] = tuple(overrides[key])
    synth_cfg = SynthConfig(seed=args.seed, **overrides)

    corpus = gen_synth(synth_cfg)
    out = _out_dir(args)
    write_techniques(out / "techniques.txt", corpus.labels)
    for name, split in (("train", corpus.train), ("dev", corpus.dev)):
        write_articles(out / name / "articles", split.articles)
        write_spans_tsv(out / name / "labels-si.tsv", split.spans)
        write_spans_tsv(out / name / "labels-tc.tsv", split.spans, corpus.labels)
    write_articles(out / "pool" / "articles", corpus.pool.articles)

    _record(args, out, {"synth": asdict(synth_cfg)})
    print(f"wrote {len(corpus.train.articles)} train / {len(corpus.dev.articles)} dev "
          f"articles and a pool of {len(corpus.pool.articles)} to {out}")
    return 0


def cmd_train_si(args) -> int:
    hp, enc, config = _resolve(args, "si")
    train, dev = _inputs(args, hp, config)
    res = pl.train_si(train, dev, hp, args.seed, use_crf=not args.no_crf,
                      encoder_cfg=enc)
    config["use_crf"] = not args.no_crf
    ckpt = _save(args, "model-si.spfg", res, config, best_step=res.best_step)
    print(f"best dev FLC-F1 {res.best_score:.4f} at step {res.best_step}; saved {ckpt}")
    return 0


def cmd_train_tc(args) -> int:
    # the run self-trains exactly when it has a pool and a tagger to find its spans
    if (args.pool is None) != (args.si_model is None):
        raise CliError("TC self-training needs both --pool and --si-model")
    self_train = args.pool is not None
    ratio = _parse_ratio(args.gold_silver_ratio)
    hp, enc, config = _resolve(args, "tc")
    train_items, dev_items, labels, counts = _inputs(args, hp, config)
    opts = pl.TcOptions(reweight=args.reweight, span_cls=args.span_cls)

    silver_items = None
    if self_train:
        si_model = SiTagger.load(args.si_model)
        pool = SpanDataset(articles=read_articles(args.pool), spans=[])
        config.update(pool=_data_hash(pool.articles), si_model=_content_hash(args.si_model))
        annotator = pl.train_tc(train_items, dev_items, labels, opts, hp,
                                pl.derive_seed(args.seed, 77), encoder_cfg=enc)
        silver_items, counts["silver"] = pl.build_tc_silver(si_model, annotator.model, pool,
                                                            hp.max_seq_len)

    res = pl.train_tc(train_items, dev_items, labels, opts, hp, args.seed,
                      silver_items=silver_items, ratio=ratio, encoder_cfg=enc)
    res.meta["tc_items"] = counts
    config.update(options={**asdict(opts), "self_train": self_train},
                  ratio=args.gold_silver_ratio)
    ckpt = _save(args, "model-tc.spfg", res, config, best_step=res.best_step)
    print(f"best dev micro-F1 {res.best_score:.4f} at step {res.best_step}; saved {ckpt}")
    return 0


def cmd_self_train(args) -> int:
    ratio = _parse_ratio(args.gold_silver_ratio)
    hp, enc, config = _resolve(args, "si")
    train, dev = _inputs(args, hp, config)
    pool = SpanDataset(articles=read_articles(args.pool), spans=[])
    results = pl.self_train_si(train, dev, pool, args.iterations, hp,
                               seed=args.seed, ratio=ratio, use_crf=not args.no_crf,
                               encoder_cfg=enc)
    config.update(pool=_data_hash(pool.articles), iterations=args.iterations,
                  ratio=args.gold_silver_ratio, use_crf=not args.no_crf)
    for i, res in enumerate(results):
        name = "model-si-base.spfg" if i == 0 else f"model-si-iter{i}.spfg"
        ckpt = _save(args, name, res, config, f"self-train[{i}]", iteration=i)
        tag = "base" if i == 0 else f"iteration {i}"
        print(f"{tag}: best dev FLC-F1 {res.best_score:.4f} -> {ckpt}")
    return 0


def cmd_annotate(args) -> int:
    out = _out_dir(args)
    meta = {}
    if args.task == "si":
        model = SiTagger.load(args.model)
        pool = SpanDataset(articles=read_articles(args.pool), spans=[])
        silver = pl.annotate_si(model, pool, model.config.max_positions)
        path = out / "silver-si.tsv"
        write_spans_tsv(path, silver.spans)
        print(f"annotated {len(silver.spans)} spans over {len(pool.articles)} "
              f"articles -> {path}")
    else:
        if not args.labels:
            raise CliError("--labels is required for tc annotation")
        model = TcClassifier.load(args.model)
        pool = load_dataset(args.pool, args.labels, "si")
        items, counts = pl.counted_tc_items(pool, model.config.max_positions)
        pred = pl.predict_tc_probs(model, items).argmax(axis=1)
        labeled = [replace(it.char_span, technique=int(lab)) for it, lab in zip(items, pred)]
        path = out / "silver-tc.tsv"
        write_spans_tsv(path, labeled, model.labels)
        print(f"classified {len(labeled)} spans -> {path} ({counts['truncated_spans']} "
              f"truncated to {model.config.max_positions - pl.MARKER_OVERHEAD} tokens, "
              f"{counts['skipped_spans']} skipped for covering no token)")
        meta["tc_items"] = {"pool": counts}
    _record(args, out, {"task": args.task, "pool": _data_hash(pool.articles, pool.spans)},
            meta, files=["model"])
    return 0


def cmd_ensemble(args) -> int:
    paths = [p for p in args.models.split(",") if p]
    if not paths:
        raise CliError("--models needs at least one checkpoint")
    if args.enumerate_all and len(paths) < 2:
        raise CliError("--enumerate needs at least two models")
    models = [TcClassifier.load(p) for p in paths]
    data = load_dataset(args.articles, args.labels, "tc", args.techniques)
    items, counts = pl.counted_tc_items(data, models[0].config.max_positions)
    gold = np.array([it.label for it in items])
    out = _out_dir(args)

    probs = pl.member_probs(models, items)
    pred = pl.ensemble_predict(probs)
    score = micro_f1(pred, gold)
    spans = [replace(it.char_span, technique=int(p)) for it, p in zip(items, pred)]
    write_spans_tsv(out / "ensemble-predictions.tsv", spans, data.labels)
    print(f"ensemble of {len(models)} models: micro-F1 {score:.4f}")

    if args.enumerate_all:
        results = pl.subset_scores(probs, gold)
        lines = ["members\tmicro_f1"]
        for r in sorted(results, key=lambda r: (-r.score, r.members)):
            lines.append(",".join(str(i) for i in r.members) + f"\t{r.score:.6f}")
        (out / "ensembles.tsv").write_text("".join(l + "\n" for l in lines),
                                           encoding="utf-8")
        print(f"enumerated {len(results)} subsets -> {out / 'ensembles.tsv'}")

    _record(args, out, {"models": [_content_hash(p) for p in paths],
                        "enumerate": args.enumerate_all,
                        "eval": _data_hash(data.articles, data.spans, data.labels)},
            {"models": paths, "tc_items": {"eval": counts}})
    return 0


def cmd_score(args) -> int:
    out = _out_dir(args)
    counts = {}  # tc: the gold spans without a prediction
    if args.task == "si":
        pred = read_spans_tsv(args.pred, "si")
        gold = read_spans_tsv(args.gold, "si")
        score = flc_f1(pred, gold)
        report = {"task": "si", "precision": score.precision, "recall": score.recall,
                  "f1": score.f1, "n_pred": len(pred), "n_gold": len(gold)}
        print(f"FLC-F1 {score.f1:.4f} (P {score.precision:.4f} / R {score.recall:.4f})")
    else:
        techniques, pred, gold, predicted = _tc_aligned(args)
        gold_ids = np.array([g.technique for g in gold])
        pred_ids = np.array(predicted)
        answered = pred_ids != UNPREDICTED
        counts["unpredicted_spans"] = int((~answered).sum())
        f1 = micro_f1(pred_ids, gold_ids)  # an unpredicted span counts as a wrong label
        cm = confusion_matrix(pred_ids[answered], gold_ids[answered], len(techniques))
        # each gold span meets its own prediction only, so an unpredicted one
        # is not identified even where another span's prediction covers it
        own = lambda s: replace(s, article_id=(s.article_id, s.start, s.end))
        outcomes = span_outcomes([own(p) for p in pred], [own(g) for g in gold], techniques)
        report = {"task": "tc", "micro_f1": f1, **counts,
                  "confusion_matrix": cm.tolist(),
                  "outcomes": {name: {"count": c, "fully": fu, "subsequence": su,
                                      "missed": mi}
                               for name, c, fu, su, mi in outcomes.rows()}}
        lines = ["technique\tinstances\tfully_identified\tidentified_subsequence"
                 "\tnot_identified"]
        lines += [f"{name}\t{c}\t{fu:.1f}\t{su:.1f}\t{mi:.1f}"
                  for name, c, fu, su, mi in outcomes.rows()]
        (out / "outcomes.tsv").write_text("".join(l + "\n" for l in lines),
                                          encoding="utf-8")
        print(f"micro-F1 {f1:.4f} over {len(gold)} spans, "
              f"{counts['unpredicted_spans']} without a prediction (scored as missed)")
    (out / "score.json").write_text(json.dumps(report, sort_keys=True, indent=2) + "\n",
                                    encoding="utf-8")
    _record(args, out, {"task": args.task}, counts, files=["pred", "gold", "techniques"])
    return 0


def cmd_cv(args) -> int:
    hp, enc, config = _resolve(args, "tc")
    train_items, dev_items, labels, counts = _inputs(args, hp, config)
    opts = pl.TcOptions(reweight=args.reweight, span_cls=args.span_cls)
    scores = pl.cross_validate(train_items, dev_items, labels, opts, hp,
                               k=args.k, seed=args.seed, encoder_cfg=enc)
    out = _out_dir(args)
    mean, std = float(np.mean(scores)), float(np.std(scores))
    report = {"k": args.k, "scores": scores, "mean": mean, "std": std,
              "options": asdict(opts)}
    (out / "cv.json").write_text(json.dumps(report, sort_keys=True, indent=2) + "\n",
                                 encoding="utf-8")
    _record(args, out, {**config, "k": args.k, "options": asdict(opts)},
            {"tc_items": counts})
    print(f"{args.k}-fold micro-F1 {mean:.4f} +/- {std:.4f}")
    return 0


def cmd_analyze(args) -> int:
    out = _out_dir(args)
    counts = {}  # tc: the gold spans without a prediction
    articles = read_articles(args.articles)
    specs = ana.parse_feature_file(args.features) if args.features \
        else ana.default_features(args.task)

    if args.task == "si":
        pred = read_spans_tsv(args.pred, "si")
        gold = read_spans_tsv(args.gold, "si")
        check_spans_in_articles(pred, articles, args.pred)
        check_spans_in_articles(gold, articles, args.gold)
        per_article = flc_f1_per_article(pred, gold)
        gold_by, pred_by = spans_by_article(gold), spans_by_article(pred)
        ranges = lambda by, aid: [(s.start, s.end) for s in by.get(aid, [])]
        items, scores = [], []
        for aid in sorted(per_article):
            items.append(ana.AnalysisItem(text=articles[aid],
                                          expected_spans=ranges(gold_by, aid),
                                          output_spans=ranges(pred_by, aid)))
            scores.append(per_article[aid].f1)
    else:
        _, _, gold, predicted = _tc_aligned(args)
        check_spans_in_articles(gold, articles, args.gold)
        counts["unpredicted_spans"] = predicted.count(UNPREDICTED)
        print(f"{counts['unpredicted_spans']} gold spans without a prediction (scored 0.0)")
        aligned = sorted(zip(gold, predicted), key=lambda gp: (gp[0].article_id,
                                                               gp[0].start, gp[0].end))
        items = [ana.AnalysisItem(text=articles[g.article_id], span=(g.start, g.end))
                 for g, _ in aligned]
        scores = [1.0 if p == g.technique else 0.0 for g, p in aligned]  # UNPREDICTED: 0.0

    report = ana.worsening_features(items, scores, specs)
    path = out / f"worsening-{args.task}.tsv"
    ana.write_report(path, report)
    for row in report.rows:
        print(f"{row.name}\tcount={row.count}\tp={row.p_value:.4g}")
    for name in report.skipped:
        print(f"note: {name} skipped (present in none or all items)", file=sys.stderr)
    print(f"report -> {path}")
    _record(args, out, {"task": args.task, "articles": _data_hash(articles)}, counts,
            files=["pred", "gold", "techniques", "features"])
    return 0


_HANDLERS = {
    "gen-synth": cmd_gen_synth,
    "train-si": cmd_train_si,
    "train-tc": cmd_train_tc,
    "self-train": cmd_self_train,
    "annotate": cmd_annotate,
    "ensemble": cmd_ensemble,
    "score": cmd_score,
    "cv": cmd_cv,
    "analyze": cmd_analyze,
}


def main(argv: list[str] | None = None) -> int:
    """Run one command; OpenBLAS runs one thread unless ``OPENBLAS_NUM_THREADS``
    names a count (output bytes depend on the count, and at desk shapes a
    second thread was slower), and the caller's count comes back on return."""
    parser = build_parser()
    threads = None if os.environ.get("OPENBLAS_NUM_THREADS") else pl._set_blas_threads(1)
    try:
        args = parser.parse_args(argv)
        return _HANDLERS[args.command](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    finally:
        if threads is not None:
            pl._set_blas_threads(threads)


if __name__ == "__main__":
    sys.exit(main())
