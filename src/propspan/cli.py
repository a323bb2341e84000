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
from dataclasses import replace
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
from .tokens import Span


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


def _scoped(cfg: dict, prefix: str) -> dict:
    out = {}
    for key, value in cfg.items():
        if key.startswith(prefix + "."):
            out[key[len(prefix) + 1:]] = value
    return out


# The encoder.* keys that shape the model; the vocabulary, dropout and
# position count follow the data and hp.*.
ENCODER_KEYS = ("hidden_size", "layers", "heads", "intermediate_size")


def _resolve(args, task: str) -> tuple[pl.HyperParams, EncoderConfig | None]:
    """A training command's hyperparameters (profile, then ``hp.*`` keys, then
    ``--steps``) and its encoder: ``None`` for the desk encoder, else the desk
    encoder with the ``encoder.*`` keys applied."""
    cfg = _load_config(args.config)
    hp = pl.HyperParams.paper(task) if args.paper_scale else pl.HyperParams.desk(task)
    overrides = _scoped(cfg, "hp")
    bad = set(overrides) - set(hp.to_dict())
    if bad:
        raise CliError(f"unknown hp.* config keys: {sorted(bad)}")
    hp = replace(hp, **overrides)
    if args.steps is not None:
        hp = replace(hp, steps=args.steps)
    overrides = _scoped(cfg, "encoder")
    if not overrides:
        return hp, None
    bad = set(overrides) - set(ENCODER_KEYS)
    if bad:
        raise CliError(f"unknown encoder.* config keys: {sorted(bad)} "
                       f"(accepted: {', '.join(ENCODER_KEYS)})")
    return hp, replace(pl.desk_encoder_config(1, hp), **overrides)


def _inputs(args, hp: pl.HyperParams):
    """The train and dev splits as the trainer takes them: datasets for SI;
    for TC, classification items, the technique inventory and the per-split
    span counts of ``_tc_items``."""
    techniques = args.techniques if hp.task == "tc" else None
    train = load_dataset(args.articles, args.labels, hp.task, techniques)
    dev = load_dataset(args.dev_articles, args.dev_labels, hp.task, techniques)
    if hp.task == "si":
        return train, dev
    train_items, train_counts = _tc_items(train, hp.max_seq_len)
    dev_items, dev_counts = _tc_items(dev, hp.max_seq_len)
    return train_items, dev_items, train.labels, {"train": train_counts, "dev": dev_counts}


def _tc_items(data: SpanDataset, max_seq_len: int) -> tuple[list[pl.TcItem], dict]:
    """``data``'s classification items, and how many of its spans were
    truncated to the window budget or skipped for covering no token."""
    items = pl.build_tc_items(data, max_seq_len)
    return items, pl.tc_item_counts(items, len(data.spans))


def _parse_ratio(text: str) -> tuple[int, int] | None:
    if text.lower() in ("none", "off"):
        return None
    try:
        g, s = text.split(":")
        return (int(g), int(s))
    except ValueError:
        raise CliError(f"--gold-silver-ratio must look like 1:4, got {text!r}") from None


def _effective(args, hp: pl.HyperParams | None = None, enc: EncoderConfig | None = None,
               **extra) -> dict:
    """The hashed run config; a training run records ``encoder: None`` for the
    desk encoder and the resolved ``encoder.*`` keys otherwise."""
    config = {"command": args.command, "seed": getattr(args, "seed", None)}
    if hp is not None:
        config["hp"] = hp.to_dict()
        config["encoder"] = None if enc is None else {k: getattr(enc, k) for k in ENCODER_KEYS}
    config.update(extra)
    return config


def _content_hash(path: str) -> str:
    """SHA-256 of a checkpoint's bytes: a manifest hashes the model a run read,
    not the path it was read from."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _save(args, name: str, res: pl.TrainResult, config: dict, command: str,
          **meta) -> Path:
    """Write ``res.model`` to ``<out>/<name>`` and append its ``runs.jsonl`` record."""
    out = _out_dir(args)
    ckpt = out / name
    res.model.save(ckpt, meta={"best_score": res.best_score, "seed": args.seed, **meta})
    pl.append_manifest(out, pl.run_record(command, config, args.seed, res, str(ckpt)))
    return ckpt


def _tc_aligned(args) -> tuple[list[str], list[Span], list[Span], list[int]]:
    """The technique inventory, the predicted and gold spans of a TC
    ``--pred``/``--gold`` pair, and each gold span's predicted technique in
    gold order; every gold span needs a prediction with its offsets."""
    if not args.techniques:
        raise CliError(f"--techniques is required for tc {args.command}")
    techniques = read_techniques(args.techniques)
    pred = read_spans_tsv(args.pred, "tc", techniques)
    gold = read_spans_tsv(args.gold, "tc", techniques)
    key = lambda s: (s.article_id, s.start, s.end)
    pred_by_key = {key(s): s.technique for s in pred}
    missing = [key(g) for g in gold if key(g) not in pred_by_key]
    if missing:
        raise CliError(f"{len(missing)} gold spans have no prediction "
                       f"(first: {missing[0]}); tc {args.command} needs span-aligned files")
    return techniques, pred, gold, [pred_by_key[key(g)] for g in gold]


# -- command handlers -----------------------------------------------------------------

def cmd_gen_synth(args) -> int:
    cfg = _load_config(args.config)
    overrides = _scoped(cfg, "synth")
    synth_cfg = SynthConfig(seed=args.seed)
    known = set(synth_cfg.__dataclass_fields__)
    bad = set(overrides) - known
    if bad:
        raise CliError(f"unknown synth.* config keys: {sorted(bad)}")
    for key in ("sentences_per_article", "sentence_length"):
        if key in overrides:
            overrides[key] = tuple(overrides[key])
    synth_cfg = replace(synth_cfg, seed=args.seed, **overrides)

    corpus = gen_synth(synth_cfg)
    out = _out_dir(args)
    write_techniques(out / "techniques.txt", corpus.labels)
    for name, split in (("train", corpus.train), ("dev", corpus.dev)):
        write_articles(out / name / "articles", split.articles)
        write_spans_tsv(out / name / "labels-si.tsv", split.spans)
        write_spans_tsv(out / name / "labels-tc.tsv", split.spans, corpus.labels)
    write_articles(out / "pool" / "articles", corpus.pool.articles)

    config = _effective(args, synth={k: getattr(synth_cfg, k) for k in known})
    pl.append_manifest(out, pl.run_record("gen-synth", config, args.seed, None))
    print(f"wrote {len(corpus.train.articles)} train / {len(corpus.dev.articles)} dev "
          f"articles and a pool of {len(corpus.pool.articles)} to {out}")
    return 0


def cmd_train_si(args) -> int:
    hp, enc = _resolve(args, "si")
    train, dev = _inputs(args, hp)
    res = pl.train_si(train, dev, hp, args.seed, use_crf=not args.no_crf,
                      encoder_cfg=enc)
    config = _effective(args, hp, enc, use_crf=not args.no_crf)
    ckpt = _save(args, "model-si.spfg", res, config, "train-si", best_step=res.best_step)
    print(f"best dev FLC-F1 {res.best_score:.4f} at step {res.best_step}; saved {ckpt}")
    return 0


def cmd_train_tc(args) -> int:
    # the run self-trains exactly when it has a pool and a tagger to find its spans
    if (args.pool is None) != (args.si_model is None):
        raise CliError("TC self-training needs both --pool and --si-model")
    self_train = args.pool is not None
    hp, enc = _resolve(args, "tc")
    train_items, dev_items, labels, counts = _inputs(args, hp)
    opts = pl.TcOptions(reweight=args.reweight, span_cls=args.span_cls)
    ratio = _parse_ratio(args.gold_silver_ratio)

    silver_items = None
    if self_train:
        si_model = SiTagger.load(args.si_model)
        pool = SpanDataset(articles=read_articles(args.pool), spans=[])
        annotator = pl.train_tc(train_items, dev_items, labels, opts, hp,
                                pl.derive_seed(args.seed, 77), encoder_cfg=enc)
        silver_items, counts["silver"] = pl.build_tc_silver(si_model, annotator.model, pool,
                                                            hp.max_seq_len)

    res = pl.train_tc(train_items, dev_items, labels, opts, hp, args.seed,
                      silver_items=silver_items, ratio=ratio, encoder_cfg=enc)
    res.meta["tc_items"] = counts
    config = _effective(args, hp, enc, options={"reweight": opts.reweight,
                                                "span_cls": opts.span_cls,
                                                "self_train": self_train},
                        ratio=args.gold_silver_ratio)
    ckpt = _save(args, "model-tc.spfg", res, config, "train-tc", best_step=res.best_step)
    print(f"best dev micro-F1 {res.best_score:.4f} at step {res.best_step}; saved {ckpt}")
    return 0


def cmd_self_train(args) -> int:
    hp, enc = _resolve(args, "si")
    train, dev = _inputs(args, hp)
    pool = SpanDataset(articles=read_articles(args.pool), spans=[])
    ratio = _parse_ratio(args.gold_silver_ratio)
    results = pl.self_train_si(train, dev, pool, args.iterations, hp,
                               seed=args.seed, ratio=ratio, use_crf=not args.no_crf,
                               encoder_cfg=enc)
    config = _effective(args, hp, enc, iterations=args.iterations,
                        ratio=args.gold_silver_ratio, use_crf=not args.no_crf)
    for i, res in enumerate(results):
        name = "model-si-base.spfg" if i == 0 else f"model-si-iter{i}.spfg"
        ckpt = _save(args, name, res, config, f"self-train[{i}]", iteration=i)
        tag = "base" if i == 0 else f"iteration {i}"
        print(f"{tag}: best dev FLC-F1 {res.best_score:.4f} -> {ckpt}")
    return 0


def cmd_annotate(args) -> int:
    out = _out_dir(args)
    meta = {"model": args.model}
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
        data = load_dataset(args.pool, args.labels, "si")
        items, counts = _tc_items(data, model.config.max_positions)
        pred = pl.predict_tc_probs(model, items).argmax(axis=1)
        labeled = [replace(it.char_span, technique=int(lab)) for it, lab in zip(items, pred)]
        path = out / "silver-tc.tsv"
        write_spans_tsv(path, labeled, model.labels)
        print(f"classified {len(labeled)} spans -> {path} ({counts['truncated_spans']} "
              f"truncated to {model.config.max_positions - pl.MARKER_OVERHEAD} tokens, "
              f"{counts['skipped_spans']} skipped for covering no token)")
        meta["tc_items"] = {"pool": counts}
    config = _effective(args, model=_content_hash(args.model), task=args.task)
    pl.append_manifest(out, pl.run_record("annotate", config, None, None, meta=meta))
    return 0


def cmd_ensemble(args) -> int:
    paths = [p for p in args.models.split(",") if p]
    if not paths:
        raise CliError("--models needs at least one checkpoint")
    if args.enumerate_all and len(paths) < 2:
        raise CliError("--enumerate needs at least two models")
    models = [TcClassifier.load(p) for p in paths]
    data = load_dataset(args.articles, args.labels, "tc", args.techniques)
    items, counts = _tc_items(data, models[0].config.max_positions)
    gold = np.array([it.label for it in items])
    out = _out_dir(args)

    probs = pl.member_probs(models, items)
    pred = pl.mean_probs(probs).argmax(axis=1)
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

    config = _effective(args, models=[_content_hash(p) for p in paths],
                        enumerate=args.enumerate_all)
    pl.append_manifest(out, pl.run_record("ensemble", config, None, None,
                                          meta={"models": paths,
                                                "tc_items": {"eval": counts}}))
    return 0


def cmd_score(args) -> int:
    out = _out_dir(args)
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
        f1 = micro_f1(pred_ids, gold_ids)
        cm = confusion_matrix(pred_ids, gold_ids, len(techniques))
        outcomes = span_outcomes(pred, gold, techniques)
        report = {"task": "tc", "micro_f1": f1,
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
        print(f"micro-F1 {f1:.4f} over {len(gold)} spans")
    (out / "score.json").write_text(json.dumps(report, sort_keys=True, indent=2) + "\n",
                                    encoding="utf-8")
    config = _effective(args, task=args.task, pred=args.pred, gold=args.gold)
    pl.append_manifest(out, pl.run_record("score", config, None, None))
    return 0


def cmd_cv(args) -> int:
    hp, enc = _resolve(args, "tc")
    train_items, dev_items, labels, counts = _inputs(args, hp)
    opts = pl.TcOptions(reweight=args.reweight, span_cls=args.span_cls)
    scores = pl.cross_validate(train_items, dev_items, labels, opts, hp,
                               k=args.k, seed=args.seed, encoder_cfg=enc)
    out = _out_dir(args)
    mean, std = float(np.mean(scores)), float(np.std(scores))
    report = {"k": args.k, "scores": scores, "mean": mean, "std": std,
              "options": {"reweight": opts.reweight, "span_cls": opts.span_cls}}
    (out / "cv.json").write_text(json.dumps(report, sort_keys=True, indent=2) + "\n",
                                 encoding="utf-8")
    config = _effective(args, hp, enc, k=args.k, reweight=args.reweight,
                        span_cls=args.span_cls)
    pl.append_manifest(out, pl.run_record("cv", config, args.seed, None,
                                          meta={"tc_items": counts}))
    print(f"{args.k}-fold micro-F1 {mean:.4f} +/- {std:.4f}")
    return 0


def _ranges_by_article(spans: list[Span]) -> dict[str, list[tuple[int, int]]]:
    out: dict[str, list[tuple[int, int]]] = {}
    for s in spans:
        out.setdefault(s.article_id, []).append((s.start, s.end))
    return out


def cmd_analyze(args) -> int:
    out = _out_dir(args)
    articles = read_articles(args.articles)
    specs = ana.parse_feature_file(args.features) if args.features \
        else ana.default_features(args.task)

    if args.task == "si":
        pred = read_spans_tsv(args.pred, "si")
        gold = read_spans_tsv(args.gold, "si")
        check_spans_in_articles(pred, articles, args.pred)
        check_spans_in_articles(gold, articles, args.gold)
        per_article = flc_f1_per_article(pred, gold)
        gold_by, pred_by = _ranges_by_article(gold), _ranges_by_article(pred)
        items, scores = [], []
        for aid in sorted(per_article):
            items.append(ana.AnalysisItem(text=articles[aid],
                                          expected_spans=gold_by.get(aid, []),
                                          output_spans=pred_by.get(aid, [])))
            scores.append(per_article[aid].f1)
    else:
        _, _, gold, predicted = _tc_aligned(args)
        check_spans_in_articles(gold, articles, args.gold)
        aligned = sorted(zip(gold, predicted), key=lambda gp: (gp[0].article_id,
                                                               gp[0].start, gp[0].end))
        items = [ana.AnalysisItem(text=articles[g.article_id], span=(g.start, g.end))
                 for g, _ in aligned]
        scores = [1.0 if p == g.technique else 0.0 for g, p in aligned]

    report = ana.worsening_features(items, scores, specs)
    path = out / f"worsening-{args.task}.tsv"
    ana.write_report(path, report)
    for row in report.rows:
        print(f"{row.name}\tcount={row.count}\tp={row.p_value:.4g}")
    for name in report.skipped:
        print(f"note: {name} skipped (present in none or all items)", file=sys.stderr)
    print(f"report -> {path}")
    config = _effective(args, task=args.task, features=args.features)
    pl.append_manifest(out, pl.run_record("analyze", config, None, None))
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
