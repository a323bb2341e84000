import ctypes
import hashlib
import json
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from propspan import pipeline as pl
from propspan.checkpoint import MAGIC, save_checkpoint
from propspan.cli import main
from propspan.datasets import read_articles, read_spans_tsv, read_techniques, write_spans_tsv
from propspan.metrics import confusion_matrix, micro_f1
from propspan.models import SiTagger
from propspan.tokens import Span, span_token_range, tokenize

SRC = Path(__file__).resolve().parent.parent / "src"


def run(argv):
    return main(argv)


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    config = out / "synth.json"
    config.write_text(json.dumps({
        "synth.n_train": 10, "synth.n_dev": 5, "synth.n_pool": 6,
        "synth.technique_count": 2, "synth.sentences_per_article": [2, 3],
        "synth.sentence_length": [5, 8]}))
    code = run(["gen-synth", "--seed", "7", "--out", str(out / "data"),
                "--config", str(config)])
    assert code == 0
    return out / "data"


TRAIN_CFG = {"hp.steps": 30, "hp.eval_every": 15, "hp.max_seq_len": 32,
             "encoder.hidden_size": 16, "encoder.layers": 1, "encoder.heads": 2,
             "encoder.intermediate_size": 24}


@pytest.fixture(scope="module")
def train_cfg_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "train.json"
    path.write_text(json.dumps(TRAIN_CFG))
    return path


class TestGenSynth:
    def test_layout(self, synth_dir):
        assert (synth_dir / "techniques.txt").exists()
        for split in ("train", "dev"):
            assert (synth_dir / split / "articles").is_dir()
            assert (synth_dir / split / "labels-si.tsv").exists()
            assert (synth_dir / split / "labels-tc.tsv").exists()
        assert (synth_dir / "pool" / "articles").is_dir()
        assert (synth_dir / "runs.jsonl").exists()

    def test_byte_identical_rerun(self, synth_dir, tmp_path):
        config = tmp_path / "synth.json"
        config.write_text(json.dumps({
            "synth.n_train": 10, "synth.n_dev": 5, "synth.n_pool": 6,
            "synth.technique_count": 2, "synth.sentences_per_article": [2, 3],
            "synth.sentence_length": [5, 8]}))
        assert run(["gen-synth", "--seed", "7", "--out", str(tmp_path / "again"),
                    "--config", str(config)]) == 0
        a = sorted((synth_dir / "train" / "articles").iterdir())
        b = sorted((tmp_path / "again" / "train" / "articles").iterdir())
        assert [p.name for p in a] == [p.name for p in b]
        for pa, pb in zip(a, b):
            assert pa.read_bytes() == pb.read_bytes()
        assert (synth_dir / "train" / "labels-si.tsv").read_bytes() == \
            (tmp_path / "again" / "train" / "labels-si.tsv").read_bytes()

    def test_missing_seed_is_usage_error(self, tmp_path, capsys):
        assert run(["gen-synth", "--out", str(tmp_path / "x")]) == 1
        assert "required" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["warp_speed", "seed"])
    def test_unknown_synth_key_exit_1(self, tmp_path, capsys, key):
        # --seed is the one seed, so synth.seed is unknown like any other key
        config = tmp_path / "synth.json"
        config.write_text(json.dumps({f"synth.{key}": 3}))
        assert run(["gen-synth", "--seed", "7", "--config", str(config),
                    "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert f"unknown synth.* config keys: ['{key}'] (accepted: vocab_size," in err
        assert not (tmp_path / "x").exists()


class TestTrainSi:
    def test_train_save_and_manifest(self, synth_dir, train_cfg_path, tmp_path):
        out = tmp_path / "run"
        code = run(["train-si", "--seed", "3",
                    "--articles", str(synth_dir / "train" / "articles"),
                    "--labels", str(synth_dir / "train" / "labels-si.tsv"),
                    "--dev-articles", str(synth_dir / "dev" / "articles"),
                    "--dev-labels", str(synth_dir / "dev" / "labels-si.tsv"),
                    "--config", str(train_cfg_path), "--out", str(out)])
        assert code == 0
        assert (out / "model-si.spfg").exists()
        records = [json.loads(l) for l in (out / "runs.jsonl").read_text().splitlines()]
        assert records[0]["command"] == "train-si"
        assert records[0]["seed"] == 3
        assert "eval_trace" in records[0]
        assert records[0]["config"]["hp"]["steps"] == 30

    def test_rerun_byte_identical_checkpoint(self, synth_dir, train_cfg_path, tmp_path):
        args = lambda out: ["train-si", "--seed", "3",
                            "--articles", str(synth_dir / "train" / "articles"),
                            "--labels", str(synth_dir / "train" / "labels-si.tsv"),
                            "--dev-articles", str(synth_dir / "dev" / "articles"),
                            "--dev-labels", str(synth_dir / "dev" / "labels-si.tsv"),
                            "--config", str(train_cfg_path), "--out", str(out)]
        assert run(args(tmp_path / "a")) == 0
        assert run(args(tmp_path / "b")) == 0
        assert (tmp_path / "a" / "model-si.spfg").read_bytes() == \
            (tmp_path / "b" / "model-si.spfg").read_bytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow itself
    def test_diverging_loss_exit_2(self, synth_dir, tmp_path, capsys):
        cfg = tmp_path / "diverge.json"
        cfg.write_text(json.dumps({**TRAIN_CFG, "hp.lr": 1e30}))
        code = run(["train-si", "--seed", "3",
                    "--articles", str(synth_dir / "train" / "articles"),
                    "--labels", str(synth_dir / "train" / "labels-si.tsv"),
                    "--dev-articles", str(synth_dir / "dev" / "articles"),
                    "--dev-labels", str(synth_dir / "dev" / "labels-si.tsv"),
                    "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert code == 2
        assert "non-finite training loss" in capsys.readouterr().err
        assert not (tmp_path / "run" / "model-si.spfg").exists()

    def test_missing_articles_dir_exit_1(self, synth_dir, tmp_path):
        code = run(["train-si", "--seed", "1", "--articles", str(tmp_path / "none"),
                    "--labels", str(synth_dir / "train" / "labels-si.tsv"),
                    "--dev-articles", str(synth_dir / "dev" / "articles"),
                    "--dev-labels", str(synth_dir / "dev" / "labels-si.tsv"),
                    "--out", str(tmp_path / "o")])
        assert code == 1


@pytest.fixture(scope="module")
def si_model(synth_dir, train_cfg_path, tmp_path_factory):
    out = tmp_path_factory.mktemp("simodel")
    assert run(["train-si", "--seed", "5",
                "--articles", str(synth_dir / "train" / "articles"),
                "--labels", str(synth_dir / "train" / "labels-si.tsv"),
                "--dev-articles", str(synth_dir / "dev" / "articles"),
                "--dev-labels", str(synth_dir / "dev" / "labels-si.tsv"),
                "--config", str(train_cfg_path), "--out", str(out)]) == 0
    return out / "model-si.spfg"


class TestAnnotateAndScore:
    def test_annotate_writes_tsv(self, synth_dir, si_model, tmp_path):
        out = tmp_path / "silver"
        assert run(["annotate", "--task", "si", "--model", str(si_model),
                    "--pool", str(synth_dir / "pool" / "articles"),
                    "--out", str(out)]) == 0
        assert (out / "silver-si.tsv").exists()
        record = json.loads((out / "runs.jsonl").read_text())
        assert record["seed"] is None and record["config"]["seed"] is None

    def test_annotate_takes_no_seed(self, synth_dir, si_model, tmp_path, capsys):
        # annotate, ensemble, score and analyze draw no random number
        assert run(["annotate", "--seed", "1", "--task", "si", "--model", str(si_model),
                    "--pool", str(synth_dir / "pool" / "articles"),
                    "--out", str(tmp_path / "silver")]) == 1
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

    def test_annotate_nan_weights_exit_2(self, synth_dir, si_model, tmp_path, capsys):
        from propspan.models import SiTagger
        model = SiTagger.load(si_model)
        model.emission_head.w.data[0, 0] = np.nan
        bad = tmp_path / "nan-si.spfg"
        model.save(bad)
        out = tmp_path / "silver"
        assert run(["annotate", "--task", "si", "--model", str(bad),
                    "--pool", str(synth_dir / "pool" / "articles"),
                    "--out", str(out)]) == 2
        assert "non-finite emissions in row 0" in capsys.readouterr().err
        assert not (out / "silver-si.tsv").exists()

    def test_score_identical_files_f1_one(self, synth_dir, tmp_path, capsys):
        gold = synth_dir / "dev" / "labels-si.tsv"
        out = tmp_path / "score"
        assert run(["score", "--task", "si", "--pred", str(gold),
                    "--gold", str(gold), "--out", str(out)]) == 0
        assert "FLC-F1 1.0000" in capsys.readouterr().out
        report = json.loads((out / "score.json").read_text())
        assert report["f1"] == 1.0

    def test_score_tc_task(self, synth_dir, tmp_path, capsys):
        gold = synth_dir / "dev" / "labels-tc.tsv"
        out = tmp_path / "score-tc"
        assert run(["score", "--task", "tc", "--pred", str(gold), "--gold", str(gold),
                    "--techniques", str(synth_dir / "techniques.txt"),
                    "--out", str(out)]) == 0
        assert "micro-F1 1.0000" in capsys.readouterr().out
        report = json.loads((out / "score.json").read_text())
        assert report["micro_f1"] == 1.0
        assert "confusion_matrix" in report and "outcomes" in report


class TestSelfTrainCommand:
    def test_emits_checkpoint_per_iteration(self, synth_dir, train_cfg_path, tmp_path):
        out = tmp_path / "st"
        code = run(["self-train", "--seed", "2", "--iterations", "2",
                    "--articles", str(synth_dir / "train" / "articles"),
                    "--labels", str(synth_dir / "train" / "labels-si.tsv"),
                    "--dev-articles", str(synth_dir / "dev" / "articles"),
                    "--dev-labels", str(synth_dir / "dev" / "labels-si.tsv"),
                    "--pool", str(synth_dir / "pool" / "articles"),
                    "--config", str(train_cfg_path), "--out", str(out)])
        assert code == 0
        assert (out / "model-si-base.spfg").exists()  # gold-only model
        iteration_ckpts = sorted(out.glob("model-si-iter*.spfg"))
        assert [p.name for p in iteration_ckpts] == ["model-si-iter1.spfg",
                                                     "model-si-iter2.spfg"]
        records = [json.loads(l) for l in (out / "runs.jsonl").read_text().splitlines()]
        assert len(records) == 3


def split_args(synth_dir, task: str) -> list[str]:
    """The train and dev split flags of a training command for ``task``."""
    args = ["--articles", str(synth_dir / "train" / "articles"),
            "--labels", str(synth_dir / "train" / f"labels-{task}.tsv"),
            "--dev-articles", str(synth_dir / "dev" / "articles"),
            "--dev-labels", str(synth_dir / "dev" / f"labels-{task}.tsv")]
    return args + ["--techniques", str(synth_dir / "techniques.txt")] if task == "tc" else args


@pytest.fixture(scope="module")
def tc_models(synth_dir, train_cfg_path, tmp_path_factory):
    root = tmp_path_factory.mktemp("tcmodels")
    paths = []
    for i, extra in enumerate(([], ["--reweight"])):
        out = root / f"m{i}"
        code = run(["train-tc", "--seed", str(10 + i),
                    "--articles", str(synth_dir / "train" / "articles"),
                    "--labels", str(synth_dir / "train" / "labels-tc.tsv"),
                    "--dev-articles", str(synth_dir / "dev" / "articles"),
                    "--dev-labels", str(synth_dir / "dev" / "labels-tc.tsv"),
                    "--techniques", str(synth_dir / "techniques.txt"),
                    "--config", str(train_cfg_path), "--out", str(out)] + extra)
        assert code == 0
        paths.append(out / "model-tc.spfg")
    return paths


class TestTrainTcAndEnsembleAndCv:
    def test_ensemble_enumerate(self, synth_dir, tc_models, tmp_path, capsys, monkeypatch):
        calls = []
        predict = pl.predict_tc_probs
        monkeypatch.setattr(pl, "predict_tc_probs",
                            lambda model, items: calls.append(model) or predict(model, items))
        out = tmp_path / "ens"
        code = run(["ensemble", "--models", ",".join(str(p) for p in tc_models),
                    "--articles", str(synth_dir / "dev" / "articles"),
                    "--labels", str(synth_dir / "dev" / "labels-tc.tsv"),
                    "--techniques", str(synth_dir / "techniques.txt"),
                    "--enumerate", "--out", str(out)])
        assert code == 0
        assert (out / "ensemble-predictions.tsv").exists()
        lines = (out / "ensembles.tsv").read_text().splitlines()
        assert len(lines) == 2  # header + the single 2-model subset
        assert len(calls) == len(tc_models)  # each model runs once for both outputs
        # the all-members row scores the written predictions
        techniques = read_techniques(synth_dir / "techniques.txt")
        pred = {(s.article_id, s.start, s.end): s.technique for s in
                read_spans_tsv(out / "ensemble-predictions.tsv", "tc", techniques)}
        gold = read_spans_tsv(synth_dir / "dev" / "labels-tc.tsv", "tc", techniques)
        f1 = micro_f1(np.array([pred[(g.article_id, g.start, g.end)] for g in gold]),
                      np.array([g.technique for g in gold]))
        assert lines[1] == f"0,1\t{f1:.6f}"

    def test_cv_report(self, synth_dir, train_cfg_path, tmp_path):
        out = tmp_path / "cv"
        code = run(["cv", "--seed", "4", "--k", "3",
                    "--articles", str(synth_dir / "train" / "articles"),
                    "--labels", str(synth_dir / "train" / "labels-tc.tsv"),
                    "--dev-articles", str(synth_dir / "dev" / "articles"),
                    "--dev-labels", str(synth_dir / "dev" / "labels-tc.tsv"),
                    "--techniques", str(synth_dir / "techniques.txt"),
                    "--config", str(train_cfg_path), "--steps", "10", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "cv.json").read_text())
        assert len(report["scores"]) == 3
        record = json.loads((out / "runs.jsonl").read_text())
        assert record["config"]["options"] == {"reweight": False, "span_cls": False}

    def test_ensemble_enumerate_one_model_writes_nothing(self, synth_dir, tc_models,
                                                         tmp_path, capsys):
        out = tmp_path / "ens"
        code = run(["ensemble", "--models", str(tc_models[0]),
                    "--articles", str(synth_dir / "dev" / "articles"),
                    "--labels", str(synth_dir / "dev" / "labels-tc.tsv"),
                    "--techniques", str(synth_dir / "techniques.txt"),
                    "--enumerate", "--out", str(out)])
        assert code == 1
        assert "--enumerate needs at least two models" in capsys.readouterr().err
        assert not (out / "ensemble-predictions.tsv").exists()
        assert not (out / "runs.jsonl").exists()

    @pytest.mark.parametrize("given", ["pool", "si-model"])
    def test_train_tc_self_train_needs_pool_and_si_model(self, synth_dir, si_model,
                                                         tmp_path, capsys, given):
        source = {"pool": synth_dir / "pool" / "articles", "si-model": si_model}[given]
        out = tmp_path / "x"
        code = run(["train-tc", "--seed", "1", f"--{given}", str(source),
                    *split_args(synth_dir, "tc"), "--out", str(out)])
        assert code == 1
        assert "--pool and --si-model" in capsys.readouterr().err
        assert not (out / "model-tc.spfg").exists()

    def test_train_tc_self_trains_given_pool_and_si_model(self, synth_dir, si_model,
                                                          train_cfg_path, tc_models,
                                                          tmp_path):
        out = tmp_path / "st"
        assert run(["train-tc", "--seed", "1", "--pool", str(synth_dir / "pool" / "articles"),
                    "--si-model", str(si_model), *split_args(synth_dir, "tc"),
                    "--config", str(train_cfg_path), "--out", str(out)]) == 0
        record = json.loads((out / "runs.jsonl").read_text())
        assert record["config"]["options"]["self_train"] is True
        assert record["meta"]["options"]["self_train"] is True
        gold_only = json.loads((tc_models[0].parent / "runs.jsonl").read_text())
        assert gold_only["config"]["options"]["self_train"] is False


class TestAnalyze:
    def test_si_analysis_report(self, synth_dir, tmp_path):
        gold = synth_dir / "dev" / "labels-si.tsv"
        out = tmp_path / "ana"
        code = run(["analyze", "--task", "si",
                    "--articles", str(synth_dir / "dev" / "articles"),
                    "--gold", str(gold), "--pred", str(gold), "--out", str(out)])
        assert code == 0
        assert (out / "worsening-si.tsv").exists()

    def test_tc_analysis_with_custom_features(self, synth_dir, tmp_path):
        gold = synth_dir / "dev" / "labels-tc.tsv"
        feats = tmp_path / "f.tsv"
        feats.write_text("trigger0\tinside-span\tt0x000\n")
        out = tmp_path / "ana2"
        code = run(["analyze", "--task", "tc",
                    "--articles", str(synth_dir / "dev" / "articles"),
                    "--gold", str(gold), "--pred", str(gold),
                    "--techniques", str(synth_dir / "techniques.txt"),
                    "--features", str(feats), "--out", str(out)])
        assert code == 0
        assert (out / "worsening-tc.tsv").exists()

    def test_si_report_matches_per_article_scan(self, synth_dir, tmp_path):
        from propspan import analysis as ana
        from propspan.datasets import read_articles, read_spans_tsv, write_spans_tsv
        from propspan.metrics import flc_f1_per_article
        from propspan.tokens import Span
        articles = read_articles(synth_dir / "dev" / "articles")
        gold = read_spans_tsv(synth_dir / "dev" / "labels-si.tsv", "si")
        # drop every third span and shift the rest by one character
        pred = [Span(s.article_id, s.start + 1, s.end) for i, s in enumerate(gold)
                if i % 3 and s.end - s.start > 1]
        pred_path = tmp_path / "pred.tsv"
        write_spans_tsv(pred_path, pred)
        out = tmp_path / "ana"
        assert run(["analyze", "--task", "si",
                    "--articles", str(synth_dir / "dev" / "articles"),
                    "--gold", str(synth_dir / "dev" / "labels-si.tsv"),
                    "--pred", str(pred_path), "--out", str(out)]) == 0
        pred = read_spans_tsv(pred_path, "si")
        per_article = flc_f1_per_article(pred, gold)
        items = [ana.AnalysisItem(
            text=articles[aid],
            expected_spans=[(s.start, s.end) for s in gold if s.article_id == aid],
            output_spans=[(s.start, s.end) for s in pred if s.article_id == aid])
            for aid in sorted(per_article)]
        scores = [per_article[aid].f1 for aid in sorted(per_article)]
        want = tmp_path / "want.tsv"
        ana.write_report(want, ana.worsening_features(items, scores,
                                                      ana.default_features("si")))
        assert (out / "worsening-si.tsv").read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("task", ["si", "tc"])
    @pytest.mark.parametrize("bad", ["unknown", "past_end"])
    def test_span_outside_articles_exit_1(self, synth_dir, tmp_path, capsys, task, bad):
        gold = synth_dir / "dev" / f"labels-{task}.tsv"
        first = gold.read_text().splitlines()[0].split("\t")
        aid = "nosuch" if bad == "unknown" else first[0]
        if bad == "past_end":
            text = (synth_dir / "dev" / "articles" / f"article{aid}.txt").read_text()
            first[-2:] = [str(len(text)), str(len(text) + 5)]
        labels = tmp_path / "gold.tsv"
        labels.write_text(gold.read_text() + "\t".join([aid] + first[1:]) + "\n")
        code = run(["analyze", "--task", task,
                    "--articles", str(synth_dir / "dev" / "articles"),
                    "--gold", str(labels), "--pred", str(labels),
                    "--techniques", str(synth_dir / "techniques.txt"),
                    "--out", str(tmp_path / "o")])
        assert code == 1
        assert repr(aid) in capsys.readouterr().err


def train_si_with(synth_dir, tmp_path, config: dict) -> int:
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    return run(["train-si", "--seed", "1", "--config", str(cfg),
                "--articles", str(synth_dir / "train" / "articles"),
                "--labels", str(synth_dir / "train" / "labels-si.tsv"),
                "--dev-articles", str(synth_dir / "dev" / "articles"),
                "--dev-labels", str(synth_dir / "dev" / "labels-si.tsv"),
                "--out", str(tmp_path / "o")])


def test_unknown_hp_key_exit_1(synth_dir, tmp_path, capsys):
    assert train_si_with(synth_dir, tmp_path, {"hp.warp_speed": 9}) == 1
    assert "'warp_speed'" in capsys.readouterr().err
    assert not (tmp_path / "o" / "model-si.spfg").exists()


@pytest.mark.parametrize("command", ["train-si", "train-tc"])
def test_hp_task_key_exit_1(synth_dir, tmp_path, capsys, command):
    # the command sets the task; an hp.task key once crashed train-si with exit 2
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({**TRAIN_CFG, "hp.task": "tc" if command == "train-si" else "si"}))
    assert run([command, "--seed", "1", "--config", str(cfg),
                *split_args(synth_dir, command[-2:]), "--out", str(tmp_path / "o")]) == 1
    assert "unknown hp.* config keys: ['task'] (accepted: dropout," in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command,key", [("train-si", "weight_decay"),
                                         ("train-tc", "momentum")])
def test_optimizer_setting_without_effect_exit_1(synth_dir, tmp_path, capsys, command, key):
    # SGD has no weight decay and AdamW no momentum here, so either would be
    # recorded and hashed but change nothing
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({**TRAIN_CFG, f"hp.{key}": 0.5}))
    task = command[-2:]
    out = tmp_path / "o"
    assert run([command, "--seed", "1", "--config", str(cfg), *split_args(synth_dir, task),
                "--out", str(out)]) == 1
    assert f"{key} has no effect" in capsys.readouterr().err
    assert not (out / f"model-{task}.spfg").exists()


def test_train_si_rejects_bce_loss(synth_dir, tmp_path, capsys):
    # hp.loss was an option once; the CRF likelihood is the only SI objective
    # now, so any hp.loss value is an unknown key
    for value in ("bce", "nll"):
        assert train_si_with(synth_dir, tmp_path, {"hp.loss": value}) == 1
        assert "'loss'" in capsys.readouterr().err
        assert not (tmp_path / "o" / "model-si.spfg").exists()


@pytest.mark.parametrize("key", ["max_seq_len", "eval_every", "patience"])
def test_non_positive_hp_value_exit_1(synth_dir, tmp_path, capsys, key):
    assert train_si_with(synth_dir, tmp_path, {**TRAIN_CFG, f"hp.{key}": 0}) == 1
    assert f"{key} must be >= 1, got 0" in capsys.readouterr().err
    assert not (tmp_path / "o" / "model-si.spfg").exists()


@pytest.mark.parametrize("key,value", [
    pytest.param("hp.lr", "x", id="lr-string"),
    pytest.param("hp.batch_size", 2.5, id="batch_size-float"),
    pytest.param("hp.steps", "3", id="steps-string"), pytest.param("hp.lr", True, id="lr-bool"),
    pytest.param("synth.span_rate", "x", id="span_rate-string"),
    pytest.param("synth.sentence_length", [5], id="sentence_length-one-int"),
    pytest.param("synth.sentence_length", 7, id="sentence_length-int"),
    pytest.param("synth.sentences_per_article", [3], id="sentences_per_article-one-int"),
    pytest.param("synth.sentence_length", [9, 5], id="sentence_length-descending")])
def test_config_value_of_the_wrong_type_exit_1(synth_dir, tmp_path, capsys, key, value):
    # each ended in a runtime error (exit 2) once, and [9, 5] was accepted
    if key.startswith("hp."):
        code = train_si_with(synth_dir, tmp_path, {**TRAIN_CFG, key: value})
    else:
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({key: value}))
        code = run(["gen-synth", "--seed", "7", "--config", str(cfg),
                    "--out", str(tmp_path / "o")])
    assert code == 1
    assert key.split(".")[1] in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_integer_for_a_float_config_key_is_accepted(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"synth.span_rate": 1, "synth.n_train": 2, "synth.n_dev": 1,
                               "synth.n_pool": 0}))
    assert run(["gen-synth", "--seed", "7", "--config", str(cfg),
                "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("span_cls", [False, True])
@pytest.mark.parametrize("max_seq_len", [1, 2, 3, 4])
def test_tc_window_too_short_for_markers_exit_1(synth_dir, tmp_path, capsys, max_seq_len,
                                                span_cls):
    # once exit 1 with "span range (0, -3) outside window" or "empty or out-of-range span"
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({**TRAIN_CFG, "hp.max_seq_len": max_seq_len}))
    argv = ["train-tc", "--seed", "1", "--config", str(cfg), *split_args(synth_dir, "tc"),
            "--out", str(tmp_path / "o")]
    assert run(argv + ["--span-cls"] * span_cls) == 1
    assert "max_seq_len must be >= 5 for span classification" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key", ["vocab_size", "max_positions", "dropout",
                                 "attention_dropout"])
def test_encoder_key_without_effect_exit_1(synth_dir, tmp_path, capsys, key):
    # the vocabulary comes from the data, the positions from hp.max_seq_len and
    # the dropout rates from hp.*, so these keys would be recorded but not used
    assert train_si_with(synth_dir, tmp_path, {**TRAIN_CFG, f"encoder.{key}": 1}) == 1
    assert f"'{key}'" in capsys.readouterr().err
    assert not (tmp_path / "o" / "model-si.spfg").exists()


@pytest.mark.parametrize("task,row,reason", [
    ("si", "1\t0", "expected 3 tab-separated fields"),
    ("tc", "1\tNo_Such_Technique\t0\t5", "unknown technique 'No_Such_Technique'"),
    ("si", "1\t5\t5", "bad offsets (5, 5)"),
    ("tc", "1\t{technique}\t9\t3", "bad offsets (9, 3)"),
])
def test_score_malformed_row_names_file_and_line(synth_dir, tmp_path, capsys,
                                                 task, row, reason):
    gold = synth_dir / "dev" / f"labels-{task}.tsv"
    techniques = synth_dir / "techniques.txt"
    row = row.format(technique=techniques.read_text().splitlines()[0])
    pred = tmp_path / "pred.tsv"
    pred.write_text(gold.read_text().splitlines()[0] + "\n" + row + "\n")
    code = run(["score", "--task", task, "--pred", str(pred), "--gold", str(gold),
                "--techniques", str(techniques), "--out", str(tmp_path / "o")])
    assert code == 1
    assert f"{pred}: line 2: {reason}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["score", "analyze"])
def test_tc_alignment_errors_exit_1(synth_dir, tmp_path, capsys, command):
    # score and analyze --task tc both pair each gold span with its prediction,
    # so a prediction at offsets no gold span has is bad input
    gold = synth_dir / "dev" / "labels-tc.tsv"
    rows = gold.read_text().splitlines()
    aid, name, start, end = rows[0].split("\t")
    extra = (aid, int(start), int(end) + 1)
    assert extra not in {(a, int(s), int(e)) for a, _, s, e in (r.split("\t") for r in rows)}
    pred = tmp_path / "pred.tsv"
    pred.write_text("".join(row + "\n" for row in rows + [f"{aid}\t{name}\t{start}\t{extra[2]}"]))
    argv = [command, "--task", "tc", "--gold", str(gold), "--out", str(tmp_path / "o")]
    if command == "analyze":
        argv += ["--articles", str(synth_dir / "dev" / "articles")]
    techniques = ["--techniques", str(synth_dir / "techniques.txt")]
    assert run(argv + ["--pred", str(gold)]) == 1
    assert "--techniques is required" in capsys.readouterr().err
    assert run(argv + ["--pred", str(pred)] + techniques) == 1
    assert f"1 predicted spans match no gold span (first: {extra!r})" in capsys.readouterr().err
    assert not (tmp_path / "o" / "runs.jsonl").exists()
    assert run(argv + ["--pred", str(gold)] + techniques) == 0


def test_tc_gold_span_without_prediction_scored_as_missed(synth_dir, tc_models, tmp_path,
                                                          capsys):
    # annotate skips a dev span over a space, which covers no token; score and
    # analyze then score it as missed and count it
    techniques = read_techniques(synth_dir / "techniques.txt")
    dev = synth_dir / "dev" / "articles"
    aid, text = sorted(read_articles(dev).items())[0]
    gap = text.index(" ")
    gold_spans = read_spans_tsv(synth_dir / "dev" / "labels-tc.tsv", "tc", techniques)
    gold_spans.append(Span(aid, gap, gap + 1, 0))
    gold_tc, gold_si = tmp_path / "labels-tc.tsv", tmp_path / "labels-si.tsv"
    write_spans_tsv(gold_tc, gold_spans, techniques)
    write_spans_tsv(gold_si, gold_spans)
    assert run(["annotate", "--task", "tc", "--model", str(tc_models[0]), "--pool", str(dev),
                "--labels", str(gold_si), "--out", str(tmp_path / "ann")]) == 0
    pred = tmp_path / "ann" / "silver-tc.tsv"
    predicted = {(p.article_id, p.start, p.end): p.technique
                 for p in read_spans_tsv(pred, "tc", techniques)}
    assert len(predicted) == len(gold_spans) - 1
    common = ["--task", "tc", "--pred", str(pred), "--gold", str(gold_tc),
              "--techniques", str(synth_dir / "techniques.txt")]
    capsys.readouterr()
    assert run(["score", *common, "--out", str(tmp_path / "score")]) == 0
    assert "1 without a prediction (scored as missed)" in capsys.readouterr().out
    assert run(["analyze", *common, "--articles", str(dev), "--out", str(tmp_path / "an")]) == 0
    assert "1 gold spans without a prediction (scored 0.0)" in capsys.readouterr().out
    report = json.loads((tmp_path / "score" / "score.json").read_text())
    assert report["unpredicted_spans"] == 1
    for name in ("score", "an"):
        record = json.loads((tmp_path / name / "runs.jsonl").read_text())
        assert record["meta"]["unpredicted_spans"] == 1
    # a wrong label in micro-F1, not identified, and no confusion-matrix entry
    labels = [predicted.get((g.article_id, g.start, g.end)) for g in gold_spans]
    hits = sum(lab == g.technique for lab, g in zip(labels, gold_spans))
    assert report["micro_f1"] == hits / len(gold_spans)
    assert report["outcomes"]["Overall"]["count"] == len(gold_spans)
    assert report["outcomes"]["Overall"]["missed"] == 100.0 / len(gold_spans)
    answered = [(lab, g.technique) for lab, g in zip(labels, gold_spans) if lab is not None]
    want = confusion_matrix(*zip(*answered), len(techniques))
    assert report["confusion_matrix"] == want.tolist()


def test_help_prints_both_profiles(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "desk scale" in out and "--paper-scale" in out
    assert "5e-4" in out and "60k" in out


@pytest.mark.parametrize("ratio", ["1:0", "-1:4"])
@pytest.mark.parametrize("command", ["self-train", "train-tc"])
def test_non_positive_gold_silver_ratio_exit_1(synth_dir, si_model, train_cfg_path, tmp_path,
                                               capsys, command, ratio):
    # 1:0 once trained the base tagger, then died dividing by zero (exit 2)
    task = "tc" if command == "train-tc" else "si"
    source = ["--pool", str(synth_dir / "pool" / "articles")]
    if task == "tc":
        source += ["--si-model", str(si_model)]
    out = tmp_path / "o"
    assert run([command, "--seed", "1", *split_args(synth_dir, task), *source,
                "--config", str(train_cfg_path), f"--gold-silver-ratio={ratio}",
                "--out", str(out)]) == 1
    assert f"--gold-silver-ratio parts must be positive, got '{ratio}'" in \
        capsys.readouterr().err
    assert not list(out.glob("*.spfg"))


@pytest.mark.parametrize("command", ["train-si", "train-tc", "self-trained train-tc",
                                     "self-train", "cv", "analyze", "annotate si",
                                     "annotate tc", "ensemble"])
def test_run_config_hashes_the_data_it_read(synth_dir, si_model, tc_models, train_cfg_path,
                                            tmp_path, command):
    """A copy of the corpus in another directory gives the same config hash;
    the seed-8 corpus gives another, and so does, for analyze, one changed
    article under the same span files."""
    copy, other = tmp_path / "copy", tmp_path / "other"
    shutil.copytree(synth_dir, copy)
    if command == "analyze":
        shutil.copytree(synth_dir, other)
        article = sorted((other / "dev" / "articles").iterdir())[0]
        text = article.read_text()
        article.write_text(text.replace(text[0], "x" if text[0] != "x" else "y", 1))
    else:
        assert run(["gen-synth", "--seed", "8", "--config", str(synth_dir.parent / "synth.json"),
                    "--out", str(other)]) == 0
    gold = synth_dir / "dev" / "labels-si.tsv"
    hashes = {}
    for name, data in (("same", synth_dir), ("copy", copy), ("other", other)):
        train = ["--seed", "1", "--steps", "0", "--config", str(train_cfg_path)]
        argv = {"train-si": ["train-si", *train, *split_args(data, "si")],
                "train-tc": ["train-tc", *train, *split_args(data, "tc")],
                "self-trained train-tc": ["train-tc", *train, *split_args(data, "tc"),
                                          "--pool", str(data / "pool" / "articles"),
                                          "--si-model", str(si_model)],
                "self-train": ["self-train", *train, "--iterations", "1",
                               *split_args(data, "si"), "--pool", str(data / "pool" / "articles")],
                "cv": ["cv", *train, "--k", "2", *split_args(data, "tc")],
                "analyze": ["analyze", "--task", "si", "--articles", str(data / "dev" / "articles"),
                            "--pred", str(gold), "--gold", str(gold)],
                "annotate si": ["annotate", "--task", "si", "--model", str(si_model),
                                "--pool", str(data / "pool" / "articles")],
                "annotate tc": ["annotate", "--task", "tc", "--model", str(tc_models[0]),
                                "--pool", str(data / "dev" / "articles"),
                                "--labels", str(data / "dev" / "labels-si.tsv")],
                "ensemble": ["ensemble", "--models", ",".join(map(str, tc_models)),
                             "--articles", str(data / "dev" / "articles"),
                             "--labels", str(data / "dev" / "labels-tc.tsv"),
                             "--techniques", str(data / "techniques.txt")]}[command]
        out = tmp_path / f"out-{name}"
        assert run([*argv, "--out", str(out)]) == 0
        hashes[name] = json.loads((out / "runs.jsonl").read_text().splitlines()[0])["config_hash"]
    assert hashes["same"] == hashes["copy"] != hashes["other"]


def test_every_record_keeps_its_invariants(synth_dir, si_model, tc_models, train_cfg_path,
                                           tmp_path):
    """Each command's record: its seed is the config's, its hash is that of
    the canonical config, it names a checkpoint exactly when the command saved
    one, and it names the OpenBLAS thread count."""
    dev = synth_dir / "dev"
    gold_si, gold_tc = str(dev / "labels-si.tsv"), str(dev / "labels-tc.tsv")
    techniques = ["--techniques", str(synth_dir / "techniques.txt")]
    train = ["--seed", "1", "--steps", "1", "--config", str(train_cfg_path)]
    runs = {"train-si": ["train-si", *train, *split_args(synth_dir, "si")],
            "train-tc": ["train-tc", *train, *split_args(synth_dir, "tc")],
            "self-train": ["self-train", *train, "--iterations", "1", *split_args(synth_dir, "si"),
                           "--pool", str(synth_dir / "pool" / "articles")],
            "cv": ["cv", *train, "--k", "2", *split_args(synth_dir, "tc")],
            "annotate": ["annotate", "--task", "si", "--model", str(si_model),
                         "--pool", str(dev / "articles")],
            "ensemble": ["ensemble", "--models", ",".join(map(str, tc_models)),
                         "--articles", str(dev / "articles"), "--labels", gold_tc, *techniques],
            "score": ["score", "--task", "tc", "--pred", gold_tc, "--gold", gold_tc, *techniques],
            "analyze": ["analyze", "--task", "si", "--articles", str(dev / "articles"),
                        "--pred", gold_si, "--gold", gold_si]}
    records = [json.loads((synth_dir / "runs.jsonl").read_text().splitlines()[0])]
    for name, argv in runs.items():
        assert run([*argv, "--out", str(tmp_path / name)]) == 0
        records += [json.loads(line)
                    for line in (tmp_path / name / "runs.jsonl").read_text().splitlines()]
    assert [r["command"] for r in records] == [
        "gen-synth", "train-si", "train-tc", "self-train[0]", "self-train[1]", "cv",
        "annotate", "ensemble", "score", "analyze"]
    for r in records:
        canonical = json.dumps(r["config"], sort_keys=True, separators=(",", ":"))
        assert r["config_hash"] == hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
        assert r["seed"] == r["config"]["seed"]
        assert r["config"]["command"] == r["command"].split("[")[0]
        saved = r["command"].startswith(("train-", "self-train"))
        assert (r["checkpoint"] is not None) == saved, r["command"]
        assert not saved or Path(r["checkpoint"]).is_file()
        assert "blas_threads" in r


def test_paper_scale_flag_swaps_table_values(synth_dir, tmp_path):
    # steps overridden to keep the run tiny; the other paper values must land
    # verbatim in the effective config
    out = tmp_path / "ps"
    code = run(["train-si", "--seed", "1", "--paper-scale", "--steps", "5",
                "--articles", str(synth_dir / "train" / "articles"),
                "--labels", str(synth_dir / "train" / "labels-si.tsv"),
                "--dev-articles", str(synth_dir / "dev" / "articles"),
                "--dev-labels", str(synth_dir / "dev" / "labels-si.tsv"),
                "--out", str(out)])
    assert code == 0
    record = json.loads((out / "runs.jsonl").read_text().splitlines()[0])
    hp = record["config"]["hp"]
    assert hp["lr"] == 5e-4 and hp["batch_size"] == 8
    assert hp["momentum"] == 0.9 and hp["optimizer"] == "sgd"
    assert hp["dropout"] == 0.1 and hp["max_seq_len"] == 256


CORRUPTIONS = {
    "header_length": lambda raw: raw[:len(MAGIC) + 2],
    "header_past_end": lambda raw: (raw[:len(MAGIC)] + struct.pack("<Q", len(raw))
                                    + raw[len(MAGIC) + 8:]),
    "dtype_code": lambda raw: raw.replace(b'"<f4"', b'"<i9"'),
    "payload": lambda raw: raw[:-4],
}


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_corrupt_checkpoint_exit_1(tmp_path, capsys, case):
    good = tmp_path / "good.spfg"
    save_checkpoint(good, {"w": np.ones((2, 3), dtype=np.float32)}, {"kind": "si"})
    bad = tmp_path / "bad.spfg"
    bad.write_bytes(CORRUPTIONS[case](good.read_bytes()))
    code = run(["annotate", "--task", "si", "--model", str(bad),
                "--pool", str(tmp_path), "--out", str(tmp_path / "o")])
    assert code == 1
    assert f"{bad}: corrupt checkpoint" in capsys.readouterr().err


def test_encoder_config_changes_config_hash(synth_dir, tmp_path):
    records = []
    for hidden in (16, 8):
        cfg = tmp_path / f"h{hidden}.json"
        cfg.write_text(json.dumps({**TRAIN_CFG, "encoder.hidden_size": hidden}))
        out = tmp_path / f"h{hidden}"
        assert run(["train-si", "--seed", "1", "--steps", "1",
                    "--articles", str(synth_dir / "train" / "articles"),
                    "--labels", str(synth_dir / "train" / "labels-si.tsv"),
                    "--dev-articles", str(synth_dir / "dev" / "articles"),
                    "--dev-labels", str(synth_dir / "dev" / "labels-si.tsv"),
                    "--config", str(cfg), "--out", str(out)]) == 0
        records.append(json.loads((out / "runs.jsonl").read_text().splitlines()[0]))
    assert [r["config"]["encoder"]["hidden_size"] for r in records] == [16, 8]
    assert all(set(r["config"]["encoder"]) == {"hidden_size", "layers", "heads",
                                               "intermediate_size"} for r in records)
    assert records[0]["config_hash"] != records[1]["config_hash"]


def test_manifest_hashes_checkpoint_contents(synth_dir, si_model, tc_models, tmp_path):
    """The same checkpoints in two directories give one config hash; other
    checkpoints give another."""
    tc_eval = ["--articles", str(synth_dir / "dev" / "articles"),
               "--labels", str(synth_dir / "dev" / "labels-tc.tsv"),
               "--techniques", str(synth_dir / "techniques.txt")]
    hashes = {}
    for where in ("a", "b"):
        copies = []
        for src in (si_model, *tc_models):
            copies.append(tmp_path / where / src.parent.name / src.name)
            copies[-1].parent.mkdir(parents=True)
            copies[-1].write_bytes(src.read_bytes())
        si, *tcs = copies
        runs = {"annotate": ["annotate", "--task", "si", "--model", str(si),
                             "--pool", str(synth_dir / "pool" / "articles")],
                "ensemble": ["ensemble", "--models", ",".join(map(str, tcs)), *tc_eval],
                "ensemble-0": ["ensemble", "--models", str(tcs[0]), *tc_eval],
                "ensemble-1": ["ensemble", "--models", str(tcs[1]), *tc_eval]}
        for name, argv in runs.items():
            out = tmp_path / f"out-{where}-{name}"
            assert run([*argv, "--out", str(out)]) == 0
            record = json.loads((out / "runs.jsonl").read_text())
            hashes[where, name] = record["config_hash"]
        assert record["meta"]["models"] == [str(tcs[1])]  # the paths stay in the record
    for name in runs:
        assert hashes["a", name] == hashes["b", name]
    assert hashes["a", "ensemble-0"] != hashes["a", "ensemble-1"]


@pytest.mark.parametrize("command", ["score", "analyze"])
def test_manifest_hashes_span_file_contents(synth_dir, tmp_path, command):
    """The same ``--pred``/``--gold`` files in two directories give one config
    hash; a changed ``--pred`` gives another."""
    gold = synth_dir / "dev" / "labels-si.tsv"
    rows = gold.read_text().splitlines(keepends=True)
    hashes = {}
    for where, pred_rows in (("a", rows), ("b", rows), ("changed", rows[1:])):
        (tmp_path / where).mkdir()
        pred, copy = tmp_path / where / "pred.tsv", tmp_path / where / "gold.tsv"
        pred.write_text("".join(pred_rows))
        copy.write_bytes(gold.read_bytes())
        argv = [command, "--task", "si", "--pred", str(pred), "--gold", str(copy),
                "--out", str(tmp_path / where / "out")]
        if command == "analyze":
            argv += ["--articles", str(synth_dir / "dev" / "articles")]
        assert run(argv) == 0
        record = json.loads((tmp_path / where / "out" / "runs.jsonl").read_text())
        hashes[where] = record["config_hash"]
        assert record["meta"] == {"pred": str(pred), "gold": str(copy)}
    assert hashes["a"] == hashes["b"] != hashes["changed"]


def test_score_tc_writes_outcomes_tsv(synth_dir, tmp_path):
    gold = synth_dir / "dev" / "labels-tc.tsv"
    out = tmp_path / "sc"
    assert run(["score", "--task", "tc", "--pred", str(gold), "--gold", str(gold),
                "--techniques", str(synth_dir / "techniques.txt"),
                "--out", str(out)]) == 0
    lines = (out / "outcomes.tsv").read_text().splitlines()
    assert lines[0].startswith("technique\t")
    assert lines[-1].startswith("Overall\t")


def test_tc_commands_count_truncated_and_skipped_spans(synth_dir, tmp_path, capsys):
    # a span over a whole article outgrows a 12-token window; one over a space covers no token
    techniques = read_techniques(synth_dir / "techniques.txt")
    articles = read_articles(synth_dir / "train" / "articles")
    aid, text = sorted(articles.items())[0]
    gap = text.index(" ")
    spans = read_spans_tsv(synth_dir / "train" / "labels-tc.tsv", "tc", techniques)
    spans += [Span(aid, 0, len(text), 0), Span(aid, gap, gap + 1, 1)]
    labels = tmp_path / "labels-tc.tsv"
    write_spans_tsv(labels, spans, techniques)
    budget = 12 - pl.MARKER_OVERHEAD
    tokenized = {a: tokenize(t) for a, t in articles.items()}
    ranges = [span_token_range(tokenized[sp.article_id], sp) for sp in spans[:-1]]
    truncated = sum(stop - first > budget for first, stop in ranges)
    assert truncated >= 1
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**TRAIN_CFG, "hp.max_seq_len": 12, "hp.steps": 2}))
    common = ["--articles", str(synth_dir / "train" / "articles"), "--labels", str(labels),
              "--dev-articles", str(synth_dir / "dev" / "articles"),
              "--dev-labels", str(synth_dir / "dev" / "labels-tc.tsv"),
              "--techniques", str(synth_dir / "techniques.txt"), "--config", str(cfg)]
    assert run(["train-tc", "--seed", "1", *common, "--out", str(tmp_path / "tc")]) == 0
    assert run(["cv", "--seed", "1", "--k", "2", *common, "--out", str(tmp_path / "cv")]) == 0
    counts = {"truncated_spans": truncated, "skipped_spans": 1}
    for name in ("tc", "cv"):
        record = json.loads((tmp_path / name / "runs.jsonl").read_text())
        assert record["meta"]["tc_items"]["train"] == counts
        assert record["meta"]["tc_items"]["dev"]["skipped_spans"] == 0
    capsys.readouterr()
    si_labels = tmp_path / "labels-si.tsv"
    write_spans_tsv(si_labels, spans)
    out = tmp_path / "annotate"
    assert run(["annotate", "--task", "tc", "--model", str(tmp_path / "tc" / "model-tc.spfg"),
                "--pool", str(synth_dir / "train" / "articles"), "--labels", str(si_labels),
                "--out", str(out)]) == 0
    assert (f"classified {len(spans) - 1} spans -> {out / 'silver-tc.tsv'} "
            f"({truncated} truncated to {budget} tokens, 1 skipped for covering no token)"
            in capsys.readouterr().out)
    record = json.loads((out / "runs.jsonl").read_text())
    assert record["meta"]["tc_items"]["pool"] == counts
    assert len(read_spans_tsv(out / "silver-tc.tsv", "tc", techniques)) == len(spans) - 1


@pytest.mark.parametrize("labels_case", ["empty", "whitespace-span"])
def test_annotate_tc_with_no_classifiable_span_writes_an_empty_file(
        synth_dir, tc_models, tmp_path, capsys, labels_case):
    # no span covers a token: the skipped-span policy applies, as it does to one span
    articles = synth_dir / "dev" / "articles"
    aid, text = sorted(read_articles(articles).items())[0]
    gap = text.index(" ")
    spans = [] if labels_case == "empty" else [Span(aid, gap, gap + 1)]
    labels = tmp_path / "labels-si.tsv"
    write_spans_tsv(labels, spans)
    out = tmp_path / "annotate"
    capsys.readouterr()
    assert run(["annotate", "--task", "tc", "--model", str(tc_models[0]), "--pool",
                str(articles), "--labels", str(labels), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert printed.startswith(f"classified 0 spans -> {out / 'silver-tc.tsv'} (0 truncated")
    assert f", {len(spans)} skipped for covering no token)" in printed
    assert (out / "silver-tc.tsv").read_bytes() == b""
    record = json.loads((out / "runs.jsonl").read_text())
    assert record["meta"]["tc_items"]["pool"] == {"truncated_spans": 0,
                                                  "skipped_spans": len(spans)}


def test_self_trained_train_tc_counts_silver_spans(synth_dir, tmp_path):
    # a tagger that tags every token B or I finds each 12-token window as one span,
    # which outgrows the 8-token budget of a 12-token TC window whenever it is longer
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**TRAIN_CFG, "hp.max_seq_len": 12, "hp.steps": 0}))
    assert run(["train-si", "--seed", "1", *split_args(synth_dir, "si"), "--config", str(cfg),
                "--out", str(tmp_path / "si")]) == 0
    tagger = SiTagger.load(tmp_path / "si" / "model-si.spfg")
    tagger.emission_head.params["emit.w"].data[:] = 0
    tagger.emission_head.params["emit.b"].data[:] = np.array([0.0, 5.0, 10.0])  # O, B, I
    si_model = tmp_path / "tagger.spfg"
    tagger.save(si_model)
    pool = read_articles(synth_dir / "pool" / "articles")
    tokenized = {aid: tokenize(text) for aid, text in pool.items()}
    spans = pl.predict_spans(tagger, tokenized, 12)
    truncated = sum(stop - first > 12 - pl.MARKER_OVERHEAD for first, stop in
                    (span_token_range(tokenized[sp.article_id], sp) for sp in spans))
    assert truncated >= 1

    cfg.write_text(json.dumps({**TRAIN_CFG, "hp.max_seq_len": 12, "hp.steps": 2}))
    out = tmp_path / "tc"
    assert run(["train-tc", "--seed", "1", *split_args(synth_dir, "tc"), "--config", str(cfg),
                "--pool", str(synth_dir / "pool" / "articles"), "--si-model", str(si_model),
                "--out", str(out)]) == 0
    record = json.loads((out / "runs.jsonl").read_text())
    assert record["meta"]["tc_items"]["silver"] == {"truncated_spans": truncated,
                                                    "skipped_spans": 0}
    assert record["meta"]["silver_items"] == len(spans)


def test_outputs_identical_with_openblas_threads_unset_and_one(tmp_path):
    """``main`` runs OpenBLAS at one thread unless ``OPENBLAS_NUM_THREADS``
    names a count, so an unset variable writes the bytes of a pinned run.
    Desk encoder and article shapes, where a second BLAS thread changes sums."""
    if pl.blas_threads() is None:
        pytest.skip("numpy's OpenBLAS exports no known thread-count getter")
    config = tmp_path / "synth.json"
    config.write_text(json.dumps({"synth.n_train": 30, "synth.n_dev": 10, "synth.n_pool": 1}))
    data = tmp_path / "data"
    assert run(["gen-synth", "--seed", "7", "--out", str(data), "--config", str(config)]) == 0
    commands = {"si": ["train-si", "--seed", "3", "--steps", "500", *split_args(data, "si")]}
    for head in ("marker", "span_cls"):
        commands[head] = ["train-tc", "--seed", "3", "--steps", "40", *split_args(data, "tc"),
                          *(["--reweight", "--span-cls"] if head == "span_cls" else [])]
    outputs = {}
    for setting in (None, "1"):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
        if setting:
            env["OPENBLAS_NUM_THREADS"] = setting
        for name, argv in commands.items():
            out = tmp_path / f"{setting}" / name
            proc = subprocess.run([sys.executable, "-m", "propspan.cli", *argv, "--out", str(out)],
                                  env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            record = json.loads((out / "runs.jsonl").read_text())
            model = "model-si.spfg" if name == "si" else "model-tc.spfg"
            outputs[setting, name] = [(out / model).read_bytes(), record["eval_trace"],
                                      record["blas_threads"]]
    for name in commands:
        assert outputs[None, name] == outputs["1", name], name



@pytest.mark.parametrize("lookup", ["no_symbol", "no_library"])
def test_runs_where_the_mallopt_lookup_fails(synth_dir, train_cfg_path, tmp_path,
                                            monkeypatch, lookup):
    """``main`` skips the allocator policy where libc offers no ``mallopt`` and
    writes the bytes it writes with the policy: it moves memory, not arithmetic."""
    argv = ["train-tc", "--seed", "3", "--steps", "6", "--reweight", "--span-cls",
            *split_args(synth_dir, "tc"), "--config", str(train_cfg_path), "--out"]
    cdll = ctypes.CDLL

    def libc_without_mallopt(name, *args, **kwargs):
        if name is not None:  # numpy's OpenBLAS
            return cdll(name, *args, **kwargs)
        if lookup == "no_library":
            raise OSError("no libc to load")
        return SimpleNamespace()

    outputs = []
    for out in ("kept", "skipped"):
        if out == "skipped":
            monkeypatch.setattr(ctypes, "CDLL", libc_without_mallopt)
        assert run([*argv, str(tmp_path / out)]) == 0
        record = json.loads((tmp_path / out / "runs.jsonl").read_text())
        outputs.append([(tmp_path / out / "model-tc.spfg").read_bytes(),
                        record["eval_trace"], record["config_hash"]])
    assert outputs[0] == outputs[1]
