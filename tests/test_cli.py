import json


import pytest

from propspan.cli import main


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
        code = run(["self-train", "--task", "si", "--seed", "2", "--iterations", "2",
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
    def test_ensemble_enumerate(self, synth_dir, tc_models, tmp_path, capsys):
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

    def test_train_tc_self_train_without_pool_fails(self, synth_dir, tmp_path):
        code = run(["train-tc", "--seed", "1", "--self-train",
                    "--articles", str(synth_dir / "train" / "articles"),
                    "--labels", str(synth_dir / "train" / "labels-tc.tsv"),
                    "--dev-articles", str(synth_dir / "dev" / "articles"),
                    "--dev-labels", str(synth_dir / "dev" / "labels-tc.tsv"),
                    "--techniques", str(synth_dir / "techniques.txt"),
                    "--out", str(tmp_path / "x")])
        assert code == 1


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


def test_unknown_hp_key_exit_1(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"hp.warp_speed": 9}))
    code = main(["train-si", "--seed", "1", "--articles", "x", "--labels", "y",
                 "--dev-articles", "z", "--dev-labels", "w",
                 "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "warp_speed" in capsys.readouterr().err


def test_train_si_rejects_bce_loss(synth_dir, tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"hp.loss": "bce"}))
    code = run(["train-si", "--seed", "1", "--config", str(cfg),
                "--articles", str(synth_dir / "train" / "articles"),
                "--labels", str(synth_dir / "train" / "labels-si.tsv"),
                "--dev-articles", str(synth_dir / "dev" / "articles"),
                "--dev-labels", str(synth_dir / "dev" / "labels-si.tsv"),
                "--out", str(tmp_path / "o")])
    assert code == 1
    assert "'bce'" in capsys.readouterr().err
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


def test_score_tc_without_techniques_exit_1(synth_dir, tmp_path, capsys):
    gold = synth_dir / "dev" / "labels-tc.tsv"
    code = run(["score", "--task", "tc", "--pred", str(gold), "--gold", str(gold),
                "--out", str(tmp_path / "o")])
    assert code == 1
    assert "--techniques" in capsys.readouterr().err


def test_help_prints_both_profiles(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "desk scale" in out and "--paper-scale" in out
    assert "5e-4" in out and "60k" in out


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


def test_runtime_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "model.spfg"
    bad.write_bytes(b"SPFG1\n\xff\xff")  # valid magic, truncated header length
    code = run(["annotate", "--task", "si", "--model", str(bad),
                "--pool", str(tmp_path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "runtime error" in capsys.readouterr().err


def test_score_tc_writes_outcomes_tsv(synth_dir, tmp_path):
    gold = synth_dir / "dev" / "labels-tc.tsv"
    out = tmp_path / "sc"
    assert run(["score", "--task", "tc", "--pred", str(gold), "--gold", str(gold),
                "--techniques", str(synth_dir / "techniques.txt"),
                "--out", str(out)]) == 0
    lines = (out / "outcomes.tsv").read_text().splitlines()
    assert lines[0].startswith("technique\t")
    assert lines[-1].startswith("Overall\t")
