"""The fork-based ``parallel_map`` and its two callers, ``cross_validate`` and
``predict_tc_probs``: outputs are identical for every usable CPU count,
results come back in task order even when workers finish first, errors keep
their exit codes, and no worker outlives a call.

The CPU count is set by patching ``pipeline._usable_cpus``, or with
``os.sched_setaffinity`` in a subprocess. Several tests slow down the calling
process's own share, so that a worker finishes first and any mix-up of
completion order and task order shows in the output.
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from propspan import pipeline as pl
from propspan.cli import main
from propspan.datasets import load_dataset
from propspan.models import TcClassifier

SRC = Path(__file__).resolve().parent.parent / "src"
CALLER = os.getpid()  # the test process; forked workers have other pids

TRAIN_CFG = {"hp.steps": 12, "hp.eval_every": 6, "hp.max_seq_len": 32,
             "encoder.hidden_size": 16, "encoder.layers": 1, "encoder.heads": 2,
             "encoder.intermediate_size": 24}


@pytest.fixture(autouse=True)
def no_worker_survives():
    yield
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):  # no child left, running or unreaped
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def cpus(monkeypatch):
    def set_cpus(n: int) -> None:
        monkeypatch.setattr(pl, "_usable_cpus", lambda: n)
    return set_cpus


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    config = out / "synth.json"
    config.write_text(json.dumps({
        "synth.n_train": 16, "synth.n_dev": 16, "synth.n_pool": 0,
        "synth.technique_count": 3, "synth.sentences_per_article": [2, 3],
        "synth.sentence_length": [5, 8], "synth.span_rate": 1.0}))
    assert main(["gen-synth", "--seed", "7", "--out", str(out / "data"),
                 "--config", str(config)]) == 0
    cfg = out / "train.json"
    cfg.write_text(json.dumps(TRAIN_CFG))
    return out / "data", cfg


def cv_argv(corpus, out: Path, k: int) -> list[str]:
    data, cfg = corpus
    return ["cv", "--seed", "4", "--k", str(k), "--reweight", "--span-cls",
            "--articles", str(data / "train" / "articles"),
            "--labels", str(data / "train" / "labels-tc.tsv"),
            "--dev-articles", str(data / "dev" / "articles"),
            "--dev-labels", str(data / "dev" / "labels-tc.tsv"),
            "--techniques", str(data / "techniques.txt"),
            "--config", str(cfg), "--out", str(out)]


def slow_in_caller(monkeypatch, name: str, seconds: float = 0.3) -> None:
    """Make ``pl.<name>`` sleep first when the calling process runs it."""
    original = getattr(pl, name)

    def slowed(*args, **kwargs):
        if os.getpid() == CALLER:
            time.sleep(seconds)
        return original(*args, **kwargs)
    monkeypatch.setattr(pl, name, slowed)


def in_worker(monkeypatch, name: str, action) -> None:
    """Run ``action`` in place of ``pl.<name>`` in forked workers only."""
    original = getattr(pl, name)

    def patched(*args, **kwargs):
        if os.getpid() != CALLER:
            return action(original, *args, **kwargs)
        return original(*args, **kwargs)
    monkeypatch.setattr(pl, name, patched)


# -- parallel_map ------------------------------------------------------------------

def tagged(x):
    if os.getpid() == CALLER:
        time.sleep(0.05)  # the workers finish their shares first
    return x * x, os.getpid()


@pytest.mark.parametrize("n_cpus", [2, 3])
@pytest.mark.parametrize("n_tasks", [2, 5, 7])
def test_results_in_task_order_with_round_robin_shares(cpus, n_cpus, n_tasks):
    cpus(n_cpus)
    results = pl.parallel_map(tagged, range(n_tasks))
    assert [r for r, _ in results] == [x * x for x in range(n_tasks)]
    n = min(n_tasks, n_cpus)
    pids = [pid for _, pid in results]
    for w in range(n):
        assert len(set(pids[w::n])) == 1  # worker w ran tasks[w::n]
    assert pids[0] == CALLER
    assert len(set(pids)) == n


def test_serial_with_one_cpu_and_when_nested(cpus):
    cpus(1)
    assert {pid for _, pid in pl.parallel_map(tagged, range(4))} == {CALLER}
    cpus(2)
    inner = pl.parallel_map(lambda _: pl.parallel_map(lambda y: os.getpid(), range(3)),
                            range(2))
    assert [len(set(pids)) for pids in inner] == [1, 1]
    assert inner[0][0] == CALLER != inner[1][0]


def test_worker_exception_keeps_its_type(cpus):
    cpus(2)

    def fail_in_worker(x):
        if x == 1:
            raise ValueError(f"bad task {x}")
        return x
    with pytest.raises(ValueError, match="bad task 1"):
        pl.parallel_map(fail_in_worker, range(4))


class TwoArgError(Exception):
    def __init__(self, a, b):
        super().__init__(f"{a}/{b}")


def test_exception_that_cannot_be_sent_becomes_runtime_error(cpus):
    cpus(2)

    def fail(x):
        if x == 1:
            raise TwoArgError("a", "b")
        return x
    with pytest.raises(RuntimeError, match="TwoArgError: a/b"):
        pl.parallel_map(fail, range(2))


def test_killed_worker_raises_runtime_error(cpus):
    cpus(2)

    def die(x):
        if x == 1:
            os.kill(os.getpid(), signal.SIGKILL)
        return x
    with pytest.raises(RuntimeError, match="exited with code -9 and no result"):
        pl.parallel_map(die, range(2))


def test_callers_exception_stops_the_workers(cpus):
    cpus(2)

    def work(x):
        if x == 0:
            raise KeyError("caller's share")
        time.sleep(60)
    start = time.perf_counter()
    with pytest.raises(KeyError):
        pl.parallel_map(work, range(2))
    assert time.perf_counter() - start < 30


# -- cross_validate through the CLI -------------------------------------------------

@pytest.mark.parametrize("k", [2, 5])
def test_cv_outputs_identical_for_one_and_two_cpus(corpus, cpus, monkeypatch, tmp_path, k):
    outputs = {}
    for n in (1, 2):
        cpus(n)
        with monkeypatch.context() as m:
            slow_in_caller(m, "train_tc")
            assert main(cv_argv(corpus, tmp_path / f"cpus{n}", k)) == 0
        outputs[n] = [(tmp_path / f"cpus{n}" / name).read_bytes()
                      for name in ("cv.json", "runs.jsonl")]
    scores = json.loads(outputs[1][0])["scores"]
    assert len(scores) == k and len(set(scores)) > 1  # a swapped fold would show
    assert outputs[1] == outputs[2]


def test_cv_output_identical_under_cpu_affinity(corpus, tmp_path):
    """The real CPU lookup: a subprocess restricted to one CPU against an
    unrestricted one (serial too on a one-CPU machine)."""
    cpu = min(os.sched_getaffinity(0))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    for name, preexec in (("one", lambda: os.sched_setaffinity(0, {cpu})), ("all", None)):
        proc = subprocess.run([sys.executable, "-m", "propspan.cli",
                               *cv_argv(corpus, tmp_path / name, 3)],
                              env=env, preexec_fn=preexec, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
    for name in ("cv.json", "runs.jsonl"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "all" / name).read_bytes()


def test_cv_fold_value_error_in_worker_exits_1(corpus, cpus, monkeypatch, tmp_path, capsys):
    cpus(2)

    def bad_input(original, *args, **kwargs):
        raise ValueError("fold input rejected")
    in_worker(monkeypatch, "train_tc", bad_input)
    assert main(cv_argv(corpus, tmp_path / "cv", 2)) == 1
    assert "error: fold input rejected" in capsys.readouterr().err
    assert not (tmp_path / "cv" / "cv.json").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow itself
def test_cv_non_finite_loss_in_worker_exits_2(corpus, cpus, monkeypatch, tmp_path, capsys):
    cpus(2)

    def diverge(original, rest, held, labels, opts, hp, seed, **kwargs):
        return original(rest, held, labels, opts, replace(hp, lr=1e30), seed, **kwargs)
    in_worker(monkeypatch, "train_tc", diverge)
    assert main(cv_argv(corpus, tmp_path / "cv", 2)) == 2
    assert "RuntimeError: non-finite training loss" in capsys.readouterr().err


def test_cv_killed_worker_exits_2(corpus, cpus, monkeypatch, tmp_path, capsys):
    cpus(2)
    in_worker(monkeypatch, "train_tc",
              lambda *args, **kwargs: os.kill(os.getpid(), signal.SIGKILL))
    assert main(cv_argv(corpus, tmp_path / "cv", 2)) == 2
    assert "RuntimeError: parallel_map worker 1 exited with code -9" in \
        capsys.readouterr().err


# -- predict_tc_probs ----------------------------------------------------------------

@pytest.fixture(scope="module")
def tc_model_and_items(corpus, tmp_path_factory):
    data, cfg = corpus
    out = tmp_path_factory.mktemp("tc")
    assert main(["train-tc", "--seed", "3", "--span-cls",
                 "--articles", str(data / "train" / "articles"),
                 "--labels", str(data / "train" / "labels-tc.tsv"),
                 "--dev-articles", str(data / "dev" / "articles"),
                 "--dev-labels", str(data / "dev" / "labels-tc.tsv"),
                 "--techniques", str(data / "techniques.txt"),
                 "--config", str(cfg), "--out", str(out)]) == 0
    model = TcClassifier.load(out / "model-tc.spfg")
    train = load_dataset(data / "train" / "articles", data / "train" / "labels-tc.tsv",
                         "tc", data / "techniques.txt")
    return model, pl.build_tc_items(train, 32)


@pytest.mark.parametrize("n_cpus", [2, 3])
def test_predict_tc_probs_bit_identical_to_serial_batches(tc_model_and_items, cpus,
                                                          monkeypatch, n_cpus):
    model, items = tc_model_and_items
    batch = 4
    assert len(items) > 3 * batch
    serial = []
    for i in range(0, len(items), batch):
        ids, mask, spans = pl._pad_tc_batch(items[i:i + batch], model.vocab, model.head_kind)
        serial.append(model.probs(ids, mask, spans))
    serial = np.concatenate(serial)

    cpus(n_cpus)
    probs = model.probs

    def slowed(*args):
        if os.getpid() == CALLER:
            time.sleep(0.05)
        return probs(*args)
    monkeypatch.setattr(model, "probs", slowed)
    parallel = pl.predict_tc_probs(model, items, batch_size=batch)
    assert parallel.dtype == serial.dtype and parallel.tobytes() == serial.tobytes()


def test_train_tc_and_annotate_identical_for_one_and_two_cpus(corpus, cpus, monkeypatch,
                                                              tmp_path):
    """Dev evaluation and ``annotate --task tc`` classify through ``parallel_map``."""
    data, cfg = corpus
    probs = TcClassifier.probs

    def slowed(*args):
        if os.getpid() == CALLER:
            time.sleep(0.02)
        return probs(*args)
    monkeypatch.setattr(TcClassifier, "probs", slowed)
    outputs = {}
    for n in (1, 2):
        cpus(n)
        out = tmp_path / f"cpus{n}"
        assert main(["train-tc", "--seed", "5", "--reweight", "--span-cls",
                     "--articles", str(data / "train" / "articles"),
                     "--labels", str(data / "train" / "labels-tc.tsv"),
                     "--dev-articles", str(data / "dev" / "articles"),
                     "--dev-labels", str(data / "dev" / "labels-tc.tsv"),
                     "--techniques", str(data / "techniques.txt"),
                     "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["annotate", "--task", "tc", "--model", str(out / "model-tc.spfg"),
                     "--pool", str(data / "train" / "articles"),
                     "--labels", str(data / "train" / "labels-si.tsv"),
                     "--out", str(out / "annotate")]) == 0
        record = json.loads((out / "runs.jsonl").read_text().splitlines()[0])
        outputs[n] = [(out / "model-tc.spfg").read_bytes(),
                      (out / "annotate" / "silver-tc.tsv").read_bytes(),
                      record["eval_trace"]]
    dev = load_dataset(data / "dev" / "articles", data / "dev" / "labels-tc.tsv", "tc",
                       data / "techniques.txt")
    assert len(dev.spans) > 32  # dev evaluation runs more than one batch
    assert outputs[1] == outputs[2]
