"""The fork-based ``parallel_map`` and its callers, ``cross_validate``,
``predict_tc_probs`` and ``predict_spans``, and the two-shard SI training
step with its one worker: outputs are identical for every usable CPU count,
results come back in task order even when workers finish first, the shards'
gradient is the whole batch's, errors keep their exit codes, no worker
outlives a call, and a training run forks at most its one shard worker.

The CPU count is set by patching ``pipeline._usable_cpus``, or with
``os.sched_setaffinity`` in a subprocess. Several tests slow down the calling
process's own share, so that a worker finishes first and any mix-up of
completion order and task order shows in the output.
"""

import json
import multiprocessing
import os
import pickle
import re
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from propspan import pipeline as pl
from propspan import tensor as T
from propspan.cli import main
from propspan.datasets import SpanDataset, load_dataset, read_articles
from propspan.encoder import EncoderConfig
from propspan.models import SiTagger, TcClassifier
from propspan.tokens import Vocab

SRC = Path(__file__).resolve().parent.parent / "src"
CALLER = os.getpid()  # the test process; forked workers have other pids

TRAIN_CFG = {"hp.steps": 12, "hp.eval_every": 6, "hp.max_seq_len": 32,
             "encoder.hidden_size": 16, "encoder.layers": 1, "encoder.heads": 2,
             "encoder.intermediate_size": 24}
SI_CFG = {**TRAIN_CFG, "hp.steps": 40}  # enough for the tagger to find spans


def open_fds() -> list[str] | None:
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


@pytest.fixture(autouse=True)
def no_worker_survives():
    fds = open_fds()
    yield
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):  # no child left, running or unreaped
        os.waitpid(-1, os.WNOHANG)
    assert open_fds() == fds  # no worker's pipe left open


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
        "synth.n_train": 16, "synth.n_dev": 16, "synth.n_pool": 40,
        "synth.technique_count": 3, "synth.sentences_per_article": [2, 3],
        "synth.sentence_length": [5, 8], "synth.span_rate": 1.0}))
    assert main(["gen-synth", "--seed", "7", "--out", str(out / "data"),
                 "--config", str(config)]) == 0
    cfg = out / "train.json"
    cfg.write_text(json.dumps(TRAIN_CFG))
    (out / "si.json").write_text(json.dumps(SI_CFG))
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


def si_argv(corpus, command: str, out: Path) -> list[str]:
    data, cfg = corpus
    return [command, "--seed", "3",
            "--articles", str(data / "train" / "articles"),
            "--labels", str(data / "train" / "labels-si.tsv"),
            "--dev-articles", str(data / "dev" / "articles"),
            "--dev-labels", str(data / "dev" / "labels-si.tsv"),
            "--config", str(cfg.parent / "si.json"), "--out", str(out)]


def annotate_si_argv(corpus, model: Path, out: Path) -> list[str]:
    data, _ = corpus
    return ["annotate", "--task", "si", "--model", str(model),
            "--pool", str(data / "pool" / "articles"), "--out", str(out)]


@pytest.fixture(scope="module")
def si_model(corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("si")
    assert main(si_argv(corpus, "train-si", out)) == 0
    return out / "model-si.spfg"


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


def test_answered_worker_exits_while_a_later_one_runs(cpus):
    """With three processes, worker 1 exits as soon as it has answered its one
    message while worker 2, forked after it, still works: worker 2 holds no
    copy of worker 1's command pipe to keep it from reading EOF."""
    cpus(3)
    state = pl._shared(np.zeros(3, dtype=np.int64))  # [release worker 2, pid 1, pid 2]
    deadline = time.monotonic() + 10

    def exited(pid) -> bool:  # a zombie or reaped; ``WNOWAIT`` leaves it to ``close``
        return bool(pid) and os.waitid(os.P_PID, int(pid),
                                       os.WEXITED | os.WNOHANG | os.WNOWAIT) is not None

    def task(x):
        if x > 0:
            state[x] = os.getpid()
            while x == 2 and not state[0] and time.monotonic() < deadline:
                time.sleep(0.01)  # the slow last task, until the caller has looked
            return x
        while not (exited(state[1]) and state[2]) and time.monotonic() < deadline:
            time.sleep(0.01)
        seen = exited(state[1]), exited(state[2])
        state[0] = 1
        return seen
    assert pl.parallel_map(task, range(3)) == [(True, False), 1, 2]


def test_serial_with_one_cpu_and_when_nested(cpus):
    cpus(1)
    assert {pid for _, pid in pl.parallel_map(tagged, range(4))} == {CALLER}
    cpus(2)
    inner = pl.parallel_map(lambda _: pl.parallel_map(lambda y: os.getpid(), range(3)),
                            range(2))
    assert [len(set(pids)) for pids in inner] == [1, 1]
    assert inner[0][0] == CALLER != inner[1][0]


@pytest.mark.parametrize("n_cpus", [1, 2])
def test_forking_map_holds_one_blas_thread(cpus, n_cpus):
    """Every task of a map that forks, the caller's share included, runs at one
    OpenBLAS thread, and the caller's count comes back afterwards. A serial map,
    like those inside the training loop, leaves the count alone."""
    before = pl._set_blas_threads(2)
    if before is None:
        pytest.skip("numpy's OpenBLAS exports no known thread-count getter or setter")
    try:
        if pl.blas_threads() != 2:
            pytest.skip("this OpenBLAS does not run 2 threads here")
        cpus(n_cpus)
        seen = pl.parallel_map(lambda _: (pl.blas_threads(), os.getpid()), range(4))
        assert [n for n, _ in seen] == [1 if n_cpus == 2 else 2] * 4
        assert len({pid for _, pid in seen}) == n_cpus
        assert pl.blas_threads() == 2
        with pl._serial():
            assert pl.parallel_map(lambda _: pl.blas_threads(), range(2)) == [2, 2]
    finally:
        pl._set_blas_threads(before)


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


def test_reply_cut_inside_its_pickle_raises_runtime_error(cpus, monkeypatch):
    cpus(2)
    send = pl._send

    def send_half_and_exit(pipe, obj):
        if os.getpid() == CALLER:
            return send(pipe, obj)
        data = pickle.dumps(obj)
        pipe.write(data[:len(data) // 2])
        pipe.flush()
        os._exit(3)
    monkeypatch.setattr(pl, "_send", send_half_and_exit)
    with pytest.raises(RuntimeError,
                       match="^parallel_map worker 1 exited with code 3 and no result$"):
        pl.parallel_map(lambda x: np.arange(1000) + x, range(2))


def test_message_to_a_dead_worker_leaves_no_pipe_open():
    # the unread message stays in the pipe file's buffer; closing it must not raise
    with pl._forked(lambda x: x, ["worker"]) as (worker,):
        os.kill(worker.pid, signal.SIGKILL)
        os.waitid(os.P_PID, worker.pid, os.WEXITED | os.WNOWAIT)
        with pytest.raises(BrokenPipeError):
            worker.send(b"x" * 100)
    assert worker.close() == -9


def test_result_that_cannot_be_pickled_raises_runtime_error(cpus):
    cpus(2)
    with pytest.raises(RuntimeError,
                       match="^parallel_map worker 1 exited with code 1 and no result$"):
        pl.parallel_map(lambda x: (lambda: x), range(2))


def test_results_larger_than_a_pipe_buffer_come_back_whole(cpus):
    """A 32 MB float64 array per task, far above a 64 KiB pipe buffer."""
    cpus(2)
    big = lambda x: np.random.default_rng(x).standard_normal(4 << 20)
    for x, result in enumerate(pl.parallel_map(big, range(4))):
        assert result.dtype == np.float64 and result.tobytes() == big(x).tobytes()


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


def test_cv_output_identical_under_cpu_affinity(corpus, si_model, tmp_path):
    """The real CPU lookup: subprocesses restricted to one CPU against
    unrestricted ones (serial too on a one-CPU machine), for ``cv`` and
    ``annotate --task si``."""
    cpu = min(os.sched_getaffinity(0))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    for name, preexec in (("one", lambda: os.sched_setaffinity(0, {cpu})), ("all", None)):
        for argv in (cv_argv(corpus, tmp_path / name, 3),
                     annotate_si_argv(corpus, si_model, tmp_path / name / "annotate")):
            proc = subprocess.run([sys.executable, "-m", "propspan.cli", *argv],
                                  env=env, preexec_fn=preexec, capture_output=True,
                                  text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
    for output in ("cv.json", "annotate/silver-si.tsv"):
        assert (tmp_path / "one" / output).read_bytes() == (tmp_path / "all" / output).read_bytes()
    # runs.jsonl names each process's OpenBLAS thread count, which an unpinned
    # OpenBLAS takes from the CPU affinity; every other byte is the same
    field = re.compile(r'"blas_threads":(\d+|null)')
    one, every = ((tmp_path / n / "runs.jsonl").read_text() for n in ("one", "all"))
    assert field.sub("", one) == field.sub("", every)
    assert field.findall(one) in (["null"], [os.environ.get("OPENBLAS_NUM_THREADS") or "1"])


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


@pytest.mark.parametrize("n_cpus,score_bytes", [
    pytest.param(2, T._SEQUENCE_SCORE_BYTES, id="2"),
    pytest.param(3, T._SEQUENCE_SCORE_BYTES, id="3"),
    pytest.param(2, 0, id="2-per-sequence-attention")])
def test_predict_tc_probs_bit_identical_to_serial_batches(tc_model_and_items, cpus,
                                                          monkeypatch, n_cpus, score_bytes):
    """``score_bytes`` 0 sends every attention call, in the workers too,
    through the per-sequence no-grad kernel."""
    model, items = tc_model_and_items
    monkeypatch.setattr(T, "_SEQUENCE_SCORE_BYTES", score_bytes)
    batch = 4
    monkeypatch.setattr(pl, "TC_PREDICT_BATCH", batch)
    assert len(items) > 3 * batch
    serial = []
    for i in range(0, len(items), batch):
        serial.append(model.probs(*model.inputs(items[i:i + batch])))
    serial = np.concatenate(serial)

    cpus(n_cpus)
    probs = model.probs

    def slowed(*args):
        if os.getpid() == CALLER:
            time.sleep(0.05)
        return probs(*args)
    monkeypatch.setattr(model, "probs", slowed)
    parallel = pl.predict_tc_probs(model, items)
    assert parallel.dtype == serial.dtype and parallel.tobytes() == serial.tobytes()


def test_train_tc_and_annotate_identical_for_one_and_two_cpus(corpus, cpus, monkeypatch,
                                                              tmp_path):
    """``annotate --task tc`` classifies through ``parallel_map``; dev
    evaluation inside ``train-tc`` stays serial."""
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


# -- predict_spans and training ---------------------------------------------------

@pytest.mark.parametrize("batch,score_bytes", [
    pytest.param(4, T._SEQUENCE_SCORE_BYTES, id="4"),
    pytest.param(16, T._SEQUENCE_SCORE_BYTES, id="16"),
    pytest.param(4, 0, id="4-per-sequence-attention")])
def test_predict_spans_bit_identical_for_one_two_and_three_cpus(corpus, si_model, cpus,
                                                                monkeypatch, batch, score_bytes):
    """``score_bytes`` 0 sends every attention call, in the workers too,
    through the per-sequence no-grad kernel."""
    data, _ = corpus
    monkeypatch.setattr(T, "_SEQUENCE_SCORE_BYTES", score_bytes)
    monkeypatch.setattr(pl, "SI_PREDICT_BATCH", batch)
    model = SiTagger.load(si_model)
    pool = SpanDataset(articles=read_articles(data / "pool" / "articles"), spans=[])
    assert len(pl.build_si_windows(pool, 32)) > 2 * batch  # three batches or more
    decode = model.decode

    def slowed(*args):
        if os.getpid() == CALLER:
            time.sleep(0.05)
        return decode(*args)
    monkeypatch.setattr(model, "decode", slowed)
    spans = {}
    for n in (1, 2, 3):
        cpus(n)
        spans[n] = pl.predict_spans(model, pool.tokenized, 32)
    assert len(spans[1]) > 0
    assert spans[1] == spans[2] == spans[3]


def test_annotate_si_and_self_train_identical_for_one_and_two_cpus(corpus, si_model, cpus,
                                                                   monkeypatch, tmp_path):
    """``annotate --task si`` and the silver round of ``self-train`` decode
    through ``parallel_map``."""
    data, _ = corpus
    decode = SiTagger.decode

    def slowed(*args):
        if os.getpid() == CALLER:
            time.sleep(0.02)
        return decode(*args)
    monkeypatch.setattr(SiTagger, "decode", slowed)
    outputs = {}
    for n in (1, 2):
        cpus(n)
        out = tmp_path / f"cpus{n}"
        argv = si_argv(corpus, "self-train", out)
        assert main([*argv, "--iterations", "1", "--pool", str(data / "pool" / "articles")]) == 0
        assert main(annotate_si_argv(corpus, si_model, out / "annotate")) == 0
        records = [json.loads(line) for line in (out / "runs.jsonl").read_text().splitlines()]
        outputs[n] = [(out / name).read_bytes() for name in
                      ("model-si-base.spfg", "model-si-iter1.spfg", "annotate/silver-si.tsv",
                       "annotate/runs.jsonl")]
        outputs[n] += [(r["eval_trace"], r["meta"]) for r in records]
    assert outputs[1][-1][1]["silver_spans"] > 0
    assert outputs[1][2].count(b"\n") > 0  # the annotation found spans
    assert outputs[1] == outputs[2]


def test_si_training_forks_one_worker_and_tc_training_none(corpus, cpus, monkeypatch,
                                                             tmp_path):
    """``train-si`` forks its shard worker once per run and its dev evaluation
    forks nothing, even where its tagging pass spans several batches;
    ``train-tc`` forks nothing, with either head."""
    data, cfg = corpus
    cpus(2)
    forks = []
    fork = os.fork

    def counted():
        forks.append(1)
        return fork()
    monkeypatch.setattr(os, "fork", counted)
    si_cfg = tmp_path / "si.json"  # one 5-8 token line per window: over 16 windows
    si_cfg.write_text(json.dumps({**SI_CFG, "hp.max_seq_len": 8}))
    argv = si_argv(corpus, "train-si", tmp_path / "si")
    argv[argv.index("--config") + 1] = str(si_cfg)
    dev = load_dataset(data / "dev" / "articles", data / "dev" / "labels-si.tsv", "si")
    assert len(pl.build_si_windows(dev, 8)) > 16
    assert main(argv) == 0
    assert len(forks) == 1
    assert len(dev.spans) > 32  # TC dev evaluation runs more than one batch
    for head in ([], ["--span-cls"]):
        assert main(["train-tc", "--seed", "5", *head,
                     "--articles", str(data / "train" / "articles"),
                     "--labels", str(data / "train" / "labels-tc.tsv"),
                     "--dev-articles", str(data / "dev" / "articles"),
                     "--dev-labels", str(data / "dev" / "labels-tc.tsv"),
                     "--techniques", str(data / "techniques.txt"),
                     "--config", str(cfg), "--out", str(tmp_path / f"tc{len(head)}")]) == 0
    assert len(forks) == 1
    pl.parallel_map(abs, [1, 2])  # the patch is live
    assert len(forks) == 2


# -- two-shard SI training ----------------------------------------------------------

def float64_tagger(corpus):
    """A float64 tagger without dropout and its training windows."""
    data, _ = corpus
    train = load_dataset(data / "train" / "articles", data / "train" / "labels-si.tsv", "si")
    windows = pl.build_si_windows(train, 32)
    vocab = Vocab.build([[t.surface for t in w.tokens] for w in windows])
    config = EncoderConfig(vocab_size=len(vocab), hidden_size=16, layers=1, heads=2,
                           intermediate_size=24, max_positions=32, dropout=0.0,
                           attention_dropout=0.0)
    return SiTagger(config, vocab, seed=0, dtype=np.float64), windows


@pytest.mark.parametrize("n_cpus", [1, 2])
@pytest.mark.parametrize("batch", [1, 3, 8])
def test_two_shard_gradient_equals_whole_batch_gradient(corpus, cpus, monkeypatch, n_cpus,
                                                        batch):
    """The gradient the optimizer steps with, from shards of ceil(B/2) and the
    rest, is the whole batch's per-token gradient; a batch of one leaves shard
    1 empty. With two CPUs the worker runs shard 1."""
    model, windows = float64_tagger(corpus)
    start = pl._snapshot(model)
    calls = []

    def batch_loss(idx, shard):
        calls.append((len(idx), shard))  # the calling process's calls only
        ids, mask, tags, lengths = pl._pad_si_batch([windows[j] for j in idx], model.vocab)
        return model.loss(ids, mask, tags, lengths, train=True,
                          rng=np.random.default_rng(shard))
    stepped = []
    step = pl.Optimizer.step

    def spy(opt):
        stepped.append({k: p.grad.copy() for k, p in opt.params.items()})
        step(opt)
    monkeypatch.setattr(pl.Optimizer, "step", spy)
    cpus(n_cpus)
    hp = replace(pl.HyperParams.desk("si"), steps=1, batch_size=batch, max_seq_len=32)
    tokens = np.array([len(w.tokens) for w in windows])
    pl._fit(model, len(windows), batch_loss, lambda step: pl.EvalPoint(step, 0.0), hp,
            np.random.default_rng(0), tokens)
    cut = -(-batch // 2)
    assert calls == [(cut, 0)] + ([(batch - cut, 1)] if n_cpus == 1 and batch > 1 else [])

    pl._restore(model, start)
    for p in model.params().values():
        p.grad = None
    idx = np.random.default_rng(0).permutation(len(windows))[:batch]
    ids, mask, tags, lengths = pl._pad_si_batch([windows[j] for j in idx], model.vocab)
    model.loss(ids, mask, tags, lengths, train=True).backward()
    [got] = stepped
    whole = {name: p.grad for name, p in model.params().items()}
    # the key biases' exact gradient is 0 (softmax ignores a shift): only rounding is left there
    atol = 1e-12 * max(np.abs(g).max() for g in whole.values())
    for name, g in whole.items():
        np.testing.assert_allclose(got[name], g, rtol=1e-10, atol=atol, err_msg=name)


def test_train_si_identical_for_one_and_two_cpus(corpus, cpus, tmp_path):
    outputs = {}
    for n in (1, 2):
        cpus(n)
        out = tmp_path / f"cpus{n}"
        assert main(si_argv(corpus, "train-si", out)) == 0
        record = json.loads((out / "runs.jsonl").read_text())
        outputs[n] = [(out / "model-si.spfg").read_bytes(), record["eval_trace"],
                      record["meta"]]
    assert max(p["score"] for p in outputs[1][1]) > 0  # the tagger found spans
    assert outputs[1] == outputs[2]


def test_si_training_identical_under_cpu_affinity(corpus, tmp_path):
    """``train-si`` and ``self-train`` in subprocesses restricted to one CPU
    against unrestricted ones (serial too on a one-CPU machine)."""
    data, _ = corpus
    cpu = min(os.sched_getaffinity(0))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    outputs = {}
    for name, preexec in (("one", lambda: os.sched_setaffinity(0, {cpu})), ("all", None)):
        out = tmp_path / name
        for argv in (si_argv(corpus, "train-si", out / "si"),
                     [*si_argv(corpus, "self-train", out / "self"), "--iterations", "1",
                      "--pool", str(data / "pool" / "articles")]):
            proc = subprocess.run([sys.executable, "-m", "propspan.cli", *argv],
                                  env=env, preexec_fn=preexec, capture_output=True,
                                  text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
        records = [json.loads(line) for run in ("si", "self")
                   for line in (out / run / "runs.jsonl").read_text().splitlines()]
        outputs[name] = [(out / path).read_bytes() for path in
                         ("si/model-si.spfg", "self/model-si-base.spfg",
                          "self/model-si-iter1.spfg")]
        outputs[name] += [(r["eval_trace"], r["meta"], r["blas_threads"]) for r in records]
    assert outputs["one"] == outputs["all"]


def test_training_worker_holds_one_blas_thread(corpus, cpus, monkeypatch, tmp_path):
    """The worker and the caller run OpenBLAS at one thread while the worker
    lives; the caller's count comes back afterwards."""
    before = pl._set_blas_threads(2)
    if before is None:
        pytest.skip("numpy's OpenBLAS exports no known thread-count getter or setter")
    try:
        if pl.blas_threads() != 2:
            pytest.skip("this OpenBLAS does not run 2 threads here")
        cpus(2)
        seen = tmp_path / "seen"
        loss = SiTagger.loss

        def noted(self, *args, **kwargs):
            with open(seen, "a") as fh:  # one short appended line per call, from both processes
                fh.write(f"{os.getpid()} {pl.blas_threads()}\n")
            return loss(self, *args, **kwargs)
        monkeypatch.setattr(SiTagger, "loss", noted)
        data, _ = corpus
        train = load_dataset(data / "train" / "articles", data / "train" / "labels-si.tsv", "si")
        hp = replace(pl.HyperParams.desk("si"), steps=3, eval_every=3, max_seq_len=32)
        pl.train_si(train, train, hp, seed=0, encoder_cfg=replace(
            pl.desk_encoder_config(1, hp), hidden_size=16, layers=1, heads=2,
            intermediate_size=24))
        lines = [line.split() for line in seen.read_text().splitlines()]
        assert len(lines) == 6 and {n for _, n in lines} == {"1"}
        assert len({pid for pid, _ in lines}) == 2
        assert pl.blas_threads() == 2
    finally:
        pl._set_blas_threads(before)


def worker_loss(monkeypatch, action) -> None:
    """Run ``action`` in place of ``SiTagger.loss`` in forked processes only."""
    loss = SiTagger.loss

    def patched(self, *args, **kwargs):
        if os.getpid() != CALLER:
            return action()
        return loss(self, *args, **kwargs)
    monkeypatch.setattr(SiTagger, "loss", patched)


def test_killed_training_worker_exits_2(corpus, cpus, monkeypatch, tmp_path, capsys):
    cpus(2)
    worker_loss(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
    assert main(si_argv(corpus, "train-si", tmp_path)) == 2
    assert "RuntimeError: training worker exited with code -9 and no result" in \
        capsys.readouterr().err
    assert not (tmp_path / "model-si.spfg").exists()


def test_training_worker_exception_keeps_its_type(corpus, cpus, monkeypatch, tmp_path,
                                                  capsys):
    cpus(2)

    def reject():
        raise ValueError("shard input rejected")
    worker_loss(monkeypatch, reject)
    assert main(si_argv(corpus, "train-si", tmp_path / "value")) == 1  # 2 for other types
    assert "error: shard input rejected" in capsys.readouterr().err

    def unsendable():
        raise TwoArgError("a", "b")
    worker_loss(monkeypatch, unsendable)
    assert main(si_argv(corpus, "train-si", tmp_path / "two")) == 2
    assert "RuntimeError: TwoArgError: a/b" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the NaN itself
@pytest.mark.parametrize("n_cpus", [1, 2])
def test_non_finite_shard_1_loss_stops_before_the_optimizer_step(corpus, cpus, monkeypatch,
                                                                 tmp_path, capsys, n_cpus):
    cpus(n_cpus)
    backward = pl._backward
    calls = []  # in the process that makes them

    def poisoned(opt, loss, weight):
        calls.append(1)
        # step 3's shard 1: the worker's third call, or the sixth of the caller alone
        if len(calls) == (3 if os.getpid() != CALLER else 6):
            loss = loss * np.nan
        return backward(opt, loss, weight)
    monkeypatch.setattr(pl, "_backward", poisoned)
    steps = []
    step = pl.Optimizer.step
    monkeypatch.setattr(pl.Optimizer, "step", lambda opt: (steps.append(1), step(opt)))
    assert main(si_argv(corpus, "train-si", tmp_path)) == 2
    assert "non-finite training loss nan at step 3 (shard 1)" in capsys.readouterr().err
    assert len(steps) == 2


def test_callers_exception_stops_the_training_worker(corpus, cpus, monkeypatch, tmp_path,
                                                     capsys):
    cpus(2)
    loss = SiTagger.loss
    calls = []

    def fail_in_caller(self, *args, **kwargs):
        if os.getpid() == CALLER:
            calls.append(1)
            if len(calls) == 2:
                raise KeyError("caller's shard")
        return loss(self, *args, **kwargs)
    monkeypatch.setattr(SiTagger, "loss", fail_in_caller)
    start = time.perf_counter()
    assert main(si_argv(corpus, "train-si", tmp_path)) == 2
    assert "KeyError" in capsys.readouterr().err
    assert time.perf_counter() - start < 30
