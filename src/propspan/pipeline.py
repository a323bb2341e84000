"""Training and experiment orchestration.

Covers the two task recipes (sequence tagging with SGD on the CRF loss,
span classification with AdamW on BCE), naive self-training for both,
probability-averaging ensembles with full subset enumeration, and k-fold
splits over train+dev unions. One forked-worker primitive (``_forked``)
puts both cores to work for two users: ``parallel_map`` spreads independent
work (the folds of a cross-validation, the batches of a tagging or
classification pass) over the CPUs this process may use, and an SI training
run forks one worker for the whole run, which computes half of every batch
(``_fit``). A training loop's dev evaluations run serially.
"""

from __future__ import annotations

import ctypes
import functools
import mmap
import os
import pickle
import select
import signal
import time
from collections.abc import Sequence
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass, field, replace
from itertools import combinations
from pathlib import Path

import numpy as np

from . import tensor as T
from .datasets import SpanDataset
from .encoder import EncoderConfig, SpanClsConfig
from .losses import class_weights, reweighted_bce, uniform_weights
from .metrics import flc_f1, micro_f1
from .models import SiTagger, TcClassifier
from .optim import Optimizer
from .tokens import (Span, Token, TokenizedText, Vocab, _token_range, extend_context,
                     spans_to_tags, tags_to_spans)

DESK_STEPS_SI = 2000
DESK_STEPS_TC = 1000
# Windows per SI decoding batch and items per TC classification batch at
# inference; each batch is one ``parallel_map`` task.
SI_PREDICT_BATCH = 16
TC_PREDICT_BATCH = 32


@dataclass(frozen=True)
class HyperParams:
    task: str
    dropout: float = 0.1
    attention_dropout: float = 0.1
    max_seq_len: int = 256
    batch_size: int = 8
    lr: float = 5e-4
    steps: int = DESK_STEPS_SI
    momentum: float = 0.9
    weight_decay: float = 0.0
    optimizer: str = "sgd"
    eval_every: int = 200
    patience: int = 5

    def __post_init__(self):
        if self.task not in ("si", "tc"):
            raise ValueError(f"unknown task {self.task!r}")
        if self.lr <= 0 or self.batch_size <= 0 or self.steps < 0:
            raise ValueError("lr and batch_size must be positive, steps >= 0")
        for name in ("max_seq_len", "eval_every", "patience"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.optimizer not in ("sgd", "adamw"):
            raise ValueError(f"optimizer must be 'sgd' or 'adamw', got {self.optimizer!r}")
        # a setting the optimizer ignores would be hashed into the manifest but do nothing
        unused = "weight_decay" if self.optimizer == "sgd" else "momentum"
        if getattr(self, unused) != 0:
            raise ValueError(f"{unused} has no effect with optimizer {self.optimizer!r}; "
                             f"set it to 0, got {getattr(self, unused)}")

    @classmethod
    def desk(cls, task: str) -> "HyperParams":
        if task == "si":
            return cls(task="si", batch_size=8, lr=0.05, steps=DESK_STEPS_SI,
                       momentum=0.9, weight_decay=0.0, optimizer="sgd",
                       eval_every=200)
        if task == "tc":
            return cls(task="tc", batch_size=16, lr=1e-3, steps=DESK_STEPS_TC,
                       momentum=0.0, weight_decay=0.01, optimizer="adamw",
                       eval_every=100)
        raise ValueError(f"unknown task {task!r}")

    @classmethod
    def paper(cls, task: str) -> "HyperParams":
        """The desk profile at the paper's learning rate and step budget."""
        desk = cls.desk(task)  # raises for an unknown task
        si = task == "si"
        return replace(desk, lr=5e-4 if si else 2e-5, steps=60_000 if si else 20_000,
                       eval_every=2000)

    def to_dict(self) -> dict:
        return asdict(self)


def self_train_overwrite(hp: HyperParams) -> HyperParams:
    """The self-training profile: no dropout, batch 16."""
    return replace(hp, dropout=0.0, attention_dropout=0.0, batch_size=16)


@dataclass(frozen=True)
class TcOptions:
    reweight: bool = False
    span_cls: bool = False


def desk_encoder_config(vocab_size: int, hp: HyperParams) -> EncoderConfig:
    return EncoderConfig(vocab_size=vocab_size, max_positions=hp.max_seq_len,
                         dropout=hp.dropout, attention_dropout=hp.attention_dropout)


def derive_seed(seed: int, k: int) -> int:
    """Deterministic child stream id."""
    return (seed * 1_000_003 + k) % (2 ** 31 - 1)


# -- forked workers -------------------------------------------------------------------

_in_map = False  # true inside _serial, which _forked's block and workers run under


def _usable_cpus() -> int:
    """CPUs this process may run on (``taskset`` narrows them); 1 without fork."""
    if not (hasattr(os, "sched_getaffinity") and hasattr(os, "fork")):
        return 1
    return len(os.sched_getaffinity(0))


@contextmanager
def _serial():
    """Every ``parallel_map`` called inside the block runs serially."""
    global _in_map
    outer, _in_map = _in_map, True
    try:
        yield
    finally:
        _in_map = outer


def _sendable(exc: Exception) -> Exception:
    """``exc``, or where it does not survive pickling, a ``RuntimeError`` with its text."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


# How long a reader spins on its pipe, without sleeping, before it blocks: with
# blocking reads on both sides of a training step, the caller's half-batch
# forward and backward took 6.8-7.8 ms against 5.4-5.9 ms when both sides spin.
_SPIN_S = 0.005


def _send(pipe, obj) -> None:
    """Write ``obj`` to the buffered pipe file ``pipe`` as one pickle."""
    pipe.write(pickle.dumps(obj))
    pipe.flush()


def _receive(pipe):
    """The next pickle ``_send`` wrote to the buffered pipe file ``pipe``; spins
    for up to ``_SPIN_S`` until the pipe is readable, then blocks. ``EOFError``
    where the writer closes the pipe first, ``pickle.UnpicklingError`` where it
    closes it inside a pickle."""
    poller = select.poll()
    poller.register(pipe, select.POLLIN)
    deadline = time.perf_counter() + _SPIN_S
    while not poller.poll(0) and time.perf_counter() < deadline:
        pass
    return pickle.load(pipe)


class _Worker:
    """One forked process that answers each message sent to it with
    ``body(message)`` until ``close`` kills it, or until it has answered the
    ``last`` one. It shares with this process whatever was mapped
    ``MAP_SHARED`` before the fork; everything else is its copy-on-write copy.
    It closes its copies of this process's pipe ends of the ``forked_before``
    workers, which would otherwise keep their command pipes open and them alive."""

    def __init__(self, body, name: str, forked_before: Sequence[_Worker] = ()):
        self.name = name
        (cmd_read, cmd_write), (reply_read, reply_write) = (os.pipe() for _ in range(2))
        try:
            # a bare fork: with multiprocessing's, the caller's peak RSS in a
            # TC classification pass grew by ~10 MB (glibc's mmap threshold)
            self.pid = os.fork()
        except OSError:
            for fd in (cmd_read, cmd_write, reply_read, reply_write):
                os.close(fd)
            raise
        if self.pid == 0:
            try:
                os.close(cmd_write)
                os.close(reply_read)
                for pipe in (f for w in forked_before for f in (w.commands, w.replies)):
                    if not pipe.closed:  # ``close()`` could flush the caller's buffer
                        os.close(pipe.fileno())
                commands, replies = os.fdopen(cmd_read, "rb"), os.fdopen(reply_write, "wb")
                while True:
                    message = _receive(commands)  # EOFError after the ``last`` one
                    try:
                        reply = (True, body(message))
                    except Exception as exc:  # re-raised in the caller
                        reply = (False, _sendable(exc))
                    _send(replies, reply)  # a reply that cannot be pickled sends nothing
            finally:
                os._exit(1)  # no atexit handlers, no flush of the parent's buffers
        os.close(cmd_read)
        os.close(reply_write)
        self.commands, self.replies = os.fdopen(cmd_write, "wb"), os.fdopen(reply_read, "rb")
        self.code = None  # the exit code, once reaped

    def send(self, message, last: bool = False) -> None:
        """Send ``message``. After the ``last`` one the worker exits as soon as it
        has answered, while this process works on, not later at ``close``."""
        _send(self.commands, message)
        if last:
            self.commands.close()

    def receive(self):
        """``body``'s reply to the oldest message it has not answered yet; its
        exception is re-raised here with its type."""
        try:
            ok, value = _receive(self.replies)
        except (EOFError, pickle.UnpicklingError):
            raise RuntimeError(f"{self.name} exited with code {self.close()} "
                               "and no result") from None
        if not ok:
            raise value
        return value

    def close(self) -> int:
        """Kill and reap the worker, once; returns its exit code."""
        if self.code is None:
            os.kill(self.pid, signal.SIGKILL)
            self.code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
            with suppress(BrokenPipeError):  # a message that the dead worker did not read
                self.commands.close()
            self.replies.close()
        return self.code


@contextmanager
def _forked(body, names: list[str]):
    """One ``_Worker`` per name, for a block that runs under
    ``_serial``; every worker is killed and reaped on leaving it. While any
    worker lives, OpenBLAS runs one thread in this process and in the workers:
    two processes that each ran a second BLAS thread on two cores trained
    several times slower."""
    with _serial():
        threads = _set_blas_threads(1) if names else None
        workers: list[_Worker] = []
        try:
            for name in names:
                workers.append(_Worker(body, name, workers))
            yield workers
        finally:
            for worker in workers:
                worker.close()
            if threads is not None:
                _set_blas_threads(threads)


def parallel_map(fn, tasks) -> list:
    """``[fn(t) for t in tasks]``, spread over forked processes; results in task order.

    With n = min(len(tasks), usable CPUs), this process runs ``tasks[0::n]``
    and ``_forked`` worker w runs ``tasks[w::n]``. The map runs serially when
    n < 2, where there is no fork or CPU affinity, inside another
    ``parallel_map`` (in either process) and inside ``_serial``, which keeps
    the training loop (``_fit``) from forking at its dev evaluations. A map
    that forks holds OpenBLAS at one thread until every worker is reaped. A
    worker's exception is re-raised here with its type; a worker that dies, or
    whose result cannot be pickled, raises ``RuntimeError``. No worker
    outlives the call.
    """
    tasks = list(tasks)
    n = min(len(tasks), _usable_cpus())
    if n < 2 or _in_map:
        return [fn(t) for t in tasks]
    with _forked(lambda w: [fn(t) for t in tasks[w::n]],
                 [f"parallel_map worker {w}" for w in range(1, n)]) as workers:
        for w, worker in enumerate(workers, 1):
            worker.send(w, last=True)
        shares = [[fn(t) for t in tasks[0::n]]] + [worker.receive() for worker in workers]
    results = [None] * len(tasks)
    for w, share in enumerate(shares):
        results[w::n] = share
    return results


def _shared(array: np.ndarray) -> np.ndarray:
    """A copy of ``array`` in an anonymous ``MAP_SHARED`` map, which a process
    forked afterwards shares with this one, writes included."""
    buf = mmap.mmap(-1, max(array.nbytes, 1))
    out = np.frombuffer(buf, dtype=array.dtype, count=array.size).reshape(array.shape)
    out[...] = array
    return out


def _backward(opt: Optimizer, loss: T.Tensor, weight: float) -> float:
    """Clear ``opt``'s gradients and, where ``loss`` is finite, back-propagate
    ``weight`` times ``loss``; returns the loss."""
    value = loss.item()
    opt.zero_grad()
    if np.isfinite(value):
        loss.backward(np.full_like(loss.data, weight))
    return value


# -- sequence-tagging data ---------------------------------------------------------

@dataclass
class SiWindow:
    article_id: str
    tokens: tuple[Token, ...]
    tags: list[int]


def _line_groups(tt: TokenizedText) -> list[list[Token]]:
    """Consecutive tokens with no newline between them."""
    groups: list[list[Token]] = []
    prev_end = None
    for tok in tt.tokens:
        if prev_end is None or "\n" in tt.text[prev_end:tok.start]:
            groups.append([])
        groups[-1].append(tok)
        prev_end = tok.end
    return groups


def build_si_windows(data: SpanDataset, max_len: int) -> list[SiWindow]:
    """Pack whole lines into windows of at most ``max_len`` tokens."""
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    windows: list[SiWindow] = []
    for aid in sorted(data.tokenized):
        tt = data.tokenized[aid]
        if not tt.tokens:
            continue
        tags = spans_to_tags(tt, data.spans_for(aid))
        bounds: list[tuple[int, int]] = []
        cursor = 0
        for group in _line_groups(tt):
            glen = len(group)
            while glen > max_len:  # oversize line: hard split
                bounds.append((cursor, cursor + max_len))
                cursor += max_len
                glen -= max_len
            if bounds and (bounds[-1][1] - bounds[-1][0]) + glen <= max_len \
                    and bounds[-1][1] == cursor:
                bounds[-1] = (bounds[-1][0], cursor + glen)
            else:
                bounds.append((cursor, cursor + glen))
            cursor += glen
        for s, e in bounds:
            windows.append(SiWindow(aid, tt.tokens[s:e], tags[s:e]))
    return windows


def _pad_si_batch(windows: list[SiWindow], vocab: Vocab):
    ids, mask, lengths = vocab.pad([[t.surface for t in w.tokens] for w in windows])
    tags = np.zeros(ids.shape, dtype=np.int64)
    for i, w in enumerate(windows):
        tags[i, :len(w.tags)] = w.tags
    return ids, mask, tags, lengths


def mix_with_silver(gold: list, silver: list, ratio: tuple[int, int] | None):
    """Gold oversampled (cycled deterministically) toward gold:silver = ratio.

    All silver items are kept; with ratio None the lists are concatenated.
    """
    if not silver:
        return list(gold)
    if not gold:
        raise ValueError("silver items need a non-empty gold set to mix with")
    if ratio is None:
        return list(gold) + list(silver)
    g, s = ratio
    want_gold = max(len(gold), (len(silver) * g) // s)
    reps, rem = divmod(want_gold, len(gold))
    mixed = list(gold) * reps + list(gold)[:rem]
    return mixed + list(silver)


@dataclass
class EvalPoint:
    step: int
    score: float
    precision: float = 0.0
    recall: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class TrainResult:
    model: object
    trace: list[EvalPoint]
    best_score: float
    best_step: int
    meta: dict = field(default_factory=dict)


def predict_spans(model: SiTagger, tokenized: dict[str, TokenizedText],
                  max_len: int) -> list[Span]:
    """Viterbi/argmax spans for every article, in absolute character offsets;
    batches are decoded through ``parallel_map``."""
    data = SpanDataset(articles={aid: tt.text for aid, tt in tokenized.items()},
                       spans=[], tokenized=dict(tokenized))
    windows = build_si_windows(data, max_len)

    def batch_paths(start: int) -> list[list[int]]:
        ids, mask, _, lengths = _pad_si_batch(windows[start:start + SI_PREDICT_BATCH],
                                              model.vocab)
        return model.decode(ids, mask, lengths)

    spans: list[Span] = []
    paths = parallel_map(batch_paths, range(0, len(windows), SI_PREDICT_BATCH))
    for win, path in zip(windows, (p for batch in paths for p in batch)):
        tt = TokenizedText(text=data.articles[win.article_id], tokens=win.tokens)
        spans.extend(tags_to_spans(tt, path, win.article_id))
    return spans


def _snapshot(model) -> dict[str, np.ndarray]:
    return {k: v.data.copy() for k, v in model.params().items()}


def _restore(model, snap: dict[str, np.ndarray]) -> None:
    for k, v in model.params().items():
        v.data = snap[k].copy()


def _model_config(encoder_cfg: EncoderConfig | None, vocab: Vocab,
                  hp: HyperParams) -> EncoderConfig:
    cfg = encoder_cfg or desk_encoder_config(len(vocab), hp)
    return replace(cfg, vocab_size=len(vocab), dropout=hp.dropout,
                   attention_dropout=hp.attention_dropout)


def _fit(model, n_items: int, batch_loss, evaluate, hp: HyperParams,
         data_rng: np.random.Generator,
         shard_weights: np.ndarray | None = None) -> tuple[list[EvalPoint], float, int]:
    """The training loop both tasks share; returns (trace, best score, best step).

    ``batch_loss(idx, shard)`` maps item indices to a scalar loss, drawing
    dropout from shard ``shard``'s stream; ``evaluate`` scores the model at a
    step. Each epoch walks a fresh permutation; evaluation runs every
    ``hp.eval_every`` steps and after the last, and the best evaluated
    parameters are restored at the end.

    With ``shard_weights`` (per item, its share of the loss's denominator:
    tokens for SI's per-token loss) a batch ``idx`` trains as two fixed shards,
    ``idx[:ceil(B/2)]`` and the rest. Shard s back-propagates its loss scaled
    by ``w_s``, its share of the batch's weight, and the step takes the sum of
    the two gradients in shard order, ``w0*g0 + w1*g1``: the whole-batch
    gradient, as in synchronous data-parallel SGD (Goyal et al. 2017). Shard 1
    runs in one ``_forked`` worker for the whole run where this process may
    fork (two usable CPUs, not inside a ``parallel_map`` or ``_serial``), else
    here after shard 0, with the same output bytes.

    Every gradient is cleared right after the optimizer step, and shard 1's
    once shared, so that no forward or dev evaluation runs beside them. A
    non-finite shard loss stops the run with a ``RuntimeError`` naming the
    step, before the optimizer step. Dev evaluations run under ``_serial``:
    forking at each evaluation slowed training (likely through copy-on-write
    faults after each fork).
    """
    if n_items == 0:
        raise ValueError("no training items: the training data has no tokens or spans")
    params = model.params()
    opt = Optimizer(params, hp.optimizer, hp.lr, hp.momentum, hp.weight_decay)
    trace: list[EvalPoint] = []
    best = _snapshot(model)
    best_score, best_step = -1.0, 0
    stale = 0

    def check(step: int) -> None:
        nonlocal best, best_score, best_step, stale
        point = evaluate(step)
        trace.append(point)
        if point.score > best_score:
            best, best_score, best_step, stale = _snapshot(model), point.score, step, 0
        else:
            stale += 1

    if hp.steps == 0:
        with _serial():
            check(0)
        return trace, best_score, best_step

    two_shards = shard_weights is not None and min(hp.batch_size, n_items) > 1
    fork = two_shards and not _in_map and _usable_cpus() > 1
    if fork:  # shared before the fork: the worker reads the caller's updates
        for p in params.values():
            p.data = _shared(p.data)
    if two_shards:
        shared_grads = {k: _shared(np.zeros_like(p.data)) for k, p in params.items()}

    def shard_1(message) -> float:
        """Shard 1, in the worker or here: its loss; its gradients go to ``shared_grads``."""
        idx, weight = message
        value = _backward(opt, batch_loss(np.array(idx), 1), weight)
        for k, p in params.items():  # zeros, never a stale step's gradient
            shared_grads[k][...] = 0 if p.grad is None else p.grad
        opt.zero_grad()
        return value

    with _forked(shard_1, ["training worker"] if fork else []) as workers:
        order = data_rng.permutation(n_items)
        cursor = 0
        for step in range(1, hp.steps + 1):
            if cursor + hp.batch_size > n_items:
                order = data_rng.permutation(n_items)
                cursor = 0
            idx = order[cursor:cursor + hp.batch_size]
            cursor += hp.batch_size
            cut = -(-len(idx) // 2) if two_shards else len(idx)
            w0 = 1.0
            if two_shards:
                n0 = float(shard_weights[idx[:cut]].sum())
                n1 = float(shard_weights[idx[cut:]].sum())
                w0 = n0 / (n0 + n1)
                message = (idx[cut:].tolist(), n1 / (n0 + n1))  # a list pickles ~10x faster
                if workers:
                    workers[0].send(message)
            value = _backward(opt, batch_loss(idx[:cut], 0), w0)
            if not np.isfinite(value):
                raise RuntimeError(f"non-finite training loss {value} at step {step}")
            if two_shards:
                grads = {k: p.grad for k, p in params.items()}
                value = workers[0].receive() if workers else shard_1(message)
                if not np.isfinite(value):
                    raise RuntimeError(f"non-finite training loss {value} at step "
                                       f"{step} (shard 1)")
                for k, p in params.items():
                    if grads[k] is not None:
                        p.grad = grads[k] + shared_grads[k]
                del grads
            opt.step()
            opt.zero_grad()
            if step % hp.eval_every == 0 or step == hp.steps:
                check(step)
                if stale >= hp.patience:
                    break

    _restore(model, best)
    return trace, best_score, best_step


def train_si(train: SpanDataset, dev: SpanDataset, hp: HyperParams, seed: int,
             use_crf: bool = True, silver: SpanDataset | None = None,
             ratio: tuple[int, int] | None = (1, 4),
             encoder_cfg: EncoderConfig | None = None) -> TrainResult:
    """Tagger training with periodic dev evaluation and early stopping."""
    gold_windows = build_si_windows(train, hp.max_seq_len)
    silver_windows = build_si_windows(silver, hp.max_seq_len) if silver else []
    windows = mix_with_silver(gold_windows, silver_windows, ratio)

    texts = [[t.surface for t in tt.tokens] for tt in train.tokenized.values()]
    if silver:
        texts += [[t.surface for t in tt.tokens] for tt in silver.tokenized.values()]
    vocab = Vocab.build(texts)

    model = SiTagger(_model_config(encoder_cfg, vocab, hp), vocab, use_crf=use_crf,
                     seed=seed)
    data_rng = np.random.default_rng(derive_seed(seed, 101))
    drop_rngs = [np.random.default_rng(derive_seed(seed, 102 + s)) for s in (0, 1)]

    meta = {"task": "si", "use_crf": use_crf, "seed": seed,
            "dropout": hp.dropout, "attention_dropout": hp.attention_dropout,
            "batch_size": hp.batch_size, "gold_windows": len(gold_windows),
            "silver_windows": len(silver_windows), "train_windows": len(windows)}

    def batch_loss(idx: np.ndarray, shard: int) -> T.Tensor:
        ids, mask, tags, lengths = _pad_si_batch([windows[j] for j in idx], vocab)
        return model.loss(ids, mask, tags, lengths, train=True, rng=drop_rngs[shard])

    def evaluate(step: int) -> EvalPoint:
        score = flc_f1(predict_spans(model, dev.tokenized, hp.max_seq_len), dev.spans)
        return EvalPoint(step, score.f1, score.precision, score.recall)

    tokens = np.array([len(w.tokens) for w in windows])  # the per-token loss's denominator
    fitted = _fit(model, len(windows), batch_loss, evaluate, hp, data_rng, tokens)
    return TrainResult(model, *fitted, meta)


def annotate_si(model: SiTagger, pool: SpanDataset,
                max_len: int = 256) -> SpanDataset:
    """Silver dataset: decoded spans over the pool; span-free texts are kept."""
    spans = predict_spans(model, pool.tokenized, max_len)
    return SpanDataset(articles=dict(pool.articles), spans=spans,
                       labels=pool.labels, tokenized=dict(pool.tokenized))


def partition_pool(pool: SpanDataset, parts: int) -> list[SpanDataset]:
    """Contiguous split of the pool by sorted article id; every part non-empty."""
    ids = sorted(pool.articles)
    chunks = np.array_split(np.asarray(ids, dtype=object), parts)
    out = []
    for chunk in chunks:
        if len(chunk) == 0:
            raise ValueError(f"pool of {len(ids)} articles cannot feed {parts} iterations")
        out.append(SpanDataset(
            articles={aid: pool.articles[aid] for aid in chunk},
            spans=[], labels=pool.labels,
            tokenized={aid: pool.tokenized[aid] for aid in chunk}))
    return out


def self_train_si(gold: SpanDataset, dev: SpanDataset, pool: SpanDataset,
                  iterations: int, hp: HyperParams, seed: int = 0,
                  ratio: tuple[int, int] | None = (1, 4), use_crf: bool = True,
                  encoder_cfg: EncoderConfig | None = None) -> list[TrainResult]:
    """Base model plus ``iterations`` rounds of annotate-and-retrain.

    Each round trains a fresh model on gold plus the silver set produced by
    the previous round's best model over a fresh pool partition. Silver
    sets take every pool text, with no confidence filtering. The
    ``self_train_overwrite`` profile applies from iteration 2 (the first round
    keeps the base hyperparameters, matching the original recipe).
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    chunks = partition_pool(pool, iterations)
    results = [train_si(gold, dev, hp, seed, use_crf=use_crf,
                        encoder_cfg=encoder_cfg)]
    for i in range(1, iterations + 1):
        silver = annotate_si(results[-1].model, chunks[i - 1], hp.max_seq_len)
        hp_i = self_train_overwrite(hp) if i >= 2 else hp
        res = train_si(gold, dev, hp_i, derive_seed(seed, i), use_crf=use_crf,
                       silver=silver, ratio=ratio, encoder_cfg=encoder_cfg)
        res.meta["self_train_iteration"] = i
        res.meta["silver_spans"] = len(silver.spans)
        results.append(res)
    return results


# -- span-classification data --------------------------------------------------------

MARKER_OVERHEAD = 4  # [BOS] [BOP] [EOP] [EOS]


@dataclass
class TcItem:
    article_id: str
    window_tokens: list[str]
    span_start: int  # token index into window_tokens
    span_end: int
    label: int | None
    char_span: Span
    truncated: bool = False  # the span kept only its first max_seq_len - 4 tokens


def build_tc_items(data: SpanDataset, max_seq_len: int = 256,
                   spans: list[Span] | None = None) -> list[TcItem]:
    """One item per labeled span, with maximal equal context on both sides.

    A span longer than ``max_seq_len - 4`` tokens keeps its first ones and is
    marked ``truncated``; a span that covers no token gets no item.
    """
    if max_seq_len <= MARKER_OVERHEAD:
        raise ValueError(f"max_seq_len must be >= {MARKER_OVERHEAD + 1} for span classification "
                         f"(4 marker tokens and a span token), got {max_seq_len}")
    budget = max_seq_len - MARKER_OVERHEAD
    items = []
    for sp in (data.spans if spans is None else spans):
        tt = data.tokenized[sp.article_id]
        first, stop = _token_range(tt, sp.start, sp.end)
        if first >= stop:
            continue
        win = extend_context(tt, sp, budget)
        toks = tt.tokens[win.start:win.end]
        items.append(TcItem(
            article_id=sp.article_id,
            window_tokens=[t.surface for t in toks],
            span_start=win.span_start - win.start,
            span_end=win.span_end - win.start,
            label=sp.technique,
            char_span=sp,
            truncated=stop - first > budget))
    return items


def counted_tc_items(data: SpanDataset, max_seq_len: int,
                     spans: list[Span] | None = None) -> tuple[list[TcItem], dict]:
    """``build_tc_items``' items, and how many of their spans were truncated
    to the window budget or skipped for covering no token."""
    spans = data.spans if spans is None else spans
    items = build_tc_items(data, max_seq_len, spans)
    return items, {"truncated_spans": sum(it.truncated for it in items),
                   "skipped_spans": len(spans) - len(items)}


def _multi_hot(items: list[TcItem], n_classes: int) -> np.ndarray:
    y = np.zeros((len(items), n_classes), dtype=np.float64)
    for i, it in enumerate(items):
        if it.label is None:
            raise ValueError("unlabeled item in a training batch")
        if not 0 <= it.label < n_classes:
            raise ValueError(f"unknown technique label id {it.label}")
        y[i, it.label] = 1.0
    return y


def predict_tc_probs(model: TcClassifier, items: list[TcItem]) -> np.ndarray:
    """Per-class sigmoid probabilities, [n_items, n_classes] in the model's
    dtype (no rows for no items); batches go through ``parallel_map``."""
    def batch_probs(start: int) -> np.ndarray:
        return model.probs(*model.inputs(items[start:start + TC_PREDICT_BATCH]))

    return np.concatenate([np.empty((0, len(model.labels)), model.dtype),
                           *parallel_map(batch_probs, range(0, len(items), TC_PREDICT_BATCH))])


def train_tc(train_items: list[TcItem], dev_items: list[TcItem], labels: list[str],
             opts: TcOptions, hp: HyperParams, seed: int,
             silver_items: list[TcItem] | None = None,
             ratio: tuple[int, int] | None = (1, 4),
             encoder_cfg: EncoderConfig | None = None,
             span_cfg: SpanClsConfig | None = None) -> TrainResult:
    """Span classifier training; head, loss weighting and silver mix follow ``opts``.

    Given ``silver_items`` (even none), the run is self-trained and takes the
    ``self_train_overwrite`` profile (dropout 0, batch 16) for the whole run.
    """
    self_train = silver_items is not None
    if self_train:
        hp = self_train_overwrite(hp)
    silver = list(silver_items or [])
    mixed = mix_with_silver(list(train_items), silver, ratio)

    vocab = Vocab.build([it.window_tokens for it in mixed])
    model = TcClassifier(_model_config(encoder_cfg, vocab, hp), vocab, labels,
                         head_kind="span_cls" if opts.span_cls else "marker",
                         span_cfg=span_cfg or SpanClsConfig(), seed=seed)

    n_classes = len(labels)
    if opts.reweight:
        freq = np.bincount([it.label for it in mixed], minlength=n_classes)
        if (freq == 0).any():
            missing = [labels[i] for i in np.where(freq == 0)[0]]
            raise ValueError(f"classes absent from the train split: {missing}")
        weights = class_weights(freq)
    else:
        weights = uniform_weights(n_classes)

    data_rng = np.random.default_rng(derive_seed(seed, 201))
    drop_rng = np.random.default_rng(derive_seed(seed, 202))

    meta = {"task": "tc", "options": {"reweight": opts.reweight,
                                      "span_cls": opts.span_cls,
                                      "self_train": self_train},
            "seed": seed, "dropout": hp.dropout,
            "attention_dropout": hp.attention_dropout,
            "batch_size": hp.batch_size, "gold_items": len(train_items),
            "silver_items": len(silver), "train_items": len(mixed)}

    def batch_loss(idx: np.ndarray, shard: int) -> T.Tensor:
        chunk = [mixed[j] for j in idx]
        logits = model.logits(*model.inputs(chunk), train=True, rng=drop_rng)
        return reweighted_bce(logits, _multi_hot(chunk, n_classes), weights)

    dev_gold = np.array([it.label for it in dev_items], dtype=np.int64)

    def evaluate(step: int) -> EvalPoint:
        pred = predict_tc_probs(model, dev_items).argmax(axis=1)
        return EvalPoint(step, micro_f1(pred, dev_gold))

    fitted = _fit(model, len(mixed), batch_loss, evaluate, hp, data_rng)
    return TrainResult(model, *fitted, meta)


def build_tc_silver(si_model: SiTagger, tc_model: TcClassifier, pool: SpanDataset,
                    max_seq_len: int = 256) -> tuple[list[TcItem], dict]:
    """Silver classification items, spans found by the tagger with labels from
    the gold-trained classifier's argmax, and their ``counted_tc_items`` counts."""
    spans = predict_spans(si_model, pool.tokenized, max_seq_len)
    items, counts = counted_tc_items(pool, max_seq_len, spans)
    if items:
        pred = predict_tc_probs(tc_model, items).argmax(axis=1)
        for it, lab in zip(items, pred):
            it.label = int(lab)
            it.char_span = replace(it.char_span, technique=int(lab))
    return items, counts


# -- ensembling and folds --------------------------------------------------------------

def member_probs(models: list[TcClassifier], items: list[TcItem]) -> list[np.ndarray]:
    """Each model's class probabilities; the models must share one label inventory."""
    if not models:
        raise ValueError("need at least one model")
    if len({tuple(m.labels) for m in models}) != 1:
        raise ValueError("models carry different label inventories")
    return [predict_tc_probs(m, items) for m in models]


def mean_probs(probs: list[np.ndarray]) -> np.ndarray:
    """Arithmetic mean of per-model probabilities, accumulated in float64."""
    acc = np.zeros(probs[0].shape, dtype=np.float64)
    for p in probs:
        acc += p
    return acc / len(probs)


def ensemble_predict(probs: list[np.ndarray]) -> np.ndarray:
    """The ensemble's vote: the argmax of the members' ``mean_probs``; ties
    resolve to the lowest label id."""
    return mean_probs(probs).argmax(axis=1)


@dataclass(frozen=True)
class EnsembleResult:
    members: tuple[int, ...]
    score: float


def subset_scores(probs: list[np.ndarray], gold: np.ndarray) -> list[EnsembleResult]:
    """Micro-F1 of every subset of two or more members, from their ``probs``."""
    n = len(probs)
    if n < 2:
        raise ValueError("need at least two models to enumerate ensembles")
    return [EnsembleResult(subset, micro_f1(ensemble_predict([probs[i] for i in subset]), gold))
            for size in range(2, n + 1) for subset in combinations(range(n), size)]


def kfold_split(train_items: list, dev_items: list, k: int = 6,
                seed: int = 0) -> list[list]:
    """Shuffle the train+dev union and cut into k near-even folds."""
    if k < 2:
        raise ValueError("k must be >= 2")
    pool = list(train_items) + list(dev_items)
    if k > len(pool):
        raise ValueError(f"cannot split {len(pool)} items into {k} folds")
    order = np.random.default_rng(seed).permutation(len(pool))
    return [[pool[j] for j in fold] for fold in np.array_split(order, k)]


def cross_validate(train_items: list[TcItem], dev_items: list[TcItem],
                   labels: list[str], opts: TcOptions, hp: HyperParams,
                   k: int = 6, seed: int = 0,
                   encoder_cfg: EncoderConfig | None = None) -> list[float]:
    """Per-fold dev scores: each fold once as the held-out set. The folds are
    independent and go through ``parallel_map``."""
    folds = kfold_split(train_items, dev_items, k=k, seed=seed)

    def fold_score(i: int) -> float:
        rest = [it for j, fold in enumerate(folds) if j != i for it in fold]
        return train_tc(rest, folds[i], labels, opts, hp, derive_seed(seed, i),
                        encoder_cfg=encoder_cfg).best_score

    return parallel_map(fold_score, range(k))


# -- OpenBLAS threads ----------------------------------------------------------------

# symbol prefixes of the OpenBLAS builds in numpy wheels: numpy 2's
# scipy-openblas and numpy 1's openblas64_
_OPENBLAS_PREFIXES = ("scipy_openblas", "openblas")


@functools.cache
def _openblas_function(name: str):
    """OpenBLAS's ``name`` (``get_num_threads``, ``set_num_threads``) from the
    library that numpy's Linux wheels bundle in ``numpy.libs``, through
    ``ctypes`` on the copy numpy has loaded; None where no known build exports it.
    Resolved once per process (a forked worker inherits the result)."""
    for lib_path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(lib_path))
        except OSError:
            continue
        for prefix in _OPENBLAS_PREFIXES:
            fn = getattr(lib, f"{prefix}_{name}64_", None)
            if fn is not None:
                return fn
    return None


def blas_threads() -> int | None:
    """The thread count of numpy's bundled OpenBLAS; None where no known getter
    is found."""
    getter = _openblas_function("get_num_threads")
    if getter is None:
        return None
    getter.restype = ctypes.c_int
    return int(getter())


def _set_blas_threads(count: int) -> int | None:
    """Set numpy's bundled OpenBLAS to ``count`` threads and return the count
    before; None, with nothing changed, where no known getter or setter is found."""
    before = blas_threads()
    setter = _openblas_function("set_num_threads")
    if before is None or setter is None:
        return None
    setter.argtypes, setter.restype = [ctypes.c_int], None
    setter(count)
    return before
