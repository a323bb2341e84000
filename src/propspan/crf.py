"""Linear-chain CRF: path scoring, forward-algorithm partition, NLL, Viterbi.

Training-path functions take autograd Tensors so gradients flow back into
emissions and the transition parameters; the padded-batch functions are the
one implementation, and the single-sequence ``log_partition``/``nll`` run
them at batch size 1. ``log_partition_batch`` is a single graph node, built
like every tensor op: its one backward function is the adjoint of the
forward recursion (the forward-backward marginals; Lafferty et al. 2001,
Sutton & McCallum 2012) and returns the emission, transition, start and end
gradients together. Decoding is plain numpy: ``viterbi_batch`` decodes a
padded batch, and ``viterbi`` runs it at batch size 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor, _logsumexp_weights

NEG_INF = -1e9


@dataclass
class CrfParams:
    transitions: Tensor  # [L, L], transitions[i, j] scores i -> j
    start_scores: Tensor  # [L]
    end_scores: Tensor  # [L]

    @classmethod
    def create(cls, n_labels: int, rng: np.random.Generator | None = None,
               dtype=np.float32) -> "CrfParams":
        if rng is None:
            init = lambda shape: np.zeros(shape, dtype=dtype)
        else:
            init = lambda shape: (rng.normal(0.0, 0.01, shape)).astype(dtype)
        return cls(
            transitions=Tensor(init((n_labels, n_labels)), requires_grad=True),
            start_scores=Tensor(init((n_labels,)), requires_grad=True),
            end_scores=Tensor(init((n_labels,)), requires_grad=True),
        )

    def named(self, prefix: str = "crf") -> dict[str, Tensor]:
        return {f"{prefix}.transitions": self.transitions,
                f"{prefix}.start_scores": self.start_scores,
                f"{prefix}.end_scores": self.end_scores}


@dataclass
class ConstraintMask:
    """Boolean transition/start structure; disallowed moves decode as -inf."""

    allowed_transitions: np.ndarray  # [L, L] bool
    allowed_start: np.ndarray  # [L] bool

    def __post_init__(self):
        self.allowed_transitions = np.asarray(self.allowed_transitions, dtype=bool)
        self.allowed_start = np.asarray(self.allowed_start, dtype=bool)
        if not self.allowed_start.any():
            raise ValueError("no start label is allowed")
        starts = np.where(self.allowed_start)[0]
        if not self.allowed_transitions[starts].any():
            raise ValueError("no allowed path of length > 1 exists")

    @classmethod
    def bio(cls) -> "ConstraintMask":
        # labels O=0, B=1, I=2; the only illegal move is O -> I, and I cannot start
        allowed = np.ones((3, 3), dtype=bool)
        allowed[0, 2] = False
        return cls(allowed_transitions=allowed, allowed_start=np.array([True, True, False]))


def _check_tags(tags: np.ndarray, n_labels: int, length: int) -> np.ndarray:
    tags = np.asarray(tags, dtype=np.int64)
    if tags.shape != (length,):
        raise ValueError(f"expected {length} tags, got shape {tags.shape}")
    if tags.min() < 0 or tags.max() >= n_labels:
        raise ValueError(f"label id out of range [0, {n_labels})")
    return tags


def log_partition(emissions: Tensor, params: CrfParams) -> Tensor:
    """Forward recursion with logsumexp over all label paths. Scalar Tensor."""
    emissions = T.as_tensor(emissions)
    length, n_labels = emissions.shape
    batch = T.reshape(emissions, (1, length, n_labels))
    return T.reshape(log_partition_batch(batch, [length], params), ())


def nll(emissions: Tensor, tags, params: CrfParams) -> Tensor:
    """Negative log-likelihood of the tag path; >= 0 up to float error."""
    emissions = T.as_tensor(emissions)
    length, n_labels = emissions.shape
    tags = _check_tags(tags, n_labels, length)
    batch = T.reshape(emissions, (1, length, n_labels))
    return T.reshape(nll_batch(batch, tags[None, :], [length], params), ())


def viterbi(emissions: np.ndarray, params: CrfParams,
            constraint: ConstraintMask | None = None) -> tuple[list[int], float]:
    """Best path and its score; ties resolve to the lowest label id."""
    emissions = np.asarray(emissions.data if isinstance(emissions, Tensor) else emissions)
    paths, scores = viterbi_batch(emissions[None], [len(emissions)], params, constraint)
    return paths[0], float(scores[0])


def viterbi_batch(emissions: np.ndarray, lengths, params: CrfParams,
                  constraint: ConstraintMask | None = None) -> tuple[list[list[int]], np.ndarray]:
    """Best path and its score for every row of a padded ``[B, T, L]`` batch.

    One float64 recursion over the batch: a row past its length keeps its
    scores, and the backtrace walks all rows at once. Ties resolve to the
    lowest label id. Returns the paths (row ``i`` has ``lengths[i]`` labels)
    and the ``[B]`` scores.
    """
    emissions = np.asarray(emissions, dtype=np.float64)
    bsz, max_len, n_labels = emissions.shape
    lengths = _check_lengths(lengths, bsz, max_len)
    trans = params.transitions.data.astype(np.float64)
    start = params.start_scores.data.astype(np.float64)
    end = params.end_scores.data.astype(np.float64)
    if constraint is not None:
        trans = np.where(constraint.allowed_transitions, trans, NEG_INF)
        start = np.where(constraint.allowed_start, start, NEG_INF)

    steps = int(lengths.max())
    score = start + emissions[:, 0, :]  # [B, L]
    back = np.zeros((bsz, steps, n_labels), dtype=np.int64)
    for t in range(1, steps):
        cand = score[:, :, None] + trans  # [B, from, to]
        back[:, t] = cand.argmax(axis=1)  # argmax returns the lowest index on ties
        best = cand.max(axis=1)
        score = np.where((lengths > t)[:, None], best + emissions[:, t, :], score)
    final = score + end
    infeasible = np.flatnonzero(final.max(axis=1) <= NEG_INF / 2)
    if infeasible.size:
        raise ValueError(f"row {int(infeasible[0])}: no feasible path under the constraint mask")
    rows = np.arange(bsz)
    last = final.argmax(axis=1)
    scores = final[rows, last]

    labels = np.empty((bsz, steps), dtype=np.int64)
    cur = last
    for t in range(steps - 1, 0, -1):
        alive = lengths > t
        labels[:, t] = cur
        cur = np.where(alive, back[rows, t, cur], cur)
    labels[:, 0] = cur
    return [labels[i, :ln].tolist() for i, ln in enumerate(lengths)], scores


# -- batched training path -------------------------------------------------------

def _check_lengths(lengths, bsz: int, max_len: int) -> np.ndarray:
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.shape != (bsz,):
        raise ValueError(f"lengths has shape {lengths.shape}, expected ({bsz},)")
    bad = np.flatnonzero((lengths < 1) | (lengths > max_len))
    if bad.size:
        row = int(bad[0])
        raise ValueError(f"row {row}: length {int(lengths[row])} is outside [1, {max_len}]")
    return lengths


def path_score_batch(emissions: Tensor, tags: np.ndarray, lengths: np.ndarray,
                     params: CrfParams) -> Tensor:
    """Per-sequence gold path scores for padded batches. Returns [B]."""
    tags = np.asarray(tags, dtype=np.int64)
    bsz, max_len, n_labels = emissions.shape
    lengths = _check_lengths(lengths, bsz, max_len)
    if tags.min() < 0 or tags.max() >= n_labels:
        raise ValueError(f"label id out of range [0, {n_labels})")
    pos_mask = np.arange(max_len)[None, :] < lengths[:, None]

    emit = T.take_along_last(emissions, tags)  # [B, T]
    emit = T.where(pos_mask, emit, T.Tensor(np.zeros_like(emit.data)))
    score = emit.sum(axis=1)

    score = score + params.start_scores[tags[:, 0]]
    last = tags[np.arange(bsz), lengths - 1]
    score = score + params.end_scores[last]

    if max_len > 1:
        trans_mask = pos_mask[:, 1:]
        tr = params.transitions[tags[:, :-1], tags[:, 1:]]  # [B, T-1]
        tr = T.where(trans_mask, tr, T.Tensor(np.zeros_like(tr.data)))
        score = score + tr.sum(axis=1)
    return score


def log_partition_batch(emissions: Tensor, lengths: np.ndarray,
                        params: CrfParams) -> Tensor:
    """Per-sequence log partition for padded batches. Returns [B].

    One graph node. The forward pass runs the max-shifted forward recursion
    and keeps each step's softmax weights over the previous label; the
    backward pass is the adjoint of that recursion, walked from the last step
    down. It repeats the arithmetic of the recursion written as tensor ops,
    so values and gradients are the same bit for bit.
    """
    emissions = T.as_tensor(emissions)
    bsz, max_len, n_labels = emissions.shape
    lengths = _check_lengths(lengths, bsz, max_len)
    em = emissions.data
    trans = params.transitions.data
    steps = int(lengths.max())
    alive = [(lengths > t)[:, None] for t in range(steps)]

    alpha = params.start_scores.data.reshape(1, -1) + em[:, 0, :]
    weights = [None]  # weights[t]: [B, from, to]
    for t in range(1, steps):
        lse, w = _logsumexp_weights(alpha[:, :, None] + trans[None], axis=1)
        weights.append(w)
        alpha = np.where(alive[t], lse[:, 0, :] + em[:, t, :], alpha)
    logz, w_end = _logsumexp_weights(alpha + params.end_scores.data.reshape(1, -1), axis=1)

    def backward(g: np.ndarray) -> tuple[np.ndarray, ...]:
        g_alpha = g[:, None] * w_end
        g_end = g_alpha.sum(axis=0)
        g_em = np.zeros_like(em)
        g_trans = np.zeros_like(trans)
        for t in range(steps - 1, 0, -1):
            g_next = np.where(alive[t], g_alpha, 0.0)
            g_em[:, t, :] += g_next
            g_inner = g_next[:, None, :] * weights[t]
            g_trans = g_trans + g_inner.sum(axis=0)
            g_alpha = np.where(alive[t], 0.0, g_alpha) + g_inner.sum(axis=2)
        g_em[:, 0, :] += g_alpha
        return g_em, g_trans, g_alpha.sum(axis=0), g_end

    return T._node(logz[:, 0], (emissions, params.transitions, params.start_scores,
                                params.end_scores), backward)


def nll_batch(emissions: Tensor, tags: np.ndarray, lengths: np.ndarray,
              params: CrfParams) -> Tensor:
    """Per-sequence NLL of the tag paths of a padded batch. Returns [B]."""
    return (log_partition_batch(emissions, lengths, params)
            - path_score_batch(emissions, tags, lengths, params))
