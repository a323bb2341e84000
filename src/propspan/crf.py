"""Linear-chain CRF: path scoring, forward-algorithm partition, NLL, Viterbi.

Training-path functions take autograd Tensors so gradients flow back into
emissions and the transition parameters; the padded-batch functions are the
one implementation, and the single-sequence ``path_score``/``log_partition``
run them at batch size 1. ``log_partition_batch`` is a single graph node
whose backward pass is the adjoint of the forward recursion (the
forward-backward marginals; Lafferty et al. 2001, Sutton & McCallum 2012).
Decoding is plain numpy.
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
               scale: float = 0.01, dtype=np.float32) -> "CrfParams":
        if rng is None:
            init = lambda shape: np.zeros(shape, dtype=dtype)
        else:
            init = lambda shape: (rng.normal(0.0, scale, shape)).astype(dtype)
        return cls(
            transitions=Tensor(init((n_labels, n_labels)), requires_grad=True),
            start_scores=Tensor(init((n_labels,)), requires_grad=True),
            end_scores=Tensor(init((n_labels,)), requires_grad=True),
        )

    @property
    def n_labels(self) -> int:
        return self.transitions.shape[0]

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

    def validate_tags(self, tags: np.ndarray) -> None:
        tags = np.asarray(tags)
        if not self.allowed_start[tags[0]]:
            raise ValueError(f"label {tags[0]} cannot start a sequence")
        for a, b in zip(tags[:-1], tags[1:]):
            if not self.allowed_transitions[a, b]:
                raise ValueError(f"transition {a} -> {b} is not allowed")


def _check_tags(tags: np.ndarray, n_labels: int, length: int) -> np.ndarray:
    tags = np.asarray(tags, dtype=np.int64)
    if tags.shape != (length,):
        raise ValueError(f"expected {length} tags, got shape {tags.shape}")
    if tags.min() < 0 or tags.max() >= n_labels:
        raise ValueError(f"label id out of range [0, {n_labels})")
    return tags


def path_score(emissions: Tensor, tags, params: CrfParams) -> Tensor:
    """start + sum of emissions along the path + transitions + end. Scalar Tensor."""
    emissions = T.as_tensor(emissions)
    length, n_labels = emissions.shape
    tags = _check_tags(tags, n_labels, length)
    batch = T.reshape(emissions, (1, length, n_labels))
    return T.reshape(path_score_batch(batch, tags[None, :], [length], params), ())


def log_partition(emissions: Tensor, params: CrfParams) -> Tensor:
    """Forward recursion with logsumexp over all label paths. Scalar Tensor."""
    emissions = T.as_tensor(emissions)
    length, n_labels = emissions.shape
    batch = T.reshape(emissions, (1, length, n_labels))
    return T.reshape(log_partition_batch(batch, [length], params), ())


def nll(emissions: Tensor, tags, params: CrfParams,
        constraint: ConstraintMask | None = None) -> Tensor:
    """Negative log-likelihood of the tag path; >= 0 up to float error."""
    if constraint is not None:
        constraint.validate_tags(np.asarray(tags))
    return log_partition(emissions, params) - path_score(emissions, tags, params)


def margin_loss(emissions: Tensor, tags, params: CrfParams,
                constraint: ConstraintMask | None = None) -> Tensor:
    """Score gap between the Viterbi path and the gold path (perceptron margin)."""
    emissions = T.as_tensor(emissions)
    length, n_labels = emissions.shape
    tags = _check_tags(tags, n_labels, length)
    batch = T.reshape(emissions, (1, length, n_labels))
    return T.reshape(margin_loss_batch(batch, tags[None, :], [length], params, constraint), ())


def viterbi(emissions: np.ndarray, params: CrfParams,
            constraint: ConstraintMask | None = None) -> tuple[list[int], float]:
    """Best path and its score; ties resolve to the lowest label id."""
    emissions = np.asarray(emissions.data if isinstance(emissions, Tensor) else emissions,
                           dtype=np.float64)
    length, n_labels = emissions.shape
    if length < 1:
        raise ValueError("empty sequence")
    trans = params.transitions.data.astype(np.float64).copy()
    start = params.start_scores.data.astype(np.float64).copy()
    end = params.end_scores.data.astype(np.float64)
    if constraint is not None:
        trans[~constraint.allowed_transitions] = NEG_INF
        start[~constraint.allowed_start] = NEG_INF

    score = start + emissions[0]
    back: list[np.ndarray] = []
    for t in range(1, length):
        cand = score[:, None] + trans  # [from, to]
        best_from = cand.argmax(axis=0)  # argmax returns the lowest index on ties
        back.append(best_from)
        score = cand[best_from, np.arange(n_labels)] + emissions[t]
    final = score + end
    if final.max() <= NEG_INF / 2:
        raise ValueError("no feasible path under the constraint mask")
    last = int(final.argmax())
    best_score = float(final[last])
    path = [last]
    for best_from in reversed(back):
        path.append(int(best_from[path[-1]]))
    path.reverse()
    return path, best_score


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

    return T.fused(logz[:, 0], (emissions, params.transitions, params.start_scores,
                                params.end_scores), backward)


def margin_loss_batch(emissions: Tensor, tags: np.ndarray, lengths: np.ndarray,
                      params: CrfParams, constraint: ConstraintMask | None = None) -> Tensor:
    """Per-sequence Viterbi path score minus gold path score. Returns [B]."""
    lengths = _check_lengths(lengths, *emissions.shape[:2])
    best = np.zeros(emissions.shape[:2], dtype=np.int64)
    for i, ln in enumerate(lengths):
        best[i, :ln], _ = viterbi(emissions.data[i, :ln], params, constraint)
    return (path_score_batch(emissions, best, lengths, params)
            - path_score_batch(emissions, tags, lengths, params))


def nll_batch(emissions: Tensor, tags: np.ndarray, lengths: np.ndarray,
              params: CrfParams, per_token: bool = False) -> Tensor:
    """Mean NLL over a padded batch.

    ``per_token`` divides by the total token count instead of the sequence
    count; gradients then stay O(1) in sequence length, which keeps plain
    SGD stable. The objective's argmin is unchanged.
    """
    logz = log_partition_batch(emissions, lengths, params)
    gold = path_score_batch(emissions, tags, lengths, params)
    total = logz - gold
    if per_token:
        return total.sum() * (1.0 / float(np.asarray(lengths).sum()))
    return total.mean()
