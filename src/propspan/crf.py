"""Linear-chain CRF: forward-backward partition, NLL, Viterbi.

Training-path functions take autograd Tensors so gradients flow back into
emissions and the transition parameters; the padded-batch functions are the
one implementation, and the single-sequence ``log_partition``/``nll`` run
them at batch size 1. ``log_partition_batch`` and ``nll_batch`` are one
graph node each, built like every tensor op, over one private float64
scaled forward-backward pass (Rabiner 1989, section V.A): the backward
returns the marginals (Lafferty et al. 2001, Sutton & McCallum 2012), and
``nll_batch`` subtracts the gold path's score and one-hots. They are exact
in float64 up to rounding, not the arithmetic of a log-space recursion.
Decoding is plain numpy: ``viterbi_batch`` decodes a padded batch, and
``viterbi`` runs it at batch size 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor

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


def _forward_backward(em: np.ndarray, lengths: np.ndarray, params: CrfParams):
    """Scaled float64 forward pass over a padded ``[B, T, L]`` batch.

    Returns each row's log Z (``[B]`` float64) and a function that maps the
    output gradient ``g`` (``[B]``) to the emission, transition, start and
    end gradients, cast to the dtypes of the emissions and the parameters.
    """
    bsz, _, n_labels = em.shape
    steps = int(lengths.max())
    positions = np.arange(steps)
    live = (positions[:, None] < lengths)[:, :, None]  # [T, B, 1]
    psi = np.zeros((steps, bsz, n_labels))  # time-major; padded slots are never read
    np.copyto(psi, em[:, :steps].transpose(1, 0, 2), where=live)
    shift = psi.max(axis=2, keepdims=True)
    psi -= shift
    np.exp(psi, out=psi)
    trans, start, end = (p.data.astype(np.float64) for p in
                         (params.transitions, params.start_scores, params.end_scores))
    peaks = trans.max(), start.max(), end.max()
    trans_exp = np.exp(trans - peaks[0])
    end_exp = np.exp(end - peaks[2])

    # alpha[t] is the forward vector scaled to sum to 1; z[t] is the scale
    alpha = np.empty_like(psi)
    z = np.empty((steps, bsz, 1))
    np.multiply(psi[0], np.exp(start - peaks[1]), out=alpha[0])
    for t in range(steps):
        a = alpha[t]
        if t:
            np.matmul(alpha[t - 1], trans_exp, out=a)
            a *= psi[t]
        np.sum(a, axis=1, keepdims=True, out=z[t])
        a /= z[t]
    rows, last = np.arange(bsz), lengths - 1
    final = alpha[last, rows] @ end_exp
    logz = (np.where(live, np.log(z) + shift, 0.0).sum(axis=(0, 2))
            + last * peaks[0] + peaks[1] + peaks[2] + np.log(final))

    def grads(g: np.ndarray) -> tuple[np.ndarray, ...]:
        # beta[t] is the backward vector under the same scales, restarted at
        # each row's last position, so that alpha[t] * beta[t] is the marginal
        restart = end_exp / final[:, None]
        at_end = positions[:, None, None] == last[:, None]
        u = psi / z
        beta = np.empty_like(alpha)
        beta[-1] = restart
        trans_exp_t = trans_exp.T
        for t in range(steps - 2, -1, -1):
            u[t + 1] *= beta[t + 1]
            np.matmul(u[t + 1], trans_exp_t, out=beta[t])
            np.copyto(beta[t], restart, where=at_end[t])
        weight = np.where(live, np.asarray(g, dtype=np.float64)[:, None], 0.0)
        unary = alpha * beta
        unary *= weight
        pair = u[1:] * weight[1:]
        g_em = np.zeros(em.shape, em.dtype)
        g_em[:, :steps] = unary.transpose(1, 0, 2)
        g_trans = trans_exp * (alpha[:-1].reshape(-1, n_labels).T @ pair.reshape(-1, n_labels))
        return (g_em, g_trans.astype(params.transitions.dtype, copy=False),
                unary[0].sum(axis=0).astype(params.start_scores.dtype, copy=False),
                unary[last, rows].sum(axis=0).astype(params.end_scores.dtype, copy=False))

    return logz, grads


def log_partition_batch(emissions: Tensor, lengths: np.ndarray,
                        params: CrfParams) -> Tensor:
    """Per-sequence log partition for padded batches. Returns [B].

    One graph node, computed in float64 by the scaled forward-backward
    algorithm (Rabiner 1989, section V.A): each position's emissions and the
    transitions are shifted by their max and exponentiated, and the forward
    vector is renormalised at every step. Its backward returns the marginals.
    The value comes back in the dtype of the emissions. Domain: finite
    transition, start and end scores, each set within about 700 nats of its
    own max, so that none of their exponentials underflows to zero.
    """
    emissions = T.as_tensor(emissions)
    bsz, max_len, _ = emissions.shape
    lengths = _check_lengths(lengths, bsz, max_len)
    logz, grads = _forward_backward(emissions.data, lengths, params)
    return T._node(logz.astype(emissions.dtype), (emissions, params.transitions,
                                                  params.start_scores, params.end_scores), grads)


def nll_batch(emissions: Tensor, tags: np.ndarray, lengths: np.ndarray,
              params: CrfParams) -> Tensor:
    """Per-sequence NLL of the tag paths of a padded batch. Returns [B].

    One graph node: ``log_partition_batch`` minus the gold path's score. Its
    gradient is the marginals minus the gold path's one-hots, each summed on
    its own as the two separate graphs would sum them, so values and
    gradients equal that difference bit for bit.
    """
    emissions = T.as_tensor(emissions)
    tags = np.asarray(tags, dtype=np.int64)
    bsz, max_len, n_labels = emissions.shape
    lengths = _check_lengths(lengths, bsz, max_len)
    if tags.min() < 0 or tags.max() >= n_labels:
        raise ValueError(f"label id out of range [0, {n_labels})")
    em = emissions.data
    trans, start, end = params.transitions.data, params.start_scores.data, params.end_scores.data
    logz, grads = _forward_backward(em, lengths, params)

    live = np.arange(max_len) < lengths[:, None]
    last = tags[np.arange(bsz), lengths - 1]
    emit = np.where(live, np.take_along_axis(em, tags[..., None], axis=-1)[..., 0], 0)
    gold = emit.sum(axis=1) + start[tags[:, 0]] + end[last]
    pairs = (tags[:, :-1], tags[:, 1:])
    if max_len > 1:
        gold = gold + np.where(live[:, 1:], trans[pairs], 0).sum(axis=1)

    def backward(g: np.ndarray) -> tuple[np.ndarray, ...]:
        g_em, g_trans, g_start, g_end = grads(g)
        neg = -g
        gold_em = np.zeros_like(em)
        np.put_along_axis(gold_em, tags[..., None],
                          np.where(live, neg.astype(em.dtype)[:, None], 0)[..., None], axis=-1)
        gold_trans = np.zeros_like(trans)
        np.add.at(gold_trans, pairs, np.where(live[:, 1:], neg.astype(trans.dtype)[:, None], 0))
        gold_start, gold_end = np.zeros_like(start), np.zeros_like(end)
        np.add.at(gold_start, tags[:, 0], neg)
        np.add.at(gold_end, last, neg)
        return g_em + gold_em, g_trans + gold_trans, g_start + gold_start, g_end + gold_end

    return T._node(logz.astype(em.dtype) - gold,
                   (emissions, params.transitions, params.start_scores, params.end_scores),
                   backward)
