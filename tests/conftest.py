"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from propspan import tensor as T
from propspan.encoder import SpanClsHead
from propspan.tensor import Tensor


def _masked_full_logits(head: SpanClsHead, hidden_single: Tensor,
                        span: tuple[int, int]) -> Tensor:
    """Oracle for ``SpanClsHead.logits``: the head's stack over [BOS] plus the
    whole sequence ``[T, H]``, every layer at every position, each query's
    attention restricted to {BOS} union span by a per-query mask; the BOS output."""
    s, e = span
    seq_len = hidden_single.shape[0]
    seqs = T.concat([head.params["span.bos"], hidden_single], axis=0)
    seqs = T.reshape(seqs, (1, seq_len + 1, -1))
    allowed_keys = np.zeros(seq_len + 1, dtype=bool)
    allowed_keys[0] = True
    allowed_keys[1 + s:1 + e] = True
    allowed = np.broadcast_to(allowed_keys, (1, 1, seq_len + 1, seq_len + 1))
    return head.out(head.stack(seqs, allowed)[:, 0, :])


@pytest.fixture
def masked_full_logits():
    """The masked full-sequence oracle of the span-cls head."""
    return _masked_full_logits
