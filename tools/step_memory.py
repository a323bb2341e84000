#!/usr/bin/env python3
"""Heap of one train-mode span-cls training step, measured with ``tracemalloc``.

Builds the stock desk corpus (``gen_synth`` at ``SEED``), a desk TC model
with the span-cls head, and one batch of its first 16 training items; then
runs the loss forward and backward once in train mode (dropout on) and prints
what the step allocated, in MB: the heap when backward starts (what the graph
keeps), the peak of the forward, and the peak of the backward (parameter
gradients included). Run from the root of a checkout:

    PYTHONPATH=src python3 tools/step_memory.py
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before numpy is first imported

import tracemalloc  # noqa: E402

import numpy as np  # noqa: E402

from propspan.losses import class_weights, reweighted_bce  # noqa: E402
from propspan.models import TcClassifier  # noqa: E402
from propspan.pipeline import (HyperParams, _multi_hot, build_tc_items,  # noqa: E402
                               desk_encoder_config)
from propspan.synth import SynthConfig, gen_synth  # noqa: E402
from propspan.tokens import Vocab  # noqa: E402

BATCH = 16
SEED = 5


def main() -> None:
    corpus = gen_synth(SynthConfig(seed=SEED))
    hp = HyperParams.desk("tc")
    items = build_tc_items(corpus.train, hp.max_seq_len)
    vocab = Vocab.build([it.window_tokens for it in items])
    model = TcClassifier(desk_encoder_config(len(vocab), hp), vocab, corpus.labels,
                         head_kind="span_cls", seed=SEED)
    batch = items[:BATCH]
    inputs = model.inputs(batch)
    n_classes = len(corpus.labels)
    freq = np.bincount([it.label for it in items], minlength=n_classes)
    weights, target = class_weights(freq), _multi_hot(batch, n_classes)
    rng = np.random.default_rng(SEED)

    mb = 1 / (1 << 20)
    tracemalloc.start()
    logits = model.logits(*inputs, train=True, rng=rng)
    loss = reweighted_bce(logits, target, weights)
    del logits
    entry, forward_peak = tracemalloc.get_traced_memory()
    tracemalloc.reset_peak()
    loss.backward()
    backward_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    print(f"span-cls train step, batch {BATCH}, ids {list(inputs[0].shape)}: "
          f"backward entry {entry * mb:.2f} MB, forward peak {forward_peak * mb:.2f} MB, "
          f"backward peak {backward_peak * mb:.2f} MB")


if __name__ == "__main__":
    main()
