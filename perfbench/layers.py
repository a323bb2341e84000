"""Per-layer metrics from the spans and counters of the traced passes.

Every time is a self time: a span's duration minus the time its traced
children cover. The denominators:

- per step: optimizer steps (``optim.Optimizer.step`` calls);
- per batch: encoder calls, one per training step or inference batch;
- per ktok: thousands of real (unpadded) tokens through the layer;
- per call: calls of the named function;
- ``_s`` metrics and ``_calls`` counts: totals per traced pass.

A layer that a workload never runs reads 0.
"""

from __future__ import annotations

import numpy as np

from tracer import COUNT_SPAN, self_times, under

MS = 1e6
S = 1e9

# (metric, unit) in report order; ``per_layer_metrics`` returns exactly these.
METRICS = [
    ("tensor.backward_ms", "ms"), ("tensor.graph_nodes", "count"),
    ("tensor.matmul_ms", "ms"), ("tensor.softmax_ms", "ms"),
    ("tensor.layer_norm_ms", "ms"), ("tensor.gelu_ms", "ms"),
    ("tensor.embedding_ms", "ms"), ("tensor.matmul_calls", "count"),
    ("encoder.encode_ms", "ms"), ("encoder.encode_incl_ms", "ms"),
    ("encoder.encode_nograd_ms_per_ktok", "ms/ktok"),
    ("encoder.encode_nograd_incl_ms_per_ktok", "ms/ktok"),
    ("encoder.span_head_ms", "ms"),
    ("crf.nll_batch_ms", "ms"), ("crf.nll_batch_incl_ms", "ms"), ("crf.graph_nodes", "count"),
    ("crf.viterbi_ms_per_ktok", "ms/ktok"), ("crf.viterbi_calls", "count"),
    ("optim.step_ms", "ms"), ("losses.reweighted_bce_ms", "ms"),
    ("models.decode_self_ms", "ms"),
    ("pipeline.train_self_ms", "ms"), ("pipeline.eval_s", "s"), ("pipeline.fold_s", "s"),
    ("pipeline.pad_efficiency", "ratio"), ("pipeline.pad_slots", "count"),
    ("pipeline.build_si_windows_s", "s"), ("pipeline.build_tc_items_s", "s"),
    ("tokens.tokenize_s", "s"), ("tokens.spans_to_tags_s", "s"),
    ("tokens.extend_context_s", "s"), ("tokens.tags_to_spans_s", "s"),
    ("datasets.load_dataset_s", "s"), ("datasets.spans_for_s", "s"),
    ("metrics.flc_f1_ms", "ms"), ("metrics.span_outcomes_ms", "ms"),
    ("analysis.extract_feature_s", "s"), ("analysis.worsening_features_s", "s"),
    ("stats.mann_whitney_u_ms", "ms"), ("stats.mann_whitney_u_calls", "count"),
    ("checkpoint.save_ms", "ms"), ("checkpoint.load_ms", "ms"),
    ("cli.train_si_s", "s"), ("cli.cv_s", "s"), ("cli.annotate_s", "s"),
    ("cli.score_s", "s"), ("cli.analyze_s", "s"),
    ("trace.overhead_s", "s"), ("trace.spans", "count"),
]
UNITS = dict(METRICS)

# Counts that must repeat exactly between passes of one seed.
REPEATING_COUNTS = ("tensor.graph_nodes", "crf.graph_nodes", "tensor.matmul_calls",
                    "crf.viterbi_calls")


def _div(num: float, den: float) -> float:
    return float(num) / den if den else 0.0


class _Spans:
    def __init__(self, arrays: dict[str, np.ndarray], names: list[str]):
        self.arrays = arrays
        self.ids = {n: i for i, n in enumerate(names)}
        self.name = arrays["name_id"]
        self.self_ns = self_times(arrays)
        self.dur_ns = arrays["end_ns"] - arrays["start_ns"]

    def mask(self, *names: str) -> np.ndarray:
        ids = [self.ids[n] for n in names if n in self.ids]
        return np.isin(self.name, ids)

    def calls(self, *names: str) -> int:
        return int(self.mask(*names).sum())

    def self_ns_of(self, *names: str) -> float:
        return float(self.self_ns[self.mask(*names)].sum())

    def incl_ns_of(self, *names: str) -> float:
        return float(self.dur_ns[self.mask(*names)].sum())

    def inside(self, *names: str) -> np.ndarray:
        return under(self.arrays, {self.ids[n] for n in names if n in self.ids})


def per_layer_metrics(arrays: dict[str, np.ndarray], names: list[str], counters,
                      passes: int, commands: list[str]) -> dict[str, float]:
    """Metric name -> value, averaged over ``passes`` traced passes."""
    sp = _Spans(arrays, names)
    c = counters
    steps = sp.calls("optim.Optimizer.step")
    encode, encode_ng = "encoder.Encoder.encode", "encoder.Encoder.encode[nograd]"
    batches = sp.calls(encode, encode_ng)
    backward = sp.calls("tensor.Tensor.backward")
    nll = "crf.nll_batch"

    def per_step_ms(*n):
        return _div(sp.self_ns_of(*n) / MS, steps)

    def per_batch_ms(name):
        return _div(sp.self_ns_of(f"tensor.{name}") / MS, batches)

    def per_call_ms(name):
        return _div(sp.self_ns_of(name) / MS, sp.calls(name))

    def per_pass_s(*n):
        return _div(sp.self_ns_of(*n) / S, passes)

    train = ("pipeline.train_si", "pipeline.train_tc")
    in_training = sp.inside(*train)
    evals = sp.mask("pipeline.predict_spans", "pipeline.predict_tc_probs") & in_training
    folds = sp.mask("pipeline.train_tc") & sp.inside("pipeline.cross_validate")

    out = {
        "tensor.backward_ms": per_step_ms("tensor.Tensor.backward"),
        "tensor.graph_nodes": _div(c["graph_nodes"], backward),
        "tensor.matmul_ms": per_batch_ms("matmul"),
        "tensor.softmax_ms": per_batch_ms("softmax"),
        "tensor.layer_norm_ms": per_batch_ms("layer_norm"),
        "tensor.gelu_ms": per_batch_ms("gelu"),
        "tensor.embedding_ms": per_batch_ms("embedding"),
        "tensor.matmul_calls": _div(sp.calls("tensor.matmul"), batches),
        "encoder.encode_ms": per_step_ms(encode),
        "encoder.encode_incl_ms": _div(sp.incl_ns_of(encode) / MS, steps),
        "encoder.encode_nograd_ms_per_ktok":
            _div(sp.self_ns_of(encode_ng) / MS, c["encode_nograd_tokens"] / 1000),
        "encoder.encode_nograd_incl_ms_per_ktok":
            _div(sp.incl_ns_of(encode_ng) / MS, c["encode_nograd_tokens"] / 1000),
        "encoder.span_head_ms": per_step_ms("encoder.SpanClsHead.logits"),
        "crf.nll_batch_ms": per_step_ms(nll),
        "crf.nll_batch_incl_ms": _div(sp.incl_ns_of(nll) / MS, steps),
        "crf.graph_nodes": _div(c["crf_graph_nodes"], sp.calls(nll)),
        "crf.viterbi_ms_per_ktok":
            _div(sp.self_ns_of("crf.viterbi") / MS, c["viterbi_tokens"] / 1000),
        "crf.viterbi_calls": _div(sp.calls("crf.viterbi"), passes),
        "optim.step_ms": per_step_ms("optim.Optimizer.step", "optim.sgd_step",
                                     "optim.adamw_step"),
        "losses.reweighted_bce_ms": per_step_ms("losses.reweighted_bce"),
        "models.decode_self_ms": per_call_ms("models.SiTagger.decode"),
        "pipeline.train_self_ms": per_step_ms(*train),
        "pipeline.eval_s": _div(sp.dur_ns[evals].sum() / S, passes),
        "pipeline.fold_s": _div(sp.dur_ns[folds].sum() / S, int(folds.sum())),
        "pipeline.pad_efficiency": _div(c["encode_grad_tokens"], c["encode_grad_slots"]),
        "pipeline.pad_slots": _div(c["encode_grad_slots"], steps),
        "pipeline.build_si_windows_s": per_pass_s("pipeline.build_si_windows"),
        "pipeline.build_tc_items_s": per_pass_s("pipeline.build_tc_items"),
        "tokens.tokenize_s": per_pass_s("tokens.tokenize"),
        "tokens.spans_to_tags_s": per_pass_s("tokens.spans_to_tags"),
        "tokens.extend_context_s": per_pass_s("tokens.extend_context"),
        "tokens.tags_to_spans_s": per_pass_s("tokens.tags_to_spans"),
        "datasets.load_dataset_s": per_pass_s("datasets.load_dataset"),
        "datasets.spans_for_s": per_pass_s("datasets.SpanDataset.spans_for"),
        "metrics.flc_f1_ms": per_call_ms("metrics.flc_f1"),
        "metrics.span_outcomes_ms": per_call_ms("metrics.span_outcomes"),
        "analysis.extract_feature_s": per_pass_s("analysis.extract_feature"),
        "analysis.worsening_features_s": per_pass_s("analysis.worsening_features"),
        "stats.mann_whitney_u_ms": per_call_ms("stats.mann_whitney_u"),
        "stats.mann_whitney_u_calls": _div(sp.calls("stats.mann_whitney_u"), passes),
        "checkpoint.save_ms": per_call_ms("checkpoint.save_checkpoint"),
        "checkpoint.load_ms": per_call_ms("checkpoint.load_checkpoint"),
        "trace.spans": _div(len(sp.name) - sp.calls(COUNT_SPAN), passes),
    }
    out.update(_cli_layer(sp, commands))
    return out


def _cli_layer(sp: _Spans, commands: list[str]) -> dict[str, float]:
    """Self time of the ``cli`` module per command run, keyed ``cli.<command>_s``."""
    cli_ids = [i for n, i in sp.ids.items() if n.startswith("cli.")]
    is_cli = np.isin(sp.name, cli_ids)
    per_run = np.bincount(sp.arrays["run_id"][is_cli], weights=sp.self_ns[is_cli],
                          minlength=len(commands))
    out = {}
    for command in ("train-si", "cv", "annotate", "score", "analyze"):
        runs = [i for i, c in enumerate(commands) if c == command]
        out[f"cli.{command.replace('-', '_')}_s"] = _div(per_run[runs].sum() / S, len(runs))
    return out
