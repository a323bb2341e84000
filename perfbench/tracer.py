"""In-memory span tracer that wraps propspan's public functions from outside.

``Tracer.install`` replaces every public module-level function and every
public method of every class defined in the ``propspan`` modules with a
wrapper that records a span: name, start, end, parent span and run id.
Names bound elsewhere by ``from ... import`` (and functions held in module
dicts, such as the CLI's handler table) are replaced where they are looked
up, so ``spans_to_tags`` called from ``pipeline`` is traced too.

A few hooks count work at the same boundaries: autograd nodes per
``Tensor.backward`` and per ``crf.nll_batch``, real and padded token slots
per ``Encoder.encode``, and tokens per ``crf.viterbi``. Hook work is itself
recorded as a ``perfbench.count`` span, so it never lands in the self time
of the layer that called the traced function.

Spans stay in memory until ``dump`` writes them out as one ``.npz`` file.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter
from pathlib import Path

import numpy as np

# Called inside every tensor op or only to flip state; their cost stays in
# the caller's self time instead of doubling the span count.
EXCLUDED = {"propspan.tensor.as_tensor", "propspan.tensor.no_grad",
            "propspan.tensor.is_grad_enabled"}

# Run both while training (graph recorded) and at inference; calls made under
# no_grad get the name suffix "[nograd]".
GRAD_SPLIT = {"encoder.Encoder.encode", "encoder.SpanClsHead.logits"}

COUNT_SPAN = "perfbench.count"


def count_graph_nodes(root, stop=None) -> int:
    """Op nodes reachable from ``root`` along ``requires_grad`` parents,
    the same walk ``Tensor.backward`` makes; ``stop`` is not entered."""
    seen, stack, nodes = set(), [root], 0
    while stack:
        node = stack.pop()
        if id(node) in seen or node is stop:
            continue
        seen.add(id(node))
        if node._parents:
            nodes += 1
            stack.extend(p for p in node._parents if p.requires_grad)
    return nodes


class Tracer:
    """Records spans of the wrapped functions while ``active`` is true."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list[int]] = []  # [name_id, start_ns, end_ns, parent, run_id]
        self._stack: list[int] = []
        self.counters: Counter = Counter()
        self.run_id = 0
        self.active = False
        self.wrapped = 0
        self._patches: list[tuple[object, str, object]] = []
        self._tensor_mod = None
        self._hook_table: dict = {}

    # -- recording -------------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> list[int]:
        rec = [nid, 0, 0, self._stack[-1] if self._stack else -1, self.run_id]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter_ns()
        return rec

    def _close(self, rec: list[int]) -> None:
        rec[2] = time.perf_counter_ns()
        self._stack.pop()

    def span(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span of the given name."""
        rec = self._open(self.name_id(name))
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(rec)

    def _wrap(self, name: str, fn):
        self.wrapped += 1
        nid = self.name_id(name)
        hook = self._hook_table.get(name)
        grad_nid = None
        if name in GRAD_SPLIT:
            grad_nid, nid = nid, self.name_id(name + "[nograd]")
        tensor_mod = self._tensor_mod

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            use = grad_nid if grad_nid is not None and tensor_mod.is_grad_enabled() else nid
            rec = self._open(use)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if hook is not None:
                self.span(COUNT_SPAN, hook, args, kwargs, result, use == grad_nid)
            return result

        return wrapper

    # -- counting hooks ----------------------------------------------------------

    def _hooks(self) -> dict:
        c = self.counters

        def backward(args, kwargs, result, _):
            c["graph_nodes"] += count_graph_nodes(args[0])

        def nll_batch(args, kwargs, result, _):
            c["crf_graph_nodes"] += count_graph_nodes(result, stop=args[0])

        def encode(args, kwargs, result, grad):
            mask = np.asarray(args[2] if len(args) > 2 else kwargs["mask"], dtype=bool)
            kind = "grad" if grad else "nograd"
            c[f"encode_{kind}_tokens"] += int(mask.sum())
            c[f"encode_{kind}_slots"] += int(mask.size)

        def viterbi(args, kwargs, result, _):
            c["viterbi_tokens"] += len(args[0])

        return {"tensor.Tensor.backward": backward, "crf.nll_batch": nll_batch,
                "encoder.Encoder.encode": encode, "crf.viterbi": viterbi}

    # -- patching ---------------------------------------------------------------

    def install(self, modules: list) -> int:
        """Wrap the public functions of ``modules``; returns how many were wrapped."""
        self._tensor_mod = next(m for m in modules if m.__name__.endswith(".tensor"))
        self._hook_table = self._hooks()
        wrapped: dict[int, object] = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    if f"{mod.__name__}.{name}" not in EXCLUDED:
                        wrapped[id(obj)] = self._wrap(f"{short}.{name}", obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_methods(obj, f"{short}.{name}")
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._set(mod, name, wrapped[id(obj)])
                elif isinstance(obj, dict) and not name.startswith("__"):
                    for key, val in list(obj.items()):
                        if callable(val) and id(val) in wrapped:
                            self._set_item(obj, key, wrapped[id(val)])
        return self.wrapped

    def _wrap_methods(self, cls: type, prefix: str) -> None:
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(val, (classmethod, staticmethod)):
                inner = self._wrap(f"{prefix}.{attr}", val.__func__)
                self._set(cls, attr, type(val)(inner))
            elif inspect.isfunction(val) and val.__name__ != "<lambda>":
                # lambdas are operator sugar that forward to wrapped module functions
                self._set(cls, attr, self._wrap(f"{prefix}.{attr}", val))

    def _set(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, getattr(owner, name) if not isinstance(owner, type)
                              else vars(owner)[name]))
        setattr(owner, name, value)

    def _set_item(self, mapping: dict, key, value) -> None:
        self._patches.append((mapping, key, mapping[key]))
        mapping[key] = value

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)
        self._patches.clear()
        self.active = False

    # -- output ----------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        arr = np.array(self.spans, dtype=np.int64).reshape(-1, 5)
        return {"name_id": arr[:, 0], "start_ns": arr[:, 1], "end_ns": arr[:, 2],
                "parent": arr[:, 3], "run_id": arr[:, 4]}

    def dump(self, path: Path, meta: dict) -> None:
        arrays = self.arrays()
        np.savez(path, names=np.array(self.names), meta=np.array(json.dumps(meta)),
                 **arrays)


def self_times(arrays: dict[str, np.ndarray]) -> np.ndarray:
    """Per-span self time in ns: duration minus the durations of its children."""
    dur = arrays["end_ns"] - arrays["start_ns"]
    parent = arrays["parent"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur - child


def under(arrays: dict[str, np.ndarray], ancestor_ids: set[int]) -> np.ndarray:
    """Boolean per span: some strict ancestor has a name id in ``ancestor_ids``."""
    name, parent = arrays["name_id"].tolist(), arrays["parent"].tolist()
    flag = [False] * len(name)
    for i, p in enumerate(parent):  # parents always precede their children
        if p >= 0:
            flag[i] = flag[p] or name[p] in ancestor_ids
    return np.array(flag, dtype=bool)
