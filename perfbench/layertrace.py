"""Per-layer spans recorded from outside graphmem.

A ``Tracer`` replaces chosen graphmem functions by wrappers that record one
span per call: layer name, parent span, start and end. A function is
replaced at every ``graphmem`` module attribute that holds it, because
each caller looks it up in its own module (``training.forward`` and
``cli.predict_scores`` are the same objects as ``model.forward`` and
``training.predict_scores``). ``uninstall`` puts the originals back, so
the program under test is unchanged outside a traced region.

Before each ``Tensor.backward`` the tracer walks the loss tensor's parent
links once and counts the tensors on the tape. The walk is a span of its
own (``trace.tape_walk``), so it is not charged to any layer's self time.
"""

from __future__ import annotations

import sys
import time

from graphmem import checkpoint, cli, fingerprint, model, molgraph, numerics, training

# Layers timed in every traced repeat: (layer name, owner, attribute).
REPEAT_LAYERS = (
    ("cli.main", cli, "main"),
    ("checkpoint.load_checkpoint", checkpoint, "load_checkpoint"),
    ("molgraph.parse_sdf", molgraph, "parse_sdf"),
    ("molgraph.featurize", molgraph, "featurize"),
    ("molgraph.detect_ring_edges", molgraph, "detect_ring_edges"),
    ("fingerprint.circular_fingerprint", fingerprint, "circular_fingerprint"),
    ("training.train", training, "train"),
    ("training.prepare_examples", training, "prepare_examples"),
    ("training.predict_scores", training, "predict_scores"),
    ("training.compute_metrics", training, "compute_metrics"),
    ("training.cross_entropy", training, "cross_entropy"),
    ("training.adam_step", training, "adam_step"),
    ("numerics.backward", numerics.Tensor, "backward"),
    ("model.prepare_graph", model, "prepare_graph"),
    ("model.forward", model, "forward"),
    ("model.init_state", model, "init_state"),
    ("model.attentive_read", model, "attentive_read"),
    ("model.controller_step", model, "controller_step"),
    ("model.memory_step", model, "memory_step"),
)

# Layers timed once, while the inputs are set up. random_graph is traced
# only to count the attempts behind each kept negative.
SETUP_LAYERS = (
    ("molgraph.generate_synthetic", molgraph, "generate_synthetic"),
    ("molgraph.random_graph", molgraph, "random_graph"),
    ("checkpoint.save_checkpoint", checkpoint, "save_checkpoint"),
)

REPORTED_SETUP_LAYERS = ("molgraph.generate_synthetic", "checkpoint.save_checkpoint")

TAPE_WALK = "trace.tape_walk"


def tape_size(loss: numerics.Tensor) -> int:
    """Tensors reachable from ``loss`` through parent links, loss included."""
    seen = {id(loss)}
    stack = [loss]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def _graphmem_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "graphmem" or name.startswith("graphmem."))]


class Tracer:
    """Spans kept in memory; aggregate with :meth:`layer_totals`."""

    def __init__(self, layers):
        self.layers = layers
        self.spans: list[tuple[str, int, float, float] | None] = []
        self.tape_nodes = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for layer, owner, attr in self.layers:
            original = getattr(owner, attr)
            wrapper = self._wrap(layer, original)
            if isinstance(owner, type):
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in _graphmem_modules():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()

    def _span(self, layer: str, fn, args, kwargs):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[span_id] = (layer, parent, start, end)

    def _count_tape(self, loss) -> None:
        self.tape_nodes += tape_size(loss)

    def _wrap(self, layer: str, fn):
        if layer == "numerics.backward":
            def backward(loss, *args, **kwargs):
                self._span(TAPE_WALK, self._count_tape, (loss,), {})
                return self._span(layer, fn, (loss,) + args, kwargs)
            return backward

        def wrapper(*args, **kwargs):
            return self._span(layer, fn, args, kwargs)
        return wrapper

    def layer_totals(self) -> dict[str, tuple[float, float, int]]:
        """Per layer: (total seconds, self seconds, calls). Self time is a
        span's duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for layer, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, tuple[float, float, int]] = {}
        for k, (layer, _parent, start, end) in enumerate(self.spans):
            total, own, calls = totals.get(layer, (0.0, 0.0, 0))
            totals[layer] = (total + end - start, own + end - start - child[k], calls + 1)
        return totals
