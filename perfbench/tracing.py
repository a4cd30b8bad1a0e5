"""In-memory span tracer that times calls into deepmta from outside the package.

deepmta modules bind the names they import at import time (``from .model
import forward_batch``), so a call is intercepted by replacing the attribute
on the *importing* module, e.g. ``deepmta.trainer.forward_batch``. Nothing
inside the package changes; ``uninstall`` restores every original.

A span is (id, name, start, end, parent, workload, journey, attrs). The
parent comes from a thread-local stack, so spans opened by the attribution
thread pool nest under their own ``attribute_journey`` span; a worker's
outermost span takes the innermost span the main thread has open through
``span`` (the CLI stage) as its parent. Spans stay in memory until
``write``.
"""

from __future__ import annotations

import gzip
import importlib
import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import numpy as np

# (module attribute, span name) pairs wrapped by ``install``. The span name
# is the defining module plus the function, so "journey.load_journeys" is the
# same layer whether cli or a test imported it.
_WRAPPED = {
    "deepmta.trainer": [
        ("forward_batch", "model.forward"),
        ("backward_batch", "model.backward"),
        ("encode_journey", "journey.encode"),
    ],
    "deepmta.attribution": [
        ("forward_batch", "model.forward"),
        ("masked_accuracy_batch", "attribution.masked_accuracy"),
        ("encode_journey", "journey.encode"),
    ],
    "deepmta.cli": [
        ("attribute_journey", "attribution.journey"),
        ("save_attributions", "attribution.save_attributions"),
        ("load_attributions", "attribution.load_attributions"),
        ("generate_synthetic", "journey.generate_synthetic"),
        ("load_journeys", "journey.load_journeys"),
        ("load_vocabulary", "journey.load_vocabulary"),
        ("save_journeys", "journey.save_journeys"),
        ("save_vocabulary", "journey.save_vocabulary"),
        ("load_checkpoint", "model.load_checkpoint"),
        ("save_checkpoint", "model.save_checkpoint"),
        ("aggregate_channels", "report.aggregate_channels"),
        ("last_click_report", "report.last_click_report"),
        ("emit_report", "report.emit_report"),
        ("train", "trainer.train"),
        ("evaluate_roc", "trainer.evaluate_roc"),
        ("save_loss_history", "trainer.save_loss_history"),
        ("save_roc_csv", "trainer.save_roc_csv"),
    ],
}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    workload: str
    journey: str | None
    attrs: dict | None

    @property
    def seconds(self) -> float:
        return self.end - self.start


def prefix_keys(masks: np.ndarray) -> np.ndarray:
    """One int64 key per (row, t) naming the node (t, mask[0..t]).

    The causal model's state at step t depends only on the first t+1 mask
    bits, so distinct keys are the steps a prefix trie would evaluate.
    """
    bits = np.asarray(masks) > 0
    n = bits.shape[1]
    codes = np.cumsum(bits.astype(np.int64) << np.arange(n, dtype=np.int64), axis=1)
    return ((codes << 6) | np.arange(n, dtype=np.int64)).ravel()


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- span bookkeeping ---------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int | None:
        if stack:
            return stack[-1]
        return self._root[-1] if self._root else None

    @contextmanager
    def span(self, name: str, **attrs):
        """A span opened by the benchmark itself (a pass or a CLI stage)."""
        stack = self._stack()
        sid = next(self._ids)
        parent = self._parent(stack)
        stack.append(sid)
        self._root.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._root.pop()
            stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, self.workload, None, attrs or None))

    def _wrap(self, fn, name: str, describe):
        tracer = self

        def traced(*args, **kwargs):
            local = tracer._local
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = tracer._parent(stack)
            outer_journey = getattr(local, "journey", None)
            outer_keys = getattr(local, "prefix_keys", None)
            if name == "attribution.journey":
                # spans inside carry this journey; its masks are collected
                # for the distinct-prefix count
                local.journey = args[1].user_id
                local.prefix_keys = []
            stack.append(sid)
            try:
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    stack.pop()
                attrs = describe(tracer, args, kwargs, result) if describe else None
                journey = getattr(local, "journey", None)
                tracer.spans.append(Span(sid, name, start, end, parent, tracer.workload, journey, attrs))
                return result
            finally:
                local.journey = outer_journey
                local.prefix_keys = outer_keys

        traced.__wrapped__ = fn
        return traced

    # -- install / uninstall ------------------------------------------------

    def install(self) -> None:
        for module_name, names in _WRAPPED.items():
            module = importlib.import_module(module_name)
            for attr, span_name in names:
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, span_name, _DESCRIBE.get(span_name)))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


# -- per-call attributes ----------------------------------------------------


def _describe_forward(tracer, args, kwargs, result):
    features = args[0]
    training = kwargs.get("training", args[3] if len(args) > 3 else False)
    return {"rows": int(features.shape[0]), "steps": int(features.shape[1]), "training": bool(training)}


def _describe_backward(tracer, args, kwargs, result):
    grad_logits = args[1] if len(args) > 1 else kwargs["grad_logits"]
    return {"rows": int(grad_logits.shape[0]), "steps": int(grad_logits.shape[1])}


def _describe_masked(tracer, args, kwargs, result):
    masks = np.asarray(args[2] if len(args) > 2 else kwargs["masks"])
    keys = getattr(tracer._local, "prefix_keys", None)
    if keys is not None:
        keys.append(prefix_keys(masks))
    return {"rows": int(masks.shape[0]), "steps": int(masks.shape[1])}


def _describe_journey(tracer, args, kwargs, result):
    keys = tracer._local.prefix_keys
    distinct = int(len(np.unique(np.concatenate(keys)))) if keys else 0
    return {
        "method": result.method,
        "unattributed": bool(result.unattributed),
        "events": len(args[1].events),
        "distinct_prefix_steps": distinct,
    }


_DESCRIBE = {
    "model.forward": _describe_forward,
    "model.backward": _describe_backward,
    "attribution.masked_accuracy": _describe_masked,
    "attribution.journey": _describe_journey,
}
