"""Span recording for the traced benchmark run.

The benchmark records spans from its own files: it wraps the public
functions and methods of each ``repro`` layer at import time, so the
program itself carries no tracing code.  A span is
``(id, parent, name, start, end, request_id, n)``; ``n`` is an optional
count recorded at the same boundary (rows encoded, batch size, cache
hit).  Spans stay in memory and are written as JSON lines at exit.

Only the layers on the default path are wrapped: ``repro.data``,
``repro.text``, ``repro.core``, ``repro.nn``, ``repro.plan``,
``repro.baselines``, ``repro.eval`` (through the Table III model
factories) and ``repro.serve``.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import sys
import threading
import time
from collections import defaultdict

# Spans whose metric is the inclusive wall time of the call (model fits,
# evaluation, export); every other span name reports self time: its
# duration minus the time of its child spans.
INCLUSIVE = ("core.fit", "core.predict", "serve.export")


def inclusive(name: str) -> bool:
    return name in INCLUSIVE or name.endswith("_fit")

_TABLE_MODELS = {
    "RRRE": "baselines.rrre_fit",
    "PMF": "baselines.pmf_fit",
    "DeepCoNN": "baselines.deepconn_fit",
    "NARRE": "baselines.narre_fit",
    "DER": "baselines.der_fit",
    "RRRE-": "baselines.rrre_minus_fit",
}


class Recorder:
    """Thread-safe in-memory span store with a per-thread parent stack."""

    def __init__(self) -> None:
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_request(self):
        stack = self._stack()
        return stack[-1][1] if stack else None

    def add(self, name, start, end, rid=None, n=None, parent=0) -> None:
        """Record a span measured elsewhere (e.g. a queue wait)."""
        self.spans.append((next(self._ids), parent, name, start, end, rid, n))

    def wrap(self, name, fn, count=None, rid_of=None):
        """Return ``fn`` wrapped in a span; ``count(args, result)`` fills ``n``."""
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = rec._stack()
            parent, rid = stack[-1] if stack else (0, None)
            if rid_of is not None:
                rid = rid_of(args) or rid
            sid = next(rec._ids)
            stack.append((sid, rid))
            start = time.perf_counter()
            result = done = None
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                n = count(args, result) if done and count is not None else None
                rec.spans.append((sid, parent, name, start, end, rid, n))

        return wrapper

    def wrap_generator(self, name, fn):
        """Wrap a generator function: each ``next`` is one span."""
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                stack = rec._stack()
                parent, rid = stack[-1] if stack else (0, None)
                start = time.perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    rec.add(name, start, time.perf_counter(), rid, parent=parent)
                    return
                rec.add(name, start, time.perf_counter(), rid, parent=parent)
                yield item

        return wrapper

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, rid, n in self.spans:
                fh.write(
                    json.dumps(
                        {"id": sid, "parent": parent, "name": name,
                         "start": start, "end": end, "rid": rid, "n": n}
                    ) + "\n"
                )


def read_spans(path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def as_dicts(spans) -> list:
    keys = ("id", "parent", "name", "start", "end", "rid", "n")
    return [dict(zip(keys, span)) for span in spans]


def self_times(spans) -> dict:
    """Seconds per span name: self time, or wall time for ``INCLUSIVE``."""
    child = defaultdict(float)
    for s in spans:
        if s["parent"]:
            child[s["parent"]] += s["end"] - s["start"]
    totals = defaultdict(float)
    for s in spans:
        dur = s["end"] - s["start"]
        if inclusive(s["name"]):
            totals[s["name"]] += dur
            totals[s["name"] + "_self"] += dur - child[s["id"]]
        else:
            totals[s["name"]] += dur - child[s["id"]]
    return totals


def p50_ms(spans, name) -> float:
    durs = [s["end"] - s["start"] for s in spans if s["name"] == name]
    return 1000.0 * statistics.median(durs) if durs else 0.0


# ---------------------------------------------------------------------------
# Installing the wrappers
# ---------------------------------------------------------------------------


def _replace_everywhere(orig, new) -> None:
    """Rebind every ``repro`` module attribute that is ``orig`` to ``new``."""
    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for attr, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, attr, new)


def _patch_function(module, attr, make) -> None:
    orig = getattr(module, attr)
    _replace_everywhere(orig, make(orig))


def _patch_method(cls, attr, make) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(make(raw.__func__)))
    else:
        setattr(cls, attr, make(raw))


def install_training(rec: Recorder) -> None:
    """Wrap data/text/core/nn/plan/baselines/eval and the store export."""
    import repro.baselines  # noqa: F401 — loaded so every alias is rebound
    import repro.core.losses
    import repro.data
    import repro.eval.experiments
    import repro.nn
    import repro.plan
    import repro.serve
    from repro.core import RRRE, RRRETrainer
    from repro.core.encoder import (
        BiLSTMReviewEncoder,
        CNNReviewEncoder,
        MeanReviewEncoder,
    )
    from repro.core.nets import EntityNet
    from repro.data import InputSlots, ReviewTextTable
    from repro.nn import GRU, SGD, Adam, Conv1d, RMSprop, Tensor

    def span(name, count=None):
        return lambda fn: rec.wrap(name, fn, count=count)

    def slots_requested(args, _result):
        _, user_ids, _items, slots, _table = args[:5]
        return len(user_ids) * (slots.user_slots.shape[1] + slots.item_slots.shape[1])

    _patch_function(repro.data, "load_dataset", span("data.generate"))
    _patch_function(repro.data, "train_test_split", span("data.split"))
    _patch_function(
        repro.data, "iter_batches",
        lambda fn: rec.wrap_generator("data.batching", fn),
    )
    _patch_method(InputSlots, "build", span("data.slots_build"))
    _patch_method(ReviewTextTable, "build", span("text.table_build"))
    _patch_method(RRRETrainer, "fit", span("core.fit"))
    _patch_method(RRRETrainer, "predict_pairs", span("core.predict"))
    _patch_method(RRRE, "forward", span("core.forward", slots_requested))
    for encoder in (BiLSTMReviewEncoder, CNNReviewEncoder, MeanReviewEncoder):
        _patch_method(
            encoder, "forward",
            span("core.encoder_forward", lambda a, _r: int(a[1].shape[0])),
        )
    _patch_method(EntityNet, "forward", span("core.entitynet_forward"))
    _patch_function(repro.core.losses, "joint_loss", span("core.loss"))
    _patch_method(Tensor, "backward", span("nn.backward"))
    for optim in (SGD, Adam, RMSprop):
        _patch_method(optim, "step", span("nn.optim_step"))
    _patch_function(repro.nn, "clip_grad_norm", span("nn.clip"))
    _patch_method(Conv1d, "forward", span("nn.conv_forward"))
    _patch_method(GRU, "forward", span("nn.gru_forward"))
    _patch_function(repro.plan, "compile_plan", span("plan.compile"))
    _patch_function(repro.serve, "export_store", span("serve.export"))

    def model_factories(orig):
        @functools.wraps(orig)
        def factories(*args, **kwargs):
            wrapped = {}
            for key, factory in orig(*args, **kwargs).items():
                def make(seed, _factory=factory, _name=_TABLE_MODELS[key]):
                    model = _factory(seed)
                    model.fit = rec.wrap(_name, model.fit)
                    return model

                wrapped[key] = make
            return wrapped

        return factories

    _patch_function(
        repro.eval.experiments, "rating_model_factories", model_factories
    )


def install_serving(rec: Recorder) -> None:
    """Wrap the serving layer inside the server process."""
    from repro.serve import (
        EmbeddingStore,
        MicroBatcher,
        RecommendationServer,
        RecommendationService,
        Retriever,
        TTLCache,
    )

    def span(name, count=None):
        return lambda fn: rec.wrap(name, fn, count=count)

    _patch_method(RecommendationService, "recommend", span("serve.service"))
    _patch_method(RecommendationService, "explain", span("serve.explain"))
    _patch_method(RecommendationService, "reload_store", span("serve.reload"))
    _patch_method(TTLCache, "get", span("serve.cache_get", lambda _a, r: int(r[0])))
    _patch_method(EmbeddingStore, "score_users", span("serve.score"))

    # Batcher wait: from submit (request thread) to the start of the
    # retrieval pass that scores the item (batcher thread).
    submitted = {}

    def submit_wrapper(fn):
        @functools.wraps(fn)
        def submit(self, item, *args, **kwargs):
            submitted[id(item)] = (time.perf_counter(), rec.current_request())
            return fn(self, item, *args, **kwargs)

        return submit

    def batch_wrapper(fn):
        traced = rec.wrap("serve.retrieve", fn, lambda a, _r: len(a[1]))

        @functools.wraps(fn)
        def recommend_batch(self, requests, *args, **kwargs):
            now = time.perf_counter()
            for item in requests:
                start, rid = submitted.pop(id(item), (None, None))
                if start is not None:
                    rec.add("serve.batcher_wait", start, now, rid)
            return traced(self, requests, *args, **kwargs)

        return recommend_batch

    _patch_method(MicroBatcher, "submit", submit_wrapper)
    _patch_method(Retriever, "recommend_batch", batch_wrapper)

    # The HTTP layer: one span per request, tagged with the client's id.
    def rid_of(args):
        return args[0].headers.get("X-Request-Id")

    def server_init(fn):
        @functools.wraps(fn)
        def __init__(self, *args, **kwargs):
            fn(self, *args, **kwargs)
            handler = self.RequestHandlerClass
            if not getattr(handler, "_perfbench_traced", False):
                handler.do_GET = rec.wrap("serve.http", handler.do_GET, rid_of=rid_of)
                handler.do_POST = rec.wrap("serve.http", handler.do_POST, rid_of=rid_of)
                handler._perfbench_traced = True

        return __init__

    _patch_method(RecommendationServer, "__init__", server_init)
