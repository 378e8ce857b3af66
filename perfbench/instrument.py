"""Spans around the calls into each layer, recorded from outside the program.

:class:`Tracer` replaces a function or method attribute with a wrapper that
records a span (name, start, end, parent span, operation id) when tracing
is on, and costs one attribute check when it is off.  Spans stay in memory
until the run ends.  No file of the program is changed: the wrappers are
installed on its modules and classes at run time.

The benchmark's loops are closed (one operation in flight), so the current
operation id is one process-wide value, also for spans recorded on the
service's batch-worker thread.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence

#: One traced checkpoint in this many is serialised again to count its bytes.
CHECKPOINT_SAMPLE = 10

#: Span fields, in the order each span record keeps them.
NAME, START, END, PARENT, OP = range(5)

#: The root span of every traced request in the service, and the span of
#: writing its reply.
HANDLER_SPAN = "service.frontend.handle"
SEND_SPAN = "service.frontend.send"


class Tracer:
    """The spans and counts of one process, and the wrappers that record them."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: List[tuple] = []  # (name, value, op)
        self.enabled = False
        self.op: Optional[int] = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span named ``name`` (when tracing is on)."""
        if not self.enabled:
            return fn(*args, **kwargs)
        stack = self._stack()
        record = [name, 0.0, 0.0, stack[-1] if stack else None, self.op]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        record[START] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[END] = time.perf_counter()
            stack.pop()

    def count(self, name: str, value: float) -> None:
        if self.enabled:
            self.counts.append((name, value, self.op))

    def wrap(self, owner, attr: str, name: str) -> None:
        """Record a span around every call of ``owner.attr``."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        span = self.span

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return span(name, original, *args, **kwargs)

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": self.counts}


def _policy_classes() -> Iterable[type]:
    from busytime.engine.policy import SelectionPolicy

    pending = [SelectionPolicy]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "rank" in cls.__dict__ and not getattr(cls.rank, "__isabstractmethod__", False):
            yield cls


def install_engine_spans(tracer: Tracer) -> None:
    """Spans around ``Engine.solve`` and the calls it makes into lower layers."""
    import busytime.engine.core as engine_core
    from busytime.algorithms.base import Scheduler
    from busytime.core.objectives import CostModel
    from busytime.core.schedule import Schedule

    tracer.wrap(engine_core.Engine, "solve", "engine.solve")
    tracer.wrap(engine_core, "connected_components", "core.components")
    for cls in list(_policy_classes()):
        tracer.wrap(cls, "rank", "engine.policy.rank")
    tracer.wrap(Scheduler, "schedule_under", "algorithms.schedule")
    tracer.wrap(Schedule, "validate", "core.schedule.validate")
    tracer.wrap(CostModel, "lower_bound", "core.objectives.lower_bound")


def install_service_spans(tracer: Tracer) -> None:
    """Spans on the request path of ``busytime serve``, below the handler."""
    import busytime.io as bio
    import busytime.service.service as service_mod
    from busytime.extensions.dynamic import Simulator
    from busytime.service.frontend import JsonRequestHandler
    from busytime.service.sessions import Session, SessionManager
    from busytime.service.store import ResultStore

    install_engine_spans(tracer)
    tracer.wrap(bio, "instance_from_dict", "io.parse")
    tracer.wrap(bio, "solve_report_to_dict", "io.serialize")
    tracer.wrap(service_mod, "canonicalize", "service.canonical.fingerprint")
    tracer.wrap(service_mod, "request_fingerprint", "service.canonical.fingerprint")
    tracer.wrap(service_mod, "decanonicalize_report", "service.canonical.decanonicalize")
    tracer.wrap(ResultStore, "get", "service.store.get")
    tracer.wrap(service_mod.SolveService, "submit", "service.service.submit")
    tracer.wrap(service_mod.SolveService, "result", "service.service.result")
    tracer.wrap(Session, "prepare", "service.sessions.prepare")
    tracer.wrap(SessionManager, "_write_checkpoint", "service.sessions.checkpoint")
    tracer.wrap(Simulator, "feed", "extensions.dynamic.feed")
    tracer.wrap(JsonRequestHandler, "_send_json", SEND_SPAN)

    put_document = ResultStore.put_document
    calls = itertools.count()

    @functools.wraps(put_document)
    def sized_put_document(store, key, document):
        put_document(store, key, document)
        # Serialised size of one checkpoint in CHECKPOINT_SAMPLE, measured
        # after the call so the sizing stays outside every span.
        if tracer.enabled and next(calls) % CHECKPOINT_SAMPLE == 0:
            tracer.count("checkpoint_bytes", len(json.dumps(document)))

    ResultStore.put_document = sized_put_document
    tracer._patches.append((ResultStore, "put_document", put_document))


# -- reading spans back -------------------------------------------------------


def self_times(spans: Sequence[list]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            own[s[PARENT]] -= s[END] - s[START]
    return own


class SpanTable:
    """Per-operation sums of self time and of duration, by span name."""

    def __init__(self, spans: Sequence[list]) -> None:
        own = self_times(spans)
        self.self_s: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.total_s: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        #: time in root spans other than the request handler's: work the
        #: service's batch worker did for the operation on its own thread
        self.worker_s: Dict[int, float] = defaultdict(float)
        for s, t in zip(spans, own):
            op = s[OP]
            self.self_s[op][s[NAME]] += t
            self.total_s[op][s[NAME]] += s[END] - s[START]
            if s[PARENT] is None and s[NAME] != HANDLER_SPAN:
                self.worker_s[op] += s[END] - s[START]

    def mean_self_ms(self, name: str, ops: Sequence[int]) -> float:
        """Mean self time of ``name`` per operation in ``ops``, in ms."""
        if not ops:
            return 0.0
        return 1e3 * sum(self.self_s[op][name] for op in ops) / len(ops)

    def mean_total_ms(self, name: str, ops: Sequence[int]) -> float:
        """Mean time inside ``name`` (children included) per operation, in ms."""
        if not ops:
            return 0.0
        return 1e3 * sum(self.total_s[op][name] for op in ops) / len(ops)


#: Per-layer self-time metrics of the solve path, by span name.
ENGINE_LAYERS = {
    "core.components_ms": "core.components",
    "engine.policy.rank_ms": "engine.policy.rank",
    "algorithms.schedule_ms": "algorithms.schedule",
    "core.schedule.validate_ms": "core.schedule.validate",
    "core.objectives.lower_bound_ms": "core.objectives.lower_bound",
    "engine.unattributed_ms": "engine.solve",
}
