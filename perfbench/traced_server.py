"""Run ``mine-assess serve`` with span recorders at each layer boundary.

Usage::

    PYTHONPATH=src python3 perfbench/traced_server.py SPANS.json serve ...

The launcher wraps public functions of the program's modules (server,
lms, delivery, items, scorm, store, core, readmodel) before the server
is built, then hands the remaining arguments to the program's own CLI.
It changes no file of the program.  A span records its name, start,
end, parent span and request id; the spans stay in memory and are
written to ``SPANS.json`` on SIGUSR1 and again when the server exits.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import signal
import sys
import threading
import time
import types


class Recorder:
    """Spans and marks of this server process."""

    def __init__(self) -> None:
        self.spans: list = []
        self.marks: dict = {}
        self._span_ids = itertools.count(1)
        self._request_ids = itertools.count(1)
        self._local = threading.local()

    def traced(self, fn, name, root=False, amount=None):
        """``fn`` wrapped in a span recorder.

        ``root`` spans open a new request id; the others inherit the id
        of the span they run under.  ``amount(args, result)`` optionally
        gives the span a work count (answers in a batch, records
        replayed).
        """
        spans, local = self.spans, self._local
        span_ids, request_ids = self._span_ids, self._request_ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(span_ids)
            parent, request = stack[-1] if stack else (0, 0)
            if root:
                request = next(request_ids)
            stack.append((span_id, request))
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                count = amount(args, result) if amount is not None else None
                spans.append(
                    (span_id, name, start, end, parent, request, count)
                )

        return wrapper

    def wrap(self, owner, attribute, name, **options) -> None:
        """Replace ``owner.attribute`` with its traced version."""
        setattr(owner, attribute,
                self.traced(getattr(owner, attribute), name, **options))

    def dump(self, path: str) -> None:
        """Write every span recorded so far (atomically) to ``path``."""
        document = {
            "pid": os.getpid(),
            "marks": dict(self.marks),
            "spans": list(self.spans),
        }
        temporary = f"{path}.tmp"
        with open(temporary, "w", encoding="utf-8") as stream:
            json.dump(document, stream, separators=(",", ":"))
        os.replace(temporary, path)


def install(recorder: Recorder) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    import repro.store as store_pkg
    from repro.core.columnar import LiveCohortAnalysis
    from repro.delivery.session import ExamSession
    from repro.items.choice import MultipleChoiceItem
    from repro.items.completion import CompletionItem
    from repro.items.truefalse import TrueFalseItem
    from repro.lms import lms as lms_module
    from repro.lms import persistence
    from repro.lms.monitor import ExamMonitor
    from repro.lms.tracking import TrackingService
    from repro.readmodel import checkpoint as rm_checkpoint
    from repro.readmodel.model import ReadModel
    from repro.readmodel.service import ReadModelService
    from repro.scorm.api import ApiAdapter
    from repro.server import app, handlers, serialize
    from repro.store import events, recovery
    from repro.store.checkpoint import Checkpointer
    from repro.store.journal import Journal

    wrap, marks = recorder.wrap, recorder.marks

    # server: the request, its route handler, validation, encoding
    wrap(app._RequestHandler, "_handle_routed", "server.request", root=True)
    build_router = app.build_router

    def traced_router():
        router = build_router()
        wrapped = type(router)()
        for route in router.routes():
            wrapped.add(
                route.method,
                route.template,
                recorder.traced(
                    route.handler, "server.handler:" + route.name
                ),
                route.name,
            )
        return wrapped

    app.build_router = traced_router
    wrap(serialize.BodySpec, "validate", "server.validate")
    for builder in (
        "scored_to_dict",
        "graded_to_dict",
        "analysis_to_dict",
        "learner_to_dict",
        "report_to_dict",
    ):
        wrap(handlers, builder, "server.encode")
    app.json = types.SimpleNamespace(
        dumps=recorder.traced(json.dumps, "server.encode"), loads=json.loads
    )
    init = app.ExamServer.__init__

    def server_init(self, *args, **kwargs):
        marks.setdefault("init_started_at", time.time())
        init(self, *args, **kwargs)

    app.ExamServer.__init__ = server_init

    # lms mutators and reads
    Lms = lms_module.Lms
    wrap(Lms, "answer", "lms.answer")
    wrap(Lms, "answer_batch", "lms.answer_batch",
         amount=lambda args, result: len(args[3]))
    wrap(Lms, "_submit", "lms.submit")
    wrap(Lms, "start_exam", "lms.start_exam")
    wrap(Lms, "live_analysis", "core.live_analysis")
    wrap(Lms, "report_for", "core.report")
    wrap(lms_module, "analyze_cohort", "core.analyze_cohort")
    wrap(lms_module, "grade_session", "delivery.grade")
    wrap(ExamMonitor, "poll", "lms.monitor_poll")
    wrap(TrackingService, "record", "lms.tracking_record")
    wrap(ExamSession, "answer", "delivery.session_answer")
    for item_class in (MultipleChoiceItem, TrueFalseItem, CompletionItem):
        wrap(item_class, "score", "items.score")
    wrap(ApiAdapter, "LMSSetValue", "scorm.set_value")
    wrap(LiveCohortAnalysis, "add_sitting", "core.add_sitting")

    # store: journal appends, checkpoints, recovery
    wrap(Journal, "append", "store.append")
    wrap(Journal, "append_batch", "store.append_batch",
         amount=lambda args, result: len(args[1]))
    wrap(Checkpointer, "checkpoint", "store.checkpoint")
    store_pkg.recover = recovery.recover = recorder.traced(
        recovery.recover, "store.recover"
    )
    wrap(events, "apply_event", "store.apply_event")
    wrap(persistence, "load_payload", "store.checkpoint_load")
    wrap(persistence, "lms_from_payload", "store.checkpoint_load")

    # readmodel: follower folds, time travel, catch-up at boot
    wrap(ReadModel, "apply", "readmodel.apply")
    wrap(rm_checkpoint, "as_of", "readmodel.as_of",
         amount=lambda args, result: result[1] if result else None)
    service_init = ReadModelService.__init__

    def readmodel_init(self, *args, **kwargs):
        marks["readmodel_started"] = time.perf_counter()
        service_init(self, *args, **kwargs)
        journal = self.journal
        marks["readmodel_target"] = journal.last_lsn if journal else 0

    ReadModelService.__init__ = readmodel_init
    sync = recorder.traced(ReadModelService.sync, "readmodel.sync")

    def readmodel_sync(self):
        applied = sync(self)
        if "readmodel_caught_up" not in marks and (
            self.model.applied_lsn >= marks.get("readmodel_target", 0)
        ):
            marks["readmodel_caught_up"] = time.perf_counter()
        return applied

    ReadModelService.sync = readmodel_sync


def main(argv) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[1:]
    recorder = Recorder()
    install(recorder)
    signal.signal(signal.SIGUSR1, lambda *_: recorder.dump(spans_path))
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
