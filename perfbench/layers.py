"""Per-layer metrics from the traced server's span dumps.

A span is ``(id, name, start, end, parent, request, count)``; request 0
means the span ran outside any HTTP request (recovery at boot, the read
model's follower thread).  A span's self time is its duration minus
that of its direct children, which run on the same thread one after
another.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

#: client operation -> the server route it calls
OP_ROUTES = {
    "answer": "sittings.answer",
    "inflight_answer": "sittings.answer",
    "batch": "sittings.answers_batch",
    "batch_submit": "sittings.answers_batch",
    "inflight_batch": "sittings.answers_batch",
    "submit": "sittings.submit",
    "inflight_submit": "sittings.submit",
    "start": "sittings.start",
    "inflight_start": "sittings.start",
    "suspend": "sittings.suspend",
    "inflight_suspend": "sittings.suspend",
    "resume": "sittings.resume",
    "inflight_resume": "sittings.resume",
    "analysis": "analysis",
    "check_analysis": "analysis",
    "report": "report",
    "check_report": "report",
    "analytics": "analytics.analysis",
    "asof": "analytics.analysis",
    "check_analytics": "analytics.analysis",
    "check_results": "results",
    "check_status": "sittings.status",
    "offer": "exams.offer",
    "register": "learners.register",
    "enroll": "enrollments.create",
    "metrics": "metrics",
    "checkpoint": "admin.checkpoint",
}


class Spans:
    """The spans of one server process, indexed for self-time queries."""

    def __init__(self, path: Path) -> None:
        document = json.loads(path.read_text())
        self.marks: Dict[str, float] = document["marks"]
        self.names: Dict[int, str] = {}
        self.by_name: Dict[str, list] = {}
        self.children: Dict[int, float] = {}
        for span in document["spans"]:
            span_id, name, start, end, parent = span[:5]
            self.names[span_id] = name
            self.by_name.setdefault(name, []).append(span)
            if parent:
                self.children[parent] = (
                    self.children.get(parent, 0.0) + end - start
                )

    def select(self, name: str, requests: Optional[bool] = None):
        """Spans called ``name``; ``requests`` keeps only those inside
        (True) or outside (False) an HTTP request."""
        for span in self.by_name.get(name, ()):
            if requests is not None and (span[5] != 0) != requests:
                continue
            yield span

    def self_time(self, span) -> float:
        return span[3] - span[2] - self.children.get(span[0], 0.0)


class LayerTotals:
    """Time, self time, calls and work counts per span name, summed
    over every traced server process of a run."""

    def __init__(self, files: Iterable[Path]) -> None:
        self.by_file = {path: Spans(path) for path in files}
        self.processes = list(self.by_file.values())

    def _collect(self, name, requests=None, self_time=False, outermost=False):
        times: List[float] = []
        counts: List[int] = []
        for process in self.processes:
            for span in process.select(name, requests):
                if outermost and process.names.get(span[4]) == name:
                    continue
                times.append(
                    process.self_time(span) if self_time
                    else span[3] - span[2]
                )
                counts.append(span[6] or 0)
        return times, counts

    def mean(self, name, requests=None, self_time=False, outermost=False):
        times, _ = self._collect(name, requests, self_time, outermost)
        return sum(times) / len(times) if times else 0.0

    def calls(self, name, requests=None) -> int:
        return len(self._collect(name, requests)[0])

    def per_unit(self, name, requests=None, self_time=False) -> float:
        """Summed time over summed work counts (e.g. per answer)."""
        times, counts = self._collect(name, requests, self_time)
        return sum(times) / sum(counts) if sum(counts) else 0.0

    def total_time(self, name, requests=None) -> float:
        return sum(self._collect(name, requests)[0])

    def total_count(self, name, requests=None) -> int:
        return sum(self._collect(name, requests)[1])

    def handler_median(self, route: str) -> Optional[float]:
        times, _ = self._collect("server.handler:" + route)
        return statistics.median(times) if times else None

    def answers(self) -> int:
        """Answers recorded by requests (single answers + batch sizes)."""
        return self.calls("lms.answer", True) + self.total_count(
            "lms.answer_batch", True
        )

    def catchup(self) -> List[float]:
        out = []
        for process in self.processes:
            marks = process.marks
            if "readmodel_caught_up" in marks:
                out.append(
                    marks["readmodel_caught_up"] - marks["readmodel_started"]
                )
        return out


def wire_by_route(
    totals: LayerTotals, latency: Dict[str, List[float]]
) -> Dict[str, float]:
    """Per route: client median minus in-handler median (seconds)."""
    by_route: Dict[str, List[float]] = {}
    for op, samples in latency.items():
        route = OP_ROUTES.get(op)
        if route is not None:
            by_route.setdefault(route, []).extend(samples)
    wire = {}
    for route, samples in sorted(by_route.items()):
        inside = totals.handler_median(route)
        if inside is not None:
            wire[route] = statistics.median(samples) - inside
    return wire


def layer_metrics(
    totals: LayerTotals,
    latency: Dict[str, List[float]],
    write_route: str,
    store: Dict[str, float],
    answers: int,
    import_s: List[float],
) -> Tuple[Dict[str, Tuple[float, str]], Dict[str, Tuple[float, str]]]:
    """``(reported, extra)``: the per-layer metrics every workload
    exercises, and the ones printed only in the run's table."""
    us, ms = 1e6, 1e3
    t = totals
    answered = t.answers() or 1
    # replay = recovery minus loading the checkpoint it starts from
    replay_time = t.total_time("store.recover") - t.total_time(
        "store.checkpoint_load"
    )
    wire = wire_by_route(t, latency)
    fsyncs = store.get("fsyncs", 0)
    records = store.get("records", 0)
    request_spans = t.calls("server.request") or 1
    encode_total = t.total_time("server.encode", True)
    reported = {
        "server.wire_us": (wire.get(write_route, 0.0) * us, "us"),
        "server.validate_us": (
            t.mean("server.validate", outermost=True) * us, "us"),
        "server.encode_us": (encode_total / request_spans * us, "us"),
        "server.import_s": (
            statistics.median(import_s) if import_s else 0.0, "s"),
        "lms.answer_self_us": (
            t.mean("lms.answer", True, self_time=True) * us, "us"),
        "lms.batch_self_us_per_answer": (
            t.per_unit("lms.answer_batch", True, self_time=True) * us, "us"),
        "lms.submit_self_us": (
            t.mean("lms.submit", True, self_time=True) * us, "us"),
        "lms.lock_contended": (
            store.get("contended", 0) / max(answers, 1) * 1000.0,
            "per_1k_answers"),
        "lms.monitor_poll_us": (t.mean("lms.monitor_poll", True) * us, "us"),
        "lms.tracking_record_us": (
            t.mean("lms.tracking_record", True) * us, "us"),
        "delivery.session_answer_us": (
            t.mean("delivery.session_answer", True, self_time=True) * us,
            "us"),
        "delivery.grade_us": (
            t.mean("delivery.grade", True, self_time=True) * us, "us"),
        "items.score_us": (t.mean("items.score", True) * us, "us"),
        "items.score_calls_per_answer": (
            t.calls("items.score", True) / answered, "calls"),
        "scorm.set_value_us": (t.mean("scorm.set_value", True) * us, "us"),
        "scorm.set_value_calls_per_answer": (
            t.calls("scorm.set_value", True) / answered, "calls"),
        "store.append_us": (t.mean("store.append", True) * us, "us"),
        "store.append_batch_us": (
            t.mean("store.append_batch", True) * us, "us"),
        "store.fsyncs_per_answer": (fsyncs / max(answers, 1), "fsyncs"),
        "store.records_per_fsync": (records / max(fsyncs, 1), "records"),
        "store.bytes_per_record": (
            store.get("bytes", 0) / max(records, 1), "bytes"),
        "store.checkpoint_ms": (t.mean("store.checkpoint") * ms, "ms"),
        "store.recover_s": (t.mean("store.recover"), "s"),
        "store.replay_records_per_s": (
            t.calls("store.apply_event", False) / replay_time
            if replay_time > 0 else 0.0, "records/s"),
        "core.add_sitting_us": (t.mean("core.add_sitting") * us, "us"),
        "core.live_analysis_ms": (
            t.mean("core.live_analysis", True) * ms, "ms"),
        "core.report_ms": (t.mean("core.report", True) * ms, "ms"),
        "core.analyze_cohort_ms": (
            t.mean("core.analyze_cohort", True) * ms, "ms"),
        "readmodel.sync_ms": (t.mean("readmodel.sync", True) * ms, "ms"),
        "readmodel.apply_us_per_event": (
            t.mean("readmodel.apply") * us, "us"),
        "readmodel.as_of_ms": (t.mean("readmodel.as_of") * ms, "ms"),
        "readmodel.as_of_replayed": (
            t.total_count("readmodel.as_of")
            / max(t.calls("readmodel.as_of"), 1), "records"),
        "readmodel.catchup_s": (
            statistics.median(t.catchup()) if t.catchup() else 0.0, "s"),
    }
    extra = {
        "lms.lock_wait_ms": (store.get("wait_ms", 0.0), "ms"),
        "store.checkpoint_load_s": (
            t.total_time("store.checkpoint_load")
            / max(t.calls("store.recover"), 1), "s"),
    }
    for route, seconds in wire.items():
        extra[f"server.wire_us[{route}]"] = (seconds * us, "us")
    return reported, extra
