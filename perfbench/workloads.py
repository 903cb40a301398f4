"""The three workloads and the round every run repeats.

A round is one whole server life and its crash:

1. launch the server on a fresh WAL, offer the round's exam, register
   and enroll its learners (``setup_s``);
2. the timed sitting phase, which is what tells the workloads apart;
3. leave a few sittings in flight with acknowledged answers;
4. check ``/results``, ``/analysis`` and ``/report`` against the oracle;
5. SIGKILL the server and relaunch it on the same WAL (``restart_s``);
6. check that every acknowledged submit and in-flight answer survived
   and that the recovered analysis again matches the oracle;
7. on the two-connection workloads, time the teacher's reads on the
   recovered server (on ``review_restart`` they were timed in step 2);
8. SIGKILL and restart once more, and check again (a second
   ``restart_s`` sample);
9. submit the in-flight sittings, check their grades, stop the server.

Every response is kept and checked after the timed phase, so the checks
never slow what is measured.
"""

from __future__ import annotations

import itertools
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import oracle
from harness import BenchError, Client, Ops, Server, dir_bytes, server_argv
from inputs import RoundInputs, Sitting, make_round

#: answers per ``answers:batch`` request: the batch the repository's
#: server benchmark and docs use (``loadgen --batch 10``)
CHUNK = 10
#: sittings left open across each crash
IN_FLIGHT = 4
#: review_restart: submits between two teacher read sets
REVIEW_EVERY = 16
#: two-connection workloads: teacher read sets on the recovered server
PROBE_REPEATS = 10


@dataclass(frozen=True)
class Workload:
    name: str
    serve: Tuple[str, ...]
    restart: Tuple[str, ...]
    connections: int
    mode: str  # "single" | "batch" | "review"
    cohort: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "answer_single",
            ("--fsync", "interval"),
            ("--fsync", "interval", "--readmodel"),
            2,
            "single",
            100,
        ),
        Workload(
            "answer_batch_fsync",
            ("--fsync", "always", "--group-commit"),
            ("--fsync", "always", "--group-commit", "--readmodel"),
            2,
            "batch",
            160,
        ),
        Workload(
            "review_restart",
            ("--readmodel",),
            ("--readmodel",),
            1,
            "review",
            128,
        ),
    )
}


@dataclass
class RoundResult:
    """What one round measured."""

    traced: bool
    setup_s: float = 0.0
    restarts: List[float] = field(default_factory=list)
    phase_s: float = 0.0
    answers: int = 0
    cpu_s: float = 0.0
    wal_bytes: int = 0
    rss_mb: float = 0.0
    store: Dict[str, float] = field(default_factory=dict)
    #: (launch wall time, span file or None) per server process
    launches: List[Tuple[float, Optional[Path]]] = field(
        default_factory=list
    )
    ops: Ops = field(default_factory=Ops)


class Ledger:
    """What the server acknowledged, and the checks still to run."""

    def __init__(self, exam: dict) -> None:
        self.exam = exam
        self.items = {item["item_id"]: item for item in exam["items"]}
        self.lock = threading.Lock()
        self.acked: Dict[str, Dict[str, object]] = {}
        self.submitted: List[str] = []
        self.checks: List[Callable[[], None]] = []

    def ack(self, learner: str, answers) -> None:
        with self.lock:
            self.acked.setdefault(learner, {}).update(answers)

    def later(self, check: Callable[[], None]) -> None:
        with self.lock:
            self.checks.append(check)

    def cohort(self, order: List[str]):
        """``(learner, acked answers)`` in the given submission order."""
        return [(learner, self.acked.get(learner, {})) for learner in order]

    def run_checks(self) -> None:
        checks, self.checks = self.checks, []
        for check in checks:
            check()


def _path(exam_id: str, learner: str, tail: str) -> str:
    return f"/exams/{exam_id}/sittings/{learner}/{tail}"


def _expect_scored(ledger: Ledger, answers, payloads, where: str):
    def check():
        if len(payloads) != len(answers):
            raise oracle.OracleError(f"{where}: {len(payloads)} scores")
        for (item_id, response), got in zip(answers, payloads):
            oracle.check_scored(
                ledger.items[item_id], response, got, f"{where} {item_id}"
            )

    ledger.later(check)


def _expect_graded(ledger: Ledger, learner: str, graded, where: str):
    def check():
        oracle.check_graded(
            ledger.exam, ledger.acked.get(learner, {}), graded, where
        )

    ledger.later(check)


def _submitted(ledger: Ledger, learner: str, graded, where: str) -> None:
    with ledger.lock:
        ledger.submitted.append(learner)
    _expect_graded(ledger, learner, graded, where)


def sit_single(client: Client, ledger: Ledger, exam_id: str,
               s: Sitting) -> None:
    """One sitting, one ``POST .../answer`` per item, then submit."""
    learner = s.learner_id
    client.call("start", "POST", _path(exam_id, learner, "start"))
    for index, (item_id, response) in enumerate(s.answers):
        if index and index == s.suspend_after:
            client.call("suspend", "POST",
                        _path(exam_id, learner, "suspend"))
            client.call("resume", "POST",
                        _path(exam_id, learner, "resume"))
        status, payload = client.call(
            "answer", "POST", _path(exam_id, learner, "answer"),
            {"item_id": item_id, "response": response},
        )
        if status == 200:
            ledger.ack(learner, {item_id: response})
            _expect_scored(ledger, [(item_id, response)],
                           [payload["scored"]], f"answer {learner}")
    status, payload = client.call(
        "submit", "POST", _path(exam_id, learner, "submit")
    )
    if status == 200:
        _submitted(ledger, learner, payload, f"submit {learner}")


def sit_batched(client: Client, ledger: Ledger, exam_id: str,
                s: Sitting) -> None:
    """One sitting as ``answers:batch`` chunks; the last one submits."""
    learner = s.learner_id
    client.call("start", "POST", _path(exam_id, learner, "start"))
    answers = list(s.answers)
    for offset in range(0, len(answers), CHUNK):
        chunk = answers[offset:offset + CHUNK]
        if s.suspend_after and offset <= s.suspend_after < offset + CHUNK:
            client.call("suspend", "POST", _path(exam_id, learner, "suspend"))
            client.call("resume", "POST", _path(exam_id, learner, "resume"))
        last = offset + CHUNK >= len(answers)
        status, payload = client.call(
            "batch_submit" if last else "batch",
            "POST",
            _path(exam_id, learner, "answers:batch"),
            {
                "answers": [
                    {"item_id": i, "response": r} for i, r in chunk
                ],
                "submit": last,
            },
        )
        if status != 200:
            return
        ledger.ack(learner, dict(chunk))
        _expect_scored(ledger, chunk,
                       [entry["scored"] for entry in payload["scored"]],
                       f"batch {learner}")
        if last:
            _submitted(ledger, learner, payload["graded"],
                       f"batch submit {learner}")


def _check_analysis(ledger: Ledger, order: List[str], payload, where: str):
    def check():
        if payload is None:
            raise oracle.OracleError(f"{where}: no payload")
        want = oracle.analyse(ledger.exam, ledger.cohort(order))
        oracle.check_analysis(want, payload, where)

    ledger.later(check)


def _check_report(ledger: Ledger, order: List[str], payload, where: str):
    def check():
        if payload is None:
            raise oracle.OracleError(f"{where}: no payload")
        cohort = ledger.cohort(order)
        want = oracle.analyse(ledger.exam, cohort)
        oracle.check_analysis(want, payload, where)
        kr20 = oracle.report_kr20(ledger.exam, cohort)
        got = (payload.get("reliability") or {}).get("kr20")
        if got is None or abs(got - kr20) > 1e-9:
            raise oracle.OracleError(f"{where}: KR-20 {got!r} != {kr20!r}")

    ledger.later(check)


def teacher_reads(client: Client, ledger: Ledger, exam_id: str,
                  order: List[str], as_of: Optional[Tuple[int, List[str]]],
                  where: str) -> None:
    """One teacher read set: analysis, report, read-model analysis, and
    (given a past LSN and the submits it covers) the time-travel read."""
    _, payload = client.call("analysis", "GET", f"/exams/{exam_id}/analysis")
    _check_analysis(ledger, order, payload, f"{where} analysis")
    _, payload = client.call("report", "GET", f"/exams/{exam_id}/report")
    _check_report(ledger, order, payload, f"{where} report")
    analytics = f"/admin/analytics/exams/{exam_id}/analysis"
    _, payload = client.call("analytics", "GET", analytics)
    _check_analysis(ledger, order, payload, f"{where} analytics")
    if as_of is not None:
        lsn, covered = as_of
        _, payload = client.call("asof", "GET", f"{analytics}?as_of_lsn={lsn}")
        _check_analysis(ledger, covered,
                        payload and payload.get("analysis"),
                        f"{where} as_of_lsn={lsn}")


def _metrics(client: Client) -> dict:
    """The journal position and the counters the per-layer metrics use."""
    status, payload = client.call("metrics", "GET", "/metrics")
    if status != 200:
        raise BenchError("GET /metrics failed")
    store = payload["store"]
    scopes = payload["locks"]["scopes"].values()
    return {
        "last_lsn": store["last_lsn"],
        "records": store["records_appended"],
        "bytes": store["bytes_appended"],
        "fsyncs": store["fsyncs"],
        "contended": sum(s["contended"] for s in scopes),
        "wait_ms": sum(s["wait_ms_total"] for s in scopes),
    }


def _run_parallel(clients: List[Client], work: List[Sitting],
                  sit: Callable) -> None:
    """Drive ``work`` through the clients, each a closed loop."""
    cursor = itertools.count()
    lock = threading.Lock()
    errors: List[BaseException] = []

    def loop(client: Client) -> None:
        try:
            while True:
                with lock:
                    index = next(cursor)
                if index >= len(work):
                    return
                sit(client, work[index])
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    threads = [threading.Thread(target=loop, args=(c,)) for c in clients]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


class RoundRunner:
    """Runs rounds of one workload inside a work directory."""

    def __init__(self, workload: Workload, seed: int, checkout: Path,
                 work: Path, env: dict) -> None:
        self.workload = workload
        self.seed = seed
        self.checkout = checkout
        self.work = work
        self.env = env

    def _launch(self, result: RoundResult, wal: Path, flags, name: str,
                traced: bool) -> Server:
        spans = self.work / f"{name}.spans.json" if traced else None
        argv = server_argv(
            self.checkout, spans,
            ["--port", "0", "--wal-dir", str(wal), *flags],
        )
        server = Server(argv, self.env, self.work / f"{name}.log")
        result.launches.append((server.launched_at, spans))
        return server

    def run(self, index: int, traced: bool) -> RoundResult:
        w = self.workload
        inputs = make_round(self.seed, index, w.cohort, IN_FLIGHT)
        exam_id = inputs.exam_id
        ledger = Ledger(inputs.exam)
        result = RoundResult(traced=traced)
        ops = result.ops
        wal = self.work / f"r{index}-wal"
        name = f"r{index}"

        # 1. set-up
        server = self._launch(result, wal, w.serve, name, traced)
        try:
            admin = Client(server.port, ops)
            self._setup(admin, inputs)
            result.setup_s = time.perf_counter() - server.launched
            clients = [Client(server.port, ops) for _ in range(w.connections)]
            before = _metrics(admin)
            cpu0 = server.cpu_seconds()

            # 2. the timed sitting phase
            start = time.perf_counter()
            mid = self._sitting_phase(clients, admin, ledger, inputs)
            result.phase_s = time.perf_counter() - start
            result.cpu_s = server.cpu_seconds() - cpu0
            result.answers = sum(
                len(ledger.acked.get(s.learner_id, ())) for s in inputs.cohort
            )
            after = _metrics(admin)
            result.store = {k: after[k] - before[k] for k in after
                            if k != "last_lsn"}
            result.wal_bytes = dir_bytes(wal)
            result.rss_mb = server.peak_rss_mb()
            for client in clients:
                client.close()

            # 3. sittings left open across the crash
            for s in inputs.in_flight:
                self._open_sitting(admin, ledger, exam_id, s)

            # 4. the live server's outputs
            live_order, live_analysis = self._check_live(admin, ledger,
                                                         exam_id)
            admin.close()
            if traced:
                server.signal_and_wait_file(result.launches[0][1])
        finally:
            server.kill()

        # 5.-8. crash, restart on the same WAL, check; then crash again
        server = self._launch(result, wal, w.restart, name + "-restart1",
                              traced)
        try:
            result.restarts.append(server.wait_ready())
            admin = Client(server.port, ops)
            order = self._check_recovered(admin, ledger, inputs,
                                          live_order, live_analysis)
            if w.mode != "review":
                self._probe(admin, ledger, exam_id, order, mid)
            admin.close()
            if traced:
                server.signal_and_wait_file(result.launches[-1][1])
        finally:
            server.kill()
        server = self._launch(result, wal, w.restart, name + "-restart2",
                              traced)
        try:
            result.restarts.append(server.wait_ready())
            admin = Client(server.port, ops)
            self._check_recovered(admin, ledger, inputs, live_order,
                                  live_analysis)
            for s in inputs.in_flight:
                self._finish_open(admin, ledger, exam_id, s)
            admin.close()
            server.stop()
        finally:
            server.kill()
        ledger.run_checks()
        shutil.rmtree(wal, ignore_errors=True)
        return result

    def _probe(self, client, ledger, exam_id, order, mid) -> None:
        """The teacher's timed reads on the recovered server; time travel
        goes back to the quiescent point of the sitting phase."""
        lsn, before = mid
        covered = [learner for learner in order if learner in before]
        if covered != order[:len(covered)]:
            raise oracle.OracleError(
                "submits before the quiescent point are not a prefix of "
                "the journal order"
            )
        for _ in range(PROBE_REPEATS):
            teacher_reads(client, ledger, exam_id, order, (lsn, covered),
                          "probe")

    def _setup(self, admin: Client, inputs: RoundInputs) -> None:
        status, _ = admin.call("offer", "POST", "/exams", inputs.exam)
        if status != 201:
            raise BenchError(f"exam offer failed with {status}")
        for learner in inputs.learner_ids():
            admin.call("register", "POST", "/learners",
                       {"learner_id": learner, "name": learner})
            admin.call("enroll", "POST",
                       f"/exams/{inputs.exam_id}/enrollments",
                       {"learner_id": learner})

    def _sitting_phase(self, clients, admin, ledger, inputs):
        """Run the cohort.  The two-connection workloads pause halfway
        and return ``(last_lsn, submitted learners)`` at that quiescent
        point, the target of their time-travel reads."""
        exam_id = inputs.exam_id
        cohort = list(inputs.cohort)
        half = len(cohort) // 2
        mode = self.workload.mode
        if mode == "review":
            return self._review_phase(clients[0], ledger, exam_id, cohort)
        sit = sit_single if mode == "single" else sit_batched

        def one(client, s):
            sit(client, ledger, exam_id, s)

        _run_parallel(clients, cohort[:half], one)
        mid = (_metrics(admin)["last_lsn"], set(ledger.submitted))
        _run_parallel(clients, cohort[half:], one)
        return mid

    def _review_phase(self, client, ledger, exam_id, cohort) -> None:
        half = len(cohort) // 2
        previous = None
        for index, s in enumerate(cohort, start=1):
            sit_batched(client, ledger, exam_id, s)
            if index == half:
                status, _ = client.call("checkpoint", "POST",
                                        "/admin/checkpoint")
                if status != 200:
                    raise BenchError("POST /admin/checkpoint failed")
            if index % REVIEW_EVERY == 0:
                lsn = _metrics(client)["last_lsn"]
                order = list(ledger.submitted)
                teacher_reads(client, ledger, exam_id, order, previous,
                              f"review@{index}")
                previous = (lsn, order)

    def _open_sitting(self, client, ledger, exam_id, s: Sitting) -> None:
        learner = s.learner_id
        client.call("inflight_start", "POST", _path(exam_id, learner, "start"))
        split = max(1, len(s.answers) // 2)
        for item_id, response in s.answers[:split]:
            status, payload = client.call(
                "inflight_answer", "POST", _path(exam_id, learner, "answer"),
                {"item_id": item_id, "response": response},
            )
            if status == 200:
                ledger.ack(learner, {item_id: response})
                _expect_scored(ledger, [(item_id, response)],
                               [payload["scored"]], f"answer {learner}")
        rest = list(s.answers[split:])
        if rest:
            status, payload = client.call(
                "inflight_batch", "POST",
                _path(exam_id, learner, "answers:batch"),
                {"answers": [{"item_id": i, "response": r} for i, r in rest]},
            )
            if status == 200:
                ledger.ack(learner, dict(rest))
                _expect_scored(ledger, rest,
                               [e["scored"] for e in payload["scored"]],
                               f"batch {learner}")
        if s.suspend_after == len(s.answers):
            client.call("inflight_suspend", "POST",
                        _path(exam_id, learner, "suspend"))

    def _results(self, client, ledger, exam_id, op) -> List[str]:
        """``GET /results``: checks it is exactly the acknowledged
        submits, each graded as the oracle grades it; returns its order."""
        status, payload = client.call(op, "GET", f"/exams/{exam_id}/results")
        if status != 200:
            raise BenchError(f"GET /results failed with {status}")
        order = [graded["learner_id"] for graded in payload["results"]]
        if sorted(order) != sorted(ledger.submitted):
            raise oracle.OracleError(
                f"{op}: {len(order)} results for "
                f"{len(ledger.submitted)} acknowledged submits"
            )
        for graded in payload["results"]:
            _expect_graded(ledger, graded["learner_id"], graded,
                           f"{op} {graded['learner_id']}")
        return order

    def _check_live(self, client, ledger, exam_id):
        order = self._results(client, ledger, exam_id, "check_results")
        _, analysis = client.call("check_analysis", "GET",
                                  f"/exams/{exam_id}/analysis")
        _check_analysis(ledger, order, analysis, "live analysis")
        _, report = client.call("check_report", "GET",
                                f"/exams/{exam_id}/report")
        _check_report(ledger, order, report, "live report")
        if self.workload.mode == "review":
            # one connection: the acknowledgement order is the live order
            if order != ledger.submitted:
                raise oracle.OracleError("live order != acknowledged order")
            _, folded = client.call(
                "check_analytics", "GET",
                f"/admin/analytics/exams/{exam_id}/analysis",
            )
            if folded != analysis:
                raise oracle.OracleError("read-model analysis != live")
        return order, analysis

    def _check_recovered(self, client, ledger, inputs, live_order,
                         live_analysis) -> List[str]:
        exam_id = inputs.exam_id
        order = self._results(client, ledger, exam_id, "check_results")
        _, analysis = client.call("check_analysis", "GET",
                                  f"/exams/{exam_id}/analysis")
        _check_analysis(ledger, order, analysis, "recovered analysis")
        if self.workload.mode == "review":
            if order != live_order:
                raise oracle.OracleError("recovered order != live order")
            if analysis != live_analysis:
                raise oracle.OracleError("recovered analysis != live")
        for s in inputs.in_flight:
            status, payload = client.call(
                "check_status", "GET",
                f"/exams/{exam_id}/sittings/{s.learner_id}",
            )
            want = sorted(ledger.acked.get(s.learner_id, {}))
            state = ("suspended" if s.suspend_after == len(s.answers)
                     else "in_progress")
            if status != 200 or sorted(payload["answered"]) != want or (
                payload["state"] != state
            ):
                raise oracle.OracleError(
                    f"in-flight sitting {s.learner_id} did not survive"
                )
        return order

    def _finish_open(self, client, ledger, exam_id, s: Sitting) -> None:
        learner = s.learner_id
        if s.suspend_after == len(s.answers):
            client.call("inflight_resume", "POST",
                        _path(exam_id, learner, "resume"))
        status, payload = client.call(
            "inflight_submit", "POST", _path(exam_id, learner, "submit")
        )
        if status == 200:
            _expect_graded(ledger, learner, payload, f"submit {learner}")
