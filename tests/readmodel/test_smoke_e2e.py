"""End to end over the CLI: ``serve --wal-dir --readmodel``, a loadgen
cohort, then SIGKILL and the offline ``analytics rebuild`` oracle.

The CQRS contract in one run, through real processes: the admin
read-model analysis is bit-identical to the serving tier's live
analysis, and after a crash the journal alone rebuilds the same answer.
"""

import http.client
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import repro

EXAM = "classroom-mid"
STUDENTS = 30


def cli(*args):
    return [sys.executable, "-m", "repro.cli", *args]


def get(url, path):
    host, port = url.split("//")[1].rsplit(":", 1)
    connection = http.client.HTTPConnection(host, int(port), timeout=10)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, json.loads(response.read() or b"null")
    finally:
        connection.close()


def test_serve_readmodel_loadgen_kill_rebuild(tmp_path):
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (src, env.get("PYTHONPATH")) if part
    )
    wal_dir = tmp_path / "wal-readmodel"
    process = subprocess.Popen(
        cli("serve", "--port", "0", "--wal-dir", str(wal_dir), "--readmodel"),
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        line = process.stdout.readline().strip()
        assert line.startswith("serving on http://"), line
        url = line.split()[2]
        subprocess.run(
            cli(
                "loadgen", "--url", url, "--students", str(STUDENTS),
                "--questions", "8", "--workers", "4",
            ),
            check=True,
            env=env,
            stdout=subprocess.DEVNULL,
        )
        # the follower drains its lag, then the admin surface must
        # answer bit-identically to the serving tier
        deadline = time.time() + 30
        while True:
            status, admin = get(
                url, f"/admin/analytics/exams/{EXAM}/analysis"
            )
            _, metrics = get(url, "/metrics")
            if status == 200 and metrics["readmodel"]["lag"] == 0:
                break
            assert time.time() < deadline, (status, metrics)
            time.sleep(0.25)
        status, served = get(url, f"/exams/{EXAM}/analysis")
        assert status == 200
        assert json.dumps(admin, sort_keys=True) == json.dumps(
            served, sort_keys=True
        ), "read model diverged"
        assert metrics["store"]["durable_lsn"] <= metrics["store"]["last_lsn"]
        os.kill(process.pid, signal.SIGKILL)
    finally:
        process.kill()
        process.wait(timeout=10)
        process.stdout.close()

    out = tmp_path / "rm-oracle.json"
    subprocess.run(
        cli(
            "analytics", "rebuild", str(wal_dir), "--exam", EXAM,
            "--out", str(out),
        ),
        check=True,
        env=env,
        stdout=subprocess.DEVNULL,
    )
    oracle = json.loads(out.read_text(encoding="utf-8"))
    assert oracle["journals"] == 1
    assert oracle["summary"]["submits"] == STUDENTS
    assert json.dumps(oracle["analysis"], sort_keys=True) == json.dumps(
        admin, sort_keys=True
    ), "offline oracle diverged"
