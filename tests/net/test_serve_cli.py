"""``python -m repro serve --workers 2``: the CLI's multi-process path, end to end.

The command is run as a subprocess in its own process group: it must print
its address, answer ``/healthz`` and a seeded ``POST /v1/handle``, and exit
0 after a graceful SIGTERM drain.  The group is killed and reaped whatever
happens, so no worker outlives the test.
"""

from __future__ import annotations

import os
import queue
import re
import signal
import subprocess
import sys
import threading
import time

import repro
from repro import Domain, Policy
from repro.net import BlowfishClient

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
_ADDRESS = re.compile(r"http://([\w.\-]+):(\d+)")


def _pump(stream, lines: queue.Queue) -> None:
    for line in stream:
        lines.put(line)
    lines.put(None)


def _address(proc, lines: queue.Queue, timeout: float = 60.0):
    seen = []
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            line = lines.get(timeout=0.5)
        except queue.Empty:
            continue
        if line is None:
            break
        seen.append(line)
        match = _ADDRESS.search(line)
        if match:
            return match.group(1), int(match.group(2))
    raise AssertionError(f"serve printed no address (exit {proc.poll()}): {seen}")


def test_serve_workers_answers_and_exits_zero_on_sigterm():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", "--workers", "2"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        start_new_session=True,
    )
    lines: queue.Queue = queue.Queue()
    threading.Thread(target=_pump, args=(proc.stdout, lines), daemon=True).start()
    try:
        host, port = _address(proc, lines)
        with BlowfishClient(host, port) as client:
            assert client.healthz()["status"] == "ok"
            assert client.last_status == 200
            response = client.handle(
                {
                    "policy": Policy.line(
                        Domain.integers("salary_bucket", 100)
                    ).to_spec(),
                    "epsilon": 0.5,
                    "dataset": {"name": "demo"},
                    "queries": [{"kind": "range", "lo": 40, "hi": 60}],
                    "session": "cli-test",
                    "seed": 0,
                }
            )
            assert client.last_status == 200, response
            assert response["ok"] is True
            assert response["meta"]["epsilon_spent"] == 0.5
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 0
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait(timeout=30)
        proc.stdout.close()
