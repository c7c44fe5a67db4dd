"""A ``python -m repro serve --workers 1`` subprocess and its HTTP client side.

The traced variant starts the server through ``launcher.py``, which
installs the span recorder before handing over to the CLI and writes the
spans when the server drains.
"""

from __future__ import annotations

import http.client
import json
import os
import subprocess
import sys
import threading
import time

from repro.serving.fleet import parse_announce

HERE = os.path.dirname(os.path.abspath(__file__))
TOKEN_ENV = "PERFBENCH_TOKEN"
COME_UP_TIMEOUT_S = 60.0


class Server:
    """One server process; ``stop()`` drains it and waits until it exits."""

    def __init__(
        self,
        model_path: str,
        env: dict,
        token: str,
        spans_out: str | None = None,
        cpu: int | None = None,
    ) -> None:
        serve_args = [
            "--model", model_path, "--port", "0", "--workers", "1",
            "--auth-token-env", TOKEN_ENV,
        ]
        if spans_out is None:
            argv = [sys.executable, "-m", "repro", "serve", *serve_args]
        else:
            argv = [sys.executable, os.path.join(HERE, "launcher.py"), spans_out, *serve_args]
        self.token = token
        self.cpu = cpu  # the CPU the server is pinned to, if any
        self.proc = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env={**env, TOKEN_ENV: token},
        )
        if cpu is not None:
            # Before the interpreter starts its threads, which inherit it.
            os.sched_setaffinity(self.proc.pid, {cpu})
        self.lines: list[str] = []
        self.announce: dict | None = None
        self._announced = threading.Event()
        self._pump = threading.Thread(target=self._read, daemon=True)
        self._pump.start()
        if not self._announced.wait(COME_UP_TIMEOUT_S) or self.announce is None:
            self.kill()
            raise RuntimeError("server did not come up:\n" + "".join(self.lines))
        self.host = self.announce["host"]
        self.port = self.announce["port"]

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.lines.append(line)
            if self.announce is None:
                self.announce = parse_announce(line)
                if self.announce is not None:
                    self._announced.set()
        self._announced.set()

    def wait_healthy(self, timeout: float = 30.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                status, body = self.call("GET", "/healthz")
            except OSError:
                status, body = None, None
            if status == 200 and body.get("status") == "ok":
                return
            time.sleep(0.02)
        raise RuntimeError("server never became healthy:\n" + "".join(self.lines))

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=60)

    def call(self, method: str, path: str, payload=None, conn=None):
        """One request; returns (status, decoded JSON body)."""
        own = conn is None
        if own:
            conn = self.connect()
        headers = {"Authorization": f"Bearer {self.token}"}
        body = None
        if payload is not None:
            body = json.dumps(payload)
            headers["Content-Type"] = "application/json"
        try:
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            raw = response.read()
            return response.status, (json.loads(raw) if raw else None)
        finally:
            if own:
                conn.close()

    # -- /proc readings ----------------------------------------------------
    def cpu_s(self) -> float:
        """utime + stime of the server process, in seconds."""
        with open(f"/proc/{self.proc.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        ticks = os.sysconf("SC_CLK_TCK")
        return (int(fields[11]) + int(fields[12])) / ticks

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.proc.pid)

    # -- shutdown ----------------------------------------------------------
    def stop(self, timeout: float = 30.0) -> int:
        if self.proc.poll() is None:
            self.proc.terminate()
        try:
            code = self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            code = self.proc.returncode
        self._pump.join(timeout=10)
        return code

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=10)
        self._pump.join(timeout=10)


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set size (VmHWM) of a process, in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc status")
