"""Starting, talking to and stopping a ``repro serve`` process."""

import http.client
import json
import os
import select
import signal
import subprocess
import sys
import time

from perfbench import ROOT, child_env


class DaemonError(RuntimeError):
    """The daemon did not start, answer or stop as expected."""


class Daemon:
    """One ``repro serve`` child process.

    ``traced`` starts it through :mod:`perfbench.launcher`, which wraps
    the layer functions and writes its spans to ``spans_path`` on drain.
    The constructor returns once ``GET /health`` answers; ``boot_s`` is
    the time from spawn to that answer.
    """

    def __init__(self, serve_args, workdir, traced=False, spans_path=None,
                 timeout=120.0):
        if traced:
            argv = [sys.executable, "-m", "perfbench.launcher", spans_path, "--"]
        else:
            argv = [sys.executable, "-m", "repro"]
        argv += ["serve", *serve_args, "--port", "0"]
        self._log = open(os.path.join(workdir, "daemon.log"), "ab")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(),
            stdout=subprocess.PIPE, stderr=self._log,
        )
        try:
            banner = self._read_line(timeout)
            if b"http://" not in banner:
                raise DaemonError(f"unexpected serve banner {banner!r}")
            address = banner.split(b"http://")[1].split()[0].decode()
            self.host, port = address.rsplit(":", 1)
            self.port = int(port)
            self._wait_healthy(start + timeout)
        except BaseException:
            self.stop()
            raise
        self.boot_s = time.perf_counter() - start

    def _read_line(self, timeout):
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        if not ready:
            raise DaemonError("daemon printed no banner")
        return self.proc.stdout.readline()

    def _wait_healthy(self, deadline):
        while True:
            try:
                status, _doc = self.request("GET", "/health")
                if status == 200:
                    return
            except OSError:
                pass
            if time.perf_counter() > deadline or self.proc.poll() is not None:
                raise DaemonError("daemon never became healthy")
            time.sleep(0.005)

    def connect(self):
        return http.client.HTTPConnection(self.host, self.port, timeout=120)

    def request(self, method, path, doc=None):
        """One request on its own connection; ``(status, parsed JSON body)``."""
        conn = self.connect()
        try:
            return call(conn, method, path, doc)
        finally:
            conn.close()

    def stop(self, timeout=60.0):
        """SIGTERM (graceful drain), then kill if it does not exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()
        return self.proc.returncode


def call(conn, method, path, doc=None):
    body = json.dumps(doc).encode() if doc is not None else None
    headers = {"Content-Type": "application/json"} if body is not None else {}
    conn.request(method, path, body=body, headers=headers)
    response = conn.getresponse()
    payload = response.read()
    return response.status, json.loads(payload) if payload else None
