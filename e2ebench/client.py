"""A minimal HTTP client for the solver service, one connection per request.

The server answers every request with ``Connection: close``; progress
arrives as Server-Sent Events on ``GET /jobs/{id}/stream``, which the
client reads line by line until the job's terminal event, so a client
waits on the stream, never on a poll interval.
"""

from __future__ import annotations

import http.client
import json
import socket
import time

TIMEOUT = 120.0
TERMINAL = ("done", "failed", "cancelled")


class Client:
    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port

    def request(self, method: str, path: str, payload=None):
        """``(status, decoded JSON body)`` of one request."""
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=TIMEOUT)
        try:
            body = None if payload is None else json.dumps(payload)
            headers = {} if body is None else {
                "Content-Type": "application/json"}
            conn.request(method, path, body=body, headers=headers)
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read() or b"null")
        finally:
            conn.close()

    def stream(self, job_id: str, on_event=None) -> tuple[str, int]:
        """Follow a job's SSE stream to its terminal event.

        Returns ``(terminal state, generation events seen)``.  ``on_event``
        is called with each event name as it arrives.
        """
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=TIMEOUT)
        try:
            conn.request("GET", f"/jobs/{job_id}/stream")
            resp = conn.getresponse()
            if resp.status != 200:
                raise RuntimeError(f"stream of {job_id}: HTTP {resp.status}")
            generations = 0
            while True:
                line = resp.readline()
                if not line:
                    raise RuntimeError(f"stream of {job_id} ended early")
                if not line.startswith(b"event: "):
                    continue
                event = line[7:].strip().decode("ascii")
                if on_event is not None:
                    on_event(event)
                if event == "generation":
                    generations += 1
                elif event in TERMINAL:
                    return event, generations
        finally:
            conn.close()

    def raw(self, data: bytes) -> bytes:
        """Send raw bytes; returns whatever arrives before the close."""
        with socket.create_connection((self.host, self.port),
                                      timeout=TIMEOUT) as sock:
            sock.sendall(data)
            chunks = []
            while True:
                try:
                    chunk = sock.recv(65536)
                except ConnectionResetError:
                    chunk = b""
                if not chunk:
                    return b"".join(chunks)
                chunks.append(chunk)


def timed(fn, *args):
    """``(seconds, fn(*args))``."""
    t0 = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t0, out
