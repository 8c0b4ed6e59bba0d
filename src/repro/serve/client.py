"""Client for the simulation service.

:class:`ServeClient` is a synchronous client (plain sockets, one
request in flight per connection).  It speaks the JSON-lines protocol
of :mod:`repro.serve.protocol` against a unix socket (``path=``) or TCP
(``host=``/``port=``) endpoint:

* lazy connect on first request, reconnect with deterministic
  exponential backoff after a connection failure;
* per-request timeout (:class:`TimeoutError`);
* optional transparent retry of ``busy`` responses, honouring the
  server's advisory ``retry_after`` (``busy_retries=``);
* convenience verbs (:meth:`simulate`, :meth:`sample`,
  :meth:`analyze`, :meth:`status`, :meth:`drain`) that raise
  :class:`ServeError` on structured failures, plus a raw
  :meth:`request` that returns the :class:`Response` untouched.
"""

from __future__ import annotations

import socket
import time
from typing import Optional

from repro.serve import protocol
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    ProtocolError,
    Request,
    Response,
)

#: Reconnect backoff: BASE * 2**attempt seconds, capped.
RECONNECT_BASE_S = 0.05
RECONNECT_CAP_S = 2.0

#: Default per-request timeout (generous: a cold simulation of a
#: full-length capture takes tens of seconds).
DEFAULT_TIMEOUT_S = 300.0


class ServeError(RuntimeError):
    """A structured error response, surfaced as an exception."""

    def __init__(self, response: Response):
        super().__init__("%s: %s" % (response.error, response.message))
        self.response = response
        self.code = response.error
        self.retry_after = response.retry_after


class ConnectionLost(ConnectionError):
    """The server closed the connection mid-request."""


def _backoff(attempt: int) -> float:
    return min(RECONNECT_CAP_S, RECONNECT_BASE_S * (2 ** attempt))


def _work_request(request_id: int, verb: str, workload: str,
                  mode: str, max_uops: int, config: Optional[dict],
                  windows: int = 0, warmup: int = 0) -> Request:
    return Request(type=verb, id=request_id, workload=workload,
                   mode=mode, max_uops=max_uops,
                   config=dict(config or {}),
                   windows=windows, warmup=warmup)


class ServeClient:
    """Synchronous JSON-lines client.

    Thread-compatible but not thread-safe: share one client per
    thread (each holds one connection with one request in flight).
    """

    def __init__(self, *,
                 path: Optional[str] = None,
                 host: Optional[str] = None,
                 port: int = 0,
                 timeout: float = DEFAULT_TIMEOUT_S,
                 reconnect_attempts: int = 5,
                 busy_retries: int = 0):
        if (path is None) == (host is None):
            raise ValueError("connect to exactly one of path= or host=")
        self.path = path
        self.host = host
        self.port = port
        self.timeout = timeout
        self.reconnect_attempts = reconnect_attempts
        self.busy_retries = busy_retries
        self._sock: Optional[socket.socket] = None
        self._file = None
        self._next_id = 1

    # ---------------------------------------------------------- transport --

    def _connect(self) -> None:
        for attempt in range(self.reconnect_attempts + 1):
            try:
                if self.path is not None:
                    sock = socket.socket(socket.AF_UNIX,
                                         socket.SOCK_STREAM)
                    sock.settimeout(self.timeout)
                    sock.connect(self.path)
                else:
                    sock = socket.create_connection(
                        (self.host, self.port), timeout=self.timeout)
                self._sock = sock
                self._file = sock.makefile("rb")
                return
            except OSError:
                if attempt >= self.reconnect_attempts:
                    raise
                time.sleep(_backoff(attempt))

    def close(self) -> None:
        if self._file is not None:
            try:
                self._file.close()
            except OSError:
                pass
            self._file = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _roundtrip(self, request: Request) -> Response:
        if self._sock is None:
            self._connect()
        try:
            self._sock.sendall(protocol.encode_request(request))
            line = self._file.readline(MAX_LINE_BYTES + 1)
        except socket.timeout:
            self.close()
            raise TimeoutError(
                "no response within %.1fs" % self.timeout) from None
        except OSError:
            self.close()
            raise
        if not line:
            self.close()
            raise ConnectionLost("server closed the connection")
        return protocol.decode_response(line)

    @staticmethod
    def _payload(response: Response) -> dict:
        if not response.ok:
            raise ServeError(response)
        return response.payload

    # ------------------------------------------------------------- public --

    def request(self, request: Request) -> Response:
        """Send one request; returns the raw :class:`Response`.

        Reconnects (with backoff) if the connection was lost before
        the request went out; transparently retries ``busy``
        responses up to ``busy_retries`` times, sleeping the server's
        advisory ``retry_after`` between tries.
        """
        for attempt in range(self.busy_retries + 1):
            response = self._roundtrip(request)
            if (response.ok or response.error != protocol.E_BUSY
                    or attempt >= self.busy_retries):
                return response
            time.sleep(response.retry_after
                       or _backoff(attempt))
        raise AssertionError("unreachable")

    def _take_id(self) -> int:
        request_id = self._next_id
        self._next_id += 1
        return request_id

    def simulate(self, workload: str, mode: str = "",
                 max_uops: int = 0,
                 config: Optional[dict] = None) -> dict:
        """Simulate one (workload, mode); returns the result payload."""
        return self._payload(self.request(_work_request(
            self._take_id(), "simulate", workload, mode, max_uops,
            config)))

    def sample(self, workload: str, mode: str = "",
               max_uops: int = 0, windows: int = 0, warmup: int = 0,
               config: Optional[dict] = None) -> dict:
        """Sampled IPC/CPI estimate; returns the estimate payload."""
        return self._payload(self.request(_work_request(
            self._take_id(), "sample", workload, mode, max_uops,
            config, windows=windows, warmup=warmup)))

    def analyze(self, workload: str, mode: str = "",
                max_uops: int = 0,
                config: Optional[dict] = None) -> dict:
        """Differential analysis report for one workload."""
        return self._payload(self.request(_work_request(
            self._take_id(), "analyze", workload, mode, max_uops,
            config)))

    def status(self) -> dict:
        """Server status snapshot (queue, caches, metrics)."""
        return self._payload(self.request(
            Request(type="status", id=self._take_id())))

    def drain(self) -> dict:
        """Ask the server to drain; returns once in-flight work is done."""
        return self._payload(self.request(
            Request(type="drain", id=self._take_id())))


__all__ = [
    "ConnectionLost",
    "ProtocolError",
    "ServeClient",
    "ServeError",
]
