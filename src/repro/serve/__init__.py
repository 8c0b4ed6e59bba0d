"""Long-running simulation service: server, client, load generator.

The serving stack turns the one-shot sweep machinery into a resident
service (DESIGN.md §4h):

* :mod:`repro.serve.protocol` — JSON-lines wire protocol (typed
  requests/responses, error codes, size limits).
* :mod:`repro.serve.coalesce` — bounded LRU result tier and
  single-flight duplicate suppression.
* :mod:`repro.serve.jobs` — picklable job descriptions bridging
  requests to the fault-tolerant scheduler.
* :mod:`repro.serve.server` — the asyncio server (admission control,
  batching executor, metrics, drain) plus a background-thread host.
* :mod:`repro.serve.client` — synchronous client with
  reconnect/backoff and busy-retry.
* :mod:`repro.serve.loadgen` — deterministic seeded closed-loop load
  generator with latency/tier reporting.
"""

from repro.serve.client import (
    ConnectionLost,
    ServeClient,
    ServeError,
)
from repro.serve.coalesce import LRUTier, SingleFlight
from repro.serve.jobs import (
    ServeJob,
    disk_cacheable,
    execute_serve_job,
    job_from_request,
    request_key,
)
from repro.serve.loadgen import (
    LoadReport,
    LoadSpec,
    build_schedule,
    run_load,
)
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    Request,
    Response,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
)
from repro.serve.server import BackgroundServer, SimulationServer

__all__ = [
    "BackgroundServer", "ConnectionLost",
    "LRUTier", "LoadReport", "LoadSpec", "MAX_LINE_BYTES",
    "PROTOCOL_VERSION", "ProtocolError", "Request", "Response",
    "ServeClient", "ServeError", "ServeJob", "SimulationServer",
    "SingleFlight", "build_schedule", "decode_request",
    "decode_response", "disk_cacheable", "encode_request",
    "encode_response", "execute_serve_job", "job_from_request",
    "request_key", "run_load",
]
