"""repro.util — shared infrastructure helpers.

Small policy modules the serving subsystem composes rather than
re-implementing per call site:

* :mod:`repro.util.retry` — retry with decorrelated-jitter backoff,
  deadline budgets and a circuit breaker (used by the replica tailer
  and the ``repro-serve ingest --retry`` client path).
* :mod:`repro.util.ringlog` — a drop-oldest bounded list for
  diagnostic traces that must not grow without bound in long-running
  processes.
* :mod:`repro.util.canonical_json` — the one canonical JSON
  serialisation (payloads, reports, fingerprints, manifests), the
  stdlib's indented sorted layout at C-encoder speed.
"""

from repro.util.ringlog import RingLog
from repro.util.retry import (
    CircuitBreaker,
    CircuitOpenError,
    RetryExhaustedError,
    RetryPolicy,
    backoff_delays,
    call_with_retry,
)

__all__ = [
    "RingLog",
    "CircuitBreaker",
    "CircuitOpenError",
    "RetryExhaustedError",
    "RetryPolicy",
    "backoff_delays",
    "call_with_retry",
]
