"""The load client: raw keep-alive HTTP/1.1 connections and a tally.

A closed loop over pre-encoded request bytes, driven by one selector so
two connections cost one thread and no lock.  Every response is checked
as it arrives (status, and a 200 body against its ``ETag``), its
latency and ``X-Repro-Cache`` kind are tallied, and a seeded sample of
bodies is kept for the byte-for-byte oracle (:mod:`perfbench.oracle`).
"""

from __future__ import annotations

import hashlib
import json
import random
import selectors
import socket
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

#: Statuses a read may answer with and still count as served.
OK_STATUSES = (200, 304)

#: Share of read responses whose bodies the oracle re-renders, and the
#: most it keeps per run.
SAMPLE_RATE = 0.02
MAX_SAMPLES = 200

#: How many failure descriptions a tally retains for the report.
MAX_FAILURE_NOTES = 8

#: Seconds replies in flight at the deadline may take before they fail.
DRAIN_TIMEOUT_S = 30.0


class ResponseError(OSError):
    """The peer closed or sent something that is not an HTTP response."""


@dataclass
class Reply:
    status: int
    headers: dict[str, str]
    body: bytes


def parse_reply(buf: bytearray) -> Optional[Reply]:
    """Pop one complete response off ``buf``, or ``None`` if incomplete."""
    end = buf.find(b"\r\n\r\n")
    if end < 0:
        return None
    lines = bytes(buf[:end]).decode("latin-1").split("\r\n")
    try:
        status = int(lines[0].split(" ", 2)[1])
    except (IndexError, ValueError):
        raise ResponseError(f"bad status line {lines[0]!r}") from None
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    total = end + 4 + int(headers.get("content-length", "0"))
    if len(buf) < total:
        return None
    body = bytes(buf[end + 4:total])
    del buf[:total]
    return Reply(status, headers, body)


def request_bytes(target: str) -> bytes:
    return (f"GET {target} HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n"
            ).encode("ascii")


def etag_matches(reply: Reply) -> bool:
    etag = reply.headers.get("etag", "")
    return etag == '"' + hashlib.sha256(reply.body).hexdigest() + '"'


class Connection:
    """One keep-alive connection with blocking request/response calls."""

    def __init__(self, port: int, timeout: float = 60.0) -> None:
        self.port = port
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = bytearray()

    def close(self) -> None:
        self.sock.close()

    def read_reply(self) -> Reply:
        while True:
            reply = parse_reply(self.buf)
            if reply is not None:
                return reply
            chunk = self.sock.recv(1 << 16)
            if not chunk:
                raise ResponseError("connection closed by peer")
            self.buf += chunk

    def call(self, data: bytes) -> Reply:
        self.sock.sendall(data)
        return self.read_reply()

    def get(self, target: str) -> Reply:
        return self.call(request_bytes(target))

    def get_json(self, target: str) -> dict:
        reply = self.get(target)
        if reply.status != 200:
            raise ResponseError(f"GET {target} answered {reply.status}")
        return json.loads(reply.body)

    def post(self, target: str, body: bytes) -> Reply:
        head = (f"POST {target} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n").encode("ascii")
        return self.call(head + body)


@dataclass
class Tally:
    """Client-side record of one measured phase's reads."""

    seed: int
    latencies: array = field(default_factory=lambda: array("d"))
    attempted: int = 0
    failed: int = 0
    cache: Counter = field(default_factory=Counter)
    samples: list = field(default_factory=list)   # (target, version, body)
    notes: list = field(default_factory=list)

    def __post_init__(self) -> None:
        self._rng = random.Random(f"perfbench:sample:{self.seed}")

    def fail(self, note: str) -> None:
        self.failed += 1
        if len(self.notes) < MAX_FAILURE_NOTES:
            self.notes.append(note)

    def record(self, target: str, reply: Reply, sent: float,
               done: float) -> None:
        if reply.status not in OK_STATUSES:
            self.fail(f"{target}: status {reply.status}")
            return
        if reply.status == 200 and not etag_matches(reply):
            self.fail(f"{target}: body does not hash to its ETag")
            return
        self.latencies.append(done - sent)
        self.cache[reply.headers.get("x-repro-cache", "none")] += 1
        if (reply.status == 200 and len(self.samples) < MAX_SAMPLES
                and self._rng.random() < SAMPLE_RATE):
            version = int(reply.headers.get("x-repro-store-version", "-1"))
            self.samples.append((target, version, reply.body))


def drive_reads(conns: list[Connection], targets: tuple[str, ...],
                requests: tuple[bytes, ...], deadline: float,
                tally: Tally, start: int = 0) -> int:
    """Closed loop: each connection sends its next request on a reply.

    Connection ``k`` walks the target list from offset ``start + k`` in
    steps of the connection count, wrapping around.  No request is sent
    after ``deadline``; replies still in flight then are awaited and
    tallied.  A connection that fails is replaced in ``conns``; the
    caller closes them.  Returns how many requests were sent, so a
    later call can go on where this one stopped.
    """
    selector = selectors.DefaultSelector()
    count = len(conns)
    states = []
    sent = 0
    for k, conn in enumerate(conns):
        conn.sock.setblocking(False)
        state = {"slot": k, "next": start + k, "target": None, "sent": 0.0}
        states.append(state)
        selector.register(conn.sock, selectors.EVENT_READ, state)

    def send(state: dict) -> None:
        nonlocal sent
        index = state["next"] % len(requests)
        state["next"] += count
        state["target"] = targets[index]
        tally.attempted += 1
        sent += 1
        state["sent"] = time.monotonic()
        conns[state["slot"]].sock.sendall(requests[index])

    def reconnect(state: dict) -> None:
        old = conns[state["slot"]]
        selector.unregister(old.sock)
        old.close()
        conn = Connection(old.port)
        conn.sock.setblocking(False)
        conns[state["slot"]] = conn
        selector.register(conn.sock, selectors.EVENT_READ, state)

    try:
        for state in states:
            send(state)
        pending = len(states)
        hard_stop = deadline + DRAIN_TIMEOUT_S
        while pending:
            now = time.monotonic()
            if now > hard_stop:
                for state in states:
                    if state["target"] is not None:
                        tally.fail(f"{state['target']}: no reply")
                break
            for key, _ in selector.select(timeout=0.5):
                state = key.data
                conn = conns[state["slot"]]
                try:
                    chunk = conn.sock.recv(1 << 16)
                    if not chunk:
                        raise ResponseError("connection closed by peer")
                    conn.buf += chunk
                    reply = parse_reply(conn.buf)
                except OSError as error:
                    tally.fail(f"{state['target']}: {error}")
                    reconnect(state)
                    reply = None
                    if time.monotonic() < deadline:
                        send(state)
                    else:
                        state["target"] = None
                        pending -= 1
                    continue
                if reply is None:
                    continue
                done = time.monotonic()
                tally.record(state["target"], reply, state["sent"], done)
                if done < deadline:
                    send(state)
                else:
                    state["target"] = None
                    pending -= 1
    finally:
        selector.close()
    return sent
