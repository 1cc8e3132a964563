"""HTTP/1.1 request framing and response heads, as bytes.

The serving stack's one request-head parser.  The API server
(:mod:`repro.service.eventloop`) and the ``balance`` relay
(:mod:`repro.service.balance`) both frame requests with
:func:`parse_request_head` and :func:`request_body`, so the same
malformed input gets the same answer from either front end:

* a request line that does not parse, or names a version other than
  HTTP/1.x, answers a bare JSON envelope (no status line — the
  stdlib's HTTP/0.9 degradation) and closes: 400, 414, 505;
* ``GET /path`` without a version is an HTTP/0.9 simple request;
* a head beyond :data:`MAX_HEAD_BYTES` answers a framed 431;
* a control character in the request line is a bare 400.  A header
  line that is not ``token ":" value``, or whose value holds a NUL or a
  CR that does not end the line, is a framed 400 with ``Connection:
  close``: the stdlib header parser breaks lines at a bare CR and stops
  at a malformed name, so such a head would reach a stdlib backend as
  different headers than this parser read;
* a POST must frame its body with ``Content-Length``: chunked is 400,
  a missing length 411, a garbage one 400, an oversized one 413, all
  with ``Connection: close``;
* any other method's declared body is drained (at most
  :data:`MAX_DISCARDED_BODY` bytes) so pipelined requests stay in sync.

Both front ends also write their response heads with
:func:`response_head` (one ``Server`` and one cached ``Date``), and
both answer an ``Expect: 100-continue`` POST whose body is not yet
buffered with :data:`CONTINUE`.
"""

from __future__ import annotations

import functools
import re
import time
from email.utils import formatdate
from http.client import responses as _REASONS
from typing import NamedTuple, Optional

from repro.service.api import MAX_BODY_BYTES, json_bytes

__all__ = ["CONTINUE", "HeadError", "MAX_DISCARDED_BODY",
           "MAX_HEAD_BYTES", "MAX_REQUEST_LINE", "RequestHead", "envelope",
           "error_reply", "json_fields", "parse_request_head",
           "request_body", "response_head", "split_fields"]

#: Longest tolerated request line (stdlib parity: 65536 + fudge).
MAX_REQUEST_LINE = 65536

#: Total request-head bound (line + headers) before 431.
MAX_HEAD_BYTES = 1 << 20

#: Upper bound on a drained non-POST body.
MAX_DISCARDED_BODY = 1 << 20

#: The interim answer to ``Expect: 100-continue`` when the body has not
#: arrived yet (without it curl waits 1 s before sending any body).
CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"

#: Control characters refused in a request line (``http.client`` will
#: not send a target containing them).  HTAB separates like a space.
_CONTROL = re.compile(rb"[\x00-\x08\x0a-\x1f\x7f]")

#: A whole header section: ``token ":" value`` lines, each ending in an
#: optional CR and an LF, then the blank line.  No obs-fold, no space
#: before the colon, and no CR or NUL in a value (RFC 9110 §5.5).
_FIELD_LINES = re.compile(
    rb"(?:[!#$%&'*+\-.^_`|~0-9A-Za-z]+:[^\x00\r\n]*\r?\n)*\r?\n")

_STATUS_LINES = {code: f"HTTP/1.1 {code} {reason}\r\n".encode("latin-1")
                 for code, reason in _REASONS.items()}


class HeadError(Exception):
    """A request that is answered with an error and a closed connection.

    ``bare`` answers come before HTTP/1.x framing was agreed (the
    request line never parsed, or named an unsupported version): the
    JSON envelope is the whole reply, with no status line.  Every other
    answer is framed and carries ``Connection: close``.
    """

    def __init__(self, status: int, message: str, bare: bool = False) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.bare = bare


class RequestHead(NamedTuple):
    method: str
    target: str
    #: Header fields by title-cased name (a repeated name keeps the last).
    headers: dict[str, str]
    #: The client asked to close after this answer.
    close: bool
    #: HTTP/0.9: answer with the bare body, then close.
    simple: bool = False
    #: An HTTP/1.1 ``Expect: 100-continue``.
    expect_continue: bool = False


def split_fields(block: bytes) -> list[tuple[str, str]]:
    """``(name, value)`` pairs of a head's field lines, stripped."""
    fields = []
    for raw in block.split(b"\n"):
        name, sep, value = raw.partition(b":")
        if sep:
            fields.append((name.decode("latin-1").strip(),
                           value.decode("latin-1").strip()))
    return fields


def _find_head_end(buf: bytearray, pos: int) -> tuple[int, int]:
    """``(index of the \\n ending the blank line, resume position)``.

    The index is -1 while the head is incomplete; scanning resumes from
    the returned position (always a line start), so repeated partial
    fills stay linear in total bytes received.
    """
    while True:
        nl = buf.find(b"\n", pos)
        if nl < 0:
            return -1, pos
        if buf[pos:nl].rstrip(b"\r") == b"":
            return nl, 0
        pos = nl + 1


def parse_request_head(buf: bytearray, eof: bool, scan_pos: int = 0
                       ) -> tuple[Optional[RequestHead], int]:
    """Consume one request head from the front of ``buf``.

    Returns ``(head, 0)`` once a head was consumed, or ``(None,
    resume)`` while more bytes are needed; pass ``resume`` back as
    ``scan_pos`` with the next fill.  ``None`` with ``eof`` set means
    the client closed cleanly between requests.  Raises
    :class:`HeadError` for input that is answered with an error.
    """
    nl = buf.find(b"\n")
    if nl < 0:
        if len(buf) > MAX_REQUEST_LINE:
            raise HeadError(414, "Request-URI Too Long", bare=True)
        if eof and buf.strip():
            raise HeadError(400, "Bad request syntax", bare=True)
        return None, 0
    if _CONTROL.search(buf, 0, nl - 1 if buf[nl - 1:nl] == b"\r" else nl):
        raise HeadError(400, "Bad request syntax", bare=True)
    parts = bytes(buf[:nl]).split()
    if len(parts) == 2:
        del buf[:nl + 1]
        if parts[0] != b"GET":
            raise HeadError(400, "Bad HTTP/0.9 request type", bare=True)
        return RequestHead("GET", parts[1].decode("latin-1"), {}, True,
                           True), 0
    if len(parts) != 3:
        raise HeadError(400, "Bad request syntax", bare=True)
    version = parts[2]
    numbers = version[5:].split(b".") if version.startswith(b"HTTP/") \
        else ()
    if not (len(numbers) == 2 and numbers[0].isdigit()
            and numbers[1].isdigit()):
        raise HeadError(400, f"Bad request version {version!r}", bare=True)
    vnum = (int(numbers[0]), int(numbers[1]))
    if vnum >= (2, 0):
        raise HeadError(505, f"Invalid HTTP version ({vnum[0]}.{vnum[1]})",
                        bare=True)
    # HTTP/1.x: the full head (ending in a blank line) must be buffered.
    head_end, resume = _find_head_end(buf, max(nl + 1, scan_pos))
    if head_end < 0:
        if len(buf) > MAX_HEAD_BYTES:
            raise HeadError(431, "request header section too large")
        if eof:
            raise HeadError(400, "truncated request head", bare=True)
        return None, resume
    if _FIELD_LINES.fullmatch(buf, nl + 1, head_end + 1) is None:
        raise HeadError(400, "malformed header line")
    headers = {name.title(): value for name, value
               in split_fields(bytes(buf[nl + 1:head_end]))}
    del buf[:head_end + 1]
    connection = headers.get("Connection", "").lower()
    if vnum < (1, 1):
        close = connection != "keep-alive"
        expect_continue = False
    else:
        close = "close" in connection
        expect_continue = \
            headers.get("Expect", "").lower() == "100-continue"
    return RequestHead(parts[0].decode("latin-1"), parts[1].decode("latin-1"),
                       headers, close, False, expect_continue), 0


def request_body(method: str, headers: dict[str, str]) -> tuple[int, bool]:
    """``(length, close)`` of the body that follows a request head.

    A POST's ``length`` is its whole body; a missing, chunked, garbage
    or oversized framing raises :class:`HeadError`.  For any other
    method ``length`` is how many declared body bytes to drain, and
    ``close`` says the connection cannot stay in sync after the answer
    (chunked, unparseable, or longer than :data:`MAX_DISCARDED_BODY`).
    """
    declared = headers.get("Content-Length")
    if method == "POST":
        if headers.get("Transfer-Encoding"):
            raise HeadError(400, "chunked transfer encoding is not "
                                 "supported; send Content-Length")
        if declared is None:
            raise HeadError(411, "POST requires Content-Length")
        length = _length(declared)
        if length < 0:
            raise HeadError(400, f"invalid Content-Length {declared!r}")
        if length > MAX_BODY_BYTES:
            raise HeadError(413, f"request body exceeds {MAX_BODY_BYTES} "
                                 f"bytes")
        return length, False
    if headers.get("Transfer-Encoding"):
        return 0, True
    if declared is None:
        return 0, False
    length = _length(declared)
    if length < 0:
        return 0, True
    return min(length, MAX_DISCARDED_BODY), length > MAX_DISCARDED_BODY


def _length(declared: str) -> int:
    try:
        return int(declared)
    except ValueError:
        return -1


@functools.lru_cache(maxsize=1)
def _date_field(second: int) -> bytes:
    return b"Date: " + formatdate(second, usegmt=True).encode("latin-1") \
        + b"\r\n"


def response_head(status: int, fields: bytes, close: bool) -> bytes:
    """Status line, ``Server``, ``Date``, ``fields``, end of head.

    ``fields`` are complete header lines (``Content-Length`` included);
    ``close`` adds ``Connection: close``.
    """
    line = _STATUS_LINES.get(status)
    if line is None:
        line = f"HTTP/1.1 {status} \r\n".encode("latin-1")
    return b"".join((line, b"Server: repro-serve/1.1\r\n",
                     _date_field(int(time.time())), fields,
                     b"Connection: close\r\n\r\n" if close else b"\r\n"))


def json_fields(body: bytes, fields: bytes = b"") -> bytes:
    """Header lines framing a JSON ``body``, with ``fields`` between
    ``Content-Type`` and ``Content-Length``."""
    return (b"Content-Type: application/json; charset=utf-8\r\n" + fields
            + b"Content-Length: %d\r\n" % len(body))


def envelope(status: int, message: str, fields: bytes = b""
             ) -> tuple[bytes, bytes]:
    """``(header lines, body)`` of the API layer's JSON error envelope."""
    body = json_bytes({"error": {"status": status, "message": message}})
    return json_fields(body, fields), body


def error_reply(error: HeadError) -> bytes:
    """The whole answer to a :class:`HeadError`: the JSON envelope,
    framed with ``Connection: close`` unless ``bare``."""
    fields, body = envelope(error.status, error.message)
    if error.bare:
        return body
    return response_head(error.status, fields, close=True) + body
