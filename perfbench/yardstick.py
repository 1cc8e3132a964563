"""A fixed reference chain that measures how fast the host runs right now.

On a shared host the speed of a core drifts by up to two times over
minutes, so a rate measured in one run and a rate measured minutes later
differ by more than any change worth detecting.  The benchmark therefore
alternates its measured reads with reads of this chain, which has the
deployed topology's shape in miniature and never changes: a relay
process that opens one upstream connection per request, as ``balance``
does, in front of a backend process that renders and hashes a small
JSON payload per request, as a reader does on a miss.  Its rate, taken
in the same seconds as the program's, says how fast the host ran while
the program was measured (see ``bench.host_speed``).

    python3 perfbench/yardstick.py backend
    python3 perfbench/yardstick.py relay --backend-port PORT

Each prints ``listening <port>`` and serves one connection at a time
until killed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import socket
import subprocess
import sys

HOST = "127.0.0.1"

#: Rows of the payload the backend renders per request.
ROWS = 100


def _read_head(sock: socket.socket, buf: bytearray) -> int:
    """Receive until ``buf`` holds a complete head; its end, or -1 on EOF."""
    while True:
        end = buf.find(b"\r\n\r\n")
        if end >= 0:
            return end
        chunk = sock.recv(1 << 16)
        if not chunk:
            return -1
        buf += chunk


def _render(target: bytes) -> bytes:
    name = target.decode("ascii")
    body = json.dumps(
        {"target": name,
         "rows": [{"rank": i, "day": 7 * i, "name": name} for i in range(ROWS)]},
        sort_keys=True, separators=(",", ":")).encode("utf-8")
    etag = hashlib.sha256(body).hexdigest()
    return (f"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\nETag: \"{etag}\"\r\n\r\n"
            ).encode("ascii") + body


def _listen() -> socket.socket:
    server = socket.socket()
    server.bind((HOST, 0))
    server.listen(16)
    print(f"listening {server.getsockname()[1]}", flush=True)
    return server


def _accept(server: socket.socket) -> socket.socket:
    conn, _ = server.accept()
    conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return conn


def serve_backend() -> None:
    server = _listen()
    while True:
        conn = _accept(server)
        buf = bytearray()
        try:
            while (end := _read_head(conn, buf)) >= 0:
                target = bytes(buf[:buf.find(b"\r\n")]).split(b" ")[1]
                del buf[:end + 4]
                conn.sendall(_render(target))
        except OSError:
            pass
        finally:
            conn.close()


def _forward(request: bytes, port: int) -> bytes:
    upstream = socket.create_connection((HOST, port))
    try:
        upstream.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        upstream.sendall(request)
        buf = bytearray()
        end = _read_head(upstream, buf)
        if end < 0:
            raise ConnectionError("backend closed before answering")
        length = 0
        for line in bytes(buf[:end]).decode("latin-1").split("\r\n")[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        total = end + 4 + length
        while len(buf) < total:
            chunk = upstream.recv(1 << 16)
            if not chunk:
                raise ConnectionError("backend closed mid-body")
            buf += chunk
        return bytes(buf[:total])
    finally:
        upstream.close()


def serve_relay(backend_port: int) -> None:
    server = _listen()
    while True:
        conn = _accept(server)
        buf = bytearray()
        try:
            while (end := _read_head(conn, buf)) >= 0:
                request = bytes(buf[:end + 4])
                del buf[:end + 4]
                conn.sendall(_forward(request, backend_port))
        except OSError:
            pass
        finally:
            conn.close()


class Yardstick:
    """The backend and relay processes; :meth:`stop` ends and reaps both."""

    def __init__(self) -> None:
        self.procs: list[subprocess.Popen] = []
        self.port = 0

    def _spawn(self, *argv: str) -> int:
        proc = subprocess.Popen([sys.executable, "-u", __file__, *argv],
                                stdout=subprocess.PIPE)
        self.procs.append(proc)
        line = proc.stdout.readline().decode("ascii", "replace")
        proc.stdout.close()
        if not line.startswith("listening "):
            raise RuntimeError(f"yardstick {argv[0]} did not start: {line!r}")
        return int(line.split()[1])

    def start(self) -> None:
        try:
            backend = self._spawn("backend")
            self.port = self._spawn("relay", "--backend-port", str(backend))
        except BaseException:
            self.stop()
            raise

    def stop(self) -> None:
        for proc in self.procs:
            proc.kill()
            proc.wait()
        self.procs.clear()


def main(argv: list[str]) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("role", choices=("backend", "relay"))
    parser.add_argument("--backend-port", type=int)
    args = parser.parse_args(argv)
    if args.role == "backend":
        serve_backend()
    else:
        serve_relay(args.backend_port)


if __name__ == "__main__":
    main(sys.argv[1:])
