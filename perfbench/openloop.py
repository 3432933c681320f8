"""Open-loop HTTP load against spexcheckd over loopback.

One thread and a selector drive every connection, so requests leave on
their Poisson schedule whether or not earlier ones have been answered:
a slow daemon builds a queue instead of slowing the sender down. Each
request is timed from when it was due to be sent, which charges a stall
to every request it delays; how late the sender itself ran is reported
separately. Connections are kept alive and reused.
"""

import gc
import json
import selectors
import socket
import time

IDLE_REUSE_S = 1.0  # The daemon drops connections idle for 2 s by default.


class Result:
    __slots__ = ("request", "due", "sent", "done", "status", "body", "error")

    def __init__(self, request, due):
        self.request = request
        self.due = due
        self.sent = None
        self.done = None
        self.status = None
        self.body = b""
        self.error = None

    @property
    def latency_ms(self):
        return (self.done - self.due) * 1000.0

    def summary(self):
        """The response's summary record, or None."""
        if self.status != 200:
            return None
        lines = self.body.decode().splitlines()
        return json.loads(lines[-1]) if lines else None

    def violations(self):
        return [json.loads(l) for l in self.body.decode().splitlines()[:-1]]


class _Conn:
    __slots__ = ("sock", "out", "buf", "result", "last_used", "closed")

    def __init__(self, sock):
        self.sock = sock
        self.closed = False
        self.out = b""
        self.buf = b""
        self.result = None
        self.last_used = 0.0


def request_bytes(path, body):
    head = ("POST %s HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: keep-alive\r\n"
            "Content-Length: %d\r\n\r\n" % (path, len(body)))
    return head.encode() + body


def _parse_response(buf):
    """(status, body, keep_alive) once a whole response is in buf."""
    end = buf.find(b"\r\n\r\n")
    if end < 0:
        return None
    head = buf[:end].decode("latin-1").split("\r\n")
    status = int(head[0].split()[1])
    length = 0
    keep_alive = True
    for line in head[1:]:
        name, _, value = line.partition(":")
        name = name.strip().lower()
        if name == "content-length":
            length = int(value.strip())
        elif name == "connection":
            keep_alive = value.strip().lower() == "keep-alive"
    if len(buf) < end + 4 + length:
        return None
    body = buf[end + 4:end + 4 + length]
    return status, body, keep_alive


def run(port, requests, due_times, path_of, timeout_s=10.0):
    """Sends requests[i] at start + due_times[i]; returns (results, start).

    `path_of(request)` gives the request target ("/check?..."); the body is
    request.body. A request unanswered after `timeout_s` fails.
    """
    gc.disable()  # A collection mid-schedule would make the sender late.
    try:
        return _run(port, requests, due_times, path_of, timeout_s)
    finally:
        gc.enable()


def _run(port, requests, due_times, path_of, timeout_s):
    sel = selectors.DefaultSelector()
    idle = []
    results = [Result(r, d) for r, d in zip(requests, due_times)]
    pending = 0
    start = time.perf_counter()
    i = 0

    def close(conn):
        if not conn.closed:
            conn.closed = True
            sel.unregister(conn.sock)
            conn.sock.close()

    def finish(conn, error=None):
        nonlocal pending
        result = conn.result
        conn.result = None
        result.done = time.perf_counter() - start
        result.error = error
        pending -= 1

    def send(result, now):
        nonlocal pending
        conn = None
        while idle:
            candidate = idle.pop()
            if not candidate.closed and now - candidate.last_used < IDLE_REUSE_S:
                conn = candidate
                break
            close(candidate)
        if conn is None:
            sock = socket.create_connection(("127.0.0.1", port))
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.setblocking(False)
            conn = _Conn(sock)
            sel.register(sock, selectors.EVENT_READ, conn)
        conn.result = result
        conn.buf = b""
        conn.out = request_bytes(path_of(result.request), result.request.body)
        result.sent = time.perf_counter() - start
        pending += 1
        flush(conn)

    def flush(conn):
        try:
            sent = conn.sock.send(conn.out)
        except BlockingIOError:
            sent = 0
        except OSError as error:
            finish(conn, "send: %s" % error)
            close(conn)
            return
        conn.out = conn.out[sent:]
        sel.modify(conn.sock, selectors.EVENT_READ | (selectors.EVENT_WRITE if conn.out else 0), conn)

    def readable(conn):
        try:
            data = conn.sock.recv(65536)
        except BlockingIOError:
            return
        except OSError as error:
            data = None
            err = "recv: %s" % error
        else:
            err = "connection closed"
        if not data:
            if conn.result is not None:
                finish(conn, err)
            close(conn)
            return
        conn.buf += data
        parsed = _parse_response(conn.buf)
        if parsed is None or conn.result is None:
            return
        status, body, keep_alive = parsed
        conn.result.status = status
        conn.result.body = body
        finish(conn)
        if keep_alive:
            conn.last_used = time.perf_counter() - start
            idle.append(conn)
        else:
            close(conn)

    while i < len(results) or pending:
        now = time.perf_counter() - start
        while i < len(results) and results[i].due <= now:
            send(results[i], now)
            i += 1
        if i < len(results):
            wait = max(0.0, results[i].due - (time.perf_counter() - start))
        else:
            wait = 0.05
        for key, mask in sel.select(timeout=wait):
            conn = key.data
            if mask & selectors.EVENT_WRITE and conn.out:
                flush(conn)
            if mask & selectors.EVENT_READ:
                readable(conn)
        if i >= len(results) and pending:
            now = time.perf_counter() - start
            for key in list(sel.get_map().values()):
                conn = key.data
                if conn.result is not None and now - conn.result.sent > timeout_s:
                    finish(conn, "timeout")
                    close(conn)
    for key in list(sel.get_map().values()):
        key.data.sock.close()
    sel.close()
    return results, start


def _roundtrip(port, raw):
    """One request on its own blocking connection; returns (status, body)."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(raw)
        buf = b""
        while True:
            data = sock.recv(65536)
            if not data:
                break
            buf += data
            parsed = _parse_response(buf)
            if parsed is not None:
                return parsed[0], parsed[1]
    raise RuntimeError("no response from 127.0.0.1:%d" % port)


def get_json(port, path):
    raw = "GET %s HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n" % path
    status, body = _roundtrip(port, raw.encode())
    return status, json.loads(body)


def post(port, path, body):
    return _roundtrip(port, request_bytes(path, body).replace(b"keep-alive", b"close", 1))
