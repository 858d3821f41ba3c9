"""HTTP edge connectors, loopback-only (reference inventory rows
``http_client`` input/output, ``http`` processor, ``http_server``
input, ``sync_response`` output — ``⟨upstream: internal/impl/io/
input_http_client.go, output_http_client.go, input_http_server.go,
output_sync_response.go; internal/impl/pure/processor_http.go⟩``).

Topology note (same adjudication as :mod:`rayflow.ops.net`): these are
EDGE connectors.  One HTTP endpoint is one stream of requests — the
upstream reference fronts it with exactly one listener too, so the
driver owning the socket here matches the topology; bodies are decoded
in bounded chunks and shipped into the object store as they arrive.
At data scale the fan-in belongs upstream of the engine (many source
partitions); these ops exist for micro-service composability.  The
``http_request`` processor is the per-record-RPC enrichment pattern:
it runs as a plain-task ``map_batches`` stage (one connection per
worker process, built in ``__init__``), and its scale-honest mode is
``mode="batch"`` — one request per Arrow batch with a JSON-lines body
— not one request per row.

Sandbox rule: NO external network.  Every URL / bind address is
validated to be loopback (127.0.0.0/8, ``localhost``, ``::1``); a
non-loopback target fails loud at build time.  The pattern generalizes
unchanged to real endpoints outside the sandbox.
"""

from __future__ import annotations

import json
from typing import Iterable
from urllib.parse import urlsplit

import pyarrow as pa

from rayflow.ops import register_op
from rayflow.ops.net import _decode_lines, _encode_batch, _tables_to_dataset

_LOOPBACK_HOSTS = {"localhost", "::1", "[::1]"}


def _check_loopback(host: str) -> str:
    if host in _LOOPBACK_HOSTS or host.startswith("127."):
        return host
    raise ValueError(
        f"http host {host!r} is not loopback — no external network in "
        "this environment (allowed: localhost, 127.0.0.0/8, ::1)")


def _split_url(url: str) -> tuple[str, int, str]:
    """``http://host:port/path`` → (host, port, path); loopback only."""
    u = urlsplit(url)
    if u.scheme != "http":
        raise ValueError(f"url {url!r}: only http:// is supported")
    host = _check_loopback(u.hostname or "")
    path = u.path or "/"
    if u.query:
        path += "?" + u.query
    return host, u.port or 80, path


def _request(host: str, port: int, path: str, *, method: str = "GET",
             body: bytes | None = None, timeout_s: float = 10.0,
             headers: dict | None = None) -> tuple[int, bytes]:
    import http.client

    conn = http.client.HTTPConnection(host, port, timeout=timeout_s)
    try:
        conn.request(method, path, body=body,
                     headers=headers or {"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def _body_lines(body: bytes) -> Iterable[str]:
    for ln in body.decode("utf-8", errors="replace").split("\n"):
        if ln.strip():
            yield ln


@register_op("read_http_client")
def build_read_http_client(*, url: str, codec: str = "json",
                           column: str = "text", method: str = "GET",
                           n_polls: int = 1, timeout_s: float = 10.0):
    """``http_client`` input: poll ``url`` ``n_polls`` times; each
    response body is decoded by ``codec`` (``lines`` → one row per
    line in ``column``; ``json`` → JSON-lines, one object per row).
    Bounded by construction (a batch Dataset needs finite input); the
    unbounded analogue is the CDC ``tail`` daemon."""
    host, port, path = _split_url(url)

    def source(_=None):
        def all_lines():
            for _i in range(n_polls):
                status, body = _request(host, port, path, method=method,
                                        timeout_s=timeout_s)
                if status >= 400:
                    raise RuntimeError(f"http_client: {url} -> {status}")
                yield from _body_lines(body)

        return _tables_to_dataset(_decode_lines(all_lines(), codec, column))

    return source


@register_op("write_http_client")
def build_write_http_client(*, url: str, codec: str = "json",
                            column: str | None = None,
                            batch_size: int = 4096,
                            timeout_s: float = 10.0):
    """``http_client`` output: POST the dataset to ``url`` — ONE
    request per Arrow batch (JSON-lines body), never one per row;
    drains with ``iter_batches`` (streaming, backpressured)."""
    host, port, path = _split_url(url)

    def sink(ds):
        for t in ds.iter_batches(batch_format="pyarrow",
                                 batch_size=batch_size):
            status, _ = _request(host, port, path, method="POST",
                                 body=_encode_batch(t, codec, column),
                                 timeout_s=timeout_s)
            if status >= 400:
                raise RuntimeError(f"write_http_client: {url} -> {status}")
        return None

    return sink


class _HttpRequester:
    """Body of the ``http_request`` processor: one persistent connection
    per worker process (``__init__``, via :func:`per_process`), per-batch
    work in ``__call__`` — the reference's per-record RPC enrichment
    pattern re-expressed at batch granularity."""

    def __init__(self, host: str, port: int, path: str, column: str,
                 out: str, mode: str, timeout_s: float):
        import http.client

        self._conn = http.client.HTTPConnection(host, port,
                                                timeout=timeout_s)
        self._path, self._column, self._out = path, column, out
        self._mode = mode

    def _post(self, body: bytes) -> bytes:
        self._conn.request("POST", self._path, body=body,
                           headers={"Content-Type": "application/json"})
        resp = self._conn.getresponse()
        data = resp.read()
        if resp.status >= 400:
            raise RuntimeError(f"http_request -> {resp.status}")
        return data

    def __call__(self, t: pa.Table) -> pa.Table:
        vals = ["" if v is None else str(v)
                for v in t.column(self._column).to_pylist()]
        try:
            if self._mode == "batch":
                # scale-honest: one request per batch, JSON-lines in/out
                body = b"".join(json.dumps(v).encode() + b"\n" for v in vals)
                lines = [json.loads(ln) for ln in _body_lines(self._post(body))]
            else:                                   # mode == "row"
                lines = [json.loads(self._post(json.dumps(v).encode()))
                         for v in vals]
            if len(lines) != len(vals):
                raise ValueError(
                    f"http_request: {len(lines)} response lines for "
                    f"{len(vals)} rows")
            out = pa.array([None if v is None else str(v) for v in lines],
                           pa.string())
            return t.append_column(self._out, out).append_column(
                "_error", pa.nulls(t.num_rows, pa.string()))
        except (OSError, ValueError, RuntimeError) as e:
            # dead-letter the block (catch/dead_letter_path downstream),
            # then reconnect so one bad block doesn't poison the process
            try:
                self._conn.close()
            except OSError:
                pass
            self._conn.connect()
            err = pa.array([f"http_request: {e}"] * t.num_rows, pa.string())
            return t.append_column(self._out,
                                   pa.nulls(t.num_rows, pa.string())) \
                    .append_column("_error", err)


@register_op("http_request")
def build_http_request(*, url: str, column: str, out: str,
                       mode: str = "batch", concurrency: int = 2,
                       batch_size: int = 1024, timeout_s: float = 10.0):
    """``http`` processor: enrich each row by calling ``url`` with the
    row's ``column`` value; the response lands in ``out`` (failures
    dead-letter the block via ``_error``).  ``mode="batch"`` (default,
    the scale path) sends ONE JSON-lines request per Arrow batch;
    ``mode="row"`` is the reference's literal per-message call — keep
    ``batch_size`` small if you must use it.  ``concurrency`` caps the
    tasks calling the server at once: it bounds the load on an outside
    service, a deployment setting rather than a pool size."""
    if mode not in ("batch", "row"):
        raise ValueError(f"http_request mode {mode!r} (batch|row)")
    host, port, path = _split_url(url)

    def apply(ds):
        from rayflow.ops.kernels import per_process

        return ds.map_batches(
            per_process(_HttpRequester, host, port, path, column, out, mode,
                        timeout_s),
            batch_format="pyarrow", batch_size=batch_size,
            concurrency=concurrency)

    return apply


def _bind_http(address: str):
    """``host:port`` → bound loopback HTTPServer (caller serves it).
    Single-threaded on purpose: the bounded serve loops count handled
    requests between ``handle_request()`` calls, which only works when
    handling is synchronous."""
    from http.server import HTTPServer

    host, _, port = address.rpartition(":")
    _check_loopback(host)
    return HTTPServer((host, int(port)), None)


@register_op("read_http_server")
def build_read_http_server(*, address: str, codec: str = "json",
                           column: str = "text", max_requests: int = 1,
                           timeout_s: float = 10.0):
    """``http_server`` input: bind ``host:port`` (loopback), accept
    ``max_requests`` POSTs (each body decoded by ``codec``, acked
    ``202``), then return the dataset.  Bounded by construction, like
    ``read_socket_server``."""
    from http.server import BaseHTTPRequestHandler

    def source(_=None):
        bodies: list[bytes] = []

        class H(BaseHTTPRequestHandler):
            def do_POST(self):
                n = int(self.headers.get("Content-Length", 0))
                bodies.append(self.rfile.read(n))
                self.send_response(202)
                self.end_headers()

            def log_message(self, *a):           # quiet test output
                pass

        srv = _bind_http(address)
        srv.RequestHandlerClass = H
        srv.timeout = timeout_s
        try:
            while len(bodies) < max_requests:
                before = len(bodies)
                srv.handle_request()
                if len(bodies) == before:        # accept timeout
                    break
        finally:
            srv.server_close()

        def all_lines():
            for b in bodies:
                yield from _body_lines(b)

        return _tables_to_dataset(_decode_lines(all_lines(), codec, column))

    return source


def serve_http_sync(pipeline, address: str, *, max_requests: int = 1,
                    codec: str = "json", column: str = "text",
                    out_codec: str = "json", out_column: str | None = None,
                    timeout_s: float = 30.0) -> int:
    """``http_server`` input + ``sync_response`` output: serve
    ``max_requests`` POSTs on loopback ``address``; each request body
    becomes a Dataset (``codec``), flows through ``pipeline`` (a
    :class:`rayflow.pipeline.Pipeline` or config dict — its processors
    run per request, so the reply IS the processed message, the
    reference's store-and-reply semantics), and the result streams back
    as the HTTP response (``out_codec``).  A pipeline error returns
    ``500`` with the message — the request/reply analogue of the
    dead-letter path.  Returns the number of requests served."""
    from http.server import BaseHTTPRequestHandler

    from rayflow.pipeline import Pipeline

    if isinstance(pipeline, dict):
        pipeline = Pipeline.from_dict(pipeline)
    served = [0]

    class H(BaseHTTPRequestHandler):
        def do_POST(self):
            n = int(self.headers.get("Content-Length", 0))
            body = self.rfile.read(n)
            try:
                ds = _tables_to_dataset(
                    _decode_lines(_body_lines(body), codec, column))
                res = pipeline.run(ds)
                chunks = (b"" if res is None else b"".join(
                    _encode_batch(t, out_codec, out_column)
                    for t in res.iter_batches(batch_format="pyarrow",
                                              batch_size=4096)))
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(chunks)))
                self.end_headers()
                self.wfile.write(chunks)
            except Exception as e:            # noqa: BLE001 — reply, don't die
                msg = f"pipeline error: {e}".encode()
                self.send_response(500)
                self.send_header("Content-Length", str(len(msg)))
                self.end_headers()
                self.wfile.write(msg)
            served[0] += 1

        def log_message(self, *a):
            pass

    srv = _bind_http(address)
    srv.RequestHandlerClass = H
    srv.timeout = timeout_s
    try:
        while served[0] < max_requests:
            before = served[0]
            srv.handle_request()
            if served[0] == before:              # accept timeout
                break
    finally:
        srv.server_close()
    return served[0]
