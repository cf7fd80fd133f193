"""Loopback remote day index: one server thread on 127.0.0.1, counting requests.

It serves ``GET /networks/<id>/days?from=...&to=...`` from the response
bodies in ``documents``, keyed by (network, from, to) and filled at set-up,
so its own cost per request is a lookup and a write.
"""

from __future__ import annotations

import threading
import urllib.parse
from http.server import BaseHTTPRequestHandler, HTTPServer


class DayIndexStub:
    """Serve prepared day documents; ``requests`` counts every GET received."""

    def __init__(self):
        self.documents: dict[tuple[str, str, str], bytes] = {}
        self.requests = 0
        self._lock = threading.Lock()
        stub = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):
                with stub._lock:
                    stub.requests += 1
                url = urllib.parse.urlsplit(self.path)
                parts = url.path.strip("/").split("/")
                query = urllib.parse.parse_qs(url.query)
                body = None
                if len(parts) == 3 and parts[0] == "networks" and parts[2] == "days":
                    key = (parts[1], query.get("from", [""])[0], query.get("to", [""])[0])
                    body = stub.documents.get(key)
                if body is None:
                    self.send_error(404)
                    return
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, format, *args):
                pass

        self._server = HTTPServer(("127.0.0.1", 0), Handler)
        self.base_url = f"http://127.0.0.1:{self._server.server_address[1]}"
        self._thread = threading.Thread(target=self._server.serve_forever, name="day-index-stub")

    def count(self) -> int:
        with self._lock:
            return self.requests

    def __enter__(self) -> "DayIndexStub":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=10)
