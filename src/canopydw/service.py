"""HTTP JSON interface over one warehouse root.

The service is the push boundary for detector pipelines. It keeps one
storage.SnapshotCache of its root: a GET reads the committed snapshot,
brought up to date at the start of the request; a POST takes the writer
lock for just its own duration and starts from the same cached rows,
after the cache has created or repaired the root if it needed that.
Several service processes and CLI invocations can therefore share one
root. A busy writer surfaces as 409 rather than queueing forever.

Endpoints (all JSON):
    GET  /v1/health     liveness, no auth
    GET  /v1/stats      table sizes
    GET  /v1/query      aggregation, QuerySpec fields as query parameters
    GET  /v1/estimate   growth projection (years, events_per_year)
    POST /v1/images     one manifest row + detection lines + class map
    POST /v1/surveys    one survey (survey_id + rows)
    POST /v1/reconcile  match against ground truth (radius_m)
"""

from __future__ import annotations

import hmac
import json
import signal
import sys
import threading
import traceback
import uuid
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs, urlsplit

from .capacity import estimate_from_warehouse
from .errors import LockHeldError, WarehouseError
from .ingest import (
    SURVEY_HEADER,
    ClassMap,
    build_image_meta,
    detection_file_name,
    ingest_image_batch,
    ingest_survey,
    parse_detection_file,
)
from .query import run_query, spec_from_strings
from .reconcile import metrics_rows, reconcile_warehouse
from .report import csv_line
# Not called here; kept because perfbench/tracing.py patches service.open_warehouse.
from .storage import SnapshotCache, open_warehouse, stats_rows

MIB = 2**20


@dataclass(frozen=True)
class ServiceConfig:
    bind_address: str = "127.0.0.1:8472"
    warehouse_root: Path = Path(".")
    max_body_bytes: int = 64 * MIB
    auth_token: str | None = None
    lock_timeout: float = 10.0

    def __post_init__(self):
        if self.max_body_bytes < MIB:
            raise ValueError("max_body_bytes must be at least 1 MiB")
        host, sep, port = self.bind_address.rpartition(":")
        if not sep or not host or not port.isdigit():
            raise ValueError(f"bind_address must be host:port, got {self.bind_address!r}")
        if int(port) > 65535:
            raise ValueError(f"bind_address port must be in 0-65535, got {port}")

    @property
    def host(self) -> str:
        return self.bind_address.rpartition(":")[0]

    @property
    def port(self) -> int:
        return int(self.bind_address.rpartition(":")[2])


class _RequestProblem(Exception):
    """Client-attributable failure carrying its HTTP status."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "canopydw"
    # Headers and body go out as two writes; with Nagle's algorithm on, the
    # body waits for the client's delayed ACK (about 40 ms) on every
    # keep-alive response.
    disable_nagle_algorithm = True

    # -- plumbing ------------------------------------------------------------

    def log_message(self, fmt, *args):  # quiet by default
        pass

    @property
    def config(self) -> ServiceConfig:
        return self.server.config  # type: ignore[attr-defined]

    def _send_json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self._body_unread:
            # a body refused unread (auth, route, size) is not the next request
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _fail(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    def _check_auth(self, path: str) -> bool:
        token = self.config.auth_token
        if token is None or path == "/v1/health":
            return True
        header = self.headers.get("Authorization", "")
        expected = f"Bearer {token}"
        if hmac.compare_digest(header.encode(), expected.encode()):
            return True
        self._fail(401, "missing or invalid bearer token")
        return False

    def _read_body(self) -> bytes:
        length_text = self.headers.get("Content-Length")
        if length_text is None:
            raise _RequestProblem(400, "Content-Length required")
        try:
            length = int(length_text)
        except ValueError:
            raise _RequestProblem(400, "bad Content-Length")
        if length < 0:
            raise _RequestProblem(400, "bad Content-Length")
        if length > self.config.max_body_bytes:
            raise _RequestProblem(413, f"body exceeds {self.config.max_body_bytes} bytes")
        body = self.rfile.read(length)
        self._body_unread = False
        return body

    def _read_json(self) -> dict:
        try:
            payload = json.loads(self._read_body().decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _RequestProblem(400, f"bad JSON body: {exc}")
        if not isinstance(payload, dict):
            raise _RequestProblem(400, "JSON body must be an object")
        return payload

    def _dispatch(self, method: str) -> None:
        self._body_unread = "Transfer-Encoding" in self.headers or self.headers.get("Content-Length", "0") != "0"
        url = urlsplit(self.path)
        path = url.path
        if not self._check_auth(path):
            return
        routes = _GET_ROUTES if method == "GET" else _POST_ROUTES
        other = _POST_ROUTES if method == "GET" else _GET_ROUTES
        handler = routes.get(path)
        try:
            if handler is None:
                if path in other:
                    self._fail(405, f"{method} not allowed on {path}")
                else:
                    self._fail(404, f"no such endpoint: {path}")
                return
            params = {k: v[-1] for k, v in parse_qs(url.query, keep_blank_values=True).items()}
            status, payload = handler(self, params)
            self._send_json(status, payload)
        except _RequestProblem as exc:
            self._fail(exc.status, str(exc))
        except LockHeldError as exc:
            self._fail(409, str(exc))
        except (WarehouseError, ValueError) as exc:
            self._fail(400, str(exc))
        except Exception:
            error_id = uuid.uuid4().hex[:12]
            print(f"[canopydw:{error_id}] unhandled error:", file=sys.stderr)
            traceback.print_exc()
            self._fail(500, f"internal error (id {error_id})")

    def do_GET(self):
        self._dispatch("GET")

    def do_POST(self):
        self._dispatch("POST")

    # -- warehouse access ------------------------------------------------------

    def _open_ro(self):
        """The server's shared read-only snapshot, brought up to date; never mutated."""
        return self.server.cache.current()  # type: ignore[attr-defined]

    def _open_rw(self):
        return self.server.cache.open_writer(self.config.lock_timeout)  # type: ignore[attr-defined]

    # -- GET endpoints ---------------------------------------------------------

    def _get_health(self, params):
        return 200, {"status": "ok"}

    def _get_stats(self, params):
        return 200, stats_rows(self._open_ro().stats()).to_json()

    def _get_query(self, params):
        spec = spec_from_strings(params)
        return 200, run_query(self._open_ro(), spec).to_json()

    def _get_estimate(self, params):
        known = {"years", "events_per_year"}
        unknown = sorted(set(params) - known)
        if unknown:
            raise _RequestProblem(400, f"unknown parameter(s): {', '.join(unknown)}")
        try:
            years = int(params.get("years", "10"))
            events = int(params.get("events_per_year", "4"))
        except ValueError:
            raise _RequestProblem(400, "years and events_per_year must be integers")
        if years < 0 or events <= 0:
            raise _RequestProblem(400, "years must be >= 0 and events_per_year >= 1")
        report = estimate_from_warehouse(self._open_ro(), events, years)
        payload = report.table_rows().to_json()
        payload["parameters"] = {name: value for name, value in report.parameter_rows()}
        payload["note"] = report.note
        return 200, payload

    # -- POST endpoints ----------------------------------------------------------

    def _post_images(self, params):
        body = self._read_json()
        manifest_row = body.get("manifest")
        if not isinstance(manifest_row, dict):
            raise _RequestProblem(400, "manifest must be an object of manifest fields")
        detections = body.get("detections", [])
        if not (isinstance(detections, list) and all(isinstance(x, str) for x in detections)):
            raise _RequestProblem(400, "detections must be a list of detection lines")
        class_codes = body.get("class_map")
        if not (isinstance(class_codes, list) and class_codes and all(isinstance(x, str) for x in class_codes)):
            raise _RequestProblem(400, "class_map must be a non-empty list of species codes")
        meta = build_image_meta(manifest_row, source="<request>")
        class_map = ClassMap(class_codes)
        # validate up front so a rejected request leaves no partial state
        for det in parse_detection_file(detections, source="<request>"):
            class_map.code_for(det.class_id)
        det_files = {detection_file_name(meta.file_name): detections}
        with self._open_rw() as handle:
            report = ingest_image_batch(handle, [meta], det_files, class_map)
        status = 400 if report.errors else 200
        return status, {
            "images_added": report.images_added,
            "images_skipped": report.images_skipped,
            "facts_added": report.facts_added,
            "errors": report.errors,
        }

    def _post_surveys(self, params):
        body = self._read_json()
        survey_id = body.get("survey_id")
        if not isinstance(survey_id, str) or not survey_id:
            raise _RequestProblem(400, "survey_id is required")
        rows = body.get("rows")
        if not isinstance(rows, list):
            raise _RequestProblem(400, "rows must be a list of record objects")
        fields = SURVEY_HEADER.split(",")
        lines = [SURVEY_HEADER]
        for i, row in enumerate(rows):
            if not isinstance(row, dict):
                raise _RequestProblem(400, f"row {i} is not an object")
            unknown = sorted(set(row) - set(fields))
            if unknown:
                raise _RequestProblem(400, f"row {i}: unknown field(s) {', '.join(unknown)}")
            lines.append(csv_line([row.get(f) for f in fields]))
        with self._open_rw() as handle:
            records = ingest_survey(handle, survey_id, lines, source="<request>")
        return 200, {"survey_id": survey_id, "records": len(records)}

    def _post_reconcile(self, params):
        body = self._read_json()
        radius = body.get("radius_m", 2.0)
        if not isinstance(radius, (int, float)) or isinstance(radius, bool):
            raise _RequestProblem(400, "radius_m must be a number")
        try:
            radius = float(radius)
        except OverflowError:
            raise _RequestProblem(400, "radius_m is too large for a float") from None
        with self._open_rw() as handle:
            outcome = reconcile_warehouse(handle, radius)
        metrics = outcome.metrics
        columns, rows = metrics_rows(metrics)
        return 200, {
            "matched_pairs": metrics.matched_pairs,
            "agreeing_pairs": metrics.agreeing_pairs,
            "accuracy": metrics.accuracy,
            "facts_updated": outcome.facts_updated,
            "per_species": [dict(zip(columns, row)) for row in rows],
        }


_GET_ROUTES = {
    "/v1/health": _Handler._get_health,
    "/v1/stats": _Handler._get_stats,
    "/v1/query": _Handler._get_query,
    "/v1/estimate": _Handler._get_estimate,
}
_POST_ROUTES = {
    "/v1/images": _Handler._post_images,
    "/v1/surveys": _Handler._post_surveys,
    "/v1/reconcile": _Handler._post_reconcile,
}


class WarehouseServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, config: ServiceConfig):
        self.config = config
        self.cache = SnapshotCache(config.warehouse_root)
        super().__init__((config.host, config.port), _Handler)

    def server_close(self) -> None:
        super().server_close()
        self.cache.close()

    @property
    def bound_address(self) -> str:
        host, port = self.server_address[:2]
        return f"{host}:{port}"


def make_server(config: ServiceConfig) -> WarehouseServer:
    """Construct a server without starting it (callers drive the loop)."""
    return WarehouseServer(config)


def serve(config: ServiceConfig) -> None:
    """Run until SIGINT or SIGTERM."""
    server = make_server(config)
    stop = threading.Event()

    def request_stop(signum, frame):
        stop.set()
        threading.Thread(target=server.shutdown, daemon=True).start()

    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, request_stop)
    print(f"canopydw service on http://{server.bound_address} root={config.warehouse_root}", file=sys.stderr)
    try:
        server.serve_forever(poll_interval=0.1)
    finally:
        server.server_close()
