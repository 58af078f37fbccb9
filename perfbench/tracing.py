"""Spans and counts recorded around canopydw's public calls, from outside the program.

Each callable is wrapped at the name its caller looks it up by (for
example ``canopydw.service.open_warehouse`` or ``Warehouse.insert_image``),
so the program itself is unchanged. Spans carry name, start, end, parent
and request id on one clock, ``time.monotonic_ns``, which is shared by
every process on the machine; they stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from urllib.parse import urlsplit

from stats import median, self_time


def _mode(args, kwargs) -> str:
    return args[1] if len(args) > 1 else kwargs.get("mode", "rw")


def _open_attrs(args, kwargs, result):
    return {"mode": _mode(args, kwargs), "facts": len(result.state.facts)}


def _path_attrs(args, kwargs, result):
    return {"path": urlsplit(args[0].path).path}


# (module, attribute path, span name, attrs(args, kwargs, result) or None)
SPAN_TARGETS = (
    ("canopydw.cli", "run_cli", "cli.run_cli", lambda a, k, r: {"command": a[0][0]}),
    ("canopydw.cli", "open_warehouse", "storage.open_warehouse", _open_attrs),
    ("canopydw.service", "open_warehouse", "storage.open_warehouse", _open_attrs),
    ("canopydw.cli", "parse_image_manifest", "ingest.parse_image_manifest", None),
    ("canopydw.cli", "ingest_species_registry", "ingest.ingest_species_registry", None),
    ("canopydw.cli", "ingest_survey", "ingest.ingest_survey", None),
    ("canopydw.cli", "ingest_image_batch", "ingest.ingest_image_batch", None),
    ("canopydw.service", "ingest_image_batch", "ingest.ingest_image_batch", None),
    ("canopydw.ingest", "parse_detection_file", "ingest.parse_detection_file", lambda a, k, r: {"n": len(r)}),
    ("canopydw.service", "parse_detection_file", "ingest.parse_detection_file", lambda a, k, r: {"n": len(r)}),
    ("canopydw.cli", "reconcile_warehouse", "reconcile.reconcile_warehouse", None),
    (
        "canopydw.reconcile",
        "match_detections",
        "reconcile.match_detections",
        lambda a, k, r: {"pairs_tested": len(a[0]) * len(a[1])},
    ),
    ("canopydw.reconcile", "compute_metrics", "reconcile.compute_metrics", None),
    ("canopydw.reconcile", "validate_facts", "reconcile.validate_facts", None),
    (
        "canopydw.service",
        "run_query",
        "query.run_query",
        lambda a, k, r: {"facts": len(a[0].state.facts), "rows": len(r.rows)},
    ),
    ("canopydw.service", "estimate_from_warehouse", "capacity.estimate_from_warehouse", None),
    ("canopydw.storage", "Warehouse.insert_image", "storage.insert_image", None),
    ("canopydw.storage", "Warehouse.ensure_date", "storage.ensure_date", None),
    ("canopydw.storage", "Warehouse.upsert_species", "storage.upsert_species", None),
    ("canopydw.storage", "Warehouse.append_facts", "storage.append_facts", None),
    ("canopydw.storage", "Warehouse.rewrite_validation", "storage.rewrite_validation", None),
    ("canopydw.storage", "Warehouse.load_all_survey_records", "storage.load_all_survey_records", None),
    ("canopydw.storage", "FileLock.acquire", "storage.lock_acquire", None),
    ("canopydw.service", "_Handler.do_GET", "service.do_GET", _path_attrs),
    ("canopydw.service", "_Handler.do_POST", "service.do_POST", _path_attrs),
)

# Calls counted (not timed), attributed to the innermost open span.
COUNT_TARGETS = (
    ("canopydw.storage", "csv_line", "report.csv_line"),
    ("canopydw.model", "validate_fact", "model.validate_fact"),
)

REQUEST_SPANS = ("service.do_GET", "service.do_POST")


@dataclass(frozen=True)
class Span:
    sid: int | str
    parent: int | str | None
    name: str
    start: int
    end: int
    rid: str | None
    phase: str
    info: dict

    @property
    def dur(self) -> int:
        return self.end - self.start


class _CountingOS:
    """Stands in for ``canopydw.storage.os``: counts fsync and replace, delegates the rest."""

    def __init__(self, tracer: "Tracer"):
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(os, name)

    def fsync(self, fd):
        self._tracer.count("storage.fsync")
        return os.fsync(fd)

    def replace(self, src, dst):
        self._tracer.count("storage.replace")
        return os.replace(src, dst)


class Tracer:
    def __init__(self, phase: str = ""):
        self.phase = phase
        self.spans: list[Span] = []
        self.counts: dict[tuple[str, str, str], int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str) -> None:
        stack = self._stack()
        key = (name, stack[-1][2] if stack else "", self.phase)
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + 1

    def _span_wrapper(self, fn, name, attrs):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            if name in REQUEST_SPANS:
                rid = args[0].headers.get("X-Request-Id")
            else:
                rid = parent[1] if parent else None
            sid = next(tracer._ids)
            stack.append((sid, rid, name))
            start = time.monotonic_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = time.monotonic_ns()
                info = {"error": type(exc).__name__}
                if name == "storage.open_warehouse":
                    info["mode"] = _mode(args, kwargs)
                tracer.spans.append(Span(sid, parent and parent[0], name, start, end, rid, tracer.phase, info))
                raise
            finally:
                stack.pop()
            end = time.monotonic_ns()
            info = attrs(args, kwargs, result) if attrs else {}
            tracer.spans.append(Span(sid, parent and parent[0], name, start, end, rid, tracer.phase, info))
            return result

        return wrapper

    def _count_wrapper(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.count(name)
            return fn(*args, **kwargs)

        return wrapper

    # -- installing --------------------------------------------------------------

    def _patch(self, module_name: str, attr_path: str, make) -> None:
        owner = importlib.import_module(module_name)
        *outer, attr = attr_path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = owner.__dict__[attr]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        for module_name, attr_path, name, attrs in SPAN_TARGETS:
            self._patch(module_name, attr_path, lambda fn, n=name, a=attrs: self._span_wrapper(fn, n, a))
        for module_name, attr_path, name in COUNT_TARGETS:
            self._patch(module_name, attr_path, lambda fn, n=name: self._count_wrapper(fn, n))
        self._patch("canopydw.storage", "os", lambda real: _CountingOS(self))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- exporting ---------------------------------------------------------------

    def dump(self, path: Path) -> None:
        """Write spans, then counts, as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")
            fh.write(json.dumps({"counts": [[*key, n] for key, n in sorted(self.counts.items())]}) + "\n")

    def merge_dump(self, path: Path, tag: str) -> None:
        """Add the spans and counts another process dumped; its span ids are prefixed with tag."""
        for line in path.read_text(encoding="utf-8").splitlines():
            rec = json.loads(line)
            if "counts" in rec:
                for name, where, phase, n in rec["counts"]:
                    self.counts[(name, where, phase)] = self.counts.get((name, where, phase), 0) + n
                continue
            rec["sid"] = f"{tag}:{rec['sid']}"
            if rec["parent"] is not None:
                rec["parent"] = f"{tag}:{rec['parent']}"
            self.spans.append(Span(**rec))


# -- per-layer metrics ------------------------------------------------------------------


def _ms(ns: float) -> float:
    return ns / 1e6


def _med_ms(spans: list[Span]) -> float:
    return _ms(median([s.dur for s in spans])) if spans else 0.0


def layer_metrics(spans: list[Span], counts: dict, extras: dict, own_phase: str) -> dict[str, tuple[float, str]]:
    """Derive the per-layer metrics from one traced run.

    extras holds what the phases measured themselves: ingest input bytes,
    wchar delta and facts, the pair count reconcile printed, client read
    latencies by request id. Read-write opens and lock waits happen in
    every phase; they are taken from own_phase, the workload's own.
    """
    by_name: dict[str, list[Span]] = {}
    children: dict[object, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        children.setdefault(s.parent, []).append(s)

    def named(name, phase=None, **match):
        out = []
        for s in by_name.get(name, []):
            if phase is not None and s.phase != phase:
                continue
            if all(s.info.get(k) == v for k, v in match.items()):
                out.append(s)
        return out

    def self_ns(s: Span) -> int:
        return self_time(s.start, s.end, [(c.start, c.end) for c in children.get(s.sid, [])])

    def med_self_ms(group: list[Span]) -> float:
        return _ms(median([self_ns(s) for s in group])) if group else 0.0

    def count(name, phase=None, where=None):
        return sum(c for (n, w, p), c in counts.items() if n == name and (phase is None or p == phase) and (where is None or w == where))

    m: dict[str, tuple[float, str]] = {}
    m["cli.self_ms.ingest_images"] = (med_self_ms(named("cli.run_cli", "ingest", command="ingest-images")), "ms")
    m["cli.self_ms.reconcile"] = (med_self_ms(named("cli.run_cli", "reconcile", command="reconcile")), "ms")

    m["ingest.parse_manifest_ms"] = (_med_ms(named("ingest.parse_image_manifest", "ingest")), "ms")
    parses = named("ingest.parse_detection_file", "ingest")
    parsed = sum(s.info["n"] for s in parses if "n" in s.info)
    m["ingest.parse_detections_us_per_fact"] = (sum(s.dur for s in parses) / 1e3 / parsed if parsed else 0.0, "us/fact")
    batches = named("ingest.ingest_image_batch", "ingest")
    m["ingest.batch_self_ms"] = (med_self_ms(batches), "ms")

    def per_fact_us(group):
        vals = [s.dur / 1e3 / s.info["facts"] for s in group if s.info.get("facts")]
        return median(vals) if vals else 0.0

    rw = [s for s in named("storage.open_warehouse", own_phase, mode="rw") if "error" not in s.info]
    ro_all = named("storage.open_warehouse", "serve", mode="ro")
    ro = [s for s in ro_all if "error" not in s.info]
    m["storage.open_rw_ms"] = (_med_ms(rw), "ms")
    m["storage.open_rw_us_per_fact"] = (per_fact_us(rw), "us/fact")
    m["storage.open_ro_ms"] = (_med_ms(ro), "ms")
    m["storage.open_ro_us_per_fact"] = (per_fact_us(ro), "us/fact")
    m["storage.open_ro_failed"] = (float(len(ro_all) - len(ro)), "count")

    def per_batch_child_ms(names):
        vals = [sum(c.dur for c in children.get(b.sid, []) if c.name in names) for b in batches]
        return _ms(median(vals)) if vals else 0.0

    m["storage.dim_write_ms"] = (per_batch_child_ms({"storage.insert_image", "storage.ensure_date", "storage.upsert_species"}), "ms")
    m["storage.append_facts_ms"] = (per_batch_child_ms({"storage.append_facts"}), "ms")
    m["storage.rewrite_validation_ms"] = (_med_ms(named("storage.rewrite_validation", "reconcile")), "ms")
    m["storage.load_surveys_ms"] = (_med_ms(named("storage.load_all_survey_records", "reconcile")), "ms")
    locks = named("storage.lock_acquire", own_phase)
    m["storage.lock_wait_ms"] = (_ms(sum(s.dur for s in locks) / len(locks)) if locks else 0.0, "ms")

    cli_batches = len(named("cli.run_cli", "ingest", command="ingest-images"))
    m["storage.fsyncs_per_batch"] = (count("storage.fsync", "ingest") / cli_batches if cli_batches else 0.0, "count/batch")
    m["storage.replaces_per_batch"] = (count("storage.replace", "ingest") / cli_batches if cli_batches else 0.0, "count/batch")
    input_bytes = extras.get("ingest_input_bytes", 0)
    m["storage.write_bytes_per_input_byte"] = (extras.get("ingest_wchar", 0) / input_bytes if input_bytes else 0.0, "B/B")
    m["storage.stored_bytes_per_input_byte"] = (extras.get("stored_bytes_per_input_byte", 0.0), "B/B")
    ingest_opens = named("storage.open_warehouse", "ingest")
    m["model.fact_validations_per_open"] = (
        count("model.validate_fact", "ingest", "storage.open_warehouse") / len(ingest_opens) if ingest_opens else 0.0,
        "count/open",
    )
    facts = extras.get("ingest_facts", 0)
    m["report.csv_line_calls_per_fact"] = (count("report.csv_line", "ingest") / facts if facts else 0.0, "count/fact")

    matches = named("reconcile.match_detections", "reconcile")
    m["reconcile.match_ms"] = (_med_ms(matches), "ms")
    per_pair = [s.dur / s.info["pairs_tested"] for s in matches if s.info.get("pairs_tested")]
    m["reconcile.match_ns_per_fact_record"] = (median(per_pair) if per_pair else 0.0, "ns/pair")
    m["reconcile.metrics_ms"] = (_med_ms(named("reconcile.compute_metrics", "reconcile")), "ms")
    m["reconcile.validate_self_ms"] = (med_self_ms(named("reconcile.validate_facts", "reconcile")), "ms")
    m["reconcile.matched_pairs"] = (float(extras.get("matched_pairs") or 0), "count")

    queries = [s for s in named("query.run_query", "serve") if "error" not in s.info]
    m["query.run_query_ms"] = (_med_ms(queries), "ms")
    scan = [s.dur / 1e3 / s.info["facts"] for s in queries if s.info.get("facts")]
    m["query.scan_us_per_fact"] = (median(scan) if scan else 0.0, "us/fact")
    rows = sum(s.info["rows"] for s in queries)
    m["query.facts_scanned_per_row_returned"] = (sum(s.info["facts"] for s in queries) / rows if rows else 0.0, "ratio")
    m["capacity.estimate_ms"] = (_med_ms(named("capacity.estimate_from_warehouse", "serve")), "ms")

    for method, path, key in (
        ("service.do_GET", "/v1/query", "query"),
        ("service.do_GET", "/v1/stats", "stats"),
        ("service.do_GET", "/v1/estimate", "estimate"),
        ("service.do_POST", "/v1/images", "images"),
    ):
        group = named(method, "serve", path=path)
        m[f"service.request_ms.{key}"] = (_med_ms(group), "ms")
        if key in ("query", "images"):
            m[f"service.self_ms.{key}"] = (med_self_ms(group), "ms")
    server = {s.rid: s.dur for s in by_name.get("service.do_GET", []) if s.rid}
    queue = [lat - server[rid] for rid, lat in extras.get("client_reads", []) if rid in server]
    m["service.queue_ms"] = (_ms(median(queue)) if queue else 0.0, "ms")
    return m
