"""The three pipeline phases the workloads are made of: CLI ingest, CLI reconcile, HTTP serve.

Each phase has a set-up and a time-boxed run that checks every answer it
gets. The set-up's heavy part, ``build`` (inputs generated from the seed,
warehouses built through the library), runs in a forked child, so that its
memory does not count towards this process's peak RSS; the child hands back
only the small plan the run needs. Every phase times one kind of operation
(``samples["op_ms"]``) and reports its throughput (``values["items_per_s"]``);
a workload is one phase, see run.py.
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
import resource
import signal
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from http.client import HTTPConnection, HTTPException
from pathlib import Path
from urllib.parse import urlencode

import gen
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RADIUS_M = 2.0


class Ops:
    """Operations attempted, failures by reason, and wrong answers (also failures)."""

    def __init__(self):
        self.attempted = 0
        self.failures: dict[str, int] = {}
        self.wrong: list[str] = []

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failures[reason] = self.failures.get(reason, 0) + 1

    def wrong_answer(self, what: str) -> None:
        self.attempted += 1
        self.check(False, what)

    def check(self, condition: bool, what: str) -> None:
        """A check made outside any timed operation: counted only when it fails."""
        if not condition:
            self.failures["wrong answer"] = self.failures.get("wrong answer", 0) + 1
            if len(self.wrong) < 20:
                self.wrong.append(what)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def reason_of(prefix: str, message: str) -> str:
    """Failure reason with file paths and numbers masked, so equal causes group together."""
    message = re.sub(r"\S*/\S*", "<path>", message)
    message = re.sub(r"\d+", "N", message)
    return f"{prefix}: {message[:80]}"


def call_cli(argv: list[str]) -> tuple[int, str, str]:
    import canopydw.cli as cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run_cli(argv)
    return code, out.getvalue(), err.getvalue()


def wchar() -> int:
    """Bytes this process has passed to write() so far (/proc/self/io)."""
    with open("/proc/self/io", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    raise RuntimeError("wchar missing from /proc/self/io")


def self_peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def build_scene_warehouse(root: Path, scene: gen.Scene) -> None:
    """Load a lattice scene (and its survey, if any) through the library."""
    from canopydw.ingest import ClassMap, ingest_image_batch, ingest_species_registry, ingest_survey, parse_image_manifest
    from canopydw.storage import open_warehouse

    with open_warehouse(root, "rw") as handle:
        ingest_species_registry(handle, gen.registry_lines())
        manifest = parse_image_manifest([gen.MANIFEST_HEADER] + [img.manifest_line() for img in scene.images])
        report = ingest_image_batch(handle, manifest, scene.detections, ClassMap(gen.CODES))
        if report.errors or report.facts_added != len(scene.fact_geo):
            raise RuntimeError(f"scene build failed: {report.summary()} {report.errors[:3]}")
        if scene.survey:
            ingest_survey(handle, "ground", scene.survey)


def in_child(fn, *args):
    """fn(*args) run in a forked child; returns its JSON-able result.

    Only the returned value comes back, so whatever fn allocates is left out
    of this process's ru_maxrss. Call it while no other thread is running.
    """
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(rfd)
        code = 0
        try:
            payload = json.dumps({"value": fn(*args)})
        except BaseException:
            payload = json.dumps({"error": traceback.format_exc()})
            code = 1
        with os.fdopen(wfd, "w", encoding="utf-8") as fh:
            fh.write(payload)
        os._exit(code)
    os.close(wfd)
    reaped = False
    try:
        with os.fdopen(rfd, encoding="utf-8") as fh:
            payload = fh.read()
        os.waitpid(pid, 0)
        reaped = True
    finally:
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    result = json.loads(payload) if payload else {"error": "child exited without a result"}
    if "error" in result:
        raise RuntimeError(f"set-up failed in the child process:\n{result['error']}")
    return result["value"]


@dataclass
class PhaseResult:
    samples: dict[str, list[float]] = field(default_factory=dict)
    values: dict[str, float] = field(default_factory=dict)
    extras: dict = field(default_factory=dict)


# -- ingest ------------------------------------------------------------------------


@dataclass(frozen=True)
class IngestSize:
    batches: int
    images: int
    dets: int
    survey_every: int
    survey_records: int


class IngestPhase:
    """Whole CLI campaigns from an empty root: species, image batches, interleaved surveys.

    A campaign is run one CLI step at a time; when the time is up the
    campaign in progress is completed, so every count is taken over whole
    campaigns. Finished campaigns stay on disk until the run ends: deleting
    them mid-run would add the filesystem's discard work to the fsyncs being
    measured.
    """

    name = "ingest"

    def __init__(self, size: IngestSize, seed: int):
        self.size = size
        self.seed = seed

    def build(self, workdir: Path) -> dict:
        s = self.size
        camp = gen.campaign(self.seed, s.batches, s.images, s.dets, s.survey_every, s.survey_records)
        argvs, input_bytes = gen.write_campaign(camp, workdir / "ingest" / "inputs")
        return {
            "dir": str(workdir / "ingest"),
            "argvs": argvs,
            "input_bytes": input_bytes,
            "facts": camp.facts,
            "images": camp.images,
            "species_counts": camp.species_counts,
        }

    def setup(self, workdir: Path) -> None:
        self.plan = in_child(self.build, workdir)

    def teardown(self) -> None:
        pass

    def run(self, budget_s: float, ops: Ops, tracer: Tracer | None) -> PhaseResult:
        self.ops, self.tracer = ops, tracer
        self.res = PhaseResult(samples={"op_ms": []})
        self.busy = 0.0
        self.written = 0
        self.campaigns = 0
        self.step = 0
        while self.busy < budget_s or self.step:
            self._unit()
        plan, res = self.plan, self.res
        res.values["items_per_s"] = self.campaigns * plan["facts"] / self.busy
        res.extras.update(
            stored_bytes_per_input_byte=res.values["stored_bytes"] / plan["input_bytes"],
            ingest_input_bytes=self.campaigns * plan["input_bytes"],
            ingest_wchar=self.written,
            ingest_facts=self.campaigns * plan["facts"],
            campaigns=self.campaigns,
        )
        return res

    def _unit(self) -> None:
        """One CLI step of the current campaign; checks the campaign after its last step."""
        argvs = self.plan["argvs"]
        root = Path(self.plan["dir"]) / f"wh{self.campaigns}"
        argv = argvs[self.step]
        if self.tracer:
            self.tracer.phase = "ingest"
        w0 = wchar()
        t0 = time.perf_counter()
        code, out, err = call_cli(argv + ["--root", str(root)])
        dt = time.perf_counter() - t0
        self.written += wchar() - w0
        self.busy += dt
        self.step += 1
        if code != 0:
            self.ops.fail(reason_of(f"cli {argv[0]} exit {code}", err.strip()))
        elif argv[0] == "ingest-images":
            self.res.samples["op_ms"].append(dt * 1e3)
            expected = f"images_added={self.size.images} images_skipped=0 facts_added={self.size.images * self.size.dets} errors=0"
            if out.strip() == expected:
                self.ops.ok()
            else:
                self.ops.wrong_answer(f"ingest-images printed {out.strip()!r}, expected {expected!r}")
        else:
            self.ops.ok()
        if self.step == len(argvs):
            if self.tracer:
                self.tracer.phase = "check"
            self._check(root)
            self.res.values["stored_bytes"] = tree_bytes(root)
            self.campaigns += 1
            self.step = 0

    def _check(self, root: Path) -> None:
        plan, check = self.plan, self.ops.check
        facts, images = plan["facts"], plan["images"]
        commit = (root / "COMMIT").read_text().strip()
        check(commit == str(facts), f"COMMIT is {commit}, expected {facts}")
        code, out, err = call_cli(["stats", "--root", str(root), "--format", "csv"])
        rows = {r[0]: r[1] for r in csv.reader(io.StringIO(out))} if code == 0 else {}
        check(rows.get("fact_tree_metrics") == str(facts), f"stats facts {rows.get('fact_tree_metrics')}, expected {facts}")
        check(rows.get("dim_image") == str(images), f"stats images {rows.get('dim_image')}, expected {images}")
        code, out, err = call_cli(["query", "--root", str(root), "--group-by", "species", "--measures", "tree_count", "--format", "csv"])
        got = {r[0]: int(r[1]) for r in list(csv.reader(io.StringIO(out)))[1:]} if code == 0 else {}
        check(got == plan["species_counts"], f"tree_count by species {got} != {plan['species_counts']}")


# -- reconcile ---------------------------------------------------------------------


@dataclass(frozen=True)
class ReconcileSize:
    facts: int
    records: int


class ReconcilePhase:
    """Repeated `canopydw reconcile` over a warehouse whose correct matching is known."""

    name = "reconcile"

    def __init__(self, size: ReconcileSize, seed: int):
        self.size = size
        self.seed = seed

    def build(self, workdir: Path) -> dict:
        root = workdir / "reconcile_wh"
        scene = gen.lattice_scene(self.seed, self.size.facts, "recon")
        gen.add_survey(scene, self.seed, self.size.records, RADIUS_M)
        build_scene_warehouse(root, scene)
        return {"root": str(root), "pairs": scene.expected_pairs, "accuracy": scene.expected_accuracy}

    def setup(self, workdir: Path) -> None:
        self.plan = in_child(self.build, workdir)

    def teardown(self) -> None:
        pass

    def run(self, budget_s: float, ops: Ops, tracer: Tracer | None) -> PhaseResult:
        self.ops, self.tracer = ops, tracer
        # matched_pairs is the count the program printed (pairs=N), not the generator's.
        self.res = PhaseResult(samples={"op_ms": []}, extras={"matched_pairs": None})
        busy = 0.0
        tries = 0
        # At least one timed reconcile, unless the first three all fail.
        while busy < budget_s or (not self.res.samples["op_ms"] and tries < 3):
            tries += 1
            t0 = time.perf_counter()
            self._unit()
            busy += time.perf_counter() - t0
        self.res.values["items_per_s"] = len(self.res.samples["op_ms"]) / busy
        return self.res

    def _unit(self) -> None:
        plan = self.plan
        accuracy = plan["accuracy"]
        expected_err = f"pairs={plan['pairs']} facts_updated={self.size.facts}"
        expected_acc = f"OVERALL,accuracy={'' if accuracy is None else repr(accuracy)}"
        if self.tracer:
            self.tracer.phase = "reconcile"
        t0 = time.perf_counter()
        code, out, err = call_cli(["reconcile", "--root", plan["root"], "--radius", str(RADIUS_M), "--format", "csv"])
        dt = time.perf_counter() - t0
        if code != 0:
            self.ops.fail(reason_of(f"cli reconcile exit {code}", err.strip()))
            return
        self.res.samples["op_ms"].append(dt * 1e3)
        printed = re.search(r"\bpairs=(\d+)", err)
        if printed:
            self.res.extras["matched_pairs"] = int(printed.group(1))
        last = out.rstrip("\n").rsplit("\n", 1)[-1]
        if err.strip() != expected_err or last != expected_acc:
            self.ops.wrong_answer(f"reconcile gave {err.strip()!r} {last!r}, expected {expected_err!r} {expected_acc!r}")
        else:
            self.ops.ok()


# -- serve ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ServeSize:
    facts: int
    dets: int  # detections in each POSTed image


# One cycle of the client's requests: query specs, then stats, estimate and one POST.
SERVE_CYCLE = ("query",) * 7 + ("stats", "estimate", "post")


class _Client:
    def __init__(self, host: str, port: int):
        self.host, self.port = host, port
        self.conn = HTTPConnection(host, port, timeout=60)

    def request(self, method: str, path: str, rid: str, body: dict | None = None) -> tuple[int, dict]:
        headers = {"X-Request-Id": rid}
        data = None
        if body is not None:
            data = json.dumps(body).encode()
            headers["Content-Type"] = "application/json"
        try:
            self.conn.request(method, path, body=data, headers=headers)
            resp = self.conn.getresponse()
            payload = resp.read()
        except (OSError, HTTPException):
            self.conn.close()
            self.conn = HTTPConnection(self.host, self.port, timeout=60)
            raise
        return resp.status, json.loads(payload)

    def close(self) -> None:
        self.conn.close()


class ServePhase:
    """`canopydw serve` in a subprocess, driven by one closed-loop HTTP client.

    The client sends the next request as soon as the last is answered,
    cycling SERVE_CYCLE: seven /v1/query specs, /v1/stats, /v1/estimate and
    one POST /v1/images of a new image. Reads and writes therefore
    alternate on one connection and never overlap, so every total a GET
    returns is known exactly: the base facts plus the POSTed ones.
    """

    name = "serve"

    def __init__(self, size: ServeSize, seed: int, traced: bool):
        self.size = size
        self.seed = seed
        self.traced = traced
        self.proc: subprocess.Popen | None = None

    def build(self, workdir: Path) -> None:
        build_scene_warehouse(workdir / "serve_wh", gen.lattice_scene(self.seed, self.size.facts, "serve"))

    def setup(self, workdir: Path) -> None:
        in_child(self.build, workdir)
        self.root = workdir / "serve_wh"
        self.trace_out = workdir / "server_trace.jsonl"
        if self.traced:
            cmd = [sys.executable, str(HERE / "serve_traced.py"), "--root", str(self.root), "--bind", "127.0.0.1:0", "--trace-out", str(self.trace_out)]
        else:
            cmd = [sys.executable, "-m", "canopydw", "serve", "--root", str(self.root), "--bind", "127.0.0.1:0"]
        log_path = workdir / "server.log"
        with open(log_path, "wb") as log:
            self.proc = subprocess.Popen(cmd, cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)), stdin=subprocess.DEVNULL, stdout=log, stderr=log)
        deadline = time.monotonic() + 30
        while True:
            text = log_path.read_text(errors="replace")
            found = re.search(r"service on http://([\d.]+):(\d+)", text)
            if found:
                self.host, self.port = found.group(1), int(found.group(2))
                return
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.teardown()
                raise RuntimeError(f"server did not start: {text[-2000:]}")
            time.sleep(0.01)

    def teardown(self) -> None:
        if self.proc is None:
            return
        proc, self.proc = self.proc, None
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()

    def _peak_rss_mib(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("VmHWM missing from server status")

    def _unit(self, i: int) -> None:
        """Request i of the cycle, timed and checked."""
        kind = SERVE_CYCLE[i % len(SERVE_CYCLE)]
        rid = f"r{i}"
        expected = self.size.facts + self.posted * self.size.dets
        if kind == "post":
            method, path, body = "POST", "/v1/images", gen.post_image_body(self.seed, self.posted, self.size.dets)
        elif kind == "stats":
            method, path, body = "GET", "/v1/stats", None
        elif kind == "estimate":
            method, path, body = "GET", "/v1/estimate?" + urlencode({"years": 10, "events_per_year": 4}), None
        else:
            spec = gen.QUERY_SPECS[self.queries % len(gen.QUERY_SPECS)]
            self.queries += 1
            method, path, body = "GET", "/v1/query?" + urlencode(spec), None
        endpoint = f"{method} {path.split('?')[0]}"
        t0 = time.monotonic_ns()
        try:
            status, reply = self.client.request(method, path, rid, body)
        except (OSError, HTTPException, ValueError) as exc:
            self.ops.fail(reason_of(f"{endpoint} transport", type(exc).__name__))
            return
        ms = (time.monotonic_ns() - t0) / 1e6
        if status != 200:
            self.ops.fail(reason_of(f"{endpoint} {status}", str(reply.get("error") or reply.get("errors"))))
            return
        if kind == "post":
            good = reply.get("facts_added") == self.size.dets and reply.get("images_added") == 1
            got = reply
            self.posted += good
        elif kind == "query":
            idx = reply["columns"].index("tree_count")
            got = sum(int(row[idx]) for row in reply["rows"])
            good = got == expected
        elif kind == "stats":
            got = {row[0]: int(row[1]) for row in reply["rows"]}["fact_tree_metrics"]
            good = got == expected
        else:
            got = len(reply.get("rows", []))
            good = got > 0
        if not good:
            self.ops.wrong_answer(f"{endpoint} gave {got}, expected {'facts_added=' + str(self.size.dets) if kind == 'post' else expected}")
            return
        self.ops.ok()
        if kind == "post":
            self.res.samples["write_ms"].append(ms)
        else:
            self.res.samples["op_ms"].append(ms)
            self.client_reads.append((rid, int(ms * 1e6)))

    def run(self, budget_s: float, ops: Ops, tracer: Tracer | None) -> PhaseResult:
        """Requests back to back for budget_s; then the final count is checked."""
        self.ops, self.tracer = ops, tracer
        self.res = PhaseResult(samples={"op_ms": [], "write_ms": []})
        self.posted = self.queries = 0
        self.client_reads: list[tuple[str, int]] = []
        self.client = _Client(self.host, self.port)
        t0 = time.monotonic()
        i = 0
        try:
            while time.monotonic() - t0 < budget_s or not self.res.samples["op_ms"] and i < 3 * len(SERVE_CYCLE):
                self._unit(i)
                i += 1
            elapsed = time.monotonic() - t0
            status, body = self.client.request("GET", "/v1/stats", "final")
        finally:
            self.client.close()
        facts = {row[0]: int(row[1]) for row in body.get("rows", [])}.get("fact_tree_metrics", 0)
        expected = self.size.facts + self.posted * self.size.dets
        self.ops.check(status == 200 and facts == expected, f"final fact count {facts}, expected {expected}")
        res = self.res
        res.values["items_per_s"] = (len(res.samples["op_ms"]) + len(res.samples["write_ms"])) / elapsed
        res.values["peak_rss_mib"] = self._peak_rss_mib()
        res.extras["client_reads"] = self.client_reads
        self.teardown()
        if self.traced and self.tracer is not None:
            self.tracer.merge_dump(self.trace_out, "srv")
        return res
