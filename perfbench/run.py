"""Stdlib-only benchmark for canopydw: ingest, reconcile and serve, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload ingest_campaign --seed 1 --seconds 35 --trace 0

Each workload is one phase of the pipeline, run for the whole of --seconds:
CLI ingest campaigns, repeated CLI reconciles, or an HTTP client against
`canopydw serve`. Every phase times one kind of operation, so every
workload reports the same end-to-end metrics: the operation's latency
(op_ms_p50, op_ms_p90), its throughput (items_per_s), the peak RSS and the
set-up time. What the operation and the item are is the workload's own; see
WORKLOADS and BENCHMARK.json.

--trace 1 runs the workload's phase twice, untraced and traced (which goes
first alternates with the seed), then the other two phases traced at small
size, so that every layer is covered; it prints the per-layer metrics plus
the tracing overhead and writes the spans under .perfbench_out/.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics. The exit code is non-zero when any output check failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from envinfo import describe
from stats import median, percentile
from tracing import Tracer, layer_metrics
from workloads import (
    ROOT,
    IngestPhase,
    IngestSize,
    Ops,
    ReconcilePhase,
    ReconcileSize,
    ServePhase,
    ServeSize,
    self_peak_rss_mib,
)


def _require_program() -> None:
    if not (ROOT / "src" / "canopydw" / "__init__.py").is_file():
        print(f"error: canopydw sources not found under {ROOT / 'src'}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(ROOT / "src"))
    import canopydw

    if Path(canopydw.__file__).resolve().parent != (ROOT / "src" / "canopydw").resolve():
        print(f"error: imported canopydw from {canopydw.__file__}, not from this checkout", file=sys.stderr)
        raise SystemExit(2)


# Full size for the workload's own phase; small size for the other two
# phases, which only the traced run adds, to cover their layers.
FULL = {
    "ingest": IngestSize(batches=30, images=10, dets=20, survey_every=10, survey_records=100),
    "reconcile": ReconcileSize(facts=4000, records=1000),
    "serve": ServeSize(facts=3000, dets=10),
}
SMALL = {
    "ingest": IngestSize(batches=6, images=5, dets=20, survey_every=3, survey_records=50),
    "reconcile": ReconcileSize(facts=1200, records=300),
    "serve": ServeSize(facts=1000, dets=10),
}
PHASES = {"ingest": IngestPhase, "reconcile": ReconcilePhase, "serve": ServePhase}
# workload -> its phase. op_ms times one `ingest-images` batch, one
# `canopydw reconcile` or one GET; items_per_s counts facts ingested,
# reconciles done or requests answered (GET and POST).
WORKLOADS = {"ingest_campaign": "ingest", "reconcile_survey": "reconcile", "serve_mixed": "serve"}
# Set-ups timed per run, before and after the measured phase; setup_s is their median.
SETUPS = (4, 3)
# --trace 1: share of --seconds for each of the two passes of the own phase,
# and for each of the two small phases.
TRACE_OWN_SHARE = 0.35
TRACE_SIDE_SHARE = 0.15


def make_phase(name: str, size, seed: int, traced: bool):
    return ServePhase(size, seed, traced) if name == "serve" else PHASES[name](size, seed)


@dataclass
class Pass:
    setup_s: list[float]
    results: dict
    tracer: Tracer | None


def run_pass(plan: list[tuple[object, float]], workdir: Path, ops: Ops, traced: bool, setups: tuple[int, int]) -> Pass:
    """Set up every phase of plan, run each for its budget, and time further set-ups.

    setups is (before, after): the phases are set up `before` times and the
    last of these is the one that runs; after the run they are set up and
    torn down `after` more times. Timing set-ups on both sides of the run
    keeps a slow spell of the machine at either end from setting the median.
    """
    before, after = setups
    phases = [phase for phase, _ in plan]
    setup_s = []

    def setup_all(r: int) -> None:
        t0 = time.perf_counter()
        for phase in phases:
            phase.setup(workdir / f"setup{r}")
        setup_s.append(time.perf_counter() - t0)

    def teardown_all() -> None:
        for phase in phases:
            phase.teardown()

    tracer = None
    try:
        for r in range(before):
            if r:
                teardown_all()
            setup_all(r)
        if traced:
            tracer = Tracer()
            tracer.install()
        try:
            results = {phase.name: phase.run(budget, ops, tracer) for phase, budget in plan}
        finally:
            if tracer:
                tracer.uninstall()
        for r in range(before, before + after):
            teardown_all()
            setup_all(r)
    finally:
        teardown_all()
    return Pass(setup_s, results, tracer)


def pct(samples: list[float], q: float) -> float:
    """Percentile, or NaN when every operation of the kind failed."""
    return percentile(samples, q) if samples else math.nan


def ratio(value: float, base: float) -> float:
    """value / base, or NaN when either is missing (NaN) or base is not positive."""
    if math.isfinite(value) and math.isfinite(base) and base > 0:
        return value / base
    return math.nan


def end_to_end(own: str, p: Pass) -> dict[str, tuple[float, str]]:
    res = p.results[own]
    rss = res.values["peak_rss_mib"] if own == "serve" else self_peak_rss_mib()
    return {
        "setup_s": (median(p.setup_s), "s"),
        "op_ms_p50": (pct(res.samples["op_ms"], 50), "ms"),
        "op_ms_p90": (pct(res.samples["op_ms"], 90), "ms"),
        "items_per_s": (res.values["items_per_s"], "items/s"),
        "peak_rss_mib": (rss, "MiB"),
    }


def detail(own: str, res) -> str:
    """The phase's own figures by their per-phase names (README.md), printed before the result line."""
    op = res.samples["op_ms"]
    if own == "ingest":
        return (
            f"ingest_facts_per_s={res.values['items_per_s']:.3f} ingest_batch_ms_p50={pct(op, 50):.3f} "
            f"ingest_batch_ms_p90={pct(op, 90):.3f} stored_bytes_per_input_byte={res.extras['stored_bytes_per_input_byte']:.6f} "
            f"batches={len(op)} campaigns={res.extras['campaigns']}"
        )
    if own == "reconcile":
        return f"reconcile_s_p50={pct(op, 50) / 1e3:.6f} reconciles={len(op)}"
    writes = res.samples["write_ms"]
    return (
        f"read_ms_p50={pct(op, 50):.3f} read_ms_p95={pct(op, 95):.3f} write_ms_p50={pct(writes, 50):.3f} "
        f"write_ms_p95={pct(writes, 95):.3f} reads={len(op)} writes={len(writes)}"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # Stopped from outside: unwind, so the server is stopped and the work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    own = WORKLOADS[args.workload]

    workdir = ROOT / ".perfbench_tmp" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    ops = Ops()
    try:
        env = describe(workdir)
        print("env: " + json.dumps(env, sort_keys=True))
        if args.trace:
            # The pass that runs second meets a warmer page cache and a fuller
            # disk; alternating the order with the seed keeps that out of the
            # overhead ratio over a set of seeds.
            order = (True, False) if args.seed % 2 else (False, True)
            print("trace order: " + " then ".join("traced" if t else "untraced" for t in order))
            own_s = args.seconds * TRACE_OWN_SHARE
            side_s = args.seconds * TRACE_SIDE_SHARE
            done = {}
            for t in order:
                plan = [(make_phase(own, FULL[own], args.seed, t), own_s)]
                if t:
                    plan += [(make_phase(name, SMALL[name], args.seed, True), side_s) for name in PHASES if name != own]
                done[t] = run_pass(plan, workdir / ("traced" if t else "plain"), ops, t, (1, 0))
            plain, traced = done[False], done[True]
            extras = {}
            for res in traced.results.values():
                extras.update(res.extras)
            metrics = layer_metrics(traced.tracer.spans, traced.tracer.counts, extras, own)
            base, with_trace = end_to_end(own, plain), end_to_end(own, traced)
            metrics["trace.overhead.op_ms_p50"] = (ratio(with_trace["op_ms_p50"][0], base["op_ms_p50"][0]), "ratio")
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            trace_file = out_dir / f"trace-{args.workload}-s{args.seed}.jsonl"
            traced.tracer.dump(trace_file)
            print(f"trace: {len(traced.tracer.spans)} spans written to {trace_file.relative_to(ROOT)}")
            lines = [f"untraced {own}: {detail(own, plain.results[own])}"]
            lines += [f"traced {name}: {detail(name, res)}" for name, res in traced.results.items()]
            wanted = declared["per_layer"]
        else:
            plan = [(make_phase(own, FULL[own], args.seed, False), args.seconds)]
            p = run_pass(plan, workdir / "plain", ops, False, SETUPS)
            metrics = end_to_end(own, p)
            lines = [f"{own}: {detail(own, p.results[own])}", "setup_s: " + " ".join(f"{s:.4f}" for s in p.setup_s)]
            wanted = declared["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        # Commit the deletions now, so that the next run's fsyncs do not pay for them.
        fd = os.open(workdir.parent, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name:45s} {value:14.6f} {unit}")
    print(f"operations: attempted={ops.attempted} failed={ops.failed}")
    for reason, n in sorted(ops.failures.items()):
        print(f"  failed {n:6d}  {reason}")
    for what in ops.wrong:
        print(f"  wrong answer: {what}")

    names = {m["name"]: m["unit"] for m in wanted}
    if names != {name: unit for name, (_, unit) in metrics.items()}:
        raise RuntimeError(f"metrics do not match BENCHMARK.json: {sorted(names)} vs {sorted(metrics)}")
    correct = not ops.wrong
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": ops.attempted,
                "failed": ops.failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    _require_program()
    raise SystemExit(main())
