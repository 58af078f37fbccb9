"""Repeat-run checks for the benchmark itself.

    python3 perfbench/check.py spread --workload serve_mixed --seeds 1-10
        Runs the benchmark once per seed and prints, per end-to-end metric,
        the median and the inter-quartile spread as a share of the median,
        next to the metric's bound from BENCHMARK.json.

    python3 perfbench/check.py determinism --seed 7 --seconds 6
        Runs ingest_campaign and reconcile_survey traced, twice each with
        one seed, and fails unless the counts that must not depend on
        timing come out identical.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from stats import median, spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

DETERMINISTIC = (
    "storage.fsyncs_per_batch",
    "storage.replaces_per_batch",
    "storage.write_bytes_per_input_byte",
    "storage.stored_bytes_per_input_byte",
    "report.csv_line_calls_per_fact",
    "model.fact_validations_per_open",
    "reconcile.matched_pairs",
)


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stdout[-3000:]}\n{proc.stderr[-3000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["env"] = next((json.loads(line[5:]) for line in lines if line.startswith("env: ")), {})
    return result


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def cmd_spread(args) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or declared["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    worst = 0.0
    for workload in args.workload:
        values: dict[str, list[float]] = {}
        for seed in seed_range(args.seeds):
            result = run_once(workload, seed, seconds, 0)
            print(
                f"{workload} seed {seed}: attempted={result['attempted']} failed={result['failed']} "
                f"fsync_4k_us_median={result['env'].get('fsync_4k_us_median')}",
                flush=True,
            )
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        for name, vals in values.items():
            s = spread(vals)
            if name != "setup_s":
                worst = max(worst, s / bounds[name])
            print(f"  {name:30s} median {median(vals):14.4f}  spread {s:7.4f}  bound {bounds[name]:.2f}  spread/bound {s / bounds[name]:.2f}")
            print("    " + " ".join(f"{v:.4g}" for v in vals))
    print(f"worst spread/bound (setup_s excluded): {worst:.2f}")
    return 0 if worst <= 1 else 1


def cmd_determinism(args) -> int:
    bad = 0
    for workload in ("ingest_campaign", "reconcile_survey"):
        a, b = (run_once(workload, args.seed, args.seconds, 1) for _ in range(2))
        for name in DETERMINISTIC:
            va, vb = a["metrics"][name]["value"], b["metrics"][name]["value"]
            same = va == vb
            bad += not same
            print(f"{workload:18s} {name:38s} {va!r:>22} {vb!r:>22} {'same' if same else 'DIFFERENT'}")
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("spread")
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=float, default=None)
    p = sub.add_parser("determinism")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=6)
    args = parser.parse_args()
    return {"spread": cmd_spread, "determinism": cmd_determinism}[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
