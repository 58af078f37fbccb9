"""Command-line surface for operating a warehouse.

Exit codes: 0 success, 1 data or validation failure, 2 usage error.
Results go to stdout, diagnostics to stderr. In csv mode the bytes on
stdout are exactly the owning module's CSV serialization.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial
from pathlib import Path

from . import __version__
from .capacity import estimate_from_warehouse
from .errors import WarehouseError
from .ingest import (
    ClassMap,
    ingest_image_batch,
    ingest_species_registry,
    ingest_survey,
    parse_image_manifest,
)
from .query import QUERY_OPTIONS, TIME_KEYS, image_usage_report, run_query, spec_from_strings, species_trend
from .reconcile import metrics_csv, metrics_rows, reconcile_warehouse
from .report import render_cell
from .storage import open_warehouse, stats_rows

ROOT_ENV_VAR = "CANOPYDW_ROOT"


def _add_common(parser: argparse.ArgumentParser, fmt: bool = True) -> None:
    parser.add_argument(
        "--root",
        default=None,
        help=f"warehouse root directory (default: ${ROOT_ENV_VAR})",
    )
    if fmt:
        parser.add_argument(
            "--format",
            choices=("table", "csv"),
            default="table",
            help="output format (default: table)",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="canopydw",
        description="File-backed star-schema warehouse for forest inventory data.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("init", help="create an empty warehouse")
    _add_common(p, fmt=False)

    p = sub.add_parser("ingest-species", help="load a species registry CSV")
    _add_common(p, fmt=False)
    p.add_argument("--registry", required=True, help="registry CSV file")

    p = sub.add_parser("ingest-images", help="load an image manifest and its detection files")
    _add_common(p, fmt=False)
    p.add_argument("--manifest", required=True, help="image manifest CSV file")
    p.add_argument("--detections-dir", required=True, help="directory of per-image .txt detection files")
    p.add_argument("--class-map", required=True, help="file listing species codes, one per class index")

    p = sub.add_parser("ingest-survey", help="load a ground-truth survey CSV")
    _add_common(p, fmt=False)
    p.add_argument("--file", required=True, help="survey CSV file")
    p.add_argument("--survey-id", default=None, help="survey identifier (default: file stem)")

    p = sub.add_parser("reconcile", help="match detections against survey records")
    _add_common(p)
    p.add_argument("--radius", type=float, default=2.0, help="match radius in meters (default: 2.0)")

    p = sub.add_parser("query", help="run a star-join aggregation")
    _add_common(p)
    for name, option in QUERY_OPTIONS.items():
        p.add_argument("--" + name.replace("_", "-"), help=option.help)

    p = sub.add_parser("trend", help="detection counts over time for one species")
    _add_common(p)
    p.add_argument("--species-code", required=True)
    p.add_argument("--granularity", choices=TIME_KEYS, default="month")

    p = sub.add_parser("image-usage", help="image and detection counts by resolution and platform")
    _add_common(p)

    p = sub.add_parser("stats", help="table row counts and file sizes")
    _add_common(p)

    p = sub.add_parser("estimate", help="project warehouse growth")
    _add_common(p)
    p.add_argument("--years", type=int, default=10, help="projection horizon (default: 10)")
    p.add_argument("--events-per-year", type=int, default=4, help="ingest events per year (default: 4)")

    p = sub.add_parser("serve", help="run the HTTP service")
    _add_common(p, fmt=False)
    p.add_argument("--bind", default="127.0.0.1:8472", help="host:port to listen on")
    p.add_argument("--auth-token", default=None, help="require this bearer token on every request")
    p.add_argument("--max-body-bytes", type=int, default=64 * 2**20, help="request body limit")

    sub.add_parser("version", help="print the package version")
    return parser


def _resolve_root(args: argparse.Namespace, parser: argparse.ArgumentParser) -> Path:
    root = args.root or os.environ.get(ROOT_ENV_VAR)
    if not root:
        parser.error(f"--root is required (or set ${ROOT_ENV_VAR})")
    return Path(root)


def _read_lines(path: str | Path) -> list[str]:
    """The file's lines, split only at \\n, \\r and \\r\\n (not at the other
    breaks str.splitlines knows), each with its line end, which the CSV reader
    needs to keep a line break inside a quoted cell (and so to refuse it)."""
    with open(path, encoding="utf-8", newline="") as fh:
        return list(fh)


def _cmd_init(args, root) -> int:
    with open_warehouse(root, "rw"):
        pass
    print(f"initialized {root}")
    return 0


def _cmd_ingest_species(args, root) -> int:
    lines = _read_lines(args.registry)
    with open_warehouse(root, "rw") as handle:
        count = ingest_species_registry(handle, lines, source=args.registry)
    print(f"species rows processed: {count}")
    return 0


def _cmd_ingest_images(args, root) -> int:
    manifest = parse_image_manifest(_read_lines(args.manifest), source=args.manifest)
    class_map = ClassMap.from_lines(_read_lines(args.class_map))
    det_dir = Path(args.detections_dir)
    if not det_dir.is_dir():
        raise WarehouseError(f"detections dir not found: {det_dir}")
    detection_files = {p.name: _read_lines(p) for p in sorted(det_dir.glob("*.txt"))}
    with open_warehouse(root, "rw") as handle:
        report = ingest_image_batch(handle, manifest, detection_files, class_map)
    for err in report.errors:
        print(f"warning: {err}", file=sys.stderr)
    print(report.summary())
    return 0


def _cmd_ingest_survey(args, root) -> int:
    survey_id = args.survey_id or Path(args.file).stem
    lines = _read_lines(args.file)
    with open_warehouse(root, "rw") as handle:
        records = ingest_survey(handle, survey_id, lines, source=args.file)
    print(f"survey {survey_id}: {len(records)} records")
    return 0


def _cmd_reconcile(args, root) -> int:
    with open_warehouse(root, "rw") as handle:
        outcome = reconcile_warehouse(handle, args.radius)
    if args.format == "csv":
        sys.stdout.write(metrics_csv(outcome.metrics))
    else:
        print(metrics_rows(outcome.metrics).to_text())
        print(f"OVERALL accuracy={render_cell(outcome.metrics.accuracy)}")
    print(
        f"pairs={outcome.metrics.matched_pairs} facts_updated={outcome.facts_updated}",
        file=sys.stderr,
    )
    return 0


# Commands that print one report: each maps its arguments to a function
# from a read-only handle to the report. The query spec is parsed here,
# before the root is opened.
_REPORTS = {
    "query": lambda args: partial(
        run_query, spec=spec_from_strings({name: getattr(args, name) or "" for name in QUERY_OPTIONS})
    ),
    "trend": lambda args: partial(species_trend, species_code=args.species_code, granularity=args.granularity),
    "image-usage": lambda args: image_usage_report,
    "stats": lambda args: lambda handle: stats_rows(handle.stats()),
}


def _cmd_report(args, root) -> int:
    build = _REPORTS[args.command](args)
    with open_warehouse(root, "ro") as handle:
        table = build(handle)
    if args.format == "csv":
        sys.stdout.write(table.to_csv())
    else:
        print(table.to_text())
    return 0


def _cmd_estimate(args, root) -> int:
    if args.years < 0:
        raise WarehouseError("--years must be non-negative")
    if args.events_per_year <= 0:
        raise WarehouseError("--events-per-year must be positive")
    with open_warehouse(root, "ro") as handle:
        report = estimate_from_warehouse(handle, args.events_per_year, args.years)
    sys.stdout.write(report.to_csv() if args.format == "csv" else report.to_text())
    return 0


def _cmd_serve(args, root) -> int:
    from .service import ServiceConfig, serve

    config = ServiceConfig(
        bind_address=args.bind,
        warehouse_root=root,
        max_body_bytes=args.max_body_bytes,
        auth_token=args.auth_token,
    )
    serve(config)
    return 0


_COMMANDS = {
    "init": _cmd_init,
    "ingest-species": _cmd_ingest_species,
    "ingest-images": _cmd_ingest_images,
    "ingest-survey": _cmd_ingest_survey,
    "reconcile": _cmd_reconcile,
    **dict.fromkeys(_REPORTS, _cmd_report),
    "estimate": _cmd_estimate,
    "serve": _cmd_serve,
}


def run_cli(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "version":
            print(__version__)
            return 0
        root = _resolve_root(args, parser)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args, root)
    except (WarehouseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 130


def main() -> None:
    raise SystemExit(run_cli(sys.argv[1:]))
