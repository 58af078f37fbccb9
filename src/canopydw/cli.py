"""Command-line surface for operating a warehouse.

Exit codes: 0 success, 1 data or validation failure, 2 usage error.
Results go to stdout, diagnostics to stderr. In csv mode the bytes on
stdout are exactly the owning module's CSV serialization.

Every command is one entry of COMMANDS, from which both the parser and
the dispatch come. A call names its command first, so run_cli builds only
that command's parser. `import canopydw` loads the HTTP service only when
it is first used, and of the commands only `serve` uses it.
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
    detection_file_name,
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
    names = sorted({detection_file_name(meta.file_name) for meta in manifest})
    detection_files = {name: _read_lines(det_dir / name) for name in names if (det_dir / name).is_file()}
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


def _cmd_version(args, root) -> int:
    print(__version__)
    return 0


# Each command: its help, whether it takes --format (None: neither --format
# nor --root), its own options as (flag, add_argument keywords), and its handler.
COMMANDS = {
    "init": ("create an empty warehouse", False, [], _cmd_init),
    "ingest-species": ("load a species registry CSV", False, [
        ("--registry", dict(required=True, help="registry CSV file")),
    ], _cmd_ingest_species),
    "ingest-images": ("load an image manifest and its detection files", False, [
        ("--manifest", dict(required=True, help="image manifest CSV file")),
        ("--detections-dir", dict(required=True, help="directory of per-image .txt detection files")),
        ("--class-map", dict(required=True, help="file listing species codes, one per class index")),
    ], _cmd_ingest_images),
    "ingest-survey": ("load a ground-truth survey CSV", False, [
        ("--file", dict(required=True, help="survey CSV file")),
        ("--survey-id", dict(default=None, help="survey identifier (default: file stem)")),
    ], _cmd_ingest_survey),
    "reconcile": ("match detections against survey records", True, [
        ("--radius", dict(type=float, default=2.0, help="match radius in meters (default: 2.0)")),
    ], _cmd_reconcile),
    "query": ("run a star-join aggregation", True, [
        ("--" + name.replace("_", "-"), dict(help=option.help)) for name, option in QUERY_OPTIONS.items()
    ], _cmd_report),
    "trend": ("detection counts over time for one species", True, [
        ("--species-code", dict(required=True)),
        ("--granularity", dict(choices=TIME_KEYS, default="month")),
    ], _cmd_report),
    "image-usage": ("image and detection counts by resolution and platform", True, [], _cmd_report),
    "stats": ("table row counts and file sizes", True, [], _cmd_report),
    "estimate": ("project warehouse growth", True, [
        ("--years", dict(type=int, default=10, help="projection horizon (default: 10)")),
        ("--events-per-year", dict(type=int, default=4, help="ingest events per year (default: 4)")),
    ], _cmd_estimate),
    "serve": ("run the HTTP service", False, [
        ("--bind", dict(default="127.0.0.1:8472", help="host:port to listen on")),
        ("--auth-token", dict(default=None, help="require this bearer token on every request")),
        ("--max-body-bytes", dict(type=int, default=64 * 2**20, help="request body limit")),
    ], _cmd_serve),
    "version": ("print the package version", None, [], _cmd_version),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser. Given a command name, it holds only that command's
    subparser, which parses, helps and errs as in the full parser; otherwise
    it holds every command, so that the top-level help and errors list them."""
    parser = argparse.ArgumentParser(
        prog="canopydw",
        description="File-backed star-schema warehouse for forest inventory data.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name in [command] if command in COMMANDS else COMMANDS:
        help_text, fmt, options, _ = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        if fmt is not None:
            p.add_argument("--root", default=None, help=f"warehouse root directory (default: ${ROOT_ENV_VAR})")
        if fmt:
            p.add_argument("--format", choices=("table", "csv"), default="table", help="output format (default: table)")
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
    return parser


def run_cli(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
        root = _resolve_root(args, parser) if "root" in args else None
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return COMMANDS[args.command][-1](args, root)
    except (WarehouseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 130


def main() -> None:
    raise SystemExit(run_cli(sys.argv[1:]))
