#!/usr/bin/env python3
"""Build the 238-image reference warehouse and print its size report.

The reference load reproduces the calibration numbers end to end:
four batches (22, 50, 116, 50 images) over three capture days, one detection
per image, 920.9 MiB of image payload. Running it prints the stats table,
the ten-year growth projection, and the standing discrepancy note.
"""

import argparse
import sys
import tempfile
from pathlib import Path

from canopydw.capacity import estimate_from_warehouse
from canopydw.fixtures import build_reference_warehouse
from canopydw.report import text_table
from canopydw.storage import open_warehouse, stats_rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "root",
        nargs="?",
        default=None,
        help="warehouse root to create (default: a fresh temp directory, removed at exit)",
    )
    parser.add_argument("--years", type=int, default=10)
    parser.add_argument("--events-per-year", type=int, default=4)
    args = parser.parse_args()
    # refused before anything is built, as canopydw estimate refuses them
    if args.years < 0:
        return _error("--years must be non-negative")
    if args.events_per_year <= 0:
        return _error("--events-per-year must be positive")

    if not args.root:
        with tempfile.TemporaryDirectory() as tmp:
            return _build_and_report(Path(tmp) / "reference_wh", args)
    code = _build_and_report(Path(args.root), args)
    print(f"\nreference warehouse preserved at {args.root}")
    return code


def _build_and_report(root: Path, args: argparse.Namespace) -> int:
    build_reference_warehouse(root)
    with open_warehouse(root, "ro") as handle:
        columns, rows = stats_rows(handle.stats())
        print(text_table(columns, rows))
        print()
        try:
            report = estimate_from_warehouse(handle, args.events_per_year, args.years)
        except ValueError as exc:  # a horizon whose projected size does not fit in a float
            return _error(str(exc))
    sys.stdout.write(report.to_text())
    return 0


def _error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
