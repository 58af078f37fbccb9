#!/usr/bin/env python3
"""End-to-end walkthrough: ingest, reconcile, query, estimate.

Generates a small synthetic campaign (two species, three images on two
platforms, a ground survey near the detections), pushes it through the
library surface, and prints each stage's output. Useful as living
documentation of the data flow and as a smoke check after changes.
"""

import argparse
import sys
import tempfile
from pathlib import Path

from canopydw.capacity import estimate_from_warehouse
from canopydw.ingest import (
    MANIFEST_HEADER,
    SURVEY_HEADER,
    ClassMap,
    ingest_image_batch,
    ingest_species_registry,
    ingest_survey,
    parse_image_manifest,
)
from canopydw.query import image_usage_report, run_query, spec_from_strings, species_trend
from canopydw.reconcile import metrics_csv, reconcile_warehouse
from canopydw.storage import open_warehouse

REGISTRY = [
    "code,scientific_name,common_name,conservation_status",
    "PSME,Pseudotsuga menziesii,Douglas-fir,least_concern",
    "TSHE,Tsuga heterophylla,Western hemlock,near_threatened",
]

# 100 px frames at 0.1 m/px, origins spaced so plots do not overlap
MANIFEST = [
    MANIFEST_HEADER,
    "plot_n.jpg,2024-04-02,uav,100,100,10.0,0.0,0.0,0.1,0.0,0.0,-0.1,2400000,"
    + "a" * 64,
    "plot_s.jpg,2024-04-02,uav,100,100,10.0,0.0,-20.0,0.1,0.0,0.0,-0.1,2600000,"
    + "b" * 64,
    "plot_sat.jpg,2024-07-15,satellite,4000,4000,30.0,-50.0,50.0,0.3,0.0,0.0,-0.3,9000000,"
    + "c" * 64,
]

DETECTIONS = {
    "plot_n.txt": [
        "0 0.25 0.25 0.1 0.12 0.91",
        "0 0.7 0.4 0.08 0.1 0.83",
        "1 0.5 0.8 0.12 0.14 0.58",
    ],
    "plot_s.txt": [
        "0 0.3 0.6 0.1 0.1 0.77",
        "1 0.8 0.2 0.09 0.11 0.64",
    ],
    "plot_sat.txt": [
        "0 0.5 0.5 0.01 0.01 0.42",
    ],
}

SURVEY = [
    SURVEY_HEADER,
    "n-001,2.5,-2.5,PSME,52.0,31.5,2024-03-28",  # matches plot_n detection 1
    "n-002,7.0,-4.0,PSME,38.0,24.0,2024-03-28",  # matches plot_n detection 2
    "n-003,5.0,-28.0,TSHE,45.0,27.0,2024-03-28",  # plot_s, species agrees
    "n-004,3.1,-26.1,TSHE,30.0,18.0,2024-03-28",  # nearest fact says PSME
    "n-005,90.0,90.0,PSME,60.0,40.0,2024-03-28",  # nothing detected here
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", nargs="?", default=None, help="warehouse root (default: a temp dir, removed at exit)")
    args = parser.parse_args()
    if not args.root:
        with tempfile.TemporaryDirectory() as tmp:
            _run(Path(tmp) / "demo_wh")
        return 0
    _run(Path(args.root))
    print(f"\nwarehouse preserved at {args.root}")
    return 0


def _run(root: Path) -> None:
    with open_warehouse(root, "rw") as handle:
        n = ingest_species_registry(handle, REGISTRY, source="registry.csv")
        print(f"== ingest: {n} species codes")

        manifest = parse_image_manifest(MANIFEST, source="manifest.csv")
        report = ingest_image_batch(handle, manifest, DETECTIONS, ClassMap(["PSME", "TSHE"]))
        print(f"== ingest: {report.summary()}")

        records = ingest_survey(handle, "april_plots", SURVEY, source="survey.csv")
        print(f"== ingest: survey april_plots with {len(records)} records")

        outcome = reconcile_warehouse(handle, radius_m=2.0)
        print(f"== reconcile: {outcome.facts_updated} facts annotated")
        sys.stdout.write(metrics_csv(outcome.metrics))

        print("\n== query: tree counts by species and platform")
        spec = spec_from_strings({
            "group_by": "species,platform",
            "measures": "tree_count,mean_confidence,confirmed_count",
        })
        print(run_query(handle, spec).to_text())

        print("\n== query: monthly trend for PSME")
        print(species_trend(handle, "PSME", "month").to_text())

        print("\n== query: image usage by resolution class")
        print(image_usage_report(handle).to_text())

        print("\n== estimate: ten-year projection")
        sys.stdout.write(estimate_from_warehouse(handle, 4, 10).to_text())


if __name__ == "__main__":
    raise SystemExit(main())
