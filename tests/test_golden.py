"""Reports compared byte for byte with stored goldens.

A seeded root, reconciled so that every validation state occurs, answers
the query specs of the HTTP benchmark client, a few filtered specs, a
species trend and the image usage report. The CLI's CSV and the JSON body
(from GET /v1/query for queries) must equal the files in golden/. A copy
of the root is then reconciled again: the CLI's metrics CSV and the pairs
matched, with the exact distances, are golden too.

Regenerate the goldens (only when a report is meant to change):
    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import sys
from pathlib import Path
from urllib.parse import urlencode

import pytest
import requests

from canopydw.cli import run_cli
from canopydw.query import image_usage_report, species_trend
from canopydw.reconcile import reconcile_warehouse
from canopydw.storage import open_warehouse

from conftest import running_server
from helpers import SPECIES_POOL, fact_rows, make_record, populate_random

GOLDEN_DIR = Path(__file__).parent / "golden"

# The six query specs the serve_mixed benchmark client cycles through.
SERVE_SPECS = (
    {"group_by": "species", "measures": "tree_count,mean_confidence"},
    {"group_by": "platform", "measures": "tree_count,image_count"},
    {"group_by": "month,species", "measures": "tree_count"},
    {"group_by": "resolution_class,conservation_status", "measures": "tree_count,confirmed_count"},
    {"measures": "tree_count,mean_confidence,image_count"},
    {"group_by": "year,platform", "measures": "tree_count,mean_height_m"},
)
# Specs that use every filter and the measures the six do not.
FILTER_SPECS = (
    {
        "group_by": "species,date",
        "measures": "tree_count,mean_height_m,mean_dbh_cm,confirmed_count",
        "date_from": "20240201",
        "date_to": "20241115",
        "validation_states": "confirmed,species_mismatch,unvalidated",
    },
    {
        "group_by": "quarter,resolution_class",
        "measures": "mean_confidence,image_count,mean_dbh_cm",
        "species_codes": "PSME,THPL,ALRU",
        "platforms": "uav,aerial",
        "min_width_px": "1024",
        "min_height_px": "1000",
    },
)
QUERY_CASES = {f"serve_{i}": spec for i, spec in enumerate(SERVE_SPECS, 1)} | {
    f"filter_{i}": spec for i, spec in enumerate(FILTER_SPECS, 1)
}


def build_golden_root(root: Path) -> None:
    """A seeded root holding facts in all four validation states."""
    rng = random.Random(20240115)
    with open_warehouse(root) as wh:
        populate_random(wh, rng, n_images=40, max_facts_per_image=12)
        facts = list(fact_rows(wh.state.facts).values())
        records = []
        for i, fact in enumerate(rng.sample(facts, len(facts) // 2)):
            code = wh.state.species_code_of(fact.species_key)
            if i % 4 == 0:
                code = rng.choice([c for c in SPECIES_POOL if c != code])
            records.append(
                make_record(
                    f"R{i:03d}",
                    fact.geo_x + rng.uniform(-1, 1),
                    fact.geo_y + rng.uniform(-1, 1),
                    code,
                    dbh_cm=rng.choice((None, rng.uniform(5, 150))),
                    height_m=rng.choice((None, rng.uniform(2, 60))),
                )
            )
        wh.save_survey("golden", records)
        reconcile_warehouse(wh)
        populate_random(wh, rng, n_images=8, max_facts_per_image=12)  # left unvalidated


def _cli_csv(argv: list[str]) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run_cli(argv) == 0
    return out.getvalue().encode()


def _query_argv(root: Path, spec: dict) -> list[str]:
    argv = ["query", "--root", str(root), "--format", "csv"]
    for name, value in spec.items():
        argv += ["--" + name.replace("_", "-"), value]
    return argv


def render_goldens(root: Path) -> dict[str, bytes]:
    """Every golden file's name and content, as the program renders them for root."""
    out = {}
    with running_server(root) as base:
        for name, spec in QUERY_CASES.items():
            out[f"{name}.csv"] = _cli_csv(_query_argv(root, spec))
            reply = requests.get(f"{base}/v1/query?{urlencode(spec)}", timeout=30)
            assert reply.status_code == 200, reply.text
            out[f"{name}.json"] = reply.content
    out["trend.csv"] = _cli_csv(["trend", "--root", str(root), "--format", "csv", "--species-code", "PSME"])
    out["image_usage.csv"] = _cli_csv(["image-usage", "--root", str(root), "--format", "csv"])
    with open_warehouse(root, "ro") as wh:
        out["trend.json"] = json.dumps(species_trend(wh, "PSME").to_json()).encode()
        out["image_usage.json"] = json.dumps(image_usage_report(wh).to_json()).encode()
    copy = root.parent / "reconciled"  # the reports above read root as built
    shutil.copytree(root, copy)
    out["reconcile.csv"] = _cli_csv(["reconcile", "--root", str(copy), "--format", "csv"])
    with open_warehouse(copy) as wh:
        pairs = reconcile_warehouse(wh).match.pairs
    lines = ["fact_id,record_id,distance_m", *(f"{p.fact_id},{p.record_id},{p.distance_m!r}" for p in pairs)]
    out["reconcile_pairs.csv"] = "\n".join([*lines, ""]).encode()
    return out


@pytest.fixture(scope="module")
def rendered(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden") / "wh"
    build_golden_root(root)
    with open_warehouse(root, "ro") as wh:
        states = {fact.validation for fact in fact_rows(wh.state.facts).values()}
    assert states == {"unvalidated", "confirmed", "species_mismatch", "unmatched"}
    return render_goldens(root)


GOLDEN_NAMES = sorted(
    [f"{case}.{ext}" for case in [*QUERY_CASES, "trend", "image_usage"] for ext in ("csv", "json")]
    + ["reconcile.csv", "reconcile_pairs.csv"]
)


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_report_matches_golden(rendered, name):
    assert rendered[name] == (GOLDEN_DIR / name).read_bytes()


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "wh"
        build_golden_root(root)
        GOLDEN_DIR.mkdir(exist_ok=True)
        for name, data in render_goldens(root).items():
            (GOLDEN_DIR / name).write_bytes(data)
            print(name, len(data), file=sys.stderr)
