"""Acceptance gate: the ten headline guarantees, one test each.

Each test prints a single `[acceptance] Cn <label>: PASS|FAIL` line so the
gate's verdict can be read off a captured log (`pytest -s tests/test_acceptance.py`).
Timed criteria assert their own budgets.
"""

import csv
import io
import random
import threading
import time
from contextlib import contextmanager
from fractions import Fraction

import requests

from canopydw.capacity import (
    average_daily_images,
    estimate_from_warehouse,
    model_from_warehouse,
    project,
    total_records,
    yearly_growth,
)
from canopydw.errors import (
    IntegrityError,
    ParseError,
    RangeError,
    UnknownSpeciesError,
)
from canopydw.ingest import (
    MANIFEST_HEADER,
    SURVEY_HEADER,
    ingest_survey,
    parse_detection_file,
    parse_detection_line,
    parse_image_manifest,
    render_detection_line,
    render_manifest_row,
)
from canopydw.model import FactRow, Geotransform, validate_fact
from canopydw.cli import run_cli
from canopydw.query import run_query
from canopydw.reconcile import (
    MatchPair,
    MatchResult,
    compute_metrics,
    geo_to_pixel,
    match_detections,
    metrics_csv,
    pixel_to_geo,
)
from canopydw.storage import open_warehouse, stats_rows

from conftest import running_server
from helpers import (
    checksum_for,
    fact_rows,
    logical_state,
    make_draft,
    make_image,
    make_record,
    oracle_match,
    oracle_query,
    populate_random,
)
from test_query import _random_spec

MIB = 2**20
GIB = 2**30


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] C{number} {label}: FAIL")
        raise
    print(f"[acceptance] C{number} {label}: PASS")


# -- C1 ------------------------------------------------------------------------------


def test_c01_capacity_anchors():
    with criterion(1, "capacity anchors"):
        assert average_daily_images([[22], [50], [116, 50]]) == 51
        assert total_records([22, 50, 116, 50]) == 238
        model = model_for_anchor()
        assert model.avg_images_per_day == 51
        assert model.ingest_events_per_year == 4
        assert yearly_growth(model) == 204


def model_for_anchor():
    from canopydw.capacity import GrowthModel

    return GrowthModel(
        avg_images_per_day=51,
        ingest_events_per_year=4,
        current_records=238,
        bytes_per_image_record=Fraction(965_620_122, 238),
        bytes_per_fact_record=Fraction(62),
    )


# -- C2 ------------------------------------------------------------------------------


def test_c02_reference_size_report(reference_root):
    with criterion(2, "reference size report and documented discrepancy"):
        with open_warehouse(reference_root, "ro") as handle:
            stats = handle.stats()
            columns, rows = stats_rows(stats)
            report = estimate_from_warehouse(handle, 4, 10)
            model = model_from_warehouse(handle, 4)

        assert stats.image_count == 238
        assert stats.fact_count == 238
        payload_mib = stats.image_payload_bytes / MIB
        fact_mib = stats.table("fact_tree_metrics").file_bytes / MIB
        assert abs(payload_mib - 920.9) <= 0.05
        assert abs(fact_mib - 0.01) <= 0.005
        by_name = {row[0]: row for row in rows}
        assert by_name["image_payload"][3] == "920.9"

        # the linear model's own answers, not the reference 10-year pair
        assert project(model, 10).records == 2278
        assert report.projected_records == 2278
        recomputed_gib = model.image_bytes(2072) / GIB
        assert abs(recomputed_gib - 7.83) <= 0.005
        for fragment in ("2072", "8.12", "2278", "7.83"):
            assert fragment in report.note


# -- C3 ------------------------------------------------------------------------------


def test_c03_persistence_round_trip(tmp_path):
    with criterion(3, "500 ingest sequences survive close/reopen"):
        started = time.monotonic()
        rng = random.Random(20240814)
        for case in range(500):
            root = tmp_path / f"wh{case}"
            with open_warehouse(root) as handle:
                populate_random(
                    handle, rng, n_images=rng.randrange(1, 5), max_facts_per_image=3
                )
                if case % 4 == 0:
                    handle.save_survey(
                        f"plot{case}",
                        [
                            make_record(f"c{case}r{i}", rng.uniform(-9, 9), rng.uniform(-9, 9))
                            for i in range(rng.randrange(1, 4))
                        ],
                    )
                snapshot = logical_state(handle)
            mode = "rw" if case % 10 == 0 else "ro"
            with open_warehouse(root, mode) as handle:
                assert logical_state(handle) == snapshot
        elapsed = time.monotonic() - started
        assert elapsed < 60, f"took {elapsed:.1f}s"


# -- C4 ------------------------------------------------------------------------------


def test_c04_referential_integrity_and_atomic_batches(tmp_path):
    with criterion(4, "facts stay dimension-consistent; bad batches commit nothing"):
        rng = random.Random(424242)
        for case in range(30):
            root = tmp_path / f"wh{case}"
            with open_warehouse(root) as handle:
                populate_random(
                    handle, rng, n_images=rng.randrange(1, 6), max_facts_per_image=4
                )
                for fact in fact_rows(handle.state.facts).values():
                    assert validate_fact(fact, handle.state) == []

                image = next(iter(handle.state.images.values()))
                good = make_draft(image, species_key=1)
                bad = make_draft(image, species_key=9999)  # no such species
                before_state = logical_state(handle)
                before_bytes = (root / "fact_tree_metrics.tbl").read_bytes()
                try:
                    handle.append_facts([good, bad, good])
                    raise AssertionError("invalid batch was accepted")
                except IntegrityError:
                    pass
                assert logical_state(handle) == before_state
                assert (root / "fact_tree_metrics.tbl").read_bytes() == before_bytes

                # ids are not burned by the rejected batch
                next_id = max(fact_rows(handle.state.facts), default=0) + 1
                (new_id,) = handle.append_facts([good])
                assert new_id == next_id
                assert validate_fact(fact_rows(handle.state.facts)[new_id], handle.state) == []


# -- C5 ------------------------------------------------------------------------------


def _bare_fact(fid: int, x: float, y: float, species_key: int = 1) -> FactRow:
    image = make_image()
    return make_draft(image, species_key=species_key, geo_x=x, geo_y=y).row(fid)


def test_c05_matching_equals_brute_force():
    with criterion(5, "1000 matching instances agree with the brute-force rule"):
        started = time.monotonic()
        rng = random.Random(5555)
        for _ in range(1000):
            n_f = rng.randrange(0, 9)
            n_r = rng.randrange(0, 9)
            facts = [
                _bare_fact(i, rng.uniform(-4, 4), rng.uniform(-4, 4))
                for i in range(1, n_f + 1)
            ]
            records = [
                make_record(f"r{j}", rng.uniform(-4, 4), rng.uniform(-4, 4))
                for j in range(1, n_r + 1)
            ]
            radius = rng.choice((0.5, 1.0, 2.0, 5.0))
            result = match_detections(facts, records, radius)
            got = [(p.fact_id, p.record_id, p.distance_m) for p in result.pairs]
            assert got == oracle_match(facts, records, radius)
        elapsed = time.monotonic() - started
        assert elapsed < 60, f"took {elapsed:.1f}s"


# -- C6 ------------------------------------------------------------------------------


def test_c06_metrics_correctness():
    with criterion(6, "confusion metrics incl. the 59/100 accuracy case"):
        # 100 matched pairs, 59 of them species-agreeing
        records = [make_record(f"r{i}", float(i), 0.0, code="PSME") for i in range(100)]
        fact_species = {i: ("PSME" if i < 59 else "TSHE") for i in range(100)}
        match = MatchResult(
            pairs=tuple(MatchPair(i, f"r{i}", 0.5) for i in range(100)),
            unmatched_fact_ids=(),
            unmatched_record_ids=(),
        )
        metrics = compute_metrics(fact_species, records, match)
        assert metrics.matched_pairs == 100
        assert metrics.agreeing_pairs == 59
        assert metrics.accuracy == 0.59
        assert "OVERALL,accuracy=0.59" in metrics_csv(metrics)
        psme = metrics.species("PSME")
        assert (psme.tp, psme.fp, psme.fn) == (59, 0, 41)
        assert psme.precision == 1.0 and psme.recall == 59 / 100
        tshe = metrics.species("TSHE")
        assert (tshe.tp, tshe.fp, tshe.fn) == (0, 41, 0)
        assert tshe.precision == 0.0 and tshe.recall is None

        # conservation identities on random instances
        rng = random.Random(66)
        for _ in range(50):
            facts = [
                _bare_fact(i, rng.uniform(-3, 3), rng.uniform(-3, 3), species_key=1)
                for i in range(1, rng.randrange(1, 10))
            ]
            codes = ("PSME", "TSHE", "THPL")
            fact_species = {f.fact_id: rng.choice(codes) for f in facts}
            records = [
                make_record(f"r{j}", rng.uniform(-3, 3), rng.uniform(-3, 3), code=rng.choice(codes))
                for j in range(rng.randrange(0, 10))
            ]
            match = match_detections(facts, records, 2.0)
            metrics = compute_metrics(fact_species, records, match)
            assert sum(s.tp for s in metrics.per_species) == metrics.agreeing_pairs
            assert sum(s.tp + s.fp for s in metrics.per_species) == len(fact_species)
            assert sum(s.tp + s.fn for s in metrics.per_species) == len(records)


# -- C7 ------------------------------------------------------------------------------


def test_c07_query_equals_oracle(tmp_path):
    with criterion(7, "200 random warehouses agree with the scan oracle"):
        started = time.monotonic()
        rng = random.Random(777)
        for case in range(200):
            root = tmp_path / f"wh{case}"
            with open_warehouse(root) as handle:
                populate_random(
                    handle,
                    rng,
                    n_images=rng.randrange(1, 21),
                    max_facts_per_image=rng.randrange(1, 11),
                )
                assert len(handle.state.facts) <= 200
                for _ in range(3):
                    spec = _random_spec(rng)
                    assert run_query(handle, spec).rows == tuple(
                        oracle_query(handle.state, spec)
                    )
        elapsed = time.monotonic() - started
        assert elapsed < 60, f"took {elapsed:.1f}s"


# -- C8 ------------------------------------------------------------------------------


def _manifest_line(**overrides) -> str:
    row = {
        "file_name": "t.jpg",
        "capture_date": "2024-03-05",
        "platform": "uav",
        "width_px": "640",
        "height_px": "480",
        "gsd_cm_per_px": "2.5",
        "gt_origin_x": "0.0",
        "gt_origin_y": "0.0",
        "gt_a": "0.1",
        "gt_b": "0.0",
        "gt_d": "0.0",
        "gt_e": "-0.1",
        "size_bytes": "1000",
        "checksum": checksum_for("t.jpg"),
    }
    row.update(overrides)
    return ",".join(row[f] for f in MANIFEST_HEADER.split(","))


DETECTION_CORPUS = [
    ("", None),  # blank: skipped, kept for context lines
    ("0 0.5 0.5", ParseError),
    ("0 0.5 0.5 0.2", ParseError),
    ("0 0.5 0.5 0.2 0.2 0.9 1", ParseError),
    ("x 0.5 0.5 0.2 0.2", ParseError),
    ("1.5 0.5 0.5 0.2 0.2", ParseError),
    ("0 abc 0.5 0.2 0.2", ParseError),
    ("0 0.5 abc 0.2 0.2", ParseError),
    ("0 0.5 0.5 abc 0.2", ParseError),
    ("0 0.5 0.5 0.2 abc", ParseError),
    ("0 0.5 0.5 0.2 0.2 abc", ParseError),
    ("-1 0.5 0.5 0.2 0.2", RangeError),
    ("0 1.2 0.5 0.2 0.2", RangeError),
    ("0 -0.2 0.5 0.2 0.2", RangeError),
    ("0 0.5 1.2 0.2 0.2", RangeError),
    ("0 0.5 -0.2 0.2 0.2", RangeError),
    ("0 0.5 0.5 0 0.2", RangeError),
    ("0 0.5 0.5 -0.1 0.2", RangeError),
    ("0 0.5 0.5 0.2 0", RangeError),
    ("0 0.5 0.5 1.2 0.2", RangeError),
    ("0 0.5 0.5 0.2 1.2", RangeError),
    ("0 0.5 0.5 0.2 0.2 1.2", RangeError),
    ("0 0.5 0.5 0.2 0.2 -0.2", RangeError),
    ("0 nan 0.5 0.2 0.2", RangeError),
    ("0 inf 0.5 0.2 0.2", RangeError),
    ("0 0.5 0.5 nan 0.2", RangeError),
    ("0 0.9 0.5 0.5 0.1", RangeError),  # overhangs the right edge
    ("0 0.5 0.9 0.1 0.5", RangeError),  # overhangs the bottom edge
]

MANIFEST_CORPUS = [
    ("only,three,fields", ParseError),
    (_manifest_line(capture_date="2024-13-05"), ParseError),
    (_manifest_line(capture_date="05/03/2024"), ParseError),
    (_manifest_line(platform="blimp"), RangeError),
    (_manifest_line(width_px="abc"), ParseError),
    (_manifest_line(width_px="0"), RangeError),
    (_manifest_line(height_px="-3"), RangeError),
    (_manifest_line(gsd_cm_per_px="abc"), ParseError),
    (_manifest_line(gsd_cm_per_px="-1"), RangeError),
    (_manifest_line(gt_a="abc"), ParseError),
    (_manifest_line(gt_a="0", gt_b="0", gt_d="0", gt_e="0"), RangeError),
    (_manifest_line(size_bytes="12.5"), ParseError),
    (_manifest_line(size_bytes="-1"), RangeError),
    (_manifest_line(checksum="zz"), RangeError),
    (_manifest_line(file_name=""), ParseError),  # empty required field
]

SURVEY_CORPUS = [
    ("R9,1.0,2.0", ParseError),
    ("R9,1.0,2.0,PSME,,,2024-03-01,extra", ParseError),
    (",1.0,2.0,PSME,,,2024-03-01", ParseError),
    ("R9,1.0,2.0,PSME,nan,,2024-03-01", RangeError),
    ("R9,abc,2.0,PSME,,,2024-03-01", ParseError),
    ("R9,1.0,abc,PSME,,,2024-03-01", ParseError),
    ("R9,inf,2.0,PSME,,,2024-03-01", RangeError),
    ("R9,1.0,nan,PSME,,,2024-03-01", RangeError),
    ("R9,1.0,2.0,PSME,-4,,2024-03-01", RangeError),
    ("R9,1.0,2.0,PSME,0,,2024-03-01", RangeError),
    ("R9,1.0,2.0,PSME,,-1,2024-03-01", RangeError),
    ("R9,1.0,2.0,PSME,,abc,2024-03-01", ParseError),
    ("R9,1.0,2.0,PSME,,,2024-02-30", ParseError),
    ("R9,1.0,2.0,PSME,,,03/01/2024", ParseError),
    ("R9,1.0,2.0,ABIE,,,2024-03-01", UnknownSpeciesError),
    ("R1,1.0,2.0,PSME,,,2024-03-01", ParseError),  # duplicates row 2's id
]


def test_c08_parser_strictness(tmp_path):
    with criterion(8, "50-line malformed corpus is rejected with attribution"):
        corpus_size = 0

        for line, expected in DETECTION_CORPUS:
            if expected is None:
                assert parse_detection_line(line) is None
                continue
            corpus_size += 1
            # two valid context lines so attribution has something to miss
            lines = ["0 0.5 0.5 0.2 0.2 0.9", "", line]
            try:
                parse_detection_file(lines, source="det.txt")
                raise AssertionError(f"accepted: {line!r}")
            except expected as exc:
                assert exc.source == "det.txt"
                assert exc.line_no == 3
                assert str(exc).startswith("det.txt:3:")

        for line, expected in MANIFEST_CORPUS:
            corpus_size += 1
            lines = [MANIFEST_HEADER, _manifest_line(file_name="ok.jpg", checksum=checksum_for("ok.jpg")), line]
            try:
                parse_image_manifest(lines, source="man.csv")
                raise AssertionError(f"accepted: {line!r}")
            except expected as exc:
                assert exc.source == "man.csv"
                assert exc.line_no == 3

        with open_warehouse(tmp_path / "wh") as handle:
            handle.upsert_species("PSME")
            for line, expected in SURVEY_CORPUS:
                corpus_size += 1
                lines = [SURVEY_HEADER, "R1,0.0,0.0,PSME,,,2024-03-01", line]
                try:
                    ingest_survey(handle, "bad", lines, source="sv.csv")
                    raise AssertionError(f"accepted: {line!r}")
                except expected as exc:
                    if isinstance(exc, (ParseError, RangeError)):
                        assert exc.source == "sv.csv"
                        assert exc.line_no == 3
                    else:
                        assert "sv.csv:3" in str(exc)
                assert handle.list_survey_ids() == []

        assert corpus_size >= 50, corpus_size

        # valid canonical lines survive a parse/render cycle bit-exactly
        rng = random.Random(88)
        for _ in range(200):
            w = round(rng.uniform(0.01, 0.6), 6)
            h = round(rng.uniform(0.01, 0.6), 6)
            cx = round(rng.uniform(w / 2, 1 - w / 2), 6)
            cy = round(rng.uniform(h / 2, 1 - h / 2), 6)
            conf = round(rng.uniform(0, 1), 6)
            line = f"{rng.randrange(10)} {cx!r} {cy!r} {w!r} {h!r} {conf!r}"
            det = parse_detection_line(line)
            assert render_detection_line(det) == line
            assert parse_detection_line(render_detection_line(det)) == det

        metas = [
            make_image(file_name=f"rt_{i}.jpg", checksum=None,
                       width_px=rng.randrange(100, 9000),
                       height_px=rng.randrange(100, 9000)).meta
            for i in range(20)
        ]
        rendered = [render_manifest_row(m) for m in metas]
        reparsed = parse_image_manifest([MANIFEST_HEADER] + rendered)
        assert [render_manifest_row(m) for m in reparsed] == rendered


# -- C9 ------------------------------------------------------------------------------


def _cli_csv(capsys, argv) -> list[list[str]]:
    assert run_cli(argv) == 0
    out = capsys.readouterr().out
    return list(csv.reader(io.StringIO(out)))


def test_c09_service_matches_cli_and_concurrent_ingest(reference_root, tmp_path, capsys):
    with criterion(9, "service rows equal CLI csv; 8x10x3 concurrent ingest = 240"):
        root_arg = ["--root", str(reference_root), "--format", "csv"]
        with running_server(reference_root) as base:
            # stats
            service = requests.get(f"{base}/v1/stats", timeout=10).json()
            cli = _cli_csv(capsys, ["stats"] + root_arg)
            assert cli[0] == service["columns"]
            assert cli[1:] == service["rows"]

            # query, a grouped and an ungrouped spec
            for params in (
                {"group_by": "species,platform", "measures": "tree_count,mean_confidence"},
                {"measures": "tree_count,image_count"},
                {"group_by": "date", "measures": "tree_count", "platforms": "uav,ground"},
            ):
                service = requests.get(f"{base}/v1/query", params=params, timeout=10).json()
                argv = ["query"] + root_arg
                for key, value in params.items():
                    argv += [f"--{key.replace('_', '-')}", value]
                cli = _cli_csv(capsys, argv)
                assert cli[0] == service["columns"], params
                assert cli[1:] == service["rows"], params

            # estimate: parameters, size table, and note all line up
            service = requests.get(
                f"{base}/v1/estimate", params={"years": 10, "events_per_year": 4}, timeout=10
            ).json()
            cli = _cli_csv(capsys, ["estimate", "--years", "10", "--events-per-year", "4"] + root_arg)
            n_params = len(service["parameters"])
            assert cli[0] == ["field", "value"]
            cli_params = {name: value for name, value in cli[1 : 1 + n_params]}
            assert cli_params == {k: str(v) for k, v in service["parameters"].items()}
            assert cli[1 + n_params] == service["columns"]
            table_rows = cli[2 + n_params : 2 + n_params + len(service["rows"])]
            assert table_rows == service["rows"]
            assert cli[-2] == ["note"]
            assert cli[-1] == [service["note"]]

        # concurrent ingest into a fresh root: 8 clients x 10 images x 3 detections
        work_root = tmp_path / "wh"
        with open_warehouse(work_root, "rw"):
            pass
        detections = [
            "0 0.25 0.25 0.1 0.1 0.9",
            "1 0.5 0.5 0.2 0.2 0.8",
            "0 0.75 0.75 0.1 0.1 0.7",
        ]
        failures = []

        def client(cid: int):
            with requests.Session() as session:
                for i in range(10):
                    name = f"c{cid}_{i:02d}.jpg"
                    r = session.post(
                        f"{base}/v1/images",
                        json={
                            "manifest": {
                                "file_name": name,
                                "capture_date": "2024-01-15",
                                "platform": "uav",
                                "width_px": "100",
                                "height_px": "100",
                                "gsd_cm_per_px": "10.0",
                                "gt_origin_x": "0.0",
                                "gt_origin_y": "0.0",
                                "gt_a": "0.1",
                                "gt_b": "0.0",
                                "gt_d": "0.0",
                                "gt_e": "-0.1",
                                "size_bytes": "4000000",
                                "checksum": checksum_for(name),
                            },
                            "detections": detections,
                            "class_map": ["PSME", "TSHE"],
                        },
                        timeout=30,
                    )
                    if r.status_code != 200 or r.json()["facts_added"] != 3:
                        failures.append((cid, i, r.status_code, r.text))

        with running_server(work_root) as base:
            threads = [threading.Thread(target=client, args=(c,)) for c in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not failures, failures[:3]

        with open_warehouse(work_root, "ro") as handle:
            assert len(handle.state.facts) == 240
            assert len(handle.state.images) == 80
            for fact in fact_rows(handle.state.facts).values():
                assert validate_fact(fact, handle.state) == []


# -- C10 -----------------------------------------------------------------------------


def test_c10_geotransform_round_trip():
    with criterion(10, "1000 transform round-trips stay under 1e-9 px"):
        rng = random.Random(1010)
        done = 0
        worst = 0.0
        while done < 1000:
            a, b, d, e = (rng.uniform(-2, 2) for _ in range(4))
            if abs(a * e - b * d) < 0.1:
                continue
            gt = Geotransform(
                origin_x=rng.uniform(-1000, 1000),
                origin_y=rng.uniform(-1000, 1000),
                a=a, b=b, d=d, e=e,
            )
            col = rng.uniform(0, 4096)
            row = rng.uniform(0, 4096)
            col2, row2 = geo_to_pixel(gt, *pixel_to_geo(gt, col, row))
            worst = max(worst, abs(col2 - col), abs(row2 - row))
            done += 1
        assert worst < 1e-9, worst
