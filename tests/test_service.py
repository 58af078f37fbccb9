import http.client
import json
import os
import re
import socket
import sys
import threading
import time

import pytest
import requests

from canopydw import service
from canopydw.capacity import estimate_from_warehouse
from canopydw.query import run_query, spec_from_strings
from canopydw.report import render_cell
from canopydw.storage import FACTS, open_warehouse, stats_rows

from conftest import running_server, serving
from helpers import EMPTY_LIST_REFUSALS, checksum_for, fact_rows

MIB = 2**20
FACT_TABLE = FACTS.file


def manifest_row(name: str, **overrides) -> dict:
    row = {
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
    }
    row.update(overrides)
    return row


def post_image(base, name, detections, class_map=("PSME", "TSHE"), **kwargs):
    return requests.post(
        f"{base}/v1/images",
        json={
            "manifest": manifest_row(name),
            "detections": list(detections),
            "class_map": list(class_map),
        },
        timeout=10,
        **kwargs,
    )


def fact_count(base, **kwargs) -> int:
    payload = requests.get(f"{base}/v1/stats", timeout=10, **kwargs).json()
    for row in payload["rows"]:
        if row[0] == "fact_tree_metrics":
            return int(row[1])
    raise AssertionError(payload)


@pytest.fixture
def root(tmp_path):
    path = tmp_path / "wh"
    with open_warehouse(path, "rw"):
        pass
    return path


# -- protocol basics ---------------------------------------------------------------


def test_health(root):
    with running_server(root) as base:
        r = requests.get(f"{base}/v1/health", timeout=10)
        assert r.status_code == 200
        assert r.json() == {"status": "ok"}


def test_keep_alive_responses_are_not_delayed(root):
    # Headers and body leave as two writes; with Nagle's algorithm on, each
    # body waits for the client's delayed ACK (about 40 ms per response).
    with running_server(root) as base:
        host, port = base.removeprefix("http://").rsplit(":", 1)
        conn = http.client.HTTPConnection(host, int(port), timeout=10)
        try:
            start = time.perf_counter()
            for _ in range(20):
                conn.request("GET", "/v1/health")
                response = conn.getresponse()
                assert response.status == 200
                response.read()
            elapsed = time.perf_counter() - start
        finally:
            conn.close()
    assert elapsed < 0.4, f"20 keep-alive GETs took {elapsed:.3f} s"


def test_unknown_endpoint_404(root):
    with running_server(root) as base:
        r = requests.get(f"{base}/v1/nope", timeout=10)
        assert r.status_code == 404
        assert "error" in r.json()


def test_wrong_method_405(root):
    with running_server(root) as base:
        assert requests.get(f"{base}/v1/images", timeout=10).status_code == 405
        assert requests.post(f"{base}/v1/query", json={}, timeout=10).status_code == 405


def test_auth_required_when_configured(root):
    with running_server(root, auth_token="sesame") as base:
        # health stays open for probes
        assert requests.get(f"{base}/v1/health", timeout=10).status_code == 200
        assert requests.get(f"{base}/v1/stats", timeout=10).status_code == 401
        bad = {"Authorization": "Bearer wrong"}
        assert requests.get(f"{base}/v1/stats", headers=bad, timeout=10).status_code == 401
        good = {"Authorization": "Bearer sesame"}
        assert requests.get(f"{base}/v1/stats", headers=good, timeout=10).status_code == 200


def test_no_auth_needed_by_default(root):
    with running_server(root) as base:
        assert requests.get(f"{base}/v1/stats", timeout=10).status_code == 200


def test_malformed_json_400(root):
    with running_server(root) as base:
        r = requests.post(
            f"{base}/v1/reconcile",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
            timeout=10,
        )
        assert r.status_code == 400


def test_non_object_json_400(root):
    with running_server(root) as base:
        r = requests.post(f"{base}/v1/reconcile", json=[1, 2], timeout=10)
        assert r.status_code == 400


def test_missing_content_length_400(root):
    with running_server(root) as base:
        host, port = base.removeprefix("http://").rsplit(":", 1)
        conn = http.client.HTTPConnection(host, int(port), timeout=10)
        try:
            conn.putrequest("POST", "/v1/reconcile")
            conn.endheaders()
            assert conn.getresponse().status == 400
        finally:
            conn.close()


@pytest.mark.parametrize("length", ["ten", "-1"])
def test_bad_content_length_400(root, length):
    with running_server(root) as base:
        host, port = base.removeprefix("http://").rsplit(":", 1)
        conn = http.client.HTTPConnection(host, int(port), timeout=10)
        try:
            conn.putrequest("POST", "/v1/reconcile")
            conn.putheader("Content-Length", length)
            conn.endheaders()
            response = conn.getresponse()
            assert response.status == 400
            assert json.loads(response.read()) == {"error": "bad Content-Length"}
        finally:
            conn.close()


def test_oversized_body_413(root):
    with running_server(root, max_body_bytes=MIB) as base:
        host, port = base.removeprefix("http://").rsplit(":", 1)
        conn = http.client.HTTPConnection(host, int(port), timeout=10)
        try:
            conn.putrequest("POST", "/v1/images")
            conn.putheader("Content-Length", str(MIB + 1))
            conn.endheaders()
            assert conn.getresponse().status == 413
        finally:
            conn.close()


_SURVEY_BODY = b'{"survey_id": "s1", "rows": []}'
_HEALTH = b"GET /v1/health HTTP/1.1\r\nHost: t\r\n\r\n"
_LAST_HEALTH = b"GET /v1/health HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"


def _post_bytes(path, token="t", length=len(_SURVEY_BODY)):
    head = f"POST {path} HTTP/1.1\r\nHost: t\r\nAuthorization: Bearer {token}\r\nContent-Length: {length}\r\n\r\n"
    return head.encode() + _SURVEY_BODY


def _pipelined(base, *requests_bytes) -> bytes:
    """All the server sends back, until it closes the connection, for these
    requests written at once on one socket."""
    host, port = base.removeprefix("http://").rsplit(":", 1)
    reply = b""
    with socket.create_connection((host, int(port)), timeout=10) as sock:
        sock.sendall(b"".join(requests_bytes))
        try:
            while chunk := sock.recv(65536):
                reply += chunk
        except ConnectionResetError:  # the server closed with bytes of ours unread
            pass
    return reply


@pytest.mark.parametrize(
    "request_bytes, status",
    [
        (_post_bytes("/v1/surveys", token="wrong"), b"401"),
        (_post_bytes("/v1/nope"), b"404"),
        (_post_bytes("/v1/query"), b"405"),
        (_post_bytes("/v1/images", length=MIB + 1), b"413"),
    ],
    ids=["401", "404", "405", "413"],
)
def test_a_refused_body_is_not_read_as_the_next_request(root, request_bytes, status):
    with running_server(root, auth_token="t", max_body_bytes=MIB) as base:
        reply = _pipelined(base, request_bytes, _HEALTH, _LAST_HEALTH)
    assert re.findall(rb"HTTP/1\.1 (\d{3}) ", reply) == [status]
    assert b"Connection: close" in reply
    assert b"Bad request syntax" not in reply


def test_a_served_post_keeps_its_connection_for_pipelined_requests(root):
    with running_server(root, auth_token="t") as base:
        reply = _pipelined(base, _post_bytes("/v1/surveys"), _HEALTH, _LAST_HEALTH)
    assert re.findall(rb"HTTP/1\.1 (\d{3}) ", reply) == [b"200"] * 3
    assert b'{"survey_id": "s1", "records": 0}' in reply
    assert b"Connection: close" not in reply


def test_body_limit_floor():
    from canopydw.service import ServiceConfig

    with pytest.raises(ValueError):
        ServiceConfig(max_body_bytes=MIB - 1)
    with pytest.raises(ValueError):
        ServiceConfig(bind_address="nohost")
    with pytest.raises(ValueError, match="port must be in 0-65535"):
        ServiceConfig(bind_address="127.0.0.1:99999")


# -- writes ------------------------------------------------------------------------


def test_post_image_adds_facts(root):
    with running_server(root) as base:
        before = fact_count(base)
        r = post_image(base, "cam_001.jpg", ["0 0.5 0.5 0.2 0.2 0.9", "1 0.25 0.25 0.1 0.1"])
        assert r.status_code == 200
        body = r.json()
        assert body["images_added"] == 1
        assert body["facts_added"] == 2
        assert fact_count(base) == before + 2


@pytest.mark.parametrize("state", ["no-commit", "no-root"])
def test_post_image_initializes_root(tmp_path, state):
    root = tmp_path / "wh"
    if state == "no-commit":
        with open_warehouse(root, "rw"):
            pass
        (root / "COMMIT").unlink()
    with running_server(root) as base:
        r = post_image(base, "cam_001.jpg", ["0 0.5 0.5 0.2 0.2 0.9", "1 0.25 0.25 0.1 0.1"])
        assert r.status_code == 200
        assert (root / "COMMIT").read_text() == "2\n"
        stats = requests.get(f"{base}/v1/stats", timeout=10).json()
    with open_warehouse(root, "ro") as handle:
        assert stats == _rendered(*stats_rows(handle.stats()))


def test_post_image_idempotent(root):
    with running_server(root) as base:
        assert post_image(base, "cam_001.jpg", ["0 0.5 0.5 0.2 0.2 0.9"]).status_code == 200
        r = post_image(base, "cam_001.jpg", ["0 0.5 0.5 0.2 0.2 0.9"])
        assert r.status_code == 200
        assert r.json()["images_skipped"] == 1
        assert r.json()["facts_added"] == 0
        assert fact_count(base) == 1


def test_post_image_bad_detection_rejected_without_writes(root):
    with running_server(root) as base:
        r = post_image(base, "cam_002.jpg", ["0 0.5 0.5 0.2"])
        assert r.status_code == 400
        assert fact_count(base) == 0
        with open_warehouse(root, "ro") as handle:
            assert len(handle.state.images) == 0


def test_post_image_unknown_class_rejected_without_writes(root):
    with running_server(root) as base:
        r = post_image(base, "cam_003.jpg", ["7 0.5 0.5 0.2 0.2"])
        assert r.status_code == 400
        with open_warehouse(root, "ro") as handle:
            assert len(handle.state.images) == 0


def test_post_image_bad_manifest_400(root):
    with running_server(root) as base:
        r = requests.post(
            f"{base}/v1/images",
            json={
                "manifest": manifest_row("x.jpg", width_px="abc"),
                "detections": [],
                "class_map": ["PSME"],
            },
            timeout=10,
        )
        assert r.status_code == 400


def test_post_image_with_overflowing_geotransform_400(root):
    with running_server(root) as base:
        before = requests.get(f"{base}/v1/stats", timeout=10).json()
        r = requests.post(
            f"{base}/v1/images",
            json={
                "manifest": manifest_row("cam_009.jpg", gt_a="1e308", gt_e="-1e308"),
                "detections": ["0 0.5 0.5 0.2 0.2 0.9"],
                "class_map": ["PSME"],
            },
            timeout=10,
        )
        assert r.status_code == 400
        assert "non-finite" in r.json()["error"]
        assert requests.get(f"{base}/v1/stats", timeout=10).json() == before


def test_post_image_shape_validation(root):
    with running_server(root) as base:
        bad_bodies = [
            {"detections": [], "class_map": ["PSME"]},
            {"manifest": "nope", "detections": [], "class_map": ["PSME"]},
            {"manifest": manifest_row("x.jpg"), "detections": "0 0.5", "class_map": ["PSME"]},
            {"manifest": manifest_row("x.jpg"), "detections": [], "class_map": []},
        ]
        for body in bad_bodies:
            r = requests.post(f"{base}/v1/images", json=body, timeout=10)
            assert r.status_code == 400, body


def test_post_survey_then_reconcile(root):
    with running_server(root) as base:
        assert post_image(base, "cam_010.jpg", ["0 0.5 0.5 0.2 0.2 0.9"]).status_code == 200
        r = requests.post(
            f"{base}/v1/surveys",
            json={
                "survey_id": "s1",
                "rows": [
                    {"record_id": "t1", "geo_x": 5.0, "geo_y": -5.0,
                     "species_code": "PSME", "dbh_cm": 40.0, "height_m": 25.0,
                     "surveyed_date": "2024-01-10"},
                ],
            },
            timeout=10,
        )
        assert r.status_code == 200
        assert r.json() == {"survey_id": "s1", "records": 1}

        r = requests.post(f"{base}/v1/reconcile", json={"radius_m": 2.0}, timeout=10)
        assert r.status_code == 200
        body = r.json()
        assert body["matched_pairs"] == 1
        assert body["agreeing_pairs"] == 1
        assert body["accuracy"] == 1.0
        assert body["facts_updated"] == 1
        assert body["per_species"][0]["species_code"] == "PSME"
        assert body["per_species"][0]["tp"] == 1

        with open_warehouse(root, "ro") as handle:
            fact = fact_rows(handle.state.facts)[1]
            assert fact.validation == "confirmed"
            assert fact.dbh_cm == 40.0


def test_post_survey_immutable(root):
    with running_server(root) as base:
        assert post_image(base, "cam_011.jpg", ["0 0.5 0.5 0.2 0.2"]).status_code == 200
        row = {"record_id": "t1", "geo_x": 1.0, "geo_y": 1.0, "species_code": "PSME",
               "dbh_cm": None, "height_m": None, "surveyed_date": "2024-01-10"}
        body = {"survey_id": "s1", "rows": [row]}
        assert requests.post(f"{base}/v1/surveys", json=body, timeout=10).status_code == 200
        # identical re-post is a no-op
        assert requests.post(f"{base}/v1/surveys", json=body, timeout=10).status_code == 200
        changed = dict(row, geo_x=9.0)
        r = requests.post(
            f"{base}/v1/surveys", json={"survey_id": "s1", "rows": [changed]}, timeout=10
        )
        assert r.status_code == 400


def test_post_survey_reusing_another_surveys_record_id_400(root):
    with running_server(root) as base:
        assert post_image(base, "cam_012.jpg", ["0 0.5 0.5 0.2 0.2"]).status_code == 200
        row = {"record_id": "t1", "geo_x": 1.0, "geo_y": 1.0, "species_code": "PSME",
               "dbh_cm": None, "height_m": None, "surveyed_date": "2024-01-10"}
        assert requests.post(f"{base}/v1/surveys", json={"survey_id": "s1", "rows": [row]},
                             timeout=10).status_code == 200
        r = requests.post(f"{base}/v1/surveys", json={"survey_id": "s2", "rows": [row]}, timeout=10)
        assert r.status_code == 400
        assert r.json() == {"error": "record id 't1' appears in surveys 's1' and 's2'"}
        # reconcile still works, since the refused survey was never stored
        assert requests.post(f"{base}/v1/reconcile", json={"radius_m": 2.0}, timeout=10).status_code == 200
    with open_warehouse(root, "ro") as handle:
        assert handle.list_survey_ids() == ["s1"]


def test_post_image_with_a_class_code_past_the_csv_field_limit_400(root):
    with running_server(root) as base:
        r = post_image(base, "cam_013.jpg", ["0 0.5 0.5 0.2 0.2"], class_map=["PSME", "A," * 70_000])
        assert r.status_code == 400
        assert r.json()["error"].endswith(" is longer than 131072 characters")
        r = requests.get(f"{base}/v1/stats", timeout=10)
        assert r.status_code == 200
        assert [row[1] for row in r.json()["rows"]] == ["0"] * 5  # no species, image or fact stored


def test_post_survey_with_a_record_id_past_the_csv_field_limit_400(root):
    with running_server(root) as base:
        assert post_image(base, "cam_014.jpg", ["0 0.5 0.5 0.2 0.2"]).status_code == 200
        row = {"record_id": "t" * 200_000, "geo_x": 1.0, "geo_y": 1.0, "species_code": "PSME",
               "dbh_cm": None, "height_m": None, "surveyed_date": "2024-01-10"}
        r = requests.post(f"{base}/v1/surveys", json={"survey_id": "s1", "rows": [row]}, timeout=10)
        assert (r.status_code, r.json()) == (400, {"error": "<request>:2: field larger than field limit (131072)"})
    with open_warehouse(root, "ro") as handle:
        assert handle.list_survey_ids() == []


def test_post_survey_unknown_field_400(root):
    with running_server(root) as base:
        r = requests.post(
            f"{base}/v1/surveys",
            json={"survey_id": "s1", "rows": [{"record_id": "t1", "elevation": 12}]},
            timeout=10,
        )
        assert r.status_code == 400
        assert "elevation" in r.json()["error"]


@pytest.mark.parametrize(
    "body, error",
    [
        ({"rows": []}, "survey_id is required"),
        ({"survey_id": "s1", "rows": {"record_id": "t1"}}, "rows must be a list of record objects"),
        ({"survey_id": "s1", "rows": [["t1", 1.0, 1.0]]}, "row 0 is not an object"),
        ({"survey_id": "s1\n", "rows": []}, "bad survey id 's1\\n' (use letters, digits, . _ -)"),
    ],
    ids=["no-survey-id", "rows-not-a-list", "row-not-an-object", "survey-id-with-a-newline"],
)
def test_post_survey_shape_400(root, body, error):
    with running_server(root) as base:
        r = requests.post(f"{base}/v1/surveys", json=body, timeout=10)
        assert (r.status_code, r.json()) == (400, {"error": error})
    with open_warehouse(root, "ro") as handle:
        assert handle.list_survey_ids() == []


def test_post_reconcile_bad_radius_400(root):
    with running_server(root) as base:
        r = requests.post(f"{base}/v1/reconcile", json={"radius_m": "wide"}, timeout=10)
        assert r.status_code == 400
        r = requests.post(f"{base}/v1/reconcile", json={"radius_m": True}, timeout=10)
        assert r.status_code == 400


def test_post_reconcile_radius_too_large_for_a_float_400(root, capsys):
    with running_server(root) as base:
        r = requests.post(f"{base}/v1/reconcile", json={"radius_m": 10**400}, timeout=10)
    assert (r.status_code, r.json()) == (400, {"error": "radius_m is too large for a float"})
    assert "Traceback" not in capsys.readouterr().err


def test_write_blocked_by_live_writer_409(root):
    with running_server(root, lock_timeout=0.05) as base:
        with open_warehouse(root, "rw"):
            r = requests.post(f"{base}/v1/reconcile", json={}, timeout=10)
            assert r.status_code == 409
        # once the writer is gone the same call goes through
        assert requests.post(f"{base}/v1/reconcile", json={}, timeout=10).status_code == 200


# -- reads -------------------------------------------------------------------------


def test_query_rows_match_library(reference_root):
    with running_server(reference_root) as base:
        r = requests.get(
            f"{base}/v1/query",
            params={"group_by": "platform", "measures": "tree_count,image_count"},
            timeout=10,
        )
        assert r.status_code == 200
    with open_warehouse(reference_root, "ro") as handle:
        table = run_query(handle, spec_from_strings(
            {"group_by": "platform", "measures": "tree_count,image_count"}
        ))
    payload = r.json()
    assert payload["columns"] == list(table.columns)
    assert [list(row) for row in payload["rows"]] == [list(row) for row in table.rendered_rows()]


def test_query_bad_param_400(root):
    with running_server(root) as base:
        r = requests.get(f"{base}/v1/query", params={"group_by": "planet"}, timeout=10)
        assert r.status_code == 400


@pytest.mark.parametrize("name", list(EMPTY_LIST_REFUSALS))
def test_query_empty_list_param_400(root, name):
    with running_server(root) as base:
        r = requests.get(f"{base}/v1/query", params={name: ","}, timeout=10)
        assert r.status_code == 400
        assert r.json() == {"error": EMPTY_LIST_REFUSALS[name]}


def test_estimate_endpoint(reference_root):
    with running_server(reference_root) as base:
        r = requests.get(f"{base}/v1/estimate", params={"years": 10}, timeout=10)
        assert r.status_code == 200
        payload = r.json()
        assert payload["parameters"]["projected_records"] == 2278
        assert payload["parameters"]["yearly_growth"] == 204
        assert "2072" in payload["note"]

        assert requests.get(f"{base}/v1/estimate", params={"years": -2}, timeout=10).status_code == 400
        assert requests.get(f"{base}/v1/estimate", params={"horizon": 5}, timeout=10).status_code == 400


def test_estimate_endpoint_refuses_non_integer_years(root):
    with running_server(root) as base:
        r = requests.get(f"{base}/v1/estimate", params={"years": "ten"}, timeout=10)
        assert (r.status_code, r.json()) == (400, {"error": "years and events_per_year must be integers"})


def test_estimate_endpoint_refuses_a_horizon_too_large_for_a_float(reference_root, capsys):
    with running_server(reference_root) as base:
        r = requests.get(f"{base}/v1/estimate", params={"years": 10**400}, timeout=10)
    assert (r.status_code, r.json()) == (400, {"error": "years is too large: the projected size does not fit in a float"})
    assert "Traceback" not in capsys.readouterr().err


def test_unhandled_error_is_500_with_the_id_it_logs(root, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise RuntimeError("injected query failure")

    monkeypatch.setattr(service, "run_query", fail)
    with running_server(root) as base:
        r = requests.get(f"{base}/v1/query", timeout=10)
    assert r.status_code == 500
    match = re.fullmatch(r"internal error \(id ([0-9a-f]{12})\)", r.json()["error"])
    assert match
    err = capsys.readouterr().err
    assert f"[canopydw:{match.group(1)}] unhandled error:" in err
    assert "RuntimeError: injected query failure" in err


def test_estimate_endpoint_refuses_zero_events_per_year(reference_root):
    with running_server(reference_root) as base:
        r = requests.get(f"{base}/v1/estimate", params={"events_per_year": 0}, timeout=10)
        assert r.status_code == 400
        assert "events_per_year" in r.json()["error"]


def test_stats_payload_shape(reference_root):
    with running_server(reference_root) as base:
        payload = requests.get(f"{base}/v1/stats", timeout=10).json()
    assert payload["columns"] == ["name", "row_count", "file_bytes", "mib"]
    by_name = {row[0]: row for row in payload["rows"]}
    assert by_name["image_payload"][3] == "920.9"
    assert by_name["dim_image"][1] == "238"


# -- concurrent clients --------------------------------------------------------------


def test_concurrent_posts_all_land(root):
    n_threads, per_thread, per_image = 4, 5, 2
    detections = ["0 0.5 0.5 0.2 0.2 0.9", "1 0.25 0.25 0.1 0.1 0.8"][:per_image]
    failures = []

    def worker(tid: int):
        with requests.Session() as session:
            for i in range(per_thread):
                r = session.post(
                    f"{base}/v1/images",
                    json={
                        "manifest": manifest_row(f"w{tid}_{i:03d}.jpg"),
                        "detections": detections,
                        "class_map": ["PSME", "TSHE"],
                    },
                    timeout=30,
                )
                if r.status_code != 200:
                    failures.append((tid, i, r.status_code, r.text))

    with running_server(root) as base:
        threads = [threading.Thread(target=worker, args=(t,)) for t in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures, failures
        assert fact_count(base) == n_threads * per_thread * per_image

    with open_warehouse(root, "ro") as handle:
        assert len(handle.state.images) == n_threads * per_thread
        # every fact still resolves through its dimensions
        for fact in fact_rows(handle.state.facts).values():
            assert fact.image_key in handle.state.images
            assert fact.species_key in handle.state.species


# -- the cached read snapshot --------------------------------------------------------

SNAPSHOT_SPECS = (
    {"group_by": "date,species", "measures": "tree_count,mean_confidence,mean_height_m,mean_dbh_cm"},
    {"group_by": "platform,resolution_class", "measures": "tree_count,image_count,confirmed_count"},
)


def _rendered(columns, rows) -> dict:
    return {"columns": list(columns), "rows": [[render_cell(c) for c in row] for row in rows]}


def served_reads(base) -> list[dict]:
    """Stats, queries and estimate as the service answers them."""
    out = [requests.get(f"{base}/v1/stats", timeout=10).json()]
    for spec in SNAPSHOT_SPECS:
        out.append(requests.get(f"{base}/v1/query", params=spec, timeout=10).json())
    estimate = requests.get(f"{base}/v1/estimate", timeout=10).json()
    out.append({"columns": estimate["columns"], "rows": estimate["rows"]})
    return out


def fresh_reads(root) -> list[dict]:
    """The same reads from a fresh read-only open."""
    with open_warehouse(root, "ro") as handle:
        out = [_rendered(*stats_rows(handle.stats()))]
        for spec in SNAPSHOT_SPECS:
            table = run_query(handle, spec_from_strings(spec))
            out.append(_rendered(table.columns, table.rows))
        out.append(_rendered(*estimate_from_warehouse(handle, 4, 10).table_rows()))
    return out


def test_cached_reads_match_fresh_open_after_post(root):
    with running_server(root) as base:
        assert post_image(base, "cam_001.jpg", ["0 0.5 0.5 0.2 0.2 0.9"]).status_code == 200
        assert served_reads(base) == fresh_reads(root)
        assert post_image(base, "cam_002.jpg", ["1 0.25 0.25 0.1 0.1 0.8"] * 3).status_code == 200
        assert served_reads(base) == fresh_reads(root)
        assert fact_count(base) == 4


def test_cached_reads_match_fresh_open_after_reconcile(root):
    with running_server(root) as base:
        assert post_image(base, "cam_010.jpg", ["0 0.5 0.5 0.2 0.2 0.9"]).status_code == 200
        assert served_reads(base) == fresh_reads(root)
        row = {"record_id": "t1", "geo_x": 5.0, "geo_y": -5.0, "species_code": "PSME",
               "dbh_cm": 40.0, "height_m": 25.0, "surveyed_date": "2024-01-10"}
        r = requests.post(f"{base}/v1/surveys", json={"survey_id": "s1", "rows": [row]}, timeout=10)
        assert r.status_code == 200
        # reconcile rewrites the whole fact file; the snapshot must reload it
        assert requests.post(f"{base}/v1/reconcile", json={"radius_m": 2.0}, timeout=10).status_code == 200
        reads = served_reads(base)
        assert reads == fresh_reads(root)
        confirmed = reads[2]["rows"][0][reads[2]["columns"].index("confirmed_count")]
        assert confirmed == "1"


def test_repeated_post_reconcile_keeps_the_cached_snapshot(root):
    with serving(root) as server:
        base = f"http://{server.bound_address}"
        assert post_image(base, "cam_010.jpg", ["0 0.5 0.5 0.2 0.2 0.9", "0 0.2 0.2 0.1 0.1 0.8"]).status_code == 200
        row = {"record_id": "t1", "geo_x": 5.0, "geo_y": -5.0, "species_code": "PSME",
               "dbh_cm": 40.0, "height_m": 25.0, "surveyed_date": "2024-01-10"}
        assert requests.post(f"{base}/v1/surveys", json={"survey_id": "s1", "rows": [row]}, timeout=10).status_code == 200
        first = requests.post(f"{base}/v1/reconcile", json={"radius_m": 2.0}, timeout=10).json()
        snapshot = server.cache.current()
        fact_file = os.stat(root / FACT_TABLE)
        second = requests.post(f"{base}/v1/reconcile", json={"radius_m": 2.0}, timeout=10).json()
        assert second == first
        assert second["facts_updated"] == 2
        # nothing was written, so nothing is reloaded
        assert server.cache.current() is snapshot
        assert os.stat(root / FACT_TABLE).st_ino == fact_file.st_ino


def test_cached_reads_ignore_uncommitted_and_torn_facts(root):
    with running_server(root) as base:
        assert post_image(base, "cam_020.jpg", ["0 0.5 0.5 0.2 0.2 0.9"] * 2).status_code == 200
        committed = served_reads(base)
        with open(root / FACT_TABLE, "a") as fh:  # appended but never committed
            fh.write("3,20240115,1,1,0.5,0.5,0.2,0.2,0.9,5.0,-5.0,,,unvalidated,\n")
        reads = served_reads(base)
        assert reads == fresh_reads(root)
        assert reads == committed
        with open(root / FACT_TABLE, "a") as fh:  # torn mid-row
            fh.write("4,20240115,1,1,0.5")
        reads = served_reads(base)
        assert reads == fresh_reads(root)
        assert reads == committed
        # the next write recovers the file; both readers see the new facts
        assert post_image(base, "cam_021.jpg", ["1 0.25 0.25 0.1 0.1 0.8"]).status_code == 200
        assert served_reads(base) == fresh_reads(root)
        assert fact_count(base) == 3


def test_cached_reads_stay_consistent_under_concurrent_posts(root):
    per_image, n_posts, n_readers = 3, 12, 4
    detections = ["0 0.5 0.5 0.2 0.2 0.9", "1 0.25 0.25 0.1 0.1 0.8", "0 0.75 0.75 0.1 0.1 0.7"]
    done = threading.Event()
    problems, reads = [], []

    def reader():
        last = 0
        with requests.Session() as session:
            while not done.is_set():
                r = session.get(f"{base}/v1/query", params={"measures": "tree_count,image_count"}, timeout=30)
                if r.status_code != 200:
                    problems.append((r.status_code, r.text))
                    continue
                rows = r.json()["rows"]
                trees, images = (int(c) for c in rows[0]) if rows else (0, 0)
                # each POST commits one image's facts at once
                if trees != per_image * images or trees < last:
                    problems.append((trees, images, last))
                last = trees
                reads.append(trees)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the handler threads finely
    try:
        with running_server(root) as base:
            threads = [threading.Thread(target=reader) for _ in range(n_readers)]
            for t in threads:
                t.start()
            try:
                for i in range(n_posts):
                    r = post_image(base, f"cc_{i:03d}.jpg", detections[:per_image])
                    assert r.status_code == 200, r.text
            finally:
                done.set()
                for t in threads:
                    t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert not problems, problems[:5]
            assert len(reads) >= n_readers
            assert served_reads(base) == fresh_reads(root)
            assert fact_count(base) == per_image * n_posts
    finally:
        sys.setswitchinterval(switch)
