import argparse
import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from pathlib import Path

import pytest

from canopydw import __version__
from canopydw.cli import COMMANDS, ROOT_ENV_VAR, build_parser, run_cli
from canopydw.ingest import MANIFEST_HEADER, REGISTRY_HEADER, SURVEY_HEADER, render_manifest_row
from canopydw.model import Geotransform
from canopydw.query import (
    GROUP_KEYS,
    MEASURES,
    QUERY_OPTIONS,
    QuerySpec,
    image_usage_report,
    run_query,
    spec_from_strings,
    species_trend,
)
from canopydw.reconcile import metrics_csv, reconcile_warehouse
from canopydw.report import text_table
from canopydw.storage import IMAGES, SPECIES, open_warehouse, stats_rows

from helpers import EMPTY_LIST_REFUSALS, fact_rows, make_draft, make_image


@pytest.fixture(autouse=True)
def no_ambient_root(monkeypatch):
    monkeypatch.delenv(ROOT_ENV_VAR, raising=False)


def _write_inputs(tmp_path):
    """Registry, manifest, detections, class map, and survey files on disk."""
    registry = tmp_path / "registry.csv"
    registry.write_text(
        REGISTRY_HEADER + "\n"
        "psme,Pseudotsuga menziesii,Douglas-fir,least_concern\n"
        "TSHE,Tsuga heterophylla,Western hemlock,endangered\n",
        encoding="utf-8",
    )

    metas = [
        make_image(file_name="plot_a.jpg", checksum=None).meta,
        make_image(file_name="plot_b.jpg", checksum=None, platform="satellite",
                   width_px=4000, height_px=4000).meta,
    ]
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(
        "\n".join([MANIFEST_HEADER] + [render_manifest_row(m) for m in metas]) + "\n",
        encoding="utf-8",
    )

    det_dir = tmp_path / "detections"
    det_dir.mkdir()
    (det_dir / "plot_a.txt").write_text(
        "0 0.5 0.5 0.2 0.2 0.9\n1 0.25 0.25 0.1 0.1 0.6\n", encoding="utf-8"
    )
    (det_dir / "plot_b.txt").write_text("0 0.75 0.75 0.2 0.2 0.4\n", encoding="utf-8")

    class_map = tmp_path / "classes.txt"
    class_map.write_text("PSME\nTSHE\n", encoding="utf-8")

    survey = tmp_path / "survey_2024.csv"
    survey.write_text(
        SURVEY_HEADER + "\n"
        "t001,5.0,-5.0,PSME,41.5,28.0,2024-01-10\n"
        "t002,2.5,-2.5,PSME,,,2024-01-10\n",
        encoding="utf-8",
    )
    return registry, manifest, det_dir, class_map, survey


# -- plumbing -------------------------------------------------------------------


def test_version(capsys):
    assert run_cli(["version"]) == 0
    assert capsys.readouterr().out.strip() == __version__


def test_missing_root_is_usage_error(capsys):
    assert run_cli(["stats"]) == 2
    assert ROOT_ENV_VAR in capsys.readouterr().err


def test_unknown_command_is_usage_error(capsys):
    assert run_cli(["frobnicate"]) == 2


def test_unknown_flag_is_usage_error(tmp_path, capsys):
    assert run_cli(["init", "--root", str(tmp_path / "wh"), "--bogus"]) == 2


def test_root_from_environment(tmp_path, monkeypatch, capsys):
    root = tmp_path / "wh"
    monkeypatch.setenv(ROOT_ENV_VAR, str(root))
    assert run_cli(["init"]) == 0
    assert run_cli(["stats"]) == 0


def test_root_flag_beats_environment(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(ROOT_ENV_VAR, str(tmp_path / "nonexistent"))
    root = tmp_path / "wh"
    assert run_cli(["init", "--root", str(root)]) == 0
    assert run_cli(["stats", "--root", str(root)]) == 0
    # the env path alone has no warehouse, so reads fail with a data error
    assert run_cli(["stats"]) == 1


def test_init_reports_root(tmp_path, capsys):
    root = tmp_path / "wh"
    assert run_cli(["init", "--root", str(root)]) == 0
    assert str(root) in capsys.readouterr().out
    assert (root / "fact_tree_metrics.tbl").exists()


def test_read_on_uninitialized_root_fails(tmp_path, capsys):
    assert run_cli(["query", "--root", str(tmp_path / "missing")]) == 1
    assert "error:" in capsys.readouterr().err


# -- end-to-end file flow --------------------------------------------------------


def test_full_flow(tmp_path, capsys):
    registry, manifest, det_dir, class_map, survey = _write_inputs(tmp_path)
    root = tmp_path / "wh"

    assert run_cli(["init", "--root", str(root)]) == 0
    assert run_cli(["ingest-species", "--root", str(root), "--registry", str(registry)]) == 0
    assert "species rows processed: 2" in capsys.readouterr().out

    assert run_cli([
        "ingest-images", "--root", str(root),
        "--manifest", str(manifest),
        "--detections-dir", str(det_dir),
        "--class-map", str(class_map),
    ]) == 0
    captured = capsys.readouterr()
    assert "images_added=2" in captured.out
    assert "facts_added=3" in captured.out
    assert "errors=0" in captured.out

    assert run_cli([
        "ingest-survey", "--root", str(root), "--file", str(survey),
    ]) == 0
    assert "survey_2024: 2 records" in capsys.readouterr().out

    # query csv output is byte-identical to the library serialization
    assert run_cli([
        "query", "--root", str(root),
        "--group-by", "species", "--measures", "tree_count,mean_confidence",
        "--format", "csv",
    ]) == 0
    cli_csv = capsys.readouterr().out
    with open_warehouse(root, "ro") as handle:
        table = run_query(handle, spec_from_strings({
            "group_by": "species", "measures": "tree_count,mean_confidence",
        }))
    assert cli_csv == table.to_csv()
    assert cli_csv.splitlines()[0] == "species,tree_count,mean_confidence"
    assert cli_csv.splitlines()[1] == "PSME,2,0.65"

    assert run_cli(["reconcile", "--root", str(root), "--format", "csv"]) == 0
    captured = capsys.readouterr()
    assert "OVERALL,accuracy=" in captured.out
    assert "pairs=" in captured.err

    assert run_cli(["stats", "--root", str(root), "--format", "csv"]) == 0
    stats_out = capsys.readouterr().out
    assert "fact_tree_metrics,3," in stats_out
    assert "image_payload,2," in stats_out

    assert run_cli(["estimate", "--root", str(root), "--years", "10", "--format", "csv"]) == 0
    est = capsys.readouterr().out
    assert "projected_records," in est
    assert "note" in est

    assert run_cli(["trend", "--root", str(root), "--species-code", "PSME",
                    "--granularity", "month", "--format", "csv"]) == 0
    trend = capsys.readouterr().out
    assert trend.splitlines()[0] == "month,tree_count,mean_confidence,confirmed_count"

    assert run_cli(["image-usage", "--root", str(root), "--format", "csv"]) == 0
    usage = capsys.readouterr().out
    assert usage.splitlines()[0] == "resolution_class,platform,image_count,fact_count"


@pytest.fixture(scope="module")
def query_root(tmp_path_factory):
    """Reconciled facts of two species, three platforms and two dates; one unvalidated."""
    tmp = tmp_path_factory.mktemp("query")
    registry, manifest, det_dir, class_map, survey = _write_inputs(tmp)
    root = tmp / "wh"
    for argv in (
        ["init"],
        ["ingest-species", "--registry", str(registry)],
        ["ingest-images", "--manifest", str(manifest), "--detections-dir", str(det_dir),
         "--class-map", str(class_map)],
        ["ingest-survey", "--file", str(survey)],
        ["reconcile"],
    ):
        assert run_cli(argv + ["--root", str(root)]) == 0
    with open_warehouse(root) as handle:
        handle.ensure_date(20240301)
        key = handle.insert_image(make_image(
            file_name="plot_c.jpg", platform="aerial", capture_date_key=20240301,
            width_px=2000, height_px=500,
        ).meta)
        handle.append_facts([make_draft(handle.state.images[key], species_key=2, height_m=20.0)])
    return root


# one value per query option, each changing the result of the default query
QUERY_FLAG_VALUES = {
    "group_by": "species,platform",
    "measures": "tree_count,mean_confidence,mean_height_m,mean_dbh_cm,image_count,confirmed_count",
    "date_from": "20240201",
    "date_to": "20240201",
    "species_codes": "tshe",
    "platforms": "Satellite,aerial",
    "min_width_px": "1000",
    "min_height_px": "1000",
    "validation_states": "unvalidated",
}


def test_every_query_option_has_a_flag_value():
    assert set(QUERY_FLAG_VALUES) == set(QUERY_OPTIONS) == {f.name for f in fields(QuerySpec)}


@pytest.mark.parametrize("name", list(QUERY_OPTIONS))
def test_query_flag_matches_library(query_root, name, capsys):
    value = QUERY_FLAG_VALUES[name]
    flag = "--" + name.replace("_", "-")
    assert run_cli(["query", "--root", str(query_root), flag, value, "--format", "csv"]) == 0
    with open_warehouse(query_root, "ro") as handle:
        expected = run_query(handle, spec_from_strings({name: value})).to_csv()
        assert expected != run_query(handle, spec_from_strings({})).to_csv()
    assert capsys.readouterr().out == expected


# each table command with the default --format table, and the library call it prints
TABLE_COMMANDS = {
    "query": ([], lambda handle: run_query(handle, spec_from_strings({}))),
    "trend": (["--species-code", "PSME"], lambda handle: species_trend(handle, "PSME", "month")),
    "image-usage": ([], image_usage_report),
    "stats": ([], lambda handle: stats_rows(handle.stats())),
}


@pytest.mark.parametrize("command", list(TABLE_COMMANDS))
def test_table_format_prints_the_aligned_table(query_root, command, capsys):
    args, library = TABLE_COMMANDS[command]
    assert run_cli([command, "--root", str(query_root), *args]) == 0
    with open_warehouse(query_root, "ro") as handle:
        table = library(handle)
    assert table.rows
    assert capsys.readouterr().out == text_table(table.columns, table.rows) + "\n"


def test_query_help_names_every_group_key_and_measure(capsys):
    assert run_cli(["query", "--help"]) == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert f"group keys: {', '.join(GROUP_KEYS)}" in help_text
    assert f"measures: {', '.join(MEASURES)}" in help_text


@pytest.mark.parametrize("name", list(EMPTY_LIST_REFUSALS))
def test_query_empty_list_option_is_data_error(query_root, name, capsys):
    flag = "--" + name.replace("_", "-")
    assert run_cli(["query", "--root", str(query_root), flag, " , "]) == 1
    assert capsys.readouterr().err == f"error: {EMPTY_LIST_REFUSALS[name]}\n"


def test_reconcile_csv_matches_library(tmp_path, capsys):
    registry, manifest, det_dir, class_map, survey = _write_inputs(tmp_path)
    root_a, root_b = tmp_path / "a", tmp_path / "b"
    for root in (root_a, root_b):
        assert run_cli(["init", "--root", str(root)]) == 0
        assert run_cli(["ingest-species", "--root", str(root), "--registry", str(registry)]) == 0
        assert run_cli([
            "ingest-images", "--root", str(root), "--manifest", str(manifest),
            "--detections-dir", str(det_dir), "--class-map", str(class_map),
        ]) == 0
        assert run_cli(["ingest-survey", "--root", str(root), "--file", str(survey)]) == 0
    capsys.readouterr()
    assert run_cli(["reconcile", "--root", str(root_a), "--format", "csv"]) == 0
    cli_out = capsys.readouterr().out
    with open_warehouse(root_b) as handle:
        outcome = reconcile_warehouse(handle, 2.0)
    assert cli_out == metrics_csv(outcome.metrics)


def test_ingest_images_warns_but_succeeds_on_bad_lines(tmp_path, capsys):
    registry, manifest, det_dir, class_map, survey = _write_inputs(tmp_path)
    (det_dir / "plot_a.txt").write_text("0 0.5 0.5 0.2\n", encoding="utf-8")
    root = tmp_path / "wh"
    assert run_cli(["init", "--root", str(root)]) == 0
    assert run_cli([
        "ingest-images", "--root", str(root), "--manifest", str(manifest),
        "--detections-dir", str(det_dir), "--class-map", str(class_map),
    ]) == 0
    captured = capsys.readouterr()
    assert "warning:" in captured.err
    assert "plot_a.txt:1" in captured.err
    assert "images_added=2" in captured.out


def test_ingest_images_refuses_a_geotransform_that_overflows(tmp_path, capsys):
    registry, manifest, det_dir, class_map, survey = _write_inputs(tmp_path)
    gt = Geotransform(0.0, 0.0, 1e308, 0.0, 0.0, -1e308)  # finite, but 100 px wide overflows
    meta = make_image(file_name="plot_a.jpg", checksum=None, geotransform=gt).meta
    manifest.write_text(MANIFEST_HEADER + "\n" + render_manifest_row(meta) + "\n", encoding="utf-8")
    root = tmp_path / "wh"
    assert run_cli(["init", "--root", str(root)]) == 0
    assert run_cli(["ingest-species", "--root", str(root), "--registry", str(registry)]) == 0
    before = (root / IMAGES.file).read_bytes()
    capsys.readouterr()
    assert run_cli([
        "ingest-images", "--root", str(root), "--manifest", str(manifest),
        "--detections-dir", str(det_dir), "--class-map", str(class_map),
    ]) == 1
    assert "manifest.csv:2: geotransform maps a frame corner to non-finite" in capsys.readouterr().err
    assert (root / IMAGES.file).read_bytes() == before


def test_ingest_images_splits_detection_files_at_line_ends_only(tmp_path, capsys):
    registry, manifest, det_dir, class_map, survey = _write_inputs(tmp_path)
    # a form feed is whitespace within the line, not a line break
    (det_dir / "plot_a.txt").write_text("0 0.5 0.5 0.1 0.1\x0c0.9", encoding="utf-8")
    (det_dir / "plot_b.txt").unlink()
    root = tmp_path / "wh"
    assert run_cli(["ingest-species", "--root", str(root), "--registry", str(registry)]) == 0
    capsys.readouterr()
    assert run_cli([
        "ingest-images", "--root", str(root), "--manifest", str(manifest),
        "--detections-dir", str(det_dir), "--class-map", str(class_map),
    ]) == 0
    assert "facts_added=1 errors=0" in capsys.readouterr().out
    with open_warehouse(root, "ro") as handle:
        assert [f.confidence for f in fact_rows(handle.state.facts).values()] == [0.9]


def test_stats_names_the_line_of_a_non_utf8_byte(tmp_path, capsys):
    registry, *_ = _write_inputs(tmp_path)
    root = tmp_path / "wh"
    assert run_cli(["init", "--root", str(root)]) == 0
    assert run_cli(["ingest-species", "--root", str(root), "--registry", str(registry)]) == 0
    path = root / SPECIES.file
    lines = path.read_bytes().split(b"\n")
    lines[2] = lines[2].replace(b"Western", b"W\xffstern")
    path.write_bytes(b"\n".join(lines))
    capsys.readouterr()
    assert run_cli(["stats", "--root", str(root)]) == 1
    assert "dim_species.tbl:3: " in capsys.readouterr().err


def test_estimate_on_empty_warehouse_is_data_error(tmp_path, capsys):
    root = tmp_path / "wh"
    assert run_cli(["init", "--root", str(root)]) == 0
    assert run_cli(["estimate", "--root", str(root)]) == 1
    assert "error:" in capsys.readouterr().err


def test_bad_query_spec_is_data_error(tmp_path, capsys):
    root = tmp_path / "wh"
    assert run_cli(["init", "--root", str(root)]) == 0
    assert run_cli(["query", "--root", str(root), "--group-by", "planet"]) == 1
    assert "error:" in capsys.readouterr().err


def test_serve_port_out_of_range_is_data_error(tmp_path, capsys):
    root = tmp_path / "wh"
    assert run_cli(["init", "--root", str(root)]) == 0
    assert run_cli(["serve", "--root", str(root), "--bind", "127.0.0.1:99999"]) == 1
    assert capsys.readouterr().err == "error: bind_address port must be in 0-65535, got 99999\n"


def test_estimate_flag_validation(tmp_path, capsys):
    root = tmp_path / "wh"
    assert run_cli(["init", "--root", str(root)]) == 0
    assert run_cli(["estimate", "--root", str(root), "--years", "-1"]) == 1
    assert run_cli(["estimate", "--root", str(root), "--events-per-year", "0"]) == 1


@pytest.mark.parametrize("flag,value", [("--years", "-1"), ("--events-per-year", "0")])
def test_estimate_flag_validation_on_reference_root(reference_root, flag, value, capsys):
    assert run_cli(["estimate", "--root", str(reference_root)]) == 0
    capsys.readouterr()
    assert run_cli(["estimate", "--root", str(reference_root), flag, value]) == 1
    assert flag in capsys.readouterr().err


def test_estimate_horizon_too_large_for_a_float_is_data_error(reference_root, capsys):
    assert run_cli(["estimate", "--root", str(reference_root), "--years", str(10**400)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: years is too large: the projected size does not fit in a float\n"


REFERENCE_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "build_reference_warehouse.py"


def _run_reference_script(*args):
    env = dict(os.environ, PYTHONPATH=str(REFERENCE_SCRIPT.parents[1] / "src"))
    return subprocess.run([sys.executable, str(REFERENCE_SCRIPT), *args], capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize(
    "flag, value, message",
    [("--years", "-1", "--years must be non-negative"), ("--events-per-year", "0", "--events-per-year must be positive")],
)
def test_reference_script_refuses_bad_arguments_before_building(tmp_path, flag, value, message):
    root = tmp_path / "ref"
    done = _run_reference_script(str(root), flag, value)
    assert (done.returncode, done.stdout, done.stderr) == (1, "", f"error: {message}\n")
    assert not root.exists()


def test_reference_script_refuses_a_horizon_too_large_for_a_float(tmp_path):
    done = _run_reference_script(str(tmp_path / "ref"), "--years", str(10**400))
    assert done.returncode == 1
    assert done.stderr == "error: years is too large: the projected size does not fit in a float\n"


@pytest.mark.parametrize("script", ["demo_pipeline.py", "build_reference_warehouse.py"])
def test_script_without_a_root_leaves_nothing_in_the_temp_dir(tmp_path, script):
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    env = dict(os.environ, PYTHONPATH=str(REFERENCE_SCRIPT.parents[1] / "src"), TMPDIR=str(tmp))
    done = subprocess.run(
        [sys.executable, str(REFERENCE_SCRIPT.parent / script)], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert list(tmp.iterdir()) == []


def test_survey_with_unknown_species_is_data_error(tmp_path, capsys):
    root = tmp_path / "wh"
    survey = tmp_path / "s.csv"
    survey.write_text(
        SURVEY_HEADER + "\nt001,1.0,1.0,ZZZZ,,,2024-01-10\n", encoding="utf-8"
    )
    assert run_cli(["init", "--root", str(root)]) == 0
    assert run_cli(["ingest-survey", "--root", str(root), "--file", str(survey)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "ZZZZ" in err


def test_refused_registry_writes_nothing(tmp_path, capsys):
    root = tmp_path / "wh"
    registry = tmp_path / "reg.csv"
    registry.write_text(
        REGISTRY_HEADER + "\npsme,Pseudotsuga menziesii,Douglas-fir,least_concern\n ,x,y,unknown\n",
        encoding="utf-8",
    )
    assert run_cli(["init", "--root", str(root)]) == 0
    before = (root / SPECIES.file).read_bytes()
    assert run_cli(["ingest-species", "--root", str(root), "--registry", str(registry)]) == 1
    assert "reg.csv:3: empty species code" in capsys.readouterr().err
    assert (root / SPECIES.file).read_bytes() == before


def test_registry_with_line_break_is_refused(tmp_path, capsys):
    root = tmp_path / "wh"
    registry = tmp_path / "reg.csv"
    registry.write_text(
        REGISTRY_HEADER + '\npsme,Pseudotsuga menziesii,Douglas-fir,least_concern\n"TS\nHE",x,y,unknown\n',
        encoding="utf-8",
    )
    assert run_cli(["init", "--root", str(root)]) == 0
    before = (root / SPECIES.file).read_bytes()
    assert run_cli(["ingest-species", "--root", str(root), "--registry", str(registry)]) == 1
    assert "reg.csv:3: species text 'TS\\nHE' contains a line break" in capsys.readouterr().err
    assert (root / SPECIES.file).read_bytes() == before


def test_survey_with_line_break_is_refused(tmp_path, capsys):
    registry, *_ = _write_inputs(tmp_path)
    survey = tmp_path / "s2.csv"
    survey.write_text(
        SURVEY_HEADER + '\nt001,5.0,-5.0,PSME,,,2024-01-10\n"R1\nX",1.0,2.0,PSME,,,2024-01-10\n',
        encoding="utf-8",
    )
    root = tmp_path / "wh"
    assert run_cli(["init", "--root", str(root)]) == 0
    assert run_cli(["ingest-species", "--root", str(root), "--registry", str(registry)]) == 0
    capsys.readouterr()
    assert run_cli(["ingest-survey", "--root", str(root), "--file", str(survey)]) == 1
    assert "s2.csv:3: survey text 'R1\\nX' contains a line break" in capsys.readouterr().err
    with open_warehouse(root, "ro") as handle:
        assert handle.list_survey_ids() == []


def test_class_map_code_past_the_csv_field_limit_is_refused(tmp_path, capsys):
    # stored, the code's line would be refused by every later open
    _, manifest, det_dir, _, _ = _write_inputs(tmp_path)
    class_map = tmp_path / "classes.txt"
    class_map.write_text("PSME\n" + "A," * 70_000 + "\n", encoding="utf-8")
    root = tmp_path / "wh"
    assert run_cli(["init", "--root", str(root)]) == 0
    before = {path.name: path.read_bytes() for path in root.iterdir()}
    code = run_cli(["ingest-images", "--root", str(root), "--manifest", str(manifest),
                    "--detections-dir", str(det_dir), "--class-map", str(class_map)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: species text ") and err.endswith(" is longer than 131072 characters\n")
    assert {path.name: path.read_bytes() for path in root.iterdir()} == before
    assert run_cli(["stats", "--root", str(root)]) == 0


def test_registry_cell_past_the_csv_field_limit_is_refused_with_its_line(tmp_path, capsys):
    root = tmp_path / "wh"
    registry = tmp_path / "reg.csv"
    registry.write_text(REGISTRY_HEADER + "\npsme," + "x" * 200_000 + ",y,unknown\n", encoding="utf-8")
    assert run_cli(["init", "--root", str(root)]) == 0
    before = (root / SPECIES.file).read_bytes()
    assert run_cli(["ingest-species", "--root", str(root), "--registry", str(registry)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {registry}:2: field larger than field limit (131072)\n"
    assert (root / SPECIES.file).read_bytes() == before


def test_survey_reusing_another_surveys_record_id_is_data_error(tmp_path, capsys):
    registry, manifest, det_dir, class_map, survey = _write_inputs(tmp_path)
    root = tmp_path / "wh"
    assert run_cli(["init", "--root", str(root)]) == 0
    assert run_cli(["ingest-species", "--root", str(root), "--registry", str(registry)]) == 0
    assert run_cli(["ingest-survey", "--root", str(root), "--file", str(survey), "--survey-id", "s1"]) == 0
    capsys.readouterr()
    assert run_cli(["ingest-survey", "--root", str(root), "--file", str(survey), "--survey-id", "s2"]) == 1
    assert "record id 't001' appears in surveys 's1' and 's2'" in capsys.readouterr().err
    with open_warehouse(root, "ro") as handle:
        assert handle.list_survey_ids() == ["s1"]


def test_missing_input_file_is_data_error(tmp_path, capsys):
    root = tmp_path / "wh"
    assert run_cli(["init", "--root", str(root)]) == 0
    assert run_cli(["ingest-species", "--root", str(root),
                    "--registry", str(tmp_path / "nope.csv")]) == 1


def _ingest_images(root, manifest, det_dir, class_map):
    return run_cli([
        "ingest-images", "--root", str(root), "--manifest", str(manifest),
        "--detections-dir", str(det_dir), "--class-map", str(class_map),
    ])


def _stored(root):
    return {path.name: path.read_bytes() for path in sorted(root.iterdir()) if path.is_file()}


@pytest.mark.parametrize("stray", ["non_utf8_file", "directory"])
def test_ingest_images_reads_only_the_detection_files_its_manifest_names(tmp_path, stray, capsys):
    registry, manifest, det_dir, class_map, survey = _write_inputs(tmp_path)
    assert _ingest_images(tmp_path / "clean", manifest, det_dir, class_map) == 0
    clean = capsys.readouterr()
    if stray == "directory":
        (det_dir / "sub.txt").mkdir()
    else:
        (det_dir / "other_image.txt").write_bytes(b"\xff0 0.5 0.5 0.2 0.2 0.9\n")
    assert _ingest_images(tmp_path / "stray", manifest, det_dir, class_map) == 0
    assert capsys.readouterr() == clean
    assert _stored(tmp_path / "stray") == _stored(tmp_path / "clean")


def test_ingest_images_refuses_a_named_detection_file_that_is_not_utf8(tmp_path, capsys):
    registry, manifest, det_dir, class_map, survey = _write_inputs(tmp_path)
    (det_dir / "plot_b.txt").write_bytes(b"0 0.75 0.75 0.2 0.2 0.4\xff\n")
    root = tmp_path / "wh"
    assert run_cli(["init", "--root", str(root)]) == 0
    before = _stored(root)
    capsys.readouterr()
    assert _ingest_images(root, manifest, det_dir, class_map) == 1
    assert capsys.readouterr().err.startswith("error: 'utf-8' codec can't decode byte 0xff")
    assert _stored(root) == before


# -- one parser per command -------------------------------------------------------


def _subparsers(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def _parse(parser, argv):
    """What the parser makes of argv: its namespace, or its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            return vars(parser.parse_args(argv))
    except SystemExit as exc:
        return exc.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", list(COMMANDS))
def test_a_command_alone_parses_as_in_the_full_parser(name):
    alone, full = build_parser(name), build_parser()
    assert list(_subparsers(alone)) == [name]
    mine, theirs = _subparsers(alone)[name], _subparsers(full)[name]
    assert mine.format_help() == theirs.format_help()
    assert mine.format_usage() == theirs.format_usage()
    required = [arg for flag, kwargs in COMMANDS[name][2] if kwargs.get("required") for arg in (flag, "x")]
    defaults = _parse(alone, [name, *required])
    assert isinstance(defaults, dict) and defaults == _parse(full, [name, *required])
    # each flag without its value, and with a value that no typed or choice
    # option takes (--radius, --years, --format, ...), and an unknown flag
    flags = [action.option_strings[0] for action in mine._actions if action.dest != "help"]
    for extra in [*([flag] for flag in flags), *([flag, "not-a-number"] for flag in flags), ["--bogus"]]:
        assert _parse(alone, [name, *required, *extra]) == _parse(full, [name, *required, *extra])


@pytest.mark.parametrize("argv", [[], ["-h"], ["frobnicate"], ["--root", "x", "stats"]])
def test_a_call_not_naming_a_command_first_gets_the_full_parsers_output(argv, capsys):
    code, out, err = _parse(build_parser(), argv)
    assert run_cli(argv) == code
    assert capsys.readouterr() == (out, err)
    if argv in (["-h"], ["frobnicate"]):
        assert all(name in out + err for name in COMMANDS)
