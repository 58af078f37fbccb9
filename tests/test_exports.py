"""The package's lazy re-exports (PEP 562): the same public names as when
every submodule was imported eagerly, and a command that is not `serve`
loads no HTTP module."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import canopydw
from canopydw.cli import run_cli

SRC = Path(__file__).resolve().parents[1] / "src"

# canopydw's public names when __init__ imported every submodule.
PUBLIC_NAMES = [
    "BoundingBox", "ClassMap", "CorruptTableError", "Detection", "DimDate", "DimImage",
    "DimSpecies", "DuplicateRecordError", "EmptyCodeError", "EmptyWarehouseError", "EstimateReport",
    "FactDraft", "FactTreeMetric", "Geotransform", "GrowthModel", "ImageMeta", "IngestReport",
    "IntegrityError", "InvalidDateError", "InvalidMetadataError", "InvalidSpecError", "LineError",
    "LockHeldError", "MatchPair", "MatchResult", "NonFiniteCoordinateError", "NotInitializedError",
    "ParseError", "Projection", "QuerySpec", "RangeError", "ReadOnlyError", "ResultTable",
    "ServiceConfig", "SurveyImmutableError", "SurveyRecord", "UnknownFactError",
    "UnknownSpeciesError", "ValidationMetrics", "Warehouse", "WarehouseError", "WarehouseStats",
    "average_daily_images", "capacity", "compute_metrics", "date_key_from_iso", "derive_date",
    "encode_date_key", "errors", "estimate_from_warehouse", "geo_to_pixel", "image_usage_report",
    "ingest", "ingest_image_batch", "ingest_species_registry", "ingest_survey", "make_server",
    "match_detections", "model", "open_warehouse", "parse_detection_line", "parse_image_manifest",
    "pixel_to_geo", "project", "query", "reconcile", "reconcile_warehouse", "render_detection_line",
    "report", "resolution_class", "run_query", "serve", "service", "spec_from_strings",
    "species_trend", "storage", "total_records", "yearly_growth",
]


def _python(code, *args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_all_lists_the_public_names():
    assert canopydw.__all__ == PUBLIC_NAMES


def test_dir_of_a_fresh_import_lists_the_public_names():
    listed = _python("import canopydw; print(*dir(canopydw))").split()
    assert [name for name in listed if not name.startswith("_")] == PUBLIC_NAMES
    assert "__version__" in listed


def test_every_exported_name_resolves():
    for name in canopydw.__all__:
        module = importlib.import_module("canopydw." + canopydw._MODULE_OF[name])
        assert getattr(canopydw, name) is (module if name == canopydw._MODULE_OF[name] else getattr(module, name))


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        canopydw.no_such_name
    assert not hasattr(canopydw, "no_such_name")
    with pytest.raises(ImportError):
        from canopydw import no_such_name  # noqa: F401


def test_a_command_other_than_serve_loads_no_http_module(tmp_path):
    loaded = _python(
        "import sys\n"
        "from canopydw.cli import run_cli\n"
        "assert run_cli(['init', '--root', sys.argv[1]]) == 0\n"
        "assert run_cli(['stats', '--root', sys.argv[1]]) == 0\n"
        "print('loaded:', *[m for m in ('http.server', 'http.client', 'socketserver', 'email') if m in sys.modules])",
        str(tmp_path / "wh"),
    )
    assert loaded.splitlines()[-1] == "loaded:"


def test_serve_help_exits_zero(capsys):
    assert run_cli(["serve", "--help"]) == 0
    assert "--bind" in capsys.readouterr().out
