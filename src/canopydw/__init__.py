"""canopydw: file-backed star-schema warehouse for forest inventory data.

Detection outputs, image manifests, species registries, and ground-truth
surveys land in four append-only tables (date, image, and species
dimensions around one fact table of detected trees). On top sit geospatial
reconciliation against surveys, fixed-shape star-join aggregations, linear
capacity estimation, a CLI, and an HTTP JSON service.
"""

__version__ = "0.1.0"

from importlib import import_module as _import_module

# cli.py imports these for every command; importing them here also spares
# each child that a process forks after `import canopydw` from importing
# them again. The HTTP service, with http.server and
# http.client, is imported only when one of its names is first used.
from . import capacity, errors, ingest, model, query, reconcile, report, storage  # noqa: F401

# Each exported name, by the submodule it comes from; a name is looked up
# on first use (PEP 562).
_EXPORTS = {
    "capacity": "EstimateReport GrowthModel Projection average_daily_images estimate_from_warehouse project "
    "total_records yearly_growth",
    "errors": "CorruptTableError DuplicateRecordError EmptyCodeError EmptyWarehouseError IntegrityError "
    "InvalidDateError InvalidMetadataError InvalidSpecError LineError LockHeldError NonFiniteCoordinateError "
    "NotInitializedError ParseError RangeError ReadOnlyError SurveyImmutableError UnknownFactError "
    "UnknownSpeciesError WarehouseError",
    "ingest": "ClassMap Detection IngestReport ingest_image_batch ingest_species_registry ingest_survey "
    "parse_detection_line parse_image_manifest render_detection_line",
    "model": "BoundingBox DimDate DimImage DimSpecies FactDraft FactTreeMetric Geotransform ImageMeta SurveyRecord "
    "date_key_from_iso derive_date encode_date_key",
    "query": "QuerySpec image_usage_report resolution_class run_query spec_from_strings species_trend",
    "reconcile": "MatchPair MatchResult ValidationMetrics compute_metrics geo_to_pixel match_detections pixel_to_geo "
    "reconcile_warehouse",
    "report": "ResultTable",
    "service": "ServiceConfig make_server serve",
    "storage": "Warehouse WarehouseStats open_warehouse",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in [module, *names.split()]}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = _import_module("." + _MODULE_OF[name], __name__)
    if name != _MODULE_OF[name]:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _MODULE_OF.keys())
