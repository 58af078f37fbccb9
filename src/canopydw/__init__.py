"""canopydw: file-backed star-schema warehouse for forest inventory data.

Detection outputs, image manifests, species registries, and ground-truth
surveys land in four append-only tables (date, image, and species
dimensions around one fact table of detected trees). On top sit geospatial
reconciliation against surveys, fixed-shape star-join aggregations, linear
capacity estimation, a CLI, and an HTTP JSON service.
"""

__version__ = "0.1.0"

from .capacity import (
    EstimateReport,
    GrowthModel,
    Projection,
    average_daily_images,
    estimate_from_warehouse,
    project,
    total_records,
    yearly_growth,
)
from .errors import (
    CorruptTableError,
    DuplicateRecordError,
    EmptyCodeError,
    EmptyWarehouseError,
    IntegrityError,
    InvalidDateError,
    InvalidMetadataError,
    InvalidSpecError,
    LineError,
    LockHeldError,
    NonFiniteCoordinateError,
    NotInitializedError,
    ParseError,
    RangeError,
    ReadOnlyError,
    SurveyImmutableError,
    UnknownFactError,
    UnknownSpeciesError,
    WarehouseError,
)
from .ingest import (
    ClassMap,
    Detection,
    IngestReport,
    ingest_image_batch,
    ingest_species_registry,
    ingest_survey,
    parse_detection_line,
    parse_image_manifest,
    render_detection_line,
)
from .model import (
    BoundingBox,
    DimDate,
    DimImage,
    DimSpecies,
    FactDraft,
    FactTreeMetric,
    Geotransform,
    ImageMeta,
    SurveyRecord,
    date_key_from_iso,
    derive_date,
    encode_date_key,
)
from .query import (
    QuerySpec,
    image_usage_report,
    resolution_class,
    run_query,
    spec_from_strings,
    species_trend,
)
from .reconcile import (
    MatchPair,
    MatchResult,
    ValidationMetrics,
    compute_metrics,
    geo_to_pixel,
    match_detections,
    pixel_to_geo,
    reconcile_warehouse,
)
from .report import ResultTable
from .service import ServiceConfig, make_server, serve
from .storage import Warehouse, WarehouseStats, open_warehouse

__all__ = [name for name in dir() if not name.startswith("_")]
