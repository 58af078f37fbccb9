"""Star-schema domain types and cross-table integrity rules.

Three dimension tables (date, image, species) and one fact table (one row
per detected tree). All types are immutable values; mutation happens only
through the storage layer.
"""

from __future__ import annotations

import datetime
import math
import re
from dataclasses import dataclass, field, fields

from .errors import InvalidDateError

PLATFORMS = ("uav", "satellite", "aerial", "ground")

CONSERVATION_STATUSES = (
    "least_concern",
    "near_threatened",
    "vulnerable",
    "endangered",
    "critically_endangered",
    "unknown",
)

VALIDATION_STATES = ("unvalidated", "confirmed", "species_mismatch", "unmatched")

# Box edges may overshoot the unit square by this much before a row is rejected;
# absorbs float rounding in third-party label files.
BBOX_EDGE_TOLERANCE = 0.005

MIN_YEAR = 1900
MAX_YEAR = 2200

_CHECKSUM_RE = re.compile(r"^[0-9a-f]{64}$")
_ISO_DATE_RE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def encode_date_key(year: int, month: int, day: int) -> int:
    return year * 10000 + month * 100 + day


def date_key_from_iso(text: str) -> int:
    """Convert an ISO 8601 calendar date to a date key.

    The text must be exactly ``YYYY-MM-DD`` in ASCII digits. Other ISO 8601
    forms -- the basic ``YYYYMMDD`` and week dates such as ``2024-W03-1`` --
    are refused on every Python version, although ``date.fromisoformat``
    accepts them from 3.11 on. Raises InvalidDateError for any other text,
    for dates that do not exist and for years outside [1900, 2200].
    """
    if _ISO_DATE_RE.fullmatch(text) is None:
        raise InvalidDateError(f"not an ISO date (YYYY-MM-DD): {text!r}")
    try:
        d = datetime.date.fromisoformat(text)
    except ValueError as exc:
        raise InvalidDateError(f"not an ISO date: {text!r}") from exc
    key = encode_date_key(d.year, d.month, d.day)
    if not MIN_YEAR <= d.year <= MAX_YEAR:
        raise InvalidDateError(f"year {d.year} outside [{MIN_YEAR}, {MAX_YEAR}]")
    return key


@dataclass(frozen=True)
class DimDate:
    """Date dimension row; every derived field is a function of date_key."""

    date_key: int
    year: int
    quarter: int
    month: int
    day: int
    day_of_year: int


def derive_date(date_key: int) -> DimDate:
    """Expand a YYYYMMDD integer key into a full date dimension row.

    Raises InvalidDateError for keys that do not decode to a real Gregorian
    date or whose year falls outside [1900, 2200].
    """
    if not isinstance(date_key, int) or date_key < 0:
        raise InvalidDateError(f"date key must be a non-negative integer, got {date_key!r}")
    year, rest = divmod(date_key, 10000)
    month, day = divmod(rest, 100)
    if not MIN_YEAR <= year <= MAX_YEAR:
        raise InvalidDateError(f"year {year} outside [{MIN_YEAR}, {MAX_YEAR}]")
    try:
        d = datetime.date(year, month, day)
    except ValueError as exc:
        raise InvalidDateError(f"{date_key} does not decode to a valid date") from exc
    return DimDate(
        date_key=date_key,
        year=year,
        quarter=(month + 2) // 3,
        month=month,
        day=day,
        day_of_year=d.timetuple().tm_yday,
    )


def is_valid_date_key(date_key: int) -> bool:
    try:
        derive_date(date_key)
    except InvalidDateError:
        return False
    return True


@dataclass(frozen=True)
class Geotransform:
    """Six-parameter affine map from pixel (col, row) to geographic (x, y).

    x = origin_x + col*a + row*b
    y = origin_y + col*d + row*e
    """

    origin_x: float
    origin_y: float
    a: float
    b: float
    d: float
    e: float

    @property
    def determinant(self) -> float:
        return self.a * self.e - self.b * self.d

    def violations(self) -> list[str]:
        v = []
        for name in ("origin_x", "origin_y", "a", "b", "d", "e"):
            if not math.isfinite(getattr(self, name)):
                v.append(f"geotransform {name} not finite")
        if not v and self.determinant == 0.0:
            v.append("geotransform singular (determinant zero)")
        return v


@dataclass(frozen=True, slots=True)
class BoundingBox:
    """Detection box in center/size form, normalized to image dimensions."""

    cx: float
    cy: float
    w: float
    h: float

    def violations(self) -> list[str]:
        v = []
        for name in ("cx", "cy", "w", "h"):
            if not math.isfinite(getattr(self, name)):
                v.append(f"{name} not finite")
        if v:
            return v
        if not 0.0 <= self.cx <= 1.0:
            v.append("cx outside [0, 1]")
        if not 0.0 <= self.cy <= 1.0:
            v.append("cy outside [0, 1]")
        if not 0.0 < self.w <= 1.0:
            v.append("w outside (0, 1]")
        if not 0.0 < self.h <= 1.0:
            v.append("h outside (0, 1]")
        if v:
            return v
        lo = -BBOX_EDGE_TOLERANCE
        hi = 1.0 + BBOX_EDGE_TOLERANCE
        if not (lo <= self.cx - self.w / 2 and self.cx + self.w / 2 <= hi):
            v.append("box extends outside frame on x")
        if not (lo <= self.cy - self.h / 2 and self.cy + self.h / 2 <= hi):
            v.append("box extends outside frame on y")
        return v


@dataclass(frozen=True)
class DimSpecies:
    """Species dimension row: taxonomy plus conservation status."""

    species_key: int
    code: str
    scientific_name: str
    common_name: str
    conservation_status: str


@dataclass(frozen=True)
class ImageMeta:
    """Image dimension attributes before a surrogate key is assigned."""

    file_name: str
    platform: str
    capture_date_key: int
    width_px: int
    height_px: int
    gsd_cm_per_px: float
    geotransform: Geotransform
    size_bytes: int
    checksum: str


_META_FIELDS = tuple(f.name for f in fields(ImageMeta))


@dataclass(frozen=True)
class DimImage(ImageMeta):
    image_key: int = 0

    @property
    def meta(self) -> ImageMeta:
        return ImageMeta(*(getattr(self, name) for name in _META_FIELDS))


def has_line_break(text: str) -> bool:
    """Table files are split into lines before their cells are parsed, so no
    stored text may hold a line break."""
    return "\n" in text or "\r" in text


def image_meta_violations(meta: ImageMeta) -> list[str]:
    v = []
    if not meta.file_name:
        v.append("file_name empty")
    elif has_line_break(meta.file_name):
        v.append("file_name contains a line break")
    if meta.platform not in PLATFORMS:
        v.append(f"platform {meta.platform!r} not one of {PLATFORMS}")
    if not is_valid_date_key(meta.capture_date_key):
        v.append(f"capture_date_key {meta.capture_date_key} invalid")
    if not (isinstance(meta.width_px, int) and meta.width_px >= 1):
        v.append("width_px must be >= 1")
    if not (isinstance(meta.height_px, int) and meta.height_px >= 1):
        v.append("height_px must be >= 1")
    if not (math.isfinite(meta.gsd_cm_per_px) and meta.gsd_cm_per_px > 0):
        v.append("gsd_cm_per_px must be positive")
    v.extend(meta.geotransform.violations())
    if not (isinstance(meta.size_bytes, int) and meta.size_bytes >= 0):
        v.append("size_bytes must be >= 0")
    if not _CHECKSUM_RE.match(meta.checksum or ""):
        v.append("checksum must be 64 lowercase hex characters")
    return v


# Fact rows and their boxes are the bulk of a loaded warehouse; slots spare
# each of them a per-instance __dict__.
@dataclass(frozen=True, slots=True)
class FactDraft:
    """Fact row attributes before a surrogate fact_id is assigned."""

    date_key: int
    image_key: int
    species_key: int
    bbox: BoundingBox
    confidence: float
    geo_x: float
    geo_y: float
    height_m: float | None = None
    dbh_cm: float | None = None
    validation: str = "unvalidated"
    matched_record_id: str | None = None

    def with_id(self, fact_id: int) -> FactTreeMetric:
        """The stored fact row for this draft."""
        return FactTreeMetric(*(getattr(self, name) for name in _DRAFT_FIELDS), fact_id=fact_id)


_DRAFT_FIELDS = tuple(f.name for f in fields(FactDraft))


@dataclass(frozen=True, slots=True)
class FactTreeMetric(FactDraft):
    fact_id: int = 0


def fact_field_violations(fact: FactDraft) -> list[str]:
    """Value-level checks on one fact row, independent of other tables."""
    v = []
    if not is_valid_date_key(fact.date_key):
        v.append(f"date_key {fact.date_key} invalid")
    v.extend("bbox " + item for item in fact.bbox.violations())
    if not (math.isfinite(fact.confidence) and 0.0 <= fact.confidence <= 1.0):
        v.append("confidence outside [0, 1]")
    if not (math.isfinite(fact.geo_x) and math.isfinite(fact.geo_y)):
        v.append("geo coordinates not finite")
    if fact.height_m is not None and not (math.isfinite(fact.height_m) and fact.height_m > 0):
        v.append("height_m must be positive when present")
    if fact.dbh_cm is not None and not (math.isfinite(fact.dbh_cm) and fact.dbh_cm > 0):
        v.append("dbh_cm must be positive when present")
    if fact.validation not in VALIDATION_STATES:
        v.append(f"validation {fact.validation!r} not one of {VALIDATION_STATES}")
    else:
        has_record = fact.matched_record_id is not None
        needs_record = fact.validation in ("confirmed", "species_mismatch")
        if has_record != needs_record:
            v.append("matched_record_id inconsistent with validation state")
    return v


@dataclass(frozen=True)
class SurveyRecord:
    """One digitized ground-truth record: position, species, measurements."""

    record_id: str
    geo_x: float
    geo_y: float
    species_code: str
    dbh_cm: float | None
    height_m: float | None
    surveyed_date_key: int


@dataclass(frozen=True)
class ValidationUpdate:
    """Sanctioned post-hoc annotation of one fact row.

    height_m/dbh_cm of None means "leave the stored value"; validation and
    matched_record_id are always applied.
    """

    validation: str
    matched_record_id: str | None
    height_m: float | None = None
    dbh_cm: float | None = None


@dataclass
class WarehouseState:
    """In-memory image of the committed tables plus the dedup indexes."""

    dates: dict[int, DimDate] = field(default_factory=dict)
    images: dict[int, DimImage] = field(default_factory=dict)
    species: dict[int, DimSpecies] = field(default_factory=dict)
    facts: dict[int, FactTreeMetric] = field(default_factory=dict)
    images_by_identity: dict[tuple[str, str], int] = field(default_factory=dict)
    species_by_code: dict[str, int] = field(default_factory=dict)

    def add_date(self, row: DimDate) -> None:
        self.dates[row.date_key] = row

    def add_image(self, row: DimImage) -> None:
        self.images[row.image_key] = row
        self.images_by_identity[(row.file_name, row.checksum)] = row.image_key

    def add_species(self, row: DimSpecies) -> None:
        self.species[row.species_key] = row
        self.species_by_code[row.code] = row.species_key

    def add_fact(self, row: FactTreeMetric) -> None:
        self.facts[row.fact_id] = row

    def copy(self) -> WarehouseState:
        """A state with its own dicts; the (immutable) rows in them are shared."""
        return WarehouseState(*(dict(getattr(self, f.name)) for f in fields(self)))

    def species_code_of(self, species_key: int) -> str:
        return self.species[species_key].code


def validate_fact(fact: FactDraft, state: WarehouseState) -> list[str]:
    """Check the three foreign keys and date consistency for one fact.

    Returns a list of violations naming the offending field; empty means ok.
    Violations are data, not exceptions.
    """
    v = []
    if fact.date_key not in state.dates:
        v.append("date_key unresolved")
    image = state.images.get(fact.image_key)
    if image is None:
        v.append("image_key unresolved")
    elif image.capture_date_key != fact.date_key:
        v.append("date mismatch")
    if fact.species_key not in state.species:
        v.append("species_key unresolved")
    return v
