"""Star-schema domain types and cross-table integrity rules.

Three dimension tables (date, image, species) and one fact table (one row
per detected tree). The row types are immutable values. A loaded fact table
is held as FactColumns, typed columns that only the storage layer changes.
"""

from __future__ import annotations

import datetime
import math
import re
from array import array
from bisect import bisect_left
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field, fields
from typing import Container, NamedTuple

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
        return box_violations(self)


def box_violations(box: BoundingBox | FactRow) -> list[str]:
    """Checks on a box's cx, cy, w and h: a BoundingBox, or a FactRow's."""
    v = []
    for name in ("cx", "cy", "w", "h"):
        if not math.isfinite(getattr(box, name)):
            v.append(f"{name} not finite")
    if v:
        return v
    if not 0.0 <= box.cx <= 1.0:
        v.append("cx outside [0, 1]")
    if not 0.0 <= box.cy <= 1.0:
        v.append("cy outside [0, 1]")
    if not 0.0 < box.w <= 1.0:
        v.append("w outside (0, 1]")
    if not 0.0 < box.h <= 1.0:
        v.append("h outside (0, 1]")
    if v:
        return v
    lo = -BBOX_EDGE_TOLERANCE
    hi = 1.0 + BBOX_EDGE_TOLERANCE
    if not (lo <= box.cx - box.w / 2 and box.cx + box.w / 2 <= hi):
        v.append("box extends outside frame on x")
    if not (lo <= box.cy - box.h / 2 and box.cy + box.h / 2 <= hi):
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


def pixel_to_geo(gt: Geotransform, col: float, row: float) -> tuple[float, float]:
    """Map pixel coordinates to ground coordinates via the affine transform."""
    x = gt.origin_x + col * gt.a + row * gt.b
    y = gt.origin_y + col * gt.d + row * gt.e
    return x, y


def frame_corner_violations(meta: ImageMeta) -> list[str]:
    """The refusal of a geotransform that maps a frame corner to non-finite
    coordinates, if it does.

    Facts lie inside the frame and the map is affine, so finite corners keep
    every fact's coordinates finite. Call it on a meta that passes
    image_meta_violations. Loads do not run it: a stored row that fails it
    still opens.
    """
    gt = meta.geotransform
    corners = [pixel_to_geo(gt, col, row) for col in (0, meta.width_px) for row in (0, meta.height_px)]
    if all(math.isfinite(v) for xy in corners for v in xy):
        return []
    return ["geotransform maps a frame corner to non-finite coordinates"]


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


# A loaded warehouse holds its facts as FactColumns, not as these objects;
# slots keep the ones a caller builds small.
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


class FactRow(NamedTuple):
    """The typed cells of one stored fact line, in the fact table's column order."""

    fact_id: int
    date_key: int
    image_key: int
    species_key: int
    cx: float
    cy: float
    w: float
    h: float
    confidence: float
    geo_x: float
    geo_y: float
    height_m: float | None
    dbh_cm: float | None
    validation: str
    matched_record_id: str | None


def fact_row(fact: FactTreeMetric) -> FactRow:
    """The cells of a fact's stored line."""
    b = fact.bbox
    return FactRow(
        fact.fact_id, fact.date_key, fact.image_key, fact.species_key, b.cx, b.cy, b.w, b.h,
        fact.confidence, fact.geo_x, fact.geo_y, fact.height_m, fact.dbh_cm,
        fact.validation, fact.matched_record_id,
    )


# The range of a key column (array typecode "i") in FactColumns.
KEY_MIN, KEY_MAX = -(2**31), 2**31 - 1


def fact_field_violations(fact: FactDraft | FactRow, dates: Container[int] = ()) -> list[str]:
    """Value-level checks on one fact row, independent of other tables.

    dates holds date keys already checked (the keys of loaded date rows):
    such a date_key is valid without being derived again.
    """
    v = []
    if fact.date_key not in dates and not is_valid_date_key(fact.date_key):
        v.append(f"date_key {fact.date_key} invalid")
    for name in ("image_key", "species_key"):
        if not KEY_MIN <= getattr(fact, name) <= KEY_MAX:
            v.append(f"{name} outside [{KEY_MIN}, {KEY_MAX}]")
    box = fact if isinstance(fact, FactRow) else fact.bbox
    v.extend("bbox " + item for item in box_violations(box))
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


_VALIDATION_CODES = {state: code for code, state in enumerate(VALIDATION_STATES)}
CONFIRMED = _VALIDATION_CODES["confirmed"]
_NAN = float("nan")


def _same_cell(held: float, value: float) -> bool:
    """Whether value, put in a float column that holds held, renders as held
    does: both NaN (an empty cell), or equal with the same sign (0.0 and -0.0
    render apart)."""
    if held != held:
        return value != value
    return held == value and math.copysign(1.0, held) == math.copysign(1.0, value)


# FactColumns' arrays: attribute (a FactRow field) and array typecode.
_ARRAY_COLUMNS = (
    ("fact_id", "q"),
    ("date_key", "i"),
    ("image_key", "i"),
    ("species_key", "i"),
    ("validation", "b"),  # index in VALIDATION_STATES
    ("cx", "d"),
    ("cy", "d"),
    ("w", "d"),
    ("h", "d"),
    ("confidence", "d"),
    ("geo_x", "d"),
    ("geo_y", "d"),
    ("height_m", "d"),  # NaN: missing
    ("dbh_cm", "d"),  # NaN: missing
)


class FactColumns(Mapping[int, FactTreeMetric]):
    """The fact table held as one typed column per field, in fact_id order.

    Each column holds one entry per fact: the arrays of _ARRAY_COLUMNS
    (about 93 bytes per fact) and the list matched_record_id. NaN stands
    for a missing height_m or dbh_cm; the row checks refuse a stored NaN.

    As a Mapping it is read-only: fact_id to a FactTreeMetric built on
    access (lookup bisects fact_id). index gives a fact's position, at
    which the columns can be read without building an object. Only append,
    add and annotate (at a position) change it; copy gives columns of
    their own, and changes tells whether an annotation would change a
    stored cell, so that a writer copies and rewrites nothing otherwise.
    """

    __slots__ = tuple(name for name, _ in _ARRAY_COLUMNS) + ("matched_record_id",)

    def __init__(self) -> None:
        for name, typecode in _ARRAY_COLUMNS:
            setattr(self, name, array(typecode))
        self.matched_record_id: list[str | None] = []

    def copy(self) -> FactColumns:
        new = FactColumns.__new__(FactColumns)
        for name in self.__slots__:
            setattr(new, name, getattr(self, name)[:])
        return new

    def append(self, row: FactRow) -> None:
        """Add a row after the last one; its fact_id must be the highest and
        its keys within [KEY_MIN, KEY_MAX] (fact_field_violations checks them)."""
        fact_id, date_key, image_key, species_key, cx, cy, w, h, conf, geo_x, geo_y, height, dbh, state, record = row
        self.fact_id.append(fact_id)  # the only append that can fail: nothing is added then
        self.date_key.append(date_key)
        self.image_key.append(image_key)
        self.species_key.append(species_key)
        self.validation.append(_VALIDATION_CODES[state])
        self.cx.append(cx)
        self.cy.append(cy)
        self.w.append(w)
        self.h.append(h)
        self.confidence.append(conf)
        self.geo_x.append(geo_x)
        self.geo_y.append(geo_y)
        self.height_m.append(_NAN if height is None else height)
        self.dbh_cm.append(_NAN if dbh is None else dbh)
        self.matched_record_id.append(record)

    def add(self, fact: FactTreeMetric) -> None:
        self.append(fact_row(fact))

    def index(self, fact_id: int) -> int:
        """The position of fact_id in the columns; KeyError if it is not held."""
        i = bisect_left(self.fact_id, fact_id)
        if i == len(self.fact_id) or self.fact_id[i] != fact_id:
            raise KeyError(fact_id)
        return i

    def changes(self, i: int, update: ValidationUpdate) -> bool:
        """Whether annotating the fact at position i with update would change
        a stored cell of it."""
        return (
            self.validation[i] != _VALIDATION_CODES[update.validation]
            or self.matched_record_id[i] != update.matched_record_id
            or (update.height_m is not None and not _same_cell(self.height_m[i], update.height_m))
            or (update.dbh_cm is not None and not _same_cell(self.dbh_cm[i], update.dbh_cm))
        )

    def annotate(self, i: int, update: ValidationUpdate) -> None:
        """Apply one validation annotation to the fact at position i."""
        if update.height_m is not None:
            self.height_m[i] = update.height_m
        if update.dbh_cm is not None:
            self.dbh_cm[i] = update.dbh_cm
        self.validation[i] = _VALIDATION_CODES[update.validation]
        self.matched_record_id[i] = update.matched_record_id

    def __getitem__(self, fact_id: int) -> FactTreeMetric:
        i = self.index(fact_id)
        height, dbh = self.height_m[i], self.dbh_cm[i]
        return FactTreeMetric(
            self.date_key[i],
            self.image_key[i],
            self.species_key[i],
            BoundingBox(self.cx[i], self.cy[i], self.w[i], self.h[i]),
            self.confidence[i],
            self.geo_x[i],
            self.geo_y[i],
            None if height != height else height,
            None if dbh != dbh else dbh,
            VALIDATION_STATES[self.validation[i]],
            self.matched_record_id[i],
            fact_id=self.fact_id[i],
        )

    def cells(self) -> Iterator[tuple]:
        """Each fact's stored cells, in fact order: the fields of its FactRow."""
        for values in zip(*(getattr(self, name) for name in self.__slots__)):
            fact_id, date_key, image_key, species_key, code, *floats, height, dbh, record = values
            yield (
                fact_id, date_key, image_key, species_key, *floats,
                None if height != height else height,
                None if dbh != dbh else dbh,
                VALIDATION_STATES[code],
                record,
            )

    def __contains__(self, fact_id: object) -> bool:
        try:
            self.index(fact_id)  # type: ignore[arg-type]
        except (KeyError, TypeError):
            return False
        return True

    def __iter__(self) -> Iterator[int]:
        return iter(self.fact_id)

    def __len__(self) -> int:
        return len(self.fact_id)

    def __repr__(self) -> str:
        return f"FactColumns({dict(self)!r})"


@dataclass
class WarehouseState:
    """In-memory image of the committed tables plus the dedup indexes."""

    dates: dict[int, DimDate] = field(default_factory=dict)
    images: dict[int, DimImage] = field(default_factory=dict)
    species: dict[int, DimSpecies] = field(default_factory=dict)
    facts: FactColumns = field(default_factory=FactColumns)
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
        self.facts.add(row)

    def copy(self) -> WarehouseState:
        """A state with its own dicts and fact columns; the (immutable)
        dimension rows in the dicts are shared."""
        return WarehouseState(*(getattr(self, f.name).copy() for f in fields(self)))

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
