"""Star-schema domain types and cross-table integrity rules.

Three dimension tables (date, image, species) and one fact table (one row
per detected tree). Every row a table stores (DimDate, DimImage, DimSpecies,
FactRow, SurveyRecord) is a NamedTuple whose fields are its stored cells, in
the table's column order; a DimImage holds its six geotransform cells as one
Geotransform. The fact table's columns are described once, by FACT_COLUMNS,
from which FactRow comes. A loaded fact table is held as FactColumns, typed
columns that only the storage layer changes.
"""

from __future__ import annotations

import datetime
import math
import re
import reprlib
from array import array
from bisect import bisect_left
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, fields
from itertools import chain, compress, count
from operator import attrgetter, ne
from typing import Any, Callable, Container, NamedTuple, Sequence

from .errors import InvalidDateError, InvalidMetadataError

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

CHECKSUM_RE = re.compile(r"[0-9a-f]{64}")
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


class DimDate(NamedTuple):
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


class Geotransform(NamedTuple):
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
        for name, value in zip(self._fields, self):
            if not math.isfinite(value):
                v.append(f"geotransform {name} not finite")
        if not v and self.determinant == 0.0:
            v.append("geotransform singular (determinant zero)")
        return v


class Interval:
    """The finite values from low to high, low left out when open_low. A rule
    checks one value with holds (a plain function, for speed) and a whole
    column with holds_all, and names the interval as str gives it: [0, 1],
    (0, 1]."""

    __slots__ = ("low", "high", "open_low", "holds")

    def __init__(self, low: float, high: float, open_low: bool = False) -> None:
        self.low, self.high, self.open_low = low, high, open_low
        isfinite = math.isfinite
        if open_low:
            self.holds = lambda value: isfinite(value) and low < value <= high
        else:
            self.holds = lambda value: isfinite(value) and low <= value <= high

    def __str__(self) -> str:
        return f"{'(' if self.open_low else '['}{self.low:g}, {self.high:g}]"

    def holds_all(self, column: Sequence[float]) -> bool:
        """Whether holds is true of every value of column: each is finite, and
        the least and the greatest lie in the interval (min and max skip a
        NaN, so finiteness is checked first)."""
        return all(map(math.isfinite, column)) and (not column or self.holds(min(column)) and self.holds(max(column)))


UNIT = Interval(0.0, 1.0)
POSITIVE = Interval(0.0, math.inf, open_low=True)

SIZE = Interval(0.0, 1.0, open_low=True)
# The interval of each cell of a box, in its field order.
BOX_INTERVALS = {"cx": UNIT, "cy": UNIT, "w": SIZE, "h": SIZE}


def in_frame(center: float, size: float) -> bool:
    """Whether a box's extent on one axis, given by its (finite) center and
    size, lies inside the unit frame, give or take BBOX_EDGE_TOLERANCE."""
    return -BBOX_EDGE_TOLERANCE <= center - size / 2 and center + size / 2 <= 1.0 + BBOX_EDGE_TOLERANCE


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
    cx, cy, w, h = box.cx, box.cy, box.w, box.h
    if not (UNIT.holds(cx) and UNIT.holds(cy) and SIZE.holds(w) and SIZE.holds(h)):
        cells = dict(zip(BOX_INTERVALS, (cx, cy, w, h)))
        v = [f"{name} not finite" for name, value in cells.items() if not math.isfinite(value)]
        return v or [f"{name} outside {BOX_INTERVALS[name]}" for name, value in cells.items() if not BOX_INTERVALS[name].holds(value)]
    v = []
    if not in_frame(cx, w):
        v.append("box extends outside frame on x")
    if not in_frame(cy, h):
        v.append("box extends outside frame on y")
    return v


def boxes_hold(cx: Sequence[float], cy: Sequence[float], w: Sequence[float], h: Sequence[float]) -> bool:
    """Whether box_violations finds nothing in any of the boxes these columns
    hold (one entry per box), checked a column at a time."""
    return (
        all(interval.holds_all(column) for interval, column in zip(BOX_INTERVALS.values(), (cx, cy, w, h)))
        and all(map(in_frame, cx, w))
        and all(map(in_frame, cy, h))
    )


class DimSpecies(NamedTuple):
    """Species dimension row: taxonomy plus conservation status."""

    species_key: int
    code: str
    scientific_name: str
    common_name: str
    conservation_status: str


class ImageMeta(NamedTuple):
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


class DimImage(NamedTuple):
    """Image dimension row: image_key, then the fields of its ImageMeta."""

    image_key: int
    file_name: str
    platform: str
    capture_date_key: int
    width_px: int
    height_px: int
    gsd_cm_per_px: float
    geotransform: Geotransform
    size_bytes: int
    checksum: str

    @property
    def meta(self) -> ImageMeta:
        return ImageMeta(*self[1:])


# csv.reader's default field_size_limit: it refuses a longer cell, and a
# stored line that holds a quote is parsed by it.
MAX_TEXT_CHARS = 131_072
# str.encode("utf-8") refuses exactly the lone surrogates
_SURROGATE = re.compile("[\ud800-\udfff]").search
_SHOWN = reprlib.Repr()
_SHOWN.maxstring = 60  # a refusal shows the start and end of a longer text


def text_problem(text: str) -> str | None:
    """Why text cannot be stored in a table cell, or None when it can.

    Table files are split into lines and decoded as UTF-8 before their cells
    are parsed, and a cell is parsed as csv.reader would: so stored text
    holds no line break, encodes as UTF-8 and has at most MAX_TEXT_CHARS
    characters.
    """
    if "\n" in text or "\r" in text:
        return "contains a line break"
    if _SURROGATE(text):
        return "does not encode as UTF-8"
    if len(text) > MAX_TEXT_CHARS:
        return f"is longer than {MAX_TEXT_CHARS} characters"
    return None


def require_storable(what: str, texts: Iterable[str]) -> None:
    """Refuse the first of texts, the what text of a row, that text_problem
    refuses."""
    for text in texts:
        problem = text_problem(text)
        if problem:
            raise InvalidMetadataError(f"{what} text {_SHOWN.repr(text)} {problem}")


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


def image_meta_violations(meta: ImageMeta | DimImage, dates: Container[int] = ()) -> list[str]:
    """Value-level checks on one image's attributes (an ImageMeta's, or a
    stored DimImage's).

    dates holds date keys already checked (the keys of loaded date rows):
    such a capture_date_key is valid without being derived again.
    """
    v = []
    if not meta.file_name:
        v.append("file_name empty")
    elif problem := text_problem(meta.file_name):
        v.append(f"file_name {problem}")
    if meta.platform not in PLATFORMS:
        v.append(f"platform {meta.platform!r} not one of {PLATFORMS}")
    if meta.capture_date_key not in dates and not is_valid_date_key(meta.capture_date_key):
        v.append(f"capture_date_key {meta.capture_date_key} invalid")
    v.extend(_below_minimum(meta, "width_px", "height_px"))
    if not POSITIVE.holds(meta.gsd_cm_per_px):
        v.append("gsd_cm_per_px must be positive")
    v.extend(meta.geotransform.violations())
    v.extend(_below_minimum(meta, "size_bytes"))
    if not CHECKSUM_RE.fullmatch(meta.checksum or ""):
        v.append("checksum must be 64 lowercase hex characters")
    return v


# The least value of each integer cell of an image.
IMAGE_MINIMUMS = {"width_px": 1, "height_px": 1, "size_bytes": 0}


def _below_minimum(meta: ImageMeta | DimImage, *names: str) -> list[str]:
    return [
        f"{name} must be >= {IMAGE_MINIMUMS[name]}"
        for name in names
        if not (isinstance(getattr(meta, name), int) and getattr(meta, name) >= IMAGE_MINIMUMS[name])
    ]


def image_columns_hold(columns: DimImage, state: WarehouseState) -> bool:
    """Whether image rows, given as columns (a DimImage whose fields each
    hold one column, geotransform a list of Geotransforms), pass every check
    a load makes of each row after those state holds, checked a column at a
    time: image_meta_violations with state.dates, a key or (file_name,
    checksum) held or repeated, and a capture date not held. Each cell
    already has its field's type."""
    c, n = columns, len(columns.image_key)
    identities = set(zip(c.file_name, c.checksum))
    return (
        n > 0
        and len(set(c.image_key)) == n
        and state.images.keys().isdisjoint(c.image_key)
        and all(c.file_name)
        and not any(map(text_problem, c.file_name))
        and set(c.platform).issubset(PLATFORMS)
        and state.dates.keys() >= set(c.capture_date_key)
        and all(min(getattr(c, name)) >= least for name, least in IMAGE_MINIMUMS.items())
        and POSITIVE.holds_all(c.gsd_cm_per_px)
        and all(map(math.isfinite, chain.from_iterable(c.geotransform)))
        and all(gt.determinant for gt in c.geotransform)
        and all(map(CHECKSUM_RE.fullmatch, c.checksum))
        and len(identities) == n
        and state.images_by_identity.keys().isdisjoint(identities)
    )


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

    def row(self, fact_id: int) -> FactRow:
        """The stored fact row for this draft, given its fact_id."""
        b = self.bbox
        return FactRow(
            fact_id, self.date_key, self.image_key, self.species_key, b.cx, b.cy, b.w, b.h,
            self.confidence, self.geo_x, self.geo_y, self.height_m, self.dbh_cm,
            self.validation, self.matched_record_id,
        )


# The package builds none; kept for callers that hold facts as objects, which
# match_detections accepts.
@dataclass(frozen=True, slots=True)
class FactTreeMetric(FactDraft):
    fact_id: int = 0


class FactColumn(NamedTuple):
    """One column of the fact table."""

    name: str  # the FactRow field
    type: object  # the field's type
    typecode: str | None  # its FactColumns array's; None: a list
    stored: str | None = None  # its name in the stored header, when not name
    value: Callable[[Any], Any] | None = None  # a held entry's row value, when they differ


def _measure(held: float) -> float | None:
    return None if held != held else held  # NaN: missing


# The fact table's columns, in the order of a stored line. FactRow, the
# FactColumns columns, the stored header (storage.FACTS) and the fact
# checkpoint's layout (storage.CHECKPOINT) come from this list.
FACT_COLUMNS = (
    FactColumn("fact_id", int, "q"),
    FactColumn("date_key", int, "i"),
    FactColumn("image_key", int, "i"),
    FactColumn("species_key", int, "i"),
    FactColumn("cx", float, "d", "bbox_cx"),
    FactColumn("cy", float, "d", "bbox_cy"),
    FactColumn("w", float, "d", "bbox_w"),
    FactColumn("h", float, "d", "bbox_h"),
    FactColumn("confidence", float, "d"),
    FactColumn("geo_x", float, "d"),
    FactColumn("geo_y", float, "d"),
    FactColumn("height_m", float | None, "d", value=_measure),
    FactColumn("dbh_cm", float | None, "d", value=_measure),
    FactColumn("validation", str, "b", value=VALIDATION_STATES.__getitem__),  # held as its index
    FactColumn("matched_record_id", str | None, None),
)

FactRow = NamedTuple("FactRow", [(column.name, column.type) for column in FACT_COLUMNS])
FactRow.__doc__ = "The typed cells of one stored fact line, in the fact table's column order."

DraftColumns = NamedTuple("DraftColumns", [(column.name, Sequence) for column in FACT_COLUMNS[1:]])
DraftColumns.__doc__ = "Facts before their fact_ids are assigned: one column per FactRow field after fact_id."


def draft_columns(drafts: Iterable[FactDraft]) -> DraftColumns:
    """The cells of drafts' rows as columns."""
    columns = list(zip(*(draft.row(0)[1:] for draft in drafts)))
    return DraftColumns._make(columns or [()] * len(DraftColumns._fields))


# The range of a key column (array typecode "i") in FactColumns.
KEY_MIN, KEY_MAX = -(2**31), 2**31 - 1


def fact_field_violations(fact: FactRow, dates: Container[int] = ()) -> list[str]:
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
    v.extend("bbox " + item for item in box_violations(fact))
    if not UNIT.holds(fact.confidence):
        v.append(f"confidence outside {UNIT}")
    if not (math.isfinite(fact.geo_x) and math.isfinite(fact.geo_y)):
        v.append("geo coordinates not finite")
    return v + annotation_violations(fact.validation, fact.matched_record_id, fact.height_m, fact.dbh_cm)


def facts_hold(columns: DraftColumns, state: WarehouseState) -> bool:
    """Whether every fact these columns hold passes fact_field_violations
    with state.dates and validate_fact with state, checked a column at a
    time. Only facts without an annotation (unvalidated, with no match and
    no measure) are checked so: any other fact, and a cell of a type the
    passes do not take, gives False, which leaves the facts to the row
    checks."""
    c = columns
    try:
        capture_dates = {key: state.images[key].capture_date_key for key in set(c.image_key)}
        return (
            set(c.validation) <= {"unvalidated"}
            and set(c.matched_record_id) <= {None}
            and set(c.height_m) <= {None}
            and set(c.dbh_cm) <= {None}
            and all(KEY_MIN <= min(keys) and max(keys) <= KEY_MAX for keys in (c.image_key, c.species_key) if keys)
            and state.dates.keys() >= set(c.date_key)
            and state.species.keys() >= set(c.species_key)
            and list(map(capture_dates.__getitem__, c.image_key)) == list(c.date_key)
            and boxes_hold(c.cx, c.cy, c.w, c.h)
            and UNIT.holds_all(c.confidence)
            and all(map(math.isfinite, c.geo_x))
            and all(map(math.isfinite, c.geo_y))
        )
    except (KeyError, TypeError):
        return False


def annotation_violations(
    validation: str, matched_record_id: str | None, height_m: float | None, dbh_cm: float | None
) -> list[str]:
    """The rules of a fact's annotated cells, which a load (through
    fact_field_violations) and an annotation write (Warehouse.rewrite_validation)
    both check. A measure of None is missing, or is not checked."""
    v = []
    if height_m is not None and not POSITIVE.holds(height_m):
        v.append("height_m must be positive when present")
    if dbh_cm is not None and not POSITIVE.holds(dbh_cm):
        v.append("dbh_cm must be positive when present")
    if validation not in VALIDATION_STATES:
        v.append(f"validation {validation!r} not one of {VALIDATION_STATES}")
    elif bool(matched_record_id) != (validation in ("confirmed", "species_mismatch")):
        v.append("matched_record_id inconsistent with validation state")  # "" is stored empty, and loads as None
    return v


class SurveyRecord(NamedTuple):
    """One digitized ground-truth record: position, species, measurements."""

    record_id: str
    geo_x: float
    geo_y: float
    species_code: str
    dbh_cm: float | None
    height_m: float | None
    surveyed_date_key: int


class SurveyColumns:
    """Survey records held as one list per SurveyRecord field, in record order.

    A survey file is loaded into these columns, and reconciling reads them
    as they are: it builds no SurveyRecord. records gives the SurveyRecords
    they hold; of gives the columns of either form. surveys names where the
    records come from when extend merged them from survey files: each
    survey's id and number of records, in record order.
    """

    __slots__ = (*SurveyRecord._fields, "surveys")

    def __init__(self, *columns: list) -> None:
        for name, column in zip(SurveyRecord._fields, columns or [[] for _ in SurveyRecord._fields], strict=True):
            setattr(self, name, column)
        self.surveys: tuple[tuple[str, int], ...] = ()

    @classmethod
    def of(cls, records: SurveyColumns | Iterable[SurveyRecord]) -> SurveyColumns:
        """records as columns: SurveyColumns as they are, SurveyRecords copied."""
        if isinstance(records, SurveyColumns):
            return records
        return cls(*map(list, zip(*records)))

    def __len__(self) -> int:
        return len(self.record_id)

    def records(self) -> list[SurveyRecord]:
        return list(map(SurveyRecord, *attrgetter(*SurveyRecord._fields)(self)))

    def extend(self, other: SurveyColumns, survey_id: str) -> None:
        """Add the records of other, the columns of survey survey_id."""
        for name in SurveyRecord._fields:
            getattr(self, name).extend(getattr(other, name))
        self.surveys += ((survey_id, len(other)),)


_VALIDATION_CODES = {state: code for code, state in enumerate(VALIDATION_STATES)}
CONFIRMED = _VALIDATION_CODES["confirmed"]
SPECIES_MISMATCH = _VALIDATION_CODES["species_mismatch"]
UNMATCHED = _VALIDATION_CODES["unmatched"]
_NAN = float("nan")


def same_cell(held: float, value: float) -> bool:
    """Whether value, put in a float column that holds held, renders as held
    does: both NaN (an empty cell), or equal with the same sign (0.0 and -0.0
    render apart)."""
    if held != held:
        return value != value
    return held == value and math.copysign(1.0, held) == math.copysign(1.0, value)


def _bits(column: array) -> memoryview:
    """A float column's items as the 64-bit integers of their bits."""
    return memoryview(column).cast("B").cast("q")


class FactColumns:
    """The fact table held as one typed column per field, in fact_id order.

    There is one column per FACT_COLUMNS entry, in its order, each holding
    one entry per fact: an array of the entry's typecode (about 93 bytes
    per fact in all), or the list matched_record_id. validation holds each
    state's index in VALIDATION_STATES, and NaN stands for a missing
    height_m or dbh_cm; the row checks refuse a stored NaN.

    A fact is read from the columns by its position (index bisects
    fact_id), or as the cells of its FactRow through cells. Only append
    changes it. An annotation is given as four whole columns
    (validation codes, record ids, heights, DBHs): annotation_changes
    tells where it would change a stored cell, so that a writer checks
    (annotation_violations), copies and rewrites nothing otherwise.
    """

    __slots__ = FactRow._fields

    def __init__(self) -> None:
        for column in FACT_COLUMNS:
            setattr(self, column.name, [] if column.typecode is None else array(column.typecode))

    def copy(self) -> FactColumns:
        new = FactColumns.__new__(FactColumns)
        for name in self.__slots__:
            setattr(new, name, getattr(self, name)[:])
        return new

    def append(self, row: FactRow) -> None:
        """Add a row after the last one; its fact_id must be the highest and
        its keys within [KEY_MIN, KEY_MAX] (fact_field_violations checks them).
        Unrolled for speed; a test pins it to FACT_COLUMNS."""
        fact_id, date_key, image_key, species_key, cx, cy, w, h, conf, geo_x, geo_y, height, dbh, state, record = row
        self.fact_id.append(fact_id)  # the only append that can fail: nothing is added then
        self.date_key.append(date_key)
        self.image_key.append(image_key)
        self.species_key.append(species_key)
        self.cx.append(cx)
        self.cy.append(cy)
        self.w.append(w)
        self.h.append(h)
        self.confidence.append(conf)
        self.geo_x.append(geo_x)
        self.geo_y.append(geo_y)
        self.height_m.append(_NAN if height is None else height)
        self.dbh_cm.append(_NAN if dbh is None else dbh)
        self.validation.append(_VALIDATION_CODES[state])
        self.matched_record_id.append(record)

    def index(self, fact_id: int) -> int:
        """The position of fact_id in the columns; KeyError if it is not held."""
        i = bisect_left(self.fact_id, fact_id)
        if i == len(self.fact_id) or self.fact_id[i] != fact_id:
            raise KeyError(fact_id)
        return i

    def annotation_changes(
        self, validation: array, matched_record_id: list[str | None], height_m: array, dbh_cm: array
    ) -> list[int]:
        """The positions, in order, at which the annotation these columns hold
        (one entry per fact, typed as the held columns) would change a stored
        cell. A column equal to the held one as a whole is not looked into:
        the codes and record ids compare with ==, the floats by their bytes,
        so -0.0 differs from 0.0 and the NaN of a missing value (always _NAN
        here) equals itself. Where bytes differ, same_cell decides."""
        changed: set[int] = set()
        for new, old in ((validation, self.validation), (matched_record_id, self.matched_record_id)):
            if new != old:
                changed.update(compress(count(), map(ne, new, old)))
        for new, old in ((height_m, self.height_m), (dbh_cm, self.dbh_cm)):
            if new.tobytes() != old.tobytes():
                differ = compress(count(), map(ne, _bits(new), _bits(old)))
                changed.update(i for i in differ if not same_cell(old[i], new[i]))
        return sorted(changed)

    def cells(self) -> Iterator[tuple]:
        """Each fact's stored cells, in fact order: the fields of its FactRow."""
        return zip(*(
            getattr(self, column.name) if column.value is None else map(column.value, getattr(self, column.name))
            for column in FACT_COLUMNS
        ))

    def __len__(self) -> int:
        return len(self.fact_id)


def _larger(held: int | None, key: int) -> int:
    return key if held is None or key > held else held


@dataclass
class WarehouseState:
    """In-memory image of the committed tables plus the dedup indexes."""

    dates: dict[int, DimDate] = field(default_factory=dict)
    images: dict[int, DimImage] = field(default_factory=dict)
    species: dict[int, DimSpecies] = field(default_factory=dict)
    facts: FactColumns = field(default_factory=FactColumns)
    images_by_identity: dict[tuple[str, str], int] = field(default_factory=dict)
    species_by_code: dict[str, int] = field(default_factory=dict)
    # the largest image and species keys held (None: none is held)
    max_image_key: int | None = None
    max_species_key: int | None = None

    def add_date(self, row: DimDate) -> None:
        self.dates[row.date_key] = row

    def add_image(self, row: DimImage) -> None:
        self.images[row.image_key] = row
        self.images_by_identity[(row.file_name, row.checksum)] = row.image_key
        self.max_image_key = _larger(self.max_image_key, row.image_key)

    def add_images(self, rows: list[DimImage]) -> None:
        """add_image of each of rows, a column at a time."""
        keys = list(map(attrgetter("image_key"), rows))
        self.images.update(zip(keys, rows))
        self.images_by_identity.update(zip(map(attrgetter("file_name", "checksum"), rows), keys))
        self.max_image_key = _larger(self.max_image_key, max(keys))

    def add_species(self, row: DimSpecies) -> None:
        self.species[row.species_key] = row
        self.species_by_code[row.code] = row.species_key
        self.max_species_key = _larger(self.max_species_key, row.species_key)

    def add_fact(self, row: FactRow) -> None:
        self.facts.append(row)

    def copy(self) -> WarehouseState:
        """A state with its own dicts and fact columns; the (immutable)
        dimension rows in the dicts are shared."""
        held = (getattr(self, f.name) for f in fields(self))
        return WarehouseState(*(value.copy() if isinstance(value, (dict, FactColumns)) else value for value in held))

    def species_code_of(self, species_key: int) -> str:
        return self.species[species_key].code


def validate_fact(fact: FactRow, state: WarehouseState) -> list[str]:
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
