"""Parsers and loaders that turn source files into warehouse rows.

Three source families feed the warehouse: per-image detection files
(normalized bounding boxes, one per line), image manifests (one CSV row of
acquisition metadata per image), and field data (species registries and
ground-truth survey CSVs). Each parser attributes failures to the offending
source line and classifies them as ParseError (token does not scan) or
RangeError (token scans but the value is out of bounds); `_attributed` adds
the source and line. The three CSVs share one reader, `_read_csv`, for the
header, blank-row and field-count checks; each then checks only its cells.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import PurePosixPath
from typing import Callable, Iterable, Mapping, Sequence

from . import model
from .errors import DuplicateRecordError, InvalidMetadataError, ParseError, RangeError, UnknownSpeciesError
from .model import (
    BBOX_EDGE_TOLERANCE,
    BoundingBox,
    FactDraft,
    Geotransform,
    ImageMeta,
    SurveyRecord,
    pixel_to_geo,
)
from .report import csv_line
from .storage import Warehouse

MANIFEST_HEADER = (
    "file_name,capture_date,platform,width_px,height_px,gsd_cm_per_px,"
    "gt_origin_x,gt_origin_y,gt_a,gt_b,gt_d,gt_e,size_bytes,checksum"
)
REGISTRY_HEADER = "code,scientific_name,common_name,conservation_status"
SURVEY_HEADER = "record_id,geo_x,geo_y,species_code,dbh_cm,height_m,surveyed_date"

_CLAMP = BBOX_EDGE_TOLERANCE


@dataclass(frozen=True)
class Detection:
    """One detector output line: class index plus a normalized box."""

    class_id: int
    bbox: BoundingBox
    confidence: float = 1.0


class ClassMap:
    """Maps detector class indices to species codes."""

    def __init__(self, codes: Sequence[str]):
        cleaned = []
        for i, code in enumerate(codes):
            code = code.strip().upper()
            if not code:
                raise ParseError(f"class {i}: empty species code")
            model.require_storable("species", [code])  # here: a batch would commit the codes before it
            cleaned.append(code)
        self.codes = tuple(cleaned)

    def code_for(self, class_id: int) -> str:
        if not 0 <= class_id < len(self.codes):
            raise RangeError(f"class_id {class_id} outside class map of size {len(self.codes)}")
        return self.codes[class_id]

    @classmethod
    def from_lines(cls, lines: Iterable[str]) -> "ClassMap":
        codes = [ln.strip() for ln in lines if ln.strip() and not ln.lstrip().startswith("#")]
        return cls(codes)


def _clamp_unit(value: float, what: str) -> float:
    """Snap values a hair outside [0, 1] back onto the boundary.

    Detector exports round-trip through float32 and routinely land epsilon
    outside the closed interval; anything past the tolerance is data damage,
    not rounding.
    """
    if not math.isfinite(value):
        raise RangeError(f"{what} is not finite")
    if value < 0.0:
        if value >= -_CLAMP:
            return 0.0
        raise RangeError(f"{what} {value!r} below 0 beyond tolerance {_CLAMP}")
    if value > 1.0:
        if value <= 1.0 + _CLAMP:
            return 1.0
        raise RangeError(f"{what} {value!r} above 1 beyond tolerance {_CLAMP}")
    return value


def _parse_float_token(token: str, what: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ParseError(f"{what} {token!r} is not a number")


def parse_detection_line(line: str) -> Detection | None:
    """Parse one detection line; blank and comment lines yield None.

    Grammar: ``class_id cx cy w h [confidence]`` with whitespace-separated
    tokens. cx, cy, and confidence live in [0, 1]; w and h in (0, 1]; boxes
    must stay inside the unit frame. Values within 0.005 of a boundary snap
    onto it, anything further out raises RangeError.
    """
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    tokens = stripped.split()
    if len(tokens) not in (5, 6):
        raise ParseError(f"expected 5 or 6 fields, got {len(tokens)}")
    try:
        class_id = int(tokens[0])
    except ValueError:
        raise ParseError(f"class_id {tokens[0]!r} is not an integer")
    if class_id < 0:
        raise RangeError(f"class_id {class_id} is negative")
    cx = _clamp_unit(_parse_float_token(tokens[1], "cx"), "cx")
    cy = _clamp_unit(_parse_float_token(tokens[2], "cy"), "cy")
    w = _parse_size(tokens[3], "w")
    h = _parse_size(tokens[4], "h")
    conf = 1.0
    if len(tokens) == 6:
        conf = _clamp_unit(_parse_float_token(tokens[5], "confidence"), "confidence")
    bbox = BoundingBox(cx=cx, cy=cy, w=w, h=h)
    problems = bbox.violations()
    if problems:
        # values are already clamped into range, so only frame overhang remains
        raise RangeError("; ".join(problems))
    return Detection(class_id=class_id, bbox=bbox, confidence=conf)


def _parse_size(token: str, what: str) -> float:
    value = _parse_float_token(token, what)
    if not math.isfinite(value):
        raise RangeError(f"{what} is not finite")
    if value <= 0.0:
        raise RangeError(f"{what} {value!r} must be positive")
    if value > 1.0:
        if value <= 1.0 + _CLAMP:
            return 1.0
        raise RangeError(f"{what} {value!r} above 1 beyond tolerance {_CLAMP}")
    return value


def render_detection_line(det: Detection) -> str:
    """Serialize a detection in canonical 6-field form.

    Canonical lines parse back to an equal Detection with bit-identical
    floats; shortest round-trip decimals guarantee that.
    """
    b = det.bbox
    return " ".join([str(det.class_id)] + [repr(v) for v in (b.cx, b.cy, b.w, b.h, det.confidence)])


def _attributed(source: str, line_no: int | None, parse: Callable, *args):
    """Return parse(*args), re-raising its row errors against source:line_no."""
    try:
        return parse(*args)
    except (ParseError, RangeError) as exc:
        raise type(exc)(exc.reason, source=source, line_no=line_no)
    except (UnknownSpeciesError, InvalidMetadataError) as exc:
        raise type(exc)(f"{source}:{line_no}: {exc}")


def parse_detection_file(lines: Iterable[str], source: str = "<detections>") -> list[Detection]:
    """Parse a whole detection file, attributing errors to source:line."""
    out = []
    for line_no, line in enumerate(lines, start=1):
        det = _attributed(source, line_no, parse_detection_line, line)
        if det is not None:
            out.append(det)
    return out


# -- CSV sources -------------------------------------------------------------


def _read_csv(lines: Iterable[str], header: str, what: str, source: str, parse_row: Callable) -> list:
    """parse_row(line_no, cells) of each non-blank row after `header` (line 1).

    A row's line_no is the physical line it starts on, also after a quoted
    cell that holds a line break. Refuses an empty input, a wrong header and
    a row of the wrong width.
    """
    reader = csv.reader(lines)
    names = header.split(",")
    out = []
    consumed = 0  # the lines of the rows read
    try:
        first = next(reader, None)
        if first is None:
            raise ParseError(f"empty {what}", source=source)
        if [h.strip() for h in first] != names:
            raise ParseError(f"bad {what} header, expected {header!r}", source=source, line_no=1)
        consumed = reader.line_num
        for cells in reader:
            line_no, consumed = consumed + 1, reader.line_num
            if not cells or (len(cells) == 1 and not cells[0].strip()):
                continue
            if len(cells) != len(names):
                raise ParseError(f"expected {len(names)} fields, got {len(cells)}", source=source, line_no=line_no)
            out.append(_attributed(source, line_no, parse_row, line_no, cells))
    except csv.Error as exc:  # a cell past csv.field_size_limit() among them
        raise ParseError(str(exc), source=source, line_no=consumed + 1) from None
    return out


def _date_key(text: str, what: str) -> int:
    try:
        return model.date_key_from_iso(text)
    except Exception as exc:
        raise ParseError(f"{what}: {exc}")


# -- image manifests ---------------------------------------------------------

_MANIFEST_NAMES = MANIFEST_HEADER.split(",")


def build_image_meta(row: Mapping[str, object], source: str = "<manifest>", line_no: int | None = None) -> ImageMeta:
    """Validate one manifest row (string-valued mapping) into ImageMeta."""
    return _attributed(source, line_no, _image_meta, row)


def _image_meta(row: Mapping[str, object]) -> ImageMeta:
    row = {k: ("" if v is None else str(v)) for k, v in row.items()}
    missing = [n for n in _MANIFEST_NAMES if row.get(n, "").strip() == ""]
    if missing:
        raise ParseError(f"missing field(s) {', '.join(missing)}")
    try:
        width, height, size = (int(row[n]) for n in ("width_px", "height_px", "size_bytes"))
        gsd = float(row["gsd_cm_per_px"])
        gt = Geotransform(*(float(row["gt_" + name]) for name in Geotransform._fields))
    except ValueError as exc:
        raise ParseError(str(exc))
    meta = ImageMeta(
        file_name=row["file_name"],
        platform=row["platform"].strip().lower(),
        capture_date_key=_date_key(row["capture_date"].strip(), "capture_date"),
        width_px=width,
        height_px=height,
        gsd_cm_per_px=gsd,
        geotransform=gt,
        size_bytes=size,
        checksum=row["checksum"].strip().lower(),
    )
    problems = model.image_meta_violations(meta) or model.frame_corner_violations(meta)
    if problems:
        raise RangeError("; ".join(problems))
    return meta


def parse_image_manifest(lines: Iterable[str], source: str = "<manifest>") -> list[ImageMeta]:
    """Parse a manifest CSV (header required) into validated ImageMeta rows."""
    seen: dict[tuple[str, str], int] = {}

    def image(line_no, cells):
        meta = _image_meta(dict(zip(_MANIFEST_NAMES, cells)))
        first = seen.setdefault((meta.file_name, meta.checksum), line_no)
        if first != line_no:
            raise ParseError(f"duplicate image {meta.file_name!r} (also line {first})")
        return meta

    return _read_csv(lines, MANIFEST_HEADER, "manifest", source, image)


def render_manifest_row(meta: ImageMeta) -> str:
    """One manifest CSV row in MANIFEST_HEADER order; it parses back to meta."""
    d = model.derive_date(meta.capture_date_key)
    cells = {
        "capture_date": f"{d.year:04d}-{d.month:02d}-{d.day:02d}",
        **{"gt_" + name: value for name, value in zip(Geotransform._fields, meta.geotransform)},
    }
    return csv_line([cells[n] if n in cells else getattr(meta, n) for n in _MANIFEST_NAMES])


# -- species registry --------------------------------------------------------


def ingest_species_registry(handle: Warehouse, lines: Iterable[str], source: str = "<registry>") -> int:
    """Load a species registry CSV; returns the number of codes processed.

    Existing codes keep their descriptive fields (first writer wins).
    Unrecognized conservation statuses degrade to "unknown". Every row is
    checked before the first is written, so a refused registry writes
    nothing; the rows are then written in one batch.
    """
    rows = _read_csv(lines, REGISTRY_HEADER, "registry", source, _registry_row)
    with handle.batch():
        for row in rows:
            handle.upsert_species(*row)
    return len(rows)


def _registry_row(line_no: int, cells: Sequence[str]) -> tuple[str, str, str, str]:
    code, sci, common, status = (c.strip() for c in cells)
    if not code:
        raise ParseError("empty species code")
    model.require_storable("species", (code, sci, common))
    status = status.lower()
    return code, sci, common, status if status in model.CONSERVATION_STATUSES else "unknown"


# -- ground-truth surveys ----------------------------------------------------


def ingest_survey(handle: Warehouse, survey_id: str, lines: Iterable[str], source: str = "<survey>") -> list[SurveyRecord]:
    """Parse and persist one survey CSV; returns its records.

    Survey species codes must already exist in the species dimension so that
    later reconciliation can compare like with like. Record ids must be
    unique across all surveys, since reconciliation merges them.
    """
    seen: dict[str, int] = {}

    def record(line_no, cells):
        rid, gx, gy, code, dbh, height, dated = (c.strip() for c in cells)
        if not rid:
            raise ParseError("empty record_id")
        code = code.upper()
        model.require_storable("survey", (rid, code))
        first = seen.setdefault(rid, line_no)
        if first != line_no:
            raise ParseError(f"duplicate record_id {rid!r} (also line {first})")
        if code not in handle.state.species_by_code:
            raise UnknownSpeciesError(f"unknown species code {code!r}")
        try:
            geo_x, geo_y = float(gx), float(gy)
        except ValueError:
            raise ParseError("coordinates are not numbers")
        if not (math.isfinite(geo_x) and math.isfinite(geo_y)):
            raise RangeError("coordinates are not finite")
        dbh_v, height_v = _measurement(dbh, "dbh_cm"), _measurement(height, "height_m")
        return SurveyRecord(rid, geo_x, geo_y, code, dbh_v, height_v, _date_key(dated, "surveyed_date"))

    records = _read_csv(lines, SURVEY_HEADER, "survey", source, record)
    for other in handle.list_survey_ids():
        if other == survey_id:
            continue
        taken = seen.keys() & handle.survey_columns(other).record_id
        if taken:
            raise DuplicateRecordError(f"record id {min(taken)!r} appears in surveys {other!r} and {survey_id!r}")
    handle.save_survey(survey_id, records)
    return records


def _measurement(text: str, what: str) -> float | None:
    """An optional positive measurement; an empty cell is None."""
    if not text:
        return None
    try:
        value = float(text)
    except ValueError:
        raise ParseError("measurements are not numbers")
    if not math.isfinite(value) or value <= 0:
        raise RangeError(f"{what} {value!r} must be positive")
    return value


# -- full image batch --------------------------------------------------------


@dataclass
class IngestReport:
    """Outcome of one image-batch ingestion."""

    images_added: int = 0
    images_skipped: int = 0
    facts_added: int = 0
    errors: list[str] = field(default_factory=list)

    def summary(self) -> str:
        return (
            f"images_added={self.images_added} images_skipped={self.images_skipped} "
            f"facts_added={self.facts_added} errors={len(self.errors)}"
        )


def detection_file_name(image_file_name: str) -> str:
    """Detection file paired with an image: same stem, .txt suffix."""
    return PurePosixPath(image_file_name).with_suffix(".txt").name


def ingest_image_batch(
    handle: Warehouse,
    manifest: Sequence[ImageMeta],
    detection_files: Mapping[str, Sequence[str]],
    class_map: ClassMap,
) -> IngestReport:
    """Load manifest images and their detections into the warehouse.

    detection_files maps detection file names (image stem + ".txt") to their
    lines; images without an entry simply contribute no facts. The whole
    batch is one Warehouse.batch: every changed dimension is rewritten once
    and all facts commit together, at the end. A bad detection file voids
    that image's facts (the image row stays) and is recorded in the report.
    Images already present, byte for byte, are skipped. An exception
    partway still commits the images before it; a crash before the commit
    leaves image rows without their facts, which a re-run of the same
    manifest skips.
    """
    report = IngestReport()
    with handle.batch():
        for code in class_map.codes:
            handle.upsert_species(code)
        for meta in manifest:
            handle.ensure_date(meta.capture_date_key)
            known = handle.state.images_by_identity.get((meta.file_name, meta.checksum))
            if known is not None:
                report.images_skipped += 1
                continue
            image_key = handle.insert_image(meta)
            report.images_added += 1
            det_name = detection_file_name(meta.file_name)
            lines = detection_files.get(det_name)
            if lines is None:
                continue
            try:
                detections = parse_detection_file(lines, source=det_name)
                drafts = [
                    _draft_from_detection(meta, image_key, det, class_map, handle)
                    for det in detections
                ]
                ids = handle.append_facts(drafts)
            except (ParseError, RangeError) as exc:
                report.errors.append(str(exc))
                continue
            report.facts_added += len(ids)
    return report


def _draft_from_detection(
    meta: ImageMeta,
    image_key: int,
    det: Detection,
    class_map: ClassMap,
    handle: Warehouse,
) -> FactDraft:
    code = class_map.code_for(det.class_id)
    species_key = handle.state.species_by_code[code]
    col = det.bbox.cx * meta.width_px
    row = det.bbox.cy * meta.height_px
    geo_x, geo_y = pixel_to_geo(meta.geotransform, col, row)
    return FactDraft(
        date_key=meta.capture_date_key,
        image_key=image_key,
        species_key=species_key,
        bbox=det.bbox,
        confidence=det.confidence,
        geo_x=geo_x,
        geo_y=geo_y,
    )
