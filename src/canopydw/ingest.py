"""Parsers and loaders that turn source files into warehouse rows.

Three source families feed the warehouse: per-image detection files
(normalized bounding boxes, one per line), image manifests (one CSV row of
acquisition metadata per image), and field data (species registries and
ground-truth survey CSVs). Each parser attributes failures to the offending
source line and classifies them as ParseError (token does not scan) or
RangeError (token scans but the value is out of bounds).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import PurePosixPath
from typing import Iterable, Mapping, Sequence

from . import model
from .errors import ParseError, RangeError, UnknownSpeciesError
from .model import (
    BBOX_EDGE_TOLERANCE,
    BoundingBox,
    FactDraft,
    Geotransform,
    ImageMeta,
    SurveyRecord,
)
from .reconcile import pixel_to_geo
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
            cleaned.append(code)
        self.codes = tuple(cleaned)

    def __len__(self) -> int:
        return len(self.codes)

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


def parse_detection_file(lines: Iterable[str], source: str = "<detections>") -> list[Detection]:
    """Parse a whole detection file, attributing errors to source:line."""
    out = []
    for line_no, line in enumerate(lines, start=1):
        try:
            det = parse_detection_line(line)
        except (ParseError, RangeError) as exc:
            raise type(exc)(exc.reason, source=source, line_no=line_no)
        if det is not None:
            out.append(det)
    return out


# -- image manifests ---------------------------------------------------------


def build_image_meta(row: Mapping[str, object], source: str = "<manifest>", line_no: int | None = None) -> ImageMeta:
    """Validate one manifest row (string-valued mapping) into ImageMeta."""

    def fail(kind, msg):
        raise kind(msg, source=source, line_no=line_no)

    row = {k: ("" if v is None else str(v)) for k, v in row.items()}
    missing = [n for n in MANIFEST_HEADER.split(",") if row.get(n, "").strip() == ""]
    if missing:
        fail(ParseError, f"missing field(s) {', '.join(missing)}")
    try:
        width = int(row["width_px"])
        height = int(row["height_px"])
        size = int(row["size_bytes"])
    except ValueError as exc:
        fail(ParseError, str(exc))
    try:
        gsd = float(row["gsd_cm_per_px"])
        gt = Geotransform(
            origin_x=float(row["gt_origin_x"]),
            origin_y=float(row["gt_origin_y"]),
            a=float(row["gt_a"]),
            b=float(row["gt_b"]),
            d=float(row["gt_d"]),
            e=float(row["gt_e"]),
        )
    except ValueError as exc:
        fail(ParseError, str(exc))
    try:
        date_key = model.date_key_from_iso(row["capture_date"].strip())
    except Exception as exc:
        fail(ParseError, f"capture_date: {exc}")
    meta = ImageMeta(
        file_name=row["file_name"],
        platform=row["platform"].strip().lower(),
        capture_date_key=date_key,
        width_px=width,
        height_px=height,
        gsd_cm_per_px=gsd,
        geotransform=gt,
        size_bytes=size,
        checksum=row["checksum"].strip().lower(),
    )
    problems = model.image_meta_violations(meta)
    if problems:
        fail(RangeError, "; ".join(problems))
    return meta


def parse_image_manifest(lines: Iterable[str], source: str = "<manifest>") -> list[ImageMeta]:
    """Parse a manifest CSV (header required) into validated ImageMeta rows."""
    reader = csv.reader(lines)
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("empty manifest", source=source)
    expected = MANIFEST_HEADER.split(",")
    if [h.strip() for h in header] != expected:
        raise ParseError(f"bad manifest header, expected {MANIFEST_HEADER!r}", source=source, line_no=1)
    out = []
    seen: dict[tuple[str, str], int] = {}
    for line_no, cells in enumerate(reader, start=2):
        if not cells or (len(cells) == 1 and not cells[0].strip()):
            continue
        if len(cells) != len(expected):
            raise ParseError(f"expected {len(expected)} fields, got {len(cells)}", source=source, line_no=line_no)
        meta = build_image_meta(dict(zip(expected, cells)), source=source, line_no=line_no)
        ident = (meta.file_name, meta.checksum)
        if ident in seen:
            raise ParseError(
                f"duplicate image {meta.file_name!r} (also line {seen[ident]})",
                source=source,
                line_no=line_no,
            )
        seen[ident] = line_no
        out.append(meta)
    return out


def render_manifest_row(meta: ImageMeta) -> str:
    from .report import csv_line
    from .model import derive_date

    d = derive_date(meta.capture_date_key)
    iso = f"{d.year:04d}-{d.month:02d}-{d.day:02d}"
    gt = meta.geotransform
    return csv_line(
        [
            meta.file_name,
            iso,
            meta.platform,
            meta.width_px,
            meta.height_px,
            meta.gsd_cm_per_px,
            gt.origin_x,
            gt.origin_y,
            gt.a,
            gt.b,
            gt.d,
            gt.e,
            meta.size_bytes,
            meta.checksum,
        ]
    )


# -- species registry --------------------------------------------------------


def ingest_species_registry(handle: Warehouse, lines: Iterable[str], source: str = "<registry>") -> int:
    """Load a species registry CSV; returns the number of codes processed.

    Existing codes keep their descriptive fields (first writer wins).
    Unrecognized conservation statuses degrade to "unknown".
    """
    reader = csv.reader(lines)
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("empty registry", source=source)
    expected = REGISTRY_HEADER.split(",")
    if [h.strip() for h in header] != expected:
        raise ParseError(f"bad registry header, expected {REGISTRY_HEADER!r}", source=source, line_no=1)
    count = 0
    for line_no, cells in enumerate(reader, start=2):
        if not cells or (len(cells) == 1 and not cells[0].strip()):
            continue
        if len(cells) != 4:
            raise ParseError(f"expected 4 fields, got {len(cells)}", source=source, line_no=line_no)
        code, sci, common, status = (c.strip() for c in cells)
        if not code:
            raise ParseError("empty species code", source=source, line_no=line_no)
        status = status.lower()
        if status not in model.CONSERVATION_STATUSES:
            status = "unknown"
        handle.upsert_species(code, sci, common, status)
        count += 1
    return count


# -- ground-truth surveys ----------------------------------------------------


def ingest_survey(handle: Warehouse, survey_id: str, lines: Iterable[str], source: str = "<survey>") -> list[SurveyRecord]:
    """Parse and persist one survey CSV; returns its records.

    Survey species codes must already exist in the species dimension so that
    later reconciliation can compare like with like.
    """
    reader = csv.reader(lines)
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("empty survey", source=source)
    expected = SURVEY_HEADER.split(",")
    if [h.strip() for h in header] != expected:
        raise ParseError(f"bad survey header, expected {SURVEY_HEADER!r}", source=source, line_no=1)
    records = []
    seen: dict[str, int] = {}
    for line_no, cells in enumerate(reader, start=2):
        if not cells or (len(cells) == 1 and not cells[0].strip()):
            continue
        if len(cells) != 7:
            raise ParseError(f"expected 7 fields, got {len(cells)}", source=source, line_no=line_no)
        rid, gx, gy, code, dbh, height, dated = (c.strip() for c in cells)
        if not rid:
            raise ParseError("empty record_id", source=source, line_no=line_no)
        if rid in seen:
            raise ParseError(f"duplicate record_id {rid!r} (also line {seen[rid]})", source=source, line_no=line_no)
        seen[rid] = line_no
        code = code.upper()
        if code not in handle.state.species_by_code:
            raise UnknownSpeciesError(f"{source}:{line_no}: unknown species code {code!r}")
        try:
            geo_x = float(gx)
            geo_y = float(gy)
        except ValueError:
            raise ParseError("coordinates are not numbers", source=source, line_no=line_no)
        if not (math.isfinite(geo_x) and math.isfinite(geo_y)):
            raise RangeError("coordinates are not finite", source=source, line_no=line_no)
        try:
            dbh_v = float(dbh) if dbh else None
            height_v = float(height) if height else None
        except ValueError:
            raise ParseError("measurements are not numbers", source=source, line_no=line_no)
        if dbh_v is not None and (not math.isfinite(dbh_v) or dbh_v <= 0):
            raise RangeError(f"dbh_cm {dbh_v!r} must be positive", source=source, line_no=line_no)
        if height_v is not None and (not math.isfinite(height_v) or height_v <= 0):
            raise RangeError(f"height_m {height_v!r} must be positive", source=source, line_no=line_no)
        try:
            date_key = model.date_key_from_iso(dated)
        except Exception as exc:
            raise ParseError(f"surveyed_date: {exc}", source=source, line_no=line_no)
        records.append(
            SurveyRecord(
                record_id=rid,
                geo_x=geo_x,
                geo_y=geo_y,
                species_code=code,
                dbh_cm=dbh_v,
                height_m=height_v,
                surveyed_date_key=date_key,
            )
        )
    handle.save_survey(survey_id, records)
    return records


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
    lines; images without an entry simply contribute no facts. The facts of
    one image commit atomically; a bad detection file voids that image's
    facts (the image row stays) and is recorded in the report. Images
    already present, byte for byte, are skipped.
    """
    report = IngestReport()
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
