"""Ground-truth reconciliation: match detected trees to surveyed trees.

Detections carry ground coordinates derived from their image geotransform;
survey records carry measured coordinates in the same planar CRS. Matching
is one-to-one within a radius, preferring globally small distances, and the
resulting pairs drive both validation annotations on the fact table and
per-species precision/recall.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Collection, Mapping, NamedTuple, Sequence

from .errors import NonFiniteCoordinateError
from .model import FactTreeMetric, Geotransform, SurveyRecord, ValidationUpdate, pixel_to_geo
from .report import ResultTable, render_cell
from .storage import Warehouse


def geo_to_pixel(gt: Geotransform, x: float, y: float) -> tuple[float, float]:
    """Invert pixel_to_geo; requires a non-singular transform."""
    det = gt.determinant
    if det == 0.0 or not math.isfinite(det):
        raise ValueError(f"geotransform is singular (determinant {det!r})")
    dx = x - gt.origin_x
    dy = y - gt.origin_y
    col = (gt.e * dx - gt.b * dy) / det
    row = (gt.a * dy - gt.d * dx) / det
    return col, row


class FactPoint(NamedTuple):
    """What matching reads of a fact (a FactTreeMetric has the same fields)."""

    fact_id: int
    geo_x: float
    geo_y: float


@dataclass(frozen=True)
class MatchPair:
    """One detection/ground-truth correspondence."""

    fact_id: int
    record_id: str
    distance_m: float


@dataclass(frozen=True)
class MatchResult:
    pairs: tuple[MatchPair, ...]
    unmatched_fact_ids: tuple[int, ...]
    unmatched_record_ids: tuple[str, ...]


def match_detections(
    facts: Collection[FactPoint | FactTreeMetric],
    records: Sequence[SurveyRecord],
    radius_m: float = 2.0,
) -> MatchResult:
    """One-to-one matching by ascending ground distance within radius_m.

    Candidate pairs within the radius are taken smallest distance first;
    each fact and each record participates in at most one pair. Distance
    ties break on (fact_id, record_id) so results do not depend on input
    order.

    Candidates come from a uniform grid (Bentley, Stanat & Williams, "The
    complexity of finding fixed-radius near neighbors", 1977): records are
    bucketed by cell, and a fact tests only the records in its own cell and
    the 8 around it. The cell side is radius_m widened by 2**-50 of
    (radius_m + the largest coordinate magnitude). At exactly radius_m,
    rounding can put a pair that passes the distance test two cells apart
    (1.9999999999999998 and 4.0 at radius 2.0), and x / side can overflow
    for a tiny radius; widened, the grid finds every pair that testing all
    pairs would.
    """
    if not (math.isfinite(radius_m) and radius_m >= 0.0):
        raise ValueError(f"radius_m must be finite and non-negative, got {radius_m!r}")
    extent = 0.0
    for fact in facts:
        if not (math.isfinite(fact.geo_x) and math.isfinite(fact.geo_y)):
            raise NonFiniteCoordinateError(f"fact {fact.fact_id} has non-finite coordinates")
        extent = max(extent, abs(fact.geo_x), abs(fact.geo_y))
    for rec in records:
        if not (math.isfinite(rec.geo_x) and math.isfinite(rec.geo_y)):
            raise NonFiniteCoordinateError(f"record {rec.record_id!r} has non-finite coordinates")
        extent = max(extent, abs(rec.geo_x), abs(rec.geo_y))
    # with radius_m == 0 only coincident points match, and they share a cell
    side = radius_m + (radius_m + extent) * 2.0**-50 or 1.0
    grid: dict[tuple[int, int], list[SurveyRecord]] = {}
    for rec in records:
        grid.setdefault((math.floor(rec.geo_x / side), math.floor(rec.geo_y / side)), []).append(rec)
    candidates = []
    for fact in facts:
        x, y = fact.geo_x, fact.geo_y
        cx, cy = math.floor(x / side), math.floor(y / side)
        for gx in (cx - 1, cx, cx + 1):
            for gy in (cy - 1, cy, cy + 1):
                for rec in grid.get((gx, gy), ()):
                    dist = math.hypot(x - rec.geo_x, y - rec.geo_y)
                    if dist <= radius_m:
                        candidates.append((dist, fact.fact_id, rec.record_id))
    candidates.sort()
    used_facts: set[int] = set()
    used_records: set[str] = set()
    pairs = []
    for dist, fid, rid in candidates:
        if fid in used_facts or rid in used_records:
            continue
        used_facts.add(fid)
        used_records.add(rid)
        pairs.append(MatchPair(fact_id=fid, record_id=rid, distance_m=dist))
    unmatched_f = tuple(f.fact_id for f in facts if f.fact_id not in used_facts)
    unmatched_r = tuple(r.record_id for r in records if r.record_id not in used_records)
    return MatchResult(pairs=tuple(pairs), unmatched_fact_ids=unmatched_f, unmatched_record_ids=unmatched_r)


# -- metrics -------------------------------------------------------------------


@dataclass(frozen=True)
class SpeciesCounts:
    species_code: str
    tp: int
    fp: int
    fn: int

    @property
    def precision(self) -> float | None:
        denom = self.tp + self.fp
        return None if denom == 0 else self.tp / denom

    @property
    def recall(self) -> float | None:
        denom = self.tp + self.fn
        return None if denom == 0 else self.tp / denom


@dataclass(frozen=True)
class ValidationMetrics:
    """Agreement metrics between detections and ground truth.

    accuracy is the fraction of matched pairs whose species agree; the
    per-species counts treat an unmatched detection as a false positive of
    its detected species and an unmatched record as a false negative of its
    surveyed species.
    """

    matched_pairs: int
    agreeing_pairs: int
    per_species: tuple[SpeciesCounts, ...]

    @property
    def accuracy(self) -> float | None:
        return None if self.matched_pairs == 0 else self.agreeing_pairs / self.matched_pairs

    def species(self, code: str) -> SpeciesCounts:
        for row in self.per_species:
            if row.species_code == code:
                return row
        raise KeyError(code)


def compute_metrics(
    fact_species: Mapping[int, str],
    records: Sequence[SurveyRecord],
    match: MatchResult,
) -> ValidationMetrics:
    """Derive accuracy and per-species counts from a match result.

    fact_species maps fact_id to its detected species code for every fact
    that participated in the matching.
    """
    record_species = {r.record_id: r.species_code for r in records}
    tp: dict[str, int] = {}
    agreeing = 0
    for pair in match.pairs:
        detected = fact_species[pair.fact_id]
        surveyed = record_species[pair.record_id]
        if detected == surveyed:
            agreeing += 1
            tp[detected] = tp.get(detected, 0) + 1
    detected_totals: dict[str, int] = {}
    for code in fact_species.values():
        detected_totals[code] = detected_totals.get(code, 0) + 1
    surveyed_totals: dict[str, int] = {}
    for rec in records:
        surveyed_totals[rec.species_code] = surveyed_totals.get(rec.species_code, 0) + 1
    codes = sorted(set(detected_totals) | set(surveyed_totals))
    per_species = tuple(
        SpeciesCounts(
            species_code=code,
            tp=tp.get(code, 0),
            fp=detected_totals.get(code, 0) - tp.get(code, 0),
            fn=surveyed_totals.get(code, 0) - tp.get(code, 0),
        )
        for code in codes
    )
    return ValidationMetrics(
        matched_pairs=len(match.pairs),
        agreeing_pairs=agreeing,
        per_species=per_species,
    )


def metrics_rows(metrics: ValidationMetrics) -> ResultTable:
    columns = ("species_code", "tp", "fp", "fn", "precision", "recall")
    rows = [
        (r.species_code, r.tp, r.fp, r.fn, r.precision, r.recall)
        for r in metrics.per_species
    ]
    return ResultTable(columns, rows)


def metrics_csv(metrics: ValidationMetrics) -> str:
    """Metrics as CSV: per-species rows then a trailing overall-accuracy line."""
    return metrics_rows(metrics).to_csv() + f"OVERALL,accuracy={render_cell(metrics.accuracy)}\n"


# -- applying results to the warehouse ----------------------------------------


@dataclass(frozen=True)
class ReconcileOutcome:
    match: MatchResult
    metrics: ValidationMetrics
    facts_updated: int


def validate_facts(handle: Warehouse, match: MatchResult, records: Sequence[SurveyRecord]) -> int:
    """Annotate facts with their match outcome.

    Matched facts become "confirmed" when species agree (inheriting the
    record's DBH and height where the fact lacks them) or
    "species_mismatch" otherwise; unmatched facts become "unmatched".
    It reads each matched fact's species, height and DBH from the fact
    columns at the fact's position.
    """
    record_by_id = {r.record_id: r for r in records}
    facts = handle.state.facts
    updates: dict[int, ValidationUpdate] = {}
    for pair in match.pairs:
        i = facts.index(pair.fact_id)
        rec = record_by_id[pair.record_id]
        detected = handle.state.species_code_of(facts.species_key[i])
        if detected == rec.species_code:
            height, dbh = facts.height_m[i], facts.dbh_cm[i]  # NaN: missing
            updates[pair.fact_id] = ValidationUpdate(
                validation="confirmed",
                matched_record_id=pair.record_id,
                height_m=rec.height_m if height != height else None,
                dbh_cm=rec.dbh_cm if dbh != dbh else None,
            )
        else:
            updates[pair.fact_id] = ValidationUpdate(
                validation="species_mismatch",
                matched_record_id=pair.record_id,
            )
    for fid in match.unmatched_fact_ids:
        updates[fid] = ValidationUpdate(validation="unmatched", matched_record_id=None)
    return handle.rewrite_validation(updates)


def reconcile_warehouse(handle: Warehouse, radius_m: float = 2.0) -> ReconcileOutcome:
    """Match all facts against all survey records and annotate the fact table.

    It reads the fact columns and builds no fact object. facts_updated
    counts the facts annotated (every fact, matched or not), whether or not
    their annotation changed; a reconcile that changes none writes nothing.
    """
    records = handle.load_all_survey_records()
    facts = handle.state.facts  # held in fact_id order
    points = list(map(FactPoint, facts.fact_id, facts.geo_x, facts.geo_y))
    match = match_detections(points, records, radius_m)
    codes = {key: species.code for key, species in handle.state.species.items()}
    fact_species = dict(zip(facts.fact_id, map(codes.__getitem__, facts.species_key)))
    metrics = compute_metrics(fact_species, records, match)
    updated = validate_facts(handle, match, records)
    return ReconcileOutcome(match=match, metrics=metrics, facts_updated=updated)
