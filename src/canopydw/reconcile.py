"""Ground-truth reconciliation: match detected trees to surveyed trees.

Detections carry ground coordinates derived from their image geotransform;
survey records carry measured coordinates in the same planar CRS. Matching
is one-to-one within a radius, preferring globally small distances, and the
resulting pairs drive both validation annotations on the fact table and
per-species precision/recall.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Collection, Mapping, Sequence

from .errors import NonFiniteCoordinateError
from .model import (
    CONFIRMED,
    SPECIES_MISMATCH,
    UNMATCHED,
    FactColumns,
    FactRow,
    Geotransform,
    SurveyRecord,
    pixel_to_geo,
)
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


def _check_finite(ids: Sequence, xs: Sequence[float], ys: Sequence[float], what: str) -> None:
    """Refuse the first point, what formatted with its id, whose x or y is not finite."""
    if not (all(map(math.isfinite, xs)) and all(map(math.isfinite, ys))):
        bad = next(key for key, x, y in zip(ids, xs, ys) if not (math.isfinite(x) and math.isfinite(y)))
        raise NonFiniteCoordinateError(f"{what.format(bad)} has non-finite coordinates")


def _near(bucketed: tuple, probes: tuple, side: float, radius_m: float) -> list[tuple[float, object, object]]:
    """(distance, bucketed id, probe id) for every pair within radius_m of
    two sets of points, each given as (ids, xs, ys): the bucketed points go
    in a grid of cells of the given side, and each probe tests the points of
    its own cell and the 8 around it."""
    floor, hypot = math.floor, math.hypot
    grid: dict[tuple[int, int], list] = {}
    for point in zip(*bucketed):
        grid.setdefault((floor(point[1] / side), floor(point[2] / side)), []).append(point)
    near = []
    for pid, x, y in zip(*probes):
        cx, cy = floor(x / side), floor(y / side)
        for gx in (cx - 1, cx, cx + 1):
            for gy in (cy - 1, cy, cy + 1):
                for bid, bx, by in grid.get((gx, gy), ()):
                    dist = hypot(bx - x, by - y)
                    if dist <= radius_m:
                        near.append((dist, bid, pid))
    return near


def match_detections(
    facts: FactColumns | Collection[FactRow],
    records: Sequence[SurveyRecord],
    radius_m: float = 2.0,
) -> MatchResult:
    """One-to-one matching by ascending ground distance within radius_m.

    Candidate pairs within the radius are taken smallest distance first;
    each fact and each record participates in at most one pair. Distance
    ties break on (fact_id, record_id) so results do not depend on input
    order. facts is either FactColumns, whose fact_id, geo_x and geo_y
    columns are read as they are, or a collection of objects with fact_id,
    geo_x and geo_y attributes, such as FactRow (or FactTreeMetric).

    Candidates come from a uniform grid (Bentley, Stanat & Williams, "The
    complexity of finding fixed-radius near neighbors", 1977): the larger
    side (facts or records) is bucketed by cell, and each point of the
    smaller side tests only the points in its own cell and the 8 around
    it, since a bucketed point costs one cell lookup and a probe nine. Which
    side is bucketed changes nothing in the result: the candidates are the
    same pairs with the same distances (x - x' is exactly -(x' - x), and
    hypot ignores signs), sorted the same way. The cell side is radius_m
    widened by 2**-50 of (radius_m + the largest coordinate magnitude). At
    exactly radius_m, rounding can put a pair that passes the distance test
    two cells apart (1.9999999999999998 and 4.0 at radius 2.0), and
    x / side can overflow for a tiny radius; widened, the grid finds every
    pair that testing all pairs would.
    """
    if not (math.isfinite(radius_m) and radius_m >= 0.0):
        raise ValueError(f"radius_m must be finite and non-negative, got {radius_m!r}")
    if isinstance(facts, FactColumns):
        fact_side = facts.fact_id, facts.geo_x, facts.geo_y
    else:
        fact_side = [f.fact_id for f in facts], [f.geo_x for f in facts], [f.geo_y for f in facts]
    record_side = [r.record_id for r in records], [r.geo_x for r in records], [r.geo_y for r in records]
    _check_finite(*fact_side, "fact {}")
    _check_finite(*record_side, "record {!r}")
    extent = max(0.0, *(max(map(abs, xs), default=0.0) for points in (fact_side, record_side) for xs in points[1:]))
    # with radius_m == 0 only coincident points match, and they share a cell
    side = radius_m + (radius_m + extent) * 2.0**-50 or 1.0
    if len(fact_side[0]) >= len(record_side[0]):
        candidates = _near(fact_side, record_side, side, radius_m)
    else:
        candidates = [(dist, fid, rid) for dist, rid, fid in _near(record_side, fact_side, side, radius_m)]
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
    unmatched_f = tuple(fid for fid in fact_side[0] if fid not in used_facts)
    unmatched_r = tuple(rid for rid in record_side[0] if rid not in used_records)
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
    """Annotate every held fact with its match outcome; returns their number.

    Matched facts become "confirmed" when species agree (inheriting the
    record's DBH and height where the fact lacks them) or
    "species_mismatch" otherwise; every other fact becomes "unmatched", so
    match is to be made over all of them. The annotation is built as
    columns (codes starting all "unmatched", record ids all None, copies of
    the heights and DBHs), filled in at the matched facts' positions only,
    and given whole to Warehouse.annotate_facts.
    """
    record_by_id = {r.record_id: r for r in records}
    facts = handle.state.facts
    n = len(facts)
    validation = array("b", [UNMATCHED]) * n
    record_ids: list[str | None] = [None] * n
    height_m, dbh_cm = facts.height_m[:], facts.dbh_cm[:]
    for pair in match.pairs:
        i = facts.index(pair.fact_id)
        rec = record_by_id[pair.record_id]
        record_ids[i] = pair.record_id
        if handle.state.species_code_of(facts.species_key[i]) != rec.species_code:
            validation[i] = SPECIES_MISMATCH
            continue
        validation[i] = CONFIRMED
        if height_m[i] != height_m[i] and rec.height_m is not None:  # NaN: missing
            height_m[i] = rec.height_m
        if dbh_cm[i] != dbh_cm[i] and rec.dbh_cm is not None:
            dbh_cm[i] = rec.dbh_cm
    handle.annotate_facts(validation, record_ids, height_m, dbh_cm)
    return n


def reconcile_warehouse(handle: Warehouse, radius_m: float = 2.0) -> ReconcileOutcome:
    """Match all facts against all survey records and annotate the fact table.

    It reads the fact columns and builds no fact object. facts_updated
    counts the facts annotated (every fact, matched or not), whether or not
    their annotation changed; a reconcile that changes none writes nothing
    but a missing or stale checkpoint (see Warehouse.annotate_facts).
    """
    records = handle.load_all_survey_records()
    facts = handle.state.facts  # held in fact_id order
    match = match_detections(facts, records, radius_m)
    codes = {key: species.code for key, species in handle.state.species.items()}
    fact_species = dict(zip(facts.fact_id, map(codes.__getitem__, facts.species_key)))
    metrics = compute_metrics(fact_species, records, match)
    updated = validate_facts(handle, match, records)
    return ReconcileOutcome(match=match, metrics=metrics, facts_updated=updated)
