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
from collections import Counter
from dataclasses import dataclass
from itertools import compress, count, filterfalse, repeat
from math import floor, hypot
from operator import add, attrgetter, eq, mul, ne, rshift, sub, truediv
from typing import Collection, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import NonFiniteCoordinateError
from .model import (
    CONFIRMED,
    SPECIES_MISMATCH,
    UNMATCHED,
    FactColumns,
    FactRow,
    Geotransform,
    SurveyColumns,
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


class MatchPair(NamedTuple):
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


# A cell key is column * _ROW + row. Columns and rows lie within
# 2**48 + 2 of 0 (see match_detections), so no two cells share a key.
_ROW = 1 << 50


def _floors(values: Iterable[float], size: float) -> Iterator[int]:
    """floor(v / size) for each value v."""
    return map(floor, map(truediv, values, repeat(size)))


def _lows(values: Iterable[float], half: float) -> Iterator[int]:
    """For each value v, the lower of the two cells of side 2 * half nearest
    to it: (floor(v / half) - 1) >> 1."""
    return map(rshift, map(sub, _floors(values, half), repeat(1)), repeat(1))


def _keys(columns: Iterable[int], rows: Iterable[int]) -> Iterator[int]:
    return map(add, map(mul, columns, repeat(_ROW)), rows)


def _near(bucketed: tuple, probes: tuple, side: float, radius_m: float) -> list[tuple[float, object, object]]:
    """(distance, bucketed id, probe id) for every pair within radius_m of
    two sets of points, each given as (ids, xs, ys): the bucketed points go
    in a grid of cells of the given side, keyed by one int each, and each
    probe tests the points of the 2x2 block of cells nearest to it."""
    ids, xs, ys = bucketed
    keys = list(_keys(_floors(xs, side), _floors(ys, side)))
    grid = dict(zip(keys, zip(count())))  # cell key -> positions of its points (here: of its last point)
    if len(grid) < len(keys):  # some cells hold several points: add the others to them
        for i in [*compress(count(), map(ne, map(grid.__getitem__, keys), zip(count())))]:
            grid[keys[i]] += (i,)
    pids, pxs, pys = probes
    get = grid.get
    near = []
    for pid, x, y, low in zip(pids, pxs, pys, _keys(_lows(pxs, side / 2), _lows(pys, side / 2))):
        for cell in (get(low), get(low + 1), get(low + _ROW), get(low + _ROW + 1)):
            if cell:
                for i in cell:
                    dist = hypot(xs[i] - x, ys[i] - y)
                    if dist <= radius_m:
                        near.append((dist, ids[i], pid))
    return near


def match_detections(
    facts: FactColumns | Collection[FactRow],
    records: SurveyColumns | Sequence[SurveyRecord],
    radius_m: float = 2.0,
) -> MatchResult:
    """One-to-one matching by ascending ground distance within radius_m.

    Candidate pairs within the radius are taken smallest distance first;
    each fact and each record participates in at most one pair. Distance
    ties break on (fact_id, record_id) so results do not depend on input
    order. facts is either FactColumns, whose fact_id, geo_x and geo_y
    columns are read as they are, or a collection of objects with fact_id,
    geo_x and geo_y attributes, such as FactRow (or FactTreeMetric).
    records is SurveyColumns, read as they are, or SurveyRecords.

    Candidates come from a uniform grid (Bentley, Stanat & Williams, "The
    complexity of finding fixed-radius near neighbors", 1977): the larger
    side (facts or records) is bucketed by cell, one int key per point, and
    each point of the smaller side tests only the points in the 2x2 block
    of cells nearest to it, since a bucketed point costs one key and a
    probe four lookups. Which side is bucketed changes nothing in the
    result: the candidates are the same pairs with the same distances
    (x - x' is exactly -(x' - x), and hypot ignores signs), sorted the same
    way.

    Why no pair within the radius is lost. Let E be the largest coordinate
    magnitude, u = 2**-53 the unit roundoff and w = (radius_m + E) * 2**-48.
    The cell side is s = 2 * radius_m + w, or 2**-960 if that is more (when
    radius_m + E is below 2**-962, w would be subnormal and imprecise; the
    floor alone is then wider than needed). Along one axis, in cell units:
    a bucketed point b goes in cell floor(b / s); a probe p takes
    h = floor(p / (s / 2)) and tests the cells a = (h - 1) >> 1 and a + 1,
    that is the positions [a, a + 2). As 2a + 1 <= h <= 2a + 2, the probe's
    own rounded position q_p = fl(p / s) lies in [a + 1/2, a + 3/2), since
    dividing by s / 2 is dividing by s and doubling, exactly. So b is
    tested whenever its rounded position q_b is within 1/2 of q_p. A pair
    that passes the distance test has |fl(b - p)| <= hypot(...) <= radius_m,
    so |b - p| <= radius_m * (1 + 2u), and each of q_b and q_p is off by at
    most u * E / s. Hence |q_b - q_p| <= (radius_m * (1 + 2u) + 2u * E) / s,
    which is below 1/2 because s - 2 * radius_m = w is eight times
    4u * (radius_m + E), with room to spare for the rounding of s itself.
    The widening also bounds every cell: |q| <= E / s <= E / w <= 2**48,
    so no division overflows, for a tiny radius included, and the int keys
    of distinct cells differ. (With no widening, a grid of side
    2 * radius_m loses pairs at exactly radius_m to rounding.)
    """
    if not (math.isfinite(radius_m) and radius_m >= 0.0):
        raise ValueError(f"radius_m must be finite and non-negative, got {radius_m!r}")
    if isinstance(facts, FactColumns):
        fact_side = facts.fact_id, facts.geo_x, facts.geo_y
    else:
        fact_side = [f.fact_id for f in facts], [f.geo_x for f in facts], [f.geo_y for f in facts]
    records = SurveyColumns.of(records)
    record_side = records.record_id, records.geo_x, records.geo_y
    _check_finite(*fact_side, "fact {}")
    _check_finite(*record_side, "record {!r}")
    extent = max(0.0, *(max(map(abs, xs), default=0.0) for points in (fact_side, record_side) for xs in points[1:]))
    side = max(2.0 * radius_m + (radius_m + extent) * 2.0**-48, 2.0**-960)
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
        pairs.append(MatchPair(fid, rid, dist))
    unmatched_f = tuple(filterfalse(used_facts.__contains__, fact_side[0]))
    unmatched_r = tuple(filterfalse(used_records.__contains__, record_side[0]))
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
    records: SurveyColumns | Sequence[SurveyRecord],
    match: MatchResult,
) -> ValidationMetrics:
    """Derive accuracy and per-species counts from a match result.

    fact_species maps fact_id to its detected species code for every fact
    that participated in the matching; records are SurveyColumns or
    SurveyRecords.
    """
    records = SurveyColumns.of(records)
    record_species = dict(zip(records.record_id, records.species_code))
    detected = list(map(fact_species.__getitem__, map(attrgetter("fact_id"), match.pairs)))
    surveyed = map(record_species.__getitem__, map(attrgetter("record_id"), match.pairs))
    tp = Counter(compress(detected, map(eq, detected, surveyed)))
    detected_totals = Counter(fact_species.values())
    surveyed_totals = Counter(records.species_code)
    per_species = tuple(
        SpeciesCounts(
            species_code=code,
            tp=tp[code],
            fp=detected_totals[code] - tp[code],
            fn=surveyed_totals[code] - tp[code],
        )
        for code in sorted(detected_totals.keys() | surveyed_totals.keys())
    )
    return ValidationMetrics(
        matched_pairs=len(match.pairs),
        agreeing_pairs=sum(tp.values()),
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


def validate_facts(handle: Warehouse, match: MatchResult, records: SurveyColumns | Sequence[SurveyRecord]) -> int:
    """Annotate every held fact with its match outcome; returns their number.

    Matched facts become "confirmed" when species agree (inheriting the
    record's DBH and height where the fact lacks them) or
    "species_mismatch" otherwise; every other fact becomes "unmatched", so
    match is to be made over all of them. The annotation is built as
    columns (codes starting all "unmatched", record ids all None, copies of
    the heights and DBHs), filled in at the matched facts' positions only,
    and given whole to Warehouse.rewrite_validation. records (SurveyColumns
    or SurveyRecords) are found by their positions in the columns.
    """
    records = SurveyColumns.of(records)
    record_at = dict(zip(records.record_id, count()))
    facts = handle.state.facts
    n = len(facts)
    validation = array("b", [UNMATCHED]) * n
    record_ids: list[str | None] = [None] * n
    height_m, dbh_cm = facts.height_m[:], facts.dbh_cm[:]
    for fact_id, record_id, _ in match.pairs:
        i = facts.index(fact_id)
        j = record_at[record_id]
        record_ids[i] = record_id
        if handle.state.species_code_of(facts.species_key[i]) != records.species_code[j]:
            validation[i] = SPECIES_MISMATCH
            continue
        validation[i] = CONFIRMED
        if height_m[i] != height_m[i] and records.height_m[j] is not None:  # NaN: missing
            height_m[i] = records.height_m[j]
        if dbh_cm[i] != dbh_cm[i] and records.dbh_cm[j] is not None:
            dbh_cm[i] = records.dbh_cm[j]
    handle.rewrite_validation(validation, record_ids, height_m, dbh_cm)
    return n


def reconcile_warehouse(handle: Warehouse, radius_m: float = 2.0) -> ReconcileOutcome:
    """Match all facts against all survey records and annotate the fact table.

    It reads the fact and survey columns and builds no object per fact or
    per record. facts_updated counts the facts annotated (every fact,
    matched or not), whether or not their annotation changed; a reconcile
    that changes none writes nothing but a missing or stale checkpoint (see
    Warehouse.rewrite_validation).
    """
    records = handle.load_all_survey_records()
    facts = handle.state.facts  # held in fact_id order
    match = match_detections(facts, records, radius_m)
    codes = {key: species.code for key, species in handle.state.species.items()}
    fact_species = dict(zip(facts.fact_id, map(codes.__getitem__, facts.species_key)))
    metrics = compute_metrics(fact_species, records, match)
    updated = validate_facts(handle, match, records)
    return ReconcileOutcome(match=match, metrics=metrics, facts_updated=updated)
