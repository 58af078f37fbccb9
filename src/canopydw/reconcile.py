"""Ground-truth reconciliation: match detected trees to surveyed trees.

Detections carry ground coordinates derived from their image geotransform;
survey records carry measured coordinates in the same planar CRS. Matching
is one-to-one within a radius, preferring globally small distances, and the
resulting pairs drive both validation annotations on the fact table and
per-species precision/recall.
"""

from __future__ import annotations

import hashlib
import logging
import math
from array import array
from bisect import bisect_right
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
from .storage import MatchRecord, Warehouse

log = logging.getLogger(__name__)


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
    _check_radius(radius_m)
    if isinstance(facts, FactColumns):
        fact_side = facts.fact_id, facts.geo_x, facts.geo_y
    else:
        fact_side = [f.fact_id for f in facts], [f.geo_x for f in facts], [f.geo_y for f in facts]
    records = SurveyColumns.of(records)
    record_side = records.record_id, records.geo_x, records.geo_y
    _check_finite(*fact_side, "fact {}")
    _check_finite(*record_side, "record {!r}")
    return _result(_greedy(_candidates(fact_side, record_side, radius_m)), fact_side[0], record_side[0])


def _check_radius(radius_m: float) -> None:
    if not (math.isfinite(radius_m) and radius_m >= 0.0):
        raise ValueError(f"radius_m must be finite and non-negative, got {radius_m!r}")


def _candidates(fact_side: tuple, record_side: tuple, radius_m: float) -> list[tuple[float, int, str]]:
    """(distance, fact id, record id) for every pair within radius_m of the
    facts and records, each given as (ids, xs, ys) of finite points: the
    larger side is bucketed, with the cell side of match_detections."""
    extent = max(0.0, *(max(map(abs, xs), default=0.0) for points in (fact_side, record_side) for xs in points[1:]))
    side = max(2.0 * radius_m + (radius_m + extent) * 2.0**-48, 2.0**-960)
    if len(fact_side[0]) >= len(record_side[0]):
        return _near(fact_side, record_side, side, radius_m)
    return [(dist, fid, rid) for dist, rid, fid in _near(record_side, fact_side, side, radius_m)]


def _greedy(candidates: list[tuple[float, int, str]]) -> list[tuple[float, int, str]]:
    """The candidates taken, smallest (distance, fact id, record id) first,
    each fact and each record at most once; in that order."""
    candidates.sort()
    used_facts: set[int] = set()
    used_records: set[str] = set()
    taken = []
    for candidate in candidates:
        _, fid, rid = candidate
        if fid in used_facts or rid in used_records:
            continue
        used_facts.add(fid)
        used_records.add(rid)
        taken.append(candidate)
    return taken


def _result(taken: list[tuple[float, int, str]], fact_ids: Iterable[int], record_ids: Iterable[str]) -> MatchResult:
    """The MatchResult of the pairs taken, (distance, fact id, record id) in
    order, over the facts and records with these ids, in order."""
    dists, fids, rids = zip(*taken) if taken else ((), (), ())
    matched_facts, matched_records = set(fids), set(rids)
    return MatchResult(
        pairs=tuple(map(MatchPair, fids, rids, dists)),
        unmatched_fact_ids=tuple(filterfalse(matched_facts.__contains__, fact_ids)),
        unmatched_record_ids=tuple(filterfalse(matched_records.__contains__, record_ids)),
    )


# -- matching again only what changed ----------------------------------------------


def _survey_digests(records: SurveyColumns) -> tuple[tuple[str, str], ...]:
    """Each survey's id (records.surveys, as Warehouse.load_all_survey_records
    gives them) and the blake2b of what matching reads of its records: their
    count, coordinates and ids. No record id holds a line break, so the
    digested bytes tell the ids apart."""
    digests, at = [], 0
    for survey_id, n in records.surveys:
        digest = hashlib.blake2b(f"{n}\n".encode())
        digest.update(array("d", records.geo_x[at : at + n]))
        digest.update(array("d", records.geo_y[at : at + n]))
        digest.update("\n".join(records.record_id[at : at + n]).encode("utf-8"))
        digests.append((survey_id, digest.hexdigest()))
        at += n
    return tuple(digests)


def _full_match_reason(last: MatchRecord | None, now: MatchRecord) -> str | None:
    """Why the last match cannot be kept, or None when it can: it is
    unknown, had another radius, or a survey it read changed or is gone."""
    if last is None:
        return "no-record"
    if last.radius != now.radius:
        return "radius-changed"
    digests = dict(now.surveys)
    for survey_id, digest in last.surveys:
        if digests.get(survey_id) != digest:
            return f"survey-{'changed' if survey_id in digests else 'missing'}:{survey_id}"
    return None


def _margin(radius_m: float, x: float) -> float:
    """A width, in one coordinate, that half of is more than the farthest a
    point within radius_m of a point at x can lie from x in it: a pair that
    passes the distance test has each coordinate difference within
    radius_m * (1 + 4u) (u = 2**-53), and half of this width is 2 * radius_m
    plus 2**-41 of (radius_m + |x|), which is far more than the rounding of
    x plus or minus it. The floor keeps it positive for a zero radius at 0."""
    return max(4.0 * radius_m + (radius_m + abs(x)) * 2.0**-40, 2.0**-960)


def _slabs(xs: Iterable[float], radius_m: float) -> list[float]:
    """The union of the intervals [x - m, x + m) with m = _margin(x), for
    each x, as their sorted edges: a value v lies in it when
    bisect_right(edges, v) is odd."""
    spans = sorted((x - _margin(radius_m, x), x + _margin(radius_m, x)) for x in xs)
    edges: list[float] = []
    for low, high in spans:
        if edges and low <= edges[-1]:
            edges[-1] = max(edges[-1], high)
        else:
            edges += (low, high)
    return edges


def _within(edges: list[float], xs: Sequence[float]) -> list[int]:
    """The positions of the values of xs that lie in the slabs edges bounds."""
    low, high = edges[0], edges[-1]
    return [i for i, x in enumerate(xs) if low <= x < high and bisect_right(edges, x) & 1]


def _covers(edges: list[float], low: float, high: float) -> bool:
    """Whether one slab of edges holds [low, high]."""
    at = bisect_right(edges, low)
    return at % 2 == 1 and high < edges[at]


def _components(
    fact_side: tuple, record_side: tuple, new_facts: list[int], new_records: list[int], radius_m: float
) -> tuple[list[tuple[float, int, str]], set[int], set[str]]:
    """The candidates (as _candidates gives them) of the connected components
    of the within-radius graph of facts and records, each given as (ids, xs,
    ys), that hold the new ones (positions), with the ids of their facts and
    of their records.

    Only points in slabs of x around the components are read: a slab of
    width 2 * _margin around each point of a component found so far. The
    points in them are matched with _candidates, and the components are
    taken from the new points through those pairs. When some point of them
    lies less than half its margin from the edge of its slab (one of its
    neighbours might lie past it), the slabs grow around every point of the
    components, and this is done again. The slabs only grow, and each point
    found gets a slab of its own, so this ends; it ends with every
    neighbour of every point of the components read, so they are whole.
    The pairs of different components share no fact and no record, and so
    greedy matching of these candidates picks the pairs that matching every
    fact against every record picks in these components."""
    fids, fxs, fys = fact_side
    rids, rxs, rys = record_side
    seeds = {fids[i] for i in new_facts}, {rids[j] for j in new_records}
    xs = [fxs[i] for i in new_facts] + [rxs[j] for j in new_records]
    while True:
        edges = _slabs(xs, radius_m)
        near_facts, near_records = _within(edges, fxs), _within(edges, rxs)
        candidates = _candidates(
            ([fids[i] for i in near_facts], [fxs[i] for i in near_facts], [fys[i] for i in near_facts]),
            ([rids[j] for j in near_records], [rxs[j] for j in near_records], [rys[j] for j in near_records]),
            radius_m,
        )
        fact_at = dict(zip(map(fids.__getitem__, near_facts), near_facts))
        record_at = dict(zip(map(rids.__getitem__, near_records), near_records))
        records_of: dict[int, list[str]] = {}
        facts_of: dict[str, list[int]] = {}
        for _, fid, rid in candidates:
            records_of.setdefault(fid, []).append(rid)
            facts_of.setdefault(rid, []).append(fid)
        facts, records = set(seeds[0]), set(seeds[1])
        todo = [*((fid, True) for fid in facts), *((rid, False) for rid in records)]
        while todo:
            point, is_fact = todo.pop()
            for other in (records_of if is_fact else facts_of).get(point, ()):
                found = records if is_fact else facts
                if other not in found:
                    found.add(other)
                    todo.append((other, not is_fact))
        xs = [fxs[fact_at[fid]] for fid in facts] + [rxs[record_at[rid]] for rid in records]
        if all(_covers(edges, x - _margin(radius_m, x) / 2, x + _margin(radius_m, x) / 2) for x in xs):
            return [c for c in candidates if c[1] in facts], facts, records


def _rematch(
    facts: FactColumns, records: SurveyColumns, radius_m: float, last: MatchRecord | None, now: MatchRecord
) -> MatchResult:
    """match_detections(facts, records, radius_m), from the last match where
    its record (last) allows: see reconcile_warehouse. Logs which path it
    took on the canopydw.reconcile logger, at INFO."""
    reason = _full_match_reason(last, now)
    if reason is None:
        record_at = dict(zip(records.record_id, count()))
        n = last.facts
        stored = facts.matched_record_id[:n]
        kept_facts = list(compress(count(), stored))  # the pairs of the last match, by position
        try:
            kept_records = list(map(record_at.__getitem__, filter(None, stored)))
        except KeyError as exc:
            reason = f"stored-record-missing:{exc.args[0]}"
    if reason is not None:
        match = match_detections(facts, records, radius_m)
        log.info(
            "path=full reason=%s new_facts=%d new_records=%d affected_facts=%d affected_records=%d",
            reason, len(facts), len(records), len(facts), len(records),
        )
        return match
    fact_side = fids, fxs, fys = facts.fact_id, facts.geo_x, facts.geo_y
    record_side = rids, rxs, rys = records.record_id, records.geo_x, records.geo_y
    named = dict(last.surveys)
    new_records, at = [], 0
    for survey_id, size in records.surveys:
        if survey_id not in named:
            new_records += range(at, at + size)
        at += size
    new_facts = list(range(n, len(facts)))
    _check_finite(*(points[n:] for points in fact_side), "fact {}")
    _check_finite(*([points[j] for j in new_records] for points in record_side), "record {!r}")
    candidates, touched_facts, touched_records = [], set(), set()
    if new_facts or new_records:
        candidates, touched_facts, touched_records = _components(fact_side, record_side, new_facts, new_records, radius_m)
    taken = _greedy(candidates)
    # the pairs of the last match outside the components, each distance by
    # the expression of _near (whose sign does not change it)
    taken += [
        (hypot(fxs[i] - rxs[j], fys[i] - rys[j]), fids[i], rids[j])
        for i, j in zip(kept_facts, kept_records)
        if fids[i] not in touched_facts
    ]
    taken.sort()
    log.info(
        "path=incremental new_facts=%d new_records=%d affected_facts=%d affected_records=%d",
        len(new_facts), len(new_records), len(touched_facts), len(touched_records),
    )
    return _result(taken, fids, rids)


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


def validate_facts(
    handle: Warehouse,
    match: MatchResult,
    records: SurveyColumns | Sequence[SurveyRecord],
    record: MatchRecord | None = None,
) -> int:
    """Annotate every held fact with its match outcome; returns their number.

    Matched facts become "confirmed" when species agree (inheriting the
    record's DBH and height where the fact lacks them) or
    "species_mismatch" otherwise; every other fact becomes "unmatched", so
    match is to be made over all of them. The annotation is built as
    columns (codes starting all "unmatched", record ids all None, copies of
    the heights and DBHs), filled in at the matched facts' positions only,
    and given whole to Warehouse.rewrite_validation, with record, the
    MatchRecord of match (None: not known). records (SurveyColumns or
    SurveyRecords) are found by their positions in the columns.
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
    handle.rewrite_validation(validation, record_ids, height_m, dbh_cm, record)
    return n


def reconcile_warehouse(handle: Warehouse, radius_m: float = 2.0) -> ReconcileOutcome:
    """Match every fact against every survey record, as match_detections
    does, and annotate the fact table; match again only what the last
    match did not cover.

    The checkpoint that a reconcile writes records what it matched (a
    storage.MatchRecord): the radius, the facts (its rows) and the digest
    of each survey (_survey_digests). When the facts held were loaded from
    such a checkpoint, or this handle wrote one, and the radius and every
    survey it names are unchanged, the pairs it stored (the facts'
    matched_record_id) are kept. Only the connected components of the
    within-radius graph that hold new facts (past its rows) or new records
    (of surveys it does not name) are matched again, greedily: pairs in
    different components share no fact and no record, so this gives the
    pairs of the global greedy match (Gupta & Mumick, "Maintenance of
    Materialized Views", 1995). Otherwise every fact is matched against
    every record. Either way the MatchResult is that of match_detections,
    distances included; a line on the canopydw.reconcile logger, at INFO,
    tells which path was taken, and why.

    It reads the fact and survey columns and builds no object per fact or
    per record. facts_updated counts the facts annotated (every fact,
    matched or not), whether or not their annotation changed; a reconcile
    that changes none writes nothing but a missing or stale checkpoint, or
    one whose record differs (see Warehouse.rewrite_validation).
    """
    records = handle.load_all_survey_records()
    facts = handle.state.facts  # held in fact_id order; read before match_record
    _check_radius(radius_m)
    record = MatchRecord(float(radius_m).hex(), len(facts), _survey_digests(records))
    match = _rematch(facts, records, radius_m, handle.match_record, record)
    codes = {key: species.code for key, species in handle.state.species.items()}
    fact_species = dict(zip(facts.fact_id, map(codes.__getitem__, facts.species_key)))
    metrics = compute_metrics(fact_species, records, match)
    updated = validate_facts(handle, match, records, record)
    return ReconcileOutcome(match=match, metrics=metrics, facts_updated=updated)
