"""Shared builders and independent oracles for the test suite.

The oracles here are deliberately naive re-implementations (repeated
minimum selection, full cross-product scans) so that equivalence tests
check the production code against independently derived answers rather
than against itself.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import random

from canopydw.model import (
    VALIDATION_STATES,
    BoundingBox,
    DimImage,
    DimSpecies,
    FactDraft,
    FactRow,
    Geotransform,
    ImageMeta,
    SurveyRecord,
    encode_date_key,
)
from canopydw.storage import FACTS

# -- row builders ---------------------------------------------------------------


def checksum_for(name: str) -> str:
    return hashlib.sha256(name.encode()).hexdigest()


def make_geotransform(**overrides) -> Geotransform:
    base = dict(origin_x=0.0, origin_y=0.0, a=0.1, b=0.0, d=0.0, e=-0.1)
    base.update(overrides)
    return Geotransform(**base)


def make_image(**overrides) -> DimImage:
    base = dict(
        image_key=1,
        file_name="img_0001.jpg",
        platform="uav",
        capture_date_key=20240115,
        width_px=100,
        height_px=100,
        gsd_cm_per_px=10.0,
        geotransform=make_geotransform(),
        size_bytes=4_000_000,
        checksum=None,
    )
    base.update(overrides)
    if base["checksum"] is None:
        base["checksum"] = checksum_for(base["file_name"])
    return DimImage(**base)


def make_species(key: int = 1, code: str = "PSME", **overrides) -> DimSpecies:
    base = dict(
        species_key=key,
        code=code,
        scientific_name="Pseudotsuga menziesii",
        common_name="Douglas-fir",
        conservation_status="least_concern",
    )
    base.update(overrides)
    return DimSpecies(**base)


def make_draft(image, species_key: int = 1, **overrides) -> FactDraft:
    base = dict(
        date_key=image.capture_date_key,
        image_key=image.image_key,
        species_key=species_key,
        bbox=BoundingBox(0.5, 0.5, 0.2, 0.2),
        confidence=0.9,
        geo_x=5.0,
        geo_y=-5.0,
    )
    base.update(overrides)
    return FactDraft(**base)


def make_record(record_id: str, x: float, y: float, code: str = "PSME", **overrides) -> SurveyRecord:
    base = dict(
        record_id=record_id,
        geo_x=x,
        geo_y=y,
        species_code=code,
        dbh_cm=None,
        height_m=None,
        surveyed_date_key=20240110,
    )
    base.update(overrides)
    return SurveyRecord(**base)


def fact_rows(facts) -> dict[int, FactRow]:
    """The stored rows of facts (a FactColumns), by fact_id."""
    return {row[0]: FactRow._make(row) for row in facts.cells()}


def annotation(facts, updates):
    """The four annotation columns Warehouse.rewrite_validation takes: those
    facts (a FactColumns) hold, with each update of updates, {fact_id:
    (validation, matched_record_id, height_m, dbh_cm)}, put in at its fact's
    position. A height or dbh of None keeps the held one."""
    validation, records = facts.validation[:], facts.matched_record_id[:]
    height_m, dbh_cm = facts.height_m[:], facts.dbh_cm[:]
    for fact_id, (state, record_id, height, dbh) in updates.items():
        i = facts.index(fact_id)
        validation[i] = VALIDATION_STATES.index(state)
        records[i] = record_id
        if height is not None:
            height_m[i] = height
        if dbh is not None:
            dbh_cm[i] = dbh
    return validation, records, height_m, dbh_cm


# -- randomized warehouse population ----------------------------------------------


SPECIES_POOL = ("PSME", "TSHE", "THPL", "ALRU", "ACMA")
PLATFORM_POOL = ("uav", "satellite", "aerial", "ground")
DATE_POOL = tuple(encode_date_key(2024, m, d) for m in (1, 2, 7, 11) for d in (1, 15, 28))


def random_bbox(rng: random.Random) -> BoundingBox:
    w = rng.uniform(0.01, 0.4)
    h = rng.uniform(0.01, 0.4)
    cx = rng.uniform(w / 2, 1 - w / 2)
    cy = rng.uniform(h / 2, 1 - h / 2)
    return BoundingBox(cx=cx, cy=cy, w=w, h=h)


def populate_random(handle, rng: random.Random, n_images: int, max_facts_per_image: int) -> int:
    """Fill an open warehouse with random rows; returns the fact count added."""
    species_keys = {code: handle.upsert_species(code) for code in SPECIES_POOL}
    added = 0
    for i in range(n_images):
        date_key = rng.choice(DATE_POOL)
        handle.ensure_date(date_key)
        name = f"r{rng.getrandbits(32):08x}_{i:04d}.jpg"
        meta = ImageMeta(
            file_name=name,
            platform=rng.choice(PLATFORM_POOL),
            capture_date_key=date_key,
            width_px=rng.choice((640, 1024, 1500, 4000, 8000)),
            height_px=rng.choice((480, 1024, 2000, 3000, 4000)),
            gsd_cm_per_px=rng.choice((2.5, 10.0, 30.0)),
            geotransform=make_geotransform(origin_x=rng.uniform(-1000, 1000), origin_y=rng.uniform(-1000, 1000)),
            size_bytes=rng.randrange(1, 10_000_000),
            checksum=checksum_for(name),
        )
        image_key = handle.insert_image(meta)
        drafts = []
        for _ in range(rng.randrange(max_facts_per_image + 1)):
            drafts.append(
                make_draft(
                    handle.state.images[image_key],
                    species_key=rng.choice(list(species_keys.values())),
                    bbox=random_bbox(rng),
                    confidence=rng.uniform(0, 1),
                    geo_x=rng.uniform(-100, 100),
                    geo_y=rng.uniform(-100, 100),
                    height_m=rng.choice((None, rng.uniform(1, 80))),
                    dbh_cm=rng.choice((None, rng.uniform(1, 200))),
                )
            )
        added += len(handle.append_facts(drafts))
    return added


# -- independent matching oracle ---------------------------------------------------


def oracle_match(facts, records, radius_m: float):
    """Greedy global-minimum matching by repeated minimum selection.

    O(n^3)-ish: rescan all remaining candidate pairs, take the smallest
    (distance, fact_id, record_id), remove both, repeat.
    """
    remaining_f = {f.fact_id: f for f in facts}
    remaining_r = {r.record_id: r for r in records}
    pairs = []
    while True:
        best = None
        for f in remaining_f.values():
            for r in remaining_r.values():
                dist = math.hypot(f.geo_x - r.geo_x, f.geo_y - r.geo_y)
                if dist > radius_m:
                    continue
                key = (dist, f.fact_id, r.record_id)
                if best is None or key < best:
                    best = key
        if best is None:
            return pairs
        dist, fid, rid = best
        pairs.append((fid, rid, dist))
        del remaining_f[fid]
        del remaining_r[rid]


# -- independent query oracle --------------------------------------------------------


def oracle_resolution_class(width_px: int, height_px: int) -> str:
    px = width_px * height_px
    if px < 1_000_000:
        return "low"
    if px <= 12_000_000:
        return "medium"
    return "high"


def oracle_group_value(key: str, fact, state) -> str:
    image = state.images[fact.image_key]
    species = state.species[fact.species_key]
    year = fact.date_key // 10000
    month = fact.date_key // 100 % 100
    if key == "year":
        return f"{year:04d}"
    if key == "quarter":
        return f"{year:04d}-Q{(month - 1) // 3 + 1}"
    if key == "month":
        return f"{year:04d}-{month:02d}"
    if key == "date":
        return str(fact.date_key)
    if key == "species":
        return species.code
    if key == "platform":
        return image.platform
    if key == "resolution_class":
        return oracle_resolution_class(image.width_px, image.height_px)
    if key == "conservation_status":
        return species.conservation_status
    raise AssertionError(key)


def left_to_right_sum(values) -> float:
    """0.0 plus each value in turn. From Python 3.12 on the builtin sum()
    of floats is compensated, so it can differ in the last place."""
    total = 0.0
    for v in values:
        total += v
    return total


def oracle_query(state, spec):
    """Naive full-scan aggregation used to cross-check run_query."""
    groups = {}
    for fact in fact_rows(state.facts).values():
        image = state.images[fact.image_key]
        species = state.species[fact.species_key]
        if spec.date_from is not None and fact.date_key < spec.date_from:
            continue
        if spec.date_to is not None and fact.date_key > spec.date_to:
            continue
        if spec.species_codes is not None and species.code not in spec.species_codes:
            continue
        if spec.platforms is not None and image.platform not in spec.platforms:
            continue
        if spec.min_width_px is not None and image.width_px < spec.min_width_px:
            continue
        if spec.min_height_px is not None and image.height_px < spec.min_height_px:
            continue
        if spec.validation_states is not None and fact.validation not in spec.validation_states:
            continue
        key = tuple(oracle_group_value(k, fact, state) for k in spec.group_by)
        groups.setdefault(key, []).append(fact)
    rows = []
    for key in sorted(groups):
        facts = groups[key]
        cells = list(key)
        for m in spec.measures:
            if m == "tree_count":
                cells.append(len(facts))
            elif m == "mean_confidence":
                cells.append(left_to_right_sum(f.confidence for f in facts) / len(facts))
            elif m == "mean_height_m":
                vals = [f.height_m for f in facts if f.height_m is not None]
                cells.append(left_to_right_sum(vals) / len(vals) if vals else None)
            elif m == "mean_dbh_cm":
                vals = [f.dbh_cm for f in facts if f.dbh_cm is not None]
                cells.append(left_to_right_sum(vals) / len(vals) if vals else None)
            elif m == "image_count":
                cells.append(len({f.image_key for f in facts}))
            elif m == "confirmed_count":
                cells.append(sum(1 for f in facts if f.validation == "confirmed"))
            else:
                raise AssertionError(m)
        rows.append(tuple(cells))
    return rows


def logical_state(handle):
    """Comparable snapshot of everything a warehouse holds."""
    return (
        sorted(handle.state.dates.items()),
        sorted(handle.state.images.items()),
        sorted(handle.state.species.items()),
        sorted(fact_rows(handle.state.facts).items()),
        {sid: tuple(handle.load_survey(sid)) for sid in handle.list_survey_ids()},
    )


# Query options given as an empty list (","), and the refusal each gets.
EMPTY_LIST_REFUSALS = {
    "species_codes": "species_codes filter is empty",
    "platforms": "platforms filter is empty",
    "validation_states": "validation_states filter is empty",
    "measures": "at least one measure is required",
}


@contextlib.contextmanager
def counted_fact_parses(monkeypatch):
    """Collects the cells of each fact line parsed inside the block."""
    parses = []
    real_row = FACTS.row
    with monkeypatch.context() as m:
        m.setattr(FACTS, "row", lambda *args: parses.append(args) or real_row(*args))
        yield parses
