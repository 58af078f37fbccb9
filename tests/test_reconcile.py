import math
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canopydw.errors import NonFiniteCoordinateError
from canopydw.model import FactTreeMetric, Geotransform
from canopydw.reconcile import (
    MatchPair,
    compute_metrics,
    geo_to_pixel,
    match_detections,
    metrics_csv,
    pixel_to_geo,
    reconcile_warehouse,
    validate_facts,
)
from canopydw import storage
from canopydw.storage import FACTS, TABLES, open_warehouse

from helpers import make_draft, make_image, make_record, oracle_match

# -- affine transform ----------------------------------------------------------


def test_pixel_to_geo_known_values():
    # origin (100, 200), 0.1 m/px east, 0.1 m/px south (north-up raster)
    gt = Geotransform(origin_x=100.0, origin_y=200.0, a=0.1, b=0.0, d=0.0, e=-0.1)
    assert pixel_to_geo(gt, 50.0, 50.0) == (105.0, 195.0)
    assert pixel_to_geo(gt, 0.0, 0.0) == (100.0, 200.0)


def test_geo_to_pixel_known_values():
    gt = Geotransform(origin_x=100.0, origin_y=200.0, a=0.1, b=0.0, d=0.0, e=-0.1)
    col, row = geo_to_pixel(gt, 105.0, 195.0)
    assert col == pytest.approx(50.0, abs=1e-9)
    assert row == pytest.approx(50.0, abs=1e-9)


def test_geo_to_pixel_rejects_singular():
    gt = Geotransform(0, 0, 1.0, 2.0, 2.0, 4.0)
    with pytest.raises(ValueError):
        geo_to_pixel(gt, 1.0, 1.0)


def test_rotated_transform_round_trip():
    # 30-degree rotation with anisotropic scale
    c, s = math.cos(math.pi / 6), math.sin(math.pi / 6)
    gt = Geotransform(origin_x=10.0, origin_y=-20.0, a=0.2 * c, b=-0.2 * s, d=0.1 * s, e=0.1 * c)
    col, row = geo_to_pixel(gt, *pixel_to_geo(gt, 123.25, 456.75))
    assert abs(col - 123.25) < 1e-9
    assert abs(row - 456.75) < 1e-9


finite = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6)
scale = st.floats(min_value=0.01, max_value=10.0)


@given(ox=finite, oy=finite, a=scale, e=scale, b=st.floats(-1.0, 1.0), d=st.floats(-1.0, 1.0),
       col=st.floats(0, 10000), row=st.floats(0, 10000))
def test_round_trip_property(ox, oy, a, e, b, d, col, row):
    gt = Geotransform(origin_x=ox, origin_y=oy, a=a, b=b, d=d, e=e)
    if abs(gt.determinant) < 1e-3:
        return
    c2, r2 = geo_to_pixel(gt, *pixel_to_geo(gt, col, row))
    assert abs(c2 - col) < 1e-6
    assert abs(r2 - row) < 1e-6


# -- matching -------------------------------------------------------------------


def _fact(fid: int, x: float, y: float, species_key: int = 1) -> FactTreeMetric:
    image = make_image()
    return make_draft(image, species_key=species_key, geo_x=x, geo_y=y).with_id(fid)


def test_matching_prefers_global_minimum():
    # the classic greedy trap: f1 is nearest to r1, but (f2, r2) is globally
    # smaller and claims r2 first, leaving r1 for f1
    facts = [_fact(1, 0.0, 0.0), _fact(2, 1.0, 0.0)]
    records = [make_record("r1", 0.6, 0.0), make_record("r2", 1.1, 0.0)]
    result = match_detections(facts, records, radius_m=2.0)
    by_fact = {p.fact_id: p for p in result.pairs}
    assert by_fact[2].record_id == "r2"
    assert by_fact[2].distance_m == pytest.approx(0.1)
    assert by_fact[1].record_id == "r1"
    assert by_fact[1].distance_m == pytest.approx(0.6)
    assert result.unmatched_fact_ids == ()
    assert result.unmatched_record_ids == ()


def test_matching_respects_radius():
    facts = [_fact(1, 0.0, 0.0)]
    records = [make_record("far", 3.0, 0.0)]
    result = match_detections(facts, records, radius_m=2.0)
    assert result.pairs == ()
    assert result.unmatched_fact_ids == (1,)
    assert result.unmatched_record_ids == ("far",)
    # exactly at the radius counts
    assert match_detections(facts, [make_record("edge", 2.0, 0.0)], 2.0).pairs != ()


def test_matching_tie_breaks_deterministically():
    # two facts equidistant from one record: lower fact_id wins
    facts = [_fact(2, 1.0, 0.0), _fact(1, -1.0, 0.0)]
    records = [make_record("r", 0.0, 0.0)]
    result = match_detections(facts, records, radius_m=2.0)
    assert result.pairs == (MatchPair(fact_id=1, record_id="r", distance_m=1.0),)


def test_matching_is_input_order_independent():
    rng = random.Random(7)
    facts = [_fact(i, rng.uniform(-5, 5), rng.uniform(-5, 5)) for i in range(1, 9)]
    records = [make_record(f"r{i}", rng.uniform(-5, 5), rng.uniform(-5, 5)) for i in range(8)]
    base = match_detections(facts, records, 3.0)
    for _ in range(5):
        rng.shuffle(facts)
        rng.shuffle(records)
        assert match_detections(facts, records, 3.0).pairs == base.pairs


def test_matching_rejects_non_finite():
    with pytest.raises(NonFiniteCoordinateError):
        match_detections([_fact(1, float("nan"), 0.0)], [], 2.0)
    with pytest.raises(NonFiniteCoordinateError):
        match_detections([], [make_record("r", float("inf"), 0.0)], 2.0)
    with pytest.raises(ValueError):
        match_detections([], [], float("nan"))


def test_matching_equals_oracle_on_random_instances():
    rng = random.Random(42)
    for _ in range(200):
        facts = [
            _fact(i, rng.uniform(-4, 4), rng.uniform(-4, 4))
            for i in range(1, rng.randrange(9))
        ]
        records = [
            make_record(f"r{i}", rng.uniform(-4, 4), rng.uniform(-4, 4))
            for i in range(rng.randrange(9))
        ]
        radius = rng.choice((0.5, 1.0, 2.0, 10.0))
        got = [(p.fact_id, p.record_id, p.distance_m) for p in match_detections(facts, records, radius).pairs]
        expected = oracle_match(facts, records, radius)
        assert sorted(got) == sorted(expected)


def _ulps(value: float, steps: int) -> float:
    for _ in range(abs(steps)):
        value = math.nextafter(value, math.copysign(math.inf, steps))
    return value


def _pairs(facts, records, radius):
    return [(p.fact_id, p.record_id, p.distance_m) for p in match_detections(facts, records, radius).pairs]


# Points on cell borders (multiples of the radius from an offset, give or take
# an ulp) and records exactly one radius away along one axis: the pairs a grid
# of side radius_m would lose to rounding if it did not widen its cells. Such
# pairs are rare, hence the larger example count.
ulps = st.integers(-1, 1)
lattice_point = st.tuples(st.integers(-2, 2), st.integers(-2, 2), ulps, ulps)
record_spec = st.tuples(st.integers(0, 7), st.sampled_from([(1, 0), (-1, 0), (0, 1), (0, -1), (0, 0)]), ulps, ulps)


@given(
    radius=st.sampled_from([0.0, 1e-9, 0.7, 2.0]),
    offset=st.sampled_from([(0.0, 0.0), (600000.0, 5200000.0), (-600000.0, -5200000.0), (-600000.0, 5200000.0)]),
    points=st.lists(lattice_point, min_size=1, max_size=8),
    specs=st.lists(record_spec, max_size=8),
)
@settings(max_examples=500)
def test_matching_equals_oracle_on_cell_borders(radius, offset, points, specs):
    ox, oy = offset
    facts = [
        _fact(i, _ulps(ox + k * radius, dx), _ulps(oy + l * radius, dy))
        for i, (k, l, dx, dy) in enumerate(points, start=1)
    ]
    records = []
    for j, (at, (sx, sy), dx, dy) in enumerate(specs):
        near = facts[at % len(facts)]
        records.append(make_record(f"r{j}", _ulps(near.geo_x + sx * radius, dx), _ulps(near.geo_y + sy * radius, dy)))
    got = _pairs(facts, records, radius)
    assert got == oracle_match(facts, records, radius)
    if radius == 0.0:
        by_id = {r.record_id: r for r in records}
        for fid, rid, dist in got:
            assert dist == 0.0
            assert (facts[fid - 1].geo_x, facts[fid - 1].geo_y) == (by_id[rid].geo_x, by_id[rid].geo_y)


@pytest.mark.parametrize(
    "radius, fact_xy, record_xy",
    [
        # x - x' rounds to exactly the radius, and the points sit two cells of
        # side radius_m apart (0 and 2)
        (2.0, (1.9999999999999998, 0.0), (4.0, 0.0)),
        # the smallest negative double and the radius: cells -1 and 1 of side radius_m
        (0.7, (-5e-324, 0.0), (0.7, 0.0)),
        (0.7, (0.0, 0.7), (-5e-324, -5e-324)),
        # adjacent doubles far from the origin, 9.3e-10 apart
        (1e-9, (5200000.0, -600000.0), (5200000.000000001, -600000.0)),
        # x / radius_m overflows to infinity for a grid of side radius_m
        (5e-324, (1e15, 0.0), (1e15, 0.0)),
    ],
)
def test_matching_finds_pairs_across_cell_borders(radius, fact_xy, record_xy):
    facts, records = [_fact(1, *fact_xy)], [make_record("r", *record_xy)]
    expected = oracle_match(facts, records, radius)
    assert len(expected) == 1
    assert _pairs(facts, records, radius) == expected


def test_matching_radius_zero_pairs_only_coincident_points():
    facts = [_fact(1, 600000.0, 5200000.0), _fact(2, -0.0, 0.0)]
    records = [
        make_record("near", math.nextafter(600000.0, math.inf), 5200000.0),
        make_record("same", 600000.0, 5200000.0),
        make_record("zero", 0.0, -0.0),
    ]
    assert _pairs(facts, records, 0.0) == [(1, "same", 0.0), (2, "zero", 0.0)]


# -- metrics ------------------------------------------------------------------------


def _match_result(facts, records, radius=2.0):
    return match_detections(facts, records, radius)


def test_metrics_confusion_case():
    # one agreeing pair, one species-mismatched pair, one lone record
    facts = [_fact(1, 0.0, 0.0, species_key=1), _fact(2, 5.0, 0.0, species_key=2)]
    records = [
        make_record("r1", 0.1, 0.0, "PSME"),
        make_record("r2", 5.1, 0.0, "PSME"),
        make_record("r3", 50.0, 0.0, "TSHE"),
    ]
    fact_species = {1: "PSME", 2: "TSHE"}
    metrics = compute_metrics(fact_species, records, _match_result(facts, records))
    assert metrics.matched_pairs == 2
    assert metrics.agreeing_pairs == 1
    assert metrics.accuracy == 0.5
    psme = metrics.species("PSME")
    assert (psme.tp, psme.fp, psme.fn) == (1, 0, 1)
    assert psme.precision == 1.0 and psme.recall == 0.5
    tshe = metrics.species("TSHE")
    assert (tshe.tp, tshe.fp, tshe.fn) == (0, 1, 1)
    assert tshe.precision == 0.0 and tshe.recall == 0.0


def test_metrics_half_precision_recall():
    # species S: tp 1, fp 1, fn 1 -> precision = recall = 0.5
    facts = [_fact(1, 0.0, 0.0), _fact(2, 10.0, 0.0)]
    records = [make_record("r1", 0.0, 0.0, "PSME"), make_record("r2", 50.0, 0.0, "PSME")]
    metrics = compute_metrics({1: "PSME", 2: "PSME"}, records, _match_result(facts, records))
    s = metrics.species("PSME")
    assert (s.tp, s.fp, s.fn) == (1, 1, 1)
    assert s.precision == 0.5 and s.recall == 0.5


def test_metrics_accuracy_59_of_100():
    # 100 matched pairs of which 59 agree
    facts = []
    records = []
    fact_species = {}
    for i in range(100):
        facts.append(_fact(i + 1, float(10 * i), 0.0, species_key=1))
        code = "PSME" if i < 59 else "TSHE"
        records.append(make_record(f"r{i}", float(10 * i), 0.1, code))
        fact_species[i + 1] = "PSME"
    metrics = compute_metrics(fact_species, records, _match_result(facts, records))
    assert metrics.matched_pairs == 100
    assert metrics.agreeing_pairs == 59
    assert metrics.accuracy == 0.59
    assert "OVERALL,accuracy=0.59" in metrics_csv(metrics)


def test_metrics_empty_and_none_denominators():
    metrics = compute_metrics({}, [], _match_result([], []))
    assert metrics.accuracy is None
    assert metrics.per_species == ()
    assert metrics_csv(metrics).endswith("OVERALL,accuracy=\n")
    # a species with no detections has precision None but a recall
    records = [make_record("r1", 1000.0, 1000.0, "ACMA")]
    m2 = compute_metrics({}, records, _match_result([], records))
    acma = m2.species("ACMA")
    assert acma.precision is None
    assert acma.recall == 0.0


def test_metrics_conservation_identities_random():
    rng = random.Random(11)
    codes = ("PSME", "TSHE", "THPL")
    for _ in range(50):
        facts = [_fact(i, rng.uniform(-3, 3), rng.uniform(-3, 3)) for i in range(1, rng.randrange(2, 10))]
        fact_species = {f.fact_id: rng.choice(codes) for f in facts}
        records = [
            make_record(f"r{i}", rng.uniform(-3, 3), rng.uniform(-3, 3), rng.choice(codes))
            for i in range(rng.randrange(1, 10))
        ]
        match = _match_result(facts, records, radius=2.5)
        metrics = compute_metrics(fact_species, records, match)
        assert sum(s.tp for s in metrics.per_species) == metrics.agreeing_pairs
        assert sum(s.tp + s.fp for s in metrics.per_species) == len(facts)
        assert sum(s.tp + s.fn for s in metrics.per_species) == len(records)


def test_metrics_csv_shape():
    facts = [_fact(1, 0.0, 0.0)]
    records = [make_record("r1", 0.0, 0.0, "PSME")]
    text = metrics_csv(compute_metrics({1: "PSME"}, records, _match_result(facts, records)))
    lines = text.splitlines()
    assert lines[0] == "species_code,tp,fp,fn,precision,recall"
    assert lines[1] == "PSME,1,0,0,1.0,1.0"
    assert lines[2] == "OVERALL,accuracy=1.0"


# -- warehouse integration -------------------------------------------------------


def _populated(tmp_path):
    wh = open_warehouse(tmp_path / "wh")
    wh.upsert_species("PSME")
    wh.upsert_species("TSHE")
    wh.ensure_date(20240115)
    image_key = wh.insert_image(make_image().meta)
    image = wh.state.images[image_key]
    wh.append_facts(
        [
            make_draft(image, species_key=1, geo_x=0.0, geo_y=0.0),
            make_draft(image, species_key=2, geo_x=5.0, geo_y=0.0),
            make_draft(image, species_key=1, geo_x=90.0, geo_y=0.0),
        ]
    )
    return wh


def test_validate_facts_annotations(tmp_path):
    with _populated(tmp_path) as wh:
        records = [
            make_record("r1", 0.1, 0.0, "PSME", dbh_cm=41.5, height_m=28.0),
            make_record("r2", 5.1, 0.0, "PSME"),
        ]
        wh.save_survey("s", records)
        match = match_detections(sorted(wh.state.facts.values(), key=lambda f: f.fact_id), records, 2.0)
        updated = validate_facts(wh, match, records)
        assert updated == 3
        f1, f2, f3 = (wh.state.facts[i] for i in (1, 2, 3))
        assert (f1.validation, f1.matched_record_id) == ("confirmed", "r1")
        # confirmed facts inherit ground measurements they lacked
        assert (f1.dbh_cm, f1.height_m) == (41.5, 28.0)
        assert (f2.validation, f2.matched_record_id) == ("species_mismatch", "r2")
        assert f2.dbh_cm is None
        assert (f3.validation, f3.matched_record_id) == ("unmatched", None)


def test_reconcile_warehouse_end_to_end(tmp_path):
    with _populated(tmp_path) as wh:
        wh.save_survey(
            "s",
            [
                make_record("r1", 0.1, 0.0, "PSME"),
                make_record("r2", 5.1, 0.0, "PSME"),
                make_record("r3", 400.0, 0.0, "TSHE"),
            ],
        )
        outcome = reconcile_warehouse(wh, radius_m=2.0)
        assert outcome.metrics.matched_pairs == 2
        assert outcome.metrics.accuracy == 0.5
        assert outcome.facts_updated == 3
        states = sorted(f.validation for f in wh.state.facts.values())
        assert states == ["confirmed", "species_mismatch", "unmatched"]
    # annotations survive reopen
    with open_warehouse(tmp_path / "wh", "ro") as wh:
        states = sorted(f.validation for f in wh.state.facts.values())
        assert states == ["confirmed", "species_mismatch", "unmatched"]


def test_reconcile_inherited_measures_round_trip(tmp_path):
    with _populated(tmp_path) as wh:
        wh.save_survey("s", [make_record("r1", 0.1, 0.0, "PSME", dbh_cm=33.0)])
        reconcile_warehouse(wh, 2.0)
    with open_warehouse(tmp_path / "wh", "ro") as wh:
        assert wh.state.facts[1].dbh_cm == 33.0
        assert wh.state.facts[1].height_m is None


# -- a reconcile that changes no annotation writes nothing -------------------------

STORED_FILES = (*(t.file for t in TABLES), "COMMIT")


def _file_keys(root):
    keys = {}
    for name in STORED_FILES:
        st = os.stat(root / name)
        keys[name] = (st.st_ino, st.st_size, st.st_mtime_ns)
    return keys


def _spy_writes(monkeypatch):
    """Records each _atomic_write and os.replace call made from here on."""
    calls = []
    real_write, real_replace = storage._atomic_write, os.replace

    def atomic_write(path, text):
        calls.append(("_atomic_write", path.name))
        return real_write(path, text)

    def replace(src, dst):
        calls.append(("os.replace", os.path.basename(dst)))
        real_replace(src, dst)

    monkeypatch.setattr(storage, "_atomic_write", atomic_write)
    monkeypatch.setattr(os, "replace", replace)
    return calls


def _reconciled(tmp_path):
    """A root of three facts reconciled once against one survey."""
    with _populated(tmp_path) as wh:
        wh.save_survey("s", [make_record("r1", 0.1, 0.0, "PSME", dbh_cm=41.5), make_record("r2", 5.1, 0.0, "PSME")])
        return reconcile_warehouse(wh, 2.0)


def test_repeated_reconcile_writes_nothing(tmp_path, monkeypatch):
    root = tmp_path / "wh"
    first = _reconciled(tmp_path)
    keys = _file_keys(root)
    calls = _spy_writes(monkeypatch)
    with open_warehouse(root) as wh:
        second = reconcile_warehouse(wh, 2.0)
    # still every fact annotated, not the changed ones
    assert second.facts_updated == first.facts_updated == 3
    assert second.metrics == first.metrics
    assert calls == []
    assert _file_keys(root) == keys


def test_reconcile_after_a_new_survey_rewrites_the_fact_file(tmp_path, monkeypatch):
    root = tmp_path / "wh"
    _reconciled(tmp_path)
    with open_warehouse(root) as wh:
        # fact 3 (at x=90) was unmatched; only its annotation changes
        wh.save_survey("s2", [make_record("r3", 90.2, 0.0, "PSME")])
        before = {fid: wh.state.facts[fid] for fid in (1, 2)}
        keys = _file_keys(root)
        calls = _spy_writes(monkeypatch)
        outcome = reconcile_warehouse(wh, 2.0)
    assert outcome.facts_updated == 3
    assert calls == [("_atomic_write", FACTS.file), ("os.replace", FACTS.file)]
    after = _file_keys(root)
    assert after.pop(FACTS.file)[0] != keys.pop(FACTS.file)[0]  # a new inode
    assert after == keys
    with open_warehouse(root, "ro") as wh:
        assert {fid: wh.state.facts[fid] for fid in (1, 2)} == before
        fact = wh.state.facts[3]
        assert (fact.validation, fact.matched_record_id) == ("confirmed", "r3")
