"""Incremental reconcile: the checkpoint records what a reconcile matched,
and the next one matches again only what that match did not cover.

Every reconcile here is compared with a reconcile from scratch: the same
root copied, its checkpoint deleted, reconciled at the same radius. Their
MatchResults (distances by their bits), metrics, facts_updated and every
stored byte must be equal.
"""

import dataclasses
import logging
import shutil
import tempfile
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

from canopydw import storage
from canopydw.cli import run_cli
from canopydw.errors import IntegrityError
from canopydw.model import UNMATCHED
from canopydw.reconcile import reconcile_warehouse
from canopydw.storage import CHECKPOINT, FACTS, MatchRecord, open_warehouse

from helpers import annotation, make_draft, make_image, make_record


def _stored(root):
    """Every stored file's bytes but the lock's, by path under root."""
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file() and path.name != "LOCK"
    }


def _outcome(outcome):
    """What a reconcile gives, with each distance as its bits."""
    match = outcome.match
    return (
        [(p.fact_id, p.record_id, p.distance_m.hex()) for p in match.pairs],
        match.unmatched_fact_ids,
        match.unmatched_record_ids,
        outcome.metrics,
        outcome.facts_updated,
    )


@contextmanager
def _logged():
    """The messages logged on canopydw.reconcile within the block, INFO included."""
    lines = []
    handler = logging.Handler(logging.INFO)
    handler.emit = lambda record: lines.append(record.getMessage())
    logger = logging.getLogger("canopydw.reconcile")
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        yield lines
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def _reconcile_as_from_scratch(root, radius, scratch):
    """Reconcile root at radius, and a copy of it (at scratch) with its
    checkpoint deleted; assert that both give the same and store the same
    bytes. Returns the log lines of root's reconcile."""
    shutil.rmtree(scratch, ignore_errors=True)
    shutil.copytree(root, scratch)
    (scratch / CHECKPOINT).unlink(missing_ok=True)
    with _logged() as lines, open_warehouse(root) as wh:
        got = reconcile_warehouse(wh, radius)
    with open_warehouse(scratch) as wh:
        want = reconcile_warehouse(wh, radius)
    assert _outcome(got) == _outcome(want)
    assert _stored(root) == _stored(scratch)
    return lines


def _path(lines):
    """The path and reason of the one reconcile logged."""
    (line,) = lines
    words = dict(word.split("=", 1) for word in line.split())
    return words["path"], words.get("reason")


@pytest.fixture
def root(tmp_path):
    """Two species, an image, five facts in a row 3 m apart, and a survey of
    two records near the first two facts: reconciled once at 2 m."""
    root = tmp_path / "wh"
    with open_warehouse(root) as wh:
        wh.upsert_species("PSME")
        wh.upsert_species("TSHE")
        wh.ensure_date(20240115)
        image = wh.state.images[wh.insert_image(make_image().meta)]
        wh.append_facts([make_draft(image, species_key=1 + i % 2, geo_x=3.0 * i, geo_y=0.0) for i in range(5)])
        wh.save_survey("s1", [make_record("r1", 0.5, 0.0, "PSME"), make_record("r2", 3.2, 0.4, "PSME")])
        reconcile_warehouse(wh, 2.0)
    return root


def _checkpoint_line_2(root):
    return (root / CHECKPOINT).read_bytes().split(b"\n", 2)[1].decode().split(" ")


def test_a_reconcile_records_its_match_in_the_checkpoint(root):
    n, _, _, radius, survey, digest = _checkpoint_line_2(root)
    assert (n, radius, survey, len(digest)) == ("5", (2.0).hex(), "s1", 128)
    with open_warehouse(root, "ro") as wh:
        wh.state.facts
        assert wh.match_record == MatchRecord((2.0).hex(), 5, (("s1", digest),))


def test_an_unchanged_reconcile_keeps_the_last_match(root, tmp_path):
    lines = _reconcile_as_from_scratch(root, 2.0, tmp_path / "scratch")
    assert lines == ["path=incremental new_facts=0 new_records=0 affected_facts=0 affected_records=0"]


def _add_facts(root, *xs):
    with open_warehouse(root) as wh:
        image = wh.state.images[1]
        wh.append_facts([make_draft(image, geo_x=x, geo_y=0.0) for x in xs])


def test_new_facts_are_matched_with_the_components_they_touch(root, tmp_path):
    # fact 6 lies closer to r2 than fact 2 does: it takes r2, and fact 2 is
    # left unmatched; fact 7 lies far from everything
    _add_facts(root, 3.1, 500.0)
    lines = _reconcile_as_from_scratch(root, 2.0, tmp_path / "scratch")
    assert lines == ["path=incremental new_facts=2 new_records=0 affected_facts=3 affected_records=1"]
    with open_warehouse(root, "ro") as wh:
        facts = wh.state.facts
        assert facts.matched_record_id == ["r1", None, None, None, None, "r2", None]


def test_a_new_survey_is_matched_with_the_components_it_touches(root, tmp_path):
    # r4 lies closer to fact 2 than r2 does: it takes fact 2, and r2 is left
    # unmatched; r3 takes fact 4
    with open_warehouse(root) as wh:
        wh.save_survey("s2", [make_record("r3", 9.1, 0.2, "TSHE"), make_record("r4", 2.9, -0.1, "TSHE")])
    lines = _reconcile_as_from_scratch(root, 2.0, tmp_path / "scratch")
    assert lines == ["path=incremental new_facts=0 new_records=2 affected_facts=2 affected_records=3"]


def test_a_component_that_reaches_far_past_the_new_points_is_matched_whole(root, tmp_path):
    """Facts and records alternating along 46.5 m (1.4 m and 1.6 m apart)
    form one component, whose slabs grow past the first: a new fact at its
    end takes the last record from the fact it was matched to."""
    _add_facts(root, *(100.0 + 3.0 * k for k in range(16)))
    with open_warehouse(root) as wh:
        wh.save_survey("s2", [make_record(f"c{k:02d}", 101.4 + 3.0 * k, 0.0) for k in range(16)])
    _reconcile_as_from_scratch(root, 2.0, tmp_path / "scratch")
    _add_facts(root, 147.0)
    lines = _reconcile_as_from_scratch(root, 2.0, tmp_path / "scratch")
    assert lines == ["path=incremental new_facts=1 new_records=0 affected_facts=17 affected_records=16"]
    with open_warehouse(root, "ro") as wh:
        assert wh.state.facts.matched_record_id[5:] == [f"c{k:02d}" for k in range(15)] + [None, "c15"]


def test_a_neighbour_of_a_neighbour_past_the_radius_joins_the_component(root, tmp_path):
    """The new fact (at 1000) and the record (at 1000.8) are neighbours; the
    old fact at 1002.7 is the record's neighbour but lies 2.7 m from the new
    fact. It loses the record, which the new fact is nearer to."""
    _add_facts(root, 1002.7)
    with open_warehouse(root) as wh:
        wh.save_survey("s2", [make_record("far", 1000.8, 0.0)])
    _reconcile_as_from_scratch(root, 2.0, tmp_path / "scratch")
    _add_facts(root, 1000.0)
    lines = _reconcile_as_from_scratch(root, 2.0, tmp_path / "scratch")
    assert lines == ["path=incremental new_facts=1 new_records=0 affected_facts=2 affected_records=1"]
    with open_warehouse(root, "ro") as wh:
        assert wh.state.facts.matched_record_id[5:] == [None, "far"]


# -- each thing that invalidates the record leads to a full match -------------------


def _rewrite_one_annotation(root):
    """A library annotation that changes cells: fact 1, matched to r1, becomes unmatched."""
    with open_warehouse(root) as wh:
        wh.rewrite_validation(*annotation(wh.state.facts, {1: ("unmatched", None, None, None)}))
    assert len(_checkpoint_line_2(root)) == 3  # its checkpoint holds no record


def _move_a_record(root):
    """A survey file edited by hand: r2 moves next to fact 3, keeping its id."""
    path = root / "surveys" / "s1.tbl"
    path.write_bytes(path.read_bytes().replace(b"r2,3.2,0.4,", b"r2,6.2,0.4,"))


def _drop_the_record(root):
    """A checkpoint as written before it held a record: line 2 has no record."""
    with open_warehouse(root) as wh:
        text = (root / FACTS.file).read_bytes()
        (root / CHECKPOINT).write_bytes(storage._checkpoint(wh.state.facts, text, None))
    with open_warehouse(root) as wh:
        wh.state.facts
        assert wh.match_record is None


INVALIDATIONS = {
    "library-annotation": (_rewrite_one_annotation, 2.0, "no-record"),
    "moved-record": (_move_a_record, 2.0, "survey-changed:s1"),
    "changed-radius": (lambda root: None, 3.5, "radius-changed"),
    "deleted-checkpoint": (lambda root: (root / CHECKPOINT).unlink(), 2.0, "no-record"),
    "older-checkpoint": (_drop_the_record, 2.0, "no-record"),
    "deleted-survey": (lambda root: (root / "surveys" / "s1.tbl").unlink(), 2.0, "survey-missing:s1"),
}


@pytest.mark.parametrize("case", list(INVALIDATIONS))
def test_a_reconcile_whose_record_does_not_hold_matches_everything(root, tmp_path, case):
    invalidate, radius, reason = INVALIDATIONS[case]
    invalidate(root)
    lines = _reconcile_as_from_scratch(root, radius, tmp_path / "scratch")
    assert _path(lines) == ("full", reason)
    # the checkpoint now records this match, and the next reconcile keeps it
    lines = _reconcile_as_from_scratch(root, radius, tmp_path / "scratch")
    assert _path(lines) == ("incremental", None)


def test_a_stored_pair_naming_no_held_record_falls_back(root, tmp_path):
    """A checkpoint (edited under a valid digest) whose pair names a record
    that no survey holds: the full match is made."""
    with open_warehouse(root) as wh:
        facts = wh.state.facts
        facts.matched_record_id[0] = "gone"
        text = (root / FACTS.file).read_bytes()
        (root / CHECKPOINT).write_bytes(storage._checkpoint(facts, text, wh.match_record))
    with _logged() as lines, open_warehouse(root) as wh:
        reconcile_warehouse(wh, 2.0)
    assert _path(lines) == ("full", "stored-record-missing:gone")


def test_a_no_op_reconcile_writes_a_checkpoint_whose_record_differs(root, monkeypatch):
    """A radius that changes no pair changes no annotation: only the
    checkpoint is written again, with the new radius."""
    written = []
    real_write = storage._atomic_write
    monkeypatch.setattr(storage, "_atomic_write", lambda path, data: written.append(path.name) or real_write(path, data))
    with open_warehouse(root) as wh:
        reconcile_warehouse(wh, 1.5)
        assert written == [CHECKPOINT]
        assert wh.match_record.radius == (1.5).hex()
        reconcile_warehouse(wh, 1.5)  # the same handle now holds the record it wrote
    assert written == [CHECKPOINT]
    assert _checkpoint_line_2(root)[3] == (1.5).hex()


def test_a_library_annotation_that_changes_nothing_keeps_the_record(root):
    record = _checkpoint_line_2(root)
    with open_warehouse(root) as wh:
        facts = wh.state.facts
        wh.rewrite_validation(facts.validation[:], facts.matched_record_id[:], facts.height_m[:], facts.dbh_cm[:])
    assert _checkpoint_line_2(root) == record


def test_the_path_is_logged_at_info_and_the_cli_prints_as_before(root, caplog, capsys):
    caplog.set_level(logging.INFO, logger="canopydw.reconcile")
    assert run_cli(["reconcile", "--root", str(root), "--radius", "2.0", "--format", "csv"]) == 0
    records = [r for r in caplog.records if r.name == "canopydw.reconcile"]
    assert [(r.levelno, r.getMessage()) for r in records] == [
        (logging.INFO, "path=incremental new_facts=0 new_records=0 affected_facts=0 affected_records=0")
    ]
    assert capsys.readouterr().err == "pairs=2 facts_updated=5\n"
    caplog.clear()
    (root / CHECKPOINT).unlink()
    assert run_cli(["reconcile", "--root", str(root), "--radius", "2.0", "--format", "csv"]) == 0
    assert [r.getMessage() for r in caplog.records if r.name == "canopydw.reconcile"] == [
        "path=full reason=no-record new_facts=5 new_records=2 affected_facts=5 affected_records=2"
    ]
    assert capsys.readouterr().err == "pairs=2 facts_updated=5\n"


# -- keys that are not ints -----------------------------------------------------------


@pytest.mark.parametrize("key", [1.0, "1", True], ids=["float", "str", "bool"])
@pytest.mark.parametrize("column", ["date_key", "image_key", "species_key"])
def test_append_facts_refuses_a_key_that_is_not_an_int(root, column, key):
    stored = _stored(root)
    with open_warehouse(root) as wh:
        image = wh.state.images[1]
        draft = make_draft(image)
        fact = dataclasses.replace(draft, **{column: type(key)(getattr(draft, column))})
        with pytest.raises(IntegrityError, match=f"fact 1: {column} must be an int, not {type(key).__name__}"):
            wh.append_facts([draft, fact])
    assert _stored(root) == stored
    with open_warehouse(root, "ro") as wh:
        assert len(wh.state.facts) == 5


# -- a state machine against reconciles from scratch -----------------------------------


class IncrementalReconcile(RuleBasedStateMachine):
    """Ingest batches near and far from the records, new surveys, a changed
    radius, a deleted checkpoint, a library annotation and reconciles, in
    any order; each reconcile equals one from scratch."""

    @initialize()
    def build(self):
        self.tmp = Path(tempfile.mkdtemp())
        self.root = self.tmp / "wh"
        self.radius = 2.0
        self.images = self.surveys = self.records = 0
        self.points: list[tuple[float, float]] = []  # the records', to place facts near
        with open_warehouse(self.root) as wh:
            wh.upsert_species("PSME")
            wh.upsert_species("TSHE")
            wh.ensure_date(20240115)

    def teardown(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    @rule(
        offsets=st.lists(st.tuples(st.floats(-2.5, 2.5), st.floats(-2.5, 2.5), st.integers(1, 2)), min_size=1, max_size=4),
        near=st.booleans(),
        at=st.integers(0, 10**6),
    )
    def ingest(self, offsets, near, at):
        """A batch of one image's facts, around a record or far from all."""
        x, y = self.points[at % len(self.points)] if near and self.points else (40.0 + 7.0 * self.images, 30.0)
        self.images += 1
        with open_warehouse(self.root) as wh:
            image = wh.state.images[wh.insert_image(make_image(file_name=f"img{self.images}.jpg").meta)]
            wh.append_facts([make_draft(image, species_key=k, geo_x=x + dx, geo_y=y + dy) for dx, dy, k in offsets])

    @rule(
        places=st.lists(st.tuples(st.floats(-1.0, 40.0), st.floats(-1.0, 31.0), st.sampled_from(["PSME", "TSHE"])), max_size=4)
    )
    def survey(self, places):
        self.surveys += 1
        records = []
        for x, y, code in places:
            self.records += 1
            records.append(make_record(f"r{self.records}", x, y, code))
            self.points.append((x, y))
        with open_warehouse(self.root) as wh:
            wh.save_survey(f"s{self.surveys:02d}", records)

    @rule(radius=st.sampled_from([0.5, 1.0, 2.0, 3.0]))
    def change_radius(self, radius):
        self.radius = radius

    @rule()
    def delete_checkpoint(self):
        (self.root / CHECKPOINT).unlink(missing_ok=True)

    @rule()
    def library_annotation(self):
        """Every fact marked unmatched, as a caller other than reconcile may."""
        with open_warehouse(self.root) as wh:
            facts = wh.state.facts
            validation = facts.validation[:]
            for i in range(len(validation)):
                validation[i] = UNMATCHED
            wh.rewrite_validation(validation, [None] * len(facts), facts.height_m[:], facts.dbh_cm[:])

    @rule()
    def reconcile(self):
        _reconcile_as_from_scratch(self.root, self.radius, self.tmp / "scratch")


IncrementalReconcile.TestCase.settings = settings(max_examples=50, stateful_step_count=12, deadline=None)
test_incremental_reconcile_equals_a_reconcile_from_scratch = IncrementalReconcile.TestCase
