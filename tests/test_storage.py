import contextlib
import csv
import dataclasses
import hashlib
import logging
import math
import multiprocessing
import os
import random
import re
import shutil
import sys
import threading
import tracemalloc
import typing
import weakref
from array import array
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from canopydw import model, storage
from canopydw.errors import (
    CorruptTableError,
    DuplicateRecordError,
    EmptyCodeError,
    IntegrityError,
    InvalidMetadataError,
    LockHeldError,
    NotInitializedError,
    ReadOnlyError,
    SurveyImmutableError,
    UnknownFactError,
    WarehouseError,
)
from canopydw.ingest import (
    REGISTRY_HEADER,
    SURVEY_HEADER,
    ClassMap,
    detection_file_name,
    ingest_image_batch,
    ingest_species_registry,
    ingest_survey,
)
from canopydw.model import (
    VALIDATION_STATES,
    BoundingBox,
    DimImage,
    FactColumns,
    FactRow,
    Geotransform,
    SurveyRecord,
    encode_date_key,
)
from canopydw.report import csv_line
from canopydw.query import MEASURES, QuerySpec, run_query
from canopydw.reconcile import reconcile_warehouse
from canopydw.storage import (
    CHECKPOINT,
    DATES,
    DIMENSIONS,
    FACTS,
    IMAGES,
    SPECIES,
    SURVEYS,
    TABLES,
    Warehouse,
    SnapshotCache,
    open_warehouse,
    stats_rows,
)

from helpers import (
    annotation,
    checksum_for,
    counted_fact_parses,
    fact_rows,
    logical_state,
    make_draft,
    make_geotransform,
    make_image,
    make_record,
    populate_random,
)

FACT_TABLE, FACT_HEADER = FACTS.file, FACTS.header


@pytest.fixture
def root(tmp_path):
    return tmp_path / "wh"


def test_init_creates_layout(root):
    with open_warehouse(root) as wh:
        assert wh.mode == "rw"
    for name in ("dim_date.tbl", "dim_image.tbl", "dim_species.tbl", "fact_tree_metrics.tbl", "COMMIT"):
        assert (root / name).exists()
    assert (root / "COMMIT").read_text() == "0\n"
    open_warehouse(root, lock_timeout=0.05).close()  # the lock is free


def test_open_ro_requires_existing_warehouse(root):
    with pytest.raises(NotInitializedError):
        open_warehouse(root, "ro")


def test_open_rejects_bad_mode(root):
    with pytest.raises(ValueError):
        open_warehouse(root, "rx")


# -- species ------------------------------------------------------------------


def test_upsert_species_assigns_dense_keys(root):
    with open_warehouse(root) as wh:
        assert wh.upsert_species("psme", "Pseudotsuga menziesii", "Douglas-fir") == 1
        assert wh.upsert_species("TSHE") == 2
        # same code (case-insensitive) returns the existing key, keeps names
        assert wh.upsert_species("PSME", "Other name") == 1
        assert wh.state.species[1].scientific_name == "Pseudotsuga menziesii"
        assert wh.state.species[1].code == "PSME"
    with open_warehouse(root, "ro") as wh:
        assert wh.state.species_by_code == {"PSME": 1, "TSHE": 2}


def test_upsert_species_rejects_empty_code(root):
    with open_warehouse(root) as wh:
        with pytest.raises(EmptyCodeError):
            wh.upsert_species("   ")


def test_upsert_species_rejects_bad_status(root):
    with open_warehouse(root) as wh:
        with pytest.raises(InvalidMetadataError):
            wh.upsert_species("PSME", conservation_status="extinct_in_my_backyard")


# -- dates and images -----------------------------------------------------------


def test_ensure_date_idempotent(root):
    with open_warehouse(root) as wh:
        wh.ensure_date(20240115)
        wh.ensure_date(20240115)
        assert list(wh.state.dates) == [20240115]
        row = wh.state.dates[20240115]
        assert (row.year, row.quarter, row.month, row.day, row.day_of_year) == (2024, 1, 1, 15, 15)


def test_insert_image_requires_materialized_date(root):
    with open_warehouse(root) as wh:
        with pytest.raises(InvalidMetadataError):
            wh.insert_image(make_image().meta)


def test_insert_image_validates_metadata(root):
    with open_warehouse(root) as wh:
        wh.ensure_date(20240115)
        with pytest.raises(InvalidMetadataError):
            wh.insert_image(make_image(platform="blimp").meta)


def test_insert_image_dedups_on_identity(root):
    with open_warehouse(root) as wh:
        wh.ensure_date(20240115)
        k1 = wh.insert_image(make_image().meta)
        k2 = wh.insert_image(make_image().meta)
        assert k1 == k2 == 1
        # same name, different checksum is a new image
        k3 = wh.insert_image(make_image(checksum=checksum_for("elsewhere")).meta)
        assert k3 == 2


# -- facts ---------------------------------------------------------------------


def _base(root) -> Warehouse:
    wh = open_warehouse(root)
    wh.upsert_species("PSME")
    wh.ensure_date(20240115)
    wh.insert_image(make_image().meta)
    return wh


def test_append_facts_assigns_consecutive_ids(root):
    with _base(root) as wh:
        image = wh.state.images[1]
        ids = wh.append_facts([make_draft(image), make_draft(image)])
        assert ids == [1, 2]
        ids = wh.append_facts([make_draft(image)])
        assert ids == [3]
        assert (root / "COMMIT").read_text() == "3\n"


def test_append_facts_all_or_nothing(root):
    with _base(root) as wh:
        image = wh.state.images[1]
        before = (root / FACT_TABLE).read_bytes()
        bad = make_draft(image, species_key=99)  # unresolved FK
        with pytest.raises(IntegrityError) as err:
            wh.append_facts([make_draft(image), bad])
        assert "species_key unresolved" in str(err.value)
        assert fact_rows(wh.state.facts) == {}
        assert (root / FACT_TABLE).read_bytes() == before
        # the failed batch burned no ids
        assert wh.append_facts([make_draft(image)]) == [1]


def test_append_facts_rejects_date_mismatch(root):
    with _base(root) as wh:
        wh.ensure_date(20240116)
        image = wh.state.images[1]
        with pytest.raises(IntegrityError) as err:
            wh.append_facts([make_draft(image, date_key=20240116)])
        assert "date mismatch" in str(err.value)


# Edits of a fact draft's cells, for a root holding species 1, images 1 and
# 2**40 dated 20240115, image 2 dated 20240116 and no image 3
_DRAFT_EDITS = {
    "image-unknown": {"image_key": 3},
    "image-past-key-range": {"image_key": 2**40},
    "date-mismatch": {"date_key": 20240116},
    "date-unknown": {"date_key": 20240117},
    "species-unknown": {"species_key": 2},
    "species-past-key-range": {"species_key": -(2**40)},
    "cx-nan": {"bbox": BoundingBox(math.nan, 0.5, 0.2, 0.2)},
    "cx-1": {"bbox": BoundingBox(1.0, 0.5, 0.2, 0.2)},
    "cx-negative-zero": {"bbox": BoundingBox(-0.0, 0.5, 0.01, 0.2)},
    "w-negative-zero": {"bbox": BoundingBox(0.5, 0.5, -0.0, 0.2)},
    "h-inf": {"bbox": BoundingBox(0.5, 0.5, 0.2, math.inf)},
    "confidence-nan": {"confidence": math.nan},
    "confidence-1.5": {"confidence": 1.5},
    "geo-inf": {"geo_x": math.inf},
    "height": {"height_m": 2.0},
    "height-negative": {"height_m": -1.0},
    "record-empty": {"matched_record_id": ""},
    "unvalidated-with-record": {"matched_record_id": "R1"},
    "confirmed": {"validation": "confirmed", "matched_record_id": "R1"},
    "unmatched-with-record": {"validation": "unmatched", "matched_record_id": "R1"},
    "record-line-break": {"validation": "confirmed", "matched_record_id": "R\n1"},
}


def _draft_root(root: Path) -> None:
    _image_root(root, [_image_line(1, "a.jpg"), _image_line(2, "b.jpg", 20240116), _image_line(2**40, "c.jpg")])
    with open_warehouse(root) as wh:
        wh.upsert_species("PSME")


@given(
    images=st.lists(st.sampled_from([1, 2]), max_size=4),
    edits=st.lists(st.tuples(st.integers(0, 3), st.sampled_from(sorted(_DRAFT_EDITS))), max_size=2),
)
@example(images=[1, 2], edits=[(0, "image-past-key-range")])
@example(images=[1, 2], edits=[(0, "unvalidated-with-record")])
@example(images=[2, 1], edits=[(1, "date-mismatch")])
def test_append_facts_checks_a_column_at_a_time_as_row_by_row(tmp_path_factory, images, edits):
    """The same ids and stored bytes, or the same refusal, whether the column
    passes (model.facts_hold) or the row checks decide."""
    drafts = [make_draft(make_image(image_key=key, capture_date_key=20240114 + key)) for key in images]
    for i, edit in edits:
        if i < len(drafts):
            drafts[i] = dataclasses.replace(drafts[i], **_DRAFT_EDITS[edit])
    root, outcomes = tmp_path_factory.mktemp("drafts") / "wh", []
    for columns in (True, False):
        _draft_root(root)
        with pytest.MonkeyPatch.context() as m:
            if not columns:
                m.setattr(model, "facts_hold", lambda columns, state: False)
            with open_warehouse(root) as wh:
                try:
                    outcome = wh.append_facts(drafts)
                except IntegrityError as exc:
                    outcome = str(exc)
        outcomes.append((outcome, (root / FACT_TABLE).read_bytes()))
        shutil.rmtree(root)
    assert outcomes[0] == outcomes[1]


def test_empty_batch_is_noop(root):
    with _base(root) as wh:
        assert wh.append_facts([]) == []
        assert (root / "COMMIT").read_text() == "0\n"


# -- cells a load reads back as given ----------------------------------------------


def _opens(root) -> None:
    """A read-only and a read-write open of root both succeed."""
    open_warehouse(root, "ro").close()
    open_warehouse(root).close()


@pytest.mark.parametrize(
    "cells, refusal",
    [
        # stored as True, which the next open refuses past COMMIT
        ({"confidence": True}, "confidence must be a float, not bool True"),
        # stored as 1,1,-1 and rewritten as 1.0,1.0,-1.0 by any later annotation
        ({"geo_x": 1, "geo_y": -1, "confidence": 1}, "confidence must be a float, not int 1"),
        ({"bbox": BoundingBox(0.5, 0.5, 0.2, 1)}, "bbox_h must be a float, not int 1"),
        ({"height_m": 2}, "height_m must be a float or None, not int 2"),
        ({"validation": None}, "validation must be a str, not NoneType None"),
        ({"validation": "confirmed", "matched_record_id": 7}, "matched_record_id must be a str or None, not int 7"),
    ],
    ids=["confidence-bool", "ints-in-float-cells", "bbox-int", "height-int", "validation-none", "record-int"],
)
def test_append_facts_refuses_a_cell_no_load_reads_back_as_given(root, cells, refusal):
    with _base(root) as wh:
        image = wh.state.images[1]
        wh.append_facts([make_draft(image)])
        stored = _stored_files(root)
        with pytest.raises(IntegrityError) as err:
            wh.append_facts([make_draft(image), make_draft(image, **cells)])
        assert str(err.value) == f"fact 1: {refusal}"
        assert len(wh.state.facts) == 1
    assert _stored_files(root) == stored
    _opens(root)


@pytest.mark.parametrize(
    "cells, refusal",
    [
        ({"width_px": True}, "width_px must be an int, not bool True"),
        ({"gsd_cm_per_px": True}, "gsd_cm_per_px must be a float, not bool True"),
        ({"size_bytes": False}, "size_bytes must be an int, not bool False"),
        ({"gsd_cm_per_px": 10}, "gsd_cm_per_px must be a float, not int 10"),
        ({"geotransform": make_geotransform(e=-1)}, "gt_e must be a float, not int -1"),
    ],
    ids=["width-bool", "gsd-bool", "size-bool", "gsd-int", "geotransform-int"],
)
def test_insert_image_refuses_a_cell_no_load_reads_back_as_given(root, cells, refusal):
    with open_warehouse(root) as wh:
        wh.ensure_date(20240115)
        stored = _stored_files(root)
        with pytest.raises(InvalidMetadataError) as err:
            wh.insert_image(make_image(**cells).meta)
        assert str(err.value) == refusal
        assert wh.state.images == {}
    assert _stored_files(root) == stored
    _opens(root)


@pytest.mark.parametrize(
    "record, refusal",
    [
        (SurveyRecord("R1", True, 2.0, "PSME", None, None, 20240110), "geo_x must be a float, not bool True"),
        (make_record("R1", 1.0, 2, dbh_cm=30.5), "geo_y must be a float, not int 2"),
        (make_record("R1", 1.0, 2.0, height_m=25), "height_m must be a float or None, not int 25"),
        (make_record("R1", 1.0, 2.0, surveyed_date_key=True), "surveyed_date_key must be an int, not bool True"),
        (make_record(None, 1.0, 2.0), "record_id must be a str, not NoneType None"),
    ],
    ids=["geo-bool", "geo-int", "height-int", "date-bool", "record-none"],
)
def test_save_survey_refuses_a_cell_no_load_reads_back_as_given(root, record, refusal):
    with open_warehouse(root) as wh:
        with pytest.raises(InvalidMetadataError) as err:
            wh.save_survey("s1", [make_record("R0", 0.0, 0.0), record])
        assert str(err.value) == f"survey record 1: {refusal}"
        assert wh.list_survey_ids() == []
        assert len(wh.load_all_survey_records()) == 0


# -- validation rewrites -----------------------------------------------------------


def test_rewrite_validation(root):
    with _base(root) as wh:
        image = wh.state.images[1]
        wh.append_facts([make_draft(image), make_draft(image)])
        wh.rewrite_validation(*annotation(wh.state.facts, {1: ("confirmed", "R1", 12.0, None)}))
        fact = fact_rows(wh.state.facts)[1]
        assert (fact.validation, fact.matched_record_id, fact.height_m) == ("confirmed", "R1", 12.0)
        assert fact_rows(wh.state.facts)[2].validation == "unvalidated"
    with open_warehouse(root, "ro") as wh:
        assert fact_rows(wh.state.facts)[1].validation == "confirmed"
        assert fact_rows(wh.state.facts)[1].height_m == 12.0


@contextlib.contextmanager
def _replaced_files(monkeypatch):
    """Collects the names of the files os.replace replaces inside the block."""
    replaced = []
    real_replace = os.replace

    def spy(src, dst):
        replaced.append(os.path.basename(dst))
        real_replace(src, dst)

    with monkeypatch.context() as m:
        m.setattr(os, "replace", spy)
        yield replaced


def _failing_atomic_write(path, text):
    raise OSError(28, "injected write failure")


def test_rewrite_validation_replaces_only_the_fact_file(root, monkeypatch):
    with _base(root) as wh:
        image = wh.state.images[1]
        wh.append_facts([make_draft(image), make_draft(image)])
        with _replaced_files(monkeypatch) as replaced:
            wh.rewrite_validation(*annotation(wh.state.facts, {2: ("unmatched", None, None, None)}))
    assert replaced == [FACT_TABLE, CHECKPOINT]
    assert (root / "COMMIT").read_text() == "2\n"
    with open_warehouse(root, "ro") as wh:
        assert fact_rows(wh.state.facts)[2].validation == "unmatched"


@pytest.mark.parametrize("code", [4, -1])
def test_rewrite_validation_refuses_a_bad_validation_code_before_writing(root, monkeypatch, code):
    with _base(root) as wh:
        wh.append_facts([make_draft(wh.state.images[1])])
        stored = (root / FACT_TABLE).read_bytes()
        validation, records, height_m, dbh_cm = annotation(wh.state.facts, {})
        validation[0] = code
        with _replaced_files(monkeypatch) as replaced:
            with pytest.raises(UnknownFactError, match=f"^fact 1: bad validation code {code}$"):
                wh.rewrite_validation(validation, records, height_m, dbh_cm)
        assert replaced == []
        assert fact_rows(wh.state.facts)[1].validation == "unvalidated"
    assert (root / FACT_TABLE).read_bytes() == stored


def test_rewrite_validation_refuses_a_column_of_the_wrong_length_before_writing(root, monkeypatch):
    with _base(root) as wh:
        wh.append_facts([make_draft(wh.state.images[1])] * 2)
        held = fact_rows(wh.state.facts)
        stored = (root / FACT_TABLE).read_bytes()
        for k in range(4):  # each column, one entry short and one too many
            for wrong in (lambda column: column[:1], lambda column: column + column[:1]):
                columns = list(annotation(wh.state.facts, {1: ("unmatched", None, None, None)}))
                columns[k] = wrong(columns[k])
                with _replaced_files(monkeypatch) as replaced:
                    with pytest.raises(ValueError, match="^an annotation column does not hold 2 entries$"):
                        wh.rewrite_validation(*columns)
                assert replaced == []
                assert fact_rows(wh.state.facts) == held
    assert (root / FACT_TABLE).read_bytes() == stored


@pytest.mark.parametrize(
    "k, wrong, refusal",
    [
        (0, lambda column: array("i", column), "validation must be array('b'), not array('i')"),
        (1, tuple, "matched_record_id must be list, not tuple"),
        (2, lambda column: array("f", column), "height_m must be array('d'), not array('f')"),
        (3, list, "dbh_cm must be array('d'), not list"),
    ],
    ids=["int-codes", "tuple-ids", "float32-heights", "list-dbhs"],
)
def test_rewrite_validation_refuses_a_column_of_the_wrong_type_before_writing(
    root, monkeypatch, k, wrong, refusal
):
    with _base(root) as wh:
        wh.append_facts([make_draft(wh.state.images[1])] * 2)
        held = fact_rows(wh.state.facts)
        stored = (root / FACT_TABLE).read_bytes()
        columns = list(annotation(wh.state.facts, {1: ("confirmed", "r-a-longer-id", 12.5, 3.0)}))
        columns[k] = wrong(columns[k])
        with _replaced_files(monkeypatch) as replaced:
            with pytest.raises(ValueError, match=f"^{re.escape('annotation column ' + refusal)}$"):
                wh.rewrite_validation(*columns)
        assert replaced == []
        assert fact_rows(wh.state.facts) == held
    assert (root / FACT_TABLE).read_bytes() == stored


def test_failed_rewrite_validation_leaves_facts_and_file(root, monkeypatch):
    with _base(root) as wh:
        wh.append_facts([make_draft(wh.state.images[1])] * 2)
        facts, table_bytes = fact_rows(wh.state.facts), dict(wh.table_bytes)
        stored = (root / FACT_TABLE).read_bytes()
        with monkeypatch.context() as m:
            m.setattr(storage, "_atomic_write", _failing_atomic_write)
            with pytest.raises(OSError, match="injected"):
                wh.rewrite_validation(*annotation(wh.state.facts, {2: ("unmatched", None, None, None)}))
        assert (fact_rows(wh.state.facts), wh.table_bytes) == (facts, table_bytes)
        assert (root / FACT_TABLE).read_bytes() == stored
        # the handle goes on from the rows it held
        wh.rewrite_validation(*annotation(wh.state.facts, {2: ("unmatched", None, None, None)}))
    with open_warehouse(root, "ro") as wh:
        assert fact_rows(wh.state.facts)[2].validation == "unmatched"


def _held_and_fresh(root, wh):
    """Fact 1's annotation as the writer holds it and as a fresh open reads it."""
    with open_warehouse(root, "ro") as fresh:
        return [(f.validation, f.matched_record_id) for f in (fact_rows(wh.state.facts)[1], fact_rows(fresh.state.facts)[1])]


def test_rewrite_validation_refuses_a_record_id_that_is_not_utf8_before_writing(root, monkeypatch):
    with _base(root) as wh:
        wh.append_facts([make_draft(wh.state.images[1])])
        stored = (root / FACT_TABLE).read_bytes()
        with _replaced_files(monkeypatch) as replaced:
            with pytest.raises(UnknownFactError, match="^fact 1: matched_record_id does not encode as UTF-8$"):
                wh.rewrite_validation(*annotation(wh.state.facts, {1: ("confirmed", "\ud800", None, None)}))
        assert replaced == []
        assert _held_and_fresh(root, wh) == [("unvalidated", None)] * 2
    assert (root / FACT_TABLE).read_bytes() == stored


def test_any_failure_of_the_write_restores_the_held_annotation(root, monkeypatch):
    def interrupted_write(path, text):
        raise KeyboardInterrupt

    with _base(root) as wh:
        wh.append_facts([make_draft(wh.state.images[1])])
        table_bytes = dict(wh.table_bytes)
        with monkeypatch.context() as m:
            m.setattr(storage, "_atomic_write", interrupted_write)
            with pytest.raises(KeyboardInterrupt):
                wh.rewrite_validation(*annotation(wh.state.facts, {1: ("unmatched", None, None, None)}))
        assert _held_and_fresh(root, wh) == [("unvalidated", None)] * 2
        assert wh.table_bytes == table_bytes


def test_an_empty_record_id_is_held_as_every_load_reads_it(root, monkeypatch):
    with _base(root) as wh:
        wh.append_facts([make_draft(wh.state.images[1])] * 2)
        wh.rewrite_validation(*annotation(wh.state.facts, {1: ("unmatched", "", None, None)}))
        assert _held_and_fresh(root, wh) == [("unmatched", None)] * 2
        assert wh.state.facts.matched_record_id == [None, None]
        inode = (root / FACT_TABLE).stat().st_ino
        with _replaced_files(monkeypatch) as replaced:
            wh.rewrite_validation(*annotation(wh.state.facts, {1: ("unmatched", None, None, None)}))
        assert replaced == [] and (root / FACT_TABLE).stat().st_ino == inode


def test_rewrite_validation_keeps_measures_when_update_omits_them(root):
    with _base(root) as wh:
        image = wh.state.images[1]
        wh.append_facts([make_draft(image, height_m=30.0, dbh_cm=55.0)])
        wh.rewrite_validation(*annotation(wh.state.facts, {1: ("species_mismatch", "R9", None, None)}))
        fact = fact_rows(wh.state.facts)[1]
        assert (fact.height_m, fact.dbh_cm) == (30.0, 55.0)


# -- read-only handles -----------------------------------------------------------


def test_read_only_refuses_mutation(root):
    with _base(root):
        pass
    with open_warehouse(root, "ro") as wh:
        with pytest.raises(ReadOnlyError):
            wh.upsert_species("TSHE")
        with pytest.raises(ReadOnlyError):
            wh.append_facts([])


# -- persistence ------------------------------------------------------------------


def test_persistence_round_trip_random(root):
    rng = random.Random(20240)
    # cells that quote, signed zeros and a subnormal; an empty dbh_cm
    odd_image = make_image(
        file_name='odd, "quoted".jpg', geotransform=make_geotransform(origin_x=-0.0, origin_y=5e-324, b=-0.0)
    ).meta
    odd_record = make_record("R2", -0.0, 5e-324, height_m=12.5)
    with open_warehouse(root) as wh:
        populate_random(wh, rng, n_images=25, max_facts_per_image=4)
        wh.ensure_date(odd_image.capture_date_key)
        odd_key = wh.insert_image(odd_image)
        wh.save_survey("s1", [make_record("R1", 1.0, 2.0), odd_record])
        before = logical_state(wh)
        next_ids = (wh._next_image_key, wh._next_species_key, wh._next_fact_id)
    with open_warehouse(root, "ro") as wh:
        assert logical_state(wh) == before
        assert (wh._next_image_key, wh._next_species_key, wh._next_fact_id) == next_ids
        image, record = wh.state.images[odd_key], wh.load_survey("s1")[1]
    # == takes -0.0 for 0.0; repr tells them apart, and names every row type
    assert (type(image), type(record)) == (DimImage, SurveyRecord)
    assert repr(image) == repr(DimImage(odd_key, *odd_image))
    assert repr(record) == repr(odd_record)


# -- crash recovery ----------------------------------------------------------------


def _committed_base(root):
    with _base(root) as wh:
        image = wh.state.images[1]
        wh.append_facts([make_draft(image), make_draft(image)])
        return logical_state(wh)


def test_recovery_drops_uncommitted_rows(root):
    before = _committed_base(root)
    # simulate a crash after append but before the marker moved
    with open(root / FACT_TABLE, "a") as fh:
        fh.write("3,20240115,1,1,0.5,0.5,0.2,0.2,0.9,5.0,-5.0,,,unvalidated,\n")
    with open_warehouse(root, "ro") as wh:
        assert logical_state(wh) == before
        assert sorted(fact_rows(wh.state.facts)) == [1, 2]
    # an rw open repairs the file and reuses the id
    with open_warehouse(root) as wh:
        assert logical_state(wh) == before
        assert wh.append_facts([make_draft(wh.state.images[1])]) == [3]
    with open_warehouse(root, "ro") as wh:
        assert sorted(fact_rows(wh.state.facts)) == [1, 2, 3]


def test_recovery_tolerates_torn_trailing_line(root):
    before = _committed_base(root)
    with open(root / FACT_TABLE, "a") as fh:
        fh.write("3,20240115,1,1,0.5,0.5,0.2")  # torn mid-row, no newline
    with open_warehouse(root, "ro") as wh:
        assert logical_state(wh) == before
    with open_warehouse(root) as wh:
        assert logical_state(wh) == before
    # the rw open rewrote the file clean
    text = (root / FACT_TABLE).read_text()
    assert text.endswith("\n")
    assert "3,20240115,1,1,0.5,0.5,0.2" not in text


@pytest.mark.parametrize(
    "tail",
    ["3,20240115,1,1,0.5,0.5,0.2", "3,20240115,1,1,0.5,0.5,0.2,0.2,0.9,5.0,-5.0,,,unvalidated,\n"],
    ids=["torn", "uncommitted"],
)
def test_repairing_open_replaces_only_the_fact_file(root, monkeypatch, tail):
    before = _committed_base(root)
    with open(root / FACT_TABLE, "a") as fh:
        fh.write(tail)
    with _replaced_files(monkeypatch) as replaced:
        with open_warehouse(root) as wh:
            assert logical_state(wh) == before
    # the marker already holds the last committed fact_id
    assert replaced == [FACT_TABLE]
    assert (root / "COMMIT").read_text() == "2\n"
    assert not (root / FACT_TABLE).read_text().endswith(tail)


@pytest.mark.parametrize(
    "table, tail",
    [(FACT_TABLE, "3,20240115,1,1,0.5,0.5,0.2"), (IMAGES.file, "2,b.jpg,uav,20240115,4000,30")],
    ids=["fact", "dim_image"],
)
def test_a_repairing_open_logs_the_tail_it_cuts(root, caplog, table, tail):
    _committed_base(root)
    path = root / table
    kept = path.stat().st_size
    with open(path, "a") as fh:
        fh.write(tail)
    caplog.set_level(logging.WARNING, logger="canopydw.storage")
    open_warehouse(root, "ro").close()  # a load leaves the tail, and logs nothing
    assert caplog.records == []
    open_warehouse(root).close()
    message = f"{path}: kept {kept} bytes, cut {len(tail)} bytes of a torn or uncommitted tail"
    assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [("canopydw.storage", logging.WARNING, message)]
    assert path.stat().st_size == kept
    open_warehouse(root).close()  # nothing left to cut
    assert len(caplog.records) == 1


def _uncommitted_row(fact_id):
    return f"{fact_id},20240115,1,1,0.5,0.5,0.2,0.2,0.9,5.0,-5.0,,,unvalidated,\n"


def test_failed_repair_releases_the_lock(root, monkeypatch):
    _committed_base(root)
    with open(root / FACT_TABLE, "a") as fh:
        fh.write(_uncommitted_row(3))
    with monkeypatch.context() as m:
        m.setattr(storage, "_atomic_write", _failing_atomic_write)
        with pytest.raises(OSError, match="injected"):
            open_warehouse(root)
    with open_warehouse(root, lock_timeout=0.05) as wh:  # the lock is free
        assert sorted(fact_rows(wh.state.facts)) == [1, 2]
    assert "\n3,20240115," not in (root / FACT_TABLE).read_text()


def test_recovery_reads_nothing_past_the_first_uncommitted_row(root):
    before = _committed_base(root)
    committed_facts = (root / FACT_TABLE).read_bytes()
    with open(root / FACT_TABLE, "a") as fh:  # garbage that only a load past row 3 would see
        fh.write(_uncommitted_row(3) + "not,a,fact,row\n" + _uncommitted_row(4))
    with open_warehouse(root, "ro") as wh:
        assert logical_state(wh) == before
    with open_warehouse(root) as wh:
        assert logical_state(wh) == before
    assert (root / FACT_TABLE).read_bytes() == committed_facts


@pytest.mark.parametrize("mode", ["ro", "rw"])
def test_recovery_rejects_committed_row_after_uncommitted_one(root, mode):
    _committed_base(root)
    with open(root / FACT_TABLE, "a") as fh:  # fact ids 1, 2, 9, 3
        fh.write(_uncommitted_row(9) + _uncommitted_row(3))
    (root / "COMMIT").write_text("3\n")
    with pytest.raises(CorruptTableError, match="commit marker 3 exceeds last stored fact_id 2"):
        open_warehouse(root, mode)


def test_recovery_rejects_marker_ahead_of_data(root):
    _committed_base(root)
    (root / "COMMIT").write_text("5\n")
    with pytest.raises(CorruptTableError):
        open_warehouse(root, "ro")


def test_recovery_rejects_torn_line_with_missing_committed_rows(root):
    _committed_base(root)
    # remove committed row 2 and leave a torn line: marker (2) now exceeds data
    lines = (root / FACT_TABLE).read_text().splitlines()
    (root / FACT_TABLE).write_text("\n".join(lines[:2]) + "\ngarbage")
    with pytest.raises(CorruptTableError):
        open_warehouse(root, "ro")


def test_recovery_rejects_midfile_garbage(root):
    _committed_base(root)
    lines = (root / FACT_TABLE).read_text().splitlines()
    lines.insert(2, "not,a,fact,row")
    (root / FACT_TABLE).write_text("\n".join(lines) + "\n")
    with pytest.raises(CorruptTableError):
        open_warehouse(root, "ro")


def test_recovery_rejects_bad_header(root):
    _committed_base(root)
    lines = (root / FACT_TABLE).read_text().splitlines()
    lines[0] = "wrong,header"
    (root / FACT_TABLE).write_text("\n".join(lines) + "\n")
    with pytest.raises(CorruptTableError):
        open_warehouse(root, "ro")


def test_recovery_rejects_fk_breakage(root):
    _committed_base(root)
    # point a fact at a species that does not exist
    lines = (root / FACT_TABLE).read_text().splitlines()
    lines[1] = lines[1].replace(",1,0.5", ",9,0.5", 1)
    (root / FACT_TABLE).write_text("\n".join(lines) + "\n")
    with pytest.raises(IntegrityError):
        open_warehouse(root, "ro")


def test_missing_marker_adopts_contents(root):
    _committed_base(root)
    (root / "COMMIT").unlink()
    with open_warehouse(root, "ro") as wh:
        assert sorted(fact_rows(wh.state.facts)) == [1, 2]
    with open_warehouse(root) as wh:
        assert sorted(fact_rows(wh.state.facts)) == [1, 2]
    assert (root / "COMMIT").read_text() == "2\n"


@pytest.mark.parametrize("marker", [True, False], ids=["committed", "no-marker"])
def test_unterminated_last_row_is_repaired_before_appends(root, marker):
    before = _committed_base(root)
    path = root / FACT_TABLE
    path.write_bytes(path.read_bytes().removesuffix(b"\n"))  # the last row loses its newline
    if not marker:
        (root / "COMMIT").unlink()
    with open_warehouse(root, "ro") as wh:
        assert logical_state(wh) == before
    with open_warehouse(root) as wh:
        assert logical_state(wh) == before
        assert path.read_bytes().endswith(b"\n")
        assert wh.append_facts([make_draft(wh.state.images[1])]) == [3]
    with open_warehouse(root, "ro") as wh:
        assert sorted(fact_rows(wh.state.facts)) == [1, 2, 3]
    assert (root / "COMMIT").read_text() == "3\n"


# -- batch commit ------------------------------------------------------------------


def _batch_inputs(n, date_key=20240115, first=2):
    """n new images of one date, each with two detections of PSME (class 0)."""
    metas = [
        make_image(image_key=0, file_name=f"img_{i:04d}.jpg", capture_date_key=date_key).meta
        for i in range(first, first + n)
    ]
    dets = {detection_file_name(m.file_name): ["0 0.5 0.5 0.2 0.2 0.9", "0 0.25 0.25 0.1 0.1 0.8"] for m in metas}
    return metas, dets


@contextlib.contextmanager
def _counted_syncs(monkeypatch):
    """Counts os.fsync calls and collects the names os.replace replaces."""
    fsyncs = []
    real_fsync = os.fsync

    def fsync(fd):
        fsyncs.append(fd)
        real_fsync(fd)

    with monkeypatch.context() as m:
        m.setattr(os, "fsync", fsync)
        with _replaced_files(monkeypatch) as replaced:
            yield fsyncs, replaced


def test_batch_commits_once_whatever_its_size(tmp_path, monkeypatch):
    counts = {}
    for n in (1, 20):
        root = tmp_path / f"wh{n}"
        _committed_base(root)  # holds the batch's date and species
        metas, dets = _batch_inputs(n)
        with open_warehouse(root) as wh:
            with _counted_syncs(monkeypatch) as (fsyncs, replaced):
                report = ingest_image_batch(wh, metas, dets, ClassMap(["PSME"]))
            assert (report.images_added, report.facts_added) == (n, 2 * n)
            counts[n] = (len(fsyncs), replaced)
        with open_warehouse(root, "ro") as wh:
            assert len(wh.state.images) == 1 + n and len(wh.state.facts) == 2 + 2 * n
    # the dim_image append; the fact append; COMMIT: file and directory
    assert counts[1] == counts[20] == (4, ["COMMIT"])


def test_dim_date_is_appended_unless_a_new_date_sorts_before_a_stored_one(root):
    with open_warehouse(root) as wh:
        wh.ensure_date(20240115)
    path = root / DATES.file
    # (the dates one batch adds, whether the file is rewritten)
    for dates, rewritten in (([20240301], False), ([20240401, 20240315], False), ([20240201], True), ([20240402], False)):
        inode, before = path.stat().st_ino, path.read_bytes()
        with open_warehouse(root) as wh:
            with wh.batch():
                for date_key in dates:
                    wh.ensure_date(date_key)
        assert (path.stat().st_ino != inode, path.read_bytes().startswith(before)) == (rewritten, not rewritten), dates
        with open_warehouse(root, "ro") as wh:  # sorted by key either way
            assert path.read_text() == DATES.text(wh.state.dates[key] for key in sorted(wh.state.dates)), dates


def test_batch_writes_nothing_until_it_ends(root):
    before = _committed_base(root)
    with open_warehouse(root) as wh:
        with wh.batch():
            date_key = wh.ensure_date(20240301)
            key = wh.insert_image(make_image(file_name="b.jpg", capture_date_key=date_key).meta)
            assert wh.append_facts([make_draft(wh.state.images[key])] * 2) == [3, 4]
            assert wh.append_facts([make_draft(wh.state.images[key])]) == [5]
            assert sorted(fact_rows(wh.state.facts)) == [1, 2]  # staged rows are not committed yet
            with open_warehouse(root, "ro") as ro:
                assert logical_state(ro) == before
        assert sorted(fact_rows(wh.state.facts)) == [1, 2, 3, 4, 5]
        after = logical_state(wh)
    with open_warehouse(root, "ro") as wh:
        assert logical_state(wh) == after
    assert (root / "COMMIT").read_text() == "5\n"


def test_exception_partway_commits_what_was_staged(root):
    _committed_base(root)
    metas, dets = _batch_inputs(3)
    metas[2] = make_image(file_name="bad.jpg", platform="blimp").meta
    with open_warehouse(root) as wh:
        with pytest.raises(InvalidMetadataError):
            ingest_image_batch(wh, metas, dets, ClassMap(["PSME"]))
        held = logical_state(wh)
    with open_warehouse(root, "ro") as wh:
        assert logical_state(wh) == held
        assert sorted(img.file_name for img in wh.state.images.values()) == ["img_0001.jpg", "img_0002.jpg", "img_0003.jpg"]
        assert sorted(fact_rows(wh.state.facts)) == [1, 2, 3, 4, 5, 6]


def test_threads_sharing_a_writer_lose_no_rows(root):
    before = _committed_base(root)
    errors = []

    def work(t):
        try:
            metas, dets = _batch_inputs(5, first=2 + 5 * t)
            ingest_image_batch(wh, metas, dets, ClassMap(["PSME"]))
            for _ in range(5):
                wh.append_facts([make_draft(wh.state.images[1])])
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with open_warehouse(root) as wh:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            held = logical_state(wh)
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    with open_warehouse(root, "ro") as wh:
        assert logical_state(wh) == held
        assert sorted(fact_rows(wh.state.facts)) == list(range(1, len(before[3]) + 4 * 15 + 1))
        assert len(wh.state.images) == 1 + 4 * 5


def _ingest_and_die(root, crash_at):
    """Ingests a batch that changes every dimension and exits at crash_at."""
    real_write, real_append = storage._atomic_write, storage._append

    def atomic_write(path, text):
        if path.name == "COMMIT":  # the facts are appended, COMMIT not yet moved
            os._exit(0)
        return real_write(path, text)

    def append(path, data):
        written = real_append(path, data)
        if path.name == crash_at:  # the last dimension is appended, no fact appended
            os._exit(0)
        return written

    storage._atomic_write, storage._append = atomic_write, append
    metas, dets = _batch_inputs(4, date_key=20240301)
    with open_warehouse(root) as wh:
        ingest_image_batch(wh, metas, dets, ClassMap(["PSME", "TSHE"]))
    os._exit(1)  # not reached: the batch commits after its last dimension write


@pytest.mark.parametrize("crash_at", [IMAGES.file, "COMMIT"], ids=["before-append", "before-commit"])
def test_crash_between_dimension_rewrites_and_commit(root, crash_at):
    before = _committed_base(root)
    committed_facts = (root / FACT_TABLE).read_bytes()
    p = multiprocessing.get_context("spawn").Process(target=_ingest_and_die, args=(root, crash_at))
    p.start()
    p.join(60)
    assert p.exitcode == 0
    # the dimension rows reached disk, COMMIT did not move
    assert b"TSHE" in (root / SPECIES.file).read_bytes()
    assert b"img_0005.jpg" in (root / IMAGES.file).read_bytes()
    assert (root / "COMMIT").read_text() == "2\n"
    facts_on_disk = (root / FACT_TABLE).read_bytes()
    assert facts_on_disk.startswith(committed_facts)
    assert (facts_on_disk != committed_facts) == (crash_at == "COMMIT")
    for mode in ("ro", "rw"):
        with open_warehouse(root, mode) as wh:
            assert sorted(fact_rows(wh.state.facts).items()) == before[3]
            assert len(wh.state.images) == 5  # image rows without their facts
    # the rw open dropped the uncommitted rows
    assert (root / FACT_TABLE).read_bytes() == committed_facts
    # a re-run of the same manifest skips the images whose facts were lost
    metas, dets = _batch_inputs(4, date_key=20240301)
    with open_warehouse(root) as wh:
        report = ingest_image_batch(wh, metas, dets, ClassMap(["PSME", "TSHE"]))
    assert (report.images_added, report.images_skipped, report.facts_added) == (0, 4, 0)


def test_failed_fact_append_leaves_commit_and_facts(root, monkeypatch):
    before = _committed_base(root)
    committed_facts = (root / FACT_TABLE).read_bytes()
    fact_ino = (root / FACT_TABLE).stat().st_ino
    real_fsync = os.fsync

    def fsync(fd):
        if os.fstat(fd).st_ino == fact_ino:
            raise OSError(5, "injected fsync failure")
        real_fsync(fd)

    metas, dets = _batch_inputs(3)
    with open_warehouse(root) as wh:
        with monkeypatch.context() as m:
            m.setattr(os, "fsync", fsync)
            with pytest.raises(OSError, match="injected"):
                ingest_image_batch(wh, metas, dets, ClassMap(["PSME"]))
        assert (root / "COMMIT").read_text() == "2\n"
        assert (root / FACT_TABLE).read_bytes() == committed_facts
        assert sorted(fact_rows(wh.state.facts).items()) == before[3]
        # the handle goes on from the committed facts: no fact_id was burned
        assert wh.append_facts([make_draft(wh.state.images[2])]) == [3]
    with open_warehouse(root, "ro") as wh:
        assert sorted(fact_rows(wh.state.facts)) == [1, 2, 3]
        assert len(wh.state.images) == 4


@pytest.mark.parametrize("call", ["fsync", "replace"])
def test_a_failed_atomic_write_keeps_the_file_and_leaves_no_tmp(tmp_path, monkeypatch, call):
    path = tmp_path / "COMMIT"
    path.write_bytes(b"2\n")

    def fail(*args):
        raise OSError(28, "injected write failure")

    with monkeypatch.context() as m:
        m.setattr(os, call, fail)
        with pytest.raises(OSError, match="injected"):
            storage._atomic_write(path, "3\n")
    assert path.read_bytes() == b"2\n"
    assert os.listdir(tmp_path) == ["COMMIT"]


@pytest.mark.parametrize("moved", [False, True], ids=["commit-not-written", "commit-written"])
@pytest.mark.parametrize("read_first", [False, True], ids=["lazy", "facts-read"])
def test_failed_commit_write_closes_the_writer_holding_none_of_the_batch(root, monkeypatch, moved, read_first):
    """A COMMIT write that raises, before its rename or after it (the
    directory fsync): the handle holds none of the batch's rows and refuses
    the next write, and a later open holds the batch as COMMIT says."""
    _committed_base(root)
    real_write = storage._atomic_write

    def atomic_write(path, text):
        if path.name == storage.COMMIT_MARKER:
            if moved:
                real_write(path, text)
            raise OSError(5, "injected COMMIT failure")
        return real_write(path, text)

    with open_warehouse(root) as wh:
        if read_first:
            assert len(wh.state.facts) == 2
        with monkeypatch.context() as m:
            m.setattr(storage, "_atomic_write", atomic_write)
            with pytest.raises(OSError, match="injected"):
                wh.append_facts([make_draft(wh.state.images[1])] * 2)
        assert sorted(fact_rows(wh.state.facts)) == [1, 2]
        with pytest.raises(WarehouseError, match="closed"):
            wh.append_facts([make_draft(wh.state.images[1])])
    committed = [1, 2, 3, 4] if moved else [1, 2]
    assert (root / "COMMIT").read_text() == f"{committed[-1]}\n"
    with open_warehouse(root, "ro") as wh:
        assert sorted(fact_rows(wh.state.facts)) == committed
    with open_warehouse(root, lock_timeout=0.05) as wh:  # the lock is free
        assert wh.append_facts([make_draft(wh.state.images[1])]) == [len(committed) + 1]
    with open_warehouse(root, "ro") as wh:
        assert sorted(fact_rows(wh.state.facts)) == committed + [len(committed) + 1]


# -- corrupt tables -------------------------------------------------------------------


def _cell(i, value):
    def edit(lines, line_no):
        cells = lines[line_no - 1].split(",")
        cells[i] = value
        return ",".join(cells)

    return edit


def _line(n):
    return lambda lines, line_no: lines[n - 1]


_DROP_LAST = lambda lines, line_no: lines[line_no - 1].rsplit(",", 1)[0]  # noqa: E731
_BAD_HEADER = lambda lines, line_no: "wrong,header"  # noqa: E731

# (table, line, edit of that line, error type, text in the error's message)
CORRUPT_TABLE_CASES = {
    "date-header": ("dim_date.tbl", 1, _BAD_HEADER, CorruptTableError, "bad header"),
    "image-header": ("dim_image.tbl", 1, _BAD_HEADER, CorruptTableError, "bad header"),
    "species-header": ("dim_species.tbl", 1, _BAD_HEADER, CorruptTableError, "bad header"),
    "fact-header": ("fact_tree_metrics.tbl", 1, _BAD_HEADER, CorruptTableError, "bad header"),
    "date-fields": ("dim_date.tbl", 3, _DROP_LAST, CorruptTableError, "expected 6 fields, got 5"),
    "image-fields": ("dim_image.tbl", 3, _DROP_LAST, CorruptTableError, "expected 15 fields, got 14"),
    "species-fields": ("dim_species.tbl", 3, _DROP_LAST, CorruptTableError, "expected 5 fields, got 4"),
    "date-key": ("dim_date.tbl", 2, _cell(0, "x"), CorruptTableError, "invalid literal for int()"),
    "image-key": ("dim_image.tbl", 3, _cell(0, "x"), CorruptTableError, "invalid literal for int()"),
    "species-key": ("dim_species.tbl", 3, _cell(0, "x"), CorruptTableError, "invalid literal for int()"),
    "date-duplicate": ("dim_date.tbl", 3, _line(2), CorruptTableError, "duplicate date_key 20240115"),
    "date-derived": (
        "dim_date.tbl", 2, _cell(5, "16"), CorruptTableError, "derived date fields disagree with date_key"
    ),
    "date-impossible": (
        "dim_date.tbl",
        3,
        lambda lines, line_no: "20241399,2024,4,13,99,400",
        CorruptTableError,
        "20241399 does not decode to a valid date",
    ),
    "species-duplicate-key": ("dim_species.tbl", 3, _cell(0, "1"), CorruptTableError, "duplicate species_key 1"),
    "species-empty-code": ("dim_species.tbl", 3, _cell(1, ""), CorruptTableError, "empty species code"),
    "species-duplicate-code": (
        "dim_species.tbl", 3, _cell(1, "PSME"), CorruptTableError, "duplicate species code PSME"
    ),
    "species-status": (
        "dim_species.tbl", 3, _cell(4, "extinct"), CorruptTableError, "bad conservation_status 'extinct'"
    ),
    "image-duplicate-key": ("dim_image.tbl", 3, _cell(0, "1"), CorruptTableError, "duplicate image_key 1"),
    "image-meta": ("dim_image.tbl", 3, _cell(2, "blimp"), CorruptTableError, "platform 'blimp' not one of"),
    "image-identity": (
        "dim_image.tbl",
        3,
        lambda lines, line_no: "2" + lines[1][1:],
        CorruptTableError,
        "duplicate (file_name, checksum)",
    ),
    # a capture date that is not a loaded date row is still derived and refused
    "image-invalid-date": (
        "dim_image.tbl", 3, _cell(3, "20241399"), CorruptTableError, "capture_date_key 20241399 invalid"
    ),
    "image-missing-date": (
        "dim_image.tbl", 3, _cell(3, "20240117"), IntegrityError, "image 2 references missing date 20240117"
    ),
    "fact-order": ("fact_tree_metrics.tbl", 3, _cell(0, "1"), CorruptTableError, "fact_id 1 out of order"),
    "fact-confidence": (
        "fact_tree_metrics.tbl", 2, _cell(8, "1.5"), CorruptTableError, "confidence outside [0, 1]"
    ),
    "commit-text": ("COMMIT", 1, _cell(0, "x"), CorruptTableError, "bad commit marker 'x'"),
    "commit-negative": ("COMMIT", 1, _cell(0, "-1"), CorruptTableError, "negative commit marker -1"),
}


@pytest.mark.parametrize("load", ["open", "cache", "rw"])
@pytest.mark.parametrize("case", list(CORRUPT_TABLE_CASES))
def test_corrupt_table_is_refused_with_its_line(root, case, load):
    table, line_no, edit, error, reason = CORRUPT_TABLE_CASES[case]
    with open_warehouse(root) as wh:
        wh.upsert_species("PSME")
        wh.upsert_species("TSHE")
        wh.ensure_date(20240115)
        wh.ensure_date(20240116)
        wh.insert_image(make_image(file_name="a.jpg").meta)
        wh.insert_image(make_image(file_name="b.jpg", capture_date_key=20240116).meta)
        wh.append_facts([make_draft(wh.state.images[1])] * 2)
    snap = SnapshotCache(root)
    try:
        snap.current()  # a good first load
        path = root / table
        lines = path.read_text().splitlines()
        lines[line_no - 1] = edit(lines, line_no)
        # replaced as a writer would, so that the file's inode changes
        tmp = root / "edited.tmp"
        tmp.write_text("\n".join(lines) + "\n")
        os.replace(tmp, path)
        opens = {"open": lambda: open_warehouse(root, "ro"), "cache": snap.current, "rw": lambda: open_warehouse(root)}
        with pytest.raises(error) as err:
            opens[load]()
    finally:
        snap.close()
    assert reason in str(err.value)
    if error is CorruptTableError:
        assert (err.value.path.name, err.value.line_no) == (table, line_no)
    else:
        assert f"{table}:{line_no}: " in str(err.value)


_FACT_LINE = "1,20240115,1,1,0.5,0.5,0.2,0.2,0.9,5.0,-5.0,,,"


def _csv_reader_parse(line: bytes, table):
    """The row of a line parsed with csv.reader alone, or the refusal's reason."""
    try:
        return table.parse(next(csv.reader([line.decode("utf-8")])))
    except (csv.Error, StopIteration):
        return "unparseable CSV line"
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize(
    "table, text",
    [
        (FACTS, _FACT_LINE + "unvalidated,"),
        (FACTS, _FACT_LINE + 'confirmed,"R,1"'),
        (FACTS, _FACT_LINE + 'confirmed,"R""1"'),
        (FACTS, _FACT_LINE + 'confirmed,"R1'),
        (FACTS, _FACT_LINE + 'confirmed,R"1'),
        (FACTS, '"1",20240115,1,1,0.5,0.5,0.2,0.2,0.9,5.0,-5.0,,,unvalidated,'),
        (FACTS, ""),
        (FACTS, ","),
        (FACTS, '""'),
        (FACTS, _FACT_LINE + "unvalidated,R\0" + "1"),
        (FACTS, "\0"),
        (FACTS, _FACT_LINE + "unvalidated,\r"),
        (FACTS, "1,2024\r0115,1,1,0.5,0.5,0.2,0.2,0.9,5.0,-5.0,,,unvalidated,"),
        (FACTS, '"\r",' + _FACT_LINE[2:] + "unvalidated,"),
        (FACTS, " 1,20240115,1,1,0.5,0.5,0.2,0.2,0.9,5.0,-5.0,,,unvalidated,"),
        (FACTS, _FACT_LINE + "unvalidated"),
        (SPECIES, '3,PSME,"Pseudotsuga menziesii, var. glauca",Douglas-fir,least_concern'),
        (SPECIES, "3,PSME,Pseudotsuga,\r,least_concern"),
        (SPECIES, ""),
        (IMAGES, '1,"odd, ""quoted"".jpg",uav,20240115,100,100,10.0,-0.0,5e-324,0.1,-0.0,0.0,-0.1,4000000,' + "0" * 64),
        (SURVEYS, "R1,-0.0,5e-324,PSME,,12.5,20240110"),
    ],
)
def test_comma_split_and_csv_reader_parse_a_line_alike(table, text):
    line = text.encode()
    expected = _csv_reader_parse(line, table)
    try:
        got = storage._parse_line(Path("t.tbl"), 7, line, table)
    except CorruptTableError as exc:
        assert (exc.path, exc.line_no) == (Path("t.tbl"), 7)
        got = exc.reason
    assert got == expected


def _append_byte(path, line_no, byte=b"\xff"):
    """Add byte at the end of line line_no of path, which is replaced as a
    writer would replace it, so that its inode changes."""
    lines = path.read_bytes().split(b"\n")
    lines[line_no - 1] += byte
    tmp = path.with_name("edited.tmp")
    tmp.write_bytes(b"\n".join(lines))
    os.replace(tmp, path)


@pytest.mark.parametrize("cached", [False, True], ids=["open", "cache"])
@pytest.mark.parametrize("table", ["dim_date.tbl", "dim_image.tbl", "dim_species.tbl", FACT_TABLE, "COMMIT"])
def test_non_utf8_byte_is_refused_with_its_line(root, table, cached):
    # three rows in each table, so that line 3 is a middle row
    with open_warehouse(root) as wh:
        for day, code in enumerate(("PSME", "TSHE", "THPL"), start=15):
            wh.upsert_species(code)
            date_key = wh.ensure_date(encode_date_key(2024, 1, day))
            wh.insert_image(make_image(file_name=f"{day}.jpg", capture_date_key=date_key).meta)
        wh.append_facts([make_draft(wh.state.images[1])] * 3)
    line_no = 1 if table == "COMMIT" else 3
    snap = SnapshotCache(root)
    try:
        snap.current()  # a good first load
        _append_byte(root / table, line_no)
        with pytest.raises(CorruptTableError) as err:
            snap.current() if cached else open_warehouse(root, "ro")
    finally:
        snap.close()
    assert (err.value.path.name, err.value.line_no) == (table, line_no)
    reason = "bad commit marker" if table == "COMMIT" else "can't decode byte 0xff"
    assert f"{table}:{line_no}: " in str(err.value) and reason in str(err.value)


# -- dim_image a column at a time -------------------------------------------------------

# Edits of one image line's cells (as stored text, before csv_line quotes
# them), given the cells of the first line, that a column pass must leave to
# the row loop or take as it does.
_IMAGE_CELL_EDITS = {
    "key-repeated": lambda cells, first: [first[0], *cells[1:]],
    "key-junk": lambda cells, first: ["x", *cells[1:]],
    "key-underscore": lambda cells, first: ["9_9", *cells[1:]],  # int() takes it
    "name-empty": lambda cells, first: [cells[0], "", *cells[2:]],
    "name-quoted": lambda cells, first: [cells[0], 'q"t.jpg', *cells[2:]],
    "name-comma": lambda cells, first: [cells[0], "a, b.jpg", *cells[2:]],
    "identity-repeated": lambda cells, first: [cells[0], first[1], *cells[2:14], first[14]],
    "platform": lambda cells, first: [*cells[:2], "blimp", *cells[3:]],
    "date-missing": lambda cells, first: [*cells[:3], "20240117", *cells[4:]],
    "date-invalid": lambda cells, first: [*cells[:3], "20241399", *cells[4:]],
    "width-zero": lambda cells, first: [*cells[:4], "0", *cells[5:]],
    "gsd-nan": lambda cells, first: [*cells[:6], "nan", *cells[7:]],
    "gsd-negative": lambda cells, first: [*cells[:6], "-1.0", *cells[7:]],
    "gt-inf": lambda cells, first: [*cells[:8], "inf", *cells[9:]],
    "gt-singular": lambda cells, first: [*cells[:9], "0.0", *cells[10:12], "0.0", *cells[13:]],
    "size-negative": lambda cells, first: [*cells[:13], "-1", cells[14]],
    "checksum-upper": lambda cells, first: [*cells[:14], cells[14].upper()],
    "cells-14": lambda cells, first: cells[:14],
    "cells-16": lambda cells, first: [*cells, "x"],
}
# Edits of a stored line's bytes
_IMAGE_BYTE_EDITS = {
    "nul": lambda line: line[:3] + b"\0" + line[3:],
    "cr": lambda line: line[:3] + b"\r" + line[3:],
    "non-utf8": lambda line: line[:3] + b"\xff" + line[3:],
    "blank": lambda line: b"",
}


def _image_line(key: int, name: str, date: int = 20240115) -> bytes:
    return csv_line(IMAGES.cells(make_image(image_key=key, file_name=name, capture_date_key=date))).encode() + b"\n"


@st.composite
def _image_lines(draw):
    """The lines of a hand-assembled dim_image.tbl past its header, each with
    its newline: up to 12 images in any key order, at most two lines
    edited, the last one perhaps torn."""
    n = draw(st.integers(0, 12))
    rows = [
        [str(cell) for cell in IMAGES.cells(make_image(image_key=key, file_name=f"\u00e9{i}.jpg", capture_date_key=date))]
        for i, (key, date) in enumerate(zip(draw(st.permutations(range(1, n + 1))), draw(st.lists(st.sampled_from([20240115, 20240116]), min_size=n, max_size=n))))
    ]
    edits = draw(st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from(sorted({*_IMAGE_CELL_EDITS, *_IMAGE_BYTE_EDITS}))), max_size=2)) if n else []
    for i, edit in edits:
        if edit in _IMAGE_CELL_EDITS:
            rows[i] = _IMAGE_CELL_EDITS[edit](rows[i], rows[0])
    lines = [csv_line(cells).encode("utf-8") for cells in rows]
    for i, edit in edits:
        if edit in _IMAGE_BYTE_EDITS:
            lines[i] = _IMAGE_BYTE_EDITS[edit](lines[i])
    lines = [line + b"\n" for line in lines]
    if lines and draw(st.booleans()):
        lines[-1] = draw(st.sampled_from([lines[-1][:-1], lines[-1][: len(lines[-1]) // 2], b"\0" * len(lines[-1])]))
    return lines


def _image_root(root: Path, lines: list[bytes]) -> None:
    """A root holding two dates and, in dim_image.tbl, the header and lines."""
    with open_warehouse(root) as wh:
        wh.ensure_date(20240115)
        wh.ensure_date(20240116)
    _write_images(root, lines)


def _write_images(root: Path, lines: list[bytes]) -> None:
    (root / IMAGES.file).write_bytes(IMAGES.header.encode() + b"\n" + b"".join(lines))


def _image_load(load):
    """The image rows, their indexes and the bytes held, of a load(), or its refusal."""
    try:
        wh = load()
    except WarehouseError as exc:
        return type(exc), str(exc)
    state = wh.state
    return state.images, state.images_by_identity, state.max_image_key, wh.table_bytes[IMAGES.file]


_CHUNK = storage._COLUMN_CHUNK_LINES


@settings(max_examples=100)
@given(lines=_image_lines(), held=st.integers(0, 12), chunk=st.sampled_from([3, 5, _CHUNK]))
@example(lines=[_image_line(k, f"{k}.jpg") for k in range(9, 0, -1)], held=0, chunk=_CHUNK)
@example(lines=[_image_line(k, f"{k}.jpg") for k in range(1, 10)] + [_image_line(1, "x.jpg")], held=2, chunk=_CHUNK)
@example(lines=[_image_line(k, 'q"t.jpg' if k == 3 else f"{k}.jpg") for k in range(1, 10)], held=0, chunk=_CHUNK)
@example(lines=[_image_line(k, f"{k}.jpg", 20240117 if k == 4 else 20240115) for k in range(1, 10)], held=0, chunk=_CHUNK)
@example(lines=[_image_line(k, f"{min(k, 8)}.jpg") for k in range(1, 10)], held=0, chunk=_CHUNK)
@example(lines=[_image_line(k, f"{k}.jpg") for k in range(1, 13)], held=0, chunk=5)
@example(lines=[_image_line(k if k != 8 else 3, f"{k}.jpg") for k in range(1, 13)], held=0, chunk=5)
def test_dim_image_loads_a_column_at_a_time_as_one_line_at_a_time(tmp_path_factory, lines, held, chunk):
    """A fresh load, and a cache refresh past the first `held` lines, give the
    rows and bytes the row loop gives, or its refusal, file:line and all,
    whatever the chunk of lines loaded a column at a time."""
    root, outcomes = tmp_path_factory.mktemp("images") / "wh", []
    for add_lines in (storage.IMAGES.add_lines, None):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(storage, "_COLUMN_CHUNK_LINES", chunk)
            m.setattr(storage.IMAGES, "add_lines", add_lines)
            try:
                _image_root(root, lines[:held])
                with contextlib.closing(SnapshotCache(root)) as cache:
                    first = _image_load(cache.current)
                    _write_images(root, lines)
                    outcomes.append((first, _image_load(cache.current), _image_load(lambda: open_warehouse(root, "ro"))))
            finally:
                shutil.rmtree(root)
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("images", [3, 9], ids=["row-loop", "columns"])
def test_the_next_image_key_follows_the_largest_held_in_any_row_order(root, images):
    keys = [2, 7, 1, 5, 3, 9, 4, 6, 8][:images]
    _image_root(root, [_image_line(k, f"{k}.jpg") for k in keys])
    with open_warehouse(root) as wh:
        new = wh.insert_image(make_image(file_name="new.jpg").meta)
    assert new == max(keys) + 1


# -- read snapshots under a live writer -----------------------------------------------


def _open_ro_until(root, cached, stop, out):
    """Read-only opens (or SnapshotCache refreshes) in a loop until stop is set.

    Reports (opens, failures, first error).
    """
    snap = SnapshotCache(root) if cached else None
    out.put("started")
    opens, failures, first = 0, 0, None
    while not stop.is_set():
        try:
            if snap is not None:
                snap.current()
            else:
                open_warehouse(root, "ro").close()
        except WarehouseError as exc:
            failures += 1
            first = first or f"{type(exc).__name__}: {exc}"
        opens += 1
    out.put((opens, failures, first))


def test_read_only_open_is_consistent_during_ingest(root):
    # Every image brings a new date, so each batch appends to dim_date and
    # dim_image just before it commits facts that reference the new rows.
    with open_warehouse(root) as wh:
        wh.upsert_species("PSME")
    ctx = multiprocessing.get_context("spawn")
    stop, out = ctx.Event(), ctx.Queue()
    readers = [ctx.Process(target=_open_ro_until, args=(root, cached, stop, out)) for cached in (False, False, True)]
    for p in readers:
        p.start()
    try:
        assert [out.get(timeout=60) for _ in readers] == ["started"] * len(readers)
        with open_warehouse(root) as wh:
            for i in range(150):
                date_key = wh.ensure_date(encode_date_key(2024, 1 + i // 28, 1 + i % 28))
                name = f"img_{i:04d}.jpg"
                key = wh.insert_image(make_image(file_name=name, capture_date_key=date_key).meta)
                wh.append_facts([make_draft(wh.state.images[key])] * 5)
    finally:
        stop.set()
        results = [out.get(timeout=60) for _ in readers]
        for p in readers:
            p.join(timeout=60)
    assert not any(p.is_alive() for p in readers)
    opens = sum(r[0] for r in results)
    failed = [r for r in results if r[1]]
    assert opens >= 20, results
    assert not failed, f"{sum(r[1] for r in failed)} of {opens} read-only opens failed, e.g. {failed[0][2]}"


def test_read_snapshot_matches_fresh_open(root):
    def fresh():
        with open_warehouse(root, "ro") as wh:
            return logical_state(wh)

    _committed_base(root)
    snap = SnapshotCache(root)
    try:
        first = snap.current()
        seen = [(first, logical_state(first))]
        assert seen[0][1] == fresh()
        assert snap.current() is first  # nothing changed: nothing re-read

        def check():
            handle = snap.current()
            assert logical_state(handle) == fresh()
            seen.append((handle, logical_state(handle)))

        with open_warehouse(root) as wh:  # new date, image and facts
            date_key = wh.ensure_date(20240301)
            key = wh.insert_image(make_image(file_name="b.jpg", capture_date_key=date_key).meta)
            wh.append_facts([make_draft(wh.state.images[key])] * 3)
        check()
        with open(root / FACT_TABLE, "a") as fh:  # appended but never committed
            fh.write("6,20240301,2,1,0.5,0.5,0.2,0.2,0.9,5.0,-5.0,,,unvalidated,\n")
        check()
        with open(root / FACT_TABLE, "a") as fh:  # torn mid-row
            fh.write("7,20240301,2,1,0.5")
        check()
        with open_warehouse(root) as wh:  # recovery rewrites the fact file
            wh.append_facts([make_draft(wh.state.images[1])])
        check()
        with open_warehouse(root) as wh:
            wh.rewrite_validation(*annotation(wh.state.facts, {2: ("confirmed", "t1", 12.0, 30.0)}))
        check()
        assert fact_rows(seen[-1][0].state.facts)[2].validation == "confirmed"
        with open_warehouse(root) as wh:  # a date sorted before the others
            date_key = wh.ensure_date(20240101)
            key = wh.insert_image(make_image(file_name="c.jpg", capture_date_key=date_key).meta)
            wh.append_facts([make_draft(wh.state.images[key])])
        check()
        text = (root / "dim_species.tbl").read_text()  # an edited dimension row
        assert ",unknown\n" in text
        (root / "dim_species.tbl").write_text(text.replace(",unknown\n", ",vulnerable\n"))
        check()
        assert seen[-1][0].state.species[1].conservation_status == "vulnerable"
        # a handle once returned is never changed by later refreshes
        for handle, state in seen:
            assert logical_state(handle) == state
    finally:
        snap.close()


def test_snapshot_rereads_an_extended_unterminated_row(root):
    _committed_base(root)
    with open_warehouse(root) as wh:
        wh.rewrite_validation(*annotation(wh.state.facts, {2: ("confirmed", "R1", None, None)}))
    path = root / FACT_TABLE
    path.write_bytes(path.read_bytes().removesuffix(b"\n"))  # the last row loses its newline
    snap = SnapshotCache(root)
    try:
        assert fact_rows(snap.current().state.facts)[2].matched_record_id == "R1"
        with open(path, "ab") as fh:  # the last row's record id grows, then the newline comes
            fh.write(b"0\n")
        handle = snap.current()
        assert fact_rows(handle.state.facts)[2].matched_record_id == "R10"
        with open_warehouse(root, "ro") as fresh:
            assert logical_state(handle) == logical_state(fresh)
    finally:
        snap.close()


def test_snapshot_holds_only_the_whole_rows_of_a_torn_dimension_tail(root):
    _committed_base(root)
    path = root / IMAGES.file
    held = path.read_bytes()
    line = IMAGES.lines([DimImage(2, *make_image(file_name="b.jpg").meta)]).encode()  # as a writer appends it
    snap = SnapshotCache(root)
    try:
        first = snap.current()
        with open(path, "ab") as fh:  # torn by a crash
            fh.write(line[:40])
        assert list(snap.current().state.images) == [1]
        snap.open_writer().close()  # a writer from the held snapshot cuts the torn line off
        assert path.read_bytes() == held
        with open(path, "ab") as fh:  # an append under way
            fh.write(line[:40])
        handle = snap.current()
        assert list(handle.state.images) == [1]
        assert handle.table_bytes[IMAGES.file] == len(held)
        with open(path, "ab") as fh:
            fh.write(line[40:])
        handle = snap.current()
        assert list(handle.state.images) == [1, 2]
        assert handle.state.images[1] is first.state.images[1]  # parsed past the held rows, not reloaded
        with open_warehouse(root, "ro") as fresh:
            assert (logical_state(handle), handle.stats()) == (logical_state(fresh), fresh.stats())
    finally:
        snap.close()


def test_snapshot_reloads_when_facts_and_dimensions_change_together(root):
    def assert_fresh(handle):
        with open_warehouse(root, "ro") as fresh:
            assert (logical_state(handle), handle.stats()) == (logical_state(fresh), fresh.stats())
        seen.append((handle, logical_state(handle)))

    _committed_base(root)
    snap = SnapshotCache(root)
    try:
        seen = []
        assert_fresh(snap.current())
        # new date, image and facts, then a fact file renamed in
        with open_warehouse(root) as wh:
            date_key = wh.ensure_date(20240301)
            key = wh.insert_image(make_image(file_name="b.jpg", capture_date_key=date_key).meta)
            wh.append_facts([make_draft(wh.state.images[key])] * 3)
            wh.rewrite_validation(*annotation(wh.state.facts, {3: ("confirmed", "R1", None, None)}))
        assert_fresh(snap.current())
        assert fact_rows(seen[-1][0].state.facts)[3].validation == "confirmed"
        # a fact file renamed in and an edited dimension row
        with open_warehouse(root) as wh:
            wh.rewrite_validation(*annotation(wh.state.facts, {4: ("species_mismatch", "R2", None, None)}))
        path = root / "dim_species.tbl"
        text = path.read_text()
        assert ",unknown\n" in text
        path.write_text(text.replace(",unknown\n", ",vulnerable\n"))
        assert_fresh(snap.current())
        state = seen[-1][0].state
        assert (fact_rows(state.facts)[4].validation, state.species[1].conservation_status) == ("species_mismatch", "vulnerable")
        # a handle once returned is never changed by later refreshes
        for handle, held in seen:
            assert logical_state(handle) == held
    finally:
        snap.close()


def test_snapshot_writer_matches_full_open(root):
    snap = SnapshotCache(root)
    try:
        with snap.open_writer() as wh:  # no root yet: the writer creates it
            for name in (*(t.file for t in TABLES), "COMMIT"):
                assert (root / name).exists()
            with open_warehouse(root, "ro") as fresh:
                assert logical_state(wh) == logical_state(fresh)
        _committed_base(root)
        with snap.open_writer() as wh:
            with open_warehouse(root, "ro") as fresh:
                assert logical_state(wh) == logical_state(fresh)
            assert wh.upsert_species("TSHE") == 2
            date_key = wh.ensure_date(20240301)
            assert wh.insert_image(make_image(file_name="b.jpg", capture_date_key=date_key).meta) == 2
            assert wh.append_facts([make_draft(wh.state.images[2], species_key=2)]) == [3]
            with pytest.raises(LockHeldError):
                open_warehouse(root, lock_timeout=0.05)
        with open_warehouse(root, "ro") as fresh:
            assert logical_state(snap.current()) == logical_state(fresh)
        with open(root / FACT_TABLE, "a") as fh:  # appended but never committed
            fh.write("4,20240115,1,1,0.5,0.5,0.2,0.2,0.9,5.0,-5.0,,,unvalidated,\n")
        commit = os.stat(root / "COMMIT")
        with snap.open_writer() as wh:  # the writer drops the tail
            assert sorted(fact_rows(wh.state.facts)) == [1, 2, 3]
        assert "\n4,20240115," not in (root / FACT_TABLE).read_text()
        assert os.stat(root / "COMMIT").st_ino == commit.st_ino
        assert (root / "COMMIT").read_text() == "3\n"
        open_warehouse(root, lock_timeout=0.05).close()  # the lock is free
        with open_warehouse(root) as wh:
            assert wh.append_facts([make_draft(wh.state.images[1])]) == [4]
        with snap.open_writer() as wh:
            assert sorted(fact_rows(wh.state.facts)) == [1, 2, 3, 4]
    finally:
        snap.close()


def test_snapshot_refuses_a_fact_file_rewritten_in_place(root, monkeypatch):
    with open_warehouse(root) as wh:
        wh.upsert_species("PSME")
        wh.ensure_date(20240115)
        wh.insert_image(make_image().meta)
        wh.append_facts([make_draft(wh.state.images[1])] * 3)
    path = root / FACT_TABLE
    lines = path.read_bytes().split(b"\n")
    preads = []
    real_pread = os.pread
    monkeypatch.setattr(os, "pread", lambda *args: preads.append(args) or real_pread(*args))
    snap = SnapshotCache(root)
    try:
        assert sorted(fact_rows(snap.current().state.facts)) == [1, 2, 3]
        snap.current()
        assert preads == []  # a refresh that finds no change reads nothing
        with open(path, "r+b") as fh:  # same inode: header and rows 1-2; COMMIT stays 3
            fh.truncate(0)
            fh.write(b"\n".join(lines[:3]) + b"\n")
        message = "fact_tree_metrics.tbl:3: commit marker 3 exceeds last stored fact_id 2"
        with pytest.raises(CorruptTableError, match=message):
            open_warehouse(root, "ro")
        with pytest.raises(CorruptTableError, match=message):
            snap.current()
        assert len(preads) == 1
    finally:
        snap.close()


@pytest.mark.xfail(
    strict=True,
    reason="a refresh re-reads only the last held fact line: an in-place edit of an earlier row is served stale",
)
def test_snapshot_sees_an_in_place_edit_of_an_earlier_row(root):
    with open_warehouse(root) as wh:
        wh.upsert_species("PSME")
        wh.ensure_date(20240115)
        wh.insert_image(make_image().meta)
        wh.append_facts([make_draft(wh.state.images[1])] * 3)
    path = root / FACT_TABLE
    snap = SnapshotCache(root)
    try:
        assert fact_rows(snap.current().state.facts)[2].confidence == 0.9
        data = path.read_bytes()
        start = data.index(b"\n2,")
        with open(path, "r+b") as fh:  # same inode and size: fact 2's confidence 0.9 becomes 0.8
            fh.seek(start)
            fh.write(data[start : data.index(b"\n", start + 1)].replace(b",0.9,", b",0.8,"))
        with open_warehouse(root) as wh:
            wh.append_facts([make_draft(wh.state.images[1])])
        with open_warehouse(root, "ro") as fresh:
            assert fact_rows(fresh.state.facts)[2].confidence == 0.8
        assert fact_rows(snap.current().state.facts)[2].confidence == 0.8
    finally:
        snap.close()


def test_handed_out_snapshot_never_changes(root):
    with open_warehouse(root) as wh:
        populate_random(wh, random.Random(14), n_images=6, max_facts_per_image=8)
        facts = list(fact_rows(wh.state.facts).values())
        wh.save_survey("s1", [make_record(f"R{f.fact_id}", f.geo_x, f.geo_y, "TSHE") for f in facts[::3]])
    spec = QuerySpec(group_by=("species",), measures=MEASURES)

    def seen(handle):
        return len(handle.state.facts), dict(handle.table_bytes), run_query(handle, spec).rows

    snap = SnapshotCache(root)
    try:
        first = snap.current()
        before = seen(first)
        metas, dets = _batch_inputs(2, date_key=20240101, first=100)
        with snap.open_writer() as wh:
            ingest_image_batch(wh, metas, dets, ClassMap(["PSME"]))
        assert len(snap.current().state.facts) == before[0] + 4
        assert seen(first) == before
        with snap.open_writer() as wh:
            assert reconcile_warehouse(wh).facts_updated == before[0] + 4
        assert run_query(snap.current(), spec).rows != before[2]
        assert seen(first) == before
    finally:
        snap.close()


@pytest.mark.parametrize(
    "cell, value, reason",
    [
        (0, str(2**63), f"fact_id {2**63} out of range"),
        (2, str(2**31), f"image_key outside [{-(2**31)}, {2**31 - 1}]"),
    ],
)
def test_fact_keys_outside_the_column_range_are_refused(root, cell, value, reason):
    with open_warehouse(root) as wh:
        wh.upsert_species("PSME")
        wh.ensure_date(20240115)
        wh.insert_image(make_image().meta)
        wh.insert_image(make_image(file_name="far.jpg").meta)
        wh.append_facts([make_draft(wh.state.images[1])] * 2)
    # image 2 gets key 2**31, and fact 1 refers to it
    images = root / "dim_image.tbl"
    images.write_text(images.read_text().replace("\n2,far.jpg,", f"\n{2**31},far.jpg,"))
    lines = (root / FACT_TABLE).read_text().splitlines()
    cells = lines[1].split(",")
    cells[cell] = value
    lines[1] = ",".join(cells)
    (root / FACT_TABLE).write_text("\n".join(lines) + "\n")
    with pytest.raises(CorruptTableError) as err:
        open_warehouse(root, "ro")
    assert (err.value.line_no, err.value.reason) == (2, reason)


def test_loaded_facts_hold_at_most_150_bytes_each(tmp_path):
    root = tmp_path / "wh"
    with open_warehouse(root) as wh:
        populate_random(wh, random.Random(7), n_images=270, max_facts_per_image=80)
        n = len(wh.state.facts)
    assert n >= 10_000
    tracemalloc.start()
    try:
        wh = open_warehouse(root, "ro")
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    with wh:
        assert len(wh.state.facts) == n
    assert held / n <= 150, f"{held / n:.0f} B held per fact"


def _facts_root(root, n):
    """A root of n committed facts on one image."""
    with open_warehouse(root) as wh:
        wh.upsert_species("PSME")
        wh.ensure_date(20240115)
        wh.insert_image(make_image().meta)
        wh.append_facts([make_draft(wh.state.images[1])] * n)


@pytest.mark.parametrize("n", [1, 200, 2000])
def test_clean_writer_open_parses_at_most_two_fact_lines(tmp_path, monkeypatch, n):
    root = tmp_path / "wh"
    _facts_root(root, n)
    with counted_fact_parses(monkeypatch) as parses:
        open_warehouse(root).close()
        assert len(parses) <= 2
        open_warehouse(root, "ro").close()
        assert len(parses) <= 2 + n


def test_writer_reads_all_rows_when_the_tail_is_longer_than_it_reads(root, monkeypatch):
    _facts_root(root, 3)
    with open_warehouse(root) as wh:
        wh.rewrite_validation(*annotation(wh.state.facts, {3: ("confirmed", "R" * 5000, None, None)}))
    (root / CHECKPOINT).unlink()  # so that the full load parses the rows from the text
    with counted_fact_parses(monkeypatch) as parses:
        with open_warehouse(root) as wh:
            assert len(parses) == 3
            assert wh.append_facts([make_draft(wh.state.images[1])]) == [4]
    with open_warehouse(root, "ro") as wh:
        assert fact_rows(wh.state.facts)[3].matched_record_id == "R" * 5000
        assert sorted(fact_rows(wh.state.facts)) == [1, 2, 3, 4]


def test_lazily_read_facts_match_a_fresh_open(root, monkeypatch):
    _facts_root(root, 5)
    metas, dets = _batch_inputs(3)
    with counted_fact_parses(monkeypatch) as parses:
        with open_warehouse(root) as wh:
            report = ingest_image_batch(wh, metas, dets, ClassMap(["PSME"]))
            assert report.facts_added == 6 and (root / "COMMIT").read_text() == "11\n"
            tail = len(parses)
            assert tail <= 2  # no row read but the last two
            facts = wh.state.facts
            assert len(parses) == tail + 11
            with open_warehouse(root, "ro") as fresh:
                assert fact_rows(facts) == fact_rows(fresh.state.facts)
                assert wh.table_bytes == fresh.table_bytes
            assert list(fact_rows(facts)) == list(range(1, 12))  # each appended row held once
            assert wh.append_facts([make_draft(wh.state.images[2])]) == [12]
            assert wh.state.facts is facts and list(fact_rows(facts)) == list(range(1, 13))
        with open_warehouse(root, "ro") as fresh:
            assert logical_state(fresh)[3] == sorted(fact_rows(facts).items())


def test_closed_lazy_writer_is_freed_and_still_reads_its_rows(root):
    _facts_root(root, 3)
    wh = open_warehouse(root)
    wh.append_facts([make_draft(wh.state.images[1])])
    state, handle = wh.state, weakref.ref(wh)
    wh.close()
    del wh
    assert handle() is None  # no reference cycle keeps a closed writer alive
    with open_warehouse(root) as other:  # a later writer moves COMMIT on
        other.append_facts([make_draft(other.state.images[1])])
    assert list(fact_rows(state.facts)) == [1, 2, 3, 4]


def _long_record(fact_id):
    """A root whose fact fact_id has a record id longer than the bytes a
    writer's open reads back from the end of the fact file."""

    def build(root):
        _facts_root(root, 3)
        with open_warehouse(root) as wh:
            wh.rewrite_validation(*annotation(wh.state.facts, {fact_id: ("confirmed", "R" * 5000, None, None)}))

    return build


def _fact_file_edit(edit):
    def build(root):
        _facts_root(root, 2)
        path = root / FACT_TABLE
        clean = path.read_bytes()
        path.write_bytes(edit(clean))
        return clean

    return build


@pytest.mark.parametrize(
    "build, lazy, ids",
    [
        (lambda root: open_warehouse(root).close(), True, []),  # header only, COMMIT 0
        (lambda root: _facts_root(root, 1), True, [1]),
        (lambda root: _facts_root(root, 2), True, [1, 2]),
        (_fact_file_edit(lambda data: data.removesuffix(b"\n")), False, [1, 2]),
        (_fact_file_edit(lambda data: data + _uncommitted_row(3).encode()), False, [1, 2]),
        (_fact_file_edit(lambda data: data + b"3,20240115,1,1,0.5"), False, [1, 2]),
        (_long_record(3), False, [1, 2, 3]),
        (_long_record(2), False, [1, 2, 3]),
    ],
    ids=[
        "header-only",
        "one-row",
        "two-rows",
        "unterminated-last-row",
        "row-past-commit",
        "torn-last-line",
        "last-line-longer-than-the-tail",
        "line-before-last-starts-before-the-tail",
    ],
)
def test_writer_open_by_tail_shape(root, build, lazy, ids, monkeypatch):
    """A clean tail leaves the fact rows unread; any other is loaded whole
    and the fact file cut back to the committed rows. Either way each
    dimension file is loaded once."""
    clean = build(root) or (root / FACT_TABLE).read_bytes()
    loads = []
    real_load = Warehouse._load_dimension
    with monkeypatch.context() as m:
        m.setattr(Warehouse, "_load_dimension", lambda wh, table, data: loads.append(table) or real_load(wh, table, data))
        wh = open_warehouse(root)
    assert loads == list(DIMENSIONS)
    with wh:
        assert ("facts" not in vars(wh.state)) == lazy
        assert list(fact_rows(wh.state.facts)) == ids
        assert (root / FACT_TABLE).read_bytes() == clean
        assert wh.table_bytes[FACT_TABLE] == len(clean)
        if not ids:
            wh.upsert_species("PSME")
            wh.ensure_date(20240115)
            wh.insert_image(make_image().meta)
        assert wh.append_facts([make_draft(wh.state.images[1])]) == [len(ids) + 1]
    with open_warehouse(root, "ro") as wh:
        assert list(fact_rows(wh.state.facts)) == ids + [len(ids) + 1]
    assert (root / "COMMIT").read_text() == f"{len(ids) + 1}\n"


def _bad_confidence(root, line_no):
    """Confidence 1.5 on line line_no of the fact file; returns the refusal's
    message as a pattern."""
    path = root / FACT_TABLE
    lines = path.read_text().splitlines()
    lines[line_no - 1] = _cell(8, "1.5")(lines, line_no)
    path.write_text("\n".join(lines) + "\n")
    return re.escape(f"{FACT_TABLE}:{line_no}: confidence outside [0, 1]")


@pytest.mark.parametrize("line_no", [10, 11])
def test_writer_refuses_damage_in_the_last_two_lines(root, line_no):
    _facts_root(root, 10)
    message = _bad_confidence(root, line_no)
    for mode in ("ro", "rw"):
        with pytest.raises(CorruptTableError, match=message):
            open_warehouse(root, mode)


def test_writer_does_not_refuse_damage_before_the_tail(root):
    _facts_root(root, 10)
    path = root / FACT_TABLE
    message = _bad_confidence(root, 3)  # fact 2, line 3 of 11
    with pytest.raises(CorruptTableError, match=message):
        open_warehouse(root, "ro")
    metas, dets = _batch_inputs(2)
    with open_warehouse(root) as wh:
        assert ingest_image_batch(wh, metas, dets, ClassMap(["PSME"])).facts_added == 4
    assert (root / "COMMIT").read_text() == "14\n"
    assert path.read_text().splitlines()[-4].startswith("11,")
    with pytest.raises(CorruptTableError, match=message):
        open_warehouse(root, "ro")
    with open_warehouse(root) as wh:
        wh.save_survey("s1", [make_record("R1", 5.0, -5.0)])
        for _ in range(2):  # refused at every access, not only the first
            with pytest.raises(CorruptTableError, match=message):
                reconcile_warehouse(wh)


# -- locking -----------------------------------------------------------------------


def test_writer_lock_excludes_second_writer(root):
    with open_warehouse(root) as wh:
        with pytest.raises(LockHeldError):
            open_warehouse(root, lock_timeout=0.05)
        # readers are unaffected
        with open_warehouse(root, "ro"):
            pass
        assert wh.upsert_species("PSME") == 1
    # released on close
    with open_warehouse(root, lock_timeout=0.05):
        pass


def _die_holding_lock(root, held):
    open_warehouse(root)
    held.set()
    os._exit(0)  # no close, no cleanup: only the kernel releases the lock


def _hold_lock_until(root, held, release, released, finish):
    wh = open_warehouse(root)
    held.set()
    release.wait(60)
    wh.close()
    released.set()
    finish.wait(60)  # stay alive, so that only close() can have freed the lock


def test_lock_of_a_dead_holder_does_not_block(root):
    ctx = multiprocessing.get_context("spawn")
    held = ctx.Event()
    p = ctx.Process(target=_die_holding_lock, args=(root, held))
    p.start()
    p.join(60)
    assert not p.is_alive() and held.is_set()
    with open_warehouse(root, lock_timeout=0.5) as wh:
        assert wh.upsert_species("PSME") == 1


@pytest.mark.parametrize("content", ["", "not-a-pid\n", "dead pid"], ids=["empty", "not-a-pid", "dead-pid"])
def test_lock_file_content_does_not_block(root, content):
    with open_warehouse(root):
        pass
    if content == "dead pid":
        p = multiprocessing.get_context("spawn").Process(target=os.getpid)
        p.start()
        p.join(60)
        assert not p.is_alive()
        content = f"{p.pid}\n"
    (root / "LOCK").write_text(content)
    with open_warehouse(root, lock_timeout=0.5) as wh:
        assert wh.upsert_species("PSME") == 1


def test_live_holder_in_another_process_blocks_until_it_releases(root):
    ctx = multiprocessing.get_context("spawn")
    held, release, released, finish = (ctx.Event() for _ in range(4))
    p = ctx.Process(target=_hold_lock_until, args=(root, held, release, released, finish))
    p.start()
    try:
        assert held.wait(60)
        with pytest.raises(LockHeldError):
            open_warehouse(root, lock_timeout=0.05)
        release.set()
        assert released.wait(60)
        assert p.is_alive()
        with open_warehouse(root, lock_timeout=0.5) as wh:
            assert wh.upsert_species("PSME") == 1
    finally:
        release.set()
        finish.set()
        p.join(60)
    assert not p.is_alive()


# -- surveys ------------------------------------------------------------------------


def test_survey_round_trip_and_immutability(root):
    records = [make_record("R1", 1.5, -2.5, dbh_cm=30.0), make_record("R2", 3.0, 4.0)]
    with open_warehouse(root) as wh:
        assert wh.save_survey("plot-7", records) is True
        # identical re-save is a no-op
        assert wh.save_survey("plot-7", records) is False
        with pytest.raises(SurveyImmutableError):
            wh.save_survey("plot-7", records[:1])
        assert wh.list_survey_ids() == ["plot-7"]
        assert wh.load_survey("plot-7") == records


def test_non_utf8_survey_is_refused_with_its_line(root):
    records = [make_record(f"R{i}", float(i), 0.0) for i in range(3)]
    with open_warehouse(root) as wh:
        wh.upsert_species("PSME")
        wh.save_survey("plot-7", records)
        _append_byte(wh.survey_path("plot-7"), 3)
        for load in (lambda: wh.load_survey("plot-7"), lambda: reconcile_warehouse(wh)):
            with pytest.raises(CorruptTableError) as err:
                load()
            assert (err.value.path.name, err.value.line_no) == ("plot-7.tbl", 3)
            assert "can't decode byte 0xff" in str(err.value)
        with pytest.raises(SurveyImmutableError):
            wh.save_survey("plot-7", records)


def test_survey_id_charset(root):
    with open_warehouse(root) as wh:
        for survey_id in ("../evil", "s1\n"):
            with pytest.raises(Exception) as err:
                wh.save_survey(survey_id, [])
            assert "survey id" in str(err.value)
        assert wh.list_survey_ids() == []


def test_merged_surveys_reject_duplicate_record_ids(root):
    with open_warehouse(root) as wh:
        wh.save_survey("a", [make_record("R1", 0.0, 0.0)])
        wh.save_survey("b", [make_record("R1", 9.0, 9.0)])
        with pytest.raises(DuplicateRecordError):
            wh.load_all_survey_records()


def test_survey_with_quoted_cells_loads_through_the_csv_reader(root):
    records = [make_record("R,1", 1.5, -2.5, dbh_cm=30.0), make_record('R"2', 3.0, 4.0, "PS,ME", height_m=12.5)]
    with open_warehouse(root) as wh:
        wh.save_survey("q", records)
        assert b'"R,1"' in wh.survey_path("q").read_bytes()
        assert wh.load_survey("q") == records
        assert wh.load_all_survey_records().records() == records


def test_header_only_survey_holds_no_records(root):
    with open_warehouse(root) as wh:
        wh.save_survey("empty", [])
        assert wh.survey_path("empty").read_text() == SURVEYS.header + "\n"
        assert wh.load_survey("empty") == []
        assert len(wh.load_all_survey_records()) == 0
        wh.save_survey("one", [make_record("R1", 0.0, 0.0)])
        assert wh.load_all_survey_records().records() == [make_record("R1", 0.0, 0.0)]


def test_merged_surveys_are_the_ingested_records_in_survey_order(root):
    with open_warehouse(root) as wh:
        ingest_species_registry(wh, [REGISTRY_HEADER, "PSME,Pseudotsuga menziesii,Douglas-fir,least_concern"])
        second = ingest_survey(wh, "s2", [SURVEY_HEADER, "R3,-1e-7,7,psme,,2.5,2024-03-01"])
        first = ingest_survey(wh, "s1", [SURVEY_HEADER, "R1,1.5,-2.5,PSME,30.5,,2024-01-10", "R2,600000,5200000,PSME,,,2024-01-11"])
        assert wh.load_survey("s1") == first
        assert wh.load_survey("s2") == second
        assert wh.load_all_survey_records().records() == first + second


@pytest.mark.parametrize(
    "bad_line, reason",
    [
        ("R2,abc,0.0,PSME,,,20240110", "could not convert string to float: 'abc'"),
        ("R2,1.0,0.0,PSME,,x,20240110", "could not convert string to float: 'x'"),
        ("R2,1.0,0.0,PSME,,,2024-01-10", "invalid literal for int() with base 10: '2024-01-10'"),
        ("R2,1.0,0.0,PSME,,,20240110,extra", "expected 7 fields, got 8"),
        ('"R,2",1.0,0.0,PSME,,', "expected 7 fields, got 6"),
        ("", "expected 7 fields, got 0"),
    ],
)
def test_bad_survey_line_is_refused_with_its_path_and_line(root, bad_line, reason):
    with open_warehouse(root) as wh:
        wh.save_survey("s", [make_record("R1", 1.5, -2.5)])
        path = wh.survey_path("s")
        # line 3 is bad, and so is line 4: the first is named
        path.write_bytes(path.read_bytes() + (bad_line + "\nR3,0.0,0.0,PSME,,,bad\n").encode())
        for load in (lambda: wh.load_survey("s"), wh.load_all_survey_records, lambda: reconcile_warehouse(wh)):
            with pytest.raises(CorruptTableError) as err:
                load()
            assert str(err.value) == f"{path}:3: {reason}"


_SURVEY_NUMBERS = st.sampled_from(["1.5", "-0.0", "600012.345678901", "1e16", "nan", " 2 ", "1_0"])
_SURVEY_BAD_CELLS = st.sampled_from(["", "abc", "-3", "2024-01-10", "1.0", "x,y", 'q"t'])
# Edits of one survey line: as csv_line renders its cells (quoting a comma
# or a quote), or its cells joined raw, or blank, a cell short or long, with
# a CR, or not UTF-8
_SURVEY_LINE_EDITS = {
    "csv": lambda cells: csv_line(cells).encode(),
    "raw": lambda cells: ",".join(cells).encode(),
    "blank": lambda cells: b"",
    "short": lambda cells: csv_line(cells[:-1]).encode(),
    "long": lambda cells: csv_line([*cells, "1"]).encode(),
    "cr": lambda cells: csv_line(cells).encode() + b"\r",
    "latin-1": lambda cells: csv_line(cells).encode("latin-1", "replace") + b"\xe9",
}


@st.composite
def _survey_file(draw):
    """The bytes of a hand-assembled survey file: the header and up to 6
    lines, mostly good, each perhaps with a bad cell or edited, their text
    holding commas and quotes in some files, perhaps with no last newline."""
    texts = st.text(st.sampled_from('R1é樹 x,"' if draw(st.booleans()) else "R1é樹 x"), max_size=4)
    lines = [SURVEYS.header.encode()]
    for _ in range(draw(st.integers(0, 6))):
        cells = [draw(texts), draw(_SURVEY_NUMBERS), draw(_SURVEY_NUMBERS), draw(texts)]
        cells += [draw(st.just("") | _SURVEY_NUMBERS), draw(st.just("") | _SURVEY_NUMBERS), "20240110"]
        if draw(st.integers(0, 4)) == 0:
            cells[draw(st.integers(0, 6))] = draw(_SURVEY_BAD_CELLS)
        lines.append(_SURVEY_LINE_EDITS[draw(st.sampled_from(["csv"] * 8 + [*_SURVEY_LINE_EDITS]))](cells))
    return b"\n".join(lines) + b"\n" * draw(st.integers(0, 1))


def _survey_load(wh: Warehouse):
    """The survey s's columns, each cell by its repr (-0.0 is not 0.0), or
    the refusal, file:line and all."""
    try:
        columns = wh.survey_columns("s")
    except CorruptTableError as exc:
        return str(exc)
    return [[repr(cell) for cell in getattr(columns, name)] for name in SurveyRecord._fields]


_GOOD_SURVEY = SURVEYS.text([make_record("R1", 1.5, -0.0, dbh_cm=30.0), make_record("R2", 600012.345678901, 2.0)])


@settings(max_examples=150)
@given(data=_survey_file())
@example(data=_GOOD_SURVEY.encode())
@example(data=SURVEYS.text([make_record("R,1", 1.5, -2.5), make_record('R"2', 3.0, 4.0, "PS,ME")]).encode())
@example(data=SURVEYS.text([make_record('R"1', 1.5, -2.5)]).encode())
@example(data=(_GOOD_SURVEY + "\nR3,1.0,2.0,PSME,,,20240110\n").encode())
@example(data=(_GOOD_SURVEY + "R3,1.0,abc,PSME,,,20240110\nR4,x,,,,,\n").encode())
@example(data=(_GOOD_SURVEY + "R3,1.0,2.0,PSM\xe9,,,20240110\n").encode("latin-1"))
def test_survey_loads_a_column_at_a_time_as_one_line_at_a_time(tmp_path_factory, data):
    """A survey file gives the columns the row loop gives, or its refusal,
    file:line and all, whether SURVEYS.columns reads it or gives None."""
    root = tmp_path_factory.mktemp("survey") / "wh"
    with open_warehouse(root) as wh:
        wh.save_survey("s", [])
        wh.survey_path("s").write_bytes(data)
        by_columns = _survey_load(wh)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(SURVEYS, "columns", lambda lines: None)
            assert _survey_load(wh) == by_columns
    shutil.rmtree(root)


@pytest.mark.parametrize(
    "surveys, message",
    [
        ({"a": ["R1", "R2", "R1"]}, "record id 'R1' appears in surveys 'a' and 'a'"),
        ({"a": ["R1", "R2"], "b": ["R3", "R2", "R1"]}, "record id 'R2' appears in surveys 'a' and 'b'"),
        ({"a": ["R1"], "b": ["R2", "R2", "R1"]}, "record id 'R2' appears in surveys 'b' and 'b'"),
    ],
)
def test_merged_surveys_name_the_first_repeated_record_id(root, surveys, message):
    with open_warehouse(root) as wh:
        for sid, ids in surveys.items():
            wh.save_survey(sid, [make_record(rid, float(i), 0.0) for i, rid in enumerate(ids)])
        with pytest.raises(DuplicateRecordError) as err:
            wh.load_all_survey_records()
        assert str(err.value) == message


def _registry_name(wh, brk):
    ingest_species_registry(wh, [REGISTRY_HEADER, f'TSHE,"Tsuga{brk}heterophylla",western hemlock,least_concern'])


def _survey_record_id(wh, brk):
    ingest_survey(wh, "s1", [SURVEY_HEADER, f'"R{brk}1",1.0,2.0,PSME,,,2024-01-10'])


def _image_file_name(wh, brk):
    wh.insert_image(make_image(file_name=f"img{brk}2.jpg").meta)


# Table files are split into lines before CSV parsing, so a stored line
# break made every later open fail.
@pytest.mark.parametrize("brk", ["\n", "\r"], ids=["lf", "cr"])
@pytest.mark.parametrize("store", [_registry_name, _survey_record_id, _image_file_name])
def test_text_with_line_break_is_refused(root, store, brk):
    with _base(root) as wh:
        before = logical_state(wh)
        with pytest.raises(InvalidMetadataError, match="line break"):
            store(wh, brk)
        assert logical_state(wh) == before
    with open_warehouse(root, "ro") as wh:
        assert logical_state(wh) == before


def _species_code(wh, text):
    wh.upsert_species(text)


def _image_file(wh, text):
    wh.insert_image(make_image(image_key=0, file_name=text, checksum="0" * 64).meta)


def _survey_record(wh, text):
    wh.save_survey("s1", [make_record(text, 1.0, 2.0)])


def _annotated_record(wh, text):
    wh.rewrite_validation(*annotation(wh.state.facts, {1: ("confirmed", text, None, None)}))


def _appended_record(wh, text):
    wh.append_facts([make_draft(wh.state.images[1], validation="confirmed", matched_record_id=text)])


def _stored_files(root):
    return {path: path.read_bytes() for path in root.rglob("*") if path.is_file()}


# A stored line is split on line breaks and decoded as UTF-8, and a quoted
# cell goes through csv.reader, which refuses a field past 131,072 characters.
@pytest.mark.parametrize(
    "text, problem",
    [
        ("R\n1", "contains a line break"),
        ("PS\ud800", "does not encode as UTF-8"),
        ("A," * 70_000, "is longer than 131072 characters"),
    ],
    ids=["line-break", "surrogate", "long"],
)
@pytest.mark.parametrize("store", [_species_code, _image_file, _survey_record, _annotated_record, _appended_record])
def test_writers_refuse_text_that_no_load_reads_back(root, store, text, problem):
    before = _committed_base(root)
    files = _stored_files(root)
    with open_warehouse(root) as wh:
        with pytest.raises(WarehouseError, match=re.escape(problem)) as err:
            store(wh, text)
        assert len(str(err.value)) < 200  # a long text is not echoed whole
        assert logical_state(wh) == before
        assert _stored_files(root) == files
        wh.ensure_date(20240301)  # the handle still writes
    for mode in ("ro", "rw"):
        with open_warehouse(root, mode) as wh:
            assert sorted(wh.state.dates) == [20240115, 20240301]
            assert logical_state(wh)[1:] == before[1:]


def test_a_confirmed_fact_with_an_empty_record_id_is_refused(root):
    # an empty record id is stored as an empty cell, which loads as no record
    before = _committed_base(root)
    with open_warehouse(root) as wh:
        with pytest.raises(IntegrityError, match="matched_record_id inconsistent with validation state"):
            _appended_record(wh, "")
        wh.append_facts([make_draft(wh.state.images[1], matched_record_id="")])
    with open_warehouse(root, "ro") as wh:
        assert fact_rows(wh.state.facts)[3].matched_record_id is None
        assert logical_state(wh)[:3] == before[:3]


# -- stats -------------------------------------------------------------------------


def test_stats_counts_and_bytes(root):
    with _base(root) as wh:
        image = wh.state.images[1]
        wh.append_facts([make_draft(image)])
        stats = wh.stats()
    assert stats.image_count == 1
    assert stats.fact_count == 1
    assert stats.image_payload_bytes == 4_000_000
    for table in stats.tables:
        assert table.file_bytes == os.path.getsize(root / f"{table.name}.tbl")
    with open_warehouse(root, "ro") as wh:
        assert wh.stats() == stats  # a load counts the bytes the writes wrote
    columns, rows = stats_rows(stats)
    assert columns == ("name", "row_count", "file_bytes", "mib")
    assert [r[0] for r in rows] == [
        "dim_date",
        "dim_image",
        "dim_species",
        "fact_tree_metrics",
        "image_payload",
    ]


def test_fact_header_exact(root):
    with open_warehouse(root):
        pass
    first = (root / FACT_TABLE).read_text().splitlines()[0]
    assert first == FACT_HEADER == (
        "fact_id,date_key,image_key,species_key,bbox_cx,bbox_cy,bbox_w,bbox_h,"
        "confidence,geo_x,geo_y,height_m,dbh_cm,validation,matched_record_id"
    )


# -- stored bytes ----------------------------------------------------------------------

STORED_FILES = (*(t.file for t in TABLES), "COMMIT")
REFERENCE_DIGESTS = {
    "dim_date.tbl": "236a072468aedb9bb783a97bae6e49411923c3d64d63312467a4cf6955088e5a",
    "dim_image.tbl": "3139c4cac1683cedbc6caa68a2a828d757acfd85b3de525890f2e8d29f91acad",
    "dim_species.tbl": "b1ef2327b3324df70990f2a4fa6478d8e137e76636d8d390664aa476c6a413eb",
    "fact_tree_metrics.tbl": "0753e823e15ed742790407e95e12834fc30fc8021f973d33466e67d12067cc62",
    "COMMIT": "e4150f95f4c8ee60d27c7e7fbf59f1f3eebe130e1262cb9ea4788a1a20c109e6",
}
REWRITTEN_FACTS_DIGEST = "c30c8b70e5c4209a0dabf1951e46a14f9d31509e1a4a0c7964b96388b5b0ce40"


def _digests(root):
    return {name: hashlib.sha256((root / name).read_bytes()).hexdigest() for name in STORED_FILES}


def test_stored_bytes_are_pinned(reference_root, reference_copy):
    assert _digests(reference_root) == REFERENCE_DIGESTS
    with open_warehouse(reference_copy) as wh:
        wh.rewrite_validation(*annotation(wh.state.facts, {
            1: ("confirmed", "R1", 12.5, 30.25),
            2: ("species_mismatch", "R2", None, None),
            3: ("unmatched", None, None, None),
        }))
    assert _digests(reference_copy) == {**REFERENCE_DIGESTS, FACT_TABLE: REWRITTEN_FACTS_DIGEST}


_CELL_FLOATS = st.one_of(
    st.floats(),  # NaN and the infinities among them
    st.sampled_from([5e-324, 2.2250738585072014e-308 / 3, 1e16, -1e16, 0.0, -0.0, 0.1, 600012.345678901]),
)
_OPTIONAL_FLOATS = st.none() | _CELL_FLOATS
_RECORD_IDS = st.none() | st.text(st.sampled_from(',"\0 \r\néß樹aZ9') | st.characters(), max_size=12)


def _rendered(render, cells):
    """render(cells) as UTF-8 bytes, or the csv.Error it raises (csv.writer
    refuses a NUL on Python 3.10)."""
    try:
        return render(cells).encode("utf-8", "surrogatepass")
    except csv.Error as exc:
        return repr(exc)


@given(
    st.builds(
        FactRow,
        st.integers(-(2**63), 2**63 - 1),
        *[st.integers(-(2**31), 2**31 - 1)] * 3,
        *[_CELL_FLOATS] * 7,
        _OPTIONAL_FLOATS,
        _OPTIONAL_FLOATS,
        st.sampled_from(VALIDATION_STATES),
        _RECORD_IDS,
    )
)
@example(FactRow(1, 20240115, 1, 1, 0.5, 0.5, 0.2, 0.2, 0.9, 5.0, -5.0, None, 1e16, "confirmed", "r,1"))
@example(FactRow(2, 20240115, 1, 1, 5e-324, -0.0, 0.2, 0.2, 0.9, 5.0, -5.0, 12.5, None, "species_mismatch", 'r"2'))
@example(FactRow(3, 20240115, 1, 1, 0.5, 0.5, 0.2, 0.2, 0.9, 5.0, -5.0, None, None, "confirmed", " r\0樹 "))
def test_fact_line_renders_as_csv_line(row):
    assert _rendered(storage._fact_line, row) == _rendered(csv_line, FACTS.cells(row))


# Storable and read back as they are: no empty id (an empty cell loads as
# None), line break, lone surrogate or NUL (csv.reader refuses it on 3.10).
_STORED_RECORD_IDS = st.none() | st.text(
    st.sampled_from(',"éß樹 aZ9') | st.characters(exclude_categories=("Cs",), exclude_characters="\r\n\0"),
    min_size=1,
    max_size=12,
)
_NUMBER_FLOATS = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([5e-324, 2.2250738585072014e-308 / 3, -0.0, 0.0, 1e16, 600012.345678901]),
)


def _reprs(cells):
    return [repr(cell) for cell in cells]  # a float by its repr: -0.0 is not 0.0


@given(
    st.builds(
        FactRow,
        st.integers(-(2**63), 2**63 - 1),
        *[st.integers(-(2**31), 2**31 - 1)] * 3,
        *[_NUMBER_FLOATS] * 7,
        st.none() | _NUMBER_FLOATS,
        st.none() | _NUMBER_FLOATS,
        st.sampled_from(VALIDATION_STATES),
        _STORED_RECORD_IDS,
    )
)
@example(FactRow(1, 20240115, 1, 1, 5e-324, -0.0, 0.2, 0.2, 0.9, 5.0, -5.0, None, 12.5, "confirmed", 'r,"1'))
def test_the_unrolled_fact_row_functions_follow_fact_columns(row):
    """_fact_line, _fact_row and FactColumns.append spell the columns out by
    hand; each must give back the FactRow (model.FACT_COLUMNS) it was given."""
    assert _reprs(storage._fact_row(storage._cells(storage._fact_line(row)))) == _reprs(row)
    facts = FactColumns()
    facts.append(row)
    assert [_reprs(cells) for cells in facts.cells()] == [_reprs(row)]


_STORED_TEXTS = st.text(
    st.sampled_from(',"éß樹 aZ9') | st.characters(exclude_categories=("Cs",), exclude_characters="\r\n\0"), max_size=12
)
# Per type of a row field, values that a stored cell reads back as they are
_FIELD_VALUES = {
    int: st.integers(-(2**63), 2**63 - 1),
    float: _NUMBER_FLOATS,
    float | None: st.none() | _NUMBER_FLOATS,
    str: _STORED_TEXTS,
    str | None: st.none() | _STORED_TEXTS.filter(bool),  # an empty cell loads as None
}


def _rows(row_type):
    """Rows of a NamedTuple type, each field drawn by its declared type (a
    NamedTuple field, such as a Geotransform, by its own fields)."""
    hints = typing.get_type_hints(row_type).values()
    return st.builds(row_type, *(_rows(hint) if hasattr(hint, "_fields") else _FIELD_VALUES[hint] for hint in hints))


def _header_names(row_type) -> list[str]:
    """A row type's fields, a geotransform as its six gt_ cells."""
    return [
        name
        for field in row_type._fields
        for name in (["gt_" + name for name in Geotransform._fields] if field == "geotransform" else [field])
    ]


@pytest.mark.parametrize("table", [DATES, SPECIES, IMAGES, SURVEYS], ids=["date", "species", "image", "survey"])
@given(data=st.data())
def test_a_table_is_described_by_its_row_type_and_converters(table, data):
    """The header is the row type's fields, there is a converter per column,
    and a row that Table.lines renders parses back, through the converters,
    to the row it was (each cell by its repr), its fields drawn by their
    declared types."""
    assert table.header.split(",") == _header_names(table.type)
    assert len(table.convert) == table.width
    row = data.draw(_rows(table.type))
    line = table.lines([row])
    assert line.count("\n") == 1 and line.endswith("\n")
    assert _reprs(table.parse(storage._cells(line[:-1]))) == _reprs(row)


@given(row=_rows(FactRow))
def test_the_fact_converters_parse_a_line_as_the_unrolled_row_function_does(row):
    """FACTS.convert, with which writers check a fact's cells, converts the
    cells of a fact line as _fact_row does."""
    cells = storage._cells(csv_line(row))
    assert _reprs(dataclasses.replace(FACTS, row=None).parse(cells)) == _reprs(storage._fact_row(cells))
