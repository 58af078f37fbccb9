import contextlib
import csv
import hashlib
import multiprocessing
import os
import random
import re
import sys
import threading
import tracemalloc
import weakref
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from canopydw import storage
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
from canopydw.model import VALIDATION_STATES, BoundingBox, FactRow, FactTreeMetric, ValidationUpdate, encode_date_key
from canopydw.report import csv_line
from canopydw.query import MEASURES, QuerySpec, run_query
from canopydw.reconcile import reconcile_warehouse
from canopydw.storage import (
    FACTS,
    IMAGES,
    SPECIES,
    TABLES,
    Warehouse,
    SnapshotCache,
    open_warehouse,
    stats_rows,
)

from helpers import (
    checksum_for,
    logical_state,
    make_draft,
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
        assert wh.state.facts == {}
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


def test_empty_batch_is_noop(root):
    with _base(root) as wh:
        assert wh.append_facts([]) == []
        assert (root / "COMMIT").read_text() == "0\n"


# -- validation rewrites -----------------------------------------------------------


def test_rewrite_validation(root):
    with _base(root) as wh:
        image = wh.state.images[1]
        wh.append_facts([make_draft(image), make_draft(image)])
        n = wh.rewrite_validation(
            {1: ValidationUpdate("confirmed", "R1", height_m=12.0)}
        )
        assert n == 1
        fact = wh.state.facts[1]
        assert (fact.validation, fact.matched_record_id, fact.height_m) == ("confirmed", "R1", 12.0)
        assert wh.state.facts[2].validation == "unvalidated"
    with open_warehouse(root, "ro") as wh:
        assert wh.state.facts[1].validation == "confirmed"
        assert wh.state.facts[1].height_m == 12.0


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
            wh.rewrite_validation({2: ValidationUpdate("unmatched", None)})
    assert replaced == [FACT_TABLE]
    assert (root / "COMMIT").read_text() == "2\n"
    with open_warehouse(root, "ro") as wh:
        assert wh.state.facts[2].validation == "unmatched"


def test_rewrite_validation_unknown_fact(root):
    with _base(root) as wh:
        with pytest.raises(UnknownFactError):
            wh.rewrite_validation({7: ValidationUpdate("unmatched", None)})
        assert wh.rewrite_validation({}) == 0


def test_rewrite_validation_refuses_bad_state_before_writing(root, monkeypatch):
    with _base(root) as wh:
        wh.append_facts([make_draft(wh.state.images[1])])
        stored = (root / FACT_TABLE).read_bytes()
        with _replaced_files(monkeypatch) as replaced:
            with pytest.raises(UnknownFactError, match="fact 1: bad validation state 'bogus'"):
                wh.rewrite_validation({1: ValidationUpdate("bogus", None)})
        assert replaced == []
        assert wh.state.facts[1].validation == "unvalidated"
    assert (root / FACT_TABLE).read_bytes() == stored


def test_failed_rewrite_validation_leaves_facts_and_file(root, monkeypatch):
    with _base(root) as wh:
        wh.append_facts([make_draft(wh.state.images[1])] * 2)
        facts, table_bytes = dict(wh.state.facts), dict(wh.table_bytes)
        stored = (root / FACT_TABLE).read_bytes()
        with monkeypatch.context() as m:
            m.setattr(storage, "_atomic_write", _failing_atomic_write)
            with pytest.raises(OSError, match="injected"):
                wh.rewrite_validation({2: ValidationUpdate("unmatched", None)})
        assert (wh.state.facts, wh.table_bytes) == (facts, table_bytes)
        assert (root / FACT_TABLE).read_bytes() == stored
        # the handle goes on from the rows it held
        assert wh.rewrite_validation({2: ValidationUpdate("unmatched", None)}) == 1
    with open_warehouse(root, "ro") as wh:
        assert wh.state.facts[2].validation == "unmatched"


def test_rewrite_validation_keeps_measures_when_update_omits_them(root):
    with _base(root) as wh:
        image = wh.state.images[1]
        wh.append_facts([make_draft(image, height_m=30.0, dbh_cm=55.0)])
        wh.rewrite_validation({1: ValidationUpdate("species_mismatch", "R9")})
        fact = wh.state.facts[1]
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
    with open_warehouse(root) as wh:
        populate_random(wh, rng, n_images=25, max_facts_per_image=4)
        wh.save_survey("s1", [make_record("R1", 1.0, 2.0)])
        before = logical_state(wh)
        next_ids = (wh._next_image_key, wh._next_species_key, wh._next_fact_id)
    with open_warehouse(root, "ro") as wh:
        assert logical_state(wh) == before
        assert (wh._next_image_key, wh._next_species_key, wh._next_fact_id) == next_ids


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
        assert sorted(wh.state.facts) == [1, 2]
    # an rw open repairs the file and reuses the id
    with open_warehouse(root) as wh:
        assert logical_state(wh) == before
        assert wh.append_facts([make_draft(wh.state.images[1])]) == [3]
    with open_warehouse(root, "ro") as wh:
        assert sorted(wh.state.facts) == [1, 2, 3]


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
        assert sorted(wh.state.facts) == [1, 2]
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
        assert sorted(wh.state.facts) == [1, 2]
    with open_warehouse(root) as wh:
        assert sorted(wh.state.facts) == [1, 2]
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
        assert sorted(wh.state.facts) == [1, 2, 3]
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
    # dim_image: file and directory; the fact append; COMMIT: file and directory
    assert counts[1] == counts[20] == (5, [IMAGES.file, "COMMIT"])


def test_batch_writes_nothing_until_it_ends(root):
    before = _committed_base(root)
    with open_warehouse(root) as wh:
        with wh.batch():
            date_key = wh.ensure_date(20240301)
            key = wh.insert_image(make_image(file_name="b.jpg", capture_date_key=date_key).meta)
            assert wh.append_facts([make_draft(wh.state.images[key])] * 2) == [3, 4]
            assert wh.append_facts([make_draft(wh.state.images[key])]) == [5]
            assert sorted(wh.state.facts) == [1, 2]  # staged rows are not committed yet
            with open_warehouse(root, "ro") as ro:
                assert logical_state(ro) == before
        assert sorted(wh.state.facts) == [1, 2, 3, 4, 5]
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
        assert sorted(wh.state.facts) == [1, 2, 3, 4, 5, 6]


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
        assert sorted(wh.state.facts) == list(range(1, len(before[3]) + 4 * 15 + 1))
        assert len(wh.state.images) == 1 + 4 * 5


def _ingest_and_die(root, crash_at):
    """Ingests a batch that changes every dimension and exits at crash_at."""
    real_write = storage._atomic_write

    def atomic_write(path, text):
        if path.name == "COMMIT":  # the facts are appended, COMMIT not yet moved
            os._exit(0)
        written = real_write(path, text)
        if path.name == crash_at:  # the last dimension is rewritten, no fact appended
            os._exit(0)
        return written

    storage._atomic_write = atomic_write
    metas, dets = _batch_inputs(4, date_key=20240301)
    with open_warehouse(root) as wh:
        ingest_image_batch(wh, metas, dets, ClassMap(["PSME", "TSHE"]))
    os._exit(1)  # not reached: the batch commits after its last rewrite


@pytest.mark.parametrize("crash_at", [IMAGES.file, "COMMIT"], ids=["before-append", "before-commit"])
def test_crash_between_dimension_rewrites_and_commit(root, crash_at):
    before = _committed_base(root)
    committed_facts = (root / FACT_TABLE).read_bytes()
    p = multiprocessing.get_context("spawn").Process(target=_ingest_and_die, args=(root, crash_at))
    p.start()
    p.join(60)
    assert p.exitcode == 0
    # the dimension rewrites reached disk, COMMIT did not move
    assert b"TSHE" in (root / SPECIES.file).read_bytes()
    assert b"img_0005.jpg" in (root / IMAGES.file).read_bytes()
    assert (root / "COMMIT").read_text() == "2\n"
    facts_on_disk = (root / FACT_TABLE).read_bytes()
    assert facts_on_disk.startswith(committed_facts)
    assert (facts_on_disk != committed_facts) == (crash_at == "COMMIT")
    for mode in ("ro", "rw"):
        with open_warehouse(root, mode) as wh:
            assert sorted(wh.state.facts.items()) == before[3]
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
        assert sorted(wh.state.facts.items()) == before[3]
        # the handle goes on from the committed facts: no fact_id was burned
        assert wh.append_facts([make_draft(wh.state.images[2])]) == [3]
    with open_warehouse(root, "ro") as wh:
        assert sorted(wh.state.facts) == [1, 2, 3]
        assert len(wh.state.images) == 4


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


@pytest.mark.parametrize("cached", [False, True], ids=["open", "cache"])
@pytest.mark.parametrize("case", list(CORRUPT_TABLE_CASES))
def test_corrupt_table_is_refused_with_its_line(root, case, cached):
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
        with pytest.raises(error) as err:
            snap.current() if cached else open_warehouse(root, "ro")
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
    # Every image brings a new date, so each batch rewrites dim_date and
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
            wh.rewrite_validation({2: ValidationUpdate("confirmed", "t1", 12.0, 30.0)})
        check()
        assert seen[-1][0].state.facts[2].validation == "confirmed"
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
        wh.rewrite_validation({2: ValidationUpdate("confirmed", "R1")})
    path = root / FACT_TABLE
    path.write_bytes(path.read_bytes().removesuffix(b"\n"))  # the last row loses its newline
    snap = SnapshotCache(root)
    try:
        assert snap.current().state.facts[2].matched_record_id == "R1"
        with open(path, "ab") as fh:  # the last row's record id grows, then the newline comes
            fh.write(b"0\n")
        handle = snap.current()
        assert handle.state.facts[2].matched_record_id == "R10"
        with open_warehouse(root, "ro") as fresh:
            assert logical_state(handle) == logical_state(fresh)
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
            wh.rewrite_validation({3: ValidationUpdate("confirmed", "R1")})
        assert_fresh(snap.current())
        assert seen[-1][0].state.facts[3].validation == "confirmed"
        # a fact file renamed in and an edited dimension row
        with open_warehouse(root) as wh:
            wh.rewrite_validation({4: ValidationUpdate("species_mismatch", "R2")})
        path = root / "dim_species.tbl"
        text = path.read_text()
        assert ",unknown\n" in text
        path.write_text(text.replace(",unknown\n", ",vulnerable\n"))
        assert_fresh(snap.current())
        state = seen[-1][0].state
        assert (state.facts[4].validation, state.species[1].conservation_status) == ("species_mismatch", "vulnerable")
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
            assert sorted(wh.state.facts) == [1, 2, 3]
        assert "\n4,20240115," not in (root / FACT_TABLE).read_text()
        assert os.stat(root / "COMMIT").st_ino == commit.st_ino
        assert (root / "COMMIT").read_text() == "3\n"
        open_warehouse(root, lock_timeout=0.05).close()  # the lock is free
        with open_warehouse(root) as wh:
            assert wh.append_facts([make_draft(wh.state.images[1])]) == [4]
        with snap.open_writer() as wh:
            assert sorted(wh.state.facts) == [1, 2, 3, 4]
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
        assert sorted(snap.current().state.facts) == [1, 2, 3]
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
        assert snap.current().state.facts[2].confidence == 0.9
        data = path.read_bytes()
        start = data.index(b"\n2,")
        with open(path, "r+b") as fh:  # same inode and size: fact 2's confidence 0.9 becomes 0.8
            fh.seek(start)
            fh.write(data[start : data.index(b"\n", start + 1)].replace(b",0.9,", b",0.8,"))
        with open_warehouse(root) as wh:
            wh.append_facts([make_draft(wh.state.images[1])])
        with open_warehouse(root, "ro") as fresh:
            assert fresh.state.facts[2].confidence == 0.8
        assert snap.current().state.facts[2].confidence == 0.8
    finally:
        snap.close()


def test_handed_out_snapshot_never_changes(root):
    with open_warehouse(root) as wh:
        populate_random(wh, random.Random(14), n_images=6, max_facts_per_image=8)
        facts = list(wh.state.facts.values())
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


@contextlib.contextmanager
def _counted_fact_parses(monkeypatch):
    parses = []
    real_row = FACTS.row
    with monkeypatch.context() as m:
        m.setattr(FACTS, "row", lambda *args: parses.append(args) or real_row(*args))
        yield parses


@pytest.mark.parametrize("n", [1, 200, 2000])
def test_clean_writer_open_parses_at_most_two_fact_lines(tmp_path, monkeypatch, n):
    root = tmp_path / "wh"
    _facts_root(root, n)
    with _counted_fact_parses(monkeypatch) as parses:
        open_warehouse(root).close()
        assert len(parses) <= 2
        open_warehouse(root, "ro").close()
        assert len(parses) <= 2 + n


def test_writer_reads_all_rows_when_the_tail_is_longer_than_it_reads(root, monkeypatch):
    _facts_root(root, 3)
    with open_warehouse(root) as wh:
        wh.rewrite_validation({3: ValidationUpdate("confirmed", "R" * 5000)})
    with _counted_fact_parses(monkeypatch) as parses:
        with open_warehouse(root) as wh:
            assert len(parses) == 3
            assert wh.append_facts([make_draft(wh.state.images[1])]) == [4]
    with open_warehouse(root, "ro") as wh:
        assert wh.state.facts[3].matched_record_id == "R" * 5000
        assert sorted(wh.state.facts) == [1, 2, 3, 4]


def test_lazily_read_facts_match_a_fresh_open(root, monkeypatch):
    _facts_root(root, 5)
    metas, dets = _batch_inputs(3)
    with _counted_fact_parses(monkeypatch) as parses:
        with open_warehouse(root) as wh:
            report = ingest_image_batch(wh, metas, dets, ClassMap(["PSME"]))
            assert report.facts_added == 6 and (root / "COMMIT").read_text() == "11\n"
            tail = len(parses)
            assert tail <= 2  # no row read but the last two
            facts = wh.state.facts
            assert len(parses) == tail + 11
            with open_warehouse(root, "ro") as fresh:
                assert facts == fresh.state.facts
                assert wh.table_bytes == fresh.table_bytes
            assert list(facts) == list(range(1, 12))  # each appended row held once
            assert wh.append_facts([make_draft(wh.state.images[2])]) == [12]
            assert wh.state.facts is facts and list(facts) == list(range(1, 13))
        with open_warehouse(root, "ro") as fresh:
            assert logical_state(fresh)[3] == sorted(facts.items())


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
    assert list(state.facts) == [1, 2, 3, 4]


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
        with pytest.raises(Exception) as err:
            wh.save_survey("../evil", [])
        assert "survey id" in str(err.value)


def test_merged_surveys_reject_duplicate_record_ids(root):
    with open_warehouse(root) as wh:
        wh.save_survey("a", [make_record("R1", 0.0, 0.0)])
        wh.save_survey("b", [make_record("R1", 9.0, 9.0)])
        with pytest.raises(DuplicateRecordError):
            wh.load_all_survey_records()


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
        wh.rewrite_validation({
            1: ValidationUpdate("confirmed", "R1", height_m=12.5, dbh_cm=30.25),
            2: ValidationUpdate("species_mismatch", "R2"),
            3: ValidationUpdate("unmatched", None),
        })
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
    fact = FactTreeMetric(
        row.date_key, row.image_key, row.species_key, BoundingBox(row.cx, row.cy, row.w, row.h),
        row.confidence, row.geo_x, row.geo_y, row.height_m, row.dbh_cm, row.validation, row.matched_record_id,
        fact_id=row.fact_id,
    )
    assert FACTS.cells(fact) == row
    assert _rendered(storage._fact_line, row) == _rendered(csv_line, FACTS.cells(fact))
