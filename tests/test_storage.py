import contextlib
import multiprocessing
import os
import random
import sys
import threading

import pytest

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
from canopydw.model import ValidationUpdate, encode_date_key
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


# -- corrupt dimension tables ---------------------------------------------------------


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
