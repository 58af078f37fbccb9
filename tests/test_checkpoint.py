"""The fact checkpoint: cold loads copy its columns, and fall back to the text.

Every test compares a load through the checkpoint with a load of the same
root with the checkpoint moved aside, which parses every fact line.
"""

import contextlib
import errno
import hashlib
import logging
import math
import multiprocessing
import os
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from canopydw import storage
from canopydw.errors import UnknownFactError, WarehouseError
from canopydw.model import (
    VALIDATION_STATES,
    FactColumns,
    encode_date_key,
    fact_field_violations,
    text_problem,
)
from canopydw.reconcile import reconcile_warehouse
from canopydw.storage import CHECKPOINT, FACTS, IMAGES, SPECIES, SnapshotCache, open_warehouse

from helpers import annotation, counted_fact_parses, fact_rows, make_draft, make_image, make_record

ASIDE = "checkpoint.aside"
NAN = float("nan")


@pytest.fixture
def root(tmp_path):
    return tmp_path / "wh"


def _build(root):
    """Two species, two dates, an image on each, three facts per image, and
    a survey that matches two of the facts: reconciled once, so that the
    checkpoint covers the whole fact file."""
    with open_warehouse(root) as wh:
        wh.upsert_species("PSME")
        wh.upsert_species("TSHE")
        for i, date_key in enumerate((20240115, 20240116), start=1):
            wh.ensure_date(date_key)
            key = wh.insert_image(make_image(file_name=f"img{i}.jpg", capture_date_key=date_key).meta)
            image = wh.state.images[key]
            wh.append_facts([make_draft(image, species_key=i, geo_x=10.0 * j, geo_y=float(i)) for j in range(3)])
        wh.save_survey("s1", [make_record("r1", 0.1, 1.0, "PSME", height_m=20.0), make_record("r2", 10.0, 2.1, "PSME")])
        reconcile_warehouse(wh, 2.0)
    assert (root / CHECKPOINT).exists()


def _snapshot(wh):
    """Everything a load gives of the facts: each column's bytes (NaN
    compared by its bits), the record ids, and the bytes held per table."""
    facts = wh.state.facts
    arrays = tuple(getattr(facts, name).tobytes() for name in FactColumns.__slots__[:-1])
    return arrays, tuple(facts.matched_record_id), dict(wh.table_bytes)


def _read(root, how):
    """A cold load of root: "text" is a read-only open with the checkpoint
    moved aside, "ro" a read-only open, "rw" a read-write open and the first
    read of its facts. The load's snapshot, or its refusal's type and text."""
    aside = how == "text" and (root / CHECKPOINT).exists()
    if aside:
        os.replace(root / CHECKPOINT, root / ASIDE)
    try:
        with open_warehouse(root, "rw" if how == "rw" else "ro") as wh:
            return _snapshot(wh)
    except WarehouseError as exc:
        return type(exc).__name__, str(exc)
    finally:
        if aside:
            os.replace(root / ASIDE, root / CHECKPOINT)


def _assert_loads_agree(root):
    text = _read(root, "text")  # first: a read-write open may cut the tail off
    assert _read(root, "ro") == text
    assert _read(root, "rw") == text
    return text


def _warnings(caplog):
    return [r.getMessage() for r in caplog.records if r.name == "canopydw.storage" and r.levelno == logging.WARNING]


def _change_an_annotation(root):
    """A survey that matches the unmatched fact 3, saved by a writer."""
    with open_warehouse(root) as wh:
        wh.save_survey("s2", [make_record("r3", 20.0, 1.1, "PSME")])


def _fact_3(wh):
    fact = fact_rows(wh.state.facts)[3]
    return fact.validation, fact.matched_record_id


# -- loads through the checkpoint ------------------------------------------------------


def test_cold_loads_copy_the_checkpoint_and_parse_only_the_lines_past_it(root, monkeypatch, caplog):
    _build(root)
    text = _assert_loads_agree(root)
    with counted_fact_parses(monkeypatch) as parses:
        with open_warehouse(root, "ro") as wh:
            assert _snapshot(wh) == text
        assert parses == []
        with open_warehouse(root) as wh:
            assert [cells[0] for cells, in parses] == ["5", "6"]  # the tail check
            parses.clear()
            assert _snapshot(wh) == text  # the first read of a writer's facts
            assert parses == []
            wh.append_facts([make_draft(wh.state.images[1])] * 2)  # past the checkpoint
        with open_warehouse(root, "ro") as wh:
            assert sorted(fact_rows(wh.state.facts)) == list(range(1, 9))
        assert [cells[0] for cells, in parses] == ["7", "8"]
    assert _warnings(caplog) == []
    _assert_loads_agree(root)


def test_a_cache_reload_after_a_rename_copies_the_new_checkpoint(root, monkeypatch):
    _build(root)
    snap = SnapshotCache(root)
    try:
        first = snap.current()
        _change_an_annotation(root)
        with open_warehouse(root) as wh:
            reconcile_warehouse(wh, 2.0)  # renames a new fact file in, then writes its checkpoint
        with counted_fact_parses(monkeypatch) as parses:
            handle = snap.current()
        assert parses == []
        assert (_fact_3(first), _fact_3(handle)) == (("unmatched", None), ("confirmed", "r3"))
        assert _snapshot(handle) == _read(root, "text")
    finally:
        snap.close()


def _flip_last_bit(root):
    path = root / CHECKPOINT
    data = bytearray(path.read_bytes())
    data[-1] ^= 1
    path.write_bytes(bytes(data))


def _replace_in(name, old, new):
    def edit(root):
        path = root / name
        data = path.read_bytes()
        assert old in data
        path.write_bytes(data.replace(old, new, 1))

    return edit


def _confidence_of_fact_2(root):  # in place, same length, inside the checkpoint's prefix
    path = root / FACTS.file
    lines = path.read_bytes().split(b"\n")
    assert b",0.9," in lines[2]
    lines[2] = lines[2].replace(b",0.9,", b",0.8,")
    path.write_bytes(b"\n".join(lines))


def _drop_line(name, line_no):
    def edit(root):
        path = root / name
        lines = path.read_bytes().split(b"\n")
        del lines[line_no - 1]
        path.write_bytes(b"\n".join(lines))

    return edit


# (edit of a reconciled root, text in the warning, refusal of the text path or None)
REFUSED_CHECKPOINTS = {
    "version": (_replace_in(CHECKPOINT, b"canopydw-cols 1 ", b"canopydw-cols 2 "), "format version or byte order", None),
    "byte-order": (
        _replace_in(CHECKPOINT, b" little ", b" big ") if sys.byteorder == "little"
        else _replace_in(CHECKPOINT, b" big ", b" little "),
        "format version or byte order",
        None,
    ),
    "truncated": (lambda root: os.truncate(root / CHECKPOINT, 300), "payload digest differs", None),
    "bit-flip": (_flip_last_bit, "payload digest differs", None),
    "edited-row": (_confidence_of_fact_2, "prefix digest differs", None),
    "past-commit": (lambda root: (root / "COMMIT").write_text("5\n"), "last fact_id 6 is past COMMIT 5", None),
    "missing-species": (
        _drop_line(SPECIES.file, 3),
        "foreign key species_key 2 unresolved",
        "fact_tree_metrics.tbl:5: fact 4: species_key unresolved",
    ),
    "missing-image": (
        _drop_line(IMAGES.file, 3),
        "foreign key image_key 2 unresolved",
        "fact_tree_metrics.tbl:5: fact 4: image_key unresolved",
    ),
    "changed-capture-date": (
        _replace_in(IMAGES.file, b",20240116,", b",20240115,"),
        "date mismatch: a fact of image 2 is dated 20240116",
        "fact_tree_metrics.tbl:5: fact 4: date mismatch",
    ),
}


@pytest.mark.parametrize("case", list(REFUSED_CHECKPOINTS))
def test_a_refused_checkpoint_is_reported_and_the_text_is_read(root, case, caplog):
    edit, reason, refusal = REFUSED_CHECKPOINTS[case]
    _build(root)
    edit(root)
    caplog.set_level(logging.WARNING, logger="canopydw.storage")
    ro = _read(root, "ro")
    warnings = _warnings(caplog)
    assert len(warnings) == 1 and reason in warnings[0], warnings
    assert warnings[0].startswith(f"{root / CHECKPOINT} ignored")
    if refusal is None:
        assert ro[0] != "IntegrityError"
    else:
        assert ro == ("IntegrityError", f"{root}/{refusal}")
    assert _assert_loads_agree(root) == ro


def test_a_missing_checkpoint_logs_nothing(root, caplog):
    _build(root)
    (root / CHECKPOINT).unlink()
    caplog.set_level(logging.DEBUG, logger="canopydw.storage")
    _assert_loads_agree(root)
    assert [r for r in caplog.records if r.name == "canopydw.storage"] == []


def test_a_leftover_checkpoint_tmp_is_ignored(root, monkeypatch, caplog):
    _build(root)
    # a whole checkpoint that its writer never renamed in
    os.replace(root / CHECKPOINT, root / (CHECKPOINT + ".tmp"))
    caplog.set_level(logging.DEBUG, logger="canopydw.storage")
    with counted_fact_parses(monkeypatch) as parses:
        with open_warehouse(root, "ro") as wh:
            assert len(wh.state.facts) == len(parses) == 6
    assert [r for r in caplog.records if r.name == "canopydw.storage"] == []
    _change_an_annotation(root)
    with open_warehouse(root) as wh:
        reconcile_warehouse(wh, 2.0)  # the next write goes through the same .tmp
    assert not (root / (CHECKPOINT + ".tmp")).exists()
    with counted_fact_parses(monkeypatch) as parses:
        with open_warehouse(root, "ro") as wh:
            assert (_fact_3(wh), parses) == (("confirmed", "r3"), [])


# -- writes that fail or crash ---------------------------------------------------------


def test_a_failed_checkpoint_write_keeps_the_annotation_and_loads_fall_back(root, monkeypatch, caplog):
    _build(root)
    stale = (root / CHECKPOINT).read_bytes()
    _change_an_annotation(root)
    real_write = storage._atomic_write

    def atomic_write(path, text):
        if path.name == CHECKPOINT:
            raise OSError(28, "injected write failure")
        return real_write(path, text)

    caplog.set_level(logging.WARNING, logger="canopydw.storage")
    with open_warehouse(root) as wh:
        with monkeypatch.context() as m:
            m.setattr(storage, "_atomic_write", atomic_write)
            assert reconcile_warehouse(wh, 2.0).facts_updated == 6
        assert _fact_3(wh) == ("confirmed", "r3")
    assert _warnings(caplog) == [f"{root / CHECKPOINT} not written: [Errno 28] injected write failure"]
    assert (root / CHECKPOINT).read_bytes() == stale
    assert (root / "COMMIT").read_text() == "6\n"
    caplog.clear()
    with open_warehouse(root, "ro") as wh:
        assert _fact_3(wh) == ("confirmed", "r3")
    assert len(_warnings(caplog)) == 1 and "prefix digest differs" in _warnings(caplog)[0]
    _assert_loads_agree(root)


def _spy_writes(monkeypatch):
    """The name of each file _atomic_write writes from here on."""
    written = []
    real_write = storage._atomic_write

    def atomic_write(path, text):
        written.append(path.name)
        return real_write(path, text)

    monkeypatch.setattr(storage, "_atomic_write", atomic_write)
    return written


def _assert_a_no_op_reconcile_writes_only_the_checkpoint(root, monkeypatch, caplog):
    """A reconcile that changes no annotation writes the checkpoint, and
    leaves the fact file alone; a cold load then copies the checkpoint
    without a warning, and the next reconcile writes nothing."""
    stat = os.stat(root / FACTS.file)
    text = (root / FACTS.file).read_bytes()
    with monkeypatch.context() as m:
        written = _spy_writes(m)
        with open_warehouse(root) as wh:
            reconcile_warehouse(wh, 2.0)
        assert written == [CHECKPOINT]
        written.clear()
        with open_warehouse(root) as wh:
            reconcile_warehouse(wh, 2.0)
        assert written == []
    after = os.stat(root / FACTS.file)
    assert ((root / FACTS.file).read_bytes(), after.st_ino, after.st_mtime_ns) == (text, stat.st_ino, stat.st_mtime_ns)
    caplog.clear()
    with counted_fact_parses(monkeypatch) as parses:
        _read(root, "ro")
    assert (parses, _warnings(caplog)) == ([], [])
    _assert_loads_agree(root)


def test_a_no_op_reconcile_writes_a_stale_checkpoint_again(root, monkeypatch, caplog):
    _build(root)
    _change_an_annotation(root)
    real_write = storage._atomic_write

    def atomic_write(path, text):
        if path.name == CHECKPOINT:
            raise OSError(28, "injected write failure")
        return real_write(path, text)

    with open_warehouse(root) as wh:  # as in the test above: the new fact file is renamed in, not its checkpoint
        with monkeypatch.context() as m:
            m.setattr(storage, "_atomic_write", atomic_write)
            reconcile_warehouse(wh, 2.0)
    caplog.set_level(logging.WARNING, logger="canopydw.storage")
    caplog.clear()
    _read(root, "ro")
    assert len(_warnings(caplog)) == 1 and "prefix digest differs" in _warnings(caplog)[0]
    _assert_a_no_op_reconcile_writes_only_the_checkpoint(root, monkeypatch, caplog)


def test_a_no_op_reconcile_writes_a_missing_checkpoint_with_the_same_bytes(root, monkeypatch, caplog):
    _build(root)
    written = (root / CHECKPOINT).read_bytes()
    (root / CHECKPOINT).unlink()
    caplog.set_level(logging.WARNING, logger="canopydw.storage")
    _assert_a_no_op_reconcile_writes_only_the_checkpoint(root, monkeypatch, caplog)
    assert (root / CHECKPOINT).read_bytes() == written


def _file_keys(root):
    return [(os.stat(root / name).st_ino, os.stat(root / name).st_mtime_ns) for name in (FACTS.file, CHECKPOINT)]


def test_no_op_reconciles_through_a_cache_write_a_missing_checkpoint_once(root):
    """As a server does: its snapshot was loaded without a checkpoint, and
    each POST /v1/reconcile is a writer from the cache, then a refresh."""
    _build(root)
    (root / CHECKPOINT).unlink()
    cache = SnapshotCache(root)
    try:
        cache.current()
        keys = []
        for _ in range(3):
            with cache.open_writer() as wh:
                reconcile_warehouse(wh, 2.0)
            cache.current()
            keys.append(_file_keys(root))
    finally:
        cache.close()
    assert keys[2] == keys[1] == keys[0]
    _assert_loads_agree(root)


@pytest.mark.parametrize(
    "damage",
    [lambda root: (root / CHECKPOINT).unlink(), lambda root: os.truncate(root / CHECKPOINT, 300)],
    ids=["deleted", "truncated"],
)
def test_no_op_reconciles_through_a_cache_write_a_lost_checkpoint_back_once(root, monkeypatch, caplog, damage):
    """The cache loaded a fresh checkpoint, which is then lost: the next
    writer from the cache sees that, as a fresh open would."""
    _build(root)
    written = (root / CHECKPOINT).read_bytes()
    caplog.set_level(logging.WARNING, logger="canopydw.storage")
    cache = SnapshotCache(root)

    def no_op_reconcile():
        with cache.open_writer() as wh:
            reconcile_warehouse(wh, 2.0)

    try:
        cache.current()
        damage(root)
        no_op_reconcile()
        assert (root / CHECKPOINT).read_bytes() == written
        caplog.clear()
        with counted_fact_parses(monkeypatch) as parses:
            open_warehouse(root, "ro").close()
        assert (parses, _warnings(caplog)) == ([], [])
        keys = _file_keys(root)
        for _ in range(2):
            no_op_reconcile()
            assert _file_keys(root) == keys
    finally:
        cache.close()
    _assert_loads_agree(root)


def test_a_checkpoint_write_through_a_cache_leaves_a_held_snapshot_as_it_was(root):
    _build(root)
    (root / CHECKPOINT).unlink()
    cache = SnapshotCache(root)
    try:
        held = cache.current()
        state, table_bytes, checkpoint_bytes = held.state, dict(held.table_bytes), held._checkpoint_bytes
        with cache.open_writer() as wh:
            reconcile_warehouse(wh, 2.0)  # changes no annotation: writes only the checkpoint
        assert (root / CHECKPOINT).exists()
        assert held.state is state
        assert (held.table_bytes, held._checkpoint_bytes) == (table_bytes, checkpoint_bytes)
        assert cache.current() is not held
    finally:
        cache.close()


def test_a_no_op_reconcile_covers_rows_appended_past_the_checkpoint(root, monkeypatch, caplog):
    _build(root)
    with open_warehouse(root) as wh:  # already annotated as a reconcile would
        wh.append_facts([make_draft(wh.state.images[1], geo_x=500.0, validation="unmatched")] * 2)
    caplog.set_level(logging.WARNING, logger="canopydw.storage")
    _assert_a_no_op_reconcile_writes_only_the_checkpoint(root, monkeypatch, caplog)


def _reconcile_and_die(root):
    """Reconciles root and exits when the new fact file is renamed in, before
    its checkpoint is written."""
    real_write = storage._atomic_write

    def atomic_write(path, text):
        if path.name == CHECKPOINT:
            os._exit(0)
        return real_write(path, text)

    storage._atomic_write = atomic_write
    with open_warehouse(root) as wh:
        reconcile_warehouse(wh, 2.0)
    os._exit(1)  # not reached: the reconcile changes an annotation


def test_a_writer_killed_before_the_checkpoint_write_leaves_a_root_that_loads(root, caplog):
    _build(root)
    stale = (root / CHECKPOINT).read_bytes()
    _change_an_annotation(root)
    p = multiprocessing.get_context("spawn").Process(target=_reconcile_and_die, args=(root,))
    p.start()
    p.join(60)
    assert p.exitcode == 0
    assert (root / CHECKPOINT).read_bytes() == stale
    caplog.set_level(logging.WARNING, logger="canopydw.storage")
    with open_warehouse(root, "ro") as wh:
        assert _fact_3(wh) == ("confirmed", "r3")
    assert "prefix digest differs" in _warnings(caplog)[0]
    _assert_loads_agree(root)


def test_rewrite_validation_refuses_an_annotation_no_load_would_accept(root):
    _build(root)
    stored = (root / FACTS.file).read_bytes(), (root / CHECKPOINT).read_bytes()
    with open_warehouse(root) as wh:
        for update, reason in [
            (("confirmed", None, None, None), "fact 1: matched_record_id inconsistent with validation state"),
            (("unmatched", "r9", None, None), "fact 1: matched_record_id inconsistent with validation state"),
            (("confirmed", "", None, None), "fact 1: matched_record_id inconsistent with validation state"),
            (("confirmed", "r\n9", None, None), "fact 1: matched_record_id contains a line break"),
            (("confirmed", "r1", -1.0, None), "fact 1: height_m must be positive when present"),
            (("confirmed", "r1", None, float("inf")), "fact 1: dbh_cm must be positive when present"),
        ]:
            with pytest.raises(WarehouseError) as err:
                wh.rewrite_validation(*annotation(wh.state.facts, {1: update}))
            assert str(err.value) == reason
    assert ((root / FACTS.file).read_bytes(), (root / CHECKPOINT).read_bytes()) == stored


def _reconciled(root, n):
    """n facts on one image, each with a height or a DBH, of which a survey
    matches the first two: reconciled once."""
    with open_warehouse(root) as wh:
        wh.upsert_species("PSME")
        wh.ensure_date(20240115)
        image = wh.state.images[wh.insert_image(make_image().meta)]
        wh.append_facts([
            make_draft(image, geo_x=10.0 * j, geo_y=1.0, **{("height_m", "dbh_cm")[j % 2]: 7.5}) for j in range(n)
        ])
        wh.save_survey("s1", [make_record("r1", 0.0, 1.0), make_record("r2", 10.0, 1.0)])
        reconcile_warehouse(wh, 2.0)


_KEEP = object()
# The values each annotated cell may change to: a code, a record id, a
# height and a DBH.
_CELL_VALUES = (
    (-1, 0, 1, 2, 3, 4),
    (None, "", "r1", "a,b", "r\n1", "\ud800"),
    (NAN, 2.5, 0.0, -0.0, -1.0, math.inf),
    (NAN, 2.5, 0.0, -0.0, -1.0, math.inf),
)
# A fact's four annotated cells, each kept or changed so that a load accepts them
_ACCEPTED_CELLS = st.builds(
    lambda state, height, dbh: (*state, height, dbh),
    st.sampled_from([(_KEEP, _KEEP), (0, None), (3, ""), (1, "r1"), (2, "a,b")]),
    *[st.sampled_from([_KEEP, 2.5])] * 2,
)
# One cell of one fact changed to any of its values: (fact, cell, value)
_ANY_CELL = st.tuples(
    st.integers(0, 4), st.integers(0, 3).flatmap(lambda k: st.tuples(st.just(k), st.sampled_from(_CELL_VALUES[k])))
)


def _stored(value):
    """A measure as a stored line holds it: a missing one (None, or NaN in a
    column) is an empty cell."""
    return "" if value is None or value != value else repr(value)


def _refused(rows, annotated):
    """Whether a load or the writer would refuse the annotation (four
    columns) of these held FactRows, at a fact where a cell changes: by the
    row rule or the text rule, or as a present measure that becomes
    missing."""
    for row, code, record, height, dbh in zip(rows, *annotated):
        if (code, record, _stored(height), _stored(dbh)) == (
            VALIDATION_STATES.index(row.validation), row.matched_record_id, _stored(row.height_m), _stored(row.dbh_cm)
        ):
            continue  # nothing changes
        if not 0 <= code < len(VALIDATION_STATES):
            return True
        height, dbh = (None if value != value else value for value in (height, dbh))
        cells = dict(height_m=height, dbh_cm=dbh, validation=VALIDATION_STATES[code], matched_record_id=record)
        if fact_field_violations(row._replace(**cells)) or (record and text_problem(record)):
            return True
        if (row.height_m is not None and height is None) or (row.dbh_cm is not None and dbh is None):
            return True
    return False


def _annotation(facts):
    """The four annotation columns facts (a FactColumns) hold."""
    return facts.validation, facts.matched_record_id, facts.height_m, facts.dbh_cm


def _frozen(columns):
    """Annotation columns as a comparable copy, floats as their bytes."""
    validation, records, height_m, dbh_cm = columns
    return validation.tobytes(), tuple(records), height_m.tobytes(), dbh_cm.tobytes()


@settings(max_examples=50)
@given(edits=st.lists(_ACCEPTED_CELLS, min_size=3, max_size=5), wild=st.lists(_ANY_CELL, max_size=3))
@example(edits=[(_KEEP,) * 4] * 3, wild=[(0, (2, NAN))])  # fact 1's height becomes missing
@example(edits=[(_KEEP,) * 4] * 3, wild=[(1, (1, "r\n1"))])  # confirmed fact 2 takes a record id no load reads
def test_rewrite_validation_refuses_exactly_the_annotations_a_load_or_the_writer_would_refuse(edits, wild):
    for i, (k, value) in wild:  # up to three cells take any value: about half the annotations are refused
        cells = list(edits[i % len(edits)])
        cells[k] = value
        edits[i % len(edits)] = tuple(cells)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "wh"
        _reconciled(root, len(edits))
        stored = (root / FACTS.file).read_bytes(), (root / CHECKPOINT).read_bytes()
        with open_warehouse(root) as wh:
            held = _frozen(_annotation(wh.state.facts))
            columns = tuple(column[:] for column in _annotation(wh.state.facts))
            for i, cells in enumerate(edits):
                for column, cell in zip(columns, cells):
                    if cell is not _KEEP:
                        column[i] = cell
            validation, records, height_m, dbh_cm = columns  # an empty record id is held as None, as loads read it
            annotated = _frozen((validation, [record or None for record in records], height_m, dbh_cm))
            refused = _refused(list(fact_rows(wh.state.facts).values()), columns)
            try:
                wh.rewrite_validation(*columns)
            except UnknownFactError:
                assert refused
                assert _frozen(_annotation(wh.state.facts)) == held
                assert ((root / FACTS.file).read_bytes(), (root / CHECKPOINT).read_bytes()) == stored
                return
            assert not refused
            assert _frozen(_annotation(wh.state.facts)) == annotated
        _assert_loads_agree(root)


# -- the oracle: every cold load agrees with the text ---------------------------------


def _batch(root, k):
    """A writer adds an image on a new date with k facts, then reconciles."""
    with open_warehouse(root) as wh:
        n = len(wh.state.images) + 1
        date_key = wh.ensure_date(encode_date_key(2024, 3, n))
        key = wh.insert_image(make_image(file_name=f"batch{n}.jpg", capture_date_key=date_key).meta)
        wh.append_facts([make_draft(wh.state.images[key], geo_x=10.0 * j, geo_y=1.0) for j in range(k)])
        reconcile_warehouse(wh, 2.0)


def _edit_fact(root, row, valid):
    """An in-place edit of one fact row's confidence."""
    path = root / FACTS.file
    lines = path.read_bytes().split(b"\n")
    if row + 1 < len(lines) - 1:
        cells = lines[row + 1].split(b",")
        cells[8] = b"0.25" if valid else b"1.5"
        lines[row + 1] = b",".join(cells)
        path.write_bytes(b"\n".join(lines))


def _append(root, committed):
    if committed:
        with open_warehouse(root) as wh:
            if wh.state.images:
                wh.append_facts([make_draft(wh.state.images[max(wh.state.images)])])
    else:
        next_id = int((root / "COMMIT").read_text()) + 1
        with open(root / FACTS.file, "ab") as fh:
            fh.write(f"{next_id},20240115,1,1,0.5,0.5,0.2,0.2,0.9,5.0,-5.0,,,unvalidated,\n".encode())


def _damage_checkpoint(root, how, at):
    path = root / CHECKPOINT
    data = bytearray(path.read_bytes() if path.exists() else b"")
    if not data:
        return
    if how == "truncate":
        del data[at % len(data) :]
    elif how == "flip":
        data[at % len(data)] ^= 1 << (at % 8)
    else:
        data[data.find(b" ") + 1] ^= 2  # the format version (the first byte when cut before it)
    path.write_bytes(bytes(data))


def _drop_dimension_row(root, table):
    path = root / table
    lines = path.read_bytes().split(b"\n")
    if len(lines) > 2:
        del lines[1]
        path.write_bytes(b"\n".join(lines))


def _redate_first_image(root):
    path = root / IMAGES.file
    data = path.read_bytes()
    path.write_bytes(data.replace(b",20240115,", b",20240116,", 1))


STEPS = st.one_of(
    st.tuples(st.just(_batch), st.integers(1, 4)),
    st.tuples(st.just(_edit_fact), st.integers(1, 8), st.booleans()),
    st.tuples(st.just(_append), st.booleans()),
    st.tuples(st.just(_damage_checkpoint), st.sampled_from(["truncate", "flip", "version"]), st.integers(0, 10**6)),
    st.tuples(st.just(_drop_dimension_row), st.sampled_from([IMAGES.file, SPECIES.file])),
    st.tuples(st.just(_redate_first_image)),
)


@settings(max_examples=60)
@given(steps=st.lists(STEPS, min_size=1, max_size=5))
def test_cold_loads_agree_with_the_text_after_any_steps(steps):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "wh"
        _build(root)
        for step, *args in steps:
            with contextlib.suppress(WarehouseError):  # a damaged root refuses the writer
                step(root, *args)
            _assert_loads_agree(root)


# -- the checkpoint names its columns -------------------------------------------------

# The arrays of a checkpoint written before its format line named them, in
# the order it stored them.
_UNNAMED_LAYOUT = (
    "fact_id", "date_key", "image_key", "species_key", "validation",
    "cx", "cy", "w", "h", "confidence", "geo_x", "geo_y", "height_m", "dbh_cm",
)


def _swap_two_names(root):
    """Two columns of one typecode named in each other's place: the payload
    digest still holds, only the format line tells them apart."""
    _replace_in(CHECKPOINT, b"cx:d8,cy:d8,", b"cy:d8,cx:d8,")(root)


def _write_unnamed_layout(root):
    """The root's checkpoint as it was written before its format line named
    the columns: the arrays in _UNNAMED_LAYOUT's order, and a format line of
    their typecodes and item sizes only, digested again."""
    path = root / CHECKPOINT
    blob = path.read_bytes()
    with open_warehouse(root, "ro") as wh:
        facts = wh.state.facts
    arrays = [getattr(facts, name) for name in _UNNAMED_LAYOUT]
    counts = blob[blob.index(b"\n") + 1 : blob.index(b"\n", blob.index(b"\n") + 1) + 1]
    records = "\n".join([record or "" for record in facts.matched_record_id]).encode()
    body = b"".join([counts, *(column.tobytes() for column in arrays), records])
    layout = ",".join(f"{column.typecode}{column.itemsize}" for column in arrays)
    path.write_bytes(f"canopydw-cols 1 {sys.byteorder} {layout} {hashlib.blake2b(body).hexdigest()}\n".encode() + body)


@pytest.mark.parametrize("edit", [_swap_two_names, _write_unnamed_layout])
def test_a_checkpoint_of_another_column_layout_is_refused_and_written_again(root, edit, monkeypatch, caplog):
    _build(root)
    edit(root)
    caplog.set_level(logging.WARNING, logger="canopydw.storage")
    ro = _read(root, "ro")
    warnings = _warnings(caplog)
    assert len(warnings) == 1 and "format version or byte order differs" in warnings[0], warnings
    assert _assert_loads_agree(root) == ro
    _assert_a_no_op_reconcile_writes_only_the_checkpoint(root, monkeypatch, caplog)


def test_a_fact_file_rewrite_that_fails_after_its_rename_closes_the_writer(root, monkeypatch):
    """The directory fsync after a new fact file is renamed in fails: the
    handle closes instead of going on from the columns it held before, so
    that no later call writes a checkpoint of those over the new file."""
    with open_warehouse(root) as wh:
        wh.upsert_species("PSME")
        wh.ensure_date(20240115)
        image = wh.state.images[wh.insert_image(make_image().meta)]
        wh.append_facts([make_draft(image, geo_x=10.0 * j, geo_y=0.0) for j in range(20)])
        wh.save_survey("s1", [make_record(f"r{j}", 10.0 * j, 1.0) for j in range(20)])
        reconcile_warehouse(wh, 0.3)
        failures = [OSError(errno.EIO, "injected directory fsync failure")]
        real_fsync_dir = storage._fsync_dir

        def fsync_dir(path):
            if failures:
                raise failures.pop()
            real_fsync_dir(path)

        monkeypatch.setattr(storage, "_fsync_dir", fsync_dir)
        with pytest.raises(OSError, match="injected"):
            reconcile_warehouse(wh, 2.0)
        assert failures == []
        with pytest.raises(WarehouseError, match="^handle is closed$"):
            reconcile_warehouse(wh, 0.3)
    text = _assert_loads_agree(root)
    with open_warehouse(root, "ro") as wh:
        assert {fact.validation for fact in fact_rows(wh.state.facts).values()} == {"confirmed"}
        assert _snapshot(wh) == text
    assert list(root.glob("*.tmp")) == []
