"""Every crash state of one writer operation, enumerated from its durable
effects: an ingest batch, a read-write open that repairs its root, a survey
save, a reconcile that changes annotations and one that writes only a
missing fact checkpoint.

Each durable write in storage goes through one of two helpers:
_atomic_write (replace a file with these bytes, by rename) and _append
(append these bytes to a file). Wrapping both records the effects of one
operation, in order. A crash leaves a prefix of that list on disk, and a crash
inside an append leaves a prefix of its bytes. The model assumes that a
file's synced bytes and a synced rename survive, in the order the code
syncs them; unsynced writes are not reordered.

For each such state, rebuilt in its own directory, a read-only open, a
read-write open and a SnapshotCache loaded before the operation must each
see the facts as they were before the operation or after it, never a mix,
with dimension rows between the two and every committed fact's references
resolved, and the surveys as before or after; and the next batch must
succeed.
"""

import os
import shutil

import pytest

from canopydw import storage
from canopydw.ingest import ClassMap, detection_file_name, ingest_image_batch
from canopydw.reconcile import reconcile_warehouse
from canopydw.storage import CHECKPOINT, DATES, DIMENSIONS, FACTS, IMAGES, SPECIES, SnapshotCache, open_warehouse

from helpers import counted_fact_parses, fact_rows, logical_state, make_draft, make_image, make_record


def _base(root):
    """Two committed facts on one image, one date and one species."""
    with open_warehouse(root) as wh:
        wh.upsert_species("PSME")
        wh.ensure_date(20240115)
        wh.insert_image(make_image().meta)
        wh.append_facts([make_draft(wh.state.images[1])] * 2)


def _batch(root, first):
    """One ingest batch that adds a date, a species and two images of two
    facts each: it changes all three dimensions."""
    metas = [
        make_image(image_key=0, file_name=f"img_{i:04d}.jpg", capture_date_key=20240301).meta
        for i in (first, first + 1)
    ]
    dets = {detection_file_name(m.file_name): ["0 0.5 0.5 0.2 0.2 0.9", "1 0.25 0.25 0.1 0.1 0.8"] for m in metas}
    with open_warehouse(root) as wh:
        assert ingest_image_batch(wh, metas, dets, ClassMap(["PSME", "TSHE"])).facts_added == 4


def _recorded(monkeypatch, root, operation):
    """The durable effects of operation(root): ("replace" | "append", the
    path under root, the bytes)."""
    effects = []
    real_write, real_append = storage._atomic_write, storage._append

    def atomic_write(path, text):
        data = text.encode("utf-8") if isinstance(text, str) else bytes(text)
        effects.append(("replace", path.relative_to(root), data))
        return real_write(path, text)

    def append(path, data):
        effects.append(("append", path.relative_to(root), bytes(data)))
        return real_append(path, data)

    with monkeypatch.context() as m:
        m.setattr(storage, "_atomic_write", atomic_write)
        m.setattr(storage, "_append", append)
        operation(root)
    return effects


def _crash_states(effects):
    """(name, the effects that reached disk whole, the cut append or None)
    for each crash state: after each prefix of effects, and inside each
    append at every line boundary and once inside its first line."""
    for k in range(len(effects) + 1):
        yield f"after {k} effects", effects[:k], None
        if k < len(effects) and effects[k][0] == "append":
            _, path, data = effects[k]
            cuts = [i + 1 for i in range(len(data) - 1) if data[i] == ord("\n")]
            cuts.append(data.index(b"\n") // 2)
            for cut in cuts:
                yield f"after {k} effects and {cut} bytes of the append", effects[:k], (path, data[:cut])


def _apply(root, effects, cut):
    """Put effects on root as a writer does: a replace renames a new file
    in (a new inode), an append extends the file."""
    for kind, name, data in effects:
        path = root / name
        if kind == "replace":
            path.parent.mkdir(exist_ok=True)  # a survey save makes surveys/
            tmp = path.with_name(path.name + ".tmp")
            tmp.write_bytes(data)
            os.replace(tmp, path)
        else:
            with open(path, "ab") as fh:
                fh.write(data)
    if cut is not None:
        name, data = cut
        with open(root / name, "ab") as fh:
            fh.write(data)


def _check(handle, before, after, name):
    """The handle holds the facts and the surveys of before or after,
    dimension rows between the two, and every committed fact's references."""
    state = logical_state(handle)
    assert state[3] in (before[3], after[3]), name
    assert state[4] in (before[4], after[4]), name
    for i in range(3):  # dates, images, species
        assert set(before[i]) <= set(state[i]) <= set(after[i]), name
    held = handle.state
    for fact in fact_rows(held.facts).values():
        assert fact.date_key in held.dates, name
        assert held.images[fact.image_key].capture_date_key == fact.date_key, name
        assert fact.species_key in held.species, name
    return len(state[3])


def _kept(torn):
    """The bytes of a torn append that a read-write open keeps: its whole
    lines, unless they start with a NUL."""
    whole = torn[: torn.rfind(b"\n") + 1]
    return b"" if whole.startswith(b"\0") else whole


def _dimension_bytes(base, done, cut):
    """Each dimension file's bytes once a read-write open has repaired the
    crash state of base with done and cut: the torn append cut back to the
    lines it keeps."""
    files = {table.file: (base / table.file).read_bytes() for table in DIMENSIONS}
    for kind, name, data in done:
        if str(name) in files:
            files[str(name)] = data if kind == "replace" else files[str(name)] + data
    if cut is not None and str(cut[0]) in files:
        files[str(cut[0])] += _kept(cut[1])
    return files


def _check_states(tmp_path, base, states, before, after):
    """Rebuild each crash state on a copy of base and check that every open
    holds before or after, that a read-write open cuts each dimension file
    back to the lines it loads, and that the next batch succeeds."""
    for i, (name, done, cut) in enumerate(states):
        root = tmp_path / f"state{i}"
        shutil.copytree(base, root)
        cache = SnapshotCache(root)
        try:
            cache.current()  # loaded before the batch
            _apply(root, done, cut)
            n = _check(cache.current(), before, after, name)
            with open_warehouse(root, "ro") as wh:
                assert _check(wh, before, after, name) == n, name
            with open_warehouse(root) as wh:  # logical_state reads state.facts
                assert _check(wh, before, after, name) == n, name
            expected = _dimension_bytes(base, done, cut)
            assert {file: (root / file).read_bytes() for file in expected} == expected, name
            _batch(root, 10)  # the next batch succeeds
            with open_warehouse(root, "ro") as wh:
                assert list(fact_rows(wh.state.facts)) == list(range(1, n + 5)), name
                assert logical_state(cache.current()) == logical_state(wh), name
        finally:
            cache.close()


def _states_of(tmp_path, monkeypatch, base, operation):
    """The crash states of operation on a copy of base, and the logical
    state of base before it and of the copy after it."""
    run = tmp_path / "run"
    shutil.copytree(base, run)
    effects = _recorded(monkeypatch, run, operation)
    with open_warehouse(base, "ro") as wh:
        before = logical_state(wh)
    with open_warehouse(run, "ro") as wh:
        after = logical_state(wh)
    return effects, list(_crash_states(effects)), before, after


def test_every_crash_state_of_an_ingest_batch_opens_before_or_after_it(tmp_path, monkeypatch):
    base = tmp_path / "base"
    _base(base)
    effects, states, before, after = _states_of(tmp_path, monkeypatch, base, lambda root: _batch(root, 2))
    assert {DATES.file, SPECIES.file, IMAGES.file, FACTS.file} <= {str(name) for _, name, _ in effects}
    assert before[3] != after[3]
    # appends of 1 date, 1 species, 2 image and 4 fact lines: 0 + 0 + 1 + 3
    # boundaries, and 1 cut inside the first line of each
    assert len(states) == len(effects) + 1 + 4 + 4
    _check_states(tmp_path, base, states, before, after)


def _nul_states(effects):
    """A crash inside each append whose new size persisted but not its bytes,
    which read back as NULs (ext4 in writeback mode allows it): one and two
    lines' worth, and one line's worth that ends in its newline."""
    for k, (kind, path, data) in enumerate(effects):
        if kind == "append":
            line = data.index(b"\n") + 1
            for tail in (b"\0" * line, b"\0" * 2 * line, b"\0" * (line - 1) + b"\n"):
                yield f"after {k} effects and {len(tail)} NULs ending {tail[-1:]!r}", effects[:k], (path, tail)


def test_every_crash_state_of_an_ingest_batch_whose_append_reads_back_as_nuls_holds_the_committed_facts(
    tmp_path, monkeypatch
):
    base = tmp_path / "base"
    _base(base)
    clean = (base / FACTS.file).read_bytes()
    effects, _, before, after = _states_of(tmp_path, monkeypatch, base, lambda root: _batch(root, 2))
    states = list(_nul_states(effects))
    assert len(states) == 4 * 3  # three for each append: the date, species, image and fact lines
    # the torn-line rule: every open holds the committed facts, and a read-write open cuts the tail off
    _check_states(tmp_path, base, states, before, (*after[:3], before[3], after[4]))
    for name, done, cut in states:
        root = tmp_path / "cut"
        shutil.copytree(base, root)
        _apply(root, done, cut)
        open_warehouse(root).close()
        assert (root / FACTS.file).read_bytes() == clean, name
        # every dimension file has the bytes it had before the append the crash cut
        assert {t.file: (root / t.file).read_bytes() for t in DIMENSIONS} == _dimension_bytes(base, done, None), name
        shutil.rmtree(root)


def _rows_past_commit(root):
    """Fact 3 appended but never committed, then a torn line."""
    path = root / FACTS.file
    last = path.read_bytes().splitlines()[-1]
    with open(path, "ab") as fh:
        fh.write(b"3" + last[1:] + b"\n4,2024")


def _no_commit(root):
    """An externally assembled root: no COMMIT marker, and a torn last line."""
    (root / storage.COMMIT_MARKER).unlink()
    with open(root / FACTS.file, "ab") as fh:
        fh.write(b"3,2024")


@pytest.mark.parametrize(
    "damage, written",
    [(_rows_past_commit, [FACTS.file]), (_no_commit, [FACTS.file, storage.COMMIT_MARKER])],
    ids=["rows-past-commit", "no-commit"],
)
def test_every_crash_state_of_a_repairing_open_holds_the_committed_facts(tmp_path, monkeypatch, damage, written):
    base = tmp_path / "base"
    _base(base)
    clean = (base / FACTS.file).read_bytes()
    damage(base)
    effects, states, before, after = _states_of(tmp_path, monkeypatch, base, lambda root: open_warehouse(root).close())
    assert [(kind, str(name)) for kind, name, _ in effects] == [("replace", file) for file in written]
    assert effects[0][2] == clean  # the fact file cut back to the committed rows
    assert before == after and [fact_id for fact_id, _ in after[3]] == [1, 2]
    _check_states(tmp_path, base, states, before, after)


def _surveyed(root, survey_id, record_id):
    """A survey whose one record lies on the base facts."""
    with open_warehouse(root) as wh:
        wh.save_survey(survey_id, [make_record(record_id, 5.0, -5.0)])


def _reconcile(root):
    with open_warehouse(root) as wh:
        reconcile_warehouse(wh, 2.0)


def test_every_crash_state_of_a_survey_save_opens_before_or_after_it(tmp_path, monkeypatch):
    base = tmp_path / "base"
    _base(base)
    effects, states, before, after = _states_of(tmp_path, monkeypatch, base, lambda root: _surveyed(root, "s1", "r1"))
    assert [(kind, str(name)) for kind, name, _ in effects] == [("replace", "surveys/s1.tbl")]
    assert (before[4], list(after[4])) == ({}, ["s1"])
    _check_states(tmp_path, base, states, before, after)


def test_every_crash_state_of_a_changing_reconcile_opens_before_or_after_it(tmp_path, monkeypatch):
    base = tmp_path / "base"
    _base(base)
    _surveyed(base, "s1", "r1")
    _reconcile(base)  # fact 1 is matched, and the checkpoint covers the fact file
    _surveyed(base, "s2", "r2")  # matches fact 2 on the next reconcile
    effects, states, before, after = _states_of(tmp_path, monkeypatch, base, _reconcile)
    assert [(kind, str(name)) for kind, name, _ in effects] == [("replace", FACTS.file), ("replace", CHECKPOINT)]
    assert before[3] != after[3]
    _check_states(tmp_path, base, states, before, after)


def test_every_crash_state_of_a_no_op_reconcile_that_writes_the_checkpoint_opens_alike(tmp_path, monkeypatch):
    base = tmp_path / "base"
    _base(base)
    _surveyed(base, "s1", "r1")
    _reconcile(base)
    (base / CHECKPOINT).unlink()
    effects, states, before, after = _states_of(tmp_path, monkeypatch, base, _reconcile)
    assert [(kind, str(name)) for kind, name, _ in effects] == [("replace", CHECKPOINT)]
    assert before == after
    _check_states(tmp_path, base, states, before, after)
    # Once the checkpoint is on disk, a cold load copies it, and a cache
    # loaded before it was written sees it: its writer writes nothing.
    root = tmp_path / "done"
    shutil.copytree(base, root)
    cache = SnapshotCache(root)
    try:
        cache.current()
        _apply(root, effects, None)
        with counted_fact_parses(monkeypatch) as parses:
            open_warehouse(root, "ro").close()
        assert parses == []

        def no_op_reconcile(root):
            with cache.open_writer() as wh:
                reconcile_warehouse(wh, 2.0)

        assert _recorded(monkeypatch, root, no_op_reconcile) == []
    finally:
        cache.close()
