"""Every crash state of one writer operation, enumerated from its durable
effects: an ingest batch, and a read-write open that repairs its root.

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
resolved; and the next batch must succeed.
"""

import os
import shutil

import pytest

from canopydw import storage
from canopydw.ingest import ClassMap, detection_file_name, ingest_image_batch
from canopydw.storage import DATES, FACTS, IMAGES, SPECIES, SnapshotCache, open_warehouse

from helpers import fact_rows, logical_state, make_draft, make_image


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
    """The handle holds the facts of before or after, dimension rows between
    the two, and every committed fact's references."""
    state = logical_state(handle)
    assert state[3] in (before[3], after[3]), name
    for i in range(3):  # dates, images, species
        assert set(before[i]) <= set(state[i]) <= set(after[i]), name
    held = handle.state
    for fact in fact_rows(held.facts).values():
        assert fact.date_key in held.dates, name
        assert held.images[fact.image_key].capture_date_key == fact.date_key, name
        assert fact.species_key in held.species, name
    return len(state[3])


def _check_states(tmp_path, base, states, before, after):
    """Rebuild each crash state on a copy of base and check that every open
    holds before or after, and that the next batch succeeds."""
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
    assert len(states) == len(effects) + 1 + 4  # the append of 4 lines: 3 boundaries and 1 inside a line
    _check_states(tmp_path, base, states, before, after)


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
