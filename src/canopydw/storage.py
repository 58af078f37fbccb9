"""Append-only, file-backed persistence for the four star-schema tables.

On-disk layout under the warehouse root:

    dim_date.tbl            date dimension
    dim_image.tbl           image dimension
    dim_species.tbl         species dimension
    fact_tree_metrics.tbl   fact table (one detected tree per row)
    COMMIT                  last committed fact_id, decimal text
    LOCK                    writer lock (flock; the file is empty and stays)
    surveys/<id>.tbl        immutable ground-truth survey files

Table files are newline-delimited CSV with a fixed header line; text fields
containing commas or quotes are double-quoted with doubled inner quotes.
Files are split on line breaks before CSV parsing, so text containing a line
break is refused before it is stored. Reals use the shortest round-trip
decimal form.

Each table is described once, by a Table: its file, its header (the column
names, the first of them the key), how a row becomes the cells of a line and
back, and for a dimension the checks a loaded row must pass and the
WarehouseState fields it fills. Parsing, rendering, loading, rewriting,
stats and file creation all iterate these descriptions: TABLES, DIMENSIONS
(in load order) and SURVEYS for survey files.

Commit protocol: dimension rows and facts are staged by a batch
(Warehouse.batch; each method that adds them is a batch of its own) and
committed once, when the outermost batch ends. Each dimension table the
batch changed is rewritten whole via write-then-rename, in DIMENSIONS
order; then all the batch's fact rows are appended with one fsync, and they
become visible only once the COMMIT marker (also written via rename)
records the batch's last fact_id. A crash before COMMIT moves leaves rows
past the marker, which a load leaves out and the next rw open deletes: the
facts are as before the batch, and the batch's dimension rows stay,
unreferenced. Dimension rows are never mutated or deleted; the single
sanctioned fact mutation is the validation annotation.

Single-writer, multiple-reader: a handle opened in "rw" mode holds an
exclusive flock on the LOCK file for its lifetime. The kernel releases it
when the handle closes it or the holding process exits, however it exits;
the file itself is never removed. "ro" handles read a committed snapshot
without locking.

Read order: a load reads COMMIT first, then dim_image, dim_species and
dim_date (each table before the tables it references), then the fact rows up
to COMMIT. Writers write in the opposite order (a date before the image
that references it, dimension rows before the facts, COMMIT last), so
every row a committed fact or an image references is on disk by the time
the reader gets to its table.

Every open is a SnapshotCache load, which alone reads this order. A
long-lived process keeps one cache current, parsing only what changed;
open_warehouse is the one-shot form, a cache built, used once and closed.
"""

from __future__ import annotations

import csv
import fcntl
import hashlib
import os
import re
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from operator import attrgetter
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterable, Iterator, Mapping, Sequence

from . import model
from .errors import (
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
from .model import (
    BoundingBox,
    DimDate,
    DimImage,
    DimSpecies,
    FactDraft,
    FactTreeMetric,
    Geotransform,
    ImageMeta,
    SurveyRecord,
    ValidationUpdate,
    WarehouseState,
)
from .report import csv_line

COMMIT_MARKER = "COMMIT"
LOCK_FILE = "LOCK"
SURVEY_DIR = "surveys"

_SURVEY_ID_RE = re.compile(r"^[A-Za-z0-9._-]+$")


@dataclass(eq=False)
class Table:
    """How one table is stored.

    header names the columns; the first is the key. cells gives a row's
    cells in header order (default: the row's attributes named by the
    header); row builds a row from the cells of a line and raises
    ValueError on a bad cell. fields are the WarehouseState fields the
    table fills, its rows by key first. A dimension also has check, which
    returns why a loaded row is refused given the rows loaded before it
    (None: accepted), and add, which puts an accepted row into the state.
    """

    file: str
    header: str
    row: Callable[..., Any]
    cells: Callable[[Any], Sequence[object]] | None = None
    fields: tuple[str, ...] = ()
    check: Callable[[WarehouseState, Any], str | None] | None = None
    add: Callable[[WarehouseState, Any], None] | None = None
    key: str = field(init=False)
    width: int = field(init=False)

    def __post_init__(self) -> None:
        columns = self.header.split(",")
        self.key, self.width = columns[0], len(columns)
        if self.cells is None:
            self.cells = attrgetter(*columns)

    def parse(self, cells: list[str], *args) -> Any:
        """The row of one line's cells (args go on to row)."""
        if len(cells) != self.width:
            raise ValueError(f"expected {self.width} fields, got {len(cells)}")
        return self.row(cells, *args)

    def rows(self, state: WarehouseState) -> dict:
        """The table's rows in state, by key."""
        return getattr(state, self.fields[0])

    def line(self, row) -> str:
        return csv_line(self.cells(row))

    def text(self, rows: Iterable) -> str:
        """A whole file of this table holding rows."""
        return self.header + "\n" + "".join(self.line(r) + "\n" for r in rows)


def _opt_float(cell: str) -> float | None:
    return None if cell == "" else float(cell)


def _opt_str(cell: str) -> str | None:
    return None if cell == "" else cell


def _date_problem(state: WarehouseState, row: DimDate) -> str | None:
    if row != model.derive_date(row.date_key):
        return "derived date fields disagree with date_key"
    return None


def _species_problem(state: WarehouseState, row: DimSpecies) -> str | None:
    if not row.code:
        return "empty species code"
    if row.code in state.species_by_code:
        return f"duplicate species code {row.code}"
    if row.conservation_status not in model.CONSERVATION_STATUSES:
        return f"bad conservation_status {row.conservation_status!r}"
    return None


def _image_cells(row: DimImage) -> list:
    gt = row.geotransform
    return [
        row.image_key,
        row.file_name,
        row.platform,
        row.capture_date_key,
        row.width_px,
        row.height_px,
        row.gsd_cm_per_px,
        gt.origin_x,
        gt.origin_y,
        gt.a,
        gt.b,
        gt.d,
        gt.e,
        row.size_bytes,
        row.checksum,
    ]


def _image_row(cells: list[str]) -> DimImage:
    return DimImage(
        image_key=int(cells[0]),
        file_name=cells[1],
        platform=cells[2],
        capture_date_key=int(cells[3]),
        width_px=int(cells[4]),
        height_px=int(cells[5]),
        gsd_cm_per_px=float(cells[6]),
        geotransform=Geotransform(*map(float, cells[7:13])),
        size_bytes=int(cells[13]),
        checksum=cells[14],
    )


def _image_problem(state: WarehouseState, row: DimImage) -> str | None:
    problems = model.image_meta_violations(row.meta)
    if problems:
        return "; ".join(problems)
    if (row.file_name, row.checksum) in state.images_by_identity:
        return "duplicate (file_name, checksum)"
    if row.capture_date_key not in state.dates:
        raise IntegrityError(f"image {row.image_key} references missing date {row.capture_date_key}")
    return None


def _fact_cells(row: FactTreeMetric) -> list:
    return [
        row.fact_id,
        row.date_key,
        row.image_key,
        row.species_key,
        row.bbox.cx,
        row.bbox.cy,
        row.bbox.w,
        row.bbox.h,
        row.confidence,
        row.geo_x,
        row.geo_y,
        row.height_m,
        row.dbh_cm,
        row.validation,
        row.matched_record_id,
    ]


def _fact_row(cells: list[str], keys: dict[str, int]) -> FactTreeMetric:
    """keys maps the text of a date or image key to one int, which the rows
    of a load then share (a fact table repeats a few keys many times)."""
    date_key = keys.get(cells[1])
    if date_key is None:
        date_key = keys[cells[1]] = int(cells[1])
    image_key = keys.get(cells[2])
    if image_key is None:
        image_key = keys[cells[2]] = int(cells[2])
    return FactTreeMetric(
        fact_id=int(cells[0]),
        date_key=date_key,
        image_key=image_key,
        species_key=int(cells[3]),
        bbox=BoundingBox(cx=float(cells[4]), cy=float(cells[5]), w=float(cells[6]), h=float(cells[7])),
        confidence=float(cells[8]),
        geo_x=float(cells[9]),
        geo_y=float(cells[10]),
        height_m=_opt_float(cells[11]),
        dbh_cm=_opt_float(cells[12]),
        validation=sys.intern(cells[13]),
        matched_record_id=_opt_str(cells[14]),
    )


DATES = Table(
    "dim_date.tbl",
    "date_key,year,quarter,month,day,day_of_year",
    row=lambda cells: DimDate(*map(int, cells)),
    fields=("dates",),
    check=_date_problem,
    add=WarehouseState.add_date,
)
IMAGES = Table(
    "dim_image.tbl",
    "image_key,file_name,platform,capture_date_key,width_px,height_px,"
    "gsd_cm_per_px,gt_origin_x,gt_origin_y,gt_a,gt_b,gt_d,gt_e,size_bytes,checksum",
    row=_image_row,
    cells=_image_cells,
    fields=("images", "images_by_identity"),
    check=_image_problem,
    add=WarehouseState.add_image,
)
SPECIES = Table(
    "dim_species.tbl",
    "species_key,code,scientific_name,common_name,conservation_status",
    row=lambda cells: DimSpecies(int(cells[0]), *cells[1:]),
    fields=("species", "species_by_code"),
    check=_species_problem,
    add=WarehouseState.add_species,
)
FACTS = Table(
    "fact_tree_metrics.tbl",
    "fact_id,date_key,image_key,species_key,bbox_cx,bbox_cy,bbox_w,bbox_h,"
    "confidence,geo_x,geo_y,height_m,dbh_cm,validation,matched_record_id",
    row=_fact_row,
    cells=_fact_cells,
    fields=("facts",),
)
# one file per survey, under SURVEY_DIR
SURVEYS = Table(
    "",
    "record_id,geo_x,geo_y,species_code,dbh_cm,height_m,surveyed_date_key",
    row=lambda c: SurveyRecord(c[0], float(c[1]), float(c[2]), c[3], _opt_float(c[4]), _opt_float(c[5]), int(c[6])),
)

TABLES = (DATES, IMAGES, SPECIES, FACTS)
# In load order: an image row checks its date. Readers read the files in the
# reverse order; see SnapshotCache._refresh.
DIMENSIONS = (DATES, SPECIES, IMAGES)


def _atomic_write(path: Path, text: str) -> int:
    """Replace path's content with text; returns the bytes written."""
    data = text.encode("utf-8")
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    _fsync_dir(path.parent)
    return len(data)


def _fsync_dir(path: Path) -> None:
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class FileLock:
    """Exclusive flock on a lock file, held until release() or the holder's exit.

    The file is never unlinked: a waiter holding the old inode and a new
    opener creating a fresh one could otherwise both get a lock.
    """

    def __init__(self, path: Path):
        self.path = path
        self._fd: int | None = None

    def acquire(self, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o666)
        try:
            while True:
                try:
                    fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                    break
                except BlockingIOError:
                    if time.monotonic() >= deadline:
                        raise LockHeldError(f"warehouse lock held: {self.path}")
                    time.sleep(0.01)
        except BaseException:
            os.close(fd)
            raise
        self._fd = fd

    def release(self) -> None:
        if self._fd is not None:
            fd, self._fd = self._fd, None
            os.close(fd)


def _read_bytes(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except FileNotFoundError:
        raise NotInitializedError(f"missing table file: {path}")


def _table_rows(path: Path, data: bytes, table: Table, line_no: int = 1) -> Iterator[tuple[int, Any]]:
    """The (line_no, row) rows of data, a table file's bytes from line line_no on.

    Line 1 is the header and is checked first; each later line is parsed
    only when its row is taken.
    """
    lines = data.decode("utf-8").split("\n")
    if lines[-1] == "":
        lines.pop()
    if line_no == 1:
        if not lines or lines[0] != table.header:
            raise CorruptTableError(path, 1, f"bad header, expected {table.header!r}")
        del lines[0]
        line_no = 2
    for i, line in enumerate(lines, start=line_no):
        try:
            cells = next(csv.reader([line]))
        except (csv.Error, StopIteration):
            raise CorruptTableError(path, i, "unparseable CSV line")
        try:
            row = table.parse(cells)
        except ValueError as exc:
            raise CorruptTableError(path, i, str(exc))
        yield i, row


def _digest(data: bytes | memoryview) -> bytes:
    return hashlib.blake2b(data, digest_size=16).digest()


@dataclass(frozen=True)
class TableStats:
    name: str
    row_count: int
    file_bytes: int


@dataclass(frozen=True)
class WarehouseStats:
    tables: tuple[TableStats, ...]
    image_payload_bytes: int

    def table(self, name: str) -> TableStats:
        for t in self.tables:
            if t.name == name:
                return t
        raise KeyError(name)

    @property
    def image_count(self) -> int:
        return self.table("dim_image").row_count

    @property
    def fact_count(self) -> int:
        return self.table("fact_tree_metrics").row_count


def stats_rows(stats: WarehouseStats) -> tuple[tuple[str, ...], list[tuple]]:
    """Report rows for the stats table: per-table counts/bytes plus image payload."""
    from .report import format_binary_size

    columns = ("name", "row_count", "file_bytes", "mib")
    rows: list[tuple] = []
    for t in stats.tables:
        rows.append((t.name, t.row_count, t.file_bytes, format_binary_size(t.file_bytes, "MiB")))
    rows.append(
        (
            "image_payload",
            stats.image_count,
            stats.image_payload_bytes,
            format_binary_size(stats.image_payload_bytes, "MiB"),
        )
    )
    return columns, rows


class Warehouse:
    """Handle over one warehouse root; use open_warehouse() to construct."""

    def __init__(self, root: Path, mode: str, lock: FileLock | None):
        self.root = root
        self.mode = mode
        self.state = WarehouseState()
        # per table file: the bytes of the rows this handle holds, as the
        # load read them or the last write wrote them (facts: header and
        # committed rows only)
        self.table_bytes: dict[str, int] = {}
        self._lock = lock
        # held by a batch for its whole length (see batch)
        self._mutex = threading.RLock()
        self._batches = 0  # batches open, nested ones included
        # what the open batch has staged: dimension tables to write anew,
        # and fact rows to append (not in state until they are written)
        self._rewrites: set[Table] = set()
        self._appends: list[FactTreeMetric] = []
        self._closed = False

    # Surrogate keys continue past the largest one held. Fact rows are held
    # in fact_id order (a load refuses any other) and staged ones follow
    # them, so the last one is it.
    @property
    def _next_image_key(self) -> int:
        return max(self.state.images, default=0) + 1

    @property
    def _next_species_key(self) -> int:
        return max(self.state.species, default=0) + 1

    @property
    def _next_fact_id(self) -> int:
        if self._appends:
            return self._appends[-1].fact_id + 1
        return next(reversed(self.state.facts), 0) + 1

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            if self._lock is not None:
                self._lock.release()

    def __enter__(self) -> "Warehouse":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _require_writer(self) -> None:
        if self._closed:
            raise WarehouseError("handle is closed")
        if self.mode != "rw":
            raise ReadOnlyError("warehouse opened read-only")

    # -- paths -------------------------------------------------------------

    def _path(self, name: str) -> Path:
        return self.root / name

    def survey_path(self, survey_id: str) -> Path:
        return self.root / SURVEY_DIR / f"{survey_id}.tbl"

    # -- loading -----------------------------------------------------------

    def _load_dimension(self, table: Table, data: bytes, loaded: int = 0, line_no: int = 1) -> None:
        """Add the rows of data, a dimension file's bytes, past byte loaded.

        Line line_no starts at byte loaded; line 1 is the header. Every row
        before it is already in self.state, so a tail refresh runs the same
        row checks as a full load.
        """
        path = self._path(table.file)
        rows = table.rows(self.state)
        for line_no, row in _table_rows(path, data[loaded:], table, line_no):
            key = getattr(row, table.key)
            try:
                problem = f"duplicate {table.key} {key}" if key in rows else table.check(self.state, row)
            except IntegrityError as exc:
                raise IntegrityError(f"{path}:{line_no}: {exc}") from None
            if problem:
                raise CorruptTableError(path, line_no, problem)
            table.add(self.state, row)
        self.table_bytes[table.file] = len(data)

    def _load_facts(
        self, fh: BinaryIO, committed: int | None, offset: int = 0, line_no: int = 1
    ) -> tuple[int, int] | None:
        """Add the fact rows stored in fh from byte offset on, up to committed.

        Offset 0 is a full load and starts at the header line. Otherwise
        (offset, line_no) is a point an earlier call returned, and every row
        before it is already in self.state, so a tail refresh runs the same
        row checks as a full load. Returns the point past the leading run of
        newline-terminated rows this call accepted, where a later call may
        resume; None when a row was accepted after one that was left out, so
        that only a full load reproduces the result. It writes nothing: rows
        left out stay in the file until SnapshotCache.open_writer drops them.
        """
        path = self._path(FACTS.file)
        fh.seek(offset)
        lines = fh.read().split(b"\n")
        terminated = len(lines) - 1  # lines that end in a newline
        if lines[-1] == b"":
            lines.pop()
        if offset == 0:
            if not lines or lines[0] != FACTS.header.encode():
                raise CorruptTableError(path, 1, f"bad header, expected {FACTS.header!r}")
            first, size = 1, len(lines[0]) + 1
        else:
            first, size = 0, self.table_bytes[FACTS.file]
        last_line_no = line_no + len(lines) - 1
        prev_id = next(reversed(self.state.facts), None)
        rows: list[FactTreeMetric] = []
        keys: dict[str, int] = {}
        parse = FACTS.parse
        gap = None  # index of the first line left out
        for i in range(first, len(lines)):
            try:
                cells = next(csv.reader([lines[i].decode("utf-8")]))
                row = parse(cells, keys)
            except (csv.Error, StopIteration, ValueError) as exc:
                if line_no + i == last_line_no:
                    # torn trailing write from an interrupted append
                    if gap is None:
                        gap = i
                    break
                raise CorruptTableError(path, line_no + i, f"unparseable fact row: {exc}")
            if committed is not None and row.fact_id > committed:
                # appended but never committed
                if gap is None:
                    gap = i
                continue
            if prev_id is not None and row.fact_id <= prev_id:
                raise CorruptTableError(path, line_no + i, f"fact_id {row.fact_id} out of order")
            problems = model.fact_field_violations(row)
            if problems:
                raise CorruptTableError(path, line_no + i, "; ".join(problems))
            fk = model.validate_fact(row, self.state)
            if fk:
                raise IntegrityError(f"{path}:{line_no + i}: fact {row.fact_id}: " + "; ".join(fk))
            rows.append(row)
            size += len(lines[i]) + 1
            prev_id = row.fact_id
        max_id = prev_id or 0
        if committed is not None and max_id < committed:
            raise CorruptTableError(path, last_line_no, f"commit marker {committed} exceeds last stored fact_id {max_id}")
        for row in rows:
            self.state.add_fact(row)
        self.table_bytes[FACTS.file] = size
        unbroken = len(lines) if gap is None else gap
        if first + len(rows) != unbroken or unbroken > terminated:
            return None
        return offset + sum(map(len, lines[:unbroken])) + unbroken, line_no + unbroken

    def _read_commit_marker(self) -> int | None:
        path = self._path(COMMIT_MARKER)
        try:
            text = path.read_text(encoding="utf-8").strip()
        except FileNotFoundError:
            return None
        try:
            value = int(text)
        except ValueError:
            raise CorruptTableError(path, 1, f"bad commit marker {text!r}")
        if value < 0:
            raise CorruptTableError(path, 1, f"negative commit marker {value}")
        return value

    # -- writing -----------------------------------------------------------

    def _rewrite(self, table: Table) -> None:
        """Write table's file anew from the rows held, in key order."""
        rows = table.rows(self.state)
        text = table.text(rows[key] for key in sorted(rows))
        self.table_bytes[table.file] = _atomic_write(self._path(table.file), text)

    def _write_commit(self, fact_id: int) -> None:
        _atomic_write(self._path(COMMIT_MARKER), f"{fact_id}\n")

    @contextmanager
    def batch(self) -> Iterator[None]:
        """Stage the writes made inside the block; commit them once at its end.

        upsert_species, ensure_date and insert_image put their rows in state
        at once, and append_facts checks its drafts and assigns their ids at
        once, but nothing reaches disk until the outermost batch ends. Then
        each changed dimension is rewritten, in DIMENSIONS order, all fact
        rows are appended with one fsync, and COMMIT moves once. Each of
        those methods is a batch of its own, so outside a batch a call has
        committed when it returns. An exception inside the block still
        commits what was staged before it, and then propagates. Writes from
        other threads wait until the batch has committed.
        """
        with self._mutex:
            self._batches += 1
            try:
                yield
            finally:
                self._batches -= 1
                if not self._batches:
                    self._flush()

    def _flush(self) -> None:
        """Write what the batch staged: dimensions, then facts, then COMMIT.

        A dimension whose rewrite fails stays staged. Staged fact rows are
        dropped when they cannot all be written; the append is cut back
        off the file, so COMMIT and the committed rows stay as they were.
        """
        rows, self._appends = self._appends, []
        for table in DIMENSIONS:
            if table in self._rewrites:
                self._rewrite(table)
                self._rewrites.discard(table)
        if not rows:
            return
        data = "".join(FACTS.line(row) + "\n" for row in rows).encode("utf-8")
        path = self._path(FACTS.file)
        pre_size = path.stat().st_size
        try:
            with open(path, "ab") as fh:
                fh.write(data)
                fh.flush()
                os.fsync(fh.fileno())
        except OSError:
            os.truncate(path, pre_size)
            raise
        for row in rows:
            self.state.add_fact(row)
        self.table_bytes[FACTS.file] += len(data)
        self._write_commit(rows[-1].fact_id)

    # -- mutating operations -----------------------------------------------

    def upsert_species(
        self,
        code: str,
        scientific_name: str = "",
        common_name: str = "",
        conservation_status: str = "unknown",
    ) -> int:
        """Insert a species or return the existing key for its code.

        Descriptive fields of an existing row are never overwritten.
        """
        self._require_writer()
        code = code.strip().upper()
        if not code:
            raise EmptyCodeError("species code is empty")
        if conservation_status not in model.CONSERVATION_STATUSES:
            raise InvalidMetadataError(f"bad conservation_status {conservation_status!r}")
        for text in (code, scientific_name, common_name):
            if model.has_line_break(text):
                raise InvalidMetadataError(f"species text {text!r} contains a line break")
        with self.batch():
            existing = self.state.species_by_code.get(code)
            if existing is not None:
                return existing
            key = self._next_species_key
            row = DimSpecies(
                species_key=key,
                code=code,
                scientific_name=scientific_name,
                common_name=common_name,
                conservation_status=conservation_status,
            )
            self.state.add_species(row)
            self._rewrites.add(SPECIES)
            return key

    def ensure_date(self, date_key: int) -> int:
        """Materialize the date dimension row for date_key (idempotent)."""
        self._require_writer()
        row = model.derive_date(date_key)
        with self.batch():
            if date_key not in self.state.dates:
                self.state.add_date(row)
                self._rewrites.add(DATES)
        return date_key

    def insert_image(self, meta: ImageMeta) -> int:
        """Insert an image row; identical (file_name, checksum) is a no-op."""
        self._require_writer()
        problems = model.image_meta_violations(meta)
        if problems:
            raise InvalidMetadataError("; ".join(problems))
        with self.batch():
            if meta.capture_date_key not in self.state.dates:
                raise InvalidMetadataError(
                    f"capture_date_key {meta.capture_date_key} not materialized (call ensure_date first)"
                )
            existing = self.state.images_by_identity.get((meta.file_name, meta.checksum))
            if existing is not None:
                return existing
            key = self._next_image_key
            row = DimImage(image_key=key, **meta.__dict__)
            self.state.add_image(row)
            self._rewrites.add(IMAGES)
            return key

    def append_facts(self, drafts: Sequence[FactDraft]) -> list[int]:
        """Add facts; returns their assigned ids in order.

        Any invalid fact fails the whole call before anything is staged.
        The rows commit together, with the batch they are staged in.
        """
        self._require_writer()
        with self.batch():
            problems = []
            for i, draft in enumerate(drafts):
                issues = model.fact_field_violations(draft) + model.validate_fact(draft, self.state)
                if issues:
                    problems.append(f"fact {i}: " + "; ".join(issues))
            if problems:
                raise IntegrityError("; ".join(problems))
            first = self._next_fact_id
            rows = [draft.with_id(first + i) for i, draft in enumerate(drafts)]
            self._appends += rows
            return [row.fact_id for row in rows]

    def rewrite_validation(self, updates: Mapping[int, ValidationUpdate]) -> int:
        """Apply validation annotations; all other fact fields stay unchanged."""
        self._require_writer()
        with self._mutex:
            unknown = [fid for fid in updates if fid not in self.state.facts]
            if unknown:
                raise UnknownFactError(f"unknown fact ids: {sorted(unknown)}")
            for fid, upd in updates.items():
                if upd.validation not in model.VALIDATION_STATES:
                    raise UnknownFactError(f"fact {fid}: bad validation state {upd.validation!r}")
            if not updates:
                return 0
            new_facts: dict[int, FactTreeMetric] = {}
            for fid, fact in self.state.facts.items():
                upd = updates.get(fid)
                if upd is not None:
                    fact = replace(
                        fact,
                        height_m=upd.height_m if upd.height_m is not None else fact.height_m,
                        dbh_cm=upd.dbh_cm if upd.dbh_cm is not None else fact.dbh_cm,
                        validation=upd.validation,
                        matched_record_id=upd.matched_record_id,
                    )
                new_facts[fid] = fact
            old = self.state.facts, self.table_bytes[FACTS.file]
            self.state.facts = new_facts
            try:
                self._rewrite(FACTS)  # same fact ids, so COMMIT stays as it is
            except OSError:
                self.state.facts, self.table_bytes[FACTS.file] = old
                raise
            return len(updates)

    # -- surveys -----------------------------------------------------------

    def save_survey(self, survey_id: str, records: Sequence[SurveyRecord]) -> bool:
        """Persist a survey file; identical re-saves are no-ops.

        Returns True when a new file was written. Differing content for an
        existing id raises, since survey files are immutable history.
        """
        self._require_writer()
        if not _SURVEY_ID_RE.match(survey_id):
            raise WarehouseError(f"bad survey id {survey_id!r} (use letters, digits, . _ -)")
        for rec in records:
            for text in (rec.record_id, rec.species_code):
                if model.has_line_break(text):
                    raise InvalidMetadataError(f"survey text {text!r} contains a line break")
        path = self.survey_path(survey_id)
        text = SURVEYS.text(records)
        with self._mutex:
            if path.exists():
                if path.read_text(encoding="utf-8") == text:
                    return False
                raise SurveyImmutableError(f"survey {survey_id!r} already ingested with different content")
            path.parent.mkdir(exist_ok=True)
            _atomic_write(path, text)
            return True

    def list_survey_ids(self) -> list[str]:
        d = self.root / SURVEY_DIR
        if not d.is_dir():
            return []
        return sorted(p.stem for p in d.glob("*.tbl"))

    def load_survey(self, survey_id: str) -> list[SurveyRecord]:
        path = self.survey_path(survey_id)
        return [row for _, row in _table_rows(path, _read_bytes(path), SURVEYS)]

    def load_all_survey_records(self) -> list[SurveyRecord]:
        """All survey records merged; record ids must be globally unique."""
        seen: dict[str, str] = {}
        out = []
        for sid in self.list_survey_ids():
            for rec in self.load_survey(sid):
                if rec.record_id in seen:
                    raise DuplicateRecordError(
                        f"record id {rec.record_id!r} appears in surveys {seen[rec.record_id]!r} and {sid!r}"
                    )
                seen[rec.record_id] = sid
                out.append(rec)
        return out

    # -- stats ---------------------------------------------------------------

    def stats(self) -> WarehouseStats:
        """Row counts and stored bytes of the rows this handle holds."""
        tables = tuple(
            TableStats(
                name=t.file.removesuffix(".tbl"),
                row_count=len(t.rows(self.state)),
                file_bytes=self.table_bytes[t.file],
            )
            for t in TABLES
        )
        payload = sum(img.size_bytes for img in self.state.images.values())
        return WarehouseStats(tables=tables, image_payload_bytes=payload)


def open_warehouse(root, mode: str = "rw", lock_timeout: float = 10.0) -> Warehouse:
    """Open (and if needed initialize) the warehouse at root.

    mode "rw" acquires the writer lock, creates missing table files and
    drops uncommitted rows; mode "ro" reads the committed snapshot without
    locking and requires the warehouse to exist. Either way this is one
    SnapshotCache load of root, after which the cache is closed.
    """
    if mode not in ("rw", "ro"):
        raise ValueError(f"mode must be 'rw' or 'ro', got {mode!r}")
    cache = SnapshotCache(root)
    try:
        return cache.open_writer(lock_timeout) if mode == "rw" else cache.current()
    finally:
        cache.close()


def _file_key(path: Path) -> tuple[int, int, int]:
    try:
        st = os.stat(path)
    except FileNotFoundError:
        raise NotInitializedError(f"missing table file: {path}")
    return st.st_ino, st.st_size, st.st_mtime_ns


class SnapshotCache:
    """The committed state of one root, kept current for a long-lived process.

    current() brings the snapshot up to date and returns it as a read-only
    Warehouse. It reads what a fresh open_warehouse(root, "ro") would, in the
    same order and through the same row checks, but parses only what is new
    since the last call:
    - a dimension file is re-read when its (inode, size, mtime) changed. A
      writer rewrites it whole, sorted by key; when the bytes loaded before
      are still its first bytes (checked by digest), only the lines after
      them are parsed. Otherwise everything is reloaded.
    - the fact file is held open, so that its inode number cannot be
      reused, and parsed only past the last committed row already loaded.
      A fact file with a new inode (rewritten by rewrite_validation or by
      crash recovery) is reloaded whole.
    A returned Warehouse is never changed afterwards: a refresh that finds
    changes publishes a new one, built from copies of the old dicts.

    open_writer() gives a read-write handle built on the same rows, so that
    a writer does not hold a second copy of the fact table next to the
    cached one. open_warehouse is either call on a cache used once.
    """

    def __init__(self, root):
        self.root = Path(root)
        self._mutex = threading.Lock()
        self._handle: Warehouse | None = None
        # per dimension file: (inode, size, mtime), bytes loaded (None: not
        # a whole number of lines), digest of those bytes, next line number
        self._dims: dict[str, tuple[tuple[int, int, int], int | None, bytes, int]] = {}
        self._facts_fh: BinaryIO | None = None
        self._facts_key: tuple[int | None, int] | None = None  # (COMMIT, file size)
        self._resume: tuple[int, int] | None = None

    def close(self) -> None:
        with self._mutex:
            if self._facts_fh is not None:
                self._facts_fh.close()
            self._facts_fh = self._handle = self._resume = None

    def open_writer(self, lock_timeout: float = 10.0) -> Warehouse:
        """A read-write handle on the root, built on the cached rows.

        Under the writer lock it creates the root and any missing table
        file, refreshes the snapshot, drops fact rows that are not
        committed or not whole by rewriting the fact file, and writes the
        COMMIT marker when it is missing. The handle gets its own dicts;
        the frozen rows in them are shared with the snapshot.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        lock = FileLock(self.root / LOCK_FILE)
        lock.acquire(lock_timeout)
        try:
            for table in TABLES:
                path = self.root / table.file
                if not path.exists():
                    _atomic_write(path, table.text(()))
            with self._mutex:
                snap = self._refresh(self._handle)
                (committed, size), resume = self._facts_key, self._resume
            wh = Warehouse(self.root, "rw", lock)
            wh.state = snap.state.copy()
            wh.table_bytes = dict(snap.table_bytes)
            if resume is None or resume[0] != size:
                # drop the rows left out, and end the last row with a newline
                # so that the next append starts a line of its own
                wh._rewrite(FACTS)
            if committed is None:
                # marker missing (externally assembled warehouse): adopt as-is
                wh._write_commit(wh._next_fact_id - 1)
            return wh
        except BaseException:
            lock.release()
            raise

    def current(self) -> Warehouse:
        with self._mutex:
            return self._refresh(self._handle)

    def _refresh(self, old: Warehouse | None) -> Warehouse:
        """Bring the snapshot up to date from old (None: load everything)."""
        new = Warehouse(self.root, "ro", None)
        committed = new._read_commit_marker()
        keys, tables = {}, {}
        for table in reversed(DIMENSIONS):  # see "Read order" in the module docstring
            path = new._path(table.file)
            keys[table.file] = _file_key(path)
            if old is None or self._dims[table.file][0] != keys[table.file]:
                tables[table.file] = _read_bytes(path)
        if old is not None:
            new.table_bytes = dict(old.table_bytes)
        dims = {}
        for table in DIMENSIONS:
            data = tables.get(table.file)
            if data is None:
                for f in table.fields:
                    setattr(new.state, f, getattr(old.state, f))
                dims[table.file] = self._dims[table.file]
                continue
            loaded, line_no = 0, 1
            if old is not None:
                _, loaded, digest, line_no = self._dims[table.file]
                if loaded is None or len(data) < loaded or _digest(memoryview(data)[:loaded]) != digest:
                    # rows loaded before have changed: check everything again
                    return self._refresh(None)
                for f in table.fields:
                    setattr(new.state, f, dict(getattr(old.state, f)))
            new._load_dimension(table, data, loaded, line_no)
            # only whole lines can be extended by a later rewrite
            loaded = len(data) if data.endswith(b"\n") else None
            dims[table.file] = (keys[table.file], loaded, _digest(data), data.count(b"\n") + 1)
        path = new._path(FACTS.file)
        ino, size, _ = _file_key(path)
        facts_key = (committed, size)
        fh = self._facts_fh
        if old is None or self._resume is None or os.fstat(fh.fileno()).st_ino != ino:
            fh = open(path, "rb")
            try:
                resume = new._load_facts(fh, committed)
            except BaseException:
                fh.close()
                raise
        elif facts_key != self._facts_key:
            new.state.facts = dict(old.state.facts)
            resume = new._load_facts(fh, committed, *self._resume)
        elif not tables:
            return old
        else:
            new.state.facts = old.state.facts
            resume = self._resume
        if fh is not self._facts_fh and self._facts_fh is not None:
            self._facts_fh.close()
        self._handle, self._dims, self._facts_fh = new, dims, fh
        self._facts_key, self._resume = facts_key, resume
        return new
