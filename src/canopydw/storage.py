"""Append-only, file-backed persistence for the four star-schema tables.

On-disk layout under the warehouse root:

    dim_date.tbl            date dimension
    dim_image.tbl           image dimension
    dim_species.tbl         species dimension
    fact_tree_metrics.tbl   fact table (one detected tree per row)
    fact_tree_metrics.cols  fact checkpoint: the columns of a prefix of the
                            fact table (derived; safe to delete)
    COMMIT                  last committed fact_id, decimal text
    LOCK                    writer lock (flock; the file is empty and stays)
    surveys/<id>.tbl        immutable ground-truth survey files

Table files are newline-delimited CSV with a fixed header line; text fields
containing commas or quotes are double-quoted with doubled inner quotes.
Reals use the shortest round-trip decimal form; a fact line is rendered by
_fact_line, which gives the bytes csv_line would. Every stored file is read as
bytes split on "\n", and each line is decoded and parsed alone: a line that
is not UTF-8, does not parse or fails its row checks is refused with its file
and line. So every writer refuses, before it stages a row, text that no load
would read back (model.text_problem): a line break, a lone surrogate, or
more characters than csv.reader takes in a field.

Each table is described once, by a Table: its file, its header (the column
names, the first of them the key), how the cells of a line become a row, and
for a dimension the checks a loaded row must pass and the WarehouseState
fields it fills. A row is a NamedTuple of its cells in header order (model),
so it is rendered as it is; only an image row, which holds its geotransform
as one Geotransform, is flattened first. The fact table's header comes
from model.FACT_COLUMNS, as do FactRow and FactColumns. Parsing, rendering,
loading, rewriting, stats and file creation all iterate these descriptions:
TABLES, DIMENSIONS (in load order) and SURVEYS for survey files.

Commit protocol: dimension rows and facts are staged by a batch
(Warehouse.batch; each method that adds them is a batch of its own) and
committed once, when the outermost batch ends. The new rows of each
dimension table the batch changed are appended, in key order, in
DIMENSIONS order (dim_date is rewritten whole via write-then-rename
instead when a new date sorts before a stored one; see
Warehouse._write_rows); then all the batch's fact rows are appended with
one fsync, and they become visible only once the COMMIT marker (written via
rename) records the batch's last fact_id. A crash before COMMIT moves
leaves rows past the marker. A load reads the committed rows up to the
first row past the marker or a torn last line, and nothing after them. No
COMMIT vouches for a dimension line, so a load leaves out a last dimension
line without its newline or starting with a NUL (Warehouse._load_dimension).
The next rw open cuts every such tail off, before it writes. The facts are
as before the batch, and the batch's whole dimension rows stay,
unreferenced. Dimension rows are never mutated or
deleted; the single sanctioned fact mutation is the validation annotation
(Warehouse.rewrite_validation, given as columns, one entry per fact). It
writes the fact file anew and renames it in, but only when some annotation
changes a stored cell: an annotation equal to the stored one does not write
the fact file, so it keeps its inode.

Single-writer, multiple-reader: a handle opened in "rw" mode holds an
exclusive flock on the LOCK file for its lifetime. The kernel releases it
when the handle closes it or the holding process exits, however it exits;
the file itself is never removed. "ro" handles read a committed snapshot
without locking.

Read order: a load reads COMMIT first, then dim_image, dim_species and
dim_date (each table before the tables it references), then the key of
CHECKPOINT (one replaced after that costs a cache one more reload, never a
missed one), then the fact rows up to COMMIT. Writers write in the opposite
order (a date before the image that references it, dimension rows before
the facts, COMMIT last), so every row a committed fact or an image
references is on disk by the time the reader gets to its table.

A load of the fact rows from byte 0 (a read-only open, a writer's first
read of its facts, a server start, a cache reload after a rename) first
reads the fact checkpoint, CHECKPOINT. It holds the fact columns of the
first B bytes of the fact file, in model.FACT_COLUMNS order, with a
blake2b of those bytes and one of its own contents; its format line names
each column with its typecode and item size. The load copies the columns
instead of parsing those lines when both digests match, the last fact_id
in it is at most COMMIT, every date, image and species key in it is a
loaded dimension row, and each fact's date is its image's capture date; it
parses the lines past B as any load does. Otherwise it logs why, ignores
the checkpoint and parses every line, which gives the same rows or the
same refusal. So does a checkpoint of another column layout, such as one
written before the format line named the columns: after an upgrade, loads
parse the text until the next reconcile writes the checkpoint again. Only
rewrite_validation writes it, under the writer lock: after a new fact file
is renamed in, or, when no annotation changed, if the handle's rows were
not all copied from a checkpoint covering the committed fact file (its
load fell back, or rows were appended past B). Loading never writes it. A
crash before that write, a failed write or a hand edit leaves a checkpoint
that is torn or stale, which the next load refuses until the next
reconcile writes it again: the .tbl text stays the only truth. stats does
not count the file.

Every open is a SnapshotCache load, which alone reads this order. A
long-lived process keeps one cache current, parsing only what changed;
open_warehouse is the one-shot form, a cache built, used once and closed.
A load continues each table from Warehouse.table_bytes, the bytes of the
rows already held: from byte 0 and the header on a first load.

A load holds the dimension rows as NamedTuples in dicts, and the fact
rows as model.FactColumns: one typed column per field, in fact_id order,
about 100 bytes per fact. No object is held per fact: a fact is read from
the columns by position, or as a FactRow's cells (FactColumns.cells), and
queries scan the columns. A writer stages each new fact as the FactRow its
draft gives, renders that row's line and appends it to the columns.

A read-write open on a cache that holds no snapshot (every
open_warehouse(root, "rw")) reads COMMIT and each dimension once, and of the
fact file only its last two lines, which it loads as any load loads rows
past the bytes held (Warehouse._load_facts). When that load ends at the
file's end with the row whose id is COMMIT, the tail is clean: the writer
holds no fact row until its state.facts is first accessed (by reconcile,
an annotation or stats), and then reads them all, through the checks of any
load. So such a writer does not refuse damage in the committed rows before
the last two lines; a read-only open still does. On any other tail (rows
past COMMIT, a torn or unterminated last line, a last line longer than the
bytes read back, no COMMIT) the writer keeps the COMMIT and dimension rows
it read and loads the fact rows from byte 0; the fact file is then cut back
to the committed rows by rewriting it and renaming it in, as is a dimension
file with a torn tail (Warehouse._cut).

Every durable write goes through one of two functions: _atomic_write
replaces a file (write, fsync, rename, fsync of the directory; a failed
write removes its temporary file) and _append appends to one (write, fsync;
a failed append is cut back off).
"""

from __future__ import annotations

import csv
import fcntl
import hashlib
import logging
import os
import re
import sys
import threading
import time
import weakref
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterable, Iterator, Mapping, Sequence

from . import model
from .errors import (
    CorruptTableError,
    DuplicateRecordError,
    EmptyCodeError,
    IntegrityError,
    InvalidDateError,
    InvalidMetadataError,
    LockHeldError,
    NotInitializedError,
    ReadOnlyError,
    SurveyImmutableError,
    UnknownFactError,
    WarehouseError,
)
from .model import (
    DimDate,
    DimImage,
    DimSpecies,
    FactColumns,
    FactDraft,
    FactRow,
    Geotransform,
    ImageMeta,
    SurveyColumns,
    SurveyRecord,
    WarehouseState,
)
from .report import ResultTable, csv_line, format_binary_size

COMMIT_MARKER = "COMMIT"
LOCK_FILE = "LOCK"
SURVEY_DIR = "surveys"
CHECKPOINT = "fact_tree_metrics.cols"

log = logging.getLogger(__name__)

_SURVEY_ID_RE = re.compile(r"[A-Za-z0-9._-]+")


@dataclass(eq=False)
class Table:
    """How one table is stored.

    header names the columns; the first is the key. A row is a NamedTuple
    of its cells in header order; cells gives them, which is the row itself
    but for an image row. row builds a row from the cells of a line and
    raises ValueError on a bad cell. state_field names the WarehouseState
    field that holds the table's rows: a dict by key, or FactColumns for the
    facts. A dimension also has check, which returns why a loaded row is
    refused given the rows loaded before it (None: accepted), and add, which
    puts an accepted row into the state.
    """

    file: str
    header: str
    row: Callable[[list[str]], Any]
    cells: Callable[[Any], Sequence[object]] = lambda row: row
    state_field: str = ""
    check: Callable[[WarehouseState, Any], str | None] | None = None
    add: Callable[[WarehouseState, Any], None] | None = None
    key: str = field(init=False)
    width: int = field(init=False)

    def __post_init__(self) -> None:
        columns = self.header.split(",")
        self.key, self.width = columns[0], len(columns)

    def parse(self, cells: list[str]) -> Any:
        """The row of one line's cells."""
        if len(cells) != self.width:
            raise ValueError(f"expected {self.width} fields, got {len(cells)}")
        return self.row(cells)

    def rows(self, state: WarehouseState) -> Mapping | FactColumns:
        """The table's rows in state."""
        return getattr(state, self.state_field)

    def lines(self, rows: Iterable[Any]) -> str:
        """The stored lines of rows, each ending in its newline."""
        return "".join([csv_line(self.cells(row)) + "\n" for row in rows])

    def text(self, rows: Iterable[Any]) -> str:
        """A whole file of this table holding rows."""
        return self.header + "\n" + self.lines(rows)


def _opt_float(cell: str) -> float | None:
    return None if cell == "" else float(cell)


# The conversion of each survey cell, in header order; None: the text as it is.
_SURVEY_CELLS = (None, float, float, None, _opt_float, _opt_float, int)


def _date_problem(state: WarehouseState, row: DimDate) -> str | None:
    try:
        derived = model.derive_date(row.date_key)
    except InvalidDateError as exc:
        return str(exc)
    if row != derived:
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


def _image_row(cells: list[str]) -> DimImage:
    return DimImage(
        int(cells[0]), cells[1], cells[2], int(cells[3]), int(cells[4]), int(cells[5]), float(cells[6]),
        Geotransform(*map(float, cells[7:13])), int(cells[13]), cells[14],
    )


def _image_problem(state: WarehouseState, row: DimImage) -> str | None:
    problems = model.image_meta_violations(row, state.dates)
    if problems:
        return "; ".join(problems)
    if (row.file_name, row.checksum) in state.images_by_identity:
        return "duplicate (file_name, checksum)"
    if row.capture_date_key not in state.dates:
        raise IntegrityError(f"image {row.image_key} references missing date {row.capture_date_key}")
    return None


_SPECIAL_CELL = re.compile('[,"\r\n\0]').search


def _fact_line(row: Sequence) -> str:
    """csv_line(row) for a fact line's cells (a FactRow), built in one
    f-string instead of a csv.writer: str() of an int, repr() of a float,
    None empty and the validation state as it is. A matched_record_id
    holding a comma, quote, line break or NUL, which csv.writer quotes (or
    refuses, NUL on Python 3.10), goes through csv_line. Unrolled, as
    _fact_row is, for speed; a test pins both to model.FACT_COLUMNS."""
    fact_id, date_key, image_key, species_key, cx, cy, w, h, confidence, geo_x, geo_y, height, dbh, state, record = row
    if record is None:
        record = ""
    elif _SPECIAL_CELL(record):
        return csv_line(row)
    return (
        f"{fact_id},{date_key},{image_key},{species_key},{cx!r},{cy!r},{w!r},{h!r},{confidence!r},{geo_x!r},"
        f"{geo_y!r},{'' if height is None else repr(height)},{'' if dbh is None else repr(dbh)},{state},{record}"
    )


def _fact_row(cells: list[str]) -> FactRow:
    fact_id = int(cells[0])
    if not -(2**63) <= fact_id < 2**63:  # the range of FactColumns.fact_id
        raise ValueError(f"fact_id {fact_id} out of range")
    return FactRow._make((
        fact_id, int(cells[1]), int(cells[2]), int(cells[3]),
        float(cells[4]), float(cells[5]), float(cells[6]), float(cells[7]),
        float(cells[8]), float(cells[9]), float(cells[10]), _opt_float(cells[11]), _opt_float(cells[12]),
        cells[13], cells[14] or None,
    ))


DATES = Table(
    "dim_date.tbl",
    "date_key,year,quarter,month,day,day_of_year",
    row=lambda cells: DimDate(*map(int, cells)),
    state_field="dates",
    check=_date_problem,
    add=WarehouseState.add_date,
)
IMAGES = Table(
    "dim_image.tbl",
    "image_key,file_name,platform,capture_date_key,width_px,height_px,"
    "gsd_cm_per_px,gt_origin_x,gt_origin_y,gt_a,gt_b,gt_d,gt_e,size_bytes,checksum",
    row=_image_row,
    cells=lambda row: (*row[:7], *row.geotransform, *row[8:]),
    state_field="images",
    check=_image_problem,
    add=WarehouseState.add_image,
)
SPECIES = Table(
    "dim_species.tbl",
    "species_key,code,scientific_name,common_name,conservation_status",
    row=lambda cells: DimSpecies(int(cells[0]), *cells[1:]),
    state_field="species",
    check=_species_problem,
    add=WarehouseState.add_species,
)
FACTS = Table(
    "fact_tree_metrics.tbl",
    ",".join(column.stored or column.name for column in model.FACT_COLUMNS),
    row=_fact_row,
    state_field="facts",
)
# one file per survey, under SURVEY_DIR
SURVEYS = Table(
    "",
    "record_id,geo_x,geo_y,species_code,dbh_cm,height_m,surveyed_date_key",
    row=lambda cells: SurveyRecord._make(
        cell if convert is None else convert(cell) for convert, cell in zip(_SURVEY_CELLS, cells)
    ),
)

TABLES = (DATES, IMAGES, SPECIES, FACTS)
# In load order: an image row checks its date. Readers read the files in the
# reverse order; see SnapshotCache._read_changes.
DIMENSIONS = (DATES, SPECIES, IMAGES)

# The bytes a read-write open reads back from the end of the fact file to
# find its last two lines (see Warehouse._tail_is_clean).
_TAIL_BYTES = 4096


# The fact checkpoint (CHECKPOINT) holds the fact columns of a prefix of the
# fact file, so that a load from byte 0 copies them instead of parsing those
# lines. Line 1 is _CHECKPOINT_FORMAT, which names each array, and the
# blake2b of the rest of the file. Line 2 is the fact count n, the length of
# the prefix and the blake2b of the prefix. Then come the bytes of each
# array (n items each), then the matched record ids in UTF-8 joined by "\n",
# empty for None.
_CHECKPOINT_ARRAYS = tuple(column for column in model.FACT_COLUMNS if column.typecode)
_CHECKPOINT_FORMAT = "canopydw-cols 1 {} {}".format(
    sys.byteorder, ",".join(f"{c.name}:{c.typecode}{array(c.typecode).itemsize}" for c in _CHECKPOINT_ARRAYS)
)


def _digest(data: bytes | memoryview) -> str:
    return hashlib.blake2b(data).hexdigest()


def _checkpoint(facts: FactColumns, text: bytes) -> bytes:
    """The checkpoint of facts, the rows that text (a whole fact file) holds."""
    body = [
        f"{len(facts)} {len(text)} {_digest(text)}\n".encode(),
        *(memoryview(getattr(facts, column.name)) for column in _CHECKPOINT_ARRAYS),
        "\n".join([record or "" for record in facts.matched_record_id]).encode("utf-8"),
    ]
    digest = hashlib.blake2b()
    for part in body:
        digest.update(part)
    return b"".join([f"{_CHECKPOINT_FORMAT} {digest.hexdigest()}\n".encode(), *body])


def _checkpoint_columns(blob: bytes, text: bytes) -> tuple[FactColumns, int]:
    """The fact columns that blob, a checkpoint, holds, and the length of the
    prefix of text (the fact file's bytes) whose rows they are. Raises
    ValueError naming why blob does not describe text."""
    head = blob.find(b"\n")
    fmt, _, digest = blob[:head].decode("latin-1").rpartition(" ")
    if fmt != _CHECKPOINT_FORMAT:
        raise ValueError("format version or byte order differs")
    if _digest(memoryview(blob)[head + 1 :]) != digest:
        raise ValueError("payload digest differs")
    counts = blob.index(b"\n", head + 1)
    n, covered, prefix = blob[head + 1 : counts].decode().split(" ")
    n, covered = int(n), int(covered)
    if covered > len(text) or _digest(memoryview(text)[:covered]) != prefix:
        raise ValueError(f"prefix digest differs: the fact file's first {covered} bytes changed")
    facts, view, at = FactColumns(), memoryview(blob), counts + 1
    for entry in _CHECKPOINT_ARRAYS:
        column = getattr(facts, entry.name)
        column.frombytes(view[at : at + n * column.itemsize])
        at += n * column.itemsize
    if n:
        facts.matched_record_id = [record or None for record in blob[at:].decode("utf-8").split("\n")]
    return facts, covered


def _atomic_write(path: Path, text: str | bytes) -> int:
    """Replace path's content with text; returns the bytes written. A write
    that fails before the rename removes its temporary file, so path keeps
    its bytes and no partial copy is left beside it."""
    data = text.encode("utf-8") if isinstance(text, str) else text
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    _fsync_dir(path.parent)
    return len(data)


def _append(path: Path, data: bytes) -> int:
    """Append data to path and fsync it; returns the bytes written. A failed
    write is cut back off, so path keeps the bytes it had."""
    size = path.stat().st_size
    try:
        with open(path, "ab") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
    except OSError:
        os.truncate(path, size)
        raise
    return len(data)


def _inode(path: Path) -> int | None:
    try:
        return os.stat(path).st_ino
    except OSError:
        return None  # unequal to any inode


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


def _kind(column: Sequence) -> str:
    """A column's type as FactColumns holds it: array('d'), list, ..."""
    return f"array({column.typecode!r})" if isinstance(column, array) else type(column).__name__


def _read_bytes(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except FileNotFoundError:
        raise NotInitializedError(f"missing table file: {path}")


def _table_lines(path: Path, data: bytes, table: Table, line_no: int) -> tuple[list[bytes], int]:
    """The lines of data, a table file's bytes from line line_no on, and the
    number of the first of them. Line 1 is the header: it is checked and
    left out."""
    lines = data.split(b"\n")
    if lines[-1] == b"":
        lines.pop()
    if line_no == 1:
        if not lines or lines[0] != table.header.encode():
            raise CorruptTableError(path, 1, f"bad header, expected {table.header!r}")
        del lines[0]
        line_no = 2
    return lines, line_no


def _cells(text: str) -> list[str]:
    """The CSV cells of one line. A non-empty line with no quote, carriage
    return or NUL is split on commas, which is what csv.reader gives for it;
    any other line goes through csv.reader."""
    if text and '"' not in text and "\r" not in text and "\0" not in text:
        return text.split(",")
    return next(csv.reader([text]))


def _parse_line(path: Path, line_no: int, line: bytes, table: Table) -> Any:
    """The row of one stored line."""
    try:
        return table.parse(_cells(line.decode("utf-8")))
    except (csv.Error, StopIteration):
        raise CorruptTableError(path, line_no, "unparseable CSV line")
    except ValueError as exc:  # UnicodeDecodeError among them
        raise CorruptTableError(path, line_no, str(exc))


def _survey_columns(path: Path, data: bytes) -> SurveyColumns:
    """The records of a survey file's bytes as columns. The lines are split
    with _cells and each column is converted whole; should that fail, the
    lines go through _parse_line one by one, so that the first bad line is
    refused with its path and line number."""
    lines, first = _table_lines(path, data, SURVEYS, 1)
    try:
        rows = list(map(_cells, b"\n".join(lines).decode("utf-8").split("\n")))
        # a StopIteration out of _cells would end the list early
        if len(rows) != len(lines) or set(map(len, rows)) != {SURVEYS.width}:
            raise ValueError("wrong width")
        return SurveyColumns(*(
            list(cells if convert is None else map(convert, cells)) for convert, cells in zip(_SURVEY_CELLS, zip(*rows))
        ))
    except (ValueError, csv.Error):
        return SurveyColumns.of(_parse_line(path, i, line, SURVEYS) for i, line in enumerate(lines, start=first))


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


def stats_rows(stats: WarehouseStats) -> ResultTable:
    """The stats report: per-table counts/bytes plus image payload."""
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
    return ResultTable(columns, rows)


class _FactsOnFirstRead(WarehouseState):
    """The state of a writer opened without reading its fact rows.

    The first access of facts reads the rows of the fact file from byte 0
    up to last_fact_id, through the checks of any load, under the writer's
    mutex, and stores them as the plain attribute facts, which later
    accesses find; it tells the writer how much of the file the checkpoint
    covered. Until then a fact row the writer adds is not held: it is on
    disk, and the read goes on up to it. The state holds only a weak
    reference to its writer, so that a closed writer is freed at once.
    """

    def __init__(self, writer: Warehouse, last_fact_id: int):
        vars(self).update(vars(writer.state))
        del self.facts
        self._root, self._mutex, self._last_fact_id = writer.root, writer._mutex, last_fact_id
        self._writer = weakref.ref(writer)

    def __getattr__(self, name: str):
        if name != "facts":
            raise AttributeError(name)
        with self._mutex:
            if "facts" not in vars(self):  # not read by another thread meanwhile
                reader = Warehouse(self._root, "ro", None)
                reader.state = WarehouseState(self.dates, self.images, self.species)
                reader._load_all_facts(self._last_fact_id)
                self.facts = reader.state.facts
                writer = self._writer()
                if writer is not None:
                    writer._checkpoint_bytes = reader._checkpoint_bytes
            return self.facts

    def add_fact(self, row: FactRow) -> None:
        if "facts" in vars(self):
            self.facts.append(row)
        else:
            self._last_fact_id = row.fact_id


class Warehouse:
    """Handle over one warehouse root; use open_warehouse() to construct."""

    def __init__(self, root: Path, mode: str, lock: FileLock | None):
        self.root = root
        self.mode = mode
        self.state = WarehouseState()
        # per table file: the bytes of the rows this handle holds, as the
        # load read them or the last write wrote them (facts: the header
        # and the committed rows, each with its newline); loads continue
        # from here
        self.table_bytes: dict[str, int] = {}
        self._lock = lock
        # held by a batch for its whole length (see batch)
        self._mutex = threading.RLock()
        self._batches = 0  # batches open, nested ones included
        # what the open batch has staged: new dimension rows by table (in
        # state already), and fact rows to append (not in state until they
        # are written)
        self._new_rows: dict[Table, list] = {}
        self._appends: list[FactRow] = []
        # the fact_id of the last row on disk that this handle read or wrote
        self._last_fact_id = 0
        # the bytes of the fact file whose rows the checkpoint holds, as far
        # as this handle knows (0: none); fresh when it is all of them
        self._checkpoint_bytes = 0
        self._closed = False

    # Surrogate keys continue past the largest one held. Fact ids continue
    # past the last row written, or the last one staged after it.
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
        return self._last_fact_id + 1

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

    def _load_dimension(self, table: Table, data: bytes) -> None:
        """Add the rows of data, a dimension file's bytes, past the bytes held.

        With none held this starts at the header line. Otherwise every row
        in the held bytes is already in self.state, one line each (a load
        refuses blank and duplicate lines), so a tail refresh runs the same
        row checks as a full load.

        Dimension rows are appended, and no COMMIT vouches for them, so a
        last line that an interrupted or unfinished append may have left is
        not loaded: one without its newline, or one that starts with a NUL
        (an append whose size persisted but not its bytes). Any other last
        line is parsed and checked like the rest. The bytes held count the
        header and each loaded row with its newline, so they differ from
        the file's size exactly when such a tail is left out (or the header
        has no newline); SnapshotCache.open_writer then cuts the file back.
        """
        path = self._path(table.file)
        rows = table.rows(self.state)
        held = self.table_bytes.get(table.file, 0)
        lines, first = _table_lines(path, data[held:], table, len(rows) + 2 if held else 1)
        if lines and (not data.endswith(b"\n") or lines[-1].startswith(b"\0")):
            del lines[-1]  # a torn append
        for line_no, line in enumerate(lines, start=first):
            row = _parse_line(path, line_no, line, table)
            key = getattr(row, table.key)
            try:
                problem = f"duplicate {table.key} {key}" if key in rows else table.check(self.state, row)
            except IntegrityError as exc:
                raise IntegrityError(f"{path}:{line_no}: {exc}") from None
            if problem:
                raise CorruptTableError(path, line_no, problem)
            table.add(self.state, row)
        self.table_bytes[table.file] = (held or len(table.header) + 1) + sum(len(line) + 1 for line in lines)

    def _load_dimensions(self, tables: Mapping[str, bytes]) -> None:
        """Load each dimension file's bytes in tables, in DIMENSIONS order."""
        for table in DIMENSIONS:
            if table.file in tables:
                self._load_dimension(table, tables[table.file])

    def _load_facts(self, fh: BinaryIO, committed: int | None) -> bytes | None:
        """Add the committed fact rows stored in fh past the bytes held.

        Lines are read and parsed as for a dimension, each held row being
        one line already in self.state. With no rows held, the rows of the
        checkpoint's prefix are copied from it when it holds (see
        _load_checkpoint), and the lines past that prefix are parsed. The
        committed rows end at the first row past committed, or at a refused
        last line (a torn write); nothing after that point is read. Each row
        counts its bytes and a newline, so the bytes held differ from the
        file's size exactly when the file holds more than the committed rows
        or its last row has no newline. It writes nothing:
        SnapshotCache.open_writer cuts such a file back to the rows held.

        Returns the last line held, with its newline (the header's when no
        row is held), or None when no row was added to rows held before.
        """
        path = self._path(FACTS.file)
        held = self.table_bytes.get(FACTS.file, 0)
        fh.seek(held)
        data = fh.read()
        last = None
        if not held:
            held = self._checkpoint_bytes = self._load_checkpoint(data, committed)
            last = data[data.rfind(b"\n", 0, held - 1) + 1 : held] if held else FACTS.header.encode() + b"\n"
            data = data[held:]
        facts = self.state.facts
        lines, line_no = _table_lines(path, data, FACTS, len(facts) + 2 if held else 1)
        del data  # the lines are copies: free the file's bytes before the rows are parsed
        self.table_bytes[FACTS.file] = held or len(FACTS.header) + 1
        last_line_no = line_no + len(lines) - 1
        prev_id = facts.fact_id[-1] if facts else None
        for i, line in enumerate(lines, start=line_no):
            try:
                row = _parse_line(path, i, line, FACTS)
            except CorruptTableError:
                if i == last_line_no:
                    break  # torn trailing write from an interrupted append
                raise
            if committed is not None and row.fact_id > committed:
                break  # appended but never committed
            if prev_id is not None and row.fact_id <= prev_id:
                raise CorruptTableError(path, i, f"fact_id {row.fact_id} out of order")
            self._check_fact(path, i, row)
            facts.append(row)
            self.table_bytes[FACTS.file] += len(line) + 1
            prev_id, last = row.fact_id, line + b"\n"
        max_id = self._last_fact_id = prev_id or 0
        if committed is not None and max_id < committed:
            raise CorruptTableError(path, last_line_no, f"commit marker {committed} exceeds last stored fact_id {max_id}")
        return last

    def _load_all_facts(self, committed: int | None) -> int:
        """Load the committed fact rows from byte 0, in place of any held; returns the file's size."""
        self.state.facts, self.table_bytes[FACTS.file] = FactColumns(), 0
        with open(self._path(FACTS.file), "rb") as fh:
            self._load_facts(fh, committed)
            return os.fstat(fh.fileno()).st_size

    def _tail_is_clean(self, committed: int | None) -> bool:
        """Whether the fact file ends with the row whose id is committed, for a
        handle holding the dimensions and no fact row: the rows from the
        second-to-last line (one pread of the last _TAIL_BYTES finds it, past
        the header, which must match, when the tail starts the file) load as
        any load loads them and end at the file's end with that row."""
        if committed is None:
            return False
        header = FACTS.header.encode() + b"\n"
        with open(self._path(FACTS.file), "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            start = max(0, size - _TAIL_BYTES)
            tail = os.pread(fh.fileno(), size - start, start)
            # past the newline before the one that ends the second-to-last line
            at = tail.rfind(b"\n", 0, max(0, tail.rfind(b"\n", 0, len(tail) - 1))) + 1
            if start == 0:
                if not tail.startswith(header):
                    return False
                at = max(at, len(header))
            elif not at:  # the second-to-last line starts before the tail
                return False
            self.table_bytes[FACTS.file] = start + at
            try:
                self._load_facts(fh, committed)
            except WarehouseError:
                return False
        return (self.table_bytes[FACTS.file], self._last_fact_id) == (size, committed)

    def _load_checkpoint(self, data: bytes, committed: int | None) -> int:
        """Load the fact columns of the checkpoint into self.state, when it
        describes data (the fact file's bytes) and its rows are committed
        and pass the foreign key checks against the dimensions loaded.
        Returns the length of the prefix of data whose rows it loaded: 0
        when none, which it logs when a checkpoint is present.

        The row checks are not run again: only rewrite_validation writes a
        checkpoint, of rows a load accepted and annotations it checked.
        """
        path = self._path(CHECKPOINT)
        state = self.state
        try:
            facts, covered = _checkpoint_columns(path.read_bytes(), data)
            if committed is not None and facts and facts.fact_id[-1] > committed:
                raise ValueError(f"its last fact_id {facts.fact_id[-1]} is past COMMIT {committed}")
            for name, rows in (("date_key", state.dates), ("image_key", state.images), ("species_key", state.species)):
                missing = set(getattr(facts, name)).difference(rows)
                if missing:
                    raise ValueError(f"foreign key {name} {min(missing)} unresolved")
            for image_key, date_key in set(zip(facts.image_key, facts.date_key)):
                if state.images[image_key].capture_date_key != date_key:
                    raise ValueError(f"date mismatch: a fact of image {image_key} is dated {date_key}")
        except FileNotFoundError:
            return 0
        except (OSError, ValueError) as exc:
            log.warning("%s ignored, the fact rows are read from the text: %s", path, exc)
            return 0
        state.facts = facts
        return covered

    def _check_fact(self, path: Path, line_no: int, row: FactRow) -> None:
        """Refuse a stored fact row whose fields or foreign keys are bad."""
        problems = model.fact_field_violations(row, self.state.dates)
        if problems:
            raise CorruptTableError(path, line_no, "; ".join(problems))
        fk = model.validate_fact(row, self.state)
        if fk:
            raise IntegrityError(f"{path}:{line_no}: fact {row.fact_id}: " + "; ".join(fk))

    def _read_commit_marker(self) -> int | None:
        path = self._path(COMMIT_MARKER)
        try:
            text = path.read_bytes().decode("utf-8", "backslashreplace").strip()
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

    def _rewrite(self, table: Table) -> bytes:
        """Write table's file anew from the rows held, in key order; returns
        the bytes written."""
        rows = table.rows(self.state)
        if table is FACTS:  # held in key order
            text = "\n".join([FACTS.header, *map(_fact_line, rows.cells()), ""])
            self._checkpoint_bytes = 0  # until the checkpoint of the new file is written
        else:
            text = table.text(rows[key] for key in sorted(rows))
        data = text.encode("utf-8")
        self.table_bytes[table.file] = _atomic_write(self._path(table.file), data)
        return data

    def _cut(self, table: Table, size: int) -> None:
        """Rewrite table's file, of size bytes, from the rows held, whose
        bytes differ: a torn or uncommitted tail is cut off (and logged),
        and a last row without its newline gets one."""
        kept = self.table_bytes[table.file]
        if size > kept:
            path = self._path(table.file)
            log.warning("%s: kept %d bytes, cut %d bytes of a torn or uncommitted tail", path, kept, size - kept)
        self._rewrite(table)

    def _write_checkpoint(self, text: bytes) -> None:
        """Write the checkpoint of the fact rows held, which text, the fact
        file's bytes, stores. A failed write is logged, not raised: the
        checkpoint is derived from the fact file, and a load that finds it
        missing or stale reads the text."""
        path = self._path(CHECKPOINT)
        try:
            _atomic_write(path, _checkpoint(self.state.facts, text))
        except OSError as exc:
            log.warning("%s not written: %s", path, exc)
        else:
            self._checkpoint_bytes = len(text)

    def _write_commit(self, fact_id: int) -> None:
        _atomic_write(self._path(COMMIT_MARKER), f"{fact_id}\n")

    @contextmanager
    def batch(self) -> Iterator[None]:
        """Stage the writes made inside the block; commit them once at its end.

        upsert_species, ensure_date and insert_image put their rows in state
        at once, and append_facts checks its drafts and assigns their ids at
        once, but nothing reaches disk until the outermost batch ends. Then
        the new rows of each changed dimension are appended (see
        _write_rows), in DIMENSIONS order, all fact rows are appended with
        one fsync, and COMMIT moves once. Each of those methods is a batch
        of its own, so outside a batch a call has committed when it
        returns. An exception inside the block still commits what was
        staged before it, and then propagates. Writes from other threads
        wait until the batch has committed.
        """
        with self._mutex:
            self._batches += 1
            try:
                yield
            finally:
                self._batches -= 1
                if not self._batches:
                    self._flush()

    def _stage(self, table: Table, row: Any) -> None:
        """Put a new dimension row in state, and stage it for the batch's write."""
        table.add(self.state, row)
        self._new_rows.setdefault(table, []).append(row)

    def _write_rows(self, table: Table, new: list) -> None:
        """Write the new rows of a dimension, which state already holds.

        They are appended in key order: image and species keys continue past
        the largest one held, so the file stays sorted by key and has the
        bytes a rewrite of it would. dim_date is rewritten whole instead
        when a new date sorts before one already stored.
        """
        keys = {getattr(row, table.key) for row in new}
        if table is DATES and max(self.state.dates.keys() - keys, default=0) > min(keys):
            self._rewrite(table)
            return
        data = table.lines(sorted(new, key=lambda row: getattr(row, table.key))).encode("utf-8")
        self.table_bytes[table.file] += _append(self._path(table.file), data)

    def _flush(self) -> None:
        """Write what the batch staged: dimensions, then facts, then COMMIT.

        A dimension whose write fails stays staged (a failed append is cut
        back off). Staged fact rows are dropped when they cannot all be
        written; the append is cut back off the file, so COMMIT and the
        committed rows stay as they were. When the COMMIT write fails
        (perhaps after COMMIT moved), the handle holds none of the rows and
        closes; the next rw open repairs the root.
        """
        rows, self._appends = self._appends, []
        for table in DIMENSIONS:
            if table in self._new_rows:
                self._write_rows(table, self._new_rows[table])
                del self._new_rows[table]
        if not rows:
            return
        data = "".join([_fact_line(row) + "\n" for row in rows]).encode("utf-8")
        written = _append(self._path(FACTS.file), data)
        try:
            self._write_commit(rows[-1].fact_id)
        except BaseException:
            self.close()
            raise
        self.table_bytes[FACTS.file] += written
        for row in rows:
            self.state.add_fact(row)
        self._last_fact_id = rows[-1].fact_id

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
        model.require_storable("species", (code, scientific_name, common_name))
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
            self._stage(SPECIES, row)
            return key

    def ensure_date(self, date_key: int) -> int:
        """Materialize the date dimension row for date_key (idempotent)."""
        self._require_writer()
        row = model.derive_date(date_key)
        with self.batch():
            if date_key not in self.state.dates:
                self._stage(DATES, row)
        return date_key

    def insert_image(self, meta: ImageMeta) -> int:
        """Insert an image row; identical (file_name, checksum) is a no-op."""
        self._require_writer()
        problems = model.image_meta_violations(meta) or model.frame_corner_violations(meta)
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
            self._stage(IMAGES, DimImage(key, *meta))
            return key

    def append_facts(self, drafts: Sequence[FactDraft]) -> list[int]:
        """Add facts; returns their assigned ids in order.

        Any invalid fact fails the whole call before anything is staged.
        The rows commit together, with the batch they are staged in.
        """
        self._require_writer()
        with self.batch():
            first = self._next_fact_id
            rows = [draft.row(first + i) for i, draft in enumerate(drafts)]
            problems = []
            for i, row in enumerate(rows):
                issues = model.fact_field_violations(row, self.state.dates) + model.validate_fact(row, self.state)
                if row.matched_record_id and (problem := model.text_problem(row.matched_record_id)):
                    issues.append(f"matched_record_id {problem}")
                if issues:
                    problems.append(f"fact {i}: " + "; ".join(issues))
            if problems:
                raise IntegrityError("; ".join(problems))
            self._appends += rows
            return [row.fact_id for row in rows]

    def rewrite_validation(
        self, validation: array, matched_record_id: list[str | None], height_m: array, dbh_cm: array
    ) -> None:
        """Give the held facts this validation annotation: one entry per fact
        in each column, in fact order, typed as the FactColumns ones (codes
        index VALIDATION_STATES, NaN is a missing measure); a column of
        another length or type is refused with ValueError. Every other fact
        field stays unchanged; the columns become the held ones.

        The columns are compared whole with the held ones
        (FactColumns.annotation_changes). When no stored cell changes, the
        fact file keeps its bytes and inode, and only a checkpoint that does
        not cover every committed fact row (a load fell back, or rows were
        appended past it) is written, from the fact file's committed bytes.
        Otherwise each changed fact is checked before anything is written,
        by the row rule (model.annotation_violations, given the measures that
        change: a present one may not become missing) and as storable text.
        Then the fact file is written anew and renamed in, and then its
        checkpoint. A failed write leaves the held columns as they were, or
        closes the handle if the new fact file was renamed in (as a failed
        COMMIT write does).
        """
        self._require_writer()
        columns = (validation, matched_record_id, height_m, dbh_cm)
        with self._mutex:
            facts = self.state.facts
            for name, column in zip(("validation", "matched_record_id", "height_m", "dbh_cm"), columns):
                held = getattr(facts, name)
                if len(column) != len(held):
                    raise ValueError(f"an annotation column does not hold {len(facts)} entries")
                if _kind(column) != _kind(held):
                    raise ValueError(f"annotation column {name} must be {_kind(held)}, not {_kind(column)}")
            if "" in matched_record_id:  # stored as an empty cell, which every load reads as None
                matched_record_id = [record or None for record in matched_record_id]
                columns = (validation, matched_record_id, height_m, dbh_cm)
            changed = facts.annotation_changes(*columns)
            size = self.table_bytes[FACTS.file]
            if not changed:
                if facts and self._checkpoint_bytes != size:
                    self._write_checkpoint(_read_bytes(self._path(FACTS.file))[:size])
                return
            for i in changed:
                code, record = validation[i], matched_record_id[i]
                if not 0 <= code < len(model.VALIDATION_STATES):
                    raise UnknownFactError(f"fact {facts.fact_id[i]}: bad validation code {code}")
                height = None if model.same_cell(facts.height_m[i], height_m[i]) else height_m[i]
                dbh = None if model.same_cell(facts.dbh_cm[i], dbh_cm[i]) else dbh_cm[i]
                problems = model.annotation_violations(model.VALIDATION_STATES[code], record, height, dbh)
                if record and (problem := model.text_problem(record)):
                    problems.append(f"matched_record_id {problem}")
                if problems:
                    raise UnknownFactError(f"fact {facts.fact_id[i]}: " + "; ".join(problems))
            inode = _inode(self._path(FACTS.file))
            annotated = self.state.facts = facts.copy()
            annotated.validation, annotated.matched_record_id, annotated.height_m, annotated.dbh_cm = columns
            try:
                text = self._rewrite(FACTS)  # same fact ids, so COMMIT stays as it is
            except BaseException:
                if _inode(self._path(FACTS.file)) == inode:  # not renamed in
                    self.state.facts, self.table_bytes[FACTS.file] = facts, size
                else:  # renamed in, perhaps not durably: a fresh open reads what holds
                    self.close()
                raise
            self._write_checkpoint(text)

    # -- surveys -----------------------------------------------------------

    def save_survey(self, survey_id: str, records: Sequence[SurveyRecord]) -> bool:
        """Persist a survey file; identical re-saves are no-ops.

        Returns True when a new file was written. Differing content for an
        existing id raises, since survey files are immutable history.
        """
        self._require_writer()
        if not _SURVEY_ID_RE.fullmatch(survey_id):
            raise WarehouseError(f"bad survey id {survey_id!r} (use letters, digits, . _ -)")
        for rec in records:
            model.require_storable("survey", (rec.record_id, rec.species_code))
        path = self.survey_path(survey_id)
        text = SURVEYS.text(records)
        with self._mutex:
            if path.exists():
                if path.read_bytes() == text.encode():
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

    def survey_columns(self, survey_id: str) -> SurveyColumns:
        path = self.survey_path(survey_id)
        return _survey_columns(path, _read_bytes(path))

    def load_survey(self, survey_id: str) -> list[SurveyRecord]:
        return self.survey_columns(survey_id).records()

    def load_all_survey_records(self) -> SurveyColumns:
        """All survey records merged, in survey id order, as columns; record
        ids must be globally unique."""
        merged = SurveyColumns()
        owner: dict[str, str] = {}  # record id -> the survey that holds it
        for sid in self.list_survey_ids():
            columns = self.survey_columns(sid)
            for rid in columns.record_id:
                if rid in owner:
                    raise DuplicateRecordError(f"record id {rid!r} appears in surveys {owner[rid]!r} and {sid!r}")
                owner[rid] = sid
            merged.extend(columns)
        return merged

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
    - a dimension file is re-read when its (inode, size, mtime) changed, and
      parsed past the bytes held: a writer appends to it (or rewrites
      dim_date, sorted by key). The bytes held are those of its whole rows:
      a torn last line is parsed once a later refresh finds it whole.
    - the fact file is held open, so that its inode number cannot be
      reused, and parsed only past the bytes of the committed rows held.
    The held rows go on only while each re-read dimension starts with its
    held bytes and they end in a newline, the fact file keeps the held
    inode, the checkpoint its (inode, size, mtime) or its absence, the last
    fact row held has its newline, and that row's line is still where it
    was read (one pread, on a refresh that found a change; a file rewritten
    in place fails it). Otherwise (as after a checkpoint write, or an
    annotation or crash recovery that renames a fact file in) the whole
    root is reloaded, the fact rows from the checkpoint when it holds. A
    returned Warehouse is never changed afterwards: a refresh that finds
    changes publishes a new one, built from a copy of the old state (its
    own dicts, and fact columns copied one memcpy each).

    open_writer() gives a read-write handle: on a cache holding a snapshot,
    a copy of it, so that it parses nothing the cache holds; on one holding
    none, a load of its own, which leaves the cache as it was (see
    open_writer). open_warehouse is either call on a cache used once.
    """

    def __init__(self, root):
        self.root = Path(root)
        self._mutex = threading.Lock()
        self._handle: Warehouse | None = None
        # per dimension file: (inode, size, mtime) and the bytes held
        self._dims: dict[str, tuple[tuple[int, int, int], bytes]] = {}
        self._facts_fh: BinaryIO | None = None
        self._facts_key: tuple | None = None  # (COMMIT, fact file size, CHECKPOINT's _file_key or None)
        self._facts_last = b""  # the last fact line held, with its newline

    def close(self) -> None:
        with self._mutex:
            if self._facts_fh is not None:
                self._facts_fh.close()
            self._facts_fh = self._handle = None

    def open_writer(self, lock_timeout: float = 10.0) -> Warehouse:
        """A read-write handle on the root.

        Under the writer lock it creates the root and any missing table
        file. With a snapshot held, the handle gets a copy of a refresh of
        it (its own dicts and fact columns; the immutable rows are shared).
        With none, the handle reads COMMIT and each dimension once; a clean
        fact tail (Warehouse._tail_is_clean) leaves its fact rows unread
        (_FactsOnFirstRead), any other is loaded from byte 0. Either way it
        then rewrites each table file whose size differs from the bytes of
        the rows held (Warehouse._cut: a torn dimension line, fact rows past
        COMMIT), before anything appends to it, and writes a missing COMMIT.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        lock = FileLock(self.root / LOCK_FILE)
        lock.acquire(lock_timeout)
        try:
            for table in TABLES:
                path = self.root / table.file
                if not path.exists():
                    _atomic_write(path, table.text(()))
            wh = Warehouse(self.root, "rw", lock)
            with self._mutex:
                snap = self._handle and self._refresh(self._handle)
                facts_key, dims = snap and self._facts_key, self._dims
            if snap is None:
                committed, dims, tables = self._read_changes(wh, None)
                wh._load_dimensions(tables)
                if wh._tail_is_clean(committed):
                    wh.state = _FactsOnFirstRead(wh, committed)
                    size = wh.table_bytes[FACTS.file]
                else:
                    size = wh._load_all_facts(committed)
            else:
                committed, size, _ = facts_key
                wh.state = snap.state.copy()
                wh.table_bytes = dict(snap.table_bytes)
                wh._last_fact_id, wh._checkpoint_bytes = snap._last_fact_id, snap._checkpoint_bytes
            for table in TABLES:
                stored = size if table is FACTS else dims[table.file][0][1]
                if wh.table_bytes[table.file] != stored:
                    wh._cut(table, stored)
            if committed is None:
                # marker missing (externally assembled warehouse): adopt as-is
                wh._write_commit(wh._last_fact_id)
            return wh
        except BaseException:
            lock.release()
            raise

    def current(self) -> Warehouse:
        with self._mutex:
            return self._refresh(self._handle)

    def _read_changes(self, new: Warehouse, old: Warehouse | None) -> tuple[int | None, dict, dict]:
        """Read COMMIT, then the bytes of each dimension file that changed
        since old was loaded (all of them with old None), in read order (see
        "Read order" in the module docstring). Returns COMMIT, the
        dimensions to hold once they are loaded, and the bytes read."""
        committed = new._read_commit_marker()
        dims, tables = dict(self._dims), {}
        for table in reversed(DIMENSIONS):
            path = new._path(table.file)
            key = _file_key(path)
            if old is None or dims[table.file][0] != key:
                tables[table.file] = _read_bytes(path)
                dims[table.file] = key, tables[table.file]
        return committed, dims, tables

    def _refresh(self, old: Warehouse | None) -> Warehouse:
        """Bring the snapshot up to date from old (None: load everything)."""
        new = Warehouse(self.root, "ro", None)
        committed, dims, tables = self._read_changes(new, old)
        try:
            checkpoint = _file_key(new._path(CHECKPOINT))
        except NotInitializedError:
            checkpoint = None
        path = new._path(FACTS.file)
        ino, size, _ = _file_key(path)
        facts_key = (committed, size, checkpoint)
        if old is None:
            fh = open(path, "rb")
        else:
            fh = self._facts_fh
            held = {file: self._dims[file][1] for file in tables}
            # Only held bytes that end in a newline are continued: a held
            # last fact row without one ends past the file's end.
            if not (
                os.fstat(fh.fileno()).st_ino == ino
                and checkpoint == self._facts_key[2]
                and old.table_bytes[FACTS.file] <= self._facts_key[1]
                and all(held[f].endswith(b"\n") and data.startswith(held[f]) for f, data in tables.items())
            ):
                return self._refresh(None)  # rows loaded before may have changed
            if not tables and facts_key == self._facts_key:
                return old
            last = self._facts_last
            if os.pread(fh.fileno(), len(last), old.table_bytes[FACTS.file] - len(last)) != last:
                return self._refresh(None)  # the fact file was rewritten in place
            new.state, new.table_bytes = old.state.copy(), dict(old.table_bytes)
            new._checkpoint_bytes = old._checkpoint_bytes
        try:
            new._load_dimensions(tables)
            for file, data in tables.items():  # hold the bytes of the rows loaded
                dims[file] = dims[file][0], data[: new.table_bytes[file]]
            last = new._load_facts(fh, committed)
        except BaseException:
            if fh is not self._facts_fh:
                fh.close()
            raise
        if fh is not self._facts_fh and self._facts_fh is not None:
            self._facts_fh.close()
        self._handle, self._dims, self._facts_fh, self._facts_key = new, dims, fh, facts_key
        if last is not None:
            self._facts_last = last
        return new
