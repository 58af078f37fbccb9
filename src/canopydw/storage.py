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
Reals use the shortest round-trip decimal form; a fact line is rendered by
_fact_line, which gives the bytes csv_line would. Every stored file is read as
bytes split on "\n", and each line is decoded and parsed alone: a line that
is not UTF-8, does not parse or fails its row checks is refused with its file
and line. So text holding a line break is refused before it is stored.

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
past the marker. A load reads the committed rows up to the first row past
the marker or a torn last line, and nothing after them; the next rw open
cuts the rest off. The facts are as before the batch, and the batch's
dimension rows stay, unreferenced. Dimension rows are never mutated or
deleted; the single sanctioned fact mutation is the validation annotation
(Warehouse.rewrite_validation). It writes the fact file anew and renames it
in, but only when some update changes a stored cell: an annotation equal to
the stored one writes nothing, so the file keeps its inode and no reader's
cache reloads.

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
A load continues each table from Warehouse.table_bytes, the bytes of the
rows already held: from byte 0 and the header on a first load.

A load holds the dimension rows as frozen objects in dicts, and the fact
rows as model.FactColumns: one typed column per field, in fact_id order,
about 100 bytes per fact. No object is held per fact: state.facts builds a
FactTreeMetric when a fact is looked up, and queries scan the columns.

A read-write open on a cache that holds no snapshot (every
open_warehouse(root, "rw")) reads COMMIT and the dimensions, and of the
fact file only its tail. When the file ends with the whole row whose id is
COMMIT, it reads no fact row until the handle's state.facts is first
accessed (by reconcile, rewrite_validation or stats), and then reads them
all, through the checks of any load. So such a writer does not refuse
damage in the committed rows before the last two lines; a read-only open
still does. Any other tail (rows past COMMIT, a torn or unterminated last
line, no COMMIT) is loaded whole and repaired as before: the fact file is
cut back to the committed rows by rewriting it and renaming it in.
"""

from __future__ import annotations

import csv
import fcntl
import os
import re
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from operator import attrgetter
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
    FactDraft,
    FactRow,
    FactTreeMetric,
    Geotransform,
    ImageMeta,
    SurveyRecord,
    ValidationUpdate,
    WarehouseState,
)
from .report import ResultTable, csv_line, format_binary_size

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
    ValueError on a bad cell. state_field names the WarehouseState field
    that holds the table's rows by key: a dict, or FactColumns for the
    facts. A dimension also has check, which returns why a loaded row is
    refused given the rows loaded before it (None: accepted), and add,
    which puts an accepted row into the state.
    """

    file: str
    header: str
    row: Callable[[list[str]], Any]
    cells: Callable[[Any], Sequence[object]] | None = None
    state_field: str = ""
    check: Callable[[WarehouseState, Any], str | None] | None = None
    add: Callable[[WarehouseState, Any], None] | None = None
    key: str = field(init=False)
    width: int = field(init=False)

    def __post_init__(self) -> None:
        columns = self.header.split(",")
        self.key, self.width = columns[0], len(columns)
        if self.cells is None:
            self.cells = attrgetter(*columns)

    def parse(self, cells: list[str]) -> Any:
        """The row of one line's cells."""
        if len(cells) != self.width:
            raise ValueError(f"expected {self.width} fields, got {len(cells)}")
        return self.row(cells)

    def rows(self, state: WarehouseState) -> Mapping:
        """The table's rows in state, by key."""
        return getattr(state, self.state_field)

    def text(self, lines: Iterable[Sequence[object]]) -> str:
        """A whole file of this table whose rows have the cells in lines."""
        return self.header + "\n" + "".join(csv_line(cells) + "\n" for cells in lines)


def _opt_float(cell: str) -> float | None:
    return None if cell == "" else float(cell)


def _opt_str(cell: str) -> str | None:
    return None if cell == "" else cell


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
    problems = model.image_meta_violations(row)
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
    refuses, NUL on Python 3.10), goes through csv_line."""
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
    return FactRow._make(
        (
            fact_id,
            int(cells[1]),
            int(cells[2]),
            int(cells[3]),
            float(cells[4]),
            float(cells[5]),
            float(cells[6]),
            float(cells[7]),
            float(cells[8]),
            float(cells[9]),
            float(cells[10]),
            _opt_float(cells[11]),
            _opt_float(cells[12]),
            cells[13],
            _opt_str(cells[14]),
        )
    )


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
    cells=_image_cells,
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
    "fact_id,date_key,image_key,species_key,bbox_cx,bbox_cy,bbox_w,bbox_h,"
    "confidence,geo_x,geo_y,height_m,dbh_cm,validation,matched_record_id",
    row=_fact_row,
    cells=model.fact_row,
    state_field="facts",
)
# one file per survey, under SURVEY_DIR
SURVEYS = Table(
    "",
    "record_id,geo_x,geo_y,species_code,dbh_cm,height_m,surveyed_date_key",
    row=lambda c: SurveyRecord(c[0], float(c[1]), float(c[2]), c[3], _opt_float(c[4]), _opt_float(c[5]), int(c[6])),
)

TABLES = (DATES, IMAGES, SPECIES, FACTS)
# In load order: an image row checks its date. Readers read the files in the
# reverse order; see SnapshotCache._read_changes.
DIMENSIONS = (DATES, SPECIES, IMAGES)

# The bytes a read-write open reads back from the end of the fact file to
# find its last two lines (see SnapshotCache._open_clean_tail).
_TAIL_BYTES = 4096


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
    accesses find. Until then a fact row the writer adds is not held: it is
    on disk, and the read goes on up to it. The state holds no reference to
    its writer, so that a closed writer is freed at once.
    """

    def __init__(self, state: WarehouseState, root: Path, mutex: threading.RLock, last_fact_id: int):
        vars(self).update(vars(state))
        del self.facts
        self._root, self._mutex, self._last_fact_id = root, mutex, last_fact_id

    def __getattr__(self, name: str):
        if name != "facts":
            raise AttributeError(name)
        with self._mutex:
            if "facts" not in vars(self):  # not read by another thread meanwhile
                reader = Warehouse(self._root, "ro", None)
                reader.state = WarehouseState(self.dates, self.images, self.species)
                with open(reader._path(FACTS.file), "rb") as fh:
                    reader._load_facts(fh, self._last_fact_id)
                self.facts = reader.state.facts
            return self.facts

    def add_fact(self, row: FactTreeMetric) -> None:
        if "facts" in vars(self):
            self.facts.add(row)
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
        # what the open batch has staged: dimension tables to write anew,
        # and fact rows to append (not in state until they are written)
        self._rewrites: set[Table] = set()
        self._appends: list[FactTreeMetric] = []
        # the fact_id of the last row on disk that this handle read or wrote
        self._last_fact_id = 0
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
        """
        path = self._path(table.file)
        rows = table.rows(self.state)
        held = self.table_bytes.get(table.file, 0)
        lines, first = _table_lines(path, data[held:], table, len(rows) + 2 if held else 1)
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
        self.table_bytes[table.file] = len(data)

    def _load_dimensions(self, tables: Mapping[str, bytes]) -> None:
        """Load each dimension file's bytes in tables, in DIMENSIONS order."""
        for table in DIMENSIONS:
            if table.file in tables:
                self._load_dimension(table, tables[table.file])

    def _load_facts(self, fh: BinaryIO, committed: int | None) -> bytes | None:
        """Add the committed fact rows stored in fh past the bytes held.

        Lines are read and parsed as for a dimension, each held row being
        one line already in self.state. The committed rows end at the first
        row past committed, or at a refused last line (a torn write);
        nothing after that point is read. Each row counts its bytes and a
        newline, so the bytes held differ from the file's size exactly when
        the file holds more than the committed rows or its last row has no
        newline. It writes nothing: SnapshotCache.open_writer cuts such a
        file back to the rows held.

        Returns the last line held, with its newline (the header's when no
        row is held), or None when no row was added to rows held before.
        """
        path = self._path(FACTS.file)
        facts = self.state.facts
        held = self.table_bytes.get(FACTS.file, 0)
        fh.seek(held)
        lines, line_no = _table_lines(path, fh.read(), FACTS, len(facts) + 2 if held else 1)
        self.table_bytes[FACTS.file] = held or len(FACTS.header) + 1
        last_line_no = line_no + len(lines) - 1
        prev_id = facts.fact_id[-1] if facts else None
        last = None if held else FACTS.header.encode() + b"\n"
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

    def _check_fact(self, path: Path, line_no: int, row: FactRow) -> None:
        """Refuse a stored fact row whose fields or foreign keys are bad."""
        problems = model.fact_field_violations(row, self.state.dates)
        if problems:
            raise CorruptTableError(path, line_no, "; ".join(problems))
        fk = model.validate_fact(row, self.state)
        if fk:
            raise IntegrityError(f"{path}:{line_no}: fact {row.fact_id}: " + "; ".join(fk))

    def _ends_at(self, tail: bytes, start: int, committed: int) -> bool:
        """Whether tail, the fact file's bytes from offset start to its end,
        ends with the row whose id is committed: a whole line with its
        newline that passes the row checks, after the header or a row of a
        lower id that passes them too."""
        path = self._path(FACTS.file)

        def row(line: bytes) -> FactRow | None:
            try:
                fact = _parse_line(path, 0, line, FACTS)
                self._check_fact(path, 0, fact)
            except WarehouseError:
                return None
            return fact

        lines = tail.split(b"\n")
        # the last item follows the final newline; the first one is cut
        # short unless tail starts the file
        if lines.pop() != b"" or len(lines) < (2 if start == 0 else 3):
            return False
        last = row(lines[-1])
        if last is None or last.fact_id != committed:
            return False
        if start == 0 and len(lines) == 2:
            return lines[0] == FACTS.header.encode()
        before = row(lines[-2])
        return before is not None and before.fact_id < committed

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

    def _rewrite(self, table: Table) -> None:
        """Write table's file anew from the rows held, in key order."""
        rows = table.rows(self.state)
        if table is FACTS:  # held in key order
            text = "\n".join([FACTS.header, *map(_fact_line, rows.cells()), ""])
        else:
            text = table.text(table.cells(rows[key]) for key in sorted(rows))
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
        data = "".join([_fact_line(FACTS.cells(row)) + "\n" for row in rows]).encode("utf-8")
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
        self._last_fact_id = rows[-1].fact_id
        self.table_bytes[FACTS.file] += len(data)
        self._write_commit(self._last_fact_id)

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
                issues = model.fact_field_violations(draft, self.state.dates) + model.validate_fact(draft, self.state)
                if issues:
                    problems.append(f"fact {i}: " + "; ".join(issues))
            if problems:
                raise IntegrityError("; ".join(problems))
            first = self._next_fact_id
            rows = [draft.with_id(first + i) for i, draft in enumerate(drafts)]
            self._appends += rows
            return [row.fact_id for row in rows]

    def rewrite_validation(self, updates: Mapping[int, ValidationUpdate]) -> int:
        """Apply validation annotations; all other fact fields stay unchanged.

        Returns the number of facts annotated, whether their annotation
        changed or not. When no update changes a stored cell, nothing is
        copied or written: the fact file keeps its bytes and its inode.
        """
        self._require_writer()
        with self._mutex:
            facts = self.state.facts
            unknown, bad, changed = [], None, []
            for fid, upd in updates.items():
                try:
                    i = facts.index(fid)
                except (KeyError, TypeError):
                    unknown.append(fid)
                    continue
                if upd.validation not in model.VALIDATION_STATES:
                    bad = bad or f"fact {fid}: bad validation state {upd.validation!r}"
                elif facts.changes(i, upd):
                    changed.append((i, upd))
            if unknown:
                raise UnknownFactError(f"unknown fact ids: {sorted(unknown)}")
            if bad:
                raise UnknownFactError(bad)
            if not changed:
                return len(updates)
            new_facts = facts.copy()
            for i, upd in changed:
                new_facts.annotate(i, upd)
            old = facts, self.table_bytes[FACTS.file]
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
        text = SURVEYS.text(map(SURVEYS.cells, records))
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

    def load_survey(self, survey_id: str) -> list[SurveyRecord]:
        path = self.survey_path(survey_id)
        lines, first = _table_lines(path, _read_bytes(path), SURVEYS, 1)
        return [_parse_line(path, i, line, SURVEYS) for i, line in enumerate(lines, start=first)]

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
    - a dimension file is re-read when its (inode, size, mtime) changed, and
      parsed past the bytes held: a writer rewrites it whole, sorted by key.
    - the fact file is held open, so that its inode number cannot be
      reused, and parsed only past the bytes of the committed rows held.
    The held rows go on only while each re-read dimension starts with its
    held bytes and they end in a newline, the fact file keeps the held
    inode, the last fact row held has its newline, and that row's line is
    still where it was read (one pread, on a refresh that found a change;
    a file rewritten in place fails it). Otherwise (as after a
    rewrite_validation that changed an annotation, or crash recovery,
    renames a fact file in) the whole root is reloaded; a reconcile that
    changes no annotation writes nothing, so the next refresh reads nothing.
    A returned Warehouse is never changed afterwards: a refresh that finds
    changes publishes a new one, built from a copy of the old state (its
    own dicts, and fact columns copied one memcpy each).

    open_writer() gives a read-write handle. On a cache holding a snapshot
    it is built from a copy of the snapshot's state, so that it parses
    nothing the cache holds. On a cache holding none it reads no fact row
    while the fact file's tail is clean (see open_writer). open_warehouse
    is either call on a cache used once.
    """

    def __init__(self, root):
        self.root = Path(root)
        self._mutex = threading.Lock()
        self._handle: Warehouse | None = None
        # per dimension file: (inode, size, mtime) and the bytes held
        self._dims: dict[str, tuple[tuple[int, int, int], bytes]] = {}
        self._facts_fh: BinaryIO | None = None
        self._facts_key: tuple[int | None, int] | None = None  # (COMMIT, file size)
        self._facts_last = b""  # the last fact line held, with its newline

    def close(self) -> None:
        with self._mutex:
            if self._facts_fh is not None:
                self._facts_fh.close()
            self._facts_fh = self._handle = None

    def open_writer(self, lock_timeout: float = 10.0) -> Warehouse:
        """A read-write handle on the root.

        Under the writer lock it creates the root and any missing table
        file. With no snapshot held, it then reads COMMIT and the
        dimensions, and reads back from the end of the fact file. When the
        file ends with the whole row whose id is COMMIT (after the header
        or a lower id), the handle reads no fact row until its state.facts
        is first accessed; see _FactsOnFirstRead. Otherwise, or with a
        snapshot held, it refreshes the snapshot, cuts the fact file back
        to the committed rows by rewriting it when it holds more bytes than
        those, and writes the COMMIT marker when it is missing. That handle
        gets its own dicts and fact columns; the frozen dimension rows in
        the dicts are shared with the snapshot.
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
                if self._handle is None and self._open_clean_tail(wh):
                    return wh
                snap = self._refresh(self._handle)
                committed, size = self._facts_key
            wh.state = snap.state.copy()
            wh.table_bytes = dict(snap.table_bytes)
            wh._last_fact_id = snap._last_fact_id
            if wh.table_bytes[FACTS.file] != size:
                # drop the rows past the committed ones, and end the last row
                # with a newline so that the next append starts a line of its own
                wh._rewrite(FACTS)
            if committed is None:
                # marker missing (externally assembled warehouse): adopt as-is
                wh._write_commit(wh._last_fact_id)
            return wh
        except BaseException:
            lock.release()
            raise

    def _open_clean_tail(self, wh: Warehouse) -> bool:
        """Load COMMIT and the dimensions into wh, a new writer, and leave
        its fact rows unread, if the fact file's tail is clean.

        The tail is one pread of the file's last _TAIL_BYTES. It is clean
        when it ends with the row whose id is COMMIT (see Warehouse._ends_at).
        Returns whether it was; if not, wh is to be loaded anew.
        """
        committed, _, tables = self._read_changes(wh, None)
        if committed is None:
            return False
        wh._load_dimensions(tables)
        with open(wh._path(FACTS.file), "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            start = max(0, size - _TAIL_BYTES)
            tail = os.pread(fh.fileno(), size - start, start)
        if not wh._ends_at(tail, start, committed):
            return False
        wh.table_bytes[FACTS.file] = size
        wh._last_fact_id = committed
        wh.state = _FactsOnFirstRead(wh.state, self.root, wh._mutex, committed)
        return True

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
        path = new._path(FACTS.file)
        ino, size, _ = _file_key(path)
        facts_key = (committed, size)
        if old is None:
            fh = open(path, "rb")
        else:
            fh = self._facts_fh
            held = {file: self._dims[file][1] for file in tables}
            # Only held bytes that end in a newline are continued: a held
            # last fact row without one ends past the file's end.
            if not (
                os.fstat(fh.fileno()).st_ino == ino
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
        try:
            new._load_dimensions(tables)
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
