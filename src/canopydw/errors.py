"""Exception types shared across the warehouse modules."""

from __future__ import annotations


class WarehouseError(Exception):
    """Base class for all canopydw errors."""


class InvalidDateError(WarehouseError, ValueError):
    """A date key does not decode to a valid calendar date."""


class LineError(WarehouseError, ValueError):
    """Error attributable to one line of an input file.

    `source` is the originating file name (or None for in-memory input),
    `line_no` is 1-based.
    """

    def __init__(self, message: str, source: str | None = None, line_no: int | None = None):
        self.reason = message
        self.source = source
        self.line_no = line_no
        prefix = ""
        if source is not None:
            prefix = f"{source}:"
        if line_no is not None:
            prefix += f"{line_no}:"
        if prefix:
            prefix += " "
        super().__init__(prefix + message)


class ParseError(LineError):
    """Structurally malformed input: wrong field count, non-numeric token, bad header."""


class RangeError(LineError):
    """Well-formed token whose value is outside its allowed range."""


class CorruptTableError(WarehouseError):
    """A stored table file failed to parse or violates its row-level schema."""

    def __init__(self, path, line_no: int, reason: str):
        self.path = path
        self.line_no = line_no
        self.reason = reason
        super().__init__(f"{path}:{line_no}: {reason}")


class IntegrityError(WarehouseError):
    """A fact references a missing dimension row or violates cross-table rules."""


class InvalidMetadataError(WarehouseError, ValueError):
    """Image metadata violates one or more row invariants."""


class EmptyCodeError(WarehouseError, ValueError):
    """A species code is empty."""


class LockHeldError(WarehouseError):
    """Another process holds the warehouse writer lock."""


class NotInitializedError(WarehouseError):
    """The warehouse root has no table files yet."""


class ReadOnlyError(WarehouseError):
    """A mutating operation was attempted on a read-only handle."""


class UnknownSpeciesError(WarehouseError):
    """A species code does not resolve against the registry."""


class DuplicateRecordError(WarehouseError):
    """Two survey records share a record id."""


class SurveyImmutableError(WarehouseError):
    """Attempt to replace an already-ingested survey file with different content."""


class UnknownFactError(WarehouseError):
    """A validation update references a fact id not present in the fact table."""


class NonFiniteCoordinateError(WarehouseError):
    """A geographic coordinate is NaN or infinite."""


class InvalidSpecError(WarehouseError, ValueError):
    """A query spec violates its invariants."""


class EmptyWarehouseError(WarehouseError):
    """Size estimation needs at least one image row."""
