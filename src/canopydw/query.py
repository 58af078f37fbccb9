"""Analytical queries over the star schema.

Queries run as a single scan of the fact table with hash lookups into the
dimension tables; filters and groupings address dimension attributes, and
measures aggregate fact columns. Each query returns a report.ResultTable.

The query vocabulary is described once, here: GROUP_VALUES (the group
keys), MEASURE_VALUES (the measures) and QUERY_OPTIONS (each QuerySpec
field as a text option). The CLI flags and HTTP parameters come from them.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Mapping, NamedTuple

from .errors import InvalidSpecError
from .model import (
    PLATFORMS,
    VALIDATION_STATES,
    DimDate,
    DimImage,
    DimSpecies,
    FactTreeMetric,
    is_valid_date_key,
)
from .report import ResultTable
from .storage import Warehouse


def resolution_class(width_px: int, height_px: int) -> str:
    """Bucket an image by megapixels: <1 low, 1 to 12 medium, >12 high."""
    mp = width_px * height_px / 1e6
    if mp < 1.0:
        return "low"
    if mp <= 12.0:
        return "medium"
    return "high"


# Group keys: each maps one joined (date, image, species) row to its text.
# The time keys read the date row alone; species_trend groups by one of them.
_TIME_VALUES = {
    "year": lambda date, image, species: f"{date.year:04d}",
    "quarter": lambda date, image, species: f"{date.year:04d}-Q{date.quarter}",
    "month": lambda date, image, species: f"{date.year:04d}-{date.month:02d}",
    "date": lambda date, image, species: str(date.date_key),
}
GROUP_VALUES: dict[str, Callable[[DimDate, DimImage, DimSpecies], str]] = {
    **_TIME_VALUES,
    "species": lambda date, image, species: species.code,
    "platform": lambda date, image, species: image.platform,
    "resolution_class": lambda date, image, species: resolution_class(image.width_px, image.height_px),
    "conservation_status": lambda date, image, species: species.conservation_status,
}
GROUP_KEYS = tuple(GROUP_VALUES)
TIME_KEYS = tuple(_TIME_VALUES)


class _Accumulator:
    __slots__ = ("count", "conf_sum", "height_sum", "height_n", "dbh_sum", "dbh_n", "images", "confirmed")

    def __init__(self) -> None:
        self.count = 0
        self.conf_sum = 0.0
        self.height_sum = 0.0
        self.height_n = 0
        self.dbh_sum = 0.0
        self.dbh_n = 0
        self.images: set[int] = set()
        self.confirmed = 0

    def add(self, fact: FactTreeMetric) -> None:
        self.count += 1
        self.conf_sum += fact.confidence
        if fact.height_m is not None:
            self.height_sum += fact.height_m
            self.height_n += 1
        if fact.dbh_cm is not None:
            self.dbh_sum += fact.dbh_cm
            self.dbh_n += 1
        self.images.add(fact.image_key)
        if fact.validation == "confirmed":
            self.confirmed += 1


# Measures: each maps one group's accumulator to its value.
MEASURE_VALUES: dict[str, Callable[[_Accumulator], object]] = {
    "tree_count": lambda acc: acc.count,
    "mean_confidence": lambda acc: None if acc.count == 0 else acc.conf_sum / acc.count,
    "mean_height_m": lambda acc: None if acc.height_n == 0 else acc.height_sum / acc.height_n,
    "mean_dbh_cm": lambda acc: None if acc.dbh_n == 0 else acc.dbh_sum / acc.dbh_n,
    "image_count": lambda acc: len(acc.images),
    "confirmed_count": lambda acc: acc.confirmed,
}
MEASURES = tuple(MEASURE_VALUES)


@dataclass(frozen=True)
class QuerySpec:
    """Declarative description of one star-join aggregation."""

    group_by: tuple[str, ...] = ()
    measures: tuple[str, ...] = ("tree_count",)
    date_from: int | None = None
    date_to: int | None = None
    species_codes: tuple[str, ...] | None = None
    platforms: tuple[str, ...] | None = None
    min_width_px: int | None = None
    min_height_px: int | None = None
    validation_states: tuple[str, ...] | None = None

    def violations(self) -> list[str]:
        v = []
        for key in self.group_by:
            if key not in GROUP_KEYS:
                v.append(f"unknown group key {key!r} (choose from {', '.join(GROUP_KEYS)})")
        if len(set(self.group_by)) != len(self.group_by):
            v.append("duplicate group keys")
        if not self.measures:
            v.append("at least one measure is required")
        for m in self.measures:
            if m not in MEASURES:
                v.append(f"unknown measure {m!r} (choose from {', '.join(MEASURES)})")
        for name, value in (("date_from", self.date_from), ("date_to", self.date_to)):
            if value is not None and not is_valid_date_key(value):
                v.append(f"{name} {value} is not a valid date key")
        if (
            self.date_from is not None
            and self.date_to is not None
            and self.date_from > self.date_to
        ):
            v.append("date_from is after date_to")
        if self.platforms is not None:
            for p in self.platforms:
                if p not in PLATFORMS:
                    v.append(f"unknown platform {p!r}")
        if self.validation_states is not None:
            for s in self.validation_states:
                if s not in VALIDATION_STATES:
                    v.append(f"unknown validation state {s!r}")
        for name, value in (("min_width_px", self.min_width_px), ("min_height_px", self.min_height_px)):
            if value is not None and value < 0:
                v.append(f"{name} must be non-negative")
        for f in fields(self):
            # a filter (None: not given) that is an empty list matches nothing
            if f.default is None and getattr(self, f.name) == ():
                v.append(f"{f.name} filter is empty")
        return v


class QueryOption(NamedTuple):
    """How one QuerySpec field is given as text (a CLI flag, a URL parameter)."""

    parse: Callable[[str], object]  # non-empty text to the field's value
    help: str


def _names(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


# One entry per QuerySpec field: the flags of `canopydw query`, the parameters of GET /v1/query.
QUERY_OPTIONS: dict[str, QueryOption] = {
    "group_by": QueryOption(_names, f"comma-separated group keys: {', '.join(GROUP_KEYS)}"),
    "measures": QueryOption(
        _names, f"comma-separated measures: {', '.join(MEASURES)} (default: {','.join(QuerySpec.measures)})"
    ),
    "date_from": QueryOption(int, "first date key (YYYYMMDD)"),
    "date_to": QueryOption(int, "last date key (YYYYMMDD)"),
    "species_codes": QueryOption(lambda text: _names(text.upper()), "comma-separated species filter"),
    "platforms": QueryOption(lambda text: _names(text.lower()), "comma-separated platform filter"),
    "min_width_px": QueryOption(int, "minimum image width"),
    "min_height_px": QueryOption(int, "minimum image height"),
    "validation_states": QueryOption(_names, "comma-separated validation filter"),
}


def spec_from_strings(options: Mapping[str, str]) -> QuerySpec:
    """Build a QuerySpec from string-valued options (CLI flags, URL params).

    Empty text means the option is not given. Unknown option names and
    malformed values raise InvalidSpecError.
    """
    unknown = sorted(set(options) - set(QUERY_OPTIONS))
    if unknown:
        raise InvalidSpecError(f"unknown query option(s): {', '.join(unknown)}")
    values = {}
    for name, option in QUERY_OPTIONS.items():
        text = options.get(name)
        if text:
            try:
                values[name] = option.parse(text)
            except ValueError:  # only the integer options' parser, int, raises it
                raise InvalidSpecError(f"{name} {text!r} is not an integer") from None
    spec = QuerySpec(**values)
    problems = spec.violations()
    if problems:
        raise InvalidSpecError("; ".join(problems))
    return spec


def _fact_passes(spec: QuerySpec, fact: FactTreeMetric, image: DimImage, species: DimSpecies) -> bool:
    if spec.date_from is not None and fact.date_key < spec.date_from:
        return False
    if spec.date_to is not None and fact.date_key > spec.date_to:
        return False
    if spec.species_codes is not None and species.code not in spec.species_codes:
        return False
    if spec.platforms is not None and image.platform not in spec.platforms:
        return False
    if spec.min_width_px is not None and image.width_px < spec.min_width_px:
        return False
    if spec.min_height_px is not None and image.height_px < spec.min_height_px:
        return False
    if spec.validation_states is not None and fact.validation not in spec.validation_states:
        return False
    return True


def run_query(handle: Warehouse, spec: QuerySpec) -> ResultTable:
    """Execute one aggregation: scan facts once, join dims by key, group, sort."""
    problems = spec.violations()
    if problems:
        raise InvalidSpecError("; ".join(problems))
    state = handle.state
    key_values = [GROUP_VALUES[k] for k in spec.group_by]
    measure_values = [MEASURE_VALUES[m] for m in spec.measures]
    groups: dict[tuple[str, ...], _Accumulator] = {}
    for fact in state.facts.values():
        image = state.images[fact.image_key]
        species = state.species[fact.species_key]
        if not _fact_passes(spec, fact, image, species):
            continue
        date = state.dates[fact.date_key]
        key = tuple([value(date, image, species) for value in key_values])
        acc = groups.get(key)
        if acc is None:
            acc = groups[key] = _Accumulator()
        acc.add(fact)
    rows = tuple(
        key + tuple([value(groups[key]) for value in measure_values]) for key in sorted(groups)
    )
    return ResultTable(columns=spec.group_by + spec.measures, rows=rows)


def species_trend(handle: Warehouse, species_code: str, granularity: str = "month") -> ResultTable:
    """Detection counts over time for one species."""
    if granularity not in TIME_KEYS:
        choices = f"{', '.join(TIME_KEYS[:-1])}, or {TIME_KEYS[-1]}"
        raise InvalidSpecError(f"granularity must be {choices}, got {granularity!r}")
    code = species_code.strip().upper()
    if code not in handle.state.species_by_code:
        raise InvalidSpecError(f"unknown species code {code!r}")
    spec = QuerySpec(
        group_by=(granularity,),
        measures=("tree_count", "mean_confidence", "confirmed_count"),
        species_codes=(code,),
    )
    return run_query(handle, spec)


def image_usage_report(handle: Warehouse) -> ResultTable:
    """Image and detection counts by resolution class and platform.

    Unlike run_query this also counts images with no detections, so it scans
    the image dimension and folds facts in on top.
    """
    state = handle.state
    image_counts: dict[tuple[str, str], int] = {}
    fact_counts: dict[tuple[str, str], int] = {}
    for image in state.images.values():
        key = (resolution_class(image.width_px, image.height_px), image.platform)
        image_counts[key] = image_counts.get(key, 0) + 1
    for fact in state.facts.values():
        image = state.images[fact.image_key]
        key = (resolution_class(image.width_px, image.height_px), image.platform)
        fact_counts[key] = fact_counts.get(key, 0) + 1
    rows = [
        key + (image_counts[key], fact_counts.get(key, 0))
        for key in sorted(image_counts)
    ]
    return ResultTable(
        columns=("resolution_class", "platform", "image_count", "fact_count"),
        rows=tuple(rows),
    )
