"""Analytical queries over the star schema.

Filters and groupings address dimension attributes, and measures aggregate
fact columns. A query decides each image's and each species' part of the
group key, or that a filter drops it, once; then it scans the fact columns
(model.FactColumns) in fact order, so that each mean adds its values left
to right in fact order. Each query returns a report.ResultTable.

The query vocabulary is described once, here: GROUP_VALUES (the group
keys), MEASURE_VALUES (the measures) and QUERY_OPTIONS (each QuerySpec
field as a text option). The CLI flags and HTTP parameters come from them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, fields
from itertools import compress
from operator import getitem, itemgetter
from typing import Any, Callable, Mapping, NamedTuple

from .errors import InvalidSpecError
from .model import (
    CONFIRMED,
    PLATFORMS,
    VALIDATION_STATES,
    DimDate,
    DimImage,
    DimSpecies,
    FactColumns,
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
# The group keys that read the species row; the others read the image and
# its date row.
_SPECIES_KEYS = frozenset({"species", "conservation_status"})


def _per_group(counts: Counter, size: int) -> list[int]:
    out = [0] * size
    for g, n in counts.items():
        out[g] = n
    return out


def _mean(column: str) -> Callable[[FactColumns, list[int], int], list]:
    """The measure averaging a float column over the values present (not NaN)."""

    def mean(facts: FactColumns, groups: list[int], size: int) -> list:
        sums, counts = [0.0] * size, [0] * size
        for g, x in zip(groups, getattr(facts, column)):
            if x == x:
                sums[g] += x
                counts[g] += 1
        return [s / n if n else None for s, n in zip(sums, counts)]

    return mean


# Measures: each maps the fact columns and every fact's group number (each
# below size) to the measure's value for each group number.
MEASURE_VALUES: dict[str, Callable[[FactColumns, list[int], int], list]] = {
    "tree_count": lambda facts, groups, size: _per_group(Counter(groups), size),
    "mean_confidence": _mean("confidence"),
    "mean_height_m": _mean("height_m"),
    "mean_dbh_cm": _mean("dbh_cm"),
    "image_count": lambda facts, groups, size: _per_group(
        Counter(map(itemgetter(0), set(zip(groups, facts.image_key)))), size
    ),
    "confirmed_count": lambda facts, groups, size: _per_group(
        Counter(compress(groups, map(CONFIRMED.__eq__, facts.validation))), size
    ),
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


def _image_passes(spec: QuerySpec, image: DimImage) -> bool:
    # a fact's date_key is its image's capture date: a fact whose date
    # differs is refused when it is stored or loaded
    date_key = image.capture_date_key
    if spec.date_from is not None and date_key < spec.date_from:
        return False
    if spec.date_to is not None and date_key > spec.date_to:
        return False
    if spec.platforms is not None and image.platform not in spec.platforms:
        return False
    if spec.min_width_px is not None and image.width_px < spec.min_width_px:
        return False
    if spec.min_height_px is not None and image.height_px < spec.min_height_px:
        return False
    return True


def _parts(rows: Mapping[int, Any], keep: Callable[[Any], bool], value: Callable[[Any], tuple]) -> tuple[dict, list]:
    """Number the distinct values of the kept rows. Returns each kept row's
    key with the number of its value, and for each number the first row
    that has it."""
    number: dict[tuple, int] = {}
    first: list = []
    part_of = {}
    for key, row in rows.items():
        if keep(row):
            v = value(row)
            if v not in number:
                number[v] = len(first)
                first.append(row)
            part_of[key] = number[v]
    return part_of, first


def run_query(handle: Warehouse, spec: QuerySpec) -> ResultTable:
    """Execute one aggregation: resolve the dimensions, scan the fact columns once, group, sort.

    A fact's group is the pair of its image's part and its species' part:
    the distinct values of the group keys each of them decides. Every fact
    a filter drops gets the group number dropped, past the last group.
    """
    problems = spec.violations()
    if problems:
        raise InvalidSpecError("; ".join(problems))
    state = handle.state
    facts = state.facts
    image_keys = [GROUP_VALUES[k] for k in spec.group_by if k not in _SPECIES_KEYS]
    species_keys = [GROUP_VALUES[k] for k in spec.group_by if k in _SPECIES_KEYS]
    image_part, image_first = _parts(
        state.images,
        lambda image: _image_passes(spec, image),
        lambda image: tuple([v(state.dates[image.capture_date_key], image, None) for v in image_keys]),
    )
    species_part, species_first = _parts(
        state.species,
        lambda species: spec.species_codes is None or species.code in spec.species_codes,
        lambda species: tuple([v(None, None, species) for v in species_keys]),
    )
    per_image = len(species_first)
    dropped = len(image_first) * per_image
    # For each image, the group number of a fact by its species key: shared
    # by the images of one part, and all dropped for a dropped image.
    by_part = [
        {key: p * per_image + species_part[key] if key in species_part else dropped for key in state.species}
        for p in range(len(image_first))
    ]
    none_kept = dict.fromkeys(state.species, dropped)
    by_image = {key: by_part[image_part[key]] if key in image_part else none_kept for key in state.images}
    groups = list(map(getitem, map(by_image.__getitem__, facts.image_key), facts.species_key))
    if spec.validation_states is not None:
        kept_state = [s in spec.validation_states for s in VALIDATION_STATES]
        groups = [g if kept_state[v] else dropped for g, v in zip(groups, facts.validation)]

    def group_key(g: int) -> tuple[str, ...]:
        image = image_first[g // per_image]
        date, species = state.dates[image.capture_date_key], species_first[g % per_image]
        return tuple([GROUP_VALUES[k](date, image, species) for k in spec.group_by])

    kept = sorted((group_key(g), g) for g in set(groups) if g != dropped)
    columns = [MEASURE_VALUES[m](facts, groups, dropped + 1) for m in spec.measures]
    rows = tuple(key + tuple([column[g] for column in columns]) for key, g in kept)
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
    facts_per_image = Counter(state.facts.image_key)
    image_counts: dict[tuple[str, str], int] = {}
    fact_counts: dict[tuple[str, str], int] = {}
    for image_key, image in state.images.items():
        key = (resolution_class(image.width_px, image.height_px), image.platform)
        image_counts[key] = image_counts.get(key, 0) + 1
        fact_counts[key] = fact_counts.get(key, 0) + facts_per_image[image_key]
    rows = [key + (image_counts[key], fact_counts[key]) for key in sorted(image_counts)]
    return ResultTable(
        columns=("resolution_class", "platform", "image_count", "fact_count"),
        rows=tuple(rows),
    )
