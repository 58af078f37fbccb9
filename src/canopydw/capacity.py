"""Linear capacity model for warehouse growth estimation.

The model generalizes a back-of-envelope method: average the
daily image intake over the observed days, multiply by the number of ingest
events per year to get yearly record growth, and scale per-record byte
costs linearly. Arithmetic runs on exact rationals; byte figures round only
at display time.

The reference figures the method is calibrated against are kept
here as constants. Two of them (the 10-year record count and its size) do
not follow from the method's own formula; estimates therefore carry a
standing note quantifying the difference instead of reproducing those two
numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import EmptyWarehouseError
from .report import ResultTable, choose_binary_unit, format_binary_size
from .storage import Warehouse

# Reference calibration figures (238 images over three observation days in
# four batches, quarterly ingests, a ten-year horizon).
REPORTED_AVG_IMAGES_PER_DAY = 51
REPORTED_CURRENT_RECORDS = 238
REPORTED_YEARLY_GROWTH = 204
REPORTED_EVENTS_PER_YEAR = 4
REPORTED_HORIZON_YEARS = 10
REPORTED_IMAGE_PAYLOAD_MIB = 920.9
REPORTED_FACT_TABLE_MIB = 0.01
REPORTED_TEN_YEAR_RECORDS = 2072
REPORTED_TEN_YEAR_GIB = 8.12


def average_daily_images(day_counts: Sequence[Sequence[int]]) -> int:
    """Floor of the mean daily image count.

    One inner list per observation day; a day covered by several datasets
    contributes the mean of its counts, so [[22], [50], [116, 50]] gives
    floor((22 + 50 + 83) / 3) = 51.
    """
    if not day_counts:
        raise ValueError("at least one observation day is required")
    total = Fraction(0)
    for i, day in enumerate(day_counts):
        if not day:
            raise ValueError(f"day {i} has no dataset counts")
        for n in day:
            if n < 0:
                raise ValueError(f"day {i} has a negative count {n}")
        total += Fraction(sum(day), len(day))
    return math.floor(total / len(day_counts))


def total_records(dataset_counts: Sequence[int]) -> int:
    """Total record count across all ingested datasets."""
    return sum(dataset_counts)


@dataclass(frozen=True)
class GrowthModel:
    """Parameters of the linear growth estimate."""

    avg_images_per_day: int
    ingest_events_per_year: int
    current_records: int
    bytes_per_image_record: Fraction
    bytes_per_fact_record: Fraction

    def __post_init__(self):
        if self.avg_images_per_day < 0:
            raise ValueError("avg_images_per_day must be non-negative")
        if self.ingest_events_per_year <= 0:
            raise ValueError("ingest_events_per_year must be positive")
        if self.current_records < 0:
            raise ValueError("current_records must be non-negative")
        if self.bytes_per_image_record <= 0:
            raise ValueError("bytes_per_image_record must be positive")
        if self.bytes_per_fact_record < 0:
            raise ValueError("bytes_per_fact_record must be non-negative")

    def image_bytes(self, records: int) -> float:
        return float(records * self.bytes_per_image_record)

    def fact_bytes(self, records: int) -> float:
        return float(records * self.bytes_per_fact_record)


def yearly_growth(model: GrowthModel) -> int:
    """Records added per year: daily average times ingest events per year."""
    return model.avg_images_per_day * model.ingest_events_per_year


@dataclass(frozen=True)
class Projection:
    records: int
    image_dim_bytes: float
    fact_table_bytes: float


def project(model: GrowthModel, years: int) -> Projection:
    """Linear projection: current records plus yearly growth times years.

    Raises ValueError for a negative horizon, and for one whose projected
    bytes do not fit in a float.
    """
    if years < 0:
        raise ValueError("years must be non-negative")
    records = model.current_records + yearly_growth(model) * years
    try:
        image_bytes, fact_bytes = model.image_bytes(records), model.fact_bytes(records)
    except OverflowError:
        raise ValueError("years is too large: the projected size does not fit in a float") from None
    return Projection(records=records, image_dim_bytes=image_bytes, fact_table_bytes=fact_bytes)


def discrepancy_note() -> str:
    """Standing caveat about the reference 10-year figures."""
    ref_bytes = Fraction(round(REPORTED_IMAGE_PAYLOAD_MIB * 2**20), REPORTED_CURRENT_RECORDS)
    at_reported = format_binary_size(float(REPORTED_TEN_YEAR_RECORDS * ref_bytes), "GiB")
    formula_records = REPORTED_CURRENT_RECORDS + REPORTED_YEARLY_GROWTH * REPORTED_HORIZON_YEARS
    return (
        f"reference 10-year figures ({REPORTED_TEN_YEAR_RECORDS} records, "
        f"{REPORTED_TEN_YEAR_GIB} GiB) do not follow from the linear model: "
        f"{REPORTED_CURRENT_RECORDS} current + {REPORTED_YEARLY_GROWTH}/year over "
        f"{REPORTED_HORIZON_YEARS} years gives {formula_records} records, and "
        f"{REPORTED_TEN_YEAR_RECORDS} records at the reference per-record size "
        f"is about {at_reported} GiB"
    )


@dataclass(frozen=True)
class EstimateReport:
    """Full output of a warehouse size estimate."""

    years: int
    events_per_year: int
    avg_images_per_day: int
    yearly_growth: int
    current_records: int
    projected_records: int
    image_dim_bytes: float
    fact_table_bytes: float
    note: str

    @property
    def size_unit(self) -> str:
        return choose_binary_unit(max(self.image_dim_bytes, self.fact_table_bytes))

    def table_rows(self) -> ResultTable:
        """Two-row size table: image dimension and fact table."""
        unit = self.size_unit
        columns = ("table", "records", f"estimated_{unit.lower()}")
        rows = [
            ("image_dimension", self.projected_records, format_binary_size(self.image_dim_bytes, unit)),
            ("fact_table", self.projected_records, format_binary_size(self.fact_table_bytes, unit)),
        ]
        return ResultTable(columns, rows)

    def parameter_rows(self) -> list[tuple[str, object]]:
        return [
            ("years", self.years),
            ("events_per_year", self.events_per_year),
            ("avg_images_per_day", self.avg_images_per_day),
            ("yearly_growth", self.yearly_growth),
            ("current_records", self.current_records),
            ("projected_records", self.projected_records),
        ]

    def to_csv(self) -> str:
        parameters = ResultTable(("field", "value"), self.parameter_rows())
        note = ResultTable(("note",), [(self.note,)])
        return parameters.to_csv() + self.table_rows().to_csv() + note.to_csv()

    def to_text(self) -> str:
        parameters = "".join(f"{name}: {value}\n" for name, value in self.parameter_rows())
        return parameters + self.table_rows().to_text() + f"\nnote: {self.note}\n"


def build_report(model: GrowthModel, years: int, events_per_year: int) -> EstimateReport:
    projection = project(model, years)
    return EstimateReport(
        years=years,
        events_per_year=events_per_year,
        avg_images_per_day=model.avg_images_per_day,
        yearly_growth=yearly_growth(model),
        current_records=model.current_records,
        projected_records=projection.records,
        image_dim_bytes=projection.image_dim_bytes,
        fact_table_bytes=projection.fact_table_bytes,
        note=discrepancy_note(),
    )


def model_from_warehouse(handle: Warehouse, events_per_year: int) -> GrowthModel:
    """Calibrate a GrowthModel from live warehouse contents.

    The daily intake average treats each (capture date, platform) group as
    one dataset, mirroring how multi-sensor campaigns deliver several
    batches on one day.
    """
    stats = handle.stats()
    if stats.image_count == 0:
        raise EmptyWarehouseError("no images ingested; averages are undefined")
    per_day: dict[int, dict[str, int]] = {}
    for image in handle.state.images.values():
        day = per_day.setdefault(image.capture_date_key, {})
        day[image.platform] = day.get(image.platform, 0) + 1
    day_counts = [
        [day[platform] for platform in sorted(day)]
        for _, day in sorted(per_day.items())
    ]
    fact_count = stats.fact_count
    fact_file_bytes = stats.table("fact_tree_metrics").file_bytes
    return GrowthModel(
        avg_images_per_day=average_daily_images(day_counts),
        ingest_events_per_year=events_per_year,
        current_records=stats.image_count,
        bytes_per_image_record=Fraction(stats.image_payload_bytes, stats.image_count),
        bytes_per_fact_record=(
            Fraction(fact_file_bytes, fact_count) if fact_count > 0 else Fraction(0)
        ),
    )


def estimate_from_warehouse(handle: Warehouse, events_per_year: int, years: int) -> EstimateReport:
    """Calibrate from the warehouse and project years ahead."""
    model = model_from_warehouse(handle, events_per_year)
    return build_report(model, years, events_per_year)
