import datetime

import pytest
from hypothesis import given
from hypothesis import strategies as st

from canopydw.errors import InvalidDateError
from canopydw.model import (
    BoundingBox,
    DimDate,
    DimImage,
    FactDraft,
    Geotransform,
    ImageMeta,
    WarehouseState,
    date_key_from_iso,
    derive_date,
    encode_date_key,
    fact_field_violations,
    image_meta_violations,
    is_valid_date_key,
    validate_fact,
)

from helpers import make_image, make_species

# -- date dimension -----------------------------------------------------------


def test_derive_date_known_values():
    row = derive_date(20240115)
    assert row == DimDate(date_key=20240115, year=2024, quarter=1, month=1, day=15, day_of_year=15)


def test_derive_date_leap_day_of_year():
    assert derive_date(20241231).day_of_year == 366  # 2024 is a leap year
    assert derive_date(20231231).day_of_year == 365


@pytest.mark.parametrize("quarter,month", [(1, 3), (2, 4), (2, 6), (3, 7), (4, 10), (4, 12)])
def test_derive_date_quarters(quarter, month):
    assert derive_date(encode_date_key(2024, month, 1)).quarter == quarter


@pytest.mark.parametrize("bad", [20240230, 20241301, 20240100, 18991231, 22010101, -1, 123])
def test_derive_date_rejects_bad_keys(bad):
    with pytest.raises(InvalidDateError):
        derive_date(bad)
    assert not is_valid_date_key(bad)


@given(
    st.dates(
        min_value=datetime.date(1900, 1, 1),
        max_value=datetime.date(2200, 12, 31),
    )
)
def test_derive_date_matches_calendar(d):
    # independent oracle: the stdlib calendar
    key = d.year * 10000 + d.month * 100 + d.day
    row = derive_date(key)
    assert (row.year, row.month, row.day) == (d.year, d.month, d.day)
    assert row.quarter == (d.month - 1) // 3 + 1
    assert row.day_of_year == (d - datetime.date(d.year, 1, 1)).days + 1
    assert row.date_key == key


def test_date_key_from_iso():
    assert date_key_from_iso("2024-01-15") == 20240115
    with pytest.raises(InvalidDateError):
        date_key_from_iso("2024-13-01")
    with pytest.raises(InvalidDateError):
        date_key_from_iso("20240115")
    with pytest.raises(InvalidDateError):
        date_key_from_iso("1899-12-31")


@given(
    st.dates(
        min_value=datetime.date(1900, 1, 1),
        max_value=datetime.date(2200, 12, 31),
    )
)
def test_date_key_from_iso_accepts_only_extended_calendar_form(d):
    # date.fromisoformat accepts the basic and week forms from Python 3.11 on
    assert date_key_from_iso(d.isoformat()) == d.year * 10000 + d.month * 100 + d.day
    for other in (d.strftime("%Y%m%d"), d.strftime("%G-W%V-%u"), d.strftime("%GW%V%u")):
        with pytest.raises(InvalidDateError):
            date_key_from_iso(other)


# -- bounding boxes -----------------------------------------------------------


def test_bbox_valid():
    assert BoundingBox(0.5, 0.5, 0.2, 0.2).violations() == []
    assert BoundingBox(0.05, 0.95, 0.1, 0.1).violations() == []


def test_bbox_center_edges():
    # cx=0, w=1 puts the left edge at -0.5, far past tolerance
    assert BoundingBox(0.0, 0.5, 1.0, 0.2).violations() != []
    # centered unit box is fine
    assert BoundingBox(0.5, 0.5, 1.0, 1.0).violations() == []
    # edge overshoot within tolerance is fine
    assert BoundingBox(0.9976, 0.5, 0.01, 0.01).violations() == []
    # edge overshoot past tolerance is not
    assert BoundingBox(0.999, 0.5, 0.02, 0.01).violations() != []


@pytest.mark.parametrize(
    "box",
    [
        BoundingBox(-0.1, 0.5, 0.1, 0.1),
        BoundingBox(0.5, 1.1, 0.1, 0.1),
        BoundingBox(0.5, 0.5, 0.0, 0.1),
        BoundingBox(0.5, 0.5, 0.1, 1.2),
        BoundingBox(float("nan"), 0.5, 0.1, 0.1),
        BoundingBox(0.5, 0.5, float("inf"), 0.1),
    ],
)
def test_bbox_invalid(box):
    assert box.violations() != []


# -- geotransform ---------------------------------------------------------------


def test_geotransform_determinant():
    gt = Geotransform(0.0, 0.0, 0.1, 0.0, 0.0, -0.1)
    assert gt.determinant == pytest.approx(-0.01)
    assert gt.violations() == []


def test_geotransform_singular():
    assert Geotransform(0, 0, 1.0, 2.0, 2.0, 4.0).violations() == ["geotransform singular (determinant zero)"]
    assert Geotransform(0, 0, float("nan"), 0, 0, 1).violations() != []


# -- image metadata -------------------------------------------------------------


def test_image_meta_valid():
    assert image_meta_violations(make_image().meta) == []


def test_an_image_row_is_its_key_then_its_meta_and_the_key_has_no_default():
    meta = make_image().meta
    with pytest.raises(TypeError, match="image_key"):
        DimImage(**meta._asdict())
    assert DimImage._fields == ("image_key", *ImageMeta._fields)
    assert DimImage(7, *meta).meta == meta


@pytest.mark.parametrize(
    "overrides",
    [
        {"file_name": ""},
        {"platform": "drone"},
        {"capture_date_key": 20240231},
        {"width_px": 0},
        {"height_px": -5},
        {"gsd_cm_per_px": 0.0},
        {"size_bytes": -1},
        {"checksum": "XYZ"},
        {"checksum": "ab" * 31},
        {"geotransform": Geotransform(0, 0, 1.0, 2.0, 2.0, 4.0)},
        {"checksum": "ab" * 32 + "\n"},
    ],
)
def test_image_meta_invalid(overrides):
    assert image_meta_violations(make_image(**overrides).meta) != []


# -- fact rows ------------------------------------------------------------------


def _draft(**overrides):
    base = dict(
        date_key=20240115,
        image_key=1,
        species_key=1,
        bbox=BoundingBox(0.5, 0.5, 0.2, 0.2),
        confidence=0.9,
        geo_x=10.0,
        geo_y=20.0,
    )
    base.update(overrides)
    return FactDraft(**base)


def test_fact_fields_valid():
    assert fact_field_violations(_draft().row(1)) == []
    assert fact_field_violations(_draft(height_m=12.0, dbh_cm=30.0).row(1)) == []
    assert (
        fact_field_violations(_draft(validation="confirmed", matched_record_id="R1").row(1)) == []
    )


@pytest.mark.parametrize(
    "overrides",
    [
        {"date_key": 20240230},
        {"confidence": 1.5},
        {"confidence": float("nan")},
        {"geo_x": float("inf")},
        {"height_m": -3.0},
        {"dbh_cm": 0.0},
        {"validation": "bogus"},
        {"validation": "confirmed"},  # confirmed without a record id
        {"matched_record_id": "R1"},  # record id without a matched state
        {"validation": "unmatched", "matched_record_id": "R1"},
    ],
)
def test_fact_fields_invalid(overrides):
    assert fact_field_violations(_draft(**overrides).row(1)) != []


def test_validate_fact_reports_fk_violations():
    state = WarehouseState()
    fact = _draft().row(1)
    assert set(validate_fact(fact, state)) == {
        "date_key unresolved",
        "image_key unresolved",
        "species_key unresolved",
    }
    state.add_date(derive_date(20240115))
    state.add_species(make_species(1))
    state.add_image(make_image(image_key=1, capture_date_key=20240115))
    assert validate_fact(fact, state) == []
    # date mismatch: image captured on a different day than the fact claims
    state.add_image(make_image(image_key=2, capture_date_key=20240116, file_name="other.jpg"))
    state.add_date(derive_date(20240116))
    assert validate_fact(_draft(image_key=2).row(2), state) == [
        "date mismatch"
    ]
