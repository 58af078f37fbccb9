import random

import pytest

from canopydw.errors import InvalidSpecError
from canopydw.query import (
    GROUP_KEYS,
    MEASURES,
    QuerySpec,
    image_usage_report,
    resolution_class,
    run_query,
    spec_from_strings,
    species_trend,
)
from canopydw.storage import open_warehouse

from helpers import EMPTY_LIST_REFUSALS, make_draft, make_image, oracle_query, populate_random

# -- resolution buckets ------------------------------------------------------------


@pytest.mark.parametrize(
    "w,h,expected",
    [
        (100, 100, "low"),
        (999, 1000, "low"),
        (1000, 1000, "medium"),  # exactly 1 MP enters medium
        (4000, 3000, "medium"),  # exactly 12 MP stays medium
        (4000, 3001, "high"),
        (8000, 4000, "high"),
    ],
)
def test_resolution_class(w, h, expected):
    assert resolution_class(w, h) == expected


# -- spec validation ------------------------------------------------------------------


def test_spec_violations():
    assert QuerySpec(group_by=("species",)).violations() == []
    assert QuerySpec(group_by=("species", "species")).violations() != []
    assert QuerySpec(group_by=("frobnicate",)).violations() != []
    assert QuerySpec(measures=()).violations() != []
    assert QuerySpec(measures=("tree_count", "nope")).violations() != []
    assert QuerySpec(date_from=20240132).violations() != []
    assert QuerySpec(date_from=20240201, date_to=20240101).violations() != []
    assert QuerySpec(platforms=("blimp",)).violations() != []
    assert QuerySpec(validation_states=("maybe",)).violations() != []
    assert QuerySpec(min_width_px=-1).violations() != []


def test_spec_from_strings():
    spec = spec_from_strings(
        {
            "group_by": "species,platform",
            "measures": "tree_count, mean_confidence",
            "date_from": "20240101",
            "species_codes": "psme",
            "platforms": "UAV",
            "min_width_px": "640",
        }
    )
    assert spec.group_by == ("species", "platform")
    assert spec.measures == ("tree_count", "mean_confidence")
    assert spec.date_from == 20240101
    assert spec.species_codes == ("PSME",)
    assert spec.platforms == ("uav",)
    assert spec.min_width_px == 640
    # defaults
    assert spec_from_strings({}).measures == ("tree_count",)


def test_spec_from_strings_rejects_unknown_options():
    with pytest.raises(InvalidSpecError):
        spec_from_strings({"frobnicate": "1"})
    with pytest.raises(InvalidSpecError):
        spec_from_strings({"min_width_px": "wide"})
    with pytest.raises(InvalidSpecError):
        spec_from_strings({"group_by": "species,species"})


@pytest.mark.parametrize("name", list(EMPTY_LIST_REFUSALS))
def test_empty_list_option_is_refused(name):
    message = EMPTY_LIST_REFUSALS[name]
    for text in (",", " , ,"):
        with pytest.raises(InvalidSpecError) as err:
            spec_from_strings({name: text})
        assert str(err.value) == message
    assert QuerySpec(**{name: ()}).violations() == [message]
    # empty text means the option is not given
    assert spec_from_strings({name: ""}) == QuerySpec()


# -- fixed-warehouse behavior ------------------------------------------------------------


@pytest.fixture
def wh(tmp_path):
    with open_warehouse(tmp_path / "wh") as handle:
        k_psme = handle.upsert_species("PSME", conservation_status="least_concern")
        k_tshe = handle.upsert_species("TSHE", conservation_status="endangered")
        handle.ensure_date(20240115)
        handle.ensure_date(20240716)
        small = handle.insert_image(
            make_image(file_name="small.jpg", width_px=640, height_px=480).meta
        )
        handle.ensure_date(20240716)
        big = handle.insert_image(
            make_image(
                file_name="big.jpg",
                platform="satellite",
                capture_date_key=20240716,
                width_px=8000,
                height_px=4000,
            ).meta
        )
        img_s = handle.state.images[small]
        img_b = handle.state.images[big]
        handle.append_facts(
            [
                make_draft(img_s, species_key=k_psme, confidence=0.8, height_m=10.0),
                make_draft(img_s, species_key=k_tshe, confidence=0.6),
                make_draft(img_b, species_key=k_psme, confidence=0.4, height_m=30.0),
            ]
        )
        yield handle


def test_group_by_species(wh):
    table = run_query(wh, QuerySpec(group_by=("species",), measures=("tree_count",)))
    assert table.columns == ("species", "tree_count")
    assert table.rows == (("PSME", 2), ("TSHE", 1))


def test_group_key_rendering(wh):
    # filtered down to exactly one fact so each key yields one known group
    for key, expected in [
        ("year", "2024"),
        ("quarter", "2024-Q1"),
        ("month", "2024-01"),
        ("date", "20240115"),
        ("platform", "uav"),
        ("resolution_class", "low"),
        ("conservation_status", "least_concern"),
    ]:
        table = run_query(
            wh,
            QuerySpec(
                group_by=(key,),
                measures=("tree_count",),
                platforms=("uav",),
                species_codes=("PSME",),
            ),
        )
        assert table.rows == ((expected, 1),), key


def test_quarter_boundaries(wh):
    table = run_query(wh, QuerySpec(group_by=("quarter",), measures=("tree_count",)))
    assert [r[0] for r in table.rows] == ["2024-Q1", "2024-Q3"]


def test_means_ignore_absent_values(wh):
    table = run_query(wh, QuerySpec(group_by=(), measures=("mean_height_m", "mean_confidence")))
    assert table.rows == ((20.0, pytest.approx(0.6)),)


def test_mean_of_no_contributors_is_none(wh):
    table = run_query(
        wh,
        QuerySpec(group_by=(), measures=("mean_height_m",), species_codes=("TSHE",)),
    )
    assert table.rows == ((None,),)
    assert table.to_csv() == "mean_height_m\n\"\"\n" or table.to_csv() == "mean_height_m\n\n"


def test_filters(wh):
    spec = QuerySpec(group_by=("species",), min_width_px=1000)
    assert run_query(wh, spec).rows == (("PSME", 1),)
    spec = QuerySpec(group_by=("species",), date_to=20240630)
    assert run_query(wh, spec).rows == (("PSME", 1), ("TSHE", 1))
    spec = QuerySpec(group_by=("species",), platforms=("satellite",))
    assert run_query(wh, spec).rows == (("PSME", 1),)


def test_empty_group_by_single_row(wh):
    table = run_query(wh, QuerySpec(group_by=(), measures=("tree_count", "image_count")))
    assert table.rows == ((3, 2),)


def test_run_query_rejects_bad_spec(wh):
    with pytest.raises(InvalidSpecError):
        run_query(wh, QuerySpec(group_by=("nope",)))


def test_species_trend(wh):
    table = species_trend(wh, "psme", "month")
    assert table.columns == ("month", "tree_count", "mean_confidence", "confirmed_count")
    assert [r[:2] for r in table.rows] == [("2024-01", 1), ("2024-07", 1)]
    with pytest.raises(InvalidSpecError):
        species_trend(wh, "NOPE")
    with pytest.raises(InvalidSpecError):
        species_trend(wh, "PSME", "fortnight")


def test_image_usage_report_counts_factless_images(wh):
    wh.ensure_date(20240115)
    wh.insert_image(
        make_image(file_name="empty.jpg", width_px=4000, height_px=3000).meta
    )
    table = image_usage_report(wh)
    assert table.columns == ("resolution_class", "platform", "image_count", "fact_count")
    assert set(table.rows) == {
        ("low", "uav", 1, 2),
        ("high", "satellite", 1, 1),
        ("medium", "uav", 1, 0),
    }


def test_image_usage_report_empty(tmp_path):
    with open_warehouse(tmp_path / "wh") as handle:
        assert image_usage_report(handle).rows == ()


# -- properties against the naive oracle ----------------------------------------------


def _random_spec(rng: random.Random) -> QuerySpec:
    group_by = tuple(rng.sample(GROUP_KEYS, k=rng.randrange(0, 3)))
    measures = tuple(rng.sample(MEASURES, k=rng.randrange(1, len(MEASURES) + 1)))
    kwargs = {}
    if rng.random() < 0.3:
        kwargs["date_from"] = rng.choice((20240101, 20240201, 20240701))
    if rng.random() < 0.3:
        kwargs["date_to"] = rng.choice((20240301, 20241201, 20241115))
    if kwargs.get("date_from") and kwargs.get("date_to") and kwargs["date_from"] > kwargs["date_to"]:
        kwargs["date_from"], kwargs["date_to"] = kwargs["date_to"], kwargs["date_from"]
    if rng.random() < 0.3:
        kwargs["species_codes"] = tuple(rng.sample(("PSME", "TSHE", "THPL", "ALRU", "ACMA"), k=rng.randrange(1, 3)))
    if rng.random() < 0.3:
        kwargs["platforms"] = tuple(rng.sample(("uav", "satellite", "aerial", "ground"), k=rng.randrange(1, 3)))
    if rng.random() < 0.3:
        kwargs["min_width_px"] = rng.choice((0, 700, 2000))
    if rng.random() < 0.2:
        kwargs["min_height_px"] = rng.choice((0, 500, 2500))
    if rng.random() < 0.2:
        kwargs["validation_states"] = ("unvalidated",)
    return QuerySpec(group_by=group_by, measures=measures, **kwargs)


def test_query_matches_oracle_on_random_warehouses(tmp_path):
    rng = random.Random(2024)
    for case in range(25):
        root = tmp_path / f"wh{case}"
        with open_warehouse(root) as handle:
            populate_random(handle, rng, n_images=rng.randrange(1, 12), max_facts_per_image=4)
            for _ in range(4):
                spec = _random_spec(rng)
                got = run_query(handle, spec).rows
                assert got == tuple(oracle_query(handle.state, spec))


def test_partition_property(tmp_path):
    rng = random.Random(99)
    with open_warehouse(tmp_path / "wh") as handle:
        populate_random(handle, rng, n_images=20, max_facts_per_image=5)
        total = len(handle.state.facts)
        for key in GROUP_KEYS:
            table = run_query(handle, QuerySpec(group_by=(key,), measures=("tree_count",)))
            assert sum(r[1] for r in table.rows) == total, key


def test_filter_monotonicity(tmp_path):
    rng = random.Random(5)
    with open_warehouse(tmp_path / "wh") as handle:
        populate_random(handle, rng, n_images=15, max_facts_per_image=4)
        base = dict(run_query(handle, QuerySpec(group_by=("species",))).rows)
        filtered = dict(
            run_query(handle, QuerySpec(group_by=("species",), min_width_px=1500)).rows
        )
        for code, count in filtered.items():
            assert count <= base[code]
