import pytest
from hypothesis import given
from hypothesis import strategies as st

from canopydw.errors import (
    DuplicateRecordError,
    InvalidMetadataError,
    ParseError,
    RangeError,
    SurveyImmutableError,
    UnknownSpeciesError,
)
from canopydw.ingest import (
    MANIFEST_HEADER,
    REGISTRY_HEADER,
    SURVEY_HEADER,
    ClassMap,
    Detection,
    detection_file_name,
    ingest_image_batch,
    ingest_species_registry,
    ingest_survey,
    parse_detection_file,
    parse_detection_line,
    parse_image_manifest,
    render_detection_line,
)
from canopydw.model import BoundingBox, Geotransform
from canopydw.storage import SPECIES, open_warehouse

from helpers import checksum_for, fact_rows, make_image

# -- detection line grammar ------------------------------------------------------


def test_parse_basic_line():
    det = parse_detection_line("2 0.5 0.25 0.1 0.2 0.9")
    assert det == Detection(class_id=2, bbox=BoundingBox(0.5, 0.25, 0.1, 0.2), confidence=0.9)


def test_parse_defaults_confidence():
    det = parse_detection_line("0 0.5 0.5 0.1 0.1")
    assert det.confidence == 1.0


def test_parse_skips_blank_and_comment_lines():
    assert parse_detection_line("") is None
    assert parse_detection_line("   \t ") is None
    assert parse_detection_line("# header comment") is None


def test_parse_ignores_extra_whitespace():
    det = parse_detection_line("  1\t0.5  0.5\t0.1 0.1  0.7  ")
    assert det.class_id == 1 and det.confidence == 0.7


@pytest.mark.parametrize(
    "line,fragment",
    [
        ("0 0.5 0.5 0.1", "expected 5 or 6 fields"),
        ("0 0.5 0.5 0.1 0.1 0.9 7", "expected 5 or 6 fields"),
        ("x 0.5 0.5 0.1 0.1", "class_id"),
        ("1.5 0.5 0.5 0.1 0.1", "class_id"),
        ("0 abc 0.5 0.1 0.1", "cx"),
        ("0 0.5 0.5 0.1 oops", "h"),
    ],
)
def test_parse_structural_errors(line, fragment):
    with pytest.raises(ParseError) as err:
        parse_detection_line(line)
    assert fragment in str(err.value)


@pytest.mark.parametrize(
    "line",
    [
        "-1 0.5 0.5 0.1 0.1",  # negative class id scans but is invalid
        "0 -0.01 0.5 0.1 0.1",  # past the clamp tolerance
        "0 0.5 1.01 0.1 0.1",
        "0 0.5 0.5 0.0 0.1",  # zero size never clamps
        "0 0.5 0.5 -0.001 0.1",
        "0 0.5 0.5 0.1 1.2",
        "0 0.5 0.5 0.1 0.1 1.1",
        "0 0.5 0.5 nan 0.1",
        "0 inf 0.5 0.1 0.1",
        "0 0.9 0.5 0.5 0.1",  # right edge 1.15, past tolerance
    ],
)
def test_parse_range_errors(line):
    with pytest.raises(RangeError):
        parse_detection_line(line)


def test_parse_clamps_boundary_noise():
    det = parse_detection_line("0 0.5 1.004 1.004 0.008 1.0049")
    assert det.bbox.cy == 1.0
    assert det.bbox.w == 1.0
    assert det.bbox.h == 0.008
    assert det.confidence == 1.0
    det = parse_detection_line("0 -0.004 0.5 0.008 0.1")
    assert det.bbox.cx == 0.0
    # clamped box still must fit the frame: cy=1.0 with h=0.5 hangs out by 0.25
    with pytest.raises(RangeError):
        parse_detection_line("0 0.5 1.004 0.2 0.5")


def test_parse_file_attributes_lines():
    lines = ["0 0.5 0.5 0.1 0.1", "# note", "0 2.0 0.5 0.1 0.1"]
    with pytest.raises(RangeError) as err:
        parse_detection_file(lines, source="tile_007.txt")
    assert err.value.source == "tile_007.txt"
    assert err.value.line_no == 3
    assert str(err.value).startswith("tile_007.txt:3: ")


def test_render_canonical_form():
    det = Detection(class_id=3, bbox=BoundingBox(0.5, 0.25, 0.125, 0.0625), confidence=1.0)
    assert render_detection_line(det) == "3 0.5 0.25 0.125 0.0625 1.0"


safe_coord = st.floats(min_value=0.001, max_value=0.999, allow_nan=False, width=64)


@given(
    class_id=st.integers(min_value=0, max_value=999),
    cx=safe_coord,
    cy=safe_coord,
    frac_w=st.floats(min_value=0.001, max_value=1.0, exclude_min=False),
    frac_h=st.floats(min_value=0.001, max_value=1.0),
    conf=st.floats(min_value=0.0, max_value=1.0),
)
def test_render_parse_round_trip_bit_exact(class_id, cx, cy, frac_w, frac_h, conf):
    # construct a box guaranteed inside the frame, then round-trip it
    w = 2 * min(cx, 1 - cx) * frac_w
    h = 2 * min(cy, 1 - cy) * frac_h
    if w <= 0 or h <= 0:
        return
    det = Detection(class_id=class_id, bbox=BoundingBox(cx, cy, w, h), confidence=conf)
    text = render_detection_line(det)
    again = parse_detection_line(text)
    assert again == det                      # bit-exact floats
    assert render_detection_line(again) == text


def test_detection_file_name():
    assert detection_file_name("plot_001.jpg") == "plot_001.txt"
    assert detection_file_name("a.b.tiff") == "a.b.txt"
    assert detection_file_name("noext") == "noext.txt"


# -- class maps ---------------------------------------------------------------------


def test_class_map():
    cmap = ClassMap.from_lines(["psme", "", "# comment", " tshe "])
    assert cmap.codes == ("PSME", "TSHE")
    assert cmap.code_for(0) == "PSME"
    with pytest.raises(RangeError):
        cmap.code_for(2)
    with pytest.raises(ParseError):
        ClassMap(["PSME", "  "])


# -- manifests -----------------------------------------------------------------------


def _manifest_row(name="a.jpg", date="2024-03-05", platform="uav", **overrides):
    row = {
        "file_name": name,
        "capture_date": date,
        "platform": platform,
        "width_px": "100",
        "height_px": "80",
        "gsd_cm_per_px": "10.0",
        "gt_origin_x": "500.0",
        "gt_origin_y": "200.0",
        "gt_a": "0.1",
        "gt_b": "0.0",
        "gt_d": "0.0",
        "gt_e": "-0.1",
        "size_bytes": "12345",
        "checksum": checksum_for(name),
    }
    row.update(overrides)
    return ",".join(row[k] for k in MANIFEST_HEADER.split(","))


def test_parse_manifest():
    metas = parse_image_manifest([MANIFEST_HEADER, _manifest_row()])
    assert len(metas) == 1
    m = metas[0]
    assert (m.file_name, m.platform, m.capture_date_key) == ("a.jpg", "uav", 20240305)
    assert (m.width_px, m.height_px, m.size_bytes) == (100, 80, 12345)
    assert m.geotransform.origin_x == 500.0 and m.geotransform.e == -0.1
    # cells are trimmed, the date's as much as the platform's
    padded = parse_image_manifest([MANIFEST_HEADER, _manifest_row(date=" 2024-03-05 ", platform=" UAV ")])
    assert (padded[0].capture_date_key, padded[0].platform) == (20240305, "uav")


def test_parse_manifest_rejects_bad_header():
    with pytest.raises(ParseError) as err:
        parse_image_manifest(["file_name,oops", _manifest_row()], source="m.csv")
    assert err.value.line_no == 1


@pytest.mark.parametrize(
    "kwargs,error",
    [
        (dict(date="2024-13-05"), ParseError),
        (dict(platform="blimp"), RangeError),
        (dict(width_px="abc"), ParseError),
        (dict(width_px="0"), RangeError),
        (dict(gsd_cm_per_px="-1"), RangeError),
        (dict(checksum="zz"), RangeError),
        (dict(size_bytes="12.5"), ParseError),
        (dict(gt_a="0", gt_b="0", gt_d="0", gt_e="0"), RangeError),  # singular
        (dict(date="20240305"), ParseError),  # basic ISO form
        (dict(date="2024-W10-2"), ParseError),  # ISO week date
        (dict(name='"a\nb.jpg"'), RangeError),  # line break in a quoted file_name
    ],
)
def test_parse_manifest_rejects_bad_rows(kwargs, error):
    with pytest.raises(error) as err:
        parse_image_manifest([MANIFEST_HEADER, _manifest_row(**kwargs)], source="m.csv")
    assert err.value.source == "m.csv"
    assert err.value.line_no == 2


def test_parse_manifest_refuses_a_geotransform_that_overflows():
    # each parameter is finite, but the frame's far corners map to infinity
    row = _manifest_row(gt_a="1e308", gt_e="-1e308")
    with pytest.raises(RangeError) as err:
        parse_image_manifest([MANIFEST_HEADER, row], source="m.csv")
    assert str(err.value) == "m.csv:2: geotransform maps a frame corner to non-finite coordinates"


def test_parse_manifest_rejects_duplicates():
    with pytest.raises(ParseError) as err:
        parse_image_manifest([MANIFEST_HEADER, _manifest_row(), _manifest_row()])
    assert "duplicate" in str(err.value)


def test_parse_manifest_quoted_file_names():
    name = 'we,ird "name".jpg'
    quoted = '"we,ird ""name"".jpg"'
    line = _manifest_row(name="PLACEHOLDER", checksum=checksum_for(name)).replace("PLACEHOLDER", quoted)
    metas = parse_image_manifest([MANIFEST_HEADER, line])
    assert metas[0].file_name == name


# -- species registry ---------------------------------------------------------------


REGISTRY = [
    "code,scientific_name,common_name,conservation_status",
    "psme,Pseudotsuga menziesii,Douglas-fir,least_concern",
    "TSHE,Tsuga heterophylla,Western hemlock,definitely_fine",
]


def test_ingest_registry(tmp_path):
    with open_warehouse(tmp_path / "wh") as wh:
        assert ingest_species_registry(wh, REGISTRY) == 2
        assert wh.state.species_by_code == {"PSME": 1, "TSHE": 2}
        # unrecognized status degrades to unknown
        assert wh.state.species[2].conservation_status == "unknown"
        assert wh.state.species[1].conservation_status == "least_concern"


def test_ingest_registry_empty_code(tmp_path):
    with open_warehouse(tmp_path / "wh") as wh:
        with pytest.raises(ParseError) as err:
            ingest_species_registry(wh, REGISTRY + [" ,x,y,unknown"], source="reg.csv")
        assert err.value.line_no == 4


def test_refused_registry_writes_nothing(tmp_path):
    root = tmp_path / "wh"
    with open_warehouse(root):
        pass
    before = (root / SPECIES.file).read_bytes()
    with open_warehouse(root) as wh:
        with pytest.raises(ParseError) as err:
            ingest_species_registry(wh, REGISTRY[:2] + [" ,x,y,unknown"], source="reg.csv")
        assert str(err.value) == "reg.csv:3: empty species code"
        assert wh.state.species_by_code == {}
    assert (root / SPECIES.file).read_bytes() == before
    with open_warehouse(root, "ro") as wh:
        assert wh.state.species_by_code == {}


def test_registry_with_line_break_writes_nothing(tmp_path):
    root = tmp_path / "wh"
    with open_warehouse(root):
        pass
    before = (root / SPECIES.file).read_bytes()
    # line 2 is a new species; the quoted code of line 3 ends on line 4
    lines = [REGISTRY_HEADER, REGISTRY[1], '"TS', 'HE",Tsuga heterophylla,Western hemlock,unknown']
    with open_warehouse(root) as wh:
        with pytest.raises(InvalidMetadataError) as err:
            ingest_species_registry(wh, [line + "\n" for line in lines], source="reg.csv")
        assert str(err.value) == "reg.csv:3: species text 'TS\\nHE' contains a line break"
        assert wh.state.species_by_code == {}
    assert (root / SPECIES.file).read_bytes() == before


# -- surveys --------------------------------------------------------------------------


SURVEY_LINES = [
    "record_id,geo_x,geo_y,species_code,dbh_cm,height_m,surveyed_date",
    "R1,505.3,195.4,psme,30.5,22.0,2024-03-01",
    "R2,501.0,199.05,PSME,,,2024-03-02",
]


@pytest.fixture
def wh(tmp_path):
    with open_warehouse(tmp_path / "wh") as handle:
        ingest_species_registry(handle, REGISTRY)
        yield handle


def test_ingest_survey(wh):
    records = ingest_survey(wh, "plot1", SURVEY_LINES)
    assert [r.record_id for r in records] == ["R1", "R2"]
    assert records[0].species_code == "PSME"
    assert records[0].dbh_cm == 30.5
    assert records[1].dbh_cm is None
    assert records[1].surveyed_date_key == 20240302
    assert wh.load_survey("plot1") == records


def test_ingest_survey_identical_reingest_is_noop(wh):
    ingest_survey(wh, "plot1", SURVEY_LINES)
    ingest_survey(wh, "plot1", SURVEY_LINES)
    with pytest.raises(SurveyImmutableError):
        ingest_survey(wh, "plot1", SURVEY_LINES[:2])


def test_ingest_survey_refuses_record_id_of_another_survey(wh):
    ingest_survey(wh, "s1", SURVEY_LINES)
    with pytest.raises(DuplicateRecordError) as err:
        ingest_survey(wh, "s2", [SURVEY_LINES[0], "R3,1.0,2.0,PSME,,,2024-03-01", SURVEY_LINES[2]])
    assert str(err.value) == "record id 'R2' appears in surveys 's1' and 's2'"
    assert wh.list_survey_ids() == ["s1"]
    # the same survey again is still a no-op, and fresh ids are accepted
    assert ingest_survey(wh, "s1", SURVEY_LINES) == wh.load_survey("s1")
    ingest_survey(wh, "s2", [SURVEY_LINES[0], "R3,1.0,2.0,PSME,,,2024-03-01"])
    assert len(wh.load_all_survey_records()) == 3


@pytest.mark.parametrize(
    "line,error",
    [
        ("R3,1.0,2.0,ABIE,,,2024-03-01", UnknownSpeciesError),
        ("R1,9,9,PSME,,,2024-03-01", ParseError),  # duplicate id in file
        (",1.0,2.0,PSME,,,2024-03-01", ParseError),
        ("R3,abc,2.0,PSME,,,2024-03-01", ParseError),
        ("R3,inf,2.0,PSME,,,2024-03-01", RangeError),
        ("R3,1.0,2.0,PSME,-4,,2024-03-01", RangeError),
        ("R3,1.0,2.0,PSME,,0,2024-03-01", RangeError),
        ("R3,1.0,2.0,PSME,,,03/01/2024", ParseError),
        ("R3,1.0,2.0,PSME,,,20240301", ParseError),  # basic ISO form
        ("R3,1.0,2.0,PSME,,,2024-W09-5", ParseError),  # ISO week date
        ("R3,1.0,2.0,PSME,,,2024-03-01,extra", ParseError),
    ],
)
def test_ingest_survey_rejects_bad_rows(wh, line, error):
    with pytest.raises(error) as err:
        ingest_survey(wh, "plotx", SURVEY_LINES + [line], source="s.csv")
    assert getattr(err.value, "line_no", 4) == 4 or "s.csv:4" in str(err.value)
    # nothing persisted
    assert wh.list_survey_ids() == []


@pytest.mark.parametrize("newline", ["", "\n"])
@pytest.mark.parametrize(
    "rows, message",
    [
        (["R2,abc,2,PSME,,,2024-03-01"], "s.csv:4: coordinates are not numbers"),
        (["R2,1,2,PSME,,,2024-03-01", "R2,1,2,PSME,,,2024-03-01"], "s.csv:5: duplicate record_id 'R2' (also line 4)"),
    ],
)
def test_survey_rows_are_numbered_by_physical_line(wh, newline, rows, message):
    # the quoted geo_x of line 2 ends on line 3 (a record_id may not hold a
    # line break; the cells of a number are trimmed)
    lines = [SURVEY_HEADER, 'R1,"1', '",2,PSME,,,2024-03-01', *rows]
    with pytest.raises(ParseError) as err:
        ingest_survey(wh, "plotx", [line + newline for line in lines], source="s.csv")
    assert str(err.value) == message


@pytest.mark.parametrize(
    "row, text",
    [(['"R1', 'X",1,2,PSME,,,2024-03-01'], "'R1\\nX'"), (['R1,1,2,"PS', 'ME",,,2024-03-01'], "'PS\\nME'")],
    ids=["record_id", "species_code"],
)
def test_survey_with_line_break_writes_nothing(wh, row, text):
    # line 2 is a good record; the quoted cell of line 3 ends on line 4
    lines = [SURVEY_HEADER, "R0,1,2,PSME,,,2024-03-01", *row]
    with pytest.raises(InvalidMetadataError) as err:
        ingest_survey(wh, "s2", [line + "\n" for line in lines], source="s2.csv")
    assert str(err.value) == f"s2.csv:3: survey text {text} contains a line break"
    assert wh.list_survey_ids() == []


# -- refusals shared by every CSV source ---------------------------------------------

CSV_SOURCES = {
    "manifest": (MANIFEST_HEADER, lambda wh, lines, src: parse_image_manifest(lines, source=src)),
    "registry": (REGISTRY_HEADER, lambda wh, lines, src: ingest_species_registry(wh, lines, source=src)),
    "survey": (SURVEY_HEADER, lambda wh, lines, src: ingest_survey(wh, "plotx", lines, source=src)),
}


def _valid_row(what):
    return {"manifest": _manifest_row(), "registry": REGISTRY[1], "survey": SURVEY_LINES[1]}[what]


@pytest.mark.parametrize("what", sorted(CSV_SOURCES))
def test_csv_sources_share_refusals(wh, what):
    header, run = CSV_SOURCES[what]
    row = _valid_row(what)
    width = len(header.split(","))
    cases = [
        ([], None, f"empty {what}"),
        (["nonsense", row], 1, f"bad {what} header, expected {header!r}"),
        ([header, "a,b"], 2, f"expected {width} fields, got 2"),
        ([header, row, "", row + ",extra"], 4, f"expected {width} fields, got {width + 1}"),
    ]
    for lines, line_no, reason in cases:
        with pytest.raises(ParseError) as err:
            run(wh, lines, "x.csv")
        assert (err.value.source, err.value.line_no, err.value.reason) == ("x.csv", line_no, reason)
        prefix = "x.csv:" if line_no is None else f"x.csv:{line_no}:"
        assert str(err.value) == f"{prefix} {reason}"
    # blank and whitespace-only rows are skipped
    assert run(wh, [header, "", row, "   "], "x.csv") == run(wh, [header, row], "x.csv")


@pytest.mark.parametrize("what", sorted(CSV_SOURCES))
def test_csv_sources_refuse_a_cell_past_the_field_limit_with_its_line(wh, what):
    header, run = CSV_SOURCES[what]
    row = _valid_row(what)
    # the record of line 3 holds a quoted cell that ends on line 4
    lines = [header, row, '"' + "x" * 100_000, "x" * 100_000 + '",a,b']
    with pytest.raises(ParseError) as err:
        run(wh, [line + "\n" for line in lines], "x.csv")
    assert str(err.value) == "x.csv:3: field larger than field limit (131072)"


# -- image batches ---------------------------------------------------------------------


def test_ingest_image_batch(wh):
    manifest = parse_image_manifest(
        [MANIFEST_HEADER, _manifest_row(), _manifest_row(name="b.jpg", date="2024-03-06")]
    )
    detections = {
        "a.txt": ["0 0.5 0.5 0.2 0.2 0.9", "1 0.1 0.1 0.05 0.05"],
        # b.jpg has no detection file
    }
    report = ingest_image_batch(wh, manifest, detections, ClassMap(["PSME", "TSHE"]))
    assert report.images_added == 2
    assert report.facts_added == 2
    assert report.errors == []
    assert len(wh.state.images) == 2
    facts = sorted(fact_rows(wh.state.facts).values(), key=lambda f: f.fact_id)
    # geo from the affine map: center (50, 40) -> (500 + 5, 200 - 4)
    assert (facts[0].geo_x, facts[0].geo_y) == (505.0, 196.0)
    assert wh.state.species_code_of(facts[1].species_key) == "TSHE"


def test_ingest_image_batch_skips_known_images(wh):
    manifest = parse_image_manifest([MANIFEST_HEADER, _manifest_row()])
    cmap = ClassMap(["PSME"])
    first = ingest_image_batch(wh, manifest, {"a.txt": ["0 0.5 0.5 0.1 0.1"]}, cmap)
    again = ingest_image_batch(wh, manifest, {"a.txt": ["0 0.5 0.5 0.1 0.1"]}, cmap)
    assert (first.images_added, first.facts_added) == (1, 1)
    assert (again.images_added, again.images_skipped, again.facts_added) == (0, 1, 0)
    assert len(wh.state.facts) == 1


def test_ingest_image_batch_bad_detection_file_keeps_image(wh):
    manifest = parse_image_manifest([MANIFEST_HEADER, _manifest_row()])
    report = ingest_image_batch(
        wh, manifest, {"a.txt": ["0 0.5 0.5 0.1 0.1", "junk line here"]}, ClassMap(["PSME"])
    )
    assert report.images_added == 1
    assert report.facts_added == 0
    assert len(report.errors) == 1 and "a.txt:2" in report.errors[0]
    assert len(wh.state.facts) == 0  # the good line did not sneak in


def test_ingest_image_batch_refuses_an_image_meta_whose_geotransform_overflows(tmp_path):
    # built in code, not parsed from a manifest; the frame's far corners map to infinity
    gt = Geotransform(0.0, 0.0, 1e308, 0.0, 0.0, -1e308)
    meta = make_image(file_name="a.jpg", geotransform=gt).meta
    root = tmp_path / "wh"
    with open_warehouse(root) as handle:
        with pytest.raises(InvalidMetadataError, match="frame corner to non-finite"):
            ingest_image_batch(handle, [meta], {"a.txt": ["0 0.5 0.5 0.1 0.1"]}, ClassMap(["PSME"]))
    with open_warehouse(root, "ro") as handle:
        assert (len(handle.state.images), len(handle.state.facts)) == (0, 0)


def test_ingest_image_batch_class_id_out_of_range(wh):
    manifest = parse_image_manifest([MANIFEST_HEADER, _manifest_row()])
    report = ingest_image_batch(wh, manifest, {"a.txt": ["5 0.5 0.5 0.1 0.1"]}, ClassMap(["PSME"]))
    assert report.facts_added == 0
    assert len(report.errors) == 1
    assert "class map" in report.errors[0]
