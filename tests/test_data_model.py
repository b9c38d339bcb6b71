import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import boundary, geojson_feature, record, square
from prevmap import data_model
from prevmap.data_model import (
    IndividualRecord,
    RegionBoundary,
    SurveyDataset,
    SurveyTable,
    drop_unlinked,
    first_appearance,
    load_boundaries,
    load_records,
    validate_dataset,
    write_boundaries_geojson,
    write_records_csv,
)
from prevmap.errors import (
    ConsistencyError,
    EmptyDatasetError,
    GeometryError,
    RecordValidationError,
    SchemaError,
)
from prevmap.graph import AdjacencyGraph, export_graph, load_graph
from prevmap.synthetic import load_scenario


def write_csv(tmp_path, text, name="records.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadRecords:
    def test_four_valid_rows(self, tmp_path):
        path = write_csv(
            tmp_path,
            "region_id,cluster_id,weight,outcome\n"
            "R1,c1,1.0,1\nR1,c1,2.0,0\nR2,c2,0.5,1\nR2,c3,1.5,0\n",
        )
        records = load_records(path)
        assert len(records) == 4
        assert records == SurveyTable.from_records([
            IndividualRecord("R1", "c1", 1.0, 1),
            IndividualRecord("R1", "c1", 2.0, 0),
            IndividualRecord("R2", "c2", 0.5, 1),
            IndividualRecord("R2", "c3", 1.5, 0),
        ])

    def test_zero_weight_names_row(self, tmp_path):
        path = write_csv(
            tmp_path,
            "region_id,cluster_id,weight,outcome\nR1,c1,1.0,1\nR1,c1,0,0\n",
        )
        with pytest.raises(RecordValidationError, match="row 2"):
            load_records(path)

    def test_bad_outcome_names_row(self, tmp_path):
        path = write_csv(
            tmp_path, "region_id,cluster_id,weight,outcome\nR1,c1,1.0,2\n"
        )
        with pytest.raises(RecordValidationError, match="row 1"):
            load_records(path)

    def test_cluster_in_two_regions_names_cluster(self, tmp_path):
        path = write_csv(
            tmp_path,
            "region_id,cluster_id,weight,outcome\nR1,C7,1.0,1\nR2,C7,1.0,0\n",
        )
        with pytest.raises(ConsistencyError, match="C7"):
            load_records(path)

    def test_missing_column_names_it(self, tmp_path):
        path = write_csv(tmp_path, "region_id,cluster_id,outcome\nR1,c1,1\n")
        with pytest.raises(SchemaError, match="weight"):
            load_records(path)

    def test_schema_map_renames_columns(self, tmp_path):
        path = write_csv(
            tmp_path, "area,psu,hh_weight,result\nR1,c1,1.25,1\n"
        )
        records = load_records(
            path,
            schema={
                "region_id": "area",
                "cluster_id": "psu",
                "weight": "hh_weight",
                "outcome": "result",
            },
        )
        assert records == SurveyTable.from_records([IndividualRecord("R1", "c1", 1.25, 1)])

    def test_extra_columns_and_comments_ignored(self, tmp_path):
        path = write_csv(
            tmp_path,
            "# provenance: test\nregion_id,cluster_id,weight,outcome,age\nR1,c1,1.0,0,33\n",
        )
        assert len(load_records(path)) == 1

    def test_stratum_column_picked_up(self, tmp_path):
        path = write_csv(
            tmp_path,
            "region_id,cluster_id,weight,outcome,stratum\nR1,c1,1.0,0,urban\n",
        )
        assert load_records(path).column("stratum").tolist() == ["urban"]

    def test_missing_file(self, tmp_path):
        with pytest.raises(SchemaError, match="not found"):
            load_records(tmp_path / "nope.csv")

    @pytest.mark.parametrize("cluster", ["c1", '"c,1"'], ids=["unquoted", "quoted"])
    @pytest.mark.parametrize("line_end", ["\n", "\r\n"])
    def test_byte_order_mark_skipped(self, tmp_path, cluster, line_end):
        # spreadsheet "CSV UTF-8" exports start with EF BB BF
        text = line_end.join([
            "region_id,cluster_id,weight,outcome",
            f"R1,{cluster},1.0,1", f"Ré,{cluster.replace('1', '2')},2.0,0", "",
        ])
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(text.encode())
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert len(load_records(plain)) == 2
        assert load_records(marked) == load_records(plain)
        twice = tmp_path / "twice.csv"
        twice.write_bytes(b"\xef\xbb\xbf" + marked.read_bytes())  # only one is skipped
        with pytest.raises(SchemaError, match="missing column 'region_id'"):
            load_records(twice)

    @pytest.mark.parametrize(
        "cluster", ["c1", '"c1"', '"c""1"'], ids=["unquoted", "quoted", "escaped_quote"]
    )
    def test_crlf_line_end_is_not_part_of_the_last_field(self, tmp_path, cluster):
        path = tmp_path / "records.csv"
        path.write_bytes(f"region_id,cluster_id,weight,outcome\r\nR1,{cluster},1,2\r\n".encode())
        with pytest.raises(RecordValidationError) as err:
            load_records(path)
        assert str(err.value) == "row 1: outcome must be 0 or 1, got '2'"

    @pytest.mark.parametrize("chunk", [1, 2, 1 << 16])
    def test_quoted_fields_read_as_the_csv_reader_reads_them(self, tmp_path, monkeypatch, chunk):
        # R's write.csv quotes every string; a quoted field may hold a
        # doubled quote or a comma, and a comment line may hold quotes. Rows
        # are counted from the start whatever the chunk size. Ids are coded
        # in order of first appearance.
        monkeypatch.setattr(data_model, "LOAD_CHUNK_ROWS", chunk)
        path = write_csv(tmp_path, (
            '"region_id","cluster_id","weight","outcome"\n'
            '# a "comment"\n'
            '"R2"," c9 ",1.5,1\n'
            '"R1","",2,0\n'
            '"R2","c""3""",3,1\n'
            '"R1","c,2",1,0\n'
        ))
        table = load_records(path)
        assert table.region_ids == ("R2", "R1")
        assert table.cluster_ids == ("c9", "", 'c"3"', "c,2")
        assert list(table.column("cluster_id")) == ["c9", "", 'c"3"', "c,2"]
        assert table.weight.tolist() == [1.5, 2.0, 3.0, 1.0]
        with open(path, "a") as fh:
            fh.write('"R2","c4",1,"2"\n')
        with pytest.raises(RecordValidationError) as err:
            load_records(path)
        assert str(err.value) == "row 5: outcome must be 0 or 1, got '2'"

    def test_first_appearance_codes_bytes_fields(self):
        fields = np.array([b"zone-b", b"zone-a", b"zone-b", b"long-zone-c", b"zone-a"])
        codes, first = first_appearance(fields)
        assert codes.tolist() == [0, 1, 0, 2, 1]
        assert first.tolist() == [0, 1, 3]

    @pytest.mark.parametrize("chunk", [1, 2, 3, 1 << 16])
    def test_ids_coded_by_first_appearance_across_chunks(self, tmp_path, monkeypatch, chunk):
        # ids that differ only in surrounding whitespace share one code,
        # whichever chunk each appears in; ids span one and two 8-byte words
        monkeypatch.setattr(data_model, "LOAD_CHUNK_ROWS", chunk)
        path = write_csv(tmp_path, (
            "region_id,cluster_id,weight,outcome\n"
            "North-Zone-3,c1,1,0\n"
            " R1,c2,1,1\n"
            "North-Zone-3 ,c1 ,1,0\n"
            "North-Zone-1,cluster-0003,1,1\n"
            "R1,c2 ,1,0\n"
            "R1,c2,1,0\n"
            "  North-Zone-1  , cluster-0003,1,1\n"
            "R1 ,c4,1,0\n"
        ))
        table = load_records(path)
        assert table.region_ids == ("North-Zone-3", "R1", "North-Zone-1")
        assert table.region.tolist() == [0, 1, 0, 2, 1, 1, 2, 1]
        assert table.cluster_ids == ("c1", "c2", "cluster-0003", "c4")
        assert table.cluster.tolist() == [0, 1, 0, 2, 1, 1, 2, 3]

    def test_not_utf8_names_the_byte(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_bytes(b"region_id,cluster_id,weight,outcome\nZamb\xe9zia,c1,1,0\n")
        with pytest.raises(SchemaError) as err:
            load_records(path)
        assert str(err.value) == f"{path}: not UTF-8 text (byte 41)"


class TestLoadBoundaries:
    def test_two_unit_squares(self, two_squares):
        boundaries = load_boundaries(two_squares)
        assert [b.region_id for b in boundaries] == ["R1", "R2"]
        assert boundaries[0].country == "A"

    def test_duplicate_region_id(self, tmp_path):
        doc = {
            "type": "FeatureCollection",
            "features": [
                geojson_feature("R1", [square(0, 0)]),
                geojson_feature("R1", [square(2, 0)]),
            ],
        }
        path = tmp_path / "dup.geojson"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConsistencyError, match="R1"):
            load_boundaries(path)

    def test_linestring_rejected(self, tmp_path):
        doc = {
            "type": "FeatureCollection",
            "features": [
                {
                    "type": "Feature",
                    "properties": {"region_id": "L1"},
                    "geometry": {"type": "LineString", "coordinates": [[0, 0], [1, 1]]},
                }
            ],
        }
        path = tmp_path / "line.geojson"
        path.write_text(json.dumps(doc))
        with pytest.raises(GeometryError, match="unsupported geometry"):
            load_boundaries(path)

    def test_unclosed_ring_rejected(self, tmp_path):
        open_ring = [[0, 0], [1, 0], [1, 1], [0, 1]]
        doc = {
            "type": "FeatureCollection",
            "features": [geojson_feature("R1", [open_ring])],
        }
        path = tmp_path / "open.geojson"
        path.write_text(json.dumps(doc))
        with pytest.raises(GeometryError, match="R1"):
            load_boundaries(path)

    def test_short_ring_rejected(self, tmp_path):
        tri = [[0, 0], [1, 0], [0, 0]]
        doc = {"type": "FeatureCollection", "features": [geojson_feature("R1", [tri])]}
        path = tmp_path / "short.geojson"
        path.write_text(json.dumps(doc))
        with pytest.raises(GeometryError, match="points"):
            load_boundaries(path)

    def test_multipolygon_accepted(self, tmp_path):
        doc = {
            "type": "FeatureCollection",
            "features": [
                geojson_feature(
                    "R1", [[list(p) for p in square(0, 0)], [list(p) for p in square(3, 3)]],
                    gtype="MultiPolygon",
                )
            ],
        }
        # MultiPolygon coordinates are [poly][ring][pt]; rewrap accordingly
        doc["features"][0]["geometry"]["coordinates"] = [
            [[list(p) for p in square(0, 0)]],
            [[list(p) for p in square(3, 3)]],
        ]
        path = tmp_path / "multi.geojson"
        path.write_text(json.dumps(doc))
        bs = load_boundaries(path)
        assert len(bs) == 1 and len(bs[0].geometry) == 2


    @pytest.mark.parametrize(
        "ring",
        [
            [[0, 0], [1, 0], [1, 1], [0, 0]],
            [[0.5, 0.25, 9.0], [1, 0, 9], [1, 1, 9], [0.5, 0.25, 9]],
            [[0, 0, "z"], [1, 0], [1, 1, None, 4], [0, 0]],
            [["0.5", "1e1"], [1, 0], [1, 1], [" 0.5 ", "1_0"]],
            [[True, 0], [1, 0], [1, 1], [True, 0]],
            [[0, None], [1, 0], [1, 1], [0, None]],
            [[0], [1, 0], [1, 1], [0]],
            [[0, "x"], [1, 0], [1, 1], [0, "x"]],
            [[0, [1]], [1, 0], [1, 1], [0, [1]]],
            [[0, 10**400], [1, 0], [1, 1], [0, 10**400]],
        ],
        ids=["ints", "third_coordinate", "mixed_widths", "strings", "bools", "null",
             "one_coordinate", "text", "nested", "huge_int"],
    )
    def test_ring_coordinates_convert_as_float_does(self, tmp_path, ring):
        try:
            expected = np.array([(float(x), float(y)) for x, y, *_ in ring])
        except (TypeError, ValueError, OverflowError) as exc:
            expected = f"feature 'R1': bad ring coordinates ({exc})"
        doc = {"type": "FeatureCollection", "features": [geojson_feature("R1", [ring])]}
        path = tmp_path / "ring.geojson"
        path.write_text(json.dumps(doc))
        if isinstance(expected, str):
            with pytest.raises(GeometryError) as info:
                load_boundaries(path)
            assert str(info.value) == expected
        else:
            (loaded,), = load_boundaries(path)[0].geometry
            assert np.array_equal(loaded, expected)

    @pytest.mark.parametrize("literal", ["NaN", "-Infinity", '"nan"', '"inf"'])
    def test_non_finite_coordinate_rejected(self, tmp_path, literal):
        doc = {"type": "FeatureCollection",
               "features": [geojson_feature("R1", [square(0, 0)]),
                            geojson_feature("R2", [square(1, 0)])]}
        text = json.dumps(doc).replace("[2.0, 1.0]", f"[2.0, {literal}]")
        assert literal in text
        path = tmp_path / "nan.geojson"
        path.write_text(text)
        with pytest.raises(GeometryError, match="region 'R2': ring has a non-finite coordinate"):
            load_boundaries(path)

    def test_numeric_region_ids_load_as_text_and_link(self, tmp_path):
        # 0 used to read as a missing id, while 1 and 2 loaded
        doc = {"type": "FeatureCollection",
               "features": [geojson_feature(k, [square(k, 0)]) for k in range(3)]}
        path = tmp_path / "numbers.geojson"
        path.write_text(json.dumps(doc))
        boundaries = load_boundaries(path)
        assert [b.region_id for b in boundaries] == ["0", "1", "2"]
        records = write_csv(tmp_path, "region_id,cluster_id,weight,outcome\n"
                            "0,c0,1.0,0\n1,c1,1.0,1\n2,c2,1.0,0\n")
        dataset, report = drop_unlinked(load_records(records), boundaries)
        assert report.n_dropped == 0 and dataset.region_ids() == ["0", "1", "2"]
        for region_id in (None, "", "missing"):  # these are still no id
            feature = geojson_feature(region_id, [square(0, 0)])
            if region_id == "missing":
                del feature["properties"]["region_id"]
            path.write_text(json.dumps({"type": "FeatureCollection", "features": [feature]}))
            with pytest.raises(SchemaError, match="feature 0 without properties.region_id"):
                load_boundaries(path)


SCENARIO_TEXT = (
    "rows = 1\ncols = 2\ngroup_breaks =\nbase_logit = -2\nspatial_sd = 0\n"
    "clusters_per_region = 6\nhouseholds_per_cluster = 4\nweight_dispersion = 1.0\nseed = 1\n"
)


@pytest.mark.parametrize("kind", ["scenario", "geojson", "graph"])
def test_byte_order_mark_skipped_in_every_input(tmp_path, kind):
    # CSV inputs skipped one already; JSON, graph and scenario files used to reject it
    plain = tmp_path / f"plain.{kind}"
    if kind == "scenario":
        plain.write_text("# Zambézia\n" + SCENARIO_TEXT, encoding="utf-8")
        load = load_scenario
    elif kind == "geojson":
        regions = [boundary("Zambézia", square(0, 0)), boundary("Niassa", square(1, 0))]
        write_boundaries_geojson(regions, plain, {"seed": "1"})
        load = load_boundaries
    else:
        graph = AdjacencyGraph.from_edges(["Zambézia", "Niassa"], [("Niassa", "Zambézia")])
        export_graph(graph, plain, {"seed": "1"})
        load = load_graph
    marked = tmp_path / f"marked.{kind}"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert load(marked) == load(plain)


class TestRegionBoundary:
    def test_rings_are_read_only_float_arrays(self):
        corners = np.array(square(0, 0))
        b = boundary("R1", corners)
        ((ring,),) = b.geometry
        assert ring.dtype == np.float64 and ring.shape == (5, 2) and ring.flags.c_contiguous
        with pytest.raises(ValueError, match="read-only"):
            ring[0, 0] = 9.0
        corners[0, 0] = 9.0  # the caller's array is copied, not shared
        assert ring[0, 0] == 0.0

    def test_equality_compares_rings_exactly(self):
        b = boundary("R1", square(0, 0), "A")
        assert b == boundary("R1", np.array(square(0, 0)), "A")
        assert b != boundary("R1", square(0, 1e-12), "A")
        assert b != boundary("R2", square(0, 0), "A")
        assert b != boundary("R1", square(0, 0), "B")
        assert b != RegionBoundary("R1", ((square(0, 0), square(0, 0)),), "A")
        assert b != RegionBoundary("R1", ((square(0, 0),), (square(0, 0),)), "A")

    @pytest.mark.parametrize(
        "ring, message",
        [
            (((0, 0, 0), (1, 0, 0)), r"\(x, y\) pairs"),
            (((0, 0), (1,)), "bad ring coordinates"),
            (((0, 0), (1, float("inf"))), "non-finite"),
        ],
    )
    def test_bad_ring_rejected_on_construction(self, ring, message):
        with pytest.raises(GeometryError, match=f"region 'R1': .*{message}"):
            boundary("R1", ring)


class TestDropUnlinked:
    def test_one_unlinked_dropped(self):
        boundaries = [boundary("R1", square(0, 0)), boundary("R2", square(1, 0))]
        records = [record("R1", f"R1-c{i}") for i in range(5)]
        records += [record("R2", f"R2-c{i}") for i in range(4)]
        records += [record("R9", "R9-c0")]
        dataset, report = drop_unlinked(SurveyTable.from_records(records), boundaries)
        assert len(dataset.records) == 9
        assert report.n_dropped == 1
        assert report.retained_fraction == pytest.approx(0.9)

    def test_no_unlinked_identity(self):
        boundaries = [boundary("R1", square(0, 0)), boundary("R2", square(1, 0))]
        records = SurveyTable.from_records([record("R1"), record("R2", "R2-c0")])
        dataset, report = drop_unlinked(records, boundaries)
        assert dataset.records == records
        assert report.retained_fraction == 1.0

    def test_all_unlinked_is_error(self):
        boundaries = [boundary("R1", square(0, 0))]
        with pytest.raises(EmptyDatasetError):
            drop_unlinked(SurveyTable.from_records([record("R9", "c")]), boundaries)

    def test_idempotent(self):
        boundaries = [boundary("R1", square(0, 0)), boundary("R2", square(1, 0))]
        records = [record("R1"), record("R2", "R2-c0"), record("R3", "R3-c0")]
        once, _ = drop_unlinked(SurveyTable.from_records(records), boundaries)
        twice, report = drop_unlinked(once.records, once.regions)
        assert twice.records == once.records
        assert twice.regions == once.regions
        assert report.n_dropped == 0

    def test_empty_regions_pruned(self):
        boundaries = [
            boundary("R1", square(0, 0)),
            boundary("R2", square(1, 0)),
            boundary("R3", square(2, 0)),
        ]
        records = [record("R1"), record("R2", "R2-c0")]
        dataset, _ = drop_unlinked(SurveyTable.from_records(records), boundaries)
        assert dataset.region_ids() == ["R1", "R2"]


class TestValidateDataset:
    def test_valid(self):
        ds = SurveyDataset(
            records=SurveyTable.from_records([record("R1"), record("R2", "R2-c0")]),
            regions=[boundary("R1", square(0, 0)), boundary("R2", square(1, 0))],
        )
        validate_dataset(ds)

    def test_region_without_record(self):
        ds = SurveyDataset(
            records=SurveyTable.from_records([record("R1")]),
            regions=[boundary("R1", square(0, 0)), boundary("R2", square(1, 0))],
        )
        with pytest.raises(EmptyDatasetError, match="R2"):
            validate_dataset(ds)

    def test_single_region_rejected(self):
        ds = SurveyDataset(
            records=SurveyTable.from_records([record("R1")]),
            regions=[boundary("R1", square(0, 0))],
        )
        with pytest.raises(EmptyDatasetError, match="2 regions"):
            validate_dataset(ds)

    def test_cluster_consistency_checked(self):
        ds = SurveyDataset(
            records=SurveyTable.from_records([record("R1", "shared"), record("R2", "shared")]),
            regions=[boundary("R1", square(0, 0)), boundary("R2", square(1, 0))],
        )
        with pytest.raises(ConsistencyError, match="shared"):
            validate_dataset(ds)


class TestRoundTrip:
    def test_records_round_trip(self, tmp_path):
        records = SurveyTable.from_records([
            IndividualRecord("R1", "c1", 1.2345678901234, 1),
            IndividualRecord("R1", "c1", 0.1, 0),
            IndividualRecord("R2", "c2", 7.0, 1, "urban"),
        ])
        path = tmp_path / "rt.csv"
        write_records_csv(records, path, metadata={"seed": "1"})
        assert load_records(path) == records

    def test_boundaries_round_trip(self, tmp_path):
        boundaries = [
            boundary("R1", square(0, 0), "A"),
            boundary("R2", square(1.5, -2.25), "B"),
        ]
        path = tmp_path / "rt.geojson"
        write_boundaries_geojson(boundaries, path, metadata={"seed": "1"})
        assert load_boundaries(path) == boundaries

    @settings(max_examples=30, deadline=None)
    @given(
        weights=st.lists(
            st.floats(min_value=1e-6, max_value=1e6, allow_nan=False), min_size=1, max_size=8
        ),
        outcomes=st.lists(st.integers(min_value=0, max_value=1), min_size=8, max_size=8),
    )
    def test_record_round_trip_property(self, tmp_path_factory, weights, outcomes):
        records = SurveyTable.from_records(
            IndividualRecord("R1", "c1", w, o) for w, o in zip(weights, outcomes)
        )
        path = tmp_path_factory.mktemp("rt") / "records.csv"
        write_records_csv(records, path)
        assert load_records(path) == records
