"""The shared artifact format: metadata-headed CSV tables, written atomically."""

import os
import stat
from pathlib import Path

import pytest

from prevmap.bym import PosteriorRow, read_posterior_csv, write_posterior_csv
from prevmap.cli import main
from prevmap.data_model import (
    IndividualRecord,
    SurveyTable,
    load_records,
    write_records_csv,
    write_table,
)
from prevmap.direct import NONE, DirectEstimate, read_direct_csv, write_direct_csv
from prevmap.errors import SchemaError
from prevmap.synthetic import read_truth_csv, write_truth_csv

DEMO_CFG = Path(__file__).resolve().parents[1] / "demo.cfg"

# ids that need CSV quoting, and floats that only repr/float() round-trip
ODD_IDS = ["R,1", 'R"2', "R 3"]
ODD_FLOATS = [float("nan"), float("inf"), float("-inf")]


def records_table():
    weights = [1e-300, 0.1, 5e300]
    return SurveyTable.from_records(
        IndividualRecord(rid, f"{rid}-c", w, k % 2, "u,1" if k else "")
        for k, (rid, w) in enumerate(zip(ODD_IDS, weights))
    )


def direct_rows():
    return [
        DirectEstimate(rid, 0.25, x, -x, x, 10 + k, 3, NONE)
        for k, (rid, x) in enumerate(zip(ODD_IDS, ODD_FLOATS))
    ]


def posterior_rows():
    return [
        PosteriorRow(rid, 0.2, 0.2, 0.01, x, -x, -1.4, 0.1, 0.21, x, 40 + k, "none", 1.01, x)
        for k, (rid, x) in enumerate(zip(ODD_IDS, ODD_FLOATS))
    ]


TABLES = {
    "records": (write_records_csv, load_records, records_table, lambda t: t),
    "direct": (write_direct_csv, read_direct_csv, direct_rows, repr),
    "posterior": (write_posterior_csv, read_posterior_csv, posterior_rows, repr),
    "truth": (write_truth_csv, read_truth_csv, lambda: dict(zip(ODD_IDS, ODD_FLOATS)),
              lambda d: repr(sorted(d.items()))),
}


@pytest.mark.parametrize("kind", sorted(TABLES))
def test_table_round_trip(tmp_path, kind):
    write, read, make, key = TABLES[kind]
    path = tmp_path / f"{kind}.csv"
    write(make(), path, {"seed": "1", "note": "a, b"})
    assert key(read(path)) == key(make())


@pytest.mark.parametrize("bad_row", ["R9\n", "R9,high\n", "R9,0.1,0.2\n"])
def test_malformed_truth_row_names_the_row(tmp_path, bad_row):
    path = tmp_path / "truth.csv"
    write_truth_csv({"R1": 0.1, "R2": 0.2}, path, {"seed": "1"})
    path.write_text(path.read_text() + bad_row)
    with pytest.raises(SchemaError, match=r"truth\.csv: row 3: "):
        read_truth_csv(path)


def test_interrupted_write_keeps_the_previous_file(tmp_path):
    path = tmp_path / "table.csv"
    schema = {"region_id": str, "value": float}
    write_table(path, schema, [["a", "b"], [1.0, 2.0]], {"seed": "1"})
    before = path.read_bytes()
    plain = tmp_path / "plain.txt"
    plain.write_text("x")
    assert stat.S_IMODE(path.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)
    plain.unlink()

    def ids():
        yield "c"
        yield "d"
        raise RuntimeError("interrupted")

    with pytest.raises(RuntimeError, match="interrupted"):
        write_table(path, schema, [ids(), [3.0, 4.0, 5.0]])
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["table.csv"]


def test_pipeline_leaves_only_the_listed_artifacts(tmp_path):
    out = tmp_path / "out"
    code = main(["pipeline", "--config", str(DEMO_CFG), "--traces", "--seed", "1",
                 "--chains", "2", "--iterations", "1500", "--burn-in", "500",
                 "--out", str(out)])
    assert code == 0
    assert sorted(os.listdir(out)) == [
        "boundaries.geojson", "direct.csv", "fig1_sample_size.svg", "fig2_smoothed_ci.svg",
        "fig3_country_zoom.svg", "fig4_comparison.svg", "graph.txt", "posterior.csv",
        "records.csv", "trace.csv", "truth.csv",
    ]
