"""The shared artifact format: metadata-headed CSV tables, written atomically."""

import csv
import io
import os
import stat
import struct
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import prevmap.data_model
from prevmap.bym import PosteriorRow, read_posterior_csv, write_posterior_csv
from prevmap.cli import main
from prevmap.data_model import (
    WRITE_CHUNK_ROWS,
    IndividualRecord,
    SurveyTable,
    load_records,
    read_table,
    write_records_csv,
    write_table,
)
from prevmap.direct import NONE, DirectEstimate, read_direct_csv, write_direct_csv
from prevmap.errors import SchemaError
from prevmap.synthetic import read_truth_csv, write_truth_csv

DEMO_CFG = Path(__file__).resolve().parents[1] / "demo.cfg"

# ids that need CSV quoting (a lone "\r" ends a line for the readers, and a
# line that starts with '#' is a comment), and floats that only
# repr/float() round-trip
ODD_IDS = ["R,1", 'R"2', "# 3", "R\r4"]
ODD_FLOATS = [float("nan"), float("inf"), float("-inf"), -0.0]


def records_table():
    weights = [1e-300, 0.1, 5e300, 2.5]
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


def test_write_under_a_file_raises_schema_error_naming_the_target(tmp_path):
    # the temp file's cleanup fails there too, and must not replace the error
    (tmp_path / "a_file").write_text("x")
    path = tmp_path / "a_file" / "table.csv"
    with pytest.raises(SchemaError) as err:
        write_table(path, {"region_id": str}, [["a"]])
    assert str(err.value) == f"cannot write {path}: Not a directory"


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


def csv_writer_text(rows, lineterminator):
    """``rows`` as ``csv.writer`` writes them, each ended by "\\n", with a
    first cell that starts a line with '#' quoted, as ``write_table`` does."""
    out = []
    for row in rows:
        buf = io.StringIO()
        csv.writer(buf, lineterminator=lineterminator).writerow(row)
        line = buf.getvalue().removesuffix(lineterminator)
        if line.startswith("#"):
            line = f'"{row[0]}"' + line[len(row[0]):]
        out.append(line + "\n")
    return "".join(out)


ID_TEXT = st.text(st.sampled_from([",", '"', "\n", "\r", " ", "#", "a", "Z", "7", "é", "中", "\u2028"]),
                  max_size=6) | st.text(max_size=4)
CELLS = {
    str: ID_TEXT,
    int: st.integers(-(2**63), 2**63 - 1),
    float: st.floats(width=64),
}


@settings(max_examples=150, deadline=None)
@given(case=st.data())
def test_write_table_writes_what_csv_writer_writes(tmp_path_factory, case):
    kinds = case.draw(st.lists(st.sampled_from([str, int, float]), min_size=2, max_size=4))
    names = case.draw(st.lists(ID_TEXT, min_size=len(kinds), max_size=len(kinds), unique=True))
    n_rows = case.draw(st.integers(0, 12))
    columns = [case.draw(st.lists(CELLS[kind], min_size=n_rows, max_size=n_rows)) for kind in kinds]
    chunk = case.draw(st.integers(1, 5))
    path = tmp_path_factory.mktemp("table") / "table.csv"
    with mock.patch.object(prevmap.data_model, "WRITE_CHUNK_ROWS", chunk):
        write_table(path, dict(zip(names, kinds)), columns, {"seed": "1"})
    rows = [names] + [
        [cell if kind is str else repr(cell) for kind, cell in zip(kinds, row)]
        for row in zip(*columns)
    ]
    text = path.read_bytes().decode()
    assert text.startswith("# seed: 1\n")
    body = text.removeprefix("# seed: 1\n")
    # "\r\n" ends a row, so csv.writer quotes a cell with "\r" on every
    # Python version; 3.11's writer leaves it bare under "\n"
    assert body == csv_writer_text(rows, "\r\n")
    if not any("\r" in cell for row in rows for cell in row):
        assert body == csv_writer_text(rows, "\n")


# a few values, each repeated many times: -0.0 beside 0.0, NaNs of two payloads
NAN_WITH_PAYLOAD = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000001))[0]
REPEATED_FLOATS = st.sampled_from(ODD_FLOATS + [0.0, 1.5, NAN_WITH_PAYLOAD])
ROW_COUNTS = (st.sampled_from([WRITE_CHUNK_ROWS, WRITE_CHUNK_ROWS + 1, 2 * WRITE_CHUNK_ROWS + 3])
              | st.integers(0, 40))


@settings(max_examples=60, deadline=None)
@given(
    floats=st.lists(REPEATED_FLOATS | st.floats(width=64), min_size=1, max_size=6),
    ints=st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=4),
    n_rows=ROW_COUNTS,
    seed=st.integers(0, 2**32 - 1),
    chunk=st.sampled_from([1, 7, WRITE_CHUNK_ROWS]),
)
def test_write_table_writes_each_number_as_its_repr(tmp_path_factory, floats, ints, n_rows, seed, chunk):
    # numbers are formatted once per distinct value; the bytes are a per-cell repr writer's
    rng = np.random.default_rng(seed)
    x = np.array(floats)[rng.integers(len(floats), size=n_rows)]
    n = np.array(ints, dtype=np.int64)[rng.integers(len(ints), size=n_rows)]
    ids = [f"R{k % 3}" for k in range(n_rows)]
    columns = [ids, x, n, x[::-1]]  # the last one a strided view
    path = tmp_path_factory.mktemp("numbers") / "table.csv"
    with mock.patch.object(prevmap.data_model, "WRITE_CHUNK_ROWS", chunk):
        write_table(path, {"region_id": str, "x": float, "n": int, "y": float}, columns)
    rows = zip(ids, x.tolist(), n.tolist(), x[::-1].tolist())
    want = "region_id,x,n,y\n" + "".join(f"{i},{a!r},{b!r},{c!r}\n" for i, a, b, c in rows)
    assert path.read_bytes().decode() == want


# ids that start with '#', blank ones, and line breaks, blank lines and '#'
# lines inside quoted cells
MULTILINE_ID = st.lists(
    st.sampled_from(["a", "#", " ", "\t", "\u3000", ",", '"', "\n", "\n\n", "\n#", "\r\n", "\r",
                     "\n \n"]),
    max_size=6,
).map("".join)


@settings(max_examples=150, deadline=None)
@given(ids=st.lists(MULTILINE_ID, max_size=5), values=st.lists(st.floats(allow_nan=False), max_size=5),
       one_column=st.booleans())
@example(ids=["#1", "", " ", "# 2"], values=[], one_column=True)
@example(ids=["#1", "", " ", "# 2"], values=[], one_column=False)
def test_read_table_reads_back_what_write_table_wrote(tmp_path_factory, ids, values, one_column):
    # a one-column table's row is a blank line when its cell is blank; the
    # column is not region_id, whose values read_table requires to be unique
    values = (values + [0.5] * len(ids))[: len(ids)]
    schema = {"id": str} if one_column else {"id": str, "value": float}
    path = tmp_path_factory.mktemp("multiline") / "table.csv"
    write_table(path, schema, [ids, values], {"seed": "1"})
    assert read_table(path, schema) == [dict(zip(schema, row)) for row in zip(ids, values)]
