"""Property tests: the columnar record path against a record-by-record reference.

Random record files (strata, comment and blank lines, every field quoted,
quoted ids holding commas, quotes or line breaks, padded fields, non-ASCII
ids and padding, numerals that only Python's ``float`` reads, CRLF line
ends, extra columns, a renaming schema) go through
``load_records`` -> ``drop_unlinked`` -> ``estimate_all``. A plain-Python
reference below reads the same file one row at a time and must agree on the
estimates, or on the exception type and the row it names.

A mutation test then damages a valid records file (truncation, a dropped
column, injected text, permuted rows, a stray quote, a quote that breaks
the quoting rules, a NUL) and runs ``prevmap direct`` on it: the command
must succeed or exit 2 with a message. Round trips through
``write_records_csv`` and explicit cases pin the quoting rules and the row
and byte each error names.

Decimal fields read a machine word at a time must have ``float``'s bits,
id grouping by words must match an ``np.unique`` reference, and a
row-shuffled file must load as ``SurveyTable.from_records`` builds its rows.
Ragged rows whose field counts cancel, and a quoted file whose one doubled
quote sits in a later chunk, must load as the reference reads them.
"""

import contextlib
import csv
import io
import math
import re
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import boundary, square
from prevmap import cli, data_model
from prevmap.data_model import (
    IndividualRecord,
    SurveyTable,
    drop_unlinked,
    load_records,
    read_table,
    write_records_csv,
)
from prevmap.direct import estimate_all
from prevmap.errors import ConsistencyError, PrevmapError, RecordValidationError, SchemaError

CANONICAL = ("region_id", "cluster_id", "weight", "outcome", "stratum")
KNOWN_REGIONS = ("R1", "R2", "R3", "R,4", "Zambézia")
UNLINKED_REGIONS = ("Z9", "Z,8")
BAD_ROWS = [None, "weight_text", "weight_nan", "outcome_2", "weight_0", "weight_inf",
            "two_regions", "short"]


# ---------------------------------------------------------------------------
# Reference: one row at a time, plain Python
# ---------------------------------------------------------------------------


class RefError(Exception):
    def __init__(self, kind, row):
        super().__init__(f"{kind.__name__} at row {row}")
        self.kind, self.row = kind, row


def ref_rows(text):
    """The strict csv reader's rows of ``text``; a '#' line or a blank line is
    skipped only where a row starts, not inside a quoted cell."""
    at_start = True

    def lines():
        nonlocal at_start
        for line in io.StringIO(text, newline=""):
            if not (at_start and (line.startswith("#") or line.isspace())):
                at_start = False
                yield line

    for row in csv.reader(lines(), strict=True):
        yield row
        at_start = True


def ref_load(text, schema):
    """(region, cluster, stratum, weight, outcome) per data row, or RefError."""
    reader = ref_rows(text)
    header = [h.strip() for h in next(reader)]
    idx = {c: header.index(schema.get(c, c)) for c in CANONICAL if schema.get(c, c) in header}
    rows, home = [], {}
    for row_no, row in enumerate(reader, start=1):
        try:
            region = row[idx["region_id"]].strip()
            cluster = row[idx["cluster_id"]].strip()
            weight = float(row[idx["weight"]])
            outcome = float(row[idx["outcome"]])
            stratum = row[idx["stratum"]].strip() if "stratum" in idx else ""
        except (IndexError, ValueError):
            raise RefError(RecordValidationError, row_no) from None
        if outcome not in (0.0, 1.0):
            raise RefError(RecordValidationError, row_no)
        if not (math.isfinite(weight) and weight > 0):
            raise RefError(RecordValidationError, row_no)
        if home.setdefault(cluster, region) != region:
            raise RefError(ConsistencyError, row_no)
        rows.append((region, cluster, stratum, weight, int(outcome)))
    return rows


def ref_estimate(rows):
    """(n, m_clusters, flag, p_hat, var_p) of one region's rows."""
    num = sum(w * y for _, _, _, w, y in rows)
    den = sum(w for _, _, _, w, _ in rows)
    p_hat = num / den
    m_clusters = len({c for _, c, _, _, _ in rows})
    strata = {}
    for _, c, s, w, y in rows:
        clusters = strata.setdefault(s, {})
        clusters[c] = clusters.get(c, 0.0) + w * (y - p_hat)
    acc = 0.0
    for clusters in strata.values():
        m = len(clusters)
        acc = math.nan if m < 2 else acc + m / (m - 1) * sum(z * z for z in clusters.values())
    var_p = acc / den**2
    if p_hat == 0.0:
        flag = "all_zero"
    elif p_hat == 1.0:
        flag = "all_one"
    elif m_clusters < 2 or math.isnan(var_p):
        flag = "single_cluster"
    elif math.sqrt(acc) <= (len(rows) + 1) * (1 + 1 / (1 - p_hat)) * sys.float_info.epsilon * sum(
        w * abs(y - p_hat) for _, _, _, w, y in rows
    ):  # zero up to the rounding of its sums
        flag = "zero_variance"
    else:
        flag = "none"
    if m_clusters < 2 or math.isnan(var_p):
        var_p = math.nan
    return len(rows), m_clusters, flag, p_hat, var_p


# ---------------------------------------------------------------------------
# Random files
# ---------------------------------------------------------------------------

padding = st.sampled_from(["", " ", "  ", "\u3000", "\xa0"])


@st.composite
def survey_files(draw, quoting=st.booleans(), bad_rows=st.sampled_from(BAD_ROWS)):
    has_stratum = draw(st.booleans())
    extra = draw(st.lists(st.sampled_from(["age", "note", "hh"]), unique=True, max_size=2))
    columns = list(CANONICAL[: 5 if has_stratum else 4]) + extra
    columns = draw(st.permutations(columns))
    renames = {"region_id": "area", "cluster_id": "psu", "weight": "hh_weight",
               "outcome": "result", "stratum": "strat"}
    schema = {c: renames[c] for c in CANONICAL if draw(st.booleans())}
    # quoted fields may hold commas, doubled quotes and line breaks, and may
    # run on past a chunk's last line
    quoted = draw(quoting)
    quote_style = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL])) if quoted else None
    # a suffix longer than LOAD_FIELD_BYTES makes the id too wide for a fixed-width array
    plain = ["", "-" + "w" * 300]
    suffixes = draw(st.sampled_from([["", ",x", ' "q"', "\nline"], plain])) if quoted else plain
    regions = KNOWN_REGIONS + (UNLINKED_REGIONS if draw(st.booleans()) else ())
    regions = [rid for rid in regions if quoted or "," not in rid]

    records = []
    for region in regions:
        for j in range(draw(st.integers(1, 4))):
            cluster = f"{region}-c{j}" + draw(st.sampled_from(suffixes))
            stratum = draw(st.sampled_from(["urban", "rural", ""])) if has_stratum else ""
            for _ in range(draw(st.integers(1, 4))):
                if has_stratum and draw(st.integers(0, 5)) == 0:  # a cluster across strata
                    stratum = draw(st.sampled_from(["urban", "rural"]))
                weight = draw(st.sampled_from(
                    ["1", "0.5", "2.25", "1e-3", "7", "0.1", "1_0", " 2.5e-1 ", "\u0663"]
                ))
                outcome = draw(st.sampled_from(["0", "1", "1.0", "\u0661"]))
                records.append([region, cluster, weight, outcome, stratum])
    records = draw(st.permutations(records))

    bad = draw(bad_rows)
    if bad is not None:
        k = draw(st.integers(0, len(records) - 1))
        fields = list(records[k])
        if bad == "weight_text":
            fields[2] = "heavy"
        elif bad == "weight_nan":
            fields[2] = "nan"
        elif bad == "outcome_2":
            fields[3] = "2"
        elif bad == "weight_0":
            fields[2] = "0"
        elif bad == "weight_inf":
            fields[2] = "inf"
        elif bad == "two_regions":
            other = draw(st.sampled_from([r for r in records if r[0] != fields[0]]))
            fields[1] = other[1]
        records[k] = fields if bad != "short" else fields[:1]

    eol = draw(st.sampled_from(["\n", "\r\n"]))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator=eol, quoting=quote_style or csv.QUOTE_MINIMAL)
    buf.write(f"# survey: synthetic{eol}{eol}")
    writer.writerow([f" {schema.get(c, c)} " if draw(st.booleans()) else schema.get(c, c)
                     for c in columns])
    for fields in records:
        if draw(st.integers(0, 9)) == 0:
            buf.write(draw(st.sampled_from(["# note, mid-file", "", "   ", "\u3000"])) + eol)
        named = dict(zip(CANONICAL, fields))
        if len(fields) == 1:
            writer.writerow(fields)
            continue
        writer.writerow([draw(padding) + named.get(c, "33") + draw(padding) for c in columns])
    return buf.getvalue(), schema


def row_of(exc):
    return int(re.search(r"\brow (\d+)", str(exc)).group(1))


@settings(max_examples=150, deadline=None)
@given(survey=survey_files(), chunk=st.sampled_from([1, 2, 5, data_model.LOAD_CHUNK_ROWS]))
def test_columnar_path_matches_row_reference(tmp_path_factory, survey, chunk):
    text, schema = survey
    path = tmp_path_factory.mktemp("prop") / "records.csv"
    path.write_bytes(text.encode())
    boundaries = [boundary(rid, square(k, 0)) for k, rid in enumerate(KNOWN_REGIONS)]
    try:
        rows = ref_load(text, schema)
    except RefError as ref:
        with mock.patch.object(data_model, "LOAD_CHUNK_ROWS", chunk):
            with pytest.raises(ref.kind) as err:
                load_records(path, schema=schema)
        assert row_of(err.value) == ref.row, (str(err.value), ref.row)
        return

    with mock.patch.object(data_model, "LOAD_CHUNK_ROWS", chunk):
        table = load_records(path, schema=schema)
    dataset, report = drop_unlinked(table, boundaries)
    linked = [r for r in rows if r[0] in KNOWN_REGIONS]
    assert len(table) == len(rows)
    assert report.n_dropped == len(rows) - len(linked)
    estimates = estimate_all(dataset)
    assert [e.region_id for e in estimates] == sorted({r[0] for r in linked})
    assert len(estimates) >= 3
    for e in estimates:
        n, m, flag, p_hat, var_p = ref_estimate([r for r in linked if r[0] == e.region_id])
        assert (e.n, e.m_clusters, e.degenerate) == (n, m, flag)
        assert e.p_hat == pytest.approx(p_hat, rel=1e-12, abs=0.0)
        if math.isnan(var_p):
            assert math.isnan(e.var_p)
        else:
            assert e.var_p == pytest.approx(var_p, rel=1e-12, abs=0.0)


@settings(max_examples=60, deadline=None)
@given(
    survey=survey_files(quoting=st.just(False), bad_rows=st.sampled_from(BAD_ROWS[:-1])),
    chunk=st.sampled_from([1, 2, 5, data_model.LOAD_CHUNK_ROWS]),
)
def test_unquoted_file_is_split_from_bytes(tmp_path_factory, survey, chunk):
    # quotes that enclose whole fields, and a comment holding quotes, leave
    # the table as it is
    text, schema = survey
    path = tmp_path_factory.mktemp("bytes") / "records.csv"

    def load(content):
        path.write_bytes(content.encode())
        lines = mock.patch.object(data_model, "data_lines", wraps=data_model.data_lines)
        with mock.patch.object(data_model, "LOAD_CHUNK_ROWS", chunk), lines as split:
            try:
                table = load_records(path, schema=schema)
            except PrevmapError as exc:
                table = str(exc)
        assert not split.called
        return table

    assert '"' not in text
    table = load(text)
    assert load(text + '# "quoted"\n') == table
    every_field_quoted = "".join(
        line if line.startswith("#") or line.isspace()
        else ",".join(f'"{field}"' for field in line.rstrip("\r\n").split(","))
        + line[len(line.rstrip("\r\n")):]
        for line in io.StringIO(text, newline="")
    )
    assert load(every_field_quoted) == table


@pytest.fixture(scope="module")
def direct_inputs(tmp_path_factory):
    """A valid records file and its boundaries from ``prevmap simulate``."""
    out = tmp_path_factory.mktemp("direct_inputs")
    config = out / "scenario.cfg"
    config.write_text(
        "rows = 2\ncols = 3\ngroup_breaks = 1\nbase_logit = -1.2\nspatial_sd = 0.4\n"
        "clusters_per_region = 2:4\nhouseholds_per_cluster = 5\nweight_dispersion = 1.5\n"
        "seed = 5\n"
    )
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    return (out / "records.csv").read_bytes(), out / "boundaries.geojson"


@st.composite
def damaged_records(draw, data):
    """``data`` with one of: a truncation, a dropped column, injected text, permuted rows,
    a stray quote, a quote inside an unquoted field (``a"b``, `` "a"``), text after a
    closing quote (``"ab"c``), a quote still open at the end, a NUL."""
    kind = draw(st.sampled_from(["truncate", "drop_column", "inject", "permute", "quote",
                                 "inner_quote", "padded_quote", "after_close", "open_at_end",
                                 "nul"]))
    lines = data.splitlines(keepends=True)
    body = [k for k, line in enumerate(lines) if not line.startswith(b"#")]
    if kind == "truncate":
        return data[:draw(st.integers(0, len(data) - 1))]
    if kind == "quote":
        at = draw(st.integers(0, len(data)))
        return data[:at] + b'"' + data[at:]
    if kind == "open_at_end":
        return data + b'"' + draw(st.sampled_from([b"", b"R_0_0", b"R_0_0,1\n2,"]))
    if kind == "permute":
        rows = draw(st.permutations([lines[k] for k in body[1:]]))
        return b"".join(lines[:body[1]] + rows)
    if kind == "drop_column":
        column = draw(st.integers(0, lines[body[0]].count(b",")))
        for k in body:
            fields = lines[k].rstrip(b"\n").split(b",")
            lines[k] = b",".join(fields[:column] + fields[column + 1:]) + b"\n"
        return b"".join(lines)
    k = draw(st.sampled_from(body))
    fields = lines[k].rstrip(b"\n").split(b",")
    column = draw(st.integers(0, len(fields) - 1))
    field = fields[column]
    if kind == "inner_quote":
        fields[column] = b'a"' + field
    elif kind == "padded_quote":
        fields[column] = b' "' + field + b'"'
    elif kind == "after_close":
        fields[column] = b'"' + field + b'"c'
    elif kind == "nul":
        at = draw(st.integers(0, len(field)))
        fields[column] = field[:at] + b"\0" + field[at:]
    else:
        fields[column] = draw(st.one_of(
            st.text(alphabet="01.e-_ ,\"\r\n#xé\u3000\u0663", max_size=6).map(str.encode),
            st.binary(max_size=4),
        ))
    lines[k] = b",".join(fields) + b"\n"
    return b"".join(lines)


@settings(max_examples=150, deadline=None)
@given(case=st.data())
def test_damaged_records_exit_0_or_2(tmp_path_factory, direct_inputs, case):
    data, boundaries = direct_inputs
    out = tmp_path_factory.mktemp("damaged")
    records = out / "records.csv"
    records.write_bytes(case.draw(damaged_records(data)))
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = cli.main(["direct", "--records", str(records),
                         "--boundaries", str(boundaries), "--out", str(out)])
    if code == 0:
        assert (out / "direct.csv").exists()
    else:
        assert code == 2
        assert stderr.getvalue().startswith("error: ")


# ---------------------------------------------------------------------------
# Round trips through write_records_csv
# ---------------------------------------------------------------------------

# ids holding line breaks, blank and '#' lines inside a quoted cell, commas,
# quotes, a leading '#' and non-ASCII text, now and then too wide for a
# fixed-width array; they start and end with a character that strip() keeps,
# since load_records strips ids
ROUND_TRIP_ID = st.tuples(
    st.sampled_from(["#", "a", "é", '"', ","]),
    st.lists(st.sampled_from(["\n#", "\n\n", "\r", "\r\n", ",", '"', "#", " ", "中", "w" * 130]),
             max_size=4).map("".join),
    st.sampled_from(["a", "z", "中", '"']),
).map("".join)


@st.composite
def record_tables(draw):
    """A SurveyTable with ROUND_TRIP_ID ids, positive weights, and strata or none."""
    regions = draw(st.lists(ROUND_TRIP_ID, min_size=1, max_size=4, unique=True))
    clusters = draw(st.lists(ROUND_TRIP_ID, min_size=1, max_size=6, unique=True))
    home = {cluster: draw(st.sampled_from(regions)) for cluster in clusters}
    strata = draw(st.lists(ROUND_TRIP_ID, min_size=1, max_size=3) | st.just([""]))
    rows = draw(st.lists(st.tuples(
        st.sampled_from(clusters),
        st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        st.integers(0, 1),
        st.sampled_from(strata),
    ), min_size=1, max_size=12))
    return SurveyTable.from_records(IndividualRecord(home[c], c, w, y, s) for c, w, y, s in rows)


@settings(max_examples=150, deadline=None)
@given(table=record_tables(), chunk=st.sampled_from([1, 2, 5]))
def test_load_records_reads_back_what_write_records_csv_wrote(tmp_path_factory, table, chunk):
    path = tmp_path_factory.mktemp("round_trip") / "records.csv"
    write_records_csv(table, path, {"seed": "1"})
    with mock.patch.object(data_model, "LOAD_CHUNK_ROWS", chunk):
        loaded = load_records(path)
    assert loaded == table
    assert loaded.weight.view(np.int64).tolist() == table.weight.view(np.int64).tolist()


# ---------------------------------------------------------------------------
# The quoting rules: each break names its row and byte, in both readers
# ---------------------------------------------------------------------------

# comments with one quote, before the header and between quoted rows
QUOTED_HEAD = (
    '# 5" tall\n'
    "region_id,cluster_id,weight,outcome\n"
    "R1,c1,1,0\n"
    '# 5" tall\n'
    '"R3","c""3",1,0\n'
)
BROKEN_ROWS = [  # (data row 3, the byte named, the reason)
    ('R2,a"b,1,0\n', '"', "quote inside an unquoted field at byte {}"),
    ('R2, "b",1,0\n', '"', "quote inside an unquoted field at byte {}"),
    ('R2,"ab"c,1,0\n', "c", "text after a closing quote at byte {}"),
    ("R2,b\0,1,0\n", "\0", "NUL at byte {}"),
    ('R2,"b,1,0\n', '"', "quote opened at byte {} is not closed by the end of the file"),
]


@pytest.mark.parametrize("row, at, reason", BROKEN_ROWS)
@pytest.mark.parametrize("chunk", [1, 2, data_model.LOAD_CHUNK_ROWS])
def test_quoting_errors_name_the_row_and_byte(tmp_path, monkeypatch, row, at, reason, chunk):
    monkeypatch.setattr(data_model, "LOAD_CHUNK_ROWS", chunk)
    tail = "" if "not closed" in reason else "R4,c4,1,0\n"
    path = tmp_path / "records.csv"
    path.write_bytes((QUOTED_HEAD + row + tail).encode())
    message = reason.format(len(QUOTED_HEAD.encode()) + row.index(at) + 1)
    with pytest.raises(RecordValidationError) as err:
        load_records(path)
    assert str(err.value) == f"row 3: unparseable row ({message})"
    with pytest.raises(SchemaError) as err:
        read_table(path, {"region_id": str, "weight": float})
    assert str(err.value) == f"{path}: row 3: {message}"


def test_a_header_that_breaks_the_quoting_rules_names_the_byte(tmp_path):
    path = tmp_path / "records.csv"
    path.write_text('# 5" tall\nregion_id,"cluster_id"x,weight,outcome\nR1,c1,1,0\n')
    message = f"{path}: header: text after a closing quote at byte 33"
    for read in (load_records, lambda p: read_table(p, {"region_id": str})):
        with pytest.raises(SchemaError) as err:
            read(path)
        assert str(err.value) == message


@pytest.mark.parametrize("chunk", [1, 2, data_model.LOAD_CHUNK_ROWS])
def test_comments_holding_one_quote_are_skipped(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(data_model, "LOAD_CHUNK_ROWS", chunk)
    path = tmp_path / "records.csv"
    path.write_text(QUOTED_HEAD + '"R1","c,1",2,1\n# 5" tall\nR3,c5,3,1\n')
    table = load_records(path)
    assert list(table.column("region_id")) == ["R1", "R3", "R1", "R3"]
    assert list(table.column("cluster_id")) == ["c1", 'c"3', "c,1", "c5"]
    assert table.weight.tolist() == [1.0, 1.0, 2.0, 3.0]
    rows = read_table(path, {"cluster_id": str, "outcome": int})
    assert rows == [{"cluster_id": c, "outcome": y} for c, y in
                    [("c1", 0), ('c"3', 0), ("c,1", 1), ("c5", 1)]]


# ---------------------------------------------------------------------------
# Records a machine word at a time: decimal fields and id grouping
# ---------------------------------------------------------------------------

@st.composite
def decimal_fields(draw):
    """digits[.digits] of 1-8 bytes: at least one digit, at most one dot."""
    digits = draw(st.text(alphabet="0123456789", min_size=1, max_size=8))
    if len(digits) == 8 or draw(st.booleans()):
        return digits
    dot = draw(st.integers(0, len(digits)))
    return digits[:dot] + "." + digits[dot:]


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


@settings(deadline=None)
@given(fields=st.lists(decimal_fields(), min_size=1, max_size=20))
@example(fields=["1.", ".5", "0", "00000001", "99999999", ".0000001", "1234.567", "0.000"])
def test_decimal_fields_by_words_have_float_bits(fields):
    raw = np.array([f.encode() for f in fields], dtype="S8")
    values = data_model._decimals(raw)
    assert values is not None
    assert bits(values) == bits([float(f) for f in fields])
    assert bits(data_model._parse_floats(raw)[0]) == bits(values)


def ref_parse_floats(fields):
    """float() of each field up to the first it rejects, and (index, message)."""
    values = []
    for field in fields:
        try:
            values.append(float(field))
        except ValueError as exc:
            return values, (len(values), str(exc))
    return values, None


@pytest.mark.parametrize("odd", [".", "", "-1", "+1", "1e5", " 1", "1_0", "1.2.3", "nan", "1.5 ", "٣"])
@pytest.mark.parametrize("at", [0, 1, 3])
def test_a_field_outside_the_decimal_form_keeps_the_cast(odd, at):
    fields = ["2.5", "1", "0.125", "7"]
    fields.insert(at, odd)
    raw = np.array([f.encode() for f in fields], dtype="S8")
    assert data_model._decimals(raw) is None
    values, bad = data_model._parse_floats(raw)
    ref_values, ref_bad = ref_parse_floats(fields)
    assert bits(values) == bits(ref_values)
    assert bad == ref_bad


def ref_first_appearance(key):
    """The np.unique form of data_model.first_appearance; 2-D keys compare
    their rows as one void field each."""
    if key.ndim == 2:
        key = np.ascontiguousarray(key).view(f"V{key.itemsize * key.shape[1]}").ravel()
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return rank[inverse.ravel()], first[order]


@st.composite
def grouping_keys(draw):
    """1-D int keys or (n, 1) and (n, 2) word rows, in runs or shuffled, of length 0 up."""
    width = draw(st.sampled_from([None, 1, 2]))
    distinct = draw(st.integers(1, 6))
    values = draw(st.lists(st.integers(0, distinct - 1), max_size=30))
    runs = draw(st.lists(st.integers(1, 4), min_size=len(values), max_size=len(values)))
    codes = np.repeat(np.array(values, dtype=np.int64), runs)
    if draw(st.booleans()):
        codes = codes[draw(st.permutations(range(len(codes))))]
    if width is None:
        return codes
    # rows that differ in either word, words with the high bit set among them
    table = np.array([[2**63 + k, 7 - k % 2][:width] for k in range(distinct)], dtype="<u8")
    return table[codes].reshape(len(codes), width)


@settings(deadline=None)
@given(key=grouping_keys())
@example(key=np.zeros(0, dtype=np.int64))
@example(key=np.zeros((0, 2), dtype="<u8"))
@example(key=np.array([5]))
@example(key=np.ones((1, 1), dtype="<u8"))
def test_first_appearance_matches_np_unique(key):
    codes, first = data_model.first_appearance(key)
    ref_codes, ref_first = ref_first_appearance(key)
    assert codes.tolist() == ref_codes.tolist()
    assert first.tolist() == ref_first.tolist()


# ids of one and of two 8-byte words, some differing only in the second word
SHUFFLED_IDS = ("R1", "R2", "North-Zone-1", "North-Zone-2", "Z")


@settings(deadline=None)
@given(
    clusters=st.lists(st.tuples(st.sampled_from(SHUFFLED_IDS), st.sampled_from(["urban", "rural"]),
                                st.integers(1, 5)), min_size=1, max_size=8),
    weights=st.lists(decimal_fields().filter(lambda f: float(f) > 0)
                     | st.sampled_from(["2e0", "1.2345678901"]), min_size=1),
    data=st.data(),
    chunk=st.sampled_from([1, 2, 5, data_model.LOAD_CHUNK_ROWS]),
)
def test_shuffled_records_load_as_from_records(tmp_path_factory, clusters, weights, data, chunk):
    # cluster c of region r is "r-cluster-c"; its records are spread through the file
    rows = [
        (region, f"{region}-cluster-{c}", weights[(c + k) % len(weights)], (c + k) % 2, stratum)
        for c, (region, stratum, size) in enumerate(clusters) for k in range(size)
    ]
    rows = [rows[i] for i in data.draw(st.permutations(range(len(rows))))]
    path = tmp_path_factory.mktemp("shuffled") / "records.csv"
    lines = ["region_id,cluster_id,weight,outcome,stratum"] + [",".join(map(str, row)) for row in rows]
    path.write_text("\n".join(lines) + "\n")
    with mock.patch.object(data_model, "LOAD_CHUNK_ROWS", chunk):
        table = load_records(path)
    expected = SurveyTable.from_records(
        IndividualRecord(region, cluster, float(weight), outcome, stratum)
        for region, cluster, weight, outcome, stratum in rows
    )
    assert table == expected
    assert (table.region_ids, table.cluster_ids, table.stratum_ids) == (
        expected.region_ids, expected.cluster_ids, expected.stratum_ids)
    assert bits(table.weight) == bits(expected.weight)


# ---------------------------------------------------------------------------
# Record starts by arithmetic or by search, and doubled quotes, by chunk
# ---------------------------------------------------------------------------


@st.composite
def plain_rows(draw):
    """(region, cluster, weight, outcome) rows of one to four clusters per SHUFFLED_IDS region."""
    rows = draw(st.lists(st.tuples(st.sampled_from(SHUFFLED_IDS), st.integers(0, 3),
                                   st.sampled_from(["1", "0.5", "2.25"]), st.sampled_from("01")),
                         min_size=2, max_size=12))
    return [[region, f"{region}-c{c}", weight, y] for region, c, weight, y in rows]


def assert_loads_as_row_reference(path, text, chunk):
    with mock.patch.object(data_model, "LOAD_CHUNK_ROWS", chunk):
        table = load_records(path)
    expected = SurveyTable.from_records(
        IndividualRecord(region, cluster, weight, outcome, stratum)
        for region, cluster, stratum, weight, outcome in ref_load(text, {})
    )
    assert table == expected
    assert (table.region_ids, table.cluster_ids) == (expected.region_ids, expected.cluster_ids)
    assert bits(table.weight) == bits(expected.weight)


@settings(deadline=None)
@given(rows=plain_rows(), data=st.data(),
       chunk=st.sampled_from([1, 2, 5, data_model.LOAD_CHUNK_ROWS]))
def test_ragged_rows_whose_field_counts_cancel_load_as_row_reference(
    tmp_path_factory, rows, data, chunk
):
    # the last column is unused, so a row may carry a field more or lack that
    # one; each such pair keeps the field count a multiple of the record count
    # (of the file, and of a window holding both), though the rows' widths differ
    order = data.draw(st.permutations(range(len(rows))))
    pairs = data.draw(st.integers(1, len(rows) // 2))
    for row in rows:
        row.append("33")
    for longer, shorter in zip(order[0:2 * pairs:2], order[1:2 * pairs:2]):
        rows[longer].append("x")
        rows[shorter].pop()
    text = "region_id,cluster_id,weight,outcome,note\n" + "".join(",".join(row) + "\n" for row in rows)
    path = tmp_path_factory.mktemp("ragged") / "records.csv"
    path.write_text(text)
    assert_loads_as_row_reference(path, text, chunk)


@settings(deadline=None)
@given(rows=plain_rows(), data=st.data(),
       chunk=st.sampled_from([1, 2, 5, data_model.LOAD_CHUNK_ROWS]))
def test_a_files_one_doubled_quote_in_a_later_chunk_loads_as_row_reference(
    tmp_path_factory, rows, data, chunk
):
    # every field quoted; one cluster id in the second half of the rows holds a
    # quote, so earlier chunks hold no doubled quote
    rows[data.draw(st.integers(len(rows) // 2, len(rows) - 1))][1] += ' "q"'
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_ALL).writerows(
        [["region_id", "cluster_id", "weight", "outcome"], *rows])
    text = buf.getvalue()
    path = tmp_path_factory.mktemp("late_quote") / "records.csv"
    path.write_text(text)
    assert_loads_as_row_reference(path, text, chunk)
