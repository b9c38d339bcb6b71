"""Domain types and validated ingestion of survey records and region boundaries.

Records arrive as CSV (one row per surveyed individual), boundaries as a
GeoJSON FeatureCollection. Both loaders validate every invariant up front and
raise a diagnostic instead of ever returning a partial dataset. Loaded
datasets are treated as immutable.
"""

from __future__ import annotations

import csv
import gc
import io
import json
import logging
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, compress, count, filterfalse, islice
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence, TextIO

import numpy as np

from .errors import (
    ConsistencyError,
    EmptyDatasetError,
    GeometryError,
    PrevmapError,
    RecordValidationError,
    SchemaError,
)

log = logging.getLogger(__name__)

# canonical record columns; a schema map may rename any of them
RECORD_COLUMNS = ("region_id", "cluster_id", "weight", "outcome")
OPTIONAL_RECORD_COLUMNS = ("stratum",)
# the record columns held as integer codes in a SurveyTable
ID_COLUMNS = ("region_id", "cluster_id", "stratum")

# a ring is a read-only (k, 2) float64 array of (longitude, latitude) in
# degrees, closing vertex included
Ring = np.ndarray
Polygon = tuple[Ring, ...]


@dataclass(frozen=True)
class IndividualRecord:
    """One surveyed person: region, cluster, design weight, binary outcome.

    A row type for building small tables by hand with
    ``SurveyTable.from_records``; loading, validation and estimation all run
    on ``SurveyTable`` columns.
    """

    region_id: str
    cluster_id: str
    weight: float
    outcome: int
    stratum: str = ""


class _Codes:
    """Integer codes for string ids, assigned in order of first appearance."""

    def __init__(self) -> None:
        self.index: dict[str, int] = {}

    def encode(self, ids: Sequence[str]) -> np.ndarray:
        index = self.index
        fresh = filterfalse(index.__contains__, dict.fromkeys(ids))
        index.update(zip(fresh, count(len(index))))
        return np.fromiter(map(index.__getitem__, ids), dtype=np.intp, count=len(ids))

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(self.index)


@dataclass(frozen=True, eq=False)
class SurveyTable:
    """Survey records as columns, one entry per surveyed individual.

    ``region``, ``cluster`` and ``stratum`` hold integer codes into
    ``region_ids``, ``cluster_ids`` and ``stratum_ids``; records without a
    stratum share the stratum id ``""``. ``weight`` is float64 and
    ``outcome`` int8. Tables built from strings code each id in order of
    first appearance. Two tables are equal when their decoded rows are.
    """

    region: np.ndarray
    cluster: np.ndarray
    stratum: np.ndarray
    weight: np.ndarray
    outcome: np.ndarray
    region_ids: tuple[str, ...]
    cluster_ids: tuple[str, ...]
    stratum_ids: tuple[str, ...] = ("",)

    @classmethod
    def from_records(cls, records: Iterable[IndividualRecord]) -> SurveyTable:
        fields = ("region_id", "cluster_id", "weight", "outcome", "stratum")
        region_id, cluster_id, weight, outcome, stratum = (
            list(zip(*map(attrgetter(*fields), records))) or [()] * len(fields)
        )
        regions, clusters, strata = _Codes(), _Codes(), _Codes()
        return cls(
            region=regions.encode(region_id),
            cluster=clusters.encode(cluster_id),
            stratum=strata.encode(stratum),
            weight=np.asarray(weight, dtype=np.float64),
            outcome=np.asarray(outcome, dtype=np.int8),
            region_ids=regions.ids,
            cluster_ids=clusters.ids,
            stratum_ids=strata.ids or ("",),
        )

    def __len__(self) -> int:
        return len(self.weight)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SurveyTable):
            return NotImplemented
        mine = (*map(self.column, ID_COLUMNS), self.weight, self.outcome)
        theirs = (*map(other.column, ID_COLUMNS), other.weight, other.outcome)
        return len(self) == len(other) and all(map(np.array_equal, mine, theirs))

    def column(self, name: str) -> np.ndarray:
        """Every record's ``region_id``, ``cluster_id`` or ``stratum`` (object array)."""
        codes, ids = {
            "region_id": (self.region, self.region_ids),
            "cluster_id": (self.cluster, self.cluster_ids),
            "stratum": (self.stratum, self.stratum_ids),
        }[name]
        return np.array(ids, dtype=object)[codes]

    def region_counts(self) -> dict[str, int]:
        """Number of records per region id (0 for ids no record uses)."""
        counts = np.bincount(self.region, minlength=len(self.region_ids))
        return dict(zip(self.region_ids, counts.tolist()))

    def take(self, keep: np.ndarray) -> SurveyTable:
        """The records where the boolean mask ``keep`` is set; unused ids are dropped."""
        region, region_ids = _compact(self.region[keep], self.region_ids)
        cluster, cluster_ids = _compact(self.cluster[keep], self.cluster_ids)
        stratum, stratum_ids = _compact(self.stratum[keep], self.stratum_ids)
        return SurveyTable(
            region, cluster, stratum, self.weight[keep], self.outcome[keep],
            region_ids, cluster_ids, stratum_ids,
        )


def _compact(codes: np.ndarray, ids: tuple[str, ...]) -> tuple[np.ndarray, tuple[str, ...]]:
    """Drop the ids no code points at; the rest keep their relative order."""
    used = np.bincount(codes, minlength=len(ids)) > 0
    if used.all():
        return codes, ids
    return (np.cumsum(used) - 1)[codes], tuple(compress(ids, used))


def _frozen_ring(points, region_id: str) -> Ring:
    """``points`` as a read-only C-contiguous (k, 2) float64 array of finite values."""
    try:
        ring = np.array(points, dtype=np.float64, order="C")
    except (TypeError, ValueError, OverflowError) as exc:
        raise GeometryError(f"region {region_id!r}: bad ring coordinates ({exc})") from None
    if ring.size == 0:
        ring = ring.reshape(0, 2)
    if ring.ndim != 2 or ring.shape[1] != 2:
        raise GeometryError(
            f"region {region_id!r}: ring must be a sequence of (x, y) pairs, "
            f"got an array of shape {ring.shape}"
        )
    if not np.isfinite(ring).all():
        raise GeometryError(f"region {region_id!r}: ring has a non-finite coordinate")
    ring.flags.writeable = False
    return ring


@dataclass(frozen=True, eq=False)
class RegionBoundary:
    """A named region with polygon/multipolygon geometry in lon/lat degrees.

    ``geometry`` holds polygons, each a tuple of rings (the outer ring, then
    any holes). Every ring is stored as a read-only (k, 2) float64 array that
    keeps its closing vertex; any sequence of (x, y) pairs is accepted on
    construction. A non-finite coordinate raises ``GeometryError``. Two
    boundaries are equal when their ids, countries and every ring are.
    """

    region_id: str
    geometry: tuple[Polygon, ...]
    country: str = ""

    def __post_init__(self) -> None:
        geometry = tuple(
            tuple(_frozen_ring(ring, self.region_id) for ring in poly)
            for poly in self.geometry
        )
        object.__setattr__(self, "geometry", geometry)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RegionBoundary):
            return NotImplemented
        return (
            (self.region_id, self.country) == (other.region_id, other.country)
            and list(map(len, self.geometry)) == list(map(len, other.geometry))
            and all(
                np.array_equal(mine, theirs)
                for poly, other_poly in zip(self.geometry, other.geometry)
                for mine, theirs in zip(poly, other_poly)
            )
        )

    def rings(self) -> list[Ring]:
        """Every ring of every polygon, in order."""
        return [ring for poly in self.geometry for ring in poly]

    def validate(self) -> None:
        if not self.geometry or all(len(poly) == 0 for poly in self.geometry):
            raise GeometryError(f"region {self.region_id!r} has no rings")
        for ring in self.rings():
            if len(ring) < 4:
                raise GeometryError(
                    f"region {self.region_id!r}: ring has {len(ring)} points, need >= 4"
                )
            if not np.array_equal(ring[0], ring[-1]):
                raise GeometryError(f"region {self.region_id!r}: ring is not closed")


@dataclass
class SurveyDataset:
    """Validated records plus the boundaries they link to."""

    records: SurveyTable
    regions: list[RegionBoundary]

    def region_ids(self) -> list[str]:
        return sorted(b.region_id for b in self.regions)


@dataclass(frozen=True)
class DropReport:
    """Outcome of removing records without a matching boundary."""

    n_input: int
    n_dropped: int

    @property
    def retained_fraction(self) -> float:
        return (self.n_input - self.n_dropped) / self.n_input if self.n_input else 0.0


def _first_true(mask: np.ndarray) -> int | None:
    """Index of the first set entry of a boolean array, or None."""
    i = int(np.argmax(mask)) if len(mask) else 0
    return i if len(mask) and mask[i] else None


def _linked(ids: Sequence[str], known: set[str]) -> np.ndarray:
    """Boolean mask over ``ids``: which of them are in ``known``."""
    return np.fromiter(map(known.__contains__, ids), dtype=bool, count=len(ids))


def _first_bad_row(
    table: SurveyTable, label: str, known: set[str] | None = None
) -> PrevmapError | None:
    """The error for the first record that breaks a row invariant, or None.

    Within one record the checks run in this order: weight positive and
    finite, outcome 0 or 1, region in ``known`` (when given), and the record
    in the same region as the first record of its cluster. ``label`` names
    the row in the message ("row" for a file, "record" for a dataset).
    """
    region, cluster, weight, outcome = table.region, table.cluster, table.weight, table.outcome
    first = np.full(len(table.cluster_ids), len(table), dtype=np.intp)
    np.minimum.at(first, cluster, np.arange(len(table)))
    home = region[first[cluster]]  # region of the first record of each record's cluster
    checks = [
        (~(np.isfinite(weight) & (weight > 0)), RecordValidationError,
         lambda i: f"weight must be positive and finite, got {float(weight[i])!r}"),
        ((outcome != 0) & (outcome != 1), RecordValidationError,
         lambda i: f"outcome must be 0 or 1, got {int(outcome[i])!r}"),
    ]
    if known is not None:
        checks.append((~_linked(table.region_ids, known)[region], ConsistencyError,
                       lambda i: f"region_id {table.region_ids[region[i]]!r} has no boundary"))
    checks.append((region != home, ConsistencyError, lambda i: (
        f"cluster {table.cluster_ids[cluster[i]]!r} mapped to two regions "
        f"({table.region_ids[home[i]]!r} and {table.region_ids[region[i]]!r})"
    )))
    firsts = [(_first_true(mask), rank) for rank, (mask, _, _) in enumerate(checks)]
    found = [(i, rank) for i, rank in firsts if i is not None]
    if not found:
        return None
    i, rank = min(found)
    _, error, message = checks[rank]
    return error(f"{label} {i + 1}: {message(i)}")


def validate_dataset(dataset: SurveyDataset) -> None:
    """Check all SurveyDataset invariants; raise on the first violation."""
    known = {b.region_id for b in dataset.regions}
    if len(known) != len(dataset.regions):
        raise ConsistencyError("duplicate region_id in boundary list")
    if len(known) < 2:
        raise EmptyDatasetError(f"need at least 2 regions, have {len(known)}")
    for b in dataset.regions:
        b.validate()
    problem = _first_bad_row(dataset.records, "record", known)
    if problem is not None:
        raise problem
    seen = {rid for rid, n in dataset.records.region_counts().items() if n}
    missing = known - seen
    if missing:
        raise EmptyDatasetError(
            f"regions without any record: {', '.join(sorted(missing))}"
        )


# ---------------------------------------------------------------------------
# Artifact files: '# key: value' metadata lines, then the content
# ---------------------------------------------------------------------------


def _read_bytes(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except FileNotFoundError:
        raise SchemaError(f"file not found: {path}") from None


def _utf8(path: Path, data: bytes) -> str:
    """``data`` decoded as UTF-8; SchemaError naming the first byte (from 1) that is not."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text (byte {exc.start + 1})") from None


def _skipped(line: str) -> bool:
    """Whether a line is a '#' comment or blank; neither is a row of a table."""
    return line.startswith("#") or line.isspace()


def _text_lines(text: str) -> Iterator[str]:
    """The lines of ``text`` that ``_skipped`` keeps, with their line ends.

    Lines end at ``\\n``, ``\\r\\n`` or a lone ``\\r``, as in a file opened
    with ``newline=""``.
    """
    return filterfalse(_skipped, io.StringIO(text, newline=""))


def _csv_rows(text: str) -> Iterator[list[str]]:
    """The csv reader's rows of ``text``, without '#' comment lines and blank lines.

    A line is skipped only where a record starts: inside a quoted cell that
    runs over several lines, a blank line or one starting with '#' belongs
    to the cell. The reader asks for the next line only while a record is
    open, so whether one is open is known when each line is asked for.
    """
    at_start = True

    def lines() -> Iterator[str]:
        nonlocal at_start
        for line in io.StringIO(text, newline=""):
            if not (at_start and _skipped(line)):
                at_start = False
                yield line

    for row in csv.reader(lines()):
        yield row
        at_start = True


def data_lines(path: Path) -> list[str]:
    """The UTF-8 file's lines without '#' comment lines and blank lines.

    A missing file or one that is not UTF-8 text raises ``SchemaError``.
    """
    return list(_text_lines(_utf8(path, _read_bytes(path))))


def metadata_lines(metadata: Mapping[str, str] | None) -> list[str]:
    """The '# key: value' lines a text artifact starts with, one per entry."""
    return [f"# {key}: {value}\n" for key, value in (metadata or {}).items()]


@contextmanager
def artifact_file(path: str | Path) -> Iterator[TextIO]:
    """A text file to write ``path`` through, replacing it only if the block completes.

    The text goes to a temporary file in the same directory, which is moved
    over ``path`` at the end, so an interrupted step never leaves a truncated
    artifact for the next step to read. The temporary file is created as
    ``open(path, "w")`` creates one, so the umask sets the permissions. There
    is no fsync: the guard is against an interrupted step, not a power loss.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# rows per chunk when writing a table; bounds the text held at once (with
# 1 << 16 the demo pipeline's peak RSS was 7 MB above csv.writer's, with
# 1 << 10 it is 2 MB below, and the writes are no slower)
WRITE_CHUNK_ROWS = 1 << 10
# what makes csv.QUOTE_MINIMAL quote a cell, with "\r" quoted on every Python
_NEEDS_QUOTES = re.compile('[,"\r\n]')


def _csv_cells(cells: list[str]) -> list[str]:
    """``cells`` as ``csv.writer`` writes them: quoted, quotes doubled, where
    a cell holds a comma, a quote or a line break.

    One search of the cells' joined text decides whether any cell needs it.
    """
    if not _NEEDS_QUOTES.search("".join(cells)):
        return cells
    return ['"' + c.replace('"', '""') + '"' if _NEEDS_QUOTES.search(c) else c for c in cells]


def _string_chunks(column: Iterable[str]) -> Iterator[list[str]]:
    """The column's cells as ``_csv_cells`` writes them, WRITE_CHUNK_ROWS at a time."""
    cells = iter(column)
    while chunk := list(islice(cells, WRITE_CHUNK_ROWS)):
        yield _csv_cells(chunk)


def _number_chunks(values: np.ndarray) -> Iterator[list[str]]:
    """The ``repr`` of each value, WRITE_CHUNK_ROWS at a time.

    Each distinct value is formatted once and its text shared. Floats are
    told apart by their bits, so ``-0.0`` and ``0.0`` keep their own texts.
    """
    keys = values.view(np.int64) if values.dtype.kind == "f" else values
    distinct, inverse = np.unique(keys, return_inverse=True)
    texts = np.array(list(map(repr, distinct.view(values.dtype).tolist())), dtype=object)
    for lo in range(0, len(inverse), WRITE_CHUNK_ROWS):
        yield texts[inverse[lo : lo + WRITE_CHUNK_ROWS]].tolist()


def write_table(
    path: str | Path,
    schema: Mapping[str, type],
    columns: Sequence[Iterable],
    metadata: Mapping[str, str] | None = None,
) -> None:
    """Write a CSV artifact: metadata lines, the header row, one row per entry.

    ``schema`` maps each header name to ``str``, ``int`` or ``float``, and
    ``columns`` holds one iterable per name; rows stop at the shortest.
    Strings are written as they are, quoted as ``csv.writer`` quotes them,
    and numbers with ``repr``, so each float reads back as the same double.
    A numeric column is converted once, as an array, and each of its
    distinct values is formatted once. Rows are joined WRITE_CHUNK_ROWS at
    a time. For two or more columns the bytes are those of
    ``csv.writer(lineterminator="\\n")``, except that a cell holding a
    ``\\r`` is always quoted: ``read_table`` ends a line at a lone ``\\r``,
    and some Python versions' writers leave it bare.
    """
    sources = [_string_chunks(column) if kind is str
               else _number_chunks(np.asarray(column, dtype=kind))
               for kind, column in zip(schema.values(), columns)]
    with artifact_file(path) as fh:
        fh.writelines(metadata_lines(metadata))
        fh.write(",".join(_csv_cells(list(schema))) + "\n")
        while True:
            cells = [next(src, []) for src in sources]
            rows = min(map(len, cells))
            if rows:
                fh.write("\n".join(map(",".join, zip(*cells))) + "\n")
            if rows < WRITE_CHUNK_ROWS:
                break


def read_table(path: str | Path, schema: Mapping[str, type]) -> list[dict]:
    """The rows of a CSV artifact, as dicts from each ``schema`` column to its value.

    Comment and blank lines are skipped, except inside a quoted cell
    (``_csv_rows``), and header names stripped; columns
    are looked up by name, so the file may hold others. Each cell is
    converted by its column's type. A row whose field count differs from the
    header's, or whose cell does not convert, raises ``SchemaError`` naming
    the row (1-based, data rows only).
    """
    path = Path(path)
    reader = _csv_rows(_utf8(path, _read_bytes(path)))
    header = [h.strip() for h in next(reader, [])]
    missing = [name for name in schema if name not in header]
    if missing:
        raise SchemaError(f"{path}: missing column(s) {', '.join(map(repr, missing))}")
    fields = [(name, header.index(name), kind) for name, kind in schema.items()]
    rows = []
    for row_no, row in enumerate(reader, start=1):
        if len(row) != len(header):
            raise SchemaError(
                f"{path}: row {row_no}: {len(row)} fields, the header has {len(header)}"
            )
        try:
            rows.append({name: kind(row[i]) for name, i, kind in fields})
        except ValueError as exc:
            raise SchemaError(f"{path}: row {row_no}: {exc}") from None
    return rows


# ---------------------------------------------------------------------------
# CSV records
# ---------------------------------------------------------------------------

# lines per chunk when loading records; bounds the memory one chunk's arrays take
LOAD_CHUNK_ROWS = 1 << 16
# the widest field cut out as a fixed-width bytes array; wider ones are decoded
# one by one
LOAD_FIELD_BYTES = 256

UTF8_BOM = b"\xef\xbb\xbf"
NEWLINE, COMMA, HASH, CR, QUOTE = b'\n,#\r"'
# BYTE_MASKS[k] keeps the first k bytes of a little-endian 8-byte word
BYTE_MASKS = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype="<u8")


def _read_fields(
    reader: Iterator[list[str]], usecols: list[int]
) -> Iterator[tuple[list[np.ndarray], tuple[int, str] | None]]:
    """Fields ``usecols`` of the csv ``reader``'s records, LOAD_CHUNK_ROWS records at a time.

    The fields come as object arrays of str. A chunk's columns stop before
    the first record that cannot be read (a record too short for
    ``usecols``, say), which is returned as (index, reason) and ends the
    chunks.
    """
    need = max(usecols) + 1
    while True:
        rows: list[list[str]] = []
        problem = None
        try:
            rows.extend(islice(reader, LOAD_CHUNK_ROWS))
        except csv.Error as exc:
            problem = (len(rows), str(exc))
        if not rows and problem is None:
            return
        widths = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
        short = _first_true(widths < need)
        if short is not None:
            problem = (short, f"{widths[short]} fields, need {need}")
            rows = rows[:short]
        yield [
            np.fromiter(map(itemgetter(j), rows), dtype=object, count=len(rows)) for j in usecols
        ], problem
        if problem is not None:
            return


def _line_chunks(buf: np.ndarray, pos: int) -> Iterator[tuple[int, np.ndarray]]:
    """(first byte, line end positions) of each LOAD_CHUNK_ROWS lines from byte ``pos`` on.

    A last line without ``\\n`` ends at ``len(buf)``. Each chunk's line ends
    are searched for in a window about a quarter longer than the chunk
    before it took.
    """
    rows, n = LOAD_CHUNK_ROWS, len(buf)
    window = 64 * rows
    while pos < n:
        ends = pos + np.flatnonzero(buf[pos:pos + window] == NEWLINE)[:rows]
        if len(ends) < rows and pos + window < n:
            window *= 2
            continue
        if len(ends) < rows and (ends[-1] if len(ends) else pos - 1) < n - 1:
            ends = np.append(ends, n)
        yield pos, ends
        window = (int(ends[-1]) + 1 - pos) * 5 // 4 + 1
        pos = int(ends[-1]) + 1


def _kept_lines(data: bytes, pos: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(starts, ends) of the lines from byte ``pos`` on that ``_skipped`` keeps.

    One pair per LOAD_CHUNK_ROWS lines; ``ends[i]`` is the position of line
    i's ``\\n``, or ``len(buf)`` for a last line without one. Only a line
    that starts with a control, space or non-ASCII byte can be blank, so
    only those lines are decoded to be tested.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    for first, ends in _line_chunks(buf, pos):
        starts = np.concatenate(([first], ends[:-1] + 1))
        lead = buf[starts]
        keep = lead != HASH
        for i in np.flatnonzero(keep & ((lead <= 32) | (lead >= 128))).tolist():
            keep[i] = not _skipped(data[starts[i]:ends[i] + 1].decode())
        yield starts[keep], ends[keep]


def _field_bounds(
    data: bytes, starts: np.ndarray, ends: np.ndarray, ncol: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """Byte bounds ``(left, right)``, each ``(rows, ncol)``, of the fields of the lines.

    A field that is ``"..."`` with no other quote is bounded without its
    quotes, as the csv reader reads it; the ``\\r`` of a ``\\r\\n`` is not part
    of the last field. None when a line does not have ``ncol`` fields or
    some other quote is found: such a quote may open a field that holds a
    comma or spans lines.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    first, last = int(starts[0]), int(ends[-1])
    commas = first + np.flatnonzero(buf[first:last] == COMMA)
    lo = np.searchsorted(commas, starts)
    if not (np.searchsorted(commas, ends) - lo == ncol - 1).all():
        return None
    seps = np.column_stack([
        starts - 1,
        commas[lo[:, None] + np.arange(ncol - 1)],
        ends - (buf[ends - 1] == CR),
    ])
    left, right = seps[:, :-1] + 1, seps[:, 1:]
    if data.find(b'"', first, last) >= 0:
        quotes = first + np.flatnonzero(buf[first:last] == QUOTE)
        enclosed = (
            (right - left >= 2)
            & (buf[np.minimum(left, len(buf) - 1)] == QUOTE)
            & (buf[right - 1] == QUOTE)
        )
        in_lines = np.searchsorted(quotes, ends) - np.searchsorted(quotes, starts)
        if 2 * np.count_nonzero(enclosed) != in_lines.sum():
            return None
        left, right = left + enclosed, right - enclosed
    return left, right


def _byte_header(
    data: bytes, pos: int
) -> tuple[list[str], Iterator[tuple[np.ndarray, np.ndarray]]] | None:
    """The header's fields and the ``_kept_lines`` after it, or None if the bytes cannot be split.

    They cannot be when ``data`` holds a NUL or a ``\\r`` outside a
    ``\\r\\n`` (the csv reader ends a line at a lone ``\\r``), or when
    ``_field_bounds`` cannot split the header. The fields are ``[]`` when
    there is no header.
    """
    if b"\0" in data or b"\r" in data and data.count(b"\r") != data.count(b"\r\n"):
        return None
    lines = _kept_lines(data, pos)
    for starts, ends in lines:
        if len(starts):
            first, last = starts[:1], ends[:1]
            bounds = _field_bounds(data, first, last, data.count(b",", first[0], last[0]) + 1)
            if bounds is None:
                return None
            left, right = (bound[0].tolist() for bound in bounds)
            header = [data[a:b].decode() for a, b in zip(left, right)]
            return header, chain([(starts[1:], ends[1:])], lines)
    return [], lines


def _decoded(data: bytes, lines: Iterable[tuple[np.ndarray, np.ndarray]]) -> Iterator[str]:
    """The lines of the ``_kept_lines`` chunks ``lines`` as str, with their line ends."""
    for starts, ends in lines:
        yield from [data[a:b + 1].decode() for a, b in zip(starts.tolist(), ends.tolist())]


def _cut(
    data: bytes, first: int, words: np.ndarray, left: np.ndarray, right: np.ndarray
) -> np.ndarray:
    """The fields ``data[left:right]`` of a chunk as a NUL-padded fixed-width bytes array.

    ``words[i]`` is the little-endian 8-byte word at byte ``first + i``, and
    the words run on into zeros for LOAD_FIELD_BYTES bytes past the chunk.
    Each field is gathered a word at a time, with the bytes past its end
    masked off. When a field is wider than LOAD_FIELD_BYTES, the fields come
    back as an object array of str instead.
    """
    length = right - left
    n_words = -(-int(length.max(initial=1)) // 8)
    if 8 * n_words > LOAD_FIELD_BYTES:
        return np.array([data[a:b].decode() for a, b in zip(left.tolist(), right.tolist())],
                        dtype=object)
    cells = np.empty((len(left), n_words), dtype="<u8")
    for j in range(n_words):
        cells[:, j] = words[left - first + 8 * j] & BYTE_MASKS[np.clip(length - 8 * j, 0, 8)]
    return cells.view(f"S{8 * n_words}").ravel()


def _split_bytes(
    data: bytes, lines: Iterator[tuple[np.ndarray, np.ndarray]], ncol: int, usecols: list[int]
) -> Iterator[tuple[list[np.ndarray], tuple[int, str] | None]]:
    """Fields ``usecols`` of the records in the ``_kept_lines`` chunks ``lines``.

    They come as ``_read_fields`` gives them. In a chunk that
    ``_field_bounds`` splits into ``ncol`` fields a line, each used field is
    cut out as a fixed-width bytes array. Any other chunk goes to the csv
    reader in strict mode, which gives the records the lenient reader gives
    or raises, and raises when a quoted field is still open at the chunk's
    end. If it raises, the lenient reader reads from that chunk to the end
    of the file, since a quoted field may run on past the chunk. Every
    chunk before it ended a record, so it starts one.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    for starts, ends in lines:
        if not len(starts):
            continue
        bounds = _field_bounds(data, starts, ends, ncol)
        if bounds is None:
            try:
                rows = list(csv.reader(_decoded(data, [(starts, ends)]), strict=True))
            except csv.Error:
                rest = chain([(starts, ends)], lines)
                yield from _read_fields(csv.reader(_decoded(data, rest)), usecols)
                return
            yield from _read_fields(iter(rows), usecols)
            continue
        first, last = int(starts[0]), int(ends[-1])
        left, right = bounds
        padded = np.zeros(last - first + LOAD_FIELD_BYTES + 8, dtype=np.uint8)
        padded[:last - first] = buf[first:last]
        words = np.ndarray((len(padded) - 7,), dtype="<u8", buffer=padded, strides=(1,))
        yield [_cut(data, first, words, left[:, j], right[:, j]) for j in usecols], None


def _text(field) -> str:
    """A field as str: fields cut from bytes are bytes, the csv reader's are str."""
    return field.decode() if isinstance(field, bytes) else field


def _parse_floats(raw: np.ndarray) -> tuple[np.ndarray, tuple[int, str] | None]:
    """float() of every entry; on a failure, the values before it and (index, reason).

    A bytes entry is decoded first. NumPy's bytes-to-float cast gives the
    same double as ``float`` for every string it accepts; it rejects some
    that ``float`` takes (non-ASCII digits), and those rows go through
    ``float`` one at a time.
    """
    if raw.dtype == "S8":  # one word per field: one-digit fields (0/1 outcomes) by arithmetic
        word = raw.view("<u8")
        if ((word >= ord("0")) & (word <= ord("9"))).all():
            return (word - ord("0")).astype(np.float64), None
    try:
        return raw.astype(np.float64), None
    except ValueError:
        pass
    values: list[float] = []
    for field in raw.tolist():
        try:
            values.append(float(_text(field)))
        except ValueError as exc:
            return np.array(values, dtype=np.float64), (len(values), str(exc))
    return np.array(values, dtype=np.float64), None


class _TableBuilder:
    """Accumulates parsed record fields chunk by chunk into one SurveyTable."""

    def __init__(self) -> None:
        self.codes = {name: _Codes() for name in ID_COLUMNS}
        self.parts: dict[str, list[np.ndarray]] = {
            name: [] for name in (*ID_COLUMNS, "weight", "outcome")
        }
        self.n_rows = 0

    def _encode(self, name: str, raw: np.ndarray) -> np.ndarray:
        """Codes of the stripped ids ``raw``, coding each new id in order of first appearance.

        Fields cut from bytes are coded by distinct value: each is decoded and
        stripped once, and a run of equal fields (records grouped by cluster)
        is looked up once. The csv reader's str fields are looked up one by one.
        """
        if raw.dtype == object:
            return self.codes[name].encode(list(map(str.strip, raw)))
        heads = np.ones(len(raw), dtype=bool)
        heads[1:] = raw[1:] != raw[:-1]
        heads = np.flatnonzero(heads)
        fields = raw[heads]
        # group equal fields by sorting their 8-byte words as integers; the
        # sort is stable, so each group starts at its first appearance
        words = fields.view("<u8").reshape(len(fields), fields.itemsize // 8)
        order = np.lexsort(words.T[::-1])
        new = np.ones(len(order), dtype=bool)
        new[1:] = (words[order[1:]] != words[order[:-1]]).any(axis=1)
        group = np.empty(len(order), dtype=np.intp)
        group[order] = np.cumsum(new) - 1
        first = np.sort(order[new])
        coded = np.empty(len(first), dtype=np.intp)
        coded[group[first]] = self.codes[name].encode(
            [field.decode().strip() for field in fields[first].tolist()]
        )
        return np.repeat(coded[group], np.diff(heads, append=len(raw)))

    def add(
        self, fields: dict[str, np.ndarray], unreadable: tuple[int, str] | None
    ) -> PrevmapError | None:
        """Append the chunk's rows up to its first bad one; return that row's error.

        ``unreadable`` is the first record the csv reader could not read, as
        (index, reason). A row is bad when it is unreadable, its weight or
        outcome is not a number, or its outcome is not 0 or 1.
        """
        weight, bad_weight = _parse_floats(fields["weight"])
        outcome, bad_outcome = _parse_floats(fields["outcome"])
        problems: list[tuple[int, int, str]] = []  # (row, rank in the row, message)
        for rank, bad in enumerate((unreadable, bad_weight, bad_outcome)):
            if bad is not None:
                problems.append((bad[0], rank, f"unparseable row ({bad[1]})"))
        parsed = min(len(weight), len(outcome))
        i = _first_true((outcome[:parsed] != 0) & (outcome[:parsed] != 1))
        if i is not None:
            got = _text(fields["outcome"][i])
            problems.append((i, 3, f"outcome must be 0 or 1, got {got!r}"))
        stop, _, message = min(problems, default=(len(fields["weight"]), 0, ""))
        for name in ID_COLUMNS:
            if name in fields:
                self.parts[name].append(self._encode(name, fields[name][:stop]))
        self.parts["weight"].append(weight[:stop])
        self.parts["outcome"].append(outcome[:stop].astype(np.int8))
        row0, self.n_rows = self.n_rows, self.n_rows + stop
        return RecordValidationError(f"row {row0 + stop + 1}: {message}") if problems else None

    def table(self) -> SurveyTable:
        def column(name: str, dtype: type) -> np.ndarray:
            parts = self.parts[name]  # no parts: no rows, or no stratum column
            if not parts:
                return np.zeros(self.n_rows, dtype)
            return np.concatenate(parts).astype(dtype, copy=False)

        return SurveyTable(
            region=column("region_id", np.intp),
            cluster=column("cluster_id", np.intp),
            stratum=column("stratum", np.intp),
            weight=column("weight", np.float64),
            outcome=column("outcome", np.int8),
            region_ids=self.codes["region_id"].ids,
            cluster_ids=self.codes["cluster_id"].ids,
            stratum_ids=self.codes["stratum"].ids or ("",),
        )


def load_records(path: str | Path, schema: Mapping[str, str] | None = None) -> SurveyTable:
    """Read and validate individual records from a UTF-8 CSV file.

    ``schema`` maps canonical column names (``region_id``, ``cluster_id``,
    ``weight``, ``outcome``, optionally ``stratum``) to the actual header
    names in the file. Extra columns are ignored. Ids are stripped of
    surrounding whitespace. One leading byte-order mark is skipped. Errors
    name the first bad data row (1-based, comment and blank lines not
    counted); a file that is not UTF-8 raises ``SchemaError`` naming the
    first bad byte.

    The file is read once as bytes and split into fields with array
    operations, LOAD_CHUNK_ROWS lines at a time; a field enclosed in quotes
    is read without them. The ``csv`` reader reads a chunk whose rows do not
    all have the header's field count or that holds any other quote (a
    quoted field holding a comma, a quote or a line break), and names the
    first row it cannot read. When a quoted field runs on past such a chunk,
    it reads the rest of the file, LOAD_CHUNK_ROWS records at a time. It
    also reads the whole of a file holding a NUL or a lone ``\\r``, or one
    whose header holds such a quote.
    """
    path = Path(path)
    mapping = dict(schema or {})
    data = _read_bytes(path)
    if not data.isascii():
        _utf8(path, data)  # only to raise on a byte that is not UTF-8
    start = len(UTF8_BOM) if data.startswith(UTF8_BOM) else 0
    split = _byte_header(data, start)
    if split is None:
        reader = csv.reader(_text_lines(data[start:].decode()))
        header = next(reader, [])
    else:
        header, lines = split
    if not header:
        raise SchemaError(f"records file {path} is empty")
    header = [h.strip() for h in header]

    col_idx: dict[str, int] = {}
    for canonical in RECORD_COLUMNS:
        actual = mapping.get(canonical, canonical)
        if actual not in header:
            raise SchemaError(
                f"missing column {actual!r} (for {canonical!r}) in {path}"
            )
        col_idx[canonical] = header.index(actual)
    for canonical in OPTIONAL_RECORD_COLUMNS:
        actual = mapping.get(canonical, canonical)
        if actual in header:
            col_idx[canonical] = header.index(actual)

    usecols = list(col_idx.values())
    if split is None:
        chunks = _read_fields(reader, usecols)
    else:
        chunks = _split_bytes(data, lines, len(header), usecols)
    names = list(col_idx)
    builder = _TableBuilder()
    pending = None
    with _gc_paused():  # the csv reader builds one list per record
        for columns, unreadable in chunks:
            pending = builder.add(dict(zip(names, columns)), unreadable)
            if pending is not None:
                break
    table = builder.table()
    problem = _first_bad_row(table, "row") or pending
    if problem is not None:
        raise problem
    log.info("loaded %d records from %s", len(table), path)
    return table


def write_records_csv(
    records: SurveyTable,
    path: str | Path,
    metadata: Mapping[str, str] | None = None,
) -> None:
    schema = {"region_id": str, "cluster_id": str, "weight": float, "outcome": int}
    columns = [records.column("region_id"), records.column("cluster_id"),
               records.weight, records.outcome]
    used = np.bincount(records.stratum, minlength=len(records.stratum_ids)) > 0
    if any(compress(records.stratum_ids, used)):
        schema["stratum"] = str
        columns.append(records.column("stratum"))
    write_table(path, schema, columns, metadata)


# ---------------------------------------------------------------------------
# GeoJSON boundaries
# ---------------------------------------------------------------------------


@contextmanager
def _gc_paused() -> Iterator[None]:
    """Hold off the cyclic garbage collector for the block.

    For blocks that build many small containers without cycles: a parsed
    GeoJSON document (one list per vertex) or the csv reader's rows (one
    list per record). Building them triggers a collection every few hundred
    containers, which took about a third of ``json.load``'s time on
    400-vertex rings and 40% of reading a million records.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _as_ring(coords: Sequence[Sequence[float]], feature: str) -> Ring:
    """A GeoJSON ring as an (k, 2) array; a third coordinate is dropped.

    A point with fewer than two coordinates, or one that ``float`` rejects,
    raises ``GeometryError``. Ring length and closure are checked by
    ``RegionBoundary.validate``.
    """
    try:
        width, *others = set(map(len, coords))
        if not others and width >= 2:  # one array conversion for the whole ring
            flat = np.fromiter(chain.from_iterable(coords), np.float64, len(coords) * width)
            # NaN may stand for a None that float() rejects: the loop below decides
            if np.isfinite(flat).all():
                return flat.reshape(-1, width)[:, :2]
    except (TypeError, ValueError, OverflowError):
        pass
    try:
        return np.array([(float(x), float(y)) for x, y, *_ in coords]).reshape(-1, 2)
    except (TypeError, ValueError, OverflowError) as exc:
        raise GeometryError(f"feature {feature!r}: bad ring coordinates ({exc})") from None


def _json_kind(value: object) -> str:
    """The JSON name of a parsed value's type."""
    kinds = {dict: "an object", list: "an array", str: "a string", bool: "a boolean", type(None): "null"}
    return kinds.get(type(value), "a number")


def load_boundaries(path: str | Path) -> list[RegionBoundary]:
    """Read region boundaries from a GeoJSON FeatureCollection.

    A document of the wrong shape (a feature, its properties or its geometry
    not an object, features or coordinates not arrays) raises
    ``SchemaError`` or ``GeometryError`` naming the file and the feature.
    """
    path = Path(path)
    if not path.exists():
        raise SchemaError(f"boundaries file not found: {path}")
    text = _utf8(path, path.read_bytes())
    # the collector stays off until the document is gone: turned back on
    # while it lives, its next collections walk every vertex list
    with _gc_paused():
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: not valid JSON: {exc}") from None
        boundaries = _boundaries(doc, path)
        del doc
    log.info("loaded %d boundaries from %s", len(boundaries), path)
    return boundaries


def _boundaries(doc: object, path: Path) -> list[RegionBoundary]:
    """The regions of a parsed GeoJSON document, checked as ``load_boundaries`` says."""
    kind = doc.get("type") if isinstance(doc, dict) else type(doc).__name__
    if kind != "FeatureCollection":
        raise SchemaError(f"{path}: expected a FeatureCollection, got {kind!r}")

    boundaries: list[RegionBoundary] = []
    seen: set[str] = set()
    features = doc.get("features", [])
    if not isinstance(features, list):
        raise SchemaError(f"{path}: features must be an array, got {_json_kind(features)}")
    for k, feat in enumerate(features):
        if not isinstance(feat, dict):
            raise SchemaError(f"{path}: feature {k} must be an object, got {_json_kind(feat)}")
        props = feat.get("properties") or {}
        if not isinstance(props, dict):
            raise SchemaError(f"{path}: feature {k}: properties must be an object, got {_json_kind(props)}")
        region_id = props.get("region_id")
        if not region_id:
            raise SchemaError(f"{path}: feature {k} without properties.region_id")
        region_id = str(region_id)
        if region_id in seen:
            raise ConsistencyError(f"duplicate region_id {region_id!r} in {path}")
        seen.add(region_id)
        where = f"{path}: feature {region_id!r}"
        geom = feat.get("geometry") or {}
        if not isinstance(geom, dict):
            raise GeometryError(f"{where}: geometry must be an object, got {_json_kind(geom)}")
        gtype = geom.get("type")
        coords = geom.get("coordinates", [])
        if gtype == "Polygon":
            polys = [coords]
        elif gtype == "MultiPolygon":
            polys = coords
        else:
            raise GeometryError(f"{where}: unsupported geometry type {gtype!r}")
        if not (isinstance(coords, list) and all(isinstance(poly, list) for poly in polys)):
            raise GeometryError(f"{where}: {gtype} coordinates must be nested arrays")
        geometry = tuple(
            tuple(_as_ring(ring, region_id) for ring in poly) for poly in polys
        )
        boundary = RegionBoundary(
            region_id=region_id,
            geometry=geometry,
            country=str(props.get("country", "") or ""),
        )
        boundary.validate()
        boundaries.append(boundary)
    return boundaries


def write_boundaries_geojson(
    boundaries: Sequence[RegionBoundary],
    path: str | Path,
    metadata: Mapping[str, str] | None = None,
) -> None:
    features = []
    for b in boundaries:
        multi = [[ring.tolist() for ring in poly] for poly in b.geometry]
        features.append(
            {
                "type": "Feature",
                "properties": {"region_id": b.region_id, "country": b.country},
                "geometry": {"type": "MultiPolygon", "coordinates": multi},
            }
        )
    doc: dict = {"type": "FeatureCollection", "features": features}
    if metadata:
        doc["metadata"] = dict(metadata)
    with artifact_file(path) as fh:
        fh.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


# ---------------------------------------------------------------------------
# Linking
# ---------------------------------------------------------------------------


def drop_unlinked(records: SurveyTable, boundaries: Sequence[RegionBoundary]) -> tuple[SurveyDataset, DropReport]:
    """Remove records whose region has no boundary; prune regions left empty.

    Mirrors deleting survey rows with missing geographic linkage: the report
    carries the dropped count and retained fraction.
    """
    known = {b.region_id for b in boundaries}
    keep = _linked(records.region_ids, known)[records.region]
    n_kept = int(np.count_nonzero(keep))
    report = DropReport(n_input=len(records), n_dropped=len(records) - n_kept)
    if not n_kept:
        raise EmptyDatasetError("all records dropped: no region_id matches any boundary")
    kept = records if n_kept == len(records) else records.take(keep)
    populated = {rid for rid, n in kept.region_counts().items() if n}
    regions = [b for b in boundaries if b.region_id in populated]
    return SurveyDataset(records=kept, regions=regions), report
