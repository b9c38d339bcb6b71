"""Domain types and validated ingestion of survey records and region boundaries.

Records arrive as CSV (one row per surveyed individual), boundaries as a
GeoJSON FeatureCollection. Both loaders validate every invariant up front and
raise a diagnostic instead of ever returning a partial dataset. Loaded
datasets are treated as immutable.
"""

from __future__ import annotations

import ctypes
import functools
import gc
import io
import json
import logging
import os
import re
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from itertools import chain, compress, count, filterfalse
from operator import attrgetter
from pathlib import Path
from typing import Generator, Iterable, Iterator, Mapping, NamedTuple, Sequence, TextIO

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


def _changes(rows: np.ndarray) -> np.ndarray:
    """Whether each row of the 2-D ``rows`` differs from the row before it
    (the first row does), one ``!=`` per column."""
    change = np.zeros(len(rows), dtype=bool)
    change[:1] = True
    for column in rows.T:
        change[1:] |= column[1:] != column[:-1]
    return change


def first_appearance(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Codes for the distinct values of ``key`` in order of first appearance,
    and the index where each code first appears.

    ``key`` is 1-D, or 2-D with one row per value (a fixed-width field as
    its 8-byte words). Runs of equal consecutive values are collapsed first,
    so records grouped by id cost one entry per run; one stable ``lexsort``
    of the runs then groups equal values, each led by its earliest run.
    """
    rows = key if key.ndim == 2 else key[:, None]
    starts = np.flatnonzero(_changes(rows))
    runs = rows[starts]
    order = np.lexsort(runs.T)
    leads = _changes(runs[order])
    heads = order[leads]  # each distinct value's first run
    fresh = np.zeros(len(runs), dtype=bool)
    fresh[heads] = True
    run_code = np.empty(len(runs), dtype=np.intp)
    run_code[order] = (np.cumsum(fresh) - 1)[heads][np.cumsum(leads) - 1]
    return np.repeat(run_code, np.diff(starts, append=len(key))), starts[fresh]


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


def read_input(path: str | Path, digest=None) -> bytes:
    """An input file's bytes, also added to ``digest`` with a NUL; SchemaError names a file it cannot read."""
    try:
        data = Path(path).read_bytes()
    except (FileNotFoundError, NotADirectoryError):
        raise SchemaError(f"input file not found: {Path(path)}") from None
    except OSError as exc:
        raise SchemaError(f"cannot read input file {Path(path)}: {exc.strerror}") from None
    if digest is not None:
        digest.update(data)
        digest.update(b"\x00")
    return data


def _utf8(path: Path, data: bytes) -> str:
    """UTF-8 ``data`` without one leading byte-order mark; SchemaError naming a bad byte (from 1)."""
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text (byte {exc.start + 1})") from None


def _skipped(line: str) -> bool:
    """Whether a line is a '#' comment or blank; neither is a row of a table."""
    return line.startswith("#") or line.isspace()


def text_lines(path: Path, digest=None) -> list[str]:
    """The UTF-8 file's lines, with their line ends: ``\\n``, ``\\r\\n`` or a lone ``\\r``."""
    return io.StringIO(_utf8(path, read_input(path, digest)), newline="").readlines()


def data_lines(path: Path, digest=None) -> list[str]:
    """``text_lines`` without '#' comment lines and blank lines."""
    return list(filterfalse(_skipped, text_lines(path, digest)))


def metadata_lines(metadata: Mapping[str, str] | None) -> list[str]:
    """The '# key: value' lines a text artifact starts with, one per entry."""
    return [f"# {key}: {value}\n" for key, value in (metadata or {}).items()]


@contextmanager
def artifact_file(path: str | Path) -> Iterator[TextIO]:
    """A UTF-8 text file to write ``path`` through, replacing it only if the block completes.

    The text goes to a temporary file in the same directory, which is moved
    over ``path`` at the end, so an interrupted step never leaves a truncated
    artifact for the next step to read. The temporary file is created as
    ``open(path, "w")`` creates one, so the umask sets the permissions. There
    is no fsync: the guard is against an interrupted step, not a power loss.
    UTF-8 is used whatever the locale. A failed write raises ``SchemaError``.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except OSError as exc:
        raise SchemaError(f"cannot write {path}: {exc.strerror}") from None
    finally:
        with suppress(OSError):  # gone after the replace, or never made
            tmp.unlink()


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


def _first_cells(cells: list[str], alone: bool) -> list[str]:
    """A table's first cells, from ``_csv_cells``, quoted where their line
    would read as a comment (an unquoted '#' first) or, in a one-column
    (``alone``) table, as a blank line: ``read_table`` skips such lines."""
    if not alone and "#" not in "".join(cells):
        return cells
    return ['"' + c + '"' if c[:1] == "#" or alone and _skipped(c + "\n") else c for c in cells]


class Coded(NamedTuple):
    """A table column as its distinct values and one integer code per row:
    row ``i`` holds ``ids[codes[i]]``."""

    ids: Sequence
    codes: np.ndarray


def _coded(kind: type, column: Iterable) -> Coded:
    """``column`` as a ``Coded`` column: strings coded by first appearance,
    numbers by their bits, so ``-0.0`` and ``0.0`` are two values."""
    if isinstance(column, Coded):
        return column
    if kind is str:
        coder = _Codes()
        codes = coder.encode(list(column))
        return Coded(coder.ids, codes)
    values = np.asarray(column, dtype=kind)
    keys = values.view(np.int64) if values.dtype.kind == "f" else values
    distinct, codes = np.unique(keys, return_inverse=True)
    return Coded(distinct.view(values.dtype), codes)


def _cell_texts(kind: type, ids: Sequence) -> list[str]:
    """Each id's cell: a string as ``_csv_cells`` quotes it, a number's ``repr``."""
    if kind is str:
        return _csv_cells(list(ids))
    return list(map(repr, np.asarray(ids, dtype=kind).tolist()))


def write_table(
    path: str | Path,
    schema: Mapping[str, type],
    columns: Sequence[Iterable | Coded],
    metadata: Mapping[str, str] | None = None,
) -> None:
    """Write a CSV artifact: metadata lines, the header row, one row per entry.

    ``schema`` maps each header name to ``str``, ``int`` or ``float``, and
    ``columns`` holds one column per name; rows stop at the shortest.
    Strings are written as they are, quoted as ``csv.writer`` quotes them,
    and numbers with ``repr``, so each float reads back as the same double.
    A column is an iterable of values or, of any kind, a ``Coded`` column:
    its ids and one code per row. Every column is written through codes:
    strings are coded by first appearance and numbers, converted once to
    an array, by their distinct values. Each id's cell text is made once,
    and rows are gathered from the texts by code, WRITE_CHUNK_ROWS at a
    time. For two or more columns the bytes are those of
    ``csv.writer(lineterminator="\\n")``, except that a cell holding a
    ``\\r`` is always quoted: ``read_table`` ends a line at a lone ``\\r``,
    and some Python versions' writers leave it bare. For the same reader a
    row's first cell is quoted when it starts with '#', and so is a blank
    cell of a one-column table (``_first_cells``).
    """
    alone = len(schema) == 1
    texts, codes = [], []
    for k, (kind, column) in enumerate(zip(schema.values(), columns)):
        ids, column_codes = _coded(kind, column)
        cells = _cell_texts(kind, ids)
        texts.append(np.array(_first_cells(cells, alone) if k == 0 else cells, dtype=object))
        codes.append(np.asarray(column_codes))
    rows = min(map(len, codes))
    header = _csv_cells(list(schema))
    with artifact_file(path) as fh:
        fh.writelines(metadata_lines(metadata))
        fh.write(",".join(_first_cells(header[:1], alone) + header[1:]) + "\n")
        for lo in range(0, rows, WRITE_CHUNK_ROWS):
            cells = [t[c[lo : lo + WRITE_CHUNK_ROWS]].tolist() for t, c in zip(texts, codes)]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


# ---------------------------------------------------------------------------
# CSV text: one tokenizer for every table prevmap reads
# ---------------------------------------------------------------------------

# lines per window when splitting a table; bounds the memory one window's arrays take
LOAD_CHUNK_ROWS = 1 << 16
# the widest field cut out as a fixed-width bytes array; wider ones are decoded
# one by one
LOAD_FIELD_BYTES = 256

UTF8_BOM = b"\xef\xbb\xbf"
NEWLINE, COMMA, HASH, CR, QUOTE = b'\n,#\r"'
# BYTE_MASKS[k] keeps the first k bytes of a little-endian 8-byte word
BYTE_MASKS = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype="<u8")
# ENDS_FIELD[b]: whether byte b ends a field when it is outside quotes
ENDS_FIELD = np.isin(np.arange(256), (COMMA, NEWLINE, CR))
# word constants of _decimals; PAIR_MUL* are 100 + (10**6 << 32) and 1 + (10**4 << 32)
BYTE_ONES, LOW_NIBBLES = np.uint64(0x0101010101010101), np.uint64(0x0F0F0F0F0F0F0F0F)
PAIR_MASK = np.uint64(0x000000FF000000FF)
PAIR_MUL, PAIR_MUL_HIGH = np.uint64(0x000F424000000064), np.uint64(0x0000271000000001)
POWERS_OF_TEN = 10.0 ** np.arange(8)


class _BadRecord(Exception):
    """The first record of a CSV text that breaks a rule; the message says which rule."""


@dataclass(frozen=True, eq=False)
class _Records:
    """Consecutive records of a CSV file, each a run of fields ``data[left:right]``.

    Record ``i`` holds fields ``first[i]`` to ``first[i + 1] - 1`` (``first[0]``
    is 0). Enclosing quotes lie outside the bounds. ``doubled`` holds the
    position of each doubled quote (None: the records hold none).
    ``at_end``: whether the window they come from reaches the end of the file.
    """

    data: bytes
    first: np.ndarray
    left: np.ndarray
    right: np.ndarray
    doubled: np.ndarray | None
    at_end: bool

    def __len__(self) -> int:
        return len(self.first) - 1

    def cells(self, i: int) -> list[str]:
        """Record ``i``'s fields as str."""
        a, b = self.first[i], self.first[i + 1]
        bounds = zip(self.left[a:b].tolist(), self.right[a:b].tolist())
        return [self.data[lo:hi].decode().replace('""', '"') for lo, hi in bounds]

    def part(self, start: int, stop: int) -> _Records:
        """Records ``start`` to ``stop - 1``."""
        a, b = self.first[start], self.first[stop]
        first = self.first[start:stop + 1] - a
        return _Records(self.data, first, self.left[a:b], self.right[a:b], self.doubled, self.at_end)


def _records(data: bytes, pos: int) -> Iterator[_Records]:
    """The records of the CSV text ``data[pos:]``, a window of LOAD_CHUNK_ROWS lines at a time.

    The rules are RFC 4180's. Outside quotes, a record ends at a line end
    and a field at a comma. A field that starts with a quote runs to its
    closing quote, which a comma or the record's end must follow, and holds
    a quote as ``""``. Any other quote breaks the rules, as do a NUL in a
    record and a quote open at the end of the file. A '#' line or a blank
    line is skipped where a record starts; inside quotes it is text.

    Quote parity comes from the window's sorted quote positions; only a
    skippable line holding an odd number of quotes can move it, and those
    few lines are looked at one by one. The records before the first one
    that breaks a rule are yielded, then that record raises ``_BadRecord``;
    its reader names the row. Past the header's window, ``_split`` runs this
    generator on a helper thread one window ahead of its caller, so its
    windows and errors reach the caller in file order.
    """
    rows, window = LOAD_CHUNK_ROWS, 64 * LOAD_CHUNK_ROWS
    while pos < len(data):  # a window's arrays are freed before the next window's are made
        pos, rows, window = yield from _window(data, pos, rows, window)


def _window(
    data: bytes, pos: int, rows: int, window: int
) -> Generator[_Records, None, tuple[int, int, int]]:
    """The ``_records`` chunk of ``rows`` lines from byte ``pos`` on, if a record ends in
    them; returns the next window's start, rows (twice these if none does) and bytes.

    Line ends are looked for in ``window`` bytes, doubled until ``rows`` are found.
    A record's first field is at a multiple of the field count where every record
    has as many fields, and is searched for among the field ends where they differ.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    n = len(buf)
    while True:  # line ends: "\n", "\r\n", or a "\r" that no "\n" follows
        hi = min(pos + window, n)
        marks = buf[pos:hi] == NEWLINE
        if data.find(b"\r", pos, hi) >= 0:
            marks[:-1] |= (buf[pos:hi - 1] == CR) & ~marks[1:]
            marks[-1] |= buf[hi - 1] == CR and (hi == n or buf[hi] != NEWLINE)
        ends = pos + np.flatnonzero(marks)[:rows]  # each line's last byte
        if len(ends) == rows or hi == n:
            break
        window *= 2
    del marks  # window-sized, like the other masks deleted below
    if len(ends) < rows and (ends[-1] if len(ends) else pos - 1) < n - 1:
        ends = np.append(ends, n)  # a last line without a line end
    window = (int(ends[-1]) + 1 - pos) * 5 // 4 + 1  # the next window: a quarter longer
    starts = np.concatenate(([pos], ends[:-1] + 1))
    crlf = (buf[np.minimum(ends, n - 1)] == NEWLINE) & (buf[ends - 1] == CR) & (ends > 0)
    stops = ends - crlf  # where each line's text stops
    lead = buf[starts]
    skippable = lead == HASH
    for i in np.flatnonzero((lead <= 32) | (lead >= 128)).tolist():
        skippable[i] = _skipped(data[starts[i]:ends[i] + 1].decode())
    quotes, odd = None, np.zeros(len(starts), dtype=bool)  # odd: lines with an odd quote count
    if data.find(b'"', pos, int(ends[-1])) >= 0:
        quotes = pos + np.flatnonzero(buf[pos:ends[-1]] == QUOTE)
        odd = np.diff(np.searchsorted(quotes, ends), prepend=0) % 2 == 1
        # a skippable line is skipped where a record starts: its quotes do not count
        parity, flip = np.cumsum(odd) % 2, 0
        for i in np.flatnonzero(skippable & odd).tolist():
            if (parity[i - 1] if i else 0) == flip:
                odd[i], flip = False, flip ^ 1
    open_after = np.cumsum(odd) % 2 == 1
    at_end = bool(ends[-1] + 1 >= n)
    k = len(starts) if at_end or open_after.all() else int(np.flatnonzero(~open_after)[-1]) + 1
    still_open = bool(open_after[k - 1])  # a record the window's last line leaves open
    open_after[k - 1] = False
    starts, stops, ends, open_after = starts[:k], stops[:k], ends[:k], open_after[:k]
    open_before = np.concatenate(([False], open_after[:-1]))
    skip = skippable[:k] & ~open_before
    rs, re = starts[~skip & ~open_before], stops[~skip & ~open_after]
    if not len(rs):
        return int(ends[-1]) + 1, LOAD_CHUNK_ROWS, window

    lo, hi = int(rs[0]), int(re[-1])
    gaps = np.flatnonzero(skip & (starts > lo) & (starts < hi))
    text = buf[lo:hi].copy() if len(gaps) else buf[lo:hi]
    for i in gaps.tolist():  # blank out the lines skipped between records
        text[starts[i] - lo:ends[i] - lo] = ord(" ")
    ends_field = np.zeros(hi + 1 - lo, dtype=bool)  # whether byte lo + i ends a field
    np.equal(text, COMMA, out=ends_field[:-1])
    if quotes is not None:
        quotes = quotes[slice(*np.searchsorted(quotes, (lo, hi)))]
        quotes = quotes[text[quotes - lo] == QUOTE]
        inside = np.zeros(hi + 1 - lo, dtype=bool)
        inside[quotes - lo] = True
        ends_field &= ~np.logical_xor.accumulate(inside)  # no comma inside quotes
        del inside
    ends_field[re - lo] = True
    right = np.flatnonzero(ends_field)
    right += lo
    del ends_field
    w = len(right) // len(re)  # fields per record, when every record has as many
    if len(right) == w * len(re) and np.array_equal(right[w - 1::w], re):
        first = np.arange(0, len(right) + 1, w)
    else:  # ragged records
        first = np.concatenate(([0], np.searchsorted(right, re) + 1))
    left = np.empty_like(right)
    np.add(right[:-1], 1, out=left[1:])
    left[first[:-1]] = rs

    problems, doubled = [], None  # problems: (byte, reason) of the first break of each rule
    if quotes is not None and len(quotes):
        # quotes alternate, opening (o) and closing (c); a closing quote glued
        # to the next opening one makes a doubled quote
        o, c = quotes[0::2], quotes[1::2]
        glued = c[:len(o) - 1] + 1 == o[1:]
        after_quote = np.concatenate(([False], glued))
        before_quote = np.concatenate((glued, np.zeros(len(c) - len(glued), dtype=bool)))
        # a field opens at a record's start or after a separator, and closes before one
        bad = ~after_quote & (o != lo) & ~ENDS_FIELD[buf[o - 1]]
        if bad.any():
            problems.append((int(o[np.argmax(bad)]), "quote inside an unquoted field at byte {}"))
        bad = ~before_quote & (c + 1 != n) & ~ENDS_FIELD[buf[np.minimum(c + 1, n - 1)]]
        if bad.any():
            problems.append((int(c[np.argmax(bad)]) + 1, "text after a closing quote at byte {}"))
        if still_open and at_end:
            problems.append((int(o[~after_quote][-1]),
                             "quote opened at byte {} is not closed by the end of the file"))
        enclosed = buf[np.minimum(left, n - 1)] == QUOTE
        left += enclosed
        right -= enclosed
        doubled = c[before_quote] if before_quote.any() else None
    if data.find(b"\0", lo, hi) >= 0 and (nuls := np.flatnonzero(text == 0)).size:
        problems.append((lo + int(nuls[0]), "NUL at byte {}"))

    records = _Records(data, first, left, right, doubled, at_end)
    if problems:
        at_byte, reason = min(problems, key=lambda problem: problem[0])
        yield records.part(0, int(np.searchsorted(rs, at_byte, side="right")) - 1)
        raise _BadRecord(reason.format(at_byte + 1))
    if still_open:
        return pos, 2 * rows, window
    yield records
    return int(ends[-1]) + 1, LOAD_CHUNK_ROWS, window


@functools.cache
def _malloc_trim():
    """The C library's ``malloc_trim`` (glibc's), or None where it has none."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return None
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return trim


class _ReadAhead:
    """The items of ``items`` in order; with ``ahead``, each next one is made
    on a helper thread while the caller works on the one before.

    The helper starts item k + 1 only once the caller has taken item k, so
    at most two items are alive at once: the caller's and the next. An
    exception that ends ``items``, StopIteration included, is raised by
    ``__next__`` after every item made before it, where the serial loop
    raises it, and closes the helper. ``close`` (also on leaving a ``with``
    block) stops the helper, joins it and trims the C heap; a caller that
    leaves early drops the item being made, and any exception that would
    have followed it.
    """

    def __init__(self, items: Iterator[_Records], ahead: bool) -> None:
        self._items, self._helper, self._next = items, None, None
        if ahead:
            # imported here: a file of one window, as every artifact is, starts no thread
            from concurrent.futures import ThreadPoolExecutor

            self._helper = ThreadPoolExecutor(1, "prevmap-read-ahead")
            self._next = self._helper.submit(next, items)

    def __iter__(self) -> _ReadAhead:
        return self

    def __next__(self) -> _Records:
        if self._helper is None:
            return next(self._items)
        try:
            item = self._next.result()
        except BaseException:
            # close drops the future: exception -> traceback -> this frame ->
            # self -> future -> exception would be a cycle holding the file's
            # bytes until a garbage collection
            self.close()
            raise
        self._next = self._helper.submit(next, self._items)
        return item

    def close(self) -> None:
        if self._helper is not None:
            self._helper.shutdown(cancel_futures=True)
            self._helper = self._next = None
            # glibc gives the helper a malloc arena of its own, and the pages
            # of the windows freed there stay resident after the thread ends
            # (19 MB after a million records; 5 MB once trimmed)
            if (trim := _malloc_trim()) is not None:
                trim(0)

    def __enter__(self) -> _ReadAhead:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _split(path: Path, digest) -> tuple[bytes, list[str], _ReadAhead]:
    """A CSV file's bytes, its stripped header names ([] for no record) and the
    ``_records`` chunks after them; one leading byte-order mark is skipped. An
    unreadable file, a byte that is not UTF-8 (named) or a header that breaks a
    rule of ``_records`` raises ``SchemaError``.

    The windows up to the header's are split on the caller's thread. Unless
    the header's window reaches the end of the file, the chunks come from a
    ``_ReadAhead`` whose helper thread starts here, so the next window is
    split while the caller codes this one. The caller closes the chunks
    (``with chunks:``) on every way out.
    """
    data = read_input(path, digest)
    if not data.isascii():
        _utf8(path, data)  # only to raise on a byte that is not UTF-8
    chunks = _records(data, len(UTF8_BOM) if data.startswith(UTF8_BOM) else 0)
    try:
        for records in chunks:
            if len(records):
                header = [name.strip() for name in records.cells(0)]
                rest = chain([records.part(1, len(records))], chunks)
                return data, header, _ReadAhead(rest, not records.at_end)
    except _BadRecord as exc:
        raise SchemaError(f"{path}: header: {exc}") from None
    return data, [], _ReadAhead(iter(()), False)


def read_table(path: str | Path, schema: Mapping[str, type], digest=None) -> list[dict]:
    """The rows of a CSV artifact, as dicts from each ``schema`` column to its value.

    The file is split by ``_split``, the next window on a helper thread
    while this one's rows are converted; errors surface in file order and
    the helper is joined before this returns or raises. Header names are
    stripped and columns looked up by name, so the file may hold others.
    Each cell is converted by its column's type. A row whose field count differs from the header's,
    whose cell does not convert, or that breaks a rule of ``_records``
    raises ``SchemaError`` naming the row (1-based, data rows only). A table
    with a ``region_id`` column is keyed by it: a row that repeats an id
    raises ``ConsistencyError`` naming the file, the row and the id.
    """
    path = Path(path)
    _, header, chunks = _split(path, digest)
    with chunks:
        missing = [name for name in schema if name not in header]
        if missing:
            raise SchemaError(f"{path}: missing column(s) {', '.join(map(repr, missing))}")
        fields = [(name, header.index(name), kind) for name, kind in schema.items()]
        rows: list[dict] = []
        ids: set[str] = set()
        try:
            for records in chunks:
                for i in range(len(records)):
                    row_no, row = len(rows) + 1, records.cells(i)
                    if len(row) != len(header):
                        raise SchemaError(f"{path}: row {row_no}: {len(row)} fields, the header "
                                          f"has {len(header)}")
                    try:
                        values = {name: kind(row[j]) for name, j, kind in fields}
                    except ValueError as exc:
                        raise SchemaError(f"{path}: row {row_no}: {exc}") from None
                    if "region_id" in values:
                        if values["region_id"] in ids:
                            raise ConsistencyError(
                                f"{path}: row {row_no}: duplicate region_id {values['region_id']!r}")
                        ids.add(values["region_id"])
                    rows.append(values)
        except _BadRecord as exc:
            raise SchemaError(f"{path}: row {len(rows) + 1}: {exc}") from None
    return rows


# ---------------------------------------------------------------------------
# CSV records
# ---------------------------------------------------------------------------


def _columns(
    data: bytes, chunks: Iterable[_Records], usecols: list[int]
) -> Iterator[list[np.ndarray]]:
    """Fields ``usecols`` of the records in the ``_split`` chunks, a column at a time.

    A column is a NUL-padded fixed-width bytes array, its fields gathered a
    little-endian 8-byte word at a time from a zero-padded copy of the chunk.
    Where every record of the chunk has as many fields, a column's bounds are
    strided views of the chunk's; where every field of a column has one
    length, each of its words takes one byte mask. Where the chunk holds a
    doubled quote, a field holding one is cut again, undoubled. A column
    with a field wider than LOAD_FIELD_BYTES is an object array of str
    instead. A chunk's columns stop before its first record that is too
    short for ``usecols``, which then raises ``_BadRecord``, as ``_records``
    does for a record that breaks one of its rules.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    need = max(usecols) + 1
    for records in chunks:
        widths = np.diff(records.first)
        short = _first_true(widths < need)
        stop = len(records) if short is None else short
        lo = int(records.left[0]) if stop else 0
        hi = int(records.right[records.first[stop] - 1]) if stop else 0
        padded = np.zeros(hi - lo + LOAD_FIELD_BYTES + 8, dtype=np.uint8)
        padded[:hi - lo] = buf[lo:hi]
        words = np.ndarray((len(padded) - 7,), dtype="<u8", buffer=padded, strides=(1,))
        w = int(widths[0]) if stop else 0
        rectangular = stop > 0 and (widths[:stop] == w).all()
        columns = []
        for j in usecols:
            at = slice(j, w * stop, w) if rectangular else records.first[:stop] + j
            left, right = records.left[at], records.right[at]
            length = right - left
            longest = int(length.max(initial=1))
            n_words = -(-longest // 8)
            if 8 * n_words > LOAD_FIELD_BYTES:
                bounds = zip(left.tolist(), right.tolist())
                columns.append(np.array([data[a:b].decode().replace('""', '"') for a, b in bounds],
                                        dtype=object))
                continue
            start = left - lo
            one_length = length.min(initial=longest) == longest
            cells = np.empty((stop, n_words), dtype="<u8")
            for k in range(n_words):
                mask = BYTE_MASKS[min(longest - 8 * k, 8) if one_length
                                  else np.clip(length - 8 * k, 0, 8)]
                cells[:, k] = words[start + 8 * k] & mask
            cells = cells.view(f"S{8 * n_words}").ravel()
            doubled = records.doubled
            if doubled is not None:
                for i in np.flatnonzero(np.searchsorted(doubled, left) < np.searchsorted(doubled, right)):
                    cells[i] = data[left[i]:right[i]].replace(b'""', b'"')
            columns.append(cells)
        del padded, words, records, left, right  # freed before the next chunk is taken
        yield columns
        if short is not None:
            raise _BadRecord(f"{widths[short]} fields, need {need}")


def _text(field) -> str:
    """A field as str: fields cut to a fixed width are bytes, wider ones str."""
    return field.decode() if isinstance(field, bytes) else field


def _decimals(raw: np.ndarray) -> np.ndarray | None:
    """float() of every ``S8`` field if each is ``digits[.digits]``, else None.

    Such a field is M / 10**k, with M its digits as an integer (< 10**8)
    and k the digits after the dot (<= 7). Both are exact doubles, so the
    correctly rounded division gives ``float``'s bits (Clinger's fast path).
    M is read from the field's little-endian word: the dot is dropped, the
    digits right-aligned, and three multiplies combine eight digits
    (Lemire, "Number parsing at a gigabyte per second"). Only ``np.uint64``
    constants enter the word arithmetic, so every result stays uint64.
    """
    # a bool mask over the bytes, viewed as words, holds byte 1 where set
    word, byte = raw.view("<u8"), raw.view(np.uint8)
    digit = ((byte - np.uint8(ord("0"))) < np.uint8(10)).view("<u8")
    dot = (byte == np.uint8(ord("."))).view("<u8")
    used = (byte != 0).view("<u8") * np.uint64(0xFF)  # 0xFF in each byte of the field
    if not (
        (((digit | dot) * np.uint64(0xFF)) == used)
        & ((dot & (dot - np.uint64(1))) == 0)  # at most one dot
        & (digit != 0)
        & ((used & (used + np.uint64(1))) == 0)  # no NUL before the field's last byte
    ).all():
        return None
    below = dot - np.uint64(1)  # the bytes before the dot; every byte when there is none
    digits = ((word & below) | ((word >> np.uint64(8)) & ~below)) & LOW_NIBBLES
    n_digits = (digit * BYTE_ONES) >> np.uint64(56)
    n_frac = n_digits - (((digit & below) * BYTE_ONES) >> np.uint64(56))
    digits <<= np.uint64(64) - (n_digits << np.uint64(3))
    digits = digits * np.uint64(10) + (digits >> np.uint64(8))
    digits = (digits & PAIR_MASK) * PAIR_MUL + ((digits >> np.uint64(16)) & PAIR_MASK) * PAIR_MUL_HIGH
    return (digits >> np.uint64(32)).astype(np.float64) / POWERS_OF_TEN[n_frac]


def _parse_floats(raw: np.ndarray) -> tuple[np.ndarray, tuple[int, str] | None]:
    """float() of every entry; on a failure, the values before it and (index, reason).

    Fields of one 8-byte word that are all one digit (0/1 outcomes) are read
    by one subtraction, and fields that are all ``digits[.digits]`` by
    ``_decimals``; both give ``float``'s bits. Any other entry is decoded
    first. NumPy's bytes-to-float cast gives the same double as ``float``
    for every string it accepts; it rejects some that ``float`` takes
    (non-ASCII digits), and those rows go through ``float`` one at a time.
    """
    if raw.dtype == "S8":
        word = raw.view("<u8")
        if ((word >= ord("0")) & (word <= ord("9"))).all():
            return (word - ord("0")).astype(np.float64), None
        values = _decimals(raw)
        if values is not None:
            return values, None
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

        Fields cut from bytes are grouped by their 8-byte words with
        ``first_appearance``, and each distinct field is decoded and stripped
        once. Fields wider than LOAD_FIELD_BYTES come as str and are looked
        up one by one.
        """
        if raw.dtype == object:
            return self.codes[name].encode(list(map(str.strip, raw)))
        group, first = first_appearance(raw.view("<u8").reshape(len(raw), raw.itemsize // 8))
        coded = self.codes[name].encode([f.decode().strip() for f in raw[first].tolist()])
        return coded[group]

    def add(self, fields: dict[str, np.ndarray]) -> PrevmapError | None:
        """Append the chunk's rows up to its first bad one; return that row's error.

        A row is bad when its weight or outcome is not a number, or its
        outcome is not 0 or 1.
        """
        weight, bad_weight = _parse_floats(fields["weight"])
        outcome, bad_outcome = _parse_floats(fields["outcome"])
        problems: list[tuple[int, int, str]] = []  # (row, rank in the row, message)
        for rank, bad in enumerate((bad_weight, bad_outcome)):
            if bad is not None:
                problems.append((bad[0], rank, f"unparseable row ({bad[1]})"))
        parsed = min(len(weight), len(outcome))
        i = _first_true((outcome[:parsed] != 0) & (outcome[:parsed] != 1))
        if i is not None:
            got = _text(fields["outcome"][i])
            problems.append((i, 2, f"outcome must be 0 or 1, got {got!r}"))
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


def load_records(path: str | Path, schema: Mapping[str, str] | None = None, digest=None) -> SurveyTable:
    """Read and validate individual records from a UTF-8 CSV file.

    ``schema`` maps canonical column names (``region_id``, ``cluster_id``,
    ``weight``, ``outcome``, optionally ``stratum``) to the actual header
    names in the file. Extra columns are ignored. Ids are stripped of
    surrounding whitespace. Errors name the first bad data row (1-based,
    comment and blank lines not counted).

    The file is read once as bytes and split into fields by ``_split``,
    with array operations, about LOAD_CHUNK_ROWS lines at a time: a helper
    thread splits the next window while this thread codes the current one,
    and errors surface in file order, as if one thread did both. A row
    needs at least the fields up to the last column used; one with fewer,
    or one that breaks a quoting rule of ``_records`` (a quote inside an
    unquoted field, text after a closing quote, a quote open at the end of
    the file, a NUL), is an unparseable row naming the row and the byte.
    """
    path = Path(path)
    mapping = dict(schema or {})
    data, header, chunks = _split(path, digest)
    with chunks:
        if not header:
            raise SchemaError(f"records file {path} is empty")
        col_idx: dict[str, int] = {}
        for canonical in RECORD_COLUMNS:
            actual = mapping.get(canonical, canonical)
            if actual not in header:
                raise SchemaError(f"missing column {actual!r} (for {canonical!r}) in {path}")
            col_idx[canonical] = header.index(actual)
        for canonical in OPTIONAL_RECORD_COLUMNS:
            actual = mapping.get(canonical, canonical)
            if actual in header:
                col_idx[canonical] = header.index(actual)

        names = list(col_idx)
        builder = _TableBuilder()
        pending = None
        try:
            for columns in _columns(data, chunks, list(col_idx.values())):
                pending = builder.add(dict(zip(names, columns)))
                if pending is not None:
                    break
        except _BadRecord as exc:
            pending = RecordValidationError(f"row {builder.n_rows + 1}: unparseable row ({exc})")
    del data, chunks  # the file's bytes are not needed to join the parts
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
    columns = [Coded(records.region_ids, records.region), Coded(records.cluster_ids, records.cluster),
               records.weight, records.outcome]
    used = np.bincount(records.stratum, minlength=len(records.stratum_ids)) > 0
    if any(compress(records.stratum_ids, used)):
        schema["stratum"] = str
        columns.append(Coded(records.stratum_ids, records.stratum))
    write_table(path, schema, columns, metadata)


# ---------------------------------------------------------------------------
# GeoJSON boundaries
# ---------------------------------------------------------------------------


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


def load_boundaries(path: str | Path, digest=None) -> list[RegionBoundary]:
    """Read region boundaries from a GeoJSON FeatureCollection.

    A document of the wrong shape (a feature, its properties or its geometry
    not an object, features or coordinates not arrays) raises
    ``SchemaError`` or ``GeometryError`` naming the file and the feature.
    """
    path = Path(path)
    text = _utf8(path, read_input(path, digest))
    # the cyclic collector stays off until the document is gone: parsing
    # builds one list per vertex and sets off a collection every few hundred,
    # which took about a third of json.loads's time on 400-vertex rings, and
    # each collection while the document lives walks every vertex list
    enabled = gc.isenabled()
    gc.disable()
    try:
        try:
            doc = json.loads(text)
        # ValueError holds JSONDecodeError and an integer past Python's digit
        # limit; RecursionError, arrays nested past the parser's depth
        except (ValueError, RecursionError) as exc:
            raise SchemaError(f"{path}: not valid JSON: {exc}") from None
        boundaries = _boundaries(doc, path)
        del doc
    finally:
        if enabled:
            gc.enable()
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
        for key in ("region_id", "country"):  # only these have one text form; a bool is no int
            if props.get(key) is not None and type(props[key]) not in (str, int):
                raise SchemaError(f"{path}: feature {k}: properties.{key} must be a string or an "
                                  f"integer, got {_json_kind(props[key])}")
        region_id = props.get("region_id")
        if region_id is None or region_id == "":
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
