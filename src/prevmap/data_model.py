"""Domain types and validated ingestion of survey records and region boundaries.

Records arrive as CSV (one row per surveyed individual), boundaries as a
GeoJSON FeatureCollection. Both loaders validate every invariant up front and
raise a diagnostic instead of ever returning a partial dataset. Loaded
datasets are treated as immutable.
"""

from __future__ import annotations

import csv
import gc
import json
import logging
import os
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, compress, count, filterfalse, repeat
from operator import attrgetter, contains, itemgetter
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
    provenance: str = ""

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


def data_lines(path: Path) -> list[str]:
    """The file's lines without '#' comment lines and blank lines (SchemaError if missing)."""
    try:
        with path.open("r", newline="") as fh:
            return [line for line in fh if not (line.startswith("#") or line.isspace())]
    except FileNotFoundError:
        raise SchemaError(f"file not found: {path}") from None


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


def write_table(
    path: str | Path,
    schema: Mapping[str, type],
    columns: Sequence[Sequence],
    metadata: Mapping[str, str] | None = None,
) -> None:
    """Write a CSV artifact: metadata lines, the header row, one row per entry.

    ``schema`` maps each header name to ``str``, ``int`` or ``float``, and
    ``columns`` holds one sequence per name. Strings are written as they are
    and numbers with ``repr``, so each float reads back as the same double.
    Numeric columns are converted once, as an array, not cell by cell.
    """
    cells = [
        column if kind is str else map(repr, np.asarray(column, dtype=kind).tolist())
        for kind, column in zip(schema.values(), columns)
    ]
    with artifact_file(path) as fh:
        fh.writelines(metadata_lines(metadata))
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(schema)
        writer.writerows(zip(*cells))


def read_table(path: str | Path, schema: Mapping[str, type]) -> list[dict]:
    """The rows of a CSV artifact, as dicts from each ``schema`` column to its value.

    Comment and blank lines are skipped and header names stripped; columns
    are looked up by name, so the file may hold others. Each cell is
    converted by its column's type. A row whose field count differs from the
    header's, or whose cell does not convert, raises ``SchemaError`` naming
    the row (1-based, data rows only).
    """
    path = Path(path)
    reader = csv.reader(data_lines(path))
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

# rows per NumPy tokenizer call when loading records; bounds the memory held
# as Python strings at one time
LOAD_CHUNK_ROWS = 1 << 16


def _split_fields(
    lines: list[str], usecols: list[int]
) -> tuple[list[np.ndarray], tuple[int, str] | None]:
    """Fields ``usecols`` of the CSV records in ``lines``, as object arrays of str.

    NumPy's C tokenizer reads the common case. When it rejects the text (a
    record too short for ``usecols``, say), the stdlib reader takes over: the
    columns then stop before the first record that cannot be read, which is
    returned as (index, reason).
    """
    try:
        fields = np.loadtxt(
            lines, dtype=object, delimiter=",", quotechar='"', comments=None,
            usecols=usecols, ndmin=2,
        )
        return list(fields.T), None
    except ValueError:
        pass
    rows: list[list[str]] = []
    problem = None
    try:
        rows.extend(csv.reader(lines))
    except csv.Error as exc:
        problem = (len(rows), str(exc))
    need = max(usecols) + 1
    widths = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    short = _first_true(widths < need)
    if short is not None:
        problem = (short, f"{widths[short]} fields, need {need}")
        rows = rows[:short]
    columns = list(zip(*map(itemgetter(*usecols), rows))) or [()] * len(usecols)
    return [np.array(col, dtype=object) for col in columns], problem


def _parse_floats(raw: np.ndarray) -> tuple[np.ndarray, tuple[int, str] | None]:
    """float() of every entry; on a failure, the values before it and (index, reason)."""
    try:
        return raw.astype(np.float64), None
    except ValueError:
        pass
    for i, text in enumerate(raw):  # error path: locate the entry float() rejects
        try:
            float(text)
        except ValueError as exc:
            return raw[:i].astype(np.float64), (i, str(exc))
    raise AssertionError("unreachable")


class _TableBuilder:
    """Accumulates parsed record fields chunk by chunk into one SurveyTable."""

    def __init__(self) -> None:
        self.codes = {name: _Codes() for name in ID_COLUMNS}
        self.parts: dict[str, list[np.ndarray]] = {
            name: [] for name in (*ID_COLUMNS, "weight", "outcome")
        }
        self.n_rows = 0

    def add(
        self, fields: dict[str, np.ndarray], unreadable: tuple[int, str] | None
    ) -> PrevmapError | None:
        """Append the chunk's rows up to its first bad one; return that row's error.

        ``unreadable`` is the first record the tokenizer could not split, as
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
            problems.append((i, 3, f"outcome must be 0 or 1, got {fields['outcome'][i]!r}"))
        stop, _, message = min(problems, default=(len(fields["weight"]), 0, ""))
        for name in ID_COLUMNS:
            if name in fields:
                ids = list(map(str.strip, fields[name][:stop]))
                self.parts[name].append(self.codes[name].encode(ids))
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
    """Read and validate individual records from a CSV file.

    ``schema`` maps canonical column names (``region_id``, ``cluster_id``,
    ``weight``, ``outcome``, optionally ``stratum``) to the actual header
    names in the file. Extra columns are ignored. Ids are stripped of
    surrounding whitespace. Errors name the first bad data row (1-based,
    comment and blank lines not counted).
    """
    path = Path(path)
    mapping = dict(schema or {})
    lines = data_lines(path)
    reader = csv.reader(lines)
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError(f"records file {path} is empty") from None
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

    body = lines[reader.line_num:]
    # a quoted field may span lines, so quoted text is tokenized in one piece
    quoted = any(map(contains, body, repeat('"')))
    step = max(len(body), 1) if quoted else LOAD_CHUNK_ROWS
    names = list(col_idx)
    builder = _TableBuilder()
    pending = None
    for start in range(0, len(body), step):
        columns, unreadable = _split_fields(body[start:start + step], list(col_idx.values()))
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

    A parsed GeoJSON document is a tree of one small list per vertex; it has
    no cycles to find, but building it triggers a collection every few
    hundred lists, which took about a third of ``json.load``'s time on
    400-vertex rings.
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


def load_boundaries(path: str | Path) -> list[RegionBoundary]:
    """Read region boundaries from a GeoJSON FeatureCollection."""
    path = Path(path)
    if not path.exists():
        raise SchemaError(f"boundaries file not found: {path}")
    with path.open("r") as fh, _gc_paused():
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: not valid JSON: {exc}") from None
    kind = doc.get("type") if isinstance(doc, dict) else type(doc).__name__
    if kind != "FeatureCollection":
        raise SchemaError(f"{path}: expected a FeatureCollection, got {kind!r}")

    boundaries: list[RegionBoundary] = []
    seen: set[str] = set()
    for feat in doc.get("features", []):
        props = feat.get("properties") or {}
        region_id = props.get("region_id")
        if not region_id:
            raise SchemaError(f"{path}: feature without properties.region_id")
        region_id = str(region_id)
        if region_id in seen:
            raise ConsistencyError(f"duplicate region_id {region_id!r} in {path}")
        seen.add(region_id)
        geom = feat.get("geometry") or {}
        gtype = geom.get("type")
        coords = geom.get("coordinates", [])
        if gtype == "Polygon":
            polys = [coords]
        elif gtype == "MultiPolygon":
            polys = coords
        else:
            raise GeometryError(
                f"feature {region_id!r}: unsupported geometry type {gtype!r}"
            )
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
    log.info("loaded %d boundaries from %s", len(boundaries), path)
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


def drop_unlinked(
    records: SurveyTable,
    boundaries: Sequence[RegionBoundary],
    provenance: str = "",
) -> tuple[SurveyDataset, DropReport]:
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
    dataset = SurveyDataset(records=kept, regions=regions, provenance=provenance)
    return dataset, report
