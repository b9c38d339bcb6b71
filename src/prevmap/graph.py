"""Region adjacency from shared polygon borders, and the ICAR precision structure.

Two regions are neighbors when their boundaries share at least one edge
segment (rook contiguity) after quantizing vertex coordinates to a tolerance
grid. Country labels play no role: borders between countries produce edges
like any other, so estimation can borrow strength across them.

Each ring is a read-only (k, 2) float64 array with its closing vertex (see
``RegionBoundary``, which also accepts tuples of (x, y) pairs and rejects
non-finite coordinates). ``build_adjacency`` works on all vertices at once:
it quantizes them, numbers the distinct ones, and groups equal segments with
one sort, so no Python code runs per vertex.

The precision structure Q is kept in sparse edge-list form at unit scale.
"B" style uses binary weights (Q = D - A); "W" style uses symmetrized
row-normalized weights w_ij = (1/d_i + 1/d_j)/2 so the pairwise-difference
density stays well defined. In both cases

    x' Q x = sum over edges (i,j) of w_ij * (x_i - x_j)**2

and rank(Q) = n - (number of connected components).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import dropwhile
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .data_model import RegionBoundary, artifact_file, metadata_lines, text_lines
from .errors import EmptyDatasetError, GeometryError, SchemaError

STYLES = ("B", "W")


@dataclass(frozen=True)
class AdjacencyGraph:
    """Region contiguity graph: sorted nodes, canonical undirected edges."""

    node_ids: tuple[str, ...]
    edges: frozenset[tuple[str, str]]
    components: tuple[tuple[str, ...], ...]
    style: str = "B"

    @classmethod
    def from_edges(
        cls,
        node_ids: Sequence[str],
        edges: Sequence[tuple[str, str]],
        style: str = "B",
    ) -> "AdjacencyGraph":
        if style not in STYLES:
            raise ValueError(f"unknown weighting style {style!r}, expected one of {STYLES}")
        nodes = tuple(sorted(set(node_ids)))
        known = set(nodes)
        canon = set()
        for a, b in edges:
            if a == b:
                raise ValueError(f"self-loop on node {a!r}")
            if a not in known or b not in known:
                raise ValueError(f"edge ({a!r}, {b!r}) references unknown node")
            canon.add((a, b) if a < b else (b, a))
        return cls(nodes, frozenset(canon), _components(nodes, canon), style)

    def n_components(self) -> int:
        return len(self.components)


def _components(
    nodes: Sequence[str], edges: set[tuple[str, str]]
) -> tuple[tuple[str, ...], ...]:
    parent = {nid: nid for nid in nodes}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    groups: dict[str, list[str]] = {}
    for nid in nodes:
        groups.setdefault(find(nid), []).append(nid)
    return tuple(sorted(tuple(sorted(g)) for g in groups.values()))


# ---------------------------------------------------------------------------
# Adjacency from boundary polygons
# ---------------------------------------------------------------------------


def build_adjacency(
    boundaries: Sequence[RegionBoundary],
    tolerance: float = 1e-6,
    style: str = "B",
) -> AdjacencyGraph:
    """Rook-contiguity graph over regions that share a border segment.

    ``tolerance`` (degrees) sets the coordinate quantization grid; vertices
    that agree within it are treated as identical, so shared borders need not
    match bit-for-bit. Country labels are ignored by construction.
    """
    if len(boundaries) < 2:
        raise EmptyDatasetError(f"need at least 2 boundaries, got {len(boundaries)}")
    if not tolerance >= 0:
        raise GeometryError(f"tolerance must be >= 0, got {tolerance!r}")
    if tolerance == float("inf"):
        raise GeometryError(f"tolerance must be finite, got {tolerance!r}")
    ordered = sorted(boundaries, key=lambda bb: bb.region_id)
    ids = sorted({b.region_id for b in ordered})
    code = {rid: k for k, rid in enumerate(ids)}
    rings = [(k, ring) for k, b in enumerate(ordered) for ring in b.rings()]
    lengths = np.array([len(ring) for _, ring in rings], dtype=np.intp)
    xy = np.concatenate([ring for _, ring in rings] or [np.empty((0, 2))])
    if tolerance > 0:
        with np.errstate(over="ignore"):
            xy = np.rint(xy / tolerance)  # as round(): to nearest, ties to even
        if not np.isfinite(xy).all():
            raise GeometryError(
                f"tolerance {tolerance!r} is too small for these coordinates "
                "(quantized values overflow)"
            )
    # number the distinct vertices in lexicographic order, so that comparing
    # two numbers compares the (x, y) pairs they stand for; -0.0 and 0.0 are
    # one value to the sort and to !=, as they are to a tuple key
    by_xy = np.lexsort((xy[:, 1], xy[:, 0]))
    fresh = np.ones(len(xy), dtype=bool)
    fresh[1:] = (xy[by_xy[1:]] != xy[by_xy[:-1]]).any(axis=1)
    vertex = np.empty(len(xy), dtype=np.intp)
    vertex[by_xy] = np.cumsum(fresh) - 1
    # segment s joins vertices s and s + 1 of a ring: every vertex but a ring's last
    starts = np.ones(len(xy), dtype=bool)
    starts[np.cumsum(lengths)[lengths > 0] - 1] = False
    u = vertex[:-1][starts[:-1]]
    v = vertex[1:][starts[:-1]]
    boundary = np.repeat(np.array([k for k, _ in rings], dtype=np.intp), lengths)[starts]
    kept = u != v  # drop segments collapsed by quantization
    u, v, boundary = u[kept], v[kept], boundary[kept]
    empty = np.bincount(boundary, minlength=len(ordered)) == 0
    if empty.any():
        raise GeometryError(
            f"region {ordered[int(np.argmax(empty))].region_id!r} has degenerate geometry"
        )
    # one key per segment, endpoints in order; owners ascend along the boundaries
    # (sorted by id), and the stable sort keeps them ascending within a segment
    segment = np.minimum(u, v) * len(xy) + np.maximum(u, v)
    owner = np.array([code[b.region_id] for b in ordered], dtype=np.intp)[boundary]
    by_segment = np.argsort(segment, kind="stable")
    segment, owner = segment[by_segment], owner[by_segment]
    distinct = np.ones(len(owner), dtype=bool)
    distinct[1:] = (segment[1:] != segment[:-1]) | (owner[1:] != owner[:-1])
    segment, owner = segment[distinct], owner[distinct]
    # pair each owner of a segment with every later one, d places on
    pairs = []
    for d in range(1, len(owner)):
        same = segment[d:] == segment[:-d]
        if not same.any():
            break
        pairs.append(owner[:-d][same] * len(ids) + owner[d:][same])
    edges = np.unique(np.concatenate(pairs or [np.empty(0, dtype=np.intp)]))
    left, right = np.divmod(edges, len(ids))
    return AdjacencyGraph.from_edges(
        [b.region_id for b in boundaries],
        [(ids[i], ids[j]) for i, j in zip(left.tolist(), right.tolist())],
        style,
    )


# ---------------------------------------------------------------------------
# ICAR precision structure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IcarPrecision:
    """Unit-scale sparse precision Q for the spatial effect over a graph.

    Edge arrays hold each undirected edge once; ``degree`` is the weighted
    row sum, so Q = diag(degree) - A_w. ``rank`` equals the dimension minus
    the number of connected components (one constant null vector each).

    ``nbr_start`` and ``nbr`` hold A's rows in compressed sparse row form:
    node k's neighbours are ``nbr[nbr_start[k]:nbr_start[k + 1]]``, in
    increasing index order, and ``np.diff(nbr_start)`` is each node's
    number of neighbours.
    """

    dimension: int
    node_ids: tuple[str, ...]
    edge_i: np.ndarray
    edge_j: np.ndarray
    edge_w: np.ndarray
    degree: np.ndarray
    rank: int
    style: str
    component_index: tuple[np.ndarray, ...]
    nbr_start: np.ndarray
    nbr: np.ndarray

    def to_dense(self) -> np.ndarray:
        q = np.diag(self.degree.astype(float))
        q[self.edge_i, self.edge_j] = q[self.edge_j, self.edge_i] = -self.edge_w
        return q


def icar_precision(graph: AdjacencyGraph) -> IcarPrecision:
    """Precision structure for the graph under its weighting style."""
    index = {nid: k for k, nid in enumerate(graph.node_ids)}
    n = len(graph.node_ids)
    pairs = sorted(graph.edges)
    edge_i = np.array([index[a] for a, _ in pairs], dtype=np.intp)
    edge_j = np.array([index[b] for _, b in pairs], dtype=np.intp)
    src, dst = np.concatenate([edge_i, edge_j]), np.concatenate([edge_j, edge_i])
    by_row = np.lexsort((dst, src))
    nbr_start = np.concatenate([[0], np.cumsum(np.bincount(src, minlength=n))]).astype(np.intp)
    if graph.style == "B":
        edge_w = np.ones(len(pairs))
    else:
        binary_degree = np.diff(nbr_start).astype(float)
        edge_w = 0.5 * (1.0 / binary_degree[edge_i] + 1.0 / binary_degree[edge_j])
    degree = np.zeros(n)
    np.add.at(degree, edge_i, edge_w)
    np.add.at(degree, edge_j, edge_w)
    comp_index = tuple(
        np.array(sorted(index[nid] for nid in comp), dtype=np.intp)
        for comp in graph.components
    )
    return IcarPrecision(
        dimension=n,
        node_ids=graph.node_ids,
        edge_i=edge_i,
        edge_j=edge_j,
        edge_w=edge_w,
        degree=degree,
        rank=n - graph.n_components(),
        style=graph.style,
        component_index=comp_index,
        nbr_start=nbr_start,
        nbr=dst[by_row],
    )


def quadratic_form(precision: IcarPrecision, x: np.ndarray) -> float | np.ndarray:
    """x' Q x computed as the weighted edge sum of squared differences.

    ``x`` may carry leading axes, giving one form per vector along the last
    axis; a single vector gives a float.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] != precision.dimension:
        raise ValueError(
            f"vector length {x.shape} does not match dimension {precision.dimension}"
        )
    # take() keeps rows C-contiguous, so each row sums in the order of a 1-D sum
    diffs = x.take(precision.edge_i, axis=-1) - x.take(precision.edge_j, axis=-1)
    forms = np.add.reduce(precision.edge_w * diffs * diffs, axis=-1)
    return float(forms) if x.ndim == 1 else forms


# ---------------------------------------------------------------------------
# Plain-text graph file (diffable; consumed by the CLI smooth step)
# ---------------------------------------------------------------------------


def export_graph(
    graph: AdjacencyGraph, path: str | Path, metadata: Mapping[str, str] | None = None
) -> None:
    for nid in graph.node_ids:
        if any(ch.isspace() for ch in nid):
            raise SchemaError(f"region_id {nid!r} contains whitespace; not exportable")
    lines = [f"style {graph.style}", f"nodes {len(graph.node_ids)}"]
    lines.extend(graph.node_ids)
    edges = sorted(graph.edges)
    lines.append(f"edges {len(edges)}")
    lines.extend(f"{a} {b}" for a, b in edges)
    lines.append(f"components {len(graph.components)}")
    lines.extend(" ".join(comp) for comp in graph.components)
    with artifact_file(path) as fh:
        fh.writelines(metadata_lines(metadata))
        fh.write("\n".join(lines) + "\n")


def load_graph(path: str | Path, digest=None) -> AdjacencyGraph:
    path = Path(path)
    # each non-blank line with its line number; '#' lines are metadata only
    # before the style line: a region id may start with '#'
    lines = list(dropwhile(lambda item: item[1].startswith("#"), (
        (no, ln.rstrip("\r\n")) for no, ln in enumerate(text_lines(path, digest), 1)
        if not ln.isspace())))
    pos = 0

    def take() -> str:
        nonlocal pos
        if pos >= len(lines):
            raise SchemaError(f"{path}: truncated graph file")
        pos += 1
        return lines[pos - 1][1]

    def count(keyword: str) -> int:
        parts = take().split()
        if len(parts) != 2 or parts[0] != keyword or not parts[1].isdecimal():
            raise SchemaError(f"{path}: expected '{keyword} <count>', got {' '.join(parts)!r}")
        return int(parts[1])

    style_line = take().split()
    if len(style_line) != 2 or style_line[0] != "style":
        raise SchemaError(f"{path}: expected 'style B|W' first, got {style_line}")
    style = style_line[1]
    nodes = [take() for _ in range(count("nodes"))]
    edges = []
    for k in range(count("edges")):
        pair = take().split()
        if len(pair) != 2:
            raise SchemaError(f"{path}: edge {k + 1}: expected two region ids, got {pair}")
        edges.append((pair[0], pair[1]))
    try:
        graph = AdjacencyGraph.from_edges(nodes, edges, style)
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from None
    declared = count("components")
    if declared != graph.n_components():
        raise SchemaError(
            f"{path}: component count {declared} does not match edges "
            f"({graph.n_components()} computed)"
        )
    # a hand-edited edge list must come with its components: the lines may
    # list them in any order, and nothing may follow them
    known, left = set(graph.node_ids), set(graph.components)
    for _ in range(declared):
        ids = take().split()
        where = f"{path}: line {lines[pos - 1][0]}"
        for rid in ids:
            if rid not in known:
                raise SchemaError(f"{where}: component names unknown region id {rid!r}")
        component = tuple(sorted(ids))
        if component not in left:
            raise SchemaError(f"{where}: not one of the components the edges give")
        left.remove(component)
    if pos < len(lines):
        raise SchemaError(f"{path}: line {lines[pos][0]}: text after the components")
    return graph
