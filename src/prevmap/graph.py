"""Region adjacency from shared polygon borders, and the ICAR precision structure.

Two regions are neighbors when their boundaries share at least one edge
segment (rook contiguity) after quantizing vertex coordinates to a tolerance
grid. Country labels play no role: borders between countries produce edges
like any other, so estimation can borrow strength across them.

The precision structure Q is kept in sparse edge-list form at unit scale.
"B" style uses binary weights (Q = D - A); "W" style uses symmetrized
row-normalized weights w_ij = (1/d_i + 1/d_j)/2 so the pairwise-difference
density stays well defined. In both cases

    x' Q x = sum over edges (i,j) of w_ij * (x_i - x_j)**2

and rank(Q) = n - (number of connected components).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .data_model import RegionBoundary, _data_lines
from .errors import GeometryError, SchemaError

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

    def neighbor_map(self) -> dict[str, set[str]]:
        nbrs: dict[str, set[str]] = {nid: set() for nid in self.node_ids}
        for a, b in self.edges:
            nbrs[a].add(b)
            nbrs[b].add(a)
        return nbrs

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


def _segment_keys(boundary: RegionBoundary, tolerance: float) -> set[tuple]:
    """Canonical keys of this region's boundary segments on the tolerance grid."""

    def quantize(pt: tuple[float, float]):
        if tolerance > 0:
            return (round(pt[0] / tolerance), round(pt[1] / tolerance))
        return pt

    keys: set[tuple] = set()
    for poly in boundary.geometry:
        for ring in poly:
            for a, b in zip(ring, ring[1:]):
                qa, qb = quantize(a), quantize(b)
                if qa == qb:
                    continue  # segment collapsed by quantization
                keys.add((qa, qb) if qa <= qb else (qb, qa))
    return keys


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
        raise ValueError(f"need at least 2 boundaries, got {len(boundaries)}")
    if tolerance < 0:
        raise ValueError("tolerance must be >= 0")
    seen_by_segment: dict[tuple, list[str]] = {}
    for b in sorted(boundaries, key=lambda bb: bb.region_id):
        keys = _segment_keys(b, tolerance)
        if not keys:
            raise GeometryError(f"region {b.region_id!r} has degenerate geometry")
        for key in keys:
            owners = seen_by_segment.setdefault(key, [])
            if b.region_id not in owners:
                owners.append(b.region_id)
    edges: set[tuple[str, str]] = set()
    for owners in seen_by_segment.values():
        for i in range(len(owners)):
            for j in range(i + 1, len(owners)):
                a, b_ = owners[i], owners[j]
                edges.add((a, b_) if a < b_ else (b_, a))
    return AdjacencyGraph.from_edges([b.region_id for b in boundaries], sorted(edges), style)


# ---------------------------------------------------------------------------
# ICAR precision structure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IcarPrecision:
    """Unit-scale sparse precision Q for the spatial effect over a graph.

    Edge arrays hold each undirected edge once; ``degree`` is the weighted
    row sum, so Q = diag(degree) - A_w. ``rank`` equals the dimension minus
    the number of connected components (one constant null vector each).
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

    def to_dense(self) -> np.ndarray:
        q = np.diag(self.degree.astype(float).copy())
        for i, j, w in zip(self.edge_i, self.edge_j, self.edge_w):
            q[i, j] -= w
            q[j, i] -= w
        return q


def icar_precision(graph: AdjacencyGraph) -> IcarPrecision:
    """Precision structure for the graph under its weighting style."""
    index = {nid: k for k, nid in enumerate(graph.node_ids)}
    n = len(graph.node_ids)
    binary_degree = np.zeros(n)
    pairs = sorted(graph.edges)
    for a, b in pairs:
        binary_degree[index[a]] += 1
        binary_degree[index[b]] += 1
    edge_i = np.array([index[a] for a, _ in pairs], dtype=np.intp)
    edge_j = np.array([index[b] for _, b in pairs], dtype=np.intp)
    if graph.style == "B":
        edge_w = np.ones(len(pairs))
    else:
        edge_w = np.array(
            [
                0.5 * (1.0 / binary_degree[i] + 1.0 / binary_degree[j])
                for i, j in zip(edge_i, edge_j)
            ]
        )
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
            raise ValueError(f"region_id {nid!r} contains whitespace; not exportable")
    lines = []
    for key, value in (metadata or {}).items():
        lines.append(f"# {key}: {value}")
    lines.append(f"style {graph.style}")
    lines.append(f"nodes {len(graph.node_ids)}")
    lines.extend(graph.node_ids)
    edges = sorted(graph.edges)
    lines.append(f"edges {len(edges)}")
    lines.extend(f"{a} {b}" for a, b in edges)
    lines.append(f"components {len(graph.components)}")
    lines.extend(" ".join(comp) for comp in graph.components)
    Path(path).write_text("\n".join(lines) + "\n")


def load_graph(path: str | Path) -> AdjacencyGraph:
    path = Path(path)
    if not path.exists():
        raise SchemaError(f"graph file not found: {path}")
    lines = [ln.rstrip("\n") for ln in _data_lines(path)]
    pos = 0

    def take() -> str:
        nonlocal pos
        if pos >= len(lines):
            raise SchemaError(f"{path}: truncated graph file")
        line = lines[pos]
        pos += 1
        return line

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
    return graph
