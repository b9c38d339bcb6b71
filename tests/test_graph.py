import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import boundary, square
from prevmap.data_model import RegionBoundary
from prevmap.errors import GeometryError, PrevmapError, SchemaError
from prevmap.graph import (
    STYLES,
    AdjacencyGraph,
    build_adjacency,
    export_graph,
    icar_precision,
    load_graph,
    quadratic_form,
)


def grid_2x2():
    return [
        boundary("A", square(0, 0)),
        boundary("B", square(1, 0)),
        boundary("C", square(0, 1)),
        boundary("D", square(1, 1)),
    ]


def path3_precision(style="B"):
    graph = AdjacencyGraph.from_edges(["a", "b", "c"], [("a", "b"), ("b", "c")], style)
    return icar_precision(graph)


class TestBuildAdjacency:
    def test_2x2_grid_rook_oracle(self):
        graph = build_adjacency(grid_2x2())
        # hand enumeration: shared full edges only, no diagonal adjacency
        assert graph.edges == frozenset({("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")})
        assert graph.n_components() == 1

    def test_disjoint_squares(self):
        graph = build_adjacency([boundary("A", square(0, 0)), boundary("B", square(5, 5))])
        assert graph.edges == frozenset()
        assert graph.n_components() == 2

    def test_corner_touch_is_not_adjacent(self):
        # squares sharing exactly one point (queen-style contact)
        graph = build_adjacency([boundary("A", square(0, 0)), boundary("B", square(1, 1))])
        assert graph.edges == frozenset()

    def test_country_change_does_not_break_edge(self):
        row = [
            boundary("S1", square(0, 0), country="X"),
            boundary("S2", square(1, 0), country="X"),
            boundary("S3", square(2, 0), country="Y"),
        ]
        graph = build_adjacency(row)
        assert ("S2", "S3") in graph.edges

    def test_tolerance_absorbs_coordinate_noise(self):
        nudged = (
            (1.0 + 4e-7, 0.0),
            (2.0, 0.0),
            (2.0, 1.0),
            (1.0 + 4e-7, 1.0),
            (1.0 + 4e-7, 0.0),
        )
        pair = [boundary("A", square(0, 0)), RegionBoundary("B", ((nudged,),))]
        assert ("A", "B") in build_adjacency(pair, tolerance=1e-6).edges
        assert build_adjacency(pair, tolerance=1e-9).edges == frozenset()

    def test_input_order_invariance(self):
        forward = build_adjacency(grid_2x2())
        backward = build_adjacency(list(reversed(grid_2x2())))
        assert forward == backward

    def test_ring_rotation_invariance(self):
        ring = square(1, 0)
        rotated = ring[2:-1] + ring[:3]  # same cycle, different start vertex
        assert rotated[0] == rotated[-1]
        base = build_adjacency([boundary("A", square(0, 0)), boundary("B", ring)])
        rot = build_adjacency([boundary("A", square(0, 0)), RegionBoundary("B", ((rotated,),))])
        assert base.edges == rot.edges

    def test_degenerate_geometry_named(self):
        bad = RegionBoundary("EMPTY", ((),))
        with pytest.raises(GeometryError, match="EMPTY"):
            build_adjacency([boundary("A", square(0, 0)), bad])

    def test_too_few_boundaries(self):
        with pytest.raises(ValueError, match="at least 2"):
            build_adjacency([boundary("A", square(0, 0))])

    @settings(max_examples=20, deadline=None)
    @given(order=st.permutations(list(range(4))))
    def test_any_permutation_same_graph(self, order):
        cells = grid_2x2()
        graph = build_adjacency([cells[i] for i in order])
        assert graph == build_adjacency(cells)


def reference_adjacency(boundaries, tolerance=1e-6, style="B"):
    """The per-segment key set and owner dict that build_adjacency replaced."""

    def quantize(pt):
        if tolerance > 0:
            return (round(pt[0] / tolerance), round(pt[1] / tolerance))
        return pt

    def segment_keys(b):
        keys = set()
        for poly in b.geometry:
            for ring in poly:
                ring = [tuple(pt) for pt in ring.tolist()]
                for a, c in zip(ring, ring[1:]):
                    qa, qc = quantize(a), quantize(c)
                    if qa == qc:
                        continue
                    keys.add((qa, qc) if qa <= qc else (qc, qa))
        return keys

    seen_by_segment = {}
    for b in sorted(boundaries, key=lambda bb: bb.region_id):
        keys = segment_keys(b)
        if not keys:
            raise GeometryError(f"region {b.region_id!r} has degenerate geometry")
        for key in keys:
            owners = seen_by_segment.setdefault(key, [])
            if b.region_id not in owners:
                owners.append(b.region_id)
    edges = set()
    for owners in seen_by_segment.values():
        for i in range(len(owners)):
            for j in range(i + 1, len(owners)):
                a, c = owners[i], owners[j]
                edges.add((a, c) if a < c else (c, a))
    return AdjacencyGraph.from_edges([b.region_id for b in boundaries], sorted(edges), style)


def outcome(build, boundaries, tolerance):
    """The graph, or the (type, message) of the error raised."""
    try:
        return build(boundaries, tolerance)
    except PrevmapError as exc:
        return type(exc), str(exc)


# coordinates that meet exactly, nearly (within 1e-6), or collapse on a
# coarse grid; -0.0 and 0.0 must count as one value
OFFSETS = st.sampled_from([0.0, -0.0, 4e-7, -4e-7, 0.05, -0.05, 0.3])
TOLERANCES = st.sampled_from([0.0, 1e-6, 0.1, 0.5, 2.0])


@st.composite
def jagged_grids(draw):
    """rows x cols cells whose shared borders are the same jagged polylines."""
    rows, cols = draw(st.sampled_from([(1, 2), (2, 1), (2, 2), (2, 3), (3, 3)]))
    n = draw(st.integers(1, 4))
    t = [k / n for k in range(n + 1)]

    def border():
        return [draw(OFFSETS) for _ in range(n + 1)]

    horiz = [[border() for _ in range(cols)] for _ in range(rows + 1)]
    vert = [[border() for _ in range(rows)] for _ in range(cols + 1)]
    cells = []
    for r in range(rows):
        for c in range(cols):
            bottom = [(c + t[k], r + horiz[r][c][k]) for k in range(n + 1)]
            right = [(c + 1 + vert[c + 1][r][k], r + t[k]) for k in range(n + 1)]
            top = [(c + t[k], r + 1 + horiz[r + 1][c][k]) for k in range(n + 1)][::-1]
            left = [(c + vert[c][r][k], r + t[k]) for k in range(n + 1)][::-1]
            ring = bottom[:-1] + right[:-1] + top[:-1] + left
            repeats = draw(st.lists(st.integers(0, len(ring) - 1), max_size=3))
            for k in sorted(repeats, reverse=True):  # duplicate consecutive vertices
                ring.insert(k, ring[k])
            cells.append(boundary(f"R_{r}_{c}", tuple(ring)))
    return cells


LATTICE = st.tuples(
    st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0, 1.0 + 4e-7, 2.0]),
    st.sampled_from([-0.0, 0.0, 1.0, 1.5, 3.0]),
)


@st.composite
def lattice_regions(draw):
    """Regions of one or two polygons with holes, on a small shared point set.

    Few distinct points mean that one segment often has three or more owners,
    that consecutive vertices repeat, and that whole regions collapse on a
    coarse grid; ids may repeat, as a caller's list may.
    """
    ids = draw(st.lists(st.sampled_from("ABCDEF"), min_size=2, max_size=6))
    regions = []
    for rid in ids:
        polys = []
        for _ in range(draw(st.integers(1, 2))):
            rings = []
            for _ in range(draw(st.integers(0, 2))):
                points = draw(st.lists(LATTICE, min_size=1, max_size=6))
                rings.append(tuple(points) + (points[0],))
            polys.append(tuple(rings))
        regions.append(RegionBoundary(rid, tuple(polys)))
    return regions


class TestMatchesReferenceAdjacency:
    @settings(max_examples=150, deadline=None)
    @given(cells=jagged_grids(), tolerance=TOLERANCES, style=st.sampled_from("BW"))
    def test_jagged_grids(self, cells, tolerance, style):
        def build(bs, tol):
            return build_adjacency(bs, tol, style)

        def reference(bs, tol):
            return reference_adjacency(bs, tol, style)

        assert outcome(build, cells, tolerance) == outcome(reference, cells, tolerance)

    @settings(max_examples=300, deadline=None)
    @given(regions=lattice_regions(), tolerance=TOLERANCES)
    def test_multipolygons_holes_and_shared_segments(self, regions, tolerance):
        got = outcome(build_adjacency, regions, tolerance)
        assert got == outcome(reference_adjacency, regions, tolerance)

    def test_segment_with_three_owners(self):
        wedge = ((0.0, 0.0), (1.0, 0.0), (0.5, -3.0), (0.0, 0.0))
        regions = [
            boundary("A", square(0, 0)),
            boundary("B", square(0, -1)),
            boundary("C", wedge),
            boundary("D", square(5, 5)),
        ]
        graph = build_adjacency(regions)
        assert graph.edges == frozenset({("A", "B"), ("A", "C"), ("B", "C")})
        assert graph == reference_adjacency(regions)

    def test_signed_zero_at_tolerance_zero(self):
        left = ((-1.0, -0.0), (0.0, 0.0), (0.0, 1.0), (-1.0, 1.0), (-1.0, -0.0))
        right = ((-0.0, -0.0), (1.0, 0.0), (1.0, 1.0), (-0.0, 1.0), (-0.0, -0.0))
        regions = [boundary("L", left), boundary("R", right)]
        graph = build_adjacency(regions, tolerance=0.0)
        assert graph.edges == frozenset({("L", "R")})
        assert graph == reference_adjacency(regions, tolerance=0.0)

    def test_collapsed_region_named_in_id_order(self):
        speck = ((3.0, 3.0), (3.1, 3.0), (3.1, 3.1), (3.0, 3.1), (3.0, 3.0))
        regions = [boundary("Z", speck), boundary("A", square(0, 0)), boundary("M", speck)]
        with pytest.raises(GeometryError, match="'M' has degenerate"):
            build_adjacency(regions, tolerance=1.0)

    def test_overflowing_tolerance_is_named(self):
        with pytest.raises(GeometryError, match="tolerance 1e-320 is too small"):
            build_adjacency(grid_2x2(), tolerance=1e-320)

    def test_nan_tolerance_rejected(self):
        with pytest.raises(GeometryError, match="tolerance must be >= 0, got nan"):
            build_adjacency(grid_2x2(), tolerance=float("nan"))

    def test_infinite_tolerance_rejected(self):
        # it used to quantize every vertex to one point and blame the first region
        with pytest.raises(GeometryError, match="tolerance must be finite, got inf"):
            build_adjacency(grid_2x2(), tolerance=float("inf"))


class TestIcarPrecision:
    def test_path3_hand_matrix(self):
        prec = path3_precision()
        expected = np.array([[1, -1, 0], [-1, 2, -1], [0, -1, 1]], dtype=float)
        assert np.array_equal(prec.to_dense(), expected)
        assert prec.rank == 2

    def test_empty_edges(self):
        prec = icar_precision(AdjacencyGraph.from_edges(["a", "b", "c", "d"], []))
        assert np.array_equal(prec.to_dense(), np.zeros((4, 4)))
        assert prec.rank == 0

    def test_two_disjoint_pairs_rank(self):
        graph = AdjacencyGraph.from_edges(
            ["a", "b", "c", "d"], [("a", "b"), ("c", "d")]
        )
        prec = icar_precision(graph)
        assert prec.rank == 2
        assert len(prec.component_index) == 2

    def test_w_style_symmetrized_weights(self):
        prec = path3_precision("W")
        # degrees (1, 2, 1): each edge weight (1/1 + 1/2) / 2 = 0.75
        q = prec.to_dense()
        expected = np.array(
            [[0.75, -0.75, 0.0], [-0.75, 1.5, -0.75], [0.0, -0.75, 0.75]]
        )
        assert np.allclose(q, expected, atol=1e-15)
        assert np.abs(q.sum(axis=1)).max() < 1e-12

    def test_row_sums_zero_b_style(self):
        graph = build_adjacency(grid_2x2())
        q = icar_precision(graph).to_dense()
        assert np.abs(q.sum(axis=1)).max() < 1e-12

    def test_null_space_constant_per_component(self):
        graph = AdjacencyGraph.from_edges(
            ["a", "b", "c", "d", "e"], [("a", "b"), ("b", "c"), ("d", "e")]
        )
        prec = icar_precision(graph)
        q = prec.to_dense()
        for comp in prec.component_index:
            ind = np.zeros(5)
            ind[comp] = 1.0
            assert np.abs(q @ ind).max() < 1e-12



@st.composite
def random_graphs(draw):
    """Graphs with ids whose string order is not their number order, some
    nodes isolated, in either weighting style."""
    n = draw(st.integers(1, 30))
    ids = [f"r{k}" for k in range(n)]
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=60))
    edges = [(ids[a], ids[b]) for a, b in pairs if a != b]
    return AdjacencyGraph.from_edges(ids, edges, draw(st.sampled_from(STYLES)))


@settings(max_examples=200, deadline=None)
@given(graph=random_graphs())
def test_neighbour_lists_are_the_sorted_sparse_adjacency_rows(graph):
    from scipy import sparse

    prec = icar_precision(graph)
    n = prec.dimension
    index = {nid: k for k, nid in enumerate(graph.node_ids)}
    count = {nid: sum(nid in edge for edge in graph.edges) for nid in graph.node_ids}
    rows, cols, weights = [], [], []
    for a, b in graph.edges:
        w = 1.0 if graph.style == "B" else 0.5 * (1.0 / count[a] + 1.0 / count[b])
        rows += [index[a], index[b]]
        cols += [index[b], index[a]]
        weights += [w, w]
    adj = sparse.csr_matrix((weights, (rows, cols)), shape=(n, n))
    adj.sort_indices()
    assert prec.nbr_start.tolist() == adj.indptr.tolist()
    assert prec.nbr.tolist() == adj.indices.tolist()


class TestQuadraticForm:
    def test_constant_vector_in_null_space(self):
        assert quadratic_form(path3_precision(), np.ones(3)) == 0.0

    def test_hand_edge_sum(self):
        assert quadratic_form(path3_precision(), np.array([0.0, 1.0, 2.0])) == 2.0

    def test_zero_vector(self):
        graph = build_adjacency(grid_2x2())
        assert quadratic_form(icar_precision(graph), np.zeros(4)) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            quadratic_form(path3_precision(), np.zeros(5))

    def test_leading_axes_give_one_form_per_vector(self):
        prec = icar_precision(build_adjacency(grid_2x2(), style="W"))
        x = np.random.default_rng(3).normal(size=(3, 2, 4))
        forms = quadratic_form(prec, x)
        assert forms.shape == (3, 2)
        for idx in np.ndindex(3, 2):
            single = quadratic_form(prec, x[idx])
            assert isinstance(single, float)
            assert forms[idx] == single
        with pytest.raises(ValueError, match="length"):
            quadratic_form(prec, np.zeros((2, 5)))

    def test_matches_dense_and_psd(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            n = int(rng.integers(2, 21))
            nodes = [f"n{i}" for i in range(n)]
            edges = [
                (nodes[i], nodes[j])
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.3
            ]
            prec = icar_precision(AdjacencyGraph.from_edges(nodes, edges))
            q = prec.to_dense()
            for _ in range(10):
                x = rng.normal(size=n)
                qf = quadratic_form(prec, x)
                assert qf >= 0.0
                assert qf == pytest.approx(float(x @ q @ x), abs=1e-10)


class TestGraphFile:
    def test_round_trip(self, tmp_path):
        graph = build_adjacency(grid_2x2(), style="W")
        path = tmp_path / "graph.txt"
        export_graph(graph, path, metadata={"seed": "5"})
        assert load_graph(path) == graph

    def test_crlf_line_ends_load_as_lf(self, tmp_path):
        # a node line used to keep its '\r', so no edge matched it
        graph = build_adjacency(grid_2x2())
        path = tmp_path / "graph.txt"
        export_graph(graph, path, metadata={"seed": "5"})
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        assert load_graph(path) == graph

    def test_ids_starting_with_hash_round_trip(self, tmp_path):
        # a '#' line after the style line is a node, an edge or a component, not a comment
        graph = AdjacencyGraph.from_edges(
            ["#a", "b", "c", "#", "##"], [("#a", "b"), ("b", "c"), ("#", "##")]
        )
        path = tmp_path / "graph.txt"
        export_graph(graph, path, metadata={"seed": "5"})
        assert "\n#a\n" in path.read_text()
        assert load_graph(path) == graph

    def test_component_mismatch_detected(self, tmp_path):
        graph = build_adjacency(grid_2x2())
        path = tmp_path / "graph.txt"
        export_graph(graph, path)
        text = path.read_text().replace("components 1", "components 2")
        path.write_text(text)
        with pytest.raises(SchemaError, match="component count"):
            load_graph(path)

    def test_whitespace_id_rejected(self, tmp_path):
        graph = AdjacencyGraph.from_edges(["a b", "c"], [("a b", "c")])
        with pytest.raises(ValueError, match="whitespace"):
            export_graph(graph, tmp_path / "graph.txt")

    def test_missing_file(self, tmp_path):
        with pytest.raises(SchemaError, match="not found"):
            load_graph(tmp_path / "none.txt")


class TestAdjacencyGraphType:
    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            AdjacencyGraph.from_edges(["a"], [("a", "a")])

    def test_unknown_node_rejected(self):
        with pytest.raises(ValueError, match="unknown node"):
            AdjacencyGraph.from_edges(["a"], [("a", "z")])

    def test_components_partition(self):
        graph = AdjacencyGraph.from_edges(
            ["a", "b", "c", "d"], [("a", "b")]
        )
        assert graph.components == (("a", "b"), ("c",), ("d",))
