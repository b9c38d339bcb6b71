import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import boundary, square
from prevmap.data_model import RegionBoundary
from prevmap.errors import GeometryError, SchemaError
from prevmap.graph import (
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

    def test_neighbor_map_symmetric(self):
        graph = build_adjacency(grid_2x2())
        nbrs = graph.neighbor_map()
        for a, others in nbrs.items():
            for b in others:
                assert a in nbrs[b]
