"""Degeneracy, Nash–Williams bounds, pseudoarboricity (max-flow)."""

from hypothesis import given, settings, strategies as st

from repro import Graph
from repro.graphs import (
    arboricity_bounds,
    complete_graph,
    degeneracy,
    degeneracy_orientation,
    forest_union,
    grid,
    is_forest,
    nash_williams_lower_bound,
    path,
    planar_triangulation,
    pseudoarboricity,
    random_tree,
    ring,
)
from repro.verify import check_orientation_acyclic, orientation_max_out_degree


class TestDegeneracy:
    def test_tree_is_1_degenerate(self):
        k, order = degeneracy(random_tree(50, seed=1).graph)
        assert k == 1
        assert len(order) == 50

    def test_cycle_is_2_degenerate(self):
        k, _ = degeneracy(ring(10).graph)
        assert k == 2

    def test_complete_graph(self):
        k, _ = degeneracy(complete_graph(6).graph)
        assert k == 5

    def test_empty(self):
        assert degeneracy(Graph.empty(4))[0] == 0
        assert degeneracy(Graph([], []))[0] == 0

    def test_order_property(self):
        """Every vertex has ≤ k neighbours later in the order."""
        g = planar_triangulation(60, seed=2).graph
        k, order = degeneracy(g)
        pos = {v: i for i, v in enumerate(order)}
        for v in g.vertices:
            later = sum(1 for u in g.neighbors(v) if pos[u] > pos[v])
            assert later <= k

    def test_planar_at_most_5(self):
        k, _ = degeneracy(planar_triangulation(100, seed=3).graph)
        assert k <= 5


class TestDegeneracyOrientation:
    def test_acyclic_and_bounded(self):
        g = planar_triangulation(60, seed=4).graph
        orientation = degeneracy_orientation(g)
        check_orientation_acyclic(g, orientation)
        k, _ = degeneracy(g)
        assert orientation_max_out_degree(g, orientation) <= k

    def test_complete_on_all_edges(self):
        g = grid(5, 5).graph
        orientation = degeneracy_orientation(g)
        assert len(orientation.direction) == g.m


class TestNashWilliams:
    def test_forest_lower_bound_one(self):
        assert nash_williams_lower_bound(random_tree(40, seed=5).graph) == 1

    def test_complete_graph_exact(self):
        # a(K_n) = ceil(n/2); the whole-graph witness achieves it
        assert nash_williams_lower_bound(complete_graph(8).graph) == 4

    def test_tiny(self):
        assert nash_williams_lower_bound(Graph.empty(1)) == 0

    def test_lower_bounds_certified_generators(self):
        g = forest_union(120, 4, seed=6)
        assert nash_williams_lower_bound(g.graph) <= 4

    def test_noncontiguous_ids_match_suffix_reference(self):
        # the per-edge definition over id-based suffixes of the
        # degeneracy order, on a graph whose ids are not 0..n-1
        base = planar_triangulation(80, seed=9).graph
        g = base.induced_subgraph(v for v in base.vertices if v % 5)
        assert not g.ids_contiguous
        _k, order = degeneracy(g)
        pos = {v: i for i, v in enumerate(order)}
        suffix_m = [0] * g.n
        for u, v in g.edges:
            suffix_m[min(pos[u], pos[v])] += 1
        best, total = -(-g.m // (g.n - 1)), 0
        for i in range(g.n - 1, -1, -1):
            total += suffix_m[i]
            if g.n - i >= 2:
                best = max(best, -(-total // (g.n - i - 1)))
        assert nash_williams_lower_bound(g) == best >= 2


class TestPseudoarboricity:
    def test_forest(self):
        assert pseudoarboricity(random_tree(30, seed=7).graph) == 1

    def test_cycle(self):
        assert pseudoarboricity(ring(12).graph) == 1  # orient around the cycle

    def test_complete_k4(self):
        # K4: max density ceil(6/4) = 2
        assert pseudoarboricity(complete_graph(4).graph) == 2

    def test_complete_k6(self):
        # K6: ceil(15/6) = 3
        assert pseudoarboricity(complete_graph(6).graph) == 3

    def test_empty(self):
        assert pseudoarboricity(Graph.empty(5)) == 0

    def test_sandwich(self):
        """pseudoarboricity ≤ arboricity certificate everywhere we generate."""
        for gen in (forest_union(80, 3, seed=8), planar_triangulation(60, seed=9)):
            p = pseudoarboricity(gen.graph)
            assert p <= gen.arboricity_bound


class TestArboricityBounds:
    def test_interval_valid(self):
        for gen in (
            forest_union(70, 3, seed=10),
            planar_triangulation(50, seed=11),
            ring(20),
        ):
            lo, hi = arboricity_bounds(gen.graph)
            assert 0 < lo <= hi
            assert hi <= gen.arboricity_bound + max(2, gen.arboricity_bound)

    def test_forest_exact(self):
        lo, hi = arboricity_bounds(random_tree(25, seed=12).graph)
        assert lo == 1
        assert hi <= 2  # pseudoarboricity 1 → a ∈ {1, 2}; degeneracy gives 1
        k, _ = degeneracy(random_tree(25, seed=12).graph)
        assert k == 1

    def test_empty(self):
        assert arboricity_bounds(Graph.empty(3)) == (0, 0)


class TestIsForest:
    def test_positive(self):
        assert is_forest(path(9).graph)
        assert is_forest(random_tree(30, seed=13).graph)
        assert is_forest(Graph.empty(4))

    def test_negative(self):
        assert not is_forest(ring(5).graph)
        assert not is_forest(complete_graph(3).graph)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=24),
    seed=st.integers(min_value=0, max_value=10_000),
    density=st.floats(min_value=0.05, max_value=0.6),
)
def test_property_degeneracy_brackets_arboricity(n, seed, density):
    """For random graphs: NW lower bound ≤ pseudoarboricity + 1 and the
    degeneracy orientation witnesses arboricity ≤ degeneracy."""
    from repro.graphs import erdos_renyi

    gen = erdos_renyi(n, density, seed=seed)
    g = gen.graph
    if g.m == 0:
        return
    k, _ = degeneracy(g)
    p = pseudoarboricity(g)
    lb = nash_williams_lower_bound(g)
    assert lb <= p + 1  # the NW witness cannot exceed the arboricity ≤ p+1
    assert p <= k  # the degeneracy orientation has out-degree ≤ k
    assert lb <= k  # lower bound below the degeneracy certificate
    assert k <= 2 * (p + 1) - 1  # degeneracy ≤ 2a − 1 ≤ 2(p+1) − 1
