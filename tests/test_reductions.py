"""The reduction chain and its combinatorial helpers."""

import itertools
import random
from math import comb

import networkx as nx
import numpy as np
import pytest

from conftest import (
    all_cross_row_edges,
    blocks_by_pair,
    cross_matrix,
    edges_among,
    graph_from_nx,
    grid_from_edges,
    stacked,
)
from permcsp.core import (
    Graph,
    InternalConsistencyError,
    InvalidInputError,
    SizeLimitError,
    evaluate,
)
from permcsp.reductions import (
    COMPLETE,
    EMPTY,
    IDENTITY,
    CnfFormula,
    GridGraph,
    coloring_grid_digits,
    distance3_partition,
    reduce_clique_to_perm6,
    reduce_coloring_to_dcnnc,
    reduce_dcnnb_to_perm4,
    reduce_dcnnc_to_dcnnb,
    reduce_sat_to_coloring,
    sufficient_dummies_perm4,
    sufficient_dummies_perm6,
    ternary_gray,
)
from permcsp import validate
from permcsp.solvers import (
    solve_3coloring,
    solve_row_biclique,
    solve_row_clique,
    solve_sat,
)


# ---------------------------------------------------------------------------
# CnfFormula
# ---------------------------------------------------------------------------

def test_cnf_frequency_counts_occurrences():
    cnf = CnfFormula(2, ((1, -2), (1, 2), (-1,)))
    assert cnf.frequencies() == {1: 3, 2: 2}
    assert cnf.freq_bound == 3


def test_cnf_rejects_understated_bound():
    with pytest.raises(InvalidInputError):
        CnfFormula(2, ((1, -2), (1, 2), (-1,)), freq_bound=2)


def test_cnf_rejects_bad_literal():
    with pytest.raises(InvalidInputError):
        CnfFormula(2, ((3,),))


# ---------------------------------------------------------------------------
# GridGraph
# ---------------------------------------------------------------------------

def test_grid_indexing_round_trip():
    g = GridGraph(3)
    for i in range(1, 4):
        for j in range(1, 4):
            flat = g.index(i, j)
            assert (flat // g.side + 1, flat % g.side + 1) == (i, j)


def test_grid_edges_sorted_and_symmetric():
    g = grid_from_edges(2, [((2, 1), (1, 2)), ((1, 1), (2, 2))])
    assert list(g.edges()) == [((1, 1), (2, 2)), ((1, 2), (2, 1))]
    assert g.num_edges() == 2
    assert g.has_edge((1, 2), (2, 1)) and g.has_edge((2, 1), (1, 2))


def test_grid_rejects_self_loop_and_out_of_range():
    g = GridGraph(2)
    with pytest.raises(InvalidInputError):
        GridGraph.from_edges(2, [((1, 1), (1, 1))])
    with pytest.raises(InvalidInputError):
        g.index(0, 1)
    with pytest.raises(InvalidInputError):
        g.index(1, 3)


@pytest.mark.parametrize("kind, side", [("clique", 3), ("biclique", 4),
                                        ("biclique", 6)])
def test_grid_from_edges_matches_a_loop_reference(kind, side):
    # Random edges, repeated and in both orientations, against a dense
    # matrix and an edge list built one edge at a time in Python.
    rng = random.Random(side)
    n = side // 2
    for _ in range(10):
        edges = []
        for _ in range(rng.randint(0, 12)):
            if kind == "clique":
                a, b = rng.sample([(i, j) for i in range(1, side + 1)
                                   for j in range(1, side + 1)], 2)
            else:
                a = (rng.randint(1, n), rng.randint(1, n))
                b = (rng.randint(n + 1, side), rng.randint(n + 1, side))
            edges.append((a, b) if rng.random() < 0.5 else (b, a))
        g = GridGraph.from_edges(side, edges, kind=kind)
        dense = np.zeros((side * side, side * side), dtype=bool)
        for (i, j), (k, l) in edges:
            u, v = (i - 1) * side + j - 1, (k - 1) * side + l - 1
            dense[u, v] = dense[v, u] = True
        assert np.array_equal(g.adj, dense)
        assert list(g.edges()) == sorted({tuple(sorted(e)) for e in edges})
        assert g.num_edges() == len(set(g.edges()))
        assert all(g.has_edge(a, b) and g.has_edge(b, a) for a, b in edges)


def test_grid_cross_matrix_layout():
    h = grid_from_edges(4, [((1, 2), (3, 3)), ((2, 1), (4, 4))],
                        kind="biclique")
    cross = cross_matrix(h)
    n = 2
    assert cross.shape == (n * n, n * n)
    assert cross[(1 - 1) * n + 1, (1 - 1) * n + 0]   # (1,2)-(3,3)
    assert cross[(2 - 1) * n + 0, (2 - 1) * n + 1]   # (2,1)-(4,4)
    assert cross.sum() == 2


def test_grid_adjacency_is_read_only():
    g = grid_from_edges(2, [((1, 1), (2, 2)), ((1, 2), (2, 1))])
    h = reduce_dcnnc_to_dcnnb(g)
    stored = [*blocks_by_pair(g).values(), *blocks_by_pair(h).values()]
    assert len(stored) == 4
    for array in (g.adj, g.blocks()[2], h.adj, h.blocks()[2],
                  h.block(0, 0), g.block(0, 0), *stored,
                  g.stack()[0].array, g.stack()[1], h.stack()[1]):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = False
    assert g.num_edges() == 2 and h.num_edges() == 8


def test_grid_takes_over_its_blocks_and_doubling_shares_them():
    # A stack of blocks is taken over, and placed as from_edges places
    # the same edges.
    block = np.array([[False, True], [True, False]])
    stack = block[None].copy()
    g = GridGraph(2, blocks=(stack, [[0, 1], [0, 0]]))
    with pytest.raises(ValueError, match="read-only"):
        stack[0, 0, 0] = True
    assert g.stack()[0].array is stack
    same = GridGraph.from_edges(2, [((1, 1), (2, 2)), ((1, 2), (2, 1))])
    assert np.array_equal(same.stack()[0].array, stack)
    for x in (g, same):
        assert x.stack()[1].tolist() == [[0, 1], [-1, 0]]
        assert x.num_edges() == 2 and x.has_edge((2, 1), (1, 2))
    h = reduce_dcnnc_to_dcnnb(g)
    assert h.stack()[0] is g.stack()[0]
    assert h.block(0, 1).base is stack and h.block(1, 0).base is stack
    assert np.array_equal(h.block(1, 0), h.block(0, 1).T)
    assert h.block(0, 0) is h.block(1, 1)           # one identity block
    assert np.array_equal(h.block(0, 0), np.eye(2))
    # Empty, complete and identity blocks are kept as kinds only.
    g = GridGraph(2, blocks=stacked({(0, 0): np.zeros((2, 2), dtype=bool),
                                     (0, 1): np.ones((2, 2), dtype=bool)}, 2))
    assert not blocks_by_pair(g) and g.num_edges() == 4
    assert not len(g.stack()[0].array) and not g.stack()[1].any()
    assert g.blocks()[2].tolist() == [[EMPTY, COMPLETE], [COMPLETE, EMPTY]]
    h = GridGraph(4, kind="biclique",
                  blocks=stacked({(1, 0): np.eye(2, dtype=bool)}, 2))
    assert not blocks_by_pair(h) and h.blocks()[2][1, 0] == IDENTITY
    assert not len(h.stack()[0].array) and not h.stack()[1].any()


# ---------------------------------------------------------------------------
# Ternary Gray codes
# ---------------------------------------------------------------------------

def test_gray_one_digit():
    assert ternary_gray(1) == ((0,), (1,), (2,))


def test_gray_two_digits_prefix():
    words = ternary_gray(2)
    assert words[:4] == ((0, 0), (0, 1), (0, 2), (1, 2))
    assert words == ((0, 0), (0, 1), (0, 2), (1, 2), (1, 1), (1, 0),
                     (2, 0), (2, 1), (2, 2))


def test_gray_rank_inverts_words():
    words = ternary_gray(3)
    for k, w in enumerate(words):
        assert words.index(w) == k


def test_gray_cap():
    with pytest.raises(InvalidInputError):
        ternary_gray(0)
    with pytest.raises(InvalidInputError):
        ternary_gray(13)


# ---------------------------------------------------------------------------
# Distance-3 partition
# ---------------------------------------------------------------------------

def test_distance3_edgeless_single_class():
    g = Graph(5)
    assert distance3_partition(g, 2) == [[1, 2, 3, 4, 5]]


def test_distance3_path_three_singletons():
    g = Graph(3, [(1, 2), (2, 3)])
    classes = distance3_partition(g, 2)
    assert sorted(map(sorted, classes)) == [[1], [2], [3]]


def test_distance3_classes_pairwise_far(rng):
    for _ in range(20):
        g = nx.gnp_random_graph(rng.randint(2, 12), 0.25,
                                seed=rng.randint(0, 10 ** 6))
        g = nx.relabel_nodes(g, {v: v + 1 for v in g.nodes()})
        bound = max((d for _, d in g.degree()), default=1)
        classes = distance3_partition(graph_from_nx(g), bound)
        assert sorted(v for cls in classes for v in cls) == sorted(g.nodes())
        assert len(classes) <= bound * bound + 1
        lengths = dict(nx.all_pairs_shortest_path_length(g))
        for cls in classes:
            for u, v in itertools.combinations(cls, 2):
                assert lengths.get(u, {}).get(v, 99) >= 3


def test_distance3_rejects_degree_violation():
    g = Graph(4, [(1, 2), (1, 3), (1, 4)])
    with pytest.raises(InvalidInputError):
        distance3_partition(g, 2)


# ---------------------------------------------------------------------------
# SAT -> 3-coloring
# ---------------------------------------------------------------------------

def _random_cnf(rng, max_vars=5, max_clauses=4, freq=3):
    nv = rng.randint(1, max_vars)
    clauses = []
    counts = {v: 0 for v in range(1, nv + 1)}
    for _ in range(rng.randint(1, max_clauses)):
        avail = [v for v in counts if counts[v] < freq]
        size = min(rng.randint(1, 3), len(avail))
        if size == 0:
            break
        vs = rng.sample(avail, size)
        for v in vs:
            counts[v] += 1
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    return CnfFormula(nv, tuple(clauses), freq)


def test_sat_to_coloring_iff_and_degree_bound(rng):
    for _ in range(25):
        cnf = _random_cnf(rng)
        g, bound = reduce_sat_to_coloring(cnf)
        assert bound == max(cnf.freq_bound + 2, 5)
        assert max((d for _, d in g.degree()), default=0) <= bound
        sat = solve_sat(cnf)
        col = solve_3coloring(g)
        assert (sat is not None) == (col is not None)
        if col is not None:
            assert all(col[u] != col[v] for u, v in g.edges())


def test_sat_to_coloring_contradiction_not_colorable():
    g, _ = reduce_sat_to_coloring(CnfFormula(1, ((1,), (-1,))))
    assert solve_3coloring(g) is None


def test_sat_to_coloring_rejects_long_clause():
    cnf = CnfFormula(4, ((1, 2, 3),))
    object.__setattr__(cnf, "clauses", ((1, 2, 3, 4),))
    with pytest.raises(InvalidInputError):
        reduce_sat_to_coloring(cnf)


def test_sat_to_coloring_assignment_translates():
    # A satisfying assignment must extend to a proper coloring and back:
    # the literal vertex of a true literal gets the T role's color.
    cnf = CnfFormula(2, ((1, -2), (-1, -2)))
    g, _ = reduce_sat_to_coloring(cnf)
    col = solve_3coloring(g)
    assert col is not None
    # Ladder roles are fixed by index mod 3; recover the role colors.
    t_color, f_color = col[2], col[3]
    ladder_len = 3 * (2 * cnf.num_vars + 4 * len(cnf.clauses) + 1)
    assign = {}
    for v in range(1, cnf.num_vars + 1):
        pos = ladder_len + 2 * v - 1
        assert col[pos] in (t_color, f_color)
        assign[v] = col[pos] == t_color
    assert all(any(assign[abs(l)] == (l > 0) for l in c)
               for c in cnf.clauses)


# ---------------------------------------------------------------------------
# 3-coloring -> grid clique
# ---------------------------------------------------------------------------

def test_coloring_grid_digits_reference_point():
    assert coloring_grid_digits(100, 4) == 4
    assert 3 ** 4 == 81
    # The bracketing inequality N < f' * 3^x < f' * N at that point.
    assert 100 < 4 * 3 ** 4 < 4 * 100


def test_col2clique_small_graph_round_trip():
    g = Graph(3, [(1, 2), (2, 3)])
    grid = reduce_coloring_to_dcnnc(g, degree_bound=2)
    assert grid.side == 3 ** grid.meta["x"]
    col = solve_3coloring(g)
    sel = validate.map_coloring_to_selection(col, grid)
    vs = sel.vertices()
    assert all(grid.has_edge(a, b) for a, b in itertools.combinations(vs, 2))
    back = validate.map_selection_to_coloring(sel, grid)
    assert all(back[u] != back[v] for u, v in g.edges())


def test_col2clique_rejects_self_loop():
    # The graph type refuses it, so no reduction ever sees one.
    with pytest.raises(InvalidInputError, match=r"\(3, 3\): expected two "
                       "distinct vertices"):
        Graph(3, [(1, 2), (3, 3)])


def test_col2clique_iff_with_3coloring(rng):
    for _ in range(6):
        g = graph_from_nx(nx.gnp_random_graph(rng.randint(2, 7), 0.5,
                                              seed=rng.randint(0, 10 ** 6)))
        bound = max(max((d for _, d in g.degree()), default=1), 1)
        grid = reduce_coloring_to_dcnnc(g, degree_bound=bound)
        col = solve_3coloring(g)
        sel = solve_row_clique(grid)
        assert (col is not None) == (sel is not None)
        if sel is not None:
            back = validate.map_selection_to_coloring(sel, grid)
            assert all(back[u] != back[v] for u, v in g.edges())


def test_col2clique_row_cap():
    g = Graph(199)
    with pytest.raises(SizeLimitError):
        reduce_coloring_to_dcnnc(g, degree_bound=5, row_cap=27)


def test_col2clique_requires_contiguous_labels():
    # A graph's vertices are 1..n by construction: a label beyond n is
    # refused where the graph is built.
    with pytest.raises(InvalidInputError, match="endpoints within 1..2"):
        Graph(2, [(1, 3)])


def test_col2clique_conditions_hold():
    g = Graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    grid = reduce_coloring_to_dcnnc(g, degree_bound=2)
    report, delta = validate.check_regularity(grid)
    assert report.holds
    assert np.array_equal(delta, grid.delta_table)
    report, _ = validate.check_stability(grid, grid.D)
    assert report.holds


# ---------------------------------------------------------------------------
# Clique -> biclique doubling
# ---------------------------------------------------------------------------

def test_doubling_edge_rule():
    g = grid_from_edges(2, [((1, 1), (2, 2))])
    h = reduce_dcnnc_to_dcnnb(GridGraph(1))
    assert h.side == 2 and h.kind == "biclique"
    assert h.has_edge((1, 1), (2, 2))       # diagonal pairing edge
    assert h.num_edges() == 1


def test_doubling_preserves_selections():
    g = Graph(3, [(1, 2), (2, 3)])
    grid = reduce_coloring_to_dcnnc(g, degree_bound=2)
    h = reduce_dcnnc_to_dcnnb(grid)
    n = grid.side
    assert h.side == 2 * n
    # (i,j)(n+i',n+j') iff (i,j)(i',j') in G or (i,j) == (i',j').
    for _ in range(50):
        rng = random.Random(_)
        i, j, ip, jp = (rng.randint(1, n) for _ in range(4))
        want = grid.has_edge((i, j), (ip, jp)) if (i, j) != (ip, jp) else True
        assert h.has_edge((i, j), (n + ip, n + jp)) == want
    sel = solve_row_clique(grid)
    doubled = validate.map_clique_to_biclique(sel)
    bsel = solve_row_biclique(h)
    assert bsel is not None
    # The doubled selection is itself a valid K_{n,n} witness.
    for i in range(1, n + 1):
        for ip in range(1, n + 1):
            assert h.has_edge((i, doubled.choice[i - 1]),
                              (n + ip, doubled.choice[n + ip - 1]))


def test_doubling_recomputes_delta():
    grid = reduce_coloring_to_dcnnc(Graph(3, [(1, 2), (2, 3)]),
                                    degree_bound=2)
    h = reduce_dcnnc_to_dcnnb(grid)
    report, delta = validate.check_regularity(h)
    assert report.holds
    assert np.array_equal(delta, h.delta_table)


def test_doubling_may_bump_D_for_stability():
    grid = reduce_coloring_to_dcnnc(Graph(3, [(1, 2), (2, 3)]),
                                    degree_bound=2)
    h = reduce_dcnnc_to_dcnnb(grid)
    report, _ = validate.check_stability(h, h.D)
    assert report.holds
    assert h.D in (grid.D, grid.D + 1)


@pytest.mark.parametrize("graph, bound", [
    (Graph(3, [(1, 2), (1, 3), (2, 3)]), 2),
    (Graph(3, [(1, 2), (2, 3)]), 2),
    (Graph(4, [(1, 2), (3, 4)]), 1),
    (Graph(1), 1),
])
def test_doubling_keeps_D_when_it_holds_else_bumps_it(graph, bound):
    grid = reduce_coloring_to_dcnnc(graph, degree_bound=bound)
    h = reduce_dcnnc_to_dcnnb(grid)
    fresh = GridGraph.from_edges(h.side, list(h.edges()), kind="biclique")
    kept = validate.check_stability(fresh, grid.D)[0].holds
    assert h.D == (grid.D if kept else grid.D + 1)
    assert reduce_dcnnc_to_dcnnb(grid_from_edges(1, [], D=4)).D == 4


def test_doubling_rejects_irregular_input():
    g = grid_from_edges(2, [((1, 1), (2, 2))], D=1)   # degree not constant
    with pytest.raises(InvalidInputError,
                       match="input violates row-pair regularity"):
        reduce_dcnnc_to_dcnnb(g)


def test_doubling_rejects_unstable_input():
    # Regular (every row-pair degree is 1) but columns 1 and 2 of row 1
    # differ in rows 2 and 3: unstable at D = 1, fine at D = 2.
    edges = [((1, 1), (2, 1)), ((1, 2), (2, 2)), ((1, 3), (2, 3)),
             ((1, 1), (3, 1)), ((1, 2), (3, 2)), ((1, 3), (3, 3)),
             ((2, 1), (3, 1)), ((2, 2), (3, 2)), ((2, 3), (3, 3))]
    with pytest.raises(InvalidInputError, match="input violates stability"):
        reduce_dcnnc_to_dcnnb(grid_from_edges(3, edges, D=1))
    assert reduce_dcnnc_to_dcnnb(grid_from_edges(3, edges, D=2)).D in (2, 3)


def test_doubling_stores_only_the_cross_block():
    import tracemalloc

    g, bound = reduce_sat_to_coloring(CnfFormula(1, ((1,),), 3))
    grid = reduce_coloring_to_dcnnc(g, degree_bound=bound)
    assert grid.side == 27
    tracemalloc.start()
    try:
        h = reduce_dcnnc_to_dcnnb(grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # A dense 54-row biclique matrix alone would be 16 * 27**4 bytes.
    assert peak < 4 * 27 ** 4
    assert cross_matrix(h).shape == (27 ** 2, 27 ** 2)


@pytest.mark.parametrize("check", ["check_regularity", "check_stability"])
def test_coloring_construction_failure_is_internal(monkeypatch, check):
    failing = validate.ConditionReport(check, False, (("made up",),))
    monkeypatch.setattr(validate, check, lambda *args: (failing, None))
    with pytest.raises(InternalConsistencyError, match="construction broke"):
        reduce_coloring_to_dcnnc(Graph(3, [(1, 2), (2, 3)]), degree_bound=2)


# ---------------------------------------------------------------------------
# Clique -> arity-6 Permutation CSP
# ---------------------------------------------------------------------------

def test_sufficient_dummies_perm6_reference_values():
    assert sufficient_dummies_perm6(1) == 2
    assert sufficient_dummies_perm6(2) == 6
    assert sufficient_dummies_perm6(3) == 8


def test_sufficient_dummies_perm6_is_the_least_count_that_dominates():
    # Each of C(d-2, 2) C(n+1, 2), C(d-1, 3) n and C(d, 4) must exceed
    # C(n^2, 2), the most constraints G can contribute; above the 2n
    # floor, one of them must not at d - 1.
    def dominates(n, d):
        budget = comb(n * n, 2)
        return all(term > budget for term in (
            comb(d - 2, 2) * comb(n + 1, 2), comb(d - 1, 3) * n, comb(d, 4)))
    assert sufficient_dummies_perm6(1) == 2     # a 1 x 1 grid has no edge
    for n in range(2, 31):
        d = sufficient_dummies_perm6(n)
        assert d >= 2 * n and dominates(n, d)
        assert d == 2 * n or not dominates(n, d - 1)


def test_perm6_paper_default_sizes():
    g = grid_from_edges(2, [((1, 1), (2, 1))])
    cert = reduce_clique_to_perm6(g)
    n = 2
    assert cert.instance.num_vars == 4 * n + 1
    assert len(cert.dummy_vars) == 2 * n
    assert len(cert.row_vars) == n
    assert len(cert.col_vars) == n + 1
    structural = comb(2 * n, 4) * comb(n + 1, 2) + n
    assert len(cert.instance.constraints) == structural + g.num_edges()
    assert cert.target == validate.target_perm6(n, 2 * n)


def test_perm6_edge_constraint_count_matches_edges(rng):
    for _ in range(10):
        edges = rng.sample(all_cross_row_edges(3), rng.randint(0, 8))
        g = grid_from_edges(3, edges)
        cert = reduce_clique_to_perm6(g, dummy_count=8)
        structural = comb(8, 4) * comb(4, 2) + 3
        assert len(cert.instance.constraints) - structural == len(edges)
        assert cert.source_edges == len(edges)


def test_perm6_rejects_row_edges_and_small_dummies():
    with pytest.raises(InvalidInputError):
        reduce_clique_to_perm6(grid_from_edges(2, [((1, 1), (1, 2))]))
    with pytest.raises(InvalidInputError):
        reduce_clique_to_perm6(grid_from_edges(2, []), dummy_count=3)


def test_perm6_convenient_identity_small(rng):
    # evaluate(ordering built from phi) == structural + n + edges(V_phi)
    # for every phi on random 2x2 grids.
    for _ in range(5):
        edges = rng.sample(all_cross_row_edges(2), rng.randint(0, 4))
        g = grid_from_edges(2, edges)
        cert = reduce_clique_to_perm6(g, dummy_count=6)
        structural = comb(6, 4) * comb(3, 2) + 2
        for choice in itertools.product((1, 2), repeat=2):
            from permcsp.solvers import RowSelection
            sel = RowSelection(choice)
            ordering = validate.map_selection_to_ordering(sel, cert)
            got = evaluate(cert.instance, ordering)
            assert got == structural + edges_among(g, sel.vertices())


# ---------------------------------------------------------------------------
# Biclique -> arity-4 Permutation CSP
# ---------------------------------------------------------------------------

def test_sufficient_dummies_perm4_reference_values():
    assert sufficient_dummies_perm4(1, 1, 1) == 4
    assert sufficient_dummies_perm4(1, 1, 0) == 3


def test_sufficient_dummies_perm4_is_the_least_count_that_dominates():
    # C(d, 2) must exceed the worst column-move cost, 2Dn per switch over
    # n rows, and the four constraints of each edge; above the 2Dn floor,
    # one of them must not at d - 1.  A 2n x 2n grid has at most n^4 edges.
    def dominates(n, D, edges, d):
        return comb(d, 2) > 2 * D * n * n and comb(d, 2) > 4 * edges
    for n in range(1, 31):
        most = n ** 4
        for D in range(1, 7):
            for edges in [*range(0, most, max(1, most // 8)), most]:
                d = sufficient_dummies_perm4(n, D, edges)
                assert d >= 2 * D * n and dominates(n, D, edges, d)
                assert d == 2 * D * n or not dominates(n, D, edges, d - 1)


def test_perm4_paper_default_sizes():
    grid = reduce_coloring_to_dcnnc(Graph(3, [(1, 2), (2, 3)]),
                                    degree_bound=2)
    h = reduce_dcnnc_to_dcnnb(grid)
    cert = reduce_dcnnb_to_perm4(h)
    n, D = cert.n, cert.D
    assert cert.instance.num_vars == (2 * D + 4) * n + 1
    assert len(cert.dummy_vars) == 2 * D * n
    structural = comb(2 * D * n, 2) * comb(2 * n + 1, 2)
    assert len(cert.instance.constraints) == structural + 4 * h.num_edges()


def test_perm4_four_constraints_per_edge():
    h = reduce_dcnnc_to_dcnnb(GridGraph(1))
    cert = reduce_dcnnb_to_perm4(h, D=1, dummy_count=4)
    structural = comb(4, 2) * comb(3, 2)
    assert len(cert.instance.constraints) == structural + 4
    assert cert.target == comb(4, 2) * comb(3, 2) + 3 * cert.delta_sum + 1
    assert cert.delta_sum == 1


def test_perm4_requires_conditions():
    h = grid_from_edges(2, [((1, 1), (2, 2))], kind="clique")
    with pytest.raises(InvalidInputError):
        reduce_dcnnb_to_perm4(h, D=1)
    h = grid_from_edges(2, [((1, 1), (2, 2))], kind="biclique")
    with pytest.raises(InvalidInputError):
        reduce_dcnnb_to_perm4(h)        # no D anywhere


def test_perm4_degenerate_rccr_shape():
    # n=1 forces the j=n, j'=1 case: the rccr family must anchor on a
    # dummy instead of emitting a degenerate constraint.
    h = reduce_dcnnc_to_dcnnb(GridGraph(1))
    cert = reduce_dcnnb_to_perm4(h, D=1, dummy_count=4)
    m = 4
    r1, r2 = m + 1, m + 2
    c1, c2, c3 = m + 3, m + 4, m + 5
    edge_cons = cert.instance.constraints[-4:]
    assert (1, r1, c2, r2) in edge_cons
    assert all(len(set(c)) == len(c) for c in cert.instance.constraints)


def test_construction_invariant_raises_without_assert(monkeypatch):
    # A partition whose block holds an edge must stop the construction
    # with InternalConsistencyError, also under python -O.
    from permcsp import reductions
    from permcsp.core import InternalConsistencyError
    g = Graph(4, [(1, 2), (3, 4)])
    monkeypatch.setattr(reductions, "distance3_partition",
                        lambda graph, bound: [[1, 2], [3, 4]])
    with pytest.raises(InternalConsistencyError, match="independent set"):
        reduce_coloring_to_dcnnc(g, degree_bound=1)
