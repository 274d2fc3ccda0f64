"""Condition checkers, closed-form counts, witness mappers."""

import itertools
import tracemalloc
from math import comb

import numpy as np
import pytest

from conftest import grid_from_edges
from permcsp.cli import gen_sat
from permcsp.core import Graph, InvalidInputError
from permcsp.reductions import (
    GridGraph,
    reduce_clique_to_perm6,
    reduce_coloring_to_dcnnc,
    reduce_dcnnb_to_perm4,
    reduce_dcnnc_to_dcnnb,
    reduce_sat_to_coloring,
)
from permcsp.solvers import RowSelection, solve_3coloring
from permcsp.validate import (
    check_biclique_structure,
    check_regularity,
    check_stability,
    map_clique_to_biclique,
    map_coloring_to_selection,
    map_selection_to_coloring,
    map_selection_to_ordering,
    structural_count,
    target_perm4,
    target_perm6,
)


# ---------------------------------------------------------------------------
# Regularity (condition A)
# ---------------------------------------------------------------------------

def test_regularity_edgeless_grid():
    report, delta = check_regularity(GridGraph(2))
    assert report.holds
    assert delta.sum() == 0


def test_regularity_matching_grid():
    # A perfect matching between two rows gives constant degree 1.
    g = grid_from_edges(2, [((1, 1), (2, 1)), ((1, 2), (2, 2))])
    report, delta = check_regularity(g)
    assert report.holds
    assert delta[0, 1] == delta[1, 0] == 1


def test_regularity_violation_located():
    g = grid_from_edges(2, [((1, 1), (2, 2))])
    report, delta = check_regularity(g)
    assert not report.holds
    assert delta is None
    # Violations name (row, other row, offending column).
    assert any(v[0] == 1 and v[1] == 2 for v in report.violations)


def test_regularity_biclique_covers_both_directions():
    h = reduce_dcnnc_to_dcnnb(
        grid_from_edges(2, [((1, 1), (2, 1)), ((1, 2), (2, 2))], D=1))
    report, delta = check_regularity(h)
    assert report.holds
    n = 2
    assert delta[:n, :n].sum() == 0 and delta[n:, n:].sum() == 0
    assert np.array_equal(delta[:n, n:], delta[n:, :n].T)


# ---------------------------------------------------------------------------
# Stability (conditions B / C)
# ---------------------------------------------------------------------------

def test_stability_edgeless_always_holds():
    report, counts = check_stability(GridGraph(3), 0)
    assert report.holds
    assert counts.shape == (3, 2) and not counts.any()


def test_stability_counts_unstable_rows():
    # (1,1)-(2,1) only: columns 1 and 2 of row 1 differ inside row 2.
    g = grid_from_edges(2, [((1, 1), (2, 1))])
    report, _ = check_stability(g, 1)
    assert report.holds
    report, counts = check_stability(g, 0)
    assert not report.holds
    assert counts is None


def test_stability_counts_each_vertex():
    g = grid_from_edges(2, [((1, 1), (2, 1))])
    report, counts = check_stability(g, 1)
    # Row 1, columns 1->2: row 2 is the one unstable row; row 2, columns
    # 1->2: row 1 is.
    assert counts.tolist() == [[1], [1]]


def test_first_stability_check_at_243_rows_stays_small():
    # The counts are a 243 x 242 table; the r x (r - 1) x r array of
    # stable rows that they replace took 14.3 MB.  A grid that shares the
    # chain grid's stack, and the facts that its checks stored on it,
    # has no stored stability yet.
    cnf = gen_sat(16, 16, 3, seed=1)
    g, bound = reduce_sat_to_coloring(cnf)
    grid = reduce_coloring_to_dcnnc(g, degree_bound=bound, row_cap=243)
    assert grid.side == 243
    fresh = GridGraph(243, D=grid.D, kinds=grid.blocks()[2],
                      blocks=grid.stack())
    tracemalloc.start()
    try:
        report, counts = check_stability(fresh, fresh.D)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
    assert report.holds and counts.shape == (243, 242)


# ---------------------------------------------------------------------------
# Biclique structure
# ---------------------------------------------------------------------------

def test_structure_accepts_doubled_grid():
    h = reduce_dcnnc_to_dcnnb(GridGraph(2))
    assert check_biclique_structure(h).holds


def test_structure_rejects_misplaced_edge():
    # A biclique grid holds only top-vs-bottom edges: a misplaced one is
    # refused by from_edges, before any structure check could see it.
    for a, b in [((1, 1), (1, 2)), ((3, 3), (4, 4)), ((1, 1), (3, 2)),
                 ((1, 3), (3, 3))]:
        with pytest.raises(InvalidInputError, match="joined to a bottom"):
            GridGraph.from_edges(4, [((3, 3), (1, 2)), (a, b)],
                                 kind="biclique")
    # Bottom-to-top is the same edge.
    h = GridGraph.from_edges(4, [((3, 3), (1, 2))], kind="biclique")
    assert list(h.edges()) == [((1, 2), (3, 3))]
    assert h.has_edge((1, 2), (3, 3)) and not h.has_edge((1, 1), (1, 2))
    assert not check_biclique_structure(h).holds


def test_structure_rejects_asymmetric_cross():
    # (1,2)(3,3) present without its partner (1,1)(3,4).
    h = grid_from_edges(4, [((1, 2), (3, 3))], kind="biclique")
    report = check_biclique_structure(h)
    assert not report.holds
    assert "symmetry partner missing" in str(report.violations[0])


def test_structure_asymmetry_in_an_off_diagonal_tile():
    # n = 17: the cross block is 289 x 289, more than one 256-wide tile,
    # and (1,1)(34,34) sits at cross entry [0, 288].
    h = reduce_dcnnc_to_dcnnb(GridGraph(17))
    h = GridGraph.from_edges(34, list(h.edges()) + [((1, 1), (34, 34))],
                             kind="biclique")
    report = check_biclique_structure(h)
    assert report.violations == (
        ((1, 1), (34, 34), "symmetry partner missing"),
        ((17, 17), (18, 18), "symmetry partner missing"),
    )


def test_structure_rejects_odd_side():
    with pytest.raises(InvalidInputError):
        check_biclique_structure(GridGraph(3))


def test_report_lines_format():
    with pytest.raises(InvalidInputError, match="joined to a bottom"):
        grid_from_edges(2, [((1, 1), (1, 2))], kind="biclique")
    h = grid_from_edges(4, [((1, 2), (3, 3))], kind="biclique")
    lines = check_biclique_structure(h).lines()
    assert lines == ["check bipartite-symmetry fail",
                     "  violation ((1, 1), (3, 4), 'symmetry partner missing')",
                     "  violation ((1, 2), (3, 3), 'symmetry partner missing')"]
    ok = check_biclique_structure(reduce_dcnnc_to_dcnnb(GridGraph(1)))
    assert ok.lines() == ["check bipartite-symmetry pass"]


# ---------------------------------------------------------------------------
# One computation per grid and condition
# ---------------------------------------------------------------------------

TRIANGLE = Graph(3, [(1, 2), (1, 3), (2, 3)])


def test_the_in_memory_chain_computes_each_condition_once(count_checks):
    g = reduce_coloring_to_dcnnc(TRIANGLE, degree_bound=2)
    h = reduce_dcnnc_to_dcnnb(g)
    once = {"check_biclique_structure": 1, "check_regularity": 2,
            "check_stability": 2}
    assert count_checks == once
    assert check_regularity(g)[0].holds and check_stability(g, g.D)[0].holds
    assert check_biclique_structure(h).holds
    assert check_regularity(h)[0].holds and check_stability(h, h.D)[0].holds
    # The stored stability data answers every D.
    assert not check_stability(h, 0)[0].holds
    assert check_stability(h, h.D + 5)[0].holds
    reduce_dcnnb_to_perm4(h, dummy_count=2)
    assert count_checks == once


def test_checks_hand_out_read_only_arrays():
    h = reduce_dcnnc_to_dcnnb(reduce_coloring_to_dcnnc(TRIANGLE, 2))
    _, delta = check_regularity(h)
    _, counts = check_stability(h, h.D)
    for array in (delta, counts, h.delta_table):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


def test_a_grid_rebuilt_with_one_more_edge_is_checked_afresh():
    g = reduce_coloring_to_dcnnc(TRIANGLE, degree_bound=2)
    h = reduce_dcnnc_to_dcnnb(g)
    cells = [(i, j) for i in range(1, g.side + 1) for j in range(1, g.side + 1)]
    extra = next((a, b) for a, b in itertools.combinations(cells, 2)
                 if a[0] != b[0] and not g.has_edge(a, b))
    assert check_regularity(g)[0].holds
    more = GridGraph.from_edges(g.side, list(g.edges()) + [extra], D=g.D)
    assert not check_regularity(more)[0].holds
    n = g.side
    extra = next(((i, j), (n + k, n + l))
                 for i, j, k, l in itertools.product(range(1, n + 1), repeat=4)
                 if not h.has_edge((i, j), (n + k, n + l)))
    assert check_biclique_structure(h).holds
    more = GridGraph.from_edges(h.side, list(h.edges()) + [extra],
                                kind="biclique", D=h.D)
    assert not check_biclique_structure(more).holds


# ---------------------------------------------------------------------------
# Closed-form counts
# ---------------------------------------------------------------------------

def test_structural_count_formula():
    assert structural_count(4, 3) == comb(4, 2) * comb(3, 2)
    assert structural_count(0, 5) == 0
    with pytest.raises(InvalidInputError):
        structural_count(-1, 2)


def test_target_perm6_values():
    assert target_perm6(2, 6) == comb(6, 4) * comb(3, 2) + 2 + comb(2, 2)
    assert target_perm6(2, 6) == 48
    assert target_perm6(2, 4) == comb(4, 4) * comb(3, 2) + 2 + 1 == 6
    with pytest.raises(InvalidInputError):
        target_perm6(0, 4)


def test_target_perm4_values():
    assert target_perm4(1, 4, 1) == comb(4, 2) * comb(3, 2) + 3 * 1 + 1
    assert target_perm4(1, 4, 1) == 22
    assert target_perm4(1, 3, 0) == comb(3, 2) * comb(3, 2) + 1 == 10
    for bad in [(0, 4, 1), (1, -1, 1), (1, 4, -1)]:
        with pytest.raises(InvalidInputError):
            target_perm4(*bad)


# ---------------------------------------------------------------------------
# Witness mappers
# ---------------------------------------------------------------------------

def test_coloring_selection_round_trip():
    g = Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    grid = reduce_coloring_to_dcnnc(g, degree_bound=2)
    col = solve_3coloring(g)
    sel = map_coloring_to_selection(col, grid)
    assert len(sel.choice) == grid.side
    back = map_selection_to_coloring(sel, grid)
    assert back == col or all(back[u] != back[v] for u, v in g.edges())


def test_mappers_need_metadata():
    with pytest.raises(InvalidInputError):
        map_coloring_to_selection({}, GridGraph(3))
    with pytest.raises(InvalidInputError):
        map_selection_to_coloring(RowSelection((1, 1, 1)), GridGraph(3))


def test_clique_to_biclique_mapping():
    sel = map_clique_to_biclique(RowSelection((2, 1)))
    assert sel.choice == (2, 1, 4, 3)


def test_selection_to_ordering_perm6_layout():
    g = grid_from_edges(2, [((1, 1), (2, 2))])
    cert = reduce_clique_to_perm6(g, dummy_count=4)
    ordering = map_selection_to_ordering(RowSelection((1, 2)), cert)
    # d1..d4 c1 r1 c2 r2 c3
    assert ordering.sequence() == (1, 2, 3, 4, 7, 5, 8, 6, 9)


def test_selection_to_ordering_groups_same_interval_rows():
    g = grid_from_edges(2, [])
    cert = reduce_clique_to_perm6(g, dummy_count=4)
    ordering = map_selection_to_ordering(RowSelection((2, 2)), cert)
    # Both rows in interval 2, ordered by ascending row index.
    assert ordering.sequence() == (1, 2, 3, 4, 7, 8, 5, 6, 9)


def test_selection_to_ordering_validates_ranges():
    g = grid_from_edges(2, [])
    cert = reduce_clique_to_perm6(g, dummy_count=4)
    with pytest.raises(InvalidInputError):
        map_selection_to_ordering(RowSelection((1, 3)), cert)
    with pytest.raises(InvalidInputError):
        map_selection_to_ordering(RowSelection((1,)), cert)


def test_selection_to_ordering_perm4_half_ranges():
    from permcsp.reductions import reduce_dcnnb_to_perm4
    h = reduce_dcnnc_to_dcnnb(GridGraph(1))
    cert = reduce_dcnnb_to_perm4(h, D=1, dummy_count=4)
    ordering = map_selection_to_ordering(RowSelection((1, 2)), cert)
    # d1..d4 c1 r1 c2 r2 c3
    assert ordering.sequence() == (1, 2, 3, 4, 7, 5, 8, 6, 9)
    with pytest.raises(InvalidInputError):
        map_selection_to_ordering(RowSelection((2, 2)), cert)
    with pytest.raises(InvalidInputError):
        map_selection_to_ordering(RowSelection((1, 1)), cert)
