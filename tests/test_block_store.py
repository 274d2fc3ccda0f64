"""Block-sparse grid storage against the dense storage it replaced.

The dense code lives on here as references: a grid as one boolean
matrix (a clique grid's (side^2) x (side^2) adjacency, a biclique grid's
n^2 x n^2 top-vs-bottom block), the checkers that scanned all of it, and
the writer that took its edges from ``np.nonzero``.  Seeded random grids
mix empty, complete, identity, partial and (on biclique grids)
asymmetric row-pair blocks; every answer must be the same.
"""

import io
import random

import numpy as np
import pytest

from conftest import cross_matrix
from permcsp import validate
from permcsp.formats import dump_grid, read_grid
from permcsp.reductions import (CnfFormula, GridGraph, reduce_coloring_to_dcnnc,
                                reduce_dcnnc_to_dcnnb, reduce_sat_to_coloring)

_MAX_VIOLATIONS = 20


def _from_edges_reference(side, kind, edges):
    """The stored matrix of the grid with ``edges``, set by one index
    assignment, as the dense GridGraph.from_edges set it."""
    ends = np.asarray(edges, dtype=np.int64).reshape(-1, 4)
    r = side // 2 if kind == "biclique" else side
    matrix = np.zeros((r * r, r * r), dtype=bool)
    u, v = ((ends[:, c] - 1) % r * r + (ends[:, c + 1] - 1) % r
            for c in (0, 2))
    if kind == "clique":
        matrix[u, v] = matrix[v, u] = True
    else:
        top = ends[:, 0] <= r
        matrix[np.where(top, u, v), np.where(top, v, u)] = True
    return matrix


def _adj_reference(side, kind, matrix):
    if kind == "clique":
        return matrix
    n = side // 2
    adj = np.zeros((side * side, side * side), dtype=bool)
    adj4 = adj.reshape(side, side, side, side)
    cross = matrix.reshape(n, n, n, n)
    adj4[:n, :n, n:, n:] = cross
    adj4[n:, n:, :n, :n] = cross.transpose(2, 3, 0, 1)
    return adj


def _edges_reference(side, kind, matrix):
    r = side // 2 if kind == "biclique" else side
    offset = side - r
    for u in range(r * r):
        a = (u // r + 1, u % r + 1)
        start = u + 1 if kind == "clique" else 0
        for v in (np.nonzero(matrix[u, start:])[0] + start).tolist():
            yield a, (offset + v // r + 1, offset + v % r + 1)


def _regularity_reference(side, kind, matrix):
    r = side // 2 if kind == "biclique" else side
    offset = side - r
    blocks = matrix.reshape(r, r, r, r)
    deg = blocks.sum(axis=3).transpose(0, 2, 1)[:, :, None]
    if kind == "biclique":
        deg = np.concatenate([deg, blocks.sum(axis=1)[:, :, None]], axis=2)
    violations = []
    for i, k, s in np.argwhere(deg.min(axis=3) != deg.max(axis=3)).tolist():
        col = deg[i, k, s]
        j = int(np.argmax(col != col[0]))
        rows = (i + 1, offset + k + 1)
        violations.append((rows[::-1] if s else rows) + (
            j + 1, "degree %d != %d" % (col[j], col[0])))
    if violations:
        return violations[:_MAX_VIOLATIONS], None
    delta = np.zeros((side, side), dtype=np.int64)
    delta[:r, offset:offset + r] = deg[:, :, 0, 0]
    if kind == "biclique":
        delta[r:, :r] = deg[:, :, 1, 0].T
    return [], delta


def _stability_reference(side, kind, matrix):
    r = side // 2 if kind == "biclique" else side
    blocks = matrix.reshape(r, r, r, r)
    stable = np.zeros((r, r - 1, r), dtype=bool)
    for i in range(r):
        stable[i] = (blocks[i, :-1] == blocks[i, 1:]).all(axis=2)
    return stable


def _structure_reference(side, matrix):
    n = side // 2
    violations = []
    for a, b in zip(*np.nonzero(matrix != matrix.T)):
        i, j = int(a) // n + 1, int(a) % n + 1
        ip, jp = int(b) // n + 1, int(b) % n + 1
        violations.append(((i, j), (n + ip, n + jp),
                           "symmetry partner missing"))
    return violations[:_MAX_VIOLATIONS]


def _dump_grid_reference(side, kind, D, matrix):
    r = side // 2 if kind == "biclique" else side
    offset = side - r
    out = ["p grid %d%s\nc kind %s\n" % (side, "" if D is None else " %d" % D,
                                         kind)]
    us, vs = np.nonzero(matrix)
    for u, v in zip(us.tolist(), vs.tolist()):
        if kind == "biclique" or v > u:
            out.append("e %d %d %d %d\n" % (u // r + 1, u % r + 1,
                                            offset + v // r + 1,
                                            offset + v % r + 1))
    return "".join(out)


def _random_block(rng, r, diagonal):
    """An r x r block: empty, complete, identity, a permutation (regular)
    or random; a clique grid's diagonal block is symmetric, loop-free."""
    shape = rng.choice(["empty", "complete", "identity", "perm", "random"])
    if diagonal:
        block = np.triu(np.array([[rng.random() < 0.4 for _ in range(r)]
                                  for _ in range(r)]), 1)
        return block | block.T if shape in ("perm", "random") else \
            np.zeros((r, r), dtype=bool)
    if shape == "empty":
        return np.zeros((r, r), dtype=bool)
    if shape == "complete":
        return np.ones((r, r), dtype=bool)
    if shape == "identity":
        return np.eye(r, dtype=bool)
    if shape == "perm":
        return np.eye(r, dtype=bool)[rng.sample(range(r), r)]
    return np.array([[rng.random() < 0.5 for _ in range(r)]
                     for _ in range(r)])


def _random_grid_edges(seed):
    """(side, kind, edges) of a seeded grid built pair by pair."""
    rng = random.Random(seed)
    kind = rng.choice(["clique", "biclique"])
    r = rng.randint(1, 4)
    side, offset = (2 * r, r) if kind == "biclique" else (r, 0)
    symmetric = kind == "clique" or rng.random() < 0.4
    blocks = {}
    for i in range(r):
        for k in range(r):
            if symmetric and k < i:
                blocks[i, k] = blocks[k, i].T
            else:
                blocks[i, k] = _random_block(rng, r, kind == "clique"
                                             and i == k)
    edges = [((i + 1, j + 1), (offset + k + 1, offset + l + 1))
             for (i, k), block in blocks.items()
             for j, l in np.argwhere(block).tolist()
             if kind == "biclique" or i < k or (i == k and j < l)]
    rng.shuffle(edges)
    return side, kind, [e if rng.random() < 0.5 else e[::-1] for e in edges]


@pytest.mark.parametrize("seed", range(60))
def test_block_store_matches_the_dense_matrix(seed):
    side, kind, edges = _random_grid_edges(seed)
    g = GridGraph.from_edges(side, edges, kind=kind, D=seed % 3)
    matrix = _from_edges_reference(side, kind, edges)
    assert np.array_equal(g.adj, _adj_reference(side, kind, matrix))
    if kind == "biclique":
        assert np.array_equal(cross_matrix(g), matrix)
    assert list(g.edges()) == list(_edges_reference(side, kind, matrix))
    assert g.num_edges() == len(list(_edges_reference(side, kind, matrix)))
    adj = g.adj
    cells = [(i, j) for i in range(1, side + 1) for j in range(1, side + 1)]
    assert [g.has_edge(a, b) for a in cells for b in cells] == \
        adj.ravel().tolist()
    buf = io.StringIO()
    dump_grid(g, buf)
    assert buf.getvalue() == _dump_grid_reference(side, kind, g.D, matrix)
    assert list(read_grid(buf.getvalue()).edges()) == list(g.edges())


@pytest.mark.parametrize("seed", range(60))
def test_checkers_match_the_dense_checkers(seed):
    side, kind, edges = _random_grid_edges(seed)
    g = GridGraph.from_edges(side, edges, kind=kind)
    matrix = _from_edges_reference(side, kind, edges)
    report, delta = validate.check_regularity(g)
    violations, want = _regularity_reference(side, kind, matrix)
    assert list(report.violations) == violations
    assert (delta is None and want is None) or np.array_equal(delta, want)
    stable = validate._stability(g)
    assert np.array_equal(stable, _stability_reference(side, kind, matrix))
    for D in range(stable.shape[0] + 1):
        counts = stable.shape[2] - stable.sum(axis=2)
        assert validate.check_stability(g, D)[0].holds == \
            bool((counts <= D).all())
    if kind == "biclique":
        assert list(validate.check_biclique_structure(g).violations) == \
            _structure_reference(side, matrix)


def _irregular_grid_edges(seed, kind, r):
    """Edges of a grid whose row pairs are mostly random blocks, so that
    regularity, stability and (on a biclique grid) symmetry fail in most
    of them, with a few empty, complete and identity pairs between."""
    rng = random.Random(seed)
    offset = r if kind == "biclique" else 0
    edges = []
    for i in range(r):
        for k in range(i + 1 if kind == "clique" else 0, r):
            shape = rng.choice(["random"] * 5 + ["empty", "complete",
                                                 "identity"])
            block = (np.zeros((r, r), dtype=bool) if shape == "empty" else
                     np.ones((r, r), dtype=bool) if shape == "complete" else
                     np.eye(r, dtype=bool) if shape == "identity" else
                     np.array([[rng.random() < 0.5 for _ in range(r)]
                               for _ in range(r)]))
            edges += [((i + 1, j + 1), (offset + k + 1, offset + l + 1))
                      for j, l in np.argwhere(block).tolist()]
    return edges


# Chunks of 1, 2 and 7 blocks, and one chunk for every block.
@pytest.mark.parametrize("chunk", [1, 2, 7, 10 ** 6])
@pytest.mark.parametrize("seed, kind, r", [(0, "clique", 7), (1, "clique", 9),
                                           (2, "biclique", 6),
                                           (3, "biclique", 8)])
def test_stacked_checks_match_the_dense_checkers_across_chunks(
        seed, kind, r, chunk, monkeypatch):
    # More violating pairs than a chunk holds and than the report keeps:
    # chunk edges and the cut at _MAX_VIOLATIONS both fall inside them.
    monkeypatch.setattr(validate, "_STACK_CELLS", chunk * r * r)
    side = 2 * r if kind == "biclique" else r
    edges = _irregular_grid_edges(seed, kind, r)
    g = GridGraph.from_edges(side, edges, kind=kind)
    matrix = _from_edges_reference(side, kind, edges)
    assert len(g.blocks()[3]) > 2 * chunk or chunk > 100
    report, delta = validate.check_regularity(g)
    violations, _ = _regularity_reference(side, kind, matrix)
    assert len(violations) == _MAX_VIOLATIONS and delta is None
    assert list(report.violations) == violations
    assert np.array_equal(validate._stability(g),
                          _stability_reference(side, kind, matrix))
    if kind == "biclique":
        report = validate.check_biclique_structure(g)
        assert len(report.violations) == _MAX_VIOLATIONS
        assert list(report.violations) == _structure_reference(side, matrix)


@pytest.mark.parametrize("seed, kind, r", [(0, "clique", 7),
                                           (2, "biclique", 6)])
def test_stability_reports_match_the_dense_counts_past_the_cap(seed, kind, r):
    # The unstable-row counts are stored once per grid; each D's report
    # keeps the first _MAX_VIOLATIONS vertices over D, in (i, j) order.
    side = 2 * r if kind == "biclique" else r
    edges = _irregular_grid_edges(seed, kind, r)
    g = GridGraph.from_edges(side, edges, kind=kind)
    stable = _stability_reference(side, kind,
                                  _from_edges_reference(side, kind, edges))
    counts = r - stable.sum(axis=2)
    assert (counts > 0).sum() > _MAX_VIOLATIONS
    for D in range(r + 1):
        want = [(i + 1, j + 1, "%d unstable rows > D=%d" % (counts[i, j], D))
                for i, j in np.argwhere(counts > D).tolist()]
        report, witness = validate.check_stability(g, D)
        assert list(report.violations) == want[:_MAX_VIOLATIONS]
        assert report.holds == (witness is not None) == (not want)


@pytest.mark.parametrize("chunk", [1, 3])
def test_stacked_checks_keep_the_delta_table_across_chunks(chunk,
                                                           monkeypatch):
    # A regular grid split over several chunks: the same delta table.
    monkeypatch.setattr(validate, "_STACK_CELLS", chunk * 27 * 27)
    g, bound = reduce_sat_to_coloring(CnfFormula(1, ((1,),), 3))
    grid = reduce_coloring_to_dcnnc(g, degree_bound=bound)
    for x in (grid, reduce_dcnnc_to_dcnnb(grid)):
        side, kind = x.side, x.kind
        matrix = cross_matrix(x)
        report, delta = validate._regularity(x)
        assert report.holds
        assert np.array_equal(delta, _regularity_reference(side, kind,
                                                           matrix)[1])
        assert np.array_equal(validate._stability(x),
                              _stability_reference(side, kind, matrix))


def test_structure_violations_keep_their_order_past_the_cap():
    # Every pair asymmetric, many violations per pair: the first 20 in
    # (i, j, i', j') order, as the dense scan found them.
    rng = random.Random(5)
    n = 4
    edges = [((i, j), (n + k, n + l)) for i in range(1, n + 1)
             for j in range(1, n + 1) for k in range(1, n + 1)
             for l in range(1, n + 1) if rng.random() < 0.5]
    h = GridGraph.from_edges(2 * n, edges, kind="biclique")
    matrix = _from_edges_reference(2 * n, "biclique", edges)
    report = validate.check_biclique_structure(h)
    assert len(report.violations) == _MAX_VIOLATIONS
    assert list(report.violations) == _structure_reference(2 * n, matrix)


def test_doubling_matches_the_dense_doubling():
    doubled = 0
    for seed in range(60):
        side, kind, edges = _random_grid_edges(seed)
        if kind != "clique":
            continue
        g = GridGraph.from_edges(side, edges)
        try:
            h = reduce_dcnnc_to_dcnnb(g)
        except ValueError:
            continue                    # an irregular G is refused
        cross = _from_edges_reference(side, kind, edges).copy()
        np.fill_diagonal(cross, True)
        assert np.array_equal(cross_matrix(h), cross)
        doubled += 1
    assert doubled >= 5
