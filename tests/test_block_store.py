"""Block-sparse grid storage against the dense storage it replaced.

The dense code lives on here as references: a grid as one boolean
matrix (a clique grid's (side^2) x (side^2) adjacency, a biclique grid's
n^2 x n^2 top-vs-bottom block), the checkers that scanned all of it, and
the writer that took its edges from ``np.nonzero``.  Seeded random grids
mix empty, complete, identity, partial and (on biclique grids)
asymmetric row-pair blocks; every answer must be the same.  So do the
per-pair checks and the block-by-block classification that the stack
of distinct blocks and its stored facts replaced.
"""

import io
import random

import numpy as np
import pytest

from conftest import blocks_by_pair, cross_matrix, stacked
from permcsp import formats, validate
from permcsp.core import Graph, InvalidInputError
from permcsp.formats import dump_grid, read_grid, write_grid
from permcsp.reductions import (BLOCK, COMPLETE, EMPTY, IDENTITY, CnfFormula,
                                GridGraph, reduce_coloring_to_dcnnc,
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
    assert len(blocks_by_pair(g)) > 2 * chunk or chunk > 100
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


# ---------------------------------------------------------------------------
# The per-pair checks that the stack facts replaced, as references: each
# grid stacked its BLOCK pairs' blocks again, a chunk at a time, for every
# check, and the constructor classified one block at a time.
# ---------------------------------------------------------------------------

def _stacks_reference(g, pairs):
    step = max(1, validate._STACK_CELLS // g.blocks()[0] ** 2)
    for lo in range(0, len(pairs), step):
        chunk = pairs[lo:lo + step]
        yield *chunk.T, np.stack([g.block(*p) for p in chunk.tolist()])


def _regularity_pairs_reference(g):
    (r, offset, kinds), blocks = g.blocks(), blocks_by_pair(g)
    sides = 2 if g.kind == "biclique" else 1
    deg = np.repeat(np.array([0, r, 1, 0])[kinds][:, :, None], sides, axis=2)
    violations = []
    for i, k, stack in _stacks_reference(g, np.array(sorted(blocks))):
        cols = np.stack([stack.view(np.uint8).sum(axis=a, dtype=np.int32)
                         for a in (2, 1)[:sides]], axis=1)
        deg[i, k] = cols[:, :, 0]
        bad = np.argwhere((cols != cols[:, :, :1]).any(axis=2))
        for p, s in bad[:_MAX_VIOLATIONS - len(violations)].tolist():
            col = cols[p, s]
            j = int(np.argmax(col != col[0]))
            rows = (int(i[p]) + 1, offset + int(k[p]) + 1)
            violations.append((rows[::-1] if s else rows) + (
                j + 1, "degree %d != %d" % (col[j], col[0])))
    if violations:
        return violations, None
    delta = np.zeros((g.side, g.side), dtype=np.int64)
    delta[:r, offset:offset + r] = deg[:, :, 0]
    if g.kind == "biclique":
        delta[r:, :r] = deg[:, :, 1].T
    return violations, delta


def _stability_pairs_reference(g):
    (r, _, kinds), blocks = g.blocks(), blocks_by_pair(g)
    stable = np.ones((r, r - 1, r), dtype=bool)
    rows, others = np.nonzero(kinds == IDENTITY)
    stable[rows, :, others] = False
    for i, k, stack in _stacks_reference(g, np.array(list(blocks))):
        stable[i, :, k] = (stack[:, :-1] == stack[:, 1:]).all(axis=2)
    return stable


def _structure_pairs_reference(h):
    n, _, kinds = h.blocks()
    pairs = np.argwhere(np.triu((kinds != kinds.T) | (kinds == BLOCK)))
    first = np.zeros(0, dtype=np.int64)
    for (i, k, stack), (_, _, partner) in zip(
            _stacks_reference(h, pairs), _stacks_reference(h, pairs[:, ::-1])):
        p, j, l = np.unravel_index(np.flatnonzero(
            stack != partner.transpose(0, 2, 1)), stack.shape)
        hits = np.array([i[p], j, k[p], l])
        hits = np.hstack([hits, hits[[2, 3, 0, 1]][:, i[p] != k[p]]])
        first = np.sort(np.concatenate(
            [first, np.ravel_multi_index(hits, (n,) * 4)]))[:_MAX_VIOLATIONS]
    found = np.transpose(np.unravel_index(first, (n,) * 4)).tolist()
    return [((i + 1, j + 1), (n + k + 1, n + l + 1), "symmetry partner missing")
            for i, j, k, l in found]


def _signs_reference(kind, stored):
    """The sign of each BLOCK pair's placement in ``stored``, blocks by
    pair: a clique pair (k, i) with k > i is (i, k)'s entry transposed
    (-1), and so is a biclique pair (k, i) whose block is the transpose
    of (i, k)'s; every other pair is stored as it is (+1)."""
    return {(k, i): -1 if i < k and (kind == "clique" or (i, k) in stored
                                     and np.array_equal(block, stored[i, k].T))
            else 1 for (k, i), block in stored.items()}


def _kind_reference(block):
    r = len(block)
    count = np.count_nonzero(block)
    return (EMPTY if count == 0 else COMPLETE if count == r * r else
            IDENTITY if count == r == block.trace() else BLOCK)


def _assert_checks_match_the_references(g):
    """Every check of ``g``, computed afresh, against the per-pair ones."""
    report, delta = validate._regularity(g)
    violations, want = _regularity_pairs_reference(g)
    assert list(report.violations) == violations[:_MAX_VIOLATIONS]
    assert (delta is None and want is None) or (
        delta.dtype == want.dtype and np.array_equal(delta, want))
    stable, counts = validate._stability_counts(g)
    assert stable.dtype == bool and not stable.flags.writeable
    assert np.array_equal(stable, _stability_pairs_reference(g))
    want = stable.shape[2] - stable.sum(axis=2)
    assert counts.dtype == want.dtype and not counts.flags.writeable
    assert np.array_equal(counts, want)
    if g.kind == "biclique":
        assert list(validate._structure(g).violations) == \
            _structure_pairs_reference(g)
    return report


def _shared_double(g):
    """The biclique grid that takes G's stack and pairs as they are, each
    clique pair (k, i) the transpose of (i, k)'s entry, whether or not G
    is regular (the doubling refuses an irregular G)."""
    kinds = g.blocks()[2].copy()
    np.fill_diagonal(kinds, IDENTITY)
    return GridGraph(2 * g.side, kind="biclique", kinds=kinds,
                     blocks=g.stack())


def _irregular_grids(seed, kind, r):
    """A grid from edges, the same grid read back from its file, and for
    a clique grid its shared double."""
    side = 2 * r if kind == "biclique" else r
    edges = _irregular_grid_edges(seed, kind, r)
    g = GridGraph.from_edges(side, edges, kind=kind)
    grids = [g, read_grid(write_grid(g))]
    if kind == "clique":
        grids.append(_shared_double(g))
    return grids


@pytest.mark.parametrize("seed", range(60))
def test_stack_checks_match_the_per_pair_checks(seed):
    side, kind, edges = _random_grid_edges(seed)
    g = GridGraph.from_edges(side, edges, kind=kind)
    grids = [g, read_grid(write_grid(g))]
    if kind == "clique":
        # The doubling adds a new entry for each row with edges inside.
        if all(np.diagonal(g.blocks()[2]) != BLOCK):
            grids.append(_shared_double(g))
        try:
            grids.append(reduce_dcnnc_to_dcnnb(g))
        except InvalidInputError:
            pass                        # an irregular G is refused
    for x in grids:
        _assert_checks_match_the_references(x)


# Chunks of 1, 2 and 7 blocks, and one chunk for every block.
@pytest.mark.parametrize("chunk", [1, 2, 7, 10 ** 6])
@pytest.mark.parametrize("seed, kind, r", [(0, "clique", 7), (1, "clique", 9),
                                           (2, "biclique", 6),
                                           (3, "biclique", 8)])
def test_stack_checks_match_across_chunks_and_past_the_cap(
        seed, kind, r, chunk, monkeypatch):
    monkeypatch.setattr(validate, "_STACK_CELLS", chunk * r * r)
    for g in _irregular_grids(seed, kind, r):
        assert len(g.stack()[0].array) > chunk or chunk > 100
        violations, _ = _regularity_pairs_reference(g)
        assert len(violations) == _MAX_VIOLATIONS
        _assert_checks_match_the_references(g)


@pytest.mark.parametrize("chunk", [1, 3, 10 ** 6])
def test_stack_checks_match_on_the_reduction_chain(chunk, monkeypatch):
    # Regular grids, so the delta tables and stable arrays are compared
    # too: the clique grid, its doubling (sharing its stack), and both
    # read back from their files (one stack entry per stored pair).
    monkeypatch.setattr(validate, "_STACK_CELLS", chunk * 9 * 9)
    for g, bound in [reduce_sat_to_coloring(CnfFormula(1, ((1,),), 3)),
                     (Graph(3, [(1, 2), (1, 3), (2, 3)]), 2),
                     (Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5)]), 2)]:
        grid = reduce_coloring_to_dcnnc(g, degree_bound=bound)
        h = reduce_dcnnc_to_dcnnb(grid)
        assert h.stack()[0] is grid.stack()[0]
        for x in (grid, h, read_grid(write_grid(grid)),
                  read_grid(write_grid(h))):
            assert _assert_checks_match_the_references(x).holds


def test_doubling_shares_the_stack_and_its_facts(monkeypatch):
    calls = []
    facts = validate._facts
    monkeypatch.setattr(validate, "_facts",
                        lambda blocks: calls.append(len(blocks)) or
                        facts(blocks))
    g, bound = reduce_sat_to_coloring(CnfFormula(1, ((1,),), 3))
    grid = reduce_coloring_to_dcnnc(g, degree_bound=bound)
    h = reduce_dcnnc_to_dcnnb(grid)
    stack = grid.stack()[0]
    r, _, kinds = h.blocks()
    assert h.stack()[0] is stack
    assert len(blocks_by_pair(h)) == 2 * len(stack.array)
    assert (np.diagonal(kinds) == IDENTITY).all()
    for i, k in np.argwhere(kinds == BLOCK).tolist():
        assert np.shares_memory(h.block(i, k), stack.array)
        assert h.block(i, k) is not h.block(k, i)
        assert np.array_equal(h.block(i, k), h.block(k, i).T)
    for x in (grid, h):
        validate.check_regularity(x), validate.check_stability(x, x.D)
    validate.check_biclique_structure(h)
    assert calls == [len(stack.array)]          # once for G and H together


def test_an_asymmetric_doubled_grid_from_a_file_is_rejected(monkeypatch):
    # The file's H places each pair (k, i) as (i, k)'s entry transposed,
    # as the doubling does, so no pair is compared cell by cell; one edge
    # less breaks the symmetry, and that pair and its partner are.
    compared = []
    stacks = validate._stacks
    monkeypatch.setattr(validate, "_stacks", lambda g, pairs: compared.append(
        sorted(map(tuple, pairs.tolist()))) or stacks(g, pairs))
    g, bound = reduce_sat_to_coloring(CnfFormula(1, ((1,),), 3))
    h = reduce_dcnnc_to_dcnnb(reduce_coloring_to_dcnnc(g, bound))
    text = write_grid(h)
    compared.clear()
    assert validate.check_biclique_structure(read_grid(text)).holds
    assert compared == [[], []]
    (i, j), (k, l) = next(e for e in h.edges() if e[0][0] != e[1][0] - 27)
    cut = read_grid(text.replace("e %d %d %d %d\n" % (i, j, k, l), ""))
    report = validate.check_biclique_structure(cut)
    pair = min((i - 1, k - 28), (k - 28, i - 1))
    assert compared[2:] == [[pair], [pair[::-1]]]
    assert list(report.violations) == _structure_pairs_reference(cut)
    assert sorted(report.violations) == sorted([
        ((k - 27, l - 27), (i + 27, j + 27), "symmetry partner missing"),
        ((i, j), (k, l), "symmetry partner missing")])


def _edge_case_blocks(r):
    """Blocks of every kind, and the near misses: identity plus one
    cell, full minus one cell, a permutation, a single cell."""
    eye, full = np.eye(r, dtype=bool), np.ones((r, r), dtype=bool)
    plus, minus = eye.copy(), full.copy()
    plus[0, r - 1] = True
    minus[r - 1, 0] = False
    single = np.zeros((r, r), dtype=bool)
    single[0, 0] = True
    return [np.zeros((r, r), dtype=bool), full, eye, plus, minus,
            eye[::-1].copy(), single]


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("kind", ["clique", "biclique"])
def test_classification_over_the_stack_matches_the_block_loop(kind, r):
    cases = _edge_case_blocks(r)
    side = 2 * r if kind == "biclique" else r
    rng = random.Random(r)
    pairs = [(i, k) for i in range(r) for k in range(r)
             if kind == "biclique" or i < k]
    for _ in range(8):
        blocks = {pair: rng.choice(cases) for pair in pairs}
        # One entry per pair, and the same with a spare entry that no
        # pair places, which the constructor drops.
        stack, at = stacked(blocks, r)
        spare = np.concatenate([stack, cases[3][None]])
        for g in (GridGraph(side, kind=kind, blocks=(stack, at)),
                  GridGraph(side, kind=kind, blocks=(spare, at))):
            kinds, stored = g.blocks()[2], blocks_by_pair(g)
            stack_, where = g.stack()
            for (i, k), block in blocks.items():
                assert kinds[i, k] == _kind_reference(block)
                assert np.array_equal(g.block(i, k), block)
                if kind == "clique":
                    assert kinds[k, i] == kinds[i, k]
                    assert np.array_equal(g.block(k, i), block.T)
            signs = _signs_reference(kind, stored)
            assert {pair: int(np.sign(where[pair])) for pair in stored} == \
                signs
            assert all(where[k, i] == -where[i, k]
                       for (i, k), sign in signs.items() if sign < 0)
            assert len(stack_.array) == list(signs.values()).count(1)
            assert (where != 0).sum() == len(stored)
            for array in (stack_.array, where, kinds, *stored.values(),
                          *(g.block(i, k) for i in range(r)
                            for k in range(r))):
                with pytest.raises(ValueError, match="read-only"):
                    array[(0,) * array.ndim] = 1


def test_counts_past_255_are_exact():
    # The facts and the stable-row counts sum in the smallest dtype that
    # holds r: uint16 here, where 256 rows are stable for most vertices.
    minus = np.ones((256, 256), dtype=bool)
    minus[1, 0] = False
    g = GridGraph(256, blocks=stacked({(0, 1): minus}, 256))
    report, delta = validate.check_regularity(g)
    assert report.violations[:2] == ((1, 2, 2, "degree 255 != 256"),
                                     (2, 1, 2, "degree 256 != 255"))
    assert list(report.violations) == _regularity_pairs_reference(g)[0]
    report, _ = validate.check_stability(g, 0)
    assert report.violations == ((1, 1, "1 unstable rows > D=0"),
                                 (1, 2, "1 unstable rows > D=0"),
                                 (2, 1, "1 unstable rows > D=0"))
    _, counts = validate._stability_counts(g)
    assert np.array_equal(counts, 256 - _stability_pairs_reference(g).sum(
        axis=2))


def test_a_misshapen_stack_is_refused():
    # A block of the wrong shape, a placement table of the wrong shape,
    # and an entry past the stack.
    eye = np.eye(2, dtype=bool)[None]
    for blocks in [(np.ones((1, 2, 3), dtype=bool), [[0, 1], [0, 0]]),
                   (eye, [[0, 1]]), (eye, [[0, 2], [0, 0]])]:
        with pytest.raises(InvalidInputError, match="blocks and placements "
                           "must be 2 x 2, with entries 1..1"):
            GridGraph(2, blocks=blocks)


def _shuffled(text, seed):
    """A grid file's text with its edge and delta lines shuffled."""
    lines = text.splitlines(keepends=True)
    return "".join(lines[:2] + random.Random(seed).sample(lines[2:],
                                                          len(lines) - 2))


def _layout(g):
    """g's kinds table, its number of stack entries and its pattern of
    stored (+1) and transposed (-1) placements.  A 1 x 1 identity block
    is the complete one, which is what a file makes of it."""
    (r, _, kinds), (stack, at) = g.blocks(), g.stack()
    if r == 1:
        kinds = np.where(kinds == IDENTITY, COMPLETE, kinds)
    return kinds.tolist(), len(stack.array), np.sign(at).tolist()


def test_the_stack_read_in_many_parts_grows_and_is_trimmed(monkeypatch):
    # A file read a few lines at a time adds its pairs to the stack in
    # many calls; the grid keeps the layout that from_edges gives it.
    monkeypatch.setattr(formats, "_CHUNK", 64)
    side, kind, edges = 8, "biclique", _irregular_grid_edges(4, "biclique", 4)
    g = GridGraph.from_edges(side, edges, kind=kind)
    text = write_grid(g)
    for got in (read_grid(text), read_grid(_shuffled(text, 0))):
        assert list(got.edges()) == list(g.edges())
        assert _layout(got) == _layout(g)


def _built_grids():
    """The grids this module builds: from edges (seeded random and
    irregular), their doublings (shared and reduced), and from the
    reduction chain, a clique grid and its doubling."""
    for seed in range(60):
        side, kind, edges = _random_grid_edges(seed)
        g = GridGraph.from_edges(side, edges, kind=kind)
        yield g
        if kind == "clique":
            if all(np.diagonal(g.blocks()[2]) != BLOCK):
                yield _shared_double(g)
            try:
                yield reduce_dcnnc_to_dcnnb(g)
            except InvalidInputError:
                pass                    # an irregular G is refused
    for seed, kind, r in [(0, "clique", 7), (1, "clique", 9),
                          (2, "biclique", 6), (3, "biclique", 8)]:
        yield from _irregular_grids(seed, kind, r)
    for g, bound in [reduce_sat_to_coloring(CnfFormula(1, ((1,),), 3)),
                     (Graph(3, [(1, 2), (1, 3), (2, 3)]), 2),
                     (Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5)]), 2)]:
        grid = reduce_coloring_to_dcnnc(g, degree_bound=bound)
        yield from (grid, reduce_dcnnc_to_dcnnb(grid))


@pytest.mark.parametrize("chunk", [formats._CHUNK, 64])
def test_a_grid_read_back_from_its_file_keeps_its_layout(chunk, monkeypatch):
    # Whoever built the grid, its file gives it back with the same kinds,
    # stack entries and placements: a biclique pair (k, i) whose block is
    # the transpose of (i, k)'s is placed as that entry transposed.  The
    # chain's 27-row grids are read whole, the others 64 characters at a
    # time too, in order and shuffled.
    monkeypatch.setattr(formats, "_CHUNK", chunk)
    count = 0
    for g in _built_grids():
        if g.side > 18 and chunk == 64:
            continue
        text = write_grid(g)
        for got in (read_grid(text), read_grid(_shuffled(text, g.side))):
            assert _layout(got) == _layout(g)
            count += 1
    assert count > 150
