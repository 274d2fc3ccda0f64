"""Shared helpers for the test suite.

Random cases use seeded random.Random so every run sees the same data.
"""

import itertools
import random

import numpy as np
import pytest

from permcsp.core import Graph, PermCspInstance
from permcsp.reductions import GridGraph


def grid_from_edges(side, edges, kind="clique", D=None):
    """GridGraph from ((i, j), (i', j')) pairs with 1-based coordinates."""
    return GridGraph.from_edges(side, edges, kind=kind, D=D)


def dense_blocks(h):
    """r, offset and the grid's blocks as one dense [i, j, k, l] array,
    read through ``h.block``."""
    r, offset, _, _ = h.blocks()
    blocks = np.array([[h.block(i, k) for k in range(r)] for i in range(r)])
    return r, offset, blocks.transpose(0, 2, 1, 3)


def cross_matrix(h):
    """A biclique grid's dense n^2 x n^2 top-vs-bottom block: entry
    [(i-1)*n + j-1, (i'-1)*n + j'-1] says whether (i, j)(n+i', n+j') is
    an edge."""
    n, _, blocks = dense_blocks(h)
    return blocks.reshape(n * n, n * n)


def graph_from_nx(g):
    """The :class:`Graph` of a networkx graph on the vertices 1..n, or on
    0..n-1 with every label shifted up by one."""
    shift = 1 if 0 in g else 0
    return Graph(g.number_of_nodes(),
                 [(u + shift, v + shift) for u, v in g.edges()])


def all_cross_row_edges(side):
    """Every possible edge between vertices of distinct rows."""
    vs = [(i, j) for i in range(1, side + 1) for j in range(1, side + 1)]
    return [(a, b) for a, b in itertools.combinations(vs, 2) if a[0] != b[0]]


def random_instance(rng, num_vars, max_constraints, max_arity=3):
    """Random instance with the given bounds; duplicates allowed."""
    constraints = []
    for _ in range(rng.randint(0, max_constraints)):
        arity = rng.randint(1, max_arity)
        constraints.append(tuple(rng.sample(range(1, num_vars + 1),
                                            min(arity, num_vars))))
    return PermCspInstance.make(num_vars, constraints)


def edges_among(grid, vertices):
    """Number of grid edges with both endpoints in ``vertices``."""
    return sum(1 for a, b in itertools.combinations(vertices, 2)
               if grid.has_edge(a, b))


def cross_edges_among(h, selection):
    """Edges of a biclique grid induced by a full row selection."""
    n = h.side // 2
    count = 0
    for i in range(1, n + 1):
        j = selection.choice[i - 1]
        for ip in range(1, n + 1):
            jp = selection.choice[n + ip - 1] - n
            if h.has_edge((i, j), (n + ip, n + jp)):
                count += 1
    return count


def assert_error_at(err, text, line):
    """Assert that FormatError ``err`` points at the start of the one line
    of ``text`` that reads ``line``: its 1-based number and the offset of
    its first character."""
    lines = text.split("\n")
    assert lines.count(line) == 1
    k = lines.index(line)
    offset = sum(len(l) + 1 for l in lines[:k])
    assert (err.line, err.offset) == (k + 1, offset)


@pytest.fixture
def rng():
    return random.Random(0)


@pytest.fixture
def count_checks(monkeypatch):
    """Counts, by checker name, of the grid-condition computations: a
    condition asked again of the same grid reads the result stored on it
    and is not counted."""
    from permcsp import validate
    counts = {}
    for name, compute in [("check_biclique_structure", "_structure"),
                          ("check_regularity", "_regularity"),
                          ("check_stability", "_stability")]:
        def counted(g, _name=name, _compute=getattr(validate, compute)):
            counts[_name] += 1
            return _compute(g)
        counts[name] = 0
        monkeypatch.setattr(validate, compute, counted)
    return counts
