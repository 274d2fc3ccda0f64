"""The reduction chain and its combinatorial subroutines.

Implements, at desk scale, the constructive reductions

    sparse 3-SAT -> bounded-degree 3-Coloring -> degree-constrained
    n x n Clique -> 2n x 2n Biclique -> arity-4 Permutation CSP

plus the direct n x n Clique -> arity-6 Permutation CSP reduction, and
the two helpers they need: reflected ternary Gray codes and distance-3
vertex partitions.  Each reduction to a Permutation CSP emits a
:class:`ReductionCertificate` carrying the target value that
characterizes yes-instances.
"""

import itertools
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Dict, List, Optional, Tuple

import numpy as np

from permcsp.core import (
    Graph,
    InternalConsistencyError,
    InvalidInputError,
    PermCspInstance,
    SizeLimitError,
)


# ---------------------------------------------------------------------------
# Data types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CnfFormula:
    """A CNF formula with clause sizes 1..3 and per-variable frequency bound.

    Literals are nonzero integers, DIMACS style.  ``freq_bound`` is the
    declared maximum number of literal occurrences of any variable; it
    defaults to the measured maximum.
    """

    num_vars: int
    clauses: Tuple[Tuple[int, ...], ...]
    freq_bound: int = 0

    def __post_init__(self):
        counts = self.frequencies()
        measured = max(counts.values(), default=0)
        if self.freq_bound == 0:
            object.__setattr__(self, "freq_bound", measured)
        elif measured > self.freq_bound:
            raise InvalidInputError(
                "a variable occurs %d times, declared bound is %d"
                % (measured, self.freq_bound)
            )
        for clause in self.clauses:
            for lit in clause:
                if lit == 0 or not 1 <= abs(lit) <= self.num_vars:
                    raise InvalidInputError("literal %d out of range" % lit)

    def frequencies(self) -> Dict[int, int]:
        """Number of literal occurrences of each variable."""
        counts = defaultdict(int)
        for clause in self.clauses:
            for l in clause:
                counts[abs(l)] += 1
        return dict(counts)


# Row-pair kinds of a GridGraph; only BLOCK pairs keep a block.
EMPTY, COMPLETE, IDENTITY, BLOCK = range(4)
_GRAY_DIGITS = 12       # the most digit positions of a ternary Gray code


@lru_cache(maxsize=16)
def _constant(r, kind):
    """The one read-only r x r block of EMPTY, COMPLETE or IDENTITY pairs."""
    block = (np.eye(r, dtype=bool) if kind == IDENTITY
             else np.full((r, r), kind == COMPLETE))
    block.flags.writeable = False
    return block


@lru_cache(maxsize=16)
def _lower(r):
    """The read-only indices of an r x r table's strictly lower triangle."""
    lower = np.tril_indices(r, -1)
    for index in lower:
        index.flags.writeable = False
    return lower


class BlockStack:
    """A grid's blocks as one read-only (m, r, r) ``array``, shared by a
    clique grid and its doubling, with the ``facts`` that
    :mod:`permcsp.validate` computes from them (and only it writes)."""

    __slots__ = ("array", "facts")

    def __init__(self, array):
        array.flags.writeable = False
        self.array, self.facts = array, None


class GridGraph:
    """A graph on [side] x [side], stored block-sparse by row pair.

    Vertex (i, j) (1-based row, column) has flat index (i-1)*side + (j-1).
    ``kind`` is "clique" for n x n Clique instances, or "biclique" for
    2n x 2n Biclique instances: every edge joins a top vertex (i, j <= n)
    to a bottom vertex (i, j > n).

    Row pair (i, k), 0-based, joins row i to row offset + k: two rows of
    a clique grid (r = side, offset 0), or top row i and bottom row n + k
    of a biclique grid (r = offset = n).  An r x r table holds each
    pair's kind, EMPTY, COMPLETE, IDENTITY (column j to column j) or
    BLOCK (in the paper's grids, the row pairs a source-graph matching
    joins).  A BLOCK pair's r x r block, [column of row i, column of row
    offset + k], is an entry of the grid's read-only :class:`BlockStack`,
    one entry per BLOCK pair, shared by a transposed partner, placed as
    stored or transposed by the signed table of :meth:`stack`.

    The adjacency is fixed at construction, by ``kinds`` (of the pairs
    without a block; default EMPTY) and ``blocks=(stack, at)``, as
    :meth:`stack` hands them out and :meth:`set_edges` builds them: an
    (m, r, r) array, taken over and made read-only, or another grid's
    :class:`BlockStack`, shared with its facts.  A clique pair (k, i),
    k > i, is (i, k)'s entry transposed.  One pass over a new array sets
    the layout: placed EMPTY, COMPLETE and IDENTITY blocks become kinds,
    a biclique pair (k, i), k > i, whose block is the transpose of
    (i, k)'s is placed as that entry transposed, and unplaced entries are
    dropped.  Every array a grid hands out is read-only, so
    :mod:`permcsp.validate` decides each condition once.  ``adj`` is a
    dense view made on request, which no package path reads.
    """

    def __init__(self, side, kind="clique", D=None, kinds=None, blocks=None,
                 delta_table=None, meta=None):
        fault = self.misfit(side, kind, ())
        if fault is not None:
            raise InvalidInputError(fault[1])
        self.side, self.kind, self.D = side, kind, D
        r = side // 2 if kind == "biclique" else side
        table = np.zeros((r, r), dtype=np.int8)
        table[...] = EMPTY if kinds is None else kinds
        if r == 1:                      # the 1 x 1 identity is complete
            table[table == IDENTITY] = COMPLETE
        stack, at = blocks or (np.zeros((0, r, r), bool), np.zeros((r, r)))
        shared = isinstance(stack, BlockStack)
        array = stack.array if shared else np.asarray(stack, dtype=bool)
        at = np.array(at, dtype=np.int64)
        if (array.shape[1:] != (r, r) or at.shape != (r, r)
                or abs(at).max() > len(array)):
            raise InvalidInputError("blocks and placements must be %d x %d, "
                                    "with entries 1..%d" % (r, r, len(array)))
        lower = _lower(r)
        if kind == "clique":
            at[lower] = -at.T[lower]
        if shared:
            table[at != 0] = BLOCK
        else:
            stack = self._classified(array, at, table, kind)
        if kind == "clique":
            table[lower] = table.T[lower]
        at = at.astype(np.min_scalar_type(-1 - len(stack.array)))
        table.flags.writeable = at.flags.writeable = False
        self._r, self._kinds, self._stack, self._at = r, table, stack, at
        self._conditions = {}           # written by permcsp.validate only
        self.delta_table, self.meta = delta_table, meta or {}

    @staticmethod
    def _classified(array, at, table, kind):
        """The :class:`BlockStack` of ``array``'s entries that ``at``
        places at BLOCK pairs, in one pass: ``table`` takes each placed
        block's kind, and ``at`` (in place) the layout of the class
        docstring, numbered in the kept entries."""
        m, r = len(array), len(table)
        if not m:
            return BlockStack(array)
        cells = array.reshape(m, r * r)
        kinds = np.full(m, BLOCK, dtype=np.int8)
        diagonal = np.flatnonzero(array.trace(axis1=1, axis2=2) == r)
        if len(diagonal):               # the identity, or more cells
            kinds[diagonal[np.count_nonzero(cells[diagonal], axis=1) == r]] = \
                IDENTITY
        kinds[cells.all(axis=1)] = COMPLETE
        kinds[~cells.any(axis=1)] = EMPTY
        used = at != 0
        table[used] = kinds[np.abs(at[used]) - 1]
        at[table != BLOCK] = 0
        if kind == "biclique":          # (k, i) as (i, k)'s entry transposed
            pairs = np.triu((at != 0) & (at.T != 0) & (at != -at.T), 1)
            for i, k in np.argwhere(pairs).tolist():
                e, f = at[i, k], at[k, i]
                block = array[abs(e) - 1]
                if np.array_equal(array[abs(f) - 1],
                                  block.T if e * f > 0 else block):
                    at[k, i] = -e
        keep = np.zeros(m + 1, dtype=bool)      # keep[e]: entry e - 1 placed
        keep[abs(at)] = True
        if keep[1:].all():
            return BlockStack(array)
        at[...] = np.sign(at) * np.cumsum(keep[1:])[abs(at) - 1]
        return BlockStack(array[keep[1:]])

    @classmethod
    def from_edges(cls, side, edges, kind="clique", D=None):
        """The grid with ``edges``, ((i, j), (i', j')) pairs or flat
        (i, j, i', j') rows in any orientation, checked as one array and
        set as one stack (:meth:`set_edges`).  Raises
        :class:`InvalidInputError` naming the first fault :meth:`misfit`
        finds."""
        ends = _edge_rows(edges, side)
        fault = cls.misfit(side, kind, ends)
        if fault is not None:
            k, expected = fault
            raise InvalidInputError(expected if k is None else
                                    "edge (%d, %d)-(%d, %d): expected %s"
                                    % (tuple(ends[k]) + (expected,)))
        return cls(side, kind=kind, D=D,
                   blocks=cls.set_edges(None, side, kind, ends))

    @staticmethod
    def set_edges(blocks, side, kind, ends):
        """The ``(stack, at)`` the constructor takes, with edges, (i, j,
        i', j') rows that :meth:`misfit` passed, set in ``blocks``: None
        at first, or what an earlier call returned.  A zero block is made
        for each new pair, and an edge inside a clique grid's row is set
        both ways.  A later call sets the blocks of known pairs in place,
        and grows the stack by doubling for new ones."""
        if not len(ends):
            return blocks
        r = side // 2 if kind == "biclique" else side
        rows, cols = ends[:, 0::2] - 1, ends[:, 1::2] - 1
        flip = rows[:, 0] > rows[:, 1]          # the lower row first
        rows[flip], cols[flip] = rows[flip, ::-1], cols[flip, ::-1]
        if kind == "biclique":                  # bottom row n + k is k
            rows[:, 1] -= r
            cols[:, 1] -= r
        else:                                   # inside a row, both ways
            same = rows[:, 0] == rows[:, 1]
            rows = np.concatenate([rows, rows[same]])
            cols = np.concatenate([cols, cols[same, ::-1]])
        # Beyond int64 no block can be made, and making the stack raises.
        pairs, where = np.unique(rows[:, 0] * min(r, 2 ** 62) + rows[:, 1],
                                 return_inverse=True)
        part = np.zeros((len(pairs), r, r), dtype=bool)
        part[where, cols[:, 0], cols[:, 1]] = True
        i, k = np.divmod(pairs, r)
        if blocks is None:
            at = np.zeros((r, r), dtype=np.int64)
            at[i, k] = np.arange(1, len(pairs) + 1)
            return part, at
        stack, at = blocks
        fresh = at[i, k] == 0
        at[i[fresh], k[fresh]] = at.max() + 1 + np.arange(np.sum(fresh))
        if at.max() > len(stack):
            grown = np.zeros((max(2 * len(stack), at.max()), r, r),
                             dtype=bool)
            grown[:len(stack)] = stack
            stack = grown
        stack[at[i, k] - 1] |= part
        return stack, at

    def index(self, i, j):
        if not (1 <= i <= self.side and 1 <= j <= self.side):
            raise InvalidInputError("vertex (%d, %d) outside grid" % (i, j))
        return (i - 1) * self.side + (j - 1)

    @staticmethod
    def misfit(side, kind, edges):
        """(k, what was expected) for the first of ``edges`` (as taken by
        :meth:`from_edges`) that cannot be an edge of a ``kind`` grid of
        this side (k None: the side or kind is invalid), or None.

        An edge joins two distinct vertices within 1..side; on a biclique
        grid, one top vertex and one bottom vertex.
        """
        if side < 1:
            return None, "side must be positive"
        if kind not in ("clique", "biclique"):
            return None, "unknown grid kind %r" % (kind,)
        if kind == "biclique" and side % 2:
            return None, "biclique grids need an even side"
        ends = _edge_rows(edges, side)
        i1, j1, i2, j2 = ends.T
        faults = [(((ends < 1) | (ends > side)).any(axis=1),
                   "vertices within 1..%d" % side),
                  ((i1 == i2) & (j1 == j2), "two distinct vertices")]
        if kind == "biclique":
            n = side // 2
            top1, top2 = (i1 <= n) & (j1 <= n), (i2 <= n) & (j2 <= n)
            bottom1, bottom2 = (i1 > n) & (j1 > n), (i2 > n) & (j2 > n)
            faults.append((~(top1 & bottom2 | bottom1 & top2),
                           "a top vertex (i, j <= %d) joined to a bottom "
                           "vertex (i, j > %d)" % (n, n)))
        hits = [(int(np.argmax(bad)), expected) for bad, expected in faults
                if bad.any()]
        return min(hits, key=lambda hit: hit[0], default=None)

    def blocks(self):
        """(r, offset, kinds): the rows on each side of a row pair, the
        row offset of the second side and the read-only r x r table of
        pair kinds."""
        return self._r, self.side - self._r, self._kinds

    def stack(self):
        """(stack, at): the grid's :class:`BlockStack` and the read-only
        signed r x r table that places its entries: pair (i, k) holds
        entry at - 1 as stored when at > 0, entry -at - 1 transposed when
        at < 0, and no block when at = 0 (every pair that is not BLOCK)."""
        return self._stack, self._at

    def block(self, i, k):
        """Row pair (i, k)'s r x r block, read-only; EMPTY, COMPLETE and
        IDENTITY pairs share one block each, BLOCK pairs are views of the
        stack entry that the placement table names."""
        e = int(self._at[i, k])
        if not e:
            return _constant(self._r, int(self._kinds[i, k]))
        block = self._stack.array[abs(e) - 1]
        return block if e > 0 else block.T

    def _band(self, i, out):
        """Write row i's blocks side by side into ``out``:
        out[j, k, l] = block(i, k)[j, l].  Returns ``out``."""
        kinds = self._kinds[i]
        out[...] = (kinds == COMPLETE)[:, None]
        for k in np.flatnonzero(kinds > COMPLETE).tolist():
            out[:, k] = self.block(i, k)
        return out

    @property
    def adj(self):
        """The dense (side^2) x (side^2) adjacency matrix, read-only,
        written band by band into one new array on every access (for
        tests and the benchmark; nothing in this package reads it)."""
        r, side = self._r, self.side
        adj = np.zeros((side * side, side * side), dtype=bool)
        adj4 = adj.reshape(side, side, side, side)   # [i, j, i', j'] view
        for i in range(r):      # row i, and a biclique's bottom rows to it
            self._band(i, adj4[i, :r, side - r:, side - r:])
            if self.kind == "biclique":
                self._band(i, adj4[r:, r:, i, :r].transpose(2, 0, 1))
        adj.flags.writeable = False
        return adj

    def has_edge(self, a, b):
        self.index(*a), self.index(*b)          # range checks
        r, offset = self._r, self.side - self._r
        (i, j), (k, l) = sorted((a, b))
        if self.kind == "biclique" and (max(i, j) > r or min(k, l) <= r):
            return False
        return bool(self.block(i - 1, k - offset - 1)[j - 1, l - offset - 1])

    def num_edges(self):
        r, array, at = self._r, self._stack.array, self._at
        kinds = np.bincount(self._kinds.ravel(), minlength=4)
        cells = np.count_nonzero(array.reshape(len(array), r * r), axis=1)
        count = int(kinds[COMPLETE]) * r * r + int(kinds[IDENTITY]) * r + int(
            cells[np.abs(at[at != 0]) - 1].sum())
        return count // 2 if self.kind == "clique" else count

    def edges(self):
        """All edges as ((i,j),(i',j')) pairs, lexicographically sorted,
        generated from :meth:`edge_arrays` (very large grids stream)."""
        r, offset = self._r, self.side - self._r
        for us, vs in self.edge_arrays():
            for u, v in zip(us.tolist(), vs.tolist()):
                yield ((u // r + 1, u % r + 1),
                       (offset + v // r + 1, offset + v % r + 1))

    def edge_arrays(self):
        """Per row of blocks, its edges' (u, v) flat block indices in
        row-major order: u = i*r + j for vertex (i+1, j+1), v = k*r + l
        for (offset+k+1, offset+l+1); only u < v on a clique grid."""
        r = self._r
        band = np.empty((r, r, r), dtype=bool)
        for i in range(r):
            us, vs = np.nonzero(self._band(i, band).reshape(r, r * r))
            us += i * r
            if self.kind == "clique":
                us, vs = us[vs > us], vs[vs > us]
            yield us, vs


def _edge_rows(edges, side):
    """Edges as an (m, 4) int64 array of rows (i, j, i', j').  Coordinates
    beyond int64 are clamped to just outside 1..side, which keeps every
    verdict of :meth:`GridGraph.misfit`."""
    if not isinstance(edges, np.ndarray):
        edges = list(edges)
    try:
        return np.asarray(edges, dtype=np.int64).reshape(-1, 4)
    except OverflowError:
        rows = np.asarray(edges, dtype=object).reshape(-1, 4)
        return np.clip(rows, 0, side + 1).astype(np.int64)


@dataclass(frozen=True)
class GrayCode:
    """A reflected ternary Gray code on ``digits`` digit positions."""

    digits: int
    words: Tuple[Tuple[int, ...], ...]

    def rank(self, word) -> int:
        """Index of a word in the sequence."""
        return self.words.index(tuple(word))


@dataclass(frozen=True)
class ReductionCertificate:
    """Output of a reduction to Permutation CSP plus its yes-target.

    ``target`` is always computed by closed form, never by solving.
    ``dummy_vars``/``row_vars``/``col_vars`` name the output variables by
    role, in role-index order; together they partition 1..num_vars.
    """

    instance: PermCspInstance
    target: int
    kind: str               # "perm6" | "perm4"
    n: int                  # rows of the source grid (per half, for perm4)
    D: Optional[int]        # degree-constraint parameter (perm4 only)
    dummy_vars: Tuple[int, ...]
    row_vars: Tuple[int, ...]
    col_vars: Tuple[int, ...]
    source_edges: int = 0
    delta_sum: int = 0


# ---------------------------------------------------------------------------
# Combinatorial helpers
# ---------------------------------------------------------------------------

def ternary_gray(x: int) -> GrayCode:
    """Reflected ternary Gray code on x digits.

    All 3^x words are distinct and consecutive words differ in exactly one
    digit.  Digit 0 is the most significant (slowest) position: even
    positions run 0,1,2 ascending, odd positions descending.
    """
    if not 1 <= x <= _GRAY_DIGITS:
        raise InvalidInputError("digit count %d outside [1, %d]"
                                % (x, _GRAY_DIGITS))
    words = [()]
    for _ in range(x):
        nxt = []
        for d in (0, 1, 2):
            block = words if d % 2 == 0 else list(reversed(words))
            nxt.extend((d,) + w for w in block)
        words = nxt
    return GrayCode(digits=x, words=tuple(words))


def distance3_partition(g: Graph, degree_bound: int) -> List[List[int]]:
    """Partition V(g) into classes pairwise at distance >= 3.

    Greedily colors the square graph (adjacent iff distance <= 2), which
    has maximum degree <= degree_bound^2, so at most degree_bound^2 + 1
    classes are produced.
    """
    if any(d > degree_bound for _, d in g.degree()):
        raise InvalidInputError("graph has a vertex of degree above %d" % degree_bound)
    color = {}                          # filled in ascending vertex order
    for v in g.nodes():
        near = set(g.neighbors(v)).union(*map(g.neighbors, g.neighbors(v)))
        seen = {color[u] for u in near if u in color}
        color[v] = min(set(range(len(seen) + 1)) - seen)
    classes = [[] for _ in range(max(color.values(), default=0) + 1)]
    for v, c in color.items():
        classes[c].append(v)
    if len(classes) > degree_bound * degree_bound + 1:
        raise InternalConsistencyError("greedy coloring used %d classes"
                                       % len(classes))
    return classes


# ---------------------------------------------------------------------------
# 3-SAT -> bounded-degree 3-Coloring
# ---------------------------------------------------------------------------

def reduce_sat_to_coloring(cnf: CnfFormula) -> Tuple[Graph, int]:
    """Build a graph that is 3-colorable iff ``cnf`` is satisfiable.

    The classic coloring reduction, with the single T/F/N triangle
    expanded into a triangulated ladder so that every attachment goes to
    its own ladder vertex and the maximum degree stays bounded.

    Returns the graph (integer vertices 1..N) and the degree bound
    max(freq_bound + 2, 5).

    Layout: ladder vertices are 1..L with roles by index mod 3
    (1 -> N, 2 -> T, 0 -> F); the literal vertices for variable i are
    L + 2i - 1 (positive) and L + 2i (negative); each clause gets a
    6-vertex OR gadget, two cascaded binary-OR triangles whose output
    must share the T role.  Clauses shorter than 3 are padded with fresh
    forced-false vertices rather than repeated literals, so a literal
    vertex's degree never exceeds its occurrence count plus 2.
    """
    for clause in cnf.clauses:
        if not 1 <= len(clause) <= 3:
            raise InvalidInputError("clause size %d outside [1, 3]" % len(clause))
    nv, m = cnf.num_vars, len(cnf.clauses)
    ladder_len = 3 * (2 * nv + 4 * m + 1)
    edges = [(t, t + 1) for t in range(1, ladder_len)]
    edges += [(t, t + 2) for t in range(1, ladder_len - 1)]

    # Dedicated attachment points, handed out in construction order.
    n_role = iter(range(1, ladder_len + 1, 3))
    t_role = iter(range(2, ladder_len + 1, 3))
    f_role = iter(range(3, ladder_len + 1, 3))

    def lit_vertex(lit):
        return ladder_len + 2 * abs(lit) - (1 if lit > 0 else 0)

    for i in range(1, nv + 1):
        pos, neg = lit_vertex(i), lit_vertex(-i)
        edges += [(pos, neg), (pos, next(n_role)), (neg, next(n_role))]

    pads = itertools.count(ladder_len + 2 * nv + 6 * m + 1)

    def pad_vertex():
        # Fresh vertex adjacent to dedicated N and T ladder vertices, so
        # any proper coloring gives it the F role: a constant-false input.
        w = next(pads)
        edges.extend([(w, next(n_role)), (w, next(t_role))])
        return w

    for j, clause in enumerate(cnf.clauses):
        inputs = [lit_vertex(l) for l in clause]
        while len(inputs) < 3:
            inputs.append(pad_vertex())
        base = ladder_len + 2 * nv + 6 * j
        p1, q1, o1, p2, q2, out = range(base + 1, base + 7)
        edges += [(p1, q1), (p1, o1), (q1, o1),
                  (p2, q2), (p2, out), (q2, out), (o1, p2),
                  (inputs[0], p1), (inputs[1], q1), (inputs[2], q2),
                  (out, next(n_role)), (out, next(f_role))]

    return Graph(next(pads) - 1, edges), max(cnf.freq_bound + 2, 5)


# ---------------------------------------------------------------------------
# 3-Coloring -> D-degree-constrained n x n Clique
# ---------------------------------------------------------------------------

def coloring_grid_digits(num_vertices: int, degree_bound: int) -> int:
    """Smallest x with (f'^2 + 1) + floor((n - f'^2 - 1)/x) <= 3^x."""
    f2 = degree_bound * degree_bound
    x = 1
    while f2 + 1 + (num_vertices - f2 - 1) // x > 3 ** x:
        x += 1
    return x


def reduce_coloring_to_dcnnc(g: Graph, degree_bound: int,
                             row_cap: int = 81) -> GridGraph:
    """Encode a bounded-degree 3-Coloring instance as D-DCnnC with
    D = degree_bound.

    Vertices are grouped into blocks of x vertices, pairwise at distance
    >= 3 within a block; row i of the grid enumerates all 3^x colorings of
    block i in ternary-Gray order, and two grid vertices are adjacent iff
    their colorings conflict on no edge of ``g``.  Conditions (A)
    (row-pair regularity) and (B) (consecutive-column stability) are
    re-checked before returning.
    """
    from permcsp import validate

    n0 = g.num_vertices
    x = coloring_grid_digits(n0, degree_bound)
    nprime = 3 ** x
    if nprime > row_cap:
        raise SizeLimitError(
            "grid would have %d rows of %d columns, above cap %d"
            % (nprime, nprime, row_cap)
        )

    classes = distance3_partition(g, degree_bound)
    blocks: List[List[int]] = []
    for cls in classes:
        for lo in range(0, len(cls), x):
            blocks.append(cls[lo:lo + x])
    if len(blocks) > nprime:
        raise InvalidInputError(
            "partition produced %d blocks for %d rows" % (len(blocks), nprime)
        )
    while len(blocks) < nprime:
        blocks.append([])
    next_id = n0 + 1
    for block in blocks:
        while len(block) < x:
            block.append(next_id)
            next_id += 1
    if next_id - 1 != nprime * x:
        raise InternalConsistencyError("blocks hold %d padding vertices"
                                       % (next_id - 1 - n0))

    words = np.array(ternary_gray(x).words, dtype=np.int8)    # (nprime, x)

    where = {}
    for bi, block in enumerate(blocks):
        for k, v in enumerate(block):
            where[v] = (bi, k)
    pair_edges = defaultdict(list)
    for u, v in g.edges():
        (bu, ku), (bv, kv) = where[u], where[v]
        if bu == bv:
            raise InternalConsistencyError(
                "block %d is not an independent set" % (bu + 1))
        if bu > bv:
            (bu, ku), (bv, kv) = (bv, kv), (bu, ku)
        pair_edges[(bu, bv)].append((ku, kv))
    # Rows of blocks that no edge joins are complete to each other; each
    # joined pair (bu < bv) is one entry of the stack.
    compat = np.ones((len(pair_edges), nprime, nprime), dtype=bool)
    at = np.zeros((nprime, nprime), dtype=np.int64)
    mm = np.zeros((nprime, nprime), dtype=np.int64)    # edges per row pair
    for p, ((bu, bv), matched) in enumerate(pair_edges.items()):
        if any(len(set(ends)) != len(matched) for ends in zip(*matched)):
            raise InternalConsistencyError(
                "blocks %d and %d do not induce a matching" % (bu + 1, bv + 1))
        mm[bu, bv] = mm[bv, bu] = len(matched)
        at[bu, bv] = p + 1
        for ku, kv in matched:
            compat[p] &= words[:, ku][:, None] != words[:, kv][None, :]
    delta = 2 ** mm * 3 ** (x - mm)
    np.fill_diagonal(delta, 0)

    grid = GridGraph(nprime, kind="clique", D=degree_bound,
                     kinds=np.where(np.eye(nprime), EMPTY, COMPLETE),
                     blocks=(compat, at), delta_table=delta,
                     meta={"blocks": [tuple(b) for b in blocks], "x": x,
                           "num_original": n0})

    report, computed = validate.check_regularity(grid)
    if not report.holds or not np.array_equal(computed, delta):
        raise InternalConsistencyError("construction broke row-pair regularity")
    report, _ = validate.check_stability(grid, degree_bound)
    if not report.holds:
        raise InternalConsistencyError(
            "construction broke consecutive-column stability")
    return grid


def _require(report, what):
    """Raise :class:`InvalidInputError` with the first violations of a
    failed condition report."""
    if not report.holds:
        raise InvalidInputError("%s: %s" % (what, report.violations[:3]))


# ---------------------------------------------------------------------------
# D-DCnnC -> D-DCnnB
# ---------------------------------------------------------------------------

def reduce_dcnnc_to_dcnnb(g: GridGraph) -> GridGraph:
    """Double a clique grid into a biclique grid.

    (i,j)(n+i',n+j') is an edge of H iff (i,j)(i',j') is an edge of G or
    i = i' and j = j', so H's row pairs are G's, with the identity added
    on the diagonal: H takes G's stack unchanged, with its facts (a new
    one only where a row of G has edges inside it), and an empty diagonal
    pair of G becomes an IDENTITY pair.  The delta table is recomputed
    from H, never copied.  H is row-pair regular exactly when G is, so
    only H is checked for it; G's stability is checked on G, since H may
    hold at D + 1 where G fails at D.
    """
    from permcsp import validate

    if g.kind != "clique":
        raise InvalidInputError("input must be an n x n clique grid")
    r, _, kinds = g.blocks()
    stack, at = g.stack()
    eye = _constant(r, IDENTITY)
    rows = np.flatnonzero(np.diagonal(kinds) == BLOCK)
    if len(rows):       # edges inside a row: G's block plus the identity
        at = at.astype(np.int64)
        inside = stack.array[at[rows, rows] - 1] | eye
        at[rows, rows] = len(stack.array) + 1 + np.arange(len(rows))
        stack = np.concatenate([stack.array, inside])
    h = GridGraph(2 * g.side, kind="biclique", D=g.D,
                  kinds=np.where(eye & (kinds == EMPTY), IDENTITY, kinds),
                  blocks=(stack, at))

    _require(validate.check_biclique_structure(h),
             "input adjacency is not symmetric")
    report, h.delta_table = validate.check_regularity(h)
    _require(report, "input violates row-pair regularity")
    if g.D is not None:
        _require(validate.check_stability(g, g.D)[0],
                 "input violates stability")
        # The diagonal pairing edges make row n+i differ between columns j
        # and j+1 for every top vertex (i, j): one more unstable row than
        # G allowed, at most.  Keep D when it suffices, else take D + 1.
        if not validate.check_stability(h, g.D)[0].holds:
            if not validate.check_stability(h, g.D + 1)[0].holds:
                raise InternalConsistencyError("doubling broke stability")
            h.D += 1
    return h


# ---------------------------------------------------------------------------
# n x n Clique -> arity-6 Permutation CSP
# ---------------------------------------------------------------------------

def sufficient_dummies_perm6(n: int) -> int:
    """Dummy count making the arity-6 structure argument airtight at size n.

    The dominance inequalities behind the shape of optimal orderings are
    stated for sufficiently large n with 2n dummies; here they are solved
    explicitly so the if-and-only-if also holds at desk scale: the least
    d >= 4 with C(d-2,2)*C(n+1,2), C(d-1,3)*n and C(d,4) all > C(n^2,2),
    the most constraints G can ever contribute.  Never below 2n.
    """
    if n < 1:
        raise InvalidInputError("n must be positive")
    budget = comb(n * n, 2)      # most constraints G can ever contribute
    if budget == 0:
        return 2 * n
    d = 4
    while not (comb(d - 2, 2) * comb(n + 1, 2) > budget
               and comb(d - 1, 3) * n > budget
               and comb(d, 4) > budget):
        d += 1
    return max(2 * n, d)


def reduce_clique_to_perm6(g: GridGraph, dummy_count: Optional[int] = None
                           ) -> ReductionCertificate:
    """n x n Clique -> arity-6 Permutation CSP.

    With the paper-default ``dummy_count = 2n`` the output has 4n + 1
    variables: dummies d_1..d_m, rows r_1..r_n, columns c_1..c_{n+1}.
    The optimum meets the target iff the grid has a row-transversal
    n-clique (guaranteed only when the dummy count is sufficient; see
    :func:`sufficient_dummies_perm6`).
    """
    from permcsp import validate

    if g.kind != "clique":
        raise InvalidInputError("input must be an n x n clique grid")
    n, _, kinds = g.blocks()
    for i in range(n):
        if kinds[i, i] != EMPTY:
            raise InvalidInputError("grid has an edge inside row %d" % (i + 1))
    m = 2 * n if dummy_count is None else dummy_count
    if m < 2 * n:
        raise InvalidInputError("dummy_count must be at least 2n = %d" % (2 * n))

    def r(i):
        return m + i

    def c(j):
        return m + n + j

    constraints = []
    for a, b, cc, d in itertools.combinations(range(1, m + 1), 4):
        for j, jp in itertools.combinations(range(1, n + 2), 2):
            constraints.append((a, b, cc, d, c(j), c(jp)))
    for i in range(1, n + 1):
        constraints.append((c(1), r(i), c(n + 1)))
    num_structural = len(constraints)

    # Each edge oriented by (column, row): the constraint shapes depend on
    # the column gap of the oriented edge.
    by_column = sorted(tuple(sorted(e, key=lambda v: v[::-1]))
                       for e in g.edges())
    for (i, j), (ip, jp) in by_column:
        if j + 2 <= jp:
            constraints.append((c(j), r(i), c(j + 1), c(jp), r(ip), c(jp + 1)))
        elif jp == j + 1:
            constraints.append((c(j), r(i), c(j + 1), r(ip), c(j + 2)))
        else:
            constraints.append((c(j), r(i), r(ip), c(j + 1)))

    instance = PermCspInstance.make(m + 2 * n + 1, constraints)
    target = validate.target_perm6(n, m)
    if num_structural != target - comb(n, 2):
        raise InternalConsistencyError("%d structural constraints"
                                       % num_structural)
    return ReductionCertificate(
        instance=instance, target=target, kind="perm6", n=n, D=None,
        dummy_vars=tuple(range(1, m + 1)),
        row_vars=tuple(r(i) for i in range(1, n + 1)),
        col_vars=tuple(c(j) for j in range(1, n + 2)),
        source_edges=g.num_edges(),
    )


# ---------------------------------------------------------------------------
# D-DCnnB -> arity-4 Permutation CSP
# ---------------------------------------------------------------------------

def sufficient_dummies_perm4(n: int, D: int, num_edges: int) -> int:
    """Dummy count making the arity-4 structure argument airtight at size n.

    One column-pair fix must dominate the worst accumulated column-move
    cost (2Dn per switch, over a row block of length n), C(d, 2) > 2Dn^2,
    and the structural constraints must dominate everything the edge
    constraints can contribute, C(d, 2) > 4 * num_edges.  Never below the
    2Dn default.
    """
    if n < 1 or D < 1:
        raise InvalidInputError("n and D must be positive")
    d = 2
    while not (comb(d, 2) >= 2 * D * n * n + 1 and comb(d, 2) > 4 * num_edges):
        d += 1
    return max(2 * D * n, d)


def reduce_dcnnb_to_perm4(h: GridGraph, D: Optional[int] = None,
                          dummy_count: Optional[int] = None
                          ) -> ReductionCertificate:
    """2n x 2n Biclique -> arity-4 Permutation CSP.

    With the paper-default ``dummy_count = 2Dn`` the output has
    (2D + 4)n + 1 variables.  For every edge (i,j)(n+i',n+j') four
    constraints are emitted, one per shape family (crcr, crrc, rcrc,
    rccr); the degenerate rccr case j = n, j' = 1 is replaced by the
    dummy-anchored form.  The target is
    C(d,2)*C(2n+1,2) + (n+2)*sum(Delta) + n^2.
    """
    from permcsp import validate

    if h.kind != "biclique":
        raise InvalidInputError("input must be a 2n x 2n biclique grid")
    _require(validate.check_biclique_structure(h),
             "input violates the biclique structure")
    D = h.D if D is None else D
    if D is None:
        raise InvalidInputError("degree-constraint parameter D is required")
    report, delta = validate.check_regularity(h)
    _require(report, "input violates row-pair regularity")
    _require(validate.check_stability(h, D)[0],
             "input violates stability for D=%d" % D)

    n = h.side // 2
    m = 2 * D * n if dummy_count is None else dummy_count
    if m < 2:
        raise InvalidInputError("need at least two dummies")
    delta_sum = int(delta[:n, n:].sum())

    def r(i):
        return m + i

    def c(j):
        return m + 2 * n + j

    constraints = []
    for a, b in itertools.combinations(range(1, m + 1), 2):
        for j, jp in itertools.combinations(range(1, 2 * n + 2), 2):
            constraints.append((a, b, c(j), c(jp)))

    for (i, j), (ip, jp) in h.edges():
        ip, jp = ip - n, jp - n
        constraints.append((c(j), r(i), c(n + jp), r(n + ip)))
        constraints.append((c(j), r(i), r(n + ip), c(n + jp + 1)))
        constraints.append((r(i), c(j + 1), r(n + ip), c(n + jp + 1)))
        if j == n and jp == 1:
            constraints.append((1, r(i), c(n + 1), r(n + ip)))
        else:
            constraints.append((r(i), c(j + 1), c(n + jp), r(n + ip)))

    instance = PermCspInstance.make(m + 4 * n + 1, constraints)
    target = validate.target_perm4(n, m, delta_sum)
    return ReductionCertificate(
        instance=instance, target=target, kind="perm4", n=n, D=D,
        dummy_vars=tuple(range(1, m + 1)),
        row_vars=tuple(r(i) for i in range(1, 2 * n + 1)),
        col_vars=tuple(c(j) for j in range(1, 2 * n + 2)),
        source_edges=h.num_edges(),
        delta_sum=delta_sum,
    )
