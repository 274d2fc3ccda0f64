"""Condition checkers, closed-form counts, and witness mappers.

One validation policy for grids: a grid's adjacency is immutable after
construction, so each condition is computed once per grid, from that
adjacency, and stored on the grid (by this module only, with read-only
arrays); every later request, whoever makes it, reads the stored result.
Stability is stored as counts, without D.  Delta tables carried by a
grid, such as those read from files, are advisory and never trusted.

The checks read four facts of each entry of a grid's block stack
(:meth:`GridGraph.stack`): its row degrees, its column degrees, and
which consecutive rows and which consecutive columns are equal.
They are computed once per stack, at most ``_STACK_CELLS`` block cells
at a time, and stored with it, so a clique grid and its doubling, which
shares the stack, read one computation.  Each check gathers its grid's
answer from them by the BLOCK pairs' entries, with rows and columns
swapped for a transposed entry.
"""

from dataclasses import dataclass
from math import comb
from typing import Dict, List, Optional, Tuple

import numpy as np

from permcsp.core import InvalidInputError, Ordering
from permcsp.reductions import (BLOCK, IDENTITY, GridGraph,
                                ReductionCertificate, ternary_gray)
from permcsp.solvers import RowSelection

_MAX_VIOLATIONS = 20
_STACK_CELLS = 1 << 18      # block cells per chunk of the checks


@dataclass(frozen=True)
class ConditionReport:
    condition: str          # "regularity" | "stability" | "bipartite-symmetry"
    holds: bool
    violations: Tuple = ()

    def lines(self) -> List[str]:
        """Line-oriented diagnostic form, consumed by the CLI."""
        out = ["check %s %s" % (self.condition, "pass" if self.holds else "fail")]
        out.extend("  violation %s" % (v,) for v in self.violations)
        return out


def _report(condition, violations):
    return ConditionReport(condition, not violations,
                           tuple(violations[:_MAX_VIOLATIONS]))


# ---------------------------------------------------------------------------
# Condition checkers
# ---------------------------------------------------------------------------

def _stacks(g: GridGraph, pairs):
    """(i, k, stack) per chunk of ``pairs`` (m x 2): stack[p] is pair
    (i[p], k[p])'s block; at most ``_STACK_CELLS`` cells, or one block."""
    step = max(1, _STACK_CELLS // g.blocks()[0] ** 2)
    for lo in range(0, len(pairs), step):
        chunk = pairs[lo:lo + step]
        yield *chunk.T, np.stack([g.block(*p) for p in chunk.tolist()])


# Each fact of a block is the swapped fact of its transpose.
_SWAP = {"rows": "cols", "cols": "rows",
         "same_rows": "same_cols", "same_cols": "same_rows"}


def _count(cells, per):
    """The true cells of each row (``per`` "ei") or each column ("ej") of
    each boolean matrix in ``cells``, counted in the smallest dtype that
    holds the longer side: exact, and much faster than a bool sum."""
    return np.einsum("eij->" + per, cells.view(np.uint8),
                     dtype=np.min_scalar_type(max(cells.shape[1:])))


def _facts(blocks):
    """The facts of each block e of the (m, r, r) array ``blocks``, by
    name: its row and column degrees, rows[e] and cols[e], and whether
    its row (column) j equals row (column) j + 1, same_rows[e, j]
    (same_cols[e, j]); at most ``_STACK_CELLS`` cells at a time, or one
    block.  Read-only."""
    step = max(1, _STACK_CELLS // blocks.shape[1] ** 2)
    parts = []
    for lo in range(0, max(1, len(blocks)), step):
        part = blocks[lo:lo + step]
        parts.append((_count(part, "ei"), _count(part, "ej"),
                      _count(part[:, :-1] != part[:, 1:], "ei") == 0,
                      _count(part[:, :, :-1] != part[:, :, 1:], "ej") == 0))
    facts = {name: np.concatenate(fact) for name, fact in
             zip(("rows", "cols", "same_rows", "same_cols"), zip(*parts))}
    for fact in facts.values():
        fact.flags.writeable = False
    return facts


def _block_pairs(g: GridGraph):
    """(i, k, fact): g's BLOCK pairs in (i, k) order, and ``fact(name)``,
    that fact of each one's block, read from the facts of g's stack,
    which are computed once per stack (:func:`_facts`)."""
    stack, at = g.stack()
    if stack.facts is None:
        stack.facts = _facts(stack.array)
    i, k = np.nonzero(at)
    e, flip = np.abs(at[i, k].astype(np.intp)) - 1, (at[i, k] < 0)[:, None]

    def fact(name):
        facts = stack.facts
        return np.where(flip, facts[_SWAP[name]][e], facts[name][e])
    return i, k, fact


def _stored(g: GridGraph, condition: str, compute):
    """``compute(g)``, computed once per grid and ``condition``."""
    if condition not in g._conditions:
        g._conditions[condition] = compute(g)
    return g._conditions[condition]


def check_regularity(g: GridGraph) -> Tuple[ConditionReport, Optional[np.ndarray]]:
    """Constant row-pair degree: deg((i,j), R_k) independent of j.

    For clique grids every ordered row pair is checked; for biclique grids
    the pairs crossing the halves are (only edges there can exist), top
    row first.  Returns the computed delta table when the condition holds.
    """
    return _stored(g, "regularity", _regularity)


def _regularity(g):
    r, offset, kinds = g.blocks()
    # deg[i, k, s]: the row-pair degree of pair (i, k) by its kind, or of
    # column 0 of a BLOCK pair: s = 0 from row i into row offset+k; on a
    # biclique grid s = 1 from bottom row n+k into top row i.
    sides = 2 if g.kind == "biclique" else 1
    deg = np.repeat(np.array([0, r, 1, 0])[kinds][:, :, None], sides, axis=2)
    i, k, fact = _block_pairs(g)
    # cols[p, s, j]: the degree of column j of pair p's side s, its
    # block's row j (s = 0) or column j (s = 1).
    cols = np.stack([fact(name) for name in ("rows", "cols")[:sides]], axis=1)
    deg[i, k] = cols[:, :, 0]
    violations = []
    bad = np.argwhere((cols != cols[:, :, :1]).any(axis=2))
    for p, s in bad[:_MAX_VIOLATIONS].tolist():
        col = cols[p, s]
        j = int(np.argmax(col != col[0]))
        rows = (int(i[p]) + 1, offset + int(k[p]) + 1)
        violations.append((rows[::-1] if s else rows) + (
            j + 1, "degree %d != %d" % (col[j], col[0])))
    report = _report("regularity", violations)
    if not report.holds:
        return report, None
    delta = np.zeros((g.side, g.side), dtype=np.int64)
    delta[:r, offset:offset + r] = deg[:, :, 0]
    if g.kind == "biclique":
        delta[r:, :r] = deg[:, :, 1].T
    delta.setflags(write=False)
    return report, delta


def check_stability(g: GridGraph, D: int
                    ) -> Tuple[ConditionReport, Optional[np.ndarray]]:
    """Consecutive-column neighborhoods identical outside at most D rows.

    For each vertex (i, j) with a right neighbor column, counts the rows k
    where N(i,j) and N(i,j+1) differ inside R_k; the condition demands the
    count never exceeds D.  On a biclique grid the top vertices are
    checked, against the bottom rows.  Returns, when it holds, the
    read-only (r, r - 1) table of those counts, ``counts[i, j]`` for
    vertex (i + 1, j + 1); it is stored without D.
    """
    counts = _stored(g, "stability", _stability)
    bad = np.argwhere(counts > D)[:_MAX_VIOLATIONS].tolist()
    report = _report("stability", [(i + 1, j + 1, "%d unstable rows > D=%d"
                                    % (counts[i, j], D)) for i, j in bad])
    return report, (counts if report.holds else None)


def _stability(g):
    # Vertex (i, j)'s unstable rows: row i's IDENTITY pairs, and its BLOCK
    # pairs whose block's rows j and j + 1 differ, summed a row at a time
    # (the pairs come in row order) in the smallest dtype that holds r.
    r, _, kinds = g.blocks()
    counts = np.zeros((r, r - 1), dtype=np.int64)
    counts += np.count_nonzero(kinds == IDENTITY, axis=1)[:, None]
    i, _, fact = _block_pairs(g)
    starts = np.flatnonzero(np.diff(i, prepend=-1))
    counts[i[starts]] += np.add.reduceat(~fact("same_rows"), starts, axis=0,
                                         dtype=np.min_scalar_type(r))
    counts.setflags(write=False)
    return counts


def check_biclique_structure(h: GridGraph) -> ConditionReport:
    """Symmetry of a 2n x 2n biclique grid: (i,j)(n+i',n+j') must be an
    edge exactly when (i',j')(n+i,n+j) is.

    Bipartite placement needs no check: a biclique grid stores only its
    top-vs-bottom row pairs, so no other edge can exist.  Pairs (i, i')
    and (i', i) of one kind other than BLOCK are symmetric by inspection,
    and so are two BLOCK pairs where (i', i) is the transposed
    orientation of (i, i')'s own stack entry (as every grid places a
    pair whose block is its partner's transpose); every other pair's
    block is compared with its partner's transpose.
    """
    return _stored(h, "structure", _structure)


def _structure(h):
    if h.kind != "biclique":
        raise InvalidInputError("symmetry only applies to biclique grids")
    n, _, kinds = h.blocks()
    _, at = h.stack()
    # Pair (i, k)'s violations (i, j, k, l) are pair (k, i)'s (k, l, i, j),
    # so pairs i <= k are compared; keys (i, j, i', j') are base n.
    pairs = np.argwhere(np.triu((kinds != kinds.T) | (kinds == BLOCK))
                        & ((at == 0) | (at != -at.T)))
    first = np.zeros(0, dtype=np.int64)
    for (i, k, stack), (_, _, partner) in zip(_stacks(h, pairs),
                                              _stacks(h, pairs[:, ::-1])):
        p, j, l = np.unravel_index(np.flatnonzero(
            stack != partner.transpose(0, 2, 1)), stack.shape)
        hits = np.array([i[p], j, k[p], l])
        hits = np.hstack([hits, hits[[2, 3, 0, 1]][:, i[p] != k[p]]])
        first = np.sort(np.concatenate(
            [first, np.ravel_multi_index(hits, (n,) * 4)]))[:_MAX_VIOLATIONS]
    found = np.transpose(np.unravel_index(first, (n,) * 4)).tolist()
    return _report("bipartite-symmetry",
                   [((i + 1, j + 1), (n + k + 1, n + l + 1),
                     "symmetry partner missing") for i, j, k, l in found])


# ---------------------------------------------------------------------------
# Closed-form counts
# ---------------------------------------------------------------------------

def structural_count(dummy_count: int, num_columns: int) -> int:
    """C(d, 2) * C(columns, 2): dummy-pair x column-pair constraints."""
    if dummy_count < 0 or num_columns < 0:
        raise InvalidInputError("counts must be nonnegative")
    return comb(dummy_count, 2) * comb(num_columns, 2)


def target_perm6(n: int, dummy_count: int) -> int:
    """Yes-target of the arity-6 reduction: |C_S1| + |C_S2| + C(n,2)."""
    if n < 1 or dummy_count < 0:
        raise InvalidInputError("bad parameters")
    return comb(dummy_count, 4) * comb(n + 1, 2) + n + comb(n, 2)


def target_perm4(n: int, dummy_count: int, delta_sum: int) -> int:
    """Yes-target of the arity-4 reduction:
    C(d,2)*C(2n+1,2) + (n+2)*sum(Delta) + n^2."""
    if n < 1 or dummy_count < 0 or delta_sum < 0:
        raise InvalidInputError("bad parameters")
    return structural_count(dummy_count, 2 * n + 1) + (n + 2) * delta_sum + n * n


# ---------------------------------------------------------------------------
# Witness mappers
# ---------------------------------------------------------------------------

def map_coloring_to_selection(coloring: Dict[int, int],
                              grid: GridGraph) -> RowSelection:
    """Proper 3-coloring of the source graph -> row selection of the grid.

    Padding vertices (absent from the coloring) default to color 0; their
    color never matters because they are isolated.
    """
    blocks, x = grid.meta.get("blocks"), grid.meta.get("x")
    if blocks is None or x is None:
        raise InvalidInputError("grid carries no block metadata")
    words = ternary_gray(x)
    choice = []
    for block in blocks:
        word = tuple(coloring.get(v, 0) for v in block)
        choice.append(words.index(word) + 1)
    return RowSelection(tuple(choice))


def map_selection_to_coloring(sel: RowSelection,
                              grid: GridGraph) -> Dict[int, int]:
    """Row selection of the grid -> coloring of the original vertices."""
    blocks, x, num_original = (grid.meta.get(key) for key in
                               ("blocks", "x", "num_original"))
    if blocks is None or x is None or num_original is None:
        raise InvalidInputError("grid carries no block metadata")
    if len(sel.choice) != len(blocks):
        raise InvalidInputError("selection and grid disagree on row count")
    words = ternary_gray(x)
    coloring = {}
    for block, j in zip(blocks, sel.choice):
        word = words[j - 1]
        for v, color in zip(block, word):
            if v <= num_original:
                coloring[v] = color
    return coloring


def map_clique_to_biclique(sel: RowSelection) -> RowSelection:
    """Clique selection (i, j_i) -> biclique selection {(i,j_i), (n+i,n+j_i)}."""
    n = len(sel.choice)
    return RowSelection(tuple(sel.choice) + tuple(j + n for j in sel.choice))


def map_selection_to_ordering(sel: RowSelection,
                              cert: ReductionCertificate) -> Ordering:
    """Build the convenient ordering d_1..d_m c_1 R_1 c_2 ... c_last.

    Row element r_i goes into interval R_{phi(i)}; within an interval rows
    are ordered by ascending row index (the tie rule that satisfies the
    same-column constraint shapes).
    """
    num_rows = len(cert.row_vars)
    num_intervals = len(cert.col_vars) - 1
    if len(sel.choice) != num_rows:
        raise InvalidInputError("selection has %d rows, certificate has %d"
                                % (len(sel.choice), num_rows))
    n = cert.n
    for i, k in enumerate(sel.choice, start=1):
        lo, hi = 1, num_intervals
        if cert.kind == "perm4":
            lo, hi = (1, n) if i <= n else (n + 1, 2 * n)
        if not lo <= k <= hi:
            raise InvalidInputError(
                "row %d assigned interval %d outside [%d, %d]" % (i, k, lo, hi))
    seq = list(cert.dummy_vars)
    for k in range(1, num_intervals + 1):
        seq.append(cert.col_vars[k - 1])
        seq.extend(cert.row_vars[i] for i in range(num_rows)
                   if sel.choice[i] == k)
    seq.append(cert.col_vars[-1])
    return Ordering.from_sequence(seq)
