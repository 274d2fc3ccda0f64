"""Exact solvers and decision oracles.

- :func:`solve_brute`: exhaustive search over all orderings; every prefix
  reuses one bit-packed table of the 9! suffix orders, cached per process,
  and prefixes are searched best bound first until none left can win.
- :func:`solve_dp3`: the O*(2^n) subset DP covering the arity <= 3 side of
  the dichotomy, vectorized over each popcount layer of subsets.
- :func:`solve_convenient`: optimum over convenient orderings of an
  arity-4 or arity-6 reduction certificate, via the closed-form count.
  The phi oracle scores the phis in blocks and still checks every phi's
  closed form against the evaluator (:func:`evaluate_many`).
- :func:`solve_sat`, :func:`solve_3coloring`: the auxiliary oracles for
  the first two links of the reduction chain.
- :func:`solve_row_clique`, :func:`solve_row_biclique`: row transversals,
  over one arc-consistency search (:func:`_row_transversal`) with supports
  packed per column and candidate counts kept up to date at each node.
  Free rows (all pairs IDENTITY, or none) numbered last sit out at column 0.
"""

import heapq
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Dict, List, Optional, Tuple

import numpy as np

from permcsp import reductions
from permcsp.core import (
    Graph,
    InternalConsistencyError,
    InvalidInputError,
    Ordering,
    PermCspInstance,
    SizeLimitError,
    UnsupportedArityError,
    evaluate,
    evaluate_many,
)
from permcsp.reductions import (COMPLETE, EMPTY, IDENTITY, CnfFormula,
                                GridGraph, ReductionCertificate)


@dataclass(frozen=True)
class SolveResult:
    optimum: int
    witness: Ordering
    nodes_explored: int


@dataclass(frozen=True)
class RowSelection:
    """One column choice per row (the function phi); 1-based columns."""

    choice: Tuple[int, ...]

    def vertices(self):
        return tuple((i, j) for i, j in enumerate(self.choice, start=1))


# ---------------------------------------------------------------------------
# Brute force
# ---------------------------------------------------------------------------

# Batch size for the vectorized path: permutations of the last 9 positions
# are enumerated as one numpy block, shared by every prefix.
_BATCH_SUFFIX = 9


@lru_cache(maxsize=None)
def _suffix_table(m):
    """The m! suffix orders as int8 rows in lexicographic order, and
    ``before[a, b]``: bit i of its little-endian ``<u8`` words is set when
    slot a precedes slot b in order i.  Both read-only, built once."""
    rest = np.zeros((1, 0), dtype=np.int8)
    for k in range(1, m + 1):
        # First element f, then the shorter table relabelled to skip f.
        first = np.repeat(np.arange(k, dtype=np.int8), len(rest))[:, None]
        tail = np.tile(rest, (k, 1))
        rest = np.hstack([first, tail + (tail >= first)])
    # Columns past m! tie every slot at 0, so their bits stay clear.
    slot_pos = np.zeros((m, -(-len(rest) // 64) * 64), dtype=np.int8)
    slot_pos[rest.T, np.arange(len(rest))] = np.arange(m)[:, None]
    before = np.empty((m, m, slot_pos.shape[1] // 8), dtype=np.uint8)
    for a in range(m):                       # one slot row at a time
        before[a] = np.packbits(slot_pos[a] < slot_pos, axis=1,
                                bitorder="little")
    before = before.view("<u8")
    rest.flags.writeable = before.flags.writeable = False
    return rest, before


def solve_brute(instance: PermCspInstance, limit: int = 11,
                threads: int = 1) -> SolveResult:
    """Exact optimum by exhaustive enumeration of all n! orderings.

    Each prefix of the first n - 9 positions shares one table of the 9!
    suffix orders in lexicographic order, and ``before[a, b]``: the
    orders in which suffix slot a precedes slot b, one bit per order.
    Both are built once per process (:func:`_suffix_table`).  Under a
    prefix each constraint is constant, dead, or an AND of ``before``
    rows, added into bit-sliced counters, so no ordering is materialized.

    A prefix's bound is the number of constraints it leaves alive: those
    with no consecutive pair (u, w) placed w before u.  Prefixes are
    searched in one thread by descending bound, ties in lexicographic
    order, and the search stops at the first bound below the best count,
    or equal to it after the best prefix: no prefix left can win.

    The witness is the lexicographically first maximizer, in terms of the
    sequence of variables listed in position order: a prefix's first
    maximizer replaces the best on a larger count, or on an equal one
    from an earlier prefix.  ``nodes_explored`` is n!, the orderings
    scored or excluded by a bound.  ``threads`` changes nothing; it stays
    only because the benchmark harness passes it.
    """
    n = instance.num_vars
    if n > limit:
        raise SizeLimitError(
            "instance has %d variables, above the brute-force limit %d "
            "(raise the limit explicitly to override)" % (n, limit)
        )
    plen = max(0, n - _BATCH_SUFFIX)
    rest, before = _suffix_table(n - plen)
    chains = [[(c[k] - 1, c[k + 1] - 1) for k in range(len(c) - 1)]
              for c in instance.constraints]
    prefixes = list(itertools.permutations(range(n), plen))  # lex order
    # Prefix variables rank by position; suffix variables tie at plen.
    ranks = np.full((len(prefixes), n), plen)
    np.put_along_axis(ranks, np.array(prefixes, dtype=np.intp, ndmin=2),
                      np.arange(plen), axis=1)
    # A constraint is dead under a prefix when one of its pairs is out of
    # order there; pairs (0, 0) pad the chains and never are.
    width = max(map(len, chains), default=0)
    ends = np.array([c + [(0, 0)] * (width - len(c)) for c in chains],
                    dtype=np.intp).reshape(len(chains), width, 2)
    dead = (ranks[:, ends[..., 0]] > ranks[:, ends[..., 1]]).any(axis=2)
    bound = (len(chains) - dead.sum(axis=1)).tolist()
    best, best_at, best_seq = -1, len(prefixes), None
    # Best bound first, ties in lexicographic order, until no prefix left
    # can beat the best or, from before the best's prefix, tie it.
    for at in sorted(range(len(prefixes)), key=lambda k: -bound[k]):
        if bound[at] < best or bound[at] == best and at > best_at:
            break
        prefix = prefixes[at]
        remaining = [v for v in range(n) if v not in prefix]
        rank = ranks[at].tolist()
        slot = {v: k for k, v in enumerate(remaining)}
        sure, alive, planes = 0, 0, []
        for chain in chains:
            lookups = []
            for u, w in chain:
                if rank[u] > rank[w]:            # dead under this prefix
                    break
                if rank[u] == rank[w]:
                    lookups.append(before[slot[u], slot[w]])
            else:
                if not lookups:
                    sure += 1
                    continue
                # Bit-sliced counts: plane k holds bit k of every order's
                # count.  Add the mask with a ripple carry.
                x, alive = reduce(np.bitwise_and, lookups), alive + 1
                for p in planes:
                    carry = p & x
                    p ^= x
                    x = carry
                if not alive & (alive - 1):      # the count may need a bit
                    planes.append(x.copy())      # (x may be a before row)
        # Keep the orders of largest count, top plane down; the lowest set
        # bit is the first maximizer in lexicographic order.
        top, count = np.full(before.shape[-1], ~np.uint64(0)), 0
        for k in range(len(planes) - 1, -1, -1):
            both = top & planes[k]
            if both.any():
                top, count = both, count | 1 << k
        # A tie goes to the prefix first in lexicographic order.
        if sure + count > best or sure + count == best and at < best_at:
            w = int((top != 0).argmax())
            low = int(top[w])
            idx = 64 * w + (low & -low).bit_length() - 1
            best, best_at = sure + count, at
            best_seq = prefix + tuple(remaining[s] for s in rest[idx])
    return SolveResult(best, Ordering.from_sequence(
        tuple(v + 1 for v in best_seq)), math.factorial(n))


# ---------------------------------------------------------------------------
# Subset DP for arity <= 3
# ---------------------------------------------------------------------------

_DP_MAX_VARS = 24


def solve_dp3(instance: PermCspInstance) -> SolveResult:
    """Exact optimum in O*(2^n) time by dynamic programming over subsets.

    The state f(S) is the best count achievable over orderings whose
    placed prefix is exactly S.  The transition adds one variable v and
    credits the constraints decided at that moment:

    * an arity-1 constraint (v) is always satisfied;
    * an arity-2 constraint (a, v) is satisfied iff a is already placed;
    * an arity-3 constraint (a, v, c), keyed on its MIDDLE element v, is
      satisfied iff a is already placed and c is not.

    An arity-3 constraint is satisfied exactly when, at the moment its
    middle element is placed, the first element is in the prefix and the
    last is not -- so each constraint is credited exactly once, and the
    final value f(V) is the true optimum.

    Subsets are processed one popcount layer at a time, as int32 numpy
    mask arrays.  Candidates v are tried in ascending order and replace
    the best only on a strict gain, so ties go to the smallest v.
    """
    # The header arity is a claim; the constraints themselves decide.
    arity = max([instance.arity] + [len(c) for c in instance.constraints])
    if arity > 3:
        raise UnsupportedArityError(
            "subset DP applies to arity <= 3 only (the other side of the "
            "dichotomy has no known O*(c^n) algorithm); got arity %d"
            % arity
        )
    n = instance.num_vars
    if n > _DP_MAX_VARS:
        raise SizeLimitError("instance has %d variables, DP cap is %d"
                             % (n, _DP_MAX_VARS))

    gain1 = [0] * n
    pairs2: List[List[int]] = [[] for _ in range(n)]
    trips: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    for c in instance.constraints:
        if len(c) == 1:
            gain1[c[0] - 1] += 1
        elif len(c) == 2:
            pairs2[c[1] - 1].append(c[0] - 1)
        else:
            trips[c[1] - 1].append((c[0] - 1, c[2] - 1))

    full = (1 << n) - 1
    f = np.zeros(full + 1, dtype=np.int32)
    back = np.zeros(full + 1, dtype=np.int8)
    popcount = np.bitwise_count(np.arange(full + 1, dtype=np.int32))
    for k in range(1, n + 1):
        layer = (popcount == k).nonzero()[0].astype(np.int32)
        best = np.full(len(layer), -1, dtype=np.int32)
        bestv = np.zeros(len(layer), dtype=np.int8)
        for v in range(n):
            s = layer ^ (1 << v)                 # T minus v, if v is in T
            val = f[s] + gain1[v]
            for a in pairs2[v]:
                val += s >> a & 1
            for a, cc in trips[v]:
                val += s >> a & ~(s >> cc) & 1
            better = (val > best) & (s < layer)  # ties go to the smallest v
            best = np.where(better, val, best)
            bestv[better] = v
        f[layer] = best
        back[layer] = bestv

    seq_rev = []
    t = full
    while t:
        v = int(back[t])
        seq_rev.append(v + 1)
        t ^= 1 << v
    witness = Ordering.from_sequence(tuple(reversed(seq_rev)))
    return SolveResult(int(f[full]), witness, full + 1)


# ---------------------------------------------------------------------------
# DPLL
# ---------------------------------------------------------------------------

def solve_sat(cnf: CnfFormula) -> Optional[Dict[int, bool]]:
    """Complete DPLL with unit propagation.

    Branches on the lowest-index unassigned variable, true first.
    Returns a full satisfying assignment (keys in the order set) or None.
    Unit propagation visits the clauses holding a literal just made false
    where passes over all clauses, until nothing changes, would reach them.
    """
    clauses = [tuple(c) for c in cnf.clauses]    # an empty one fails at once
    occurs = {}                             # literal -> its clauses, ascending
    for c, clause in enumerate(clauses):
        for lit in set(clause):
            occurs.setdefault(lit, []).append(c)

    def unit_propagate(touched):
        """False on a clause with every literal false; a heap holds the
        clauses to visit by (pass, index), ``touched`` in pass 0."""
        heap = [(0, c) for c in touched]    # ascending, so a heap
        while heap:
            p, c = heapq.heappop(heap)
            found, count = None, 0
            for lit in clauses[c]:
                val = assign.get(abs(lit))
                if val is None:
                    found, count = lit, count + 1
                elif val == (lit > 0):
                    break
            else:
                if count == 0:
                    return False
                if count == 1:
                    assign[abs(found)] = found > 0
                    for d in occurs.get(-found, ()):
                        heapq.heappush(heap, (p if d > c else p + 1, d))
        return True

    # Depth-first on a stack of (node size, variable, value, lowest maybe
    # open variable), true first, past Python's recursion limit.
    assign, stack = {}, [(0, None, None, 1)]
    while stack:
        size, var, value, low = stack.pop()
        while len(assign) > size:
            assign.popitem()
        if var is not None:
            assign[var] = value
        if not unit_propagate(range(len(clauses)) if var is None else
                              occurs.get(-var if value else var, ())):
            continue
        while low in assign:
            low += 1
        if low > cnf.num_vars:
            return assign
        stack += [(len(assign), low, v, low + 1) for v in (False, True)]
    return None


# ---------------------------------------------------------------------------
# 3-coloring
# ---------------------------------------------------------------------------

def solve_3coloring(g: Graph) -> Optional[Dict[int, int]]:
    """Proper 3-coloring by backtracking with arc consistency.

    Vertices are tried in degree-descending order (ties by label), colors
    ascending; the first vertex is fixed to color 0 for symmetry breaking.
    Candidate colors are 3-bit masks, and a mask left with one color
    removes it from the neighbors' masks.  That prunes only colors no
    completion can use, so the result is the first coloring in this order.
    """
    order = sorted(g.nodes(), key=lambda v: (-len(g.neighbors(v)), v))
    pos = {v: k for k, v in enumerate(order)}
    nbrs = [[pos[u] for u in g.neighbors(v)] for v in order]
    masks, trail = [1] + [7] * (len(order) - 1), []

    # Depth-first on a stack of (vertex, colors tried, trail length), as a
    # path can be longer than Python's recursion limit.  Undoing the trail
    # of mask changes to a node's length restores it: memory stays linear.
    stack = [(0, 0, 0)]
    while stack:
        k, tried, mark = stack.pop()
        while len(trail) > mark:
            i, old = trail.pop()
            masks[i] = old
        if k == len(order):
            return {v: masks[i].bit_length() - 1 for i, v in enumerate(order)}
        left = masks[k] & ~tried
        if not left:
            continue
        bit = left & -left                      # colors ascending
        stack.append((k, tried | bit, mark))
        trail.append((k, masks[k]))
        masks[k], forced = bit, [k]
        while forced and masks[forced[-1]]:     # stop at an emptied mask
            v = forced.pop()
            for u in nbrs[v]:
                if masks[u] & masks[v]:
                    trail.append((u, masks[u]))
                    masks[u] &= ~masks[v]
                    if not masks[u] & (masks[u] - 1):
                        forced.append(u)
        if not forced:
            stack.append((k + 1, 0, len(trail)))
    return None


# ---------------------------------------------------------------------------
# Row-transversal clique / biclique search
# ---------------------------------------------------------------------------

def _row_transversal(width, neighbors, degree, block):
    """One candidate column per row, pairwise compatible, or None.

    Rows ``r`` and ``neighbors[r]`` form the constrained row pairs;
    ``block(row, src)`` is their boolean compatibility matrix, indexed
    [column of row, column of src], and ``degree[r]`` counts the pairs of
    row r.  Unconstrained pairs are compatible everywhere.  Returns the
    0-based columns.

    Branch and bound with bit-parallel arc consistency (Lecoutre & Vion,
    2008): every row keeps its candidate columns as an int bitmask, and a
    wiped-out mask prunes.  Supports are packed per column: one int per
    column of a row holds the compatible columns of all its neighbours in
    byte-aligned lanes, so a revision costs one OR per candidate column and
    one shift per neighbour.  Search nodes carry candidate counts, updated
    for the rows that propagation narrows.  Deterministic; on fully
    compatible instances the lexicographically first selection is returned.

    Free rows (no neighbour, numbered after every row with one) are left
    out at column 0: full throughout, they lose every tie to an open row,
    so they would be branched on last, where every first split survives.
    """
    rows = len(neighbors)
    # Rows are numbered internally in branching-tie order (most
    # constrained pairs, then lowest index): row order[k] is number k;
    # numbers below ``kept`` are searched.
    order = sorted(range(rows), key=lambda k: (-degree[k], k))
    rank = sorted(range(rows), key=order.__getitem__)
    kept = max((k + 1 for k in range(rows) if len(neighbors[order[k]])),
               default=0)
    nbr_rows = [[rank[row] for row in neighbors[src]] for src in order[:kept]]
    last_wipe = [-1]
    full, stride = (1 << width) - 1, 8 * ((width + 7) // 8)
    shifts = [range(0, len(nbrs) * stride, stride) for nbrs in nbr_rows]
    closed = width + 1          # the count of a singleton, so min() skips it

    # tables[src][c], lane j (bits shifts[src][j] on; one lane at least,
    # so that every entry has a byte): the columns of neighbour j
    # compatible with column c of src.  memo[src] maps a domain of src to
    # its lanes; the full domain's are one numpy OR.
    tables, memo = [], []
    for src, nbrs in enumerate(nbr_rows):
        bits = np.zeros((width, max(1, len(nbrs)), stride), dtype=bool)
        for j, row in enumerate(nbrs):
            bits[:, j, :width] = block(order[row], order[src]).T
        packed = np.packbits(bits.reshape(width, -1), axis=1,
                             bitorder="little")
        entries = packed.view("V%d" % packed.shape[1]).ravel().tolist()
        tables.append(list(map(int.from_bytes, entries,
                               itertools.repeat("little"))))
        word = int.from_bytes(np.bitwise_or.reduce(packed), "little")
        memo.append({full: [word >> s & full for s in shifts[src]]})

    def supported(src, dom):
        """Per neighbour of ``src``: its columns supported by ``dom``."""
        found = memo[src].get(dom)
        if found is None:
            entries, word, rest = tables[src], 0, dom
            while rest:
                low = rest & -rest
                word |= entries[low.bit_length() - 1]
                rest ^= low
            found = memo[src][dom] = [word >> s & full for s in shifts[src]]
        return found

    def propagate(cand, counts, dirty):
        """AC-3 along constrained row pairs; False on a wiped-out row,
        which is remembered for the last-conflict branching heuristic."""
        queue, in_queue = list(dirty), set(dirty)
        while queue:
            src = queue.pop()
            in_queue.discard(src)
            for row, mask in zip(nbr_rows[src], supported(src, cand[src])):
                new = cand[row] & mask
                if new != cand[row]:
                    if not new:
                        last_wipe[0] = row
                        return False
                    cand[row] = new
                    counts[row] = new.bit_count() if new & new - 1 else closed
                    if row not in in_queue:
                        queue.append(row)
                        in_queue.add(row)
        return True

    def split(dom):
        """Partition a mask of two or more columns along the coarsest
        aligned block boundary (powers of 3, matching the ternary word
        layout of Gray-coded grids; an arbitrary deterministic split
        elsewhere).  Parts come in ascending column order."""
        lo, hi = (dom & -dom).bit_length() - 1, dom.bit_length() - 1
        span = 1
        while lo // (3 * span) != hi // (3 * span):
            span *= 3
        parts = (dom & ((1 << span) - 1) << b * span
                 for b in range(lo // span, hi // span + 1))
        return [part for part in parts if part]

    def branches(cand, counts, row):
        """The children of ``cand`` that survive propagation, made one at
        a time: ``row``'s candidates split, lower blocks first."""
        for part in split(cand[row]):
            nxt, nxt_counts = list(cand), list(counts)
            nxt[row] = part
            nxt_counts[row] = part.bit_count() if part & part - 1 else closed
            if propagate(nxt, nxt_counts, [row]):
                yield nxt, nxt_counts

    # Depth-first search on a stack of branch generators (a path can be
    # longer than Python's recursion limit) until every candidate set is a
    # singleton: with arc consistency restored after every split, they are
    # then mutually compatible.  The row that wiped out last is branched
    # first (the last-conflict heuristic keeps the search at the failure
    # site); otherwise the first row, in the internal numbering, with the
    # fewest candidates.  Lower blocks first keep the selection
    # lexicographically first on fully compatible instances.
    cand, counts = [full] * kept, [width if width > 1 else closed] * kept
    dirty = [k for k in rank if k < kept]
    stack = [iter([(cand, counts)] if propagate(cand, counts, dirty) else [])]
    while stack:
        node = next(stack[-1], None)
        if node is None:
            stack.pop()
            continue
        cand, counts = node
        row = last_wipe[0]
        if row < 0 or counts[row] == closed:
            fewest = min(counts, default=closed)
            if fewest == closed:
                return [cand[k].bit_length() - 1 if k < kept else 0
                        for k in rank]
            row = counts.index(fewest)
        stack.append(branches(cand, counts, row))
    return None


def _grid_transversal(g: GridGraph, kind: str):
    """:func:`_row_transversal` on the row pairs of a ``kind`` grid that
    are not COMPLETE (those constrain nothing): a clique grid's rows, or
    a biclique grid's top rows then bottom rows, with columns counted
    within each half.  Exact on any grid, symmetric or not.  Free rows,
    in all-IDENTITY components of pairs (which never narrow a full row),
    lose their pairs when numbered last, so the search leaves them out."""
    if g.kind != kind:
        raise InvalidInputError("row-%s search expects a %s grid"
                                % (kind, kind))
    r, _, kinds, _ = g.blocks()
    free, empty, block = kinds == COMPLETE, kinds == EMPTY, g.block
    identity = kinds == IDENTITY
    if kind == "clique":
        np.fill_diagonal(free, True)
        np.fill_diagonal(empty, False)
    if empty.any():         # two rows with no compatible columns at all
        return None
    if kind == "biclique":
        top = np.ones_like(free)
        free = np.block([[top, free], [free.T, top]])
        identity = np.block([[~top, identity], [identity.T, ~top]])

        def block(row, src):
            return (g.block(src, row - r).T if src < r
                    else g.block(row, src - r))
    pairs, degree = ~free, (~free).sum(axis=1)
    # Searched: the rows that a chain of pairs joins to a non-IDENTITY one.
    searched = (pairs & ~identity).any(axis=1)
    while not (pairs[searched].any(axis=0) <= searched).all():
        searched = searched | pairs[searched].any(axis=0)
    order = np.lexsort((np.arange(len(degree)), -degree))
    if searched[order][:np.count_nonzero(searched)].all():    # the guard
        pairs[~searched] = False
    return _row_transversal(r, list(map(np.flatnonzero, pairs)), degree, block)


def solve_row_clique(g: GridGraph) -> Optional[RowSelection]:
    """One vertex per row forming a clique, or None."""
    cols = _grid_transversal(g, "clique")
    return None if cols is None else RowSelection(tuple(j + 1 for j in cols))


def solve_row_biclique(h: GridGraph) -> Optional[RowSelection]:
    """One vertex per row forming a K_{n,n} across the two halves, or None:
    top rows select columns in [1, n], bottom rows in [n+1, 2n]."""
    cols, n = _grid_transversal(h, "biclique"), h.side // 2
    return None if cols is None else RowSelection(
        tuple(j + 1 + (n if k >= n else 0) for k, j in enumerate(cols)))


# ---------------------------------------------------------------------------
# Convenient-ordering search for reduction certificates
# ---------------------------------------------------------------------------

class CertificateMismatch(InvalidInputError):
    """A certificate that its source grid does not regenerate."""


def source_D(cert: ReductionCertificate, grid: GridGraph) -> Optional[int]:
    """The D of an arity-4 reduction: the grid's, else the certificate's."""
    return grid.D if grid.D is not None else cert.D


def certificate_mismatch(cert: ReductionCertificate,
                         grid: GridGraph) -> Optional[str]:
    """The first field of ``cert`` that its source grid does not give, or
    None: n first, then, with the reduction rerun (the stated dummy count,
    :func:`source_D`), constraints, roles, kind, n, D, source-edges,
    delta-sum and target.  A grid of the wrong kind, or one breaking the
    reduction's preconditions, raises :class:`InvalidInputError`."""
    kind = "biclique" if cert.kind == "perm4" else "clique"
    if grid.kind != kind:
        raise InvalidInputError("an arity-%s certificate needs a %s source "
                                "grid" % (cert.kind[-1], kind))
    n = grid.side // 2 if kind == "biclique" else grid.side
    if n != cert.n:
        return "n mismatch: regenerated %d, stated %d" % (n, cert.n)
    m = len(cert.dummy_vars)
    if cert.kind == "perm4":
        regen = reductions.reduce_dcnnb_to_perm4(
            grid, D=source_D(cert, grid), dummy_count=m)
    else:
        regen = reductions.reduce_clique_to_perm6(grid, dummy_count=m)
    if sorted(regen.instance.constraints) != sorted(cert.instance.constraints):
        return ("constraint set does not match the source grid (%d vs %d "
                "constraints)" % (len(cert.instance.constraints),
                                  len(regen.instance.constraints)))
    if (regen.dummy_vars, regen.row_vars, regen.col_vars) != \
            (cert.dummy_vars, cert.row_vars, cert.col_vars):
        return "role lines do not match the source grid"
    for field in ("kind", "n", "D", "source-edges", "delta-sum", "target"):
        want, got = (getattr(c, field.replace("-", "_")) for c in (regen, cert))
        if want != got:
            return "%s mismatch: regenerated %s, stated %s" % (field, want, got)
    return None


def solve_convenient(cert: ReductionCertificate, h: GridGraph) -> SolveResult:
    """Maximize over convenient orderings d_1..d_m c_1 R_1 ... c_last
    (:func:`_best_convenient`): ``h`` is the 2n x 2n biclique grid of an
    arity-4 certificate or the n x n clique grid of an arity-6 one.  If
    it does not regenerate ``cert``, :class:`CertificateMismatch` is raised
    with the text of :func:`certificate_mismatch`."""
    mismatch = certificate_mismatch(cert, h)
    if mismatch is not None:
        raise CertificateMismatch(mismatch)
    return _best_convenient(cert, h)


_PHI_CELLS = 1 << 20   # phi-block size times the variables of an ordering


def _best_convenient(cert: ReductionCertificate, h: GridGraph) -> SolveResult:
    """The convenient-ordering optimum of ``cert`` on a grid that
    regenerates it.

    Enumerates every row-to-interval assignment phi exhaustively (kept
    dumb on purpose -- this is an oracle), in ``itertools.product``
    order and in blocks of phis.  Each phi is scored with the closed
    form: the target minus the edges of a full transversal (n^2 for
    arity 4, C(n,2) for arity 6), plus the edges of H[V_phi].  For every
    phi of a block the ordering is materialized and the closed form
    re-checked against the evaluator (:func:`evaluate_many`); the first
    disagreement raises :class:`InternalConsistencyError`.  The first
    maximizer wins.
    """
    from permcsp import validate

    n, perm4 = cert.n, cert.kind == "perm4"
    if not perm4 and n > 4:
        raise InvalidInputError("phi enumeration is limited to n <= 4")
    r, offset, _, _ = h.blocks()
    width = 2 * r if perm4 else r
    digits = r ** np.arange(width - 1, -1, -1)
    first = np.ones(width, dtype=np.int64)       # each row's first interval
    first[r:] += offset
    dummies, columns, row_vars = (np.array(vs, dtype=np.int64) - 1 for vs in
                                  (cert.dummy_vars, cert.col_vars,
                                   cert.row_vars))
    num_vars, m = cert.instance.num_vars, len(dummies)
    k = np.arange(1, len(columns) + 1)          # c_k's interval index
    base = cert.target - (n * n if perm4 else math.comb(n, 2))
    best, best_choice = -1, None
    total = r ** width
    step = max(1, _PHI_CELLS // (num_vars + width))
    for lo in range(0, total, step):
        phi = np.arange(lo, min(lo + step, total))[:, None] // digits % r
        choice = phi + first
        # Edges between the first r rows' choices and the last r rows'
        # (the same rows, each edge twice, on a clique grid).
        induced = sum(h.block(i, k)[phi[:, i], phi[:, k - r]]
                      for i in range(r) for k in range(r))
        count = base + (induced if perm4 else induced // 2)
        # Positions in d_1..d_m c_1 R_1 c_2 ... R_K c_{K+1}, R_k holding
        # the rows that chose interval k in row order.  Before c_k: the
        # dummies, c_1..c_{k-1} and the rows of earlier intervals.
        # Before a row: the dummies, c_1..c_{its interval} and the rows
        # ahead of it in (interval, row) order, its rank.
        rank = np.empty_like(choice)
        np.put_along_axis(rank, np.argsort(choice, axis=1, kind="stable"),
                          np.arange(width), axis=1)
        pos = np.zeros((len(phi), num_vars), dtype=np.int64)
        pos[:, dummies] = np.arange(1, m + 1)
        pos[:, columns] = m + k + (choice[:, :, None] < k).sum(axis=1)
        pos[:, row_vars] = m + choice + rank + 1
        measured = evaluate_many(cert.instance, pos)
        wrong = np.flatnonzero(measured != count)
        if wrong.size:
            b = wrong[0]
            raise InternalConsistencyError(
                "closed form says %d, evaluator says %d for phi=%s"
                % (count[b], measured[b], tuple(choice[b].tolist()))
            )
        b = int(np.argmax(count))
        if count[b] > best:
            best, best_choice = int(count[b]), tuple(choice[b].tolist())
    # The witness, built and scored the scalar way, must agree too.
    witness = validate.map_selection_to_ordering(RowSelection(best_choice),
                                                 cert)
    measured = evaluate(cert.instance, witness)
    if measured != best:
        raise InternalConsistencyError(
            "closed form says %d, evaluator says %d for phi=%s"
            % (best, measured, best_choice))
    return SolveResult(best, witness, total)
