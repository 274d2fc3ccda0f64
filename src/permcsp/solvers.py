"""Exact solvers and decision oracles.

- :func:`solve_brute`: exhaustive search over all orderings; every prefix
  ANDs rows of one cached bit-packed table of slot precedences in the 9!
  suffix orders into carry-save adders, is searched best bound first until
  none can win, and its best 8!-block first.
- :func:`solve_dp3`: the O*(2^n) subset DP covering the arity <= 3 side of
  the dichotomy, vectorized over blocks of each popcount layer of subsets,
  with the table in the smallest dtype that holds its counts.
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
from functools import lru_cache
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

_BATCH_SUFFIX = 9        # suffix slots: one table shared by every prefix


@lru_cache(maxsize=None)
def _suffix_table(m):
    """``before[a, b]`` over the m! suffix orders in lexicographic order:
    bit i of its little-endian ``<u8`` words is set when slot a precedes
    slot b in order i; the bits past m! are clear.  Read-only, built once,
    a slot at a time: as booleans up to 8 slots, then in whole words."""
    table = np.zeros((0, 0, 1), dtype=bool)          # no slots: one order
    for k in range(1, m + 1):
        if k == 9:                               # 8! orders are 630 words
            table = np.packbits(table, axis=-1, bitorder="little").view("<u8")
        # Block f holds the orders that start with slot f: f precedes every
        # other slot, no slot precedes f, and the orders of k - 1 slots fill
        # the rest, relabelled to skip f.
        prev, table = table, np.zeros((k, k, k) + table.shape[2:], table.dtype)
        for f in range(k):
            others = np.arange(k) != f
            table[f, others, f] = ~np.zeros((), table.dtype)   # all bits set
            table[np.ix_(others, others, [f])] = prev[:, :, None]
        table = table.reshape(k, k, -1)
    if table.dtype == bool:                      # pad to whole words
        bits = np.packbits(table, axis=-1, bitorder="little")
        table = np.pad(bits, [(0, 0), (0, 0), (0, -bits.shape[2] % 8)])
        table = table.view("<u8")
    table.flags.writeable = False
    return table


def _unrank(index, items, length):
    """Arrangement ``index`` of ``length`` of ``items`` in the order of
    ``itertools.permutations``: lexicographic for sorted ``items``."""
    items, out = list(items), []
    for k in range(length - 1, -1, -1):
        digit, index = divmod(index, math.perm(len(items) - 1, k))
        out.append(items.pop(digit))
    return tuple(out)


_BOUND_CELLS = 1 << 20   # (constraint, prefix) pairs bounded at a time


def _prefix_bounds(n, ends, prefixes, count):
    """Per prefix of one length (``count`` from ``prefixes``), one small
    integer: the chains (pairs padded with (0, 0) in ``ends``) with no pair
    (u, w) placed w before u, unplaced variables tied after the prefix."""
    dtype = np.min_scalar_type(len(ends))
    if count > np.iinfo(np.intp).max // dtype.itemsize:
        raise SizeLimitError("%d variables: too many prefixes to bound" % n)
    bound = np.empty(count, dtype)
    step = max(1, _BOUND_CELLS // max(1, len(ends)))
    for lo in range(0, len(bound), step):
        block = np.array(list(itertools.islice(prefixes, step)), np.intp,
                         ndmin=2)
        plen = block.shape[1]    # [variable, prefix]: rank by position
        ranks = np.full((n, len(block)), plen, dtype=np.min_scalar_type(n))
        np.put_along_axis(ranks, block.T, np.arange(plen)[:, None], axis=0)
        alive = np.ones((len(ends), len(block)), dtype=bool)
        for t in range(ends.shape[1]):
            alive &= ranks[ends[:, t, 0]] <= ranks[ends[:, t, 1]]
        bound[lo:lo + len(block)] = alive.sum(axis=0)
    return bound


def _best_first(bound):
    """Indices by descending unsigned ``bound``, ties ascending."""
    return np.argsort(~bound, kind="stable")


def _best_order(table, chains, rank, slot, pools):
    """(count, index) of the first order of largest count among the orders
    of ``table`` (``before`` or a slice of its words) under ``rank``.  An
    alive chain is constant or an AND of rows.  Masks of one weight wait
    in pairs; a third makes a sum and a carry (a full adder), all in
    ``pools`` buffers of this width that are free again after the pass."""
    pool = pools.setdefault(table.shape[-1], [])
    free, sums = list(pool), [[] for _ in range(len(chains).bit_length() + 1)]

    def new():
        if not free:
            pool.append(np.empty(table.shape[-1], np.uint64))
            free.append(pool[-1])
        return free.pop()

    def push(x, k):                     # a pooled mask of weight k
        while len(sums[k]) == 2:        # a full adder: b is the carry
            a, b = sums[k]
            s = np.bitwise_xor(a, b, out=new())
            np.bitwise_and(a, b, out=b)
            b |= np.bitwise_and(s, x, out=a)
            s ^= x
            free.extend((a, x))
            sums[k], x, k = [s], b, k + 1
        sums[k].append(x)

    sure = 0
    for chain in chains:
        lookups = []
        for u, w in chain:
            if rank[u] > rank[w]:               # dead under this prefix
                break
            if rank[u] == rank[w]:
                lookups.append(table[slot[u], slot[w]])
        else:
            if not lookups:
                sure += 1
                continue
            x = np.bitwise_and(lookups[0], lookups[-1], out=new())
            for y in lookups[1:-1]:
                x &= y
            push(x, 0)
    # A zero mask added to each pair leaves plane k (bit k of the counts).
    # The best orders are kept top plane down; the lowest bit is the first.
    for k in range(len(sums)):
        if len(sums[k]) == 2:
            push(np.zeros_like(sums[k][0]), k)
    top, count = np.full(table.shape[-1], ~np.uint64(0)), 0
    for k in range(len(sums) - 1, -1, -1):
        for plane in sums[k]:
            both = np.bitwise_and(top, plane, out=new())
            if both.any():
                top, count = both, count | 1 << k
    w = int((top != 0).argmax())
    low = int(top[w])
    return sure + count, 64 * w + (low & -low).bit_length() - 1


def solve_brute(instance: PermCspInstance, limit: int = 11,
                threads: int = 1) -> SolveResult:
    """Exact optimum by exhaustive enumeration of all n! orderings.

    Each prefix of the first n - 9 positions shares ``before[a, b]``, built
    once per process (:func:`_suffix_table`): the 9! suffix orders, in
    lexicographic order, in which suffix slot a precedes slot b, one bit
    per order.  Under a prefix each constraint is constant, dead, or an
    AND of ``before`` rows, added by carry-save adders
    (:func:`_best_order`); the best order is unranked from its index.

    A prefix's bound is the number of constraints it leaves alive
    (:func:`_prefix_bounds`).  Prefixes are searched in one thread by
    descending bound, ties in lexicographic order, until a bound is below
    the best count, or equal to it after the best prefix.  With 9 slots
    left, a prefix bounds its 8!-blocks (the orders whose first suffix
    slot is f fill words [630 f, 630 (f + 1))) and searches the best one,
    ties to the lowest f.  That settles the prefix if no other block's
    bound beats the count found, or ties it before the block; if not, this
    prefix and every later one get the full pass.

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
    before = _suffix_table(n - plen)
    chains = [[(c[k] - 1, c[k + 1] - 1) for k in range(len(c) - 1)]
              for c in instance.constraints]
    width = max(map(len, chains), default=0)     # (0, 0) pads, in order
    ends = np.array([c + [(0, 0)] * (width - len(c)) for c in chains],
                    dtype=np.intp).reshape(len(chains), width, 2)
    bound = _prefix_bounds(n, ends, itertools.permutations(range(n), plen),
                           math.perm(n, plen))
    best, best_at, best_seq, pools = -1, len(bound), None, {}
    blocks = n - plen == 9                   # 8! = 630 words per block
    for at in _best_first(bound).tolist():
        if bound[at] < best or bound[at] == best and at > best_at:
            break
        prefix = _unrank(at, range(n), plen)
        remaining = [v for v in range(n) if v not in prefix]
        rank = [prefix.index(v) if v in prefix else plen for v in range(n)]
        slot = {v: k for k, v in enumerate(remaining)}
        if blocks:
            ext = _prefix_bounds(n, ends, (prefix + (v,) for v in remaining), 9)
            f, words = int(ext.argmax()), before.shape[-1] // 9
            count, idx = _best_order(before[..., f * words:(f + 1) * words],
                                     chains, rank, slot, pools)
            found = count, 64 * words * f + idx
            blocks = (ext[:f] < count).all() and (ext[f + 1:] <= count).all()
        if not blocks:
            found = _best_order(before, chains, rank, slot, pools)
        # A tie goes to the prefix first in lexicographic order.
        if found[0] > best or found[0] == best and at < best_at:
            best, best_at = found[0], at
            best_seq = prefix + _unrank(found[1], remaining, len(remaining))
    return SolveResult(best, Ordering.from_sequence(
        tuple(v + 1 for v in best_seq)), math.factorial(n))


# ---------------------------------------------------------------------------
# Subset DP for arity <= 3
# ---------------------------------------------------------------------------

_DP_MAX_VARS = 24
_DP_BLOCK = 1 << 14      # subsets of a layer taken at a time


@lru_cache(maxsize=1)
def _subsets_by_size(n):
    """Every subset mask of n variables in one read-only ``<i4`` array, by
    popcount and then ascending; popcount k fills ``starts[k]:starts[k+1]``."""
    size = np.bitwise_count(np.arange(1 << n, dtype="<i4"))
    starts = (0, *np.bincount(size).cumsum().tolist())
    masks = np.empty(1 << n, dtype="<i4")
    for k in range(n + 1):
        masks[starts[k]:starts[k + 1]] = (size == k).nonzero()[0]
    masks.flags.writeable = False
    return masks, starts


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
    final value f(V) is the true optimum.  Both rules need what
    :class:`PermCspInstance` guarantees when built: a constraint's
    variables are distinct, and no constraint is longer than the
    instance's arity, so an arity above 3 is refused before any work.

    Subsets are taken one popcount layer at a time, in blocks of at most
    ``_DP_BLOCK`` masks.  f is in the smallest signed dtype that holds
    -(m + 1)..m for m constraints; subsets not yet reached hold -(m + 1),
    so a candidate v outside T reads the next layer and loses to every v
    in T.  Constraint terms read the block's bit rows: bit a of T minus v
    is bit a of T, as a != v.  The witness is read back from f, taking at
    each T the smallest v that attains f(T): ties go to the smallest v,
    as when ascending candidates replace the best only on a strict gain.
    """
    if instance.arity > 3:
        raise UnsupportedArityError(
            "subset DP applies to arity <= 3 only (the other side of the "
            "dichotomy has no known O*(c^n) algorithm); got arity %d"
            % instance.arity
        )
    n = instance.num_vars
    if n > _DP_MAX_VARS:
        raise SizeLimitError("instance has %d variables, DP cap is %d"
                             % (n, _DP_MAX_VARS))

    # Each constraint as (a, c) under its key v (its middle or only element),
    # credited at T = S + v when a is in T and c is not.  A pair (a, v) is
    # (a, n) and an arity-1 (v) is (v, n), as bit n is never set.
    terms: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    for c in instance.constraints:
        v = c[1] if len(c) > 1 else c[0]
        terms[v - 1].append((c[0] - 1, c[2] - 1 if len(c) == 3 else n))

    def gain(v, t):
        return sum(t >> a & ~t >> c & 1 for a, c in terms[v])

    masks, starts = _subsets_by_size(n)
    unset = -len(instance.constraints) - 1
    f = np.full(1 << n, unset, dtype=np.min_scalar_type(unset))
    f[0] = 0
    width = min(_DP_BLOCK, math.comb(n, n // 2))     # buffers for one block
    s, gt, bits = (np.empty(width, "<i4"), np.empty(width, bool),
                   np.empty((n + 1, width), np.int8))
    val, best = np.empty((2, width), f.dtype)
    for k in range(1, n + 1):
        for lo in range(starts[k], starts[k + 1], _DP_BLOCK):
            t = masks[lo:min(lo + _DP_BLOCK, starts[k + 1])]
            sb, vb, bb, gb, rows = (x[..., :len(t)]
                                    for x in (s, val, best, gt, bits))
            raw = t.view(np.uint8).reshape(-1, 4)       # each mask's bytes
            rows[:] = np.unpackbits(raw, axis=1, count=n + 1,
                                    bitorder="little").view(np.int8).T
            bb.fill(unset)
            for v in range(n):
                np.bitwise_xor(t, 1 << v, out=sb)   # T minus v, if v is in T
                f.take(sb, out=vb, mode="clip")   # "raise" would buffer
                for a, c in terms[v]:       # rows[a] > rows[n] is rows[a]
                    vb += (rows[a] if c == n else
                           np.greater(rows[a], rows[c], out=gb).view(np.int8))
                np.maximum(bb, vb, out=bb)
            f[t] = bb

    seq_rev, t = [], (1 << n) - 1
    while t:
        v = next(v for v in range(n) if t >> v & 1
                 and int(f[t ^ 1 << v]) + gain(v, t) == f[t])
        seq_rev.append(v + 1)
        t ^= 1 << v
    witness = Ordering.from_sequence(tuple(reversed(seq_rev)))
    return SolveResult(int(f[-1]), witness, 1 << n)


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
    r, _, kinds = g.blocks()
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
    r, offset, _ = h.blocks()
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
