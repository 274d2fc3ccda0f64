"""Exact solvers and decision oracles.

- :func:`solve_brute`: exhaustive search over all orderings; every prefix
  reuses one numpy table of the 9! suffix orders, built once per solve.
- :func:`solve_dp3`: the O*(2^n) subset DP covering the arity <= 3 side of
  the dichotomy, vectorized over each popcount layer of subsets.
- :func:`solve_convenient`: optimum over convenient orderings of an
  arity-4 or arity-6 reduction certificate, via the closed-form count.
  The phi oracle scores the phis in blocks and still checks every phi's
  closed form against the evaluator (:func:`evaluate_many`).
- :func:`solve_sat`, :func:`solve_3coloring`: the auxiliary oracles for
  the first two links of the reduction chain.
- :func:`solve_row_clique`, :func:`solve_row_biclique`: row-transversal
  cliques and bicliques, two thin adapters over one bit-parallel
  arc-consistency search (:func:`_row_transversal`).
"""

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import reduce
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
from permcsp.reductions import (COMPLETE, EMPTY, CnfFormula, GridGraph,
                                ReductionCertificate)


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


def solve_brute(instance: PermCspInstance, limit: int = 11,
                threads: int = 1) -> SolveResult:
    """Exact optimum by exhaustive enumeration of all n! orderings.

    Each prefix of the first n - 9 positions shares one table of the 9!
    suffix orders, built once per solve in lexicographic order, and
    ``before[a, b]``: the orders in which suffix slot a precedes slot b.
    Under a prefix each constraint is constant, dead, or an AND of
    ``before`` columns, so no ordering is materialized.

    The witness is the lexicographically first maximizer, in terms of the
    sequence of variables listed in position order.  Enumeration order and
    the reduction over prefixes are fixed, so results are bit-identical
    for any thread count.
    """
    n = instance.num_vars
    if n > limit:
        raise SizeLimitError(
            "instance has %d variables, above the brute-force limit %d "
            "(raise the limit explicitly to override)" % (n, limit)
        )
    return _brute_batched(instance, threads)


def _lex_permutations(m):
    """The permutations of range(m) as int8 rows, in lexicographic order."""
    table = np.zeros((1, 0), dtype=np.int8)
    for k in range(1, m + 1):
        # First element f, then the shorter table relabelled to skip f.
        first = np.repeat(np.arange(k, dtype=np.int8), len(table))[:, None]
        rest = np.tile(table, (k, 1))
        table = np.hstack([first, rest + (rest >= first)])
    return table


def _brute_batched(instance, threads):
    n = instance.num_vars
    plen = max(0, n - _BATCH_SUFFIX)
    rest = _lex_permutations(n - plen)
    slot_pos = np.empty((n - plen, len(rest)), dtype=np.int8)
    slot_pos[rest.T, np.arange(len(rest))] = np.arange(n - plen)[:, None]
    before = slot_pos[:, None, :] < slot_pos[None, :, :]
    chains = [[(c[k] - 1, c[k + 1] - 1) for k in range(len(c) - 1)]
              for c in instance.constraints]
    count_type = np.min_scalar_type(len(chains))   # no count exceeds it

    def eval_prefix(prefix):
        remaining = [v for v in range(n) if v not in prefix]
        # Prefix variables rank by position; suffix variables tie at plen.
        rank = [prefix.index(v) if v in prefix else plen for v in range(n)]
        slot = {v: k for k, v in enumerate(remaining)}
        sure, counts = 0, np.zeros(len(rest), dtype=count_type)
        for chain in chains:
            lookups = []
            for u, w in chain:
                if rank[u] > rank[w]:            # dead under this prefix
                    break
                if rank[u] == rank[w]:
                    lookups.append(before[slot[u], slot[w]])
            else:
                if lookups:
                    counts += reduce(np.logical_and, lookups).view(np.uint8)
                else:
                    sure += 1
        idx = int(np.argmax(counts))            # first maximizer in the batch
        seq = prefix + tuple(remaining[s] for s in rest[idx])
        return sure + int(counts[idx]), tuple(v + 1 for v in seq)

    prefixes = list(itertools.permutations(range(n), plen))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(eval_prefix, prefixes))
    else:
        results = map(eval_prefix, prefixes)

    best, best_seq = -1, None
    for count, seq in results:                   # reduce in lexicographic order
        if count > best:
            best, best_seq = count, seq
    return SolveResult(best, Ordering.from_sequence(best_seq),
                       math.factorial(n))


# ---------------------------------------------------------------------------
# Subset DP for arity <= 3
# ---------------------------------------------------------------------------

def solve_dp3(instance: PermCspInstance, max_vars: int = 24) -> SolveResult:
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
    if n > max_vars:
        raise SizeLimitError("instance has %d variables, DP cap is %d"
                             % (n, max_vars))

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
    Returns a full satisfying assignment, or None.
    """
    clauses = [tuple(c) for c in cnf.clauses]
    if any(len(c) == 0 for c in clauses):
        return None

    def unit_propagate(assign):
        changed = True
        while changed:
            changed = False
            for clause in clauses:
                unassigned = None
                satisfied = False
                count = 0
                for lit in clause:
                    val = assign.get(abs(lit))
                    if val is None:
                        unassigned, count = lit, count + 1
                    elif val == (lit > 0):
                        satisfied = True
                        break
                if satisfied:
                    continue
                if count == 0:
                    return False
                if count == 1:
                    assign[abs(unassigned)] = unassigned > 0
                    changed = True
        return True

    def dpll(assign):
        assign = dict(assign)
        if not unit_propagate(assign):
            return None
        var = next((v for v in range(1, cnf.num_vars + 1) if v not in assign),
                   None)
        if var is None:
            return assign
        for value in (True, False):
            result = dpll({**assign, var: value})
            if result is not None:
                return result
        return None

    result = dpll({})
    if result is None:
        return None
    for v in range(1, cnf.num_vars + 1):
        result.setdefault(v, True)
    return result


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

    def assign(k, masks):
        if k == len(order):
            return {v: masks[i].bit_length() - 1 for i, v in enumerate(order)}
        for bit in (1, 2, 4):
            if masks[k] & bit:
                trial, stack = masks[:], [k]
                trial[k] = bit
                while stack:
                    v = stack.pop()
                    for u in nbrs[v]:
                        if trial[u] & trial[v]:
                            trial[u] &= ~trial[v]
                            if not trial[u] & (trial[u] - 1):
                                stack.append(u)
                found = assign(k + 1, trial) if all(trial) else None
                if found is not None:
                    return found
        return None

    return assign(0, [1] + [7] * (len(order) - 1))


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
    wiped-out mask prunes.  Deterministic; on fully compatible instances
    the lexicographically first selection is returned.
    """
    rows = len(neighbors)
    last_wipe = [-1]
    nbytes = (width + 7) // 8

    def table(row, src):
        """Entry [c]: mask of the columns of ``row`` compatible with
        column c of ``src``."""
        packed = np.packbits(block(row, src).T, axis=1,
                             bitorder="little").tobytes()
        return [int.from_bytes(packed[c * nbytes:(c + 1) * nbytes], "little")
                for c in range(width)]

    nbr_rows = [[int(row) for row in nbrs] for nbrs in neighbors]
    tables = [[table(row, src) for row in nbr_rows[src]]
              for src in range(rows)]
    memo = [{} for _ in range(rows)]

    def supported(src, dom):
        """Per neighbour of ``src``: the mask of its columns compatible
        with some column in ``dom``; memoised per (src, dom)."""
        found = memo[src].get(dom)
        if found is None:
            cols = _bits(dom)
            found = []
            for entries in tables[src]:
                mask = 0
                for c in cols:
                    mask |= entries[c]
                found.append(mask)
            memo[src][dom] = found
        return found

    def propagate(cand, dirty):
        """AC-3 along constrained row pairs; False on a wiped-out row,
        which is remembered for the last-conflict branching heuristic."""
        queue = list(dirty)
        in_queue = set(queue)
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
                    if row not in in_queue:
                        queue.append(row)
                        in_queue.add(row)
        return True

    def split(dom):
        """Partition a candidate mask along the coarsest aligned block
        boundary (powers of 3, matching the ternary word layout of
        Gray-coded grids; an arbitrary deterministic split elsewhere).
        Parts come in ascending column order."""
        cols = _bits(dom)
        span = 1
        while span * 3 <= cols[-1]:
            span *= 3
        while span >= 1:
            if cols[0] // span != cols[-1] // span:
                parts = {}
                for c in cols:
                    parts[c // span] = parts.get(c // span, 0) | 1 << c
                return list(parts.values())
            span //= 3
        return [dom]

    def branches(cand, row):
        """The children of ``cand`` that survive propagation, made one at
        a time: ``row``'s candidates split, lower blocks first."""
        for part in split(cand[row]):
            nxt = list(cand)
            nxt[row] = part
            if propagate(nxt, [row]):
                yield nxt

    # Depth-first search, on a stack of branch generators (a path can be
    # longer than Python's recursion limit): branch on the tightest open
    # row until every candidate set is a singleton.  With arc consistency
    # restored after every split, all-singleton domains are mutually
    # compatible, so reaching them is success.  The row that wiped out
    # most recently is branched first (the last-conflict heuristic keeps
    # the search at the failure site); otherwise fewest candidates, most
    # constrained pairs, lowest index.  Lower blocks first keep the
    # selection lexicographically first on fully compatible instances.
    cand = [(1 << width) - 1] * rows
    stack = [iter([cand] if propagate(cand, list(range(rows))) else [])]
    while stack:
        cand = next(stack[-1], None)
        if cand is None:
            stack.pop()
            continue
        counts = [dom.bit_count() for dom in cand]
        open_rows = [k for k in range(rows) if counts[k] > 1]
        if not open_rows:
            return [dom.bit_length() - 1 for dom in cand]
        if last_wipe[0] >= 0 and counts[last_wipe[0]] > 1:
            row = last_wipe[0]
        else:
            row = min(open_rows, key=lambda k: (counts[k], -degree[k], k))
        stack.append(branches(cand, row))
    return None


def _bits(mask):
    """The set bit positions of ``mask``, ascending."""
    cols = []
    while mask:
        low = mask & -mask
        cols.append(low.bit_length() - 1)
        mask ^= low
    return cols


def _grid_transversal(g: GridGraph, kind: str):
    """:func:`_row_transversal` on the row pairs of a ``kind`` grid that
    are not COMPLETE (those constrain nothing): a clique grid's rows, or
    a biclique grid's top rows then bottom rows, with columns counted
    within each half.  Exact on any grid, symmetric or not."""
    if g.kind != kind:
        raise InvalidInputError("row-%s search expects a %s grid"
                                % (kind, kind))
    r, _, kinds, _ = g.blocks()
    free, empty, block = kinds == COMPLETE, kinds == EMPTY, g.block
    if kind == "clique":
        np.fill_diagonal(free, True)
        np.fill_diagonal(empty, False)
    if empty.any():         # two rows with no compatible columns at all
        return None
    if kind == "biclique":
        top = np.ones_like(free)
        free = np.block([[top, free], [free.T, top]])

        def block(row, src):
            if src < r:
                return g.block(src, row - r).T
            return g.block(row, src - r)
    return _row_transversal(r, [np.flatnonzero(~f) for f in free],
                            (~free).sum(axis=1), block)


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

def certificate_mismatch(cert: ReductionCertificate, grid: GridGraph,
                         D: Optional[int] = None) -> Optional[str]:
    """Rerun the reduction that made ``cert`` on its source grid, with the
    certificate's dummy count and (arity 4 only) ``D``, defaulting to the
    certificate's; the first field that differs (constraint multiset,
    role lines, kind, n, D, source-edges, delta-sum, target), or None.  A
    grid that breaks the reduction's preconditions raises
    :class:`InvalidInputError`."""
    m = len(cert.dummy_vars)
    if cert.kind == "perm4":
        regen = reductions.reduce_dcnnb_to_perm4(
            grid, D=cert.D if D is None else D, dummy_count=m)
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


def solve_convenient(cert: ReductionCertificate, h: GridGraph,
                     D: Optional[int] = None) -> SolveResult:
    """Maximize over convenient orderings d_1..d_m c_1 R_1 ... c_last.

    Works for both certificate kinds: ``h`` is the 2n x 2n biclique grid
    of an arity-4 certificate or the n x n clique grid of an arity-6 one,
    and must regenerate the certificate (:func:`certificate_mismatch`);
    the search itself is :func:`_best_convenient`.
    """
    n = cert.n
    side, kind = (2 * n, "biclique") if cert.kind == "perm4" else (n, "clique")
    if h.kind != kind or h.side != side:
        raise InvalidInputError("certificate and grid dimensions disagree")
    mismatch = certificate_mismatch(cert, h, D)
    if mismatch is not None:
        raise InvalidInputError(mismatch)
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
