"""Solvers and decision oracles, cross-checked against each other."""

import hashlib
import itertools
import math
import random
from dataclasses import replace

import networkx as nx
import numpy as np
import pytest

from conftest import (
    all_cross_row_edges,
    graph_from_nx,
    grid_from_edges,
    random_instance,
)
from permcsp import solvers, validate
from permcsp.core import (
    Graph,
    InternalConsistencyError,
    InvalidInputError,
    Ordering,
    PermCspInstance,
    SizeLimitError,
    UnsupportedArityError,
    evaluate,
)
from permcsp.reductions import (
    CnfFormula,
    GridGraph,
    reduce_clique_to_perm6,
    reduce_coloring_to_dcnnc,
    reduce_dcnnb_to_perm4,
    reduce_dcnnc_to_dcnnb,
    sufficient_dummies_perm4,
    sufficient_dummies_perm6,
)
from permcsp.solvers import (
    RowSelection,
    SolveResult,
    solve_3coloring,
    solve_brute,
    solve_dp3,
    solve_row_biclique,
    solve_row_clique,
    solve_sat,
)


# ---------------------------------------------------------------------------
# solve_brute
# ---------------------------------------------------------------------------

def test_brute_single_triple():
    inst = PermCspInstance.make(3, [(1, 2, 3)])
    res = solve_brute(inst)
    assert res.optimum == 1
    assert res.witness.sequence() == (1, 2, 3)
    assert evaluate(inst, res.witness) == res.optimum


def test_brute_contradictory_pair():
    inst = PermCspInstance.make(3, [(1, 2, 3), (1, 3, 2)])
    assert solve_brute(inst).optimum == 1


def test_brute_size_guard():
    inst = PermCspInstance.make(12, [])
    with pytest.raises(SizeLimitError):
        solve_brute(inst)
    # An explicit limit override lifts the guard.
    assert solve_brute(PermCspInstance.make(4, []), limit=4).optimum == 0


def test_brute_witness_is_lex_first():
    # Every ordering scores 0, so the witness must be the identity.
    inst = PermCspInstance.make(4, [])
    assert solve_brute(inst).witness.sequence() == (1, 2, 3, 4)


def test_brute_batched_matches_small():
    # A padded copy of the same constraints (one free variable more) has
    # the same optimum.
    rng = random.Random(5)
    for _ in range(5):
        cons = [tuple(rng.sample(range(1, 7), rng.randint(1, 3)))
                for _ in range(rng.randint(1, 6))]
        small = solve_brute(PermCspInstance.make(6, cons))
        padded = solve_brute(PermCspInstance.make(7, cons))
        assert padded.optimum == small.optimum
        assert evaluate(PermCspInstance.make(7, cons), padded.witness) \
            == padded.optimum


def _enumerated_optimum(instance):
    """(optimum, first maximizing sequence, orderings tried) by plain
    enumeration in lexicographic order."""
    best, best_seq, nodes = -1, None, 0
    for seq in itertools.permutations(range(1, instance.num_vars + 1)):
        nodes += 1
        count = evaluate(instance, Ordering.from_sequence(seq))
        if count > best:
            best, best_seq = count, seq
    return best, best_seq, nodes


@pytest.mark.parametrize("instance", [
    PermCspInstance.make(1, []),
    PermCspInstance.make(1, [(1,)]),
    PermCspInstance.make(5, []),
    PermCspInstance.make(6, [(2, 1), (3, 2), (1, 3, 4), (6, 5, 4), (5,)]),
] + [random_instance(random.Random(seed), seed % 6 + 1, 6)
     for seed in range(12)])
def test_brute_matches_enumeration(instance):
    res = solve_brute(instance)
    assert (res.optimum, res.witness.sequence(), res.nodes_explored) \
        == _enumerated_optimum(instance)


def test_brute_thread_count_does_not_change_result(rng):
    for _ in range(3):
        inst = random_instance(rng, 7, 6)
        one = solve_brute(inst, threads=1)
        four = solve_brute(inst, threads=4)
        assert one.optimum == four.optimum
        assert one.witness == four.witness
        assert one.nodes_explored == four.nodes_explored


def _brute_reference(instance):
    """(optimum, first maximizing sequence, orderings tried) by the
    per-prefix kernel that materializes every ordering: the last 9
    positions are enumerated as one block under each prefix, and each
    block's position table is scattered from its orderings."""
    n = instance.num_vars
    cons_pairs = [tuple((c[k] - 1, c[k + 1] - 1) for k in range(len(c) - 1))
                  for c in instance.constraints]
    always = sum(1 for pairs in cons_pairs if not pairs)
    cons_pairs = [pairs for pairs in cons_pairs if pairs]
    pair_list = sorted({pr for pairs in cons_pairs for pr in pairs})

    plen = max(0, n - 9)
    rest = np.array(list(itertools.permutations(range(n - plen))),
                    dtype=np.int8)
    batch = rest.shape[0]
    rows = np.arange(batch)[:, None]
    positions = np.arange(n, dtype=np.int8)[None, :]

    def eval_prefix(prefix):
        remaining = np.array([v for v in range(n) if v not in prefix],
                             dtype=np.int8)
        orders = np.empty((batch, n), dtype=np.int8)
        if plen:
            orders[:, :plen] = np.array(prefix, dtype=np.int8)
        orders[:, plen:] = remaining[rest]
        pos = np.empty((batch, n), dtype=np.int8)
        pos[rows, orders] = positions
        cache = {pr: pos[:, pr[0]] < pos[:, pr[1]] for pr in pair_list}
        counts = np.zeros(batch, dtype=np.int32)
        for pairs in cons_pairs:
            mask = cache[pairs[0]]
            for pr in pairs[1:]:
                mask = mask & cache[pr]
            counts += mask
        idx = int(np.argmax(counts))            # first maximizer in the batch
        return int(counts[idx]), tuple(int(v) + 1 for v in orders[idx])

    best, best_seq = -1, None
    for count, seq in map(eval_prefix,
                          itertools.permutations(range(n), plen)):
        if count > best:
            best, best_seq = count, seq
    return best + always, best_seq, math.factorial(n)


def _low_variable_instance(seed, n):
    """Arity-1..5 constraints, most of them on variables 1..4, so that
    under the first prefixes some are constant and some are dead."""
    rng = random.Random(seed)
    constraints = []
    for _ in range(rng.randint(8, 14)):
        arity = rng.randint(1, 5)
        low = rng.sample(range(1, 5), rng.randint(1, min(arity, 4)))
        high = rng.sample(range(5, n + 1), arity - len(low))
        cons = low + high
        rng.shuffle(cons)
        constraints.append(tuple(cons))
    constraints += constraints[:2]                 # duplicates count twice
    return PermCspInstance.make(n, constraints)


@pytest.mark.parametrize("seed,n", [(1, 10), (2, 10), (3, 10), (4, 11)])
def test_brute_prefix_path_matches_reference(seed, n):
    inst = _low_variable_instance(seed, n)
    expected = _brute_reference(inst)
    for threads in (1, 3):
        res = solve_brute(inst, threads=threads)
        assert (res.optimum, res.witness.sequence(), res.nodes_explored) \
            == expected


# ---------------------------------------------------------------------------
# solve_dp3
# ---------------------------------------------------------------------------

def test_dp3_empty():
    assert solve_dp3(PermCspInstance.make(4, [])).optimum == 0


def test_dp3_contradictory_pair():
    inst = PermCspInstance.make(3, [(1, 2, 3), (1, 3, 2)])
    res = solve_dp3(inst)
    assert res.optimum == 1
    assert evaluate(inst, res.witness) == 1


def test_dp3_rejects_arity_4():
    inst = PermCspInstance.make(4, [(1, 2, 3, 4)])
    with pytest.raises(UnsupportedArityError):
        solve_dp3(inst)


def test_dp3_size_guard():
    inst = PermCspInstance.make(25, [])
    with pytest.raises(SizeLimitError):
        solve_dp3(inst)


def test_dp3_duplicates_count_multiply():
    inst = PermCspInstance.make(3, [(1, 2), (1, 2), (2, 1)])
    res = solve_dp3(inst)
    assert res.optimum == 2
    assert evaluate(inst, res.witness) == 2


def _dp3_reference(instance):
    """(optimum, witness sequence, states) by the scalar subset loop: the
    subsets in increasing order, the candidates v ascending, and a
    replacement only on a strict gain."""
    n = instance.num_vars
    gain1 = [0] * n
    pairs2 = [[] for _ in range(n)]
    trips = [[] for _ in range(n)]
    for c in instance.constraints:
        if len(c) == 1:
            gain1[c[0] - 1] += 1
        elif len(c) == 2:
            pairs2[c[1] - 1].append(c[0] - 1)
        else:
            trips[c[1] - 1].append((c[0] - 1, c[2] - 1))

    full = (1 << n) - 1
    f = [-1] * (full + 1)
    back = [0] * (full + 1)
    f[0] = 0
    for t in range(1, full + 1):
        best, bestv = -1, -1
        for v in range(n):
            bit = 1 << v
            if not t & bit:
                continue
            s = t ^ bit
            g = gain1[v]
            for a in pairs2[v]:
                if s >> a & 1:
                    g += 1
            for a, cc in trips[v]:
                if s >> a & 1 and not s >> cc & 1:
                    g += 1
            val = f[s] + g
            if val > best:                       # ties go to the smallest v
                best, bestv = val, v
        f[t] = best
        back[t] = bestv

    seq_rev = []
    t = full
    while t:
        v = back[t]
        seq_rev.append(v + 1)
        t ^= 1 << v
    return f[full], tuple(reversed(seq_rev)), full + 1


@pytest.mark.parametrize("n", range(1, 13))
def test_dp3_matches_reference(n):
    # 17 seeded instances per n: sparse ones (many tied optima), dense
    # ones, arity-1 constraints, and explicit duplicates.
    rng = random.Random(1000 + n)
    for k in range(17):
        inst = random_instance(rng, n, (1, n, 3 * n)[k % 3])
        cons = inst.constraints + inst.constraints[:k % 3]
        inst = PermCspInstance.make(n, cons)
        res = solve_dp3(inst)
        assert (res.optimum, res.witness.sequence(), res.nodes_explored) \
            == _dp3_reference(inst)


def test_dp3_matches_brute_randomly(rng):
    for _ in range(60):
        inst = random_instance(rng, rng.randint(2, 7), 8)
        d = solve_dp3(inst)
        b = solve_brute(inst)
        assert d.optimum == b.optimum
        assert evaluate(inst, d.witness) == d.optimum


# ---------------------------------------------------------------------------
# solve_sat
# ---------------------------------------------------------------------------

def test_sat_contradiction():
    cnf = CnfFormula(1, ((1,), (-1,)))
    assert solve_sat(cnf) is None


def test_sat_single_clause():
    cnf = CnfFormula(3, ((1, 2, 3),))
    assign = solve_sat(cnf)
    assert assign is not None and assign[1] is True


def test_sat_empty_clause_is_unsat():
    cnf = CnfFormula(2, ((1, 2), ()))
    assert solve_sat(cnf) is None


def _truth_table_sat(cnf):
    for bits in itertools.product([False, True], repeat=cnf.num_vars):
        assign = {v: bits[v - 1] for v in range(1, cnf.num_vars + 1)}
        if all(any(assign[abs(l)] == (l > 0) for l in c) for c in cnf.clauses):
            return True
    return False


def test_sat_matches_truth_table(rng):
    for _ in range(50):
        nv = rng.randint(1, 8)
        clauses = []
        for _ in range(rng.randint(1, 12)):
            vs = rng.sample(range(1, nv + 1), min(rng.randint(1, 3), nv))
            clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
        cnf = CnfFormula(nv, tuple(clauses))
        assign = solve_sat(cnf)
        assert (assign is not None) == _truth_table_sat(cnf)
        if assign is not None:
            assert all(any(assign[abs(l)] == (l > 0) for l in c)
                       for c in cnf.clauses)


# ---------------------------------------------------------------------------
# solve_3coloring
# ---------------------------------------------------------------------------

def test_coloring_triangle():
    col = solve_3coloring(Graph(3, [(1, 2), (1, 3), (2, 3)]))
    assert col is not None
    assert sorted(col.values()) == [0, 1, 2]


def test_coloring_k4_impossible():
    k4 = Graph(4, itertools.combinations(range(1, 5), 2))
    assert solve_3coloring(k4) is None


def test_coloring_self_loop_has_none():
    # A self-looped graph has no proper coloring; the graph type refuses
    # it, so the solver never sees one.
    with pytest.raises(InvalidInputError, match="two distinct vertices"):
        Graph(3, [(1, 2), (3, 3)])


def test_coloring_is_proper_on_random_graphs(rng):
    for _ in range(20):
        g = graph_from_nx(nx.gnp_random_graph(rng.randint(1, 9), 0.4,
                                              seed=rng.randint(0, 10 ** 6)))
        col = solve_3coloring(g)
        if col is None:
            # Confirm by exhaustive search over all 3^n colorings.
            nodes = list(g.nodes())
            ok = any(
                all(assign[u] != assign[v] for u, v in g.edges())
                for assign in ({n: c[i] for i, n in enumerate(nodes)}
                               for c in itertools.product(
                                   range(3), repeat=len(nodes))))
            assert not ok
        else:
            assert all(col[u] != col[v] for u, v in g.edges())


def test_coloring_is_first_in_search_order(rng):
    """Propagation only prunes: the answer is the first proper coloring
    with vertices in degree-descending order (ties by label), colors
    ascending and the first vertex at 0, as plain backtracking finds it."""
    for _ in range(30):
        g = graph_from_nx(nx.gnp_random_graph(rng.randint(1, 8), 0.45,
                                              seed=rng.randint(0, 10 ** 6)))
        degree = dict(g.degree())
        order = sorted(g.nodes(), key=lambda v: (-degree[v], v))
        first = next((col for col in (
            dict(zip(order, (0,) + rest))
            for rest in itertools.product(range(3), repeat=len(order) - 1))
            if all(col[u] != col[v] for u, v in g.edges())), None)
        assert solve_3coloring(g) == first


# ---------------------------------------------------------------------------
# solve_row_clique / solve_row_biclique
# ---------------------------------------------------------------------------

def test_row_clique_complete_multipartite():
    edges = [((1, a), (2, b)) for a in (1, 2) for b in (1, 2)]
    sel = solve_row_clique(grid_from_edges(2, edges))
    assert sel.choice == (1, 1)       # lexicographically first


def test_row_clique_edgeless():
    assert solve_row_clique(grid_from_edges(2, [])) is None


def test_row_clique_single_diagonal():
    sel = solve_row_clique(grid_from_edges(2, [((1, 1), (2, 2))]))
    assert sel.choice == (1, 2)


def test_row_clique_trivial_one_row():
    sel = solve_row_clique(grid_from_edges(1, []))
    assert sel.choice == (1,)


def test_row_clique_needs_all_pairs_adjacent():
    # Rows 1-2 and 2-3 connected, rows 1-3 not: no triangle.
    edges = [((1, 1), (2, 1)), ((2, 1), (3, 1))]
    assert solve_row_clique(grid_from_edges(3, edges)) is None
    sel = solve_row_clique(grid_from_edges(3, edges + [((1, 1), (3, 1))]))
    assert sel.choice == (1, 1, 1)


def test_row_clique_matches_exhaustive_search(rng):
    for _ in range(30):
        side = rng.randint(2, 3)
        pool = [(a, b) for a in [(i, j) for i in range(1, side + 1)
                                 for j in range(1, side + 1)]
                for b in [(i, j) for i in range(1, side + 1)
                          for j in range(1, side + 1)]
                if a < b and a[0] != b[0]]
        edges = rng.sample(pool, rng.randint(0, len(pool)))
        g = grid_from_edges(side, edges)
        sel = solve_row_clique(g)
        exists = any(
            all(g.has_edge((i + 1, c[i]), (k + 1, c[k]))
                for i in range(side) for k in range(i + 1, side))
            for c in itertools.product(range(1, side + 1), repeat=side))
        assert (sel is not None) == exists
        if sel is not None:
            vs = sel.vertices()
            assert all(g.has_edge(a, b)
                       for a, b in itertools.combinations(vs, 2))


def test_row_biclique_single_edge():
    h = grid_from_edges(2, [((1, 1), (2, 2))], kind="biclique")
    assert solve_row_biclique(h).choice == (1, 2)


def test_row_biclique_edgeless():
    h = grid_from_edges(2, [], kind="biclique")
    assert solve_row_biclique(h) is None


def test_row_biclique_n2_pairing():
    # Full diagonal pairing: selection (j, j) per row works.
    n = 2
    edges = [((i, j), (n + i, n + j))
             for i in range(1, n + 1) for j in range(1, n + 1)]
    # Make every cross pair adjacent so (1,1,3,3) forms K_{2,2}.
    edges += [((i, j), (n + ip, n + jp))
              for i in range(1, n + 1) for j in range(1, n + 1)
              for ip in range(1, n + 1) for jp in range(1, n + 1)]
    h = grid_from_edges(2 * n, set(edges), kind="biclique")
    sel = solve_row_biclique(h)
    assert sel.choice == (1, 1, 3, 3)
    n_half = h.side // 2
    for i in range(1, n_half + 1):
        for ip in range(1, n_half + 1):
            assert h.has_edge((i, sel.choice[i - 1]),
                              (n_half + ip, sel.choice[n_half + ip - 1]))


def test_row_biclique_rejects_misplaced_edges():
    # The grid type refuses a misplaced edge, from a caller or from a file,
    # so the search never sees one.
    from permcsp.formats import FormatError, read_grid
    with pytest.raises(InvalidInputError):
        grid_from_edges(2, [((1, 1), (1, 2))], kind="biclique")
    head = "p grid 2\nc kind biclique\ne 1 1 2 2\n"
    with pytest.raises(FormatError) as exc:
        read_grid(head + "e 1 1 1 2\n")
    assert (exc.value.line, exc.value.offset) == (4, len(head))
    assert exc.value.found == "e 1 1 1 2"
    assert "joined to a bottom vertex" in exc.value.expected
    assert solve_row_biclique(read_grid(head)) == RowSelection((1, 2))


def test_row_biclique_matches_exhaustive(rng):
    for _ in range(20):
        n = 2
        pool = [((i, j), (n + ip, n + jp))
                for i in range(1, n + 1) for j in range(1, n + 1)
                for ip in range(1, n + 1) for jp in range(1, n + 1)]
        edges = set()
        for (i, j), (nip, njp) in rng.sample(pool, rng.randint(0, len(pool))):
            ip, jp = nip - n, njp - n
            edges.add(((i, j), (n + ip, n + jp)))
            edges.add(((ip, jp), (n + i, n + j)))  # symmetry partner
        h = grid_from_edges(2 * n, edges, kind="biclique")
        sel = solve_row_biclique(h)
        exists = False
        for top in itertools.product(range(1, n + 1), repeat=n):
            for bot in itertools.product(range(n + 1, 2 * n + 1), repeat=n):
                if all(h.has_edge((i + 1, top[i]), (n + ip + 1, bot[ip]))
                       for i in range(n) for ip in range(n)):
                    exists = True
        assert (sel is not None) == exists


# Exact selections of the row-transversal search on fixed grids.  Any
# change to the branching order, the split or the propagation shows up
# here, including on the biclique side, whose search shares the engine.
_PINNED_CHAIN = {
    1: ((24, 22, 19, 3, 13, 13, 19, 26, 4, 6, 1, 24, 13) + (1,) * 14,
        (51, 49, 46, 30, 40, 40, 46, 53, 31, 33, 28, 51, 40) + (28,) * 14),
    -1: ((8, 9, 1, 13, 19, 26, 4, 3, 10, 11, 19, 5, 25) + (1,) * 14,
         (35, 36, 28, 40, 46, 53, 31, 30, 37, 38, 46, 32, 52) + (28,) * 14),
}


@pytest.mark.parametrize("lit", [1, -1])
def test_row_transversal_pinned_on_chain_grids(lit):
    from permcsp.reductions import (reduce_coloring_to_dcnnc,
                                    reduce_dcnnc_to_dcnnb,
                                    reduce_sat_to_coloring)
    g, bound = reduce_sat_to_coloring(CnfFormula(1, ((lit,),), 3))
    grid = reduce_coloring_to_dcnnc(g, degree_bound=bound)
    h = reduce_dcnnc_to_dcnnb(grid)
    assert (grid.side, h.side) == (27, 54)
    clique, bottom = _PINNED_CHAIN[lit]
    assert solve_row_clique(grid).choice == clique
    assert solve_row_biclique(h).choice == clique + bottom


# The satisfiable 5-variable formula whose 81-row chain needs the longest
# search among the chain81 benchmark formulas; columns run past 64 bits.
_CNF_81 = CnfFormula(5, ((-4, -2, -3), (4, 5, 2)), 3)
_PINNED_81 = (
    (70, 47, 24, 28, 24, 70, 47, 67, 47, 24, 72, 1, 70, 47, 22, 24, 70, 47,
     28, 14, 1, 2, 1, 55) + (1,) * 57,
    (151, 128, 105, 109, 105, 151, 128, 148, 128, 105, 153, 82, 151, 128,
     103, 105, 151, 128, 109, 95, 82, 83, 82, 136) + (82,) * 57,
)


def test_row_transversal_pinned_on_an_81_row_chain():
    from permcsp.reductions import (reduce_coloring_to_dcnnc,
                                    reduce_dcnnc_to_dcnnb,
                                    reduce_sat_to_coloring)
    g, bound = reduce_sat_to_coloring(_CNF_81)
    grid = reduce_coloring_to_dcnnc(g, degree_bound=bound)
    assert grid.side == 81
    clique, bottom = _PINNED_81
    assert solve_row_clique(grid).choice == clique
    h = reduce_dcnnc_to_dcnnb(grid)
    assert solve_row_biclique(h).choice == clique + bottom


def _seeded_grids(seed, side=6, p=0.5):
    """A random clique grid and its doubling (without condition checks)."""
    from conftest import all_cross_row_edges
    rng = random.Random(seed)
    edges = [e for e in all_cross_row_edges(side) if rng.random() < p]
    n = side
    doubled = [((i, j), (n + i, n + j))
               for i in range(1, n + 1) for j in range(1, n + 1)]
    for (i, j), (ip, jp) in edges:
        doubled += [((i, j), (n + ip, n + jp)), ((ip, jp), (n + i, n + j))]
    return (grid_from_edges(side, edges),
            grid_from_edges(2 * side, doubled, kind="biclique"))


@pytest.mark.parametrize("seed, clique, biclique", [
    (0, None, None),
    (3, (5, 4, 1, 3, 2, 4), (5, 4, 1, 3, 2, 4, 11, 10, 7, 9, 8, 10)),
])
def test_row_transversal_pinned_on_seeded_grids(seed, clique, biclique):
    g, h = _seeded_grids(seed)
    sel, bsel = solve_row_clique(g), solve_row_biclique(h)
    assert (sel and sel.choice) == clique
    assert (bsel and bsel.choice) == biclique


# The 243-row chain of acceptance criterion 7b: sha256 of the repr of the
# clique and biclique selections' column tuples.
_PINNED_243 = (
    "fccc6fce3d0325bf1d93b0c150e461d2fdd36f879501099f06d23979d1e41dc0",
    "4077ec3345b5b8cc98c238c380addb7a86b52edb77b0f6e83ef8af2069adcc9a",
)


def test_row_transversal_pinned_on_a_243_row_chain():
    from permcsp import cli
    from permcsp.reductions import reduce_sat_to_coloring
    g, bound = reduce_sat_to_coloring(cli.gen_sat(10, 10, 3, seed=1))
    grid = reduce_coloring_to_dcnnc(g, degree_bound=bound, row_cap=243)
    h = reduce_dcnnc_to_dcnnb(grid)
    assert (grid.side, h.side) == (243, 486)
    selections = solve_row_clique(grid), solve_row_biclique(h)
    assert tuple(hashlib.sha256(repr(sel.choice).encode()).hexdigest()
                 for sel in selections) == _PINNED_243


# The row search before its supports were packed per column and its
# counts kept up to date: one support table per row pair, candidate
# counts rebuilt at every node.  The kernel must select the same.
def _row_transversal_reference(width, neighbors, degree, block):
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


def _random_grids(seed, side, p):
    """A random clique grid, its doubling, and a random biclique grid on
    as many rows, built block by block (no condition checks)."""
    rng = np.random.default_rng(seed)
    g = GridGraph(side, blocks={(i, k): rng.random((side, side)) < p
                                for i in range(side)
                                for k in range(i + 1, side)})
    doubled = {(i, k): g.block(i, k) if i != k else np.eye(side, dtype=bool)
               for i in range(side) for k in range(side)}
    h = GridGraph(2 * side, kind="biclique", blocks=doubled)
    b = GridGraph(2 * side, kind="biclique",
                  blocks={(i, k): rng.random((side, side)) < p
                          for i in range(side) for k in range(side)})
    return g, h, b


# Sides 2-12 cover widths that are powers of 3 and widths that are not
# (the split's last block is partial), and widths that are not multiples
# of 8 (the support lanes are padded).
@pytest.mark.parametrize("side", range(2, 13))
@pytest.mark.parametrize("p", [0.2, 0.5, 0.6, 0.8])
def test_row_transversal_matches_reference_on_random_grids(side, p,
                                                           monkeypatch):
    g, h, b = _random_grids(100 * side + int(100 * p), side, p)
    solves = [(solve_row_clique, g), (solve_row_biclique, h),
              (solve_row_biclique, b)]
    found = [solve(x) for solve, x in solves]
    monkeypatch.setattr(solvers, "_row_transversal",
                        _row_transversal_reference)
    assert found == [solve(x) for solve, x in solves]


@pytest.mark.parametrize("seed", range(40))
def test_row_transversal_kernel_matches_reference(seed):
    # Random constraint networks straight into the kernel, some with an
    # EMPTY pair (no compatible columns), a COMPLETE one or one column.
    rng = random.Random(seed)
    rows, width = rng.randint(1, 9), rng.choice([1, 2, 5, 9, 10, 17])
    p = rng.choice([0.2, 0.5, 0.8])
    pairs = [(a, c) for a in range(rows) for c in range(a + 1, rows)
             if rng.random() < 0.6]
    gen = np.random.default_rng(seed)
    blocks = {pair: gen.random((width, width)) < p for pair in pairs}
    if pairs and seed % 4 == 0:
        blocks[pairs[0]][...] = seed % 8 == 4       # EMPTY or COMPLETE
    neighbors = [np.array(sorted({c for a, c in pairs if a == k}
                                 | {a for a, c in pairs if c == k}), int)
                 for k in range(rows)]
    degree = np.array([len(nbrs) for nbrs in neighbors])

    def block(row, src):
        return blocks[row, src] if row < src else blocks[src, row].T

    args = width, neighbors, degree, block
    assert (solvers._row_transversal(*args)
            == _row_transversal_reference(*args))


# ---------------------------------------------------------------------------
# solve_convenient on arity-6 certificates
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("edges, meets", [
    ([((1, 1), (2, 2))], True),
    ([], False),
])
def test_convenient_perm6(edges, meets):
    from permcsp.reductions import reduce_clique_to_perm6
    from permcsp.solvers import solve_convenient
    grid = grid_from_edges(2, edges)
    cert = reduce_clique_to_perm6(grid, dummy_count=6)
    res = solve_convenient(cert, grid)
    assert res.nodes_explored == 4
    assert evaluate(cert.instance, res.witness) == res.optimum
    assert (res.optimum >= cert.target) == meets
    assert res.optimum == cert.target - (0 if meets else 1)


def test_convenient_rejects_a_different_grid():
    from permcsp.reductions import reduce_clique_to_perm6
    from permcsp.solvers import solve_convenient
    cert = reduce_clique_to_perm6(grid_from_edges(2, [((1, 1), (2, 2))]),
                                  dummy_count=6)
    with pytest.raises(InvalidInputError, match="constraint set"):
        solve_convenient(cert, grid_from_edges(2, [((1, 2), (2, 1))]))
    swapped = replace(cert, row_vars=cert.row_vars[::-1])
    with pytest.raises(InvalidInputError, match="role lines"):
        solve_convenient(swapped, grid_from_edges(2, [((1, 1), (2, 2))]))
    inflated = replace(cert, target=cert.target + 1)
    with pytest.raises(InvalidInputError, match="target"):
        solve_convenient(inflated, grid_from_edges(2, [((1, 1), (2, 2))]))
    with pytest.raises(InvalidInputError, match="dimensions disagree"):
        solve_convenient(cert, grid_from_edges(3, []))


def _dense_blocks(h):
    """r, offset and the grid's blocks as one dense [i, j, k, l] array,
    read through ``h.block``."""
    r, offset, _, _ = h.blocks()
    blocks = np.array([[h.block(i, k) for k in range(r)] for i in range(r)])
    return r, offset, blocks.transpose(0, 2, 1, 3)


def _best_convenient_reference(cert, h):
    """The phi loop that _best_convenient replaced: one phi at a time,
    each ordering materialized and scored by evaluate."""
    n, perm4 = cert.n, cert.kind == "perm4"
    r, offset, blocks = _dense_blocks(h)
    rows = np.arange(r)
    intervals = [range(1, r + 1)] * r
    if perm4:
        intervals += [range(offset + 1, offset + r + 1)] * r
    base = cert.target - (n * n if perm4 else math.comb(n, 2))
    best, best_witness, nodes = -1, None, 0
    for choice in itertools.product(*intervals):
        nodes += 1
        cols = np.array(choice) - 1
        induced = int(blocks[rows[:, None], cols[:r, None], rows,
                             cols[-r:] - offset].sum())
        count = base + (induced if perm4 else induced // 2)
        ordering = validate.map_selection_to_ordering(RowSelection(choice),
                                                      cert)
        measured = evaluate(cert.instance, ordering)
        if measured != count:
            raise InternalConsistencyError(
                "closed form says %d, evaluator says %d for phi=%s"
                % (count, measured, choice)
            )
        if count > best:
            best, best_witness = count, ordering
    return SolveResult(best, best_witness, nodes)


def _oracle_cases():
    """(certificate, grid) pairs: every 2x2 arity-6 certificate, a seeded
    sample of 3x3 ones, and arity-4 certificates at n = 2 and 3."""
    pool = all_cross_row_edges(2)
    grids = [grid_from_edges(2, edges) for k in range(len(pool) + 1)
             for edges in itertools.combinations(pool, k)]
    rng = random.Random(91)
    pool = all_cross_row_edges(3)
    grids += [grid_from_edges(3, rng.sample(pool, rng.randint(0, len(pool))))
              for _ in range(6)]
    cases = [(reduce_clique_to_perm6(
        g, dummy_count=sufficient_dummies_perm6(g.side)), g) for g in grids]
    bicliques = [
        reduce_dcnnc_to_dcnnb(grid_from_edges(
            2, [((1, 1), (2, 1)), ((1, 2), (2, 2))], D=1)),
        reduce_dcnnc_to_dcnnb(grid_from_edges(2, all_cross_row_edges(2),
                                              D=2)),
        GridGraph(4, kind="biclique", D=1),
        reduce_dcnnc_to_dcnnb(reduce_coloring_to_dcnnc(
            Graph(3, [(1, 2), (2, 3), (1, 3)]), degree_bound=2)),
    ]
    for h in bicliques:
        d = sufficient_dummies_perm4(h.side // 2, h.D, h.num_edges())
        cases.append((reduce_dcnnb_to_perm4(h, D=h.D, dummy_count=d), h))
    return cases


_ORACLE_CASES = _oracle_cases()


@pytest.mark.parametrize("k", range(len(_ORACLE_CASES)))
def test_best_convenient_matches_reference(k):
    cert, h = _ORACLE_CASES[k]
    assert solvers._best_convenient(cert, h) == \
        _best_convenient_reference(cert, h)


def test_best_convenient_scores_in_blocks(monkeypatch):
    cert, h = _ORACLE_CASES[-1]             # the triangle's n=3 chain
    want = _best_convenient_reference(cert, h)
    for cells in (1, 40, 500):
        monkeypatch.setattr(solvers, "_PHI_CELLS", cells)
        assert solvers._best_convenient(cert, h) == want


@pytest.mark.parametrize("k", [1, 17, len(_ORACLE_CASES) - 1])
def test_best_convenient_names_the_first_wrong_phi(k, monkeypatch):
    # One edge of the grid, dropped from the blocks the closed form reads
    # (in one direction): the closed form is off by one wherever phi
    # picks both of its ends.
    cert, h = _ORACLE_CASES[k]
    i, j, k, l = np.argwhere(_dense_blocks(h)[2])[0]
    tampered = h.block(i, k).copy()
    tampered[j, l] = False
    block = h.block
    monkeypatch.setattr(h, "block", lambda a, b: tampered if (a, b) == (i, k)
                        else block(a, b))
    messages = []
    for oracle in (solvers._best_convenient, _best_convenient_reference):
        with pytest.raises(InternalConsistencyError) as exc:
            oracle(cert, h)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    assert "evaluator says" in messages[0]


def test_dp3_checks_constraint_lengths_not_the_header():
    # The header claims arity 3; the 4-element constraint must not be
    # scored as if it had three.
    inst = PermCspInstance(4, ((1, 2, 3, 4), (4, 1)), 3)
    with pytest.raises(UnsupportedArityError):
        solve_dp3(inst)
