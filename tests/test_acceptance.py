"""Acceptance gate: ten cross-checked criteria, one pass/fail line each.

Every criterion compares the implementation against an independent
oracle (exhaustive search, a closed form, or a second solver); none of
them trusts the code path it is exercising.  Run with plain pytest; the
per-criterion verdict lines are printed unconditionally.
"""

import itertools
import os
import random
import sys
import time
from math import comb

import numpy as np
import pytest

from conftest import (
    all_cross_row_edges,
    cross_edges_among,
    edges_among,
    grid_from_edges,
)
from permcsp import cli, formats, validate
from permcsp.core import Graph, Ordering, PermCspInstance, evaluate
from permcsp.reductions import (
    CnfFormula,
    GridGraph,
    coloring_grid_digits,
    reduce_clique_to_perm6,
    reduce_coloring_to_dcnnc,
    reduce_dcnnb_to_perm4,
    reduce_dcnnc_to_dcnnb,
    reduce_sat_to_coloring,
    sufficient_dummies_perm4,
    sufficient_dummies_perm6,
    ternary_gray,
)
from permcsp.solvers import (
    RowSelection,
    solve_3coloring,
    solve_brute,
    solve_convenient,
    solve_dp3,
    solve_row_biclique,
    solve_row_clique,
    solve_sat,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "chain-n1-perm4.pcsp")


def _announce(capsys, label, ok, start):
    with capsys.disabled():
        print("criterion %s: %s (%.1fs)"
              % (label, "PASS" if ok else "FAIL", time.time() - start))
    assert ok, "criterion %s failed" % label


def test_criterion_1_dichotomy_solver_equivalence(capsys):
    start = time.time()
    ok = True
    # Exhaustive: every instance on 4 variables with at most 3 distinct
    # constraints of arity <= 3.
    pool = []
    for arity in (1, 2, 3):
        pool.extend(itertools.permutations(range(1, 5), arity))
    assert len(pool) == 40
    suites = [()]
    for k in (1, 2, 3):
        suites.extend(itertools.combinations(pool, k))
    for cons in suites:
        inst = PermCspInstance.make(4, cons)
        d = solve_dp3(inst)
        b = solve_brute(inst)
        if d.optimum != b.optimum \
                or evaluate(inst, d.witness) != d.optimum \
                or evaluate(inst, b.witness) != b.optimum:
            ok = False
            break
    # Randomized: 200 seeded instances, n in [5, 8].
    rng = random.Random(20240917)
    for _ in range(200 if ok else 0):
        n = rng.randint(5, 8)
        cons = [tuple(rng.sample(range(1, n + 1), rng.randint(1, 3)))
                for _ in range(rng.randint(0, 10))]
        inst = PermCspInstance.make(n, cons)
        d = solve_dp3(inst)
        b = solve_brute(inst)
        if d.optimum != b.optimum \
                or evaluate(inst, d.witness) != d.optimum \
                or evaluate(inst, b.witness) != b.optimum:
            ok = False
            break
    _announce(capsys, "1 dichotomy solver equivalence", ok, start)


def test_criterion_2_gray_code(capsys):
    start = time.time()
    ok = True
    for x in range(1, 9):
        words = ternary_gray(x).words
        if len(words) != 3 ** x or len(set(words)) != 3 ** x:
            ok = False
        for a, b in zip(words, words[1:]):
            if sum(1 for u, v in zip(a, b) if u != v) != 1:
                ok = False
    _announce(capsys, "2 ternary Gray code", ok, start)


def test_criterion_3_perm6_iff_exhaustive_tiny(capsys):
    start = time.time()
    ok = True
    d = sufficient_dummies_perm6(2)
    assert d == 6
    target = validate.target_perm6(2, d)
    pool = all_cross_row_edges(2)
    assert len(pool) == 4
    threads = min(4, os.cpu_count() or 1)
    for k in range(len(pool) + 1):
        for edges in itertools.combinations(pool, k):
            g = grid_from_edges(2, edges)
            cert = reduce_clique_to_perm6(g, dummy_count=d)
            assert cert.instance.num_vars == 11
            res = solve_brute(cert.instance, limit=11, threads=threads)
            sel = solve_row_clique(g)
            if sel is not None:
                if res.optimum != target:
                    ok = False
            else:
                if res.optimum >= target:
                    ok = False
            if evaluate(cert.instance, res.witness) != res.optimum:
                ok = False
    _announce(capsys, "3 arity-6 iff over all 16 tiny graphs", ok, start)


def test_criterion_4_perm6_iff_n3_oracle(capsys):
    start = time.time()
    ok = True
    d = sufficient_dummies_perm6(3)
    assert d == 8
    target = validate.target_perm6(3, d)
    structural = comb(d, 4) * comb(4, 2) + 3
    pool = all_cross_row_edges(3)
    rng = random.Random(41)
    for _ in range(50):
        edges = rng.sample(pool, rng.randint(0, len(pool)))
        g = grid_from_edges(3, edges)
        cert = reduce_clique_to_perm6(g, dummy_count=d)
        best, best_sel = -1, None
        for choice in itertools.product((1, 2, 3), repeat=3):
            sel = RowSelection(choice)
            count = structural + edges_among(g, sel.vertices())
            if count > best:
                best, best_sel = count, sel
        sel = solve_row_clique(g)
        if (best >= target) != (sel is not None):
            ok = False
        ordering = validate.map_selection_to_ordering(best_sel, cert)
        if evaluate(cert.instance, ordering) != best:
            ok = False
    _announce(capsys, "4 arity-6 iff on 50 random 3x3 graphs", ok, start)


def _condition_satisfying_bicliques():
    """H grids covering n in {1, 2} and D in {1, 2}: chain outputs via
    doubling plus handcrafted grids that satisfy (A)/(B)/(C) directly."""
    out = []
    # Chain: doubling of tiny clique grids.
    h = reduce_dcnnc_to_dcnnb(GridGraph(1, D=1))
    out.append((h, 1))
    out.append((h, 2))        # stability is vacuous at n=1
    matching = grid_from_edges(2, [((1, 1), (2, 1)), ((1, 2), (2, 2))], D=1)
    out.append((reduce_dcnnc_to_dcnnb(matching), None))
    full = grid_from_edges(2, all_cross_row_edges(2), D=2)
    out.append((reduce_dcnnc_to_dcnnb(full), None))
    # Handcrafted: diagonal pairing only, and the complete cross.
    diag = grid_from_edges(4, [((i, j), (2 + i, 2 + j))
                               for i in (1, 2) for j in (1, 2)],
                           kind="biclique", D=1)
    out.append((diag, 1))
    out.append((diag, 2))
    complete = grid_from_edges(
        4, [((i, j), (2 + ip, 2 + jp)) for i in (1, 2) for j in (1, 2)
            for ip in (1, 2) for jp in (1, 2)], kind="biclique", D=2)
    out.append((complete, 2))
    return out


def test_criterion_5_perm4_count_identity(capsys):
    start = time.time()
    ok = True
    rng = random.Random(5150)
    seen = set()
    for h, D in _condition_satisfying_bicliques():
        if D is None:
            D = h.D
        n = h.side // 2
        seen.add((n, D))
        d = sufficient_dummies_perm4(n, D, h.num_edges())
        cert = reduce_dcnnb_to_perm4(h, D=D, dummy_count=d)
        structural = comb(d, 2) * comb(2 * n + 1, 2)
        for _ in range(100):
            choice = tuple(rng.randint(1, n) for _ in range(n)) + \
                tuple(rng.randint(n + 1, 2 * n) for _ in range(n))
            sel = RowSelection(choice)
            ordering = validate.map_selection_to_ordering(sel, cert)
            want = structural + (n + 2) * cert.delta_sum \
                + cross_edges_among(h, sel)
            if evaluate(cert.instance, ordering) != want:
                ok = False
    if not {(1, 1), (1, 2), (2, 1), (2, 2)} <= seen:
        ok = False
    # Extra case beyond the n <= 2 sweep: the smallest reduction-chain H
    # (triangle -> coloring grid -> doubling) at n = 3.
    grid = reduce_coloring_to_dcnnc(Graph(3, [(1, 2), (2, 3), (1, 3)]),
                                    degree_bound=2)
    h = reduce_dcnnc_to_dcnnb(grid)
    n, D = h.side // 2, h.D
    d = sufficient_dummies_perm4(n, D, h.num_edges())
    cert = reduce_dcnnb_to_perm4(h, D=D, dummy_count=d)
    structural = comb(d, 2) * comb(2 * n + 1, 2)
    for _ in range(100):
        choice = tuple(rng.randint(1, n) for _ in range(n)) + \
            tuple(rng.randint(n + 1, 2 * n) for _ in range(n))
        sel = RowSelection(choice)
        ordering = validate.map_selection_to_ordering(sel, cert)
        want = structural + (n + 2) * cert.delta_sum \
            + cross_edges_among(h, sel)
        if evaluate(cert.instance, ordering) != want:
            ok = False
    _announce(capsys, "5 arity-4 count identity (100 phi per grid)", ok, start)


def test_criterion_6_perm4_tiny_full_optimality(capsys):
    start = time.time()
    ok = True
    # Edgeless H: no transversal pairing, the optimum must miss the target.
    edgeless = GridGraph(2, kind="biclique", D=1)
    # Chain H: the diagonal pairing edge makes (1, 2) a K_{1,1}.
    chain = reduce_dcnnc_to_dcnnb(GridGraph(1, D=1))
    for h, expect_meets in [(edgeless, False), (chain, True)]:
        d = sufficient_dummies_perm4(1, 1, h.num_edges())
        cert = reduce_dcnnb_to_perm4(h, D=1, dummy_count=d)
        assert cert.instance.num_vars <= 10
        brute = solve_brute(cert.instance, limit=10)
        conv = solve_convenient(cert, h)
        sel = solve_row_biclique(h)
        if brute.optimum != conv.optimum:
            ok = False
        if (brute.optimum >= cert.target) != expect_meets:
            ok = False
        if (sel is not None) != expect_meets:
            ok = False
    _announce(capsys, "6 arity-4 tiny global optimality", ok, start)


def _chain_cnfs():
    """Twenty seeded formulas plus one handcrafted unsatisfiable one."""
    from permcsp.core import InvalidInputError
    cnfs = []
    rng = random.Random(7777)
    k = 0
    while len(cnfs) < 19:
        k += 1
        nv = rng.randint(2, 6)
        m = rng.randint(1, min(nv, 4))
        try:
            cnfs.append(cli.gen_sat(nv, m, 3, seed=1000 + k))
        except InvalidInputError:
            pass        # tight parameter draw exhausted the slots; redraw
    cnfs.append(CnfFormula(2, ((1, 2), (1, -2), (-1, 2), (-1, -2)),
                           freq_bound=4))
    return cnfs


def test_criterion_7_end_to_end_chain(capsys):
    start = time.time()
    ok = True
    saw_unsat = False
    for cnf in _chain_cnfs():
        sat = solve_sat(cnf)
        saw_unsat |= sat is None
        g, bound = reduce_sat_to_coloring(cnf)
        if max(d for _, d in g.degree()) > max(cnf.freq_bound + 2, 5):
            ok = False
        col = solve_3coloring(g)
        if (sat is None) != (col is None):
            ok = False
        grid = reduce_coloring_to_dcnnc(g, degree_bound=bound)
        reg, _ = validate.check_regularity(grid)
        stab, _ = validate.check_stability(grid, grid.D)
        if not (reg.holds and stab.holds):
            ok = False
        sel = solve_row_clique(grid)
        if (col is None) != (sel is None):
            ok = False
        if col is not None:
            # Forward witness: the mapped coloring must be a transversal
            # clique accepted by the grid level.
            mapped = validate.map_coloring_to_selection(col, grid)
            vs = mapped.vertices()
            if not all(grid.has_edge(a, b)
                       for a, b in itertools.combinations(vs, 2)):
                ok = False
        h = reduce_dcnnc_to_dcnnb(grid)
        if not validate.check_biclique_structure(h).holds:
            ok = False
        reg, _ = validate.check_regularity(h)
        stab, _ = validate.check_stability(h, h.D)
        if not (reg.holds and stab.holds):
            ok = False
        bsel = solve_row_biclique(h)
        if (sel is None) != (bsel is None):
            ok = False
        if sel is not None:
            doubled = validate.map_clique_to_biclique(sel)
            n = grid.side
            for i in range(1, n + 1):
                for ip in range(1, n + 1):
                    if not h.has_edge((i, doubled.choice[i - 1]),
                                      (n + ip, doubled.choice[n + ip - 1])):
                        ok = False
        if not ok:
            break
    ok = ok and saw_unsat
    _announce(capsys, "7 end-to-end chain on 20 CNFs", ok, start)


def test_criterion_7b_243_row_chain_in_block_storage(capsys):
    # A 10-variable CNF needs x = 5 digits: a 243-row clique grid and a
    # 486-row biclique grid, 3.5 GB each as dense matrices.  Stored by
    # row pair, the whole chain (both grids, all three checks and both
    # row searches) stays far below that.
    import tracemalloc

    start = time.time()
    cnf = cli.gen_sat(10, 10, 3, seed=1)
    tracemalloc.start()
    try:
        sat = solve_sat(cnf)
        g, bound = reduce_sat_to_coloring(cnf)
        grid = reduce_coloring_to_dcnnc(g, degree_bound=bound, row_cap=243)
        h = reduce_dcnnc_to_dcnnb(grid)
        checks = [validate.check_biclique_structure(h)]
        for x in (grid, h):
            checks += [validate.check_regularity(x)[0],
                       validate.check_stability(x, x.D)[0]]
        sel, bsel = solve_row_clique(grid), solve_row_biclique(h)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    ok = (g.num_vertices == 263 and grid.meta["x"] == 5
          and (grid.side, h.side) == (243, 486)
          and all(report.holds for report in checks)
          and (sat is None) == (sel is None) == (bsel is None)
          and peak < 200 * 2 ** 20)
    if sel is not None:
        vs = sel.vertices()
        ok = ok and all(grid.has_edge(a, b)
                        for a, b in itertools.combinations(vs, 2))
        ok = ok and all(h.has_edge(a, b) for a in bsel.vertices()[:243]
                        for b in bsel.vertices()[243:])
    _announce(capsys, "7b 243-row chain, peak %.0f MB" % (peak / 2 ** 20),
              ok, start)


def test_criterion_8_size_formulas(capsys):
    start = time.time()
    ok = True
    rng = random.Random(88)
    for n in (2, 3):
        edges = rng.sample(all_cross_row_edges(n), n)
        g = grid_from_edges(n, edges)
        cert = reduce_clique_to_perm6(g)          # paper-default dummies
        if cert.instance.num_vars != 4 * n + 1:
            ok = False
        structural = comb(2 * n, 4) * comb(n + 1, 2) + n
        if len(cert.instance.constraints) - structural != g.num_edges():
            ok = False
    matching = grid_from_edges(2, [((1, 1), (2, 1)), ((1, 2), (2, 2))], D=1)
    for h in [reduce_dcnnc_to_dcnnb(GridGraph(1, D=1)),
              reduce_dcnnc_to_dcnnb(matching)]:
        n, D = h.side // 2, h.D
        cert = reduce_dcnnb_to_perm4(h)           # paper-default dummies
        if cert.instance.num_vars != (2 * D + 4) * n + 1:
            ok = False
        structural = comb(2 * D * n, 2) * comb(2 * n + 1, 2)
        if len(cert.instance.constraints) - structural != 4 * h.num_edges():
            ok = False
    _announce(capsys, "8 certificate size formulas", ok, start)


def test_criterion_9_parameter_formula(capsys):
    start = time.time()
    x = coloring_grid_digits(100, 4)
    ok = x == 4 and 3 ** x == 81 and 100 < x * 3 ** x < 4 * 100
    _announce(capsys, "9 grid parameter formula", ok, start)


def test_criterion_10_round_trips_and_golden(capsys):
    start = time.time()
    ok = True
    # Round trips on one artifact of every format.
    cnf = CnfFormula(3, ((1, -2, 3), (-1,)))
    ok &= formats.read_dimacs(formats.write_dimacs(cnf)) == cnf
    g = Graph(3, [(1, 3)])
    ok &= formats.write_graph(formats.read_graph(formats.write_graph(g))) \
        == formats.write_graph(g)
    grid = grid_from_edges(2, [((1, 1), (2, 2))], D=1)
    ok &= formats.write_grid(formats.read_grid(formats.write_grid(grid))) \
        == formats.write_grid(grid)
    inst = PermCspInstance.make(3, [(1, 2, 3)])
    ok &= formats.read_instance(formats.write_instance(inst)) == inst
    o = Ordering.from_sequence((3, 1, 2))
    ok &= formats.read_ordering(formats.write_ordering(o)) == o
    # Golden certificate: regenerate the n=1 chain twice, byte-compare.
    with open(GOLDEN) as fh:
        golden = fh.read()
    texts = []
    for _ in range(2):
        h = reduce_dcnnc_to_dcnnb(GridGraph(1, D=1))
        d = sufficient_dummies_perm4(1, h.D, h.num_edges())
        cert = reduce_dcnnb_to_perm4(h, dummy_count=d)
        texts.append(formats.write_certificate(cert))
    ok &= texts[0] == golden and texts[1] == golden
    ok &= formats.write_certificate(formats.read_certificate(golden)) == golden
    # Thread count must not change any solver output byte.
    cert = formats.read_certificate(golden)
    r1 = solve_brute(cert.instance, threads=1)
    r2 = solve_brute(cert.instance, threads=3)
    ok &= r1.optimum == r2.optimum and r1.witness == r2.witness
    _announce(capsys, "10 format round-trips and golden certificate",
              ok, start)
