"""Walk the whole reduction chain on a tiny formula.

    sparse CNF -> bounded-degree 3-coloring -> grid clique
               -> grid biclique -> arity-4 Permutation CSP

Every hop is cross-checked with the matching oracle, and the final
certificate's target is compared against the convenient-ordering
optimum.  A triangle graph is used as the coloring source so the grids
stay tiny (3 x 3) and the final instance is printable.

Run:  python3 demos/reduction_chain.py
"""

from permcsp import validate
from permcsp.core import Graph
from permcsp.reductions import (
    CnfFormula,
    reduce_coloring_to_dcnnc,
    reduce_dcnnb_to_perm4,
    reduce_dcnnc_to_dcnnb,
    reduce_sat_to_coloring,
    sufficient_dummies_perm4,
)
from permcsp.solvers import (
    solve_3coloring,
    solve_convenient,
    solve_row_biclique,
    solve_row_clique,
    solve_sat,
)


def main():
    print("-- CNF to coloring --")
    cnf = CnfFormula(2, ((1, -2), (-1, 2)))
    sat = solve_sat(cnf)
    print("formula satisfiable:", sat is not None)
    g, bound = reduce_sat_to_coloring(cnf)
    col = solve_3coloring(g)
    print("coloring graph: %d vertices, %d edges, degree bound %d, "
          "3-colorable: %s" % (g.num_vertices, len(g.edges()),
                               bound, col is not None))
    assert (sat is None) == (col is None)

    print("\n-- triangle to grid clique (kept tiny on purpose) --")
    tri = Graph(3, [(1, 2), (2, 3), (1, 3)])
    grid = reduce_coloring_to_dcnnc(tri, degree_bound=2)
    print("grid: side %d, %d edges, D=%d" % (grid.side, grid.num_edges(),
                                             grid.D))
    sel = solve_row_clique(grid)
    print("row-transversal clique:", sel.choice)
    back = validate.map_selection_to_coloring(sel, grid)
    print("mapped back to a proper coloring:",
          all(back[u] != back[v] for u, v in tri.edges()))

    print("\n-- doubling to a biclique --")
    h = reduce_dcnnc_to_dcnnb(grid)
    print("biclique grid: side %d, %d edges, D=%d" % (h.side, h.num_edges(),
                                                      h.D))
    bsel = solve_row_biclique(h)
    print("row-transversal K_{n,n}:", bsel.choice)

    print("\n-- arity-4 certificate --")
    n = h.side // 2
    d = sufficient_dummies_perm4(n, h.D, h.num_edges())
    cert = reduce_dcnnb_to_perm4(h, dummy_count=d)
    print("instance: %d variables, %d constraints, target %d"
          % (cert.instance.num_vars, len(cert.instance.constraints),
             cert.target))
    result = solve_convenient(cert, h)
    print("convenient-ordering optimum: %d -> %s" %
          (result.optimum,
           "MEETS TARGET" if result.optimum >= cert.target
           else "BELOW TARGET"))
    assert (result.optimum >= cert.target) == (bsel is not None)


if __name__ == "__main__":
    main()
