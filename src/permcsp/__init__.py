"""Exact solvers and hardness-reduction toolkit for Permutation CSP.

The package is organized as:

- :mod:`permcsp.core` -- instances, orderings, the constraint evaluator,
  simple graphs
- :mod:`permcsp.solvers` -- brute force, subset DP, DPLL, coloring and
  row-transversal clique/biclique search, convenient-ordering search
- :mod:`permcsp.reductions` -- the reduction chain
  3-SAT -> 3-Coloring -> degree-constrained n x n Clique -> 2n x 2n
  Biclique -> arity-4 Permutation CSP, plus the direct Clique -> arity-6
  reduction, ternary Gray codes and distance-3 partitions
- :mod:`permcsp.validate` -- condition checkers, closed-form counts,
  witness mappers between the levels of the chain
- :mod:`permcsp.formats` -- text formats for all artifact types
- :mod:`permcsp.cli` -- the ``permcsp`` command line front end
"""

from permcsp.core import (
    Constraint,
    Graph,
    Ordering,
    PermCspInstance,
    evaluate,
    InvalidInputError,
    InternalConsistencyError,
    SizeLimitError,
    UnsupportedArityError,
)

__all__ = [
    "Constraint",
    "Graph",
    "Ordering",
    "PermCspInstance",
    "evaluate",
    "InvalidInputError",
    "InternalConsistencyError",
    "SizeLimitError",
    "UnsupportedArityError",
]
