"""The arity dichotomy in action.

Arity <= 3 instances have an O*(2^n) subset DP; arity >= 4 instances do
not (the solvers refuse, and only brute force remains at desk scale).
This script builds a few small instances and shows the solvers agreeing
with each other and with the evaluator, then shows the size gap: the DP
solves 20 variables through 2^20 subsets, where brute force would need
20! orderings.

Run:  python3 demos/dichotomy.py
"""

import math
import random

from permcsp.core import PermCspInstance, evaluate
from permcsp.solvers import solve_brute, solve_dp3
from permcsp.core import UnsupportedArityError


def main():
    print("-- a contradictory pair of triples --")
    inst = PermCspInstance.make(3, [(1, 2, 3), (1, 3, 2)])
    dp = solve_dp3(inst)
    br = solve_brute(inst)
    print("dp3  : optimum %d, witness %s" % (dp.optimum,
                                             dp.witness.sequence()))
    print("brute: optimum %d, witness %s" % (br.optimum,
                                             br.witness.sequence()))
    assert dp.optimum == br.optimum == 1

    print("\n-- 20 random instances, n in [5, 8] --")
    rng = random.Random(1)
    for k in range(20):
        n = rng.randint(5, 8)
        cons = [tuple(rng.sample(range(1, n + 1), rng.randint(1, 3)))
                for _ in range(rng.randint(1, 8))]
        inst = PermCspInstance.make(n, cons)
        dp = solve_dp3(inst)
        br = solve_brute(inst)
        assert dp.optimum == br.optimum
        assert evaluate(inst, dp.witness) == dp.optimum
        print("  n=%d, %2d constraints -> optimum %d (dp3 == brute)"
              % (n, len(cons), dp.optimum))

    print("\n-- the size gap --")
    rng = random.Random(20)
    n = 20
    big = PermCspInstance.make(n, [tuple(rng.sample(range(1, n + 1),
                                                    rng.randint(2, 3)))
                                   for _ in range(3 * n)])
    dp = solve_dp3(big)
    assert evaluate(big, dp.witness) == dp.optimum
    print("dp3  : n=%d, %d constraints -> optimum %d, %d subset states "
          "visited (2^%d)" % (n, len(big.constraints), dp.optimum,
                              dp.nodes_explored, n))
    print("brute: would enumerate %d! = %d orderings"
          % (n, math.factorial(n)))

    print("\n-- the other side of the dichotomy --")
    hard = PermCspInstance.make(4, [(1, 2, 3, 4)])
    try:
        solve_dp3(hard)
    except UnsupportedArityError as exc:
        print("dp3 refuses arity 4: %s" % exc)


if __name__ == "__main__":
    main()
