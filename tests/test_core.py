"""Instances, orderings, the evaluator, and graphs."""

import random
import re

import numpy as np
import pytest

from permcsp.core import (
    Graph,
    InvalidInputError,
    Ordering,
    PermCspInstance,
    evaluate,
    evaluate_many,
)


def test_make_derives_arity():
    inst = PermCspInstance.make(4, [(1, 2), (1, 2, 3)])
    assert inst.arity == 3
    assert inst.num_vars == 4
    assert inst.constraints == ((1, 2), (1, 2, 3))


def test_make_empty_instance():
    inst = PermCspInstance.make(3, [])
    assert inst.arity == 1
    assert inst.constraints == ()


def test_ordering_round_trip():
    o = Ordering.from_sequence((3, 1, 2))
    assert o.sequence() == (3, 1, 2)
    assert o.position(3) == 1
    assert o.position(1) == 2
    assert o.position(2) == 3


def test_ordering_rejects_non_permutation():
    with pytest.raises(InvalidInputError):
        Ordering.from_sequence((1, 1, 2))
    with pytest.raises(InvalidInputError):
        Ordering.from_sequence((1, 2, 4))
    with pytest.raises(InvalidInputError):
        Ordering((1, 1, 2))


def test_evaluate_empty_constraint_set():
    inst = PermCspInstance.make(3, [])
    assert evaluate(inst, Ordering.from_sequence((2, 3, 1))) == 0


def test_evaluate_pair_both_directions():
    inst = PermCspInstance.make(2, [(1, 2)])
    assert evaluate(inst, Ordering((1, 2))) == 1
    assert evaluate(inst, Ordering((2, 1))) == 0


def test_evaluate_three_variable_example():
    # pi(1)=1, pi(3)=2, pi(2)=3: only (1, 3) is increasing.
    inst = PermCspInstance.make(3, [(1, 2, 3), (3, 2, 1), (1, 3)])
    ordering = Ordering.from_sequence((1, 3, 2))
    assert evaluate(inst, ordering) == 1


def test_evaluate_relabeling_invariance():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(2, 6)
        cons = [tuple(rng.sample(range(1, n + 1), rng.randint(1, min(3, n))))
                for _ in range(rng.randint(1, 4))]
        inst = PermCspInstance.make(n, cons)
        seq = list(range(1, n + 1))
        rng.shuffle(seq)
        ordering = Ordering.from_sequence(seq)
        sigma = list(range(1, n + 1))
        rng.shuffle(sigma)
        relabeled = PermCspInstance.make(
            n, [tuple(sigma[v - 1] for v in c) for c in cons])
        reordered = Ordering.from_sequence(tuple(sigma[v - 1] for v in seq))
        assert evaluate(inst, ordering) == evaluate(relabeled, reordered)


def test_evaluate_duplicates_count_multiply():
    inst = PermCspInstance.make(2, [(1, 2), (1, 2)])
    assert evaluate(inst, Ordering.from_sequence((1, 2))) == 2
    assert evaluate(inst, Ordering.from_sequence((2, 1))) == 0


def test_evaluate_singleton_always_satisfied():
    inst = PermCspInstance.make(2, [(1,), (2,)])
    for seq in [(1, 2), (2, 1)]:
        assert evaluate(inst, Ordering.from_sequence(seq)) == 2


def test_evaluate_rejects_size_mismatch():
    inst = PermCspInstance.make(3, [(1, 2)])
    with pytest.raises(InvalidInputError):
        evaluate(inst, Ordering.from_sequence((1, 2)))


def test_evaluate_agrees_with_definition_randomly():
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randint(1, 6)
        cons = []
        for _ in range(rng.randint(0, 5)):
            k = rng.randint(1, min(4, n))
            cons.append(tuple(rng.sample(range(1, n + 1), k)))
        inst = PermCspInstance.make(n, cons)
        seq = list(range(1, n + 1))
        rng.shuffle(seq)
        ordering = Ordering.from_sequence(seq)
        want = 0
        for c in cons:
            pos = [ordering.position(v) for v in c]
            if all(a < b for a, b in zip(pos, pos[1:])):
                want += 1
        assert evaluate(inst, ordering) == want


@pytest.mark.parametrize("seed", range(6))
def test_evaluate_many_agrees_with_evaluate(seed):
    # Arity 1..6, duplicate constraints, an empty constraint set and n=1.
    rng = random.Random(700 + seed)
    for trial in range(40):
        n = 1 if trial == 0 else rng.randint(1, 9)
        cons = [tuple(rng.sample(range(1, n + 1), rng.randint(1, min(6, n))))
                for _ in range(0 if trial == 1 else rng.randint(0, 30))]
        cons += rng.sample(cons, min(len(cons), 3))           # duplicates
        inst = PermCspInstance.make(n, cons)
        orderings = [Ordering.from_sequence(rng.sample(range(1, n + 1), n))
                     for _ in range(rng.randint(1, 12))]
        got = evaluate_many(inst, np.array([o.positions for o in orderings]))
        assert got.tolist() == [evaluate(inst, o) for o in orderings]


def test_evaluate_many_scores_in_blocks(monkeypatch):
    from permcsp import core
    monkeypatch.setattr(core, "_CELLS", 5)
    rng = random.Random(3)
    inst = PermCspInstance.make(6, [tuple(rng.sample(range(1, 7), 3))
                                    for _ in range(4)])
    orderings = [Ordering.from_sequence(rng.sample(range(1, 7), 6))
                 for _ in range(9)]
    got = evaluate_many(inst, [o.positions for o in orderings])
    assert got.tolist() == [evaluate(inst, o) for o in orderings]


def test_evaluate_many_refuses_what_evaluate_refuses():
    inst = PermCspInstance.make(3, [(1, 2)])
    with pytest.raises(InvalidInputError, match="2 positions, instance has 3"):
        evaluate_many(inst, np.array([[1, 2]]))
    with pytest.raises(InvalidInputError, match="2-D"):
        evaluate_many(inst, np.array([1, 2, 3]))
    with pytest.raises(InvalidInputError, match="bijection"):
        evaluate_many(inst, np.array([[1, 2, 3], [1, 1, 3]]))


def test_validate_instance_clean():
    assert PermCspInstance.misfit(3, [(1, 2, 3), (2, 1)], 3) is None
    # Duplicate constraints are legal: they count multiply.  So are
    # arity-1 constraints and an arity above the longest constraint.
    inst = PermCspInstance(2, ((1, 2), (1, 2), (2,)), 4)
    assert inst.constraints == ((1, 2), (1, 2), (2,))


def test_validate_instance_reports_breaches():
    # Each of these constraints is refused on its own; the first names
    # the instance's fault.
    cons = ((1, 1), (1, 5), (1, 2, 2))
    with pytest.raises(InvalidInputError, match=r"constraint \(1, 1\)"):
        PermCspInstance(2, cons, 2)
    for k in range(len(cons)):
        assert PermCspInstance.misfit(2, cons[k:], 2)[0] == 0
    assert PermCspInstance.misfit(2, cons[1:2], 2)[1] == "indices within 1..2"
    assert PermCspInstance.misfit(2, cons[2:], 2)[1] == ("1..2 distinct "
                                                          "variables")


def test_validate_instance_bad_num_vars():
    # Zero variables is an instance (with no constraints); fewer is not.
    assert PermCspInstance(0, (), 1).num_vars == 0
    with pytest.raises(InvalidInputError,
                       match="instance: expected a variable count >= 0"):
        PermCspInstance(-1, (), 1)


@pytest.mark.parametrize("n, constraints, arity, k, expected", [
    (3, [(1, 2), (0, 3)], 2, 1, "indices within 1..3"),
    (3, [(-1, 2)], 2, 0, "indices within 1..3"),
    (3, [(1, 2), (2, 4)], 2, 1, "indices within 1..3"),
    (3, [(1, 2, 1)], 3, 0, "1..3 distinct variables"),
    (3, [(1,), ()], 2, 1, "1..2 distinct variables"),
    (4, [(1, 2), (1, 2, 3)], 2, 1, "1..2 distinct variables"),
    (-1, [], 1, None, "a variable count >= 0"),
], ids=["index-0", "negative-index", "index-above-n", "repeated-variable",
        "empty", "longer-than-arity", "negative-count"])
def test_instance_refuses_malformed_constraints(n, constraints, arity, k,
                                                expected):
    named = "instance" if k is None else re.escape(repr(constraints[k]))
    with pytest.raises(InvalidInputError,
                       match="%s: expected %s" % (named, re.escape(expected))):
        PermCspInstance(n, tuple(constraints), arity)
    assert PermCspInstance.misfit(n, constraints, arity) == (k, expected)


def test_graph_stores_each_edge_once_sorted():
    g = Graph(4, [(3, 1), (4, 2), (1, 2)])
    assert g.edges() == ((1, 2), (1, 3), (2, 4))
    assert g == Graph(4, [(1, 2), (1, 3), (2, 4)])
    assert list(g.nodes()) == [1, 2, 3, 4]
    assert g.degree() == [(1, 2), (2, 2), (3, 1), (4, 1)]
    assert g.neighbors(1) == (2, 3) and g.neighbors(4) == (2,)
    assert Graph(0).edges() == () and list(Graph(2).degree()) == [(1, 0),
                                                                 (2, 0)]


@pytest.mark.parametrize("n, edges, expected", [
    (-1, [(1, 2)], "graph: expected a vertex count >= 0"),
    (3, [(1, 2), (0, 3)], r"\(0, 3\): expected endpoints within 1..3"),
    (3, [(1, 4)], "endpoints within 1..3"),
    (3, [(2, 2)], "two distinct vertices"),
    (3, [(1, 2), (2, 3), (2, 1)], r"\(2, 1\): expected an edge not listed"),
])
def test_graph_refuses_what_is_not_simple(n, edges, expected):
    with pytest.raises(InvalidInputError, match=expected):
        Graph(n, edges)
    k, _ = Graph.misfit(n, edges)
    assert k == (len(edges) - 1 if n >= 0 else None)
