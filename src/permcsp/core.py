"""Core types for Permutation CSP: instances, orderings, the evaluator,
and the simple graphs of the reduction chain.

An instance is a set of variables 1..num_vars together with a multiset of
ordered constraints.  A constraint (v1, v2, ..., vk) is satisfied by an
ordering pi exactly when pi(v1) < pi(v2) < ... < pi(vk).  Everything else
in the package is ultimately tested against :func:`evaluate`.
"""

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Sequence, Tuple

import numpy as np


class PermCspError(Exception):
    """Base class for errors raised by this package."""


class InvalidInputError(PermCspError, ValueError):
    """An argument violates a documented precondition."""


class SizeLimitError(PermCspError):
    """An instance exceeds a configured size guard."""


class UnsupportedArityError(PermCspError):
    """A solver was asked to handle an arity outside its dichotomy range."""


class InternalConsistencyError(PermCspError):
    """Two routes that must agree (closed form vs. evaluator) disagreed.

    Raising this signals an implementation bug, never bad user input.
    """


# A constraint is just an ordered tuple of distinct 1-based variable ids.
Constraint = Tuple[int, ...]


@dataclass(frozen=True)
class PermCspInstance:
    """A Permutation CSP instance.

    Variables are the integers 1..num_vars.  ``constraints`` is a tuple of
    constraints; duplicates are allowed and count multiply.  ``arity``
    bounds the constraint length.  Construction refuses a negative
    variable count and a constraint that is not 1..arity distinct
    variables within 1..num_vars, so code that takes an instance need not
    check for them.
    """

    num_vars: int
    constraints: Tuple[Constraint, ...]
    arity: int

    def __post_init__(self):
        fault = self.misfit(self.num_vars, self.constraints, self.arity)
        if fault is not None:
            k, expected = fault
            raise InvalidInputError("%s: expected %s" % (
                "instance" if k is None
                else "constraint %r" % (self.constraints[k],), expected))

    @staticmethod
    def misfit(num_vars: int, constraints: Sequence[Sequence[int]],
               arity: int):
        """(k, what was expected) for the first of ``constraints`` that is
        not 1..arity distinct variables within 1..num_vars (k None: a
        negative count, checked after the constraints, as the pcsp reader
        names a line's fault before the header's), or None."""
        for k, c in enumerate(constraints):
            if not 1 <= len(set(c)) == len(c) <= arity:
                return k, "1..%d distinct variables" % arity
            if min(c) < 1 or max(c) > num_vars:
                return k, "indices within 1..%d" % num_vars
        if num_vars < 0:
            return None, "a variable count >= 0"
        return None

    @classmethod
    def make(cls, num_vars: int, constraints: Iterable[Sequence[int]]) -> "PermCspInstance":
        """Build an instance, deriving the arity from the constraints."""
        cons = tuple(tuple(c) for c in constraints)
        arity = max((len(c) for c in cons), default=1)
        return cls(num_vars=num_vars, constraints=cons, arity=arity)


@dataclass(frozen=True)
class Ordering:
    """A bijection from variables to positions 1..num_vars.

    ``positions[v-1]`` is the position of variable v.
    """

    positions: Tuple[int, ...]

    def __post_init__(self):
        n = len(self.positions)
        if sorted(self.positions) != list(range(1, n + 1)):
            raise InvalidInputError("positions must be a bijection onto 1..%d" % n)

    @classmethod
    def from_sequence(cls, seq: Sequence[int]) -> "Ordering":
        """Build an ordering from the variables listed in position order."""
        n = len(seq)
        positions = [0] * n
        for pos, v in enumerate(seq, start=1):
            if not 1 <= v <= n or positions[v - 1]:
                raise InvalidInputError("sequence is not a permutation of 1..%d" % n)
            positions[v - 1] = pos
        return cls(tuple(positions))

    def sequence(self) -> Tuple[int, ...]:
        """The variables in position order (inverse view of positions)."""
        seq = [0] * len(self.positions)
        for v, pos in enumerate(self.positions, start=1):
            seq[pos - 1] = v
        return tuple(seq)

    def position(self, v: int) -> int:
        return self.positions[v - 1]


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph on the vertices 1..num_vertices.

    Each edge is stored once, as (u, v) with u < v, and ``edge_list`` is
    sorted.  Construction refuses a negative vertex count, an endpoint
    outside 1..num_vertices, a self-loop and a repeated edge (in either
    orientation), so code that takes a Graph need not check for them.
    """

    num_vertices: int
    edge_list: Tuple[Tuple[int, int], ...] = ()
    _adj: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        edges = [tuple(e) for e in self.edge_list]
        fault = self.misfit(self.num_vertices, edges)
        if fault is not None:
            k, expected = fault
            raise InvalidInputError("%s: expected %s" % (
                "graph" if k is None else "edge %r" % (edges[k],), expected))
        edges = sorted((u, v) if u < v else (v, u) for u, v in edges)
        adj = [[] for _ in range(self.num_vertices + 1)]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        object.__setattr__(self, "edge_list", tuple(edges))
        object.__setattr__(self, "_adj", tuple(map(tuple, adj)))

    @staticmethod
    def misfit(num_vertices: int, edges: Sequence[Tuple[int, int]]):
        """(k, what was expected) for the first of ``edges`` unfit for a
        simple graph on 1..num_vertices (k None: a negative count), or None."""
        if num_vertices < 0:
            return None, "a vertex count >= 0"
        seen = set()
        for k, (u, v) in enumerate(edges):
            if not (1 <= u <= num_vertices and 1 <= v <= num_vertices):
                return k, "endpoints within 1..%d" % num_vertices
            if u == v:
                return k, "two distinct vertices"
            pair = (u, v) if u < v else (v, u)
            if pair in seen:
                return k, "an edge not listed before"
            seen.add(pair)
        return None

    def nodes(self) -> range:
        return range(1, self.num_vertices + 1)

    def edges(self) -> Tuple[Tuple[int, int], ...]:
        return self.edge_list

    def degree(self):
        """(v, degree of v) for every vertex v."""
        return [(v, len(self._adj[v])) for v in self.nodes()]

    def neighbors(self, v: int) -> Tuple[int, ...]:
        """The neighbors of vertex v, ascending."""
        return self._adj[v]


def evaluate(instance: PermCspInstance, ordering: Ordering) -> int:
    """Number of constraints whose variables appear in strictly increasing
    position order.  Pure; does not modify its inputs."""
    if len(ordering.positions) != instance.num_vars:
        raise InvalidInputError(
            "ordering has %d positions, instance has %d variables"
            % (len(ordering.positions), instance.num_vars)
        )
    pos = ordering.positions
    count = 0
    for c in instance.constraints:
        prev = 0
        for v in c:
            p = pos[v - 1]
            if p <= prev:
                break
            prev = p
        else:
            count += 1
    return count


_CELLS = 1 << 20     # (ordering, constraint) pairs scored at a time


def evaluate_many(instance: PermCspInstance, positions) -> np.ndarray:
    """:func:`evaluate` of many orderings at once.

    ``positions`` is a 2-D int array with one ordering per row, laid out
    as :attr:`Ordering.positions` (entry v-1 is the position of variable
    v).  Returns the satisfied count of each row.  Constraints are
    grouped by length and scored a column at a time, so duplicates count
    multiply and an arity-1 constraint always counts, as in
    :func:`evaluate`.
    """
    pos = np.asarray(positions)
    if pos.ndim != 2:
        raise InvalidInputError("positions must be a 2-D array")
    if pos.shape[1] != instance.num_vars:
        raise InvalidInputError(
            "orderings have %d positions, instance has %d variables"
            % (pos.shape[1], instance.num_vars))
    if (np.sort(pos, axis=1) != np.arange(1, pos.shape[1] + 1)).any():
        raise InvalidInputError("every row must be a bijection onto 1..%d"
                                % pos.shape[1])
    by_length = defaultdict(list)
    for c in instance.constraints:
        by_length[len(c)].append(c)
    groups = [np.array(cons) - 1 for cons in by_length.values()]
    counts = np.zeros(len(pos), dtype=np.int64)
    step = max(1, _CELLS // max(1, len(instance.constraints)))
    for lo in range(0, len(pos), step):
        # [variable, row], in the smallest dtype that holds a position
        block = pos[lo:lo + step].T.astype(np.min_scalar_type(pos.shape[1]),
                                           order="C")
        for cols in groups:
            held = np.ones((len(cols), block.shape[1]), dtype=bool)
            prev = block[cols[:, 0]]
            for t in range(1, cols.shape[1]):
                cur = block[cols[:, t]]
                held &= prev < cur
                prev = cur
            counts[lo:lo + step] += held.sum(axis=0)
    return counts
