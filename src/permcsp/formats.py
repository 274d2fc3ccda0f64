"""Text formats for every artifact type.

All formats are LF-terminated ASCII with 1-based indices (internal
representations stay 0-based where convenient; the conversion lives
here).  Writers are canonical: the same value always produces the same
bytes, with edges sorted lexicographically and constraints kept in
generation order.  The grammars are documented in docs/formats.md.
"""

import io
from typing import List

import networkx as nx
import numpy as np

from permcsp.core import (
    InvalidInputError,
    Ordering,
    PermCspError,
    PermCspInstance,
    validate_instance,
)
from permcsp.reductions import CnfFormula, GridGraph, ReductionCertificate


class FormatError(PermCspError):
    """A parse failure, with enough position to point at the byte."""

    def __init__(self, line: int, offset: int, expected: str, found: str):
        self.line = line
        self.offset = offset
        self.expected = expected
        self.found = found
        super().__init__(
            "line %d (byte %d): expected %s, found %r"
            % (line, offset, expected, found)
        )


class _Lines:
    """Line iterator that tracks byte offsets for error reporting."""

    def __init__(self, text: str):
        self.raw = text.split("\n")
        self.offsets = []
        pos = 0
        for line in self.raw:
            self.offsets.append(pos)
            pos += len(line) + 1
        self.idx = 0

    def __iter__(self):
        return self

    def __next__(self):
        while self.idx < len(self.raw):
            i = self.idx
            self.idx += 1
            line = self.raw[i].strip()
            if line:
                return i + 1, self.offsets[i], line
        raise StopIteration

    def error(self, lineno: int, expected: str, found: str) -> FormatError:
        return FormatError(lineno, self.offsets[lineno - 1], expected, found)


def _ints(lines: "_Lines", lineno: int, tokens: List[str]) -> List[int]:
    out = []
    for tok in tokens:
        try:
            out.append(int(tok))
        except ValueError:
            raise lines.error(lineno, "an integer", tok)
    return out


# ---------------------------------------------------------------------------
# DIMACS CNF
# ---------------------------------------------------------------------------

def read_dimacs(text: str) -> CnfFormula:
    lines = _Lines(text)
    num_vars = num_clauses = None
    clauses = []
    pending: List[int] = []
    for lineno, _, line in lines:
        if line.startswith("c"):
            continue
        tokens = line.split()
        if tokens[0] == "p":
            if len(tokens) != 4 or tokens[1] != "cnf":
                raise lines.error(lineno, "header 'p cnf <vars> <clauses>'", line)
            num_vars, num_clauses = _ints(lines, lineno, tokens[2:])
            continue
        if num_vars is None:
            raise lines.error(lineno, "the 'p cnf' header first", line)
        for lit in _ints(lines, lineno, tokens):
            if lit == 0:
                clauses.append(tuple(pending))
                pending = []
            elif abs(lit) > num_vars:
                raise lines.error(lineno, "literal within 1..%d" % num_vars,
                                  str(lit))
            else:
                pending.append(lit)
    if num_vars is None:
        raise FormatError(1, 0, "a 'p cnf' header", "end of input")
    if pending:
        raise FormatError(len(lines.raw), lines.offsets[-1],
                          "clause terminated by 0", "end of input")
    if num_clauses is not None and len(clauses) != num_clauses:
        raise FormatError(len(lines.raw), lines.offsets[-1],
                          "%d clauses" % num_clauses, "%d clauses" % len(clauses))
    return CnfFormula(num_vars=num_vars, clauses=tuple(clauses))


def write_dimacs(cnf: CnfFormula) -> str:
    out = ["p cnf %d %d" % (cnf.num_vars, len(cnf.clauses))]
    out.extend(" ".join(str(l) for l in clause) + " 0" for clause in cnf.clauses)
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Simple graphs (DIMACS-style edge lists)
# ---------------------------------------------------------------------------

def read_graph(text: str) -> nx.Graph:
    lines = _Lines(text)
    g = None
    for lineno, _, line in lines:
        if line.startswith("c"):
            continue
        tokens = line.split()
        if tokens[0] == "p":
            if len(tokens) != 4 or tokens[1] != "edge":
                raise lines.error(lineno, "header 'p edge <vertices> <edges>'", line)
            n, _m = _ints(lines, lineno, tokens[2:])
            g = nx.Graph()
            g.add_nodes_from(range(1, n + 1))
            continue
        if g is None:
            raise lines.error(lineno, "the 'p edge' header first", line)
        if tokens[0] != "e" or len(tokens) != 3:
            raise lines.error(lineno, "edge line 'e <u> <v>'", line)
        u, v = _ints(lines, lineno, tokens[1:])
        if not (1 <= u <= g.number_of_nodes() and 1 <= v <= g.number_of_nodes()):
            raise lines.error(lineno, "endpoints within 1..%d" % g.number_of_nodes(),
                              line)
        g.add_edge(u, v)
    if g is None:
        raise FormatError(1, 0, "a 'p edge' header", "end of input")
    return g


def write_graph(g: nx.Graph) -> str:
    edges = sorted(tuple(sorted(e)) for e in g.edges())
    out = ["p edge %d %d" % (g.number_of_nodes(), len(edges))]
    out.extend("e %d %d" % e for e in edges)
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Grid graphs
# ---------------------------------------------------------------------------

def read_grid(text: str) -> GridGraph:
    """Parse a grid file.  Every edge line is range-, self-loop- and (on a
    biclique grid) placement-checked at once, on the whole edge array, when
    the edges are set; the first offending line is then named."""
    lines = _Lines(text)
    kind = "clique"
    side = D = None
    edges = []
    deltas = []
    for lineno, _, line in lines:
        tokens = line.split()
        if tokens[0] == "c":
            if len(tokens) == 3 and tokens[1] == "kind":
                if tokens[2] not in ("clique", "biclique"):
                    raise lines.error(lineno, "kind clique|biclique", tokens[2])
                kind = tokens[2]
            continue
        if tokens[0] == "p":
            if side is not None:
                raise lines.error(lineno, "one 'p grid' header", line)
            if len(tokens) not in (3, 4) or tokens[1] != "grid":
                raise lines.error(lineno, "header 'p grid <side> [D]'", line)
            vals = _ints(lines, lineno, tokens[2:])
            side = vals[0]
            D = vals[1] if len(vals) > 1 else None
            header = lineno, line
            continue
        if side is None:
            raise lines.error(lineno, "the 'p grid' header first", line)
        if tokens[0] == "e":
            if len(tokens) != 5:
                raise lines.error(lineno, "edge line 'e i1 j1 i2 j2'", line)
            edges.append(_ints(lines, lineno, tokens[1:]))
        elif tokens[0] == "d":
            if len(tokens) != 4:
                raise lines.error(lineno, "delta line 'd i k value'", line)
            i, k, val = _ints(lines, lineno, tokens[1:])
            if not (1 <= i <= side and 1 <= k <= side):
                raise lines.error(lineno, "rows within 1..%d" % side, line)
            if not -2 ** 63 <= val < 2 ** 63:
                raise lines.error(lineno, "a 64-bit delta value", line)
            deltas.append((i, k, val))
        else:
            raise lines.error(lineno, "an 'e', 'd' or comment line", line)
    if side is None:
        raise FormatError(1, 0, "a 'p grid' header", "end of input")
    try:
        grid = GridGraph(side, kind=kind, D=D)
    except MemoryError:
        raise lines.error(header[0], "a grid that fits in memory", header[1])
    except ValueError as exc:          # InvalidInputError, or numpy's size cap
        raise lines.error(header[0], "a valid %s grid header (%s)"
                          % (kind, exc), header[1])
    if deltas:
        grid.delta_table = np.zeros((side, side), dtype=np.int64)
        for i, k, val in deltas:
            grid.delta_table[i - 1, k - 1] = val
    try:
        grid.add_edges(edges)
    except InvalidInputError:
        k, expected = grid.misfit(edges)
        lineno = [n for n, _, line in _Lines(text)
                  if line.split()[0] == "e"][k]
        raise lines.error(lineno, expected, lines.raw[lineno - 1].strip())
    return grid


def dump_grid(g: GridGraph, fh) -> None:
    """Stream the canonical grid form to a file object.

    Large chain-produced grids have millions of edges; streaming avoids
    holding the whole text in memory.
    """
    header = "p grid %d" % g.side
    if g.D is not None:
        header += " %d" % g.D
    fh.write(header + "\n")
    fh.write("c kind %s\n" % g.kind)
    for (i1, j1), (i2, j2) in g.edges():
        fh.write("e %d %d %d %d\n" % (i1, j1, i2, j2))
    if g.delta_table is not None:
        for i in range(g.side):
            for k in range(g.side):
                if g.delta_table[i, k]:
                    fh.write("d %d %d %d\n" % (i + 1, k + 1, g.delta_table[i, k]))


def write_grid(g: GridGraph) -> str:
    buf = io.StringIO()
    dump_grid(g, buf)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Permutation CSP instances, orderings, certificates
# ---------------------------------------------------------------------------

def _parse_pcsp(text: str):
    """The instance, its comment lines as (line number, text), and the
    line iterator for positioned errors."""
    lines = _Lines(text)
    header = None
    constraints = []
    linenos = []
    comments = []
    for lineno, _, line in lines:
        if line.startswith("c"):
            comments.append((lineno, line))
            continue
        tokens = line.split()
        if tokens[0] == "p":
            if len(tokens) != 5 or tokens[1] != "pcsp":
                raise lines.error(
                    lineno, "header 'p pcsp <vars> <constraints> <arity>'", line)
            header = _ints(lines, lineno, tokens[2:])
            header_lineno = lineno
            continue
        if header is None:
            raise lines.error(lineno, "the 'p pcsp' header first", line)
        vals = _ints(lines, lineno, tokens)
        if vals[-1] != 0:
            raise lines.error(lineno, "constraint terminated by 0", line)
        body = vals[:-1]
        if 0 in body:
            raise lines.error(lineno, "one constraint per line", line)
        if any(not 1 <= v <= header[0] for v in body):
            raise lines.error(lineno, "indices within 1..%d" % header[0], line)
        constraints.append(tuple(body))
        linenos.append(lineno)
    if header is None:
        raise FormatError(1, 0, "a 'p pcsp' header", "end of input")
    num_vars, num_constraints, arity = header
    if len(constraints) != num_constraints:
        raise FormatError(len(lines.raw), lines.offsets[-1],
                          "%d constraints" % num_constraints,
                          "%d constraints" % len(constraints))
    instance = PermCspInstance(num_vars=num_vars,
                               constraints=tuple(constraints), arity=arity)
    if validate_instance(instance):
        # Name the first offending line: the header arity is a promise
        # that the solvers rely on.
        for lineno, c in zip(linenos, constraints):
            if validate_instance(PermCspInstance(num_vars, (c,), arity)):
                raise lines.error(lineno, "1..%d distinct variables" % arity,
                                  lines.raw[lineno - 1].strip())
        raise lines.error(header_lineno, "a positive variable count",
                          str(num_vars))
    return instance, comments, lines


def read_instance(text: str) -> PermCspInstance:
    return _parse_pcsp(text)[0]


def write_instance(instance: PermCspInstance) -> str:
    out = ["p pcsp %d %d %d" % (instance.num_vars, len(instance.constraints),
                                instance.arity)]
    out.extend(" ".join(str(v) for v in c) + " 0" for c in instance.constraints)
    return "\n".join(out) + "\n"


def read_ordering(text: str) -> Ordering:
    lines = _Lines(text)
    for lineno, _, line in lines:
        seq = _ints(lines, lineno, line.split())
        return Ordering.from_sequence(seq)
    raise FormatError(1, 0, "one line of variable indices", "end of input")


def write_ordering(ordering: Ordering) -> str:
    return " ".join(str(v) for v in ordering.sequence()) + "\n"


_ROLE_CODES = {"d": "dummy", "r": "row", "c": "column"}
_INT_PARAMS = ("n", "D", "source-edges", "delta-sum")


def read_certificate(text: str) -> ReductionCertificate:
    instance, comments, lines = _parse_pcsp(text)
    target = None
    params = {}
    roles = {}
    for lineno, line in comments:
        tokens = line.split()
        if len(tokens) >= 3 and tokens[1] == "target":
            target, = _ints(lines, lineno, tokens[2:3])
        elif len(tokens) >= 4 and tokens[1] == "param":
            key, value = tokens[2], tokens[3]
            if key in _INT_PARAMS:
                value, = _ints(lines, lineno, [value])
            elif key == "kind" and value not in ("perm4", "perm6"):
                raise lines.error(lineno, "kind perm4|perm6", value)
            params[key] = value
        elif len(tokens) >= 4 and tokens[1] == "role":
            if len(tokens) != 5:
                raise lines.error(lineno, "role line 'c role <var> r|c|d "
                                  "<index>'", line)
            var, idx = _ints(lines, lineno, [tokens[2], tokens[4]])
            if tokens[3] not in _ROLE_CODES:
                raise lines.error(lineno, "role code r|c|d", tokens[3])
            roles[var] = (tokens[3], idx)
    required = ["kind", "n"] + (["D"] if params.get("kind") == "perm4" else [])
    if target is None or any(key not in params for key in required):
        raise FormatError(len(lines.raw), lines.offsets[-1],
                          "certificate trailer with target/%s"
                          % "/".join(required), "missing trailer")

    def by_role(code):
        picked = sorted(((idx, var) for var, (c, idx) in roles.items()
                         if c == code))
        return tuple(var for _, var in picked)

    return ReductionCertificate(
        instance=instance,
        target=target,
        kind=params["kind"],
        n=params["n"],
        D=params.get("D"),
        dummy_vars=by_role("d"),
        row_vars=by_role("r"),
        col_vars=by_role("c"),
        source_edges=params.get("source-edges", 0),
        delta_sum=params.get("delta-sum", 0),
    )


def write_certificate(cert: ReductionCertificate) -> str:
    out = write_instance(cert.instance).rstrip("\n").split("\n")
    out.append("c target %d" % cert.target)
    out.append("c param kind %s" % cert.kind)
    out.append("c param n %d" % cert.n)
    if cert.D is not None:
        out.append("c param D %d" % cert.D)
    out.append("c param source-edges %d" % cert.source_edges)
    out.append("c param delta-sum %d" % cert.delta_sum)
    for idx, var in enumerate(cert.dummy_vars, start=1):
        out.append("c role %d d %d" % (var, idx))
    for idx, var in enumerate(cert.row_vars, start=1):
        out.append("c role %d r %d" % (var, idx))
    for idx, var in enumerate(cert.col_vars, start=1):
        out.append("c role %d c %d" % (var, idx))
    return "\n".join(out) + "\n"
