"""Text formats for every artifact type.

All formats are LF-terminated ASCII with 1-based indices (internal
representations stay 0-based where convenient; the conversion lives
here).  Writers are canonical: the same value always produces the same
bytes, with edges sorted lexicographically and constraints kept in
generation order.  The grammars are documented in docs/formats.md.
"""

import io
import re
from typing import List, Optional, Tuple

import numpy as np

from permcsp.core import (
    Graph,
    InvalidInputError,
    Ordering,
    PermCspError,
    PermCspInstance,
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


_CHUNK = 1 << 16          # characters split into lines at a time
INTEGER = re.compile("-?[0-9]+")     # every integer field, and the CLI's
_NON_ASCII = re.compile("[^\x00-\x7f]")


def _blocks(text: str):
    """(number of its first line, text) of each block of whole lines,
    about _CHUNK characters each, without the LF that ends the block."""
    lineno = 1
    start = 0
    while start <= len(text):
        end = text.find("\n", start + _CHUNK)
        if end < 0:
            end = len(text)
        block = text[start:end]
        yield lineno, block
        lineno += block.count("\n") + 1
        start = end + 1


def _lines(text: str):
    """(line number, stripped text) of each non-blank LF-terminated line."""
    for first, block in _blocks(text):
        for lineno, line in enumerate(block.split("\n"), first):
            line = line.strip()
            if line:
                yield lineno, line


class _Scanner:
    """One pass over a text in any of these formats, yielding (line
    number, tokens) for each body line.

    The text must be ASCII.  A line starting with ``c`` is a comment, kept
    in :attr:`comments`.  A ``p <word>`` line is the header, at most one
    per text.  Given a header grammar such as ``p grid <side> [D]``
    (``[D]`` marks an optional field), the header must match it and come
    before any body line, and its integers are :attr:`fields`.  Without a
    grammar, any header word is taken, as :attr:`word` (see :func:`read`).
    """

    def __init__(self, text: str, grammar: Optional[str] = None):
        if not text.isascii():
            # A byte a file was read with errors="surrogateescape" is
            # named as that byte; any other character by its first byte.
            at = _NON_ASCII.search(text).start()
            byte = text[at].encode("utf-8", "surrogateescape")[0]
            raise FormatError(text.count("\n", 0, at) + 1, at, "ASCII text",
                              "byte 0x%02x" % byte)
        self.text = text
        self.grammar = grammar
        self.word = grammar and grammar.split()[1]
        self.header: Optional[int] = None           # its line number
        self.fields: Optional[List[int]] = None
        self.comments: List[Tuple[int, List[str]]] = []

    def __iter__(self):
        for lineno, line in _lines(self.text):
            tokens = self.take(lineno, line)
            if tokens:
                yield lineno, tokens
        self.finish()

    def take(self, lineno: int, line: str) -> Optional[List[str]]:
        """The tokens of a stripped, non-blank line if it is a body line;
        a comment or the header is taken in and gives None."""
        grammar = self.grammar
        tokens = line.split()
        if line[0] == "c":
            self.comments.append((lineno, tokens))
        elif tokens[0] != "p":
            if grammar and self.header is None:
                raise self.error(lineno, "the 'p %s' header first" % self.word)
            return tokens
        elif self.header is not None:
            raise self.error(lineno, "one 'p %s' header" % self.word)
        elif grammar is None:
            self.header, self.word = lineno, (tokens + [""])[1]
        else:
            self.header = lineno
            size = len(grammar.split())
            if (tokens[1:2] != [self.word] or not
                    size - grammar.count("[") <= len(tokens) <= size):
                raise self.error(lineno, "header '%s'" % grammar)
            self.fields = self.ints(lineno, tokens[2:])
        return None

    def finish(self):
        """Refuse a text that ended without the header its grammar needs."""
        if self.grammar and self.header is None:
            raise FormatError(1, 0, "a 'p %s' header" % self.word,
                              "end of input")

    def ints(self, lineno: int, tokens: List[str]) -> List[int]:
        """The tokens as integers (``-?[0-9]+``, within the digit limit
        of Python's ``int``); the first that is not one is named."""
        for tok in tokens:
            if not INTEGER.fullmatch(tok):
                raise self.error(lineno, "an integer", tok)
        try:
            return list(map(int, tokens))
        except ValueError:          # past Python's int-string digit limit
            tok = max(tokens, key=lambda t: len(t.lstrip("-")))
            raise self.error(lineno, "fewer digits", tok[:20] + "...") from None

    def error(self, lineno: int, expected: str,
              found: Optional[str] = None) -> FormatError:
        """A FormatError at the start of line ``lineno``; ``found``
        defaults to the line's stripped text."""
        offset = 0
        for _ in range(lineno - 1):
            offset = self.text.index("\n", offset) + 1
        if found is None:
            end = self.text.find("\n", offset)
            found = self.text[offset:end if end >= 0 else None].strip()
        return FormatError(lineno, offset, expected, found)

    def end_error(self, expected: str, found: str) -> FormatError:
        """A FormatError at the start of the text's last line."""
        return FormatError(self.text.count("\n") + 1,
                           self.text.rfind("\n") + 1, expected, found)


# ---------------------------------------------------------------------------
# DIMACS CNF
# ---------------------------------------------------------------------------

def read_dimacs(text: str) -> CnfFormula:
    scan = _Scanner(text, "p cnf <vars> <clauses>")
    clauses = []
    pending: List[int] = []
    for lineno, tokens in scan:
        num_vars = scan.fields[0]
        for lit in scan.ints(lineno, tokens):
            if lit == 0:
                clauses.append(tuple(pending))
                pending = []
            elif abs(lit) > num_vars:
                raise scan.error(lineno, "literal within 1..%d" % num_vars,
                                 str(lit))
            else:
                pending.append(lit)
    num_vars, num_clauses = scan.fields
    if num_vars < 0:
        raise scan.error(scan.header, "a variable count >= 0", str(num_vars))
    if pending:
        raise scan.end_error("clause terminated by 0", "end of input")
    if len(clauses) != num_clauses:
        raise scan.end_error("%d clauses" % num_clauses,
                             "%d clauses" % len(clauses))
    return CnfFormula(num_vars=num_vars, clauses=tuple(clauses))


def write_dimacs(cnf: CnfFormula) -> str:
    out = ["p cnf %d %d" % (cnf.num_vars, len(cnf.clauses))]
    out.extend(" ".join(str(l) for l in clause) + " 0" for clause in cnf.clauses)
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Simple graphs (DIMACS-style edge lists)
# ---------------------------------------------------------------------------

def read_graph(text: str) -> Graph:
    scan = _Scanner(text, "p edge <vertices> <edges>")
    edges = []
    linenos = []
    for lineno, tokens in scan:
        if tokens[0] != "e" or len(tokens) != 3:
            raise scan.error(lineno, "edge line 'e <u> <v>'")
        edges.append(tuple(scan.ints(lineno, tokens[1:])))
        linenos.append(lineno)
    num_vertices, num_edges = scan.fields
    try:
        g = Graph(num_vertices, edges)
    except InvalidInputError:
        k, expected = Graph.misfit(num_vertices, edges)
        raise scan.error(scan.header if k is None else linenos[k], expected)
    if len(edges) != num_edges:
        raise scan.end_error("%d edges" % num_edges, "%d edges" % len(edges))
    return g


def write_graph(g: Graph) -> str:
    out = ["p edge %d %d" % (g.num_vertices, len(g.edges()))]
    out.extend("e %d %d" % e for e in g.edges())
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Grid graphs
# ---------------------------------------------------------------------------

# Byte classes of a canonical edge line, "e <int> <int> <int> <int>" with
# one space between fields, as a bytes.translate table, and the class
# pairs (6 * first + second) that cannot occur on one.
_LF, _SPACE, _DIGIT, _MINUS, _E, _OTHER = range(6)
_CLASS = bytes(_DIGIT if 48 <= b <= 57 else
               {10: _LF, 32: _SPACE, 45: _MINUS, 101: _E}.get(b, _OTHER)
               for b in range(256))
_BAD_PAIR = bytes(pair not in (
    6 * _LF + _E, 6 * _E + _SPACE, 6 * _SPACE + _DIGIT, 6 * _SPACE + _MINUS,
    6 * _MINUS + _DIGIT, 6 * _DIGIT + _DIGIT, 6 * _DIGIT + _SPACE,
    6 * _DIGIT + _LF) for pair in range(256))


def _edge_lines(block: str):
    """Find the canonical edge lines of a block of lines and read them as
    arrays.  Returns the line bounds (line k is ``block[lf[k]:lf[k+1]-1]``),
    which lines are canonical, and their integers as an (m, 4) int64
    array.  A line with an integer of more than 18 digits is not
    canonical, so every value fits."""
    raw = ("\n" + block + "\n").encode("ascii")
    buf = np.frombuffer(raw, dtype=np.uint8)
    cls = np.frombuffer(raw.translate(_CLASS), dtype=np.uint8)
    seps = np.flatnonzero(cls <= _SPACE)            # LFs and spaces
    at_lf = np.flatnonzero(cls[seps] == _LF)        # each LF's index in seps
    lf = seps[at_lf]
    canonical = np.diff(at_lf) == 5                 # four spaces on the line
    pairs = (cls[:-1] * 6 + cls[1:]).tobytes().translate(_BAD_PAIR)
    bad = np.flatnonzero(np.frombuffer(pairs, dtype=np.uint8))
    canonical[np.searchsorted(lf, bad, side="right") - 1] = False
    # Token t of a canonical line k runs from just after separator
    # at_lf[k] + 1 + t to just before the next one.
    bounds = seps[at_lf[:-1][canonical, None] + np.arange(1, 6)]
    starts, ends = bounds[:, :4] + 1, bounds[:, 1:]
    negative = buf[starts] == ord("-")
    starts += negative
    length = ends - starts
    if length.size and length.max() > 18:
        short = length.max(axis=1) <= 18
        canonical[canonical] = short
        starts, length, negative = starts[short], length[short], negative[short]
    values = np.zeros(starts.shape, dtype=np.int64)
    for t in range(int(length.max(initial=0))):
        digit = buf[np.minimum(starts + t, len(buf) - 1)] - ord("0")
        values = np.where(length > t, values * 10 + digit, values)
    return lf, canonical, np.where(negative, -values, values)


def _grid_kind(text: str):
    """The grid kind that a text's ``c kind`` comment lines give (the
    last; "clique" without one), and (line number, word) of the first
    that names no kind, or None (the kind is then meaningless).  Only
    lines holding "kind" are split."""
    kind, bad = "clique", None
    for found in re.finditer("kind", text):
        start = text.rfind("\n", 0, found.start()) + 1
        end = text.find("\n", start)
        tokens = text[start:end if end >= 0 else None].split()
        if tokens[0][0] == "c" and len(tokens) == 3 and tokens[1] == "kind":
            if tokens[2] not in ("clique", "biclique"):
                bad = bad or (text.count("\n", 0, start) + 1, tokens[2])
            kind = tokens[2]
    return kind, bad


def read_grid(text: str) -> GridGraph:
    """Parse a grid file.

    Canonical edge lines are read as arrays, a block of lines at a time
    (:func:`_edge_lines`); every other line goes through the scanner, one
    line at a time, under the same grammar.  The kind comes from the
    ``c kind`` lines first (:func:`_grid_kind`), so each block's edges
    are checked (:meth:`GridGraph.misfit`) and set in the grid's stack
    of blocks (:meth:`GridGraph.set_edges`) as they are read.  Faults are
    named in the order of a whole-file check: a bad line, the kind
    comment, then the header or the first misfit edge."""
    scan = _Scanner(text, "p grid <side> [D]")
    kind, bad_kind = _grid_kind(text)
    blocks = None               # (stack, at), as set_edges builds them
    fault = failure = None      # (line or None, expected); an exception
    deltas = []
    for first, block in _blocks(text):
        lf, canonical, values = _edge_lines(block)
        edges = np.zeros((len(canonical), 4), dtype=np.int64)
        edges[canonical] = values
        is_edge = canonical.copy()
        # A canonical line that comes before the header is refused there.
        early = first + int(np.argmax(canonical)) if canonical.any() else None
        for at in np.flatnonzero(~canonical).tolist():
            line = block[lf[at]:lf[at + 1] - 1].strip()
            lineno = first + at
            if scan.header is None and early is not None and early < lineno:
                break
            tokens = scan.take(lineno, line) if line else None
            if tokens is None:
                continue
            side = scan.fields[0]
            if tokens[0] == "e":
                if len(tokens) != 5:
                    raise scan.error(lineno, "edge line 'e i1 j1 i2 j2'")
                # Clamped into int64, past the grid's edge: same verdicts.
                cap = min(side, 2 ** 62) + 1
                edges[at] = [min(max(v, 0), cap)
                             for v in scan.ints(lineno, tokens[1:])]
                is_edge[at] = True
            elif tokens[0] == "d":
                if len(tokens) != 4:
                    raise scan.error(lineno, "delta line 'd i k value'")
                i, k, val = scan.ints(lineno, tokens[1:])
                if not (1 <= i <= side and 1 <= k <= side):
                    raise scan.error(lineno, "rows within 1..%d" % side)
                if not -2 ** 63 <= val < 2 ** 63:
                    raise scan.error(lineno, "a 64-bit delta value")
                deltas.append((i, k, val))
            else:
                raise scan.error(lineno, "an 'e', 'd' or comment line")
        if scan.header is None:
            if early is not None:
                raise scan.error(early, "the 'p grid' header first")
            continue
        if fault is None:
            found = edges[is_edge]
            fault = GridGraph.misfit(scan.fields[0], kind, found)
            if fault is not None and fault[0] is not None:
                fault = (first + int(np.flatnonzero(is_edge)[fault[0]]),
                         fault[1])
            elif fault is None and failure is None:
                try:
                    blocks = GridGraph.set_edges(blocks, scan.fields[0],
                                                 kind, found)
                except (MemoryError, ValueError) as exc:
                    failure = exc
    scan.finish()
    if bad_kind is not None:
        raise scan.error(bad_kind[0], "kind clique|biclique", bad_kind[1])
    side, D = (scan.fields + [None])[:2]
    try:
        delta_table = np.zeros((side, side), dtype=np.int64) if deltas else None
        for i, k, val in deltas:
            delta_table[i - 1, k - 1] = val
        if fault is None:
            if failure is not None:
                raise failure
            return GridGraph(side, kind=kind, D=D, blocks=blocks,
                             delta_table=delta_table)
    except MemoryError:
        raise scan.error(scan.header, "a grid that fits in memory")
    except ValueError as exc:          # InvalidInputError, or numpy's size cap
        fault = fault or (None, exc)
    lineno, expected = fault
    if lineno is None:
        raise scan.error(scan.header, "a valid %s grid header (%s)"
                         % (kind, expected))
    raise scan.error(lineno, expected)


def dump_grid(g: GridGraph, fh) -> None:
    """Stream the canonical grid form to a file object, one string per
    grid row.

    Each vertex's "e i j " and "i' j'" label is made once; the edges of a
    row come from :meth:`GridGraph.edge_arrays`, in row-major order, which
    is the lexicographic edge order.
    """
    header = "p grid %d" % g.side
    if g.D is not None:
        header += " %d" % g.D
    fh.write(header + "\n")
    fh.write("c kind %s\n" % g.kind)
    r, offset, _ = g.blocks()
    cells = [divmod(u, r) for u in range(r * r)]
    left = np.array(["e %d %d " % (i + 1, j + 1) for i, j in cells],
                    dtype=object)
    right = np.array(["%d %d\n" % (offset + i + 1, offset + j + 1)
                      for i, j in cells], dtype=object)
    for us, vs in g.edge_arrays():
        text = np.empty(2 * len(us), dtype=object)
        text[0::2], text[1::2] = left[us], right[vs]
        fh.write("".join(text.tolist()))
    if g.delta_table is not None:
        for i, k in zip(*np.nonzero(g.delta_table)):
            fh.write("d %d %d %d\n" % (i + 1, k + 1, g.delta_table[i, k]))


def write_grid(g: GridGraph) -> str:
    buf = io.StringIO()
    dump_grid(g, buf)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Permutation CSP instances, orderings, certificates
# ---------------------------------------------------------------------------

def _parse_pcsp(text: str):
    """The instance and the scanner that read it, in one pass.  Past the
    line faults: the count, then the first line that
    :meth:`PermCspInstance.misfit` names, then the variable count."""
    scan = _Scanner(text, "p pcsp <vars> <constraints> <arity>")
    constraints = []
    linenos = []
    for lineno, tokens in scan:
        num_vars = scan.fields[0]
        vals = scan.ints(lineno, tokens)
        if vals[-1] != 0:
            raise scan.error(lineno, "constraint terminated by 0")
        body = vals[:-1]
        if 0 in body:
            raise scan.error(lineno, "one constraint per line")
        if any(not 1 <= v <= num_vars for v in body):
            raise scan.error(lineno, "indices within 1..%d" % num_vars)
        constraints.append(tuple(body))
        linenos.append(lineno)
    num_vars, num_constraints, arity = scan.fields
    if len(constraints) != num_constraints:
        raise scan.end_error("%d constraints" % num_constraints,
                             "%d constraints" % len(constraints))
    try:
        instance = PermCspInstance(num_vars, tuple(constraints), arity)
    except InvalidInputError:
        k, expected = PermCspInstance.misfit(num_vars, constraints, arity)
        if k is not None:           # else a negative count, refused below
            raise scan.error(linenos[k], expected) from None
    if num_vars < 1:
        raise scan.error(scan.header, "a positive variable count",
                         str(num_vars))
    return instance, scan


def read_instance(text: str) -> PermCspInstance:
    return _parse_pcsp(text)[0]


def write_instance(instance: PermCspInstance) -> str:
    out = ["p pcsp %d %d %d" % (instance.num_vars, len(instance.constraints),
                                instance.arity)]
    out.extend(" ".join(str(v) for v in c) + " 0" for c in instance.constraints)
    return "\n".join(out) + "\n"


def read_ordering(text: str) -> Ordering:
    scan = _Scanner(text)
    lines = list(scan)
    if scan.header is not None:         # an ordering has no header
        raise scan.error(scan.header, "an integer", "p")
    if not lines:
        raise FormatError(1, 0, "one line of variable indices", "end of input")
    if len(lines) > 1:
        raise scan.error(lines[1][0], "one line of variable indices")
    lineno, tokens = lines[0]
    seq = scan.ints(lineno, tokens)
    try:
        return Ordering.from_sequence(seq)
    except InvalidInputError:
        raise scan.error(lineno, "a permutation of 1..%d" % len(seq)) from None


def write_ordering(ordering: Ordering) -> str:
    return " ".join(str(v) for v in ordering.sequence()) + "\n"


_INT_PARAMS = ("n", "D", "source-edges", "delta-sum")


def read_certificate(text: str) -> ReductionCertificate:
    return _certificate(*_parse_pcsp(text))


def _certificate(instance, scan) -> ReductionCertificate:
    target = None
    params = {}
    roles = {}
    for lineno, tokens in scan.comments:
        if len(tokens) >= 3 and tokens[1] == "target":
            target, = scan.ints(lineno, tokens[2:3])
        elif len(tokens) >= 4 and tokens[1] == "param":
            key, value = tokens[2], tokens[3]
            if key in _INT_PARAMS:
                value, = scan.ints(lineno, [value])
            elif key == "kind" and value not in ("perm4", "perm6"):
                raise scan.error(lineno, "kind perm4|perm6", value)
            params[key] = value
        elif len(tokens) >= 4 and tokens[1] == "role":
            if len(tokens) != 5:
                raise scan.error(lineno, "role line 'c role <var> r|c|d "
                                 "<index>'")
            var, idx = scan.ints(lineno, [tokens[2], tokens[4]])
            if tokens[3] not in ("d", "r", "c"):
                raise scan.error(lineno, "role code r|c|d", tokens[3])
            roles[var] = (tokens[3], idx)
    required = ["kind", "n"] + (["D"] if params.get("kind") == "perm4" else [])
    if target is None or any(key not in params for key in required):
        raise scan.end_error("certificate trailer with target/%s"
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
    out = ["c target %d" % cert.target,
           "c param kind %s" % cert.kind,
           "c param n %d" % cert.n]
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
    return write_instance(cert.instance) + "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Any artifact
# ---------------------------------------------------------------------------

# Readers and writers are called by their module names, with the text and
# file positional: perfbench/spans.py patches and reads them there.
def read(text: str):
    """The artifact a text holds, read by the reader its header names:
    ``p cnf`` a CNF formula, ``p edge`` a graph, ``p grid`` a grid and
    ``p pcsp`` an instance, or a certificate when a comment's second
    token is exactly ``target``.  A missing header is an error at line
    1, byte 0; a body line first, or another word, at its own line."""
    scan = _Scanner(text)
    first = next(iter(scan), None)          # stop at the first body line
    if scan.word == "cnf":
        return read_dimacs(text)
    if scan.word == "edge":
        return read_graph(text)
    if scan.word == "grid":
        return read_grid(text)
    if scan.word == "pcsp":
        instance, scan = _parse_pcsp(text)
        if any(tokens[1:2] == ["target"] for _, tokens in scan.comments):
            return _certificate(instance, scan)
        return instance
    expected = "a 'p cnf|edge|grid|pcsp' header"
    if scan.header is None and first is None:
        raise FormatError(1, 0, expected, "end of input")
    raise scan.error(scan.header or first[0], expected)


def dump(value, fh) -> None:
    """Write any value :func:`read` returns to a file object, in its
    canonical form; a grid is streamed (:func:`dump_grid`)."""
    if isinstance(value, GridGraph):
        dump_grid(value, fh)
    elif isinstance(value, ReductionCertificate):
        fh.write(write_certificate(value))
    elif isinstance(value, PermCspInstance):
        fh.write(write_instance(value))
    elif isinstance(value, Graph):
        fh.write(write_graph(value))
    elif isinstance(value, CnfFormula):
        fh.write(write_dimacs(value))
    else:
        raise TypeError("no format for %s" % type(value).__name__)
