"""Text formats: round-trips, canonical bytes, parse errors."""

import io
import itertools
import pathlib
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import assert_error_at, grid_from_edges
from permcsp.core import Graph, Ordering, PermCspInstance, validate_instance
from permcsp.formats import (
    FormatError,
    _Scanner,
    _parse_pcsp,
    dump,
    dump_grid,
    read,
    read_certificate,
    read_dimacs,
    read_graph,
    read_grid,
    read_instance,
    read_ordering,
    write_certificate,
    write_dimacs,
    write_graph,
    write_grid,
    write_instance,
    write_ordering,
)
from permcsp.reductions import (
    CnfFormula,
    GridGraph,
    ReductionCertificate,
    reduce_clique_to_perm6,
    reduce_dcnnb_to_perm4,
    reduce_dcnnc_to_dcnnb,
)


# ---------------------------------------------------------------------------
# DIMACS CNF
# ---------------------------------------------------------------------------

def test_dimacs_example():
    cnf = read_dimacs("p cnf 1 2\n1 0\n-1 0\n")
    assert cnf.num_vars == 1
    assert cnf.clauses == ((1,), (-1,))


def test_dimacs_round_trip_idempotent():
    text = "p cnf 3 2\n1 -2 3 0\n-1 2 0\n"
    cnf = read_dimacs(text)
    assert write_dimacs(cnf) == text
    assert write_dimacs(read_dimacs(write_dimacs(cnf))) == text


def test_dimacs_comments_and_multiline_clauses():
    cnf = read_dimacs("c a comment\np cnf 2 1\n1\n2 0\n")
    assert cnf.clauses == ((1, 2),)


def test_dimacs_missing_terminator():
    with pytest.raises(FormatError) as exc:
        read_dimacs("p cnf 2 1\n1 2\n")
    assert "terminated by 0" in str(exc.value)


def test_dimacs_errors_carry_position():
    with pytest.raises(FormatError) as exc:
        read_dimacs("p cnf 2 1\n1 x 0\n")
    assert exc.value.line == 2
    assert exc.value.found == "x"
    with pytest.raises(FormatError):
        read_dimacs("1 0\n")            # clause before header
    with pytest.raises(FormatError):
        read_dimacs("p cnf 1 1\n2 0\n")  # literal out of range
    with pytest.raises(FormatError):
        read_dimacs("")                 # no header at all
    with pytest.raises(FormatError):
        read_dimacs("p cnf 1 2\n1 0\n")  # clause count mismatch


@pytest.mark.parametrize("reader, text, header", [
    (read_dimacs, "c negative\np cnf -2 0\n", "p cnf -2 0"),
    (read_graph, "c negative\np edge -1 0\n", "p edge -1 0"),
], ids=["dimacs", "graph"])
def test_negative_count_rejected_at_header(reader, text, header):
    with pytest.raises(FormatError) as exc:
        reader(text)
    assert_error_at(exc.value, text, header)


# ---------------------------------------------------------------------------
# Graphs
# ---------------------------------------------------------------------------

def test_graph_round_trip():
    g = Graph(4, [(3, 1), (2, 4)])
    text = write_graph(g)
    assert text == "p edge 4 2\ne 1 3\ne 2 4\n"
    back = read_graph(text)
    assert back == g
    assert list(back.nodes()) == [1, 2, 3, 4]
    assert back.edges() == ((1, 3), (2, 4))


def test_graph_zero_edges():
    g = read_graph("p edge 3 0\n")
    assert g.num_vertices == 3 and g.edges() == ()


def test_graph_rejects_self_loop():
    text = "p edge 3 2\ne 1 2\ne 3 3\n"
    with pytest.raises(FormatError) as exc:
        read_graph(text)
    assert_error_at(exc.value, text, "e 3 3")
    assert exc.value.expected == "two distinct vertices"


def test_graph_edge_count_is_enforced():
    text = "p edge 3 5\ne 1 2\n"
    with pytest.raises(FormatError) as exc:
        read_graph(text)
    assert (exc.value.line, exc.value.offset) == (3, len(text))
    assert (exc.value.expected, exc.value.found) == ("5 edges", "1 edges")


@pytest.mark.parametrize("repeat", ["e 2 1", "e 1 2"])
def test_graph_repeated_edge_rejected_at_its_line(repeat):
    text = "p edge 3 3\ne 1 2\ne 2 3\n%s\n" % repeat
    with pytest.raises(FormatError) as exc:
        read_graph(text)
    lines = text.split("\n")
    assert (exc.value.line, exc.value.offset) == (
        4, sum(len(l) + 1 for l in lines[:3]))
    assert exc.value.expected == "an edge not listed before"


def test_graph_errors():
    with pytest.raises(FormatError):
        read_graph("e 1 2\n")
    with pytest.raises(FormatError):
        read_graph("p edge 2 1\ne 1 5\n")
    with pytest.raises(FormatError):
        read_graph("p edge 2 1\nx 1 2\n")


# ---------------------------------------------------------------------------
# Grids
# ---------------------------------------------------------------------------

def test_grid_round_trip_with_delta():
    g = grid_from_edges(2, [((1, 1), (2, 1)), ((1, 2), (2, 2))], D=1)
    g.delta_table = np.array([[0, 1], [1, 0]], dtype=np.int64)
    text = write_grid(g)
    back = read_grid(text)
    assert back.side == 2 and back.kind == "clique" and back.D == 1
    assert np.array_equal(back.adj, g.adj)
    assert np.array_equal(back.delta_table, g.delta_table)
    assert write_grid(back) == text


def test_grid_biclique_kind_round_trip():
    h = reduce_dcnnc_to_dcnnb(GridGraph(1, D=1))
    text = write_grid(h)
    assert "c kind biclique" in text
    back = read_grid(text)
    assert back.kind == "biclique"
    assert np.array_equal(back.adj, h.adj)


def test_grid_errors():
    with pytest.raises(FormatError):
        read_grid("e 1 1 2 2\n")
    with pytest.raises(FormatError):
        read_grid("p grid 2\ne 1 1 2\n")
    with pytest.raises(FormatError):
        read_grid("p grid 2\nc kind banana\n")
    with pytest.raises(FormatError):
        read_grid("")


# ---------------------------------------------------------------------------
# Instances, orderings
# ---------------------------------------------------------------------------

def test_instance_round_trip():
    inst = PermCspInstance.make(4, [(1, 2, 3), (4, 1)])
    text = write_instance(inst)
    assert text == "p pcsp 4 2 3\n1 2 3 0\n4 1 0\n"
    assert read_instance(text) == inst
    assert write_instance(read_instance(text)) == text


def test_instance_errors():
    with pytest.raises(FormatError):
        read_instance("p pcsp 3 1 2\n1 2\n")        # missing terminator
    with pytest.raises(FormatError):
        read_instance("p pcsp 3 1 2\n1 0 2 0\n")    # two per line
    with pytest.raises(FormatError):
        read_instance("p pcsp 3 2 2\n1 2 0\n")      # count mismatch
    with pytest.raises(FormatError):
        read_instance("p pcsp 3 1 2\n1 9 0\n")      # out of range


def test_ordering_round_trip():
    o = Ordering.from_sequence((2, 3, 1))
    text = write_ordering(o)
    assert text == "2 3 1\n"
    assert read_ordering(text) == o


def test_ordering_errors():
    with pytest.raises(FormatError):
        read_ordering("")
    with pytest.raises(FormatError):
        read_ordering("1 a 2\n")


def test_ordering_is_one_line():
    text = "c an ordering\n2 1\n1 2 3\n"
    with pytest.raises(FormatError) as exc:
        read_ordering(text)
    assert_error_at(exc.value, text, "1 2 3")
    assert exc.value.expected == "one line of variable indices"


def test_ordering_must_be_a_permutation():
    text = "2 2\n"
    with pytest.raises(FormatError) as exc:
        read_ordering(text)
    assert (exc.value.line, exc.value.offset) == (1, 0)
    assert exc.value.expected == "a permutation of 1..2"


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

def test_certificate_round_trip_perm6():
    cert = reduce_clique_to_perm6(grid_from_edges(2, [((1, 1), (2, 2))]),
                                  dummy_count=6)
    text = write_certificate(cert)
    back = read_certificate(text)
    assert back == cert
    assert write_certificate(back) == text


def test_certificate_round_trip_perm4():
    h = reduce_dcnnc_to_dcnnb(GridGraph(1, D=1))
    cert = reduce_dcnnb_to_perm4(h, dummy_count=4)
    text = write_certificate(cert)
    back = read_certificate(text)
    assert back == cert
    assert back.D == 1 and back.delta_sum == cert.delta_sum


def test_certificate_requires_trailer():
    inst = PermCspInstance.make(2, [(1, 2)])
    with pytest.raises(FormatError):
        read_certificate(write_instance(inst))


def test_certificate_rejects_bad_role_code():
    h = reduce_dcnnc_to_dcnnb(GridGraph(1, D=1))
    cert = reduce_dcnnb_to_perm4(h, dummy_count=4)
    text = write_certificate(cert).replace("c role 1 d 1", "c role 1 z 1")
    with pytest.raises(FormatError):
        read_certificate(text)


def test_instance_rejects_constraint_beyond_header_arity():
    with pytest.raises(FormatError) as exc:
        read_instance("p pcsp 4 2 3\n1 2 3 4 0\n4 1 0\n")
    assert (exc.value.line, exc.value.offset) == (2, 13)
    with pytest.raises(FormatError) as exc:
        read_instance("p pcsp 4 2 3\n1 2 0\n4 1 4 0\n")   # repeated variable
    assert exc.value.line == 3
    with pytest.raises(FormatError) as exc:
        read_instance("p pcsp 0 0 3\n")
    assert exc.value.line == 1


def _perm6_certificate_text():
    cert = reduce_clique_to_perm6(grid_from_edges(2, [((1, 1), (2, 2))]),
                                  dummy_count=6)
    return write_certificate(cert)


@pytest.mark.parametrize("old, new, expected", [
    ("c role 5 d 5", "c role 5 d", "role line"),
    ("c role 5 d 5", "c role 5 d x", "an integer"),
    ("c target 48", "c target x", "an integer"),
    ("c param n 2", "c param n two", "an integer"),
    ("c param kind perm6", "c param kind perm5", "kind perm4|perm6"),
])
def test_certificate_trailer_errors_are_positioned(old, new, expected):
    text = _perm6_certificate_text()
    lines = text.split("\n")
    lineno = lines.index(old) + 1
    with pytest.raises(FormatError) as exc:
        read_certificate(text.replace(old + "\n", new + "\n"))
    assert exc.value.line == lineno
    assert exc.value.offset == len("\n".join(lines[:lineno - 1])) + 1
    assert expected in exc.value.expected


@pytest.mark.parametrize("reader, text, second", [
    (read_dimacs, "p cnf 3 1\n1 2 3 0\np cnf 1 1\n", "p cnf 1 1"),
    (read_graph, "p edge 3 1\ne 1 2\np edge 3 0\n", "p edge 3 0"),
    (read_instance, "p pcsp 3 2 2\n1 2 0\np pcsp 5 2 3\n3 4 5 0\n",
     "p pcsp 5 2 3"),
    (read_certificate, "p pcsp 2 1 2\n1 2 0\nc target 1\nc param kind perm6\n"
     "c param n 1\np pcsp 3 1 2\n", "p pcsp 3 1 2"),
], ids=["dimacs", "graph", "instance", "certificate"])
def test_second_header_rejected_at_its_line(reader, text, second):
    with pytest.raises(FormatError) as exc:
        reader(text)
    assert_error_at(exc.value, text, second)
    assert exc.value.expected == "one '%s' header" % second[:6].strip()


def test_grid_delta_rows_in_range():
    with pytest.raises(FormatError) as exc:
        read_grid("p grid 2\nd 0 1 5\n")
    assert exc.value.line == 2
    with pytest.raises(FormatError):
        read_grid("p grid 2\nd 1 3 5\n")


def test_grid_second_header_rejected():
    # Delta and edge lines are checked against the header above them.
    with pytest.raises(FormatError) as exc:
        read_grid("p grid 3\nd 1 3 0\np grid 2\n")
    assert exc.value.line == 3


@pytest.mark.parametrize("edge, expected", [
    ("e 1 1 3 1", "vertices within 1..2"),
    ("e 0 1 2 2", "vertices within 1..2"),
    ("e 1 1 1 1", "two distinct vertices"),
])
def test_grid_edge_errors_are_positioned(edge, expected):
    head = "p grid 2\nc kind clique\n"
    with pytest.raises(FormatError) as exc:
        read_grid(head + edge + "\n")
    assert (exc.value.line, exc.value.offset) == (3, len(head))
    assert exc.value.expected == expected
    assert exc.value.found == edge


def test_grid_edge_beyond_int64_is_positioned():
    head = "p grid 2\n"
    with pytest.raises(FormatError) as exc:
        read_grid(head + "e 1 1 2 99999999999999999999\n")
    assert (exc.value.line, exc.value.offset) == (2, len(head))
    assert exc.value.expected == "vertices within 1..2"


def test_grid_edges_keep_their_first_fault_line():
    # Ranges are checked before self-loops, but the first faulty line (4,
    # a self-loop) is the one named, not line 5 (out of range).
    text = "p grid 4\nc kind biclique\ne 1 1 3 3\ne 1 1 1 1\ne 9 1 3 3\n"
    with pytest.raises(FormatError) as exc:
        read_grid(text)
    assert exc.value.line == 4
    assert exc.value.expected == "two distinct vertices"


@pytest.mark.parametrize("text, lineno, why", [
    ("p grid 0\n", 1, "side must be positive"),
    ("c x\np grid 3 1\nc kind biclique\n", 2, "need an even side"),
])
def test_grid_header_errors_are_positioned(text, lineno, why):
    with pytest.raises(FormatError) as exc:
        read_grid(text)
    assert exc.value.line == lineno
    assert exc.value.offset == text.index("p grid")
    assert why in exc.value.expected


def _read_grid_reference(text):
    """The reader that read_grid replaced: every line through the
    scanner, the coordinates in one list, and a second scan to name the
    line of a misfit edge."""
    scan = _Scanner(text, "p grid <side> [D]")
    coords = []
    deltas = []
    for lineno, tokens in scan:
        if tokens[0] == "e":
            if len(tokens) != 5:
                raise scan.error(lineno, "edge line 'e i1 j1 i2 j2'")
            coords += scan.ints(lineno, tokens[1:])
        elif tokens[0] == "d":
            if len(tokens) != 4:
                raise scan.error(lineno, "delta line 'd i k value'")
            side = scan.fields[0]
            i, k, val = scan.ints(lineno, tokens[1:])
            if not (1 <= i <= side and 1 <= k <= side):
                raise scan.error(lineno, "rows within 1..%d" % side)
            if not -2 ** 63 <= val < 2 ** 63:
                raise scan.error(lineno, "a 64-bit delta value")
            deltas.append((i, k, val))
        else:
            raise scan.error(lineno, "an 'e', 'd' or comment line")
    kind = "clique"
    for lineno, tokens in scan.comments:
        if len(tokens) == 3 and tokens[1] == "kind":
            if tokens[2] not in ("clique", "biclique"):
                raise scan.error(lineno, "kind clique|biclique", tokens[2])
            kind = tokens[2]
    side, D = (scan.fields + [None])[:2]
    try:
        delta_table = np.zeros((side, side), dtype=np.int64) if deltas else None
        for i, k, val in deltas:
            delta_table[i - 1, k - 1] = val
        return GridGraph.from_edges(side, coords, kind=kind, D=D,
                                    delta_table=delta_table)
    except MemoryError:
        raise scan.error(scan.header, "a grid that fits in memory")
    except ValueError as exc:
        k, expected = GridGraph.misfit(side, kind, coords) or (None, exc)
        if k is None:
            raise scan.error(scan.header, "a valid %s grid header (%s)"
                             % (kind, expected))
        edge_lines = (n for n, tokens in _Scanner(text) if tokens[0] == "e")
        raise scan.error(next(itertools.islice(edge_lines, k, None)), expected)


def _dump_grid_reference(g, fh):
    """The writer that dump_grid replaced: one write per edge of
    GridGraph.edges()."""
    header = "p grid %d" % g.side
    if g.D is not None:
        header += " %d" % g.D
    fh.write(header + "\n")
    fh.write("c kind %s\n" % g.kind)
    for (i1, j1), (i2, j2) in g.edges():
        fh.write("e %d %d %d %d\n" % (i1, j1, i2, j2))
    if g.delta_table is not None:
        for i, k in zip(*np.nonzero(g.delta_table)):
            fh.write("d %d %d %d\n" % (i + 1, k + 1, g.delta_table[i, k]))


def _outcome(read, text):
    """What reading ``text`` gives: the grid's fields and stored matrix,
    or the FormatError's position, expectation and finding."""
    try:
        g = read(text)
    except FormatError as exc:
        return "error", exc.line, exc.offset, exc.expected, exc.found
    delta = None if g.delta_table is None else g.delta_table.tolist()
    return (g.side, g.kind, g.D, delta,
            list(g.edges()))


def assert_reads_as_reference(text):
    assert _outcome(read_grid, text) == _outcome(_read_grid_reference, text)


# Every malformed grid text elsewhere in the tests, and a few more.
_MALFORMED_GRIDS = [
    "e 1 1 2 2\n", "p grid 2\ne 1 1 2\n", "p grid 2\nc kind banana\n", "",
    "p grid 2\nd 0 1 5\n", "p grid 2\nd 1 3 5\n",
    "p grid 3\nd 1 3 0\np grid 2\n",
    "p grid 2\nc kind clique\ne 1 1 3 1\n",
    "p grid 2\nc kind clique\ne 0 1 2 2\n",
    "p grid 2\nc kind clique\ne 1 1 1 1\n",
    "p grid 2\ne 1 1 2 99999999999999999999\n",
    "p grid 4\nc kind biclique\ne 1 1 3 3\ne 1 1 1 1\ne 9 1 3 3\n",
    "p grid 0\n", "c x\np grid 3 1\nc kind biclique\n",
    "p grid 3\nc kind biclique\n", "c made by hand\np grid -1 2\n",
    "p grid 2\nc kind biclique\ne 1 1 2 2\ne 1 1 1 2\n",
    "c first\ne 1 1 2 2\np grid 2\n", "e 1 1 2 2\nx\np grid 2\n",
    "p grid 2\ne 1 1 2 2\ne 1 1 2 2\ne 1 1 2 3\n",
    "p grid 2\ne 1 1 2 2\ne 1 1 2 2 1\n", "p grid 2\ne 1 1 2 -2\n",
    "p grid 2\ne 1 1 2 0000000000000000000002\ne 1 1 1 1\n",
    "p grid 2\ne 1 1 2 18446744073709551618\n",      # 2 modulo 2^64
    "p grid 99999999999999999999\ne 1 1 2 2\n",
]


@pytest.mark.parametrize("text", _MALFORMED_GRIDS)
def test_read_grid_errors_match_the_reference(text):
    with pytest.raises(FormatError):
        read_grid(text)
    assert_reads_as_reference(text)


def test_read_grid_across_blocks_matches_the_reference(monkeypatch):
    # Blocks of about 64 characters: odd lines, comments, blank lines and
    # a misfit edge land on both sides of block bounds.
    from permcsp import formats
    monkeypatch.setattr(formats, "_CHUNK", 64)
    rng = random.Random(12)
    for _ in range(60):
        lines = ["e %d %d %d %d" % tuple(rng.randint(1, 4) for _ in range(4))
                 for _ in range(rng.randint(0, 40))]
        for extra in ["c note", "", "d 1 2 3", "e 1 1  2 2", "e 1 2 2 1 ",
                      "e 4 4 5 4", "p grid 4"][:rng.randint(0, 7)]:
            lines.insert(rng.randint(0, len(lines)), extra)
        lines.insert(0, rng.choice(["p grid 4", "c late header"]))
        assert_reads_as_reference("\n".join(lines) + "\n")


# Line variants that keep a line's meaning, or change it in a way the
# per-line path must decide: tabs, CR ends, spaces around or doubled,
# leading zeros, minus signs, 19-digit integers.
_MANGLES = [lambda line: line] * 6 + [
    lambda line: line.replace(" ", "\t", 1),
    lambda line: line + "\r",
    lambda line: line + "  ",
    lambda line: " " + line,
    lambda line: line.replace(" ", "  ", 1),
    lambda line: re.sub(r" (\d)", r" 0\1", line, count=1),
    lambda line: re.sub(r" (\d+)$", lambda m: " " + m.group(1).zfill(19),
                        line),
    lambda line: re.sub(r" (\d)", r" -\1", line, count=1),
    lambda line: line.replace(" 1", " -0", 1),
]


@st.composite
def _grid_texts(draw):
    """Grid-file text over a small alphabet: sides -1..6, both kinds,
    edge, delta and comment lines, some lines malformed, some lines
    respaced or renumbered, sometimes no final LF."""
    side = draw(st.integers(-1, 6))
    n = max(side, 2) // 2
    coord = st.integers(1, max(side, 1))
    odd = st.sampled_from(["-1", "0", "7", "99999999999999999999", "x"])
    placed = st.builds("e {} {} {} {}".format, st.integers(1, n),
                       st.integers(1, n), st.integers(n + 1, 2 * n),
                       st.integers(n + 1, 2 * n))
    line = st.one_of(
        st.builds("e {} {} {} {}".format, coord, coord, coord, coord),
        placed, placed.map(lambda e: "e " + " ".join(e.split()[3::-1])),
        st.builds("d {} {} {}".format, coord, coord, st.integers(-3, 3)),
        st.sampled_from(["c any comment", ""]),
    )
    bad = st.one_of(
        st.sampled_from(["x 1", "c kind torus", "p grid 3 x", "p grid 2"]),
        st.builds("e {} {} {} {}".format, odd, coord, coord, coord),
        st.builds("d {} 1 {}".format, coord, odd),
    )
    head = [draw(st.sampled_from(["p grid %d" % side, "p grid %d 2" % side]
                                 * 3 + ["c no header"]))]
    head += draw(st.sampled_from([[], ["c kind clique"], ["c kind biclique"]]))
    body = draw(st.lists(line, max_size=8))
    if draw(st.booleans()):
        body.insert(draw(st.integers(0, len(body))), draw(bad))
    lines = [draw(st.sampled_from(_MANGLES))(l) for l in head + body]
    return "\n".join(lines) + draw(st.sampled_from(["\n", "\n", ""]))


@settings(max_examples=400, deadline=None)
@given(_grid_texts())
def test_read_grid_fuzz_rejects_or_round_trips(text):
    assert_reads_as_reference(text)
    try:
        g = read_grid(text)
    except FormatError:
        return
    once = write_grid(g)
    assert write_grid(read_grid(once)) == once


@pytest.mark.parametrize("k, token", [
    (k, token) for k in (0, 2, 3, 4)
    for token in ("+1", "1_0", "1.0", "0x1", "\u0661", "\udcff")])
def test_read_grid_refuses_loose_integers_and_non_ascii(k, token):
    # A sign other than '-', an underscore, any non-digit, and any
    # character outside ASCII (a byte the CLI read with surrogateescape
    # included) are refused at their own line.
    lines = ["p grid 2", "c kind clique", "e 1 1 2 2", "d 1 2 3", "e 1 2 2 1"]
    tokens = lines[k].split()
    tokens[-1] = token
    lines[k] = " ".join(tokens)
    text = "\n".join(lines) + "\n"
    with pytest.raises(FormatError) as exc:
        read_grid(text)
    if token.isascii():
        assert_error_at(exc.value, text, lines[k])
        assert (exc.value.expected, exc.value.found) == ("an integer", token)
    else:
        assert (exc.value.line, exc.value.offset) == (k + 1, text.index(token))
        assert exc.value.expected == "ASCII text"
        assert exc.value.found == ("byte 0xd9" if token == "\u0661"
                                   else "byte 0xff")


@pytest.mark.parametrize("reader, text, token", [
    (read_dimacs, "p cnf 2 1\n1 +2 0\n", "+2"),
    (read_graph, "p edge 2 1\ne 1 2_0\n", "2_0"),
    (read_instance, "p pcsp 2 1 2\n1 \u0662 0\n", None),
    (read_ordering, "2 1_0\n", "1_0"),
    (read_certificate, "p pcsp 1 0 1\nc target +1\n", "+1"),
])
def test_every_reader_takes_only_ascii_decimal_integers(reader, text, token):
    with pytest.raises(FormatError) as exc:
        reader(text)
    if token is None:
        assert exc.value.expected == "ASCII text"
        assert exc.value.offset == text.index("\u0662")
    else:
        assert (exc.value.expected, exc.value.found) == ("an integer", token)


@pytest.mark.parametrize("seed", range(8))
def test_dump_grid_matches_the_reference(seed):
    rng = random.Random(seed)
    for kind in ("clique", "biclique"):
        side = rng.randint(1, 6) * (2 if kind == "biclique" else 1)
        r, offset = (side // 2, side // 2) if kind == "biclique" else (side, 0)
        cells = [(i, j) for i in range(1, r + 1) for j in range(1, r + 1)]
        pairs = ([(a, (offset + b[0], offset + b[1])) for a in cells
                  for b in cells] if kind == "biclique" else
                 [(a, b) for a, b in itertools.combinations(
                     [(i, j) for i in range(1, side + 1)
                      for j in range(1, side + 1)], 2)])
        edges = rng.sample(pairs, rng.randint(0, len(pairs)))
        g = grid_from_edges(side, edges, kind=kind,
                            D=rng.choice([None, rng.randint(0, 3)]))
        if rng.random() < 0.5:
            g.delta_table = np.array(
                [[rng.randint(-2, 2) for _ in range(side)]
                 for _ in range(side)], dtype=np.int64)
        want, got = io.StringIO(), io.StringIO()
        _dump_grid_reference(g, want)
        dump_grid(g, got)
        assert got.getvalue() == want.getvalue()


def test_dump_grid_streams_in_blocks(monkeypatch):
    from permcsp import formats
    g = grid_from_edges(3, [((1, 1), (2, 2)), ((1, 2), (3, 3)),
                            ((2, 1), (3, 2)), ((3, 1), (1, 3))])
    want = io.StringIO()
    _dump_grid_reference(g, want)
    monkeypatch.setattr(formats, "_CHUNK", 1)
    writes = []

    class Sink:
        def write(self, text):
            writes.append(text)
    dump_grid(g, Sink())
    assert "".join(writes) == want.getvalue()
    assert len(writes) > 4                  # header, kind, one per row


@st.composite
def _texts(draw, valid, bad):
    """Text over a small alphabet: the lines of a valid file, with comment
    and blank lines put anywhere, sometimes no header, and sometimes one
    ``bad`` line (a malformed one or a second header) put anywhere."""
    lines = draw(valid)
    if draw(st.integers(0, 9)) == 0:
        lines[0] = "c no header"
    for extra in draw(st.lists(st.sampled_from(["c any", "", "  "]),
                               max_size=3)):
        lines.insert(draw(st.integers(0, len(lines))), extra)
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(bad))
    return "\n".join(lines) + "\n"


def _joined(vals, end=""):
    return " ".join(map(str, vals)) + end


@st.composite
def _cnf_lines(draw):
    v = draw(st.integers(0, 3))
    lit = st.integers(1, v).flatmap(lambda x: st.sampled_from([x, -x]))
    clauses = draw(st.lists(st.lists(lit, max_size=3) if v else st.just([]),
                            max_size=3))
    return (["p cnf %d %d" % (v, len(clauses))]
            + [_joined(c, " 0").strip() for c in clauses])


@st.composite
def _graph_lines(draw):
    n = draw(st.integers(0, 4))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=4)) if pairs else []
    return (["p edge %d %d" % (n, len(edges))]
            + ["e %d %d" % (e if draw(st.booleans()) else e[::-1])
               for e in edges])


@st.composite
def _pcsp_lines(draw):
    v, arity = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    cons = draw(st.lists(st.lists(st.integers(1, v), min_size=1,
                                  max_size=min(v, arity), unique=True),
                         max_size=3))
    return (["p pcsp %d %d %d" % (v, len(cons), arity)]
            + [_joined(c, " 0") for c in cons])


@st.composite
def _cert_lines(draw):
    lines = draw(_pcsp_lines())
    v = int(lines[0].split()[2])
    kind = draw(st.sampled_from(["perm4", "perm6"]))
    trailer = ["c target %d" % draw(st.integers(0, 9)), "c param kind " + kind,
               "c param n %d" % draw(st.integers(1, 3))]
    trailer += draw(st.lists(st.sampled_from(
        ["c param D 1", "c param source-edges 2", "c param delta-sum 3"]),
        unique=True))
    if kind == "perm4" and draw(st.integers(0, 3)):
        trailer.append("c param D 2")
    trailer += ["c role %d %s %d" % (var, draw(st.sampled_from("rcd")), k)
                for k, var in enumerate(draw(st.permutations(
                    range(1, v + 1))), start=1)]
    return lines + draw(st.permutations(trailer))


_pcsp_bad = ["x", "1 2", "1 0 2 0", "0", "5 0", "1 1 0", "p pcsp 3 1 2",
             "p pcsp x 1 2", "p cnf 1 1"]
_FUZZ = {
    "dimacs": (read_dimacs, write_dimacs, _texts(_cnf_lines(), st.sampled_from(
        ["x 1", "1 y 0", "4 0", "1", "p cnf 1 1", "p cnf x 1", "p edge 2 1",
         "p", "p cnf 1"]))),
    "graph": (read_graph, write_graph, _texts(_graph_lines(), st.sampled_from(
        ["x 1 2", "e 1", "e 1 x", "e 0 1", "e 1 9", "e 2 2", "p edge 2 0",
         "p grid 2", "p edge"]))),
    "instance": (read_instance, write_instance,
                 _texts(_pcsp_lines(), st.sampled_from(_pcsp_bad))),
    "certificate": (read_certificate, write_certificate, _texts(
        _cert_lines(), st.sampled_from(_pcsp_bad + [
            "c role 1 d", "c role 1 z 1", "c role x d 1", "c target x",
            "c param n x", "c param kind perm5"]))),
}


@pytest.mark.parametrize("name", sorted(_FUZZ))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_reader_fuzz_rejects_or_round_trips(name, data):
    read, write, texts = _FUZZ[name]
    try:
        value = read(data.draw(texts))
    except FormatError:
        return
    once = write(value)
    assert write(read(once)) == once


def _parse_pcsp_reference(text):
    """The pcsp reader that _parse_pcsp replaced: the lines in one pass,
    then validate_instance over the whole instance and, on a fault, over
    each line again to name the first line at fault."""
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
    instance = PermCspInstance(num_vars=num_vars,
                               constraints=tuple(constraints), arity=arity)
    if validate_instance(instance):
        for lineno, c in zip(linenos, constraints):
            if validate_instance(PermCspInstance(num_vars, (c,), arity)):
                raise scan.error(lineno, "1..%d distinct variables" % arity)
        raise scan.error(scan.header, "a positive variable count",
                         str(num_vars))
    return instance, scan


def _pcsp_outcome(parse, text):
    """The instance and comments that parsing ``text`` gives, or the
    FormatError's position, expectation and finding."""
    try:
        instance, scan = parse(text)
    except FormatError as exc:
        return "error", exc.line, exc.offset, exc.expected, exc.found
    return instance, scan.comments


@pytest.mark.parametrize("text, error", [
    # A repeated variable before an out-of-range index: the line fault.
    ("p pcsp 3 2 3\n1 1 0\n1 9 0\n", (3, "indices within 1..3")),
    # An arity fault and a count mismatch: the count.
    ("p pcsp 3 2 2\n1 2 3 0\n", (3, "2 constraints")),
    # No variables, one empty constraint: the empty line, then the header.
    ("p pcsp 0 1 3\n0\n", (2, "1..3 distinct variables")),
    ("p pcsp 0 0 3\n", (1, "a positive variable count")),
    ("p pcsp 3 3 2\n1 2 0\n2 2 0\n3 1 2 0\n",
     (3, "1..2 distinct variables")),
])
def test_parse_pcsp_names_the_first_fault_as_the_reference(text, error):
    got = _pcsp_outcome(_parse_pcsp, text)
    assert got == _pcsp_outcome(_parse_pcsp_reference, text)
    assert (got[1], got[3]) == error


@pytest.mark.parametrize("name", ["instance", "certificate"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_parse_pcsp_matches_the_reference(name, data):
    text = data.draw(_FUZZ[name][2])
    assert (_pcsp_outcome(_parse_pcsp, text)
            == _pcsp_outcome(_parse_pcsp_reference, text))


# ---------------------------------------------------------------------------
# Any artifact: read picks the reader by the header, dump writes it
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("text, kind", [
    ("p cnf 3 2\n1 -2 3 0\n-1 0\n", CnfFormula),
    ("p edge 3 2\ne 1 2\ne 2 3\n", Graph),
    ("p grid 2 1\nc kind clique\ne 1 1 2 2\ne 1 2 2 1\n", GridGraph),
    ("p grid 4 1\nc kind biclique\ne 1 1 3 3\ne 1 2 4 3\ne 2 1 3 4\n"
     "d 1 2 1\nd 2 1 1\n", GridGraph),
    ("p pcsp 3 2 3\n1 2 3 0\n3 1 0\n", PermCspInstance),
    ((pathlib.Path(__file__).parent / "golden" / "chain-n1-perm4.pcsp")
     .read_text(), ReductionCertificate),
], ids=["cnf", "graph", "clique-grid", "biclique-grid", "instance",
        "certificate"])
def test_dump_writes_back_what_read_read(text, kind):
    value = read(text)
    assert type(value) is kind
    buf = io.StringIO()
    dump(value, buf)
    assert buf.getvalue() == text


@pytest.mark.parametrize("comment, kind", [
    ("c target 5", ReductionCertificate),
    ("c target: a tiny example", PermCspInstance),
    ("c my target 5", PermCspInstance),
])
def test_read_takes_a_pcsp_file_with_a_target_comment_as_a_certificate(
        comment, kind):
    text = "p pcsp 1 0 1\n%s\nc param kind perm6\nc param n 1\n" % comment
    assert type(read(text)) is kind


@pytest.mark.parametrize("text, line, found", [
    ("", 1, "end of input"),
    ("c a comment\n\n", 1, "end of input"),
    ("e 1 2\n", 1, "e 1 2"),
    ("c a\n1 2 0\np pcsp 2 1 2\n", 2, "1 2 0"),
    ("p foo 1\n", 1, "p foo 1"),
    ("c a\n\np ordering 3\n", 3, "p ordering 3"),
], ids=["empty", "comments", "body-first", "body-before-header", "unknown",
        "unknown-after-comments"])
def test_read_header_errors_are_positioned(text, line, found):
    with pytest.raises(FormatError) as exc:
        read(text)
    offset = sum(len(l) + 1 for l in text.split("\n")[:line - 1])
    assert (exc.value.line, exc.value.offset) == (line, offset)
    assert exc.value.found == found


def test_read_refuses_a_second_header_at_its_line():
    with pytest.raises(FormatError) as exc:
        read("p edge 2 0\np edge 2 0\n")
    assert (exc.value.line, exc.value.offset) == (2, 11)


def test_dump_refuses_a_value_read_does_not_return():
    with pytest.raises(TypeError):
        dump(Ordering.from_sequence([1]), io.StringIO())
