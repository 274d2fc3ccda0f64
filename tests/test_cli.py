"""Command-line interface, driven through cli.main plus one subprocess."""

import os
import random
import subprocess
import sys
import time

import pytest

from permcsp import cli, formats
from permcsp.core import (InvalidInputError, Ordering, PermCspInstance,
                          evaluate)
from permcsp.reductions import CnfFormula, GridGraph, reduce_dcnnc_to_dcnnb


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def test_gen_sat_deterministic(tmp_path, capsys):
    a = tmp_path / "a.cnf"
    b = tmp_path / "b.cnf"
    assert cli.main(["gen", "sat", "--num-vars", "5", "--num-clauses", "4",
                     "--freq", "3", "--seed", "7", "--out", str(a)]) == 0
    assert cli.main(["gen", "sat", "--num-vars", "5", "--num-clauses", "4",
                     "--freq", "3", "--seed", "7", "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    cnf = formats.read_dimacs(a.read_text())
    assert cnf.num_vars == 5 and len(cnf.clauses) == 4
    assert max(cnf.frequencies().values()) <= 3


def test_gen_sat_respects_frequency_budget(capsys):
    # 4 variables at frequency 3 cannot host 5 three-literal clauses.
    code, _, err = run(capsys, ["gen", "sat", "--num-vars", "4",
                                "--num-clauses", "5", "--freq", "3"])
    assert code == 2
    assert "cannot place" in err


def _gen_sat_reference(num_vars, num_clauses, freq, seed):
    """gen_sat with a count per variable, drawing from the sorted list of
    the free ones rebuilt for every clause."""
    if num_vars < 1 or num_clauses < 0 or freq < 1:
        raise InvalidInputError("need num-vars >= 1, clauses >= 0, freq >= 1")
    rng = random.Random(seed)
    counts = {v: 0 for v in range(1, num_vars + 1)}
    clauses = []
    for _ in range(num_clauses):
        size = min(3, num_vars)
        avail = [v for v, c in counts.items() if c + 1 <= freq]
        if len(avail) < size:
            raise InvalidInputError(
                "cannot place %d clauses with %d variables at frequency %d"
                % (num_clauses, num_vars, freq)
            )
        vs = rng.sample(sorted(avail), size)
        for v in vs:
            counts[v] += 1
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    return CnfFormula(num_vars, tuple(clauses), freq)


def _gen_sat_outcome(gen, *args):
    try:
        return gen(*args)
    except InvalidInputError as exc:
        return "error: %s" % exc


def _gen_sat_cases():
    cases = [(nv, m, freq, seed) for nv in range(1, 14) for m in range(13)
             for freq in range(1, 4) for seed in range(2)]
    cases += [(0, 1, 1, 0), (3, -1, 1, 0), (3, 1, 0, 0), (600, 400, 2, 5)]
    # The chain81 pool draws and criterion 7's, failed draws included.
    for k in range(1, 70):
        rng = random.Random(7000 + k)
        nv = rng.randint(2, 6)
        cases.append((nv, rng.randint(1, min(nv, 4)), 3, 7000 + k))
    rng = random.Random(7777)
    for k in range(1, 30):
        nv = rng.randint(2, 6)
        cases.append((nv, rng.randint(1, min(nv, 4)), 3, 1000 + k))
    return cases


def test_gen_sat_matches_reference():
    outcomes = [_gen_sat_outcome(cli.gen_sat, *args)
                for args in _gen_sat_cases()]
    assert outcomes == [_gen_sat_outcome(_gen_sat_reference, *args)
                        for args in _gen_sat_cases()]
    # Both kinds of outcome occur, and full variables do.
    assert any(isinstance(o, str) and "cannot place" in o for o in outcomes)
    assert any(isinstance(o, CnfFormula) and o.clauses and
               max(o.frequencies().values()) == o.freq_bound
               for o in outcomes)


def test_gen_sat_memory_follows_the_clauses_not_the_variables(capsys):
    code, out, err = run(capsys, ["gen", "sat", "--num-vars",
                                  "100000000000", "--num-clauses", "3"])
    assert (code, err) == (0, "")
    cnf = formats.read_dimacs(out)
    assert cnf.num_vars == 10 ** 11 and len(cnf.clauses) == 3


def test_gen_graph_degree_bound(tmp_path, capsys):
    out = tmp_path / "g.graph"
    assert cli.main(["gen", "graph", "--num-vertices", "8", "--num-edges",
                     "10", "--max-degree", "3", "--seed", "1",
                     "--out", str(out)]) == 0
    capsys.readouterr()
    g = formats.read_graph(out.read_text())
    assert len(g.edges()) == 10
    assert max(d for _, d in g.degree()) <= 3


def test_gen_graph_infeasible(capsys):
    code, _, err = run(capsys, ["gen", "graph", "--num-vertices", "3",
                                "--num-edges", "9", "--max-degree", "2"])
    assert code == 2
    # A single vertex has no pair to draw an edge from.
    code, _, err = run(capsys, ["gen", "graph", "--num-vertices", "1",
                                "--num-edges", "1"])
    assert code == 2 and "cannot reach 1 edges" in err


_INT_OPTIONS = [
    (["gen", "sat", "--num-clauses", "2"], "--num-vars"),
    (["gen", "sat", "--num-vars", "5"], "--num-clauses"),
    (["gen", "sat", "--num-vars", "5", "--num-clauses", "2"], "--freq"),
    (["gen", "sat", "--num-vars", "5", "--num-clauses", "2"], "--seed"),
    (["gen", "graph", "--num-edges", "2"], "--num-vertices"),
    (["gen", "graph", "--num-vertices", "5"], "--num-edges"),
    (["gen", "graph", "--num-vertices", "5", "--num-edges", "2"],
     "--max-degree"),
    (["gen", "graph", "--num-vertices", "5", "--num-edges", "2"], "--seed"),
    (["reduce", "in.graph", "--steps", "col2clique", "--out-dir", "o"],
     "--degree-bound"),
    (["reduce", "in.graph", "--steps", "col2clique", "--out-dir", "o"],
     "--row-cap"),
    (["solve", "in.pcsp"], "--limit"),
]


@pytest.mark.parametrize("argv, option", _INT_OPTIONS)
@pytest.mark.parametrize("token", ["1_0", "\u0665", "+5", " 5", "5.0", "0x5"])
def test_integer_options_take_only_ascii_decimal_integers(
        tmp_path, capsys, monkeypatch, argv, option, token):
    # "1_0" and the Arabic-Indic five are integers to int(), not to the
    # formats; the CLI refuses them, and every other non-integer, with 2.
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + [option, token])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert "%s: invalid integer: %r" % (option, token) in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("token", ["1_0", "\u0665", "+5", "5.0"])
def test_dummies_take_only_ascii_decimal_integers(tmp_path, capsys, token):
    src = tmp_path / "grid.grid"
    src.write_text("p grid 2\nc kind clique\ne 1 1 2 2\n")
    code, _, err = run(capsys, ["reduce", str(src), "--steps",
                                "clique2perm6", "--dummies", token,
                                "--out-dir", str(tmp_path / "o")])
    assert code == 2 and "--dummies" in err and repr(token) in err
    assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------------------
# reduce
# ---------------------------------------------------------------------------

def test_reduce_graph_chain_artifacts(tmp_path, capsys):
    src = tmp_path / "p3.graph"
    src.write_text("p edge 3 2\ne 1 2\ne 2 3\n")
    out = tmp_path / "chain"
    code, stdout, _ = run(capsys, [
        "reduce", str(src), "--steps", "col2clique,clique2biclique",
        "--out-dir", str(out), "--degree-bound", "2"])
    assert code == 0
    assert "2 artifact(s)" in stdout
    files = sorted(os.listdir(out))
    assert files == ["step1-col2clique.grid", "step2-clique2biclique.grid"]
    grid = formats.read_grid((out / files[0]).read_text())
    assert grid.kind == "clique" and grid.side == 3
    h = formats.read_grid((out / files[1]).read_text())
    assert h.kind == "biclique" and h.side == 6


def test_reduce_stop_after(tmp_path, capsys):
    src = tmp_path / "p3.graph"
    src.write_text("p edge 3 2\ne 1 2\ne 2 3\n")
    out = tmp_path / "chain"
    code, _, _ = run(capsys, [
        "reduce", str(src), "--steps", "col2clique,clique2biclique",
        "--stop-after", "col2clique",
        "--out-dir", str(out), "--degree-bound", "2"])
    assert code == 0
    assert os.listdir(out) == ["step1-col2clique.grid"]


def test_reduce_perm6_step(tmp_path, capsys):
    src = tmp_path / "grid.grid"
    src.write_text("p grid 2\nc kind clique\ne 1 1 2 2\n")
    out = tmp_path / "out"
    code, _, _ = run(capsys, ["reduce", str(src), "--steps", "clique2perm6",
                              "--out-dir", str(out)])
    assert code == 0
    cert = formats.read_certificate(
        (out / "step1-clique2perm6.pcsp").read_text())
    assert cert.kind == "perm6" and cert.n == 2
    assert len(cert.dummy_vars) == 6      # sufficient policy default


def test_reduce_dummies_policies(tmp_path, capsys):
    src = tmp_path / "grid.grid"
    src.write_text("p grid 2\nc kind clique\ne 1 1 2 2\n")
    for policy, want in [("paper", 4), ("sufficient", 6), ("7", 7)]:
        out = tmp_path / ("out-" + policy)
        code, _, _ = run(capsys, ["reduce", str(src), "--steps",
                                  "clique2perm6", "--dummies", policy,
                                  "--out-dir", str(out)])
        assert code == 0
        cert = formats.read_certificate(
            (out / "step1-clique2perm6.pcsp").read_text())
        assert len(cert.dummy_vars) == want


def test_reduce_dummies_must_be_a_count(tmp_path, capsys):
    src = tmp_path / "grid.grid"
    src.write_text("p grid 2\nc kind clique\ne 1 1 2 2\n")
    code, out, err = run(capsys, ["reduce", str(src), "--steps",
                                  "clique2perm6", "--dummies", "abc",
                                  "--out-dir", str(tmp_path / "o")])
    assert code == 2
    assert "--dummies" in err and "'abc'" in err


def test_reduce_checks_dummies_before_any_step(tmp_path, capsys):
    src = tmp_path / "tri.graph"
    src.write_text("p edge 3 3\ne 1 2\ne 1 3\ne 2 3\n")
    out = tmp_path / "o"
    code, _, err = run(capsys, ["reduce", str(src), "--steps",
                                "col2clique,clique2perm6", "--dummies", "abc",
                                "--out-dir", str(out)])
    assert code == 2 and "'abc'" in err
    assert not out.exists() or not any(out.iterdir())


def test_reduce_rejects_bad_step_composition(tmp_path, capsys):
    src = tmp_path / "x.graph"
    src.write_text("p edge 1 0\n")
    code, _, err = run(capsys, ["reduce", str(src), "--steps",
                                "col2clique,biclique2perm4",
                                "--out-dir", str(src.parent / "o")])
    assert code == 2
    assert "consumes" in err


def test_reduce_rejects_wrong_input_kind(tmp_path, capsys):
    src = tmp_path / "x.cnf"
    src.write_text("p cnf 1 1\n1 0\n")
    code, _, err = run(capsys, ["reduce", str(src), "--steps", "col2clique",
                                "--out-dir", str(src.parent / "o")])
    assert code == 2


@pytest.mark.parametrize("text, step", [
    ("p pcsp 2 1 2\n1 2 0\n", "col2clique"),
    ("p pcsp 1 0 1\nc target 0\nc param kind perm6\nc param n 1\n",
     "clique2perm6"),
], ids=["instance", "certificate"])
def test_reduce_names_the_step_a_pcsp_input_does_not_fit(tmp_path, capsys,
                                                          text, step):
    src = tmp_path / "x.pcsp"
    src.write_text(text)
    code, _, err = run(capsys, ["reduce", str(src), "--steps", step,
                                "--out-dir", str(tmp_path / "o")])
    assert (code, err) == (2, "error: step %s consumes %s, input is pcsp\n"
                           % (step, cli._STEPS[step][0]))
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("text, line, found", [
    ("", 1, "end of input"),
    ("c only a comment\n\n", 1, "end of input"),
    ("e 1 2\n", 1, "e 1 2"),
    ("c made by hand\n\ne 1 2\np edge 2 1\n", 3, "e 1 2"),
    ("p foo 1\n", 1, "p foo 1"),
    ("c x\np\n", 2, "p"),
], ids=["empty", "comments", "body-first", "body-before-header", "unknown",
        "no-word"])
@pytest.mark.parametrize("command", ["solve", "reduce"])
def test_a_missing_or_unknown_header_is_a_positioned_error(
        tmp_path, capsys, command, text, line, found):
    src = tmp_path / "input"
    src.write_text(text)
    argv = [command, str(src)]
    if command == "reduce":
        argv += ["--steps", "col2clique", "--out-dir", str(tmp_path / "o")]
    code, out, err = run(capsys, argv)
    offset = sum(len(l) + 1 for l in text.split("\n")[:line - 1])
    assert (code, out) == (2, "")
    assert err == ("error: line %d (byte %d): expected a 'p cnf|edge|grid|"
                   "pcsp' header, found %r\n" % (line, offset, found))


def test_graph_self_loop_is_usage_error(tmp_path, capsys):
    # No proper coloring exists, so neither a coloring nor a grid may come
    # out: the reader names the loop's line.
    src = tmp_path / "loop.graph"
    src.write_text("p edge 3 2\ne 1 2\ne 3 3\n")
    for argv in (["solve", str(src)],
                 ["reduce", str(src), "--steps", "col2clique", "--out-dir",
                  str(tmp_path / "o")]):
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert err.startswith("error: line 3 (byte 17): expected two "
                              "distinct vertices")
    assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_cnf(tmp_path, capsys):
    f = tmp_path / "f.cnf"
    f.write_text("p cnf 2 2\n1 2 0\n-1 0\n")
    code, out, _ = run(capsys, ["solve", str(f)])
    assert code == 0
    assert out.startswith("SAT ")
    f.write_text("p cnf 1 2\n1 0\n-1 0\n")
    code, out, _ = run(capsys, ["solve", str(f)])
    assert code == 1
    assert out.strip() == "UNSAT"


def test_solve_graph(tmp_path, capsys):
    f = tmp_path / "g.graph"
    f.write_text("p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n")
    code, out, _ = run(capsys, ["solve", str(f)])
    assert code == 0 and out.startswith("COLORING ")
    f.write_text("p edge 4 6\ne 1 2\ne 1 3\ne 1 4\ne 2 3\ne 2 4\ne 3 4\n")
    code, out, _ = run(capsys, ["solve", str(f)])
    assert code == 1 and out.strip() == "NOT 3-COLORABLE"


def test_solve_grid(tmp_path, capsys):
    f = tmp_path / "g.grid"
    f.write_text("p grid 2\nc kind clique\ne 1 1 2 2\n")
    code, out, _ = run(capsys, ["solve", str(f)])
    assert code == 0 and out.strip() == "SELECTION 1 2"
    f.write_text("p grid 2\nc kind clique\n")
    code, out, _ = run(capsys, ["solve", str(f)])
    assert code == 1 and out.strip() == "NO ROW TRANSVERSAL"


def test_solve_pcsp_dp3_and_brute(tmp_path, capsys):
    f = tmp_path / "i.pcsp"
    f.write_text("p pcsp 3 2 3\n1 2 3 0\n1 3 2 0\n")
    code, out, _ = run(capsys, ["solve", str(f)])
    assert code == 0
    assert "optimum 1" in out
    code, out, _ = run(capsys, ["solve", str(f), "--method", "brute"])
    assert code == 0 and "optimum 1" in out


@pytest.mark.parametrize("method", ["sat", "coloring", "clique",
                                    "biclique"])
def test_solve_method_names_only_a_pcsp_solver(tmp_path, capsys, method):
    # The header picks the solver of a CNF, graph or grid file.
    f = tmp_path / "f.cnf"
    f.write_text("p cnf 1 1\n1 0\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", str(f), "--method", method])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert "invalid choice: %r" % method in err


@pytest.mark.parametrize("text", ["p cnf 1 1\n1 0\n", "p edge 2 1\ne 1 2\n",
                                  "p grid 2\nc kind clique\n"],
                         ids=["cnf", "graph", "grid"])
def test_solve_method_applies_to_pcsp_files_only(tmp_path, capsys, text):
    f = tmp_path / "input"
    f.write_text(text)
    code, out, err = run(capsys, ["solve", str(f), "--method", "brute"])
    assert (code, out, err) == (
        2, "", "error: --method brute applies to pcsp files only\n")


def test_solve_brute_past_the_prefix_table_is_a_usage_error(tmp_path,
                                                            capsys):
    # 30! / 9! prefixes cannot be counted in one array: the limit raised
    # to 30 ends in an error line, not a traceback.
    f = tmp_path / "i.pcsp"
    f.write_text("p pcsp 30 1 4\n1 2 3 4 0\n")
    code, out, err = run(capsys, ["solve", str(f), "--limit", "30"])
    assert (code, out) == (2, "")
    assert err == "error: 30 variables: too many prefixes to bound\n"


def _random_pcsp(path, seed, n, arities, count):
    rng = random.Random(seed)
    inst = PermCspInstance.make(n, [tuple(rng.sample(range(1, n + 1),
                                                     rng.choice(arities)))
                                    for _ in range(count)])
    path.write_text(formats.write_instance(inst))
    return inst


def test_solve_dp3_on_twenty_variables(tmp_path, capsys):
    f = tmp_path / "i.pcsp"
    inst = _random_pcsp(f, 20, 20, (2, 3), 60)
    code, out, _ = run(capsys, ["solve", str(f)])
    assert code == 0
    optimum, witness = out.splitlines()
    seq = tuple(int(v) for v in witness.split()[1:])
    assert optimum == "optimum %d" % evaluate(inst,
                                              Ordering.from_sequence(seq))


def test_solve_pcsp_no_applicable_method(tmp_path, capsys):
    f = tmp_path / "i.pcsp"
    f.write_text("p pcsp 14 1 4\n1 2 3 4 0\n")
    code, _, err = run(capsys, ["solve", str(f)])
    assert code == 2
    assert "no applicable method" in err


def _write_n1_chain(tmp_path, capsys):
    grid = tmp_path / "h.grid"
    h = reduce_dcnnc_to_dcnnb(GridGraph(1, D=1))
    grid.write_text(formats.write_grid(h))
    out = tmp_path / "red"
    code, _, _ = run(capsys, ["reduce", str(grid), "--steps",
                              "biclique2perm4", "--out-dir", str(out)])
    assert code == 0
    return grid, out / "step1-biclique2perm4.pcsp"


def test_solve_certificate_meets_target(tmp_path, capsys):
    grid, cert = _write_n1_chain(tmp_path, capsys)
    code, out, _ = run(capsys, ["solve", str(cert), "--source", str(grid)])
    assert code == 0
    assert "optimum 22" in out and "MEETS TARGET 22" in out


def test_solve_certificate_below_target(tmp_path, capsys):
    grid, cert = _write_n1_chain(tmp_path, capsys)
    # Remove the diagonal pairing edge: no transversal, optimum drops.
    bare = tmp_path / "bare.grid"
    bare.write_text(formats.write_grid(GridGraph(2, kind="biclique", D=1)))
    code, out, _ = run(capsys, ["reduce", str(bare), "--steps",
                                "biclique2perm4", "--dummies", "3",
                                "--out-dir", str(tmp_path / "red2")])
    assert code == 0
    cert2 = tmp_path / "red2" / "step1-biclique2perm4.pcsp"
    code, out, _ = run(capsys, ["solve", str(cert2), "--source", str(bare)])
    assert code == 1
    assert "BELOW TARGET" in out


def test_solve_rejects_constraint_beyond_header_arity(tmp_path, capsys):
    # The header promises arity 3; trusting it would let dp3 report an
    # optimum that its own witness does not reach.
    f = tmp_path / "i.pcsp"
    f.write_text("p pcsp 4 2 3\n1 2 3 4 0\n4 1 0\n")
    code, out, err = run(capsys, ["solve", str(f)])
    assert code == 2 and out == ""
    assert "line 2" in err


def test_solve_checks_the_witness(tmp_path, capsys, monkeypatch):
    # A solver that overstates its optimum must not get past the CLI.
    from dataclasses import replace
    from permcsp import solvers
    f = tmp_path / "i.pcsp"
    f.write_text("p pcsp 3 2 3\n1 2 3 0\n1 3 2 0\n")
    real = solvers.solve_dp3
    monkeypatch.setattr(solvers, "solve_dp3",
                        lambda inst: replace(real(inst), optimum=2))
    code, out, err = run(capsys, ["solve", str(f)])
    assert code == 3 and out == ""
    assert "witness satisfies 1" in err


def _perm6_files(tmp_path, capsys):
    grid = tmp_path / "g.grid"
    grid.write_text("p grid 2\nc kind clique\ne 1 1 2 2\n")
    assert cli.main(["reduce", str(grid), "--steps", "clique2perm6",
                     "--out-dir", str(tmp_path / "red")]) == 0
    capsys.readouterr()
    return grid, tmp_path / "red" / "step1-clique2perm6.pcsp"


def test_solve_perm6_certificate_against_another_grid(tmp_path, capsys):
    _, cert = _perm6_files(tmp_path, capsys)
    other = tmp_path / "other.grid"
    other.write_text("p grid 2\nc kind clique\ne 1 2 2 1\n")
    code, out, err = run(capsys, ["solve", str(cert), "--source", str(other)])
    assert code == 2 and out == ""
    assert "does not match" in err


def test_swapped_role_lines_are_bad_input(tmp_path, capsys):
    # The constraints still match the grid, but rows 1 and 2 trade
    # variables: that is a wrong certificate, not an internal error.
    grid, cert = _perm6_files(tmp_path, capsys)
    text = cert.read_text()
    cert.write_text(text.replace("c role 7 r 1", "c role 8 r 0")
                    .replace("c role 8 r 2", "c role 7 r 2")
                    .replace("c role 8 r 0", "c role 8 r 1"))
    code, out, err = run(capsys, ["solve", str(cert), "--source", str(grid)])
    assert code == 2 and "role lines" in err
    code, out, _ = run(capsys, ["verify", str(cert), str(grid)])
    assert code == 1 and "FAIL role lines do not match" in out


@pytest.mark.parametrize("old, new", [
    ("c role 5 d 5", "c role 5 d"),
    ("c target 48", "c target x"),
])
def test_bad_certificate_trailer_is_usage_error(tmp_path, capsys, old, new):
    grid, cert = _perm6_files(tmp_path, capsys)
    text = cert.read_text()
    assert old + "\n" in text
    cert.write_text(text.replace(old + "\n", new + "\n"))
    lineno = text.split("\n").index(old) + 1
    for argv in (["solve", str(cert), "--source", str(grid)],
                 ["verify", str(cert), str(grid)]):
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert err.startswith("error: line %d (byte " % lineno)


def test_solve_takes_a_target_comment_for_a_trailer_only_by_its_token(
        tmp_path, capsys):
    f = tmp_path / "i.pcsp"
    for comment in ("c target: a tiny example", "c my target 5"):
        f.write_text(comment + "\np pcsp 3 1 3\n1 2 3 0\n")
        code, out, _ = run(capsys, ["solve", str(f)])
        assert code == 0 and out.startswith("optimum 1\n")
    f.write_text("c target 1\np pcsp 3 1 3\n1 2 3 0\n")
    code, _, err = run(capsys, ["solve", str(f)])
    assert code == 2 and "missing trailer" in err


def _triangle_chain(tmp_path, capsys):
    src = tmp_path / "tri.graph"
    src.write_text("p edge 3 3\ne 1 2\ne 1 3\ne 2 3\n")
    out = tmp_path / "chain"
    code, _, _ = run(capsys, [
        "reduce", str(src), "--degree-bound", "2", "--steps",
        "col2clique,clique2biclique,biclique2perm4", "--out-dir", str(out)])
    assert code == 0
    return out / "step2-clique2biclique.grid", out / "step3-biclique2perm4.pcsp"


@pytest.mark.parametrize("old, new, why", [
    ("c param D 3", "c param D 1", "D mismatch: regenerated 3, stated 1"),
    ("c param source-edges 45", "c param source-edges 7",
     "source-edges mismatch: regenerated 45, stated 7"),
    ("c param delta-sum 15", "c param delta-sum 16",
     "delta-sum mismatch: regenerated 15, stated 16"),
    ("c target 4074", "c target 4075",
     "target mismatch: regenerated 4074, stated 4075"),
    ("c param n 3", "c param n 2", "n mismatch: regenerated 3, stated 2"),
    ("c param n 2", "c param n 2\nc param D 4",
     "D mismatch: regenerated None, stated 4"),
])
def test_tampered_certificate_field_fails(tmp_path, capsys, old, new, why):
    if old == "c param n 2":                # an arity-6 certificate
        grid, cert = _perm6_files(tmp_path, capsys)
    else:
        grid, cert = _triangle_chain(tmp_path, capsys)
    text = cert.read_text()
    assert old + "\n" in text
    cert.write_text(text.replace(old + "\n", new + "\n"))
    code, out, _ = run(capsys, ["verify", str(cert), str(grid)])
    assert code == 1 and out.endswith("FAIL %s\n" % why)
    code, out, err = run(capsys, ["solve", str(cert), "--source", str(grid)])
    assert (code, out, err) == (2, "", "error: %s\n" % why)


def test_grid_of_another_size_fails_before_regenerating(tmp_path, capsys,
                                                        monkeypatch):
    # The triangle's n = 3 certificate against a 54-row biclique grid:
    # verify and solve --source name the same n, and neither rebuilds the
    # 54-row certificate to find it.
    from permcsp import reductions

    _, cert = _triangle_chain(tmp_path, capsys)
    monkeypatch.chdir(tmp_path)
    for argv in (["gen", "graph", "--num-vertices", "25", "--num-edges",
                  "27", "--max-degree", "3", "--seed", "5003", "--out",
                  "g.graph"],
                 ["reduce", "g.graph", "--steps", "col2clique,clique2biclique",
                  "--out-dir", "d"]):
        assert run(capsys, argv)[0] == 0
    grid = "d/step2-clique2biclique.grid"

    def regenerate(*_, **__):
        raise AssertionError("the certificate was regenerated")
    monkeypatch.setattr(reductions, "reduce_dcnnb_to_perm4", regenerate)
    why = "n mismatch: regenerated 27, stated 3"
    code, out, _ = run(capsys, ["verify", str(cert), grid])
    assert code == 1 and out.endswith("FAIL %s\n" % why)
    code, out, err = run(capsys, ["solve", str(cert), "--source", grid])
    assert (code, out, err) == (2, "", "error: %s\n" % why)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_pass(tmp_path, capsys):
    grid, cert = _write_n1_chain(tmp_path, capsys)
    code, out, _ = run(capsys, ["verify", str(cert), str(grid)])
    assert code == 0
    assert "check bipartite-symmetry pass" in out
    assert "check regularity pass" in out
    assert "check stability pass" in out
    assert out.rstrip().endswith("PASS")


def test_verify_detects_tampered_target(tmp_path, capsys):
    grid, cert = _write_n1_chain(tmp_path, capsys)
    text = cert.read_text().replace("c target 22", "c target 23")
    cert.write_text(text)
    code, out, _ = run(capsys, ["verify", str(cert), str(grid)])
    assert code == 1
    assert "FAIL target mismatch" in out


def test_verify_detects_lost_constraint(tmp_path, capsys):
    grid, cert = _write_n1_chain(tmp_path, capsys)
    lines = cert.read_text().split("\n")
    # Drop the last constraint line and fix the header count.
    drop = max(i for i, l in enumerate(lines)
               if l and not l.startswith(("c", "p")))
    del lines[drop]
    lines[0] = lines[0].replace(" 22 ", " 21 ")
    cert.write_text("\n".join(lines))
    code, out, _ = run(capsys, ["verify", str(cert), str(grid)])
    assert code == 1
    assert "does not match the source grid" in out


def test_verify_perm6(tmp_path, capsys):
    grid = tmp_path / "g.grid"
    grid.write_text("p grid 2\nc kind clique\ne 1 1 2 2\n")
    out = tmp_path / "red"
    assert cli.main(["reduce", str(grid), "--steps", "clique2perm6",
                     "--out-dir", str(out)]) == 0
    capsys.readouterr()
    cert = out / "step1-clique2perm6.pcsp"
    code, stdout, _ = run(capsys, ["verify", str(cert), str(grid)])
    assert code == 0
    assert "source row-clique: found" in stdout
    assert stdout.rstrip().endswith("PASS")


# ---------------------------------------------------------------------------
# entry point plumbing
# ---------------------------------------------------------------------------

def test_unreadable_input_is_usage_error(tmp_path, capsys):
    code, _, err = run(capsys, ["solve", str(tmp_path / "missing.pcsp")])
    assert code == 2
    assert "cannot read" in err


@pytest.mark.parametrize("data, where, found", [
    (b"p grid 2\n\xff\xfe e 1 1 2 2\n", (2, 9), "byte 0xff"),
    ("p grid 2\ne \u0661 1 2 2\n".encode(), (2, 11), "byte 0xd9"),
])
@pytest.mark.parametrize("command", ["solve", "verify", "reduce"])
def test_non_ascii_grid_is_a_positioned_usage_error(tmp_path, capsys, data,
                                                    where, found, command):
    bad = tmp_path / "bad.grid"
    bad.write_bytes(data)
    if command == "solve":
        argv = ["solve", str(bad)]
    elif command == "reduce":
        argv = ["reduce", str(bad), "--steps", "clique2perm6",
                "--out-dir", str(tmp_path / "out")]
    else:
        _, cert = _triangle_chain(tmp_path, capsys)
        argv = ["verify", str(cert), str(bad)]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err == ("error: line %d (byte %d): expected ASCII text, found %r\n"
                   % (where + (found,)))


@pytest.mark.parametrize("token", ["+1", "1_0"])
def test_loose_integer_in_a_grid_is_a_usage_error(tmp_path, capsys, token):
    bad = tmp_path / "bad.grid"
    bad.write_text("p grid 2\ne %s 1 2 2\n" % token)
    code, out, err = run(capsys, ["solve", str(bad)])
    assert (code, out) == (2, "")
    assert err == ("error: line 2 (byte 9): expected an integer, found %r\n"
                   % token)


def test_non_ascii_certificate_is_a_usage_error(tmp_path, capsys):
    grid, cert = _triangle_chain(tmp_path, capsys)
    text = cert.read_bytes()
    cert.write_bytes(text.replace(b"c target", b"c \xe9 target", 1))
    at = text.index(b"c target") + 2
    for argv in (["verify", str(cert), str(grid)],
                 ["solve", str(cert), "--source", str(grid)]):
        code, _, err = run(capsys, argv)
        assert code == 2
        assert err.startswith("error: line %d (byte %d): expected ASCII text"
                              % (text.count(b"\n", 0, at) + 1, at))


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "permcsp.cli", "gen", "sat", "--num-vars", "3",
         "--num-clauses", "2", "--seed", "0"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("p cnf 3 2")


# ---------------------------------------------------------------------------
# validation policy and header errors
# ---------------------------------------------------------------------------

def test_each_grid_condition_is_checked_once_per_entry_point(
        tmp_path, capsys, count_checks):
    grid, cert = _triangle_chain(tmp_path, capsys)
    # G: regularity and stability, by col2clique.  H: the three, by
    # clique2biclique; biclique2perm4 and G's stability check in
    # clique2biclique read the stored results.
    assert count_checks == {"check_biclique_structure": 1,
                            "check_regularity": 2, "check_stability": 2}
    for argv in (["verify", str(cert), str(grid)],
                 ["solve", str(cert), "--source", str(grid)]):
        count_checks.update(dict.fromkeys(count_checks, 0))
        code, stdout, _ = run(capsys, argv)
        assert code == 0
        assert stdout.rstrip().endswith(("PASS", "MEETS TARGET 4074"))
        # Once for the grid read from the file, whatever asks again.
        assert count_checks == dict.fromkeys(count_checks, 1)


@pytest.mark.parametrize("text, why", [
    ("p grid 0\n", "side must be positive"),
    ("p grid 3\nc kind biclique\n", "biclique grids need an even side"),
    ("c made by hand\np grid -1 2\n", "side must be positive"),
])
def test_bad_grid_header_names_its_line(tmp_path, capsys, text, why):
    path = tmp_path / "bad.grid"
    path.write_text(text)
    code, _, err = run(capsys, ["solve", str(path)])
    lineno = text.count("\n", 0, text.index("p grid")) + 1
    assert code == 2
    assert err.startswith("error: line %d (byte %d)"
                          % (lineno, text.index("p grid")))
    assert why in err


def test_edgeless_300_row_grid_is_read_and_has_no_transversal(
        tmp_path, capsys, monkeypatch):
    # Stored by row pair, 300 rows take a 90 KB kind table (the dense
    # matrix took 7.5 GiB); every pair is empty, so no search runs.
    from permcsp import solvers

    def search(*_):
        raise AssertionError("an empty row pair needs no search")
    monkeypatch.setattr(solvers, "_row_transversal", search)
    path = tmp_path / "big.grid"
    path.write_text("p grid 300\nc kind clique\n")
    code, out, _ = run(capsys, ["solve", str(path)])
    assert (code, out) == (1, "NO ROW TRANSVERSAL\n")


def test_grid_too_large_to_allocate_is_a_usage_error(tmp_path):
    import resource

    path = tmp_path / "big.grid"
    path.write_text("p grid 50000\nc kind clique\n")  # 2.3 GiB of pair kinds

    def cap_address_space():
        limit = 1500 * 2 ** 20
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "permcsp.cli", "solve", str(path)],
        capture_output=True, text=True, preexec_fn=cap_address_space,
        env=env, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: line 1 (byte 0): expected a grid "
                                  "that fits in memory")


def test_input_too_deep_for_a_solver_is_a_usage_error(tmp_path, capsys,
                                                     monkeypatch):
    # A RecursionError escaping a command still ends in exit 2 with an
    # error line, not a traceback.
    from permcsp import solvers

    def too_deep(graph):
        raise RecursionError("maximum recursion depth exceeded")
    monkeypatch.setattr(solvers, "solve_3coloring", too_deep)
    path = tmp_path / "edge.graph"
    path.write_text("p edge 2 1\ne 1 2\n")
    code, _, err = run(capsys, ["solve", str(path)])
    assert (code, err) == (2, "error: input too large: maximum recursion "
                              "depth exceeded\n")


@pytest.mark.parametrize("kind, n", [("graph", 1500), ("cnf", 1500),
                                     ("graph", 10000), ("cnf", 10000)],
                         ids=["graph", "cnf", "graph-10000", "cnf-10000"])
def test_solve_runs_past_the_recursion_limit(tmp_path, kind, n):
    # The 3-coloring search and DPLL branch once per vertex or variable
    # here: a path graph, and the chain (x_i or x_{i+1}).  The coloring
    # search keeps one trail of mask changes, so 10,000 vertices fit;
    # DPLL propagates from occurrence lists, so 10,000 variables do.
    path = tmp_path / ("chain." + kind)
    if kind == "graph":
        path.write_text("p edge %d %d\n" % (n, n - 1) + "".join(
            "e %d %d\n" % (v, v + 1) for v in range(1, n)))
    else:
        path.write_text("p cnf %d %d\n" % (n, n - 1) + "".join(
            "%d %d 0\n" % (v, v + 1) for v in range(1, n)))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "permcsp.cli", "solve", str(path)],
        capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert time.perf_counter() - start < 10
    word, *items = proc.stdout.split()
    if kind == "graph":
        color = dict(map(int, item.split(":")) for item in items)
        assert word == "COLORING" and sorted(color) == list(range(1, n + 1))
        assert set(color.values()) <= {0, 1, 2}
        assert all(color[v] != color[v + 1] for v in range(1, n))
    else:
        value = {abs(int(lit)): int(lit) > 0 for lit in items}
        assert word == "SAT" and sorted(value) == list(range(1, n + 1))
        assert all(value[v] or value[v + 1] for v in range(1, n))


def test_out_of_memory_is_a_usage_error(capsys, monkeypatch):
    def exhausted(args):
        raise MemoryError()
    monkeypatch.setattr(cli, "cmd_gen", exhausted)
    code, _, err = run(capsys, ["gen", "sat", "--num-vars", "3",
                                "--num-clauses", "2"])
    assert (code, err) == (2, "error: input too large: out of memory\n")


def test_gen_graph_with_too_many_vertices_is_a_usage_error(capsys):
    code, _, err = run(capsys, ["gen", "graph", "--num-vertices",
                                "1" + "0" * 20, "--num-edges", "1"])
    assert code == 2 and err.startswith("error: input too large: ")


_LONG = "7" * 5000          # past Python's default int digit limit, 4,300


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python's int() takes any number of digits")
@pytest.mark.parametrize("how, text, line", [
    ("solve", "p pcsp 2 1 2\n1 %s 0\n", 2),
    ("solve", "p cnf 2 1\n1 %s 0\n", 2),
    ("solve", "p edge 2 1\ne 1 %s\n", 2),
    ("solve", "p grid %s\n", 1),
    ("solve", "p grid 2\nc kind clique\ne 1 1 2 %s\n", 3),
    ("solve", "p grid 2\nd 1 2 %s\n", 2),
    ("solve", "p pcsp 1 0 1\nc target 0\nc param kind perm6\n"
              "c param n %s\n", 4),
    ("ordering", "2 %s 1\n", 1),
    ("dummies", None, None),
], ids=["pcsp", "dimacs", "graph", "grid-header", "grid-edge", "grid-delta",
        "certificate", "ordering", "dummies"])
def test_an_integer_past_the_digit_limit_is_an_error(tmp_path, capsys, how,
                                                     text, line):
    # int() refuses a decimal string past the limit; each reader names
    # the token at its line, and --dummies refuses it as a count.
    if how == "dummies":
        src = tmp_path / "grid.grid"
        src.write_text("p grid 2\nc kind clique\ne 1 1 2 2\n")
        code, _, err = run(capsys, ["reduce", str(src), "--steps",
                                    "clique2perm6", "--dummies", _LONG,
                                    "--out-dir", str(tmp_path / "o")])
        assert code == 2 and err.startswith("error: --dummies expects ")
        return
    text %= _LONG
    offset = sum(len(l) + 1 for l in text.split("\n")[:line - 1])
    want = ("line %d (byte %d): expected fewer digits, found '%s...'"
            % (line, offset, _LONG[:20]))
    if how == "ordering":
        with pytest.raises(formats.FormatError) as exc:
            formats.read_ordering(text)
        assert str(exc.value) == want
        return
    path = tmp_path / "input"
    path.write_text(text)
    code, _, err = run(capsys, ["solve", str(path)])
    assert (code, err) == (2, "error: %s\n" % want)


def test_no_package_path_reads_a_dense_grid_view(tmp_path, capsys,
                                                  monkeypatch):
    # Grids are stored by row pair; the dense view exists for tests and
    # the benchmark only.  With it made to raise, the in-memory chain
    # and the CLI's reduce, solve and verify still run on the triangle's
    # 3- and 6-row grids and on a 27-row grid and its 54-row double.
    from permcsp import solvers, validate
    from permcsp.reductions import (CnfFormula, reduce_coloring_to_dcnnc,
                                    reduce_sat_to_coloring)

    def dense(*_):
        raise AssertionError("a dense grid view was read")
    monkeypatch.setattr(GridGraph, "adj", property(dense))
    g, bound = reduce_sat_to_coloring(CnfFormula(1, ((1,),), 3))
    grid = reduce_coloring_to_dcnnc(g, degree_bound=bound)
    h = reduce_dcnnc_to_dcnnb(grid)
    assert validate.check_biclique_structure(h).holds
    assert all(validate.check_stability(x, x.D)[0].holds for x in (grid, h))
    assert solvers.solve_row_clique(grid) and solvers.solve_row_biclique(h)
    assert grid.side == 27 and list(grid.edges()) and h.num_edges()
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tri.graph").write_text("p edge 3 3\ne 1 2\ne 1 3\ne 2 3\n")
    calls = [
        ["reduce", "tri.graph", "--degree-bound", "2", "--steps",
         "col2clique,clique2biclique,biclique2perm4", "--out-dir", "t"],
        ["reduce", "t/step1-col2clique.grid", "--steps", "clique2perm6",
         "--out-dir", "t6"],
        ["solve", "t/step3-biclique2perm4.pcsp", "--source",
         "t/step2-clique2biclique.grid"],
        ["verify", "t/step3-biclique2perm4.pcsp",
         "t/step2-clique2biclique.grid"],
        ["solve", "t6/step1-clique2perm6.pcsp", "--source",
         "t/step1-col2clique.grid"],
        ["verify", "t6/step1-clique2perm6.pcsp", "t/step1-col2clique.grid"],
        ["gen", "graph", "--num-vertices", "20", "--num-edges", "20",
         "--max-degree", "3", "--seed", "5000", "--out", "g.graph"],
        ["reduce", "g.graph", "--steps", "col2clique,clique2biclique",
         "--out-dir", "d"],
        ["solve", "d/step1-col2clique.grid"],
        ["solve", "d/step2-clique2biclique.grid"],
    ]
    for argv in calls:
        code, out, err = run(capsys, argv)
        assert code in (0, 1) and not err, (argv, err)
    assert formats.read_grid((tmp_path / "d" / "step2-clique2biclique.grid")
                             .read_text()).side == 54
