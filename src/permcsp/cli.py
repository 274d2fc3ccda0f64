"""Command-line front end: generate, reduce, solve, verify.

Subcommands:

* ``gen sat|graph`` — seeded random f-sparse CNF / bounded-degree graph.
* ``reduce`` — run reduction steps, writing every intermediate artifact
  under --out-dir with step-numbered filenames.
* ``solve`` — solve a file by the kind its header names; a certificate's
  optimum is compared against its embedded target.
* ``verify`` — recheck a certificate against its source instance.

Exit codes: 0 success/pass, 1 fail or below target, 2 usage error,
3 internal-consistency error.  PERMCSP_LOG sets the log level.
"""

import argparse
import bisect
import logging
import os
import random
import sys

from permcsp import formats, reductions, solvers, validate
from permcsp.core import (
    Graph,
    InternalConsistencyError,
    InvalidInputError,
    PermCspError,
    evaluate,
)

log = logging.getLogger("permcsp")

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

# step -> (input kind, output kind); a kind's first word is its extension
_STEPS = {
    "sat2col": ("cnf", "graph"),
    "col2clique": ("graph", "grid-clique"),
    "clique2biclique": ("grid-clique", "grid-biclique"),
    "clique2perm6": ("grid-clique", "pcsp"),
    "biclique2perm4": ("grid-biclique", "pcsp"),
}


def _write(path, value):
    with open(path, "w") as fh:
        formats.dump(value, fh)
    log.info("wrote %s", path)


def _read(path):
    """A file's text; a byte that is not ASCII is kept for the readers to
    refuse with its position."""
    try:
        with open(path, encoding="ascii", errors="surrogateescape") as fh:
            return fh.read()
    except OSError as exc:
        raise InvalidInputError("cannot read %s: %s" % (path, exc))


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def gen_sat(num_vars, num_clauses, freq, seed):
    """Random CNF where every variable occurs at most ``freq`` times.

    Each clause samples its variables from those still below ``freq``, in
    ascending order.  Only the full ones are kept, sorted, so memory grows
    with the clauses and not with ``num_vars``."""
    if num_vars < 1 or num_clauses < 0 or freq < 1:
        raise InvalidInputError("need num-vars >= 1, clauses >= 0, freq >= 1")
    rng = random.Random(seed)
    counts, full, clauses = {}, [], []
    size = min(3, num_vars)

    def gap(i):         # free variables below the i-th full one, plus one
        return full[i] - i

    for _ in range(num_clauses):
        if num_vars - len(full) < size:
            raise InvalidInputError(
                "cannot place %d clauses with %d variables at frequency %d"
                % (num_clauses, num_vars, freq)
            )
        # Sampling indices draws as sampling the free variables would; the
        # j-th free one is j + 1 plus the full ones whose gap is <= j + 1.
        picks = rng.sample(range(num_vars - len(full)), size)
        vs = [j + 1 + bisect.bisect_right(range(len(full)), j + 1, key=gap)
              for j in picks] if full else [j + 1 for j in picks]
        for v in vs:
            counts[v] = counts.get(v, 0) + 1
            if counts[v] == freq:
                bisect.insort(full, v)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    return reductions.CnfFormula(num_vars, tuple(clauses), freq)


def gen_graph(num_vertices, num_edges, max_degree, seed):
    """Random simple graph with all degrees at most ``max_degree``."""
    if num_vertices < 1 or num_edges < 0 or max_degree < 1:
        raise InvalidInputError("need vertices >= 1, edges >= 0, degree >= 1")
    rng = random.Random(seed)
    edges, degree = set(), [0] * (num_vertices + 1)
    attempts = 0
    while len(edges) < num_edges:
        attempts += 1
        if attempts > 200 * (num_edges + 1) or num_vertices < 2:
            raise InvalidInputError(
                "cannot reach %d edges with %d vertices at degree bound %d"
                % (num_edges, num_vertices, max_degree)
            )
        u, v = sorted(rng.sample(range(1, num_vertices + 1), 2))
        if (u, v) in edges or max(degree[u], degree[v]) >= max_degree:
            continue
        edges.add((u, v))
        degree[u] += 1
        degree[v] += 1
    return Graph(num_vertices, edges)


def cmd_gen(args):
    if args.kind == "sat":
        value = gen_sat(args.num_vars, args.num_clauses, args.freq, args.seed)
    else:
        value = gen_graph(args.num_vertices, args.num_edges, args.max_degree,
                          args.seed)
    if args.out:
        _write(args.out, value)
    else:
        formats.dump(value, sys.stdout)
    return EXIT_OK


# ---------------------------------------------------------------------------
# reduce
# ---------------------------------------------------------------------------

def _integer(text):
    """An integer option: ASCII ``-?[0-9]+`` only, as in the formats."""
    if not formats.INTEGER.fullmatch(text):
        raise argparse.ArgumentTypeError("invalid integer: %r" % text)
    return int(text)


def _dummy_policy(text):
    """Parse --dummies: "paper", "sufficient" or an explicit count."""
    try:
        return text if text in ("paper", "sufficient") else _integer(text)
    except (argparse.ArgumentTypeError, ValueError):  # past the digit limit
        raise InvalidInputError("--dummies expects paper, sufficient or a "
                                "count, got %r" % text) from None


def _dummy_count(policy, sufficient):
    """Resolve a parsed --dummies policy to an explicit count (None =
    default); ``sufficient()`` computes the sufficient one."""
    if policy == "sufficient":
        return sufficient()
    return None if policy == "paper" else policy


def _kind(value):
    """The kind of a value read from a file, as in _STEPS."""
    if isinstance(value, reductions.GridGraph):
        return "grid-" + value.kind
    return {reductions.CnfFormula: "cnf", Graph: "graph"}.get(type(value),
                                                              "pcsp")


def _parse_steps(spec_text):
    steps = [s.strip() for s in spec_text.split(",") if s.strip()]
    if not steps:
        raise InvalidInputError("empty step list")
    for s in steps:
        if s not in _STEPS:
            raise InvalidInputError("unknown step %r (known: %s)"
                                    % (s, ", ".join(sorted(_STEPS))))
    for a, b in zip(steps, steps[1:]):
        if _STEPS[a][1] != _STEPS[b][0]:
            raise InvalidInputError(
                "step %s produces %s but step %s consumes %s"
                % (a, _STEPS[a][1], b, _STEPS[b][0])
            )
    return steps


def cmd_reduce(args):
    steps = _parse_steps(args.steps)
    dummies = _dummy_policy(args.dummies)
    if args.stop_after:
        if args.stop_after not in steps:
            raise InvalidInputError("--stop-after names a step not in --steps")
        steps = steps[:steps.index(args.stop_after) + 1]

    value = formats.read(_read(args.input))
    kind = _kind(value)
    if _STEPS[steps[0]][0] != kind:
        raise InvalidInputError("step %s consumes %s, input is %s"
                                % (steps[0], _STEPS[steps[0]][0], kind))

    os.makedirs(args.out_dir, exist_ok=True)
    degree_bound = args.degree_bound
    for num, step in enumerate(steps, start=1):
        log.info("running step %s", step)
        if step == "sat2col":
            value, degree_bound = reductions.reduce_sat_to_coloring(value)
        elif step == "col2clique":
            if degree_bound is None:
                degree_bound = max((d for _, d in value.degree()), default=1)
            value = reductions.reduce_coloring_to_dcnnc(
                value, degree_bound, row_cap=args.row_cap)
        elif step == "clique2biclique":
            value = reductions.reduce_dcnnc_to_dcnnb(value)
        elif step == "clique2perm6":
            count = _dummy_count(dummies, lambda: (
                reductions.sufficient_dummies_perm6(value.side)))
            value = reductions.reduce_clique_to_perm6(value, dummy_count=count)
        else:  # biclique2perm4
            D = value.D if value.D is not None else args.degree_bound
            if D is None:
                raise InvalidInputError(
                    "biclique grid carries no D; pass --degree-bound")
            count = _dummy_count(dummies, lambda: (
                reductions.sufficient_dummies_perm4(
                    value.side // 2, D, value.num_edges())))
            value = reductions.reduce_dcnnb_to_perm4(value, D=D,
                                                     dummy_count=count)
        _write(os.path.join(args.out_dir, "step%d-%s.%s" % (
            num, step, _STEPS[step][1].split("-")[0])), value)
    print("wrote %d artifact(s) to %s" % (len(steps), args.out_dir))
    return EXIT_OK


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def _report_result(instance, result, target):
    got = evaluate(instance, result.witness)
    if got != result.optimum:
        raise InternalConsistencyError(
            "optimum %d, but the witness satisfies %d constraints"
            % (result.optimum, got))
    print("optimum %d" % result.optimum)
    print("witness %s" % " ".join(str(v) for v in result.witness.sequence()))
    if target is None:
        return EXIT_OK
    if result.optimum >= target:
        print("MEETS TARGET %d" % target)
        return EXIT_OK
    print("BELOW TARGET %d" % target)
    return EXIT_FAIL


def cmd_solve(args):
    value = formats.read(_read(args.instance))
    method = args.method
    if method != "auto" and _kind(value) != "pcsp":
        raise InvalidInputError("--method %s applies to pcsp files only"
                                % method)

    if isinstance(value, reductions.CnfFormula):
        assign = solvers.solve_sat(value)
        if assign is None:
            print("UNSAT")
            return EXIT_FAIL
        print("SAT " + " ".join(str(v if assign[v] else -v)
                                for v in sorted(assign)))
        return EXIT_OK
    if isinstance(value, Graph):
        col = solvers.solve_3coloring(value)
        if col is None:
            print("NOT 3-COLORABLE")
            return EXIT_FAIL
        print("COLORING " + " ".join("%d:%d" % (v, col[v])
                                     for v in sorted(col)))
        return EXIT_OK
    if isinstance(value, reductions.GridGraph):
        sel = (solvers.solve_row_biclique if value.kind == "biclique"
               else solvers.solve_row_clique)(value)
        if sel is None:
            print("NO ROW TRANSVERSAL")
            return EXIT_FAIL
        print("SELECTION " + " ".join(str(j) for j in sel.choice))
        return EXIT_OK

    cert = value if isinstance(value, reductions.ReductionCertificate) \
        else None
    instance = cert.instance if cert else value
    if method == "auto":
        if cert is not None and (cert.kind == "perm6"
                                 or args.source is not None):
            method = "convenient"
        elif instance.arity <= 3:
            method = "dp3"
        elif instance.num_vars <= args.limit:
            method = "brute"
        else:
            raise InvalidInputError(
                "no applicable method: arity %d and %d variables exceed "
                "the brute-force limit %d"
                % (instance.arity, instance.num_vars, args.limit)
            )

    if method == "dp3":
        result = solvers.solve_dp3(instance)
    elif method == "brute":
        result = solvers.solve_brute(instance, limit=args.limit)
    else:  # convenient
        if cert is None:
            raise InvalidInputError(
                "--method convenient needs a certificate trailer")
        if args.source is None:
            raise InvalidInputError(
                "an arity-%s certificate needs --source (the grid file)"
                % cert.kind[-1])
        grid = formats.read_grid(_read(args.source))
        result = solvers.solve_convenient(cert, grid)
    return _report_result(instance, result, cert.target if cert else None)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args):
    cert = formats.read_certificate(_read(args.certificate))
    grid = formats.read_grid(_read(args.source))
    perm4 = cert.kind == "perm4"
    failures = []
    if perm4 and grid.kind == "biclique":
        D = solvers.source_D(cert, grid)
        for name, report in [
                ("biclique structure", validate.check_biclique_structure(grid)),
                ("regularity", validate.check_regularity(grid)[0]),
                ("stability", validate.check_stability(grid, D)[0])]:
            print("\n".join(report.lines()))
            if not report.holds:
                failures.append(name)
    if not failures:
        try:
            result = solvers.solve_convenient(cert, grid)
        except solvers.CertificateMismatch as exc:
            failures.append(str(exc))
    if not failures:
        sel = (solvers.solve_row_biclique if perm4
               else solvers.solve_row_clique)(grid)
        meets = result.optimum >= cert.target
        print("source row-%s: %s" % (grid.kind, "found" if sel else "none"))
        print("%s %d target %d"
              % ("convenient optimum" if perm4 else "best selection count",
                 result.optimum, cert.target))
        if meets != (sel is not None):
            failures.append("iff violated: optimum %s target but "
                            "transversal %s"
                            % ("meets" if meets else "misses",
                               "exists" if sel else "does not exist"))

    if failures:
        for f in failures:
            print("FAIL %s" % f)
        return EXIT_FAIL
    print("PASS")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="permcsp",
        description="Permutation CSP toolkit: generate, reduce, solve, "
                    "verify.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random instance")
    gsub = p.add_subparsers(dest="kind", required=True)
    ps = gsub.add_parser("sat", help="random f-sparse CNF")
    ps.add_argument("--num-vars", type=_integer, required=True)
    ps.add_argument("--num-clauses", type=_integer, required=True)
    ps.add_argument("--freq", type=_integer, default=3,
                    help="max occurrences per variable")
    ps.add_argument("--seed", type=_integer, default=0)
    ps.add_argument("--out")
    pg = gsub.add_parser("graph", help="random bounded-degree graph")
    pg.add_argument("--num-vertices", type=_integer, required=True)
    pg.add_argument("--num-edges", type=_integer, required=True)
    pg.add_argument("--max-degree", type=_integer, default=4)
    pg.add_argument("--seed", type=_integer, default=0)
    pg.add_argument("--out")

    p = sub.add_parser("reduce", help="run reduction steps")
    p.add_argument("input")
    p.add_argument("--steps", required=True,
                   help="comma-separated: %s" % ",".join(sorted(_STEPS)))
    p.add_argument("--out-dir", required=True)
    p.add_argument("--dummies", default="sufficient",
                   help="paper | sufficient | explicit count")
    p.add_argument("--stop-after")
    p.add_argument("--degree-bound", type=_integer,
                   help="D for grids that do not carry one")
    p.add_argument("--row-cap", type=_integer, default=81)

    p = sub.add_parser("solve", help="solve an instance file")
    p.add_argument("instance")
    p.add_argument("--method", default="auto",
                   choices=["auto", "brute", "dp3", "convenient"],
                   help="the solver for a pcsp file")
    p.add_argument("--limit", type=_integer, default=11,
                   help="brute-force variable cap")
    p.add_argument("--source",
                   help="source grid file, needed by --method convenient")

    p = sub.add_parser("verify", help="verify a certificate")
    p.add_argument("certificate")
    p.add_argument("source", help="the source grid file")
    return parser


def main(argv=None):
    level = os.environ.get("PERMCSP_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"gen": cmd_gen, "reduce": cmd_reduce,
                "solve": cmd_solve, "verify": cmd_verify}
    try:
        return handlers[args.command](args)
    except InternalConsistencyError as exc:
        print("internal consistency error: %s" % exc, file=sys.stderr)
        return EXIT_INTERNAL
    except (PermCspError, formats.FormatError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except (RecursionError, MemoryError, OverflowError) as exc:  # too large
        print("error: input too large: %s" % (str(exc) or "out of memory"),
              file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
