"""The three benchmark workloads: input pools, timed calls, output checks.

Each workload draws its items from fixed pools of components, so that
every component has an output digest recorded in ``digests.json``.  A
pool is split into cost strata (``strata.json``).  Items come in rounds:
a round takes one member of every stratum, and the workload seed picks
the members and their order.  So every round samples the whole cost
range, and seeds differ in inputs, not in how much work they hold.  An
item runs its components' timed calls back to back; the checks and the
digest run after its timer has stopped.

The checks do not trust the code under test: satisfiability, colorings,
transversal cliques and bicliques, witness scores and written grid files
are re-checked here with small independent routines.

Calls into ``permcsp`` go through module attributes (``solvers.solve_dp3``,
not a name imported from it), so that the traced run sees them.
"""

import hashlib
import io
import itertools
import json
import os
import random
import shutil
import subprocess
import sys
from contextlib import nullcontext, redirect_stdout

import numpy as np

from permcsp import cli, reductions, solvers, validate
from permcsp.core import InvalidInputError, PermCspInstance

CHAIN_POOL = 48       # random CNFs besides the handcrafted UNSAT one
DP3_POOL = 64         # random n=18 arity-<=3 instances
DP3_STRATA = 4        # each certificate in a round brings one DP per stratum
GRAPH_POOL = 40       # random 20-30 vertex graphs of max degree 3
CLI_TIMEOUT_S = 60    # wall-clock cap on one CLI process

UNSAT_CLAUSES = ((1, 2), (1, -2), (-1, 2), (-1, -2))
TRIANGLE = "p edge 3 3\ne 1 2\ne 1 3\ne 2 3\n"

# Grid sides each profile must produce; a change here is a wrong output.
SIDES = {"full": {"chain": 81, "cli": 27}, "tiny": {"chain": 27, "cli": 9}}


def digest(payload):
    """Short hash of a JSON-serialisable output record."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def file_digest(path):
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:20]


# ---------------------------------------------------------------------------
# independent checkers
# ---------------------------------------------------------------------------

def count_satisfied(constraints, sequence):
    """Constraints whose variables appear in increasing position order."""
    pos = {v: p for p, v in enumerate(sequence)}
    return sum(1 for c in constraints
               if all(pos[a] < pos[b] for a, b in zip(c, c[1:])))


def witness_problems(label, constraints, num_vars, optimum, sequence):
    if sorted(sequence) != list(range(1, num_vars + 1)):
        return ["%s: witness is not a permutation of 1..%d" % (label, num_vars)]
    got = count_satisfied(constraints, sequence)
    if got != optimum:
        return ["%s: witness scores %d, optimum says %d" % (label, got, optimum)]
    return []


def satisfies(clauses, assign):
    return all(any(assign[abs(l)] == (l > 0) for l in c) for c in clauses)


def satisfiable(num_vars, clauses):
    for bits in itertools.product((False, True), repeat=num_vars):
        if satisfies(clauses, dict(zip(range(1, num_vars + 1), bits))):
            return True
    return False


def proper_coloring(edges, vertices, col):
    return (set(col) == set(vertices)
            and all(c in (0, 1, 2) for c in col.values())
            and all(col[u] != col[v] for u, v in edges))


def three_colorable(num_vertices, edges):
    """Plain backtracking, vertices in index order."""
    nbrs = {v: [] for v in range(1, num_vertices + 1)}
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    col = {}

    def place(v):
        if v > num_vertices:
            return True
        for c in range(3):
            if all(col.get(u) != c for u in nbrs[v]):
                col[v] = c
                if place(v + 1):
                    return True
                del col[v]
        return False

    return place(1)


def clique_selection_ok(adj, side, choice):
    """One vertex per row, pairwise adjacent in the dense matrix."""
    if len(choice) != side or not all(1 <= j <= side for j in choice):
        return False
    idx = np.array([i * side + j - 1 for i, j in enumerate(choice)])
    block = adj[np.ix_(idx, idx)]
    return bool(block.sum() == side * (side - 1))


def biclique_selection_ok(adj, side, choice):
    """Top rows in columns 1..n, bottom rows in n+1..2n, K_{n,n} across."""
    n = side // 2
    if len(choice) != side:
        return False
    if not (all(1 <= j <= n for j in choice[:n])
            and all(n < j <= side for j in choice[n:])):
        return False
    idx = [i * side + j - 1 for i, j in enumerate(choice)]
    return bool(adj[np.ix_(idx[:n], idx[n:])].all())


def grid_file_selection_ok(path, choice):
    """Re-check a SELECTION line against the grid file the CLI wrote."""
    with open(path) as fh:
        header = fh.readline().split()
        kind = fh.readline().split()[-1]
        side = int(header[2])
        if len(choice) != side:
            return False
        vs = list(enumerate(choice, start=1))
        if kind == "biclique":
            n = side // 2
            if not (all(1 <= j <= n for j in choice[:n])
                    and all(n < j <= side for j in choice[n:])):
                return False
            pairs = [(a, b) for a in vs[:n] for b in vs[n:]]
        else:
            pairs = list(itertools.combinations(vs, 2))
        need = {"e %d %d %d %d" % (a + b) for a, b in pairs}
        need |= {"e %d %d %d %d" % (b + a) for a, b in pairs}
        found = set()
        for line in fh:
            if line[0] == "e":
                line = line.rstrip("\n")
                if line in need:
                    found.add(line)
    return all("e %d %d %d %d" % (a + b) in found
               or "e %d %d %d %d" % (b + a) in found for a, b in pairs)


def read_pcsp_constraints(path):
    with open(path) as fh:
        rows = [line.split() for line in fh if line[0] not in "cp"]
    return [tuple(int(t) for t in r[:-1]) for r in rows if r]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    """Common base: components by id, items as lists of component ids."""

    def __init__(self, profile, workdir, in_process, strata=None):
        self.profile = profile
        self.workdir = workdir
        self.in_process = in_process
        self.strata = strata or {}
        self.span = nullcontext    # the traced run sets its Tracer.span

    def key(self, cid):
        return "%s/%s/%s" % (self.profile, self.name, cid)

    def components(self):
        return [cid for ids, _ in self.groups().values() for cid in ids]

    def draw(self, rng, group):
        """One seeded member of each cost stratum of a pool, in seeded
        order.  Without recorded strata the pool is one stratum."""
        ids, _ = self.groups()[group]
        picks = [rng.choice(s)
                 for s in self.strata.get(self.key(group), [ids])]
        rng.shuffle(picks)
        return picks

    def top(self, group):
        """The costliest stratum of a pool (without strata, the pool)."""
        ids, _ = self.groups()[group]
        return self.strata.get(self.key(group), [ids])[-1]

    def is_tail(self, cids):
        """Whether an item belongs to the costliest class of inputs, the
        items that latency_tail_s is measured on."""
        return cids[0] in self.tail_ids()

    def run_item(self, cids):
        """The timed part: every component's calls, nothing else."""
        return [self.run(cid) for cid in cids]

    def check_item(self, cids, raws):
        """Untimed: (problems, {digest key: digest}) for an item."""
        problems, digests = [], {}
        for cid, raw in zip(cids, raws):
            errs, payload = self.check(cid, raw)
            problems += ["%s: %s" % (cid, e) for e in errs]
            digests[self.key(cid)] = digest(payload)
        return problems, digests


class Chain(Workload):
    """3-SAT -> 3-coloring -> clique grid -> biclique grid, in memory."""

    name = "chain81"

    def __init__(self, profile, workdir, in_process, strata=None):
        super().__init__(profile, workdir, in_process, strata)
        if profile == "tiny":
            cnfs = [reductions.CnfFormula(1, ((1,),), 3),
                    reductions.CnfFormula(1, ((-1,),), 3)]
        else:
            cnfs = [reductions.CnfFormula(2, UNSAT_CLAUSES, freq_bound=4)]
            k = 0
            while len(cnfs) < 1 + CHAIN_POOL:
                k += 1
                rng = random.Random(7000 + k)
                nv = rng.randint(2, 6)
                m = rng.randint(1, min(nv, 4))
                try:
                    cnfs.append(cli.gen_sat(nv, m, 3, seed=7000 + k))
                except InvalidInputError:
                    pass    # the draw exhausted the variable slots; redraw
        self.pool = {"cnf-%02d" % k: c for k, c in enumerate(cnfs)}

    def groups(self):
        ids = list(self.pool)
        return {"unsat": (ids[:1], 1), "cnf": (ids[1:], 4)}

    def tail_ids(self):
        """The UNSAT formula and the random pool's costliest stratum."""
        return {"cnf-00"} | set(self.top("cnf"))

    def rounds(self, seed):
        """One formula per item; the UNSAT formula (tiny: the first
        formula) leads every round."""
        rng = random.Random(seed)
        while True:
            yield [["cnf-00"]] + [[cid] for cid in self.draw(rng, "cnf")]

    def run(self, cid):
        cnf = self.pool[cid]
        sat = solvers.solve_sat(cnf)
        g, bound = reductions.reduce_sat_to_coloring(cnf)
        col = solvers.solve_3coloring(g)
        grid = reductions.reduce_coloring_to_dcnnc(g, degree_bound=bound)
        g_ok = (validate.check_regularity(grid)[0].holds,
                validate.check_stability(grid, grid.D)[0].holds)
        sel = solvers.solve_row_clique(grid)
        h = reductions.reduce_dcnnc_to_dcnnb(grid)
        h_ok = (validate.check_biclique_structure(h).holds,
                validate.check_regularity(h)[0].holds,
                validate.check_stability(h, h.D)[0].holds)
        bsel = solvers.solve_row_biclique(h)
        return dict(cnf=cnf, sat=sat, g=g, col=col, grid=grid, g_ok=g_ok,
                    sel=sel, h=h, h_ok=h_ok, bsel=bsel)

    def check(self, cid, r):
        errs = []
        cnf, g, grid, h = r["cnf"], r["g"], r["grid"], r["h"]
        truth = satisfiable(cnf.num_vars, cnf.clauses)
        if (r["sat"] is not None) != truth:
            errs.append("SAT verdict %s, exhaustive check says %s"
                        % (r["sat"] is not None, truth))
        if r["sat"] is not None and not satisfies(cnf.clauses, r["sat"]):
            errs.append("assignment does not satisfy the formula")
        if max(d for _, d in g.degree()) > max(cnf.freq_bound + 2, 5):
            errs.append("coloring graph exceeds its degree bound")
        if (r["col"] is not None) != truth:
            errs.append("3-coloring verdict disagrees with SAT")
        if r["col"] is not None and not proper_coloring(
                list(g.edges()), list(g.nodes()), r["col"]):
            errs.append("3-coloring is not proper")
        side = SIDES[self.profile]["chain"]
        if grid.side != side or h.side != 2 * side:
            errs.append("grid sides %d/%d, expected %d/%d"
                        % (grid.side, h.side, side, 2 * side))
        if not all(r["g_ok"] + r["h_ok"]):
            errs.append("a grid condition check failed: G %s, H %s"
                        % (r["g_ok"], r["h_ok"]))
        sel, bsel = r["sel"], r["bsel"]
        if (sel is not None) != truth:
            errs.append("row-clique verdict disagrees with SAT")
        if sel is not None and not clique_selection_ok(
                grid.adj, grid.side, sel.choice):
            errs.append("row-clique selection is not a transversal clique")
        if (bsel is not None) != truth:
            errs.append("row-biclique verdict disagrees with SAT")
        if bsel is not None and not biclique_selection_ok(
                h.adj, h.side, bsel.choice):
            errs.append("row-biclique selection is not a K_{n,n}")
        if r["col"] is not None:
            mapped = validate.map_coloring_to_selection(r["col"], grid)
            if not clique_selection_ok(grid.adj, grid.side, mapped.choice):
                errs.append("mapped coloring is not a transversal clique")
        if sel is not None:
            doubled = validate.map_clique_to_biclique(sel)
            if not biclique_selection_ok(h.adj, h.side, doubled.choice):
                errs.append("doubled clique selection is not a K_{n,n}")
        payload = {
            "sat": sorted(r["sat"].items()) if r["sat"] else None,
            "col": sorted(r["col"].items()) if r["col"] else None,
            "sides": [grid.side, h.side],
            "sel": list(sel.choice) if sel else None,
            "bsel": list(bsel.choice) if bsel else None,
        }
        return errs, payload


class Exact(Workload):
    """Exhaustive search on an arity-6 certificate, subset DP on arity 3."""

    name = "exact"

    def __init__(self, profile, workdir, in_process, strata=None):
        super().__init__(profile, workdir, in_process, strata)
        self.side = 1 if profile == "tiny" else 2
        dp_vars = 8 if profile == "tiny" else 18
        self.threads = min(2, len(os.sched_getaffinity(0)))
        vs = [(i, j) for i in range(1, self.side + 1)
              for j in range(1, self.side + 1)]
        cross = [(a, b) for a, b in itertools.combinations(vs, 2)
                 if a[0] != b[0]]
        self.brute = {}
        for mask in range(1 << len(cross)):
            edges = [e for k, e in enumerate(cross) if mask >> k & 1]
            self.brute["brute-%02d" % mask] = edges
        self.dp3 = {}
        for k in range(DP3_POOL if profile == "full" else 2):
            rng = random.Random(9000 + k)
            cons = [tuple(rng.sample(range(1, dp_vars + 1), rng.randint(2, 3)))
                    for _ in range(3 * dp_vars)]
            self.dp3["dp3-%02d" % k] = PermCspInstance.make(dp_vars, cons)

    def groups(self):
        return {"brute": (list(self.brute), 3),
                "dp3": (list(self.dp3), DP3_STRATA)}

    def tail_ids(self):
        """Every certificate: an exhaustive search costs about three DPs."""
        return set(self.brute)

    def rounds(self, seed):
        """One solve per item.  A round holds one certificate from each
        certificate stratum and, for each of them, one DP instance from
        each DP stratum, in seeded order."""
        rng = random.Random(seed)
        while True:
            certs = self.draw(rng, "brute")
            batch = [[cid] for cid in certs]
            for _ in certs:
                batch += [[cid] for cid in self.draw(rng, "dp3")]
            rng.shuffle(batch)
            yield batch

    def run(self, cid):
        if cid in self.brute:
            g = reductions.GridGraph.from_edges(self.side, self.brute[cid])
            cert = reductions.reduce_clique_to_perm6(
                g, dummy_count=reductions.sufficient_dummies_perm6(self.side))
            res = solvers.solve_brute(cert.instance, limit=11,
                                      threads=self.threads)
            return cert, res
        return self.dp3[cid], solvers.solve_dp3(self.dp3[cid])

    def check(self, cid, raw):
        first, res = raw
        seq = list(res.witness.sequence())
        if cid in self.brute:
            cert = first
            edges = {frozenset(e) for e in self.brute[cid]}
            rows = range(1, self.side + 1)
            has_clique = any(
                all(frozenset(((i, choice[i - 1]), (k, choice[k - 1]))) in edges
                    for i, k in itertools.combinations(rows, 2))
                for choice in itertools.product(rows, repeat=self.side))
            inst = cert.instance
            errs = witness_problems("brute", inst.constraints, inst.num_vars,
                                    res.optimum, seq)
            if has_clique and res.optimum != cert.target:
                errs.append("row clique exists but optimum %d != target %d"
                            % (res.optimum, cert.target))
            if not has_clique and res.optimum >= cert.target:
                errs.append("no row clique but optimum %d >= target %d"
                            % (res.optimum, cert.target))
            payload = {"optimum": res.optimum, "target": cert.target,
                       "witness": seq,
                       "constraints": len(inst.constraints)}
        else:
            inst = first
            errs = witness_problems("dp3", inst.constraints, inst.num_vars,
                                    res.optimum, seq)
            payload = {"optimum": res.optimum, "witness": seq}
        return errs, payload


class Cli(Workload):
    """The permcsp command line on 27-row grid files and two certificates."""

    name = "cli27"

    def __init__(self, profile, workdir, in_process, strata=None):
        super().__init__(profile, workdir, in_process, strata)
        self.graphs = {}
        for k in range(GRAPH_POOL if profile == "full" else 2):
            rng = random.Random(5000 + k)
            v = rng.randint(20, 30) if profile == "full" else 4
            e = rng.randint(v, v + v // 5) if profile == "full" else 4
            self.graphs["graph-%02d" % k] = (v, e, 5000 + k)
        self.env = dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(cli.__file__)))
        self.item_dir = None

    def groups(self):
        return {"graph": (list(self.graphs), 3), "triangle": (["triangle"], 1)}

    def tail_ids(self):
        return set(self.top("graph"))

    def rounds(self, seed):
        """One random graph and the triangle's certificates per item."""
        rng = random.Random(seed)
        while True:
            yield [[cid, "triangle"] for cid in self.draw(rng, "graph")]

    def permcsp(self, cwd, argv):
        """One CLI call: a fresh process, or cli.main in this process."""
        if self.in_process:
            buf = io.StringIO()
            here = os.getcwd()
            os.chdir(cwd)
            try:
                with self.span("cli." + argv[0]), redirect_stdout(buf):
                    code = cli.main(argv)
            finally:
                os.chdir(here)
            return argv, code, buf.getvalue()
        proc = subprocess.run([sys.executable, "-m", "permcsp.cli"] + argv,
                              cwd=cwd, env=self.env, capture_output=True,
                              text=True, timeout=CLI_TIMEOUT_S)
        return argv, proc.returncode, proc.stdout

    def run(self, cid):
        d = os.path.join(self.workdir, cid)
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d)
        if cid == "triangle":
            with open(os.path.join(d, "tri.graph"), "w") as fh:
                fh.write(TRIANGLE)
            steps = [
                ["reduce", "tri.graph", "--degree-bound", "2", "--steps",
                 "col2clique,clique2biclique,biclique2perm4", "--out-dir", "t"],
                ["reduce", "t/step1-col2clique.grid", "--steps",
                 "clique2perm6", "--out-dir", "t6"],
                ["solve", "t/step3-biclique2perm4.pcsp", "--source",
                 "t/step2-clique2biclique.grid"],
                ["verify", "t/step3-biclique2perm4.pcsp",
                 "t/step2-clique2biclique.grid"],
                ["solve", "t6/step1-clique2perm6.pcsp", "--source",
                 "t/step1-col2clique.grid"],
                ["verify", "t6/step1-clique2perm6.pcsp",
                 "t/step1-col2clique.grid"],
            ]
        else:
            v, e, seed = self.graphs[cid]
            steps = [
                ["gen", "graph", "--num-vertices", str(v), "--num-edges",
                 str(e), "--max-degree", "3", "--seed", str(seed),
                 "--out", "g.graph"],
                ["reduce", "g.graph", "--steps", "col2clique,clique2biclique",
                 "--out-dir", "d"],
                ["solve", "d/step1-col2clique.grid"],
                ["solve", "d/step2-clique2biclique.grid"],
            ]
        return d, [self.permcsp(d, argv) for argv in steps]

    def check(self, cid, raw):
        d, calls = raw
        errs = []
        codes = [code for _, code, _ in calls]
        outs = [out for _, _, out in calls]
        if cid == "triangle":
            if codes != [0] * len(calls):
                errs.append("exit codes %s" % codes)
            for k, cert in ((2, "t/step3-biclique2perm4.pcsp"),
                            (4, "t6/step1-clique2perm6.pcsp")):
                if "MEETS TARGET" not in outs[k]:
                    errs.append("%s: solve does not meet its target" % cert)
                if not outs[k + 1].rstrip().endswith("PASS"):
                    errs.append("%s: verify does not PASS" % cert)
                lines = dict(l.split(" ", 1) for l in outs[k].splitlines()
                             if l.startswith(("optimum", "witness")))
                if len(lines) == 2:
                    path = os.path.join(d, cert)
                    cons = read_pcsp_constraints(path)
                    seq = [int(t) for t in lines["witness"].split()]
                    errs += witness_problems(
                        cert, cons, len(seq), int(lines["optimum"]), seq)
                else:
                    errs.append("%s: no optimum/witness lines" % cert)
            files = ["tri.graph", "t/step1-col2clique.grid",
                     "t/step2-clique2biclique.grid",
                     "t/step3-biclique2perm4.pcsp",
                     "t6/step1-clique2perm6.pcsp"]
        else:
            files = ["g.graph", "d/step1-col2clique.grid",
                     "d/step2-clique2biclique.grid"]
            with open(os.path.join(d, "g.graph")) as fh:
                head = fh.readline().split()
                edges = [tuple(int(t) for t in l.split()[1:]) for l in fh]
            colorable = three_colorable(int(head[2]), edges)
            want = 0 if colorable else 1
            if codes[:2] != [0, 0] or codes[2:] != [want, want]:
                errs.append("exit codes %s, 3-colorable=%s" % (codes, colorable))
            side = SIDES[self.profile]["cli"]
            for out, path, rows in ((outs[2], files[1], side),
                                    (outs[3], files[2], 2 * side)):
                if not out.startswith("SELECTION"):
                    continue
                choice = [int(t) for t in out.split()[1:]]
                if len(choice) != rows:
                    errs.append("%s: %d rows selected, expected %d"
                                % (path, len(choice), rows))
                elif not grid_file_selection_ok(os.path.join(d, path), choice):
                    errs.append("%s: SELECTION fails against the file" % path)
        payload = {"calls": [[a, c, o] for a, c, o in calls],
                   "files": {f: file_digest(os.path.join(d, f))
                             for f in files}}
        shutil.rmtree(d, ignore_errors=True)
        return errs, payload


WORKLOADS = {w.name: w for w in (Chain, Exact, Cli)}
