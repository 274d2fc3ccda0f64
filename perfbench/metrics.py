"""Names, units and bounds of every metric the benchmark reports."""

WORKLOADS = {
    "chain81": "3-SAT to 162-row biclique chain in memory: reductions, "
               "grid checks and row search dominate, and memory peaks",
    "exact": "one solve per item, arity-6 certificates by exhaustive search "
             "and n=18 subset DPs: the exact solver kernels dominate, no "
             "grids or files",
    "cli27": "the permcsp CLI on 27-row grid files and two certificates: "
             "process start, grid file I/O and certificate checks dominate",
}
# (name, unit, better, bound)
# On a shared host, identical work drifts by 10-30 % between runs minutes
# apart, so each bound is the largest allowed.
END_TO_END = [
    ("throughput_per_s", "1/s", "higher", 0.25),
    ("latency_p50_s", "s", "lower", 0.25),
    ("latency_tail_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
]
RUN_SECONDS = 40

REDUCTIONS = ("reduce_sat_to_coloring", "reduce_coloring_to_dcnnc",
              "reduce_dcnnc_to_dcnnb", "reduce_dcnnb_to_perm4",
              "reduce_clique_to_perm6")
CHECKS = ("check_biclique_structure", "check_regularity", "check_stability")
SOLVERS = ("solve_sat", "solve_3coloring", "solve_row_clique",
           "solve_row_biclique", "solve_brute", "solve_dp3",
           "solve_convenient")
SHARED = (["reductions." + f for f in REDUCTIONS]
          + ["validate." + f for f in CHECKS]
          + ["solvers." + f for f in SOLVERS])

# Every per-layer metric: (name, unit, better).  Times, calls, nodes and
# sizes are per item; shares are self time over the items' wall time.
PER_LAYER = (
    [("reductions.%s.self_s" % f, "s", "lower") for f in REDUCTIONS]
    + [("reductions.grid.vertices", "count", "lower"),
       ("reductions.grid.edges", "count", "lower"),
       ("reductions.cert.constraints", "count", "lower")]
    + [("validate.%s.%s" % (f, k), u, "lower") for f in CHECKS
       for k, u in (("calls", "count"), ("self_s", "s"))]
    + [("validate.checks_per_grid", "count", "lower")]
    + [("solvers.%s.self_s" % f, "s", "lower") for f in SOLVERS]
    + [("solvers.%s.nodes" % f, "count", "lower")
       for f in ("solve_brute", "solve_dp3", "solve_convenient")]
    + [("core.evaluate.calls", "count", "lower"),
       ("core.evaluate.self_s", "s", "lower")]
    + [("formats.%s.self_s" % f, "s", "lower")
       for f in ("dump_grid", "read_grid", "read_certificate",
                 "write_certificate")]
    + [("formats.dump_grid.bytes", "bytes", "lower"),
       ("formats.read_grid.bytes", "bytes", "lower")]
    + [("cli.startup_s", "s", "lower")]
    + [("cli.%s.wall_s" % c, "s", "lower")
       for c in ("gen", "reduce", "solve", "verify")]
    + [(name + ".share", "fraction", "lower") for name in SHARED]
    + [("trace.throughput_per_s", "1/s", "higher"),
       ("trace.unattributed_share", "fraction", "lower")]
)
