"""Benchmark of permcsp: three seeded closed-loop workloads.

Run from the repository root:

    python3 perfbench/run.py --workload chain81 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

A single workload prints its metrics, one per line with its unit, and
as the last line one JSON object: {"correct", "attempted", "failed",
"metrics"}.  With --trace 0 the metrics are the end-to-end ones, measured
untraced; with --trace 1 they are the per-layer ones, from spans recorded
around calls into permcsp.  --workload all runs every workload untraced
and traced, and adds the tracing overhead.

Every run starts fresh workload processes (worker.py) under an address-
space cap and a wall-clock limit; the program under test is the one in
src/ next to this directory.  --write-spec rewrites BENCHMARK.json from
the metric definitions in metrics.py.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

from metrics import END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 7          # workload processes timed to READY, per run
STARTUP_SAMPLES = 3        # bare "import permcsp.cli" processes, traced runs
BUDGET_S = 170             # a run ends within this, whatever happens


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


class Worker:
    """One workload process; times its set-up from spawn to READY."""

    def __init__(self, args, extra, deadline):
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--profile", args.profile,
               "--workdir", args.workdir] + extra
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        self.killer = threading.Timer(max(1.0, deadline - time.monotonic()),
                                      self.proc.kill)
        self.killer.start()
        self.ready = self.proc.stdout.readline().strip() == "READY"
        self.setup_s = time.perf_counter() - t0

    def lines(self):
        for line in self.proc.stdout:
            yield json.loads(line)

    def close(self):
        self.proc.stdout.close()
        code = self.proc.wait()
        self.killer.cancel()
        return code


def run_workload(args, deadline):
    """One run: set-up samples, then the loop.  Returns the result dict."""
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        w = Worker(args, ["--setup-only"], deadline)
        setups.append(w.setup_s)
        if w.close() != 0 or not w.ready:
            return broken("a set-up process failed")
    w = Worker(args, [], deadline)
    setups.append(w.setup_s)
    items, summary = [], None
    if w.ready:
        for rec in w.lines():
            if "item" in rec:
                items.append(rec)
            else:
                summary = rec
    code = w.close()
    problems = [p for it in items for p in it["problems"]]
    attempted = len(items)
    failed = sum(1 for it in items if it["problems"])
    if summary is None or code != 0:
        # Killed (memory, deadline) or crashed: the item in flight failed.
        attempted += 1
        failed += 1
        problems.append("workload process ended with code %s" % code)
    walls = [it["wall_s"] for it in items]
    tails = [it["wall_s"] for it in items if it["tail"]]
    res = {"correct": failed == 0 and summary is not None,
           "attempted": attempted, "failed": failed, "problems": problems,
           "items": items}
    if not tails or summary is None:
        res["correct"] = False
        return res
    res["tail_items"] = len(tails)
    if args.trace:
        per_layer = dict(summary["per_layer"])
        per_layer["cli.startup_s"] = startup_s()
        res["metrics"] = per_layer
        res["problems"] += summary["trace_problems"]
        res["correct"] = res["correct"] and not summary["trace_problems"]
    else:
        res["metrics"] = {
            "throughput_per_s": len(walls) / sum(walls),
            "latency_p50_s": statistics.median(walls),
            "latency_tail_s": statistics.median(tails),
            "peak_rss_mb": summary["peak_rss_mb"],
            "setup_s": statistics.median(setups),
        }
    return res


def broken(msg):
    return {"correct": False, "attempted": 1, "failed": 1, "problems": [msg]}


def startup_s():
    """Median wall time of a process that only imports permcsp.cli."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(STARTUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import permcsp.cli"],
                       env=env, check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def units(trace):
    if trace:
        return {n: u for n, u, _ in PER_LAYER}
    return {n: u for n, u, _, _ in END_TO_END}


def report(workload, trace, res, unit_of):
    """Human-readable lines; the caller prints the JSON line after them."""
    mode = "traced" if trace else "untraced"
    print("%s (%s): %d items attempted, %d failed, failed_ratio %.4f"
          % (workload, mode, res["attempted"], res["failed"],
             res["failed"] / res["attempted"]))
    for p in res["problems"][:20]:
        print("  FAIL " + p)
    for name, value in res.get("metrics", {}).items():
        note = ""
        if name == "latency_tail_s":
            note = ("  (median of the %d costliest-class items of %d)"
                    % (res["tail_items"], len(res["items"])))
        print("  %-48s %14.6f %s%s" % (name, value, unit_of[name], note))


def single(args, deadline):
    res = run_workload(args, deadline)
    unit_of = units(args.trace)
    report(args.workload, args.trace, res, unit_of)
    metrics = {n: {"value": v, "unit": unit_of[n]}
               for n, v in res.get("metrics", {}).items()}
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if res["correct"] else 1


def run_all(args):
    """Every workload untraced then traced, with the tracing overhead."""
    out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        base = {}
        for trace in (0, 1):
            sub = argparse.Namespace(**dict(vars(args), workload=name,
                                            trace=trace))
            res = run_workload(sub, time.monotonic() + BUDGET_S)
            unit_of = units(trace)
            report(name, trace, res, unit_of)
            out["correct"] = out["correct"] and res["correct"]
            out["attempted"] += res["attempted"]
            out["failed"] += res["failed"]
            for n, v in res.get("metrics", {}).items():
                out["metrics"]["%s.%s" % (name, n)] = {"value": v,
                                                       "unit": unit_of[n]}
            if trace == 0:
                base = res.get("metrics", {})
            elif "throughput_per_s" in base and "metrics" in res:
                diff = (base["throughput_per_s"]
                        - res["metrics"]["trace.throughput_per_s"])
                print("  tracing overhead: %.6f 1/s (%.2f %% of untraced)"
                      % (diff, 100 * diff / base["throughput_per_s"]))
                out["metrics"][name + ".trace_overhead_per_s"] = {
                    "value": diff, "unit": "1/s"}
    print(json.dumps(out))
    return 0 if out["correct"] else 1


def write_spec():
    spec = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }
    with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as fh:
        json.dump(spec, fh, indent=2)
        fh.write("\n")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=list(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--profile", choices=["full", "tiny"], default="full",
                   help="tiny: small inputs, for the smoke test")
    p.add_argument("--write-spec", action="store_true")
    args = p.parse_args()
    if args.write_spec:
        write_spec()
        return 0
    if args.workload is None:
        p.error("--workload is required")
    if not os.path.isfile(os.path.join(SRC, "permcsp", "__init__.py")):
        fail("no permcsp sources at %s; run from a checkout of the "
             "repository" % SRC)
    if not os.path.isfile(os.path.join(HERE, "digests.json")):
        fail("no recorded digests in %s" % HERE)
    deadline = time.monotonic() + BUDGET_S
    args.workdir = os.path.join(HERE, "_work", "%s-%d" % (args.workload,
                                                          os.getpid()))
    os.makedirs(os.path.join(HERE, "_out"), exist_ok=True)
    try:
        if args.workload == "all":
            return run_all(args)
        return single(args, deadline)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
