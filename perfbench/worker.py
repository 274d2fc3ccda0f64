"""Workload process: set up one workload, then run its items in a closed loop.

Started by run.py, one fresh process per workload run.  It caps its own
address space (inherited by any CLI process it starts), prints READY once
the imports and the seeded inputs are ready, then one JSON line per item
and a final JSON line with the run's summary.
"""

import argparse
import json
import os
import resource
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
MEM_LIMIT_MB = 3584      # well below the machine's memory
ITEM_TIMEOUT_S = 60      # wall-clock cap on one item


class ItemTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise ItemTimeout("item exceeded %d s" % ITEM_TIMEOUT_S)


def parse_args(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--profile", default="full")
    p.add_argument("--workdir", required=True)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def run_loop(wl, rounds, seconds, expected, tracer):
    """Closed loop, one client: the next item starts when the last is
    checked.  Whole rounds run; the first always, a later one only if its
    predicted end, at the median item time so far, is within seconds."""
    walls = []
    start = time.perf_counter()
    for batch in rounds:
        elapsed = time.perf_counter() - start
        if walls and elapsed + len(batch) * statistics.median(walls) > seconds:
            break
        for cids in batch:
            walls.append(run_item(wl, len(walls), cids, expected, tracer))
    return walls


def run_item(wl, k, cids, expected, tracer):
    """Time one item, check it, print its record; returns its wall time."""
    problems, raws = [], None
    signal.setitimer(signal.ITIMER_REAL, ITEM_TIMEOUT_S)
    t0 = time.perf_counter()
    try:
        if tracer is None:
            raws = wl.run_item(cids)
        else:
            tracer.begin_item(k)
            with tracer.span("item"):
                raws = wl.run_item(cids)
    except Exception as exc:     # timeout, MemoryError, a raised bug
        problems.append("%s: %s" % (type(exc).__name__, exc))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - t0
    if raws is not None:
        try:
            errs, digests = wl.check_item(cids, raws)
        except Exception as exc:    # a broken output the checks trip on
            errs, digests = ["check raised %s: %s"
                             % (type(exc).__name__, exc)], {}
        problems += errs
        for key, got in sorted(digests.items()):
            if expected.get(key) != got:
                problems.append("digest %s is %s, recorded %s"
                                % (key, got, expected.get(key)))
    print(json.dumps({"item": k, "components": cids, "wall_s": wall,
                      "tail": wl.is_tail(cids), "problems": problems}),
          flush=True)
    return wall


def main(argv=None):
    args = parse_args(argv)
    limit = MEM_LIMIT_MB << 20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    import workloads

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    os.makedirs(args.workdir, exist_ok=True)
    with open(os.path.join(HERE, "strata.json")) as fh:
        strata = json.load(fh)
    wl = workloads.WORKLOADS[args.workload](args.profile, args.workdir,
                                            in_process=tracer is not None,
                                            strata=strata)
    if tracer is not None:
        wl.span = tracer.span
    with open(os.path.join(HERE, "digests.json")) as fh:
        expected = json.load(fh)
    rounds = wl.rounds(args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    signal.signal(signal.SIGALRM, _alarm)
    walls = run_loop(wl, rounds, args.seconds, expected, tracer)
    usage = resource.RUSAGE_SELF
    if args.workload == "cli27" and tracer is None:
        usage = resource.RUSAGE_CHILDREN    # the CLI processes
    summary = {"peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024}
    if tracer is not None:
        tracer.uninstall()
        summary["per_layer"] = spans.summarize(tracer, walls)
        summary["trace_problems"] = spans.nesting_problems(tracer, walls)
        out = os.path.join(HERE, "_out", "trace-%s-seed%d.json"
                           % (args.workload, args.seed))
        with open(out, "w") as fh:
            json.dump(tracer.dump(), fh)
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
