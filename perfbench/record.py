"""Record every pool component's output digest and the pools' cost strata.

Run from the repository root on an otherwise idle machine:

    python3 perfbench/record.py

Each component runs once, untraced, and must pass its checks; nothing is
written if one fails.  Digests go to digests.json.  Each pool is sorted
by the measured wall times and cut into equal-count strata, cheapest
first, in strata.json (see cut); the times themselves go to
perfbench/_out/component_times.json.  Re-record the digests only for a
change that is meant to alter outputs (a speed-up never is), and keep the
strata fixed so that runs before and after a change visit the same inputs.
"""

import json
import os
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402

OUTLIER = 2.0    # a member dearer than this many pool medians stands alone


def main():
    path = os.path.join(HERE, "digests.json")
    strata_path = os.path.join(HERE, "strata.json")
    digests, strata = load(path), load(strata_path)
    times, failures = {}, []
    workdir = os.path.join(HERE, "_work", "record")
    for profile in ("full", "tiny"):
        for cls in workloads.WORKLOADS.values():
            wl = cls(profile, workdir, in_process=False)
            for cid in wl.components():
                t0 = time.perf_counter()
                raw = wl.run(cid)
                wall = time.perf_counter() - t0
                errs, got = wl.check_item([cid], [raw])
                times[wl.key(cid)] = wall
                digests.update(got)
                failures += errs
                print("%-28s %7.3f s %s" % (wl.key(cid), wall,
                                             "; ".join(errs) or "ok"),
                      flush=True)
            for group, (ids, count) in wl.groups().items():
                if count > 1 and len(ids) >= count:
                    strata[wl.key(group)] = cut(
                        ids, lambda c: times[wl.key(c)], count)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(os.path.join(HERE, "_out"), exist_ok=True)
    with open(os.path.join(HERE, "_out", "component_times.json"), "w") as fh:
        json.dump(times, fh, indent=1, sort_keys=True)
    if failures:
        print("not written: %d check failures" % len(failures))
        return 1
    for data, where in ((digests, path), (strata, strata_path)):
        with open(where, "w") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print("wrote %d digests and %d strata" % (len(digests), len(strata)))
    return 0


def cut(ids, cost, count):
    """Equal-count cost strata, cheapest first.  A member that costs more
    than OUTLIER times the pool's median gets a last stratum of its own:
    every round then runs it, instead of the few seeds that would draw it
    out of a shared stratum."""
    ids = sorted(ids, key=cost)
    limit = OUTLIER * statistics.median(cost(c) for c in ids)
    usual = [c for c in ids if cost(c) <= limit]
    return ([usual[k * len(usual) // count:(k + 1) * len(usual) // count]
             for k in range(count)]
            + [[c] for c in ids if cost(c) > limit])


def load(path):
    if not os.path.exists(path):
        return {}
    with open(path) as fh:
        return json.load(fh)


if __name__ == "__main__":
    sys.exit(main())
