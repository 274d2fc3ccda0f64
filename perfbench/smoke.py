"""Fast smoke test of the benchmark harness, on the tiny input profile.

Run from the repository root:  python3 perfbench/smoke.py

It checks that every named metric prints with its unit, untraced and
traced, on every workload; that every recorded span nests under the item
it belongs to; that a deliberately wrong expected digest counts as a
failed item; that the span checks catch spans that do not add up to their
item's wall time; and that the benchmark refuses to run without the
sources.  Exit code 0 when all hold.
"""

import json
import os
import shutil
import subprocess
import sys
import time

from metrics import END_TO_END, PER_LAYER, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(HERE, "_work", "smoke")


def bench(root, *extra):
    """A tiny-profile run of root/perfbench/run.py from root."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--seed", "5",
                           "--seconds", "1", "--profile", "tiny"] + list(extra),
                          cwd=root, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return proc.returncode, lines, result


def check_metrics(label, lines, result, wanted):
    errs = []
    for name, unit in wanted:
        got = result["metrics"].get(name)
        if got is None or got["unit"] != unit:
            errs.append("%s: metric %s missing or not in %s" % (label, name, unit))
        elif not any(l.split()[:1] == [name] and unit in l.split()
                     for l in lines):
            errs.append("%s: %s is not printed with its unit" % (label, name))
    if len(result["metrics"]) != len(wanted):
        errs.append("%s: %d metrics, expected %d"
                    % (label, len(result["metrics"]), len(wanted)))
    return errs


def check_nesting(path):
    with open(path) as fh:
        spans = json.load(fh)
    errs = []
    for sid, s in enumerate(spans):
        top = s
        while top["parent"] is not None:
            parent = spans[top["parent"]]
            if parent["item"] != s["item"] or not (
                    parent["start"] <= top["start"] <= top["end"]
                    <= parent["end"]):
                errs.append("%s: span %d escapes its parent" % (path, sid))
                break
            top = parent
        if top["name"] != "item" or top["item"] != s["item"]:
            errs.append("%s: span %d is not under its item" % (path, sid))
    if not any(s["parent"] is not None for s in spans):
        errs.append("%s: no span below an item" % path)
    return errs


def check_span_checks():
    """The traced run's own check must pass clean spans and fail spans
    that miss time of their item or are filed under another item."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import spans
    tracer = spans.Tracer()
    walls = []
    for item in range(2):
        tracer.begin_item(item)
        t0 = time.perf_counter()
        with tracer.span("item"):
            with tracer.span("solvers.solve_dp3"):
                time.sleep(0.02)
        walls.append(time.perf_counter() - t0)
    errs = []
    if spans.nesting_problems(tracer, walls):
        errs.append("span check fails clean spans: %s"
                    % spans.nesting_problems(tracer, walls))
    if not spans.nesting_problems(tracer, [w + 0.005 for w in walls]):
        errs.append("span check passes 5 ms of an item outside its spans")
    tracer.spans[1][4] = 1      # item 0's child, filed under item 1
    if not spans.nesting_problems(tracer, walls):
        errs.append("span check passes a span filed under the wrong item")
    return errs


def main():
    shutil.rmtree(SCRATCH, ignore_errors=True)
    os.makedirs(SCRATCH)
    errs = []
    e2e = [(n, u) for n, u, _, _ in END_TO_END]
    layers = [(n, u) for n, u, _ in PER_LAYER]
    for workload in WORKLOADS:
        for trace, wanted in ((0, e2e), (1, layers)):
            label = "%s --trace %d" % (workload, trace)
            code, lines, result = bench(ROOT, "--workload", workload,
                                        "--trace", str(trace))
            if code != 0 or result is None or not result["correct"]:
                fails = [l.strip() for l in lines if "FAIL" in l]
                errs.append("%s: exit %d; %s" % (label, code, fails[:3]))
                continue
            errs += check_metrics(label, lines, result, wanted)
        errs += check_nesting(os.path.join(
            HERE, "_out", "trace-%s-seed5.json" % workload))
    errs += check_span_checks()

    bare = os.path.join(SCRATCH, "bare")
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("_work", "_out",
                                                  "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "exact", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=bare, capture_output=True,
                          text=True, timeout=170)
    if proc.returncode == 0 or "{" in proc.stdout:
        errs.append("ran without sources: exit %d" % proc.returncode)

    # The same copy with the sources and one wrong recorded digest: the
    # run goes end to end and counts the failure.
    os.symlink(os.path.join(ROOT, "src"), os.path.join(bare, "src"))
    wrong = os.path.join(bare, "perfbench", "digests.json")
    with open(wrong) as fh:
        digests = json.load(fh)
    digests["tiny/exact/brute-00"] = "0" * 20
    with open(wrong, "w") as fh:
        json.dump(digests, fh)
    code, _, result = bench(bare, "--workload", "exact")
    if code == 0 or result is None or result["correct"] or \
            result["failed"] < 1:
        errs.append("a wrong expected digest was not counted as a failure: "
                    "exit %d" % code)
    shutil.rmtree(SCRATCH, ignore_errors=True)

    for e in errs:
        print("FAIL " + e)
    print("smoke: %s" % ("FAIL" if errs else "PASS"))
    return 1 if errs else 0


if __name__ == "__main__":
    sys.exit(main())
