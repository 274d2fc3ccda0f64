"""The benchmark's entry points, traced, on its tiny input profile.

Every tiny component of the three workloads runs in this process under
the benchmark's span tracer, as its traced run does.  Its own checks must
hold and its output must match the digest recorded in
``perfbench/digests.json``: a package change that breaks the traced path
(a renamed module attribute, a keyword argument where the tracer reads a
positional one, a call that no longer goes through the patched name)
fails here.  The full exact profile's 64 subset DPs also run, untraced,
against their digests.  Nothing is written under ``perfbench/``, and no
timing is asserted.
"""

import json
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import spans
    import workloads
    with open(os.path.join(PERFBENCH, "digests.json")) as fh:
        return spans, workloads, json.load(fh)


def test_tiny_workloads_match_their_digests_traced(perfbench, tmp_path):
    spans, workloads, expected = perfbench
    tracer = spans.Tracer()
    tracer.install()
    try:
        got = {}
        for cls in (workloads.Chain, workloads.Exact, workloads.Cli):
            wl = cls("tiny", str(tmp_path / cls.name), in_process=True)
            wl.span = tracer.span
            for cid in wl.components():
                tracer.begin_item(len(got))
                with tracer.span("item"):
                    raws = wl.run_item([cid])
                problems, digests = wl.check_item([cid], raws)
                assert problems == [], cid
                got.update(digests)
    finally:
        tracer.uninstall()
    assert got == {key: digest for key, digest in expected.items()
                   if key.startswith("tiny/")}
    names = {s[0] for s in tracer.spans}
    assert {"formats.read_grid", "formats.dump_grid",
            "formats.read_certificate", "formats.write_certificate",
            "solvers.solve_brute", "solvers.solve_convenient",
            "solvers.solve_dp3"} <= names


def test_full_exact_dp_pool_matches_its_digests(perfbench, tmp_path):
    # The 64 n=18 subset DPs of the full exact profile, untraced: every
    # witness scores its optimum and every output matches its digest.
    _, workloads, expected = perfbench
    wl = workloads.Exact("full", str(tmp_path / "exact"), in_process=True)
    cids = [cid for cid in wl.components() if cid.startswith("dp3-")]
    assert len(cids) == workloads.DP3_POOL
    got = {}
    for cid in cids:
        problems, digests = wl.check_item([cid], wl.run_item([cid]))
        assert problems == [], cid
        got.update(digests)
    assert got == {wl.key(cid): expected[wl.key(cid)] for cid in cids}
