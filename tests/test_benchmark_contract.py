"""The benchmark's contract with the program, checked in the test suite.

``perfbench/`` builds its inputs through the program's public calls, checks
every output with its own oracle and wraps call points by name for its
per-layer trace.  A change that breaks any of that should fail here, not
only when the benchmark runs.
"""

from pathlib import Path

import pytest

from canned_suite import shot_noise_program
from vartomo import sdp

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    import workloads

    return workloads, spans


def test_recon_1q_mix_ops_pass_their_checks(perfbench):
    workloads, _ = perfbench
    ops = workloads.WORKLOADS["recon-1q-mix"](1).cycle(0)
    labels = [op.label for op in ops[-2:]]
    assert labels == ["sqpt/complete/exact/identity", "sqpt/contradiction"]  # criterion 8
    for op in ops[:20] + ops[-2:]:
        try:
            out, err = op.run(), None
        except Exception as exc:  # some ops must raise; their check says which
            out, err = None, exc
        assert op.check(out, err) == [], op.label


def test_traced_call_points_exist(perfbench):
    _, spans = perfbench
    tracer = spans.Tracer()
    try:
        spans.instrument(tracer)
    finally:
        tracer.restore()


def test_one_loop_span_per_solve(perfbench):
    """The per-layer counters read one ``kernels.loop`` span per solve,
    whose iteration count is the solve's, also over 1,500 iterations."""
    _, spans = perfbench
    problem = shot_noise_program(1)
    tracer = spans.Tracer()
    spans.instrument(tracer)
    try:
        solution = sdp.solve(problem, 1e-15, max_iter=1510)
    finally:
        tracer.restore()
    loops = [s for s in tracer.spans if s[spans.NAME] == "kernels.loop"]
    assert solution.iterations == 1510
    assert len(loops) == 1
    assert loops[0][spans.COUNTS]["iterations"] == solution.iterations
