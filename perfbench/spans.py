"""Spans recorded from the benchmark's side of the program's public calls.

``instrument`` replaces public call points with wrappers that open a span
(name, start, end, parent, op id) around each call.  ``numpy.linalg.eigh``
runs once per solver iteration, so it adds its time and call count to
the innermost open span instead of opening one: a span per call would
mean about half a million spans in a one-qubit run.  Spans stay in
memory; ``write`` stores them when the run ends, and ``per_layer``
derives the per-layer metrics and per-name self times from them.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from vartomo import linalg, sdp, tomography

NAME, START, END, PARENT, OP, COUNTS = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op: int | None = None  # set by the runner around each timed op
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent, self.op, {}]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record[END] = time.perf_counter()
            self._stack.pop()

    def count(self, key: str, value: float) -> None:
        """Add to a counter of the innermost open span, if any."""
        if self._stack:
            counts = self.spans[self._stack[-1]][COUNTS]
            counts[key] = counts.get(key, 0) + value

    def _replace(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def wrap(self, owner, attr: str, name: str, counts=None) -> None:
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
                if counts is not None:
                    for key, value in counts(result).items():
                        self.count(key, value)
            return result

        self._replace(owner, attr, wrapper)

    def accumulate(self, owner, attr: str, key: str) -> None:
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self.count(key + "_s", time.perf_counter() - start)
                self.count(key + "_n", 1)

        self._replace(owner, attr, wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(meta, fields=["name", "start", "end", "parent", "op", "counts"], spans=self.spans)
        doc["self_s"] = self_times(self.spans)
        path.write_text(json.dumps(doc))


def _box_rows(result) -> dict:
    problem, _ = result
    return {"box_rows": len(problem.inequalities) + len(problem.equalities)}


def instrument(tracer: Tracer) -> None:
    """Wrap the call points named in perfbench/README.md."""
    tracer.wrap(tomography, "make_dataset", "probes.make_dataset")
    tracer.wrap(tomography, "build_sqpt_program", "tomography.build", _box_rows)
    tracer.wrap(tomography, "build_aapt_program", "tomography.build", _box_rows)
    tracer.wrap(tomography, "solve", "sdp.solve")
    tracer.wrap(tomography, "reconstruct", "tomography.reconstruct")
    tracer.wrap(tomography, "minimal_elements_sweep", "tomography.sweep")
    tracer.wrap(tomography, "process_fidelity", "channels.process_fidelity")
    tracer.wrap(linalg, "psd_project", "linalg.psd_project")
    tracer.wrap(np.linalg, "inv", "numpy.linalg.inv")
    tracer.accumulate(np.linalg, "eigh", "eigh")

    get_loop = sdp.get_loop

    def traced_get_loop(backend=None):
        loop = get_loop(backend)

        def traced_loop(*args):
            with tracer.span("kernels.loop"):
                out = loop(*args)
                tracer.count("iterations", out[0])
            return out

        return traced_loop

    tracer._replace(sdp, "get_loop", traced_get_loop)


def _duration(span) -> float:
    return span[END] - span[START]


def self_times(spans: list[list]) -> dict[str, float]:
    """Per span name: summed duration minus what child spans and
    accumulated eigh calls cover."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += _duration(span)
    totals: dict[str, float] = {}
    for i, span in enumerate(spans):
        own = _duration(span) - child[i] - span[COUNTS].get("eigh_s", 0.0)
        totals[span[NAME]] = totals.get(span[NAME], 0.0) + own
    eigh = sum(span[COUNTS].get("eigh_s", 0.0) for span in spans)
    if eigh:
        totals["numpy.linalg.eigh"] = eigh
    return totals


def per_layer(spans: list[list]) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced run, as {name: (value, unit)}.

    Times and counts are per timed op, except ``probes.dataset_s`` (per
    set-up pass, median over passes), ``tomography.box_rows`` (per
    program built), ``kernels.iter_us`` (per solver iteration) and
    ``trace.op_p50_s`` (median op time with tracing on).
    """
    ops = [s for s in spans if s[NAME] == "op"]
    n_ops = len(ops)
    timed = [s for s in spans if s[OP] is not None]

    def total(name: str) -> float:
        return sum(_duration(s) for s in timed if s[NAME] == name)

    def counter(name: str, key: str) -> float:
        return sum(s[COUNTS].get(key, 0) for s in timed if s[NAME] == name)

    setups = [i for i, s in enumerate(spans) if s[NAME] == "setup"]
    dataset_s = statistics.median(
        sum(_duration(s) for s in spans if s[NAME] == "probes.make_dataset" and s[PARENT] == i)
        for i in setups
    )
    builds = [s for s in timed if s[NAME] == "tomography.build"]
    iterations = counter("kernels.loop", "iterations")
    loop_s = total("kernels.loop")
    sweeps = {i for i, s in enumerate(spans) if s[NAME] == "tomography.sweep"}
    steps = sum(1 for s in timed if s[NAME] == "tomography.reconstruct" and s[PARENT] in sweeps)
    sweep_self = self_times(spans).get("tomography.sweep", 0.0)

    metrics = {
        "probes.dataset_s": (dataset_s, "s"),
        "tomography.build_s": (total("tomography.build") / n_ops, "s"),
        "tomography.box_rows": (
            sum(s[COUNTS]["box_rows"] for s in builds) / len(builds) if builds else 0.0,
            "count",
        ),
        "sdp.solve_s": (total("sdp.solve") / n_ops, "s"),
        "sdp.prep_s": ((total("sdp.solve") - loop_s) / n_ops, "s"),
        "sdp.inv_s": (total("numpy.linalg.inv") / n_ops, "s"),
        "sdp.iterations": (iterations / n_ops, "count"),
        "kernels.loop_s": (loop_s / n_ops, "s"),
        "kernels.iter_us": (loop_s / iterations * 1e6 if iterations else 0.0, "us"),
        "kernels.eigh_s": (counter("kernels.loop", "eigh_s") / n_ops, "s"),
        "linalg.finalize_s": (total("linalg.psd_project") / n_ops, "s"),
        "tomography.sweep_steps": (steps / n_ops, "count"),
        "tomography.sweep_self_s": (sweep_self / n_ops, "s"),
        "channels.fidelity_s": (total("channels.process_fidelity") / n_ops, "s"),
        "trace.op_p50_s": (statistics.median(_duration(s) for s in ops), "s"),
    }
    return metrics
