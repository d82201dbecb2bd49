"""Time the solver on representative reconstruction problems and on one
minimal-measurement sweep case.

Run with ``PYTHONPATH=src python benchmarks/bench_solver.py``.  For each
problem it prints the best of three program builds (dataset to
``build_*_program``; the setup's measurement table is cached by the
first) and the best of three solves: the whole solve, the set-up before
the first iteration (row equilibration, row grouping and the x-step
factor), the ADMM loop, the iteration count and the loop time per
iteration.  Then it runs the sweep case: acceptance criterion 4's
twenty rank-4 two-qubit channels, with its seeds, batch, tolerance and
threshold, and prints the sweep steps, solver iterations, loop time and
wall time per sweep and per step.

    PYTHONPATH=src python benchmarks/bench_solver.py --baseline PARENT/src

runs the sweep case in ten alternating pairs against the parent
commit's source tree (each run in its own process with one BLAS thread)
and writes both sides, with the machine and the numpy and BLAS versions,
to ``BENCH_sweep.json`` at the repository root.  It also runs all 80
criterion-4 sweeps (ranks 1, 4, 8 and 16, twenty channels each) once
per tree, and records each channel's minimal count, steps, summed
iterations and step statuses, the per-rank medians, and every channel
whose count moved.  The sweep cases use only calls that both trees have.

    PYTHONPATH=src python benchmarks/bench_solver.py --corpus [--baseline PARENT/src]

runs the iteration corpus: seeded one- and two-qubit reconstructs
(SQPT and AAPT, complete and half data, exact and 1e4 shots, ranks from
1 to full, ``max_iter`` 20,000), the below-full-rank and shot-noise
inputs included.  Alone it prints the iteration p50/p95/max, statuses
and wall time of this tree.  With ``--baseline`` it runs the corpus in
parts, each part in its own process per tree, the trees alternating,
and writes per-case statuses, iterations, objectives, fidelities and
wall times of both, with their agreement, to ``BENCH_anderson.json``;
the agreement lists every case whose status or iteration count moved,
as "parent status iterations -> change status iterations".
Every corpus case is feasible by construction, so either way it prints
how many cases this tree reported infeasible and exits 1 if any were.

    PYTHONPATH=src python benchmarks/bench_solver.py --simulate [--baseline PARENT/src]

times dataset simulation: ``make_dataset`` on complete one-, two- and
three-qubit SQPT and one- and two-qubit AAPT data, exact and at 1e4
shots, the median of several calls after a warm-up call.  Alone it
prints this tree's times.  With ``--baseline`` it runs every case in
ten alternating pairs of processes, one per tree, and writes both sides
with the machine to ``BENCH_simulate.json``.

    PYTHONPATH=src python benchmarks/bench_solver.py --operator [--baseline PARENT/src]

splits the loop's time per iteration on representative two-qubit
problems (SQPT and AAPT, complete and half data, exact, rank 4): A x
(``matvec``), A^T y (``rmatvec``), the x-step solve, the cone projection
and the rest (Anderson and the vector updates), from one solve to tol
1e-7 with each part timed, next to the loop's time per iteration
without the timers.  Alone it prints this tree's split.  With
``--baseline`` it runs ten alternating pairs of processes, one per tree,
and writes both sides with the machine to ``BENCH_operator.json``.
"""

import argparse
import contextlib
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from vartomo import sdp, tomography
from vartomo.channels import build_scaled_pauli_basis, kraus_to_chi, process_fidelity
from vartomo.linalg import vec_hermitian
from vartomo.probes import RngSeed, Scheme, random_channel
from vartomo.sdp import BoxRows, SdpProblem, solve
from vartomo.tomography import (
    InfeasibleDataError,
    ReconstructionOptions,
    build_aapt_program,
    build_sqpt_program,
    make_dataset,
    reconstruct,
)


def tomography_problem(
    n_qubits: int, rank: int, shots: int = 0, scheme=Scheme.SQPT
) -> tuple[SdpProblem, float]:
    """The program of a seeded complete dataset and its best build time."""
    seed = RngSeed(9000 + n_qubits)
    d = 2**n_qubits
    basis = build_scaled_pauli_basis(n_qubits)
    truth = kraus_to_chi(random_channel(d, rank, seed), basis)
    data = make_dataset(truth, scheme, n_qubits, shots=shots, seed=seed.derive("m") if shots else None)
    build = build_sqpt_program if scheme is Scheme.SQPT else build_aapt_program
    build_s = np.inf
    for _ in range(3):
        start = time.perf_counter()
        problem, _ = build(data, ReconstructionOptions())
        build_s = min(build_s, time.perf_counter() - start)
    return problem, build_s


def random_diag_sdp(dim: int, n_rows: int) -> SdpProblem:
    """minimize <diag(w), X> over X psd with random floors on diagonal entries."""
    rng = np.random.default_rng(41)
    objective = vec_hermitian(np.diag(rng.uniform(0.5, 2.0, size=dim)))
    psd = np.zeros((n_rows, dim * dim))
    lower = np.empty(n_rows)
    for r in range(n_rows):
        psd[r, rng.integers(dim)] = 1.0  # svec puts the diagonal first
        lower[r] = rng.uniform(0.1, 1.0)
    rows = BoxRows(psd, lower, np.full(n_rows, np.inf))
    return SdpProblem(psd_dim=dim, n_slack=0, objective=objective, inequalities=rows)


@contextlib.contextmanager
def loop_timer():
    """Time every ADMM loop run inside the block.

    Wraps the ``sdp.get_loop`` hook that :func:`vartomo.sdp.solve` calls
    and restores it on exit.  Yields a one-entry list holding the summed
    loop seconds, read after the block.
    """
    get_loop = sdp.get_loop
    loop_s = [0.0]

    def timed_get_loop(backend=None):
        loop = get_loop(backend)

        def timed_loop(*args):
            start = time.perf_counter()
            try:
                return loop(*args)
            finally:
                loop_s[0] += time.perf_counter() - start

        return timed_loop

    sdp.get_loop = timed_get_loop
    try:
        yield loop_s
    finally:
        sdp.get_loop = get_loop


def timed_solve(problem, tol):
    """(solve seconds, loop seconds, solution)."""
    with loop_timer() as loop_s:
        start = time.perf_counter()
        result = solve(problem, tol)
        solve_s = time.perf_counter() - start
    return solve_s, loop_s[0], result


def time_solve(problem, tol=1e-7, repeats=3):
    return min((timed_solve(problem, tol) for _ in range(repeats)), key=lambda run: run[0])


SWEEP_RANK = 4
SWEEP_CHANNELS = 20
CRITERION_4 = RngSeed(20130214)  # the acceptance suite's master seed
CRITERION_4_RANKS = (1, 4, 8, 16)
PAIRS = 10
BENCH_FILE = Path(__file__).resolve().parent.parent / "BENCH_sweep.json"


def criterion_4_sweep(rank, i):
    """Acceptance criterion 4's sweep of channel ``i`` at ``rank``: its
    seeds, batch, tolerance and threshold."""
    channel = random_channel(4, rank, CRITERION_4.derive("c4", rank, i))
    return tomography.minimal_elements_sweep(
        channel,
        Scheme.SQPT,
        0.99,
        trials=1,
        seed=CRITERION_4.derive("c4s", rank, i),
        batch=16,
        options=ReconstructionOptions(tol=1e-5),
    )


def sweep_case():
    """Criterion 4's rank-4 sweeps: per sweep the wall time, steps,
    iterations and minimal count, plus the summed loop time."""
    sweeps = []
    with loop_timer() as loop_s:
        for i in range(SWEEP_CHANNELS):
            start = time.perf_counter()
            sweep = criterion_4_sweep(SWEEP_RANK, i)
            sweeps.append(
                {
                    "wall_s": time.perf_counter() - start,
                    "steps": len(sweep.trials[0].step_iterations),
                    "iterations": sweep.solver_iterations,
                    "minimal_count": sweep.minimal_independent_count,
                }
            )
    wall = [s["wall_s"] for s in sweeps]
    steps = sum(s["steps"] for s in sweeps)
    return {
        "sweep_p50_s": statistics.median(wall),
        "wall_s": sum(wall),
        "steps": steps,
        "iterations": sum(s["iterations"] for s in sweeps),
        "loop_s": loop_s[0],
        "step_s": sum(wall) / steps,
        "sweeps": sweeps,
    }


def criterion_4_case():
    """Every criterion-4 sweep (ranks 1, 4, 8 and 16, twenty channels
    each): per channel the minimal count, steps, summed iterations and
    the steps' statuses."""
    results = {}
    for rank, i in itertools.product(CRITERION_4_RANKS, range(SWEEP_CHANNELS)):
        trial = criterion_4_sweep(rank, i).trials[0]
        results[f"r{rank}/c{i}"] = {
            "count": trial.minimal_count,
            "steps": len(trial.step_iterations),
            "iterations": trial.solver_iterations,
            "statuses": [status.value for status in trial.step_status],
        }
    return results


def criterion_4_summary(results):
    """Per rank the median count, summed iterations and steps short of
    OPTIMAL."""
    summary = {}
    for rank in CRITERION_4_RANKS:
        channels = [r for label, r in results.items() if label.startswith(f"r{rank}/")]
        summary[f"r{rank}"] = {
            "median_count": statistics.median(r["count"] for r in channels),
            "iterations": sum(r["iterations"] for r in channels),
            "unconverged_steps": sum(
                status != "optimal" for r in channels for status in r["statuses"]
            ),
        }
    return summary


def print_sweep(result):
    print(
        f"\ncriterion-4 rank-{SWEEP_RANK} sweeps ({len(result['sweeps'])} channels): "
        f"p50 {result['sweep_p50_s']:.3f}s per sweep, {result['steps']} steps, "
        f"{result['iterations']} iterations, loop {result['loop_s']:.2f}s of "
        f"{result['wall_s']:.2f}s, {result['step_s'] * 1e3:.1f}ms per step"
    )


def machine():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "platform": platform.platform(),
        "processor": platform.processor() or platform.machine(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": 1,
    }


def run_in(src, *args):
    """This script with ``args`` in a fresh process importing vartomo from
    ``src`` (one BLAS thread); its last output line, read as JSON."""
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    out = subprocess.run(
        [sys.executable, __file__, *args], env=env, check=True, capture_output=True, text=True
    )
    return json.loads(out.stdout.splitlines()[-1])


def source_trees(baseline):
    """The src directories compared: ``baseline`` and this tree's."""
    return {
        "parent": Path(baseline).resolve(),
        "change": Path(__file__).resolve().parent.parent / "src",
    }


def alternate(baseline, *args):
    """``PAIRS`` pairs of ``run_in`` processes with ``args``, on ``baseline``
    and on this tree, the order flipping every pair; each tree's results
    in run order, keyed "parent" and "change"."""
    trees = source_trees(baseline)
    runs = {label: [] for label in trees}
    for pair in range(PAIRS):
        order = list(trees) if pair % 2 == 0 else list(trees)[::-1]
        for label in order:
            runs[label].append(run_in(trees[label], *args))
        print(f"pair {pair + 1}/{PAIRS} done", flush=True)
    return runs


def compare(baseline):
    """Alternating pairs of sweep-case runs, this tree against ``baseline``,
    then every criterion-4 sweep once per tree."""
    runs = alternate(baseline, "--sweep-only")
    for label, results in runs.items():
        for result in results:
            print_sweep(result)
            print(f"  ({label})")

    def summary(results):
        return {
            "sweep_p50_s": statistics.median(r["sweep_p50_s"] for r in results),
            "step_s": statistics.median(r["step_s"] for r in results),
            "loop_s": statistics.median(r["loop_s"] for r in results),
            "steps": results[0]["steps"],
            "iterations": results[0]["iterations"],
            "minimal_counts": [s["minimal_count"] for s in results[0]["sweeps"]],
        }

    # The whole criterion once per tree, and every channel whose count moved.
    trees = source_trees(baseline)
    channels = {label: run_in(src, "--criterion-4-only") for label, src in trees.items()}
    parent, change = channels["parent"], channels["change"]
    moved = {
        label: f"{parent[label]['count']} -> {change[label]['count']}"
        for label in parent
        if parent[label]["count"] != change[label]["count"]
    }
    criterion_4 = {
        "summary": {label: criterion_4_summary(results) for label, results in channels.items()},
        "moved_counts": moved,
        "channels": channels,
    }
    for label, ranks in criterion_4["summary"].items():
        print(f"criterion 4 ({label}): {ranks}")
    print(f"channels whose count moved: {moved}")

    doc = {
        "case": (
            f"acceptance criterion 4, rank {SWEEP_RANK}: {SWEEP_CHANNELS} two-qubit SQPT "
            "sweeps, batch 16, tol 1e-5, threshold 0.99, seeds of the acceptance suite"
        ),
        "machine": machine(),
        "pairs": PAIRS,
        "summary": {label: summary(results) for label, results in runs.items()},
        "runs": runs,
        "criterion_4": criterion_4,
    }
    BENCH_FILE.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {BENCH_FILE}")


CORPUS_SEED = RngSeed(8008)
CORPUS_MAX_ITER = 20_000
CORPUS_PARTS = 8
CORPUS_FILE = BENCH_FILE.with_name("BENCH_anderson.json")
# Where the two trees' objectives differ by more than REFERENCE_GAP, this
# tree solves the case again to REFERENCE_TOL, and each side's distance
# from that solve is reported.
REFERENCE_GAP = 1e-5
REFERENCE_TOL = 1e-10
REFERENCE_MAX_ITER = 200_000


def corpus_cases():
    """(label, n_qubits, scheme, complete, shots, rank, seed index): six
    seeds of every one-qubit combination, three of every two-qubit one."""
    cases = []
    for n_qubits, ranks, seeds in ((1, (1, 2, 3, 4), 6), (2, (1, 2, 4, 16), 3)):
        for scheme, complete, shots, rank, i in itertools.product(
            ("sqpt", "aapt"), (True, False), (0, 10_000), ranks, range(seeds)
        ):
            data = "complete" if complete else "half"
            noise = f"{shots}shots" if shots else "exact"
            label = f"{n_qubits}q/{scheme}/{data}/{noise}/r{rank}/s{i}"
            cases.append((label, n_qubits, scheme, complete, shots, rank, i))
    return cases


def corpus_dataset(n_qubits, scheme, complete, shots, rank, i):
    d = 2**n_qubits
    seed = CORPUS_SEED.derive(n_qubits, scheme, complete, shots, rank, i)
    basis = build_scaled_pauli_basis(n_qubits)
    truth = kraus_to_chi(random_channel(d, rank, seed.derive("channel")), basis)
    scheme = Scheme(scheme)
    selected = None
    if not complete:
        rng = seed.derive("select").generator()
        n_probes = d * d if scheme is Scheme.SQPT else 1
        n_effects = 6 ** (n_qubits if scheme is Scheme.SQPT else 2 * n_qubits)
        selected = [
            sorted(rng.choice(n_effects, n_effects // 2, replace=False).tolist())
            for _ in range(n_probes)
        ]
    data = make_dataset(
        truth, scheme, n_qubits, selected, shots, seed.derive("shots") if shots else None
    )
    return truth, data


def corpus_part(part, labels=None):
    """Every ``CORPUS_PARTS``-th case from ``part`` on, reconstructed here;
    or the cases named in ``labels``, solved to ``REFERENCE_TOL``."""
    options = ReconstructionOptions(max_iter=CORPUS_MAX_ITER)
    cases = corpus_cases()[part::CORPUS_PARTS]
    if labels is not None:
        options = ReconstructionOptions(tol=REFERENCE_TOL, max_iter=REFERENCE_MAX_ITER)
        cases = [case for case in corpus_cases() if case[0] in labels]
    results = {}
    for label, *case in cases:
        truth, data = corpus_dataset(*case)
        start = time.perf_counter()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)  # MAX_ITER is recorded
                result = reconstruct(data, options)
            solution = result.solver
            fidelity = process_fidelity(result.chi_hat, truth)
        except InfeasibleDataError as err:
            solution, fidelity = err.solution, None
        results[label] = {
            "status": solution.status.value,
            "iterations": solution.iterations,
            "objective": solution.objective_value,
            "fidelity": fidelity,
            "wall_s": time.perf_counter() - start,
        }
    return results


def run_part_in(src, part, labels=None):
    """``corpus_part`` in a fresh process importing vartomo from ``src``."""
    return run_in(src, "--corpus-part", str(part), *(["--labels", *labels] if labels else []))


def corpus_summary(results):
    iterations = [r["iterations"] for r in results.values()]
    statuses = [r["status"] for r in results.values()]
    wall = {status: 0.0 for status in statuses}
    for r in results.values():
        wall[r["status"]] += r["wall_s"]
    return {
        "cases": len(results),
        "iterations_p50": float(np.percentile(iterations, 50)),
        "iterations_p95": float(np.percentile(iterations, 95)),
        "iterations_max": max(iterations),
        "iterations_total": sum(iterations),
        "wall_s": sum(r["wall_s"] for r in results.values()),
        "wall_s_by_status": wall,
        "statuses": {status: statuses.count(status) for status in sorted(set(statuses))},
    }


def print_corpus(label, summary):
    print(
        f"{label}: {summary['cases']} cases, iterations p50 {summary['iterations_p50']:.0f} "
        f"p95 {summary['iterations_p95']:.0f} max {summary['iterations_max']}, "
        f"{summary['wall_s']:.1f}s, statuses {summary['statuses']}"
    )


def count_infeasible(results) -> int:
    """Print and return the number of cases reported infeasible."""
    infeasible = sorted(label for label, r in results.items() if r["status"] == "infeasible")
    print(f"infeasible cases (all are feasible by construction): {len(infeasible)} {infeasible}")
    return len(infeasible)


def corpus(baseline) -> int:
    """The corpus on this tree; with ``baseline``, on both trees, compared.
    Returns the number of cases this tree reported infeasible."""
    here = Path(__file__).resolve().parent.parent / "src"
    if baseline is None:
        results = {}
        for part in range(CORPUS_PARTS):
            results.update(run_part_in(here, part))
        print_corpus("change", corpus_summary(results))
        return count_infeasible(results)
    trees = {"parent": Path(baseline).resolve(), "change": here}
    runs = {label: {} for label in trees}
    for part in range(CORPUS_PARTS):
        order = list(trees) if part % 2 == 0 else list(trees)[::-1]
        for label in order:
            runs[label].update(run_part_in(trees[label], part))
        print(f"part {part + 1}/{CORPUS_PARTS} done", flush=True)

    parent, change = runs["parent"], runs["change"]
    regressed = [
        label for label in parent
        if parent[label]["status"] == "optimal" and change[label]["status"] != "optimal"
    ]
    both = [
        label for label in parent
        if parent[label]["status"] == change[label]["status"] == "optimal"
    ]

    def gap(a, b):  # relative; a zero optimum (complete exact data) is measured against 1e-2
        return abs(a - b) / max(abs(a), abs(b), 1e-2)

    objective = {
        label: gap(parent[label]["objective"], change[label]["objective"]) for label in both
    }
    unique = [label for label in both if "/complete/exact/" in label]
    fidelity = {
        label: abs(parent[label]["fidelity"] - change[label]["fidelity"]) for label in unique
    }
    apart = sorted(label for label in both if objective[label] > REFERENCE_GAP)
    tight = run_part_in(here, 0, apart) if apart else {}
    reference = {
        label: {
            "status": tight[label]["status"],
            **{
                side: gap(runs[side][label]["objective"], tight[label]["objective"])
                for side in trees
            },
        }
        for label in apart
    }

    def outcome(r):
        return f"{r['status']} {r['iterations']}"

    moved = {
        label: f"{outcome(parent[label])} -> {outcome(change[label])}"
        for label in sorted(parent)
        if outcome(parent[label]) != outcome(change[label])
    }
    agreement = {
        "optimal_regressed": regressed,
        "moved": moved,
        "both_optimal": len(both),
        "objective_gap_max": max(objective.values()),
        "objective_gap_worst": max(objective, key=objective.get),
        f"objective_gap_to_tol_{REFERENCE_TOL:g}_solve": reference,
        "change_closer_to_tight_solve": sum(
            r["change"] <= r["parent"] for r in reference.values()
        ),
        "complete_exact_fidelity_abs_max": max(fidelity.values()),
    }
    doc = {
        "case": (
            f"iteration corpus: {len(parent)} seeded reconstructs (one qubit: SQPT and AAPT, "
            "complete and half data, exact and 1e4 shots, ranks 1-4, six seeds; two qubits: "
            f"the same at ranks 1, 2, 4 and 16, three seeds), max_iter {CORPUS_MAX_ITER}, "
            f"default options otherwise; {CORPUS_PARTS} parts, trees alternating per part"
        ),
        "machine": machine(),
        "summary": {label: corpus_summary(results) for label, results in runs.items()},
        "agreement": agreement,
        "runs": runs,
    }
    for label, summary in doc["summary"].items():
        print_corpus(label, summary)
    print(json.dumps(agreement, indent=1))
    CORPUS_FILE.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {CORPUS_FILE}")
    return count_infeasible(change)


SIMULATE_FILE = BENCH_FILE.with_name("BENCH_simulate.json")
SIMULATE_CASES = [
    (n_qubits, scheme, shots)
    for n_qubits, scheme in ((1, "sqpt"), (2, "sqpt"), (3, "sqpt"), (1, "aapt"), (2, "aapt"))
    for shots in (0, 10_000)
]
SIMULATE_CALLS = 7


def simulate_case():
    """Per case: the median and best of ``SIMULATE_CALLS`` ``make_dataset``
    calls on a seeded rank-2 channel, after one untimed call that makes
    the canonical setup, and the record count."""
    results = {}
    for n_qubits, scheme, shots in SIMULATE_CASES:
        d = 2**n_qubits
        seed = RngSeed(9100).derive(n_qubits, scheme, shots)
        truth = kraus_to_chi(random_channel(d, 2, seed), build_scaled_pauli_basis(n_qubits))

        def simulate():
            return make_dataset(
                truth, Scheme(scheme), n_qubits, shots=shots,
                seed=seed.derive("shots") if shots else None,
            )

        records = len(simulate().records)
        times = []
        for _ in range(SIMULATE_CALLS):
            start = time.perf_counter()
            simulate()
            times.append(time.perf_counter() - start)
        label = f"{n_qubits}q/{scheme}/" + (f"{shots}shots" if shots else "exact")
        results[label] = {
            "median_s": statistics.median(times), "min_s": min(times), "records": records
        }
    return results


def print_simulate(results):
    for label, r in results.items():
        print(
            f"{label:22s} {r['records']:6d} records  median {r['median_s'] * 1e3:8.2f}ms  "
            f"best {r['min_s'] * 1e3:8.2f}ms"
        )


def simulate(baseline):
    """Dataset simulation on this tree; with ``baseline``, alternating
    pairs of processes on both trees, written to ``BENCH_simulate.json``."""
    if baseline is None:
        print_simulate(run_in(Path(__file__).resolve().parent.parent / "src", "--simulate-only"))
        return
    runs = alternate(baseline, "--simulate-only")
    summary = {
        label: {
            case: statistics.median(run[case]["median_s"] for run in results)
            for case in results[0]
        }
        for label, results in runs.items()
    }
    ratio = {case: summary["parent"][case] / summary["change"][case] for case in summary["change"]}
    faster = {
        case: sum(p[case]["median_s"] > c[case]["median_s"] for p, c in zip(*runs.values()))
        for case in summary["change"]
    }
    doc = {
        "case": (
            "make_dataset on complete data of a seeded rank-2 channel: SQPT at 1-3 qubits, "
            f"AAPT at 1-2 qubits, exact and 1e4 shots; per process the median of "
            f"{SIMULATE_CALLS} calls after a warm-up call; {PAIRS} alternating pairs of processes"
        ),
        "machine": machine(),
        "pairs": PAIRS,
        "records": {case: r["records"] for case, r in runs["change"][0].items()},
        "summary_median_s": summary,
        "speedup": ratio,
        "change_faster_in_pairs": faster,
        "runs": runs,
    }
    for case in summary["change"]:
        print(
            f"{case:22s} parent {summary['parent'][case] * 1e3:8.2f}ms  "
            f"change {summary['change'][case] * 1e3:8.2f}ms  x{ratio[case]:.1f}  "
            f"faster in {faster[case]}/{PAIRS} pairs"
        )
    SIMULATE_FILE.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {SIMULATE_FILE}")


OPERATOR_FILE = BENCH_FILE.with_name("BENCH_operator.json")
OPERATOR_CASES = [(scheme, complete) for scheme in ("sqpt", "aapt") for complete in (True, False)]
OPERATOR_PARTS = ("matvec", "rmatvec", "solve", "projection")


def operator_problem(scheme, complete):
    """A seeded rank-4 two-qubit program of exact data, half of each
    probe's effects at random when not ``complete``."""
    seed = RngSeed(9200).derive(scheme, complete)
    truth = kraus_to_chi(random_channel(4, 4, seed), build_scaled_pauli_basis(2))
    selected = None
    if not complete:
        rng = seed.derive("select").generator()
        n_probes, n_effects = (16, 36) if scheme == "sqpt" else (1, 1296)
        selected = [
            sorted(rng.choice(n_effects, n_effects // 2, replace=False).tolist())
            for _ in range(n_probes)
        ]
    data = make_dataset(truth, Scheme(scheme), 2, selected)
    build = build_sqpt_program if scheme == "sqpt" else build_aapt_program
    return build(data, ReconstructionOptions())[0]


@contextlib.contextmanager
def split_timer(problem):
    """Time the loop's parts inside the block: the operator's ``matvec``,
    ``rmatvec`` and ``solve`` and every cone projection, wrapped in
    timers.  Yields the per-part seconds and call counts."""
    from vartomo import _kernels

    seconds = {part: 0.0 for part in OPERATOR_PARTS}
    calls = {part: 0 for part in OPERATOR_PARTS}

    def timed(part, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[part] += time.perf_counter() - start
                calls[part] += 1

        return wrapper

    op = sdp.row_operator(problem)
    for part in ("matvec", "rmatvec", "solve"):
        setattr(op, part, timed(part, getattr(op, part)))
    row_operator, cone_projection = sdp.row_operator, _kernels.cone_projection
    sdp.row_operator = lambda _: op
    _kernels.cone_projection = lambda *args: timed("projection", cone_projection(*args))
    try:
        yield seconds, calls
    finally:
        sdp.row_operator, _kernels.cone_projection = row_operator, cone_projection


def operator_case():
    """Per case: the loop's microseconds per iteration, untimed (best of
    three solves) and split by part (one solve with the timers)."""
    results = {}
    for scheme, complete in OPERATOR_CASES:
        problem = operator_problem(scheme, complete)
        _, loop_s, solution = time_solve(problem)
        iters = solution.iterations
        with split_timer(problem) as (seconds, calls):
            _, split_loop_s, _ = timed_solve(problem, 1e-7)
        per_iter = {part: seconds[part] / iters * 1e6 for part in OPERATOR_PARTS}
        per_iter["other"] = split_loop_s / iters * 1e6 - sum(per_iter.values())
        label = f"2q/{scheme}/{'complete' if complete else 'half'}/exact/r4"
        results[label] = {
            "iterations": iters,
            "loop_us_per_iter": loop_s / iters * 1e6,
            "split_us_per_iter": per_iter,
            "calls": calls,
        }
    return results


def print_operator(results):
    header = f"{'case':26s} {'iters':>6s} {'loop':>7s}" + "".join(
        f" {part:>10s}" for part in (*OPERATOR_PARTS, "other")
    )
    print(header + "   (us per iteration)")
    for label, r in results.items():
        split = r["split_us_per_iter"]
        print(
            f"{label:26s} {r['iterations']:6d} {r['loop_us_per_iter']:7.1f}"
            + "".join(f" {split[part]:10.1f}" for part in (*OPERATOR_PARTS, "other"))
        )


def operator(baseline):
    """The loop split on this tree; with ``baseline``, alternating pairs
    of processes on both trees, written to ``BENCH_operator.json``."""
    if baseline is None:
        print_operator(run_in(Path(__file__).resolve().parent.parent / "src", "--operator-only"))
        return
    runs = alternate(baseline, "--operator-only")

    def median_split(results, case):
        return {
            "iterations": results[0][case]["iterations"],
            "loop_us_per_iter": statistics.median(r[case]["loop_us_per_iter"] for r in results),
            "split_us_per_iter": {
                part: statistics.median(r[case]["split_us_per_iter"][part] for r in results)
                for part in (*OPERATOR_PARTS, "other")
            },
        }

    summary = {
        label: {case: median_split(results, case) for case in results[0]}
        for label, results in runs.items()
    }
    faster = {
        case: sum(
            p[case]["loop_us_per_iter"] > c[case]["loop_us_per_iter"] for p, c in zip(*runs.values())
        )
        for case in summary["change"]
    }
    doc = {
        "case": (
            "the ADMM loop's time per iteration on seeded rank-4 two-qubit programs of exact "
            "data (SQPT and AAPT, complete and half), untimed (best of three solves to tol "
            "1e-7) and split by part (one solve with each part wrapped in a timer; 'other' is "
            f"the rest of the loop); {PAIRS} alternating pairs of processes, medians"
        ),
        "machine": machine(),
        "pairs": PAIRS,
        "summary": summary,
        "change_faster_in_pairs": faster,
        "runs": runs,
    }
    for label, results in summary.items():
        print(f"{label}:")
        print_operator(results)
    print(f"change faster (loop per iteration) in pairs: {faster}")
    OPERATOR_FILE.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {OPERATOR_FILE}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sweep-only", action="store_true", help="print the sweep case as JSON")
    parser.add_argument(
        "--criterion-4-only", action="store_true", help="print every criterion-4 sweep as JSON"
    )
    parser.add_argument("--baseline", help="src directory of the parent tree to compare against")
    parser.add_argument("--corpus", action="store_true", help="run the iteration corpus")
    parser.add_argument("--corpus-part", type=int, help="print one part of the corpus as JSON")
    parser.add_argument("--labels", nargs="*", help="with --corpus-part: these cases, tightly")
    parser.add_argument("--simulate", action="store_true", help="time dataset simulation")
    parser.add_argument(
        "--simulate-only", action="store_true", help="print the simulation times as JSON"
    )
    parser.add_argument("--operator", action="store_true", help="split the loop's time by part")
    parser.add_argument(
        "--operator-only", action="store_true", help="print the loop split as JSON"
    )
    args = parser.parse_args()
    if args.sweep_only:
        print(json.dumps(sweep_case()))
    elif args.criterion_4_only:
        print(json.dumps(criterion_4_case()))
    elif args.operator_only:
        print(json.dumps(operator_case()))
    elif args.operator:
        operator(args.baseline)
    elif args.simulate_only:
        print(json.dumps(simulate_case()))
    elif args.simulate:
        simulate(args.baseline)
    elif args.corpus_part is not None:
        print(json.dumps(corpus_part(args.corpus_part, args.labels)))
    elif args.corpus:
        sys.exit(1 if corpus(args.baseline) else 0)
    elif args.baseline:
        compare(args.baseline)
    else:
        solver_table()
        print_sweep(sweep_case())


def solver_table():
    cases = [
        ("single-qubit SQPT, noiseless", tomography_problem(1, 2)),
        ("single-qubit SQPT, 1e4 shots", tomography_problem(1, 2, shots=10_000)),
        ("two-qubit SQPT, noiseless", tomography_problem(2, 8)),
        ("two-qubit AAPT, noiseless", tomography_problem(2, 8, scheme=Scheme.AAPT)),
        ("random diagonal SDP (dim 8)", (random_diag_sdp(8, 24), None)),
    ]
    header = (
        f"{'problem':30s} {'rows':>5s} {'build':>9s} {'time':>9s} {'prep':>9s} {'loop':>9s} "
        f"{'iters':>6s} {'us/iter':>8s}"
    )
    print(header)
    print("-" * len(header))
    for name, (problem, build_s) in cases:
        t, loop_s, result = time_solve(problem)
        rows = len(problem.inequalities) + len(problem.equalities)
        per_iter = loop_s / result.iterations * 1e6
        build = "-" if build_s is None else f"{build_s * 1e3:.1f}ms"
        print(
            f"{name:30s} {rows:5d} {build:>9s} {t * 1e3:7.1f}ms {(t - loop_s) * 1e3:7.1f}ms "
            f"{loop_s * 1e3:7.1f}ms {result.iterations:6d} {per_iter:8.1f}"
        )


if __name__ == "__main__":
    main()
