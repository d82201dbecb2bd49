"""Time the solver's cases on this source tree, or on it and a parent tree side by side.

    PYTHONPATH=src python benchmarks/bench_solver.py
        [--corpus | --simulate | --operator | --dump] [--baseline PARENT/src]

The rule: a mode runs its case in fresh processes, one per call and
tree, each importing vartomo from its tree with one BLAS thread, and
prints what they measured.  Alone it runs on this tree.  With
``--baseline`` the two trees take turns to go first, and the mode also
prints their comparison and writes both sides, with the machine and the
numpy and BLAS versions, to ``BENCH_<mode>.json`` at the repository root.

- ``sweep`` (no flag): criterion 4's twenty rank-4 two-qubit sweeps, ten
  calls (:func:`sweep_case`).  Alone it first prints the solver table
  (:func:`solver_table_case`, in a child like every case);
  compared, it also runs all 80 criterion-4 sweeps once per tree and
  lists every channel whose minimal count moved.
- ``corpus``: 288 seeded reconstructs in eight parts (:func:`corpus_case`).
  Compared, it lists every case whose status or iteration count moved
  and re-solves here, tightly, the cases whose objectives differ.  It
  exits 1 if this tree reported a case infeasible: none is.
- ``simulate``: dataset simulation, ten calls (:func:`simulate_case`).
- ``operator``: the loop's time per iteration split by part, and the
  row operator's set-up, at one and two qubits, ten calls
  (:func:`operator_case`), then one three-qubit complete-SQPT
  reconstruct per tree (:func:`three_qubit_case`): its set-up (the
  Gram and the factor apart), build, iterations, status, fidelity and
  peak RSS.
- ``dump``: the problem dump's bytes and the seconds of ``problem_to_json``
  and ``problem_from_json`` for 2q SQPT (without and with the
  trace-preserving equalities), 2q AAPT and 3q SQPT programs, ten calls
  (:func:`dump_case`).

``--case NAME [ARG ...]`` runs one case of ``CASES`` in this process and
prints its JSON; the modes run it in their child processes.
"""

import argparse
import contextlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import timeit
import warnings
from pathlib import Path

import numpy as np

from vartomo import _kernels, sdp, tomography
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

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "src"  # this tree's sources
PAIRS = 10


def dataset(n_qubits, scheme, rank, channel_seed, select_seed=None, shots=0, shots_seed=None):
    """The chi of a seeded rank-``rank`` channel and its dataset: complete,
    or half of each probe's effects drawn with ``select_seed``; exact, or
    ``shots`` per record drawn with ``shots_seed``."""
    d = 2**n_qubits
    scheme = Scheme(scheme)
    truth = kraus_to_chi(random_channel(d, rank, channel_seed), build_scaled_pauli_basis(n_qubits))
    selected = None
    if select_seed is not None:
        rng = select_seed.generator()
        n_probes = d * d if scheme is Scheme.SQPT else 1
        n_effects = 6 ** (n_qubits if scheme is Scheme.SQPT else 2 * n_qubits)
        selected = [
            sorted(rng.choice(n_effects, n_effects // 2, replace=False).tolist())
            for _ in range(n_probes)
        ]
    return truth, make_dataset(truth, scheme, n_qubits, selected, shots, shots_seed)


def program(data, tp=False) -> SdpProblem:
    """The program of ``data`` under the default options, with the
    trace-preserving equalities when ``tp``."""
    build = build_sqpt_program if data.scheme is Scheme.SQPT else build_aapt_program
    return build(data, ReconstructionOptions(tp_constraint=tp))[0]


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


def timed(fn, seconds, calls, key, inner=()):
    """``fn``, adding the time of each call to ``seconds[key]`` and one to
    ``calls[key]``; less, with ``inner``, the seconds those keys gained
    during the call (the timed parts that ``fn`` calls)."""

    def wrapper(*args, **kwargs):
        before = sum(seconds[part] for part in inner)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            seconds[key] += elapsed - (sum(seconds[part] for part in inner) - before)
            calls[key] += 1

    return wrapper


@contextlib.contextmanager
def loop_timer():
    """Time every ADMM loop run inside the block.

    Wraps the ``sdp.get_loop`` hook that :func:`vartomo.sdp.solve` calls
    and restores it on exit.  Yields a dict whose ``"loop"`` entry holds
    the summed loop seconds, read after the block.
    """
    get_loop = sdp.get_loop
    seconds, calls = {"loop": 0.0}, {"loop": 0}
    sdp.get_loop = lambda backend=None: timed(get_loop(backend), seconds, calls, "loop")
    try:
        yield seconds
    finally:
        sdp.get_loop = get_loop


def timed_solve(problem, tol):
    """(solve seconds, loop seconds, solution)."""
    with loop_timer() as loop_s:
        start = time.perf_counter()
        result = solve(problem, tol)
        solve_s = time.perf_counter() - start
    return solve_s, loop_s["loop"], result


def time_solve(problem, tol=1e-7, repeats=3):
    return min((timed_solve(problem, tol) for _ in range(repeats)), key=lambda run: run[0])


def solver_table_case():
    """Per problem of the solver table its rows, the best of three builds
    (dataset to program; the setup's factor tables are cached by the
    first) and the best of three solves: total, loop and iteration count."""
    cases = [  # (name, n_qubits, scheme, rank, shots) of a seeded complete dataset
        ("single-qubit SQPT, noiseless", 1, Scheme.SQPT, 2, 0),
        ("single-qubit SQPT, 1e4 shots", 1, Scheme.SQPT, 2, 10_000),
        ("two-qubit SQPT, noiseless", 2, Scheme.SQPT, 8, 0),
        ("two-qubit AAPT, noiseless", 2, Scheme.AAPT, 8, 0),
    ]
    problems = []
    for name, n_qubits, scheme, rank, shots in cases:
        seed = RngSeed(9000 + n_qubits)
        shots_seed = seed.derive("m") if shots else None
        _, data = dataset(n_qubits, scheme, rank, seed, shots=shots, shots_seed=shots_seed)
        build_s = min(timeit.repeat(lambda: program(data), number=1, repeat=3))
        problems.append((name, program(data), build_s))
    problems.append(("random diagonal SDP (dim 8)", random_diag_sdp(8, 24), None))
    table = []
    for name, problem, build_s in problems:
        solve_s, loop_s, result = time_solve(problem)
        table.append(
            {
                "problem": name,
                "rows": len(problem.inequalities) + len(problem.equalities),
                "build_s": build_s,
                "solve_s": solve_s,
                "loop_s": loop_s,
                "iterations": result.iterations,
            }
        )
    return table


def show_solver_table(table):
    header = (
        f"{'problem':30s} {'rows':>5s} {'build':>9s} {'time':>9s} {'prep':>9s} {'loop':>9s} "
        f"{'iters':>6s} {'us/iter':>8s}"
    )
    print(header)
    print("-" * len(header))
    for r in table:
        t, loop_s, iters = r["solve_s"], r["loop_s"], r["iterations"]
        build = "-" if r["build_s"] is None else f"{r['build_s'] * 1e3:.1f}ms"
        print(
            f"{r['problem']:30s} {r['rows']:5d} {build:>9s} {t * 1e3:7.1f}ms "
            f"{(t - loop_s) * 1e3:7.1f}ms {loop_s * 1e3:7.1f}ms {iters:6d} "
            f"{loop_s / iters * 1e6:8.1f}"
        )


# --- the child side: one case, run in this process ----------------------------

SWEEP_RANK = 4
SWEEP_CHANNELS = 20
CRITERION_4 = RngSeed(20130214)  # the acceptance suite's master seed
CRITERION_4_RANKS = (1, 4, 8, 16)


def criterion_4_sweep(rank, i):
    """Acceptance criterion 4's sweep of channel ``i`` at ``rank``: its
    seeds, batch, tolerance and threshold."""
    channel = random_channel(4, rank, CRITERION_4.derive("c4", rank, i))
    seed = CRITERION_4.derive("c4s", rank, i)
    options = ReconstructionOptions(tol=1e-5)
    return tomography.minimal_elements_sweep(
        channel, Scheme.SQPT, 0.99, trials=1, seed=seed, batch=16, options=options
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
        "loop_s": loop_s["loop"],
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


CORPUS_SEED = RngSeed(8008)
CORPUS_MAX_ITER = 20_000
CORPUS_PARTS = 8
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


def corpus_case(*args):
    """``corpus N``: every ``CORPUS_PARTS``-th case from the N-th on,
    reconstructed here; ``corpus LABEL...``: the cases named, solved to
    ``REFERENCE_TOL``."""
    if len(args) == 1 and args[0].isdigit():
        options = ReconstructionOptions(max_iter=CORPUS_MAX_ITER)
        cases = corpus_cases()[int(args[0]) :: CORPUS_PARTS]
    else:
        options = ReconstructionOptions(tol=REFERENCE_TOL, max_iter=REFERENCE_MAX_ITER)
        cases = [case for case in corpus_cases() if case[0] in args]
        if len(cases) != len(set(args)):
            raise ValueError(f"not corpus cases: {sorted(set(args) - {c[0] for c in cases})}")
    results = {}
    for label, n_qubits, scheme, complete, shots, rank, i in cases:
        seed = CORPUS_SEED.derive(n_qubits, scheme, complete, shots, rank, i)
        select = None if complete else seed.derive("select")
        shots_seed = seed.derive("shots") if shots else None
        truth, data = dataset(
            n_qubits, scheme, rank, seed.derive("channel"), select, shots, shots_seed
        )
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
        seed = RngSeed(9100).derive(n_qubits, scheme, shots)
        shots_seed = seed.derive("shots") if shots else None
        truth, data = dataset(n_qubits, scheme, 2, seed, shots=shots, shots_seed=shots_seed)
        times = []
        for _ in range(SIMULATE_CALLS):
            start = time.perf_counter()
            make_dataset(truth, Scheme(scheme), n_qubits, shots=shots, seed=shots_seed)
            times.append(time.perf_counter() - start)
        label = f"{n_qubits}q/{scheme}/" + (f"{shots}shots" if shots else "exact")
        results[label] = {
            "median_s": statistics.median(times),
            "min_s": min(times),
            "records": len(data.records),
        }
    return results


OPERATOR_CASES = [
    (n_qubits, scheme, complete)
    for n_qubits in (1, 2)
    for scheme in ("sqpt", "aapt")
    for complete in (True, False)
]
OPERATOR_PARTS = ("matvec", "rmatvec", "solve", "x_step", "projection", "anderson", "other")
OPERATOR_CALLS = ("matvec", "rmatvec", "solve")  # the operator's parts that x_step may call
# Solves per case: the untimed loop is the best of these, and so is the
# split.  A one-qubit solve takes a few ms, so it is repeated more often.
OPERATOR_REPEATS = {1: 15, 2: 3}


@contextlib.contextmanager
def split_timer(problem):
    """Time the loop's parts inside the block: the operator's ``matvec``,
    ``rmatvec``, ``solve`` and ``x_step``, every cone projection and every
    Anderson step, wrapped in timers.  Yields the per-part seconds and call
    counts.  "x_step" is the step's own time, less the ``OPERATOR_CALLS``
    it makes: on a program of the dense step the whole step, where the
    three are called only outside it (the residual checks), else the
    slicing between them."""
    seconds = {part: 0.0 for part in OPERATOR_PARTS[:-1]}  # "other" is not timed
    calls = {part: 0 for part in seconds}
    op = sdp.row_operator(problem)
    for part in OPERATOR_CALLS:
        setattr(op, part, timed(getattr(op, part), seconds, calls, part))
    op.x_step = timed(op.x_step, seconds, calls, "x_step", OPERATOR_CALLS)
    # The loop makes these closures once per call: time what each returns.
    factories = {"cone_projection": "projection", "anderson_step": "anderson"}
    originals = {name: getattr(_kernels, name) for name in factories}

    def timed_factory(make, part):
        return lambda *args: timed(make(*args), seconds, calls, part)

    row_operator = sdp.row_operator
    sdp.row_operator = lambda _: op
    for name, make in originals.items():
        setattr(_kernels, name, timed_factory(make, factories[name]))
    try:
        yield seconds, calls
    finally:
        sdp.row_operator = row_operator
        for name, make in originals.items():
            setattr(_kernels, name, make)


def operator_case():
    """Per case: the loop's microseconds per iteration, untimed (best of
    ``OPERATOR_REPEATS`` solves) and split by part (the best of as many
    solves with the timers), and the seconds of the row operator's
    set-up (``sdp.row_operator``, best of as many calls), on a seeded
    rank-4 program of exact data, half of each probe's effects at random
    when not complete."""
    results = {}
    for n_qubits, scheme, complete in OPERATOR_CASES:
        seed = RngSeed(9200).derive(scheme, complete)
        _, data = dataset(n_qubits, scheme, 4, seed, None if complete else seed.derive("select"))
        problem = program(data)
        repeats = OPERATOR_REPEATS[n_qubits]
        row_operator_s = min(
            timeit.timeit(lambda: sdp.row_operator(problem), number=1) for _ in range(repeats)
        )
        _, loop_s, solution = time_solve(problem, repeats=repeats)
        iters = solution.iterations
        splits = []
        for _ in range(repeats):
            with split_timer(problem) as (seconds, calls):
                _, split_loop_s, _ = timed_solve(problem, 1e-7)
            splits.append((split_loop_s, dict(seconds), dict(calls)))
        split_loop_s, seconds, calls = min(splits, key=lambda split: split[0])
        per_iter = {part: seconds[part] / iters * 1e6 for part in seconds}
        per_iter["other"] = split_loop_s / iters * 1e6 - sum(per_iter.values())
        label = f"{n_qubits}q/{scheme}/{'complete' if complete else 'half'}/exact/r4"
        results[label] = {
            "iterations": iters,
            "loop_us_per_iter": loop_s / iters * 1e6,
            "split_us_per_iter": per_iter,
            "calls": calls,
            "row_operator_s": row_operator_s,
        }
    return results


def three_qubit_case():
    """One reconstruct of complete noiseless three-qubit SQPT data of a
    seeded rank-1 channel: the dataset's time, the program build's, the
    reconstruct's time outside the loop (the set-up: build, row operator
    and its factor, then the short finish), the row operator's set-up
    split into its factor (``_kernels.spd_inverse``, or ``np.linalg.inv``
    on a tree without it) and the rest, which is mostly the Gram matrix,
    the loop's time, the iterations, status and fidelity, and the
    process's peak RSS (``ru_maxrss``)."""
    start = time.perf_counter()
    truth, data = dataset(3, "sqpt", 1, RngSeed(9300))
    dataset_s = time.perf_counter() - start
    keys = ("build", "row_operator", "factor")
    seconds, calls = dict.fromkeys(keys, 0.0), dict.fromkeys(keys, 0)
    factor_owner, factor_name = (
        (_kernels, "spd_inverse") if hasattr(_kernels, "spd_inverse") else (np.linalg, "inv")
    )
    patched = [
        (tomography, "build_sqpt_program", "build"),
        (sdp, "row_operator", "row_operator"),
        (factor_owner, factor_name, "factor"),
    ]
    originals = [getattr(owner, name) for owner, name, _ in patched]
    for (owner, name, key), original in zip(patched, originals):
        setattr(owner, name, timed(original, seconds, calls, key))
    try:
        with loop_timer() as loop_s:
            start = time.perf_counter()
            result = reconstruct(data)
            wall_s = time.perf_counter() - start
    finally:
        for (owner, name, _), original in zip(patched, originals):
            setattr(owner, name, original)
    return {
        "dataset_s": dataset_s,
        "build_s": seconds["build"],
        "setup_s": wall_s - loop_s["loop"],
        "gram_s": seconds["row_operator"] - seconds["factor"],
        "factor_s": seconds["factor"],
        "loop_s": loop_s["loop"],
        "iterations": result.solver.iterations,
        "status": result.solver.status.value,
        "fidelity": process_fidelity(result.chi_hat, truth),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


DUMP_CASES = ((2, "sqpt", False), (2, "sqpt", True), (2, "aapt", False), (3, "sqpt", False))
DUMP_CALLS = 5


def dump_case():
    """Per case (qubits, scheme, trace-preserving equalities): the bytes of
    the problem dump of complete noiseless data of a seeded rank-1
    channel, and the median seconds of ``DUMP_CALLS`` ``problem_to_json``
    and ``problem_from_json`` calls."""
    results = {}
    for n_qubits, scheme, tp in DUMP_CASES:
        _, data = dataset(n_qubits, scheme, 1, RngSeed(9400).derive(n_qubits, scheme))
        problem = program(data, tp)
        dump_s, load_s = [], []
        for _ in range(DUMP_CALLS):
            start = time.perf_counter()
            text = sdp.problem_to_json(problem)
            dump_s.append(time.perf_counter() - start)
            start = time.perf_counter()
            sdp.problem_from_json(text)
            load_s.append(time.perf_counter() - start)
        results[f"{n_qubits}q/{scheme}" + ("/tp" if tp else "")] = {
            "bytes": len(text.encode()),
            "dump_s": statistics.median(dump_s),
            "load_s": statistics.median(load_s),
        }
    return results


CASES = {
    "solver-table": solver_table_case,
    "sweep": sweep_case,
    "criterion-4": criterion_4_case,
    "corpus": corpus_case,
    "simulate": simulate_case,
    "operator": operator_case,
    "three-qubit": three_qubit_case,
    "dump": dump_case,
}


# --- the driver side: cases run in child processes, one tree each -------------


def run_in(src, name, *args):
    """Case ``name`` of ``CASES`` with ``args`` in a fresh process importing
    vartomo from ``src`` (one BLAS thread): its JSON, the process's last
    output line.  A failed process has its stderr printed and raises
    ``CalledProcessError``."""
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    out = subprocess.run(
        [sys.executable, __file__, "--case", name, *args], env=env, capture_output=True, text=True
    )
    if out.returncode:
        sys.stderr.write(out.stderr)
        out.check_returncode()
    return json.loads(out.stdout.splitlines()[-1])


def alternate(trees, calls):
    """One ``run_in`` process per tree for each of ``calls`` (a case name
    and its arguments), the trees' order flipping from one call to the
    next; each tree's results in call order, keyed as ``trees``."""
    runs = {label: [] for label in trees}
    for k, call in enumerate(calls):
        order = list(trees) if k % 2 == 0 else list(trees)[::-1]
        for label in order:
            runs[label].append(run_in(trees[label], *call))
        print(f"{' '.join(call)}: {k + 1}/{len(calls)} done", flush=True)
    return runs


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


def write(mode, case, runs, **doc):
    """``BENCH_<mode>.json`` at the repository root: the case, the machine,
    the calls per tree, ``doc`` and each tree's ``runs``."""
    path = ROOT / f"BENCH_{mode}.json"
    doc = {"case": case, "machine": machine(), "pairs": len(runs["change"]), **doc, "runs": runs}
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {path}")


def show(**values):
    print(json.dumps(values, indent=1))


def medians(results, keys):
    """Per key, the median of its values over ``results``."""
    return {key: statistics.median(r[key] for r in results) for key in keys}


def faster_in_pairs(runs, key):
    """Per case, the calls in which the change's ``key`` (a time) was below the parent's."""
    pairs = list(zip(runs["parent"], runs["change"]))
    return {case: sum(p[case][key] > c[case][key] for p, c in pairs) for case in runs["change"][0]}


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


def sweep(trees):
    """The sweep case on ``trees``; alone, the solver table first;
    compared, every criterion-4 sweep once per tree too."""
    if len(trees) == 1:
        show_solver_table(run_in(HERE, "solver-table"))
    runs = alternate(trees, [("sweep",)] * PAIRS)
    summary = {
        label: {
            **medians(results, ("sweep_p50_s", "step_s", "loop_s")),
            "steps": results[0]["steps"],
            "iterations": results[0]["iterations"],
            "minimal_counts": [s["minimal_count"] for s in results[0]["sweeps"]],
        }
        for label, results in runs.items()
    }
    show(summary=summary)
    if len(trees) == 1:
        return

    # The whole criterion once per tree, and every channel whose count moved.
    channels = {label: r[0] for label, r in alternate(trees, [("criterion-4",)]).items()}
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
    show(criterion_4_summary=criterion_4["summary"], moved_counts=moved)
    case = (
        f"acceptance criterion 4, rank {SWEEP_RANK}: {SWEEP_CHANNELS} two-qubit SQPT "
        "sweeps, batch 16, tol 1e-5, threshold 0.99, seeds of the acceptance suite"
    )
    write("sweep", case, runs, summary=summary, criterion_4=criterion_4)


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


def corpus(trees) -> int:
    """The corpus on ``trees``; compared, the agreement of the two.
    Returns 1 if this tree reported a case infeasible, else 0."""
    parts = alternate(trees, [("corpus", str(part)) for part in range(CORPUS_PARTS)])
    runs = {label: {} for label in trees}
    for label, results in parts.items():
        for part in results:
            runs[label].update(part)
    summary = {label: corpus_summary(results) for label, results in runs.items()}
    change = runs["change"]
    infeasible = sorted(label for label, r in change.items() if r["status"] == "infeasible")
    show(summary=summary)
    print(f"infeasible cases (all are feasible by construction): {len(infeasible)} {infeasible}")
    if len(trees) == 1:
        return 1 if infeasible else 0

    parent = runs["parent"]
    statuses = {label: (parent[label]["status"], change[label]["status"]) for label in parent}
    regressed = [label for label, (p, c) in statuses.items() if p == "optimal" and c != p]
    both = [label for label, (p, c) in statuses.items() if p == c == "optimal"]

    def gap(a, b):  # relative; a zero optimum (complete exact data) is measured against 1e-2
        return abs(a - b) / max(abs(a), abs(b), 1e-2)

    objective = {
        label: gap(parent[label]["objective"], change[label]["objective"]) for label in both
    }
    fidelity = {  # where the optimum is unique
        label: abs(parent[label]["fidelity"] - change[label]["fidelity"])
        for label in both
        if "/complete/exact/" in label
    }
    apart = sorted(label for label in both if objective[label] > REFERENCE_GAP)
    tight = run_in(HERE, "corpus", *apart) if apart else {}
    reference = {}
    for label in apart:
        target = tight[label]["objective"]
        sides = {side: gap(runs[side][label]["objective"], target) for side in trees}
        reference[label] = {"status": tight[label]["status"], **sides}

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
    show(agreement=agreement)
    case = (
        f"iteration corpus: {len(parent)} seeded reconstructs (one qubit: SQPT and AAPT, "
        "complete and half data, exact and 1e4 shots, ranks 1-4, six seeds; two qubits: "
        f"the same at ranks 1, 2, 4 and 16, three seeds), max_iter {CORPUS_MAX_ITER}, "
        f"default options otherwise; {CORPUS_PARTS} parts, trees alternating per part"
    )
    write("corpus", case, parts, summary=summary, agreement=agreement)
    return 1 if infeasible else 0


def simulate(trees):
    """Dataset simulation on ``trees``: per case the median over the calls."""
    runs = alternate(trees, [("simulate",)] * PAIRS)
    records = {case: r["records"] for case, r in runs["change"][0].items()}
    summary = {
        label: {case: statistics.median(r[case]["median_s"] for r in results) for case in records}
        for label, results in runs.items()
    }
    show(records=records, summary_median_s=summary)
    if len(trees) == 1:
        return
    ratio = {case: summary["parent"][case] / summary["change"][case] for case in records}
    faster = faster_in_pairs(runs, "median_s")
    show(speedup=ratio, change_faster_in_pairs=faster)
    case = (
        "make_dataset on complete data of a seeded rank-2 channel: SQPT at 1-3 qubits, "
        f"AAPT at 1-2 qubits, exact and 1e4 shots; per process the median of "
        f"{SIMULATE_CALLS} calls after a warm-up call; {PAIRS} alternating pairs of processes"
    )
    doc = {"summary_median_s": summary, "speedup": ratio, "change_faster_in_pairs": faster}
    write("simulate", case, runs, records=records, **doc)


def operator(trees):
    """The loop split on ``trees``: per case the medians over the calls;
    then the three-qubit reconstruct once per tree."""
    runs = alternate(trees, [("operator",)] * PAIRS)
    summary = {
        label: {
            case: {
                "iterations": results[0][case]["iterations"],
                **medians([r[case] for r in results], ("loop_us_per_iter", "row_operator_s")),
                "split_us_per_iter": medians(
                    [r[case]["split_us_per_iter"] for r in results], OPERATOR_PARTS
                ),
            }
            for case in results[0]
        }
        for label, results in runs.items()
    }
    show(summary=summary)
    three_qubit = {label: r[0] for label, r in alternate(trees, [("three-qubit",)]).items()}
    show(three_qubit=three_qubit)
    if len(trees) == 1:
        return
    faster = faster_in_pairs(runs, "loop_us_per_iter")
    setup_faster = faster_in_pairs(runs, "row_operator_s")
    show(change_faster_in_pairs=faster, change_setup_faster_in_pairs=setup_faster)
    case = (
        "the ADMM loop's time per iteration on seeded rank-4 one- and two-qubit programs "
        "of exact data (SQPT and AAPT, complete and half), untimed (best of 15 solves to "
        "tol 1e-7 at one qubit, 3 at two) and split by part (the best of as many solves "
        "with each part wrapped in a timer; 'x_step' is the operator's x-step less the "
        "matvec, rmatvec and solve it calls, 0 on a tree whose loop composes them itself; "
        "'anderson' is the Anderson step, 0 on a tree "
        "whose loop has it inline, and 'other' the rest of the loop), and the row "
        "operator's set-up (row_operator_s, best of as many calls); "
        f"{PAIRS} alternating pairs of processes, medians; "
        "three_qubit: one reconstruct of complete noiseless 3q SQPT data of a seeded "
        "rank-1 channel per tree, each in its own process (factor_s: the x-step factor's "
        "inverse; gram_s: the rest of the row operator's set-up, mostly the Gram matrix)"
    )
    doc = {
        "summary": summary,
        "change_faster_in_pairs": faster,
        "change_setup_faster_in_pairs": setup_faster,
        "three_qubit": three_qubit,
    }
    write("operator", case, runs, **doc)


def dump(trees):
    """The dump case on ``trees``: per case the bytes and the medians over the calls."""
    runs = alternate(trees, [("dump",)] * PAIRS)

    def summarized(results, case):
        times = medians([r[case] for r in results], ("dump_s", "load_s"))
        return {"bytes": results[0][case]["bytes"], **times}

    summary = {
        label: {case: summarized(results, case) for case in results[0]}
        for label, results in runs.items()
    }
    show(summary=summary)
    if len(trees) == 1:
        return
    case = (
        "problem_to_json and problem_from_json on the programs of complete noiseless "
        "2q SQPT (without and with the trace-preserving equalities), 2q AAPT and 3q SQPT "
        "data of a seeded rank-1 channel: the dump's bytes "
        f"and, per process, the median of {DUMP_CALLS} calls each; {PAIRS} alternating "
        "pairs of processes, medians"
    )
    write("dump", case, runs, summary=summary)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--baseline", help="src directory of the parent tree to compare against")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--corpus", action="store_true", help="run the iteration corpus")
    mode.add_argument("--simulate", action="store_true", help="time dataset simulation")
    mode.add_argument("--operator", action="store_true", help="split the loop's time by part")
    mode.add_argument("--dump", action="store_true", help="time the problem dump and load")
    mode.add_argument(
        "--case", nargs="+", metavar=("NAME", "ARG"), help="print one case of CASES as JSON"
    )
    args = parser.parse_args()
    if args.case:
        name, *case_args = args.case
        if name not in CASES:
            parser.error(f"--case: {name!r} is none of {', '.join(CASES)}")
        print(json.dumps(CASES[name](*case_args)))
        return
    trees = {"change": HERE}
    if args.baseline:
        parent = Path(args.baseline).resolve()
        if not (parent / "vartomo" / "__init__.py").is_file():
            parser.error(f"--baseline {args.baseline}: no vartomo/__init__.py there")
        trees = {"parent": parent, "change": HERE}
    if args.corpus:
        sys.exit(corpus(trees))
    elif args.simulate:
        simulate(trees)
    elif args.operator:
        operator(trees)
    elif args.dump:
        dump(trees)
    else:
        sweep(trees)


if __name__ == "__main__":
    main()
