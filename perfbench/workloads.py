"""The benchmark's workloads: their inputs, operations and output checks.

A workload's ``setup(seed)`` makes every input from the seed through the
program's public calls (``random_channel``, ``kraus_to_chi``,
``make_dataset``), runs one untimed warm-up operation, and returns a
``Plan``.  The plan hands out the operations of cycle ``c``; the runner
times each operation alone and then checks its output with
:mod:`checks`, which never calls the program.

Program calls go through module attributes (``tomography.reconstruct``,
not a name bound at import), so the tracer's wrappers see them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks
from vartomo import channels, probes, tomography
from vartomo.sdp import SolveStatus

SHOTS = 10_000
SWEEP_THRESHOLD = 0.99
SWEEP_BATCH = 16
SWEEP_TOL = 1e-5
SWEEP_CYCLES = 4  # channels are made for this many cycles, then reused
COMPLETE_COUNT_2Q = 256  # independent elements in complete two-qubit data
# The planted contradiction of acceptance criterion 8: identity-channel
# data plus a record claiming p = 1 at (probe 0, effect 4), solved with
# every envelope a capped additive window.
CONTRADICTION = (0, 4)
STRICT = dict(p_min=1.1, additive_scale=1e-3)


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object, BaseException | None], list[str]]


@dataclass
class Plan:
    cycle: Callable[[int], list[Op]]
    finish: Callable[[], list[str]]  # checks over the whole run
    warmup_s: float


@dataclass(frozen=True)
class Case:
    """One reconstruct input of a mix."""

    scheme: str  # "sqpt" or "aapt"
    complete: bool
    shots: int
    rank: int
    tp: bool = False

    @property
    def label(self) -> str:
        data = "complete" if self.complete else "half"
        noise = f"{self.shots}shots" if self.shots else "exact"
        return f"{self.scheme}/{data}/{noise}/r{self.rank}" + ("/tp" if self.tp else "")


def _seed(seed: int, *parts) -> probes.RngSeed:
    return probes.RngSeed(seed).derive(*parts)


def _records(dataset) -> list[checks.Record]:
    return [(r.probe_index, r.effect_index, r.p, r.shots) for r in dataset.records]


class _Inputs:
    """Program-side and check-side set-up shared by a workload's inputs."""

    def __init__(self, n_qubits: int):
        self.n_qubits = n_qubits
        self.d = 2**n_qubits
        self.basis = channels.build_scaled_pauli_basis(n_qubits)
        self.check_basis = checks.pauli_basis(n_qubits)

    def channel(self, rank: int, seed: probes.RngSeed):
        """A random channel, its chi for the program, and the checks' own chi."""
        kraus = probes.random_channel(self.d, rank, seed)
        return kraus, channels.kraus_to_chi(kraus, self.basis), checks.chi_from_kraus(
            kraus.operators, self.check_basis
        )

    def half_selection(self, scheme: str, rng: np.random.Generator) -> list[list[int]]:
        n_probes = self.d**2 if scheme == "sqpt" else 1
        n_effects = 6 ** (self.n_qubits if scheme == "sqpt" else 2 * self.n_qubits)
        return [
            sorted(rng.choice(n_effects, n_effects // 2, replace=False).tolist())
            for _ in range(n_probes)
        ]


_CHECK_SETUPS: dict[tuple[str, int], checks.Setup] = {}


def _check_setup(scheme: str, n_qubits: int) -> checks.Setup:
    key = (scheme, n_qubits)
    if key not in _CHECK_SETUPS:
        _CHECK_SETUPS[key] = checks.Setup.build(scheme, n_qubits)
    return _CHECK_SETUPS[key]


def recon_op(label, dataset, options, truth, complete, noiseless) -> Op:
    """``reconstruct`` on one dataset, checked against the benchmark's truth."""
    scheme = dataset.scheme.value
    n_qubits = dataset.d.bit_length() - 1
    records = _records(dataset)
    env = checks.Envelope(options.p_min, options.additive_scale, options.additive_cap)

    def run():
        return tomography.reconstruct(dataset, options)

    def check(result, err):
        if err is not None:
            return [f"raised {err!r}"]
        if result.solver.status is not SolveStatus.OPTIMAL:
            return [f"status {result.solver.status.value}"]
        setup = _check_setup(scheme, n_qubits)
        chi = result.chi_hat.chi
        slacks = result.solver.slacks
        failures = checks.check_psd(chi)
        failures += checks.check_record_fit(setup, chi, slacks, records, env)
        if complete and noiseless:
            failures += checks.check_recovery(chi, truth)
        failures += checks.check_optimality(setup, chi, slacks, records, env, truth)
        return failures

    return Op(label, run, check)


def infeasible_op(label, dataset, options) -> Op:
    def run():
        return tomography.reconstruct(dataset, options)

    def check(result, err):
        if err is None:
            return checks.check_infeasible(None, CONTRADICTION)
        if not isinstance(err, tomography.InfeasibleDataError):
            return [f"raised {err!r}, expected InfeasibleDataError"]
        return checks.check_infeasible(err.worst_records, CONTRADICTION)

    return Op(label, run, check)


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _mix(n_qubits: int, cases: list[Case], copies: int, name: str, degenerate: bool):
    """A fixed cycle: every case ``copies`` times, each copy its own channel."""

    def setup(seed: int) -> Plan:
        inputs = _Inputs(n_qubits)
        ops = []
        for copy in range(copies):
            for i, case in enumerate(cases):
                tag = (name, copy, i)
                _, process, truth = inputs.channel(case.rank, _seed(seed, *tag, "channel"))
                selected = None
                if not case.complete:
                    rng = np.random.default_rng([seed, copy, i])
                    selected = inputs.half_selection(case.scheme, rng)
                dataset = tomography.make_dataset(
                    process,
                    probes.Scheme(case.scheme),
                    n_qubits,
                    selected=selected,
                    shots=case.shots,
                    seed=_seed(seed, *tag, "shots") if case.shots else None,
                )
                options = tomography.ReconstructionOptions(tp_constraint=case.tp)
                ops.append(
                    recon_op(case.label, dataset, options, truth, case.complete, case.shots == 0)
                )
        if degenerate:
            ops += _degenerate_ops(inputs)
        # Warm-up: the first operation of the cycle, untimed and unchecked.
        warmup_s = _timed(ops[0].run)
        return Plan(cycle=lambda c: ops, finish=list, warmup_s=warmup_s)

    return setup


def _degenerate_ops(inputs: _Inputs) -> list[Op]:
    """Criterion 8: exact p = 0 records must solve; the planted
    contradiction must be flagged with its record ranked first."""
    identity = channels.KrausSet(d=inputs.d, operators=np.eye(inputs.d, dtype=complex)[None])
    process = channels.kraus_to_chi(identity, inputs.basis)
    truth = checks.chi_from_kraus(identity.operators, inputs.check_basis)
    data = tomography.make_dataset(process, probes.Scheme.SQPT, inputs.n_qubits)
    k, lam = CONTRADICTION
    bad = tomography.TomographyDataset(
        scheme=data.scheme,
        d=data.d,
        basis=data.basis,
        probes=data.probes,
        effects=data.effects,
        records=data.records + (probes.MeasurementRecord(probe_index=k, effect_index=lam, p=1.0),),
    )
    return [
        recon_op("sqpt/complete/exact/identity", data, tomography.ReconstructionOptions(), truth, True, True),
        infeasible_op("sqpt/contradiction", bad, tomography.ReconstructionOptions(**STRICT)),
    ]


def _sweep_setup(seed: int) -> Plan:
    """Cycle c sweeps twelve fresh SQPT channels: one of rank 1, ten of
    rank 4 and one of rank 16.

    A rank-1 sweep usually takes about 0.8 s but one in twenty or so takes
    5-10 s (a step needing 2 * 10^4 to 5 * 10^4 iterations), and rank-16
    sweeps take 5-9 s from channel to channel; rank-4 sweeps take 1.5-2 s.
    One sweep each of ranks 1 and 16 per cycle keeps the run's summed time
    steady, and the rank-4 group holds its median op.
    """
    inputs = _Inputs(2)
    ranks = (1,) + (4,) * 10 + (16,)
    options = tomography.ReconstructionOptions(tol=SWEEP_TOL)
    cycles = []
    for c in range(SWEEP_CYCLES):
        row = []
        for i, rank in enumerate(ranks):
            kraus, _, truth = inputs.channel(rank, _seed(seed, "sweep-2q", c, i, "channel"))
            row.append((rank, kraus, truth, _seed(seed, "sweep-2q", c, i, "order")))
        cycles.append(row)
    counts: dict[int, list[int]] = {rank: [] for rank in ranks}

    def sweep_op(rank, kraus, truth, order_seed) -> Op:
        def run():
            return tomography.minimal_elements_sweep(
                kraus,
                probes.Scheme.SQPT,
                SWEEP_THRESHOLD,
                trials=1,
                seed=order_seed,
                batch=SWEEP_BATCH,
                options=options,
            )

        def check(result, err):
            if err is not None:
                return [f"raised {err!r}"]
            counts[rank].append(result.minimal_independent_count)
            return checks.check_sweep(
                result.trials[-1].final_chi.chi,
                truth,
                2,
                result.minimal_independent_count,
                result.saturated,
                SWEEP_THRESHOLD,
                COMPLETE_COUNT_2Q,
            )

        return Op(f"sweep/r{rank}", run, check)

    ops = [[sweep_op(*spec) for spec in row] for row in cycles]
    # Warm-up: one complete two-qubit reconstruct on its own channel.
    _, process, _ = inputs.channel(4, _seed(seed, "sweep-2q", "warmup"))
    data = tomography.make_dataset(process, probes.Scheme.SQPT, 2)
    warmup_s = _timed(lambda: tomography.reconstruct(data, options))
    return Plan(
        cycle=lambda c: ops[c % SWEEP_CYCLES],
        finish=lambda: checks.check_fig1_shape(counts, COMPLETE_COUNT_2Q),
        warmup_s=warmup_s,
    )


# One-qubit SQPT half data (3 of 6 effects per probe) and shot noise use
# full-rank channels only, and complete AAPT data stays noiseless.
# Elsewhere the solver's iteration count has a heavy tail: in about 720
# seeded draws per case, a noiseless half-SQPT rank-1 input ran past
# max_iter (200,000), a rank-3 one took about 35,000 iterations, a
# half-SQPT rank-4 input under 1e4 shots took 197,500, a half-AAPT rank-2
# one 25,475, and a complete-AAPT rank-4 one 95,550.  Such an op fails, or
# dominates its run, on some seeds only (see CHANGES.md).
_CASES_1Q = [
    Case(scheme, complete, 0, rank)
    for rank in (1, 2, 3, 4)
    for scheme, complete in (("sqpt", True), ("aapt", True), ("aapt", False))
] + [Case("sqpt", False, 0, 4), Case("sqpt", True, SHOTS, 4), Case("aapt", False, SHOTS, 4)]

# Two-qubit cases, by their usual time with one BLAS thread: three under
# 0.3 s, four of 100-225 iterations at 0.33-0.46 s, and four of 0.8-1.5 s.
# The run's median op then falls inside the middle group, whose cases
# take nearly the same iterations for every channel and whose matrices
# stay in cache.  A median on the gap between two groups would jump from
# seed to seed; one among the complete-AAPT cases (1552^2 inverse, 30 MB
# of matvec operands) moved with other tenants' memory traffic.
_CASES_2Q = [
    Case("sqpt", False, 0, 1),
    Case("sqpt", False, 0, 4),
    Case("sqpt", False, SHOTS, 16),
    Case("sqpt", True, 0, 1),
    Case("sqpt", True, 0, 4),
    Case("aapt", False, 0, 1),
    Case("aapt", False, 0, 4),
    Case("aapt", False, SHOTS, 16),
    Case("aapt", True, 0, 16),
    Case("sqpt", True, SHOTS, 16),
    Case("sqpt", True, 0, 16, tp=True),
]

WORKLOADS: dict[str, Callable[[int], Plan]] = {
    "recon-1q-mix": _mix(1, _CASES_1Q, copies=24, name="recon-1q-mix", degenerate=True),
    "recon-2q-mix": _mix(2, _CASES_2Q, copies=4, name="recon-2q-mix", degenerate=False),
    "sweep-2q": _sweep_setup,
}
