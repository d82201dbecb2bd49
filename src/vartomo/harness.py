"""Experiment runner: deterministic batch sweeps over process ranks.

A run is fully determined by its config document and master seed; every
emitted file is byte-reproducible except ``meta.json``, which is the
designated home for timestamps and wall-clock timings.  Files are
written via temp-then-rename, with ``results.csv`` last, so a killed run
never leaves a bundle that parses as complete.

Bundle layout under ``output_dir``:

    config.json              verbatim input configuration
    channels/r{R}_c{C}.json  generated channels
    reconstructions/...json  final reconstruction per channel
    fig1.json                aggregate curve (JSON mirror of fig1.csv)
    fig1.csv                 rank, median/quartile minimal element counts
    log.txt                  deterministic event log
    meta.json                timestamps and wall times (non-deterministic)
    results.csv              one row per (rank, channel); written last
"""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .channels import KrausSet, kraus_to_json, process_to_json
from .probes import RngSeed, Scheme, random_channel, require_integer, require_real
from .tolerances import SOLVER_MAX_ITER, SOLVER_TOL
from .tomography import ReconstructionOptions, SweepResult, minimal_elements_sweep


@dataclass(frozen=True)
class ExperimentConfig:
    n_qubits: int = 2
    scheme: Scheme = Scheme.SQPT
    ranks: tuple[int, ...] = (1, 4, 8, 16)
    channels_per_rank: int = 20
    shots: int = 0
    fidelity_threshold: float = 0.99
    sweep_trials: int = 5
    sweep_batch: int = 1
    tp_constraint: bool = False
    solver_tol: float = SOLVER_TOL
    solver_max_iter: int = SOLVER_MAX_ITER
    master_seed: RngSeed = RngSeed(0)
    output_dir: str = "runs/experiment"

    def __post_init__(self):
        for name in ("n_qubits", "channels_per_rank", "shots", "sweep_trials", "sweep_batch"):
            require_integer(getattr(self, name), name)
        require_integer(self.master_seed.seed, "master_seed")
        for name in ("fidelity_threshold", "solver_tol"):
            require_real(getattr(self, name), name)
        if not isinstance(self.tp_constraint, bool):
            raise ValueError(f"tp_constraint must be true or false, got {self.tp_constraint!r}")
        if not isinstance(self.output_dir, str):
            raise ValueError(f"output_dir must be a string, got {self.output_dir!r}")
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be >= 1")
        d = 2**self.n_qubits
        for r in self.ranks:
            if not 1 <= require_integer(r, "rank") <= d * d:
                raise ValueError(f"rank {r} outside [1, {d * d}]")
        if self.channels_per_rank < 1:
            raise ValueError("channels_per_rank must be >= 1")
        if self.sweep_trials < 1 or self.sweep_batch < 1:
            raise ValueError("sweep_trials and sweep_batch must be >= 1")
        if not 0 <= self.fidelity_threshold < 1:
            raise ValueError("fidelity_threshold must be in [0, 1)")
        if self.shots < 0:
            raise ValueError("shots must be >= 0")
        self.reconstruction_options()  # validates solver_tol and solver_max_iter

    @property
    def d(self) -> int:
        return 2**self.n_qubits

    def reconstruction_options(self) -> ReconstructionOptions:
        return ReconstructionOptions(
            tp_constraint=self.tp_constraint,
            tol=self.solver_tol,
            max_iter=self.solver_max_iter,
        )


def config_to_json(cfg: ExperimentConfig) -> str:
    return json.dumps(asdict(cfg), indent=2)


def config_from_json(text: str) -> ExperimentConfig:
    """The config of a :func:`config_to_json` document.  A missing field
    takes its default, an unknown one is ignored, and a value of the
    wrong kind raises ValueError (ExperimentConfig checks the values)."""
    doc = json.loads(text)
    kwargs = {f.name: doc[f.name] for f in fields(ExperimentConfig) if f.name in doc}
    if "scheme" in kwargs:
        kwargs["scheme"] = Scheme(kwargs["scheme"])
    if "ranks" in kwargs:
        kwargs["ranks"] = tuple(kwargs["ranks"])
    if "master_seed" in kwargs:
        kwargs["master_seed"] = RngSeed(**kwargs["master_seed"])
    return ExperimentConfig(**kwargs)


@dataclass(frozen=True)
class ChannelRow:
    rank: int
    channel_index: int
    seed: int
    min_elements: int | None
    final_fidelity: float | None
    saturated: bool
    solver_iterations: int
    wall_time: float
    unconverged_steps: int = 0  # sweep steps whose solve was not OPTIMAL
    failed: bool = False
    error: str = ""


@dataclass(frozen=True)
class RankAggregate:
    rank: int
    median_min_elements: float | None
    q1: float | None
    q3: float | None
    n_channels: int
    n_failed: int


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    rows: tuple[ChannelRow, ...]
    aggregates: tuple[RankAggregate, ...]


def _aggregate(rows: list[ChannelRow]) -> list[RankAggregate]:
    out = []
    for rank in sorted({r.rank for r in rows}):
        ok = [r.min_elements for r in rows if r.rank == rank and not r.failed]
        failed = sum(1 for r in rows if r.rank == rank and r.failed)
        if ok:
            q1, med, q3 = np.percentile(ok, [25, 50, 75])
            out.append(RankAggregate(rank, float(med), float(q1), float(q3), len(ok), failed))
        else:
            out.append(RankAggregate(rank, None, None, None, 0, failed))
    return out


def _run_channel(
    cfg: ExperimentConfig, rank: int, index: int
) -> tuple[ChannelRow, KrausSet | None, SweepResult | None]:
    channel_seed = cfg.master_seed.derive("channel", rank, index)
    start = time.perf_counter()
    try:
        channel = random_channel(cfg.d, rank, channel_seed)
        sweep = minimal_elements_sweep(
            channel,
            cfg.scheme,
            cfg.fidelity_threshold,
            cfg.sweep_trials,
            cfg.master_seed.derive("sweep", rank, index),
            shots=cfg.shots,
            batch=cfg.sweep_batch,
            options=cfg.reconstruction_options(),
        )
        row = ChannelRow(
            rank=rank,
            channel_index=index,
            seed=channel_seed.seed,
            min_elements=sweep.minimal_independent_count,
            final_fidelity=sweep.final_fidelity,
            saturated=sweep.saturated,
            solver_iterations=sweep.solver_iterations,
            wall_time=time.perf_counter() - start,
            unconverged_steps=sweep.unconverged_steps,
        )
        return row, channel, sweep
    except Exception as exc:  # noqa: BLE001 - a failed trial must not abort the batch
        row = ChannelRow(
            rank=rank,
            channel_index=index,
            seed=channel_seed.seed,
            min_elements=None,
            final_fidelity=None,
            saturated=False,
            solver_iterations=0,
            wall_time=time.perf_counter() - start,
            failed=True,
            error=f"{type(exc).__name__}: {exc}",
        )
        return row, None, None


def run_experiment(cfg: ExperimentConfig, write_bundle: bool = True) -> ExperimentResult:
    """Run the full rank sweep and (optionally) persist the bundle."""
    # one run per distinct (rank, channel), in sorted order
    keys = sorted({(rank, c) for rank in cfg.ranks for c in range(cfg.channels_per_rank)})
    started = time.time()
    ordered = [_run_channel(cfg, rank, c) for rank, c in keys]
    rows = tuple(row for row, _, _ in ordered)
    result = ExperimentResult(config=cfg, rows=rows, aggregates=tuple(_aggregate(list(rows))))
    if write_bundle:
        _write_bundle(result, ordered, time.time() - started, started)
    return result


def results_csv(result: ExperimentResult) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        [
            "rank",
            "channel",
            "seed",
            "min_elements",
            "final_fidelity",
            "saturated",
            "solver_iterations",
            "unconverged_steps",
            "failed",
            "error",
        ]
    )
    for r in result.rows:
        writer.writerow(
            [
                r.rank,
                r.channel_index,
                r.seed,
                "" if r.min_elements is None else r.min_elements,
                "" if r.final_fidelity is None else repr(r.final_fidelity),
                int(r.saturated),
                r.solver_iterations,
                r.unconverged_steps,
                int(r.failed),
                r.error,
            ]
        )
    return buf.getvalue()


def plot_data_csv(result: ExperimentResult) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["rank", "median_min_elements", "q1", "q3", "n_channels", "n_failed"])
    for a in result.aggregates:
        writer.writerow(
            [
                a.rank,
                "" if a.median_min_elements is None else repr(a.median_min_elements),
                "" if a.q1 is None else repr(a.q1),
                "" if a.q3 is None else repr(a.q3),
                a.n_channels,
                a.n_failed,
            ]
        )
    return buf.getvalue()


def plot_data_json(result: ExperimentResult) -> str:
    return json.dumps(
        [
            {
                "rank": a.rank,
                "median_min_elements": a.median_min_elements,
                "q1": a.q1,
                "q3": a.q3,
                "n_channels": a.n_channels,
                "n_failed": a.n_failed,
            }
            for a in result.aggregates
        ],
        indent=2,
    )


def emit_plot_data(result: ExperimentResult, path: str | Path) -> None:
    """Write fig1.csv and its JSON mirror next to it."""
    if not result.rows:
        raise ValueError("empty experiment result")
    path = Path(path)
    _atomic_write(path, plot_data_csv(result))
    _atomic_write(path.with_suffix(".json"), plot_data_json(result))


def _atomic_write(path: Path, content: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_bundle(result, ordered, elapsed: float, started: float) -> None:
    cfg = result.config
    out = Path(os.environ.get("VARTOMO_OUTPUT_DIR", "") or cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    log_lines = [f"run: scheme={cfg.scheme.value} d={cfg.d} master_seed={cfg.master_seed.seed}"]
    for row, channel, sweep in ordered:
        tag = f"r{row.rank}_c{row.channel_index}"
        if row.failed:
            log_lines.append(f"{tag}: FAILED seed={row.seed} {row.error}")
            continue
        log_lines.append(
            f"{tag}: min_elements={row.min_elements} fidelity={row.final_fidelity:.6f} "
            f"saturated={int(row.saturated)} iters={row.solver_iterations} "
            f"unconverged={row.unconverged_steps}"
        )
        _atomic_write(out / "channels" / f"{tag}.json", kraus_to_json(channel))
        final = sweep.trials[-1].final_chi
        if final is not None:
            doc = json.loads(process_to_json(final))
            doc["fidelity"] = row.final_fidelity
            doc["min_elements"] = row.min_elements
            doc["trace"] = [[c, f] for c, f in sweep.trace]
            _atomic_write(out / "reconstructions" / f"{tag}.json", json.dumps(doc))
    log_lines.append(f"done: {len(result.rows)} channels")

    _atomic_write(out / "config.json", config_to_json(cfg))
    emit_plot_data(result, out / "fig1.csv")
    _atomic_write(out / "log.txt", "\n".join(log_lines) + "\n")
    _atomic_write(
        out / "meta.json",
        json.dumps(
            {
                "started_unix": started,
                "elapsed_seconds": elapsed,
                "wall_times": {
                    f"r{r.rank}_c{r.channel_index}": r.wall_time for r in result.rows
                },
            },
            indent=2,
        ),
    )
    # results.csv is the completeness marker: always written last.
    _atomic_write(out / "results.csv", results_csv(result))
