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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .channels import KrausSet, kraus_to_json, process_to_json
from .probes import RngSeed, Scheme, random_channel
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
    solver_tol: float = 1e-7
    solver_max_iter: int = 200_000
    master_seed: RngSeed = RngSeed(0)
    output_dir: str = "runs/experiment"

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be >= 1")
        d = 2**self.n_qubits
        for r in self.ranks:
            if not 1 <= r <= d * d:
                raise ValueError(f"rank {r} outside [1, {d * d}]")
        if self.channels_per_rank < 1:
            raise ValueError("channels_per_rank must be >= 1")
        if self.sweep_trials < 1 or self.sweep_batch < 1:
            raise ValueError("sweep_trials and sweep_batch must be >= 1")

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
    return json.dumps(
        {
            "n_qubits": cfg.n_qubits,
            "scheme": cfg.scheme.value,
            "ranks": list(cfg.ranks),
            "channels_per_rank": cfg.channels_per_rank,
            "shots": cfg.shots,
            "fidelity_threshold": cfg.fidelity_threshold,
            "sweep_trials": cfg.sweep_trials,
            "sweep_batch": cfg.sweep_batch,
            "tp_constraint": cfg.tp_constraint,
            "solver_tol": cfg.solver_tol,
            "solver_max_iter": cfg.solver_max_iter,
            "master_seed": {"seed": cfg.master_seed.seed, "generator_id": cfg.master_seed.generator_id},
            "output_dir": cfg.output_dir,
        },
        indent=2,
    )


def config_from_json(text: str) -> ExperimentConfig:
    doc = json.loads(text)
    seed_doc = doc.get("master_seed", {"seed": 0})
    kwargs = dict(
        master_seed=RngSeed(
            seed=int(seed_doc["seed"]), generator_id=seed_doc.get("generator_id", "pcg64")
        )
    )
    if "scheme" in doc:
        kwargs["scheme"] = Scheme(doc["scheme"])
    if "ranks" in doc:
        kwargs["ranks"] = tuple(int(r) for r in doc["ranks"])
    for key in (
        "n_qubits",
        "channels_per_rank",
        "shots",
        "sweep_trials",
        "sweep_batch",
        "solver_max_iter",
    ):
        if key in doc:
            kwargs[key] = int(doc[key])
    for key in ("fidelity_threshold", "solver_tol"):
        if key in doc:
            kwargs[key] = float(doc[key])
    if "tp_constraint" in doc:
        kwargs["tp_constraint"] = bool(doc["tp_constraint"])
    if "output_dir" in doc:
        kwargs["output_dir"] = str(doc["output_dir"])
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

    def rows_for_rank(self, rank: int) -> list[ChannelRow]:
        return [r for r in self.rows if r.rank == rank]


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
            f"saturated={int(row.saturated)} iters={row.solver_iterations}"
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
