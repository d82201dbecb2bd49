"""Command-line entry points.

Subcommands: ``run`` (full experiment from a config file), ``reconstruct``
(single reconstruction from a dataset file), ``gen-channel`` (emit a
random channel), ``solve-sdp`` (debug solver entry).  Exit codes: 0
success, 1 usage error, 2 runtime failure.  ``--json`` switches output
to machine-parseable documents.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import harness, sdp, tomography
from .channels import kraus_to_chi, kraus_to_json, process_fidelity, process_to_json
from .probes import RngSeed
from .tolerances import SOLVER_MAX_ITER, SOLVER_TOL
from .tomography import InfeasibleDataError, ReconstructionOptions


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="vartomo", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a full rank-sweep experiment")
    p_run.add_argument("--config", required=True, help="experiment config JSON file")
    p_run.add_argument("--output-dir", help="override the config's output directory")
    p_run.add_argument("--json", action="store_true", help="print machine-readable output")

    p_rec = sub.add_parser("reconstruct", help="reconstruct a process from a dataset file")
    p_rec.add_argument("--dataset", required=True, help="dataset JSON file")
    p_rec.add_argument("--tp", action="store_true", help="enforce trace preservation")
    p_rec.add_argument("--tol", type=float, default=SOLVER_TOL, help="solver tolerance")
    p_rec.add_argument(
        "--p-min", type=float, default=1e-6,
        help="probabilities below this use the capped additive envelope",
    )
    p_rec.add_argument(
        "--additive-scale", type=float, default=None,
        help="width scale of the additive envelope (default 1/shots, else 1e-3)",
    )
    p_rec.add_argument("--trace", action="store_true", help="log residuals to stderr")
    p_rec.add_argument("--json", action="store_true")

    p_gen = sub.add_parser("gen-channel", help="emit a random channel as JSON")
    p_gen.add_argument("--qubits", type=int, required=True)
    p_gen.add_argument("--rank", type=int, required=True)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--out", help="output file (stdout when omitted)")
    p_gen.add_argument("--json", action="store_true")

    p_sdp = sub.add_parser("solve-sdp", help="solve a dumped problem (debugging)")
    p_sdp.add_argument("--problem", required=True, help="problem JSON file")
    p_sdp.add_argument("--tol", type=float, default=SOLVER_TOL)
    p_sdp.add_argument("--max-iter", type=int, default=SOLVER_MAX_ITER)
    p_sdp.add_argument("--trace", action="store_true", help="log residuals to stderr")
    p_sdp.add_argument("--json", action="store_true")

    return parser


def _read_file(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        print(f"vartomo: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(1) from exc


def _cmd_run(args) -> int:
    text = _read_file(args.config)
    try:
        cfg = harness.config_from_json(text)
    except json.JSONDecodeError as exc:
        print(
            f"vartomo: config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            file=sys.stderr,
        )
        return 1
    except (KeyError, TypeError, ValueError) as exc:
        print(f"vartomo: invalid config: {exc}", file=sys.stderr)
        return 1
    if args.output_dir:
        cfg = dataclasses.replace(cfg, output_dir=args.output_dir)
    result = harness.run_experiment(cfg)
    if args.json:
        print(harness.plot_data_json(result))
    else:
        print(harness.plot_data_csv(result), end="")
    return 0


def _cmd_reconstruct(args) -> int:
    try:
        options = ReconstructionOptions(
            tp_constraint=args.tp,
            tol=args.tol,
            p_min=args.p_min,
            additive_scale=args.additive_scale,
        )
    except ValueError as exc:
        print(f"vartomo: invalid option: {exc}", file=sys.stderr)
        return 1
    data, truth = tomography.dataset_from_json(_read_file(args.dataset))
    try:
        result = tomography.reconstruct(
            data, options, trace=sys.stderr.write if args.trace else None
        )
    except InfeasibleDataError as exc:
        payload = {
            "status": "infeasible",
            "worst_records": [
                {"k": r.probe_index, "lambda": r.effect_index, "p": r.p, "violation": v}
                for r, v in exc.worst_records[:5]
            ],
        }
        print(json.dumps(payload) if args.json else f"status: infeasible\n{exc}")
        return 0
    fidelity = None
    if truth is not None:
        fidelity = process_fidelity(result.chi_hat, kraus_to_chi(truth, data.basis))
    if args.json:
        payload = {
            "status": result.solver.status.value,
            "slack_sum": result.slack_sum,
            "iterations": result.solver.iterations,
            "max_envelope_violation": result.max_envelope_violation,
            "chi": json.loads(process_to_json(result.chi_hat)),
        }
        if fidelity is not None:
            payload["fidelity"] = fidelity
        print(json.dumps(payload))
    else:
        print(f"status: {result.solver.status.value}")
        print(f"slack_sum: {result.slack_sum:.6g}")
        print(f"iterations: {result.solver.iterations}")
        if fidelity is not None:
            print(f"fidelity: {fidelity:.6f}")
    return 0


def _cmd_gen_channel(args) -> int:
    from .probes import random_channel

    if not 1 <= args.qubits <= tomography.MAX_QUBITS:
        print(f"vartomo: --qubits must be in [1, {tomography.MAX_QUBITS}]", file=sys.stderr)
        return 1
    d = 2**args.qubits
    if not 1 <= args.rank <= d * d:
        print(f"vartomo: --rank must be in [1, {d * d}]", file=sys.stderr)
        return 1
    channel = random_channel(d, args.rank, RngSeed(args.seed))
    text = kraus_to_json(channel)
    if args.out:
        Path(args.out).write_text(text)
        if not args.json:
            print(f"wrote {args.out}")
        else:
            print(json.dumps({"path": args.out, "d": d, "rank": args.rank}))
    else:
        print(text)
    return 0


def _cmd_solve_sdp(args) -> int:
    try:
        ReconstructionOptions(tol=args.tol, max_iter=args.max_iter)
    except ValueError as exc:
        print(f"vartomo: invalid option: {exc}", file=sys.stderr)
        return 1
    problem = sdp.problem_from_json(_read_file(args.problem))
    trace = sys.stderr.write if args.trace else None
    solution = sdp.solve(problem, args.tol, args.max_iter, trace=trace)
    payload = {
        "status": solution.status.value,
        "objective": solution.objective_value,
        "primal_residual": solution.primal_residual,
        "dual_residual": solution.dual_residual,
        "iterations": solution.iterations,
        "slacks": solution.slacks.tolist(),
        "chi_block": [[z.real, z.imag] for z in np.asarray(solution.chi_block).reshape(-1)],
    }
    if args.json:
        print(json.dumps(payload))
    else:
        print(
            f"status: {payload['status']}\nobjective: {payload['objective']:.10g}\n"
            f"residuals: primal={payload['primal_residual']:.3e} "
            f"dual={payload['dual_residual']:.3e}\niterations: {payload['iterations']}"
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    handlers = {
        "run": _cmd_run,
        "reconstruct": _cmd_reconstruct,
        "gen-channel": _cmd_gen_channel,
        "solve-sdp": _cmd_solve_sdp,
    }
    try:
        return handlers[args.command](args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except (json.JSONDecodeError, ValueError, KeyError) as exc:
        print(f"vartomo: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"vartomo: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
