import csv
import io
import json
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

from vartomo import cli, tomography
from vartomo.channels import KrausSet, identity_channel, build_scaled_pauli_basis, kraus_to_chi
from vartomo.harness import (
    ChannelRow,
    ExperimentConfig,
    ExperimentResult,
    RankAggregate,
    _aggregate,
    config_from_json,
    config_to_json,
    emit_plot_data,
    plot_data_csv,
    run_experiment,
)
from vartomo.probes import RngSeed, Scheme, random_channel
from vartomo.tomography import dataset_to_json, make_dataset


def tiny_config(tmp_path, **overrides) -> ExperimentConfig:
    base = dict(
        n_qubits=1,
        scheme=Scheme.SQPT,
        ranks=(1, 4),
        channels_per_rank=2,
        shots=0,
        fidelity_threshold=0.99,
        sweep_trials=1,
        sweep_batch=1,
        master_seed=RngSeed(515),
        output_dir=str(tmp_path / "run"),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def fail_first_sweep(monkeypatch):
    """Make the run's first channel sweep raise."""
    import vartomo.harness as harness_mod

    calls = {"n": 0}
    original = harness_mod.minimal_elements_sweep

    def flaky(channel, *args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("synthetic trial failure")
        return original(channel, *args, **kwargs)

    monkeypatch.setattr(harness_mod, "minimal_elements_sweep", flaky)


class TestConfig:
    def test_json_roundtrip(self, tmp_path):
        cfg = tiny_config(tmp_path, shots=500, tp_constraint=True)
        back = config_from_json(config_to_json(cfg))
        assert back == cfg

    def test_unknown_keys_ignored(self, tmp_path):
        # configs written before the thread pool was removed carry "workers"
        cfg = tiny_config(tmp_path)
        doc = json.loads(config_to_json(cfg))
        doc["workers"] = 2
        assert config_from_json(json.dumps(doc)) == cfg

    def test_rank_bounds_validated(self, tmp_path):
        with pytest.raises(ValueError, match="rank"):
            tiny_config(tmp_path, ranks=(1, 5))
        with pytest.raises(ValueError):
            tiny_config(tmp_path, channels_per_rank=0)

    @pytest.mark.parametrize(
        "bad",
        [
            dict(fidelity_threshold=1.5),
            dict(fidelity_threshold=-0.1),
            dict(shots=-1),
            dict(solver_tol=0.0),
            dict(solver_max_iter=0),
            dict(solver_tol=1.0),
            dict(solver_tol=float("inf")),
            dict(n_qubits=4, ranks=(1,)),
        ],
    )
    def test_invalid_values_rejected(self, tmp_path, bad):
        with pytest.raises(ValueError):
            tiny_config(tmp_path, **bad)

    @pytest.mark.parametrize(
        "key,value,message",
        [
            ("tp_constraint", "false", "tp_constraint"),
            ("sweep_batch", 2.5, "sweep_batch"),
            ("channels_per_rank", True, "channels_per_rank"),
            ("ranks", [1.7], "rank"),
            ("solver_max_iter", 1.5, "max_iter"),
            ("master_seed", {"seed": 1.5}, "master_seed"),
            ("solver_tol", True, "solver_tol"),
            ("fidelity_threshold", "0.9", "fidelity_threshold"),
            ("output_dir", 7, "output_dir"),
        ],
    )
    def test_json_values_of_wrong_kind_rejected(self, tmp_path, key, value, message):
        """Outside input is rejected, not truncated or coerced: "false"
        is not False, 2.5 is not 2 and true is not 1.0."""
        doc = json.loads(config_to_json(tiny_config(tmp_path)))
        doc[key] = value
        with pytest.raises(ValueError, match=message):
            config_from_json(json.dumps(doc))

    def test_defaults_are_desk_scale(self):
        cfg = ExperimentConfig()
        assert cfg.n_qubits == 2
        assert cfg.channels_per_rank == 20
        assert cfg.sweep_trials == 5


class TestRunExperiment:
    def test_run_and_bundle(self, tmp_path):
        cfg = tiny_config(tmp_path)
        result = run_experiment(cfg)
        assert len(result.rows) == 4
        assert all(not r.failed for r in result.rows)
        out = tmp_path / "run"
        for name in ("config.json", "results.csv", "fig1.csv", "fig1.json", "log.txt", "meta.json"):
            assert (out / name).exists(), name
        assert sorted(p.name for p in (out / "channels").iterdir()) == [
            "r1_c0.json",
            "r1_c1.json",
            "r4_c0.json",
            "r4_c1.json",
        ]
        assert len(list((out / "reconstructions").iterdir())) == 4
        # medians non-decreasing in rank at d = 2
        med = {a.rank: a.median_min_elements for a in result.aggregates}
        assert med[1] <= med[4]

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg_a = tiny_config(tmp_path, output_dir=str(tmp_path / "a"))
        cfg_b = tiny_config(tmp_path, output_dir=str(tmp_path / "b"))
        run_experiment(cfg_a)
        run_experiment(cfg_b)
        for name in ("results.csv", "fig1.csv", "fig1.json", "log.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for sub in ("channels", "reconstructions"):
            for f in sorted((tmp_path / "a" / sub).iterdir()):
                assert f.read_bytes() == (tmp_path / "b" / sub / f.name).read_bytes()

    def test_noisy_rerun_is_byte_identical(self, tmp_path):
        cfg_a = tiny_config(
            tmp_path, shots=1000, ranks=(2,), channels_per_rank=1, output_dir=str(tmp_path / "a")
        )
        cfg_b = tiny_config(
            tmp_path, shots=1000, ranks=(2,), channels_per_rank=1, output_dir=str(tmp_path / "b")
        )
        run_experiment(cfg_a)
        run_experiment(cfg_b)
        assert (tmp_path / "a" / "results.csv").read_bytes() == (
            tmp_path / "b" / "results.csv"
        ).read_bytes()

    def test_threshold_zero_means_single_element(self, tmp_path):
        cfg = tiny_config(
            tmp_path, ranks=(1,), channels_per_rank=2, fidelity_threshold=0.0
        )
        result = run_experiment(cfg, write_bundle=False)
        assert all(r.min_elements == 1 for r in result.rows)

    def test_failed_channel_does_not_abort(self, tmp_path, monkeypatch):
        fail_first_sweep(monkeypatch)
        cfg = tiny_config(tmp_path)
        result = run_experiment(cfg)
        failed = [r for r in result.rows if r.failed]
        assert len(failed) == 1
        assert "synthetic trial failure" in failed[0].error
        assert (tmp_path / "run" / "results.csv").exists()
        log = (tmp_path / "run" / "log.txt").read_text()
        assert "FAILED" in log and str(failed[0].seed) in log

    def test_results_csv_is_the_channel_rows(self, tmp_path, monkeypatch):
        """results.csv has ChannelRow's fields as its columns; a failed
        row is the defaults plus failed and error; the wall times, one
        per row tag, are in meta.json alone."""
        fail_first_sweep(monkeypatch)
        result = run_experiment(tiny_config(tmp_path))
        lines = (tmp_path / "run" / "results.csv").read_text().splitlines()
        assert lines[0].split(",") == [f.name for f in fields(ChannelRow)] == [
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
        assert lines[1] == "1,0,12470464870260552905,,,0,0,0,1,RuntimeError: synthetic trial failure"
        meta = json.loads((tmp_path / "run" / "meta.json").read_text())
        tags = ["r1_c0", "r1_c1", "r4_c0", "r4_c1"]
        assert list(meta["wall_times"]) == list(result.wall_times) == tags


class TestPlotData:
    def test_single_rank_row(self, tmp_path):
        cfg = tiny_config(tmp_path, ranks=(2,), channels_per_rank=1)
        result = run_experiment(cfg, write_bundle=False)
        text = plot_data_csv(result)
        lines = text.strip().splitlines()
        assert lines[0] == "rank,median_min_elements,q1,q3,n_channels,n_failed"
        assert len(lines) == 2

    def test_all_failed_rank_emits_empty_stats(self):
        rows = (
            ChannelRow(rank=3, channel=0, seed=1, failed=True, error="boom"),
        )
        result = ExperimentResult(
            config=ExperimentConfig(), rows=rows, aggregates=tuple(_aggregate(list(rows)))
        )
        lines = plot_data_csv(result).strip().splitlines()
        assert lines[1] == "3,,,,0,1"

    def test_csv_roundtrip_preserves_aggregates(self, tmp_path):
        cfg = tiny_config(tmp_path)
        result = run_experiment(cfg, write_bundle=False)
        emit_plot_data(result, tmp_path / "fig1.csv")
        with open(tmp_path / "fig1.csv") as fh:
            parsed = list(csv.DictReader(fh))
        for row, agg in zip(parsed, result.aggregates):
            assert int(row["rank"]) == agg.rank
            assert float(row["median_min_elements"]) == agg.median_min_elements
            assert float(row["q1"]) == agg.q1
            assert float(row["q3"]) == agg.q3
            assert int(row["n_channels"]) == agg.n_channels
        mirror = json.loads((tmp_path / "fig1.json").read_text())
        assert mirror[0]["rank"] == result.aggregates[0].rank

    def test_empty_result_rejected(self):
        result = ExperimentResult(config=ExperimentConfig(), rows=(), aggregates=())
        with pytest.raises(ValueError):
            emit_plot_data(result, "ignored.csv")


def refuse_effects(n_qubits):
    raise AssertionError(f"effects built for {n_qubits} qubits")


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "vartomo.cli", *args], capture_output=True, text=True
    )


class TestCli:
    def test_gen_channel_deterministic(self, tmp_path):
        a = run_cli("gen-channel", "--qubits", "1", "--rank", "1", "--seed", "7")
        b = run_cli("gen-channel", "--qubits", "1", "--rank", "1", "--seed", "7")
        assert a.returncode == 0
        assert a.stdout == b.stdout
        doc = json.loads(a.stdout)
        assert doc["d"] == 2

    def test_gen_channel_to_file(self, tmp_path):
        out = tmp_path / "chan.json"
        r = run_cli(
            "gen-channel", "--qubits", "1", "--rank", "2", "--seed", "3", "--out", str(out)
        )
        assert r.returncode == 0
        assert json.loads(out.read_text())["d"] == 2

    def test_gen_channel_bad_rank(self):
        r = run_cli("gen-channel", "--qubits", "1", "--rank", "9", "--seed", "1")
        assert r.returncode == 1

    @pytest.mark.parametrize("qubits", ["0", "4"])
    def test_gen_channel_qubits_outside_the_limit_exit_one(self, qubits):
        r = run_cli("gen-channel", "--qubits", qubits, "--rank", "1", "--seed", "1")
        assert r.returncode == 1
        assert "--qubits must be in [1, 3]" in r.stderr

    def test_reconstruct_fixture(self, tmp_path):
        basis = build_scaled_pauli_basis(1)
        truth_kraus = random_channel(2, 2, RngSeed(88))
        truth = kraus_to_chi(truth_kraus, basis)
        data = make_dataset(truth, Scheme.SQPT, 1)
        fixture = tmp_path / "dataset.json"
        fixture.write_text(dataset_to_json(data, truth=truth_kraus))
        r = run_cli("reconstruct", "--dataset", str(fixture), "--json")
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert doc["status"] == "optimal"
        assert doc["fidelity"] >= 0.999
        assert doc["slack_sum"] <= 1e-6

    def test_reconstruct_text_output(self, tmp_path):
        basis = build_scaled_pauli_basis(1)
        data = make_dataset(identity_channel(basis), Scheme.SQPT, 1)
        fixture = tmp_path / "dataset.json"
        fixture.write_text(dataset_to_json(data))
        r = run_cli("reconstruct", "--dataset", str(fixture))
        assert r.returncode == 0
        assert "status: optimal" in r.stdout

    def test_run_subcommand(self, tmp_path):
        cfg = {
            "n_qubits": 1,
            "scheme": "sqpt",
            "ranks": [1],
            "channels_per_rank": 1,
            "sweep_trials": 1,
            "fidelity_threshold": 0.99,
            "master_seed": {"seed": 4},
            "output_dir": str(tmp_path / "out"),
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        r = run_cli("run", "--config", str(cfg_path), "--json")
        assert r.returncode == 0
        assert (tmp_path / "out" / "results.csv").exists()
        doc = json.loads(r.stdout)
        assert doc[0]["rank"] == 1

    @pytest.mark.parametrize(
        "key,value",
        [
            ("solver_tol", 0),
            ("fidelity_threshold", 1.5),
            ("tp_constraint", "false"),
            ("sweep_batch", 2.5),
            ("channels_per_rank", True),
            ("ranks", [1.7]),
            ("solver_tol", True),
            ("fidelity_threshold", "0.9"),
            ("solver_tol", 1.0),
            ("solver_tol", 1e300),
            ("master_seed", {"seed": 0, "generator_id": "mt19937"}),
            ("ranks", []),
        ],
    )
    def test_run_invalid_config_exits_one(self, tmp_path, key, value):
        cfg = {
            "n_qubits": 1,
            "ranks": [1],
            "channels_per_rank": 1,
            "sweep_trials": 1,
            "output_dir": str(tmp_path / "out"),
            key: value,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        r = run_cli("run", "--config", str(cfg_path))
        assert r.returncode == 1
        assert "invalid config" in r.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--additive-scale", "-0.001"),
            ("--tol", "0"),
            ("--tol", "-0.5"),
            ("--p-min", "nan"),
            ("--tol", "inf"),
            ("--tol", "1"),
            ("--tol", "1e300"),
            ("--additive-scale", "inf"),
        ],
    )
    def test_reconstruct_invalid_option_exits_one(self, tmp_path, flag, value):
        basis = build_scaled_pauli_basis(1)
        fixture = tmp_path / "dataset.json"
        fixture.write_text(dataset_to_json(make_dataset(identity_channel(basis), Scheme.SQPT, 1)))
        r = run_cli("reconstruct", "--dataset", str(fixture), flag, value)
        assert r.returncode == 1
        assert "invalid option" in r.stderr

    def test_reconstruct_infinite_additive_envelope_exits_one(self, tmp_path):
        """Every record on the additive branch with an infinite scale: an
        invalid option, refused before the program build."""
        basis = build_scaled_pauli_basis(1)
        fixture = tmp_path / "dataset.json"
        fixture.write_text(dataset_to_json(make_dataset(identity_channel(basis), Scheme.SQPT, 1)))
        r = run_cli(
            "reconstruct", "--dataset", str(fixture), "--p-min", "inf", "--additive-scale", "inf"
        )
        assert r.returncode == 1
        assert "invalid option" in r.stderr and "additive_scale" in r.stderr

    def test_reconstruct_non_finite_truth_exits_two_at_load(self, tmp_path):
        """A non-trace-preserving truth with a NaN operator entry is refused
        where the dataset is read, before any solve."""
        basis = build_scaled_pauli_basis(1)
        truth = KrausSet(d=2, operators=0.5 * np.eye(2)[None], trace_preserving=False)
        doc = json.loads(dataset_to_json(make_dataset(identity_channel(basis), Scheme.SQPT, 1), truth))
        doc["truth"]["operators"][0][0] = [float("nan"), 0.0]
        fixture = tmp_path / "dataset.json"
        fixture.write_text(json.dumps(doc))
        r = run_cli("reconstruct", "--dataset", str(fixture), "--json")
        assert r.returncode == 2
        assert "non-finite" in r.stderr
        assert r.stdout == ""

    @pytest.mark.parametrize(
        "field,value,message",
        [("k", 0.5, "probe_index"), ("lambda", 1.9, "effect_index"), ("shots", 100.5, "shots")],
    )
    def test_reconstruct_non_integral_record_exits_two(self, tmp_path, field, value, message):
        basis = build_scaled_pauli_basis(1)
        doc = json.loads(dataset_to_json(make_dataset(identity_channel(basis), Scheme.SQPT, 1)))
        doc["records"][0][field] = value
        fixture = tmp_path / "dataset.json"
        fixture.write_text(json.dumps(doc))
        r = run_cli("reconstruct", "--dataset", str(fixture))
        assert r.returncode == 2
        assert f"{message} must be an integer" in r.stderr
        assert r.stdout == ""

    @pytest.mark.parametrize("value", [True, "0.5"])
    def test_reconstruct_non_real_probability_exits_two(self, tmp_path, value):
        basis = build_scaled_pauli_basis(1)
        doc = json.loads(dataset_to_json(make_dataset(identity_channel(basis), Scheme.SQPT, 1)))
        doc["records"][0]["p"] = value
        fixture = tmp_path / "dataset.json"
        fixture.write_text(json.dumps(doc))
        r = run_cli("reconstruct", "--dataset", str(fixture))
        assert r.returncode == 2
        assert "p must be a real number" in r.stderr
        assert r.stdout == ""

    @pytest.mark.parametrize(
        "doc",
        [
            {"scheme": "sqpt", "n_qubits": 1, "records": [5]},
            {"scheme": "sqpt", "n_qubits": 1, "records": {"k": 0}},
            ["x"],
        ],
        ids=["record-not-an-object", "records-not-a-list", "document-not-an-object"],
    )
    def test_reconstruct_malformed_dataset_exits_two(self, tmp_path, doc):
        fixture = tmp_path / "dataset.json"
        fixture.write_text(json.dumps(doc))
        r = run_cli("reconstruct", "--dataset", str(fixture))
        assert r.returncode == 2
        assert "malformed dataset document" in r.stderr
        assert r.stdout == ""

    def test_run_beyond_the_qubit_limit_exits_one(self, tmp_path):
        # The threshold is out of range too but checked after the size, so
        # a build without the size check stops before a 4-qubit run (the
        # SQPT table alone would take 174 GB).
        cfg = {"n_qubits": 4, "ranks": [1], "fidelity_threshold": 1.5}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**cfg, "output_dir": str(tmp_path / "out")}))
        r = run_cli("run", "--config", str(cfg_path))
        assert r.returncode == 1
        assert "n_qubits must be in [1, 3]" in r.stderr
        assert not (tmp_path / "out").exists()

    def test_reconstruct_beyond_the_qubit_limit_exits_two(self, tmp_path):
        # k = 256 is out of range too but checked after the size, so a
        # build without the size check never reaches the 4-qubit table.
        doc = {"scheme": "sqpt", "n_qubits": 4, "records": [{"k": 256, "lambda": 0, "p": 0.5}]}
        fixture = tmp_path / "dataset.json"
        fixture.write_text(json.dumps(doc))
        r = run_cli("reconstruct", "--dataset", str(fixture))
        assert r.returncode == 2
        assert "n_qubits must be in [1, 3]" in r.stderr
        assert r.stdout == ""

    def test_aapt_beyond_its_qubit_limit_rejected(self, tmp_path, monkeypatch, capsys):
        """A 3-qubit AAPT config exits 1 and a 3-qubit AAPT dataset exits
        2, before any setup is built (the effects alone would take
        3.06 GB; building any effects fails here).  Run in process, so
        that the guard holds."""
        monkeypatch.setattr(tomography, "pauli_projector_effects", refuse_effects)
        with pytest.raises(ValueError, match=r"n_qubits must be in \[1, 2\] for aapt"):
            tiny_config(tmp_path, n_qubits=3, scheme=Scheme.AAPT, ranks=(1,))
        cfg = {"n_qubits": 3, "scheme": "aapt", "ranks": [1], "output_dir": str(tmp_path / "out")}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli.main(["run", "--config", str(cfg_path)]) == 1
        assert "n_qubits must be in [1, 2] for aapt" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        doc = {"scheme": "aapt", "n_qubits": 3, "records": [{"k": 0, "lambda": 0, "p": 0.5}]}
        fixture = tmp_path / "dataset.json"
        fixture.write_text(json.dumps(doc))
        assert cli.main(["reconstruct", "--dataset", str(fixture)]) == 2
        out = capsys.readouterr()
        assert "n_qubits must be in [1, 2] for aapt" in out.err and out.out == ""

    def test_reconstruct_trace(self, tmp_path):
        """``reconstruct --trace`` writes the solver's progress lines to
        stderr; the last, at an OPTIMAL exit, gives the handed-over penalty."""
        basis = build_scaled_pauli_basis(1)
        truth = kraus_to_chi(random_channel(2, 2, RngSeed(516)), basis)
        data = make_dataset(truth, Scheme.SQPT, 1, shots=1000, seed=RngSeed(517))
        fixture = tmp_path / "dataset.json"
        fixture.write_text(dataset_to_json(data))
        r = run_cli("reconstruct", "--dataset", str(fixture), "--trace")
        assert r.returncode == 0 and "status: optimal" in r.stdout
        lines = r.stderr.splitlines()
        assert lines and all(line.startswith("iter=") for line in lines)
        assert lines[-1].split()[4].startswith("handover_rho=")

    def test_malformed_config_line_numbered(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n_qubits": 1,\n "scheme": }')
        r = run_cli("run", "--config", str(bad))
        assert r.returncode == 1
        assert "line 2" in r.stderr

    def test_unknown_flag_exits_one(self):
        r = run_cli("run", "--config", "x.json", "--definitely-not-a-flag")
        assert r.returncode == 1
        assert "usage" in r.stderr

    def test_missing_subcommand_exits_one(self):
        r = run_cli()
        assert r.returncode == 1

    def test_solve_sdp(self, tmp_path):
        from vartomo.sdp import problem_to_json
        from canned_suite import build_canned_problems

        _, problem, analytic = build_canned_problems()[2]
        path = tmp_path / "problem.json"
        path.write_text(problem_to_json(problem))
        r = run_cli("solve-sdp", "--problem", str(path), "--json")
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert doc["status"] == "optimal"
        assert abs(doc["objective"] - analytic) <= 1e-6

    def test_solve_sdp_trace_goes_to_stderr(self, tmp_path):
        from vartomo.sdp import problem_to_json
        from canned_suite import build_canned_problems

        path = tmp_path / "problem.json"
        path.write_text(problem_to_json(build_canned_problems()[2][1]))
        r = run_cli("solve-sdp", "--problem", str(path), "--json", "--trace")
        assert r.returncode == 0
        assert r.stderr.startswith("iter=") and "primal=" in r.stderr
        assert json.loads(r.stdout)["status"] == "optimal"

    @pytest.mark.parametrize(
        "flag,value,message",
        [("--max-iter", "0", "max_iter"), ("--tol", "0", "tol"), ("--tol", "1", "tol"), ("--tol", "inf", "tol")],
    )
    def test_solve_sdp_invalid_option_exits_one(self, tmp_path, flag, value, message):
        from vartomo.sdp import problem_to_json
        from canned_suite import build_canned_problems

        path = tmp_path / "problem.json"
        path.write_text(problem_to_json(build_canned_problems()[2][1]))
        r = run_cli("solve-sdp", "--problem", str(path), "--json", flag, value)
        assert r.returncode == 1
        assert "invalid option" in r.stderr and message in r.stderr
        assert r.stdout == ""

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("objective", [float("nan"), 0.0, 0.0, 0.0], "objective must be finite"),
            # the dense-row format of earlier versions: one dict per row
            ("equalities", [{"coeffs": [1.0, 1.0, 0.0, 0.0], "value": 1.0}], "malformed"),
            ("objective", ["1.0", 0.0, 0.0, 0.0], "objective must hold numbers"),
        ],
    )
    def test_solve_sdp_invalid_problem_exits_two(self, tmp_path, field, value, message):
        from vartomo.sdp import problem_to_json
        from canned_suite import build_canned_problems

        doc = json.loads(problem_to_json(build_canned_problems()[2][1]))
        doc[field] = value
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc))
        r = run_cli("solve-sdp", "--problem", str(path), "--json")
        assert r.returncode == 2
        assert message in r.stderr
        assert "Traceback" not in r.stderr
        assert r.stdout == ""

    def test_solve_sdp_rows_unlike_their_factors_exit_two(self, tmp_path):
        """A block in both forms, or dense rows with a stray factor index,
        is refused, not reconciled."""
        from canned_suite import both_forms_dump

        text = both_forms_dump()
        both, stray = json.loads(text), json.loads(text)
        del stray["inequalities"]["factor_tables"]
        for doc, message in ((both, "not both"), (stray, "come together")):
            path = tmp_path / "problem.json"
            path.write_text(json.dumps(doc))
            r = run_cli("solve-sdp", "--problem", str(path), "--json")
            assert r.returncode == 2
            assert message in r.stderr
            assert "Traceback" not in r.stderr
            assert r.stdout == ""

    def test_infeasible_dataset_reported(self, tmp_path):
        basis = build_scaled_pauli_basis(1)
        ident = identity_channel(basis)
        data = make_dataset(ident, Scheme.SQPT, 1)
        doc = json.loads(dataset_to_json(data))
        doc["records"].append({"k": 0, "lambda": 4, "p": 1.0, "shots": 0})
        # clashes with the true p = 1/3 record for the same (probe, effect)
        fixture = tmp_path / "bad.json"
        fixture.write_text(json.dumps(doc))
        r = run_cli(
            "reconstruct", "--dataset", str(fixture), "--json",
            "--p-min", "1.1", "--additive-scale", "1e-3",
        )
        assert r.returncode == 0
        out = json.loads(r.stdout)
        assert out["status"] == "infeasible"
        assert out["worst_records"][0]["k"] == 0
        assert out["worst_records"][0]["lambda"] == 4
