"""The tree-comparison script ``benchmarks/bench_solver.py``, loaded by its path."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_solver.py"
LABEL = "1q/sqpt/complete/exact/r4/s0"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_solver", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_corpus_labels_are_distinct(bench):
    labels = [case[0] for case in bench.corpus_cases()]
    assert len(set(labels)) == len(labels) == 288


def test_run_in_returns_the_case_asked_for(bench):
    result = bench.run_in(bench.HERE, "corpus", LABEL)
    assert list(result) == [LABEL]
    assert result[LABEL]["status"] == "optimal"


def test_failed_child_shows_its_error(bench, tmp_path, capsys):
    with pytest.raises(subprocess.CalledProcessError):
        bench.run_in(tmp_path, "corpus", LABEL)
    assert "ModuleNotFoundError: No module named 'vartomo'" in capsys.readouterr().err


def test_baseline_without_sources_rejected_before_any_run(tmp_path):
    out = subprocess.run(
        [sys.executable, str(SCRIPT), "--corpus", "--baseline", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 2
    assert "no vartomo/__init__.py" in out.stderr and not out.stdout


class Stop(Exception):
    pass


def test_sweep_alone_runs_the_solver_table_in_a_child(bench, monkeypatch, capsys):
    """The sweep mode alone prints the solver table from a child process
    (one BLAS thread), as it runs every case, not from the driver."""
    run_in, called = bench.run_in, []

    def recorded(src, name, *args):
        called.append(name)
        if name != "solver-table":
            raise Stop  # before the ten sweep calls
        return run_in(src, name, *args)

    monkeypatch.setattr(bench, "run_in", recorded)
    with pytest.raises(Stop):
        bench.sweep({"change": bench.HERE})
    assert called == ["solver-table", "sweep"]
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[:2] == ["problem", "rows"] and len(lines) == 7
    assert lines[-1].startswith("random diagonal SDP (dim 8)")


def test_dump_case_writes_each_program_in_its_factored_form(bench):
    """This tree dumps every program of the dump case, 3q SQPT included,
    2q SQPT in at most 0.15 MB and 2q AAPT in at most 0.3 MB; the 16 TP
    rows of 2q SQPT, one table of 16 x 16 x 16 complex entries, add less
    than 0.15 MB."""
    result = bench.run_in(bench.HERE, "dump")
    assert list(result) == ["2q/sqpt", "2q/sqpt/tp", "2q/aapt", "3q/sqpt"]
    assert result["2q/sqpt"]["bytes"] <= 150_000
    assert 0 < result["2q/sqpt/tp"]["bytes"] - result["2q/sqpt"]["bytes"] < 150_000
    assert result["2q/aapt"]["bytes"] <= 300_000
    assert result["3q/sqpt"]["bytes"] < 5_000_000
