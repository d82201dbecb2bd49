"""Each output check passes the program's answer and rejects a wrong one.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from vartomo import channels, probes, tomography  # noqa: E402


def solved(scheme: str, shots: int, complete: bool = True):
    inputs = workloads._Inputs(1)
    _, process, truth = inputs.channel(2, probes.RngSeed(11))
    selected = None if complete else inputs.half_selection(scheme, np.random.default_rng(3))
    data = tomography.make_dataset(
        process, probes.Scheme(scheme), 1, selected=selected, shots=shots,
        seed=probes.RngSeed(12) if shots else None,
    )
    result = tomography.reconstruct(data)
    return checks.Setup.build(scheme, 1), result, workloads._records(data), truth


ENV = checks.Envelope()


@pytest.mark.parametrize("scheme", ["sqpt", "aapt"])
@pytest.mark.parametrize("shots", [0, 10_000])
@pytest.mark.parametrize("complete", [True, False])
def test_program_answer_passes(scheme, shots, complete):
    setup, result, records, truth = solved(scheme, shots, complete)
    chi, slacks = result.chi_hat.chi, result.solver.slacks
    assert checks.check_psd(chi) == []
    assert checks.check_record_fit(setup, chi, slacks, records, ENV) == []
    assert checks.check_optimality(setup, chi, slacks, records, ENV, truth) == []
    if complete and not shots:
        assert checks.check_recovery(chi, truth) == []


def test_own_conventions_match_the_program():
    basis = channels.build_scaled_pauli_basis(2)
    assert np.allclose(checks.pauli_basis(2), basis.elements)
    assert np.allclose(checks.pauli_effects(2), probes.pauli_projector_effects(2).effects)
    assert np.allclose(checks.sqpt_probes(2), [s.rho for s in probes.sqpt_probe_states(2).states])
    kraus = probes.random_channel(4, 3, probes.RngSeed(5))
    truth = checks.chi_from_kraus(kraus.operators, checks.pauli_basis(2))
    assert np.allclose(truth, channels.kraus_to_chi(kraus, basis).chi)


def test_perturbed_chi_is_rejected():
    setup, result, records, truth = solved("sqpt", 0)
    rng = np.random.default_rng(0)
    noise = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    chi = result.chi_hat.chi + 1e-3 * (noise @ noise.conj().T)
    assert checks.check_record_fit(setup, chi, result.solver.slacks, records, ENV)
    assert checks.check_recovery(chi, truth)


def test_non_psd_chi_is_rejected():
    _, result, _, _ = solved("sqpt", 0)
    chi = result.chi_hat.chi - 1e-3 * np.eye(4)
    assert checks.check_psd(chi)
    skewed = result.chi_hat.chi.copy()
    skewed[0, 1] += 1e-3
    assert checks.check_psd(skewed)


def test_dropped_slack_is_rejected():
    setup, result, records, _ = solved("sqpt", 10_000)
    chi, slacks = result.chi_hat.chi, result.solver.slacks
    assert checks.check_record_fit(setup, chi, slacks[:-1], records, ENV)
    zeroed = slacks.copy()
    zeroed[np.argmax(slacks)] = 0.0
    assert checks.check_record_fit(setup, chi, zeroed, records, ENV)


def test_excess_objective_is_rejected():
    setup, result, records, truth = solved("sqpt", 0)
    inflated = result.solver.slacks + 0.01
    failures = checks.check_optimality(setup, result.chi_hat.chi, inflated, records, ENV, truth)
    assert failures


def test_unflagged_contradiction_is_rejected():
    inputs = workloads._Inputs(1)
    ok, bad = workloads._degenerate_ops(inputs)
    assert checks.check_infeasible(None, workloads.CONTRADICTION)
    with pytest.raises(tomography.InfeasibleDataError) as caught:
        bad.run()
    assert bad.check(None, caught.value) == []
    assert bad.check(ok.run(), None)
    ranked = caught.value.worst_records
    other = next(pair for pair in ranked if (pair[0].probe_index, pair[0].effect_index) != (0, 4))
    misranked = [other] + ranked
    assert checks.check_infeasible(misranked, workloads.CONTRADICTION)


def test_sweep_checks_reject_a_wrong_sweep():
    kraus = probes.random_channel(4, 1, probes.RngSeed(8))
    truth = checks.chi_from_kraus(kraus.operators, checks.pauli_basis(2))
    assert checks.check_sweep(truth, truth, 2, 80, False, 0.99, 256) == []
    assert checks.check_sweep(truth, truth, 2, 80, True, 0.99, 256)
    assert checks.check_sweep(truth, truth, 2, 300, False, 0.99, 256)
    mixed = 0.9 * truth + 0.1 * np.trace(truth).real / 16 * np.eye(16)
    assert checks.check_sweep(mixed, truth, 2, 80, False, 0.99, 256)
    assert checks.check_fig1_shape({1: [80, 90], 16: [240, 250]}, 256) == []
    assert checks.check_fig1_shape({1: [240, 250], 16: [80, 90]}, 256)
    assert checks.check_fig1_shape({1: [140, 150], 16: [240, 250]}, 256)


def test_fidelity_matches_the_program():
    basis = channels.build_scaled_pauli_basis(2)
    a = probes.random_channel(4, 2, probes.RngSeed(1))
    b = probes.random_channel(4, 5, probes.RngSeed(2))
    pa, pb = channels.kraus_to_chi(a, basis), channels.kraus_to_chi(b, basis)
    assert checks.fidelity(pa.chi, pb.chi, 2) == pytest.approx(channels.process_fidelity(pa, pb), abs=1e-7)
