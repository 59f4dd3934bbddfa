"""Independent verification machinery: master-equation solver, quadrature
cross-check, Monte Carlo sampler, and the bundled verification suite.

These tests keep sample counts and grids small; the full-size runs live in
tests/test_acceptance.py.
"""

import math
import random

import numpy as np
import pytest

from cavityherald import oracle, protocol
from cavityherald.core import (
    CavityParams,
    reflection_probability,
    scattering_loss,
    transmission_probability,
    with_cooperativity,
)
from cavityherald.oracle import (
    WEAK_DRIVE_MAX,
    OracleDiagnosticError,
    build_system,
    coherence_decay_rate,
    monte_carlo_double,
    quadrature_single,
    run_verification_suite,
    steady_state_density_matrix,
    steady_state_rt,
)
from cavityherald.protocol import coherent_double, coherent_single

P1 = CavityParams.from_cooperativity(1.0)


def test_build_system_validation():
    with pytest.raises(ValueError):
        build_system(P1, 3)  # at most two atoms in the coupled state
    with pytest.raises(ValueError, match="g_tilde"):
        # no counter-propagating mode in the master equation
        build_system(CavityParams.from_cooperativity(
            1.0, g_tilde=1.0, kappa_tilde=1.0), 1)
    with pytest.raises(ValueError):
        build_system(P1, 1, n_c=0)
    with pytest.raises(ValueError):
        build_system(P1, 1, drive_flux=-1.0)
    with pytest.raises(ValueError):
        build_system(P1, 1, drive_flux=10.0 * WEAK_DRIVE_MAX)


def test_system_dimensions():
    sys1 = build_system(P1, 1, n_c=3)
    assert sys1.dim == 9 * 4  # two 3-level atoms, 4 photon levels
    assert sys1.hamiltonian.shape == (36, 36)
    assert len(sys1.collapse_ops) == 4


def test_steady_state_is_a_density_matrix():
    sys1 = build_system(P1, 1)
    rho, sel = steady_state_density_matrix(sys1)
    assert abs(np.trace(rho) - 1.0) < 1e-10
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-10
    assert np.linalg.eigvalsh(rho).min() > -1e-10
    assert rho.shape[0] == len(sel)


def test_empty_cavity_transmits():
    sys0 = build_system(P1, 0)
    r, t, loss = steady_state_rt(sys0)
    assert abs(r) < 1e-8
    assert abs(t - 1.0) < 1e-8
    assert abs(loss) < 1e-8


@pytest.mark.parametrize("n_atoms,x", [(1, 0.25), (1, 1.0), (2, 1.0)])
def test_steady_state_matches_closed_forms(n_atoms, x):
    sysn = build_system(with_cooperativity(P1, x), n_atoms)
    r, t, loss = steady_state_rt(sysn)
    assert abs(r / reflection_probability(x, n_atoms) - 1.0) < 0.01
    assert abs(t / transmission_probability(x, n_atoms) - 1.0) < 0.01
    assert abs(loss / scattering_loss(x, n_atoms) - 1.0) < 0.01
    # flux bookkeeping is an operator identity in steady state, so the sum
    # closes to round-off, far below the O(drive) model deviation
    assert abs(r + t + loss - 1.0) < 1e-12


@pytest.mark.parametrize("params, n_atoms, expected", [
    (P1, 1, (0.6398064778298965, 0.04014804357785934, 0.3200454785922439)),
    (with_cooperativity(P1, 0.25), 2,
     (0.4443061372289541, 0.1112099618002473, 0.44448390097078166)),
    (CavityParams.from_cooperativity(1.0, delta=0.7), 1,
     (0.5932776292801457, 0.10995847651168793, 0.2967638942081667)),
    (CavityParams(g=1.0, kappa_a=0.2, kappa_b=0.8), 1,
     (0.8463548414930734, 0.025637878808488508, 0.12800727969843836)),
])
def test_steady_state_pinned_values(params, n_atoms, expected):
    # frozen outputs of the master equation at the default flux and n_c
    observed = steady_state_rt(build_system(params, n_atoms))
    for o, e in zip(observed, expected):
        assert math.isclose(o, e, rel_tol=1e-12)


@pytest.mark.parametrize("x, expected", [(0.25, 0.0004999583119501485),
                                         (1.0, 0.000320020467987813)])
def test_coherence_decay_pinned_values(x, expected):
    rate = coherence_decay_rate(build_system(with_cooperativity(P1, x), 1))
    assert math.isclose(rate, expected, rel_tol=1e-12)


def test_coherence_decay_without_a_separated_slow_mode_raises():
    # kappa = 0.01 gamma at the largest weak drive: the cavity's own decay
    # is only about nine times faster than xi's, and the cavity fills past
    # the photon truncation
    system = build_system(CavityParams(g=0.1, kappa_a=0.005, kappa_b=0.005),
                          1, drive_flux=WEAK_DRIVE_MAX)
    with pytest.raises(OracleDiagnosticError, match="clean exponential"):
        coherence_decay_rate(system)


def test_steady_state_solve_missing_its_residual_raises(monkeypatch):
    # a zero vector would pass the residual and fail on the trace instead
    monkeypatch.setattr(oracle.np.linalg, "solve",
                        lambda a, b: np.ones_like(b))
    with pytest.raises(OracleDiagnosticError, match="residual"):
        steady_state_rt(build_system(P1, 1))


def test_steady_state_response_needs_a_drive():
    # the response is normalized by the input flux
    with pytest.raises(ValueError, match="nonzero drive"):
        steady_state_rt(build_system(P1, 1, drive_flux=0.0))


def test_detuned_system_still_conserves_flux():
    p = CavityParams.from_cooperativity(1.0, delta=0.7)
    r, t, loss = steady_state_rt(build_system(p, 1))
    assert abs(r + t + loss - 1.0) < 1e-12
    # detuning spoils the impedance match: more transmission than resonant
    assert t > transmission_probability(1.0, 1)


def test_coherence_decay_matches_loss_rate():
    sys1 = build_system(P1, 1)
    rate = coherence_decay_rate(sys1)
    assert abs(rate / (scattering_loss(1.0, 1) * sys1.drive_flux) - 1) < 0.02


def test_coherence_survives_without_drive():
    sys_dark = build_system(P1, 1, drive_flux=0.0)
    assert coherence_decay_rate(sys_dark) == 0.0


def test_coherence_survives_uncoupled_atoms_under_drive():
    # at x = 0 the loss rate is 0, so the fit window 5 / (lambda Phi) is
    # unbounded; the atoms never see the light and xi stays constant
    system = build_system(CavityParams.from_cooperativity(0.0), 1,
                          drive_flux=1e-3)
    assert coherence_decay_rate(system) == 0.0


def test_coherence_decay_does_not_read_the_closed_form_loss(monkeypatch):
    # the closed-form lambda is what the decay rate is checked against, so
    # the oracle must not use it, not even to spot uncoupled atoms
    def closed_form(x, n_atoms):
        raise AssertionError("the oracle read the closed-form loss")

    monkeypatch.setattr(oracle, "scattering_loss", closed_form)
    rate = coherence_decay_rate(build_system(P1, 1))
    assert math.isclose(rate, 0.000320020467987813, rel_tol=1e-12)
    uncoupled = build_system(CavityParams.from_cooperativity(0.0), 1)
    assert coherence_decay_rate(uncoupled) == 0.0


def test_quadrature_and_monte_carlo_reject_a_spurious_reflection():
    # both read the closed forms' rates, which leave f out
    spurious = CavityParams.from_cooperativity(1.0, f=0.1)
    with pytest.raises(ValueError, match="f = 0.1"):
        quadrature_single(spurious, math.pi / 4, 2.0)
    with pytest.raises(ValueError, match="f = 0.1"):
        monte_carlo_double(spurious, 2.0, 10_000, 1)


def test_quadrature_agrees_with_closed_form():
    for x, eta, phi, nm in [(1.0, 1.0, math.pi / 4, 1.0),
                            (0.3, 0.6, 0.5, 2.5)]:
        p = with_cooperativity(CavityParams.from_cooperativity(1.0, eta=eta),
                               x)
        quad = quadrature_single(p, phi, nm)
        closed = coherent_single(p, phi, nm)
        assert abs(quad.p_success - closed.p_success) < 1e-8
        assert abs(quad.fidelity - closed.fidelity) < 1e-8


def test_quadrature_calls_no_scalar_protocol_helper(monkeypatch):
    # the integrands are arrays built from one read of the model, not
    # per-node calls into the scalar helpers
    def per_node_call(*args):
        raise AssertionError("quadrature called a scalar protocol helper")

    for name in ("first_click_density", "coherent_conditional_fidelity",
                 "coherent_conditional_population"):
        monkeypatch.setattr(protocol, name, per_node_call)
    quad = quadrature_single(P1, math.pi / 4, 2.0)
    closed = coherent_single(P1, math.pi / 4, 2.0)
    assert abs(quad.p_success - closed.p_success) < 1e-12
    assert abs(quad.fidelity - closed.fidelity) < 1e-12


def test_quadrature_matches_closed_form_to_round_off():
    # 250 seeded points over x 0.05..50, eta 0.1..1, phi 0.1..1.2 and
    # n_max 0.01..200, plus n_max = 200 at x = 50: five panels, the last
    # [85, 200]. Any error guard that trips raises.
    rng = random.Random(20240817)
    points = [(50.0, 1.0, 0.7, 200.0)] + [
        (math.exp(rng.uniform(math.log(0.05), math.log(50.0))),
         rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.2),
         math.exp(rng.uniform(math.log(0.01), math.log(200.0))))
        for _ in range(250)]
    for x, eta, phi, n_max in points:
        params = CavityParams.from_cooperativity(x, eta=eta)
        quad = quadrature_single(params, phi, n_max)
        closed = coherent_single(params, phi, n_max)
        assert abs(quad.p_success - closed.p_success) <= 1e-12, (x, n_max)
        assert abs(quad.fidelity - closed.fidelity) <= 1e-12, (x, n_max)
        assert abs(quad.p1_conditional - closed.p1_conditional) <= 1e-12


def test_quadrature_with_too_few_nodes_trips_its_error_guard(monkeypatch):
    # 4 against 2 nodes per panel misses P_s by about 3e-5
    rules = tuple(np.polynomial.legendre.leggauss(k) for k in (4, 2))
    monkeypatch.setattr(oracle, "_GAUSS_RULES", rules)
    with pytest.raises(OracleDiagnosticError, match="quadrature error"):
        quadrature_single(P1, math.pi / 4, 2.0)


def test_monte_carlo_frozen_seed():
    mc = monte_carlo_double(P1, 2.0, 1_000_000, 20240817)
    assert mc.n_success == 182875
    assert mc.p_success == 0.182875
    assert math.isclose(mc.fidelity, 0.8471358689763324, rel_tol=1e-12)
    assert math.isclose(mc.p_success_err, 0.0003865640107084466,
                        rel_tol=1e-9)
    assert math.isclose(mc.fidelity_err, 0.0001325479181951111, rel_tol=1e-9)


def test_monte_carlo_reproducible_and_seed_sensitive():
    a = monte_carlo_double(P1, 2.0, 50_000, 7)
    b = monte_carlo_double(P1, 2.0, 50_000, 7)
    c = monte_carlo_double(P1, 2.0, 50_000, 8)
    assert (a.p_success, a.fidelity) == (b.p_success, b.fidelity)
    assert a.n_success != c.n_success


def test_monte_carlo_brackets_closed_form():
    mc = monte_carlo_double(P1, 2.0, 200_000, 3)
    closed = coherent_double(P1, 2.0)
    assert abs(mc.p_success - closed.p_success) < 4 * mc.p_success_err
    assert abs(mc.fidelity - closed.fidelity) < 4 * mc.fidelity_err


def test_monte_carlo_samples_ring_rates():
    # g_tilde = g, kappa_tilde = kappa: the effective cooperativity is 1/5,
    # which cuts P_s from about 0.18 to about 0.03
    ring = CavityParams.from_cooperativity(1.0, g_tilde=1.0, kappa_tilde=1.0)
    mc = monte_carlo_double(ring, 2.0, 200_000, 3)
    closed = coherent_double(ring, 2.0)
    assert abs(mc.p_success - closed.p_success) < 4 * mc.p_success_err
    assert abs(mc.fidelity - closed.fidelity) < 4 * mc.fidelity_err


def test_quadrature_and_monte_carlo_undefined_without_clicks():
    # an uncoupled cavity never clicks: no fidelity, and no NaN for one
    uncoupled = CavityParams.from_cooperativity(0.0)
    for out in (quadrature_single(uncoupled, math.pi / 4, 2.0),
                monte_carlo_double(uncoupled, 2.0, 10_000, 1)):
        assert out.status == "undefined"
        assert out.fidelity is None


def test_monte_carlo_sample_floor():
    with pytest.raises(ValueError):
        monte_carlo_double(P1, 2.0, 999, 1)


def test_monte_carlo_rejects_a_negative_seed():
    with pytest.raises(ValueError, match="seed"):
        monte_carlo_double(P1, 2.0, 10_000, -1)


@pytest.mark.parametrize("n_max", [0.0, -1.0, math.nan, math.inf])
def test_oracle_budgets_must_be_positive_and_finite(n_max):
    # at n_max = inf the zero-rate sectors, which draw n = inf, would count
    # as successes (P_s = 1 instead of the model's limit 1/2)
    with pytest.raises(ValueError, match="n_max"):
        quadrature_single(P1, math.pi / 4, n_max)
    with pytest.raises(ValueError, match="n_max"):
        monte_carlo_double(P1, n_max, 10_000, 1)


@pytest.mark.parametrize("params", [
    CavityParams(g=1.0, kappa_a=0.2, kappa_b=0.8),
    CavityParams.from_cooperativity(1.0, delta=2.0),
], ids=["asymmetric", "detuned"])
def test_monte_carlo_rejects_unmodelled_parameters(params):
    with pytest.raises(ValueError, match="symmetric mirrors on resonance"):
        monte_carlo_double(params, 2.0, 10_000, 1)


def test_verification_suite_passes():
    report = run_verification_suite(samples=50_000)
    assert report["passed"] is True
    assert report["n_failed"] == 0
    assert report["n_checks"] == len(report["checks"])
    for check in report["checks"]:
        assert check["passed"] is True
        assert isinstance(check["name"], str)


def test_verification_suite_failure_path(monkeypatch):
    # a closed form the suite compares against, made wrong, must trip the
    # steady-state checks and be reported per check, not raised
    monkeypatch.setattr(oracle, "reflection_probability",
                        lambda x, n: 2.0 * reflection_probability(x, n))
    report = run_verification_suite(samples=50_000)
    assert report["passed"] is False
    assert report["n_failed"] > 0
