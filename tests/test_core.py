"""Resonant response closed forms and the general scattering amplitudes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavityherald.core import (
    CavityParams,
    effective_cooperativity_ring,
    reflection_probability,
    scattering_amplitudes,
    scattering_loss,
    transmission_probability,
    with_cooperativity,
)

# strategies shared below: cooperativity spans weak to absurdly strong coupling
xs = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
ns = st.integers(min_value=0, max_value=6)


def test_reference_point():
    # x = 1, one atom: the canonical working point used throughout
    assert math.isclose(reflection_probability(1.0, 1), 0.64, rel_tol=1e-14)
    assert math.isclose(transmission_probability(1.0, 1), 0.04, rel_tol=1e-14)
    assert math.isclose(scattering_loss(1.0, 1), 0.32, rel_tol=1e-14)


def test_empty_cavity_is_transparent():
    assert reflection_probability(5.0, 0) == 0.0
    assert transmission_probability(5.0, 0) == 1.0
    assert scattering_loss(5.0, 0) == 0.0


def test_input_validation():
    with pytest.raises(ValueError):
        reflection_probability(-0.1, 1)
    with pytest.raises(ValueError):
        scattering_loss(1.0, -1)
    with pytest.raises(ValueError):
        transmission_probability(1.0, 1.5)


@given(xs, ns)
def test_probabilities_sum_to_one(x, n):
    total = (reflection_probability(x, n) + transmission_probability(x, n)
             + scattering_loss(x, n))
    assert abs(total - 1.0) < 1e-12


@given(xs, ns)
def test_loss_bounded_by_half(x, n):
    assert scattering_loss(x, n) <= 0.5 + 1e-15


def test_loss_peak_location():
    # the bound is attained exactly at 4 N x = 1
    for n in (1, 2, 4):
        x_star = 1.0 / (4 * n)
        assert scattering_loss(x_star, n) == 0.5
        assert scattering_loss(x_star * 1.01, n) < 0.5
        assert scattering_loss(x_star * 0.99, n) < 0.5


@given(st.floats(min_value=1e-6, max_value=1e6), st.integers(1, 5))
def test_reflection_grows_with_atom_number(x, n):
    assert reflection_probability(x, n + 1) > reflection_probability(x, n)


@given(st.floats(min_value=1e-6, max_value=1e5), ns)
def test_reflection_nondecreasing_in_x(x, n):
    assert reflection_probability(x * 1.5, n) >= reflection_probability(x, n)


def test_spectrum_reduces_to_closed_forms_on_resonance():
    for x in (0.03, 0.25, 1.0, 7.0):
        p = CavityParams.from_cooperativity(x)
        for n in range(4):
            pt = scattering_amplitudes(p, 0.0, n)
            assert abs(pt.R - reflection_probability(x, n)) < 1e-12
            assert abs(pt.T - transmission_probability(x, n)) < 1e-12
            assert abs(pt.loss - scattering_loss(x, n)) < 1e-12


@given(st.floats(min_value=-50.0, max_value=50.0))
def test_empty_cavity_spectrum_is_lossless(omega):
    pt = scattering_amplitudes(CavityParams.from_cooperativity(1.0), omega, 0)
    assert abs(pt.R + pt.T - 1.0) < 1e-12


@given(st.floats(min_value=-50.0, max_value=50.0),
       st.integers(min_value=1, max_value=4))
def test_atoms_only_remove_probability(omega, n):
    pt = scattering_amplitudes(CavityParams.from_cooperativity(1.0), omega, n)
    assert pt.R + pt.T <= 1.0 + 1e-12
    assert pt.loss >= -1e-12


def test_far_detuned_probe_reflects():
    pt = scattering_amplitudes(CavityParams.from_cooperativity(1.0), 1e6, 1)
    assert abs(pt.r) > 0.999999


def test_spectrum_symmetric_in_omega_without_detuning():
    p = CavityParams.from_cooperativity(0.8)
    for w in (0.3, 2.0, 11.0):
        a = scattering_amplitudes(p, w, 2)
        b = scattering_amplitudes(p, -w, 2)
        assert math.isclose(a.R, b.R, rel_tol=1e-12)
        assert math.isclose(a.T, b.T, rel_tol=1e-12)


@pytest.mark.parametrize("omega", [math.nan, math.inf, -math.inf])
def test_spectrum_rejects_non_finite_frequency(omega):
    # the amplitudes would all be NaN
    with pytest.raises(ValueError, match="finite"):
        scattering_amplitudes(CavityParams.from_cooperativity(1.0), omega, 1)


def test_params_validation():
    with pytest.raises(ValueError):
        CavityParams(g=1.0, kappa_a=0.0, kappa_b=0.5)
    with pytest.raises(ValueError, match="normalize"):
        CavityParams(g=1.0, kappa_a=0.5, kappa_b=0.5, gamma=2.0)
    with pytest.raises(ValueError):
        CavityParams.from_cooperativity(1.0, eta=1.2)
    with pytest.raises(ValueError):
        CavityParams.from_cooperativity(1.0, f=1.0)
    with pytest.raises(ValueError):
        CavityParams.from_cooperativity(1.0, g_tilde=1.0)  # no kappa_tilde
    with pytest.raises(ValueError):
        CavityParams.from_cooperativity(-0.5)


@pytest.mark.parametrize("build, match", [
    (lambda: CavityParams(g=-1.0, kappa_a=0.5, kappa_b=0.5), "g must be"),
    (lambda: CavityParams(g=1.0, kappa_a=0.5, kappa_b=0.5, g_tilde=-1.0,
                          kappa_tilde=1.0), "ring-mode"),
    (lambda: CavityParams(g=1.0, kappa_a=0.5, kappa_b=0.5, kappa_tilde=-1.0),
     "ring-mode"),
    (lambda: CavityParams.from_raw_rates(1.0, 1.0, 1.0, 0.0), "gamma"),
    (lambda: CavityParams.from_raw_rates(1.0, 1.0, 1.0, -2.0), "gamma"),
    (lambda: with_cooperativity(CavityParams.from_cooperativity(1.0), -0.5),
     "cooperativity"),
], ids=["negative-g", "negative-g-tilde", "negative-kappa-tilde",
        "zero-gamma", "negative-gamma", "negative-x-rescale"])
def test_params_guards_reject_invalid_rates(build, match):
    with pytest.raises(ValueError, match=match):
        build()


def test_raw_rate_normalization():
    p = CavityParams.from_raw_rates(g=2.0, kappa_a=1.0, kappa_b=1.0, gamma=2.0)
    assert p.gamma == 1.0
    assert math.isclose(p.cooperativity, 1.0, rel_tol=1e-14)
    q = CavityParams.from_raw_rates(g=2.0, kappa_a=1.0, kappa_b=1.0,
                                    gamma=2.0, delta=4.0, eta=0.5)
    assert q.delta == 2.0  # rates scale, efficiencies do not
    assert q.eta == 0.5


@settings(max_examples=50)
@given(st.floats(min_value=1e-4, max_value=1e4))
def test_with_cooperativity_round_trip(x):
    p = with_cooperativity(CavityParams.from_cooperativity(1.0, eta=0.7), x)
    assert math.isclose(p.cooperativity, x, rel_tol=1e-14)
    assert p.eta == 0.7


def test_ring_mode_reduction():
    p = CavityParams.from_cooperativity(3.0)
    assert effective_cooperativity_ring(p) == p.cooperativity


def test_ring_mode_matched_coupling():
    # matched reverse mode: x_eff = x / (1 + 4x), exactly 1/5 at x = 1
    p = CavityParams.from_cooperativity(1.0, g_tilde=1.0, kappa_tilde=1.0)
    assert effective_cooperativity_ring(p) == 0.2
    for x in np.logspace(-3, 6, 30):
        q = CavityParams.from_cooperativity(
            float(x), g_tilde=math.sqrt(float(x)), kappa_tilde=1.0)
        xe = effective_cooperativity_ring(q)
        assert xe < 0.25
        assert math.isclose(xe, x / (1 + 4 * x), rel_tol=1e-12)
