"""Detection schemes: success probabilities, heralded fidelities, diagnostics.

Reference values are frozen from independent routes: the Fock-scheme numbers
from exact rational enumeration of the three preparation branches, the
coherent-scheme numbers from adaptive quadrature of the click density and from
a 10^6-sample Monte Carlo run (see tests/test_oracle.py for the live checks).
"""

import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavityherald import core
from cavityherald.core import (
    CavityParams,
    FrozenRecordError,
    asdict,
    fields,
    reflection_probability,
    scattering_loss,
    with_cooperativity,
)
from cavityherald.protocol import (
    STATUS_OK,
    STATUS_UNDEFINED,
    Scheme,
    SchemeOutcome,
    _erlang2_cdf,
    _erlang2_scaled,
    coherent_conditional_fidelity,
    coherent_conditional_population,
    coherent_double,
    coherent_double_fidelity_uncorrected,
    coherent_single,
    false_reflection_fidelity,
    first_click_density,
    fock_double,
    fock_single,
    initial_populations,
)
from conftest import state

P1 = CavityParams.from_cooperativity(1.0)

angles = st.floats(min_value=1e-3, max_value=math.pi / 2 - 1e-3)
coops = st.floats(min_value=1e-3, max_value=1e3)
budgets = st.floats(min_value=1e-3, max_value=50.0)


# ---------------------------------------------------------------- preparation

@given(st.floats(min_value=0.0, max_value=math.pi / 2))
def test_populations_normalized(phi):
    prep = initial_populations(phi)
    assert abs(prep.p0 + prep.p1 + prep.p2 - 1.0) < 1e-12
    assert min(prep.p0, prep.p1, prep.p2) >= 0.0


def test_balanced_preparation():
    prep = initial_populations(math.pi / 4)
    assert math.isclose(prep.p0, 0.25, rel_tol=1e-14)
    assert math.isclose(prep.p1, 0.50, rel_tol=1e-14)
    assert math.isclose(prep.p2, 0.25, rel_tol=1e-14)


def test_preparation_angle_validated():
    with pytest.raises(ValueError):
        initial_populations(-0.1)
    with pytest.raises(ValueError):
        initial_populations(math.pi / 2 + 0.1)


# ---------------------------------------------------------------- fock single

def test_fock_single_reference_values():
    # rational enumeration at x=1, phi=pi/4: P_s = 1048/2025, F = 81/131
    out = fock_single(P1, math.pi / 4)
    assert out.status == STATUS_OK
    assert math.isclose(out.p_success, 1048 / 2025, rel_tol=1e-13)
    assert math.isclose(out.fidelity, 81 / 131, rel_tol=1e-13)


def test_fock_single_small_angle():
    out = fock_single(P1, 0.2)
    assert math.isclose(out.p_success, 0.04975781374747824, rel_tol=1e-12)
    assert math.isclose(out.fidelity, 0.975262433167352, rel_tol=1e-12)


@given(angles, st.floats(min_value=0.05, max_value=1.0))
def test_fock_single_fidelity_ignores_detector_efficiency(phi, eta):
    ideal = fock_single(P1, phi)
    lossy = fock_single(CavityParams.from_cooperativity(1.0, eta=eta), phi)
    assert math.isclose(ideal.fidelity, lossy.fidelity, rel_tol=1e-12)
    assert math.isclose(lossy.p_success, eta * ideal.p_success, rel_tol=1e-12)


@given(angles, coops)
def test_fock_single_outcome_in_range(phi, x):
    out = fock_single(with_cooperativity(P1, x), phi)
    assert out.status == STATUS_OK
    assert 0.0 <= out.p_success <= 1.0
    assert 0.0 < out.fidelity <= 1.0
    # diagnostics decompose the fidelity: population half plus coherence
    assert abs(out.fidelity
               - (out.p1_conditional / 2 + out.re_coherence)) < 1e-12


def test_fock_single_undefined_cases():
    assert fock_single(with_cooperativity(P1, 0.0), 0.5).status == STATUS_UNDEFINED
    assert fock_single(P1, 0.0).status == STATUS_UNDEFINED
    assert fock_single(P1, 0.0).fidelity is None


def test_fock_single_fidelity_survives_an_underflowing_two_atom_term():
    # at the angle of F = 1 - 1e-9, p2 R2 underflows against p1 R1 at this
    # x, where F = p1 R1 / (p1 R1 + p2 R2) rounds to 1
    f_target = 1.0 - 1e-9
    params = CavityParams.from_cooperativity(1e-154)
    r1, r2 = params._rates[:2]
    phi = math.atan(math.sqrt(2.0 * (r1 / r2) * (1.0 - f_target) / f_target))
    out = fock_single(params, phi)
    assert abs(out.fidelity - f_target) <= 4 * math.ulp(f_target)


def test_fock_single_fidelity_keeps_its_digits_where_only_two_atoms_reflect():
    # R1 = 16 x^2 rounds to 0 here while R2 = 64 x^2 does not; F was 0.
    # F = 1 / (1 + tan^2(phi) rho / 2) takes rho = R2/R1 from x; 60-digit
    # mpmath value
    params = CavityParams.from_cooperativity(3e-163)
    r1, r2 = params._rates[:2]
    assert r1 == 0.0 < r2
    out = fock_single(params, 1.2)
    assert out.status == STATUS_OK
    exact = 0.07026454916075765744804619
    assert abs(out.fidelity - exact) <= 2.3e-16 * exact


# ---------------------------------------------------------------- fock double

def test_fock_double_reference():
    out = fock_double(P1)
    assert math.isclose(out.p_success, 0.2048, rel_tol=1e-12)
    assert out.fidelity == 1.0


@given(st.floats(min_value=0.05, max_value=1.0), coops)
def test_fock_double_success_scales_with_eta_squared(eta, x):
    p = with_cooperativity(CavityParams.from_cooperativity(1.0, eta=eta), x)
    out = fock_double(p)
    ideal = fock_double(with_cooperativity(P1, x))
    assert math.isclose(out.p_success, eta * eta * ideal.p_success,
                        rel_tol=1e-12)
    assert out.fidelity == 1.0


def test_fock_double_undefined_without_reflection():
    # R1 = 0 at x = 0: nothing reflects, so no click heralds anything
    empty = with_cooperativity(P1, 0.0)
    out = fock_double(empty)
    assert out.status == STATUS_UNDEFINED
    assert out.fidelity is None
    assert out.p_success == 0.0
    # a spurious reflection still clicks, on every sector alike
    noisy = CavityParams.from_cooperativity(0.0, f=0.1)
    assert fock_double(noisy).status == STATUS_OK
    assert fock_double(noisy).fidelity == false_reflection_fidelity(noisy,
                                                                    0.1)


def test_false_reflection_reference_values():
    assert math.isclose(false_reflection_fidelity(P1, 0.01),
                        0.981233328984449, rel_tol=1e-12)
    assert math.isclose(false_reflection_fidelity(P1, 0.1),
                        0.8492602602139597, rel_tol=1e-12)
    assert false_reflection_fidelity(P1, 0.0) == 1.0


@given(st.floats(min_value=1e-6, max_value=0.5), coops)
def test_false_reflection_degrades_fidelity(f, x):
    p = with_cooperativity(P1, x)
    assert false_reflection_fidelity(p, f) < 1.0
    assert false_reflection_fidelity(p, f) > 0.0


@pytest.mark.parametrize("f", [-0.1, 1.0, math.nan])
def test_false_reflection_fidelity_rejects_f_outside_unit_interval(f):
    with pytest.raises(ValueError, match=r"\[0, 1\)"):
        false_reflection_fidelity(P1, f)


def test_fock_double_reports_false_reflection_fidelity():
    p = CavityParams.from_cooperativity(1.0, f=0.01)
    out = fock_double(p)
    assert out.fidelity == false_reflection_fidelity(p, 0.01)
    # P_s counts the pairs that the spurious reflection heralds, which F
    # counts too: (c1^2 + f c2) / 2 from 50-digit mpmath, where it was
    # R1^2 / 2 = 0.2048 when it left them out
    assert math.isclose(out.p_success, 0.21107159111111111124,
                        rel_tol=1e-15)


def _fock_double_by_sectors(params):
    # (P_s, F) of the two rounds, sector by sector: at phi = pi/4 the
    # sectors N = 0, 1 and 2 have weights 1/4, 1/2 and 1/4, the swap maps N
    # to 2 - N, and a round clicks with probability eta c_N; only N = 1
    # heralds the entangled state
    x, eta, f = core.effective_cooperativity_ring(params), params.eta, params.f
    c = [reflection_probability(x, n) * (1.0 - f) + f for n in range(3)]
    both = [w * (eta * c[n]) * (eta * c[2 - n])
            for n, w in enumerate((0.25, 0.5, 0.25))]
    return sum(both), both[1] / sum(both)


@pytest.mark.parametrize("f", [0.0, 1e-9, 0.01, 0.05, 0.5, 0.99])
@pytest.mark.parametrize("eta", [0.3, 0.9, 1.0])
def test_fock_double_counts_every_sector_that_clicks_twice(eta, f):
    xs = [0.0, 1e-3, 0.05, 0.7, 1.0, 3.0, 1e3, 1e8]
    rng = random.Random(5)
    xs += [10.0 ** rng.uniform(-4.0, 4.0) for _ in range(20)]
    for x in xs:
        if x == 0.0 and f == 0.0:  # nothing clicks
            continue
        params = CavityParams.from_cooperativity(x, eta=eta, f=f)
        out = fock_double(params)
        want_p, want_f = _fock_double_by_sectors(params)
        assert abs(out.p_success - want_p) <= 6 * math.ulp(want_p), x
        assert abs(out.fidelity - want_f) <= 6 * math.ulp(want_f), x


# ------------------------------------------------------------ coherent single

def test_coherent_single_reference_values():
    out = coherent_single(P1, math.pi / 4, 1.0)
    assert math.isclose(out.p_success, 0.37290659584866837, rel_tol=1e-12)
    assert math.isclose(out.fidelity, 0.5927170023824125, rel_tol=1e-12)


def test_conditional_population_interpolates_fock_limit():
    # before any photon is spent the click statistics match the Fock case
    p1c0 = coherent_conditional_population(P1, math.pi / 4, 0.0)
    assert math.isclose(p1c0, fock_single(P1, math.pi / 4).fidelity,
                        rel_tol=1e-13)
    assert math.isclose(coherent_conditional_population(P1, math.pi / 4, 1.0),
                        0.6530673526302954, rel_tol=1e-12)
    assert math.isclose(coherent_conditional_fidelity(P1, math.pi / 4, 1.0),
                        0.5636457909435244, rel_tol=1e-12)


@given(angles, budgets)
def test_conditional_population_grows_with_spent_light(phi, n):
    # the two-atom branch reflects more strongly, so it clicks early; surviving
    # unclicked trials are increasingly single-atom
    a = coherent_conditional_population(P1, phi, n)
    b = coherent_conditional_population(P1, phi, n * 1.5)
    assert a is not None and b is not None
    assert b >= a - 1e-12


@given(angles, budgets)
def test_click_density_positive_and_decaying(phi, n):
    d0 = first_click_density(P1, phi, n)
    d1 = first_click_density(P1, phi, n * 1.2)
    assert d0 > 0.0
    assert d1 < d0


@pytest.mark.parametrize("helper", [coherent_conditional_population,
                                    coherent_conditional_fidelity,
                                    first_click_density])
@pytest.mark.parametrize("n", [math.nan, math.inf, -1.0])
def test_photon_number_helpers_reject_non_finite_and_negative(helper, n):
    with pytest.raises(ValueError):
        helper(P1, 0.5, n)


@pytest.mark.parametrize("n", [0.0, 1.0])
def test_conditional_helpers_undefined_without_clicks(n):
    # at x = 0 no sector reflects, so there is no click to condition on
    uncoupled = with_cooperativity(P1, 0.0)
    assert coherent_conditional_population(uncoupled, math.pi / 4, n) is None
    assert coherent_conditional_fidelity(uncoupled, math.pi / 4, n) is None


@given(angles, budgets)
def test_coherent_single_success_monotone_in_budget(phi, n):
    small = coherent_single(P1, phi, n)
    large = coherent_single(P1, phi, n * 1.3)
    assert large.p_success >= small.p_success


def test_success_never_falls_as_the_budget_rises():
    # to the last bit, as the benchmark's point-scan check asks, on
    # log-spaced budget scans. The first set and the budget grid 1e-2..1e2
    # are where taking e^{-a n} of `coherent_single` from math.exp(-a n),
    # instead of as 1 minus the click probability, made P_s fall by one ulp
    # between n_max = 89.49674265472468 and 92.86915327781848
    rng = random.Random(11)
    sets = [(1.2916107868734101, 0.5741460199173644, 1.2249436589680924)]
    sets += [(10.0 ** rng.uniform(-4.0, 3.0), rng.uniform(0.01, 1.0),
              rng.uniform(0.0, math.pi / 2)) for _ in range(100)]
    grids = [[10.0 ** y for y in core._linspace(lo, lo + 4.0, 250)]
             for lo in (-2.0, -4.0, 0.0)]
    assert grids[0][246:248] == [89.49674265472468, 92.86915327781848]
    for k, (x, eta, phi) in enumerate(sets):
        params = CavityParams.from_cooperativity(x, eta=eta)
        budgets = grids[k % 3]
        for curve in ([coherent_single(params, phi, n) for n in budgets],
                      [coherent_double(params, n) for n in budgets]):
            p_s = [out.p_success for out in curve]
            assert all(a <= b for a, b in zip(p_s, p_s[1:])), (x, eta, phi)


@given(angles)
def test_coherent_single_exhausts_all_clicks(phi):
    """With an unbounded photon budget every occupied trial clicks."""
    prep = initial_populations(phi)
    out = coherent_single(P1, phi, 500.0)
    assert math.isclose(out.p_success, prep.p1 + prep.p2, rel_tol=1e-9)


@given(angles, budgets)
def test_coherent_single_diagnostics_decomposition(phi, n):
    out = coherent_single(P1, phi, n)
    assert out.status == STATUS_OK
    assert abs(out.fidelity
               - (out.p1_conditional / 2 + out.re_coherence)) < 1e-12


def test_coherent_single_undefined_without_atoms():
    out = coherent_single(with_cooperativity(P1, 0.0), 0.5, 1.0)
    assert out.status == STATUS_UNDEFINED


# ------------------------------------------------------------ coherent double

def test_coherent_double_reference_values():
    out = coherent_double(P1, 2.0)
    assert math.isclose(out.p_success, 0.1830374774833587, rel_tol=1e-12)
    assert math.isclose(out.fidelity, 0.8471709597659821, rel_tol=1e-12)


def test_coherent_double_infinite_budget_limit():
    # F(infinity) = 1/2 + a^2 / (2 (a + lambda)^2) = 13/18 at x = 1, eta = 1
    out = coherent_double(P1, 1e5)
    assert math.isclose(out.fidelity, 13 / 18, rel_tol=1e-12)
    assert math.isclose(out.p_success, 0.5, rel_tol=1e-12)


def test_coherent_double_short_budget_limit():
    # nm -> 0: both clicks arrive immediately, no time to decohere
    out = coherent_double(P1, 1e-10)
    assert out.status == STATUS_OK
    assert abs(out.fidelity - 1.0) < 1e-9
    a = 0.64  # eta * R_1 at x = 1
    assert math.isclose(out.p_success, (a * 1e-10) ** 2 / 4, rel_tol=1e-6)


@given(st.floats(min_value=1e-6, max_value=100.0), coops)
def test_coherent_double_bounds(n_max, x):
    out = coherent_double(with_cooperativity(P1, x), n_max)
    assert 0.0 < out.p_success <= 0.5
    assert 0.5 < out.fidelity <= 1.0 + 1e-12


# (x, eta, n_max, P_s, 1 - F) from 50-digit mpmath evaluations of the
# closed form at the cooperativity the params hold; a^2 E2((a + lambda) n)
# underflows at both points
_TINY_X_DOUBLE = [
    (1e-60, 1.0, 1.0, 6.3999999999999957057e-239, 2.6447814930909852e-60),
    (3.5788666070859776e-51, 0.21405582565909886, 1e-9,
     4.8107869456233320400e-220, 9.3345229167917126e-60),
]


@pytest.mark.parametrize("x, eta, n_max, ps, one_minus_f", _TINY_X_DOUBLE,
                         ids=["x1e-60", "x3.6e-51"])
def test_coherent_double_at_tiny_cooperativity(x, eta, n_max, ps,
                                               one_minus_f):
    # the coherence integral used to underflow to F = 0.5, or leave only a
    # few digits, F = 1.000001264209168 at the second point
    p = CavityParams.from_cooperativity(x, eta=eta)
    out = coherent_double(p, n_max)
    assert out.status == STATUS_OK
    assert math.isclose(out.p_success, ps, rel_tol=1e-14)
    assert abs(out.fidelity - (1.0 - one_minus_f)) < 1e-12
    assert abs(coherent_double_fidelity_uncorrected(p, n_max)
               - (1.5 - 2.0 * one_minus_f)) < 1e-12


@settings(max_examples=500)
@given(st.floats(min_value=-150.0, max_value=2.0),
       st.floats(min_value=0.01, max_value=1.0),
       st.floats(min_value=-9.0, max_value=3.0))
def test_coherent_double_fidelity_stays_in_its_range(log_x, eta, log_n):
    out = coherent_double(CavityParams.from_cooperativity(10.0 ** log_x,
                                                          eta=eta),
                          10.0 ** log_n)
    if out.status == STATUS_OK:
        assert 0.5 <= out.fidelity <= 1.0


def test_erlang2_scaled_is_the_cdf_over_z_squared():
    assert _erlang2_scaled(0.0) == 0.5
    assert _erlang2_scaled(1e-200) == 0.5  # where E2 itself underflows
    for z in (1e-3, 0.3, 0.5, 2.0, 40.0):
        assert math.isclose(_erlang2_scaled(z) * z * z, _erlang2_cdf(z),
                            rel_tol=1e-15)


def test_erlang2_series_matches_the_horner_loop_bit_for_bit():
    # the series written out against the loop it replaced, which summed
    # the same coefficients from k = 17 down to 2
    coefs = [(-1) ** k * (k - 1) / math.factorial(k) for k in range(17, 1, -1)]

    def loop(z):
        total = 0.0
        for coef in coefs:
            total = total * z + coef
        return total

    zs = [0.0, 5e-324, 1e-310, sys.float_info.min, 1e-200, 1e-16,
          math.nextafter(0.5, 0.0)]
    zs += [k / 2 ** 17 for k in range(2 ** 16)]
    zs += [0.5 * random.Random(19).random() for _ in range(20000)]
    for z in zs:
        assert _erlang2_scaled(z) == loop(z), z
    # the higher coefficients barely move a sum below z = 1/2, so each is
    # also found among the function's constants, the float it is written as
    assert set(coefs) <= set(_erlang2_scaled.__code__.co_consts)


@given(st.floats(min_value=1e-3, max_value=50.0))
def test_coherent_double_tradeoff_in_budget(n_max):
    small = coherent_double(P1, n_max)
    large = coherent_double(P1, n_max * 1.4)
    assert large.p_success > small.p_success
    assert large.fidelity <= small.fidelity + 1e-12


@given(st.floats(min_value=1e-3, max_value=50.0), coops)
def test_uncorrected_form_overestimates(n_max, x):
    p = with_cooperativity(P1, x)
    corrected = coherent_double(p, n_max).fidelity
    uncorrected = coherent_double_fidelity_uncorrected(p, n_max)
    assert uncorrected >= corrected - 1e-12


def test_uncorrected_form_undefined_without_clicks():
    assert coherent_double(with_cooperativity(P1, 0.0), 2.0).fidelity is None
    assert coherent_double_fidelity_uncorrected(
        with_cooperativity(P1, 0.0), 2.0) is None


@pytest.mark.parametrize("n_max", [0.0, -1.0, math.nan, math.inf])
def test_uncorrected_form_rejects_bad_budget(n_max):
    with pytest.raises(ValueError, match="n_max"):
        coherent_double_fidelity_uncorrected(P1, n_max)


def test_uncorrected_form_escapes_unit_interval():
    # the overcounted coherence term is unphysical at the working point;
    # kept callable because the comparison is part of the public record
    val = coherent_double_fidelity_uncorrected(P1, 2.0)
    assert math.isclose(val, 1.1943419195319642, rel_tol=1e-12)
    assert val > 1.0


# ----------------------------------------------------------- series internals

def test_erlang2_cdf_small_argument():
    # alternating series; leading term z^2/2 with a negative correction
    z = 1e-12
    val = _erlang2_cdf(z)
    assert 0.0 < val < z * z / 2
    assert math.isclose(val, z * z / 2, rel_tol=1e-10)


def test_erlang2_cdf_branch_continuity():
    # the direct formula loses ~6 digits to cancellation near z = 1e-3, so
    # agreement with it caps out around 1e-9 relative
    for z in (9.999e-4, 1.0001e-3):
        direct = 1.0 - math.exp(-z) * (1.0 + z)
        assert math.isclose(_erlang2_cdf(z), direct, rel_tol=1e-9)


def test_erlang2_cdf_moderate_argument():
    assert math.isclose(_erlang2_cdf(2.0), 1.0 - math.exp(-2.0) * 3.0,
                        rel_tol=1e-14)


@pytest.mark.parametrize("z, exact", [
    (1e-3, 4.996667916333402973833506112515627029695e-7),
    (2.5e-3, 3.119796546225653157775506543032840634755e-6),
    (0.01, 4.966791334026589241591827495301681425544e-5),
    (0.1, 4.678840160444470021611702131869833215616e-3),
    (0.3, 3.693631311376677164564374989878757801129e-2),
    (0.4999, 9.017368541454252452748893571940021926085e-2),
    (0.5, 9.020401043104986459430069751322931983712e-2),
])
def test_erlang2_cdf_matches_40_digit_values(z, exact):
    # 1 - (1 + z) e^{-z} in 40-digit arithmetic (mpmath), on both sides of
    # the switch from the series to the direct form at z = 1/2
    assert math.isclose(_erlang2_cdf(z), exact, rel_tol=1e-15)


# ------------------------------------------------------- unmodelled parameters

# R1 from the amplitudes is 0.8464 for these mirrors and 0.390 at this
# detuning, where the closed forms would use 0.64
_UNMODELLED = [CavityParams(g=1.0, kappa_a=0.2, kappa_b=0.8),
               CavityParams.from_cooperativity(1.0, delta=2.0)]
# a spurious reflection, which only the fock-double forms model
_SPURIOUS = CavityParams.from_cooperativity(1.0, f=0.2)

_READERS = {
    "fock_single": lambda p: fock_single(p, 0.5),
    "fock_double": fock_double,
    "false_reflection_fidelity": lambda p: false_reflection_fidelity(p, 0.05),
    "conditional_population":
        lambda p: coherent_conditional_population(p, 0.5, 1.0),
    "conditional_fidelity":
        lambda p: coherent_conditional_fidelity(p, 0.5, 1.0),
    "first_click_density": lambda p: first_click_density(p, 0.5, 1.0),
    "coherent_single": lambda p: coherent_single(p, 0.5, 1.0),
    "coherent_double": lambda p: coherent_double(p, 1.0),
    "uncorrected": lambda p: coherent_double_fidelity_uncorrected(p, 1.0),
}


@pytest.mark.parametrize("params, match", [
    *((p, "symmetric mirrors on resonance") for p in _UNMODELLED),
    (_SPURIOUS, r"fraction f > 0, got f = 0\.2"),
], ids=["asymmetric", "detuned", "spurious"])
@pytest.mark.parametrize("name", _READERS)
def test_schemes_reject_asymmetric_or_detuned_cavities(params, match, name):
    if params is _SPURIOUS and name in ("fock_double",
                                       "false_reflection_fidelity"):
        _READERS[name](params)  # these model f
        return
    for _ in range(2):  # a rejected set keeps no rates
        with pytest.raises(ValueError, match=match):
            _READERS[name](params)



# ------------------------------------------ result objects and cached rates

_SCHEMES = {
    "fock_single": lambda p: fock_single(p, 0.7),
    "fock_double": fock_double,
    "coherent_single": lambda p: coherent_single(p, 0.7, 2.0),
    "coherent_double": lambda p: coherent_double(p, 2.0),
}
_SETS = {
    "ok": CavityParams.from_cooperativity(0.4, eta=0.8, f=0.05),
    "ring": CavityParams.from_cooperativity(1.0, g_tilde=0.5, kappa_tilde=2.0),
    "undefined": CavityParams.from_cooperativity(0.0),
}


@pytest.mark.parametrize("params", _SETS.values(), ids=_SETS)
@pytest.mark.parametrize("evaluate", _SCHEMES.values(), ids=_SCHEMES)
def test_outcomes_match_the_public_constructor(evaluate, params):
    if evaluate is not fock_double:  # the only scheme that models f
        params = params.replace(f=0.0)
    out = evaluate(params)
    rebuilt = SchemeOutcome(**state(out))
    assert type(out) is SchemeOutcome
    assert list(state(out)) == list(fields(out))
    assert state(out) == state(rebuilt)
    assert out == rebuilt
    assert hash(out) == hash(rebuilt)
    assert repr(out) == repr(rebuilt)


@pytest.mark.parametrize("evaluate", _SCHEMES.values(), ids=_SCHEMES)
def test_outcomes_stay_frozen_and_replaceable(evaluate):
    out = evaluate(P1)
    with pytest.raises(FrozenRecordError):
        out.fidelity = 0.5
    changed = out.replace(fidelity=0.5)
    assert changed.fidelity == 0.5
    assert changed.p_success == out.p_success
    assert out.fidelity != 0.5


def test_every_scheme_is_undefined_without_a_detector():
    # at eta = 0 no click can occur
    blind = CavityParams.from_cooperativity(1.0, eta=0.0)
    for evaluate in _SCHEMES.values():
        out = evaluate(blind)
        assert out.status == STATUS_UNDEFINED
        assert out.fidelity is None
        assert out.p_success == 0.0


@pytest.mark.parametrize("params", _UNMODELLED, ids=["asymmetric", "detuned"])
def test_rates_reject_unmodelled_sets_on_every_call(params):
    for _ in range(2):
        with pytest.raises(ValueError, match="symmetric mirrors on resonance"):
            params._rates
    # a getter that raises keeps nothing on the instance
    assert "_rates" not in state(params)
    assert "_resonance" not in state(params)


def _closed_form_rates(x):
    return (reflection_probability(x, 1), reflection_probability(x, 2),
            scattering_loss(x, 1))


def test_copies_of_params_get_fresh_rates():
    params = CavityParams.from_cooperativity(1.0, eta=0.7)
    assert params._rates[:3] == _closed_form_rates(1.0)
    assert with_cooperativity(params, 0.25)._rates[:3] == _closed_form_rates(
        0.25)
    # a matched ring mode: x_eff = x / (1 + 4 x) = 0.2
    ring = params.replace(g_tilde=1.0, kappa_tilde=1.0)
    assert ring._rates[:3] == _closed_form_rates(0.2)
    with pytest.raises(ValueError, match="symmetric mirrors on resonance"):
        params.replace(delta=1.0)._rates
    assert params._rates[:3] == _closed_form_rates(1.0)
    assert fock_single(params, 0.7) == fock_single(
        CavityParams.from_cooperativity(1.0, eta=0.7), 0.7)


def test_rates_are_the_resonant_terms_where_f_is_zero():
    params = CavityParams.from_cooperativity(0.3, eta=0.9)
    assert params._rates is params._resonance
    assert len(params._resonance) == 7
    spurious = params.replace(f=0.2)
    assert spurious._resonance == params._resonance
    with pytest.raises(ValueError, match="only fock-double models"):
        spurious._rates


def test_resonant_terms_are_derived_once_per_set(monkeypatch):
    # every closed form and optimizer reads one cached tuple, so the
    # effective cooperativity is worked out once per parameter set
    calls = []
    inner = core.effective_cooperativity_ring

    def counted(params):
        calls.append(params)
        return inner(params)

    monkeypatch.setattr(core, "effective_cooperativity_ring", counted)
    params = CavityParams.from_cooperativity(0.8, eta=0.7, g_tilde=0.4,
                                             kappa_tilde=1.5)
    for read in _READERS.values():
        read(params)
    for scheme in Scheme:
        scheme.optimizer(params, 0.9)
    assert calls == [params]


@pytest.mark.parametrize("name", _READERS)
def test_asymmetric_set_with_f_keeps_its_message(name):
    # the readers that model f check the mirrors alone; every other reader
    # rejects the f first
    params = CavityParams(g=1.0, kappa_a=0.2, kappa_b=0.8, f=0.2)
    match = ("symmetric mirrors on resonance"
             if name in ("fock_double", "false_reflection_fidelity")
             else "only fock-double models")
    with pytest.raises(ValueError, match=match):
        _READERS[name](params)


def test_reading_rates_leaves_params_equality_hash_and_repr():
    params = CavityParams.from_cooperativity(0.3, eta=0.9)
    twin = CavityParams.from_cooperativity(0.3, eta=0.9)
    before = repr(params), hash(params)
    params._rates
    assert (repr(params), hash(params)) == before
    assert params == twin
    assert hash(params) == hash(twin)
    assert {twin: "found"}[params] == "found"
    assert asdict(params) == asdict(twin)
    assert params != with_cooperativity(params, 0.4)
