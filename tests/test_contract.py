"""One contract walk over the public surface.

Every scheme, photon-number helper and optimizer, `false_reflection_fidelity`,
`coherent_double_fidelity_uncorrected`, the three resonant closed forms and
`scattering_amplitudes` run over a product of edge values; the quadrature
and Monte Carlo oracles over a smaller one. Each call must raise ValueError
or return a result with no NaN, and a record result must be of its public
class. An "ok" outcome has P_s and F in [0, 1] and an "undefined" one has
no F; an "ok" optimizer row has 0 <= P_s <= 1 and sits on its floor, and
an infeasible row holds no answer. After the walk, every budget, angle
and atom count that a public call rejects is pinned, with its message.
The defects the walk found are pinned by name after that, against
50-digit mpmath values.
"""

import itertools
import math

import numpy as np
import pytest

from cavityherald.core import (
    X_MAX,
    CavityParams,
    Record,
    SpectrumPoint,
    reflection_probability,
    scattering_amplitudes,
    scattering_loss,
    transmission_probability,
)
from cavityherald.optimize import (
    STATUS_INFEASIBLE,
    OptimizationResult,
    Scheme,
)
from cavityherald.oracle import (
    MIN_SAMPLES,
    build_system,
    monte_carlo_double,
    quadrature_single,
)
from cavityherald.protocol import (
    STATUS_OK,
    STATUS_UNDEFINED,
    SchemeOutcome,
    coherent_conditional_fidelity,
    coherent_conditional_population,
    coherent_double,
    coherent_double_fidelity_uncorrected,
    coherent_single,
    false_reflection_fidelity,
    first_click_density,
    fock_single,
    initial_populations,
)
from conftest import run_cli, state

_TINY = 5e-324
_XS = (0.0, _TINY, 1e-300, 3e-163, 1e-100, 1e-81, 1e-12, 0.3, 1.0, 1e12,
       1e50, X_MAX)
_ETAS = (0.0, _TINY, 1e-300, 1e-12, 0.5, 1.0)
_FS = (0.0, _TINY, 1e-200, 1e-170, 0.05, math.nextafter(1.0, 0.0))
_PHIS = (0.0, _TINY, 1e-160, 1e-8, 0.3, math.pi / 4, 1.2, math.pi / 2)
_N_MAXES = (_TINY, 1e-9, 0.5, 2.0, 1e3, 1.7e308)
_NS = (0.0, *_N_MAXES)  # the helpers' photon numbers start at 0
_F_TARGETS = (math.nextafter(0.5, 1.0), 0.6, 0.9, 0.999, 1.0 - 1e-9,
              math.nextafter(1.0, 0.0))


def _params(x, eta, f, ring):
    # a ring set puts a counter-propagating mode as strong as the forward one
    ring = {"g_tilde": math.sqrt(x), "kappa_tilde": 1.0} if ring else {}
    return CavityParams.from_cooperativity(x, eta=eta, f=f, **ring)


# every (x, eta, f, ring) set, then the two the schemes do not model
_SETS = [_params(*p) for p in itertools.product(_XS, _ETAS, _FS,
                                                (False, True))]
_SETS += [CavityParams(g=1.0, kappa_a=0.3, kappa_b=0.7),
          CavityParams(g=1.0, kappa_a=0.5, kappa_b=0.5, delta=1.0)]


def _floats(result):
    # every float a result holds
    if result is None or isinstance(result, (bool, int, str)):
        return []
    if isinstance(result, float):
        return [result]
    if isinstance(result, complex):
        return [result.real, result.imag]
    return [v for field in state(result).values() for v in _floats(field)]


def _outcome_fault(out):
    if out.status == STATUS_OK:
        if not (0.0 <= out.p_success <= 1.0 and 0.0 <= out.fidelity <= 1.0):
            return "ok outcome out of [0, 1]"
    elif out.status != STATUS_UNDEFINED or out.fidelity is not None:
        return "undefined outcome with an F"
    return None


def _row_fault(row):
    if row.status == STATUS_OK:
        if not (0.0 <= row.p_success <= 1.0
                and row.fidelity_achieved >= row.f_target - 1e-9):
            return "ok row off its floor"
    elif not (row.status == STATUS_INFEASIBLE and row.p_success == 0.0
              and row.fidelity_achieved is row.phi_opt is row.n_max_opt
              is None):
        return "infeasible row with an answer"
    return None


def _in_unit(value):
    return None if value is None or 0.0 <= value <= 1.0 else "outside [0, 1]"


# the record classes a public function returns; `_make` builds a private
# twin of each, which must never reach a caller
_RESULT_TYPES = (SchemeOutcome, OptimizationResult, SpectrumPoint)


def _walk(calls):
    """Run fn(*args) for every (fn, args, check); return the faults: any
    exception but ValueError, any NaN, a record of a class that is not
    public, and whatever check(result) says."""
    faults = []
    for fn, args, check in calls:
        try:
            result = fn(*args)
        except ValueError:
            continue
        except Exception as exc:  # any other error is a fault to report
            faults.append((fn.__name__, args, repr(exc)))
            continue
        if any(math.isnan(v) for v in _floats(result)):
            faults.append((fn.__name__, args, "NaN"))
        elif isinstance(result, Record) and type(result) not in _RESULT_TYPES:
            faults.append((fn.__name__, args, f"a {type(result)!r}"))
        elif check is not None and (fault := check(result)):
            faults.append((fn.__name__, args, fault))
    return faults


def _scheme_calls():
    for params in _SETS:
        for scheme in Scheme:
            axes = {"phi": _PHIS, "n_max": _N_MAXES}
            for args in itertools.product(*(axes[n] for n in scheme.needs)):
                yield scheme.evaluate, (params, *args), _outcome_fault
            for f_target in _F_TARGETS:
                yield scheme.optimizer, (params, f_target), _row_fault
        for f in _FS:
            yield false_reflection_fidelity, (params, f), _in_unit
        for n_max in _N_MAXES:
            yield coherent_double_fidelity_uncorrected, (params, n_max), None
        for phi, n in itertools.product(_PHIS, _NS):
            yield coherent_conditional_population, (params, phi, n), _in_unit
            yield coherent_conditional_fidelity, (params, phi, n), _in_unit
            yield first_click_density, (params, phi, n), None


def test_schemes_helpers_and_optimizers_keep_their_contract():
    faults = _walk(_scheme_calls())
    assert not faults, f"{len(faults)} faults, first: {faults[:5]}"


def _closed_form_calls():
    bad_x = (-1.0, math.nan, math.inf, 2.0 * X_MAX)
    for fn in (reflection_probability, transmission_probability,
               scattering_loss):
        for x, n in itertools.product(_XS + bad_x,
                                      (0, 1, 2, 3, 10 ** 400, -1, 1.5)):
            yield fn, (x, n), _in_unit
    gs = (0.0, 1e-150, 1.0, 1e150, 1e200)
    mirrors = ((0.5, 0.5), (0.3, 0.7), (_TINY, 1.0), (1e300, 1e300))
    for g, (ka, kb), delta in itertools.product(gs, mirrors,
                                                (0.0, 1.0, -1e300)):
        params = CavityParams(g=g, kappa_a=ka, kappa_b=kb, delta=delta)
        for omega, n in itertools.product((0.0, 1.0, -1e300, 1e300, math.nan),
                                          (0, 1, 2, 10 ** 400)):
            yield scattering_amplitudes, (params, omega, n), None


def test_resonant_closed_forms_and_amplitudes_keep_their_contract():
    faults = _walk(_closed_form_calls())
    assert not faults, f"{len(faults)} faults, first: {faults[:5]}"


def _oracle_calls():
    for x, eta in itertools.product((0.0, 1e-12, 1.0, 1e50),
                                    (0.0, 1e-300, 1.0)):
        params = CavityParams.from_cooperativity(x, eta=eta)
        for n_max in (_TINY, 2.0, 1e300):
            yield monte_carlo_double, (params, n_max, 10_000, 7), \
                _outcome_fault
            for phi in (0.0, 0.3, math.pi / 2):
                yield quadrature_single, (params, phi, n_max), _outcome_fault


def test_oracles_keep_their_contract():
    faults = _walk(_oracle_calls())
    assert not faults, f"{len(faults)} faults, first: {faults[:5]}"


# ------------------------------------------- what each input check takes

# The walk only asks for "ValueError or a result", so a check that took
# more than it should would still pass it. Here every public call that
# takes a budget, an angle or an atom count rejects exactly these values,
# each with its message, and takes the rest
_P = CavityParams.from_cooperativity(1.0, eta=0.8)
_N_MAX_CALLS = {
    "coherent_single": lambda n: coherent_single(_P, 0.6, n),
    "coherent_double": lambda n: coherent_double(_P, n),
    "coherent_double_fidelity_uncorrected":
        lambda n: coherent_double_fidelity_uncorrected(_P, n),
    "quadrature_single": lambda n: quadrature_single(_P, 0.6, n),
    "monte_carlo_double": lambda n: monte_carlo_double(_P, n, MIN_SAMPLES, 7),
}
_PHI_CALLS = {
    "initial_populations": initial_populations,
    "fock_single": lambda phi: fock_single(_P, phi),
    "coherent_conditional_population":
        lambda phi: coherent_conditional_population(_P, phi, 1.0),
    "coherent_conditional_fidelity":
        lambda phi: coherent_conditional_fidelity(_P, phi, 1.0),
    "first_click_density": lambda phi: first_click_density(_P, phi, 1.0),
    "coherent_single": lambda phi: coherent_single(_P, phi, 2.0),
    "quadrature_single": lambda phi: quadrature_single(_P, phi, 2.0),
}
_ATOM_CALLS = {
    "reflection_probability": lambda n: reflection_probability(1.0, n),
    "transmission_probability": lambda n: transmission_probability(1.0, n),
    "scattering_loss": lambda n: scattering_loss(1.0, n),
    "scattering_amplitudes": lambda n: scattering_amplitudes(_P, 0.3, n),
}
_N_MAX_MESSAGE = "n_max must be positive and finite, got {}"
_PHI_MESSAGE = "phi must lie in [0, pi/2], got {}"
_ATOM_MESSAGE = "atom count must be a nonnegative integer, got {}"
# (value, rejected?)
_N_MAX_VALUES = [(math.nan, True), (math.inf, True), (-math.inf, True),
                 (0.0, True), (-0.0, True), (-1, True), (_TINY, False),
                 (1e308, False)]
_PHI_VALUES = [(math.nan, True), (-_TINY, True),
               (math.nextafter(math.pi / 2, math.inf), True), (-0.0, False),
               (math.pi / 2, False)]
_ATOM_VALUES = [(1.5, True), (-1, True), (10 ** 400, True), (True, False),
                (2 ** 53, False), (2 ** 53 + 1, False),
                (np.int64(2), False)]
_CHECKED = [(f"{kind}-{name}-{value!r:.24}", call, value,
             message.format(value) if rejected else None)
            for kind, calls, values, message in (
                ("n_max", _N_MAX_CALLS, _N_MAX_VALUES, _N_MAX_MESSAGE),
                ("phi", _PHI_CALLS, _PHI_VALUES, _PHI_MESSAGE),
                ("atoms", _ATOM_CALLS, _ATOM_VALUES, _ATOM_MESSAGE))
            for name, call in calls.items() for value, rejected in values]


@pytest.mark.parametrize("call, value, message",
                         [case[1:] for case in _CHECKED],
                         ids=[case[0] for case in _CHECKED])
def test_input_checks_reject_exactly_their_values(call, value, message):
    if message is None:  # a result, or None where no click can occur
        call(value)
        return
    with pytest.raises(ValueError) as info:
        call(value)
    assert str(info.value) == message


@pytest.mark.parametrize("value, rejected", [
    (1.5, True), (-1, True), (3, True), (10 ** 400, True), (2 ** 53, True),
    (True, False), (1.0, False), (np.int64(2), False)])
def test_build_system_takes_only_an_atom_count_of_0_1_or_2(value, rejected):
    # the oracle's own check, narrower than the closed forms'
    if rejected:
        with pytest.raises(ValueError) as info:
            build_system(_P, value, n_c=2)
        assert str(info.value) == "n_in_state_1 must be 0, 1, or 2"
    else:
        assert build_system(_P, value, n_c=2).n_in_state_1 == value


# ------------------------------------------------ defects the walk found

# (x, f, F): 50-digit mpmath at the set's exact cooperativity. Before the
# scale-free form the first two raised ZeroDivisionError and the third
# returned 1.0; the fourth takes the unchanged direct form
@pytest.mark.parametrize("x, f, exact", [
    (1e-100, 1e-200, 0.81638418079096045977),
    (0.0, _TINY, 0.5),
    (1e-81, 1e-170, 0.99999999750000000898),
    (0.7, 0.05, 0.89715513973453032491),
])
def test_false_reflection_fidelity_survives_underflowing_terms(x, f, exact):
    fid = false_reflection_fidelity(CavityParams.from_cooperativity(x), f)
    assert abs(fid - exact) <= 2.3e-16 * exact


@pytest.mark.parametrize("x", [1e-162, 1e-155, 1e-100, 1.0, X_MAX])
def test_false_reflection_fidelity_is_one_at_f_zero_wherever_r1_is_positive(x):
    # fock_double takes its F at every f, so at f = 0 it must stay exactly 1
    params = CavityParams.from_cooperativity(x)
    assert params._resonance[0] > 0.0
    assert false_reflection_fidelity(params, 0.0) == 1.0


def test_false_reflection_fidelity_rejects_a_set_where_nothing_clicks():
    with pytest.raises(ValueError, match="no click"):
        false_reflection_fidelity(CavityParams.from_cooperativity(0.0), 0.0)


# (x, eta, phi, n_max, F): 50-digit mpmath; F was 1 + 2.5e-8, 1 + 6.2e-9
# and 1 + 2.2e-16 where p1 (1 - e^{-a n_max}) is subnormal
@pytest.mark.parametrize("x, eta, phi, n_max, exact", [
    (1e50, 1e-300, 1e-8, 0.5, 0.99999999999999995),
    (1e12, 1e-300, 1e-8, 2.0, 0.99999999999974995),
    (1e20, 1e-290, 1e-9, 0.5, 0.99999999999999999950),
])
def test_coherent_single_fidelity_where_p1_a_is_subnormal(x, eta, phi, n_max,
                                                          exact):
    params = CavityParams.from_cooperativity(x, eta=eta)
    out = coherent_single(params, phi, n_max)
    assert out.fidelity <= 1.0
    assert abs(out.fidelity - exact) <= 2.3e-16 * exact
    assert out.fidelity == out.p1_conditional / 2.0 + out.re_coherence


def test_coherent_single_fidelity_where_a_n_max_is_subnormal():
    # A = 1 - e^{-a n_max} is itself subnormal here, so B/A and C/A, taken
    # as ratios of subnormals, kept five digits (F was 0.25848958143042305);
    # 60-digit mpmath
    params = CavityParams.from_cooperativity(2.324465917087005e-06,
                                             eta=1.386990483678689e-57)
    out = coherent_single(params, 0.875088662332071, 2.0616303866225e-252)
    exact = 0.25849027245891912
    assert abs(out.fidelity - exact) <= 1e-15 * exact
    assert out.fidelity == out.p1_conditional / 2.0 + out.re_coherence


def test_monte_carlo_double_where_every_wait_overflows():
    # -log(u) / rate overflows at rate ~ 1e-300: nothing clicks, no warning
    params = CavityParams.from_cooperativity(1e-12, eta=1e-300)
    out = monte_carlo_double(params, 2.0, 10_000, 7)
    assert out.status == STATUS_UNDEFINED and out.n_success == 0


def _cli(*args):
    # an exception would propagate out of run_cli, so none was raised
    res = run_cli("protocol", *args)
    assert res.exit_code == 0
    assert "Traceback" not in res.output
    return dict(zip(*(line.split(",") for line in res.output.splitlines())))


def test_cli_fock_double_at_x_zero_and_the_smallest_f():
    row = _cli("--scheme", "fock-double", "--x", "0", "--f-spurious", "5e-324")
    assert row["status"] == "ok" and float(row["fidelity"]) == 0.5


def test_cli_coherent_single_keeps_f_at_most_one_where_p1_a_is_subnormal():
    row = _cli("--scheme", "coherent-single", "--x", "1e50", "--eta",
               "1e-300", "--phi", "1e-8", "--n-max", "0.5")
    assert row["status"] == "ok" and float(row["fidelity"]) <= 1.0
