"""Constrained optimizers: maximize success probability at fixed fidelity.

Spot values are regression pins; their correctness against brute-force grids
is established separately in tests/test_acceptance.py.
"""

import hashlib
import math
import pickle
import random
import struct
import sys
import timeit

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cavityherald import protocol
from cavityherald.core import (
    X_MAX,
    CavityParams,
    FrozenRecordError,
    fields,
    scattering_amplitudes,
    with_cooperativity,
)
from cavityherald.optimize import (
    _COARSE_GRID,
    _CONSTRAINT_TOL,
    _FALSI_STEPS,
    N_MAX_CEILING,
    STATUS_INFEASIBLE,
    STATUS_OK,
    OptimizationResult,
    Scheme,
    SweepSpec,
    _linspace,
    _result,
    _search,
    default_x_grid,
    optimize,
    optimize_coherent_double,
    optimize_coherent_single,
    optimize_fock_double,
    optimize_fock_single,
    sweep,
)
from cavityherald.protocol import coherent_double, coherent_single, fock_single

P1 = CavityParams.from_cooperativity(1.0)


def test_target_validation():
    for bad in (0.5, 1.0, 0.2, 1.3):
        with pytest.raises(ValueError):
            optimize_fock_single(P1, bad)


def test_fock_single_hits_constraint_exactly():
    res = optimize_fock_single(P1, 0.9)
    assert res.status == STATUS_OK
    assert math.isclose(res.phi_opt, 0.40124714191836086, rel_tol=1e-12)
    assert math.isclose(res.p_success, 0.18385521401896013, rel_tol=1e-12)
    assert abs(res.fidelity_achieved - 0.9) < 1e-10
    # result is reproducible through the scheme evaluation it came from
    again = fock_single(P1, res.phi_opt)
    assert again.p_success == res.p_success


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0.55, max_value=0.98),
       st.floats(min_value=0.05, max_value=5.0))
def test_fock_single_saturates_fidelity(f_target, x):
    res = optimize_fock_single(with_cooperativity(P1, x), f_target)
    assert res.status == STATUS_OK
    assert abs(res.fidelity_achieved - f_target) < 1e-10
    # any angle above the returned one violates the constraint
    worse = fock_single(with_cooperativity(P1, x), min(res.phi_opt * 1.05,
                                                       math.pi / 2))
    assert worse.fidelity < f_target


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=-160.0, max_value=3.0),
       st.one_of(st.floats(min_value=0.5, max_value=1.0, exclude_min=True,
                           exclude_max=True),
                 st.floats(min_value=-16.0, max_value=-1.0).map(
                     lambda e: 1.0 - 10.0 ** e)),
       st.floats(min_value=0.0, max_value=1.0), st.booleans())
@example(-154.0, 1.0 - 1e-9, 1.0, False)  # p2 R2 underflows to 0 here
@example(math.log10(3.8e-155), 1.0 - 1e-9, 0.5, False)
@example(-160.0, 0.9, 1.0, False)  # R1 is subnormal, R1/R2 is not
def test_fock_single_row_sits_on_the_floor_at_every_scale(log_x, f_target,
                                                          eta, ring):
    # the row used to be checked at run time, and F = p1 R1 / (p1 R1 +
    # p2 R2) rounded to 1 for x from 3.8e-155 to 1.2e-153 at F = 1 - 1e-9;
    # a subnormal R1 made the row infeasible. The angle now comes from
    # R1/R2 = 1/rho, a normal float at every x > 0, so every row with a
    # detector sits on the floor
    ring_mode = {"g_tilde": 0.7, "kappa_tilde": 1.3} if ring else {}
    params = CavityParams.from_cooperativity(10.0 ** log_x, eta=eta,
                                             **ring_mode)
    res = optimize_fock_single(params, f_target)
    r1, _, _ = params._rates
    if eta == 0.0:  # nothing clicks
        assert res.status == STATUS_INFEASIBLE
        return
    assert res.status == STATUS_OK
    assert abs(res.fidelity_achieved - f_target) <= 4 * math.ulp(f_target)
    assert res.p_success == fock_single(params, res.phi_opt).p_success
    want = eta * protocol.initial_populations(res.phi_opt).p1 * r1 / f_target
    if want > 1e-290:  # a normal P_s keeps its digits
        assert math.isclose(res.p_success, want, rel_tol=4e-15)


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=-160.0, max_value=3.0),
       st.floats(min_value=0.5, max_value=1.0 - 1e-12, exclude_min=True),
       st.floats(min_value=0.01, max_value=1.0), st.booleans())
@example(-154.0, 1.0 - 1e-9, 1.0, False)  # p2 R2 underflows to 0 here
def test_fock_single_row_is_the_scheme_outcome_at_its_angle(log_x, f_target,
                                                            eta, ring):
    ring_mode = {"g_tilde": 0.7, "kappa_tilde": 1.3} if ring else {}
    params = CavityParams.from_cooperativity(10.0 ** log_x, eta=eta,
                                             **ring_mode)
    res = optimize_fock_single(params, f_target)
    if res.status == STATUS_OK:
        out = fock_single(params, res.phi_opt)
        assert res.fidelity_achieved == out.fidelity
        assert res.p_success == out.p_success


def test_fock_single_sweep_survives_an_underflowing_two_atom_term():
    f_target = 1.0 - 1e-9
    rows = sweep(SweepSpec(x_grid=(1e-154, 1.0), eta=1.0, f_target=f_target,
                           scheme=Scheme.FOCK_SINGLE))
    assert [r.status for r in rows] == [STATUS_OK, STATUS_OK]
    for r in rows:
        assert abs(r.fidelity_achieved - f_target) <= 4 * math.ulp(f_target)
        assert r.p_success > 0.0


def test_fock_double_branches():
    clean = optimize_fock_double(P1, 0.9)
    assert clean.status == STATUS_OK
    assert clean.fidelity_achieved == 1.0
    assert clean.phi_opt == math.pi / 4

    noisy = CavityParams.from_cooperativity(1.0, f=0.1)  # mirror F ~ 0.849
    assert optimize_fock_double(noisy, 0.9).status == STATUS_INFEASIBLE
    ok = optimize_fock_double(noisy, 0.8)
    assert ok.status == STATUS_OK
    assert math.isclose(ok.fidelity_achieved, 0.8492602602139597,
                        rel_tol=1e-12)


def test_fock_double_infeasible_without_reflection():
    # R1 = 0 at x = 0, so nothing heralds; the row used to be "ok" with
    # F = 1 at P_s = 0
    res = optimize_fock_double(CavityParams.from_cooperativity(0.0), 0.9)
    assert res.status == STATUS_INFEASIBLE
    assert res.p_success == 0.0
    assert res.fidelity_achieved is None


def test_coherent_double_feasible_at_tiny_cooperativity():
    # F ~ 1 at every budget; an underflowing coherence integral made the
    # search read F = 0.5 and report the row infeasible. P_s at the cap is
    # 6.3999999999999957057e-233 by a 50-digit mpmath evaluation
    res = optimize_coherent_double(CavityParams.from_cooperativity(1e-60),
                                   0.9)
    assert res.status == STATUS_OK
    assert res.n_max_opt == N_MAX_CEILING
    assert math.isclose(res.p_success, 6.3999999999999957057e-233,
                        rel_tol=1e-14)
    assert abs(res.fidelity_achieved - 1.0) < 1e-12


def test_infeasible_row_shape():
    res = optimize_fock_double(CavityParams.from_cooperativity(1.0, f=0.1),
                               0.99)
    assert res.status == STATUS_INFEASIBLE
    assert res.phi_opt is None
    assert res.n_max_opt is None
    assert res.p_success == 0.0
    assert res.fidelity_achieved is None


def test_coherent_single_reference_point():
    # the 40-digit optimum at the float target 0.9 (mpmath): the maximum of
    # P_s over n_max with the angle on the floor
    res = optimize_coherent_single(P1, 0.9)
    assert res.status == STATUS_OK
    assert math.isclose(res.phi_opt, 0.29227112218741943568, rel_tol=1e-12)
    assert math.isclose(res.n_max_opt, 0.76834463137483473945, rel_tol=1e-12)
    assert math.isclose(res.p_success, 0.062276640412156399471, rel_tol=1e-12)
    assert res.fidelity_achieved >= 0.9 - 1e-13


def test_coherent_single_finds_a_peak_between_grid_points():
    # P_s on the floor peaks near n_max = 27.9, dips, and then rises toward
    # a plateau 1e-5 lower. The grid points beside the peak (25.1 and 31.6)
    # both lie below that plateau, so the best grid point is in the wrong
    # basin. 50-digit optimum from mpmath.
    params = CavityParams.from_cooperativity(
        7.05383318137887, eta=0.21265727661162592,
        g_tilde=0.5582157193928392, kappa_tilde=0.9263767816751212)
    res = optimize_coherent_single(params, 0.6420543818859943)
    assert math.isclose(res.n_max_opt, 27.914033082836800953, rel_tol=1e-12)
    assert math.isclose(res.phi_opt, 0.58366415039489502883, rel_tol=1e-12)
    assert math.isclose(res.p_success, 0.51208752641674617246, rel_tol=1e-12)


@pytest.mark.parametrize("params", [
    *(CavityParams.from_cooperativity(x, eta=eta)
      for x in (0.05, 0.4, 2.0) for eta in (0.5, 1.0)),
    CavityParams.from_cooperativity(1.0, g_tilde=0.3, kappa_tilde=1.0),
], ids=[*(f"x{x}-eta{eta}" for x in (0.05, 0.4, 2) for eta in (0.5, 1)),
        "ring"])
def test_coherent_single_result_is_consistent(params):
    res = optimize_coherent_single(params, 0.85)
    assert res.status == STATUS_OK
    out = coherent_single(params, res.phi_opt, res.n_max_opt)
    assert out.p_success == res.p_success
    assert out.fidelity == res.fidelity_achieved


ring_sets = st.one_of(st.none(),
                     st.tuples(st.floats(min_value=0.05, max_value=1.0),
                               st.floats(min_value=0.5, max_value=2.0)))


def _params(x, eta, ring):
    kw = {} if ring is None else {"g_tilde": ring[0], "kappa_tilde": ring[1]}
    return CavityParams.from_cooperativity(x, eta=eta, **kw)


@settings(max_examples=300, deadline=None)
@given(x=st.floats(min_value=1e-3, max_value=1e2),
       eta=st.floats(min_value=0.01, max_value=1.0), ring=ring_sets,
       f_target=st.floats(min_value=0.5, max_value=1.0, exclude_min=True,
                          exclude_max=True),
       n_max=st.floats(min_value=-9.0, max_value=3.0).map(lambda e: 10.0 ** e))
def test_floor_angle_puts_fidelity_on_the_floor(x, eta, ring, f_target,
                                                n_max):
    params = _params(x, eta, ring)
    r1, _, lam = params._rates
    t, ps, _, _ = protocol._coherent_single_floor(
        eta * r1, lam, params._ratios, f_target, n_max)
    if t > 0.0:
        out = coherent_single(params, math.atan(math.sqrt(t)), n_max)
        assert abs(out.fidelity - f_target) < 1e-13
        # the floor reports P* over a = eta R1
        assert math.isclose(out.p_success, ps * eta * r1, rel_tol=1e-12)
    else:  # even the smallest angle misses the floor
        assert ps == 0.0
        assert coherent_single(params, 1e-6, n_max).fidelity < f_target


@settings(max_examples=200, deadline=None)
@given(x=st.floats(min_value=1e-3, max_value=1e2),
       eta=st.floats(min_value=0.01, max_value=1.0), ring=ring_sets,
       f_target=st.floats(min_value=0.51, max_value=0.99))
def test_floor_angle_tends_to_the_fock_single_angle(x, eta, ring, f_target):
    # as n_max -> 0 every click comes before any decoherence, so the floor
    # angle is the Fock-single one, tan^2(phi) = 2 (R1/R2) (1 - F) / F
    params = _params(x, eta, ring)
    r1, r2, lam = params._rates
    t = protocol._coherent_single_floor(eta * r1, lam, params._ratios,
                                        f_target, 1e-12)[0]
    fock = 2.0 * (r1 / r2) * (1.0 - f_target) / f_target
    assert math.isclose(t, fock, rel_tol=1e-9)
    fock_phi = optimize_fock_single(params, f_target).phi_opt
    assert math.isclose(math.atan(math.sqrt(t)), fock_phi, rel_tol=1e-9)


def _count_calls(monkeypatch, name):
    calls = []
    inner = getattr(protocol, name)

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(protocol, name, counted)
    return calls


@pytest.mark.parametrize("scheme, kernel", [
    (Scheme.FOCK_SINGLE, "fock_single"),
    (Scheme.FOCK_DOUBLE, "fock_double"),
    # the search calls the floor kernel, the final answer `coherent_single`
    (Scheme.COHERENT_SINGLE,
     "_coherent_single_floor+coherent_single"),
    (Scheme.COHERENT_DOUBLE, "_double_click_terms"),
])
@pytest.mark.parametrize("params, f_target", [
    (P1, 0.9),
    (CavityParams.from_cooperativity(0.3, eta=0.6, f=0.1), 0.97),
    (CavityParams.from_cooperativity(0.0), 0.9),  # infeasible rows
    # the row of `test_coherent_single_finds_a_peak_between_grid_points`,
    # whose searched peak wins with the floor its search held
    (CavityParams.from_cooperativity(
        7.05383318137887, eta=0.21265727661162592,
        g_tilde=0.5582157193928392, kappa_tilde=0.9263767816751212),
     0.6420543818859943),
], ids=["x1", "x0.3-f", "x0", "peak"])
def test_n_evals_counts_closed_form_evaluations(monkeypatch, scheme, kernel,
                                                params, f_target):
    if scheme is not Scheme.FOCK_DOUBLE:  # the only scheme that models f
        params = params.replace(f=0.0)
    calls = [_count_calls(monkeypatch, name) for name in kernel.split("+")]
    res = optimize(params, scheme, f_target)
    n_calls = sum(map(len, calls))
    if scheme is Scheme.COHERENT_DOUBLE and params.g == 0.0:
        # the row's last evaluation, `coherent_double` at x = 0, is
        # "undefined" before it reaches its kernel
        n_calls += 1
    assert res.n_evals == n_calls
    # every scheme evaluates at least once, even where nothing clicks
    assert n_calls > 0


# ------------------------------------------------ results built in one step

# (result, the names of two fields) from each builder that skips __init__:
# `scattering_amplitudes`, `protocol._outcome` and `_result`
_ONE_STEP = {
    "spectrum-point": (scattering_amplitudes(P1, 0.3, 2), ("R", "T")),
    "outcome": (coherent_single(P1, 0.6, 2.0), ("p_success", "fidelity")),
    "row": (optimize_coherent_single(P1, 0.9),
            ("p_success", "fidelity_achieved")),
    "infeasible-row": (optimize_fock_double(CavityParams.from_cooperativity(
        0.0), 0.9), ("p_success", "fidelity_achieved")),
}


def _constructed(result):
    # the same result built by the record constructor, from the fields that
    # __init__ takes
    return type(result)(**{name: getattr(result, name)
                           for name in result.__match_args__})


@pytest.mark.parametrize("result, _", _ONE_STEP.values(), ids=_ONE_STEP)
def test_results_built_in_one_step_match_the_constructor(result, _):
    twin = _constructed(result)
    assert list(vars(result)) == list(fields(result))
    assert vars(result) == vars(twin)
    assert result == twin and hash(result) == hash(twin)
    assert repr(result) == repr(twin)
    back = pickle.loads(pickle.dumps(result))
    assert vars(back) == vars(result) and back == result
    assert repr(back) == repr(result)
    assert vars(result.replace()) == vars(result)
    with pytest.raises(FrozenRecordError):
        setattr(result, fields(result)[0], 0.0)


def _fastest_reads_ns(objs, first, second):
    # the fastest of 30 timings of two field reads on each object, timed in
    # turn so that all see the same machine
    stmt = f"o.{first}; o.{second}; " * 10
    timers = [timeit.Timer(stmt, setup="o = obj", globals={"obj": o})
              for o in objs]
    best = [math.inf] * len(objs)
    for _ in range(30):
        for i, timer in enumerate(timers):
            best[i] = min(best[i], timer.timeit(1000) / 10)
    return best


@pytest.mark.parametrize("result, fields", _ONE_STEP.values(), ids=_ONE_STEP)
def test_field_reads_on_results_built_in_one_step_stay_fast(result, fields):
    # one keyword __dict__.update leaves a combined dict: reads measured
    # 1.2 to 1.35 times those on the constructor's instance, against about
    # 5 times when the fields are stored one key at a time (a split-key
    # dict on CPython 3.11)
    ours, constructed = _fastest_reads_ns([result, _constructed(result)],
                                          *fields)
    assert ours <= 2.0 * constructed


class _Plain:
    # an instance whose __init__ stores each field of `params` one at a
    # time: the layout on which field reads are fastest
    def __init__(self, params):
        for name in fields(params):
            setattr(self, name, getattr(params, name))


def test_field_reads_on_params_stay_fast():
    # the record __init__ stores each field as a plain instance would:
    # reads measured 0.99 to 1.06 times those on a plain instance
    params = CavityParams.from_cooperativity(0.7, eta=0.9)
    ours, plain = _fastest_reads_ns([params, _Plain(params)], "g", "eta")
    assert ours <= 1.5 * plain


def test_n_evals_is_hidden_from_repr_and_equality():
    res = optimize_coherent_single(P1, 0.9)
    assert "n_evals" not in repr(res)
    assert res.replace(n_evals=None) == res


# coherent-single evaluations at x = 1, eta = 1, measured; 37, 38, 52, 30,
# 23, 24, 24, 25 and 21 while the walk stopped on the smaller of b n_max and
# (2k + k^2) A^2/B at twice its value, and each searched peak was evaluated
# once more
_COHERENT_SINGLE_EVALS = {0.51: 33, 0.6: 33, 0.75: 45, 0.9: 25, 0.99: 19,
                          0.999: 21, 0.9999: 21, 1.0 - 1e-6: 22,
                          1.0 - 1e-9: 18}


@pytest.mark.parametrize("f_target", [0.51, 0.6, 0.75, 0.9, 0.99, 0.999,
                                      0.9999, 1.0 - 1e-6, 1.0 - 1e-9])
def test_coherent_single_row_needs_under_80_evaluations(f_target):
    # about 7 bisection points for the upper cut, the walk down to the lower
    # cut, one budget search to float adjacency and the final evaluation;
    # measured 18 to 45 over these targets, against 122 to 167 for the
    # whole grid
    res = optimize_coherent_single(P1, f_target)
    assert res.n_evals <= _COHERENT_SINGLE_EVALS[f_target] < 80


@pytest.mark.parametrize("f_target, ceiling", [
    (0.99, 20), (0.999, 22), (0.9999, 22), (1.0 - 1e-6, 23)])
def test_coherent_single_walk_stops_early_near_f_target_one(f_target,
                                                            ceiling):
    # near F_t = 1 the bound b n_max lies far above P* (P* is about
    # 4 (1 - F_t)(a/b) b n_max near the peak), so the walk down stops on
    # the floor's cap A u (2 + k)/(1 + u)^2 instead; with b n_max alone
    # these rows took 43, 57, 72 and 68 evaluations. Measured 19, 21, 21
    # and 22 (23, 24, 24 and 25 with the cap (2k + k^2) A^2/B at twice its
    # value)
    assert optimize_coherent_single(P1, f_target).n_evals <= ceiling


def test_budget_searches_stay_under_measured_evaluation_ceilings():
    # measured: 21 and 25; a bisection to float adjacency took 65 and 174,
    # and the whole 121-point grid with regula falsi 133 for coherent single
    assert optimize_coherent_double(P1, 0.9).n_evals <= 25
    assert optimize_coherent_single(P1, 0.9).n_evals <= 26


@pytest.mark.parametrize("scheme, f_target, capped", [
    (Scheme.COHERENT_DOUBLE, 0.6, True),  # the ceiling: 13/18 > 0.6
    (Scheme.COHERENT_DOUBLE, 0.9, False),
    (Scheme.COHERENT_SINGLE, 0.6, True),
    (Scheme.COHERENT_SINGLE, 0.9, False),
    (Scheme.FOCK_SINGLE, 0.9, None),
    (Scheme.FOCK_DOUBLE, 0.9, None),
])
def test_budget_capped_says_whether_the_ceiling_was_returned(scheme,
                                                             f_target, capped):
    res = optimize(P1, scheme, f_target)
    assert res.budget_capped is capped
    if capped is not None:
        assert capped == (res.n_max_opt == N_MAX_CEILING)
    row, = sweep(SweepSpec(x_grid=(1.0,), eta=1.0, f_target=f_target,
                           scheme=scheme))
    assert row.budget_capped is capped


@pytest.mark.parametrize("scheme", [Scheme.COHERENT_SINGLE,
                                    Scheme.COHERENT_DOUBLE])
def test_infeasible_coherent_row_is_not_budget_capped(scheme):
    res = optimize(CavityParams.from_cooperativity(0.0), scheme, 0.9)
    assert res.status == STATUS_INFEASIBLE
    assert res.budget_capped is False


def test_budget_capped_is_hidden_from_repr_and_equality():
    res = optimize_coherent_double(P1, 0.6)
    assert "budget_capped" not in repr(res)
    assert res.replace(budget_capped=None) == res


def test_coherent_double_reference_points():
    res = optimize_coherent_double(P1, 0.9)
    assert math.isclose(res.n_max_opt, 1.1369546297595656, rel_tol=1e-10)
    assert math.isclose(res.p_success, 0.08273571568762333, rel_tol=1e-10)
    assert res.phi_opt == math.pi / 4

    lossy = optimize_coherent_double(
        CavityParams.from_cooperativity(1.0, eta=0.5), 0.9)
    assert math.isclose(lossy.n_max_opt, 1.0956565869497086, rel_tol=1e-10)
    assert math.isclose(lossy.p_success, 0.024410820793246427, rel_tol=1e-10)


def test_coherent_double_unbinding_constraint_hits_ceiling():
    # infinite-budget fidelity at x=1 is 13/18 > 0.6: cap the budget instead
    res = optimize_coherent_double(P1, 0.6)
    assert res.n_max_opt == N_MAX_CEILING
    assert math.isclose(res.p_success, 0.5, rel_tol=1e-12)


def test_coherent_double_infeasible_when_limit_exceeds_target():
    # a target above F(n_max -> 0) = 1 can't happen, but one above the
    # achievable envelope at tiny budget still must return cleanly
    res = optimize_coherent_double(with_cooperativity(P1, 1e-6), 0.99)
    # with x ~ 0 fidelity stays ~1 at small budgets, so this is feasible;
    # the success probability is what collapses
    assert res.status == STATUS_OK
    assert res.p_success < 1e-4


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=0.55, max_value=0.95))
def test_coherent_double_saturation(f_target):
    res = optimize_coherent_double(P1, f_target)
    assert res.status == STATUS_OK
    assert res.fidelity_achieved >= f_target - 1e-9
    if res.n_max_opt < N_MAX_CEILING:
        # constraint active: a slightly larger budget would violate it
        probe = coherent_double(P1, res.n_max_opt * (1 + 1e-6))
        assert probe.fidelity < f_target + 1e-7


@settings(max_examples=200, deadline=None)
@given(x=st.floats(min_value=1e-3, max_value=1e2),
       eta=st.floats(min_value=0.01, max_value=1.0), ring=ring_sets,
       budgets=st.lists(st.floats(min_value=-9.0, max_value=3.0),
                        min_size=2, max_size=20))
def test_coherent_double_fidelity_is_nonincreasing_in_budget(x, eta, ring,
                                                             budgets):
    # F = 1/2 + 1/2 E[e^{-lambda S} | S <= n_max]: a larger budget only adds
    # photon totals S with a smaller e^{-lambda S}, which the budget
    # bisection relies on. Budgets an ulp apart may round up to 3 ulps.
    params = _params(x, eta, ring)
    fids = [coherent_double(params, 10.0 ** e).fidelity
            for e in sorted(budgets)]
    assert all(b <= a + 1e-15 for a, b in zip(fids, fids[1:]))


@pytest.mark.parametrize("eta", [1.0, 0.6])
@pytest.mark.parametrize("f_target", [0.75, 0.9, 0.97])
def test_coherent_double_budget_is_exact_to_float_resolution(eta, f_target):
    # the bisection runs to float adjacency: the returned budget meets the
    # target and the next float up misses it
    for x in (0.1, 0.5, 1.0, 3.0):
        params = CavityParams.from_cooperativity(x, eta=eta)
        res = optimize_coherent_double(params, f_target)
        if res.status != STATUS_OK or res.n_max_opt >= N_MAX_CEILING:
            continue
        nm = res.n_max_opt
        assert coherent_double(params, nm).fidelity >= f_target
        above = coherent_double(params, math.nextafter(nm, math.inf))
        assert above.fidelity < f_target


def _bisection_steps(holds, lo, hi):
    # evaluations a plain bisection of [lo, hi] takes to float adjacency
    steps = 0
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return steps
        steps += 1
        lo, hi = (mid, hi) if holds(mid) else (lo, mid)


def _noise(n, seed):
    # a deterministic draw in [0, 1) per (float, seed)
    digest = hashlib.blake2b(struct.pack("<dq", n, seed), digest_size=8)
    return int.from_bytes(digest.digest(), "little") / 2.0 ** 64


def _check_search(value, lo, hi, slack=0):
    calls = []

    def counted(n):
        calls.append(n)
        return value(n)

    res = _search(counted, lo, hi, value(lo), value(hi))
    assert lo <= res < hi
    assert value(res) >= 0.0
    assert not value(math.nextafter(res, hi)) >= 0.0
    steps = _bisection_steps(lambda n: value(n) >= 0.0, lo, hi)
    assert len(calls) <= _FALSI_STEPS + steps + slack
    return res, len(calls)


search_brackets = st.sampled_from([(1e-9, N_MAX_CEILING), (0.0, 1.0),
                                   (-5.0, 7.5), (2.0, 2.0 + 1e-6)])


@settings(max_examples=300, deadline=None)
@given(bracket=search_brackets, where=st.floats(0.0, 1.0),
       scale=st.floats(0.0, 6.0).map(lambda e: 10.0 ** e))
def test_search_finds_the_last_float_of_a_linear_value(bracket, where,
                                                       scale):
    # the sign of scale * (c - n) is exact (scale >= 1 cannot round a
    # subnormal difference to 0), so the answer is c itself
    lo, hi = bracket
    c = min(lo + where * (hi - lo), math.nextafter(hi, lo))
    res, _ = _check_search(lambda n: scale * (c - n), lo, hi)
    assert res == c


def test_search_on_a_linear_value_needs_few_steps():
    # the first secant lands on 0.3, where the value is exactly 0; a plain
    # bisection of [1e-9, 1e3] takes 64 steps
    res, n = _check_search(lambda n: 0.3 - n, 1e-9, N_MAX_CEILING)
    assert res == 0.3
    assert n <= 10


@settings(max_examples=100, deadline=None)
@given(bracket=search_brackets, where=st.floats(0.0, 1.0))
def test_search_is_capped_where_the_secant_creeps(bracket, where):
    # a step from 1 to -1e-10: every secant lands 1e-10 of the bracket
    # from hi, and Illinois halving needs about 33 steps to undo that,
    # again after each move of lo, so only the cap bounds the search. The
    # capped steps barely narrow the bracket, and bisecting what is left
    # can take one step more than bisecting the whole, as the midpoints
    # fall differently on the float grid.
    lo, hi = bracket
    c = min(lo + where * (hi - lo), math.nextafter(hi, lo))
    res, _ = _check_search(lambda n: 1.0 if n <= c else -1e-10, lo, hi,
                           slack=1)
    assert res == c


@settings(max_examples=300, deadline=None)
@given(bracket=search_brackets, where=st.floats(0.0, 1.0),
       edge=st.floats(0.0, 1.0))
def test_search_takes_midpoints_where_the_upper_end_is_minus_inf(bracket,
                                                                 where, edge):
    # value is -inf above c + edge (hi - c): no secant through that end, so
    # the search bisects until a finite negative value bounds it
    lo, hi = bracket
    c = min(lo + where * (hi - lo), math.nextafter(hi, lo))
    d = c + edge * (hi - c)
    res, _ = _check_search(lambda n: -math.inf if n > d else c - n, lo, hi)
    assert res == c


@settings(max_examples=300, deadline=None)
@given(bracket=search_brackets, where=st.floats(0.01, 0.99),
       band=st.integers(1, 400), seed=st.integers(0, 2 ** 32),
       zeros=st.booleans())
def test_search_meets_its_contract_where_the_sign_is_noisy(bracket, where,
                                                           band, seed, zeros):
    # within `band` ulps of c the sign is a coin flip per float (or 0,
    # which counts as holding), so value >= 0 is not monotone there; the
    # result must still hold where the next float up fails
    lo, hi = bracket
    c = lo + where * (hi - lo)
    width = band * math.ulp(c)

    def value(n):
        if abs(n - c) < width:
            u = _noise(n, seed)
            return 0.0 if zeros and u < 0.2 else (u - 0.5) * width
        return c - n

    _check_search(value, lo, hi)


@settings(max_examples=300, deadline=None)
@given(x=st.floats(min_value=-4.0, max_value=2.0).map(lambda e: 10.0 ** e),
       eta=st.floats(min_value=0.01, max_value=1.0), ring=ring_sets,
       f_target=st.floats(min_value=0.5, max_value=1.0 - 1e-9,
                          exclude_min=True))
def test_coherent_double_budget_holds_where_the_next_float_fails(x, eta, ring,
                                                                 f_target):
    params = _params(x, eta, ring)
    res = optimize_coherent_double(params, f_target)
    if res.status != STATUS_OK or res.n_max_opt == N_MAX_CEILING:
        return
    nm = res.n_max_opt
    assert coherent_double(params, nm).fidelity >= f_target
    above = coherent_double(params, math.nextafter(nm, math.inf)).fidelity
    assert above is None or above < f_target


@settings(max_examples=300, deadline=None)
@given(x=st.floats(min_value=-4.0, max_value=2.0).map(lambda e: 10.0 ** e),
       eta=st.floats(min_value=0.01, max_value=1.0), ring=ring_sets,
       f_target=st.floats(min_value=0.5, max_value=1.0 - 1e-9,
                          exclude_min=True))
def test_coherent_single_peak_rises_where_the_next_float_does_not(x, eta,
                                                                  ring,
                                                                  f_target):
    # a budget off the grid is a searched peak: P* rises there (P* > 0 and
    # slope >= 0) and stops rising one float up
    params = _params(x, eta, ring)
    res = optimize_coherent_single(params, f_target)
    if res.status != STATUS_OK or res.n_max_opt in _COARSE_GRID:
        return
    r1, _, lam = params._rates

    def rises(nm):
        _, ps, slope, _ = protocol._coherent_single_floor(
            eta * r1, lam, params._ratios, f_target, nm)
        return ps > 0.0 and slope >= 0.0

    assert rises(res.n_max_opt)
    assert not rises(math.nextafter(res.n_max_opt, math.inf))


def _whole_grid_coherent_single(params, f_target):
    # the coherent-single optimizer without its cuts: every point of the
    # coarse grid is evaluated, and every cell where P* stops rising is
    # searched; returns the row and P* (over a = eta R1) at each grid point
    r1, _, lam = params._rates

    def floor(nm):
        return protocol._coherent_single_floor(
            params.eta * r1, lam, params._ratios, f_target, nm)

    grid = _COARSE_GRID
    coarse = [floor(nm) for nm in grid]
    p_star = [ps for _, ps, _, _ in coarse]
    best = p_star.index(max(p_star))
    if p_star[best] <= 0.0:
        return _result(params, Scheme.COHERENT_SINGLE, f_target, 0), p_star
    rises = [r for _, _, r, _ in coarse]
    peaks = [_search(lambda nm: floor(nm)[2], grid[k], grid[k + 1],
                     rises[k], rises[k + 1])
             for k in range(len(grid) - 1)
             if rises[k] >= 0.0 and not rises[k + 1] >= 0.0]
    found = [(nm, floor(nm)) for nm in peaks]
    if rises[-1] >= 0.0:
        found.append((grid[-1], coarse[-1]))
    found.append((grid[best], coarse[best]))
    nm, (t, _, _, _) = max(found, key=lambda c: c[1][1])
    phi = math.atan(math.sqrt(t))
    out = coherent_single(params, phi, nm)
    if out.fidelity is None or out.fidelity < f_target - _CONSTRAINT_TOL:
        return _result(params, Scheme.COHERENT_SINGLE, f_target, 0), p_star
    return _result(params, Scheme.COHERENT_SINGLE, f_target, 0,
                   out, phi, nm), p_star


def _cap_corpus(seed: int, n: int) -> dict:
    # (x, eta, ring, f_target) rows in four sets: the figure ranges; F_t
    # just above 1/2, where u = k A/B > 1 at large budgets, so that
    # u/(1 + u)^2 falls while the cap still rises; ring sets; and
    # x <= 1e-100, where R1 underflows
    rng = random.Random(seed)

    def rows(log_x, eta, f_target, ring=lambda: None):
        return [(10.0 ** rng.uniform(*log_x), rng.uniform(*eta), ring(),
                 f_target()) for _ in range(n)]

    return {
        "figure": rows((math.log10(0.05), math.log10(2.0)), (0.5, 1.0),
                       lambda: rng.uniform(0.75, 0.95)),
        "near-half": rows((-3.0, 2.0), (0.05, 1.0),
                          lambda: 0.52 - 0.02 * rng.random()),
        "ring": rows((-3.0, 2.0), (0.05, 1.0),
                     lambda: rng.uniform(0.51, 1.0 - 1e-9),
                     lambda: (rng.uniform(0.05, 1.0), rng.uniform(0.5, 2.0))),
        "tiny-x": rows((-300.0, -100.0), (0.05, 1.0),
                       lambda: rng.uniform(0.51, 0.999)),
    }


_CAP_CORPUS = _cap_corpus(29, 100)


@pytest.mark.parametrize("name", list(_CAP_CORPUS))
def test_coherent_single_cap_bounds_p_star_at_and_below_its_budget(name):
    # the floor's cap is the lower cut's bound: at every feasible grid point
    # it is at least P* there and at every grid point below, so the walk
    # down may stop once 1.25 times it lies below the best P*; and it lies
    # below the bound P* < b n_max, over a rho n_max, that it replaced. Where
    # C/A = 1 the bound is tight, and P* carries the rounding of t*'s
    # numerator (1 + C/A)/f_target - 2, which cancels to a relative error of
    # about eps/(1 - f_target); measured up to 1.5 of those at x <= 1e-100
    # (over 4,000 rows), and 0 in the other three sets
    feasible = above_one = 0
    for x, eta, ring, f_target in _CAP_CORPUS[name]:
        params = _params(x, eta, ring)
        r1, _, lam = params._rates
        best = 0.0  # the largest P* at or below the budget
        for nm in _COARSE_GRID:
            t, ps, _, cap = protocol._coherent_single_floor(
                eta * r1, lam, params._ratios, f_target, nm)
            if ps > 0.0:
                best = max(best, ps)
                tol = 4 * sys.float_info.epsilon / (1.0 - f_target)
                assert cap * (1.0 + tol) >= best, (x, eta, ring, f_target, nm)
                assert cap < params._ratios[1] * nm
                feasible += 1
                above_one += t > 1.0  # so u >= t* > 1
    assert feasible > 0
    if name == "near-half":
        assert above_one > 0


def _examples(rows):
    # each corpus row as a hypothesis example
    def add(test):
        for x, eta, ring, f_target in rows:
            test = example(x=x, eta=eta, ring=ring, f_target=f_target)(test)
        return test
    return add


@settings(max_examples=300, deadline=None)
@given(x=st.floats(min_value=-4.0, max_value=2.0).map(lambda e: 10.0 ** e),
       eta=st.floats(min_value=0.01, max_value=1.0), ring=ring_sets,
       f_target=st.floats(min_value=0.5, max_value=1.0 - 1e-9,
                          exclude_min=True))
@_examples([row for rows in _cap_corpus(2929, 10).values() for row in rows])
@example(x=1.0, eta=1.0, ring=None, f_target=0.9)
@example(x=1.0, eta=1.0, ring=None, f_target=0.999)
@example(x=1e-4, eta=0.01, ring=None, f_target=1.0 - 1e-9)
@example(x=100.0, eta=1.0, ring=(1.0, 0.5), f_target=0.51)  # the ceiling
def test_coherent_single_cuts_skip_only_points_that_cannot_win(x, eta, ring,
                                                               f_target):
    # the grid points above the upper cut and below the lower cut are never
    # evaluated; the row is the one the whole grid gives, and no skipped
    # point beats it
    params = _params(x, eta, ring)
    expected, p_star = _whole_grid_coherent_single(params, f_target)
    with pytest.MonkeyPatch.context() as mp:
        calls = _count_calls(mp, "_coherent_single_floor")
        res = optimize_coherent_single(params, f_target)
    assert res == expected and repr(res) == repr(expected)
    assert res.budget_capped is expected.budget_capped
    evaluated = {args[-1] for args in calls}
    skipped = [ps for nm, ps in zip(_COARSE_GRID, p_star)
               if nm not in evaluated]
    if res.status == STATUS_OK:
        # the floor's P* is over a = eta R1, so it keeps its digits where
        # P_s rounds to a subnormal or 0
        r1, _, lam = params._rates
        a = params.eta * r1
        best = protocol._coherent_single_floor(
            a, lam, params._ratios, f_target, res.n_max_opt)[1]
        assert all(ps < best for ps in skipped)
        if res.p_success >= sys.float_info.min:
            assert all(ps * a < res.p_success for ps in skipped)
    else:
        assert all(ps <= 0.0 for ps in skipped)


@pytest.mark.parametrize("x, eta, f_target", [
    # a (a + lambda) 1e-9 underflowed: the floor's C rounded to 0 at small
    # budgets, so P* was 0 below n_max = 1 and > 0 above it, and the whole
    # grid was evaluated; C/A now keeps its digits, so the cuts run
    (2.183232204024723e-104, 6.976879395177267e-13, 0.6),
    # C was a subnormal multiple over a + lambda, so P* > 0 at 1e-9 but 0
    # at some budgets between it and the best one, n_max = 1e3; as above
    (1.0744162929236119e-26, 1.1996797971095793e-238, 1.0 - 1e-9),
    # 1 - F_t is two ulps, so the sign of t* is rounding at every budget
    (2.2827955392849073e-98, 1.0, 0.9999999999999998),
    # n_feas, about 4 (1 - F_t) / lambda = 1.25e-12, lies below the grid
    (1.0, 1.0, 1.0 - 1e-13),
])
def test_coherent_single_evaluates_the_whole_grid_where_cuts_fail(x, eta,
                                                                  f_target):
    # where the feasible budgets are no interval in floats, a bisection
    # would cut the grid at a wrong point; every row is the one the whole
    # grid gives
    params = CavityParams.from_cooperativity(x, eta=eta)
    expected, _ = _whole_grid_coherent_single(params, f_target)
    res = optimize_coherent_single(params, f_target)
    assert res == expected and repr(res) == repr(expected)
    if f_target > 1.0 - 1e-12:  # 1 - F_t is at rounding: no cut runs
        assert res.n_evals >= len(_COARSE_GRID)


@pytest.mark.parametrize("x, eta, f_target, p_success", [
    # once "ok" with F = 0.59999988, then infeasible; P* rises to the
    # ceiling, where P_s = A t (2 + t B/A) / (1 + t)^2
    (2.183232204024723e-104, 6.976879395177267e-13, 0.6,
     3.3255315567898586e-216),
    # once "ok" with F = 0.7, then infeasible; a = eta R1 is 1e-323, so P_s
    # rounds to 0
    (5.326351507288968, 1e-323, 0.999, 0.0),
    # once "ok" with F = None, then infeasible; P_s rounds to 0 as above
    (0.1194759039833581, 2.76552e-318, 0.999, 0.0),
])
def test_coherent_single_rows_that_missed_the_floor_now_sit_on_it(
        x, eta, f_target, p_success):
    # the floor's arithmetic left normal floats, so the angle it gave
    # missed the floor; its ratio form keeps its digits, so each row is
    # "ok" on the floor, with the P_s the closed form gives there
    params = CavityParams.from_cooperativity(x, eta=eta)
    res = optimize_coherent_single(params, f_target)
    assert res.status == STATUS_OK
    assert abs(res.fidelity_achieved - f_target) <= 2 * math.ulp(f_target)
    assert res.p_success == p_success
    assert res.p_success == coherent_single(params, res.phi_opt,
                                            res.n_max_opt).p_success


def test_dispatcher_accepts_scheme_values():
    for scheme in Scheme:
        res = optimize(P1, scheme, 0.8)
        assert isinstance(res, OptimizationResult)
        assert res.scheme == scheme
    res = optimize(P1, "fock-single", 0.8)  # plain strings coerce
    assert res.scheme is Scheme.FOCK_SINGLE
    for scheme in ("bogus", None, ["fock-single"]):
        with pytest.raises(ValueError, match="is not a valid Scheme"):
            optimize(P1, scheme, 0.8)


def test_default_grid_shape():
    grid = default_x_grid()
    assert len(grid) == 40
    assert math.isclose(grid[0], 0.05, rel_tol=1e-12)
    assert math.isclose(grid[-1], 2.0, rel_tol=1e-12)
    assert all(a < b for a, b in zip(grid, grid[1:]))


def _within_one_ulp(ours, numpy_values):
    return len(ours) == len(numpy_values) and all(
        a in (b, math.nextafter(b, -math.inf), math.nextafter(b, math.inf))
        for a, b in zip(ours, numpy_values))


@settings(max_examples=300, deadline=None)
@given(st.floats(-1e300, 1e300), st.floats(-1e300, 1e300),
       st.integers(0, 300), st.booleans())
@example(0.0, 5e-324, 3, False)  # the step underflows to 0
@example(-0.0, 0.0, 1, False)
@example(-1.5, 2.5, 2, False)
def test_linspace_matches_numpy_bit_for_bit(start, stop, num, same):
    # covers num = 0, 1, 2, start == stop, signed zeros and subnormal steps
    if same:
        stop = start
    ours = _linspace(start, stop, num)
    assert all(type(v) is float for v in ours)
    assert ([v.hex() for v in ours]
            == [v.hex() for v in np.linspace(start, stop, num).tolist()])


def test_coarse_grid_against_geomspace():
    reference = np.geomspace(1e-9, N_MAX_CEILING, 121).tolist()
    assert _COARSE_GRID[0] == 1e-9 and _COARSE_GRID[-1] == N_MAX_CEILING
    assert _within_one_ulp(_COARSE_GRID, reference)


def test_default_grid_against_logspace():
    for n in (1, 2, 40, 97):
        reference = np.logspace(math.log10(0.05), math.log10(2.0), n).tolist()
        assert _within_one_ulp(default_x_grid(n), reference)


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(x_grid=(), eta=1.0, f_target=0.9, scheme=Scheme.FOCK_SINGLE)
    with pytest.raises(ValueError):
        SweepSpec(x_grid=(1.0, 0.5), eta=1.0, f_target=0.9,
                  scheme=Scheme.FOCK_SINGLE)


def test_sweep_spec_base_has_the_spec_eta():
    # the four-field form still constructs, with no base
    spec = SweepSpec((0.5, 1.0), 0.8, 0.9, Scheme.FOCK_SINGLE)
    assert spec.base is None
    base = CavityParams.from_cooperativity(3.0, eta=0.8, f=0.1)
    assert spec.replace(base=base).base is base
    with pytest.raises(ValueError, match="eta"):
        SweepSpec((0.5, 1.0), 0.9, 0.9, Scheme.FOCK_SINGLE, base)


_BASES = {
    "f": CavityParams.from_cooperativity(3.0, eta=0.8, f=0.1),
    "ring": CavityParams.from_cooperativity(0.1, eta=0.8, g_tilde=0.5,
                                            kappa_tilde=2.0),
    "raw": CavityParams.from_raw_rates(2.0, 3.0, 3.0, 2.0, eta=0.8),
}


@pytest.mark.parametrize("base", _BASES.values(), ids=_BASES)
def test_sweep_rows_are_the_base_at_each_cooperativity(base):
    grid = (0.2, 0.9, 1.7)
    for scheme in Scheme:
        if base.f > 0.0 and scheme is not Scheme.FOCK_DOUBLE:
            continue  # only fock-double models f
        rows = sweep(SweepSpec(grid, 0.8, 0.85, scheme, base))
        assert rows == [
            optimize(with_cooperativity(base, x), scheme, 0.85).replace(x=x)
            for x in grid]
        assert [r.x for r in rows] == list(grid)


def test_sweep_rows_keep_their_bits_over_a_plain_base():
    # a base with no parameter but eta gives the rows of no base, bit for
    # bit: with kappa = gamma = 1 its g is sqrt(x), as from_cooperativity's
    grid = default_x_grid(12)
    base = CavityParams.from_cooperativity(7.0, eta=0.7)
    for scheme in Scheme:
        plain = sweep(SweepSpec(grid, 0.7, 0.9, scheme))
        rows = sweep(SweepSpec(grid, 0.7, 0.9, scheme, base))
        assert rows == plain
        assert [vars(r) for r in rows] == [vars(r) for r in plain]


def test_sweep_single_point_matches_direct_call():
    spec = SweepSpec(x_grid=(1.0,), eta=1.0, f_target=0.9,
                     scheme=Scheme.COHERENT_DOUBLE)
    rows = sweep(spec)
    direct = optimize_coherent_double(P1, 0.9)
    assert len(rows) == 1
    assert rows[0].x == 1.0
    assert rows[0].p_success == direct.p_success
    assert rows[0].n_max_opt == direct.n_max_opt


def test_sweep_keeps_requested_grid_and_order():
    spec = SweepSpec(x_grid=(0.1, 0.7, 1.3), eta=0.5, f_target=0.8,
                     scheme=Scheme.FOCK_SINGLE)
    rows = sweep(spec)
    assert [r.x for r in rows] == [0.1, 0.7, 1.3]
    assert all(r.eta == 0.5 for r in rows)
    assert all(r.status == STATUS_OK for r in rows)


@pytest.mark.parametrize("scheme, status", [
    (Scheme.FOCK_SINGLE, STATUS_OK),
    (Scheme.COHERENT_SINGLE, STATUS_OK),
    (Scheme.COHERENT_DOUBLE, STATUS_OK),
])
def test_sweep_survives_vanishing_cooperativity(scheme, status):
    # R1 ~ 16 x^2 underflows to 0 (or a subnormal) here, but a click can
    # occur in exact arithmetic, so each row sits on its floor and only its
    # P_s underflows: to 0 where R1 = 0, and at x = 1e-160 to a subnormal
    # in the single schemes, whose P_s is linear in R1, and to 0 in the
    # double scheme, whose P_s is about a^2 n_max^2 / 4. These rows were
    # infeasible with P_s 0
    rows = sweep(SweepSpec(x_grid=(1e-300, 1e-200, 1e-160), eta=1.0,
                           f_target=0.9, scheme=scheme))
    assert [r.status for r in rows] == [status] * 3
    assert all(abs(r.fidelity_achieved - 0.9) <= 2 * math.ulp(0.9)
               for r in rows[:2] if scheme is not Scheme.COHERENT_DOUBLE)
    assert [r.p_success for r in rows[:2]] == [0.0, 0.0]
    if scheme is Scheme.COHERENT_DOUBLE:
        assert rows[2].p_success == 0.0
    else:
        assert 0.0 < rows[2].p_success < sys.float_info.min


def test_fock_double_sweep_survives_vanishing_cooperativity():
    # R1 = 0 at the first two points and subnormal at x = 1e-160, but a
    # click can occur in exact arithmetic: the heralded state is pure and
    # P_s = R1^2 / 2 underflows to 0. The first two rows were infeasible
    rows = sweep(SweepSpec(x_grid=(1e-300, 1e-200, 1e-160), eta=1.0,
                           f_target=0.9, scheme=Scheme.FOCK_DOUBLE))
    assert [r.status for r in rows] == [STATUS_OK] * 3
    assert [r.fidelity_achieved for r in rows] == [1.0] * 3
    assert all(r.p_success == 0.0 for r in rows)


@pytest.mark.parametrize("x", [0.0, 1e-300, 1e-200, 1e-160, 1e-12, 1e12,
                               X_MAX])
@pytest.mark.parametrize("eta", [0.0, 0.01, 1.0])
def test_optimizers_return_a_row_at_extreme_cooperativities(x, eta):
    params = CavityParams.from_cooperativity(x, eta=eta)
    for scheme in Scheme:
        res = optimize(params, scheme, 0.9)
        assert res.status in (STATUS_OK, STATUS_INFEASIBLE)
        if res.status == STATUS_OK:
            assert 0.0 <= res.p_success <= 1.0
            assert res.fidelity_achieved >= 0.9 - 1e-13


def test_cooperativity_is_bounded_at_x_max():
    assert CavityParams.from_cooperativity(X_MAX).cooperativity == X_MAX
    SweepSpec(x_grid=(X_MAX,), eta=1.0, f_target=0.9,
              scheme=Scheme.FOCK_SINGLE)
    with pytest.raises(ValueError, match="X_MAX"):
        SweepSpec(x_grid=(1.0, 1e200), eta=1.0, f_target=0.9,
                  scheme=Scheme.FOCK_SINGLE)
    huge = CavityParams.from_cooperativity(1e200)
    for scheme in Scheme:
        with pytest.raises(ValueError, match="X_MAX"):
            optimize(huge, scheme, 0.9)


_SPURIOUS = CavityParams.from_cooperativity(1.0, f=0.2)


@pytest.mark.parametrize("scheme", list(Scheme))
@pytest.mark.parametrize("params, match", [
    (CavityParams(g=1.0, kappa_a=0.2, kappa_b=0.8),
     "symmetric mirrors on resonance"),
    (CavityParams.from_cooperativity(1.0, delta=2.0),
     "symmetric mirrors on resonance"),
    (_SPURIOUS, r"fraction f > 0, got f = 0\.2"),
], ids=["asymmetric", "detuned", "spurious"])
def test_optimizers_reject_asymmetric_or_detuned_cavities(scheme, params,
                                                          match):
    if params is _SPURIOUS and scheme is Scheme.FOCK_DOUBLE:  # models f
        assert optimize(params, scheme, 0.7).status == STATUS_OK
        return
    with pytest.raises(ValueError, match=match):
        optimize(params, scheme, 0.9)


def test_every_optimizer_is_infeasible_without_a_detector():
    # at eta = 0 no click can occur
    blind = CavityParams.from_cooperativity(1.0, eta=0.0)
    for scheme in Scheme:
        res = optimize(blind, scheme, 0.9)
        assert res.status == STATUS_INFEASIBLE
        assert res.p_success == 0.0
        assert res.fidelity_achieved is None
