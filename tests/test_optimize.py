"""Constrained optimizers: maximize success probability at fixed fidelity.

Spot values are regression pins; their correctness against brute-force grids
is established separately in tests/test_acceptance.py.
"""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavityherald import protocol
from cavityherald.core import CavityParams, with_cooperativity
from cavityherald.optimize import (
    N_MAX_CEILING,
    STATUS_INFEASIBLE,
    STATUS_OK,
    OptimizationResult,
    Scheme,
    SweepSpec,
    _largest_feasible,
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


def test_infeasible_row_shape():
    res = optimize_fock_double(CavityParams.from_cooperativity(1.0, f=0.1),
                               0.99)
    assert res.status == STATUS_INFEASIBLE
    assert res.phi_opt is None
    assert res.n_max_opt is None
    assert res.p_success == 0.0
    assert res.fidelity_achieved is None


def test_coherent_single_reference_point():
    res = optimize_coherent_single(P1, 0.9)
    assert res.status == STATUS_OK
    assert math.isclose(res.phi_opt, 0.29227113316394515, rel_tol=1e-9)
    assert math.isclose(res.n_max_opt, 0.7683445613293236, rel_tol=1e-9)
    assert math.isclose(res.p_success, 0.06227664041215489, rel_tol=1e-10)
    assert res.fidelity_achieved >= 0.9 - 1e-9


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


@settings(max_examples=300, deadline=None)
@given(x=st.floats(min_value=1e-3, max_value=1e2),
       eta=st.floats(min_value=0.01, max_value=1.0),
       ring=st.one_of(st.none(),
                      st.tuples(st.floats(min_value=0.05, max_value=1.0),
                                st.floats(min_value=0.5, max_value=2.0))),
       phi=st.floats(min_value=1e-4, max_value=math.pi / 2 - 1e-4),
       f_target=st.floats(min_value=0.5, max_value=1.0, exclude_min=True,
                          exclude_max=True),
       guess=st.one_of(st.none(), st.sampled_from([1e-9, N_MAX_CEILING]),
                       st.floats(min_value=-12.0, max_value=6.0).map(
                           lambda e: 10.0 ** e)))
def test_certified_bisection_returns_the_plain_bisection_float(
        x, eta, ring, phi, f_target, guess):
    # certified steps skip evaluations only: any guess, good, bad or none,
    # gives the float the plain bisection gives
    kw = {} if ring is None else {"g_tilde": ring[0], "kappa_tilde": ring[1]}
    params = CavityParams.from_cooperativity(x, eta=eta, **kw)
    r1, r2, lam = protocol._rates(params)
    prep = protocol.initial_populations(phi)

    def fid(nm):
        f = protocol._coherent_single_terms(prep.p1, prep.p2, eta * r1,
                                            eta * r2, lam, nm)[1]
        return -1.0 if f is None else f

    plain = _largest_feasible(fid, f_target, 1e-13)
    assert _largest_feasible(fid, f_target, 1e-13, True, guess) == plain


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
    (Scheme.COHERENT_SINGLE, "_coherent_single_terms"),
    (Scheme.COHERENT_DOUBLE, "_double_click_terms"),
])
@pytest.mark.parametrize("params, f_target", [
    (P1, 0.9),
    (CavityParams.from_cooperativity(0.3, eta=0.6, f=0.1), 0.97),
    (CavityParams.from_cooperativity(0.0), 0.9),  # infeasible rows
], ids=["x1", "x0.3-f", "x0"])
def test_n_evals_counts_closed_form_evaluations(monkeypatch, scheme, kernel,
                                                params, f_target):
    calls = _count_calls(monkeypatch, kernel)
    res = optimize(params, scheme, f_target)
    assert res.n_evals == len(calls) > 0


def test_n_evals_is_hidden_from_repr_and_equality():
    res = optimize_coherent_single(P1, 0.9)
    assert "n_evals" not in repr(res)
    assert dataclasses.replace(res, n_evals=None) == res


def test_coherent_single_row_needs_under_2000_evaluations():
    # the plain bisection made 4,347 kernel calls for this row
    res = optimize_coherent_single(P1, 0.9)
    assert res.n_evals < 2000


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


def test_dispatcher_accepts_scheme_values():
    for scheme in Scheme:
        res = optimize(P1, scheme, 0.8)
        assert isinstance(res, OptimizationResult)
        assert res.scheme == scheme
    res = optimize(P1, "fock-single", 0.8)  # plain strings coerce
    assert res.scheme is Scheme.FOCK_SINGLE


def test_default_grid_shape():
    grid = default_x_grid()
    assert len(grid) == 40
    assert math.isclose(grid[0], 0.05, rel_tol=1e-12)
    assert math.isclose(grid[-1], 2.0, rel_tol=1e-12)
    assert all(a < b for a, b in zip(grid, grid[1:]))


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(x_grid=(), eta=1.0, f_target=0.9, scheme=Scheme.FOCK_SINGLE)
    with pytest.raises(ValueError):
        SweepSpec(x_grid=(1.0, 0.5), eta=1.0, f_target=0.9,
                  scheme=Scheme.FOCK_SINGLE)


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
