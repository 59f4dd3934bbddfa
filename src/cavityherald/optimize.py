"""Maximize heralding success probability at a fixed fidelity floor.

In every scheme the fidelity falls as the success probability rises, so the
optimum sits on the floor. The optimizers solve for it exactly:
- Fock single: the floor fixes the angle in closed form;
- Fock double: the angle is pinned and only feasibility is checked;
- coherent double: the largest feasible photon budget, found where
  F - F_target changes sign;
- coherent single: the floor fixes the angle in closed form at every budget,
  and the success probability on the floor is maximized over the budget
  from a coarse grid and a search on the sign of its derivative. Only the
  grid points that can hold the optimum are evaluated: a bisection cuts the
  grid above the feasible budgets, and a bound on P_s that rises in the
  budget, A u (2 + k)/(1 + u)^2 (see `optimize_coherent_single`), cuts it
  below the best value found. A row takes 25.7 evaluations on average over
  the figure ranges, against about 130 for the whole grid.
Each budget search (`_search`) runs capped regula falsi on the signed value
and then bisects, to float adjacency. Every search is deterministic, with
no RNG, so identical inputs give bit-identical results.

Every optimizer hands the closed form's outcome at its answer to `_result`,
and `_result` alone decides the row's status: "ok" only where that outcome
has an F of at least f_target - _CONSTRAINT_TOL, else infeasible. So no
optimizer can return an "ok" row off its floor. An outcome is undefined
only where no click can occur (eta = 0 or x_eff = 0), so a row whose P_s
rounds to a subnormal or 0 at a tiny cooperativity is "ok" on its floor.
"""

import itertools
import math
from collections.abc import Callable

from . import protocol
# the scheme table and the default grid are re-exported from where they live
from .core import (CavityParams, Record, _check_x, _frozen, _linspace,
                   default_x_grid, with_cooperativity)
from .protocol import STATUS_OK, Scheme

N_MAX_CEILING = 1e3  # photon-budget search cap; all exponentials saturate below it
_CONSTRAINT_TOL = 1e-9
_FALSI_STEPS = 20  # regula falsi steps of a budget search before it bisects
_ZERO_STEP = 1 / 256  # share of the bracket a search steps past a zero

STATUS_INFEASIBLE = "infeasible"
_SCHEMES = {s.value: s for s in Scheme}  # a member hashes as its name


class OptimizationResult(Record, hidden=("n_evals", "budget_capped")):
    """One optimizer answer; `n_max_opt` is None for the Fock schemes.
    `_result` decides `status` for every optimizer: "ok" only where the
    outcome at the answer has F >= f_target - _CONSTRAINT_TOL, else
    "infeasible", with P_s 0 and F, phi_opt and n_max_opt None.
    `n_evals` counts the closed-form evaluations the row took, and
    `budget_capped` says whether a coherent row's budget is N_MAX_CEILING
    (None for the Fock schemes, False for an infeasible coherent row). Both
    are left out of repr() and equality, so results compare and print by
    value."""

    x: float
    scheme: Scheme
    eta: float
    f_target: float
    phi_opt: float | None
    n_max_opt: float | None
    p_success: float
    fidelity_achieved: float | None
    status: str = STATUS_OK
    n_evals: int | None = None
    budget_capped: bool | None = None


class SweepSpec(Record):
    """Grid request for figure-style data series. Each row's parameters are
    `base` at the row's cooperativity (`with_cooperativity`); with no base,
    the base is `CavityParams.from_cooperativity(0.0, eta=eta)`. A base must
    have the spec's eta, so that eta has one value."""

    x_grid: tuple[float, ...]
    eta: float
    f_target: float
    scheme: Scheme
    base: CavityParams | None = None

    def _post_init(self) -> None:
        if len(self.x_grid) == 0:
            raise ValueError("x_grid must be nonempty")
        if any(b <= a for a, b in zip(self.x_grid, self.x_grid[1:])):
            raise ValueError("x_grid must be strictly increasing")
        for x in self.x_grid:
            _check_x(x)
        if self.base is not None and self.base.eta != self.eta:
            raise ValueError(f"the base's eta = {self.base.eta} differs "
                             f"from the spec's eta = {self.eta}")


# coherent-single budgets: 121 log-spaced, 10 per decade, exact endpoints
_COARSE_GRID = (1e-9, *[10.0 ** y for y in _linspace(
    -9.0, math.log10(N_MAX_CEILING), 121)[1:-1]], N_MAX_CEILING)


def _check_target(f_target: float) -> None:
    if not 0.5 < f_target < 1.0:
        raise ValueError("f_target must lie in (0.5, 1)")


def _result(params: CavityParams, scheme: Scheme, f_target: float,
            n_evals: int, out: protocol.SchemeOutcome | None = None,
            phi: float | None = None,
            n_max: float | None = None) -> OptimizationResult:
    # the row rule: the row for outcome `out` at (phi, n_max) is "ok" only
    # where out has an F on the floor, to _CONSTRAINT_TOL; else infeasible
    fid = None if out is None else out.fidelity
    if fid is None or not fid >= f_target - _CONSTRAINT_TOL:
        fid = phi = n_max = None
    row = _frozen(OptimizationResult)
    row.__dict__.update(
        x=params.cooperativity, scheme=scheme, eta=params.eta,
        f_target=f_target, phi_opt=phi, n_max_opt=n_max,
        p_success=0.0 if fid is None else out.p_success,
        fidelity_achieved=fid,
        status=STATUS_INFEASIBLE if fid is None else STATUS_OK,
        n_evals=n_evals,
        budget_capped=(n_max == N_MAX_CEILING if "n_max" in scheme.needs
                       else None))
    return row


def _search(value: Callable[[float], float], lo: float, hi: float,
            v_lo: float, v_hi: float) -> float:
    """The last float lo with value(lo) >= 0 once [lo, hi] is narrowed to
    float adjacency, given v_lo = value(lo) >= 0 and not v_hi = value(hi) >= 0.

    The first _FALSI_STEPS steps are regula falsi with the Illinois
    modification (Dowell & Jarratt, BIT 11, 168, 1971): each goes to the
    secant root of the two ends, and an end kept for a second step in a row
    has its value halved. A value of exactly 0 at lo puts the crossing
    within rounding above lo but gives the secant no scale, so the step
    goes _ZERO_STEP of the bracket past lo instead. A step bisects when the
    secant is not finite or not strictly inside the bracket, as with a -inf
    end; later steps all bisect. Only the sign of value decides which end
    moves, so where value >= 0 is monotone in the budget the result is the
    one a plain bisection finds.
    """
    moved = 0  # +1 when the last step moved lo, -1 when it moved hi
    for step in itertools.count():
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return lo
        x = mid
        if step < _FALSI_STEPS:
            w = v_lo / (v_lo - v_hi) if v_lo > 0.0 else _ZERO_STEP
            x = lo + (hi - lo) * w
            if not lo < x < hi:
                x = mid
        v = value(x)
        if v >= 0.0:
            if moved > 0:
                v_hi *= 0.5
            lo, v_lo, moved = x, v, 1
        else:
            if moved < 0:
                v_lo *= 0.5
            hi, v_hi, moved = x, v, -1


def optimize_fock_single(params: CavityParams,
                         f_target: float) -> OptimizationResult:
    """Best preparation angle for the single-click Fock scheme.

    F = 1 / (1 + tan^2(phi) R2 / (2 R1)) is strictly decreasing in phi while
    P_s grows with p1, so the optimum sits exactly on the constraint:
    tan^2(phi) = 2 (R1/R2) (1 - F) / F and P_s = eta p1 R1 / F. The row
    reports `protocol.fock_single` at that angle, and is infeasible where
    that outcome is undefined (eta = 0). R1/R2 is taken as 1/rho, a normal
    float at every x, so the angle keeps its digits where R1 underflows.
    """
    _check_target(f_target)
    tan2 = 2.0 / params._ratios[1] * (1.0 - f_target) / f_target
    phi = math.atan(math.sqrt(tan2))
    return _result(params, Scheme.FOCK_SINGLE, f_target, 1,
                   protocol.fock_single(params, phi), phi)


def optimize_fock_double(params: CavityParams,
                         f_target: float) -> OptimizationResult:
    """Double-click Fock scheme: phi is pinned to pi/4 and the heralded state
    is pure (F = 1 at f = 0), so the constraint never binds; infeasible only
    when the mirror fidelity itself falls below target or is undefined."""
    _check_target(f_target)
    return _result(params, Scheme.FOCK_DOUBLE, f_target, 1,
                   protocol.fock_double(params), math.pi / 4)


def optimize_coherent_single(params: CavityParams,
                             f_target: float) -> OptimizationResult:
    """Best (phi, n_max) for the single-click coherent scheme.

    At every budget n_max the fidelity falls and P_s rises in t = tan^2(phi),
    so the best angle puts F exactly on the floor, at the closed-form
    t*(n_max) of `protocol._coherent_single_floor`. That leaves one variable:
    P_s on the floor, P*(n_max), is evaluated with its closed-form slope on
    the part of a coarse log grid that can hold the optimum:
    - upper cut: C/A = a/(a + lambda) (1 - e^{-(a+lambda)n})/(1 - e^{-an})
      falls in n, because z/(e^z - 1) falls in z, so the budgets where an
      angle meets the floor, (1 + C/A)/2 > f_target and P* > 0, form an
      interval (0, n_feas). A bisection over the grid's
      indices finds its first point above n_feas. That point is evaluated,
      since the cell below it is searched; no point above it is.
    - lower cut: C <= A, so t* <= u = k A/B with k = 2 (1 - f_target)/
      f_target, and P_s rises in t, so P* <= A u (2 + k)/(1 + u)^2
      = (2 + k)/k B (u/(1 + u))^2, the floor's cap. The cap rises in n:
      B rises, and B/A falls, so u rises. As u <= k, the cap lies below
      k (2 + k)/(1 + k)^2 B < B <= b n_max, so no other bound on P* is
      tighter. The computed P* obeys it to the rounding of t*'s numerator,
      about eps/(1 - f_target) relative where C/A = 1 and the cap is
      tight. So the grid is walked down from n_feas, and the walk stops at
      the first point n_k where 1.25 times the cap at n_k lies below the
      best P* so far: no grid point or searched peak below n_k can beat it.
    Every point skipped has P* below the best one evaluated, so the row is
    the one the whole grid gives. The cuts rest on the exact sign of t* and
    on the cap, so the whole grid is evaluated where 1 - f_target is
    below 1e-12, so that rounding can decide the sign of t* at any budget,
    and where the first budget admits no angle. P*, its cap and its
    slope are compared over a, as `protocol._coherent_single_floor` gives
    them, so the cuts and the search work alike where P* itself underflows.

    Every grid cell where the slope turns negative is searched to float
    adjacency on the slope's sign (`_search`), with the grid's slopes as the
    values at the cell's ends, and each search's answer keeps the floor the
    search took there. The best of these local maxima, the ceiling
    N_MAX_CEILING when P* still rises there, and the best grid point wins.
    The row is infeasible when the outcome there has no F or misses the
    floor by more than _CONSTRAINT_TOL: where no click can occur (eta = 0
    or x_eff = 0), the search runs on the floor's limit and the closed form
    is undefined.
    """
    _check_target(f_target)
    # the rates are fixed for the row, so each step evaluates only the
    # closed form itself
    floor = protocol._coherent_single_floor
    r1, _, lam = params._rates
    a = params.eta * r1
    ratios = params._ratios
    grid = _COARSE_GRID
    coarse = [None] * len(grid)  # grid index -> (t*, P*/a, rise, cap)
    low, top = 0, len(grid)  # the whole grid, unless cut
    if f_target <= 1.0 - 1e-12:
        coarse[0] = cur = floor(a, lam, ratios, f_target, grid[0])
        if cur[1] > 0.0:
            # upper cut: `top` is the first grid point with P* = 0
            while top - low > 1:
                mid = (low + top) // 2
                coarse[mid] = cur = floor(a, lam, ratios, f_target, grid[mid])
                if cur[1] > 0.0:
                    low = mid
                else:
                    top = mid
            # lower cut: 1.25 times the floor's cap, over a like P*, leaves
            # room for rounding
            cur = coarse[low]
            high = cur[1]  # the best P* so far
            while low > 0 and not 1.25 * cur[3] < high:
                low -= 1
                cur = coarse[low]
                if cur is None:
                    coarse[low] = cur = floor(a, lam, ratios, f_target,
                                              grid[low])
                high = max(high, cur[1])
    top = min(top + 1, len(grid))
    for k in range(low, top):
        if coarse[k] is None:
            coarse[k] = floor(a, lam, ratios, f_target, grid[k])
    n_evals = len(grid) - coarse.count(None)
    coarse = coarse[low:top]
    grid = grid[low:top]
    p_star = [ps for _, ps, _, _ in coarse]
    best = p_star.index(max(p_star))  # the first of equals
    if p_star[best] <= 0.0:  # no budget admits an angle on the floor
        return _result(params, Scheme.COHERENT_SINGLE, f_target, n_evals)
    held = None  # (n_max, floor) at the last budget where P* rose

    def rise(nm: float) -> float:
        nonlocal n_evals, held
        n_evals += 1
        cur = floor(a, lam, ratios, f_target, nm)
        if cur[2] >= 0.0:
            held = nm, cur
        return cur[2]

    # P* rises where its rise is >= 0, so each grid cell where that stops
    # holds a local maximum, and so does the ceiling if P* still rises
    # there. P* can have two, a peak and then a plateau approached from
    # below, so all of them compete, with the best grid point. The grid's
    # rises are the ends of each cell's search. A search ends on the last
    # budget where P* rose, so its floor is the one `rise` held last, or,
    # where no step rose, the cell's lower end's
    rises = [r for _, _, r, _ in coarse]
    found = []
    for k in range(len(grid) - 1):
        if rises[k] >= 0.0 and not rises[k + 1] >= 0.0:
            held = None
            nm = _search(rise, grid[k], grid[k + 1], rises[k], rises[k + 1])
            found.append(held or (nm, coarse[k]))
    if rises[-1] >= 0.0:
        found.append((grid[-1], coarse[-1]))
    found.append((grid[best], coarse[best]))
    nm, (t, _, _, _) = max(found, key=lambda c: c[1][1])  # first of equals
    phi = math.atan(math.sqrt(t))
    return _result(params, Scheme.COHERENT_SINGLE, f_target, n_evals + 1,
                   protocol.coherent_single(params, phi, nm), phi, nm)


def optimize_coherent_double(params: CavityParams,
                             f_target: float) -> OptimizationResult:
    """Best photon budget for the double-click coherent scheme (phi = pi/4).

    F(n_max) = 1/2 + 1/2 E[e^{-lambda S} | S <= n_max], with S the Erlang-2
    photon total, falls from 1 toward its infinite-budget limit: a larger
    budget adds only mass at S > n_max, where e^{-lambda S} lies below every
    value already averaged. So the best budget is the largest feasible one,
    the last float where F - f_target >= 0, found by `_search`. When the
    limit still clears the target the budget cap is returned and P_s sits
    on its 1/2 plateau.
    """
    _check_target(f_target)
    terms = protocol._double_click_terms
    eta, lam, q = params.eta, params._rates[2], params._ratios[0]
    n_evals = 0

    def margin(nm: float) -> float:
        # F - f_target, whose sign is exact; a n as `coherent_double` forms it
        nonlocal n_evals
        n_evals += 1
        an = eta * nm * q * q
        return 0.5 + terms(an, an + lam * nm)[1] - f_target

    lo, hi = 1e-9, N_MAX_CEILING
    v_lo = margin(lo)
    if not v_lo >= 0.0:
        return _result(params, Scheme.COHERENT_DOUBLE, f_target, n_evals)
    v_hi = margin(hi)
    nm = hi if v_hi >= 0.0 else _search(margin, lo, hi, v_lo, v_hi)
    return _result(params, Scheme.COHERENT_DOUBLE, f_target, n_evals + 1,
                   protocol.coherent_double(params, nm), math.pi / 4, nm)


def optimize(params: CavityParams, scheme: Scheme,
             f_target: float) -> OptimizationResult:
    """Dispatch to the per-scheme optimizer; `scheme` is a member or its
    name."""
    try:
        member = _SCHEMES[scheme]
    except (KeyError, TypeError):  # the Enum call raises its ValueError
        member = Scheme(scheme)
    return member.optimizer(params, f_target)


def sweep(spec: SweepSpec) -> list[OptimizationResult]:
    """One optimization per grid point, row-ordered by x.

    Infeasible points are recorded in-row with status "infeasible"; the sweep
    never aborts. Rows are independent, so the output does not depend on
    evaluation order.
    """
    base = spec.base or CavityParams.from_cooperativity(0.0, eta=spec.eta)
    rows = []
    for x in spec.x_grid:
        row = optimize(with_cooperativity(base, x), spec.scheme, spec.f_target)
        rows.append(row.replace(x=float(x)))
    return rows
