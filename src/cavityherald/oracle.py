"""Independent verification of the closed forms.

Three unrelated routes re-derive the protocol predictions:

- a weak-drive Lindblad master equation (full two-atom-plus-cavity model,
  nothing shared with the closed forms) for the reflection, transmission and
  scattering probabilities and the pair-coherence decay: one dense block
  generator, solved directly for the steady state, whose slowest eigenvalue
  gives the decay rate;
- Gauss-Legendre quadrature, on arrays, of the conditional fidelity against
  the first-click density for the coherent single-detection averages;
- Monte Carlo sampling of the two-round click process for the
  double-detection scheme, which also arbitrates between the corrected and
  uncorrected fidelity normalizations.

`run_verification_suite` bundles every comparison into a machine-readable
report for the command-line `verify` subcommand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import protocol
from .core import (
    CavityParams,
    reflection_probability,
    scattering_loss,
    transmission_probability,
)
from .protocol import STATUS_UNDEFINED, SchemeOutcome

WEAK_DRIVE_MAX = 1e-2
_TRUNCATION_POP_MAX = 1e-8
_RESIDUAL_TOL = 1e-10
# measured: |Im| / rate of xi's mode <= 4.1e-6 for x in [1e-10, 50]; at kappa
# = gamma the next mode decays >= 100 times faster up to WEAK_DRIVE_MAX
_DECAY_TURN_MAX = 1e-3
_DECAY_GAP_MIN = 10.0
# (nodes, weights) of GL64, and of GL32 for the error estimate |GL64 - GL32|
_GAUSS_RULES = tuple(np.polynomial.legendre.leggauss(k) for k in (64, 32))
MIN_SAMPLES = 10_000  # the Monte Carlo's floor for stable error estimates

# single-atom operators, levels ordered (|0>, |1>, |e>)
_LOWER_E1 = np.zeros((3, 3))
_LOWER_E1[1, 2] = 1.0  # |1><e|
_PROJ_E = np.diag([0.0, 0.0, 1.0])
_ID3 = np.eye(3)


class OracleDiagnosticError(RuntimeError):
    """A solve, eigenvalue or quadrature missed its convergence contract."""


def _kron3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    return np.kron(np.kron(a, b), c)


@dataclass(frozen=True)
class LindbladSystem:
    """Driven two-atom cavity master-equation generator.

    The Hilbert space is atom1 x atom2 x cavity with atom levels
    (|0>, |1>, |e>) and the cavity truncated at n_c photons; the basis index
    is (a1 * 3 + a2) * (n_c + 1) + n. The drive enters the Hamiltonian as
    i sqrt(kappa_a * flux) (c^dag - c), matching the input-output convention
    of the scattering amplitudes. `cavity_op` is c and `excited_number` the
    number of excited atoms, both on the full space.
    """

    params: CavityParams
    n_in_state_1: int
    n_c: int
    drive_flux: float
    hamiltonian: np.ndarray = field(repr=False)
    collapse_ops: tuple[np.ndarray, ...] = field(repr=False)
    cavity_op: np.ndarray = field(repr=False)
    excited_number: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return 9 * (self.n_c + 1)


def build_system(params: CavityParams, n_in_state_1: int, n_c: int = 3,
                 drive_flux: float = 1e-3) -> LindbladSystem:
    """Assemble Hamiltonian and collapse operators for the driven cavity.

    Parameters
    ----------
    params : CavityParams
        Cavity rates; the oracle models the two-mirror standing-wave cavity
        and rejects a counter-propagating mode (g_tilde > 0).
    n_in_state_1 : int
        How many atoms start in the coupled ground state |1> (0, 1, or 2);
        the remaining atoms start in |0> and stay there (no process couples
        |0> to anything).
    n_c : int
        Photon-number truncation, at least 2.
    drive_flux : float
        Input photon flux Phi in units of gamma, at most 1e-2 so that the
        drive stays weak.
    """
    if params.g_tilde > 0:
        raise ValueError("the oracle has no ring mode; g_tilde must be 0")
    if n_in_state_1 not in (0, 1, 2):
        raise ValueError("n_in_state_1 must be 0, 1, or 2")
    if n_c < 2:
        raise ValueError("photon truncation n_c must be at least 2")
    if drive_flux < 0:
        raise ValueError("drive_flux must be nonnegative")
    if drive_flux > WEAK_DRIVE_MAX * params.gamma:
        raise ValueError(f"drive_flux {drive_flux} exceeds the weak-drive "
                         f"guard {WEAK_DRIVE_MAX}")

    n_ph = n_c + 1
    ann = np.diag(np.sqrt(np.arange(1, n_ph)), k=1)
    id_ph = np.eye(n_ph)
    c_full = _kron3(_ID3, _ID3, ann)
    n_exc = _kron3(_PROJ_E, _ID3, id_ph) + _kron3(_ID3, _PROJ_E, id_ph)

    raise_e1 = _LOWER_E1.T  # |e><1|
    h = params.g * (_kron3(raise_e1, _ID3, ann) + _kron3(_ID3, raise_e1, ann))
    h = h + h.conj().T
    h = h + params.delta * n_exc
    amp = math.sqrt(params.kappa_a * drive_flux)
    h = h.astype(complex)
    h += 1j * amp * (c_full.conj().T - c_full)

    if np.max(np.abs(h - h.conj().T)) > 1e-12:
        raise AssertionError("hamiltonian failed the self-adjointness check")

    collapse = (
        math.sqrt(params.kappa_a) * c_full.astype(complex),
        math.sqrt(params.kappa_b) * c_full.astype(complex),
        math.sqrt(params.gamma) * _kron3(_LOWER_E1, _ID3, id_ph).astype(complex),
        math.sqrt(params.gamma) * _kron3(_ID3, _LOWER_E1, id_ph).astype(complex),
    )
    return LindbladSystem(params=params, n_in_state_1=n_in_state_1, n_c=n_c,
                          drive_flux=drive_flux, hamiltonian=h,
                          collapse_ops=collapse, cavity_op=c_full,
                          excited_number=n_exc)


def _sector(system: LindbladSystem, levels1: tuple[int, ...],
            levels2: tuple[int, ...]) -> np.ndarray:
    """Ascending flat basis indices with atom 1 in `levels1`, atom 2 in
    `levels2` and any photon number.

    Each atom's {|0>} vs {|1>, |e>} subspace is conserved (the drive couples
    only to the cavity and |0> is dark), so such sectors are invariant.
    """
    n_ph = system.n_c + 1
    return np.array([(a1 * 3 + a2) * n_ph + n
                     for a1 in levels1 for a2 in levels2 for n in range(n_ph)])


def _liouvillian(system: LindbladSystem, left: np.ndarray,
                 right: np.ndarray) -> np.ndarray:
    """Dense generator of the density-matrix block rho[left, right].

    Checks that no operator leads out of either sector, so the block evolves
    closed under the master equation.
    """
    for op in (system.hamiltonian,) + system.collapse_ops:
        for sel in (left, right):
            outside = np.setdiff1d(np.arange(system.dim), sel)
            if np.max(np.abs(op[np.ix_(outside, sel)])) > 0:
                raise AssertionError("sector is not invariant")
    h_l, h_r = (system.hamiltonian[np.ix_(s, s)] for s in (left, right))
    id_l, id_r = np.eye(len(left)), np.eye(len(right))
    # column-major vec convention: vec(X rho Y) = kron(Y.T, X) vec(rho)
    liou = -1j * (np.kron(id_r, h_l) - np.kron(h_r.T, id_l))
    for op in system.collapse_ops:
        d_l, d_r = (op[np.ix_(s, s)] for s in (left, right))
        liou = (liou + np.kron(d_r.conj(), d_l)
                - 0.5 * np.kron(id_r, d_l.conj().T @ d_l)
                - 0.5 * np.kron((d_r.conj().T @ d_r).T, id_l))
    return liou


def _solve_steady_vec(liou: np.ndarray, m: int) -> np.ndarray:
    """Steady-state vec(rho) by a direct dense solve with the trace
    condition in place of the first row; a residual above 1e-10 raises."""
    lhs = liou.copy()
    lhs[0, :] = 0.0
    lhs[0, ::m + 1] = 1.0  # the diagonal of rho sits at vec[k (m + 1)]
    rhs = np.zeros(m * m, dtype=complex)
    rhs[0] = 1.0
    vec = np.linalg.solve(lhs, rhs)
    residual = float(np.max(np.abs(liou @ vec)))
    if residual > _RESIDUAL_TOL:
        raise OracleDiagnosticError(
            f"steady-state solve missed its residual: {residual:.3e}")
    return vec


def steady_state_density_matrix(
        system: LindbladSystem) -> tuple[np.ndarray, np.ndarray]:
    """Steady-state density matrix on the invariant sector.

    Returns (rho, indices) where `indices` are the flat full-space basis
    indices spanning the sector of the initial atom configuration; the full
    null space is degenerate across sectors, so restricting to it makes the
    steady state unique. Validates trace, positivity, and the photon
    truncation (boundary population below 1e-8).
    """
    levels = [(1, 2) if system.n_in_state_1 > k else (0,) for k in (0, 1)]
    sel = _sector(system, *levels)
    m = len(sel)
    vec = _solve_steady_vec(_liouvillian(system, sel, sel), m)
    rho = vec.reshape((m, m), order="F")
    rho = 0.5 * (rho + rho.conj().T)

    trace_err = abs(np.trace(rho) - 1.0)
    if trace_err > 1e-10:
        raise OracleDiagnosticError(f"steady-state trace off by {trace_err:.3e}")
    min_eig = float(np.linalg.eigvalsh(rho).min())
    if min_eig < -1e-10:
        raise OracleDiagnosticError(
            f"steady state not positive semidefinite: min eigenvalue {min_eig:.3e}")
    n_ph = system.n_c + 1
    boundary = (sel % n_ph) == system.n_c
    boundary_pop = float(np.real(np.sum(np.diag(rho)[boundary])))
    if boundary_pop > _TRUNCATION_POP_MAX:
        raise OracleDiagnosticError(
            f"truncation too small: boundary population {boundary_pop:.3e}")
    return rho, sel


def steady_state_rt(system: LindbladSystem) -> tuple[float, float, float]:
    """Reflection, transmission, and scattering probabilities from the
    driven steady state.

    The reflected flux uses the exact output-flux expansion
    Phi - 2 sqrt(kappa_a) Re(alpha* <c>) + kappa_a <c^dag c> with
    alpha = sqrt(Phi); transmission is kappa_b <c^dag c>; scattering is
    gamma times the total excited-state population. All three are
    normalized by the input flux.
    """
    flux = system.drive_flux
    if flux <= 0:
        raise ValueError("steady_state_rt needs a nonzero drive")
    rho, sel = steady_state_density_matrix(system)
    block = np.ix_(sel, sel)
    c_r = system.cavity_op[block]
    proj_r = system.excited_number[block]

    exp_c = complex(np.trace(rho @ c_r))
    exp_n = float(np.real(np.trace(rho @ (c_r.conj().T @ c_r))))
    exp_e = float(np.real(np.trace(rho @ proj_r)))

    alpha = math.sqrt(flux)
    p = system.params
    refl = (flux - 2.0 * math.sqrt(p.kappa_a) * (alpha * exp_c).real
            + p.kappa_a * exp_n) / flux
    trans = p.kappa_b * exp_n / flux
    loss = p.gamma * exp_e / flux
    return refl, trans, loss


def coherence_decay_rate(system: LindbladSystem) -> float:
    """Decay rate of the pair coherence xi = <|0 1><1 0|> under weak drive.

    The density-matrix block connecting the (atom1 excited-manifold, atom2
    in |0>) sector to its mirror image evolves closed under the generator;
    after the cavity ring-up transient xi follows its slowest mode. Returns
    minus the real part of that mode's eigenvalue (positive sign). The
    closed-form prediction is lambda * Phi.

    Raises OracleDiagnosticError unless xi decays as one clean exponential:
    the mode turns by at most 1e-3 rad per e-fold, and the next mode decays
    at least ten times faster.
    """
    if system.drive_flux == 0 or system.params.g == 0:
        # no light, or atoms uncoupled from the cavity: xi is constant
        return 0.0

    liou = _liouvillian(system, _sector(system, (1, 2), (0,)),
                        _sector(system, (0,), (1, 2)))
    eigs = np.linalg.eigvals(liou)
    slow, rest = eigs[np.argsort(-eigs.real)[:2]]
    rate = -float(slow.real)
    if (abs(slow.imag) > _DECAY_TURN_MAX * rate
            or -rest.real < _DECAY_GAP_MIN * rate):
        raise OracleDiagnosticError(
            f"coherence decay is not one clean exponential: slowest "
            f"eigenvalues {slow:.3e} and {rest:.3e}")
    # eigvals errs by about eps |liou|, 1e-11 of the rate. With liou split at
    # xi's ground element vec[0] as [[a, b], [c, D]], two steps of the fixed
    # point mu = a + b (mu - D)^-1 c, contracting by rate / gap, remove that
    for _ in range(2):
        slow = liou[0, 0] + liou[0, 1:] @ np.linalg.solve(
            slow * np.eye(len(liou) - 1) - liou[1:, 1:], liou[1:, 0])
    return -float(slow.real)


def quadrature_single(params: CavityParams, phi: float,
                      n_max: float) -> SchemeOutcome:
    """Coherent single-detection averages by Gauss-Legendre quadrature.

    Integrates the first-click density, and the conditional fidelity and
    population against it, over the photon window; an independent route to
    the closed forms of `protocol.coherent_single`. GL64 runs on panels
    [0, 1], [1, 5], [5, 21], ... cut at n_max, each rule as one array over
    all nodes; an error estimate |GL64 - GL32| above 1e-9 max(1, integral)
    raises OracleDiagnosticError.
    """
    protocol._check_n_max(n_max)
    prep = protocol.initial_populations(phi)
    r1, r2, lam = params._rates
    edges = [0.0]
    while edges[-1] < n_max:
        edges.append(min(4.0 * edges[-1] + 1.0, n_max))
    lo, half = np.array(edges[:-1])[:, None], 0.5 * np.diff(edges)[:, None]
    sums = []
    for nodes, weights in _GAUSS_RULES:
        n = (lo + half * (nodes + 1.0)).ravel()
        one = params.eta * prep.p1 * r1 * np.exp(-params.eta * r1 * n)
        two = params.eta * prep.p2 * r2 * np.exp(-params.eta * r2 * n)
        # density, F_c and p1c times it; no division, so none is undefined
        values = (one + two, one * (1.0 + np.exp(-lam * n)) / 2.0, one)
        sums.append(np.stack(values) @ (half * weights).ravel())
    for name, value, coarse in zip(("success-probability", "fidelity",
                                    "population"), *sums):
        if abs(value - coarse) > 1e-9 * max(1.0, value):
            raise OracleDiagnosticError(
                f"{name} quadrature error {abs(value - coarse):.3e}")
    ps, num, pop = map(float, sums[0])
    if ps <= 0.0:
        return protocol._UNDEFINED
    fid, p1c = num / ps, pop / ps
    return SchemeOutcome(p_success=ps, fidelity=fid, p1_conditional=p1c,
                         re_coherence=fid - p1c / 2.0)


def monte_carlo_double(params: CavityParams, n_max: float, samples: int,
                       seed: int) -> SchemeOutcome:
    """Sample the two-round click process for the coherent double scheme.

    Each trial draws the atom-number sector with weights (1/4, 1/2, 1/4),
    the first click at exponential rate eta R_N, then swaps the sector
    (N -> 2 - N) and draws the second click; success means n1 + n2 <= n_max.
    The fidelity estimate is 1/2 + mean(e^{-lambda (n1+n2)})/2 over
    successes, with binomial / delta-method standard errors. R_N and lambda
    are the protocol's rates at the effective (ring-corrected) cooperativity.
    """
    if samples < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    protocol._check_n_max(n_max)

    r1, r2, lam = params._rates
    rates = params.eta * np.array([0.0, r1, r2])

    rng = np.random.default_rng(seed)
    sector = rng.choice(3, size=samples, p=[0.25, 0.5, 0.25])
    u1 = rng.random(samples)
    u2 = rng.random(samples)
    # a zero rate, or one so small that the wait overflows, never clicks
    with np.errstate(divide="ignore", over="ignore"):
        total = (-np.log(u1) / rates[sector]
                 - np.log(u2) / rates[2 - sector])
    success = total <= n_max
    n_success = int(success.sum())

    ps = n_success / samples
    ps_err = math.sqrt(ps * (1.0 - ps) / samples)
    if n_success == 0:
        return SchemeOutcome(p_success=ps, fidelity=None,
                             status=STATUS_UNDEFINED, p_success_err=ps_err,
                             n_success=0)
    weights = np.exp(-lam * total[success])
    fid = 0.5 + 0.5 * float(weights.mean())
    fid_err = (0.5 * float(weights.std(ddof=1)) / math.sqrt(n_success)
               if n_success > 1 else math.inf)
    return SchemeOutcome(p_success=ps, fidelity=fid, p1_conditional=1.0,
                         re_coherence=fid - 0.5, p_success_err=ps_err,
                         fidelity_err=fid_err, n_success=n_success)


# ---------------------------------------------------------------------------
# verification suite


def _check(name: str, observed: float, expected: float, tolerance: float,
           detail: str = "") -> dict:
    observed, expected, tolerance = (float(observed), float(expected),
                                     float(tolerance))
    entry = {
        "name": name,
        "observed": observed,
        "expected": expected,
        "tolerance": tolerance,
        "passed": bool(abs(observed - expected) <= tolerance),
    }
    if detail:
        entry["detail"] = detail
    return entry


def _steady_rt(x: float, n_atoms: int,
               drive_flux: float) -> tuple[float, float, float]:
    params = CavityParams.from_cooperativity(x)
    return steady_state_rt(build_system(params, n_atoms, drive_flux=drive_flux))


def _steady_deviation(x: float, n_atoms: int,
                      response: tuple[float, float, float]) -> float:
    targets = (reflection_probability(x, n_atoms),
               transmission_probability(x, n_atoms),
               scattering_loss(x, n_atoms))
    return max(abs(o - e) / max(e, 1e-12) for o, e in zip(response, targets))


def run_verification_suite(seed: int = 20240817,
                           samples: int = 1_000_000) -> dict:
    """Run every oracle-vs-closed-form comparison and report the results."""
    checks: list[dict] = []
    flux = 1e-3

    responses = {(n_atoms, x): _steady_rt(x, n_atoms, flux)
                 for n_atoms in (1, 2) for x in (0.25, 1.0, 2.0)}
    for (n_atoms, x), response in responses.items():
        checks.append(_check(
            f"steady-state response, N={n_atoms}, x={x}",
            observed=_steady_deviation(x, n_atoms, response), expected=0.0,
            tolerance=0.01,
            detail="max relative deviation of (R, T, loss) from the "
                   "closed forms at drive flux 1e-3"))

    dev3 = _steady_deviation(1.0, 1, responses[1, 1.0])
    dev4 = _steady_deviation(1.0, 1, _steady_rt(1.0, 1, 1e-4))
    checks.append(_check(
        "steady-state deviation shrinks with the drive",
        observed=dev4 / dev3, expected=0.0,
        tolerance=1.0,
        detail="deviation ratio at flux 1e-4 vs 1e-3; linear saturation "
               "scaling predicts ~0.1"))

    refl, trans, loss = responses[1, 1.0]
    checks.append(_check(
        "photon-flux conservation",
        observed=refl + trans + loss, expected=1.0,
        tolerance=1e-3,
        detail="R + T + loss at drive flux 1e-3 (an exact identity of the "
               "output-flux expansion, so the deviation is round-off)"))

    for x in (0.25, 1.0):
        params = CavityParams.from_cooperativity(x)
        system = build_system(params, 1, drive_flux=flux)
        rate = coherence_decay_rate(system)
        predicted = scattering_loss(x, 1) * flux
        checks.append(_check(
            f"pair-coherence decay rate, x={x}",
            observed=rate / predicted, expected=1.0,
            tolerance=0.02,
            detail="xi decay rate of the slowest mode over the prediction "
                   "loss * flux"))

    grid = [(x, eta, phi, n_max)
            for x in (0.25, 1.0, 2.0)
            for eta in (0.5, 1.0)
            for phi in (0.3, math.pi / 4)
            for n_max in (0.5, 2.0)][:20]
    worst = 0.0
    for x, eta, phi, n_max in grid:
        params = CavityParams.from_cooperativity(x, eta=eta)
        closed = protocol.coherent_single(params, phi, n_max)
        numeric = quadrature_single(params, phi, n_max)
        worst = max(worst,
                    abs(closed.p_success - numeric.p_success),
                    abs(closed.fidelity - numeric.fidelity))
    checks.append(_check(
        "coherent single detection: closed form vs quadrature",
        observed=worst, expected=0.0, tolerance=1e-8,
        detail=f"max |difference| in P_s and F over a {len(grid)}-point grid"))

    params = CavityParams.from_cooperativity(1.0)
    closed = protocol.coherent_double(params, 2.0)
    mc = monte_carlo_double(params, 2.0, samples, seed)
    checks.append(_check(
        "coherent double detection: Monte Carlo vs closed form, P_s",
        observed=mc.p_success, expected=closed.p_success,
        tolerance=3.0 * mc.p_success_err,
        detail=f"{samples} samples, seed {seed}"))
    checks.append(_check(
        "coherent double detection: Monte Carlo vs closed form, F",
        observed=mc.fidelity, expected=closed.fidelity,
        tolerance=3.0 * mc.fidelity_err,
        detail=f"{samples} samples, seed {seed}"))

    uncorrected = protocol.coherent_double_fidelity_uncorrected(params, 2.0)
    checks.append({
        "name": "uncorrected double-click fidelity exceeds 1 (discrepancy on record)",
        "observed": uncorrected,
        "expected": ">1",
        "tolerance": 0.0,
        "passed": bool(uncorrected > 1.0),
        "detail": (f"uncorrected {uncorrected:.6f} vs corrected "
                   f"{closed.fidelity:.6f} vs Monte Carlo {mc.fidelity:.6f} "
                   f"+- {mc.fidelity_err:.6f}; the Monte Carlo estimate "
                   "arbitrates for the corrected normalization"),
    })

    n_failed = sum(not c["passed"] for c in checks)
    return {
        "passed": n_failed == 0,
        "n_checks": len(checks),
        "n_failed": n_failed,
        "seed": seed,
        "samples": samples,
        "checks": checks,
    }
