"""The paper's closed forms, written apart from the package, in numpy.

Every workload checks the program's outputs against these. Nothing here
imports `cavityherald`; the formulas are taken from the paper (resonant
two-sided cavity, rates in units of gamma) and broadcast over arrays.
"""

from __future__ import annotations

import math

import numpy as np

_FACTORIALS = np.array([float(math.factorial(k)) for k in range(2, 40)])
_POWERS = np.arange(2, 40)


def reflection(x, n):
    """R_N = (4Nx / (1 + 4Nx))^2."""
    c = 4.0 * n * np.asarray(x, dtype=float)
    return (c / (1.0 + c)) ** 2


def transmission(x, n):
    """T_N = 1 / (1 + 4Nx)^2."""
    return 1.0 / (1.0 + 4.0 * n * np.asarray(x, dtype=float)) ** 2


def loss(x, n):
    """lambda_N = 2 (4Nx) / (1 + 4Nx)^2."""
    c = 4.0 * n * np.asarray(x, dtype=float)
    return 2.0 * c / (1.0 + c) ** 2


def populations(phi):
    """(p0, p1, p2) of (cos phi |0> + sin phi |1>)^(x2)."""
    s2 = np.sin(phi) ** 2
    c2 = np.cos(phi) ** 2
    return c2 * c2, 2.0 * s2 * c2, s2 * s2


def fock_single(x, eta, phi):
    """(P_s, F) with one photon and one click: P_s = eta (p1 R1 + p2 R2),
    F = p1 R1 / (p1 R1 + p2 R2)."""
    _, p1, p2 = populations(phi)
    good = p1 * reflection(x, 1)
    denom = good + p2 * reflection(x, 2)
    return eta * denom, good / denom


def fock_single_optimum(x, eta, f_target):
    """(phi, P_s) on the fidelity floor: tan^2 phi = 2 (R1/R2)(1-F)/F and
    P_s = eta p1 R1 / F."""
    r1, r2 = reflection(x, 1), reflection(x, 2)
    phi = np.arctan(np.sqrt(2.0 * (r1 / r2) * (1.0 - f_target) / f_target))
    _, p1, _ = populations(phi)
    return phi, eta * p1 * r1 / f_target


def fock_double(x, eta):
    """(P_s, F) of the two-round Fock scheme at phi = pi/4 with f = 0."""
    return 0.5 * (eta * reflection(x, 1)) ** 2, 1.0


def coherent_single(x, eta, phi, n_max):
    """(P_s, F) of a coherent probe heralded by the first click within the
    photon budget n_max; a = eta R1 and the coherence decays at lambda_1."""
    _, p1, p2 = populations(phi)
    a = eta * reflection(x, 1)
    lam = loss(x, 1)
    one = -np.expm1(-a * n_max)
    ps = p1 * one + p2 * -np.expm1(-eta * reflection(x, 2) * n_max)
    coh = p1 * a / (a + lam) * -np.expm1(-(a + lam) * n_max)
    return ps, (p1 * one + coh) / (2.0 * ps)


def erlang2_cdf(z):
    """P(2, z) = 1 - (1 + z) e^{-z}, the chance that two unit-rate
    exponentials sum to at most z.

    Below z = 2 it is summed as e^{-z} sum_{k>=2} z^k / k!, a series of
    positive terms, so it keeps full relative precision as z -> 0.
    """
    z = np.asarray(z, dtype=float)
    small = np.minimum(z, 2.0)
    series = np.exp(-small) * np.sum(
        small[..., None] ** _POWERS / _FACTORIALS, axis=-1)
    return np.where(z < 2.0, series, 1.0 - (1.0 + z) * np.exp(-z))


def coherent_double(x, eta, n_max):
    """(P_s, F) of the two-round coherent scheme with n1 + n2 <= n_max:
    P_s = P(2, a n_max) / 2 and
    F = 1/2 + a^2 P(2, (a + lambda) n_max) / (4 (a + lambda)^2 P_s)."""
    a = eta * reflection(x, 1)
    b = a + loss(x, 1)
    ps = 0.5 * erlang2_cdf(a * n_max)
    return ps, 0.5 + a * a * erlang2_cdf(b * n_max) / (4.0 * b * b * ps)


def amplitudes(g, kappa_a, kappa_b, gamma, delta, omega, n_atoms):
    """Complex (r, t) at probe frequency omega, by solving the linearised
    Heisenberg-Langevin equations for the cavity field c and the N atomic
    coherences s_j at unit input:

        (kappa/2 - i omega) c + i g sum_j s_j = sqrt(kappa_a),
        i g c + (gamma/2 + i (delta - omega)) s_j = 0,

    then r = 1 - sqrt(kappa_a) c and t = -sqrt(kappa_b) c.
    """
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    dim = 1 + n_atoms
    m = np.zeros((omega.size, dim, dim), dtype=complex)
    m[:, 0, 0] = (kappa_a + kappa_b) / 2.0 - 1j * omega
    for j in range(1, dim):
        m[:, 0, j] = 1j * g
        m[:, j, 0] = 1j * g
        m[:, j, j] = gamma / 2.0 + 1j * (delta - omega)
    rhs = np.zeros((omega.size, dim, 1), dtype=complex)
    rhs[:, 0, 0] = math.sqrt(kappa_a)
    c = np.linalg.solve(m, rhs)[:, 0, 0]
    return 1.0 - math.sqrt(kappa_a) * c, -math.sqrt(kappa_b) * c


def brute_force_coherent_single(x, eta, f_target, phis, n_grid):
    """Largest P_s over a (phi, n_max) grid among points with F >= target;
    a lower bound on the true constrained optimum."""
    ps, fid = coherent_single(x, eta, phis[:, None], n_grid[None, :])
    feasible = fid >= f_target
    return float(np.max(np.where(feasible, ps, 0.0)))


def brute_force_coherent_double(x, eta, f_target, n_grid):
    """Largest P_s over an n_max grid among points with F >= target."""
    ps, fid = coherent_double(x, eta, n_grid)
    return float(np.max(np.where(fid >= f_target, ps, 0.0)))


def relative_error(got, want):
    """Elementwise |got - want| / |want| as one worst-case float."""
    got = np.asarray(got)
    want = np.asarray(want)
    return float(np.max(np.abs(got - want) / np.abs(want)))
