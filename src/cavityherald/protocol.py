"""Success probability and fidelity of the four heralding schemes.

Two atoms are prepared in (cos(phi)|0> + sin(phi)|1>)^x2 and probed through
the cavity; detecting reflected light heralds the odd EPR state
(|01> + |10>)/sqrt(2). Single- and double-detection variants exist for both
Fock-state and coherent-state input light.

Every formula evaluates the cooperativity through
`effective_cooperativity_ring`, so ring-cavity parameter sets transparently
apply the reduced coupling in both the reflection probabilities and the
scattering loss. Asymmetric mirrors and a detuned cavity are not modelled
and raise ValueError, and so does a spurious-reflection fraction f > 0
everywhere but in `fock_double` and `false_reflection_fidelity`.

Each closed form is one expression in ratios that are normal floats for
every accepted input: rho = R2/R1 and a/lambda, taken from x (the set's
`_ratios`), the scaled click probability E1(z) = (1 - e^{-z})/z and the
scaled Erlang-2 CDF. So F keeps its digits where R1 = 16 x^2 or eta R1
underflows, and only P_s scales with x and may round to a subnormal or 0.
An outcome is "undefined" only where no click can occur in exact
arithmetic: eta = 0, x_eff = 0 (where lambda = 0), or no population that
can click (phi = 0).

`Scheme`, the scheme table, lives here beside the closed forms it names, so
a command that evaluates one scheme loads no optimizer.
"""

import enum
import math

from .core import CavityParams, Record, _cached

STATUS_OK = "ok"
STATUS_UNDEFINED = "undefined"


class Preparation(Record):
    """Initial atom-number populations for preparation angle phi."""

    phi: float
    p0: float
    p1: float
    p2: float


class SchemeOutcome(Record):
    """Result of one heralding scheme.

    `status` is "undefined" only where no click can occur in exact
    arithmetic; `fidelity` is then None rather than NaN so sweeps can skip
    the point. Where a click can occur but P_s rounds to 0, the outcome is
    "ok" with P_s = 0. Diagnostics, when present, satisfy
    fidelity = p1_conditional / 2 + re_coherence exactly. Monte Carlo
    estimates additionally carry standard errors and the success count.
    """

    p_success: float
    fidelity: float | None
    status: str = STATUS_OK
    p1_conditional: float | None = None
    re_coherence: float | None = None
    p_success_err: float | None = None
    fidelity_err: float | None = None
    n_success: int | None = None


# what every scheme returns where no click can occur
_UNDEFINED = SchemeOutcome(0.0, None, STATUS_UNDEFINED)


def _populations(phi: float) -> tuple[float, float, float, float]:
    # (t, p0, p1, p2): t = tan^2(phi) = 2 p2/p1 is the one number through
    # which the populations enter a ratio, and p0 = 1/(1 + t)^2,
    # p1 = 2t/(1 + t)^2 and p2 = t^2/(1 + t)^2 are taken from it
    if not 0.0 <= phi <= math.pi / 2:
        raise ValueError(f"phi must lie in [0, pi/2], got {phi}")
    t = math.tan(phi)
    t *= t
    v = 1.0 / (1.0 + t)
    u = t * v
    return t, v * v, 2.0 * u * v, u * u


def _check_n_max(n_max: float) -> None:
    if not 0.0 < n_max < math.inf:
        raise ValueError(f"n_max must be positive and finite, got {n_max}")


def initial_populations(phi: float) -> Preparation:
    """Populations of the 0-, 1-, and 2-atom sectors after preparation.

    p0 = cos^4(phi), p1 = 2 sin^2(phi) cos^2(phi), p2 = sin^4(phi).
    """
    return Preparation(phi, *_populations(phi)[1:])


def fock_single(params: CavityParams, phi: float) -> SchemeOutcome:
    """Single-photon input, herald on one reflected-photon click.

    P_s = eta (p1 R1 + p2 R2). Conditioned on the click there has been no
    spontaneous emission, so Re xi = p1c / 2 and

        F = p1 R1 / (p1 R1 + p2 R2) = 1 / (1 + tan^2(phi) rho / 2),

    with rho = R2/R1, independent of eta. F takes the second form, whose
    terms are normal floats for every x > 0, so only P_s scales with x and
    may round to a subnormal or 0. Undefined only where no click can occur:
    eta = 0, x_eff = 0 or phi = 0.
    """
    t, _, p1, p2 = _populations(phi)
    r1, r2, lam = params._rates
    if params.eta == 0.0 or lam == 0.0 or phi == 0.0:
        return _UNDEFINED
    fid = 1.0 / (1.0 + 0.5 * t * params._ratios[1])
    return SchemeOutcome._make(params.eta * (p1 * r1 + p2 * r2), fid,
                              STATUS_OK, fid, fid / 2.0)


def fock_double(params: CavityParams) -> SchemeOutcome:
    """Two-round Fock scheme: click, swap |0> <-> |1>, click again.

    Preparation is fixed at phi = pi/4. Only the single-excitation sector can
    reflect in both rounds (the swap maps N to 2 - N and R0 = 0), so
    P_s = eta^2 R1^2 / 2 and the heralded state is pure: F = 1 for an ideal
    mirror. F is `false_reflection_fidelity` at every spurious-reflection
    fraction params.f, 1 at f = 0, while P_s keeps its ideal-model form. F
    is undefined where no click can occur: eta = 0, or x_eff = 0 at f = 0.
    """
    r1, _, lam = params._mirror_rates
    if params.eta == 0.0 or (lam == 0.0 and params.f == 0.0):
        return _UNDEFINED
    fid = false_reflection_fidelity(params, params.f)
    return SchemeOutcome._make(0.5 * (params.eta * r1) ** 2, fid, STATUS_OK,
                              1.0, fid - 0.5)


def false_reflection_fidelity(params: CavityParams, f: float) -> float:
    """Double-detection Fock fidelity when a fraction f of photons reflects
    off the mirror surface without entering the cavity.

    F = c1^2 / (c1^2 + f c2) with c_N = R_N (1-f) + f; the spurious channel
    lets the two-atom sector double-click as well. It is taken as
    F = 1 / (1 + w c2/c1) with w = f/c1 and c2/c1 = 1 + (rho - 1)(1 - w),
    rho = R2/R1, and w is formed over s = q + f, with q = sqrt(R1):
    w = (f/s) / (f/s + (q/s) q (1-f)). Each ratio lies in [0, 1], so none
    overflows, and a term that underflows is one that cannot move F. F = 1
    exactly at f = 0. ValueError where no click can occur (x_eff = 0 at
    f = 0).
    """
    if not 0.0 <= f < 1.0:
        raise ValueError("f must lie in [0, 1)")
    q, _, rho_1, _ = params._ratios
    s = q + f
    if s == 0.0:
        raise ValueError("no click can occur: x = 0 at f = 0")
    fs = f / s
    w = fs / (fs + q / s * q * (1.0 - f))
    return 1.0 / (1.0 + w * (1.0 + rho_1 * (1.0 - w)))


def coherent_conditional_population(params: CavityParams, phi: float,
                                    n: float) -> float | None:
    """Single-excitation-sector population conditioned on a first click at
    mean photon number n.

    p1c(n) = p1 R1 e^{-eta R1 n} / (p1 R1 e^{-eta R1 n} + p2 R2 e^{-eta R2 n})
           = 1 / (1 + (tan^2(phi) / 2) rho e^{-(rho - 1) eta R1 n}),

    taken in the second form, with rho = R2/R1; None where no click can
    occur (x_eff = 0 or phi = 0). At n = 0 this is the Fock-single fidelity
    ratio; for n -> infinity it tends to 1 because R1 < R2 makes the
    one-atom exponential the slower one.
    """
    if not 0.0 <= n < math.inf:
        raise ValueError(f"n must be nonnegative and finite, got {n}")
    t = _populations(phi)[0]
    _, _, lam = params._rates
    q, rho, rho_1, _ = params._ratios
    if lam == 0.0 or phi == 0.0:
        return None
    an = params.eta * n * q * q
    return 1.0 / (1.0 + 0.5 * t * rho * math.exp(-rho_1 * an))


def coherent_conditional_fidelity(params: CavityParams, phi: float,
                                  n: float) -> float | None:
    """Fidelity conditioned on a first click at mean photon number n.

    The atomic coherence decays by e^{-lambda n} under the resonant drive, so
    F_c(n) = p1c(n) (1 + e^{-lambda n}) / 2. None when p1c is undefined.
    """
    p1c = coherent_conditional_population(params, phi, n)
    if p1c is None:
        return None
    _, _, lam = params._rates
    return p1c * (1.0 + math.exp(-lam * n)) / 2.0


def first_click_density(params: CavityParams, phi: float, n: float) -> float:
    """Probability density of the first click in mean photon number n.

    dP/dn = eta p1 R1 e^{-eta R1 n} + eta p2 R2 e^{-eta R2 n}; integrates to
    p1 + p2 over [0, infinity) at eta = 1.
    """
    if not 0.0 <= n < math.inf:
        raise ValueError(f"n must be nonnegative and finite, got {n}")
    _, _, p1, p2 = _populations(phi)
    r1, r2, _ = params._rates
    return params.eta * (p1 * r1 * math.exp(-params.eta * r1 * n)
                         + p2 * r2 * math.exp(-params.eta * r2 * n))


def coherent_single(params: CavityParams, phi: float,
                    n_max: float) -> SchemeOutcome:
    """Coherent input, herald on the first click within photon budget n_max.

    P_s = p1 (1 - e^{-eta R1 n_max}) + p2 (1 - e^{-eta R2 n_max}).
    F is the click-averaged conditional fidelity; with a = eta R1,

        F = p1 [ (1 - e^{-a n_max})
                 + a/(a + lambda) (1 - e^{-(a + lambda) n_max}) ] / (2 P_s),

    which equals the quadrature of F_c(n) dP/dn over the window exactly.
    Diagnostics report the click-averaged p1c and coherence term.

    With A, B and C the bracketed terms of P_s and F, t = tan^2(phi),
    rho = R2/R1, k = a/lambda = 2 eta x, n = n_max and the scaled click
    probability E1(z) = (1 - e^{-z})/z, 1 at z = 0, which falls from 1 to
    1/z, F is taken from ratios whose terms are normal floats for every
    accepted input:

        B/A = 1 + e^{-a n} (rho - 1) E1((rho - 1) a n) / E1(a n),
        C/A = (k + e^{-a n} E1(lambda n) / E1(a n)) / (k + 1),
        p1c = 1 / (1 + (t/2) B/A),   coherence = p1c (C/A) / 2.

    Each is exact where the clicks saturate (e^{-a n} rounds to 0) and
    where a n underflows (E1 = 1). a n = eta n_max R1 is multiplied from
    n_max down, so that no factor underflows before the product does. So
    only P_s scales with x, and it may round to a subnormal or 0. Undefined
    only where no click can occur: eta = 0, x_eff = 0 or phi = 0.
    """
    _check_n_max(n_max)
    t, _, p1, p2 = _populations(phi)
    lam = params._rates[2]
    q, _, rho_1, k = params._ratios
    if params.eta == 0.0 or lam == 0.0 or phi == 0.0:
        return _UNDEFINED
    an = params.eta * n_max * q * q
    bn, ln = rho_1 * an, lam * n_max  # (b - a) n and lambda n
    click1, gap = -math.expm1(-an), -math.expm1(-bn)  # B = A + e^{-a n} gap
    inv = an / click1 if an else 1.0  # 1 / E1(a n)
    e = 1.0 - click1  # e^{-a n}, as accurately as B/A and C/A need it
    b_a = 1.0 + e * rho_1 * (gap / bn if bn else 1.0) * inv
    c_a = (k + e * (-math.expm1(-ln) / ln if ln else 1.0) * inv) / (k + 1.0)
    p1c = 1.0 / (1.0 + 0.5 * t * b_a)
    coh = p1c * c_a / 2.0
    return SchemeOutcome._make(p1 * click1 + p2 * (click1 + e * gap),
                              p1c / 2.0 + coh, STATUS_OK, p1c, coh)


def _coherent_single_floor(
        a: float, lam: float, ratios: tuple[float, float, float, float],
        f_target: float, n_max: float) -> tuple[float, float, float, float]:
    # (t*, P*/a, rise, cap) of `coherent_single` on the floor F = f_target,
    # with t = tan^2(phi), click rate a = eta R1, lam and the set's
    # `_ratios`, unvalidated; P* is P_s on the floor, the rise is
    # (dP*/dn_max)/a where P* > 0, else -inf, so it is >= 0 exactly where
    # P* rises, and cap is a bound on P*/a that rises in n_max, inf where
    # P* = 0 (see `optimize.optimize_coherent_single`). All are over a, so
    # they are normal floats at every a >= 0, with their limit at a = 0,
    # and, like B/A and C/A, they are exact where the clicks saturate, so
    # P* is flat there to the last bit.
    # With A, B and C as in `coherent_single`, the populations enter only
    # through p2/p1 = t/2: F = (1 + C/A) / (2 + t B/A) falls in t while
    # P_s = A t (2 + t B/A) / (1 + t)^2 rises in t (its t-derivative is
    # 2A (1 + t (B/A - 1)) / (1 + t)^3 and B >= A), so the best angle at
    # budget n sits on the floor, t* = ((1 + C/A)/f_target - 2) / (B/A). P*
    # is 0 where no angle meets the floor (t* <= 0).
    _, rho, rho_1, k = ratios
    an = a * n_max
    bn, ln = rho_1 * an, lam * n_max  # (b - a) n and lambda n
    click1, gap, decay = -math.expm1(-an), -math.expm1(-bn), -math.expm1(-ln)
    inv = an / click1 if an else 1.0  # 1 / E1(a n)
    d1 = math.exp(-an)
    # B/A - 1 and C/A as in `coherent_single`
    extra = d1 * rho_1 * (gap / bn if bn else 1.0) * inv
    c_a = (k + d1 * (decay / ln if ln else 1.0) * inv) / (k + 1.0)
    b_a = 1.0 + extra
    t = ((1.0 + c_a) / f_target - 2.0) / b_a
    if t <= 0.0:
        return t, 0.0, -math.inf, math.inf
    # d/dn of A, B and C over a are e^{-a n} = d1, rho e^{-b n} = d2 and
    # e^{-(a + lam) n} = d1 (1 - decay); dt is dt/dn times A/a, with
    # (d/dn (A + C)) / f_target - 2 d/dn A written so that it does not cancel
    d2 = rho * d1 * (1.0 - gap)
    m = 2.0 * (1.0 - f_target)
    dt = (d1 * (m - decay) / f_target - t * d2) / b_a
    s = 1.0 + t
    rise = (2.0 * (1.0 + t * extra) / (s * s * s) * dt
            + t * (2.0 * d1 + t * d2) / (s * s))
    pa = click1 / a if an else n_max  # A/a, whose limit at a n = 0 is n_max
    # cap: C <= A puts t* below u = k_f A/B, k_f = 2 (1 - f_target)/f_target,
    # and P_s rises in t, so P* <= A u (2 + k_f)/(1 + u)^2
    k_f = m / f_target
    u = k_f / b_a
    return (t, pa * t * (2.0 + t * b_a) / (s * s), rise,
            pa * u * (2.0 + k_f) / ((1.0 + u) * (1.0 + u)))


# (-1)^k (k - 1) / k! for k = 2 to 17: below z = 1/2 the terms past k = 17
# are under 1e-17 of the sum
_ERLANG2_SERIES = tuple((-1) ** k * (k - 1) / math.factorial(k)
                        for k in range(2, 18))


def _erlang2_cdf(z: float) -> float:
    """P(n1 + n2 <= z) for two unit-rate exponentials: 1 - (1 + z) e^{-z},
    for z >= 0.

    The direct form cancels for small z (its relative error is about 5e-13
    at z = 1e-3, and it returns exactly 0 at z ~ 1e-13 in float64), so
    arguments below 1/2 take the series of `_erlang2_scaled` times z^2.
    """
    if z < 0.5:
        return _erlang2_scaled(z) * z * z
    return -math.expm1(-z) - z * math.exp(-z)


def _erlang2_scaled(z: float) -> float:
    """S(z) = E2(z) / z^2, the Erlang-2 CDF over z^2, for z >= 0. It tends
    to 1/2 as z -> 0, where E2(z) underflows. Below z = 1/2 it is the
    alternating series sum_{k>=2} (-1)^k z^(k-2) (k-1) / k!
    = 1/2 - z/3 + z^2/8 - ..., summed by Horner's rule.
    """
    if z < 0.5:
        (c2, c3, c4, c5, c6, c7, c8, c9, c10, c11, c12, c13, c14, c15, c16,
         c17) = _ERLANG2_SERIES
        return c2 + z * (c3 + z * (c4 + z * (c5 + z * (c6 + z * (c7 + z * (
            c8 + z * (c9 + z * (c10 + z * (c11 + z * (c12 + z * (c13 + z * (
                c14 + z * (c15 + z * (c16 + z * c17))))))))))))))
    return _erlang2_cdf(z) / z / z


def _double_click_terms(an: float, bn: float) -> tuple[float, float]:
    # (P_s, Re xi = F - 1/2) of `coherent_double` at a n and b n =
    # (a + lam) n, unvalidated: P_s = E2(a n) / 2, and Re xi =
    # S(b n) / (2 S(a n)), taken as W(b n) / (2 W(a n)) times
    # ((1 + a n)/(1 + b n))^2 with W(z) = S(z) (1 + z)^2 = E2(z) ((1 + z)/z)^2,
    # S = `_erlang2_scaled`. W rises from 1/2 at z = 0 toward 1, so it is a
    # normal float at every z, where E2 underflows below z ~ 1e-154 and S
    # above z ~ 1e154; so the terms keep their digits at every budget
    if an < 0.5:
        s, u = _erlang2_scaled(an), 1.0 + an
        e2, w = s * an * an, s * (u * u)
    else:
        e2, v = _erlang2_cdf(an), (1.0 + an) / an
        w = e2 * (v * v)
    if bn < 0.5:
        u = 1.0 + bn
        wb = _erlang2_scaled(bn) * (u * u)
    else:
        v = (1.0 + bn) / bn
        wb = _erlang2_cdf(bn) * (v * v)
    r = (1.0 + an) / (1.0 + bn)
    re_xi = wb / (2.0 * w) * r * r
    # S falls, so Re xi <= 1/2; as F -> 1 rounding can pass that by an ulp
    return 0.5 * e2, 0.5 if re_xi > 0.5 else re_xi


def coherent_double(params: CavityParams, n_max: float) -> SchemeOutcome:
    """Two-round coherent scheme with total photon budget n1 + n2 <= n_max.

    Preparation fixed at phi = pi/4. Only the single-excitation sector
    (weight 1/2) can click twice, with both waiting "times" exponential at
    rate a = eta R1, so

        P_s = (1/2) (1 - (1 + a n_max) e^{-a n_max})   (Erlang-2 CDF)

    and, conditioned on success, p1c = 1 while the coherence has decayed by
    e^{-lambda (n1 + n2)}:

        F = 1/2 + (1/2) E[e^{-lambda (n1 + n2)} | n1 + n2 <= n_max]
          = 1/2 + a^2 (1 - (1 + (a+lambda) n_max) e^{-(a+lambda) n_max})
                  / (4 (a + lambda)^2 P_s),

    with F taken in the scale-free form of `_double_click_terms` and
    a n = eta n_max R1 multiplied from n_max down, so that no factor
    underflows before the product does. So only P_s scales with x, and it
    may round to a subnormal or 0. Undefined only where no click can occur:
    eta = 0 or x_eff = 0.

    See `coherent_double_fidelity_uncorrected` for the variant form that
    drops the conditioning factor of 2 and can exceed 1.
    """
    _check_n_max(n_max)
    lam, q = params._rates[2], params._ratios[0]
    if params.eta == 0.0 or lam == 0.0:
        return _UNDEFINED
    an = params.eta * n_max * q * q
    ps, re_xi = _double_click_terms(an, an + lam * n_max)
    fid = 0.5 + re_xi
    return SchemeOutcome._make(ps, fid, STATUS_OK, 1.0, fid - 0.5)


def coherent_double_fidelity_uncorrected(params: CavityParams,
                                         n_max: float) -> float | None:
    """Uncorrected double-click fidelity with the coherence term normalized
    by P_s instead of the subspace-conditioned click probability 2 P_s.

    Kept for comparison only: it exceeds 1 for good cavities (1.194 at
    x = 1, eta = 1, n_max = 2), which the Monte Carlo oracle rules out.
    None where no click can occur, like the fidelity of `coherent_double`.
    """
    out = coherent_double(params, n_max)
    return None if out.fidelity is None else 0.5 + 2.0 * out.re_coherence


class Scheme(str, enum.Enum):
    """The scheme table. Each member's value is the scheme's name, and it
    carries `evaluate(params, *args)`, the scheme's closed form; `needs`, the
    names of those args after params; and `optimizer(params, f_target)`,
    which maximizes the closed form's P_s at a fidelity floor. The
    optimizers live in `optimize`, which imports this module, so
    `optimizer` loads it on first use."""

    def __new__(cls, name, evaluate, needs):
        member = str.__new__(cls, name)
        member._value_ = name
        member.evaluate, member.needs = evaluate, needs
        return member

    FOCK_SINGLE = ("fock-single", fock_single, ("phi",))
    FOCK_DOUBLE = ("fock-double", fock_double, ())
    COHERENT_SINGLE = ("coherent-single", coherent_single, ("phi", "n_max"))
    COHERENT_DOUBLE = ("coherent-double", coherent_double, ("n_max",))

    @_cached
    def optimizer(self):
        # optimize_fock_single for FOCK_SINGLE, and so on; kept on the
        # member after the first read
        from . import optimize
        return getattr(optimize, "optimize_" + self.name.lower())
