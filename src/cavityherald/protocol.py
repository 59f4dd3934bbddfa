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

`Scheme`, the scheme table, lives here beside the closed forms it names, so
a command that evaluates one scheme loads no optimizer.
"""

import enum
import functools
import importlib
import math
import sys

from .core import CavityParams, Record, _frozen

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

    `status` is "undefined" when no click can occur (zero success
    probability denominator); `fidelity` is then None rather than NaN so
    sweeps can skip the point. Diagnostics, when present, satisfy
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


def _outcome(p_success: float, fidelity: float, p1_conditional: float,
             re_coherence: float) -> SchemeOutcome:
    # an "ok" closed-form SchemeOutcome, without the Monte Carlo fields
    out = _frozen(SchemeOutcome)
    out.__dict__.update(
        p_success=p_success, fidelity=fidelity, status=STATUS_OK,
        p1_conditional=p1_conditional, re_coherence=re_coherence,
        p_success_err=None, fidelity_err=None, n_success=None)
    return out


# what every scheme returns where no click can occur
_UNDEFINED = SchemeOutcome(0.0, None, STATUS_UNDEFINED)


def _populations(phi: float) -> tuple[float, float, float]:
    # (p0, p1, p2) of `initial_populations`
    if not 0.0 <= phi <= math.pi / 2:
        raise ValueError(f"phi must lie in [0, pi/2], got {phi}")
    s2 = math.sin(phi) ** 2
    c2 = math.cos(phi) ** 2
    return c2 * c2, 2.0 * s2 * c2, s2 * s2


def _check_n_max(n_max: float) -> None:
    if not 0.0 < n_max < math.inf:
        raise ValueError(f"n_max must be positive and finite, got {n_max}")


def initial_populations(phi: float) -> Preparation:
    """Populations of the 0-, 1-, and 2-atom sectors after preparation.

    p0 = cos^4(phi), p1 = 2 sin^2(phi) cos^2(phi), p2 = sin^4(phi).
    """
    return Preparation(phi, *_populations(phi))


def fock_single(params: CavityParams, phi: float) -> SchemeOutcome:
    """Single-photon input, herald on one reflected-photon click.

    P_s = eta (p1 R1 + p2 R2). Conditioned on the click there has been no
    spontaneous emission, so Re xi = p1c / 2 and

        F = p1 R1 / (p1 R1 + p2 R2) = 1 / (1 + tan^2(phi) R2 / (2 R1)),

    independent of eta; undefined where no click can occur (eta = 0 or
    p1 R1 + p2 R2 = 0). F is computed in the second, scale-free form: the
    first rounds to 1 where p2 R2 underflows (x ~ 1e-154 at F = 1 - 1e-9).
    F = 0 where R1 = 0 < R2 (x ~ 2e-163 to 4e-163).
    """
    _, p1, p2 = _populations(phi)
    r1, r2, _ = params._rates
    denom = p1 * r1 + p2 * r2
    if params.eta == 0.0 or denom == 0.0:
        return _UNDEFINED
    fid = (1.0 / (1.0 + math.tan(phi) ** 2 * r2 / (2.0 * r1)) if r1 > 0.0
           else 0.0)
    return _outcome(params.eta * denom, fid, fid, fid / 2.0)


def fock_double(params: CavityParams) -> SchemeOutcome:
    """Two-round Fock scheme: click, swap |0> <-> |1>, click again.

    Preparation is fixed at phi = pi/4. Only the single-excitation sector can
    reflect in both rounds (the swap maps N to 2 - N and R0 = 0), so
    P_s = eta^2 R1^2 / 2 and the heralded state is pure: F = 1 for an ideal
    mirror. F is `false_reflection_fidelity` at every spurious-reflection
    fraction params.f, 1 at f = 0, while P_s keeps its ideal-model form. F
    is undefined where no click can occur: eta = 0, or R1 = 0 at f = 0.
    """
    r1, _, _ = params._mirror_rates
    if params.eta == 0.0 or (r1 == 0.0 and params.f == 0.0):
        return _UNDEFINED
    fid = false_reflection_fidelity(params, params.f)
    return _outcome(0.5 * (params.eta * r1) ** 2, fid, 1.0, fid - 0.5)


def false_reflection_fidelity(params: CavityParams, f: float) -> float:
    """Double-detection Fock fidelity when a fraction f of photons reflects
    off the mirror surface without entering the cavity.

    F = (R1 (1-f) + f)^2 / ((R1 (1-f) + f)^2 + f (R2 (1-f) + f)); the
    spurious channel lets the two-atom sector double-click as well. Where
    either term of the denominator leaves the normal range, which takes f
    below about 1e-154, F takes the scale-free form
    1 / (1 + (f/c1) (c2/c1)) with c_N = R_N (1-f) + f >= f, so neither
    ratio overflows. F = 1 exactly at f = 0. ValueError where no click can
    occur (R1 = 0 at f = 0).
    """
    if not 0.0 <= f < 1.0:
        raise ValueError("f must lie in [0, 1)")
    r1, r2, _ = params._mirror_rates
    c1 = r1 * (1.0 - f) + f
    if c1 == 0.0:
        raise ValueError("no click can occur: R1 = 0 at f = 0")
    c2 = r2 * (1.0 - f) + f
    good, bad = c1 ** 2, f * c2
    if good < sys.float_info.min or 0.0 < bad < sys.float_info.min:
        return 1.0 / (1.0 + (f / c1) * (c2 / c1))
    return good / (good + bad)


def _click_sectors(params: CavityParams, phi: float,
                   n: float) -> tuple[float, float]:
    # (p1 R1 e^{-eta R1 n}, p2 R2 e^{-eta R2 n}): the one- and two-atom
    # sectors' first-click densities at mean photon number n, over eta
    if not 0.0 <= n < math.inf:
        raise ValueError(f"n must be nonnegative and finite, got {n}")
    _, p1, p2 = _populations(phi)
    r1, r2, _ = params._rates
    return (p1 * r1 * math.exp(-params.eta * r1 * n),
            p2 * r2 * math.exp(-params.eta * r2 * n))


def coherent_conditional_population(params: CavityParams, phi: float,
                                    n: float) -> float | None:
    """Single-excitation-sector population conditioned on a first click at
    mean photon number n.

    p1c(n) = p1 R1 e^{-eta R1 n} / (p1 R1 e^{-eta R1 n} + p2 R2 e^{-eta R2 n});
    None when the denominator vanishes. At n = 0 this is the Fock-single
    fidelity ratio; for n -> infinity it tends to 1 because R1 < R2 makes the
    one-atom exponential the slower one.
    """
    a, b = _click_sectors(params, phi, n)
    if a + b == 0.0:
        return None
    return a / (a + b)


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
    return params.eta * sum(_click_sectors(params, phi, n))


def coherent_single(params: CavityParams, phi: float,
                    n_max: float) -> SchemeOutcome:
    """Coherent input, herald on the first click within photon budget n_max.

    P_s = p1 (1 - e^{-eta R1 n_max}) + p2 (1 - e^{-eta R2 n_max}).
    F is the click-averaged conditional fidelity; with a = eta R1,

        F = p1 [ (1 - e^{-a n_max})
                 + a/(a + lambda) (1 - e^{-(a + lambda) n_max}) ] / (2 P_s),

    which equals the quadrature of F_c(n) dP/dn over the window exactly.
    Diagnostics report the click-averaged p1c and coherence term. Where
    p1 (1 - e^{-a n_max}) is subnormal (eta near 1e-300 with a small phi),
    P_s keeps few digits, so F takes a scale-free form instead: with A, B
    and C the bracketed terms of P_s and F, p1c = 1 / (1 + (p2/p1) B/A)
    and F = p1c (1 + C/A) / 2.
    """
    _check_n_max(n_max)
    _, p1, p2 = _populations(phi)
    r1, r2, lam = params._rates
    a, b = params.eta * r1, params.eta * r2
    click1 = -math.expm1(-a * n_max)
    click2 = -math.expm1(-b * n_max)
    ps1 = p1 * click1
    ps = ps1 + p2 * click2
    if ps == 0.0:
        return _UNDEFINED
    # ps > 0 means x > 0, so lam > 0
    decay = -math.expm1(-(a + lam) * n_max)
    if ps1 < sys.float_info.min and click1 > 0.0:
        # p1 A is subnormal, and so may P_s be: take the scale-free
        # p1c = 1 / (1 + (p2/p1) B/A) and coherence (C/A) p1c / 2, with C
        # formed as a/(a + lam) times its decay so that it keeps its digits.
        # Where A = a n_max is itself subnormal, B/A and C/A are ratios of
        # subnormals; then B = b n_max too (b <= 4a), so B/A = b/a, taken as
        # R2/R1 in case eta made a subnormal, and C/A = decay/((a + lam) n_max)
        if click1 < sys.float_info.min:
            b_over_a = r2 / r1
            c_over_a = decay / ((a + lam) * n_max)
        else:
            b_over_a = click2 / click1
            c_over_a = a / (a + lam) * decay / click1
        p1c_avg = 1.0 / (1.0 + p2 / p1 * b_over_a)
        coh = c_over_a * p1c_avg / 2.0
    else:
        p1c_avg = ps1 / ps
        coh = p1 * a / (a + lam) * decay / (2.0 * ps)
    return _outcome(ps, p1c_avg / 2.0 + coh, p1c_avg, coh)


def _coherent_single_floor(a: float, b: float, lam: float, f_target: float,
                           n_max: float) -> tuple[float, float, float]:
    # (t*, P*, rise) of `coherent_single` on the floor F = f_target, with
    # t = tan^2(phi), click rates a = eta R1 <= b = eta R2, unvalidated; the
    # rise is dP*/dn_max where P* > 0, else -inf, so it is >= 0 exactly where
    # P* rises.
    # With A = 1 - e^{-a n} (click1), B = 1 - e^{-b n} (click2) and
    # C = a (1 - e^{-(a + lam) n}) / (a + lam) (coh), the populations enter
    # only through p2/p1 = t/2: F = (A + C) / (2A + tB) falls in t while
    # P_s = (2tA + t^2 B) / (1 + t)^2 rises in t (its t-derivative is
    # 2 (A + t (B - A)) / (1 + t)^3 and B >= A), so the best angle at budget
    # n sits on the floor, t* = ((A + C)/f_target - 2A) / B. P* is 0 where
    # no angle meets the floor (t* <= 0).
    click1 = -math.expm1(-a * n_max)
    click2 = -math.expm1(-b * n_max)
    if click2 == 0.0:
        return 0.0, 0.0, -math.inf
    # b > 0 means x > 0, so lam > 0
    coh = a * -math.expm1(-(a + lam) * n_max) / (a + lam)
    t = ((click1 + coh) / f_target - 2.0 * click1) / click2
    if t <= 0.0:
        return t, 0.0, -math.inf
    # d/dn of A, B and C
    d1 = a * math.exp(-a * n_max)
    d2 = b * math.exp(-b * n_max)
    dcoh = a * math.exp(-(a + lam) * n_max)
    dt = ((d1 + dcoh) / f_target - 2.0 * d1 - t * d2) / click2
    s = 1.0 + t
    ps = t * (2.0 * click1 + t * click2) / (s * s)
    slope = (2.0 * (click1 + t * (click2 - click1)) / (s * s * s) * dt
             + t * (2.0 * d1 + t * d2) / (s * s))
    return t, ps, slope if ps > 0.0 else -math.inf


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


def _double_click_terms(a: float, lam: float,
                        n_max: float) -> tuple[float, float | None]:
    # (P_s, Re xi = F - 1/2, or None when P_s = 0) of `coherent_double` at
    # click rate a = eta R1, unvalidated: Re xi = coh / (4 P_s), with the
    # Erlang-2 coherence integral coh = a^2 E2((a + lam) n) / (a + lam)^2
    ps = 0.5 * _erlang2_cdf(a * n_max)
    if ps == 0.0:
        return 0.0, None
    num = a * a * _erlang2_cdf((a + lam) * n_max)
    if num < sys.float_info.min:
        # a^2 E2 left the normal range (x below about 1e-40), so take
        # Re xi as S((a + lam) n) / (2 S(a n)), which cannot underflow
        re_xi = (_erlang2_scaled((a + lam) * n_max)
                 / (2.0 * _erlang2_scaled(a * n_max)))
    else:
        re_xi = num / (a + lam) ** 2 / (4.0 * ps)
    # S falls, so Re xi <= 1/2; as F -> 1 rounding can pass that by an ulp
    return ps, min(re_xi, 0.5)


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
                  / (4 (a + lambda)^2 P_s).

    See `coherent_double_fidelity_uncorrected` for the variant form that
    drops the conditioning factor of 2 and can exceed 1.
    """
    _check_n_max(n_max)
    r1, _, lam = params._rates
    ps, re_xi = _double_click_terms(params.eta * r1, lam, n_max)
    if re_xi is None:
        return _UNDEFINED
    fid = 0.5 + re_xi
    return _outcome(ps, fid, 1.0, fid - 0.5)


def coherent_double_fidelity_uncorrected(params: CavityParams,
                                         n_max: float) -> float | None:
    """Uncorrected double-click fidelity with the coherence term normalized
    by P_s instead of the subspace-conditioned click probability 2 P_s.

    Kept for comparison only: it exceeds 1 for good cavities (1.194 at
    x = 1, eta = 1, n_max = 2), which the Monte Carlo oracle rules out.
    None when P_s = 0, like the fidelity of `coherent_double`.
    """
    _check_n_max(n_max)
    r1, _, lam = params._rates
    _, re_xi = _double_click_terms(params.eta * r1, lam, n_max)
    return None if re_xi is None else 0.5 + 2.0 * re_xi


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

    @functools.cached_property
    def optimizer(self):
        # optimize_fock_single for FOCK_SINGLE, and so on; kept on the
        # member after the first read
        module = importlib.import_module(".optimize", __package__)
        return getattr(module, "optimize_" + self.name.lower())
