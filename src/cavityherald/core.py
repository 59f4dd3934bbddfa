"""Closed-form response of a two-sided cavity coupled to ground-state atoms.

All rates are expressed in units of the atomic decay rate gamma, which is
therefore fixed to 1. The single dimensionless knob controlling the resonant
response is the cooperativity x = g^2 / (kappa * gamma).
"""

import math


def _check_n(n_atoms: int) -> int:
    # an int that a float holds exactly passes the checks below unchanged
    if type(n_atoms) is int and 0 <= n_atoms <= 2 ** 53:
        return n_atoms
    try:  # is_integer() is False for inf and NaN
        ok = n_atoms >= 0 and float(n_atoms).is_integer()
    except OverflowError:  # an int too large for a float
        ok = False
    if not ok:
        raise ValueError(f"atom count must be a nonnegative integer, got {n_atoms}")
    return int(n_atoms)


# Largest cooperativity accepted, far above any real cavity (x ~ 1e2);
# (1 + 4 N x)^2 overflows float64 above x ~ 3e153. It is 1e100 to one ulp,
# written as the square of a float so that from_cooperativity(X_MAX)
# reproduces it exactly.
X_MAX = 1e50 ** 2


def _check_x(x: float) -> None:
    if not 0.0 <= x <= X_MAX:
        raise ValueError(
            f"cooperativity must lie in [0, X_MAX = {X_MAX:g}], got {x}")


def _check_xn(x: float, n_atoms: int) -> int:
    _check_x(x)
    n = _check_n(n_atoms)
    # the closed forms square 1 + 4 N x, which must stay finite; it is NaN
    # where 4 N alone overflows and x = 0
    c = 1.0 + 4.0 * n * x
    if not c * c < math.inf:
        raise ValueError(f"(1 + 4 N x)^2 overflows at x = {x}, N = {n_atoms}")
    return n


def reflection_probability(x: float, n_atoms: int) -> float:
    """Probability that a resonant photon is reflected off the cavity.

    Parameters
    ----------
    x : float
        Cooperativity g^2 / (kappa * gamma), >= 0.
    n_atoms : int
        Number of atoms occupying the coupled ground state.

    Returns
    -------
    float
        R_N = (4 N x / (1 + 4 N x))^2. Monotone nondecreasing in both
        arguments; 0 for an empty cavity, -> 1 as x -> infinity for N >= 1.
    """
    n = _check_xn(x, n_atoms)
    c = 4.0 * n * x
    return (c / (1.0 + c)) ** 2


def transmission_probability(x: float, n_atoms: int) -> float:
    """Probability that a resonant photon is transmitted through the cavity.

    T_N = (1 / (1 + 4 N x))^2; an empty symmetric cavity transmits perfectly.
    """
    n = _check_xn(x, n_atoms)
    return (1.0 / (1.0 + 4.0 * n * x)) ** 2


def scattering_loss(x: float, n_atoms: int) -> float:
    """Probability that a resonant photon is spontaneously scattered.

    lambda_N = 1 - R_N - T_N = 2 (4 N x) / (1 + 4 N x)^2. Bounded by 1/2,
    with the maximum attained exactly at 4 N x = 1.
    """
    n = _check_xn(x, n_atoms)
    c = 4.0 * n * x
    return 2.0 * c / (1.0 + c) ** 2


class FrozenRecordError(AttributeError):
    """Raised on setting or deleting an attribute of a record."""


def _annotated_names(namespace) -> tuple[str, ...]:
    # the names annotated in a class body, read from its namespace before
    # the class exists. From Python 3.14 (PEP 649 and 749) the namespace
    # holds an annotate function in place of __annotations__, unless the
    # module defers annotations with `from __future__ import annotations`.
    # Only the names are wanted, so the FORWARDREF format stands a proxy in
    # for an annotation whose name is not defined yet, where the default
    # format would raise NameError
    if "__annotations__" in namespace:
        return tuple(namespace["__annotations__"])
    try:
        import annotationlib
    except ImportError:  # before 3.14: a body with no annotation
        return ()
    annotate = annotationlib.get_annotate_from_class_namespace(namespace)
    if annotate is None:
        return ()
    return tuple(annotationlib.call_annotate_function(
        annotate, annotationlib.Format.FORWARDREF))


class _RecordType(type):
    """The metaclass of `Record`. It lays each record class out on
    __slots__ before the class exists, which `__init_subclass__` would be
    too late for: one slot per field, a `__weakref__` slot, and a `__dict__`
    slot only where the class has a `_cached` property, to hold its values.
    The fields, which are also __match_args__, are the annotated names. A
    field's default leaves the class body, where it would clash with its
    slot, for the builders of `_record_builders`."""

    def __new__(mcs, name, bases, namespace, hidden=()):
        if not bases:  # Record itself
            return super().__new__(mcs, name, bases,
                                   {**namespace, "__slots__": ()})
        qualname = namespace["__qualname__"]
        # a class reads only its own annotations, so a record subclass would
        # lose the fields it inherits
        if any(isinstance(base, _RecordType) and base is not Record
               for base in bases):
            raise TypeError(f"record class {qualname} cannot subclass "
                            "another record class")
        fields = _annotated_names(namespace)
        if not fields:
            raise TypeError(f"record class {qualname} has no field")
        defaults = {n: namespace.pop(n) for n in fields if n in namespace}
        if any(isinstance(v, _cached) for v in namespace.values()):
            namespace["__slots__"] = (*fields, "__dict__", "__weakref__")
        else:
            namespace["__slots__"] = (*fields, "__weakref__")
        cls = super().__new__(mcs, name, bases, namespace)
        cls._fields = cls.__match_args__ = fields
        cls._compared = tuple(n for n in fields if n not in hidden)
        cls.__init__, cls._make = _record_builders(cls, defaults)
        return cls


class Record(metaclass=_RecordType):
    """Base of the package's frozen records.

    A record's fields are the names annotated in its class body, in order,
    and a field assigned in the class body takes that value as its default.
    The class keyword `hidden` leaves the fields it names out of repr(),
    equality and the hash. __init__ takes every field by position or
    keyword, stores each, and then calls `_post_init()` where the class
    defines one, to check the fields. `_make`, called on the class, takes
    the same arguments and stores them as they are, with no checks and no
    `_post_init`: it builds the package's results, whose fields are already
    worked out. Records are equal where they are of one class and their
    compared fields are equal, and a record hashes as the tuple of those
    fields. `replace` builds a changed copy through __init__, so it runs the
    checks again. No attribute can be set or deleted. Each field is a slot,
    so a record has no instance __dict__, except that a class with `_cached`
    properties keeps their values, and nothing else, in one; vars() lists no
    field, and `asdict` does. A copy or pickle is rebuilt through `_make`
    from the fields alone, so it carries no cached value. A record class
    derives from `Record` and from no other record class, and has at least
    one field; else it raises TypeError.
    """

    def __setattr__(self, name: str, value) -> None:
        raise FrozenRecordError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenRecordError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # the default reduction would restore the slots through the
        # raising __setattr__
        return self.__class__._make, tuple([getattr(self, name)
                                            for name in self._fields])

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._compared])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in self._compared)
        return f"{self.__class__.__qualname__}({shown})"

    def replace(self, **changes):
        """A copy with `changes` to its fields, built by __init__."""
        kwargs = {name: getattr(self, name) for name in self._fields}
        kwargs.update(changes)
        return self.__class__(**kwargs)


def _record_builders(cls, defaults):
    # __init__ and `_make`, written out for each class in one exec, as
    # dataclasses writes __init__, so that a record builds as fast: __init__
    # makes one object.__setattr__ per field and no argument loop. `_make`
    # builds an instance of the class's open twin, a subclass with the same
    # slots whose __setattr__ and __delattr__ are object's, so that each
    # field is one plain slot store, in declaration order, and then moves
    # the instance to the class by assigning __class__. The twin must take
    # both from object: one Python-level method of the pair sends every
    # store down the slow generic path. Its __init__ is object's too, so
    # calling the twin builds the instance in C alone. It is made by
    # type.__new__, which skips the subclass check of `_RecordType`, and
    # never reaches a caller. `_make` is a plain function, not a
    # staticmethod: called on the class it takes no self, and CPython 3.11
    # caches the load of a function class attribute but not of a
    # staticmethod.
    twin = type.__new__(type(cls), cls.__name__, (cls,), {
        "__slots__": (), "__init__": object.__init__,
        "__setattr__": object.__setattr__,
        "__delattr__": object.__delattr__, "__module__": cls.__module__,
        "__qualname__": f"{cls.__qualname__}._open"})
    names = cls._fields
    signature = ", ".join(f"{name}=_defaults[{name!r}]" if name in defaults
                          else name for name in names)
    source = [f"def __init__(self, {signature}):",
              *(f"    _set(self, {name!r}, {name})" for name in names)]
    if hasattr(cls, "_post_init"):
        source.append("    self._post_init()")
    source += [f"def _make({signature}):", "    self = _twin()",
               *(f"    self.{name} = {name}" for name in names),
               "    self.__class__ = _cls", "    return self"]
    namespace = {"_set": object.__setattr__, "_cls": cls, "_twin": twin,
                 "_defaults": defaults}
    exec("\n".join(source), namespace)
    init, make = namespace["__init__"], namespace["_make"]
    for function in (init, make):
        # pickle finds `_make` by its module and qualified name
        function.__module__ = cls.__module__
        function.__qualname__ = f"{cls.__qualname__}.{function.__name__}"
    return init, make


def fields(record) -> tuple[str, ...]:
    """The field names of a record or record class, in order."""
    return record._fields


def asdict(record) -> dict:
    """A record's fields by name, in order. The dict is flat: a field that
    holds a record, such as a `SweepSpec`'s base, keeps that record."""
    return {name: getattr(record, name) for name in record._fields}


class _cached:
    """A cached property: the getter runs on the first read, and its value
    is stored under the getter's name with object.__setattr__, as the
    record __init__ stores a field, so later reads find it in the instance
    and skip the getter. A record class with one keeps the values in an
    instance __dict__ that holds nothing else, as its fields are slots, so
    a cached value leaves the fields' layout, and their reads, as they
    are."""

    def __init__(self, getter) -> None:
        self.getter, self.name = getter, getter.__name__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = self.getter(instance)
        object.__setattr__(instance, self.name, value)
        return value


class CavityParams(Record):
    """Static cavity and detection parameters, rates in units of gamma.

    Attributes
    ----------
    g : float
        Atom-cavity coupling rate.
    kappa_a, kappa_b : float
        Decay rates of the detection-side and far-side mirrors.
    gamma : float
        Atomic decay rate; the global unit, fixed to 1.
    delta : float
        Cavity-atom detuning.
    eta : float
        Detector efficiency in [0, 1], absorbing propagation losses.
    f : float
        Spurious-reflection fraction in [0, 1).
    g_tilde, kappa_tilde : float
        Coupling and decay of a counter-propagating (ring-cavity) mode;
        both 0 for a standing-wave cavity.
    """

    g: float
    kappa_a: float
    kappa_b: float
    gamma: float = 1.0
    delta: float = 0.0
    eta: float = 1.0
    f: float = 0.0
    g_tilde: float = 0.0
    kappa_tilde: float = 0.0

    def _post_init(self) -> None:
        if not all(map(math.isfinite, (self.g, self.kappa_a, self.kappa_b,
                                       self.delta, self.g_tilde,
                                       self.kappa_tilde))):
            raise ValueError("cavity rates must be finite")
        if self.g < 0:
            raise ValueError("g must be nonnegative")
        if self.kappa_a <= 0 or self.kappa_b <= 0:
            raise ValueError("mirror decay rates must be positive")
        if self.gamma != 1.0:
            raise ValueError("gamma is the unit rate; normalize with from_raw_rates")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError("eta must lie in [0, 1]")
        if not 0.0 <= self.f < 1.0:
            raise ValueError("f must lie in [0, 1)")
        if self.g_tilde < 0 or self.kappa_tilde < 0:
            raise ValueError("ring-mode rates must be nonnegative")
        if self.g_tilde > 0 and self.kappa_tilde == 0:
            raise ValueError("g_tilde > 0 requires kappa_tilde > 0")

    # Cached properties work out a value on first use and keep it in the
    # instance __dict__, which equality, hashing and repr do not read;
    # replace() builds a new instance from the fields alone. A getter that
    # raises keeps nothing, so a rejected set raises on every read.

    @_cached
    def _resonance(self) -> tuple[float, ...]:
        # the resonant terms of every closed form of `protocol`, which hold
        # for symmetric mirrors on resonance only, at the effective
        # cooperativity x: (R1, R2, lambda1, q, rho, rho - 1, a/lambda).
        # q = 4x/(1 + 4x) is the square root of R1; rho = R2/R1 =
        # 4((1 + 4x)/(1 + 8x))^2 lies in [1, 4], and rho - 1 =
        # (3 + 16x)/(1 + 8x)^2 is written so that it does not cancel;
        # a/lambda = eta R1/lambda = 2 eta x. Where x is a normal float so
        # are the last four, while R1 and R2 underflow below x ~ 1e-154, so
        # the closed forms take every ratio from these
        if self.kappa_a != self.kappa_b or self.delta != 0.0:
            raise ValueError("the schemes model symmetric mirrors on "
                             "resonance only: kappa_a must equal kappa_b and "
                             "delta be 0")
        x = effective_cooperativity_ring(self)
        c = 4.0 * x
        return (reflection_probability(x, 1), reflection_probability(x, 2),
                scattering_loss(x, 1), c / (1.0 + c),
                4.0 * ((1.0 + c) / (1.0 + 2.0 * c)) ** 2,
                (3.0 + 4.0 * c) / (1.0 + 2.0 * c) ** 2, 0.5 * self.eta * c)

    @_cached
    def _rates(self) -> tuple[float, ...]:
        # `_resonance` for every closed form that leaves spurious reflection
        # out, which rejects f > 0 instead of dropping it; only `fock_double`
        # and `false_reflection_fidelity` model f, and read `_resonance`
        if self.f > 0.0:
            raise ValueError("only fock-double models a spurious-reflection "
                             f"fraction f > 0, got f = {self.f}")
        return self._resonance

    @_cached
    def _amplitude_terms(self) -> tuple[float, ...]:
        # the terms of `scattering_amplitudes` that depend on the rates
        # alone: kappa/2, g^2, gamma/2, delta, kappa_a and
        # sqrt(kappa_a kappa_b)
        try:
            g2 = self.g ** 2
        except OverflowError:  # g above about 1.34e154: NaN fails the check
            g2 = math.nan
        return (self.kappa / 2.0, g2, self.gamma / 2.0, self.delta,
                self.kappa_a, math.sqrt(self.kappa_a * self.kappa_b))

    @property
    def kappa(self) -> float:
        return self.kappa_a + self.kappa_b

    @property
    def cooperativity(self) -> float:
        return self.g * self.g / (self.kappa * self.gamma)

    @classmethod
    def from_cooperativity(cls, x: float, *, eta: float = 1.0, f: float = 0.0,
                           delta: float = 0.0, g_tilde: float = 0.0,
                           kappa_tilde: float = 0.0) -> "CavityParams":
        """Symmetric-mirror parameter set realizing cooperativity x.

        Any (g, kappa) pair with g^2/kappa = x is equivalent for every
        resonant quantity in this package; this picks kappa_a = kappa_b = 1/2.
        """
        if x < 0:
            raise ValueError("cooperativity must be nonnegative")
        return cls(g=math.sqrt(x), kappa_a=0.5, kappa_b=0.5, delta=delta,
                   eta=eta, f=f, g_tilde=g_tilde, kappa_tilde=kappa_tilde)

    @classmethod
    def from_raw_rates(cls, g: float, kappa_a: float, kappa_b: float,
                       gamma: float, **kwargs) -> "CavityParams":
        """Build from dimensionful rates, normalizing everything by gamma."""
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        kwargs = {k: v / gamma if k in ("delta", "g_tilde", "kappa_tilde")
                  else v for k, v in kwargs.items()}  # eta and f have no unit
        return cls(g=g / gamma, kappa_a=kappa_a / gamma, kappa_b=kappa_b / gamma,
                   **kwargs)


class SpectrumPoint(Record):
    """Complex scattering amplitudes and probabilities at one probe frequency,
    all six formed by `scattering_amplitudes`: R = |r|^2, T = |t|^2 and the
    spontaneous-scattering probability `loss` = 1 - R - T."""

    omega: float
    r: complex
    t: complex
    R: float
    T: float
    loss: float


def scattering_amplitudes(params: CavityParams, omega: float,
                          n_atoms: int) -> SpectrumPoint:
    """Complex reflection and transmission amplitudes at probe frequency omega.

    Fourier transforming the Heisenberg-Langevin equations for the cavity
    field and the atomic coherences in the weak-drive (single-excitation)
    regime, each of the N coupled atoms contributes a polarizability
    g^2 / (gamma/2 + i (delta - omega)) to the bare cavity response
    kappa/2 - i omega. Eliminating the atoms leaves the cavity susceptibility
    1 / D(omega) with

        D(omega) = kappa/2 - i omega + N g^2 / (gamma/2 + i (delta - omega)),

    and the input-output relations a_out = a_in - sqrt(kappa_a) c,
    b_out = -sqrt(kappa_b) c give

        r(omega) = 1 - kappa_a / D(omega),
        t(omega) = -sqrt(kappa_a kappa_b) / D(omega).

    D cannot vanish for kappa > 0: the atomic term's real part,
    N g^2 (gamma/2) / ((gamma/2)^2 + (delta - omega)^2), is nonnegative, so
    Re D >= kappa/2 > 0 and there is no singular branch. On resonance
    (omega = delta = 0) with symmetric mirrors the probabilities reduce to the
    closed forms of `reflection_probability` and `transmission_probability`
    exactly. A non-finite omega raises ValueError, and so do rates whose
    amplitudes overflow to NaN, such as g^2 or N g^2 beyond float range.
    """
    if not math.isfinite(omega):
        raise ValueError(f"probe frequency must be finite, got {omega}")
    if type(n_atoms) is int and 0 <= n_atoms <= 2 ** 53:  # as `_check_n`
        n = n_atoms
    else:
        n = _check_n(n_atoms)
    half_kappa, g2, half_gamma, delta, kappa_a, root = params._amplitude_terms
    d = half_kappa - 1j * omega + n * g2 / (half_gamma + 1j * (delta - omega))
    r = 1.0 - kappa_a / d
    t = -root / d
    R, T = abs(r) ** 2, abs(t) ** 2
    loss = 1.0 - R - T
    if not math.isfinite(loss):
        raise ValueError(f"the amplitudes overflow at N = {n_atoms}, "
                         f"g = {params.g}, omega = {omega}")
    return SpectrumPoint._make(omega, r, t, R, T, loss)


def effective_cooperativity_ring(params: CavityParams) -> float:
    """Cooperativity after accounting for a counter-propagating cavity mode.

    Scattering into the reverse mode adds 4 g_tilde^2 kappa / kappa_tilde to
    the denominator: x_eff = g^2 / (kappa gamma + 4 g_tilde^2 kappa /
    kappa_tilde). With g_tilde = g and kappa_tilde = kappa this is
    x / (1 + 4 x), strictly below 1/4 for all finite couplings. For a
    standing-wave cavity (g_tilde = 0) it reduces to the bare cooperativity.
    """
    if params.g_tilde == 0:
        return params.cooperativity
    denom = (params.kappa * params.gamma
             + 4.0 * params.g_tilde ** 2 * params.kappa / params.kappa_tilde)
    return params.g ** 2 / denom


def with_cooperativity(params: CavityParams, x: float) -> CavityParams:
    """Copy of `params` with the coupling rescaled to hit cooperativity x."""
    if x < 0:
        raise ValueError("cooperativity must be nonnegative")
    return params.replace(g=math.sqrt(x * params.kappa * params.gamma))


def _linspace(start: float, stop: float, num: int) -> list[float]:
    """`num` evenly spaced floats from start to stop inclusive, by the
    arithmetic of np.linspace, so the two agree bit for bit."""
    start, stop = float(start), float(stop)
    delta = stop - start
    if num < 2:
        return [0.0 * delta + start] * num
    step = delta / (num - 1)
    if step == 0.0:  # the step underflowed: scale by k / (num - 1) instead
        return [k / (num - 1) * delta + start for k in range(num - 1)] + [stop]
    return [k * step + start for k in range(num - 1)] + [stop]


def default_x_grid(n_points: int = 40) -> tuple[float, ...]:
    """Log-spaced cooperativity grid covering the regime of interest, as
    Python floats (not np.float64) within one ulp of np.logspace."""
    return tuple(10.0 ** y for y in _linspace(math.log10(0.05),
                                              math.log10(2.0), n_points))
