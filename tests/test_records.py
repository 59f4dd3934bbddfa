"""The record contract of the package's result and parameter types.

`core.Record` gives every type its construction, comparison, printing,
copying, freezing and slotted layout. The repr() strings below were
captured from the dataclass implementation these records replace, so
printing is pinned byte for byte; `SweepSpec` has since gained its last
field, `base`, and the ratio forms of `protocol` have since moved the last
digit of a few of the numbers that the outcome and row entries hold.
"""

import copy
import dis
import pickle
import sys
import types
import weakref

import pytest

from cavityherald.core import (
    CavityParams,
    FrozenRecordError,
    Record,
    SpectrumPoint,
    _cached,
    asdict,
    fields,
    scattering_amplitudes,
)
from cavityherald.optimize import (
    OptimizationResult,
    Scheme,
    SweepSpec,
    optimize_coherent_double,
    optimize_fock_double,
    optimize_fock_single,
)
from cavityherald.oracle import LindbladSystem, build_system
from cavityherald.protocol import (
    Preparation,
    SchemeOutcome,
    coherent_single,
    fock_single,
    initial_populations,
)
from conftest import state

P1 = CavityParams.from_cooperativity(1.0)
_HIDDEN = ("n_evals", "budget_capped")

# (record, its repr() as the dataclass printed it)
_RECORDS = {
    "params": (
        CavityParams.from_cooperativity(0.3, eta=0.9),
        "CavityParams(g=0.5477225575051661, kappa_a=0.5, kappa_b=0.5, "
        "gamma=1.0, delta=0.0, eta=0.9, f=0.0, g_tilde=0.0, "
        "kappa_tilde=0.0)"),
    "ring-params": (
        CavityParams(g=1.0, kappa_a=0.5, kappa_b=0.5, g_tilde=0.5,
                     kappa_tilde=2.0),
        "CavityParams(g=1.0, kappa_a=0.5, kappa_b=0.5, gamma=1.0, "
        "delta=0.0, eta=1.0, f=0.0, g_tilde=0.5, kappa_tilde=2.0)"),
    "spectrum-point": (
        scattering_amplitudes(P1, 0.3, 2),
        "SpectrumPoint(omega=0.3, r=(0.8769871309613929+0.0523593237446379j),"
        " t=(-0.12301286903860711+0.0523593237446379j), "
        "R=0.7718479266548911, T=0.017873664732105308, "
        "loss=0.2102784086130036)"),
    "preparation": (
        initial_populations(0.6),
        "Preparation(phi=0.6, p0=0.46400466279568114, "
        "p1=0.43434842888531144, p2=0.10164690831900755)"),
    "outcome": (
        coherent_single(P1, 0.6, 2.0),
        "SchemeOutcome(p_success=0.39429870958300317, "
        "fidelity=0.7110049235707077, status='ok', "
        "p1_conditional=0.7952939145897493, re_coherence=0.31335796627583296, "
        "p_success_err=None, fidelity_err=None, n_success=None)"),
    "undefined-outcome": (
        fock_single(CavityParams.from_cooperativity(0.0), 0.6),
        "SchemeOutcome(p_success=0.0, fidelity=None, status='undefined', "
        "p1_conditional=None, re_coherence=None, p_success_err=None, "
        "fidelity_err=None, n_success=None)"),
    "ok-row": (
        optimize_fock_single(P1, 0.9),
        "OptimizationResult(x=1.0, scheme=<Scheme.FOCK_SINGLE: "
        "'fock-single'>, eta=1.0, f_target=0.9, phi_opt=0.4012471419183608, "
        "n_max_opt=None, p_success=0.18385521401896004, "
        "fidelity_achieved=0.8999999999999999, status='ok')"),
    "infeasible-row": (
        optimize_fock_double(CavityParams.from_cooperativity(0.0), 0.9),
        "OptimizationResult(x=0.0, scheme=<Scheme.FOCK_DOUBLE: "
        "'fock-double'>, eta=1.0, f_target=0.9, phi_opt=None, n_max_opt=None,"
        " p_success=0.0, fidelity_achieved=None, status='infeasible')"),
    "capped-row": (
        optimize_coherent_double(P1, 0.6),
        "OptimizationResult(x=1.0, scheme=<Scheme.COHERENT_DOUBLE: "
        "'coherent-double'>, eta=1.0, f_target=0.6, "
        "phi_opt=0.7853981633974483, n_max_opt=1000.0, p_success=0.5, "
        "fidelity_achieved=0.7222222222222223, status='ok')"),
    "sweep-spec": (
        SweepSpec(x_grid=(0.5, 1.0), eta=0.8, f_target=0.9,
                  scheme=Scheme.COHERENT_SINGLE),
        "SweepSpec(x_grid=(0.5, 1.0), eta=0.8, f_target=0.9, "
        "scheme=<Scheme.COHERENT_SINGLE: 'coherent-single'>, base=None)"),
}
_IDS = list(_RECORDS)
_ONLY = [record for record, _ in _RECORDS.values()]


def _compared(record):
    # the field tuple that equality and the hash compare
    return tuple(getattr(record, name) for name in fields(record)
                 if name not in _HIDDEN)


def _rebuilt(record):
    # the same record through the public constructor, by keyword
    return type(record)(**{name: getattr(record, name)
                           for name in record.__match_args__})


@pytest.mark.parametrize("record, text", _RECORDS.values(), ids=_IDS)
def test_repr_is_the_dataclass_repr(record, text):
    assert repr(record) == text
    assert repr(_rebuilt(record)) == text


@pytest.mark.parametrize("record", _ONLY, ids=_IDS)
def test_equality_and_hash_compare_the_field_tuple(record):
    twin = _rebuilt(record)
    assert twin == record and not twin != record
    assert hash(record) == hash(_compared(record)) == hash(twin)
    assert {twin: "found"}[record] == "found"
    # only a record of the same class can be equal
    assert record != _compared(record)
    assert record.__eq__(_compared(record)) is NotImplemented


def test_records_of_another_class_are_never_equal():
    class Twin(Record):
        phi: float
        p0: float
        p1: float
        p2: float

    prep = initial_populations(0.6)
    twin = Twin(*(getattr(prep, name) for name in fields(prep)))
    assert repr(twin).endswith(repr(prep)[len("Preparation"):])
    assert hash(twin) == hash(prep)
    assert twin != prep and prep != twin


@pytest.mark.parametrize("record", _ONLY, ids=_IDS)
def test_fields_asdict_and_match_args(record):
    names = fields(record)
    assert names == fields(type(record))
    assert list(state(record))[:len(names)] == list(names)
    assert asdict(record) == {name: getattr(record, name) for name in names}
    assert list(asdict(record)) == list(names)
    # __init__ and `match` take every field but the derived ones, in order
    assert record.__match_args__ == tuple(
        name for name in names if name not in ("R", "T", "loss"))
    positional = type(record)(*(getattr(record, name)
                                for name in record.__match_args__))
    assert state(positional) == state(_rebuilt(record))


@pytest.mark.parametrize("record", _ONLY, ids=_IDS)
def test_pickle_and_copy_round_trips(record):
    for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record),
                 copy.deepcopy(record)):
        assert type(twin) is type(record)
        assert state(twin) == state(record)
        assert twin == record and hash(twin) == hash(record)
        assert repr(twin) == repr(record)
        with pytest.raises(FrozenRecordError):
            twin.__setattr__(fields(twin)[0], None)


@pytest.mark.parametrize("record", _ONLY, ids=_IDS)
def test_setting_or_deleting_an_attribute_raises(record):
    name = fields(record)[0]
    before = state(record).copy()
    with pytest.raises(FrozenRecordError, match="cannot assign to field"):
        setattr(record, name, 0.0)
    with pytest.raises(FrozenRecordError, match="cannot assign to field"):
        record.brand_new = 1
    with pytest.raises(FrozenRecordError, match="cannot delete field"):
        delattr(record, name)
    assert state(record) == before
    assert issubclass(FrozenRecordError, AttributeError)
    with pytest.raises(AttributeError):
        setattr(record, name, 0.0)


@pytest.mark.parametrize("record", _ONLY, ids=_IDS)
def test_replace_copies_through_the_constructor(record):
    same = record.replace()
    assert same is not record and same == record
    assert state(same) == state(_rebuilt(record))
    # a new first field that the type's checks accept
    name = record.__match_args__[0]
    value = {CavityParams: 2.0, SweepSpec: (0.25,)}.get(type(record))
    changed = record.replace(**{name: value})
    assert getattr(changed, name) == value and changed != record
    assert state(changed) == {**state(same), name: value}
    with pytest.raises(TypeError):
        record.replace(no_such_field=1.0)


@pytest.mark.parametrize("changes", [
    {"eta": 2.0}, {"eta": -0.1}, {"f": 1.0}, {"g": -1.0}, {"kappa_a": 0.0},
    {"gamma": 2.0}, {"delta": float("nan")}, {"g_tilde": 1.0}])
def test_replace_runs_the_params_checks_again(changes):
    with pytest.raises(ValueError):
        P1.replace(**changes)


def test_replace_runs_the_sweep_spec_checks_again():
    spec = SweepSpec((0.5, 1.0), 0.8, 0.9, Scheme.FOCK_SINGLE)
    for changes in ({"x_grid": ()}, {"x_grid": (1.0, 0.5)},
                    {"x_grid": (float("inf"),)},
                    {"base": CavityParams.from_cooperativity(1.0)}):
        with pytest.raises(ValueError):
            spec.replace(**changes)


def test_replace_recomputes_derived_spectrum_fields():
    point = scattering_amplitudes(P1, 0.0, 1)
    moved = point.replace(r=0.6 + 0j)
    assert (moved.R, moved.T, moved.loss) == (0.36, point.T, 1.0 - 0.36
                                              - point.T)
    assert moved == SpectrumPoint(point.omega, 0.6 + 0j, point.t)
    # derived fields are not constructor arguments
    with pytest.raises(TypeError):
        point.replace(R=0.5)
    with pytest.raises(TypeError):
        SpectrumPoint(0.0, 1.0, 0.0, 1.0)


@pytest.mark.parametrize("record", [_RECORDS[k][0] for k in (
    "ok-row", "infeasible-row", "capped-row")])
def test_hidden_fields_stay_out_of_repr_and_equality(record):
    assert record.n_evals is not None
    for name in _HIDDEN:
        assert name not in repr(record)
        other = record.replace(**{name: "something else"})
        assert other == record and hash(other) == hash(record)
        assert repr(other) == repr(record)
        assert getattr(other, name) == "something else"
    assert record.replace(status="x") != record


def test_cached_rates_stay_out_of_equality_repr_and_copies():
    params = CavityParams.from_cooperativity(0.3, eta=0.9)
    text, key = repr(params), hash(params)
    params._rates, params._amplitude_terms
    assert {"_rates", "_mirror_rates",
            "_amplitude_terms"} <= set(state(params))
    assert (repr(params), hash(params)) == (text, key)
    assert params == CavityParams.from_cooperativity(0.3, eta=0.9)
    assert list(asdict(params)) == list(fields(params))
    for copied in (params.replace(), params.replace(eta=0.5)):
        assert not {"_rates", "_mirror_rates", "_amplitude_terms"} & set(
            state(copied))
        assert list(state(copied)) == list(fields(copied))


class _Counted(Record):
    # a record with one cached property that counts its getter's runs
    x: float
    runs = []

    @_cached
    def _twice(self) -> float:
        self.runs.append(self.x)
        if self.x < 0.0:
            raise ValueError("negative")
        return 2.0 * self.x


def test_cached_property_computes_once_per_instance():
    _Counted.runs.clear()
    first, second = _Counted(1.5), _Counted(1.5)
    assert (first._twice, first._twice, first._twice) == (3.0, 3.0, 3.0)
    assert _Counted.runs == [1.5]
    assert state(first) == {"x": 1.5, "_twice": 3.0}
    assert second._twice == 3.0 and _Counted.runs == [1.5, 1.5]
    # the cache belongs to the instance, not the class or a copy
    assert "_twice" not in state(first.replace())
    assert isinstance(_Counted._twice, _cached)


def test_cached_property_whose_getter_raises_raises_on_every_read():
    _Counted.runs.clear()
    bad = _Counted(-1.0)
    for _ in range(3):
        with pytest.raises(ValueError, match="negative"):
            bad._twice
    assert _Counted.runs == [-1.0] * 3
    assert state(bad) == {"x": -1.0}


def test_cached_rates_leave_repr_equality_hash_replace_and_pickle():
    fresh = CavityParams.from_cooperativity(0.3, eta=0.9)
    read = CavityParams.from_cooperativity(0.3, eta=0.9)
    read._rates, read._ratios, read._amplitude_terms
    assert {"_mirror_rates", "_rates", "_ratios",
            "_amplitude_terms"} <= set(state(read))
    assert repr(read) == repr(fresh) and hash(read) == hash(fresh)
    assert read == fresh and fresh == read
    assert state(read.replace()) == state(fresh)
    for params in (fresh, read):
        again = pickle.loads(pickle.dumps(params))
        assert again == params and repr(again) == repr(params)
        assert again._ratios == read._ratios
    # a cached value is still not an attribute that can be set
    with pytest.raises(FrozenRecordError):
        read._ratios = (0.0, 1.0, 0.0, 0.0)


def test_positional_and_keyword_construction_agree():
    by_position = CavityParams(0.5, 0.5, 0.5)
    by_keyword = CavityParams(g=0.5, kappa_a=0.5, kappa_b=0.5)
    assert state(by_position) == state(by_keyword)
    assert by_position.gamma == 1.0 and by_position.kappa_tilde == 0.0
    with pytest.raises(TypeError):
        CavityParams(0.5, 0.5)
    with pytest.raises(TypeError):
        CavityParams(0.5, 0.5, 0.5, g=0.5)
    out = SchemeOutcome(0.25, 0.75)
    assert (out.status, out.n_success) == ("ok", None)
    assert OptimizationResult(1.0, Scheme.FOCK_SINGLE, 1.0, 0.9, None, None,
                              0.0, None).n_evals is None
    assert Preparation(0.1, 0.2, 0.3, 0.4).p2 == 0.4


def test_every_record_type_derives_from_the_one_base():
    for record in _ONLY:
        assert isinstance(record, Record)
    match P1:
        case CavityParams(g, kappa_a, kappa_b, eta=eta):
            assert (g, kappa_a, kappa_b, eta) == (1.0, 0.5, 0.5, 1.0)
        case _:
            pytest.fail("CavityParams did not match by position")


def test_subclassing_a_record_class_raises_type_error():
    with pytest.raises(TypeError,
                       match=r"\.C cannot subclass another record"):
        class C(SchemeOutcome):
            pass

    with pytest.raises(TypeError,
                       match=r"\.B cannot subclass another record"):
        class B(SchemeOutcome):
            extra: int = 0


def test_a_record_class_with_no_field_raises_type_error():
    with pytest.raises(TypeError, match=r"\.E has no field"):
        class E(Record):
            pass


# the public record classes; `_make` builds an instance of a private twin of
# each, which must never reach a caller
_TYPES = (CavityParams, SpectrumPoint, Preparation, SchemeOutcome,
          OptimizationResult, SweepSpec, LindbladSystem)
_SYSTEM = build_system(P1, 1)
_EVERY = [*_ONLY, _SYSTEM]
_EVERY_IDS = [*_IDS, "lindblad-system"]


def _made(record):
    # the same record through `_make`, from every field
    return type(record)._make(*(getattr(record, name)
                                for name in fields(record)))


@pytest.mark.parametrize("record", _EVERY, ids=_EVERY_IDS)
def test_made_and_constructed_records_have_exactly_their_class(record):
    cls = type(record)
    assert cls in _TYPES
    for other in (_made(record), _rebuilt(record), record.replace()):
        assert type(other) is cls


@pytest.mark.parametrize("record", _EVERY, ids=_EVERY_IDS)
def test_records_hold_their_fields_in_slots(record):
    # a field is a slot, so a record has no instance __dict__; only a class
    # with cached properties has one, and it holds their values alone
    cached = {name for name, value in vars(type(record)).items()
              if isinstance(value, _cached)}
    assert type(record).__slots__[:len(fields(record))] == fields(record)
    if not cached:
        assert not hasattr(record, "__dict__")
        assert not hasattr(_made(record), "__dict__")
        return
    params = record.replace()
    assert vars(params) == {}
    params._rates, params._ratios, params._amplitude_terms
    assert set(vars(params)) == cached


@pytest.mark.parametrize("record", _EVERY, ids=_EVERY_IDS)
def test_records_take_weak_references(record):
    for one in (record, _made(record)):
        assert weakref.ref(one)() is one


def test_fields_come_from_an_annotate_function_in_the_class_namespace(
        monkeypatch):
    # from Python 3.14 a class body's namespace holds an annotate function
    # in place of __annotations__ (PEP 649 and 749); the metaclass asks it
    # for the names in FORWARDREF format. Before 3.14 a stand-in module
    # gives annotationlib's two functions
    try:
        import annotationlib
    except ImportError:
        annotationlib = types.ModuleType("annotationlib")
        annotationlib.Format = types.SimpleNamespace(FORWARDREF=3)
        annotationlib.get_annotate_from_class_namespace = (
            lambda namespace: namespace.get("__annotate__"))
        annotationlib.call_annotate_function = (
            lambda annotate, format: annotate(format))
        monkeypatch.setitem(sys.modules, "annotationlib", annotationlib)
    asked = []

    def annotate(format):
        asked.append(format)
        return {"a": float, "b": float}

    Lazy = type(Record)("Lazy", (Record,), {
        "__module__": __name__, "__qualname__": "Lazy",
        "__annotate__": annotate, "b": 2.0})
    assert asked == [annotationlib.Format.FORWARDREF]
    assert fields(Lazy) == ("a", "b")
    assert asdict(Lazy(1.0)) == asdict(Lazy._make(1.0)) == {"a": 1.0, "b": 2.0}
    assert not hasattr(Lazy(1.0), "__dict__")
    with pytest.raises(TypeError, match="Empty has no field"):
        type(Record)("Empty", (Record,), {"__module__": __name__,
                                          "__qualname__": "Empty"})


@pytest.mark.skipif(sys.version_info < (3, 14),
                    reason="annotations are evaluated eagerly before 3.14")
def test_a_field_may_name_a_type_defined_later():
    class Later(Record):
        a: Undefined  # noqa: F821
        b: float = 2.0

    assert fields(Later) == ("a", "b")
    assert Later(1.0).b == 2.0


def _plain(value):
    # a field value as == compares it: an array, as a system's operators
    # are, by its dtype, shape and bytes
    if isinstance(value, tuple):
        return tuple(map(_plain, value))
    if hasattr(value, "tobytes"):
        return value.dtype, value.shape, value.tobytes()
    return value


@pytest.mark.parametrize("record", _EVERY, ids=_EVERY_IDS)
def test_pickles_and_copies_rebuild_the_fields_alone(record):
    # every pickle protocol, copy and deepcopy go through `_make`, so a
    # params' cached values stay behind, and so do those of a system's
    # params, which only the shallow copy shares
    if isinstance(record, CavityParams):
        record = record.replace()
        record._rates, record._ratios, record._amplitude_terms
    rebuilt = [*(pickle.loads(pickle.dumps(record, protocol))
                 for protocol in range(pickle.HIGHEST_PROTOCOL + 1)),
               copy.deepcopy(record)]
    for twin in (*rebuilt, copy.copy(record)):
        assert type(twin) is type(record)
        assert twin == record and repr(twin) == repr(record)
        assert [_plain(getattr(twin, name)) for name in fields(twin)] == [
            _plain(getattr(record, name)) for name in fields(record)]
        if isinstance(twin, CavityParams):
            assert vars(twin) == {}
    for twin in rebuilt:
        if isinstance(twin, LindbladSystem):
            assert vars(record.params) and vars(twin.params) == {}


_MAKE_ARGS = [
    (SchemeOutcome, (0.25, 0.75)),
    (SpectrumPoint, (0.3, 0.5 + 0.1j, -0.2j, 0.26, 0.04, 0.7)),
    (OptimizationResult, (1.0, Scheme.FOCK_SINGLE, 1.0, 0.9, 0.4, None, 0.2,
                          0.9, "ok", 12, None)),
]


@pytest.mark.parametrize("cls, args", _MAKE_ARGS,
                         ids=[cls.__name__ for cls, _ in _MAKE_ARGS])
def test_make_runs_no_python_frame_but_its_own(cls, args):
    # its stores and the move to the class run no Python-level hook
    frames = []

    def profile(frame, event, arg):
        if event == "call":
            frames.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        made = cls._make(*args)
    finally:
        sys.setprofile(None)
    assert frames == ["_make"]
    assert type(made) is cls


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="the interpreter specializes no instruction")
@pytest.mark.parametrize("cls, args", _MAKE_ARGS,
                         ids=[cls.__name__ for cls, _ in _MAKE_ARGS])
def test_make_stores_each_field_as_a_plain_slot_store(cls, args):
    # a store into a slot specializes to STORE_ATTR_SLOT only on a type
    # whose __setattr__ and __delattr__ are both object's. A Python-level
    # __delattr__ left on the open twin sends every store down the generic
    # path, which made `_make` about five times slower, and which no profile
    # hook sees, since the stores still call no Python function
    for _ in range(100):
        cls._make(*args)
    stores = [ins.opname for ins in dis.get_instructions(cls._make,
                                                         adaptive=True)
              if ins.opname.startswith("STORE_ATTR")
              and ins.argval in fields(cls)]
    assert stores == ["STORE_ATTR_SLOT"] * len(fields(cls))


@pytest.mark.parametrize("cls", _TYPES, ids=[cls.__name__ for cls in _TYPES])
def test_make_builds_its_instance_by_calling_the_open_twin(cls):
    # the twin's __init__ is object's, so calling the twin runs in C alone;
    # `object.__new__(twin)` reaches the same instance through the wrapper
    # of the __new__ slot, which measured slower per `_make`. The twin is
    # the one class that `_make` names and that derives from `cls`
    names = cls._make.__code__.co_names
    named = {name: cls._make.__globals__[name] for name in names
             if name in cls._make.__globals__}
    twins = [value for value in named.values()
             if isinstance(value, type) and value.__base__ is cls]
    assert len(twins) == 1
    assert twins[0].__init__ is object.__init__
    assert "__new__" not in names
    assert not any(value is object.__new__ for value in named.values())


def test_lindblad_system_compares_by_its_inputs():
    # the operator arrays are functions of params, n_c and drive_flux, so
    # they stay out of repr(), equality and the hash
    system = build_system(P1, 1)
    assert repr(system) == (
        "LindbladSystem(params=CavityParams(g=1.0, kappa_a=0.5, kappa_b=0.5, "
        "gamma=1.0, delta=0.0, eta=1.0, f=0.0, g_tilde=0.0, "
        "kappa_tilde=0.0), n_in_state_1=1, n_c=3, drive_flux=0.001)")
    twin = build_system(P1, 1)
    assert twin is not system and twin == system
    assert hash(twin) == hash(system) == hash((P1, 1, 3, 0.001))
    assert build_system(P1, 2) != system
    assert isinstance(system, Record)
    with pytest.raises(FrozenRecordError, match="cannot assign to field"):
        system.n_c = 4
    back = pickle.loads(pickle.dumps(system))
    assert back == system and repr(back) == repr(system)
    assert (back.hamiltonian == system.hamiltonian).all()
