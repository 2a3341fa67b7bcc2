"""The record types' value behaviour: repr, equality, hashing, immutability,
construction, pickling and copying, and the rule that names their fields."""

import contextlib
import copy
import inspect
import pickle
import random

import pytest
from engines import gmp_window

from strtherm import ensemble
from strtherm._record import Record
from strtherm.bitstring import BitString, from_bytes
from strtherm.cli import AnalysisConfig, AnalysisResult
from strtherm.ensemble import (
    Ensemble,
    Histogram,
    build_pair_ensemble,
    build_self_ensemble,
)
from strtherm.equilibrium import EquilibriumModel
from strtherm.errors import InvalidLength
from strtherm.thermo import ThermoReport

ENTRIES = ((0, 1), (2, 3))

HIST_REPR = (
    "Histogram(entries=((0, 1), (2, 3)), n_obs=4, nbits=4, max_distance=2, "
    "mode='self')"
)
MODEL_REPR = (
    "EquilibriumModel(mean_distance=2.0, density=0.5, correction=1.0, "
    "variance=1.0, temperature=0.25, peak_count=1.5, n_obs=4, nbits=4, "
    "degenerate=False)"
)
REPORT_REPR = (
    "ThermoReport(temperature=0.25, internal_energy=0.5, internal_energy_eq=0.125, "
    "entropy_thermo=1.0, entropy_thermo_eq=None, entropy_micro=2.0, "
    "entropy_micro_per_bit=0.5, entropy_micro_eq_per_bit=1.0, partition_fn=None, "
    "entropy_nats=3.0, free_energy=-0.25, pressure=0.5, volume=2.0, "
    "degenerate=False, fit_quality=None, nbits=4, n_obs=4)"
)


def hist(**kw):
    return Histogram(**{"entries": ENTRIES, "n_obs": 4, "nbits": 4,
                        "max_distance": 2, **kw})


def ens(**kw):
    return Ensemble(**{"entries": ENTRIES, "n_obs": 4, "nbits": 4,
                       "max_distance": 2, "block": (2, 1, 2), "total_ones": 4,
                       **kw})


def model(**kw):
    return EquilibriumModel(**{"mean_distance": 2.0, "density": 0.5,
                               "correction": 1.0, "variance": 1.0,
                               "temperature": 0.25, "peak_count": 1.5,
                               "n_obs": 4, "nbits": 4, "degenerate": False, **kw})


def report(**kw):
    return ThermoReport(**{
        "temperature": 0.25, "internal_energy": 0.5, "internal_energy_eq": 0.125,
        "entropy_thermo": 1.0, "entropy_thermo_eq": None, "entropy_micro": 2.0,
        "entropy_micro_per_bit": 0.5, "entropy_micro_eq_per_bit": 1.0,
        "partition_fn": None, "entropy_nats": 3.0, "free_energy": -0.25,
        "pressure": 0.5, "volume": 2.0, "degenerate": False, "fit_quality": None,
        "nbits": 4, "n_obs": 4, **kw,
    })


def config(**kw):
    return AnalysisConfig(**{"inputs": ("a.bin",), **kw})


def result(**kw):
    return AnalysisResult(**{"hist": hist(), "model": model(), "report": report(),
                             **kw})


# each record: a factory taking field overrides, its exact repr, and one
# field with another value for the inequality check
RECORDS = {
    "BitString": (lambda **kw: BitString(**{"value": 5, "nbits": 4, **kw}),
                  "BitString(0101, nbits=4, ones=2)", ("value", 6)),
    "Histogram": (hist, HIST_REPR, ("mode", "pair")),
    "Ensemble": (ens, "Ensemble" + HIST_REPR[len("Histogram"):], ("n_obs", 3)),
    "EquilibriumModel": (model, MODEL_REPR, ("degenerate", True)),
    "ThermoReport": (report, REPORT_REPR, ("fit_quality", 0.5)),
    "AnalysisConfig": (
        config,
        "AnalysisConfig(inputs=('a.bin',), bit_order='msb_first', max_bits=None, "
        "ensemble_size=None)",
        ("max_bits", 8),
    ),
    "AnalysisResult": (
        result,
        f"AnalysisResult(hist={HIST_REPR}, model={MODEL_REPR}, report={REPORT_REPR})",
        ("model", model(n_obs=3)),
    ),
}

EACH_RECORD = pytest.mark.parametrize("name", list(RECORDS))


@EACH_RECORD
def test_repr(name):
    make, text, _ = RECORDS[name]
    assert repr(make()) == text


@EACH_RECORD
def test_equal_by_value_with_equal_hashes(name):
    make, _, (field, other) = RECORDS[name]
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    changed = make(**{field: other})
    assert a != changed and not a == changed
    assert {a, b, changed} == {a, changed}


@EACH_RECORD
def test_assignment_and_deletion_raise(name):
    make, _, (field, other) = RECORDS[name]
    r = make()
    with pytest.raises(AttributeError):
        setattr(r, field, other)
    with pytest.raises(AttributeError):
        delattr(r, field)
    with pytest.raises(AttributeError):
        r.unknown = 1
    assert r == make()


@EACH_RECORD
def test_pickle_and_copy_round_trip(name):
    make, text, _ = RECORDS[name]
    r = make()
    for twin in (pickle.loads(pickle.dumps(r)), copy.copy(r), copy.deepcopy(r)):
        assert type(twin) is type(r)
        assert twin == r and hash(twin) == hash(r)
        assert repr(twin) == text


def test_never_equal_across_classes():
    e, h = ens(), hist()
    assert e != h and h != e
    assert not e == h and not h == e
    assert e == ens(block=(0,), total_ones=0)
    assert (ENTRIES, 4, 4, 2, "self") != h


def test_record_is_unequal_to_other_values():
    assert BitString(5, 4) != (5, 4, 2)
    assert model() != None  # noqa: E711
    assert config() != "a.bin"


def test_copies_keep_ensemble_provenance():
    e = ens()
    for twin in (pickle.loads(pickle.dumps(e)), copy.copy(e)):
        assert (twin.block, twin.total_ones) == ((2, 1, 2), 4)
        assert twin.values == e.values


def random_bytes(seed, size):
    return from_bytes(random.Random(seed).randbytes(size))


FULL_BUILDS = {
    "self": lambda: build_self_ensemble(random_bytes(1, 1024)),
    "pair": lambda: build_pair_ensemble(random_bytes(1, 1024), random_bytes(2, 1536)),
}


@pytest.mark.parametrize("window", [False, True], ids=["default", "gmp window"])
@pytest.mark.parametrize("build", list(FULL_BUILDS))
def test_full_ensembles_pickle_and_deep_copy(build, window):
    # a full build's block is the product's cells, a memoryview
    with gmp_window() if window else contextlib.nullcontext():
        e = FULL_BUILDS[build]()
    assert isinstance(e.block, memoryview)
    for twin in (pickle.loads(pickle.dumps(e)), copy.deepcopy(e)):
        assert type(twin) is Ensemble and twin == e
        assert list(twin.block) == list(e.block)
        assert twin.values == e.values


def params(cls):
    return [(p.name, p.kind, p.default)
            for p in inspect.signature(cls).parameters.values()]


POS = inspect.Parameter.POSITIONAL_OR_KEYWORD
KW = inspect.Parameter.KEYWORD_ONLY
NONE = inspect.Parameter.empty


def test_constructor_signatures():
    hist_params = [("entries", POS, NONE), ("n_obs", POS, NONE),
                   ("nbits", POS, NONE), ("max_distance", POS, NONE),
                   ("mode", POS, "self")]
    assert params(BitString) == [("value", POS, NONE), ("nbits", POS, NONE)]
    assert params(Histogram) == hist_params
    assert params(Ensemble) == hist_params + [("block", KW, NONE),
                                              ("total_ones", KW, NONE)]
    assert params(AnalysisConfig) == [
        ("inputs", POS, NONE), ("bit_order", POS, "msb_first"),
        ("max_bits", POS, None), ("ensemble_size", POS, None),
    ]
    assert params(AnalysisResult) == [(f, POS, NONE)
                                      for f in ("hist", "model", "report")]
    assert [p[0] for p in params(EquilibriumModel)] == [
        "mean_distance", "density", "correction", "variance", "temperature",
        "peak_count", "n_obs", "nbits", "degenerate",
    ]
    assert {p[1:] for p in params(EquilibriumModel)} == {(POS, NONE)}
    assert len(params(ThermoReport)) == 17
    assert {p[1:] for p in params(ThermoReport)} == {(POS, NONE)}


def test_positional_and_keyword_construction():
    assert Histogram(ENTRIES, 4, 4, 2) == hist() == hist(mode="self")
    assert Histogram(ENTRIES, 4, 4, 2).mode == "self"
    assert Histogram(ENTRIES, 4, 4, 2, "pair").mode == "pair"
    e = Ensemble(ENTRIES, 4, 4, 2, block=(2, 1, 2), total_ones=4)
    assert e == ens() and e.mode == "self"
    with pytest.raises(TypeError):
        Ensemble(ENTRIES, 4, 4, 2, "self", (2, 1, 2), 4)
    with pytest.raises(TypeError):
        Ensemble(ENTRIES, 4, 4, 2)
    assert EquilibriumModel(2.0, 0.5, 1.0, 1.0, 0.25, 1.5, 4, 4, False) == model()
    positional = ThermoReport(0.25, 0.5, 0.125, 1.0, None, 2.0, 0.5, 1.0, None,
                              3.0, -0.25, 0.5, 2.0, False, None, 4, 4)
    assert positional == report()
    c = AnalysisConfig(("a.bin",))
    assert (c.bit_order, c.max_bits, c.ensemble_size) == ("msb_first", None, None)
    assert AnalysisConfig(("a.bin",), "lsb_first", 8, 3) == config(
        bit_order="lsb_first", max_bits=8, ensemble_size=3
    )
    assert AnalysisResult(hist(), model(), report()) == result()
    with pytest.raises(TypeError):
        Histogram(ENTRIES, 4, 4)
    with pytest.raises(TypeError):
        AnalysisConfig()


class TestBitString:
    def test_ones_is_computed(self):
        assert BitString(0b1011, 4).ones == 3
        assert BitString(0, 7).ones == 0
        with pytest.raises(TypeError):
            BitString(5, 4, 2)
        with pytest.raises(TypeError):
            BitString(5, 4, ones=2)

    def test_ones_takes_part_in_equality(self):
        assert BitString(5, 4) != BitString(5, 5)
        assert hash(BitString(5, 4)) == hash(BitString(5, 4))

    @pytest.mark.parametrize("value, nbits, exc, message", [
        (0, 0, InvalidLength, "bit length must be >= 1, got 0"),
        (-1, 0, InvalidLength, "bit length must be >= 1, got 0"),
        (-1, 4, ValueError, "value has bits set beyond nbits"),
        (16, 4, ValueError, "value has bits set beyond nbits"),
    ])
    def test_validation(self, value, nbits, exc, message):
        with pytest.raises(exc, match=f"^{message}$"):
            BitString(value, nbits)

    def test_long_repr_elides_bits(self):
        assert repr(BitString(1, 65)) == "BitString(...65 bits..., nbits=65, ones=1)"


def test_ensemble_values_are_built_once(monkeypatch):
    calls = []
    distance = ensemble._distance
    monkeypatch.setattr(
        ensemble, "_distance", lambda t, c: calls.append(c) or distance(t, c)
    )
    e = ens()
    assert calls == []
    first = e.values
    assert first == (0, 2, 0, 2)
    assert calls == [2, 1, 2]
    assert e.values is first
    assert calls == [2, 1, 2]


class Point(Record):
    def __init__(self, x, y=0, *, label=None):
        self._set(locals())


class Doubled(Record):
    _fields = ("x", "double")

    def __init__(self, x):
        self.__dict__.update(x=x, double=2 * x)


class TestFieldsRule:
    def test_positional_parameters_are_the_fields(self):
        assert Point._fields == ("x", "y")
        assert repr(Point(1, 2)) == "Point(x=1, y=2)"
        assert Point(1, 2) == Point(1, y=2) and Point(1, 2) != Point(1, 3)
        assert Point(1) == Point(1, 0) != Point(2, 0)

    def test_keyword_only_parameters_are_stored_but_not_compared(self):
        a, b = Point(1, 2, label="a"), Point(1, 2, label="b")
        assert (a.label, b.label) == ("a", "b")
        assert a == b and hash(a) == hash(b)
        assert repr(a) == "Point(x=1, y=2)"

    def test_named_fields_are_kept(self):
        assert Doubled._fields == ("x", "double")
        assert repr(Doubled(2)) == "Doubled(x=2, double=4)"
        assert Doubled(2) != Doubled(3)

    @EACH_RECORD
    def test_instance_holds_its_fields_only(self, name):
        make, _, _ = RECORDS[name]
        r = make()
        stored = {"block", "total_ones"} if name == "Ensemble" else set()
        assert set(vars(r)) == set(type(r)._fields) | stored
