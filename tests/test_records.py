"""The ten record types are immutable values: each builds from keywords,
prints as Name(field=value, ...), equals only an object of its own class
with equal fields, hashes as its field tuple, and refuses assignment."""

import copy
import pickle

import pytest

from latticeobs.colorer import SchemeParams
from latticeobs.decoder import DecodeReport, WalkObservation
from latticeobs.gfpoly import FieldPrime
from latticeobs.lattice import Edge, LatticeSpec, Walk
from latticeobs.oarray import OASpec
from latticeobs.verifier import CampaignReport, ScanReport

SPEC = "LatticeSpec(dims=(3, 3), directed=True, t=2)"
PARAMS = (
    f"SchemeParams(lattice={SPEC}, kind='colord', sigma=FieldPrime(modulus=5), "
    "group_count=4, group_size=20)"
)


def _params():
    return SchemeParams(lattice=LatticeSpec(dims=(3, 3), directed=True, t=2), kind="colord")


# (class, keyword arguments, pinned repr, keyword arguments of an unequal value)
CASES = [
    (LatticeSpec, lambda: {"dims": [3, 3], "directed": True, "t": 2}, SPEC,
     lambda: {"dims": (3, 3), "directed": False, "t": 2}),
    (Edge, lambda: {"root": (0, 1), "code": 2}, "Edge(root=(0, 1), code=2)",
     lambda: {"root": (0, 1), "code": 3}),
    (Walk, lambda: {"start": (0, 1), "steps": (2, -1)}, "Walk(start=(0, 1), steps=(2, -1))",
     lambda: {"start": (0, 1), "steps": (2,)}),
    (SchemeParams, lambda: {"lattice": LatticeSpec((3, 3), True, 2), "kind": "colord"}, PARAMS,
     lambda: {"lattice": LatticeSpec((3, 3), True, 2), "kind": "colord", "sigma": 7}),
    (FieldPrime, lambda: {"modulus": 7}, "FieldPrime(modulus=7)", lambda: {"modulus": 11}),
    (OASpec, lambda: {"p": FieldPrime(7), "t": 2, "cols": 4},
     "OASpec(p=FieldPrime(modulus=7), t=2, cols=4)",
     lambda: {"p": FieldPrime(7), "t": 2, "cols": 5}),
    (WalkObservation, lambda: {"colors": [1, 2], "params": _params()},
     f"WalkObservation(colors=(1, 2), params={PARAMS})",
     lambda: {"colors": (2, 1), "params": _params()}),
    (DecodeReport,
     lambda: {"status": "ok", "root": (0, 0), "root_index": 0, "current": (1, 0),
              "embedding": ((0, 0), (1, 0))},
     "DecodeReport(status='ok', root=(0, 0), root_index=0, current=(1, 0), "
     "embedding=((0, 0), (1, 0)))",
     lambda: {"status": "invalid"}),
    (ScanReport, lambda: {"scanned": 10, "max_len": 2, "collisions": (), "ok": True},
     "ScanReport(scanned=10, max_len=2, collisions=(), ok=True)",
     lambda: {"scanned": 10, "max_len": 3, "collisions": (), "ok": True}),
    (CampaignReport,
     lambda: {"label": "roundtrip", "total": 2, "ok": 1,
              "failures": ((1, (0, 0), (1,), "invalid"),)},
     "CampaignReport(label='roundtrip', total=2, ok=1, "
     "failures=((1, (0, 0), (1,), 'invalid'),))",
     lambda: {"label": "roundtrip", "total": 2, "ok": 2, "failures": ()}),
]
IDS = [case[0].__name__ for case in CASES]


FIELDS = {
    LatticeSpec: ("dims", "directed", "t"),
    Edge: ("root", "code"),
    Walk: ("start", "steps"),
    SchemeParams: ("lattice", "kind", "sigma", "group_count", "group_size"),
    FieldPrime: ("modulus",),
    OASpec: ("p", "t", "cols"),
    WalkObservation: ("colors", "params"),
    DecodeReport: ("status", "root", "root_index", "current", "embedding"),
    ScanReport: ("scanned", "max_len", "collisions", "ok"),
    CampaignReport: ("label", "total", "ok", "failures"),
}


def _values(record):
    return tuple(getattr(record, name) for name in FIELDS[type(record)])


@pytest.mark.parametrize("cls,kwargs,text,other", CASES, ids=IDS)
def test_keyword_construction_and_pinned_repr(cls, kwargs, text, other):
    record = cls(**kwargs())
    assert repr(record) == text
    for name in set(kwargs()) & {"dims", "colors"}:
        assert type(getattr(record, name)) is tuple


@pytest.mark.parametrize("cls,kwargs,text,other", CASES, ids=IDS)
def test_equal_by_class_and_fields_with_the_field_tuple_hash(cls, kwargs, text, other):
    a, b, c = cls(**kwargs()), cls(**kwargs()), cls(**other())
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b) == hash(_values(a))
    assert a != c and c != a
    assert a != _values(a)

    class Sub(cls):
        pass

    assert a != Sub(**kwargs()) and Sub(**kwargs()) != a


def test_edge_and_walk_with_equal_values_are_unequal():
    edge, walk = Edge((0, 1), 2), Walk((0, 1), 2)
    assert (edge.root, edge.code) == (walk.start, walk.steps)
    assert edge != walk and walk != edge
    assert len({edge, walk}) == 2


@pytest.mark.parametrize("cls,kwargs,text,other", CASES, ids=IDS)
def test_fields_refuse_assignment_and_deletion(cls, kwargs, text, other):
    record = cls(**kwargs())
    for name in FIELDS[cls]:
        value = getattr(record, name)
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(record, name, value)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(record, name)
        assert getattr(record, name) is value
    with pytest.raises(AttributeError):
        record.extra = 1
    assert repr(record) == text


@pytest.mark.parametrize("cls,kwargs,text,other", CASES, ids=IDS)
def test_copies_and_pickles_are_equal_values(cls, kwargs, text, other):
    record = cls(**kwargs())
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is cls and twin == record and repr(twin) == text


def test_cached_properties_live_beside_the_fields():
    """LatticeSpec, SchemeParams and OASpec cache derived values on the
    instance; a cached value changes neither repr nor equality."""
    spec = LatticeSpec((3, 3), True, 2)
    params = _params()
    oa = OASpec(FieldPrime(7), 2, 4)
    assert (spec.size, spec.weights, oa.rows) == (9, (3, 1), 49)
    assert params.oa == OASpec(FieldPrime(5), 2, 4)
    assert spec.size is spec.size and params.oa is params.oa and spec.step_table is spec.step_table
    assert {"size", "weights", "step_table"} <= set(vars(spec))
    assert repr(spec) == SPEC and spec == LatticeSpec((3, 3), True, 2)
    assert repr(params) == PARAMS and params == _params()
    assert hash(params) == hash(_params())


SPEC_CACHED = ("d", "codes", "size", "weights", "step_table")
PARAMS_CACHED = ("palette", "oa", "row_table")


def _cached_values(record) -> dict:
    """Every cached value of a LatticeSpec, or of a SchemeParams and its lattice."""
    spec = getattr(record, "lattice", record)
    values = {name: getattr(spec, name) for name in SPEC_CACHED}
    if record is not spec:
        values |= {name: getattr(record, name) for name in PARAMS_CACHED}
    return values


@pytest.mark.parametrize(
    "make", [lambda: LatticeSpec((3, 3), True, 2), _params], ids=["LatticeSpec", "SchemeParams"]
)
def test_cached_values_stay_out_of_identity(make):
    """A record whose cached values have been read equals, hashes, prints,
    copies and pickles exactly as a fresh one; its copies compute the same
    values again; and it refuses assignment and deletion of every cached
    name as of every field."""
    warm, fresh = make(), make()
    cached = _cached_values(warm)
    assert [cached[name] for name in SPEC_CACHED[:4]] == [2, 4, 9, (3, 1)]
    assert cached["step_table"][3] == (0, -1, -3, 3)
    spec = getattr(warm, "lattice", warm)
    targets = [(spec, FIELDS[LatticeSpec] + SPEC_CACHED)]
    if warm is not spec:
        assert (cached["palette"], cached["oa"].cols, len(cached["row_table"])) == (80, 4, 5)
        targets.append((warm, FIELDS[SchemeParams] + PARAMS_CACHED))
    assert warm == fresh and fresh == warm
    assert hash(warm) == hash(fresh) and repr(warm) == repr(fresh)
    assert pickle.dumps(warm) == pickle.dumps(fresh)
    for twin in (copy.copy(warm), copy.deepcopy(warm), pickle.loads(pickle.dumps(warm))):
        assert type(twin) is type(warm) and twin == fresh
        assert hash(twin) == hash(fresh) and repr(twin) == repr(fresh)
        assert set(vars(twin)) == set(FIELDS[type(warm)])
        assert _cached_values(twin) == cached
    for record, names in targets:
        for name in names:
            value = getattr(record, name)
            with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
                setattr(record, name, value)
            with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
                delattr(record, name)
            assert getattr(record, name) is value
