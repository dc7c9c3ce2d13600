"""The record base of report.py: the check report, the k0 certificates and
the expression nodes compare, hash and show as the dataclasses they
replaced, keep their construction, and the frozen ones refuse assignment.
The graded elements are frozen records too, and the scalar bases are
records that stay open to assignment."""

import dataclasses
import itertools
import pickle
import random

import pytest

from skewseries import (BaseScalars, CheckReport, CompletedRow, GradedElem,
                        IdempotentMatrix, RankWitness, SeriesScalars,
                        StableIsoWitness, StablyFreeWitness, TruncatedSeries,
                        idempotent_rank, parse_ring_preset, principal_symbol,
                        run_property_suite, stable_iso_witness,
                        stably_free_witness, unimodular_complete)
from skewseries.cli import _parse_matrix
from skewseries.exprparse import Add, Const, Mul, Neg, Pow, Sub, Var
from skewseries.report import FrozenRecord, Record
from test_expr_eval import _random_tree

FROZEN = (IdempotentMatrix, RankWitness, StableIsoWitness, StablyFreeWitness,
          CompletedRow, CheckReport, GradedElem)


def _examples():
    """Two instances of every frozen record class, the second over S/G_3
    where the class has a scalar base."""
    z8 = parse_ring_preset("zmod:2^3")
    examples = []
    for precision, first, second in ((None, "1,2;0,0", "1,0;0,0"),
                                     (3, "1, 2*x; 0, 0", "0,0;0,1")):
        scalars = BaseScalars(z8) if precision is None else SeriesScalars(z8, precision)
        e1, e2 = (IdempotentMatrix(scalars, _parse_matrix(m, z8, precision))
                  for m in (first, second))
        examples += [e1, idempotent_rank(e1), stable_iso_witness(e1, e2),
                     stably_free_witness(e1, 1),
                     unimodular_complete(scalars, e1.entries[0])]
    examples.append(run_property_suite("ring-axioms", z8, None, 5, 1))
    examples.append(CheckReport("poly-assoc", 3, "a=1", {"mode": "sampled"}))
    f27 = parse_ring_preset("truncpoly:3:3:c=2")
    t = TruncatedSeries.constant(f27, 3, f27.radical_gens[0])
    examples += [GradedElem.one(z8),
                 principal_symbol(t * TruncatedSeries.var(f27, 3) + t * t)]
    return examples


EXAMPLES = _examples()
IDS = [f"{type(r).__name__}-{i}" for i, r in enumerate(EXAMPLES)]


def _values(record):
    return {name: getattr(record, name) for name in record._fields}


def _twin(record):
    """The same values in a dataclass of the same name and fields."""
    cls = dataclasses.make_dataclass(type(record).__name__, record._fields,
                                     frozen=isinstance(record, FrozenRecord))
    return cls(**_values(record))


def test_every_former_dataclass_has_examples():
    assert {type(r) for r in EXAMPLES} == set(FROZEN)
    assert all(isinstance(r, Record) for r in EXAMPLES)


@pytest.mark.parametrize("record", EXAMPLES, ids=IDS)
def test_repr_and_hash_match_the_dataclass(record):
    twin = _twin(record)
    assert repr(record) == repr(twin)
    assert repr(record).startswith(f"{type(record).__name__}({record._fields[0]}=")
    if isinstance(record, CheckReport):
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
        with pytest.raises(TypeError, match="unhashable"):
            hash(twin)
    else:
        assert hash(record) == hash(twin)


@pytest.mark.parametrize("record", EXAMPLES, ids=IDS)
def test_construction_by_position_and_keyword(record):
    cls, values = type(record), _values(record)
    by_keyword = cls(**values)
    by_position = cls(*values.values())
    first, *rest = record._fields
    mixed = cls(values[first], **{name: values[name] for name in rest})
    for other in (by_keyword, by_position, mixed, pickle.loads(pickle.dumps(record))):
        assert other is not record and other == record and not other != record
    assert _values(by_keyword) == values


@pytest.mark.parametrize("record", EXAMPLES, ids=IDS)
def test_a_changed_field_or_another_class_is_unequal(record):
    values = _values(record)
    name = record._fields[-1]
    values[name] = "changed"
    changed = object.__new__(type(record))
    for field, value in values.items():
        object.__setattr__(changed, field, value)
    assert changed != record
    assert record != _twin(record) and record != tuple(_values(record).values())


@pytest.mark.parametrize("cls", FROZEN)
def test_construction_errors(cls):
    record = next(r for r in EXAMPLES if type(r) is cls)
    values = list(_values(record).values())
    first = record._fields[0]
    for args, kwargs in ((values + [None], {}),             # too many
                         (values[:-1], {}),                  # missing
                         (values, {first: values[0]}),       # given twice
                         (values, {"unknown": 1})):          # no such field
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


@pytest.mark.parametrize("cls", FROZEN)
def test_frozen_records_refuse_assignment(cls):
    record = next(r for r in EXAMPLES if type(r) is cls)
    before = _values(record)
    for name in record._fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert _values(record) == before
    # tracer.py wraps each certificate's own verify
    assert cls in (IdempotentMatrix, CheckReport, GradedElem) \
        or "verify" in cls.__dict__


def test_check_report_is_frozen_and_slotted():
    # assignment to the fields is refused by test_frozen_records_refuse_assignment
    report = next(r for r in EXAMPLES if type(r) is CheckReport)
    assert CheckReport.__slots__ == CheckReport._fields == \
        ("name", "checked", "counterexample", "details")
    assert not hasattr(report, "__dict__")
    # passed is read from the counterexample, not stored
    with pytest.raises(AttributeError):
        report.passed = False
    assert report.passed and report.counterexample is None
    failed = CheckReport("poly-assoc", 3, "a=1", {})
    assert not failed.passed and failed.to_json_dict()["verdict"] == "FAIL"


class _Subclassed(BaseScalars):
    pass


def test_scalar_bases_are_open_records():
    z8, f27 = parse_ring_preset("zmod:2^3"), parse_ring_preset("truncpoly:3:3:c=2")
    bases = [BaseScalars(z8), BaseScalars(f27), SeriesScalars(z8, 3),
             SeriesScalars(z8, 4), SeriesScalars(f27, 3), _Subclassed(z8)]
    twins = [type(b)(*b._values()) for b in bases]
    for (i, a), (j, b) in itertools.product(enumerate(bases), enumerate(twins)):
        # equal exactly when the class and the fields are the same
        assert (a == b) == (i == j) and (a != b) == (i != j)
        if i == j:
            assert hash(a) == hash(b)
            assert pickle.loads(pickle.dumps(a)) == a
    assert repr(bases[0]) == "BaseScalars(ctx=<RingContext zmod:2^3>)"
    assert repr(bases[2]) == \
        "SeriesScalars(ctx=<RingContext zmod:2^3>, precision=3)"
    assert [b.description for b in bases[:3]] == \
        ["zmod:2^3", "truncpoly:3:3:c=2", "S/G_3 over zmod:2^3"]
    # a subclass may keep more state on its instances
    bases[-1].extra = 1
    assert bases[-1] == _Subclassed(z8)


@pytest.mark.parametrize("cls", (GradedElem, BaseScalars, SeriesScalars))
def test_value_types_take_the_record_rule(cls):
    for name in ("__eq__", "__hash__", "__repr__", "__reduce__"):
        assert getattr(cls, name) is getattr(Record, name)
    assert not hasattr(cls, "signature")


def test_idempotent_matrix_keeps_its_checks():
    scalars = BaseScalars(parse_ring_preset("zmod:2^3"))
    assert IdempotentMatrix(scalars, [[1, 2], [0, 0]]).entries == ((1, 2), (0, 0))
    assert IdempotentMatrix(entries=[[1]], scalars=scalars).entries == ((1,),)
    with pytest.raises(ValueError, match="not square"):
        IdempotentMatrix(scalars, ((1, 0),))
    with pytest.raises(ValueError, match="not idempotent"):
        IdempotentMatrix(scalars=scalars, entries=((1, 1), (1, 1)))


def _as_dataclasses(node):
    """The same tree built from frozen dataclasses, the node classes the
    parser used before its light __slots__ classes."""
    if isinstance(node, (Add, Sub, Mul)):
        return _DATACLASS_NODES[type(node).__name__](
            _as_dataclasses(node.left), _as_dataclasses(node.right))
    if isinstance(node, Pow):
        return _DATACLASS_NODES["Pow"](_as_dataclasses(node.base), node.exponent)
    if isinstance(node, Neg):
        return _DATACLASS_NODES["Neg"](_as_dataclasses(node.child))
    if isinstance(node, Const):
        return _DATACLASS_NODES["Const"](node.payload)
    return _DATACLASS_NODES["Var"]()


_DATACLASS_NODES = {
    name: dataclasses.make_dataclass(name, fields, frozen=True)
    for name, fields in (("Const", ["payload"]), ("Var", []),
                         ("Add", ["left", "right"]), ("Sub", ["left", "right"]),
                         ("Mul", ["left", "right"]), ("Pow", ["base", "exponent"]),
                         ("Neg", ["child"]))}


def test_nodes_compare_hash_and_show_as_dataclasses(f27):
    literals = [f27.zero(), f27.one(), *f27.radical_gens]
    rng = random.Random(17)
    trees = [_random_tree(rng, literals, 4) for _ in range(40)]
    for node in trees:
        assert isinstance(node, Record)
        twin = _as_dataclasses(node)
        assert repr(node) == repr(twin)
        assert hash(node) == hash(twin)
        copy = _copy(node)
        assert copy is not node and copy == node and hash(copy) == hash(node)
        assert pickle.loads(pickle.dumps(node)) == node
    for a, b in itertools.product(trees[:6], repeat=2):
        assert Add(a, b) != Sub(a, b) and Mul(a, b) != Add(a, b)
        assert (Add(a, b) == Add(b, a)) == (a == b)
    assert Var() == Var() and Var() != Const(f27.zero())
    assert len({Pow(Var(), 2), Pow(Var(), 2), Pow(Var(), 3)}) == 2


def _copy(node):
    """An equal tree made of new node objects."""
    if isinstance(node, (Add, Sub, Mul)):
        return type(node)(_copy(node.left), _copy(node.right))
    if isinstance(node, Pow):
        return Pow(_copy(node.base), node.exponent)
    if isinstance(node, Neg):
        return Neg(_copy(node.child))
    return Const(node.payload) if isinstance(node, Const) else Var()
