"""Value behaviour of muxnet's eleven records.

Each record is pinned by its constructor (positional order, keyword names,
defaults), value equality, hash (or unhashability), repr text, and whether
its fields can be assigned.  The expected values are those the records had
as `@dataclass`es, so a rewrite of any record must keep all of them.
"""

import copy
import pickle

import pytest

from muxnet import (
    GF,
    BoundParams,
    EavesdropperModel,
    FieldMatrix,
    HashFamilySpec,
    JointDistribution,
    LeakageResult,
    MessageTuple,
    MultiplexLayout,
    SubsetIndex,
    decode,
    encode,
    verify_hashed_mi_bound,
)
from muxnet.experiments import ExperimentPlan
from muxnet.network import Link
from muxnet.verification import CheckResult


def layout(k=(1, 1), q=2):
    return MultiplexLayout(GF(q), 1, 2, 1, k)


def plan(seed=1):
    return ExperimentPlan("x", layout(), None, None, EavesdropperModel("traditional", 1),
                          BoundParams(9.0, 9.0), seed, 2, 3)


# (factory of one instance, factory of an equal one built another way,
#  two unequal instances, its fields in order, its repr)
RECORDS = {
    "MultiplexLayout": (
        lambda: layout(),
        lambda: MultiplexLayout(GF(2), T=1, m=1, n=2, k=[1, 1]),
        lambda: [layout(k=(2, 0)), layout(q=3)],
        ("field", "m", "n", "T", "k"),
        "MultiplexLayout(field=GF(2), m=1, n=2, T=1, k=(1, 1))",
    ),
    "SubsetIndex": (
        lambda: SubsetIndex([1, 2]),
        lambda: SubsetIndex(members=(2, 1)),
        lambda: [SubsetIndex([1]), SubsetIndex([2, 3])],
        ("members",),
        "SubsetIndex(members=frozenset({1, 2}))",
    ),
    "MessageTuple": (
        lambda: MessageTuple(((0, 1), (1,))),
        lambda: MessageTuple(blocks=((0, 1), (1,))),
        lambda: [MessageTuple(((1, 1), (1,))), MessageTuple(((0, 1),))],
        ("blocks",),
        "MessageTuple(blocks=((0, 1), (1,)))",
    ),
    "Link": (
        lambda: Link("e1", "s", "a"),
        lambda: Link(head="a", tail="s", id="e1"),
        lambda: [Link("e2", "s", "a"), Link("e1", "a", "s")],
        ("id", "tail", "head"),
        "Link(id='e1', tail='s', head='a')",
    ),
    "EavesdropperModel": (
        lambda: EavesdropperModel("traditional", 2, ("e1", "e2")),
        lambda: EavesdropperModel(kind="traditional", mu=2, links=["e1", "e2"], distribution=None),
        lambda: [EavesdropperModel("traditional", 2), EavesdropperModel("statistical", 2)],
        ("kind", "mu", "links", "distribution"),
        "EavesdropperModel(kind='traditional', mu=2, links=('e1', 'e2'), distribution=None)",
    ),
    "LeakageResult": (
        lambda: LeakageResult(2, 1, 1, 0.5),
        lambda: LeakageResult(nats=0.5, kernel_dim=1, rank_b=1, k_sub=2),
        lambda: [LeakageResult(2, 1, 1, 0.25), LeakageResult(2, 0, 1, 0.5)],
        ("k_sub", "rank_b", "kernel_dim", "nats"),
        "LeakageResult(k_sub=2, rank_b=1, kernel_dim=1, nats=0.5)",
    ),
    "JointDistribution": (
        lambda: JointDistribution(((0.5, 0.0), (0.25, 0.25))),
        lambda: JointDistribution(probs=[[0.5, 0], [0.25, 0.25]]),
        lambda: [JointDistribution(((0.25, 0.25), (0.5, 0.0))), JointDistribution(((1.0,),))],
        ("probs",),
        "JointDistribution(probs=((0.5, 0.0), (0.25, 0.25)))",
    ),
    "HashFamilySpec": (
        lambda: HashFamilySpec(((0, 1), (1, 0)), 2),
        lambda: HashFamilySpec(output_size=2, maps=((0, 1), (1, 0))),
        lambda: [HashFamilySpec(((0, 1), (1, 0)), 3), HashFamilySpec(((0, 1),), 2)],
        ("maps", "output_size"),
        "HashFamilySpec(maps=((0, 1), (1, 0)), output_size=2)",
    ),
    "BoundParams": (
        lambda: BoundParams(9.0, 9.0),
        lambda: BoundParams(C2=9.0, C1=9.0, rho=1.0),
        lambda: [BoundParams(9.0, 9.0, 0.5), BoundParams(9.0, 7.0)],
        ("C1", "C2", "rho"),
        "BoundParams(C1=9.0, C2=9.0, rho=1.0)",
    ),
    "CheckResult": (
        lambda: CheckResult("c", "i", 1, 2.5, True),
        lambda: CheckResult(holds=True, rhs=2.5, lhs=1, instance="i", check="c"),
        lambda: [CheckResult("c", "i", 1, 2.5, False), CheckResult("d", "i", 1, 2.5, True)],
        ("check", "instance", "lhs", "rhs", "holds"),
        "CheckResult(check='c', instance='i', lhs=1, rhs=2.5, holds=True)",
    ),
    "ExperimentPlan": (
        lambda: plan(),
        lambda: ExperimentPlan(trials_b=3, trials_l=2, seed=1, params=BoundParams(9.0, 9.0),
                               model=EavesdropperModel("traditional", 1), coding=None,
                               network=None, layout=layout(), experiment_id="x"),
        lambda: [plan(seed=2), ExperimentPlan("y", *list(vars_of(plan()))[1:])],
        ("experiment_id", "layout", "network", "coding", "model", "params", "seed",
         "trials_l", "trials_b"),
        "ExperimentPlan(experiment_id='x', layout=MultiplexLayout(field=GF(2), m=1, n=2, T=1, "
        "k=(1, 1)), network=None, coding=None, model=EavesdropperModel(kind='traditional', "
        "mu=1, links=None, distribution=None), params=BoundParams(C1=9.0, C2=9.0, rho=1.0), "
        "seed=1, trials_l=2, trials_b=3)",
    ),
}
MUTABLE = {"CheckResult", "ExperimentPlan"}


def vars_of(record):
    return (getattr(record, name) for name in RECORDS[type(record).__name__][3])


@pytest.mark.parametrize("name", RECORDS)
def test_equality_and_repr(name):
    make, make_equal, make_unequal, fields, text = RECORDS[name]
    a, b = make(), make_equal()
    assert type(a).__name__ == name
    assert a == b and not a != b
    assert repr(a) == repr(b) == text
    for other in make_unequal():
        assert a != other and not a == other and repr(a) != repr(other)
    # equality is between records of the same class only
    assert a.__eq__(tuple(vars_of(a))) is NotImplemented
    assert a != tuple(vars_of(a))


@pytest.mark.parametrize("name", RECORDS)
def test_hash_is_the_hash_of_the_fields(name):
    make, make_equal, make_unequal, fields, _ = RECORDS[name]
    a = make()
    if name in MUTABLE:
        assert type(a).__hash__ is None
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
        return
    assert hash(a) == hash(make_equal()) == hash(tuple(vars_of(a)))
    assert len({a, make_equal(), *make_unequal()}) == 3


@pytest.mark.parametrize("name", RECORDS)
def test_fields_frozen_or_assignable(name):
    make, _, _, fields, _ = RECORDS[name]
    a = make()
    for field in fields:
        value = getattr(a, field)
        if name in MUTABLE:
            setattr(a, field, value)
            assert getattr(a, field) is value
            continue
        with pytest.raises(AttributeError):
            setattr(a, field, value)
        with pytest.raises(AttributeError):
            delattr(a, field)
        assert getattr(a, field) is value


@pytest.mark.parametrize("name", RECORDS)
def test_copy_and_pickle_keep_the_value(name):
    make = RECORDS[name][0]
    a = make()
    assert copy.copy(a) == a
    assert copy.deepcopy(a) == a
    assert pickle.loads(pickle.dumps(a)) == a


def test_keyword_defaults():
    assert EavesdropperModel("direct", 1) == EavesdropperModel(
        kind="direct", mu=1, links=None, distribution=None)
    assert BoundParams(C1=9, C2=9) == BoundParams(9, 9, 1.0)
    assert BoundParams(9, 9).rho == 1.0


def test_constructors_keep_their_validation_messages():
    with pytest.raises(ValueError, match=r"^m = 0 is not a positive integer$"):
        MultiplexLayout(GF(2), 0, 2, 1, (1, 1))
    with pytest.raises(ValueError, match=r"^k has 3 block sizes, expected T \+ 1 = 2$"):
        MultiplexLayout(GF(2), 1, 2, 1, (1, 1, 0))
    with pytest.raises(ValueError, match=r"^k\[1\] = 1.0 is not a nonnegative integer$"):
        MultiplexLayout(GF(2), 1, 2, 1, (1, 1.0))
    with pytest.raises(ValueError, match=r"^k = \(1, 0\) sums to 1, expected m\*n = 2$"):
        MultiplexLayout(GF(2), 1, 2, 1, (1, 0))
    with pytest.raises(ValueError, match=r"^subset must be nonempty$"):
        SubsetIndex([])
    with pytest.raises(ValueError, match=r"^member 1 = 0 is not a 1-based message index$"):
        SubsetIndex([1, 0])
    with pytest.raises(ValueError, match=r"^maps is empty$"):
        HashFamilySpec((), 2)
    with pytest.raises(ValueError, match=r"^probs sums to 0.5, expected 1$"):
        JointDistribution(((0.5,),))
    with pytest.raises(ValueError, match=r"^mu = 0 is not a positive integer$"):
        EavesdropperModel("traditional", 0)


def test_subset_label():
    assert SubsetIndex([3, 1, 2]).label == "1+2+3"
    assert SubsetIndex([2]).label == "2"


def test_check_result_json_keeps_field_order():
    result = CheckResult("c", "i", 1, 2.5, True)
    assert list(result.to_json().items()) == [
        ("check", "c"), ("instance", "i"), ("lhs", 1), ("rhs", 2.5), ("holds", True)]


def test_joint_distribution_caches_stay_out_of_equality_and_repr():
    used, fresh = RECORDS["JointDistribution"][0](), RECORDS["JointDistribution"][0]()
    used.marginal_z()
    used.conditional_power_mean(0.5)
    family = HashFamilySpec(((0, 1), (1, 0)), 2)
    assert verify_hashed_mi_bound(used, family, 0.5) == verify_hashed_mi_bound(used, family, 0.5)
    assert used == fresh and hash(used) == hash(fresh)
    assert repr(used) == repr(fresh) == RECORDS["JointDistribution"][4]


def test_list_built_records_store_tuples():
    # container fields are stored as tuples, so a record built from lists
    # is the record built from tuples: equal, hashable, with the same repr
    for name, built in (("HashFamilySpec", HashFamilySpec([[0, 1], [1, 0]], 2)),
                        ("MessageTuple", MessageTuple([[0, 1], [1]]))):
        expected = RECORDS[name][0]()
        assert built == expected and hash(built) == hash(expected)
        assert repr(built) == repr(expected) == RECORDS[name][4]
    message = MessageTuple([[1], [0]])
    L = FieldMatrix(GF(2), [[1, 1], [0, 1]])
    assert decode(layout(), L, encode(layout(), L, message)) == message
