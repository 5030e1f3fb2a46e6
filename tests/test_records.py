"""The value classes: frozen records with a dataclass's constructor, repr, == and hash."""

import copy
import inspect
import pickle

import pytest

from rqpd.analysis import (
    NashReport,
    ProfileTable,
    Region,
    RegionLabel,
    SdsMargins,
    SdsReport,
    SweepRow,
)
from rqpd.closed_form import PayoffParams, RegionMapRow, ThresholdSet
from rqpd.game_core import JointProbabilities, KVector, PayoffPair, StrategyParams
from rqpd.relativity import Backend, GameInstance

# Each class's fields in order, with the values of one instance.
EXAMPLES = {
    ThresholdSet: dict(g_a12=0.1, g_a34=None, g_b13=0.3, g_b24=1.5),
    PayoffParams: dict(t=7.0, r=2.5, p=0.5, s=-1.0, allow_non_dilemma=False),
    RegionMapRow: dict(omega_a=0.1, omega_b=0.2, bob_always_d=True, alice_always_q=False),
    StrategyParams: dict(theta=0.4, phi=0.2),
    KVector: dict(k_cc=0.6, k_cd=0.8j, k_dc=0j, k_dd=0j),
    JointProbabilities: dict(p_cc=0.25, p_cd=0.25, p_dc=0.5, p_dd=0.0, norm_defect=0.0),
    GameInstance: dict(gamma=0.1, omega_a=0.2, omega_b=0.3, pay=PayoffParams(7.0, 2.5, 0.5, -1.0),
                       backend=Backend.PAPER),
    ProfileTable: dict(dd=PayoffPair(1.0, 1.0), qd=PayoffPair(0.0, 5.0), dq=PayoffPair(5.0, 0.0),
                       qq=PayoffPair(3.0, 3.0)),
    SdsReport: dict(alice="D", bob=None, margins=SdsMargins(1.0, 2.0, -1.0, 0.0)),
    NashReport: dict(equilibria=("DD", "QQ"), tie_tolerance=1e-9),
    RegionLabel: dict(alice=Region.CLASSICAL, bob=Region.QUANTUM),
    SweepRow: dict(gamma=0.5, a_dd=1.0, a_qd=0.0, a_dq=5.0, a_qq=3.0, b_dd=1.0, b_qd=5.0,
                   b_dq=0.0, b_qq=3.0),
}

# One field of each value class's example, with another valid value.
CHANGED = {
    ThresholdSet: ("g_a34", 0.2),
    PayoffParams: ("allow_non_dilemma", True),
    RegionMapRow: ("alice_always_q", True),
    StrategyParams: ("phi", 0.3),
    KVector: ("k_cd", -0.8j),
    JointProbabilities: ("norm_defect", 1e-7),
    GameInstance: ("backend", Backend.UNITARY),
    ProfileTable: ("qq", PayoffPair(3.0, 2.0)),
    SdsReport: ("bob", "Q"),
    NashReport: ("tie_tolerance", 0.0),
    RegionLabel: ("bob", Region.TRANSITION),
    SweepRow: ("b_qq", 2.0),
}
CLASSES = list(EXAMPLES)
IDS = [cls.__name__ for cls in CLASSES]


def example(cls):
    return cls(**EXAMPLES[cls])


def fields(record) -> tuple:
    return tuple(getattr(record, name) for name in EXAMPLES[type(record)])


def test_every_value_class_is_covered():
    assert len(CLASSES) == 12


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_fields_are_the_annotations_in_order(cls):
    record = example(cls)
    assert cls.__match_args__ == tuple(EXAMPLES[cls])
    assert fields(record) == tuple(EXAMPLES[cls].values())
    assert list(inspect.signature(cls).parameters) == list(EXAMPLES[cls])
    match record:
        case cls(first):
            assert first is getattr(record, cls.__match_args__[0])


REPRS = [
    (PayoffParams(), "PayoffParams(t=5.0, r=3.0, p=1.0, s=0.0, allow_non_dilemma=False)"),
    (
        GameInstance(0.1, 0.2, 0.3),
        "GameInstance(gamma=0.1, omega_a=0.2, omega_b=0.3, pay=PayoffParams(t=5.0, r=3.0, "
        "p=1.0, s=0.0, allow_non_dilemma=False), backend=<Backend.UNITARY: 'unitary'>)",
    ),
    (ThresholdSet(0.25, None, 1.5, None),
     "ThresholdSet(g_a12=0.25, g_a34=None, g_b13=1.5, g_b24=None)"),
    (StrategyParams(0.0, 0.5), "StrategyParams(theta=0.0, phi=0.5)"),
    (RegionLabel(Region.TRANSITION, Region.QUANTUM),
     "RegionLabel(alice=<Region.TRANSITION: 'transition'>, bob=<Region.QUANTUM: 'quantum'>)"),
    (NashReport(("QD", "DQ"), 0.0), "NashReport(equilibria=('QD', 'DQ'), tie_tolerance=0.0)"),
]


@pytest.mark.parametrize("record,text", REPRS, ids=[type(r).__name__ for r, _ in REPRS])
def test_repr_is_pinned(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_repr_names_each_field(cls):
    args = ", ".join(f"{name}={value!r}" for name, value in EXAMPLES[cls].items())
    assert repr(example(cls)) == f"{cls.__qualname__}({args})"


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_equality_and_hash_follow_the_fields(cls):
    a, b = example(cls), cls(*EXAMPLES[cls].values())
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b) == hash(tuple(EXAMPLES[cls].values()))
    assert len({a, b}) == 1
    assert a != tuple(EXAMPLES[cls].values())
    assert a.__eq__(tuple(EXAMPLES[cls].values())) is NotImplemented
    other = next(c for c in CLASSES if c is not cls)
    assert a != example(other)


def test_equal_fields_of_another_class_are_unequal():
    records = [StrategyParams(1.0, 0.5), RegionLabel(1.0, 0.5), NashReport(1.0, 0.5)]
    assert all(a != b and not a == b for a in records for b in records if a is not b)


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_a_different_field_value_is_unequal(cls):
    name, value = CHANGED[cls]
    assert cls(**{**EXAMPLES[cls], name: value}) != example(cls)


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
@pytest.mark.parametrize("name", ["first field", "new attribute"])
def test_fields_cannot_be_set_or_deleted(cls, name):
    record = example(cls)
    attribute = cls.__match_args__[0] if name == "first field" else "extra"
    with pytest.raises(AttributeError, match=f"cannot assign to or delete field '{attribute}'"):
        setattr(record, attribute, 1.0)
    with pytest.raises(AttributeError, match=f"cannot assign to or delete field '{attribute}'"):
        delattr(record, attribute)
    assert record == example(cls)


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_a_missing_or_unknown_argument_is_a_type_error(cls):
    kwargs = EXAMPLES[cls]
    parameters = inspect.signature(cls).parameters.values()
    required = [p.name for p in parameters if p.default is inspect.Parameter.empty]
    if required:
        message = f"__init__\\(\\) missing 1 required positional argument: '{required[-1]}'$"
        with pytest.raises(TypeError, match=message):
            cls(*list(kwargs.values())[: len(required) - 1])
    with pytest.raises(TypeError, match="unexpected keyword argument 'extra'"):
        cls(**kwargs, extra=1)
    with pytest.raises(TypeError):
        cls(*kwargs.values(), 1)


def test_defaults():
    assert PayoffParams() == PayoffParams(5.0, 3.0, 1.0, 0.0, False)
    assert PayoffParams(6.0) == PayoffParams(t=6.0, r=3.0, p=1.0, s=0.0)
    g = GameInstance(0.1, 0.2, 0.3)
    assert g.pay == PayoffParams() and g.backend is Backend.UNITARY
    # one shared, immutable default table
    assert GameInstance(0.4, 0.5, 0.6).pay is g.pay
    assert GameInstance(0.1, 0.2, 0.3, backend=Backend.PAPER).pay is g.pay
    with pytest.raises(TypeError):
        GameInstance(0.1, 0.2)


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
@pytest.mark.parametrize(
    "how",
    [copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copies_are_equal(cls, how):
    record = example(cls)
    duplicate = how(record)
    assert type(duplicate) is cls
    assert duplicate == record
    assert repr(duplicate) == repr(record)


def test_joint_probabilities_clamp_dust_on_construction():
    pr = JointProbabilities(-1e-13, 0.5, 0.5 - 1e-13, 1.0 + 1e-13, 1e-13)
    assert pr.as_tuple() == (0.0, 0.5, 0.5 - 1e-13, 1.0)
    assert pr.norm_defect == 1e-13
    assert pickle.loads(pickle.dumps(pr)) == pr
    with pytest.raises(ValueError, match="beyond dust tolerance"):
        JointProbabilities(-1e-9, 0.5, 0.5, 0.0, 0.0)


def test_post_init_checks_run_on_keywords_too():
    with pytest.raises(ValueError, match="^theta must be in"):
        StrategyParams(phi=0.0, theta=4.0)
    with pytest.raises(ValueError, match="^payoffs must satisfy"):
        PayoffParams(t=1.0)
    with pytest.raises(ValueError, match="^KVector norm"):
        KVector(k_cc=1.0, k_cd=1.0, k_dc=0j, k_dd=0j)


def test_no_record_offers_a_copy_that_skips_its_checks():
    # such a copy would build what the constructor refuses: a game at gamma = 7 whose
    # profile_table returns payoffs, a non-dilemma table flagged by a string
    with pytest.raises(AttributeError):
        GameInstance(0.1, 0.2, 0.3)._replace(gamma=7.0)
    with pytest.raises(AttributeError):
        PayoffParams()._replace(t=-1.0, allow_non_dilemma="no")
    for cls in CLASSES:
        assert not hasattr(cls, "_replace")
