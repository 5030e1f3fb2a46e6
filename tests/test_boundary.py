"""One rule for bad scalar arguments, at every public callable of ``rqpd.__all__``.

Every angle, speed, rapidity, payoff, probability and tolerance argument
goes through ``closed_form._finite``: a value that is not a real number
raises a ``TypeError`` that names the argument.  Grid sizes keep their
own rule, a ``ValueError`` that names them, and flags theirs, a
``TypeError`` for anything but a ``bool``.  The slots are read off the
annotations, so a new public scalar argument joins the table by itself.
"""

import inspect

import numpy as np
import pytest

import rqpd
from rqpd import Backend, GameInstance, JointProbabilities, NamedStrategy, PayoffParams

GAME = GameInstance(0.3, 0.2, 0.9)
Q = NamedStrategy.Q

# Valid arguments of each public callable that takes a scalar.
VALID = {
    "GameInstance": dict(gamma=0.3, omega_a=0.2, omega_b=0.9),
    "JointProbabilities": dict(p_cc=1.0, p_cd=0.0, p_dc=0.0, p_dd=0.0, norm_defect=0.0),
    "PayoffParams": dict(t=5.0, r=3.0, p=1.0, s=0.0),
    "StrategyParams": dict(theta=0.3, phi=0.2),
    "always_classical_scan": dict(grid_n=2, backend=Backend.PAPER),
    "best_response_scan": dict(g=GAME, opponent=Q, grid=(3, 2)),
    "entangler": dict(gamma=0.3),
    "entanglement_degree": dict(gamma=0.3),
    "k_coefficients": dict(a=Q, b=Q, gamma=0.3),
    "nash_set": dict(table=rqpd.profile_table(GAME)),
    "paper_coefficient_matrix": dict(gamma=0.3, omega_a=0.2, omega_b=0.9),
    "payoff_from_probabilities": dict(pr=JointProbabilities(1.0, 0.0, 0.0, 0.0, 0.0),
                                      pay=PayoffParams()),
    "payoffs": dict(g=GAME, a=Q, b=Q),
    "rapidity_from_speed": dict(v=0.5),
    "region_classify": dict(g=GAME),
    "sds_of": dict(table=rqpd.profile_table(GAME)),
    "speed_from_rapidity": dict(rapidity=0.5),
    "spin_rotation_pair": dict(omega_a=0.2, omega_b=0.9),
    "sweep_gamma": dict(omega_a=0.2, omega_b=0.9, n=3, backend=Backend.PAPER),
    "thresholds_closed_form": dict(omega_a=0.2, omega_b=0.9),
    "thresholds_numeric": dict(omega_a=0.2, omega_b=0.9, backend=Backend.PAPER),
    "wigner_angle": dict(alpha=0.5, delta=0.7),
}

# The name a message gives an argument, where it is not the parameter's.
LABELS = {("rapidity_from_speed", "v"): "speed"}


def scalar_slots(kinds=("float", "int")):
    """(callable, parameter, annotation) for each argument in ``rqpd.__all__`` annotated as a kind.

    Records without ``__post_init__`` check nothing (results and
    ``CoefficientMap``), so only the validating ones count.
    """
    for name in rqpd.__all__:
        obj = getattr(rqpd, name)
        if inspect.isclass(obj):
            if not hasattr(obj, "__post_init__"):
                continue
            annotations = obj.__annotations__
        elif inspect.isfunction(obj):
            annotations = {p.name: p.annotation for p in inspect.signature(obj).parameters.values()}
        else:
            continue
        for param, annotation in annotations.items():
            if annotation in kinds:
                yield name, param, annotation


SLOTS = list(scalar_slots())
# a 0-d array reads as a real number but is unhashable, so no record could hold it
BAD = [None, "0.5", 0.5j, (0.5,), [0.5], np.array([0.5, 0.5]), np.array(0.5)]


def test_every_scalar_slot_has_valid_arguments():
    assert {name for name, _, _ in SLOTS} == set(VALID)
    # 27 angle, speed, rapidity and payoff slots, 5 probabilities, 7 tolerances, 2 sizes
    assert len(SLOTS) == 41
    for name, kwargs in VALID.items():
        getattr(rqpd, name)(**kwargs)


@pytest.mark.parametrize("bad", BAD, ids=["None", "str", "complex", "tuple", "list", "array", "0-d array"])
@pytest.mark.parametrize("name,param,annotation", SLOTS, ids=[f"{n}-{p}" for n, p, _ in SLOTS])
def test_bad_scalar_is_refused_by_name(name, param, annotation, bad):
    label = LABELS.get((name, param), param)
    if annotation == "float":
        error, message = TypeError, f"{label} must be a real number, got {bad!r}"
    else:
        error, message = ValueError, f"{label} must be an integer, got {bad!r}"
    with pytest.raises(error) as info:
        getattr(rqpd, name)(**{**VALID[name], param: bad})
    assert str(info.value) == message


BOOL_SLOTS = list(scalar_slots(("bool",)))
# truthy and falsy stand-ins, unhashable ones and numpy's bools alike
BAD_FLAGS = ["no", "", [], None, 1, 0.0, np.bool_(True), np.array(True)]


def test_bool_slots_are_the_dilemma_flag():
    assert BOOL_SLOTS == [("PayoffParams", "allow_non_dilemma", "bool")]
    for flag in (True, False):
        PayoffParams(5.0, 3.0, 1.0, 0.0, allow_non_dilemma=flag)
    # "no" is truthy, so it once built a table that breaks the dilemma ordering
    with pytest.raises(TypeError, match="^allow_non_dilemma must be a bool, got 'no'$"):
        PayoffParams(1.0, 3.0, 5.0, 0.0, allow_non_dilemma="no")


@pytest.mark.parametrize("bad", BAD_FLAGS, ids=["str", "empty str", "list", "None", "int",
                                                "float", "numpy bool", "0-d array"])
@pytest.mark.parametrize("name,param,annotation", BOOL_SLOTS,
                         ids=[f"{n}-{p}" for n, p, _ in BOOL_SLOTS])
def test_non_bool_flag_is_refused_by_name(name, param, annotation, bad):
    with pytest.raises(TypeError) as info:
        getattr(rqpd, name)(**{**VALID[name], param: bad})
    assert str(info.value) == f"{param} must be a bool, got {bad!r}"
