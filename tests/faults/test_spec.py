"""Validation and determinism of fault specifications."""

import pickle

import pytest

from repro.errors import FaultError
from repro.faults import (
    FAULT_KINDS,
    KIND_CRASH,
    FaultPlan,
    FaultSpec,
)


def test_named_constructors_build_valid_specs():
    assert FaultSpec.crash("ctrl", mtbf=10.0, mttr=2.0).kind == KIND_CRASH
    assert FaultSpec.outage("ctrl", ((1.0, 2.0), (5.0, 6.0))).windows == (
        (1.0, 2.0), (5.0, 6.0),
    )


@pytest.mark.parametrize("bad", [
    dict(target="", kind="crash", mtbf=1.0, mttr=1.0),
    dict(target="c", kind="meteor"),
    dict(target="c", kind="crash"),                       # no process/windows
    dict(target="c", kind="crash", mtbf=1.0),             # mttr missing
    dict(target="c", kind="crash", mtbf=-1.0, mttr=1.0),
    dict(target="c", kind="crash", mtbf=1.0, mttr=1.0,
         windows=((0.0, 1.0),)),                          # both modes
    dict(target="c", kind="crash", windows=((2.0, 1.0),)),  # empty window
    dict(target="c", kind="crash", windows=((0.0, 2.0), (1.0, 3.0))),
    dict(target="c", kind="loss", mtbf=1.0, mttr=1.0),    # unknown kind
    dict(target="c", kind="crash", mtbf=1.0, mttr=1.0, start=-1.0),
])
def test_invalid_specs_rejected(bad):
    with pytest.raises(FaultError):
        FaultSpec(**bad)


def test_every_kind_is_constructible():
    assert set(FAULT_KINDS) == {"crash", "link_down"}


def test_plan_rejects_duplicate_target_kind():
    with pytest.raises(FaultError):
        FaultPlan((
            FaultSpec.crash("ctrl", mtbf=5.0, mttr=1.0),
            FaultSpec.outage("ctrl", ((1.0, 2.0),)),
        ))


def test_plan_allows_different_kinds_on_one_target():
    plan = FaultPlan((
        FaultSpec.outage("ctrl", ((1.0, 2.0),)),
        FaultSpec.link_flap("ctrl", ((1.0, 2.0),)),
        FaultSpec.crash("other", mtbf=5.0, mttr=1.0),
    ), seed=3)
    assert plan.targets == ("ctrl", "other")


def test_plan_is_picklable():
    plan = FaultPlan(
        (FaultSpec.crash("ctrl", mtbf=10.0, mttr=1.0),), seed=42,
    )
    clone = pickle.loads(pickle.dumps(plan))
    assert clone == plan
