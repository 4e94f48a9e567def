"""One attempt per call: the bus delivers it or refuses it."""

import pytest

from repro.core.rpc import RpcBus, RpcError, RpcUnavailable
from repro.faults import FaultPlan, FaultSpec


class _Clock:
    def __init__(self) -> None:
        self.now = 0.0


def _bus(*specs, seed=0):
    injector = FaultPlan(tuple(specs), seed=seed).build()
    injector.bind(_Clock())
    return RpcBus(faults=injector), injector


def test_unavailable_carries_recover_at():
    bus, _ = _bus(FaultSpec.outage("ctrl", ((0.0, 7.5),)))
    bus.register("ctrl", {"m": lambda: None})
    with pytest.raises(RpcUnavailable) as info:
        bus.call("ctrl", "m")
    assert info.value.recover_at == 7.5
    assert info.value.target == "ctrl"
    assert bus.stats.unavailable == 1
    # The handler never ran.
    assert bus.call_counts[("ctrl", "m")] == 0


def test_missing_method_raises_plain_rpc_error():
    bus = RpcBus()
    bus.register("ctrl", {})
    with pytest.raises(RpcError) as info:
        bus.call("ctrl", "nope")
    assert not isinstance(info.value, RpcUnavailable)
    assert bus.stats.unavailable == bus.stats.delivered == 0
    assert not bus.call_counts


def test_register_replace_and_unregister_bool():
    bus = RpcBus()
    bus.register("ctrl", {"m": lambda: 1})
    with pytest.raises(RpcError):
        bus.register("ctrl", {"m": lambda: 2})
    bus.register("ctrl", {"m": lambda: 2}, replace=True)
    assert bus.call("ctrl", "m") == 2
    assert bus.unregister("ctrl") is True
    assert bus.unregister("ctrl") is False  # symmetric, not an error
