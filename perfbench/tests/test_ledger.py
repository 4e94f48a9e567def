import types

import pytest

from ledger import LAYER_NAMES, LAYERS, Tracer, self_times


def test_self_times_subtract_direct_children_only():
    # root [0, 10] > a [1, 6] > b [2, 4]; root > c [7, 9]
    start = [0.0, 1.0, 2.0, 7.0]
    end = [10.0, 6.0, 4.0, 9.0]
    parent = [-1, 0, 1, 0]
    assert self_times(start, end, parent) == [3.0, 3.0, 2.0, 2.0]
    assert sum(self_times(start, end, parent)) == 10.0


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_tracer_ledger_sums_to_root_and_shares_request_ids():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def inner():
        clock.now += 2.0

    def outer():
        clock.now += 1.0
        traced_inner()
        clock.now += 0.5

    traced_inner = tracer.traced(inner, "core.rpc")
    traced_outer = tracer.traced(outer, "service", new_request=True)
    traced_outer()
    traced_outer()
    ledger = tracer.ledger()
    assert ledger == {"core.rpc": 4.0, "service": 3.0}
    # Two root spans of 3.5 s each: the self times sum to them.
    assert sum(ledger.values()) == 7.0
    assert tracer.calls("service") == 2
    assert tracer.durations("core.rpc") == [2.0, 2.0]
    # Each service call starts a request; its child inherits the id.
    assert list(tracer.request) == [1, 1, 2, 2]
    assert list(tracer.parent) == [-1, 0, -1, 2]


def test_span_closes_when_the_call_raises():
    tracer = Tracer(clock=FakeClock())

    def boom():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.traced(boom, "core.rpc")()
    assert tracer.calls("core.rpc") == 1
    assert not tracer._stack


def test_installed_wraps_and_restores_entry_points():
    from repro.simnet.routing import Router

    original = Router.__dict__["path_for_flow"]
    tracer = Tracer()
    with tracer.installed():
        assert Router.__dict__["path_for_flow"] is not original
    assert Router.__dict__["path_for_flow"] is original


def test_solver_kind_is_counted():
    tracer = Tracer(clock=FakeClock())

    def optimize_weights(models, stats=None):
        stats["solver"] = "slsqp"
        return [1.0]

    module = types.SimpleNamespace(optimize_weights=optimize_weights)
    counted = tracer._count_solver(module.optimize_weights)
    assert counted([object()]) == [1.0]
    assert tracer.solver_kinds["slsqp"] == 1


def test_every_layer_is_listed_once_in_call_order():
    assert LAYER_NAMES[0] == "service"
    assert LAYER_NAMES[-1] == "simnet.engine"
    assert len(LAYER_NAMES) == len(set(LAYER_NAMES))
    assert {row[0] for row in LAYERS} == set(LAYER_NAMES)
