"""Integration tests for the fluid fabric event loop."""

import pytest

from repro.errors import SimulationError
from repro.simnet.fabric import FluidFabric
from repro.simnet.flows import Flow
from repro.simnet.telemetry import UtilizationRecorder
from repro.simnet.topology import single_switch


def _fabric(n=4, recorder=None):
    return FluidFabric(single_switch(n, capacity=100.0), recorder=recorder)


def test_single_flow_completion_time():
    fabric = _fabric()
    flow = Flow(src="server0", dst="server1", size=500.0)
    fabric.start_flow(flow)
    end = fabric.run()
    # 500 bytes at 100 B/s = 5 s.
    assert end == pytest.approx(5.0)
    assert flow.finish_time == pytest.approx(5.0)
    assert flow.done


def test_two_flows_share_nic_then_speed_up():
    fabric = _fabric()
    f1 = Flow(src="server0", dst="server1", size=100.0)
    f2 = Flow(src="server0", dst="server2", size=200.0)
    fabric.start_flow(f1)
    fabric.start_flow(f2)
    fabric.run()
    # Shared NIC at 50 B/s each: f1 done at t=2; f2 then gets 100 B/s
    # for its remaining 100 bytes: done at t=3.
    assert f1.finish_time == pytest.approx(2.0)
    assert f2.finish_time == pytest.approx(3.0)


def test_flow_completion_callback_fires():
    fabric = _fabric()
    done = []
    flow = Flow(src="server0", dst="server1", size=100.0)
    fabric.start_flow(flow, on_complete=lambda f: done.append(f.flow_id))
    fabric.run()
    assert done == [flow.flow_id]


def test_timer_events_interleave_with_flows():
    fabric = _fabric()
    flow = Flow(src="server0", dst="server1", size=300.0)
    fabric.start_flow(flow)
    log = []
    fabric.sim.schedule_at(1.0, lambda: log.append(("timer", fabric.sim.now)))
    fabric.run()
    assert log == [("timer", 1.0)]
    assert flow.finish_time == pytest.approx(3.0)


def test_timer_can_start_new_flow():
    fabric = _fabric()
    f1 = Flow(src="server0", dst="server1", size=200.0)
    fabric.start_flow(f1)
    late = Flow(src="server0", dst="server2", size=100.0)
    fabric.sim.schedule_at(1.0, lambda: fabric.start_flow(late))
    fabric.run()
    # f1 alone until t=1 (100 bytes done), then shares 50/50.
    assert f1.finish_time == pytest.approx(3.0)
    assert late.finish_time == pytest.approx(3.0)


def test_run_until_pauses_and_resumes():
    fabric = _fabric()
    flow = Flow(src="server0", dst="server1", size=1000.0)
    fabric.start_flow(flow)
    fabric.run(until=4.0)
    assert fabric.sim.now == pytest.approx(4.0)
    assert flow.remaining == pytest.approx(600.0)
    fabric.run()
    assert flow.finish_time == pytest.approx(10.0)


def test_stalled_flows_raise():
    fabric = _fabric()
    flow = Flow(src="server0", dst="server1", size=100.0, rate_cap=1e-30)
    # A rate cap of ~0 with no aux path and no timers cannot progress.
    fabric.start_flow(flow)
    flow.rate_cap = 0.0  # force a true stall after routing
    with pytest.raises(SimulationError):
        fabric.run()


def test_aux_rate_progresses_without_network_share():
    fabric = _fabric()
    flow = Flow(src="server0", dst="server1", size=100.0, aux_rate=50.0)
    fabric.start_flow(flow)
    fabric.run()
    # network 100 B/s + aux 50 B/s = 150 B/s.
    assert flow.finish_time == pytest.approx(100.0 / 150.0)


def test_throttled_nic_slows_flow():
    fabric = _fabric()
    fabric.topology.set_uniform_throttle(["server0"], 0.25)
    flow = Flow(src="server0", dst="server1", size=100.0)
    fabric.start_flow(flow)
    fabric.run()
    assert flow.finish_time == pytest.approx(4.0)


def test_duplicate_start_rejected():
    fabric = _fabric()
    flow = Flow(src="server0", dst="server1", size=100.0)
    fabric.start_flow(flow)
    with pytest.raises(SimulationError):
        fabric.start_flow(flow)


def test_completed_flows_recorded():
    fabric = _fabric()
    flows = [
        Flow(src="server0", dst="server1", size=100.0),
        Flow(src="server2", dst="server3", size=100.0),
    ]
    for f in flows:
        fabric.start_flow(f)
    fabric.run()
    assert len(fabric.completed) == 2
    assert not fabric.active_flows


def test_network_telemetry_sampled():
    recorder = UtilizationRecorder()
    fabric = _fabric(recorder=recorder)
    flow = Flow(src="server0", dst="server1", size=100.0)
    fabric.start_flow(flow)
    fabric.run()
    times, values = recorder.series("server0", "network", t_end=1.0,
                                    resolution=0.5)
    assert max(values) == pytest.approx(1.0)  # NIC fully used
    times, values = recorder.series("server3", "network", t_end=1.0,
                                    resolution=0.5)
    assert max(values) == 0.0


def test_exact_completion_no_livelock_on_float_residue():
    # Sizes chosen so remaining/rate hits float rounding.
    fabric = _fabric()
    flow = Flow(src="server0", dst="server1", size=1e9 / 3.0)
    fabric.start_flow(flow)
    fabric.run()
    assert flow.done
