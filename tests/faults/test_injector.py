"""Determinism and semantics of the fault injector."""

from repro.cluster.jobs import Job
from repro.cluster.runtime import CoRunExecutor
from repro.core.controller import SabaController
from repro.core.library import CONTROLLER_ENDPOINT, SabaLibrary
from repro.core.rpc import RpcBus
from repro.faults import CLEAN_FATE, FaultPlan, FaultSpec
from repro.obs import Observer
from repro.simnet.engine import Simulator
from repro.simnet.topology import single_switch
from repro.workloads.catalog import CATALOG


class _Clock:
    """Minimal stand-in for a Simulator: just a settable ``now``."""

    def __init__(self) -> None:
        self.now = 0.0


def _injector(*specs, seed=0):
    return FaultPlan(tuple(specs), seed=seed).build()


def test_unknown_target_is_clean_and_free():
    inj = _injector(FaultSpec.crash("ctrl", mtbf=1.0, mttr=1.0))
    assert inj.fate_of("other") is CLEAN_FATE
    assert inj.down_window("other") is None


def test_explicit_windows_are_half_open():
    inj = _injector(FaultSpec.outage("ctrl", ((1.0, 2.0),)))
    clock = _Clock()
    inj.bind(clock)
    clock.now = 0.5
    assert inj.fate_of("ctrl").down_until is None
    clock.now = 1.0
    assert inj.fate_of("ctrl").down_until == 2.0
    # At exactly the window end the endpoint is back: a recovery
    # drain scheduled at ``recover_at`` always finds it live.
    clock.now = 2.0
    assert inj.fate_of("ctrl").down_until is None


def test_stochastic_windows_deterministic_in_seed():
    def windows(seed, n=5, horizon=1000.0):
        inj = _injector(
            FaultSpec.crash("ctrl", mtbf=20.0, mttr=5.0), seed=seed,
        )
        out, t = [], 0.0
        while len(out) < n and t < horizon:
            w = inj.down_window("ctrl", t)
            if w is not None and (not out or w != out[-1]):
                out.append(w)
                t = w[1]
            t += 0.25
        return out

    first = windows(7)
    assert len(first) == 5
    assert first == windows(7)
    assert first != windows(8)
    for start, end in first:
        assert end > start >= 0.0


def test_per_target_streams_are_independent():
    """A second target's faults never perturb the first's schedule."""

    def windows_of_a(extra_target):
        specs = [FaultSpec.crash("a", mtbf=5.0, mttr=1.0)]
        if extra_target:
            specs.append(FaultSpec.crash("b", mtbf=5.0, mttr=1.0))
        inj = _injector(*specs, seed=9)
        out = []
        for i in range(200):
            out.append(inj.down_window("a", i * 0.25))
            if extra_target:
                inj.down_window("b", i * 0.25)
        return out

    assert any(windows_of_a(False))
    assert windows_of_a(False) == windows_of_a(True)


def test_injector_counts_injections():
    inj = _injector(
        FaultSpec.outage("ctrl", ((0.0, 10.0),)),
    )
    clock = _Clock()
    inj.bind(clock)
    clock.now = 5.0
    inj.fate_of("ctrl")
    inj.fate_of("ctrl")
    assert inj.stats["crash"] == 2


def test_bind_to_real_simulator():
    sim = Simulator()
    inj = _injector(FaultSpec.outage("ctrl", ((1.0, 2.0),)))
    assert inj.bind(sim) is inj
    assert inj.now == sim.now
    # Nothing is ever scheduled on the engine by the injector: the
    # event queue stays empty and run() returns immediately.
    sim.run()
    assert sim.now == 0.0


def test_co_run_observer_records_the_outage(small_table):
    """The executor binds the injector to its simulator, whose observer
    then sees the controller's outage: the job's registration at t=0 is
    refused, and the recovery drain at the window's end re-registers
    it."""
    topo = single_switch(4, capacity=100.0)
    ctrl = SabaController(small_table)
    injector = _injector(FaultSpec.outage(CONTROLLER_ENDPOINT, ((0.0, 0.5),)))
    bus = RpcBus(faults=injector)
    observer = Observer()
    events = []
    observer.bus.subscribe(
        lambda e: events.append((e.type, e.time)),
        types=["faults.crash", "faults.recover"],
    )
    libraries = []

    def connections(fabric):
        libraries.append(SabaLibrary(fabric, ctrl, bus=bus, fail_open=True))
        return libraries[0]

    job = Job("lr0", CATALOG["LR"].instantiate(n_instances=2), "LR",
              topo.servers[:2])
    CoRunExecutor(topo, policy=ctrl, connections_factory=connections,
                  observer=observer, faults=injector).run([job])
    assert bus.stats.unavailable == 1
    assert libraries[0].reregistrations == 1
    assert events == [("faults.crash", 0.0), ("faults.recover", 0.5)]
